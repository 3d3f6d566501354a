//! Error-protection design study: the use case the paper motivates —
//! deciding *which* structure to protect (e.g. with ECC/parity) by
//! measuring each structure's contribution to the chip's FIT rate.
//!
//! For one benchmark, this example runs per-structure campaigns and then
//! asks: if we added perfect protection to exactly one structure, how much
//! of the chip FIT would that remove, per protected bit?
//!
//! ```text
//! cargo run --release --example protection_tradeoff [BENCH] [RUNS]
//! ```

use gpufi::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let bench_name = args.next().unwrap_or_else(|| "HS".to_string());
    let runs: usize = args.next().and_then(|v| v.parse().ok()).unwrap_or(80);

    let benchmark =
        by_name(&bench_name).ok_or_else(|| format!("unknown benchmark `{bench_name}`"))?;
    let card = GpuConfig::rtx2060();
    let golden = profile(benchmark.as_ref(), &card)?;
    let cfg = AnalysisConfig::new(runs, 5);
    let analysis = analyze(benchmark.as_ref(), &card, &cfg, &golden)?;
    let raw = raw_fit_per_bit(card.process_nm);

    println!(
        "{} on {} — chip FIT {:.4} ({} runs/campaign)\n",
        analysis.benchmark, analysis.card, analysis.fit, runs
    );
    println!(
        "{:<18} {:>12} {:>10} {:>10} {:>16}",
        "structure", "size (Mbit)", "FIT", "FIT %", "FIT removed/Mbit"
    );

    let mut rows: Vec<(String, f64, u64)> = analysis
        .structures
        .iter()
        .map(|s| {
            let fit = structure_fit(s.rates.failure_rate(), s.size_bits, raw);
            (s.structure.name().to_string(), fit, s.size_bits)
        })
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));

    for (name, fit, bits) in &rows {
        let mbit = *bits as f64 / 1e6;
        let share = if analysis.fit > 0.0 {
            fit / analysis.fit
        } else {
            0.0
        };
        let per_mbit = if mbit > 0.0 { fit / mbit } else { 0.0 };
        println!(
            "{:<18} {:>12.2} {:>10.4} {:>9.1}% {:>16.5}",
            name,
            mbit,
            fit,
            100.0 * share,
            per_mbit
        );
    }

    if let Some((best, fit, _)) = rows.first() {
        println!(
            "\n=> protecting the {} first removes {:.1}% of this workload's FIT",
            best,
            if analysis.fit > 0.0 {
                100.0 * fit / analysis.fit
            } else {
                0.0
            }
        );
    }
    println!(
        "\nThis per-structure attribution is exactly what software-level \
         injectors\n(NVBitFI, SASSIFI, ...) cannot produce — the paper's \
         core argument (§I)."
    );
    Ok(())
}
