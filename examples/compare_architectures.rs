//! Cross-generation study: run the same benchmark's full analysis on the
//! paper's three GPU generations (Turing / Volta / Kepler) and compare
//! wAVF, occupancy and predicted FIT — a miniature of Figures 3 and 7.
//!
//! ```text
//! cargo run --release --example compare_architectures [BENCH] [RUNS]
//! ```

use gpufi::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let bench_name = args.next().unwrap_or_else(|| "HS".to_string());
    let runs: usize = args.next().and_then(|v| v.parse().ok()).unwrap_or(60);

    let benchmark =
        by_name(&bench_name).ok_or_else(|| format!("unknown benchmark `{bench_name}`"))?;
    println!(
        "benchmark {} — {} injections per kernel x structure\n",
        benchmark.name(),
        runs
    );

    println!(
        "{:<14} {:>10} {:>11} {:>12} {:>10}",
        "card", "wAVF %", "occupancy", "FIT", "cycles"
    );
    for card in GpuConfig::paper_cards() {
        let golden = profile(benchmark.as_ref(), &card)?;
        let cfg = AnalysisConfig::new(runs, 7);
        let analysis = analyze(benchmark.as_ref(), &card, &cfg, &golden)?;
        println!(
            "{:<14} {:>10.4} {:>11.4} {:>12.4} {:>10}",
            analysis.card,
            100.0 * analysis.wavf,
            analysis.occupancy,
            analysis.fit,
            analysis.golden_cycles
        );
    }
    println!(
        "\nExpected shape (paper Figs. 3 & 7): similar AVF trends across \
         generations;\nthe 28 nm GTX Titan shows the highest FIT because its \
         raw fault rate per bit\nis ~6.7x the 12 nm cards'."
    );
    Ok(())
}
