//! Plain-text exporters for campaign and analysis results (the paper
//! front-end's "collects the results" step, §III.A).
//!
//! CSV is written by hand — the schema is flat and stable, and it keeps
//! the dependency set to the workspace's core crates.

use crate::analysis::AppAnalysis;
use crate::campaign::CampaignResult;
use std::fmt::Write as _;

/// Escapes one CSV field (quotes fields containing separators).
fn field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// The per-run campaign CSV header.  This schema is **append-only**:
/// automation diffs validation campaigns against optimized ones with
/// `cut -d, -f1-4`, so the existing columns must never be renamed,
/// reordered or removed — new columns go at the end.
pub const CAMPAIGN_CSV_HEADER: &str =
    "run,effect,cycles,applied,early_exit,ckpt_skipped_cycles,detail,stratum,fault_model";

/// Renders a campaign as CSV: one header, one row per run.
///
/// Columns: [`CAMPAIGN_CSV_HEADER`].  The `detail` column carries the
/// [`RunDetail`](crate::RunDetail) sub-classification (`sim_panic`,
/// the trap kind behind a Crash, or which watchdog fired behind a
/// Timeout) and is empty for Masked / SDC / Performance runs.  The
/// trailing `stratum` column is the run's live-stratum index in a
/// stratified campaign and empty in a flat one; `fault_model` names the
/// campaign's fault model (`stuck-at-0` / `stuck-at-1`) and is empty for
/// the default transient model, keeping transient output byte-identical
/// modulo the appended header column.
pub fn campaign_csv(result: &CampaignResult) -> String {
    let model = match result.spec.model {
        gpufi_faults::FaultModel::Transient => "",
        m => m.name(),
    };
    let mut out = String::from(CAMPAIGN_CSV_HEADER);
    out.push('\n');
    for (i, r) in result.records.iter().enumerate() {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{}",
            i,
            r.effect.name(),
            r.cycles,
            r.applied,
            r.early_exit,
            r.ckpt_skipped_cycles,
            r.detail.as_str(),
            r.stratum.map(|s| s.to_string()).unwrap_or_default(),
            model
        );
    }
    out
}

/// Renders a whole-application analysis as CSV: one row per structure,
/// plus a `TOTAL` row carrying the wAVF / occupancy / FIT.
///
/// Columns:
/// `benchmark,card,structure,size_bits,sdc,crash,timeout,performance,avf_weight`.
pub fn analysis_csv(a: &AppAnalysis) -> String {
    let mut out = String::from(
        "benchmark,card,structure,size_bits,sdc,crash,timeout,performance,avf_weight\n",
    );
    for s in &a.structures {
        let _ = writeln!(
            out,
            "{},{},{},{},{:.6},{:.6},{:.6},{:.6},{:.6}",
            field(&a.benchmark),
            field(&a.card),
            field(s.structure.name()),
            s.size_bits,
            s.rates.sdc,
            s.rates.crash,
            s.rates.timeout,
            s.rates.performance,
            s.rates.failure_rate()
        );
    }
    let _ = writeln!(
        out,
        "{},{},TOTAL,,{:.6},,,{:.6},{:.6}",
        field(&a.benchmark),
        field(&a.card),
        a.wavf,
        a.occupancy,
        a.fit
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{EffectRates, StructureOutcome};
    use crate::campaign::RunRecord;
    use gpufi_faults::{CampaignSpec, Structure};
    use gpufi_metrics::{FaultEffect, Tally};

    fn sample_campaign() -> CampaignResult {
        let mut tally = Tally::default();
        tally.record(FaultEffect::Masked);
        tally.record(FaultEffect::Sdc);
        tally.record(FaultEffect::Masked);
        tally.record(FaultEffect::Masked);
        CampaignResult {
            spec: CampaignSpec::new(Structure::L2),
            kernel: Some("vec_add".into()),
            tally,
            records: vec![
                RunRecord {
                    effect: FaultEffect::Masked,
                    cycles: 100,
                    applied: false,
                    early_exit: true,
                    ckpt_skipped_cycles: 40,
                    detail: crate::RunDetail::None,
                    stratum: None,
                },
                RunRecord {
                    effect: FaultEffect::Sdc,
                    cycles: 100,
                    applied: true,
                    early_exit: false,
                    ckpt_skipped_cycles: 0,
                    detail: crate::RunDetail::None,
                    stratum: Some(3),
                },
                RunRecord {
                    effect: FaultEffect::Masked,
                    cycles: 100,
                    applied: true,
                    early_exit: false,
                    ckpt_skipped_cycles: 0,
                    detail: crate::RunDetail::StaticDead,
                    stratum: None,
                },
                RunRecord {
                    effect: FaultEffect::Masked,
                    cycles: 100,
                    applied: true,
                    early_exit: false,
                    ckpt_skipped_cycles: 0,
                    detail: crate::RunDetail::StaticDeadBit,
                    stratum: None,
                },
            ],
            rungs: {
                use crate::Rung::{PreClassified, Settled, Simulated};
                vec![Settled, Simulated, PreClassified, PreClassified]
            },
            stats: crate::campaign::CampaignStats::default(),
            sampling: None,
        }
    }

    /// Pins the per-run CSV schema verbatim.  If this test fails you are
    /// changing a published, append-only schema: CI and downstream
    /// tooling slice columns positionally (`cut -d, -f1-4`), so existing
    /// columns must keep their name and position — append new ones
    /// instead, and update this literal.
    #[test]
    fn campaign_csv_header_is_pinned() {
        assert_eq!(
            CAMPAIGN_CSV_HEADER,
            "run,effect,cycles,applied,early_exit,ckpt_skipped_cycles,detail,stratum,fault_model"
        );
        let csv = campaign_csv(&sample_campaign());
        let header = csv.lines().next().unwrap();
        assert_eq!(header, CAMPAIGN_CSV_HEADER);
        // The first four columns carry the effect comparison every
        // validation mode relies on.
        let first4: Vec<&str> = header.split(',').take(4).collect();
        assert_eq!(first4, ["run", "effect", "cycles", "applied"]);
        // Every data row has exactly as many fields as the header.
        let width = header.split(',').count();
        for row in csv.lines().skip(1) {
            assert_eq!(row.split(',').count(), width, "row `{row}`");
        }
    }

    #[test]
    fn per_run_csv_has_one_row_per_run() {
        let csv = campaign_csv(&sample_campaign());
        assert_eq!(csv.lines().count(), 5);
        // A stratified run carries its stratum index in the
        // append-only column.
        assert_eq!(csv.lines().nth(2).unwrap(), "1,SDC,100,true,false,0,,3,");
        // The `detail`, `stratum` and `fault_model` fields are empty for a
        // flat transient Masked run.
        assert!(csv.lines().nth(1).unwrap().ends_with(",40,,,"));
        // A statically-pruned run is a Masked run carrying `static_dead`
        // in the append-only detail column.
        assert_eq!(
            csv.lines().nth(3).unwrap(),
            "2,Masked,100,true,false,0,static_dead,,"
        );
        // A bit-granular pruned run (live register, dead bits) carries
        // `static_dead_bit`.
        assert_eq!(
            csv.lines().nth(4).unwrap(),
            "3,Masked,100,true,false,0,static_dead_bit,,"
        );
    }

    /// A permanent-model campaign names its model in the trailing
    /// `fault_model` column on every row.
    #[test]
    fn stuck_at_campaign_rows_carry_the_model() {
        let mut result = sample_campaign();
        result.spec = CampaignSpec::new(Structure::L2).model(gpufi_faults::FaultModel::StuckAt1);
        let csv = campaign_csv(&result);
        for row in csv.lines().skip(1) {
            assert!(row.ends_with(",stuck-at-1"), "row `{row}`");
        }
    }

    #[test]
    fn analysis_csv_shapes() {
        let a = AppAnalysis {
            benchmark: "VA".into(),
            card: "RTX 2060".into(),
            runs_per_campaign: 10,
            bits_per_fault: 1,
            structures: vec![StructureOutcome {
                structure: Structure::RegisterFile,
                tally: Tally::default(),
                rates: EffectRates {
                    sdc: 0.1,
                    crash: 0.0,
                    timeout: 0.0,
                    performance: 0.0,
                },
                size_bits: 100,
            }],
            wavf: 0.05,
            occupancy: 0.4,
            fit: 1.5,
            golden_cycles: 1234,
        };
        let csv = analysis_csv(&a);
        assert!(csv.contains("VA,RTX 2060,register file,100,0.1"));
        assert!(csv.lines().last().unwrap().contains("TOTAL"));
    }

    #[test]
    fn csv_escaping() {
        assert_eq!(field("plain"), "plain");
        assert_eq!(field("a,b"), "\"a,b\"");
        assert_eq!(field("q\"q"), "\"q\"\"q\"");
    }
}
