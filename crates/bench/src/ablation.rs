//! Ablation studies of the reproduction's design choices (DESIGN.md §6):
//! warp-scheduler policy and the `df_reg` derating factor.

use crate::suite::ReproConfig;
use gpufi_core::{profile, run_campaign, CampaignConfig};
use gpufi_faults::{CampaignSpec, Structure};
use gpufi_metrics::df_reg;
use gpufi_sim::{GpuConfig, SchedulerPolicy};
use std::fmt::Write as _;

/// Runs both ablations and renders a report.
///
/// # Errors
///
/// Names the benchmark whose campaign failed, e.g. when `cfg.runs` is
/// zero.
pub fn ablation(cfg: &ReproConfig) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ABLATION 1. Warp scheduler: GTO vs round-robin (golden cycles, RTX 2060)."
    );
    let _ = writeln!(
        out,
        "{:<8} {:>10} {:>10} {:>8}",
        "bench", "GTO", "RR", "RR/GTO"
    );
    for w in gpufi_workloads::paper_suite() {
        let gto = {
            let card = GpuConfig::rtx2060();
            profile(w.as_ref(), &card).expect("golden").total_cycles()
        };
        let rr = {
            let mut card = GpuConfig::rtx2060();
            card.scheduler = SchedulerPolicy::RoundRobin;
            profile(w.as_ref(), &card).expect("golden").total_cycles()
        };
        let _ = writeln!(
            out,
            "{:<8} {:>10} {:>10} {:>8.3}",
            w.name(),
            gto,
            rr,
            rr as f64 / gto as f64
        );
    }

    let _ = writeln!(
        out,
        "\nABLATION 2. df_reg derating (paper \u{00a7}V.A): raw vs derated register-file FR."
    );
    let _ = writeln!(
        out,
        "{:<8} {:>9} {:>8} {:>12}  (RTX 2060, {} runs)",
        "bench", "raw FR", "df_reg", "derated FR", cfg.runs
    );
    let card = GpuConfig::rtx2060();
    for name in ["HS", "LUD", "VA"] {
        let w = gpufi_workloads::by_name(name).expect("paper benchmark");
        let golden = profile(w.as_ref(), &card).expect("golden");
        let ccfg = CampaignConfig::new(
            CampaignSpec::new(Structure::RegisterFile),
            cfg.runs,
            cfg.seed,
        )
        .with_threads(cfg.threads);
        let r = run_campaign(w.as_ref(), &card, &ccfg, &golden)
            .map_err(|e| format!("campaign of {name} failed: {e}"))?;
        eprintln!(
            "  [{name}] {:.1} runs/s on {} threads, {:.0}% early exits",
            r.stats.runs_per_sec,
            r.stats.threads,
            100.0 * r.stats.early_exit_rate
        );
        // Whole-application campaign: use the cycle-dominant kernel's df.
        let kernel = golden
            .app
            .static_kernels()
            .into_iter()
            .max_by_key(|k| golden.app.cycles_of(k))
            .expect("at least one kernel");
        let df = df_reg(
            golden.fault_spaces[&kernel].regs_per_thread,
            golden.mean_threads_of(&kernel),
            card.registers_per_sm,
        );
        let fr = r.tally.failure_ratio();
        let _ = writeln!(out, "{:<8} {:>9.4} {:>8.4} {:>12.5}", name, fr, df, fr * df);
    }
    let _ = writeln!(
        out,
        "\nWithout derating, per-thread register-file injection overstates the\n\
         physical register file's AVF by the inverse occupancy factor — the\n\
         GPGPU-Sim modelling issue \u{00a7}V.A corrects for."
    );
    Ok(out)
}
