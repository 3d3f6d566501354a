//! The full campaign sweep behind Figures 1–7.

use gpufi_core::{analyze_with_golden, profile, AnalysisConfig, AppAnalysis};
use gpufi_sim::GpuConfig;

/// Configuration of a reproduction sweep.
#[derive(Debug, Clone)]
pub struct ReproConfig {
    /// Injection runs per (kernel × structure) campaign (paper: 3 000).
    pub runs: usize,
    /// Base seed.
    pub seed: u64,
    /// Worker threads (0 = autodetect).
    pub threads: usize,
}

impl Default for ReproConfig {
    /// Reads `GPUFI_RUNS` (default 120) so CI and the full-scale paper
    /// setting use the same binary.
    fn default() -> Self {
        let runs = std::env::var("GPUFI_RUNS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(120);
        ReproConfig {
            runs,
            seed: 2022,
            threads: 0,
        }
    }
}

/// All per-benchmark analyses for one card.
#[derive(Debug, Clone)]
pub struct CardResults {
    /// Card name.
    pub card: String,
    /// One analysis per benchmark, in the paper's benchmark order.
    pub benchmarks: Vec<AppAnalysis>,
}

/// Everything Figures 1–7 need.
#[derive(Debug, Clone)]
pub struct SuiteResults {
    /// Single-bit sweeps for RTX 2060, Quadro GV100 and GTX Titan.
    pub single: Vec<CardResults>,
    /// Triple-bit sweep for the RTX 2060 (Figs. 5–6).
    pub triple_rtx: Vec<AppAnalysis>,
}

/// Runs the single-bit sweep for one card.
pub fn run_card(cfg: &ReproConfig, card: &GpuConfig, bits: u32) -> CardResults {
    let mut analysis_cfg = AnalysisConfig::new(cfg.runs, cfg.seed).bits(bits);
    analysis_cfg.threads = cfg.threads;
    let mut benchmarks = Vec::new();
    for w in gpufi_workloads::paper_suite() {
        eprintln!("  [{}] {} ({}-bit)...", card.name, w.name(), bits);
        let golden = profile(w.as_ref(), card)
            .unwrap_or_else(|e| panic!("golden run of {} failed: {e}", w.name()));
        benchmarks.push(
            analyze_with_golden(w.as_ref(), card, &analysis_cfg, &golden)
                .unwrap_or_else(|e| panic!("analysis of {} failed: {e}", w.name())),
        );
    }
    CardResults {
        card: card.name.clone(),
        benchmarks,
    }
}

/// Runs the entire sweep: single-bit × 3 cards plus triple-bit × RTX 2060.
pub fn run_suite(cfg: &ReproConfig) -> SuiteResults {
    let single = GpuConfig::paper_cards()
        .iter()
        .map(|card| run_card(cfg, card, 1))
        .collect();
    let triple_rtx = run_card(cfg, &GpuConfig::rtx2060(), 3).benchmarks;
    SuiteResults { single, triple_rtx }
}
