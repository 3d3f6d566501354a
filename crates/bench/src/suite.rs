//! The full campaign sweep behind Figures 1–7.

use gpufi_core::{analyze, profile, AnalysisConfig, AppAnalysis};
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
    /// 120 runs per campaign, seed 2022, autodetected threads.
    fn default() -> Self {
        ReproConfig {
            runs: 120,
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
///
/// # Errors
///
/// Names the benchmark whose golden run or analysis failed, e.g. when
/// `cfg.runs` is zero.
pub fn run_card(cfg: &ReproConfig, card: &GpuConfig, bits: u32) -> Result<CardResults, String> {
    let mut analysis_cfg = AnalysisConfig::new(cfg.runs, cfg.seed).bits(bits);
    analysis_cfg.threads = cfg.threads;
    let mut benchmarks = Vec::new();
    for w in gpufi_workloads::paper_suite() {
        eprintln!("  [{}] {} ({}-bit)...", card.name, w.name(), bits);
        let golden = profile(w.as_ref(), card)
            .map_err(|e| format!("golden run of {} failed: {e}", w.name()))?;
        benchmarks.push(
            analyze(w.as_ref(), card, &analysis_cfg, &golden)
                .map_err(|e| format!("analysis of {} failed: {e}", w.name()))?,
        );
    }
    Ok(CardResults {
        card: card.name.clone(),
        benchmarks,
    })
}

/// Runs the entire sweep: single-bit × 3 cards plus triple-bit × RTX 2060.
///
/// # Errors
///
/// See [`run_card`].
pub fn run_suite(cfg: &ReproConfig) -> Result<SuiteResults, String> {
    let single = GpuConfig::paper_cards()
        .iter()
        .map(|card| run_card(cfg, card, 1))
        .collect::<Result<_, _>>()?;
    let triple_rtx = run_card(cfg, &GpuConfig::rtx2060(), 3)?.benchmarks;
    Ok(SuiteResults { single, triple_rtx })
}
