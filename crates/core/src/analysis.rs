//! Whole-application analysis: every kernel × structure campaign, folded
//! into the paper's metrics (Figs. 1–7).

use crate::campaign::{run_campaign, CampaignConfig, CampaignError};
use crate::profile::{profile, GoldenProfile};
use crate::workload::{Workload, WorkloadError};
use gpufi_faults::{CampaignSpec, DrawError, MultiBitMode, Structure};
use gpufi_metrics::{
    chip_fit, df_reg, df_smem, raw_fit_per_bit, wavf, FaultEffect, KernelAvf, StructureResult,
    Tally,
};
use gpufi_sim::GpuConfig;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Configuration of a whole-application analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalysisConfig {
    /// Injection runs per (kernel × structure) campaign.
    pub runs: usize,
    /// Base seed.
    pub seed: u64,
    /// Bits flipped per fault (1 = single, 3 = the paper's triple-bit).
    pub bits_per_fault: u32,
    /// Multi-bit placement.
    pub multi_bit: MultiBitMode,
    /// Structures to campaign over (defaults to the five on-chip ones).
    pub structures: Vec<Structure>,
    /// Worker threads (0 = autodetect).
    pub threads: usize,
}

impl AnalysisConfig {
    /// A single-bit analysis over the five on-chip structures.
    pub fn new(runs: usize, seed: u64) -> Self {
        AnalysisConfig {
            runs,
            seed,
            bits_per_fault: 1,
            multi_bit: MultiBitMode::SameEntry,
            structures: Structure::ON_CHIP.to_vec(),
            threads: 0,
        }
    }

    /// Sets the number of bits per fault.
    pub fn bits(mut self, k: u32) -> Self {
        self.bits_per_fault = k;
        self
    }

    /// Restricts the analysis to the given structures.
    pub fn structures(mut self, s: &[Structure]) -> Self {
        self.structures = s.to_vec();
        self
    }
}

/// Cycle-weighted, derated per-class rates of one structure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EffectRates {
    /// SDC rate.
    pub sdc: f64,
    /// Crash rate.
    pub crash: f64,
    /// Timeout rate.
    pub timeout: f64,
    /// Performance-only rate.
    pub performance: f64,
}

impl EffectRates {
    /// The AVF contribution: SDC + Crash + Timeout (Performance excluded,
    /// §V.B).
    pub fn failure_rate(&self) -> f64 {
        self.sdc + self.crash + self.timeout
    }
}

/// Aggregated result for one structure across all kernels of an
/// application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StructureOutcome {
    /// The structure.
    pub structure: Structure,
    /// Raw fault-effect counts summed over kernels (underated).
    pub tally: Tally,
    /// Cycle-weighted, derated class rates.
    pub rates: EffectRates,
    /// Chip-wide size in bits (Table I).
    pub size_bits: u64,
}

impl StructureOutcome {
    /// This structure's share of the chip AVF numerator.
    pub fn avf_weight(&self) -> f64 {
        self.rates.failure_rate() * self.size_bits as f64
    }
}

/// The complete analysis of one benchmark on one card.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppAnalysis {
    /// Benchmark name.
    pub benchmark: String,
    /// Card name.
    pub card: String,
    /// Injection runs per campaign.
    pub runs_per_campaign: usize,
    /// Bits per fault.
    pub bits_per_fault: u32,
    /// Per-structure outcomes.
    pub structures: Vec<StructureOutcome>,
    /// The application wAVF — equation (3).
    pub wavf: f64,
    /// Cycle-weighted warp occupancy (the red dots of Fig. 3).
    pub occupancy: f64,
    /// Chip FIT rate (§VI.F).
    pub fit: f64,
    /// Total fault-free cycles.
    pub golden_cycles: u64,
}

impl AppAnalysis {
    /// The outcome for one structure, if it was campaigned.
    pub fn structure(&self, s: Structure) -> Option<&StructureOutcome> {
        self.structures.iter().find(|o| o.structure == s)
    }

    /// Per-structure shares of the total AVF (the paper's Fig. 2 pies).
    /// Empty when the AVF is zero.
    pub fn avf_shares(&self) -> Vec<(Structure, f64)> {
        let total: f64 = self
            .structures
            .iter()
            .map(StructureOutcome::avf_weight)
            .sum();
        if total <= 0.0 {
            return Vec::new();
        }
        self.structures
            .iter()
            .map(|o| (o.structure, o.avf_weight() / total))
            .collect()
    }
}

/// Chip-wide size of `structure` in bits (Table I values).
fn structure_size_bits(card: &GpuConfig, s: Structure) -> u64 {
    match s {
        Structure::RegisterFile => card.regfile_bits_total(),
        Structure::SharedMemory => card.smem_bits_total(),
        Structure::L1Data => card.l1d_bits_total(),
        Structure::L1Tex => card.l1t_bits_total(),
        Structure::L1Const => card.l1c_bits_total(),
        Structure::L2 => card.l2_bits_total(),
        Structure::LocalMemory => 0, // off-chip, excluded from chip AVF
        // Control-unit state (SIMT stacks, scheduler flags, scoreboard) is
        // not an SRAM array of Table I; excluded from the chip AVF sum.
        Structure::SimtStack | Structure::Sched | Structure::Scoreboard => 0,
    }
}

/// Why a whole-application analysis could not run.
#[derive(Debug, Clone)]
pub enum AnalysisError {
    /// The golden run failed.
    Golden(WorkloadError),
    /// A campaign's faults cannot be drawn as configured — e.g. more bits
    /// per fault than an entry holds.  (A structure with no injectable bits
    /// for a kernel is not an error: its failure ratio is zero.)
    Draw(DrawError),
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Golden(e) => write!(f, "golden run failed: {e}"),
            AnalysisError::Draw(e) => write!(f, "cannot draw fault: {e}"),
        }
    }
}

impl std::error::Error for AnalysisError {}

impl From<WorkloadError> for AnalysisError {
    fn from(e: WorkloadError) -> Self {
        AnalysisError::Golden(e)
    }
}

/// Runs the full kernel × structure campaign sweep for one benchmark on
/// one card and folds the results into the paper's metrics.
///
/// # Errors
///
/// Propagates golden-run failures and undrawable fault shapes
/// ([`AnalysisError`]) — an injection-run failure is a classification,
/// not an error.
pub fn analyze(
    workload: &dyn Workload,
    card: &GpuConfig,
    cfg: &AnalysisConfig,
) -> Result<AppAnalysis, AnalysisError> {
    let golden = profile(workload, card)?;
    analyze_with_golden(workload, card, cfg, &golden)
}

/// [`analyze`] with a pre-computed golden profile (lets callers reuse one
/// profile across single-/multi-bit sweeps).
///
/// # Errors
///
/// [`AnalysisError::Draw`] when a campaign's fault shape cannot be drawn.
pub fn analyze_with_golden(
    workload: &dyn Workload,
    card: &GpuConfig,
    cfg: &AnalysisConfig,
    golden: &GoldenProfile,
) -> Result<AppAnalysis, AnalysisError> {
    let kernels = golden.app.static_kernels();
    let total_cycles = golden.total_cycles().max(1);

    let mut structures = Vec::new();
    let mut kernel_avfs: Vec<KernelAvf> = vec![
        KernelAvf {
            avf: 0.0,
            cycles: 0
        };
        kernels.len()
    ];
    for (ki, k) in kernels.iter().enumerate() {
        kernel_avfs[ki].cycles = golden.app.cycles_of(k);
    }

    for &s in &cfg.structures {
        let size_bits = structure_size_bits(card, s);
        let mut tally = Tally::default();
        let mut rates = EffectRates::default();
        let mut per_kernel: Vec<(usize, f64, Tally)> = Vec::new();

        for (ki, k) in kernels.iter().enumerate() {
            let derate = derate_for(golden, card, k, s);
            let spec = CampaignSpec {
                structure: s,
                scope: gpufi_sim::Scope::Thread,
                bits_per_fault: cfg.bits_per_fault,
                multi_bit: cfg.multi_bit,
                replicate: 1,
                model: gpufi_faults::FaultModel::Transient,
            };
            let ccfg = CampaignConfig::new(spec, cfg.runs, seed_for(cfg.seed, ki, s))
                .for_kernel(k.clone())
                .with_threads(cfg.threads);
            match run_campaign(workload, card, &ccfg, golden) {
                Ok(res) => {
                    tally = tally + res.tally;
                    per_kernel.push((ki, derate, res.tally));
                }
                // Empty structure for this kernel (no shared/local memory,
                // no L1D on this chip): failure ratio is zero by
                // construction.
                Err(CampaignError::Draw(
                    DrawError::EmptyStructure(_) | DrawError::EmptyWindows,
                )) => per_kernel.push((ki, 0.0, Tally::default())),
                Err(CampaignError::Draw(e)) => return Err(AnalysisError::Draw(e)),
                Err(CampaignError::UnknownKernel(_)) => unreachable!("kernels from golden"),
                Err(e @ CampaignError::OracleDivergence(_)) => {
                    unreachable!("analysis campaigns never set oracle_check: {e}")
                }
                Err(e @ CampaignError::Journal(_)) => {
                    unreachable!("analysis campaigns never set a journal: {e}")
                }
                Err(CampaignError::Internal(missing)) => {
                    unreachable!("supervisor lost run indices {missing:?}")
                }
                Err(e @ CampaignError::Sampling(_)) => {
                    unreachable!("analysis campaigns always sample flat: {e}")
                }
            }
        }

        // Cycle-weighted derated class rates across kernels.
        for (ki, derate, t) in &per_kernel {
            let w = kernel_avfs[*ki].cycles as f64 / total_cycles as f64;
            rates.sdc += t.fraction(FaultEffect::Sdc) * derate * w;
            rates.crash += t.fraction(FaultEffect::Crash) * derate * w;
            rates.timeout += t.fraction(FaultEffect::Timeout) * derate * w;
            rates.performance += t.fraction(FaultEffect::Performance) * derate * w;
        }

        // Feed the per-kernel AVF (equation 2): accumulate numerators now,
        // divide by the total size once all structures are in.
        for (ki, derate, t) in &per_kernel {
            kernel_avfs[*ki].avf += t.failure_ratio() * derate * size_bits as f64;
        }

        structures.push(StructureOutcome {
            structure: s,
            tally,
            rates,
            size_bits,
        });
    }

    // Equation (2): divide each kernel's accumulated numerator by the total
    // structure size.
    let total_size: u64 = structures.iter().map(|s| s.size_bits).sum();
    if total_size > 0 {
        for ka in &mut kernel_avfs {
            ka.avf /= total_size as f64;
        }
    }

    let wavf_value = wavf(&kernel_avfs);

    // Chip FIT from the cycle-weighted structure rates.
    let raw = raw_fit_per_bit(card.process_nm);
    let fit_structs: Vec<StructureResult> = structures
        .iter()
        .map(|o| StructureResult {
            structure: o.structure.name().to_string(),
            tally: synthetic_tally(o.rates.failure_rate()),
            size_bits: o.size_bits,
            derate: 1.0,
        })
        .collect();
    let fit = chip_fit(&fit_structs, raw);

    // Cycle-weighted occupancy across static kernels.
    let occupancy = kernels
        .iter()
        .map(|k| golden.app.occupancy_of(k) * golden.app.cycles_of(k) as f64)
        .sum::<f64>()
        / total_cycles as f64;

    Ok(AppAnalysis {
        benchmark: workload.name().to_string(),
        card: card.name.clone(),
        runs_per_campaign: cfg.runs,
        bits_per_fault: cfg.bits_per_fault,
        structures,
        wavf: wavf_value,
        occupancy,
        fit,
        golden_cycles: golden.total_cycles(),
    })
}

/// A tally whose failure ratio equals `fr` (used to feed pre-weighted
/// rates into the FIT helpers, which expect tallies).
fn synthetic_tally(fr: f64) -> Tally {
    const SCALE: u64 = 1_000_000_000;
    let failures = (fr.clamp(0.0, 1.0) * SCALE as f64).round() as u64;
    Tally {
        masked: SCALE - failures,
        sdc: failures,
        crash: 0,
        timeout: 0,
        performance: 0,
    }
}

fn derate_for(golden: &GoldenProfile, card: &GpuConfig, kernel: &str, s: Structure) -> f64 {
    match s {
        Structure::RegisterFile => {
            let regs = golden
                .fault_spaces
                .get(kernel)
                .map_or(0, |sp| sp.regs_per_thread);
            df_reg(regs, golden.mean_threads_of(kernel), card.registers_per_sm)
        }
        Structure::SharedMemory => {
            let smem = golden
                .app
                .launches
                .iter()
                .find(|l| l.kernel == kernel)
                .map_or(0, |l| l.smem_per_cta);
            df_smem(smem, golden.mean_ctas_of(kernel), card.smem_per_sm)
        }
        _ => 1.0,
    }
}

fn seed_for(base: u64, kernel_idx: usize, s: Structure) -> u64 {
    let sid = match s {
        Structure::RegisterFile => 1u64,
        Structure::LocalMemory => 2,
        Structure::SharedMemory => 3,
        Structure::L1Data => 4,
        Structure::L1Tex => 5,
        Structure::L2 => 6,
        Structure::L1Const => 7,
        Structure::SimtStack => 8,
        Structure::Sched => 9,
        Structure::Scoreboard => 10,
    };
    base ^ (kernel_idx as u64).wrapping_mul(0x5851_f42d_4c95_7f2d)
        ^ sid.wrapping_mul(0x1405_7b7e_f767_814f)
}
