//! Whole-application analysis: every kernel × structure campaign, folded
//! into the paper's metrics (Figs. 1–7).

use crate::campaign::{run_campaign, CampaignConfig, CampaignError};
use crate::profile::GoldenProfile;
use crate::workload::Workload;
use gpufi_faults::{CampaignSpec, DrawError, Structure};
use gpufi_metrics::{
    avf_kernel, chip_fit, df_reg, df_smem, raw_fit_per_bit, wavf, FaultEffect, KernelAvf,
    StructureResult, Tally,
};
use gpufi_sim::GpuConfig;

/// Configuration of a whole-application analysis: transient same-entry
/// faults over the five on-chip structures ([`Structure::ON_CHIP`]).
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisConfig {
    /// Injection runs per (kernel × structure) campaign.
    pub runs: usize,
    /// Base seed.
    pub seed: u64,
    /// Bits flipped per fault (1 = single, 3 = the paper's triple-bit).
    pub bits_per_fault: u32,
    /// Worker threads (0 = autodetect).
    pub threads: usize,
}

impl AnalysisConfig {
    /// A single-bit analysis.
    pub fn new(runs: usize, seed: u64) -> Self {
        AnalysisConfig {
            runs,
            seed,
            bits_per_fault: 1,
            threads: 0,
        }
    }

    /// Sets the number of bits per fault.
    pub fn bits(mut self, k: u32) -> Self {
        self.bits_per_fault = k;
        self
    }
}

/// Cycle-weighted, derated per-class rates of one structure.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
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

/// Runs the full kernel × structure campaign sweep for one benchmark on
/// one card against `golden` (the workload's golden profile on `card`)
/// and folds the results into the paper's metrics: equation (2) per kernel, equation (3) across kernels
/// and the chip FIT of §VI.F, each evaluated once in `gpufi_metrics`.
///
/// A structure with no injectable bits for a kernel (no shared memory, no
/// L1D on this chip) is not an error: its failure ratio is zero.
///
/// # Errors
///
/// Any other [`CampaignError`] — e.g. [`CampaignError::Draw`] when more
/// bits per fault are asked for than an entry holds.  An injection-run
/// failure is a classification, not an error.
pub fn analyze(
    workload: &dyn Workload,
    card: &GpuConfig,
    cfg: &AnalysisConfig,
    golden: &GoldenProfile,
) -> Result<AppAnalysis, CampaignError> {
    let kernels = golden.app.static_kernels();
    let total_cycles = golden.total_cycles().max(1);
    let kernel_cycles: Vec<u64> = kernels.iter().map(|k| golden.app.cycles_of(k)).collect();

    // Each kernel's equation (2) inputs, in structure order.
    let mut kernel_rows: Vec<Vec<StructureResult>> = vec![Vec::new(); kernels.len()];
    let mut structures = Vec::new();
    for s in Structure::ON_CHIP {
        let size_bits = card.chip_bits(s);
        let mut tally = Tally::default();
        let mut rates = EffectRates::default();
        for (ki, k) in kernels.iter().enumerate() {
            let spec = CampaignSpec {
                bits_per_fault: cfg.bits_per_fault,
                ..CampaignSpec::new(s)
            };
            let ccfg = CampaignConfig::new(spec, cfg.runs, seed_for(cfg.seed, ki, s))
                .for_kernel(k.clone())
                .with_threads(cfg.threads);
            let (t, derate) = match run_campaign(workload, card, &ccfg, golden) {
                Ok(res) => (res.tally, derate_for(golden, card, k, s)),
                Err(CampaignError::Draw(
                    DrawError::EmptyStructure(_) | DrawError::EmptyWindows,
                )) => (Tally::default(), 0.0),
                Err(e) => return Err(e),
            };
            tally = tally + t;
            // Cycle-weighted derated class rates across kernels.
            let w = kernel_cycles[ki] as f64 / total_cycles as f64;
            rates.sdc += t.fraction(FaultEffect::Sdc) * derate * w;
            rates.crash += t.fraction(FaultEffect::Crash) * derate * w;
            rates.timeout += t.fraction(FaultEffect::Timeout) * derate * w;
            rates.performance += t.fraction(FaultEffect::Performance) * derate * w;
            kernel_rows[ki].push(StructureResult {
                structure: s.name().to_string(),
                tally: t,
                size_bits,
                derate,
            });
        }
        structures.push(StructureOutcome {
            structure: s,
            tally,
            rates,
            size_bits,
        });
    }

    let kernel_avfs: Vec<KernelAvf> = kernel_rows
        .iter()
        .zip(&kernel_cycles)
        .map(|(rows, &cycles)| KernelAvf {
            avf: avf_kernel(rows),
            cycles,
        })
        .collect();
    let fit_inputs: Vec<(f64, u64)> = structures
        .iter()
        .map(|o| (o.rates.failure_rate(), o.size_bits))
        .collect();

    // Cycle-weighted occupancy across static kernels.
    let occupancy = kernels
        .iter()
        .zip(&kernel_cycles)
        .map(|(k, &cycles)| golden.app.occupancy_of(k) * cycles as f64)
        .sum::<f64>()
        / total_cycles as f64;

    Ok(AppAnalysis {
        benchmark: workload.name().to_string(),
        card: card.name.clone(),
        runs_per_campaign: cfg.runs,
        bits_per_fault: cfg.bits_per_fault,
        structures,
        wavf: wavf(&kernel_avfs),
        occupancy,
        fit: chip_fit(&fit_inputs, raw_fit_per_bit(card.process_nm)),
        golden_cycles: golden.total_cycles(),
    })
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
