//! # gpufi-core — the injection-campaign engine
//!
//! This crate reproduces gpuFI-4's campaign controller and result parser:
//!
//! 1. **Profile** a workload fault-free ([`profile`]) to capture the golden
//!    output, the per-kernel cycle windows, occupancy/residency statistics
//!    and the injectable fault spaces.
//! 2. **Run a campaign** ([`run_campaign`]): for each of N runs, draw a
//!    fault from the mask generator, arm a fresh simulated GPU, execute
//!    the full application and classify the outcome as Masked / SDC /
//!    Crash / Timeout / Performance (§V.B).
//! 3. **Analyze** ([`analyze`]): sweep every kernel × structure, apply the
//!    `df_reg`/`df_smem` derating, and fold the results into the kernel
//!    AVF (eq. 2), the application wAVF (eq. 3) and the chip FIT (§VI.F).
//!
//! Workloads implement the [`Workload`] trait — the analogue of the
//! paper's "slightly modified CUDA application that prints PASSED/FAILED":
//! instead of printing, a workload returns its result buffer, and the
//! classifier compares it against the golden run.
//!
//! # Example
//!
//! ```
//! use gpufi_core::{profile, run_campaign, CampaignConfig, Workload, WorkloadError};
//! use gpufi_faults::{CampaignSpec, Structure};
//! use gpufi_isa::Module;
//! use gpufi_sim::{Gpu, GpuConfig, LaunchDims};
//!
//! struct Quick(Module);
//!
//! impl Workload for Quick {
//!     fn name(&self) -> &'static str { "quick" }
//!     fn module(&self) -> &Module { &self.0 }
//!     fn run(&self, gpu: &mut Gpu) -> Result<Vec<u8>, WorkloadError> {
//!         let buf = gpu.malloc(32 * 4)?;
//!         gpu.launch(self.0.kernel("k").unwrap(), LaunchDims::new(1, 32), &[buf])?;
//!         let mut out = vec![0u8; 32 * 4];
//!         gpu.memcpy_d2h(buf, &mut out)?;
//!         Ok(out)
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let module = Module::assemble(
//!     ".kernel k\n.params 1\n S2R R1, SR_TID.X\n SHL R2, R1, 2\n IADD R2, R0, R2\n \
//!      STG [R2], R1\n EXIT\n",
//! )?;
//! let workload = Quick(module);
//! let card = GpuConfig::rtx2060();
//! let golden = profile(&workload, &card)?;
//! let cfg = CampaignConfig::new(CampaignSpec::new(Structure::RegisterFile), 8, 42);
//! let result = run_campaign(&workload, &card, &cfg, &golden)?;
//! assert_eq!(result.tally.total(), 8);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod campaign;
mod classify;
pub mod json;
mod profile;
mod report;
mod sampling;
pub mod service;
mod supervisor;
mod workload;

pub use analysis::{
    analyze, analyze_with_golden, AnalysisConfig, AnalysisError, AppAnalysis, EffectRates,
    StructureOutcome,
};
pub use campaign::{
    run_campaign, run_campaign_with_hook, CampaignConfig, CampaignError, CampaignResult,
    CampaignStats, FaultHook, RunRecord, WorkerThroughput, DEFAULT_CHECKPOINT_BUDGET,
};
pub use classify::{classify, detail_of, RunDetail};
pub use profile::{profile, GoldenProfile};
pub use report::{analysis_csv, campaign_csv, campaign_summary_csv, CAMPAIGN_CSV_HEADER};
pub use sampling::{SamplingMode, SamplingSummary, StrataLayout, Stratum};
pub use service::{
    run_worker, run_worker_with_chaos, serve_campaign, serve_campaign_with_chaos, ChaosPlan,
    CoordinatorChaos, ServiceConfig, ServiceError, WorkerReport,
};
pub use supervisor::{campaign_fingerprint, RunJournal};
pub use workload::{Workload, WorkloadError};
