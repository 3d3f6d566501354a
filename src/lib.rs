//! # gpufi — a Rust reproduction of gpuFI-4 (ISPASS 2022)
//!
//! *gpuFI-4: A Microarchitecture-Level Framework for Assessing the
//! Cross-Layer Resilience of Nvidia GPUs* — Sartzetakis, Papadimitriou,
//! Gizopoulos, University of Athens.
//!
//! This façade crate re-exports the whole stack:
//!
//! * [`isa`] — the SASS-lite instruction set and assembler;
//! * [`sim`] — a from-scratch cycle-level SIMT GPU simulator (the
//!   GPGPU-Sim 4.0 stand-in) for the RTX 2060, Quadro GV100 and
//!   GTX Titan chips;
//! * [`faults`] — transient and permanent stuck-at fault models and the
//!   mask generator (single/multi-bit, data and control-unit targets);
//! * [`core`] — golden-run profiling, campaign control and the
//!   Masked / SDC / Crash / Timeout / Performance classifier;
//! * [`metrics`] — AVF (equations 1–3), derating factors, FIT rates and
//!   campaign statistics;
//! * [`workloads`] — the paper's twelve Rodinia / CUDA-SDK benchmarks.
//!
//! The [`prelude`] pulls in the names an injection study typically needs.
//!
//! # Quickstart
//!
//! ```
//! use gpufi::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let benchmark = VectorAdd::new(512);
//! let card = GpuConfig::rtx2060();
//!
//! // 1. Fault-free golden run.
//! let golden = profile(&benchmark, &card)?;
//!
//! // 2. A 16-run single-bit campaign on the register file.
//! let cfg = CampaignConfig::new(CampaignSpec::new(Structure::RegisterFile), 16, 42);
//! let result = run_campaign(&benchmark, &card, &cfg, &golden)?;
//! assert_eq!(result.tally.total(), 16);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use gpufi_core as core;
pub use gpufi_faults as faults;
pub use gpufi_isa as isa;
pub use gpufi_metrics as metrics;
pub use gpufi_sim as sim;
pub use gpufi_workloads as workloads;

/// The names an injection study typically needs, in one import.
pub mod prelude {
    pub use gpufi_core::{
        analyze, analyze_with_golden, campaign_fingerprint, classify, detail_of, profile,
        run_campaign, run_campaign_with_hook, run_worker, run_worker_with_chaos, serve_campaign,
        serve_campaign_with_chaos, AnalysisConfig, AnalysisError, AppAnalysis, CampaignConfig,
        CampaignError, CampaignResult, CampaignStats, ChaosPlan, CoordinatorChaos, FaultHook,
        GoldenProfile, RunDetail, RunJournal, RunRecord, SamplingMode, SamplingSummary,
        ServiceConfig, ServiceError, StrataLayout, Stratum, WorkerReport, WorkerThroughput,
        Workload, WorkloadError,
    };
    pub use gpufi_faults::{CampaignSpec, FaultModel, MaskGenerator, MultiBitMode, Structure};
    pub use gpufi_isa::Module;
    pub use gpufi_metrics::{
        avf_kernel, chip_fit, df_reg, df_smem, margin_of_error, proportional_allocation,
        raw_fit_per_bit, sample_size, stratified_estimate, wavf, ClassEstimate, FaultEffect,
        KernelAvf, StratifiedEstimate, StratumObservation, StructureResult, Tally,
    };
    pub use gpufi_sim::{
        CheckpointStore, Dim3, FaultTarget, Gpu, GpuConfig, InjectionPlan, LaunchDims, Scope,
        Snapshot, Trap,
    };
    pub use gpufi_workloads::{
        by_name, paper_suite, Backprop, Bfs, Gaussian, HotSpot, KMeans, Lud, NeedlemanWunsch,
        PathFinder, ScalarProd, Srad1, Srad2, VectorAdd,
    };
}
