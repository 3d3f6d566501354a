//! # gpufi-metrics — AVF, derating, FIT and campaign statistics
//!
//! Implements the quantitative methodology of the gpuFI-4 paper (§V, §VI.F):
//!
//! * fault-effect classification tallies ([`FaultEffect`], [`Tally`]);
//! * the structure failure ratio, equation (1);
//! * the size-weighted kernel AVF, equation (2), including the `df_reg`
//!   and `df_smem` derating factors that correct for GPGPU-Sim-style
//!   per-thread register files and per-CTA shared-memory instances;
//! * the cycle-weighted application AVF (wAVF), equation (3);
//! * Failures-in-Time rates, `FIT = AVF × rawFIT_bit × bits` (§VI.F),
//!   with the paper's raw FIT rates per fabrication process;
//! * the statistical sample-size / error-margin machinery of Leveugle et
//!   al. used to justify the 3 000-injection campaigns (§VI.A).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod avf;
mod effect;
mod fit;
mod stat;
mod stratified;

pub use avf::{avf_kernel, df_reg, df_smem, wavf, KernelAvf, StructureResult};
pub use effect::{FaultEffect, Tally};
pub use fit::{chip_fit, raw_fit_per_bit, structure_fit};
pub use stat::{margin_of_error, sample_size, z_score};
pub use stratified::{
    proportional_allocation, stratified_estimate, ClassEstimate, StratifiedEstimate,
    StratumObservation,
};
