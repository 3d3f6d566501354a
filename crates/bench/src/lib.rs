//! # gpufi-bench — regenerating every table and figure of the paper
//!
//! The evaluation section of gpuFI-4 contains five tables and seven
//! figures.  This crate regenerates each of them against the Rust
//! reproduction:
//!
//! * **Tables I, II, IV, V** derive from the chip configurations and the
//!   injector's capability matrix ([`tables`]).
//! * **Figures 1–7** come from full injection-campaign sweeps
//!   ([`suite::run_suite`] + [`figures`]): single-bit campaigns over all
//!   five on-chip structures × 12 benchmarks × 3 cards, plus triple-bit
//!   campaigns on the RTX 2060.
//!
//! The `repro` binary drives everything:
//!
//! ```text
//! repro [--runs N] [--seed S] [--threads T] [--out DIR] <target>
//! target: table1 table2 table4 table5 fig1 fig2 fig3 fig4 fig5 fig6 fig7 all
//! ```
//!
//! Campaign sizes default to 120 injections per (kernel × structure)
//! campaign; the paper uses 3 000, which is one flag away
//! (`--runs 3000`) at proportionally longer wall-clock.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod figures;
pub mod suite;
pub mod tables;

pub use suite::{run_suite, CardResults, ReproConfig, SuiteResults};
