//! # gpufi-sim — a cycle-level SIMT GPU simulator
//!
//! This crate is the reproduction's stand-in for GPGPU-Sim 4.0: a
//! from-scratch, cycle-level simulator of CUDA-style GPUs executing the
//! SASS-lite ISA defined in [`gpufi_isa`].  It models:
//!
//! * SIMT cores (SMs) with GTO (oldest issuable warp first) scheduling, SIMT
//!   reconvergence stacks, CTA barriers and per-thread register files;
//! * per-CTA shared memory and per-thread local memory;
//! * private per-SM L1 data and texture caches, a banked write-back L2,
//!   an interconnect and a DRAM latency model — with **real tag and data
//!   arrays**, so transient faults can be injected by flipping stored bits;
//! * a GigaThread-style CTA dispatcher with occupancy limits (threads,
//!   CTAs, shared memory, registers);
//! * chip configurations reproducing the paper's RTX 2060, Quadro GV100
//!   and GTX Titan (Table V).
//!
//! The fault-injection surface ([`InjectionPlan`], [`Gpu::arm_faults`])
//! lets a campaign flip bits in any of the six structures the paper
//! targets, at an exact cycle, with deterministic pre-drawn random "lots"
//! resolving the dynamic choices (which active thread, which warp, which
//! CTA).
//!
//! # Example
//!
//! ```
//! use gpufi_isa::Module;
//! use gpufi_sim::{Gpu, GpuConfig, LaunchDims};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let module = Module::assemble(
//!     ".kernel set42\n.params 1\n S2R R1, SR_TID.X\n SHL R1, R1, 2\n \
//!      IADD R1, R0, R1\n MOV R2, 42\n STG [R1], R2\n EXIT\n",
//! )?;
//! let mut gpu = Gpu::new(GpuConfig::rtx2060());
//! let buf = gpu.malloc(32 * 4)?;
//! gpu.launch(
//!     module.kernel("set42").unwrap(),
//!     LaunchDims::new(1, 32),
//!     &[buf],
//! )?;
//! let mut out = vec![0u8; 4];
//! gpu.memcpy_d2h(buf, &mut out)?;
//! assert_eq!(u32::from_le_bytes(out.try_into().unwrap()), 42);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Implements `Clone` for a struct field by field.  `clone_from` forwards
/// to every field's own `clone_from`, so restoring a checkpoint into an
/// existing device reuses each `Vec`/`Option`/`String` buffer whose shape
/// matches instead of reallocating it.  Both methods destructure the
/// struct exhaustively: a field missing from the list is a compile error,
/// so checkpoint state can never silently omit a new field.
macro_rules! clone_fields {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl Clone for $ty {
            fn clone(&self) -> Self {
                let $ty { $($field),+ } = self;
                $ty { $($field: $field.clone()),+ }
            }

            fn clone_from(&mut self, source: &Self) {
                let $ty { $($field),+ } = self;
                $($field.clone_from(&source.$field);)+
            }
        }
    };
}

pub mod config;
mod config_file;
mod core;
mod error;
mod fast_hash;
mod fault;
mod gpu;
mod grid;
pub mod mem;
pub mod oracle;
pub mod rng;
mod shadow;
mod snapshot;
mod stats;

pub use crate::core::{KernelCtx, SimtCore};
pub use config::{CacheConfig, GpuConfig, LatencyConfig, SchedulerPolicy, TAG_BITS, WARP_SIZE};
pub use config_file::ConfigError;
pub use error::{LaunchError, Trap};
pub use fault::{
    FaultModel, FaultSpace, FaultTarget, InjectionPlan, InjectionRecord, PlannedFault, Scope,
    Structure, SCHED_ENTRY_BITS, SCOREBOARD_ENTRY_BITS, SIMT_STACK_ENTRY_BITS,
};
pub use gpu::Gpu;
pub use grid::{Dim3, LaunchDims};
pub use mem::{AccessKind, CacheStats, FlipOutcome, MemSystem, GLOBAL_BASE, LOCAL_BASE};
pub use oracle::{Divergence, DivergenceReport, OracleMirror, ThreadState};
pub use shadow::Leave;
pub use snapshot::{CheckpointStore, Settled, SettledEffect, ShadowTally, Snapshot};
pub use stats::{AppStats, KernelWindow, LaunchStats};

// Unwind-safety boundary of the campaign supervisor: every piece of shared
// state a `catch_unwind`-wrapped injection run borrows must be
// `RefUnwindSafe`, or a panicking run could leak a broken-invariant view to
// its siblings.  The supervisor only ever *reads* these types across the
// boundary; the one `Gpu` a campaign client forks run after run is dropped
// as soon as a run panics, so no half-mutated device outlives the unwind
// (see `gpufi_core`'s `catch_run`).  The simulator is plain data: every
// host call that changes device state — D2H copies included — takes
// `&mut self`, so no `&self` method writes state, and the device, its
// memory system and the checkpoint store are `Sync + RefUnwindSafe`.
// These compile-time assertions keep a `Cell`, `RefCell` or atomic
// latch from coming back silently.
const _: () = {
    const fn assert_shared_plain_data<T: Sync + std::panic::RefUnwindSafe>() {}
    assert_shared_plain_data::<Gpu>();
    assert_shared_plain_data::<MemSystem>();
    assert_shared_plain_data::<Snapshot>();
    assert_shared_plain_data::<CheckpointStore>();
    assert_shared_plain_data::<GpuConfig>();
    assert_shared_plain_data::<InjectionPlan>();
    assert_shared_plain_data::<Trap>();
};
