//! The workload abstraction: a CUDA application ported to SASS-lite.

use gpufi_isa::Module;
use gpufi_sim::{Gpu, LaunchError, Trap};
use std::error::Error;
use std::fmt;

/// An error escaping a workload run.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadError {
    /// The simulated GPU trapped (crash or watchdog timeout).
    Trap(Trap),
    /// A host-side device-API error (allocation, bad pointer).
    Device(LaunchError),
    /// A kernel the golden run launched is missing from the workload's
    /// module — a workload-definition bug surfaced during profiling, not
    /// an injection effect.
    MissingKernel {
        /// The launched-but-undefined kernel name.
        kernel: String,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::Trap(t) => write!(f, "gpu trap: {t}"),
            WorkloadError::Device(e) => write!(f, "device error: {e}"),
            WorkloadError::MissingKernel { kernel } => {
                write!(f, "launched kernel `{kernel}` missing from module")
            }
        }
    }
}

impl Error for WorkloadError {}

impl From<Trap> for WorkloadError {
    fn from(t: Trap) -> Self {
        WorkloadError::Trap(t)
    }
}

impl From<LaunchError> for WorkloadError {
    fn from(e: LaunchError) -> Self {
        WorkloadError::Device(e)
    }
}

/// A complete GPU application: host driver plus its SASS-lite kernels.
///
/// `run` must be **deterministic** — same inputs, same launches, same
/// result bytes — because the classifier compares a faulty run bit-for-bit
/// against the golden (fault-free) run, exactly like the paper's
/// predefined-result-file check (§III.B).
///
/// Implementations must be stateless across runs (`run` takes `&self`) so
/// the campaign controller can execute runs on multiple threads, and
/// [`RefUnwindSafe`](std::panic::RefUnwindSafe) — plain data, no interior
/// mutability — so the supervisor can wrap each run in
/// `std::panic::catch_unwind` without a panicking run leaking a
/// broken-invariant view of the workload to its siblings.
///
/// Host loops must be **bounded**, as BFS caps its stop-flag loop at one
/// iteration per node.  The campaign's only Timeout is the cycle watchdog
/// (2× the golden cycles), which spans launches, so it ends a run that
/// keeps launching kernels of at least one cycle each; but a launch that
/// finishes in its first scheduler iteration (a lone `EXIT`) adds no
/// cycle, and an unbounded loop of those would never reach it.
pub trait Workload: Sync + std::panic::RefUnwindSafe {
    /// The benchmark's short name (e.g. `"VA"`, `"HS"`).
    fn name(&self) -> &'static str;

    /// The assembled kernel module (used to size the fault spaces).
    fn module(&self) -> &Module;

    /// Drives the full application on `gpu` — allocations, uploads, kernel
    /// launches, host-side iteration logic — and returns the result buffer.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] when the GPU traps or a device copy fails
    /// (both classified as failures by the campaign).
    fn run(&self, gpu: &mut Gpu) -> Result<Vec<u8>, WorkloadError>;
}
