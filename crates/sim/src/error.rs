//! Simulator error and trap types.

use std::error::Error;
use std::fmt;

/// A fatal condition raised during simulated execution.
///
/// A trap aborts the current kernel launch; the fault-injection classifier
/// maps traps to the **Crash** fault-effect class (except [`Trap::Watchdog`],
/// which maps to **Timeout**).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trap {
    /// Access to an unmapped device address.
    InvalidAddress {
        /// The faulting byte address.
        addr: u32,
    },
    /// Access not aligned to the 4-byte access size.
    Misaligned {
        /// The faulting byte address.
        addr: u32,
    },
    /// Program counter left the kernel's instruction stream.
    InvalidPc {
        /// The out-of-range instruction index.
        pc: u32,
    },
    /// Shared-memory access beyond the CTA's allocation.
    SmemOutOfBounds {
        /// The faulting byte offset.
        offset: u32,
    },
    /// Local-memory access beyond the thread's allocation.
    LmemOutOfBounds {
        /// The faulting byte offset.
        offset: u32,
    },
    /// The watchdog cycle limit was exceeded (maps to **Timeout**).
    Watchdog,
    /// No warp can make progress (e.g. a diverged or corrupted barrier).
    Deadlock,
    /// A CTA barrier can never be released: some warps arrived
    /// (`barrier_arrived > 0`) but no warp can ever issue again, so the
    /// missing arrivals will never come.  A control-unit fault signature
    /// (maps to **Timeout** — the hardware would spin until the driver
    /// watchdog).
    LostBarrier,
    /// Every planned fault's lifetime has provably ended: the flips either
    /// never applied or died unobserved, so the remaining execution equals
    /// the golden run.  Raised only in early-exit mode; the campaign engine
    /// intercepts it and classifies the run **Masked**.
    FaultsExpired,
    /// A forked run whose faults have all fired reached the cycle of a
    /// later golden checkpoint with a device equal to that snapshot in
    /// everything but fault bookkeeping, and its host program had seen
    /// exactly the golden run's results: from here on it is the golden
    /// run.  Raised only in early-exit mode on checkpoint forks; the
    /// campaign engine classifies the run **Masked**.
    Reconverged,
}

impl Trap {
    /// Whether the classifier treats this trap as a timeout rather than a
    /// crash.
    pub fn is_timeout(self) -> bool {
        matches!(self, Trap::Watchdog | Trap::LostBarrier)
    }
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::InvalidAddress { addr } => write!(f, "invalid device address 0x{addr:08x}"),
            Trap::Misaligned { addr } => write!(f, "misaligned access at 0x{addr:08x}"),
            Trap::InvalidPc { pc } => write!(f, "program counter {pc} out of range"),
            Trap::SmemOutOfBounds { offset } => {
                write!(f, "shared-memory access at offset {offset} out of bounds")
            }
            Trap::LmemOutOfBounds { offset } => {
                write!(f, "local-memory access at offset {offset} out of bounds")
            }
            Trap::Watchdog => f.write_str("watchdog cycle limit exceeded"),
            Trap::Deadlock => f.write_str("no warp can make progress"),
            Trap::LostBarrier => f.write_str("CTA barrier can never be released (arrivals lost)"),
            Trap::FaultsExpired => {
                f.write_str("all planned faults expired unobserved (early exit)")
            }
            Trap::Reconverged => f.write_str("state reconverged with a golden checkpoint"),
        }
    }
}

impl Error for Trap {}

/// An error raised when configuring or launching work on the simulated GPU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchError {
    /// The requested block shape exceeds hardware limits.
    BadBlockShape {
        /// The requested threads per block.
        threads: u32,
    },
    /// A single CTA of this kernel does not fit on one SM.
    TooManyResources {
        /// Human-readable description of the exceeded resource.
        resource: String,
    },
    /// Kernel parameter count does not match the kernel's `.params`.
    BadParamCount {
        /// Parameters the kernel expects.
        expected: u8,
        /// Parameters supplied at launch.
        supplied: usize,
    },
    /// Device memory exhausted.
    OutOfMemory,
    /// A host copy touched an unallocated device range.
    BadDevicePointer,
}

impl fmt::Display for LaunchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaunchError::BadBlockShape { threads } => {
                write!(f, "block of {threads} threads exceeds the hardware limit")
            }
            LaunchError::TooManyResources { resource } => {
                write!(f, "kernel CTA does not fit on an SM: {resource}")
            }
            LaunchError::BadParamCount { expected, supplied } => {
                write!(
                    f,
                    "kernel expects {expected} parameters, {supplied} supplied"
                )
            }
            LaunchError::OutOfMemory => f.write_str("device memory exhausted"),
            LaunchError::BadDevicePointer => f.write_str("invalid device pointer"),
        }
    }
}

impl Error for LaunchError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trap_display_nonempty() {
        for t in [
            Trap::InvalidAddress { addr: 0x10 },
            Trap::Misaligned { addr: 3 },
            Trap::InvalidPc { pc: 99 },
            Trap::SmemOutOfBounds { offset: 1 },
            Trap::LmemOutOfBounds { offset: 1 },
            Trap::Watchdog,
            Trap::Deadlock,
            Trap::LostBarrier,
            Trap::FaultsExpired,
            Trap::Reconverged,
        ] {
            assert!(!t.to_string().is_empty());
        }
    }

    #[test]
    fn only_watchdog_is_timeout() {
        assert!(Trap::Watchdog.is_timeout());
        assert!(Trap::LostBarrier.is_timeout());
        assert!(!Trap::Deadlock.is_timeout());
        assert!(!Trap::InvalidAddress { addr: 0 }.is_timeout());
        assert!(!Trap::FaultsExpired.is_timeout());
        assert!(!Trap::Reconverged.is_timeout());
    }
}
