//! Static analysis over SASS-lite kernels: CFG, dominators, liveness, and
//! lint passes.
//!
//! The analyses serve two production roles in the fault-injection pipeline:
//!
//! 1. **Correctness tooling** — [`lint_kernel`] runs the full lint battery
//!    (uninitialized reads, divergent barriers, shared-memory races,
//!    unreachable code, write-never-read registers, malformed reconvergence
//!    points) over a kernel.  The `gpufi lint` CLI, the kernel fuzzer, and
//!    the bundled-workload test suite all gate on it.
//! 2. **ACE-style campaign pruning** — [`dead_registers`] computes, per
//!    kernel, the allocated registers no reachable instruction ever reads.
//!    A register-file fault injected into such a register is architecturally
//!    un-ACE (cannot affect correct execution), so the campaign engine
//!    classifies it Masked without simulating the run; `gpufi campaign
//!    --oracle-check` confirms each such verdict against a full simulation.
//!
//! # Example
//!
//! ```
//! use gpufi_isa::{analysis, Module};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let module = Module::assemble(
//!     ".kernel k\n.params 1\n.regs 4\n LDG R1, [R0]\n IADD R1, R1, 1\n \
//!      STG [R0], R1\n EXIT\n",
//! )?;
//! let kernel = module.kernel("k").unwrap();
//! assert!(analysis::lint_kernel(kernel).is_empty());
//! // R2 and R3 are allocated but never read: fault-prunable.
//! assert_eq!(analysis::dead_registers(kernel), vec![2, 3]);
//! # Ok(())
//! # }
//! ```

pub mod bit_liveness;
pub mod cfg;
pub mod dom;
pub mod known_bits;
pub mod lints;
pub mod liveness;

pub use bit_liveness::{dead_bit_masks, BitLiveSet, BitLiveness};
pub use cfg::{instr_succs, BasicBlock, Cfg};
pub use dom::{reconvergence_violations, DomInfo};
pub use known_bits::{KnownBits, KnownBitsAnalysis, KnownState};
pub use lints::{lint_kernel, Finding};
pub use liveness::dead_registers;

use crate::Module;

/// Lints every kernel of a module; returns `(kernel_name, finding)` pairs
/// in kernel order.
pub fn lint_module(module: &Module) -> Vec<(String, Finding)> {
    let mut out = Vec::new();
    for k in module.kernels() {
        for f in lint_kernel(k) {
            out.push((k.name().to_string(), f));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_module_reports_per_kernel() {
        let m = Module::assemble(
            ".kernel clean\n.params 1\n LDG R1, [R0]\n STG [R0], R1\n EXIT\n\
             .kernel dirty\n.params 1\n IADD R2, R1, 1\n STG [R0], R2\n EXIT\n",
        )
        .unwrap();
        let findings = lint_module(&m);
        assert!(findings.iter().all(|(k, _)| k == "dirty"), "{findings:?}");
        assert!(!findings.is_empty());
    }
}
