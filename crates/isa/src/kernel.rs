//! Kernel and module containers.

use crate::asm;
use crate::error::AsmError;
use crate::instr::Instr;
use std::fmt;

/// An assembled kernel: the instruction stream plus launch metadata.
///
/// The metadata mirrors what a CUDA toolchain records for a real kernel —
/// register footprint, static shared-memory usage, per-thread local-memory
/// usage — because the fault-injection methodology (derating factors,
/// occupancy limits) depends on it.
#[derive(Debug, Clone)]
pub struct Kernel {
    name: String,
    instrs: Vec<Instr>,
    num_params: u8,
    num_regs: u8,
    smem_bytes: u32,
    lmem_bytes: u32,
    /// 1-based source line each instruction was parsed from.
    lines: Vec<u32>,
    /// `(instr index, label)` pairs in instruction order.
    labels: Vec<(u32, String)>,
}

/// The line table and label table are debug info: two kernels that differ
/// only in source formatting are the same kernel.  The disassembler also
/// relies on this — reassembling `Kernel`'s `Display` output yields fresh
/// line numbers but must compare equal to the original.
impl PartialEq for Kernel {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.instrs == other.instrs
            && self.num_params == other.num_params
            && self.num_regs == other.num_regs
            && self.smem_bytes == other.smem_bytes
            && self.lmem_bytes == other.lmem_bytes
    }
}

impl Kernel {
    // One parameter per assembled field; only the assembler calls this.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        name: String,
        instrs: Vec<Instr>,
        num_params: u8,
        num_regs: u8,
        smem_bytes: u32,
        lmem_bytes: u32,
        lines: Vec<u32>,
        labels: Vec<(u32, String)>,
    ) -> Self {
        Kernel {
            name,
            instrs,
            num_params,
            num_regs,
            smem_bytes,
            lmem_bytes,
            lines,
            labels,
        }
    }

    /// The kernel name (the `.kernel` directive operand).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instruction stream; branch targets are indices into this slice.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Number of `u32` parameters preloaded into `R0..` at thread start.
    pub fn num_params(&self) -> u8 {
        self.num_params
    }

    /// Allocated registers per thread (covers parameters and all referenced
    /// registers; may be raised by a `.regs` directive).
    pub fn num_regs(&self) -> u8 {
        self.num_regs
    }

    /// Static shared memory per CTA, in bytes.
    pub fn smem_bytes(&self) -> u32 {
        self.smem_bytes
    }

    /// Local memory per thread, in bytes.
    pub fn lmem_bytes(&self) -> u32 {
        self.lmem_bytes
    }

    /// The 1-based source line instruction `i` was assembled from.
    pub fn source_line(&self, i: usize) -> Option<u32> {
        self.lines.get(i).copied().filter(|&l| l != 0)
    }

    /// The nearest label at or before instruction `i`, if any — the block
    /// the instruction belongs to in the original source.
    pub fn source_label(&self, i: usize) -> Option<&str> {
        self.labels
            .iter()
            .rev()
            .find(|(pos, _)| *pos as usize <= i)
            .map(|(_, l)| l.as_str())
    }
}

impl fmt::Display for Kernel {
    /// Disassembles the kernel in a form [`Module::assemble`] accepts back.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, ".kernel {}", self.name)?;
        writeln!(f, ".params {}", self.num_params)?;
        // `.regs 0` is not accepted by the assembler (a register count of
        // zero is only possible when nothing is referenced, which the
        // assembler infers on its own).
        if self.num_regs > 0 {
            writeln!(f, ".regs {}", self.num_regs)?;
        }
        writeln!(f, ".smem {}", self.smem_bytes)?;
        writeln!(f, ".lmem {}", self.lmem_bytes)?;
        for (idx, i) in self.instrs.iter().enumerate() {
            writeln!(f, "L{idx}: {i}")?;
        }
        Ok(())
    }
}

/// A collection of kernels assembled from one source text, analogous to a
/// CUDA module / cubin.
///
/// ```
/// use gpufi_isa::Module;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let m = Module::assemble(".kernel a\n EXIT\n.kernel b\n EXIT\n")?;
/// assert_eq!(m.kernels().len(), 2);
/// assert!(m.kernel("a").is_some());
/// assert!(m.kernel("missing").is_none());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    kernels: Vec<Kernel>,
}

impl Module {
    pub(crate) fn from_kernels(kernels: Vec<Kernel>) -> Self {
        Module { kernels }
    }

    /// Assembles SASS-lite source text into a module.
    ///
    /// # Errors
    ///
    /// Returns an [`AsmError`] carrying the offending source line when the
    /// text contains unknown mnemonics, malformed operands, undefined or
    /// duplicate labels, out-of-range registers, or stores to the read-only
    /// texture space.
    pub fn assemble(source: &str) -> Result<Self, AsmError> {
        asm::assemble(source)
    }

    /// All kernels, in source order.
    pub fn kernels(&self) -> &[Kernel] {
        &self.kernels
    }

    /// Looks up a kernel by name.
    pub fn kernel(&self, name: &str) -> Option<&Kernel> {
        self.kernels.iter().find(|k| k.name() == name)
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for k in &self.kernels {
            writeln!(f, "{k}")?;
        }
        Ok(())
    }
}
