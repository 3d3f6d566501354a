//! Architectural register and predicate names.

use std::fmt;

/// Highest addressable general-purpose register index (`R254`).
///
/// `R255` is reserved (real SASS uses it as the zero register `RZ`; SASS-lite
/// has no zero register, so the encoding space is simply capped).
pub const MAX_REG: u8 = 254;

/// Highest addressable predicate register index (`P6`).
///
/// `P7` is the always-true predicate `PT` in real SASS; SASS-lite spells an
/// unguarded instruction by omitting the `@P` prefix instead.
pub const MAX_PRED: u8 = 6;

/// A 32-bit general-purpose register, `R0` … `R254`.
///
/// Kernel parameters are preloaded into `R0..Rk` at thread start (the
/// SASS-lite launch ABI), so the allocated register count of a kernel always
/// covers its parameters — faults in a parameter pointer register are
/// therefore injectable, exactly like a live pointer in hardware.
///
/// ```
/// use gpufi_isa::Reg;
/// let r = Reg::new(3).unwrap();
/// assert_eq!(r.index(), 3);
/// assert_eq!(r.to_string(), "R3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

impl Reg {
    /// Creates a register from its index.
    ///
    /// Returns `None` if `index` exceeds [`MAX_REG`].
    pub fn new(index: u8) -> Option<Self> {
        (index <= MAX_REG).then_some(Reg(index))
    }

    /// The register index (0-based).
    pub fn index(self) -> u8 {
        self.0
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// A 1-bit predicate register, `P0` … `P6`.
///
/// ```
/// use gpufi_isa::Pred;
/// assert_eq!(Pred::new(0).unwrap().to_string(), "P0");
/// assert!(Pred::new(7).is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pred(u8);

impl Pred {
    /// Creates a predicate register from its index.
    ///
    /// Returns `None` if `index` exceeds [`MAX_PRED`].
    pub fn new(index: u8) -> Option<Self> {
        (index <= MAX_PRED).then_some(Pred(index))
    }

    /// The predicate index (0-based).
    pub fn index(self) -> u8 {
        self.0
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Read-only special registers, read with `S2R`.
///
/// These mirror the CUDA built-ins (`threadIdx`, `blockIdx`, `blockDim`,
/// `gridDim`) plus the intra-warp lane id and the warp id within the CTA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum SpecialReg {
    TidX,
    TidY,
    TidZ,
    CtaIdX,
    CtaIdY,
    CtaIdZ,
    NTidX,
    NTidY,
    NTidZ,
    NCtaIdX,
    NCtaIdY,
    NCtaIdZ,
    LaneId,
    WarpId,
}

impl SpecialReg {
    /// All special registers, in assembler-name order.
    pub const ALL: [SpecialReg; 14] = [
        SpecialReg::TidX,
        SpecialReg::TidY,
        SpecialReg::TidZ,
        SpecialReg::CtaIdX,
        SpecialReg::CtaIdY,
        SpecialReg::CtaIdZ,
        SpecialReg::NTidX,
        SpecialReg::NTidY,
        SpecialReg::NTidZ,
        SpecialReg::NCtaIdX,
        SpecialReg::NCtaIdY,
        SpecialReg::NCtaIdZ,
        SpecialReg::LaneId,
        SpecialReg::WarpId,
    ];

    /// The assembler spelling, e.g. `SR_TID.X`.
    pub fn name(self) -> &'static str {
        match self {
            SpecialReg::TidX => "SR_TID.X",
            SpecialReg::TidY => "SR_TID.Y",
            SpecialReg::TidZ => "SR_TID.Z",
            SpecialReg::CtaIdX => "SR_CTAID.X",
            SpecialReg::CtaIdY => "SR_CTAID.Y",
            SpecialReg::CtaIdZ => "SR_CTAID.Z",
            SpecialReg::NTidX => "SR_NTID.X",
            SpecialReg::NTidY => "SR_NTID.Y",
            SpecialReg::NTidZ => "SR_NTID.Z",
            SpecialReg::NCtaIdX => "SR_NCTAID.X",
            SpecialReg::NCtaIdY => "SR_NCTAID.Y",
            SpecialReg::NCtaIdZ => "SR_NCTAID.Z",
            SpecialReg::LaneId => "SR_LANEID",
            SpecialReg::WarpId => "SR_WARPID",
        }
    }

    /// Parses an assembler spelling; inverse of [`SpecialReg::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|sr| sr.name() == name)
    }
}

impl fmt::Display for SpecialReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_bounds() {
        assert_eq!(Reg::new(0).unwrap().index(), 0);
        assert_eq!(Reg::new(MAX_REG).unwrap().index(), MAX_REG);
        assert!(Reg::new(MAX_REG + 1).is_none());
    }

    #[test]
    fn pred_bounds() {
        assert_eq!(Pred::new(MAX_PRED).unwrap().index(), MAX_PRED);
        assert!(Pred::new(MAX_PRED + 1).is_none());
    }

    #[test]
    fn special_reg_name_roundtrip() {
        for sr in SpecialReg::ALL {
            assert_eq!(SpecialReg::from_name(sr.name()), Some(sr));
        }
        assert_eq!(SpecialReg::from_name("SR_BOGUS"), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Reg::new(42).unwrap().to_string(), "R42");
        assert_eq!(Pred::new(5).unwrap().to_string(), "P5");
        assert_eq!(SpecialReg::LaneId.to_string(), "SR_LANEID");
    }
}
