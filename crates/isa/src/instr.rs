//! Decoded instruction representation and its textual form.

use crate::op::{BitOp, CmpOp, FloatOp, FloatUnOp, IntOp, OpClass};
use crate::reg::{Pred, Reg, SpecialReg};
use std::fmt;

/// The memory space named by a load/store mnemonic.
///
/// The mapping to on-chip memories follows Table II of the paper: global and
/// local accesses are serviced by the L1 data cache, texture accesses by the
/// L1 texture cache, shared accesses by the per-CTA shared memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSpace {
    /// Device (global) memory — `LDG` / `STG`, cached in L1D and L2.
    Global,
    /// Per-CTA shared memory — `LDS` / `STS`, on-chip, uncached.
    Shared,
    /// Per-thread local memory — `LDL` / `STL`, resides in device memory,
    /// cached write-back in L1D.
    Local,
    /// Read-only texture path — `LDT`, cached in the L1 texture cache.
    Texture,
    /// Read-only constant space — `LDC`, cached in the L1 constant cache
    /// (0-based addresses into the module's constant bank).
    Const,
}

impl MemSpace {
    /// Load mnemonic for this space.
    pub fn load_mnemonic(self) -> &'static str {
        match self {
            MemSpace::Global => "LDG",
            MemSpace::Shared => "LDS",
            MemSpace::Local => "LDL",
            MemSpace::Texture => "LDT",
            MemSpace::Const => "LDC",
        }
    }

    /// Store mnemonic, or `None` for the read-only texture and constant
    /// paths.
    pub fn store_mnemonic(self) -> Option<&'static str> {
        match self {
            MemSpace::Global => Some("STG"),
            MemSpace::Shared => Some("STS"),
            MemSpace::Local => Some("STL"),
            MemSpace::Texture | MemSpace::Const => None,
        }
    }
}

/// A source operand: either a register or a 32-bit immediate.
///
/// Immediates hold a raw bit pattern; float immediates are stored as their
/// IEEE-754 bits (the assembler accepts `1.5f` spellings).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A general-purpose register source.
    Reg(Reg),
    /// An immediate value (raw 32-bit pattern).
    Imm(u32),
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => {
                // Print small values as signed decimal, others as hex, to
                // keep disassembly readable and reassemblable.
                let s = *v as i32;
                if (-4096..=4096).contains(&s) {
                    write!(f, "{s}")
                } else {
                    write!(f, "0x{v:08x}")
                }
            }
        }
    }
}

/// An instruction operation (the part after the optional `@P` guard).
///
/// Branch-like operations (`Bra`, `Ssy`) hold resolved instruction indices;
/// the assembler resolves label names during assembly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// `MOV Rd, src` — copy a register or immediate.
    Mov {
        /// Destination register.
        d: Reg,
        /// Source operand.
        src: Operand,
    },
    /// `S2R Rd, SR_x` — read a special register.
    S2r {
        /// Destination register.
        d: Reg,
        /// Special register to read.
        sr: SpecialReg,
    },
    /// Two-operand integer arithmetic, e.g. `IADD Rd, Ra, src`.
    IArith {
        /// Operation selector.
        op: IntOp,
        /// Destination register.
        d: Reg,
        /// First source register.
        a: Reg,
        /// Second source operand.
        b: Operand,
    },
    /// `IMAD Rd, Ra, b, Rc` — `Rd = Ra * b + Rc` (32-bit wrapping).
    IMad {
        /// Destination register.
        d: Reg,
        /// Multiplicand register.
        a: Reg,
        /// Multiplier operand.
        b: Operand,
        /// Addend register.
        c: Reg,
    },
    /// Bitwise / shift operation, e.g. `XOR Rd, Ra, src`.
    Bit {
        /// Operation selector.
        op: BitOp,
        /// Destination register.
        d: Reg,
        /// First source register.
        a: Reg,
        /// Second source operand.
        b: Operand,
    },
    /// `NOT Rd, Ra` — bitwise complement.
    Not {
        /// Destination register.
        d: Reg,
        /// Source register.
        a: Reg,
    },
    /// Two-operand float arithmetic, e.g. `FMUL Rd, Ra, src`.
    FArith {
        /// Operation selector.
        op: FloatOp,
        /// Destination register.
        d: Reg,
        /// First source register.
        a: Reg,
        /// Second source operand.
        b: Operand,
    },
    /// `FFMA Rd, Ra, b, Rc` — fused multiply-add `Rd = Ra * b + Rc`.
    FFma {
        /// Destination register.
        d: Reg,
        /// Multiplicand register.
        a: Reg,
        /// Multiplier operand.
        b: Operand,
        /// Addend register.
        c: Reg,
    },
    /// Unary float (SFU) operation, e.g. `FRCP Rd, Ra`.
    FUnary {
        /// Operation selector.
        op: FloatUnOp,
        /// Destination register.
        d: Reg,
        /// Source register.
        a: Reg,
    },
    /// `I2F Rd, Ra` — signed integer to float conversion.
    I2f {
        /// Destination register.
        d: Reg,
        /// Source register.
        a: Reg,
    },
    /// `F2I Rd, Ra` — float to signed integer conversion (round toward zero).
    F2i {
        /// Destination register.
        d: Reg,
        /// Source register.
        a: Reg,
    },
    /// `ISETP.<cmp> Pd, Ra, src` — signed integer compare into a predicate.
    ISetp {
        /// Comparison selector.
        cmp: CmpOp,
        /// Destination predicate.
        p: Pred,
        /// First source register.
        a: Reg,
        /// Second source operand.
        b: Operand,
    },
    /// `FSETP.<cmp> Pd, Ra, src` — float compare into a predicate.
    FSetp {
        /// Comparison selector.
        cmp: CmpOp,
        /// Destination predicate.
        p: Pred,
        /// First source register.
        a: Reg,
        /// Second source operand.
        b: Operand,
    },
    /// `SEL Rd, Ra, b, Pc` — `Rd = Pc ? Ra : b`.
    Sel {
        /// Destination register.
        d: Reg,
        /// Value when the predicate is true.
        a: Reg,
        /// Value when the predicate is false.
        b: Operand,
        /// Selector predicate.
        p: Pred,
    },
    /// `BRA target` — (conditionally, via the guard) branch.
    Bra {
        /// Resolved instruction index of the branch target.
        target: u32,
    },
    /// `SSY target` — push the divergence-reconvergence point.
    Ssy {
        /// Resolved instruction index of the reconvergence point.
        target: u32,
    },
    /// `SYNC` — pop the SIMT stack at a reconvergence point.
    Sync,
    /// `BAR` — CTA-wide barrier (`__syncthreads()`).
    Bar,
    /// `EXIT` — terminate the active lanes.
    Exit,
    /// `NOP` — no operation.
    Nop,
    /// Load: `LDG/LDS/LDL/LDT Rd, [Ra + offset]`.
    Ld {
        /// Memory space.
        space: MemSpace,
        /// Destination register.
        d: Reg,
        /// Address base register (byte address).
        addr: Reg,
        /// Constant byte offset.
        offset: i32,
    },
    /// Store: `STG/STS/STL [Ra + offset], Rv`.
    St {
        /// Memory space (never [`MemSpace::Texture`]).
        space: MemSpace,
        /// Address base register (byte address).
        addr: Reg,
        /// Constant byte offset.
        offset: i32,
        /// Value register.
        v: Reg,
    },
}

impl Op {
    /// The functional-unit class used by the timing model.
    pub fn class(&self) -> OpClass {
        match self {
            Op::Mov { .. }
            | Op::S2r { .. }
            | Op::Bit { .. }
            | Op::Not { .. }
            | Op::ISetp { .. }
            | Op::FSetp { .. }
            | Op::Sel { .. }
            | Op::I2f { .. }
            | Op::F2i { .. }
            | Op::Nop => OpClass::Alu,
            Op::IArith { op, .. } => match op {
                IntOp::Mul => OpClass::Mul,
                _ => OpClass::Alu,
            },
            Op::FArith { op, .. } => match op {
                FloatOp::Mul | FloatOp::Div => OpClass::Mul,
                _ => OpClass::Alu,
            },
            Op::IMad { .. } | Op::FFma { .. } => OpClass::Mul,
            Op::FUnary { .. } => OpClass::Sfu,
            Op::Bra { .. } | Op::Ssy { .. } | Op::Sync | Op::Exit => OpClass::Ctrl,
            Op::Bar => OpClass::Barrier,
            Op::Ld { .. } | Op::St { .. } => OpClass::Mem,
        }
    }

    /// The destination general-purpose register written, if any.
    pub fn dest_reg(&self) -> Option<Reg> {
        match *self {
            Op::Mov { d, .. }
            | Op::S2r { d, .. }
            | Op::IArith { d, .. }
            | Op::IMad { d, .. }
            | Op::Bit { d, .. }
            | Op::Not { d, .. }
            | Op::FArith { d, .. }
            | Op::FFma { d, .. }
            | Op::FUnary { d, .. }
            | Op::I2f { d, .. }
            | Op::F2i { d, .. }
            | Op::Sel { d, .. }
            | Op::Ld { d, .. } => Some(d),
            _ => None,
        }
    }

    /// The general-purpose registers *read* by this operation (up to 3),
    /// in operand order.  Used by ACE-style liveness analysis.
    pub fn src_regs(&self) -> [Option<Reg>; 3] {
        fn op_reg(o: Operand) -> Option<Reg> {
            match o {
                Operand::Reg(r) => Some(r),
                Operand::Imm(_) => None,
            }
        }
        match *self {
            Op::Mov { src, .. } => [op_reg(src), None, None],
            Op::S2r { .. }
            | Op::Bra { .. }
            | Op::Ssy { .. }
            | Op::Sync
            | Op::Bar
            | Op::Exit
            | Op::Nop => [None, None, None],
            Op::IArith { a, b, .. } | Op::Bit { a, b, .. } | Op::FArith { a, b, .. } => {
                [Some(a), op_reg(b), None]
            }
            Op::IMad { a, b, c, .. } | Op::FFma { a, b, c, .. } => [Some(a), op_reg(b), Some(c)],
            Op::Not { a, .. } | Op::FUnary { a, .. } | Op::I2f { a, .. } | Op::F2i { a, .. } => {
                [Some(a), None, None]
            }
            Op::ISetp { a, b, .. } | Op::FSetp { a, b, .. } => [Some(a), op_reg(b), None],
            Op::Sel { a, b, .. } => [Some(a), op_reg(b), None],
            Op::Ld { addr, .. } => [Some(addr), None, None],
            Op::St { addr, v, .. } => [Some(addr), Some(v), None],
        }
    }

    /// The highest general-purpose register index referenced, if any.
    ///
    /// Used by the assembler to infer a kernel's allocated register count.
    pub fn max_reg(&self) -> Option<u8> {
        fn op_max(o: Operand) -> Option<u8> {
            match o {
                Operand::Reg(r) => Some(r.index()),
                Operand::Imm(_) => None,
            }
        }
        let regs: [Option<u8>; 4] = match *self {
            Op::Mov { d, src } => [Some(d.index()), op_max(src), None, None],
            Op::S2r { d, .. } => [Some(d.index()), None, None, None],
            Op::IArith { d, a, b, .. } | Op::Bit { d, a, b, .. } | Op::FArith { d, a, b, .. } => {
                [Some(d.index()), Some(a.index()), op_max(b), None]
            }
            Op::IMad { d, a, b, c } | Op::FFma { d, a, b, c } => {
                [Some(d.index()), Some(a.index()), op_max(b), Some(c.index())]
            }
            Op::Not { d, a } | Op::FUnary { d, a, .. } | Op::I2f { d, a } | Op::F2i { d, a } => {
                [Some(d.index()), Some(a.index()), None, None]
            }
            Op::ISetp { a, b, .. } | Op::FSetp { a, b, .. } => {
                [Some(a.index()), op_max(b), None, None]
            }
            Op::Sel { d, a, b, .. } => [Some(d.index()), Some(a.index()), op_max(b), None],
            Op::Ld { d, addr, .. } => [Some(d.index()), Some(addr.index()), None, None],
            Op::St { addr, v, .. } => [Some(addr.index()), Some(v.index()), None, None],
            Op::Bra { .. } | Op::Ssy { .. } | Op::Sync | Op::Bar | Op::Exit | Op::Nop => {
                [None, None, None, None]
            }
        };
        regs.into_iter().flatten().max()
    }
}

/// A guard predicate, the `@P0` / `@!P0` prefix of a predicated instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Guard {
    /// The predicate register tested.
    pub pred: Pred,
    /// Whether the test is negated (`@!P`).
    pub negate: bool,
}

impl fmt::Display for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.negate {
            write!(f, "@!{}", self.pred)
        } else {
            write!(f, "@{}", self.pred)
        }
    }
}

/// A complete instruction: an optional guard plus the operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Instr {
    /// Optional guard predicate; `None` executes unconditionally.
    pub guard: Option<Guard>,
    /// The operation performed.
    pub op: Op,
}

impl Instr {
    /// An unguarded instruction.
    pub fn new(op: Op) -> Self {
        Instr { guard: None, op }
    }

    /// A guarded instruction (`@P op` or `@!P op`).
    pub fn guarded(pred: Pred, negate: bool, op: Op) -> Self {
        Instr {
            guard: Some(Guard { pred, negate }),
            op,
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(g) = self.guard {
            write!(f, "{g} ")?;
        }
        write!(f, "{}", self.op)
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Op::Mov { d, src } => write!(f, "MOV {d}, {src}"),
            Op::S2r { d, sr } => write!(f, "S2R {d}, {sr}"),
            Op::IArith { op, d, a, b } => write!(f, "{} {d}, {a}, {b}", op.mnemonic()),
            Op::IMad { d, a, b, c } => write!(f, "IMAD {d}, {a}, {b}, {c}"),
            Op::Bit { op, d, a, b } => write!(f, "{} {d}, {a}, {b}", op.mnemonic()),
            Op::Not { d, a } => write!(f, "NOT {d}, {a}"),
            Op::FArith { op, d, a, b } => write!(f, "{} {d}, {a}, {b}", op.mnemonic()),
            Op::FFma { d, a, b, c } => write!(f, "FFMA {d}, {a}, {b}, {c}"),
            Op::FUnary { op, d, a } => write!(f, "{} {d}, {a}", op.mnemonic()),
            Op::I2f { d, a } => write!(f, "I2F {d}, {a}"),
            Op::F2i { d, a } => write!(f, "F2I {d}, {a}"),
            Op::ISetp { cmp, p, a, b } => write!(f, "ISETP.{cmp} {p}, {a}, {b}"),
            Op::FSetp { cmp, p, a, b } => write!(f, "FSETP.{cmp} {p}, {a}, {b}"),
            Op::Sel { d, a, b, p } => write!(f, "SEL {d}, {a}, {b}, {p}"),
            Op::Bra { target } => write!(f, "BRA {target}"),
            Op::Ssy { target } => write!(f, "SSY {target}"),
            Op::Sync => f.write_str("SYNC"),
            Op::Bar => f.write_str("BAR"),
            Op::Exit => f.write_str("EXIT"),
            Op::Nop => f.write_str("NOP"),
            Op::Ld {
                space,
                d,
                addr,
                offset,
            } => {
                write!(
                    f,
                    "{} {d}, [{addr}{}]",
                    space.load_mnemonic(),
                    FmtOff(offset)
                )
            }
            Op::St {
                space,
                addr,
                offset,
                v,
            } => {
                let m = space.store_mnemonic().expect("texture space has no stores");
                write!(f, "{m} [{addr}{}], {v}", FmtOff(offset))
            }
        }
    }
}

/// Formats a byte offset as `+N` / `-N`, or nothing when zero.
struct FmtOff(i32);

impl fmt::Display for FmtOff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            0 => Ok(()),
            n if n > 0 => write!(f, "+{n}"),
            n => write!(f, "{n}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u8) -> Reg {
        Reg::new(i).unwrap()
    }

    #[test]
    fn max_reg_covers_all_fields() {
        let op = Op::IMad {
            d: r(1),
            a: r(9),
            b: Operand::Reg(r(4)),
            c: r(7),
        };
        assert_eq!(op.max_reg(), Some(9));
        assert_eq!(Op::Exit.max_reg(), None);
        let st = Op::St {
            space: MemSpace::Global,
            addr: r(3),
            offset: 4,
            v: r(12),
        };
        assert_eq!(st.max_reg(), Some(12));
    }

    #[test]
    fn src_regs_cover_reads() {
        let imad = Op::IMad {
            d: r(1),
            a: r(2),
            b: Operand::Reg(r(3)),
            c: r(4),
        };
        assert_eq!(imad.src_regs(), [Some(r(2)), Some(r(3)), Some(r(4))]);
        let st = Op::St {
            space: MemSpace::Global,
            addr: r(5),
            offset: 0,
            v: r(6),
        };
        assert_eq!(st.src_regs(), [Some(r(5)), Some(r(6)), None]);
        let mov_imm = Op::Mov {
            d: r(1),
            src: Operand::Imm(3),
        };
        assert_eq!(mov_imm.src_regs(), [None, None, None]);
        assert_eq!(Op::Exit.src_regs(), [None, None, None]);
    }

    #[test]
    fn dest_reg_for_loads_and_none_for_stores() {
        let ld = Op::Ld {
            space: MemSpace::Shared,
            d: r(5),
            addr: r(1),
            offset: 0,
        };
        assert_eq!(ld.dest_reg(), Some(r(5)));
        let st = Op::St {
            space: MemSpace::Shared,
            addr: r(1),
            offset: 0,
            v: r(5),
        };
        assert_eq!(st.dest_reg(), None);
    }

    #[test]
    fn display_round_forms() {
        let i = Instr::guarded(Pred::new(0).unwrap(), true, Op::Bra { target: 7 });
        assert_eq!(i.to_string(), "@!P0 BRA 7");
        let ld = Instr::new(Op::Ld {
            space: MemSpace::Global,
            d: r(2),
            addr: r(1),
            offset: -8,
        });
        assert_eq!(ld.to_string(), "LDG R2, [R1-8]");
    }

    #[test]
    fn op_classes() {
        assert_eq!(Op::Bar.class(), OpClass::Barrier);
        assert_eq!(
            Op::FUnary {
                op: FloatUnOp::Rcp,
                d: r(0),
                a: r(0)
            }
            .class(),
            OpClass::Sfu
        );
        assert_eq!(
            Op::IArith {
                op: IntOp::Mul,
                d: r(0),
                a: r(0),
                b: Operand::Imm(3)
            }
            .class(),
            OpClass::Mul
        );
    }
}
