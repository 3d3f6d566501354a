//! Predecoded micro-op (uop) form of a SASS-lite kernel.
//!
//! The simulator's cycle loop used to re-match the nested [`Op`] enum — with
//! its embedded `IntOp`/`FloatOp`/… selectors and `Operand` reg/imm split —
//! once per issued instruction.  This module lowers a kernel **once** into a
//! flat [`Uop`] array the hot loop can index directly:
//!
//! * the opcode becomes a dense [`UopOp`] tag (`u8` discriminant) with the
//!   arithmetic selector folded in (`IADD` and `IMUL` are distinct tags, and
//!   loads/stores are split per memory space),
//! * register operands become raw `u8` indices ([`NO_REG`] when absent),
//! * the guard becomes one packed byte ([`NO_GUARD`] when absent),
//! * branch / `SSY` targets stay resolved micro-op indices (uops are 1:1
//!   with instructions, so the assembler's resolved indices carry over),
//! * immediates, memory offsets and the `S2R` special-register ordinal share
//!   one `imm` word,
//! * the registers *read* are pre-packed into [`Uop::srcs`] in
//!   [`Op::src_regs`] order, and the functional-unit [`OpClass`] is
//!   precomputed.
//!
//! Decoding is pure lowering: no instruction is added, removed or reordered,
//! so `uops[pc]` always corresponds to `instrs[pc]` and PC-relative state
//! (SIMT stacks, checkpoints) is unaffected.

use crate::instr::{Instr, MemSpace, Op, Operand};
use crate::kernel::Kernel;
use crate::op::{BitOp, CmpOp, FloatOp, FloatUnOp, IntOp, OpClass};
use crate::reg::SpecialReg;

/// Sentinel register index meaning "no register in this slot".
pub const NO_REG: u8 = 0xFF;

/// Sentinel guard byte meaning "unguarded" (executes unconditionally).
pub const NO_GUARD: u8 = 0xFF;

/// Guard-byte flag bit: the test is negated (`@!P`).
pub const GUARD_NEGATE: u8 = 0x80;

/// Dense micro-op tag: every arithmetic selector and memory space is its own
/// variant, so the execute loop dispatches on a single flat `u8`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
#[allow(missing_docs)]
pub enum UopOp {
    Mov,
    S2r,
    IAdd,
    ISub,
    IMul,
    IMin,
    IMax,
    IMad,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Sar,
    Not,
    FAdd,
    FSub,
    FMul,
    FDiv,
    FMin,
    FMax,
    FFma,
    FRcp,
    FSqrt,
    FEx2,
    FLg2,
    FAbs,
    FNeg,
    FFloor,
    I2f,
    F2i,
    ISetpEq,
    ISetpNe,
    ISetpLt,
    ISetpLe,
    ISetpGt,
    ISetpGe,
    FSetpEq,
    FSetpNe,
    FSetpLt,
    FSetpLe,
    FSetpGt,
    FSetpGe,
    Sel,
    Bra,
    Ssy,
    Sync,
    Bar,
    Exit,
    Nop,
    LdGlobal,
    StGlobal,
    LdShared,
    StShared,
    LdLocal,
    StLocal,
    LdTex,
    LdConst,
    /// A programmatically built store to the read-only constant space; traps
    /// at execution exactly like the [`Op`] form does.
    StConst,
}

/// One predecoded micro-op.
///
/// Field meaning varies by tag (documented per field); unused register slots
/// hold [`NO_REG`].  The struct is `Copy` and small so the execute loop can
/// load one per issue with no pointer chasing.
#[derive(Debug, Clone, Copy)]
pub struct Uop {
    /// Dense opcode tag.
    pub op: UopOp,
    /// Packed guard: [`NO_GUARD`], or the predicate index with
    /// [`GUARD_NEGATE`] set for `@!P`.
    pub guard: u8,
    /// Destination general-purpose register ([`NO_REG`] when the op writes
    /// none) — predicate destinations live in `c`, so `dst != NO_REG`
    /// always means "a register is written", which keeps the ACE/taint
    /// destination path branch-free.
    pub dst: u8,
    /// First source register (`a` operand / load-store address base).
    pub a: u8,
    /// Second source register when `b_imm` is false.
    pub b: u8,
    /// Third slot: `IMAD`/`FFMA` addend register, `SEL` selector *predicate*
    /// index, `ISETP`/`FSETP` destination *predicate* index, or store value
    /// register.
    pub c: u8,
    /// Whether the `b` operand is the immediate in `imm`.
    pub b_imm: bool,
    /// Immediate bits / resolved branch target (uop index) / memory byte
    /// offset (`i32` as bits) / `S2R` ordinal into [`SpecialReg::ALL`].
    pub imm: u32,
    /// Registers read, packed to the front in [`Op::src_regs`] order and
    /// padded with [`NO_REG`] — drives ACE liveness and taint tracking.
    pub srcs: [u8; 3],
    /// Precomputed functional-unit class for the timing model.
    pub class: OpClass,
}

impl Uop {
    /// The `S2R` special register named by `imm`.
    ///
    /// # Panics
    ///
    /// Panics if the uop is not an in-range `S2R` (decode never builds one).
    pub fn special_reg(&self) -> SpecialReg {
        SpecialReg::ALL[self.imm as usize]
    }

    /// The memory byte offset (`imm` reinterpreted as `i32`).
    pub fn mem_offset(&self) -> i32 {
        self.imm as i32
    }
}

/// A kernel lowered to its flat micro-op array.
#[derive(Debug, Clone)]
pub struct DecodedKernel {
    uops: Vec<Uop>,
}

impl DecodedKernel {
    /// The micro-op array, 1:1 with the kernel's instructions.
    pub fn uops(&self) -> &[Uop] {
        &self.uops
    }
}

/// Lowers a kernel into its [`DecodedKernel`] micro-op form.
pub fn decode(kernel: &Kernel) -> DecodedKernel {
    DecodedKernel {
        uops: decode_instrs(kernel.instrs()),
    }
}

/// Lowers an instruction slice into micro-ops (1:1, same order).
pub fn decode_instrs(instrs: &[Instr]) -> Vec<Uop> {
    instrs.iter().map(decode_instr).collect()
}

/// Lowers one instruction.
pub fn decode_instr(instr: &Instr) -> Uop {
    let mut u = Uop {
        op: UopOp::Nop,
        guard: match instr.guard {
            None => NO_GUARD,
            Some(g) => g.pred.index() | if g.negate { GUARD_NEGATE } else { 0 },
        },
        dst: NO_REG,
        a: NO_REG,
        b: NO_REG,
        c: NO_REG,
        b_imm: false,
        imm: 0,
        srcs: [NO_REG; 3],
        class: instr.op.class(),
    };
    // Pre-pack the read set in `src_regs` order (drives ACE/taint).
    for (n, s) in instr.op.src_regs().into_iter().flatten().enumerate() {
        u.srcs[n] = s.index();
    }
    if let Some(d) = instr.op.dest_reg() {
        u.dst = d.index();
    }
    let operand = |u: &mut Uop, o: Operand| match o {
        Operand::Reg(r) => u.b = r.index(),
        Operand::Imm(v) => {
            u.b_imm = true;
            u.imm = v;
        }
    };
    match instr.op {
        Op::Mov { src, .. } => {
            u.op = UopOp::Mov;
            operand(&mut u, src);
        }
        Op::S2r { sr, .. } => {
            u.op = UopOp::S2r;
            u.imm = SpecialReg::ALL
                .iter()
                .position(|&s| s == sr)
                .expect("SpecialReg::ALL is exhaustive") as u32;
        }
        Op::IArith { op, a, b, .. } => {
            u.op = match op {
                IntOp::Add => UopOp::IAdd,
                IntOp::Sub => UopOp::ISub,
                IntOp::Mul => UopOp::IMul,
                IntOp::Min => UopOp::IMin,
                IntOp::Max => UopOp::IMax,
            };
            u.a = a.index();
            operand(&mut u, b);
        }
        Op::IMad { a, b, c, .. } => {
            u.op = UopOp::IMad;
            u.a = a.index();
            u.c = c.index();
            operand(&mut u, b);
        }
        Op::Bit { op, a, b, .. } => {
            u.op = match op {
                BitOp::And => UopOp::And,
                BitOp::Or => UopOp::Or,
                BitOp::Xor => UopOp::Xor,
                BitOp::Shl => UopOp::Shl,
                BitOp::Shr => UopOp::Shr,
                BitOp::Sar => UopOp::Sar,
            };
            u.a = a.index();
            operand(&mut u, b);
        }
        Op::Not { a, .. } => {
            u.op = UopOp::Not;
            u.a = a.index();
        }
        Op::FArith { op, a, b, .. } => {
            u.op = match op {
                FloatOp::Add => UopOp::FAdd,
                FloatOp::Sub => UopOp::FSub,
                FloatOp::Mul => UopOp::FMul,
                FloatOp::Div => UopOp::FDiv,
                FloatOp::Min => UopOp::FMin,
                FloatOp::Max => UopOp::FMax,
            };
            u.a = a.index();
            operand(&mut u, b);
        }
        Op::FFma { a, b, c, .. } => {
            u.op = UopOp::FFma;
            u.a = a.index();
            u.c = c.index();
            operand(&mut u, b);
        }
        Op::FUnary { op, a, .. } => {
            u.op = match op {
                FloatUnOp::Rcp => UopOp::FRcp,
                FloatUnOp::Sqrt => UopOp::FSqrt,
                FloatUnOp::Ex2 => UopOp::FEx2,
                FloatUnOp::Lg2 => UopOp::FLg2,
                FloatUnOp::Abs => UopOp::FAbs,
                FloatUnOp::Neg => UopOp::FNeg,
                FloatUnOp::Floor => UopOp::FFloor,
            };
            u.a = a.index();
        }
        Op::I2f { a, .. } => {
            u.op = UopOp::I2f;
            u.a = a.index();
        }
        Op::F2i { a, .. } => {
            u.op = UopOp::F2i;
            u.a = a.index();
        }
        Op::ISetp { cmp, p, a, b } => {
            u.op = match cmp {
                CmpOp::Eq => UopOp::ISetpEq,
                CmpOp::Ne => UopOp::ISetpNe,
                CmpOp::Lt => UopOp::ISetpLt,
                CmpOp::Le => UopOp::ISetpLe,
                CmpOp::Gt => UopOp::ISetpGt,
                CmpOp::Ge => UopOp::ISetpGe,
            };
            u.c = p.index();
            u.a = a.index();
            operand(&mut u, b);
        }
        Op::FSetp { cmp, p, a, b } => {
            u.op = match cmp {
                CmpOp::Eq => UopOp::FSetpEq,
                CmpOp::Ne => UopOp::FSetpNe,
                CmpOp::Lt => UopOp::FSetpLt,
                CmpOp::Le => UopOp::FSetpLe,
                CmpOp::Gt => UopOp::FSetpGt,
                CmpOp::Ge => UopOp::FSetpGe,
            };
            u.c = p.index();
            u.a = a.index();
            operand(&mut u, b);
        }
        Op::Sel { a, b, p, .. } => {
            u.op = UopOp::Sel;
            u.a = a.index();
            u.c = p.index();
            operand(&mut u, b);
        }
        Op::Bra { target } => {
            u.op = UopOp::Bra;
            u.imm = target;
        }
        Op::Ssy { target } => {
            u.op = UopOp::Ssy;
            u.imm = target;
        }
        Op::Sync => u.op = UopOp::Sync,
        Op::Bar => u.op = UopOp::Bar,
        Op::Exit => u.op = UopOp::Exit,
        Op::Nop => u.op = UopOp::Nop,
        Op::Ld {
            space,
            addr,
            offset,
            ..
        } => {
            u.op = match space {
                MemSpace::Global => UopOp::LdGlobal,
                MemSpace::Shared => UopOp::LdShared,
                MemSpace::Local => UopOp::LdLocal,
                MemSpace::Texture => UopOp::LdTex,
                MemSpace::Const => UopOp::LdConst,
            };
            u.a = addr.index();
            u.imm = offset as u32;
        }
        Op::St {
            space,
            addr,
            offset,
            v,
        } => {
            u.op = match space {
                MemSpace::Global => UopOp::StGlobal,
                MemSpace::Shared => UopOp::StShared,
                MemSpace::Local => UopOp::StLocal,
                MemSpace::Texture | MemSpace::Const => UopOp::StConst,
            };
            u.a = addr.index();
            u.c = v.index();
            u.imm = offset as u32;
        }
    }
    u
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::{Pred, Reg};
    use crate::Module;

    fn r(i: u8) -> Reg {
        Reg::new(i).unwrap()
    }

    /// Every lowered uop must agree with the `Op` accessors it replaces:
    /// same read set (packed front, same order), same destination, same
    /// class, same guard.
    #[test]
    fn lowering_matches_op_accessors() {
        let module = Module::assemble(
            r#"
.kernel k
.params 2
    S2R   R2, SR_TID.X
    SSY   10
    ISETP.GE P0, R2, R1
@P0 BRA 9
    SHL   R3, R2, 2
    IADD  R4, R0, R3
    LDG   R5, [R4+8]
    FFMA  R5, R5, 2.0f, R5
    STG   [R4], R5
    SYNC
    IMAD  R6, R2, R2, R2
    FRCP  R7, R5
    SEL   R8, R6, 1, P0
    BAR
    EXIT
"#,
        )
        .unwrap();
        let kernel = module.kernel("k").unwrap();
        let uops = decode(kernel);
        assert_eq!(uops.uops().len(), kernel.instrs().len());
        for (instr, u) in kernel.instrs().iter().zip(uops.uops()) {
            let mut expect = [NO_REG; 3];
            for (n, s) in instr.op.src_regs().into_iter().flatten().enumerate() {
                expect[n] = s.index();
            }
            assert_eq!(u.srcs, expect, "src pack for {instr}");
            match instr.op.dest_reg() {
                Some(d) => assert_eq!(u.dst, d.index(), "dst for {instr}"),
                None => assert_eq!(u.dst, NO_REG, "dst for {instr}"),
            }
            assert_eq!(u.class, instr.op.class(), "class for {instr}");
            match instr.guard {
                None => assert_eq!(u.guard, NO_GUARD),
                Some(g) => {
                    assert_eq!(u.guard & !GUARD_NEGATE, g.pred.index());
                    assert_eq!(u.guard & GUARD_NEGATE != 0, g.negate);
                }
            }
        }
    }

    #[test]
    fn branch_targets_and_offsets_carry_over() {
        let bra = decode_instr(&Instr::guarded(
            Pred::new(3).unwrap(),
            true,
            Op::Bra { target: 42 },
        ));
        assert_eq!(bra.op, UopOp::Bra);
        assert_eq!(bra.imm, 42);
        assert_eq!(bra.guard, 3 | GUARD_NEGATE);

        let ld = decode_instr(&Instr::new(Op::Ld {
            space: MemSpace::Shared,
            d: r(2),
            addr: r(1),
            offset: -8,
        }));
        assert_eq!(ld.op, UopOp::LdShared);
        assert_eq!(ld.mem_offset(), -8);
        assert_eq!(ld.dst, 2);
        assert_eq!(ld.a, 1);
    }

    #[test]
    fn selector_folding_is_dense() {
        let imul = decode_instr(&Instr::new(Op::IArith {
            op: IntOp::Mul,
            d: r(0),
            a: r(1),
            b: Operand::Imm(3),
        }));
        assert_eq!(imul.op, UopOp::IMul);
        assert!(imul.b_imm);
        assert_eq!(imul.imm, 3);
        assert_eq!(imul.class, OpClass::Mul);
        // IMAD with an immediate multiplier: src pack keeps a then c,
        // exactly `src_regs` order with the imm hole closed up.
        let imad = decode_instr(&Instr::new(Op::IMad {
            d: r(9),
            a: r(1),
            b: Operand::Imm(7),
            c: r(2),
        }));
        assert_eq!(imad.srcs, [1, 2, NO_REG]);
        assert_eq!(imad.c, 2);
    }

    #[test]
    fn s2r_ordinal_round_trips() {
        for (i, sr) in SpecialReg::ALL.into_iter().enumerate() {
            let u = decode_instr(&Instr::new(Op::S2r { d: r(0), sr }));
            assert_eq!(u.op, UopOp::S2r);
            assert_eq!(u.imm as usize, i);
            assert_eq!(u.special_reg(), sr);
        }
    }
}
