//! The per-lane values of the data-path micro-ops — ALU, `MOV`, `SEL`
//! and `SETP`: what [`super::SimtCore`]'s `exec` writes to each executing
//! lane, and what the recording pass's value shadows (`crate::shadow`)
//! evaluate with a shadowed plan's faulty operands in place of the golden
//! ones.  One definition serves both, so a shadow computes exactly the
//! value its run would.  `exec` calls these with a literal op, which
//! inlining folds to the op's arm.

use gpufi_isa::decode::UopOp;
use gpufi_isa::semantics as exec;
use gpufi_isa::{BitOp, FloatOp, FloatUnOp, IntOp};

/// Whether `op` writes [`value`] to its destination register.
#[inline(always)]
pub(crate) fn writes_value(op: UopOp) -> bool {
    use UopOp::*;
    matches!(
        op,
        Mov | IAdd
            | ISub
            | IMul
            | IMin
            | IMax
            | IMad
            | And
            | Or
            | Xor
            | Shl
            | Shr
            | Sar
            | Not
            | FAdd
            | FSub
            | FMul
            | FDiv
            | FMin
            | FMax
            | FFma
            | FRcp
            | FSqrt
            | FEx2
            | FLg2
            | FAbs
            | FNeg
            | FFloor
            | I2f
            | F2i
            | Sel
    )
}

/// Whether `op` is a `SETP`, answered by [`pred`].
#[inline(always)]
pub(crate) fn is_setp(op: UopOp) -> bool {
    use UopOp::*;
    matches!(
        op,
        ISetpEq
            | ISetpNe
            | ISetpLt
            | ISetpLe
            | ISetpGt
            | ISetpGe
            | FSetpEq
            | FSetpNe
            | FSetpLt
            | FSetpLe
            | FSetpGt
            | FSetpGe
    )
}

/// Whether `op` reads its `a` slot as a register: every op that reads a
/// register but `MOV`, whose one operand is `b`.
#[inline(always)]
pub(crate) fn reads_a(op: UopOp) -> bool {
    use UopOp::*;
    !matches!(op, Mov | S2r | Bra | Ssy | Sync | Bar | Exit | Nop)
}

/// Whether `op` has a `b` operand (a register, or the immediate when
/// `Uop::b_imm`): `MOV`, `SEL`, the `SETP`s and the two- and
/// three-operand ALU ops.
#[inline(always)]
pub(crate) fn reads_b(op: UopOp) -> bool {
    use UopOp::*;
    (writes_value(op) || is_setp(op))
        && !matches!(
            op,
            Not | FRcp | FSqrt | FEx2 | FLg2 | FAbs | FNeg | FFloor | I2f | F2i
        )
}

/// Whether `op` reads its `c` slot as a register: the `IMAD`/`FFMA`
/// addend or a store's value (`SEL` and `SETP` name predicates there).
#[inline(always)]
pub(crate) fn reads_c(op: UopOp) -> bool {
    use UopOp::*;
    matches!(op, IMad | FFma | StShared | StGlobal | StLocal | StConst)
}

/// The value op `op` writes to one lane from its operands `a`, `b` (a
/// register or the immediate) and `c`, and, for `SEL`, the lane's
/// selector predicate `sel`.
///
/// # Panics
///
/// Panics unless [`writes_value`] holds for `op`.
#[inline(always)]
pub(crate) fn value(op: UopOp, a: u32, b: u32, c: u32, sel: bool) -> u32 {
    match op {
        UopOp::Mov => b,
        UopOp::IAdd => exec::int_op(IntOp::Add, a, b),
        UopOp::ISub => exec::int_op(IntOp::Sub, a, b),
        UopOp::IMul => exec::int_op(IntOp::Mul, a, b),
        UopOp::IMin => exec::int_op(IntOp::Min, a, b),
        UopOp::IMax => exec::int_op(IntOp::Max, a, b),
        UopOp::IMad => exec::imad(a, b, c),
        UopOp::And => exec::bit_op(BitOp::And, a, b),
        UopOp::Or => exec::bit_op(BitOp::Or, a, b),
        UopOp::Xor => exec::bit_op(BitOp::Xor, a, b),
        UopOp::Shl => exec::bit_op(BitOp::Shl, a, b),
        UopOp::Shr => exec::bit_op(BitOp::Shr, a, b),
        UopOp::Sar => exec::bit_op(BitOp::Sar, a, b),
        UopOp::Not => !a,
        UopOp::FAdd => exec::float_op(FloatOp::Add, a, b),
        UopOp::FSub => exec::float_op(FloatOp::Sub, a, b),
        UopOp::FMul => exec::float_op(FloatOp::Mul, a, b),
        UopOp::FDiv => exec::float_op(FloatOp::Div, a, b),
        UopOp::FMin => exec::float_op(FloatOp::Min, a, b),
        UopOp::FMax => exec::float_op(FloatOp::Max, a, b),
        UopOp::FFma => exec::ffma(a, b, c),
        UopOp::FRcp => exec::float_un(FloatUnOp::Rcp, a),
        UopOp::FSqrt => exec::float_un(FloatUnOp::Sqrt, a),
        UopOp::FEx2 => exec::float_un(FloatUnOp::Ex2, a),
        UopOp::FLg2 => exec::float_un(FloatUnOp::Lg2, a),
        UopOp::FAbs => exec::float_un(FloatUnOp::Abs, a),
        UopOp::FNeg => exec::float_un(FloatUnOp::Neg, a),
        UopOp::FFloor => exec::float_un(FloatUnOp::Floor, a),
        UopOp::I2f => exec::i2f(a),
        UopOp::F2i => exec::f2i(a),
        UopOp::Sel => {
            if sel {
                a
            } else {
                b
            }
        }
        _ => unreachable!("{op:?} writes no lane value"),
    }
}

/// The predicate `SETP` op `op` sets in one lane from `a` and `b`.
///
/// # Panics
///
/// Panics unless [`is_setp`] holds for `op`.
#[inline(always)]
pub(crate) fn pred(op: UopOp, a: u32, b: u32) -> bool {
    let (x, y) = (f32::from_bits(a), f32::from_bits(b));
    match op {
        UopOp::ISetpEq => a as i32 == b as i32,
        UopOp::ISetpNe => a as i32 != b as i32,
        UopOp::ISetpLt => (a as i32) < (b as i32),
        UopOp::ISetpLe => a as i32 <= b as i32,
        UopOp::ISetpGt => (a as i32) > (b as i32),
        UopOp::ISetpGe => a as i32 >= b as i32,
        UopOp::FSetpEq => x == y,
        UopOp::FSetpNe => x != y,
        UopOp::FSetpLt => x < y,
        UopOp::FSetpLe => x <= y,
        UopOp::FSetpGt => x > y,
        UopOp::FSetpGe => x >= y,
        _ => unreachable!("{op:?} sets no predicate"),
    }
}
