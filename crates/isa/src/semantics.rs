//! Pure functional evaluation of SASS-lite ALU operations.
//!
//! All values are raw 32-bit patterns; float operations reinterpret bits as
//! IEEE-754 single precision.  Integer arithmetic wraps (like the hardware),
//! float division by zero produces ±inf / NaN (GPUs do not trap on float
//! exceptions), and `F2I` saturates like CUDA's `cvt.rzi.s32.f32`.
//!
//! These functions are the *single* definition of SASS-lite data-path
//! semantics: both the cycle-level simulator and the functional reference
//! oracle evaluate every ALU instruction through them, so a sim-vs-oracle
//! divergence can never be explained by two diverging arithmetic
//! implementations — only by control flow, scheduling or memory modelling.

use crate::op::{BitOp, FloatOp, FloatUnOp, IntOp};

/// Evaluates a two-operand integer operation.
#[inline]
pub fn int_op(op: IntOp, a: u32, b: u32) -> u32 {
    match op {
        IntOp::Add => a.wrapping_add(b),
        IntOp::Sub => a.wrapping_sub(b),
        IntOp::Mul => a.wrapping_mul(b),
        IntOp::Min => (a as i32).min(b as i32) as u32,
        IntOp::Max => (a as i32).max(b as i32) as u32,
    }
}

/// Evaluates `a * b + c` with 32-bit wrapping (IMAD).
#[inline]
pub fn imad(a: u32, b: u32, c: u32) -> u32 {
    a.wrapping_mul(b).wrapping_add(c)
}

/// Evaluates a two-operand float operation on raw bit patterns.
#[inline]
pub fn float_op(op: FloatOp, a: u32, b: u32) -> u32 {
    let (x, y) = (f32::from_bits(a), f32::from_bits(b));
    let r = match op {
        FloatOp::Add => x + y,
        FloatOp::Sub => x - y,
        FloatOp::Mul => x * y,
        FloatOp::Div => x / y,
        FloatOp::Min => x.min(y),
        FloatOp::Max => x.max(y),
    };
    r.to_bits()
}

/// Evaluates a fused multiply-add `a * b + c` on raw bit patterns.
#[inline]
pub fn ffma(a: u32, b: u32, c: u32) -> u32 {
    f32::from_bits(a)
        .mul_add(f32::from_bits(b), f32::from_bits(c))
        .to_bits()
}

/// Evaluates a unary float (SFU) operation on a raw bit pattern.
#[inline]
pub fn float_un(op: FloatUnOp, a: u32) -> u32 {
    let x = f32::from_bits(a);
    let r = match op {
        FloatUnOp::Rcp => 1.0 / x,
        FloatUnOp::Sqrt => x.sqrt(),
        FloatUnOp::Ex2 => x.exp2(),
        FloatUnOp::Lg2 => x.log2(),
        FloatUnOp::Abs => x.abs(),
        FloatUnOp::Neg => -x,
        FloatUnOp::Floor => x.floor(),
    };
    r.to_bits()
}

/// Evaluates a bitwise / shift operation.
#[inline]
pub fn bit_op(op: BitOp, a: u32, b: u32) -> u32 {
    match op {
        BitOp::And => a & b,
        BitOp::Or => a | b,
        BitOp::Xor => a ^ b,
        BitOp::Shl => a << (b & 31),
        BitOp::Shr => a >> (b & 31),
        BitOp::Sar => ((a as i32) >> (b & 31)) as u32,
    }
}

/// Signed integer → float conversion.
#[inline]
pub fn i2f(a: u32) -> u32 {
    (a as i32 as f32).to_bits()
}

/// Float → signed integer conversion, round toward zero, saturating.
#[inline]
pub fn f2i(a: u32) -> u32 {
    (f32::from_bits(a) as i32) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_wrapping_and_signed_minmax() {
        assert_eq!(int_op(IntOp::Add, u32::MAX, 1), 0);
        assert_eq!(int_op(IntOp::Mul, 1 << 31, 2), 0);
        assert_eq!(int_op(IntOp::Min, (-5i32) as u32, 3) as i32, -5);
        assert_eq!(int_op(IntOp::Max, (-5i32) as u32, 3), 3);
    }

    #[test]
    fn imad_wraps() {
        assert_eq!(imad(2, 3, 4), 10);
        assert_eq!(imad(u32::MAX, 2, 3), 1);
    }

    #[test]
    fn float_div_by_zero_is_inf_not_trap() {
        let r = f32::from_bits(float_op(FloatOp::Div, 1.0f32.to_bits(), 0.0f32.to_bits()));
        assert!(r.is_infinite());
        let n = f32::from_bits(float_op(FloatOp::Div, 0.0f32.to_bits(), 0.0f32.to_bits()));
        assert!(n.is_nan());
    }

    #[test]
    fn ffma_is_fused() {
        // Fused multiply-add keeps the intermediate at full precision.
        let a = 1.0f32 + 2f32.powi(-12);
        let r = f32::from_bits(ffma(a.to_bits(), a.to_bits(), (-1.0f32).to_bits()));
        let unfused = a * a - 1.0;
        assert_eq!(r, a.mul_add(a, -1.0));
        // The two differ for this input, proving fusion.
        assert_ne!(r, unfused);
    }

    #[test]
    fn sfu_ops() {
        let f = |op, x: f32| f32::from_bits(float_un(op, x.to_bits()));
        assert_eq!(f(FloatUnOp::Rcp, 4.0), 0.25);
        assert_eq!(f(FloatUnOp::Sqrt, 9.0), 3.0);
        assert_eq!(f(FloatUnOp::Ex2, 3.0), 8.0);
        assert_eq!(f(FloatUnOp::Lg2, 8.0), 3.0);
        assert_eq!(f(FloatUnOp::Abs, -2.5), 2.5);
        assert_eq!(f(FloatUnOp::Neg, 2.5), -2.5);
        assert_eq!(f(FloatUnOp::Floor, 2.9), 2.0);
        assert!(f(FloatUnOp::Sqrt, -1.0).is_nan());
    }

    #[test]
    fn shifts_mask_to_five_bits() {
        assert_eq!(bit_op(BitOp::Shl, 1, 33), 2);
        assert_eq!(bit_op(BitOp::Shr, 0x8000_0000, 31), 1);
        assert_eq!(bit_op(BitOp::Sar, 0x8000_0000, 31), u32::MAX);
    }

    #[test]
    fn conversions() {
        assert_eq!(f32::from_bits(i2f((-3i32) as u32)), -3.0);
        assert_eq!(f2i(2.9f32.to_bits()) as i32, 2);
        assert_eq!(f2i((-2.9f32).to_bits()) as i32, -2);
        // Saturation on overflow and NaN -> 0 (Rust `as` semantics, matching
        // CUDA's saturating cvt).
        assert_eq!(f2i(1e20f32.to_bits()) as i32, i32::MAX);
        assert_eq!(f2i(f32::NAN.to_bits()), 0);
    }
}
