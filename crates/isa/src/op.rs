//! Operation kinds shared by the instruction representation and the
//! simulator's functional/timing models.

use std::fmt;

/// Two-operand integer arithmetic selectors for [`Op::IArith`].
///
/// [`Op::IArith`]: crate::Op::IArith
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum IntOp {
    Add,
    Sub,
    Mul,
    Min,
    Max,
}

impl IntOp {
    /// Assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            IntOp::Add => "IADD",
            IntOp::Sub => "ISUB",
            IntOp::Mul => "IMUL",
            IntOp::Min => "IMIN",
            IntOp::Max => "IMAX",
        }
    }
}

/// Two-operand IEEE-754 single-precision selectors for [`Op::FArith`].
///
/// [`Op::FArith`]: crate::Op::FArith
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum FloatOp {
    Add,
    Sub,
    Mul,
    Div,
    Min,
    Max,
}

impl FloatOp {
    /// Assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            FloatOp::Add => "FADD",
            FloatOp::Sub => "FSUB",
            FloatOp::Mul => "FMUL",
            FloatOp::Div => "FDIV",
            FloatOp::Min => "FMIN",
            FloatOp::Max => "FMAX",
        }
    }
}

/// Unary single-precision selectors for [`Op::FUnary`] — the operations a
/// real GPU routes to its special-function units (SFUs).
///
/// [`Op::FUnary`]: crate::Op::FUnary
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum FloatUnOp {
    /// Reciprocal, `1.0 / a`.
    Rcp,
    Sqrt,
    /// Base-2 exponential (`exp2f`).
    Ex2,
    /// Base-2 logarithm (`log2f`).
    Lg2,
    Abs,
    Neg,
    Floor,
}

impl FloatUnOp {
    /// Assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            FloatUnOp::Rcp => "FRCP",
            FloatUnOp::Sqrt => "FSQRT",
            FloatUnOp::Ex2 => "FEX2",
            FloatUnOp::Lg2 => "FLG2",
            FloatUnOp::Abs => "FABS",
            FloatUnOp::Neg => "FNEG",
            FloatUnOp::Floor => "FFLOOR",
        }
    }
}

/// Bitwise / shift selectors for [`Op::Bit`].
///
/// Shift amounts use the low 5 bits of the second operand, like the
/// hardware's 32-bit shifter.
///
/// [`Op::Bit`]: crate::Op::Bit
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BitOp {
    And,
    Or,
    Xor,
    /// Logical left shift.
    Shl,
    /// Logical right shift.
    Shr,
    /// Arithmetic right shift.
    Sar,
}

impl BitOp {
    /// Assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BitOp::And => "AND",
            BitOp::Or => "OR",
            BitOp::Xor => "XOR",
            BitOp::Shl => "SHL",
            BitOp::Shr => "SHR",
            BitOp::Sar => "SAR",
        }
    }
}

/// Comparison selectors for `ISETP` / `FSETP`.
///
/// Integer comparisons are **signed** (SASS-lite integers are `i32` unless an
/// instruction says otherwise); float comparisons follow IEEE-754 semantics
/// (any comparison with a NaN is false except `Ne`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Assembler suffix, e.g. the `GE` in `ISETP.GE`.
    pub fn suffix(self) -> &'static str {
        match self {
            CmpOp::Eq => "EQ",
            CmpOp::Ne => "NE",
            CmpOp::Lt => "LT",
            CmpOp::Le => "LE",
            CmpOp::Gt => "GT",
            CmpOp::Ge => "GE",
        }
    }

    /// Parses an assembler suffix; inverse of [`CmpOp::suffix`].
    pub fn from_suffix(s: &str) -> Option<Self> {
        Some(match s {
            "EQ" => CmpOp::Eq,
            "NE" => CmpOp::Ne,
            "LT" => CmpOp::Lt,
            "LE" => CmpOp::Le,
            "GT" => CmpOp::Gt,
            "GE" => CmpOp::Ge,
            _ => return None,
        })
    }

    /// Evaluates the comparison on signed integers.
    pub fn eval_i32(self, a: i32, b: i32) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }

    /// Evaluates the comparison on single-precision floats.
    pub fn eval_f32(self, a: f32, b: f32) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.suffix())
    }
}

/// Coarse functional-unit class of an instruction, used by the timing model
/// to pick issue latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Simple integer/logic ALU operation.
    Alu,
    /// Integer or float multiply / FMA.
    Mul,
    /// Special-function unit (reciprocal, sqrt, transcendental).
    Sfu,
    /// Memory access (load or store, any space).
    Mem,
    /// Control flow (branch, reconvergence, exit).
    Ctrl,
    /// CTA-wide barrier.
    Barrier,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_suffix_roundtrip() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(CmpOp::from_suffix(op.suffix()), Some(op));
        }
        assert_eq!(CmpOp::from_suffix("XX"), None);
    }

    #[test]
    fn cmp_eval_i32() {
        assert!(CmpOp::Lt.eval_i32(-1, 0));
        assert!(CmpOp::Ge.eval_i32(5, 5));
        assert!(!CmpOp::Gt.eval_i32(5, 5));
        assert!(CmpOp::Ne.eval_i32(i32::MIN, i32::MAX));
    }

    #[test]
    fn cmp_eval_f32_nan_semantics() {
        assert!(!CmpOp::Eq.eval_f32(f32::NAN, f32::NAN));
        assert!(CmpOp::Ne.eval_f32(f32::NAN, 1.0));
        assert!(!CmpOp::Lt.eval_f32(f32::NAN, 1.0));
    }
}
