//! Backward dataflow liveness at **bit** granularity.
//!
//! A may-liveness fixpoint over per-register 32-bit *live-bit masks*: bit
//! `b` of register `r` is live at a program point when some execution
//! continuing from that point can observe the value of that bit.  The
//! transfer functions translate demand through the data path instead of
//! treating every read as a full-width use:
//!
//! - `AND Rd, Ra, imm` demands of `Ra` only the bits the mask keeps (and
//!   `OR` only the bits the mask does not force to one);
//! - shifts by a constant translate the demanded mask by the shift amount
//!   (`SAR` folds demand that runs off the top into the sign bit);
//! - integer add/sub/mul demand every input bit at or below the highest
//!   demanded output bit (carries only propagate upward);
//! - comparisons, selects, min/max, all float ops, and memory addresses
//!   conservatively widen to all 32 bits (for addresses unconditionally:
//!   a flipped address bit can fault even when the loaded value is dead).
//!
//! The transfer function is guard-aware: a predicated definition does not
//! kill (when the guard is false the old value survives), reads always gen
//! (including guard predicates and `SEL`'s selector), and joins union.
//! The derived [`BitLiveness::dead_bit_masks`] therefore over-approximates
//! nothing: a bit in no reachable instruction's live-in mask can never
//! flow into an observable value, so a transient fault flipped into it is
//! architecturally masked — the bit-ACE criterion the campaign's
//! `static_dead_bit` prune consults.  By construction every bit
//! gen is a subset of a register read, so bit liveness *refines*
//! [`super::liveness::dead_registers`]: it never marks a bit live inside a
//! register no reachable instruction reads.

use super::cfg::{instr_succs, Cfg};
use crate::instr::{Instr, Op, Operand};
use crate::op::BitOp;
use crate::Kernel;

/// All 32 bits demanded.
const ALL: u32 = u32::MAX;

/// Bits at or below the most-significant set bit of `m` (carry cone of an
/// integer add/sub/mul whose demanded output bits are `m`).
fn below_msb(m: u32) -> u32 {
    if m == 0 {
        0
    } else {
        ALL >> m.leading_zeros()
    }
}

/// Bits at or above the least-significant set bit of `m` (source cone of a
/// right shift by an unknown amount).
fn above_lsb(m: u32) -> u32 {
    if m == 0 {
        0
    } else {
        ALL << m.trailing_zeros()
    }
}

/// Live-bit masks for every register plus a live-predicate mask, at one
/// program point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitLiveSet {
    regs: Vec<u32>,
    /// Live predicates, bit `i` = `Pi`.
    pub preds: u8,
}

impl BitLiveSet {
    fn empty(nregs: usize) -> Self {
        BitLiveSet {
            regs: vec![0; nregs],
            preds: 0,
        }
    }

    /// Live-bit mask of register index `r` (0 for unallocated registers).
    pub fn reg(&self, r: u8) -> u32 {
        self.regs.get(r as usize).copied().unwrap_or(0)
    }

    fn or_reg(&mut self, r: u8, mask: u32) {
        if let Some(m) = self.regs.get_mut(r as usize) {
            *m |= mask;
        }
    }

    fn union_with(&mut self, other: &BitLiveSet) -> bool {
        let mut changed = false;
        for (a, b) in self.regs.iter_mut().zip(&other.regs) {
            let next = *a | b;
            changed |= next != *a;
            *a = next;
        }
        let p = self.preds | other.preds;
        changed |= p != self.preds;
        self.preds = p;
        changed
    }
}

/// The predicate an instruction defines, if any.
fn def_pred(op: &Op) -> Option<u8> {
    match *op {
        Op::ISetp { p, .. } | Op::FSetp { p, .. } => Some(p.index()),
        _ => None,
    }
}

/// Per-instruction bit-level liveness for one kernel.
#[derive(Debug, Clone)]
pub struct BitLiveness {
    live_in: Vec<BitLiveSet>,
    reachable: Vec<bool>,
    nregs: usize,
}

impl BitLiveness {
    /// Runs the backward dataflow to a fixed point.
    pub fn compute(kernel: &Kernel) -> BitLiveness {
        let instrs = kernel.instrs();
        let n = instrs.len();
        let nregs = instrs
            .iter()
            .filter_map(|i| i.op.max_reg())
            .max()
            .map_or(0, |m| m as usize + 1)
            .max(kernel.num_regs() as usize);
        let mut live_in = vec![BitLiveSet::empty(nregs); n];
        let reachable = Cfg::build(instrs).reachable_instrs();

        let mut changed = true;
        while changed {
            changed = false;
            for i in (0..n).rev() {
                let mut out = BitLiveSet::empty(nregs);
                for s in instr_succs(instrs, i) {
                    out.union_with(&live_in[s]);
                }
                let inn = transfer(&instrs[i], &out);
                if live_in[i] != inn {
                    live_in[i] = inn;
                    changed = true;
                }
            }
        }

        BitLiveness {
            live_in,
            reachable,
            nregs,
        }
    }

    /// Live-in set of instruction `i`.
    pub fn live_in(&self, i: usize) -> &BitLiveSet {
        &self.live_in[i]
    }

    /// The union of live-in bit masks over every reachable instruction:
    /// bit `b` of entry `r` is set when that bit is live at *some*
    /// reachable program point.
    pub fn live_anywhere(&self) -> Vec<u32> {
        let mut union = vec![0u32; self.nregs];
        for (i, set) in self.live_in.iter().enumerate() {
            if !self.reachable[i] {
                continue;
            }
            for (u, m) in union.iter_mut().zip(&set.regs) {
                *u |= m;
            }
        }
        union
    }

    /// Per-register statically-dead-bit masks over `0 .. num_regs`: bit `b`
    /// of entry `r` is set when that bit is live at **no** reachable
    /// program point.
    ///
    /// A transient register-file fault whose flipped bits all fall inside
    /// these masks is architecturally masked: at whatever dynamic point the
    /// flip lands, the bit is dead there, so the corrupted value can never
    /// reach an instruction that observes it (and register files do not
    /// persist across launches).  A fully dead register reports
    /// `0xffff_ffff`, making this a strict refinement of
    /// [`super::liveness::dead_registers`].
    pub fn dead_bit_masks(&self, num_regs: u8) -> Vec<u32> {
        let anywhere = self.live_anywhere();
        (0..num_regs as usize)
            .map(|r| !anywhere.get(r).copied().unwrap_or(0))
            .collect()
    }
}

/// Backward transfer: live-in of `ins` given its live-out `out`.
fn transfer(ins: &Instr, out: &BitLiveSet) -> BitLiveSet {
    let mut inn = out.clone();
    // Demand on the destination must be read *before* the kill.
    let d_out = ins.op.dest_reg().map_or(0, |d| out.reg(d.index()));
    // Kill: an unguarded definition overwrites unconditionally.
    if ins.guard.is_none() {
        if let Some(d) = ins.op.dest_reg() {
            if let Some(m) = inn.regs.get_mut(d.index() as usize) {
                *m = 0;
            }
        }
        if let Some(p) = def_pred(&ins.op) {
            inn.preds &= !(1 << p);
        }
    }
    // Gen: demand translated through the operation.
    let gen_operand = |inn: &mut BitLiveSet, o: Operand, mask: u32| {
        if let Operand::Reg(r) = o {
            inn.or_reg(r.index(), mask);
        }
    };
    match ins.op {
        Op::Mov { src, .. } => gen_operand(&mut inn, src, d_out),
        Op::S2r { .. }
        | Op::Bra { .. }
        | Op::Ssy { .. }
        | Op::Sync
        | Op::Bar
        | Op::Exit
        | Op::Nop => {}
        Op::IArith { op, a, b, .. } => {
            use crate::op::IntOp;
            let m = match op {
                // Carries only propagate upward: an input bit can reach
                // exactly the output bits at or above it.
                IntOp::Add | IntOp::Sub | IntOp::Mul => below_msb(d_out),
                // Min/max select on a full-width signed compare.
                IntOp::Min | IntOp::Max => {
                    if d_out != 0 {
                        ALL
                    } else {
                        0
                    }
                }
            };
            inn.or_reg(a.index(), m);
            gen_operand(&mut inn, b, m);
        }
        Op::IMad { a, b, c, .. } => {
            let m = below_msb(d_out);
            inn.or_reg(a.index(), m);
            gen_operand(&mut inn, b, m);
            inn.or_reg(c.index(), m);
        }
        Op::Bit { op, a, b, .. } => match (op, b) {
            (BitOp::And, Operand::Imm(c)) => inn.or_reg(a.index(), d_out & c),
            (BitOp::Or, Operand::Imm(c)) => inn.or_reg(a.index(), d_out & !c),
            (BitOp::Xor, Operand::Imm(_)) => inn.or_reg(a.index(), d_out),
            (BitOp::And | BitOp::Or | BitOp::Xor, b) => {
                inn.or_reg(a.index(), d_out);
                gen_operand(&mut inn, b, d_out);
            }
            (BitOp::Shl, Operand::Imm(s)) => inn.or_reg(a.index(), d_out >> (s & 31)),
            (BitOp::Shr, Operand::Imm(s)) => inn.or_reg(a.index(), d_out << (s & 31)),
            (BitOp::Sar, Operand::Imm(s)) => {
                let s = s & 31;
                // Demand shifted off the top collapses onto the sign bit.
                let mut m = d_out << s;
                if s > 0 && d_out >> (32 - s) != 0 {
                    m |= 1 << 31;
                }
                inn.or_reg(a.index(), m);
            }
            (BitOp::Shl, Operand::Reg(rb)) => {
                inn.or_reg(a.index(), below_msb(d_out));
                if d_out != 0 {
                    // The hardware masks the amount to its low 5 bits.
                    inn.or_reg(rb.index(), 0x1f);
                }
            }
            (BitOp::Shr | BitOp::Sar, Operand::Reg(rb)) => {
                inn.or_reg(a.index(), above_lsb(d_out));
                if d_out != 0 {
                    inn.or_reg(rb.index(), 0x1f);
                }
            }
        },
        Op::Not { a, .. } => inn.or_reg(a.index(), d_out),
        Op::FArith { a, b, .. } => {
            if d_out != 0 {
                inn.or_reg(a.index(), ALL);
                gen_operand(&mut inn, b, ALL);
            }
        }
        Op::FFma { a, b, c, .. } => {
            if d_out != 0 {
                inn.or_reg(a.index(), ALL);
                gen_operand(&mut inn, b, ALL);
                inn.or_reg(c.index(), ALL);
            }
        }
        Op::FUnary { a, .. } | Op::I2f { a, .. } | Op::F2i { a, .. } => {
            if d_out != 0 {
                inn.or_reg(a.index(), ALL);
            }
        }
        Op::ISetp { p, a, b, .. } | Op::FSetp { p, a, b, .. } => {
            // The compare is demanded only when its predicate is live-out.
            if out.preds >> p.index() & 1 == 1 {
                inn.or_reg(a.index(), ALL);
                gen_operand(&mut inn, b, ALL);
            }
        }
        Op::Sel { a, b, p, .. } => {
            inn.or_reg(a.index(), d_out);
            gen_operand(&mut inn, b, d_out);
            if d_out != 0 {
                inn.preds |= 1 << p.index();
            }
        }
        // A flipped address bit can fault or corrupt an unrelated location
        // even when the transferred value is dead: full demand always.
        Op::Ld { addr, .. } => inn.or_reg(addr.index(), ALL),
        Op::St { addr, v, .. } => {
            inn.or_reg(addr.index(), ALL);
            inn.or_reg(v.index(), ALL);
        }
    }
    if let Some(g) = ins.guard {
        inn.preds |= 1 << g.pred.index();
    }
    inn
}

/// Convenience: the per-register statically-dead-bit masks of a kernel
/// (see [`BitLiveness::dead_bit_masks`]).
pub fn dead_bit_masks(kernel: &Kernel) -> Vec<u32> {
    BitLiveness::compute(kernel).dead_bit_masks(kernel.num_regs())
}

#[cfg(test)]
mod tests {
    use super::super::liveness::dead_registers;
    use super::*;
    use crate::Module;

    fn masks(src: &str) -> (Kernel, Vec<u32>) {
        let m = Module::assemble(src).unwrap();
        let k = m.kernels()[0].clone();
        let d = dead_bit_masks(&k);
        (k, d)
    }

    #[test]
    fn and_mask_kills_high_bits() {
        // Only the low byte of R1 survives the AND into the stored value;
        // the upper 24 bits of R1 are dead everywhere.
        let (_, d) =
            masks(".kernel k\n.params 1\n LDG R1, [R0]\n AND R2, R1, 0xff\n STG [R0], R2\n EXIT\n");
        assert_eq!(d[1], !0xff);
        assert_eq!(d[2], 0); // stored: fully live
        assert_eq!(d[0], 0); // address: fully live
    }

    #[test]
    fn or_mask_kills_forced_bits() {
        let (_, d) = masks(
            ".kernel k\n.params 1\n LDG R1, [R0]\n OR R2, R1, 0xffff0000\n STG [R0], R2\n EXIT\n",
        );
        assert_eq!(d[1], 0xffff_0000);
    }

    #[test]
    fn shl_translates_demand() {
        // R2 = R1 << 4, then only the low byte of R2 is kept: demand on R1
        // is (0xff >> 4) = 0x0f.
        let (_, d) = masks(
            ".kernel k\n.params 1\n LDG R1, [R0]\n SHL R2, R1, 4\n AND R3, R2, 0xff\n \
             STG [R0], R3\n EXIT\n",
        );
        assert_eq!(d[1], !0x0f);
    }

    #[test]
    fn shr_translates_demand() {
        let (_, d) = masks(
            ".kernel k\n.params 1\n LDG R1, [R0]\n SHR R2, R1, 8\n AND R3, R2, 0xff\n \
             STG [R0], R3\n EXIT\n",
        );
        assert_eq!(d[1], !0xff00);
    }

    #[test]
    fn sar_folds_top_demand_into_sign() {
        // R2 = R1 >>a 28 keeps bits 28..31 of R1 plus sign replication:
        // demanding all of R2 demands bits 28..=31 of R1.
        let (_, d) =
            masks(".kernel k\n.params 1\n LDG R1, [R0]\n SAR R2, R1, 28\n STG [R0], R2\n EXIT\n");
        assert_eq!(d[1], !0xf000_0000);
    }

    #[test]
    fn add_demands_carry_cone() {
        // Only the low byte of the sum is kept: inputs matter only up to
        // bit 7 (carries propagate upward, never downward).
        let (_, d) = masks(
            ".kernel k\n.params 1\n LDG R1, [R0]\n LDG R2, [R0+4]\n IADD R3, R1, R2\n \
             AND R4, R3, 0xff\n STG [R0], R4\n EXIT\n",
        );
        assert_eq!(d[1], !0xff);
        assert_eq!(d[2], !0xff);
    }

    #[test]
    fn address_registers_are_fully_live() {
        // R1 feeds only an address: all 32 bits live (a flipped high bit
        // changes which location is accessed, or faults).
        let (_, d) = masks(
            ".kernel k\n.params 1\n LDG R1, [R0]\n LDG R2, [R1]\n \
             STG [R0], R2\n EXIT\n",
        );
        assert_eq!(d[1], 0);
    }

    #[test]
    fn compare_widens_to_full_width() {
        let (_, d) = masks(
            ".kernel k\n.params 1\n LDG R1, [R0]\n ISETP.LT P0, R1, 10\n \
             SEL R2, R1, 0, P0\n STG [R0], R2\n EXIT\n",
        );
        assert_eq!(d[1], 0);
    }

    #[test]
    fn dead_register_is_all_dead_bits() {
        let (k, d) = masks(".kernel k\n.params 1\n.regs 4\n LDG R1, [R0]\n STG [R0], R1\n EXIT\n");
        assert_eq!(d[2], u32::MAX);
        assert_eq!(d[3], u32::MAX);
        // Refinement: every register-level dead register is fully bit-dead.
        for r in dead_registers(&k) {
            assert_eq!(d[r as usize], u32::MAX);
        }
    }

    #[test]
    fn predicated_def_does_not_kill_bits() {
        // @P0 AND R1, R1, 0xff does not kill R1's high bits: on the false
        // path the old full-width value flows to the store.
        let (_, d) = masks(
            ".kernel k\n.params 1\n LDG R1, [R0]\n ISETP.EQ P0, R0, 0\n \
             @P0 AND R1, R1, 0xff\n STG [R0], R1\n EXIT\n",
        );
        assert_eq!(d[1], 0);
    }

    #[test]
    fn unreachable_reads_do_not_resurrect_bits() {
        let (_, d) = masks(
            ".kernel k\n.params 1\n.regs 3\n LDG R1, [R0]\n STG [R0], R1\n EXIT\n \
             STG [R0], R2\n EXIT\n",
        );
        assert_eq!(d[2], u32::MAX);
    }

    #[test]
    fn loop_mask_reaches_fixpoint() {
        // R2 accumulates around a back edge but only its low byte is ever
        // observed after the loop: its top 24 bits are dead everywhere.
        // The counter R1 feeds a full-width compare and stays fully live.
        let (_, d) = masks(
            ".kernel k\n.params 1\n MOV R1, 0\n MOV R2, 0\ntop:\n IADD R2, R2, R1\n \
             IADD R1, R1, 1\n ISETP.LT P0, R1, 4\n@P0 BRA top\n AND R3, R2, 0xff\n \
             STG [R0], R3\n EXIT\n",
        );
        assert_eq!(d[1], 0);
        assert_eq!(d[2], !0xff);
    }
}
