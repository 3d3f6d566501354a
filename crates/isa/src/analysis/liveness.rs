//! Backward dataflow liveness for general-purpose registers and predicates,
//! at per-instruction granularity.
//!
//! The transfer function is guard-aware: a predicated definition (`@P MOV
//! R1, …`) does **not** kill `R1` — when the guard is false the old value
//! survives — while reads always gen, including the guard predicate itself
//! and `SEL`'s selector.  This makes the analysis a sound
//! may-liveness: if a register is *not* live-in anywhere reachable, no
//! execution can observe its value.
//!
//! That soundness is what the campaign's ACE-style pruning leans on: a
//! register that is never read by any reachable instruction
//! ([`Liveness::dead_registers`]) cannot influence the architectural state
//! of the launch, so a fault flipped into it is Masked by construction
//! (register files do not persist across launches — every launch
//! zero-initializes its registers).

use super::cfg::instr_succs;
use crate::instr::Op;
use crate::Kernel;

/// A set of general-purpose registers (`R0` … `R254`) as a 256-bit mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegSet([u64; 4]);

impl RegSet {
    /// The empty set.
    pub const EMPTY: RegSet = RegSet([0; 4]);

    /// Inserts register index `r`.
    pub fn insert(&mut self, r: u8) {
        self.0[r as usize / 64] |= 1 << (r % 64);
    }

    /// Removes register index `r`.
    pub fn remove(&mut self, r: u8) {
        self.0[r as usize / 64] &= !(1 << (r % 64));
    }

    /// Whether register index `r` is in the set.
    pub fn contains(&self, r: u8) -> bool {
        self.0[r as usize / 64] >> (r % 64) & 1 == 1
    }

    /// Unions `other` into `self`; returns whether `self` grew.
    pub fn union_with(&mut self, other: &RegSet) -> bool {
        let mut changed = false;
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            let next = *a | b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// Number of registers in the set.
    pub fn len(&self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0 == [0; 4]
    }

    /// Iterates the register indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u8> + '_ {
        (0u16..=255).filter_map(|r| self.contains(r as u8).then_some(r as u8))
    }
}

/// Live registers and predicates at one program point.
///
/// Predicates are a 7-bit mask (`P0` … `P6`) in `preds`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LiveSet {
    /// Live general-purpose registers.
    pub regs: RegSet,
    /// Live predicates, bit `i` = `Pi`.
    pub preds: u8,
}

impl LiveSet {
    fn union_with(&mut self, other: &LiveSet) -> bool {
        let p = self.preds | other.preds;
        let changed = self.regs.union_with(&other.regs) || p != self.preds;
        self.preds = p;
        changed
    }
}

/// Per-instruction liveness for one kernel.
#[derive(Debug, Clone)]
pub struct Liveness {
    live_in: Vec<LiveSet>,
    live_out: Vec<LiveSet>,
    reachable: Vec<bool>,
    read_regs: RegSet,
    written_regs: RegSet,
}

/// The registers an instruction reads, including via guard or selector
/// predicates (returned separately as a predicate mask).
fn uses(op: &Op) -> ([Option<crate::Reg>; 3], u8) {
    let preds = match *op {
        Op::Sel { p, .. } => 1u8 << p.index(),
        _ => 0,
    };
    (op.src_regs(), preds)
}

/// The predicate an instruction defines, if any.
fn def_pred(op: &Op) -> Option<u8> {
    match *op {
        Op::ISetp { p, .. } | Op::FSetp { p, .. } => Some(p.index()),
        _ => None,
    }
}

impl Liveness {
    /// Runs the backward dataflow to a fixed point.
    pub fn compute(kernel: &Kernel) -> Liveness {
        let instrs = kernel.instrs();
        let n = instrs.len();
        let mut live_in = vec![LiveSet::default(); n];
        let mut live_out = vec![LiveSet::default(); n];

        // Reachability from instruction 0 over the same successor relation.
        let mut reachable = vec![false; n];
        if n > 0 {
            let mut stack = vec![0usize];
            reachable[0] = true;
            while let Some(i) = stack.pop() {
                for s in instr_succs(instrs, i) {
                    if !reachable[s] {
                        reachable[s] = true;
                        stack.push(s);
                    }
                }
            }
        }

        let mut changed = true;
        while changed {
            changed = false;
            for i in (0..n).rev() {
                let mut out = LiveSet::default();
                for s in instr_succs(instrs, i) {
                    out.union_with(&live_in[s]);
                }
                let ins = &instrs[i];
                let mut inn = out;
                // Kill: an unguarded definition overwrites unconditionally.
                if ins.guard.is_none() {
                    if let Some(d) = ins.op.dest_reg() {
                        inn.regs.remove(d.index());
                    }
                    if let Some(p) = def_pred(&ins.op) {
                        inn.preds &= !(1 << p);
                    }
                }
                // Gen: operand reads, the selector predicate, the guard.
                let (srcs, pred_uses) = uses(&ins.op);
                for r in srcs.into_iter().flatten() {
                    inn.regs.insert(r.index());
                }
                inn.preds |= pred_uses;
                if let Some(g) = ins.guard {
                    inn.preds |= 1 << g.pred.index();
                }
                if live_out[i] != out {
                    live_out[i] = out;
                    changed = true;
                }
                if live_in[i] != inn {
                    live_in[i] = inn;
                    changed = true;
                }
            }
        }

        // Reads and writes over reachable instructions only.
        let mut read_regs = RegSet::EMPTY;
        let mut written_regs = RegSet::EMPTY;
        for (i, ins) in instrs.iter().enumerate() {
            if !reachable[i] {
                continue;
            }
            for r in ins.op.src_regs().into_iter().flatten() {
                read_regs.insert(r.index());
            }
            if let Some(d) = ins.op.dest_reg() {
                written_regs.insert(d.index());
            }
        }

        Liveness {
            live_in,
            live_out,
            reachable,
            read_regs,
            written_regs,
        }
    }

    /// Live-in set of instruction `i`.
    pub fn live_in(&self, i: usize) -> &LiveSet {
        &self.live_in[i]
    }

    /// Live-out set of instruction `i`.
    pub fn live_out(&self, i: usize) -> &LiveSet {
        &self.live_out[i]
    }

    /// Whether instruction `i` is reachable from the kernel entry.
    pub fn is_reachable(&self, i: usize) -> bool {
        self.reachable[i]
    }

    /// Registers read by at least one reachable instruction.
    pub fn read_regs(&self) -> &RegSet {
        &self.read_regs
    }

    /// Registers written by at least one reachable instruction.
    pub fn written_regs(&self) -> &RegSet {
        &self.written_regs
    }

    /// Allocated registers (`0 .. kernel.num_regs()`) that **no** reachable
    /// instruction ever reads.
    ///
    /// A fault injected into such a register during this kernel's execution
    /// is architecturally masked: the flipped value can never flow into an
    /// instruction, and the register file is re-initialized at the next
    /// launch.  This is the ACE-style dead set the campaign prune consults.
    pub fn dead_registers(&self, num_regs: u8) -> Vec<u8> {
        (0..num_regs)
            .filter(|&r| !self.read_regs.contains(r))
            .collect()
    }

    /// Registers that are written by a reachable instruction but never read
    /// by any reachable instruction — the write-never-read lint set.
    pub fn write_never_read(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for r in self.written_regs.iter() {
            if !self.read_regs.contains(r) {
                out.push(r);
            }
        }
        out
    }
}

/// Convenience: the statically-dead register set of a kernel (see
/// [`Liveness::dead_registers`]).
pub fn dead_registers(kernel: &Kernel) -> Vec<u8> {
    Liveness::compute(kernel).dead_registers(kernel.num_regs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Module;

    fn live(src: &str) -> (Kernel, Liveness) {
        let m = Module::assemble(src).unwrap();
        let k = m.kernels()[0].clone();
        let l = Liveness::compute(&k);
        (k, l)
    }

    #[test]
    fn straight_line_liveness() {
        // R0 is a param pointer; R1 loaded, doubled, stored.
        let (_, l) =
            live(".kernel k\n.params 1\n LDG R1, [R0]\n IADD R1, R1, R1\n STG [R0], R1\n EXIT\n");
        // At entry, R0 is live (read by the load), R1 is not (clobbered).
        assert!(l.live_in(0).regs.contains(0));
        assert!(!l.live_in(0).regs.contains(1));
        // After the load, both live; after the store, nothing.
        assert!(l.live_out(0).regs.contains(1));
        assert!(l.live_in(2).regs.contains(1));
        assert!(l.live_out(2).regs.is_empty());
    }

    #[test]
    fn predicated_def_does_not_kill() {
        // @P0 MOV R1, 5 leaves the old R1 observable on the false path.
        let (_, l) = live(
            ".kernel k\n.params 1\n ISETP.EQ P0, R0, 0\n@P0 MOV R1, 5\n STG [R0], R1\n EXIT\n",
        );
        // R1 must be live-in at the predicated MOV *and* at the ISETP.
        assert!(l.live_in(1).regs.contains(1));
        assert!(l.live_in(0).regs.contains(1));
        // The guard predicate is live into the MOV.
        assert_eq!(l.live_in(1).preds, 1);
    }

    #[test]
    fn unguarded_def_kills() {
        let (_, l) = live(".kernel k\n.params 1\n MOV R1, 5\n STG [R0], R1\n EXIT\n");
        assert!(!l.live_in(0).regs.contains(1));
        assert!(l.live_out(0).regs.contains(1));
    }

    #[test]
    fn loop_keeps_accumulator_live() {
        let (_, l) = live(
            ".kernel k\n.params 1\n MOV R1, 0\n MOV R2, 0\ntop:\n IADD R1, R1, 1\n \
             IADD R2, R2, R1\n ISETP.LT P0, R1, 4\n@P0 BRA top\n STG [R0], R2\n EXIT\n",
        );
        // Around the back edge both R1 and R2 stay live.
        assert!(l.live_out(5).regs.contains(1));
        assert!(l.live_out(5).regs.contains(2));
        assert!(l.live_out(5).preds & 1 == 1 || l.live_in(5).preds & 1 == 1);
    }

    #[test]
    fn sel_reads_its_predicate() {
        let (_, l) = live(
            ".kernel k\n.params 1\n ISETP.EQ P2, R0, 0\n MOV R1, 1\n MOV R2, 2\n \
             SEL R3, R1, R2, P2\n STG [R0], R3\n EXIT\n",
        );
        assert_eq!(l.live_in(3).preds, 1 << 2);
        assert_eq!(l.live_out(0).preds, 1 << 2);
    }

    #[test]
    fn dead_registers_ignore_writes() {
        // R3 is written but never read; R4 is never touched; both are dead.
        let (k, l) = live(
            ".kernel k\n.params 1\n.regs 5\n MOV R3, 7\n LDG R1, [R0]\n STG [R0], R1\n EXIT\n",
        );
        let dead = l.dead_registers(k.num_regs());
        assert!(dead.contains(&3));
        assert!(dead.contains(&4));
        assert!(!dead.contains(&0));
        assert!(!dead.contains(&1));
        assert_eq!(l.write_never_read(), vec![3]);
    }

    #[test]
    fn unreachable_reads_do_not_resurrect() {
        // The read of R2 sits after an unguarded EXIT: R2 stays dead.
        let (k, l) = live(
            ".kernel k\n.params 1\n.regs 3\n LDG R1, [R0]\n STG [R0], R1\n EXIT\n \
             STG [R0], R2\n EXIT\n",
        );
        assert!(!l.is_reachable(3));
        assert!(l.dead_registers(k.num_regs()).contains(&2));
    }

    #[test]
    fn regset_iter_and_len() {
        let mut s = RegSet::EMPTY;
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(254);
        assert_eq!(s.len(), 4);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 254]);
        s.remove(63);
        assert!(!s.contains(63));
        assert_eq!(s.len(), 3);
    }
}
