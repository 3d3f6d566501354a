//! Register-level read/write sets over reachable code: the registers the
//! static prune may skip and the write-never-read lint reports.
//!
//! A register that **no reachable instruction reads** cannot influence
//! the architectural state of the launch: SASS-lite has no indirect
//! register addressing, so a fault flipped into it is Masked by
//! construction (register files do not persist across launches — every
//! launch zero-initializes its registers).  That needs no dataflow
//! fixpoint, only a scan of the instructions [`Cfg::reachable_instrs`]
//! keeps; the bit-granular refinement is [`super::bit_liveness`].

use super::cfg::Cfg;
use crate::Kernel;

/// Which registers the reachable instructions of one kernel read and
/// write.
#[derive(Debug, Clone)]
pub(crate) struct RegUse {
    reachable: Vec<bool>,
    read: [bool; 256],
    written: [bool; 256],
}

impl RegUse {
    /// Scans the instructions of `kernel` that `cfg` (its CFG) reaches.
    pub(crate) fn scan(kernel: &Kernel, cfg: &Cfg) -> RegUse {
        let reachable = cfg.reachable_instrs();
        let (mut read, mut written) = ([false; 256], [false; 256]);
        for (ins, _) in kernel.instrs().iter().zip(&reachable).filter(|(_, &r)| r) {
            for r in ins.op.src_regs().into_iter().flatten() {
                read[r.index() as usize] = true;
            }
            if let Some(d) = ins.op.dest_reg() {
                written[d.index() as usize] = true;
            }
        }
        RegUse {
            reachable,
            read,
            written,
        }
    }

    /// Whether instruction `i` is reachable from the kernel entry.
    pub(crate) fn is_reachable(&self, i: usize) -> bool {
        self.reachable[i]
    }

    /// Allocated registers (`0 .. num_regs`) that **no** reachable
    /// instruction ever reads.
    pub(crate) fn dead_registers(&self, num_regs: u8) -> Vec<u8> {
        (0..num_regs).filter(|&r| !self.read[r as usize]).collect()
    }

    /// Registers that are written by a reachable instruction but never read
    /// by any reachable instruction — the write-never-read lint set.
    pub(crate) fn write_never_read(&self) -> Vec<u8> {
        (0..=u8::MAX)
            .filter(|&r| self.written[r as usize] && !self.read[r as usize])
            .collect()
    }
}

/// The statically-dead register set of a kernel: the allocated registers
/// no reachable instruction reads — the ACE-style dead set the campaign
/// prune consults.
pub fn dead_registers(kernel: &Kernel) -> Vec<u8> {
    RegUse::scan(kernel, &Cfg::build(kernel.instrs())).dead_registers(kernel.num_regs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Module;

    fn live(src: &str) -> (Kernel, RegUse) {
        let m = Module::assemble(src).unwrap();
        let k = m.kernels()[0].clone();
        let l = RegUse::scan(&k, &Cfg::build(k.instrs()));
        (k, l)
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
}
