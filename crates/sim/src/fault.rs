//! The fault-injection plan: what to flip, where, and when.
//!
//! A campaign arms the GPU with [`PlannedFault`]s before running the
//! application.  Every *dynamic* choice the paper's injector makes at the
//! injection cycle — which active thread, which active warp, which resident
//! CTA, which SIMT core — is expressed as a pre-drawn random **lot**
//! (a uniform `u64`) that the simulator reduces modulo the size of the
//! live population at that cycle.  This keeps runs bit-for-bit
//! reproducible from a campaign seed while still targeting only *active*
//! state, exactly like gpuFI-4 (§IV.B.1: "chooses a random active thread
//! and injects the transient fault at a random register of that thread").
//!
//! Static choices (which register, which bit offsets) are concrete values,
//! drawn by the mask generator in `gpufi-faults` from the profiled fault
//! space.

use crate::mem::FlipOutcome;

/// Whether a register-file or local-memory fault targets one thread or a
/// whole warp (every lane receives the same flips — Table IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scope {
    /// A single active thread.
    Thread,
    /// Every live thread of one active warp.
    Warp,
}

impl Scope {
    /// The CLI spelling (`--scope thread|warp`).
    pub fn name(self) -> &'static str {
        match self {
            Scope::Thread => "thread",
            Scope::Warp => "warp",
        }
    }

    /// Inverse of [`Scope::name`].
    pub fn parse(s: &str) -> Option<Scope> {
        [Scope::Thread, Scope::Warp]
            .into_iter()
            .find(|x| x.name() == s)
    }
}

/// The temporal model of a fault (the campaign's `--fault-model` axis).
///
/// A **transient** fault flips the targeted bits once, at the planned
/// cycle — the paper's soft-error model.  A **stuck-at** fault pins the
/// targeted bits to a fixed value for the *architectural lifetime of the
/// targeted entity*: every later write to the location is re-pinned at
/// the end of the cycle, so the fault persists until the owning thread,
/// warp or CTA retires.  Stuck-at faults keep their site persistently
/// tainted, which disables the transient "all faults fired + taint clear"
/// early exit until the entity dies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum FaultModel {
    /// One-shot bit flips at the planned cycle (the default).
    #[default]
    Transient,
    /// Targeted bits are forced to `0` for the target's lifetime.
    StuckAt0,
    /// Targeted bits are forced to `1` for the target's lifetime.
    StuckAt1,
}

impl FaultModel {
    /// Every model, in CLI/reporting order.
    pub const ALL: [FaultModel; 3] = [
        FaultModel::Transient,
        FaultModel::StuckAt0,
        FaultModel::StuckAt1,
    ];

    /// The CLI/CSV spelling (`--fault-model transient|stuck-at-0|stuck-at-1`).
    pub fn name(self) -> &'static str {
        match self {
            FaultModel::Transient => "transient",
            FaultModel::StuckAt0 => "stuck-at-0",
            FaultModel::StuckAt1 => "stuck-at-1",
        }
    }

    /// Inverse of [`FaultModel::name`].
    pub fn parse(s: &str) -> Option<FaultModel> {
        FaultModel::ALL.iter().copied().find(|m| m.name() == s)
    }

    /// Whether the fault persists past its injection cycle (any stuck-at
    /// model).
    pub fn is_permanent(self) -> bool {
        !matches!(self, FaultModel::Transient)
    }

    /// The value a stuck bit is pinned to (`None` for transient faults).
    pub fn stuck_value(self) -> Option<bool> {
        match self {
            FaultModel::Transient => None,
            FaultModel::StuckAt0 => Some(false),
            FaultModel::StuckAt1 => Some(true),
        }
    }
}

impl std::fmt::Display for FaultModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The injectable hardware structures: the paper's six targets (Table IV),
/// the L1 constant cache extension and the three control-unit sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Structure {
    /// Per-thread registers of the register file.
    RegisterFile,
    /// Per-thread local memory (off-chip).
    LocalMemory,
    /// Per-CTA shared memory.
    SharedMemory,
    /// Per-SM L1 data cache (tag + data).
    L1Data,
    /// Per-SM L1 texture cache (tag + data).
    L1Tex,
    /// Per-SM L1 constant cache (tag + data) — an extension implementing
    /// the paper's future work (§IV.C.1).
    L1Const,
    /// Chip-wide L2 cache (tag + data).
    L2,
    /// Per-warp SIMT reconvergence stack frames (control unit; divergence
    /// corruption).
    SimtStack,
    /// Warp-scheduler barrier state: `at_barrier` flags and CTA
    /// `barrier_arrived` counters (control unit; lost barriers).
    Sched,
    /// Issue-scoreboard entries: per-warp 64-bit `ready_at` timestamps
    /// (control unit; scheduler livelock).
    Scoreboard,
}

/// One row of the structure table: the structure, the paper's name for
/// it, its `--structure` spellings (`|`-separated, canonical first) and
/// whether the stuck-at models are defined for it.
type StructureRow = (Structure, &'static str, &'static str, bool);

impl Structure {
    /// The six structures of the paper (Table IV), in the paper's order.
    pub const PAPER: [Structure; 6] = [
        Structure::RegisterFile,
        Structure::LocalMemory,
        Structure::SharedMemory,
        Structure::L1Data,
        Structure::L1Tex,
        Structure::L2,
    ];

    /// Every injectable **data array**, including the constant-cache
    /// extension.  The control-unit sites live in [`Structure::CONTROL`]:
    /// their populations are dynamic (live warps, stack depths), so they
    /// have no fixed bit capacity and stay out of the AVF size tables.
    pub const ALL: [Structure; 7] = [
        Structure::RegisterFile,
        Structure::LocalMemory,
        Structure::SharedMemory,
        Structure::L1Data,
        Structure::L1Tex,
        Structure::L1Const,
        Structure::L2,
    ];

    /// The control-unit injection sites (Guerrero-Balaguera et al.):
    /// parallelism-management state rather than data arrays.
    pub const CONTROL: [Structure; 3] = [
        Structure::SimtStack,
        Structure::Sched,
        Structure::Scoreboard,
    ];

    /// The five structures the paper folds into the chip AVF (local memory
    /// resides in device DRAM and is excluded from the on-chip total).
    pub const ON_CHIP: [Structure; 5] = [
        Structure::RegisterFile,
        Structure::SharedMemory,
        Structure::L1Data,
        Structure::L1Tex,
        Structure::L2,
    ];

    /// The one structure table, in declaration order (DESIGN.md's
    /// "Fault-injection surface" table is checked against it).
    ///
    /// Permanent faults are modelled where the simulator re-pins the cell
    /// after every cycle: the register file, shared memory and the three
    /// control-unit sites.  Local memory and the cache arrays are not
    /// re-pinned on write, so they take transient flips only.
    const TABLE: [StructureRow; 10] = [
        (
            Structure::RegisterFile,
            "register file",
            "rf|regfile|register-file",
            true,
        ),
        (Structure::LocalMemory, "local memory", "local|lmem", false),
        (
            Structure::SharedMemory,
            "shared memory",
            "shared|smem",
            true,
        ),
        (Structure::L1Data, "L1 data cache", "l1d", false),
        (Structure::L1Tex, "L1 texture cache", "l1t|tex", false),
        (Structure::L1Const, "L1 constant cache", "l1c|const", false),
        (Structure::L2, "L2 cache", "l2", false),
        (
            Structure::SimtStack,
            "SIMT stack",
            "simt-stack|simtstack|stack",
            true,
        ),
        (Structure::Sched, "warp scheduler", "sched|scheduler", true),
        (Structure::Scoreboard, "scoreboard", "scoreboard|sb", true),
    ];

    fn row(self) -> &'static StructureRow {
        &Self::TABLE[self as usize]
    }

    /// Human-readable name matching the paper.
    pub fn name(self) -> &'static str {
        self.row().1
    }

    /// The canonical `--structure` spelling.
    pub fn cli_name(self) -> &'static str {
        self.row().2.split('|').next().unwrap_or_default()
    }

    /// Resolves a `--structure` spelling or alias, case-insensitively.
    pub fn parse(s: &str) -> Option<Structure> {
        Self::TABLE
            .iter()
            .find(|row| row.2.split('|').any(|alias| alias.eq_ignore_ascii_case(s)))
            .map(|row| row.0)
    }

    /// Whether the stuck-at fault models are defined for this structure.
    pub fn supports_stuck_at(self) -> bool {
        self.row().3
    }
}

impl std::fmt::Display for Structure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Injectable bits of one SIMT-stack entry: bits `0..32` are the frame's
/// active-mask lanes, bits `32..64` the frame's 32-bit PC.
pub const SIMT_STACK_ENTRY_BITS: u64 = 64;

/// Injectable bits of one warp-scheduler entry: bit `0` is the warp's
/// `at_barrier` flag, bits `1..=32` its CTA's `barrier_arrived` counter.
pub const SCHED_ENTRY_BITS: u64 = 33;

/// Injectable bits of one issue-scoreboard entry (the warp's 64-bit
/// `ready_at` timestamp).
pub const SCOREBOARD_ENTRY_BITS: u64 = 64;

/// Where a planned fault lands.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FaultTarget {
    /// Register-file bit flips in one thread or one warp.
    RegisterFile {
        /// Thread- or warp-level injection.
        scope: Scope,
        /// Lot selecting the active thread/warp (reduced modulo the live
        /// population at the injection cycle).
        entry_lot: u64,
        /// Register index within the kernel's allocated registers.
        reg: u32,
        /// Bit positions within the 32-bit register (distinct).
        bits: Vec<u8>,
    },
    /// Local-memory bit flips in one thread's local segment.
    LocalMemory {
        /// Lot selecting the active thread.
        entry_lot: u64,
        /// Bit offsets within the thread's local memory.
        bits: Vec<u64>,
    },
    /// Shared-memory bit flips, replicated over one or more active CTAs
    /// (shared memory is private per CTA — Table IV).
    SharedMemory {
        /// Lot selecting the first active CTA.
        cta_lot: u64,
        /// How many consecutive active CTAs receive the same flips.
        replicate: u32,
        /// Bit offsets within the CTA's shared-memory instance.
        bits: Vec<u64>,
    },
    /// L1 data-cache bit flips on one or more SIMT cores.
    L1Data {
        /// Lot selecting the first core.
        core_lot: u64,
        /// How many consecutive cores receive the same flips.
        replicate: u32,
        /// Bit offsets within the cache's tag+data space.
        bits: Vec<u64>,
    },
    /// L1 texture-cache bit flips on one or more SIMT cores.
    L1Tex {
        /// Lot selecting the first core.
        core_lot: u64,
        /// How many consecutive cores receive the same flips.
        replicate: u32,
        /// Bit offsets within the cache's tag+data space.
        bits: Vec<u64>,
    },
    /// L1 constant-cache bit flips on one or more SIMT cores — an
    /// extension implementing the paper's future work (§IV.C.1).
    L1Const {
        /// Lot selecting the first core.
        core_lot: u64,
        /// How many consecutive cores receive the same flips.
        replicate: u32,
        /// Bit offsets within the cache's tag+data space.
        bits: Vec<u64>,
    },
    /// L2 bit flips in the flat line space across banks (§IV.B.5).
    L2 {
        /// Bit offsets within the L2's tag+data space.
        bits: Vec<u64>,
    },
    /// Bits of one frame of one warp's SIMT reconvergence stack — the
    /// control-unit site behind divergence corruption.  See
    /// [`SIMT_STACK_ENTRY_BITS`] for the bit layout.
    SimtStack {
        /// Lot selecting the live warp (reduced modulo the live warp
        /// population at the injection cycle).
        entry_lot: u64,
        /// Lot selecting the stack frame (reduced modulo the warp's stack
        /// depth at the injection cycle).
        depth_lot: u64,
        /// Bit positions within the frame (see [`SIMT_STACK_ENTRY_BITS`]).
        bits: Vec<u8>,
    },
    /// Bits of one warp's scheduler entry: its `at_barrier` flag and its
    /// CTA's `barrier_arrived` counter — the sites behind lost barriers.
    /// See [`SCHED_ENTRY_BITS`] for the bit layout.
    Sched {
        /// Lot selecting the live warp.
        entry_lot: u64,
        /// Bit positions within the entry (see [`SCHED_ENTRY_BITS`]).
        bits: Vec<u8>,
    },
    /// Bits of one warp's issue-scoreboard entry (its 64-bit `ready_at`
    /// issue timestamp) — the site behind scheduler livelock and huge
    /// time jumps.
    Scoreboard {
        /// Lot selecting the live warp.
        entry_lot: u64,
        /// Bit positions within the 64-bit timestamp.
        bits: Vec<u8>,
    },
}

impl FaultTarget {
    /// The targeted hardware structure.
    pub fn structure(&self) -> Structure {
        match self {
            FaultTarget::RegisterFile { .. } => Structure::RegisterFile,
            FaultTarget::LocalMemory { .. } => Structure::LocalMemory,
            FaultTarget::SharedMemory { .. } => Structure::SharedMemory,
            FaultTarget::L1Data { .. } => Structure::L1Data,
            FaultTarget::L1Tex { .. } => Structure::L1Tex,
            FaultTarget::L1Const { .. } => Structure::L1Const,
            FaultTarget::L2 { .. } => Structure::L2,
            FaultTarget::SimtStack { .. } => Structure::SimtStack,
            FaultTarget::Sched { .. } => Structure::Sched,
            FaultTarget::Scoreboard { .. } => Structure::Scoreboard,
        }
    }
}

/// One fault scheduled at an absolute application cycle.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlannedFault {
    /// Application cycle at which to inject.
    pub cycle: u64,
    /// What to flip.
    pub target: FaultTarget,
}

/// A set of planned faults — single-bit, multi-bit, multi-entry and
/// multi-structure campaigns are all expressed as lists of
/// [`PlannedFault`]s.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct InjectionPlan {
    /// The faults, in any order (the GPU sorts by cycle when armed).
    pub faults: Vec<PlannedFault>,
    /// The temporal model every fault of this plan follows.
    pub model: FaultModel,
}

impl InjectionPlan {
    /// A plan with a single transient fault.
    pub fn single(cycle: u64, target: FaultTarget) -> Self {
        InjectionPlan {
            faults: vec![PlannedFault { cycle, target }],
            model: FaultModel::Transient,
        }
    }

    /// The same plan under a different fault model.
    pub fn with_model(mut self, model: FaultModel) -> Self {
        self.model = model;
        self
    }
}

/// What actually happened when a planned fault was applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectionRecord {
    /// The cycle the fault was applied at (may exceed the planned cycle if
    /// the planned cycle fell between launches).
    pub cycle: u64,
    /// The targeted structure (paper terminology).
    pub structure: &'static str,
    /// Whether any bit actually changed (e.g. a cache flip on an invalid
    /// line changes nothing — §IV.B.4).
    pub applied: bool,
    /// For cache targets: whether the flips landed in tag or data bits.
    pub outcomes: Vec<FlipOutcome>,
}

/// Sizes of the injectable fault spaces for one kernel on one chip — what
/// the mask generator needs to draw concrete bit positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpace {
    /// Registers allocated per thread (entries of the register-file space).
    pub regs_per_thread: u32,
    /// Bits of one thread's local memory (0 when the kernel uses none).
    pub lmem_bits: u64,
    /// Bits of one CTA's shared-memory instance (0 when the kernel uses
    /// none).
    pub smem_bits: u64,
    /// Injectable bits of one SM's L1 data cache (tag + data), or `None`
    /// when the chip has no L1D.
    pub l1d_bits: Option<u64>,
    /// Injectable bits of one SM's L1 texture cache (tag + data).
    pub l1t_bits: u64,
    /// Injectable bits of one SM's L1 constant cache (tag + data) — an
    /// extension; the paper lists the constant cache as future work.
    pub l1c_bits: u64,
    /// Injectable bits of the whole L2 (tag + data).
    pub l2_bits: u64,
    /// SIMT cores on the chip.
    pub num_sms: u32,
    /// Bits of one L1D / L1T / L2 line including the modelled tag (the
    /// three levels share one line size).
    pub bits_per_line: u64,
    /// Bits of one L1 constant-cache line including the modelled tag.
    pub l1c_bits_per_line: u64,
}

impl FaultSpace {
    /// `(total injectable bits, entry width in bits)` of `structure` for
    /// this kernel on this chip; a zero total means nothing to inject
    /// into.  An entry is what a same-entry multi-bit fault stays inside:
    /// a register, a memory word, a cache line, or — for the control
    /// units, whose population is the live warps — the one warp entry.
    pub fn bits_of(&self, structure: Structure) -> (u64, u64) {
        match structure {
            Structure::RegisterFile => (u64::from(self.regs_per_thread) * 32, 32),
            Structure::LocalMemory => (self.lmem_bits, 32),
            Structure::SharedMemory => (self.smem_bits, 32),
            Structure::L1Data => (self.l1d_bits.unwrap_or(0), self.bits_per_line),
            Structure::L1Tex => (self.l1t_bits, self.bits_per_line),
            Structure::L1Const => (self.l1c_bits, self.l1c_bits_per_line),
            Structure::L2 => (self.l2_bits, self.bits_per_line),
            Structure::SimtStack => (SIMT_STACK_ENTRY_BITS, SIMT_STACK_ENTRY_BITS),
            Structure::Sched => (SCHED_ENTRY_BITS, SCHED_ENTRY_BITS),
            Structure::Scoreboard => (SCOREBOARD_ENTRY_BITS, SCOREBOARD_ENTRY_BITS),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structure_names_match_paper() {
        let t = FaultTarget::RegisterFile {
            scope: Scope::Thread,
            entry_lot: 0,
            reg: 0,
            bits: vec![0],
        };
        assert_eq!(t.structure().name(), "register file");
        assert_eq!(
            FaultTarget::L2 { bits: vec![] }.structure().name(),
            "L2 cache"
        );
        assert_eq!(
            FaultTarget::SimtStack {
                entry_lot: 0,
                depth_lot: 0,
                bits: vec![0],
            }
            .structure()
            .name(),
            "SIMT stack"
        );
        assert_eq!(
            FaultTarget::Sched {
                entry_lot: 0,
                bits: vec![0],
            }
            .structure()
            .name(),
            "warp scheduler"
        );
        assert_eq!(
            FaultTarget::Scoreboard {
                entry_lot: 0,
                bits: vec![0],
            }
            .structure()
            .name(),
            "scoreboard"
        );
    }

    #[test]
    fn design_md_structure_table_matches_the_code() {
        let mut rows = Vec::new();
        for line in include_str!("../../../DESIGN.md").lines() {
            let cells: Vec<&str> = line
                .split('|')
                .map(|c| c.trim_matches([' ', '`']))
                .collect();
            let ["", name, cli, _population, _entry, _replicated, transient, stuck, ""] = cells[..]
            else {
                continue;
            };
            let Some(s) = Structure::parse(cli) else {
                continue; // header and separator rows
            };
            assert_eq!((s.name(), s.cli_name()), (name, cli), "{line}");
            assert_eq!(transient, "yes", "{line}");
            assert_eq!(stuck == "yes", s.supports_stuck_at(), "{line}");
            assert!(stuck == "yes" || stuck == "no", "{line}");
            rows.push(s);
        }
        let declared: Vec<Structure> = Structure::TABLE.iter().map(|row| row.0).collect();
        assert_eq!(rows, declared, "one DESIGN.md row per structure, in order");
        let listed = [&Structure::ALL[..], &Structure::CONTROL[..]].concat();
        assert_eq!(declared, listed, "ALL then CONTROL enumerate the table");
        for (i, s) in declared.iter().enumerate() {
            assert_eq!(*s as usize, i, "TABLE is indexed by discriminant");
            for alias in s.row().2.split('|') {
                assert_eq!(Structure::parse(&alias.to_uppercase()), Some(*s));
            }
        }
        assert_eq!(Structure::parse("dram"), None);
    }

    #[test]
    fn fault_model_round_trips_and_defaults_transient() {
        assert_eq!(FaultModel::default(), FaultModel::Transient);
        for m in FaultModel::ALL {
            assert_eq!(FaultModel::parse(m.name()), Some(m), "{m:?}");
        }
        assert_eq!(FaultModel::parse("bogus"), None);
        assert!(!FaultModel::Transient.is_permanent());
        assert!(FaultModel::StuckAt0.is_permanent());
        assert!(FaultModel::StuckAt1.is_permanent());
        assert_eq!(FaultModel::StuckAt0.stuck_value(), Some(false));
        assert_eq!(FaultModel::StuckAt1.stuck_value(), Some(true));
        assert_eq!(FaultModel::Transient.stuck_value(), None);
    }

    #[test]
    fn single_plan() {
        let p = InjectionPlan::single(5, FaultTarget::L2 { bits: vec![1, 2] });
        assert_eq!(p.faults.len(), 1);
        assert_eq!(p.faults[0].cycle, 5);
    }
}
