//! The SIMT core (streaming multiprocessor) model.
//!
//! Each core holds a set of resident CTAs; each CTA owns its shared-memory
//! instance and its warps; each warp owns a program counter, an active
//! mask, a SIMT reconvergence stack, and the registers of its 32 threads.
//!
//! Scheduling (GTO) issues the oldest issuable warp first.
//! One instruction issues per core per cycle; warps stall until their
//! instruction's latency (ALU class or computed memory completion time)
//! elapses — the standard stall-warp timing model.
//!
//! # Execution pipeline
//!
//! The cycle loop runs over **predecoded micro-ops** ([`gpufi_isa::decode`]):
//! each launch lowers the kernel once into a flat [`Uop`] array, so issue
//! dispatches on a dense tag instead of re-matching the nested `Op` enum.
//! Warp state is stored **structure-of-arrays**: one `[u32; 32]` row per
//! architectural register, predicate files as per-predicate lane bitmasks,
//! and register taints as per-register lane bitmasks — so guard evaluation
//! is one mask AND, and lanewise ALU work is a tight 32-lane loop the
//! compiler can vectorize.  Checkpoints (`Clone`) and the canonical state
//! digest remain bit-compatible with the original array-of-structures
//! layout (see [`SimtCore::digest_into`]).

use crate::config::{GpuConfig, SchedulerPolicy};
use crate::error::Trap;
use crate::grid::LaunchDims;
use crate::mem::{AccessKind, MemSystem, LOCAL_BASE};
use crate::oracle::ThreadState;
use gpufi_isa::decode::{Uop, UopOp, GUARD_NEGATE, NO_GUARD, NO_REG};
use gpufi_isa::{Kernel, OpClass, SpecialReg};

/// Warp width; SASS-lite fixes this at 32 like every modelled generation.
const LANES: usize = 32;

/// Applies `$body` to each lane set in `$mask`.
///
/// A full mask takes an unconditional 32-iteration loop (vectorizable);
/// otherwise the set bits are walked directly, so inactive lanes cost
/// nothing.  Both paths visit lanes in ascending order, preserving the
/// per-lane trap order of the original lanewise implementation.
macro_rules! lanes {
    ($mask:expr, $lane:ident => $body:expr) => {{
        let full_: u32 = $mask;
        if full_ == u32::MAX {
            for $lane in 0..LANES {
                $body;
            }
        } else {
            let mut m_ = full_;
            while m_ != 0 {
                let $lane = (m_.trailing_zeros() as usize) & (LANES - 1);
                m_ &= m_ - 1;
                $body;
            }
        }
    }};
}

pub(crate) mod lane;
mod site;
pub(crate) use site::{resolve, Site};

/// Per-launch immutable context shared by all cores.
#[derive(Debug, Clone, Copy)]
pub struct KernelCtx<'a> {
    /// The kernel being executed.
    pub kernel: &'a Kernel,
    /// The kernel lowered to micro-ops, 1:1 with its instructions.
    pub uops: &'a [Uop],
    /// Launch geometry.
    pub dims: LaunchDims,
    /// Launch parameters (preloaded into `R0..`).
    pub args: &'a [u32],
}

impl KernelCtx<'_> {
    /// Threads per CTA.
    pub fn threads_per_cta(&self) -> u32 {
        self.dims.threads_per_cta()
    }

    /// Warps per CTA (rounded up).
    pub fn warps_per_cta(&self) -> u32 {
        self.threads_per_cta().div_ceil(LANES as u32)
    }
}

/// A frame of the per-warp SIMT reconvergence stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Frame {
    /// A not-yet-executed divergent path.
    Pending { pc: u32, mask: u32 },
    /// A reconvergence point pushed by `SSY`; `pc` is the `SYNC` location.
    Reconv { pc: u32, mask: u32 },
}

impl Frame {
    fn mask_mut(&mut self) -> &mut u32 {
        match self {
            Frame::Pending { mask, .. } | Frame::Reconv { mask, .. } => mask,
        }
    }
}

/// Forces bit `bit` of `word`: `None` toggles it (a transient flip),
/// `Some(v)` pins it to `v` (a stuck-at fault).
#[inline]
fn force_bit<T>(word: &mut T, bit: u8, stuck: Option<bool>)
where
    T: Copy
        + From<u8>
        + std::ops::Shl<u8, Output = T>
        + std::ops::Not<Output = T>
        + std::ops::BitAnd<Output = T>
        + std::ops::BitOr<Output = T>
        + std::ops::BitXor<Output = T>,
{
    let m = T::from(1) << bit;
    *word = match stuck {
        Some(true) => *word | m,
        Some(false) => *word & !m,
        None => *word ^ m,
    };
}

/// Arms `site` for per-cycle re-pinning under a stuck-at model, once: a
/// replicated fault that reaches the same cell twice is one defect.
fn arm<S: PartialEq>(sites: &mut Vec<(S, bool)>, site: S, stuck: Option<bool>) {
    if let Some(set) = stuck {
        let entry = (site, set);
        if !sites.contains(&entry) {
            sites.push(entry);
        }
    }
}

/// A fault site owned by a warp: what one planned bit corrupts.
///
/// Under a stuck-at model the site models a defective storage cell: the
/// bit is forced to its stuck value when the fault fires and **re-pinned
/// after every core cycle** ([`SimtCore::enforce_stuck`]), so any
/// architectural overwrite of the location is undone before the next
/// instruction can observe it.  A site binds to the physical storage of
/// the targeted entity and dies with it (exited lanes, finished warps,
/// harvested CTAs): register renaming and slot reallocation across
/// launches are not modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WarpSite {
    /// Bit `bit` of register `reg` in lanes `lanes`.
    Reg { lanes: u32, reg: u16, bit: u8 },
    /// Bit `bit` of one SIMT-stack entry: `bit < 32` addresses the entry's
    /// lane mask, otherwise bit `bit - 32` of its pc.  `depth` is a pushed
    /// frame; `None` is the top entry — the warp's live execution state
    /// (`active` / `pc`).
    Simt { depth: Option<u16>, bit: u8 },
    /// The warp-scheduler `at_barrier` flag.
    AtBarrier,
    /// Bit `bit` of the issue-scoreboard `ready_at` cycle.
    ReadyAt { bit: u8 },
}

/// A fault site owned by a CTA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CtaSite {
    /// Shared-memory bit `bit`.
    Smem { bit: u64 },
    /// Bit `bit` of the CTA `barrier_arrived` counter.
    BarrierArrived { bit: u8 },
}

/// One slot a checkpoint recording marks for a shadowed plan (see
/// `crate::shadow`): a register of one lane, a shared-memory word or a
/// global-memory word.  A CTA is named by its SM and launch sequence
/// number, unique over the application, and a warp by its index within
/// the CTA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mark {
    Reg {
        sm: u32,
        seq: u64,
        warp: u32,
        reg: u16,
        lane: u8,
    },
    Smem {
        sm: u32,
        seq: u64,
        word: u32,
    },
    /// The word at byte address `4 * word`.
    Global {
        word: u32,
    },
}

impl std::hash::Hash for Mark {
    /// Hashes one word: the fields packed (their ranges overlap only past
    /// 256 SMs, 2^32 CTAs or 2^22 shared-memory words, where equal marks
    /// still hash equal).
    fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
        h.write_u64(match *self {
            Mark::Reg {
                sm,
                seq,
                warp,
                reg,
                lane,
            } => {
                (u64::from(sm) << 56 | seq << 24)
                    ^ u64::from(warp) << 13
                    ^ u64::from(reg) << 5
                    ^ u64::from(lane)
            }
            Mark::Smem { sm, seq, word } => {
                (u64::from(sm) << 56 | seq << 24) ^ u64::from(word) ^ 1 << 63
            }
            Mark::Global { word } => u64::from(word) ^ 3 << 62,
        });
    }
}

/// One entry of the recording pass's log (see [`TaintLog`]).
#[derive(Debug, Clone)]
pub(crate) enum Event {
    /// Warp `warp` of CTA `seq` executed `uop` on lanes `mask` and read or
    /// wrote a marked slot.  `rows` indexes [`Log::rows`], its `a`, `b`
    /// and `c` operand rows as it read them, `sel` is its `SEL` selector
    /// predicate.  `marked` says which lanes of `a`, `b`, `c` and the
    /// destination register were marked, `words` which lanes' memory
    /// words.
    Exec {
        seq: u64,
        warp: u32,
        uop: Uop,
        mask: u32,
        rows: usize,
        sel: u32,
        marked: [u32; 4],
        words: u32,
    },
    /// Marked slots died with their thread's exit or their CTA: lanes
    /// `lanes` of the row of 32 slots `mark` names the first of — a
    /// register's lanes (`mark` names lane 0), or 32 consecutive
    /// shared-memory words (`mark` names a word whose index is a multiple
    /// of 32).
    Kill { mark: Mark, lanes: u32 },
}

/// The recording pass's log of the instructions that read or wrote a
/// marked slot and of the marked slots an exit or a CTA's end killed, in
/// the order they happened.  The shadows (`crate::shadow`) evaluate each
/// instruction for the plans holding its marked slots.
///
/// It is an instrument of the recording pass, not machine state: a clone
/// — a captured snapshot — and a `clone_from` — a restore — are off, so
/// snapshots, forks and injection runs neither hold nor fill a log.
#[derive(Debug, Default)]
pub(crate) struct TaintLog(Option<Log>);

/// A filled [`TaintLog`]: the events in order, and the operand rows of
/// each [`Event::Exec`] (`b` the splatted immediate if it is one; a row
/// the op does not read is zero).
#[derive(Debug, Default)]
pub(crate) struct Log {
    pub(crate) events: Vec<Event>,
    pub(crate) rows: Vec<[[u32; LANES]; 3]>,
}

impl Log {
    /// Empties the log, keeping its buffers.
    pub(crate) fn clear(&mut self) {
        self.events.clear();
        self.rows.clear();
    }
}

impl Clone for TaintLog {
    fn clone(&self) -> Self {
        TaintLog::default()
    }

    fn clone_from(&mut self, _: &Self) {
        *self = TaintLog::default();
    }
}

impl TaintLog {
    fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Logs the death of `lanes` of register `reg` of a warp, by their
    /// threads' exit or their CTA's end.
    #[cold]
    fn regs(&mut self, (sm, seq, warp): (u32, u64, u32), reg: usize, lanes: u32) {
        if let Some(log) = &mut self.0 {
            if lanes != 0 {
                let reg = reg as u16;
                let mark = Mark::Reg {
                    sm,
                    seq,
                    warp,
                    reg,
                    lane: 0,
                };
                log.events.push(Event::Kill { mark, lanes });
            }
        }
    }
}

/// One warp's architectural and microarchitectural state, stored
/// structure-of-arrays: registers and ACE timestamps are per-register
/// 32-lane rows, predicates and taints are lane bitmasks.  Register
/// indices are bounded by `taint.len()`; `touch` is either that long or
/// empty.
#[derive(Debug)]
struct Warp {
    /// Warp index within its CTA.
    widx: u32,
    pc: u32,
    /// Lanes executing the current path.
    active: u32,
    /// Lanes that have not exited.
    live: u32,
    stack: Vec<Frame>,
    ready_at: u64,
    at_barrier: bool,
    finished: bool,
    /// SoA register file: `regs[reg][lane]`.
    regs: Vec<[u32; LANES]>,
    /// Predicate files as lane bitmasks: bit `lane` of `preds[p]`.
    preds: [u32; 8],
    /// ACE liveness: cycle of the last definition or use, same row shape
    /// as `regs`.  A golden-pass instrument: allocated only for CTAs
    /// launched on a profiling core (read trace armed), empty otherwise —
    /// so checkpoints, forks and injection runs neither hold nor update it.
    touch: Vec<[u64; LANES]>,
    /// Per-register lane bitmask of fault-flipped values that no
    /// instruction has observed yet.
    taint: Vec<u32>,
    /// Population count over `taint`, kept in lockstep for O(1) queries.
    taint_cnt: u32,
    /// Permanently stuck bits resident in this warp (empty in golden runs
    /// and under the transient model).  Excluded from the canonical state
    /// digest and the checkpoint byte accounting: clones carry the sites
    /// (so forked runs re-arm the stuck mask for free) while transient
    /// digests and recorder budgets stay bit-identical.
    stuck: Vec<(WarpSite, bool)>,
}

clone_fields!(Warp {
    widx,
    pc,
    active,
    live,
    stack,
    ready_at,
    at_barrier,
    finished,
    regs,
    preds,
    touch,
    taint,
    taint_cnt,
    stuck,
});

impl Warp {
    /// State equality for the reconvergence check: every field but the
    /// fault bookkeeping in the ignore list, and of the registers only the
    /// live lanes' — an exited lane's are never read again, and the SIMT
    /// stack and masks, equal too, never revive it.
    fn same_state(&self, o: &Warp) -> bool {
        let Warp {
            widx,
            pc,
            active,
            live,
            stack,
            ready_at,
            at_barrier,
            finished,
            regs,
            preds,
            touch,
            stuck,
            // Ignored: fault bookkeeping.
            taint: _,
            taint_cnt: _,
        } = self;
        *widx == o.widx
            && *pc == o.pc
            && *active == o.active
            && *live == o.live
            && *ready_at == o.ready_at
            && *at_barrier == o.at_barrier
            && *finished == o.finished
            && *preds == o.preds
            && *stack == o.stack
            && *stuck == o.stuck
            && (*regs == o.regs
                || *live != u32::MAX
                    && regs.len() == o.regs.len()
                    && regs.iter().zip(&o.regs).all(|(a, b)| {
                        a == b || (0..LANES).all(|l| *live >> l & 1 == 0 || a[l] == b[l])
                    }))
            && *touch == o.touch
    }

    /// Corrupts `site` under `stuck` (see [`force_bit`]); `false` when the
    /// site does not exist in this warp.
    #[inline]
    fn force(&mut self, site: WarpSite, stuck: Option<bool>) -> bool {
        match site {
            WarpSite::Reg { lanes, reg, bit } => {
                let r = reg as usize;
                let live = lanes & self.live;
                lanes!(live, lane => force_bit(&mut self.regs[r][lane], bit, stuck));
                let fresh = live & !self.taint[r];
                self.taint[r] |= fresh;
                self.taint_cnt += fresh.count_ones();
            }
            WarpSite::Simt { depth, bit } => {
                let (pc, mask) = match depth {
                    None => (&mut self.pc, &mut self.active),
                    Some(d) => match self.stack.get_mut(d as usize) {
                        Some(Frame::Pending { pc, mask } | Frame::Reconv { pc, mask }) => {
                            (pc, mask)
                        }
                        None => return false,
                    },
                };
                if bit < 32 {
                    force_bit(mask, bit, stuck);
                } else {
                    force_bit(pc, bit - 32, stuck);
                }
            }
            WarpSite::AtBarrier => self.at_barrier = stuck.unwrap_or(!self.at_barrier),
            WarpSite::ReadyAt { bit } => force_bit(&mut self.ready_at, bit, stuck),
        }
        true
    }

    /// Injects a fault at `site`: corrupts it and, under a stuck-at model,
    /// arms it for re-pinning.  `false` when the site does not exist.
    fn corrupt(&mut self, site: WarpSite, stuck: Option<bool>) -> bool {
        let hit = self.force(site, stuck);
        if hit {
            arm(&mut self.stuck, site, stuck);
        }
        hit
    }

    /// Retires `lanes`: their registers can never be read again, so their
    /// taints and stuck register cells die with the threads — which is
    /// what lets a stuck-at run early-exit once every faulted entity has
    /// retired.
    fn retire_lanes(&mut self, lanes: u32, log: &mut TaintLog, (sm, seq): (u32, u64)) {
        if self.taint_cnt > 0 {
            for (r, tm) in self.taint.iter_mut().enumerate() {
                let killed = *tm & lanes;
                if killed != 0 {
                    *tm &= !lanes;
                    self.taint_cnt -= killed.count_ones();
                    log.regs((sm, seq, self.widx), r, killed);
                }
            }
        }
        if !self.stuck.is_empty() {
            for (site, _) in &mut self.stuck {
                if let WarpSite::Reg { lanes: l, .. } = site {
                    *l &= !lanes;
                }
            }
            self.stuck
                .retain(|(site, _)| !matches!(site, WarpSite::Reg { lanes: 0, .. }));
        }
    }

    /// The `b` operand row: a register row or the splatted immediate.
    fn brow(&self, u: &Uop) -> [u32; LANES] {
        if u.b_imm {
            [u.imm; LANES]
        } else {
            self.regs[u.b as usize]
        }
    }

    /// The lanes executing `u`: the active ones its guard admits, by one
    /// AND against the predicate lane mask.
    fn executing(&self, u: &Uop) -> u32 {
        if u.guard == NO_GUARD {
            self.active
        } else {
            let pm = self.preds[(u.guard & 7) as usize];
            self.active & if u.guard & GUARD_NEGATE != 0 { !pm } else { pm }
        }
    }

    /// The packed predicate byte of one lane (bit `p` set iff `Pp` holds),
    /// i.e. the original array-of-structures representation.
    fn pred_byte(&self, lane: usize) -> u8 {
        let mut b = 0u8;
        for (p, &pm) in self.preds.iter().enumerate() {
            b |= (((pm >> lane) & 1) as u8) << p;
        }
        b
    }

    fn issuable(&self, now: u64) -> bool {
        !self.finished && !self.at_barrier && self.ready_at <= now
    }
}

/// One resident CTA: its shared memory, warps and barrier state.
#[derive(Debug)]
struct Cta {
    /// Linear CTA index within the grid.
    linear: u64,
    /// Launch sequence number (for GTO age ordering).
    seq: u64,
    smem: Vec<u8>,
    warps: Vec<Warp>,
    barrier_arrived: u32,
    live_warps: u32,
    /// Fault-flipped shared-memory bit indices not yet observed by a load,
    /// ascending.
    smem_taints: Vec<u64>,
    /// Bit `w % 64` set for every shared-memory word `w` a taint was added
    /// to since `smem_taints` was last empty: a load or store of a word
    /// whose bit is clear skips the search.
    smem_words: u64,
    /// Permanently stuck bits resident in this CTA (see [`Warp::stuck`]).
    stuck: Vec<(CtaSite, bool)>,
}

clone_fields!(Cta {
    linear,
    seq,
    smem,
    warps,
    barrier_arrived,
    live_warps,
    smem_taints,
    smem_words,
    stuck,
});

impl Cta {
    /// State equality for the reconvergence check (see [`Warp::same_state`]).
    fn same_state(&self, o: &Cta) -> bool {
        let Cta {
            linear,
            seq,
            smem,
            warps,
            barrier_arrived,
            live_warps,
            stuck,
            // Ignored: fault bookkeeping.
            smem_taints: _,
            smem_words: _,
        } = self;
        *linear == o.linear
            && *seq == o.seq
            && *barrier_arrived == o.barrier_arrived
            && *live_warps == o.live_warps
            && *stuck == o.stuck
            && warps.len() == o.warps.len()
            && warps.iter().zip(&o.warps).all(|(a, b)| a.same_state(b))
            && *smem == o.smem
    }

    /// The indices of the tainted bits of the shared-memory word at bit
    /// `lo` in `smem_taints`.
    #[inline]
    fn tainted_word(&self, lo: u64) -> std::ops::Range<usize> {
        let t = &self.smem_taints;
        if t.is_empty() || self.smem_words & word_bit(lo) == 0 {
            return 0..0;
        }
        let start = t.partition_point(|&b| b < lo);
        start..start + t[start..].iter().take_while(|&&b| b < lo + 32).count()
    }

    /// Taints shared-memory bit `bit`, at index `i` of `smem_taints`.
    fn taint_smem(&mut self, i: usize, bit: u64) {
        if self.smem_taints.is_empty() {
            self.smem_words = 0;
        }
        self.smem_taints.insert(i, bit);
        self.smem_words |= word_bit(bit & !31);
    }

    /// Corrupts `site` under `stuck` (see [`force_bit`]); `false` when the
    /// site does not exist in this CTA.
    #[inline]
    fn force(&mut self, site: CtaSite, stuck: Option<bool>) -> bool {
        match site {
            CtaSite::Smem { bit } => {
                let Some(byte) = self.smem.get_mut((bit / 8) as usize) else {
                    return false;
                };
                force_bit(byte, (bit % 8) as u8, stuck);
                // A repeated flip restores the golden bit, so transient
                // taint is a toggle; a pinned bit stays tainted.
                match (self.smem_taints.binary_search(&bit), stuck) {
                    (Err(i), _) => self.taint_smem(i, bit),
                    (Ok(i), None) => {
                        self.smem_taints.remove(i);
                    }
                    (Ok(_), Some(_)) => {}
                }
            }
            CtaSite::BarrierArrived { bit } => force_bit(&mut self.barrier_arrived, bit, stuck),
        }
        true
    }

    /// Injects a fault at `site` (see [`Warp::corrupt`]).
    fn corrupt(&mut self, site: CtaSite, stuck: Option<bool>) -> bool {
        let hit = self.force(site, stuck);
        if hit {
            arm(&mut self.stuck, site, stuck);
        }
        hit
    }
}

/// Checkpoint-budget accounting constants: the per-struct byte estimates
/// are pinned to the original array-of-structures sizes so `Recorder`
/// budget striding (and therefore *which* checkpoints survive a byte
/// budget) never shifts across internal storage refactors — forked-run
/// CSVs stay byte-identical.  [`SimtCore::held_bytes`] counts what is
/// actually held instead.
const CORE_ACCT_BYTES: usize = 144;
const CTA_ACCT_BYTES: usize = 96;
const WARP_ACCT_BYTES: usize = 160;
const FRAME_ACCT_BYTES: usize = 12;

/// A streaming multiprocessor.
/// `Clone` is the checkpoint mechanism: every field is cloned (or, on
/// restore, `clone_from`-ed in place) so a snapshot can never silently
/// omit state (see `crate::snapshot`).
#[derive(Debug)]
pub struct SimtCore {
    id: usize,
    max_threads: u32,
    ctas: Vec<Cta>,
    cta_limit: u32,
    launch_seq: u64,
    policy: SchedulerPolicy,
    rr_cursor: usize,
    lat_alu: u32,
    lat_mul: u32,
    lat_sfu: u32,
    lat_smem: u32,
    /// Cached Σ `live.count_ones()` over resident warps, maintained by
    /// `launch_cta`/`exit_lanes` so per-cycle occupancy integration and
    /// CTA-fit checks cost O(1) instead of walking every warp.
    cnt_threads: u32,
    /// Cached count of resident not-finished warps (same maintenance).
    cnt_live_warps: u32,
    /// Resident CTAs whose warps have all finished (pending harvest);
    /// lets `harvest_finished` skip its scan on the common no-op cycle.
    finished_ctas: u32,
    /// Dynamic instructions issued (all lanes of a warp count as one).
    pub instructions: u64,
    /// ACE liveness: accumulated register def-to-last-use span cycles
    /// (one 32-bit register of one thread for one cycle = one unit).
    /// Stays 0 unless the core launched CTAs with the read trace armed
    /// (see `Warp::touch`).
    pub ace_reg_cycles: u64,
    /// Latched when a fault-flipped register or shared-memory value was
    /// read by an executing instruction.
    escaped: bool,
    /// Whether any stuck-at site is armed on this core; lets
    /// [`SimtCore::enforce_stuck`] return in O(1) on transient runs.
    has_stuck: bool,
    /// When set, `exit_lanes` records each exiting thread's architectural
    /// state (registers, predicates) for the differential oracle.
    capture_exits: bool,
    /// Exit-state log of the current launch (drained by the oracle hook).
    exit_log: Vec<ThreadState>,
    /// Golden-pass register read trace for the stratified fault sampler:
    /// `trace[r]` = last cycle any lane of any warp read `Rr`, plus one
    /// (0 = never read this launch).  `None` (the default, and the only
    /// state injection runs ever see) adds no per-instruction work.  Kept
    /// out of `digest_into` and `resident_bytes` on purpose: it is profiling
    /// instrumentation, not architectural state.  Armed, it is also the
    /// switch for ACE accounting: `launch_cta` allocates `Warp::touch`
    /// rows only while it is `Some`.
    read_trace: Option<Vec<u64>>,
    /// The recording pass's log of marked slots read or killed (off
    /// elsewhere; see [`TaintLog`]).
    taint_log: TaintLog,
}

clone_fields!(SimtCore {
    id,
    max_threads,
    ctas,
    cta_limit,
    launch_seq,
    policy,
    rr_cursor,
    lat_alu,
    lat_mul,
    lat_sfu,
    lat_smem,
    cnt_threads,
    cnt_live_warps,
    finished_ctas,
    instructions,
    ace_reg_cycles,
    escaped,
    has_stuck,
    capture_exits,
    exit_log,
    read_trace,
    taint_log,
});

impl SimtCore {
    /// The counters [`SimtCore::same_state`] compares, alone: what the
    /// reconvergence check looks at before walking any warp.
    pub(crate) fn same_counters(&self, o: &SimtCore) -> bool {
        self.instructions == o.instructions
            && self.ace_reg_cycles == o.ace_reg_cycles
            && self.launch_seq == o.launch_seq
            && self.cnt_threads == o.cnt_threads
            && self.cnt_live_warps == o.cnt_live_warps
            && self.finished_ctas == o.finished_ctas
    }

    /// State equality for the reconvergence check: every field that can
    /// affect later execution or the launch stats, i.e. all but the fault
    /// bookkeeping and instruments in the ignore list.
    pub(crate) fn same_state(&self, o: &SimtCore) -> bool {
        let SimtCore {
            id,
            max_threads,
            ctas,
            cta_limit,
            launch_seq: _,
            policy,
            rr_cursor,
            lat_alu,
            lat_mul,
            lat_sfu,
            lat_smem,
            cnt_threads: _,
            cnt_live_warps: _,
            finished_ctas: _,
            instructions: _,
            ace_reg_cycles: _,
            has_stuck,
            capture_exits,
            // Ignored: fault bookkeeping and instruments.
            escaped: _,
            exit_log: _,
            read_trace: _,
            taint_log: _,
        } = self;
        // The counters skipped above.
        self.same_counters(o)
            && *id == o.id
            && *max_threads == o.max_threads
            && *cta_limit == o.cta_limit
            && *policy == o.policy
            && *rr_cursor == o.rr_cursor
            && *lat_alu == o.lat_alu
            && *lat_mul == o.lat_mul
            && *lat_sfu == o.lat_sfu
            && *lat_smem == o.lat_smem
            && *has_stuck == o.has_stuck
            && *capture_exits == o.capture_exits
            && ctas.len() == o.ctas.len()
            && ctas.iter().zip(&o.ctas).all(|(a, b)| a.same_state(b))
    }

    /// Creates an idle core for the given chip configuration.
    pub fn new(id: usize, cfg: &GpuConfig) -> Self {
        SimtCore {
            id,
            max_threads: cfg.max_threads_per_sm,
            ctas: Vec::new(),
            cta_limit: 0,
            launch_seq: 0,
            policy: cfg.scheduler,
            rr_cursor: 0,
            lat_alu: cfg.lat.alu,
            lat_mul: cfg.lat.mul,
            lat_sfu: cfg.lat.sfu,
            lat_smem: cfg.lat.smem,
            cnt_threads: 0,
            cnt_live_warps: 0,
            finished_ctas: 0,
            instructions: 0,
            ace_reg_cycles: 0,
            escaped: false,
            has_stuck: false,
            capture_exits: false,
            exit_log: Vec::new(),
            read_trace: None,
            taint_log: TaintLog::default(),
        }
    }

    /// Arms (or disarms, with `None`) the per-register read trace for the
    /// next launch: `Some(num_regs)` resets the trace to `num_regs` zeroed
    /// slots.  See the `read_trace` field docs for the recorded semantics.
    /// CTAs launched while it is armed also keep ACE timestamps
    /// ([`SimtCore::ace_reg_cycles`]).
    pub fn set_read_trace(&mut self, num_regs: Option<usize>) {
        self.read_trace = num_regs.map(|n| vec![0u64; n]);
    }

    /// The read trace accumulated since the last [`SimtCore::set_read_trace`]
    /// arm, if tracing is on: `trace[r]` = last read cycle of `Rr` + 1
    /// (0 = never read).
    pub fn read_trace(&self) -> Option<&[u64]> {
        self.read_trace.as_deref()
    }

    /// Enables (or disables) per-thread exit-state capture for the
    /// differential oracle's lockstep register comparison.
    pub fn set_exit_capture(&mut self, on: bool) {
        self.capture_exits = on;
        self.exit_log.clear();
    }

    /// Drains the exit-state log accumulated since the last drain.
    pub fn take_exit_log(&mut self) -> Vec<ThreadState> {
        std::mem::take(&mut self.exit_log)
    }

    /// Approximate heap footprint of the resident CTAs (register files,
    /// shared memory, SIMT stacks), for checkpoint-store budgeting.
    ///
    /// Uses the pinned pre-refactor struct sizes (`CORE_ACCT_BYTES` and
    /// friends) so recorder budgets stride identically across layouts,
    /// and charges a row of ACE timestamps per register whether or not
    /// the warp holds them, so a recording without ACE accounting keeps
    /// the same snapshots as one with it.
    pub fn resident_bytes(&self) -> usize {
        CORE_ACCT_BYTES
            + self
                .ctas
                .iter()
                .map(|cta| {
                    CTA_ACCT_BYTES
                        + cta.smem.len()
                        + cta.smem_taints.len() * 8
                        + cta
                            .warps
                            .iter()
                            .map(|w| {
                                WARP_ACCT_BYTES
                                    + w.regs.len() * LANES * 4
                                    + w.regs.len() * LANES * 8
                                    + w.taint_cnt as usize * 8
                                    + w.stack.len() * FRAME_ACCT_BYTES
                            })
                            .sum::<usize>()
                })
                .sum::<usize>()
    }

    /// Bytes of core state actually held: the core, CTA and warp structs
    /// plus the lengths of their register, ACE, taint, shared-memory and
    /// SIMT-stack buffers.  Unlike [`SimtCore::resident_bytes`] it follows
    /// the storage layout and charges ACE rows only where a warp has them.
    pub(crate) fn held_bytes(&self) -> usize {
        use std::mem::{size_of, size_of_val};
        size_of::<SimtCore>()
            + self
                .ctas
                .iter()
                .map(|cta| {
                    size_of::<Cta>()
                        + size_of_val(&cta.smem[..])
                        + size_of_val(&cta.smem_taints[..])
                        + cta
                            .warps
                            .iter()
                            .map(|w| {
                                size_of::<Warp>()
                                    + size_of_val(&w.regs[..])
                                    + size_of_val(&w.touch[..])
                                    + size_of_val(&w.taint[..])
                                    + size_of_val(&w.stack[..])
                            })
                            .sum::<usize>()
                })
                .sum::<usize>()
    }

    /// Hashes the core's complete state into a canonical state digest.
    ///
    /// Register files and ACE timestamps are hashed **register-major**
    /// (`R0` lanes 0..31, then `R1`, …), predicates as one packed byte per
    /// lane, and register taints as sorted `reg * 32 + lane` slot indices —
    /// the canonical order is the original array-of-structures layout, so
    /// the digest is invariant under internal storage refactors.  ACE
    /// timestamps are hashed where warps keep them (a profiling run's
    /// state); elsewhere there are none to hash.  The derived residency
    /// counters are excluded (they are recomputable).
    pub(crate) fn digest_into(&self, h: &mut crate::snapshot::StateHasher) {
        h.u64(self.id as u64);
        h.u64(self.ctas.len() as u64);
        for cta in &self.ctas {
            h.u64(cta.linear);
            h.u64(cta.seq);
            h.u64(cta.smem.len() as u64);
            h.bytes(&cta.smem);
            h.u64(cta.smem_taints.len() as u64);
            for &b in &cta.smem_taints {
                h.u64(b);
            }
            h.u32(cta.barrier_arrived);
            h.u32(cta.live_warps);
            h.u64(cta.warps.len() as u64);
            for w in &cta.warps {
                h.u32(w.widx);
                h.u32(w.pc);
                h.u32(w.active);
                h.u32(w.live);
                h.u64(w.stack.len() as u64);
                for f in &w.stack {
                    match *f {
                        Frame::Pending { pc, mask } => {
                            h.u8(0);
                            h.u32(pc);
                            h.u32(mask);
                        }
                        Frame::Reconv { pc, mask } => {
                            h.u8(1);
                            h.u32(pc);
                            h.u32(mask);
                        }
                    }
                }
                h.u64(w.ready_at);
                h.bool(w.at_barrier);
                h.bool(w.finished);
                h.u64(w.regs.len() as u64);
                for row in &w.regs {
                    for &v in row.iter() {
                        h.u32(v);
                    }
                }
                for lane in 0..LANES {
                    h.u8(w.pred_byte(lane));
                }
                for row in &w.touch {
                    for &t in row.iter() {
                        h.u64(t);
                    }
                }
                // Iterating rows in register order with ascending lanes
                // emits slots pre-sorted in `reg * 32 + lane` order.
                h.u64(u64::from(w.taint_cnt));
                for (r, &tm) in w.taint.iter().enumerate() {
                    lanes!(tm, lane => h.u64((r * LANES + lane) as u64));
                }
            }
        }
        h.u64(self.launch_seq);
        // An always-empty scheduler pointer was hashed here: its `false`
        // keeps digests byte-stable.
        h.bool(false);
        h.u64(self.rr_cursor as u64);
        h.u64(self.instructions);
        h.u64(self.ace_reg_cycles);
        h.bool(self.escaped);
    }

    /// Unobserved fault-flipped state on this core: tainted register slots
    /// plus tainted shared-memory bits of resident CTAs.
    pub fn taint_count(&self) -> u64 {
        self.ctas
            .iter()
            .map(|c| {
                c.smem_taints.len() as u64
                    + c.warps.iter().map(|w| u64::from(w.taint_cnt)).sum::<u64>()
            })
            .sum()
    }

    /// Whether a fault-flipped value on this core has been observed.
    pub fn taint_escaped(&self) -> bool {
        self.escaped
    }

    /// Prepares the core for a kernel whose per-SM CTA residency limit has
    /// been computed by the dispatcher.
    pub fn configure_kernel(&mut self, cta_limit: u32) {
        assert!(self.ctas.is_empty(), "core busy at kernel start");
        debug_assert_eq!(self.cnt_threads, 0);
        debug_assert_eq!(self.cnt_live_warps, 0);
        self.cta_limit = cta_limit;
    }

    /// Whether another CTA of the current kernel fits right now.
    pub fn can_accept_cta(&self, ctx: &KernelCtx<'_>) -> bool {
        (self.ctas.len() as u32) < self.cta_limit
            && self.cnt_threads + ctx.threads_per_cta() <= self.max_threads
    }

    /// Installs CTA `cta_linear` at cycle `now`, initialising shared
    /// memory, warps and registers (parameters preloaded into `R0..`).
    pub fn launch_cta(&mut self, ctx: &KernelCtx<'_>, cta_linear: u64, now: u64) {
        debug_assert!(self.can_accept_cta(ctx));
        let tpc = ctx.threads_per_cta();
        let num_regs = ctx.kernel.num_regs().max(ctx.kernel.num_params()) as usize;
        let rows = num_regs.max(1);
        let warps = (0..ctx.warps_per_cta())
            .map(|w| {
                let mut live = 0u32;
                for lane in 0..LANES as u32 {
                    if w * LANES as u32 + lane < tpc {
                        live |= 1 << lane;
                    }
                }
                let mut regs = vec![[0u32; LANES]; rows];
                for (p, &arg) in ctx.args.iter().enumerate() {
                    regs[p] = [arg; LANES];
                }
                Warp {
                    widx: w,
                    pc: 0,
                    active: live,
                    live,
                    stack: Vec::new(),
                    ready_at: now,
                    at_barrier: false,
                    finished: live == 0,
                    regs,
                    preds: [0; 8],
                    touch: if self.read_trace.is_some() {
                        vec![[now; LANES]; rows]
                    } else {
                        Vec::new()
                    },
                    taint: vec![0; rows],
                    taint_cnt: 0,
                    stuck: Vec::new(),
                }
            })
            .collect::<Vec<_>>();
        let live_warps = warps.iter().filter(|w| !w.finished).count() as u32;
        self.cnt_live_warps += live_warps;
        self.cnt_threads += warps.iter().map(|w| w.live.count_ones()).sum::<u32>();
        if live_warps == 0 {
            self.finished_ctas += 1; // degenerate empty CTA: harvestable
        }
        self.ctas.push(Cta {
            linear: cta_linear,
            seq: self.launch_seq,
            smem: vec![0; ctx.kernel.smem_bytes() as usize],
            warps,
            barrier_arrived: 0,
            live_warps,
            smem_taints: Vec::new(),
            smem_words: 0,
            stuck: Vec::new(),
        });
        self.launch_seq += 1;
    }

    /// Removes completed CTAs and returns how many finished.
    ///
    /// The launch loop calls this every cycle on each SM that holds CTAs.
    pub fn harvest_finished(&mut self) -> u32 {
        if self.finished_ctas == 0 {
            return 0;
        }
        let before = self.ctas.len();
        if self.taint_log.is_on() {
            self.log_harvest();
        }
        self.ctas.retain(|c| c.live_warps > 0);
        self.finished_ctas = 0;
        (before - self.ctas.len()) as u32
    }

    /// Logs the taint of the CTAs about to be harvested: it dies with
    /// them.
    #[cold]
    fn log_harvest(&mut self) {
        let sm = self.id as u32;
        for cta in self.ctas.iter().filter(|c| c.live_warps == 0) {
            for w in &cta.warps {
                for (r, &tm) in w.taint.iter().enumerate() {
                    self.taint_log.regs((sm, cta.seq, w.widx), r, tm);
                }
            }
            if let Some(log) = &mut self.taint_log.0 {
                // One kill per row of 32 words holding a marked word.
                for &b in &cta.smem_taints {
                    let word = (b / 32) as u32;
                    let (seq, lane) = (cta.seq, 1 << (word & 31));
                    let row = Mark::Smem {
                        sm,
                        seq,
                        word: word & !31,
                    };
                    match log.events.last_mut() {
                        Some(Event::Kill { mark, lanes }) if *mark == row => *lanes |= lane,
                        _ => log.events.push(Event::Kill {
                            mark: row,
                            lanes: lane,
                        }),
                    }
                }
            }
        }
    }

    /// Whether the core holds no CTAs.
    pub fn is_idle(&self) -> bool {
        self.ctas.is_empty()
    }

    /// Resident (not-yet-completed) CTA count.
    pub fn resident_ctas(&self) -> u32 {
        self.ctas.len() as u32
    }

    /// Resident live threads.
    pub fn resident_threads(&self) -> u32 {
        self.cnt_threads
    }

    /// Resident live warps (for occupancy).
    pub fn resident_live_warps(&self) -> u32 {
        self.cnt_live_warps
    }

    /// The earliest cycle at which some warp can issue, or `None` when all
    /// warps are blocked on barriers or finished.
    pub fn next_ready(&self) -> Option<u64> {
        self.ctas
            .iter()
            .flat_map(|c| &c.warps)
            .filter(|w| !w.finished && !w.at_barrier)
            .map(|w| w.ready_at)
            .min()
    }

    /// Runs one scheduler cycle: issues at most one instruction.
    ///
    /// Returns `true` if an instruction issued.
    ///
    /// # Errors
    ///
    /// Propagates any [`Trap`] raised by the issued instruction.
    pub fn cycle(
        &mut self,
        now: u64,
        ctx: &KernelCtx<'_>,
        mem: &mut MemSystem,
    ) -> Result<bool, Trap> {
        let Some((slot, widx)) = self.pick_warp(now) else {
            return Ok(false);
        };
        if self.taint_log.is_on() {
            self.exec_logged(slot, widx, now, ctx, mem)?;
        } else {
            self.exec(slot, widx, now, ctx, mem)?;
        }
        self.instructions += 1;
        Ok(true)
    }

    /// Warp selection per the configured policy.
    fn pick_warp(&mut self, now: u64) -> Option<(usize, usize)> {
        match self.policy {
            SchedulerPolicy::Gto => self.pick_gto(now),
            SchedulerPolicy::RoundRobin => self.pick_rr(now),
        }
    }

    /// Oldest issuable warp first.
    ///
    /// CTAs are stored in launch (`seq`) order and warps in `widx` order,
    /// so iteration order *is* the GTO key order `(seq, widx)`: the first
    /// issuable warp found is the oldest and the scan returns early.
    fn pick_gto(&self, now: u64) -> Option<(usize, usize)> {
        for (s, cta) in self.ctas.iter().enumerate() {
            for (w, warp) in cta.warps.iter().enumerate() {
                if warp.issuable(now) {
                    return Some((s, w));
                }
            }
        }
        None
    }

    /// Loose round-robin: the first issuable warp at or after the rotating
    /// cursor over the flattened (CTA slot, warp) order.
    fn pick_rr(&mut self, now: u64) -> Option<(usize, usize)> {
        let total: usize = self.ctas.iter().map(|c| c.warps.len()).sum();
        if total == 0 {
            return None;
        }
        let cursor = self.rr_cursor % total;
        let mut best: Option<(usize, usize, usize)> = None; // (distance, slot, warp)
        let mut g = 0usize;
        for (s, cta) in self.ctas.iter().enumerate() {
            for (w, warp) in cta.warps.iter().enumerate() {
                if warp.issuable(now) {
                    let dist = (g + total - cursor) % total;
                    if best.is_none_or(|(bd, _, _)| dist < bd) {
                        best = Some((dist, s, w));
                    }
                }
                g += 1;
            }
        }
        best.map(|(dist, s, w)| {
            self.rr_cursor = (cursor + dist + 1) % total;
            (s, w)
        })
    }

    /// [`SimtCore::exec`] on a recording core that logs (see
    /// [`TaintLog`]): an instruction that reads or writes a marked slot is
    /// logged with its operands before it executes, and its destination
    /// slots are marked after it where a marked operand can reach them —
    /// a superset of the slots the shadows find a faulty value in, which
    /// the shadows narrow once they have evaluated the instruction.
    #[cold]
    fn exec_logged(
        &mut self,
        slot: usize,
        widx: usize,
        now: u64,
        ctx: &KernelCtx<'_>,
        mem: &mut MemSystem,
    ) -> Result<(), Trap> {
        let spread = ctx
            .uops
            .get(self.ctas[slot].warps[widx].pc as usize)
            .and_then(|u| self.log_exec(slot, widx, u, mem));
        self.exec(slot, widx, now, ctx, mem)?;
        if let Some((u, lanes, words)) = spread {
            self.spread(slot, widx, &u, lanes, &words, mem);
        }
        Ok(())
    }

    /// Logs warp (`slot`, `widx`)'s next instruction `u` if it reads or
    /// writes a marked slot, and returns the marks its execution spreads:
    /// the destination lanes a marked operand or memory word reaches, and
    /// the addresses of the words a marked store value reaches.
    fn log_exec(
        &mut self,
        slot: usize,
        widx: usize,
        u: &Uop,
        mem: &MemSystem,
    ) -> Option<(Uop, u32, Vec<u32>)> {
        let cta = &self.ctas[slot];
        let w = &cta.warps[widx];
        let op = u.op;
        let words_marked = match op {
            UopOp::LdShared | UopOp::StShared => !cta.smem_taints.is_empty(),
            UopOp::LdGlobal | UopOp::StGlobal | UopOp::LdTex => mem.has_word_marks(),
            _ => false,
        };
        let mask = w.executing(u);
        if (w.taint_cnt == 0 && !words_marked) || mask == 0 {
            return None;
        }
        let rows = w.taint.len();
        let taint = |read: bool, r: u8| {
            if read && usize::from(r) < rows {
                w.taint[usize::from(r)] & mask
            } else {
                0
            }
        };
        let marked = [
            taint(lane::reads_a(op), u.a),
            taint(lane::reads_b(op) && !u.b_imm, u.b),
            taint(lane::reads_c(op), u.c),
            taint(u.dst != NO_REG, u.dst),
        ];
        // The byte address of each lane's memory word, and which are marked.
        let addrs = |w: &Warp| {
            let off = u.mem_offset() as u32;
            let a = &w.regs[u.a as usize];
            std::array::from_fn::<u32, LANES, _>(|l| a[l].wrapping_add(off))
        };
        let mut words = 0u32;
        match op {
            UopOp::LdShared | UopOp::StShared if words_marked => {
                let at = addrs(w);
                lanes!(mask, l => if !cta.tainted_word(u64::from(at[l] & !3) * 8).is_empty() {
                    words |= 1 << l;
                });
            }
            UopOp::LdGlobal | UopOp::StGlobal | UopOp::LdTex if words_marked => {
                let at = addrs(w);
                lanes!(mask, l => if mem.word_marked(at[l] / 4) {
                    words |= 1 << l;
                });
            }
            _ => {}
        }
        if marked == [0; 4] && words == 0 {
            return None;
        }
        let row = |read: bool, r: u8| if read { w.regs[r as usize] } else { [0; LANES] };
        let rows = [
            row(lane::reads_a(op), u.a),
            if lane::reads_b(op) {
                w.brow(u)
            } else {
                [0; LANES]
            },
            row(lane::reads_c(op), u.c),
        ];
        let sel = if op == UopOp::Sel {
            w.preds[(u.c & 7) as usize]
        } else {
            0
        };
        let (seq, warp) = (cta.seq, w.widx);
        // A value reaches the destination from a marked operand, or from a
        // marked word for a load; a store carries a marked value to its word.
        let operands = marked[0] | marked[1] | marked[2];
        let (lanes, stored) = match op {
            _ if lane::writes_value(op) => (operands, Vec::new()),
            UopOp::LdShared | UopOp::LdGlobal | UopOp::LdTex => (words, Vec::new()),
            UopOp::StShared | UopOp::StGlobal => {
                let at = addrs(w);
                let mut stored = Vec::new();
                lanes!(marked[2], l => stored.push(at[l]));
                (0, stored)
            }
            _ => (0, Vec::new()),
        };
        if let Some(log) = &mut self.taint_log.0 {
            log.rows.push(rows);
            log.events.push(Event::Exec {
                seq,
                warp,
                uop: *u,
                mask,
                rows: log.rows.len() - 1,
                sel,
                marked,
                words,
            });
        }
        Some((*u, lanes, stored))
    }

    /// Marks what executing `u` on warp (`slot`, `widx`) spread (see
    /// [`SimtCore::log_exec`]): destination lanes `lanes`, and the words
    /// at byte addresses `stored`.
    fn spread(
        &mut self,
        slot: usize,
        widx: usize,
        u: &Uop,
        lanes: u32,
        stored: &[u32],
        mem: &mut MemSystem,
    ) {
        let cta = &mut self.ctas[slot];
        if lanes != 0 {
            let w = &mut cta.warps[widx];
            let t = &mut w.taint[u.dst as usize];
            w.taint_cnt += (lanes & !*t).count_ones();
            *t |= lanes;
        }
        for &a in stored {
            if u.op == UopOp::StShared {
                let lo = u64::from(a & !3) * 8;
                if let Err(i) = cta.smem_taints.binary_search(&lo) {
                    if cta.tainted_word(lo).is_empty() {
                        cta.taint_smem(i, lo);
                    }
                }
            } else {
                mem.set_word_mark(a / 4, true);
            }
        }
    }

    /// Executes one micro-op of warp (`slot`, `widx`).
    fn exec(
        &mut self,
        slot: usize,
        widx: usize,
        now: u64,
        ctx: &KernelCtx<'_>,
        mem: &mut MemSystem,
    ) -> Result<(), Trap> {
        let pc = self.ctas[slot].warps[widx].pc;
        let uop: Uop = *ctx.uops.get(pc as usize).ok_or(Trap::InvalidPc { pc })?;
        let warp = &self.ctas[slot].warps[widx];
        let active = warp.active;
        let exec_mask = warp.executing(&uop);

        // ACE liveness (register file, warps with `touch` rows only): a read
        // extends the enclosing def-to-last-use span; a write starts a new
        // one.  The same pass drives fault liveness: reading a tainted slot
        // makes the flip architecturally observable; a full 32-bit write
        // kills it.
        // Sources are visited in operand order, then the destination; the
        // touched slots are disjoint per lane, so this register-major
        // sweep matches the original lane-major order exactly.
        {
            let trace = self.read_trace.as_deref_mut();
            let warp = &mut self.ctas[slot].warps[widx];
            let rows = warp.taint.len();
            let mut ace = 0u64;
            let mut escape = false;
            let mut trace = if exec_mask != 0 { trace } else { None };
            for &s in &uop.srcs {
                if s == NO_REG {
                    break;
                }
                let r = s as usize;
                if r < rows {
                    if let Some(row) = warp.touch.get_mut(r) {
                        lanes!(exec_mask, lane => {
                            ace += now - row[lane];
                            row[lane] = now;
                        });
                    }
                    escape |= warp.taint[r] & exec_mask != 0;
                    // Stratified-sampling read trace: a fault present at or
                    // before this cycle is observable by this read, so the
                    // register stays live through `now` (stored as now + 1).
                    if let Some(tr) = trace.as_deref_mut() {
                        if r < tr.len() {
                            tr[r] = now + 1;
                        }
                    }
                }
            }
            let warp = &mut self.ctas[slot].warps[widx];
            if uop.dst != NO_REG {
                let r = uop.dst as usize;
                if r < rows {
                    if let Some(row) = warp.touch.get_mut(r) {
                        lanes!(exec_mask, lane => row[lane] = now);
                    }
                    let cleared = warp.taint[r] & exec_mask;
                    if cleared != 0 {
                        warp.taint[r] &= !exec_mask;
                        warp.taint_cnt -= cleared.count_ones();
                    }
                }
            }
            self.ace_reg_cycles += ace;
            self.escaped |= escape;
        }

        let mut next_pc = pc + 1;
        let mut ready_at = now
            + u64::from(match uop.class {
                OpClass::Alu | OpClass::Ctrl => self.lat_alu,
                OpClass::Mul => self.lat_mul,
                OpClass::Sfu => self.lat_sfu,
                OpClass::Barrier => self.lat_alu,
                OpClass::Mem => self.lat_alu, // overwritten below
            });

        match uop.op {
            // ---------------- ALU ----------------
            UopOp::Mov => self.alu(slot, widx, exec_mask, &uop, UopOp::Mov),
            UopOp::S2r => {
                let cta_linear = self.ctas[slot].linear;
                let dims = ctx.dims;
                let w = &mut self.ctas[slot].warps[widx];
                let w32 = w.widx;
                let d = &mut w.regs[uop.dst as usize];
                let tid_base = u64::from(w32) * LANES as u64;
                // Every executing lane must be a thread of the block (a
                // corrupted active mask can name lanes past it); checked on
                // the highest one, as reading its index would.
                if exec_mask != 0 {
                    dims.block
                        .index_at(tid_base + u64::from(31 - exec_mask.leading_zeros()));
                }
                // Launch constants are splatted, the CTA index is
                // resolved once; only the thread index varies by lane.
                let cta = || dims.grid.index_at(cta_linear);
                let sr = uop.special_reg();
                let splat = match sr {
                    SpecialReg::TidX | SpecialReg::TidY | SpecialReg::TidZ | SpecialReg::LaneId => {
                        None
                    }
                    SpecialReg::CtaIdX => Some(cta().x),
                    SpecialReg::CtaIdY => Some(cta().y),
                    SpecialReg::CtaIdZ => Some(cta().z),
                    SpecialReg::NTidX => Some(dims.block.x),
                    SpecialReg::NTidY => Some(dims.block.y),
                    SpecialReg::NTidZ => Some(dims.block.z),
                    SpecialReg::NCtaIdX => Some(dims.grid.x),
                    SpecialReg::NCtaIdY => Some(dims.grid.y),
                    SpecialReg::NCtaIdZ => Some(dims.grid.z),
                    SpecialReg::WarpId => Some(w32),
                };
                match splat {
                    Some(v) => lanes!(exec_mask, lane => d[lane] = v),
                    None if sr == SpecialReg::LaneId => {
                        lanes!(exec_mask, lane => d[lane] = lane as u32)
                    }
                    // The first executing lane's index is resolved, the
                    // next lanes' stepped from it with carries.
                    None if exec_mask != 0 => {
                        let first = exec_mask.trailing_zeros() as usize;
                        let last = 31 - exec_mask.leading_zeros() as usize;
                        let b = dims.block;
                        let mut tid = b.index_at(tid_base + first as u64);
                        for (lane, v) in d.iter_mut().enumerate().take(last + 1).skip(first) {
                            if exec_mask & (1 << lane) != 0 {
                                *v = match sr {
                                    SpecialReg::TidX => tid.x,
                                    SpecialReg::TidY => tid.y,
                                    _ => tid.z,
                                };
                            }
                            tid.x += 1;
                            if tid.x == b.x {
                                tid.x = 0;
                                tid.y += 1;
                                if tid.y == b.y {
                                    tid.y = 0;
                                    tid.z += 1;
                                }
                            }
                        }
                    }
                    None => {}
                }
            }
            UopOp::IAdd => self.alu(slot, widx, exec_mask, &uop, UopOp::IAdd),
            UopOp::ISub => self.alu(slot, widx, exec_mask, &uop, UopOp::ISub),
            UopOp::IMul => self.alu(slot, widx, exec_mask, &uop, UopOp::IMul),
            UopOp::IMin => self.alu(slot, widx, exec_mask, &uop, UopOp::IMin),
            UopOp::IMax => self.alu(slot, widx, exec_mask, &uop, UopOp::IMax),
            UopOp::IMad => self.alu(slot, widx, exec_mask, &uop, UopOp::IMad),
            UopOp::And => self.alu(slot, widx, exec_mask, &uop, UopOp::And),
            UopOp::Or => self.alu(slot, widx, exec_mask, &uop, UopOp::Or),
            UopOp::Xor => self.alu(slot, widx, exec_mask, &uop, UopOp::Xor),
            UopOp::Shl => self.alu(slot, widx, exec_mask, &uop, UopOp::Shl),
            UopOp::Shr => self.alu(slot, widx, exec_mask, &uop, UopOp::Shr),
            UopOp::Sar => self.alu(slot, widx, exec_mask, &uop, UopOp::Sar),
            UopOp::Not => self.alu(slot, widx, exec_mask, &uop, UopOp::Not),
            UopOp::FAdd => self.alu(slot, widx, exec_mask, &uop, UopOp::FAdd),
            UopOp::FSub => self.alu(slot, widx, exec_mask, &uop, UopOp::FSub),
            UopOp::FMul => self.alu(slot, widx, exec_mask, &uop, UopOp::FMul),
            UopOp::FDiv => self.alu(slot, widx, exec_mask, &uop, UopOp::FDiv),
            UopOp::FMin => self.alu(slot, widx, exec_mask, &uop, UopOp::FMin),
            UopOp::FMax => self.alu(slot, widx, exec_mask, &uop, UopOp::FMax),
            UopOp::FFma => self.alu(slot, widx, exec_mask, &uop, UopOp::FFma),
            UopOp::FRcp => self.alu(slot, widx, exec_mask, &uop, UopOp::FRcp),
            UopOp::FSqrt => self.alu(slot, widx, exec_mask, &uop, UopOp::FSqrt),
            UopOp::FEx2 => self.alu(slot, widx, exec_mask, &uop, UopOp::FEx2),
            UopOp::FLg2 => self.alu(slot, widx, exec_mask, &uop, UopOp::FLg2),
            UopOp::FAbs => self.alu(slot, widx, exec_mask, &uop, UopOp::FAbs),
            UopOp::FNeg => self.alu(slot, widx, exec_mask, &uop, UopOp::FNeg),
            UopOp::FFloor => self.alu(slot, widx, exec_mask, &uop, UopOp::FFloor),
            UopOp::I2f => self.alu(slot, widx, exec_mask, &uop, UopOp::I2f),
            UopOp::F2i => self.alu(slot, widx, exec_mask, &uop, UopOp::F2i),
            UopOp::ISetpEq => self.setp(slot, widx, exec_mask, &uop, UopOp::ISetpEq),
            UopOp::ISetpNe => self.setp(slot, widx, exec_mask, &uop, UopOp::ISetpNe),
            UopOp::ISetpLt => self.setp(slot, widx, exec_mask, &uop, UopOp::ISetpLt),
            UopOp::ISetpLe => self.setp(slot, widx, exec_mask, &uop, UopOp::ISetpLe),
            UopOp::ISetpGt => self.setp(slot, widx, exec_mask, &uop, UopOp::ISetpGt),
            UopOp::ISetpGe => self.setp(slot, widx, exec_mask, &uop, UopOp::ISetpGe),
            UopOp::FSetpEq => self.setp(slot, widx, exec_mask, &uop, UopOp::FSetpEq),
            UopOp::FSetpNe => self.setp(slot, widx, exec_mask, &uop, UopOp::FSetpNe),
            UopOp::FSetpLt => self.setp(slot, widx, exec_mask, &uop, UopOp::FSetpLt),
            UopOp::FSetpLe => self.setp(slot, widx, exec_mask, &uop, UopOp::FSetpLe),
            UopOp::FSetpGt => self.setp(slot, widx, exec_mask, &uop, UopOp::FSetpGt),
            UopOp::FSetpGe => self.setp(slot, widx, exec_mask, &uop, UopOp::FSetpGe),
            UopOp::Sel => self.alu(slot, widx, exec_mask, &uop, UopOp::Sel),
            UopOp::Nop => {}

            // ---------------- Control ----------------
            UopOp::Ssy => {
                let warp = &mut self.ctas[slot].warps[widx];
                let mask = warp.active;
                warp.stack.push(Frame::Reconv { pc: uop.imm, mask });
            }
            UopOp::Bra => {
                let warp = &mut self.ctas[slot].warps[widx];
                let taken = exec_mask;
                let not_taken = active & !exec_mask;
                if taken == 0 {
                    // fall through
                } else if not_taken == 0 {
                    next_pc = uop.imm;
                } else {
                    warp.stack.push(Frame::Pending {
                        pc: pc + 1,
                        mask: not_taken,
                    });
                    warp.active = taken;
                    next_pc = uop.imm;
                }
            }
            UopOp::Sync => {
                let warp = &mut self.ctas[slot].warps[widx];
                match warp.stack.pop() {
                    Some(Frame::Pending { pc: p, mask }) => {
                        warp.active = mask;
                        next_pc = p;
                    }
                    Some(Frame::Reconv { pc: p, mask }) => {
                        warp.active = mask;
                        next_pc = p + 1;
                    }
                    // SYNC with an empty stack (possible under corrupted
                    // control flow): treated as a no-op.
                    None => {}
                }
            }
            UopOp::Exit => {
                self.exit_lanes(slot, widx, exec_mask, &mut next_pc, now);
            }
            UopOp::Bar => {
                let cta = &mut self.ctas[slot];
                cta.warps[widx].at_barrier = true;
                cta.warps[widx].pc = next_pc;
                cta.barrier_arrived += 1;
                if cta.barrier_arrived >= cta.live_warps {
                    Self::release_barrier(cta, now + 1);
                }
                // pc already stored; skip the common tail.
                return Ok(());
            }

            // ---------------- Memory ----------------
            UopOp::LdShared | UopOp::StShared => {
                let is_store = uop.op == UopOp::StShared;
                let offset = uop.mem_offset();
                for lane in 0..LANES {
                    if exec_mask & (1 << lane) == 0 {
                        continue;
                    }
                    let warp = &self.ctas[slot].warps[widx];
                    let a = warp.regs[uop.a as usize][lane].wrapping_add(offset as u32);
                    if !a.is_multiple_of(4) {
                        return Err(Trap::Misaligned { addr: a });
                    }
                    // In `u64`: `a + 4` wraps to 0 for `a = 0xFFFF_FFFC`.
                    if u64::from(a) + 4 > self.ctas[slot].smem.len() as u64 {
                        return Err(Trap::SmemOutOfBounds { offset: a });
                    }
                    if is_store {
                        let val = self.ctas[slot].warps[widx].regs[uop.c as usize][lane];
                        self.ctas[slot].smem[a as usize..a as usize + 4]
                            .copy_from_slice(&val.to_le_bytes());
                        // Overwritten bytes no longer diverge.
                        let cta = &mut self.ctas[slot];
                        let word = cta.tainted_word(u64::from(a) * 8);
                        if !word.is_empty() {
                            cta.smem_taints.drain(word);
                        }
                    } else {
                        if !self.ctas[slot].tainted_word(u64::from(a) * 8).is_empty() {
                            self.escaped = true;
                        }
                        let b: [u8; 4] = self.ctas[slot].smem[a as usize..a as usize + 4]
                            .try_into()
                            .expect("4-byte slice");
                        self.ctas[slot].warps[widx].regs[uop.dst as usize][lane] =
                            u32::from_le_bytes(b);
                    }
                }
                ready_at = now + u64::from(self.lat_smem);
            }
            UopOp::LdConst | UopOp::StConst => {
                let is_store = uop.op == UopOp::StConst;
                ready_at = self.const_access(slot, widx, exec_mask, &uop, is_store, now, mem)?;
            }
            UopOp::LdGlobal | UopOp::StGlobal | UopOp::LdLocal | UopOp::StLocal | UopOp::LdTex => {
                let (kind, is_store) = match uop.op {
                    UopOp::LdGlobal => (AccessKind::Global, false),
                    UopOp::StGlobal => (AccessKind::Global, true),
                    UopOp::LdLocal => (AccessKind::Local, false),
                    UopOp::StLocal => (AccessKind::Local, true),
                    _ => (AccessKind::Texture, false),
                };
                ready_at = self.device_mem_access(
                    slot, widx, exec_mask, &uop, kind, is_store, now, ctx, mem,
                )?;
            }
        }

        {
            let warp = &mut self.ctas[slot].warps[widx];
            if !warp.finished && !warp.at_barrier {
                warp.pc = next_pc;
                warp.ready_at = ready_at;
            }
        }
        // A warp that finished via EXIT may unblock a pending barrier.
        let cta = &mut self.ctas[slot];
        if cta.warps[widx].finished && cta.live_warps > 0 && cta.barrier_arrived >= cta.live_warps {
            Self::release_barrier(cta, now + 1);
        }
        Ok(())
    }

    /// Masked data-path row operation: `d[lane]` becomes
    /// [`lane::value`] of the lane's operands, with `b` a register row or
    /// the splatted immediate.  Called with a literal `op`, so inlining
    /// folds the value to its arm and loads only the rows `op` reads.
    #[inline(always)]
    fn alu(&mut self, slot: usize, widx: usize, mask: u32, u: &Uop, op: UopOp) {
        let w = &mut self.ctas[slot].warps[widx];
        let none = [0; LANES];
        let av = if lane::reads_a(op) {
            w.regs[u.a as usize]
        } else {
            none
        };
        let bv = if lane::reads_b(op) { w.brow(u) } else { none };
        let cv = if lane::reads_c(op) {
            w.regs[u.c as usize]
        } else {
            none
        };
        let sel = if op == UopOp::Sel {
            w.preds[(u.c & 7) as usize]
        } else {
            0
        };
        let d = &mut w.regs[u.dst as usize];
        lanes!(mask, lane => {
            d[lane] = lane::value(op, av[lane], bv[lane], cv[lane], sel >> lane & 1 != 0);
        });
    }

    /// Masked compare into the destination predicate lane mask (`u.c`):
    /// each lane's bit is [`lane::pred`] of its operands.
    #[inline(always)]
    fn setp(&mut self, slot: usize, widx: usize, mask: u32, u: &Uop, op: UopOp) {
        let w = &mut self.ctas[slot].warps[widx];
        let av = w.regs[u.a as usize];
        let bv = w.brow(u);
        let mut res = 0u32;
        lanes!(mask, lane => res |= u32::from(lane::pred(op, av[lane], bv[lane])) << lane);
        let pm = &mut w.preds[(u.c & 7) as usize];
        *pm = (*pm & !mask) | res;
    }

    /// Terminates `mask` lanes of a warp, unwinding the SIMT stack when the
    /// current path empties.
    fn exit_lanes(&mut self, slot: usize, widx: usize, mask: u32, next_pc: &mut u32, now: u64) {
        if self.capture_exits && mask != 0 {
            let cta_linear = self.ctas[slot].linear;
            let warp = &self.ctas[slot].warps[widx];
            let num_regs = warp.regs.len();
            let mut captured = Vec::new();
            for lane in 0..LANES {
                if mask & (1 << lane) != 0 {
                    captured.push(ThreadState {
                        cta: cta_linear,
                        tid: warp.widx * LANES as u32 + lane as u32,
                        regs: (0..num_regs).map(|r| warp.regs[r][lane]).collect(),
                        preds: warp.pred_byte(lane),
                    });
                }
            }
            self.exit_log.extend(captured);
        }
        let cta = &mut self.ctas[slot];
        let at = (self.id as u32, cta.seq);
        let warp = &mut cta.warps[widx];
        let dead = mask & warp.live;
        self.cnt_threads -= dead.count_ones();
        warp.live &= !mask;
        warp.active &= !mask;
        warp.retire_lanes(mask, &mut self.taint_log, at);
        for f in &mut warp.stack {
            *f.mask_mut() &= !mask;
        }
        if warp.active != 0 {
            return; // remaining lanes continue at pc+1
        }
        // Unwind: resume the nearest path with surviving lanes.
        while let Some(frame) = warp.stack.pop() {
            match frame {
                Frame::Pending { pc, mask } if mask != 0 => {
                    warp.active = mask;
                    *next_pc = pc;
                    return;
                }
                Frame::Reconv { pc, mask } if mask != 0 => {
                    warp.active = mask;
                    *next_pc = pc + 1;
                    return;
                }
                _ => {}
            }
        }
        // No lanes anywhere: the warp is done.  A corrupted active mask
        // (control faults) can orphan lanes — live but on no path of the
        // stack; they can never issue again, so they retire with the warp
        // and their taints and stuck register cells die with them,
        // keeping the core's thread accounting exact for later launches.
        let orphaned = warp.live;
        if orphaned != 0 {
            self.cnt_threads -= orphaned.count_ones();
            warp.live = 0;
            warp.retire_lanes(orphaned, &mut self.taint_log, at);
        }
        warp.finished = true;
        self.cnt_live_warps -= 1;
        cta.live_warps -= 1;
        if cta.live_warps == 0 {
            self.finished_ctas += 1;
        }
        let _ = now;
    }

    fn release_barrier(cta: &mut Cta, at: u64) {
        cta.barrier_arrived = 0;
        for w in &mut cta.warps {
            if w.at_barrier {
                w.at_barrier = false;
                w.ready_at = at;
            }
        }
    }

    /// Each executing lane of `exec_mask` with its address, register
    /// `uop.a` plus the instruction's offset, in lane order; returns how
    /// many of `out` are filled.
    fn lane_addrs(
        &self,
        slot: usize,
        widx: usize,
        exec_mask: u32,
        uop: &Uop,
        out: &mut [(usize, u32); LANES],
    ) -> usize {
        let base = &self.ctas[slot].warps[widx].regs[uop.a as usize];
        let offset = uop.mem_offset() as u32;
        let mut n = 0usize;
        lanes!(exec_mask, lane => {
            out[n] = (lane, base[lane].wrapping_add(offset));
            n += 1;
        });
        n
    }

    /// Executes a global / local / texture access: computes per-lane
    /// effective addresses, coalesces them into line transactions for the
    /// timing model, then performs the functional 4-byte operations a
    /// line at a time (see [`MemSystem::load_lanes`]).
    #[allow(clippy::too_many_arguments)]
    fn device_mem_access(
        &mut self,
        slot: usize,
        widx: usize,
        exec_mask: u32,
        uop: &Uop,
        kind: AccessKind,
        is_store: bool,
        now: u64,
        ctx: &KernelCtx<'_>,
        mem: &mut MemSystem,
    ) -> Result<u64, Trap> {
        let mut lanes = [(0usize, 0u32); LANES];
        let n = self.lane_addrs(slot, widx, exec_mask, uop, &mut lanes);
        let lanes = &mut lanes[..n];
        if kind == AccessKind::Local {
            let lmem = ctx.kernel.lmem_bytes();
            let tpc = u64::from(ctx.threads_per_cta());
            let first_tid = self.ctas[slot].linear * tpc
                + u64::from(self.ctas[slot].warps[widx].widx) * LANES as u64;
            for (lane, a) in lanes.iter_mut() {
                let base = *a;
                if !base.is_multiple_of(4) {
                    return Err(Trap::Misaligned { addr: base });
                }
                if u64::from(base) + 4 > u64::from(lmem) {
                    return Err(Trap::LmemOutOfBounds { offset: base });
                }
                let tid_global = first_tid + *lane as u64;
                *a = LOCAL_BASE
                    .wrapping_add(((tid_global * u64::from(lmem)) as u32).wrapping_add(base));
            }
        }
        let lanes = &*lanes;
        let floor = now + u64::from(self.lat_alu);
        let done = price_lines(lanes, mem.line_bytes(), floor, |la, i| {
            mem.line_latency(self.id, kind, la, is_store, now + i)
        });
        let w = &mut self.ctas[slot].warps[widx];
        if is_store {
            mem.store_lanes(self.id, kind, lanes, &w.regs[uop.c as usize])?;
        } else {
            mem.load_lanes(self.id, kind, lanes, &mut w.regs[uop.dst as usize])?;
        }
        Ok(done)
    }

    /// Executes a constant-space load through the L1 constant cache
    /// (0-based bank addresses; the constant path is read-only).
    #[allow(clippy::too_many_arguments)]
    fn const_access(
        &mut self,
        slot: usize,
        widx: usize,
        exec_mask: u32,
        uop: &Uop,
        is_store: bool,
        now: u64,
        mem: &mut MemSystem,
    ) -> Result<u64, Trap> {
        if is_store {
            // The constant space is read-only; a (programmatically built)
            // store to it faults like a write to a read-only page.
            return Err(Trap::InvalidAddress { addr: 0 });
        }
        let mut lanes = [(0usize, 0u32); LANES];
        let n = self.lane_addrs(slot, widx, exec_mask, uop, &mut lanes);
        let lanes = &lanes[..n];
        let floor = now + u64::from(self.lat_alu);
        let done = price_lines(lanes, mem.const_line_bytes(), floor, |la, i| {
            mem.const_line_latency(self.id, la, now + i)
        });
        let row = &mut self.ctas[slot].warps[widx].regs[uop.dst as usize];
        mem.load_lanes_const(self.id, lanes, row)?;
        Ok(done)
    }

    // ------------------------------------------------------------------
    // Fault-injection surface
    // ------------------------------------------------------------------

    /// Number of live (created, not yet exited) threads on this core.
    pub fn live_thread_count(&self) -> u64 {
        u64::from(self.cnt_threads)
    }

    /// Number of live warps on this core.
    pub fn live_warp_count(&self) -> u64 {
        u64::from(self.cnt_live_warps)
    }

    /// Number of resident CTAs (for shared-memory targeting).
    pub fn cta_count(&self) -> u64 {
        self.ctas.len() as u64
    }

    /// Sets or clears the taint of `mark` where its CTA is still resident,
    /// flipping no value.
    pub(crate) fn set_mark(&mut self, mark: Mark, on: bool) {
        let seq = match mark {
            Mark::Reg { seq, .. } | Mark::Smem { seq, .. } => seq,
            Mark::Global { .. } => unreachable!("global words are marked in the memory system"),
        };
        let Some(cta) = self.ctas.iter_mut().find(|c| c.seq == seq) else {
            return;
        };
        match mark {
            Mark::Reg {
                warp, reg, lane, ..
            } => {
                let w = &mut cta.warps[warp as usize];
                let bit = 1u32 << lane;
                if on != (w.taint[usize::from(reg)] & bit != 0) {
                    w.taint[usize::from(reg)] ^= bit;
                    if on {
                        w.taint_cnt += 1;
                    } else {
                        w.taint_cnt -= 1;
                    }
                }
            }
            // A word is marked by its first bit.
            Mark::Smem { word, .. } => {
                let lo = u64::from(word) * 32;
                let bits = cta.tainted_word(lo);
                if on && bits.is_empty() {
                    cta.taint_smem(cta.smem_taints.partition_point(|&b| b < lo), lo);
                } else if !on {
                    cta.smem_taints.drain(bits);
                }
            }
            Mark::Global { .. } => {}
        }
    }

    /// Sets the marks of register `reg` of warp `warp` of CTA `seq` in
    /// lanes `lanes` to those of `on`, where the CTA is still resident.
    pub(crate) fn set_reg_marks(&mut self, seq: u64, warp: u32, reg: u8, lanes: u32, on: u32) {
        let Some(cta) = self.ctas.iter_mut().find(|c| c.seq == seq) else {
            return;
        };
        let w = &mut cta.warps[warp as usize];
        let t = &mut w.taint[usize::from(reg)];
        let next = (*t & !lanes) | (on & lanes);
        w.taint_cnt = w.taint_cnt + next.count_ones() - t.count_ones();
        *t = next;
    }

    /// Switches the taint log on or off: while on, the core logs every
    /// instruction that reads or writes a marked slot and every marked
    /// slot an exit or a CTA's end kills (see [`TaintLog`]).
    pub(crate) fn log_taint(&mut self, on: bool) {
        self.taint_log = TaintLog(on.then(Log::default));
    }

    /// Whether the log holds an event.
    #[inline]
    pub(crate) fn logged(&self) -> bool {
        self.taint_log
            .0
            .as_ref()
            .is_some_and(|l| !l.events.is_empty())
    }

    /// Swaps the log filled so far with the empty `buf`, if any was;
    /// whether one was.
    pub(crate) fn swap_taint_log(&mut self, buf: &mut Log) -> bool {
        let log = self.taint_log.0.as_mut().filter(|l| !l.events.is_empty());
        log.map(|log| std::mem::swap(log, buf)).is_some()
    }

    /// Clears every taint and the escape latch: a recording's capture of
    /// a core holding marks is the golden run's state alone.
    pub(crate) fn scrub_taint(&mut self) {
        self.escaped = false;
        for cta in &mut self.ctas {
            cta.smem_taints = Vec::new();
            cta.smem_words = 0;
            for w in &mut cta.warps {
                w.taint.fill(0);
                w.taint_cnt = 0;
            }
        }
    }

    /// Re-pins every armed stuck-at site on this core; O(1) when none are.
    ///
    /// Called once per core cycle *after* issue, so an architectural write
    /// to a stuck location is undone (and the site re-tainted) before any
    /// later instruction can read it — and before the campaign engine's
    /// early-exit probe runs.  Sites of dead entities (exited lanes,
    /// finished warps) stop pinning, which is what makes early exit sound
    /// for permanent faults.
    pub fn enforce_stuck(&mut self) {
        if !self.has_stuck {
            return;
        }
        for cta in &mut self.ctas {
            for i in 0..cta.stuck.len() {
                let (site, set) = cta.stuck[i];
                cta.force(site, Some(set));
            }
            for warp in &mut cta.warps {
                if warp.finished {
                    continue;
                }
                for i in 0..warp.stuck.len() {
                    let (site, set) = warp.stuck[i];
                    warp.force(site, Some(set));
                }
            }
        }
    }

    /// Whether some resident CTA is waiting on a barrier that can never be
    /// released: warps arrived (`barrier_arrived > 0`) while the CTA still
    /// has live warps.  Combined with a no-runnable-warp fixpoint this is
    /// the lost-barrier hang signature of a control-unit fault.
    pub fn lost_barrier(&self) -> bool {
        self.ctas
            .iter()
            .any(|c| c.live_warps > 0 && c.barrier_arrived > 0)
    }
}

/// The bit of `Cta::smem_words` for the shared-memory word at bit `lo`.
#[inline]
fn word_bit(lo: u64) -> u64 {
    1 << ((lo / 32) % 64)
}

/// Index of the `n`-th set bit of `mask` (0-based), if present.
fn set_bit_at(mask: u32, n: u32) -> Option<usize> {
    let mut seen = 0;
    for lane in 0..32 {
        if mask & (1 << lane) != 0 {
            if seen == n {
                return Some(lane);
            }
            seen += 1;
        }
    }
    None
}

/// Prices one transaction per distinct line of `lanes` (`line_bytes`
/// lines), issued back to back in ascending line order: `price(line, i)`
/// for the `i`-th.  Returns the latest completion, at least `floor`.
fn price_lines(
    lanes: &[(usize, u32)],
    line_bytes: u32,
    floor: u64,
    mut price: impl FnMut(u64, u64) -> u64,
) -> u64 {
    let mut lines = [0u64; LANES];
    let mut n = 0;
    for (la, ..) in crate::mem::runs(lanes, line_bytes, |_| true) {
        lines[n] = la;
        n += 1;
    }
    let lines = &mut lines[..n];
    lines.sort_unstable();
    let distinct = lines.chunk_by(|a, b| a == b).zip(0..);
    distinct.fold(floor, |done, (same, i)| done.max(price(same[0], i)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_bit_at_finds_nth() {
        assert_eq!(set_bit_at(0b1010, 0), Some(1));
        assert_eq!(set_bit_at(0b1010, 1), Some(3));
        assert_eq!(set_bit_at(0b1010, 2), None);
        assert_eq!(set_bit_at(u32::MAX, 31), Some(31));
    }

    #[test]
    fn force_bit_toggles_or_pins_and_sites_arm_once() {
        let (mut byte, mut word, mut wide) = (0b0100u8, 0u32, u64::MAX);
        force_bit(&mut byte, 2, None);
        force_bit(&mut byte, 7, None);
        assert_eq!(byte, 0b1000_0000);
        force_bit(&mut word, 31, Some(true));
        force_bit(&mut word, 31, Some(true));
        assert_eq!(word, 1 << 31);
        force_bit(&mut wide, 63, Some(false));
        assert_eq!(wide, u64::MAX >> 1);

        let mut sites = Vec::new();
        arm(&mut sites, CtaSite::Smem { bit: 9 }, None);
        assert!(sites.is_empty(), "a transient flip arms nothing");
        arm(&mut sites, CtaSite::Smem { bit: 9 }, Some(true));
        arm(&mut sites, CtaSite::Smem { bit: 9 }, Some(true));
        arm(&mut sites, CtaSite::BarrierArrived { bit: 9 }, Some(true));
        assert_eq!(sites.len(), 2, "the same cell pinned twice is one site");
    }

    #[test]
    fn lanes_macro_orders_and_masks() {
        let mut seen = Vec::new();
        lanes!(0b1000_0101u32, l => seen.push(l));
        assert_eq!(seen, vec![0, 2, 7]);
        let mut full = Vec::new();
        lanes!(u32::MAX, l => full.push(l));
        assert_eq!(full, (0..LANES).collect::<Vec<_>>());
        let mut none = Vec::new();
        lanes!(0u32, l => none.push(l));
        assert!(none.is_empty());
    }

    #[test]
    fn warps_compare_the_registers_of_live_lanes_only() {
        let module =
            gpufi_isa::Module::assemble(".kernel k\n.params 1\n MOV R1, 0\n EXIT\n").unwrap();
        let kernel = module.kernel("k").unwrap();
        let decoded = gpufi_isa::decode::decode(kernel);
        let ctx = KernelCtx {
            kernel,
            uops: decoded.uops(),
            dims: LaunchDims::new(1, 32),
            args: &[0],
        };
        let mut core = SimtCore::new(0, &GpuConfig::rtx2060());
        core.configure_kernel(1);
        core.launch_cta(&ctx, 0, 0);
        let golden = core.ctas[0].warps[0].clone();
        // Whether a warp of `live` lanes differs from the golden one in a
        // flip of `R1` in `lane`.
        let differs = |live: u32, lane: usize| {
            let (mut g, mut w) = (golden.clone(), golden.clone());
            (g.live, w.live) = (live, live);
            w.regs[1][lane] ^= 1;
            !w.same_state(&g)
        };
        assert!(differs(u32::MAX, 0));
        // Lane 0 exited: its registers are never read again.
        assert!(!differs(u32::MAX - 1, 0));
        assert!(differs(u32::MAX - 1, 1));
    }

    /// Every ALU, `SETP`, `SEL` and `MOV` micro-op, register and
    /// immediate forms: the shadows' per-lane evaluation
    /// ([`crate::shadow::lane_value`], faulty XOR golden) of the operands
    /// a logging core records, with random deltas, equals what `exec`
    /// computes from the faulty operands, over random operands in every
    /// lane.
    #[test]
    fn shadow_lane_deltas_equal_exec() {
        use gpufi_isa::Module;
        let ops = [
            "MOV R7, R5",
            "MOV R7, 1234",
            "IADD R7, R4, R5",
            "ISUB R7, R4, R5",
            "IMUL R7, R4, R5",
            "IMIN R7, R4, R5",
            "IMAX R7, R4, -3",
            "IMAD R7, R4, R5, R6",
            "IMAD R7, R4, 9, R6",
            "AND R7, R4, R5",
            "OR R7, R4, R5",
            "XOR R7, R4, 255",
            "SHL R7, R4, R5",
            "SHR R7, R4, R5",
            "SAR R7, R4, 3",
            "NOT R7, R4",
            "FADD R7, R4, R5",
            "FSUB R7, R4, R5",
            "FMUL R7, R4, R5",
            "FDIV R7, R4, R5",
            "FMIN R7, R4, R5",
            "FMAX R7, R4, R5",
            "FFMA R7, R4, R5, R6",
            "FRCP R7, R4",
            "FSQRT R7, R4",
            "FEX2 R7, R4",
            "FLG2 R7, R4",
            "FABS R7, R4",
            "FNEG R7, R4",
            "FFLOOR R7, R4",
            "I2F R7, R4",
            "F2I R7, R4",
            "ISETP.EQ P0, R4, R5",
            "ISETP.NE P0, R4, R5",
            "ISETP.LT P0, R4, R5",
            "ISETP.LE P0, R4, 7",
            "ISETP.GT P0, R4, R5",
            "ISETP.GE P0, R4, R5",
            "FSETP.EQ P0, R4, R5",
            "FSETP.NE P0, R4, R5",
            "FSETP.LT P0, R4, R5",
            "FSETP.LE P0, R4, R5",
            "FSETP.GT P0, R4, R5",
            "FSETP.GE P0, R4, R5",
            "SEL R7, R4, R5, P1",
            "SEL R7, R4, 77, P1",
        ];
        let card = GpuConfig::rtx2060();
        let mut rng = crate::rng::Rng::new(49);
        let word = |rng: &mut crate::rng::Rng| {
            // Small values, whole-range ones and float-like ones, so that
            // comparisons and conversions see both outcomes.
            match rng.below(3) {
                0 => rng.below(16) as u32,
                1 => rng.next_u64() as u32,
                _ => (rng.below(200) as f32 - 100.0).to_bits(),
            }
        };
        let mut seen = std::collections::HashSet::new();
        for line in ops {
            // The dead tail allocates R4-R7 for every op.
            let src = format!(".kernel k\n.params 1\n {line}\n EXIT\n IMAD R7, R4, R5, R6\n");
            let module = Module::assemble(&src).unwrap();
            let kernel = module.kernel("k").unwrap();
            let decoded = gpufi_isa::decode::decode(kernel);
            let ctx = KernelCtx {
                kernel,
                uops: decoded.uops(),
                dims: LaunchDims::new(1, 32),
                args: &[0],
            };
            let op = decoded.uops()[0].op;
            seen.insert(format!("{op:?}"));
            for _ in 0..8 {
                let rows: [[u32; LANES]; 3] =
                    std::array::from_fn(|_| std::array::from_fn(|_| word(&mut rng)));
                let delta: [[u32; LANES]; 3] = std::array::from_fn(|_| {
                    std::array::from_fn(|_| match rng.below(3) {
                        0 => 0,
                        1 => 1 << rng.below(32),
                        _ => rng.next_u64() as u32,
                    })
                });
                let p1 = rng.next_u64() as u32;
                // Runs the op on one warp whose R4-R6 hold `regs`; returns
                // R7 and P0, and what a logging core logged.
                let run = |regs: [[u32; LANES]; 3], log: bool| {
                    let mut mem = MemSystem::new(&card);
                    let mut core = SimtCore::new(0, &card);
                    core.configure_kernel(1);
                    core.launch_cta(&ctx, 0, 0);
                    let w = &mut core.ctas[0].warps[0];
                    w.regs[4..7].copy_from_slice(&regs);
                    w.preds[1] = p1;
                    if log {
                        core.log_taint(true);
                        let w = &mut core.ctas[0].warps[0];
                        w.taint[4..7].fill(u32::MAX);
                        w.taint_cnt = 3 * 32;
                    }
                    core.cycle(0, &ctx, &mut mem).unwrap();
                    let mut log = Log::default();
                    core.swap_taint_log(&mut log);
                    let w = &core.ctas[0].warps[0];
                    (w.regs[7], w.preds[0], log)
                };
                let (g7, gp, log) = run(rows, true);
                let faulty =
                    std::array::from_fn(|i| std::array::from_fn(|l| rows[i][l] ^ delta[i][l]));
                let (f7, fp, _) = run(faulty, false);
                if log.events.is_empty() {
                    // An op of immediates alone reads no marked slot.
                    assert_eq!((g7, gp), (f7, fp), "{line}");
                    continue;
                }
                let [Event::Exec {
                    uop,
                    mask,
                    rows,
                    sel,
                    marked,
                    ..
                }] = log.events.as_slice()
                else {
                    panic!("{line}: logged {log:?}");
                };
                let logged = &log.rows[*rows];
                assert_eq!(*mask, u32::MAX, "{line}");
                for l in 0..LANES {
                    // The deltas of the operands the op reads, as marked.
                    let d = std::array::from_fn(|i| delta[i][l] * (marked[i] >> l & 1));
                    let value = |d| crate::shadow::lane_value(uop.op, logged, d, *sel, l);
                    let shadow = value([0; 3]) ^ value(d);
                    let exec = if lane::is_setp(uop.op) {
                        (gp ^ fp) >> l & 1
                    } else {
                        g7[l] ^ f7[l]
                    };
                    assert_eq!(shadow, exec, "{line} lane {l}: {rows:?} {delta:?}");
                }
            }
        }
        assert_eq!(seen.len(), 43, "every data-path op: {seen:?}");
    }
}
