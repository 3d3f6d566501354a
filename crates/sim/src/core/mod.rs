//! The SIMT core (streaming multiprocessor) model.
//!
//! Each core holds a set of resident CTAs; each CTA owns its shared-memory
//! instance and its warps; each warp owns a program counter, an active
//! mask, a SIMT reconvergence stack, and the registers of its 32 threads.
//!
//! Scheduling is greedy-then-oldest (GTO): the core keeps issuing from the
//! last warp until it stalls, then falls back to the oldest ready warp.
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
use crate::fault::{Scope, SCHED_ENTRY_BITS, SCOREBOARD_ENTRY_BITS, SIMT_STACK_ENTRY_BITS};
use crate::grid::LaunchDims;
use crate::mem::{AccessKind, MemSystem, LOCAL_BASE};
use crate::oracle::ThreadState;
use gpufi_isa::decode::{Uop, UopOp, GUARD_NEGATE, NO_GUARD, NO_REG};
use gpufi_isa::semantics as exec;
use gpufi_isa::{BitOp, FloatOp, FloatUnOp, IntOp, Kernel, OpClass, SpecialReg};

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
enum WarpSite {
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
enum CtaSite {
    /// Shared-memory bit `bit`.
    Smem { bit: u64 },
    /// Bit `bit` of the CTA `barrier_arrived` counter.
    BarrierArrived { bit: u8 },
}

/// One warp's architectural and microarchitectural state, stored
/// structure-of-arrays: registers and ACE timestamps are per-register
/// 32-lane rows, predicates and taints are lane bitmasks.
#[derive(Debug, Clone)]
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
    /// as `regs`.
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

impl Warp {
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
    fn retire_lanes(&mut self, lanes: u32) {
        if self.taint_cnt > 0 {
            for tm in &mut self.taint {
                let killed = *tm & lanes;
                if killed != 0 {
                    *tm &= !lanes;
                    self.taint_cnt -= killed.count_ones();
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
#[derive(Debug, Clone)]
struct Cta {
    /// Linear CTA index within the grid.
    linear: u64,
    /// Launch sequence number (for GTO age ordering).
    seq: u64,
    smem: Vec<u8>,
    warps: Vec<Warp>,
    barrier_arrived: u32,
    live_warps: u32,
    /// Fault-flipped shared-memory bit indices not yet observed by a load.
    smem_taints: Vec<u64>,
    /// Permanently stuck bits resident in this CTA (see [`Warp::stuck`]).
    stuck: Vec<(CtaSite, bool)>,
}

impl Cta {
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
                match (self.smem_taints.iter().position(|&b| b == bit), stuck) {
                    (None, _) => self.smem_taints.push(bit),
                    (Some(i), None) => {
                        self.smem_taints.swap_remove(i);
                    }
                    (Some(_), Some(_)) => {}
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

/// Identifies a warp for fault-injection bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarpHandle {
    /// SM index.
    pub sm: usize,
    /// Resident-CTA slot within the SM.
    pub cta_slot: usize,
    /// Warp index within the CTA.
    pub warp: usize,
}

/// Checkpoint-budget accounting constants: the per-struct byte estimates
/// are pinned to the original array-of-structures sizes so `Recorder`
/// budget striding (and therefore *which* checkpoints survive a byte
/// budget) never shifts across internal storage refactors — forked-run
/// CSVs stay byte-identical.
const CORE_ACCT_BYTES: usize = 144;
const CTA_ACCT_BYTES: usize = 96;
const WARP_ACCT_BYTES: usize = 160;
const FRAME_ACCT_BYTES: usize = 12;

/// A streaming multiprocessor.
/// `Clone` is the checkpoint mechanism: every field is cloned wholesale so
/// a snapshot can never silently omit state (see `crate::snapshot`).
#[derive(Debug, Clone)]
pub struct SimtCore {
    id: usize,
    max_threads: u32,
    ctas: Vec<Cta>,
    cta_limit: u32,
    launch_seq: u64,
    last: Option<(usize, usize)>,
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
    /// instrumentation, not architectural state.
    read_trace: Option<Vec<u64>>,
}

impl SimtCore {
    /// Creates an idle core for the given chip configuration.
    pub fn new(id: usize, cfg: &GpuConfig) -> Self {
        SimtCore {
            id,
            max_threads: cfg.max_threads_per_sm,
            ctas: Vec::new(),
            cta_limit: 0,
            launch_seq: 0,
            last: None,
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
        }
    }

    /// Arms (or disarms, with `None`) the per-register read trace for the
    /// next launch: `Some(num_regs)` resets the trace to `num_regs` zeroed
    /// slots.  See the `read_trace` field docs for the recorded semantics.
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
    /// friends) so recorder budgets stride identically across layouts.
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
                                    + w.touch.len() * LANES * 8
                                    + w.taint_cnt as usize * 8
                                    + w.stack.len() * FRAME_ACCT_BYTES
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
    /// the digest is invariant under internal storage refactors.  The
    /// derived residency counters are excluded (they are recomputable).
    pub(crate) fn digest_into(&self, h: &mut crate::snapshot::StateHasher) {
        h.u64(self.id as u64);
        h.u64(self.ctas.len() as u64);
        for cta in &self.ctas {
            h.u64(cta.linear);
            h.u64(cta.seq);
            h.u64(cta.smem.len() as u64);
            h.bytes(&cta.smem);
            let mut smem_taints = cta.smem_taints.clone();
            smem_taints.sort_unstable();
            h.u64(smem_taints.len() as u64);
            for b in smem_taints {
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
        match self.last {
            None => h.bool(false),
            Some((s, w)) => {
                h.bool(true);
                h.u64(s as u64);
                h.u64(w as u64);
            }
        }
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
        self.last = None;
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
                    touch: vec![[now; LANES]; rows],
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
            stuck: Vec::new(),
        });
        self.launch_seq += 1;
    }

    /// Removes completed CTAs and returns how many finished.
    ///
    /// The greedy GTO pointer is dropped unconditionally — even on the
    /// fast no-op path — preserving the scheduler's exact historical
    /// behaviour of re-deriving its pick every dispatch round.
    pub fn harvest_finished(&mut self) -> u32 {
        self.last = None; // slots may move; drop the greedy pointer
        if self.finished_ctas == 0 {
            return 0;
        }
        let before = self.ctas.len();
        self.ctas.retain(|c| c.live_warps > 0);
        self.finished_ctas = 0;
        (before - self.ctas.len()) as u32
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
        self.last = Some((slot, widx));
        self.exec(slot, widx, now, ctx, mem)?;
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

    /// Greedy-then-oldest: keep issuing the last warp, else the oldest.
    ///
    /// CTAs are stored in launch (`seq`) order and warps in `widx` order,
    /// so iteration order *is* the GTO key order `(seq, widx)`: the first
    /// issuable warp found is the oldest and the scan returns early.
    fn pick_gto(&self, now: u64) -> Option<(usize, usize)> {
        if let Some((s, w)) = self.last {
            if let Some(cta) = self.ctas.get(s) {
                if cta.warps.get(w).is_some_and(|warp| warp.issuable(now)) {
                    return Some((s, w));
                }
            }
        }
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

        // Guard evaluation: one AND against the predicate lane mask.
        let warp = &self.ctas[slot].warps[widx];
        let active = warp.active;
        let exec_mask = if uop.guard == NO_GUARD {
            active
        } else {
            let pm = warp.preds[(uop.guard & 7) as usize];
            active
                & if uop.guard & GUARD_NEGATE != 0 {
                    !pm
                } else {
                    pm
                }
        };

        // ACE liveness (register file): a read extends the enclosing
        // def-to-last-use span; a write starts a new one.  The same pass
        // drives fault liveness: reading a tainted slot makes the flip
        // architecturally observable; a full 32-bit write kills it.
        // Sources are visited in operand order, then the destination; the
        // touched slots are disjoint per lane, so this register-major
        // sweep matches the original lane-major order exactly.
        {
            let trace = self.read_trace.as_deref_mut();
            let warp = &mut self.ctas[slot].warps[widx];
            let rows = warp.touch.len();
            let mut ace = 0u64;
            let mut escape = false;
            let mut trace = if exec_mask != 0 { trace } else { None };
            for &s in &uop.srcs {
                if s == NO_REG {
                    break;
                }
                let r = s as usize;
                if r < rows {
                    let row = &mut warp.touch[r];
                    lanes!(exec_mask, lane => {
                        ace += now - row[lane];
                        row[lane] = now;
                    });
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
            if uop.dst != NO_REG {
                let r = uop.dst as usize;
                if r < rows {
                    let row = &mut warp.touch[r];
                    lanes!(exec_mask, lane => row[lane] = now);
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
            UopOp::Mov => {
                let w = &mut self.ctas[slot].warps[widx];
                let bv = w.brow(&uop);
                let d = &mut w.regs[uop.dst as usize];
                lanes!(exec_mask, lane => d[lane] = bv[lane]);
            }
            UopOp::S2r => {
                let cta_linear = self.ctas[slot].linear;
                let dims = ctx.dims;
                let sr = uop.special_reg();
                let w = &mut self.ctas[slot].warps[widx];
                let w32 = w.widx;
                let d = &mut w.regs[uop.dst as usize];
                lanes!(exec_mask, lane => {
                    let tid_linear = u64::from(w32) * LANES as u64 + lane as u64;
                    let tid = dims.block.index_at(tid_linear);
                    let cta = dims.grid.index_at(cta_linear);
                    d[lane] = match sr {
                        SpecialReg::TidX => tid.x,
                        SpecialReg::TidY => tid.y,
                        SpecialReg::TidZ => tid.z,
                        SpecialReg::CtaIdX => cta.x,
                        SpecialReg::CtaIdY => cta.y,
                        SpecialReg::CtaIdZ => cta.z,
                        SpecialReg::NTidX => dims.block.x,
                        SpecialReg::NTidY => dims.block.y,
                        SpecialReg::NTidZ => dims.block.z,
                        SpecialReg::NCtaIdX => dims.grid.x,
                        SpecialReg::NCtaIdY => dims.grid.y,
                        SpecialReg::NCtaIdZ => dims.grid.z,
                        SpecialReg::LaneId => lane as u32,
                        SpecialReg::WarpId => w32,
                    };
                });
            }
            UopOp::IAdd => self.alu2(slot, widx, exec_mask, &uop, |a, b| {
                exec::int_op(IntOp::Add, a, b)
            }),
            UopOp::ISub => self.alu2(slot, widx, exec_mask, &uop, |a, b| {
                exec::int_op(IntOp::Sub, a, b)
            }),
            UopOp::IMul => self.alu2(slot, widx, exec_mask, &uop, |a, b| {
                exec::int_op(IntOp::Mul, a, b)
            }),
            UopOp::IMin => self.alu2(slot, widx, exec_mask, &uop, |a, b| {
                exec::int_op(IntOp::Min, a, b)
            }),
            UopOp::IMax => self.alu2(slot, widx, exec_mask, &uop, |a, b| {
                exec::int_op(IntOp::Max, a, b)
            }),
            UopOp::IMad => self.alu3(slot, widx, exec_mask, &uop, exec::imad),
            UopOp::And => self.alu2(slot, widx, exec_mask, &uop, |a, b| {
                exec::bit_op(BitOp::And, a, b)
            }),
            UopOp::Or => self.alu2(slot, widx, exec_mask, &uop, |a, b| {
                exec::bit_op(BitOp::Or, a, b)
            }),
            UopOp::Xor => self.alu2(slot, widx, exec_mask, &uop, |a, b| {
                exec::bit_op(BitOp::Xor, a, b)
            }),
            UopOp::Shl => self.alu2(slot, widx, exec_mask, &uop, |a, b| {
                exec::bit_op(BitOp::Shl, a, b)
            }),
            UopOp::Shr => self.alu2(slot, widx, exec_mask, &uop, |a, b| {
                exec::bit_op(BitOp::Shr, a, b)
            }),
            UopOp::Sar => self.alu2(slot, widx, exec_mask, &uop, |a, b| {
                exec::bit_op(BitOp::Sar, a, b)
            }),
            UopOp::Not => self.alu1(slot, widx, exec_mask, &uop, |a| !a),
            UopOp::FAdd => self.alu2(slot, widx, exec_mask, &uop, |a, b| {
                exec::float_op(FloatOp::Add, a, b)
            }),
            UopOp::FSub => self.alu2(slot, widx, exec_mask, &uop, |a, b| {
                exec::float_op(FloatOp::Sub, a, b)
            }),
            UopOp::FMul => self.alu2(slot, widx, exec_mask, &uop, |a, b| {
                exec::float_op(FloatOp::Mul, a, b)
            }),
            UopOp::FDiv => self.alu2(slot, widx, exec_mask, &uop, |a, b| {
                exec::float_op(FloatOp::Div, a, b)
            }),
            UopOp::FMin => self.alu2(slot, widx, exec_mask, &uop, |a, b| {
                exec::float_op(FloatOp::Min, a, b)
            }),
            UopOp::FMax => self.alu2(slot, widx, exec_mask, &uop, |a, b| {
                exec::float_op(FloatOp::Max, a, b)
            }),
            UopOp::FFma => self.alu3(slot, widx, exec_mask, &uop, exec::ffma),
            UopOp::FRcp => self.alu1(slot, widx, exec_mask, &uop, |a| {
                exec::float_un(FloatUnOp::Rcp, a)
            }),
            UopOp::FSqrt => self.alu1(slot, widx, exec_mask, &uop, |a| {
                exec::float_un(FloatUnOp::Sqrt, a)
            }),
            UopOp::FEx2 => self.alu1(slot, widx, exec_mask, &uop, |a| {
                exec::float_un(FloatUnOp::Ex2, a)
            }),
            UopOp::FLg2 => self.alu1(slot, widx, exec_mask, &uop, |a| {
                exec::float_un(FloatUnOp::Lg2, a)
            }),
            UopOp::FAbs => self.alu1(slot, widx, exec_mask, &uop, |a| {
                exec::float_un(FloatUnOp::Abs, a)
            }),
            UopOp::FNeg => self.alu1(slot, widx, exec_mask, &uop, |a| {
                exec::float_un(FloatUnOp::Neg, a)
            }),
            UopOp::FFloor => self.alu1(slot, widx, exec_mask, &uop, |a| {
                exec::float_un(FloatUnOp::Floor, a)
            }),
            UopOp::I2f => self.alu1(slot, widx, exec_mask, &uop, exec::i2f),
            UopOp::F2i => self.alu1(slot, widx, exec_mask, &uop, exec::f2i),
            UopOp::ISetpEq => self.setp(slot, widx, exec_mask, &uop, |a, b| a as i32 == b as i32),
            UopOp::ISetpNe => self.setp(slot, widx, exec_mask, &uop, |a, b| a as i32 != b as i32),
            UopOp::ISetpLt => {
                self.setp(slot, widx, exec_mask, &uop, |a, b| (a as i32) < (b as i32));
            }
            UopOp::ISetpLe => self.setp(slot, widx, exec_mask, &uop, |a, b| a as i32 <= b as i32),
            UopOp::ISetpGt => {
                self.setp(slot, widx, exec_mask, &uop, |a, b| (a as i32) > (b as i32));
            }
            UopOp::ISetpGe => self.setp(slot, widx, exec_mask, &uop, |a, b| a as i32 >= b as i32),
            UopOp::FSetpEq => self.setp(slot, widx, exec_mask, &uop, |a, b| {
                f32::from_bits(a) == f32::from_bits(b)
            }),
            UopOp::FSetpNe => self.setp(slot, widx, exec_mask, &uop, |a, b| {
                f32::from_bits(a) != f32::from_bits(b)
            }),
            UopOp::FSetpLt => self.setp(slot, widx, exec_mask, &uop, |a, b| {
                f32::from_bits(a) < f32::from_bits(b)
            }),
            UopOp::FSetpLe => self.setp(slot, widx, exec_mask, &uop, |a, b| {
                f32::from_bits(a) <= f32::from_bits(b)
            }),
            UopOp::FSetpGt => self.setp(slot, widx, exec_mask, &uop, |a, b| {
                f32::from_bits(a) > f32::from_bits(b)
            }),
            UopOp::FSetpGe => self.setp(slot, widx, exec_mask, &uop, |a, b| {
                f32::from_bits(a) >= f32::from_bits(b)
            }),
            UopOp::Sel => {
                let w = &mut self.ctas[slot].warps[widx];
                let av = w.regs[uop.a as usize];
                let bv = w.brow(&uop);
                let pm = w.preds[(uop.c & 7) as usize];
                let d = &mut w.regs[uop.dst as usize];
                lanes!(exec_mask, lane => {
                    d[lane] = if pm & (1 << lane) != 0 { av[lane] } else { bv[lane] };
                });
            }
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
                    let smem_len = self.ctas[slot].smem.len() as u32;
                    if !a.is_multiple_of(4) {
                        return Err(Trap::Misaligned { addr: a });
                    }
                    if a + 4 > smem_len {
                        return Err(Trap::SmemOutOfBounds { offset: a });
                    }
                    if is_store {
                        let val = self.ctas[slot].warps[widx].regs[uop.c as usize][lane];
                        self.ctas[slot].smem[a as usize..a as usize + 4]
                            .copy_from_slice(&val.to_le_bytes());
                        // Overwritten bytes no longer diverge.
                        let lo = u64::from(a) * 8;
                        self.ctas[slot]
                            .smem_taints
                            .retain(|&b| b < lo || b >= lo + 32);
                    } else {
                        let lo = u64::from(a) * 8;
                        if self.ctas[slot]
                            .smem_taints
                            .iter()
                            .any(|&b| b >= lo && b < lo + 32)
                        {
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

    /// Masked unary ALU row operation: `d[lane] = f(a[lane])`.
    #[inline]
    fn alu1(&mut self, slot: usize, widx: usize, mask: u32, u: &Uop, f: impl Fn(u32) -> u32) {
        let w = &mut self.ctas[slot].warps[widx];
        let av = w.regs[u.a as usize];
        let d = &mut w.regs[u.dst as usize];
        lanes!(mask, lane => d[lane] = f(av[lane]));
    }

    /// Masked binary ALU row operation: `d[lane] = f(a[lane], b[lane])`
    /// with `b` a register row or splatted immediate.
    #[inline]
    fn alu2(&mut self, slot: usize, widx: usize, mask: u32, u: &Uop, f: impl Fn(u32, u32) -> u32) {
        let w = &mut self.ctas[slot].warps[widx];
        let av = w.regs[u.a as usize];
        let bv = w.brow(u);
        let d = &mut w.regs[u.dst as usize];
        lanes!(mask, lane => d[lane] = f(av[lane], bv[lane]));
    }

    /// Masked ternary ALU row operation (`IMAD` / `FFMA`).
    #[inline]
    fn alu3(
        &mut self,
        slot: usize,
        widx: usize,
        mask: u32,
        u: &Uop,
        f: impl Fn(u32, u32, u32) -> u32,
    ) {
        let w = &mut self.ctas[slot].warps[widx];
        let av = w.regs[u.a as usize];
        let bv = w.brow(u);
        let cv = w.regs[u.c as usize];
        let d = &mut w.regs[u.dst as usize];
        lanes!(mask, lane => d[lane] = f(av[lane], bv[lane], cv[lane]));
    }

    /// Masked compare into the destination predicate lane mask (`u.c`).
    #[inline]
    fn setp(&mut self, slot: usize, widx: usize, mask: u32, u: &Uop, f: impl Fn(u32, u32) -> bool) {
        let w = &mut self.ctas[slot].warps[widx];
        let av = w.regs[u.a as usize];
        let bv = w.brow(u);
        let mut res = 0u32;
        lanes!(mask, lane => res |= u32::from(f(av[lane], bv[lane])) << lane);
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
        let warp = &mut cta.warps[widx];
        let dead = mask & warp.live;
        self.cnt_threads -= dead.count_ones();
        warp.live &= !mask;
        warp.active &= !mask;
        warp.retire_lanes(mask);
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
            warp.retire_lanes(orphaned);
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

    /// Executes a global / local / texture access: computes per-lane
    /// effective addresses, coalesces them into line transactions for the
    /// timing model, then performs the functional 4-byte operations.
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
        let offset = uop.mem_offset();
        let lmem = ctx.kernel.lmem_bytes();
        let tpc = u64::from(ctx.threads_per_cta());
        let cta_linear = self.ctas[slot].linear;
        let w32 = u64::from(self.ctas[slot].warps[widx].widx);

        // Effective addresses (fixed scratch; no per-access allocation).
        let mut lanes = [(0usize, 0u32); LANES];
        let mut n = 0usize;
        for lane in 0..LANES {
            if exec_mask & (1 << lane) == 0 {
                continue;
            }
            let base =
                self.ctas[slot].warps[widx].regs[uop.a as usize][lane].wrapping_add(offset as u32);
            let eff = if kind == AccessKind::Local {
                if !base.is_multiple_of(4) {
                    return Err(Trap::Misaligned { addr: base });
                }
                if base + 4 > lmem {
                    return Err(Trap::LmemOutOfBounds { offset: base });
                }
                let tid_global = cta_linear * tpc + w32 * LANES as u64 + lane as u64;
                LOCAL_BASE.wrapping_add((tid_global * u64::from(lmem)) as u32 + base)
            } else {
                base
            };
            lanes[n] = (lane, eff);
            n += 1;
        }
        let lanes = &lanes[..n];

        // Timing: one transaction per unique line, issued back to back.
        let line = u64::from(mem.line_bytes());
        let mut lines = [0u64; LANES];
        for (i, &(_, a)) in lanes.iter().enumerate() {
            lines[i] = u64::from(a) / line;
        }
        let lines = &mut lines[..n];
        lines.sort_unstable();
        let mut done = now + u64::from(self.lat_alu);
        let mut prev = None;
        let mut i = 0usize;
        for &la in lines.iter() {
            if prev == Some(la) {
                continue;
            }
            prev = Some(la);
            let t = mem.line_latency(self.id, kind, la, is_store, now + i as u64);
            done = done.max(t);
            i += 1;
        }

        // Function: per-lane 4-byte operations.
        let (data_reg, dst_reg) = (uop.c as usize, uop.dst as usize);
        for &(lane, eff) in lanes {
            if is_store {
                let v = self.ctas[slot].warps[widx].regs[data_reg][lane];
                mem.store4(self.id, kind, eff, v)?;
            } else {
                let v = mem.load4(self.id, kind, eff)?;
                self.ctas[slot].warps[widx].regs[dst_reg][lane] = v;
            }
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
        let offset = uop.mem_offset();
        let mut lanes = [(0usize, 0u32); LANES];
        let mut n = 0usize;
        for lane in 0..LANES {
            if exec_mask & (1 << lane) != 0 {
                let a = self.ctas[slot].warps[widx].regs[uop.a as usize][lane]
                    .wrapping_add(offset as u32);
                lanes[n] = (lane, a);
                n += 1;
            }
        }
        let lanes = &lanes[..n];
        let line = u64::from(mem.const_line_bytes());
        let mut line_addrs = [0u64; LANES];
        for (i, &(_, a)) in lanes.iter().enumerate() {
            line_addrs[i] = u64::from(a) / line;
        }
        let line_addrs = &mut line_addrs[..n];
        line_addrs.sort_unstable();
        let mut done = now + u64::from(self.lat_alu);
        let mut prev = None;
        let mut i = 0usize;
        for &la in line_addrs.iter() {
            if prev == Some(la) {
                continue;
            }
            prev = Some(la);
            done = done.max(mem.const_line_latency(self.id, la, now + i as u64));
            i += 1;
        }
        let dst = uop.dst as usize;
        for &(lane, a) in lanes {
            let v = mem.load4_const(self.id, a)?;
            self.ctas[slot].warps[widx].regs[dst][lane] = v;
        }
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

    fn handle(&self, cta_slot: usize, warp: usize) -> WarpHandle {
        WarpHandle {
            sm: self.id,
            cta_slot,
            warp,
        }
    }

    /// Resident-slot coordinates of the `n`-th live (not finished) warp.
    fn nth_live_warp(&self, n: u64) -> Option<(usize, usize)> {
        let mut remaining = n;
        for (s, cta) in self.ctas.iter().enumerate() {
            for (wi, warp) in cta.warps.iter().enumerate() {
                if warp.finished {
                    continue;
                }
                if remaining == 0 {
                    return Some((s, wi));
                }
                remaining -= 1;
            }
        }
        None
    }

    /// Resident-slot coordinates and lane of the `n`-th live thread.
    fn nth_live_thread(&self, n: u64) -> Option<(usize, usize, usize)> {
        let mut remaining = n;
        for (s, cta) in self.ctas.iter().enumerate() {
            for (wi, warp) in cta.warps.iter().enumerate() {
                let cnt = u64::from(warp.live.count_ones());
                if remaining < cnt {
                    return Some((s, wi, set_bit_at(warp.live, remaining as u32)?));
                }
                remaining -= cnt;
            }
        }
        None
    }

    /// Corrupts `bits` of register `reg` in the `n`-th live thread, or in
    /// every live lane of the `n`-th live warp (the paper's warp-scope
    /// register injection): `stuck = None` flips them once (transient);
    /// `Some(v)` forces them to `v` and arms the cells for per-cycle
    /// re-pinning.
    ///
    /// Returns the handle of the affected warp, or `None` when `n` exceeds
    /// the live population or the register is out of the kernel's
    /// allocation.
    pub fn flip_reg(
        &mut self,
        scope: Scope,
        n: u64,
        reg: u32,
        bits: &[u8],
        stuck: Option<bool>,
    ) -> Option<WarpHandle> {
        let (s, wi, lanes) = match scope {
            Scope::Thread => {
                let (s, wi, lane) = self.nth_live_thread(n)?;
                (s, wi, 1 << lane)
            }
            Scope::Warp => {
                let (s, wi) = self.nth_live_warp(n)?;
                (s, wi, self.ctas[s].warps[wi].live)
            }
        };
        let warp = &mut self.ctas[s].warps[wi];
        if reg as usize >= warp.regs.len() {
            return None;
        }
        for &b in bits {
            let site = WarpSite::Reg {
                lanes,
                reg: reg as u16,
                bit: b % 32,
            };
            warp.corrupt(site, stuck);
        }
        self.has_stuck |= stuck.is_some();
        Some(self.handle(s, wi))
    }

    /// Corrupts bit `bit` of the `n`-th resident CTA's shared-memory
    /// instance; `stuck` as in [`SimtCore::flip_reg`].
    ///
    /// Returns `false` when the CTA or bit is out of range.
    pub fn flip_cta_smem(&mut self, n: u64, bit: u64, stuck: Option<bool>) -> bool {
        let Some(cta) = self.ctas.get_mut(n as usize) else {
            return false;
        };
        let hit = cta.corrupt(CtaSite::Smem { bit }, stuck);
        self.has_stuck |= hit && stuck.is_some();
        hit
    }

    /// Bookkeeping shared by the control-unit sites: control state is read
    /// by the scheduler every cycle, so the corruption counts as observed
    /// immediately (no early exit).
    fn control_hit(&mut self, s: usize, wi: usize, stuck: Option<bool>) -> Option<WarpHandle> {
        self.has_stuck |= stuck.is_some();
        self.escaped = true;
        Some(self.handle(s, wi))
    }

    /// Corrupts `bits` of the SIMT-stack entry selected by `depth_lot` in
    /// the `n`-th live warp: bit `< 32` flips a lane of the entry's mask,
    /// bit `>= 32` flips bit `b - 32` of the entry pc.
    ///
    /// The stack's *top entry* is the warp's execution state itself — the
    /// current active mask and pc live in the TOS registers of the real
    /// reconvergence stack — so `depth_lot` addresses `stack.len() + 1`
    /// entries and the last one corrupts `warp.active` / `warp.pc`
    /// directly.  A warp always has a TOS, so a simt-stack fault on a live
    /// warp always applies; only the pushed-frame entries can be
    /// unoccupied.
    ///
    /// `stuck` as in [`SimtCore::flip_reg`].  Returns `None` when
    /// the warp does not exist.
    pub fn flip_simt_stack(
        &mut self,
        n: u64,
        depth_lot: u64,
        bits: &[u8],
        stuck: Option<bool>,
    ) -> Option<WarpHandle> {
        let (s, wi) = self.nth_live_warp(n)?;
        let warp = &mut self.ctas[s].warps[wi];
        let depth = depth_lot % (warp.stack.len() as u64 + 1);
        let depth = (depth < warp.stack.len() as u64).then_some(depth as u16);
        for &b in bits {
            let bit = (u64::from(b) % SIMT_STACK_ENTRY_BITS) as u8;
            let site = WarpSite::Simt { depth, bit };
            warp.corrupt(site, stuck);
        }
        self.control_hit(s, wi, stuck)
    }

    /// Corrupts `bits` of the warp-scheduler entry of the `n`-th live warp:
    /// bit 0 is the `at_barrier` flag, bits `1..=32` address the owning
    /// CTA's `barrier_arrived` counter.
    ///
    /// Same `stuck` and observability semantics as
    /// [`SimtCore::flip_simt_stack`].
    pub fn flip_sched(&mut self, n: u64, bits: &[u8], stuck: Option<bool>) -> Option<WarpHandle> {
        let (s, wi) = self.nth_live_warp(n)?;
        let cta = &mut self.ctas[s];
        for &b in bits {
            match (u64::from(b) % SCHED_ENTRY_BITS) as u8 {
                0 => {
                    cta.warps[wi].corrupt(WarpSite::AtBarrier, stuck);
                }
                b => {
                    cta.corrupt(CtaSite::BarrierArrived { bit: b - 1 }, stuck);
                }
            }
        }
        self.control_hit(s, wi, stuck)
    }

    /// Corrupts `bits` of the issue-scoreboard entry (the 64-bit `ready_at`
    /// cycle) of the `n`-th live warp.
    ///
    /// Same `stuck` and observability semantics as
    /// [`SimtCore::flip_simt_stack`].
    pub fn flip_scoreboard(
        &mut self,
        n: u64,
        bits: &[u8],
        stuck: Option<bool>,
    ) -> Option<WarpHandle> {
        let (s, wi) = self.nth_live_warp(n)?;
        let warp = &mut self.ctas[s].warps[wi];
        for &b in bits {
            let site = WarpSite::ReadyAt {
                bit: (u64::from(b) % SCOREBOARD_ENTRY_BITS) as u8,
            };
            warp.corrupt(site, stuck);
        }
        self.control_hit(s, wi, stuck)
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

    /// The global linear thread id of the `n`-th live thread (for local
    /// memory targeting), if it exists.
    pub fn nth_live_thread_global_id(&self, n: u64, ctx: &KernelCtx<'_>) -> Option<u64> {
        let (s, wi, lane) = self.nth_live_thread(n)?;
        let cta = &self.ctas[s];
        let tpc = u64::from(ctx.threads_per_cta());
        Some(cta.linear * tpc + u64::from(cta.warps[wi].widx) * LANES as u64 + lane as u64)
    }
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
}
