//! Shadowed plans: the checkpoint recording carries the faulty values of
//! transient register-file and shared-memory plans beside the golden run,
//! and settles those whose run it can tell without simulating it.
//!
//! A run of such a plan is the golden run until its first fault fires.
//! From there on it differs from the golden run only in the values its
//! flips changed, for as long as no faulty value steers the machine: an
//! address, a predicate, a local- or constant-memory access, or the host
//! program.  So the recording pass fires every shadowed plan's faults
//! where a run would fire them — at the first cycle-loop top at or after
//! each fault's cycle — with the sites the run's resolver finds
//! ([`resolve`]), and keeps per plan a sparse delta (faulty value XOR
//! golden value) per register lane, shared-memory word and global word.
//! The cores mark every slot some plan holds a delta of and log each
//! instruction that reads or writes a marked slot with its golden
//! operands (`Event::Exec`), and each marked slot an exit or a CTA's end
//! kills; this module evaluates each logged instruction for every plan
//! holding one of its slots, with the plan's faulty operands in place of
//! the golden ones and the semantics `SimtCore::exec` uses
//! ([`lane::value`], [`lane::pred`]), and sets or clears the plan's
//! delta of the destination.  Events are evaluated in the order the
//! golden run made them: core by core in issue order after each loop
//! iteration, where one core issues at most one instruction.
//!
//! The deltas live in rows of 32 slots laid out as the cores lay them
//! out: a register of one warp (a lane per slot), and 32 consecutive
//! shared-memory words of one CTA or global words.  A row holds its
//! holders in plan order, each with the lanes it holds and their deltas,
//! so an instruction costs one row lookup per operand, not one per lane,
//! and global rows are ordered by address, so a host copy visits only
//! the rows it touches.
//!
//! A plan leaves the group — its run is simulated — as soon as its values
//! reach anything but data ([`Leave`]): an address operand, a `SETP` that
//! computes another predicate, a local- or constant-memory access, a
//! global or texture load of a word whose delta was stored or killed in
//! the current launch (an L1 may hold it stale; `Gpu::launch` flushes the
//! L1s at every launch end and the L2 is coherent, so a word stored in an
//! earlier launch loads exactly), or a host read of a faulty word that a
//! later launch, upload or constant write follows.  However far its
//! values spread, a plan evaluates at most 32 lanes per golden warp
//! instruction after its first fault, so its shadow costs at most a
//! lane-by-lane pass over the instructions its run would simulate.  A
//! run of a plan still in the group at the end takes the golden run's
//! every branch and address, so it ends at the golden cycle count; the
//! host reads after the last launch are all that differs, and
//! `Gpu::finish_checkpoint_recording_with` replays the host program with
//! the plan's bytes patched in to tell whether the output does.
//!
//! Until a plan's first read its deltas live and die exactly as its run's
//! taint does — a full write, an exit, a CTA's end or a store over the
//! word kills one — so a plan none of whose slots is ever read gets its
//! run's record without the run: Masked at the golden cycle count,
//! `applied` as [`resolve`] answered, and ended by the early exit if a
//! taint check follows its last slot's death.  Deltas of different plans
//! never interact: the cores hold the union of their marks, and this
//! module which plan holds which slot.  A flip of a register keeps its
//! slot held even when a second flip restores the value, as a run's
//! taint does; a shared-memory word's slot ends with its last flipped
//! bit.
//!
//! The early exit checks a run's taint at the top of the loop iteration
//! its last fault fires in and every `EE_STRIDE`-th iteration after, and
//! at the first iteration of every later launch.  A fault whose cycle
//! falls inside one of the golden run's fast-forward gaps adds one
//! iteration to its run — the loop stops at the fault's cycle — so the
//! run's iteration count from its last fault on is one more than the
//! golden run's.
//!
//! A plan still in the group at the end with no faulty byte in the
//! output — none read, or a patched output equal to the golden one — is
//! Masked at the golden cycle count, `applied` as its faults fired; its
//! taint escaped at its first read, so only reconvergence can end its
//! run early.  A fork checks it at each later checkpoint's loop top,
//! before the faults due there fire, and reconverges where every fault
//! has fired, no taint is left and the state equals the snapshot's.  Its
//! taint is a subset of the plan's held slots, and a held slot with a
//! nonzero delta differs from the snapshot, so each capture notes the
//! plans with every fault fired, a read and no slot held.  Nothing else
//! the comparison sees can differ: a register an exit killed keeps its
//! value, but the comparison reads live lanes' registers alone; shared
//! memory and registers die with the CTA; and a fault inside a
//! fast-forward gap, which stops its run there, leaves the run's
//! occupancy sums the golden ones, since the run adds the gap in one
//! piece (`LaunchProgress::cut`).  The first kept snapshot at or after
//! that capture is where the fork reconverges (a cold start checks
//! none); a plan that never qualifies runs to the golden end,
//! `early_exit` false ([`Shadow::Masked`]).  A global word's deltas
//! describe its coherent value, the L2 line's or else DRAM's; a copy
//! made out of the L2 — a dirty line written back to DRAM, a line filled
//! into an L1D or L1T, whose array keeps the bytes even once the line
//! turns invalid — can outlive it, and the recording logs each copy of a
//! line holding a marked word ([`Shadows::copies`]).  Such copies are not
//! followed further: a plan that held or touched a word of a copied
//! line, and would qualify, stays [`Shadow::Kept`] and forks.  A Masked
//! plan's final global image is the golden one XOR the global words it
//! ends holding a delta of, which the store keeps for `--oracle-check`.

use crate::core::{lane, resolve, Event, KernelCtx, Log, Mark, SimtCore, Site};
use crate::fast_hash::FastMap;
use crate::fault::{FaultTarget, InjectionPlan};
use crate::gpu::EE_STRIDE;
use crate::mem::MemSystem;
use crate::snapshot::{Settled, SettledEffect};
use gpufi_isa::decode::{Uop, UopOp, NO_REG};
use std::collections::{BTreeMap, HashMap};

/// Why a shadowed plan left the value group; its run is simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Leave {
    /// A faulty value reached an address operand.
    Address,
    /// A `SETP` computed another predicate from a faulty value.
    Predicate,
    /// A faulty value reached a local- or constant-memory access.
    LocalOrConst,
    /// A global or texture load read a word whose delta was stored or
    /// killed in the same launch.
    StaleLoad,
    /// The host read a faulty word, and a launch, an upload or a constant
    /// write followed.
    HostRead,
}

impl Leave {
    /// Every rule, in the order the docs give them.
    pub const ALL: [Leave; 5] = [
        Leave::Address,
        Leave::Predicate,
        Leave::LocalOrConst,
        Leave::StaleLoad,
        Leave::HostRead,
    ];
}

/// How the recording's shadow of one plan ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Shadow {
    /// Every flip died unread.
    Unread(Settled),
    /// Still in the group with no faulty word read, or read into the
    /// golden output: Masked, with its run's `applied` and `early_exit`,
    /// and the global words it ends holding a delta of, `(word address,
    /// delta)`, ascending.
    Masked(Settled, Vec<(u32, u32)>),
    /// Still in the group, its faulty words read by the host after the
    /// last launch: `(journal op, word address, delta)` per word read, and
    /// the [`Shadow::Masked`] verdict if its patched output is golden.
    Output(Vec<(usize, u32, u32)>, Settled, Vec<(u32, u32)>),
    /// An [`Shadow::Output`] plan whose patched output differs from the
    /// golden one: SDC.
    Sdc,
    /// Still in the group, but whether its run reconverges is not known:
    /// a faulty global word of it was copied out of the L2 before its
    /// state could equal the golden run's.  An output replay that left the
    /// journal keeps a plan too.
    Kept,
    /// Left the group.
    Left(Leave),
}

/// The recording pass's shadowed plans (see the module docs).
#[derive(Debug)]
pub(crate) struct Shadows {
    plans: Vec<Shadowed>,
    /// Every shadowed fault as `(cycle, plan, fault)`, ascending, and
    /// the index of the first that has not fired yet.
    due: Vec<(u64, usize, usize)>,
    next: usize,
    /// Every row some plan holds a slot of or touched a word of.
    rows: Rows,
    /// Plans the host read faulty words of, since the last launch.
    reading: Vec<usize>,
    /// Plans that left since their slots were last dropped.
    leaving: Vec<usize>,
    /// Loop tops of every finished launch.
    launch_tops: Vec<u64>,
    /// Loop tops of the current launch so far.
    tops: u64,
    /// Lanes evaluated with the plans' faulty operands.
    lane_ops: u64,
    /// Scratch: one core's drained log, and one event's plans.
    log: Log,
    parts: Parts,
}

#[derive(Debug)]
struct Shadowed {
    plan: InjectionPlan,
    /// Faults not fired yet.
    unfired: usize,
    applied: bool,
    /// Slots held now.
    live: usize,
    /// The rows the plan is a holder of now (`holding` of them), among
    /// others it was once; compacted as it grows.
    rows: Vec<u32>,
    holding: usize,
    /// Whether a slot of the plan was read: its run's taint escaped.
    read: bool,
    left: Option<Leave>,
    /// The faulty words the host read: `(journal op, word address, delta)`.
    outputs: Vec<(usize, u32, u32)>,
    /// Where the last fault fired: the launch, the loop top's index in it
    /// and whether the fault's cycle precedes that top (a run stops there).
    fired: (usize, u64, bool),
    /// The index of the iteration the last live slot died in, once every
    /// fault fired; `None` while none died since.
    died: Option<u64>,
    /// Whether a line holding a global word the plan held or touched was
    /// copied out of the L2 — written back to DRAM, or filled into an L1D
    /// or L1T, whose array keeps the bytes even once the line is invalid:
    /// a faulty copy may outlive the coherent view.
    copied: bool,
    /// The cycle of the first checkpoint capture at which its run's state
    /// is the golden run's but for what `copied` may leave.
    settles: Option<u64>,
}

impl Shadowed {
    /// How the golden run settles the plan, if its every slot died unread.
    fn unread(&self, launch_tops: &[u64]) -> Option<Settled> {
        if self.read || self.unfired > 0 || self.live > 0 {
            return None;
        }
        let (launch, at, gap) = self.fired;
        let early_exit = match self.died {
            // Nothing alive as the last fault fired: the check at its top.
            None => true,
            Some(died) => {
                // The run's iterations, counted from the last fault's top.
                let (gap, stride) = (u64::from(gap), u64::from(EE_STRIDE));
                let check = ((died - at + gap) / stride + 1) * stride;
                check + at < launch_tops[launch] + gap || launch + 1 < launch_tops.len()
            }
        };
        Some(Settled {
            effect: SettledEffect::Masked,
            applied: self.applied,
            early_exit,
            reconverged: false,
        })
    }

    /// How the recording's shadow of the plan ended, given the cycles of
    /// the snapshots the store keeps and the global words the plan ends
    /// holding a delta of.
    fn shadow(self, launch_tops: &[u64], snapshots: &[u64], words: Vec<(u32, u32)>) -> Shadow {
        if let Some(settled) = self.unread(launch_tops) {
            return Shadow::Unread(settled);
        }
        if let Some(leave) = self.left {
            return Shadow::Left(leave);
        }
        // Still in the group: the run takes the golden run's every branch
        // and address, and reconverges at the first checkpoint it is
        // checked against whose state it equals — a fork's, since a cold
        // start checks none.
        let first = self.plan.faults.iter().map(|f| f.cycle).min();
        let forked = snapshots.first().is_some_and(|&c| Some(c) <= first);
        let check = self
            .settles
            .filter(|_| forked)
            .and_then(|at| snapshots.iter().find(|&&c| c >= at));
        let reconverged = match check {
            Some(_) if self.copied => return Shadow::Kept,
            check => check.is_some(),
        };
        let settled = Settled {
            effect: SettledEffect::Masked,
            applied: self.applied,
            early_exit: reconverged,
            reconverged,
        };
        if self.outputs.is_empty() {
            Shadow::Masked(settled, words)
        } else {
            Shadow::Output(self.outputs, settled, words)
        }
    }

    /// Notes the slots `lost` and `gained`, in that order, the lost ones
    /// dead in iteration `at` if `dies`.
    fn count(&mut self, lost: u32, gained: u32, dies: bool, at: u64) {
        self.live -= lost.count_ones() as usize;
        if dies && lost != 0 && self.live == 0 && self.unfired == 0 {
            self.died = Some(at);
        }
        self.live += gained.count_ones() as usize;
    }
}

/// One plan's hold of a row: the lanes it holds a delta of, in a global
/// row the lanes whose word it stored or killed a delta of in the
/// current launch, and where the delta of each lane is (see
/// [`Rows::deltas`]).
#[derive(Debug, Clone, Copy)]
struct Holder {
    plan: u32,
    held: u32,
    touched: u32,
    delta: u32,
}

/// A row of 32 slots: `at` is its first.
#[derive(Debug)]
struct Row {
    at: Mark,
    /// In plan order; none once the row is freed.
    holders: Vec<Holder>,
}

impl Row {
    fn holder(&self, p: u32) -> Option<&Holder> {
        let i = self.holders.binary_search_by_key(&p, |h| h.plan).ok()?;
        Some(&self.holders[i])
    }

    /// The lanes some holder holds.
    fn held(&self) -> u32 {
        self.holders.iter().fold(0, |m, h| m | h.held)
    }

    /// The lanes some holder holds or touched.
    fn marked(&self) -> u32 {
        self.holders.iter().fold(0, |m, h| m | h.held | h.touched)
    }
}

/// The first slot of the row holding slot `m`, and `m`'s lane in it.
fn split(m: Mark) -> (Mark, usize) {
    match m {
        Mark::Reg {
            sm,
            seq,
            warp,
            reg,
            lane,
        } => {
            let at = Mark::Reg {
                sm,
                seq,
                warp,
                reg,
                lane: 0,
            };
            (at, usize::from(lane))
        }
        Mark::Smem { sm, seq, word } => {
            let at = Mark::Smem {
                sm,
                seq,
                word: word & !31,
            };
            (at, (word & 31) as usize)
        }
        Mark::Global { word } => (Mark::Global { word: word & !31 }, (word & 31) as usize),
    }
}

/// Slot `l` of the row whose first slot is `at`.
fn slot(at: Mark, l: usize) -> Mark {
    match at {
        Mark::Reg {
            sm, seq, warp, reg, ..
        } => Mark::Reg {
            sm,
            seq,
            warp,
            reg,
            lane: l as u8,
        },
        Mark::Smem { sm, seq, word } => Mark::Smem {
            sm,
            seq,
            word: word + l as u32,
        },
        Mark::Global { word } => Mark::Global {
            word: word + l as u32,
        },
    }
}

/// The rows, by index, with the indices of freed ones to reuse.
#[derive(Debug, Default)]
struct Rows {
    slab: Vec<Row>,
    free: Vec<u32>,
    /// Register and shared-memory rows by their first slot.
    core: FastMap<Mark, u32>,
    /// Global rows by their first word / 32.
    global: BTreeMap<u32, u32>,
    /// Every holder's deltas, a lane's 0 where it holds none, and the
    /// indices of freed ones to reuse.
    deltas: Vec<[u32; 32]>,
    free_deltas: Vec<u32>,
}

impl Rows {
    /// The row whose first slot is `at`, if some plan holds it.
    fn find(&self, at: Mark) -> Option<u32> {
        match at {
            Mark::Global { word } => self.global.get(&(word >> 5)).copied(),
            _ => self.core.get(&at).copied(),
        }
    }

    /// The row whose first slot is `at`, made empty if there is none.
    fn make(&mut self, at: Mark) -> u32 {
        if let Some(id) = self.find(at) {
            return id;
        }
        let id = match self.free.pop() {
            Some(id) => {
                self.slab[id as usize].at = at;
                id
            }
            None => {
                self.slab.push(Row {
                    at,
                    holders: Vec::new(),
                });
                (self.slab.len() - 1) as u32
            }
        };
        match at {
            Mark::Global { word } => self.global.insert(word >> 5, id),
            _ => self.core.insert(at, id),
        };
        id
    }

    /// Frees row `id`, which has no holders left.
    fn free(&mut self, id: u32) {
        match self.slab[id as usize].at {
            Mark::Global { word } => self.global.remove(&(word >> 5)),
            at => self.core.remove(&at),
        };
        self.free.push(id);
    }

    fn row(&self, id: u32) -> &Row {
        &self.slab[id as usize]
    }

    /// The deltas of holder `h`.
    fn delta(&self, h: &Holder) -> &[u32; 32] {
        &self.deltas[h.delta as usize]
    }
}

/// The lanes set in `mask`, ascending.
fn lanes(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let l = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            l
        })
    })
}

/// The value lane `l` of the data-path op `op` computes when its
/// operands `rows` (`a`, `b`, `c`, as the core logged them) differ in
/// that lane by `delta`, with `SEL` selector predicate `sel`: what
/// [`lane::value`] gives, or for a `SETP` [`lane::pred`] as 0 or 1.
pub(crate) fn lane_value(
    op: UopOp,
    rows: &[[u32; 32]; 3],
    delta: [u32; 3],
    sel: u32,
    l: usize,
) -> u32 {
    let [a, b, c] = std::array::from_fn(|i| rows[i][l] ^ delta[i]);
    if lane::is_setp(op) {
        u32::from(lane::pred(op, a, b))
    } else {
        lane::value(op, a, b, c, sel >> l & 1 != 0)
    }
}

/// One logged instruction being evaluated: where it ran, its lanes and
/// golden operands, the rows of its marked `a`, `b`, `c` and destination
/// registers, and the golden values of the lanes evaluated so far.
struct Ev<'a> {
    at: &'a Slots,
    mask: u32,
    rows: &'a [[u32; 32]; 3],
    sel: u32,
    ids: [Option<u32>; 4],
    golden: [u32; 32],
    known: u32,
    /// Per lane, the later lanes accessing the same memory word, once
    /// asked for.
    same: Option<[u32; 32]>,
}

impl Ev<'_> {
    /// The lanes after lane `k` that access the word lane `k` does.
    fn later(&mut self, k: usize) -> u32 {
        let (at, rows) = (self.at, self.rows);
        self.same.get_or_insert_with(|| {
            let word: [u32; 32] =
                std::array::from_fn(|l| rows[0][l].wrapping_add(at.uop.mem_offset() as u32) / 4);
            std::array::from_fn(|k| {
                (k + 1..32).fold(0, |m, l| m | u32::from(word[l] == word[k]) << l)
            })
        })[k]
    }

    /// The value lane `l` computes from the golden operands.
    fn golden(&mut self, l: usize) -> u32 {
        if self.known >> l & 1 == 0 {
            self.golden[l] = lane_value(self.at.uop.op, self.rows, [0; 3], self.sel, l);
            self.known |= 1 << l;
        }
        self.golden[l]
    }
}

/// One plan's part in a logged instruction: the lanes of its `a`, `b`,
/// `c`, destination and memory word operands it holds, and the lanes
/// whose global word it touched (see [`Holder`]), with the deltas of the
/// memory words it holds.
#[derive(Debug, Clone)]
struct Part {
    plan: u32,
    has: [u32; 6],
    word: [u32; 32],
    /// Where in the rows of `a`, `b`, `c` and the destination the plan's
    /// holds are, where `has` names lanes.
    hold: [u32; 4],
    /// The destination lanes the instruction writes for the plan, those
    /// of them it holds a delta of after, and the deltas of those.
    written: u32,
    on: u32,
    out: [u32; 32],
}

/// The parts of the plans in one logged instruction, in the order the
/// plans were met, and where each plan's is.
#[derive(Debug, Default)]
struct Parts {
    list: Vec<Part>,
    /// Per plan, 1 + its part's index, or 0.
    index: Vec<u32>,
    /// Scratch: the parts that write the destination, in plan order.
    writes: Vec<u32>,
}

impl Parts {
    /// Plan `p`'s part, made empty if it has none.
    fn at(&mut self, p: u32) -> &mut Part {
        let p = p as usize;
        if self.index.len() <= p {
            self.index.resize(p + 1, 0);
        }
        if self.index[p] == 0 {
            self.list.push(Part {
                plan: p as u32,
                has: [0; 6],
                word: [0; 32],
                hold: [0; 4],
                written: 0,
                on: 0,
                out: [0; 32],
            });
            self.index[p] = self.list.len() as u32;
        }
        &mut self.list[self.index[p] as usize - 1]
    }

    fn clear(&mut self) {
        for part in self.list.drain(..) {
            self.index[part.plan as usize] = 0;
        }
    }
}

/// Indices of [`Part::has`] past `a`, `b`, `c` and the destination: the
/// lane's memory word, and a global word the plan stored or killed a
/// delta of in the current launch.
const WORD: u8 = 4;
const TOUCHED: u8 = 5;

impl Shadows {
    /// Shadows the transient register-file and shared-memory plans among
    /// `plans`; `None` when there is none.
    pub(crate) fn new<'a>(plans: impl IntoIterator<Item = &'a InjectionPlan>) -> Option<Self> {
        let shadowed = |p: &&InjectionPlan| {
            !p.model.is_permanent()
                && !p.faults.is_empty()
                && p.faults.iter().all(|f| {
                    matches!(
                        f.target,
                        FaultTarget::RegisterFile { .. } | FaultTarget::SharedMemory { .. }
                    )
                })
        };
        let plans: Vec<Shadowed> = plans
            .into_iter()
            .filter(shadowed)
            .map(|plan| Shadowed {
                unfired: plan.faults.len(),
                plan: plan.clone(),
                applied: false,
                live: 0,
                rows: Vec::new(),
                holding: 0,
                read: false,
                left: None,
                outputs: Vec::new(),
                fired: (0, 0, false),
                died: None,
                copied: false,
                settles: None,
            })
            .collect();
        if plans.is_empty() {
            return None;
        }
        let mut due: Vec<_> = plans
            .iter()
            .enumerate()
            .flat_map(|(p, s)| {
                let faults = s.plan.faults.iter().enumerate();
                faults.map(move |(k, f)| (f.cycle, p, k))
            })
            .collect();
        // A plan's faults at one cycle fire in plan order, as armed.
        due.sort_unstable();
        Some(Shadows {
            plans,
            due,
            next: 0,
            rows: Rows::default(),
            reading: Vec::new(),
            leaving: Vec::new(),
            launch_tops: Vec::new(),
            tops: 0,
            lane_ops: 0,
            log: Log::default(),
            parts: Parts::default(),
        })
    }

    /// A loop top at `cycle`: fires every shadowed fault due there.
    pub(crate) fn top(
        &mut self,
        cycle: u64,
        cores: &mut [SimtCore],
        mem: &mut MemSystem,
        ctx: &KernelCtx<'_>,
    ) {
        self.tops += 1;
        if !self.leaving.is_empty() {
            self.drop_left(cores, mem);
        }
        while let Some(&(at, p, k)) = self.due.get(self.next).filter(|d| d.0 <= cycle) {
            self.next += 1;
            if self.plans[p].left.is_none() {
                self.fire(p, k, cores, mem, ctx);
            }
            let s = &mut self.plans[p];
            s.unfired -= 1;
            if s.unfired == 0 {
                s.fired = (self.launch_tops.len(), self.tops - 1, at < cycle);
            }
        }
    }

    /// A checkpoint is captured at the loop top at `cycle`, before the
    /// faults due there fire: notes each plan whose run, checked for
    /// reconvergence there, would equal it but for what `copied` stands
    /// for — every fault fired, its taint escaped and none left, and no
    /// faulty value held in a slot.  Once so, a plan stays so.
    pub(crate) fn checkpoint(&mut self, cycle: u64) {
        for s in &mut self.plans {
            if s.settles.is_none() && s.left.is_none() && s.read && s.unfired == 0 && s.live == 0 {
                s.settles = Some(cycle);
            }
        }
    }

    /// Flips, in plan `p`'s deltas, the bits fault `k` of the plan flips
    /// at the sites [`resolve`] finds for it, as a run's flips would.
    fn fire(
        &mut self,
        p: usize,
        k: usize,
        cores: &mut [SimtCore],
        mem: &MemSystem,
        ctx: &KernelCtx<'_>,
    ) {
        let Some(sites) = resolve(&self.plans[p].plan.faults[k].target, cores, mem, ctx) else {
            return;
        };
        self.plans[p].applied = true;
        for site in sites {
            let Site::Core { sm, site } = site else {
                unreachable!("only register-file and shared-memory plans are shadowed")
            };
            for (m, bits) in cores[sm].marks(site) {
                let (at, l) = split(m);
                let id = self.rows.make(at);
                let held =
                    (self.row_holder(p, id)).map(|h| (h.held >> l & 1 != 0, self.rows.delta(h)[l]));
                match held {
                    // A transient flip of a shared-memory bit is a toggle.
                    Some((true, d)) if matches!(m, Mark::Smem { .. }) && d == bits => {
                        self.write(p, id, 1 << l, &[0; 32], 0, false);
                        if self
                            .rows
                            .find(at)
                            .is_none_or(|id| self.rows.row(id).held() >> l & 1 == 0)
                        {
                            cores[sm].set_mark(m, false);
                        }
                    }
                    Some((true, d)) => self.hold(p, id, l, d ^ bits),
                    _ => {
                        self.hold(p, id, l, bits);
                        cores[sm].set_mark(m, true);
                    }
                }
            }
        }
    }

    /// Plan `p`'s hold of row `id`, if any.
    fn row_holder(&self, p: usize, id: u32) -> Option<&Holder> {
        self.rows.row(id).holder(p as u32)
    }

    /// The index of plan `p`'s hold of row `id`, made empty if it has
    /// none.
    fn make_holder(&mut self, p: usize, id: u32) -> usize {
        let holders = &self.rows.slab[id as usize].holders;
        match holders.binary_search_by_key(&(p as u32), |h| h.plan) {
            Ok(i) => i,
            Err(i) => {
                self.new_holder(p, id, i);
                i
            }
        }
    }

    /// Makes plan `p` an empty holder of row `id`, at index `i` of its
    /// holders.
    fn new_holder(&mut self, p: usize, id: u32, i: usize) {
        let rows = &mut self.rows;
        let delta = match rows.free_deltas.pop() {
            Some(d) => {
                rows.deltas[d as usize] = [0; 32];
                d
            }
            None => {
                rows.deltas.push([0; 32]);
                (rows.deltas.len() - 1) as u32
            }
        };
        let plan = p as u32;
        let h = Holder {
            plan,
            held: 0,
            touched: 0,
            delta,
        };
        rows.slab[id as usize].holders.insert(i, h);
        let s = &mut self.plans[p];
        s.holding += 1;
        s.rows.push(id);
        if s.rows.len() > 2 * s.holding + 16 {
            let slab = &rows.slab;
            s.rows.retain(|&r| slab[r as usize].holder(plan).is_some());
            s.rows.sort_unstable();
            s.rows.dedup();
        }
    }

    /// Plan `p` holds lane `l` of row `id` with delta `d`, even if 0.
    fn hold(&mut self, p: usize, id: u32, l: usize, d: u32) {
        let i = self.make_holder(p, id);
        let mut delta = [0; 32];
        delta[l] = d;
        self.update(id, i, 1 << l, 1 << l, &delta, 0, false);
    }

    /// Sets plan `p`'s deltas of lanes `which` of row `id` to those of
    /// `delta`, ending its hold of the lanes where they are 0 (a death
    /// when `dies`: not a toggle back), and notes the lanes `touch` as
    /// touched.
    fn write(&mut self, p: usize, id: u32, which: u32, delta: &[u32; 32], touch: u32, dies: bool) {
        let on = (0..32).fold(0, |m, l| m | u32::from(delta[l] != 0) << l) & which;
        let i = if on | touch != 0 {
            self.make_holder(p, id)
        } else {
            match self.rows.slab[id as usize]
                .holders
                .binary_search_by_key(&(p as u32), |h| h.plan)
            {
                Ok(i) => i,
                Err(_) => return,
            }
        };
        if self.update(id, i, which, on, delta, touch, dies) {
            self.drop_holder(id, i);
        }
    }

    /// Sets hold `i` of row `id` to hold lanes `on` of `which` with their
    /// deltas in `delta`, ending its hold of the other lanes of `which`
    /// (a death when `dies`), and notes the lanes `touch` as touched;
    /// whether it holds and touched nothing after.
    #[allow(clippy::too_many_arguments)]
    fn update(
        &mut self,
        id: u32,
        i: usize,
        which: u32,
        on: u32,
        delta: &[u32; 32],
        touch: u32,
        dies: bool,
    ) -> bool {
        let h = &mut self.rows.slab[id as usize].holders[i];
        let (lost, gained) = (h.held & which & !on, on & !h.held);
        let d = &mut self.rows.deltas[h.delta as usize];
        for l in lanes(which) {
            d[l] = if on >> l & 1 != 0 { delta[l] } else { 0 };
        }
        h.held = (h.held & !which) | on;
        h.touched |= touch;
        let empty = h.held | h.touched == 0;
        let at = self.tops.wrapping_sub(1);
        self.plans[h.plan as usize].count(lost, gained, dies, at);
        empty
    }

    /// Removes hold `i` of row `id`, and the row once it has none.
    fn drop_holder(&mut self, id: u32, i: usize) {
        let row = &mut self.rows.slab[id as usize];
        let h = row.holders.remove(i);
        self.rows.free_deltas.push(h.delta);
        self.plans[h.plan as usize].holding -= 1;
        if row.holders.is_empty() {
            self.rows.free(id);
        }
    }

    /// Removes every hold of row `id` that holds and touched nothing.
    fn prune(&mut self, id: u32) {
        let mut i = 0;
        while let Some(h) = self.rows.row(id).holders.get(i) {
            if h.held | h.touched == 0 {
                self.drop_holder(id, i);
                if self.rows.row(id).holders.is_empty() {
                    return;
                }
            } else {
                i += 1;
            }
        }
    }

    /// Plan `p` leaves the group; its slots are dropped at the next loop
    /// top or host call.
    fn leave(&mut self, p: usize, why: Leave) {
        let s = &mut self.plans[p];
        if s.left.is_none() {
            s.left = Some(why);
            s.read = true;
            self.leaving.push(p);
        }
    }

    /// Evaluates what `sm`'s core logged in the current loop iteration.
    pub(crate) fn drain(&mut self, sm: u32, core: &mut SimtCore, mem: &mut MemSystem) {
        if !core.swap_taint_log(&mut self.log) {
            return;
        }
        let mut log = std::mem::take(&mut self.log);
        for e in &log.events {
            match *e {
                Event::Kill { mark, lanes } => self.kill(mark, lanes),
                Event::Exec {
                    seq,
                    warp,
                    uop,
                    mask,
                    rows,
                    sel,
                    marked,
                    words,
                } => {
                    let at = Slots { sm, seq, warp, uop };
                    self.exec(&at, mask, &log.rows[rows], sel, marked, words, core, mem);
                }
            }
        }
        log.clear();
        self.log = log;
    }

    /// Slots `dead` of the row whose first slot is `at` died, by an exit
    /// or a CTA's end: every plan holding one loses it.
    fn kill(&mut self, at: Mark, dead: u32) {
        let Some(id) = self.rows.find(at) else {
            return;
        };
        let top = self.tops - 1;
        let Rows { slab, deltas, .. } = &mut self.rows;
        for h in &mut slab[id as usize].holders {
            let lost = h.held & dead;
            if lost != 0 {
                h.held &= !dead;
                let d = &mut deltas[h.delta as usize];
                for l in lanes(lost) {
                    d[l] = 0;
                }
                self.plans[h.plan as usize].count(lost, 0, true, top);
            }
        }
        self.prune(id);
    }

    /// Evaluates instruction `at.uop`, executed on lanes `mask` with the
    /// golden operand `rows`, for every plan holding one of its marked
    /// slots (`marked` lanes of `a`, `b`, `c` and the destination, `words`
    /// lanes' memory words), then narrows the marks its execution spread
    /// to the slots some plan holds.
    #[allow(clippy::too_many_arguments)]
    fn exec(
        &mut self,
        at: &Slots,
        mask: u32,
        rows: &[[u32; 32]; 3],
        sel: u32,
        marked: [u32; 4],
        words: u32,
        core: &mut SimtCore,
        mem: &mut MemSystem,
    ) {
        let u = at.uop;
        let regs = [u.a, u.b, u.c, u.dst];
        let global_load = matches!(u.op, UopOp::LdGlobal | UopOp::LdTex);
        let mut ev = Ev {
            at,
            mask,
            rows,
            sel,
            ids: [None; 4],
            golden: [0; 32],
            known: 0,
            same: None,
        };
        let mut parts = std::mem::take(&mut self.parts);
        // Each plan's part: the lanes of each marked register operand it
        // holds, and the deltas of the marked memory words it holds.
        for (i, &r) in regs.iter().enumerate() {
            if marked[i] == 0 {
                continue;
            }
            ev.ids[i] = self.rows.find(at.row(r));
            let holders = ev.ids[i].map_or(&[][..], |id| &self.rows.row(id).holders);
            for (k, h) in holders.iter().enumerate() {
                let held = h.held & marked[i];
                if held != 0 {
                    let part = parts.at(h.plan);
                    part.has[i] = held;
                    part.hold[i] = k as u32;
                }
            }
        }
        // Lanes whose words share a row are met together: each holder of
        // the row is looked at once.
        let mut todo = words;
        while todo != 0 {
            let (row, _) = split(at.word(rows, todo.trailing_zeros() as usize));
            // The lanes accessing each slot of the row.
            let (mut by_slot, mut slots) = ([0u32; 32], 0u32);
            for l in lanes(todo) {
                let (r, wl) = split(at.word(rows, l));
                if r == row {
                    by_slot[wl] |= 1 << l;
                    slots |= 1 << wl;
                    todo &= !(1 << l);
                }
            }
            for h in self
                .rows
                .find(row)
                .map_or(&[][..], |id| &self.rows.row(id).holders)
            {
                let hit = (h.held | h.touched) & slots;
                if hit == 0 {
                    continue;
                }
                let (part, delta) = (parts.at(h.plan), self.rows.delta(h));
                for wl in lanes(hit) {
                    let (held, touched) = (h.held >> wl & 1, h.touched >> wl & 1);
                    for l in lanes(by_slot[wl]) {
                        part.has[usize::from(WORD)] |= held << l;
                        part.word[l] = delta[wl];
                        // Only a global or texture load reads a word stale.
                        part.has[usize::from(TOUCHED)] |= (touched & u32::from(global_load)) << l;
                    }
                }
            }
        }
        // Every plan's reads first, then the destination's writes: a
        // plan's writes change only its own holds.
        let loads = matches!(u.op, UopOp::LdShared | UopOp::LdGlobal | UopOp::LdTex);
        for part in &mut parts.list {
            let p = part.plan as usize;
            let has = part.has;
            if self.plans[p].left.is_some() || has == [0; 6] {
                continue;
            }
            let operands = has[0] | has[1] | has[2];
            if operands != 0 || (loads && has[4] != 0) {
                self.plans[p].read = true;
            }
            let work = self.eval(p, &mut ev, part);
            self.lane_ops += u64::from(work);
        }
        let dst_held = self.write_dst(at.row(u.dst), &mut parts);
        parts.clear();
        self.parts = parts;
        // Narrow what the core spread: destination lanes a marked operand
        // or word reached, and every stored word.
        let spread = if lane::writes_value(u.op) {
            marked[0] | marked[1] | marked[2]
        } else {
            words
        };
        if u.dst != NO_REG && spread & mask != 0 {
            core.set_reg_marks(at.seq, at.warp, u.dst, spread & mask, dst_held);
        }
        if matches!(u.op, UopOp::StShared | UopOp::StGlobal) {
            for l in lanes((marked[2] | words) & mask) {
                let m = at.word(rows, l);
                let (row, wl) = split(m);
                let on = self.rows.find(row).map_or(0, |id| {
                    let r = self.rows.row(id);
                    if matches!(m, Mark::Global { .. }) {
                        r.marked()
                    } else {
                        r.held()
                    }
                }) >> wl
                    & 1
                    != 0;
                match m {
                    Mark::Global { word } => mem.set_word_mark(word, on),
                    _ => core.set_mark(m, on),
                }
            }
        }
    }

    /// Plan `part.plan`'s deltas of operand `i` (`a`, `b` or `c`) of
    /// `ev`, on the lanes `part.has[i]` (the others may be stale).
    fn operand(&self, ev: &Ev, part: &Part, i: usize) -> &[u32; 32] {
        const NONE: [u32; 32] = [0; 32];
        if part.has[i] == 0 {
            return &NONE;
        }
        let id = ev.ids[i].expect("a held operand's row");
        let h = &self.rows.row(id).holders[part.hold[i] as usize];
        debug_assert_eq!(h.plan, part.plan);
        self.rows.delta(h)
    }

    /// Sets each plan's deltas of the destination lanes its `parts`
    /// wrote, row `at`, to those the part computed (a 0 ends the hold);
    /// returns the lanes some plan holds after.
    fn write_dst(&mut self, at: Mark, parts: &mut Parts) -> u32 {
        let writes = &mut parts.writes;
        let list = &parts.list;
        writes.extend((0..list.len() as u32).filter(|&k| list[k as usize].written != 0));
        if writes.is_empty() {
            return 0;
        }
        writes.sort_unstable_by_key(|&k| list[k as usize].plan);
        let id = match self.rows.find(at) {
            Some(id) => id,
            None if writes.iter().any(|&k| list[k as usize].on != 0) => self.rows.make(at),
            None => {
                writes.clear();
                return 0;
            }
        };
        let (mut held, mut c, mut emptied) = (0, 0, false);
        for &k in writes.iter() {
            let part = &list[k as usize];
            let (p, which, on) = (part.plan, part.written, part.on);
            let holders = &self.rows.slab[id as usize].holders;
            while holders.get(c).is_some_and(|h| h.plan < p) {
                c += 1;
            }
            if holders.get(c).is_none_or(|h| h.plan != p) {
                if on == 0 {
                    continue;
                }
                self.new_holder(p as usize, id, c);
            }
            emptied |= self.update(id, c, which, on, &part.out, 0, true);
            held |= on;
            c += 1;
        }
        writes.clear();
        if emptied {
            self.prune(id);
        }
        held
    }

    /// Evaluates instruction `ev` for plan `p`, whose `part` says which
    /// lanes of its operands `a`, `b`, `c`, destination and memory words
    /// it holds, and which lanes' global words it stored or killed a
    /// delta of in the current launch, and takes the destination lanes it
    /// writes and their deltas; stores land at once.  Returns the lanes
    /// evaluated.
    fn eval(&mut self, p: usize, ev: &mut Ev, part: &mut Part) -> u32 {
        let has = part.has;
        let (op, mask) = (ev.at.uop.op, ev.mask);
        let operands = has[0] | has[1] | has[2];
        // Into `part.out`: the faulty value of each lane with a faulty
        // operand, XOR the golden one; returns the lanes where they differ.
        let deltas = |this: &Self, ev: &mut Ev, part: &mut Part| {
            let d: [&[u32; 32]; 3] = std::array::from_fn(|i| this.operand(ev, part, i));
            let mut on = 0;
            for l in lanes(mask & operands) {
                let faulty: [u32; 3] =
                    std::array::from_fn(|i| d[i][l] & 0u32.wrapping_sub(has[i] >> l & 1));
                let delta = ev.golden(l) ^ lane_value(op, ev.rows, faulty, ev.sel, l);
                part.out[l] = delta;
                on |= u32::from(delta != 0) << l;
            }
            on
        };
        match op {
            _ if lane::writes_value(op) => {
                // A lane with a faulty operand gets the value's delta;
                // the other executing lanes overwrite the plan's.
                part.on = deltas(self, ev, part);
                part.written = mask & (operands | has[3]);
                operands.count_ones()
            }
            _ if lane::is_setp(op) => {
                // Marks are taken on executing lanes: `mask` covers every
                // lane of `operands`.
                if deltas(self, ev, part) != 0 {
                    self.leave(p, Leave::Predicate);
                }
                operands.count_ones()
            }
            UopOp::LdShared | UopOp::LdGlobal | UopOp::LdTex => {
                if has[0] != 0 {
                    self.leave(p, Leave::Address);
                    return 0;
                }
                if has[usize::from(TOUCHED)] != 0 {
                    self.leave(p, Leave::StaleLoad);
                    return 0;
                }
                part.out = part.word;
                part.on =
                    lanes(mask & has[4]).fold(0, |m, l| m | u32::from(part.word[l] != 0) << l);
                part.written = mask & (has[4] | has[3]);
                has[4].count_ones()
            }
            UopOp::StShared | UopOp::StGlobal => {
                if has[0] != 0 {
                    self.leave(p, Leave::Address);
                    return 0;
                }
                let value = *self.operand(ev, part, 2);
                // Lane by lane, as the stores land: a later lane's store to
                // the same word wins.  A lane storing a faulty value or over
                // a faulty word counts, and so does one storing to the word
                // such a lane stored to before it.
                let hit = mask & (has[2] | has[4]);
                let later = lanes(hit).fold(hit, |t, k| t | ev.later(k));
                for l in lanes(later & mask) {
                    let m = ev.at.word(ev.rows, l);
                    let d = if has[2] >> l & 1 != 0 { value[l] } else { 0 };
                    let (row, wl) = split(m);
                    let id = if d != 0 {
                        self.rows.make(row)
                    } else {
                        let id = self.rows.find(row);
                        match id.filter(|&id| {
                            self.row_holder(p, id)
                                .is_some_and(|h| h.held >> wl & 1 != 0)
                        }) {
                            Some(id) => id,
                            None => continue,
                        }
                    };
                    let mut one = [0; 32];
                    one[wl] = d;
                    let touch = u32::from(matches!(m, Mark::Global { .. })) << wl;
                    self.write(p, id, 1 << wl, &one, touch, true);
                }
                has[2].count_ones()
            }
            UopOp::LdLocal | UopOp::StLocal | UopOp::LdConst | UopOp::StConst => {
                if operands != 0 {
                    self.leave(p, Leave::LocalOrConst);
                    return 0;
                }
                part.written = has[3];
                0
            }
            _ => {
                // `S2R`: its destination is overwritten.
                part.written = has[3];
                0
            }
        }
    }

    /// The lines holding a marked global word that the loop iteration or
    /// the launch's end copied out of the L2 (see `MemSystem`'s word
    /// marks): every plan holding, or having touched in the launch, a word
    /// of one may have left a faulty copy outside the coherent view.
    pub(crate) fn copies(&mut self, mem: &mut MemSystem) {
        let lb = u64::from(mem.line_bytes());
        for line in mem.take_copied_lines() {
            let (lo, hi) = (line * lb, (line + 1) * lb);
            for id in self.global_rows(lo, hi) {
                let row = self.rows.row(id);
                let Mark::Global { word: first } = row.at else {
                    unreachable!("global rows")
                };
                let inside = (0..32u64).fold(0u32, |m, l| {
                    let addr = (u64::from(first) + l) * 4;
                    m | u32::from((lo..hi).contains(&addr)) << l
                });
                for h in row
                    .holders
                    .iter()
                    .filter(|h| (h.held | h.touched) & inside != 0)
                {
                    self.plans[h.plan as usize].copied = true;
                }
            }
        }
    }

    /// Drops the slots of the plans that left: their runs are simulated.
    /// A slot no other plan holds (or, for a global word, touched) is
    /// unmarked.
    fn drop_left(&mut self, cores: &mut [SimtCore], mem: &mut MemSystem) {
        let mut leaving = std::mem::take(&mut self.leaving);
        for &p in &leaving {
            for id in std::mem::take(&mut self.plans[p].rows) {
                let row = &self.rows.slab[id as usize];
                let Ok(i) = row.holders.binary_search_by_key(&(p as u32), |h| h.plan) else {
                    continue;
                };
                let h = &row.holders[i];
                let at = row.at;
                let mine = h.held
                    | if matches!(at, Mark::Global { .. }) {
                        h.touched
                    } else {
                        0
                    };
                self.drop_holder(id, i);
                let others = match self.rows.find(at) {
                    Some(id) if matches!(at, Mark::Global { .. }) => self.rows.row(id).marked(),
                    Some(id) => self.rows.row(id).held(),
                    None => 0,
                };
                let off = mine & !others;
                match at {
                    Mark::Reg {
                        sm, seq, warp, reg, ..
                    } => {
                        if off != 0 {
                            cores[sm as usize].set_reg_marks(seq, warp, reg as u8, off, 0);
                        }
                    }
                    Mark::Smem { sm, .. } => {
                        for l in lanes(off) {
                            cores[sm as usize].set_mark(slot(at, l), false);
                        }
                    }
                    Mark::Global { word } => {
                        for l in lanes(off) {
                            mem.set_word_mark(word + l as u32, false);
                        }
                    }
                }
            }
            let s = &mut self.plans[p];
            s.live = 0;
        }
        leaving.clear();
        self.leaving = leaving;
    }

    /// The global rows (of 32 words, 128 bytes) holding a byte of
    /// `[lo, hi)`, ascending.
    fn global_rows(&self, lo: u64, hi: u64) -> Vec<u32> {
        if lo >= hi {
            return Vec::new();
        }
        let (first, last) = ((lo / 128) as u32, ((hi - 1) / 128) as u32);
        self.rows
            .global
            .range(first..=last)
            .map(|(_, &id)| id)
            .collect()
    }

    /// The host read `len` bytes at `ptr` by journal op `op`: every plan
    /// in the group records the faulty words it read.
    pub(crate) fn host_read(&mut self, op: usize, ptr: u32, len: usize) {
        let (lo, hi) = (u64::from(ptr), u64::from(ptr) + len as u64);
        for id in self.global_rows(lo, hi) {
            let row = &self.rows.slab[id as usize];
            let Mark::Global { word: first } = row.at else {
                unreachable!("global rows")
            };
            for h in &row.holders {
                let s = &mut self.plans[h.plan as usize];
                if s.left.is_some() {
                    continue;
                }
                for l in lanes(h.held) {
                    let word = first + l as u32;
                    let addr = u64::from(word) * 4;
                    if addr + 4 <= lo || addr >= hi {
                        continue;
                    }
                    let p = h.plan as usize;
                    if s.outputs.last().is_none_or(|o| o.0 != op) && !self.reading.contains(&p) {
                        self.reading.push(p);
                    }
                    s.outputs.push((op, word * 4, self.rows.delta(h)[l]));
                }
            }
        }
    }

    /// A launch, an upload or a constant write follows: every plan whose
    /// faulty words the host read leaves.
    pub(crate) fn host_continues(&mut self, cores: &mut [SimtCore], mem: &mut MemSystem) {
        for p in std::mem::take(&mut self.reading) {
            self.leave(p, Leave::HostRead);
        }
        self.drop_left(cores, mem);
    }

    /// The host wrote `len` bytes at `ptr`: the deltas of the bytes it
    /// wrote die.
    pub(crate) fn host_write(
        &mut self,
        ptr: u32,
        len: usize,
        cores: &mut [SimtCore],
        mem: &mut MemSystem,
    ) {
        self.host_continues(cores, mem);
        let (lo, hi) = (u64::from(ptr), u64::from(ptr) + len as u64);
        for id in self.global_rows(lo, hi) {
            let row = &self.rows.slab[id as usize];
            let Mark::Global { word: first } = row.at else {
                unreachable!("global rows")
            };
            // The bytes of each word of the row the upload left alone.
            let kept: [u32; 32] = std::array::from_fn(|l| {
                let addr = (u64::from(first) + l as u64) * 4;
                (0..4u64)
                    .filter(|b| !(lo..hi).contains(&(addr + b)))
                    .fold(0u32, |k, b| k | 0xff << (8 * b))
            });
            let hit = (0..32).fold(0u32, |m, l| m | u32::from(kept[l] != !0) << l);
            let writes: Vec<(usize, u32, [u32; 32])> = row
                .holders
                .iter()
                .filter(|h| h.held & hit != 0)
                .map(|h| {
                    let d = self.rows.delta(h);
                    let delta = std::array::from_fn(|l| d[l] & kept[l]);
                    (h.plan as usize, h.held & hit, delta)
                })
                .collect();
            for (p, which, delta) in writes {
                self.write(p, id, which, &delta, 0, true);
            }
            let on = self
                .rows
                .find(Mark::Global { word: first })
                .map_or(0, |id| self.rows.row(id).held());
            for l in lanes(hit) {
                mem.set_word_mark(first + l as u32, on >> l & 1 != 0);
            }
        }
    }

    /// The current launch ended: the L1s are flushed, so every word loads
    /// exactly from now on.
    pub(crate) fn launch_end(&mut self, mem: &mut MemSystem) {
        self.copies(mem);
        self.launch_tops.push(self.tops);
        self.tops = 0;
        let ids: Vec<u32> = self.rows.global.values().copied().collect();
        for id in ids {
            let row = &mut self.rows.slab[id as usize];
            let Mark::Global { word: first } = row.at else {
                unreachable!("global rows")
            };
            let touched = row.holders.iter_mut().fold(0, |m, h| {
                let t = h.touched;
                h.touched = 0;
                m | t
            });
            let off = touched & !row.held();
            for l in lanes(off) {
                mem.set_word_mark(first + l as u32, false);
            }
            self.prune(id);
        }
    }

    /// How the recording's shadow of every plan ended, given the cycles of
    /// the snapshots the store keeps, and the lanes all of them evaluated.
    pub(crate) fn finish(self, snapshots: &[u64]) -> (HashMap<InjectionPlan, Shadow>, u64) {
        // The global words each plan ends holding a delta of.
        let mut words = vec![Vec::new(); self.plans.len()];
        for &id in self.rows.global.values() {
            let row = self.rows.row(id);
            let Mark::Global { word: first } = row.at else {
                unreachable!("global rows")
            };
            for h in &row.holders {
                let d = self.rows.delta(h);
                let held = lanes(h.held).filter(|&l| d[l] != 0);
                words[h.plan as usize].extend(held.map(|l| ((first + l as u32) * 4, d[l])));
            }
        }
        let launch_tops = self.launch_tops;
        let shadows = self
            .plans
            .into_iter()
            .zip(words)
            .map(|(s, words)| (s.plan.clone(), s.shadow(&launch_tops, snapshots, words)))
            .collect();
        (shadows, self.lane_ops)
    }
}

/// The slots one logged instruction names: warp `warp` of CTA `seq` on
/// SM `sm` executing `uop`.
struct Slots {
    sm: u32,
    seq: u64,
    warp: u32,
    uop: Uop,
}

impl Slots {
    /// The row of register `r`: its lane 0.
    fn row(&self, r: u8) -> Mark {
        Mark::Reg {
            sm: self.sm,
            seq: self.seq,
            warp: self.warp,
            reg: u16::from(r),
            lane: 0,
        }
    }

    /// The memory word lane `l` accesses, its address taken from the
    /// golden `a` row.
    fn word(&self, rows: &[[u32; 32]; 3], l: usize) -> Mark {
        let word = rows[0][l].wrapping_add(self.uop.mem_offset() as u32) / 4;
        match self.uop.op {
            UopOp::LdShared | UopOp::StShared => Mark::Smem {
                sm: self.sm,
                seq: self.seq,
                word,
            },
            _ => Mark::Global { word },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;
    use crate::fault::Scope;
    use crate::{CheckpointStore, Gpu, GpuConfig, LaunchDims, Trap};
    use gpufi_isa::Module;
    use std::sync::Arc;

    /// Runs kernel `k` of `module` on one 32-thread CTA over a 64-word
    /// buffer holding 1..=64 (`R0`, with `R1 = 16`) and reads the buffer
    /// back; with `relaunch`, reads it between two launches too.  `None`
    /// on an error.
    fn host(module: &Module, gpu: &mut Gpu, relaunch: bool) -> Option<Vec<u8>> {
        let k = module.kernel("k")?;
        let buf = gpu.malloc(64 * 4).ok()?;
        gpu.write_u32s(buf, &(1..=64).collect::<Vec<u32>>()).ok()?;
        let dims = LaunchDims::new(1, 32);
        gpu.launch(k, dims, &[buf, 16]).ok()?;
        if relaunch {
            gpu.read_u32s(buf, 64).ok()?;
            gpu.launch(k, dims, &[buf, 16]).ok()?;
        }
        let out = gpu.read_u32s(buf, 64).ok()?;
        Some(out.iter().flat_map(|v| v.to_le_bytes()).collect())
    }

    /// A warp-scope flip of bit `bit` of register `reg` in every lane of
    /// the one warp, as the launch starts.
    fn flip(reg: u32, bit: u8) -> InjectionPlan {
        flip_at(0, reg, bit)
    }

    /// [`flip`] at cycle `cycle`.
    fn flip_at(cycle: u64, reg: u32, bit: u8) -> InjectionPlan {
        InjectionPlan::single(
            cycle,
            FaultTarget::RegisterFile {
                scope: Scope::Warp,
                entry_lot: 0,
                reg,
                bits: vec![bit],
            },
        )
    }

    /// The module of `body` after a prologue that puts the lane's word
    /// address in `R3` and its thread index in `R2`.
    fn kernel(body: &str) -> Module {
        let src = format!(
            ".kernel k\n.params 2\n.lmem 4\n.smem 256\n S2R R2, SR_TID.X\n SHL R3, R2, 2\n IADD R3, R0, R3\n{body}\n EXIT\n"
        );
        Module::assemble(&src).unwrap()
    }

    /// The RTX 2060 with one SM.
    fn one_sm() -> GpuConfig {
        let mut card = GpuConfig::rtx2060();
        card.num_sms = 1;
        card
    }

    /// The store of a one-SM recording of `body` (see [`kernel`])
    /// shadowing `plan`, with its output replay.
    fn record(body: &str, plan: &InjectionPlan, relaunch: bool) -> CheckpointStore {
        record_on(&one_sm(), &kernel(body), plan, relaunch)
    }

    /// The store of a recording of `module` on `card`, a checkpoint every
    /// 4 cycles, shadowing `plan`, with its output replay.
    fn record_on(
        card: &GpuConfig,
        module: &Module,
        plan: &InjectionPlan,
        relaunch: bool,
    ) -> CheckpointStore {
        let golden = host(module, &mut Gpu::new(card.clone()), relaunch).unwrap();
        let mut gpu = Gpu::new(card.clone());
        gpu.record_checkpoints(4, 1 << 30);
        gpu.shadow_plans([plan]);
        assert_eq!(host(module, &mut gpu, relaunch).as_ref(), Some(&golden));
        gpu.finish_checkpoint_recording_with(&golden, |g| host(module, g, relaunch))
    }

    /// How `plan`'s run of `module` on `card` ends, forked from `store` as
    /// a campaign forks it: whether early, and whether by reconverging.
    /// The host program is [`host`]'s, with a second launch if
    /// `relaunch`.
    fn forked(
        card: &GpuConfig,
        module: &Module,
        store: CheckpointStore,
        plan: &InjectionPlan,
        relaunch: bool,
    ) -> (bool, bool) {
        let store = Arc::new(store);
        let mut gpu = Gpu::new(card.clone());
        let first = plan.faults.iter().map(|f| f.cycle).min().unwrap();
        let idx = store.nearest_at_or_before(first).expect("a fork");
        gpu.resume_from(&store, idx);
        gpu.arm_faults(plan.clone());
        gpu.set_early_exit(true);
        let buf = gpu.malloc(64 * 4).unwrap();
        gpu.write_u32s(buf, &(1..=64).collect::<Vec<u32>>())
            .unwrap();
        let (k, dims) = (module.kernel("k").unwrap(), LaunchDims::new(1, 32));
        let mut end = gpu.launch(k, dims, &[buf, 16]).err();
        if relaunch && end.is_none() {
            gpu.read_u32s(buf, 64).unwrap();
            end = gpu.launch(k, dims, &[buf, 16]).err();
        }
        let early = matches!(end, Some(Trap::FaultsExpired | Trap::Reconverged));
        (early, end == Some(Trap::Reconverged))
    }

    /// `plan`'s verdict on `body` (see [`kernel`]): settled Masked and
    /// applied, with its fork's early exit and reconvergence, which are
    /// returned.
    fn masked(card: &GpuConfig, body: &str, plan: &InjectionPlan) -> (bool, bool) {
        let module = kernel(body);
        let store = record_on(card, &module, plan, false);
        let settled = store.settle(plan).expect("settled");
        assert_eq!(store.shadow_tally().masked, 1);
        let run = forked(card, &module, store, plan, false);
        let told = (settled.early_exit, settled.reconverged);
        assert_eq!(
            (settled.effect, settled.applied, told),
            (SettledEffect::Masked, true, run)
        );
        run
    }

    /// Sixteen loop iterations, counted in `R6`, labelled `name`.
    fn pad(name: &str) -> String {
        format!(" MOV R6, 0\n{name}:\n IADD R6, R6, 1\n ISETP.LT P1, R6, 16\n@P1 BRA {name}\n")
    }

    /// `plan` left the group by `rule`, and is not settled.
    fn left(store: &CheckpointStore, plan: &InjectionPlan, rule: Leave) {
        assert_eq!(store.left_by(plan), Some(rule));
        assert_eq!(store.settle(plan), None);
    }

    #[test]
    fn a_faulty_value_stored_and_read_back_settles_sdc() {
        let plan = flip(1, 0);
        let store = record(" IADD R4, R1, R2\n STG [R3], R4", &plan, false);
        let sdc = Settled {
            effect: SettledEffect::Sdc,
            applied: true,
            early_exit: false,
            reconverged: false,
        };
        assert_eq!(store.settle(&plan), Some(sdc));
        assert_eq!(store.left_by(&plan), None);
        let t = store.shadow_tally();
        assert_eq!((t.plans, t.sdc, t.lane_ops), (1, 1, 64));
        // Masked to zero before the store, `R1` faulty to the end: Masked,
        // and the run goes on to the golden end.
        let plan = flip(1, 4);
        let store = record(" AND R4, R1, 15\n STG [R3], R4", &plan, false);
        let ran_out = Settled {
            effect: SettledEffect::Masked,
            early_exit: false,
            ..sdc
        };
        assert_eq!(store.settle(&plan), Some(ran_out));
        assert_eq!(store.shadow_tally().masked, 1);
    }

    #[test]
    fn an_address_leaves() {
        let plan = flip(0, 3);
        left(
            &record(" LDG R4, [R3]\n STG [R3+128], R4", &plan, false),
            &plan,
            Leave::Address,
        );
        // A load's address alone, and a shared-memory store's.
        let plan = flip(1, 2);
        let body = " IADD R5, R0, R1\n LDG R4, [R5]\n STG [R3], R4";
        left(&record(body, &plan, false), &plan, Leave::Address);
        let body = " STS [R1], R2\n STG [R3], R2";
        left(&record(body, &plan, false), &plan, Leave::Address);
    }

    #[test]
    fn a_predicate_that_differs_leaves() {
        // 16 turns 17: lane 16's predicate differs.
        let plan = flip(1, 0);
        let body = " ISETP.GE P0, R2, R1\n SEL R4, R2, R0, P0\n STG [R3], R4";
        left(&record(body, &plan, false), &plan, Leave::Predicate);
        // 16 turns 48, as non-negative as 16: every predicate holds, and
        // the stored value is faulty.
        let body = " ISETP.GE P0, R1, 0\n@P0 STG [R3], R1";
        let store = record(body, &flip(1, 5), false);
        assert_eq!(
            store.settle(&flip(1, 5)).map(|s| s.effect),
            Some(SettledEffect::Sdc)
        );
        left(
            &record(body, &flip(1, 31), false),
            &flip(1, 31),
            Leave::Predicate,
        );
    }

    #[test]
    fn a_local_or_constant_access_leaves() {
        let plan = flip(1, 0);
        let body = " MOV R5, 0\n STL [R5], R1\n LDL R4, [R5]\n STG [R3], R4";
        left(&record(body, &plan, false), &plan, Leave::LocalOrConst);
        let body = " LDC R4, [R1]\n STG [R3], R4";
        left(&record(body, &plan, false), &plan, Leave::LocalOrConst);
    }

    #[test]
    fn a_load_of_a_word_stored_in_the_launch_leaves() {
        let plan = flip(1, 0);
        let body = " STG [R3], R1\n LDG R4, [R3]\n STG [R3+128], R4";
        left(&record(body, &plan, false), &plan, Leave::StaleLoad);
        // Killed, too: a golden store over the faulty word.
        let body = " STG [R3], R1\n STG [R3], R2\n LDG R4, [R3]\n STG [R3+128], R4";
        left(&record(body, &plan, false), &plan, Leave::StaleLoad);
    }

    #[test]
    fn a_host_read_a_launch_follows_leaves() {
        let plan = flip(1, 0);
        left(
            &record(" STG [R3], R1", &plan, true),
            &plan,
            Leave::HostRead,
        );
    }

    #[test]
    fn a_later_lane_storing_to_the_same_word_wins() {
        // Every lane stores to the buffer's first word, lanes 0..=30 a
        // faulty value and lane 31, last, its golden thread index: the
        // word ends golden, and the plan is settled Masked, not SDC.
        let plan = flip(1, 0);
        let body = " ISETP.LT P0, R2, 31\n SEL R4, R1, R2, P0\n STG [R0], R4";
        let store = record(body, &plan, false);
        assert_eq!(
            store.settle(&plan).map(|s| s.effect),
            Some(SettledEffect::Masked)
        );
        assert_eq!(store.final_deltas(&plan), []);
        // Lanes 30 and 31 store the faulty value instead: the word ends
        // faulty.
        let body = body.replace(", 31", ", 30").replace("R1, R2", "R2, R1");
        let store = record(&body, &plan, false);
        assert_eq!(
            store.settle(&plan).map(|s| s.effect),
            Some(SettledEffect::Sdc)
        );
    }

    #[test]
    fn deltas_dying_before_a_checkpoint_reconverge_there() {
        // `R1` is read into `R4`, then both are overwritten: the
        // checkpoint after that is the golden one.
        let body = format!(
            "{} IADD R4, R1, R2\n MOV R1, 0\n MOV R4, 0\n{} STG [R3], R2",
            pad("a"),
            pad("b")
        );
        assert_eq!(masked(&one_sm(), &body, &flip_at(10, 1, 0)), (true, true));
    }

    #[test]
    fn deltas_dying_after_the_last_checkpoint_run_out() {
        // `R1` and `R4` hold faulty values until the threads exit, after
        // every checkpoint.
        let body = format!("{} IADD R4, R1, R2\n{}", pad("a"), pad("b"));
        assert_eq!(masked(&one_sm(), &body, &flip_at(10, 1, 0)), (false, false));
    }

    #[test]
    fn a_lane_exit_death_in_a_resident_cta_reconverges() {
        // Lanes 0–15 exit holding a faulty `R1`, the others overwrite it:
        // the exited lanes' registers keep their values while their CTA
        // runs on, but nothing reads them again, so the fork reconverges.
        let body = format!(
            "{} IADD R4, R1, R2\n MOV R4, 0\n ISETP.LT P0, R2, 16\n@P0 EXIT\n MOV R1, 0\n{} STG [R3], R2",
            pad("a"),
            pad("b")
        );
        assert_eq!(masked(&one_sm(), &body, &flip_at(10, 1, 0)), (true, true));
        // Every lane overwrites it before the exit: reconverged too.
        let body = body.replace("@P0 EXIT\n MOV R1, 0", " MOV R1, 0\n@P0 EXIT");
        assert_eq!(masked(&one_sm(), &body, &flip_at(10, 1, 0)), (true, true));
    }

    #[test]
    fn a_faulty_l2_writeback_later_overwritten_is_not_settled() {
        // A one-line L2 without an L1D: the faulty words of line A are
        // written back to DRAM when line B is loaded, then overwritten
        // with golden ones in the L2, whose dirty line stays resident to
        // the end.  Every slot died, but DRAM holds the faulty words: the
        // fork never reconverges, and the store does not settle it.
        let mut card = one_sm();
        card.l1d = None;
        card.l2 = CacheConfig {
            sets: 1,
            ways: 1,
            line_bytes: 128,
        };
        card.num_l2_banks = 1;
        let body = format!(
            "{} IADD R4, R1, R2\n STG [R3], R4\n MOV R1, 0\n MOV R4, 0\n LDG R5, [R3+128]\n STG [R3], R2\n{}",
            pad("a"),
            pad("b")
        );
        let (module, plan) = (kernel(&body), flip_at(10, 1, 0));
        let store = record_on(&card, &module, &plan, false);
        assert_eq!(store.settle(&plan), None);
        assert_eq!(store.shadow_tally().kept, 1);
        assert_eq!(forked(&card, &module, store, &plan, false), (false, false));
        // Without the load of line B, line A stays in the L2 and its
        // faulty words never leave it: the fork reconverges once they
        // are overwritten.
        let body = body.replace(" LDG R5, [R3+128]\n", "");
        assert_eq!(masked(&card, &body, &plan), (true, true));
    }

    /// One SM of [`one_sm`] with room for three warps: one warp's
    /// occupancy rate is 1/3.
    fn one_warp_of_three() -> GpuConfig {
        let mut card = one_sm();
        card.max_threads_per_sm = 3 * 32;
        card
    }

    /// A body whose `R1`, read after a load's long fast-forward gap into
    /// `R4`, dies with it there.
    fn after_a_load() -> String {
        format!(
            "{} LDG R5, [R3]\n IADD R4, R1, R5\n MOV R1, 0\n MOV R4, 0\n{} STG [R3], R2",
            pad("a"),
            pad("b")
        )
    }

    #[test]
    fn gap_faults_settle_reconverged_like_their_forks() {
        // A fork stops at a fault inside a fast-forward gap, but adds the
        // gap's occupancy in one piece, as the golden run does.  With one
        // warp of three per SM the occupancy rate is 1/3, which rounds
        // differently added in two pieces at every third cycle of the
        // load's 267-cycle gap, and at 46 inside a 3-cycle step: every
        // fork reconverges all the same.
        let (card, module) = (one_warp_of_three(), kernel(&after_a_load()));
        for cycle in (380..=400).chain([46]) {
            let plan = flip_at(cycle, 1, 0);
            let store = record_on(&card, &module, &plan, false);
            let settled = store.settle(&plan).expect("settled");
            let run = forked(&card, &module, store, &plan, false);
            let told = (settled.effect, settled.early_exit, settled.reconverged);
            assert_eq!(told, (SettledEffect::Masked, true, true), "cycle {cycle}");
            assert_eq!(run, (true, true), "cycle {cycle}");
        }
    }

    #[test]
    fn a_gap_fault_in_a_first_launch_reconverges_in_the_second() {
        // At 384 the gap's two pieces round to other sums than its one,
        // at 385 they do not: added in one piece, both runs end the first
        // launch on the golden statistics, and both forks reconverge in
        // the second.
        let (card, module) = (one_warp_of_three(), kernel(&after_a_load()));
        for cycle in [384, 385] {
            let plan = flip_at(cycle, 1, 0);
            let store = record_on(&card, &module, &plan, true);
            let settled = store.settle(&plan).expect("settled");
            assert_eq!((settled.early_exit, settled.reconverged), (true, true));
            assert_eq!(forked(&card, &module, store, &plan, true), (true, true));
        }
    }

    #[test]
    fn a_cold_run_with_a_gap_fault_ends_every_launch_on_golden_statistics() {
        let (card, module) = (one_warp_of_three(), kernel(&after_a_load()));
        let mut golden = Gpu::new(card.clone());
        let out = host(&module, &mut golden, true).unwrap();
        let mut gpu = Gpu::new(card);
        gpu.arm_faults(flip_at(384, 1, 0));
        assert_eq!(host(&module, &mut gpu, true), Some(out));
        assert!(gpu.injection_records()[0].applied);
        let (run, golden) = (&gpu.stats().launches, &golden.stats().launches);
        assert_eq!(run.len(), 2);
        assert_eq!(run, golden);
        for (a, b) in run.iter().zip(golden) {
            let bits = |s: &crate::LaunchStats| {
                [s.occupancy, s.mean_threads_per_sm, s.mean_ctas_per_sm].map(f64::to_bits)
            };
            assert_eq!(bits(a), bits(b), "{}", a.kernel);
        }
    }

    #[test]
    fn a_plan_evaluating_thousands_of_lanes_settles_sdc() {
        // Each iteration evaluates 32 lanes, and so does the store: 64
        // iterations pass 2^10 lanes twice over.
        let plan = flip(1, 0);
        let body = " MOV R4, 0\n MOV R5, 0\nloop:\n IADD R4, R4, R1\n IADD R5, R5, 1\n ISETP.LT P0, R5, 64\n@P0 BRA loop\n STG [R3], R4";
        let store = record(body, &plan, false);
        assert_eq!(store.shadow_tally().lane_ops, 65 * 32);
        assert_eq!(store.left_by(&plan), None);
        assert_eq!(
            store.settle(&plan).map(|s| s.effect),
            Some(SettledEffect::Sdc)
        );
    }
}
