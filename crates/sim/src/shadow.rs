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
//! A plan leaves the group — its run is simulated — as soon as its values
//! reach anything but data ([`Leave`]): an address operand, a `SETP` that
//! computes another predicate, a local- or constant-memory access, a
//! global or texture load of a word whose delta was stored or killed in
//! the current launch (an L1 may hold it stale; `Gpu::launch` flushes the
//! L1s at every launch end and the L2 is coherent, so a word stored in an
//! earlier launch loads exactly), a host read of a faulty word that a
//! later launch, upload or constant write follows, or [`WORK_CAP`] lane
//! evaluations.  A run of a plan still in the group at the end takes the
//! golden run's every branch and address, so it ends at the golden cycle
//! count; the host reads after the last launch are all that differs, and
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

use crate::core::{lane, resolve, Event, KernelCtx, Log, Mark, SimtCore, Site};
use crate::fast_hash::FastMap;
use crate::fault::{FaultTarget, InjectionPlan};
use crate::gpu::EE_STRIDE;
use crate::mem::MemSystem;
use crate::snapshot::{Settled, SettledEffect};
use gpufi_isa::decode::{Uop, UopOp, NO_REG};
use std::collections::HashMap;

/// The most lane evaluations one plan's values may cost the recording
/// before the plan leaves the group.  Sized by the pilot in
/// EXPERIMENTS.md: the heaviest HS shared-memory plan evaluates fewer
/// than 512 lanes, while NW rf plans whose faulty values spread over
/// the grid would cost the recording pass (and a stratified campaign's
/// set-up) several times more than the forks they save.
pub(crate) const WORK_CAP: u64 = 1 << 10;

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
    /// The plan's evaluations passed the work cap (2^10 lanes).
    WorkCap,
}

impl Leave {
    /// Every rule, in the order the docs give them.
    pub const ALL: [Leave; 6] = [
        Leave::Address,
        Leave::Predicate,
        Leave::LocalOrConst,
        Leave::StaleLoad,
        Leave::HostRead,
        Leave::WorkCap,
    ];
}

/// How the recording's shadow of one plan ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Shadow {
    /// Every flip died unread.
    Unread(Settled),
    /// Still in the group, its faulty words read by the host after the
    /// last launch: `(journal op, word address, delta)` per word read.
    Output(Vec<(usize, u32, u32)>),
    /// An [`Shadow::Output`] plan whose patched output differs from the
    /// golden one: SDC.
    Sdc,
    /// Still in the group with no faulty word read, or read into the
    /// golden output.
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
    /// Every slot some plan holds, with each holder and its delta.
    slots: FastMap<Mark, Holders>,
    /// The global words each plan stored or killed a delta of in the
    /// current launch.
    touched: FastMap<u32, Vec<usize>>,
    /// Plans the host read faulty words of, since the last launch.
    reading: Vec<usize>,
    /// Plans that left since their slots were last dropped.
    leaving: Vec<usize>,
    /// Loop tops of every finished launch.
    launch_tops: Vec<u64>,
    /// Loop tops of the current launch so far.
    tops: u64,
    /// Scratch: one core's drained log, and one event's holders as
    /// `(plan, operand, lane, delta)`.
    log: Log,
    held: Vec<(usize, u8, u8, u32)>,
    /// The destination lanes some plan holds after the instruction being
    /// evaluated.
    dst_held: u32,
}

/// The plans holding one slot, each with its delta: the usual single
/// one inline.
#[derive(Debug, Clone)]
enum Holders {
    One((usize, u32)),
    Many(Vec<(usize, u32)>),
}

impl Holders {
    fn get(&self) -> &[(usize, u32)] {
        match self {
            Holders::One(e) => std::slice::from_ref(e),
            Holders::Many(v) => v,
        }
    }
}

#[derive(Debug)]
struct Shadowed {
    plan: InjectionPlan,
    /// Faults not fired yet.
    unfired: usize,
    applied: bool,
    /// Slots held now, and every slot ever taken.
    live: usize,
    taken: Vec<Mark>,
    /// Whether a slot of the plan was read: its run's taint escaped.
    read: bool,
    left: Option<Leave>,
    /// Lanes evaluated with the plan's operands.
    work: u64,
    /// The faulty words the host read: `(journal op, word address, delta)`.
    outputs: Vec<(usize, u32, u32)>,
    /// Where the last fault fired: the launch, the loop top's index in it
    /// and whether the fault's cycle precedes that top (a run stops there).
    fired: (usize, u64, bool),
    /// The index of the iteration the last live slot died in, once every
    /// fault fired; `None` while none died since.
    died: Option<u64>,
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
        })
    }

    /// How the recording's shadow of the plan ended.
    fn shadow(self, launch_tops: &[u64]) -> Shadow {
        if let Some(settled) = self.unread(launch_tops) {
            Shadow::Unread(settled)
        } else if let Some(leave) = self.left {
            Shadow::Left(leave)
        } else if !self.outputs.is_empty() {
            Shadow::Output(self.outputs)
        } else {
            Shadow::Kept
        }
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

/// How lane `l`'s result of the data-path op `op` differs when its
/// operands `rows` (`a`, `b`, `c`, as the core logged them) differ in
/// that lane by `delta`, with `SEL` selector predicate `sel`: the XOR of
/// the values [`lane::value`] gives the golden and the faulty operands,
/// or for a `SETP` 1 if [`lane::pred`] differs.
pub(crate) fn lane_delta(
    op: UopOp,
    rows: &[[u32; 32]; 3],
    delta: [u32; 3],
    sel: u32,
    l: usize,
) -> u32 {
    let faulty = |i: usize| rows[i][l] ^ delta[i];
    if lane::is_setp(op) {
        u32::from(lane::pred(op, rows[0][l], rows[1][l]) != lane::pred(op, faulty(0), faulty(1)))
    } else {
        let s = sel >> l & 1 != 0;
        let golden = lane::value(op, rows[0][l], rows[1][l], rows[2][l], s);
        golden ^ lane::value(op, faulty(0), faulty(1), faulty(2), s)
    }
}

/// Operand indices of [`Shadows::held`] entries past `a`, `b`, `c` and
/// the destination: the lane's memory word, and a global word the plan
/// stored or killed a delta of in the current launch.
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
                taken: Vec::new(),
                read: false,
                left: None,
                work: 0,
                outputs: Vec::new(),
                fired: (0, 0, false),
                died: None,
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
            slots: HashMap::default(),
            touched: HashMap::default(),
            reading: Vec::new(),
            leaving: Vec::new(),
            launch_tops: Vec::new(),
            tops: 0,
            log: Log::default(),
            held: Vec::new(),
            dst_held: 0,
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
                match self.delta(p, m) {
                    // A transient flip of a shared-memory bit is a toggle.
                    Some(d) if matches!(m, Mark::Smem { .. }) && d == bits => {
                        self.release(p, m, false);
                        if !self.slots.contains_key(&m) {
                            cores[sm].set_mark(m, false);
                        }
                    }
                    Some(d) => self.hold(p, m, d ^ bits),
                    None => {
                        self.hold(p, m, bits);
                        cores[sm].set_mark(m, true);
                    }
                }
            }
        }
    }

    /// Plan `p`'s delta of slot `m`, if it holds one.
    fn delta(&self, p: usize, m: Mark) -> Option<u32> {
        let h = self.slots.get(&m)?;
        h.get().iter().find(|e| e.0 == p).map(|e| e.1)
    }

    /// Sets plan `p`'s delta of slot `m` to `d`.
    fn hold(&mut self, p: usize, m: Mark, d: u32) {
        use std::collections::hash_map::Entry;
        match self.slots.entry(m) {
            Entry::Vacant(v) => {
                v.insert(Holders::One((p, d)));
            }
            Entry::Occupied(o) => {
                let h = o.into_mut();
                match h {
                    Holders::One(e) if e.0 == p => return e.1 = d,
                    Holders::One(e) => *h = Holders::Many(vec![*e, (p, d)]),
                    Holders::Many(v) => match v.iter_mut().find(|e| e.0 == p) {
                        Some(e) => return e.1 = d,
                        None => v.push((p, d)),
                    },
                }
            }
        }
        let s = &mut self.plans[p];
        s.live += 1;
        s.taken.push(m);
    }

    /// Removes plan `p` from the holders of slot `m`, and the slot once
    /// no plan holds it; whether `p` held it.
    fn unhold(&mut self, p: usize, m: Mark) -> bool {
        let Some(h) = self.slots.get_mut(&m) else {
            return false;
        };
        let empty = match h {
            Holders::One(e) if e.0 == p => true,
            Holders::One(_) => return false,
            Holders::Many(v) => {
                let Some(i) = v.iter().position(|e| e.0 == p) else {
                    return false;
                };
                v.swap_remove(i);
                v.is_empty()
            }
        };
        if empty {
            self.slots.remove(&m);
        }
        true
    }

    /// Ends plan `p`'s hold of slot `m`, if any; a death when `dies` (not
    /// a toggle back) counts for the early exit.
    fn release(&mut self, p: usize, m: Mark, dies: bool) {
        if !self.unhold(p, m) {
            return;
        }
        let at = self.tops - 1;
        let s = &mut self.plans[p];
        s.live -= 1;
        if dies && s.live == 0 && s.unfired == 0 {
            s.died = Some(at);
        }
    }

    /// Sets plan `p`'s delta of slot `m` to `d`, or ends it when `d` is 0.
    fn set(&mut self, p: usize, m: Mark, d: u32) {
        if d == 0 {
            self.release(p, m, true);
        } else {
            self.hold(p, m, d);
        }
    }

    /// [`Shadows::set`] for the destination register `m` of lane `l`,
    /// noting the lane as held if `d` is not 0.
    fn set_dst(&mut self, p: usize, m: Mark, d: u32, l: usize) {
        self.set(p, m, d);
        if d != 0 {
            self.dst_held |= 1 << l;
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
                Event::Kill {
                    mark:
                        Mark::Reg {
                            sm, seq, warp, reg, ..
                        },
                    lanes: dead,
                } => {
                    for l in lanes(dead) {
                        let lane = l as u8;
                        self.kill(Mark::Reg {
                            sm,
                            seq,
                            warp,
                            reg,
                            lane,
                        });
                    }
                }
                Event::Kill { mark, .. } => self.kill(mark),
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

    /// Slot `m` died: every plan holding it loses it.
    fn kill(&mut self, m: Mark) {
        let at = self.tops - 1;
        for &(p, _) in self.slots.remove(&m).as_ref().map_or(&[][..], Holders::get) {
            let s = &mut self.plans[p];
            s.live -= 1;
            if s.live == 0 && s.unfired == 0 {
                s.died = Some(at);
            }
        }
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
        self.dst_held = 0;
        let mut held = std::mem::take(&mut self.held);
        for (i, &r) in regs.iter().enumerate() {
            let mut todo = marked[i];
            // An earlier operand naming the same register was looked up.
            if let Some(j) = (0..i).find(|&j| regs[j] == r && marked[j] != 0) {
                let shared = todo & marked[j];
                for k in 0..held.len() {
                    let (p, o, l, d) = held[k];
                    if usize::from(o) == j && shared >> l & 1 != 0 {
                        held.push((p, i as u8, l, d));
                    }
                }
                todo &= !shared;
            }
            for l in lanes(todo) {
                for &(p, d) in self.slots.get(&at.reg(r, l)).map_or(&[][..], Holders::get) {
                    held.push((p, i as u8, l as u8, d));
                }
            }
        }
        let global_load = matches!(u.op, UopOp::LdGlobal | UopOp::LdTex);
        for l in lanes(words) {
            let m = at.word(rows, l);
            for &(p, d) in self.slots.get(&m).map_or(&[][..], Holders::get) {
                held.push((p, WORD, l as u8, d));
            }
            if let (true, Mark::Global { word }) = (global_load, m) {
                for &p in self.touched.get(&word).into_iter().flatten() {
                    held.push((p, TOUCHED, l as u8, 0));
                }
            }
        }
        held.sort_unstable_by_key(|e| e.0);
        for plan in held.chunk_by(|x, y| x.0 == y.0) {
            let p = plan[0].0;
            if self.plans[p].left.is_some() {
                continue;
            }
            let mut delta = [[0u32; 32]; 5];
            let mut has = [0u32; 6];
            for &(_, i, l, d) in plan {
                if let Some(row) = delta.get_mut(usize::from(i)) {
                    row[usize::from(l)] = d;
                }
                has[usize::from(i)] |= 1 << l;
            }
            let operands = has[0] | has[1] | has[2];
            let loads = matches!(u.op, UopOp::LdShared | UopOp::LdGlobal | UopOp::LdTex);
            if operands != 0 || (loads && has[4] != 0) {
                self.plans[p].read = true;
            }
            let work = self.eval(p, at, mask, rows, sel, &delta, has);
            let s = &mut self.plans[p];
            s.work += u64::from(work);
            if s.work > WORK_CAP {
                self.leave(p, Leave::WorkCap);
            }
        }
        held.clear();
        self.held = held;
        // Narrow what the core spread: destination lanes a marked operand
        // or word reached, and every stored word.
        let spread = if lane::writes_value(u.op) {
            marked[0] | marked[1] | marked[2]
        } else {
            words
        };
        if u.dst != NO_REG && spread & mask != 0 {
            core.set_reg_marks(at.seq, at.warp, u.dst, spread & mask, self.dst_held);
        }
        if matches!(u.op, UopOp::StShared | UopOp::StGlobal) {
            for l in lanes((marked[2] | words) & mask) {
                let m = at.word(rows, l);
                match m {
                    Mark::Global { word } => {
                        let on = self.slots.contains_key(&m) || self.touched.contains_key(&word);
                        mem.set_word_mark(word, on);
                    }
                    _ => core.set_mark(m, self.slots.contains_key(&m)),
                }
            }
        }
    }

    /// Evaluates instruction `at.uop` for plan `p`, whose deltas of its
    /// operands `a`, `b`, `c`, destination and memory words are `delta`
    /// on lanes `has`, and which stored or killed the global words of
    /// lanes `has[TOUCHED]` in the current launch; returns the lanes
    /// evaluated.
    #[allow(clippy::too_many_arguments)]
    fn eval(
        &mut self,
        p: usize,
        at: &Slots,
        mask: u32,
        rows: &[[u32; 32]; 3],
        sel: u32,
        delta: &[[u32; 32]; 5],
        has: [u32; 6],
    ) -> u32 {
        let u = at.uop;
        let op = u.op;
        let operands = has[0] | has[1] | has[2];
        let dst = |l| at.reg(u.dst, l);
        let operand_deltas = |l: usize| [delta[0][l], delta[1][l], delta[2][l]];
        match op {
            _ if lane::writes_value(op) => {
                // A lane with a faulty operand gets the value's delta;
                // the other executing lanes overwrite the plan's.
                for l in lanes(mask & (operands | has[3])) {
                    if operands >> l & 1 != 0 {
                        let d = lane_delta(op, rows, operand_deltas(l), sel, l);
                        self.set_dst(p, dst(l), d, l);
                    } else if has[3] >> l & 1 != 0 {
                        self.release(p, dst(l), true);
                    }
                }
                operands.count_ones()
            }
            _ if lane::is_setp(op) => {
                let differs =
                    lanes(operands).any(|l| lane_delta(op, rows, operand_deltas(l), sel, l) != 0);
                if differs {
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
                for l in lanes(mask & (has[4] | has[3])) {
                    self.set_dst(p, dst(l), delta[usize::from(WORD)][l], l);
                }
                has[4].count_ones()
            }
            UopOp::StShared | UopOp::StGlobal => {
                if has[0] != 0 {
                    self.leave(p, Leave::Address);
                    return 0;
                }
                // Lane by lane, as the stores land: a later lane's store to
                // the same word wins.  A lane storing a faulty value or over
                // a faulty word counts, and so does one storing to the word
                // such a lane stored to before it.
                let hit = mask & (has[2] | has[4]);
                for l in lanes(mask) {
                    let m = at.word(rows, l);
                    let before = hit & ((1 << l) - 1);
                    if hit >> l & 1 == 0 && !lanes(before).any(|k| at.word(rows, k) == m) {
                        continue;
                    }
                    let d = delta[2][l];
                    if d == 0 && self.delta(p, m).is_none() {
                        continue;
                    }
                    self.set(p, m, d);
                    if let Mark::Global { word } = m {
                        let t = self.touched.entry(word).or_default();
                        if !t.contains(&p) {
                            t.push(p);
                        }
                    }
                }
                has[2].count_ones()
            }
            UopOp::LdLocal | UopOp::StLocal | UopOp::LdConst | UopOp::StConst => {
                if operands != 0 {
                    self.leave(p, Leave::LocalOrConst);
                    return 0;
                }
                for l in lanes(has[3]) {
                    self.release(p, dst(l), true);
                }
                0
            }
            _ => {
                // `S2R`: its destination is overwritten.
                for l in lanes(has[3]) {
                    self.release(p, dst(l), true);
                }
                0
            }
        }
    }

    /// Drops the slots of the plans that left: their runs are simulated.
    /// A slot no other plan holds is unmarked.
    fn drop_left(&mut self, cores: &mut [SimtCore], mem: &mut MemSystem) {
        let mut leaving = std::mem::take(&mut self.leaving);
        for &p in &leaving {
            for m in std::mem::take(&mut self.plans[p].taken) {
                if self.unhold(p, m) && !self.slots.contains_key(&m) {
                    match m {
                        Mark::Reg { sm, .. } | Mark::Smem { sm, .. } => {
                            cores[sm as usize].set_mark(m, false);
                        }
                        Mark::Global { word } => {
                            mem.set_word_mark(word, self.touched.contains_key(&word));
                        }
                    }
                }
            }
        }
        leaving.clear();
        self.leaving = leaving;
    }

    /// The host read `len` bytes at `ptr` by journal op `op`: every plan
    /// in the group records the faulty words it read.
    pub(crate) fn host_read(&mut self, op: usize, ptr: u32, len: usize) {
        let (lo, hi) = (u64::from(ptr), u64::from(ptr) + len as u64);
        for (m, h) in &self.slots {
            let Mark::Global { word } = *m else {
                continue;
            };
            let addr = u64::from(word) * 4;
            if addr + 4 <= lo || addr >= hi {
                continue;
            }
            for &(p, d) in h.get() {
                let s = &mut self.plans[p];
                if s.left.is_none() {
                    if s.outputs.last().is_none_or(|o| o.0 != op) && !self.reading.contains(&p) {
                        self.reading.push(p);
                    }
                    s.outputs.push((op, word * 4, d));
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
        let hit: Vec<Mark> = self
            .slots
            .keys()
            .filter(|m| match **m {
                Mark::Global { word } => {
                    let addr = u64::from(word) * 4;
                    addr + 4 > lo && addr < hi
                }
                _ => false,
            })
            .copied()
            .collect();
        for m in hit {
            let Mark::Global { word } = m else {
                unreachable!("filtered above")
            };
            let addr = u64::from(word) * 4;
            // The bytes of the word the upload left alone.
            let kept = (0..4u64)
                .filter(|b| !(lo..hi).contains(&(addr + b)))
                .fold(0u32, |k, b| k | 0xff << (8 * b));
            let holders = self.slots.get(&m).map_or(Vec::new(), |h| h.get().to_vec());
            for (p, d) in holders {
                self.set(p, m, d & kept);
            }
            mem.set_word_mark(word, self.slots.contains_key(&m));
        }
    }

    /// The current launch ended: the L1s are flushed, so every word loads
    /// exactly from now on.
    pub(crate) fn launch_end(&mut self, mem: &mut MemSystem) {
        self.launch_tops.push(self.tops);
        self.tops = 0;
        for (word, _) in std::mem::take(&mut self.touched) {
            mem.set_word_mark(word, self.slots.contains_key(&Mark::Global { word }));
        }
    }

    /// How the recording's shadow of every plan ended, and the lanes all
    /// of them evaluated.
    pub(crate) fn finish(self) -> (HashMap<InjectionPlan, Shadow>, u64) {
        let launch_tops = self.launch_tops;
        let work = self.plans.iter().map(|s| s.work).sum();
        let shadows = self
            .plans
            .into_iter()
            .map(|s| (s.plan.clone(), s.shadow(&launch_tops)))
            .collect();
        (shadows, work)
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
    /// Register `r` of lane `l`.
    fn reg(&self, r: u8, l: usize) -> Mark {
        Mark::Reg {
            sm: self.sm,
            seq: self.seq,
            warp: self.warp,
            reg: u16::from(r),
            lane: l as u8,
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
    use crate::fault::Scope;
    use crate::{CheckpointStore, Gpu, GpuConfig, LaunchDims};
    use gpufi_isa::Module;

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
        InjectionPlan::single(
            0,
            FaultTarget::RegisterFile {
                scope: Scope::Warp,
                entry_lot: 0,
                reg,
                bits: vec![bit],
            },
        )
    }

    /// The store of a one-SM recording of `body` (after a prologue that
    /// puts the lane's word address in `R3` and its thread index in
    /// `R2`) shadowing `plan`, with its output replay.
    fn record(body: &str, plan: &InjectionPlan, relaunch: bool) -> CheckpointStore {
        let src = format!(
            ".kernel k\n.params 2\n.lmem 4\n.smem 256\n S2R R2, SR_TID.X\n SHL R3, R2, 2\n IADD R3, R0, R3\n{body}\n EXIT\n"
        );
        let module = Module::assemble(&src).unwrap();
        let mut card = GpuConfig::rtx2060();
        card.num_sms = 1;
        let golden = host(&module, &mut Gpu::new(card.clone()), relaunch).unwrap();
        let mut gpu = Gpu::new(card);
        gpu.record_checkpoints(4, 1 << 30);
        gpu.shadow_plans([plan]);
        assert_eq!(host(&module, &mut gpu, relaunch).as_ref(), Some(&golden));
        gpu.finish_checkpoint_recording_with(&golden, |g| host(&module, g, relaunch))
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
        };
        assert_eq!(store.settle(&plan), Some(sdc));
        assert_eq!(store.left_by(&plan), None);
        let t = store.shadow_tally();
        assert_eq!((t.plans, t.sdc, t.lane_ops), (1, 1, 64));
        // Masked to zero before the store: kept, and forked.
        let plan = flip(1, 4);
        let store = record(" AND R4, R1, 15\n STG [R3], R4", &plan, false);
        assert_eq!(store.settle(&plan), None);
        assert_eq!(store.shadow_tally().kept, 1);
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
    fn the_work_cap_leaves() {
        // Each iteration evaluates 32 lanes, and so does the store.
        let plan = flip(1, 0);
        let n = WORK_CAP / 32;
        let body = format!(
            " MOV R4, 0\n MOV R5, 0\nloop:\n IADD R4, R4, R1\n IADD R5, R5, 1\n ISETP.LT P0, R5, {n}\n@P0 BRA loop\n STG [R3], R4"
        );
        left(&record(&body, &plan, false), &plan, Leave::WorkCap);
        // One evaluation fewer stays in the group.
        let body = body.replace(&format!("{n}"), &format!("{}", n - 1));
        let store = record(&body, &plan, false);
        assert_eq!(
            store.settle(&plan).map(|s| s.effect),
            Some(SettledEffect::Sdc)
        );
    }
}
