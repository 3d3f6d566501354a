//! Shadowed plans: the checkpoint recording settles transient
//! register-file and shared-memory plans whose every flip dies unread.
//!
//! A run of such a plan is the golden run until its first fault fires.
//! From there on its flipped values differ from the golden ones only in
//! slots its taint marks, and the run leaves the golden path only by
//! reading one — which latches the taint escape and rules out the early
//! exit.  Until then the run's taint lives and dies exactly as marks laid
//! on the golden run would: a full write, an exit, a CTA's end or a store
//! over the word kills a mark, and only a read of a marked slot makes the
//! run differ.  So the recording pass fires every shadowed plan's faults
//! where a run would fire them — at the first cycle-loop top at or after
//! each fault's cycle — and takes their sites from the resolver the run
//! uses ([`resolve`]): it turns each register or shared-memory site into
//! the taint marks the flip would set, flipping no value, and reduces no
//! lot itself.  The cores log every marked slot the golden run reads or
//! kills, and a plan none of whose marks is ever read gets its run's
//! record without the run: Masked at the golden cycle count, `applied` as
//! [`resolve`] answered, and ended by the early exit if a taint check
//! follows its last mark's death.
//!
//! Marks of different plans never interact: the cores hold their union,
//! and this module which plan holds which slot.  A slot's union mark stays
//! set while some plan holds it, so a plan that flips a shared-memory bit
//! twice (a transient flip is a toggle) clears its own mark alone.
//!
//! The early exit checks a run's taint at the top of the loop iteration
//! its last fault fires in and every `EE_STRIDE`-th iteration after, and
//! at the first iteration of every later launch.  A fault whose cycle
//! falls inside one of the golden run's fast-forward gaps adds one
//! iteration to its run — the loop stops at the fault's cycle — so the
//! run's iteration count from its last fault on is one more than the
//! golden run's.

use crate::core::{resolve, KernelCtx, Mark, SimtCore, Site};
use crate::fast_hash::FastMap;
use crate::fault::{FaultTarget, InjectionPlan};
use crate::gpu::EE_STRIDE;
use crate::mem::MemSystem;
use crate::snapshot::Settled;
use std::collections::HashMap;

/// The recording pass's shadowed plans (see the module docs).
#[derive(Debug)]
pub(crate) struct Shadows {
    plans: Vec<Shadowed>,
    /// Every shadowed fault as `(cycle, plan, fault)`, ascending, and
    /// the index of the first that has not fired yet.
    due: Vec<(u64, usize, usize)>,
    next: usize,
    /// The plans holding each marked slot.
    holders: FastMap<Mark, Vec<usize>>,
    /// Loop tops of every finished launch.
    launch_tops: Vec<u64>,
    /// Loop tops of the current launch so far.
    tops: u64,
    /// Plans that escaped since the last loop top.
    escaped: Vec<usize>,
    /// Scratch: one core's drained taint log.
    log: Vec<(bool, Mark)>,
}

#[derive(Debug)]
struct Shadowed {
    plan: InjectionPlan,
    /// Faults not fired yet.
    unfired: usize,
    applied: bool,
    /// Marks held now, and every mark ever taken.
    live: usize,
    taken: Vec<Mark>,
    escaped: bool,
    /// Where the last fault fired: the launch, the loop top's index in it
    /// and whether the fault's cycle precedes that top (a run stops there).
    fired: (usize, u64, bool),
    /// The index of the iteration the last live mark died in, once every
    /// fault fired; `None` while none died since.
    died: Option<u64>,
}

impl Shadowed {
    /// How the golden run settles the plan, if its every mark died unread.
    fn settled(&self, launch_tops: &[u64]) -> Option<Settled> {
        if self.escaped || self.unfired > 0 || self.live > 0 {
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
            applied: self.applied,
            early_exit,
        })
    }
}

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
                escaped: false,
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
            holders: HashMap::default(),
            launch_tops: Vec::new(),
            tops: 0,
            escaped: Vec::new(),
            log: Vec::new(),
        })
    }

    /// A loop top at `cycle`: fires every shadowed fault due there.
    pub(crate) fn top(
        &mut self,
        cycle: u64,
        cores: &mut [SimtCore],
        mem: &MemSystem,
        ctx: &KernelCtx<'_>,
    ) {
        self.tops += 1;
        self.drop_escaped(cores);
        while let Some(&(at, p, k)) = self.due.get(self.next).filter(|d| d.0 <= cycle) {
            self.next += 1;
            self.fire(p, k, cores, mem, ctx);
            let s = &mut self.plans[p];
            s.unfired -= 1;
            if s.unfired == 0 {
                s.fired = (self.launch_tops.len(), self.tops - 1, at < cycle);
            }
        }
    }

    /// Lays the marks of fault `k` of plan `p` on the sites
    /// [`resolve`] finds for it, as a run's flips would taint them.
    fn fire(
        &mut self,
        p: usize,
        k: usize,
        cores: &mut [SimtCore],
        mem: &MemSystem,
        ctx: &KernelCtx<'_>,
    ) {
        let Shadows { plans, holders, .. } = self;
        let s = &mut plans[p];
        let Some(sites) = resolve(&s.plan.faults[k].target, cores, mem, ctx) else {
            return;
        };
        s.applied = true;
        for site in sites {
            let Site::Core { sm, site } = site else {
                unreachable!("only register-file and shared-memory plans are shadowed")
            };
            let c = &mut cores[sm];
            for m in c.marks(site) {
                let h = holders.entry(m).or_default();
                let held = h.iter().position(|&q| q == p);
                if let (Mark::Smem { .. }, Some(i)) = (m, held) {
                    // A transient flip of a shared-memory bit is a toggle.
                    h.swap_remove(i);
                    s.live -= 1;
                    if h.is_empty() {
                        holders.remove(&m);
                        c.set_mark(m, false);
                    }
                } else {
                    if held.is_none() {
                        h.push(p);
                        s.live += 1;
                        s.taken.push(m);
                    }
                    c.set_mark(m, true);
                }
            }
        }
    }

    /// Applies what `core` logged in the current loop iteration: a kill
    /// ends its holders' marks, a read makes its holders escape.
    pub(crate) fn drain(&mut self, core: &mut SimtCore) {
        core.swap_taint_log(&mut self.log);
        let at = self.tops - 1;
        for (read, m) in self.log.drain(..) {
            if read {
                for &p in self.holders.get(&m).into_iter().flatten() {
                    let s = &mut self.plans[p];
                    if !s.escaped {
                        s.escaped = true;
                        self.escaped.push(p);
                    }
                }
            } else if let Some(h) = self.holders.remove(&m) {
                for p in h {
                    let s = &mut self.plans[p];
                    s.live -= 1;
                    if s.live == 0 && s.unfired == 0 {
                        s.died = Some(at);
                    }
                }
            }
        }
    }

    /// Drops the marks of the plans that escaped since the last top: their
    /// runs left the golden path.  A slot no other plan holds is cleared.
    fn drop_escaped(&mut self, cores: &mut [SimtCore]) {
        for p in std::mem::take(&mut self.escaped) {
            for m in std::mem::take(&mut self.plans[p].taken) {
                let Some(h) = self.holders.get_mut(&m) else {
                    continue;
                };
                h.retain(|&q| q != p);
                if h.is_empty() {
                    self.holders.remove(&m);
                    let (Mark::Reg { sm, .. } | Mark::Smem { sm, .. }) = m;
                    cores[sm as usize].set_mark(m, false);
                }
            }
        }
    }

    /// The current launch ended.
    pub(crate) fn launch_end(&mut self) {
        self.launch_tops.push(self.tops);
        self.tops = 0;
    }

    /// Every shadowed plan the golden run settles, and how.
    pub(crate) fn settled(self) -> HashMap<InjectionPlan, Settled> {
        let launch_tops = self.launch_tops;
        self.plans
            .into_iter()
            .filter_map(|s| {
                let settled = s.settled(&launch_tops)?;
                Some((s.plan, settled))
            })
            .collect()
    }
}
