//! Fault-site resolution: where a planned fault lands (the paper's
//! back-end, §IV.B).
//!
//! At its fire point each of a [`crate::PlannedFault`]'s lots is reduced
//! modulo the live population of its structure, one walk over the cores
//! finds the owning entity, and every planned bit of every replica
//! becomes one concrete [`Site`], in plan order.  [`resolve`] is the only
//! place this happens: `Gpu::apply_fault` flips or pins each site, and
//! the recording pass's shadows (`crate::shadow`) mark each register and
//! shared-memory site, so a settled plan and its fork agree on every
//! site by construction.

use super::{set_bit_at, CtaSite, KernelCtx, Mark, SimtCore, WarpSite, LANES};
use crate::fault::{
    FaultTarget, Scope, SCHED_ENTRY_BITS, SCOREBOARD_ENTRY_BITS, SIMT_STACK_ENTRY_BITS,
};
use crate::mem::{CacheBit, MemSystem};

/// Where one planned bit lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Site {
    /// A site of SM `sm`.
    Core { sm: usize, site: CoreSite },
    /// Bit `bit` of the local-memory segment.
    Local { bit: u64 },
    /// A cache bit.
    Cache(CacheBit),
}

/// A site owned by the CTA in resident slot `cta` of an SM, or by its
/// warp `warp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CoreSite {
    Warp {
        cta: usize,
        warp: usize,
        site: WarpSite,
    },
    Cta {
        cta: usize,
        site: CtaSite,
    },
}

/// Resolves `target` against the live state at its fire point: its sites
/// in the order the fault reaches them, replica by replica and bit by bit.
///
/// `None` when the fault finds nothing to corrupt, which records it as not
/// applied: an empty population, a register past the kernel's allocation,
/// no shared-memory or local-memory bit in range, no cache bit (the L1D
/// of a card without one).  A register-file or control-unit fault that
/// finds its thread or warp resolves even with no bits.  A cache fault
/// applies where some flip lands in a valid line, which only the flip
/// tells.
pub(crate) fn resolve(
    target: &FaultTarget,
    cores: &[SimtCore],
    mem: &MemSystem,
    ctx: &KernelCtx<'_>,
) -> Option<Vec<Site>> {
    let nonempty = |sites: Vec<Site>| (!sites.is_empty()).then_some(sites);
    match target {
        FaultTarget::RegisterFile {
            scope,
            entry_lot,
            reg,
            bits,
        } => {
            let (sm, cta, warp, lanes) = match scope {
                Scope::Thread => {
                    let (sm, cta, warp, lane) = live_thread(cores, *entry_lot)?;
                    (sm, cta, warp, 1 << lane)
                }
                Scope::Warp => {
                    let (sm, cta, warp) = live_warp(cores, *entry_lot)?;
                    (sm, cta, warp, cores[sm].ctas[cta].warps[warp].live)
                }
            };
            if *reg as usize >= cores[sm].ctas[cta].warps[warp].regs.len() {
                return None;
            }
            let site = |b: &u8| WarpSite::Reg {
                lanes,
                reg: *reg as u16,
                bit: b % 32,
            };
            Some(warp_sites(sm, cta, warp, bits.iter().map(site)))
        }
        FaultTarget::LocalMemory { entry_lot, bits } => {
            let lmem_bits = u64::from(ctx.kernel.lmem_bytes()) * 8;
            let (sm, cta, warp, lane) = live_thread(cores, *entry_lot)?;
            let cta = &cores[sm].ctas[cta];
            let tid = cta.linear * u64::from(ctx.threads_per_cta())
                + u64::from(cta.warps[warp].widx) * LANES as u64
                + lane as u64;
            let sites = bits
                .iter()
                .filter(|_| lmem_bits > 0)
                .map(|&b| tid * lmem_bits + b % lmem_bits)
                .filter(|&bit| bit < mem.local_bits())
                .map(|bit| Site::Local { bit });
            nonempty(sites.collect())
        }
        FaultTarget::SharedMemory {
            cta_lot,
            replicate,
            bits,
        } => {
            let mut sites = Vec::new();
            for r in 0..u64::from((*replicate).max(1)) {
                let (sm, n) = nth_live(cores, cta_lot.wrapping_add(r), SimtCore::cta_count)?;
                let cta = n as usize;
                let size = cores[sm].ctas[cta].smem.len() as u64 * 8;
                sites.extend(bits.iter().filter(|&&bit| bit < size).map(|&bit| {
                    let site = CoreSite::Cta {
                        cta,
                        site: CtaSite::Smem { bit },
                    };
                    Site::Core { sm, site }
                }));
            }
            nonempty(sites)
        }
        FaultTarget::L1Data { .. }
        | FaultTarget::L1Tex { .. }
        | FaultTarget::L1Const { .. }
        | FaultTarget::L2 { .. } => {
            let bits = mem.cache_bits(target)?;
            nonempty(bits.into_iter().map(Site::Cache).collect())
        }
        FaultTarget::SimtStack {
            entry_lot,
            depth_lot,
            bits,
        } => {
            let (sm, cta, warp) = live_warp(cores, *entry_lot)?;
            // The top entry, one past the pushed frames, is the warp's
            // live `active` / `pc` (see `WarpSite::Simt`).
            let frames = cores[sm].ctas[cta].warps[warp].stack.len() as u64;
            let depth = depth_lot % (frames + 1);
            let depth = (depth < frames).then_some(depth as u16);
            let site = |&b: &u8| WarpSite::Simt {
                depth,
                bit: (u64::from(b) % SIMT_STACK_ENTRY_BITS) as u8,
            };
            Some(warp_sites(sm, cta, warp, bits.iter().map(site)))
        }
        FaultTarget::Sched { entry_lot, bits } => {
            let (sm, cta, warp) = live_warp(cores, *entry_lot)?;
            // Bit 0 is the warp's `at_barrier` flag, bits 1..=32 its CTA's
            // arrival counter.
            let site = |&b: &u8| match (u64::from(b) % SCHED_ENTRY_BITS) as u8 {
                0 => CoreSite::Warp {
                    cta,
                    warp,
                    site: WarpSite::AtBarrier,
                },
                b => CoreSite::Cta {
                    cta,
                    site: CtaSite::BarrierArrived { bit: b - 1 },
                },
            };
            Some(
                bits.iter()
                    .map(|b| Site::Core { sm, site: site(b) })
                    .collect(),
            )
        }
        FaultTarget::Scoreboard { entry_lot, bits } => {
            let (sm, cta, warp) = live_warp(cores, *entry_lot)?;
            let site = |&b: &u8| WarpSite::ReadyAt {
                bit: (u64::from(b) % SCOREBOARD_ENTRY_BITS) as u8,
            };
            Some(warp_sites(sm, cta, warp, bits.iter().map(site)))
        }
    }
}

/// `sites` of warp `warp` of CTA slot `cta` on SM `sm`.
fn warp_sites(
    sm: usize,
    cta: usize,
    warp: usize,
    sites: impl Iterator<Item = WarpSite>,
) -> Vec<Site> {
    let at = |site| Site::Core {
        sm,
        site: CoreSite::Warp { cta, warp, site },
    };
    sites.map(at).collect()
}

/// Reduces `lot` modulo the chip-wide population that `count` reports per
/// core and walks `cores` to its owner: the owning SM and the index within
/// it, or `None` when the population is empty.
fn nth_live(cores: &[SimtCore], lot: u64, count: fn(&SimtCore) -> u64) -> Option<(usize, u64)> {
    let total: u64 = cores.iter().map(count).sum();
    let mut n = lot.checked_rem(total)?;
    for (sm, c) in cores.iter().enumerate() {
        let cnt = count(c);
        if n < cnt {
            return Some((sm, n));
        }
        n -= cnt;
    }
    None
}

/// The SM, CTA slot and warp of the live warp `lot` selects.
fn live_warp(cores: &[SimtCore], lot: u64) -> Option<(usize, usize, usize)> {
    let (sm, mut n) = nth_live(cores, lot, SimtCore::live_warp_count)?;
    for (s, cta) in cores[sm].ctas.iter().enumerate() {
        for (wi, warp) in cta.warps.iter().enumerate() {
            if warp.finished {
                continue;
            }
            if n == 0 {
                return Some((sm, s, wi));
            }
            n -= 1;
        }
    }
    None
}

/// The SM, CTA slot, warp and lane of the live thread `lot` selects.
fn live_thread(cores: &[SimtCore], lot: u64) -> Option<(usize, usize, usize, usize)> {
    let (sm, mut n) = nth_live(cores, lot, SimtCore::live_thread_count)?;
    for (s, cta) in cores[sm].ctas.iter().enumerate() {
        for (wi, warp) in cta.warps.iter().enumerate() {
            let cnt = u64::from(warp.live.count_ones());
            if n < cnt {
                return Some((sm, s, wi, set_bit_at(warp.live, n as u32)?));
            }
            n -= cnt;
        }
    }
    None
}

impl SimtCore {
    /// Injects a fault at `site` of this core: corrupts it under `stuck`
    /// (`None` toggles, `Some(v)` pins to `v`) and, under a stuck-at
    /// model, arms it for per-cycle re-pinning, once.  The scheduler reads
    /// control-unit state every cycle, so a control site counts as
    /// observed at once: it latches the core's escape (no early exit).
    pub(crate) fn corrupt(&mut self, site: CoreSite, stuck: Option<bool>) {
        let hit = match site {
            CoreSite::Warp { cta, warp, site } => {
                self.escaped |= !matches!(site, WarpSite::Reg { .. });
                self.ctas[cta].warps[warp].corrupt(site, stuck)
            }
            CoreSite::Cta { cta, site } => {
                self.escaped |= !matches!(site, CtaSite::Smem { .. });
                self.ctas[cta].corrupt(site, stuck)
            }
        };
        self.has_stuck |= hit && stuck.is_some();
    }

    /// The slots a shadowed flip of `site` marks (see `crate::shadow`),
    /// each with the bits it flips there: register `reg` of each of its
    /// lanes, or the shared-memory word of its bit; none for a
    /// control-unit site.
    pub(crate) fn marks(&self, site: CoreSite) -> Vec<(Mark, u32)> {
        let sm = self.id as u32;
        let mut marks = Vec::new();
        match site {
            CoreSite::Warp {
                cta,
                warp,
                site: WarpSite::Reg { lanes, reg, bit },
            } => {
                let (seq, warp) = (self.ctas[cta].seq, self.ctas[cta].warps[warp].widx);
                lanes!(lanes, lane => marks.push((Mark::Reg {
                    sm,
                    seq,
                    warp,
                    reg,
                    lane: lane as u8,
                }, 1 << bit)));
            }
            CoreSite::Cta {
                cta,
                site: CtaSite::Smem { bit },
            } => marks.push((
                Mark::Smem {
                    sm,
                    seq: self.ctas[cta].seq,
                    word: (bit / 32) as u32,
                },
                1 << (bit % 32),
            )),
            _ => {}
        }
        marks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use crate::core::Frame;
    use crate::fault::Structure;
    use crate::grid::LaunchDims;
    use gpufi_isa::Module;

    /// `card` cut down to two SMs.
    fn two_sms(mut card: GpuConfig) -> GpuConfig {
        card.num_sms = 2;
        card
    }

    /// Runs `check` on a two-SM device in the middle of a launch of three
    /// 40-thread CTAs (two warps each, the second eight lanes wide) with
    /// four registers, 16 bytes of shared memory per CTA and 8 bytes of
    /// local memory per thread.  SM 0 holds CTAs 0 and 1, SM 1 holds CTA
    /// 2.  Lanes 0-3 of CTA 0's first warp have exited, CTA 1's second
    /// warp has finished, and CTA 2's first warp has diverged: lanes 0-15
    /// run while lanes 16-31 wait in the second of its two pushed
    /// SIMT-stack frames.  108 live threads, 5 live warps, 3 resident
    /// CTAs.
    fn mid_launch(
        card: &GpuConfig,
        check: impl FnOnce(&mut [SimtCore], &MemSystem, &KernelCtx<'_>),
    ) {
        let src = ".kernel k\n.params 1\n.smem 16\n.lmem 8\n MOV R3, R0\n EXIT\n";
        let module = Module::assemble(src).unwrap();
        let kernel = module.kernel("k").unwrap();
        let decoded = gpufi_isa::decode::decode(kernel);
        let ctx = KernelCtx {
            kernel,
            uops: decoded.uops(),
            dims: LaunchDims::new(3, 40),
            args: &[7],
        };
        let mut mem = MemSystem::new(card);
        mem.reset_local(120, 8).unwrap();
        let mut cores: Vec<SimtCore> = (0..2).map(|i| SimtCore::new(i, card)).collect();
        for (sm, ctas) in [(0, 0..2), (1, 2..3)] {
            cores[sm].configure_kernel(2);
            for cta in ctas {
                cores[sm].launch_cta(&ctx, cta, 0);
            }
        }
        let mut pc = 0;
        cores[0].exit_lanes(0, 0, 0b1111, &mut pc, 0);
        cores[0].exit_lanes(1, 1, 0xff, &mut pc, 0);
        let divergent = &mut cores[1].ctas[0].warps[0];
        divergent.active = 0xffff;
        divergent.stack = vec![
            Frame::Reconv {
                pc: 5,
                mask: u32::MAX,
            },
            Frame::Pending {
                pc: 3,
                mask: 0xffff_0000,
            },
        ];
        check(&mut cores, &mem, &ctx);
    }

    fn at_warp(sm: usize, cta: usize, warp: usize, site: WarpSite) -> Site {
        let site = CoreSite::Warp { cta, warp, site };
        Site::Core { sm, site }
    }

    fn at_cta(sm: usize, cta: usize, site: CtaSite) -> Site {
        let site = CoreSite::Cta { cta, site };
        Site::Core { sm, site }
    }

    #[test]
    fn register_sites_take_live_threads_and_warps() {
        mid_launch(&two_sms(GpuConfig::rtx2060()), |cores, mem, ctx| {
            let rf = |scope, entry_lot, reg, bits: &[u8]| {
                let bits = bits.to_vec();
                let target = FaultTarget::RegisterFile {
                    scope,
                    entry_lot,
                    reg,
                    bits,
                };
                resolve(&target, cores, mem, ctx)
            };
            let r3 = |lanes, bit| WarpSite::Reg { lanes, reg: 3, bit };
            // Live thread 0 is lane 4 of SM 0's first warp; bits wrap at 32.
            let lane4 = |bit| at_warp(0, 0, 0, r3(1 << 4, bit));
            assert_eq!(
                rf(Scope::Thread, 0, 3, &[3, 35]),
                Some(vec![lane4(3), lane4(3)])
            );
            // Lot 108 + 70 is live thread 70: lane 2 of SM 1's first warp.
            let lane2 = at_warp(1, 0, 0, r3(1 << 2, 31));
            assert_eq!(rf(Scope::Thread, 178, 3, &[31]), Some(vec![lane2]));
            // Warp scope takes the warp's live lanes, waiting ones
            // included, and skips a finished warp.
            let warp = |sm, cta, warp, lanes| Some(vec![at_warp(sm, cta, warp, r3(lanes, 1))]);
            assert_eq!(rf(Scope::Warp, 0, 3, &[1]), warp(0, 0, 0, 0xffff_fff0));
            assert_eq!(rf(Scope::Warp, 1, 3, &[1]), warp(0, 0, 1, 0xff));
            assert_eq!(rf(Scope::Warp, 2, 3, &[1]), warp(0, 1, 0, u32::MAX));
            assert_eq!(rf(Scope::Warp, 3, 3, &[1]), warp(1, 0, 0, u32::MAX));
            // A shadow marks register 3 of each of those lanes, flipping
            // bit 1.
            let site = CoreSite::Warp {
                cta: 0,
                warp: 0,
                site: r3(u32::MAX, 1),
            };
            let marks = cores[1].marks(site).into_iter();
            let lanes: Vec<u8> = marks
                .map(|m| match m {
                    (Mark::Reg { reg: 3, lane, .. }, 2) => lane,
                    m => panic!("{m:?}"),
                })
                .collect();
            assert_eq!(lanes, (0..32).collect::<Vec<_>>());
            // A register past the allocation resolves nothing: not applied.
            assert_eq!(rf(Scope::Thread, 0, 4, &[1]), None);
            // No bits: the thread resolves, so the fault is applied, with
            // no site.
            assert_eq!(rf(Scope::Thread, 0, 3, &[]), Some(vec![]));
        });
    }

    #[test]
    fn memory_sites_stay_inside_their_instance() {
        mid_launch(&two_sms(GpuConfig::rtx2060()), |cores, mem, ctx| {
            // Live thread 0 is global thread 4, whose segment starts at bit
            // 4 * 64; bits wrap at the segment's 64.
            let local = |entry_lot, mem: &MemSystem| {
                let target = FaultTarget::LocalMemory {
                    entry_lot,
                    bits: vec![70, 5],
                };
                resolve(&target, cores, mem, ctx)
            };
            let sites = [262, 261].map(|bit| Site::Local { bit });
            assert_eq!(local(0, mem), Some(sites.to_vec()));
            // A segment too small for live thread 107 (global thread 119).
            let mut small = mem.clone();
            small.reset_local(1, 8).unwrap();
            assert_eq!(local(107, &small), None);

            let shared = |cta_lot, replicate, bits: &[u64]| {
                let bits = bits.to_vec();
                let target = FaultTarget::SharedMemory {
                    cta_lot,
                    replicate,
                    bits,
                };
                resolve(&target, cores, mem, ctx)
            };
            let smem = |bit| CtaSite::Smem { bit };
            // A bit past the CTA's 128-bit instance lands nowhere; a fault
            // with no bit in range is not applied.
            assert_eq!(shared(1, 1, &[5, 128]), Some(vec![at_cta(0, 1, smem(5))]));
            assert_eq!(shared(1, 1, &[128]), None);
            // Replicas take consecutive resident CTAs and wrap: four
            // replicas over three CTAs reach CTA 2 twice.
            let wrapped = vec![
                at_cta(1, 0, smem(9)),
                at_cta(0, 0, smem(9)),
                at_cta(0, 1, smem(9)),
                at_cta(1, 0, smem(9)),
            ];
            assert_eq!(shared(2, 4, &[9]), Some(wrapped.clone()));

            // A transient flip toggles: CTA 2's bit flips back, untainted.
            let mut pinned = cores.to_vec();
            for site in &wrapped {
                let Site::Core { sm, site } = *site else {
                    unreachable!()
                };
                cores[sm].corrupt(site, None);
                pinned[sm].corrupt(site, Some(true));
            }
            let cta2 = &cores[1].ctas[0];
            assert_eq!((cta2.smem[1], cta2.smem_taints.len()), (0, 0));
            let cta0 = &cores[0].ctas[0];
            assert_eq!((cta0.smem[1], &cta0.smem_taints[..]), (2, &[9][..]));
            // A stuck-at pin of the same cell is armed once.
            let cta2 = &pinned[1].ctas[0];
            assert_eq!((cta2.smem[1], cta2.stuck.len()), (2, 1));
            assert!(!cores[1].escaped && !cores[1].has_stuck && pinned[1].has_stuck);
        });
    }

    #[test]
    fn control_sites_pick_an_entry_of_a_live_warp() {
        mid_launch(&two_sms(GpuConfig::rtx2060()), |cores, mem, ctx| {
            let simt = |entry_lot, depth_lot| {
                let target = FaultTarget::SimtStack {
                    entry_lot,
                    depth_lot,
                    bits: vec![0, 40, 70],
                };
                resolve(&target, cores, mem, ctx)
            };
            // Bits wrap at the 64-bit entry.
            let entry = |sm, depth| {
                let site = |bit| at_warp(sm, 0, 0, WarpSite::Simt { depth, bit });
                Some([0, 40, 6].map(site).to_vec())
            };
            // SM 1's first warp (live warp 3) has two pushed frames; the
            // third entry, also `depth_lot` 5, is its top.
            assert_eq!(simt(3, 1), entry(1, Some(1)));
            assert_eq!(simt(3, 2), entry(1, None));
            assert_eq!(simt(3, 5), entry(1, None));
            // A warp without pushed frames has only its top.
            assert_eq!(simt(0, 7), entry(0, None));

            // Scheduler bit 0 is the warp's `at_barrier` flag; bits 1..=32
            // its CTA's arrival counter; bits wrap at 33.
            let sched = FaultTarget::Sched {
                entry_lot: 2,
                bits: vec![0, 1, 32, 33],
            };
            let counter = |bit| at_cta(0, 1, CtaSite::BarrierArrived { bit });
            let flag = at_warp(0, 1, 0, WarpSite::AtBarrier);
            let sites = vec![flag, counter(0), counter(31), flag];
            assert_eq!(resolve(&sched, cores, mem, ctx), Some(sites));

            let scoreboard = FaultTarget::Scoreboard {
                entry_lot: 4,
                bits: vec![5, 70],
            };
            let ready_at = |bit| at_warp(1, 0, 1, WarpSite::ReadyAt { bit });
            let sites = vec![ready_at(5), ready_at(6)];
            assert_eq!(resolve(&scoreboard, cores, mem, ctx), Some(sites));

            // Every control site latches its core's escape; a register
            // site does not.
            let reg = WarpSite::Reg {
                lanes: 1 << 4,
                reg: 3,
                bit: 0,
            };
            cores[0].corrupt(
                CoreSite::Warp {
                    cta: 0,
                    warp: 0,
                    site: reg,
                },
                None,
            );
            assert!(!cores[0].escaped);
            for site in [flag, counter(31)] {
                let Site::Core { sm: 0, site } = site else {
                    unreachable!()
                };
                let mut core = cores[0].clone();
                core.corrupt(site, None);
                assert!(core.escaped, "{site:?}");
            }
        });
    }

    #[test]
    fn cache_sites_follow_the_memory_system() {
        let rtx = two_sms(GpuConfig::rtx2060());
        mid_launch(&rtx, |cores, mem, ctx| {
            let resolve = |target| resolve(&target, cores, mem, ctx);
            let l1 = |structure, unit, bit| {
                Site::Cache(CacheBit {
                    structure,
                    unit,
                    bit,
                })
            };
            // Replica `r` of an L1 fault lands in SM `core_lot + r`; bits
            // wrap at the cache's size.
            let space = rtx.l1d.unwrap().total_bits();
            let target = FaultTarget::L1Data {
                core_lot: 3,
                replicate: 2,
                bits: vec![3, space + 1],
            };
            let sites = [(1, 3), (1, 1), (0, 3), (0, 1)];
            let sites = sites.map(|(unit, bit)| l1(Structure::L1Data, unit, bit));
            assert_eq!(resolve(target), Some(sites.to_vec()));
            let tex = FaultTarget::L1Tex {
                core_lot: 0,
                replicate: 1,
                bits: vec![7],
            };
            assert_eq!(resolve(tex), Some(vec![l1(Structure::L1Tex, 0, 7)]));
            let constant = FaultTarget::L1Const {
                core_lot: 1,
                replicate: 1,
                bits: vec![7],
            };
            let site = l1(Structure::L1Const, 1, 7);
            assert_eq!(resolve(constant), Some(vec![site]));
            // L2 bits index the flat space across banks.
            let per_bank = mem.l2_bits() / u64::from(rtx.num_l2_banks);
            let l2 = FaultTarget::L2 {
                bits: vec![per_bank + 2],
            };
            assert_eq!(resolve(l2), Some(vec![l1(Structure::L2, 1, 2)]));
        });
        // The GTX Titan has no L1D: the fault lands nowhere.
        mid_launch(&two_sms(GpuConfig::gtx_titan()), |cores, mem, ctx| {
            let target = FaultTarget::L1Data {
                core_lot: 0,
                replicate: 1,
                bits: vec![3],
            };
            assert_eq!(resolve(&target, cores, mem, ctx), None);
        });
    }

    #[test]
    fn an_idle_device_resolves_no_core_site() {
        let card = two_sms(GpuConfig::rtx2060());
        mid_launch(&card, |_, mem, ctx| {
            let idle: Vec<SimtCore> = (0..2).map(|i| SimtCore::new(i, &card)).collect();
            let targets = [
                FaultTarget::RegisterFile {
                    scope: Scope::Warp,
                    entry_lot: 0,
                    reg: 0,
                    bits: vec![0],
                },
                FaultTarget::SharedMemory {
                    cta_lot: 0,
                    replicate: 1,
                    bits: vec![0],
                },
                FaultTarget::Scoreboard {
                    entry_lot: 0,
                    bits: vec![0],
                },
            ];
            for target in targets {
                assert_eq!(resolve(&target, &idle, mem, ctx), None, "{target:?}");
            }
        });
    }
}
