//! Pins what `Gpu::launch`'s cycle loop computes, launch by launch.
//!
//! Every paper workload runs fault-free on every paper card under the
//! profile instrument (the golden pass, which alone keeps ACE timestamps),
//! and four numbers per case are pinned: the final application cycle, the warp
//! instructions issued, an FNV-1a over the output bytes, and an FNV-1a
//! over every launch's `LaunchStats` (the occupancy integrals included,
//! by their `f64` bits).  The loop's scheduling order, fast-forward and
//! occupancy integration all feed the last value, so a change to the loop
//! that is not exact fails here even when the output survives it.  The
//! same runs without the instrument must differ only in `ace_reg_cycles`.
//!
//! Beside them: forks resumed mid-launch, from a snapshot taken while
//! CTAs still wait for an SM and from one taken while most SMs are idle,
//! must finish exactly like the cold run; and the hang traps
//! (`LostBarrier`, reached through the no-runnable-warp fixpoint) are
//! pinned through a stuck-at scheduler campaign.

use gpufi::prelude::*;
use gpufi::sim::{CacheStats, LaunchStats};

/// 64-bit FNV-1a, fed incrementally.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    fn cache(&mut self, s: &CacheStats) -> &mut Self {
        let CacheStats {
            hits,
            misses,
            writebacks,
            fills,
        } = *s;
        self.u64(hits).u64(misses).u64(writebacks).u64(fills)
    }
}

/// FNV-1a over every field of every launch, in launch order.
fn launches_hash(launches: &[LaunchStats]) -> u64 {
    let mut h = Fnv::new();
    for l in launches {
        // Exhaustive, so a new field has to be hashed or excluded here.
        let LaunchStats {
            kernel,
            start_cycle,
            end_cycle,
            instructions,
            occupancy,
            mean_threads_per_sm,
            mean_ctas_per_sm,
            regs_per_thread,
            smem_per_cta,
            lmem_per_thread,
            ace_reg_cycles,
            thread_cycles,
            l1d_stats,
            l1t_stats,
            l2_stats,
        } = l;
        h.bytes(kernel.as_bytes())
            .u64(*start_cycle)
            .u64(*end_cycle)
            .u64(*instructions)
            .u64(occupancy.to_bits())
            .u64(mean_threads_per_sm.to_bits())
            .u64(mean_ctas_per_sm.to_bits())
            .u64(u64::from(*regs_per_thread))
            .u64(u64::from(*smem_per_cta))
            .u64(u64::from(*lmem_per_thread))
            .u64(*ace_reg_cycles)
            .u64(*thread_cycles)
            .cache(l1d_stats)
            .cache(l1t_stats)
            .cache(l2_stats);
    }
    h.0
}

/// What one fault-free run leaves behind: final cycle, instructions,
/// output hash, launch-stats hash.
type Pin = (u64, u64, u64, u64);

fn run_pin(w: &dyn Workload, gpu: &mut Gpu) -> Pin {
    let out = w.run(gpu).unwrap();
    let launches = &gpu.stats().launches;
    (
        gpu.cycle(),
        launches.iter().map(|l| l.instructions).sum(),
        Fnv::new().bytes(&out).0,
        launches_hash(launches),
    )
}

/// A fresh device running the profile instrument, as the golden pass does.
fn profiling_gpu(card: &GpuConfig) -> Gpu {
    let mut gpu = Gpu::new(card.clone());
    gpu.enable_profiling();
    gpu
}

/// `(benchmark, card, pin)` for the default sizes, recorded on the cycle
/// loop that visited every SM each cycle.
#[rustfmt::skip]
const PINS: [(&str, &str, Pin); 36] = [
    ("HS", "RTX 2060", (2960, 6912, 0xf081292467ed22b6, 0x8ea9742ea4bedbc4)),
    ("HS", "Quadro GV100", (2920, 6912, 0xf081292467ed22b6, 0x8228328673bedbbb)),
    ("HS", "GTX Titan", (3521, 6912, 0xf081292467ed22b6, 0x76d700ef09b7622b)),
    ("KM", "RTX 2060", (6006, 9456, 0x303f5385ab20d94a, 0x78fa0b126d4ef428)),
    ("KM", "Quadro GV100", (6006, 9456, 0x303f5385ab20d94a, 0x80a4997ef322be69)),
    ("KM", "GTX Titan", (6394, 9456, 0x303f5385ab20d94a, 0xf1a8587bbca492fe)),
    ("SRAD1", "RTX 2060", (6044, 15008, 0xb567098ad1d9f1c7, 0x27988f2dbe248743)),
    ("SRAD1", "Quadro GV100", (6026, 15008, 0xb567098ad1d9f1c7, 0x14b12c5525cbaf39)),
    ("SRAD1", "GTX Titan", (6054, 15008, 0xb567098ad1d9f1c7, 0x7ae919057f8ea946)),
    ("SRAD2", "RTX 2060", (3304, 7616, 0x7499c893da4d14f9, 0xe35f66b5ccf8c3d0)),
    ("SRAD2", "Quadro GV100", (3290, 7616, 0x7499c893da4d14f9, 0xbd33409a0de545fd)),
    ("SRAD2", "GTX Titan", (3332, 7616, 0x7499c893da4d14f9, 0x0e95a9d1a2b78a64)),
    ("LUD", "RTX 2060", (85029, 15400, 0xb0254b6da9706b7a, 0x94357f2bb6c6b996)),
    ("LUD", "Quadro GV100", (85012, 15400, 0xb0254b6da9706b7a, 0x749e3b8a4e08ac39)),
    ("LUD", "GTX Titan", (102270, 15400, 0xb0254b6da9706b7a, 0xcf55e6487a26fd4f)),
    ("BFS", "RTX 2060", (14898, 5950, 0xaa0404fe9e5bafc3, 0xa8bfd85125e042e2)),
    ("BFS", "Quadro GV100", (14903, 5950, 0xaa0404fe9e5bafc3, 0xeded8fe410341a70)),
    ("BFS", "GTX Titan", (16039, 5950, 0xaa0404fe9e5bafc3, 0x2d8c19d1162499d5)),
    ("PATHF", "RTX 2060", (8377, 3784, 0xa0191ae6c6bd60c0, 0x863622fffdc18fbe)),
    ("PATHF", "Quadro GV100", (8377, 3784, 0xa0191ae6c6bd60c0, 0x5ebde0d5bf0df82e)),
    ("PATHF", "GTX Titan", (8114, 3784, 0xa0191ae6c6bd60c0, 0x1cf4e10c8959fd4d)),
    ("NW", "RTX 2060", (65575, 3024, 0x3bfd3e7c30fb7f6b, 0x5ae881be590272e0)),
    ("NW", "Quadro GV100", (65496, 3024, 0x3bfd3e7c30fb7f6b, 0xc9e0ff9e1a0fad28)),
    ("NW", "GTX Titan", (62885, 3024, 0x3bfd3e7c30fb7f6b, 0x2aad941d62877ab1)),
    ("GE", "RTX 2060", (29785, 23195, 0xb656c85c5732205b, 0x73416c4c1f4b26ba)),
    ("GE", "Quadro GV100", (29806, 23195, 0xb656c85c5732205b, 0xf5f0b662d21a3a83)),
    ("GE", "GTX Titan", (26651, 23195, 0xb656c85c5732205b, 0x5e1da319a8d2314f)),
    ("BP", "RTX 2060", (3978, 6176, 0xa9f312491af2c1a9, 0x7433f7ae038697e8)),
    ("BP", "Quadro GV100", (3980, 6176, 0xa9f312491af2c1a9, 0xa916a9006b40bd01)),
    ("BP", "GTX Titan", (3502, 6176, 0xa9f312491af2c1a9, 0x3f5ce15b52643852)),
    ("VA", "RTX 2060", (669, 1920, 0x9f7611fbbf674326, 0xb4c9e8f554da96cd)),
    ("VA", "Quadro GV100", (645, 1920, 0x9f7611fbbf674326, 0x98929c466363d525)),
    ("VA", "GTX Titan", (699, 1920, 0x9f7611fbbf674326, 0x5d2cae1be856f26b)),
    ("SP", "RTX 2060", (1342, 8112, 0xb1ebcdf32f6a783f, 0xdd92c05089e37ed5)),
    ("SP", "Quadro GV100", (1302, 8112, 0xb1ebcdf32f6a783f, 0xcec7d8ce27a6d50c)),
    ("SP", "GTX Titan", (1509, 8112, 0xb1ebcdf32f6a783f, 0x481a14650eb6c159)),
];

#[test]
fn every_paper_launch_is_pinned() {
    let mut got = Vec::new();
    for w in paper_suite() {
        for card in GpuConfig::paper_cards() {
            let pin = run_pin(w.as_ref(), &mut profiling_gpu(&card));
            got.push((w.name(), card.name.clone(), pin));
        }
    }
    let table: String = got
        .iter()
        .map(|(w, c, (cy, ins, out, ls))| {
            format!("    (\"{w}\", \"{c}\", ({cy}, {ins}, {out:#018x}, {ls:#018x})),\n")
        })
        .collect();
    assert_eq!(got.len(), PINS.len(), "cases changed:\n{table}");
    for ((w, c, pin), &(pw, pc, want)) in got.iter().zip(&PINS) {
        assert_eq!((*w, c.as_str()), (pw, pc), "case order changed:\n{table}");
        assert_eq!(
            *pin, want,
            "{w} on {c}: (cycles, instructions, output, launches) drifted; \
             this run's table:\n{table}"
        );
    }
}

/// ACE accounting is bookkeeping only: without the profile instrument the
/// pinned runs end on the same cycle with the same output bytes and every
/// launch statistic equal, but `ace_reg_cycles`, which stays 0.
#[test]
fn plain_runs_differ_from_profiled_ones_only_in_ace() {
    for w in paper_suite() {
        for card in GpuConfig::paper_cards() {
            let tag = format!("{} on {}", w.name(), card.name);
            let (mut plain, mut profiled) = (Gpu::new(card.clone()), profiling_gpu(&card));
            let out = w.run(&mut plain).unwrap();
            assert_eq!(out, w.run(&mut profiled).unwrap(), "{tag}");
            assert_eq!(plain.cycle(), profiled.cycle(), "{tag}");
            let (got, want) = (&plain.stats().launches, &profiled.stats().launches);
            assert_eq!(got.len(), want.len(), "{tag}");
            for (i, (got, want)) in got.iter().zip(want).enumerate() {
                let want = LaunchStats {
                    ace_reg_cycles: 0,
                    ..want.clone()
                };
                assert_eq!(*got, want, "{tag}: launch {i}");
            }
        }
    }
}

/// The injection matrix's small-cache chip, with two SMs.
fn mini_chip() -> GpuConfig {
    GpuConfig::from_config_text(
        "name = Mini\nnum_sms = 2\nl1d = 2048:2:128\nl1t = 2048:2:128\nl2 = 16384:4:128\nl2_banks = 2\n",
    )
    .unwrap()
}

/// A fork from every recorded mid-launch snapshot finishes with the cold
/// run's output, cycle count and launch statistics.  On the two-SM chip
/// VA's and SP's grids outlast one round of CTAs, so most of their
/// snapshots are taken with CTAs still waiting for dispatch; LUD on the
/// 30-SM RTX 2060 launches a handful of CTAs per kernel, so its snapshots
/// are taken with 27–29 SMs idle.  A fork has only the restored state to
/// tell which SMs hold CTAs.
#[test]
fn forks_resume_mid_launch_like_the_cold_run() {
    let cases = [
        ("VA", mini_chip()),
        ("SP", mini_chip()),
        ("LUD", GpuConfig::rtx2060()),
    ];
    for (name, card) in cases {
        let w = by_name(name).unwrap();
        let cold = run_pin(w.as_ref(), &mut Gpu::new(card.clone()));
        let mut rec = Gpu::new(card.clone());
        rec.record_checkpoints((cold.0 / 8).max(1), 1 << 30);
        assert_eq!(run_pin(w.as_ref(), &mut rec), cold, "{name}: recording");
        let store = std::sync::Arc::new(rec.finish_checkpoint_recording());
        assert!(
            store.len() >= 4,
            "{name} on {}: too few snapshots",
            card.name
        );
        let mut gpu = Gpu::new(card.clone());
        for idx in 0..store.len() {
            gpu.resume_from(&store, idx);
            assert_eq!(
                run_pin(w.as_ref(), &mut gpu),
                cold,
                "{name} on {}: fork from snapshot {idx} (cycle {})",
                card.name,
                store.snapshot_cycle(idx)
            );
        }
    }
}

/// Stuck-at-1 scheduler bits make warps unissuable: on SP a barrier can
/// never be released (`LostBarrier`), on GE no warp can issue again
/// (`Deadlock`).  The loop must trap both at the same cycle as before, in
/// runs forked from checkpoints and run to the hang.
#[test]
fn hang_traps_are_pinned() {
    let cases = [
        ("SP", RunDetail::LostBarrier, 0xc3cb61da89631207),
        ("GE", RunDetail::Deadlock, 0x04188eab0ea6ab83),
    ];
    let card = GpuConfig::rtx2060();
    for (name, trap, pin) in cases {
        let w = by_name(name).unwrap();
        let golden = profile(w.as_ref(), &card).unwrap();
        let spec = CampaignSpec::new(Structure::Sched).model(FaultModel::StuckAt1);
        let cfg = CampaignConfig::new(spec, 60, 7);
        let result = run_campaign(w.as_ref(), &card, &cfg, &golden).unwrap();
        assert!(
            result.records.iter().any(|r| r.detail == trap),
            "{name}: no {trap:?} run"
        );
        let mut h = Fnv::new();
        for r in &result.records {
            h.bytes(format!("{:?} {:?} {} {}", r.effect, r.detail, r.cycles, r.applied).as_bytes());
        }
        assert_eq!(h.0, pin, "{name}: records drifted ({:#018x})", h.0);
    }
}

/// Zero minus four, `0xFFFF_FFFC`, is past the end of any shared or local
/// segment: each access traps, in debug and release builds alike, with the
/// reference interpreter's trap — the bound check must not wrap.
#[test]
fn wrapped_shared_and_local_addresses_trap_like_the_oracle() {
    use gpufi::sim::oracle::{run_reference, FuncMem};
    const ADDR: u32 = 0xFFFF_FFFC;
    let card = GpuConfig::rtx2060();
    let smem = Trap::SmemOutOfBounds { offset: ADDR };
    let lmem = Trap::LmemOutOfBounds { offset: ADDR };
    for (op, want) in [
        ("LDS R2, [R1]", smem),
        ("STS [R1], R0", smem),
        ("LDL R2, [R1]", lmem),
        ("STL [R1], R0", lmem),
    ] {
        let src =
            format!(".kernel k\n.params 1\n.smem 16\n.lmem 16\n ISUB R1, R0, 4\n {op}\n EXIT\n");
        let module = Module::assemble(&src).unwrap();
        let kernel = module.kernel("k").unwrap();
        let dims = LaunchDims::new(1, 32);
        let sim = Gpu::new(card.clone())
            .launch(kernel, dims, &[0])
            .unwrap_err();
        let mut mem = FuncMem::new(card.l2.line_bytes);
        let oracle = run_reference(&mut mem, kernel, dims, &[0]).unwrap_err();
        assert_eq!((sim, oracle), (want, want), "{op}");
    }
}
