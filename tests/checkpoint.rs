//! Validation of checkpoint-and-fork execution: forking each injection run
//! from a golden-run snapshot must never change what the campaign
//! concludes, only how long it takes.

mod common;

use gpufi::prelude::*;
use gpufi::sim::{AppStats, Gpu, Leave, SettledEffect};

/// Checkpoint forking must never change a verdict: every forked run is
/// confirmed by `--oracle-check` against a cold start simulated in full,
/// across single-kernel, host-control-flow (BFS's stop-flag loop reads
/// device memory between launches) and multi-kernel whole-application
/// (`kernel: None`) campaigns.
#[test]
fn checkpoint_matches_full_simulation() {
    let card = GpuConfig::rtx2060();
    for (name, runs) in [("VA", 120), ("BFS", 24), ("SRAD1", 16)] {
        let spec = CampaignSpec::new(Structure::RegisterFile);
        common::oracle_check(name, &card, spec, runs, 17);
    }
}

/// Checkpoint forking must also be transparent to *permanent* faults: a
/// run forked from a golden snapshot re-arms its stuck-at mask on the
/// restored state, so `--oracle-check`'s cold start confirms every verdict
/// — for data (register file) and control (warp scheduler) stuck-at
/// campaigns alike.
#[test]
fn checkpoint_matches_cold_start_for_stuck_at() {
    let card = GpuConfig::rtx2060();
    for (name, structure, runs) in [
        ("VA", Structure::RegisterFile, 60),
        ("SP", Structure::Sched, 24),
    ] {
        let spec = CampaignSpec::new(structure).model(FaultModel::StuckAt1);
        common::oracle_check(name, &card, spec, runs, 17);
    }
}

/// Iterative polynomial evaluation with its coefficients in the constant
/// bank (the `Poly` kernel of `examples/constant_cache.rs`): the one
/// workload here whose host prefix calls `write_const`, so forks replay
/// that call.  It uploads `coeffs` coefficients (the kernel reads the
/// first four) and over-allocates each buffer by `pad` bytes, so a variant
/// can make host calls that differ from a recording's with the same output.
struct ConstPoly {
    module: Module,
    coeffs: usize,
    pad: u32,
}

const POLY_N: u32 = 512;

impl ConstPoly {
    fn new(coeffs: usize, pad: u32) -> Self {
        let src = r#"
.kernel poly
.params 3
    S2R  R3, SR_TID.X
    S2R  R4, SR_CTAID.X
    S2R  R5, SR_NTID.X
    IMAD R3, R4, R5, R3
    ISETP.GE P0, R3, R2
@P0 EXIT
    SHL  R6, R3, 2
    IADD R7, R0, R6
    LDG  R8, [R7]
    MOV  R16, 0
    MOV  R17, 0
    MOV  R9, 0
it:
    LDC  R10, [R9+12]
    LDC  R11, [R9+8]
    LDC  R12, [R9+4]
    LDC  R13, [R9]
    FFMA R14, R10, R8, R11
    FFMA R14, R14, R8, R12
    FFMA R14, R14, R8, R13
    FADD R17, R17, R14
    IADD R16, R16, 1
    ISETP.LT P1, R16, 24
@P1 BRA it
    IADD R15, R1, R6
    STG  [R15], R17
    EXIT
"#;
        ConstPoly {
            module: Module::assemble(src).expect("poly assembles"),
            coeffs,
            pad,
        }
    }
}

impl Workload for ConstPoly {
    fn name(&self) -> &'static str {
        "POLY"
    }

    fn module(&self) -> &Module {
        &self.module
    }

    fn run(&self, gpu: &mut Gpu) -> Result<Vec<u8>, WorkloadError> {
        let coeffs = [0.5f32, -1.25, 2.0, 0.75, 3.5];
        let x: Vec<f32> = (0..POLY_N)
            .map(|i| i as f32 / POLY_N as f32 - 0.5)
            .collect();
        gpu.write_const_f32s(0, &coeffs[..self.coeffs])?;
        let d_x = gpu.malloc(POLY_N * 4 + self.pad)?;
        let d_y = gpu.malloc(POLY_N * 4 + self.pad)?;
        gpu.write_f32s(d_x, &x)?;
        gpu.launch(
            self.module.kernel("poly").expect("kernel exists"),
            LaunchDims::new(POLY_N / 128, 128),
            &[d_x, d_y, POLY_N],
        )?;
        let mut out = vec![0u8; (POLY_N * 4) as usize];
        gpu.memcpy_d2h(d_y, &mut out)?;
        Ok(out)
    }
}

/// The golden statistics as a device without the profile instrument
/// reports them: ACE accounting is the profile pass's alone, so
/// `ace_reg_cycles` reads 0 and every other field is unchanged.
fn plain_stats(golden: &GoldenProfile) -> AppStats {
    let mut app = golden.app.clone();
    for l in &mut app.launches {
        l.ace_reg_cycles = 0;
    }
    app
}

/// Records `w` on a `total / div` cycle stride, checks the recording left
/// the golden execution untouched, then resumes from every snapshot and
/// checks each fork finishes with the golden output, statistics and cycle
/// count.
fn assert_every_fork_matches_golden(w: &dyn Workload, card: &GpuConfig, div: u64) {
    let golden = profile(w, card).unwrap();
    let total = golden.total_cycles();
    let interval = (total / div).max(1);
    let stats = plain_stats(&golden);
    let mut rec = Gpu::new(card.clone());
    rec.record_checkpoints(interval, 1 << 30);
    let out = w.run(&mut rec).unwrap();
    let name = w.name();
    assert_eq!(
        out, golden.output,
        "{name} stride {interval}: recording perturbed the output"
    );
    assert_eq!(
        rec.stats(),
        &stats,
        "{name} stride {interval}: recording perturbed the statistics"
    );
    let store = std::sync::Arc::new(rec.finish_checkpoint_recording());
    assert!(!store.is_empty(), "{name} stride {interval}");
    for idx in 0..store.len() {
        let mut gpu = Gpu::new(card.clone());
        gpu.resume_from(&store, idx);
        let out = w.run(&mut gpu).unwrap();
        let tag = format!(
            "{name} stride {interval} snapshot {idx} (cycle {})",
            store.snapshot_cycle(idx)
        );
        assert_eq!(out, golden.output, "{tag}: output diverged");
        assert_eq!(gpu.stats(), &stats, "{tag}: statistics diverged");
        assert_eq!(gpu.cycle(), total, "{tag}: cycle count diverged");
    }
}

/// Recording snapshots must not perturb the golden execution, and resuming
/// from *any* snapshot must finish with the golden output, cycle count and
/// statistics: VA and BFS at several strides, then every paper workload and
/// the constant-bank workload at a quarter of their golden length — so
/// every kind of journaled host call (allocation, both copy directions,
/// constant-bank writes, completed launches) is replayed by some fork.
#[test]
fn snapshot_fidelity_across_strides() {
    let card = GpuConfig::rtx2060();
    let workloads: [Box<dyn Workload>; 2] = [Box::new(VectorAdd::new(256)), Box::new(Bfs::new())];
    for w in &workloads {
        for div in [3, 7, 16] {
            assert_every_fork_matches_golden(w.as_ref(), &card, div);
        }
    }
    for w in paper_suite() {
        assert_every_fork_matches_golden(w.as_ref(), &card, 4);
    }
    assert_every_fork_matches_golden(&ConstPoly::new(4, 0), &card, 4);
}

/// A fork whose workload makes different host calls than the recording
/// did is a determinism violation, not an injection effect: replay stops
/// at the first differing call — here a longer constant-bank upload, then
/// a larger allocation — with one `checkpoint replay mismatch` panic.
#[test]
fn changed_host_calls_fail_fork_replay() {
    let card = GpuConfig::rtx2060();
    let recorded = ConstPoly::new(4, 0);
    let golden = profile(&recorded, &card).unwrap();
    let mut rec = Gpu::new(card.clone());
    rec.record_checkpoints((golden.total_cycles() / 4).max(1), 1 << 30);
    recorded.run(&mut rec).unwrap();
    let store = std::sync::Arc::new(rec.finish_checkpoint_recording());
    for changed in [ConstPoly::new(5, 0), ConstPoly::new(4, 128)] {
        // Same output either way: only the host calls differ.
        let mut cold = Gpu::new(card.clone());
        assert_eq!(changed.run(&mut cold).unwrap(), golden.output);
        let tag = format!("coeffs {} pad {}", changed.coeffs, changed.pad);
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut gpu = Gpu::new(card.clone());
            gpu.resume_from(&store, 0);
            changed.run(&mut gpu)
        }))
        .expect_err(&tag);
        let msg = panic.downcast_ref::<String>().map_or("", String::as_str);
        assert!(
            msg.contains("checkpoint replay mismatch"),
            "{tag}: unexpected panic {msg:?}"
        );
    }
}

/// A checkpoint budget too small for even one snapshot degrades the store
/// to a single early snapshot — and restoring from it must still replay
/// to the exact golden output, cycles and statistics.
#[test]
fn restore_works_when_only_the_first_snapshot_survives() {
    let card = GpuConfig::rtx2060();
    let w = VectorAdd::new(256);
    let golden = profile(&w, &card).unwrap();
    let mut rec = Gpu::new(card.clone());
    // Stride of 1 cycle against a 1-byte budget: maximal re-striding
    // pressure, every push over the first triggers halving.
    rec.record_checkpoints(1, 1);
    w.run(&mut rec).unwrap();
    let store = std::sync::Arc::new(rec.finish_checkpoint_recording());
    assert_eq!(store.len(), 1, "budget of 1 byte must keep exactly one");
    let mut gpu = Gpu::new(card);
    gpu.resume_from(&store, 0);
    let out = w.run(&mut gpu).unwrap();
    assert_eq!(out, golden.output);
    assert_eq!(gpu.cycle(), golden.total_cycles());
    assert_eq!(gpu.stats(), &plain_stats(&golden));
}

/// What one injection run concluded, as the campaign reads it off the
/// `Gpu`: the workload's result, the cycle count, the effect class and
/// every injection record.
type RunSummary = (
    Result<Vec<u8>, WorkloadError>,
    u64,
    FaultEffect,
    Vec<gpufi::sim::InjectionRecord>,
);

/// Runs `plan` on a forked `gpu` the way a campaign does: a 2× golden
/// cycle watchdog and fault-lifetime early exit.
fn run_plan(
    gpu: &mut Gpu,
    w: &dyn Workload,
    plan: &InjectionPlan,
    golden: &GoldenProfile,
) -> RunSummary {
    gpu.arm_faults(plan.clone());
    gpu.set_watchdog(golden.total_cycles() * 2);
    gpu.set_early_exit(true);
    let result = w.run(gpu);
    let cycles = gpu.stats().total_cycles().max(gpu.cycle());
    let effect = classify(&result, cycles, golden);
    (result, cycles, effect, gpu.injection_records().to_vec())
}

/// Eight plans spread over every launch window, each drawn in its own.
fn spread_plans(golden: &GoldenProfile, spec: &CampaignSpec, seed: u64) -> Vec<InjectionPlan> {
    let mut gen = MaskGenerator::new(seed);
    let windows = golden.windows(None);
    (0..8)
        .map(|i| {
            let win = &windows[i * 7 % windows.len()];
            let space = &golden.fault_spaces[&win.kernel];
            gen.draw(spec, space, std::slice::from_ref(win)).unwrap()
        })
        .collect()
}

/// The injection matrix's small-cache chip, where flips land in valid
/// lines, with `extra` configuration lines.
fn mini_chip(extra: &str) -> GpuConfig {
    GpuConfig::from_config_text(&format!(
        "name = Mini\nnum_sms = 2\nl1d = 2048:2:128\nl1t = 2048:2:128\nl2 = 16384:4:128\nl2_banks = 2\n{extra}"
    ))
    .unwrap()
}

/// One long-lived `Gpu` forked over and over must behave exactly like a
/// fresh `Gpu` per fork: after every `resume_from` its state digests equal
/// to the snapshot's, and every run ends with the same result, cycles,
/// effect and injection records as the same plan on `Gpu::new` +
/// `resume_from`.  The fork sequence runs the plans sorted by first fault
/// cycle (the same snapshot several times in a row) and then in draw order
/// (jumps between snapshots), on inputs where runs trap, time out, or land
/// flips in valid cache lines the next fork must put back.
#[test]
fn one_gpu_forks_like_fresh_gpus() {
    use FaultModel::StuckAt1;
    use Structure::*;
    let (rtx, titan, gv100) = (
        GpuConfig::rtx2060(),
        GpuConfig::gtx_titan(),
        GpuConfig::quadro_gv100(),
    );
    let mini = mini_chip("");
    let cases = [
        ("BFS", &gv100, CampaignSpec::new(L2)),
        ("HS", &titan, CampaignSpec::new(SharedMemory)),
        ("GE", &rtx, CampaignSpec::new(RegisterFile).model(StuckAt1)),
        ("SP", &rtx, CampaignSpec::new(Sched).model(StuckAt1)),
        ("HS", &mini, CampaignSpec::new(L1Data)),
        ("HS", &mini, CampaignSpec::new(L1Tex)),
    ];
    let mut trapped = 0;
    for (seed, (name, card, spec)) in (11u64..).zip(cases) {
        let w = by_name(name).unwrap();
        let golden = profile(w.as_ref(), card).unwrap();
        let mut rec = Gpu::new(card.clone());
        rec.record_checkpoints((golden.total_cycles() / 6).max(1), 1 << 27);
        w.run(&mut rec).unwrap();
        let store = std::sync::Arc::new(rec.finish_checkpoint_recording());
        let digests: Vec<u64> = (0..store.len())
            .map(|i| store.snapshot(i).state_digest())
            .collect();

        let plans = spread_plans(&golden, &spec, seed);
        let first_cycle = |p: &InjectionPlan| p.faults.iter().map(|f| f.cycle).min().unwrap();
        let mut order: Vec<usize> = (0..plans.len()).collect();
        order.sort_by_key(|&i| first_cycle(&plans[i]));
        order.extend(0..plans.len());

        let mut shared = Gpu::new(card.clone());
        let (mut repeats, mut jumps, mut prev) = (0, 0, None);
        for i in order {
            let plan = &plans[i];
            let Some(idx) = store.nearest_at_or_before(first_cycle(plan)) else {
                continue;
            };
            match prev {
                Some(p) if p == idx => repeats += 1,
                Some(_) => jumps += 1,
                None => {}
            }
            prev = Some(idx);
            let tag = format!("{name} on {} {spec:?} plan {i} snapshot {idx}", card.name);
            shared.resume_from(&store, idx);
            assert_eq!(
                shared.snapshot().state_digest(),
                digests[idx],
                "{tag}: in-place fork differs from the snapshot"
            );
            let got = run_plan(&mut shared, w.as_ref(), plan, &golden);
            let mut fresh = Gpu::new(card.clone());
            fresh.resume_from(&store, idx);
            let want = run_plan(&mut fresh, w.as_ref(), plan, &golden);
            assert_eq!(got, want, "{tag}: reused Gpu diverged from a fresh one");
            trapped += usize::from(got.0.is_err());
        }
        let tag = format!("{name} on {} {spec:?}", card.name);
        assert!(repeats > 0, "{tag}: no snapshot forked twice in a row");
        assert!(jumps > 0, "{tag}: no jump between snapshots");
    }
    assert!(trapped > 0, "no run trapped or timed out");
}

/// Snapshots are copy-on-write: a forked device starts out sharing every
/// cache chunk with the store, and its runs then write through those
/// chunks — cache accesses, flips in valid L2, L1D and L1C lines, and
/// register flips that reach memory.  Every snapshot must digest exactly
/// as recorded afterwards.
#[test]
fn forked_runs_leave_every_snapshot_intact() {
    use Structure::*;
    let (rtx, mini) = (GpuConfig::rtx2060(), mini_chip(""));
    // Two constant-cache lines, one of which the polynomial's four
    // coefficients occupy.
    let mini_l1c = mini_chip("l1c = 128:2:64\n");
    let cases: [(Box<dyn Workload>, &GpuConfig, Structure); 4] = [
        (by_name("BFS").unwrap(), &mini, L2),
        (by_name("HS").unwrap(), &mini, L1Data),
        (Box::new(ConstPoly::new(4, 0)), &mini_l1c, L1Const),
        (by_name("GE").unwrap(), &rtx, RegisterFile),
    ];
    for (seed, (w, card, structure)) in (31u64..).zip(cases) {
        let tag = format!("{} on {} {structure:?}", w.name(), card.name);
        let golden = profile(w.as_ref(), card).unwrap();
        let mut rec = Gpu::new(card.clone());
        rec.record_checkpoints((golden.total_cycles() / 6).max(1), 1 << 30);
        w.run(&mut rec).unwrap();
        let store = std::sync::Arc::new(rec.finish_checkpoint_recording());
        let digests: Vec<u64> = (0..store.len())
            .map(|i| store.snapshot(i).state_digest())
            .collect();
        let mut gpu = Gpu::new(card.clone());
        let mut applied = 0;
        for plan in spread_plans(&golden, &CampaignSpec::new(structure), seed) {
            let first = plan.faults.iter().map(|f| f.cycle).min().unwrap();
            let Some(idx) = store.nearest_at_or_before(first) else {
                continue;
            };
            gpu.resume_from(&store, idx);
            let (_, _, _, records) = run_plan(&mut gpu, w.as_ref(), &plan, &golden);
            applied += records.iter().filter(|r| r.applied).count();
        }
        assert!(applied > 0, "{tag}: no fault changed a bit");
        for (i, &d) in digests.iter().enumerate() {
            assert_eq!(
                store.snapshot(i).state_digest(),
                d,
                "{tag}: a forked run wrote into snapshot {i}"
            );
        }
    }
}

/// Records `w` on `card` on the stride a campaign records it on.
fn record_store(
    w: &dyn Workload,
    card: &GpuConfig,
    golden: &GoldenProfile,
) -> std::sync::Arc<CheckpointStore> {
    let mut rec = Gpu::new(card.clone());
    rec.record_checkpoints((golden.total_cycles() / 24).max(1), 1 << 30);
    w.run(&mut rec).unwrap();
    std::sync::Arc::new(rec.finish_checkpoint_recording())
}

/// The first cycle of `plan`'s faults.
fn first_cycle(plan: &InjectionPlan) -> u64 {
    plan.faults.iter().map(|f| f.cycle).min().unwrap()
}

/// The cycles a run of `plan` skips: those of `store`'s nearest snapshot
/// at or before its first fault, 0 (a cold start) when there is none.
fn skipped_cycles(store: &CheckpointStore, plan: &InjectionPlan) -> u64 {
    store
        .nearest_at_or_before(first_cycle(plan))
        .map_or(0, |idx| store.snapshot_cycle(idx))
}

/// The record a campaign writes for `plan` when it simulates it, as
/// `RunEnv::simulate` builds it: forked on `gpu` from `store`'s nearest
/// snapshot at or before the first fault, or cold on a fresh device when
/// there is none.
fn forked_record(
    gpu: &mut Gpu,
    store: &std::sync::Arc<CheckpointStore>,
    w: &dyn Workload,
    plan: &InjectionPlan,
    golden: &GoldenProfile,
) -> RunRecord {
    match store.nearest_at_or_before(first_cycle(plan)) {
        Some(idx) => gpu.resume_from(store, idx),
        None => *gpu = Gpu::new(gpu.config().clone()),
    }
    let (result, cycles, effect, records) = run_plan(gpu, w, plan, golden);
    let expired = matches!(
        result,
        Err(WorkloadError::Trap(Trap::FaultsExpired | Trap::Reconverged))
    );
    RunRecord {
        effect: if expired { FaultEffect::Masked } else { effect },
        cycles: if expired {
            golden.total_cycles()
        } else {
            cycles
        },
        applied: records.iter().any(|r| r.applied),
        early_exit: expired,
        ckpt_skipped_cycles: skipped_cycles(store, plan),
        detail: detail_of(&result),
        stratum: None,
    }
}

/// The record the campaign writes, without a simulation, for a plan the
/// store settles.
fn settled_record(
    store: &CheckpointStore,
    plan: &InjectionPlan,
    golden: &GoldenProfile,
) -> RunRecord {
    let settled = store.settle(plan).expect("a settled plan");
    RunRecord {
        effect: match settled.effect {
            SettledEffect::Masked => FaultEffect::Masked,
            SettledEffect::Sdc => FaultEffect::Sdc,
        },
        cycles: golden.total_cycles(),
        applied: settled.applied,
        early_exit: settled.early_exit,
        ckpt_skipped_cycles: skipped_cycles(store, plan),
        detail: if settled.reconverged {
            RunDetail::Reconverged
        } else {
            RunDetail::None
        },
        stratum: None,
    }
}

/// Forty `spec` plans drawn over every launch window of `golden`, then
/// one in five moved before `store`'s first snapshot and one in five past
/// its last, up to one cycle past the golden run's end (a fault there
/// never fires).
fn cache_plans(
    golden: &GoldenProfile,
    spec: &CampaignSpec,
    seed: u64,
    store: &CheckpointStore,
) -> Vec<InjectionPlan> {
    let mut gen = MaskGenerator::new(seed);
    let windows = golden.windows(None);
    let (first, last) = (
        store.snapshot_cycle(0),
        store.snapshot_cycle(store.len() - 1),
    );
    let late = golden.total_cycles() + 1 - last;
    (0..40)
        .map(|i| {
            let win = &windows[i % windows.len()];
            let space = &golden.fault_spaces[&win.kernel];
            let mut plan = gen.draw(spec, space, std::slice::from_ref(win)).unwrap();
            let at = first_cycle(&plan);
            let to = match i % 5 {
                1 => at % first,
                2 => last + 1 + at % late,
                _ => at,
            };
            for f in &mut plan.faults {
                f.cycle = f.cycle - at + to;
            }
            plan
        })
        .collect()
}

/// Every plan the checkpoint store settles gets exactly the record its
/// simulation writes — forked, or cold before the first snapshot — for
/// each cache structure on the small-cache chip (where flips often land
/// in valid lines) and on the GV100 (where almost none do), with plans
/// before the first snapshot and after the last.
#[test]
fn settled_plans_get_their_forks_records() {
    use Structure::*;
    let gv100 = GpuConfig::quadro_gv100();
    let mini = mini_chip("");
    let spread = |s| CampaignSpec::new(s).bits(3).mode(MultiBitMode::Spread);
    let cases: [(Box<dyn Workload>, &GpuConfig, CampaignSpec); 8] = [
        (by_name("SP").unwrap(), &mini, spread(L1Data)),
        (by_name("HS").unwrap(), &mini, CampaignSpec::new(L1Tex)),
        (
            Box::new(ConstPoly::new(4, 0)),
            &mini,
            CampaignSpec::new(L1Const),
        ),
        (
            by_name("PATHF").unwrap(),
            &mini,
            CampaignSpec::new(L2).bits(3),
        ),
        (by_name("VA").unwrap(), &gv100, spread(L1Data)),
        (
            by_name("HS").unwrap(),
            &gv100,
            CampaignSpec::new(L1Tex).replicated(2),
        ),
        (
            Box::new(ConstPoly::new(4, 0)),
            &gv100,
            CampaignSpec::new(L1Const),
        ),
        (by_name("BFS").unwrap(), &gv100, CampaignSpec::new(L2)),
    ];
    let (mut applied, mut cold, mut past_last) = (0, 0, 0);
    for (seed, (w, card, spec)) in (51u64..).zip(cases) {
        let tag = format!("{} on {} {spec:?}", w.name(), card.name);
        let golden = profile(w.as_ref(), card).unwrap();
        let store = record_store(w.as_ref(), card, &golden);
        let last = store.snapshot_cycle(store.len() - 1);
        let mut gpu = Gpu::new(card.clone());
        let mut settled = 0;
        for (i, plan) in cache_plans(&golden, &spec, seed, &store).iter().enumerate() {
            let forked = forked_record(&mut gpu, &store, w.as_ref(), plan, &golden);
            if store.settle(plan).is_some() {
                settled += 1;
                cold += usize::from(forked.ckpt_skipped_cycles == 0);
                past_last += usize::from(first_cycle(plan) > last);
                assert_eq!(
                    forked,
                    settled_record(&store, plan, &golden),
                    "{tag} plan {i}"
                );
            }
            applied += usize::from(forked.applied);
        }
        assert!(settled > 0, "{tag}: no plan settled");
        // A fault past the golden run's last cycle never fires, so its run
        // never ends by early exit.
        let mut never = cache_plans(&golden, &spec, seed, &store).swap_remove(0);
        for f in &mut never.faults {
            f.cycle = golden.total_cycles() + 1;
        }
        assert!(
            store.settle(&never).is_none(),
            "{tag}: settled a fault that never fires"
        );
    }
    assert!(applied > 0, "no plan flipped a valid line");
    assert!(cold > 0, "no plan settled before the first snapshot");
    assert!(past_last > 0, "no plan settled after the last snapshot");
}

/// The other direction: every drawn plan whose simulation ends by early
/// exit with no flip applied — every flip landed in an invalid line — is
/// one the store settles, on the campaigns where such runs dominate:
/// BFS and KM on the GV100, HS on the GTX Titan, and GE and HS on the
/// small-cache chip.
#[test]
fn every_unapplied_early_exit_is_settled() {
    use Structure::*;
    let (gv100, titan, mini) = (
        GpuConfig::quadro_gv100(),
        GpuConfig::gtx_titan(),
        mini_chip(""),
    );
    let cases = [
        ("BFS", &gv100, L2),
        ("KM", &gv100, L1Data),
        ("HS", &titan, L2),
        ("GE", &mini, L1Data),
        ("HS", &mini, L1Tex),
    ];
    for (seed, (name, card, structure)) in (71u64..).zip(cases) {
        let tag = format!("{name} on {} {structure:?}", card.name);
        let w = by_name(name).unwrap();
        let golden = profile(w.as_ref(), card).unwrap();
        let store = record_store(w.as_ref(), card, &golden);
        let mut gpu = Gpu::new(card.clone());
        let mut unapplied_exits = 0;
        let spec = CampaignSpec::new(structure);
        for (i, plan) in cache_plans(&golden, &spec, seed, &store).iter().enumerate() {
            let forked = forked_record(&mut gpu, &store, w.as_ref(), plan, &golden);
            if forked.early_exit && !forked.applied {
                unapplied_exits += 1;
                assert!(
                    store.settle(plan).is_some(),
                    "{tag} plan {i}: {forked:?} not settled"
                );
            }
        }
        assert!(unapplied_exits > 0, "{tag}: no run exited unapplied");
    }
}

/// Records `w` on `card` on the stride a campaign records it on,
/// shadowing `plans` as a campaign shadows the plans pre-classification
/// leaves.
fn record_shadowing(
    w: &dyn Workload,
    card: &GpuConfig,
    golden: &GoldenProfile,
    plans: &[InjectionPlan],
) -> std::sync::Arc<CheckpointStore> {
    let mut rec = Gpu::new(card.clone());
    rec.record_checkpoints((golden.total_cycles() / 24).max(1), 1 << 30);
    rec.shadow_plans(plans);
    w.run(&mut rec).unwrap();
    std::sync::Arc::new(rec.finish_checkpoint_recording())
}

/// `n` `spec` plans, each drawn in its own launch window, visiting the
/// windows in turn; every fifth lands in the last launch.
fn launch_plans(
    golden: &GoldenProfile,
    spec: &CampaignSpec,
    seed: u64,
    n: usize,
) -> Vec<InjectionPlan> {
    let mut gen = MaskGenerator::new(seed);
    let windows = golden.windows(None);
    (0..n)
        .map(|i| {
            let win = match i % 5 {
                4 => windows.last().unwrap(),
                _ => &windows[i % windows.len()],
            };
            let space = &golden.fault_spaces[&win.kernel];
            gen.draw(spec, space, std::slice::from_ref(win)).unwrap()
        })
        .collect()
}

/// Four `spec` plans drawn in the last launch for each of its last `n`
/// cycles, moved there: flips that die just before or after the last
/// taint checks, fired at golden loop tops and inside fast-forward gaps.
fn tail_plans(
    golden: &GoldenProfile,
    spec: &CampaignSpec,
    seed: u64,
    n: u64,
) -> Vec<InjectionPlan> {
    let mut gen = MaskGenerator::new(seed);
    let last = golden.windows(None).pop().unwrap();
    let space = &golden.fault_spaces[&last.kernel];
    (1..=n.min(last.end - last.start))
        .flat_map(|back| [back; 4])
        .map(|back| {
            let mut plan = gen.draw(spec, space, std::slice::from_ref(&last)).unwrap();
            for f in &mut plan.faults {
                f.cycle = last.end - back;
            }
            plan
        })
        .collect()
}

/// The register-file and shared-memory campaigns the shadow tests cover:
/// GE and LUD (13 launches) rf, NW rf with warp-scope 3-bit flips, HS
/// shared memory on the GTX Titan and SP shared memory.
fn shadow_cases() -> [(&'static str, GpuConfig, CampaignSpec); 5] {
    use Structure::*;
    let (rtx, titan) = (GpuConfig::rtx2060(), GpuConfig::gtx_titan());
    [
        ("GE", rtx.clone(), CampaignSpec::new(RegisterFile)),
        ("LUD", rtx.clone(), CampaignSpec::new(RegisterFile)),
        (
            "NW",
            rtx.clone(),
            CampaignSpec::new(RegisterFile).warp_scope().bits(3),
        ),
        ("HS", titan, CampaignSpec::new(SharedMemory)),
        ("SP", rtx, CampaignSpec::new(SharedMemory)),
    ]
}

/// Every register-file and shared-memory plan the store settles from the
/// recording's shadow gets exactly the record its fork writes, on every
/// [`shadow_cases`] campaign.  The plans visit every launch, and the
/// last launch's final cycles one by one, so their faults fire at golden
/// loop tops and inside fast-forward gaps, where a run adds a loop
/// iteration, and some die after the last taint check: their run goes
/// on to the golden end and records no early exit.
#[test]
fn unread_flips_settle_with_their_forks_records() {
    let (mut settled, mut ran_out) = (0, 0);
    for (seed, (name, card, spec)) in (81u64..).zip(shadow_cases()) {
        let tag = format!("{name} on {} {spec:?}", card.name);
        let w = by_name(name).unwrap();
        let golden = profile(w.as_ref(), &card).unwrap();
        let mut plans = launch_plans(&golden, &spec, seed, 60);
        plans.extend(tail_plans(&golden, &spec, seed, 64));
        let store = record_shadowing(w.as_ref(), &card, &golden, &plans);
        let mut gpu = Gpu::new(card.clone());
        let before = settled;
        for (i, plan) in plans.iter().enumerate() {
            let Some(s) = store.settle(plan) else {
                continue;
            };
            settled += 1;
            ran_out += usize::from(!s.early_exit);
            let forked = forked_record(&mut gpu, &store, w.as_ref(), plan, &golden);
            assert_eq!(
                forked,
                settled_record(&store, plan, &golden),
                "{tag} plan {i}"
            );
        }
        assert!(settled > before, "{tag}: no plan settled");
    }
    assert!(ran_out > 0, "no settled run outlives its last taint check");
}

/// The other direction: every forked run of a [`shadow_cases`] plan that
/// ends by the taint early exit — not by reconvergence — is one the store
/// settles, with no exception.
#[test]
fn every_taint_exit_is_settled() {
    for (seed, (name, card, spec)) in (91u64..).zip(shadow_cases()) {
        let tag = format!("{name} on {} {spec:?}", card.name);
        let w = by_name(name).unwrap();
        let golden = profile(w.as_ref(), &card).unwrap();
        let plans = launch_plans(&golden, &spec, seed, 60);
        let store = record_shadowing(w.as_ref(), &card, &golden, &plans);
        let mut gpu = Gpu::new(card.clone());
        let mut exits = 0;
        for (i, plan) in plans.iter().enumerate() {
            let forked = forked_record(&mut gpu, &store, w.as_ref(), plan, &golden);
            if forked.early_exit && forked.detail == RunDetail::None {
                exits += 1;
                assert!(
                    store.settle(plan).is_some(),
                    "{tag} plan {i}: {forked:?} not settled"
                );
            }
        }
        assert!(exits > 0, "{tag}: no run ended by the taint exit");
    }
}

/// Shadowing changes no snapshot: a recording that shadows plans captures
/// the snapshots a recording that shadows none does, at the same cycles
/// and digest for digest — taint marks and escape latches included — on
/// a register-file and two shared-memory campaigns.
#[test]
fn shadowed_recordings_capture_the_same_snapshots() {
    for (seed, (name, card, spec)) in (101u64..).zip(shadow_cases()).skip(2) {
        let tag = format!("{name} on {} {spec:?}", card.name);
        let w = by_name(name).unwrap();
        let golden = profile(w.as_ref(), &card).unwrap();
        let plans = launch_plans(&golden, &spec, seed, 60);
        let plain = record_store(w.as_ref(), &card, &golden);
        let shadowed = record_shadowing(w.as_ref(), &card, &golden, &plans);
        assert!(plans.iter().any(|p| shadowed.settle(p).is_some()), "{tag}");
        assert_eq!(plain.len(), shadowed.len(), "{tag}");
        for i in 0..plain.len() {
            let (a, b) = (plain.snapshot(i), shadowed.snapshot(i));
            assert_eq!(a.cycle(), b.cycle(), "{tag} snapshot {i}");
            assert_eq!(a.state_digest(), b.state_digest(), "{tag} snapshot {i}");
        }
    }
}

/// A fault fires at the first cycle-loop top at or after its cycle,
/// before the cores issue, and the timeline settles a plan exactly where
/// its flip lands in an invalid line — on one small-cache-chip L1D line
/// that BFS fills in one launch and that launch's L1 flush drops: a flip
/// planned just before the first cycle the line is valid at is settled,
/// one at that cycle or later is not and its fork applies it, and one
/// planned just past the launch's end, after the flush, is settled again.
#[test]
fn settling_follows_the_fire_point() {
    let card = mini_chip("");
    let w = Bfs::new();
    let golden = profile(&w, &card).unwrap();
    let store = record_store(&w, &card, &golden);
    let l1d = card.l1d.unwrap();
    let bpl = l1d.bits_per_line();
    // A data bit of SM 0's L1D line `line`, flipped at `cycle`.
    let plan = |cycle: u64, line: u32| {
        let bits = vec![u64::from(line) * bpl + u64::from(gpufi::sim::TAG_BITS)];
        let target = FaultTarget::L1Data {
            core_lot: 0,
            replicate: 1,
            bits,
        };
        InjectionPlan::single(cycle, target)
    };
    let settles = |cycle, line| store.settle(&plan(cycle, line)).is_some();
    // A launch other than the last, and a line valid at its end.
    let launches = &golden.app.launches;
    let (end, line) = launches[..launches.len() - 1]
        .iter()
        .flat_map(|l| (0..l1d.num_lines()).map(move |line| (l.end_cycle, line)))
        .find(|&(end, line)| !settles(end, line))
        .expect("an L1D line valid at the end of a launch");
    // The first cycle of the line's last stretch of validity.
    let fill = (1..=end)
        .rev()
        .find(|&c| settles(c - 1, line))
        .expect("the line starts invalid");
    assert!((fill..=end).all(|c| !settles(c, line)));

    let mut gpu = Gpu::new(card.clone());
    let mut fork = |cycle| forked_record(&mut gpu, &store, &w, &plan(cycle, line), &golden);
    let before = plan(fill - 1, line);
    assert_eq!(fork(fill - 1), settled_record(&store, &before, &golden));
    assert!(
        fork(fill).applied,
        "a flip at cycle {fill} missed the filled line"
    );
    assert!(fork(end).applied, "a flip at cycle {end} missed the line");
    // The flush ending the launch at `end` follows that cycle's top.
    let after = plan(end + 1, line);
    assert!(
        store.settle(&after).is_some(),
        "line {line} valid after the flush"
    );
    assert_eq!(fork(end + 1), settled_record(&store, &after, &golden));
}

/// The line-validity timeline is the recording pass's instrument alone:
/// the recording device logs while it records and stops once the store is
/// built, while a fork, the injection run it simulates and a cold
/// injection run never log.
#[test]
fn forks_and_injection_runs_hold_no_timeline() {
    let card = mini_chip("");
    let w = by_name("HS").unwrap();
    let golden = profile(w.as_ref(), &card).unwrap();
    let mut rec = Gpu::new(card.clone());
    assert!(!rec.mem().logs_validity());
    rec.record_checkpoints((golden.total_cycles() / 24).max(1), 1 << 30);
    assert!(rec.mem().logs_validity());
    w.run(&mut rec).unwrap();
    let store = std::sync::Arc::new(rec.finish_checkpoint_recording());
    assert!(!rec.mem().logs_validity());
    let mut gpu = Gpu::new(card.clone());
    for (i, plan) in spread_plans(&golden, &CampaignSpec::new(Structure::L1Data), 5)
        .iter()
        .enumerate()
    {
        if let Some(idx) = store.nearest_at_or_before(first_cycle(plan)) {
            gpu.resume_from(&store, idx);
            assert!(
                !gpu.mem().logs_validity(),
                "plan {i}: fork of snapshot {idx}"
            );
            let _ = run_plan(&mut gpu, w.as_ref(), plan, &golden);
            assert!(!gpu.mem().logs_validity(), "plan {i}: forked run");
        }
        let mut cold = Gpu::new(card.clone());
        let _ = run_plan(&mut cold, w.as_ref(), plan, &golden);
        assert!(!cold.mem().logs_validity(), "plan {i}: cold run");
    }
}

/// `Gpu::snapshot` / `Gpu::restore` round-trip between launches: restoring
/// a snapshot into a fresh device and running the workload again matches
/// running it twice back-to-back on one device.
#[test]
fn explicit_snapshot_restore_roundtrip() {
    let card = GpuConfig::rtx2060();
    let w = VectorAdd::new(256);

    let mut twice = Gpu::new(card.clone());
    w.run(&mut twice).unwrap();
    let snap = twice.snapshot();
    let out_twice = w.run(&mut twice).unwrap();

    let mut restored = Gpu::new(card.clone());
    restored.restore(&snap);
    assert_eq!(restored.cycle(), snap.cycle());
    let out_restored = w.run(&mut restored).unwrap();

    assert_eq!(out_restored, out_twice);
    assert_eq!(restored.stats(), twice.stats());
    assert_eq!(restored.cycle(), twice.cycle());
}

/// Records `w` on `card` on the stride and within the budget a campaign
/// records it with, shadowing `plans`, and replays the output of every
/// plan whose faulty values reach it, as a campaign does.
fn record_valued(
    w: &dyn Workload,
    card: &GpuConfig,
    golden: &GoldenProfile,
    plans: &[InjectionPlan],
) -> std::sync::Arc<CheckpointStore> {
    let mut rec = Gpu::new(card.clone());
    let interval = (golden.total_cycles() / 24).max(1);
    rec.record_checkpoints(interval, gpufi::core::DEFAULT_CHECKPOINT_BUDGET);
    rec.shadow_plans(plans);
    w.run(&mut rec).unwrap();
    let store = rec.finish_checkpoint_recording_with(&golden.output, |gpu| w.run(gpu).ok());
    std::sync::Arc::new(store)
}

/// Every plan a recording whose shadows carry values settles gets
/// exactly the record its fork writes, on HS shared memory on the GTX
/// Titan, GE rf, NW rf stratified (200 runs, and 1,000), and LUD rf with
/// 3-bit flips and with warp-scope flips.  All but LUD settle SDC plans
/// (LUD's faulty values reach addresses, predicates or words stored in
/// the same launch first: EXPERIMENTS.md).  However many lanes a plan's
/// values spread to, it stays in the group: in the 1,000-run NW campaign
/// a settled SDC plan evaluates more than 2^10 lanes.
#[test]
fn value_settled_plans_get_their_forks_records() {
    let rf = || CampaignSpec::new(Structure::RegisterFile);
    let (rtx, titan) = (GpuConfig::rtx2060(), GpuConfig::gtx_titan());
    let cases = [
        (
            "HS",
            &titan,
            CampaignConfig::new(CampaignSpec::new(Structure::SharedMemory), 200, 11),
        ),
        ("GE", &rtx, CampaignConfig::new(rf(), 200, 11)),
        ("NW", &rtx, CampaignConfig::new(rf(), 200, 11).stratified()),
        ("NW", &rtx, CampaignConfig::new(rf(), 1000, 11).stratified()),
        ("LUD", &rtx, CampaignConfig::new(rf().bits(3), 200, 11)),
        ("LUD", &rtx, CampaignConfig::new(rf().warp_scope(), 200, 11)),
    ];
    for (name, card, cfg) in cases {
        let tag = format!("{name} on {} {:?}", card.name, cfg.spec);
        let w = by_name(name).unwrap();
        let golden = profile(w.as_ref(), card).unwrap();
        let plans = campaign_plans(w.as_ref(), card, &cfg, &golden).unwrap();
        let store = record_valued(w.as_ref(), card, &golden, &plans);
        let mut gpu = Gpu::new(card.clone());
        let (mut settled, mut sdc) = (0, Vec::new());
        for (i, plan) in plans.iter().enumerate() {
            let Some(s) = store.settle(plan) else {
                continue;
            };
            settled += 1;
            if s.effect == SettledEffect::Sdc {
                sdc.push(plan);
            }
            let forked = forked_record(&mut gpu, &store, w.as_ref(), plan, &golden);
            assert_eq!(
                forked,
                settled_record(&store, plan, &golden),
                "{tag} plan {i}"
            );
        }
        assert!(settled > 0, "{tag}: no plan settled");
        assert!(
            !sdc.is_empty() || name == "LUD",
            "{tag}: no plan settled SDC"
        );
        if plans.len() == 1000 {
            // The lanes a plan's shadow evaluates, shadowed alone.
            let heavy = sdc.iter().any(|plan| {
                let alone = record_valued(w.as_ref(), card, &golden, std::slice::from_ref(plan));
                alone.shadow_tally().lane_ops > 1 << 10
            });
            assert!(
                heavy,
                "{tag}: no settled SDC plan evaluates over 2^10 lanes"
            );
        }
    }
}

/// Plans never interact: on HS shared memory on the GTX Titan, GE rf and
/// NW rf stratified, each plan's verdict in a recording that shadows
/// every plan of a 200-run campaign is its verdict in a recording that
/// shadows it alone — settled the same way, or left by the same rule.
/// Debug builds check 40 plans of each campaign, spread over it; release
/// builds check every plan, and that the lanes the shadows evaluate add
/// up.
#[test]
fn shadowed_plans_never_interact() {
    let rf = || CampaignSpec::new(Structure::RegisterFile);
    let (rtx, titan) = (GpuConfig::rtx2060(), GpuConfig::gtx_titan());
    let cases = [
        (
            "HS",
            &titan,
            CampaignConfig::new(CampaignSpec::new(Structure::SharedMemory), 200, 11),
        ),
        ("GE", &rtx, CampaignConfig::new(rf(), 200, 11)),
        ("NW", &rtx, CampaignConfig::new(rf(), 200, 11).stratified()),
    ];
    for (name, card, cfg) in cases {
        let w = by_name(name).unwrap();
        let golden = profile(w.as_ref(), card).unwrap();
        let plans = campaign_plans(w.as_ref(), card, &cfg, &golden).unwrap();
        let all = record_valued(w.as_ref(), card, &golden, &plans);
        let every = if cfg!(debug_assertions) {
            plans.len() / 40
        } else {
            1
        };
        let (mut checked, mut lane_ops) = (0, 0);
        for (i, plan) in plans.iter().enumerate().step_by(every) {
            let alone = record_valued(w.as_ref(), card, &golden, std::slice::from_ref(plan));
            assert_eq!(
                (alone.settle(plan), alone.left_by(plan)),
                (all.settle(plan), all.left_by(plan)),
                "{name} plan {i}"
            );
            checked += 1;
            lane_ops += alone.shadow_tally().lane_ops;
        }
        assert!(checked >= 40, "{name}: {checked} plans checked");
        if every == 1 {
            assert_eq!(lane_ops, all.shadow_tally().lane_ops, "{name}");
        }
    }
}

/// The other direction on HS shared memory on the GTX Titan: every SDC
/// run of a 300-run campaign that ends at the golden cycle count is
/// settled, but the ones named here, each with the rule its plan left the
/// value group by.
#[test]
fn every_sdc_at_golden_cycles_is_settled_on_hs_shared() {
    let (w, card) = (by_name("HS").unwrap(), GpuConfig::gtx_titan());
    let cfg = CampaignConfig::new(CampaignSpec::new(Structure::SharedMemory), 300, 11);
    let golden = profile(w.as_ref(), &card).unwrap();
    let res = run_campaign(w.as_ref(), &card, &cfg, &golden).unwrap();
    let plans = campaign_plans(w.as_ref(), &card, &cfg, &golden).unwrap();
    let store = record_valued(w.as_ref(), &card, &golden, &plans);
    let exceptions: Vec<(usize, Option<Leave>)> = res
        .records
        .iter()
        .zip(&res.rungs)
        .enumerate()
        .filter(|(_, (r, &rung))| {
            r.effect == FaultEffect::Sdc
                && r.cycles == golden.total_cycles()
                && rung != Rung::Settled
        })
        .map(|(i, _)| (i, store.left_by(&plans[i])))
        .collect();
    let sdc = res
        .records
        .iter()
        .filter(|r| r.effect == FaultEffect::Sdc)
        .count();
    assert!(sdc > 150, "{sdc} SDC runs");
    assert_eq!(exceptions, vec![]);
}

/// The data-only cases: each workload and card with the plans whose
/// recording shadows them and the store they settle from — HS shared
/// memory on the GTX Titan (300 runs) and the GV100, GE rf, NW rf
/// stratified (250 runs), LUD rf, GE rf on the Mini chip (an L1D), PATHF
/// shared memory on the RTX 2060 and the GTX Titan (its values reach
/// global memory, and on the RTX 2060 the L1D), and HS shared memory on
/// the GTX Titan with plans in the last launch's final cycles, some with
/// a fault past the golden end that never fires.
#[allow(clippy::type_complexity)]
fn data_only_cases() -> Vec<(
    String,
    GpuConfig,
    Box<dyn Workload>,
    GoldenProfile,
    Vec<InjectionPlan>,
    std::sync::Arc<CheckpointStore>,
)> {
    let rf = || CampaignSpec::new(Structure::RegisterFile);
    let shared = || CampaignSpec::new(Structure::SharedMemory);
    let (rtx, titan, gv100) = (
        GpuConfig::rtx2060(),
        GpuConfig::gtx_titan(),
        GpuConfig::quadro_gv100(),
    );
    let cases = [
        ("HS", &titan, CampaignConfig::new(shared(), 300, 11)),
        ("HS", &gv100, CampaignConfig::new(shared(), 200, 11)),
        ("GE", &rtx, CampaignConfig::new(rf(), 200, 11)),
        ("NW", &rtx, CampaignConfig::new(rf(), 250, 11).stratified()),
        ("LUD", &rtx, CampaignConfig::new(rf(), 200, 11)),
        ("GE", &mini_chip(""), CampaignConfig::new(rf(), 200, 5)),
        ("PATHF", &rtx, CampaignConfig::new(shared(), 100, 5)),
        ("PATHF", &titan, CampaignConfig::new(shared(), 100, 5)),
        ("HS", &titan, CampaignConfig::new(shared(), 0, 11)),
    ];
    cases
        .into_iter()
        .map(|(name, card, cfg)| {
            let w = by_name(name).unwrap();
            let golden = profile(w.as_ref(), card).unwrap();
            let plans = if cfg.runs > 0 {
                campaign_plans(w.as_ref(), card, &cfg, &golden).unwrap()
            } else {
                // The tail: faults in the final 16 cycles, and every
                // fourth plan again with a second fault past the end.
                let mut plans = tail_plans(&golden, &cfg.spec, 11, 16);
                let end = golden.total_cycles() + 1;
                for k in (0..plans.len()).step_by(4) {
                    let mut past = plans[k].clone();
                    let fault = past.faults[0].clone();
                    past.faults.push(gpufi::sim::PlannedFault {
                        cycle: end,
                        ..fault
                    });
                    plans.push(past);
                }
                plans
            };
            let store = record_valued(w.as_ref(), card, &golden, &plans);
            let tag = format!(
                "{name} on {} {:?} ({} plans)",
                card.name,
                cfg.spec,
                plans.len()
            );
            (tag, card.clone(), w, golden, plans, store)
        })
        .collect()
}

/// Every plan a recording settles from its value shadows — among them
/// every plan still in the group at the end, Masked with an early exit
/// exactly where its fork reconverges — gets exactly the record its fork
/// writes, on every [`data_only_cases`] case.
#[test]
fn data_only_plans_get_their_forks_records() {
    let (mut reconverged, mut ran_out) = (0, 0);
    for (tag, card, w, golden, plans, store) in data_only_cases() {
        let mut gpu = Gpu::new(card.clone());
        for (i, plan) in plans.iter().enumerate() {
            let Some(s) = store.settle(plan) else {
                continue;
            };
            reconverged += usize::from(s.reconverged);
            let kept = s.effect == SettledEffect::Masked && !s.early_exit;
            ran_out += usize::from(kept && s.applied);
            let forked = forked_record(&mut gpu, &store, w.as_ref(), plan, &golden);
            assert_eq!(
                forked,
                settled_record(&store, plan, &golden),
                "{tag} plan {i}"
            );
        }
        assert!(
            store.shadow_tally().masked > 0,
            "{tag}: none kept to the end"
        );
    }
    assert!(reconverged > 0 && ran_out > 0, "{reconverged} {ran_out}");
}

/// The other direction: on every [`data_only_cases`] case, every plan
/// that stays in the value group — its fork's values never reach an
/// address, a predicate or the host between launches — is settled, but
/// the plans named here.  They are PATHF's on the RTX 2060, whose faulty
/// global words were filled into an L1D before every slot died: the
/// copy outlives the coherent view, so whether the fork reconverges is
/// not known; twelve of the fourteen do not.
#[test]
fn every_data_only_fork_is_settled() {
    let named: [&[usize]; 9] = [&[], &[], &[], &[], &[], &[], &PATHF_KEPT, &[], &[]];
    for ((tag, card, w, golden, plans, store), named) in data_only_cases().into_iter().zip(named) {
        let unsettled: Vec<usize> = (0..plans.len())
            .filter(|&i| store.left_by(&plans[i]).is_none() && store.settle(&plans[i]).is_none())
            .collect();
        assert_eq!(unsettled, named, "{tag}");
        assert_eq!(store.shadow_tally().kept, named.len(), "{tag}");
        let mut gpu = Gpu::new(card.clone());
        let reconverged = named
            .iter()
            .map(|&i| forked_record(&mut gpu, &store, w.as_ref(), &plans[i], &golden))
            .filter(|r| r.detail == RunDetail::Reconverged)
            .count();
        assert_eq!(reconverged, named.len().min(2), "{tag}");
    }
}

/// The PATHF shared-memory plans [`every_data_only_fork_is_settled`]
/// names.
const PATHF_KEPT: [usize; 14] = [15, 25, 34, 39, 43, 51, 60, 63, 67, 80, 81, 85, 87, 91];

/// The store's held bytes, counted as the recorder captures, equal a walk
/// of every snapshot on all three cards and the Mini chip, and after the
/// budget drops snapshots.
#[test]
fn held_bytes_are_counted_as_captured() {
    let w = by_name("HS").unwrap();
    for card in [
        GpuConfig::rtx2060(),
        GpuConfig::gtx_titan(),
        GpuConfig::quadro_gv100(),
        mini_chip(""),
    ] {
        let golden = profile(w.as_ref(), &card).unwrap();
        let store = record_store(w.as_ref(), &card, &golden);
        assert_eq!(
            store.held_bytes(),
            store.held_bytes_walked(),
            "{}",
            card.name
        );
        // A budget of three snapshots: the recorder halves the store.
        let mut rec = Gpu::new(card.clone());
        let budget = 3 * store.snapshot(0).resident_bytes();
        rec.record_checkpoints((golden.total_cycles() / 24).max(1), budget);
        w.run(&mut rec).unwrap();
        let halved = rec.finish_checkpoint_recording();
        assert!(halved.len() < store.len(), "{}", card.name);
        assert_eq!(
            halved.held_bytes(),
            halved.held_bytes_walked(),
            "{}",
            card.name
        );
    }
}

/// A settled Masked run that goes on to the golden end can end holding
/// faulty global words the host never reads: `--oracle-check` requires
/// its cold reference to end on the golden image with exactly those
/// words patched in.  HS shared memory on the GTX Titan (300 runs, seed
/// 11) has two such runs.
#[test]
fn runs_ending_on_faulty_words_nobody_reads_pass_the_oracle_check() {
    let (w, card) = (by_name("HS").unwrap(), GpuConfig::gtx_titan());
    let spec = CampaignSpec::new(Structure::SharedMemory);
    let golden = profile(w.as_ref(), &card).unwrap();
    let cfg = CampaignConfig::new(spec.clone(), 300, 11);
    let plans = campaign_plans(w.as_ref(), &card, &cfg, &golden).unwrap();
    let store = record_valued(w.as_ref(), &card, &golden, &plans);
    let ending: Vec<&InjectionPlan> = plans
        .iter()
        .filter(|p| !store.final_deltas(p).is_empty())
        .collect();
    assert_eq!(ending.len(), 2);
    for plan in ending {
        let s = store.settle(plan).unwrap();
        assert_eq!((s.effect, s.early_exit), (SettledEffect::Masked, false));
    }
    common::oracle_check("HS", &card, spec, 300, 11);
}
