//! Validation of the fault-lifetime early-exit engine: cutting a run short
//! once every fault's lifetime has ended must never change what the
//! campaign concludes, only how long it takes.

mod common;

use gpufi::prelude::*;

/// Early exit must never change a verdict: every register-file run of VA
/// and SP is confirmed by `--oracle-check` against a cold full simulation
/// of it — same effect, cycles and applied flag — and the engine cuts at
/// least some expired-fault runs short.
#[test]
fn early_exit_matches_full_simulation() {
    let card = GpuConfig::rtx2060();
    for name in ["VA", "SP"] {
        let spec = CampaignSpec::new(Structure::RegisterFile);
        let (r, _) = common::oracle_check(name, &card, spec, 200, 17);
        assert!(
            r.stats.early_exits > 0,
            "{name}: no run early-exited in 200"
        );
    }
}

/// A whole-application campaign (`kernel: None`, multi-kernel benchmark)
/// is deterministic across worker-thread counts under the work-stealing
/// scheduler.
#[test]
fn whole_app_campaign_is_deterministic_across_thread_counts() {
    let w = Srad1::default();
    let card = GpuConfig::rtx2060();
    let golden = profile(&w, &card).unwrap();
    let spec = CampaignSpec::new(Structure::RegisterFile);
    let serial = run_campaign(
        &w,
        &card,
        &CampaignConfig::new(spec.clone(), 8, 5).with_threads(1),
        &golden,
    )
    .unwrap();
    let parallel = run_campaign(
        &w,
        &card,
        &CampaignConfig::new(spec, 8, 5).with_threads(4),
        &golden,
    )
    .unwrap();
    assert_eq!(serial.records, parallel.records);
    assert_eq!(serial.tally, parallel.tally);
}

/// Seed 0 must be a first-class campaign seed: the old per-run seed mix
/// collapsed `seed * C ^ run` to the bare run index at seed 0, making
/// seeds 0 and 1 draw overlapping fault masks.
#[test]
fn seed_zero_is_a_distinct_campaign() {
    let w = VectorAdd::new(256);
    let card = GpuConfig::rtx2060();
    let golden = profile(&w, &card).unwrap();
    let spec = CampaignSpec::new(Structure::RegisterFile);
    let zero = run_campaign(
        &w,
        &card,
        &CampaignConfig::new(spec.clone(), 20, 0),
        &golden,
    )
    .unwrap();
    let one = run_campaign(&w, &card, &CampaignConfig::new(spec, 20, 1), &golden).unwrap();
    assert_ne!(zero.records, one.records, "seed 0 must differ from seed 1");
}

/// Campaign statistics reflect what actually ran.
#[test]
fn campaign_stats_are_populated() {
    let w = VectorAdd::new(256);
    let card = GpuConfig::rtx2060();
    let golden = profile(&w, &card).unwrap();
    let cfg = CampaignConfig::new(CampaignSpec::new(Structure::RegisterFile), 30, 3);
    let r = run_campaign(&w, &card, &cfg, &golden).unwrap();
    assert!(r.stats.wall_ms > 0.0);
    assert!(r.stats.runs_per_sec > 0.0);
    assert!(r.stats.threads >= 1);
    assert_eq!(
        r.stats.applied,
        r.records.iter().filter(|x| x.applied).count()
    );
    assert_eq!(
        r.stats.early_exits,
        r.records.iter().filter(|x| x.early_exit).count()
    );
    let n = r.records.len() as f64;
    assert!((r.stats.applied_rate - r.stats.applied as f64 / n).abs() < 1e-12);
    assert!((r.stats.early_exit_rate - r.stats.early_exits as f64 / n).abs() < 1e-12);
}

/// Taint-scan stride boundary: the fault-lifetime scan runs every 32
/// cycles, so a fault whose taint dies 1–31 cycles before the final EXIT
/// may never be *observed* as expired before the launch drains.  Such a
/// run must still classify exactly like full simulation — the engine is
/// only allowed to miss the shortcut, never to change the verdict.  Every
/// injection here lands inside the application's final 31 cycles, the
/// worst case for the stride, on cold devices with early exit on and off.
#[test]
fn taint_stride_boundary_matches_full_simulation() {
    let card = GpuConfig::rtx2060();
    let workloads: [Box<dyn Workload>; 2] =
        [Box::new(VectorAdd::new(256)), Box::new(Gaussian::default())];
    for w in &workloads {
        let golden = profile(w.as_ref(), &card).unwrap();
        let total = golden.total_cycles();
        let mut last = golden.windows(None).pop().unwrap();
        last.start = last.start.max(total - 31);
        let space = &golden.fault_spaces[&last.kernel];
        let spec = CampaignSpec::new(Structure::RegisterFile);
        let verdict = |plan: &InjectionPlan, early_exit: bool| {
            let mut gpu = Gpu::new(card.clone());
            gpu.arm_faults(plan.clone());
            gpu.set_watchdog(total * 2);
            gpu.set_early_exit(early_exit);
            let result = w.run(&mut gpu);
            let applied = gpu.injection_records().iter().any(|r| r.applied);
            if matches!(result, Err(WorkloadError::Trap(Trap::FaultsExpired))) {
                return (FaultEffect::Masked, total, applied);
            }
            let cycles = gpu.stats().total_cycles().max(gpu.cycle());
            (classify(&result, cycles, &golden), cycles, applied)
        };
        let mut applied = 0;
        for i in 0..120 {
            let plan = MaskGenerator::new(23 + i)
                .draw(&spec, space, std::slice::from_ref(&last))
                .unwrap();
            let fast = verdict(&plan, true);
            assert_eq!(fast, verdict(&plan, false), "{} run {i}", w.name());
            applied += usize::from(fast.2);
        }
        assert!(
            applied > 0,
            "{}: no fault applied in the final stride window",
            w.name()
        );
    }
}
