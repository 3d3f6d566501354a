//! Validation of ACE-style static dead-register pruning: pre-classifying
//! a register-file run as Masked because its faults land only in
//! registers no reachable instruction ever reads must never change what
//! the campaign concludes — only whether the run is simulated at all.

use gpufi::prelude::*;

/// Pruned and fully simulated campaigns must agree run for run — same
/// effect, same cycle count, same tally — across ≥200 register-file runs
/// of two workloads with statically dead registers (`scalar_prod` never
/// touches R3; `nw_diagonal` skips R5/R13/R14).  Only the `detail` and
/// `early_exit` markers may differ: a pruned run records `static_dead`
/// where the full engine records a fault-lifetime early exit.
#[test]
fn static_prune_matches_full_simulation() {
    let card = GpuConfig::rtx2060();
    let workloads: [Box<dyn Workload>; 2] = [
        Box::new(ScalarProd::new(8)),
        Box::new(NeedlemanWunsch::default()),
    ];
    for w in &workloads {
        let golden = profile(w.as_ref(), &card).unwrap();
        let spec = CampaignSpec::new(Structure::RegisterFile);
        let pruned_cfg = CampaignConfig::new(spec.clone(), 200, 23);
        let full_cfg = CampaignConfig::new(spec, 200, 23).no_static_prune();
        let pruned = run_campaign(w.as_ref(), &card, &pruned_cfg, &golden).unwrap();
        let full = run_campaign(w.as_ref(), &card, &full_cfg, &golden).unwrap();
        assert_eq!(pruned.tally, full.tally, "{}: tallies diverge", w.name());
        for (i, (a, b)) in pruned.records.iter().zip(&full.records).enumerate() {
            assert_eq!(a.effect, b.effect, "{} run {i}: effect", w.name());
            assert_eq!(a.cycles, b.cycles, "{} run {i}: cycles", w.name());
        }
        // The validation mode never prunes; the analyzer should prune at
        // least some dead-register draws in 200 runs.
        assert_eq!(full.stats.static_pruned, 0);
        assert!(
            pruned.stats.static_pruned > 0,
            "{}: no run was statically pruned in 200",
            w.name()
        );
        assert!(
            (pruned.stats.static_pruned_rate - pruned.stats.static_pruned as f64 / 200.0).abs()
                < 1e-12
        );
        // Every pruned run is Masked at the golden cycle count by
        // construction, and the full engine must agree on each of them.
        for (i, r) in pruned.records.iter().enumerate() {
            if r.detail == RunDetail::StaticDead {
                assert_eq!(r.effect, FaultEffect::Masked, "run {i}");
                assert_eq!(r.cycles, golden.total_cycles(), "run {i}");
                assert!(!r.early_exit, "run {i}: pruned runs are not early exits");
            }
        }
    }
}

/// The prune composes with `--no-early-exit`: even when the full-engine
/// baseline simulates every non-pruned run to completion, the per-run
/// verdicts still match the doubly-validating cold path.
#[test]
fn static_prune_matches_full_simulation_without_early_exit() {
    let w = ScalarProd::new(8);
    let card = GpuConfig::rtx2060();
    let golden = profile(&w, &card).unwrap();
    let spec = CampaignSpec::new(Structure::RegisterFile);
    let pruned_cfg = CampaignConfig::new(spec.clone(), 60, 9).no_early_exit();
    let full_cfg = CampaignConfig::new(spec, 60, 9)
        .no_early_exit()
        .no_static_prune();
    let pruned = run_campaign(&w, &card, &pruned_cfg, &golden).unwrap();
    let full = run_campaign(&w, &card, &full_cfg, &golden).unwrap();
    assert_eq!(pruned.tally, full.tally);
    assert!(pruned.stats.static_pruned > 0);
    for (i, (a, b)) in pruned.records.iter().zip(&full.records).enumerate() {
        assert_eq!(a.effect, b.effect, "run {i}: effect");
        assert_eq!(a.cycles, b.cycles, "run {i}: cycles");
    }
}

/// `--oracle-check` keeps the prune — it checks the default resolution
/// instead of bypassing it — and confirms every dead-register verdict
/// against a cold, fully simulated, unpruned run of it.
#[test]
fn oracle_check_confirms_static_prune() {
    let w = ScalarProd::new(8);
    let card = GpuConfig::rtx2060();
    let golden = profile(&w, &card).unwrap();
    let cfg =
        CampaignConfig::new(CampaignSpec::new(Structure::RegisterFile), 40, 23).with_oracle_check();
    let result = run_campaign(&w, &card, &cfg, &golden).unwrap();
    let s = &result.stats;
    assert!(s.static_pruned > 0);
    assert_eq!(s.oracle_mismatches, 0);
    assert_eq!(s.oracle_checked, 40);
    assert_eq!(
        s.oracle_verified,
        s.early_exits + s.static_pruned + s.static_bit_pruned
    );
}
