//! Validation of the permanent stuck-at fault model: a stuck bit is
//! re-imposed after every write for the lifetime of the physical entity
//! it binds to, and the persistent-taint engine may cut a run short only
//! when that is provably sound (every stuck site dead *and* every taint
//! expired).  Control-unit campaigns (SIMT stack, warp scheduler, issue
//! scoreboard) must reproduce the paper's hang and divergence signatures.

mod common;

use gpufi::prelude::*;

/// Persistent-taint early exit must never change a stuck-at verdict: every
/// register-file run of VA and SP, both polarities, is confirmed by
/// `--oracle-check` against a cold full simulation of it, and every early
/// exit is Masked at the golden cycle count.
#[test]
fn stuck_at_early_exit_matches_full_simulation() {
    let card = GpuConfig::rtx2060();
    for name in ["VA", "SP"] {
        for model in [FaultModel::StuckAt0, FaultModel::StuckAt1] {
            let spec = CampaignSpec::new(Structure::RegisterFile).model(model);
            common::oracle_check(name, &card, spec, 100, 17);
        }
    }
}

/// A stuck-at-1 `at_barrier` / arrival-counter bit in the warp scheduler
/// makes a CTA barrier permanently unreleasable on a two-barrier workload:
/// the campaign must reproduce hang-via-lost-barrier with its own detail,
/// and the hang must be trapped deterministically (bit-identical records
/// across worker-thread counts).
#[test]
fn stuck_sched_campaign_reproduces_lost_barrier_hangs() {
    let w = ScalarProd::new(8);
    let card = GpuConfig::rtx2060();
    let golden = profile(&w, &card).unwrap();
    let spec = CampaignSpec::new(Structure::Sched).model(FaultModel::StuckAt1);
    let serial = run_campaign(
        &w,
        &card,
        &CampaignConfig::new(spec.clone(), 60, 7).with_threads(1),
        &golden,
    )
    .unwrap();
    let parallel = run_campaign(
        &w,
        &card,
        &CampaignConfig::new(spec, 60, 7).with_threads(4),
        &golden,
    )
    .unwrap();
    assert_eq!(
        serial.records, parallel.records,
        "hangs must be trapped deterministically"
    );
    let lost = serial
        .records
        .iter()
        .filter(|r| r.detail == RunDetail::LostBarrier)
        .count();
    assert!(lost > 0, "no lost-barrier hang in 60 sched stuck-at runs");
    assert!(
        serial.tally.count(FaultEffect::Timeout) >= lost as u64,
        "lost barriers must classify Timeout: {}",
        serial.tally
    );
    // A fired control fault escapes the taint domain; the engine must
    // never early-exit such a run.
    for r in serial.records.iter().filter(|r| r.applied) {
        assert!(!r.early_exit, "control faults must not early-exit");
    }
}

/// A stuck bit in the SIMT reconvergence stack on GE silently corrupts
/// which lanes execute.  Stuck-at-0 in the top entry's active mask drops
/// a live lane — its matrix updates never happen (divergence SDC), or the
/// rest of the warp retires without it (hang caught by the watchdog).
/// Stuck-at-1 in the pc half of the entry steers the warp to invalid
/// addresses (Crash).  Every run applies: a live warp always has a
/// top-of-stack entry.
#[test]
fn stuck_simt_stack_campaign_produces_divergence_sdc() {
    let w = Gaussian::default();
    let card = GpuConfig::rtx2060();
    let golden = profile(&w, &card).unwrap();
    let spec = CampaignSpec::new(Structure::SimtStack).model(FaultModel::StuckAt0);
    let r = run_campaign(&w, &card, &CampaignConfig::new(spec, 60, 11), &golden).unwrap();
    assert!(
        r.tally.count(FaultEffect::Sdc) > 0,
        "no divergence SDC in 60 GE simt-stack stuck-at-0 runs: {}",
        r.tally
    );
    assert_eq!(
        r.records.iter().filter(|rec| rec.applied).count(),
        60,
        "a live warp always has a TOS entry"
    );
    let spec = CampaignSpec::new(Structure::SimtStack).model(FaultModel::StuckAt1);
    let r = run_campaign(&w, &card, &CampaignConfig::new(spec, 60, 11), &golden).unwrap();
    assert!(
        r.tally.count(FaultEffect::Crash) > 0,
        "no crash in 60 GE simt-stack stuck-at-1 runs: {}",
        r.tally
    );
}

/// The scoreboard participates in the generic campaign machinery like any
/// structure: a stuck ready-cycle entry runs to completion and classifies.
#[test]
fn stuck_scoreboard_campaign_runs() {
    let w = VectorAdd::new(256);
    let card = GpuConfig::rtx2060();
    let golden = profile(&w, &card).unwrap();
    let spec = CampaignSpec::new(Structure::Scoreboard).model(FaultModel::StuckAt0);
    let r = run_campaign(&w, &card, &CampaignConfig::new(spec, 20, 3), &golden).unwrap();
    assert_eq!(r.tally.total(), 20);
    assert!(r.records.iter().any(|rec| rec.applied));
}

/// Stuck-at is only modelled where writes are physically re-pinned; the
/// cache hierarchy and local memory must reject it at plan-draw time,
/// before any run executes.
#[test]
fn caches_reject_stuck_at_campaigns() {
    let w = VectorAdd::new(256);
    let card = GpuConfig::rtx2060();
    let golden = profile(&w, &card).unwrap();
    for s in [Structure::L1Data, Structure::L2, Structure::LocalMemory] {
        let spec = CampaignSpec::new(s).model(FaultModel::StuckAt1);
        let err = run_campaign(&w, &card, &CampaignConfig::new(spec, 4, 1), &golden).unwrap_err();
        assert!(
            err.to_string().contains("is not supported for structure"),
            "{s}: wrong error: {err}"
        );
    }
}

/// Control-unit structures also take *transient* faults: a one-shot flip
/// of a scheduler or stack bit (no re-pinning) runs through the same
/// machinery and classifies.
#[test]
fn transient_control_campaigns_run() {
    let w = ScalarProd::new(8);
    let card = GpuConfig::rtx2060();
    let golden = profile(&w, &card).unwrap();
    for s in [
        Structure::SimtStack,
        Structure::Sched,
        Structure::Scoreboard,
    ] {
        let cfg = CampaignConfig::new(CampaignSpec::new(s), 16, 9);
        let r = run_campaign(&w, &card, &cfg, &golden).unwrap();
        assert_eq!(r.tally.total(), 16, "{s}");
        assert!(r.records.iter().any(|rec| rec.applied), "{s}");
    }
}
