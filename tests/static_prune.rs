//! Validation of ACE-style static dead-register pruning: pre-classifying
//! a register-file run as Masked because its faults land only in
//! registers no reachable instruction ever reads must never change what
//! the campaign concludes — only whether the run is simulated at all.

use gpufi::prelude::*;

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
    let ran_to_end = result
        .records
        .iter()
        .zip(&result.rungs)
        .filter(|&(r, &rung)| rung == Rung::Simulated && !r.early_exit)
        .count();
    assert_eq!(s.oracle_verified, 40 - ran_to_end);
}
