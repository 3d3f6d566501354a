//! Shared check for the integration tests: one `--oracle-check` campaign.

use gpufi::core::campaign_csv;
use gpufi::prelude::*;

/// Runs `runs` injections of `spec` into benchmark `name` on `card`, once
/// with `--oracle-check` and once without, and asserts the oracle check's
/// contract: the records are the default engine's byte for byte, a cold,
/// fully simulated, unpruned run of each agrees with its record, every
/// shortcut verdict — every run not simulated to its end — is confirmed,
/// at least one run forked from a
/// checkpoint, and every early exit — reconvergence included — is Masked
/// at the golden cycle count.  Returns the checked campaign and its golden
/// profile for the caller's own assertions.
pub fn oracle_check(
    name: &str,
    card: &GpuConfig,
    spec: CampaignSpec,
    runs: usize,
    seed: u64,
) -> (CampaignResult, GoldenProfile) {
    let tag = format!("{name} on {} {spec:?} seed {seed}", card.name);
    let w = gpufi::workloads::by_name(name).unwrap();
    let golden = profile(w.as_ref(), card).unwrap();
    let fast_cfg = CampaignConfig::new(spec, runs, seed);
    let checked_cfg = fast_cfg.clone().with_oracle_check();
    let checked = run_campaign(w.as_ref(), card, &checked_cfg, &golden).unwrap();
    let fast = run_campaign(w.as_ref(), card, &fast_cfg, &golden).unwrap();
    assert_eq!(
        campaign_csv(&checked),
        campaign_csv(&fast),
        "{tag}: the oracle check must not change a record"
    );
    let s = &checked.stats;
    assert_eq!(
        s.oracle_mismatches, 0,
        "{tag}: a record disagrees with its reference"
    );
    assert_eq!(s.oracle_checked, runs, "{tag}");
    let ran_to_end = checked
        .records
        .iter()
        .zip(&checked.rungs)
        .filter(|&(r, &rung)| rung == Rung::Simulated && !r.early_exit)
        .count();
    assert_eq!(
        s.oracle_verified,
        runs - ran_to_end,
        "{tag}: every shortcut verdict must be confirmed"
    );
    assert!(s.restores > 0, "{tag}: no run forked from a checkpoint");
    // Every early exit is Masked at the golden cycle count by construction.
    for r in checked.records.iter().filter(|r| r.early_exit) {
        assert_eq!(
            (r.effect, r.cycles),
            (FaultEffect::Masked, golden.total_cycles()),
            "{tag}"
        );
    }
    let reconverged = checked
        .records
        .iter()
        .filter(|r| r.detail == RunDetail::Reconverged)
        .count();
    assert_eq!(s.reconverged, reconverged, "{tag}");
    (checked, golden)
}
