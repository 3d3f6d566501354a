//! Validation of liveness-interval stratified fault sampling: the
//! two-level estimator must reproduce what a much larger flat campaign
//! measures, stay bit-deterministic across worker threads and resume
//! boundaries, and never let a stratified journal masquerade as a flat
//! one (the reweighting math silently breaks if the two mix).

use gpufi::core::campaign_csv;
use gpufi::prelude::*;

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("gpufi-sampling-it");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}", std::process::id()))
        .to_str()
        .unwrap()
        .to_string()
}

/// A stratified register-file campaign must reproduce, per fault-effect
/// class, what a 5×-larger flat campaign measures — within the combined
/// uncertainty of the two estimates — while simulating every one of its
/// (far fewer) runs and reporting a flat-equivalent coverage well above
/// its simulated-run cost.  One row per workload: SP seed 11, and the VA
/// campaign `gpufi campaign --bench VA` draws at seed 3.
#[test]
fn stratified_estimate_agrees_with_a_flat_campaign_five_times_its_size() {
    let card = GpuConfig::rtx2060();
    let spec = CampaignSpec::new(Structure::RegisterFile);
    let rows: [(Box<dyn Workload>, u64); 2] = [
        (Box::new(ScalarProd::new(8)), 11),
        (gpufi::workloads::by_name("VA").unwrap(), 3),
    ];
    for (w, seed) in rows {
        let name = w.name();
        let golden = profile(w.as_ref(), &card).unwrap();
        let strat_runs = 100usize;
        let flat_runs = 5 * strat_runs;
        let strat_cfg = CampaignConfig::new(spec.clone(), strat_runs, seed).stratified();
        let flat_cfg = CampaignConfig::new(spec.clone(), flat_runs, seed);

        let strat = run_campaign(w.as_ref(), &card, &strat_cfg, &golden).unwrap();
        let flat = run_campaign(w.as_ref(), &card, &flat_cfg, &golden).unwrap();

        let summary = strat.sampling.as_ref().expect("stratified summary");
        assert!(summary.strata > 0, "{name}");
        assert!(
            summary.masked_weight > 0.0,
            "{name}: no analytically-masked mass"
        );
        assert_eq!(summary.allocation.iter().sum::<usize>(), strat_runs);

        // Stratified draws land only in live intervals, so the static prune
        // never fires and every run the checkpoint store does not settle is
        // simulated.
        assert_eq!(strat.stats.static_pruned, 0, "{name}");
        assert_eq!(
            strat.stats.simulated_runs,
            strat_runs - strat.stats.settled,
            "{name}: {:?}",
            strat.stats
        );
        assert_eq!(strat.tally.total(), strat_runs as u64);

        // Two-level agreement: |p̂_strat − p̂_flat| within the stratified
        // half-width plus the flat campaign's own Leveugle margin.
        let intervals = summary.agreement_intervals(flat_runs as u64);
        for (e, interval) in FaultEffect::ALL.into_iter().zip(intervals) {
            let flat_p = flat.tally.fraction(e);
            assert!(
                interval.contains(flat_p),
                "{name} {}: {interval:?} misses flat {flat_p:.4}",
                e.name()
            );
        }

        // The coverage accounting must reflect the analytically-classified
        // mass: well more flat-equivalent coverage than runs simulated.
        assert!(
            strat.stats.effective_runs > 1.5 * strat_runs as f64,
            "{name}: effective {} for {} simulated",
            strat.stats.effective_runs,
            strat_runs
        );
        assert!(summary.estimate.equivalent_flat_runs() > strat_runs as f64);
    }
}

/// Stratified campaigns are bit-deterministic: the same configuration on
/// one worker thread and four must yield identical records, stats and
/// stratum assignments, and the CSV must carry the stratum index in its
/// trailing append-only column on every row.
#[test]
fn stratified_is_bit_identical_across_thread_counts() {
    let w = NeedlemanWunsch::default();
    let card = GpuConfig::rtx2060();
    let golden = profile(&w, &card).unwrap();
    let spec = CampaignSpec::new(Structure::RegisterFile);
    let cfg1 = CampaignConfig::new(spec.clone(), 60, 7)
        .stratified()
        .with_threads(1);
    let cfg4 = cfg1.clone().with_threads(4);

    let a = run_campaign(&w, &card, &cfg1, &golden).unwrap();
    let b = run_campaign(&w, &card, &cfg4, &golden).unwrap();
    assert_eq!(campaign_csv(&a), campaign_csv(&b));
    assert_eq!(a.tally, b.tally);

    let sa = a.sampling.as_ref().unwrap();
    let sb = b.sampling.as_ref().unwrap();
    assert_eq!(sa.layout_hash, sb.layout_hash);
    assert_eq!(sa.allocation, sb.allocation);
    for e in FaultEffect::ALL {
        let (ca, cb) = (sa.estimate.class(e), sb.estimate.class(e));
        assert_eq!(ca.estimate.to_bits(), cb.estimate.to_bits(), "{}", e.name());
        assert_eq!(ca.half_width.to_bits(), cb.half_width.to_bits());
    }

    // Every record carries its stratum in the next-to-last column (a
    // flat row would leave it empty); the trailing fault_model column is
    // empty — stratified sampling is transient-only.
    let csv = campaign_csv(&a);
    for (row, rec) in csv.lines().skip(1).zip(&a.records) {
        let s = rec.stratum.expect("stratified record without a stratum");
        assert!((s as usize) < sa.strata);
        assert!(row.ends_with(&format!(",{s},")), "row `{row}`");
    }
}

/// A stratified journal interrupted mid-campaign (torn final line, the
/// SIGKILL artifact) must resume to records byte-identical to the
/// uninterrupted run, stratum column included.
#[test]
fn stratified_resume_is_bit_identical_after_truncation() {
    let w = VectorAdd::new(256);
    let card = GpuConfig::rtx2060();
    let golden = profile(&w, &card).unwrap();
    let path = tmp("strat-resume.journal.jsonl");
    let cfg = CampaignConfig::new(CampaignSpec::new(Structure::RegisterFile), 80, 19)
        .stratified()
        .with_journal(path.clone());
    let full = run_campaign(&w, &card, &cfg, &golden).unwrap();
    let full_csv = campaign_csv(&full);
    assert_eq!(full.stats.resumed, 0);

    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    assert_eq!(lines.len(), 81, "header + one line per run");
    // Mid-file cut plus a torn (partial) next line.
    let mut torn = lines[..41].concat();
    torn.push_str(&lines[41][..lines[41].len() / 2]);
    std::fs::write(&path, torn).unwrap();

    let resumed_cfg = cfg.clone().with_resume().with_threads(3);
    let resumed = run_campaign(&w, &card, &resumed_cfg, &golden).unwrap();
    assert_eq!(campaign_csv(&resumed), full_csv);
    assert_eq!(resumed.stats.resumed, 40);
    assert_eq!(
        resumed.sampling.as_ref().unwrap().layout_hash,
        full.sampling.as_ref().unwrap().layout_hash
    );
    std::fs::remove_file(&path).ok();
}

/// The sampling mode is part of the campaign fingerprint: a flat journal
/// must refuse a stratified `--resume` and vice versa.  Splicing records
/// drawn from one distribution into an estimator reweighting for the
/// other would bias every class silently.
#[test]
fn resume_refuses_to_mix_stratified_and_flat_journals() {
    let w = VectorAdd::new(128);
    let card = GpuConfig::rtx2060();
    let golden = profile(&w, &card).unwrap();
    let spec = CampaignSpec::new(Structure::RegisterFile);

    // Flat journal, stratified resume.
    let path = tmp("mixing-flat.journal.jsonl");
    let flat_cfg = CampaignConfig::new(spec.clone(), 30, 5).with_journal(path.clone());
    run_campaign(&w, &card, &flat_cfg, &golden).unwrap();
    let strat_resume = flat_cfg.clone().stratified().with_resume();
    match run_campaign(&w, &card, &strat_resume, &golden) {
        Err(CampaignError::Journal(msg)) => {
            assert!(msg.contains("different campaign"), "{msg}");
        }
        other => panic!("stratified resume accepted a flat journal: {other:?}"),
    }
    std::fs::remove_file(&path).ok();

    // Stratified journal, flat resume.
    let path = tmp("mixing-strat.journal.jsonl");
    let strat_cfg = CampaignConfig::new(spec, 30, 5)
        .stratified()
        .with_journal(path.clone());
    run_campaign(&w, &card, &strat_cfg, &golden).unwrap();
    let flat_resume = CampaignConfig::new(CampaignSpec::new(Structure::RegisterFile), 30, 5)
        .with_journal(path.clone())
        .with_resume();
    match run_campaign(&w, &card, &flat_resume, &golden) {
        Err(CampaignError::Journal(msg)) => {
            assert!(msg.contains("different campaign"), "{msg}");
        }
        other => panic!("flat resume accepted a stratified journal: {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

/// Stratified sampling is only defined for the register file (the only
/// structure with per-register liveness intervals); other structures
/// must be rejected up front, not silently sampled flat.
#[test]
fn stratified_rejects_non_register_structures() {
    let w = VectorAdd::new(128);
    let card = GpuConfig::rtx2060();
    let golden = profile(&w, &card).unwrap();
    let cfg = CampaignConfig::new(CampaignSpec::new(Structure::L2), 20, 3).stratified();
    match run_campaign(&w, &card, &cfg, &golden) {
        Err(CampaignError::Sampling(msg)) => {
            assert!(msg.contains("register file"), "{msg}");
        }
        other => panic!("expected a sampling rejection, got {other:?}"),
    }
}
