//! Stratified-sampling benchmark (`cargo bench --bench sampling`).
//!
//! Headline for the liveness-interval stratified estimator: on the two
//! paper workloads with the richest register-liveness structure —
//! Gaussian elimination (GE) and Needleman-Wunsch (NW) — a stratified
//! register-file campaign must reproduce what a 5× / 10× larger flat
//! campaign measures, per fault-effect class, within the combined
//! uncertainty of the two estimates.  Results (including the flat
//! baseline and both budget cuts) are written to `BENCH_sampling.json`
//! at the repository root.
//!
//! CI regression gate: when `GPUFI_SAMPLING_BASELINE` names an existing
//! `BENCH_sampling.json` (normally the committed copy), the fresh GE
//! stratified effective-runs/s is compared against the recorded value
//! *before* the file is overwritten, and the benchmark exits nonzero on
//! a >20% regression.

use gpufi_core::{json, profile, run_campaign, CampaignConfig, GoldenProfile, Workload};
use gpufi_faults::{CampaignSpec, Structure};
use gpufi_metrics::{margin_of_error, FaultEffect};
use gpufi_sim::GpuConfig;
use gpufi_workloads::{Gaussian, NeedlemanWunsch};

const FLAT_RUNS: usize = 500;
const SEED: u64 = 11;
const CONFIDENCE: f64 = 0.99;

/// Runs the flat baseline plus stratified campaigns at 1/5 and 1/10 of
/// its budget on one workload; returns the JSON fragment for that
/// workload and the stratified-at-1/5 effective runs/s (the gate metric).
fn bench_workload(w: &dyn Workload, card: &GpuConfig, golden: &GoldenProfile) -> (String, f64) {
    let spec = CampaignSpec::new(Structure::RegisterFile);
    let flat_cfg = CampaignConfig::new(spec.clone(), FLAT_RUNS, SEED);
    let flat = run_campaign(w, card, &flat_cfg, golden).unwrap();
    println!(
        "{}: flat {} runs, {:.1} runs/s, failure ratio {:.4}",
        w.name(),
        FLAT_RUNS,
        flat.stats.runs_per_sec,
        1.0 - flat.tally.fraction(FaultEffect::Masked),
    );

    let mut cuts = String::new();
    let mut gate_eff = 0.0;
    for factor in [5usize, 10] {
        let runs = FLAT_RUNS / factor;
        let cfg = CampaignConfig::new(spec.clone(), runs, SEED).stratified();
        let res = run_campaign(w, card, &cfg, golden).unwrap();
        // Every run the checkpoint store does not settle is simulated.
        assert_eq!(res.stats.simulated_runs + res.stats.settled, runs);
        let s = res.sampling.as_ref().unwrap();
        let intervals = s.agreement_intervals(flat.tally.total());
        for (e, interval) in FaultEffect::ALL.into_iter().zip(intervals) {
            let flat_p = flat.tally.fraction(e);
            assert!(
                interval.contains(flat_p),
                "{}/{factor}x {}: {interval:?} misses flat {flat_p:.4}",
                w.name(),
                e.name()
            );
        }
        assert!(
            s.estimate.equivalent_flat_runs() > runs as f64,
            "stratification bought no coverage"
        );
        println!(
            "{}: stratified /{} — {} simulated runs ({} strata, {:.1}% masked mass), \
             {:.1} sim runs/s, {:.1} effective runs/s, ≈{:.0} flat-equivalent",
            w.name(),
            factor,
            runs,
            s.strata,
            s.masked_weight * 100.0,
            res.stats.sim_runs_per_sec,
            res.stats.effective_runs_per_sec,
            s.estimate.equivalent_flat_runs(),
        );
        if factor == 5 {
            gate_eff = res.stats.effective_runs_per_sec;
        }
        cuts.push_str(&format!(
            ",\n    \"stratified_{factor}x\": {{\n      \"runs\": {runs},\n      \
             \"strata\": {},\n      \"masked_weight\": {:.4},\n      \
             \"sim_runs_per_sec\": {:.2},\n      \"effective_runs_per_sec\": {:.2},\n      \
             \"equivalent_flat_runs\": {:.1},\n      \"failure_ratio\": {:.4},\n      \
             \"failure_half_width\": {:.4},\n      \"reduction\": {factor}\n    }}",
            s.strata,
            s.masked_weight,
            res.stats.sim_runs_per_sec,
            res.stats.effective_runs_per_sec,
            s.estimate.equivalent_flat_runs(),
            s.estimate.failure.estimate,
            s.estimate.failure.half_width,
        ));
    }

    let fragment = format!(
        "{{\n    \"flat_runs\": {FLAT_RUNS},\n    \"flat_runs_per_sec\": {:.2},\n    \
         \"flat_failure_ratio\": {:.4},\n    \
         \"flat_margin_of_error\": {:.4}{cuts}\n  }}",
        flat.stats.runs_per_sec,
        1.0 - flat.tally.fraction(FaultEffect::Masked),
        margin_of_error(CONFIDENCE, FLAT_RUNS as u64, u64::MAX),
    );
    (fragment, gate_eff)
}

fn main() {
    let card = GpuConfig::rtx2060();

    let ge = Gaussian::default();
    let ge_golden = profile(&ge, &card).unwrap();
    let (ge_json, ge_eff) = bench_workload(&ge, &card, &ge_golden);

    let nw = NeedlemanWunsch::default();
    let nw_golden = profile(&nw, &card).unwrap();
    let (nw_json, _) = bench_workload(&nw, &card, &nw_golden);

    // CI regression gate against the committed results, checked before
    // the file is rewritten.
    if let Ok(path) = std::env::var("GPUFI_SAMPLING_BASELINE") {
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline `{path}`: {e}"));
        let old: f64 = json::parse(&committed)
            .unwrap_or_else(|e| panic!("baseline `{path}` is not JSON: {e}"))
            .get("ge_effective_runs_per_sec")
            .and_then(json::Value::as_num)
            .expect("baseline lacks ge_effective_runs_per_sec");
        let floor = old * 0.8;
        println!("regression gate: {ge_eff:.1} effective runs/s vs floor {floor:.1} (committed {old:.1})");
        assert!(
            ge_eff >= floor,
            "sampling regression: {ge_eff:.1} effective runs/s is more than 20% below \
             the committed {old:.1}"
        );
    }

    let json = format!(
        "{{\n  \"benchmark\": \"stratified_sampling\",\n  \"seed\": {SEED},\n  \
         \"confidence\": {CONFIDENCE},\n  \
         \"ge_effective_runs_per_sec\": {ge_eff:.2},\n  \
         \"GE\": {ge_json},\n  \"NW\": {nw_json}\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sampling.json");
    std::fs::write(path, json).expect("write BENCH_sampling.json");
    println!("results written to BENCH_sampling.json");
}
