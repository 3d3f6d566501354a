//! Stratified (two-level) campaign estimation.
//!
//! The flat Leveugle methodology ([`crate::sample_size`]) draws every run
//! uniformly from the fault population and pays full simulation for each.
//! The two-level model (Hari et al.) instead partitions the population into
//! strata whose membership can be decided *analytically* — here from
//! per-register liveness intervals of the golden run:
//!
//! * a **masked stratum** covers fault sites provably unobservable (the
//!   register is never read again before the launch re-initializes it);
//!   its entire probability mass is assigned to `Masked` with zero
//!   simulated runs;
//! * each **live stratum** is sampled with full-fidelity injection runs,
//!   and its class frequencies are reweighted by the stratum's population
//!   weight.
//!
//! The estimator here is the classical stratified mean with its standard
//! error:
//!
//! ```text
//! p̂(c)   = W_masked·[c = Masked] + Σ_s W_s · n_{s,c} / n_s
//! Var(c) = Σ_s W_s² · p̂_s(c)(1 − p̂_s(c)) / n_s
//! CI(c)  = z · sqrt(Var(c))
//! ```
//!
//! The budget is split by **proportional** allocation (`n_s ∝ W_s`,
//! deterministic, one-run floor per live stratum).

use crate::effect::{FaultEffect, Tally};
use crate::stat::z_score;

/// One live stratum's inputs to the estimator: its population weight
/// (fraction of the *whole* fault population, masked mass included) and
/// the tally of its simulated runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StratumObservation {
    /// Fraction of the fault population this stratum covers, in `[0, 1]`.
    pub weight: f64,
    /// Classification tally of the stratum's simulated runs.
    pub tally: Tally,
}

/// A point estimate with a symmetric confidence half-width.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClassEstimate {
    /// Estimated population fraction of the class, in `[0, 1]`.
    pub estimate: f64,
    /// Half-width of the two-sided confidence interval (`± half_width`).
    pub half_width: f64,
}

impl ClassEstimate {
    /// Whether `value` lies inside the interval `estimate ± half_width`.
    pub fn contains(&self, value: f64) -> bool {
        (value - self.estimate).abs() <= self.half_width + 1e-12
    }
}

/// The reweighted per-class estimates of a stratified campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct StratifiedEstimate {
    /// Confidence level the half-widths are computed at.
    pub confidence: f64,
    /// Analytically-classified masked mass (no runs simulated for it).
    pub masked_weight: f64,
    /// Total simulated runs across the live strata.
    pub simulated: u64,
    /// Per-class estimates, in [`FaultEffect::ALL`] order.
    pub classes: [ClassEstimate; 5],
    /// Failure-ratio estimate (SDC + Crash + Timeout), equation (1).
    pub failure: ClassEstimate,
}

impl StratifiedEstimate {
    /// The estimate for one class.
    pub fn class(&self, e: FaultEffect) -> ClassEstimate {
        let i = FaultEffect::ALL.iter().position(|&c| c == e).unwrap();
        self.classes[i]
    }

    /// The flat-campaign run count a Leveugle-sized campaign would need to
    /// reach this estimate's failure half-width at the same confidence
    /// (worst case `p = 0.5`, infinite population): `N_eq = z²/(4h²)`.
    /// Infinite when the half-width is zero.
    pub fn equivalent_flat_runs(&self) -> f64 {
        let z = z_score(self.confidence);
        let h = self.failure.half_width;
        if h <= 0.0 {
            f64::INFINITY
        } else {
            z * z * 0.25 / (h * h)
        }
    }
}

/// Computes the stratified estimate from live-stratum observations plus the
/// analytically-masked weight.
///
/// Weights should sum to `1 − masked_weight` up to rounding; strata with
/// zero simulated runs contribute their weight to no class and the maximum
/// per-run variance (they widen the interval rather than silently
/// vanishing) unless their weight is zero.
///
/// # Panics
///
/// Panics unless `0 < confidence < 1` (via [`z_score`]) or if any weight or
/// `masked_weight` is negative.
pub fn stratified_estimate(
    strata: &[StratumObservation],
    masked_weight: f64,
    confidence: f64,
) -> StratifiedEstimate {
    assert!(masked_weight >= 0.0, "negative masked weight");
    let z = z_score(confidence);
    let mut classes = [ClassEstimate::default(); 5];
    let mut simulated = 0u64;
    let mut variance = [0.0f64; 5];
    for s in strata {
        assert!(s.weight >= 0.0, "negative stratum weight");
        let n = s.tally.total();
        simulated += n;
        if s.weight == 0.0 {
            continue;
        }
        for (i, &e) in FaultEffect::ALL.iter().enumerate() {
            if n == 0 {
                // No observations: contribute nothing to the point estimate
                // but the worst-case Bernoulli variance to the interval.
                variance[i] += s.weight * s.weight * 0.25;
                continue;
            }
            let p = s.tally.count(e) as f64 / n as f64;
            classes[i].estimate += s.weight * p;
            variance[i] += s.weight * s.weight * p * (1.0 - p) / n as f64;
        }
    }
    let masked_idx = FaultEffect::ALL
        .iter()
        .position(|&c| c == FaultEffect::Masked)
        .unwrap();
    classes[masked_idx].estimate += masked_weight;
    for (c, v) in classes.iter_mut().zip(variance) {
        c.half_width = z * v.sqrt();
    }

    // Failure ratio: the sum of the three failure classes is itself a
    // stratified proportion; estimate and variance follow the same formula
    // with p_s = failure fraction of the stratum.
    let mut failure = ClassEstimate::default();
    let mut fvar = 0.0f64;
    for s in strata {
        if s.weight == 0.0 {
            continue;
        }
        let n = s.tally.total();
        if n == 0 {
            fvar += s.weight * s.weight * 0.25;
            continue;
        }
        let p = s.tally.failures() as f64 / n as f64;
        failure.estimate += s.weight * p;
        fvar += s.weight * s.weight * p * (1.0 - p) / n as f64;
    }
    failure.half_width = z * fvar.sqrt();

    StratifiedEstimate {
        confidence,
        masked_weight,
        simulated,
        classes,
        failure,
    }
}

/// Proportional budget allocation: `n_s ∝ w_s`, every positive-weight
/// stratum gets at least one run, remainders distributed by the
/// largest-remainder rule (ties to the lower index) so the result is
/// deterministic.  Zero-weight strata get zero runs.
///
/// # Panics
///
/// Panics when `budget` is smaller than the number of positive-weight
/// strata (the allocation would be degenerate) or a weight is negative.
pub fn proportional_allocation(weights: &[f64], budget: usize) -> Vec<usize> {
    let positive: Vec<usize> = weights
        .iter()
        .enumerate()
        .filter_map(|(i, &w)| {
            assert!(w >= 0.0, "negative stratum weight");
            (w > 0.0).then_some(i)
        })
        .collect();
    let mut out = vec![0usize; weights.len()];
    if positive.is_empty() {
        assert!(
            budget == 0,
            "budget {budget} with no positive-weight strata"
        );
        return out;
    }
    assert!(
        budget >= positive.len(),
        "budget {budget} cannot give each of {} live strata one run",
        positive.len()
    );
    let total: f64 = positive.iter().map(|&i| weights[i]).sum();
    let spare = (budget - positive.len()) as f64;
    // Floor of 1 per live stratum, then largest-remainder on the spare.
    let mut rema: Vec<(usize, f64)> = Vec::with_capacity(positive.len());
    let mut used = positive.len();
    for &i in &positive {
        let quota = spare * weights[i] / total;
        let fl = quota.floor();
        out[i] = 1 + fl as usize;
        used += fl as usize;
        rema.push((i, quota - fl));
    }
    // Deterministic tie-break: larger remainder first, then lower index.
    rema.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    for (i, _) in rema.into_iter().take(budget - used) {
        out[i] += 1;
    }
    debug_assert_eq!(out.iter().sum::<usize>(), budget);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stat::margin_of_error;
    use gpufi_sim::rng::splitmix64;

    fn tally(masked: u64, sdc: u64, crash: u64, timeout: u64, perf: u64) -> Tally {
        Tally {
            masked,
            sdc,
            crash,
            timeout,
            performance: perf,
        }
    }

    /// A uniform draw in `[0, 1)` from a splitmix64 stream — the generator
    /// the campaign engine derives per-run seeds with.
    fn unit(state: &mut u64) -> f64 {
        (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn point_estimate_reweights_by_stratum() {
        // Two live strata 30%/10%, masked mass 60%.
        let strata = [
            StratumObservation {
                weight: 0.3,
                tally: tally(5, 5, 0, 0, 0), // 50% SDC
            },
            StratumObservation {
                weight: 0.1,
                tally: tally(0, 10, 0, 0, 0), // 100% SDC
            },
        ];
        let est = stratified_estimate(&strata, 0.6, 0.99);
        // SDC: 0.3·0.5 + 0.1·1.0 = 0.25; Masked: 0.6 + 0.3·0.5 = 0.75.
        assert!((est.class(FaultEffect::Sdc).estimate - 0.25).abs() < 1e-12);
        assert!((est.class(FaultEffect::Masked).estimate - 0.75).abs() < 1e-12);
        assert!((est.failure.estimate - 0.25).abs() < 1e-12);
        assert_eq!(est.simulated, 20);
        // The all-SDC stratum contributes zero variance; only the first
        // stratum's 0.5·0.5/10 term remains.
        let z = z_score(0.99);
        let want = z * (0.3f64 * 0.3 * 0.25 / 10.0).sqrt();
        assert!((est.class(FaultEffect::Sdc).half_width - want).abs() < 1e-12);
    }

    #[test]
    fn class_estimates_sum_to_one() {
        let strata = [
            StratumObservation {
                weight: 0.25,
                tally: tally(3, 1, 1, 1, 2),
            },
            StratumObservation {
                weight: 0.15,
                tally: tally(0, 2, 0, 0, 1),
            },
        ];
        let est = stratified_estimate(&strata, 0.6, 0.95);
        let sum: f64 = est.classes.iter().map(|c| c.estimate).sum();
        assert!((sum - 1.0).abs() < 1e-12, "got {sum}");
    }

    /// Seeded property test: on synthetic strata with known ground-truth
    /// class probabilities, the mean of many estimates converges to the
    /// population value (unbiasedness) for every class.
    #[test]
    fn estimator_is_unbiased_on_synthetic_strata() {
        // Ground truth: three live strata with distinct failure profiles.
        let weights = [0.2, 0.15, 0.05];
        let masked_w = 1.0 - weights.iter().sum::<f64>();
        // Per-stratum (sdc, crash, timeout, perf) probabilities; the rest
        // is masked-within-stratum.
        let profiles = [
            [0.30, 0.10, 0.00, 0.10],
            [0.05, 0.00, 0.05, 0.00],
            [0.80, 0.10, 0.05, 0.05],
        ];
        let runs = [40usize, 30, 10];
        // Population truth for the failure ratio.
        let true_failure: f64 = weights
            .iter()
            .zip(&profiles)
            .map(|(w, p)| w * (p[0] + p[1] + p[2]))
            .sum();
        let true_masked: f64 = masked_w
            + weights
                .iter()
                .zip(&profiles)
                .map(|(w, p)| w * (1.0 - p.iter().sum::<f64>()))
                .sum::<f64>();

        let mut state = 0x5eed_0001u64;
        let reps = 400;
        let mut mean_failure = 0.0;
        let mut mean_masked = 0.0;
        let mut covered = 0u32;
        for _ in 0..reps {
            let strata: Vec<StratumObservation> = weights
                .iter()
                .zip(&profiles)
                .zip(&runs)
                .map(|((&w, p), &n)| {
                    let mut t = Tally::default();
                    for _ in 0..n {
                        let u = unit(&mut state);
                        let e = if u < p[0] {
                            FaultEffect::Sdc
                        } else if u < p[0] + p[1] {
                            FaultEffect::Crash
                        } else if u < p[0] + p[1] + p[2] {
                            FaultEffect::Timeout
                        } else if u < p.iter().sum::<f64>() {
                            FaultEffect::Performance
                        } else {
                            FaultEffect::Masked
                        };
                        t.record(e);
                    }
                    StratumObservation {
                        weight: w,
                        tally: t,
                    }
                })
                .collect();
            let est = stratified_estimate(&strata, masked_w, 0.99);
            mean_failure += est.failure.estimate;
            mean_masked += est.class(FaultEffect::Masked).estimate;
            if est.failure.contains(true_failure) {
                covered += 1;
            }
        }
        mean_failure /= reps as f64;
        mean_masked /= reps as f64;
        // Monte-Carlo error of the mean over 400 reps is well under 0.01.
        assert!(
            (mean_failure - true_failure).abs() < 0.01,
            "failure bias: mean {mean_failure} vs truth {true_failure}"
        );
        assert!(
            (mean_masked - true_masked).abs() < 0.01,
            "masked bias: mean {mean_masked} vs truth {true_masked}"
        );
        // The 99% interval must cover the truth essentially always.
        assert!(covered >= (reps * 95 / 100), "coverage {covered}/{reps}");
    }

    #[test]
    fn degenerate_all_masked() {
        // Zero live strata: the estimate is pure analytic mass.
        let est = stratified_estimate(&[], 1.0, 0.99);
        assert_eq!(est.simulated, 0);
        assert_eq!(est.class(FaultEffect::Masked).estimate, 1.0);
        assert_eq!(est.class(FaultEffect::Masked).half_width, 0.0);
        assert_eq!(est.failure.estimate, 0.0);
        assert_eq!(est.failure.half_width, 0.0);
        assert_eq!(est.equivalent_flat_runs(), f64::INFINITY);
    }

    #[test]
    fn degenerate_zero_width_stratum_is_ignored() {
        // A zero-weight stratum contributes nothing even with runs in it.
        let strata = [
            StratumObservation {
                weight: 0.0,
                tally: tally(0, 5, 0, 0, 0),
            },
            StratumObservation {
                weight: 0.4,
                tally: tally(4, 0, 0, 0, 0),
            },
        ];
        let est = stratified_estimate(&strata, 0.6, 0.99);
        assert_eq!(est.class(FaultEffect::Sdc).estimate, 0.0);
        assert!((est.class(FaultEffect::Masked).estimate - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_single_run_stratum() {
        let strata = [StratumObservation {
            weight: 0.5,
            tally: tally(0, 1, 0, 0, 0),
        }];
        let est = stratified_estimate(&strata, 0.5, 0.99);
        assert!((est.class(FaultEffect::Sdc).estimate - 0.5).abs() < 1e-12);
        // One observation of a constant: sample variance is degenerate
        // (p(1-p) = 0) — the interval collapses; the unsimulated-strata
        // safeguard does not apply because the stratum has a run.
        assert_eq!(est.class(FaultEffect::Sdc).half_width, 0.0);
    }

    #[test]
    fn unsimulated_live_stratum_widens_interval() {
        let strata = [StratumObservation {
            weight: 0.5,
            tally: Tally::default(),
        }];
        let est = stratified_estimate(&strata, 0.5, 0.99);
        let z = z_score(0.99);
        let want = z * (0.5f64 * 0.5 * 0.25).sqrt();
        assert!((est.failure.half_width - want).abs() < 1e-12);
    }

    #[test]
    fn equivalent_flat_runs_inverts_leveugle() {
        // If the stratified half-width equals the flat margin at N runs,
        // the equivalent flat size must be N.
        let n = 3000u64;
        let h = margin_of_error(0.99, n, u64::MAX);
        let est = StratifiedEstimate {
            confidence: 0.99,
            masked_weight: 0.0,
            simulated: 100,
            classes: [ClassEstimate::default(); 5],
            failure: ClassEstimate {
                estimate: 0.1,
                half_width: h,
            },
        };
        let eq = est.equivalent_flat_runs();
        assert!((eq - n as f64).abs() / (n as f64) < 1e-6, "got {eq}");
    }

    #[test]
    fn proportional_allocation_is_exact_and_floored() {
        let w = [0.5, 0.3, 0.0, 0.2];
        let a = proportional_allocation(&w, 10);
        assert_eq!(a.iter().sum::<usize>(), 10);
        assert_eq!(a[2], 0);
        assert!(a[0] >= a[1] && a[1] >= a[3]);
        assert!(a[3] >= 1);
        // Tiny budget: every live stratum still gets its floor.
        let a = proportional_allocation(&w, 3);
        assert_eq!(a, vec![1, 1, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "budget")]
    fn proportional_allocation_rejects_starved_budget() {
        proportional_allocation(&[0.5, 0.5], 1);
    }

    #[test]
    fn allocation_is_deterministic() {
        let w = [0.25, 0.25, 0.25, 0.25];
        let a = proportional_allocation(&w, 9);
        let b = proportional_allocation(&w, 9);
        assert_eq!(a, b);
        // The odd run lands on the lowest index (tie-break rule).
        assert_eq!(a, vec![3, 2, 2, 2]);
    }
}
