//! Randomised (but deterministic) tests on the AVF / FIT / statistics
//! invariants. A seeded inline PRNG replaces the former `proptest`
//! strategies so the suite runs hermetically offline; every case is
//! reproducible from the fixed seeds below.

use gpufi_metrics::{
    avf_kernel, chip_fit, df_reg, df_smem, margin_of_error, sample_size, structure_fit, wavf,
    FaultEffect, KernelAvf, StructureResult, Tally,
};
use gpufi_sim::rng::splitmix64;

/// A splitmix64 stream — tiny, seedable, good enough to explore the input space.
struct Prng(u64);

impl Prng {
    fn next(&mut self) -> u64 {
        splitmix64(&mut self.0)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }

    fn unit_f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn effect(&mut self) -> FaultEffect {
        FaultEffect::ALL[self.below(FaultEffect::ALL.len() as u64) as usize]
    }

    fn effects(&mut self, max_len: u64) -> Vec<FaultEffect> {
        let n = self.below(max_len);
        (0..n).map(|_| self.effect()).collect()
    }

    fn structure_result(&mut self) -> StructureResult {
        StructureResult {
            structure: "s".to_string(),
            tally: self.effects(200).into_iter().collect(),
            size_bits: self.below(1 << 30),
            derate: self.unit_f64(),
        }
    }
}

/// Counts are conserved and the failure ratio is a probability.
#[test]
fn tally_invariants() {
    let mut rng = Prng(1);
    for _ in 0..128 {
        let effects = rng.effects(300);
        let t: Tally = effects.iter().copied().collect();
        assert_eq!(t.total(), effects.len() as u64);
        let by_class: u64 = FaultEffect::ALL.iter().map(|&e| t.count(e)).sum();
        assert_eq!(by_class, t.total());
        assert!((0.0..=1.0).contains(&t.failure_ratio()));
        let frac_sum: f64 = FaultEffect::ALL.iter().map(|&e| t.fraction(e)).sum();
        assert!(t.total() == 0 || (frac_sum - 1.0).abs() < 1e-9);
        assert_eq!(
            t.failures(),
            effects.iter().filter(|e| e.is_failure()).count() as u64
        );
    }
}

/// The kernel AVF is a convex combination: bounded by the extreme derated
/// failure ratios.
#[test]
fn avf_kernel_is_bounded_by_extremes() {
    let mut rng = Prng(2);
    for _ in 0..128 {
        let structures: Vec<StructureResult> = (0..1 + rng.below(7))
            .map(|_| rng.structure_result())
            .collect();
        let avf = avf_kernel(&structures);
        assert!((0.0..=1.0).contains(&avf), "avf {avf}");
        let total_size: u64 = structures.iter().map(|s| s.size_bits).sum();
        if total_size > 0 {
            let hi = structures
                .iter()
                .map(|s| s.effective_fr())
                .fold(0.0, f64::max);
            assert!(avf <= hi + 1e-12, "avf {avf} above max component {hi}");
        }
    }
}

/// wAVF is bounded by the min/max kernel AVFs.
#[test]
fn wavf_is_a_weighted_mean() {
    let mut rng = Prng(3);
    for _ in 0..128 {
        let ks: Vec<KernelAvf> = (0..1 + rng.below(9))
            .map(|_| KernelAvf {
                avf: rng.unit_f64(),
                cycles: rng.below(1_000_000),
            })
            .collect();
        let w = wavf(&ks);
        assert!((0.0..=1.0).contains(&w));
        if ks.iter().any(|k| k.cycles > 0) {
            let lo = ks
                .iter()
                .filter(|k| k.cycles > 0)
                .map(|k| k.avf)
                .fold(f64::MAX, f64::min);
            let hi = ks
                .iter()
                .filter(|k| k.cycles > 0)
                .map(|k| k.avf)
                .fold(0.0, f64::max);
            assert!(w >= lo - 1e-12 && w <= hi + 1e-12);
        }
    }
}

/// The chip FIT is additive over structures and scales linearly in the raw
/// rate.
#[test]
fn fit_is_additive_and_linear() {
    let mut rng = Prng(4);
    for _ in 0..128 {
        let structures: Vec<(f64, u64)> = (0..1 + rng.below(5))
            .map(|_| {
                let s = rng.structure_result();
                (s.effective_fr(), s.size_bits)
            })
            .collect();
        let raw = 1e-8 + rng.unit_f64() * (1e-3 - 1e-8);
        let total = chip_fit(&structures, raw);
        let by_parts: f64 = structures
            .iter()
            .map(|&(avf, bits)| structure_fit(avf, bits, raw))
            .sum();
        assert!((total - by_parts).abs() <= 1e-9 * total.abs().max(1.0));
        let doubled = chip_fit(&structures, raw * 2.0);
        assert!((doubled - 2.0 * total).abs() <= 1e-9 * doubled.abs().max(1.0));
        assert!(total >= 0.0);
    }
}

/// Derating factors are probabilities and monotone in residency.
#[test]
fn derating_monotone() {
    let mut rng = Prng(5);
    for _ in 0..256 {
        let regs = 1 + rng.below(255) as u32;
        let t1 = rng.unit_f64() * 2048.0;
        let t2 = rng.unit_f64() * 2048.0;
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        let d_lo = df_reg(regs, lo, 65536);
        let d_hi = df_reg(regs, hi, 65536);
        assert!((0.0..=1.0).contains(&d_lo));
        assert!(d_lo <= d_hi + 1e-12);
        let s_lo = df_smem(1024, lo, 64 * 1024);
        let s_hi = df_smem(1024, hi, 64 * 1024);
        assert!(s_lo <= s_hi + 1e-12);
    }
}

/// Sample size and error margin are mutually consistent: n runs give a
/// margin whose required sample is at most n (ceil-rounding may add a run;
/// allow 1% slack).
#[test]
fn sample_size_margin_roundtrip() {
    let mut rng = Prng(6);
    for _ in 0..256 {
        let runs = 10 + rng.below(100_000 - 10);
        let margin = margin_of_error(0.99, runs, u64::MAX);
        if !(margin > 1e-6 && margin < 1.0) {
            continue;
        }
        let needed = sample_size(0.99, margin, u64::MAX);
        assert!(
            needed <= runs + runs / 100 + 2,
            "needed {needed} for {runs} runs"
        );
    }
}
