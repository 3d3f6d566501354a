//! Liveness-interval stratified fault sampling (the two-level estimation
//! pipeline).
//!
//! Flat campaigns draw every run uniformly from the register-file fault
//! population `(cycle, register, thread, bit)` and simulate each one.  But
//! the golden pass already tells us, per launch and per register, the
//! **liveness horizon**: the first cycle from which no instruction reads
//! the register again before the next launch re-initializes it
//! ([`crate::GoldenProfile::reg_live_until`]).  A fault injected at or
//! after that horizon is architecturally Masked by the same argument the
//! fault-lifetime early exit and the PR 5 static prune rely on — the flip
//! can never flow into an instruction.
//!
//! [`StrataLayout::build`] therefore partitions the campaign's fault
//! population into
//!
//! * one **analytically-masked stratum** (all `(cycle ≥ horizon, register)`
//!   sites), classified Masked with **zero** simulated runs, and
//! * one **live stratum per (static kernel, register)** with its live cycle
//!   segments, sampled with full-fidelity injections and reweighted by the
//!   stratified estimator in `gpufi_metrics`.
//!
//! Weights are computed under exactly the flat draw's distribution (cycle
//! uniform over the clamped window union, register uniform per window), so
//! the per-stratum conditional draws of
//! `MaskGenerator::draw_register_stratum` compose to an unbiased estimate
//! of the flat campaign's expectation — validated end-to-end against
//! flat campaigns five times larger by `tests/sampling.rs`.

use crate::profile::GoldenProfile;
use crate::workload::Workload;
use gpufi_metrics::{margin_of_error, ClassEstimate, StratifiedEstimate};
use std::collections::BTreeMap;
use std::fmt;

/// How a campaign draws its runs from the fault population.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SamplingMode {
    /// Uniform over the whole population; every run is simulated (the
    /// paper's Leveugle-sized methodology).
    #[default]
    Flat,
    /// Liveness-interval stratified: provably-masked strata are classified
    /// analytically, the simulation budget covers only live strata, and
    /// tallies are reweighted (register-file campaigns only).
    Stratified,
}

impl SamplingMode {
    /// CLI spelling (`--sampling flat|stratified`).
    pub fn parse(s: &str) -> Option<SamplingMode> {
        match s {
            "flat" => Some(SamplingMode::Flat),
            "stratified" => Some(SamplingMode::Stratified),
            _ => None,
        }
    }
}

impl fmt::Display for SamplingMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SamplingMode::Flat => "flat",
            SamplingMode::Stratified => "stratified",
        })
    }
}

/// One live stratum: all fault sites of one register of one static kernel
/// during the cycles the register may still be read.
#[derive(Debug, Clone, PartialEq)]
pub struct Stratum {
    /// The static kernel the register belongs to.
    pub kernel: String,
    /// The architectural register index.
    pub reg: u32,
    /// Fraction of the whole campaign fault population this stratum
    /// covers, in `[0, 1]`.
    pub weight: f64,
    /// Live cycle segments (half-open `[start, end)`, one per contributing
    /// launch window), the stratum-constrained draw's cycle domain.
    pub segments: Vec<(u64, u64)>,
}

/// The stratification of one campaign's fault population.
#[derive(Debug, Clone, PartialEq)]
pub struct StrataLayout {
    /// Live strata in deterministic `(kernel, reg)` order.
    pub strata: Vec<Stratum>,
    /// The analytically-masked population fraction (`1 − Σ live weights`
    /// up to rounding).
    pub masked_weight: f64,
}

impl StrataLayout {
    /// Builds the layout from the golden profile's dynamic read traces,
    /// restricted to `kernel` exactly like the flat draw and, when given,
    /// to the injection cycles `[start, end)` of `cycle_window` (campaigns
    /// pass `None`).  The profile carries everything the layout needs; the
    /// workload is not consulted.
    ///
    /// # Errors
    ///
    /// A human-readable message when the profile's read traces do not
    /// cover every launch or the restriction leaves no windows.
    pub fn build(
        _workload: &dyn Workload,
        golden: &GoldenProfile,
        kernel: Option<&str>,
        cycle_window: Option<(u64, u64)>,
    ) -> Result<StrataLayout, String> {
        if golden.reg_live_until.len() != golden.app.launches.len() {
            return Err(format!(
                "the golden profile traces register reads for {} of {} launches",
                golden.reg_live_until.len(),
                golden.app.launches.len()
            ));
        }

        // Accumulated live length and segments per (kernel, reg), plus the
        // population normalizer: Σ clamped-window-length (the cycle draw)
        // × per-window register count (the register draw).
        let mut live: BTreeMap<(String, u32), Vec<(u64, u64)>> = BTreeMap::new();
        let mut total_len = 0u64;
        let (lo, hi) = cycle_window.unwrap_or((0, u64::MAX));

        for (i, launch) in golden.app.launches.iter().enumerate() {
            if kernel.is_some_and(|k| k != launch.kernel) {
                continue;
            }
            let start = launch.start_cycle.max(lo);
            let end = launch.end_cycle.min(hi);
            if start >= end {
                continue;
            }
            total_len += end - start;
            let regs = launch.regs_per_thread;
            if regs == 0 {
                continue;
            }
            for r in 0..regs {
                // The register's liveness horizon within this launch.
                let live_end = golden.reg_live_until[i][r as usize].clamp(start, end);
                if live_end > start {
                    live.entry((launch.kernel.clone(), r))
                        .or_default()
                        .push((start, live_end));
                }
            }
        }
        if total_len == 0 {
            return Err(match kernel {
                Some(k) => format!("kernel `{k}` has no cycles in the campaign window"),
                None => "the campaign window contains no execution cycles".to_string(),
            });
        }

        // Per-window register counts can differ across kernels, so each
        // window's mass splits as len/total × 1/regs(window) per register.
        // Recompute weights from the segments (each segment belongs to
        // exactly one window of its kernel).
        let regs_of: BTreeMap<&str, u32> = golden
            .app
            .launches
            .iter()
            .map(|l| (l.kernel.as_str(), l.regs_per_thread))
            .collect();
        let mut strata = Vec::with_capacity(live.len());
        let mut live_weight = 0.0f64;
        for ((kernel, reg), segments) in live {
            let regs = f64::from(*regs_of.get(kernel.as_str()).expect("kernel seen above"));
            let len: u64 = segments.iter().map(|&(s, e)| e - s).sum();
            let weight = len as f64 / total_len as f64 / regs;
            live_weight += weight;
            strata.push(Stratum {
                kernel,
                reg,
                weight,
                segments,
            });
        }
        Ok(StrataLayout {
            strata,
            masked_weight: (1.0 - live_weight).max(0.0),
        })
    }

    /// The live population fraction (`Σ stratum weights`).
    pub fn live_weight(&self) -> f64 {
        self.strata.iter().map(|s| s.weight).sum()
    }

    /// A canonical description of the layout **and** its budget
    /// allocation, hashed into the campaign description so `--resume`
    /// refuses to splice runs drawn under a different stratification.
    pub fn fingerprint_material(&self, allocation: &[usize]) -> String {
        use fmt::Write;
        let mut s = String::from("strata-v1|");
        for (st, n) in self.strata.iter().zip(allocation) {
            let _ = write!(
                s,
                "{}:r{}:w{:016x}:n{}:[",
                st.kernel,
                st.reg,
                st.weight.to_bits(),
                n
            );
            for &(a, b) in &st.segments {
                let _ = write!(s, "{a}-{b},");
            }
            s.push_str("];");
        }
        let _ = write!(s, "masked:{:016x}", self.masked_weight.to_bits());
        s
    }
}

/// The sampling-side summary attached to a stratified
/// [`crate::CampaignResult`]: the layout identity, the budget allocation
/// and the reweighted estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplingSummary {
    /// Number of live strata.
    pub strata: usize,
    /// Analytically-masked population fraction.
    pub masked_weight: f64,
    /// FNV-1a over [`StrataLayout::fingerprint_material`] — the strata
    /// layout hash, the campaign description's `strata` member.
    pub layout_hash: u64,
    /// Simulated runs allocated per stratum (sums to the campaign budget).
    pub allocation: Vec<usize>,
    /// The reweighted per-class estimates with confidence intervals.
    pub estimate: StratifiedEstimate,
}

impl SamplingSummary {
    /// Each class's interval widened by the Leveugle margin of error of a
    /// flat campaign of `flat_runs` runs, in
    /// [`gpufi_metrics::FaultEffect::ALL`] order at the estimate's
    /// confidence (both campaigns carry sampling error).  The flat campaign
    /// agrees with this estimate on a class when the widened interval
    /// [`contains`](ClassEstimate::contains) its observed fraction — the
    /// check `tests/sampling.rs` and the sampling bench apply.
    pub fn agreement_intervals(&self, flat_runs: u64) -> [ClassEstimate; 5] {
        let margin = margin_of_error(self.estimate.confidence, flat_runs.max(1), u64::MAX);
        self.estimate.classes.map(|c| ClassEstimate {
            half_width: c.half_width + margin,
            ..c
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::profile;
    use crate::workload::WorkloadError;
    use gpufi_isa::Module;
    use gpufi_sim::{Gpu, GpuConfig, LaunchDims};

    /// Two kernels with different register pressures; kernel `a` carries
    /// statically dead registers (`R5` is write-only, `R3`/`R4` are never
    /// touched) so the dynamic trace must find analytically-masked mass.
    struct TwoKernel(Module);

    impl TwoKernel {
        fn new() -> TwoKernel {
            TwoKernel(
                Module::assemble(
                    ".kernel a\n.params 1\n S2R R1, SR_TID.X\n SHL R2, R1, 2\n \
                     IADD R2, R0, R2\n MOV R5, R1\n STG [R2], R1\n EXIT\n\
                     .kernel b\n.params 1\n S2R R1, SR_TID.X\n SHL R2, R1, 2\n \
                     IADD R2, R0, R2\n LDG R3, [R2]\n IADD R3, R3, R1\n \
                     STG [R2], R3\n EXIT\n",
                )
                .unwrap(),
            )
        }
    }

    impl Workload for TwoKernel {
        fn name(&self) -> &'static str {
            "two-kernel"
        }
        fn module(&self) -> &Module {
            &self.0
        }
        fn run(&self, gpu: &mut Gpu) -> Result<Vec<u8>, WorkloadError> {
            let buf = gpu.malloc(32 * 4)?;
            gpu.launch(self.0.kernel("a").unwrap(), LaunchDims::new(1, 32), &[buf])?;
            gpu.launch(self.0.kernel("b").unwrap(), LaunchDims::new(1, 32), &[buf])?;
            let mut out = vec![0u8; 32 * 4];
            gpu.memcpy_d2h(buf, &mut out)?;
            Ok(out)
        }
    }

    #[test]
    fn sampling_mode_parse_and_display() {
        assert_eq!(SamplingMode::parse("flat"), Some(SamplingMode::Flat));
        assert_eq!(
            SamplingMode::parse("stratified"),
            Some(SamplingMode::Stratified)
        );
        assert_eq!(SamplingMode::parse("bogus"), None);
        assert_eq!(SamplingMode::Flat.to_string(), "flat");
        assert_eq!(SamplingMode::Stratified.to_string(), "stratified");
        assert_eq!(SamplingMode::default(), SamplingMode::Flat);
    }

    #[test]
    fn weights_partition_the_population() {
        let wl = TwoKernel::new();
        let golden = profile(&wl, &GpuConfig::rtx2060()).unwrap();
        let layout = StrataLayout::build(&wl, &golden, None, None).unwrap();
        assert!(!layout.strata.is_empty());
        let sum = layout.live_weight() + layout.masked_weight;
        assert!((sum - 1.0).abs() < 1e-9, "weights sum to {sum}");
        // Every weight positive, every segment non-empty and inside its
        // launch windows.
        for s in &layout.strata {
            assert!(s.weight > 0.0);
            assert!(!s.segments.is_empty());
            for &(a, b) in &s.segments {
                assert!(a < b, "empty segment in {s:?}");
            }
        }
        // The dynamic trace must find analytically-masked mass (registers
        // die before the launch ends).
        assert!(layout.masked_weight > 0.0, "no masked mass found");
    }

    #[test]
    fn kernel_restriction_limits_strata() {
        let wl = TwoKernel::new();
        let golden = profile(&wl, &GpuConfig::rtx2060()).unwrap();
        let all = StrataLayout::build(&wl, &golden, None, None).unwrap();
        let kernels: std::collections::BTreeSet<&str> =
            all.strata.iter().map(|s| s.kernel.as_str()).collect();
        assert!(kernels.len() >= 2, "expected both kernels: {kernels:?}");
        let restricted = StrataLayout::build(&wl, &golden, Some("b"), None).unwrap();
        assert!(restricted.strata.iter().all(|s| s.kernel == "b"));
        assert!(!restricted.strata.is_empty());
        let sum = restricted.live_weight() + restricted.masked_weight;
        assert!((sum - 1.0).abs() < 1e-9, "restricted weights sum to {sum}");
    }

    #[test]
    fn cycle_window_clamps_segments() {
        let wl = TwoKernel::new();
        let golden = profile(&wl, &GpuConfig::rtx2060()).unwrap();
        let total = golden.total_cycles();
        let layout = StrataLayout::build(&wl, &golden, None, Some((total / 4, total / 2))).unwrap();
        for s in &layout.strata {
            for &(a, b) in &s.segments {
                assert!(a >= total / 4 && b <= total / 2, "segment ({a},{b})");
            }
        }
        let err = StrataLayout::build(&wl, &golden, None, Some((total + 1, total + 2)));
        assert!(err.is_err());
        // A profile whose read traces miss a launch is refused.
        let mut untraced = golden.clone();
        untraced.reg_live_until.pop();
        assert!(StrataLayout::build(&wl, &untraced, None, None).is_err());
    }

    #[test]
    fn fingerprint_material_separates_layouts_and_allocations() {
        let wl = TwoKernel::new();
        let golden = profile(&wl, &GpuConfig::rtx2060()).unwrap();
        let layout = StrataLayout::build(&wl, &golden, None, None).unwrap();
        let n = layout.strata.len();
        let a = layout.fingerprint_material(&vec![1; n]);
        let b = layout.fingerprint_material(&vec![2; n]);
        assert_ne!(a, b, "allocation must be part of the identity");
        let total = golden.total_cycles();
        let clamped = StrataLayout::build(&wl, &golden, None, Some((0, total / 2))).unwrap();
        assert_ne!(
            a,
            clamped.fingerprint_material(&vec![1; clamped.strata.len()]),
            "layout must be part of the identity"
        );
    }
}
