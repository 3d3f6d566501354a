//! Fault-free (golden) profiling of a workload.

use crate::workload::{Workload, WorkloadError};
use gpufi_sim::{AppStats, FaultSpace, Gpu, GpuConfig, KernelWindow};
use std::collections::BTreeMap;

/// Everything the campaign needs from the fault-free reference execution:
/// the golden output, cycle windows, residency statistics and fault-space
/// sizes (the paper's *profiling and campaign preparation* step, §III.C).
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenProfile {
    /// The fault-free result bytes.
    pub output: Vec<u8>,
    /// Per-launch statistics (cycle windows, occupancy, residency).
    pub app: AppStats,
    /// Injectable fault-space sizes per static kernel.
    pub fault_spaces: BTreeMap<String, FaultSpace>,
    /// Per-launch register liveness horizons (parallel to `app.launches`):
    /// `reg_live_until[i][r]` is a cycle in `[start_cycle, end_cycle]` of
    /// launch `i` from which no instruction reads `Rr` again.  A fault
    /// flipped into `Rr` at or after that cycle is architecturally Masked
    /// (registers re-initialize at the next launch), which is what the
    /// stratified sampler classifies analytically.
    pub reg_live_until: Vec<Vec<u64>>,
}

impl GoldenProfile {
    /// Total fault-free cycles of the application.
    pub fn total_cycles(&self) -> u64 {
        self.app.total_cycles()
    }

    /// The windows to sample for a campaign: all invocations of `kernel`,
    /// or every launch when `kernel` is `None`.
    pub fn windows(&self, kernel: Option<&str>) -> Vec<KernelWindow> {
        match kernel {
            Some(k) => self.app.windows_of(k),
            None => self
                .app
                .launches
                .iter()
                .map(|l| KernelWindow {
                    kernel: l.kernel.clone(),
                    start: l.start_cycle,
                    end: l.end_cycle,
                })
                .collect(),
        }
    }

    /// Cycle-weighted mean of live threads per SM over all invocations of
    /// `kernel` (input to `df_reg`).
    pub fn mean_threads_of(&self, kernel: &str) -> f64 {
        self.weighted_mean(kernel, |l| l.mean_threads_per_sm)
    }

    /// Cycle-weighted mean of resident CTAs per SM over all invocations of
    /// `kernel` (input to `df_smem`).
    pub fn mean_ctas_of(&self, kernel: &str) -> f64 {
        self.weighted_mean(kernel, |l| l.mean_ctas_per_sm)
    }

    fn weighted_mean(&self, kernel: &str, f: impl Fn(&gpufi_sim::LaunchStats) -> f64) -> f64 {
        let total = self.app.cycles_of(kernel);
        if total == 0 {
            return 0.0;
        }
        self.app
            .launches
            .iter()
            .filter(|l| l.kernel == kernel)
            .map(|l| f(l) * l.cycles() as f64)
            .sum::<f64>()
            / total as f64
    }
}

/// Runs `workload` fault-free on a fresh GPU and captures its golden
/// profile.
///
/// # Errors
///
/// Propagates any [`WorkloadError`] — a fault-free failure indicates a
/// broken workload, not an injection effect.
pub fn profile(workload: &dyn Workload, card: &GpuConfig) -> Result<GoldenProfile, WorkloadError> {
    let mut gpu = Gpu::new(card.clone());
    gpu.enable_profiling();
    let output = workload.run(&mut gpu)?;
    let app = gpu.stats().clone();
    let reg_live_until = gpu.reg_read_traces().to_vec();
    let mut fault_spaces = BTreeMap::new();
    for name in app.static_kernels() {
        let kernel =
            workload
                .module()
                .kernel(&name)
                .ok_or_else(|| WorkloadError::MissingKernel {
                    kernel: name.clone(),
                })?;
        fault_spaces.insert(name, gpu.fault_space(kernel));
    }
    Ok(GoldenProfile {
        output,
        app,
        fault_spaces,
        reg_live_until,
    })
}
