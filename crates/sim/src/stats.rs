//! Execution statistics: per-launch and per-application.

use crate::mem::CacheStats;

/// Statistics of one kernel launch.
#[derive(Debug, PartialEq)]
pub struct LaunchStats {
    /// Kernel name.
    pub kernel: String,
    /// GPU cycle at launch start.
    pub start_cycle: u64,
    /// GPU cycle at launch completion.
    pub end_cycle: u64,
    /// Warp instructions issued during the launch.
    pub instructions: u64,
    /// Time-weighted mean warp occupancy on active SMs (live warps divided
    /// by the SM's maximum warps) — the red dots of the paper's Fig. 3.
    pub occupancy: f64,
    /// Time-weighted mean live threads per active SM (drives the paper's
    /// `df_reg` derating factor).
    pub mean_threads_per_sm: f64,
    /// Time-weighted mean resident CTAs per active SM (drives `df_smem`).
    pub mean_ctas_per_sm: f64,
    /// Registers allocated per thread.
    pub regs_per_thread: u32,
    /// Static shared memory per CTA, bytes.
    pub smem_per_cta: u32,
    /// Local memory per thread, bytes.
    pub lmem_per_thread: u32,
    /// ACE analysis: accumulated register def-to-last-use span cycles
    /// (register-units x cycles).  0 unless the device ran the profile
    /// instrument ([`crate::Gpu::enable_profiling`], which the golden
    /// profile turns on): checkpoint recordings, forks and injection runs
    /// keep no ACE timestamps.
    pub ace_reg_cycles: u64,
    /// Live-thread x cycle integral over the launch.
    pub thread_cycles: u64,
    /// L1 data-cache accesses during this launch (all SMs).
    pub l1d_stats: CacheStats,
    /// L1 texture-cache accesses during this launch (all SMs).
    pub l1t_stats: CacheStats,
    /// L2 accesses during this launch (all banks).
    pub l2_stats: CacheStats,
}

clone_fields!(LaunchStats {
    kernel,
    start_cycle,
    end_cycle,
    instructions,
    occupancy,
    mean_threads_per_sm,
    mean_ctas_per_sm,
    regs_per_thread,
    smem_per_cta,
    lmem_per_thread,
    ace_reg_cycles,
    thread_cycles,
    l1d_stats,
    l1t_stats,
    l2_stats,
});

impl LaunchStats {
    /// Cycles spent in this launch.
    pub fn cycles(&self) -> u64 {
        self.end_cycle - self.start_cycle
    }

    /// The ACE-analysis estimate of the register-file AVF, on the same
    /// per-thread-allocated-registers basis as an (underated) injection
    /// failure ratio: ACE register-cycles over total allocated
    /// register-cycles.  The paper (section II.C) argues residency-style
    /// ACE estimates inherently overestimate what injection measures;
    /// see `examples/ace_vs_injection.rs`.  Reads 0 unless the device ran
    /// the profile instrument (see [`LaunchStats::ace_reg_cycles`]).
    pub fn ace_rf_avf(&self) -> f64 {
        let total = self.thread_cycles as f64 * f64::from(self.regs_per_thread);
        if total <= 0.0 {
            0.0
        } else {
            (self.ace_reg_cycles as f64 / total).clamp(0.0, 1.0)
        }
    }
}

/// The cycle window of one kernel launch — the unit the fault-injection
/// campaign samples injection cycles from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelWindow {
    /// Kernel name.
    pub kernel: String,
    /// First cycle of the launch.
    pub start: u64,
    /// One past the last cycle of the launch.
    pub end: u64,
}

/// Statistics accumulated over a whole application run (all launches).
#[derive(Debug, Default, PartialEq)]
pub struct AppStats {
    /// One entry per kernel launch, in execution order.
    pub launches: Vec<LaunchStats>,
}

clone_fields!(AppStats { launches });

impl AppStats {
    /// Total cycles across all launches.
    pub fn total_cycles(&self) -> u64 {
        self.launches.iter().map(LaunchStats::cycles).sum()
    }

    /// Cycle windows of every invocation of the named static kernel.
    pub fn windows_of(&self, kernel: &str) -> Vec<KernelWindow> {
        self.launches
            .iter()
            .filter(|l| l.kernel == kernel)
            .map(|l| KernelWindow {
                kernel: l.kernel.clone(),
                start: l.start_cycle,
                end: l.end_cycle,
            })
            .collect()
    }

    /// Names of the static kernels launched, in first-use order, deduplicated.
    pub fn static_kernels(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for l in &self.launches {
            if !out.contains(&l.kernel) {
                out.push(l.kernel.clone());
            }
        }
        out
    }

    /// Total cycles spent in all invocations of the named static kernel.
    pub fn cycles_of(&self, kernel: &str) -> u64 {
        self.launches
            .iter()
            .filter(|l| l.kernel == kernel)
            .map(LaunchStats::cycles)
            .sum()
    }

    /// Cycle-weighted mean occupancy of the named static kernel across its
    /// invocations (paper §VI.C).
    pub fn occupancy_of(&self, kernel: &str) -> f64 {
        let total = self.cycles_of(kernel);
        if total == 0 {
            return 0.0;
        }
        self.launches
            .iter()
            .filter(|l| l.kernel == kernel)
            .map(|l| l.occupancy * l.cycles() as f64)
            .sum::<f64>()
            / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn launch(name: &str, start: u64, end: u64, occ: f64) -> LaunchStats {
        LaunchStats {
            kernel: name.to_string(),
            start_cycle: start,
            end_cycle: end,
            instructions: 0,
            occupancy: occ,
            mean_threads_per_sm: 0.0,
            mean_ctas_per_sm: 0.0,
            regs_per_thread: 8,
            smem_per_cta: 0,
            lmem_per_thread: 0,
            ace_reg_cycles: 0,
            thread_cycles: 0,
            l1d_stats: CacheStats::default(),
            l1t_stats: CacheStats::default(),
            l2_stats: CacheStats::default(),
        }
    }

    #[test]
    fn windows_and_cycles_per_static_kernel() {
        let app = AppStats {
            launches: vec![
                launch("a", 0, 10, 0.5),
                launch("b", 10, 30, 0.25),
                launch("a", 30, 40, 0.5),
            ],
        };
        assert_eq!(app.total_cycles(), 40);
        assert_eq!(app.cycles_of("a"), 20);
        assert_eq!(app.windows_of("a").len(), 2);
        assert_eq!(app.windows_of("a")[1].start, 30);
        assert_eq!(app.static_kernels(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn occupancy_is_cycle_weighted() {
        let app = AppStats {
            launches: vec![launch("a", 0, 10, 1.0), launch("a", 10, 40, 0.0)],
        };
        assert!((app.occupancy_of("a") - 0.25).abs() < 1e-12);
        assert_eq!(app.occupancy_of("missing"), 0.0);
    }
}
