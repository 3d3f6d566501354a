//! Fault-effect classification (§V.B) and the per-run `detail`
//! sub-classification.

use crate::profile::GoldenProfile;
use crate::workload::WorkloadError;
use gpufi_metrics::FaultEffect;
use gpufi_sim::Trap;

/// Classifies one injection run against the golden profile:
///
/// * cycle-watchdog trap → **Timeout**;
/// * any other trap or device error → **Crash**;
/// * wrong output → **SDC**;
/// * correct output, identical cycle count → **Masked**;
/// * correct output, different cycle count → **Performance**.
pub fn classify(
    result: &Result<Vec<u8>, WorkloadError>,
    cycles: u64,
    golden: &GoldenProfile,
) -> FaultEffect {
    match result {
        Err(WorkloadError::Trap(t)) if t.is_timeout() => FaultEffect::Timeout,
        Err(_) => FaultEffect::Crash,
        Ok(out) if *out != golden.output => FaultEffect::Sdc,
        Ok(_) if cycles == golden.total_cycles() => FaultEffect::Masked,
        Ok(_) => FaultEffect::Performance,
    }
}

/// Sub-classification of a run's outcome — the CSV/journal `detail`
/// column.  The paper reports five coarse classes; production campaigns
/// additionally need to know *which kind* of Crash or Timeout a run was,
/// most importantly to tell a simulator-internal panic (a fault corrupted
/// simulator invariants — [`RunDetail::SimPanic`]) apart from an
/// architecturally modelled trap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum RunDetail {
    /// No sub-classification (Masked / SDC / Performance runs).
    #[default]
    None,
    /// The simulator itself panicked during the run; the supervisor caught
    /// the unwind, retried once, and the panic reproduced (a deterministic
    /// poison run, recorded as **Crash**).
    SimPanic,
    /// Access to an unmapped device address.
    InvalidAddress,
    /// Misaligned device access.
    Misaligned,
    /// Program counter left the instruction stream.
    InvalidPc,
    /// Shared-memory access out of bounds.
    SmemOutOfBounds,
    /// Local-memory access out of bounds.
    LmemOutOfBounds,
    /// No warp could make progress.
    Deadlock,
    /// A CTA barrier lost arrivals: some warps arrived but no warp can
    /// ever issue again, so the barrier can never be released.  The
    /// signature hang of a control-unit fault (stuck `at_barrier` /
    /// `barrier_arrived` bits); recorded as **Timeout**.
    LostBarrier,
    /// A host-side device-API error (allocation, bad pointer).
    DeviceError,
    /// The 2×-golden-cycles cycle watchdog fired.
    CycleWatchdog,
    /// The run was never simulated: every planned fault targeted a
    /// register that no reachable instruction of the faulted kernel ever
    /// reads, so the static analyzer pre-classified it **Masked** at the
    /// golden cycle count (ACE-style un-ACE pruning).
    StaticDead,
    /// The run was never simulated: the faulted registers are live, but
    /// every flipped *bit* lands in a bit position no reachable instruction
    /// ever demands (bit-level liveness), so the flip is architecturally
    /// un-ACE and the run is pre-classified **Masked** at the golden cycle
    /// count.
    StaticDeadBit,
    /// The run was cut short at a golden checkpoint: every fault had
    /// fired, and the device and the host program's position equalled the
    /// checkpoint's in everything but fault bookkeeping, so the rest is the
    /// golden run — **Masked** at the golden cycle count, with
    /// `early_exit` set.
    Reconverged,
}

impl RunDetail {
    /// Every detail kind, in a fixed order.
    pub const ALL: [RunDetail; 14] = [
        RunDetail::None,
        RunDetail::SimPanic,
        RunDetail::InvalidAddress,
        RunDetail::Misaligned,
        RunDetail::InvalidPc,
        RunDetail::SmemOutOfBounds,
        RunDetail::LmemOutOfBounds,
        RunDetail::Deadlock,
        RunDetail::LostBarrier,
        RunDetail::DeviceError,
        RunDetail::CycleWatchdog,
        RunDetail::StaticDead,
        RunDetail::StaticDeadBit,
        RunDetail::Reconverged,
    ];

    /// The CSV/journal spelling ([`RunDetail::None`] is the empty string).
    pub fn as_str(self) -> &'static str {
        match self {
            RunDetail::None => "",
            RunDetail::SimPanic => "sim_panic",
            RunDetail::InvalidAddress => "invalid_address",
            RunDetail::Misaligned => "misaligned",
            RunDetail::InvalidPc => "invalid_pc",
            RunDetail::SmemOutOfBounds => "smem_oob",
            RunDetail::LmemOutOfBounds => "lmem_oob",
            RunDetail::Deadlock => "deadlock",
            RunDetail::LostBarrier => "hang_lost_barrier",
            RunDetail::DeviceError => "device_error",
            RunDetail::CycleWatchdog => "cycle_watchdog",
            RunDetail::StaticDead => "static_dead",
            RunDetail::StaticDeadBit => "static_dead_bit",
            RunDetail::Reconverged => "reconverged",
        }
    }

    /// Inverse of [`RunDetail::as_str`].
    pub fn parse(s: &str) -> Option<RunDetail> {
        RunDetail::ALL.iter().copied().find(|d| d.as_str() == s)
    }
}

/// The detail sub-class of a run outcome (companion to [`classify`]).
pub fn detail_of(result: &Result<Vec<u8>, WorkloadError>) -> RunDetail {
    match result {
        Ok(_) => RunDetail::None,
        Err(WorkloadError::Trap(t)) => match t {
            Trap::InvalidAddress { .. } => RunDetail::InvalidAddress,
            Trap::Misaligned { .. } => RunDetail::Misaligned,
            Trap::InvalidPc { .. } => RunDetail::InvalidPc,
            Trap::SmemOutOfBounds { .. } => RunDetail::SmemOutOfBounds,
            Trap::LmemOutOfBounds { .. } => RunDetail::LmemOutOfBounds,
            Trap::Deadlock => RunDetail::Deadlock,
            Trap::LostBarrier => RunDetail::LostBarrier,
            Trap::Watchdog => RunDetail::CycleWatchdog,
            // Both Masked: the campaign engine classifies them before
            // `classify` could call them crashes.
            Trap::FaultsExpired => RunDetail::None,
            Trap::Reconverged => RunDetail::Reconverged,
        },
        Err(WorkloadError::Device(_)) | Err(WorkloadError::MissingKernel { .. }) => {
            RunDetail::DeviceError
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpufi_sim::{AppStats, LaunchStats, Trap};
    use std::collections::BTreeMap;

    fn golden() -> GoldenProfile {
        GoldenProfile {
            output: vec![1, 2, 3],
            app: AppStats {
                launches: vec![LaunchStats {
                    kernel: "k".into(),
                    start_cycle: 0,
                    end_cycle: 100,
                    instructions: 10,
                    occupancy: 0.5,
                    mean_threads_per_sm: 32.0,
                    mean_ctas_per_sm: 1.0,
                    regs_per_thread: 8,
                    smem_per_cta: 0,
                    lmem_per_thread: 0,
                    ace_reg_cycles: 0,
                    thread_cycles: 0,
                    l1d_stats: gpufi_sim::CacheStats::default(),
                    l1t_stats: gpufi_sim::CacheStats::default(),
                    l2_stats: gpufi_sim::CacheStats::default(),
                }],
            },
            fault_spaces: BTreeMap::new(),
            reg_live_until: Vec::new(),
        }
    }

    #[test]
    fn masked_requires_same_output_and_cycles() {
        let g = golden();
        assert_eq!(classify(&Ok(vec![1, 2, 3]), 100, &g), FaultEffect::Masked);
    }

    #[test]
    fn performance_is_masked_with_different_cycles() {
        let g = golden();
        assert_eq!(
            classify(&Ok(vec![1, 2, 3]), 120, &g),
            FaultEffect::Performance
        );
        assert_eq!(
            classify(&Ok(vec![1, 2, 3]), 80, &g),
            FaultEffect::Performance
        );
    }

    #[test]
    fn wrong_output_is_sdc_even_with_same_cycles() {
        let g = golden();
        assert_eq!(classify(&Ok(vec![9, 2, 3]), 100, &g), FaultEffect::Sdc);
    }

    #[test]
    fn watchdog_trap_is_timeout_with_cycle_detail() {
        let g = golden();
        let r = Err(WorkloadError::Trap(Trap::Watchdog));
        assert_eq!(classify(&r, 50, &g), FaultEffect::Timeout);
        assert_eq!(detail_of(&r), RunDetail::CycleWatchdog);
    }

    #[test]
    fn lost_barrier_is_timeout_with_its_own_detail() {
        let g = golden();
        let r = Err(WorkloadError::Trap(Trap::LostBarrier));
        assert_eq!(classify(&r, 50, &g), FaultEffect::Timeout);
        assert_eq!(detail_of(&r), RunDetail::LostBarrier);
        assert_eq!(RunDetail::LostBarrier.as_str(), "hang_lost_barrier");
    }

    #[test]
    fn detail_round_trips_through_its_spelling() {
        for d in RunDetail::ALL {
            assert_eq!(RunDetail::parse(d.as_str()), Some(d), "{d:?}");
        }
        assert_eq!(RunDetail::parse("no_such_detail"), None);
    }

    #[test]
    fn detail_of_covers_traps_and_device_errors() {
        assert_eq!(
            detail_of(&Err(WorkloadError::Trap(Trap::InvalidAddress { addr: 4 }))),
            RunDetail::InvalidAddress
        );
        assert_eq!(
            detail_of(&Err(WorkloadError::Trap(Trap::Deadlock))),
            RunDetail::Deadlock
        );
        assert_eq!(
            detail_of(&Err(WorkloadError::Device(
                gpufi_sim::LaunchError::BadDevicePointer
            ))),
            RunDetail::DeviceError
        );
        assert_eq!(detail_of(&Ok(vec![])), RunDetail::None);
    }

    #[test]
    fn watchdog_is_timeout_other_traps_are_crashes() {
        let g = golden();
        assert_eq!(
            classify(&Err(WorkloadError::Trap(Trap::Watchdog)), 200, &g),
            FaultEffect::Timeout
        );
        assert_eq!(
            classify(
                &Err(WorkloadError::Trap(Trap::InvalidAddress { addr: 4 })),
                50,
                &g
            ),
            FaultEffect::Crash
        );
        assert_eq!(
            classify(
                &Err(WorkloadError::Device(
                    gpufi_sim::LaunchError::BadDevicePointer
                )),
                50,
                &g
            ),
            FaultEffect::Crash
        );
    }
}
