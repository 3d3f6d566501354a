//! AVF computation: equations (1)–(3) of the paper plus the derating
//! factors.

use crate::effect::Tally;

/// The `df_reg` derating factor (§V.A): the fraction of a physical
/// per-SM register file that is actually targetable in a given cycle.
///
/// ```text
/// df_reg = (#REGS_PER_THREAD × #THREADS_MEAN) / #REGFILE_SIZE_SM
/// ```
///
/// Clamped to `[0, 1]`.
pub fn df_reg(regs_per_thread: u32, mean_threads_per_sm: f64, regfile_regs_per_sm: u32) -> f64 {
    if regfile_regs_per_sm == 0 {
        return 0.0;
    }
    (f64::from(regs_per_thread) * mean_threads_per_sm / f64::from(regfile_regs_per_sm))
        .clamp(0.0, 1.0)
}

/// The `df_smem` derating factor (§V.A): the fraction of an SM's shared
/// memory that is actually targetable in a given cycle.
///
/// ```text
/// df_smem = (#CTA_SMEM_SIZE × #CTAS_MEAN) / #SMEM_SIZE
/// ```
///
/// All sizes in the same unit (bytes here).  Clamped to `[0, 1]`.
pub fn df_smem(cta_smem_bytes: u32, mean_ctas_per_sm: f64, smem_bytes_per_sm: u32) -> f64 {
    if smem_bytes_per_sm == 0 {
        return 0.0;
    }
    (f64::from(cta_smem_bytes) * mean_ctas_per_sm / f64::from(smem_bytes_per_sm)).clamp(0.0, 1.0)
}

/// One structure's campaign result for a kernel, ready for equation (2).
#[derive(Debug, Clone, PartialEq)]
pub struct StructureResult {
    /// Structure name (paper terminology), for reports.
    pub structure: String,
    /// The campaign tally.
    pub tally: Tally,
    /// Chip-wide size of the structure in bits (Table I values).
    pub size_bits: u64,
    /// Derating factor (`df_reg` / `df_smem`; 1.0 for caches).
    pub derate: f64,
}

impl StructureResult {
    /// Derated failure ratio: `FR × df`.
    pub fn effective_fr(&self) -> f64 {
        self.tally.failure_ratio() * self.derate
    }

    /// This structure's contribution to the numerator of equation (2).
    pub fn weighted_fr(&self) -> f64 {
        self.effective_fr() * self.size_bits as f64
    }
}

/// The kernel AVF — equation (2): size-weighted mean of the (derated)
/// structure failure ratios.
///
/// Returns 0 when the structure list is empty or total size is zero.
pub fn avf_kernel(structures: &[StructureResult]) -> f64 {
    let total: u64 = structures.iter().map(|s| s.size_bits).sum();
    if total == 0 {
        return 0.0;
    }
    structures
        .iter()
        .map(StructureResult::weighted_fr)
        .sum::<f64>()
        / total as f64
}

/// One kernel's AVF with its cycle weight, for equation (3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelAvf {
    /// The kernel AVF from [`avf_kernel`].
    pub avf: f64,
    /// Total cycles of all invocations of this kernel.
    pub cycles: u64,
}

/// The application (chip) AVF — equation (3): cycle-weighted mean of the
/// kernel AVFs.
///
/// Returns 0 when there are no cycles.
pub fn wavf(kernels: &[KernelAvf]) -> f64 {
    let total: u64 = kernels.iter().map(|k| k.cycles).sum();
    if total == 0 {
        return 0.0;
    }
    kernels.iter().map(|k| k.avf * k.cycles as f64).sum::<f64>() / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effect::FaultEffect;

    fn tally(failures: u64, total: u64) -> Tally {
        let mut t = Tally::default();
        for _ in 0..failures {
            t.record(FaultEffect::Sdc);
        }
        for _ in failures..total {
            t.record(FaultEffect::Masked);
        }
        t
    }

    #[test]
    fn df_reg_formula() {
        // 16 regs/thread × 1024 mean threads / 65536 regs = 0.25
        assert!((df_reg(16, 1024.0, 65536) - 0.25).abs() < 1e-12);
        assert_eq!(df_reg(16, 0.0, 65536), 0.0);
        assert_eq!(df_reg(255, 1e9, 65536), 1.0, "clamped");
        assert_eq!(df_reg(8, 100.0, 0), 0.0);
    }

    #[test]
    fn df_smem_formula() {
        // 8 KB per CTA × 4 CTAs / 64 KB = 0.5
        assert!((df_smem(8 * 1024, 4.0, 64 * 1024) - 0.5).abs() < 1e-12);
        assert_eq!(df_smem(0, 10.0, 64 * 1024), 0.0);
    }

    #[test]
    fn avf_kernel_is_size_weighted() {
        let s = vec![
            StructureResult {
                structure: "register file".into(),
                tally: tally(50, 100), // FR 0.5
                size_bits: 300,
                derate: 1.0,
            },
            StructureResult {
                structure: "L2 cache".into(),
                tally: tally(10, 100), // FR 0.1
                size_bits: 100,
                derate: 1.0,
            },
        ];
        // (0.5×300 + 0.1×100) / 400 = 0.4
        assert!((avf_kernel(&s) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn derating_scales_fr() {
        let s = vec![StructureResult {
            structure: "register file".into(),
            tally: tally(100, 100), // FR 1.0
            size_bits: 100,
            derate: 0.25,
        }];
        assert!((avf_kernel(&s) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn wavf_is_cycle_weighted() {
        let k = vec![
            KernelAvf {
                avf: 0.8,
                cycles: 100,
            },
            KernelAvf {
                avf: 0.2,
                cycles: 300,
            },
        ];
        // (0.8×100 + 0.2×300) / 400 = 0.35
        assert!((wavf(&k) - 0.35).abs() < 1e-12);
        assert_eq!(wavf(&[]), 0.0);
    }

    #[test]
    fn empty_inputs_yield_zero() {
        assert_eq!(avf_kernel(&[]), 0.0);
        let s = vec![StructureResult {
            structure: "x".into(),
            tally: Tally::default(),
            size_bits: 0,
            derate: 1.0,
        }];
        assert_eq!(avf_kernel(&s), 0.0);
    }
}
