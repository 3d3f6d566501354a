//! Failures-in-Time (FIT) rates — §VI.F.

/// The raw FIT rate per bit for a fabrication process, as used in the
/// paper (§VI.F): `1.8e-6` at 12 nm (RTX 2060, Quadro GV100) and `1.2e-5`
/// at 28 nm (GTX Titan).
///
/// Other processes interpolate/extrapolate log-linearly between those two
/// published points, which is sufficient for trend studies.
pub fn raw_fit_per_bit(process_nm: u32) -> f64 {
    match process_nm {
        12 => 1.8e-6,
        28 => 1.2e-5,
        nm => {
            // log-linear in feature size through the two anchor points
            let (x0, y0) = (12f64.ln(), 1.8e-6f64.ln());
            let (x1, y1) = (28f64.ln(), 1.2e-5f64.ln());
            let x = f64::from(nm.max(1)).ln();
            let y = y0 + (y1 - y0) * (x - x0) / (x1 - x0);
            y.exp()
        }
    }
}

/// FIT of one hardware structure:
/// `FIT = AVF_struct × rawFIT_bit × #bits`, where `avf` is the
/// structure's derated failure ratio and `bits` its chip-wide size.
pub fn structure_fit(avf: f64, bits: u64, raw_fit_bit: f64) -> f64 {
    avf * raw_fit_bit * bits as f64
}

/// FIT of the entire GPU: the sum of the individual structure FITs over
/// `(avf, bits)` pairs (§VI.F: "The FIT rate of the entire GPU is
/// calculated by adding the individual FITs of the structures").
pub fn chip_fit(structures: &[(f64, u64)], raw_fit_bit: f64) -> f64 {
    structures
        .iter()
        .map(|&(avf, bits)| structure_fit(avf, bits, raw_fit_bit))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_anchor_points() {
        assert_eq!(raw_fit_per_bit(12), 1.8e-6);
        assert_eq!(raw_fit_per_bit(28), 1.2e-5);
    }

    #[test]
    fn interpolation_is_monotone() {
        let r16 = raw_fit_per_bit(16);
        let r22 = raw_fit_per_bit(22);
        assert!(raw_fit_per_bit(12) < r16 && r16 < r22 && r22 < raw_fit_per_bit(28));
        // Extrapolation stays positive and ordered.
        assert!(raw_fit_per_bit(7) < raw_fit_per_bit(12));
        assert!(raw_fit_per_bit(40) > raw_fit_per_bit(28));
    }

    #[test]
    fn fit_formula() {
        // AVF 0.25 (FR 0.5 derated by 0.5) × 1.8e-6 × 1e6 = 0.45
        let fit = structure_fit(0.25, 1_000_000, 1.8e-6);
        assert!((fit - 0.45).abs() < 1e-9);
        assert!((chip_fit(&[(0.25, 1_000_000); 2], 1.8e-6) - 0.9).abs() < 1e-9);
        assert_eq!(chip_fit(&[], 1.8e-6), 0.0);
    }

    #[test]
    fn older_process_dominates_for_same_avf() {
        // The paper's Fig. 7 shape: the 28 nm GTX Titan has higher FIT than
        // the 12 nm cards despite smaller structures, because the raw rate
        // is ~6.7× higher.
        let titan = chip_fit(&[(0.5, 3_500_000 * 8)], raw_fit_per_bit(28));
        let rtx = chip_fit(&[(0.5, 7_500_000 * 8)], raw_fit_per_bit(12));
        assert!(titan > rtx);
    }
}
