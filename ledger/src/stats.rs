//! Order statistics the ledger reports: median, quartiles, and the highest
//! percentile a sample can support.

/// Median and quartiles of a sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises `values`; an empty sample summarises to zeros.
    pub fn of(values: &[f64]) -> Summary {
        let (q1, median, q3) = quartiles(values);
        Summary {
            median,
            q1,
            q3,
            n: values.len(),
        }
    }

    /// Inter-quartile distance as a share of the median: the spread the
    /// noise guard and `compare` hold against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` by the exclusive method — the one Python's
/// `statistics.quantiles(values, n=4)` uses, so a spread computed here
/// matches the one the benchmark driver computes.  A single value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        n => {
            let at = |k: usize| {
                // Rank k*(n+1)/4, 1-based; a rank outside the sample
                // extrapolates from the nearest pair, as Python does.
                let pos = k as f64 * (n as f64 + 1.0) / 4.0;
                let lo = (pos.floor() as usize).clamp(1, n - 1);
                v[lo - 1] + (pos - lo as f64) * (v[lo] - v[lo - 1])
            };
            (at(1), at(2), at(3))
        }
    }
}

/// Samples that must lie beyond a reported tail percentile.
const TAIL_BEYOND: usize = 10;

/// The highest percentile with at least ten samples beyond it: returns
/// `(percentile in 0..100, value)`, or `None` when the sample has ten or
/// fewer values.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let v = sorted(values);
    let idx = n - TAIL_BEYOND - 1;
    Some((100.0 * (idx + 1) as f64 / n as f64, v[idx]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_degenerate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, m, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (m - 5.5).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::of(&[5.0]).spread(), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None);
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let (pct, value) = tail(&v).unwrap();
        assert_eq!(value, 990.0);
        assert!((pct - 99.0).abs() < 1e-12);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        // 11 samples: only the minimum qualifies.
        let (pct, value) = tail(&(1..=11).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!(value, 1.0);
        assert!((pct - 100.0 / 11.0).abs() < 1e-12);
    }
}
