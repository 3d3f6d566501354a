//! Fault-effect classes and campaign tallies.

use std::fmt;

/// The outcome class of one fault-injection run (paper §V.B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultEffect {
    /// Application completed, output and total cycles identical to the
    /// fault-free run.
    Masked,
    /// Application completed but produced a wrong result, with no abnormal
    /// indication — the most severe class.
    Sdc,
    /// Execution reached an unrecoverable abnormal state (trap).
    Crash,
    /// Simulation did not finish within 2× the fault-free execution time.
    Timeout,
    /// Functionally masked, but total cycles differ from the fault-free
    /// run — only a microarchitecture-level injector can observe this
    /// class (§VI.D).  Excluded from AVF.
    Performance,
}

impl FaultEffect {
    /// All classes, in the paper's reporting order.
    pub const ALL: [FaultEffect; 5] = [
        FaultEffect::Masked,
        FaultEffect::Sdc,
        FaultEffect::Crash,
        FaultEffect::Timeout,
        FaultEffect::Performance,
    ];

    /// Whether this effect counts as a failure in equation (1)
    /// (SDC, Crash or Timeout).
    pub fn is_failure(self) -> bool {
        matches!(
            self,
            FaultEffect::Sdc | FaultEffect::Crash | FaultEffect::Timeout
        )
    }

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            FaultEffect::Masked => "Masked",
            FaultEffect::Sdc => "SDC",
            FaultEffect::Crash => "Crash",
            FaultEffect::Timeout => "Timeout",
            FaultEffect::Performance => "Performance",
        }
    }

    /// Inverse of [`FaultEffect::name`]: parses a display name back into
    /// its class.  Returns `None` for unknown names.
    pub fn parse(s: &str) -> Option<FaultEffect> {
        FaultEffect::ALL.into_iter().find(|e| e.name() == s)
    }
}

impl fmt::Display for FaultEffect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Counts of fault effects over a campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Masked runs.
    pub masked: u64,
    /// Silent data corruptions.
    pub sdc: u64,
    /// Crashes.
    pub crash: u64,
    /// Timeouts.
    pub timeout: u64,
    /// Performance-only deviations.
    pub performance: u64,
}

impl Tally {
    /// Records one run's effect.
    pub fn record(&mut self, e: FaultEffect) {
        match e {
            FaultEffect::Masked => self.masked += 1,
            FaultEffect::Sdc => self.sdc += 1,
            FaultEffect::Crash => self.crash += 1,
            FaultEffect::Timeout => self.timeout += 1,
            FaultEffect::Performance => self.performance += 1,
        }
    }

    /// Count of a single class.
    pub fn count(&self, e: FaultEffect) -> u64 {
        match e {
            FaultEffect::Masked => self.masked,
            FaultEffect::Sdc => self.sdc,
            FaultEffect::Crash => self.crash,
            FaultEffect::Timeout => self.timeout,
            FaultEffect::Performance => self.performance,
        }
    }

    /// Total runs recorded.
    pub fn total(&self) -> u64 {
        self.masked + self.sdc + self.crash + self.timeout + self.performance
    }

    /// Runs that count as failures (SDC + Crash + Timeout).
    pub fn failures(&self) -> u64 {
        self.sdc + self.crash + self.timeout
    }

    /// The structure failure ratio — equation (1).  Zero when empty.
    pub fn failure_ratio(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.failures() as f64 / t as f64
        }
    }

    /// Fraction of a class over the total.  Zero when empty.
    pub fn fraction(&self, e: FaultEffect) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.count(e) as f64 / t as f64
        }
    }

    /// Performance-affected runs as a fraction of all functionally masked
    /// runs (the paper's Fig. 4 metric: "as high as 8.6% of the total
    /// masked faults").  Zero when no run was functionally masked.
    pub fn performance_share_of_masked(&self) -> f64 {
        let functionally_masked = self.masked + self.performance;
        if functionally_masked == 0 {
            0.0
        } else {
            self.performance as f64 / functionally_masked as f64
        }
    }
}

impl std::ops::Add for Tally {
    type Output = Tally;

    fn add(self, rhs: Tally) -> Tally {
        Tally {
            masked: self.masked + rhs.masked,
            sdc: self.sdc + rhs.sdc,
            crash: self.crash + rhs.crash,
            timeout: self.timeout + rhs.timeout,
            performance: self.performance + rhs.performance,
        }
    }
}

impl FromIterator<FaultEffect> for Tally {
    fn from_iter<I: IntoIterator<Item = FaultEffect>>(iter: I) -> Self {
        let mut t = Tally::default();
        for e in iter {
            t.record(e);
        }
        t
    }
}

impl fmt::Display for Tally {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "masked={} sdc={} crash={} timeout={} performance={}",
            self.masked, self.sdc, self.crash, self.timeout, self.performance
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_classes() {
        assert!(FaultEffect::Sdc.is_failure());
        assert!(FaultEffect::Crash.is_failure());
        assert!(FaultEffect::Timeout.is_failure());
        assert!(!FaultEffect::Masked.is_failure());
        assert!(!FaultEffect::Performance.is_failure());
    }

    #[test]
    fn parse_round_trips_names() {
        for e in FaultEffect::ALL {
            assert_eq!(FaultEffect::parse(e.name()), Some(e));
        }
        assert_eq!(FaultEffect::parse("sdc"), None);
        assert_eq!(FaultEffect::parse(""), None);
    }

    #[test]
    fn tally_bookkeeping() {
        let t: Tally = [
            FaultEffect::Masked,
            FaultEffect::Masked,
            FaultEffect::Sdc,
            FaultEffect::Performance,
        ]
        .into_iter()
        .collect();
        assert_eq!(t.total(), 4);
        assert_eq!(t.failures(), 1);
        assert!((t.failure_ratio() - 0.25).abs() < 1e-12);
        assert!((t.fraction(FaultEffect::Masked) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn performance_share() {
        let t: Tally = [
            FaultEffect::Masked,
            FaultEffect::Masked,
            FaultEffect::Masked,
            FaultEffect::Performance,
        ]
        .into_iter()
        .collect();
        assert!((t.performance_share_of_masked() - 0.25).abs() < 1e-12);
        assert_eq!(Tally::default().performance_share_of_masked(), 0.0);
    }

    #[test]
    fn empty_tally_ratios_are_zero() {
        let t = Tally::default();
        assert_eq!(t.failure_ratio(), 0.0);
        assert_eq!(t.fraction(FaultEffect::Sdc), 0.0);
    }

    #[test]
    fn tally_addition() {
        let mut a = Tally::default();
        a.record(FaultEffect::Sdc);
        let mut b = Tally::default();
        b.record(FaultEffect::Crash);
        b.record(FaultEffect::Timeout);
        let c = a + b;
        assert_eq!(c.total(), 3);
        assert_eq!(c.failures(), 3);
    }
}
