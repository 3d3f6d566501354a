//! What one benchmark run of one workload reports, and how it is printed:
//! a table for people, a detail line for `ledger all`, and the driver's
//! result line last.

use crate::contract::Metric;
use crate::json::{obj, Value};
use crate::stats::Summary;

/// One metric as measured: the median is the reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    pub name: String,
    pub unit: String,
    pub summary: Summary,
}

#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    /// Injection runs asked of the engine, and those that did not come back
    /// as a valid record (`failed_share` = failed ÷ attempted).
    pub attempted: usize,
    pub failed: usize,
    /// Why the outputs were judged wrong; empty when they were not.
    pub errors: Vec<String>,
    pub readings: Vec<Reading>,
    /// Context that is not a metric (file-system type, tail percentile…).
    pub notes: Vec<(String, Value)>,
}

/// Orders `measured` as the contract lists its metrics and attaches units;
/// a metric measured but not listed, or listed but not measured, is an error
/// rather than a silent omission.
pub fn readings(listed: &[Metric], measured: Vec<(&str, Summary)>) -> Result<Vec<Reading>, String> {
    if let Some((stray, _)) = measured
        .iter()
        .find(|(name, _)| !listed.iter().any(|m| m.name == *name))
    {
        return Err(format!(
            "metric `{stray}` is measured but not in BENCHMARK.json"
        ));
    }
    listed
        .iter()
        .map(|m| {
            let mut hits = measured.iter().filter(|(name, _)| *name == m.name);
            match (hits.next(), hits.next()) {
                (Some((_, summary)), None) => Ok(Reading {
                    name: m.name.clone(),
                    unit: m.unit.clone(),
                    summary: *summary,
                }),
                (None, _) => Err(format!(
                    "metric `{}` is in BENCHMARK.json but not measured",
                    m.name
                )),
                _ => Err(format!("metric `{}` is measured twice", m.name)),
            }
        })
        .collect()
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// End-to-end metrics whose repeats spread wider than their bound: the
    /// run cannot resolve a regression of that size, and says so.
    pub fn unresolved(&self, bounds: &[Metric]) -> Vec<String> {
        self.readings
            .iter()
            .filter(|r| {
                bounds
                    .iter()
                    .find(|m| m.name == r.name)
                    .and_then(|m| m.bound)
                    .is_some_and(|b| r.summary.spread() > b)
            })
            .map(|r| r.name.clone())
            .collect()
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, each metric exactly `value` and `unit`.
    pub fn driver_line(&self) -> String {
        obj([
            ("correct", Value::from(self.correct())),
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(self.failed)),
            (
                "metrics",
                obj(self.readings.iter().map(|r| {
                    (
                        r.name.as_str(),
                        obj([
                            ("value", Value::Num(r.summary.median)),
                            ("unit", Value::from(r.unit.as_str())),
                        ]),
                    )
                })),
            ),
        ])
        .compact()
    }

    /// Everything the run knows, for result files.
    pub fn detail(&self, bounds: &[Metric]) -> Value {
        obj([
            ("workload", Value::from(self.workload.as_str())),
            ("seed", Value::from(self.seed)),
            ("traced", Value::from(self.traced)),
            ("correct", Value::from(self.correct())),
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(self.failed)),
            (
                "errors",
                Value::Arr(
                    self.errors
                        .iter()
                        .map(|e| Value::from(e.as_str()))
                        .collect(),
                ),
            ),
            (
                "unresolved",
                Value::Arr(
                    self.unresolved(bounds)
                        .into_iter()
                        .map(Value::from)
                        .collect(),
                ),
            ),
            (
                "metrics",
                obj(self.readings.iter().map(|r| {
                    (
                        r.name.as_str(),
                        obj([
                            ("value", Value::Num(r.summary.median)),
                            ("unit", Value::from(r.unit.as_str())),
                            ("q1", Value::Num(r.summary.q1)),
                            ("q3", Value::Num(r.summary.q3)),
                            ("n", Value::from(r.summary.n)),
                        ]),
                    )
                })),
            ),
            (
                "notes",
                obj(self.notes.iter().map(|(k, v)| (k.as_str(), v.clone()))),
            ),
        ])
    }

    /// Prints every metric by name with unit, median, quartiles and sample
    /// count.
    pub fn print(&self, bounds: &[Metric]) {
        println!(
            "{} seed {} ({}): {} run(s) attempted, {} failed",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "timed" },
            self.attempted,
            self.failed
        );
        println!(
            "  {:<36} {:>14} {:<9} {:>14} {:>14} {:>6}",
            "metric", "median", "unit", "q1", "q3", "n"
        );
        let unresolved = self.unresolved(bounds);
        for r in &self.readings {
            println!(
                "  {:<36} {:>14.4} {:<9} {:>14.4} {:>14.4} {:>6}{}",
                r.name,
                r.summary.median,
                r.unit,
                r.summary.q1,
                r.summary.q3,
                r.summary.n,
                if unresolved.contains(&r.name) {
                    "  unresolved: spread beyond bound"
                } else {
                    ""
                }
            );
        }
        for e in &self.errors {
            println!("  error: {e}");
        }
    }
}

/// Marker of the detail line a child ledger prints for its parent.
pub const DETAIL_PREFIX: &str = "detail ";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn metric(name: &str, bound: Option<f64>) -> Metric {
        Metric {
            name: name.into(),
            unit: "ms".into(),
            higher_is_better: false,
            bound,
        }
    }

    #[test]
    fn readings_follow_the_contract_and_reject_drift() {
        let listed = [metric("a", None), metric("b", None)];
        let s = Summary::of(&[1.0]);
        let r = readings(&listed, vec![("b", s), ("a", s)]).unwrap();
        assert_eq!(
            r.iter().map(|r| r.name.as_str()).collect::<Vec<_>>(),
            ["a", "b"]
        );
        assert!(readings(&listed, vec![("a", s)])
            .unwrap_err()
            .contains("`b`"));
        assert!(readings(&listed, vec![("a", s), ("b", s), ("c", s)])
            .unwrap_err()
            .contains("`c`"));
        assert!(readings(&listed, vec![("a", s), ("a", s), ("b", s)])
            .unwrap_err()
            .contains("twice"));
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let listed = [metric("lat", Some(0.1))];
        let out = Outcome {
            workload: "w".into(),
            seed: 3,
            traced: false,
            attempted: 1000,
            failed: 0,
            errors: vec![],
            readings: readings(&listed, vec![("lat", Summary::of(&[1.0, 1.25, 4.0]))]).unwrap(),
            notes: vec![],
        };
        let line = out.driver_line();
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":1000,"failed":0,"metrics":{"lat":{"value":1.25,"unit":"ms"}}}"#
        );
        // Spread (4 - 1) / 1.25 is far beyond the 10 % bound.
        assert_eq!(out.unresolved(&listed), ["lat"]);
        let detail = json::parse(&out.detail(&listed).compact()).unwrap();
        assert_eq!(detail.get("unresolved").unwrap().as_arr().len(), 1);
        assert_eq!(
            detail
                .get("metrics")
                .unwrap()
                .get("lat")
                .unwrap()
                .get("n")
                .unwrap()
                .as_f64(),
            Some(3.0)
        );
    }

    #[test]
    fn an_error_makes_the_outcome_incorrect() {
        let out = Outcome {
            workload: "w".into(),
            seed: 0,
            traced: true,
            attempted: 1,
            failed: 0,
            errors: vec!["digest differs".into()],
            readings: vec![],
            notes: vec![],
        };
        assert!(!out.correct());
        assert!(out.driver_line().starts_with(r#"{"correct":false,"#));
    }
}
