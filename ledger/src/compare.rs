//! `ledger compare <a.json> <b.json>`: do two result files agree?
//!
//! One row per (end-to-end metric, workload) with both medians and
//! quartiles, the ratio with its base, and a verdict against the bound in
//! `BENCHMARK.json`.  Layer metrics that are exact counts must be identical
//! when both files ran the same seed.

use crate::contract::{Contract, Metric};
use crate::json::Value;
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Regressed,
    Improved,
    /// A side's own spread is wider than the bound: the pair cannot show a
    /// change of that size either way.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against the baseline `a` for one bounded metric.
pub fn verdict(metric: &Metric, a: &Summary, b: &Summary) -> Verdict {
    let bound = metric.bound.unwrap_or(0.0);
    if a.spread() > bound || b.spread() > bound {
        return Verdict::Unresolved;
    }
    if a.median == 0.0 {
        return if b.median == 0.0 {
            Verdict::Within
        } else {
            Verdict::Unresolved
        };
    }
    let change = (b.median - a.median) / a.median.abs();
    let worse_by = if metric.higher_is_better {
        -change
    } else {
        change
    };
    if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Within
    }
}

/// Layer metrics that count events of a seeded campaign and so must repeat
/// bit for bit.
pub fn is_exact_count(name: &str) -> bool {
    name.starts_with("core.stats.")
        || matches!(
            name,
            "sim.snapshot.count" | "sim.snapshot.bytes" | "sim.snapshot.replay_cycles_mean"
        )
}

/// The `part` (`timed` or `traced`) run of workload `w` in result file `doc`.
fn run_of<'a>(doc: &'a Value, which: &str, w: &str, part: &str) -> Result<&'a Value, String> {
    doc.get("workloads")
        .and_then(|ws| ws.get(w))
        .and_then(|entry| entry.get(part))
        .ok_or_else(|| format!("file {which} has no {part} run of `{w}`"))
}

fn summary_of(run: &Value, metric: &str) -> Option<Summary> {
    let m = run.get("metrics")?.get(metric)?;
    let num = |k: &str| m.get(k).and_then(Value::as_f64);
    Some(Summary {
        median: num("value")?,
        q1: num("q1")?,
        q3: num("q3")?,
        n: num("n")? as usize,
    })
}

/// Prints the comparison and returns whether `b` holds against `a`: no
/// regression, no failed run, no exact count that differs.
///
/// # Errors
///
/// A result file that lacks a workload or a metric the contract names.
pub fn compare(contract: &Contract, a: &Value, b: &Value) -> Result<bool, String> {
    let same_seed = a.get("seed").and_then(Value::as_f64) == b.get("seed").and_then(Value::as_f64);
    let mut holds = true;
    println!(
        "{:<16} {:<12} {:>12} {:>21} {:>12} {:>21} {:>8}  verdict",
        "workload", "metric", "a median", "a [q1, q3]", "b median", "b [q1, q3]", "b/a"
    );
    for w in &contract.workloads {
        let (ta, tb) = (run_of(a, "a", w, "timed")?, run_of(b, "b", w, "timed")?);
        for m in &contract.end_to_end {
            let get = |run: &Value, which: &str| {
                summary_of(run, &m.name)
                    .ok_or_else(|| format!("file {which}: `{w}` lacks metric `{}`", m.name))
            };
            let (sa, sb) = (get(ta, "a")?, get(tb, "b")?);
            let v = verdict(m, &sa, &sb);
            holds &= v != Verdict::Regressed;
            let range = |s: &Summary| format!("[{:.4}, {:.4}]", s.q1, s.q3);
            println!(
                "{:<16} {:<12} {:>12.4} {:>21} {:>12.4} {:>21} {:>8.4}  {} (bound {:.0} %, {})",
                w,
                m.name,
                sa.median,
                range(&sa),
                sb.median,
                range(&sb),
                sb.median / sa.median,
                v.name(),
                100.0 * m.bound.unwrap_or(0.0),
                m.unit
            );
        }
        for (which, run) in [("a", ta), ("b", tb)] {
            let failed = run.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
            let attempted = run.get("attempted").and_then(Value::as_f64).unwrap_or(0.0);
            if failed > 0.0 || run.get("correct").and_then(Value::as_bool) != Some(true) {
                holds = false;
                println!("{w:<16} failed_share  file {which}: {failed} of {attempted} runs failed  regressed");
            }
        }
        if !same_seed {
            continue;
        }
        let (la, lb) = (run_of(a, "a", w, "traced")?, run_of(b, "b", w, "traced")?);
        for m in contract
            .per_layer
            .iter()
            .filter(|m| is_exact_count(&m.name))
        {
            let value = |run: &Value| summary_of(run, &m.name).map(|s| s.median);
            let (va, vb) = (value(la), value(lb));
            if va != vb || va.is_none() {
                holds = false;
                println!("{w:<16} {}  a {va:?}  b {vb:?}  differs", m.name);
            }
        }
    }
    if same_seed {
        println!("exact-count layer metrics: compared on every workload");
    } else {
        println!("exact-count layer metrics: not compared, the files ran different seeds");
    }
    Ok(holds)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher: bool) -> Metric {
        Metric {
            name: "m".into(),
            unit: "x".into(),
            higher_is_better: higher,
            bound: Some(0.10),
        }
    }

    fn tight(median: f64) -> Summary {
        Summary {
            median,
            q1: median * 0.99,
            q3: median * 1.01,
            n: 6,
        }
    }

    #[test]
    fn verdict_follows_direction_and_bound() {
        let up = metric(true);
        assert_eq!(verdict(&up, &tight(100.0), &tight(95.0)), Verdict::Within);
        assert_eq!(
            verdict(&up, &tight(100.0), &tight(85.0)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&up, &tight(100.0), &tight(115.0)),
            Verdict::Improved
        );
        let down = metric(false);
        assert_eq!(
            verdict(&down, &tight(100.0), &tight(115.0)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&down, &tight(100.0), &tight(85.0)),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&down, &tight(100.0), &tight(109.0)),
            Verdict::Within
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_within() {
        let noisy = Summary {
            median: 100.0,
            q1: 90.0,
            q3: 105.0,
            n: 6,
        };
        assert_eq!(
            verdict(&metric(true), &noisy, &tight(100.0)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&metric(true), &tight(100.0), &noisy),
            Verdict::Unresolved
        );
    }

    #[test]
    fn exact_counts_are_the_seeded_ones() {
        assert!(is_exact_count("core.stats.restores"));
        assert!(is_exact_count("sim.snapshot.bytes"));
        assert!(!is_exact_count("sim.snapshot.restore_us"));
        assert!(!is_exact_count("core.service.leases"));
    }
}
