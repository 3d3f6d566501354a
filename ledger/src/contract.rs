//! `BENCHMARK.json`, compiled in: the one place metric names, units,
//! directions and regression bounds are stated.  The ledger reads its noise
//! guard and `compare` verdicts from it, and its tests hold the code to it.

use crate::json::{self, Value};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median the metric may worsen by; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Contract {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn metrics(doc: &Value, key: &str) -> Result<Vec<Metric>, String> {
    doc.get(key)
        .ok_or_else(|| format!("BENCHMARK.json lacks `{key}`"))?
        .as_arr()
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("BENCHMARK.json: a `{key}` metric lacks `{k}`"))
            };
            Ok(Metric {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better: text("better")? == "higher",
                bound: m.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

impl Contract {
    pub fn load() -> Result<Contract, String> {
        let doc = json::parse(BENCHMARK_JSON)?;
        Ok(Contract {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("BENCHMARK.json lacks `run_seconds`")?,
            workloads: doc
                .get("workloads")
                .ok_or("BENCHMARK.json lacks `workloads`")?
                .as_arr()
                .iter()
                .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
                .collect(),
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn benchmark_json_names_the_workload_table() {
        let c = Contract::load().unwrap();
        let table: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(c.workloads, table);
        assert!((1.0..=60.0).contains(&c.run_seconds));
    }

    #[test]
    fn every_end_to_end_metric_is_bounded_and_set_up_is_loosest() {
        let c = Contract::load().unwrap();
        let setup = c
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is mandatory");
        assert!(!setup.higher_is_better && setup.unit == "s");
        for m in &c.end_to_end {
            let b = m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
            assert!(
                b <= setup.bound.unwrap(),
                "setup_s must carry the largest bound"
            );
        }
        assert!(c.per_layer.iter().all(|m| m.bound.is_none()));
    }
}
