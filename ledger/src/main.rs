//! `ledger`: the campaign benchmark behind `BENCHMARK.json`.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//!     one workload in this process; the last stdout line is the result
//!     (the timed run starts `--cold` children of itself for set-up time and peak memory)
//! ledger all [--seed <n>] [--seconds <s>] [--quick] [--out <file>]
//!     every workload, timed then traced, each in a fresh child process;
//!     writes a result file with the host stamp
//! ledger check [--seed <n>]
//!     the correctness gate alone; nonzero exit on any mismatch
//! ledger compare <a.json> <b.json>
//!     do two result files agree within the bounds; nonzero exit if not
//! ```
//!
//! See `README.md` beside this package for every metric and workload.

mod compare;
mod contract;
mod host;
mod json;
mod layers;
mod report;
mod spans;
mod stats;
mod timed;
mod workloads;

use contract::Contract;
use json::{obj, Value};
use report::DETAIL_PREFIX;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workloads::{Spec, PINNED_SEED, QUICK_RUNS, WORKLOADS};

/// `--flag value` pairs and bare `--flag`s after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn flag(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    fn parse<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None if self.flag(flag) => Err(format!("{flag} needs a value")),
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for {flag}: `{v}`")),
        }
    }

    /// Rejects anything that is neither a listed flag nor a listed flag's
    /// value.
    fn reject_unknown(&self, value_flags: &[&str], bool_flags: &[&str]) -> Result<(), String> {
        let mut i = 0;
        while let Some(a) = self.0.get(i) {
            if value_flags.contains(&a.as_str()) {
                i += 2;
            } else if bool_flags.contains(&a.as_str()) {
                i += 1;
            } else {
                return Err(format!("unknown argument `{a}`"));
            }
        }
        Ok(())
    }
}

fn runs_of(spec: &Spec, quick: bool) -> usize {
    if quick {
        QUICK_RUNS
    } else {
        spec.runs
    }
}

/// One workload, in this process: the driver's protocol.
fn one_workload(args: &Args, contract: &Contract) -> Result<bool, String> {
    args.reject_unknown(
        &["--workload", "--seed", "--seconds", "--trace"],
        &["--quick", "--cold"],
    )?;
    let name = args.value("--workload").ok_or("--workload needs a value")?;
    let spec = workloads::by_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed: u64 = args.parse("--seed", PINNED_SEED)?;
    let seconds: f64 = args.parse("--seconds", contract.run_seconds)?;
    if args.flag("--cold") {
        // A child of a timed run: one campaign in this fresh process.
        return timed::cold_child(spec, seed).map(|()| true);
    }
    let quick = args.flag("--quick");
    let runs = runs_of(spec, quick);
    let (outcome, bounds) = match args.parse("--trace", 0u8)? {
        0 => {
            let sizing = timed::Sizing {
                runs,
                seconds,
                min_repeats: if quick { 1 } else { 3 },
                cold_processes: if quick { 1 } else { 7 },
            };
            (
                timed::run(spec, seed, sizing, contract)?,
                &contract.end_to_end,
            )
        }
        1 => {
            let sizing = if quick {
                layers::Sizing::quick(runs)
            } else {
                layers::Sizing::full(runs, seconds)
            };
            let (outcome, tracer) = layers::run(spec, seed, sizing, contract)?;
            let path = host::out_dir()?.join(format!("trace-{name}.json"));
            std::fs::write(&path, tracer.to_json().compact())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            println!(
                "{} spans written to {}",
                tracer.spans().len(),
                path.display()
            );
            (outcome, &contract.per_layer)
        }
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    outcome.print(bounds);
    println!("{DETAIL_PREFIX}{}", outcome.detail(bounds).compact());
    println!("{}", outcome.driver_line());
    Ok(true)
}

/// Runs one workload in a fresh child of this executable and returns the
/// detail it reports.
fn child(name: &str, seed: u64, seconds: f64, trace: u8, quick: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            &trace.to_string(),
        ]);
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut detail = None;
    for line in stdout.lines() {
        match line.strip_prefix(DETAIL_PREFIX) {
            Some(d) => detail = Some(json::parse(d)?),
            // The driver line repeats the table; keep the table.
            None if !line.starts_with('{') => println!("{line}"),
            None => {}
        }
    }
    if !out.status.success() {
        return Err(format!(
            "`{name}` child exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    detail.ok_or_else(|| format!("`{name}` child printed no detail line"))
}

/// Every workload, timed then traced, into one result file.
fn all(args: &Args, contract: &Contract) -> Result<bool, String> {
    args.reject_unknown(&["--seed", "--seconds", "--out"], &["--quick"])?;
    let seed: u64 = args.parse("--seed", PINNED_SEED)?;
    let quick = args.flag("--quick");
    let seconds: f64 = args.parse("--seconds", if quick { 0.0 } else { contract.run_seconds })?;
    let out: PathBuf = match args.value("--out") {
        Some(p) => PathBuf::from(p),
        None => host::out_dir()?.join("result.json"),
    };
    let load_start = host::loadavg1();
    let mut entries = Vec::new();
    let mut ok = true;
    for spec in &WORKLOADS {
        let timed = child(spec.name, seed, seconds, 0, quick)?;
        let traced = child(spec.name, seed, seconds, 1, quick)?;
        for run in [&timed, &traced] {
            ok &= run.get("correct").and_then(Value::as_bool) == Some(true);
        }
        entries.push((spec.name, obj([("timed", timed), ("traced", traced)])));
    }
    let doc = obj([
        ("schema", Value::from("gpufi-ledger/1")),
        ("seed", Value::from(seed)),
        ("seconds", Value::Num(seconds)),
        ("quick", Value::from(quick)),
        ("host", host::stamp(load_start)?),
        ("workloads", obj(entries)),
    ]);
    std::fs::write(&out, doc.pretty())
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("results written to {}", out.display());
    Ok(ok)
}

/// The correctness gate alone: each workload's reference campaign and one
/// campaign through its own engine, no timing.
fn check(args: &Args, contract: &Contract) -> Result<bool, String> {
    args.reject_unknown(&["--seed"], &["--quick"])?;
    let seed: u64 = args.parse("--seed", PINNED_SEED)?;
    let mut ok = true;
    for spec in &WORKLOADS {
        let sizing = timed::Sizing {
            runs: runs_of(spec, args.flag("--quick")),
            seconds: 0.0,
            min_repeats: 1,
            cold_processes: 0,
        };
        let outcome = timed::run(spec, seed, sizing, contract)?;
        println!(
            "{:<16} seed {seed}: {} ({} of {} runs failed)",
            spec.name,
            if outcome.correct() { "pass" } else { "FAIL" },
            outcome.failed,
            outcome.attempted
        );
        for e in &outcome.errors {
            println!("  {e}");
        }
        ok &= outcome.correct();
    }
    Ok(ok)
}

fn compare_files(args: &Args, contract: &Contract) -> Result<bool, String> {
    let [a, b] = args.0.as_slice() else {
        return Err("compare takes two result files".into());
    };
    let read = |p: &String| -> Result<Value, String> {
        json::parse(&std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?)
            .map_err(|e| format!("{p}: {e}"))
    };
    compare::compare(contract, &read(a)?, &read(b)?)
}

fn run(argv: Vec<String>) -> Result<bool, String> {
    let contract = Contract::load()?;
    let Some(first) = argv.first() else {
        return Err("nothing to do; see the head of src/main.rs or the README".into());
    };
    match first.as_str() {
        "all" => all(&Args(argv[1..].to_vec()), &contract),
        "check" => check(&Args(argv[1..].to_vec()), &contract),
        "compare" => compare_files(&Args(argv[1..].to_vec()), &contract),
        flag if flag.starts_with("--") => one_workload(&Args(argv), &contract),
        other => Err(format!("unknown command `{other}`")),
    }
}

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(true) => ExitCode::SUCCESS,
        // A gate that did not hold: the tables above say why.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Args {
        Args(v.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn args_parse_and_reject() {
        let a = args(&["--workload", "lud-rf", "--seed", "7", "--quick"]);
        assert_eq!(a.value("--workload"), Some("lud-rf"));
        assert_eq!(a.parse("--seed", 0u64), Ok(7));
        assert_eq!(a.parse("--seconds", 2.5f64), Ok(2.5));
        assert!(a.flag("--quick"));
        assert!(a
            .reject_unknown(&["--workload", "--seed"], &["--quick"])
            .is_ok());
        assert!(a.reject_unknown(&["--workload"], &["--quick"]).is_err());
        assert!(args(&["--seed"]).parse("--seed", 0u64).is_err());
        assert!(args(&["--seed", "x"]).parse("--seed", 0u64).is_err());
    }

    /// The `--quick` smoke test: every workload through the timed and the
    /// traced run at tiny run counts, held to `BENCHMARK.json`.
    #[test]
    fn quick_suite_is_correct_and_reports_every_metric() {
        let contract = Contract::load().unwrap();
        for spec in &WORKLOADS {
            let sizing = timed::Sizing {
                runs: QUICK_RUNS,
                seconds: 0.0,
                min_repeats: 1,
                cold_processes: 0,
            };
            let timed = timed::run(spec, 5, sizing, &contract).unwrap();
            assert!(timed.correct(), "{}: {:?}", spec.name, timed.errors);
            assert_eq!(timed.readings.len(), contract.end_to_end.len());
            assert!(
                timed.readings.iter().all(|r| r.summary.median > 0.0),
                "{}: an end-to-end metric read zero",
                spec.name
            );

            let (traced, tracer) =
                layers::run(spec, 5, layers::Sizing::quick(QUICK_RUNS), &contract).unwrap();
            assert!(traced.correct(), "{}: {:?}", spec.name, traced.errors);
            assert_eq!(traced.readings.len(), contract.per_layer.len());
            assert!(tracer
                .spans()
                .iter()
                .any(|s| s.name == "sim.snapshot.restore"));
            // The line the driver reads parses back to the contract's keys.
            let Value::Obj(line) = json::parse(&traced.driver_line()).unwrap() else {
                panic!("the driver line is not an object");
            };
            let keys: Vec<&str> = line.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let Value::Obj(metrics) = &line[3].1 else {
                panic!("`metrics` is not an object");
            };
            assert_eq!(metrics.len(), contract.per_layer.len());
        }
    }

    /// A result file written by `all` reads back through `compare`'s reader
    /// and agrees with itself.
    #[test]
    fn result_files_round_trip_through_compare() {
        let contract = Contract::load().unwrap();
        let spec = &WORKLOADS[1];
        let sizing = timed::Sizing {
            runs: QUICK_RUNS,
            seconds: 0.0,
            min_repeats: 2,
            cold_processes: 0,
        };
        let timed = timed::run(spec, 9, sizing, &contract).unwrap();
        let (traced, _) =
            layers::run(spec, 9, layers::Sizing::quick(QUICK_RUNS), &contract).unwrap();
        let entry = obj([
            ("timed", timed.detail(&contract.end_to_end)),
            ("traced", traced.detail(&contract.per_layer)),
        ]);
        let doc = obj([
            ("seed", Value::from(9u64)),
            (
                "workloads",
                obj(WORKLOADS.iter().map(|w| (w.name, entry.clone()))),
            ),
        ]);
        let read_back = json::parse(&doc.pretty()).unwrap();
        assert_eq!(read_back, doc);
        // Identical files: nothing regressed, every exact count identical.
        // (Two repeats of a tiny campaign may spread beyond the bound and
        // read `unresolved`, which is not a regression.)
        assert_eq!(compare::compare(&contract, &read_back, &doc), Ok(true));
    }
}
