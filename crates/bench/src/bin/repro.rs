//! `repro` — regenerates every table and figure of the paper's
//! evaluation section.
//!
//! ```text
//! repro [--runs N] [--seed S] [--threads T] [--out DIR] <target>...
//! targets: table1 table2 table4 table5 fig1 ... fig7 raw all
//! ```

use gpufi_bench::{figures, run_suite, tables, ReproConfig, SuiteResults};
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

const TARGETS: [&str; 14] = [
    "table1", "table2", "table4", "table5", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
    "raw", "ablation", "all",
];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ReproConfig::default();
    let mut out_dir: Option<PathBuf> = None;
    let mut targets: Vec<String> = Vec::new();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--runs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => cfg.runs = v,
                None => return usage("--runs needs a number"),
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => cfg.seed = v,
                None => return usage("--seed needs a number"),
            },
            "--threads" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => cfg.threads = v,
                None => return usage("--threads needs a number"),
            },
            "--out" => match it.next() {
                Some(v) => out_dir = Some(PathBuf::from(v)),
                None => return usage("--out needs a directory"),
            },
            t if TARGETS.contains(&t) => targets.push(t.to_string()),
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    if targets.is_empty() {
        return usage("no target given");
    }
    if targets.iter().any(|t| t == "all") {
        targets = TARGETS[..TARGETS.len() - 1]
            .iter()
            .map(|s| s.to_string())
            .collect();
    }

    // Static tables need no campaigns; figures share one sweep.
    let needs_suite = targets.iter().any(|t| t.starts_with("fig") || t == "raw");
    let suite: Option<SuiteResults> = if needs_suite {
        eprintln!(
            "running campaign sweep: {} injections per kernel x structure (seed {})",
            cfg.runs, cfg.seed
        );
        match run_suite(&cfg) {
            Ok(suite) => Some(suite),
            Err(e) => return fail(&e),
        }
    } else {
        None
    };

    for t in &targets {
        let text = match t.as_str() {
            "table1" => tables::table1(),
            "table2" => tables::table2(),
            "table4" => tables::table4(),
            "table5" => tables::table5(),
            "ablation" => match gpufi_bench::ablation::ablation(&cfg) {
                Ok(text) => text,
                Err(e) => return fail(&e),
            },
            other => {
                let suite = suite.as_ref().expect("suite computed for figures");
                match other {
                    "fig1" => figures::fig1(suite),
                    "fig2" => figures::fig2(suite),
                    "fig3" => figures::fig3(suite),
                    "fig4" => figures::fig4(suite),
                    "fig5" => figures::fig5(suite),
                    "fig6" => figures::fig6(suite),
                    "fig7" => figures::fig7(suite),
                    "raw" => figures::raw_dump(suite),
                    _ => unreachable!("validated target"),
                }
            }
        };
        println!("{text}");
        if let Some(dir) = &out_dir {
            if let Err(e) = fs::create_dir_all(dir) {
                return fail(&format!("cannot create {}: {e}", dir.display()));
            }
            let path = dir.join(format!("{t}.txt"));
            if let Err(e) = fs::write(&path, &text) {
                return fail(&format!("cannot write {}: {e}", path.display()));
            }
        }
    }
    ExitCode::SUCCESS
}

/// Reports a runtime failure: one `error:` line, no usage.
fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::FAILURE
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("usage: repro [--runs N] [--seed S] [--threads T] [--out DIR] <target>...");
    eprintln!("targets: {}", TARGETS.join(" "));
    ExitCode::FAILURE
}
