//! A reader that closes its end of `gpufi`'s stdout pipe must not cost the
//! `--csv` file or end the process in a panic: a failed write to stdout
//! ends the command with an error.

use std::path::PathBuf;
use std::process::{Command, ExitStatus, Stdio};

/// Runs `gpufi` with `args`, its stdout a pipe whose read end is dropped
/// at once (`… | (exec 0<&-)`) or discarded into `/dev/null`.
fn gpufi(args: &[&str], close_stdout: bool) -> ExitStatus {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_gpufi"));
    cmd.args(args).stderr(Stdio::null());
    if close_stdout {
        let mut child = cmd.stdout(Stdio::piped()).spawn().unwrap();
        drop(child.stdout.take());
        child.wait().unwrap()
    } else {
        cmd.stdout(Stdio::null()).status().unwrap()
    }
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gpufi-closed-stdout-{}-{name}", std::process::id()))
}

#[test]
fn closed_stdout_keeps_the_csv_and_does_not_panic() {
    let campaign = |csv: &PathBuf, close_stdout| {
        let flags = "campaign --bench VA --structure rf --runs 40 --seed 9 --no-journal --csv";
        let mut args: Vec<&str> = flags.split_whitespace().collect();
        args.push(csv.to_str().unwrap());
        gpufi(&args, close_stdout)
    };
    let (closed, open) = (tmp("closed.csv"), tmp("open.csv"));
    let status = campaign(&closed, true);
    assert_ne!(status.code(), Some(101), "panicked: {status}");
    assert!(campaign(&open, false).success());
    let csv = |p: &PathBuf| std::fs::read_to_string(p).unwrap();
    assert_eq!(csv(&closed), csv(&open));
    for p in [closed, open] {
        std::fs::remove_file(p).ok();
    }

    let status = gpufi(&["list"], true);
    assert_ne!(status.code(), Some(101), "`gpufi list` panicked: {status}");
}
