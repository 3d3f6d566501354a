//! What the ledger records about the machine it ran on, and where it keeps
//! its files.

use crate::json::{obj, Value};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The ledger's output directory: `ledger/` beside the executable, so every
/// file it writes lands inside the build directory of the checkout it was
/// built from.
pub fn out_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("executable has no parent directory")?
        .join("ledger");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// A scratch directory for one workload's CSVs and journals, removed when
/// dropped.  Keyed by process id and a counter so neither concurrent ledgers
/// nor concurrent runs inside one collide.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn create(label: &str) -> Result<WorkDir, String> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir()?.join(format!("work-{}-{n}-{label}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        // Leftover scratch files are harmless; an error here must not mask
        // the result being reported.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn proc_field(file: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(file).ok()?.lines().find_map(|l| {
        l.strip_prefix(key)
            .map(|rest| rest.trim_start_matches([':', ' ', '\t']).trim().to_string())
    })
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let field = proc_field("/proc/self/status", "VmHWM")?;
    let kb: f64 = field.split_whitespace().next()?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The 1-minute load average.
pub fn loadavg1() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// File-system type holding `path`: the longest mount point that prefixes
/// it in `/proc/mounts`.
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then_some((mount.len(), fs))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs.to_string())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host stamp of a result file.  `load_start` is the load average read
/// before the first workload ran.
pub fn stamp(load_start: Option<f64>) -> Result<Value, String> {
    let dir = out_dir()?;
    let load = |v: Option<f64>| v.map_or(Value::Null, Value::Num);
    Ok(obj([
        (
            "git_commit",
            Value::from(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Value::from(command_line("rustc", &["--version"]))),
        (
            "nproc",
            Value::from(std::thread::available_parallelism().map_or(1, |n| n.get())),
        ),
        (
            "cpu_model",
            Value::from(
                proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
            ),
        ),
        ("loadavg1_start", load(load_start)),
        ("loadavg1_end", load(loadavg1())),
        ("journal_fs", Value::from(fs_type(&dir))),
        (
            "journal_dir",
            Value::from(dir.to_string_lossy().into_owned()),
        ),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process_and_this_machine() {
        assert!(peak_rss_mb().unwrap() > 0.5);
        assert!(loadavg1().unwrap() >= 0.0);
        assert_ne!(fs_type(Path::new("/proc/self")), "unknown");
    }

    #[test]
    fn work_dir_lives_beside_the_executable_and_cleans_up() {
        let path = {
            let w = WorkDir::create("unit").unwrap();
            assert!(w.0.is_dir() && w.0.starts_with(out_dir().unwrap()));
            w.0.clone()
        };
        assert!(!path.exists());
    }
}
