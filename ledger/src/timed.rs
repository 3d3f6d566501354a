//! The timed run: end-to-end metrics of one workload, measured with tracing
//! off, with the correctness gate in front.

use crate::contract::Contract;
use crate::host::{peak_rss_mb, WorkDir};
use crate::report::{readings, Outcome};
use crate::stats::Summary;
use crate::workloads::{csv_digest, deliver, repeat_seed, Delivery, Engine, Spec, PINNED_SEED};
use gpufi_core::{RunDetail, CAMPAIGN_CSV_HEADER};
use gpufi_metrics::FaultEffect;
use std::process::Command;
use std::time::Instant;

/// How much one run measures.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Injection runs per campaign.
    pub runs: usize,
    /// Seconds of timed repeats.
    pub seconds: f64,
    /// Timed repeats to make even when `seconds` is already spent.
    pub min_repeats: usize,
    /// Fresh processes to sample set-up time and peak memory in; with none,
    /// the in-process repeats' set-up times and this process's peak are
    /// reported (tests and `check`, which cannot or need not start
    /// processes).
    pub cold_processes: usize,
}

/// Marker of the line a `--cold` child reports on.
const COLD_PREFIX: &str = "cold ";

/// Runs per campaign in a `--cold` child: set-up ends at the first run and
/// the footprint peaks within the first few, so the campaign only has to be
/// big enough to be valid.
const COLD_RUNS: usize = crate::workloads::QUICK_RUNS;

/// The child side of [`cold_processes`]: one delivery in this fresh
/// process, then its set-up time and peak resident set.
pub fn cold_child(spec: &Spec, seed: u64) -> Result<(), String> {
    let work = WorkDir::create(&format!("{}-cold", spec.name))?;
    let d = deliver(spec, spec.engine, COLD_RUNS, seed, &work.0)?;
    validate(spec, COLD_RUNS, &d)?;
    let rss = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    println!("{COLD_PREFIX}{} {rss}", d.setup_s);
    Ok(())
}

/// `(setup_s, peak_rss_mb)` of `n` fresh processes, one after another.
///
/// What a user pays is the set-up and the footprint of a process that has
/// allocated nothing yet.  A repeat inside a long-lived process instead
/// finds the previous repeat's memory either kept or returned by the
/// allocator — which of the two flips between processes and halves or
/// doubles the set-up time — and the served workload's peak depends on how
/// its three threads' allocations happen to overlap.  So both are sampled
/// where they are always cold, several times.
fn cold_processes(spec: &Spec, seed: u64, n: usize) -> Result<Vec<(f64, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    (0..n as u64)
        .map(|i| {
            let out = Command::new(&exe)
                .args(["--workload", spec.name, "--cold"])
                .args(["--seed", &repeat_seed(seed, i).to_string()])
                .output()
                .map_err(|e| format!("cannot start the cold child: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            stdout
                .lines()
                .find_map(|l| l.strip_prefix(COLD_PREFIX))
                .and_then(|l| {
                    let (setup, rss) = l.split_once(' ')?;
                    Some((setup.parse().ok()?, rss.parse().ok()?))
                })
                .filter(|_| out.status.success())
                .ok_or_else(|| {
                    format!(
                        "cold child failed ({}): {}",
                        out.status,
                        String::from_utf8_lossy(&out.stderr).trim()
                    )
                })
        })
        .collect()
}

/// Checks one delivered campaign against what any correct engine must
/// produce; returns how many of its records are simulator panics.
///
/// # Errors
///
/// A description of the first structural defect: the whole campaign then
/// counts as failed.
pub fn validate(spec: &Spec, runs: usize, d: &Delivery) -> Result<usize, String> {
    let pins = &spec.pins;
    if (d.golden_cycles, d.golden_instructions) != (pins.golden_cycles, pins.golden_instructions) {
        return Err(format!(
            "golden run moved: {} cycles / {} warp instructions, pinned {} / {}",
            d.golden_cycles, d.golden_instructions, pins.golden_cycles, pins.golden_instructions
        ));
    }
    if d.result.records.len() != runs || d.result.tally.total() != runs as u64 {
        return Err(format!(
            "{} records and a tally of {} for {runs} runs",
            d.result.records.len(),
            d.result.tally.total()
        ));
    }
    let mut lines = d.csv.lines();
    if lines.next() != Some(CAMPAIGN_CSV_HEADER) || lines.count() != runs {
        return Err("CSV is not one pinned header plus one row per run".into());
    }
    for (i, r) in d.result.records.iter().enumerate() {
        // A fault that never applied, or whose lifetime provably ended,
        // leaves the golden execution: Masked at the golden cycle count.
        let golden_masked = r.effect == FaultEffect::Masked && r.cycles == d.golden_cycles;
        if (!r.applied || r.early_exit) && !golden_masked {
            return Err(format!(
                "run {i}: applied={} early_exit={} yet {} at {} cycles",
                r.applied,
                r.early_exit,
                r.effect.name(),
                r.cycles
            ));
        }
    }
    Ok(d.result
        .records
        .iter()
        .filter(|r| r.detail == RunDetail::SimPanic)
        .count())
}

/// Runs attempted and failed so far, with the reasons.
#[derive(Default)]
struct Gate {
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
}

impl Gate {
    /// Counts a whole campaign of `runs` as failed.
    fn fail(&mut self, runs: usize, why: String) {
        self.failed += runs;
        self.errors.push(why);
    }

    /// Accounts for one campaign and passes it on if it is valid.
    fn judge(
        &mut self,
        spec: &Spec,
        runs: usize,
        what: &str,
        delivered: Result<Delivery, String>,
    ) -> Option<Delivery> {
        self.attempted += runs;
        match delivered.and_then(|d| validate(spec, runs, &d).map(|panics| (d, panics))) {
            Ok((d, panics)) => {
                self.failed += panics;
                Some(d)
            }
            Err(e) => {
                self.fail(runs, format!("{what}: {e}"));
                None
            }
        }
    }
}

/// Runs the correctness gate and then timed repeats of `spec` for
/// `sizing.seconds`.
pub fn run(spec: &Spec, seed: u64, sizing: Sizing, contract: &Contract) -> Result<Outcome, String> {
    let work = WorkDir::create(spec.name)?;
    let runs = sizing.runs;
    let mut gate = Gate::default();

    // Warm-up, discarded from the timings: repeat 0's campaign on one
    // in-process thread without a journal — the reference every engine must
    // reproduce byte for byte.  For a serial workload this is the same
    // campaign run twice, which checks that it repeats exactly.
    let warm_up = deliver(spec, Engine::Serial, runs, seed, &work.0);
    let reference = gate.judge(spec, runs, "warm-up", warm_up);
    if let Some(r) = &reference {
        let digest = csv_digest(&r.csv);
        if seed == PINNED_SEED && runs == spec.runs && digest != spec.pins.csv_digest_seed11 {
            gate.fail(
                runs,
                format!(
                    "seed {PINNED_SEED} CSV digest {digest:#018x}, pinned {:#018x}",
                    spec.pins.csv_digest_seed11
                ),
            );
        }
    }

    let (mut rps, mut setup) = (Vec::new(), Vec::new());
    let start = Instant::now();
    for i in 0u64.. {
        let what = format!("repeat {i}");
        let delivered = deliver(spec, spec.engine, runs, repeat_seed(seed, i), &work.0);
        if let Some(d) = gate.judge(spec, runs, &what, delivered) {
            if i == 0 && reference.as_ref().is_some_and(|r| r.csv != d.csv) {
                gate.fail(
                    runs,
                    format!("{what}: CSV differs from the one-thread run of the same campaign"),
                );
            }
            rps.push(runs as f64 / d.run_s);
            setup.push(d.setup_s);
        }
        // Stop where the overshoot past `seconds` is at most half a repeat.
        let elapsed = start.elapsed().as_secs_f64();
        let mean_repeat = elapsed / (i + 1) as f64;
        if i + 1 >= sizing.min_repeats as u64 && elapsed + mean_repeat / 2.0 >= sizing.seconds {
            break;
        }
    }

    let mut rss = vec![peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?];
    if sizing.cold_processes > 0 {
        gate.attempted += sizing.cold_processes * COLD_RUNS;
        match cold_processes(spec, seed, sizing.cold_processes) {
            Ok(cold) => (setup, rss) = cold.into_iter().unzip(),
            Err(e) => gate.fail(sizing.cold_processes * COLD_RUNS, e),
        }
    }

    Ok(Outcome {
        workload: spec.name.to_string(),
        seed,
        traced: false,
        attempted: gate.attempted,
        failed: gate.failed,
        errors: gate.errors,
        readings: readings(
            &contract.end_to_end,
            vec![
                ("runs_per_s", Summary::of(&rps)),
                ("setup_s", Summary::of(&setup)),
                ("peak_rss_mb", Summary::of(&rss)),
            ],
        )?,
        notes: vec![("repeats".to_string(), rps.len().into())],
    })
}
