//! `gpufi` — the command-line front-end of the gpuFI-4 reproduction.
//!
//! Mirrors the paper's bash front-end (§III.C): it profiles a benchmark
//! fault-free, runs parameterised injection campaigns, and aggregates the
//! results into the paper's metrics.
//!
//! ```text
//! gpufi list
//! gpufi profile  --bench VA [--card rtx2060]
//! gpufi campaign --bench VA --structure rf [--runs 120] [--bits 1]
//!                [--kernel vec_add] [--scope warp] [--spread] [--seed 1]
//! gpufi avf      --bench VA [--card gv100] [--runs 60] [--bits 3]
//! gpufi analyze  [--bench VA] [--json]
//! gpufi lint     [--bench VA] [--json]
//! ```

use gpufi_core::json::Value;
use gpufi_core::{
    analyze_with_golden, profile, run_campaign, run_campaign_with_hook, run_worker, serve_campaign,
    AnalysisConfig, CampaignConfig, GoldenProfile, SamplingMode, ServiceConfig, ServiceError,
    Workload,
};
use gpufi_faults::{CampaignSpec, FaultModel, MultiBitMode, Structure};
use gpufi_metrics::{margin_of_error, FaultEffect};
use gpufi_sim::{GpuConfig, Scope};
use std::net::TcpListener;
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            match e {
                CliError::Usage(_) => eprintln!("\n{USAGE}"),
                CliError::Failed(_) => eprintln!("(`gpufi help` prints the usage)"),
            }
            ExitCode::FAILURE
        }
    }
}

/// Why a command failed — `main` reprints [`USAGE`] under the first kind
/// only, so the one-line cause of the second stays on screen.
#[derive(Debug, PartialEq)]
enum CliError {
    /// The command line itself is wrong (unknown command or flag, missing
    /// flag or value, unparsable value).  The flag helpers report these as
    /// plain strings; `?` lifts them here.
    Usage(String),
    /// The command line was understood and the work failed.
    Failed(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (CliError::Usage(msg) | CliError::Failed(msg)) = self;
        f.write_str(msg)
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Usage(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        CliError::Usage(msg.into())
    }
}

/// Lifts a runtime error into [`CliError::Failed`].
fn failed(e: impl std::fmt::Display) -> CliError {
    CliError::Failed(e.to_string())
}

const USAGE: &str = "\
usage:
  gpufi list
  gpufi profile  --bench <NAME> [--card <CARD> | --config <FILE>]
  gpufi campaign --bench <NAME> --structure <S> [campaign flags]
                 [--oracle-check] [--csv FILE] [--journal FILE] [--no-journal]
                 [--resume] [--inject-panic-run I] [--validate-sampling]
  gpufi avf      --bench <NAME> [--card <CARD> | --config <FILE>] [--runs N]
                 [--bits K] [--seed S] [--threads T] [--csv FILE]
  gpufi analyze  [--bench <NAME>] [--card <CARD> | --config <FILE>] [--json]
  gpufi serve    --bench <NAME> --structure <S> [campaign flags]
                 [--bind ADDR] [--lease-size N] [--heartbeat-ms MS]
                 [--deadline-ms MS] [--local-workers W]
                 [--csv FILE] [--journal FILE] [--no-journal] [--resume]
  gpufi worker   --bench <NAME> --structure <S> [campaign flags]
                 --connect ADDR [--heartbeat-ms MS] [--connect-wait-seconds S]
  gpufi fuzz     [--kernels N] [--seed S]
  gpufi lint     [--bench <NAME>] [--json]

campaign flags (campaign, serve and worker):
  [--card <CARD> | --config <FILE>] [--runs N] [--bits K] [--kernel <K>]
  [--scope thread|warp] [--spread] [--seed S] [--threads T]
  [--fault-model transient|stuck-at-0|stuck-at-1] [--no-early-exit]
  [--no-checkpoints] [--no-static-prune] [--max-run-seconds S]
  [--sampling flat|stratified]

cards:      rtx2060 (default) | gv100 | titan, or --config <FILE> with a
            gpgpusim.config-style `key = value` chip description
structures: rf | local | shared | l1d | l1t | l1c | l2
            | simt-stack | sched | scoreboard  (control units)

fault models: --fault-model transient (default) flips the targeted bits
once and lets them decay; stuck-at-0 / stuck-at-1 pin the same bits
permanently — the faulty value is re-imposed after every write for the
lifetime of the targeted physical entity (thread register, CTA shared
bank, warp SIMT-stack frame, warp scheduler slot, scoreboard entry).
Stuck-at is supported for rf, shared and the control structures; the
cache and local-memory spaces reject it (their injection sites are
transient-decay corruptions, not physical latches).  Control-unit
campaigns corrupt the reconvergence stack (simt-stack: active mask and
reconvergence pc of a live frame), the warp scheduler (sched:
at-barrier flag and the CTA's barrier-arrival counter) and the issue
scoreboard (scoreboard: a register ready-cycle entry).  A stuck
at-barrier or arrival-counter bit can make a CTA barrier permanently
unreleasable — classified Timeout with detail=hang_lost_barrier;
--sampling stratified is transient-only (liveness strata assume
single-cycle fault lifetimes)

--bits K flips K distinct bits per fault within one entry (a register or
memory word, a control-site entry, a cache line), or anywhere in the
structure with --spread; a K the entry (or structure) cannot hold is
refused, as is --bits 0

campaigns abort each run as soon as every injected fault's lifetime has
provably ended (classified Masked at the golden cycle count), and fork
each run from a golden-run checkpoint at its first injection cycle;
--no-early-exit forces full simulation of every run and --no-checkpoints
forces cold starts from cycle 0 (validation modes);
--oracle-check runs the golden pass in lockstep with the functional
reference interpreter, resolves every run as the default engine does
(same CSV and journal) and re-runs it cold, fully simulated and
unpruned: the two must agree, and every run pre-classification or early
exit resolved must end in the oracle-predicted memory image;
fuzz runs N random SASS-lite kernels through both engines (sim == oracle)
and statically lints every generated kernel;
lint runs the SASS-lite static analyzer (CFG, dominators, liveness) over
one benchmark or the whole paper suite: uninitialized-register reads,
divergent barriers, shared-memory races between barrier intervals,
unreachable code, write-never-read registers and malformed SSY
reconvergence points; --json emits machine-readable findings;
register-file campaigns consult the bit-level liveness analysis to
pre-classify, without simulating them, runs whose faults land only in
statically dead (never-read) registers (detail=static_dead) and, for
transient faults, runs whose flipped bits all land in statically dead
*bits* of otherwise-live registers (detail=static_dead_bit);
--no-static-prune forces full simulation of every run (validation mode;
--sampling stratified pre-classifies nothing, stuck-at models only whole
dead registers); `analyze` dumps the per-kernel bit-level
liveness and known-bits reports plus the cycle-weighted register-file
prunable-mass estimates without running a campaign;
--sampling stratified generalizes the prune into two-level estimation for
register-file campaigns: per-register liveness intervals from the golden
run partition the fault population, the provably-masked mass is classified
analytically with zero simulated runs, the budget covers only live strata
and the per-class estimates are reweighted with confidence intervals
(typically 5-10x fewer simulated runs at equal confidence);
--validate-sampling additionally runs a 5x-larger flat campaign and fails
unless every stratified estimate lands inside the flat campaign's interval

fault tolerance: every run executes under a supervisor that catches
simulator panics, retries a panicked run once on the spot and records a
reproduced panic as Crash (detail=sim_panic) without losing sibling runs; with
--csv (or --journal) every completed run is fsync'd to an append-only
journal (<csv>.journal.jsonl by default, --no-journal disables) and
--resume restarts an interrupted campaign from it, re-running only the
missing runs with bit-identical results (a journal of another campaign
is refused, naming the first parameter that differs, e.g. `seed` or a
`chip` member); --max-run-seconds S adds a
per-run wall-clock watchdog (classified Timeout, detail=wall_watchdog)
on top of the 2x-golden-cycles cycle watchdog; --inject-panic-run I
panics run I on both attempts (supervisor self-test)

distributed campaigns: `serve` runs the same campaign as `campaign` but
executes nothing itself — it partitions the run-index space into leases,
hands them to `worker` processes over TCP (the handshake compares the
two sides' campaign descriptions, so a worker describing a different
campaign or chip is rejected with the first parameter that differs),
merges the streamed records into the one canonical
journal/CSV/tally and reissues any lease whose worker dies, stalls past
--deadline-ms or tears a frame — the merged outputs are byte-identical
to a serial `--threads 1` run; --local-workers W additionally spawns W
in-process workers (single-machine convenience and the CI smoke);
--resume restarts a killed coordinator from its journal, leasing only
the missing runs; `worker` connects to a coordinator (retrying until
--connect-wait-seconds while it boots), draws the identical plans from
its own flags and executes leased runs with the exact local-scheduler
semantics; both sides reject --oracle-check (single-process validation)";

/// The flags each command accepts, one line per USAGE synopsis: `=` marks
/// a flag that takes a value, and `[campaign-flags]` stands for the last
/// line, USAGE's `[campaign flags]`.
const COMMAND_FLAGS: &str = "\
list
profile  --bench= --card= --config=
campaign --bench= --structure= [campaign-flags] --oracle-check --csv= --journal= --no-journal \
         --resume --inject-panic-run= --validate-sampling
avf      --bench= --card= --config= --runs= --bits= --seed= --threads= --csv=
analyze  --bench= --card= --config= --json
serve    --bench= --structure= [campaign-flags] --bind= --lease-size= --heartbeat-ms= \
         --deadline-ms= --local-workers= --csv= --journal= --no-journal --resume
worker   --bench= --structure= [campaign-flags] --connect= --heartbeat-ms= --connect-wait-seconds=
fuzz     --kernels= --seed=
lint     --bench= --json
[campaign-flags] --card= --config= --runs= --bits= --kernel= --scope= --spread --seed= \
         --threads= --fault-model= --no-early-exit --no-checkpoints --no-static-prune \
         --max-run-seconds= --sampling=";

/// The `COMMAND_FLAGS` line of `cmd`, without its name.
fn flag_line(cmd: &str) -> Option<std::str::SplitWhitespace<'static>> {
    let mut lines = COMMAND_FLAGS.lines().map(str::split_whitespace);
    lines.find_map(|mut words| (words.next() == Some(cmd)).then_some(words))
}

/// The flags `cmd` accepts, as `(flag, takes a value)`.
fn accepted(cmd: &str) -> Vec<(&'static str, bool)> {
    let expand = |f: &'static str| match f.strip_suffix('=') {
        Some(name) => vec![(name, true)],
        None if f.starts_with('[') => accepted(f),
        None => vec![(f, false)],
    };
    flag_line(cmd)
        .into_iter()
        .flatten()
        .flat_map(expand)
        .collect()
}

/// A command's parsed flags: each accepted flag given, with its value.
#[derive(Default)]
struct Args<'a> {
    given: Vec<(&'static str, Option<&'a str>)>,
}

impl<'a> Args<'a> {
    /// The one walk over `argv`: every token must be a flag `cmd` accepts
    /// — a typo like `--run 50` must fail loudly instead of silently
    /// running 120 default runs — given at most once, and a value flag
    /// must be followed by a value, not by another accepted flag (so
    /// `--csv --no-journal` cannot both name the CSV and disable the
    /// journal).
    fn new(cmd: &str, argv: &'a [String]) -> Result<Self, String> {
        let flags = accepted(cmd);
        let find = |a: &str| flags.iter().copied().find(|&(f, _)| f == a);
        let mut given: Vec<(&'static str, Option<&'a str>)> = Vec::new();
        let mut tokens = argv.iter().map(String::as_str);
        while let Some(a) = tokens.next() {
            let Some((flag, takes_value)) = find(a) else {
                return Err(format!("unknown flag `{a}`"));
            };
            if given.iter().any(|&(f, _)| f == flag) {
                return Err(format!("{flag} given twice"));
            }
            let value = match takes_value.then(|| tokens.next()) {
                None => None,
                Some(Some(v)) if find(v).is_none() => Some(v),
                Some(_) => return Err(format!("{flag} needs a value")),
            };
            given.push((flag, value));
        }
        Ok(Args { given })
    }

    fn value(&self, flag: &str) -> Option<&'a str> {
        self.given.iter().find(|&&(f, _)| f == flag)?.1
    }

    fn flag(&self, flag: &str) -> bool {
        self.given.iter().any(|&(f, _)| f == flag)
    }

    fn opt<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        let parse = |v: &str| {
            v.parse()
                .map_err(|_| format!("bad value for {flag}: `{v}`"))
        };
        self.value(flag).map(parse).transpose()
    }

    fn parse<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        Ok(self.opt(flag)?.unwrap_or(default))
    }
}

/// Resolves the target chip: `--config FILE` (a gpgpusim.config-style
/// description) wins over `--card PRESET`.
fn card_of(args: &Args<'_>) -> Result<GpuConfig, CliError> {
    if let Some(path) = args.value("--config") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| failed(format!("cannot read config `{path}`: {e}")))?;
        return GpuConfig::from_config_text(&text).map_err(failed);
    }
    let name = args.value("--card").unwrap_or("rtx2060");
    Ok(GpuConfig::preset(name).ok_or_else(|| format!("unknown card `{name}`"))?)
}

fn run(argv: &[String]) -> Result<(), CliError> {
    let Some(cmd) = argv.first() else {
        return Err("missing command".into());
    };
    let args = match flag_line(cmd) {
        Some(_) => Args::new(cmd, &argv[1..])?,
        None => Args::default(),
    };
    match cmd.as_str() {
        "list" => {
            println!("benchmarks:");
            for w in gpufi_workloads::paper_suite() {
                println!("  {}", w.name());
            }
            println!("cards: rtx2060, gv100, titan");
            println!("structures:");
            for s in Structure::ALL.iter().chain(&Structure::CONTROL) {
                println!("  {:<12}{s}", s.cli_name());
            }
            Ok(())
        }
        "profile" => cmd_profile(&args),
        "campaign" => cmd_campaign(&args),
        "serve" => cmd_serve(&args),
        "worker" => cmd_worker(&args),
        "avf" => cmd_avf(&args),
        "analyze" => cmd_analyze(&args),
        "fuzz" => cmd_fuzz(&args),
        "lint" => cmd_lint(&args),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`").into()),
    }
}

fn workload_of(args: &Args<'_>) -> Result<Box<dyn gpufi_core::Workload>, String> {
    let name = args.value("--bench").ok_or("--bench is required")?;
    gpufi_workloads::by_name(name).ok_or_else(|| format!("unknown benchmark `{name}`"))
}

/// `--bench`'s workload, or the whole paper suite without it.
fn workloads_of(args: &Args<'_>) -> Result<Vec<Box<dyn Workload>>, String> {
    match args.value("--bench") {
        Some(_) => Ok(vec![workload_of(args)?]),
        None => Ok(gpufi_workloads::paper_suite()),
    }
}

fn cmd_profile(args: &Args<'_>) -> Result<(), CliError> {
    let workload = workload_of(args)?;
    let card = card_of(args)?;
    let golden = profile(workload.as_ref(), &card).map_err(failed)?;
    println!("benchmark: {}  card: {}", workload.name(), card.name);
    println!("fault-free cycles: {}", golden.total_cycles());
    println!("output bytes: {}", golden.output.len());
    println!("launches: {}", golden.app.launches.len());
    println!();
    println!(
        "{:<16} {:>6} {:>10} {:>8} {:>6} {:>6} {:>6} {:>8} {:>8}",
        "static kernel", "invoc", "cycles", "occup", "regs", "smem", "lmem", "L1D hit", "L2 hit"
    );
    for k in golden.app.static_kernels() {
        let space = &golden.fault_spaces[&k];
        let invocations = golden.app.windows_of(&k).len();
        let (mut l1d, mut l2) = (
            gpufi_sim::CacheStats::default(),
            gpufi_sim::CacheStats::default(),
        );
        for l in golden.app.launches.iter().filter(|l| l.kernel == k) {
            l1d.hits += l.l1d_stats.hits;
            l1d.misses += l.l1d_stats.misses;
            l2.hits += l.l2_stats.hits;
            l2.misses += l.l2_stats.misses;
        }
        println!(
            "{:<16} {:>6} {:>10} {:>8.3} {:>6} {:>6} {:>6} {:>7.1}% {:>7.1}%",
            k,
            invocations,
            golden.app.cycles_of(&k),
            golden.app.occupancy_of(&k),
            space.regs_per_thread,
            space.smem_bits / 8,
            space.lmem_bits / 8,
            100.0 * l1d.hit_ratio(),
            100.0 * l2.hit_ratio(),
        );
    }
    Ok(())
}

/// `--bits`, at least 1 (the upper bound depends on the structure and is
/// checked when faults are drawn).
fn bits_of(args: &Args<'_>) -> Result<u32, String> {
    match args.parse("--bits", 1)? {
        0 => Err("--bits 0: a fault flips at least one bit".into()),
        bits => Ok(bits),
    }
}

/// Everything `campaign`, `serve` and `worker` share: the workload, the
/// chip, the golden profile and the fully-applied [`CampaignConfig`].
/// The three commands must build these identically — the distributed
/// handshake's description check is only as useful as the flag parsing
/// feeding it is uniform.
struct Setup {
    workload: Box<dyn Workload>,
    card: GpuConfig,
    golden: GoldenProfile,
    cfg: CampaignConfig,
}

/// Parses the shared campaign flags into a [`Setup`] (profiles the golden
/// run as a side effect).
fn campaign_setup(args: &Args<'_>) -> Result<Setup, CliError> {
    let workload = workload_of(args)?;
    let card = card_of(args)?;
    let name = args.value("--structure").ok_or("--structure is required")?;
    let structure = Structure::parse(name).ok_or_else(|| format!("unknown structure `{name}`"))?;
    let runs: usize = args.parse("--runs", 120)?;
    if runs == 0 {
        return Err(failed("--runs 0: a campaign needs at least one run"));
    }
    let seed: u64 = args.parse("--seed", 1)?;
    let bits = bits_of(args)?;
    let threads: usize = args.parse("--threads", 0)?;
    let mut spec = CampaignSpec::new(structure).bits(bits);
    if args.flag("--spread") {
        spec = spec.mode(MultiBitMode::Spread);
    }
    if let Some(scope) = args.value("--scope") {
        spec.scope = Scope::parse(scope).ok_or_else(|| format!("unknown scope `{scope}`"))?;
    }
    if let Some(m) = args.value("--fault-model") {
        let model = FaultModel::parse(m).ok_or_else(|| {
            format!("unknown fault model `{m}` (transient | stuck-at-0 | stuck-at-1)")
        })?;
        spec = spec.model(model);
    }
    let golden = profile(workload.as_ref(), &card).map_err(failed)?;
    let mut cfg = CampaignConfig::new(spec, runs, seed).with_threads(threads);
    if args.flag("--no-early-exit") {
        cfg = cfg.no_early_exit();
    }
    if args.flag("--no-checkpoints") {
        cfg = cfg.no_checkpoints();
    }
    if args.flag("--no-static-prune") {
        cfg = cfg.no_static_prune();
    }
    let sampling = match args.value("--sampling") {
        None => SamplingMode::Flat,
        Some(v) => SamplingMode::parse(v).ok_or_else(|| format!("unknown sampling mode `{v}`"))?,
    };
    if args.flag("--validate-sampling") && sampling == SamplingMode::Flat && args.flag("--sampling")
    {
        return Err(
            "--validate-sampling checks a stratified campaign; drop --sampling flat".into(),
        );
    }
    if sampling == SamplingMode::Stratified || args.flag("--validate-sampling") {
        cfg = cfg.stratified();
    }
    if let Some(kernel) = args.value("--kernel") {
        cfg = cfg.for_kernel(kernel);
    }
    let max_run_seconds: u64 = args.parse("--max-run-seconds", 0)?;
    if max_run_seconds > 0 {
        cfg = cfg.with_max_run_ms(max_run_seconds.saturating_mul(1000));
    }
    Ok(Setup {
        workload,
        card,
        golden,
        cfg,
    })
}

/// Applies the journal/resume flags (`campaign` and `serve` only — a
/// worker never journals; the coordinator owns the canonical journal).
fn apply_journal_flags(args: &Args<'_>, mut cfg: CampaignConfig) -> Result<CampaignConfig, String> {
    // Journal path: explicit --journal wins; otherwise derived from --csv
    // unless --no-journal opts out.
    let journal_path: Option<String> = if args.flag("--no-journal") {
        if args.value("--journal").is_some() {
            return Err("--no-journal conflicts with --journal".into());
        }
        None
    } else if let Some(j) = args.value("--journal") {
        Some(j.to_string())
    } else {
        args.value("--csv").map(|c| format!("{c}.journal.jsonl"))
    };
    if args.flag("--resume") && journal_path.is_none() {
        return Err("--resume needs --journal (or --csv, to derive the journal path)".into());
    }
    if let Some(p) = journal_path {
        cfg = cfg.with_journal(p);
    }
    if args.flag("--resume") {
        cfg = cfg.with_resume();
    }
    Ok(cfg)
}

/// Parses the service tuning flags shared by `serve` and `worker`.
fn svc_of(args: &Args<'_>) -> Result<ServiceConfig, String> {
    let default = ServiceConfig::default();
    Ok(ServiceConfig {
        lease_size: args.parse("--lease-size", default.lease_size)?,
        heartbeat_ms: args.parse("--heartbeat-ms", default.heartbeat_ms)?,
        deadline_ms: args.parse("--deadline-ms", default.deadline_ms)?,
    })
}

fn cmd_campaign(args: &Args<'_>) -> Result<(), CliError> {
    let mut setup = campaign_setup(args)?;
    if args.flag("--oracle-check") {
        setup.cfg = setup.cfg.with_oracle_check();
    }
    setup.cfg = apply_journal_flags(args, setup.cfg)?;
    let panic_run: Option<usize> = args.opt("--inject-panic-run")?;
    let Setup {
        workload,
        card,
        cfg,
        golden,
    } = &setup;
    let result = match panic_run {
        None => run_campaign(workload.as_ref(), card, cfg, golden),
        Some(poison) => {
            let hook = move |run: usize, _attempt: u32| {
                if run == poison {
                    panic!("injected poison run {run} (--inject-panic-run)");
                }
            };
            run_campaign_with_hook(workload.as_ref(), card, cfg, golden, Some(&hook))
        }
    }
    .map_err(failed)?;
    print_campaign_summary(&setup, &result, args)?;
    if args.flag("--validate-sampling") {
        validate_stratified(&result, &setup)?;
    }
    Ok(())
}

/// The human-readable campaign report — shared verbatim by `campaign` and
/// `serve`, so the distributed path's output can be diffed against the
/// serial path's.  Also writes `--csv` when given.
fn print_campaign_summary(
    setup: &Setup,
    result: &gpufi_core::CampaignResult,
    args: &Args<'_>,
) -> Result<(), CliError> {
    let runs = setup.cfg.runs;
    println!(
        "benchmark: {}  card: {}  structure: {}  bits/fault: {}  runs: {}",
        setup.workload.name(),
        setup.card.name,
        setup.cfg.spec.structure,
        setup.cfg.spec.bits_per_fault,
        runs
    );
    let t = &result.tally;
    for effect in FaultEffect::ALL {
        println!(
            "  {:<12} {:>6}  ({:>6.2} %)",
            effect.name(),
            t.count(effect),
            100.0 * t.fraction(effect)
        );
    }
    println!("  failure ratio (eq. 1): {:.4}", t.failure_ratio());
    println!(
        "  error margin at 99% confidence: ±{:.2} %",
        100.0 * margin_of_error(0.99, runs.max(1) as u64, u64::MAX)
    );
    let s = &result.stats;
    println!(
        "  engine: {:.1} runs/s on {} threads ({:.0} ms wall)",
        s.runs_per_sec, s.threads, s.wall_ms
    );
    println!(
        "  throughput: {:.1} simulated runs/s ({} forked), {:.1} effective runs/s ({:.0} flat-equivalent)",
        s.sim_runs_per_sec, s.simulated_runs, s.effective_runs_per_sec, s.effective_runs
    );
    println!(
        "  faults applied: {} ({:.1} %)   early exits: {} ({:.1} %)",
        s.applied,
        100.0 * s.applied_rate,
        s.early_exits,
        100.0 * s.early_exit_rate
    );
    println!(
        "  checkpoints: {} ({:.1} MiB)   restores: {}   mean cycles skipped: {:.0}",
        s.checkpoints,
        s.checkpoint_bytes as f64 / (1024.0 * 1024.0),
        s.restores,
        s.mean_skipped_cycles
    );
    if s.static_pruned + s.static_bit_pruned > 0 {
        println!(
            "  static prune: {} run(s) in dead registers + {} in dead bits of live registers \
             pre-classified Masked ({:.1} %)",
            s.static_pruned,
            s.static_bit_pruned,
            100.0 * (s.static_pruned_rate + s.static_bit_pruned_rate)
        );
    }
    if s.panics > 0 || s.retries > 0 {
        println!(
            "  supervisor: {} panic(s) caught, {} run(s) retried once",
            s.panics, s.retries
        );
    }
    if s.resumed > 0 {
        println!(
            "  resume: {} run(s) loaded from the journal, {} executed",
            s.resumed,
            runs.saturating_sub(s.resumed)
        );
    }
    if s.journal_bytes > 0 {
        println!(
            "  journal: {} bytes fsync'd ({:.0} ms)",
            s.journal_bytes, s.journal_ms
        );
    }
    if s.workers > 0 {
        println!(
            "  service: {} worker(s), {} lease(s) granted, {} reissued, {} duplicate ack(s)",
            s.workers, s.leases, s.reissued_leases, s.duplicate_acks
        );
        for wt in &s.worker_throughput {
            println!(
                "    worker {:>2}: {:>5} run(s) in {:>3} lease(s), {:.1} runs/s",
                wt.worker, wt.runs, wt.leases, wt.runs_per_sec
            );
        }
    }
    if s.oracle_checked > 0 {
        println!(
            "  oracle: {} runs checked, {} shortcut verdicts verified, {} mismatches",
            s.oracle_checked, s.oracle_verified, s.oracle_mismatches
        );
        if s.oracle_mismatches > 0 {
            return Err(failed(format!(
                "{} run(s) disagree with their cold full-simulation reference",
                s.oracle_mismatches
            )));
        }
    }
    if let Some(sm) = &result.sampling {
        let est = &sm.estimate;
        println!(
            "  stratified sampling: {} live strata, {:.1} % of the population analytically Masked",
            sm.strata,
            100.0 * sm.masked_weight
        );
        for (i, e) in FaultEffect::ALL.iter().enumerate() {
            println!(
                "    {:<12} {:>7.3} % \u{00b1} {:.3} %",
                e.name(),
                100.0 * est.classes[i].estimate,
                100.0 * est.classes[i].half_width
            );
        }
        println!(
            "    failure ratio {:.4} \u{00b1} {:.4}  ({} simulated runs \u{2248} {:.0} flat runs at 99 %)",
            est.failure.estimate,
            est.failure.half_width,
            est.simulated,
            est.equivalent_flat_runs()
        );
    }
    if let Some(path) = args.value("--csv") {
        let csv = gpufi_core::campaign_csv(result);
        std::fs::write(path, csv).map_err(|e| failed(format!("cannot write {path}: {e}")))?;
        println!("  per-run records written to {path}");
    }
    Ok(())
}

/// `gpufi serve`: the distributed coordinator.  Same campaign flags as
/// `campaign` (the handshake proves workers describe the same campaign),
/// plus the bind address, lease/heartbeat/deadline tuning and
/// `--local-workers` for single-machine runs.  Owns the canonical
/// journal/CSV/tally.
fn cmd_serve(args: &Args<'_>) -> Result<(), CliError> {
    let mut setup = campaign_setup(args)?;
    setup.cfg = apply_journal_flags(args, setup.cfg)?;
    let svc = svc_of(args)?;
    let local_workers: usize = args.parse("--local-workers", 0)?;
    let bind = args.value("--bind").unwrap_or("127.0.0.1:9442");
    let listener =
        TcpListener::bind(bind).map_err(|e| failed(format!("cannot bind `{bind}`: {e}")))?;
    let addr = listener
        .local_addr()
        .map_err(|e| failed(format!("local_addr: {e}")))?
        .to_string();
    println!(
        "serving campaign on {addr} ({} runs, lease size {}, deadline {} ms)",
        setup.cfg.runs,
        svc.effective_lease_size(setup.cfg.runs),
        svc.deadline_ms
    );
    let Setup {
        workload,
        card,
        cfg,
        golden,
        ..
    } = &setup;
    let result = std::thread::scope(|scope| {
        for w in 0..local_workers {
            let addr = addr.as_str();
            scope.spawn(move || {
                if let Err(e) = run_worker(addr, workload.as_ref(), card, cfg, golden, &svc) {
                    eprintln!("local worker {w}: {e}");
                }
            });
        }
        serve_campaign(workload.as_ref(), card, cfg, golden, &svc, listener)
    })
    .map_err(failed)?;
    print_campaign_summary(&setup, &result, args)
}

/// `gpufi worker`: connects to a `serve` coordinator (retrying while it
/// boots), proves it describes the same campaign in the handshake and
/// executes leased runs until `fin`.
fn cmd_worker(args: &Args<'_>) -> Result<(), CliError> {
    let addr = args.value("--connect").ok_or("--connect is required")?;
    let wait_s: u64 = args.parse("--connect-wait-seconds", 30)?;
    let setup = campaign_setup(args)?;
    let svc = svc_of(args)?;
    // Retry while the coordinator boots: only a refused/unreachable
    // connection retries — a handshake rejection is final.
    let deadline = Instant::now() + Duration::from_secs(wait_s);
    let report = loop {
        match run_worker(
            addr,
            setup.workload.as_ref(),
            &setup.card,
            &setup.cfg,
            &setup.golden,
            &svc,
        ) {
            Ok(report) => break report,
            Err(ServiceError::Io(e)) if e.starts_with("connect") && Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(500));
            }
            Err(e) => return Err(failed(e)),
        }
    };
    println!(
        "worker done: {} run(s) across {} lease(s) for {addr}",
        report.runs, report.leases
    );
    Ok(())
}

/// `--validate-sampling`: re-runs the campaign flat with a 5x budget and
/// asserts every stratified class estimate lands inside the flat
/// campaign's own 99% interval around its observed fraction (intervals
/// summed: both campaigns carry sampling error).
fn validate_stratified(result: &gpufi_core::CampaignResult, setup: &Setup) -> Result<(), CliError> {
    let Setup {
        workload,
        card,
        golden,
        cfg,
    } = setup;
    let runs = cfg.runs;
    let summary = result
        .sampling
        .as_ref()
        .ok_or("--validate-sampling needs a stratified campaign")?;
    let flat_runs = runs.saturating_mul(5);
    let mut fcfg = cfg.clone();
    fcfg.sampling = SamplingMode::Flat;
    fcfg.runs = flat_runs;
    fcfg.journal = None;
    fcfg.resume = false;
    println!(
        "  validating against a flat campaign of {flat_runs} runs ({}x the stratified budget)...",
        flat_runs / runs.max(1)
    );
    let flat = run_campaign(workload.as_ref(), card, &fcfg, golden).map_err(failed)?;
    let mut failures = Vec::new();
    let intervals = summary.agreement_intervals(flat.tally.total());
    for (e, interval) in FaultEffect::ALL.into_iter().zip(intervals) {
        let flat_p = flat.tally.fraction(e);
        let ok = interval.contains(flat_p);
        println!(
            "    {:<12} stratified {:.4} vs flat {:.4}  (tolerance {:.4}) {}",
            e.name(),
            interval.estimate,
            flat_p,
            interval.half_width,
            if ok { "ok" } else { "MISMATCH" }
        );
        if !ok {
            failures.push(e.name());
        }
    }
    if failures.is_empty() {
        println!(
            "  validation passed: {} simulated runs reproduced a {}-run flat campaign",
            summary.estimate.simulated, flat_runs
        );
        Ok(())
    } else {
        Err(failed(format!(
            "stratified estimate outside the flat campaign's interval for: {}",
            failures.join(", ")
        )))
    }
}

/// Differential fuzzing from the command line: N seeded random SASS-lite
/// kernels, each executed on both the cycle-level simulator and the
/// functional reference interpreter; the first divergence aborts with the
/// full report and the generated kernel source.
fn cmd_fuzz(args: &Args<'_>) -> Result<(), CliError> {
    let count: u32 = args.parse("--kernels", 100)?;
    let seed: u64 = args.parse("--seed", 1)?;
    for i in 0..count {
        let case = gpufi_sim::oracle::fuzz::gen_case(seed.wrapping_add(u64::from(i)));
        // Generation post-check: the generator promises well-formedness
        // (initialized registers, convergent barriers, race-free shared
        // accesses), so any static-lint finding is a generator bug —
        // report it with the repro source before running the case.
        let module = gpufi_isa::Module::assemble(&case.source).map_err(|e| {
            failed(format!(
                "seed {}: generated source does not assemble: {e}",
                case.seed
            ))
        })?;
        let findings = gpufi_isa::analysis::lint_module(&module);
        if !findings.is_empty() {
            let report: Vec<String> = findings
                .iter()
                .map(|(k, f)| format!("  {k}: [{}] {f}", f.kind()))
                .collect();
            return Err(failed(format!(
                "seed {} generated a kernel the static analyzer rejects:\n{}\nsource:\n{}",
                case.seed,
                report.join("\n"),
                case.source
            )));
        }
        if let Err(report) = gpufi_sim::oracle::fuzz::run_case(&case) {
            return Err(failed(format!(
                "seed {} diverged after {i} clean kernels:\n{report}\nsource:\n{}",
                case.seed, case.source
            )));
        }
    }
    println!(
        "fuzz: {count} random kernels from seed {seed}, lint-clean and sim == oracle on every one"
    );
    Ok(())
}

/// Static analysis from the command line: runs the SASS-lite analyzer
/// (CFG, dominators/post-dominators, liveness and all lint passes) over
/// one benchmark — or the whole paper suite — and reports every finding.
/// Exits nonzero when any kernel is dirty, so CI can gate on it.
fn cmd_lint(args: &Args<'_>) -> Result<(), CliError> {
    let workloads = workloads_of(args)?;
    // A finding plus its source span: the 1-based assembly line the
    // flagged instruction was parsed from and the nearest enclosing label.
    struct Row {
        workload: &'static str,
        kernel: String,
        line: Option<u32>,
        label: Option<String>,
        finding: gpufi_isa::analysis::Finding,
    }
    let mut kernels = 0usize;
    let mut findings: Vec<Row> = Vec::new();
    for w in &workloads {
        for k in w.module().kernels() {
            kernels += 1;
            for f in gpufi_isa::analysis::lint_kernel(k) {
                findings.push(Row {
                    workload: w.name(),
                    kernel: k.name().to_string(),
                    line: k.source_line(f.instr()),
                    label: k.source_label(f.instr()).map(str::to_string),
                    finding: f,
                });
            }
        }
    }
    if args.flag("--json") {
        let rows = findings
            .iter()
            .map(|r| {
                Value::obj([
                    ("workload", r.workload.into()),
                    ("kernel", r.kernel.as_str().into()),
                    ("instr", r.finding.instr().into()),
                    ("line", r.line.map_or(Value::Null, Value::from)),
                    ("label", r.label.as_deref().map_or(Value::Null, Value::from)),
                    ("kind", r.finding.kind().into()),
                    ("message", Value::Str(r.finding.to_string())),
                ])
            })
            .collect();
        let doc = Value::obj([
            ("workloads", workloads.len().into()),
            ("kernels", kernels.into()),
            ("findings", Value::Arr(rows)),
        ]);
        println!("{doc}");
    } else {
        for r in &findings {
            let at = match (r.line, r.label.as_deref()) {
                (Some(l), Some(b)) => format!(" (line {l}, {b}:)"),
                (Some(l), None) => format!(" (line {l})"),
                (None, Some(b)) => format!(" ({b}:)"),
                (None, None) => String::new(),
            };
            println!(
                "{}/{} #{}{at} [{}] {}",
                r.workload,
                r.kernel,
                r.finding.instr(),
                r.finding.kind(),
                r.finding
            );
        }
        println!(
            "lint: {} kernel(s) in {} workload(s), {} finding(s)",
            kernels,
            workloads.len(),
            findings.len()
        );
    }
    if findings.is_empty() {
        Ok(())
    } else {
        Err(failed(format!("{} lint finding(s)", findings.len())))
    }
}

/// Per-kernel bit-granular dataflow report for one benchmark.
struct KernelReport {
    kernel: String,
    cycles: u64,
    regs: u8,
    dead_regs: Vec<u8>,
    /// Statically dead bits across all allocated registers (register-dead
    /// registers contribute all 32 of theirs).
    dead_bits: u32,
    /// `dead_bits / (32 * regs)` — the fraction of this kernel's RF fault
    /// space a bit-granular prune removes.
    bit_fraction: f64,
    reachable_instrs: usize,
    /// Mean statically-known bits per register, averaged over every
    /// reachable instruction's input state (the known-bits lattice).
    mean_known_bits: f64,
}

/// `gpufi analyze`: the static bit-granular dataflow report.  For each
/// kernel of the benchmark (or the whole paper suite) it runs bit-level
/// liveness and the known-bits analysis, and folds the per-kernel dead-bit
/// fractions into the benchmark's **register-file prunable mass** — the
/// probability that a uniformly drawn RF fault is statically dead, i.e.
/// the share of campaign runs `--structure rf` pre-classifies without
/// simulation.  Weighted by golden-run cycles per kernel, matching how the
/// campaign draws injection cycles.
fn cmd_analyze(args: &Args<'_>) -> Result<(), CliError> {
    let workloads = workloads_of(args)?;
    let card = card_of(args)?;
    let json = args.flag("--json");
    let mut bench_rows: Vec<Value> = Vec::new();
    for w in &workloads {
        let golden = profile(w.as_ref(), &card).map_err(failed)?;
        let total_cycles = golden.total_cycles();
        let mut reports: Vec<KernelReport> = Vec::new();
        for k in w.module().kernels() {
            let dead_regs = gpufi_isa::analysis::dead_registers(k);
            let masks = gpufi_isa::analysis::dead_bit_masks(k);
            let regs = k.num_regs();
            let dead_bits: u32 = masks
                .iter()
                .take(regs as usize)
                .map(|m| m.count_ones())
                .sum();
            let bit_fraction = if regs > 0 {
                f64::from(dead_bits) / (32.0 * f64::from(regs))
            } else {
                0.0
            };
            let kb = gpufi_isa::analysis::KnownBitsAnalysis::compute(k);
            let mut reachable = 0usize;
            let mut known_sum = 0u64;
            for i in 0..k.instrs().len() {
                let Some(state) = kb.input(i) else { continue };
                reachable += 1;
                for r in 0..regs {
                    known_sum += u64::from(state.reg(r).known().count_ones());
                }
            }
            let mean_known_bits = if reachable > 0 && regs > 0 {
                known_sum as f64 / (reachable as f64 * f64::from(regs))
            } else {
                0.0
            };
            reports.push(KernelReport {
                kernel: k.name().to_string(),
                cycles: golden.app.cycles_of(k.name()),
                regs,
                dead_regs,
                dead_bits,
                bit_fraction,
                reachable_instrs: reachable,
                mean_known_bits,
            });
        }
        // Cycle-weighted prunable mass over the executed kernels: the
        // campaign draws an injection cycle first, so a kernel's share of
        // the fault population is its share of golden-run cycles.
        let mass = |per_kernel: &dyn Fn(&KernelReport) -> f64| -> f64 {
            if total_cycles == 0 {
                return 0.0;
            }
            reports
                .iter()
                .map(|r| (r.cycles as f64 / total_cycles as f64) * per_kernel(r))
                .sum()
        };
        let reg_mass = mass(&|r| {
            if r.regs > 0 {
                r.dead_regs.len() as f64 / f64::from(r.regs)
            } else {
                0.0
            }
        });
        let bit_mass = mass(&|r| r.bit_fraction);
        if json {
            let krows = reports
                .iter()
                .map(|r| {
                    Value::obj([
                        ("kernel", r.kernel.as_str().into()),
                        ("cycles", r.cycles.into()),
                        ("regs", r.regs.into()),
                        (
                            "dead_regs",
                            Value::Arr(r.dead_regs.iter().map(|&d| d.into()).collect()),
                        ),
                        ("dead_bits", r.dead_bits.into()),
                        ("bit_fraction", Value::Num(format!("{:.6}", r.bit_fraction))),
                        ("reachable_instrs", r.reachable_instrs.into()),
                        (
                            "mean_known_bits_per_reg",
                            Value::Num(format!("{:.4}", r.mean_known_bits)),
                        ),
                    ])
                })
                .collect();
            bench_rows.push(Value::obj([
                ("bench", w.name().into()),
                ("card", card.name.as_str().into()),
                ("golden_cycles", total_cycles.into()),
                ("rf_reg_prunable_mass", Value::Num(format!("{reg_mass:.6}"))),
                ("rf_bit_prunable_mass", Value::Num(format!("{bit_mass:.6}"))),
                ("kernels", Value::Arr(krows)),
            ]));
        } else {
            println!(
                "benchmark: {}  card: {}  golden cycles: {}",
                w.name(),
                card.name,
                total_cycles
            );
            println!(
                "  {:<18} {:>10} {:>5} {:>10} {:>10} {:>9} {:>10} {:>11}",
                "kernel",
                "cycles",
                "regs",
                "dead regs",
                "dead bits",
                "bit frac",
                "reachable",
                "known b/reg"
            );
            for r in &reports {
                println!(
                    "  {:<18} {:>10} {:>5} {:>10} {:>10} {:>8.1}% {:>10} {:>11.2}",
                    r.kernel,
                    r.cycles,
                    r.regs,
                    r.dead_regs.len(),
                    r.dead_bits,
                    100.0 * r.bit_fraction,
                    r.reachable_instrs,
                    r.mean_known_bits,
                );
            }
            println!(
                "  rf prunable mass: {:.2}% register-level, {:.2}% bit-level",
                100.0 * reg_mass,
                100.0 * bit_mass
            );
        }
    }
    if json {
        println!("{}", Value::obj([("benchmarks", Value::Arr(bench_rows))]));
    }
    Ok(())
}

fn cmd_avf(args: &Args<'_>) -> Result<(), CliError> {
    let workload = workload_of(args)?;
    let card = card_of(args)?;
    let runs: usize = args.parse("--runs", 60)?;
    let seed: u64 = args.parse("--seed", 1)?;
    let bits = bits_of(args)?;
    let threads: usize = args.parse("--threads", 0)?;
    let mut cfg = AnalysisConfig::new(runs, seed).bits(bits);
    cfg.threads = threads;
    let golden = profile(workload.as_ref(), &card).map_err(failed)?;
    let analysis = analyze_with_golden(workload.as_ref(), &card, &cfg, &golden).map_err(failed)?;
    println!(
        "benchmark: {}  card: {}  ({} runs per kernel x structure, {}-bit faults)",
        analysis.benchmark, analysis.card, analysis.runs_per_campaign, analysis.bits_per_fault
    );
    println!(
        "{:<18} {:>14} {:>10} {:>10} {:>10} {:>10}",
        "structure", "size (bits)", "SDC", "Crash", "Timeout", "Perf"
    );
    for s in &analysis.structures {
        println!(
            "{:<18} {:>14} {:>10.5} {:>10.5} {:>10.5} {:>10.5}",
            s.structure.name(),
            s.size_bits,
            s.rates.sdc,
            s.rates.crash,
            s.rates.timeout,
            s.rates.performance
        );
    }
    println!();
    println!("wAVF (eq. 3):      {:.6}", analysis.wavf);
    println!("occupancy:         {:.4}", analysis.occupancy);
    println!("chip FIT (\u{00a7}VI.F): {:.4}", analysis.fit);
    if let Some(path) = args.value("--csv") {
        let csv = gpufi_core::analysis_csv(&analysis);
        std::fs::write(path, csv).map_err(|e| failed(format!("cannot write {path}: {e}")))?;
        println!("per-structure table written to {path}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    /// The message `gpufi <v...>` fails with.
    fn fail(v: &[&str]) -> String {
        run(&args(v)).unwrap_err().to_string()
    }

    #[test]
    fn flag_parser() {
        let argv = args(&["--bench", "VA", "--runs", "50", "--spread"]);
        let a = Args::new("campaign", &argv).unwrap();
        assert_eq!(a.value("--bench"), Some("VA"));
        assert_eq!(a.parse("--runs", 10usize).unwrap(), 50);
        assert_eq!(a.parse("--seed", 7u64).unwrap(), 7);
        assert!(a.flag("--spread"));
        assert!(!a.flag("--missing"));
        assert!(a.parse::<usize>("--bench", 0).is_err());
    }

    /// One walk parses the line: a value flag never takes the flag after
    /// it as its value (`--csv --no-journal` must not name the CSV
    /// `--no-journal` and disable the journal too), and no flag is given
    /// twice.
    #[test]
    fn value_flags_never_swallow_flags_and_flags_are_given_once() {
        let parse = |line: &str| {
            let argv = args(&line.split_whitespace().collect::<Vec<_>>());
            Args::new("campaign", &argv).map(|a| a.given.len())
        };
        for (line, err) in [
            ("--runs 5 --csv --no-journal", "--csv needs a value"),
            ("--kernel --spread", "--kernel needs a value"),
            ("--csv --journal x", "--csv needs a value"),
            ("--runs 5 --runs 6", "--runs given twice"),
            ("--spread --seed 1 --spread", "--spread given twice"),
        ] {
            assert_eq!(parse(line), Err(err.to_string()), "{line}");
        }
        // A value that merely looks like a flag is still a value.
        assert_eq!(parse("--csv --out.csv --no-journal"), Ok(2));
        let err = fail(&[
            "campaign",
            "--bench",
            "VA",
            "--structure",
            "rf",
            "--csv",
            "--no-journal",
        ]);
        assert!(err.contains("--csv needs a value"), "{err}");
    }

    #[test]
    fn fault_widths_and_sampling_validation_are_checked() {
        let va = [
            "campaign",
            "--bench",
            "VA",
            "--structure",
            "rf",
            "--runs",
            "2",
        ];
        let with = |extra: &[&str]| fail(&[&va[..], extra].concat());
        assert!(with(&["--bits", "0"]).contains("at least one bit"));
        let err = with(&["--bits", "33"]);
        assert!(err.contains("at most 32 bits"), "{err}");
        let err = with(&["--validate-sampling", "--sampling", "flat"]);
        assert!(err.contains("--validate-sampling"), "{err}");
        let err = fail(&["avf", "--bench", "VA", "--runs", "1", "--bits", "40"]);
        assert!(err.contains("at most 32 bits"), "{err}");
    }

    #[test]
    fn only_argument_errors_reprint_the_usage() {
        let cli = |line: &str| run(&args(&line.split_whitespace().collect::<Vec<_>>()));
        let va = "campaign --bench VA --structure rf";
        for line in [
            String::new(),
            "frobnicate".into(),
            "campaign --bench VA".into(),
            format!("{va} --run 5"),
            format!("{va} --runs x"),
            format!("{va} --runs"),
            format!("{va} --no-bit-prune"),
            "campaign --bench VA --structure dram".into(),
        ] {
            assert!(matches!(cli(&line), Err(CliError::Usage(_))), "{line}");
        }
        // Understood, then failed: the one-line cause must stay on screen.
        let journal = std::env::temp_dir().join(format!("gpufi-cli-{}.jsonl", std::process::id()));
        let journaled = format!("{va} --runs 4 --journal {} --seed", journal.display());
        cli(&format!("{journaled} 1")).unwrap();
        let config = std::env::temp_dir().join(format!("gpufi-cli-{}.config", std::process::id()));
        std::fs::write(&config, "base = rtx2060\nl1d = 32768:4:64\n").unwrap();
        let overflow = std::env::temp_dir().join(format!("gpufi-cli-{}.big", std::process::id()));
        std::fs::write(&overflow, "l1d = 65536:65536:65536\n").unwrap();
        for (line, cause) in [
            (
                format!("{va} --sampling stratified --fault-model stuck-at-0"),
                "cannot be stratified",
            ),
            (format!("{journaled} 2 --resume"), "different campaign"),
            // Used to "succeed" and report the n = 1 margin (±128.79 %).
            (format!("{va} --runs 0"), "at least one run"),
            // Used to panic in `MemSystem::new` with a backtrace.
            (
                format!("profile --bench VA --config {}", config.display()),
                "they must match",
            ),
            // Used to panic on `ways × line_bytes` overflowing `u32`.
            (
                format!("profile --bench VA --config {}", overflow.display()),
                "not divisible",
            ),
        ] {
            match cli(&line) {
                Err(CliError::Failed(msg)) => assert!(msg.contains(cause), "{line}: {msg}"),
                other => panic!("{line}: expected a runtime failure, got {other:?}"),
            }
        }
        std::fs::remove_file(journal).ok();
        std::fs::remove_file(config).ok();
        std::fs::remove_file(overflow).ok();
    }

    /// Each USAGE synopsis, with `[campaign flags]` spelled out, lists
    /// exactly the flags its command accepts; a flag whose token closes
    /// its bracket (`[--spread]`) takes no value, any other does.
    #[test]
    fn usage_synopses_list_exactly_the_accepted_flags() {
        use std::collections::BTreeSet;
        let listed = |text: &str| -> BTreeSet<(String, bool)> {
            text.split_whitespace()
                .map(|t| t.trim_start_matches('['))
                .filter(|t| t.starts_with("--"))
                .map(|t| (t.trim_end_matches(']').to_string(), !t.ends_with(']')))
                .collect()
        };
        let (synopses, rest) = USAGE.split_once("\n\n").unwrap();
        let (_, group) = rest.split_once("campaign flags").unwrap();
        let (group, _) = group.split_once("\n\n").unwrap();
        let mut commands = 0;
        for synopsis in synopses.split("\n  gpufi ").skip(1) {
            let (cmd, flags) = synopsis.split_once(' ').unwrap_or((synopsis, ""));
            let want: BTreeSet<(String, bool)> = accepted(cmd)
                .into_iter()
                .map(|(f, v)| (f.to_string(), v))
                .collect();
            let got = listed(&flags.replace("[campaign flags]", group));
            assert_eq!(got, want, "`gpufi {cmd}` synopsis vs the flags it accepts");
            commands += 1;
        }
        let rows = COMMAND_FLAGS.lines().filter(|l| !l.starts_with('['));
        assert_eq!(commands, rows.count(), "one synopsis per command");
    }

    #[test]
    fn structure_aliases() {
        assert_eq!(Structure::parse("rf"), Some(Structure::RegisterFile));
        assert_eq!(Structure::parse("L1D"), Some(Structure::L1Data));
        assert_eq!(Structure::parse("const"), Some(Structure::L1Const));
        assert_eq!(Structure::parse("simt-stack"), Some(Structure::SimtStack));
        assert_eq!(Structure::parse("sched"), Some(Structure::Sched));
        assert_eq!(Structure::parse("scoreboard"), Some(Structure::Scoreboard));
        assert_eq!(Structure::parse("dram"), None);
        // USAGE's `structures:` lines spell the table, in table order.
        let (_, rest) = USAGE.split_once("structures:").unwrap();
        let (listed, _) = rest.split_once("\n\n").unwrap();
        let listed: Vec<&str> = listed
            .split(|c: char| c.is_whitespace() || c == '|')
            .take_while(|word| !word.starts_with('('))
            .filter(|word| !word.is_empty())
            .collect();
        let table: Vec<&str> = Structure::ALL
            .iter()
            .chain(&Structure::CONTROL)
            .map(|s| s.cli_name())
            .collect();
        assert_eq!(listed, table);
    }

    #[test]
    fn fault_model_flag_is_validated() {
        // An unknown model must fail loudly, with the choices listed.
        let err = fail(&[
            "campaign",
            "--bench",
            "VA",
            "--structure",
            "rf",
            "--fault-model",
            "stuck-at-2",
        ]);
        assert!(err.contains("unknown fault model `stuck-at-2`"), "{err}");
        // Stratified sampling is transient-only; a stuck-at campaign must
        // be refused before any run executes.
        let err = fail(&[
            "campaign",
            "--bench",
            "VA",
            "--structure",
            "rf",
            "--fault-model",
            "stuck-at-1",
            "--sampling",
            "stratified",
        ]);
        assert!(err.contains("cannot be stratified"), "{err}");
    }

    #[test]
    fn card_resolution() {
        let argv = args(&["--card", "titan"]);
        let a = Args::new("profile", &argv).unwrap();
        assert_eq!(card_of(&a).unwrap().name, "GTX Titan");
        let argv = args(&[]);
        let a = Args::new("profile", &argv).unwrap();
        assert_eq!(card_of(&a).unwrap().name, "RTX 2060");
        let argv = args(&["--card", "amd"]);
        let a = Args::new("profile", &argv).unwrap();
        assert!(card_of(&a).is_err());
        let argv = args(&["--config", "/nonexistent/x.config"]);
        let a = Args::new("profile", &argv).unwrap();
        assert!(card_of(&a).unwrap_err().to_string().contains("cannot read"));
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(run(&args(&["frobnicate"])).is_err());
        assert!(run(&args(&["list"])).is_ok());
        assert!(
            run(&args(&["campaign", "--bench", "VA"])).is_err(),
            "missing --structure"
        );
    }

    #[test]
    fn unknown_flags_are_rejected() {
        // A typo like `--run` must not silently fall back to the default.
        let err = fail(&[
            "campaign",
            "--bench",
            "VA",
            "--structure",
            "rf",
            "--run",
            "5",
        ]);
        assert!(err.contains("unknown flag `--run`"), "{err}");
        let err = fail(&["profile", "--bench", "VA", "--oracle-check"]);
        assert!(err.contains("unknown flag `--oracle-check`"), "{err}");
        let err = fail(&["fuzz", "--bench", "VA"]);
        assert!(err.contains("unknown flag `--bench`"), "{err}");
        // A value flag at the end of the line is missing its value.
        let err = fail(&["fuzz", "--kernels"]);
        assert!(err.contains("needs a value"), "{err}");
    }

    #[test]
    fn runs_defaults_when_absent() {
        let argv = args(&["--bench", "VA"]);
        let a = Args::new("campaign", &argv).unwrap();
        assert_eq!(a.parse("--runs", 120usize).unwrap(), 120);
        let argv = args(&["--bench", "VA", "--runs", "37"]);
        let a = Args::new("campaign", &argv).unwrap();
        assert_eq!(a.parse("--runs", 120usize).unwrap(), 37);
        let argv = args(&["--runs", "not-a-number"]);
        let a = Args::new("campaign", &argv).unwrap();
        assert!(a.parse::<usize>("--runs", 120).is_err());
    }

    #[test]
    fn config_takes_precedence_over_card() {
        // When both are given, --config wins: the unreadable file errors
        // even though the --card preset is valid.
        let argv = args(&["--config", "/nonexistent/x.config", "--card", "titan"]);
        let a = Args::new("profile", &argv).unwrap();
        assert!(card_of(&a).unwrap_err().to_string().contains("cannot read"));
        // A readable config file resolves to its own chip, not the preset.
        let dir = std::env::temp_dir().join("gpufi-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("precedence.config");
        std::fs::write(&path, "base = rtx2060\nname = Config File Chip\n").unwrap();
        let path_s = path.to_str().unwrap().to_string();
        let argv = args(&["--config", path_s.as_str(), "--card", "titan"]);
        let a = Args::new("profile", &argv).unwrap();
        assert_eq!(card_of(&a).unwrap().name, "Config File Chip");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fuzz_smoke_runs_clean() {
        assert!(run(&args(&["fuzz", "--kernels", "5", "--seed", "99"])).is_ok());
    }

    #[test]
    fn serve_rejects_oracle_check_and_worker_needs_connect() {
        let err = fail(&[
            "serve",
            "--bench",
            "VA",
            "--structure",
            "rf",
            "--oracle-check",
        ]);
        assert!(err.contains("--oracle-check"), "{err}");
        let err = fail(&["worker", "--bench", "VA", "--structure", "rf"]);
        assert!(err.contains("--connect is required"), "{err}");
        // A worker never owns the journal; the flag must be refused.
        let err = fail(&[
            "worker",
            "--bench",
            "VA",
            "--structure",
            "rf",
            "--connect",
            "127.0.0.1:1",
            "--journal",
            "x.jsonl",
        ]);
        assert!(err.contains("unknown flag `--journal`"), "{err}");
        // Lease size and deadline are the coordinator's to set.
        for flag in ["--lease-size", "--deadline-ms"] {
            let err = fail(&[
                "worker",
                "--bench",
                "VA",
                "--structure",
                "rf",
                "--connect",
                "127.0.0.1:1",
                flag,
                "5",
            ]);
            assert!(err.contains(&format!("unknown flag `{flag}`")), "{err}");
        }
    }

    #[test]
    fn serve_with_local_workers_runs_a_campaign() {
        // End-to-end through the CLI: an ephemeral port, two in-process
        // workers, the distributed GE-style summary printed like a serial
        // campaign's.
        assert!(run(&args(&[
            "serve",
            "--bench",
            "VA",
            "--structure",
            "rf",
            "--runs",
            "12",
            "--seed",
            "3",
            "--bind",
            "127.0.0.1:0",
            "--local-workers",
            "2",
            "--lease-size",
            "2",
        ]))
        .is_ok());
    }

    #[test]
    fn lint_smoke_suite_is_clean() {
        assert!(run(&args(&["lint"])).is_ok());
        assert!(run(&args(&["lint", "--bench", "VA"])).is_ok());
        assert!(run(&args(&["lint", "--bench", "VA", "--json"])).is_ok());
        assert!(run(&args(&["lint", "--bench", "nope"])).is_err());
        let err = fail(&["lint", "--card", "titan"]);
        assert!(err.contains("unknown flag"), "{err}");
    }
}
