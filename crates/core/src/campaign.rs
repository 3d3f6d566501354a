//! The injection-campaign controller (the paper's front-end loop, §V.B).

use crate::classify::{classify, detail_of, RunDetail};
use crate::json::Value;
use crate::profile::GoldenProfile;
use crate::sampling::{SamplingMode, SamplingSummary, StrataLayout};
use crate::supervisor::{
    catch_run, describe, strata_hash, JournalSink, JournalWriter, RunJournal, Spelling,
};
use crate::workload::{Workload, WorkloadError};
use gpufi_faults::{CampaignSpec, DrawError, MaskGenerator, Structure};
use gpufi_isa::analysis::dead_bit_masks;
use gpufi_metrics::{proportional_allocation, stratified_estimate, StratumObservation};
use gpufi_metrics::{FaultEffect, Tally};
use gpufi_sim::rng::{splitmix64, GAMMA};
use gpufi_sim::{
    CheckpointStore, FaultTarget, Gpu, GpuConfig, InjectionPlan, KernelWindow, SettledEffect, Trap,
    GLOBAL_BASE,
};
use std::collections::{BTreeMap, VecDeque};
use std::error::Error;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Memory budget for the checkpoint store: the recorder drops every other
/// snapshot and doubles its stride rather than exceed it.
pub const DEFAULT_CHECKPOINT_BUDGET: usize = 256 * 1024 * 1024;

/// Checkpoint stride target: the stride is the golden cycle count divided
/// by this, so a full-length store holds about this many snapshots (fewer
/// once the budget bites).
const AUTO_CHECKPOINT_TARGET: u64 = 24;

/// Configuration of one injection campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignConfig {
    /// The fault shape (structure, bits, scope, …).
    pub spec: CampaignSpec,
    /// Number of injection runs (the paper uses 3 000 per campaign).
    pub runs: usize,
    /// Campaign seed; each run derives its own generator seed from it.
    pub seed: u64,
    /// Target static kernel, or `None` to sample the whole application.
    pub kernel: Option<String>,
    /// Worker threads (0 = autodetect).
    pub threads: usize,
    /// Differential-oracle validation mode (`--oracle-check`): the golden
    /// run executes in lockstep with the functional reference interpreter
    /// (any divergence aborts the campaign); every run is then resolved
    /// exactly as without this flag — so records, CSV and journal are the
    /// default engine's — and re-run as the reference, a cold, fully
    /// simulated, unpruned run, which must agree with the record (see
    /// [`CampaignStats::oracle_mismatches`]).  A run a shortcut resolved
    /// must also end the reference in the oracle's global-memory image.
    pub oracle_check: bool,
    /// Path of the crash-safe run journal (`<out>.journal.jsonl`): one
    /// fsync'd JSON line per completed run, written incrementally by the
    /// workers.  `None` disables journaling.
    pub journal: Option<String>,
    /// Resume from an existing journal at [`CampaignConfig::journal`]:
    /// check that its header describes this campaign (an error names the
    /// first parameter that differs), load the completed records and schedule
    /// only the missing run indices.  The resumed campaign's records and
    /// `Tally` are bit-identical to an uninterrupted run's.  When the
    /// journal file does not exist the campaign simply starts fresh.
    pub resume: bool,
    /// How runs are drawn from the fault population (`--sampling`):
    /// [`SamplingMode::Flat`] simulates every drawn run; with
    /// [`SamplingMode::Stratified`] the budget covers only the
    /// liveness-interval live strata, the analytically-masked mass is
    /// classified without simulation, and [`CampaignResult::sampling`]
    /// carries the reweighted estimate (register-file campaigns only).
    pub sampling: SamplingMode,
}

impl CampaignConfig {
    /// A whole-application campaign with the given fault shape.
    pub fn new(spec: CampaignSpec, runs: usize, seed: u64) -> Self {
        CampaignConfig {
            spec,
            runs,
            seed,
            kernel: None,
            threads: 0,
            oracle_check: false,
            journal: None,
            resume: false,
            sampling: SamplingMode::Flat,
        }
    }

    /// Restricts injections to all invocations of one static kernel.
    pub fn for_kernel(mut self, kernel: impl Into<String>) -> Self {
        self.kernel = Some(kernel.into());
        self
    }

    /// Sets the number of worker threads.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enables differential-oracle validation (see
    /// [`CampaignConfig::oracle_check`]).
    pub fn with_oracle_check(mut self) -> Self {
        self.oracle_check = true;
        self
    }

    /// Enables the crash-safe run journal at `path`.
    pub fn with_journal(mut self, path: impl Into<String>) -> Self {
        self.journal = Some(path.into());
        self
    }

    /// Resumes from the journal configured via [`CampaignConfig::with_journal`].
    pub fn with_resume(mut self) -> Self {
        self.resume = true;
        self
    }

    /// Enables liveness-interval stratified sampling (see
    /// [`CampaignConfig::sampling`]).
    pub fn stratified(mut self) -> Self {
        self.sampling = SamplingMode::Stratified;
        self
    }

    fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }
}

/// The outcome of one injection run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunRecord {
    /// The classified fault effect.
    pub effect: FaultEffect,
    /// Total cycles of the (possibly aborted) run.
    pub cycles: u64,
    /// Whether the fault actually changed state (e.g. cache flips on
    /// invalid lines change nothing).
    pub applied: bool,
    /// Whether the run was cut short because every fault's lifetime ended,
    /// or because its state reconverged with a later golden checkpoint
    /// ([`RunDetail::Reconverged`]); always classified **Masked** with the
    /// golden cycle count.
    pub early_exit: bool,
    /// Golden-run cycles skipped by forking from a checkpoint instead of
    /// cold-starting (`0` = cold start).
    pub ckpt_skipped_cycles: u64,
    /// Sub-classification of the outcome: which trap kind a Crash was,
    /// which watchdog a Timeout was, or [`RunDetail::SimPanic`] for a run
    /// the supervisor gave up on after a reproducible simulator panic.
    pub detail: RunDetail,
    /// Index of the live stratum this run was drawn from, or `None` in a
    /// flat campaign (the trailing `stratum` CSV/journal column).
    pub stratum: Option<u32>,
}

/// The rung of the resolution ladder that resolved one run in this
/// invocation — what its [`RunRecord`] cannot say.  How a simulated run
/// ended (taint exit, reconvergence, `sim_panic`) and whether it forked
/// stay in the record's `early_exit`, `detail` and `ckpt` columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// Loaded from the journal on `--resume`, not executed.
    Journal,
    /// Pre-classified Masked from the static dead-bit masks.
    PreClassified,
    /// Settled by the checkpoint store ([`CheckpointStore::settle`]).
    Settled,
    /// Simulated, forked or cold, to its end, an early exit or `sim_panic`.
    Simulated,
}

impl Rung {
    /// The rung's name on the wire.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Rung::Journal => "journal",
            Rung::PreClassified => "pre_classified",
            Rung::Settled => "settled",
            Rung::Simulated => "simulated",
        }
    }
}

/// Throughput of one distributed worker, as observed by the coordinator
/// (the lease-merge side, so network latency is included).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WorkerThroughput {
    /// Coordinator-assigned worker id (connection order).
    pub worker: u32,
    /// Runs this worker was the first to complete (duplicates from
    /// reissued leases are credited to whoever merged first).
    pub runs: usize,
    /// Leases granted to this worker.
    pub leases: usize,
    /// Merged runs per second between this worker's handshake and its
    /// last merge.
    pub runs_per_sec: f64,
}

/// Wall-clock throughput and fault-behaviour statistics of one campaign.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CampaignStats {
    /// Total wall-clock time of the campaign, in milliseconds.
    pub wall_ms: f64,
    /// Injection runs completed per second of wall-clock time.
    pub runs_per_sec: f64,
    /// Worker threads that executed the campaign.
    pub threads: usize,
    /// Runs whose fault actually changed machine state.
    pub applied: usize,
    /// `applied / runs`.
    pub applied_rate: f64,
    /// Runs cut short by fault-lifetime early exit or by reconvergence.
    pub early_exits: usize,
    /// `early_exits / runs`.
    pub early_exit_rate: f64,
    /// Early exits at a golden checkpoint the run's state reconverged
    /// with ([`RunDetail::Reconverged`]), counted among
    /// [`CampaignStats::early_exits`].
    pub reconverged: usize,
    /// Snapshots held in the checkpoint store (0 when every run was
    /// loaded from the journal).
    pub checkpoints: usize,
    /// Heap bytes the checkpoint store holds, each shared cache chunk
    /// counted once ([`CheckpointStore::held_bytes`]).
    pub checkpoint_bytes: usize,
    /// Runs that forked from a checkpoint instead of cold-starting.
    pub restores: usize,
    /// Runs the checkpoint store settled without a simulation, cold
    /// starts included ([`Rung::Settled`]).  Their records are their
    /// forks' (or cold starts'), so `early_exits` and `restores` count
    /// them as those.
    pub settled: usize,
    /// Mean golden-run cycles skipped per run by checkpoint forking.
    pub mean_skipped_cycles: f64,
    /// Runs compared with their cold full-simulation reference
    /// (`--oracle-check`; `sim_panic` runs are not compared).
    pub oracle_checked: usize,
    /// Checked runs the ladder did not simulate to their end —
    /// pre-classified, settled, or cut short by early exit or
    /// reconvergence — whose verdict the reference confirmed, final
    /// global-memory image included.
    pub oracle_verified: usize,
    /// Checked runs whose record disagrees with the reference: effect or
    /// cycles differ, `applied` differs on a simulated run, or a shortcut's
    /// reference did not end in the oracle's image.  Must be zero.
    pub oracle_mismatches: usize,
    /// Run attempts that ended in a simulator-internal panic (caught and
    /// isolated by the supervisor; a run that panics on both its first
    /// attempt and its retry counts twice).
    pub panics: usize,
    /// Panicked runs the supervisor re-executed once, to distinguish
    /// deterministic poison runs from incidental failures.
    pub retries: usize,
    /// Register-file runs pre-classified Masked at the golden cycle count,
    /// never simulated, because every fault hit a register no reachable
    /// instruction of the faulted kernel reads (ACE-style pruning over
    /// `gpufi_isa::analysis::dead_bit_masks`; none under stratified
    /// sampling, whose dead mass is resolved analytically).
    pub static_pruned: usize,
    /// `static_pruned / runs`.
    pub static_pruned_rate: f64,
    /// Runs pre-classified Masked at bit granularity — live register,
    /// every flipped bit one no reachable instruction demands — and never
    /// simulated (transient models only).  Disjoint from
    /// [`CampaignStats::static_pruned`].
    pub static_bit_pruned: usize,
    /// `static_bit_pruned / runs`.
    pub static_bit_pruned_rate: f64,
    /// Completed runs loaded from the journal instead of executed
    /// (`--resume`, [`Rung::Journal`]).
    pub resumed: usize,
    /// Bytes appended to the run journal by this campaign (0 = journaling
    /// off).
    pub journal_bytes: u64,
    /// Wall-clock milliseconds spent writing and fsyncing journal lines —
    /// the journal's overhead, reported so regressions are visible.
    pub journal_ms: f64,
    /// Runs this invocation simulated ([`Rung::Simulated`]): neither
    /// loaded from the journal, pre-classified (none is under stratified
    /// sampling) nor settled by the checkpoint store.
    pub simulated_runs: usize,
    /// Runs' worth of flat-campaign coverage this campaign bought: the run
    /// count itself for a flat campaign (pruned runs are still classified
    /// runs), `runs / live_weight` for a stratified campaign, whose budget
    /// covers only the live fraction of the population.
    pub effective_runs: f64,
    /// [`CampaignStats::simulated_runs`] per second of wall-clock time —
    /// the cost-side throughput.
    pub sim_runs_per_sec: f64,
    /// [`CampaignStats::effective_runs`] per second of wall-clock time —
    /// the coverage-side throughput the sampling optimizations improve.
    pub effective_runs_per_sec: f64,
    /// Distributed campaigns only: workers that completed the handshake
    /// (0 = single-process campaign).
    pub workers: usize,
    /// Distributed campaigns only: leases granted, including reissues.
    pub leases: usize,
    /// Distributed campaigns only: leases reclaimed from a dead, stalled
    /// or misbehaving worker and granted again.
    pub reissued_leases: usize,
    /// Distributed campaigns only: run completions discarded because an
    /// earlier ack (from a reissued lease's original owner, or a
    /// duplicated frame) already filled the slot.
    pub duplicate_acks: usize,
    /// Distributed campaigns only: per-worker merge throughput, in
    /// worker-id order.
    pub worker_throughput: Vec<WorkerThroughput>,
}

/// The aggregated result of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// The fault shape that was injected.
    pub spec: CampaignSpec,
    /// The targeted kernel (`None` = whole application).
    pub kernel: Option<String>,
    /// Aggregated fault-effect counts.
    pub tally: Tally,
    /// Per-run records, in run order.
    pub records: Vec<RunRecord>,
    /// The rung that resolved each run, in run order (excluded from
    /// equality: a resumed campaign loads what another one executed).
    pub rungs: Vec<Rung>,
    /// Throughput and fault-behaviour statistics (excluded from equality:
    /// two identical campaigns differ in wall-clock time).
    pub stats: CampaignStats,
    /// Stratified-sampling layout, allocation and reweighted estimate
    /// (`None` in flat campaigns).  Excluded from equality along with
    /// `stats`: the records already determine it.
    pub sampling: Option<SamplingSummary>,
}

impl PartialEq for CampaignResult {
    fn eq(&self, other: &Self) -> bool {
        self.spec == other.spec
            && self.kernel == other.kernel
            && self.tally == other.tally
            && self.records == other.records
    }
}

/// Why a campaign could not run.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignError {
    /// The campaign asks for zero runs, which would estimate every class
    /// rate, and so the AVF and FIT, as zero.
    NoRuns,
    /// The mask generator could not draw a fault (empty structure or
    /// windows).
    Draw(DrawError),
    /// The targeted kernel never executed in the golden run.
    UnknownKernel(String),
    /// The lockstep golden run diverged from the reference interpreter —
    /// the simulator itself (not an injection) is functionally wrong.
    OracleDivergence(String),
    /// The run journal could not be created, read or appended, or the
    /// journal on disk belongs to a different campaign (the message names
    /// the first parameter that differs).
    Journal(String),
    /// A supervisor invariant broke: the workers finished without
    /// producing a record for these run indices.  Reported instead of
    /// panicking so the caller sees *which* runs went missing.
    Internal(Vec<usize>),
    /// Stratified sampling cannot be set up for this campaign: the
    /// structure is not the register file, the window leaves no live
    /// strata, or the run budget is smaller than the stratum count.
    Sampling(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::NoRuns => write!(f, "a campaign needs at least one run"),
            CampaignError::Draw(e) => write!(f, "cannot draw fault: {e}"),
            CampaignError::UnknownKernel(k) => write!(f, "kernel `{k}` not in golden profile"),
            CampaignError::OracleDivergence(d) => write!(f, "oracle check failed: {d}"),
            CampaignError::Journal(e) => write!(f, "run journal: {e}"),
            CampaignError::Internal(missing) => write!(
                f,
                "internal supervisor error: no record for run indices {missing:?}"
            ),
            CampaignError::Sampling(e) => write!(f, "stratified sampling: {e}"),
        }
    }
}

impl Error for CampaignError {}

impl From<DrawError> for CampaignError {
    fn from(e: DrawError) -> Self {
        CampaignError::Draw(e)
    }
}

/// Derives the per-run generator seed: the `run_idx`-th output of a
/// splitmix64 stream started at `seed`.  The full-avalanche finalizer keeps
/// every (seed, run) pair distinct — unlike the previous
/// `seed * C ^ run_idx` mix, which collapsed all runs of seed 0 onto the
/// bare run index (and made seed 0 share masks with seed 1).
pub(crate) fn mix_seed(seed: u64, run_idx: u64) -> u64 {
    splitmix64(&mut seed.wrapping_add(run_idx.wrapping_mul(GAMMA)))
}

/// One pre-drawn injection run: its fault plan, the cycle of its earliest
/// fault (the fork point bound), and the static kernel the faults land in
/// (the pre-classifier's lookup key).  Crate-visible so distributed
/// workers replay exactly the plans the coordinator partitioned.
#[derive(Debug, Clone)]
pub(crate) struct RunPlan {
    plan: InjectionPlan,
    first_cycle: u64,
    kernel: String,
    /// Live-stratum index the run was allocated to (stratified campaigns).
    stratum: Option<u32>,
}

impl RunPlan {
    fn new(plan: InjectionPlan, kernel: String, stratum: Option<u32>) -> Self {
        RunPlan {
            first_cycle: plan.faults.iter().map(|f| f.cycle).min().unwrap_or(0),
            plan,
            kernel,
            stratum,
        }
    }
}

/// Draws every run's injection plan up front.
///
/// The window set and the per-kernel fault-space lookups are campaign
/// invariants — computing them here (once) instead of inside every run
/// also moves all fallible work ahead of the worker threads, so the run
/// loop itself cannot fail.
fn draw_plans(cfg: &CampaignConfig, golden: &GoldenProfile) -> Result<Vec<RunPlan>, CampaignError> {
    let windows: Vec<KernelWindow> = golden.windows(cfg.kernel.as_deref());
    if windows.is_empty() {
        return Err(match &cfg.kernel {
            Some(k) => CampaignError::UnknownKernel(k.clone()),
            None => CampaignError::Draw(DrawError::EmptyWindows),
        });
    }
    let kernel_space = match &cfg.kernel {
        Some(k) => Some(
            golden
                .fault_spaces
                .get(k)
                .ok_or_else(|| CampaignError::UnknownKernel(k.clone()))?,
        ),
        None => None,
    };

    let mut plans = Vec::with_capacity(cfg.runs);
    for run_idx in 0..cfg.runs as u64 {
        // Derive a per-run generator so results are independent of both
        // the thread interleaving and the execution order.
        let mut gen = MaskGenerator::new(mix_seed(cfg.seed, run_idx));
        // For whole-application campaigns, the per-kernel fault space
        // follows the drawn cycle's kernel; approximate by drawing the
        // window first.
        let (plan, kernel) = match kernel_space {
            Some(space) => (
                gen.draw(&cfg.spec, space, &windows)?,
                cfg.kernel.clone().expect("kernel_space implies a kernel"),
            ),
            None => {
                let w = pick_weighted(&mut gen, &windows)?;
                let space = golden
                    .fault_spaces
                    .get(&w.kernel)
                    .ok_or_else(|| CampaignError::UnknownKernel(w.kernel.clone()))?;
                (
                    gen.draw(&cfg.spec, space, std::slice::from_ref(w))?,
                    w.kernel.clone(),
                )
            }
        };
        plans.push(RunPlan::new(plan, kernel, None));
    }
    Ok(plans)
}

/// A stratified campaign's strata layout, per-stratum run allocation and
/// the hash of both (the campaign description's `strata` member, reported
/// in the [`SamplingSummary`]).
type Strata = (StrataLayout, Vec<usize>, u64);

/// Draws every run of a stratified campaign: builds the liveness-interval
/// strata, splits the budget proportionally to the stratum weights, and
/// draws each run's fault *within* its stratum (the stratum's register,
/// a cycle uniform over its live segments).
///
/// Run indices are assigned to strata in layout order by prefix sums and
/// each run's generator still derives from `mix_seed(seed, run_idx)`, so
/// the draw stays independent of thread count and execution order, and a
/// resumed campaign reproduces it bit for bit.
fn draw_stratified_plans(
    workload: &dyn Workload,
    cfg: &CampaignConfig,
    golden: &GoldenProfile,
) -> Result<(Vec<RunPlan>, Strata), CampaignError> {
    if cfg.spec.structure != Structure::RegisterFile {
        return Err(CampaignError::Sampling(format!(
            "structure {:?} has no liveness intervals; stratified sampling targets the register \
             file",
            cfg.spec.structure
        )));
    }
    if cfg.spec.model.is_permanent() {
        // Liveness-interval strata weight faults by *transient* lifetimes:
        // a bit flipped outside a live interval is provably masked.  A
        // stuck-at fault re-pins on every write for the rest of the run, so
        // that masking argument (and the analytic masked mass) does not
        // hold — permanent-model campaigns must sample flat.
        return Err(CampaignError::Sampling(format!(
            "fault model `{}` cannot be stratified: liveness strata assume transient \
             single-cycle lifetimes; use --sampling flat",
            cfg.spec.model
        )));
    }
    let layout = StrataLayout::build(workload, golden, cfg.kernel.as_deref(), None)
        .map_err(CampaignError::Sampling)?;
    if layout.strata.is_empty() {
        return Err(CampaignError::Sampling(
            "every register is provably masked in this window; nothing to simulate".into(),
        ));
    }
    if cfg.runs < layout.strata.len() {
        return Err(CampaignError::Sampling(format!(
            "budget of {} runs cannot cover {} live strata; raise --runs or restrict --kernel",
            cfg.runs,
            layout.strata.len()
        )));
    }
    let weights: Vec<f64> = layout.strata.iter().map(|s| s.weight).collect();
    let allocation = proportional_allocation(&weights, cfg.runs);
    let mut plans = Vec::with_capacity(cfg.runs);
    for (s, (stratum, &n)) in layout.strata.iter().zip(&allocation).enumerate() {
        for _ in 0..n {
            let run_idx = plans.len() as u64;
            let mut gen = MaskGenerator::new(mix_seed(cfg.seed, run_idx));
            let plan = gen
                .draw_register_stratum(&cfg.spec, &stratum.segments, stratum.reg)
                .map_err(CampaignError::Draw)?;
            plans.push(RunPlan::new(plan, stratum.kernel.clone(), Some(s as u32)));
        }
    }
    debug_assert_eq!(plans.len(), cfg.runs);
    let layout_hash = strata_hash(&layout.fingerprint_material(&allocation));
    Ok((plans, (layout, allocation, layout_hash)))
}

/// The granularity at which a campaign pre-classifies runs without
/// simulating them (DESIGN.md's compatibility table is asserted against
/// [`PruneGranularity::of`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PruneGranularity {
    /// Every run is simulated.
    None,
    /// Faults in registers no reachable instruction reads are resolved.
    Register,
    /// So are flips confined to statically dead bits of live registers.
    Bit,
}

impl PruneGranularity {
    /// Off under stratified sampling, whose draw already excludes dead registers (they fall in the
    /// analytically-masked stratum) and whose weights are not bit-aware, so
    /// every planned run must be simulated for the reweighting to stay
    /// unbiased.  Register-granular only under stuck-at: a permanent fault
    /// re-pins on every write, and the per-flip dead-bit argument is only
    /// proven for single flips.
    pub(crate) fn of(cfg: &CampaignConfig) -> Self {
        if cfg.sampling == SamplingMode::Stratified {
            PruneGranularity::None
        } else if cfg.spec.model.is_permanent() {
            PruneGranularity::Register
        } else {
            PruneGranularity::Bit
        }
    }
}

impl Drawn {
    /// The pre-classification verdict for one pre-drawn run against its
    /// kernel's `dead_bit_masks` (bit `b` of register `r` is set when no
    /// reachable instruction ever demands it): the [`RunRecord`] the
    /// analyzer resolves it with, or `None` when the run must be simulated.
    ///
    /// A fault is *register-dead* when its register's mask is all ones —
    /// no reachable instruction reads the register, so neither a flip nor a
    /// stuck-at pin (which binds to the faulted thread's physical register
    /// and dies with it) is observable, and registers are
    /// zero-reinitialized at every launch, so it cannot leak into a later
    /// kernel.  Under [`PruneGranularity::Bit`] a fault is also *bit-dead*
    /// when every flipped bit lies inside the mask.  Every fault
    /// register-dead → `static_dead`; every fault dead either way →
    /// `static_dead_bit`.
    fn pre_classify(&self, run: &RunPlan, golden_cycles: u64) -> Option<RunRecord> {
        let masks = self.masks.get(&run.kernel)?;
        let mut detail = RunDetail::StaticDead;
        for f in &run.plan.faults {
            let FaultTarget::RegisterFile { reg, bits, .. } = &f.target else {
                return None;
            };
            let mask = *masks.get(*reg as usize)?;
            if mask == u32::MAX {
                continue;
            }
            let bit_dead = self.granularity == PruneGranularity::Bit
                && bits.iter().all(|&b| b < 32 && (mask >> b) & 1 == 1);
            if !bit_dead {
                return None;
            }
            detail = RunDetail::StaticDeadBit;
        }
        // Exactly what the fault-lifetime early exit records for a flip the
        // machine provably never reads back, so pruned and unpruned
        // campaigns stay diffable.
        (!run.plan.faults.is_empty()).then_some(RunRecord {
            effect: FaultEffect::Masked,
            cycles: golden_cycles,
            applied: true,
            early_exit: false,
            ckpt_skipped_cycles: 0,
            detail,
            stratum: run.stratum,
        })
    }
}

/// Re-runs the golden execution once with the checkpoint recorder armed,
/// shadowing the drawn plans pre-classification leaves, and publishes the
/// store for the workers.  Returns `None` (cold starts for everyone) if
/// the recording pass fails — it should not, since profiling already
/// succeeded.
pub(crate) fn record_store(
    workload: &dyn Workload,
    card: &GpuConfig,
    golden: &GoldenProfile,
    drawn: &Drawn,
) -> Option<Arc<CheckpointStore>> {
    let golden_cycles = golden.total_cycles();
    let interval = (golden_cycles / AUTO_CHECKPOINT_TARGET).max(1);
    let mut gpu = Gpu::new(card.clone());
    gpu.record_checkpoints(interval, DEFAULT_CHECKPOINT_BUDGET);
    let unclassified = |run: &&RunPlan| drawn.pre_classify(run, golden_cycles).is_none();
    gpu.shadow_plans(drawn.plans.iter().filter(unclassified).map(|run| &run.plan));
    workload.run(&mut gpu).ok()?;
    let store = gpu.finish_checkpoint_recording_with(&golden.output, |gpu| workload.run(gpu).ok());
    Some(Arc::new(store))
}

/// Runs the workload once with the differential oracle attached,
/// verifying the simulator's golden execution instruction-semantics-level
/// against the functional reference interpreter, and returns the oracle's
/// final global-memory image (the state every Masked run must land on).
fn oracle_golden_image(
    workload: &dyn Workload,
    card: &GpuConfig,
) -> Result<Vec<u8>, CampaignError> {
    let mut gpu = Gpu::new(card.clone());
    gpu.attach_oracle();
    let result = workload.run(&mut gpu);
    if let Some(d) = gpu.oracle_divergence() {
        return Err(CampaignError::OracleDivergence(d.to_string()));
    }
    result
        .map_err(|e| CampaignError::OracleDivergence(format!("lockstep golden run failed: {e}")))?;
    Ok(gpu.oracle_global_image().expect("oracle attached above"))
}

/// `--oracle-check`'s verdict on one run (all `false` outside it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct OracleVerdict {
    /// The record was compared with its reference.
    checked: bool,
    /// A shortcut resolved the run and the reference confirmed it.
    verified: bool,
    /// The record and the reference disagree.
    mismatch: bool,
}

impl OracleVerdict {
    /// The comparison rule of `--oracle-check`: `rec`, the run as the
    /// ladder resolved it on `rung`, against `reference`, the same run
    /// cold, fully simulated and unpruned (`None`: it panicked);
    /// `image_matches` says whether the reference's final global-memory
    /// image is the oracle's.
    ///
    /// Effect and cycles must match; `applied` unless pre-classified (the
    /// record asserts it unobserved); and a Masked shortcut — any rung but
    /// [`Rung::Simulated`], or an early exit — must leave the reference in
    /// the image the store tells: the oracle's, but for a settled run
    /// without an early exit whose faulty global words outlive it
    /// ([`CheckpointStore::final_deltas`]; a settled SDC run's reference
    /// ends on another image by definition).  `rec` must also hold the
    /// record invariants, which the reference cannot dodge by sharing a
    /// defect: an early exit or an unapplied plan is Masked at
    /// `golden_cycles`, Masked means `golden_cycles` and Performance any
    /// other count, a settled run is Masked or SDC at `golden_cycles`
    /// with no detail but `reconverged` on a forked Masked one that
    /// exited early, a settled SDC run is applied and did not exit early,
    /// and the fork skipped no cycle past the run's `first_cycle`.
    /// `sim_panic` records are not compared.
    fn of(
        rec: &RunRecord,
        rung: Rung,
        golden_cycles: u64,
        first_cycle: u64,
        reference: Option<&RunRecord>,
        image_matches: impl FnOnce() -> bool,
    ) -> Self {
        if rec.detail == RunDetail::SimPanic {
            return OracleVerdict::default();
        }
        let at_golden = rec.cycles == golden_cycles;
        let masked_at_golden = rec.effect == FaultEffect::Masked && at_golden;
        // An early exit or an unapplied plan is Masked at golden cycles.
        let sound = (masked_at_golden || (rec.applied && !rec.early_exit))
            && (rec.effect != FaultEffect::Masked || at_golden)
            && (rec.effect != FaultEffect::Performance || !at_golden)
            && (rung != Rung::Settled
                || (at_golden
                    && match (rec.effect, rec.detail) {
                        (FaultEffect::Masked, RunDetail::None) => true,
                        (FaultEffect::Masked, RunDetail::Reconverged) => {
                            rec.early_exit && rec.ckpt_skipped_cycles > 0
                        }
                        (FaultEffect::Sdc, RunDetail::None) => rec.applied && !rec.early_exit,
                        _ => false,
                    }))
            && rec.ckpt_skipped_cycles <= first_cycle;
        let shortcut = rung != Rung::Simulated || rec.early_exit;
        let agree = sound
            && reference.is_some_and(|r| {
                (r.effect, r.cycles) == (rec.effect, rec.cycles)
                    && (rung == Rung::PreClassified || r.applied == rec.applied)
            })
            && (!shortcut || rec.effect != FaultEffect::Masked || image_matches());
        OracleVerdict {
            checked: true,
            verified: shortcut && agree,
            mismatch: !agree,
        }
    }
}

/// One supervised run: its record, the rung that resolved it, its oracle
/// verdict and how many attempts panicked (`> 0`: the run was retried).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Outcome {
    pub(crate) rec: RunRecord,
    pub(crate) rung: Rung,
    pub(crate) verdict: OracleVerdict,
    pub(crate) panics: usize,
}

impl Outcome {
    /// `rec`, resolved on `rung` at its first attempt and not
    /// oracle-checked: all a worker reports.
    pub(crate) fn of(rec: RunRecord, rung: Rung) -> Self {
        Outcome {
            rec,
            rung,
            verdict: OracleVerdict::default(),
            panics: 0,
        }
    }
}

/// Everything one injection run borrows from its campaign.  Both
/// executors build one: the in-process clients with the oracle image,
/// checkpoint store and fault hook they share, a distributed worker with
/// the store it records lazily on its first lease.
pub(crate) struct RunEnv<'a> {
    pub(crate) workload: &'a dyn Workload,
    pub(crate) card: &'a GpuConfig,
    pub(crate) golden: &'a GoldenProfile,
    /// The drawn plans and the dead-bit masks they are pre-classified by.
    pub(crate) drawn: &'a Drawn,
    pub(crate) store: Option<Arc<CheckpointStore>>,
    /// The oracle's final global-memory image (`--oracle-check` only).
    pub(crate) oracle_img: Option<Vec<u8>>,
    pub(crate) hook: Option<&'a FaultHook>,
}

impl RunEnv<'_> {
    /// Resolves one run by the campaign's ladder: static
    /// pre-classification, else the checkpoint store's proof from the
    /// golden run that no flip is ever read — every one lands in an
    /// invalid cache line, or dies unread in the register file or shared
    /// memory — else a simulation forked from the nearest checkpoint and
    /// cut short by taint early exit or reconvergence; with its rung.
    fn resolve(&self, gpu: &mut Option<Gpu>, run: &RunPlan) -> (RunRecord, Rung) {
        let golden_cycles = self.golden.total_cycles();
        if let Some(rec) = self.drawn.pre_classify(run, golden_cycles) {
            return (rec, Rung::PreClassified);
        }
        if let Some(rec) = self.settle(run) {
            return (rec, Rung::Settled);
        }
        (
            self.simulate(gpu, run, self.store.as_ref(), true),
            Rung::Simulated,
        )
    }

    /// The record of a run the checkpoint store settles
    /// ([`CheckpointStore::settle`]), without simulating it: the one its
    /// fork — or its cold start, before the first checkpoint — writes,
    /// Masked or SDC at the golden cycle count.
    fn settle(&self, run: &RunPlan) -> Option<RunRecord> {
        let store = self.store.as_ref()?;
        let settled = store.settle(&run.plan)?;
        let skipped = store
            .nearest_at_or_before(run.first_cycle)
            .map_or(0, |idx| store.snapshot_cycle(idx));
        Some(RunRecord {
            effect: match settled.effect {
                SettledEffect::Masked => FaultEffect::Masked,
                SettledEffect::Sdc => FaultEffect::Sdc,
            },
            cycles: self.golden.total_cycles(),
            applied: settled.applied,
            early_exit: settled.early_exit,
            ckpt_skipped_cycles: skipped,
            detail: if settled.reconverged {
                RunDetail::Reconverged
            } else {
                RunDetail::None
            },
            stratum: run.stratum,
        })
    }

    /// Simulates one run on the client's device and classifies it,
    /// forking from `store`'s nearest checkpoint when there is one and
    /// aborting at fault-lifetime death under `early_exit`.
    fn simulate(
        &self,
        gpu: &mut Option<Gpu>,
        run: &RunPlan,
        store: Option<&Arc<CheckpointStore>>,
        early_exit: bool,
    ) -> RunRecord {
        let golden_cycles = self.golden.total_cycles();
        // Fork from the nearest checkpoint at or before the first injection
        // cycle — state up to that cycle is bit-identical to the golden
        // run's, so the head of the run need not be re-simulated.  The fork
        // restores the client's device in place; a run with no such
        // checkpoint starts cold on a fresh one.
        let fork =
            store.and_then(|store| Some((store, store.nearest_at_or_before(run.first_cycle)?)));
        let (gpu, ckpt_skipped_cycles) = match fork {
            Some((store, idx)) => {
                let gpu = gpu.get_or_insert_with(|| Gpu::new(self.card.clone()));
                gpu.resume_from(store, idx);
                (gpu, store.snapshot_cycle(idx))
            }
            None => {
                // Free the previous device before allocating its successor.
                *gpu = None;
                (gpu.insert(Gpu::new(self.card.clone())), 0)
            }
        };
        gpu.arm_faults(run.plan.clone());
        gpu.set_watchdog(golden_cycles * 2);
        gpu.set_early_exit(early_exit);
        let result = self.workload.run(gpu);
        self.record(
            run,
            &result,
            || gpu.stats().total_cycles().max(gpu.cycle()),
            gpu.injection_records().iter().any(|r| r.applied),
            ckpt_skipped_cycles,
        )
    }

    /// The record of `run` ending in `result` after `cycles` (asked only
    /// of a run early exit did not end), with `applied` and the cycles
    /// its fork skipped.
    fn record(
        &self,
        run: &RunPlan,
        result: &Result<Vec<u8>, WorkloadError>,
        cycles: impl FnOnce() -> u64,
        applied: bool,
        ckpt_skipped_cycles: u64,
    ) -> RunRecord {
        // Early exit fired — every fault's lifetime ended unobserved, or the
        // state reconverged with a later golden checkpoint — with the
        // machine state equal to the golden run's, so the remaining
        // execution is the golden execution: Masked at the golden cycle
        // count.
        let expired = matches!(
            result,
            Err(WorkloadError::Trap(Trap::FaultsExpired | Trap::Reconverged))
        );
        let (effect, cycles) = if expired {
            (FaultEffect::Masked, self.golden.total_cycles())
        } else {
            let cycles = cycles();
            (classify(result, cycles, self.golden), cycles)
        };
        RunRecord {
            effect,
            cycles,
            applied,
            early_exit: expired,
            ckpt_skipped_cycles,
            detail: detail_of(result),
            stratum: run.stratum,
        }
    }

    /// `--oracle-check`: re-runs `run` as the reference — a fresh device,
    /// no fork, no early exit, no pre-classification — and compares `rec`
    /// with it.  A reference that panics disagrees with any record.
    fn check(&self, run: &RunPlan, rec: &RunRecord, rung: Rung) -> OracleVerdict {
        let Some(img) = &self.oracle_img else {
            return OracleVerdict::default();
        };
        let mut cold = None;
        let reference = catch_run(|| self.simulate(&mut cold, run, None, false));
        // A settled run that goes on to the golden end may end holding
        // faulty global words: the image it must land on has them.
        let finals = match &self.store {
            Some(store) if rung == Rung::Settled && !rec.early_exit => {
                store.final_deltas(&run.plan)
            }
            _ => &[],
        };
        let image_matches = || {
            let Some(mut end) = cold.map(|g| g.mem().global_image()) else {
                return false;
            };
            for &(addr, delta) in finals {
                let at = (addr - GLOBAL_BASE) as usize;
                for (byte, d) in end[at..at + 4].iter_mut().zip(delta.to_le_bytes()) {
                    *byte ^= d;
                }
            }
            end == *img
        };
        OracleVerdict::of(
            rec,
            rung,
            self.golden.total_cycles(),
            run.first_cycle,
            reference.as_ref(),
            image_matches,
        )
    }

    /// Run index `i` under supervision on the client's device `gpu` — the
    /// one retry policy of every executor.  A panicking attempt is caught
    /// and retried once, immediately, to tell deterministic poison runs
    /// from incidental failures; a reproduced panic becomes the poison
    /// verdict — Crash, `sim_panic` — with deterministic placeholder
    /// fields, so a resumed campaign reproduces it bit for bit.  A panic
    /// drops the device it left half-mutated, so the retry (and every
    /// later run) starts from a fresh one.
    pub(crate) fn supervised_run(&self, gpu: &mut Option<Gpu>, i: usize) -> Outcome {
        let run = &self.drawn.plans[i];
        for attempt in 0..2 {
            let out = catch_run(|| {
                if let Some(h) = self.hook {
                    h(i, attempt);
                }
                self.resolve(gpu, run)
            });
            if let Some((rec, rung)) = out {
                return Outcome {
                    rec,
                    rung,
                    verdict: self.check(run, &rec, rung),
                    panics: attempt as usize,
                };
            }
            *gpu = None;
        }
        let poison = RunRecord {
            effect: FaultEffect::Crash,
            cycles: 0,
            applied: true,
            early_exit: false,
            ckpt_skipped_cycles: 0,
            detail: RunDetail::SimPanic,
            stratum: run.stratum,
        };
        Outcome {
            panics: 2,
            ..Outcome::of(poison, Rung::Simulated)
        }
    }
}

/// Picks one window with probability proportional to its length.
///
/// # Errors
///
/// Returns [`DrawError::EmptyWindows`] when every window is empty (zero
/// total cycles), instead of the old behaviour of underflowing on a window
/// with `end < start`.
fn pick_weighted<'a>(
    gen: &mut MaskGenerator,
    windows: &'a [KernelWindow],
) -> Result<&'a KernelWindow, DrawError> {
    let total: u64 = windows.iter().map(|w| w.end.saturating_sub(w.start)).sum();
    if total == 0 {
        return Err(DrawError::EmptyWindows);
    }
    let mut r = gen.uniform(total);
    for w in windows {
        let len = w.end.saturating_sub(w.start);
        if r < len {
            return Ok(w);
        }
        r -= len;
    }
    unreachable!("uniform draw below the total window length")
}

/// A test-only fault hook the supervisor invokes at the start of every
/// supervised run attempt, with the run index and the attempt number
/// (`0` = first attempt, `1` = the retry).  A hook that panics
/// emulates a fault corrupting simulator invariants; panic-isolation tests
/// and the CLI's `--inject-panic-run` use it to prove the campaign
/// survives poison runs.
pub type FaultHook = dyn Fn(usize, u32) + Sync + std::panic::RefUnwindSafe;

/// Runs a full campaign: `cfg.runs` independent injection runs of
/// `workload` on `card`, classified against `golden`.
///
/// Every run's fault plan is drawn up front (so draw errors surface before
/// any simulation), then one extra golden pass records a [`CheckpointStore`] and each run forks from the
/// nearest snapshot at or before its first injection cycle, simulating only
/// `[nearest_checkpoint, fault_death)` once taint early exit also fires.
///
/// Runs execute on `cfg.threads` in-process clients of the campaign's one
/// scheduler, the lease `Board`, each granted one run at a time of the
/// runs *sorted by first injection cycle*, so neighbouring runs fork from
/// the same snapshot while it is hot in cache.  The result is identical
/// regardless of thread count and execution order because every run
/// derives its own RNG from the campaign seed and the run index, and
/// records are placed by original run index.
///
/// The campaign is **supervised**: each run executes under
/// `std::panic::catch_unwind`, so a simulator-internal panic is captured
/// per run, retried once immediately, and — if it reproduces — recorded
/// as **Crash** with [`RunDetail::SimPanic`] while every sibling run
/// completes normally.  With [`CampaignConfig::journal`] set, each
/// completed run is also appended (fsync'd) to a crash-safe journal that
/// [`CampaignConfig::resume`] can restart from after process death.
///
/// # Errors
///
/// Returns [`CampaignError`] when the fault space is empty for this
/// kernel/chip (e.g. L1 data cache on GTX Titan), the kernel is unknown,
/// or the journal cannot be written / does not belong to this campaign.
pub fn run_campaign(
    workload: &dyn Workload,
    card: &GpuConfig,
    cfg: &CampaignConfig,
    golden: &GoldenProfile,
) -> Result<CampaignResult, CampaignError> {
    run_campaign_with_hook(workload, card, cfg, golden, None)
}

/// The [`CampaignStats`] derivable from the finished record set and the
/// rungs that resolved it, on top of the `counters` the [`Board`]
/// accumulated (oracle verdicts, panics, service counters).  The rest
/// (threads, workers, checkpoint store, journal overhead) stays for
/// [`Prepared::finish`] and its caller.
fn base_stats(
    records: &[RunRecord],
    rungs: &[Rung],
    strata: Option<&Strata>,
    wall: f64,
    counters: CampaignStats,
) -> CampaignStats {
    let n = records.len();
    let count = |keep: &dyn Fn(&RunRecord) -> bool| records.iter().filter(|r| keep(r)).count();
    let applied = count(&|r| r.applied);
    let early_exits = count(&|r| r.early_exit);
    let reconverged = count(&|r| r.detail == RunDetail::Reconverged);
    let restores = count(&|r| r.ckpt_skipped_cycles > 0);
    let static_pruned = count(&|r| r.detail == RunDetail::StaticDead);
    let static_bit_pruned = count(&|r| r.detail == RunDetail::StaticDeadBit);
    let skipped: u64 = records.iter().map(|r| r.ckpt_skipped_cycles).sum();
    let rung = |rung| rungs.iter().filter(|&&r| r == rung).count();
    // Cost vs coverage: simulated runs paid for a simulation; effective
    // runs is the flat-campaign coverage bought — the stratified budget
    // covers only the live population fraction, so dividing by it
    // expresses the campaign in flat-equivalent runs.
    let simulated_runs = rung(Rung::Simulated);
    let effective_runs = match strata.map(|(l, _, _)| l.live_weight()) {
        Some(w) if w > 0.0 => n as f64 / w,
        _ => n as f64,
    };
    let per = |x: f64, d: f64| if d > 0.0 { x / d } else { 0.0 };
    let per_run = |x: usize| per(x as f64, n as f64);
    CampaignStats {
        wall_ms: wall * 1e3,
        runs_per_sec: per(n as f64, wall),
        simulated_runs,
        effective_runs,
        sim_runs_per_sec: per(simulated_runs as f64, wall),
        effective_runs_per_sec: per(effective_runs, wall),
        applied,
        applied_rate: per_run(applied),
        early_exits,
        early_exit_rate: per_run(early_exits),
        reconverged,
        restores,
        settled: rung(Rung::Settled),
        resumed: rung(Rung::Journal),
        mean_skipped_cycles: per(skipped as f64, n as f64),
        static_pruned,
        static_pruned_rate: per_run(static_pruned),
        static_bit_pruned,
        static_bit_pruned_rate: per_run(static_bit_pruned),
        ..counters
    }
}

/// Stratified reweighting: group the records back into their strata and
/// fold the tallies plus the analytic masked mass into the two-level
/// estimate (at the paper's 99% confidence).
fn sampling_summary(
    (layout, allocation, layout_hash): Strata,
    records: &[RunRecord],
) -> SamplingSummary {
    let mut tallies = vec![Tally::default(); layout.strata.len()];
    for r in records {
        if let Some(s) = r.stratum {
            tallies[s as usize].record(r.effect);
        }
    }
    let obs: Vec<StratumObservation> = layout
        .strata
        .iter()
        .zip(&tallies)
        .map(|(s, &tally)| StratumObservation {
            weight: s.weight,
            tally,
        })
        .collect();
    let estimate = stratified_estimate(&obs, layout.masked_weight, 0.99);
    SamplingSummary {
        strata: layout.strata.len(),
        masked_weight: layout.masked_weight,
        layout_hash,
        allocation,
        estimate,
    }
}

/// What both sides of a distributed campaign derive from the configuration
/// alone; a worker stops here, [`prepare`] continues.
pub(crate) struct Drawn {
    pub(crate) plans: Vec<RunPlan>,
    /// Each kernel's `dead_bit_masks`, the pre-classifier's table (empty
    /// when `granularity` is `None`).
    masks: BTreeMap<String, Vec<u32>>,
    /// [`PruneGranularity::of`] the campaign.
    granularity: PruneGranularity,
    strata: Option<Strata>,
    /// The campaign's identity, which the journal header carries and the
    /// service handshake exchanges: [`describe`], the `chip` and, when
    /// stratified, the `strata` layout hash.
    pub(crate) campaign: Value,
}

/// The fault plan each run of the campaign `cfg` injects, in run order:
/// what [`run_campaign`] draws before it runs anything.
///
/// # Errors
///
/// As [`run_campaign`] before its first run: no runs, or no fault to draw.
pub fn campaign_plans(
    workload: &dyn Workload,
    card: &GpuConfig,
    cfg: &CampaignConfig,
    golden: &GoldenProfile,
) -> Result<Vec<InjectionPlan>, CampaignError> {
    let drawn = draw(workload, card, cfg, golden)?;
    Ok(drawn.plans.into_iter().map(|run| run.plan).collect())
}

/// Draws every run's plan up front (so draw errors surface before any
/// simulation), builds the pre-classifier's mask table and describes the
/// campaign.
pub(crate) fn draw(
    workload: &dyn Workload,
    card: &GpuConfig,
    cfg: &CampaignConfig,
    golden: &GoldenProfile,
) -> Result<Drawn, CampaignError> {
    if cfg.runs == 0 {
        return Err(CampaignError::NoRuns);
    }
    let (plans, strata) = match cfg.sampling {
        SamplingMode::Flat => (draw_plans(cfg, golden)?, None),
        SamplingMode::Stratified => {
            let (plans, strata) = draw_stratified_plans(workload, cfg, golden)?;
            (plans, Some(strata))
        }
    };
    let mut campaign = describe(workload.name(), &card.name, cfg);
    if let Value::Obj(members) = &mut campaign {
        members.push(("chip".into(), card.spelling()));
        members.extend(strata.as_ref().map(|s| ("strata".into(), s.2.into())));
    }
    let mut masks = BTreeMap::new();
    let granularity = PruneGranularity::of(cfg);
    if granularity != PruneGranularity::None {
        for k in workload.module().kernels() {
            masks.insert(k.name().to_string(), dead_bit_masks(k));
        }
    }
    Ok(Drawn {
        plans,
        masks,
        granularity,
        strata,
        campaign,
    })
}

/// What [`Board::grant`] hands a client: a lease `(id, runs)`, `Idle`
/// after an idle period with nothing pending, or `Done` at the end.
pub(crate) enum Grant {
    Lease(u64, Vec<usize>),
    Idle,
    Done,
}

/// Why [`Board::merge`] refused a completed run: not an unmerged run of
/// the lease the ack names, or the coordinator chaos-died.
pub(crate) enum Refused {
    Unleased,
    Died,
}

/// Everything the scheduler guards with its one mutex.
#[derive(Default)]
struct BoardState {
    /// One slot per run index, with the rung that resolved it: resumed
    /// runs by `prepare` ([`Rung::Journal`]), every other run by
    /// [`Board::merge`].
    slots: Vec<Option<(RunRecord, Rung)>>,
    filled: usize,
    /// Leases not yet granted; reclaimed ones go back to the head.
    queue: VecDeque<(u64, Vec<usize>)>,
    /// Granted leases → their unmerged runs; the last merge retires one.
    granted: BTreeMap<u64, Vec<usize>>,
    next_lease: u64,
    /// Leases, reissues, duplicate acks, oracle verdicts, panics, retries.
    stats: CampaignStats,
    /// TCP workers' merge credit and handshake time, kept current by
    /// every grant and merge; in-process clients stay anonymous.
    workers: Vec<(WorkerThroughput, Instant)>,
    /// The journal's single-writer append channel (errors surface in
    /// [`Prepared::finish`]).
    sink: Option<JournalSink>,
    /// Simulated coordinator death: stop granting, stop merging.
    died: bool,
    /// Merges left before the chaos hook kills the coordinator.
    chaos_left: Option<usize>,
}

impl BoardState {
    fn over(&self) -> bool {
        self.died || self.filled == self.slots.len()
    }
}

/// The one scheduler of every executor: in-process clients (one per
/// `cfg.threads`, one-run leases) and the coordinator's TCP handlers
/// (`--lease-size` leases) alike loop [`Board::grant`] → run →
/// [`Board::merge`], and the coordinator [`Board::reclaim`]s the lease of
/// a connection that fails.
///
/// ```text
/// pending ──grant──▶ granted ──all runs merged──▶ retired
///    ▲                  │
///    └──reclaim─────────┘   (worker died / stalled past deadline /
///        (unmerged runs)     torn frame / protocol violation)
/// ```
///
/// Merges are **first-ack-wins by run index**: a run completed by both
/// the original owner of a reissued lease and its new owner is counted
/// once, and the loser increments `duplicate_acks`.  Because every client
/// executes the same plan with the same per-run RNG, the two records are
/// identical and the winner's identity cannot change the output.
pub(crate) struct Board {
    state: Mutex<BoardState>,
    wake: Condvar,
}

impl Board {
    fn lock(&self) -> MutexGuard<'_, BoardState> {
        self.state.lock().expect("board lock poisoned")
    }

    /// Registers a TCP worker for merge credit and returns its id, or
    /// `None` when there is nothing left to grant.
    pub(crate) fn join(&self) -> Option<usize> {
        let mut b = self.lock();
        if b.over() {
            return None;
        }
        let worker = b.workers.len();
        let credit = WorkerThroughput {
            worker: worker as u32,
            ..WorkerThroughput::default()
        };
        b.workers.push((credit, Instant::now()));
        Some(worker)
    }

    /// Grants the next pending lease to `client` (a TCP worker id, or
    /// `None` for an in-process client, whose leases are not counted), or
    /// waits up to `idle` for a reclaim or the campaign's end.
    pub(crate) fn grant(&self, client: Option<usize>, idle: Duration) -> Grant {
        let mut b = self.lock();
        if b.over() {
            return Grant::Done;
        }
        let Some((id, runs)) = b.queue.pop_front() else {
            let _ = self.wake.wait_timeout(b, idle);
            return Grant::Idle;
        };
        if let Some(w) = client {
            b.stats.leases += 1;
            b.workers[w].0.leases += 1;
        }
        b.granted.insert(id, runs.clone());
        Grant::Lease(id, runs)
    }

    /// The one place an executed run reaches its slot and the journal:
    /// first-ack-wins by run index, credited to `client`, with the chaos
    /// countdown run after the journal append — exactly what a SIGKILL
    /// after that many merges would leave behind.
    pub(crate) fn merge(
        &self,
        client: Option<usize>,
        lease: u64,
        run: usize,
        Outcome {
            rec,
            rung,
            verdict,
            panics,
        }: Outcome,
    ) -> Result<(), Refused> {
        let mut guard = self.lock();
        let b = &mut *guard;
        if b.died {
            return Err(Refused::Died);
        }
        if b.slots.get(run).is_some_and(Option::is_some) {
            // First ack won already — a reissued lease's original owner
            // catching up, or a duplicated frame.
            b.stats.duplicate_acks += 1;
            return Ok(());
        }
        let left = match b.granted.get_mut(&lease) {
            Some(left) if left.contains(&run) => left,
            _ => return Err(Refused::Unleased),
        };
        left.retain(|&r| r != run);
        if left.is_empty() {
            b.granted.remove(&lease);
        }
        b.slots[run] = Some((rec, rung));
        b.filled += 1;
        if let Some(s) = &b.sink {
            s.append(run, &rec);
        }
        if let Some(w) = client {
            let (credit, start) = &mut b.workers[w];
            credit.runs += 1;
            credit.runs_per_sec = credit.runs as f64 / start.elapsed().as_secs_f64().max(1e-9);
        }
        let s = &mut b.stats;
        s.oracle_checked += usize::from(verdict.checked);
        s.oracle_verified += usize::from(verdict.verified);
        s.oracle_mismatches += usize::from(verdict.mismatch);
        s.panics += panics;
        s.retries += usize::from(panics > 0);
        if let Some(left) = &mut b.chaos_left {
            *left -= 1;
            b.died = *left == 0;
        }
        if b.over() {
            self.wake.notify_all();
        }
        if b.died {
            Err(Refused::Died)
        } else {
            Ok(())
        }
    }

    /// Returns a lost lease's unmerged runs to the head of the queue under
    /// a fresh lease id, and wakes any client waiting for work.
    pub(crate) fn reclaim(&self, lease: u64) {
        let mut guard = self.lock();
        let b = &mut *guard;
        if let Some(left) = b.granted.remove(&lease) {
            b.queue.push_front((b.next_lease, left));
            b.next_lease += 1;
            b.stats.reissued_leases += 1;
            self.wake.notify_all();
        }
    }

    /// Blocks until the campaign completes or the coordinator dies, and
    /// says whether it died.
    pub(crate) fn wait(&self) -> bool {
        let b = self.wake.wait_while(self.lock(), |b| !b.over());
        b.expect("board lock poisoned").died
    }

    /// [`Board::wait`] for at most `timeout`: `None` while the campaign
    /// goes on.
    pub(crate) fn wait_for(&self, timeout: Duration) -> Option<bool> {
        let b = self
            .wake
            .wait_timeout_while(self.lock(), timeout, |b| !b.over());
        let (b, _) = b.expect("board lock poisoned");
        b.over().then_some(b.died)
    }

    /// Stops granting and merging, as a coordinator death does.
    pub(crate) fn abandon(&self) {
        self.lock().died = true;
        self.wake.notify_all();
    }
}

/// A campaign ready to execute: its clients schedule through
/// [`Prepared::board`], then [`Prepared::finish`] folds the result.
pub(crate) struct Prepared {
    start: Instant,
    pub(crate) drawn: Drawn,
    pub(crate) board: Board,
    writer: Option<JournalWriter>,
    resumed: usize,
}

/// Stage one of a campaign: draw and describe → journal create/resume →
/// the board, leasing the pending order `lease_size` runs at a time.
/// `die_after_merges` arms the coordinator's chaos death (`Some(0)` dies
/// before the first merge).
pub(crate) fn prepare(
    workload: &dyn Workload,
    card: &GpuConfig,
    cfg: &CampaignConfig,
    golden: &GoldenProfile,
    lease_size: usize,
    die_after_merges: Option<usize>,
) -> Result<Prepared, CampaignError> {
    let start = Instant::now();
    let drawn = draw(workload, card, cfg, golden)?;

    // Journal / resume: load completed records first, so a resumed
    // campaign schedules (and pays for) only the missing run indices.
    let (journal, slots) = match &cfg.journal {
        None => (None, vec![None; cfg.runs]),
        Some(path) => {
            let (j, loaded) = RunJournal::open(path, &drawn.campaign, cfg.runs, cfg.resume)
                .map_err(CampaignError::Journal)?;
            let journaled = |rec: Option<RunRecord>| rec.map(|rec| (rec, Rung::Journal));
            (Some(j), loaded.into_iter().map(journaled).collect())
        }
    };
    let resumed = slots.iter().flatten().count();
    let (writer, sink) = journal.map(RunJournal::into_writer).unzip();

    // The pending order, sorted by first injection cycle so neighbouring
    // runs fork from the same snapshot while it is hot in cache, chunked
    // into the board's leases.
    let mut order: Vec<usize> = (0..cfg.runs).filter(|&i| slots[i].is_none()).collect();
    order.sort_by_key(|&i| drawn.plans[i].first_cycle);
    let queue: VecDeque<(u64, Vec<usize>)> = (0..)
        .zip(order.chunks(lease_size))
        .map(|(id, chunk)| (id, chunk.to_vec()))
        .collect();
    let board = BoardState {
        filled: cfg.runs - order.len(),
        slots,
        next_lease: queue.len() as u64,
        queue,
        sink,
        died: die_after_merges == Some(0),
        chaos_left: die_after_merges,
        ..BoardState::default()
    };
    Ok(Prepared {
        start,
        drawn,
        board: Board {
            state: Mutex::new(board),
            wake: Condvar::new(),
        },
        writer,
        resumed,
    })
}

impl Prepared {
    /// The last stage of every executor, once its clients are done and
    /// [`Board::wait`] would return: closes the journal, checks every slot
    /// is filled and folds the records and the board's counters into the
    /// [`CampaignResult`].  `threads` is the executor's in-process client
    /// count; a coordinator passes 1 and gets one per TCP worker that
    /// joined.  A coordinator that chaos-died leaves its journal exactly as
    /// a SIGKILL would.
    pub(crate) fn finish(
        self,
        cfg: &CampaignConfig,
        threads: usize,
    ) -> Result<CampaignResult, CampaignError> {
        let BoardState {
            slots,
            stats: counters,
            workers,
            sink,
            died,
            ..
        } = self.board.state.into_inner().expect("board lock poisoned");
        // Closing the only sender ends the writer thread; joining it
        // surfaces the first append error, after the in-memory results are
        // complete.
        drop(sink);
        let journal = match self.writer {
            None => None,
            Some(w) => {
                let j = w.finish().map_err(CampaignError::Journal)?;
                if !died {
                    // Rewrite the journal in run-index order so its bytes
                    // depend only on the campaign, never on completion
                    // order — a `--threads 16` (or distributed) journal is
                    // byte-identical to a `--threads 1` one.
                    j.finalize_canonical().map_err(CampaignError::Journal)?;
                }
                Some(j)
            }
        };
        // Fill check: a missing slot is an executor bug; report which run
        // indices vanished instead of panicking.
        let missing: Vec<usize> = (0..slots.len()).filter(|&i| slots[i].is_none()).collect();
        if !missing.is_empty() {
            return Err(CampaignError::Internal(missing));
        }
        let (records, rungs): (Vec<RunRecord>, Vec<Rung>) = slots.into_iter().flatten().unzip();
        let tally: Tally = records.iter().map(|r| r.effect).collect();
        let strata = self.drawn.strata;
        let wall = self.start.elapsed().as_secs_f64();
        let mut stats = base_stats(&records, &rungs, strata.as_ref(), wall, counters);
        stats.threads = threads.max(workers.len());
        stats.workers = workers.len();
        stats.worker_throughput = workers.into_iter().map(|(credit, _)| credit).collect();
        stats.journal_bytes = journal.as_ref().map_or(0, RunJournal::bytes_written);
        stats.journal_ms = journal.as_ref().map_or(0.0, RunJournal::wall_ms);
        let sampling = strata.map(|s| sampling_summary(s, &records));
        Ok(CampaignResult {
            spec: cfg.spec.clone(),
            kernel: cfg.kernel.clone(),
            tally,
            records,
            rungs,
            stats,
            sampling,
        })
    }
}

/// [`run_campaign`] with a [`FaultHook`] injected into every supervised
/// run attempt (`None` behaves exactly like [`run_campaign`]).
pub fn run_campaign_with_hook(
    workload: &dyn Workload,
    card: &GpuConfig,
    cfg: &CampaignConfig,
    golden: &GoldenProfile,
    hook: Option<&FaultHook>,
) -> Result<CampaignResult, CampaignError> {
    let p = prepare(workload, card, cfg, golden, 1, None)?;
    // Both the oracle pass and the checkpoint-recording pass are skipped
    // when the journal already covers every run.
    let pending = cfg.runs - p.resumed;
    let runnable = pending > 0;
    let env = RunEnv {
        workload,
        card,
        golden,
        drawn: &p.drawn,
        hook,
        // Oracle validation first: a functionally wrong golden run poisons
        // every classification, so fail before any injection work.
        oracle_img: if cfg.oracle_check && runnable {
            Some(oracle_golden_image(workload, card)?)
        } else {
            None
        },
        store: runnable
            .then(|| record_store(workload, card, golden, &p.drawn))
            .flatten(),
    };
    let threads = cfg.effective_threads().clamp(1, pending.max(1));

    // In-process clients of the board, each granted one run at a time and
    // forking every run on its one device; merge journals it immediately
    // (crash safety).  Nothing is ever reclaimed in-process, so an idle
    // client just waits for the end.
    let client = || {
        let mut gpu = None;
        loop {
            match p.board.grant(None, Duration::MAX) {
                Grant::Lease(id, runs) => {
                    for i in runs {
                        let out = env.supervised_run(&mut gpu, i);
                        // Never refused: no chaos, and the lease is this client's.
                        let _ = p.board.merge(None, id, i, out);
                    }
                }
                Grant::Idle => {}
                Grant::Done => break,
            }
        }
    };
    if threads <= 1 {
        client();
    } else {
        // Run panics are caught inside `supervised_run`; a client can only
        // die from a supervisor-infrastructure bug, which the scope
        // re-raises rather than masks.
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(client);
            }
        });
    }
    let RunEnv { store, .. } = env;
    let mut result = p.finish(cfg, threads)?;
    let s = &mut result.stats;
    s.checkpoints = store.as_ref().map_or(0, |s| s.len());
    s.checkpoint_bytes = store.as_ref().map_or(0, |s| s.held_bytes());
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// DESIGN.md declares the pre-classification granularity of every
    /// fault model x sampling mode; each cell is checked against the one
    /// gating function, so neither can drift.
    #[test]
    fn design_md_compatibility_table_matches_the_gating_function() {
        let granularity = |cell: &str| match cell {
            "none" => PruneGranularity::None,
            "register-granular" => PruneGranularity::Register,
            "bit-granular" => PruneGranularity::Bit,
            other => panic!("DESIGN.md table cell `{other}` names no granularity"),
        };
        let mut rows = 0;
        for line in include_str!("../../../DESIGN.md").lines() {
            let cells: Vec<&str> = line
                .split('|')
                .map(|c| c.trim_matches([' ', '`']))
                .collect();
            let ["", model, sampling, cell, ""] = cells[..] else {
                continue;
            };
            let (Some(model), Some(sampling)) = (
                gpufi_faults::FaultModel::parse(model),
                SamplingMode::parse(sampling),
            ) else {
                continue;
            };
            let spec = CampaignSpec::new(Structure::RegisterFile).model(model);
            let mut cfg = CampaignConfig::new(spec, 1, 1);
            cfg.sampling = sampling;
            assert_eq!(PruneGranularity::of(&cfg), granularity(cell), "{line}");
            // `--oracle-check` validates the default resolution, so it
            // never changes what is pre-classified.
            let checked = cfg.with_oracle_check();
            assert_eq!(PruneGranularity::of(&checked), granularity(cell), "{line}");
            rows += 1;
        }
        assert_eq!(rows, 6, "3 fault models x 2 sampling modes");
    }

    /// A record as the ladder or the reference might produce it.
    fn record(
        effect: FaultEffect,
        applied: bool,
        early_exit: bool,
        detail: RunDetail,
    ) -> RunRecord {
        RunRecord {
            effect,
            cycles: if effect == FaultEffect::Masked {
                1000
            } else {
                0
            },
            applied,
            early_exit,
            ckpt_skipped_cycles: 0,
            detail,
            stratum: None,
        }
    }

    #[test]
    fn oracle_comparison_rule() {
        use FaultEffect::{Crash, Masked, Performance, Sdc};
        let verdict = |checked, verified, mismatch| OracleVerdict {
            checked,
            verified,
            mismatch,
        };
        let (agree, short_agree, disagree) = (
            verdict(true, false, false),
            verdict(true, true, false),
            verdict(true, false, true),
        );
        // Golden runs take 1000 cycles (as `record` writes Masked ones);
        // the run's first fault fires at cycle 500.
        let resolved = |rung, rec: &RunRecord, reference: Option<&RunRecord>, image: bool| {
            OracleVerdict::of(rec, rung, 1000, 500, reference, || image)
        };
        let of = |rec: &RunRecord, reference: Option<&RunRecord>, image: bool| {
            resolved(Rung::Simulated, rec, reference, image)
        };
        let masked = record(Masked, true, false, RunDetail::None);
        // An early exit's Masked-at-golden verdict against an SDC reference.
        let exited = record(Masked, true, true, RunDetail::None);
        let sdc = record(Sdc, true, false, RunDetail::None);
        assert_eq!(of(&exited, Some(&sdc), true), disagree);
        assert_eq!(of(&exited, Some(&masked), true), short_agree);
        // ...whose reference ends in another image than the oracle's.
        assert_eq!(of(&exited, Some(&masked), false), disagree);
        // A pre-classified record asserts `applied` without observing it.
        for detail in [RunDetail::StaticDead, RunDetail::StaticDeadBit] {
            let pruned = record(Masked, true, false, detail);
            let unapplied = record(Masked, false, false, RunDetail::None);
            assert_eq!(
                resolved(Rung::PreClassified, &pruned, Some(&unapplied), true),
                short_agree
            );
            assert_eq!(
                resolved(Rung::PreClassified, &pruned, Some(&sdc), true),
                disagree
            );
        }
        // A settled run is a shortcut even without an early exit (a flip
        // that dies unread after the last taint check): its reference must
        // agree on `applied` and end in the oracle's image.
        assert_eq!(
            resolved(Rung::Settled, &masked, Some(&masked), true),
            short_agree
        );
        assert_eq!(
            resolved(Rung::Settled, &masked, Some(&masked), false),
            disagree
        );
        assert_eq!(resolved(Rung::Settled, &masked, Some(&sdc), true), disagree);
        let unapplied = record(Masked, false, false, RunDetail::None);
        assert_eq!(
            resolved(Rung::Settled, &masked, Some(&unapplied), true),
            disagree
        );
        // A settled SDC run agrees with an SDC reference at golden cycles,
        // whose image is not the oracle's by definition.
        let at_golden = |rec: RunRecord| RunRecord {
            cycles: 1000,
            ..rec
        };
        let settled_sdc = at_golden(sdc);
        assert_eq!(
            resolved(Rung::Settled, &settled_sdc, Some(&settled_sdc), false),
            short_agree
        );
        assert_eq!(
            resolved(Rung::Settled, &settled_sdc, Some(&masked), true),
            disagree
        );
        // A settled run is Masked or SDC at golden cycles with no detail,
        // even against a reference that shares its defect.
        let settled = |rec: RunRecord| resolved(Rung::Settled, &rec, Some(&rec), true);
        assert_eq!(settled(settled_sdc), short_agree);
        assert_eq!(settled(sdc), disagree);
        let crash = record(Crash, true, false, RunDetail::None);
        assert_eq!(settled(at_golden(crash)), disagree);
        let detailed = record(Sdc, true, false, RunDetail::Deadlock);
        assert_eq!(settled(at_golden(detailed)), disagree);
        // `reconverged` only on a forked Masked run that exited early.
        let reconverged = RunRecord {
            ckpt_skipped_cycles: 400,
            ..record(Masked, true, true, RunDetail::Reconverged)
        };
        assert_eq!(settled(reconverged), short_agree);
        let cold = RunRecord {
            ckpt_skipped_cycles: 0,
            ..reconverged
        };
        assert_eq!(settled(cold), disagree);
        let ran_out = RunRecord {
            early_exit: false,
            ..reconverged
        };
        assert_eq!(settled(ran_out), disagree);
        let sdc_reconverged = RunRecord {
            effect: Sdc,
            early_exit: false,
            ..reconverged
        };
        assert_eq!(settled(sdc_reconverged), disagree);
        // A settled SDC run is applied and did not exit early.
        let unapplied_sdc = record(Sdc, false, false, RunDetail::None);
        assert_eq!(settled(at_golden(unapplied_sdc)), disagree);
        let exited_sdc = record(Sdc, true, true, RunDetail::None);
        assert_eq!(settled(at_golden(exited_sdc)), disagree);
        // A simulated run must agree on `applied`; its image is not asked.
        assert_eq!(of(&masked, Some(&unapplied), true), disagree);
        assert_eq!(of(&masked, Some(&masked), false), agree);
        assert_eq!(of(&sdc, Some(&sdc), false), agree);
        // A reference that panicked disagrees with any record.
        assert_eq!(of(&exited, None, true), disagree);
        // Not compared: poison records.
        let poison = record(Crash, true, false, RunDetail::SimPanic);
        assert_eq!(of(&poison, Some(&masked), false), OracleVerdict::default());
        // The record invariants: a record breaking one disagrees even with
        // a reference that shares its defect.
        let broken = |rec: RunRecord| of(&rec, Some(&rec), true);
        // `early_exit` ⇒ Masked at golden cycles.
        let exited_sdc = RunRecord {
            cycles: 1000,
            ..record(Sdc, true, true, RunDetail::None)
        };
        assert_eq!(broken(exited_sdc), disagree);
        // `!applied` ⇒ Masked at golden cycles.
        assert_eq!(broken(record(Sdc, false, false, RunDetail::None)), disagree);
        let slow = record(Performance, false, false, RunDetail::None);
        assert_eq!(
            broken(RunRecord {
                cycles: 1200,
                ..slow
            }),
            disagree
        );
        // Masked ⇒ golden cycles; Performance ⇒ any other count.
        assert_eq!(
            broken(RunRecord {
                cycles: 999,
                ..masked
            }),
            disagree
        );
        let slow = record(Performance, true, false, RunDetail::None);
        assert_eq!(
            broken(RunRecord {
                cycles: 1000,
                ..slow
            }),
            disagree
        );
        assert_eq!(
            broken(RunRecord {
                cycles: 1200,
                ..slow
            }),
            agree
        );
        // The fork skipped no cycle past the first fault's.
        let forked = |ckpt_skipped_cycles| RunRecord {
            ckpt_skipped_cycles,
            ..masked
        };
        assert_eq!(broken(forked(500)), agree);
        assert_eq!(broken(forked(501)), disagree);
    }

    #[test]
    fn mix_seed_separates_seed_zero_from_seed_one() {
        // Regression: the old `seed * C ^ run_idx` mix mapped seed 0 to the
        // bare run index, so seeds 0 and 1 shared fault masks.
        for run in 0..64u64 {
            assert_ne!(mix_seed(0, run), mix_seed(1, run), "run {run}");
        }
    }

    #[test]
    fn mix_seed_separates_runs() {
        let mut seen: Vec<u64> = (0..256).map(|i| mix_seed(0, i)).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 256, "per-run seeds must be distinct");
    }

    #[test]
    fn pick_weighted_rejects_empty_and_inverted_windows() {
        let mut gen = MaskGenerator::new(1);
        let empty = [KernelWindow {
            kernel: "k".into(),
            start: 10,
            end: 10,
        }];
        assert_eq!(
            pick_weighted(&mut gen, &empty).unwrap_err(),
            DrawError::EmptyWindows
        );
        // An inverted window (end < start) counts as empty instead of
        // underflowing.
        let inverted = [KernelWindow {
            kernel: "k".into(),
            start: 20,
            end: 10,
        }];
        assert_eq!(
            pick_weighted(&mut gen, &inverted).unwrap_err(),
            DrawError::EmptyWindows
        );
    }

    #[test]
    fn pick_weighted_skips_empty_windows() {
        let mut gen = MaskGenerator::new(2);
        let windows = [
            KernelWindow {
                kernel: "a".into(),
                start: 5,
                end: 5,
            },
            KernelWindow {
                kernel: "b".into(),
                start: 10,
                end: 20,
            },
        ];
        for _ in 0..50 {
            let w = pick_weighted(&mut gen, &windows).unwrap();
            assert_eq!(w.kernel, "b");
        }
    }

    #[test]
    fn pick_weighted_visits_every_kernel_window() {
        // Whole-application sampling must reach every kernel's window set,
        // including short windows dwarfed by a dominant kernel (the SRAD
        // shape: three static kernels, two invocations each).
        let windows = [
            KernelWindow {
                kernel: "extract".into(),
                start: 0,
                end: 120,
            },
            KernelWindow {
                kernel: "srad".into(),
                start: 120,
                end: 4000,
            },
            KernelWindow {
                kernel: "compress".into(),
                start: 4000,
                end: 4100,
            },
            KernelWindow {
                kernel: "extract".into(),
                start: 4100,
                end: 4220,
            },
            KernelWindow {
                kernel: "srad".into(),
                start: 4220,
                end: 8100,
            },
            KernelWindow {
                kernel: "compress".into(),
                start: 8100,
                end: 8200,
            },
        ];
        let mut gen = MaskGenerator::new(3);
        let mut hit = std::collections::HashSet::new();
        for _ in 0..400 {
            hit.insert(pick_weighted(&mut gen, &windows).unwrap().kernel.clone());
        }
        assert_eq!(hit.len(), 3, "sampled kernels: {hit:?}");
    }
}
