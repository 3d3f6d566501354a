//! The traced run: per-layer numbers of one workload, timed from outside.
//!
//! Nothing inside the crates is instrumented.  Every number comes from a
//! span around a call to a public function: the set-up layers one by one, a
//! replay of drawn plans through the public steps `one_run` takes, and whole
//! campaigns (untraced, with a per-run timestamp hook, on two threads, and —
//! for the served workload — through the coordinator).

use crate::contract::Contract;
use crate::host::{fs_type, WorkDir};
use crate::json::Value;
use crate::report::{readings, Outcome};
use crate::spans::Tracer;
use crate::stats::{median, tail, Summary};
use crate::timed::validate;
use crate::workloads::{repeat_seed, serve2, Built, Delivery, Engine, Spec};
use gpufi_core::{
    campaign_csv, campaign_fingerprint, classify, detail_of, profile, run_campaign,
    run_campaign_with_hook, CampaignConfig, CampaignResult, CampaignStats, RunDetail, RunJournal,
    RunRecord, StrataLayout, WorkloadError, DEFAULT_CHECKPOINT_BUDGET,
};
use gpufi_faults::{CampaignSpec, FaultModel, MaskGenerator, Structure};
use gpufi_isa::analysis::{dead_bit_masks, dead_registers};
use gpufi_metrics::FaultEffect;
use gpufi_sim::{CheckpointStore, Gpu, InjectionPlan, Trap};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// `campaign.rs` spaces automatic checkpoints `golden cycles / 24` apart.
/// The constant is private there; the traced run checks its own store
/// against the campaign's `CampaignStats::checkpoints` so a drift shows.
const AUTO_CHECKPOINT_TARGET: u64 = 24;

/// How much one traced run does.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Injection runs per campaign.
    pub runs: usize,
    /// Plans replayed step by step.
    pub replay: usize,
    /// Seconds of campaign rounds (at least one round is made).
    pub seconds: f64,
    /// Repeats of each set-up layer.
    pub setup_repeats: usize,
    /// Armed full-length runs per fault model.
    pub armed_runs: usize,
}

impl Sizing {
    pub fn full(runs: usize, seconds: f64) -> Sizing {
        Sizing {
            runs,
            replay: 200,
            seconds,
            setup_repeats: 3,
            armed_runs: 6,
        }
    }

    pub fn quick(runs: usize) -> Sizing {
        Sizing {
            runs,
            replay: 12,
            seconds: 0.0,
            setup_repeats: 1,
            armed_runs: 1,
        }
    }
}

/// Draws `n` plans the way the engine's scheduler does, from the public
/// generator: a launch window by length then a fault inside it, or — for a
/// stratified campaign — a stratum by weight then a fault inside it.
fn draw_plans(
    built: &Built,
    cspec: &CampaignSpec,
    layout: Option<&StrataLayout>,
    seed: u64,
    n: usize,
) -> Result<Vec<InjectionPlan>, String> {
    let mut gen = MaskGenerator::new(seed);
    let windows = built.golden.windows(None);
    let total: u64 = windows.iter().map(|w| w.end.saturating_sub(w.start)).sum();
    if total == 0 {
        return Err("golden run has no launch windows".into());
    }
    (0..n)
        .map(|_| match layout {
            None => {
                let mut r = gen.uniform(total);
                let w = windows
                    .iter()
                    .find(|w| {
                        let len = w.end.saturating_sub(w.start);
                        let hit = r < len;
                        r = r.saturating_sub(len);
                        hit
                    })
                    .expect("uniform draw below the total window length");
                let space = built
                    .golden
                    .fault_spaces
                    .get(&w.kernel)
                    .ok_or_else(|| format!("no fault space for kernel `{}`", w.kernel))?;
                gen.draw(cspec, space, std::slice::from_ref(w))
                    .map_err(|e| e.to_string())
            }
            Some(layout) => {
                // 2^53 lots give the draw a weight resolution far below any
                // stratum's share.
                let lots = 1u64 << 53;
                let mut u = gen.uniform(lots) as f64 / lots as f64 * layout.live_weight();
                let stratum = layout
                    .strata
                    .iter()
                    .find(|s| {
                        let hit = u < s.weight;
                        u -= s.weight;
                        hit
                    })
                    .or(layout.strata.last())
                    .ok_or("stratified layout has no live strata")?;
                gen.draw_register_stratum(cspec, &stratum.segments, stratum.reg)
                    .map_err(|e| e.to_string())
            }
        })
        .collect()
}

fn first_cycle(plan: &InjectionPlan) -> u64 {
    plan.faults.iter().map(|f| f.cycle).min().unwrap_or(0)
}

/// Records the checkpoint store the way `run_campaign` does.
fn record_store(built: &Built) -> Result<Arc<CheckpointStore>, String> {
    let interval = (built.golden.total_cycles() / AUTO_CHECKPOINT_TARGET).max(1);
    let mut gpu = Gpu::new(built.card.clone());
    gpu.record_checkpoints(interval, DEFAULT_CHECKPOINT_BUDGET);
    built
        .workload
        .run(&mut gpu)
        .map_err(|e| format!("checkpoint recording pass failed: {e}"))?;
    Ok(Arc::new(gpu.finish_checkpoint_recording()))
}

/// Times `n` cold, full-length runs armed with `plans` (early exit off, so
/// the fault upkeep is paid over the whole execution) and returns
/// nanoseconds per simulated cycle.
fn armed_ns_per_cycle(
    tr: &mut Tracer,
    name: &'static str,
    built: &Built,
    plans: &[InjectionPlan],
) -> f64 {
    let (mut seconds, mut cycles) = (0.0, 0u64);
    for plan in plans {
        let mut gpu = Gpu::new(built.card.clone());
        gpu.arm_faults(plan.clone());
        gpu.set_watchdog(built.golden.total_cycles() * 2);
        gpu.set_early_exit(false);
        // The run's verdict is irrelevant here: a crash or a timeout still
        // simulated the cycles it is divided by.
        let (_verdict, s) = tr.time(name, None, || built.workload.run(&mut gpu));
        seconds += s;
        cycles += gpu.cycle();
    }
    seconds * 1e9 / cycles.max(1) as f64
}

/// One whole campaign inside a span; returns the result and its wall time.
fn campaign(
    tr: &mut Tracer,
    name: &'static str,
    run: impl FnOnce() -> Result<CampaignResult, String>,
) -> Result<(CampaignResult, f64), String> {
    let (result, wall) = tr.time(name, None, run);
    Ok((result?, wall))
}

/// What the rounds of whole campaigns measured.
#[derive(Default)]
struct Rounds {
    trace_overhead: Vec<f64>,
    scale_t2: Vec<f64>,
    prelude_ms: Vec<f64>,
    gaps_ms: Vec<f64>,
    vs_inproc: Vec<f64>,
    worker_rps: Vec<f64>,
    unattributed: Vec<f64>,
    csv_ms_per_1k: Vec<f64>,
    /// Round 0's untraced campaign: the exact counts.
    first: Option<CampaignResult>,
    /// Round 0's served campaign, where the workload has one.
    served: Option<CampaignStats>,
}

/// Runs the traced measurement of `spec` and returns its outcome with the
/// spans behind it.
pub fn run(
    spec: &Spec,
    seed: u64,
    sizing: Sizing,
    contract: &Contract,
) -> Result<(Outcome, Tracer), String> {
    let work = WorkDir::create(&format!("{}-traced", spec.name))?;
    let journal_path = work.0.join("replay.journal.jsonl");
    let campaign_journal = work.0.join("campaign.journal.jsonl");
    let started = Instant::now();
    let mut tr = Tracer::new();
    let root = tr.enter("ledger.traced_run", None);
    let ms = |s: f64| s * 1e3;
    let us = |s: f64| s * 1e6;
    let scaled = |v: Vec<f64>, f: fn(f64) -> f64| v.into_iter().map(f).collect::<Vec<f64>>();

    // ---- set-up layers, one at a time --------------------------------
    let mut built = spec.build()?;
    for _ in 0..sizing.setup_repeats {
        let (golden, _) = tr.time("core.profile", None, || {
            profile(built.workload.as_ref(), &built.card)
        });
        built.golden = golden.map_err(|e| e.to_string())?;
    }
    let golden_cycles = built.golden.total_cycles();
    let golden_instructions = built.golden_instructions();

    let mut errors = Vec::new();
    for _ in 0..sizing.setup_repeats {
        let mut gpu = Gpu::new(built.card.clone());
        let (out, _) = tr.time("workloads.golden_run", None, || {
            built.workload.run(&mut gpu)
        });
        if out.as_ref().ok() != Some(&built.golden.output) {
            errors.push("a fault-free run did not reproduce the golden output".to_string());
        }
    }
    let golden_run_s = median(&tr.durations("workloads.golden_run"));

    for _ in 0..sizing.setup_repeats {
        tr.time("isa.analysis", None, || {
            for k in built.workload.module().kernels() {
                std::hint::black_box((dead_registers(k), dead_bit_masks(k)));
            }
        });
    }

    let mut layout = None;
    if spec.stratified {
        for _ in 0..sizing.setup_repeats {
            let (l, _) = tr.time("core.sampling.strata_build", None, || {
                StrataLayout::build(built.workload.as_ref(), &built.golden, None, None)
            });
            layout = Some(l?);
        }
    }

    let cspec = CampaignSpec::new(spec.structure);
    let draws = sizing.replay.max(1000);
    let (plans, draw_s) = tr.time("faults.draw", None, || {
        draw_plans(&built, &cspec, layout.as_ref(), seed, draws)
    });
    let mut plans = plans?;
    plans.truncate(sizing.replay);
    // The engine executes runs sorted by first injection cycle.
    plans.sort_by_key(first_cycle);

    let mut store = None;
    for _ in 0..sizing.setup_repeats {
        // Drop the previous store first: two would double the footprint.
        drop(store.take());
        let (s, _) = tr.time("sim.snapshot.build", None, || record_store(&built));
        store = Some(s?);
    }
    let store = store.ok_or("no set-up repeats were made")?;

    let transient = armed_ns_per_cycle(
        &mut tr,
        "sim.run.transient",
        &built,
        &plans[..sizing.armed_runs.min(plans.len())],
    );
    // Stuck-at is modelled for the register file on every workload, so the
    // stuck-at upkeep is timed there whatever the campaign targets.
    let stuck_spec = CampaignSpec::new(Structure::RegisterFile).model(FaultModel::StuckAt0);
    let stuck_plans = draw_plans(&built, &stuck_spec, None, seed, sizing.armed_runs)?;
    let stuck = armed_ns_per_cycle(&mut tr, "sim.run.stuck", &built, &stuck_plans);

    // ---- replay: the steps of `one_run`, a span around each -----------
    let serial_cfg = spec.config(sizing.runs, seed, 1, None);
    let journal = RunJournal::create(
        &journal_path.to_string_lossy(),
        campaign_fingerprint(built.workload.name(), &built.card.name, &serial_cfg),
        plans.len(),
    )?;
    let mut replay_cycles = Vec::new();
    for (i, plan) in plans.iter().enumerate() {
        let id = Some(i as u32);
        let one_run = tr.enter("core.campaign.one_run", id);
        let (mut gpu, _) = tr.time("sim.gpu_new", id, || Gpu::new(built.card.clone()));
        let mut skipped = 0;
        if let Some(idx) = store.nearest_at_or_before(first_cycle(plan)) {
            tr.time("sim.snapshot.restore", id, || gpu.resume_from(&store, idx));
            skipped = store.snapshot_cycle(idx);
            replay_cycles.push((first_cycle(plan) - skipped) as f64);
        }
        tr.time("sim.arm_faults", id, || {
            gpu.arm_faults(plan.clone());
            gpu.set_watchdog(golden_cycles * 2);
            gpu.set_early_exit(true);
        });
        let (result, _) = tr.time("sim.run", id, || built.workload.run(&mut gpu));
        let (record, _) = tr.time("core.classify", id, || {
            let applied = gpu.injection_records().iter().any(|r| r.applied);
            let expired = matches!(&result, Err(WorkloadError::Trap(Trap::FaultsExpired)));
            let cycles = gpu.stats().total_cycles().max(gpu.cycle());
            RunRecord {
                effect: if expired {
                    FaultEffect::Masked
                } else {
                    classify(&result, cycles, &built.golden)
                },
                cycles: if expired { golden_cycles } else { cycles },
                applied,
                early_exit: expired,
                ckpt_skipped_cycles: skipped,
                detail: if expired {
                    RunDetail::None
                } else {
                    detail_of(&result)
                },
                stratum: None,
            }
        });
        let (appended, _) = tr.time("core.supervisor.append", id, || journal.append(i, &record));
        appended?;
        tr.time("sim.gpu_drop", id, || drop(gpu));
        tr.exit(one_run);
    }
    let (finalized, finalize_s) = tr.time("core.supervisor.finalize", None, || {
        journal.finalize_canonical()
    });
    finalized?;
    let append_s = tr.durations("core.supervisor.append");
    let replay_run_s = {
        let whole: f64 = tr.durations("core.campaign.one_run").iter().sum();
        let journaled: f64 = append_s.iter().sum();
        let per_run = |total: f64| total / plans.len().max(1) as f64;
        // A campaign that keeps no journal does not pay the appends.
        match spec.engine {
            Engine::Threads2Journal => per_run(whole),
            _ => per_run(whole - journaled),
        }
    };

    // ---- whole campaigns, in rounds ------------------------------------
    let journaled = spec.engine == Engine::Threads2Journal;
    let cfg_at = |seed: u64, threads: usize| -> CampaignConfig {
        spec.config(
            sizing.runs,
            seed,
            threads,
            journaled.then_some(campaign_journal.as_path()),
        )
    };
    let (workload, card, golden) = (built.workload.as_ref(), &built.card, &built.golden);
    let mut rounds = Rounds::default();
    let (mut attempted, mut failed) = (0usize, 0usize);
    for round in 0u64.. {
        let round_seed = repeat_seed(seed, round);
        let (untraced, wall_u) = campaign(&mut tr, "core.campaign.untraced", || {
            run_campaign(workload, card, &cfg_at(round_seed, 1), golden).map_err(|e| e.to_string())
        })?;
        let (csv, csv_s) = tr.time("core.report.csv", None, || campaign_csv(&untraced));
        rounds
            .csv_ms_per_1k
            .push(ms(csv_s) * 1000.0 / sizing.runs as f64);

        // The same campaign with every run's start stamped.
        let stamps: Arc<Mutex<Vec<Instant>>> = Arc::default();
        let hook = {
            let stamps = Arc::clone(&stamps);
            move |_run: usize, _attempt: u32| {
                stamps
                    .lock()
                    .expect("stamp lock poisoned")
                    .push(Instant::now());
            }
        };
        let called = Instant::now();
        let (hooked, wall_a) = campaign(&mut tr, "core.campaign.hooked", || {
            run_campaign_with_hook(workload, card, &cfg_at(round_seed, 1), golden, Some(&hook))
                .map_err(|e| e.to_string())
        })?;
        let stamps = std::mem::take(&mut *stamps.lock().expect("stamp lock poisoned"));
        let prelude_s = stamps
            .first()
            .map_or(wall_a, |&t| (t - called).as_secs_f64());
        rounds.prelude_ms.push(ms(prelude_s));
        rounds
            .gaps_ms
            .extend(stamps.windows(2).map(|w| ms((w[1] - w[0]).as_secs_f64())));
        rounds.trace_overhead.push(wall_a / wall_u);
        let attributed = prelude_s
            + replay_run_s * hooked.stats.simulated_runs as f64
            + if journaled { finalize_s } else { 0.0 };
        rounds.unattributed.push(1.0 - attributed / wall_a);

        let (threaded, wall_c) = campaign(&mut tr, "core.campaign.threads2", || {
            run_campaign(workload, card, &cfg_at(round_seed, 2), golden).map_err(|e| e.to_string())
        })?;
        rounds.scale_t2.push(wall_u / wall_c);

        let mut same_campaign = vec![("hooked", &hooked), ("two-thread", &threaded)];
        let served;
        if spec.engine == Engine::Serve2 {
            let (s, wall_s) = campaign(&mut tr, "core.service.serve2", || {
                serve2(&built, &cfg_at(round_seed, 1))
            })?;
            rounds.vs_inproc.push(wall_c / wall_s);
            let per_worker: Vec<f64> = s
                .stats
                .worker_throughput
                .iter()
                .map(|w| w.runs_per_sec)
                .collect();
            rounds
                .worker_rps
                .push(per_worker.iter().sum::<f64>() / per_worker.len().max(1) as f64);
            served = s;
            same_campaign.push(("served", &served));
            if round == 0 {
                rounds.served = Some(served.stats.clone());
            }
        }

        // Correctness: the untraced campaign is valid, and every other
        // execution of it produced the same bytes.
        attempted += sizing.runs * (1 + same_campaign.len());
        let reference = Delivery {
            setup_s: 0.0,
            run_s: wall_u,
            result: untraced,
            csv,
            golden_cycles,
            golden_instructions,
        };
        match validate(spec, sizing.runs, &reference) {
            Ok(panics) => failed += panics,
            Err(e) => {
                failed += sizing.runs;
                errors.push(format!("round {round}: {e}"));
            }
        }
        for (how, result) in same_campaign {
            if campaign_csv(result) != reference.csv {
                failed += sizing.runs;
                errors.push(format!(
                    "round {round}: the {how} campaign's CSV differs from the untraced one's"
                ));
            }
        }
        if round == 0 {
            rounds.first = Some(reference.result);
        }
        if started.elapsed().as_secs_f64() >= sizing.seconds {
            break;
        }
    }
    tr.exit(root);

    let first = rounds.first.ok_or("no campaign round was made")?;
    let stats = &first.stats;
    if stats.checkpoints != store.len() {
        errors.push(format!(
            "the campaign kept {} checkpoints, the traced recording {}: AUTO_CHECKPOINT_TARGET drifted",
            stats.checkpoints,
            store.len()
        ));
    }
    let service = rounds.served.as_ref();
    let (tail_pct, tail_ms) = tail(&rounds.gaps_ms).unwrap_or((0.0, 0.0));
    let one = |v: f64| Summary::of(&[v]);
    let cycles_per_s = golden_cycles as f64 / golden_run_s;
    let measured = vec![
        (
            "workloads.golden_run_ms",
            Summary::of(&scaled(tr.durations("workloads.golden_run"), ms)),
        ),
        ("sim.mcycles_per_s", one(cycles_per_s / 1e6)),
        (
            "sim.minstr_per_s",
            one(golden_instructions as f64 / golden_run_s / 1e6),
        ),
        ("sim.ns_per_cycle.clean", one(1e9 / cycles_per_s)),
        ("sim.ns_per_cycle.transient", one(transient)),
        ("sim.ns_per_cycle.stuck", one(stuck)),
        (
            "sim.gpu_new_us",
            Summary::of(&scaled(tr.durations("sim.gpu_new"), us)),
        ),
        (
            "sim.snapshot.restore_us",
            Summary::of(&scaled(tr.durations("sim.snapshot.restore"), us)),
        ),
        (
            "sim.snapshot.replay_cycles_mean",
            one(replay_cycles.iter().sum::<f64>() / replay_cycles.len().max(1) as f64),
        ),
        (
            "sim.snapshot.build_ms",
            Summary::of(&scaled(tr.durations("sim.snapshot.build"), ms)),
        ),
        ("sim.snapshot.count", one(store.len() as f64)),
        ("sim.snapshot.bytes", one(store.resident_bytes() as f64)),
        (
            "core.profile.ms",
            Summary::of(&scaled(tr.durations("core.profile"), ms)),
        ),
        (
            "isa.analysis_ms",
            Summary::of(&scaled(tr.durations("isa.analysis"), ms)),
        ),
        ("faults.draw_us", one(us(draw_s) / draws as f64)),
        (
            "core.sampling.strata_build_ms",
            Summary::of(&scaled(tr.durations("core.sampling.strata_build"), ms)),
        ),
        (
            "core.classify.us",
            Summary::of(&scaled(tr.durations("core.classify"), us)),
        ),
        (
            "core.report.csv_ms_per_1k",
            Summary::of(&rounds.csv_ms_per_1k),
        ),
        (
            "core.supervisor.append_us",
            Summary::of(&scaled(append_s, us)),
        ),
        ("core.supervisor.finalize_ms", one(ms(finalize_s))),
        ("core.campaign.prelude_ms", Summary::of(&rounds.prelude_ms)),
        ("core.campaign.run_ms_p50", Summary::of(&rounds.gaps_ms)),
        ("core.campaign.run_ms_tail", one(tail_ms)),
        ("core.campaign.run_tail_pct", one(tail_pct)),
        (
            "core.campaign.unattributed_share",
            Summary::of(&rounds.unattributed),
        ),
        ("core.campaign.scale_t2", Summary::of(&rounds.scale_t2)),
        (
            "core.service.leases",
            one(service.map_or(0.0, |s| s.leases as f64)),
        ),
        (
            "core.service.reissued_leases",
            one(service.map_or(0.0, |s| s.reissued_leases as f64)),
        ),
        (
            "core.service.worker_runs_per_s",
            Summary::of(&rounds.worker_rps),
        ),
        ("core.service.vs_inproc", Summary::of(&rounds.vs_inproc)),
        ("core.stats.applied_rate", one(stats.applied_rate)),
        ("core.stats.early_exit_rate", one(stats.early_exit_rate)),
        ("core.stats.restores", one(stats.restores as f64)),
        (
            "core.stats.mean_skipped_cycles",
            one(stats.mean_skipped_cycles),
        ),
        (
            "core.stats.static_pruned",
            one((stats.static_pruned + stats.static_bit_pruned) as f64),
        ),
        (
            "core.stats.simulated_share",
            one(stats.simulated_runs as f64 / sizing.runs as f64),
        ),
        (
            "core.stats.masked_weight",
            one(first.sampling.as_ref().map_or(0.0, |s| s.masked_weight)),
        ),
        ("core.stats.panics", one(stats.panics as f64)),
        ("core.stats.retries", one(stats.retries as f64)),
        ("trace_overhead", Summary::of(&rounds.trace_overhead)),
    ];
    let self_times = tr
        .self_times()
        .into_iter()
        .map(|(name, s)| (name, Value::Num(ms(s))));
    let outcome = Outcome {
        workload: spec.name.to_string(),
        seed,
        traced: true,
        attempted,
        failed,
        errors,
        readings: readings(&contract.per_layer, measured)?,
        notes: vec![
            (
                "journal_fs".to_string(),
                Value::from(fs_type(Path::new(&work.0))),
            ),
            ("rounds".to_string(), rounds.trace_overhead.len().into()),
            ("replayed_plans".to_string(), plans.len().into()),
            ("self_time_ms".to_string(), crate::json::obj(self_times)),
        ],
    };
    Ok((outcome, tr))
}
