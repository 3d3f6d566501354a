//! Chaos-test harness for the distributed campaign service: in-process
//! coordinator + worker threads over loopback TCP, with fault-point
//! hooks on both sides ([`ChaosPlan`], [`CoordinatorChaos`]).
//!
//! The invariant under test everywhere: **no failure mode may make the
//! distributed output differ from a serial `--threads 1` run** — not
//! worker death, not a stalled heartbeat, not a torn frame, not a
//! duplicated ack, not a killed-and-resumed coordinator.

use gpufi::core::{campaign_csv, json};
use gpufi::prelude::*;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("gpufi-service-it");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}", std::process::id()))
        .to_str()
        .unwrap()
        .to_string()
}

/// Runs one distributed campaign on loopback: a coordinator thread plus
/// one worker thread per [`ChaosPlan`].  Returns the coordinator's result
/// and every worker's report.
#[allow(clippy::type_complexity)]
fn run_distributed(
    w: &dyn Workload,
    card: &GpuConfig,
    cfg: &CampaignConfig,
    golden: &GoldenProfile,
    svc: &ServiceConfig,
    chaos: &[ChaosPlan],
    coord: Option<CoordinatorChaos>,
) -> (
    Result<CampaignResult, ServiceError>,
    Vec<Result<WorkerReport, ServiceError>>,
) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    thread::scope(|s| {
        let coordinator = s.spawn(|| {
            serve_campaign_with_chaos(w, card, cfg, golden, svc, listener, coord.as_ref())
        });
        let workers: Vec<_> = chaos
            .iter()
            .map(|c| {
                let addr = addr.clone();
                s.spawn(move || run_worker_with_chaos(&addr, w, card, cfg, golden, svc, c))
            })
            .collect();
        let coord_res = coordinator.join().unwrap();
        let worker_res = workers.into_iter().map(|h| h.join().unwrap()).collect();
        (coord_res, worker_res)
    })
}

fn quick_svc() -> ServiceConfig {
    ServiceConfig {
        lease_size: 4,
        heartbeat_ms: 50,
        deadline_ms: 2_000,
    }
}

/// The run index of one journal record line; `None` for a torn line.
fn run_of(line: &str) -> Option<usize> {
    json::parse(line).ok()?.get("run")?.as_num()
}

/// The acceptance scenario: a GE register-file campaign dispatched to two
/// loopback workers, one of which is killed mid-campaign so its lease is
/// reissued — CSV, tally **and journal file bytes** must match the
/// single-process serial run.
#[test]
fn ge_distributed_with_worker_kill_is_bit_identical_to_serial() {
    let w = Gaussian::new();
    let card = GpuConfig::rtx2060();
    let golden = profile(&w, &card).unwrap();
    let runs = 40;
    let cfg =
        CampaignConfig::new(CampaignSpec::new(Structure::RegisterFile), runs, 7).with_threads(1);

    let serial_journal = tmp("ge-serial.journal.jsonl");
    let serial_cfg = cfg.clone().with_journal(serial_journal.clone());
    let serial = run_campaign(&w, &card, &serial_cfg, &golden).unwrap();
    let serial_csv = campaign_csv(&serial);

    let dist_journal = tmp("ge-dist.journal.jsonl");
    let dist_cfg = cfg.clone().with_journal(dist_journal.clone());
    let plans = [
        ChaosPlan::default(),
        ChaosPlan {
            kill_after_acks: Some(2),
            ..ChaosPlan::default()
        },
    ];
    let (res, workers) = run_distributed(&w, &card, &dist_cfg, &golden, &quick_svc(), &plans, None);
    let res = res.unwrap();

    assert_eq!(campaign_csv(&res), serial_csv, "distributed CSV diverged");
    assert_eq!(res.tally, serial.tally, "distributed tally diverged");
    assert_eq!(
        std::fs::read_to_string(&dist_journal).unwrap(),
        std::fs::read_to_string(&serial_journal).unwrap(),
        "distributed journal bytes diverged from serial"
    );
    // The healthy worker survived to Fin; the killed one died by plan.
    assert!(workers[0].is_ok(), "healthy worker: {workers:?}");
    assert_eq!(workers[1], Err(ServiceError::Chaos));
    assert_eq!(res.stats.workers, 2);
    assert!(
        res.stats.reissued_leases >= 1,
        "killed worker's lease was not reissued: {:?}",
        res.stats
    );
    assert_eq!(res.stats.worker_throughput.len(), 2);
    assert_eq!(
        res.stats
            .worker_throughput
            .iter()
            .map(|t| t.runs)
            .sum::<usize>()
            + res
                .records
                .iter()
                .filter(|r| r.detail == RunDetail::StaticDead)
                .count(),
        runs,
        "per-worker run credit must cover every non-pruned run"
    );
    std::fs::remove_file(&serial_journal).ok();
    std::fs::remove_file(&dist_journal).ok();
}

/// The chaos matrix: every worker-side fault plan — death, stalled
/// heartbeat, torn frame, duplicated ack — plus a stratified-sampling
/// variant, all proven byte-identical to serial.
#[test]
fn chaos_matrix_is_bit_identical_to_serial() {
    let w = VectorAdd::new(256);
    let card = GpuConfig::rtx2060();
    let golden = profile(&w, &card).unwrap();
    let runs = 48;
    let flat =
        CampaignConfig::new(CampaignSpec::new(Structure::RegisterFile), runs, 21).with_threads(1);
    let strat = flat.clone().stratified();
    let serial_flat = campaign_csv(&run_campaign(&w, &card, &flat, &golden).unwrap());
    let serial_strat = campaign_csv(&run_campaign(&w, &card, &strat, &golden).unwrap());

    struct Case {
        name: &'static str,
        plan: ChaosPlan,
        stratified: bool,
        deadline_ms: u64,
    }
    let cases = [
        Case {
            name: "kill-after-3-acks",
            plan: ChaosPlan {
                kill_after_acks: Some(3),
                ..ChaosPlan::default()
            },
            stratified: false,
            deadline_ms: 2_000,
        },
        Case {
            name: "stalled-heartbeat",
            plan: ChaosPlan {
                suppress_heartbeat: true,
                delay_before_ack: Some((1, 1_500)),
                ..ChaosPlan::default()
            },
            stratified: false,
            deadline_ms: 300,
        },
        Case {
            name: "torn-frame",
            plan: ChaosPlan {
                torn_frame_at: Some(1),
                ..ChaosPlan::default()
            },
            stratified: false,
            deadline_ms: 2_000,
        },
        Case {
            name: "duplicate-ack",
            plan: ChaosPlan {
                duplicate_ack_at: Some(0),
                ..ChaosPlan::default()
            },
            stratified: false,
            deadline_ms: 2_000,
        },
        Case {
            name: "stratified-kill",
            plan: ChaosPlan {
                kill_after_acks: Some(2),
                ..ChaosPlan::default()
            },
            stratified: true,
            deadline_ms: 2_000,
        },
    ];
    for case in &cases {
        let cfg = if case.stratified { &strat } else { &flat };
        let serial_csv = if case.stratified {
            &serial_strat
        } else {
            &serial_flat
        };
        let svc = ServiceConfig {
            deadline_ms: case.deadline_ms,
            ..quick_svc()
        };
        let plans = [ChaosPlan::default(), case.plan];
        let (res, _workers) = run_distributed(&w, &card, cfg, &golden, &svc, &plans, None);
        let res = res.unwrap();
        assert_eq!(
            &campaign_csv(&res),
            serial_csv,
            "{}: distributed CSV diverged",
            case.name
        );
        match case.name {
            "torn-frame" | "kill-after-3-acks" | "stalled-heartbeat" => assert!(
                res.stats.reissued_leases >= 1,
                "{}: lease was not reissued ({:?})",
                case.name,
                res.stats
            ),
            "duplicate-ack" => assert!(
                res.stats.duplicate_acks >= 1,
                "{}: duplicate ack was not counted ({:?})",
                case.name,
                res.stats
            ),
            _ => {}
        }
    }
}

/// Handshake rejection, coordinator side: a worker whose config draws a
/// different campaign (another seed, another fault model) is refused with
/// a clean `Rejected` naming the parameter, a v3 worker's hello is
/// answered with a reject frame, and the campaign still completes via a
/// correct worker.  A connection that speaks garbage must not hurt either.
#[test]
fn coordinator_rejects_mismatched_worker_and_survives_garbage() {
    let w = VectorAdd::new(128);
    let card = GpuConfig::rtx2060();
    let golden = profile(&w, &card).unwrap();
    let spec = CampaignSpec::new(Structure::RegisterFile);
    let cfg = CampaignConfig::new(spec.clone(), 16, 3).with_threads(1);
    let wrong_seed = CampaignConfig::new(spec.clone(), 16, 4).with_threads(1);
    let wrong_model = CampaignConfig::new(spec.model(FaultModel::StuckAt1), 16, 3).with_threads(1);
    let serial_csv = campaign_csv(&run_campaign(&w, &card, &cfg, &golden).unwrap());

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let svc = quick_svc();
    let (w, card, cfg, golden, svc) = (&w, &card, &cfg, &golden, &svc);
    let (coord_res, v3_reply, mismatched, good) = thread::scope(|s| {
        let coordinator = s.spawn(|| serve_campaign(w, card, cfg, golden, svc, listener));
        // Garbage first: random bytes, then a clean close.
        {
            let mut garbage = TcpStream::connect(&addr).unwrap();
            let _ = garbage.write_all(b"\x00\xffGET / HTTP/1.1\r\n\r\n#no\n");
        }
        // A v3 hello carries no campaign description.
        let v3_reply = {
            let mut v3 = TcpStream::connect(&addr).unwrap();
            let hello = r#"{"type":"hello","proto":3,"fingerprint":"00000000deadbeef","runs":16,"model":"transient"}"#;
            let frame = format!("#{}\n{hello}\n", hello.len() + 1);
            v3.write_all(frame.as_bytes()).unwrap();
            let mut reply = String::new();
            let _ = v3.read_to_string(&mut reply);
            reply
        };
        // Both are answered before the good worker exists: a fast campaign
        // could otherwise finish, and close the listener, before their
        // hellos are read.
        let mismatched: Vec<_> = [&wrong_seed, &wrong_model]
            .into_iter()
            .map(|wrong| {
                let addr = addr.clone();
                s.spawn(move || run_worker(&addr, w, card, wrong, golden, svc))
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect();
        let good = {
            let addr = addr.clone();
            s.spawn(move || run_worker(&addr, w, card, cfg, golden, svc))
        };
        (
            coordinator.join().unwrap(),
            v3_reply,
            mismatched,
            good.join().unwrap(),
        )
    });
    let res = coord_res.unwrap();
    assert_eq!(campaign_csv(&res), serial_csv);
    assert!(
        v3_reply.contains(r#"{"type":"reject","reason":"expected a protocol v5 hello frame"}"#),
        "v3 hello answered with {v3_reply:?}"
    );
    let expected = [
        "different campaign: `seed` is 3 at the coordinator, 4 at the worker",
        "different campaign: `model` is \"transient\" at the coordinator, \"stuck-at-1\" at the worker",
    ];
    for (out, want) in mismatched.into_iter().zip(expected) {
        match out {
            Err(ServiceError::Rejected(reason)) => assert_eq!(reason, want),
            other => panic!("mismatched worker should be rejected, got {other:?}"),
        }
    }
    assert!(good.is_ok(), "correct worker failed: {good:?}");
}

/// A served worker returns as soon as it reads `fin`, not one heartbeat
/// later: with a 5 s heartbeat it must return within 1 s of the
/// coordinator, where it used to wait out its heartbeat thread's sleep.
#[test]
fn worker_returns_on_fin_not_a_heartbeat_later() {
    let w = VectorAdd::new(128);
    let card = GpuConfig::rtx2060();
    let golden = profile(&w, &card).unwrap();
    let cfg =
        CampaignConfig::new(CampaignSpec::new(Structure::RegisterFile), 12, 17).with_threads(1);
    let svc = ServiceConfig {
        heartbeat_ms: 5_000,
        deadline_ms: 20_000,
        ..quick_svc()
    };
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let (w, card, cfg, golden, svc) = (&w, &card, &cfg, &golden, &svc);
    let (served_at, worker_at) = thread::scope(|s| {
        let worker = s.spawn(move || {
            let report = run_worker(&addr, w, card, cfg, golden, svc);
            (report, Instant::now())
        });
        serve_campaign(w, card, cfg, golden, svc, listener).unwrap();
        let served_at = Instant::now();
        let (report, worker_at) = worker.join().unwrap();
        assert!(report.is_ok(), "worker: {report:?}");
        (served_at, worker_at)
    });
    let lag = worker_at.saturating_duration_since(served_at);
    assert!(
        lag < Duration::from_secs(1),
        "worker returned {lag:?} after the coordinator"
    );
}

/// Handshake rejection, worker side: a coordinator that welcomes us with
/// a *different* campaign description (the stale-coordinator direction)
/// is refused by the worker even though it accepted the connection, and
/// the error names the parameter.
#[test]
fn worker_rejects_mismatched_coordinator() {
    let w = VectorAdd::new(128);
    let card = GpuConfig::rtx2060();
    let golden = profile(&w, &card).unwrap();
    let cfg = CampaignConfig::new(CampaignSpec::new(Structure::RegisterFile), 8, 5).with_threads(1);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let fake = thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        // Drain the worker's hello, then welcome it to the wrong campaign.
        let mut buf = [0u8; 1024];
        let _ = stream.read(&mut buf);
        let payload =
            r#"{"type":"welcome","campaign":{"workload":"VA","card":"RTX 2060","seed":6}}"#;
        let frame = format!("#{}\n{payload}\n", payload.len() + 1);
        stream.write_all(frame.as_bytes()).unwrap();
    });
    let out = run_worker(&addr, &w, &card, &cfg, &golden, &ServiceConfig::default());
    fake.join().unwrap();
    match out {
        Err(ServiceError::Protocol(msg)) => assert_eq!(
            msg,
            "different campaign: `seed` is 6 at the coordinator, 5 here"
        ),
        other => panic!("worker should refuse the fake coordinator, got {other:?}"),
    }
}

/// Coordinator resume: the coordinator "SIGKILLs" mid-campaign (chaos
/// hook after K merges), restarts with `--resume`, and the second
/// generation must (a) never re-execute a journaled run, (b) finish with
/// CSV/tally/journal byte-identical to an uninterrupted serial run.
#[test]
fn coordinator_resume_after_death_executes_no_run_twice() {
    let w = VectorAdd::new(256);
    let card = GpuConfig::rtx2060();
    let golden = profile(&w, &card).unwrap();
    let runs = 48;
    let base =
        CampaignConfig::new(CampaignSpec::new(Structure::RegisterFile), runs, 11).with_threads(1);

    let serial_journal = tmp("resume-serial.journal.jsonl");
    let serial = run_campaign(
        &w,
        &card,
        &base.clone().with_journal(serial_journal.clone()),
        &golden,
    )
    .unwrap();
    let serial_csv = campaign_csv(&serial);

    // Phase 1: coordinator dies after 10 merges.
    let dist_journal = tmp("resume-dist.journal.jsonl");
    std::fs::remove_file(&dist_journal).ok();
    let cfg = base.clone().with_journal(dist_journal.clone());
    let (dead, _workers) = run_distributed(
        &w,
        &card,
        &cfg,
        &golden,
        &quick_svc(),
        &[ChaosPlan::default()],
        Some(CoordinatorChaos {
            die_after_merges: 10,
        }),
    );
    assert_eq!(dead.unwrap_err(), ServiceError::Chaos);

    // The dead coordinator's journal: complete lines survive, and they
    // are exactly the runs the second generation must skip.
    let text = std::fs::read_to_string(&dist_journal).unwrap();
    let journaled: Vec<usize> = text.lines().skip(1).filter_map(run_of).collect();
    assert!(
        journaled.len() >= 10,
        "journal holds {} records, expected >= 10 merges",
        journaled.len()
    );

    // Phase 2: restart with --resume; one fresh worker finishes the rest.
    let resume_cfg = cfg.clone().with_resume();
    let (res, workers) = run_distributed(
        &w,
        &card,
        &resume_cfg,
        &golden,
        &quick_svc(),
        &[ChaosPlan::default()],
        None,
    );
    let res = res.unwrap();
    let report = workers.into_iter().next().unwrap().unwrap();

    assert_eq!(res.stats.resumed, journaled.len(), "resume skipped runs");
    for i in &report.run_indices {
        assert!(
            !journaled.contains(i),
            "run {i} was executed twice (journaled in phase 1, re-run in phase 2)"
        );
    }
    assert_eq!(campaign_csv(&res), serial_csv, "resumed CSV diverged");
    assert_eq!(res.tally, serial.tally, "resumed tally diverged");
    assert_eq!(
        std::fs::read_to_string(&dist_journal).unwrap(),
        std::fs::read_to_string(&serial_journal).unwrap(),
        "resumed journal bytes diverged from serial"
    );
    // Dedup by run index: the final journal covers 0..runs exactly once.
    let final_text = std::fs::read_to_string(&dist_journal).unwrap();
    let mut seen: Vec<usize> = final_text.lines().skip(1).filter_map(run_of).collect();
    seen.sort_unstable();
    assert_eq!(seen, (0..runs).collect::<Vec<_>>());
    std::fs::remove_file(&serial_journal).ok();
    std::fs::remove_file(&dist_journal).ok();
}

/// Eight loopback workers hammering the coordinator exercises the
/// single-writer journal channel end to end: every line lands intact, in
/// canonical order, byte-identical to serial.
#[test]
fn eight_loopback_workers_share_one_journal_writer() {
    let w = VectorAdd::new(128);
    let card = GpuConfig::rtx2060();
    let golden = profile(&w, &card).unwrap();
    let runs = 64;
    let cfg =
        CampaignConfig::new(CampaignSpec::new(Structure::RegisterFile), runs, 13).with_threads(1);

    let serial_journal = tmp("hammer-serial.journal.jsonl");
    let serial = run_campaign(
        &w,
        &card,
        &cfg.clone().with_journal(serial_journal.clone()),
        &golden,
    )
    .unwrap();

    let dist_journal = tmp("hammer-dist.journal.jsonl");
    let dist_cfg = cfg.clone().with_journal(dist_journal.clone());
    // lease_size 1 maximizes concurrent merges across the 8 connections.
    let svc = ServiceConfig {
        lease_size: 1,
        ..quick_svc()
    };
    let plans = vec![ChaosPlan::default(); 8];
    let (res, workers) = run_distributed(&w, &card, &dist_cfg, &golden, &svc, &plans, None);
    let res = res.unwrap();
    for (i, wres) in workers.iter().enumerate() {
        assert!(wres.is_ok(), "worker {i}: {wres:?}");
    }
    assert_eq!(campaign_csv(&res), campaign_csv(&serial));
    assert_eq!(
        std::fs::read_to_string(&dist_journal).unwrap(),
        std::fs::read_to_string(&serial_journal).unwrap(),
        "8-worker journal diverged from serial"
    );
    assert_eq!(res.stats.workers, 8);
    std::fs::remove_file(&serial_journal).ok();
    std::fs::remove_file(&dist_journal).ok();
}

/// Pinned labels across all three executors: each campaign of the table
/// runs on 1 thread, on 4 threads and through `serve` + 2 workers, each
/// with a journal, and must produce identical CSV bytes, identical
/// canonical journal bytes and exactly the pre-classification label counts
/// measured before the executors shared one `prepare`/`finish` — the
/// register-dead / bit-dead split must not move when the register-level
/// table is read off the dead-bit masks, nor under stuck-at (register
/// granularity only), nor under stratification (nothing pre-classified,
/// every record carries its stratum).  The resume row starts all three
/// executors from the same journal cut mid-campaign (torn tail included),
/// so the shared stages are exercised on the resume path from both callers.
#[test]
fn pinned_labels_hold_across_all_three_executors() {
    struct Row {
        name: &'static str,
        bench: &'static str,
        cfg: CampaignConfig,
        static_dead: usize,
        static_dead_bit: usize,
        /// Resume every executor from the reference journal cut after
        /// this many records.
        resume_after: Option<usize>,
    }
    let rf = || CampaignSpec::new(Structure::RegisterFile);
    let rows = [
        Row {
            name: "nw-flat",
            bench: "NW",
            cfg: CampaignConfig::new(rf(), 300, 11),
            static_dead: 32,
            static_dead_bit: 5,
            resume_after: None,
        },
        Row {
            name: "sp-stuck-at-1",
            bench: "SP",
            cfg: CampaignConfig::new(rf().model(FaultModel::StuckAt1), 60, 9),
            static_dead: 1,
            static_dead_bit: 0,
            resume_after: None,
        },
        Row {
            name: "nw-stratified",
            bench: "NW",
            cfg: CampaignConfig::new(rf(), 120, 11).stratified(),
            static_dead: 0,
            static_dead_bit: 0,
            resume_after: None,
        },
        Row {
            name: "nw-resume",
            bench: "NW",
            cfg: CampaignConfig::new(rf(), 300, 11),
            static_dead: 32,
            static_dead_bit: 5,
            resume_after: Some(120),
        },
    ];
    let card = GpuConfig::rtx2060();
    for row in &rows {
        let w = by_name(row.bench).unwrap();
        let golden = profile(w.as_ref(), &card).unwrap();
        let run = |executor: &str, cfg: CampaignConfig| match executor {
            "1 thread" => run_campaign(w.as_ref(), &card, &cfg.with_threads(1), &golden).unwrap(),
            "4 threads" => run_campaign(w.as_ref(), &card, &cfg.with_threads(4), &golden).unwrap(),
            _ => {
                let plans = [ChaosPlan::default(); 2];
                let (res, workers) =
                    run_distributed(w.as_ref(), &card, &cfg, &golden, &quick_svc(), &plans, None);
                assert!(
                    workers.iter().all(Result::is_ok),
                    "{}: {workers:?}",
                    row.name
                );
                res.unwrap()
            }
        };

        // The reference: one thread, uninterrupted.
        let ref_path = tmp(&format!("{}-ref.journal.jsonl", row.name));
        let reference = run("1 thread", row.cfg.clone().with_journal(ref_path.clone()));
        let ref_csv = campaign_csv(&reference);
        let ref_journal = std::fs::read_to_string(&ref_path).unwrap();
        let count = |d: RunDetail| reference.records.iter().filter(|r| r.detail == d).count();
        assert_eq!(
            count(RunDetail::StaticDead),
            row.static_dead,
            "{}",
            row.name
        );
        assert_eq!(
            count(RunDetail::StaticDeadBit),
            row.static_dead_bit,
            "{}",
            row.name
        );
        let stratified = row.cfg.sampling == SamplingMode::Stratified;
        assert!(
            reference
                .records
                .iter()
                .all(|r| r.stratum.is_some() == stratified),
            "{}: stratum column",
            row.name
        );

        // The journal every executor starts from when resuming: the
        // reference cut after `keep` records, half of the next line torn.
        let cut = row.resume_after.map(|keep| {
            let lines: Vec<&str> = ref_journal.split_inclusive('\n').collect();
            let torn = lines[keep + 1];
            lines[..=keep].concat() + &torn[..torn.len() / 2]
        });
        let executors: &[&str] = match cut {
            Some(_) => &["1 thread", "4 threads", "serve + 2 workers"],
            None => &["4 threads", "serve + 2 workers"],
        };
        for (e, executor) in executors.iter().enumerate() {
            let tag = format!("{} on {executor}", row.name);
            let path = tmp(&format!("{}-{e}.journal.jsonl", row.name));
            let mut cfg = row.cfg.clone().with_journal(path.clone());
            if let Some(text) = &cut {
                std::fs::write(&path, text).unwrap();
                cfg = cfg.with_resume();
            }
            let res = run(executor, cfg);
            assert_eq!(campaign_csv(&res), ref_csv, "{tag}: CSV diverged");
            assert_eq!(
                std::fs::read_to_string(&path).unwrap(),
                ref_journal,
                "{tag}: journal bytes diverged"
            );
            assert_eq!(
                res.stats.resumed,
                row.resume_after.unwrap_or(0),
                "{tag}: resumed"
            );
            std::fs::remove_file(&path).ok();
        }
        std::fs::remove_file(&ref_path).ok();
    }
}
