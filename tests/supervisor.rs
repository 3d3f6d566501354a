//! Validation of the fault-tolerant campaign supervisor: per-run panic
//! isolation with retry-once quarantine, and the crash-safe run journal
//! with bit-identical resumption.

use gpufi::core::campaign_csv;
use gpufi::prelude::*;

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("gpufi-supervisor-it");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}", std::process::id()))
        .to_str()
        .unwrap()
        .to_string()
}

/// A journaled campaign interrupted at *any* point — including a torn
/// final line, the classic SIGKILL-mid-write artifact — must resume to a
/// CSV and tally byte-identical to the uninterrupted run, on one worker
/// thread or four.
#[test]
fn resume_is_bit_identical_across_truncations_and_threads() {
    let w = VectorAdd::new(256);
    let card = GpuConfig::rtx2060();
    let golden = profile(&w, &card).unwrap();
    let spec = CampaignSpec::new(Structure::RegisterFile);
    let runs = 200;

    let base_cfg = CampaignConfig::new(spec.clone(), runs, 17).with_threads(1);
    let base = run_campaign(&w, &card, &base_cfg, &golden).unwrap();
    let base_csv = campaign_csv(&base);

    // Journaling itself must not perturb any record.
    let path = tmp("resume.journal.jsonl");
    let journal_cfg = base_cfg.clone().with_journal(path.clone());
    let full = run_campaign(&w, &card, &journal_cfg, &golden).unwrap();
    assert_eq!(campaign_csv(&full), base_csv, "journaling changed records");
    assert_eq!(full.stats.resumed, 0);
    assert!(full.stats.journal_bytes > 0, "no journal bytes accounted");

    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    assert_eq!(lines.len(), runs + 1, "header + one line per run");

    // Truncation points: header only, a short prefix, most of the file,
    // and the complete journal (resume with nothing left to do).
    let prefixes: Vec<String> = vec![
        lines[..1].concat(),
        lines[..51].concat(),
        lines[..181].concat(),
        text.clone(),
    ];
    for (pi, prefix) in prefixes.iter().enumerate() {
        // Clean cut and torn cut (half of the following line survives).
        let mut variants = vec![prefix.clone()];
        if prefix.len() < text.len() {
            let torn = &text[..prefix.len() + 20];
            assert!(!torn.ends_with('\n'));
            variants.push(torn.to_string());
        }
        for (vi, variant) in variants.iter().enumerate() {
            for threads in [1usize, 4] {
                std::fs::write(&path, variant).unwrap();
                let cfg = journal_cfg.clone().with_resume().with_threads(threads);
                let res = run_campaign(&w, &card, &cfg, &golden).unwrap();
                let tag = format!("prefix {pi}, variant {vi}, {threads} thread(s)");
                assert_eq!(campaign_csv(&res), base_csv, "{tag}: CSV diverged");
                assert_eq!(res.tally, base.tally, "{tag}: tally diverged");
                // Complete record lines only: the torn fragment is discarded.
                let expect_resumed = variant
                    .split_inclusive('\n')
                    .filter(|c| c.ends_with('\n'))
                    .count()
                    .saturating_sub(1);
                assert_eq!(res.stats.resumed, expect_resumed, "{tag}: resumed count");
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

/// A panic on the first attempt of one run must be quarantined and
/// retried; when the retry succeeds (a transient failure) the campaign's
/// records are indistinguishable from a clean campaign, and the stats
/// report exactly one caught panic and one retry.
#[test]
fn transient_panic_is_retried_and_leaves_no_trace_in_records() {
    let w = VectorAdd::new(128);
    let card = GpuConfig::rtx2060();
    let golden = profile(&w, &card).unwrap();
    let cfg =
        CampaignConfig::new(CampaignSpec::new(Structure::RegisterFile), 40, 9).with_threads(4);
    let clean = run_campaign(&w, &card, &cfg, &golden).unwrap();

    let hook = |run: usize, attempt: u32| {
        if run == 5 && attempt == 0 {
            panic!("transient supervisor-test failure");
        }
    };
    let res = run_campaign_with_hook(&w, &card, &cfg, &golden, Some(&hook)).unwrap();
    assert_eq!(campaign_csv(&res), campaign_csv(&clean));
    assert_eq!(res.stats.panics, 1);
    assert_eq!(res.stats.retries, 1);
    assert_eq!(clean.stats.panics, 0);
    assert_eq!(clean.stats.retries, 0);
}

/// A deterministic poison run — one that panics on both attempts — must
/// not take down the campaign: every sibling run completes and classifies
/// exactly as in a clean campaign, while the poison run is recorded as
/// Crash with `detail=sim_panic`.  The poison verdict must also round-trip
/// through the journal so a resumed campaign reproduces it bit for bit.
#[test]
fn poison_run_is_crash_sim_panic_and_survives_resume() {
    let w = VectorAdd::new(128);
    let card = GpuConfig::rtx2060();
    let golden = profile(&w, &card).unwrap();
    let path = tmp("poison.journal.jsonl");
    let cfg = CampaignConfig::new(CampaignSpec::new(Structure::RegisterFile), 40, 9)
        .with_threads(4)
        .with_journal(path.clone());
    let clean = run_campaign(&w, &card, &cfg, &golden).unwrap();

    let poison = 7usize;
    let hook = move |run: usize, _attempt: u32| {
        if run == poison {
            panic!("deterministic poison run");
        }
    };
    let res = run_campaign_with_hook(&w, &card, &cfg, &golden, Some(&hook)).unwrap();
    assert_eq!(res.records.len(), 40, "a run went missing");
    let r = &res.records[poison];
    assert_eq!(r.effect, FaultEffect::Crash);
    assert_eq!(r.detail, RunDetail::SimPanic);
    assert_eq!(r.cycles, 0);
    // Two panicking attempts (first + retry), one quarantined run.
    assert_eq!(res.stats.panics, 2);
    assert_eq!(res.stats.retries, 1);
    for (i, (a, b)) in res.records.iter().zip(&clean.records).enumerate() {
        if i != poison {
            assert_eq!(a, b, "sibling run {i} was perturbed by the poison run");
        }
    }

    // The journal now holds the poison verdict; a resume with every run
    // already recorded must reproduce the poisoned CSV without invoking
    // the hook (or the simulator) at all.
    let resumed_cfg = cfg.clone().with_resume();
    let resumed = run_campaign(&w, &card, &resumed_cfg, &golden).unwrap();
    assert_eq!(campaign_csv(&resumed), campaign_csv(&res));
    assert_eq!(resumed.stats.resumed, 40);
    std::fs::remove_file(&path).ok();
}

/// Pre-classification is the first rung of the supervised run, not a
/// stage before scheduling: the fault hook reaches every run index — the
/// ones the default engine pre-classifies included — so
/// `--inject-panic-run` can poison any run.
#[test]
fn fault_hook_reaches_pre_classified_runs() {
    let w = ScalarProd::new(8);
    let card = GpuConfig::rtx2060();
    let golden = profile(&w, &card).unwrap();
    let cfg = CampaignConfig::new(CampaignSpec::new(Structure::RegisterFile), 60, 9);
    let clean = run_campaign(&w, &card, &cfg, &golden).unwrap();
    let pruned = clean
        .records
        .iter()
        .position(|r| matches!(r.detail, RunDetail::StaticDead | RunDetail::StaticDeadBit))
        .expect("SP rf pre-classifies some run");

    let seen = std::sync::Arc::new(std::sync::Mutex::new(vec![false; 60]));
    let hook = {
        let seen = std::sync::Arc::clone(&seen);
        move |run: usize, _attempt: u32| {
            seen.lock().unwrap()[run] = true;
            if run == pruned {
                panic!("poisoned pre-classified run");
            }
        }
    };
    let res = run_campaign_with_hook(&w, &card, &cfg, &golden, Some(&hook)).unwrap();
    assert!(
        seen.lock().unwrap().iter().all(|&s| s),
        "the hook skipped a run"
    );
    assert_eq!(res.records[pruned].detail, RunDetail::SimPanic);
    assert_eq!(res.stats.panics, 2);
    for (i, (a, b)) in res.records.iter().zip(&clean.records).enumerate() {
        if i != pruned {
            assert_eq!(a, b, "run {i}");
        }
    }
}

/// Resuming from a journal written by a *different* campaign (here: a
/// different seed) must fail loudly instead of splicing foreign records.
#[test]
fn resume_rejects_a_foreign_journal() {
    let w = VectorAdd::new(128);
    let card = GpuConfig::rtx2060();
    let golden = profile(&w, &card).unwrap();
    let path = tmp("foreign.journal.jsonl");
    let spec = CampaignSpec::new(Structure::RegisterFile);
    let cfg_a = CampaignConfig::new(spec.clone(), 20, 1).with_journal(path.clone());
    run_campaign(&w, &card, &cfg_a, &golden).unwrap();

    let cfg_b = CampaignConfig::new(spec, 20, 2)
        .with_journal(path.clone())
        .with_resume();
    match run_campaign(&w, &card, &cfg_b, &golden) {
        Err(CampaignError::Journal(msg)) => {
            assert!(msg.contains("different campaign"), "{msg}");
        }
        other => panic!("expected a journal rejection, got {other:?}"),
    }
    // Without --resume the same path is truncated and rewritten instead.
    let cfg_c = CampaignConfig::new(CampaignSpec::new(Structure::RegisterFile), 20, 2)
        .with_journal(path.clone());
    run_campaign(&w, &card, &cfg_c, &golden).unwrap();
    std::fs::remove_file(&path).ok();
}

/// `--resume` against a journal written by a *different* campaign — here
/// the same campaign with one mutated parameter (the seed) — must fail
/// with a `CampaignError::Journal` naming the parameter and both values,
/// never silently restart or splice foreign records into the CSV.
#[test]
fn resume_rejects_mismatched_campaign_fingerprint() {
    let w = VectorAdd::new(128);
    let card = GpuConfig::rtx2060();
    let golden = profile(&w, &card).unwrap();
    let spec = CampaignSpec::new(Structure::RegisterFile);
    let path = tmp("fingerprint-mismatch.journal.jsonl");
    let _ = std::fs::remove_file(&path);

    // Journal a complete campaign at seed 17.
    let original = CampaignConfig::new(spec.clone(), 20, 17)
        .with_threads(1)
        .with_journal(path.clone());
    run_campaign(&w, &card, &original, &golden).unwrap();

    // Resume the "same" campaign with one parameter mutated: a different
    // seed draws different faults, so its records must not be adopted.
    let mutated = CampaignConfig::new(spec, 20, 18)
        .with_threads(1)
        .with_journal(path.clone())
        .with_resume();
    let err = run_campaign(&w, &card, &mutated, &golden)
        .expect_err("resuming a foreign journal must fail");
    let CampaignError::Journal(msg) = &err else {
        panic!("expected CampaignError::Journal, got {err:?}");
    };
    assert_ne!(
        campaign_fingerprint(w.name(), &card.name, &original),
        campaign_fingerprint(w.name(), &card.name, &mutated),
        "seed must enter the fingerprint"
    );
    assert!(
        msg.contains("`seed` is 17 in the journal, 18 here"),
        "error must name the seed and both values: {msg}"
    );
    let _ = std::fs::remove_file(&path);
}

/// A `--config` chip that keeps its base preset's name is still another
/// chip: a journal recorded on the "Mini" chip of `tests/pipeline.rs`
/// without its `name = Mini` line (so named "RTX 2060") must not resume
/// on the real RTX 2060, and the refusal names the `chip` member that
/// differs.
#[test]
fn resume_rejects_a_config_chip_posing_as_its_preset() {
    let w = VectorAdd::new(128);
    let mini = GpuConfig::from_config_text(
        "num_sms = 2\nl1d = 2048:2:128\nl1t = 2048:2:128\nl2 = 16384:4:128\nl2_banks = 2\n",
    )
    .unwrap();
    let rtx = GpuConfig::rtx2060();
    assert_eq!(mini.name, rtx.name);
    let path = tmp("chip-mismatch.journal.jsonl");
    let cfg = CampaignConfig::new(CampaignSpec::new(Structure::L2), 40, 3)
        .with_threads(1)
        .with_journal(path.clone());
    run_campaign(&w, &mini, &cfg, &profile(&w, &mini).unwrap()).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let cut: String = text.split_inclusive('\n').take(21).collect();
    std::fs::write(&path, cut).unwrap();

    let resumed = cfg.clone().with_resume();
    let err = run_campaign(&w, &rtx, &resumed, &profile(&w, &rtx).unwrap())
        .expect_err("a Mini journal must not resume on the RTX 2060");
    let CampaignError::Journal(msg) = &err else {
        panic!("expected CampaignError::Journal, got {err:?}");
    };
    assert!(
        msg.contains("`chip.num_sms` is 2 in the journal, 30 here"),
        "{msg}"
    );
    std::fs::remove_file(&path).ok();
}
