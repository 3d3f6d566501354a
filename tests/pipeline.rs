//! Cross-crate integration tests: the full profile → inject → classify →
//! aggregate pipeline through the public façade.

use gpufi::prelude::*;

#[test]
fn golden_profile_captures_windows_and_spaces() {
    let w = Srad1::default();
    let golden = profile(&w, &GpuConfig::rtx2060()).unwrap();
    // SRAD1 launches three static kernels, twice each (two iterations).
    assert_eq!(golden.app.static_kernels().len(), 3);
    for k in golden.app.static_kernels() {
        assert_eq!(golden.app.windows_of(&k).len(), 2, "kernel {k}");
        assert!(golden.fault_spaces.contains_key(&k));
    }
    assert!(golden.total_cycles() > 0);
}

#[test]
fn campaign_is_deterministic_across_thread_counts() {
    let w = VectorAdd::new(256);
    let card = GpuConfig::rtx2060();
    let golden = profile(&w, &card).unwrap();
    let spec = CampaignSpec::new(Structure::RegisterFile);
    let serial = run_campaign(
        &w,
        &card,
        &CampaignConfig::new(spec.clone(), 10, 3).with_threads(1),
        &golden,
    )
    .unwrap();
    let parallel = run_campaign(
        &w,
        &card,
        &CampaignConfig::new(spec, 10, 3).with_threads(4),
        &golden,
    )
    .unwrap();
    assert_eq!(serial.records, parallel.records);
    assert_eq!(serial.tally, parallel.tally);
}

#[test]
fn different_seeds_differ() {
    let w = VectorAdd::new(256);
    let card = GpuConfig::rtx2060();
    let golden = profile(&w, &card).unwrap();
    let spec = CampaignSpec::new(Structure::RegisterFile);
    let a = run_campaign(
        &w,
        &card,
        &CampaignConfig::new(spec.clone(), 12, 1),
        &golden,
    )
    .unwrap();
    let b = run_campaign(&w, &card, &CampaignConfig::new(spec, 12, 2), &golden).unwrap();
    assert_ne!(a.records, b.records, "seeds must drive the campaign");
}

#[test]
fn titan_rejects_l1d_campaigns() {
    let w = VectorAdd::new(256);
    let card = GpuConfig::gtx_titan();
    let golden = profile(&w, &card).unwrap();
    let cfg = CampaignConfig::new(CampaignSpec::new(Structure::L1Data), 4, 1);
    let err = run_campaign(&w, &card, &cfg, &golden).unwrap_err();
    assert!(err.to_string().contains("L1 data cache"), "{err}");
}

/// Zero runs would estimate every class rate, and so the AVF and FIT, as
/// zero: the draw every executor goes through refuses them.
#[test]
fn zero_run_campaigns_are_refused() {
    let w = VectorAdd::new(256);
    let card = GpuConfig::rtx2060();
    let golden = profile(&w, &card).unwrap();
    let cfg = CampaignConfig::new(CampaignSpec::new(Structure::RegisterFile), 0, 1);
    let err = run_campaign(&w, &card, &cfg, &golden).unwrap_err();
    assert_eq!(err, CampaignError::NoRuns);
    assert!(err.to_string().contains("at least one run"), "{err}");
    let stratified = cfg.stratified();
    let err = run_campaign(&w, &card, &stratified, &golden).unwrap_err();
    assert_eq!(err, CampaignError::NoRuns);
    let err = analyze(&w, &card, &AnalysisConfig::new(0, 1), &golden).unwrap_err();
    assert_eq!(err, CampaignError::NoRuns);
}

#[test]
fn kernel_scoped_campaign_validates_kernel_name() {
    let w = VectorAdd::new(256);
    let card = GpuConfig::rtx2060();
    let golden = profile(&w, &card).unwrap();
    let cfg = CampaignConfig::new(CampaignSpec::new(Structure::L2), 4, 1).for_kernel("nope");
    assert!(run_campaign(&w, &card, &cfg, &golden).is_err());
    let cfg = CampaignConfig::new(CampaignSpec::new(Structure::L2), 4, 1).for_kernel("vec_add");
    assert!(run_campaign(&w, &card, &cfg, &golden).is_ok());
}

#[test]
fn masked_dominates_l2_for_tiny_footprints() {
    // VA touches ~48 KB of a 3 MB L2: almost every random L2 bit lands on
    // an invalid or dead line, so the failure ratio must be small.
    let w = VectorAdd::new(256);
    let card = GpuConfig::rtx2060();
    let golden = profile(&w, &card).unwrap();
    let cfg = CampaignConfig::new(CampaignSpec::new(Structure::L2), 20, 5);
    let r = run_campaign(&w, &card, &cfg, &golden).unwrap();
    assert!(
        r.tally.failure_ratio() < 0.5,
        "L2 failure ratio suspiciously high: {}",
        r.tally
    );
}

#[test]
fn analysis_invariants_hold() {
    let w = ScalarProd::new(8);
    let card = GpuConfig::rtx2060();
    let golden = profile(&w, &card).unwrap();
    let cfg = AnalysisConfig::new(6, 11);
    let analysis = analyze(&w, &card, &cfg, &golden).unwrap();
    assert!(
        (0.0..=1.0).contains(&analysis.wavf),
        "wavf {}",
        analysis.wavf
    );
    assert!((0.0..=1.0).contains(&analysis.occupancy));
    assert!(analysis.fit >= 0.0);
    assert_eq!(analysis.structures.len(), 5);
    // The chip FIT is §VI.F's sum over the analysis' own per-structure
    // AVFs and sizes.
    let fit_inputs: Vec<(f64, u64)> = analysis
        .structures
        .iter()
        .map(|s| (s.rates.failure_rate(), s.size_bits))
        .collect();
    assert_eq!(
        analysis.fit,
        chip_fit(&fit_inputs, raw_fit_per_bit(card.process_nm))
    );
    let share_sum: f64 = analysis.avf_shares().iter().map(|(_, s)| s).sum();
    assert!(
        analysis.avf_shares().is_empty() || (share_sum - 1.0).abs() < 1e-9,
        "shares sum to {share_sum}"
    );
    // Per-structure derated rates are probabilities.
    for s in &analysis.structures {
        assert!(
            (0.0..=1.0).contains(&s.rates.failure_rate()),
            "{:?}",
            s.rates
        );
    }
}

#[test]
fn warp_scope_campaigns_run() {
    let w = VectorAdd::new(256);
    let card = GpuConfig::rtx2060();
    let golden = profile(&w, &card).unwrap();
    let spec = CampaignSpec::new(Structure::RegisterFile)
        .warp_scope()
        .bits(2);
    let r = run_campaign(&w, &card, &CampaignConfig::new(spec, 10, 4), &golden).unwrap();
    assert_eq!(r.tally.total(), 10);
    // Warp-scope faults hit 32 threads; they should fail at least as often
    // as they mask entirely... statistically, so just require they applied.
    assert!(r.records.iter().any(|rec| rec.applied));
}

#[test]
fn multi_structure_plan_applies_both() {
    // Build a plan by hand that hits register file and L2 in the same run
    // (Table IV: "different hardware structures simultaneously").
    let w = VectorAdd::new(256);
    let card = GpuConfig::rtx2060();
    let golden = profile(&w, &card).unwrap();
    let cycle = golden.total_cycles() / 2;
    let plan = InjectionPlan {
        model: FaultModel::Transient,
        faults: vec![
            gpufi_sim::PlannedFault {
                cycle,
                target: FaultTarget::RegisterFile {
                    scope: Scope::Thread,
                    entry_lot: 1,
                    reg: 0,
                    bits: vec![3],
                },
            },
            gpufi_sim::PlannedFault {
                cycle,
                target: FaultTarget::L2 { bits: vec![1000] },
            },
        ],
    };
    let mut gpu = Gpu::new(card);
    gpu.arm_faults(plan);
    gpu.set_watchdog(golden.total_cycles() * 2);
    let _ = w.run(&mut gpu);
    assert_eq!(gpu.injection_records().len(), 2);
}

#[test]
fn every_benchmark_profiles_on_every_card() {
    for card in GpuConfig::paper_cards() {
        for w in paper_suite() {
            let golden = profile(w.as_ref(), &card)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", w.name(), card.name));
            assert!(golden.total_cycles() > 0);
            assert!(!golden.output.is_empty());
        }
    }
}

#[test]
fn ace_estimate_is_a_sane_probability() {
    let w = HotSpot::default();
    let golden = profile(&w, &GpuConfig::rtx2060()).unwrap();
    for l in &golden.app.launches {
        let ace = l.ace_rf_avf();
        assert!((0.0..=1.0).contains(&ace), "ace {ace}");
        assert!(ace > 0.0, "a real kernel has live registers");
        assert!(l.thread_cycles > 0);
    }
}

#[test]
fn ace_overestimates_injection_for_most_benchmarks() {
    // The paper's §II.C claim, as a regression test on two benchmarks with
    // fixed seeds.
    let card = GpuConfig::rtx2060();
    for name in ["VA", "HS"] {
        let w = by_name(name).unwrap();
        let golden = profile(w.as_ref(), &card).unwrap();
        let ace_cycles: u64 = golden.app.launches.iter().map(|l| l.ace_reg_cycles).sum();
        let total: f64 = golden
            .app
            .launches
            .iter()
            .map(|l| l.thread_cycles as f64 * f64::from(l.regs_per_thread))
            .sum();
        let ace = ace_cycles as f64 / total;
        let cfg = CampaignConfig::new(CampaignSpec::new(Structure::RegisterFile), 40, 13);
        let fr = run_campaign(w.as_ref(), &card, &cfg, &golden)
            .unwrap()
            .tally
            .failure_ratio();
        assert!(
            ace >= fr * 0.8,
            "{name}: ACE ({ace:.3}) should not be far below injection ({fr:.3})"
        );
    }
}

#[test]
fn round_robin_scheduler_is_functionally_equivalent() {
    // Scheduling must never change architectural results, only timing.
    let w = ScalarProd::new(8);
    let gto = profile(&w, &GpuConfig::rtx2060()).unwrap();
    let mut card = GpuConfig::rtx2060();
    card.scheduler = gpufi_sim::SchedulerPolicy::RoundRobin;
    let rr = profile(&w, &card).unwrap();
    assert_eq!(gto.output, rr.output, "same results under any scheduler");
}

#[test]
fn custom_config_chip_runs_campaigns() {
    let card = GpuConfig::from_config_text(
        "base = rtx2060\nname = Mini\nnum_sms = 4\nl1d = 32768:4:128\nscheduler = rr\n",
    )
    .unwrap();
    let w = VectorAdd::new(512);
    let golden = profile(&w, &card).unwrap();
    let cfg = CampaignConfig::new(CampaignSpec::new(Structure::L1Data), 10, 3);
    let r = run_campaign(&w, &card, &cfg, &golden).unwrap();
    assert_eq!(r.tally.total(), 10);
}

#[test]
fn l1_const_campaign_runs_via_structure_all() {
    // The constant-cache extension participates in the generic campaign
    // machinery like any paper structure.
    let w = VectorAdd::new(256);
    let card = GpuConfig::rtx2060();
    let golden = profile(&w, &card).unwrap();
    let cfg = CampaignConfig::new(CampaignSpec::new(Structure::L1Const), 10, 3);
    let r = run_campaign(&w, &card, &cfg, &golden).unwrap();
    // VA never touches constant memory: every line is invalid, all masked.
    assert_eq!(r.tally.masked, 10);
}

#[test]
fn csv_exports_are_well_formed() {
    let w = VectorAdd::new(256);
    let card = GpuConfig::rtx2060();
    let golden = profile(&w, &card).unwrap();
    let cfg = CampaignConfig::new(CampaignSpec::new(Structure::RegisterFile), 6, 3);
    let r = run_campaign(&w, &card, &cfg, &golden).unwrap();
    let csv = gpufi::core::campaign_csv(&r);
    assert_eq!(csv.lines().count(), 7);
    assert!(csv.starts_with("run,effect,cycles,applied"));
    let a = analyze(&w, &card, &AnalysisConfig::new(4, 9), &golden).unwrap();
    let csv = gpufi::core::analysis_csv(&a);
    assert!(csv.contains("register file"));
    assert!(csv.trim_end().lines().last().unwrap().contains("TOTAL"));
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The injection matrix, pinned byte for byte: one seeded serial campaign
/// per structure × scope × fault model × multi-bit × replication cell the
/// back-end distinguishes, each asserted against two FNV-1a digests: of
/// its `run,effect,cycles,applied` columns, which no engine shortcut may
/// move, and of its whole CSV, which also pins how each run was resolved
/// (`early_exit`, `detail`).  A verdict digest that moves means a fault
/// landed somewhere else.
#[test]
fn injection_matrix_bytes_are_pinned() {
    use FaultModel::{StuckAt0, StuckAt1, Transient};
    use Structure::*;
    let spec = CampaignSpec::new;
    let (rtx, titan) = (GpuConfig::rtx2060(), GpuConfig::gtx_titan());
    // Caches small enough that a random bit usually lands in a valid line.
    let mini = GpuConfig::from_config_text(
        "name = Mini\nnum_sms = 2\nl1d = 2048:2:128\nl1t = 2048:2:128\nl2 = 16384:4:128\nl2_banks = 2\n",
    )
    .unwrap();
    #[rustfmt::skip]
    let table: [(&str, &GpuConfig, CampaignSpec, usize, u64, u64, u64); 24] = [
        ("VA", &rtx, spec(RegisterFile), 40, 21, 0xd50fdb3a4b543fbb, 0xd0683fa028787746),
        ("VA", &rtx, spec(RegisterFile).model(StuckAt0), 40, 22, 0x5fb2d8976f6fb78a, 0x9c7cdec1dcde4e77),
        ("VA", &rtx, spec(RegisterFile).model(StuckAt1), 40, 23, 0x09951925cdf9c11b, 0x0ab6f611a99a93a2),
        ("VA", &rtx, spec(RegisterFile).warp_scope(), 40, 24, 0x92b3985d40fab258, 0xc8920e0ecea68caa),
        ("VA", &rtx, spec(RegisterFile).warp_scope().model(StuckAt0), 40, 25, 0x2064870ec876d638, 0xddd7d89d90a2733c),
        ("VA", &rtx, spec(RegisterFile).warp_scope().model(StuckAt1), 40, 26, 0x14af1fbf8bbaf342, 0x02fb0b75432f194d),
        ("SP", &rtx, spec(RegisterFile).bits(3), 40, 27, 0xd15e65ed978ca0bf, 0x3ce9f4aedb544556),
        ("SP", &rtx, spec(SharedMemory).replicated(2), 40, 28, 0x1b3d623192118352, 0xab6080326fa65c57),
        ("SP", &rtx, spec(SharedMemory).replicated(2).model(StuckAt1), 40, 29, 0x28072b4ea305ae49, 0xcf19712d51384c27),
        ("VA", &rtx, spec(L1Data).bits(3), 60, 30, 0xa00b9bdffbbcfb46, 0x8f9a3f460139d257),
        ("VA", &rtx, spec(L1Data).bits(3).mode(MultiBitMode::Spread), 60, 31, 0x25bd7c056fd585c9, 0x0390b3026d23cad7),
        ("VA", &rtx, spec(L2), 60, 32, 0xa4a7806a0d989986, 0x9909d649827df13f),
        ("HS", &rtx, spec(L1Tex).replicated(2), 40, 33, 0x11752854c3728915, 0x8e1f5aa49dc2ae21),
        ("VA", &rtx, spec(L1Const), 40, 34, 0xfb2df0aee70bff11, 0xa90374bd47328f07),
        ("GE", &rtx, spec(SimtStack), 40, 35, 0x6315f8159f12c2e7, 0x5f9642fcff91a7ed),
        ("GE", &rtx, spec(SimtStack).model(StuckAt0), 40, 36, 0x325e5be7b5449f21, 0x6b645691ae5dd96f),
        ("SP", &rtx, spec(Sched).model(StuckAt1), 40, 37, 0x387f5ad6f05188c0, 0xa7a05c5a6aec5ec4),
        ("SP", &rtx, spec(Scoreboard).model(Transient), 40, 38, 0xc1377c26f1962979, 0xdf2c06f7181b10f2),
        ("SP", &titan, spec(SharedMemory).bits(3), 40, 39, 0xaf76424656c31484, 0x4c393658a6a3367f),
        ("VA", &titan, spec(RegisterFile).warp_scope().bits(3), 40, 40, 0xddb206e8154b7072, 0xb2dae7a6c5fa6bb5),
        ("HS", &mini, spec(L1Data).bits(3).replicated(2), 40, 41, 0x475a260121706f9f, 0x79db70d09cd7f8ee),
        ("HS", &mini, spec(L1Data).bits(3).mode(MultiBitMode::Spread), 40, 42, 0x2601fc677aa4e0a1, 0x8f00a54e5d0da72a),
        ("HS", &mini, spec(L1Tex), 40, 43, 0x6b7fdf3fb266f159, 0xb477d1ddc9d4c91a),
        ("VA", &mini, spec(L2).bits(3), 40, 44, 0xb30ad0266b7fd0e6, 0xf3028b58f5aa4298),
    ];
    let mut drifted = Vec::new();
    for (name, card, spec, runs, seed, want_cols, want) in table {
        let w = by_name(name).unwrap();
        let golden = profile(w.as_ref(), card).unwrap();
        let cfg = CampaignConfig::new(spec.clone(), runs, seed).with_threads(1);
        let r = run_campaign(w.as_ref(), card, &cfg, &golden).unwrap();
        let csv = gpufi::core::campaign_csv(&r);
        let cols: String = csv
            .lines()
            .map(|l| l.split(',').take(4).collect::<Vec<_>>().join(",") + "\n")
            .collect();
        for (what, got, want) in [
            (
                "run,effect,cycles,applied",
                fnv1a(cols.as_bytes()),
                want_cols,
            ),
            ("bytes", fnv1a(csv.as_bytes()), want),
        ] {
            if got != want {
                drifted.push(format!(
                    "{name} on {} {spec:?} seed {seed} {what}: {got:#018x}, pinned {want:#018x} ({})",
                    card.name, r.tally
                ));
            }
        }
    }
    assert!(drifted.is_empty(), "{}", drifted.join("\n"));

    let cfg = CampaignConfig::new(spec(RegisterFile).warp_scope().model(StuckAt1), 40, 26);
    assert_eq!(
        campaign_fingerprint("VA", "RTX 2060", &cfg),
        0xf4f66699a91e2dae,
        "campaign fingerprint drifted"
    );
}
