//! Differential-oracle validation at workload and campaign level:
//!
//! * every paper benchmark's golden run matches the functional reference
//!   interpreter bit for bit (global memory, exit-time registers and
//!   predicates, host readouts);
//! * the divergence reporter localizes a deliberately corrupted run to
//!   the right structure, address/register and thread;
//! * an `--oracle-check` campaign keeps the default engine's records and
//!   confirms each against a cold full simulation of the same run.

mod common;

use gpufi::prelude::*;
use gpufi::sim::{Gpu as SimGpu, LaunchDims};

/// Every one of the twelve paper workloads, executed in lockstep with the
/// reference interpreter: zero divergences, bit for bit.
#[test]
fn all_twelve_workloads_match_oracle_bit_for_bit() {
    let card = GpuConfig::rtx2060();
    for w in gpufi::workloads::paper_suite() {
        let mut gpu = SimGpu::new(card.clone());
        gpu.attach_oracle();
        let result = w.run(&mut gpu);
        if let Some(d) = gpu.oracle_divergence() {
            panic!("{}: {d}", w.name());
        }
        result.unwrap_or_else(|e| panic!("{}: golden run failed: {e}", w.name()));
    }
}

/// A fault flipping a store's base-address register must surface as a
/// global-memory divergence naming the orphaned byte address.
#[test]
fn divergence_reporter_localizes_global_memory_corruption() {
    let module = Module::assemble(
        ".kernel neg\n.params 1\n S2R R1, SR_TID.X\n SHL R1, R1, 2\n \
         IADD R1, R0, R1\n MOV R2, 42\n STG [R1], R2\n EXIT\n",
    )
    .unwrap();
    let mut gpu = SimGpu::new(GpuConfig::rtx2060());
    gpu.attach_oracle();
    let buf = gpu.malloc(32 * 4).unwrap();
    // Flip bit 2 of R0 (the buffer pointer, 0x1000 -> 0x1004) in one
    // thread before the first instruction issues: that thread stores into
    // its neighbour's slot, leaving its own slot unwritten in the sim.
    gpu.arm_faults(InjectionPlan::single(
        0,
        FaultTarget::RegisterFile {
            scope: Scope::Thread,
            entry_lot: 5,
            reg: 0,
            bits: vec![2],
        },
    ));
    gpu.launch(
        module.kernel("neg").unwrap(),
        LaunchDims::new(1, 32),
        &[buf],
    )
    .unwrap();
    let report = gpu
        .oracle_divergence()
        .expect("corrupted store address must diverge from the oracle");
    let text = report.to_string();
    assert!(text.contains("global memory"), "wrong structure in: {text}");
    assert!(text.contains("0x0000"), "no byte address in: {text}");
    assert!(report.repro.is_some(), "launch divergences carry a repro");
}

/// A fault flipping a register that never reaches memory must surface as
/// a register-file divergence naming the register and thread.
#[test]
fn divergence_reporter_localizes_register_corruption() {
    // R1 (the second parameter) is never read or written by the kernel,
    // so the flip is invisible to memory and only the exit-time register
    // diff can catch it.
    let module = Module::assemble(
        ".kernel neg2\n.params 2\n S2R R2, SR_TID.X\n SHL R2, R2, 2\n \
         IADD R2, R0, R2\n MOV R3, 7\n STG [R2], R3\n EXIT\n",
    )
    .unwrap();
    let mut gpu = SimGpu::new(GpuConfig::rtx2060());
    gpu.attach_oracle();
    let buf = gpu.malloc(32 * 4).unwrap();
    gpu.arm_faults(InjectionPlan::single(
        0,
        FaultTarget::RegisterFile {
            scope: Scope::Thread,
            entry_lot: 11,
            reg: 1,
            bits: vec![9],
        },
    ));
    gpu.launch(
        module.kernel("neg2").unwrap(),
        LaunchDims::new(1, 32),
        &[buf, 0xDEAD],
    )
    .unwrap();
    let report = gpu
        .oracle_divergence()
        .expect("corrupted dead register must diverge from the oracle");
    let text = report.to_string();
    assert!(
        text.contains("register file") && text.contains("R1"),
        "wrong structure/register in: {text}"
    );
    assert!(text.contains("thread"), "no thread in: {text}");
}

/// A fault-free lockstep run of a fault-armed GPU whose fault never
/// applies (cycle beyond the launch) stays divergence-free.
#[test]
fn clean_lockstep_run_latches_nothing() {
    let card = GpuConfig::rtx2060();
    let w = VectorAdd::new(128);
    let mut gpu = SimGpu::new(card);
    gpu.attach_oracle();
    w.run(&mut gpu).unwrap();
    assert!(gpu.oracle_divergence().is_none());
}

/// `--oracle-check` on the register file of VA, SP, NW and GE, on BFS's
/// L2 on another chip, on the three control-unit structures (GE's SIMT
/// stack stuck-at-0, NW's scoreboard, LUD's scheduler) and on HS's shared
/// memory stuck-at-0 on the GTX Titan: every record is the default
/// engine's, agrees with a cold, fully simulated, unpruned run of it, and
/// every shortcut verdict — pre-classification, early exit,
/// reconvergence — is confirmed.  The stuck-at, checkpoint and reconvergence campaigns are
/// oracle-checked the same way in `stuck_at.rs`, `checkpoint.rs`,
/// `early_exit.rs` and `reconverge.rs`.
#[test]
fn oracle_check_campaign_verifies_every_masked_run() {
    let (rtx, gv100) = (GpuConfig::rtx2060(), GpuConfig::quadro_gv100());
    let titan = GpuConfig::gtx_titan();
    let spec = CampaignSpec::new;
    let stuck_at_0 = |s| spec(s).model(FaultModel::StuckAt0);
    // (benchmark, card, fault shape, runs, seed, early exits expected)
    #[rustfmt::skip]
    let rows = [
        ("VA", &rtx, spec(Structure::RegisterFile), 60, 23, true),
        ("SP", &rtx, spec(Structure::RegisterFile), 60, 23, true),
        ("NW", &rtx, spec(Structure::RegisterFile), 60, 23, true),
        ("GE", &rtx, spec(Structure::RegisterFile), 60, 23, true),
        ("SP", &rtx, spec(Structure::RegisterFile), 60, 9, false),
        ("BFS", &gv100, spec(Structure::L2), 200, 11, false),
        ("GE", &rtx, stuck_at_0(Structure::SimtStack), 60, 11, false),
        ("NW", &rtx, spec(Structure::Scoreboard), 100, 11, false),
        ("LUD", &rtx, spec(Structure::Sched), 100, 11, true),
        ("HS", &titan, stuck_at_0(Structure::SharedMemory), 100, 11, true),
    ];
    for (name, card, spec, runs, seed, exits) in rows {
        let rf = spec.structure == Structure::RegisterFile;
        let (checked, _) = common::oracle_check(name, card, spec, runs, seed);
        let s = &checked.stats;
        assert!(
            !exits || s.early_exits > 0,
            "{name} seed {seed}: no run exercised early exit"
        );
        if name == "NW" && rf {
            // Both pre-classification granularities are checked.
            assert!(s.static_pruned > 0, "NW: no dead-register run");
            assert!(s.static_bit_pruned > 0, "NW: no dead-bit run");
        }
    }
}
