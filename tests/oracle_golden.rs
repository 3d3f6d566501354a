//! Differential-oracle validation at workload and campaign level:
//!
//! * every paper benchmark's golden run matches the functional reference
//!   interpreter bit for bit (global memory, exit-time registers and
//!   predicates, host readouts);
//! * the divergence reporter localizes a deliberately corrupted run to
//!   the right structure, address/register and thread;
//! * an `--oracle-check` campaign keeps the default engine's records and
//!   confirms each against a cold full simulation of the same run.

use gpufi::core::campaign_csv;
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

/// The acceptance bar for `--oracle-check`: on VA, SP, NW and GE every
/// register-file run is resolved exactly as the default engine resolves
/// it — the CSV is the default's byte for byte, pre-classified rows
/// included — and re-run cold and fully simulated as the reference, which
/// agrees with every record (zero mismatches) and confirms every shortcut
/// verdict: each pre-classification and each early exit.
#[test]
fn oracle_check_campaign_verifies_every_masked_run() {
    let card = GpuConfig::rtx2060();
    for name in ["VA", "SP", "NW", "GE"] {
        let w = gpufi::workloads::by_name(name).unwrap();
        let golden = profile(w.as_ref(), &card).unwrap();
        let fast_cfg = CampaignConfig::new(CampaignSpec::new(Structure::RegisterFile), 60, 23);
        let checked_cfg = fast_cfg.clone().with_oracle_check();
        let checked = run_campaign(w.as_ref(), &card, &checked_cfg, &golden).unwrap();
        let fast = run_campaign(w.as_ref(), &card, &fast_cfg, &golden).unwrap();
        assert_eq!(
            campaign_csv(&checked),
            campaign_csv(&fast),
            "{name}: the oracle check must not change a record"
        );
        let s = &checked.stats;
        assert_eq!(
            s.oracle_mismatches, 0,
            "{name}: a record disagrees with its reference"
        );
        assert_eq!(s.oracle_checked, 60, "{name}");
        assert!(s.early_exits > 0, "{name}: no run exercised early exit");
        assert_eq!(
            s.oracle_verified,
            s.early_exits + s.static_pruned + s.static_bit_pruned,
            "{name}: every shortcut verdict must be confirmed"
        );
        if name == "NW" {
            // Both pre-classification granularities are checked.
            assert!(s.static_pruned > 0, "NW: no dead-register run");
            assert!(s.static_bit_pruned > 0, "NW: no dead-bit run");
        }
    }
}
