//! The reconvergence rung: a forked run whose faults have all fired and
//! whose state equals a later golden checkpoint stops there, Masked at the
//! golden cycle count.  It may change how a run is resolved, never what
//! the campaign concludes.

mod common;

use gpufi::prelude::*;
use gpufi::sim::{FaultTarget, Gpu, InjectionPlan, LaunchDims, Scope, Trap};
use gpufi::workloads::by_name;
use std::sync::Arc;

/// Reconvergence must never change a verdict: every run of the LUD and GE
/// register files and SP's shared memory is confirmed by `--oracle-check`
/// against a cold full simulation, the reconverged rows among them, and
/// GE's multi-kernel campaign reconverges at least once.
#[test]
fn reconverged_runs_keep_their_verdicts() {
    let card = GpuConfig::rtx2060();
    let cases = [
        ("LUD", Structure::RegisterFile, 40),
        ("GE", Structure::RegisterFile, 120),
        ("SP", Structure::SharedMemory, 120),
    ];
    for (name, structure, runs) in cases {
        let (r, _) = common::oracle_check(name, &card, CampaignSpec::new(structure), runs, 11);
        if name == "GE" {
            assert!(r.stats.reconverged > 0, "GE: no run reconverged in {runs}");
        }
    }
}

/// `--oracle-check` re-runs every run cold and fully simulated: the
/// reconverged runs must be confirmed among the verified shortcuts.
#[test]
fn oracle_check_confirms_reconverged_runs() {
    let card = GpuConfig::rtx2060();
    let w = by_name("NW").unwrap();
    let golden = profile(w.as_ref(), &card).unwrap();
    let cfg = CampaignConfig::new(CampaignSpec::new(Structure::RegisterFile), 100, 11)
        .with_oracle_check();
    let r = run_campaign(w.as_ref(), &card, &cfg, &golden).unwrap();
    assert!(r.stats.reconverged > 0, "no run reconverged");
    assert_eq!(r.stats.oracle_mismatches, 0);
    assert_eq!(r.stats.oracle_checked, 100);
    let ran_to_end = r
        .records
        .iter()
        .zip(&r.rungs)
        .filter(|&(rec, &rung)| rung == Rung::Simulated && !rec.early_exit)
        .count();
    assert_eq!(
        r.stats.oracle_verified,
        100 - ran_to_end,
        "every shortcut, reconverged runs included, is verified"
    );
}

/// Spins for a while, then raises a flag the host reads back, resets and
/// ignores, then spins again: the flag's value never changes the host's
/// path, so a corrupted flag leaves the device equal to the golden run's
/// once the host has reset it.
const SRC: &str = r#"
.kernel spin
.params 2            ; R0=out R1=iterations
    S2R  R2, SR_TID.X
    MOV  R3, 0
    MOV  R4, 0
loop:
    ISETP.GE P0, R4, R1
@P0 BRA done
    IADD R3, R3, R2
    IADD R4, R4, 1
    BRA  loop
done:
    SHL  R5, R2, 2
    IADD R5, R0, R5
    STG  [R5], R3
    EXIT

.kernel set_flag
.params 2            ; R0=flag R1=value
    NOP
    NOP
    AND  R2, R1, 1
    STG  [R0], R2
    EXIT
"#;

struct Flag {
    module: Module,
}

impl Workload for Flag {
    fn name(&self) -> &'static str {
        "FLAG"
    }

    fn module(&self) -> &Module {
        &self.module
    }

    fn run(&self, gpu: &mut Gpu) -> Result<Vec<u8>, WorkloadError> {
        let spin = self.module.kernel("spin").expect("kernel exists");
        let set_flag = self.module.kernel("set_flag").expect("kernel exists");
        let out = gpu.malloc(64 * 4)?;
        let flag = gpu.malloc(4)?;
        let dims = LaunchDims::new(1, 64);
        gpu.launch(spin, dims, &[out, 40])?;
        gpu.launch(set_flag, LaunchDims::new(1, 1), &[flag, 1])?;
        gpu.read_u32s(flag, 1)?;
        gpu.write_u32s(flag, &[0])?;
        gpu.launch(spin, dims, &[out, 80])?;
        let mut bytes = vec![0u8; 64 * 4];
        gpu.memcpy_d2h(out, &mut bytes)?;
        Ok(bytes)
    }
}

/// A live device→host copy whose bytes differ from the golden run's may
/// steer the host program elsewhere, so such a run never reconverges —
/// even here, where the host ignores the bytes and the device state does
/// return to the golden run's.  The control flips a bit of the same
/// register that the kernel masks off: the flag is golden, and the run
/// reconverges during the last launch.
#[test]
fn corrupted_host_reads_never_reconverge() {
    let w = Flag {
        module: Module::assemble(SRC).unwrap(),
    };
    let card = GpuConfig::rtx2060();
    let mut golden = Gpu::new(card.clone());
    golden.record_checkpoints(25, usize::MAX);
    let golden_out = w.run(&mut golden).unwrap();
    let store = Arc::new(golden.finish_checkpoint_recording());
    let launches = &golden.stats().launches;
    let (flag_at, last) = (launches[1].start_cycle, &launches[2]);
    assert!(
        store.snapshot_cycle(store.len() - 1) > last.start_cycle,
        "the last launch holds a checkpoint"
    );

    let fork = store.nearest_at_or_before(flag_at).unwrap();
    let run = |bit: u8| {
        let mut gpu = Gpu::new(card.clone());
        gpu.resume_from(&store, fork);
        // R1 holds the flag's value; the kernel stores bit 0 of it.  The
        // launch starts in the cycle the previous one ends, so the fault
        // fires a cycle later, between the two NOPs.
        gpu.arm_faults(InjectionPlan::single(
            flag_at + 1,
            FaultTarget::RegisterFile {
                scope: Scope::Thread,
                entry_lot: 0,
                reg: 1,
                bits: vec![bit],
            },
        ));
        gpu.set_early_exit(true);
        let result = w.run(&mut gpu);
        assert!(gpu.injection_records()[0].applied, "bit {bit}");
        (result, gpu.stats().total_cycles())
    };
    assert!(matches!(
        run(1).0,
        Err(WorkloadError::Trap(Trap::Reconverged))
    ));
    let (result, cycles) = run(0);
    assert_eq!(
        result.unwrap(),
        golden_out,
        "the flag never reaches the output"
    );
    assert_eq!(cycles, golden.stats().total_cycles());
}
