//! Validation of checkpoint-and-fork execution: forking each injection run
//! from a golden-run snapshot must never change what the campaign
//! concludes, only how long it takes.

use gpufi::prelude::*;
use gpufi::sim::Gpu;

/// Checkpoint forking and cold starts must classify every run identically —
/// same effect, same cycle count, same applied flag — with taint early exit
/// both on and off, across workloads that cover single-kernel,
/// host-control-flow (BFS's stop-flag loop reads device memory between
/// launches) and multi-kernel whole-application (`kernel: None`) campaigns.
/// Only the `ckpt_skipped_cycles` marker may differ.
#[test]
fn checkpoint_matches_full_simulation() {
    let card = GpuConfig::rtx2060();
    let workloads: [(Box<dyn Workload>, usize); 3] = [
        (Box::new(VectorAdd::new(256)), 120),
        (Box::new(Bfs::new()), 24),
        (Box::new(Srad1::default()), 16),
    ];
    for (w, runs) in &workloads {
        let golden = profile(w.as_ref(), &card).unwrap();
        let spec = CampaignSpec::new(Structure::RegisterFile);
        for early_exit in [true, false] {
            let mut forked_cfg = CampaignConfig::new(spec.clone(), *runs, 17);
            let mut cold_cfg = CampaignConfig::new(spec.clone(), *runs, 17).no_checkpoints();
            if !early_exit {
                forked_cfg = forked_cfg.no_early_exit();
                cold_cfg = cold_cfg.no_early_exit();
            }
            let forked = run_campaign(w.as_ref(), &card, &forked_cfg, &golden).unwrap();
            let cold = run_campaign(w.as_ref(), &card, &cold_cfg, &golden).unwrap();
            let tag = format!("{} (early_exit={early_exit})", w.name());
            assert_eq!(forked.tally, cold.tally, "{tag}: tallies diverge");
            for (i, (a, b)) in forked.records.iter().zip(&cold.records).enumerate() {
                assert_eq!(a.effect, b.effect, "{tag} run {i}: effect");
                assert_eq!(a.cycles, b.cycles, "{tag} run {i}: cycles");
                assert_eq!(a.applied, b.applied, "{tag} run {i}: applied");
                assert_eq!(a.early_exit, b.early_exit, "{tag} run {i}: early_exit");
                assert_eq!(b.ckpt_skipped_cycles, 0, "{tag} run {i}: cold forked");
            }
            assert_eq!(cold.stats.checkpoints, 0, "{tag}: cold mode took snapshots");
            assert_eq!(cold.stats.restores, 0, "{tag}: cold mode restored");
            assert!(
                forked.stats.checkpoints > 0,
                "{tag}: no snapshots were recorded"
            );
            assert!(
                forked.stats.restores > 0,
                "{tag}: no run forked from a checkpoint in {runs}"
            );
        }
    }
}

/// Checkpoint forking must also be transparent to *permanent* faults: a
/// run forked from a golden snapshot re-arms its stuck-at mask on the
/// restored state, so per-run effect and cycles match a cold start — for
/// data (register file) and control (warp scheduler) stuck-at campaigns
/// alike, with taint early exit both on and off.
#[test]
fn checkpoint_matches_cold_start_for_stuck_at() {
    let card = GpuConfig::rtx2060();
    let cases: [(Box<dyn Workload>, Structure, usize); 2] = [
        (Box::new(VectorAdd::new(256)), Structure::RegisterFile, 60),
        (Box::new(ScalarProd::new(8)), Structure::Sched, 24),
    ];
    for (w, structure, runs) in &cases {
        let golden = profile(w.as_ref(), &card).unwrap();
        let spec = CampaignSpec::new(*structure).model(FaultModel::StuckAt1);
        for early_exit in [true, false] {
            let mut forked_cfg = CampaignConfig::new(spec.clone(), *runs, 17);
            let mut cold_cfg = CampaignConfig::new(spec.clone(), *runs, 17).no_checkpoints();
            if !early_exit {
                forked_cfg = forked_cfg.no_early_exit();
                cold_cfg = cold_cfg.no_early_exit();
            }
            let forked = run_campaign(w.as_ref(), &card, &forked_cfg, &golden).unwrap();
            let cold = run_campaign(w.as_ref(), &card, &cold_cfg, &golden).unwrap();
            let tag = format!(
                "{}/{structure} stuck-at-1 (early_exit={early_exit})",
                w.name()
            );
            assert_eq!(forked.tally, cold.tally, "{tag}: tallies diverge");
            for (i, (a, b)) in forked.records.iter().zip(&cold.records).enumerate() {
                assert_eq!(a.effect, b.effect, "{tag} run {i}: effect");
                assert_eq!(a.cycles, b.cycles, "{tag} run {i}: cycles");
                assert_eq!(a.applied, b.applied, "{tag} run {i}: applied");
                assert_eq!(a.early_exit, b.early_exit, "{tag} run {i}: early_exit");
            }
            assert!(
                forked.stats.restores > 0,
                "{tag}: no run forked from a checkpoint in {runs}"
            );
        }
    }
}

/// Iterative polynomial evaluation with its coefficients in the constant
/// bank (the `Poly` kernel of `examples/constant_cache.rs`): the one
/// workload here whose host prefix calls `write_const`, so forks replay
/// that call.  It uploads `coeffs` coefficients (the kernel reads the
/// first four) and over-allocates each buffer by `pad` bytes, so a variant
/// can make host calls that differ from a recording's with the same output.
struct ConstPoly {
    module: Module,
    coeffs: usize,
    pad: u32,
}

const POLY_N: u32 = 512;

impl ConstPoly {
    fn new(coeffs: usize, pad: u32) -> Self {
        let src = r#"
.kernel poly
.params 3
    S2R  R3, SR_TID.X
    S2R  R4, SR_CTAID.X
    S2R  R5, SR_NTID.X
    IMAD R3, R4, R5, R3
    ISETP.GE P0, R3, R2
@P0 EXIT
    SHL  R6, R3, 2
    IADD R7, R0, R6
    LDG  R8, [R7]
    MOV  R16, 0
    MOV  R17, 0
    MOV  R9, 0
it:
    LDC  R10, [R9+12]
    LDC  R11, [R9+8]
    LDC  R12, [R9+4]
    LDC  R13, [R9]
    FFMA R14, R10, R8, R11
    FFMA R14, R14, R8, R12
    FFMA R14, R14, R8, R13
    FADD R17, R17, R14
    IADD R16, R16, 1
    ISETP.LT P1, R16, 24
@P1 BRA it
    IADD R15, R1, R6
    STG  [R15], R17
    EXIT
"#;
        ConstPoly {
            module: Module::assemble(src).expect("poly assembles"),
            coeffs,
            pad,
        }
    }
}

impl Workload for ConstPoly {
    fn name(&self) -> &'static str {
        "POLY"
    }

    fn module(&self) -> &Module {
        &self.module
    }

    fn run(&self, gpu: &mut Gpu) -> Result<Vec<u8>, WorkloadError> {
        let coeffs = [0.5f32, -1.25, 2.0, 0.75, 3.5];
        let x: Vec<f32> = (0..POLY_N)
            .map(|i| i as f32 / POLY_N as f32 - 0.5)
            .collect();
        gpu.write_const_f32s(0, &coeffs[..self.coeffs])?;
        let d_x = gpu.malloc(POLY_N * 4 + self.pad)?;
        let d_y = gpu.malloc(POLY_N * 4 + self.pad)?;
        gpu.write_f32s(d_x, &x)?;
        gpu.launch(
            self.module.kernel("poly").expect("kernel exists"),
            LaunchDims::new(POLY_N / 128, 128),
            &[d_x, d_y, POLY_N],
        )?;
        let mut out = vec![0u8; (POLY_N * 4) as usize];
        gpu.memcpy_d2h(d_y, &mut out)?;
        Ok(out)
    }
}

/// Records `w` on a `total / div` cycle stride, checks the recording left
/// the golden execution untouched, then resumes from every snapshot and
/// checks each fork finishes with the golden output, statistics and cycle
/// count.
fn assert_every_fork_matches_golden(w: &dyn Workload, card: &GpuConfig, div: u64) {
    let golden = profile(w, card).unwrap();
    let total = golden.total_cycles();
    let interval = (total / div).max(1);
    let mut rec = Gpu::new(card.clone());
    rec.record_checkpoints(interval, 1 << 30);
    let out = w.run(&mut rec).unwrap();
    let name = w.name();
    assert_eq!(
        out, golden.output,
        "{name} stride {interval}: recording perturbed the output"
    );
    assert_eq!(
        rec.stats(),
        &golden.app,
        "{name} stride {interval}: recording perturbed the statistics"
    );
    let store = std::sync::Arc::new(rec.finish_checkpoint_recording());
    assert!(!store.is_empty(), "{name} stride {interval}");
    for idx in 0..store.len() {
        let mut gpu = Gpu::new(card.clone());
        gpu.resume_from(&store, idx);
        let out = w.run(&mut gpu).unwrap();
        let tag = format!(
            "{name} stride {interval} snapshot {idx} (cycle {})",
            store.snapshot_cycle(idx)
        );
        assert_eq!(out, golden.output, "{tag}: output diverged");
        assert_eq!(gpu.stats(), &golden.app, "{tag}: statistics diverged");
        assert_eq!(gpu.cycle(), total, "{tag}: cycle count diverged");
    }
}

/// Recording snapshots must not perturb the golden execution, and resuming
/// from *any* snapshot must finish with the golden output, cycle count and
/// statistics: VA and BFS at several strides, then every paper workload and
/// the constant-bank workload at a quarter of their golden length — so
/// every kind of journaled host call (allocation, both copy directions,
/// constant-bank writes, completed launches) is replayed by some fork.
#[test]
fn snapshot_fidelity_across_strides() {
    let card = GpuConfig::rtx2060();
    let workloads: [Box<dyn Workload>; 2] = [Box::new(VectorAdd::new(256)), Box::new(Bfs::new())];
    for w in &workloads {
        for div in [3, 7, 16] {
            assert_every_fork_matches_golden(w.as_ref(), &card, div);
        }
    }
    for w in paper_suite() {
        assert_every_fork_matches_golden(w.as_ref(), &card, 4);
    }
    assert_every_fork_matches_golden(&ConstPoly::new(4, 0), &card, 4);
}

/// A fork whose workload makes different host calls than the recording
/// did is a determinism violation, not an injection effect: replay stops
/// at the first differing call — here a longer constant-bank upload, then
/// a larger allocation — with one `checkpoint replay mismatch` panic.
#[test]
fn changed_host_calls_fail_fork_replay() {
    let card = GpuConfig::rtx2060();
    let recorded = ConstPoly::new(4, 0);
    let golden = profile(&recorded, &card).unwrap();
    let mut rec = Gpu::new(card.clone());
    rec.record_checkpoints((golden.total_cycles() / 4).max(1), 1 << 30);
    recorded.run(&mut rec).unwrap();
    let store = std::sync::Arc::new(rec.finish_checkpoint_recording());
    for changed in [ConstPoly::new(5, 0), ConstPoly::new(4, 128)] {
        // Same output either way: only the host calls differ.
        let mut cold = Gpu::new(card.clone());
        assert_eq!(changed.run(&mut cold).unwrap(), golden.output);
        let tag = format!("coeffs {} pad {}", changed.coeffs, changed.pad);
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut gpu = Gpu::new(card.clone());
            gpu.resume_from(&store, 0);
            changed.run(&mut gpu)
        }))
        .expect_err(&tag);
        let msg = panic.downcast_ref::<String>().map_or("", String::as_str);
        assert!(
            msg.contains("checkpoint replay mismatch"),
            "{tag}: unexpected panic {msg:?}"
        );
    }
}

/// A checkpoint budget too small for even one snapshot degrades the store
/// to a single early snapshot — and restoring from it must still replay
/// to the exact golden output, cycles and statistics.
#[test]
fn restore_works_when_only_the_first_snapshot_survives() {
    let card = GpuConfig::rtx2060();
    let w = VectorAdd::new(256);
    let golden = profile(&w, &card).unwrap();
    let mut rec = Gpu::new(card.clone());
    // Stride of 1 cycle against a 1-byte budget: maximal re-striding
    // pressure, every push over the first triggers halving.
    rec.record_checkpoints(1, 1);
    w.run(&mut rec).unwrap();
    let store = std::sync::Arc::new(rec.finish_checkpoint_recording());
    assert_eq!(store.len(), 1, "budget of 1 byte must keep exactly one");
    let mut gpu = Gpu::new(card);
    gpu.resume_from(&store, 0);
    let out = w.run(&mut gpu).unwrap();
    assert_eq!(out, golden.output);
    assert_eq!(gpu.cycle(), golden.total_cycles());
    assert_eq!(gpu.stats(), &golden.app);
}

/// `Gpu::snapshot` / `Gpu::restore` round-trip between launches: restoring
/// a snapshot into a fresh device and running the workload again matches
/// running it twice back-to-back on one device.
#[test]
fn explicit_snapshot_restore_roundtrip() {
    let card = GpuConfig::rtx2060();
    let w = VectorAdd::new(256);

    let mut twice = Gpu::new(card.clone());
    w.run(&mut twice).unwrap();
    let snap = twice.snapshot();
    let out_twice = w.run(&mut twice).unwrap();

    let mut restored = Gpu::new(card.clone());
    restored.restore(&snap);
    assert_eq!(restored.cycle(), snap.cycle());
    let out_restored = w.run(&mut restored).unwrap();

    assert_eq!(out_restored, out_twice);
    assert_eq!(restored.stats(), twice.stats());
    assert_eq!(restored.cycle(), twice.cycle());
}
