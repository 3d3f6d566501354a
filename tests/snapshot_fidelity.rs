//! Bit-level snapshot fidelity pins across the interpreter refactor.
//!
//! `Snapshot::state_digest` hashes every byte of architectural and
//! microarchitectural state (register files, predicates, shared/global/local
//! memory, caches, taint sets, SIMT stacks, scheduler cursors) in a
//! *canonical, layout-independent* order — the pre-refactor AoS order.  The
//! digests pinned here were captured from the AoS engine; the SoA engine must
//! reproduce them exactly, proving the register-file layout change is
//! bit-compatible with checkpoint state.  The AoS engine kept ACE
//! timestamps in every run; they are now a profile-pass instrument, so the
//! pinned recordings run with it and a plain recording is checked to hold
//! none.

use gpufi::prelude::*;
use gpufi::sim::{CheckpointStore, Gpu};
use std::sync::Arc;

/// Pre-refactor (AoS engine) golden digests for the middle checkpoint of
/// each workload, recorded at `interval = total_cycles / 4`.
const PINS: [(&str, u64); 3] = [
    ("va", 0xd5ac21ddfacca9cb), // cycle 574
    ("ge", 0xf0a873672a50d9d0), // cycle 15003
    ("hs", 0xd445028a8ad9d1a5), // cycle 2220
];

fn workload(tag: &str) -> Box<dyn Workload> {
    match tag {
        "va" => Box::new(VectorAdd::new(256)),
        "ge" => Box::new(Gaussian::new()),
        "hs" => Box::new(HotSpot::default()),
        _ => unreachable!(),
    }
}

/// A mid-launch snapshot round-tripped through the `CheckpointStore` must
/// digest identically to the pre-refactor AoS golden dump, and restoring it
/// into a fresh device must reproduce the same digest bit-for-bit.
#[test]
fn mid_launch_snapshots_match_aos_golden_digests() {
    let card = GpuConfig::rtx2060();
    for (tag, pin) in PINS {
        let w = workload(tag);
        let golden = profile(w.as_ref(), &card).unwrap();
        let interval = (golden.total_cycles() / 4).max(1);
        let mut rec = Gpu::new(card.clone());
        rec.enable_profiling();
        rec.record_checkpoints(interval, 1 << 30);
        w.run(&mut rec).unwrap();
        let store = std::sync::Arc::new(rec.finish_checkpoint_recording());
        assert!(store.len() >= 2, "{tag}: need a mid-launch snapshot");
        let mid = store.len() / 2;
        let snap = store.snapshot(mid);
        assert!(
            snap.cycle() > 0 && snap.cycle() < golden.total_cycles(),
            "{tag}: snapshot {mid} is not mid-launch"
        );
        let digest = snap.state_digest();
        assert_eq!(
            digest,
            pin,
            "{tag}: snapshot digest {digest:#018x} != pinned AoS golden {pin:#018x} \
             (cycle {})",
            snap.cycle()
        );

        // Round-trip: restore into a fresh device, re-snapshot, re-digest.
        let mut gpu = Gpu::new(card.clone());
        gpu.restore(snap);
        let back = gpu.snapshot();
        assert_eq!(
            back.cycle(),
            snap.cycle(),
            "{tag}: cycle lost in round-trip"
        );
        assert_eq!(
            back.state_digest(),
            digest,
            "{tag}: state mutated by restore/snapshot round-trip"
        );
    }
}

/// Records HS on the GTX Titan at the campaign's stride and budget, with
/// or without the profile instrument.
fn hs_titan_store(profiling: bool) -> Arc<CheckpointStore> {
    let (w, card) = (HotSpot::default(), GpuConfig::gtx_titan());
    let golden = profile(&w, &card).unwrap();
    let mut rec = Gpu::new(card);
    if profiling {
        rec.enable_profiling();
    }
    rec.record_checkpoints(
        (golden.total_cycles() / 24).max(1),
        gpufi::core::DEFAULT_CHECKPOINT_BUDGET,
    );
    w.run(&mut rec).unwrap();
    Arc::new(rec.finish_checkpoint_recording())
}

/// Without the profile instrument a recording keeps the same snapshots —
/// the nominal budget charges ACE rows either way — but holds fewer bytes.
#[test]
fn a_plain_recording_keeps_the_snapshots_in_fewer_bytes() {
    let (plain, profiled) = (hs_titan_store(false), hs_titan_store(true));
    assert_eq!(plain.len(), 22);
    assert_eq!(plain.len(), profiled.len());
    for idx in 0..plain.len() {
        assert_eq!(plain.snapshot_cycle(idx), profiled.snapshot_cycle(idx));
    }
    assert_eq!(plain.resident_bytes(), profiled.resident_bytes());
    assert!(
        plain.held_bytes() < profiled.held_bytes(),
        "plain {} bytes, profiled {} bytes",
        plain.held_bytes(),
        profiled.held_bytes()
    );
}

/// A plain recording's snapshots hold no ACE rows: HS accrues ACE cycles
/// in the profile pass, but a fork from any plain snapshot accrues none.
#[test]
fn a_plain_recording_holds_no_ace_rows() {
    let (w, card) = (HotSpot::default(), GpuConfig::gtx_titan());
    let golden = profile(&w, &card).unwrap();
    assert!(golden.app.launches.iter().all(|l| l.ace_reg_cycles > 0));
    let plain = hs_titan_store(false);
    let mut gpu = Gpu::new(card);
    for idx in 0..plain.len() {
        gpu.resume_from(&plain, idx);
        w.run(&mut gpu).unwrap();
        let launches = &gpu.stats().launches;
        assert!(
            launches.iter().all(|l| l.ace_reg_cycles == 0),
            "plain snapshot {idx}: {launches:?}"
        );
    }
}
