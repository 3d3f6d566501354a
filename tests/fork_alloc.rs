//! Allocation pins for checkpoint-and-fork, counted by a global allocator
//! (hence a test binary of its own):
//!
//! * a fork restores the device in place, so forking the same `Gpu` from
//!   the same snapshot twice in a row must not touch the heap the second
//!   time — every buffer already has the snapshot's shape, and every cache
//!   chunk is already the snapshot's;
//! * snapshots are copy-on-write, so recording a campaign's checkpoints
//!   allocates a small fraction of the bytes the store nominally holds,
//!   and capturing an idle device allocates no cache chunk table;
//! * a recording keeps no ACE timestamps (a profiling-pass instrument),
//!   though the nominal budget still charges them.

use gpufi::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Whether this thread's allocations are being counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Allocations (including reallocations) counted on this thread.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    /// Bytes those allocations asked for (a reallocation's new size).
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting the allocations of threads that opted
/// in (so the test harness's own threads never perturb the count).
struct Counting;

impl Counting {
    fn note(bytes: usize) {
        let _ = COUNTING.try_with(|on| {
            if on.get() {
                let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
                let _ = BYTES.try_with(|n| n.set(n.get() + bytes));
            }
        });
    }
}

// SAFETY: every call forwards unchanged to `System`; the bookkeeping only
// touches const-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread, and the bytes they ask for.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    ALLOCS.with(|n| n.set(0));
    BYTES.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

#[test]
fn repeated_fork_allocates_nothing() {
    let cases: [(Box<dyn Workload>, GpuConfig); 2] = [
        (Box::new(VectorAdd::new(256)), GpuConfig::rtx2060()),
        (Box::new(HotSpot::default()), GpuConfig::gtx_titan()),
    ];
    for (w, card) in &cases {
        let golden = profile(w.as_ref(), card).unwrap();
        let mut rec = Gpu::new(card.clone());
        rec.record_checkpoints((golden.total_cycles() / 4).max(1), 1 << 28);
        w.run(&mut rec).unwrap();
        let store = std::sync::Arc::new(rec.finish_checkpoint_recording());
        assert!(store.len() >= 2, "{}: need several snapshots", w.name());
        let mut gpu = Gpu::new(card.clone());
        for idx in 0..store.len() {
            gpu.resume_from(&store, idx);
            let ((), n, _) = allocations_of(|| gpu.resume_from(&store, idx));
            assert_eq!(
                n,
                0,
                "{} on {}: re-forking snapshot {idx} allocated {n} time(s)",
                w.name(),
                card.name
            );
        }
    }
}

#[test]
fn recording_allocates_a_fraction_of_the_nominal_store() {
    // (workload, card, snapshots, allocated bytes must stay under
    // nominal / this).  HS's 22 GTX Titan snapshots are mostly core state:
    // 6.93 MB of 86 MB nominal; 7.23 MB, over nominal / 12, when a capture
    // copied each written cache's chunk table into a new allocation
    // instead of sharing the one it was written in, and 13.6 MB when every
    // warp also held a row of ACE timestamps per register.  BFS's 6 GV100
    // snapshots allocate 5.0 MB of 216 MB nominal, 7.9 MB when every
    // capture copied each cache's chunk table.
    let cases: [(Box<dyn Workload>, GpuConfig, usize, usize); 3] = [
        (Box::new(Gaussian::new()), GpuConfig::rtx2060(), 12, 8),
        (Box::new(HotSpot::default()), GpuConfig::gtx_titan(), 22, 12),
        (Box::new(Bfs::default()), GpuConfig::quadro_gv100(), 6, 32),
    ];
    for (w, card, snapshots, share) in &cases {
        let golden = profile(w.as_ref(), card).unwrap();
        // The campaign's stride (golden / 24) and budget.
        let interval = (golden.total_cycles() / 24).max(1);
        let (store, _, bytes) = allocations_of(|| {
            let mut rec = Gpu::new(card.clone());
            rec.record_checkpoints(interval, gpufi::core::DEFAULT_CHECKPOINT_BUDGET);
            w.run(&mut rec).unwrap();
            rec.finish_checkpoint_recording()
        });
        let nominal = store.resident_bytes();
        assert_eq!(store.len(), *snapshots, "{} on {}", w.name(), card.name);
        assert!(
            bytes < nominal / share,
            "{} on {}: recording {} snapshots allocated {bytes} bytes against {nominal} nominal",
            w.name(),
            card.name,
            store.len()
        );
        assert!(
            store.held_bytes() <= bytes,
            "{} on {}: the store holds more than was allocated",
            w.name(),
            card.name
        );
    }
}

#[test]
fn snapshots_of_an_idle_device_allocate_no_chunk_table() {
    use gpufi::sim::{mem::Cache, SimtCore};
    use std::mem::size_of;
    let card = GpuConfig::rtx2060();
    let gpu = Gpu::new(card.clone());
    let (_first, _, once) = allocations_of(|| gpu.snapshot());
    let (_second, _, again) = allocations_of(|| gpu.snapshot());
    assert_eq!(once, again, "the second capture allocated differently");
    // A 16 MB nominal RTX 2060 snapshot shares every cache's chunk table:
    // what it allocates is the core and cache structs and the L2 banks'
    // two timing queues, 16.9 kB (the tables were another 102 kB when a
    // capture copied them).
    let (sms, banks) = (card.num_sms as usize, card.num_l2_banks as usize);
    let structs = sms
        * (size_of::<SimtCore>() + size_of::<Option<Cache>>() + 2 * size_of::<Cache>())
        + banks * (size_of::<Cache>() + 2 * size_of::<u64>());
    assert_eq!(once, structs, "a capture allocated more than its structs");
}
