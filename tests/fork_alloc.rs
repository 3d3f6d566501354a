//! A fork restores the device in place: forking the same `Gpu` from the
//! same snapshot twice in a row must not touch the heap the second time —
//! every buffer already has the snapshot's shape, so `clone_from` reuses
//! it, and cache arrays still stamped with the snapshot's contents are not
//! even copied.  Its own test binary, because it installs a counting
//! global allocator.

use gpufi::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Whether this thread's allocations are being counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Allocations (including reallocations) counted on this thread.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting the allocations of threads that opted
/// in (so the test harness's own threads never perturb the count).
struct Counting;

impl Counting {
    fn note() {
        let _ = COUNTING.try_with(|on| {
            if on.get() {
                let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
            }
        });
    }
}

// SAFETY: every call forwards unchanged to `System`; the bookkeeping only
// touches const-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations_of(f: impl FnOnce()) -> usize {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    ALLOCS.with(Cell::get)
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
            let n = allocations_of(|| gpu.resume_from(&store, idx));
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
