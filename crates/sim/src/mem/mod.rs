//! The GPU memory system: DRAM backing store, banked L2, and per-SM L1
//! data / texture caches.

mod cache;
mod system;
mod validity;

pub use cache::{Cache, CacheStats, FlipOutcome, Writeback};
pub(crate) use system::{runs, CacheBit};
pub use system::{AccessKind, MemSystem, GLOBAL_BASE, LOCAL_BASE};
pub(crate) use validity::Timeline;
