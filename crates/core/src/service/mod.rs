//! Distributed campaign service: a `serve` coordinator that partitions a
//! campaign's run-index space into leases and TCP workers that execute
//! them (ROADMAP item 1 — the supervisor's crash-safety story lifted one
//! level up).
//!
//! The division of labour keeps the distributed path bit-identical to a
//! serial run *by construction* rather than by protocol care:
//!
//! - Both sides draw the **same plans** from the same `CampaignConfig`,
//!   chip and golden profile (per-run RNG is derived from the run index),
//!   and prove it in the handshake by exchanging the campaign description
//!   the journal header also carries — which deliberately excludes
//!   threads/journal/resume, the knobs that differ between coordinator and
//!   worker.  Either side refuses a mismatch with the first parameter that
//!   differs (`` `seed` is 5 at the coordinator, 6 at the worker ``).
//! - Workers execute leased run indices with the **same
//!   `supervised_run`** the local executor uses (same pre-classification,
//!   checkpoint, early-exit, stratified and retry-once semantics) and
//!   stream back the run's journal record fields.
//! - The coordinator owns the **one canonical journal/CSV/tally** via the
//!   lease `Board` that schedules in-process threads too: first-ack-wins
//!   by run index, the single-writer journal channel, canonical run order
//!   at the end — so CSV, tally *and* journal bytes match `--threads 1`.
//! - A lease whose worker dies, stalls past the heartbeat deadline, or
//!   tears a frame mid-write is **reissued**; duplicated acks are counted
//!   and dropped.  A killed coordinator restarts with `--resume` and
//!   leases only the journal's missing indices.

mod coordinator;
mod proto;
mod worker;

pub use coordinator::{serve_campaign, serve_campaign_with_chaos, CoordinatorChaos};
pub use worker::{run_worker, run_worker_with_chaos, ChaosPlan, WorkerReport};

use std::fmt;

/// Tuning knobs of the distributed service (both sides).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Run indices per lease; `0` auto-sizes to `runs.div_ceil(16)`
    /// clamped to `[1, 4096]` — small enough that worker death wastes
    /// little work, large enough that frames are not the bottleneck.
    pub lease_size: usize,
    /// Worker heartbeat period in milliseconds: a worker pings at this
    /// rate while executing, so slow runs are not mistaken for death.
    pub heartbeat_ms: u64,
    /// Coordinator stall deadline in milliseconds: a granted lease whose
    /// connection stays silent this long is reclaimed and reissued.
    pub deadline_ms: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            lease_size: 0,
            heartbeat_ms: 500,
            deadline_ms: 5_000,
        }
    }
}

impl ServiceConfig {
    /// The lease size actually used for a campaign of `runs` runs
    /// (resolves the `0` auto-size).
    pub fn effective_lease_size(&self, runs: usize) -> usize {
        match self.lease_size {
            0 => runs.div_ceil(16).clamp(1, 4096),
            n => n.clamp(1, 4096),
        }
    }
}

/// Why a service-side operation failed.  Campaign-layer failures are
/// carried as [`ServiceError::Campaign`]; everything else is the
/// transport/protocol taxonomy the torture tests pin down.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// Socket-level failure outside the frame grammar.
    Io(String),
    /// Peer closed the connection cleanly between frames.
    Closed,
    /// Peer died mid-frame (EOF inside a header or payload) — for a
    /// granted lease this triggers reissue.
    TornFrame,
    /// A frame violated the grammar: bad header, oversized or zero
    /// length, missing terminator, non-UTF-8 payload.
    Frame(String),
    /// A granted lease's connection stayed silent past the deadline.
    Stalled,
    /// A well-formed frame carried a message the state machine cannot
    /// accept (unknown type, missing field, wrong lease id...), or the
    /// handshake found another protocol version or campaign.
    Protocol(String),
    /// The peer rejected our handshake with this reason.
    Rejected(String),
    /// The underlying campaign machinery failed (draw, journal, ...).
    Campaign(String),
    /// A chaos hook deliberately killed this side (tests only).
    Chaos,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Io(e) => write!(f, "socket error: {e}"),
            ServiceError::Closed => write!(f, "peer closed the connection"),
            ServiceError::TornFrame => write!(f, "peer died mid-frame"),
            ServiceError::Frame(e) => write!(f, "malformed frame: {e}"),
            ServiceError::Stalled => write!(f, "peer silent past the stall deadline"),
            ServiceError::Protocol(e) => write!(f, "protocol violation: {e}"),
            ServiceError::Rejected(reason) => write!(f, "handshake rejected: {reason}"),
            ServiceError::Campaign(e) => write!(f, "campaign error: {e}"),
            ServiceError::Chaos => write!(f, "killed by chaos plan"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<crate::campaign::CampaignError> for ServiceError {
    fn from(e: crate::campaign::CampaignError) -> Self {
        ServiceError::Campaign(e.to_string())
    }
}
