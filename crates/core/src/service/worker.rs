//! The `worker` side: transport only.  A worker draws the **same plans**
//! the coordinator did (proved by the handshake's descriptions), executes
//! exactly the run indices it is leased through the campaign's one
//! `supervised_run`, and streams back the exact journal record line — so
//! the record a worker produces is byte-for-byte the record a
//! `--threads 1` run would have journaled.

use super::proto::{encode_frame, read_frame, write_frame, Msg, PROTO_VERSION};
use super::{ServiceConfig, ServiceError};
use crate::campaign::{draw, record_store, CampaignConfig, RunEnv};
use crate::json;
use crate::profile::GoldenProfile;
use crate::workload::Workload;
use gpufi_sim::GpuConfig;
use std::io::{BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Worker-side fault injection for the chaos tests.  Ack indices count
/// `done` frames this worker has sent (first sends only), starting at 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosPlan {
    /// Shut the socket down abruptly (no Fin, mid-lease) once this many
    /// acks have been sent — worker death; the lease must be reissued.
    pub kill_after_acks: Option<usize>,
    /// Sleep this long immediately before sending ack `.0` — combined
    /// with `suppress_heartbeat`, a stall past the coordinator deadline.
    pub delay_before_ack: Option<(usize, u64)>,
    /// Write only half the frame bytes of ack `.0`, then die — a torn
    /// frame the coordinator must detect and reissue.
    pub torn_frame_at: Option<usize>,
    /// Send ack `.0` twice — the coordinator must dedup by run index.
    pub duplicate_ack_at: Option<usize>,
    /// Do not run the heartbeat thread, so a long-running or delayed run
    /// looks like death to the coordinator.
    pub suppress_heartbeat: bool,
}

/// What one worker process did, for tests and the CLI summary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Runs executed and acked (first sends only).
    pub runs: usize,
    /// Leases completed end-to-end.
    pub leases: usize,
    /// The exact run indices executed, in execution order — the
    /// coordinator-resume test asserts no index is executed twice across
    /// worker generations.
    pub run_indices: Vec<usize>,
}

/// Connects to a coordinator at `addr` and executes leases until `fin`.
///
/// The `cfg` and `card` must describe the same campaign the coordinator
/// serves — the handshake exchanges the campaign descriptions (which
/// exclude threads/journal/resume, the knobs that legitimately differ)
/// and both sides reject a mismatch, naming the parameter.
pub fn run_worker(
    addr: &str,
    workload: &dyn Workload,
    card: &GpuConfig,
    cfg: &CampaignConfig,
    golden: &GoldenProfile,
    svc: &ServiceConfig,
) -> Result<WorkerReport, ServiceError> {
    run_worker_with_chaos(
        addr,
        workload,
        card,
        cfg,
        golden,
        svc,
        &ChaosPlan::default(),
    )
}

/// [`run_worker`] with chaos injection (tests only).
pub fn run_worker_with_chaos(
    addr: &str,
    workload: &dyn Workload,
    card: &GpuConfig,
    cfg: &CampaignConfig,
    golden: &GoldenProfile,
    svc: &ServiceConfig,
    chaos: &ChaosPlan,
) -> Result<WorkerReport, ServiceError> {
    let drawn = draw(workload, card, cfg, golden)?;

    let stream =
        TcpStream::connect(addr).map_err(|e| ServiceError::Io(format!("connect {addr}: {e}")))?;
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| ServiceError::Io(format!("clone stream: {e}")))?,
    );
    // All frame writes — acks and heartbeats — go through one lock, and
    // every frame is a single `write_all`, so frames never interleave.
    let writer = Arc::new(Mutex::new(stream));

    let hello = Msg::Hello {
        proto: PROTO_VERSION,
        campaign: drawn.campaign.clone(),
    };
    write_locked(&writer, &hello.encode())?;
    match Msg::decode(&read_frame(&mut reader)?)? {
        // The other direction of the handshake check: a coordinator
        // serving a different campaign than we drew is refused even if it
        // accepted us.
        Msg::Welcome { campaign } => {
            let ours = &drawn.campaign;
            if let Some(d) = json::first_difference(&campaign, ours, "at the coordinator", "here") {
                return Err(ServiceError::Protocol(format!("different campaign: {d}")));
            }
        }
        Msg::Reject { reason } => return Err(ServiceError::Rejected(reason)),
        other => {
            return Err(ServiceError::Protocol(format!(
                "expected welcome or reject, got {other:?}"
            )))
        }
    }

    // Heartbeat: pings at `heartbeat_ms` keep the coordinator's stall
    // deadline at bay while a slow run executes.  The session's end drops
    // `stop`, which wakes the wait at once instead of a period later.
    let (stop, stopped) = mpsc::channel::<()>();
    let heartbeat = (!chaos.suppress_heartbeat).then(|| {
        let writer = Arc::clone(&writer);
        let period = Duration::from_millis(svc.heartbeat_ms.max(1));
        std::thread::spawn(move || {
            while stopped.recv_timeout(period) == Err(RecvTimeoutError::Timeout) {
                if write_locked(&writer, &Msg::Ping.encode()).is_err() {
                    break;
                }
            }
        })
    });

    // The checkpoint store re-records the golden run once, lazily on the
    // first lease: a worker that is only ever told `fin` pays nothing.
    let mut env = RunEnv {
        workload,
        card,
        cfg,
        golden,
        drawn: &drawn,
        store: None,
        oracle_img: None,
        hook: None,
    };
    // The one device every leased run forks on.
    let mut gpu = None;
    let mut report = WorkerReport::default();
    let mut acks = 0usize;

    let outcome = (|| -> Result<(), ServiceError> {
        loop {
            let msg = Msg::decode(&read_frame(&mut reader)?)?;
            match msg {
                Msg::Ping => continue,
                Msg::Fin => return Ok(()),
                Msg::Lease { id, runs } => {
                    if env.store.is_none() && cfg.checkpoints && !runs.is_empty() {
                        env.store = record_store(workload, card, golden);
                    }
                    for &i in &runs {
                        if i >= drawn.plans.len() {
                            return Err(ServiceError::Protocol(format!(
                                "leased run {i} outside campaign of {}",
                                drawn.plans.len()
                            )));
                        }
                        if let Some((at, ms)) = chaos.delay_before_ack {
                            if acks == at {
                                std::thread::sleep(Duration::from_millis(ms));
                            }
                        }
                        let (rec, ..) = env.supervised_run(&mut gpu, i);
                        let payload = Msg::Done {
                            lease: id,
                            run: i,
                            rec,
                        }
                        .encode();
                        if chaos.torn_frame_at == Some(acks) {
                            let frame = encode_frame(&payload);
                            let mut w = writer.lock().expect("writer lock poisoned");
                            let _ = w.write_all(&frame[..frame.len() / 2]);
                            let _ = w.flush();
                            let _ = w.shutdown(Shutdown::Both);
                            return Err(ServiceError::Chaos);
                        }
                        write_locked(&writer, &payload)?;
                        report.runs += 1;
                        report.run_indices.push(i);
                        if chaos.duplicate_ack_at == Some(acks) {
                            write_locked(&writer, &payload)?;
                        }
                        acks += 1;
                        if chaos.kill_after_acks == Some(acks) {
                            let w = writer.lock().expect("writer lock poisoned");
                            let _ = w.shutdown(Shutdown::Both);
                            return Err(ServiceError::Chaos);
                        }
                    }
                    report.leases += 1;
                }
                other => {
                    return Err(ServiceError::Protocol(format!(
                        "unexpected message from coordinator: {other:?}"
                    )))
                }
            }
        }
    })();

    drop(stop);
    if let Some(h) = heartbeat {
        let _ = h.join();
    }
    outcome.map(|()| report)
}

fn write_locked(writer: &Mutex<TcpStream>, payload: &str) -> Result<(), ServiceError> {
    let mut w = writer.lock().expect("writer lock poisoned");
    write_frame(&mut *w, payload)
}
