//! The `serve` side: transport only.  It owns the canonical outputs but
//! never simulates a run and never touches a slot: every TCP connection
//! is one client of the campaign's one scheduler, the lease `Board`
//! (`campaign.rs`), which grants, merges first-ack-wins and reclaims for
//! it.  What lives here is the accept loop, the handshake, the frames,
//! the idle ping and the stall deadline — and the reclaim of a lease
//! whose connection fails.

use super::proto::{read_frame, write_frame, Msg, PROTO_VERSION};
use super::{ServiceConfig, ServiceError};
use crate::campaign::{prepare, Board, CampaignConfig, CampaignResult, Grant, Refused};
use crate::json::{self, Value};
use crate::profile::GoldenProfile;
use crate::workload::Workload;
use gpufi_sim::GpuConfig;
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Coordinator-side hooks for the chaos tests.  Passing any of them also
/// makes the coordinator give up, with [`ServiceError::Campaign`], once
/// every worker that connected has gone for the stall deadline while runs
/// are left: a test whose workers all failed would otherwise wait for
/// another forever.  [`serve_campaign`] waits for workers as long as it
/// takes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoordinatorChaos {
    /// Simulate the coordinator being SIGKILLed (stop serving, leave the
    /// journal exactly as the crash would) after this many merged run
    /// records (counted in this process; resumed records do not count).
    /// `Some(0)` dies before the first merge.
    pub die_after_merges: Option<usize>,
}

/// Runs one campaign as the coordinator of a distributed sweep: accepts
/// workers on `listener`, leases them run indices, merges their acks into
/// the canonical journal/CSV/tally and reissues leases lost to worker
/// death, stalls or torn frames.  Returns the same [`CampaignResult`] a
/// local [`run_campaign`](crate::campaign::run_campaign) would — CSV,
/// tally and journal byte-identical to a `--threads 1` run.
pub fn serve_campaign(
    workload: &dyn Workload,
    card: &GpuConfig,
    cfg: &CampaignConfig,
    golden: &GoldenProfile,
    svc: &ServiceConfig,
    listener: TcpListener,
) -> Result<CampaignResult, ServiceError> {
    serve_campaign_with_chaos(workload, card, cfg, golden, svc, listener, None)
}

/// [`serve_campaign`] with an optional coordinator-death chaos hook.
pub fn serve_campaign_with_chaos(
    workload: &dyn Workload,
    card: &GpuConfig,
    cfg: &CampaignConfig,
    golden: &GoldenProfile,
    svc: &ServiceConfig,
    listener: TcpListener,
    chaos: Option<&CoordinatorChaos>,
) -> Result<CampaignResult, ServiceError> {
    if cfg.oracle_check {
        return Err(ServiceError::Campaign(
            "--oracle-check is a single-process validation mode; run it without serve".into(),
        ));
    }
    // The shared first stage: identical plan drawing and journal/resume
    // to the local executor, the same cycle-sorted order, leased
    // `--lease-size` runs at a time.  Resumed runs are never leased, so
    // workers never see them.
    let lease_size = svc.effective_lease_size(cfg.runs);
    let p = prepare(
        workload,
        card,
        cfg,
        golden,
        lease_size,
        chaos.and_then(|c| c.die_after_merges),
    )?;
    let (campaign, board) = (&p.drawn.campaign, &p.board);

    let addr = listener
        .local_addr()
        .map_err(|e| ServiceError::Io(format!("local_addr: {e}")))?;
    let stop = AtomicBool::new(false);
    // Connections accepted so far, and those still being handled.
    let (accepted, live) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let mut gave_up = false;

    let died = std::thread::scope(|scope| {
        // Accept loop: one handler thread per connection.  Unblocked at
        // completion by a dummy self-connection after `stop` is set.
        let (stop, accepted, live) = (&stop, &accepted, &live);
        let listener = &listener;
        scope.spawn(move || {
            while let Ok((stream, _)) = listener.accept() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                accepted.fetch_add(1, Ordering::SeqCst);
                live.fetch_add(1, Ordering::SeqCst);
                scope.spawn(move || {
                    let _ = handle_worker(stream, board, svc, campaign);
                    live.fetch_sub(1, Ordering::SeqCst);
                });
            }
        });
        let died = if chaos.is_some() {
            // The unattended clock starts only once a worker has come and
            // every one has gone, so a worker still drawing its plans
            // before it connects cannot trip it.
            let deadline = Duration::from_millis(svc.deadline_ms.max(1));
            let mut unattended_since = None;
            loop {
                if let Some(died) = board.wait_for(deadline / 4) {
                    break died;
                }
                let unattended =
                    accepted.load(Ordering::SeqCst) > 0 && live.load(Ordering::SeqCst) == 0;
                unattended_since =
                    unattended.then(|| unattended_since.unwrap_or_else(Instant::now));
                if unattended_since.is_some_and(|t| t.elapsed() >= deadline) {
                    board.abandon();
                    gave_up = true;
                    break true;
                }
            }
        } else {
            board.wait()
        };
        stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr);
        died
    });

    // The shared last stage.  A chaos death skips canonicalization —
    // exactly what SIGKILL would leave behind.
    let result = p.finish(cfg, 1);
    if gave_up {
        return Err(ServiceError::Campaign(
            "every worker left, and none came back for the stall deadline with runs left".into(),
        ));
    }
    if died {
        return Err(ServiceError::Chaos);
    }
    Ok(result?)
}

/// One worker connection, handshake to Fin.  Any error drops the
/// connection; a granted lease is reclaimed on the way out.
fn handle_worker(
    stream: TcpStream,
    board: &Board,
    svc: &ServiceConfig,
    campaign: &Value,
) -> Result<(), ServiceError> {
    let mut stream = stream;
    stream.set_nodelay(true).ok();
    // The stall deadline doubles as the read timeout: a lease owner that
    // stays silent this long (no acks, no heartbeat) is presumed dead.
    stream
        .set_read_timeout(Some(Duration::from_millis(svc.deadline_ms.max(1))))
        .ok();
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| ServiceError::Io(format!("clone stream: {e}")))?,
    );

    // Handshake: the worker's description is checked here; the worker
    // checks the Welcome's for the other direction.  A frame that is not a
    // v7 hello (an older worker's) is refused, not dropped.
    let hello = Msg::decode(&read_frame(&mut reader)?);
    let reason = match &hello {
        Ok(Msg::Hello {
            proto: PROTO_VERSION,
            campaign: theirs,
        }) => json::first_difference(campaign, theirs, "at the coordinator", "at the worker")
            .map(|d| format!("different campaign: {d}")),
        _ => Some(format!("expected a protocol v{PROTO_VERSION} hello frame")),
    };
    if let Some(reason) = reason {
        let err = ServiceError::Protocol(reason.clone());
        let _ = write_frame(&mut stream, &Msg::Reject { reason }.encode());
        return Err(err);
    }
    let welcome = Msg::Welcome {
        campaign: campaign.clone(),
    };
    write_frame(&mut stream, &welcome.encode())?;

    if let Some(wid) = board.join() {
        let idle = Duration::from_millis(svc.heartbeat_ms.max(1));
        loop {
            match board.grant(Some(wid), idle) {
                Grant::Done => break,
                // Idle ping: keeps the worker's blocking read fed and
                // detects its death while no lease is at stake.
                Grant::Idle => write_frame(&mut stream, &Msg::Ping.encode())?,
                Grant::Lease(id, runs) => {
                    if let Err(e) = serve_lease(&mut stream, &mut reader, board, wid, id, runs) {
                        // A chaos death is not the worker's fault: no
                        // reissue, the "crashed" coordinator just stops.
                        if e != ServiceError::Chaos {
                            board.reclaim(id);
                        }
                        return Err(e);
                    }
                }
            }
        }
    }
    let _ = write_frame(&mut stream, &Msg::Fin.encode());
    Ok(())
}

/// Streams one granted lease: write the grant, merge `done` acks until
/// every run of the lease is accounted for.
fn serve_lease(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    board: &Board,
    wid: usize,
    id: u64,
    runs: Vec<usize>,
) -> Result<(), ServiceError> {
    write_frame(
        stream,
        &Msg::Lease {
            id,
            runs: runs.clone(),
        }
        .encode(),
    )?;
    let mut remaining = runs;
    while !remaining.is_empty() {
        match Msg::decode(&read_frame(reader)?)? {
            Msg::Ping => continue,
            // Workers do not report oracle verdicts or panics: the
            // coordinator's counters cover its merges only.
            Msg::Done { lease, run, out } => match board.merge(Some(wid), lease, run, out) {
                Ok(()) => remaining.retain(|&r| r != run),
                Err(Refused::Died) => return Err(ServiceError::Chaos),
                Err(Refused::Unleased) => {
                    return Err(ServiceError::Protocol(format!(
                        "ack for unleased run {run} (lease {lease}, serving {id})"
                    )))
                }
            },
            other => {
                return Err(ServiceError::Protocol(format!(
                    "unexpected message during lease {id}: {other:?}"
                )))
            }
        }
    }
    Ok(())
}
