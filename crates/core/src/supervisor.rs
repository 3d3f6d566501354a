//! Fault-tolerant campaign supervision: per-run panic capture, the
//! crash-safe run journal, and the campaign fingerprint.
//!
//! gpuFI-4-style campaigns *expect* injections to make the machine
//! misbehave — Crash and Timeout are first-class outcomes — so the engine
//! must survive two failure modes of its own:
//!
//! * a **simulator-internal panic**: a flip corrupts an invariant the
//!   simulator itself relies on (decoder tables, SIMT stack depth, cache
//!   tag bookkeeping) and the run dies not with a modelled trap but with a
//!   Rust panic.  [`catch_run`] captures the unwind per run, with a scoped
//!   panic hook that keeps the message and suppresses the default
//!   stderr backtrace, so sibling workers are untouched;
//! * **process death**: an interrupted campaign must not lose thousands of
//!   completed runs.  [`RunJournal`] appends one fsync'd JSON line per
//!   completed run; `run_campaign` resumes from the journal and schedules
//!   only the missing run indices.
//!
//! The journal is bound to its campaign by a [`campaign_fingerprint`] —
//! a hash over every configuration field that influences per-run records
//! (seed, spec, workload, card, engine modes) — so a stale or foreign
//! journal is rejected instead of silently splicing wrong records.

use crate::campaign::{CampaignConfig, RunRecord, DEFAULT_CHECKPOINT_BUDGET};
use crate::classify::RunDetail;
use gpufi_metrics::FaultEffect;
use std::cell::{Cell, RefCell};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex, Once};
use std::time::Instant;

// ----------------------------------------------------------------------
// Per-run panic isolation
// ----------------------------------------------------------------------

thread_local! {
    /// Whether the current thread is inside a supervised injection run.
    static SUPERVISED: Cell<bool> = const { Cell::new(false) };
    /// The panic message captured by the scoped hook for this thread.
    static CAPTURED: RefCell<Option<String>> = const { RefCell::new(None) };
}

static HOOK: Once = Once::new();

/// Installs the process-wide panic hook exactly once, chaining to the
/// previously installed hook.  While a thread is inside [`catch_run`] the
/// hook records the panic message (with location) into that thread's slot
/// and stays silent; panics on any other thread — including test
/// harnesses running in parallel — go to the previous hook unchanged.
fn install_hook() {
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if SUPERVISED.with(Cell::get) {
                let msg = payload_message(info.payload());
                let loc = info
                    .location()
                    .map(|l| format!(" at {l}"))
                    .unwrap_or_default();
                CAPTURED.with(|c| *c.borrow_mut() = Some(format!("{msg}{loc}")));
            } else {
                prev(info);
            }
        }));
    });
}

/// Best-effort extraction of a panic payload's message.
fn payload_message(payload: &dyn std::any::Any) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f` with per-run panic isolation: a panic anywhere inside `f` is
/// caught and returned as its message instead of unwinding into the
/// worker (and without the default hook's stderr noise).
///
/// The closure is asserted unwind-safe because every supervised run
/// constructs its `Gpu` *inside* `f` and only borrows shared inputs
/// ([`Workload`](crate::Workload) requires `RefUnwindSafe`, and
/// `gpufi_sim` statically asserts it for the checkpoint store and
/// config) — a panic can therefore strand no half-mutated state that any
/// sibling or later retry could observe.
pub(crate) fn catch_run<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    install_hook();
    SUPERVISED.with(|s| s.set(true));
    let out = panic::catch_unwind(AssertUnwindSafe(f));
    SUPERVISED.with(|s| s.set(false));
    out.map_err(|payload| {
        CAPTURED
            .with(|c| c.borrow_mut().take())
            .unwrap_or_else(|| payload_message(&*payload))
    })
}

// ----------------------------------------------------------------------
// Campaign fingerprint
// ----------------------------------------------------------------------

/// FNV-1a over `bytes` (the same hash the golden-output checksums use).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hashes every campaign parameter that influences per-run records —
/// workload, card, seed, run count, fault spec, kernel restriction and
/// engine modes — into the journal's identity.  Deliberately excluded:
/// `threads` (records are thread-count invariant, so a campaign journaled
/// on one thread may resume on four) and the journal/resume fields
/// themselves.  `interval=0` (the always-automatic checkpoint stride) and
/// `budget=` (the constant checkpoint budget) stay in place, so the
/// material (and every journal's fingerprint) keeps its layout.
pub fn campaign_fingerprint(workload: &str, card: &str, cfg: &CampaignConfig) -> u64 {
    let canonical = format!(
        "gpufi-journal-v1|workload={workload}|card={card}|seed={}|runs={}|kernel={:?}|\
         spec={:?}|early_exit={}|checkpoints={}|interval=0|budget={}|window={:?}|\
         oracle={}|static_prune={}|max_run_ms={}|sampling={}",
        cfg.seed,
        cfg.runs,
        cfg.kernel,
        cfg.spec,
        cfg.early_exit,
        cfg.checkpoints,
        DEFAULT_CHECKPOINT_BUDGET,
        cfg.cycle_window,
        cfg.oracle_check,
        cfg.static_prune,
        cfg.max_run_ms,
        cfg.sampling,
    );
    fnv1a(canonical.as_bytes())
}

/// Hashes a strata layout's canonical description
/// ([`crate::StrataLayout::fingerprint_material`]) — the `layout_hash`
/// reported in [`crate::SamplingSummary`].
pub(crate) fn strata_hash(material: &str) -> u64 {
    fnv1a(material.as_bytes())
}

/// Folds a strata layout hash into a campaign fingerprint: a stratified
/// journal is bound to its exact stratification (weights, segments,
/// budget allocation), not just the campaign parameters, so `--resume`
/// refuses to splice runs drawn under a different layout.
pub(crate) fn stratified_fingerprint(base: u64, layout_hash: u64) -> u64 {
    fnv1a(format!("{base:016x}|strata={layout_hash:016x}").as_bytes())
}

// ----------------------------------------------------------------------
// Crash-safe run journal
// ----------------------------------------------------------------------

/// Append-only, crash-safe record of completed injection runs
/// (`<out>.journal.jsonl`): one header line binding the file to its
/// campaign, then one fsync'd JSON line per completed run.  Workers
/// append concurrently through an internal lock; each line is written and
/// synced atomically with respect to the others, so after a `SIGKILL` the
/// file is a valid prefix plus at most one torn final line (which
/// [`RunJournal::resume`] discards and truncates away).
#[derive(Debug)]
pub struct RunJournal {
    path: String,
    file: Mutex<File>,
    bytes: AtomicU64,
    nanos: AtomicU64,
}

/// One journal line.  Values never contain `,`, `{`, `}` or `"`, so the
/// reader can parse with plain field scans instead of a JSON dependency.
/// The trailing `stratum` field appears only on stratified-campaign
/// records, keeping flat journals byte-identical to previous versions.
/// The distributed service streams these exact lines over its wire
/// protocol, so the codec is crate-visible.
pub(crate) fn record_line(run: usize, r: &RunRecord) -> String {
    let stratum = match r.stratum {
        Some(s) => format!(",\"stratum\":{s}"),
        None => String::new(),
    };
    format!(
        "{{\"run\":{run},\"effect\":\"{}\",\"cycles\":{},\"applied\":{},\"early_exit\":{},\
         \"ckpt\":{},\"detail\":\"{}\"{stratum}}}\n",
        r.effect.name(),
        r.cycles,
        r.applied,
        r.early_exit,
        r.ckpt_skipped_cycles,
        r.detail.as_str(),
    )
}

fn header_line(fingerprint: u64, runs: usize) -> String {
    format!("{{\"v\":1,\"fingerprint\":\"{fingerprint:016x}\",\"runs\":{runs}}}\n")
}

/// Extracts the raw value of `"key":` from a single-line JSON object
/// (up to the next `,` or `}`), with surrounding quotes stripped.
pub(crate) fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim_matches('"'))
}

pub(crate) fn parse_record_line(line: &str) -> Option<(usize, RunRecord)> {
    if !line.starts_with('{') || !line.ends_with('}') {
        return None;
    }
    let run: usize = json_field(line, "run")?.parse().ok()?;
    let effect = FaultEffect::parse(json_field(line, "effect")?)?;
    let parse_bool = |v: &str| match v {
        "true" => Some(true),
        "false" => Some(false),
        _ => None,
    };
    Some((
        run,
        RunRecord {
            effect,
            cycles: json_field(line, "cycles")?.parse().ok()?,
            applied: parse_bool(json_field(line, "applied")?)?,
            early_exit: parse_bool(json_field(line, "early_exit")?)?,
            ckpt_skipped_cycles: json_field(line, "ckpt")?.parse().ok()?,
            detail: RunDetail::parse(json_field(line, "detail")?)?,
            stratum: match json_field(line, "stratum") {
                Some(v) => Some(v.parse().ok()?),
                None => None,
            },
        },
    ))
}

impl RunJournal {
    /// Creates (or truncates) the journal at `path` and writes its header.
    pub fn create(path: &str, fingerprint: u64, runs: usize) -> Result<RunJournal, String> {
        let mut file = File::create(path).map_err(|e| format!("cannot create `{path}`: {e}"))?;
        let header = header_line(fingerprint, runs);
        file.write_all(header.as_bytes())
            .and_then(|()| file.sync_data())
            .map_err(|e| format!("cannot write journal header to `{path}`: {e}"))?;
        Ok(RunJournal {
            path: path.to_string(),
            file: Mutex::new(file),
            bytes: AtomicU64::new(header.len() as u64),
            nanos: AtomicU64::new(0),
        })
    }

    /// Opens an existing journal for resumption: validates the header
    /// against this campaign's `fingerprint` and `runs`, loads every
    /// complete record, truncates any torn final line (a write cut short
    /// by process death), and returns the journal positioned to append.
    ///
    /// # Errors
    ///
    /// Rejects a journal whose header is unreadable or belongs to a
    /// different campaign — resuming someone else's records would splice
    /// wrong results into the CSV.
    pub fn resume(
        path: &str,
        fingerprint: u64,
        runs: usize,
    ) -> Result<(RunJournal, Vec<Option<RunRecord>>), String> {
        let mut text = String::new();
        File::open(path)
            .and_then(|mut f| f.read_to_string(&mut text))
            .map_err(|e| format!("cannot read journal `{path}`: {e}"))?;

        let mut records: Vec<Option<RunRecord>> = vec![None; runs];
        let mut valid_bytes = 0usize;
        let mut saw_header = false;
        for chunk in text.split_inclusive('\n') {
            if !chunk.ends_with('\n') {
                break; // torn final line: the fsync never completed
            }
            let line = chunk.trim_end_matches(['\n', '\r']);
            if !saw_header {
                let fp = json_field(line, "fingerprint")
                    .ok_or_else(|| format!("journal `{path}` has no fingerprint header"))?;
                if fp != format!("{fingerprint:016x}") {
                    return Err(format!(
                        "journal `{path}` belongs to a different campaign \
                         (fingerprint {fp}, expected {fingerprint:016x}); \
                         delete it or drop --resume"
                    ));
                }
                let jr: usize = json_field(line, "runs")
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("journal `{path}` has a malformed header"))?;
                if jr != runs {
                    return Err(format!(
                        "journal `{path}` records a {jr}-run campaign, this one has {runs}"
                    ));
                }
                saw_header = true;
            } else {
                // A line that does not parse is a torn/corrupt tail; keep
                // the valid prefix and drop everything after it.
                let Some((run, rec)) = parse_record_line(line) else {
                    break;
                };
                if run >= runs {
                    break;
                }
                records[run] = Some(rec);
            }
            valid_bytes += chunk.len();
        }
        if !saw_header {
            return Err(format!("journal `{path}` has no complete header line"));
        }

        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| format!("cannot reopen journal `{path}`: {e}"))?;
        // Physically discard the torn tail so appended lines start clean.
        file.set_len(valid_bytes as u64)
            .map_err(|e| format!("cannot truncate journal `{path}`: {e}"))?;
        use std::io::Seek;
        let mut file = file;
        file.seek(std::io::SeekFrom::End(0))
            .map_err(|e| format!("cannot seek journal `{path}`: {e}"))?;
        Ok((
            RunJournal {
                path: path.to_string(),
                file: Mutex::new(file),
                bytes: AtomicU64::new(valid_bytes as u64),
                nanos: AtomicU64::new(0),
            },
            records,
        ))
    }

    /// Appends one completed run and syncs it to disk.  Called by the
    /// worker threads as each run finishes; failures are reported (the
    /// campaign result still holds the record in memory).
    pub fn append(&self, run: usize, rec: &RunRecord) -> Result<(), String> {
        let line = record_line(run, rec);
        let t0 = Instant::now();
        {
            let mut file = self.file.lock().expect("journal lock poisoned");
            file.write_all(line.as_bytes())
                .and_then(|()| file.sync_data())
                .map_err(|e| format!("journal write failed: {e}"))?;
        }
        self.bytes.fetch_add(line.len() as u64, Ordering::Relaxed);
        self.nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Bytes written to the journal by this handle.
    pub fn bytes_written(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Wall-clock milliseconds spent appending and syncing.
    pub fn wall_ms(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Rewrites the journal in **canonical order** — header first, then
    /// one line per run sorted by run index — via an atomic
    /// write-temp-and-rename.  Called once at successful campaign
    /// completion, it makes the journal of any worker layout (thread
    /// counts, distributed workers, resumed restarts) byte-identical to a
    /// serial `--threads 1` run's, so automation can `diff` journals the
    /// same way it diffs CSVs.  During the campaign lines stay in
    /// completion order for crash safety; an interrupted campaign's
    /// journal is simply never canonicalized (resume does not care).
    ///
    /// # Errors
    ///
    /// Reports read/write/rename failures; a line that does not parse is
    /// reported too — at completion every line must be a valid record.
    pub fn finalize_canonical(&self) -> Result<(), String> {
        let path = &self.path;
        // Take the writer lock for the whole rewrite so no append can
        // interleave with the rename.
        let mut file = self.file.lock().expect("journal lock poisoned");
        let mut text = String::new();
        File::open(path)
            .and_then(|mut f| f.read_to_string(&mut text))
            .map_err(|e| format!("cannot re-read journal `{path}`: {e}"))?;
        let mut lines = text.split_inclusive('\n');
        let header = lines
            .next()
            .ok_or_else(|| format!("journal `{path}` lost its header"))?
            .to_string();
        let mut records: Vec<(usize, &str)> = Vec::new();
        for chunk in lines {
            let line = chunk.trim_end_matches(['\n', '\r']);
            let (run, _) = parse_record_line(line)
                .ok_or_else(|| format!("journal `{path}` holds an unparseable line: {line}"))?;
            records.push((run, chunk));
        }
        records.sort_by_key(|&(run, _)| run);
        let tmp = format!("{path}.tmp");
        {
            let mut out = File::create(&tmp)
                .map_err(|e| format!("cannot create journal temp `{tmp}`: {e}"))?;
            out.write_all(header.as_bytes())
                .and_then(|()| {
                    records
                        .iter()
                        .try_for_each(|(_, chunk)| out.write_all(chunk.as_bytes()))
                })
                .and_then(|()| out.sync_data())
                .map_err(|e| format!("cannot write journal temp `{tmp}`: {e}"))?;
        }
        std::fs::rename(&tmp, path)
            .map_err(|e| format!("cannot swap canonical journal into `{path}`: {e}"))?;
        // The old handle points at the replaced inode; reopen so any later
        // append (there should be none) lands in the canonical file.
        *file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot reopen canonical journal `{path}`: {e}"))?;
        Ok(())
    }

    /// Moves this journal onto a dedicated **single-writer thread** and
    /// returns the handle pair: a clonable [`JournalSink`] for producers
    /// and the [`JournalWriter`] that joins the thread and hands the
    /// journal back.
    ///
    /// Rationale: campaign workers and — one level up — the distributed
    /// coordinator's per-connection lease mergers all complete runs
    /// concurrently.  Serializing every append through one channel and one
    /// writer thread makes partial-line interleaving impossible by
    /// construction (there is exactly one `write_all` caller), keeps fsync
    /// latency out of the simulation threads, and gives failures a single
    /// place to surface ([`JournalWriter::finish`]).
    pub(crate) fn into_writer(self) -> (JournalWriter, JournalSink) {
        let (tx, rx) = mpsc::channel::<(usize, RunRecord)>();
        let handle = std::thread::spawn(move || {
            let mut first_err: Option<String> = None;
            // Drain even after an error so producers never see the channel
            // vanish mid-campaign; only the first failure is reported.
            for (run, rec) in rx {
                if let Err(e) = self.append(run, &rec) {
                    first_err.get_or_insert(e);
                }
            }
            (self, first_err)
        });
        (JournalWriter { handle }, JournalSink { tx })
    }
}

/// The producer side of a single-writer journal: a clonable, non-blocking
/// handle that enqueues one completed run for the writer thread.  See
/// [`RunJournal::into_writer`].
#[derive(Debug, Clone)]
pub struct JournalSink {
    tx: mpsc::Sender<(usize, RunRecord)>,
}

impl JournalSink {
    /// Enqueues one completed run.  Never blocks on I/O and never fails:
    /// write/fsync errors surface once, from [`JournalWriter::finish`].
    pub fn append(&self, run: usize, rec: &RunRecord) {
        // A send error means the writer thread is gone; finish() reports
        // whatever killed it, so dropping the record here is safe.
        let _ = self.tx.send((run, *rec));
    }
}

/// The consumer side of a single-writer journal: joins the writer thread
/// once every [`JournalSink`] clone is dropped.
#[derive(Debug)]
pub struct JournalWriter {
    handle: std::thread::JoinHandle<(RunJournal, Option<String>)>,
}

impl JournalWriter {
    /// Waits for the writer thread to drain every queued append and
    /// returns the journal, or the first append error.
    ///
    /// Every [`JournalSink`] clone must be dropped before calling this,
    /// or the writer thread never observes end-of-stream.
    pub fn finish(self) -> Result<RunJournal, String> {
        let (journal, err) = self
            .handle
            .join()
            .map_err(|_| "journal writer thread panicked".to_string())?;
        match err {
            None => Ok(journal),
            Some(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpufi_faults::{CampaignSpec, Structure};

    fn rec(effect: FaultEffect, detail: RunDetail) -> RunRecord {
        RunRecord {
            effect,
            cycles: 1234,
            applied: true,
            early_exit: false,
            ckpt_skipped_cycles: 56,
            detail,
            stratum: None,
        }
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("gpufi-supervisor-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
            .to_str()
            .unwrap()
            .to_string()
    }

    #[test]
    fn record_lines_round_trip() {
        for effect in FaultEffect::ALL {
            for detail in RunDetail::ALL {
                for stratum in [None, Some(0), Some(417)] {
                    let r = RunRecord {
                        stratum,
                        ..rec(effect, detail)
                    };
                    let line = record_line(7, &r);
                    let (run, back) = parse_record_line(line.trim_end()).unwrap();
                    assert_eq!(run, 7);
                    assert_eq!(back, r, "{effect:?}/{detail:?}/{stratum:?}");
                }
            }
        }
        // Flat records must stay byte-identical to the pre-stratum format.
        let flat = record_line(2, &rec(FaultEffect::Masked, RunDetail::None));
        assert!(!flat.contains("stratum"), "{flat}");
    }

    #[test]
    fn torn_and_corrupt_lines_are_rejected() {
        let r = rec(FaultEffect::Sdc, RunDetail::None);
        let full = record_line(3, &r);
        let torn = &full[..full.len() - 9];
        assert_eq!(parse_record_line(torn.trim_end()), None);
        assert_eq!(parse_record_line("not json at all"), None);
        assert_eq!(
            parse_record_line("{\"run\":1,\"effect\":\"Bogus\",\"cycles\":1}"),
            None
        );
    }

    #[test]
    fn journal_create_append_resume() {
        let path = tmp("roundtrip.journal.jsonl");
        let fp = 0xdead_beef_u64;
        let j = RunJournal::create(&path, fp, 5).unwrap();
        j.append(0, &rec(FaultEffect::Masked, RunDetail::None))
            .unwrap();
        j.append(3, &rec(FaultEffect::Crash, RunDetail::SimPanic))
            .unwrap();
        assert!(j.bytes_written() > 0);
        drop(j);

        let (j2, loaded) = RunJournal::resume(&path, fp, 5).unwrap();
        assert_eq!(loaded.iter().flatten().count(), 2);
        assert_eq!(loaded[0].unwrap().effect, FaultEffect::Masked);
        assert_eq!(loaded[3].unwrap().detail, RunDetail::SimPanic);
        assert!(loaded[1].is_none());
        // Appending after a resume lands after the loaded prefix.
        j2.append(1, &rec(FaultEffect::Timeout, RunDetail::WallWatchdog))
            .unwrap();
        drop(j2);
        let (_, loaded) = RunJournal::resume(&path, fp, 5).unwrap();
        assert_eq!(loaded.iter().flatten().count(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_truncates_a_torn_tail() {
        let path = tmp("torn.journal.jsonl");
        let fp = 42u64;
        let j = RunJournal::create(&path, fp, 4).unwrap();
        j.append(0, &rec(FaultEffect::Sdc, RunDetail::None))
            .unwrap();
        j.append(1, &rec(FaultEffect::Masked, RunDetail::None))
            .unwrap();
        drop(j);
        // Simulate a SIGKILL mid-write: chop the file inside the last line.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text.as_bytes()[..text.len() - 7]).unwrap();

        let (j2, loaded) = RunJournal::resume(&path, fp, 4).unwrap();
        assert_eq!(loaded.iter().flatten().count(), 1, "torn line discarded");
        assert!(loaded[0].is_some());
        j2.append(1, &rec(FaultEffect::Masked, RunDetail::None))
            .unwrap();
        drop(j2);
        // The torn bytes must be gone from disk, not merely skipped.
        let (_, loaded) = RunJournal::resume(&path, fp, 4).unwrap();
        assert_eq!(loaded.iter().flatten().count(), 2);
        std::fs::remove_file(&path).ok();
    }

    /// Seeded never-panic loop over `resume`: a real journal (flat and
    /// stratified records, every effect and detail) with bytes flipped,
    /// truncated or spliced, in the style of the wire-frame torture test.
    /// Each must resume to an error or to the records of a valid prefix:
    /// the file is cut to a prefix of the mutated bytes that resumes to the
    /// same records again, and a truncated journal loses records but never
    /// alters one.
    #[test]
    fn mutated_journals_resume_to_a_valid_prefix_or_an_error() {
        let path = tmp("fuzz.journal.jsonl");
        let (fp, runs) = (0xfeed_u64, 24);
        let j = RunJournal::create(&path, fp, runs).unwrap();
        let original: Vec<Option<RunRecord>> = (0..runs)
            .map(|run| {
                let r = RunRecord {
                    cycles: run as u64 * 977,
                    stratum: (run % 3 == 0).then_some(run as u32),
                    ..rec(
                        FaultEffect::ALL[run % FaultEffect::ALL.len()],
                        RunDetail::ALL[run % RunDetail::ALL.len()],
                    )
                };
                j.append(run, &r).unwrap();
                Some(r)
            })
            .collect();
        drop(j);
        let clean = std::fs::read(&path).unwrap();
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as usize
        };
        for round in 0..1024 {
            let mut bytes = clean.clone();
            let truncated = match next() % 3 {
                0 => {
                    for _ in 0..=next() % 3 {
                        let i = next() % bytes.len();
                        bytes[i] ^= (next() % 255 + 1) as u8;
                    }
                    false
                }
                1 => {
                    bytes.truncate(next() % bytes.len());
                    true
                }
                _ => {
                    let (a, b) = (next() % bytes.len(), next() % clean.len());
                    bytes.truncate(a);
                    bytes.extend_from_slice(&clean[b..]);
                    false
                }
            };
            std::fs::write(&path, &bytes).unwrap();
            let Ok((j, loaded)) = RunJournal::resume(&path, fp, runs) else {
                continue;
            };
            drop(j);
            let kept = std::fs::read(&path).unwrap();
            assert!(
                bytes.starts_with(&kept),
                "round {round}: kept bytes it never read"
            );
            let (_, again) = RunJournal::resume(&path, fp, runs).unwrap();
            assert_eq!(
                again, loaded,
                "round {round}: the kept prefix resumes differently"
            );
            if truncated {
                for (run, r) in loaded.iter().enumerate() {
                    assert!(
                        r.is_none() || *r == original[run],
                        "round {round}: run {run}"
                    );
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_foreign_and_headerless_journals() {
        let path = tmp("foreign.journal.jsonl");
        RunJournal::create(&path, 1, 4).unwrap();
        let err = RunJournal::resume(&path, 2, 4).unwrap_err();
        assert!(err.contains("different campaign"), "{err}");
        let err = RunJournal::resume(&path, 1, 8).unwrap_err();
        assert!(err.contains("4-run campaign"), "{err}");
        std::fs::write(&path, "").unwrap();
        let err = RunJournal::resume(&path, 1, 4).unwrap_err();
        assert!(err.contains("no complete header"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_separates_campaign_parameters() {
        let base = CampaignConfig::new(CampaignSpec::new(Structure::RegisterFile), 100, 7);
        let fp = |cfg: &CampaignConfig| campaign_fingerprint("VA", "RTX 2060", cfg);
        let f0 = fp(&base);
        assert_eq!(f0, fp(&base.clone()), "deterministic");
        assert_ne!(
            f0,
            fp(&CampaignConfig {
                seed: 8,
                ..base.clone()
            })
        );
        assert_ne!(
            f0,
            fp(&CampaignConfig {
                runs: 101,
                ..base.clone()
            })
        );
        // The fault model is part of `spec={:?}`, so a stuck-at journal can
        // never resume a transient campaign (or vice versa).
        assert_ne!(
            f0,
            fp(&CampaignConfig {
                spec: CampaignSpec::new(Structure::RegisterFile)
                    .model(gpufi_faults::FaultModel::StuckAt1),
                ..base.clone()
            })
        );
        assert_ne!(f0, fp(&base.clone().no_early_exit()));
        assert_ne!(f0, fp(&base.clone().no_checkpoints()));
        assert_ne!(f0, fp(&base.clone().no_static_prune()));
        assert_ne!(f0, fp(&base.clone().with_max_run_ms(5_000)));
        assert_ne!(f0, fp(&base.clone().stratified()));
        // A stratified journal is additionally bound to its strata layout
        // and allocation hash.
        let strat = fp(&base.clone().stratified());
        assert_ne!(
            strat,
            stratified_fingerprint(strat, strata_hash("layout-a"))
        );
        assert_ne!(
            stratified_fingerprint(strat, strata_hash("layout-a")),
            stratified_fingerprint(strat, strata_hash("layout-b"))
        );
        assert_ne!(f0, campaign_fingerprint("GE", "RTX 2060", &base));
        assert_ne!(f0, campaign_fingerprint("VA", "GTX Titan", &base));
        // Threads are deliberately not part of the identity: a journal
        // written single-threaded resumes on any worker count.
        assert_eq!(f0, fp(&base.clone().with_threads(4)));
    }

    /// Regression for the latent concurrent-merge hazard the distributed
    /// service exposed: 8 producers hammering one journal must never tear
    /// or interleave a line.  All appends route through the single-writer
    /// channel; afterwards every line must parse, every run index must be
    /// present exactly once, and the accounted bytes must match the file.
    #[test]
    fn eight_concurrent_producers_never_interleave_lines() {
        let path = tmp("hammer.journal.jsonl");
        let fp = 0x5151_u64;
        let runs = 8 * 50;
        let journal = RunJournal::create(&path, fp, runs).unwrap();
        let (writer, sink) = journal.into_writer();
        std::thread::scope(|scope| {
            for t in 0..8usize {
                let sink = sink.clone();
                scope.spawn(move || {
                    for k in 0..50usize {
                        let run = t * 50 + k;
                        let r = RunRecord {
                            cycles: run as u64,
                            stratum: Some(run as u32),
                            ..rec(FaultEffect::Sdc, RunDetail::None)
                        };
                        sink.append(run, &r);
                    }
                });
            }
        });
        drop(sink);
        let journal = writer.finish().unwrap();
        let bytes = journal.bytes_written();
        drop(journal);
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());

        let (_, loaded) = RunJournal::resume(&path, fp, runs).unwrap();
        assert_eq!(loaded.iter().flatten().count(), runs, "a line was torn");
        for (i, r) in loaded.iter().enumerate() {
            let r = r.expect("missing run");
            assert_eq!(r.cycles, i as u64, "run {i} carries another run's line");
            assert_eq!(r.stratum, Some(i as u32));
        }
        std::fs::remove_file(&path).ok();
    }

    /// `finalize_canonical` must rewrite completion-order lines into run
    /// order (header first), idempotently, leaving a file `resume` still
    /// accepts — the property that makes distributed and serial journals
    /// byte-comparable.
    #[test]
    fn finalize_canonical_sorts_by_run_index() {
        let path = tmp("canonical.journal.jsonl");
        let fp = 9_u64;
        let j = RunJournal::create(&path, fp, 4).unwrap();
        for run in [2usize, 0, 3, 1] {
            j.append(run, &rec(FaultEffect::Masked, RunDetail::None))
                .unwrap();
        }
        j.finalize_canonical().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let runs: Vec<&str> = text
            .lines()
            .skip(1)
            .map(|l| json_field(l, "run").unwrap())
            .collect();
        assert_eq!(runs, ["0", "1", "2", "3"]);
        // Idempotent, and still a valid journal for resume.
        j.finalize_canonical().unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        drop(j);
        let (_, loaded) = RunJournal::resume(&path, fp, 4).unwrap();
        assert_eq!(loaded.iter().flatten().count(), 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn catch_run_captures_message_and_location() {
        assert_eq!(catch_run(|| 41 + 1), Ok(42));
        let err = catch_run(|| panic!("invariant broken: {}", 7)).unwrap_err();
        assert!(err.contains("invariant broken: 7"), "{err}");
        assert!(err.contains("supervisor.rs"), "location missing: {err}");
        // The hook must restore pass-through behaviour afterwards.
        assert_eq!(catch_run(|| "still works"), Ok("still works"));
    }
}
