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
//!   panic hook that suppresses the default stderr backtrace, so sibling
//!   workers are untouched;
//! * **process death**: an interrupted campaign must not lose thousands of
//!   completed runs.  [`RunJournal`] appends one fsync'd JSON line per
//!   completed run, written and read with [`crate::json`]; `run_campaign`
//!   resumes from the journal and schedules only the missing run indices,
//!   treating the first line that does not parse as a torn tail.
//!
//! The journal is bound to its campaign by the campaign description — every
//! parameter that influences per-run records (seed, spec, workload, card,
//! chip, engine modes) — so a stale or foreign journal is rejected, naming
//! the first parameter that differs, instead of splicing wrong records.

use crate::campaign::{CampaignConfig, RunRecord};
use crate::classify::RunDetail;
use crate::json::{self, Value};
use crate::sampling::SamplingMode;
use gpufi_faults::{CampaignSpec, FaultModel, MultiBitMode, Structure};
use gpufi_metrics::FaultEffect;
use gpufi_sim::{CacheConfig, GpuConfig, LatencyConfig, SchedulerPolicy, Scope};
use std::cell::Cell;
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
}

static HOOK: Once = Once::new();

/// Installs the process-wide panic hook exactly once, chaining to the
/// previously installed hook.  While a thread is inside [`catch_run`] the
/// hook stays silent; panics on any other thread — including test
/// harnesses running in parallel — go to the previous hook unchanged.
fn install_hook() {
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !SUPERVISED.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

/// Runs `f` with per-run panic isolation: a panic anywhere inside `f` is
/// caught and returned as `None` instead of unwinding into the worker
/// (and without the default hook's stderr noise).
///
/// The closure is asserted unwind-safe.  A supervised run mutates exactly
/// one thing across the boundary — its client's long-lived `Gpu`, which a
/// panic leaves half-mutated — and `RunEnv::supervised_run` drops that
/// device as soon as `f` unwinds, so the retry and every later run start
/// from a fresh one.  Everything else is only borrowed shared
/// ([`Workload`](crate::Workload) requires `RefUnwindSafe`, and
/// `gpufi_sim` statically asserts it for the checkpoint store and
/// config), so a panic strands no half-mutated state that any sibling or
/// later run could observe.
pub(crate) fn catch_run<R>(f: impl FnOnce() -> R) -> Option<R> {
    install_hook();
    SUPERVISED.with(|s| s.set(true));
    let out = panic::catch_unwind(AssertUnwindSafe(f));
    SUPERVISED.with(|s| s.set(false));
    out.ok()
}

// ----------------------------------------------------------------------
// Campaign identity
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

/// A described field's value: numbers and flags as themselves, enums in
/// their CLI (or `--config` file) spelling, structs as objects.
pub(crate) trait Spelling {
    fn spelling(&self) -> Value;
}

impl<T: Spelling> Spelling for Option<T> {
    fn spelling(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::spelling)
    }
}

/// `let $ty { listed, excluded: _ } = $value;` — exhaustive, so a new
/// field does not compile until it is listed or excluded — then the
/// listed fields' spellings as JSON members, in order.
macro_rules! members {
    ($value:expr => $ty:ident { $($field:ident),* } $(except { $($skip:ident),* })?) => {{
        let $ty { $($field,)* $($($skip: _,)*)? } = $value;
        [$((stringify!($field), $field.spelling())),*]
    }};
}

macro_rules! spelling {
    ($($($ty:ty),+ => |$v:ident| $spelled:expr;)*) => {$($(
        impl Spelling for $ty {
            fn spelling(&self) -> Value {
                let $v = self;
                $spelled
            }
        }
    )+)*};
}

spelling! {
    u32, u64, usize, bool => |n| (*n).into();
    String => |s| s.as_str().into();
    Structure => |s| s.cli_name().into();
    FaultModel => |m| m.name().into();
    Scope => |s| s.name().into();
    MultiBitMode => |m| m.name().into();
    SchedulerPolicy => |p| p.name().into();
    SamplingMode => |m| m.to_string().as_str().into();
    CacheConfig => |c| Value::obj(members!(c => CacheConfig { sets, ways, line_bytes }));
    LatencyConfig => |l| Value::obj(members!(l => LatencyConfig {
        alu, mul, sfu, smem, l1, icnt, l2, dram, l2_service, dram_service
    }));
    // The `chip` member `draw` appends, so a `--config` chip that keeps
    // its base preset's name is another campaign.
    GpuConfig => |c| Value::obj(members!(c => GpuConfig {
        name, num_sms, max_threads_per_sm, max_ctas_per_sm, registers_per_sm, smem_per_sm, l1d,
        l1t, l1c, l2, num_l2_banks, process_nm, lat, scheduler
    }));
}

/// The campaign's identity: the workload and card names and every
/// [`CampaignConfig`] and [`CampaignSpec`] field that shapes per-run
/// records (`spec`'s flattened beside the rest), spelled as on the command
/// line.  Excluded: `threads` (records are thread-count invariant) and
/// `journal`/`resume` (where records go, not what they are).  `draw`
/// appends the chip and the strata layout; the journal header, the
/// fingerprint and the service handshake all derive from the result.
pub(crate) fn describe(workload: &str, card: &str, cfg: &CampaignConfig) -> Value {
    let names = [("workload", workload.into()), ("card", card.into())];
    let config = members!(cfg => CampaignConfig {
        seed, runs, kernel, oracle_check, sampling
    } except { spec, threads, journal, resume });
    let spec = members!(&cfg.spec => CampaignSpec {
        structure, scope, bits_per_fault, multi_bit, replicate, model
    });
    Value::obj(names.into_iter().chain(config).chain(spec))
}

/// FNV-1a over the compact JSON of the campaign's description: the
/// workload, the card name and every `CampaignConfig` and `CampaignSpec`
/// field but `threads`, `journal` and `resume`.
pub fn campaign_fingerprint(workload: &str, card: &str, cfg: &CampaignConfig) -> u64 {
    fnv1a(describe(workload, card, cfg).to_string().as_bytes())
}

/// FNV-1a over [`crate::StrataLayout::fingerprint_material`]: the
/// `layout_hash` of [`crate::SamplingSummary`] and a description's `strata`.
pub(crate) fn strata_hash(material: &str) -> u64 {
    fnv1a(material.as_bytes())
}

// ----------------------------------------------------------------------
// Crash-safe run journal
// ----------------------------------------------------------------------

/// Append-only, crash-safe record of completed injection runs
/// (`<out>.journal.jsonl`): one header line binding the file to its
/// campaign, then one JSON line per completed run, fsync'd before the
/// next append.  Workers append concurrently through an internal lock;
/// each append's lines are written and synced atomically with respect to
/// the others, so after a `SIGKILL` the file is a valid prefix plus at
/// most one torn final line (which [`RunJournal::resume`] discards and
/// truncates away), and the runs whose lines were never synced are run
/// again.
#[derive(Debug)]
pub struct RunJournal {
    path: String,
    file: Mutex<File>,
    bytes: AtomicU64,
    nanos: AtomicU64,
    /// fsyncs of appended lines.
    syncs: AtomicU64,
}

/// The fields of one run record, in journal order.  The trailing
/// `stratum` field appears only on stratified-campaign records, keeping
/// flat journals byte-identical to previous versions.  The distributed
/// service's `done` frame carries these same fields after its own, so
/// the frame and the journal line cannot drift.
pub(crate) fn record_fields(run: usize, r: &RunRecord) -> Vec<(&'static str, Value)> {
    let mut fields = vec![
        ("run", run.into()),
        ("effect", r.effect.name().into()),
        ("cycles", r.cycles.into()),
        ("applied", r.applied.into()),
        ("early_exit", r.early_exit.into()),
        ("ckpt", r.ckpt_skipped_cycles.into()),
        ("detail", r.detail.as_str().into()),
    ];
    if let Some(s) = r.stratum {
        fields.push(("stratum", s.into()));
    }
    fields
}

/// One journal line: [`record_fields`] as a JSON object.
pub(crate) fn record_line(run: usize, r: &RunRecord) -> String {
    format!("{}\n", Value::obj(record_fields(run, r)))
}

/// A journal's header: format version 1, the fingerprint, the run count
/// and — engine journals only — the campaign description.
fn header(campaign: Option<&Value>, fingerprint: u64, runs: usize) -> Value {
    let fingerprint = Value::Str(format!("{fingerprint:016x}"));
    let members = [
        ("v", 1u8.into()),
        ("fingerprint", fingerprint),
        ("runs", runs.into()),
    ];
    Value::obj(
        members
            .into_iter()
            .chain(campaign.map(|c| ("campaign", c.clone()))),
    )
}

fn header_line(fingerprint: u64, runs: usize) -> String {
    format!("{}\n", header(None, fingerprint, runs))
}

/// A resumed journal and the records it holds, by run index.
type Resumed = (RunJournal, Vec<Option<RunRecord>>);

/// Reads [`record_fields`] back out of an object; other members (a `done`
/// frame's envelope) are ignored.
pub(crate) fn record_from(v: &Value) -> Option<(usize, RunRecord)> {
    Some((
        v.get("run")?.as_num()?,
        RunRecord {
            effect: FaultEffect::parse(v.get("effect")?.as_str()?)?,
            cycles: v.get("cycles")?.as_num()?,
            applied: v.get("applied")?.as_bool()?,
            early_exit: v.get("early_exit")?.as_bool()?,
            ckpt_skipped_cycles: v.get("ckpt")?.as_num()?,
            detail: RunDetail::parse(v.get("detail")?.as_str()?)?,
            stratum: match v.get("stratum") {
                Some(s) => Some(s.as_num()?),
                None => None,
            },
        },
    ))
}

/// Parses one journal line; `None` for anything that is not a complete,
/// well-formed record.
pub(crate) fn parse_record_line(line: &str) -> Option<(usize, RunRecord)> {
    record_from(&json::parse(line).ok()?)
}

impl RunJournal {
    /// Creates (or truncates) the journal at `path` and writes its header.
    pub fn create(path: &str, fingerprint: u64, runs: usize) -> Result<RunJournal, String> {
        Self::start(path, header_line(fingerprint, runs))
    }

    /// The journal of a drawn campaign: resumed if `resume` is set and the
    /// file exists (its header must describe this `campaign`), else created.
    pub(crate) fn open(
        path: &str,
        campaign: &Value,
        runs: usize,
        resume: bool,
    ) -> Result<Resumed, String> {
        let fingerprint = fnv1a(campaign.to_string().as_bytes());
        let header = header(Some(campaign), fingerprint, runs);
        if resume && std::path::Path::new(path).exists() {
            Self::resume_header(path, &header, runs)
        } else {
            Ok((Self::start(path, format!("{header}\n"))?, vec![None; runs]))
        }
    }

    fn start(path: &str, header: String) -> Result<RunJournal, String> {
        let mut file = File::create(path).map_err(|e| format!("cannot create `{path}`: {e}"))?;
        file.write_all(header.as_bytes())
            .and_then(|()| file.sync_data())
            .map_err(|e| format!("cannot write journal header to `{path}`: {e}"))?;
        Ok(RunJournal {
            path: path.to_string(),
            file: Mutex::new(file),
            bytes: AtomicU64::new(header.len() as u64),
            nanos: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
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
    /// wrong results into the CSV.  The error names the first header
    /// member that differs.
    pub fn resume(path: &str, fingerprint: u64, runs: usize) -> Result<Resumed, String> {
        Self::resume_header(path, &header(None, fingerprint, runs), runs)
    }

    /// [`RunJournal::resume`] of a journal whose header must equal `expected`.
    fn resume_header(path: &str, expected: &Value, runs: usize) -> Result<Resumed, String> {
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
                let found = json::parse(line)
                    .map_err(|e| format!("journal `{path}` has a malformed header: {e}"))?;
                // Two described campaigns differ in a parameter, anything
                // else in the header.
                let (theirs, ours) = match (found.get("campaign"), expected.get("campaign")) {
                    (Some(theirs), Some(ours)) => (theirs, ours),
                    _ => (&found, expected),
                };
                if let Some(d) = json::first_difference(theirs, ours, "in the journal", "here") {
                    return Err(format!(
                        "journal `{path}` belongs to a different campaign: {d}; \
                         delete it or drop --resume"
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
                syncs: AtomicU64::new(0),
            },
            records,
        ))
    }

    /// Appends one completed run and syncs it to disk.  Failures are
    /// reported (the campaign result still holds the record in memory).
    pub fn append(&self, run: usize, rec: &RunRecord) -> Result<(), String> {
        self.append_all(&[(run, *rec)])
    }

    /// Appends completed runs in order and syncs them to disk with one
    /// fsync: a group commit.
    fn append_all(&self, runs: &[(usize, RunRecord)]) -> Result<(), String> {
        let lines: String = runs
            .iter()
            .map(|(run, rec)| record_line(*run, rec))
            .collect();
        let t0 = Instant::now();
        {
            let mut file = self.file.lock().expect("journal lock poisoned");
            file.write_all(lines.as_bytes())
                .and_then(|()| file.sync_data())
                .map_err(|e| format!("journal write failed: {e}"))?;
        }
        self.syncs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(lines.len() as u64, Ordering::Relaxed);
        self.nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// The writer thread's loop, until every sender is gone: waits for a
    /// queued run, takes whatever else is queued by then and appends them
    /// all with one fsync.  Runs completing faster than an fsync thus
    /// share one.  Returns the first append error; it keeps draining
    /// after one, so producers never see the channel vanish mid-campaign.
    fn write_queued(&self, rx: &mpsc::Receiver<(usize, RunRecord)>) -> Option<String> {
        let mut first_err = None;
        while let Ok(run) = rx.recv() {
            let queued: Vec<_> = std::iter::once(run).chain(rx.try_iter()).collect();
            if let Err(e) = self.append_all(&queued) {
                first_err.get_or_insert(e);
            }
        }
        first_err
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
            let first_err = self.write_queued(&rx);
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

    /// Byte pin over every record shape and the header: the journal's
    /// bytes are part of its format (`--resume` and `diff` rely on them),
    /// so any codec change must leave this hash alone.
    #[test]
    fn record_and_header_bytes_are_pinned() {
        let mut all = header_line(0x0123_4567_89ab_cdef, 300);
        for effect in FaultEffect::ALL {
            for detail in RunDetail::ALL {
                for stratum in [None, Some(0), Some(417)] {
                    let r = RunRecord {
                        stratum,
                        ..rec(effect, detail)
                    };
                    all.push_str(&record_line(7, &r));
                }
            }
        }
        assert_eq!(fnv1a(all.as_bytes()), 0xad7f_a724_7964_e740, "{all}");
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
        // Well-formed fields inside a malformed object.
        let line = full.trim_end();
        let trailing_comma = format!("{},}}", &line[..line.len() - 1]);
        assert_eq!(parse_record_line(&trailing_comma), None);
        assert_eq!(parse_record_line(&format!("{line} junk }}")), None);
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
        j2.append(1, &rec(FaultEffect::Timeout, RunDetail::CycleWatchdog))
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
        assert!(err.contains("`runs` is 4 in the journal, 8 here"), "{err}");
        std::fs::write(&path, "").unwrap();
        let err = RunJournal::resume(&path, 1, 4).unwrap_err();
        assert!(err.contains("no complete header"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    /// Every `CampaignConfig` and `CampaignSpec` field mutated in turn:
    /// each identity field changes the description and the fingerprint,
    /// and `first_difference` names it; `threads`, `journal` and `resume`
    /// change neither.  The table also lists every described member, so a
    /// field described without a row here fails too.
    #[test]
    fn every_identity_field_is_described_and_named() {
        use crate::sampling::SamplingMode;
        use gpufi_faults::{FaultModel, Structure};
        let base = CampaignConfig::new(CampaignSpec::new(Structure::RegisterFile), 100, 7);
        let at = |cfg: &CampaignConfig| describe("VA", "RTX 2060", cfg);
        let cfg = |f: fn(&mut CampaignConfig)| {
            let mut c = base.clone();
            f(&mut c);
            c
        };
        let spec = |f: fn(&mut CampaignSpec)| {
            let mut c = base.clone();
            f(&mut c.spec);
            c
        };
        let rows = [
            ("seed", cfg(|c| c.seed = 8)),
            ("runs", cfg(|c| c.runs = 101)),
            ("kernel", cfg(|c| c.kernel = Some("vec_add".into()))),
            ("oracle_check", cfg(|c| c.oracle_check = true)),
            ("sampling", cfg(|c| c.sampling = SamplingMode::Stratified)),
            ("structure", spec(|s| s.structure = Structure::L2)),
            ("scope", spec(|s| s.scope = Scope::Warp)),
            ("bits_per_fault", spec(|s| s.bits_per_fault = 3)),
            ("multi_bit", spec(|s| s.multi_bit = MultiBitMode::Spread)),
            ("replicate", spec(|s| s.replicate = 2)),
            ("model", spec(|s| s.model = FaultModel::StuckAt1)),
            ("", cfg(|c| c.threads = 4)),
            ("", cfg(|c| c.journal = Some("x.journal.jsonl".into()))),
            ("", cfg(|c| c.resume = true)),
        ];
        // The member path `first_difference` reports.
        let named = |a: &Value, b: &Value| {
            let d = json::first_difference(a, b, "there", "here")?;
            d.split('`').nth(1).map(str::to_string)
        };
        let d0 = at(&base);
        let f0 = campaign_fingerprint("VA", "RTX 2060", &base);
        for (field, mutated) in &rows {
            let d = at(mutated);
            let f = campaign_fingerprint("VA", "RTX 2060", mutated);
            if field.is_empty() {
                assert_eq!((&d, f), (&d0, f0), "{mutated:?}");
            } else {
                assert_ne!(f, f0, "{field}: fingerprint unchanged");
                assert_eq!(named(&d0, &d).as_deref(), Some(*field), "{d}");
            }
        }
        let workload = describe("GE", "RTX 2060", &base);
        assert_eq!(named(&d0, &workload).as_deref(), Some("workload"));
        let card = describe("VA", "GTX Titan", &base);
        assert_eq!(named(&d0, &card).as_deref(), Some("card"));
        let Value::Obj(members) = &d0 else {
            panic!("{d0}")
        };
        let described: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        let tabled = ["workload", "card"]
            .into_iter()
            .chain(rows.iter().map(|(f, _)| *f).filter(|f| !f.is_empty()));
        assert_eq!(described, tabled.collect::<Vec<_>>());
        // The chip description nests caches and latencies by field name.
        let rtx = GpuConfig::rtx2060();
        let chip = |f: fn(&mut GpuConfig)| {
            let mut c = rtx.clone();
            f(&mut c);
            c.spelling()
        };
        for (path, mutated) in [
            ("num_sms", chip(|c| c.num_sms = 2)),
            ("l1d", chip(|c| c.l1d = None)),
            ("l2.sets", chip(|c| c.l2.sets = 8)),
            ("lat.dram", chip(|c| c.lat.dram = 1)),
            (
                "scheduler",
                chip(|c| c.scheduler = SchedulerPolicy::RoundRobin),
            ),
        ] {
            assert_eq!(named(&rtx.spelling(), &mutated).as_deref(), Some(path));
        }
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

    /// Group commit: runs queued faster than the writer syncs share an
    /// fsync.  Thirty queued runs are written with one, and every line
    /// resumes.
    #[test]
    fn queued_runs_share_an_fsync() {
        let path = tmp("group.journal.jsonl");
        let (fp, runs) = (0x6161_u64, 30);
        let journal = RunJournal::create(&path, fp, runs).unwrap();
        let (tx, rx) = mpsc::channel();
        for run in 0..runs {
            tx.send((run, rec(FaultEffect::Masked, RunDetail::None)))
                .unwrap();
        }
        drop(tx);
        assert_eq!(journal.write_queued(&rx), None);
        assert_eq!(journal.syncs.load(Ordering::Relaxed), 1);
        let (_, loaded) = RunJournal::resume(&path, fp, runs).unwrap();
        assert_eq!(loaded.iter().flatten().count(), runs);
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
        let runs: Vec<usize> = text
            .lines()
            .skip(1)
            .map(|l| parse_record_line(l).unwrap().0)
            .collect();
        assert_eq!(runs, [0, 1, 2, 3]);
        // Idempotent, and still a valid journal for resume.
        j.finalize_canonical().unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        drop(j);
        let (_, loaded) = RunJournal::resume(&path, fp, 4).unwrap();
        assert_eq!(loaded.iter().flatten().count(), 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn catch_run_isolates_a_panic() {
        assert_eq!(catch_run(|| 41 + 1), Some(42));
        assert_eq!(
            catch_run(|| -> u32 { panic!("invariant broken: {}", 7) }),
            None
        );
        // The hook must restore pass-through behaviour afterwards.
        assert!(!SUPERVISED.with(Cell::get));
        assert_eq!(catch_run(|| "still works"), Some("still works"));
    }
}
