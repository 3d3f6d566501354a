//! The whole-chip GPU device: memory management, kernel launch, the cycle
//! loop, and the fault-injection port.

use crate::config::GpuConfig;
use crate::core::{resolve, KernelCtx, SimtCore, Site};
use crate::error::{LaunchError, Trap};
use crate::fault::{FaultModel, FaultSpace, InjectionPlan, InjectionRecord, PlannedFault};
use crate::grid::LaunchDims;
use crate::mem::{FlipOutcome, MemSystem};
use crate::oracle::{DivergenceReport, OracleMirror, ThreadState};
use crate::shadow::{Shadow, Shadows};
use crate::snapshot::{
    occupancy_rates, CheckpointStore, HostOp, HostResult, LaunchProgress, Recorder, Replay,
    Snapshot,
};
use crate::stats::{AppStats, LaunchStats};
use gpufi_isa::Kernel;
use std::sync::Arc;

/// Loop iterations between two taint scans of the fault-lifetime early
/// exit.  The scan walks every core and cache bank; doing that each cycle
/// costs more than the exit saves.  An exit delayed by up to
/// `EE_STRIDE - 1` iterations is still sound: no faults remain, so a zero
/// taint count can only stay zero.
pub(crate) const EE_STRIDE: u32 = 32;

/// A simulated CUDA-capable GPU.
///
/// The host-side API mirrors the CUDA driver model: allocate device memory
/// ([`Gpu::malloc`]), copy data in ([`Gpu::memcpy_h2d`]), launch kernels
/// synchronously ([`Gpu::launch`]), copy results out
/// ([`Gpu::memcpy_d2h`]).  Cycles accumulate across launches so a
/// multi-kernel application has one global cycle axis, which is what the
/// injection campaign samples (§VI.A).
#[derive(Debug)]
pub struct Gpu {
    cfg: GpuConfig,
    mem: MemSystem,
    cores: Vec<SimtCore>,
    cycle: u64,
    watchdog: Option<u64>,
    faults: Vec<PlannedFault>,
    fault_model: FaultModel,
    next_fault: usize,
    records: Vec<InjectionRecord>,
    stats: AppStats,
    early_exit: bool,
    // Checkpoint recording state (golden recording run only).
    recorder: Option<Recorder>,
    // Journal-replay state (forked injection runs only).
    replay: Option<Replay>,
    // Lockstep differential oracle.
    oracle: Option<OracleMirror>,
    // The golden-pass profile instrument: when enabled, every launch
    // records per-register last-read cycles for the stratified fault
    // sampler (collected into `reg_traces`, one entry per launch) and keeps
    // per-lane ACE timestamps (`LaunchStats::ace_reg_cycles`).  Never
    // enabled on checkpoint recordings, forks or injection runs.
    profiling: bool,
    reg_traces: Vec<Vec<u64>>,
}

impl Gpu {
    /// Creates an idle GPU with the given chip configuration.
    pub fn new(cfg: GpuConfig) -> Self {
        let mem = MemSystem::new(&cfg);
        let cores = (0..cfg.num_sms as usize)
            .map(|i| SimtCore::new(i, &cfg))
            .collect();
        Gpu {
            cfg,
            mem,
            cores,
            cycle: 0,
            watchdog: None,
            faults: Vec::new(),
            fault_model: FaultModel::Transient,
            next_fault: 0,
            records: Vec::new(),
            stats: AppStats::default(),
            early_exit: false,
            recorder: None,
            replay: None,
            oracle: None,
            profiling: false,
            reg_traces: Vec::new(),
        }
    }

    /// Enables the profile instrument for every subsequent launch (the
    /// golden profiling pass).  After the application ran,
    /// [`Gpu::reg_read_traces`] holds, per launch and per architectural
    /// register, the first cycle from which no instruction reads the
    /// register again — the liveness horizon the stratified fault sampler
    /// turns into analytically-Masked strata — and each launch's
    /// [`LaunchStats::ace_reg_cycles`] holds its ACE register-cycles.
    /// Without it both stay empty or 0, and warps keep no per-lane ACE
    /// timestamps.
    ///
    /// Enable on a fresh GPU only; the instrument is not supported across
    /// checkpoint forks ([`Gpu::resume_from`]).
    pub fn enable_profiling(&mut self) {
        self.profiling = true;
    }

    /// Per-launch register liveness horizons recorded under
    /// [`Gpu::enable_profiling`]: `traces[launch][r]` is a cycle `c`
    /// in `[start_cycle, end_cycle]` such that no instruction of that
    /// launch reads `Rr` at any cycle `>= c` (`c == start_cycle` means the
    /// register is never read at all).
    pub fn reg_read_traces(&self) -> &[Vec<u64>] {
        &self.reg_traces
    }

    /// Attaches the lockstep differential oracle: from now on every host
    /// API call is mirrored into a functional reference machine and every
    /// launch's final architectural state is diffed against it.  The first
    /// divergence is latched ([`Gpu::oracle_divergence`]).
    ///
    /// Attach on a fresh GPU, before any allocation, and do not combine
    /// with checkpoint forking ([`Gpu::resume_from`]) — a forked run
    /// skips the journaled host prefix the mirror would need to observe.
    pub fn attach_oracle(&mut self) {
        self.oracle = Some(OracleMirror::new(self.cfg.l2.line_bytes));
        for c in &mut self.cores {
            c.set_exit_capture(true);
        }
    }

    /// The first sim-vs-oracle divergence latched by an attached oracle,
    /// if any ([`Gpu::attach_oracle`]).
    pub fn oracle_divergence(&self) -> Option<DivergenceReport> {
        self.oracle.as_ref().and_then(|o| o.divergence().cloned())
    }

    /// The attached oracle's final global-memory image (the reference
    /// prediction a Masked injection run must land on).
    pub fn oracle_global_image(&self) -> Option<Vec<u8>> {
        self.oracle.as_ref().map(|o| o.global_image().to_vec())
    }

    /// The chip configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// The current application cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Per-launch statistics accumulated so far.
    pub fn stats(&self) -> &AppStats {
        &self.stats
    }

    /// Direct access to the memory system (cache statistics etc.).
    pub fn mem(&self) -> &MemSystem {
        &self.mem
    }

    // ------------------------------------------------------------------
    // Host API
    // ------------------------------------------------------------------
    //
    // Each primitive call below (and `launch`) participates in
    // checkpoint-and-fork through two helpers: `replayed`, the gate a
    // forked run's calls pass while it replays the journaled prefix, and
    // `journal`, which records a live call's result while recording.
    // Convenience wrappers (`write_u32s`, `read_f32s`, …) call these
    // primitives, so each host action is journaled exactly once.

    /// The fork replay gate.  While a fork replays its journaled host
    /// prefix, consumes the next journaled op, checks that the workload
    /// made the same `call`, and returns what the recording run got back —
    /// the restored snapshot already holds the call's device effects.
    /// `None` once execution is live, and for the in-flight launch the
    /// snapshot was taken inside (checked, then resumed by `launch`).
    /// Past that launch the gate keeps counting calls, and a live call
    /// that differs from the journaled op latches [`Replay::diverged`].
    ///
    /// # Panics
    ///
    /// Panics when a replayed call, or the in-flight launch, differs from
    /// the journal — a workload determinism violation, not an injection
    /// effect.
    fn replayed(&mut self, call: &HostOp) -> Option<&HostResult> {
        let rep = self.replay.as_mut()?;
        let i = rep.cursor;
        rep.cursor += 1;
        let done = rep.snapshot.map_or(rep.store.journal.len(), |s| {
            rep.store.snapshots[s].host_ops_done
        });
        let journaled = rep.store.journal.get(i);
        match journaled {
            Some((op, result)) if op == call => (i < done).then(|| {
                let patched = rep.patched.iter().find(|p| p.0 == i);
                patched.map_or(result, |p| &p.1)
            }),
            _ if i > done || rep.snapshot.is_none() => {
                rep.diverged = true;
                None
            }
            _ => panic!(
                "checkpoint replay mismatch: workload called {call:?}, journal op {i} is {:?}",
                journaled.map(|(op, _)| op)
            ),
        }
    }

    /// Journals a live host call and what it returned (recording only).
    fn journal(&mut self, call: HostOp, result: impl FnOnce() -> HostResult) {
        if let Some(rec) = &mut self.recorder {
            rec.journal.push((call, result()));
        }
    }

    /// Allocates zeroed device memory and returns its device address.
    ///
    /// # Errors
    ///
    /// Returns [`LaunchError::OutOfMemory`] past the simulated capacity.
    ///
    /// # Panics
    ///
    /// Panics when a forked run's host calls diverge from the recorded
    /// golden run before its first fault fires — a workload determinism
    /// violation, not an injection effect.
    pub fn malloc(&mut self, bytes: u32) -> Result<u32, LaunchError> {
        let call = HostOp::Malloc { bytes };
        if let Some(&HostResult::Ptr(ptr)) = self.replayed(&call) {
            return Ok(ptr);
        }
        let ptr = self.mem.alloc(bytes)?;
        if let Some(orc) = &mut self.oracle {
            orc.on_malloc(bytes, ptr);
        }
        self.journal(call, || HostResult::Ptr(ptr));
        Ok(ptr)
    }

    /// Copies bytes host → device.
    ///
    /// # Errors
    ///
    /// Returns [`LaunchError::BadDevicePointer`] for unmapped ranges.
    ///
    /// # Panics
    ///
    /// Panics when a forked run's host calls diverge from the recorded
    /// golden run (see [`Gpu::malloc`]).
    pub fn memcpy_h2d(&mut self, ptr: u32, data: &[u8]) -> Result<(), LaunchError> {
        let call = HostOp::H2d {
            ptr,
            len: data.len(),
        };
        if self.replayed(&call).is_some() {
            return Ok(());
        }
        self.mem.host_write(ptr, data)?;
        if let Some(sh) = self.recorder.as_mut().and_then(|r| r.shadows.as_mut()) {
            sh.host_write(ptr, data.len(), &mut self.cores, &mut self.mem);
        }
        if let Some(orc) = &mut self.oracle {
            orc.on_h2d(ptr, data);
        }
        self.journal(call, || HostResult::Done);
        Ok(())
    }

    /// Copies bytes device → host (coherently through the L2).
    ///
    /// During fork replay this returns the bytes the *recording* run read,
    /// not the restored memory contents: the in-flight launch may already
    /// have overwritten the range by the snapshot cycle, and host control
    /// flow (e.g. BFS's stop-flag loop) branches on these bytes.  Both
    /// runs are fault-free over the replayed prefix, so the journaled
    /// bytes are exactly what a cold run would have read.  Past the
    /// replayed prefix, a fork that reads other bytes than the recording
    /// run did can no longer reconverge with a later checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`LaunchError::BadDevicePointer`] for unmapped ranges.
    ///
    /// # Panics
    ///
    /// Panics when a forked run's host calls diverge from the recorded
    /// golden run (see [`Gpu::malloc`]).
    pub fn memcpy_d2h(&mut self, ptr: u32, out: &mut [u8]) -> Result<(), LaunchError> {
        let call = HostOp::D2h {
            ptr,
            len: out.len(),
        };
        if let Some(HostResult::Bytes(data)) = self.replayed(&call) {
            out.copy_from_slice(data);
            return Ok(());
        }
        self.mem.host_read(ptr, out)?;
        if let Some(rec) = &mut self.recorder {
            if let Some(sh) = &mut rec.shadows {
                sh.host_read(rec.journal.len(), ptr, out.len());
            }
        }
        if let Some(orc) = &mut self.oracle {
            orc.on_d2h(ptr, out);
        }
        if let Some(rep) = &mut self.replay {
            rep.check_live(|golden| matches!(golden, HostResult::Bytes(b) if **b == *out));
        }
        self.journal(call, || HostResult::Bytes(out.to_vec()));
        Ok(())
    }

    /// Convenience: uploads a `u32` slice.
    ///
    /// # Errors
    ///
    /// See [`Gpu::memcpy_h2d`].
    pub fn write_u32s(&mut self, ptr: u32, data: &[u32]) -> Result<(), LaunchError> {
        let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.memcpy_h2d(ptr, &bytes)
    }

    /// Convenience: downloads a `u32` slice.
    ///
    /// # Errors
    ///
    /// See [`Gpu::memcpy_d2h`].
    pub fn read_u32s(&mut self, ptr: u32, count: usize) -> Result<Vec<u32>, LaunchError> {
        let mut bytes = vec![0u8; count * 4];
        self.memcpy_d2h(ptr, &mut bytes)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect())
    }

    /// Convenience: uploads an `f32` slice.
    ///
    /// # Errors
    ///
    /// See [`Gpu::memcpy_h2d`].
    pub fn write_f32s(&mut self, ptr: u32, data: &[f32]) -> Result<(), LaunchError> {
        let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.memcpy_h2d(ptr, &bytes)
    }

    /// Convenience: downloads an `f32` slice.
    ///
    /// # Errors
    ///
    /// See [`Gpu::memcpy_d2h`].
    pub fn read_f32s(&mut self, ptr: u32, count: usize) -> Result<Vec<f32>, LaunchError> {
        Ok(self
            .read_u32s(ptr, count)?
            .into_iter()
            .map(f32::from_bits)
            .collect())
    }

    /// Writes into the 64 KB constant bank (CUDA `cudaMemcpyToSymbol`).
    ///
    /// # Errors
    ///
    /// Returns [`LaunchError::OutOfMemory`] past the constant capacity.
    ///
    /// # Panics
    ///
    /// Panics when a forked run's host calls diverge from the recorded
    /// golden run (see [`Gpu::malloc`]).
    pub fn write_const(&mut self, offset: u32, data: &[u8]) -> Result<(), LaunchError> {
        let call = HostOp::ConstWrite {
            offset,
            len: data.len(),
        };
        if self.replayed(&call).is_some() {
            return Ok(());
        }
        self.mem.const_write(offset, data)?;
        if let Some(sh) = self.recorder.as_mut().and_then(|r| r.shadows.as_mut()) {
            sh.host_continues(&mut self.cores, &mut self.mem);
        }
        if let Some(orc) = &mut self.oracle {
            orc.on_const_write(offset, data);
        }
        self.journal(call, || HostResult::Done);
        Ok(())
    }

    /// Convenience: uploads an `f32` slice into the constant bank.
    ///
    /// # Errors
    ///
    /// See [`Gpu::write_const`].
    pub fn write_const_f32s(&mut self, offset: u32, data: &[f32]) -> Result<(), LaunchError> {
        let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.write_const(offset, &bytes)
    }

    // ------------------------------------------------------------------
    // Fault-injection port
    // ------------------------------------------------------------------

    /// Arms the GPU with an injection plan; faults fire when the
    /// application cycle reaches each fault's cycle.
    ///
    /// The plan's [`FaultModel`] governs every fault in it: transient
    /// plans flip bits once, stuck-at plans pin bits to the stuck value
    /// and re-pin them after every core cycle for the lifetime of the
    /// targeted entity.
    pub fn arm_faults(&mut self, plan: InjectionPlan) {
        let mut faults = plan.faults;
        faults.sort_by_key(|f| f.cycle);
        self.faults = faults;
        self.fault_model = plan.model;
        self.next_fault = 0;
        self.records.clear();
    }

    /// What happened to each armed fault so far.
    pub fn injection_records(&self) -> &[InjectionRecord] {
        &self.records
    }

    /// Aborts the run once the application cycle exceeds `limit`
    /// (the campaign sets this to 2× the fault-free cycles — §V.B).
    pub fn set_watchdog(&mut self, limit: u64) {
        self.watchdog = Some(limit);
    }

    /// Enables fault-lifetime early exit: once every armed fault's cycle
    /// has passed and no flipped state survives unobserved, the launch
    /// aborts with [`Trap::FaultsExpired`] — the rest of the run provably
    /// equals the golden execution.
    pub fn set_early_exit(&mut self, on: bool) {
        self.early_exit = on;
    }

    /// Unobserved fault-flipped state across cores and the memory system.
    fn taint_count(&self) -> u64 {
        self.cores.iter().map(SimtCore::taint_count).sum::<u64>() + self.mem.taint_count()
    }

    /// Whether any fault-flipped state has been observed anywhere.
    fn taint_escaped(&self) -> bool {
        self.mem.taint_escaped() || self.cores.iter().any(SimtCore::taint_escaped)
    }

    /// The cycle of the next checkpoint a forked run may reconverge with,
    /// skipping those it has passed; `u64::MAX` for a run that cannot
    /// reconverge — not a fork, early exit off, a stuck-at plan, or a host
    /// program that diverged.
    fn next_reconvergence_check(&mut self) -> u64 {
        let eligible = self.early_exit && !self.fault_model.is_permanent();
        let Some(rep) = self.replay.as_mut().filter(|r| eligible && !r.diverged) else {
            return u64::MAX;
        };
        let snaps = &rep.store.snapshots;
        while snaps
            .get(rep.next_check)
            .is_some_and(|s| s.cycle < self.cycle)
        {
            rep.next_check += 1;
        }
        snaps.get(rep.next_check).map_or(u64::MAX, |s| s.cycle)
    }

    /// The reconvergence rung, at the cycle of the next checkpoint or past
    /// it: whether every planned fault has fired, the taint exit can no
    /// longer fire, no flipped bit survives, and the device and host
    /// position equal that checkpoint's (see [`Snapshot::reconverges`]).
    /// Each checkpoint is looked at once.  A run landing on the golden
    /// run's state at a golden loop iteration is from then on a fault-free
    /// fork of that checkpoint, whose outcome is the golden run's.
    fn reconverged(&mut self, p: &LaunchProgress) -> bool {
        let rep = self.replay.as_mut().expect("only forks check");
        let idx = rep.next_check;
        rep.next_check += 1;
        let rep = self.replay.as_ref().expect("only forks check");
        let snap = &rep.store.snapshots[idx];
        snap.cycle == self.cycle
            && !self.faults.is_empty()
            && self.next_fault == self.faults.len()
            && self.taint_escaped()
            && self.taint_count() == 0
            && snap.reconverges(
                self.cycle,
                rep.cursor,
                p,
                &self.stats,
                &self.mem,
                &self.cores,
            )
    }

    /// Refines a watchdog abort into [`Trap::LostBarrier`] when no warp can
    /// ever issue again and some CTA still counts barrier arrivals — the
    /// lost-barrier hang signature of a control-unit fault.
    fn hang_trap(&self) -> Trap {
        if self.cores.iter().all(|c| c.next_ready().is_none())
            && self.cores.iter().any(SimtCore::lost_barrier)
        {
            Trap::LostBarrier
        } else {
            Trap::Watchdog
        }
    }

    /// The injectable fault-space sizes for `kernel` on this chip.
    pub fn fault_space(&self, kernel: &Kernel) -> FaultSpace {
        FaultSpace {
            regs_per_thread: u32::from(kernel.num_regs()),
            lmem_bits: u64::from(kernel.lmem_bytes()) * 8,
            smem_bits: u64::from(kernel.smem_bytes()) * 8,
            l1d_bits: self.mem.l1d_bits(),
            l1t_bits: self.cfg.l1t.total_bits(),
            l1c_bits: self.cfg.l1c.total_bits(),
            l2_bits: self.mem.l2_bits(),
            num_sms: self.cfg.num_sms,
            bits_per_line: self.cfg.l2.bits_per_line(),
            l1c_bits_per_line: self.cfg.l1c.bits_per_line(),
        }
    }

    // ------------------------------------------------------------------
    // Checkpoint-and-fork
    // ------------------------------------------------------------------

    /// Captures the complete architectural + microarchitectural device
    /// state: memory system (global/local/constant segments, every cache's
    /// tag and data arrays, timing queues), every SIMT core (register
    /// files, predicates, SIMT stacks, scheduler and barrier state, CTA
    /// residency), the application cycle and the statistics counters.
    ///
    /// Use between launches; the campaign's recorder
    /// ([`Gpu::record_checkpoints`]) additionally captures *mid-launch*
    /// snapshots that [`Gpu::resume_from`] can fork from.
    pub fn snapshot(&self) -> Snapshot {
        self.capture(None)
    }

    /// Builds every [`Snapshot`]: the machine state, the in-flight launch's
    /// loop state when taken mid-launch, and the recorder's journal length.
    fn capture(&self, progress: Option<LaunchProgress>) -> Snapshot {
        let mut cores = self.cores.clone();
        // Shadowed plans' marks are the recording's alone.
        if self.recorder.as_ref().is_some_and(|r| r.shadows.is_some()) {
            cores.iter_mut().for_each(SimtCore::scrub_taint);
        }
        Snapshot {
            cycle: self.cycle,
            mem: self.mem.clone(),
            cores,
            stats: self.stats.clone(),
            progress,
            host_ops_done: self.recorder.as_ref().map_or(0, |r| r.journal.len()),
        }
    }

    /// Restores machine state from a snapshot, in place: every buffer
    /// whose shape matches is overwritten rather than reallocated, and
    /// cache arrays still holding this snapshot's contents are not copied
    /// at all (see `clone_fields!` and the cache module).  The
    /// injection-run fields — armed faults, watchdog, early-exit mode,
    /// injection records — are deliberately untouched: they belong to the
    /// run doing the restoring, not to the recorded execution
    /// ([`Gpu::resume_from`] resets them).
    pub fn restore(&mut self, snap: &Snapshot) {
        self.mem.clone_from(&snap.mem);
        self.cores.clone_from(&snap.cores);
        self.cycle = snap.cycle;
        self.stats.clone_from(&snap.stats);
    }

    /// Starts checkpoint recording: every host API call is journaled, and
    /// the launch cycle loop captures a full [`Snapshot`] each time the
    /// application cycle crosses the next `interval` boundary.  Whenever
    /// the snapshot set would exceed `budget_bytes`, every other snapshot
    /// is dropped and the stride doubles, so the store stays within budget
    /// for any golden-run length.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn record_checkpoints(&mut self, interval: u64, budget_bytes: usize) {
        self.recorder = Some(Recorder::new(interval, budget_bytes));
        self.mem.start_validity_log();
    }

    /// Stops checkpoint recording and returns the store.
    ///
    /// # Panics
    ///
    /// Panics if [`Gpu::record_checkpoints`] was never called.
    pub fn finish_checkpoint_recording(&mut self) -> CheckpointStore {
        let recorder = self
            .recorder
            .take()
            .expect("checkpoint recording not started");
        for c in &mut self.cores {
            c.log_taint(false);
            c.scrub_taint();
        }
        self.mem.mark_words(false);
        recorder.into_store(self.mem.take_validity_timeline())
    }

    /// [`Gpu::finish_checkpoint_recording`], then settles every shadowed
    /// plan whose faulty values stayed data to the end and reached the
    /// host's reads after the last launch: SDC if its output differs from
    /// `golden`, Masked if not.  `run` is the host program: it runs on
    /// this device against the store's journal — every call served from
    /// it, the plan's faulty words patched into its reads, nothing
    /// simulated — and returns the output, `None` on an error.  A replay
    /// whose calls leave the journal settles nothing (a launch off the
    /// journal traps at once).
    ///
    /// # Panics
    ///
    /// Panics if [`Gpu::record_checkpoints`] was never called.
    pub fn finish_checkpoint_recording_with(
        &mut self,
        golden: &[u8],
        mut run: impl FnMut(&mut Gpu) -> Option<Vec<u8>>,
    ) -> CheckpointStore {
        let mut store = Arc::new(self.finish_checkpoint_recording());
        let mut told = Vec::new();
        for (plan, shadow) in &store.shadowed {
            let Shadow::Output(words, masked, finals) = shadow else {
                continue;
            };
            self.replay = Some(Replay {
                store: Arc::clone(&store),
                cursor: 0,
                snapshot: None,
                patched: store.patched_reads(words),
                diverged: false,
                next_check: 0,
            });
            self.watchdog = Some(self.cycle);
            let out = run(self);
            let rep = self.replay.take().expect("armed above");
            let whole = !rep.diverged && rep.cursor == store.journal.len();
            match out.filter(|_| whole) {
                Some(o) if o != golden => told.push((plan.clone(), Shadow::Sdc)),
                Some(_) => told.push((plan.clone(), Shadow::Masked(*masked, finals.clone()))),
                None => {}
            }
        }
        self.watchdog = None;
        let owned = Arc::get_mut(&mut store).expect("the replays are dropped");
        for (plan, shadow) in told {
            owned.shadowed.insert(plan, shadow);
        }
        for shadow in owned.shadowed.values_mut() {
            if matches!(shadow, Shadow::Output(..)) {
                *shadow = Shadow::Kept;
            }
        }
        Arc::try_unwrap(store).expect("the replays are dropped")
    }

    /// Shadows `plans` in the checkpoint recording: its transient
    /// register-file and shared-memory plans are fired where a run would
    /// fire them, flipping nothing on the device but the plans' own
    /// value deltas, and the store settles every one whose flips all die
    /// unread, or whose values stay data to the end — with
    /// [`Gpu::finish_checkpoint_recording_with`] when they reach the
    /// output ([`CheckpointStore::settle`]).  Snapshots hold none of the
    /// marks.
    ///
    /// # Panics
    ///
    /// Panics if [`Gpu::record_checkpoints`] was not called.
    pub fn shadow_plans<'a>(&mut self, plans: impl IntoIterator<Item = &'a InjectionPlan>) {
        let rec = self
            .recorder
            .as_mut()
            .expect("checkpoint recording not started");
        rec.shadows = Shadows::new(plans);
        for c in &mut self.cores {
            c.log_taint(rec.shadows.is_some());
        }
        self.mem.mark_words(rec.shadows.is_some());
    }

    /// Forks this GPU from snapshot `idx` of a recorded store: restores
    /// the machine state and arms journal replay, so the next
    /// `Workload::run` invocation fast-forwards through the
    /// already-executed host prefix (journaled results, no device effects)
    /// and resumes the in-flight launch's cycle loop at the snapshot
    /// cycle.
    ///
    /// Every injection-run field — watchdogs, armed faults and their
    /// records, early-exit and probe flags — is reset to its
    /// [`Gpu::new`] value, so one device can be forked run after run and
    /// behave exactly like a fresh one each time.
    ///
    /// Sound only when every armed fault fires at or after the snapshot
    /// cycle — the campaign picks
    /// [`CheckpointStore::nearest_at_or_before`] the first injection
    /// cycle.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn resume_from(&mut self, store: &Arc<CheckpointStore>, idx: usize) {
        self.restore(&store.snapshots[idx]);
        // Exhaustive, so a new field has to say whether a fork resets it.
        let Gpu {
            // Chip and machine state: the restore above.
            cfg: _,
            mem: _,
            cores: _,
            cycle: _,
            stats: _,
            watchdog,
            faults,
            fault_model,
            next_fault,
            records,
            early_exit,
            replay,
            // Golden-pass instruments, never combined with forking (see
            // their setters).
            recorder: _,
            oracle: _,
            profiling: _,
            reg_traces: _,
        } = self;
        *watchdog = None;
        faults.clear();
        *fault_model = FaultModel::Transient;
        *next_fault = 0;
        records.clear();
        *early_exit = false;
        *replay = Some(Replay {
            store: Arc::clone(store),
            cursor: 0,
            snapshot: Some(idx),
            patched: Vec::new(),
            diverged: false,
            next_check: idx + 1,
        });
    }

    // ------------------------------------------------------------------
    // Kernel launch
    // ------------------------------------------------------------------

    /// Launches `kernel` synchronously and runs it to completion,
    /// advancing the application cycle counter.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] when execution faults (invalid address,
    /// watchdog, deadlock, …).  Traps map to the **Crash** / **Timeout**
    /// fault-effect classes.
    ///
    /// # Panics
    ///
    /// Panics on launch-configuration errors — block larger than the
    /// hardware limit, wrong parameter count, or a CTA that cannot fit on
    /// an SM.  These indicate workload bugs, not injected faults.
    pub fn launch(
        &mut self,
        kernel: &Kernel,
        dims: LaunchDims,
        args: &[u32],
    ) -> Result<LaunchStats, Trap> {
        // Fork replay, case 1: a launch the journal says completed before
        // the snapshot.  Its effects are already in the restored state —
        // return the recorded stats without executing anything.
        let call = HostOp::Launch {
            kernel: kernel.name().to_string(),
        };
        if let Some(HostResult::Stats(stats)) = self.replayed(&call) {
            return Ok(stats.clone());
        }

        let tpc = dims.threads_per_cta();
        assert!(
            (1..=1024).contains(&tpc) && tpc <= self.cfg.max_threads_per_sm,
            "block of {tpc} threads exceeds hardware limits"
        );
        assert!(dims.grid.count() >= 1, "empty grid");
        assert_eq!(
            args.len(),
            kernel.num_params() as usize,
            "kernel `{}` expects {} parameters",
            kernel.name(),
            kernel.num_params()
        );

        // CTA residency limit (occupancy): threads, CTA slots, shared
        // memory and register file.
        let mut limit = self
            .cfg
            .max_ctas_per_sm
            .min(self.cfg.max_threads_per_sm / tpc);
        if kernel.smem_bytes() > 0 {
            limit = limit.min(self.cfg.smem_per_sm / kernel.smem_bytes());
        }
        let regs_per_cta = u32::from(kernel.num_regs()) * tpc;
        if let Some(reg_limit) = self.cfg.registers_per_sm.checked_div(regs_per_cta) {
            limit = limit.min(reg_limit);
        }
        assert!(
            limit >= 1,
            "kernel `{}` CTA does not fit on an SM",
            kernel.name()
        );

        // Predecode once per launch: the cycle loop dispatches on the flat
        // micro-op array instead of re-matching the nested `Op` enum.
        let decoded = gpufi_isa::decode::decode(kernel);
        let ctx = KernelCtx {
            kernel,
            uops: decoded.uops(),
            dims,
            args,
        };
        let total_ctas = dims.grid.count();
        // Fork replay, case 2: the in-flight launch the snapshot was taken
        // inside (the gate above checked it against the journal), the
        // call that follows the snapshot's `host_ops_done` ones.  Execution
        // goes live from here, picking the cycle loop up exactly where the
        // recording's snapshot left it — the restored cores/memory already
        // hold the mid-launch state, so kernel setup (local-memory reset,
        // core configuration, the initial CTA fill) must be skipped.
        let resumed = self.replay.as_ref().and_then(|rep| {
            let snap = &rep.store.snapshots[rep.snapshot?];
            (rep.cursor == snap.host_ops_done + 1).then(|| {
                snap.progress
                    .expect("campaign checkpoints are mid-launch snapshots")
            })
        });
        if let Some(sh) = self.recorder.as_mut().and_then(|r| r.shadows.as_mut()) {
            sh.host_continues(&mut self.cores, &mut self.mem);
        }
        let mut p = match resumed {
            Some(p) => p,
            None => {
                self.mem
                    .reset_local(dims.total_threads(), kernel.lmem_bytes())
                    .expect("local-memory segment exceeds the simulated capacity");
                for c in &mut self.cores {
                    c.configure_kernel(limit);
                    if self.profiling {
                        c.set_read_trace(Some(usize::from(kernel.num_regs())));
                    }
                }
                let mut p = LaunchProgress {
                    start_cycle: self.cycle,
                    instr0: self.cores.iter().map(|c| c.instructions).sum(),
                    ace0: self.cores.iter().map(|c| c.ace_reg_cycles).sum(),
                    l1d0: self.mem.l1d_stats(),
                    l1t0: self.mem.l1t_stats(),
                    l20: self.mem.l2_stats(),
                    ..LaunchProgress::default()
                };
                'fill: loop {
                    let mut placed = false;
                    for c in &mut self.cores {
                        if p.next_cta >= total_ctas {
                            break 'fill;
                        }
                        if c.can_accept_cta(&ctx) {
                            c.launch_cta(&ctx, p.next_cta, self.cycle);
                            p.next_cta += 1;
                            placed = true;
                        }
                    }
                    if !placed {
                        break;
                    }
                }
                p
            }
        };

        let max_warps = f64::from(self.cfg.max_warps_per_sm());
        // The occupancy quotients of the last residency tuple (live warps,
        // live threads, live CTAs, busy SMs) integrated: residency changes
        // far less often than the loop turns.
        let mut occ_last: Option<([u64; 4], [f64; 3])> = None;

        // Ascending indices of the SMs holding at least one CTA; every
        // per-cycle pass walks these alone.  An SM without CTAs has nothing
        // a cycle could change: it issues nothing, and it has no ready warp
        // and no stuck-at site to re-pin.  Derived from the cores, so a fork resuming
        // mid-launch rebuilds it from the restored state; kept ascending
        // because SMs share the L2 banks and DRAM queues, so issue order is
        // observable.  It only ever shrinks: while CTAs are pending no idle
        // SM can take one (the fill above stops only when none can, and an
        // idle SM's residency never changes), so every later CTA lands on
        // an SM already in it.
        let mut busy: Vec<usize> = (0..self.cores.len())
            .filter(|&i| !self.cores[i].is_idle())
            .collect();

        // The cycle of the next later checkpoint this run may reconverge
        // with (`u64::MAX`: none), so the loop pays one compare per
        // iteration for the rung.
        let mut next_check = self.next_reconvergence_check();
        // Latched once a flip is observed: the run can no longer early-exit,
        // so stop scanning taint state.
        let mut ee_dead = false;
        let mut ee_tick = 0u32;
        // A recording shadowing plans hands them, after each iteration,
        // the marks it read or killed.
        let shadowing = self.recorder.as_ref().is_some_and(|r| r.shadows.is_some());
        let outcome: Result<(), Trap> = 'run: loop {
            // Checkpoint capture (recording run only), at the top of the
            // loop *before* fault firing: a fork resuming here sees the
            // same pending-fault semantics a cold run reaching this cycle
            // would (a fault planned at exactly this cycle fires now in
            // both).  Every iteration advances the cycle, so each
            // top-of-loop cycle value is captured at most once.  Faults
            // fire just below, so the validity log stamps the changes the
            // cores make next as following this top.
            if let Some(rec) = &self.recorder {
                if self.cycle >= rec.next_at {
                    // Cache chunks written since the last capture become
                    // shared with the snapshot instead of copied into it.
                    self.mem.share();
                    let snap = self.capture(Some(p));
                    let rec = self.recorder.as_mut().expect("recorder checked above");
                    rec.push(snap);
                    if let Some(sh) = &mut rec.shadows {
                        sh.checkpoint(self.cycle);
                    }
                }
                self.mem.validity_top(self.cycle);
                if let Some(sh) = self.recorder.as_mut().and_then(|r| r.shadows.as_mut()) {
                    sh.top(self.cycle, &mut self.cores, &mut self.mem, &ctx);
                }
            }
            // Reconvergence (forked runs only), also before fault firing,
            // where the golden run captured the checkpoint.
            if self.cycle >= next_check {
                if self.reconverged(&p) {
                    break 'run Err(Trap::Reconverged);
                }
                next_check = self.next_reconvergence_check();
            }

            // Fire due faults.
            while self.next_fault < self.faults.len()
                && self.faults[self.next_fault].cycle <= self.cycle
            {
                let fault = self.faults[self.next_fault].clone();
                self.next_fault += 1;
                let record = self.apply_fault(&fault, &ctx);
                self.records.push(record);
            }

            // Fault-lifetime early exit: every planned fault has fired and
            // no flipped bit survives unobserved — the machine state equals
            // the golden run's, so the remaining execution is determined.
            if self.early_exit
                && !ee_dead
                && !self.faults.is_empty()
                && self.next_fault == self.faults.len()
            {
                if ee_tick == 0 {
                    ee_tick = EE_STRIDE;
                    if self.taint_escaped() {
                        ee_dead = true;
                    } else if self.taint_count() == 0 {
                        break 'run Err(Trap::FaultsExpired);
                    }
                }
                ee_tick -= 1;
            }

            // Issue one instruction per core.
            let mut any = false;
            for &i in &busy {
                match self.cores[i].cycle(self.cycle, &ctx, &mut self.mem) {
                    Ok(true) => any = true,
                    Ok(false) => {}
                    Err(t) => break 'run Err(t),
                }
            }

            // Permanent faults: re-pin every stuck-at site so this cycle's
            // architectural writes to stuck locations are undone (and the
            // sites re-tainted) before the next instruction — or the
            // early-exit probe above — can observe them.
            if self.fault_model.is_permanent() {
                for &i in &busy {
                    self.cores[i].enforce_stuck();
                }
            }

            // Retire finished CTAs and refill the SMs that held them.
            let now = self.cycle;
            for &i in &busy {
                let c = &mut self.cores[i];
                c.harvest_finished();
                while p.next_cta < total_ctas && c.can_accept_cta(&ctx) {
                    c.launch_cta(&ctx, p.next_cta, now);
                    p.next_cta += 1;
                }
            }
            if shadowing {
                self.drain_shadows(&busy);
            }
            busy.retain(|&i| !self.cores[i].is_idle());
            debug_assert!(
                p.next_cta >= total_ctas
                    || self
                        .cores
                        .iter()
                        .all(|c| !c.is_idle() || !c.can_accept_cta(&ctx)),
                "an idle SM could take a pending CTA"
            );

            let done = p.next_cta >= total_ctas && busy.is_empty();
            if done {
                break Ok(());
            }

            // Time advance: 1 cycle while issuing, else fast-forward to the
            // next event, cut short at the next armed fault's cycle (see
            // `LaunchProgress::cut`).
            let mut dt = if any {
                1
            } else {
                let next = busy
                    .iter()
                    .filter_map(|&i| self.cores[i].next_ready())
                    .min();
                match next {
                    Some(t) if t > self.cycle => t - self.cycle,
                    Some(_) => 1,
                    // No-runnable-warp fixpoint: no warp can ever issue
                    // again, so trap immediately (deterministic cycle count)
                    // instead of spinning to the watchdog.  Pending arrivals
                    // distinguish the lost-barrier hang of a control-unit
                    // fault from a generic deadlock.
                    None => {
                        break Err(if self.cores.iter().any(SimtCore::lost_barrier) {
                            Trap::LostBarrier
                        } else {
                            Trap::Deadlock
                        })
                    }
                }
            };
            let fc = self
                .faults
                .get(self.next_fault)
                .map_or(u64::MAX, |f| f.cycle);
            let cut = fc > self.cycle && fc < self.cycle + dt;
            if cut {
                dt = fc - self.cycle;
            }

            // Integrate occupancy / residency over [cycle, cycle + dt).
            let mut live_warps = 0u64;
            let mut live_threads = 0u64;
            let mut live_ctas = 0u64;
            let active_sms = busy.len() as u64;
            for &i in &busy {
                let c = &self.cores[i];
                live_warps += u64::from(c.resident_live_warps());
                live_threads += u64::from(c.resident_threads());
                live_ctas += u64::from(c.resident_ctas());
            }
            if active_sms > 0 {
                let key = [live_warps, live_threads, live_ctas, active_sms];
                let rates = match occ_last {
                    Some((k, q)) if k == key => q,
                    _ => {
                        let q = occupancy_rates(key, max_warps);
                        occ_last = Some((key, q));
                        q
                    }
                };
                p.step(key, rates, dt, cut, max_warps);
                p.t_int += dt;
                // Saturating: a fault in a warp's `ready_at` can fast-forward
                // by ~2^58 cycles into the watchdog trap, which discards the
                // integral — so debug and release builds must not differ
                // (overflow panic vs wrap) on it.
                p.thread_cycles = p
                    .thread_cycles
                    .saturating_add(live_threads.saturating_mul(dt));
            }

            self.cycle += dt;
            if let Some(limit) = self.watchdog {
                if self.cycle > limit {
                    break Err(self.hang_trap());
                }
            }
        };

        p.flush_cut(max_warps);

        // L1s are invalidated between launches on real GPUs.
        self.mem.flush_l1s();
        if let Some(sh) = self.recorder.as_mut().and_then(|r| r.shadows.as_mut()) {
            sh.launch_end(&mut self.mem);
        }

        // Lockstep oracle: diff the launch's final architectural state
        // against the reference interpreter (drains the cores' exit logs
        // even on a trap, so a later launch starts clean).
        if let Some(orc) = &mut self.oracle {
            let mut exited: Vec<ThreadState> = Vec::new();
            for c in &mut self.cores {
                exited.extend(c.take_exit_log());
            }
            orc.on_launch(kernel, dims, args, outcome.err(), &self.mem, &exited);
        }

        outcome?;
        let t = p.t_int.max(1) as f64;
        let stats = LaunchStats {
            kernel: kernel.name().to_string(),
            start_cycle: p.start_cycle,
            end_cycle: self.cycle,
            instructions: self.cores.iter().map(|c| c.instructions).sum::<u64>() - p.instr0,
            occupancy: p.occ_int / t,
            mean_threads_per_sm: p.thr_int / t,
            mean_ctas_per_sm: p.cta_int / t,
            regs_per_thread: u32::from(kernel.num_regs()),
            smem_per_cta: kernel.smem_bytes(),
            lmem_per_thread: kernel.lmem_bytes(),
            ace_reg_cycles: self.cores.iter().map(|c| c.ace_reg_cycles).sum::<u64>() - p.ace0,
            thread_cycles: p.thread_cycles,
            l1d_stats: self.mem.l1d_stats().since(&p.l1d0),
            l1t_stats: self.mem.l1t_stats().since(&p.l1t0),
            l2_stats: self.mem.l2_stats().since(&p.l20),
        };
        self.stats.launches.push(stats.clone());
        if self.profiling {
            // Merge the per-core traces into one per-register liveness
            // horizon: last read cycle + 1 across all cores, lifted to the
            // launch start for never-read registers.  Values never exceed
            // `end_cycle` because reads happen strictly before the launch
            // completes.
            let mut live_until = vec![0u64; usize::from(kernel.num_regs())];
            for c in &self.cores {
                if let Some(tr) = c.read_trace() {
                    for (acc, &v) in live_until.iter_mut().zip(tr) {
                        *acc = (*acc).max(v);
                    }
                }
            }
            for v in &mut live_until {
                *v = (*v).clamp(p.start_cycle, self.cycle);
            }
            self.reg_traces.push(live_until);
        }
        self.journal(call, || HostResult::Stats(stats.clone()));
        Ok(stats)
    }

    /// Hands the shadowed plans what the `busy` cores logged in this loop
    /// iteration (see `crate::shadow`).
    fn drain_shadows(&mut self, busy: &[usize]) {
        if let Some(sh) = self.recorder.as_mut().and_then(|r| r.shadows.as_mut()) {
            for &i in busy {
                if self.cores[i].logged() {
                    sh.drain(i as u32, &mut self.cores[i], &mut self.mem);
                }
            }
            if self.mem.copied_lines_pending() {
                sh.copies(&mut self.mem);
            }
        }
    }

    // ------------------------------------------------------------------
    // Fault application
    // ------------------------------------------------------------------

    /// Resolves one planned fault against the current dynamic state and
    /// corrupts every site it lands on (the paper's back-end, §IV.B; see
    /// [`crate::core::resolve`]).
    ///
    /// Under a stuck-at model ([`Gpu::arm_faults`]) every site pins its
    /// bits instead of flipping them.  A permanent fault on a structure
    /// without stuck-at support ([`crate::Structure::supports_stuck_at`]) is
    /// recorded as not applied — the mask generator refuses to draw such
    /// plans in the first place.
    fn apply_fault(&mut self, fault: &PlannedFault, ctx: &KernelCtx<'_>) -> InjectionRecord {
        let structure = fault.target.structure();
        let stuck = self.fault_model.stuck_value();
        let sites = (stuck.is_none() || structure.supports_stuck_at())
            .then(|| resolve(&fault.target, &self.cores, &self.mem, ctx))
            .flatten();
        let mut outcomes = Vec::new();
        for &site in sites.iter().flatten() {
            match site {
                Site::Core { sm, site } => self.cores[sm].corrupt(site, stuck),
                Site::Local { bit } => {
                    self.mem.flip_local_bit(bit);
                }
                Site::Cache(bit) => outcomes.push(self.mem.flip_cache_bit(bit)),
            }
        }
        // A cache fault applies where some flip lands in a valid line.
        let valid = outcomes.iter().any(|o| *o != FlipOutcome::InvalidLine);
        InjectionRecord {
            cycle: self.cycle,
            structure: structure.name(),
            applied: sites.is_some() && (outcomes.is_empty() || valid),
            outcomes,
        }
    }
}
