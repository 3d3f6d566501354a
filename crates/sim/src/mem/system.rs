//! The chip-level memory system.
//!
//! Functional data and timing are resolved together, against the *same*
//! arrays the fault injector mutates:
//!
//! * DRAM is the backing store for the global and per-thread local segments.
//! * The L2 is a banked write-back, write-allocate cache over DRAM;
//!   following the paper's setup it services **all** memory requests
//!   (§II.B: "For our analysis L2 cache is configured to service all
//!   memory requests").
//! * Each SM owns a private L1 data cache (global loads allocate; global
//!   stores are write-through + evict-on-write, no-allocate; local
//!   accesses are write-back, write-allocate — Table II) and a private
//!   read-only L1 texture cache.
//!
//! Timing uses per-bank and per-channel service queues, so cache behaviour
//! (and therefore injected tag faults) perturbs execution time — the source
//! of the paper's **Performance** fault-effect class.

use super::cache::{Cache, CacheStats, FlipOutcome, Writeback};
use super::validity::{Timeline, ValidityLog};
use crate::config::{GpuConfig, LatencyConfig};
use crate::error::{LaunchError, Trap};
use crate::fast_hash::{FastMap, FastSet};
use crate::fault::{FaultTarget, PlannedFault, Structure};

/// One bit of a cache fault, resolved against the memory system: its
/// cache (`unit` is the SM of an L1, the bank of the L2) and its index in
/// that cache's injectable space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CacheBit {
    pub(crate) structure: Structure,
    pub(crate) unit: usize,
    pub(crate) bit: u64,
}

/// First byte address of the global (device-malloc) segment.
pub const GLOBAL_BASE: u32 = 0x1000;

/// First byte address of the per-thread local-memory segment.
pub const LOCAL_BASE: u32 = 0x8000_0000;

/// Hard cap on simulated global allocations (keeps host memory bounded).
const GLOBAL_CAP: u32 = 256 * 1024 * 1024;

/// Hard cap on the local-memory backing segment.
const LOCAL_CAP: u64 = 256 * 1024 * 1024;

/// The kind of device-memory access, which selects the L1 path and write
/// policy (paper Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Global load/store: L1D allocate-on-read, evict-on-write.
    Global,
    /// Local load/store: L1D write-back, write-allocate.
    Local,
    /// Texture load: read-only through the L1 texture cache.
    Texture,
}

/// The chip-level memory system: backing segments, banked L2, per-SM L1s,
/// and the timing queues.
///
/// `Clone` is the checkpoint mechanism: every field is cloned (or, on
/// restore, `clone_from`-ed in place) so a snapshot can never silently
/// omit state (see `crate::snapshot`).
#[derive(Debug)]
pub struct MemSystem {
    line_bytes: u32,
    lat: LatencyConfig,
    num_banks: u32,
    global: Vec<u8>,
    local: Vec<u8>,
    constant: Vec<u8>,
    l1d: Vec<Option<Cache>>,
    l1t: Vec<Cache>,
    l1c: Vec<Cache>,
    l2: Vec<Cache>,
    bank_busy: Vec<u64>,
    dram_busy: Vec<u64>,
    // Fault-lifetime tracking for the local-memory backing segment: bit
    // indices flipped by injection but not yet read back through a fill.
    local_taints: Vec<u64>,
    // Latched when tainted local-backing bytes are read.
    escaped: bool,
    // Every cache line's validity changes, on the golden recording pass
    // alone (off in every clone and restore).
    validity: ValidityLog,
    // The global words the recording pass's value shadows mark.
    words: WordMarks,
}

/// The global-memory words the recording pass's value shadows mark (see
/// `crate::shadow`), by word index (byte address / 4).  Like the
/// validity log, an instrument of that pass: off in every clone and
/// restore.
#[derive(Debug, Default)]
struct WordMarks(Option<Marks>);

/// [`WordMarks`] while on: the marked words, as a mask of 32 consecutive
/// words per row keyed by the row's first word / 32, and the lines
/// holding one that were copied out of the L2 since the shadows last took
/// them — written back to DRAM or filled into an L1D or L1T, where a copy
/// can outlive the coherent view.
#[derive(Debug, Default)]
struct Marks {
    rows: FastMap<u32, u32>,
    copied: Vec<u64>,
}

impl Clone for WordMarks {
    fn clone(&self) -> Self {
        WordMarks::default()
    }

    fn clone_from(&mut self, _: &Self) {
        *self = WordMarks::default();
    }
}

clone_fields!(MemSystem {
    line_bytes,
    lat,
    num_banks,
    global,
    local,
    constant,
    l1d,
    l1t,
    l1c,
    l2,
    bank_busy,
    dram_busy,
    local_taints,
    escaped,
    validity,
    words,
});

impl MemSystem {
    /// Every cache's LRU tick and statistics, alone: what the
    /// reconvergence check compares before any line.
    pub(crate) fn same_counters(&self, o: &MemSystem) -> bool {
        self.caches().count() == o.caches().count()
            && self
                .caches()
                .zip(o.caches())
                .all(|(a, b)| a.same_counters(b))
    }

    /// State equality for the reconvergence check: segments, timing
    /// queues and every cache, i.e. all but the fault bookkeeping in the
    /// ignore list.
    pub(crate) fn same_state(&self, o: &MemSystem) -> bool {
        let MemSystem {
            line_bytes,
            lat,
            num_banks,
            global,
            local,
            constant,
            l1d,
            l1t,
            l1c,
            l2,
            bank_busy,
            dram_busy,
            // Ignored: fault bookkeeping and the recording instrument.
            local_taints: _,
            escaped: _,
            validity: _,
            words: _,
        } = self;
        let caches = |a: &[Cache], b: &[Cache]| {
            a.len() == b.len() && a.iter().zip(b).all(|(a, b)| a.same_state(b))
        };
        *line_bytes == o.line_bytes
            && *lat == o.lat
            && *num_banks == o.num_banks
            && *bank_busy == o.bank_busy
            && *dram_busy == o.dram_busy
            && l1d.len() == o.l1d.len()
            && l1d.iter().zip(&o.l1d).all(|(a, b)| match (a, b) {
                (Some(a), Some(b)) => a.same_state(b),
                (a, b) => a.is_none() && b.is_none(),
            })
            && caches(l1t, &o.l1t)
            && caches(l1c, &o.l1c)
            && caches(l2, &o.l2)
            && *constant == o.constant
            && *local == o.local
            && *global == o.global
    }
}

/// Capacity of the constant bank (CUDA's `__constant__` space is 64 KB).
const CONST_CAP: usize = 64 * 1024;

impl MemSystem {
    /// Builds the memory system for a GPU configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration's cache line sizes disagree or the L2
    /// does not divide evenly into its banks.
    pub fn new(cfg: &GpuConfig) -> Self {
        let line_bytes = cfg.l2.line_bytes;
        if let Some(l1d) = cfg.l1d {
            assert_eq!(l1d.line_bytes, line_bytes, "L1D line size must match L2");
        }
        assert_eq!(
            cfg.l1t.line_bytes, line_bytes,
            "L1T line size must match L2"
        );
        assert_eq!(
            cfg.l2.sets % cfg.num_l2_banks,
            0,
            "L2 sets must divide evenly into banks"
        );
        let bank_cfg = crate::config::CacheConfig {
            sets: cfg.l2.sets / cfg.num_l2_banks,
            ways: cfg.l2.ways,
            line_bytes,
        };
        let (sms, banks) = (cfg.num_sms as usize, cfg.num_l2_banks as usize);
        MemSystem {
            line_bytes,
            lat: cfg.lat,
            num_banks: cfg.num_l2_banks,
            global: Vec::new(),
            local: Vec::new(),
            constant: Vec::new(),
            // Clones of one empty cache per geometry: every cache of a
            // shape starts on the same shared table of one shared
            // all-invalid chunk.
            l1d: vec![cfg.l1d.map(Cache::new); sms],
            l1t: vec![Cache::new(cfg.l1t); sms],
            l1c: vec![Cache::new(cfg.l1c); sms],
            l2: vec![Cache::new(bank_cfg); banks],
            bank_busy: vec![0; banks],
            dram_busy: vec![0; banks],
            local_taints: Vec::new(),
            escaped: false,
            validity: ValidityLog::default(),
            words: WordMarks::default(),
        }
    }

    /// Every cache: the L1Ds, L1Ts, L1Cs, then the L2 banks.
    fn caches(&self) -> impl Iterator<Item = &Cache> {
        self.l1d
            .iter()
            .flatten()
            .chain(&self.l1t)
            .chain(&self.l1c)
            .chain(&self.l2)
    }

    /// Hands every cache chunk and chunk table this memory system owns
    /// over to sharing, so the next capture shares them instead of copying
    /// them (see [`Cache::share`]): work for the caches written since the
    /// last call only.
    pub(crate) fn share(&mut self) {
        let caches = self.l1d.iter_mut().flatten();
        for c in caches
            .chain(&mut self.l1t)
            .chain(&mut self.l1c)
            .chain(&mut self.l2)
        {
            c.share();
        }
    }

    /// Bytes of the backing segments and timing queues.
    pub(crate) fn segment_bytes(&self) -> usize {
        self.global.len()
            + self.local.len()
            + self.constant.len()
            + (self.bank_busy.len() + self.dram_busy.len() + self.local_taints.len()) * 8
    }

    /// Nominal footprint of the backing segments, caches and timing
    /// queues: what the checkpoint recorder charges one snapshot of this
    /// memory system against its budget (see [`Cache::resident_bytes`]).
    pub fn resident_bytes(&self) -> usize {
        self.segment_bytes() + self.caches().map(Cache::resident_bytes).sum::<usize>()
    }

    /// Heap bytes actually held, counting only the cache chunk tables and
    /// chunks not already in `seen` (see [`Cache::held_bytes`]).
    pub(crate) fn held_bytes(&self, seen: &mut FastSet<*const ()>) -> usize {
        self.segment_bytes() + self.caches().map(|c| c.held_bytes(seen)).sum::<usize>()
    }

    /// Heap bytes held beyond what `prev`, the memory system of the
    /// snapshot captured before, holds: the segments and the cache
    /// tables and chunks written since (see [`Cache::added_bytes`]).
    pub(crate) fn added_bytes(&self, prev: &MemSystem) -> usize {
        let caches = self.caches().zip(prev.caches());
        self.segment_bytes() + caches.map(|(c, p)| c.added_bytes(p)).sum::<usize>()
    }

    /// Unobserved fault-flipped state across the whole memory system:
    /// tainted cache lines plus flipped local-backing bits.
    pub fn taint_count(&self) -> u64 {
        let caches = self
            .caches()
            .map(|c| u64::from(c.taint_count()))
            .sum::<u64>();
        caches + self.local_taints.len() as u64
    }

    /// Whether any fault-flipped memory state has become observable
    /// (read, written back to a lower level, or a tag corrupted).
    pub fn taint_escaped(&self) -> bool {
        self.escaped || self.caches().any(Cache::taint_escaped)
    }

    /// Hashes the complete memory-system state (backing segments, every
    /// cache, timing queues, taint bookkeeping) into a canonical state
    /// digest.
    pub(crate) fn digest_into(&self, h: &mut crate::snapshot::StateHasher) {
        h.u64(self.global.len() as u64);
        h.bytes(&self.global);
        h.u64(self.local.len() as u64);
        h.bytes(&self.local);
        h.u64(self.constant.len() as u64);
        h.bytes(&self.constant);
        for c in &self.l1d {
            match c {
                Some(c) => {
                    h.bool(true);
                    c.digest_into(h);
                }
                None => h.bool(false),
            }
        }
        for c in self.l1t.iter().chain(&self.l1c).chain(&self.l2) {
            c.digest_into(h);
        }
        for &t in self.bank_busy.iter().chain(&self.dram_busy) {
            h.u64(t);
        }
        let mut taints = self.local_taints.clone();
        taints.sort_unstable();
        h.u64(taints.len() as u64);
        for b in taints {
            h.u64(b);
        }
        h.bool(self.escaped);
    }

    /// Escapes if the local-backing byte range `[start, start+len)` holds a
    /// tainted bit (it is about to be observed by a fill).
    fn observe_local_range(&mut self, start: usize, len: usize) {
        if !self.local_taints.is_empty()
            && self
                .local_taints
                .iter()
                .any(|&b| ((b / 8) as usize) >= start && ((b / 8) as usize) < start + len)
        {
            self.escaped = true;
        }
    }

    /// Cache line size in bytes.
    pub fn line_bytes(&self) -> u32 {
        self.line_bytes
    }

    // ------------------------------------------------------------------
    // Allocation and host access
    // ------------------------------------------------------------------

    /// Allocates `bytes` of zeroed global memory, 1-line aligned.
    ///
    /// # Errors
    ///
    /// Returns [`LaunchError::OutOfMemory`] past the simulated capacity.
    pub fn alloc(&mut self, bytes: u32) -> Result<u32, LaunchError> {
        let align = self.line_bytes as usize;
        let padded = (bytes as usize).div_ceil(align) * align;
        if self.global.len() + padded > GLOBAL_CAP as usize {
            return Err(LaunchError::OutOfMemory);
        }
        let ptr = GLOBAL_BASE + self.global.len() as u32;
        self.global.resize(self.global.len() + padded, 0);
        Ok(ptr)
    }

    /// (Re)creates the local-memory backing segment for a launch of
    /// `total_threads` threads with `lmem_bytes` of local memory each.
    ///
    /// # Errors
    ///
    /// Returns [`LaunchError::OutOfMemory`] past the simulated capacity.
    pub fn reset_local(&mut self, total_threads: u64, lmem_bytes: u32) -> Result<(), LaunchError> {
        let need = total_threads * u64::from(lmem_bytes);
        let padded = need.div_ceil(u64::from(self.line_bytes)) * u64::from(self.line_bytes);
        if padded > LOCAL_CAP {
            return Err(LaunchError::OutOfMemory);
        }
        self.local.clear();
        self.local.resize(padded as usize, 0);
        // The reset destroys any flipped-but-unread local bits, exactly as it
        // wipes the golden contents: the divergence is gone, not observed.
        self.local_taints.clear();
        Ok(())
    }

    /// Copies device memory to the host, coherently through the L2.  A
    /// resident L2 line holding fault-flipped bits escapes here: the host
    /// observes it.
    ///
    /// # Errors
    ///
    /// Returns [`LaunchError::BadDevicePointer`] when the range is not
    /// mapped in the global segment.
    pub fn host_read(&mut self, addr: u32, out: &mut [u8]) -> Result<(), LaunchError> {
        self.check_host_range(addr, out.len())?;
        for (la, _, _) in self.line_pieces(addr, out.len()) {
            let (bank, local_la) = self.bank_of(la);
            self.l2[bank].observe(local_la);
        }
        self.coherent_read(addr, out);
        Ok(())
    }

    /// Copies host memory to the device, updating any resident L2 copy in
    /// place so the hierarchy stays coherent.
    ///
    /// # Errors
    ///
    /// Returns [`LaunchError::BadDevicePointer`] when the range is not
    /// mapped in the global segment.
    pub fn host_write(&mut self, addr: u32, data: &[u8]) -> Result<(), LaunchError> {
        self.check_host_range(addr, data.len())?;
        let g = (addr - GLOBAL_BASE) as usize;
        self.global[g..g + data.len()].copy_from_slice(data);
        let mut at = 0;
        for (la, off, n) in self.line_pieces(addr, data.len()) {
            let (bank, local_la) = self.bank_of(la);
            // Preserve the line's dirty state; only refresh the bytes.
            self.l2[bank].poke(local_la, off, &data[at..at + n]);
            at += n;
        }
        Ok(())
    }

    /// Writes into the constant bank at `offset`, growing it (up to the
    /// 64 KB CUDA constant-space limit).
    ///
    /// # Errors
    ///
    /// Returns [`LaunchError::OutOfMemory`] past the constant-bank
    /// capacity.
    pub fn const_write(&mut self, offset: u32, data: &[u8]) -> Result<(), LaunchError> {
        let end = offset as usize + data.len();
        if end > CONST_CAP {
            return Err(LaunchError::OutOfMemory);
        }
        if end > self.constant.len() {
            self.constant.resize(end, 0);
        }
        self.constant[offset as usize..end].copy_from_slice(data);
        Ok(())
    }

    /// Line size of the L1 constant cache, bytes.
    pub fn const_line_bytes(&self) -> u32 {
        self.l1c[0].config().line_bytes
    }

    /// Functionally loads a 4-byte word from the constant space through
    /// the SM's L1 constant cache.  Addresses are 0-based into the bank;
    /// reads past the written extent return zeros.
    ///
    /// # Errors
    ///
    /// Traps on misaligned addresses.
    pub fn load4_const(&mut self, sm: usize, addr: u32) -> Result<u32, Trap> {
        if !addr.is_multiple_of(4) {
            return Err(Trap::Misaligned { addr });
        }
        let line_bytes = self.l1c[sm].config().line_bytes;
        let la = u64::from(addr) / u64::from(line_bytes);
        let off = addr % line_bytes;
        let mut buf = [0u8; 4];
        if !self.l1c[sm].read(la, off, &mut buf) {
            let start = (la * u64::from(line_bytes)) as usize;
            let mut data = vec![0u8; line_bytes as usize];
            for (i, b) in data.iter_mut().enumerate() {
                *b = self.constant.get(start + i).copied().unwrap_or(0);
            }
            self.l1c[sm].fill_with(la, &data, false, &mut |l| {
                self.validity.note(Structure::L1Const, sm, l);
            });
            self.l1c[sm].read(la, off, &mut buf);
        }
        Ok(u32::from_le_bytes(buf))
    }

    /// Prices a constant-cache transaction (the constant path does not
    /// cross the interconnect in this model — see DESIGN.md).
    pub fn const_line_latency(&mut self, sm: usize, line_addr: u64, issue: u64) -> u64 {
        if self.l1c[sm].probe(line_addr) {
            issue + u64::from(self.lat.l1) / 2
        } else {
            issue + u64::from(self.lat.l1) + u64::from(self.lat.l2)
        }
    }

    fn check_host_range(&self, addr: u32, len: usize) -> Result<(), LaunchError> {
        let end = u64::from(addr) + len as u64;
        if addr < GLOBAL_BASE || end > u64::from(GLOBAL_BASE) + self.global.len() as u64 {
            return Err(LaunchError::BadDevicePointer);
        }
        Ok(())
    }

    /// Splits the byte range `[addr, addr + len)` at line boundaries:
    /// each piece's line address, offset in the line and length.
    fn line_pieces(&self, addr: u32, len: usize) -> impl Iterator<Item = (u64, u32, usize)> {
        let lb = self.line_bytes;
        let end = u64::from(addr) + len as u64;
        let mut a = u64::from(addr);
        std::iter::from_fn(move || {
            (a < end).then(|| {
                let (la, off) = (a / u64::from(lb), (a % u64::from(lb)) as u32);
                let n = (u64::from(lb - off)).min(end - a);
                a += n;
                (la, off, n as usize)
            })
        })
    }

    /// Reads a mapped global range coherently, a line at a time: from the
    /// L2 where the line is resident (it may hold newer — or
    /// fault-corrupted — data than the backing store), else from the
    /// backing store.  LRU state, statistics, dirty flags and escape
    /// latches are untouched.
    fn coherent_read(&self, addr: u32, out: &mut [u8]) {
        let mut at = 0;
        for (la, off, n) in self.line_pieces(addr, out.len()) {
            let (bank, local_la) = self.bank_of(la);
            let src = match self.l2[bank].peek_line(local_la) {
                Some(line) => &line[off as usize..],
                None => &self.global[(addr - GLOBAL_BASE) as usize + at..],
            };
            out[at..at + n].copy_from_slice(&src[..n]);
            at += n;
        }
    }

    /// A coherent byte-for-byte image of the whole allocated global
    /// segment, read through the L2 (dirty cached lines included) without
    /// perturbing cache statistics.  This is the memory half of the
    /// architectural state the differential oracle diffs.
    pub fn global_image(&self) -> Vec<u8> {
        let mut img = vec![0; self.global.len()];
        self.coherent_read(GLOBAL_BASE, &mut img);
        img
    }

    // ------------------------------------------------------------------
    // Segment resolution
    // ------------------------------------------------------------------

    /// Validates a device access.
    ///
    /// Device memory is **demand-paged** like GPGPU-Sim's functional
    /// memory: accesses beyond the allocated ranges do not fault — they
    /// read zeros (and stores to unbacked lines vanish on eviction).  This
    /// is what keeps the paper's Crash class near zero (§VI.B): a
    /// fault-corrupted pointer usually produces an SDC, not an abort.
    /// Only two conditions trap, matching the simulator aborts GPGPU-Sim
    /// does have: misaligned accesses, and the null page (`< GLOBAL_BASE`).
    fn check_access(addr: u32) -> Result<(), Trap> {
        if !addr.is_multiple_of(4) {
            return Err(Trap::Misaligned { addr });
        }
        if addr < GLOBAL_BASE {
            return Err(Trap::InvalidAddress { addr });
        }
        Ok(())
    }

    /// Reads one line from the DRAM backing; unbacked regions read as
    /// zeros (demand paging), addresses outside the 32-bit space as `None`.
    /// Reading tainted local-backing bytes latches the escape.
    fn dram_line(&mut self, line_addr: u64) -> Option<Vec<u8>> {
        let start = line_addr.checked_mul(u64::from(self.line_bytes))?;
        if start > u64::from(u32::MAX) {
            return None;
        }
        let start = start as u32;
        let lb = self.line_bytes as usize;
        let backed = if start >= LOCAL_BASE {
            let o = (start - LOCAL_BASE) as usize;
            if o + lb <= self.local.len() {
                self.observe_local_range(o, lb);
            }
            self.local.get(o..o + lb)
        } else if start >= GLOBAL_BASE {
            let o = (start - GLOBAL_BASE) as usize;
            self.global.get(o..o + lb)
        } else {
            None
        };
        Some(backed.map_or_else(|| vec![0u8; lb], <[u8]>::to_vec))
    }

    /// Writes one line to the DRAM backing; unmapped victims (e.g. from a
    /// fault-corrupted tag) are dropped silently, like a stray DMA landing
    /// outside the simulated allocations.
    fn dram_write_line(&mut self, line_addr: u64, data: &[u8]) {
        let lb = u64::from(self.line_bytes);
        let Some(start) = line_addr.checked_mul(lb) else {
            return;
        };
        if start > u64::from(u32::MAX) {
            return;
        }
        let start = start as u32;
        if start >= LOCAL_BASE {
            let o = (start - LOCAL_BASE) as usize;
            if o + data.len() <= self.local.len() {
                self.local[o..o + data.len()].copy_from_slice(data);
                self.local_taints
                    .retain(|&b| ((b / 8) as usize) < o || ((b / 8) as usize) >= o + data.len());
            }
        } else if start >= GLOBAL_BASE {
            let o = (start - GLOBAL_BASE) as usize;
            if o + data.len() <= self.global.len() {
                self.global[o..o + data.len()].copy_from_slice(data);
                self.note_copy(line_addr);
            }
        }
    }

    fn bank_of(&self, line_addr: u64) -> (usize, u64) {
        (
            (line_addr % u64::from(self.num_banks)) as usize,
            line_addr / u64::from(self.num_banks),
        )
    }

    // ------------------------------------------------------------------
    // L2 operations
    // ------------------------------------------------------------------

    /// Reads `out.len()` bytes at `offset` of a line through the L2
    /// (filling from DRAM on a miss).  Hit, LRU and statistics do not
    /// depend on how many bytes are read.
    fn l2_read(&mut self, line_addr: u64, offset: u32, out: &mut [u8]) -> Result<(), Trap> {
        let (bank, local_la) = self.bank_of(line_addr);
        if !self.l2[bank].read(local_la, offset, out) {
            let data = self.l2_fill(line_addr)?;
            let at = offset as usize;
            out.copy_from_slice(&data[at..at + out.len()]);
        }
        Ok(())
    }

    /// Reads a line through the L2 (filling from DRAM on a miss) into the
    /// SM's L1 for `kind` (data, or texture), returning the L1's dirty
    /// victim.  An L2 hit is copied straight from the L2's line.
    fn l1_fill(
        &mut self,
        sm: usize,
        kind: AccessKind,
        line_addr: u64,
    ) -> Result<Option<Writeback>, Trap> {
        self.note_copy(line_addr);
        let (bank, local_la) = self.bank_of(line_addr);
        if let Some(line) = self.l2[bank].read_line(local_la) {
            let (l1, structure) = Self::l1(&mut self.l1d, &mut self.l1t, sm, kind);
            let mut note = |l| self.validity.note(structure, sm, l);
            return Ok(l1.fill_with(line_addr, line, false, &mut note));
        }
        let data = self.l2_fill(line_addr)?;
        let (l1, structure) = Self::l1(&mut self.l1d, &mut self.l1t, sm, kind);
        let mut note = |l| self.validity.note(structure, sm, l);
        Ok(l1.fill_with(line_addr, &data, false, &mut note))
    }

    /// The SM's L1 data or texture cache and its structure, borrowed apart
    /// from the L2.
    fn l1<'a>(
        l1d: &'a mut [Option<Cache>],
        l1t: &'a mut [Cache],
        sm: usize,
        kind: AccessKind,
    ) -> (&'a mut Cache, Structure) {
        match kind {
            AccessKind::Texture => (&mut l1t[sm], Structure::L1Tex),
            AccessKind::Global | AccessKind::Local => (
                l1d[sm].as_mut().expect("the SM has an L1D"),
                Structure::L1Data,
            ),
        }
    }

    /// Fills a line the L2 missed from DRAM, writing its victim back, and
    /// returns the line.
    fn l2_fill(&mut self, line_addr: u64) -> Result<Vec<u8>, Trap> {
        let (bank, local_la) = self.bank_of(line_addr);
        let data = self.dram_line(line_addr).ok_or(Trap::InvalidAddress {
            addr: (line_addr * u64::from(self.line_bytes)).min(u64::from(u32::MAX)) as u32,
        })?;
        let mut note = |l| self.validity.note(Structure::L2, bank, l);
        if let Some(wb) = self.l2[bank].fill_with(local_la, &data, false, &mut note) {
            let victim_la = wb.line_addr * u64::from(self.num_banks) + bank as u64;
            self.dram_write_line(victim_la, &wb.data);
        }
        Ok(data)
    }

    /// Writes bytes through the L2 (write-allocate, write-back).
    fn l2_write(&mut self, addr: u32, bytes: &[u8]) -> Result<(), Trap> {
        let la = u64::from(addr) / u64::from(self.line_bytes);
        let off = addr % self.line_bytes;
        let (bank, local_la) = self.bank_of(la);
        if self.l2[bank].write(local_la, off, bytes, true) {
            return Ok(());
        }
        let mut data = self.dram_line(la).ok_or(Trap::InvalidAddress { addr })?;
        data[off as usize..off as usize + bytes.len()].copy_from_slice(bytes);
        let mut note = |l| self.validity.note(Structure::L2, bank, l);
        if let Some(wb) = self.l2[bank].fill_with(local_la, &data, true, &mut note) {
            let victim_la = wb.line_addr * u64::from(self.num_banks) + bank as u64;
            self.dram_write_line(victim_la, &wb.data);
        }
        Ok(())
    }

    /// Accepts a (possibly fault-corrupted) dirty line evicted from an L1;
    /// unmapped targets are dropped.
    fn l2_accept_writeback(&mut self, line_addr: u64, data: &[u8]) {
        let (bank, local_la) = self.bank_of(line_addr);
        if self.l2[bank].write(local_la, 0, data, true) {
            return;
        }
        if self.dram_line(line_addr).is_some() {
            let mut note = |l| self.validity.note(Structure::L2, bank, l);
            if let Some(wb) = self.l2[bank].fill_with(local_la, data, true, &mut note) {
                let victim_la = wb.line_addr * u64::from(self.num_banks) + bank as u64;
                self.dram_write_line(victim_la, &wb.data);
            }
        }
        // Unmapped (corrupted) target: dropped.
    }

    // ------------------------------------------------------------------
    // Device access: functional
    // ------------------------------------------------------------------

    /// Functionally loads a 4-byte word, applying fills and policies.
    ///
    /// # Errors
    ///
    /// Traps on misaligned or unmapped addresses.
    pub fn load4(&mut self, sm: usize, kind: AccessKind, addr: u32) -> Result<u32, Trap> {
        Self::check_access(addr)?;
        let la = u64::from(addr) / u64::from(self.line_bytes);
        let off = addr % self.line_bytes;
        let mut buf = [0u8; 4];
        match kind {
            AccessKind::Global | AccessKind::Local => {
                if self.l1d[sm].is_some() {
                    let hit = self.l1d[sm]
                        .as_mut()
                        .expect("checked")
                        .read(la, off, &mut buf);
                    if !hit {
                        let wb = self.l1_fill(sm, kind, la)?;
                        self.l1d[sm]
                            .as_mut()
                            .expect("checked")
                            .read(la, off, &mut buf);
                        if let Some(wb) = wb {
                            self.l2_accept_writeback(wb.line_addr, &wb.data);
                        }
                    }
                } else {
                    self.l2_read(la, off, &mut buf)?;
                }
            }
            AccessKind::Texture => {
                let hit = self.l1t[sm].read(la, off, &mut buf);
                if !hit {
                    // Read-only: texture victims are never dirty.
                    self.l1_fill(sm, kind, la)?;
                    self.l1t[sm].read(la, off, &mut buf);
                }
            }
        }
        Ok(u32::from_le_bytes(buf))
    }

    /// Functionally stores a 4-byte word, applying write policies.
    ///
    /// # Errors
    ///
    /// Traps on misaligned or unmapped addresses, and on texture stores
    /// (the texture path is read-only).
    pub fn store4(
        &mut self,
        sm: usize,
        kind: AccessKind,
        addr: u32,
        value: u32,
    ) -> Result<(), Trap> {
        Self::check_access(addr)?;
        let la = u64::from(addr) / u64::from(self.line_bytes);
        let off = addr % self.line_bytes;
        let bytes = value.to_le_bytes();
        match kind {
            AccessKind::Global => {
                // Write-through to L2; evict-on-write in L1 (global lines in
                // L1 are never dirty, so a plain invalidate suffices).
                self.l2_write(addr, &bytes)?;
                if let Some(l1) = self.l1d[sm].as_mut() {
                    l1.invalidate_with(la, &mut |l| self.validity.note(Structure::L1Data, sm, l));
                }
            }
            AccessKind::Local => {
                if self.l1d[sm].is_some() {
                    let hit = self.l1d[sm]
                        .as_mut()
                        .expect("checked")
                        .write(la, off, &bytes, true);
                    if !hit {
                        // Write-allocate: fetch, fill, then write.
                        let wb = self.l1_fill(sm, kind, la)?;
                        self.l1d[sm]
                            .as_mut()
                            .expect("checked")
                            .write(la, off, &bytes, true);
                        if let Some(wb) = wb {
                            self.l2_accept_writeback(wb.line_addr, &wb.data);
                        }
                    }
                } else {
                    self.l2_write(addr, &bytes)?;
                }
            }
            AccessKind::Texture => {
                return Err(Trap::InvalidAddress { addr });
            }
        }
        Ok(())
    }

    /// Loads a word for every lane of `lanes` — `(lane, address)` pairs
    /// in lane order — into `row[lane]`: the same words, cache state and
    /// first trap as one [`MemSystem::load4`] per lane, with every lane
    /// before a trapping one loaded.
    ///
    /// Lanes are taken a run at a time (see `runs`): the run's first
    /// lane goes through `load4`, which leaves its line resident in the
    /// cache it read — the SM's L1D or L1T, else the line's L2 bank — and
    /// the rest are one bulk read (`Cache::read_run`) of that line there,
    /// since nothing touches a cache between two lanes of a run.
    ///
    /// # Errors
    ///
    /// Traps on the first misaligned or unmapped lane.
    pub fn load_lanes(
        &mut self,
        sm: usize,
        kind: AccessKind,
        lanes: &[(usize, u32)],
        row: &mut [u32],
    ) -> Result<(), Trap> {
        let lb = self.line_bytes;
        for (la, (lane, addr), rest) in runs(lanes, lb, |a| Self::check_access(a).is_ok()) {
            row[lane] = self.load4(sm, kind, addr)?;
            if rest.is_empty() {
                continue;
            }
            let (cache, cla) = match kind {
                AccessKind::Texture => (&mut self.l1t[sm], la),
                _ if self.l1d[sm].is_some() => (self.l1d[sm].as_mut().expect("checked"), la),
                _ => {
                    let (bank, local_la) = self.bank_of(la);
                    (&mut self.l2[bank], local_la)
                }
            };
            read_rest(cache, cla, la * u64::from(lb), rest, row);
        }
        Ok(())
    }

    /// Stores `row[lane]` for every lane of `lanes` — `(lane, address)`
    /// pairs in lane order: the same memory and cache state and first trap
    /// as one [`MemSystem::store4`] per lane, with every lane before a
    /// trapping one stored.
    ///
    /// As in [`MemSystem::load_lanes`], a run's first lane goes through
    /// `store4` and the rest are one bulk write (`Cache::write_run`) on
    /// the line it left resident: the L1D of a local store on a card with
    /// one, else the L2 bank.  The first lane of a global store already
    /// evicted the line from the L1D, so the rest evict only what a tag
    /// flip may have left there: a second resident copy per lane, as
    /// lane-by-lane stores would.
    ///
    /// # Errors
    ///
    /// Traps on the first misaligned or unmapped lane, and on texture
    /// stores.
    pub fn store_lanes(
        &mut self,
        sm: usize,
        kind: AccessKind,
        lanes: &[(usize, u32)],
        row: &[u32],
    ) -> Result<(), Trap> {
        let lb = self.line_bytes;
        for (la, (lane, addr), rest) in runs(lanes, lb, |a| Self::check_access(a).is_ok()) {
            self.store4(sm, kind, addr, row[lane])?;
            if rest.is_empty() {
                continue;
            }
            let start = la * u64::from(lb);
            let words = rest
                .iter()
                .map(|&(lane, a)| ((u64::from(a) - start) as u32, row[lane].to_le_bytes()));
            let resident = match (kind, self.l1d[sm].as_mut()) {
                (AccessKind::Local, Some(l1)) => l1.write_run(la, words, true),
                _ => {
                    let (bank, local_la) = self.bank_of(la);
                    self.l2[bank].write_run(local_la, words, true)
                }
            };
            assert!(resident, "the run's first lane left its line resident");
            if let (AccessKind::Global, Some(l1)) = (kind, self.l1d[sm].as_mut()) {
                let mut note = |l| self.validity.note(Structure::L1Data, sm, l);
                for _ in rest {
                    if !l1.invalidate_with(la, &mut note) {
                        break;
                    }
                }
            }
        }
        Ok(())
    }

    /// [`MemSystem::load_lanes`] through the SM's L1 constant cache: one
    /// [`MemSystem::load4_const`] per run, the rest one bulk read
    /// (`Cache::read_run`) of the L1C line.
    ///
    /// # Errors
    ///
    /// Traps on the first misaligned lane.
    pub fn load_lanes_const(
        &mut self,
        sm: usize,
        lanes: &[(usize, u32)],
        row: &mut [u32],
    ) -> Result<(), Trap> {
        let lb = self.l1c[sm].config().line_bytes;
        for (la, (lane, addr), rest) in runs(lanes, lb, |a| a.is_multiple_of(4)) {
            row[lane] = self.load4_const(sm, addr)?;
            if !rest.is_empty() {
                read_rest(&mut self.l1c[sm], la, la * u64::from(lb), rest, row);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Device access: timing
    // ------------------------------------------------------------------

    /// Prices one line-sized transaction issued at `issue`, reserving bank
    /// and channel slots, and returns its completion cycle.
    ///
    /// Must be called *before* the functional operations of the same
    /// instruction so hit/miss reflects the pre-access state.
    pub fn line_latency(
        &mut self,
        sm: usize,
        kind: AccessKind,
        line_addr: u64,
        write: bool,
        issue: u64,
    ) -> u64 {
        let l1_hit = match kind {
            AccessKind::Global | AccessKind::Local => {
                self.l1d[sm].as_ref().map(|c| c.probe(line_addr))
            }
            AccessKind::Texture => Some(self.l1t[sm].probe(line_addr)),
        };
        let global_store = write && kind == AccessKind::Global;
        // L1 hit (and not a write-through global store): done at L1 latency.
        if l1_hit == Some(true) && !global_store {
            return issue + u64::from(self.lat.l1);
        }
        // Otherwise the transaction crosses the interconnect to a partition.
        let (bank, local_la) = self.bank_of(line_addr);
        let l1_lat = if l1_hit.is_some() { self.lat.l1 } else { 0 };
        let arrive = issue + u64::from(l1_lat) + u64::from(self.lat.icnt);
        let start = arrive.max(self.bank_busy[bank]);
        self.bank_busy[bank] = start + u64::from(self.lat.l2_service);
        let l2_hit = self.l2[bank].probe(local_la);
        let l2_done = start + u64::from(self.lat.l2);
        let done = if l2_hit {
            l2_done
        } else {
            let dstart = l2_done.max(self.dram_busy[bank]);
            self.dram_busy[bank] = dstart + u64::from(self.lat.dram_service);
            dstart + u64::from(self.lat.dram)
        };
        if global_store {
            // Posted store: the warp only pays a small issue cost, but the
            // bank/channel reservations above still create back-pressure.
            return issue + u64::from(self.lat.alu);
        }
        done + u64::from(self.lat.icnt)
    }

    // ------------------------------------------------------------------
    // Kernel-boundary maintenance
    // ------------------------------------------------------------------

    /// Flushes and invalidates every L1 (data and texture), writing dirty
    /// local lines back to the L2.  Models the L1 invalidation real GPUs
    /// perform between kernel launches.
    pub fn flush_l1s(&mut self) {
        for sm in 0..self.l1d.len() {
            if let Some(l1) = self.l1d[sm].as_mut() {
                for wb in l1.flush_with(&mut |l| self.validity.note(Structure::L1Data, sm, l)) {
                    self.l2_accept_writeback(wb.line_addr, &wb.data);
                }
            }
            // Read-only: texture and constant victims are never dirty.
            self.l1t[sm].flush_with(&mut |l| self.validity.note(Structure::L1Tex, sm, l));
            self.l1c[sm].flush_with(&mut |l| self.validity.note(Structure::L1Const, sm, l));
        }
    }

    // ------------------------------------------------------------------
    // Line-validity timeline (golden recording pass)
    // ------------------------------------------------------------------

    /// Switches the line-validity log on (see [`Timeline`]), logging every
    /// line valid now as turned valid before any fault can fire.
    pub(crate) fn start_validity_log(&mut self) {
        use Structure::{L1Const, L1Data, L1Tex, L2};
        let mut log = ValidityLog::on();
        let l1s = (0..self.l1t.len()).flat_map(|u| [(L1Data, u), (L1Tex, u), (L1Const, u)]);
        for (structure, unit) in l1s.chain((0..self.l2.len()).map(|b| (L2, b))) {
            // A cache with no valid line is skipped without a walk.
            let lines = self.cache(structure, unit).filter(|c| c.valid_lines() > 0);
            for l in lines.into_iter().flat_map(Cache::valid_line_indices) {
                log.note(structure, unit, l);
            }
        }
        self.validity = log;
    }

    /// Marks a cycle-loop top at `cycle`, where due faults fire: validity
    /// changes from here on follow it.
    pub(crate) fn validity_top(&mut self, cycle: u64) {
        self.validity.top(cycle);
    }

    /// Switches the line-validity log off and returns its timeline.
    pub(crate) fn take_validity_timeline(&mut self) -> Timeline {
        self.validity.take()
    }

    /// Switches the value shadows' global word marks on (empty) or off.
    pub(crate) fn mark_words(&mut self, on: bool) {
        self.words = WordMarks(on.then(Marks::default));
    }

    /// Whether some global word is marked.
    pub(crate) fn has_word_marks(&self) -> bool {
        self.words.0.as_ref().is_some_and(|m| !m.rows.is_empty())
    }

    /// Whether the global word `word` is marked.
    pub(crate) fn word_marked(&self, word: u32) -> bool {
        self.words.0.as_ref().is_some_and(|m| {
            m.rows
                .get(&(word >> 5))
                .is_some_and(|&mask| mask >> (word & 31) & 1 != 0)
        })
    }

    /// Marks or unmarks the global word `word`, while marks are on.
    pub(crate) fn set_word_mark(&mut self, word: u32, on: bool) {
        if let Some(m) = &mut self.words.0 {
            let (row, bit) = (word >> 5, 1 << (word & 31));
            if on {
                *m.rows.entry(row).or_default() |= bit;
            } else if let Some(mask) = m.rows.get_mut(&row) {
                *mask &= !bit;
                if *mask == 0 {
                    m.rows.remove(&row);
                }
            }
        }
    }

    /// Notes line `line_addr` copied out of the L2 if it holds a marked
    /// word (see [`Marks`]).
    fn note_copy(&mut self, line_addr: u64) {
        let Some(m) = self.words.0.as_mut().filter(|m| !m.rows.is_empty()) else {
            return;
        };
        let words = u64::from(self.line_bytes / 4);
        let (lo, hi) = (line_addr * words, (line_addr + 1) * words);
        let marked = (lo >> 5..=(hi - 1) >> 5).any(|row| {
            // The row's words inside the line, as a mask.
            let (from, to) = (
                lo.max(row << 5) - (row << 5),
                hi.min((row + 1) << 5) - (row << 5),
            );
            let inside = (u64::MAX >> (64 - (to - from)) << from) as u32;
            m.rows
                .get(&(row as u32))
                .is_some_and(|&mask| mask & inside != 0)
        });
        if marked {
            m.copied.push(line_addr);
        }
    }

    /// Whether a line holding a marked word was copied out of the L2
    /// since [`MemSystem::take_copied_lines`] last took them.
    pub(crate) fn copied_lines_pending(&self) -> bool {
        self.words.0.as_ref().is_some_and(|m| !m.copied.is_empty())
    }

    /// The lines holding a marked word copied out of the L2 since the last
    /// call, in order, as line addresses.
    pub(crate) fn take_copied_lines(&mut self) -> Vec<u64> {
        self.words
            .0
            .as_mut()
            .map_or_else(Vec::new, |m| std::mem::take(&mut m.copied))
    }

    /// Whether this memory system logs line-validity changes: only on a
    /// checkpoint-recording golden pass, never in a snapshot, a fork or an
    /// injection run.
    pub fn logs_validity(&self) -> bool {
        self.validity.is_on()
    }

    // ------------------------------------------------------------------
    // Fault-injection surface
    // ------------------------------------------------------------------

    /// Injectable bits of one SM's L1 data cache, or `None` when the card
    /// has no L1D.
    pub fn l1d_bits(&self) -> Option<u64> {
        self.l1d
            .first()
            .and_then(|c| c.as_ref())
            .map(Cache::total_bits)
    }

    /// Injectable bits of the whole L2 (flat across banks: the first
    /// `lines_per_bank` lines belong to bank 0, and so on — §IV.B.5).
    pub fn l2_bits(&self) -> u64 {
        u64::from(self.num_banks) * self.l2[0].total_bits()
    }

    /// Cache `unit` of `structure`: SM `unit`'s L1, or L2 bank `unit` —
    /// `None` for a structure that is not a cache, or for the L1D of a
    /// card without one.
    fn cache(&self, structure: Structure, unit: usize) -> Option<&Cache> {
        match structure {
            Structure::L1Data => self.l1d[unit].as_ref(),
            Structure::L1Tex => Some(&self.l1t[unit]),
            Structure::L1Const => Some(&self.l1c[unit]),
            Structure::L2 => Some(&self.l2[unit]),
            _ => None,
        }
    }

    /// [`MemSystem::cache`], for writing.
    fn cache_mut(&mut self, structure: Structure, unit: usize) -> Option<&mut Cache> {
        match structure {
            Structure::L1Data => self.l1d[unit].as_mut(),
            Structure::L1Tex => Some(&mut self.l1t[unit]),
            Structure::L1Const => Some(&mut self.l1c[unit]),
            Structure::L2 => Some(&mut self.l2[unit]),
            _ => None,
        }
    }

    /// The bank and the in-bank bit of bit `bit` of the flat L2 space.
    fn l2_bit(&self, bit: u64) -> (usize, u64) {
        let per_bank = self.l2[0].total_bits();
        ((bit / per_bank) as usize, bit % per_bank)
    }

    /// Where the flips of cache fault `target` land, in the order they are
    /// made: replicate `r` of an L1 fault flips its bits in the L1 of SM
    /// `core_lot + r` (modulo the SM count); an L2 fault's bits index the
    /// flat space across banks.  Each bit is reduced modulo its space.
    /// `None` for a target outside the caches; empty for the L1D of a card
    /// without one.  The flip and the golden-run query both map bits here.
    pub(crate) fn cache_bits(&self, target: &FaultTarget) -> Option<Vec<CacheBit>> {
        let structure = target.structure();
        match target {
            FaultTarget::L1Data {
                core_lot,
                replicate,
                bits,
            }
            | FaultTarget::L1Tex {
                core_lot,
                replicate,
                bits,
            }
            | FaultTarget::L1Const {
                core_lot,
                replicate,
                bits,
            } => {
                let Some(space) = self.cache(structure, 0).map(Cache::total_bits) else {
                    return Some(Vec::new());
                };
                let sms = self.l1t.len() as u64;
                let sites = (0..u64::from((*replicate).max(1))).flat_map(|r| {
                    let unit = (core_lot.wrapping_add(r) % sms) as usize;
                    bits.iter().map(move |&b| CacheBit {
                        structure,
                        unit,
                        bit: b % space,
                    })
                });
                Some(sites.collect())
            }
            FaultTarget::L2 { bits } => {
                let space = self.l2_bits();
                let sites = bits.iter().map(|&b| {
                    let (unit, bit) = self.l2_bit(b % space);
                    CacheBit {
                        structure,
                        unit,
                        bit,
                    }
                });
                Some(sites.collect())
            }
            _ => None,
        }
    }

    /// Flips cache bit `c` (see [`MemSystem::cache_bits`]), returning where
    /// the flip landed.
    pub(crate) fn flip_cache_bit(&mut self, c: CacheBit) -> FlipOutcome {
        let cache = self.cache_mut(c.structure, c.unit);
        cache.expect("a resolved cache bit").flip_bit(c.bit)
    }

    /// Whether cache fault `fault`, in a run that is the golden run up to
    /// the fault's fire point, changes nothing: it fires, and every bit
    /// lands in a line `timeline` — this memory system's golden run — has
    /// invalid there.  `false` for a fault outside the caches.  Only this
    /// memory system's geometry is read.
    pub(crate) fn cache_fault_is_void(&self, fault: &PlannedFault, timeline: &Timeline) -> bool {
        timeline.fires(fault.cycle)
            && self.cache_bits(&fault.target).is_some_and(|sites| {
                sites.iter().all(|c| {
                    let cache = self
                        .cache(c.structure, c.unit)
                        .expect("a resolved cache bit");
                    let line = c.bit / cache.config().bits_per_line();
                    timeline.invalid_at(c.structure, c.unit, line as u32, fault.cycle)
                })
            })
    }

    /// The size of the local-memory backing segment in bits.
    pub(crate) fn local_bits(&self) -> u64 {
        self.local.len() as u64 * 8
    }

    /// Flips a bit in the local-memory backing segment.
    ///
    /// Returns `false` when the segment is smaller than the bit index
    /// (no local memory in use).
    pub fn flip_local_bit(&mut self, bit: u64) -> bool {
        let byte = (bit / 8) as usize;
        if byte >= self.local.len() {
            return false;
        }
        self.local[byte] ^= 1 << (bit % 8);
        // A repeated flip restores the golden bit, so taint is a toggle.
        if let Some(i) = self.local_taints.iter().position(|&b| b == bit) {
            self.local_taints.swap_remove(i);
        } else {
            self.local_taints.push(bit);
        }
        true
    }

    /// Aggregate L1D statistics across SMs (cards without L1D report zeros).
    pub fn l1d_stats(&self) -> CacheStats {
        self.l1d
            .iter()
            .flatten()
            .fold(CacheStats::default(), |a, c| {
                let s = c.stats();
                CacheStats {
                    hits: a.hits + s.hits,
                    misses: a.misses + s.misses,
                    writebacks: a.writebacks + s.writebacks,
                    fills: a.fills + s.fills,
                }
            })
    }

    /// Aggregate L1T statistics across SMs.
    pub fn l1t_stats(&self) -> CacheStats {
        self.l1t.iter().fold(CacheStats::default(), |a, c| {
            let s = c.stats();
            CacheStats {
                hits: a.hits + s.hits,
                misses: a.misses + s.misses,
                writebacks: a.writebacks + s.writebacks,
                fills: a.fills + s.fills,
            }
        })
    }

    /// Aggregate L2 statistics across banks.
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.iter().fold(CacheStats::default(), |a, c| {
            let s = c.stats();
            CacheStats {
                hits: a.hits + s.hits,
                misses: a.misses + s.misses,
                writebacks: a.writebacks + s.writebacks,
                fills: a.fills + s.fills,
            }
        })
    }
}

/// Splits `lanes` — `(lane, address)` pairs — into runs, in order: a
/// lane and every next lane whose address passes `ok` and lies on the
/// first lane's `line_bytes` line, as the line's address, the first lane
/// and the rest.  A lane failing `ok` is a run of its own (whose first
/// lane then traps).  One division per run.
pub(crate) fn runs(
    lanes: &[(usize, u32)],
    line_bytes: u32,
    ok: impl Fn(u32) -> bool,
) -> impl Iterator<Item = (u64, (usize, u32), &[(usize, u32)])> {
    let lb = u64::from(line_bytes);
    let mut rest = lanes;
    std::iter::from_fn(move || {
        let (&(lane, addr), tail) = rest.split_first()?;
        let la = u64::from(addr) / lb;
        let start = la * lb;
        let on_line = |&&(_, a): &&(usize, u32)| ok(a) && u64::from(a).wrapping_sub(start) < lb;
        let len = if ok(addr) {
            tail.iter().take_while(on_line).count()
        } else {
            0
        };
        let run;
        (run, rest) = tail.split_at(len);
        Some((la, (lane, addr), run))
    })
}

/// The lanes after a run's first, which left the run's line resident in
/// `cache` (as `line_addr`; its first byte at address `start`): one
/// [`Cache::read_run`], then each lane's word into `row[lane]`.
fn read_rest(
    cache: &mut Cache,
    line_addr: u64,
    start: u64,
    rest: &[(usize, u32)],
    row: &mut [u32],
) {
    let line = cache.read_run(line_addr, rest.len() as u64);
    let line = line.expect("the run's first lane left its line resident");
    for &(lane, addr) in rest {
        let at = (u64::from(addr) - start) as usize;
        row[lane] = u32::from_le_bytes(line[at..at + 4].try_into().expect("4 bytes"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;

    /// An L1D fault flipping `bit` in SM 0's L1D.
    fn l1d_bit(bit: u64) -> FaultTarget {
        FaultTarget::L1Data {
            core_lot: 0,
            replicate: 1,
            bits: vec![bit],
        }
    }

    /// Flips every bit of cache fault `target`, as a run applies it.
    fn flip(m: &mut MemSystem, target: &FaultTarget) -> Vec<FlipOutcome> {
        let sites = m.cache_bits(target).expect("a cache fault");
        sites.into_iter().map(|c| m.flip_cache_bit(c)).collect()
    }

    fn tiny_gpu() -> GpuConfig {
        let mut cfg = GpuConfig::rtx2060();
        cfg.num_sms = 2;
        cfg
    }

    #[test]
    fn alloc_is_line_aligned_and_zeroed() {
        let mut m = MemSystem::new(&tiny_gpu());
        let a = m.alloc(100).unwrap();
        let b = m.alloc(4).unwrap();
        assert_eq!(a, GLOBAL_BASE);
        assert_eq!(b % 128, 0);
        assert_eq!(b - a, 128);
        let mut buf = [1u8; 4];
        m.host_read(a, &mut buf).unwrap();
        assert_eq!(buf, [0; 4]);
    }

    #[test]
    fn host_roundtrip() {
        let mut m = MemSystem::new(&tiny_gpu());
        let a = m.alloc(16).unwrap();
        m.host_write(a, &[1, 2, 3, 4]).unwrap();
        let mut buf = [0u8; 4];
        m.host_read(a, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4]);
    }

    #[test]
    fn host_access_out_of_range_fails() {
        let mut m = MemSystem::new(&tiny_gpu());
        let a = m.alloc(4).unwrap();
        // allocation padded to 128; past padding is unmapped
        assert!(m.host_read(a + 128, &mut [0u8; 4]).is_err());
        assert!(m.host_write(0, &[0]).is_err());
    }

    #[test]
    fn load_store_roundtrip_through_caches() {
        let mut m = MemSystem::new(&tiny_gpu());
        let a = m.alloc(64).unwrap();
        m.store4(0, AccessKind::Global, a + 8, 0xdead_beef).unwrap();
        assert_eq!(m.load4(0, AccessKind::Global, a + 8).unwrap(), 0xdead_beef);
        // Visible to the host through the L2.
        let mut buf = [0u8; 4];
        m.host_read(a + 8, &mut buf).unwrap();
        assert_eq!(u32::from_le_bytes(buf), 0xdead_beef);
    }

    #[test]
    fn store_visible_to_other_sm_via_l2() {
        let mut m = MemSystem::new(&tiny_gpu());
        let a = m.alloc(64).unwrap();
        m.store4(0, AccessKind::Global, a, 42).unwrap();
        assert_eq!(m.load4(1, AccessKind::Global, a).unwrap(), 42);
    }

    #[test]
    fn misaligned_and_null_page_trap() {
        let mut m = MemSystem::new(&tiny_gpu());
        let a = m.alloc(8).unwrap();
        assert_eq!(
            m.load4(0, AccessKind::Global, a + 1),
            Err(Trap::Misaligned { addr: a + 1 })
        );
        // The null page still faults (corrupted near-zero pointers crash).
        assert!(matches!(
            m.load4(0, AccessKind::Global, 4),
            Err(Trap::InvalidAddress { .. })
        ));
    }

    /// Demand paging: accesses beyond the allocations read zeros and
    /// accept stores (visible while the line stays cached), like
    /// GPGPU-Sim's functional memory — wild pointers rarely crash.
    #[test]
    fn unbacked_addresses_are_demand_paged() {
        let mut m = MemSystem::new(&tiny_gpu());
        let _ = m.alloc(8).unwrap();
        let wild = 0x0100_0000;
        assert_eq!(m.load4(0, AccessKind::Global, wild).unwrap(), 0);
        m.store4(0, AccessKind::Global, wild, 99).unwrap();
        assert_eq!(m.load4(1, AccessKind::Global, wild).unwrap(), 99);
        // Far beyond the local backing too.
        assert_eq!(
            m.load4(0, AccessKind::Global, LOCAL_BASE + 4096).unwrap(),
            0
        );
    }

    #[test]
    fn local_memory_isolated_by_address() {
        let mut m = MemSystem::new(&tiny_gpu());
        m.reset_local(4, 16).unwrap();
        m.store4(0, AccessKind::Local, LOCAL_BASE, 7).unwrap();
        m.store4(0, AccessKind::Local, LOCAL_BASE + 16, 9).unwrap();
        assert_eq!(m.load4(0, AccessKind::Local, LOCAL_BASE).unwrap(), 7);
        assert_eq!(m.load4(0, AccessKind::Local, LOCAL_BASE + 16).unwrap(), 9);
    }

    #[test]
    fn texture_loads_are_read_only() {
        let mut m = MemSystem::new(&tiny_gpu());
        let a = m.alloc(16).unwrap();
        m.host_write(a, &5u32.to_le_bytes()).unwrap();
        assert_eq!(m.load4(0, AccessKind::Texture, a).unwrap(), 5);
        assert!(m.store4(0, AccessKind::Texture, a, 1).is_err());
    }

    #[test]
    fn l1_data_flip_corrupts_subsequent_read_hit() {
        let mut m = MemSystem::new(&tiny_gpu());
        let a = m.alloc(128).unwrap();
        m.host_write(a, &0u32.to_le_bytes()).unwrap();
        // Warm the L1.
        assert_eq!(m.load4(0, AccessKind::Global, a).unwrap(), 0);
        // Find the filled line's bit for data bit 0: line index is the way
        // chosen inside its set; scan all lines by flipping until a Data
        // outcome occurs on the valid line.
        let bpl = u64::from(128 * 8 + crate::config::TAG_BITS);
        let mut flipped = false;
        for line in 0..m.l1d_bits().unwrap() / bpl {
            let bit = line * bpl + u64::from(crate::config::TAG_BITS);
            if flip(&mut m, &l1d_bit(bit)) == [FlipOutcome::Data] {
                flipped = true;
                break;
            }
        }
        assert!(flipped);
        assert_eq!(m.load4(0, AccessKind::Global, a).unwrap(), 1);
        // The other SM's L1 is unaffected.
        assert_eq!(m.load4(1, AccessKind::Global, a).unwrap(), 0);
    }

    #[test]
    fn l2_flip_reaches_host_reads() {
        let mut m = MemSystem::new(&tiny_gpu());
        let a = m.alloc(128).unwrap();
        // Pull the line into L2 via a load on a card path without L1 usage:
        // use texture load on SM 0 (fills L2 and L1T).
        assert_eq!(m.load4(0, AccessKind::Texture, a).unwrap(), 0);
        let bpl = u64::from(128 * 8 + crate::config::TAG_BITS);
        let lines = m.l2_bits() / bpl;
        let mut hit = false;
        for line in 0..lines {
            let bit = line * bpl + u64::from(crate::config::TAG_BITS);
            if flip(&mut m, &FaultTarget::L2 { bits: vec![bit] }) == [FlipOutcome::Data] {
                hit = true;
                break;
            }
        }
        assert!(hit);
        // The image the oracle diffs reads without observing...
        assert_eq!(m.global_image()[..4], [1, 0, 0, 0]);
        assert!(!m.taint_escaped());
        // ...a host copy observes the flipped line.
        let mut buf = [0u8; 4];
        m.host_read(a, &mut buf).unwrap();
        assert_eq!(u32::from_le_bytes(buf), 1, "corruption visible through L2");
        assert!(m.taint_escaped());
    }

    #[test]
    fn timing_hit_faster_than_miss() {
        let mut m = MemSystem::new(&tiny_gpu());
        let a = m.alloc(256).unwrap();
        let la = u64::from(a) / 128;
        let miss = m.line_latency(0, AccessKind::Global, la, false, 0);
        m.load4(0, AccessKind::Global, a).unwrap();
        let hit = m.line_latency(0, AccessKind::Global, la, false, 0);
        assert!(hit < miss, "hit {hit} should beat miss {miss}");
    }

    #[test]
    fn bank_contention_serializes() {
        let mut m = MemSystem::new(&tiny_gpu());
        let a = m.alloc(4096).unwrap();
        let la = u64::from(a) / 128;
        let first = m.line_latency(0, AccessKind::Global, la, false, 0);
        // Same bank (same line): second request queues behind the first.
        let second = m.line_latency(1, AccessKind::Global, la, false, 0);
        assert!(second >= first);
    }

    #[test]
    fn flush_l1s_preserves_local_data() {
        let mut m = MemSystem::new(&tiny_gpu());
        m.reset_local(1, 128).unwrap();
        m.store4(0, AccessKind::Local, LOCAL_BASE, 0x55).unwrap();
        m.flush_l1s();
        // After the flush the dirty line lives in L2; a fresh load sees it.
        assert_eq!(m.load4(0, AccessKind::Local, LOCAL_BASE).unwrap(), 0x55);
    }

    #[test]
    fn the_validity_timeline_orders_changes_against_loop_tops() {
        let cfg = tiny_gpu();
        let mut m = MemSystem::new(&cfg);
        let a = m.alloc(128).unwrap();
        m.start_validity_log();
        assert!(m.logs_validity());
        assert!(!m.clone().logs_validity(), "a snapshot holds no log");
        // The iteration of top 10 fills the line into way 0 of its set,
        // that of top 20 drops it (evict-on-write) and fills it again into
        // way 1, the least recently used, and the flush after the launch
        // ending at top 30 drops it; one more launch follows.
        m.validity_top(10);
        m.load4(0, AccessKind::Global, a).unwrap();
        m.validity_top(20);
        m.store4(0, AccessKind::Global, a, 1).unwrap();
        m.load4(0, AccessKind::Global, a).unwrap();
        m.validity_top(30);
        m.flush_l1s();
        m.validity_top(40);
        let timeline = m.take_validity_timeline();
        assert!(!m.logs_validity());
        // Data bit 0 of way `way` of the line's set in SM `sm`'s L1D,
        // flipped at `cycle`.
        let l1d = cfg.l1d.unwrap();
        let set = (u64::from(a) / 128) % u64::from(l1d.sets);
        let void = |sm: u64, way: u64, cycle| {
            let line = set * u64::from(l1d.ways) + way;
            let bit = line * l1d.bits_per_line() + u64::from(crate::config::TAG_BITS);
            let target = FaultTarget::L1Data {
                core_lot: sm,
                replicate: 1,
                bits: vec![bit],
            };
            m.cache_fault_is_void(&PlannedFault { cycle, target }, &timeline)
        };
        // A fault planned past the last top, 40, never fires.
        let valid = |way| (0..=42).filter(|&c| !void(0, way, c)).collect::<Vec<_>>();
        assert_eq!(valid(0), [(11..=20).collect(), vec![41, 42]].concat());
        assert_eq!(valid(1), [(21..=30).collect(), vec![41, 42]].concat());
        assert!((0..=40).all(|c| void(1, 0, c)), "SM 1 never held the line");
    }

    /// A warp access for the lane-call equivalence tests.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Load(AccessKind),
        Store(AccessKind),
        Const,
    }

    /// The access `op` through the lane calls, or lane by lane through
    /// `load4` / `store4` / `load4_const`.
    fn access(
        m: &mut MemSystem,
        op: Op,
        lanes: &[(usize, u32)],
        row: &mut [u32; 32],
        by_lane: bool,
    ) -> Result<(), Trap> {
        if !by_lane {
            return match op {
                Op::Load(kind) => m.load_lanes(0, kind, lanes, row),
                Op::Store(kind) => m.store_lanes(0, kind, lanes, row),
                Op::Const => m.load_lanes_const(0, lanes, row),
            };
        }
        for &(lane, a) in lanes {
            match op {
                Op::Load(kind) => row[lane] = m.load4(0, kind, a)?,
                Op::Store(kind) => m.store4(0, kind, a, row[lane])?,
                Op::Const => row[lane] = m.load4_const(0, a)?,
            }
        }
        Ok(())
    }

    fn digest(m: &MemSystem) -> u64 {
        let mut h = crate::snapshot::StateHasher::new();
        m.digest_into(&mut h);
        h.finish()
    }

    /// Runs `op` over `lanes` on two clones of `m`, through the lane calls
    /// on one and lane by lane on the other, each logging validity: the
    /// results, register rows, state digests (LRU stamps, ticks, stats,
    /// taints, escape latches) and validity timelines must agree.
    fn assert_lane_calls_agree(m: &MemSystem, op: Op, lanes: &[(usize, u32)], what: &str) {
        let run = |by_lane| {
            let mut m = m.clone();
            m.start_validity_log();
            let mut row = std::array::from_fn(|l| 0x5eed_0000 + l as u32);
            let res = access(&mut m, op, lanes, &mut row, by_lane);
            (res, row, digest(&m), m.take_validity_timeline())
        };
        let (res, row, dig, timeline) = run(false);
        let (res2, row2, dig2, timeline2) = run(true);
        assert_eq!(res, res2, "{what}: result");
        assert_eq!(row, row2, "{what}: register row");
        assert_eq!(dig, dig2, "{what}: state digest");
        assert_eq!(timeline, timeline2, "{what}: validity timeline");
    }

    /// The cache in which `op` reads or writes the line of `addr`: its
    /// structure and unit, and the line's address there.
    fn cache_of(m: &MemSystem, op: Op, addr: u32) -> (Structure, usize, u64) {
        let lb = match op {
            Op::Const => m.const_line_bytes(),
            _ => m.line_bytes(),
        };
        let la = u64::from(addr / lb);
        let has_l1d = m.l1d[0].is_some();
        match op {
            Op::Const => (Structure::L1Const, 0, la),
            Op::Load(AccessKind::Texture) => (Structure::L1Tex, 0, la),
            Op::Load(_) | Op::Store(AccessKind::Local) if has_l1d => (Structure::L1Data, 0, la),
            _ => {
                let (bank, local_la) = m.bank_of(la);
                (Structure::L2, bank, local_la)
            }
        }
    }

    /// Flips data bit 0 of the line of `addr` in the cache `op` goes
    /// through, which must be the only valid line of its set.
    fn taint_line(m: &mut MemSystem, op: Op, addr: u32) {
        let (structure, unit, la) = cache_of(m, op, addr);
        let cache = m.cache(structure, unit).expect("a cache");
        let cfg = *cache.config();
        let unit_bits = cache.total_bits();
        let set = la % u64::from(cfg.sets);
        let landed = (0..u64::from(cfg.ways)).any(|way| {
            let bit = (set * u64::from(cfg.ways) + way) * cfg.bits_per_line()
                + u64::from(crate::config::TAG_BITS);
            let bits = vec![bit];
            let target = match structure {
                Structure::L2 => FaultTarget::L2 {
                    bits: vec![unit as u64 * unit_bits + bit],
                },
                Structure::L1Data => FaultTarget::L1Data {
                    core_lot: 0,
                    replicate: 1,
                    bits,
                },
                Structure::L1Tex => FaultTarget::L1Tex {
                    core_lot: 0,
                    replicate: 1,
                    bits,
                },
                _ => FaultTarget::L1Const {
                    core_lot: 0,
                    replicate: 1,
                    bits,
                },
            };
            flip(m, &target) == [FlipOutcome::Data]
        });
        assert!(landed, "the line of {addr:#x} is resident");
        assert_eq!(m.taint_count(), 1);
    }

    /// Lane patterns over the lines from `a` on (`lb`-byte lines).
    fn lane_patterns(a: u32, lb: u32) -> Vec<(&'static str, Vec<(usize, u32)>)> {
        let all = |f: &dyn Fn(u32) -> u32| (0..32).map(|l| (l as usize, f(l))).collect::<Vec<_>>();
        vec![
            ("one line", all(&|l| a + 4 * l % lb)),
            (
                "two lines split mid-warp",
                all(&|l| a + lb * (l / 16) + 4 * l % lb),
            ),
            (
                "lines A, B, A",
                all(&|l| a + if (10..20).contains(&l) { lb } else { 0 } + 4 * l % lb),
            ),
            ("duplicate addresses", all(&|l| a + 4 * (l % 3) % lb)),
            (
                "sparse mask",
                [0, 3, 7, 8, 30]
                    .map(|l| (l, a + 4 * l as u32 % lb))
                    .to_vec(),
            ),
            ("a lane per line", all(&|l| a + lb * l)),
            (
                "misaligned lane in a run",
                all(&|l| a + 4 * l % lb + u32::from(l == 13)),
            ),
            (
                "null-page lane in a run",
                all(&|l| if l == 13 { 8 } else { a + 4 * l % lb }),
            ),
        ]
    }

    /// `cfg` cut to two SMs and 32 sets per cache (per L2 bank), keeping
    /// its line sizes: small enough to digest after every access.
    fn small(mut cfg: GpuConfig) -> GpuConfig {
        let cut = |c: crate::config::CacheConfig, sets| crate::config::CacheConfig { sets, ..c };
        cfg.num_sms = 2;
        cfg.l1d = cfg.l1d.map(|c| cut(c, 32));
        (cfg.l1t, cfg.l1c) = (cut(cfg.l1t, 32), cut(cfg.l1c, 32));
        cfg.l2 = cut(cfg.l2, 32 * cfg.num_l2_banks);
        cfg
    }

    /// [`small`] with 4-byte lines everywhere, so that every 4-byte write
    /// overwrites its whole line.
    fn word_lines(cfg: GpuConfig) -> GpuConfig {
        let mut cfg = small(cfg);
        let word =
            |c: crate::config::CacheConfig| crate::config::CacheConfig { line_bytes: 4, ..c };
        cfg.l1d = cfg.l1d.map(word);
        (cfg.l1t, cfg.l1c, cfg.l2) = (word(cfg.l1t), word(cfg.l1c), word(cfg.l2));
        cfg
    }

    /// The lane calls leave the state lane-by-lane `load4` / `store4` /
    /// `load4_const` leave, on cards with and without an L1D and with
    /// 4-byte lines, for global, local, texture and constant accesses,
    /// over every lane pattern, with the accessed line clean, resident or
    /// tainted.
    #[test]
    fn lane_calls_equal_lane_by_lane_accesses() {
        let ops = [
            Op::Load(AccessKind::Global),
            Op::Store(AccessKind::Global),
            Op::Load(AccessKind::Local),
            Op::Store(AccessKind::Local),
            Op::Load(AccessKind::Texture),
            Op::Store(AccessKind::Texture),
            Op::Const,
        ];
        let cards = [GpuConfig::rtx2060(), GpuConfig::gtx_titan()];
        for cfg in cards
            .iter()
            .cloned()
            .map(small)
            .chain([word_lines(GpuConfig::rtx2060())])
        {
            let mut m = MemSystem::new(&cfg);
            let g = m.alloc(64 * 1024).unwrap();
            let bytes: Vec<u8> = (0..64 * 1024u32).map(|i| (i * 7 + i / 256) as u8).collect();
            m.host_write(g, &bytes).unwrap();
            m.const_write(0, &bytes[..4096]).unwrap();
            m.reset_local(64, 256).unwrap();
            for op in ops {
                let (base, lb) = match op {
                    Op::Const => (256, m.const_line_bytes()),
                    Op::Load(AccessKind::Local) | Op::Store(AccessKind::Local) => {
                        (LOCAL_BASE + 1024, m.line_bytes())
                    }
                    _ => (g + 1024, m.line_bytes()),
                };
                for (pattern, lanes) in lane_patterns(base, lb) {
                    for state in ["cold", "resident", "tainted"] {
                        let mut m = m.clone();
                        if state != "cold" {
                            // Bring the first line in through the path the
                            // access takes (a global store's L1D line too).
                            let warm = match op {
                                Op::Store(AccessKind::Global) if state == "resident" => {
                                    Op::Load(AccessKind::Global)
                                }
                                Op::Store(AccessKind::Texture) => Op::Load(AccessKind::Texture),
                                Op::Store(kind) => Op::Store(kind),
                                op => op,
                            };
                            access(&mut m, warm, &[(0, base)], &mut [0; 32], true).unwrap();
                        }
                        if state == "tainted" {
                            taint_line(&mut m, op, base);
                        }
                        let what = format!("{} {op:?} {pattern} {state}", cfg.name);
                        assert_lane_calls_agree(&m, op, &lanes, &what);
                    }
                }
            }
        }
    }

    /// A tag flip can leave two L1D copies of one line; each lane of a
    /// global store evicts one, as lane-by-lane stores do.
    #[test]
    fn a_global_store_run_evicts_every_aliased_copy() {
        let cfg = small(GpuConfig::rtx2060());
        let l1d = cfg.l1d.unwrap();
        let mut m = MemSystem::new(&cfg);
        let g = m.alloc(64 * 1024).unwrap();
        // Two lines of one set, tags `t` and `t ^ 2`, in ways 0 and 1;
        // flipping tag bit 1 of way 1 makes both answer the first.
        let la = u64::from(g / 128);
        let (set, tag) = (la % u64::from(l1d.sets), la / u64::from(l1d.sets));
        let alias = ((tag ^ 2) * u64::from(l1d.sets) + set) as u32 * 128;
        for a in [g, alias] {
            m.load4(0, AccessKind::Global, a).unwrap();
        }
        let way1 = (set * u64::from(l1d.ways) + 1) * l1d.bits_per_line();
        assert_eq!(flip(&mut m, &l1d_bit(way1 + 1)), [FlipOutcome::Tag]);
        let lanes: Vec<_> = (0..4).map(|l| (l, g + 4 * l as u32)).collect();
        let op = Op::Store(AccessKind::Global);
        assert_lane_calls_agree(&m, op, &lanes, "aliased L1D line");
        m.store_lanes(0, AccessKind::Global, &lanes, &[1; 32])
            .unwrap();
        assert!(!m.l1d[0].as_ref().unwrap().probe(la), "both copies evicted");
    }

    /// A store run that writes part of a tainted line keeps its taint, and
    /// a load run over a tainted line latches the escape.
    #[test]
    fn runs_over_a_tainted_line_keep_or_escape_its_taint() {
        let mut m = MemSystem::new(&tiny_gpu());
        m.reset_local(64, 256).unwrap();
        let lanes: Vec<_> = (0..8).map(|l| (l, LOCAL_BASE + 4 * l as u32)).collect();
        let op = Op::Store(AccessKind::Local);
        access(&mut m, op, &lanes[..1], &mut [0; 32], true).unwrap();
        taint_line(&mut m, op, LOCAL_BASE);
        let mut stored = m.clone();
        stored
            .store_lanes(0, AccessKind::Local, &lanes, &[7; 32])
            .unwrap();
        assert_eq!(stored.taint_count(), 1, "half the line is written");
        assert!(!stored.taint_escaped());
        m.load_lanes(0, AccessKind::Local, &lanes, &mut [0; 32])
            .unwrap();
        assert!(m.taint_escaped());
    }

    #[test]
    fn titan_has_no_l1d() {
        let m = MemSystem::new(&GpuConfig::gtx_titan());
        assert!(m.l1d_bits().is_none());
        let mut m = m;
        assert!(flip(&mut m, &l1d_bit(0)).is_empty());
    }

    #[test]
    fn local_flip() {
        let mut m = MemSystem::new(&tiny_gpu());
        m.reset_local(1, 16).unwrap();
        assert!(m.flip_local_bit(3));
        assert!(!m.taint_escaped());
        // The fill from the local backing reads the flipped bit.
        assert_eq!(m.load4(0, AccessKind::Local, LOCAL_BASE).unwrap(), 8);
        assert!(m.taint_escaped());
        assert!(!m.flip_local_bit(1 << 40));
    }
}
