//! Set-associative cache with real tag and data arrays.
//!
//! Unlike GPGPU-Sim — whose caches hold only tags, forcing gpuFI-4 to attach
//! deferred injection "hooks" resolved at access time — this cache stores its
//! data array directly.  A flipped data bit is therefore immediately visible
//! to the next read hit, vanishes when the line is replaced, and propagates
//! to the next level when a dirty victim is written back: exactly the
//! observable semantics the paper's hooks implement (§IV.B.4).
//!
//! Each line additionally models [`TAG_BITS`] of tag storage (§IV.C.2); tag
//! bits are part of the injectable bit space and a flipped tag makes the
//! line unreachable under its old address and aliased under a new one.
//!
//! The data array is one contiguous buffer (line `i` owns bytes
//! `i*line_bytes .. (i+1)*line_bytes`) rather than a `Vec<u8>` per line:
//! constructing a GPU allocates tens of thousands of lines across the L1s
//! and the L2, and campaign throughput is dominated by per-run setup and
//! the per-launch flush walk, both of which want a single flat allocation.

use crate::config::{CacheConfig, TAG_BITS};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};

/// A set-through-`&self` boolean latch for "tainted state was observed"
/// events.
///
/// Host-coherence reads are `&self`, so the latch needs interior
/// mutability; checkpoint snapshots are shared read-only across campaign
/// worker threads, so it must also be `Sync` — which rules out `Cell`.
/// A relaxed `AtomicBool` gives both (each `Gpu` is only ever driven by
/// one thread, so no ordering is required).
#[derive(Debug, Default)]
pub(crate) struct EscapeLatch(AtomicBool);

impl EscapeLatch {
    pub(crate) fn new(v: bool) -> Self {
        EscapeLatch(AtomicBool::new(v))
    }

    pub(crate) fn get(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }

    pub(crate) fn set(&self, v: bool) {
        self.0.store(v, Ordering::Relaxed);
    }
}

impl Clone for EscapeLatch {
    fn clone(&self) -> Self {
        EscapeLatch::new(self.get())
    }
}

/// Per-line heap accounting constant for [`Cache::resident_bytes`].
///
/// This is the measured size of the original line struct (three flag
/// bytes + tag + LRU stamp + a per-line `Vec<u8>` header), pinned so the
/// checkpoint-store budget — and therefore the recorder's capture stride
/// visible in campaign CSVs — is independent of the flattened layout.
const LINE_ACCT_BYTES: usize = 48;

/// One cache line's metadata: valid/dirty state, tag and LRU stamp.  The
/// data bytes live in the cache-wide flat buffer.
///
/// `tainted` marks a line whose data bits were changed by an injected
/// fault but not yet observed — the fault-lifetime tracker uses it to
/// decide when an armed fault can no longer influence execution.
#[derive(Debug, Clone, Copy)]
struct Line {
    valid: bool,
    dirty: bool,
    tainted: bool,
    tag: u64,
    lru: u64,
}

/// Hit/miss counters, per cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookup operations that hit.
    pub hits: u64,
    /// Lookup operations that missed.
    pub misses: u64,
    /// Dirty lines evicted (written back).
    pub writebacks: u64,
    /// Lines filled.
    pub fills: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit ratio in `[0, 1]`; zero when there were no accesses.
    pub fn hit_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }

    /// Counter-wise difference `self - earlier` (for per-launch deltas).
    ///
    /// # Panics
    ///
    /// Panics if `earlier` has larger counters (not a prior snapshot).
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            writebacks: self.writebacks - earlier.writebacks,
            fills: self.fills - earlier.fills,
        }
    }
}

/// A dirty victim produced by a fill or invalidation; the caller must write
/// it to the next memory level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Writeback {
    /// The line address (byte address / line size) the victim maps to
    /// according to its — possibly fault-corrupted — tag.
    pub line_addr: u64,
    /// The line's data bytes.
    pub data: Vec<u8>,
}

/// Where an injected bit flip landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlipOutcome {
    /// The targeted line was invalid; the flip has no architectural effect.
    InvalidLine,
    /// A tag bit was flipped on a valid line.
    Tag,
    /// A data bit was flipped on a valid line.
    Data,
}

/// A set-associative, write-back-capable cache with LRU replacement.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    lines: Vec<Line>,
    /// Flat data array; line `i` owns `i*line_bytes .. (i+1)*line_bytes`.
    data: Vec<u8>,
    tick: u64,
    stats: CacheStats,
    taints: u32,
    /// Count of `valid` lines, maintained by `fill`/`invalidate`/`flush`.
    /// Derived state (recomputable from `lines`), so it is deliberately
    /// excluded from the canonical digest — it exists so the per-launch
    /// flush of an untouched cache is O(1) instead of a full line walk.
    valid_cnt: u32,
    // Latched when fault-flipped state becomes observable: a read (or host
    // peek) hits a tainted line, a tainted dirty victim is written back to
    // the next level, or a tag flip lands on a valid line (tag flips change
    // hit/miss timing immediately).  A latch because the host-coherence
    // read path is `&self`.
    escaped: EscapeLatch,
}

impl Cache {
    /// Creates an empty (all-invalid) cache with the given geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        let num = cfg.num_lines() as usize;
        let lines = vec![
            Line {
                valid: false,
                dirty: false,
                tainted: false,
                tag: 0,
                lru: 0,
            };
            num
        ];
        Cache {
            data: vec![0; num * cfg.line_bytes as usize],
            cfg,
            lines,
            tick: 0,
            stats: CacheStats::default(),
            taints: 0,
            valid_cnt: 0,
            escaped: EscapeLatch::new(false),
        }
    }

    /// Lines currently holding unobserved fault-flipped data.
    pub fn taint_count(&self) -> u32 {
        self.taints
    }

    /// Approximate heap footprint of the tag and data arrays, for
    /// checkpoint-store budgeting.  Uses the pinned `LINE_ACCT_BYTES`
    /// per-line metadata cost so the budget does not shift with the
    /// internal storage layout.
    pub fn resident_bytes(&self) -> usize {
        self.lines.len() * (LINE_ACCT_BYTES + self.cfg.line_bytes as usize)
    }

    /// Whether fault-flipped state has become observable (see the field
    /// docs); once set, the fault-lifetime tracker must run the simulation
    /// to completion.
    pub fn taint_escaped(&self) -> bool {
        self.escaped.get()
    }

    /// Hashes the cache's complete state (lines, LRU stamps, statistics,
    /// taint bookkeeping) into a canonical state digest.  The derived
    /// `valid_cnt` counter is excluded.
    pub(crate) fn digest_into(&self, h: &mut crate::snapshot::StateHasher) {
        h.u64(self.lines.len() as u64);
        let lb = self.cfg.line_bytes as usize;
        for (i, l) in self.lines.iter().enumerate() {
            h.bool(l.valid);
            h.bool(l.dirty);
            h.bool(l.tainted);
            h.u64(l.tag);
            h.u64(l.lru);
            h.bytes(&self.data[i * lb..(i + 1) * lb]);
        }
        h.u64(self.tick);
        h.u64(self.stats.hits);
        h.u64(self.stats.misses);
        h.u64(self.stats.writebacks);
        h.u64(self.stats.fills);
        h.u32(self.taints);
        h.bool(self.escaped.get());
    }

    fn clear_taint(&mut self, i: usize) {
        if self.lines[i].tainted {
            self.lines[i].tainted = false;
            self.taints -= 1;
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated hit/miss statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets the statistics counters (contents are untouched).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    fn set_of(&self, line_addr: u64) -> u32 {
        (line_addr % u64::from(self.cfg.sets)) as u32
    }

    fn tag_of(&self, line_addr: u64) -> u64 {
        line_addr / u64::from(self.cfg.sets)
    }

    fn line_addr_of(&self, set: u32, tag: u64) -> u64 {
        tag * u64::from(self.cfg.sets) + u64::from(set)
    }

    fn set_range(&self, set: u32) -> std::ops::Range<usize> {
        let base = (set * self.cfg.ways) as usize;
        base..base + self.cfg.ways as usize
    }

    /// Byte range of line `i` within the flat data buffer.
    fn data_range(&self, i: usize) -> std::ops::Range<usize> {
        let lb = self.cfg.line_bytes as usize;
        i * lb..(i + 1) * lb
    }

    fn find(&self, line_addr: u64) -> Option<usize> {
        let set = self.set_of(line_addr);
        let tag = self.tag_of(line_addr);
        self.set_range(set)
            .find(|&i| self.lines[i].valid && self.lines[i].tag == tag)
    }

    /// Whether `line_addr` is currently resident, without touching LRU or
    /// statistics.  Used by the timing model to price an access before the
    /// functional operations run.
    pub fn probe(&self, line_addr: u64) -> bool {
        self.find(line_addr).is_some()
    }

    /// Reads `out.len()` bytes at `offset` within the line, if resident.
    ///
    /// Returns `true` on a hit (LRU and statistics updated).
    ///
    /// # Panics
    ///
    /// Panics if `offset + out.len()` exceeds the line size.
    pub fn read(&mut self, line_addr: u64, offset: u32, out: &mut [u8]) -> bool {
        match self.find(line_addr) {
            Some(i) => {
                self.tick += 1;
                self.lines[i].lru = self.tick;
                if self.lines[i].tainted {
                    self.escaped.set(true);
                }
                let base = self.data_range(i).start + offset as usize;
                out.copy_from_slice(&self.data[base..base + out.len()]);
                self.stats.hits += 1;
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// Writes `bytes` at `offset` within the line, if resident, marking the
    /// line dirty when `dirty` is requested.
    ///
    /// Returns `true` on a hit.
    pub fn write(&mut self, line_addr: u64, offset: u32, bytes: &[u8], dirty: bool) -> bool {
        match self.find(line_addr) {
            Some(i) => {
                self.tick += 1;
                self.lines[i].lru = self.tick;
                let base = self.data_range(i).start + offset as usize;
                self.data[base..base + bytes.len()].copy_from_slice(bytes);
                self.lines[i].dirty |= dirty;
                // A full-line overwrite provably erases any flipped bits; a
                // partial write keeps the taint (the flip may sit outside
                // the written range).
                if offset == 0 && bytes.len() == self.cfg.line_bytes as usize {
                    self.clear_taint(i);
                }
                self.stats.hits += 1;
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// Reads one byte at `offset` within a resident line without touching
    /// LRU state or statistics (host-coherence path).
    pub fn peek(&self, line_addr: u64, offset: u32) -> Option<u8> {
        self.find(line_addr).map(|i| {
            if self.lines[i].tainted {
                self.escaped.set(true);
            }
            self.data[self.data_range(i).start + offset as usize]
        })
    }

    /// Overwrites one byte of a resident line without touching LRU state,
    /// statistics or the dirty flag (host-coherence path).
    ///
    /// Returns `true` when the line was resident.
    pub fn poke(&mut self, line_addr: u64, offset: u32, byte: u8) -> bool {
        match self.find(line_addr) {
            Some(i) => {
                let base = self.data_range(i).start;
                self.data[base + offset as usize] = byte;
                true
            }
            None => false,
        }
    }

    /// Installs `data` as the line for `line_addr`, evicting the set's LRU
    /// victim if necessary.
    ///
    /// Returns the dirty victim (to be written back by the caller), if any.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one line long.
    pub fn fill(&mut self, line_addr: u64, data: &[u8], dirty: bool) -> Option<Writeback> {
        assert_eq!(
            data.len(),
            self.cfg.line_bytes as usize,
            "fill size mismatch"
        );
        let set = self.set_of(line_addr);
        let tag = self.tag_of(line_addr);
        // Refill of a resident line overwrites it in place (never create a
        // duplicate way for the same address, and never write the stale
        // copy back).  Otherwise prefer an invalid way, then evict LRU.
        let resident = self.find(line_addr);
        let victim = resident.unwrap_or_else(|| {
            self.set_range(set)
                .min_by_key(|&i| (self.lines[i].valid, self.lines[i].lru))
                .expect("sets are non-empty")
        });
        let evicted = if resident.is_some() {
            None
        } else {
            let line = self.lines[victim];
            if line.valid && line.dirty {
                // Writing a tainted victim back carries flipped bits into
                // the next memory level — they become observable there.
                if line.tainted {
                    self.escaped.set(true);
                }
                self.stats.writebacks += 1;
                Some(Writeback {
                    line_addr: self.line_addr_of(set, line.tag),
                    data: self.data[self.data_range(victim)].to_vec(),
                })
            } else {
                None
            }
        };
        // The victim's bytes are replaced wholesale; a clean tainted victim
        // is silently dropped, which matches the golden run's state.
        self.clear_taint(victim);
        self.tick += 1;
        if !self.lines[victim].valid {
            self.valid_cnt += 1;
        }
        let range = self.data_range(victim);
        let line = &mut self.lines[victim];
        line.valid = true;
        line.dirty = dirty;
        line.tag = tag;
        line.lru = self.tick;
        self.data[range].copy_from_slice(data);
        self.stats.fills += 1;
        evicted
    }

    /// Drops the line for `line_addr` if resident (no writeback — used for
    /// the L1 evict-on-write policy on global stores, where the line is
    /// never dirty).
    pub fn invalidate(&mut self, line_addr: u64) {
        if let Some(i) = self.find(line_addr) {
            self.lines[i].valid = false;
            self.lines[i].dirty = false;
            self.valid_cnt -= 1;
            self.clear_taint(i);
        }
    }

    /// Invalidates every line, returning dirty victims for writeback.
    /// Models the L1 flush at kernel boundaries.
    ///
    /// An untouched cache (no valid lines) returns immediately without
    /// walking the line array — campaigns flush every SM's L1s after every
    /// launch, and most caches are cold on most launches.
    pub fn flush(&mut self) -> Vec<Writeback> {
        let mut out = Vec::new();
        if self.valid_cnt == 0 {
            return out;
        }
        let sets = u64::from(self.cfg.sets);
        let ways = self.cfg.ways as usize;
        let mut remaining = self.valid_cnt;
        for i in 0..self.lines.len() {
            if remaining == 0 {
                break;
            }
            // Invalid lines are already clean and untainted (`invalidate`
            // and `flush` clear both; taint implies valid) — skip them.
            if !self.lines[i].valid {
                continue;
            }
            remaining -= 1;
            let set = (i / ways) as u64;
            let range = self.data_range(i);
            let line = &mut self.lines[i];
            if line.dirty {
                if line.tainted {
                    self.escaped.set(true);
                }
                out.push(Writeback {
                    line_addr: line.tag * sets + set,
                    data: self.data[range].to_vec(),
                });
                self.stats.writebacks += 1;
            }
            let line = &mut self.lines[i];
            line.valid = false;
            line.dirty = false;
            if line.tainted {
                line.tainted = false;
                self.taints -= 1;
            }
        }
        self.valid_cnt = 0;
        out
    }

    /// Number of currently valid lines.
    pub fn valid_lines(&self) -> u32 {
        self.valid_cnt
    }

    /// Total injectable bits: every line contributes its data bits plus
    /// [`TAG_BITS`] modelled tag bits.
    pub fn total_bits(&self) -> u64 {
        self.cfg.total_bits()
    }

    /// Flips one bit of the injectable bit space.
    ///
    /// The space is laid out line-major: bit `b` belongs to line
    /// `b / bits_per_line`; within a line the first [`TAG_BITS`] bits are
    /// the tag and the rest the data bytes (LSB-first within each byte).
    ///
    /// # Panics
    ///
    /// Panics if `bit` is outside the injectable space.
    pub fn flip_bit(&mut self, bit: u64) -> FlipOutcome {
        let bpl = self.cfg.bits_per_line();
        assert!(bit < self.total_bits(), "bit {bit} out of cache space");
        let line_idx = (bit / bpl) as usize;
        let within = bit % bpl;
        if !self.lines[line_idx].valid {
            return FlipOutcome::InvalidLine;
        }
        if within < u64::from(TAG_BITS) {
            self.lines[line_idx].tag ^= 1 << within;
            // A corrupted tag changes hit/miss behaviour (and thus timing)
            // from the very next lookup — it is immediately observable.
            self.escaped.set(true);
            FlipOutcome::Tag
        } else {
            let data_bit = within - u64::from(TAG_BITS);
            let byte = self.data_range(line_idx).start + (data_bit / 8) as usize;
            self.data[byte] ^= 1 << (data_bit % 8);
            if !self.lines[line_idx].tainted {
                self.lines[line_idx].tainted = true;
                self.taints += 1;
            }
            FlipOutcome::Data
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 2 sets × 2 ways × 8-byte lines.
        Cache::new(CacheConfig {
            sets: 2,
            ways: 2,
            line_bytes: 8,
        })
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small();
        let mut buf = [0u8; 4];
        assert!(!c.read(5, 0, &mut buf));
        assert!(c.fill(5, &[1, 2, 3, 4, 5, 6, 7, 8], false).is_none());
        assert!(c.read(5, 2, &mut buf));
        assert_eq!(buf, [3, 4, 5, 6]);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_prefers_invalid_then_oldest() {
        let mut c = small();
        // Line addresses 0, 2, 4 all map to set 0 (even line addrs).
        c.fill(0, &[0; 8], false);
        c.fill(2, &[0; 8], false);
        let mut buf = [0u8; 1];
        c.read(0, 0, &mut buf); // touch 0 so 2 is LRU
        c.fill(4, &[0; 8], false); // evicts 2
        assert!(c.probe(0));
        assert!(!c.probe(2));
        assert!(c.probe(4));
    }

    #[test]
    fn dirty_eviction_produces_writeback() {
        let mut c = small();
        c.fill(0, &[9; 8], true);
        c.fill(2, &[0; 8], false);
        let wb = c.fill(4, &[0; 8], false).expect("dirty victim");
        assert_eq!(wb.line_addr, 0);
        assert_eq!(wb.data, vec![9; 8]);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small();
        c.fill(1, &[0; 8], false);
        assert!(c.write(1, 4, &[7, 7], true));
        let mut buf = [0u8; 2];
        c.read(1, 4, &mut buf);
        assert_eq!(buf, [7, 7]);
        // Evict it: set 1 holds odd line addrs 1, 3, 5.
        c.fill(3, &[0; 8], false);
        let wb = c.fill(5, &[0; 8], false).expect("dirty after write");
        assert_eq!(wb.line_addr, 1);
    }

    #[test]
    fn invalidate_drops_without_writeback() {
        let mut c = small();
        c.fill(0, &[1; 8], true);
        c.invalidate(0);
        assert!(!c.probe(0));
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn flip_data_bit_corrupts_read() {
        let mut c = small();
        c.fill(0, &[0; 8], false);
        // Line 0 occupies ways 0..2 of set 0; the fill above used way 0 =
        // flat line index 0.  Flip the first data bit (after the tag).
        let out = c.flip_bit(u64::from(TAG_BITS));
        assert_eq!(out, FlipOutcome::Data);
        let mut buf = [0u8; 1];
        assert!(c.read(0, 0, &mut buf));
        assert_eq!(buf[0], 1);
    }

    #[test]
    fn flip_tag_bit_aliases_line() {
        let mut c = small();
        c.fill(0, &[3; 8], false);
        assert_eq!(c.flip_bit(0), FlipOutcome::Tag); // tag 0 -> 1
        assert!(!c.probe(0), "old address must miss after tag flip");
        // tag 1, set 0 => line_addr = 1 * sets + 0 = 2
        assert!(c.probe(2), "line must alias the new address");
    }

    #[test]
    fn flip_invalid_line_is_inert() {
        let mut c = small();
        assert_eq!(c.flip_bit(0), FlipOutcome::InvalidLine);
    }

    #[test]
    #[should_panic(expected = "out of cache space")]
    fn flip_out_of_space_panics() {
        let mut c = small();
        let total = c.total_bits();
        c.flip_bit(total);
    }

    #[test]
    fn total_bits_accounts_for_tags() {
        let c = small();
        assert_eq!(c.total_bits(), 4 * (64 + u64::from(TAG_BITS)));
    }

    #[test]
    fn valid_line_count() {
        let mut c = small();
        assert_eq!(c.valid_lines(), 0);
        c.fill(0, &[0; 8], false);
        c.fill(1, &[0; 8], false);
        assert_eq!(c.valid_lines(), 2);
        // Refill in place must not double-count.
        c.fill(0, &[7; 8], false);
        assert_eq!(c.valid_lines(), 2);
        c.invalidate(0);
        assert_eq!(c.valid_lines(), 1);
        c.flush();
        assert_eq!(c.valid_lines(), 0);
    }

    #[test]
    fn flush_writes_back_dirty_lines_in_index_order() {
        let mut c = small();
        c.fill(3, &[2; 8], true); // set 1
        c.fill(0, &[1; 8], true); // set 0
        c.fill(5, &[0; 8], false); // set 1, clean
        let wbs = c.flush();
        // Line-index order: set 0 ways first, then set 1 ways.
        assert_eq!(wbs.len(), 2);
        assert_eq!(wbs[0].line_addr, 0);
        assert_eq!(wbs[1].line_addr, 3);
        assert_eq!(c.valid_lines(), 0);
        assert_eq!(c.stats().writebacks, 2);
        // A second flush of the now-empty cache is a no-op.
        assert!(c.flush().is_empty());
        assert_eq!(c.stats().writebacks, 2);
    }

    #[test]
    fn data_flip_taints_until_observed() {
        let mut c = small();
        c.fill(0, &[0; 8], false);
        assert_eq!(c.flip_bit(u64::from(TAG_BITS)), FlipOutcome::Data);
        assert_eq!(c.taint_count(), 1);
        assert!(!c.taint_escaped());
        let mut buf = [0u8; 1];
        c.read(0, 0, &mut buf);
        assert!(c.taint_escaped(), "reading tainted data must escape");
    }

    #[test]
    fn tag_flip_escapes_immediately() {
        let mut c = small();
        c.fill(0, &[0; 8], false);
        assert_eq!(c.flip_bit(0), FlipOutcome::Tag);
        assert!(c.taint_escaped());
        assert_eq!(c.taint_count(), 0);
    }

    #[test]
    fn clean_eviction_clears_taint_silently() {
        let mut c = small();
        c.fill(0, &[0; 8], false);
        c.flip_bit(u64::from(TAG_BITS));
        c.fill(2, &[0; 8], false);
        c.fill(4, &[0; 8], false); // evicts the clean, tainted line 0
        assert!(!c.probe(0));
        assert_eq!(c.taint_count(), 0);
        assert!(
            !c.taint_escaped(),
            "an unread clean victim matches golden state"
        );
    }

    #[test]
    fn dirty_tainted_eviction_escapes() {
        let mut c = small();
        c.fill(0, &[0; 8], true);
        c.flip_bit(u64::from(TAG_BITS));
        c.fill(2, &[0; 8], false);
        let wb = c.fill(4, &[0; 8], false);
        assert!(wb.is_some(), "dirty victim written back");
        assert!(
            c.taint_escaped(),
            "tainted writeback reaches the next level"
        );
    }

    #[test]
    fn invalidate_and_full_overwrite_clear_taint() {
        let mut c = small();
        c.fill(0, &[0; 8], false);
        c.flip_bit(u64::from(TAG_BITS));
        c.write(0, 0, &[7; 8], false); // full-line overwrite erases the flip
        assert_eq!(c.taint_count(), 0);
        c.flip_bit(u64::from(TAG_BITS));
        assert_eq!(c.taint_count(), 1);
        c.invalidate(0);
        assert_eq!(c.taint_count(), 0);
        assert!(!c.taint_escaped());
    }
}
