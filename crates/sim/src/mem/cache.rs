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
//! The tag and data arrays are the bulk of every checkpoint, so they are
//! held copy-on-write at two levels: a table of chunks, each a whole
//! number of consecutive sets (about 32 lines) with their metadata and
//! data bytes, where the table and each chunk are either `Arc`-shared or
//! owned by this cache.  Cloning a cache — how a snapshot captures it —
//! shares its table; the first write to a shared table replaces it by an
//! owned copy of its chunk pointers, and the first write to a shared
//! chunk by an owned copy of the chunk, after which writes to it cost no
//! reference-count check; `clone_from` — how a fork restores — takes the
//! source's table unless it already holds it; and a new cache's table is
//! shared with every cache of its geometry and points every chunk at one
//! shared all-invalid chunk.  Recording, forking and building a device
//! thus cost a pointer per cache, plus a table and a chunk copy for each
//! cache and chunk that was written; handing a written table over to
//! sharing moves it behind a reference count without a copy.

use crate::config::{CacheConfig, TAG_BITS};
use crate::fast_hash::FastSet;
use arrays::Arrays;

/// Per-line heap accounting constant for [`Cache::resident_bytes`].
///
/// This is the measured size of the original line struct (three flag
/// bytes + tag + LRU stamp + a per-line `Vec<u8>` header), pinned so the
/// checkpoint-store budget — and therefore the recorder's capture stride
/// visible in campaign CSVs — is independent of the storage layout.
const LINE_ACCT_BYTES: usize = 48;

/// One cache line's metadata: valid/dirty state, tag and LRU stamp.  The
/// data bytes live beside it in the line's chunk.
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

/// Clears `line`'s taint, keeping the cache's taint count in step.
fn untaint(line: &mut Line, taints: &mut u32) {
    if line.tainted {
        line.tainted = false;
        *taints -= 1;
    }
}

/// Hit/miss counters, per cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlipOutcome {
    /// The targeted line was invalid; the flip has no architectural effect.
    InvalidLine,
    /// A tag bit was flipped on a valid line.
    Tag,
    /// A data bit was flipped on a valid line.
    Data,
}

/// A set-associative, write-back-capable cache with LRU replacement.
#[derive(Debug)]
pub struct Cache {
    cfg: CacheConfig,
    arrays: Arrays,
    tick: u64,
    stats: CacheStats,
    taints: u32,
    /// Count of `valid` lines, maintained by `fill`/`invalidate`/`flush`.
    /// Derived state (recomputable from the line array), so it is
    /// deliberately excluded from the canonical digest — it exists so the
    /// per-launch flush of an untouched cache is O(1) instead of a full
    /// line walk.
    valid_cnt: u32,
    // Latched when fault-flipped state becomes observable: a read (or host
    // read) hits a tainted line, a tainted dirty victim is written back to
    // the next level, or a tag flip lands on a valid line (tag flips change
    // hit/miss timing immediately).
    escaped: bool,
}

clone_fields!(Cache {
    cfg,
    arrays,
    tick,
    stats,
    taints,
    valid_cnt,
    escaped,
});

impl Line {
    /// State equality for the reconvergence check: all but the `tainted`
    /// flag.
    fn same_state(&self, o: &Line) -> bool {
        let Line {
            valid,
            dirty,
            tag,
            lru,
            tainted: _,
        } = self;
        *valid == o.valid && *dirty == o.dirty && *tag == o.tag && *lru == o.lru
    }
}

mod arrays {
    use super::Line;
    use crate::config::CacheConfig;
    use crate::fast_hash::FastSet;
    use std::borrow::Borrow;
    use std::sync::Arc;

    /// How many lines a chunk aims to hold: a run that writes one line
    /// copies at most this many.  An RTX 2060 device is about 3200 chunks
    /// in about 100 tables, and capturing or restoring one visits a table
    /// pointer per cache plus the chunk pointers of the tables written
    /// since.
    const CHUNK_LINES: u32 = 32;

    /// A whole number of consecutive sets: their lines' metadata and data
    /// bytes (line `j` owns `data[j*line_bytes .. (j+1)*line_bytes]`).
    #[derive(Debug, Clone, Default)]
    struct Chunk {
        lines: Box<[Line]>,
        data: Box<[u8]>,
    }

    /// A chunk, or a cache's table of chunks: shared with clones
    /// (snapshots, forks, the other caches of a new device), or owned
    /// outright once written.  Writing an owned one needs no
    /// reference-count check, which keeps atomics off the per-access
    /// path.  A shared table holds shared chunks only.
    enum Held<T: ?Sized + ToOwned> {
        Shared(Arc<T>),
        Owned(T::Owned),
    }

    /// A cache's chunk table.  Its shared form holds the owned `Vec`
    /// itself, so handing an owned table over to sharing moves it behind
    /// a reference count instead of copying it.
    type Table = Held<Vec<Held<Chunk>>>;

    impl<T: ?Sized + ToOwned> Held<T> {
        fn get(&self) -> &T {
            match self {
                Held::Shared(t) => t,
                Held::Owned(t) => t.borrow(),
            }
        }

        /// The value, for writing: the one mutable access, so a shared
        /// value is first replaced by an owned copy (of a table: of its
        /// chunk pointers).
        fn owned(&mut self) -> &mut T::Owned {
            if let Held::Shared(t) = self {
                *self = Held::Owned(unshare(&**t));
            }
            match self {
                Held::Owned(t) => t,
                Held::Shared(_) => unreachable!("the value was just made owned"),
            }
        }

        /// Whether both hold one shared value by the same pointer: a value
        /// no write reached since one was cloned from the other.
        fn is(&self, o: &Self) -> bool {
            matches!((self, o), (Held::Shared(a), Held::Shared(b)) if Arc::ptr_eq(a, b))
        }

        /// Whether this is a shared value already in `seen`, adding it if
        /// not: an owned one is never counted.
        fn counted(&self, seen: &mut FastSet<*const ()>) -> bool {
            matches!(self, Held::Shared(t) if !seen.insert(Arc::as_ptr(t).cast()))
        }
    }

    impl<T: ?Sized + ToOwned> Held<T>
    where
        T::Owned: Default + Into<Arc<T>>,
    {
        /// Hands an owned value over to sharing without copying it.
        fn share(&mut self) {
            if let Held::Owned(t) = self {
                *self = Held::Shared(std::mem::take(t).into());
            }
        }
    }

    /// A private copy of a shared chunk or table: once per chunk and run
    /// and once per cache and capture interval, off the per-access path.
    #[cold]
    fn unshare<T: ?Sized + ToOwned>(t: &T) -> T::Owned {
        t.to_owned()
    }

    impl<T: ?Sized + ToOwned> Clone for Held<T>
    where
        T::Owned: Into<Arc<T>>,
    {
        /// Shares the value; an owned one is copied into a new shared one,
        /// since `&self` cannot hand it over (see [`Arrays::share`]).  An
        /// owned table's copy shares its chunks.
        fn clone(&self) -> Self {
            match self {
                Held::Shared(t) => Held::Shared(Arc::clone(t)),
                Held::Owned(t) => Held::Shared(t.borrow().to_owned().into()),
            }
        }
    }

    impl<T: ?Sized + ToOwned + std::fmt::Debug> std::fmt::Debug for Held<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            self.get().fmt(f)
        }
    }

    /// A line's place in the arrays: its chunk and its index there.
    #[derive(Debug, Clone, Copy)]
    pub(super) struct Slot {
        chunk: usize,
        line: usize,
    }

    /// A cache's tag/LRU and data arrays as a copy-on-write table of
    /// copy-on-write chunks of `2^set_shift` sets each.
    ///
    /// A chunk is only ever written through `Held::owned` on its table
    /// and then on the chunk, which first replaces a shared table and a
    /// shared chunk by owned copies, so a clone never sees its source's
    /// later writes.  `clone` shares the table; `clone_from` takes the
    /// source's table unless it already holds it, so a device forked in
    /// place pays only for the caches its last run wrote.  The fields
    /// are private to this module: no mutator can bypass `Held::owned`.
    #[derive(Debug)]
    pub(super) struct Arrays {
        table: Table,
        set_shift: u32,
        ways: usize,
        line_bytes: usize,
    }

    impl Arrays {
        /// All-invalid, zeroed arrays for `cfg`: a shared table whose
        /// every chunk is one shared chunk.  A chunk holds the largest
        /// power of two of sets that divides `cfg.sets` and keeps it
        /// within [`CHUNK_LINES`] (one set if the ways alone exceed it),
        /// so every chunk has the same shape.
        pub(super) fn new(cfg: &CacheConfig) -> Self {
            let max_sets = (CHUNK_LINES / cfg.ways.max(1)).max(1);
            let mut set_shift = 0;
            while 2 << set_shift <= max_sets && cfg.sets.is_multiple_of(2 << set_shift) {
                set_shift += 1;
            }
            let (ways, line_bytes) = (cfg.ways as usize, cfg.line_bytes as usize);
            let lines = ways << set_shift;
            let blank = Held::Shared(Arc::new(Chunk {
                lines: vec![
                    Line {
                        valid: false,
                        dirty: false,
                        tainted: false,
                        tag: 0,
                        lru: 0,
                    };
                    lines
                ]
                .into(),
                data: vec![0; lines * line_bytes].into(),
            }));
            Arrays {
                table: Table::Shared(vec![blank; (cfg.sets >> set_shift) as usize].into()),
                set_shift,
                ways,
                line_bytes,
            }
        }

        /// The slot of way `way` of set `set`.
        pub(super) fn slot(&self, set: u32, way: usize) -> Slot {
            let first = set & ((1 << self.set_shift) - 1);
            Slot {
                chunk: (set >> self.set_shift) as usize,
                line: first as usize * self.ways + way,
            }
        }

        /// The slot of line `i` in line-major order (`set * ways + way`).
        pub(super) fn slot_of_index(&self, i: usize) -> Slot {
            self.slot((i / self.ways) as u32, i % self.ways)
        }

        /// The line-major index (`set * ways + way`) of the line at `s`.
        pub(super) fn index_of(&self, s: Slot) -> u32 {
            ((s.chunk << self.set_shift) * self.ways + s.line) as u32
        }

        /// The first set chunk `chunk` holds.
        pub(super) fn first_set(&self, chunk: usize) -> u32 {
            (chunk as u32) << self.set_shift
        }

        fn chunk(&self, chunk: usize) -> &Chunk {
            self.table.get()[chunk].get()
        }

        /// The lines of set `set`, in way order.
        pub(super) fn set(&self, set: u32) -> &[Line] {
            let s = self.slot(set, 0);
            &self.chunk(s.chunk).lines[s.line..s.line + self.ways]
        }

        pub(super) fn line(&self, s: Slot) -> &Line {
            &self.chunk(s.chunk).lines[s.line]
        }

        /// The data bytes of the line at `s`.
        pub(super) fn data(&self, s: Slot) -> &[u8] {
            let at = s.line * self.line_bytes;
            &self.chunk(s.chunk).data[at..at + self.line_bytes]
        }

        pub(super) fn num_chunks(&self) -> usize {
            self.table.get().len()
        }

        /// The lines of chunk `chunk`, in line-major order.
        pub(super) fn chunk_lines(&self, chunk: usize) -> &[Line] {
            &self.chunk(chunk).lines
        }

        /// Every line with its data bytes, in line-major order.
        pub(super) fn iter(&self) -> impl Iterator<Item = (&Line, &[u8])> {
            self.table.get().iter().flat_map(|c| {
                let c = c.get();
                c.lines.iter().zip(c.data.chunks_exact(self.line_bytes))
            })
        }

        /// Chunk `chunk`, for writing (a shared table and a shared chunk
        /// are replaced by owned copies first).
        fn owned(&mut self, chunk: usize) -> &mut Chunk {
            self.table.owned()[chunk].owned()
        }

        /// Mutable access to chunk `chunk`'s lines and data.
        pub(super) fn touch_chunk(&mut self, chunk: usize) -> (&mut [Line], &mut [u8]) {
            let c = self.owned(chunk);
            (&mut c.lines, &mut c.data)
        }

        /// Mutable access to the line at `s` and its data bytes.
        pub(super) fn touch(&mut self, s: Slot) -> (&mut Line, &mut [u8]) {
            let lb = self.line_bytes;
            let c = self.owned(s.chunk);
            (&mut c.lines[s.line], &mut c.data[s.line * lb..][..lb])
        }

        /// Turns every owned chunk, then an owned table, into a shared one
        /// without copying a chunk's bytes, so that a clone taken next
        /// shares them instead of copying.  A cache no write reached since
        /// the last call holds a shared table already: nothing to do.
        pub(super) fn share(&mut self) {
            if let Table::Owned(t) = &mut self.table {
                t.iter_mut().for_each(Held::share);
            }
            self.table.share();
        }

        /// State equality for the reconvergence check: every line's
        /// metadata but its taint, and its data.  A table or a chunk both
        /// hold by the same pointer is equal without a look.
        pub(super) fn same_state(&self, o: &Arrays) -> bool {
            let Arrays {
                table,
                set_shift,
                ways,
                line_bytes,
            } = self;
            let (a, b) = (table.get(), o.table.get());
            *set_shift == o.set_shift
                && *ways == o.ways
                && *line_bytes == o.line_bytes
                && (table.is(&o.table)
                    || a.len() == b.len()
                        && a.iter().zip(b).all(|(a, b)| {
                            a.is(b) || {
                                let (a, b) = (a.get(), b.get());
                                a.lines.len() == b.lines.len()
                                    && a.lines.iter().zip(&*b.lines).all(|(x, y)| x.same_state(y))
                                    && a.data == b.data
                            }
                        }))
        }

        /// Heap bytes of the chunk table and the chunks `prev`, these
        /// arrays in the snapshot captured before, does not hold in the
        /// same place: nothing if it holds the table.  A capture shares
        /// every chunk the golden run did not write since the one before,
        /// and a written chunk is a new one, so no older snapshot holds
        /// one `prev` does not.
        pub(super) fn added_bytes(&self, prev: &Arrays) -> usize {
            if self.table.is(&prev.table) {
                return 0;
            }
            let (table, old) = (self.table.get(), prev.table.get());
            let chunks: usize = table
                .iter()
                .zip(old)
                .filter(|(held, old)| !held.is(old))
                .map(|(held, _)| std::mem::size_of_val(&*held.get().lines) + held.get().data.len())
                .sum();
            std::mem::size_of_val(&table[..]) + chunks
        }

        /// Heap bytes of the chunk table and every chunk not yet in
        /// `seen`, which collects the shared tables and chunks counted so
        /// far: a shared table already in it adds nothing.
        pub(super) fn held_bytes(&self, seen: &mut FastSet<*const ()>) -> usize {
            if self.table.counted(seen) {
                return 0;
            }
            let table = self.table.get();
            let chunks: usize = table
                .iter()
                .filter(|held| !held.counted(seen))
                .map(|held| std::mem::size_of_val(&*held.get().lines) + held.get().data.len())
                .sum();
            std::mem::size_of_val(&table[..]) + chunks
        }
    }

    impl Clone for Arrays {
        fn clone(&self) -> Self {
            Arrays {
                table: self.table.clone(),
                ..*self
            }
        }

        fn clone_from(&mut self, source: &Self) {
            let Arrays {
                table,
                set_shift,
                ways,
                line_bytes,
            } = self;
            *set_shift = source.set_shift;
            *ways = source.ways;
            *line_bytes = source.line_bytes;
            if !table.is(&source.table) {
                *table = source.table.clone();
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::super::tests::{digest, fill_all};
        use super::super::Cache;
        use super::*;

        /// 64 sets × 2 ways × 8-byte lines: four chunks of 16 sets, every
        /// line filled, and handed over to sharing as before a capture.
        fn captured() -> Cache {
            let mut c = Cache::new(CacheConfig {
                sets: 64,
                ways: 2,
                line_bytes: 8,
            });
            fill_all(&mut c);
            c.share();
            c
        }

        fn table_of(c: &Cache) -> &Arc<Vec<Held<Chunk>>> {
            match &c.arrays.table {
                Table::Shared(t) => t,
                Table::Owned(_) => panic!("the table is owned"),
            }
        }

        #[test]
        fn capturing_a_shared_table_shares_it() {
            let c = captured();
            let snap = c.clone();
            assert!(Arc::ptr_eq(table_of(&c), table_of(&snap)));
            let blank = Cache::new(*c.config());
            assert!(Arc::ptr_eq(table_of(&blank), table_of(&blank.clone())));
        }

        #[test]
        fn one_write_unshares_one_table_and_one_chunk() {
            let mut c = captured();
            let snap = c.clone();
            let (pinned, lines) = (digest(&snap), snap.valid_line_indices().count());
            // Line address 65 is way 1 of set 1: chunk 0.
            assert!(c.write(65, 0, &[9; 8], true));
            let Table::Owned(t) = &c.arrays.table else {
                panic!("a write left the table shared");
            };
            let kept = t.iter().zip(table_of(&snap).iter()).map(|(a, b)| a.is(b));
            assert_eq!(kept.collect::<Vec<_>>(), [false, true, true, true]);
            assert_eq!(digest(&snap), pinned, "the write reached the snapshot");
            assert_eq!(snap.valid_line_indices().count(), lines);
            assert_eq!(snap.peek_line(65), Some(&[3; 8][..]));
            assert_ne!(digest(&c), pinned);
        }

        #[test]
        fn clone_from_takes_a_differing_table_only() {
            let snap = captured();
            let mut fork = snap.clone();
            let refs = Arc::strong_count(table_of(&snap));
            fork.clone_from(&snap);
            assert_eq!(Arc::strong_count(table_of(&snap)), refs, "not a no-op");
            // A fork that wrote holds another table; restoring takes the
            // snapshot's.
            fork.flip_bit(40 * fork.config().bits_per_line());
            fork.invalidate(3);
            assert!(!fork.arrays.same_state(&snap.arrays));
            fork.clone_from(&snap);
            assert!(fork.same_state(&snap));
            assert_eq!(digest(&fork), digest(&snap));
            assert!(Arc::ptr_eq(table_of(&fork), table_of(&snap)));
            // So does one holding another shared table.
            let mut other = captured();
            other.write(3, 0, &[1; 8], true);
            other.share();
            fork.clone_from(&other);
            assert!(fork.same_state(&other));
            assert_eq!(digest(&fork), digest(&other));
        }

        #[test]
        fn different_tables_with_equal_chunks_compare_equal() {
            let snap = captured();
            let mut copy = snap.clone();
            // The same chunks in another table...
            copy.arrays.table = Table::Shared(table_of(&snap).to_vec().into());
            assert!(!copy.arrays.table.is(&snap.arrays.table));
            assert!(copy.same_state(&snap));
            // ...and equal chunks that are not the same.
            let chunks = table_of(&snap).iter().map(|h| Held::Owned(h.get().clone()));
            copy.arrays.table = Table::Owned(chunks.collect());
            assert!(copy.same_state(&snap));
            assert_eq!(digest(&copy), digest(&snap));
        }
    }
}

impl Cache {
    /// Creates an empty (all-invalid) cache with the given geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        Cache {
            arrays: Arrays::new(&cfg),
            cfg,
            tick: 0,
            stats: CacheStats::default(),
            taints: 0,
            valid_cnt: 0,
            escaped: false,
        }
    }

    /// The LRU tick and statistics, alone: what the reconvergence check
    /// compares before any line.
    pub(crate) fn same_counters(&self, o: &Cache) -> bool {
        self.tick == o.tick && self.stats == o.stats && self.valid_cnt == o.valid_cnt
    }

    /// State equality for the reconvergence check: all but the fault
    /// bookkeeping in the ignore list.
    pub(crate) fn same_state(&self, o: &Cache) -> bool {
        let Cache {
            cfg,
            arrays,
            tick: _,
            stats: _,
            valid_cnt: _,
            // Ignored: fault bookkeeping.
            taints: _,
            escaped: _,
        } = self;
        // The counters skipped above.
        self.same_counters(o) && *cfg == o.cfg && arrays.same_state(&o.arrays)
    }

    /// Lines currently holding unobserved fault-flipped data.
    pub fn taint_count(&self) -> u32 {
        self.taints
    }

    /// Nominal footprint of the tag and data arrays: the recorder's
    /// checkpoint-budget accounting, which charges every line in full
    /// whether or not a snapshot shares its chunk.  Uses the pinned
    /// `LINE_ACCT_BYTES` per-line metadata cost so the budget — and the
    /// capture stride — does not shift with the storage layout.
    pub fn resident_bytes(&self) -> usize {
        self.cfg.num_lines() as usize * (LINE_ACCT_BYTES + self.cfg.line_bytes as usize)
    }

    /// Hands the chunks and the chunk table this cache owns over to
    /// sharing, without copying a chunk, so that the next clone — a
    /// checkpoint capture — shares them rather than copying them.  A
    /// cache no write reached since the last call has nothing to hand
    /// over.
    pub(crate) fn share(&mut self) {
        self.arrays.share();
    }

    /// Heap bytes this cache's arrays actually hold, counting only the
    /// chunk table and chunks not already in `seen` (and adding them), so
    /// that summing over caches that share them counts each once.
    pub(crate) fn held_bytes(&self, seen: &mut FastSet<*const ()>) -> usize {
        self.arrays.held_bytes(seen)
    }

    /// Heap bytes this cache's arrays hold that `prev`, the same cache in
    /// the snapshot captured before, does not.
    pub(crate) fn added_bytes(&self, prev: &Cache) -> usize {
        self.arrays.added_bytes(&prev.arrays)
    }

    /// Whether fault-flipped state has become observable (see the field
    /// docs); once set, the fault-lifetime tracker must run the simulation
    /// to completion.
    pub fn taint_escaped(&self) -> bool {
        self.escaped
    }

    /// Hashes the cache's complete state (lines, LRU stamps, statistics,
    /// taint bookkeeping) into a canonical state digest.  The derived
    /// `valid_cnt` counter and the chunking are excluded.
    pub(crate) fn digest_into(&self, h: &mut crate::snapshot::StateHasher) {
        h.u64(u64::from(self.cfg.num_lines()));
        for (l, data) in self.arrays.iter() {
            h.bool(l.valid);
            h.bool(l.dirty);
            h.bool(l.tainted);
            h.u64(l.tag);
            h.u64(l.lru);
            h.bytes(data);
        }
        h.u64(self.tick);
        h.u64(self.stats.hits);
        h.u64(self.stats.misses);
        h.u64(self.stats.writebacks);
        h.u64(self.stats.fills);
        h.u32(self.taints);
        h.bool(self.escaped);
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated hit/miss statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
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

    fn find(&self, line_addr: u64) -> Option<arrays::Slot> {
        let set = self.set_of(line_addr);
        let tag = self.tag_of(line_addr);
        self.arrays
            .set(set)
            .iter()
            .position(|l| l.valid && l.tag == tag)
            .map(|way| self.arrays.slot(set, way))
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
        let at = offset as usize;
        match self.read_line(line_addr) {
            Some(data) => {
                out.copy_from_slice(&data[at..at + out.len()]);
                true
            }
            None => false,
        }
    }

    /// The whole line for `line_addr`, if resident: a hit or a miss as for
    /// [`Cache::read`], which reads through this.
    pub(crate) fn read_line(&mut self, line_addr: u64) -> Option<&[u8]> {
        self.read_run(line_addr, 1)
    }

    /// The whole line for `line_addr`, read `n` times in a row: the state
    /// `n` calls of [`Cache::read_line`] leave, with one lookup.  A hit
    /// advances the tick by `n`, stamps the line with the last and latches
    /// the escape if the line is tainted; a miss counts `n` misses.
    pub(crate) fn read_run(&mut self, line_addr: u64, n: u64) -> Option<&[u8]> {
        match self.find(line_addr) {
            Some(s) => {
                self.tick += n;
                let (line, data) = self.arrays.touch(s);
                line.lru = self.tick;
                if line.tainted {
                    self.escaped = true;
                }
                self.stats.hits += n;
                Some(data)
            }
            None => {
                self.stats.misses += n;
                None
            }
        }
    }

    /// Writes `bytes` at `offset` within the line, if resident, marking the
    /// line dirty when `dirty` is requested.
    ///
    /// Returns `true` on a hit.
    pub fn write(&mut self, line_addr: u64, offset: u32, bytes: &[u8], dirty: bool) -> bool {
        self.write_run(line_addr, [(offset, bytes)], dirty)
    }

    /// Writes each `(offset, bytes)` of `writes` in order into the line for
    /// `line_addr`, if resident: the state one [`Cache::write`] per item
    /// leaves, with one lookup.  A miss counts one miss per item.
    pub(crate) fn write_run<B: AsRef<[u8]>>(
        &mut self,
        line_addr: u64,
        writes: impl IntoIterator<Item = (u32, B)>,
        dirty: bool,
    ) -> bool {
        let Some(s) = self.find(line_addr) else {
            self.stats.misses += writes.into_iter().count() as u64;
            return false;
        };
        let (line, data) = self.arrays.touch(s);
        for (offset, bytes) in writes {
            let (at, bytes) = (offset as usize, bytes.as_ref());
            self.tick += 1;
            line.lru = self.tick;
            data[at..at + bytes.len()].copy_from_slice(bytes);
            line.dirty |= dirty;
            // A full-line overwrite provably erases any flipped bits; a
            // partial write keeps the taint (the flip may sit outside the
            // written range).
            if at == 0 && bytes.len() == data.len() {
                untaint(line, &mut self.taints);
            }
            self.stats.hits += 1;
        }
        true
    }

    /// The data bytes of a resident line, without touching LRU state,
    /// statistics or the escape latch (host-coherence path).
    pub fn peek_line(&self, line_addr: u64) -> Option<&[u8]> {
        self.find(line_addr).map(|s| self.arrays.data(s))
    }

    /// Latches the escape when the line for `line_addr` is resident and
    /// tainted: the host is about to read its bytes.
    pub(crate) fn observe(&mut self, line_addr: u64) {
        if self
            .find(line_addr)
            .is_some_and(|s| self.arrays.line(s).tainted)
        {
            self.escaped = true;
        }
    }

    /// Overwrites `bytes` at `offset` of a resident line without touching
    /// LRU state, statistics or the dirty flag (host-coherence path).
    ///
    /// Returns `true` when the line was resident.
    ///
    /// # Panics
    ///
    /// Panics if `offset + bytes.len()` exceeds the line size.
    pub fn poke(&mut self, line_addr: u64, offset: u32, bytes: &[u8]) -> bool {
        match self.find(line_addr) {
            Some(s) => {
                let at = offset as usize;
                self.arrays.touch(s).1[at..at + bytes.len()].copy_from_slice(bytes);
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
        self.fill_with(line_addr, data, dirty, &mut |_| {})
    }

    /// [`Cache::fill`], calling `turned_valid` with the line-major index of
    /// the line when it fills an invalid way.
    pub(crate) fn fill_with(
        &mut self,
        line_addr: u64,
        data: &[u8],
        dirty: bool,
        turned_valid: &mut dyn FnMut(u32),
    ) -> Option<Writeback> {
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
        let ways = self.arrays.set(set);
        let resident = ways.iter().position(|l| l.valid && l.tag == tag);
        let way = resident.unwrap_or_else(|| {
            (0..ways.len())
                .min_by_key(|&w| (ways[w].valid, ways[w].lru))
                .expect("sets are non-empty")
        });
        let victim = self.arrays.slot(set, way);
        if !ways[way].valid {
            self.valid_cnt += 1;
            turned_valid(self.arrays.index_of(victim));
        }
        let evicted = if resident.is_some() {
            None
        } else {
            let line = ways[way];
            if line.valid && line.dirty {
                // Writing a tainted victim back carries flipped bits into
                // the next memory level — they become observable there.
                if line.tainted {
                    self.escaped = true;
                }
                self.stats.writebacks += 1;
                Some(Writeback {
                    line_addr: self.line_addr_of(set, line.tag),
                    data: self.arrays.data(victim).to_vec(),
                })
            } else {
                None
            }
        };
        self.tick += 1;
        let (line, bytes) = self.arrays.touch(victim);
        // The victim's bytes are replaced wholesale; a clean tainted victim
        // is silently dropped, which matches the golden run's state.
        untaint(line, &mut self.taints);
        line.valid = true;
        line.dirty = dirty;
        line.tag = tag;
        line.lru = self.tick;
        bytes.copy_from_slice(data);
        self.stats.fills += 1;
        evicted
    }

    /// Drops the line for `line_addr` if resident (no writeback — used for
    /// the L1 evict-on-write policy on global stores, where the line is
    /// never dirty).
    pub fn invalidate(&mut self, line_addr: u64) {
        self.invalidate_with(line_addr, &mut |_| {});
    }

    /// [`Cache::invalidate`], calling `turned_invalid` with the line-major
    /// index of the line it drops; whether a line was resident.
    pub(crate) fn invalidate_with(
        &mut self,
        line_addr: u64,
        turned_invalid: &mut dyn FnMut(u32),
    ) -> bool {
        let Some(s) = self.find(line_addr) else {
            return false;
        };
        turned_invalid(self.arrays.index_of(s));
        let line = self.arrays.touch(s).0;
        line.valid = false;
        line.dirty = false;
        self.valid_cnt -= 1;
        untaint(line, &mut self.taints);
        true
    }

    /// Invalidates every line, returning dirty victims for writeback.
    /// Models the L1 flush at kernel boundaries.
    ///
    /// An untouched cache (no valid lines) returns immediately without
    /// walking the line array — campaigns flush every SM's L1s after every
    /// launch, and most caches are cold on most launches — and a chunk
    /// with no valid line is neither written nor copied.
    pub fn flush(&mut self) -> Vec<Writeback> {
        self.flush_with(&mut |_| {})
    }

    /// [`Cache::flush`], calling `turned_invalid` with the line-major index
    /// of every line it drops, in index order.
    pub(crate) fn flush_with(&mut self, turned_invalid: &mut dyn FnMut(u32)) -> Vec<Writeback> {
        let mut out = Vec::new();
        let sets = u64::from(self.cfg.sets);
        let ways = self.cfg.ways as usize;
        let lb = self.cfg.line_bytes as usize;
        let mut remaining = self.valid_cnt;
        for chunk in 0..self.arrays.num_chunks() {
            if remaining == 0 {
                break;
            }
            // Invalid lines are already clean and untainted (`invalidate`
            // and `flush` clear both; taint implies valid) — skip them.
            if !self.arrays.chunk_lines(chunk).iter().any(|l| l.valid) {
                continue;
            }
            let first_set = u64::from(self.arrays.first_set(chunk));
            let (lines, data) = self.arrays.touch_chunk(chunk);
            for (j, (line, bytes)) in lines.iter_mut().zip(data.chunks_exact(lb)).enumerate() {
                if !line.valid {
                    continue;
                }
                remaining -= 1;
                turned_invalid((first_set * ways as u64) as u32 + j as u32);
                if line.dirty {
                    if line.tainted {
                        self.escaped = true;
                    }
                    out.push(Writeback {
                        line_addr: line.tag * sets + first_set + (j / ways) as u64,
                        data: bytes.to_vec(),
                    });
                    self.stats.writebacks += 1;
                }
                line.valid = false;
                line.dirty = false;
                untaint(line, &mut self.taints);
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

    /// The line-major index of every valid line.
    pub(crate) fn valid_line_indices(&self) -> impl Iterator<Item = u32> + '_ {
        (0..)
            .zip(self.arrays.iter())
            .filter_map(|(i, (l, _))| l.valid.then_some(i))
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
        let s = self.arrays.slot_of_index((bit / bpl) as usize);
        let within = bit % bpl;
        if !self.arrays.line(s).valid {
            return FlipOutcome::InvalidLine;
        }
        let (line, data) = self.arrays.touch(s);
        if within < u64::from(TAG_BITS) {
            line.tag ^= 1 << within;
            // A corrupted tag changes hit/miss behaviour (and thus timing)
            // from the very next lookup — it is immediately observable.
            self.escaped = true;
            FlipOutcome::Tag
        } else {
            let data_bit = within - u64::from(TAG_BITS);
            data[(data_bit / 8) as usize] ^= 1 << (data_bit % 8);
            if !line.tainted {
                line.tainted = true;
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

    pub(super) fn digest(c: &Cache) -> u64 {
        let mut h = crate::snapshot::StateHasher::new();
        c.digest_into(&mut h);
        h.finish()
    }

    /// Fills every line of `c` in set-major order, line `i` with bytes
    /// `i`, so way `w` of set `s` holds line address `w * sets + s`.
    pub(super) fn fill_all(c: &mut Cache) {
        let (sets, ways) = (u64::from(c.cfg.sets), u64::from(c.cfg.ways));
        for s in 0..sets {
            for w in 0..ways {
                c.fill(
                    w * sets + s,
                    &vec![(s * ways + w) as u8; c.cfg.line_bytes as usize],
                    w % 2 == 0,
                );
            }
        }
    }

    #[test]
    fn writing_a_clone_leaves_the_other_intact() {
        // 64 sets × 2 ways: four chunks of 16 sets.
        let mut c = Cache::new(CacheConfig {
            sets: 64,
            ways: 2,
            line_bytes: 8,
        });
        fill_all(&mut c);
        let snap = c.clone();
        let pinned = digest(&snap);
        // Every mutator, on the clone: the snapshot must not move.
        let mut fork = snap.clone();
        let mut buf = [0u8; 4];
        fork.read(1, 0, &mut buf);
        fork.write(64, 2, &[9; 4], true);
        fork.poke(65, 0, &[7]);
        fork.flip_bit(u64::from(TAG_BITS) + 5);
        fork.flip_bit(40 * fork.cfg.bits_per_line());
        fork.invalidate(3);
        fork.fill(200, &[5; 8], true);
        assert_ne!(digest(&fork), pinned);
        assert_eq!(
            digest(&snap),
            pinned,
            "a write to the clone reached the snapshot"
        );
        fork.flush();
        assert_eq!(
            digest(&snap),
            pinned,
            "a flush of the clone reached the snapshot"
        );
        // And the other way round: writing the original, after handing
        // its chunks over to sharing, leaves an earlier clone intact.
        c.share();
        let shared = c.clone();
        c.write(1, 0, &[3; 8], true);
        assert_eq!(digest(&snap), pinned);
        assert_ne!(digest(&shared), digest(&c));
        // Restoring in place brings the fork back exactly.
        fork.clone_from(&snap);
        assert_eq!(digest(&fork), pinned);
        assert_eq!(fork.valid_lines(), snap.valid_lines());
    }

    #[test]
    fn odd_geometries_index_lines_set_major() {
        for (sets, ways) in [(6, 3), (5, 4), (2, 40), (64, 1)] {
            let mut c = Cache::new(CacheConfig {
                sets,
                ways,
                line_bytes: 4,
            });
            fill_all(&mut c);
            assert_eq!(c.valid_lines(), sets * ways);
            // Flip bit 0 of the data of line `i` (line-major): the line
            // at way `w` of set `s` for `i = s * ways + w`.
            let bpl = c.cfg.bits_per_line();
            for i in 0..u64::from(sets * ways) {
                let (s, w) = (i / u64::from(ways), i % u64::from(ways));
                assert_eq!(c.flip_bit(i * bpl + u64::from(TAG_BITS)), FlipOutcome::Data);
                let mut byte = [0u8; 1];
                assert!(c.read(w * u64::from(sets) + s, 0, &mut byte));
                assert_eq!(byte[0], i as u8 ^ 1, "{sets}x{ways} line {i}");
            }
            let wbs = c.flush();
            let dirty = (0..sets * ways).filter(|i| i % ways % 2 == 0).count();
            assert_eq!(wbs.len(), dirty, "{sets}x{ways}");
            assert!(wbs.windows(2).all(|p| {
                let set = |la: u64| la % u64::from(sets);
                set(p[0].line_addr) <= set(p[1].line_addr)
            }));
        }
    }

    #[test]
    fn runs_leave_the_state_of_repeated_single_accesses() {
        let mut c = small();
        c.fill(0, &[0; 8], false);
        assert_eq!(c.flip_bit(u64::from(TAG_BITS)), FlipOutcome::Data);
        // Three reads of the tainted line, and three of an absent one.
        let (mut run, mut single) = (c.clone(), c.clone());
        let line = run.read_run(0, 3).map(<[u8]>::to_vec);
        assert_eq!(run.read_run(1, 3), None);
        for _ in 0..3 {
            assert_eq!(single.read_line(0).map(<[u8]>::to_vec), line);
            assert_eq!(single.read_line(1), None);
        }
        assert!(run.taint_escaped());
        assert_eq!(digest(&run), digest(&single));
        // Partial writes keep the taint; a full-line write erases it.
        let (mut run, mut single) = (c.clone(), c.clone());
        let writes: [(u32, &[u8]); 2] = [(0, &[1, 2]), (4, &[3, 4, 5, 6])];
        assert!(run.write_run(0, writes, true));
        for (at, bytes) in writes {
            assert!(single.write(0, at, bytes, true));
        }
        assert_eq!(run.taint_count(), 1);
        assert_eq!(digest(&run), digest(&single));
        assert!(run.write_run(0, [(4, &[0; 4][..]), (0, &[9; 8])], false));
        assert_eq!(run.taint_count(), 0);
        assert!(!run.taint_escaped());
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
