//! GPU chip configurations.
//!
//! The three presets reproduce Table V of the gpuFI-4 paper: RTX 2060
//! (Turing), Quadro GV100 (Volta) and GTX Titan (Kepler).  Cache sizes are
//! quoted both as raw data capacity and — for the vulnerability analysis —
//! with the paper's modelled 57 tag bits per 128-byte line included
//! (Table I / Table V footnote).

use crate::fault::Structure;

/// Number of tag bits modelled per cache line (paper §IV.C.2).
pub const TAG_BITS: u32 = 57;

/// Fixed SIMT width of every modelled architecture.
pub const WARP_SIZE: u32 = 32;

/// Geometry of one set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets.
    pub sets: u32,
    /// Associativity (lines per set).
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
}

impl CacheConfig {
    /// A cache with the given total data capacity, associativity and line
    /// size.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not divisible into `ways × line_bytes`
    /// sets, or any argument is zero.
    pub fn with_capacity(total_bytes: u32, ways: u32, line_bytes: u32) -> Self {
        assert!(
            total_bytes > 0 && ways > 0 && line_bytes > 0,
            "zero cache dimension"
        );
        let way_bytes = ways * line_bytes;
        assert_eq!(
            total_bytes % way_bytes,
            0,
            "capacity {total_bytes} not divisible by ways*line {way_bytes}"
        );
        CacheConfig {
            sets: total_bytes / way_bytes,
            ways,
            line_bytes,
        }
    }

    /// Total number of lines.
    pub fn num_lines(&self) -> u32 {
        self.sets * self.ways
    }

    /// Data capacity in bytes (tags excluded).
    pub fn data_bytes(&self) -> u32 {
        self.num_lines() * self.line_bytes
    }

    /// Storage bits per line including the modelled tag.
    pub fn bits_per_line(&self) -> u64 {
        u64::from(self.line_bytes) * 8 + u64::from(TAG_BITS)
    }

    /// Total storage bits including tags — the injection target space and
    /// the size used in AVF weighting (paper Table I).
    pub fn total_bits(&self) -> u64 {
        u64::from(self.num_lines()) * self.bits_per_line()
    }
}

/// Latency parameters of the memory system and execution pipelines, in core
/// cycles.
///
/// The defaults are in the range GPGPU-Sim uses for the modelled
/// generations; the paper's conclusions depend on relative, not absolute,
/// timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyConfig {
    /// Simple ALU op issue-to-writeback latency.
    pub alu: u32,
    /// Multiply / FMA latency.
    pub mul: u32,
    /// Special-function unit latency.
    pub sfu: u32,
    /// Shared-memory access latency.
    pub smem: u32,
    /// L1 hit latency.
    pub l1: u32,
    /// One-way interconnect latency core-cluster → memory partition.
    pub icnt: u32,
    /// L2 hit latency (beyond interconnect).
    pub l2: u32,
    /// DRAM access latency (beyond L2).
    pub dram: u32,
    /// L2 bank service (occupancy) time per request.
    pub l2_service: u32,
    /// DRAM channel service (occupancy) time per request.
    pub dram_service: u32,
}

impl Default for LatencyConfig {
    fn default() -> Self {
        LatencyConfig {
            alu: 4,
            mul: 6,
            sfu: 16,
            smem: 24,
            l1: 28,
            icnt: 8,
            l2: 64,
            dram: 160,
            l2_service: 2,
            dram_service: 8,
        }
    }
}

/// Warp scheduling policy of the SIMT cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulerPolicy {
    /// GPGPU-Sim's greedy-then-oldest, here the oldest issuable warp
    /// first (the pick is made afresh every cycle); the default.
    #[default]
    Gto,
    /// Loose round-robin over the resident warps.
    RoundRobin,
}

impl SchedulerPolicy {
    /// The configuration-file spelling (`scheduler = gto|rr`).
    pub fn name(self) -> &'static str {
        match self {
            SchedulerPolicy::Gto => "gto",
            SchedulerPolicy::RoundRobin => "rr",
        }
    }
}

/// Full configuration of one GPU chip.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Marketing name, e.g. `"RTX 2060"`.
    pub name: String,
    /// Number of SIMT cores (streaming multiprocessors).
    pub num_sms: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum resident CTAs per SM.
    pub max_ctas_per_sm: u32,
    /// 32-bit registers per SM (65 536 on all three cards).
    pub registers_per_sm: u32,
    /// Shared memory per SM, bytes.
    pub smem_per_sm: u32,
    /// L1 data cache per SM; `None` when the generation has no L1D
    /// (GTX Titan in the paper's setup).
    pub l1d: Option<CacheConfig>,
    /// L1 texture cache per SM.
    pub l1t: CacheConfig,
    /// L1 constant cache per SM (64-byte lines, like the paper's Table V
    /// starred sizes).  Injectable as an extension — the paper lists the
    /// constant cache as future work (§IV.C.1).
    pub l1c: CacheConfig,
    /// L2 cache, whole chip (split into [`GpuConfig::num_l2_banks`] banks).
    pub l2: CacheConfig,
    /// Number of memory partitions / L2 banks.
    pub num_l2_banks: u32,
    /// Fabrication process in nanometres (drives the raw FIT rate).
    pub process_nm: u32,
    /// Timing parameters.
    pub lat: LatencyConfig,
    /// Warp scheduling policy.
    pub scheduler: SchedulerPolicy,
}

impl GpuConfig {
    /// RTX 2060 (Turing, 12 nm): 30 SMs, 1024 threads/SM, 64 KB shared
    /// memory, 64 KB L1D, 128 KB L1T, 3 MB L2.
    pub fn rtx2060() -> Self {
        GpuConfig {
            name: "RTX 2060".to_string(),
            num_sms: 30,
            max_threads_per_sm: 1024,
            max_ctas_per_sm: 32,
            registers_per_sm: 65536,
            smem_per_sm: 64 * 1024,
            l1d: Some(CacheConfig::with_capacity(64 * 1024, 4, 128)),
            l1t: CacheConfig::with_capacity(128 * 1024, 4, 128),
            l1c: CacheConfig::with_capacity(64 * 1024, 4, 64),
            l2: CacheConfig::with_capacity(3 * 1024 * 1024, 8, 128),
            num_l2_banks: 12,
            process_nm: 12,
            lat: LatencyConfig::default(),
            scheduler: SchedulerPolicy::default(),
        }
    }

    /// Quadro GV100 (Volta, 12 nm): 80 SMs, 2048 threads/SM, 96 KB shared
    /// memory, 32 KB L1D, 128 KB L1T, 6 MB L2.
    pub fn quadro_gv100() -> Self {
        GpuConfig {
            name: "Quadro GV100".to_string(),
            num_sms: 80,
            max_threads_per_sm: 2048,
            max_ctas_per_sm: 32,
            registers_per_sm: 65536,
            smem_per_sm: 96 * 1024,
            l1d: Some(CacheConfig::with_capacity(32 * 1024, 4, 128)),
            l1t: CacheConfig::with_capacity(128 * 1024, 4, 128),
            l1c: CacheConfig::with_capacity(64 * 1024, 4, 64),
            l2: CacheConfig::with_capacity(6 * 1024 * 1024, 16, 128),
            num_l2_banks: 16,
            process_nm: 12,
            lat: LatencyConfig::default(),
            scheduler: SchedulerPolicy::default(),
        }
    }

    /// GTX Titan (Kepler, 28 nm): 14 SMs, 2048 threads/SM, 48 KB shared
    /// memory, no injectable L1D, 48 KB L1T, 1.5 MB L2.
    pub fn gtx_titan() -> Self {
        GpuConfig {
            name: "GTX Titan".to_string(),
            num_sms: 14,
            max_threads_per_sm: 2048,
            max_ctas_per_sm: 16,
            registers_per_sm: 65536,
            smem_per_sm: 48 * 1024,
            l1d: None,
            l1t: CacheConfig::with_capacity(48 * 1024, 4, 128),
            // Table V quotes 12 KB raw but 17.78 KB starred; only a 16 KB
            // cache with 64-byte lines yields 17.78 KB (and Table I's
            // 248.92 KB chip total), so the starred value wins here.
            l1c: CacheConfig::with_capacity(16 * 1024, 4, 64),
            l2: CacheConfig::with_capacity((3 * 1024 / 2) * 1024, 8, 128),
            num_l2_banks: 6,
            process_nm: 28,
            lat: LatencyConfig::default(),
            scheduler: SchedulerPolicy::default(),
        }
    }

    /// The three paper configurations, in the paper's order.
    pub fn paper_cards() -> Vec<GpuConfig> {
        vec![Self::rtx2060(), Self::quadro_gv100(), Self::gtx_titan()]
    }

    /// Maximum warps per SM.
    pub fn max_warps_per_sm(&self) -> u32 {
        self.max_threads_per_sm / WARP_SIZE
    }

    /// Chip-wide bits of `s` that count toward the chip AVF and FIT: the
    /// Table I size, with the modelled tag bits for caches (4-byte
    /// registers; zero L1D bits on a card without one).  Zero for off-chip
    /// local memory and for control-unit state (SIMT stacks, scheduler
    /// flags, scoreboard), which is not an SRAM array of Table I.
    pub fn chip_bits(&self, s: Structure) -> u64 {
        let sms = u64::from(self.num_sms);
        match s {
            Structure::RegisterFile => u64::from(self.registers_per_sm) * 32 * sms,
            Structure::SharedMemory => u64::from(self.smem_per_sm) * 8 * sms,
            Structure::L1Data => self.l1d.map_or(0, |c| c.total_bits() * sms),
            Structure::L1Tex => self.l1t.total_bits() * sms,
            Structure::L1Const => self.l1c.total_bits() * sms,
            Structure::L2 => self.l2.total_bits(),
            Structure::LocalMemory
            | Structure::SimtStack
            | Structure::Sched
            | Structure::Scoreboard => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: f64 = 1024.0 * 1024.0;

    #[test]
    fn cache_with_capacity_geometry() {
        let c = CacheConfig::with_capacity(64 * 1024, 4, 128);
        assert_eq!(c.sets, 128);
        assert_eq!(c.num_lines(), 512);
        assert_eq!(c.data_bytes(), 64 * 1024);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn cache_capacity_must_divide() {
        CacheConfig::with_capacity(1000, 4, 128);
    }

    /// Table V footnote: a 64 KB cache is 67.56 KB with 57 tag bits per
    /// 128-byte line.
    #[test]
    fn tagged_size_matches_paper_footnote() {
        let c = CacheConfig::with_capacity(64 * 1024, 4, 128);
        let kb = c.total_bits() as f64 / 8.0 / 1024.0;
        assert!((kb - 67.56).abs() < 0.01, "got {kb}");
    }

    /// Table I: register file 7.5 MB (RTX 2060), 20 MB (GV100), 3.5 MB
    /// (GTX Titan).
    #[test]
    fn regfile_sizes_match_table1() {
        assert_eq!(
            GpuConfig::rtx2060().chip_bits(Structure::RegisterFile),
            30 * 65536 * 32
        );
        let mb = |c: &GpuConfig| c.chip_bits(Structure::RegisterFile) as f64 / 8.0 / MB;
        assert!((mb(&GpuConfig::rtx2060()) - 7.5).abs() < 1e-9);
        assert!((mb(&GpuConfig::quadro_gv100()) - 20.0).abs() < 1e-9);
        assert!((mb(&GpuConfig::gtx_titan()) - 3.5).abs() < 1e-9);
    }

    /// Table I: shared memory 1.875 MB / 7.5 MB / 672 KB.
    #[test]
    fn smem_sizes_match_table1() {
        let mb = |c: &GpuConfig| c.chip_bits(Structure::SharedMemory) as f64 / 8.0 / MB;
        assert!((mb(&GpuConfig::rtx2060()) - 1.875).abs() < 1e-9);
        assert!((mb(&GpuConfig::quadro_gv100()) - 7.5).abs() < 1e-9);
        let kb = GpuConfig::gtx_titan().chip_bits(Structure::SharedMemory) as f64 / 8.0 / 1024.0;
        assert!((kb - 672.0).abs() < 1e-9);
    }

    /// Table I: L1D 1.98 MB (RTX 2060) and 2.64 MB (GV100); N/A for Titan.
    #[test]
    fn l1d_sizes_match_table1() {
        let mb = |c: &GpuConfig| c.chip_bits(Structure::L1Data) as f64 / 8.0 / MB;
        assert!((mb(&GpuConfig::rtx2060()) - 1.98).abs() < 0.01);
        assert!((mb(&GpuConfig::quadro_gv100()) - 2.64).abs() < 0.01);
        assert_eq!(GpuConfig::gtx_titan().chip_bits(Structure::L1Data), 0);
    }

    /// Table I: L1T 3.96 MB / 10.56 MB / 709.38 KB.
    #[test]
    fn l1t_sizes_match_table1() {
        let mb = |c: &GpuConfig| c.chip_bits(Structure::L1Tex) as f64 / 8.0 / MB;
        assert!((mb(&GpuConfig::rtx2060()) - 3.96).abs() < 0.01);
        assert!((mb(&GpuConfig::quadro_gv100()) - 10.56).abs() < 0.01);
        let kb = GpuConfig::gtx_titan().chip_bits(Structure::L1Tex) as f64 / 8.0 / 1024.0;
        assert!((kb - 709.38).abs() < 0.05);
    }

    /// Table I: L1 constant cache 2.08 MB / 5.56 MB / 248.92 KB (the
    /// paper's starred sizes imply 64-byte constant-cache lines).
    #[test]
    fn l1c_sizes_match_table1() {
        let mb = |c: &GpuConfig| c.chip_bits(Structure::L1Const) as f64 / 8.0 / MB;
        assert!((mb(&GpuConfig::rtx2060()) - 2.08).abs() < 0.01);
        assert!((mb(&GpuConfig::quadro_gv100()) - 5.56).abs() < 0.01);
        let kb = GpuConfig::gtx_titan().chip_bits(Structure::L1Const) as f64 / 8.0 / 1024.0;
        assert!((kb - 248.92).abs() < 0.15, "got {kb}");
    }

    /// Table I: L2 3.17 MB / 6.33 MB / 1.58 MB (with tags).
    #[test]
    fn l2_sizes_match_table1() {
        let mb = |c: &GpuConfig| c.chip_bits(Structure::L2) as f64 / 8.0 / MB;
        assert!((mb(&GpuConfig::rtx2060()) - 3.17).abs() < 0.01);
        assert!((mb(&GpuConfig::quadro_gv100()) - 6.33).abs() < 0.01);
        assert!((mb(&GpuConfig::gtx_titan()) - 1.58).abs() < 0.01);
    }

    #[test]
    fn warp_capacity() {
        assert_eq!(GpuConfig::rtx2060().max_warps_per_sm(), 32);
        assert_eq!(GpuConfig::quadro_gv100().max_warps_per_sm(), 64);
        assert_eq!(GpuConfig::gtx_titan().max_warps_per_sm(), 64);
    }
}
