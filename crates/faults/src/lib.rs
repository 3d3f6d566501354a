//! # gpufi-faults — fault models and mask generation
//!
//! This crate is the reproduction of gpuFI-4's *fault masks generator*
//! module: given the injectable fault space of a kernel on a chip
//! ([`FaultSpace`]) and the cycle windows of the targeted kernel
//! invocations, it draws statistically independent transient faults —
//! single-bit or multi-bit, thread- or warp-scoped, optionally replicated
//! over CTAs or SIMT cores — as [`InjectionPlan`]s the simulator can arm.
//!
//! Everything is driven by a seedable RNG so campaigns are reproducible:
//! the same seed always produces the same sequence of plans.
//!
//! # Example
//!
//! ```
//! use gpufi_faults::{CampaignSpec, MaskGenerator, MultiBitMode, Structure};
//! use gpufi_sim::{FaultSpace, GpuConfig, KernelWindow, Scope};
//!
//! let chip = GpuConfig::rtx2060();
//! let space = FaultSpace {
//!     regs_per_thread: 16,
//!     lmem_bits: 0,
//!     smem_bits: 4096 * 8,
//!     l1d_bits: Some(64 * 1024 * 8),
//!     l1t_bits: 128 * 1024 * 8,
//!     l1c_bits: 64 * 1024 * 8,
//!     l2_bits: 3 * 1024 * 1024 * 8,
//!     num_sms: 30,
//!     bits_per_line: chip.l2.bits_per_line(),
//!     l1c_bits_per_line: chip.l1c.bits_per_line(),
//! };
//! let windows = [KernelWindow { kernel: "k".into(), start: 100, end: 1100 }];
//! let spec = CampaignSpec::new(Structure::RegisterFile).bits(3);
//! let mut gen = MaskGenerator::new(42);
//! let plan = gen.draw(&spec, &space, &windows).expect("valid space");
//! assert_eq!(plan.faults.len(), 1);
//! assert!((100..1100).contains(&plan.faults[0].cycle));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use gpufi_sim::{FaultSpace, FaultTarget, InjectionPlan, KernelWindow, PlannedFault, Scope};

pub use gpufi_sim::{FaultModel, Structure};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;

/// How the bits of one multi-bit fault are placed (paper §III.A: "(i)
/// different bits of the same entry … (ii) different entries").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MultiBitMode {
    /// All flipped bits land in the same entry (register / cache line /
    /// memory word neighbourhood) — the physically common multi-bit upset.
    SameEntry,
    /// Each flipped bit lands at an independent position of the structure.
    Spread,
}

impl MultiBitMode {
    /// The mode's spelling (`--spread` selects `spread`).
    pub fn name(self) -> &'static str {
        match self {
            MultiBitMode::SameEntry => "same-entry",
            MultiBitMode::Spread => "spread",
        }
    }
}

/// The shape of the faults a campaign draws.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Target structure.
    pub structure: Structure,
    /// Thread or warp scope (register file / local memory only).
    pub scope: Scope,
    /// Bits flipped per fault (1 = single-bit, 3 = the paper's triple-bit).
    pub bits_per_fault: u32,
    /// Placement of multi-bit flips.
    pub multi_bit: MultiBitMode,
    /// CTAs (shared memory) or SIMT cores (L1s) that receive the same
    /// flips.
    pub replicate: u32,
    /// Temporal fault model (`--fault-model`): transient flips or
    /// stuck-at pins.
    pub model: FaultModel,
}

impl CampaignSpec {
    /// A single-bit, thread-scope, unreplicated campaign on `structure`.
    pub fn new(structure: Structure) -> Self {
        CampaignSpec {
            structure,
            scope: Scope::Thread,
            bits_per_fault: 1,
            multi_bit: MultiBitMode::SameEntry,
            replicate: 1,
            model: FaultModel::Transient,
        }
    }

    /// Sets the number of bits flipped per fault.
    pub fn bits(mut self, k: u32) -> Self {
        self.bits_per_fault = k.max(1);
        self
    }

    /// Sets warp scope (register file / local memory).
    pub fn warp_scope(mut self) -> Self {
        self.scope = Scope::Warp;
        self
    }

    /// Sets the multi-bit placement mode.
    pub fn mode(mut self, mode: MultiBitMode) -> Self {
        self.multi_bit = mode;
        self
    }

    /// Sets CTA / core replication.
    pub fn replicated(mut self, n: u32) -> Self {
        self.replicate = n.max(1);
        self
    }

    /// Sets the temporal fault model.
    pub fn model(mut self, model: FaultModel) -> Self {
        self.model = model;
        self
    }
}

/// Why a fault could not be drawn for a given kernel/chip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DrawError {
    /// The kernel never executes (no cycle windows).
    EmptyWindows,
    /// The targeted structure has zero injectable bits here (e.g. L1D on
    /// GTX Titan, or shared memory for a kernel that uses none).
    EmptyStructure(Structure),
    /// The requested fault model is not defined for the targeted structure
    /// (stuck-at is only modelled where writes are re-pinned — see
    /// [`Structure::supports_stuck_at`]).
    UnsupportedModel(FaultModel, Structure),
    /// A fault asks for more bits than its placement holds: a same-entry
    /// fault's entry (32 bits for the register file, the entry width of a
    /// control site, the line for caches) or a spread fault's structure.
    TooManyBits {
        /// The targeted structure.
        structure: Structure,
        /// The requested bits per fault.
        bits: u32,
        /// The most bits the placement holds.
        width: u64,
        /// The placement mode the width applies to.
        mode: MultiBitMode,
    },
}

impl fmt::Display for DrawError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DrawError::EmptyWindows => f.write_str("kernel has no execution windows"),
            DrawError::EmptyStructure(s) => {
                write!(
                    f,
                    "structure `{s}` has no injectable bits for this kernel/chip"
                )
            }
            DrawError::UnsupportedModel(m, s) => {
                write!(
                    f,
                    "fault model `{m}` is not supported for structure `{s}` \
                     (stuck-at is modelled for the register file, shared \
                     memory and the control-unit sites only)"
                )
            }
            DrawError::TooManyBits {
                structure,
                bits,
                width,
                mode,
            } => write!(
                f,
                "cannot flip {bits} bits per fault in `{structure}`: a {} fault holds at most \
                 {width} bits",
                mode.name()
            ),
        }
    }
}

impl std::error::Error for DrawError {}

/// Checks that `spec`'s bits per fault fit a placement `width` bits wide,
/// before any RNG draw (so a rejected width cannot shift a campaign's
/// draws).
fn fits(spec: &CampaignSpec, (width, mode): (u64, MultiBitMode)) -> Result<(), DrawError> {
    if u64::from(spec.bits_per_fault) <= width {
        return Ok(());
    }
    Err(DrawError::TooManyBits {
        structure: spec.structure,
        bits: spec.bits_per_fault,
        width,
        mode,
    })
}

/// The seeded fault-mask generator.
///
/// One generator drives one campaign; drawing `runs` plans from a fresh
/// generator with the same seed reproduces the campaign exactly.
#[derive(Debug)]
pub struct MaskGenerator {
    rng: StdRng,
}

impl MaskGenerator {
    /// Creates a generator from a campaign seed.
    pub fn new(seed: u64) -> Self {
        MaskGenerator {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Draws `k` distinct bit positions below `space` with Floyd's
    /// sampling algorithm: exactly `k` RNG draws, no rejection loop, so the
    /// cost stays bounded even when `k` approaches `space`.
    ///
    /// # Panics
    ///
    /// Panics if `space == 0` or `k as u64 > space`.
    pub fn distinct_bits(&mut self, k: u32, space: u64) -> Vec<u64> {
        assert!(space > 0, "empty bit space");
        assert!(
            u64::from(k) <= space,
            "cannot draw {k} distinct bits from {space}"
        );
        let mut out: Vec<u64> = Vec::with_capacity(k as usize);
        for j in (space - u64::from(k))..space {
            let t = self.rng.gen_range(0..j + 1);
            if out.contains(&t) {
                out.push(j);
            } else {
                out.push(t);
            }
        }
        out
    }

    /// Draws a uniform value in `0..bound` (campaign-internal sampling,
    /// e.g. picking a kernel window by its cycle weight).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn uniform(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty sampling range");
        self.rng.gen_range(0..bound)
    }

    /// Picks a uniformly random cycle inside the union of the half-open
    /// `[start, end)` cycle `spans`; `None` when they are empty.
    fn draw_cycle(&mut self, spans: impl Iterator<Item = (u64, u64)> + Clone) -> Option<u64> {
        let total: u64 = spans.clone().map(|(s, e)| e.saturating_sub(s)).sum();
        if total == 0 {
            return None;
        }
        let mut r = self.rng.gen_range(0..total);
        for (s, e) in spans {
            let len = e.saturating_sub(s);
            if r < len {
                return Some(s + r);
            }
            r -= len;
        }
        None
    }

    /// Draws one fault plan per the campaign spec.
    ///
    /// # Errors
    ///
    /// Returns [`DrawError`] when the windows are empty or the targeted
    /// structure has no injectable bits for this kernel/chip.
    pub fn draw(
        &mut self,
        spec: &CampaignSpec,
        space: &FaultSpace,
        windows: &[KernelWindow],
    ) -> Result<InjectionPlan, DrawError> {
        if spec.model.is_permanent() && !spec.structure.supports_stuck_at() {
            return Err(DrawError::UnsupportedModel(spec.model, spec.structure));
        }
        let (total, entry_bits) = space.bits_of(spec.structure);
        // Registers and control sites place every bit in one entry.
        let placement = match spec.structure {
            Structure::RegisterFile
            | Structure::SimtStack
            | Structure::Sched
            | Structure::Scoreboard => (entry_bits, MultiBitMode::SameEntry),
            _ if spec.multi_bit == MultiBitMode::Spread => (total, MultiBitMode::Spread),
            _ => (entry_bits.min(total), MultiBitMode::SameEntry),
        };
        if total > 0 {
            fits(spec, placement)?;
        }
        let cycle = self
            .draw_cycle(windows.iter().map(|w| (w.start, w.end)))
            .ok_or(DrawError::EmptyWindows)?;
        let k = spec.bits_per_fault;
        let entry_lot = self.rng.gen::<u64>();
        let replicate = spec.replicate;
        if total == 0 {
            return Err(DrawError::EmptyStructure(spec.structure));
        }
        let target = match spec.structure {
            Structure::RegisterFile => {
                let reg = self.rng.gen_range(0..space.regs_per_thread);
                self.register_target(spec, entry_lot, reg)
            }
            // Control-unit sites: the population is dynamic (live warps,
            // current stack depth), so the draw fixes only the bits of
            // the one entry and resolves the rest against the live state
            // at the injection cycle via lots.
            Structure::SimtStack => FaultTarget::SimtStack {
                entry_lot,
                depth_lot: self.rng.gen::<u64>(),
                bits: self.entry_u8_bits(k, entry_bits),
            },
            Structure::Sched => FaultTarget::Sched {
                entry_lot,
                bits: self.entry_u8_bits(k, entry_bits),
            },
            Structure::Scoreboard => FaultTarget::Scoreboard {
                entry_lot,
                bits: self.entry_u8_bits(k, entry_bits),
            },
            array => {
                let bits = self.structure_bits(k, total, entry_bits, spec.multi_bit);
                let core_lot = entry_lot;
                match array {
                    Structure::LocalMemory => FaultTarget::LocalMemory { entry_lot, bits },
                    Structure::SharedMemory => FaultTarget::SharedMemory {
                        cta_lot: entry_lot,
                        replicate,
                        bits,
                    },
                    Structure::L1Data => FaultTarget::L1Data {
                        core_lot,
                        replicate,
                        bits,
                    },
                    Structure::L1Tex => FaultTarget::L1Tex {
                        core_lot,
                        replicate,
                        bits,
                    },
                    Structure::L1Const => FaultTarget::L1Const {
                        core_lot,
                        replicate,
                        bits,
                    },
                    _ => FaultTarget::L2 { bits },
                }
            }
        };
        Ok(InjectionPlan {
            faults: vec![PlannedFault { cycle, target }],
            model: spec.model,
        })
    }

    /// The register-file target of `spec` on register `reg`: distinct bit
    /// positions within the 32-bit register, thread- or warp-scoped.
    fn register_target(&mut self, spec: &CampaignSpec, entry_lot: u64, reg: u32) -> FaultTarget {
        FaultTarget::RegisterFile {
            scope: spec.scope,
            entry_lot,
            reg,
            bits: self.entry_u8_bits(spec.bits_per_fault, 32),
        }
    }

    /// Draws one register-file fault plan **within a stratum**: the cycle
    /// is uniform over the union of the stratum's live `segments`
    /// (half-open `[start, end)` cycle ranges) and the register is pinned
    /// to `reg` — everything else (scope, entry lottery, bit positions)
    /// follows the spec exactly like [`MaskGenerator::draw`].
    ///
    /// This is the conditional distribution of the flat register-file draw
    /// given "the fault landed in this (register, live-interval) stratum",
    /// which is what makes the stratified estimator's reweighting exact.
    /// Determinism mirrors the flat path: one plan per generator seeded
    /// from the campaign's per-run `mix_seed`.
    ///
    /// # Errors
    ///
    /// [`DrawError::EmptyWindows`] when the segments have zero total
    /// length.
    pub fn draw_register_stratum(
        &mut self,
        spec: &CampaignSpec,
        segments: &[(u64, u64)],
        reg: u32,
    ) -> Result<InjectionPlan, DrawError> {
        fits(spec, (32, MultiBitMode::SameEntry))?;
        let cycle = self
            .draw_cycle(segments.iter().copied())
            .ok_or(DrawError::EmptyWindows)?;
        let entry_lot = self.rng.gen::<u64>();
        let target = self.register_target(spec, entry_lot, reg);
        Ok(InjectionPlan {
            faults: vec![PlannedFault { cycle, target }],
            model: spec.model,
        })
    }

    /// Draws a whole campaign: `runs` independent plans.
    ///
    /// # Errors
    ///
    /// See [`MaskGenerator::draw`].
    pub fn campaign(
        &mut self,
        spec: &CampaignSpec,
        space: &FaultSpace,
        windows: &[KernelWindow],
        runs: usize,
    ) -> Result<Vec<InjectionPlan>, DrawError> {
        (0..runs).map(|_| self.draw(spec, space, windows)).collect()
    }

    /// Draws `k` distinct bit positions within one control-structure entry
    /// of `entry_bits` bits (entries are at most 64 bits wide).
    fn entry_u8_bits(&mut self, k: u32, entry_bits: u64) -> Vec<u8> {
        self.distinct_bits(k, entry_bits)
            .into_iter()
            .map(|b| b as u8)
            .collect()
    }

    /// Draws `k` bit positions within a `total`-bit structure whose entries
    /// are `entry_bits` wide, honouring the multi-bit placement mode.
    fn structure_bits(
        &mut self,
        k: u32,
        total: u64,
        entry_bits: u64,
        mode: MultiBitMode,
    ) -> Vec<u64> {
        match mode {
            MultiBitMode::Spread => self.distinct_bits(k, total),
            MultiBitMode::SameEntry => {
                let entry_bits = entry_bits.min(total);
                let entries = total / entry_bits;
                let entry = self.rng.gen_range(0..entries.max(1));
                let base = entry * entry_bits;
                let width = entry_bits.min(total - base);
                self.distinct_bits(k, width)
                    .into_iter()
                    .map(|b| base + b)
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpufi_sim::{CacheConfig, SCHED_ENTRY_BITS, SCOREBOARD_ENTRY_BITS, SIMT_STACK_ENTRY_BITS};

    fn space() -> FaultSpace {
        FaultSpace {
            regs_per_thread: 10,
            lmem_bits: 256,
            smem_bits: 1024,
            l1d_bits: Some(1 << 19),
            l1t_bits: 1 << 20,
            l1c_bits: 1 << 19,
            l2_bits: 1 << 24,
            num_sms: 30,
            bits_per_line: CacheConfig::with_capacity(1 << 16, 4, 128).bits_per_line(),
            l1c_bits_per_line: CacheConfig::with_capacity(1 << 16, 4, 64).bits_per_line(),
        }
    }

    fn windows() -> Vec<KernelWindow> {
        vec![
            KernelWindow {
                kernel: "k".into(),
                start: 10,
                end: 20,
            },
            KernelWindow {
                kernel: "k".into(),
                start: 50,
                end: 100,
            },
        ]
    }

    #[test]
    fn distinct_bits_are_distinct_and_in_range() {
        let mut g = MaskGenerator::new(1);
        for _ in 0..100 {
            let bits = g.distinct_bits(3, 32);
            assert_eq!(bits.len(), 3);
            let mut sorted = bits.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "bits must be distinct: {bits:?}");
            assert!(bits.iter().all(|&b| b < 32));
        }
    }

    #[test]
    fn distinct_bits_can_exhaust_the_space() {
        // Floyd's algorithm draws the full space without rejection; the
        // old loop was quadratic (and pathological) here.
        let mut g = MaskGenerator::new(9);
        for space in [1u64, 2, 7, 32, 64] {
            let mut bits = g.distinct_bits(space as u32, space);
            bits.sort_unstable();
            let expect: Vec<u64> = (0..space).collect();
            assert_eq!(bits, expect, "k == space must enumerate every bit");
        }
    }

    #[test]
    fn uniform_stays_below_bound() {
        let mut g = MaskGenerator::new(10);
        for _ in 0..1000 {
            assert!(g.uniform(7) < 7);
        }
        assert_eq!(g.uniform(1), 0);
    }

    #[test]
    fn cycles_fall_in_windows() {
        let mut g = MaskGenerator::new(2);
        let spec = CampaignSpec::new(Structure::RegisterFile);
        let mut seen_first = false;
        let mut seen_second = false;
        for _ in 0..200 {
            let p = g.draw(&spec, &space(), &windows()).unwrap();
            let c = p.faults[0].cycle;
            assert!((10..20).contains(&c) || (50..100).contains(&c), "cycle {c}");
            seen_first |= (10..20).contains(&c);
            seen_second |= (50..100).contains(&c);
        }
        assert!(seen_first && seen_second, "both windows must be sampled");
    }

    #[test]
    fn register_faults_respect_allocation() {
        let mut g = MaskGenerator::new(3);
        let spec = CampaignSpec::new(Structure::RegisterFile)
            .bits(3)
            .warp_scope();
        for _ in 0..50 {
            let p = g.draw(&spec, &space(), &windows()).unwrap();
            match &p.faults[0].target {
                FaultTarget::RegisterFile {
                    scope, reg, bits, ..
                } => {
                    assert_eq!(*scope, Scope::Warp);
                    assert!(*reg < 10);
                    assert_eq!(bits.len(), 3);
                    assert!(bits.iter().all(|&b| b < 32));
                }
                other => panic!("wrong target {other:?}"),
            }
        }
    }

    #[test]
    fn stratum_draw_pins_register_and_segments() {
        let mut g = MaskGenerator::new(12);
        let spec = CampaignSpec::new(Structure::RegisterFile).bits(3);
        let segs = [(10u64, 20u64), (50, 60)];
        let mut seen = [false; 2];
        for _ in 0..100 {
            let p = g.draw_register_stratum(&spec, &segs, 4).unwrap();
            let c = p.faults[0].cycle;
            assert!((10..20).contains(&c) || (50..60).contains(&c), "cycle {c}");
            seen[0] |= c < 20;
            seen[1] |= c >= 50;
            match &p.faults[0].target {
                FaultTarget::RegisterFile { reg, bits, .. } => {
                    assert_eq!(*reg, 4);
                    assert_eq!(bits.len(), 3);
                }
                other => panic!("wrong target {other:?}"),
            }
        }
        assert!(seen[0] && seen[1], "both segments must be sampled");
        // Zero-length segment sets are rejected like empty windows.
        let err = g.draw_register_stratum(&spec, &[(5, 5)], 0).unwrap_err();
        assert_eq!(err, DrawError::EmptyWindows);
        // Determinism: same seed, same plans.
        let a = MaskGenerator::new(13)
            .draw_register_stratum(&spec, &segs, 2)
            .unwrap();
        let b = MaskGenerator::new(13)
            .draw_register_stratum(&spec, &segs, 2)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn same_entry_mode_keeps_bits_in_one_line() {
        // A chip with 64-byte data lines: the entry width must follow it.
        let narrow = CacheConfig::with_capacity(32768, 4, 64);
        let narrow_space = FaultSpace {
            l1d_bits: Some(narrow.total_bits()),
            bits_per_line: narrow.bits_per_line(),
            ..space()
        };
        for (structure, space) in [(Structure::L2, space()), (Structure::L1Data, narrow_space)] {
            let mut g = MaskGenerator::new(4);
            let spec = CampaignSpec::new(structure)
                .bits(3)
                .mode(MultiBitMode::SameEntry);
            let (_, line_bits) = space.bits_of(structure);
            for _ in 0..200 {
                let p = g.draw(&spec, &space, &windows()).unwrap();
                let (FaultTarget::L2 { bits } | FaultTarget::L1Data { bits, .. }) =
                    &p.faults[0].target
                else {
                    panic!("wrong target");
                };
                let line = bits[0] / line_bits;
                assert!(bits.iter().all(|&b| b / line_bits == line), "{bits:?}");
            }
        }
    }

    #[test]
    fn empty_structures_are_rejected() {
        let mut g = MaskGenerator::new(5);
        let mut s = space();
        s.smem_bits = 0;
        let err = g
            .draw(&CampaignSpec::new(Structure::SharedMemory), &s, &windows())
            .unwrap_err();
        assert_eq!(err, DrawError::EmptyStructure(Structure::SharedMemory));
        s.l1d_bits = None;
        let err = g
            .draw(&CampaignSpec::new(Structure::L1Data), &s, &windows())
            .unwrap_err();
        assert_eq!(err, DrawError::EmptyStructure(Structure::L1Data));
    }

    #[test]
    fn empty_windows_are_rejected() {
        let mut g = MaskGenerator::new(6);
        let err = g
            .draw(&CampaignSpec::new(Structure::L2), &space(), &[])
            .unwrap_err();
        assert_eq!(err, DrawError::EmptyWindows);
    }

    #[test]
    fn campaigns_are_reproducible() {
        let spec = CampaignSpec::new(Structure::L1Tex).bits(2);
        let a = MaskGenerator::new(7)
            .campaign(&spec, &space(), &windows(), 20)
            .unwrap();
        let b = MaskGenerator::new(7)
            .campaign(&spec, &space(), &windows(), 20)
            .unwrap();
        assert_eq!(a, b);
        let c = MaskGenerator::new(8)
            .campaign(&spec, &space(), &windows(), 20)
            .unwrap();
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn structure_names() {
        // The re-exported type is the simulator's: one name table.
        assert_eq!(Structure::RegisterFile.to_string(), "register file");
        let target = FaultTarget::L2 { bits: vec![0] };
        assert_eq!(target.structure(), Structure::L2);
        assert_eq!(Structure::ALL.len(), 7);
        assert_eq!(Structure::PAPER.len(), 6);
        assert_eq!(Structure::ON_CHIP.len(), 5);
        assert!(!Structure::ON_CHIP.contains(&Structure::LocalMemory));
        assert_eq!(Structure::CONTROL.len(), 3);
        assert_eq!(Structure::SimtStack.to_string(), "SIMT stack");
        assert_eq!(Structure::Sched.to_string(), "warp scheduler");
        assert_eq!(Structure::Scoreboard.to_string(), "scoreboard");
        for s in Structure::CONTROL {
            assert!(!Structure::ALL.contains(&s), "{s} is not a data array");
        }
    }

    #[test]
    fn control_structure_draws_stay_in_entry_space() {
        let mut g = MaskGenerator::new(21);
        for (structure, entry_bits) in [
            (Structure::SimtStack, SIMT_STACK_ENTRY_BITS),
            (Structure::Sched, SCHED_ENTRY_BITS),
            (Structure::Scoreboard, SCOREBOARD_ENTRY_BITS),
        ] {
            let spec = CampaignSpec::new(structure).bits(3);
            for _ in 0..50 {
                let p = g.draw(&spec, &space(), &windows()).unwrap();
                let bits: &[u8] = match &p.faults[0].target {
                    FaultTarget::SimtStack { bits, .. }
                    | FaultTarget::Sched { bits, .. }
                    | FaultTarget::Scoreboard { bits, .. } => bits,
                    other => panic!("wrong target {other:?}"),
                };
                assert_eq!(bits.len(), 3);
                assert!(
                    bits.iter().all(|&b| u64::from(b) < entry_bits),
                    "{structure}: {bits:?}"
                );
                let mut sorted = bits.to_vec();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), 3, "bits must be distinct");
            }
        }
    }

    #[test]
    fn faults_wider_than_their_placement_are_rejected() {
        let too_many = |structure, bits, width, mode| DrawError::TooManyBits {
            structure,
            bits,
            width,
            mode,
        };
        let same = MultiBitMode::SameEntry;
        let line = space().bits_per_line;
        for (structure, width) in [
            (Structure::RegisterFile, 32),
            (Structure::SimtStack, SIMT_STACK_ENTRY_BITS),
            (Structure::Sched, SCHED_ENTRY_BITS),
            (Structure::Scoreboard, SCOREBOARD_ENTRY_BITS),
            (Structure::L2, line),
        ] {
            let mut g = MaskGenerator::new(23);
            let fit = CampaignSpec::new(structure).bits(width as u32);
            assert_eq!(g.draw(&fit, &space(), &windows()).unwrap().faults.len(), 1);
            // Spreading does not widen a register or a control entry.
            let wide = fit.bits(width as u32 + 1).mode(MultiBitMode::Spread);
            let want = match structure {
                Structure::L2 => Ok(()),
                _ => Err(too_many(structure, width as u32 + 1, width, same)),
            };
            assert_eq!(g.draw(&wide, &space(), &windows()).map(drop), want);
            let err = g.draw(&wide.mode(same), &space(), &windows());
            assert_eq!(err, Err(too_many(structure, width as u32 + 1, width, same)));
        }
        let mut g = MaskGenerator::new(24);
        let l2 = 1 << 24;
        let spread = CampaignSpec::new(Structure::L2)
            .bits(l2 + 1)
            .mode(MultiBitMode::Spread);
        let err = g.draw(&spread, &space(), &windows()).unwrap_err();
        assert_eq!(
            err,
            too_many(Structure::L2, l2 + 1, u64::from(l2), spread.multi_bit)
        );
        assert!(err.to_string().contains("at most 16777216 bits"), "{err}");
        let rf = CampaignSpec::new(Structure::RegisterFile).bits(33);
        let err = g.draw_register_stratum(&rf, &[(10, 20)], 3).unwrap_err();
        assert_eq!(err, too_many(Structure::RegisterFile, 33, 32, same));
    }

    #[test]
    fn stuck_at_draws_carry_model_and_reject_unsupported_structures() {
        let mut g = MaskGenerator::new(22);
        let spec = CampaignSpec::new(Structure::RegisterFile).model(FaultModel::StuckAt1);
        let p = g.draw(&spec, &space(), &windows()).unwrap();
        assert_eq!(p.model, FaultModel::StuckAt1);
        let p = g.draw_register_stratum(&spec, &[(10, 20)], 3).unwrap();
        assert_eq!(p.model, FaultModel::StuckAt1);
        // Transient plans keep the default model.
        let p = g
            .draw(&CampaignSpec::new(Structure::L2), &space(), &windows())
            .unwrap();
        assert_eq!(p.model, FaultModel::Transient);
        for s in [
            Structure::LocalMemory,
            Structure::L1Data,
            Structure::L1Tex,
            Structure::L1Const,
            Structure::L2,
        ] {
            let spec = CampaignSpec::new(s).model(FaultModel::StuckAt0);
            let err = g.draw(&spec, &space(), &windows()).unwrap_err();
            assert_eq!(err, DrawError::UnsupportedModel(FaultModel::StuckAt0, s));
            assert!(!s.supports_stuck_at());
        }
        for s in [
            Structure::RegisterFile,
            Structure::SharedMemory,
            Structure::SimtStack,
            Structure::Sched,
            Structure::Scoreboard,
        ] {
            assert!(s.supports_stuck_at(), "{s}");
        }
    }
}
