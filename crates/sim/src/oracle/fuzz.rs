//! Seeded random-kernel fuzzer: generates well-formed SASS-lite programs
//! and asserts the cycle-level simulator and the reference interpreter
//! agree on the final architectural state.
//!
//! Generated kernels cover the shapes that stress the simulator's
//! machinery: straight-line ALU blocks (integer, float, SFU, predicates,
//! `SEL`), branchy/divergent `SSY`/`BRA`/`SYNC` diamonds (including
//! nesting), barrier-synchronized shared-memory exchanges, per-thread
//! local-memory traffic, constant-bank loads (including reads past the
//! written extent), global/texture loads with scattered offsets, and
//! gathers whose lanes revisit a line after leaving it.
//! All immediates are emitted as raw `0x%08x` bit patterns so integer and
//! float operands round-trip exactly through the assembler.
//!
//! Well-formedness invariants the generator upholds (so any reported
//! divergence is a real simulator/oracle bug, not an artefact):
//!
//! * **termination** — all branches are forward, so every program is a
//!   DAG walk;
//! * **race freedom** — each thread stores only to its own output word,
//!   local slots and shared slot; cross-thread shared reads are fenced by
//!   `BAR` on both sides;
//! * **barrier placement** — `BAR` never appears inside a divergent
//!   region;
//! * **in-bounds accesses** — global/texture offsets stay inside the
//!   input buffer's slack words, shared/local offsets inside `.smem` /
//!   `.lmem` (constant reads may run past the written extent: both sides
//!   define them to read zeros);
//! * **lint cleanliness** — every prologue register is live (the first
//!   working register always loads through the input pointer), every
//!   working register folds into the stored output word, shift amounts
//!   are provably below 32 (immediates drawn in range, register amounts
//!   masked with `AND …, 31`), and diamond guards always mix in a
//!   thread-varying value so they are never provably constant — the whole
//!   corpus passes `gpufi_isa::analysis::lint_kernel` (enforced by the
//!   `fuzz_lint` integration test and the `gpufi fuzz` post-check).

use crate::config::GpuConfig;
use crate::gpu::Gpu;
use crate::grid::LaunchDims;
use crate::rng::splitmix64;
use gpufi_isa::Module;
use std::fmt::Write as _;

use super::DivergenceReport;

/// Read-only slack words appended to the input buffer, giving loads an
/// offset range that stays in bounds for every thread.  A power of two:
/// gathers reduce word indices modulo it with an `AND`.
const SLACK_WORDS: u32 = 64;
const _: () = assert!(SLACK_WORDS.is_power_of_two());

/// Words written to the constant bank before each launch.
const CONST_WORDS: u32 = 32;

/// Per-thread local memory of every generated kernel, bytes.
const LMEM_BYTES: u32 = 32;

/// Working registers the generated body computes in.
const WORK: [&str; 6] = ["R7", "R8", "R9", "R10", "R11", "R12"];

/// A deterministic splitmix64 generator — the only randomness source of
/// the fuzzer, so a failing seed reproduces exactly.
#[derive(Debug, Clone)]
pub struct FuzzRng(u64);

impl FuzzRng {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        FuzzRng(seed)
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.0)
    }

    /// Uniform draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u32) -> u32 {
        (self.next_u64() % u64::from(n)) as u32
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u32) as usize]
    }

    /// True with probability `pct`/100.
    fn chance(&mut self, pct: u32) -> bool {
        self.below(100) < pct
    }
}

/// One generated launch: the kernel source plus the launch geometry and
/// input data needed to run it — a self-contained repro.
#[derive(Debug, Clone)]
pub struct FuzzCase {
    /// The seed this case was generated from.
    pub seed: u64,
    /// SASS-lite source of the single kernel `fuzz`.
    pub source: String,
    /// Grid size (x-dimension CTAs).
    pub grid: u32,
    /// Block size (threads per CTA).
    pub block: u32,
    /// Input-buffer contents (`grid * block + SLACK` words).
    pub in_words: Vec<u32>,
    /// Constant-bank contents.
    pub const_words: Vec<u32>,
}

/// The chip the fuzzer runs on: the RTX 2060 model cut down to two SMs —
/// small enough to be fast, two cores so cross-SM CTA scheduling is still
/// exercised.
pub fn fuzz_config() -> GpuConfig {
    let mut cfg = GpuConfig::rtx2060();
    cfg.num_sms = 2;
    cfg
}

/// Generates the fuzz case for `seed`.
pub fn gen_case(seed: u64) -> FuzzCase {
    let mut rng = FuzzRng::new(seed);
    let grid = 1 + rng.below(4);
    let block = *rng.pick(&[32u32, 48, 64, 96, 128]);
    let total = grid * block;
    let in_words: Vec<u32> = (0..total + SLACK_WORDS)
        .map(|_| rng.next_u64() as u32)
        .collect();
    let const_words: Vec<u32> = (0..CONST_WORDS).map(|_| rng.next_u64() as u32).collect();

    let mut src = String::new();
    let _ = writeln!(src, ".kernel fuzz");
    let _ = writeln!(src, ".params 2");
    let _ = writeln!(src, ".smem {}", block * 4);
    let _ = writeln!(src, ".lmem {LMEM_BYTES}");
    // Prologue: R2 = tid, R3 = global tid, R5 = &out[gtid], R6 = &in[gtid].
    src.push_str(
        "    S2R   R2, SR_TID.X\n\
         \x20   S2R   R3, SR_CTAID.X\n\
         \x20   S2R   R4, SR_NTID.X\n\
         \x20   IMAD  R3, R3, R4, R2\n\
         \x20   SHL   R4, R3, 2\n\
         \x20   IADD  R5, R0, R4\n\
         \x20   IADD  R6, R1, R4\n",
    );

    // Initialize every working register from a load or an immediate.  The
    // first one always loads through `R6` so the prologue's input pointer
    // is never a dead register (the static linter runs over every
    // generated kernel, and an all-immediate draw would orphan it).
    for (i, w) in WORK.iter().enumerate() {
        match if i == 0 {
            1 + rng.below(2)
        } else {
            rng.below(4)
        } {
            0 => {
                let _ = writeln!(src, "    MOV   {w}, 0x{:08x}", rng.next_u64() as u32);
            }
            1 => {
                let _ = writeln!(src, "    LDG   {w}, [R6+{}]", 4 * rng.below(SLACK_WORDS));
            }
            2 => {
                let _ = writeln!(src, "    LDT   {w}, [R6+{}]", 4 * rng.below(SLACK_WORDS));
            }
            _ => {
                let _ = writeln!(
                    src,
                    "    MOV   R4, 0x{:08x}",
                    4 * rng.below(CONST_WORDS * 3)
                );
                let _ = writeln!(src, "    LDC   {w}, [R4]");
            }
        }
    }

    // Body: a random mix of segment shapes.
    let mut label = 0u32;
    let segments = 3 + rng.below(6);
    for _ in 0..segments {
        match rng.below(11) {
            0..=3 => {
                let n = 2 + rng.below(5);
                gen_alu_block(&mut rng, &mut src, n);
            }
            4..=6 => gen_diamond(&mut rng, &mut src, &mut label, 0),
            7 => gen_smem_exchange(&mut rng, &mut src, block),
            8 => gen_local(&mut rng, &mut src),
            9 => gen_const_load(&mut rng, &mut src),
            _ => gen_gather(&mut rng, &mut src),
        }
    }

    // Epilogue: fold the working set and store the thread's output word.
    src.push_str(
        "    XOR   R7, R7, R8\n\
         \x20   XOR   R7, R7, R9\n\
         \x20   XOR   R7, R7, R10\n\
         \x20   XOR   R7, R7, R11\n\
         \x20   XOR   R7, R7, R12\n\
         \x20   STG   [R5], R7\n\
         \x20   EXIT\n",
    );

    FuzzCase {
        seed,
        source: src,
        grid,
        block,
        in_words,
        const_words,
    }
}

/// Emits one random ALU/predicate instruction over the working set.
fn gen_alu_op(rng: &mut FuzzRng, src: &mut String) {
    // Occasional guard: generated predicates start at 0 and are set by
    // ISETP/FSETP below, so guarded ops are deterministic on both sides.
    let guard = if rng.chance(20) {
        format!(
            "@{}P{} ",
            if rng.chance(50) { "!" } else { "" },
            rng.below(4)
        )
    } else {
        "    ".to_string()
    };
    let d = *rng.pick(&WORK);
    let a = *rng.pick(&WORK);
    let b: String = if rng.chance(40) {
        format!("0x{:08x}", rng.next_u64() as u32)
    } else {
        (*rng.pick(&WORK)).to_string()
    };
    let c = *rng.pick(&WORK);
    let line = match rng.below(14) {
        0 => {
            let op = rng.pick(&["IADD", "ISUB", "IMUL", "IMIN", "IMAX"]);
            format!("{op}  {d}, {a}, {b}")
        }
        1 => {
            let op = *rng.pick(&["AND", "OR", "XOR", "SHL", "SHR", "SAR"]);
            if matches!(op, "SHL" | "SHR" | "SAR") {
                // Keep shift amounts provably in range: immediates are
                // drawn below 32 and register amounts are masked through
                // R4, so the shift-overflow lint stays quiet over the
                // whole corpus.
                if b.starts_with("0x") {
                    format!("{op}   {d}, {a}, {}", rng.below(32))
                } else {
                    let _ = writeln!(src, "    AND   R4, {b}, 31");
                    format!("{op}   {d}, {a}, R4")
                }
            } else {
                format!("{op}   {d}, {a}, {b}")
            }
        }
        2 => format!("IMAD  {d}, {a}, {b}, {c}"),
        3 => format!("NOT   {d}, {a}"),
        4 => {
            let op = rng.pick(&["FADD", "FSUB", "FMUL", "FDIV", "FMIN", "FMAX"]);
            format!("{op}  {d}, {a}, {b}")
        }
        5 => format!("FFMA  {d}, {a}, {b}, {c}"),
        6 => {
            let op = rng.pick(&["FRCP", "FSQRT", "FEX2", "FLG2", "FABS", "FNEG", "FFLOOR"]);
            format!("{op} {d}, {a}")
        }
        7 => format!("I2F   {d}, {a}"),
        8 => format!("F2I   {d}, {a}"),
        9 => {
            let cc = rng.pick(&["EQ", "NE", "LT", "LE", "GT", "GE"]);
            format!("ISETP.{cc} P{}, {a}, {b}", rng.below(4))
        }
        10 => {
            let cc = rng.pick(&["EQ", "NE", "LT", "LE", "GT", "GE"]);
            format!("FSETP.{cc} P{}, {a}, {b}", rng.below(4))
        }
        11 => format!("SEL   {d}, {a}, {b}, P{}", rng.below(4)),
        12 => format!("MOV   {d}, {b}"),
        _ => format!("IADD  {d}, {a}, {b}"),
    };
    let _ = writeln!(src, "{guard}{line}");
}

fn gen_alu_block(rng: &mut FuzzRng, src: &mut String, n: u32) {
    for _ in 0..n {
        gen_alu_op(rng, src);
    }
    // Occasionally re-store the thread's output word mid-body.
    if rng.chance(30) {
        let _ = writeln!(src, "    STG   [R5], {}", rng.pick(&WORK));
    }
}

/// Emits a structured if/else diamond: `SSY` / guarded `BRA` / else path /
/// `BRA` join / then path / `SYNC`.  Divergence comes from predicating on
/// the thread id, the global thread id or a data value.
fn gen_diamond(rng: &mut FuzzRng, src: &mut String, label: &mut u32, depth: u32) {
    let n = *label;
    *label += 1;
    let p = rng.below(4);
    // Condition source: tid (intra-warp divergence), gtid (inter-warp) or
    // a data register.
    let cond_src = match rng.below(3) {
        0 => {
            // Odd/even lanes: maximal intra-warp divergence.
            let _ = writeln!(src, "    AND   R4, R2, 0x{:08x}", 1 + rng.below(7));
            "R4"
        }
        1 => *rng.pick(&["R2", "R3"]),
        _ => {
            // Mix the global thread id into the data register so the
            // guard can never be provably constant (a working register
            // seeded from `MOV Rw, imm` would otherwise trip the
            // always-taken-branch lint for some draws).
            let _ = writeln!(src, "    XOR   R4, {}, R3", rng.pick(&WORK));
            "R4"
        }
    };
    let cc = rng.pick(&["EQ", "NE", "LT", "LE", "GT", "GE"]);
    let _ = writeln!(
        src,
        "    ISETP.{cc} P{p}, {cond_src}, 0x{:08x}",
        rng.below(64)
    );
    let _ = writeln!(src, "    SSY   Ls{n}");
    let _ = writeln!(src, "@P{p} BRA   Lt{n}");
    for _ in 0..1 + rng.below(3) {
        gen_alu_op(rng, src);
    }
    if depth < 2 && rng.chance(35) {
        gen_diamond(rng, src, label, depth + 1);
    }
    let _ = writeln!(src, "    BRA   Ls{n}");
    let _ = writeln!(src, "Lt{n}:");
    for _ in 0..1 + rng.below(3) {
        gen_alu_op(rng, src);
    }
    if depth < 2 && rng.chance(35) {
        gen_diamond(rng, src, label, depth + 1);
    }
    let _ = writeln!(src, "Ls{n}: SYNC");
}

/// Emits a barrier-fenced shared-memory exchange: every thread stores its
/// own slot, barriers, reads its (wrapped) neighbour's slot, barriers
/// again so a following exchange cannot race.
fn gen_smem_exchange(rng: &mut FuzzRng, src: &mut String, block: u32) {
    let w = *rng.pick(&WORK);
    let w2 = *rng.pick(&WORK);
    let _ = writeln!(src, "    SHL   R4, R2, 2");
    let _ = writeln!(src, "    STS   [R4], {w}");
    let _ = writeln!(src, "    BAR");
    let _ = writeln!(src, "    IADD  R4, R2, 1");
    let _ = writeln!(src, "    ISETP.GE P0, R4, {block}");
    let _ = writeln!(src, "@P0 MOV   R4, 0");
    let _ = writeln!(src, "    SHL   R4, R4, 2");
    let _ = writeln!(src, "    LDS   {w2}, [R4]");
    let _ = writeln!(src, "    BAR");
}

/// Emits a private local-memory round trip at a random aligned offset.
fn gen_local(rng: &mut FuzzRng, src: &mut String) {
    let off = 4 * rng.below(LMEM_BYTES / 4);
    let w = *rng.pick(&WORK);
    let w2 = *rng.pick(&WORK);
    let _ = writeln!(src, "    MOV   R4, {off}");
    let _ = writeln!(src, "    STL   [R4], {w}");
    let _ = writeln!(src, "    LDL   {w2}, [R4]");
}

/// Emits a constant-bank load, possibly past the written extent (both
/// sides read zeros there).
fn gen_const_load(rng: &mut FuzzRng, src: &mut String) {
    let _ = writeln!(src, "    MOV   R4, {}", 4 * rng.below(CONST_WORDS * 3));
    let _ = writeln!(src, "    LDC   {}, [R4]", rng.pick(&WORK));
}

/// Emits a gather: a global or texture load of input word
/// `(tid * odd) % SLACK_WORDS`, so a warp's lanes land on lines in an
/// order other than ascending (two lines A, B, A for `odd = 3`).  Loads
/// only: scattered stores would race between threads.
fn gen_gather(rng: &mut FuzzRng, src: &mut String) {
    let odd = 3 + 2 * rng.below(SLACK_WORDS / 2 - 1);
    let _ = writeln!(src, "    IMUL  R4, R2, 0x{odd:08x}");
    let _ = writeln!(src, "    AND   R4, R4, 0x{:08x}", SLACK_WORDS - 1);
    let _ = writeln!(src, "    SHL   R4, R4, 2");
    let _ = writeln!(src, "    IADD  R4, R1, R4");
    let op = *rng.pick(&["LDG", "LDT"]);
    let _ = writeln!(src, "    {op}   {}, [R4]", rng.pick(&WORK));
}

/// Runs one case through the cycle-level simulator with the lockstep
/// oracle attached, returning the first divergence if the two disagree.
///
/// # Errors
///
/// Returns the latched [`DivergenceReport`] on any sim-vs-oracle mismatch.
///
/// # Panics
///
/// Panics if the generated source fails to assemble or a host-API call
/// fails — generator bugs, not simulator divergences.
pub fn run_case(case: &FuzzCase) -> Result<(), Box<DivergenceReport>> {
    let module = Module::assemble(&case.source).unwrap_or_else(|e| {
        panic!(
            "fuzzer (seed {}) generated invalid asm: {e}\n{}",
            case.seed, case.source
        )
    });
    let kernel = module.kernel("fuzz").expect("kernel `fuzz` exists");
    let mut gpu = Gpu::new(fuzz_config());
    gpu.attach_oracle();
    let total = case.grid * case.block;
    let out = gpu.malloc(total * 4).expect("fuzz out alloc");
    let inp = gpu
        .malloc(case.in_words.len() as u32 * 4)
        .expect("fuzz in alloc");
    gpu.write_u32s(inp, &case.in_words).expect("fuzz h2d");
    let const_bytes: Vec<u8> = case
        .const_words
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    gpu.write_const(0, &const_bytes).expect("fuzz const write");
    let res = gpu.launch(kernel, LaunchDims::new(case.grid, case.block), &[out, inp]);
    if res.is_ok() {
        // Exercise the d2h comparison path too.
        let mut sink = vec![0u8; (total * 4) as usize];
        gpu.memcpy_d2h(out, &mut sink).expect("fuzz d2h");
    }
    match gpu.oracle_divergence() {
        Some(d) => Err(Box::new(d)),
        None => Ok(()),
    }
}

/// Generates and runs `count` cases from `seed`, panicking with the full
/// repro on the first divergence.  Returns the number of cases run.
///
/// # Panics
///
/// Panics with the divergence report and kernel source on any mismatch.
pub fn fuzz_sweep(seed: u64, count: u32) -> u32 {
    for i in 0..count {
        let case = gen_case(seed.wrapping_add(u64::from(i)));
        if let Err(d) = run_case(&case) {
            panic!(
                "sim-vs-oracle divergence at seed {} (case {i}):\n{d}\nsource:\n{}",
                case.seed, case.source
            );
        }
    }
    count
}
