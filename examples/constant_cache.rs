//! Constant-cache study — the paper's *future work* (§IV.C.1),
//! implemented: a kernel whose coefficients live in the 64 KB constant
//! bank (`LDC` through the per-SM L1 constant cache), examined two ways:
//!
//! 1. a statistical campaign over the whole L1C bit space (like the
//!    paper's campaigns — most flips land on invalid lines and mask), and
//! 2. a *targeted* injection into the hot coefficient line of one SM,
//!    demonstrating the surgical end of the same API.
//!
//! ```text
//! cargo run --release --example constant_cache
//! ```

use gpufi::prelude::*;
use gpufi_isa::Module;

/// Iterative polynomial evaluation; the coefficients are re-read from the
/// constant bank every iteration, so mid-run L1C corruption propagates.
const SRC: &str = r#"
.kernel poly
.params 3            ; R0=x R1=y R2=n
    S2R  R3, SR_TID.X
    S2R  R4, SR_CTAID.X
    S2R  R5, SR_NTID.X
    IMAD R3, R4, R5, R3
    ISETP.GE P0, R3, R2
@P0 EXIT
    SHL  R6, R3, 2
    IADD R7, R0, R6
    LDG  R8, [R7]        ; x
    MOV  R16, 0          ; iteration counter
    MOV  R17, 0          ; accumulator
    MOV  R9, 0
it:
    LDC  R10, [R9+12]    ; c3
    LDC  R11, [R9+8]     ; c2
    LDC  R12, [R9+4]     ; c1
    LDC  R13, [R9]       ; c0
    FFMA R14, R10, R8, R11
    FFMA R14, R14, R8, R12
    FFMA R14, R14, R8, R13
    FADD R17, R17, R14
    IADD R16, R16, 1
    ISETP.LT P1, R16, 24
@P1 BRA it
    IADD R15, R1, R6
    STG  [R15], R17
    EXIT
"#;

const COEFFS: [f32; 4] = [0.5, -1.25, 2.0, 0.75];
const N: u32 = 1024;

struct Poly {
    module: Module,
}

impl Workload for Poly {
    fn name(&self) -> &'static str {
        "POLY"
    }

    fn module(&self) -> &Module {
        &self.module
    }

    fn run(&self, gpu: &mut Gpu) -> Result<Vec<u8>, WorkloadError> {
        let x: Vec<f32> = (0..N).map(|i| i as f32 / N as f32 - 0.5).collect();
        gpu.write_const_f32s(0, &COEFFS)?;
        let d_x = gpu.malloc(N * 4)?;
        let d_y = gpu.malloc(N * 4)?;
        gpu.write_f32s(d_x, &x)?;
        gpu.launch(
            self.module.kernel("poly").expect("kernel exists"),
            LaunchDims::new(N / 128, 128),
            &[d_x, d_y, N],
        )?;
        let mut out = vec![0u8; (N * 4) as usize];
        gpu.memcpy_d2h(d_y, &mut out)?;
        Ok(out)
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = Poly {
        module: Module::assemble(SRC)?,
    };
    let card = GpuConfig::rtx2060();
    let golden = profile(&workload, &card)?;
    println!("golden cycles: {}", golden.total_cycles());

    // 1. Statistical campaigns: the coefficients occupy ONE 64-byte line
    //    of a 64 KB cache, so random L1C flips almost always land on
    //    invalid lines and mask — small structures with small footprints
    //    have small failure ratios, which is the paper's whole point about
    //    per-structure attribution.
    for s in [Structure::L1Const, Structure::RegisterFile] {
        let cfg = CampaignConfig::new(CampaignSpec::new(s), 300, 77);
        let r = run_campaign(&workload, &card, &cfg, &golden)?;
        println!(
            "campaign  {:<18} FR {:.4}  ({})",
            s.name(),
            r.tally.failure_ratio(),
            r.tally
        );
    }

    // 2. Targeted injection: flip bit 30 of coefficient c1 (a mantissa
    //    high bit) inside the hot line of SM 0's constant cache, mid-run.
    //    Only CTAs resident on SM 0 read the corrupted value.
    let c1_bit = u64::from(gpufi_sim::TAG_BITS) + (4 * 8) + 30; // line 0, byte 4..8, bit 30
    let mut gpu = Gpu::new(card.clone());
    gpu.arm_faults(InjectionPlan::single(
        golden.total_cycles() / 2,
        FaultTarget::L1Const {
            core_lot: 0,
            replicate: 1,
            bits: vec![c1_bit],
        },
    ));
    gpu.set_watchdog(golden.total_cycles() * 2);
    let out = workload.run(&mut gpu)?;
    let rec = &gpu.injection_records()[0];
    println!(
        "\ntargeted  L1C line-0 flip applied: {} (outcome {:?})",
        rec.applied, rec.outcomes
    );
    let corrupted = out
        .chunks_exact(4)
        .zip(golden.output.chunks_exact(4))
        .filter(|(a, b)| a != b)
        .count();
    println!("targeted  corrupted outputs: {corrupted} of {N} (threads on the faulted SM)");
    Ok(())
}
