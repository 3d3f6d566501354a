//! Micro-benchmarks of the simulator substrate: assembler, cache,
//! end-to-end kernel execution and injection-campaign throughput.
//!
//! A dependency-free harness (`harness = false`): each benchmark is timed
//! with `std::time::Instant` and printed as a one-line summary.  Run with
//! `cargo bench --bench simulator`.

use gpufi_core::{profile, run_campaign, CampaignConfig, Workload};
use gpufi_faults::{CampaignSpec, Structure};
use gpufi_isa::Module;
use gpufi_sim::{CacheConfig, Gpu, GpuConfig, LaunchDims};
use gpufi_workloads::{HotSpot, VectorAdd};
use std::time::Instant;

const KERNEL: &str = r#"
.kernel saxpy
.params 4
    S2R  R4, SR_TID.X
    S2R  R5, SR_CTAID.X
    S2R  R6, SR_NTID.X
    IMAD R4, R5, R6, R4
    ISETP.GE P0, R4, R3
@P0 EXIT
    SHL  R5, R4, 2
    IADD R6, R0, R5
    LDG  R7, [R6]
    IADD R8, R1, R5
    LDG  R9, [R8]
    FFMA R7, R7, 2.0f, R9
    IADD R10, R2, R5
    STG  [R10], R7
    EXIT
"#;

/// Times `iters` calls of `f` (after one warm-up call) and prints the
/// per-iteration mean; returns the total wall seconds.
fn time<T>(label: &str, iters: u32, mut f: impl FnMut() -> T) -> f64 {
    std::hint::black_box(f());
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    let total = start.elapsed().as_secs_f64();
    println!(
        "{label:<44} {:>12.3} ms/iter  ({iters} iters)",
        total / f64::from(iters) * 1e3
    );
    total
}

fn bench_assembler() {
    time("assemble_saxpy_module", 200, || {
        Module::assemble(std::hint::black_box(KERNEL)).unwrap()
    });
}

fn bench_cache() {
    let cfg = CacheConfig::with_capacity(64 * 1024, 4, 128);
    time("cache_fill_read_64k", 200, || {
        let mut cache = gpufi_sim::mem::Cache::new(cfg);
        let line = vec![0u8; 128];
        let mut buf = [0u8; 4];
        for la in 0..512u64 {
            cache.fill(la, &line, false);
            cache.read(la, 0, &mut buf);
        }
        cache
    });
}

fn bench_kernel_execution() {
    let module = Module::assemble(KERNEL).unwrap();
    let kernel = module.kernel("saxpy").unwrap();
    time("launch_saxpy_4096_rtx2060", 20, || {
        let mut gpu = Gpu::new(GpuConfig::rtx2060());
        let x = gpu.malloc(4096 * 4).unwrap();
        let y = gpu.malloc(4096 * 4).unwrap();
        let z = gpu.malloc(4096 * 4).unwrap();
        gpu.launch(kernel, LaunchDims::new(32, 128), &[x, y, z, 4096])
            .unwrap()
    });
}

fn bench_workload_golden() {
    let hs = HotSpot::default();
    let card = GpuConfig::rtx2060();
    time("golden_profile_hotspot", 5, || profile(&hs, &card).unwrap());
}

fn bench_injection_campaign() {
    let va = VectorAdd::default();
    let card = GpuConfig::rtx2060();
    let golden = profile(&va, &card).unwrap();
    let cfg = CampaignConfig::new(CampaignSpec::new(Structure::RegisterFile), 4, 7).with_threads(1);
    time("campaign_4_runs_va_regfile", 10, || {
        run_campaign(&va, &card, &cfg, &golden).unwrap()
    });
    // Baseline: the same 4 executions without any injection machinery.
    time("baseline_4_runs_va_no_injection", 10, || {
        for _ in 0..4 {
            let mut gpu = Gpu::new(card.clone());
            va.run(&mut gpu).unwrap();
        }
    });
}

fn main() {
    bench_assembler();
    bench_cache();
    bench_kernel_execution();
    bench_workload_golden();
    bench_injection_campaign();
}
