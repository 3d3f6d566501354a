//! Micro-benchmarks of the simulator substrate: assembler, cache,
//! end-to-end kernel execution and injection-campaign throughput.
//!
//! A dependency-free harness (`harness = false`): each benchmark is timed
//! with `std::time::Instant` and printed as a one-line summary.  Run with
//! `cargo bench --bench simulator`.  The headline comparison at the end
//! measures the fault-lifetime early-exit engine against full simulation
//! on a register-file campaign.

use gpufi_core::{profile, run_campaign, CampaignConfig, Workload};
use gpufi_faults::{CampaignSpec, Structure};
use gpufi_isa::Module;
use gpufi_sim::{CacheConfig, Gpu, GpuConfig, LaunchDims};
use gpufi_workloads::{Gaussian, HotSpot, NeedlemanWunsch, VectorAdd};
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

/// Headline: a whole-application register-file campaign with
/// fault-lifetime early exit and work-stealing workers versus the same
/// campaign forced through full simulation (the seed engine's only mode).
///
/// Gaussian elimination launches `fan1`/`fan2` once per pivot, so a fault
/// whose taint dies inside launch `k` lets the engine skip the remaining
/// `2n - k` launches — the multi-kernel shape the paper's campaigns
/// actually have.  (A single-wave kernel like VectorAdd bounds the win:
/// dead-register taints only clear at lane exit, near the natural end.)
fn bench_early_exit_speedup() {
    let ge = Gaussian::default();
    let card = GpuConfig::rtx2060();
    let golden = profile(&ge, &card).unwrap();
    let runs = 300;
    // Checkpoints off in both modes: this comparison isolates early exit.
    let fast =
        CampaignConfig::new(CampaignSpec::new(Structure::RegisterFile), runs, 11).no_checkpoints();
    let full = fast.clone().no_early_exit();

    let t_full = time("campaign_300_ge_regfile_full_sim", 3, || {
        run_campaign(&ge, &card, &full, &golden).unwrap()
    });
    let t_fast = time("campaign_300_ge_regfile_early_exit", 3, || {
        run_campaign(&ge, &card, &fast, &golden).unwrap()
    });

    let r_fast = run_campaign(&ge, &card, &fast, &golden).unwrap();
    let r_full = run_campaign(&ge, &card, &full, &golden).unwrap();
    assert_eq!(
        r_fast.tally, r_full.tally,
        "early exit must not change classifications"
    );
    println!(
        "early-exit engine: {:.1} runs/s on {} threads, {:.1}% runs cut short, \
         {:.1}% faults applied",
        r_fast.stats.runs_per_sec,
        r_fast.stats.threads,
        r_fast.stats.early_exit_rate * 100.0,
        r_fast.stats.applied_rate * 100.0,
    );
    println!(
        "full-sim engine:   {:.1} runs/s on {} threads",
        r_full.stats.runs_per_sec, r_full.stats.threads,
    );
    println!("speedup (wall): {:.2}x", t_full / t_fast);
}

/// Headline: checkpoint-and-fork versus cold starts (the PR 1 engine) on a
/// late-injection-heavy campaign — injections restricted to the last third
/// of the golden window, where forking skips the most golden prefix.  Both
/// modes keep taint early exit on; the delta is purely the forking.
/// Returns the JSON fragment `main` folds into `BENCH_campaign.json`.
fn bench_checkpoint_speedup() -> String {
    let ge = Gaussian::default();
    let card = GpuConfig::rtx2060();
    let golden = profile(&ge, &card).unwrap();
    let total = golden.total_cycles();
    let (win_lo, win_hi) = (total * 2 / 3, total);
    let runs = 300;
    let forked = CampaignConfig::new(CampaignSpec::new(Structure::RegisterFile), runs, 11)
        .with_cycle_window(win_lo, win_hi);
    let cold = forked.clone().no_checkpoints();

    let t_cold = time("campaign_300_ge_late_third_cold_start", 3, || {
        run_campaign(&ge, &card, &cold, &golden).unwrap()
    });
    let t_forked = time("campaign_300_ge_late_third_checkpointed", 3, || {
        run_campaign(&ge, &card, &forked, &golden).unwrap()
    });

    let r_forked = run_campaign(&ge, &card, &forked, &golden).unwrap();
    let r_cold = run_campaign(&ge, &card, &cold, &golden).unwrap();
    assert_eq!(
        r_forked.tally, r_cold.tally,
        "checkpoint forking must not change classifications"
    );
    for (i, (a, b)) in r_forked.records.iter().zip(&r_cold.records).enumerate() {
        assert_eq!(a.effect, b.effect, "run {i}: effect");
        assert_eq!(a.cycles, b.cycles, "run {i}: cycles");
        assert_eq!(a.applied, b.applied, "run {i}: applied");
    }
    let speedup = t_cold / t_forked;
    let s = &r_forked.stats;
    println!(
        "checkpoint engine: {:.1} runs/s, {} snapshots ({:.1} MiB), \
         {:.1}% runs forked, {:.0} mean cycles skipped",
        s.runs_per_sec,
        s.checkpoints,
        s.checkpoint_bytes as f64 / (1024.0 * 1024.0),
        100.0 * s.restores as f64 / runs as f64,
        s.mean_skipped_cycles,
    );
    println!("cold-start engine: {:.1} runs/s", r_cold.stats.runs_per_sec);
    println!("speedup (wall): {speedup:.2}x");

    format!(
        "{{\n    \"benchmark\": \"campaign_300_ge_late_third\",\n    \"workload\": \"{}\",\n    \
         \"runs\": {runs},\n    \"cycle_window\": [{win_lo}, {win_hi}],\n    \
         \"golden_cycles\": {total},\n    \"iters\": 3,\n    \
         \"cold_runs_per_sec\": {:.2},\n    \"checkpoint_runs_per_sec\": {:.2},\n    \
         \"sim_runs_per_sec\": {:.2},\n    \"effective_runs_per_sec\": {:.2},\n    \
         \"speedup\": {speedup:.3},\n    \"checkpoints\": {},\n    \
         \"checkpoint_bytes\": {},\n    \"restore_rate\": {:.3},\n    \
         \"mean_skipped_cycles\": {:.1},\n    \"early_exit_rate\": {:.3},\n    \
         \"threads\": {}\n  }}",
        ge.name(),
        r_cold.stats.runs_per_sec,
        s.runs_per_sec,
        s.sim_runs_per_sec,
        s.effective_runs_per_sec,
        s.checkpoints,
        s.checkpoint_bytes,
        s.restores as f64 / runs as f64,
        s.mean_skipped_cycles,
        s.early_exit_rate,
        s.threads,
    )
}

/// ACE-style static pruning versus full simulation on Needleman-Wunsch,
/// whose `nw_diagonal` kernel allocates 22 registers but never reads
/// R5/R13/R14 — about one in seven register-file draws lands in provably
/// dead state and is classified Masked without forking a run.  Early exit
/// and checkpoints stay on in both modes; the delta is purely the prune.
/// Returns the JSON fragment `main` folds into `BENCH_campaign.json`.
fn bench_static_prune_speedup() -> String {
    let nw = NeedlemanWunsch::default();
    let card = GpuConfig::rtx2060();
    let golden = profile(&nw, &card).unwrap();
    let runs = 300;
    let pruned_cfg = CampaignConfig::new(CampaignSpec::new(Structure::RegisterFile), runs, 11);
    let full_cfg = pruned_cfg.clone().no_static_prune();

    let t_full = time("campaign_300_nw_regfile_no_static_prune", 3, || {
        run_campaign(&nw, &card, &full_cfg, &golden).unwrap()
    });
    let t_pruned = time("campaign_300_nw_regfile_static_prune", 3, || {
        run_campaign(&nw, &card, &pruned_cfg, &golden).unwrap()
    });

    let r_pruned = run_campaign(&nw, &card, &pruned_cfg, &golden).unwrap();
    let r_full = run_campaign(&nw, &card, &full_cfg, &golden).unwrap();
    assert_eq!(
        r_pruned.tally, r_full.tally,
        "static pruning must not change classifications"
    );
    for (i, (a, b)) in r_pruned.records.iter().zip(&r_full.records).enumerate() {
        assert_eq!(a.effect, b.effect, "run {i}: effect");
        assert_eq!(a.cycles, b.cycles, "run {i}: cycles");
    }
    let speedup = t_full / t_pruned;
    let s = &r_pruned.stats;
    println!(
        "static-prune engine: {:.1} runs/s ({:.1} simulated, {:.1} effective), \
         {} run(s) pruned ({:.1}%)",
        s.runs_per_sec,
        s.sim_runs_per_sec,
        s.effective_runs_per_sec,
        s.static_pruned,
        100.0 * s.static_pruned_rate,
    );
    println!(
        "full-sim engine:     {:.1} runs/s",
        r_full.stats.runs_per_sec
    );
    println!("speedup (wall): {speedup:.2}x");
    format!(
        "{{\n    \"benchmark\": \"campaign_300_nw_regfile\",\n    \"workload\": \"{}\",\n    \
         \"runs\": {runs},\n    \"golden_cycles\": {},\n    \"iters\": 3,\n    \
         \"full_runs_per_sec\": {:.2},\n    \"pruned_runs_per_sec\": {:.2},\n    \
         \"sim_runs_per_sec\": {:.2},\n    \"effective_runs_per_sec\": {:.2},\n    \
         \"speedup\": {speedup:.3},\n    \"static_pruned\": {},\n    \
         \"static_pruned_rate\": {:.3},\n    \"threads\": {}\n  }}",
        nw.name(),
        golden.total_cycles(),
        r_full.stats.runs_per_sec,
        s.runs_per_sec,
        s.sim_runs_per_sec,
        s.effective_runs_per_sec,
        s.static_pruned,
        s.static_pruned_rate,
        s.threads,
    )
}

fn main() {
    bench_assembler();
    bench_cache();
    bench_kernel_execution();
    bench_workload_golden();
    bench_injection_campaign();
    bench_early_exit_speedup();
    let checkpoint = bench_checkpoint_speedup();
    let static_prune = bench_static_prune_speedup();
    let json =
        format!("{{\n  \"checkpoint\": {checkpoint},\n  \"static_prune\": {static_prune}\n}}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_campaign.json");
    std::fs::write(path, json).expect("write BENCH_campaign.json");
    println!("results written to BENCH_campaign.json");
}
