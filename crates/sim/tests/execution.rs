//! End-to-end execution tests: SIMT control flow, barriers, memory spaces,
//! traps and fault injection observable through the public API.

use gpufi_isa::Module;
use gpufi_sim::{FaultModel, FaultTarget, Gpu, GpuConfig, InjectionPlan, LaunchDims, Scope, Trap};

fn small_gpu() -> Gpu {
    let mut cfg = GpuConfig::rtx2060();
    cfg.num_sms = 4;
    Gpu::new(cfg)
}

/// y[i] = x[i] * 2 for 64 elements over 2 CTAs.
#[test]
fn simple_map_kernel() {
    let m = Module::assemble(
        r#"
.kernel double
.params 3
    S2R R3, SR_TID.X
    S2R R4, SR_CTAID.X
    S2R R5, SR_NTID.X
    IMAD R3, R4, R5, R3
    ISETP.GE P0, R3, R2
@P0 EXIT
    SHL R4, R3, 2
    IADD R5, R0, R4
    LDG R6, [R5]
    IADD R6, R6, R6
    IADD R5, R1, R4
    STG [R5], R6
    EXIT
"#,
    )
    .unwrap();
    let mut gpu = small_gpu();
    let n = 64u32;
    let x = gpu.malloc(n * 4).unwrap();
    let y = gpu.malloc(n * 4).unwrap();
    gpu.write_u32s(x, &(0..n).collect::<Vec<_>>()).unwrap();
    let stats = gpu
        .launch(
            m.kernel("double").unwrap(),
            LaunchDims::new(2, 32),
            &[x, y, n],
        )
        .unwrap();
    assert!(stats.cycles() > 0);
    assert!(stats.instructions > 0);
    let out = gpu.read_u32s(y, n as usize).unwrap();
    assert_eq!(out, (0..n).map(|v| v * 2).collect::<Vec<_>>());
}

/// Divergent if/else with SSY/SYNC: even lanes add 1, odd lanes add 2.
#[test]
fn divergence_reconverges() {
    let m = Module::assemble(
        r#"
.kernel diverge
.params 1
    S2R R1, SR_TID.X
    AND R2, R1, 1
    ISETP.EQ P0, R2, 0
    MOV R3, 100
    SSY join
@!P0 BRA odd
    IADD R3, R3, 1
    BRA join
odd:
    IADD R3, R3, 2
join:
    SYNC
    ; all lanes: R3 += 10 after reconvergence
    IADD R3, R3, 10
    SHL R4, R1, 2
    IADD R4, R0, R4
    STG [R4], R3
    EXIT
"#,
    )
    .unwrap();
    let mut gpu = small_gpu();
    let out_buf = gpu.malloc(32 * 4).unwrap();
    gpu.launch(
        m.kernel("diverge").unwrap(),
        LaunchDims::new(1, 32),
        &[out_buf],
    )
    .unwrap();
    let out = gpu.read_u32s(out_buf, 32).unwrap();
    for (i, v) in out.iter().enumerate() {
        let expect = if i % 2 == 0 { 111 } else { 112 };
        assert_eq!(*v, expect, "lane {i}");
    }
}

/// A data-dependent loop: each lane iterates `tid` times.
#[test]
fn divergent_loop() {
    let m = Module::assemble(
        r#"
.kernel looped
.params 1
    S2R R1, SR_TID.X
    MOV R2, 0          ; counter
    MOV R3, 0          ; sum
    SSY done
loop:
    ISETP.GE P0, R2, R1
@P0 BRA done
    IADD R3, R3, 5
    IADD R2, R2, 1
    BRA loop
done:
    SYNC
    SHL R4, R1, 2
    IADD R4, R0, R4
    STG [R4], R3
    EXIT
"#,
    )
    .unwrap();
    let mut gpu = small_gpu();
    let out_buf = gpu.malloc(32 * 4).unwrap();
    gpu.launch(
        m.kernel("looped").unwrap(),
        LaunchDims::new(1, 32),
        &[out_buf],
    )
    .unwrap();
    let out = gpu.read_u32s(out_buf, 32).unwrap();
    for (i, v) in out.iter().enumerate() {
        assert_eq!(*v, 5 * i as u32, "lane {i}");
    }
}

/// Shared-memory tree reduction with barriers: one CTA sums 64 values.
#[test]
fn shared_memory_reduction_with_barriers() {
    let m = Module::assemble(
        r#"
.kernel reduce
.params 2
.smem 256
    S2R R2, SR_TID.X
    SHL R3, R2, 2
    IADD R4, R0, R3
    LDG R5, [R4]
    STS [R3], R5
    BAR
    MOV R6, 32
rloop:
    ISETP.GE P0, R2, R6
@P0 BRA skip
    IADD R7, R2, R6
    SHL R7, R7, 2
    LDS R8, [R7]
    LDS R9, [R3]
    IADD R9, R9, R8
    STS [R3], R9
skip:
    BAR
    SHR R6, R6, 1
    ISETP.GT P1, R6, 0
@P1 BRA rloop
    ISETP.NE P2, R2, 0
@P2 EXIT
    LDS R10, [R3]
    STG [R1], R10
    EXIT
"#,
    )
    .unwrap();
    let n = 64u32;
    let run = |plan: Option<InjectionPlan>| {
        let mut gpu = small_gpu();
        let x = gpu.malloc(n * 4).unwrap();
        let out_buf = gpu.malloc(4).unwrap();
        gpu.write_u32s(x, &(1..=n).collect::<Vec<_>>()).unwrap();
        if let Some(plan) = plan {
            gpu.arm_faults(plan);
        }
        let stats = gpu
            .launch(
                m.kernel("reduce").unwrap(),
                LaunchDims::new(1, 64),
                &[x, out_buf],
            )
            .unwrap();
        let applied = gpu.injection_records().iter().all(|r| r.applied);
        (
            gpu.read_u32s(out_buf, 1).unwrap()[0],
            stats.cycles(),
            applied,
        )
    };
    let (golden, golden_cycles, _) = run(None);
    assert_eq!(golden, n * (n + 1) / 2);

    // A stuck-at-1 bit replicated over "two" CTAs when only one is
    // resident reaches the same cell twice: that is one defect, and it
    // must behave exactly like the unreplicated fault.
    let stuck = |replicate| {
        let target = FaultTarget::SharedMemory {
            cta_lot: 5,
            replicate,
            bits: vec![12],
        };
        run(Some(
            InjectionPlan::single(golden_cycles / 2, target).with_model(FaultModel::StuckAt1),
        ))
    };
    let once = stuck(1);
    assert_eq!(stuck(2), once);
    assert!(once.2, "the fault must land");
    assert_ne!(once.0, golden, "a stuck partial-sum bit corrupts the total");
}

/// Local memory is private per thread and persists across instructions.
#[test]
fn local_memory_private_per_thread() {
    let m = Module::assemble(
        r#"
.kernel locals
.params 1
.lmem 16
    S2R R1, SR_TID.X
    S2R R5, SR_CTAID.X
    S2R R6, SR_NTID.X
    IMAD R1, R5, R6, R1 ; global thread id
    MOV R2, 0
    STL [R2+4], R1      ; local[4] = global tid (private per thread)
    LDL R3, [R2+4]
    IADD R3, R3, 1000
    SHL R4, R1, 2
    IADD R4, R0, R4
    STG [R4], R3
    EXIT
"#,
    )
    .unwrap();
    let mut gpu = small_gpu();
    let out_buf = gpu.malloc(64 * 4).unwrap();
    gpu.launch(
        m.kernel("locals").unwrap(),
        LaunchDims::new(2, 32),
        &[out_buf],
    )
    .unwrap();
    let out = gpu.read_u32s(out_buf, 64).unwrap();
    for (i, v) in out.iter().enumerate() {
        assert_eq!(*v, 1000 + i as u32, "thread {i}");
    }
}

/// Texture loads read global memory through the texture cache.
#[test]
fn texture_path_reads_memory() {
    let m = Module::assemble(
        r#"
.kernel tex
.params 2
    S2R R2, SR_TID.X
    SHL R3, R2, 2
    IADD R4, R0, R3
    LDT R5, [R4]
    IADD R5, R5, 7
    IADD R6, R1, R3
    STG [R6], R5
    EXIT
"#,
    )
    .unwrap();
    let mut gpu = small_gpu();
    let x = gpu.malloc(32 * 4).unwrap();
    let y = gpu.malloc(32 * 4).unwrap();
    gpu.write_u32s(x, &(0..32).collect::<Vec<_>>()).unwrap();
    gpu.launch(m.kernel("tex").unwrap(), LaunchDims::new(1, 32), &[x, y])
        .unwrap();
    assert_eq!(gpu.read_u32s(y, 32).unwrap(), (7..39).collect::<Vec<u32>>());
}

/// Null-page dereferences trap; other unbacked addresses are demand-paged
/// zeros (matching GPGPU-Sim's functional memory).
#[test]
fn null_page_traps_but_wild_loads_read_zero() {
    let m =
        Module::assemble(".kernel null\n.params 0\n MOV R1, 16\n LDG R2, [R1]\n EXIT\n").unwrap();
    let mut gpu = small_gpu();
    let err = gpu
        .launch(m.kernel("null").unwrap(), LaunchDims::new(1, 32), &[])
        .unwrap_err();
    assert!(matches!(err, Trap::InvalidAddress { .. }));

    let m = Module::assemble(
        ".kernel wild\n.params 1\n MOV R1, 0x7f000000\n LDG R2, [R1]\n \
         STG [R0], R2\n EXIT\n",
    )
    .unwrap();
    let mut gpu = small_gpu();
    let out = gpu.malloc(128).unwrap();
    gpu.write_u32s(out, &[7]).unwrap();
    gpu.launch(m.kernel("wild").unwrap(), LaunchDims::new(1, 1), &[out])
        .unwrap();
    assert_eq!(gpu.read_u32s(out, 1).unwrap()[0], 0, "wild load reads zero");
}

/// Misaligned accesses trap.
#[test]
fn misaligned_store_traps() {
    let m = Module::assemble(".kernel mis\n.params 1\n IADD R1, R0, 2\n STG [R1], R0\n EXIT\n")
        .unwrap();
    let mut gpu = small_gpu();
    let buf = gpu.malloc(16).unwrap();
    let err = gpu
        .launch(m.kernel("mis").unwrap(), LaunchDims::new(1, 1), &[buf])
        .unwrap_err();
    assert!(matches!(err, Trap::Misaligned { .. }));
}

/// An infinite loop hits the watchdog.
#[test]
fn watchdog_fires() {
    let m = Module::assemble(".kernel spin\nhere: BRA here\n").unwrap();
    let mut gpu = small_gpu();
    gpu.set_watchdog(10_000);
    let err = gpu
        .launch(m.kernel("spin").unwrap(), LaunchDims::new(1, 32), &[])
        .unwrap_err();
    assert_eq!(err, Trap::Watchdog);
}

/// A scoreboard flip of a high `ready_at` bit stalls the only warp, so the
/// idle machine fast-forwards ~2^60 cycles straight into the watchdog: a
/// timeout, never an overflow panic in the occupancy integral — debug and
/// release builds must classify the run alike.
#[test]
fn high_ready_at_flip_times_out_without_panic() {
    let m = Module::assemble(
        ".kernel spin\n MOV R1, 0\nloop: IADD R1, R1, 1\n ISETP.LT P0, R1, 100\n@P0 BRA loop\n EXIT\n",
    )
    .unwrap();
    let mut gpu = small_gpu();
    gpu.arm_faults(InjectionPlan::single(
        50,
        FaultTarget::Scoreboard {
            entry_lot: 0,
            bits: vec![60],
        },
    ));
    gpu.set_watchdog(10_000);
    let err = gpu
        .launch(m.kernel("spin").unwrap(), LaunchDims::new(1, 32), &[])
        .unwrap_err();
    assert_eq!(err, Trap::Watchdog);
    assert!(gpu.injection_records()[0].applied);
}

/// The cycle watchdog spans launches, so it also bounds a host loop that
/// never stops launching: with kernels of k ≥ 1 cycles, launch ⌊N/k⌋ + 1
/// at the latest crosses `set_watchdog(N)`.  A kernel that ends in its
/// first scheduler iteration (a lone `EXIT`) adds no cycle, so the bound
/// needs k ≥ 1 — which is why workload host loops must be bounded.
#[test]
fn watchdog_bounds_a_host_loop_of_launches() {
    let m = Module::assemble(".kernel quick\n NOP\n EXIT\n.kernel bare\n EXIT\n").unwrap();
    let dims = LaunchDims::new(1, 32);
    let mut gpu = small_gpu();
    gpu.launch(m.kernel("quick").unwrap(), dims, &[]).unwrap();
    let k = gpu.cycle();
    assert!(k >= 1);

    const N: u64 = 5_000;
    let mut gpu = small_gpu();
    gpu.set_watchdog(N);
    let mut launches = 0;
    let err = loop {
        launches += 1;
        assert!(launches <= N / k + 1, "launch {launches} passed the bound");
        if let Err(t) = gpu.launch(m.kernel("quick").unwrap(), dims, &[]) {
            break t;
        }
    };
    assert_eq!(err, Trap::Watchdog);

    let mut gpu = small_gpu();
    gpu.set_watchdog(5);
    for _ in 0..1_000 {
        gpu.launch(m.kernel("bare").unwrap(), dims, &[]).unwrap();
    }
    assert_eq!(gpu.cycle(), 0);
}

/// Cycle counters accumulate across launches and windows are recorded.
#[test]
fn multi_launch_windows() {
    let m = Module::assemble(".kernel a\n NOP\n EXIT\n.kernel b\n NOP\n NOP\n EXIT\n").unwrap();
    let mut gpu = small_gpu();
    gpu.launch(m.kernel("a").unwrap(), LaunchDims::new(1, 32), &[])
        .unwrap();
    gpu.launch(m.kernel("b").unwrap(), LaunchDims::new(1, 32), &[])
        .unwrap();
    gpu.launch(m.kernel("a").unwrap(), LaunchDims::new(1, 32), &[])
        .unwrap();
    let stats = gpu.stats();
    assert_eq!(stats.launches.len(), 3);
    assert_eq!(stats.windows_of("a").len(), 2);
    assert_eq!(
        stats.static_kernels(),
        vec!["a".to_string(), "b".to_string()]
    );
    // Windows are disjoint and ordered.
    let w = &stats.launches;
    assert!(w[0].end_cycle <= w[1].start_cycle);
    assert!(w[1].end_cycle <= w[2].start_cycle);
}

/// A register-file fault in an active thread changes the output (or at
/// least is recorded as applied).
#[test]
fn register_fault_is_applied_and_can_corrupt() {
    let src = r#"
.kernel addone
.params 2
    S2R R2, SR_TID.X
    SHL R3, R2, 2
    IADD R4, R0, R3
    LDG R5, [R4]
    MOV R6, 0
pad0: IADD R6, R6, 1
    ISETP.LT P0, R6, 200
@P0 BRA pad0
    IADD R5, R5, 1
    IADD R7, R1, R3
    STG [R7], R5
    EXIT
"#;
    let m = Module::assemble(src).unwrap();
    // Golden run.
    let mut gpu = small_gpu();
    let x = gpu.malloc(32 * 4).unwrap();
    let y = gpu.malloc(32 * 4).unwrap();
    gpu.write_u32s(x, &[5; 32]).unwrap();
    gpu.launch(m.kernel("addone").unwrap(), LaunchDims::new(1, 32), &[x, y])
        .unwrap();
    let golden = gpu.read_u32s(y, 32).unwrap();
    assert_eq!(golden, vec![6u32; 32]);
    let golden_cycles = gpu.stats().total_cycles();

    // Faulty run: flip bit 7 of R6 (the pad counter) mid-loop in some
    // thread.  The loop self-corrects (counter compares >=) or produces a
    // timeout/longer run; either way the record must show "applied".
    let mut gpu = small_gpu();
    let x = gpu.malloc(32 * 4).unwrap();
    let y = gpu.malloc(32 * 4).unwrap();
    gpu.write_u32s(x, &[5; 32]).unwrap();
    gpu.arm_faults(InjectionPlan::single(
        golden_cycles / 2,
        FaultTarget::RegisterFile {
            scope: Scope::Thread,
            entry_lot: 3,
            reg: 5, // R5: the loaded value
            bits: vec![30],
        },
    ));
    gpu.set_watchdog(golden_cycles * 2);
    let res = gpu.launch(m.kernel("addone").unwrap(), LaunchDims::new(1, 32), &[x, y]);
    let rec = &gpu.injection_records()[0];
    assert!(rec.applied, "fault must land in an active thread");
    assert_eq!(rec.structure, "register file");
    if res.is_ok() {
        let out = gpu.read_u32s(y, 32).unwrap();
        // R5 flip at bit 30 must corrupt exactly one output element,
        // unless the flip happened after the store retired.
        let diffs = out.iter().zip(&golden).filter(|(a, b)| a != b).count();
        assert!(diffs <= 1, "at most one corrupted element, got {diffs}");
    }
}

/// Warp-scope faults hit all lanes of one warp.
#[test]
fn warp_fault_corrupts_whole_warp() {
    let src = r#"
.kernel addone
.params 2
    S2R R2, SR_TID.X
    S2R R3, SR_CTAID.X
    S2R R4, SR_NTID.X
    IMAD R2, R3, R4, R2
    MOV R6, 0
pad1: IADD R6, R6, 1
    ISETP.LT P0, R6, 100
@P0 BRA pad1
    SHL R3, R2, 2
    IADD R4, R0, R3
    LDG R5, [R4]
    IADD R5, R5, 1
    IADD R7, R1, R3
    STG [R7], R5
    EXIT
"#;
    let m = Module::assemble(src).unwrap();
    let mut gpu = small_gpu();
    let x = gpu.malloc(64 * 4).unwrap();
    let y = gpu.malloc(64 * 4).unwrap();
    gpu.write_u32s(x, &[0; 64]).unwrap();
    gpu.launch(m.kernel("addone").unwrap(), LaunchDims::new(2, 32), &[x, y])
        .unwrap();
    let golden_cycles = gpu.stats().total_cycles();

    let mut gpu = small_gpu();
    let x = gpu.malloc(64 * 4).unwrap();
    let y = gpu.malloc(64 * 4).unwrap();
    gpu.write_u32s(x, &[0; 64]).unwrap();
    gpu.arm_faults(InjectionPlan::single(
        golden_cycles / 3,
        FaultTarget::RegisterFile {
            scope: Scope::Warp,
            entry_lot: 0,
            reg: 0, // R0: the x-pointer parameter — every lane now loads junk
            bits: vec![25],
        },
    ));
    gpu.set_watchdog(golden_cycles * 4);
    let res = gpu.launch(m.kernel("addone").unwrap(), LaunchDims::new(2, 32), &[x, y]);
    assert!(gpu.injection_records()[0].applied);
    // Corrupting a pointer by bit 25 (32 MB) almost certainly leaves the
    // allocation: expect a crash; tolerate SDC if the flip aliased.
    if let Err(t) = res {
        assert!(matches!(
            t,
            Trap::InvalidAddress { .. } | Trap::Misaligned { .. }
        ));
    }
}

/// Faults armed for cycles after the application ends are recorded as
/// never-applied (skipped) — they stay pending.
#[test]
fn late_fault_never_fires() {
    let m = Module::assemble(".kernel a\n NOP\n EXIT\n").unwrap();
    let mut gpu = small_gpu();
    gpu.arm_faults(InjectionPlan::single(
        1_000_000,
        FaultTarget::L2 { bits: vec![0] },
    ));
    gpu.launch(m.kernel("a").unwrap(), LaunchDims::new(1, 32), &[])
        .unwrap();
    assert!(gpu.injection_records().is_empty());
}

/// L2 faults on valid lines corrupt data read back by the host.
#[test]
fn l2_fault_visible_after_run() {
    let m = Module::assemble(
        r#"
.kernel touch
.params 1
    S2R R1, SR_TID.X
    SHL R2, R1, 2
    IADD R2, R0, R2
    MOV R3, 0
    STG [R2], R3
    MOV R4, 0
pad2: IADD R4, R4, 1
    ISETP.LT P0, R4, 500
@P0 BRA pad2
    EXIT
"#,
    )
    .unwrap();
    let mut gpu = small_gpu();
    let buf = gpu.malloc(32 * 4).unwrap();
    gpu.launch(m.kernel("touch").unwrap(), LaunchDims::new(1, 32), &[buf])
        .unwrap();
    let golden_cycles = gpu.stats().total_cycles();

    // Re-run with L2 data faults injected mid-run over many bits to make a
    // visible corruption likely.
    let mut gpu = small_gpu();
    let buf = gpu.malloc(32 * 4).unwrap();
    let bits: Vec<u64> = (0..64).map(|i| 57 + i * 8).collect(); // data bits, first line of bank 0
    gpu.arm_faults(InjectionPlan::single(
        golden_cycles * 2 / 3,
        FaultTarget::L2 { bits },
    ));
    gpu.set_watchdog(golden_cycles * 2);
    gpu.launch(m.kernel("touch").unwrap(), LaunchDims::new(1, 32), &[buf])
        .unwrap();
    let rec = &gpu.injection_records()[0];
    assert_eq!(rec.structure, "L2 cache");
    // At least the record exists; corruption depends on line placement.
    assert_eq!(rec.outcomes.len(), 64);
}

/// Occupancy statistics are within (0, 1] and residency means are sane.
#[test]
fn occupancy_statistics() {
    let m = Module::assemble(
        ".kernel a\n MOV R1, 0\nl: IADD R1, R1, 1\n ISETP.LT P0, R1, 50\n@P0 BRA l\n EXIT\n",
    )
    .unwrap();
    let mut gpu = small_gpu();
    let stats = gpu
        .launch(m.kernel("a").unwrap(), LaunchDims::new(8, 128), &[])
        .unwrap();
    assert!(stats.occupancy > 0.0 && stats.occupancy <= 1.0);
    assert!(stats.mean_threads_per_sm > 0.0);
    assert!(stats.mean_ctas_per_sm >= 1.0);
}

/// GTX Titan (no L1D) runs the same kernels.
#[test]
fn titan_runs_without_l1d() {
    let m = Module::assemble(
        r#"
.kernel copy
.params 2
    S2R R2, SR_TID.X
    SHL R3, R2, 2
    IADD R4, R0, R3
    LDG R5, [R4]
    IADD R6, R1, R3
    STG [R6], R5
    EXIT
"#,
    )
    .unwrap();
    let mut gpu = Gpu::new(GpuConfig::gtx_titan());
    let x = gpu.malloc(32 * 4).unwrap();
    let y = gpu.malloc(32 * 4).unwrap();
    gpu.write_u32s(x, &(100..132).collect::<Vec<_>>()).unwrap();
    gpu.launch(m.kernel("copy").unwrap(), LaunchDims::new(1, 32), &[x, y])
        .unwrap();
    assert_eq!(
        gpu.read_u32s(y, 32).unwrap(),
        (100..132).collect::<Vec<_>>()
    );
}

/// Identical configuration ⇒ bit-identical results and cycle counts
/// (determinism is what makes golden-run classification sound).
#[test]
fn execution_is_deterministic() {
    let m = Module::assemble(
        r#"
.kernel k
.params 2
    S2R R2, SR_TID.X
    S2R R3, SR_CTAID.X
    S2R R4, SR_NTID.X
    IMAD R2, R3, R4, R2
    SHL R3, R2, 2
    IADD R4, R0, R3
    LDG R5, [R4]
    I2F R5, R5
    FMUL R5, R5, 1.5f
    F2I R5, R5
    IADD R6, R1, R3
    STG [R6], R5
    EXIT
"#,
    )
    .unwrap();
    let run = || {
        let mut gpu = small_gpu();
        let x = gpu.malloc(256 * 4).unwrap();
        let y = gpu.malloc(256 * 4).unwrap();
        gpu.write_u32s(x, &(0..256).collect::<Vec<_>>()).unwrap();
        gpu.launch(m.kernel("k").unwrap(), LaunchDims::new(8, 32), &[x, y])
            .unwrap();
        (gpu.read_u32s(y, 256).unwrap(), gpu.stats().total_cycles())
    };
    let (o1, c1) = run();
    let (o2, c2) = run();
    assert_eq!(o1, o2);
    assert_eq!(c1, c2);
}

/// Constant-space loads read the constant bank through the L1 constant
/// cache, and L1C faults corrupt subsequent hits (the paper's future-work
/// extension).
#[test]
fn constant_cache_loads_and_faults() {
    let m = Module::assemble(
        r#"
.kernel cread
.params 1
    S2R  R1, SR_TID.X
    SHL  R2, R1, 2
    LDC  R3, [R2]        ; c[tid]
    LDC  R4, [R2+128]    ; c[tid + 32]
    IADD R3, R3, R4
    IADD R5, R0, R2
    STG  [R5], R3
    EXIT
"#,
    )
    .unwrap();
    let mut gpu = small_gpu();
    let vals: Vec<u32> = (0..64).collect();
    let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
    gpu.write_const(0, &bytes).unwrap();
    let out = gpu.malloc(32 * 4).unwrap();
    gpu.launch(m.kernel("cread").unwrap(), LaunchDims::new(1, 32), &[out])
        .unwrap();
    let got = gpu.read_u32s(out, 32).unwrap();
    let expect: Vec<u32> = (0..32).map(|i| i + (i + 32)).collect();
    assert_eq!(got, expect);

    // Reads past the written extent are demand-zero, misalignment traps.
    let m2 = Module::assemble(
        ".kernel far\n.params 1\n MOV R1, 0x8000\n LDC R2, [R1]\n STG [R0], R2\n EXIT\n",
    )
    .unwrap();
    let mut gpu = small_gpu();
    let vals: Vec<u8> = vec![1; 64];
    gpu.write_const(0, &vals).unwrap();
    let out = gpu.malloc(128).unwrap();
    gpu.write_u32s(out, &[9]).unwrap();
    gpu.launch(m2.kernel("far").unwrap(), LaunchDims::new(1, 1), &[out])
        .unwrap();
    assert_eq!(gpu.read_u32s(out, 1).unwrap()[0], 0);
}

/// An armed L1 constant-cache fault is resolved and recorded.
#[test]
fn l1_const_fault_records() {
    let m = Module::assemble(
        r#"
.kernel cspin
.params 1
    S2R  R1, SR_TID.X
    SHL  R2, R1, 2
    MOV  R4, 0
cl: LDC  R3, [R2]
    IADD R4, R4, 1
    ISETP.LT P0, R4, 50
@P0 BRA cl
    IADD R5, R0, R2
    STG  [R5], R3
    EXIT
"#,
    )
    .unwrap();
    let mut gpu = small_gpu();
    gpu.write_const(0, &[0xAA; 128]).unwrap();
    let out = gpu.malloc(128).unwrap();
    gpu.launch(m.kernel("cspin").unwrap(), LaunchDims::new(1, 32), &[out])
        .unwrap();
    let golden_cycles = gpu.stats().total_cycles();

    let mut gpu = small_gpu();
    gpu.write_const(0, &[0xAA; 128]).unwrap();
    let out = gpu.malloc(128).unwrap();
    // Flip data bits of the first lines of SM0's constant cache mid-run.
    let bpl = 64 * 8 + u64::from(gpufi_sim::TAG_BITS);
    let bits: Vec<u64> = (0..8u64)
        .map(|l| l * bpl + u64::from(gpufi_sim::TAG_BITS))
        .collect();
    gpu.arm_faults(InjectionPlan::single(
        golden_cycles / 2,
        FaultTarget::L1Const {
            core_lot: 0,
            replicate: 4,
            bits,
        },
    ));
    gpu.set_watchdog(golden_cycles * 2);
    gpu.launch(m.kernel("cspin").unwrap(), LaunchDims::new(1, 32), &[out])
        .unwrap();
    let rec = &gpu.injection_records()[0];
    assert_eq!(rec.structure, "L1 constant cache");
    assert!(rec.applied, "the hot constant line must be valid");
}
