//! Validation of the bit-granular refinement of ACE-style static pruning:
//! pre-classifying a register-file run as Masked because every flipped bit
//! lands in a statically dead *bit* of an otherwise-live register must
//! never change what the campaign concludes — only whether the run is
//! simulated at all.  Soundness is pinned three ways: an `--oracle-check`
//! campaign that confirms every verdict by full simulation, a fuzz-corpus
//! check that dead-bit flips really simulate to Masked, and a property
//! test that the bit-level analyses never contradict the register-level
//! liveness or the reference interpreter.

use gpufi::isa::analysis::{dead_bit_masks, dead_registers, KnownBits, KnownBitsAnalysis};
use gpufi::isa::Op;
use gpufi::prelude::*;
use gpufi::sim::oracle::fuzz::{fuzz_config, gen_case};
use gpufi::sim::oracle::{run_reference, FuncMem};

/// `--oracle-check` keeps the bit prune exactly like the register-level
/// prune, and confirms every dead-bit verdict against a cold, fully
/// simulated, unpruned run of it.
#[test]
fn oracle_check_confirms_bit_prune() {
    let w = NeedlemanWunsch::default();
    let card = GpuConfig::rtx2060();
    let golden = profile(&w, &card).unwrap();
    let cfg =
        CampaignConfig::new(CampaignSpec::new(Structure::RegisterFile), 60, 5).with_oracle_check();
    let result = run_campaign(&w, &card, &cfg, &golden).unwrap();
    let s = &result.stats;
    assert!(s.static_bit_pruned > 0);
    assert_eq!(s.oracle_mismatches, 0);
    let ran_to_end = result
        .records
        .iter()
        .zip(&result.rungs)
        .filter(|&(r, &rung)| rung == Rung::Simulated && !r.early_exit)
        .count();
    assert_eq!(s.oracle_verified, 60 - ran_to_end);
}

/// Stuck-at campaigns never bit-prune: a permanent fault re-pins the bit
/// after every write, so a statically dead *bit* of a live register is
/// still observable through the register's live bits once arithmetic
/// carries propagate into them.  Only the transient model qualifies.
#[test]
fn stuck_at_campaigns_do_not_bit_prune() {
    let w = ScalarProd::new(8);
    let card = GpuConfig::rtx2060();
    let golden = profile(&w, &card).unwrap();
    let spec = CampaignSpec::new(Structure::RegisterFile).model(FaultModel::StuckAt1);
    let cfg = CampaignConfig::new(spec, 60, 9);
    let result = run_campaign(&w, &card, &cfg, &golden).unwrap();
    assert_eq!(result.stats.static_bit_pruned, 0);
}

/// Fuzz-corpus soundness: for every generated kernel with statically dead
/// bits in *live* registers, actually flipping such a bit mid-run must
/// leave the output bytes and the cycle count untouched — the simulated
/// ground truth behind the `static_dead_bit` pre-classification.
#[test]
fn dead_bit_flips_simulate_to_masked() {
    let mut exercised = 0u32;
    for seed in 0..60u64 {
        let case = gen_case(seed);
        let module = Module::assemble(&case.source).expect("fuzzer emits valid asm");
        let kernel = module.kernel("fuzz").expect("kernel `fuzz` exists");
        let dead_regs = dead_registers(kernel);
        let masks = dead_bit_masks(kernel);
        // The first statically dead bit of a live register, if any: the
        // case the bit prune adds over the register-level prune.
        let Some((reg, bit)) = masks.iter().enumerate().find_map(|(r, &m)| {
            (m != 0 && !dead_regs.contains(&(r as u8)))
                .then(|| (r as u32, m.trailing_zeros() as u8))
        }) else {
            continue;
        };

        let run = |plan: Option<InjectionPlan>| -> (Vec<u8>, u64) {
            let mut gpu = Gpu::new(fuzz_config());
            let total = case.grid * case.block;
            let out = gpu.malloc(total * 4).expect("out alloc");
            let inp = gpu
                .malloc(case.in_words.len() as u32 * 4)
                .expect("in alloc");
            gpu.write_u32s(inp, &case.in_words).expect("h2d");
            let const_bytes: Vec<u8> = case
                .const_words
                .iter()
                .flat_map(|v| v.to_le_bytes())
                .collect();
            gpu.write_const(0, &const_bytes).expect("const write");
            if let Some(p) = plan {
                gpu.arm_faults(p);
            }
            gpu.launch(kernel, LaunchDims::new(case.grid, case.block), &[out, inp])
                .expect("fault-free-equivalent launch");
            let mut bytes = vec![0u8; (total * 4) as usize];
            gpu.memcpy_d2h(out, &mut bytes).expect("d2h");
            (bytes, gpu.stats().total_cycles())
        };

        let (golden_bytes, golden_cycles) = run(None);
        let plan = InjectionPlan::single(
            golden_cycles / 2,
            FaultTarget::RegisterFile {
                scope: Scope::Thread,
                entry_lot: seed,
                reg,
                bits: vec![bit],
            },
        );
        let (faulty_bytes, faulty_cycles) = run(Some(plan));
        assert_eq!(
            golden_bytes, faulty_bytes,
            "seed {seed}: flipping dead bit {bit} of live R{reg} corrupted the output"
        );
        assert_eq!(
            golden_cycles, faulty_cycles,
            "seed {seed}: flipping dead bit {bit} of live R{reg} perturbed timing"
        );
        exercised += 1;
    }
    // The corpus must actually contain the interesting shape, or the test
    // is vacuous.
    assert!(
        exercised >= 10,
        "only {exercised} fuzz cases had dead bits in live registers"
    );
}

/// Property test over 200 fuzzed kernels and the kernels of all 12 bundled
/// workloads: the bit-level liveness is a strict refinement of the
/// register-level `dead_registers` analysis — a register's dead-bit mask
/// is full exactly when the register-level analysis declares the whole
/// register dead, and never fuller.  This equivalence is what lets the
/// campaign keep one `dead_bit_masks` table and read "register-dead" off
/// it as `mask == u32::MAX`.
#[test]
fn bit_liveness_refines_dead_registers_on_fuzz_corpus() {
    let fuzzed = (0..200u64).map(|seed| {
        let module = Module::assemble(&gen_case(seed).source).expect("fuzzer emits valid asm");
        (format!("seed {seed}"), module)
    });
    let bundled = paper_suite()
        .into_iter()
        .map(|w| (w.name().to_string(), w.module().clone()));
    let mut modules = 0;
    for (origin, module) in fuzzed.chain(bundled) {
        modules += 1;
        for kernel in module.kernels() {
            let dead_regs = dead_registers(kernel);
            let masks = dead_bit_masks(kernel);
            assert_eq!(masks.len(), kernel.num_regs() as usize, "{origin}");
            for (r, &mask) in masks.iter().enumerate() {
                let reg_dead = dead_regs.contains(&(r as u8));
                assert_eq!(
                    mask == u32::MAX,
                    reg_dead,
                    "{origin} {} R{r}: dead-bit mask {mask:#010x} contradicts \
                     register-level dead={reg_dead}",
                    kernel.name()
                );
            }
        }
    }
    assert_eq!(modules, 200 + 12);
}

/// Property test over 200 fuzzed kernels: the known-bits analysis never
/// contradicts the reference interpreter.  Every bit the analysis claims
/// to know at a reachable `EXIT` must match the concrete register values
/// each thread holds when its `EXIT` retires (the meet over all reachable
/// exits is admitted by every thread's final state).
#[test]
fn known_bits_never_contradict_reference_interpreter() {
    let line_bytes = fuzz_config().l2.line_bytes;
    for seed in 0..200u64 {
        let case = gen_case(seed);
        let module = Module::assemble(&case.source).expect("fuzzer emits valid asm");
        let kernel = module.kernel("fuzz").expect("kernel `fuzz` exists");
        let analysis = KnownBitsAnalysis::compute(kernel);

        // Meet of the in-states at every reachable EXIT: weaker than any
        // single exit's state, so it must admit every thread's final
        // registers regardless of which exit the thread took.
        let mut joined: Option<Vec<KnownBits>> = None;
        for (i, instr) in kernel.instrs().iter().enumerate() {
            if !matches!(instr.op, Op::Exit) {
                continue;
            }
            let Some(state) = analysis.input(i) else {
                continue;
            };
            let regs: Vec<KnownBits> = (0..kernel.num_regs()).map(|r| state.reg(r)).collect();
            joined = Some(match joined {
                None => regs,
                Some(prev) => prev.into_iter().zip(regs).map(|(a, b)| a.meet(b)).collect(),
            });
        }
        let Some(joined) = joined else {
            panic!("seed {seed}: no reachable EXIT in the fuzz kernel");
        };

        let mut mem = FuncMem::new(line_bytes);
        let total = case.grid * case.block;
        let out = mem.alloc(total * 4).expect("out alloc");
        let inp = mem.alloc(case.in_words.len() as u32 * 4).expect("in alloc");
        let in_bytes: Vec<u8> = case.in_words.iter().flat_map(|v| v.to_le_bytes()).collect();
        assert!(mem.host_write(inp, &in_bytes));
        let const_bytes: Vec<u8> = case
            .const_words
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        assert!(mem.const_write(0, &const_bytes));
        let dims = LaunchDims::new(case.grid, case.block);
        let threads =
            run_reference(&mut mem, kernel, dims, &[out, inp]).expect("fuzz kernels run trap-free");

        for t in &threads {
            for (r, kb) in joined.iter().enumerate() {
                let Some(&v) = t.regs.get(r) else { continue };
                assert!(
                    kb.admits(v),
                    "seed {seed} cta {} tid {}: R{r}={v:#010x} contradicts \
                     known bits (zeros {:#010x}, ones {:#010x})",
                    t.cta,
                    t.tid,
                    kb.zeros,
                    kb.ones
                );
            }
        }
    }
}
