//! The six benchmark workloads and the closed loop every measurement drives:
//! `by_name` → `profile` → `run_campaign` / `serve_campaign` →
//! `campaign_csv` → file write — the steps `gpufi campaign --csv` takes.
//!
//! Why each workload was chosen is recorded in `BENCHMARK.json` and the
//! README; its parameters and pinned outputs live here, frozen after
//! calibration.

use gpufi_core::{
    campaign_csv, profile, run_campaign_with_hook, run_worker, serve_campaign, CampaignConfig,
    CampaignResult, GoldenProfile, ServiceConfig, Workload,
};
use gpufi_faults::{CampaignSpec, Structure};
use gpufi_sim::GpuConfig;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// How a workload's campaign is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `run_campaign`, one thread, no journal.
    Serial,
    /// `run_campaign`, two threads, journal fsync'd per record: the CLI's
    /// default path.
    Threads2Journal,
    /// `serve_campaign` with two `run_worker` threads over TCP loopback.
    Serve2,
}

/// Outputs that must not move: a change to any of them is a change to what
/// the simulator computes, not to how fast it computes it.
#[derive(Debug, Clone, Copy)]
pub struct Pins {
    pub golden_cycles: u64,
    pub golden_instructions: u64,
    /// FNV-1a of the CSV columns `run,effect,cycles,applied` of the
    /// `runs`-run campaign at seed 11.
    pub csv_digest_seed11: u64,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub bench: &'static str,
    pub card: &'static str,
    pub structure: Structure,
    pub stratified: bool,
    pub engine: Engine,
    /// Runs per campaign, sized so one repeat takes 0.5–0.8 s and a
    /// 12-second run makes about fifteen.
    pub runs: usize,
    pub pins: Pins,
}

/// The seed whose CSV digests are pinned.
pub const PINNED_SEED: u64 = 11;

/// Runs per campaign in `--quick` mode (smoke tests).  The stratified
/// workload needs at least one run per live stratum.
pub const QUICK_RUNS: usize = 24;

pub const WORKLOADS: [Spec; 6] = [
    Spec {
        name: "lud-rf",
        bench: "LUD",
        card: "rtx2060",
        structure: Structure::RegisterFile,
        stratified: false,
        engine: Engine::Serial,
        runs: 200,
        pins: Pins {
            golden_cycles: 85029,
            golden_instructions: 15400,
            csv_digest_seed11: 0xacef_fe97_1cdc_031a,
        },
    },
    Spec {
        name: "hs-shared-titan",
        bench: "HS",
        card: "titan",
        structure: Structure::SharedMemory,
        stratified: false,
        engine: Engine::Serial,
        runs: 300,
        pins: Pins {
            golden_cycles: 3521,
            golden_instructions: 6912,
            csv_digest_seed11: 0xf75e_150e_a890_c089,
        },
    },
    Spec {
        name: "bfs-l2-gv100",
        bench: "BFS",
        card: "gv100",
        structure: Structure::L2,
        stratified: false,
        engine: Engine::Serial,
        runs: 200,
        pins: Pins {
            golden_cycles: 14903,
            golden_instructions: 5950,
            csv_digest_seed11: 0x1a9e_1d56_f34d_8b70,
        },
    },
    Spec {
        name: "nw-rf-strat",
        bench: "NW",
        card: "rtx2060",
        structure: Structure::RegisterFile,
        stratified: true,
        engine: Engine::Serial,
        runs: 250,
        pins: Pins {
            golden_cycles: 65575,
            golden_instructions: 3024,
            csv_digest_seed11: 0xd3ab_b95f_1782_def1,
        },
    },
    Spec {
        name: "ge-rf-t2j",
        bench: "GE",
        card: "rtx2060",
        structure: Structure::RegisterFile,
        stratified: false,
        engine: Engine::Threads2Journal,
        runs: 200,
        pins: Pins {
            golden_cycles: 29785,
            golden_instructions: 23195,
            csv_digest_seed11: 0xdf0a_8143_d4e5_8f85,
        },
    },
    Spec {
        name: "ge-rf-serve2",
        bench: "GE",
        card: "rtx2060",
        structure: Structure::RegisterFile,
        stratified: false,
        engine: Engine::Serve2,
        runs: 100,
        pins: Pins {
            golden_cycles: 29785,
            golden_instructions: 23195,
            csv_digest_seed11: 0x798e_646d_d896_eeac,
        },
    },
];

pub fn by_name(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// FNV-1a, the repository's checksum for golden outputs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of the CSV columns `run,effect,cycles,applied` — the columns
/// every engine mode must agree on.
pub fn csv_digest(csv: &str) -> u64 {
    let mut cut = String::with_capacity(csv.len() / 2);
    for line in csv.lines() {
        let end = line
            .match_indices(',')
            .nth(3)
            .map_or(line.len(), |(at, _)| at);
        cut.push_str(&line[..end]);
        cut.push('\n');
    }
    fnv1a(cut.as_bytes())
}

/// The campaign seed of repeat `i` of a benchmark run seeded `seed`.
/// Repeat 0 runs the seed itself; later repeats stride far enough that
/// neighbouring `--seed` values never share a campaign.
pub fn repeat_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// One constructed workload: what `by_name` → `profile` yields.
pub struct Built {
    pub workload: Box<dyn Workload>,
    pub card: GpuConfig,
    pub golden: GoldenProfile,
}

impl Built {
    /// Warp instructions the golden run issued.
    pub fn golden_instructions(&self) -> u64 {
        self.golden
            .app
            .launches
            .iter()
            .map(|l| l.instructions)
            .sum()
    }
}

impl Spec {
    /// Workload construction and the golden run.
    pub fn build(&self) -> Result<Built, String> {
        let workload = gpufi_workloads::by_name(self.bench)
            .ok_or_else(|| format!("unknown benchmark `{}`", self.bench))?;
        let card =
            GpuConfig::preset(self.card).ok_or_else(|| format!("unknown card `{}`", self.card))?;
        let golden = profile(workload.as_ref(), &card).map_err(|e| e.to_string())?;
        Ok(Built {
            workload,
            card,
            golden,
        })
    }

    /// The campaign configuration at `threads` in-process threads, with
    /// the journal at `journal` when given.
    pub fn config(
        &self,
        runs: usize,
        seed: u64,
        threads: usize,
        journal: Option<&Path>,
    ) -> CampaignConfig {
        let mut cfg = CampaignConfig::new(CampaignSpec::new(self.structure), runs, seed)
            .with_threads(threads);
        if self.stratified {
            cfg = cfg.stratified();
        }
        if let Some(path) = journal {
            cfg = cfg.with_journal(path.to_string_lossy());
        }
        cfg
    }
}

/// What one delivered campaign cost and produced.
pub struct Delivery {
    /// Repeat start to the first run's start.
    pub setup_s: f64,
    /// First run's start to the CSV written and the journal finalized.
    pub run_s: f64,
    pub result: CampaignResult,
    pub csv: String,
    pub golden_cycles: u64,
    pub golden_instructions: u64,
}

/// Serves `cfg` on an ephemeral loopback port to two in-process workers.
pub fn serve2(built: &Built, cfg: &CampaignConfig) -> Result<CampaignResult, String> {
    let svc = ServiceConfig::default();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind loopback: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?
        .to_string();
    let (workload, card, golden) = (built.workload.as_ref(), &built.card, &built.golden);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| scope.spawn(|| run_worker(&addr, workload, card, cfg, golden, &svc)))
            .collect();
        let served = serve_campaign(workload, card, cfg, golden, &svc, listener);
        let mut worker_error = None;
        for w in workers {
            match w.join() {
                Ok(Ok(_report)) => {}
                Ok(Err(e)) => worker_error = Some(format!("worker: {e}")),
                Err(_) => worker_error = Some("worker thread panicked".to_string()),
            }
        }
        // The coordinator's error explains a failed campaign better than
        // the disconnects it causes in the workers.
        let result = served.map_err(|e| format!("serve: {e}"))?;
        worker_error.map_or(Ok(result), Err)
    })
}

/// One closed-loop delivery of `runs` records at `seed` through `engine`,
/// writing `<dir>/<name>.csv` (and its journal for
/// [`Engine::Threads2Journal`]).
pub fn deliver(
    spec: &Spec,
    engine: Engine,
    runs: usize,
    seed: u64,
    dir: &Path,
) -> Result<Delivery, String> {
    let csv_path: PathBuf = dir.join(format!("{}.csv", spec.name));
    let journal_path = dir.join(format!("{}.csv.journal.jsonl", spec.name));
    let t0 = Instant::now();
    let built = spec.build()?;
    // The first run's start, stamped by the supervisor's per-run hook.
    // (`FaultHook` is a `'static` trait object, hence the shared cell.)
    let first_run: Arc<OnceLock<Instant>> = Arc::default();
    let hook = {
        let first_run = Arc::clone(&first_run);
        move |_run: usize, _attempt: u32| {
            first_run.get_or_init(Instant::now);
        }
    };
    let cfg = match engine {
        Engine::Serial | Engine::Serve2 => spec.config(runs, seed, 1, None),
        Engine::Threads2Journal => spec.config(runs, seed, 2, Some(&journal_path)),
    };
    let result = if engine == Engine::Serve2 {
        // The coordinator has no per-run hook: delivery is timed from the
        // call itself.
        first_run.get_or_init(Instant::now);
        serve2(&built, &cfg)?
    } else {
        run_campaign_with_hook(
            built.workload.as_ref(),
            &built.card,
            &cfg,
            &built.golden,
            Some(&hook),
        )
        .map_err(|e| e.to_string())?
    };
    let csv = campaign_csv(&result);
    std::fs::write(&csv_path, &csv)
        .map_err(|e| format!("cannot write {}: {e}", csv_path.display()))?;
    let end = Instant::now();
    // A campaign pruned down to zero simulated runs never calls the hook.
    let first = *first_run.get().unwrap_or(&end);
    Ok(Delivery {
        setup_s: (first - t0).as_secs_f64(),
        run_s: (end - first).as_secs_f64(),
        golden_cycles: built.golden.total_cycles(),
        golden_instructions: built.golden_instructions(),
        result,
        csv,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_digest_reads_the_first_four_columns_only() {
        let a = "run,effect,cycles,applied,early_exit\n0,Masked,10,true,false\n";
        let b = "run,effect,cycles,applied,other\n0,Masked,10,true,true\n";
        let c = "run,effect,cycles,applied,early_exit\n0,SDC,10,true,false\n";
        assert_eq!(csv_digest(a), csv_digest(b));
        assert_ne!(csv_digest(a), csv_digest(c));
    }

    #[test]
    fn repeat_seeds_do_not_collide_across_neighbouring_seeds() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..64 {
            for i in 0..16 {
                assert!(seen.insert(repeat_seed(seed, i)), "seed {seed} repeat {i}");
            }
        }
        assert_eq!(repeat_seed(11, 0), 11);
    }
}
