//! Tables I, II, IV and V — derived from the chip configurations and the
//! injector capability matrix, not hard-coded prose.

use gpufi_faults::Structure;
use gpufi_sim::GpuConfig;
use std::fmt::Write as _;

fn fmt_size(bits: u64) -> String {
    let bytes = bits as f64 / 8.0;
    if bytes >= 1024.0 * 1024.0 {
        format!("{:.2} MB", bytes / (1024.0 * 1024.0))
    } else {
        format!("{:.2} KB", bytes / 1024.0)
    }
}

/// Table I — memory structure sizes across generations (tag bits
/// included for the caches, as in the paper).
pub fn table1() -> String {
    let cards = GpuConfig::paper_cards();
    let mut out = String::new();
    let _ = writeln!(out, "TABLE I. MEMORY STRUCTURES SIZES ACROSS GENERATIONS.");
    let _ = write!(out, "{:<22}", "");
    for c in &cards {
        let _ = write!(out, "{:>16}", c.name);
    }
    let _ = writeln!(out);
    let rows = [
        ("Register File", Structure::RegisterFile),
        ("Shared Memory", Structure::SharedMemory),
        ("L1 data cache", Structure::L1Data),
        ("L1 texture cache", Structure::L1Tex),
        ("L1 constant cache", Structure::L1Const),
        ("L2 cache", Structure::L2),
    ];
    for (name, s) in rows {
        let _ = write!(out, "{name:<22}");
        for c in &cards {
            let bits = c.chip_bits(s);
            let cell = if bits == 0 {
                "N/A".to_string()
            } else {
                fmt_size(bits)
            };
            let _ = write!(out, "{cell:>16}");
        }
        let _ = writeln!(out);
    }
    out
}

/// Table II — which on-chip memory services which memory-space access
/// (encoded in the simulator's `AccessKind` routing).
pub fn table2() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "TABLE II. CUDA SUPPORTED MEMORY SPACES IN THE SIMULATOR."
    );
    let _ = writeln!(out, "{:<28} Accesses serviced", "Core Memory");
    let rows = [
        (
            "Shared memory (R/W)",
            "shared memory accesses only (LDS/STS)",
        ),
        (
            "Data cache (R/W)",
            "global (evict-on-write) and local (writeback) accesses (LDG/STG, LDL/STL)",
        ),
        ("Texture cache (Read Only)", "texture accesses only (LDT)"),
        ("L2 cache (R/W)", "all device-memory requests"),
    ];
    for (mem, acc) in rows {
        let _ = writeln!(out, "{mem:<28} {acc}");
    }
    out
}

/// Table IV — the injector's target hardware structures and supported
/// modes, generated from the capability matrix the code actually
/// implements.
pub fn table4() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "TABLE IV. GPUFI TARGET HARDWARE STRUCTURES.");
    for s in Structure::ALL {
        let support = match s {
            Structure::RegisterFile => {
                "single/multiple bit-flips in a register of one thread, or of every thread of a warp"
            }
            Structure::LocalMemory => "single/multiple bit-flips in the local memory of a thread",
            Structure::SharedMemory => {
                "single/multiple bit-flips in the shared memory of one or more active CTAs"
            }
            Structure::L1Data => {
                "single/multiple bit-flips (tag or data) in the L1D of one or more SIMT cores"
            }
            Structure::L1Tex => {
                "single/multiple bit-flips (tag or data) in the L1T of one or more SIMT cores"
            }
            Structure::L1Const => {
                "single/multiple bit-flips (tag or data) in the L1C of one or more SIMT cores (extension; paper future work)"
            }
            Structure::L2 => "single/multiple bit-flips (tag or data) across the flat L2 line space",
            // Control-unit sites (extension; not Table IV data arrays):
            // `Structure::ALL` enumerates the paper's data structures
            // only, so these arms are unreachable here.
            Structure::SimtStack => {
                "transient or stuck-at corruption of a SIMT reconvergence-stack entry (extension)"
            }
            Structure::Sched => {
                "transient or stuck-at corruption of warp-scheduler barrier state (extension)"
            }
            Structure::Scoreboard => {
                "transient or stuck-at corruption of an issue-scoreboard entry (extension)"
            }
        };
        let _ = writeln!(out, "{:<18} {support}", s.name());
    }
    out
}

/// Table V — microarchitectural parameters of the three cards, with the
/// starred tag-inclusive cache sizes of the paper.
pub fn table5() -> String {
    let cards = GpuConfig::paper_cards();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "TABLE V. MICROARCHITECTURAL PARAMETERS (* = with {} tag bits per line).",
        gpufi_sim::TAG_BITS
    );
    let _ = write!(out, "{:<34}", "");
    for c in &cards {
        let _ = write!(out, "{:>16}", c.name);
    }
    let _ = writeln!(out);
    let mut row = |label: &str, f: &dyn Fn(&GpuConfig) -> String| {
        let _ = write!(out, "{label:<34}");
        for c in &cards {
            let _ = write!(out, "{:>16}", f(c));
        }
        let _ = writeln!(out);
    };
    row("SMs", &|c| c.num_sms.to_string());
    row("Warp size", &|_| gpufi_sim::WARP_SIZE.to_string());
    row("Maximum Threads per SM", &|c| {
        c.max_threads_per_sm.to_string()
    });
    row("Maximum CTAs per SM", &|c| c.max_ctas_per_sm.to_string());
    row("Registers per SM (4 bytes each)", &|c| {
        c.registers_per_sm.to_string()
    });
    row("Shared Memory per SM", &|c| {
        format!("{} KB", c.smem_per_sm / 1024)
    });
    row("L1 data cache per SM", &|c| match c.l1d {
        Some(l1) => format!("{} KB", l1.data_bytes() / 1024),
        None => "N/A".to_string(),
    });
    row("L1 data cache per SM *", &|c| match c.l1d {
        Some(l1) => fmt_size(l1.total_bits()),
        None => "N/A".to_string(),
    });
    row("L1 texture cache per SM", &|c| {
        format!("{} KB", c.l1t.data_bytes() / 1024)
    });
    row("L1 texture cache per SM *", &|c| {
        fmt_size(c.l1t.total_bits())
    });
    row("L1 constant cache per SM", &|c| {
        format!("{} KB", c.l1c.data_bytes() / 1024)
    });
    row("L1 constant cache per SM *", &|c| {
        fmt_size(c.l1c.total_bits())
    });
    row("L2 cache size", &|c| {
        fmt_size(u64::from(c.l2.data_bytes()) * 8)
    });
    row("L2 cache size *", &|c| fmt_size(c.l2.total_bits()));
    row("L2 banks (memory partitions)", &|c| {
        c.num_l2_banks.to_string()
    });
    row("Process (nm)", &|c| c.process_nm.to_string());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_headline_numbers() {
        let t = table1();
        assert!(t.contains("7.50 MB"), "RTX 2060 register file:\n{t}");
        assert!(t.contains("20.00 MB"), "GV100 register file:\n{t}");
        assert!(t.contains("3.17 MB"), "RTX 2060 L2 with tags:\n{t}");
        assert!(t.contains("N/A"), "Titan L1D:\n{t}");
    }

    #[test]
    fn table5_contains_cards_and_starred_sizes() {
        let t = table5();
        for name in ["RTX 2060", "Quadro GV100", "GTX Titan"] {
            assert!(t.contains(name));
        }
        assert!(t.contains("67.56 KB"), "tagged 64 KB L1D:\n{t}");
    }

    #[test]
    fn table4_covers_all_six_structures() {
        let t = table4();
        for s in Structure::ALL {
            assert!(t.contains(s.name()));
        }
    }

    #[test]
    fn table2_mentions_all_paths() {
        let t = table2();
        for needle in ["Shared", "Data cache", "Texture", "L2"] {
            assert!(t.contains(needle));
        }
    }
}
