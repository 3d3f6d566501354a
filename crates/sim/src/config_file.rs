//! Text configuration files — the analogue of GPGPU-Sim's
//! `gpgpusim.config`, through which the original gpuFI-4 passes all of
//! its parameters (§III.A).
//!
//! The format is line-oriented `key = value` with `#`/`;` comments:
//!
//! ```text
//! # my_gpu.config
//! base = rtx2060            # start from a preset
//! name = Cut-down Turing
//! num_sms = 16
//! l1d = 32768:4:128         # capacity:ways:line_bytes, or `none`
//! lat_dram = 220
//! ```
//!
//! Unknown keys are rejected with their line number, so typos fail loudly
//! instead of silently simulating the wrong chip.

use crate::config::{CacheConfig, GpuConfig, SchedulerPolicy};
use std::error::Error;
use std::fmt;

/// An error produced while parsing a configuration file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    line: u32,
    message: String,
}

impl ConfigError {
    fn new(line: u32, message: impl Into<String>) -> Self {
        ConfigError {
            line,
            message: message.into(),
        }
    }

    /// The 1-based line the error occurred on (0 for file-level errors).
    pub fn line(&self) -> u32 {
        self.line
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "config line {}: {}", self.line, self.message)
    }
}

impl Error for ConfigError {}

fn parse_cache(value: &str, line: u32) -> Result<Option<CacheConfig>, ConfigError> {
    if value.eq_ignore_ascii_case("none") {
        return Ok(None);
    }
    let parts: Vec<&str> = value.split(':').collect();
    if parts.len() != 3 {
        return Err(ConfigError::new(
            line,
            format!("cache spec `{value}` must be capacity:ways:line_bytes or `none`"),
        ));
    }
    let nums: Vec<u32> = parts
        .iter()
        .map(|p| {
            p.trim()
                .parse()
                .map_err(|_| ConfigError::new(line, format!("bad number `{p}` in cache spec")))
        })
        .collect::<Result<_, _>>()?;
    let (capacity, ways, line_bytes) = (nums[0], nums[1], nums[2]);
    // A zero dimension, or a way size past `u32`, divides nothing.
    let way_bytes = ways.checked_mul(line_bytes).unwrap_or(0);
    if capacity == 0 || way_bytes == 0 || capacity % way_bytes != 0 {
        return Err(ConfigError::new(
            line,
            format!("cache capacity {capacity} is not divisible into {ways} ways of {line_bytes}-byte lines"),
        ));
    }
    Ok(Some(CacheConfig::with_capacity(capacity, ways, line_bytes)))
}

impl GpuConfig {
    /// Resolves a preset name (`rtx2060`, `gv100`, `titan`).
    pub fn preset(name: &str) -> Option<GpuConfig> {
        match name.to_ascii_lowercase().as_str() {
            "rtx2060" | "rtx" | "turing" => Some(GpuConfig::rtx2060()),
            "gv100" | "quadro" | "quadro_gv100" | "volta" => Some(GpuConfig::quadro_gv100()),
            "titan" | "gtx_titan" | "gtxtitan" | "kepler" => Some(GpuConfig::gtx_titan()),
            _ => None,
        }
    }

    /// Parses a configuration-file text into a chip configuration.
    ///
    /// Starts from the `base` preset (default: `rtx2060`) and applies each
    /// `key = value` override in order.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] with the offending line for unknown keys,
    /// malformed values, or inconsistent cache geometry.
    pub fn from_config_text(text: &str) -> Result<GpuConfig, ConfigError> {
        let mut cfg = GpuConfig::rtx2060();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = (idx + 1) as u32;
            let line = raw.split(['#', ';']).next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(ConfigError::new(
                    line_no,
                    format!("expected key = value, found `{line}`"),
                ));
            };
            let key = key.trim();
            let value = value.trim();
            let parse_u32 = |v: &str| -> Result<u32, ConfigError> {
                v.parse()
                    .map_err(|_| ConfigError::new(line_no, format!("bad number `{v}` for {key}")))
            };
            match key {
                "base" => {
                    cfg = GpuConfig::preset(value).ok_or_else(|| {
                        ConfigError::new(line_no, format!("unknown base preset `{value}`"))
                    })?;
                }
                "name" => cfg.name = value.to_string(),
                "num_sms" => cfg.num_sms = parse_u32(value)?.max(1),
                "max_threads_per_sm" => cfg.max_threads_per_sm = parse_u32(value)?.max(32),
                "max_ctas_per_sm" => cfg.max_ctas_per_sm = parse_u32(value)?.max(1),
                "registers_per_sm" => cfg.registers_per_sm = parse_u32(value)?,
                "smem_per_sm" => cfg.smem_per_sm = parse_u32(value)?,
                "l1d" => cfg.l1d = parse_cache(value, line_no)?,
                "l1t" => {
                    cfg.l1t = parse_cache(value, line_no)?
                        .ok_or_else(|| ConfigError::new(line_no, "l1t cannot be `none`"))?;
                }
                "l1c" => {
                    cfg.l1c = parse_cache(value, line_no)?
                        .ok_or_else(|| ConfigError::new(line_no, "l1c cannot be `none`"))?;
                }
                "l2" => {
                    cfg.l2 = parse_cache(value, line_no)?
                        .ok_or_else(|| ConfigError::new(line_no, "l2 cannot be `none`"))?;
                }
                "l2_banks" => cfg.num_l2_banks = parse_u32(value)?.max(1),
                "process_nm" => cfg.process_nm = parse_u32(value)?.max(1),
                "lat_alu" => cfg.lat.alu = parse_u32(value)?,
                "lat_mul" => cfg.lat.mul = parse_u32(value)?,
                "lat_sfu" => cfg.lat.sfu = parse_u32(value)?,
                "lat_smem" => cfg.lat.smem = parse_u32(value)?,
                "lat_l1" => cfg.lat.l1 = parse_u32(value)?,
                "lat_icnt" => cfg.lat.icnt = parse_u32(value)?,
                "lat_l2" => cfg.lat.l2 = parse_u32(value)?,
                "lat_dram" => cfg.lat.dram = parse_u32(value)?,
                "lat_l2_service" => cfg.lat.l2_service = parse_u32(value)?,
                "lat_dram_service" => cfg.lat.dram_service = parse_u32(value)?,
                "scheduler" => {
                    cfg.scheduler = match value.to_ascii_lowercase().as_str() {
                        "gto" => SchedulerPolicy::Gto,
                        "rr" | "round_robin" | "roundrobin" => SchedulerPolicy::RoundRobin,
                        other => {
                            return Err(ConfigError::new(
                                line_no,
                                format!("unknown scheduler `{other}` (gto | rr)"),
                            ))
                        }
                    };
                }
                other => {
                    return Err(ConfigError::new(line_no, format!("unknown key `{other}`")));
                }
            }
        }
        if !cfg.l2.sets.is_multiple_of(cfg.num_l2_banks) {
            return Err(ConfigError::new(
                0,
                format!(
                    "L2 has {} sets, not divisible into {} banks",
                    cfg.l2.sets, cfg.num_l2_banks
                ),
            ));
        }
        for (name, l1) in [("l1d", cfg.l1d), ("l1t", Some(cfg.l1t))] {
            if let Some(l1) = l1.filter(|l1| l1.line_bytes != cfg.l2.line_bytes) {
                return Err(ConfigError::new(
                    0,
                    format!(
                        "{name} has {}-byte lines but the L2 has {}-byte lines; they must match",
                        l1.line_bytes, cfg.l2.line_bytes
                    ),
                ));
            }
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_text_yields_default_preset() {
        let cfg = GpuConfig::from_config_text("").unwrap();
        assert_eq!(cfg, GpuConfig::rtx2060());
    }

    #[test]
    fn base_and_overrides() {
        let cfg = GpuConfig::from_config_text(
            "# cut-down Volta\nbase = gv100\nname = Mini GV\nnum_sms = 8\nlat_dram = 300\n",
        )
        .unwrap();
        assert_eq!(cfg.name, "Mini GV");
        assert_eq!(cfg.num_sms, 8);
        assert_eq!(cfg.lat.dram, 300);
        // untouched fields keep the preset values
        assert_eq!(cfg.smem_per_sm, 96 * 1024);
    }

    #[test]
    fn cache_specs() {
        let cfg = GpuConfig::from_config_text("l1d = 32768:4:128\n").unwrap();
        let l1d = cfg.l1d.unwrap();
        assert_eq!(l1d.data_bytes(), 32768);
        assert_eq!(l1d.ways, 4);
        let cfg = GpuConfig::from_config_text("l1d = none\n").unwrap();
        assert!(cfg.l1d.is_none());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = GpuConfig::from_config_text("num_sms = 4\nfrobnicate = 1\n").unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.to_string().contains("frobnicate"));
        let err = GpuConfig::from_config_text("l1d = 1000:3:128\n").unwrap_err();
        assert!(err.to_string().contains("divisible"));
        let err = GpuConfig::from_config_text("base = amd\n").unwrap_err();
        assert!(err.to_string().contains("preset"));
        let err = GpuConfig::from_config_text("just words\n").unwrap_err();
        assert!(err.to_string().contains("key = value"));
        // Mismatched line sizes used to reach `MemSystem::new`'s assert.
        for text in [
            "l1d = 32768:4:64\n",
            "l1t = 32768:4:64\n",
            "l2 = 3145728:16:64\n",
        ] {
            let err = GpuConfig::from_config_text(text).unwrap_err();
            assert!(err.to_string().contains("they must match"), "{text}: {err}");
        }
        GpuConfig::from_config_text("l1d = 32768:4:64\nl1t = 32768:4:64\nl2 = 3145728:16:64\n")
            .unwrap();
        // `ways × line_bytes` past `u32` used to panic on the remainder.
        let err = GpuConfig::from_config_text("\nl1d = 65536:65536:65536\n").unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.to_string().contains("divisible"), "{err}");
    }

    /// Seeded never-panic loop over config texts: known and unknown keys,
    /// numbers from the boundaries of `u32` and cache triples whose
    /// `ways × line_bytes` reaches 2^16 and past `u32`.  Every text must
    /// parse or return a `ConfigError`.
    #[test]
    fn random_config_texts_never_panic() {
        const KEYS: [&str; 26] = [
            "base",
            "name",
            "num_sms",
            "max_threads_per_sm",
            "max_ctas_per_sm",
            "registers_per_sm",
            "smem_per_sm",
            "l1d",
            "l1t",
            "l1c",
            "l2",
            "l2_banks",
            "process_nm",
            "lat_alu",
            "lat_mul",
            "lat_sfu",
            "lat_smem",
            "lat_l1",
            "lat_icnt",
            "lat_l2",
            "lat_dram",
            "lat_l2_service",
            "lat_dram_service",
            "scheduler",
            "frobnicate",
            "",
        ];
        const NUMS: [&str; 14] = [
            "0",
            "1",
            "3",
            "64",
            "128",
            "4096",
            "65535",
            "65536",
            "131072",
            "4294967295",
            "4294967296",
            "-1",
            "x",
            "",
        ];
        const WORDS: [&str; 7] = ["none", "rtx2060", "titan", "gto", "rr", "::", "1:2"];
        let mut state = 0x243f_6a88_85a3_08d3_u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as usize
        };
        for _ in 0..4096 {
            let mut text = String::new();
            for _ in 0..=next() % 4 {
                let key = KEYS[next() % KEYS.len()];
                let value = match next() % 4 {
                    0 => NUMS[next() % NUMS.len()].to_string(),
                    1 => {
                        let (a, b, c) = (next(), next(), next());
                        let num = |r: usize| NUMS[r % NUMS.len()];
                        format!("{}:{}:{}", num(a), num(b), num(c))
                    }
                    2 => format!(
                        "{}:{}:{}",
                        1u64 << (next() % 33),
                        1u32 << (next() % 20),
                        1u32 << (next() % 20)
                    ),
                    _ => WORDS[next() % WORDS.len()].to_string(),
                };
                text += &format!("{key} = {value}\n");
            }
            let _ = GpuConfig::from_config_text(&text);
        }
    }

    #[test]
    fn scheduler_key() {
        let cfg = GpuConfig::from_config_text("scheduler = rr\n").unwrap();
        assert_eq!(cfg.scheduler, SchedulerPolicy::RoundRobin);
        assert!(GpuConfig::from_config_text("scheduler = fancy\n").is_err());
    }

    #[test]
    fn bank_divisibility_checked() {
        let err = GpuConfig::from_config_text("l2 = 3145728:8:128\nl2_banks = 7\n").unwrap_err();
        assert!(err.to_string().contains("banks"));
    }

    #[test]
    fn parsed_config_builds_a_working_gpu() {
        let cfg = GpuConfig::from_config_text("base = titan\nnum_sms = 2\n").unwrap();
        let gpu = crate::Gpu::new(cfg);
        assert_eq!(gpu.config().num_sms, 2);
    }
}
