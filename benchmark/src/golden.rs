//! Golden digests: for the default seed and one held-out seed, the
//! digest and simulated statistics of every workload's request set are
//! committed under `benchmark/golden/`, so a run on those seeds checks
//! the program against a recorded answer, not only against itself.
//!
//! One line per workload: `name digest cost_bits revocations migrations
//! lost_steps`, digest and `f64::to_bits` of the cost sum in hex.

use crate::digest::CloudSums;
use std::path::{Path, PathBuf};

pub const DEFAULT_SEED: u64 = 42;
/// The seed no measurement was tuned on.
#[cfg(test)]
pub const HELD_OUT_SEED: u64 = 7;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Golden {
    pub digest: u64,
    pub cloud: CloudSums,
}

fn path(dir: &Path, seed: u64) -> PathBuf {
    dir.join(format!("seed-{seed}.txt"))
}

fn parse_line(line: &str) -> Option<(&str, Golden)> {
    let mut f = line.split_whitespace();
    let name = f.next()?;
    let digest = u64::from_str_radix(f.next()?, 16).ok()?;
    let cost_usd = f64::from_bits(u64::from_str_radix(f.next()?, 16).ok()?);
    let mut int = || f.next()?.parse::<u64>().ok();
    let cloud = CloudSums {
        cost_usd,
        revocations: int()?,
        migrations: int()?,
        lost_steps: int()?,
    };
    Some((name, Golden { digest, cloud }))
}

/// The recorded answer for `(seed, workload)`; `Ok(None)` when the seed
/// has no golden file (every seed but the two recorded ones).
///
/// # Errors
///
/// A golden file that exists but lacks the workload or does not parse.
pub fn lookup(dir: &Path, seed: u64, workload: &str) -> Result<Option<Golden>, String> {
    let file = path(dir, seed);
    let text = match std::fs::read_to_string(&file) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("{}: {e}", file.display())),
    };
    for line in text
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
    {
        match parse_line(line) {
            Some((name, golden)) if name == workload => return Ok(Some(golden)),
            Some(_) => {}
            None => return Err(format!("{}: malformed line {line:?}", file.display())),
        }
    }
    Err(format!("{} has no entry for {workload}", file.display()))
}

/// Replaces (or adds) the workload's line in the seed's golden file.
///
/// # Errors
///
/// The I/O error, with the path.
pub fn record(dir: &Path, seed: u64, workload: &str, golden: &Golden) -> Result<(), String> {
    let file = path(dir, seed);
    let io = |e: std::io::Error| format!("{}: {e}", file.display());
    std::fs::create_dir_all(dir).map_err(io)?;
    let old = std::fs::read_to_string(&file).unwrap_or_default();
    let mut lines: Vec<String> = old
        .lines()
        .filter(|l| l.split_whitespace().next() != Some(workload))
        .map(str::to_string)
        .collect();
    lines.push(format!(
        "{workload} {:016x} {:016x} {} {} {}",
        golden.digest,
        golden.cloud.cost_usd.to_bits(),
        golden.cloud.revocations,
        golden.cloud.migrations,
        golden.cloud.lost_steps
    ));
    std::fs::write(&file, lines.join("\n") + "\n").map_err(io)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_then_lookup_round_trips_bit_exactly() {
        let dir = std::env::temp_dir().join(format!("bench-golden-{}", std::process::id()));
        let golden = Golden {
            digest: 0xdead_beef_0123_4567,
            cloud: CloudSums {
                cost_usd: 1_234.567_890_123,
                revocations: 9,
                migrations: 2,
                lost_steps: 0,
            },
        };
        assert_eq!(lookup(&dir, 5, "sweep_small"), Ok(None));
        record(&dir, 5, "sweep_small", &golden).expect("record");
        record(
            &dir,
            5,
            "wire_open",
            &Golden {
                digest: 1,
                ..golden
            },
        )
        .expect("record");
        record(&dir, 5, "sweep_small", &golden).expect("re-record replaces");
        assert_eq!(lookup(&dir, 5, "sweep_small"), Ok(Some(golden)));
        assert_eq!(
            lookup(&dir, 5, "wire_open")
                .expect("ok")
                .expect("some")
                .digest,
            1
        );
        assert!(
            lookup(&dir, 5, "wire_flood").is_err(),
            "a recorded seed must cover every workload"
        );
        std::fs::remove_dir_all(&dir).expect("clean up");
    }

    #[test]
    fn the_committed_golden_files_cover_every_workload() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden");
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            for workload in crate::metrics::workload_names() {
                let entry = lookup(&dir, seed, workload).expect("parses");
                assert!(entry.is_some(), "golden/seed-{seed}.txt lacks {workload}");
            }
        }
    }
}
