//! Host readings: procfs memory and CPU counters, core count, and the
//! provenance block every result carries.

use crate::json::Value;
use std::process::Command;

/// Cores the load shape uses: `nproc`, capped at 4.
pub fn load_width() -> usize {
    nproc().min(4)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

fn status_kb(pid: u32, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Peak resident set (`VmHWM`) of `pid` in MB; 0 when unreadable.
pub fn peak_rss_mb(pid: u32) -> f64 {
    status_kb(pid, "VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// Current resident set (`VmRSS`) of `pid` in MB; 0 when unreadable.
pub fn rss_mb(pid: u32) -> f64 {
    status_kb(pid, "VmRSS:").map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds `pid` has used (all threads). procfs counts
/// in `USER_HZ` ticks, which Linux fixes at 100 on every architecture.
pub fn cpu_seconds(pid: u32) -> f64 {
    let Ok(text) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0.0;
    };
    // The command name may hold spaces; fields resume after the last ')'.
    let Some(rest) = text.rfind(')').map(|i| &text[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let ticks = |i: usize| {
        fields
            .get(i - 3)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(14) + ticks(15)) / 100.0
}

pub fn self_pid() -> u32 {
    std::process::id()
}

fn first_line_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .trim()
            .to_string()
    })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn ram_mb() -> f64 {
    std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("MemTotal:"))?;
            line["MemTotal:".len()..]
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| (kb / 1024.0).round())
}

/// Where and how a result was produced. `server_flags` is empty for the
/// in-process workloads.
pub fn provenance(seed: u64, connections: usize, server_flags: &[String]) -> Value {
    let rustc = std::env::var("BENCH_RUSTC_VERSION")
        .ok()
        .filter(|v| !v.is_empty())
        .or_else(|| first_line_of("rustc", &["-V"]))
        .unwrap_or_else(|| "unknown".to_string());
    // A driver checkout is not a git repository: commit reads "unknown".
    let commit =
        first_line_of("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string());
    let dirty = Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or(Value::Null, |o| Value::Bool(!o.stdout.is_empty()));
    Value::obj(vec![
        ("nproc", Value::Num(nproc() as f64)),
        ("cpu_model", Value::str(cpu_model())),
        ("ram_mb", Value::Num(ram_mb())),
        ("rustc", Value::str(rustc)),
        ("git_commit", Value::str(commit)),
        ("git_dirty", dirty),
        (
            "command",
            Value::str(std::env::args().collect::<Vec<_>>().join(" ")),
        ),
        ("seed", Value::Num(seed as f64)),
        ("connections", Value::Num(connections as f64)),
        ("threads", Value::Num(load_width() as f64)),
        ("server_flags", Value::str(server_flags.join(" "))),
        (
            "network",
            Value::str("loopback TCP (127.0.0.1), no real link"),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn procfs_readers_see_this_process() {
        let pid = self_pid();
        assert!(peak_rss_mb(pid) > 0.0);
        assert!(rss_mb(pid) > 0.0 && rss_mb(pid) <= peak_rss_mb(pid) + 1.0);
        assert!(cpu_seconds(pid) >= 0.0);
        assert_eq!(peak_rss_mb(u32::MAX), 0.0);
        assert!((1..=4).contains(&load_width()));
    }

    #[test]
    fn provenance_names_the_machine() {
        let p = provenance(42, 2, &["--refill".to_string(), "0".to_string()]);
        assert!(p
            .get("nproc")
            .and_then(Value::as_f64)
            .is_some_and(|n| n >= 1.0));
        assert_eq!(
            p.get("server_flags").and_then(Value::as_str),
            Some("--refill 0")
        );
        assert!(p
            .get("network")
            .and_then(Value::as_str)
            .is_some_and(|n| n.contains("loopback")));
    }
}
