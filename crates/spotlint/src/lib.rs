//! # spotlint
//!
//! The workspace's static-analysis gate: a dependency-free, workspace-aware
//! lint pass enforcing the three invariants every PR here leans on —
//!
//! 1. **Determinism** — no wall-clock/entropy reads (D1), no hash-order
//!    containers (D2) in the determinism-critical crates
//!    (`core`/`cloud`/`market`/`revpred`/`earlycurve`), no exact float
//!    equality in `core`/`earlycurve` (D3). The bit-identical equivalence
//!    suites (tick≡event, policy/estimator defaults, fault replay) only
//!    mean anything if these hold.
//! 2. **Robustness** — no panic reachable from untrusted input on the
//!    request path, and no `thread::spawn` in the server or client (P1).
//! 3. **Confinement** — `unsafe` stays inside the audited kernel modules
//!    (U1); everywhere else it needs a `spotlint.allow` audit.
//!
//! Built on a hand-rolled Rust lexer ([`lexer`]) and token-pattern rules
//! ([`rules`]) because the vendored dependency set has no `syn`. Audited
//! exceptions live in `spotlint.allow` ([`allow`]); run
//! `spotlint --explain <RULE>` for the rationale behind any rule.

pub mod allow;
pub mod lexer;
pub mod rules;

use rules::{check_d1, check_d2, check_d3, check_p1, check_spawn, check_u1, FileCtx, Finding};
use std::fs;
use std::path::{Path, PathBuf};

/// Crates whose `src/` trees must be free of nondeterminism (D1, D2).
pub const DETERMINISM_CRATES: &[&str] = &[
    "crates/core",
    "crates/cloud",
    "crates/market",
    "crates/revpred",
    "crates/earlycurve",
];

/// Crates additionally checked for exact float equality (D3).
pub const FLOAT_EQ_CRATES: &[&str] = &["crates/core", "crates/earlycurve"];

/// Crates whose `src/` trees must keep `unsafe` confined to the kernel
/// modules (U1): every library crate. Only `crates/bench` (measurement
/// binaries, never linked into the sim) and spotlint itself are outside
/// the scope.
pub const UNSAFE_SCOPE_CRATES: &[&str] = &[
    "crates/core",
    "crates/cloud",
    "crates/market",
    "crates/revpred",
    "crates/earlycurve",
    "crates/mlsim",
    "crates/nn",
    "crates/server",
    "crates/client",
];

/// Crates whose non-test code must start threads through
/// `thread::Builder` (P1): a thread the OS refuses is an error there, not
/// a panic.
pub const SPAWN_SCOPE_CRATES: &[&str] = &["crates/server", "crates/client"];

/// Files forming the untrusted-input path (P1): wire decode, the server
/// request handling (core pool and TCP front-end), and the client's
/// connection/retry machinery.
pub const PANIC_PATH_FILES: &[&str] = &[
    "crates/core/src/wire.rs",
    "crates/server/src/lib.rs",
    "crates/server/src/net.rs",
    "crates/client/src/lib.rs",
];

/// Result of a full workspace pass.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings not covered by the allowlist — these gate CI.
    pub findings: Vec<Finding>,
    /// Findings suppressed by an allowlist entry.
    pub suppressed: Vec<Finding>,
    /// Allowlist entries that matched nothing (stale audits).
    pub stale_allow: Vec<allow::AllowEntry>,
    /// Allowlist lines that could not be parsed.
    pub malformed_allow: Vec<usize>,
    /// Number of `.rs` files scanned by the token rules.
    pub files_scanned: usize,
}

impl Report {
    /// Whether the workspace passes the gate (stale or malformed allowlist
    /// entries fail it too: a suppression that no longer matches anything
    /// means the audited line changed and must be re-reviewed).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
            && self.stale_allow.is_empty()
            && self.malformed_allow.is_empty()
    }
}

/// Runs every rule over the workspace rooted at `root`, applying the
/// allowlist at `root/spotlint.allow` if present.
///
/// # Errors
///
/// Returns an error string when the root does not look like the expected
/// workspace (missing crates) or a listed file cannot be read.
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    let mut findings = Vec::new();
    let mut files_scanned = 0usize;

    // Token rules over the library crates: U1 everywhere in scope, the
    // determinism rules (D1/D2, D3 where floats gate decisions) over
    // their tighter crate lists.
    for krate in UNSAFE_SCOPE_CRATES {
        let determinism = DETERMINISM_CRATES.contains(krate);
        let src_dir = root.join(krate).join("src");
        for file in rust_files(&src_dir)? {
            let rel = rel_path(root, &file);
            let text = read(&file)?;
            let ctx = FileCtx::new(&rel, &text);
            if determinism {
                findings.extend(check_d1(&ctx));
                findings.extend(check_d2(&ctx));
                if FLOAT_EQ_CRATES.iter().any(|c| rel.starts_with(c)) {
                    findings.extend(check_d3(&ctx));
                }
            }
            findings.extend(check_u1(&ctx));
            if SPAWN_SCOPE_CRATES.contains(krate) {
                findings.extend(check_spawn(&ctx));
            }
            files_scanned += 1;
        }
    }
    // P1 over the untrusted-input path.
    for rel in PANIC_PATH_FILES {
        let text = read(&root.join(rel))?;
        let ctx = FileCtx::new(rel, &text);
        findings.extend(check_p1(&ctx));
        files_scanned += 1;
    }

    // Stable output order: file, line, rule; collapse repeats of the same
    // finding on one line (e.g. two `HashMap` tokens in one declaration).
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule, a.message.as_str())
            .cmp(&(b.file.as_str(), b.line, b.rule, b.message.as_str()))
    });
    findings.dedup_by(|a, b| a.rule == b.rule && a.file == b.file && a.line == b.line && a.message == b.message);

    // Allowlist.
    let allow_path = root.join("spotlint.allow");
    let (entries, malformed_allow) = if allow_path.exists() {
        allow::parse(&read(&allow_path)?)
    } else {
        (Vec::new(), Vec::new())
    };
    let (kept, suppressed, stale_allow) = allow::apply(findings, &entries);

    Ok(Report { findings: kept, suppressed, stale_allow, malformed_allow, files_scanned })
}

/// Locates the workspace root from an arbitrary start directory by walking
/// up to the first directory containing `crates/core` (the CLI runs from
/// the root via `cargo run -p spotlint`, tests from the crate dir).
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        if d.join("crates/core").is_dir() && d.join(".github").is_dir() {
            return Some(d.to_path_buf());
        }
        dir = d.parent();
    }
    None
}

fn read(path: &Path) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn rel_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/")
}

/// All `.rs` files under `dir`, recursively, in sorted (deterministic)
/// order — the lint practices what it preaches.
fn rust_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let entries =
            fs::read_dir(&d).map_err(|e| format!("cannot list {}: {e}", d.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("cannot list {}: {e}", d.display()))?;
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Serializes a report as one JSON object (machine-readable CI output).
/// Hand-rolled like everything else here; keys are stable.
pub fn report_to_json(report: &Report) -> String {
    let mut out = String::from("{");
    out.push_str("\"ok\":");
    out.push_str(if report.is_clean() { "true" } else { "false" });
    out.push_str(",\"files_scanned\":");
    out.push_str(&report.files_scanned.to_string());
    out.push_str(",\"findings\":[");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        finding_json(&mut out, f);
    }
    out.push_str("],\"suppressed\":");
    out.push_str(&report.suppressed.len().to_string());
    out.push_str(",\"stale_allow\":[");
    for (i, e) in report.stale_allow.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        json_kv(&mut out, "rule", &e.rule);
        out.push(',');
        json_kv(&mut out, "file", &e.file);
        out.push(',');
        json_kv(&mut out, "pattern", &e.pattern);
        out.push_str(",\"line\":");
        out.push_str(&e.line.to_string());
        out.push('}');
    }
    out.push_str("],\"malformed_allow\":[");
    for (i, l) in report.malformed_allow.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&l.to_string());
    }
    out.push_str("]}");
    out
}

fn finding_json(out: &mut String, f: &Finding) {
    out.push('{');
    json_kv(out, "rule", f.rule);
    out.push(',');
    json_kv(out, "file", &f.file);
    out.push_str(",\"line\":");
    out.push_str(&f.line.to_string());
    out.push(',');
    json_kv(out, "message", &f.message);
    out.push(',');
    json_kv(out, "snippet", &f.snippet);
    out.push('}');
}

fn json_kv(out: &mut String, key: &str, value: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    json_string(out, value);
}

fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_shape() {
        let report = Report {
            findings: vec![Finding {
                rule: "D2",
                file: "crates/x.rs".into(),
                line: 3,
                message: "say \"no\"".into(),
                snippet: "let m:\tHashMap<u8,u8>".into(),
            }],
            ..Report::default()
        };
        let json = report_to_json(&report);
        assert!(json.contains("\"ok\":false"));
        assert!(json.contains("\\\"no\\\""));
        assert!(json.contains("\\t"));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn clean_report_is_ok_but_stale_allow_fails() {
        let mut report = Report::default();
        assert!(report.is_clean());
        report.stale_allow.push(allow::AllowEntry {
            rule: "D3".into(),
            file: "a.rs".into(),
            pattern: "x".into(),
            line: 1,
        });
        assert!(!report.is_clean());
    }
}
