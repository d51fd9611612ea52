//! The lint applied to its own workspace (ISSUE 7 acceptance): the tree
//! must be clean modulo the audited entries in `spotlint.allow`.

use spotlint::{find_root, lint_workspace, report_to_json};
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root above spotlint")
}

#[test]
fn workspace_is_clean_modulo_the_allowlist() {
    let report = lint_workspace(&root()).expect("lintable workspace");
    assert!(
        report.is_clean(),
        "workspace must lint clean; run `cargo run -p spotlint -- --check` and fix or \
         allowlist (with a rationale) each finding:\n{}",
        report_to_json(&report)
    );
    // The scan really covered the determinism-critical crates plus the
    // request path, and the allowlist is live, not vestigial.
    assert!(report.files_scanned >= 20, "only {} files scanned", report.files_scanned);
    assert!(!report.suppressed.is_empty(), "spotlint.allow carries audited entries");
}

#[test]
fn every_suppression_cites_a_distinct_audited_line() {
    let report = lint_workspace(&root()).expect("lintable workspace");
    // Stale-entry detection is what keeps the allowlist honest; if two
    // suppressed findings collapsed onto one entry, an audit could hide a
    // new violation. Guard the 1:1 shape.
    let mut keys: Vec<(String, usize)> = report
        .suppressed
        .iter()
        .map(|f| (format!("{}:{}", f.file, f.rule), f.line))
        .collect();
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), report.suppressed.len(), "{keys:#?}");
}
