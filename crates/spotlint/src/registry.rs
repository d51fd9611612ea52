//! R1 — the registry/CI/test-suite consistency cross-check.
//!
//! Parses the policy registry out of `Approach::registered_policies`
//! (crates/core/src/campaign.rs) and the estimator registry out of
//! `EstimatorSpec::registered_estimators` (crates/market/src/estimator.rs),
//! then verifies the CI matrix and the equivalence/storm-survival suites
//! cover every registered name — and that the CI matrix names nothing the
//! registries don't know (renames, typos). The wire error-frame registry
//! (`registered_error_kinds` in crates/core/src/wire.rs) gets the same
//! treatment against the TCP suites: every frame kind the server can send
//! must be provoked by at least one socket-level test. Finally, every
//! registered policy must be covered by the batch-equivalence suite
//! (crates/core/tests/batch_equivalence.rs) so a sweep can never run a
//! policy whose cohort path was not proven bit-identical to the serial
//! reference.

use crate::lexer::{lex, Tok};
use crate::rules::Finding;

/// One extracted registry name with the source line it was declared on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryName {
    pub name: String,
    pub line: usize,
}

/// Everything R1 reads, as text, so tests can doctor any piece.
pub struct RegistryInputs {
    /// Content of crates/core/src/campaign.rs.
    pub policy_src: String,
    /// Content of crates/market/src/estimator.rs.
    pub estimator_src: String,
    /// Content of crates/core/src/wire.rs (the error-frame registry).
    pub wire_src: String,
    /// Content of .github/workflows/ci.yml.
    pub ci_yaml: String,
    /// `(workspace-relative path, content)` of the equivalence and
    /// storm-survival suites.
    pub suites: Vec<(String, String)>,
    /// `(workspace-relative path, content)` of the TCP front-end suites
    /// that must exercise every wire error-frame kind.
    pub tcp_suites: Vec<(String, String)>,
    /// Content of the batch-equivalence suite: every registered policy
    /// must be locked bit-identical through the batched sweep path.
    pub batch_suite: String,
}

/// Workspace-relative paths R1 reads in a real run.
pub const POLICY_REGISTRY_PATH: &str = "crates/core/src/campaign.rs";
pub const ESTIMATOR_REGISTRY_PATH: &str = "crates/market/src/estimator.rs";
pub const WIRE_REGISTRY_PATH: &str = "crates/core/src/wire.rs";
pub const CI_PATH: &str = ".github/workflows/ci.yml";
pub const SUITE_PATHS: &[&str] = &[
    "crates/core/tests/policy_equivalence.rs",
    "crates/core/tests/estimator_equivalence.rs",
    "crates/core/tests/fault_injection.rs",
    "crates/server/tests/policy_matrix.rs",
];
/// TCP suites checked against `registered_error_kinds()`: a frame kind
/// nothing provokes over a real socket is a frame kind clients cannot
/// trust.
pub const TCP_SUITE_PATHS: &[&str] =
    &["crates/server/tests/tcp_chaos.rs", "crates/server/tests/tcp_soak.rs"];
/// The batched-sweep equivalence suite: every registered policy must be
/// proven bit-identical between `BatchRunner::run_many` and the serial
/// reference, or the batched default silently diverges for that policy.
pub const BATCH_SUITE_PATH: &str = "crates/core/tests/batch_equivalence.rs";

/// Extracts the string literals returned by `fn <fn_name>` in `src`.
///
/// The registries are arrays of `&'static str` literals inside a single
/// function body, so "every string literal between the function's opening
/// and closing brace" is exact. Returns an empty list if the function is
/// missing — R1 reports that as a finding rather than guessing.
pub fn extract_registry(src: &str, fn_name: &str) -> Vec<RegistryName> {
    let toks = lex(src);
    let mut i = 0;
    // Find `fn <fn_name>`.
    while i < toks.len() {
        if toks[i].tok.is_ident("fn") && toks.get(i + 1).is_some_and(|t| t.tok.is_ident(fn_name))
        {
            break;
        }
        i += 1;
    }
    if i >= toks.len() {
        return Vec::new();
    }
    // Find the body's opening brace, then collect strings to its close.
    while i < toks.len() && !toks[i].tok.is_punct('{') {
        i += 1;
    }
    let mut depth = 0usize;
    let mut out = Vec::new();
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            Tok::Str(s) => out.push(RegistryName { name: s.clone(), line: toks[i].line }),
            _ => {}
        }
        i += 1;
    }
    out
}

/// One CI matrix entry with its line in ci.yml.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixEntry {
    pub value: String,
    pub line: usize,
}

/// Extracts the list items under the matrix key `key:` (e.g. `policy:`)
/// from workflow YAML. Line-oriented on purpose — the workflow file is
/// ours, and a hand-rolled YAML-subset reader keeps the lint
/// dependency-free. Items are `- value` lines directly under the key,
/// more indented than it; quotes are stripped.
pub fn matrix_entries(yaml: &str, key: &str) -> Vec<MatrixEntry> {
    let want = format!("{key}:");
    let mut out = Vec::new();
    let mut lines = yaml.lines().enumerate().peekable();
    while let Some((idx, line)) = lines.next() {
        if line.trim() != want {
            continue;
        }
        let key_indent = indent_of(line);
        let _ = idx;
        for (jdx, item) in lines.by_ref() {
            let trimmed = item.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            if indent_of(item) <= key_indent || !trimmed.starts_with('-') {
                break;
            }
            let value = trimmed
                .trim_start_matches('-')
                .trim()
                .trim_matches('\'')
                .trim_matches('"')
                .to_string();
            out.push(MatrixEntry { value, line: jdx + 1 });
        }
    }
    out
}

fn indent_of(line: &str) -> usize {
    line.len() - line.trim_start().len()
}

/// The registry grammar's leading identifier: `oracle(0.9)` → `oracle`.
fn kind_of(entry: &str) -> &str {
    entry.split('(').next().unwrap_or(entry).trim()
}

/// Line of the matrix key `key:` in the YAML (for findings about missing
/// entries), defaulting to 1.
fn key_line(yaml: &str, key: &str) -> usize {
    let want = format!("{key}:");
    yaml.lines()
        .position(|l| l.trim() == want)
        .map_or(1, |i| i + 1)
}

/// Runs the full R1 cross-check.
pub fn check_r1(inputs: &RegistryInputs) -> Vec<Finding> {
    let mut out = Vec::new();
    let policies = extract_registry(&inputs.policy_src, "registered_policies");
    let estimators = extract_registry(&inputs.estimator_src, "registered_estimators");
    if policies.is_empty() {
        out.push(r1(
            POLICY_REGISTRY_PATH,
            1,
            "could not parse `registered_policies()`; R1 needs the registry to cross-check"
                .into(),
            "registered_policies".into(),
        ));
    }
    if estimators.is_empty() {
        out.push(r1(
            ESTIMATOR_REGISTRY_PATH,
            1,
            "could not parse `registered_estimators()`; R1 needs the registry to cross-check"
                .into(),
            "registered_estimators".into(),
        ));
    }

    let ci_policies = matrix_entries(&inputs.ci_yaml, "policy");
    let ci_estimators = matrix_entries(&inputs.ci_yaml, "estimator");

    // 1. Every registered policy is in the CI policy matrix, verbatim.
    for p in &policies {
        if !ci_policies.iter().any(|e| e.value == p.name) {
            out.push(r1(
                CI_PATH,
                key_line(&inputs.ci_yaml, "policy"),
                format!(
                    "registered policy \"{}\" is missing from the policy-matrix job in ci.yml",
                    p.name
                ),
                p.name.clone(),
            ));
        }
    }
    // 2. Every registered estimator kind leads some CI estimator entry.
    for e in &estimators {
        if !ci_estimators.iter().any(|m| kind_of(&m.value) == e.name) {
            out.push(r1(
                CI_PATH,
                key_line(&inputs.ci_yaml, "estimator"),
                format!(
                    "registered estimator \"{}\" is missing from the estimator matrix in ci.yml",
                    e.name
                ),
                e.name.clone(),
            ));
        }
    }
    // 3. Every CI entry resolves to a registered name (catches renames).
    for m in &ci_policies {
        if !policies.is_empty() && !policies.iter().any(|p| p.name == m.value) {
            out.push(r1(
                CI_PATH,
                m.line,
                format!("CI matrix policy \"{}\" is not a registered policy", m.value),
                m.value.clone(),
            ));
        }
    }
    for m in &ci_estimators {
        if !estimators.is_empty() && !estimators.iter().any(|e| e.name == kind_of(&m.value)) {
            out.push(r1(
                CI_PATH,
                m.line,
                format!("CI matrix estimator \"{}\" is not a registered estimator", m.value),
                m.value.clone(),
            ));
        }
    }
    // 4. Suite coverage. A suite that iterates the registry covers every
    //    name by construction; otherwise the literal name must appear
    //    (case-insensitively, so `EstimatorSpec::Tributary` covers
    //    "tributary").
    let policy_driven = inputs
        .suites
        .iter()
        .any(|(_, text)| text.contains("registered_policies"));
    let estimator_driven = inputs
        .suites
        .iter()
        .any(|(_, text)| text.contains("registered_estimators"));
    for p in &policies {
        let covered = policy_driven
            || inputs.suites.iter().any(|(_, text)| contains_ci(text, &p.name));
        if !covered {
            out.push(r1(
                POLICY_REGISTRY_PATH,
                p.line,
                format!(
                    "registered policy \"{}\" is not exercised by any equivalence/storm \
                     suite ({})",
                    p.name,
                    suite_list(inputs)
                ),
                p.name.clone(),
            ));
        }
    }
    for e in &estimators {
        let covered = estimator_driven
            || inputs.suites.iter().any(|(_, text)| contains_ci(text, &e.name));
        if !covered {
            out.push(r1(
                ESTIMATOR_REGISTRY_PATH,
                e.line,
                format!(
                    "registered estimator \"{}\" is not exercised by any equivalence/storm \
                     suite ({})",
                    e.name,
                    suite_list(inputs)
                ),
                e.name.clone(),
            ));
        }
    }
    // 5. Batched-path coverage: every registered policy is locked
    //    bit-identical through the batched sweep path. The suite iterating
    //    `registered_policies()` covers every name by construction;
    //    otherwise the literal name must appear. Without this, a new
    //    policy can ship exercised only by the serial reference while
    //    every sweep runs it in cohorts.
    let batch_driven = inputs.batch_suite.contains("registered_policies");
    for p in &policies {
        let covered = batch_driven || contains_ci(&inputs.batch_suite, &p.name);
        if !covered {
            out.push(r1(
                POLICY_REGISTRY_PATH,
                p.line,
                format!(
                    "registered policy \"{}\" is not locked batched≡serial by the \
                     batch-equivalence suite ({BATCH_SUITE_PATH})",
                    p.name
                ),
                p.name.clone(),
            ));
        }
    }
    // 6. Error-frame coverage: every wire error-frame kind the server can
    //    emit is provoked by a TCP suite. Iterating the registry covers
    //    everything by construction, like the policy/estimator rules.
    let kinds = extract_registry(&inputs.wire_src, "registered_error_kinds");
    if kinds.is_empty() {
        out.push(r1(
            WIRE_REGISTRY_PATH,
            1,
            "could not parse `registered_error_kinds()`; R1 needs the error-frame registry \
             to cross-check"
                .into(),
            "registered_error_kinds".into(),
        ));
    }
    let kind_driven = inputs
        .tcp_suites
        .iter()
        .any(|(_, text)| text.contains("registered_error_kinds"));
    for k in &kinds {
        let covered = kind_driven
            || inputs.tcp_suites.iter().any(|(_, text)| contains_ci(text, &k.name));
        if !covered {
            out.push(r1(
                WIRE_REGISTRY_PATH,
                k.line,
                format!(
                    "wire error-frame kind \"{}\" is not exercised by any TCP suite ({})",
                    k.name,
                    inputs
                        .tcp_suites
                        .iter()
                        .map(|(p, _)| p.as_str())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
                k.name.clone(),
            ));
        }
    }
    out
}

fn suite_list(inputs: &RegistryInputs) -> String {
    inputs
        .suites
        .iter()
        .map(|(p, _)| p.as_str())
        .collect::<Vec<_>>()
        .join(", ")
}

fn contains_ci(haystack: &str, needle: &str) -> bool {
    haystack.to_ascii_lowercase().contains(&needle.to_ascii_lowercase())
}

fn r1(file: &str, line: usize, message: String, snippet: String) -> Finding {
    Finding { rule: "R1", file: file.to_string(), line, message, snippet }
}

#[cfg(test)]
mod tests {
    use super::*;

    const POLICY_SRC: &str = r#"
        impl Approach {
            pub fn registered_policies() -> [&'static str; 2] {
                ["spottune", "hybrid"]
            }
            pub fn other() -> &'static str { "not-a-policy" }
        }
    "#;
    const ESTIMATOR_SRC: &str = r#"
        impl EstimatorSpec {
            pub fn registered_estimators() -> [&'static str; 2] {
                ["oracle", "revpred"]
            }
        }
    "#;
    const CI: &str = "
jobs:
  policy-matrix:
    strategy:
      matrix:
        policy:
          - spottune
          - hybrid
        estimator:
          - oracle(0.9)
          - revpred
";

    const WIRE_SRC: &str = r#"
        pub fn registered_error_kinds() -> [&'static str; 2] {
            ["overloaded", "malformed"]
        }
    "#;

    fn inputs() -> RegistryInputs {
        RegistryInputs {
            policy_src: POLICY_SRC.into(),
            estimator_src: ESTIMATOR_SRC.into(),
            wire_src: WIRE_SRC.into(),
            ci_yaml: CI.into(),
            suites: vec![(
                "crates/core/tests/fault_injection.rs".into(),
                "for name in Approach::registered_policies() {} \
                 for k in EstimatorSpec::registered_estimators() {}"
                    .into(),
            )],
            tcp_suites: vec![(
                "crates/server/tests/tcp_chaos.rs".into(),
                "assert_error_kind(\"overloaded\"); assert_error_kind(\"malformed\");".into(),
            )],
            batch_suite: "for name in Approach::registered_policies() { run_many(...) }".into(),
        }
    }

    #[test]
    fn registry_extraction_stops_at_the_function_brace() {
        let names: Vec<_> = extract_registry(POLICY_SRC, "registered_policies")
            .into_iter()
            .map(|n| n.name)
            .collect();
        assert_eq!(names, vec!["spottune", "hybrid"]);
    }

    #[test]
    fn matrix_entries_strip_quotes_and_stop_at_dedent() {
        let entries: Vec<_> = matrix_entries(CI, "estimator")
            .into_iter()
            .map(|e| e.value)
            .collect();
        assert_eq!(entries, vec!["oracle(0.9)", "revpred"]);
    }

    #[test]
    fn clean_inputs_produce_no_findings() {
        assert_eq!(check_r1(&inputs()), vec![]);
    }

    #[test]
    fn removing_a_policy_from_the_ci_matrix_fails() {
        let mut inp = inputs();
        inp.ci_yaml = inp.ci_yaml.replace("          - hybrid\n", "");
        let f = check_r1(&inp);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("hybrid"), "{}", f[0].message);
        assert_eq!(f[0].file, CI_PATH);
    }

    #[test]
    fn unregistered_matrix_entry_fails() {
        let mut inp = inputs();
        inp.ci_yaml = inp.ci_yaml.replace("- spottune", "- spottune-v2");
        let f = check_r1(&inp);
        assert_eq!(f.len(), 2, "missing registered + unknown entry: {f:?}");
    }

    #[test]
    fn suite_coverage_accepts_registry_driven_or_literal() {
        let mut inp = inputs();
        // Suites mention nothing registry-driven: only "spottune" literally
        // (and estimators not at all).
        inp.suites = vec![(
            "crates/core/tests/policy_equivalence.rs".into(),
            "Campaign::new(Approach::SpotTune { theta }, ...)".into(),
        )];
        let f = check_r1(&inp);
        // "spottune" covered case-insensitively via `Approach::SpotTune`;
        // "hybrid", "oracle", "revpred" are not.
        let missing: Vec<_> = f.iter().map(|f| f.snippet.as_str()).collect();
        assert_eq!(missing, vec!["hybrid", "oracle", "revpred"], "{f:?}");
    }

    #[test]
    fn unparseable_registry_is_itself_a_finding() {
        let mut inp = inputs();
        inp.policy_src = "fn something_else() {}".into();
        let f = check_r1(&inp);
        assert!(f.iter().any(|f| f.message.contains("registered_policies")), "{f:?}");
    }

    #[test]
    fn uncovered_error_kind_fails_and_registry_iteration_covers_all() {
        // Dropping "malformed" from the TCP suite leaves that kind naked.
        let mut inp = inputs();
        inp.tcp_suites =
            vec![("crates/server/tests/tcp_chaos.rs".into(), "\"overloaded\"".into())];
        let f = check_r1(&inp);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].file, WIRE_REGISTRY_PATH);
        assert!(f[0].message.contains("malformed"), "{}", f[0].message);
        // A suite that iterates the registry covers everything.
        inp.tcp_suites = vec![(
            "crates/server/tests/tcp_chaos.rs".into(),
            "for kind in registered_error_kinds() {}".into(),
        )];
        assert_eq!(check_r1(&inp), vec![]);
    }

    #[test]
    fn policy_missing_from_batch_suite_fails() {
        // A batch suite that only names "spottune" literally leaves
        // "hybrid" without a batched≡serial lock.
        let mut inp = inputs();
        inp.batch_suite = "Approach::SpotTune { theta: 0.7 }".into();
        let f = check_r1(&inp);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].file, POLICY_REGISTRY_PATH);
        assert!(f[0].message.contains("hybrid"), "{}", f[0].message);
        assert!(f[0].message.contains(BATCH_SUITE_PATH), "{}", f[0].message);
    }

    #[test]
    fn unparseable_error_kind_registry_is_itself_a_finding() {
        let mut inp = inputs();
        inp.wire_src = "fn something_else() {}".into();
        let f = check_r1(&inp);
        assert!(
            f.iter().any(|f| f.message.contains("registered_error_kinds")),
            "{f:?}"
        );
    }
}
