//! The CI matrix ↔ registry lock: every registered policy and estimator
//! kind is swept by the `policy-matrix` job in `.github/workflows/ci.yml`,
//! and the matrix names nothing the registries do not know (renames,
//! typos). The registries are *called* — `Approach::registered_policies`,
//! `EstimatorSpec::registered_estimators`, and `EstimatorSpec::parse` on
//! each estimator entry, exactly as `run_campaigns --estimator` reads it.
//! CI's `lint` job runs this test, so a dropped entry fails the first gate.

use spottune_core::Approach;
use spottune_market::EstimatorSpec;

const CI_YAML: &str = include_str!("../../../.github/workflows/ci.yml");

/// The `- value` items directly under the matrix key `key:`, quotes
/// stripped. Line-oriented on purpose: the workflow file is ours.
fn matrix_entries(yaml: &str, key: &str) -> Vec<String> {
    let indent = |line: &str| line.len() - line.trim_start().len();
    let mut lines = yaml.lines().skip_while(|line| line.trim() != format!("{key}:"));
    let Some(head) = lines.next() else {
        return Vec::new();
    };
    lines
        .filter(|line| !line.trim().is_empty() && !line.trim().starts_with('#'))
        .take_while(|line| indent(line) > indent(head) && line.trim().starts_with('-'))
        .map(|line| line.trim().trim_start_matches('-').trim().trim_matches(['\'', '"']))
        .map(str::to_string)
        .collect()
}

/// Every way `yaml`'s policy / estimator matrices disagree with the
/// registries, as messages; empty when they agree.
fn drift(yaml: &str) -> Vec<String> {
    let mut out = Vec::new();
    let policies = matrix_entries(yaml, "policy");
    for name in Approach::registered_policies() {
        if !policies.iter().any(|entry| entry == name) {
            out.push(format!("registered policy \"{name}\" is missing from the policy matrix"));
        }
    }
    for entry in &policies {
        if !Approach::registered_policies().contains(&entry.as_str()) {
            out.push(format!("matrix policy \"{entry}\" is not a registered policy"));
        }
    }
    let estimators = matrix_entries(yaml, "estimator");
    let mut kinds = Vec::new();
    for entry in &estimators {
        match EstimatorSpec::parse(entry) {
            Some(spec) => kinds.push(spec.kind_name()),
            None => {
                out.push(format!("matrix estimator \"{entry}\" is not a registered estimator"));
            }
        }
    }
    for name in EstimatorSpec::registered_estimators() {
        if !kinds.contains(&name) {
            out.push(format!(
                "registered estimator \"{name}\" is missing from the estimator matrix"
            ));
        }
    }
    out
}

/// `CI_YAML` with every line whose content is `from` rewritten to `to`
/// (dropped when `to` is `None`).
fn doctored(from: &str, to: Option<&str>) -> String {
    assert!(CI_YAML.lines().any(|line| line.trim() == from), "ci.yml lists `{from}`");
    let rewrite = |line: &str| match (line.trim() == from, to) {
        (false, _) => Some(line.to_string()),
        (true, Some(to)) => Some(line.replace(from, to)),
        (true, None) => None,
    };
    CI_YAML.lines().filter_map(rewrite).collect::<Vec<_>>().join("\n")
}

#[test]
fn live_ci_matrix_covers_exactly_the_registries() {
    assert_eq!(drift(CI_YAML), Vec::<String>::new());
}

#[test]
fn removing_a_registered_policy_from_live_ci_fails() {
    let found = drift(&doctored("- bid-aware", None));
    assert_eq!(found, ["registered policy \"bid-aware\" is missing from the policy matrix"]);
}

#[test]
fn removing_a_registered_estimator_from_live_ci_fails() {
    let found = drift(&doctored("- tributary", None));
    assert_eq!(found, ["registered estimator \"tributary\" is missing from the estimator matrix"]);
}

#[test]
fn an_unregistered_matrix_entry_fails() {
    let found = drift(&doctored("- spottune", Some("- spottune-v2")));
    assert_eq!(
        found,
        [
            "registered policy \"spottune\" is missing from the policy matrix",
            "matrix policy \"spottune-v2\" is not a registered policy",
        ]
    );
    // An estimator entry is resolved by the real parser, not by its prefix.
    let found = drift(&doctored("- constant(0.2)", Some("- constant(2.0)")));
    assert_eq!(
        found,
        [
            "matrix estimator \"constant(2.0)\" is not a registered estimator",
            "registered estimator \"constant\" is missing from the estimator matrix",
        ]
    );
}
