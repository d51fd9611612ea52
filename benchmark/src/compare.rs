//! `--compare A.json B.json`: the regression gate over two ledger files.
//!
//! For every (workload, end-to-end metric) it takes the median over each
//! file's untraced runs, the change of B against A as a share of A, and
//! a verdict against the metric's bound. Where either side's quartile
//! spread is wider than the bound the pair is `unresolved`, not `same`,
//! unless every B run reads better than every A run.

use crate::json::{self, Value};
use crate::metrics::{Better, END_TO_END};
use crate::stats::{median, quartile_spread};
use std::collections::BTreeMap;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    /// Share of A by which B is worse (negative: better).
    pub worse_by: f64,
    pub bound: f64,
    /// The wider of the two sides' quartile spreads, when either has
    /// enough runs to have one.
    pub spread: Option<f64>,
    pub verdict: Verdict,
}

/// Verdict for one metric from each side's per-run values.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, Option<f64>, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
        Better::Higher => (ma - mb) / ma.abs().max(f64::MIN_POSITIVE),
    };
    let spread = match (quartile_spread(a), quartile_spread(b)) {
        (Some(x), Some(y)) => Some(x.max(y)),
        (x, y) => x.or(y),
    };
    let is_better = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let verdict = if a == b {
        // The same samples: nothing to resolve.
        Verdict::Same
    } else if spread.is_some_and(|s| s > bound) {
        if b.iter().all(|&y| a.iter().all(|&x| is_better(y, x))) {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (worse_by, spread, verdict)
}

type Samples = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

struct Side {
    nproc: f64,
    /// workload → metric → one value per untraced run.
    samples: Samples,
    /// workload → (attempted, failed) over all of its runs.
    failures: BTreeMap<String, (f64, f64)>,
}

fn side(doc: &Value) -> Result<Side, String> {
    let nproc = doc
        .get("provenance")
        .and_then(|p| p.get("nproc"))
        .and_then(Value::as_f64)
        .ok_or("no provenance.nproc: results without provenance are not comparable")?;
    let runs = doc
        .get("runs")
        .and_then(Value::as_array)
        .ok_or("no runs array")?;
    let mut samples: Samples = BTreeMap::new();
    let mut failures: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("run without workload")?;
        let num = |key: &str| run.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        let tally = failures.entry(workload.to_string()).or_default();
        tally.0 += num("attempted");
        tally.1 += num("failed");
        if num("trace") != 0.0 {
            continue;
        }
        let metrics = run
            .get("metrics")
            .and_then(Value::members)
            .ok_or("run without metrics")?;
        for (name, m) in metrics {
            if let Some(value) = m.get("value").and_then(Value::as_f64) {
                samples
                    .entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(Side {
        nproc,
        samples,
        failures,
    })
}

pub struct Report {
    pub rows: Vec<Row>,
    /// Workloads whose failed share rose from A to B.
    pub failed_share_rose: Vec<String>,
}

impl Report {
    pub fn regressed(&self) -> bool {
        !self.failed_share_rose.is_empty() || self.rows.iter().any(|r| r.verdict == Verdict::Worse)
    }
}

/// Compares two parsed ledger documents.
///
/// # Errors
///
/// Refuses results taken on different core counts, and malformed files.
pub fn compare(a: &Value, b: &Value) -> Result<Report, String> {
    let (a, b) = (side(a)?, side(b)?);
    if a.nproc != b.nproc {
        return Err(format!(
            "refusing to compare: A ran on {} cores, B on {}",
            a.nproc, b.nproc
        ));
    }
    let mut rows = Vec::new();
    for (workload, a_metrics) in &a.samples {
        let Some(b_metrics) = b.samples.get(workload) else {
            continue;
        };
        for m in &END_TO_END {
            let (Some(av), Some(bv)) = (a_metrics.get(m.name), b_metrics.get(m.name)) else {
                continue;
            };
            let (worse_by, spread, verdict) = judge(av, bv, m.better, m.bound);
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name,
                a: median(av),
                b: median(bv),
                worse_by,
                bound: m.bound,
                spread,
                verdict,
            });
        }
    }
    let share = |(attempted, failed): (f64, f64)| failed / attempted.max(1.0);
    let failed_share_rose = a
        .failures
        .iter()
        .filter(|(w, &fa)| b.failures.get(*w).is_some_and(|&fb| share(fb) > share(fa)))
        .map(|(w, _)| w.clone())
        .collect();
    Ok(Report {
        rows,
        failed_share_rose,
    })
}

/// The `--compare` command: prints the table, exits 1 on a regression
/// and 2 when the files cannot be compared.
pub fn run(a_path: &str, b_path: &str) -> ExitCode {
    let parse = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let report = match parse(a_path).and_then(|a| compare(&a, &parse(b_path)?)) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "bound", "spread"
    );
    for r in &report.rows {
        println!(
            "{:<16} {:<20} {:>14.4} {:>14.4} {:>8.1}% {:>6.0}% {:>8}  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            100.0 * r.worse_by,
            100.0 * r.bound,
            r.spread
                .map_or("n/a".to_string(), |s| format!("{:.1}%", 100.0 * s)),
            r.verdict.as_str()
        );
    }
    for workload in &report.failed_share_rose {
        println!("{workload}: failed share rose from A to B");
    }
    if report.regressed() {
        println!("REGRESSION");
        ExitCode::from(1)
    } else {
        println!("ok: no metric worse than its bound, no rise in failed share");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger(nproc: f64, throughput: &[f64], latency: &[f64], failed: f64) -> Value {
        let runs = throughput
            .iter()
            .zip(latency)
            .map(|(&t, &l)| {
                Value::obj(vec![
                    ("workload", Value::str("wire_closed")),
                    ("trace", Value::Num(0.0)),
                    ("attempted", Value::Num(100.0)),
                    ("failed", Value::Num(failed)),
                    (
                        "metrics",
                        Value::obj(vec![
                            (
                                "campaigns_per_s",
                                Value::obj(vec![("value", Value::Num(t))]),
                            ),
                            ("latency_p50_ms", Value::obj(vec![("value", Value::Num(l))])),
                        ]),
                    ),
                ])
            })
            .collect();
        Value::obj(vec![
            ("provenance", Value::obj(vec![("nproc", Value::Num(nproc))])),
            ("runs", Value::Arr(runs)),
        ])
    }

    #[test]
    fn a_file_compared_with_itself_is_all_same() {
        // Spread far wider than any bound: still the same samples.
        let a = ledger(2.0, &[10.0, 20.0, 40.0, 80.0], &[1.0, 2.0, 4.0, 8.0], 0.0);
        let report = compare(&a, &a).expect("comparable");
        assert_eq!(report.rows.len(), 2);
        assert!(report
            .rows
            .iter()
            .all(|r| r.verdict == Verdict::Same && r.worse_by == 0.0));
        assert!(!report.regressed());
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 100.0];
        // Throughput is better higher: −20 % is worse, +20 % better.
        let drop: Vec<f64> = steady.iter().map(|v| v * 0.8).collect();
        let gain: Vec<f64> = steady.iter().map(|v| v * 1.2).collect();
        assert_eq!(judge(&steady, &drop, Better::Higher, 0.1).2, Verdict::Worse);
        assert_eq!(
            judge(&steady, &gain, Better::Higher, 0.1).2,
            Verdict::Better
        );
        assert_eq!(judge(&steady, &gain, Better::Lower, 0.1).2, Verdict::Worse);
        let nudge: Vec<f64> = steady.iter().map(|v| v * 1.03).collect();
        assert_eq!(judge(&steady, &nudge, Better::Lower, 0.1).2, Verdict::Same);
        // A spread wider than the bound hides a 5 % shift either way…
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        let shifted: Vec<f64> = noisy.iter().map(|v| v * 1.05).collect();
        assert_eq!(
            judge(&noisy, &shifted, Better::Lower, 0.1).2,
            Verdict::Unresolved
        );
        // …unless every B run beats every A run.
        let halved: Vec<f64> = noisy.iter().map(|v| v * 0.3).collect();
        assert_eq!(
            judge(&noisy, &halved, Better::Lower, 0.1).2,
            Verdict::Better
        );
    }

    #[test]
    fn regressions_failures_and_core_counts_gate() {
        let a = ledger(2.0, &[100.0, 101.0, 99.0], &[5.0, 5.1, 4.9], 0.0);
        let slow = ledger(2.0, &[100.0, 101.0, 99.0], &[7.0, 7.1, 6.9], 0.0);
        let report = compare(&a, &slow).expect("comparable");
        let latency = report
            .rows
            .iter()
            .find(|r| r.metric == "latency_p50_ms")
            .expect("row");
        assert_eq!(latency.verdict, Verdict::Worse);
        assert!(report.regressed());

        let failing = ledger(2.0, &[100.0, 101.0, 99.0], &[5.0, 5.1, 4.9], 1.0);
        let report = compare(&a, &failing).expect("comparable");
        assert_eq!(report.failed_share_rose, ["wire_closed"]);
        assert!(report.regressed());
        assert!(
            !compare(&failing, &a).expect("comparable").regressed(),
            "a fall is fine"
        );

        let other_box = ledger(4.0, &[100.0], &[5.0], 0.0);
        assert!(compare(&a, &other_box).is_err_and(|e| e.contains("cores")));
    }
}
