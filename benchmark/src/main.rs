//! The SpotTune perf ledger. See `benchmark/README.md`.
//!
//! ```text
//! spottune-benchmark --workload W --seed N --seconds S --trace 0|1
//!     one run; the last stdout line is the result object
//! spottune-benchmark [--seed S] [--only W] [--seconds S] [--reps N] [--out FILE]
//!     the ledger: every workload, untraced then a quarter-length traced pass
//! spottune-benchmark --compare A.json B.json
//!     the regression gate over two ledger files
//! ```
//!
//! Run it through `benchmark/run.sh`, which builds the server and the
//! harness first.

mod compare;
mod digest;
mod golden;
mod guard;
mod json;
mod metrics;
mod mix;
mod probes;
mod stats;
mod sweep;
mod sys;
mod trace;
mod wire;

use digest::CloudSums;
use json::Value;
use metrics::MetricSet;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// What a workload run hands back besides its metrics.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Digest and simulated statistics of the workload's request set.
    pub digest: u64,
    pub cloud: CloudSums,
    pub notes: Vec<String>,
    /// Empty for the in-process workloads.
    pub server_flags: Vec<String>,
}

struct Args {
    workload: Option<String>,
    only: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    reps: u64,
    compare: Option<(String, String)>,
    out: PathBuf,
    record: Option<PathBuf>,
    serve_bin: PathBuf,
    golden_dir: PathBuf,
    write_golden: bool,
    emit_benchmark_json: bool,
}

const USAGE: &str = "usage: benchmark/run.sh [--workload W --seed N --seconds S --trace 0|1] | \
[--seed S] [--only W] [--seconds S] [--reps N] [--out FILE] [--write-golden] | --compare A.json B.json";

fn parse_args() -> Result<Args, String> {
    let beside_me = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("spottune-serve")))
        .unwrap_or_else(|| PathBuf::from("target/release/spottune-serve"));
    let mut args = Args {
        workload: None,
        only: None,
        seed: golden::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        reps: 1,
        compare: None,
        out: PathBuf::from("benchmark/out/ledger.json"),
        record: None,
        serve_bin: beside_me,
        golden_dir: PathBuf::from("benchmark/golden"),
        write_golden: false,
        emit_benchmark_json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let number = |text: String| {
            text.parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && *v >= 0.0)
                .ok_or_else(|| format!("{flag}: {text:?} is not a number\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--only" => args.only = Some(value()?),
            "--seed" => args.seed = number(value()?)? as u64,
            "--seconds" => args.seconds = number(value()?)?.max(0.05),
            "--trace" => args.trace = number(value()?)? != 0.0,
            "--reps" => args.reps = (number(value()?)? as u64).max(1),
            "--compare" => args.compare = Some((value()?, value()?)),
            "--out" => args.out = PathBuf::from(value()?),
            "--record" => args.record = Some(PathBuf::from(value()?)),
            "--serve-bin" => args.serve_bin = PathBuf::from(value()?),
            "--golden-dir" => args.golden_dir = PathBuf::from(value()?),
            "--write-golden" => args.write_golden = true,
            "--emit-benchmark-json" => args.emit_benchmark_json = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    for name in args.workload.iter().chain(&args.only) {
        if !metrics::workload_names().contains(&name.as_str()) {
            return Err(format!(
                "unknown workload {name:?} (workloads: {})",
                metrics::workload_names().join(", ")
            ));
        }
    }
    Ok(args)
}

/// One run of one workload, checked and rendered.
struct Record {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    correct: bool,
    outcome: Outcome,
    /// `(name, value, unit, samples)` in registry order.
    rows: Vec<(&'static str, f64, &'static str, u64)>,
}

impl Record {
    /// The contract's result object: exactly these four keys.
    fn result_line(&self) -> String {
        let metrics = self
            .rows
            .iter()
            .map(|(name, value, unit, _)| {
                (
                    *name,
                    Value::obj(vec![
                        ("value", Value::Num(*value)),
                        ("unit", Value::str(*unit)),
                    ]),
                )
            })
            .collect();
        Value::obj(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.outcome.attempted as f64)),
            ("failed", Value::Num(self.outcome.failed as f64)),
            ("metrics", Value::obj(metrics)),
        ])
        .encode()
    }

    /// The ledger's fuller view of the same run.
    fn ledger_entry(&self) -> Value {
        let metrics = self
            .rows
            .iter()
            .map(|(name, value, unit, samples)| {
                (
                    *name,
                    Value::obj(vec![
                        ("value", Value::Num(*value)),
                        ("unit", Value::str(*unit)),
                        ("samples", Value::Num(*samples as f64)),
                    ]),
                )
            })
            .collect();
        Value::obj(vec![
            ("workload", Value::str(self.workload.clone())),
            ("seed", Value::Num(self.seed as f64)),
            ("seconds", Value::Num(self.seconds)),
            ("trace", Value::Num(f64::from(u8::from(self.trace)))),
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.outcome.attempted as f64)),
            ("failed", Value::Num(self.outcome.failed as f64)),
            (
                "report_digest",
                Value::str(format!("{:016x}", self.outcome.digest)),
            ),
            (
                "server_flags",
                Value::str(self.outcome.server_flags.join(" ")),
            ),
            (
                "notes",
                Value::Arr(self.outcome.notes.iter().map(Value::str).collect()),
            ),
            ("metrics", Value::obj(metrics)),
        ])
    }
}

fn provenance_of(record: &Record) -> Value {
    let connections = if record.outcome.server_flags.is_empty() {
        0
    } else {
        sys::load_width()
    };
    sys::provenance(record.seed, connections, &record.outcome.server_flags)
}

fn run_once(args: &Args, workload: &str) -> Result<Record, String> {
    guard::check_profiles(Path::new("."))?;
    let wire_kind = wire::Kind::from_name(workload);
    if wire_kind.is_some() {
        guard::check_server_fresh(&args.serve_bin)?;
    }
    let mut set = MetricSet::new();
    let tracer = trace::Tracer::new();
    if args.trace {
        // Memory first: before this process has freed anything.
        probes::tier_memory(args.seed, &mut set);
        probes::miss_costs(args.seed, &mut set);
        probes::earlycurve_costs(&mut set);
    }
    let mut outcome = match (sweep::Kind::from_name(workload), wire_kind, args.trace) {
        (Some(kind), _, false) => sweep::run_untraced(kind, args.seed, args.seconds, &mut set),
        (Some(kind), _, true) => {
            sweep::run_traced(kind, args.seed, args.seconds, &tracer, &mut set)
        }
        (_, Some(kind), false) => {
            wire::run_untraced(kind, args.seed, args.seconds, &args.serve_bin, &mut set)?
        }
        (_, Some(kind), true) => wire::run_traced(
            kind,
            args.seed,
            args.seconds,
            &args.serve_bin,
            &tracer,
            &mut set,
        )?,
        (None, None, _) => return Err(format!("unknown workload {workload:?}")),
    };

    // Recorded seeds are checked against the committed answer.
    let ours = golden::Golden {
        digest: outcome.digest,
        cloud: outcome.cloud,
    };
    if args.write_golden {
        golden::record(&args.golden_dir, args.seed, workload, &ours)?;
        outcome
            .notes
            .push(format!("recorded golden digest {:016x}", ours.digest));
    } else if let Some(want) = golden::lookup(&args.golden_dir, args.seed, workload)? {
        if want == ours {
            outcome
                .notes
                .push(format!("reports match golden digest {:016x}", want.digest));
        } else {
            outcome.notes.push(format!(
                "GOLDEN MISMATCH: digest {:016x} cloud {:?}, recorded {:016x} {:?}",
                ours.digest, ours.cloud, want.digest, want.cloud
            ));
            outcome.failed = outcome.attempted;
        }
    }

    let rows = if args.trace {
        let spans = tracer.snapshot();
        set.set("bench.trace_spans", spans.len() as f64, 1);
        set.set(
            "bench.failed_share",
            outcome.failed as f64 / outcome.attempted.max(1) as f64,
            outcome.attempted,
        );
        let path = args.out.with_file_name("trace.json");
        trace::write_json(&spans, &path).map_err(|e| format!("{}: {e}", path.display()))?;
        outcome.notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        ));
        set.per_layer_rows()
    } else {
        set.end_to_end_rows()?
    };
    Ok(Record {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        correct: outcome.failed == 0 && outcome.attempted > 0,
        outcome,
        rows: rows
            .into_iter()
            .map(|(m, unit)| (m.name, m.value, unit, m.samples))
            .collect(),
    })
}

/// Driver mode: one run, human-readable lines, then the result object
/// as the last line of stdout.
fn single(args: &Args, workload: &str) -> ExitCode {
    let record = match run_once(args, workload) {
        Ok(record) => record,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        record.workload,
        record.seed,
        record.seconds,
        u8::from(record.trace)
    );
    for note in &record.outcome.notes {
        println!("note: {note}");
    }
    for (name, value, unit, samples) in &record.rows {
        println!("metric {name} = {value} {unit} (n={samples})");
    }
    let provenance = provenance_of(&record);
    // The ledger keeps provenance once per file, not once per run.
    if args.record.is_none() {
        println!("provenance {}", provenance.encode());
    }
    if let Some(path) = &args.record {
        let entry = Value::obj(vec![
            ("provenance", provenance),
            ("run", record.ledger_entry()),
        ]);
        if let Err(e) = write_file(path, &entry.encode()) {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    }
    println!("{}", record.result_line());
    ExitCode::SUCCESS
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(io)?;
    }
    std::fs::write(path, text).map_err(io)
}

/// Ledger mode: every workload (or `--only` one), each run in a child
/// process of its own — peak memory is a per-process high-water mark —
/// untraced for the end-to-end metrics, then traced at a quarter of the
/// length for the per-layer metrics.
fn ledger(args: &Args) -> ExitCode {
    let me = match std::env::current_exe() {
        Ok(me) => me,
        Err(e) => {
            eprintln!("benchmark: cannot find my own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch = args.out.with_file_name("run.json");
    let mut provenance = Value::Null;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for workload in metrics::workload_names() {
        if args.only.as_deref().is_some_and(|only| only != workload) {
            continue;
        }
        for rep in 0..args.reps {
            for (trace, seconds) in [("0", args.seconds), ("1", (args.seconds / 4.0).max(1.0))] {
                let mut cmd = Command::new(&me);
                cmd.args(["--workload", workload, "--trace", trace])
                    .args(["--seed", &(args.seed + rep).to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .arg("--record")
                    .arg(&scratch)
                    .arg("--out")
                    .arg(&args.out)
                    .arg("--serve-bin")
                    .arg(&args.serve_bin)
                    .arg("--golden-dir")
                    .arg(&args.golden_dir);
                if args.write_golden {
                    cmd.arg("--write-golden");
                }
                // The child's stdout (notes, metric lines) passes through.
                let ok = cmd.status().is_ok_and(|s| s.success());
                let entry = std::fs::read_to_string(&scratch)
                    .ok()
                    .and_then(|t| json::parse(&t).ok());
                let _ = std::fs::remove_file(&scratch);
                match (ok, entry) {
                    (true, Some(entry)) => {
                        if let Some(p) = entry.get("provenance") {
                            provenance = p.clone();
                        }
                        if let Some(run) = entry.get("run") {
                            all_correct &=
                                run.get("correct").and_then(Value::as_bool) == Some(true);
                            runs.push(run.clone());
                        }
                    }
                    _ => {
                        eprintln!("benchmark: {workload} (trace {trace}) did not produce a result");
                        all_correct = false;
                    }
                }
            }
        }
    }
    let doc = Value::obj(vec![("provenance", provenance), ("runs", Value::Arr(runs))]);
    if let Err(e) = write_file(&args.out, &(doc.encode() + "\n")) {
        eprintln!("benchmark: {e}");
        return ExitCode::from(2);
    }
    println!("ledger written to {}", args.out.display());
    if all_correct {
        ExitCode::SUCCESS
    } else {
        println!("FAILED: at least one run was incorrect or missing");
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return compare::run(a, b);
    }
    if args.emit_benchmark_json {
        println!("{}", metrics::benchmark_json());
        return ExitCode::SUCCESS;
    }
    match &args.workload {
        Some(workload) => single(&args, workload),
        None => ledger(&args),
    }
}
