//! Sweep-throughput bench: the batched sweep engine
//! ([`BatchRunner::run_many`]) vs the serial reference
//! loop ([`CampaignRequest::run_serial`] per campaign), over a
//! representative policy × estimator × seed grid.
//!
//! The batched path groups requests by market scenario, resolves the pool
//! and event spine once per group, trains each learned estimator once per
//! (kind, scenario) instead of once per campaign, and reuses one arena of
//! job state across the whole group — the serial loop pays all of that
//! per campaign. Both produce bit-identical reports (locked by
//! `crates/core/tests/batch_equivalence.rs` and re-asserted here under
//! `--check`).
//!
//! ```sh
//! # CI check: 1k campaigns, full serial reference, bit-identity asserted.
//! cargo run --release -p spottune-bench --bin sweep_throughput -- \
//!     --campaigns 1000 --days 2 --check
//!
//! # Same check pinned to one thread (`--threads N` caps the workers
//! # `run_many` shares cohorts over; default: every core).
//! cargo run --release -p spottune-bench --bin sweep_throughput -- \
//!     --campaigns 1000 --days 2 --scenarios 1 --check --threads 1
//!
//! # Headline measurement: 100k campaigns, serial extrapolated from a
//! # 2k-campaign sample (full serial would retrain ~50k estimators),
//! # appended to the committed baseline together with the one-scenario
//! # scaling curve (campaigns/s at 1, 2, 4 … nproc threads).
//! cargo run --release -p spottune-bench --bin sweep_throughput -- \
//!     --campaigns 100000 --days 2 --serial-sample 2000 \
//!     --write crates/bench/BENCH_sweep.json
//! ```
//!
//! The JSON line schema is documented in `crates/bench/README.md`.

use spottune_core::prelude::*;
use spottune_market::{EstimatorSpec, MarketScenario};
use spottune_mlsim::prelude::*;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

struct Args {
    campaigns: usize,
    days: u64,
    scenarios: u64,
    serial_sample: usize,
    check: bool,
    /// Worker-thread cap for `run_many`; `None` keeps the runner default
    /// (`available_parallelism`).
    threads: Option<usize>,
    write: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        campaigns: 1000,
        days: 2,
        scenarios: 2,
        serial_sample: 0,
        check: false,
        threads: None,
        write: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match flag.as_str() {
            "--campaigns" => {
                args.campaigns = value("--campaigns").parse().expect("--campaigns: usize");
            }
            "--days" => args.days = value("--days").parse().expect("--days: u64"),
            "--scenarios" => {
                args.scenarios = value("--scenarios").parse().expect("--scenarios: u64");
            }
            "--serial-sample" => {
                args.serial_sample =
                    value("--serial-sample").parse().expect("--serial-sample: usize");
            }
            "--check" => args.check = true,
            "--threads" => {
                args.threads = Some(value("--threads").parse().expect("--threads: usize"));
            }
            "--write" => args.write = Some(value("--write")),
            other => panic!("unknown flag {other} (see the module docs for usage)"),
        }
    }
    args
}

/// The estimator mix the sweep cycles through: half learned (the case the
/// predictor tier amortizes), the rest split between the oracle (spine
/// lookups) and the constant baseline (pure engine cost).
const ESTIMATOR_MIX: [&str; 4] = ["logistic", "oracle(0.9)", "logistic", "constant(0.2)"];
const POLICY_MIX: [&str; 4] = ["spottune", "spottune", "hybrid", "migration-aware"];
const THETA_MIX: [f64; 4] = [0.7, 1.0, 0.7, 0.7];

fn build_requests(campaigns: usize, days: u64, scenarios: u64) -> Vec<CampaignRequest> {
    let base = Workload::benchmark(Algorithm::LoR);
    let workload = Workload::custom(Algorithm::LoR, 15, base.hp_grid()[..2].to_vec());
    (0..campaigns)
        .map(|i| CampaignRequest {
            id: i as u64,
            approach: Approach::from_policy_name(POLICY_MIX[i % 4], THETA_MIX[i % 4])
                .expect("mix names are registered"),
            workload: workload.clone(),
            // `i / 4` decorrelates the scenario from the mod-4 mixes so
            // every estimator kind appears in every scenario.
            scenario: MarketScenario::from_days(days, 42 + (i as u64 / 4) % scenarios),
            seed: 42 + (i as u64 % 16),
            estimator: EstimatorSpec::parse(ESTIMATOR_MIX[i % 4]).expect("mix specs parse"),
        })
        .collect()
}

/// Timed passes per point of the scaling curve; the point is the fastest
/// (a freshly loaded box can take a second to hand a process its second
/// core, which would otherwise flatten the first multi-thread point).
const SCALING_PASSES: usize = 3;

/// The scaling curve: the same mix over **one** scenario (a single group,
/// so every extra thread is cohort sharing and nothing else), tiers warmed
/// once, timed at 1, 2, 4 … `nproc` threads (best of [`SCALING_PASSES`]).
/// Every pass must return the one-thread reports bit for bit. Returns
/// `(threads, campaigns/s)` pairs.
fn scaling_curve(args: &Args, nproc: usize) -> Vec<(usize, f64)> {
    let requests = build_requests(args.campaigns, args.days, 1);
    let warm = BatchRunner::new();
    warm.run_many(&requests[..requests.len().min(64)]);
    let mut counts: Vec<usize> =
        std::iter::successors(Some(1usize), |t| Some(t * 2)).take_while(|&t| t < nproc).collect();
    counts.push(nproc);
    let mut reference: Option<Vec<HptReport>> = None;
    counts
        .into_iter()
        .map(|threads| {
            let runner = warm.clone().with_threads(threads);
            let mut best_secs = f64::INFINITY;
            for _ in 0..SCALING_PASSES {
                let t0 = Instant::now();
                let reports = runner.run_many(&requests);
                best_secs = best_secs.min(t0.elapsed().as_secs_f64());
                match &reference {
                    None => reference = Some(reports),
                    Some(want) => assert!(
                        reports == *want,
                        "{threads} threads diverged from the one-thread reports"
                    ),
                }
            }
            let per_sec = requests.len() as f64 / best_secs;
            println!("scaling : {threads:>3} thread(s) {per_sec:>9.1} campaigns/s (1 scenario)");
            (threads, per_sec)
        })
        .collect()
}

fn main() {
    let args = parse_args();
    assert!(args.campaigns > 0 && args.scenarios > 0, "need a non-empty sweep");
    let requests = build_requests(args.campaigns, args.days, args.scenarios);
    let n = requests.len();
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());

    // Batched: one runner, fresh tiers, full sweep through SoA cohorts
    // (cross-campaign lane kernel, probe-cached estimators); `--threads`
    // caps the workers cohorts are shared over (wall-clock only, never
    // bits).
    let mut runner = BatchRunner::new();
    if let Some(threads) = args.threads {
        runner = runner.with_threads(threads);
    }
    println!(
        "sweep_throughput: {n} campaigns, {} scenario(s) at {} day(s), mix {:?}, \
         {} thread(s) on {nproc} core(s)",
        args.scenarios,
        args.days,
        ESTIMATOR_MIX,
        runner.threads()
    );
    let t0 = Instant::now();
    let batched = runner.run_many(&requests);
    let batched_secs = t0.elapsed().as_secs_f64();
    let stats = runner.stats();
    println!(
        "batched : {batched_secs:>8.2}s total, {:>9.1} campaigns/s ({} sessions, {} trainings, \
         {} spine queries, {} kernel passes, lane occupancy {}, probes {}/{})",
        n as f64 / batched_secs,
        stats.groups,
        stats.predictor_cache.misses,
        stats.spine_queries,
        stats.kernel_invocations,
        stats
            .lane_occupancy()
            .map_or("n/a".to_string(), |o| format!("{:.3}", o)),
        stats.probe_hits,
        stats.probe_hits + stats.probe_misses,
    );

    // Serial reference: pools built once per scenario (as every serial
    // sweep before the batched engine did), one shared curve memo, but
    // estimator training and engine state paid per campaign. `--serial-
    // sample M` measures a prefix and extrapolates — full serial at 100k
    // campaigns retrains tens of thousands of estimators.
    let sample = match args.serial_sample {
        0 => n,
        m => m.min(n),
    };
    assert!(
        !args.check || sample == n,
        "--check needs the full serial reference (drop --serial-sample)"
    );
    let mut pools = BTreeMap::new();
    for request in &requests[..sample] {
        pools.entry(request.scenario).or_insert_with(|| request.scenario.build());
    }
    let cache = CurveCache::new();
    let t0 = Instant::now();
    let serial: Vec<HptReport> = requests[..sample]
        .iter()
        .map(|request| request.run_serial(&pools[&request.scenario], &cache))
        .collect();
    let measured_secs = t0.elapsed().as_secs_f64();
    let serial_secs = measured_secs * n as f64 / sample as f64;
    if sample == n {
        println!(
            "serial  : {serial_secs:>8.2}s total, {:>9.1} campaigns/s",
            n as f64 / serial_secs
        );
    } else {
        println!(
            "serial  : {serial_secs:>8.2}s extrapolated from {sample} campaigns in \
             {measured_secs:.2}s ({:>9.1} campaigns/s)",
            sample as f64 / measured_secs
        );
    }

    let speedup = serial_secs / batched_secs;
    println!("speedup : {speedup:>8.2}x (batched vs serial)");

    for (i, (want, got)) in serial.iter().zip(&batched).enumerate() {
        assert_eq!(got, want, "campaign {i}: batched report diverged from run_serial");
    }
    println!("bit-identity: {sample}/{n} campaigns verified against run_serial");
    if args.check {
        assert!(stats.spine_queries > 0, "batched sweep never queried the spine");
        // One pool/spine build per scenario, one learned training per
        // (kind, scenario) — the amortization the batched path exists for.
        assert_eq!(stats.pool_cache.misses, args.scenarios, "{stats:?}");
        assert_eq!(stats.spine_cache.misses, args.scenarios, "{stats:?}");
        assert_eq!(stats.predictor_cache.misses, args.scenarios, "{stats:?}");
        assert_eq!(stats.campaigns as usize, n);
        assert!(stats.kernel_invocations > 0, "sweep never invoked the lane kernel: {stats:?}");
        println!("check ok: batched ≡ serial, spine queries {}", stats.spine_queries);
    }

    if let Some(path) = &args.write {
        let scaling: Vec<String> = scaling_curve(&args, nproc)
            .into_iter()
            .map(|(threads, per_sec)| {
                format!("{{\"threads\":{threads},\"campaigns_per_sec\":{per_sec:.1}}}")
            })
            .collect();
        // One JSON line per run, appended (the BENCH_*.json convention;
        // the workspace has no JSON library, so format by hand).
        let line = format!(
            concat!(
                "{{\"group\":\"sweep\",\"campaigns\":{},\"scenarios\":{},\"days\":{},",
                "\"estimator_mix\":[\"logistic\",\"oracle(0.9)\",\"logistic\",",
                "\"constant(0.2)\"],\"serial_secs\":{:.2},\"serial_sample\":{},",
                "\"batched_secs\":{:.2},\"speedup\":{:.2},\"batched_campaigns_per_sec\":{:.1},",
                "\"serial_campaigns_per_sec\":{:.1},\"groups\":{},\"trainings\":{},",
                "\"spine_queries\":{},\"lane_width\":{},",
                "\"kernel_invocations\":{},\"nproc\":{},\"threads\":{},\"scaling\":[{}]}}"
            ),
            n,
            args.scenarios,
            args.days,
            serial_secs,
            sample,
            batched_secs,
            speedup,
            n as f64 / batched_secs,
            n as f64 / serial_secs,
            stats.groups,
            stats.predictor_cache.misses,
            stats.spine_queries,
            spottune_earlycurve::LANE_WIDTH,
            stats.kernel_invocations,
            nproc,
            runner.threads(),
            scaling.join(","),
        );
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .unwrap_or_else(|e| panic!("cannot open {path}: {e}"));
        writeln!(file, "{line}").expect("write bench line");
        println!("appended baseline line to {path}");
    }
}
