//! Sweep client of the sharded campaign server: builds a
//! workload × policy × θ × seed × market-scenario request grid, submits it
//! to a [`CampaignServer`] worker pool, streams reports back in completion
//! order and prints throughput plus shared-tier hit rates.
//!
//! Run with (all flags optional):
//!
//! ```sh
//! cargo run --release -p spottune-bench --bin run_campaigns -- \
//!     --workloads LoR,GBTR --policy spottune,hybrid --thetas 0.5,0.7,1.0 \
//!     --estimator revpred --seeds 8 --scenario-seeds 2 --days 12 \
//!     --workers 0 --curve-capacity 0 --quiet
//! ```
//!
//! `--policy` names come from the policy registry
//! ([`Approach::registered_policies`]); `all` expands to every registered
//! policy, and unknown names abort with the registry listing. θ-independent
//! policies (the baselines) run once regardless of `--thetas`.
//! `--estimator` names come from the estimator registry
//! ([`EstimatorSpec::registered_estimators`]): `oracle`/`oracle(0.8)`,
//! `constant(0.25)`, or a learned family (`revpred`, `tributary`,
//! `logistic`) trained at most once per market scenario through the
//! server's predictor tier; unknown or malformed specs abort with the
//! registry listing. The legacy `--baselines` flag appends the two
//! single-spot baselines for backwards compatibility. `--workers 0` (the
//! default) sizes the pool to the machine; `--curve-capacity N` bounds the
//! shared curve tier to `N` resident curves (LRU, `0` = unbounded) for
//! many-seed sweeps, and `--predictor-capacity N` bounds the trained-
//! predictor tier the same way for scenario-heavy learned sweeps. The
//! sweep always runs the server's one sweep path — one `CohortPlan` of
//! requests grouped by market scenario, pool/spine/predictors resolved
//! once per worker session, SoA cohorts through the cross-campaign lane
//! kernel — and the summary's
//! `spine tier` and `lane kernel` lines show it at work.

use spottune_bench::TRACE_DAYS;
use spottune_core::prelude::*;
use spottune_market::prelude::*;
use spottune_mlsim::prelude::*;
use spottune_server::{CampaignServer, ServerConfig};
use std::time::Instant;

struct Args {
    workers: usize,
    workloads: Vec<Algorithm>,
    policies: Vec<String>,
    thetas: Vec<f64>,
    estimator: EstimatorSpec,
    seeds: u64,
    scenario_seeds: u64,
    days: u64,
    curve_capacity: usize,
    predictor_capacity: usize,
    baselines: bool,
    quiet: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        workers: 0,
        workloads: vec![Algorithm::LoR, Algorithm::ResNet],
        policies: vec!["spottune".to_string()],
        thetas: vec![0.7, 1.0],
        estimator: EstimatorSpec::default(),
        seeds: 4,
        scenario_seeds: 1,
        days: TRACE_DAYS,
        curve_capacity: 0,
        predictor_capacity: 0,
        baselines: false,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workers" => args.workers = value("--workers").parse().expect("--workers: usize"),
            "--workloads" => {
                args.workloads = value("--workloads")
                    .split(',')
                    .map(|name| {
                        Algorithm::all()
                            .into_iter()
                            .find(|a| a.name().eq_ignore_ascii_case(name))
                            .unwrap_or_else(|| panic!("unknown workload {name}"))
                    })
                    .collect();
            }
            "--policy" | "--policies" => {
                let raw = value("--policy");
                args.policies = if raw == "all" {
                    Approach::registered_policies().iter().map(|s| s.to_string()).collect()
                } else {
                    raw.split(',').map(str::to_string).collect()
                };
            }
            "--thetas" => {
                args.thetas = value("--thetas")
                    .split(',')
                    .map(|t| t.parse().expect("--thetas: f64 list"))
                    .collect();
            }
            "--estimator" => {
                let raw = value("--estimator");
                args.estimator = EstimatorSpec::parse(&raw).unwrap_or_else(|| {
                    panic!(
                        "unknown or malformed estimator {raw:?}; registered estimators: {}",
                        EstimatorSpec::registered_estimators().join(", ")
                    )
                });
            }
            "--seeds" => args.seeds = value("--seeds").parse().expect("--seeds: u64"),
            "--scenario-seeds" => {
                args.scenario_seeds =
                    value("--scenario-seeds").parse().expect("--scenario-seeds: u64");
            }
            "--days" => args.days = value("--days").parse().expect("--days: u64"),
            "--curve-capacity" => {
                args.curve_capacity =
                    value("--curve-capacity").parse().expect("--curve-capacity: usize");
            }
            "--predictor-capacity" => {
                args.predictor_capacity =
                    value("--predictor-capacity").parse().expect("--predictor-capacity: usize");
            }
            "--baselines" => args.baselines = true,
            "--quiet" => args.quiet = true,
            other => panic!("unknown flag {other} (see the module docs for usage)"),
        }
    }
    args
}

/// Expands the policy names into concrete approaches: θ-parameterized
/// policies fan out over `--thetas`, the rest appear once. Unknown names
/// abort with the registry listing.
fn resolve_approaches(args: &Args) -> Vec<Approach> {
    let mut approaches = Vec::new();
    for name in &args.policies {
        let probe = Approach::from_policy_name(name, args.thetas[0]).unwrap_or_else(|| {
            panic!(
                "unknown policy {name:?}; registered policies: {}",
                Approach::registered_policies().join(", ")
            )
        });
        if probe.is_theta_parameterized() {
            for &theta in &args.thetas {
                approaches.push(
                    Approach::from_policy_name(name, theta).expect("name already resolved"),
                );
            }
        } else {
            approaches.push(probe);
        }
    }
    if args.baselines {
        // Legacy flag: append the single-spot baselines unless --policy
        // already named them (no double-run of identical campaigns).
        for kind in [SingleSpotKind::Cheapest, SingleSpotKind::Fastest] {
            let baseline = Approach::SingleSpot(kind);
            if !approaches.contains(&baseline) {
                approaches.push(baseline);
            }
        }
    }
    approaches
}

fn main() {
    let args = parse_args();
    assert!(!args.thetas.is_empty(), "--thetas must name at least one value");
    let approaches = resolve_approaches(&args);

    // The full sweep grid: workload × approach × seed × market scenario.
    let mut requests = Vec::new();
    for &algorithm in &args.workloads {
        let workload = Workload::benchmark(algorithm);
        for &approach in &approaches {
            for seed in 0..args.seeds {
                for scenario_seed in 0..args.scenario_seeds {
                    requests.push(CampaignRequest {
                        id: requests.len() as u64,
                        approach,
                        workload: workload.clone(),
                        scenario: MarketScenario::from_days(args.days, 42 + scenario_seed),
                        seed: 42 + seed,
                        estimator: args.estimator,
                    });
                }
            }
        }
    }
    let total = requests.len();
    assert!(total > 0, "empty sweep: no workload × policy combinations");

    let server = CampaignServer::start(
        ServerConfig::with_workers(args.workers)
            .with_curve_capacity(args.curve_capacity)
            .with_predictor_capacity(args.predictor_capacity),
    );
    let workers = server.stats().workers;
    println!(
        "submitting {total} campaigns (estimator {}) to {workers} workers …",
        args.estimator
    );
    let t0 = Instant::now();
    let mut done = 0usize;
    for response in server.submit_sweep(requests) {
        done += 1;
        assert!(
            !response.report.predicted_finals.is_empty(),
            "campaign {} produced an empty report",
            response.id
        );
        if !args.quiet {
            println!("[{done:>5}/{total}] #{:<5} {}", response.id, response.report.summary());
        }
    }
    let elapsed = t0.elapsed();
    let stats = server.stats();
    server.shutdown();

    assert_eq!(done, total, "every submitted campaign must report");
    println!("\n--- sweep complete ---");
    println!("campaigns    : {done} in {elapsed:.2?} ({:.1}/s)", done as f64 / elapsed.as_secs_f64());
    println!("workers      : {}", stats.workers);
    println!(
        "pool tier    : {} resident, {} hits / {} lookups ({:.1}% hit rate)",
        stats.resident_pools,
        stats.pool_cache.hits,
        stats.pool_cache.lookups(),
        100.0 * stats.pool_cache.hit_rate(),
    );
    println!(
        "curve tier   : {} resident, {} hits / {} lookups ({:.1}% hit rate, {} evictions)",
        stats.resident_curves,
        stats.curve_cache.hits,
        stats.curve_cache.lookups(),
        100.0 * stats.curve_cache.hit_rate(),
        stats.curve_cache.evictions,
    );
    // Each predictor-tier miss is one full training run; the hit rate is
    // the amortization a learned-estimator sweep lives or dies by.
    println!(
        "predict tier : {} resident, {} hits / {} lookups ({:.1}% hit rate, {} trainings)",
        stats.resident_predictors,
        stats.predictor_cache.hits,
        stats.predictor_cache.lookups(),
        100.0 * stats.predictor_cache.hit_rate(),
        stats.predictor_cache.misses,
    );
    println!(
        "spine tier   : {} resident, {} groups, {} spine queries",
        stats.resident_spines, stats.batched_groups, stats.spine_queries,
    );
    let occupancy = if stats.lane_slots > 0 {
        100.0 * stats.lane_jobs as f64 / stats.lane_slots as f64
    } else {
        0.0
    };
    println!(
        "lane kernel  : {} passes, {} jobs over {} slots ({occupancy:.1}% occupancy)",
        stats.kernel_invocations, stats.lane_jobs, stats.lane_slots,
    );
}
