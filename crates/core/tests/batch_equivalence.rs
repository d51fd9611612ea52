//! Batched-sweep acceptance: the batched
//! path — [`BatchRunner::run_many`] grouping requests by scenario over
//! shared spines, arenas and predictor tiers — must be **bit-identical**
//! to looping the serial reference [`CampaignRequest::run_serial`], over
//! the full registered policy × estimator matrix, under a seeded fault
//! plan with revocation storms, and across interleaved scenarios with
//! request order preserved. `run_many` shares cohorts over worker threads;
//! the thread-invariance tests lock every thread count to the same bits,
//! the same kernel work and the same tier builds.

use spottune_cloud::FaultPlan;
use spottune_core::prelude::*;
use spottune_core::COHORT_WIDTH;
use spottune_market::prelude::*;
use spottune_market::{EstimatorSpec, MarketScenario};
use spottune_mlsim::prelude::*;

fn tiny_workload() -> Workload {
    let base = Workload::benchmark(Algorithm::LoR);
    Workload::custom(Algorithm::LoR, 15, base.hp_grid()[..2].to_vec())
}

/// Registry name → canonical runnable spec: argless where the name parses
/// directly (`oracle`, the learned kinds), parameterized for `constant`.
fn spec_for(name: &str) -> EstimatorSpec {
    EstimatorSpec::parse(name)
        .or_else(|| EstimatorSpec::parse(&format!("{name}(0.2)")))
        .unwrap_or_else(|| panic!("registered estimator {name} must parse"))
}

/// Registry-driven full matrix: every registered policy under every
/// registered estimator kind, batched vs serial, bit for bit. Iterating
/// both registries means a newly registered policy or estimator fails
/// here until the batched path genuinely covers it.
#[test]
fn full_policy_estimator_matrix_is_bit_identical_to_serial() {
    // Short traces keep the learned kinds' training windows tiny; the
    // serial reference retrains per campaign, so the matrix would
    // otherwise spend minutes inside LSTM training.
    let scenario = MarketScenario::new(SimDur::from_hours(5), 31);
    let workload = tiny_workload();
    let mut requests = Vec::new();
    for name in Approach::registered_policies() {
        let approach = Approach::from_policy_name(name, 0.7).expect("registered");
        for est_name in EstimatorSpec::registered_estimators() {
            requests.push(CampaignRequest {
                id: requests.len() as u64,
                approach,
                workload: workload.clone(),
                scenario,
                seed: 7,
                estimator: spec_for(est_name),
            });
        }
    }
    assert_eq!(requests.len(), 7 * 5, "registry sizes changed; widen the matrix");

    let runner = BatchRunner::new();
    let batched = runner.run_many(&requests);

    let pool = scenario.build();
    let curve_cache = CurveCache::new();
    for (request, got) in requests.iter().zip(&batched) {
        let want = request.run_serial(&pool, &curve_cache);
        assert_eq!(
            *got, want,
            "{} × {} must be bit-identical to the serial reference",
            request.approach.policy_name(),
            request.estimator
        );
    }
    let stats = runner.stats();
    assert_eq!(stats.campaigns, requests.len() as u64);
    assert!(
        (1..=runner.threads() as u64).contains(&stats.groups),
        "one scenario: between one session and one per worker, got {}",
        stats.groups
    );
    assert!(
        stats.spine_queries > 0,
        "batched campaigns must answer revocation lookups through the spine"
    );
    // The batched path trains each learned kind once per scenario; the
    // serial loop above retrained it per campaign.
    assert_eq!(stats.predictor_cache.misses, 3, "{:?}", stats.predictor_cache);
    assert_eq!(stats.pool_cache.misses, 1);
    assert_eq!(stats.spine_cache.misses, 1);
    // The matrix is staged through SoA cohorts: transient predictions must
    // actually cross the lane kernel.
    assert!(stats.kernel_invocations > 0, "matrix must exercise the lane kernel");
    assert!(stats.lane_jobs > 0);
    let occupancy = stats.lane_occupancy().expect("kernel ran");
    assert!(occupancy > 0.0 && occupancy <= 1.0, "occupancy {occupancy}");
}

/// `migration-aware` under a seeded fault plan with correlated revocation
/// storms, delayed notices and failing checkpoint writes: the batched
/// runner threads the plan into every engine and must reproduce the
/// serial per-campaign engines bit for bit.
#[test]
fn migration_aware_matches_serial_under_a_storm_plan() {
    let scenario = MarketScenario::from_days(1, 13);
    let pool = scenario.build();
    let market = pool.iter().next().expect("non-empty pool").instance().name().to_string();
    let plan = FaultPlan::new(77)
        .with_periodic_storms(&market, SimTime::from_hours(5), SimDur::from_mins(40), 6)
        .with_delayed_notices(0.33, SimDur::from_secs(20))
        .with_checkpoint_failures(0.1);

    let requests: Vec<CampaignRequest> = (0..4u64)
        .map(|i| CampaignRequest {
            id: i,
            approach: Approach::MigrationAware { theta: 0.7 },
            workload: tiny_workload(),
            scenario,
            seed: 11 + i,
            estimator: EstimatorSpec::default(),
        })
        .collect();

    let runner = BatchRunner::new().with_fault_plan(plan.clone());
    let batched = runner.run_many(&requests);

    // Serial reference: one fresh engine per campaign, same plan, no
    // shared spine or scratch (mirrors `CampaignRequest::run_serial`
    // with the fault plan threaded in).
    let curve_cache = CurveCache::new();
    for (request, got) in requests.iter().zip(&batched) {
        let oracle = OracleEstimator::new(pool.clone(), 0.9);
        let cfg = SpotTuneConfig::new(0.7, 3).with_seed(request.seed);
        let mut policy = request.approach.build_policy(&oracle, &cfg);
        let want = Engine::new(cfg, request.workload.clone(), pool.clone())
            .with_curve_cache(curve_cache.clone())
            .with_fault_plan(plan.clone())
            .run(policy.as_mut());
        assert_eq!(
            *got, want,
            "seed {}: batched storm campaign must match the serial engine",
            request.seed
        );
    }
    // The plan was actually consulted, not dropped on the batched path.
    assert!(
        batched.iter().any(|r| r.revocations > 0),
        "storm plan produced no revocations; the fault plan is not being threaded"
    );
}

/// Requests interleaved across two scenarios come back in request order:
/// grouping is an internal scheduling detail, never an observable
/// reordering.
#[test]
fn interleaved_scenarios_preserve_request_order() {
    let near = MarketScenario::from_days(1, 3);
    let far = MarketScenario::from_days(1, 4);
    let requests: Vec<CampaignRequest> = (0..8u64)
        .map(|i| CampaignRequest {
            id: i,
            approach: Approach::SpotTune { theta: 0.7 },
            workload: tiny_workload(),
            scenario: if i % 2 == 0 { near } else { far },
            seed: 100 + i,
            estimator: EstimatorSpec::Constant { p: 0.2 },
        })
        .collect();
    let batched = BatchRunner::new().run_many(&requests);
    assert_eq!(batched.len(), requests.len());
    let curve_cache = CurveCache::new();
    let near_pool = near.build();
    let far_pool = far.build();
    for (i, (request, got)) in requests.iter().zip(&batched).enumerate() {
        let pool = if i % 2 == 0 { &near_pool } else { &far_pool };
        let want = request.run_serial(pool, &curve_cache);
        assert_eq!(*got, want, "slot {i} must hold request {i}'s report");
    }
}

/// Thread counts the invariance tests sweep: serial, the usual small
/// boxes, and more workers than most of the request sets have cohorts.
const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// Runs `requests` through a fresh `make_runner()` per thread count (cold
/// tiers every time) and asserts what must not depend on the count: the
/// report vector (bit for bit, in request order), the lane-kernel work and
/// the number of tier builds. Returns the single-thread reports and stats.
fn assert_thread_invariant(
    requests: &[CampaignRequest],
    make_runner: impl Fn() -> BatchRunner,
) -> (Vec<HptReport>, BatchStats) {
    let scenarios = requests
        .iter()
        .map(|r| r.scenario)
        .collect::<std::collections::BTreeSet<_>>()
        .len() as u64;
    let mut reference: Option<(Vec<HptReport>, BatchStats)> = None;
    for threads in THREAD_COUNTS {
        let runner = make_runner().with_threads(threads);
        let reports = runner.run_many(requests);
        let stats = runner.stats();
        assert_eq!(stats.campaigns, requests.len() as u64);
        assert_eq!(stats.pool_cache.misses, scenarios, "{threads} threads: {stats:?}");
        assert_eq!(stats.spine_cache.misses, scenarios, "{threads} threads: {stats:?}");
        if threads == 1 {
            assert_eq!(stats.groups, scenarios, "one thread opens one session per group");
        } else {
            assert!(
                (scenarios..=scenarios * threads as u64).contains(&stats.groups),
                "{threads} threads opened {} sessions over {scenarios} groups",
                stats.groups
            );
        }
        match &reference {
            None => reference = Some((reports, stats)),
            Some((want, want_stats)) => {
                assert_eq!(reports.len(), want.len());
                for (i, (got, want)) in reports.iter().zip(want).enumerate() {
                    assert_eq!(got, want, "{threads} threads: request {i} diverged from 1 thread");
                }
                assert_eq!(stats.kernel_invocations, want_stats.kernel_invocations);
                assert_eq!(stats.lane_slots, want_stats.lane_slots);
                assert_eq!(stats.lane_jobs, want_stats.lane_jobs);
                assert_eq!(
                    stats.predictor_cache.misses, want_stats.predictor_cache.misses,
                    "racing sessions must not double-train"
                );
            }
        }
    }
    reference.expect("THREAD_COUNTS is non-empty")
}

/// A seeded policy × estimator × θ mix (the `sweep_throughput` shape):
/// request `i` of `n` over `scenario_of(i)`.
fn mixed_requests(n: usize, scenario_of: impl Fn(usize) -> MarketScenario) -> Vec<CampaignRequest> {
    let approaches = [
        Approach::SpotTune { theta: 0.7 },
        Approach::SpotTune { theta: 1.0 },
        Approach::Hybrid { theta: 0.7, max_revocations: 3 },
        Approach::MigrationAware { theta: 0.7 },
        Approach::OnDemand(SingleSpotKind::Cheapest),
    ];
    let estimators =
        [spec_for("logistic"), EstimatorSpec::default(), EstimatorSpec::Constant { p: 0.2 }];
    let workload = tiny_workload();
    (0..n)
        .map(|i| CampaignRequest {
            id: i as u64,
            approach: approaches[i % approaches.len()],
            workload: workload.clone(),
            scenario: scenario_of(i),
            seed: 300 + (i as u64 % 16),
            estimator: estimators[i % estimators.len()],
        })
        .collect()
}

/// (a) The case cohort sharing exists for: one scenario, 1 000 campaigns
/// (125 cohorts), every worker in the same group.
#[test]
fn one_scenario_sweep_is_thread_invariant() {
    let scenario = MarketScenario::new(SimDur::from_hours(5), 51);
    let requests = mixed_requests(1_000, |_| scenario);
    let (reports, stats) = assert_thread_invariant(&requests, BatchRunner::new);
    assert_eq!(stats.predictor_cache.misses, 1, "logistic trains once: {stats:?}");
    assert!(stats.kernel_invocations > 0 && stats.lane_jobs > 0);
    // Spot-check the shared reference against the serial path.
    let pool = scenario.build();
    let curve_cache = CurveCache::new();
    for i in [0, 7, 8, 499, 999] {
        assert_eq!(reports[i], requests[i].run_serial(&pool, &curve_cache), "request {i}");
    }
}

/// (b) A skewed mix: one 40-cohort group interleaved with five groups of
/// one to three (ragged) cohorts — owners finish the small groups early
/// and join the large one.
#[test]
fn skewed_group_mix_is_thread_invariant() {
    let large = MarketScenario::new(SimDur::from_hours(5), 60);
    let small: Vec<MarketScenario> = [3usize, 8, 11, 17, 24]
        .iter()
        .enumerate()
        .flat_map(|(k, &size)| {
            std::iter::repeat_n(MarketScenario::new(SimDur::from_hours(5), 61 + k as u64), size)
        })
        .collect();
    // Every sixth request belongs to a small group until those run out.
    let requests = mixed_requests(320 + small.len(), |i| {
        if i % 6 == 0 {
            small.get(i / 6).copied().unwrap_or(large)
        } else {
            large
        }
    });
    assert_eq!(requests.iter().filter(|r| r.scenario == large).count(), 320);
    assert_thread_invariant(&requests, BatchRunner::new);
}

/// (c) 48 single-cohort groups over cold tiers: every group is claimed
/// whole, helpers find nothing left, and each pool, spine and predictor
/// is still built exactly once.
#[test]
fn many_single_cohort_groups_are_thread_invariant() {
    let requests = mixed_requests(48 * 6, |i| {
        MarketScenario::new(SimDur::from_hours(5), 100 + (i / 6) as u64)
    });
    let (_, stats) = assert_thread_invariant(&requests, BatchRunner::new);
    assert_eq!(stats.predictor_cache.misses, 48, "{stats:?}");
}

/// (d) `migration-aware` under the seeded storm plan, enough campaigns
/// for several cohorts: fault draws are per engine, never per thread.
#[test]
fn storm_plan_sweep_is_thread_invariant() {
    let scenario = MarketScenario::from_days(1, 13);
    let pool = scenario.build();
    let market = pool.iter().next().expect("non-empty pool").instance().name().to_string();
    let plan = FaultPlan::new(77)
        .with_periodic_storms(&market, SimTime::from_hours(5), SimDur::from_mins(40), 6)
        .with_delayed_notices(0.33, SimDur::from_secs(20))
        .with_checkpoint_failures(0.1);
    let requests: Vec<CampaignRequest> = (0..40u64)
        .map(|i| CampaignRequest {
            id: i,
            approach: Approach::MigrationAware { theta: 0.7 },
            workload: tiny_workload(),
            scenario,
            seed: 11 + i,
            estimator: EstimatorSpec::default(),
        })
        .collect();
    let (reports, _) =
        assert_thread_invariant(&requests, || BatchRunner::new().with_fault_plan(plan.clone()));
    assert!(reports.iter().any(|r| r.revocations > 0), "the storm plan must be threaded");
}

/// A request that panics inside a worker thread resurfaces from
/// `run_many` with its original payload — not a generic "worker panicked",
/// and not a hang on the cohorts the dead worker never claimed.
#[test]
fn worker_panic_resurfaces_with_its_payload() {
    let scenario = MarketScenario::new(SimDur::from_hours(5), 71);
    let mut requests = mixed_requests(64, |_| scenario);
    // NaN θ fails `SpotTuneConfig` validation inside the campaign.
    requests[37].approach = Approach::SpotTune { theta: f64::NAN };
    for threads in [1, 4] {
        let runner = BatchRunner::new().with_threads(threads);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            runner.run_many(&requests)
        }))
        .expect_err("a NaN-theta request must panic its sweep");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panic payload is a message");
        assert!(
            message.contains("theta must be in (0, 1]"),
            "{threads} threads: payload was {message:?}"
        );
    }
}

/// The recovery a caller of `run_cohort` relies on (the server's worker
/// loop): a full-width cohort with a NaN-θ request in a middle slot panics
/// before any report exists; the *same session* then runs the seven
/// survivors as cohorts of one and a fresh healthy cohort after them, all
/// bit-identical to `run_serial`, and only campaigns that reported count.
#[test]
fn session_survives_an_aborted_cohort() {
    let scenario = MarketScenario::new(SimDur::from_hours(5), 81);
    let mut requests = mixed_requests(2 * COHORT_WIDTH, |_| scenario);
    requests[3].approach = Approach::SpotTune { theta: f64::NAN };
    let (poisoned, healthy) = requests.split_at(COHORT_WIDTH);

    let runner = BatchRunner::new();
    let mut session = runner.session(scenario);
    let cohort: Vec<&CampaignRequest> = poisoned.iter().collect();
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| session.run_cohort(&cohort)))
        .expect_err("a NaN-theta request must panic its cohort");
    assert_eq!(runner.stats().campaigns, 0, "an aborted cohort produced no report");

    let survivors: Vec<&CampaignRequest> =
        poisoned.iter().filter(|r| r.id != 3).chain(healthy).collect();
    let mut reports = Vec::new();
    for lone in &survivors[..COHORT_WIDTH - 1] {
        reports.extend(session.run_cohort(&[lone]));
    }
    reports.extend(session.run_cohort(&survivors[COHORT_WIDTH - 1..]));

    let pool = scenario.build();
    let curve_cache = CurveCache::new();
    assert_eq!(reports.len(), survivors.len());
    for (request, got) in survivors.iter().zip(&reports) {
        assert_eq!(*got, request.run_serial(&pool, &curve_cache), "request {}", request.id);
    }
    let stats = runner.stats();
    assert_eq!(stats.campaigns, reports.len() as u64);
    assert_eq!(stats.predictor_cache.misses, 1, "logistic trains once: {stats:?}");
}
