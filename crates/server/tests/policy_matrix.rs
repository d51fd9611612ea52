//! Every registered policy runs through the sharded server (ISSUE 4
//! acceptance): the new `hybrid` and `bid-aware` strategies ride the same
//! cached pipeline as the paper's approaches, with curve-tier hits, and a
//! bounded curve tier evicts instead of growing with a many-seed sweep.
//! ISSUE 5 widens the matrix to policy × estimator: every registered
//! policy also sweeps under a learned revocation predictor, with the
//! trained-predictor tier amortizing training across the whole matrix.

use spottune_core::prelude::*;
use spottune_market::{EstimatorSpec, MarketScenario, SimDur};
use spottune_mlsim::prelude::*;
use spottune_server::{CampaignServer, ServerConfig};

fn tiny_workload() -> Workload {
    let base = Workload::benchmark(Algorithm::LoR);
    Workload::custom(Algorithm::LoR, 15, base.hp_grid()[..2].to_vec())
}

#[test]
fn every_registered_policy_sweeps_through_the_server() {
    let workload = tiny_workload();
    let scenario = MarketScenario::from_days(1, 21);
    // Every policy × 3 seeds: same (workload, seed) points across policies,
    // so the curve memo must serve cross-policy hits.
    let mut requests = Vec::new();
    for name in Approach::registered_policies() {
        let approach = Approach::from_policy_name(name, 0.7).expect("registered");
        for seed in 0..3u64 {
            requests.push(CampaignRequest {
                id: requests.len() as u64,
                approach,
                workload: workload.clone(),
                scenario,
                seed,
                estimator: EstimatorSpec::default(),
            });
        }
    }
    let total = requests.len();
    assert_eq!(total, 7 * 3);

    let server = CampaignServer::start(ServerConfig::with_workers(4));
    let responses = server.run_sweep(requests);
    assert_eq!(responses.len(), total);
    for response in &responses {
        let report = &response.report;
        assert!(!report.approach.is_empty(), "empty report for id {}", response.id);
        assert_eq!(report.predicted_finals.len(), 2, "{}", report.approach);
        assert!(report.jct.as_secs() > 0, "{}", report.approach);
        assert!(
            (report.gross - report.cost - report.refunded).abs() < 1e-9,
            "{}: billing identity",
            report.approach
        );
    }
    // The new policies produced distinctly-labelled reports.
    for label in [
        "Hybrid(θ=0.7, k=3)",
        "BidAware(θ=0.7)",
        "On-Demand Tune(Cheapest)",
        "MigrationAware(θ=0.7, km)",
    ] {
        assert!(
            responses.iter().any(|r| r.report.approach == label),
            "no report labelled {label:?}"
        );
    }
    let stats = server.stats();
    assert_eq!(stats.completed, total as u64);
    assert_eq!(stats.resident_pools, 1);
    assert!(
        stats.curve_cache.hit_rate() > 0.0,
        "cross-policy sweeps must share curves: {:?}",
        stats.curve_cache
    );
    server.shutdown();
}

#[test]
fn every_policy_sweeps_under_a_learned_predictor() {
    let workload = tiny_workload();
    // Short traces keep the LSTM training windows tiny (a handful of
    // samples per market); two scenarios × one kind must train exactly
    // twice no matter how many campaigns ask for the predictor.
    let scenarios = [
        MarketScenario::new(SimDur::from_hours(5), 31),
        MarketScenario::new(SimDur::from_hours(5), 32),
    ];
    let mut requests = Vec::new();
    for name in Approach::registered_policies() {
        let approach = Approach::from_policy_name(name, 0.7).expect("registered");
        for &scenario in &scenarios {
            requests.push(CampaignRequest {
                id: requests.len() as u64,
                approach,
                workload: workload.clone(),
                scenario,
                seed: 3,
                estimator: EstimatorSpec::RevPred,
            });
        }
    }
    let total = requests.len();
    assert_eq!(total, 7 * 2);

    let server = CampaignServer::start(ServerConfig::with_workers(4));
    let responses = server.run_sweep(requests.clone());
    assert_eq!(responses.len(), total);
    for response in &responses {
        let report = &response.report;
        assert_eq!(report.predicted_finals.len(), 2, "{}", report.approach);
        assert!(report.cost >= 0.0 && report.jct.as_secs() > 0, "{}", report.approach);
    }
    let stats = server.stats();
    assert_eq!(stats.completed, total as u64);
    assert_eq!(
        stats.predictor_cache.misses, 2,
        "training must happen at most once per scenario × kind: {:?}",
        stats.predictor_cache
    );
    // One predictor-tier lookup per session the sweep opened.
    assert_eq!(stats.predictor_cache.lookups(), stats.batched_groups);
    assert_eq!(stats.resident_predictors, 2);

    // The learned-predictor path through the server is bit-identical to
    // the serial reference resolution.
    let request = &requests[0];
    let serial = request.run_serial(&request.scenario.build(), &CurveCache::new());
    assert_eq!(serial, responses[0].report, "server vs serial learned-spec report");
    server.shutdown();
}

#[test]
fn every_registered_estimator_sweeps_through_the_server() {
    // Registry-driven: iterating
    // `registered_estimators()` instead of a hand-kept list means a newly
    // registered kind fails here until the matrix genuinely covers it.
    let workload = tiny_workload();
    // Short traces keep the learned kinds' training windows tiny.
    let scenario = MarketScenario::new(SimDur::from_hours(5), 31);
    let mut requests = Vec::new();
    for name in EstimatorSpec::registered_estimators() {
        // Argless form where the registry name is directly runnable
        // (`oracle`, the learned kinds); `constant` needs a probability.
        let estimator = EstimatorSpec::parse(name)
            .or_else(|| EstimatorSpec::parse(&format!("{name}(0.5)")))
            .unwrap_or_else(|| panic!("registered estimator {name} must parse"));
        requests.push(CampaignRequest {
            id: requests.len() as u64,
            approach: Approach::SpotTune { theta: 0.7 },
            workload: workload.clone(),
            scenario,
            seed: 3,
            estimator,
        });
    }
    assert_eq!(requests.len(), 5);

    let server = CampaignServer::start(ServerConfig::with_workers(4));
    let responses = server.run_sweep(requests.clone());
    for (request, response) in requests.iter().zip(&responses) {
        let report = &response.report;
        assert_eq!(report.predicted_finals.len(), 2, "{}", request.estimator);
        assert!(report.jct.as_secs() > 0, "{}", request.estimator);
        // Every estimator's server answer is bit-identical to the serial
        // reference resolution of the same request.
        let serial = request.run_serial(&scenario.build(), &CurveCache::new());
        assert_eq!(serial, *report, "{}: server vs serial report", request.estimator);
    }
    // Three learned kinds over one scenario: three trainings, no more.
    assert_eq!(server.stats().predictor_cache.misses, 3);
    server.shutdown();
}

#[test]
fn bounded_curve_tier_evicts_under_many_seeds() {
    let workload = tiny_workload();
    let scenario = MarketScenario::from_days(1, 21);
    // 12 seeds × 2 curves per campaign, but the tier only keeps 4 curves.
    let requests: Vec<CampaignRequest> = (0..12u64)
        .map(|seed| CampaignRequest {
            id: seed,
            approach: Approach::SpotTune { theta: 1.0 },
            workload: workload.clone(),
            scenario,
            seed,
            estimator: EstimatorSpec::default(),
        })
        .collect();
    let server =
        CampaignServer::start(ServerConfig::with_workers(2).with_curve_capacity(4));
    let responses = server.run_sweep(requests);
    assert_eq!(responses.len(), 12);
    let stats = server.stats();
    assert!(stats.resident_curves <= 4, "capacity respected: {}", stats.resident_curves);
    assert!(stats.curve_cache.evictions > 0, "many-seed sweep must evict: {:?}", stats.curve_cache);
    // Determinism: a bounded tier recomputes, never corrupts — the same
    // sweep through an unbounded server is bit-identical.
    let unbounded = CampaignServer::start(ServerConfig::with_workers(2));
    let again = unbounded.run_sweep(
        (0..12u64)
            .map(|seed| CampaignRequest {
                id: seed,
                approach: Approach::SpotTune { theta: 1.0 },
                workload: workload.clone(),
                scenario,
                seed,
                estimator: EstimatorSpec::default(),
            })
            .collect(),
    );
    assert_eq!(unbounded.stats().curve_cache.evictions, 0);
    for (a, b) in responses.iter().zip(&again) {
        assert_eq!(a, b, "curve eviction changed a report");
    }
    unbounded.shutdown();
    server.shutdown();
}
