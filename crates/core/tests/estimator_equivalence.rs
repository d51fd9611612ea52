//! The estimator registry's ground rule (ISSUE 5 acceptance): the default
//! `oracle(0.9)` spec is **bit-identical** to the pre-refactor hard-coded
//! `OracleEstimator::new(pool, 0.9)` path over 100+ campaigns for every
//! registered policy — making the spec a pure refactor — while a
//! non-default oracle accuracy actually changes provisioning decisions on
//! a volatile scenario (the estimator is a real campaign dimension, not a
//! label).

use spottune_core::prelude::*;
use spottune_market::{EstimatorSpec, MarketScenario};
use spottune_mlsim::prelude::*;

fn tiny(algorithm: Algorithm, steps: u64) -> Workload {
    let base = Workload::benchmark(algorithm);
    Workload::custom(algorithm, steps, base.hp_grid()[..2].to_vec())
}

fn request(
    approach: Approach,
    workload: &Workload,
    scenario: MarketScenario,
    seed: u64,
    estimator: EstimatorSpec,
) -> CampaignRequest {
    CampaignRequest { id: seed, approach, workload: workload.clone(), scenario, seed, estimator }
}

/// 6 policies × 2 workloads × 9 seeds = 108 campaigns.
#[test]
fn default_spec_is_bit_identical_to_the_prerefactor_oracle_path() {
    let scenario = MarketScenario::from_days(1, 42);
    let pool = scenario.build();
    let workloads = [tiny(Algorithm::LoR, 15), tiny(Algorithm::Gbtr, 12)];
    let curve_cache = CurveCache::new();
    let mut campaigns = 0usize;
    for name in Approach::registered_policies() {
        let approach = Approach::from_policy_name(name, 0.7).expect("registered");
        for workload in &workloads {
            for seed in 0..9u64 {
                let campaign =
                    request(approach, workload, scenario, seed, EstimatorSpec::default());
                let via_spec = campaign.run_serial(&pool, &curve_cache);
                // The pre-registry campaign body: a hand-built oracle at
                // confidence 0.9 driving the policy.
                let oracle = OracleEstimator::new(pool.clone(), 0.9);
                let legacy = campaign.run_with_estimator(&pool, &curve_cache, &oracle);
                assert_eq!(
                    via_spec, legacy,
                    "{name} seed {seed}: default spec must reproduce the legacy path"
                );
                campaigns += 1;
            }
        }
    }
    assert!(campaigns >= 100, "equivalence must cover 100+ campaigns, got {campaigns}");
}

/// ISSUE 5 satellite: `oracle(acc)` exposes the accuracy frozen at 0.9 —
/// a non-default accuracy must change provisioning somewhere on a
/// volatile scenario.
#[test]
fn non_default_oracle_accuracy_changes_provisioning() {
    // Long traces + several seeds give the weakened oracle (barely better
    // than a coin flip) room to mis-rank a market the confident oracle
    // ranks correctly.
    let scenario = MarketScenario::from_days(2, 42);
    let pool = scenario.build();
    let workload = tiny(Algorithm::LoR, 20);
    let curve_cache = CurveCache::global();
    let mut any_difference = false;
    for seed in 0..6u64 {
        let run = |estimator| {
            request(Approach::SpotTune { theta: 0.7 }, &workload, scenario, seed, estimator)
                .run_serial(&pool, &curve_cache)
        };
        let confident = run(EstimatorSpec::default());
        let hesitant = run(EstimatorSpec::Oracle { confidence: 0.55 });
        if confident != hesitant {
            any_difference = true;
            break;
        }
    }
    assert!(
        any_difference,
        "oracle(0.55) must provision differently from oracle(0.9) on some volatile campaign"
    );
}

/// The degenerate `constant(0)` spec reduces SpotTune to pure
/// lowest-step-cost provisioning and still completes every policy.
#[test]
fn constant_spec_runs_every_registered_policy() {
    let scenario = MarketScenario::from_days(1, 7);
    let pool = scenario.build();
    let workload = tiny(Algorithm::LoR, 15);
    for name in Approach::registered_policies() {
        let approach = Approach::from_policy_name(name, 0.7).expect("registered");
        let report = request(approach, &workload, scenario, 3, EstimatorSpec::Constant { p: 0.0 })
            .run_serial(&pool, &CurveCache::global());
        assert_eq!(report.predicted_finals.len(), 2, "{name}");
        assert!(report.jct.as_secs() > 0, "{name}");
    }
}
