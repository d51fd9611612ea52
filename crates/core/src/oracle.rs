//! The engine's reference: the production drive stepped one tick at a time.
//!
//! Algorithm 1 polls every 10 seconds. The engine jumps from one grid tick
//! at which something can happen to the next and credits the quiet ticks
//! in between in one integer addition. With `Engine::every_tick` set (a
//! field that exists only in this crate's unit tests) the same drive visits
//! every grid tick of the literal loop, so each case below runs one
//! campaign both ways and demands bit-identical reports and trace-event
//! sequences. A tick the jump skips wrongly shows up as a diverging event.
//!
//! The per-tick body's short cuts (the ready gate, the step-completion
//! short circuit, the recycle-tick skip) are checked by its
//! `debug_assert!`s against the predicates the literal loop evaluates, so
//! run this module in a debug build:
//! `cargo test -p spottune-core --lib oracle`.

use crate::campaign::{Approach, CampaignRequest};
use crate::config::SpotTuneConfig;
use crate::engine::{Engine, TraceEvent};
use crate::policy::{ProvisionPolicy, SpotTuneTheta};
use crate::provision::OracleEstimator;
use crate::report::HptReport;
use spottune_cloud::FaultPlan;
use spottune_market::{
    ConstantEstimator, EstimatorSpec, MarketPool, MarketScenario, RevocationEstimator, SimDur,
    SimTime,
};
use spottune_mlsim::{Algorithm, CurveCache, Workload};
use spottune_revpred::{PredictorCache, PredictorKind};

type Run = (HptReport, Vec<TraceEvent>);

fn workload(alg: Algorithm, steps: u64, n: usize) -> Workload {
    let base = Workload::benchmark(alg);
    Workload::custom(alg, steps, base.hp_grid()[..n].to_vec())
}

/// Runs `engine` under a fresh policy twice — jumping between event ticks,
/// then stepping every tick — and returns `(jumping, stepping)`.
fn run_both<'a>(
    mut engine: Engine,
    mut policy: impl FnMut() -> Box<dyn ProvisionPolicy + 'a>,
) -> (Run, Run) {
    let jumping = engine.run_traced(policy().as_mut());
    engine.every_tick = true;
    let stepping = engine.run_traced(policy().as_mut());
    (jumping, stepping)
}

/// SpotTune(θ) under `oracle`, both ways.
fn spottune_both(engine: Engine, oracle: &OracleEstimator, cfg: &SpotTuneConfig) -> (Run, Run) {
    let (delta_range, theta) = (cfg.delta_range, cfg.theta);
    run_both(engine, || Box::new(SpotTuneTheta::new(oracle, delta_range, theta)))
}

/// Asserts both ways produced the same run, and returns it.
fn assert_identical((jumping, stepping): (Run, Run), label: &str) -> Run {
    let (step_report, step_events) = stepping;
    for (i, (a, b)) in jumping.1.iter().zip(&step_events).enumerate() {
        assert_eq!(a, b, "{label}: trace event {i} diverged");
    }
    assert_eq!(jumping.1.len(), step_events.len(), "{label}: event count diverged");
    assert_eq!(jumping.0, step_report, "{label}: report diverged");
    jumping
}

/// `count` storms on the first market of `pool`, 40 minutes apart from
/// 11:00.
fn storms(seed: u64, pool: &MarketPool, count: usize) -> FaultPlan {
    let market = pool.iter().next().expect("non-empty pool").instance().name().to_string();
    FaultPlan::new(seed).with_periodic_storms(
        &market,
        SimTime::from_hours(11),
        SimDur::from_mins(40),
        count,
    )
}

/// A plan exercising all three fault classes: periodic storms on one
/// market, delayed notices on a third of the fleet, and a tenth of the
/// checkpoint writes failing.
fn stormy_plan(pool: &MarketPool) -> FaultPlan {
    storms(77, pool, 12)
        .with_delayed_notices(0.33, SimDur::from_secs(20))
        .with_checkpoint_failures(0.1)
}

/// Six storms on the first market with every notice `lead` ahead.
fn delayed_notice_plan(pool: &MarketPool, lead: SimDur) -> FaultPlan {
    storms(3, pool, 6).with_delayed_notices(1.0, lead)
}

/// The fault cases' campaign: SpotTune(0.7), `mcnt` 2, seed 9, on a
/// two-configuration, 25-step LoR slice of a two-day pool.
fn faulted_both(pool: &MarketPool, plan: FaultPlan) -> (Run, Run) {
    let oracle = OracleEstimator::new(pool.clone(), 0.9);
    let cfg = SpotTuneConfig::new(0.7, 2).with_seed(9);
    let engine = Engine::new(cfg.clone(), workload(Algorithm::LoR, 25, 2), pool.clone())
        .with_fault_plan(plan);
    spottune_both(engine, &oracle, &cfg)
}

/// SpotTune(θ) under `oracle(0.9)` on the 10-day standard pool.
fn standard_both(w: Workload, cfg: SpotTuneConfig) -> (Run, Run) {
    let pool = MarketPool::standard(SimDur::from_days(10), 42);
    let oracle = OracleEstimator::new(pool.clone(), 0.9);
    spottune_both(Engine::new(cfg.clone(), w, pool), &oracle, &cfg)
}

#[test]
fn lor_campaigns_match_across_theta() {
    for (theta, seed) in [(0.4, 5u64), (0.7, 7), (1.0, 9)] {
        let cfg = SpotTuneConfig::new(theta, 2).with_seed(seed);
        let runs = standard_both(workload(Algorithm::LoR, 60, 4), cfg);
        let (report, _) = assert_identical(runs, &format!("LoR θ={theta} seed={seed}"));
        assert!(report.jct.as_secs() > 0);
    }
}

#[test]
fn svm_campaigns_match_across_theta() {
    for (theta, seed) in [(0.4, 11u64), (0.7, 13), (1.0, 17)] {
        let cfg = SpotTuneConfig::new(theta, 1).with_seed(seed);
        let runs = standard_both(workload(Algorithm::Svm, 50, 4), cfg);
        assert_identical(runs, &format!("SVM θ={theta} seed={seed}"));
    }
}

#[test]
fn coarse_poll_interval_still_matches() {
    // A one-minute grid stresses multi-step ticks (several steps can
    // complete inside a single tick) and late-notice delivery.
    let mut cfg = SpotTuneConfig::new(0.7, 1).with_seed(3);
    cfg.poll_interval = SimDur::from_secs(60);
    assert_identical(standard_both(workload(Algorithm::LoR, 40, 3), cfg), "coarse poll");
}

/// ResNet steps take minutes, so the jumps skip most ticks and VMs live
/// past the one-hour recycle threshold: the recycle candidate is the only
/// thing that stops the drive on those ticks.
#[test]
fn slow_steps_recycle_at_the_same_ticks() {
    let cfg = SpotTuneConfig::new(0.7, 2).with_seed(9);
    let runs = standard_both(workload(Algorithm::ResNet, 60, 4), cfg);
    let (_, events) = assert_identical(runs, "ResNet slow steps");
    let recycles = events.iter().filter(|e| matches!(e, TraceEvent::Recycled { .. })).count();
    assert!(recycles > 0, "the slow-step case must recycle at least once");
}

/// 10 campaigns: SpotTuneTheta both ways, plus the request-level trunk
/// (`mcnt` 3, as `Approach` configures it), all bit-identical.
#[test]
fn spottune_policy_matches_tick_reference_and_facade() {
    let scenario = MarketScenario::from_days(10, 42);
    let pool = scenario.build();
    let oracle = OracleEstimator::new(pool.clone(), 0.9);
    let w = workload(Algorithm::LoR, 30, 2);
    let mut campaigns = 0;
    for theta in [0.5, 1.0] {
        for seed in 0..5u64 {
            let cfg = SpotTuneConfig::new(theta, 3).with_seed(seed);
            let engine = Engine::new(cfg.clone(), w.clone(), pool.clone());
            let runs = spottune_both(engine, &oracle, &cfg);
            let (report, _) = assert_identical(runs, &format!("θ={theta} seed={seed}"));
            // The request trunk is exactly engine + SpotTuneTheta.
            let request = CampaignRequest {
                id: seed,
                approach: Approach::SpotTune { theta },
                workload: w.clone(),
                scenario,
                seed,
                estimator: EstimatorSpec::default(),
            };
            let facade = request.run_with_estimator(&pool, &CurveCache::global(), &oracle);
            assert_eq!(facade, report, "θ={theta} seed={seed}: request trunk diverged");
            campaigns += 1;
        }
    }
    assert_eq!(campaigns, 10);
}

#[test]
fn tick_and_event_drives_agree_under_faults() {
    let pool = MarketPool::standard(SimDur::from_days(2), 42);
    let plan = stormy_plan(&pool);
    assert_identical(faulted_both(&pool, plan), "stormy plan");
}

/// A lead of one whole poll interval lands every notice on the grid.
#[test]
fn grid_aligned_delayed_notices_keep_drives_identical() {
    let pool = MarketPool::standard(SimDur::from_days(2), 42);
    let plan = delayed_notice_plan(&pool, SimDur::from_secs(10));
    assert_identical(faulted_both(&pool, plan), "10 s lead");
}

/// Leads that are no multiple of the poll interval put every notice off
/// the grid; both ways deliver it at its true instant.
#[test]
fn off_grid_notice_leads_keep_drives_identical() {
    let pool = MarketPool::standard(SimDur::from_days(2), 42);
    for lead in [1, 5, 9, 37] {
        let plan = delayed_notice_plan(&pool, SimDur::from_secs(lead));
        let (report, _) = assert_identical(faulted_both(&pool, plan), &format!("{lead} s lead"));
        assert!(report.revocations > 0, "{lead} s lead: the storm plan must revoke");
    }
}

/// Every registered policy × `oracle(0.9)`, `constant(0.2)` and
/// `logistic` × {no faults, the stormy plan}, on a two-configuration
/// GBTR slice of a two-day scenario.
#[test]
fn every_policy_and_estimator_matches_with_and_without_faults() {
    let scenario = MarketScenario::from_days(2, 42);
    let pool = scenario.build();
    let w = workload(Algorithm::Gbtr, 15, 2);
    let oracle = OracleEstimator::new(pool.clone(), 0.9);
    let constant = ConstantEstimator::new(0.2);
    let logistic = PredictorCache::new().get(PredictorKind::Logistic, scenario, &pool);
    let estimators: [(&str, &dyn RevocationEstimator); 3] =
        [("oracle(0.9)", &oracle), ("constant(0.2)", &constant), ("logistic", logistic.as_ref())];
    let mut storm_revocations = 0;
    for name in Approach::registered_policies() {
        let approach = Approach::from_policy_name(name, 0.7).expect("registered");
        let cfg = approach.config(5);
        for (spec, estimator) in estimators {
            for plan in [None, Some(stormy_plan(&pool))] {
                let stormy = plan.is_some();
                let mut engine = Engine::new(cfg.clone(), w.clone(), pool.clone());
                if let Some(plan) = plan {
                    engine = engine.with_fault_plan(plan);
                }
                let runs = run_both(engine, || approach.build_policy(estimator, &cfg));
                let label = format!("{name} × {spec}, storms: {stormy}");
                let (report, _) = assert_identical(runs, &label);
                if stormy {
                    storm_revocations += report.revocations;
                }
            }
        }
    }
    assert!(storm_revocations > 0, "the stormy half of the matrix must revoke");
}
