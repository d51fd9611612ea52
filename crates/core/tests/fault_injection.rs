//! Fault-injection harness acceptance: seeded fault plans are
//! deterministic (same seed → bit-identical campaigns), sub-poll notices
//! keep their grace window, and every registered policy survives a
//! correlated revocation storm with a coherent report — the Single-Spot
//! baseline included, which a storm revokes like any other spot VM. The
//! engine's drive is checked against itself stepped every tick, under
//! these same plans, in `spottune-core`'s `oracle` unit tests.

use spottune_cloud::FaultPlan;
use spottune_core::policy::{SingleSpot, SpotTuneTheta};
use spottune_core::prelude::*;
use spottune_market::prelude::*;
use spottune_market::RevocationEstimator;
use spottune_mlsim::prelude::*;

fn tiny(steps: u64) -> Workload {
    let base = Workload::benchmark(Algorithm::LoR);
    Workload::custom(Algorithm::LoR, steps, base.hp_grid()[..2].to_vec())
}

/// A plan exercising all three fault classes: periodic storms on one
/// market, delayed notices on a third of the fleet, and a tenth of the
/// checkpoint writes failing.
fn stormy_plan(pool: &MarketPool) -> FaultPlan {
    let market = pool.iter().next().expect("non-empty pool").instance().name().to_string();
    FaultPlan::new(77)
        .with_periodic_storms(&market, SimTime::from_hours(11), SimDur::from_mins(40), 12)
        .with_delayed_notices(0.33, SimDur::from_secs(20))
        .with_checkpoint_failures(0.1)
}

fn run_spottune(
    pool: &MarketPool,
    oracle: &dyn RevocationEstimator,
    plan: &FaultPlan,
) -> (HptReport, Vec<TraceEvent>) {
    let cfg = SpotTuneConfig::new(0.7, 2).with_seed(9);
    let mut policy = SpotTuneTheta::new(oracle, cfg.delta_range, 0.7);
    Engine::new(cfg, tiny(25), pool.clone())
        .with_fault_plan(plan.clone())
        .run_traced(&mut policy)
}

#[test]
fn same_fault_seed_replays_bit_identically() {
    let pool = MarketPool::standard(SimDur::from_days(2), 42);
    let oracle = OracleEstimator::new(pool.clone(), 0.9);
    let plan = stormy_plan(&pool);
    let (report_a, events_a) = run_spottune(&pool, &oracle, &plan);
    let (report_b, events_b) = run_spottune(&pool, &oracle, &plan);
    assert_eq!(events_a, events_b, "same fault seed must replay the same timeline");
    assert_eq!(report_a, report_b, "same fault seed must replay the same report");
    // A different fault seed steers the campaign elsewhere (the plan is
    // actually consulted, not ignored).
    let reseeded = FaultPlan::new(78)
        .with_periodic_storms(
            plan.storms()[0].market.as_str(),
            SimTime::from_hours(11),
            SimDur::from_mins(40),
            12,
        )
        .with_delayed_notices(0.33, SimDur::from_secs(20))
        .with_checkpoint_failures(0.1);
    let (report_c, _) = run_spottune(&pool, &oracle, &reseeded);
    assert_ne!(report_a, report_c, "the fault seed must matter");
}

#[test]
fn storms_revoke_and_campaigns_still_account_coherently() {
    let pool = MarketPool::standard(SimDur::from_days(2), 42);
    let oracle = OracleEstimator::new(pool.clone(), 0.9);
    let plan = stormy_plan(&pool);
    let (with_faults, _) = run_spottune(&pool, &oracle, &plan);
    let cfg = SpotTuneConfig::new(0.7, 2).with_seed(9);
    let mut policy = SpotTuneTheta::new(&oracle, cfg.delta_range, 0.7);
    let fault_free = Engine::new(cfg, tiny(25), pool.clone()).run(&mut policy);
    assert!(
        with_faults.revocations >= fault_free.revocations,
        "storms must only add revocations ({} < {})",
        with_faults.revocations,
        fault_free.revocations
    );
    assert_eq!(fault_free.lost_steps, 0, "fault-free campaigns lose nothing");
    assert!(
        (with_faults.gross - with_faults.cost - with_faults.refunded).abs() < 1e-9,
        "billing identity must hold under faults"
    );
    // Every config still reports a prediction and finishes.
    assert_eq!(with_faults.predicted_finals.len(), 2);
}

/// A 1–9 s notice lead sits strictly inside the 10 s poll interval: on
/// the grid the notice would land on the revocation tick itself and its
/// grace would collapse to zero. The engine delivers the notice at its
/// true instant with the full sub-poll window — plenty for a 5 MB model at
/// ~60 MB/s.
#[test]
fn sub_poll_notice_delivers_true_grace_in_event_mode() {
    let pool = MarketPool::standard(SimDur::from_days(2), 42);
    let market = pool.iter().next().expect("non-empty pool").instance().name().to_string();
    let oracle = OracleEstimator::new(pool.clone(), 0.9);
    let plan = FaultPlan::new(3)
        .with_periodic_storms(&market, SimTime::from_hours(11), SimDur::from_mins(40), 6)
        .with_delayed_notices(1.0, SimDur::from_secs(5));
    let (report, events) = run_spottune(&pool, &oracle, &plan);
    assert!(report.revocations > 0, "the storm plan must actually revoke");
    // True-instant delivery captures full checkpoints, at instants that
    // provably sit off the poll grid.
    let captured: Vec<SimTime> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::NoticeCheckpoint { at, .. } => Some(*at),
            _ => None,
        })
        .collect();
    assert!(!captured.is_empty(), "the engine must checkpoint inside the 5 s window");
    for at in &captured {
        assert_ne!(
            at.as_secs() % 10,
            0,
            "sub-poll notices are delivered off the grid, got {at:?}"
        );
    }
}

/// CI `fault-smoke`: every registered policy terminates a small sweep
/// under an injected storm and returns a structurally-sound report.
#[test]
fn every_policy_terminates_under_an_injected_storm() {
    let pool = MarketPool::standard(SimDur::from_days(2), 42);
    let plan = stormy_plan(&pool);
    let oracle = OracleEstimator::new(pool.clone(), 0.9);
    for name in Approach::registered_policies() {
        let approach = Approach::from_policy_name(name, 0.7).expect("registered");
        let theta = if approach.is_theta_parameterized() { 0.7 } else { 1.0 };
        let cfg = SpotTuneConfig::new(theta, 3).with_seed(11);
        let mut policy = approach.build_policy(&oracle, &cfg);
        let report = Engine::new(cfg, tiny(20), pool.clone())
            .with_fault_plan(plan.clone())
            .run(policy.as_mut());
        assert_eq!(report.predicted_finals.len(), 2, "{name}: prediction per config");
        assert!(report.jct.as_secs() > 0, "{name}: non-zero JCT");
        assert!(report.cost.is_finite() && report.cost >= 0.0, "{name}: finite cost");
        assert!(
            (report.gross - report.cost - report.refunded).abs() < 1e-9,
            "{name}: billing identity under storm"
        );
    }
}

/// The Single-Spot baseline runs on the same drive as SpotTune, so a storm
/// in its market revokes it despite its 100× bid. It never checkpoints, so
/// the revoked configurations start over and the campaign finishes later.
/// Cost is not asserted to rise: a revocation inside a VM's first hour
/// refunds that hour.
#[test]
fn a_storm_reaches_the_single_spot_baseline() {
    let pool = MarketPool::standard(SimDur::from_days(2), 42);
    let cfg = SpotTuneConfig::new(1.0, 3).with_seed(11);
    let market = SingleSpotKind::Cheapest.instance_name();
    let plan = FaultPlan::new(11).with_storm(market, cfg.start + SimDur::from_mins(20));
    let run = |plan: Option<&FaultPlan>| {
        let mut engine = Engine::new(cfg.clone(), tiny(20), pool.clone());
        if let Some(plan) = plan {
            engine = engine.with_fault_plan(plan.clone());
        }
        engine.run(&mut SingleSpot::new(SingleSpotKind::Cheapest))
    };
    let calm = run(None);
    let stormy = run(Some(&plan));
    assert_eq!(calm.revocations, 0, "the 100x bid keeps price revocations away");
    assert!(stormy.revocations >= 1, "the storm must revoke the baseline");
    assert!(stormy.lost_steps > 0, "an uncheckpointed baseline loses its progress");
    assert!(stormy.jct > calm.jct, "storm JCT {} vs calm {}", stormy.jct, calm.jct);
    assert!(
        (stormy.gross - stormy.cost - stormy.refunded).abs() < 1e-9,
        "billing identity must hold under the storm"
    );
}
