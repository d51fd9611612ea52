//! Cross-crate integration tests: full SpotTune campaigns against the
//! simulated cloud, exercising the whole stack (markets → provider →
//! engine → EarlyCurve selection → reports).

use spottune::core::policy::SingleSpot;
use spottune::prelude::*;

fn small(alg: Algorithm, steps: u64, n: usize) -> Workload {
    let base = Workload::benchmark(alg);
    Workload::custom(alg, steps, base.hp_grid()[..n].to_vec())
}

fn pool() -> MarketPool {
    MarketPool::standard(SimDur::from_days(10), 42)
}

/// A Single-Spot baseline submitted at `start`: an engine under
/// [`SingleSpot`] (θ = 1, `mcnt` 3).
fn single_spot(
    kind: SingleSpotKind,
    w: &Workload,
    pool: &MarketPool,
    start: SimTime,
    seed: u64,
) -> HptReport {
    let cfg = SpotTuneConfig { start, ..SpotTuneConfig::new(1.0, 3).with_seed(seed) };
    Engine::new(cfg, w.clone(), pool.clone()).run(&mut SingleSpot::new(kind))
}

/// The paper's SpotTune (Algorithm 1): an engine under [`SpotTuneTheta`].
fn spottune(
    cfg: SpotTuneConfig,
    w: &Workload,
    pool: &MarketPool,
    estimator: &dyn RevocationEstimator,
) -> HptReport {
    let mut policy = SpotTuneTheta::new(estimator, cfg.delta_range, cfg.theta);
    Engine::new(cfg, w.clone(), pool.clone()).run(&mut policy)
}

#[test]
fn campaign_is_deterministic() {
    let pool = pool();
    let oracle = OracleEstimator::new(pool.clone(), 0.9);
    let w = small(Algorithm::LoR, 50, 4);
    let run = || spottune(SpotTuneConfig::new(0.6, 2).with_seed(11), &w, &pool, &oracle);
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed must reproduce the identical report");
}

#[test]
fn billing_identity_holds_across_approaches() {
    let pool = pool();
    let oracle = OracleEstimator::new(pool.clone(), 0.9);
    let w = small(Algorithm::Svm, 60, 4);
    let st = spottune(SpotTuneConfig::new(0.7, 2).with_seed(3), &w, &pool, &oracle);
    assert!((st.gross - st.cost - st.refunded).abs() < 1e-9);
    for kind in [SingleSpotKind::Cheapest, SingleSpotKind::Fastest] {
        let b = single_spot(kind, &w, &pool, SimTime::from_hours(2), 3);
        assert!((b.gross - b.cost - b.refunded).abs() < 1e-9);
        assert_eq!(b.refunded, 0.0, "baselines never harvest refunds");
    }
}

#[test]
fn spottune_beats_baselines_on_cost() {
    // The headline Fig. 7(a) property on a reduced workload. All three
    // approaches are submitted at the same instant (SpotTune's default
    // start) — launching the baselines in the cheap overnight window would
    // compare campaigns under different market conditions.
    let pool = pool();
    let oracle = OracleEstimator::new(pool.clone(), 0.9);
    let w = small(Algorithm::Gbtr, 40, 6);
    let start = SpotTuneConfig::default().start;
    let st = spottune(SpotTuneConfig::new(0.7, 2).with_seed(5), &w, &pool, &oracle);
    let cheap = single_spot(SingleSpotKind::Cheapest, &w, &pool, start, 5);
    let fast = single_spot(SingleSpotKind::Fastest, &w, &pool, start, 5);
    assert!(
        st.cost < cheap.cost && st.cost < fast.cost,
        "SpotTune {} vs cheapest {} / fastest {}",
        st.cost,
        cheap.cost,
        fast.cost
    );
    // And its JCT sits between the two baselines (§IV.B.1).
    assert!(st.jct < cheap.jct, "st {} cheap {}", st.jct, cheap.jct);
}

#[test]
fn theta_one_selection_is_exact() {
    let pool = pool();
    let oracle = OracleEstimator::new(pool.clone(), 0.9);
    let w = small(Algorithm::ResNet, 60, 6);
    let report = spottune(SpotTuneConfig::new(1.0, 3).with_seed(8), &w, &pool, &oracle);
    // Without early shutdown, predictions are observed finals: top-3 must
    // contain the true best.
    assert!(report.top3_hit());
}

#[test]
fn timeline_protocol_is_well_formed() {
    // Every revocation is preceded by a notice-checkpoint for that job;
    // every job ends with a Finished event in phase order.
    let pool = pool();
    let oracle = OracleEstimator::new(pool.clone(), 0.9);
    let w = small(Algorithm::LoR, 60, 3);
    let cfg = SpotTuneConfig::new(0.7, 1).with_seed(21);
    let mut policy = SpotTuneTheta::new(&oracle, cfg.delta_range, cfg.theta);
    let (report, events) = Engine::new(cfg, w, pool).run_traced(&mut policy);
    let mut notified: Vec<usize> = Vec::new();
    let mut finished = std::collections::HashSet::new();
    for e in &events {
        match e {
            TraceEvent::NoticeCheckpoint { job, .. } => notified.push(*job),
            TraceEvent::Revoked { job, .. } => {
                assert!(
                    notified.contains(job),
                    "revocation of job {job} without a prior notice"
                );
            }
            TraceEvent::Finished { job, .. } => {
                finished.insert(*job);
            }
            _ => {}
        }
    }
    assert_eq!(finished.len(), 3, "all jobs must finish");
    assert!(report.revocations as usize <= notified.len());
}

#[test]
fn learned_estimator_plugs_into_orchestrator() {
    // End-to-end with a trained predictor instead of the oracle.
    let pool = pool();
    let cfg = TrainConfig {
        lstm_hidden: 4,
        lstm_tiers: 1,
        dense_hidden: 4,
        epochs: 1,
        seed: 2,
        ..TrainConfig::default()
    };
    let set = MarketPredictorSet::train(
        PredictorKind::Logistic,
        &pool,
        SimTime::from_hours(2),
        SimTime::from_hours(30),
        SimDur::from_mins(60),
        &cfg,
    );
    let w = small(Algorithm::LiR, 40, 2);
    let report = spottune(SpotTuneConfig::new(0.7, 1).with_seed(4), &w, &pool, &set);
    assert_eq!(report.predicted_finals.len(), 2);
    assert!(report.cost >= 0.0);
}
