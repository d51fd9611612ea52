//! Lock-in tests: the event-driven drive must reproduce the 10-second tick
//! loop *bit-identically* — same `HptReport` (every field, f64s included)
//! and the same `TraceEvent` sequence, event for event. Quantizing event
//! times to the poll grid makes the two strategies visit the same ticks
//! with the same per-tick body, so any divergence is a bug in the jump
//! computation.

use spottune_core::prelude::*;
use spottune_market::prelude::*;
use spottune_mlsim::prelude::*;

fn workload(alg: Algorithm, steps: u64, n: usize) -> Workload {
    let base = Workload::benchmark(alg);
    Workload::custom(alg, steps, base.hp_grid()[..n].to_vec())
}

fn run_both(
    alg: Algorithm,
    steps: u64,
    n: usize,
    theta: f64,
    mcnt: usize,
    seed: u64,
) -> ((HptReport, Vec<TraceEvent>), (HptReport, Vec<TraceEvent>)) {
    let pool = MarketPool::standard(SimDur::from_days(10), 42);
    let oracle = OracleEstimator::new(pool.clone(), 0.9);
    let w = workload(alg, steps, n);
    let run = |mode: DriveMode| {
        let cfg = SpotTuneConfig::new(theta, mcnt)
            .with_seed(seed)
            .with_drive_mode(mode);
        let mut policy = SpotTuneTheta::new(&oracle, cfg.delta_range, cfg.theta);
        Engine::new(cfg, w.clone(), pool.clone()).run_traced(&mut policy)
    };
    (run(DriveMode::Tick), run(DriveMode::Event))
}

fn assert_identical(
    (tick_report, tick_events): (HptReport, Vec<TraceEvent>),
    (event_report, event_events): (HptReport, Vec<TraceEvent>),
    label: &str,
) {
    assert_eq!(
        tick_events.len(),
        event_events.len(),
        "{label}: event count diverged"
    );
    for (i, (a, b)) in tick_events.iter().zip(&event_events).enumerate() {
        assert_eq!(a, b, "{label}: trace event {i} diverged");
    }
    assert_eq!(tick_report, event_report, "{label}: report diverged");
}

#[test]
fn lor_campaigns_match_across_theta() {
    for (theta, seed) in [(0.4, 5u64), (0.7, 7), (1.0, 9)] {
        let (tick, event) = run_both(Algorithm::LoR, 60, 4, theta, 2, seed);
        assert!(tick.0.jct.as_secs() > 0);
        assert_identical(tick, event, &format!("LoR θ={theta} seed={seed}"));
    }
}

#[test]
fn svm_campaigns_match_across_theta() {
    for (theta, seed) in [(0.4, 11u64), (0.7, 13), (1.0, 17)] {
        let (tick, event) = run_both(Algorithm::Svm, 50, 4, theta, 1, seed);
        assert_identical(tick, event, &format!("SVM θ={theta} seed={seed}"));
    }
}

#[test]
fn coarse_poll_interval_still_matches() {
    // A one-minute grid stresses multi-step ticks (several steps can
    // complete inside a single tick) and late-notice delivery.
    let pool = MarketPool::standard(SimDur::from_days(10), 42);
    let oracle = OracleEstimator::new(pool.clone(), 0.9);
    let w = workload(Algorithm::LoR, 40, 3);
    let run = |mode: DriveMode| {
        let mut cfg = SpotTuneConfig::new(0.7, 1).with_seed(3).with_drive_mode(mode);
        cfg.poll_interval = SimDur::from_secs(60);
        let mut policy = SpotTuneTheta::new(&oracle, cfg.delta_range, cfg.theta);
        Engine::new(cfg, w.clone(), pool.clone()).run_traced(&mut policy)
    };
    assert_identical(run(DriveMode::Tick), run(DriveMode::Event), "coarse poll");
}

#[test]
fn event_drive_is_the_default() {
    assert_eq!(SpotTuneConfig::default().drive_mode, DriveMode::Event);
}
