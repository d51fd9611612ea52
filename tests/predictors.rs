//! Integration tests of the prediction stack: EarlyCurve against real
//! trainer curves, and the revocation predictors against market ground
//! truth.

use spottune::prelude::*;

#[test]
fn earlycurve_tracks_real_logreg_curve() {
    let w = Workload::benchmark(Algorithm::LoR);
    let hp = w.hp_grid()[0].clone();
    let run = TrainingRun::new(&w, &hp, 42);
    let max = w.max_trial_steps();
    let observed = (0.7 * max as f64).ceil() as u64;
    let mut ec = EarlyCurve::new(EarlyCurveConfig::default());
    for k in 1..=observed {
        ec.push(k, run.metric_at(k));
    }
    let pred = ec.predict_final(max).expect("enough points");
    let truth = run.final_metric();
    // Absolute accuracy is what the ranking consumes; the losses here are
    // small (~0.03), so a tight absolute bound is the meaningful one.
    assert!(
        (pred - truth).abs() < 0.05,
        "absolute error too large (pred {pred}, truth {truth})"
    );
}

#[test]
fn earlycurve_beats_slaq_on_staged_cnn_curves() {
    // Aggregated over all 16 ResNet configurations (the Fig. 11(b) claim).
    let w = Workload::benchmark(Algorithm::ResNet);
    let max = w.max_trial_steps();
    let observed = (0.7 * max as f64).ceil() as u64;
    let (mut err_ec, mut err_slaq) = (0.0, 0.0);
    for hp in w.hp_grid() {
        let run = TrainingRun::new(&w, hp, 42);
        let mut ec = EarlyCurve::new(EarlyCurveConfig::default());
        let mut slaq = Slaq::new();
        for k in 1..=observed {
            let m = run.metric_at(k);
            ec.push(k, m);
            slaq.push(k, m);
        }
        let truth = run.final_metric();
        err_ec += (ec.predict_final(max).expect("fit") - truth).abs();
        err_slaq += (slaq.predict_final(max).expect("fit") - truth).abs();
    }
    assert!(
        err_ec * 2.0 < err_slaq,
        "EarlyCurve total error {err_ec} should be well under SLAQ's {err_slaq}"
    );
}

#[test]
fn stage_boundary_matches_decay_epoch() {
    let w = Workload::benchmark(Algorithm::ResNet);
    let hp = w
        .hp_grid()
        .iter()
        .find(|h| h.int("de") == 40)
        .expect("grid has de=40");
    let run = TrainingRun::new(&w, hp, 42);
    let mut ec = EarlyCurve::new(EarlyCurveConfig::default());
    for k in 1..=70 {
        ec.push(k, run.metric_at(k));
    }
    let boundaries = ec.boundaries();
    assert_eq!(boundaries.len(), 1, "exactly one stage change, got {boundaries:?}");
    let b = boundaries[0] as i64;
    assert!((b - 40).abs() <= 2, "boundary {b} should sit at the decay epoch 40");
}

#[test]
fn oracle_estimator_matches_market_ground_truth() {
    let pool = MarketPool::standard(SimDur::from_days(5), 42);
    let oracle = OracleEstimator::new(pool.clone(), 0.9);
    for market in pool.iter() {
        for h in [3u64, 30, 80] {
            let t = SimTime::from_hours(h);
            let price = market.price_at(t);
            let max_price = price + 0.02;
            let p = oracle.revocation_probability(market.instance().name(), t, max_price);
            let truth = market.revoked_within_hour(t, max_price);
            assert_eq!(p > 0.5, truth, "{} at {t}", market.instance().name());
        }
    }
}

#[test]
fn revpred_learns_better_than_chance() {
    // A compact end-to-end check (full comparison lives in fig10_revpred):
    // RevPred trained on one volatile market must beat label-frequency
    // guessing on held-out samples.
    let pool = MarketPool::standard(SimDur::from_days(8), 42);
    let market = pool.market("m4.2xlarge").expect("catalog");
    let cfg = TrainConfig {
        lstm_hidden: 8,
        lstm_tiers: 2,
        dense_hidden: 8,
        epochs: 5,
        seed: 3,
        ..TrainConfig::default()
    };
    let train = build_dataset(
        market,
        SimTime::from_hours(2),
        SimTime::from_days(6),
        SimDur::from_mins(15),
        DeltaPolicy::Algorithm2,
        7,
    );
    let mut net = RevPredNet::new(&cfg);
    net.train(&train, &cfg);
    let test = build_dataset(
        market,
        SimTime::from_days(6),
        SimTime::from_days(8) - SimDur::from_hours(2),
        SimDur::from_mins(15),
        DeltaPolicy::UniformRandom,
        8,
    );
    let probs: Vec<f64> = test.iter().map(|s| net.predict(s)).collect();
    let labels: Vec<bool> = test.iter().map(|s| s.label).collect();
    let eval = BinaryEval::score(&probs, &labels, 0.5);
    let base_rate = labels.iter().filter(|&&l| l).count() as f64 / labels.len() as f64;
    let majority = base_rate.max(1.0 - base_rate);
    assert!(
        eval.accuracy() > 0.5 && eval.f1() > 0.0,
        "accuracy {} f1 {} (majority {majority})",
        eval.accuracy(),
        eval.f1()
    );
}

#[test]
fn checkpoint_sizes_fit_notice_window_on_all_instances() {
    // §IV.F: every benchmark model must upload within the 120 s notice on
    // every catalog instance (the orchestrator relies on this).
    use spottune_cloud::storage::max_model_size_mb;
    for w in Workload::all_benchmarks() {
        for hp in w.hp_grid() {
            let size = w.model_size_mb(hp);
            for inst in spottune_market::instance::catalog() {
                assert!(
                    size <= max_model_size_mb(&inst),
                    "{} ({} MB) exceeds the window on {}",
                    w.algorithm(),
                    size,
                    inst.name()
                );
            }
        }
    }
}
