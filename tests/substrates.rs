//! Substrate-level integration tests: CSV ingestion feeding the full
//! market/feature pipeline, the superlinear EarlyCurve extension, and
//! cross-crate consistency checks.

use spottune::prelude::*;
use spottune_earlycurve::superlinear::{fit_geometric, AutoFit};
use spottune_market::csvload::{parse_csv, traces_from_records};

#[test]
fn csv_traces_feed_the_whole_pipeline() {
    // Synthesize a CSV in the Kaggle schema, load it, and run features,
    // labels and billing on the resulting market.
    let mut csv = String::from("timestamp,instance_type,os,region,price\n");
    for m in 0..240u64 {
        // r4.large: a slow ramp and recovery.
        let price = 0.04 + 0.03 * ((m as f64 / 40.0).sin().abs());
        csv.push_str(&format!("{},r4.large,Linux/UNIX,us-east-1a,{price:.4}\n", m * 60));
    }
    let records = parse_csv(&csv).expect("valid csv");
    let traces = traces_from_records(&records);
    let trace = traces.get("r4.large").expect("instance present").clone();
    assert_eq!(trace.len_minutes(), 240);

    let inst = spottune_market::instance::by_name("r4.large").expect("catalog");
    let market = SpotMarket::new(inst, trace);
    // Feature extraction works on loaded data.
    let f = spottune_revpred::features::raw_features(market.trace(), SimTime::from_mins(90));
    assert!(f[0] > 0.0);
    // Billing integrates the loaded prices.
    let mut provider =
        spottune_cloud::CloudProvider::new(MarketPool::new(vec![market]));
    let vm = provider
        .request_spot(SimTime::from_mins(10), "r4.large", 10.0)
        .expect("high max price accepted");
    let bill = provider.terminate(SimTime::from_mins(70), vm);
    assert!(bill.gross > 0.0 && !bill.was_free());
}

#[test]
fn superlinear_autofit_handles_both_families() {
    // Sublinear (GD-style) data → rational family extrapolates well.
    let sublinear: Vec<(u64, f64)> = (0..60)
        .map(|k| (k, 0.4 + 1.0 / (0.25 * k as f64 + 1.0)))
        .collect();
    let auto = AutoFit::fit(&sublinear, 0);
    assert!((auto.predict(500) - 0.4).abs() < 0.1);

    // Superlinear (L-BFGS-style) data → geometric family, tight plateau.
    let superlinear: Vec<(u64, f64)> = (0..40)
        .map(|k| (k, 0.15 + 3.0 * 0.8f64.powi(k as i32)))
        .collect();
    let auto = AutoFit::fit(&superlinear, 0);
    assert!(matches!(auto, AutoFit::Geometric(_)));
    assert!((auto.predict(200) - 0.15).abs() < 0.02);
    // The rational family alone would miss the plateau harder than the
    // geometric fit does.
    let rational = spottune_earlycurve::fit::fit_stage(&superlinear, 0);
    let geometric = fit_geometric(&superlinear, 0);
    assert!(geometric.mse <= rational.mse);
}

#[test]
fn standard_pool_has_stable_and_unstable_markets() {
    // §V.A requires both regimes in the pool — check empirically.
    let pool = MarketPool::standard(SimDur::from_days(8), 42);
    let price_range_ratio = |name: &str| {
        let m = pool.market(name).expect("catalog");
        let (lo, hi) = m.trace().min_max();
        hi / lo
    };
    assert!(price_range_ratio("r4.2xlarge") < 3.0, "r4.2xlarge should be stable");
    assert!(price_range_ratio("m4.2xlarge") > 5.0, "m4.2xlarge should be unstable");
}

#[test]
fn workload_grids_match_their_trainers() {
    // Every grid point constructs a working TrainingRun and positive SPE on
    // every catalog instance — the orchestrator's operating envelope.
    let perf = PerfModel::new();
    for w in Workload::all_benchmarks() {
        for hp in w.hp_grid() {
            let run = TrainingRun::new(&w, hp, 1);
            assert!(run.metric_at(1).is_finite());
            for inst in spottune_market::instance::catalog() {
                assert!(perf.true_spe(&inst, &w, hp) > 0.0);
            }
        }
    }
}

#[test]
fn continuation_accounting_is_consistent() {
    // cost ≤ cost_with_continuation and jct ≤ jct_with_continuation, with
    // equality at θ = 1.
    let pool = MarketPool::standard(SimDur::from_days(10), 42);
    let oracle = OracleEstimator::new(pool.clone(), 0.9);
    let base = Workload::benchmark(Algorithm::Svm);
    let w = Workload::custom(Algorithm::Svm, 60, base.hp_grid()[..4].to_vec());
    let run = |theta: f64| {
        let cfg = SpotTuneConfig::new(theta, 2).with_seed(3);
        let mut policy = SpotTuneTheta::new(&oracle, cfg.delta_range, cfg.theta);
        Engine::new(cfg, w.clone(), pool.clone()).run(&mut policy)
    };
    let partial = run(0.5);
    assert!(partial.cost <= partial.cost_with_continuation + 1e-9);
    assert!(partial.jct <= partial.jct_with_continuation);
    let full = run(1.0);
    assert!((full.cost - full.cost_with_continuation).abs() < 1e-12);
    assert_eq!(full.jct, full.jct_with_continuation);
}
