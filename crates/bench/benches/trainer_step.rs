//! Criterion micro-benchmark: one cold training curve of each workload —
//! the trainer work a curve-tier miss pays inside campaigns — and the
//! cold-scenario logistic predictor training split into its dataset and
//! fit halves.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use spottune_market::prelude::*;
use spottune_mlsim::prelude::*;
use spottune_revpred::prelude::*;
use spottune_revpred::TrainConfig;

fn bench_trainers(c: &mut Criterion) {
    let mut group = c.benchmark_group("trainer");
    for alg in Algorithm::all() {
        let w = Workload::benchmark(alg);
        let hp = w.hp_grid()[0].clone();
        group.bench_function(format!("{}_cold_curve", alg.name()), |b| {
            b.iter(|| TrainingRun::with_cache(&w, &hp, 42, &CurveCache::new()).final_metric())
        });
    }
    group.finish();
}

/// What one cold `(scenario, Logistic)` key costs, and where: the six
/// markets' datasets, the lock-step fit over them, and the whole
/// `train_for_scenario` call (2-day scenarios are the ledger's
/// `sweep_small` / `sweep_distinct` shape, 12-day `sweep_paper`'s). The
/// split mirrors `train_for_pool`: `[2 h, 3T/4)` at a 20-minute stride.
fn bench_predictor_train(c: &mut Criterion) {
    let mut group = c.benchmark_group("predictor_train");
    let scenario = MarketScenario::from_days(2, 42);
    let pool = scenario.build();
    let cfg = TrainConfig { seed: scenario.seed, ..TrainConfig::default() };
    let datasets = || -> Vec<SlicedDataset> {
        pool.iter()
            .map(|market| {
                SlicedDataset::build(
                    market,
                    SimTime::from_hours(2),
                    SimTime::from_hours(36),
                    SimDur::from_mins(20),
                    DeltaPolicy::Algorithm2,
                    cfg.seed ^ market.instance().name().len() as u64,
                )
            })
            .collect()
    };
    group.bench_function("dataset_2d", |b| b.iter(datasets));
    group.bench_function("fit_2d", |b| {
        b.iter_batched(
            datasets,
            |sets| LogisticModel::train_lockstep(sets, &cfg),
            BatchSize::LargeInput,
        )
    });
    group.bench_function("train_for_scenario_2d", |b| {
        b.iter(|| train_for_scenario(PredictorKind::Logistic, scenario, &pool))
    });
    let scenario = MarketScenario::from_days(12, 42);
    let pool = scenario.build();
    group.bench_function("train_for_scenario_12d", |b| {
        b.iter(|| train_for_scenario(PredictorKind::Logistic, scenario, &pool))
    });
    group.finish();
}

criterion_group!(benches, bench_trainers, bench_predictor_train);
criterion_main!(benches);
