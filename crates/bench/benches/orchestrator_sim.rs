//! Criterion macro-benchmark: a complete (small) SpotTune campaign — the
//! end-to-end cost of simulating Algorithm 1 against the cloud substrate.

use criterion::{criterion_group, criterion_main, Criterion};
use spottune_core::policy::SingleSpot;
use spottune_core::prelude::*;
use spottune_market::prelude::*;
use spottune_mlsim::prelude::*;

/// The paper's SpotTune: an engine under `SpotTuneTheta` over a fresh
/// `oracle(0.9)`.
fn spottune(cfg: SpotTuneConfig, workload: &Workload, pool: &MarketPool) -> HptReport {
    let oracle = OracleEstimator::new(pool.clone(), 0.9);
    let mut policy = SpotTuneTheta::new(&oracle, cfg.delta_range, cfg.theta);
    Engine::new(cfg, workload.clone(), pool.clone()).run(&mut policy)
}

fn bench_campaign(c: &mut Criterion) {
    let mut group = c.benchmark_group("orchestrator");
    group.sample_size(10);
    let pool = MarketPool::standard(SimDur::from_days(10), 42);
    // The paper's headline deep-learning workload: ResNet steps take the
    // better part of ten simulated minutes, so a campaign spans many
    // simulated hours — the regime the event-driven core exists for.
    let base = Workload::benchmark(Algorithm::ResNet);
    let small = Workload::custom(Algorithm::ResNet, 60, base.hp_grid()[..4].to_vec());
    group.bench_function("campaign_4cfg_60steps_theta07", |b| {
        b.iter(|| spottune(SpotTuneConfig::new(0.7, 2).with_seed(9), &small, &pool))
    });
    let lor = Workload::benchmark(Algorithm::LoR);
    let lor_small = Workload::custom(Algorithm::LoR, 60, lor.hp_grid()[..4].to_vec());
    group.bench_function("campaign_lor_4cfg_60steps_theta07", |b| {
        b.iter(|| spottune(SpotTuneConfig::new(0.7, 2).with_seed(9), &lor_small, &pool))
    });
    // The Single-Spot baseline (θ = 1, never checkpointed), submitted at 02:00.
    let cfg =
        SpotTuneConfig { start: SimTime::from_hours(2), ..SpotTuneConfig::new(1.0, 3).with_seed(9) };
    let baseline = Engine::new(cfg, small.clone(), pool.clone());
    group.bench_function("single_spot_baseline_4cfg", |b| {
        b.iter(|| baseline.run(&mut SingleSpot::new(SingleSpotKind::Cheapest)))
    });
    group.finish();
}

criterion_group!(benches, bench_campaign);
criterion_main!(benches);
