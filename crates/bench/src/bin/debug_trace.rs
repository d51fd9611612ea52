//! Developer diagnostic: campaign event statistics for one workload.

use spottune_bench::{standard_pool, MASTER_SEED};
use spottune_core::prelude::*;
use spottune_mlsim::prelude::*;
use std::collections::BTreeMap;

fn main() {
    let pool = standard_pool(MASTER_SEED);
    let oracle = OracleEstimator::new(pool.clone(), 0.9);
    let w = Workload::benchmark(Algorithm::LoR);
    let cfg = SpotTuneConfig::new(0.7, 3).with_seed(MASTER_SEED);
    let mut policy = SpotTuneTheta::new(&oracle, cfg.delta_range, cfg.theta);
    let (report, events) = Engine::new(cfg, w, pool).run_traced(&mut policy);

    let mut deployed_per_inst: BTreeMap<String, u64> = BTreeMap::new();
    let (mut deployed, mut revoked_free, mut revoked_paid, mut recycled, mut finished) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut deploy_time: BTreeMap<usize, spottune_market::SimTime> = BTreeMap::new();
    let mut free_lifetimes = Vec::new();
    for e in &events {
        match e {
            TraceEvent::Deployed { job, instance, at, .. } => {
                deployed += 1;
                *deployed_per_inst.entry(instance.clone()).or_default() += 1;
                deploy_time.insert(*job, *at);
            }
            TraceEvent::Revoked { free, job, at } => {
                if *free {
                    revoked_free += 1;
                    if let Some(d) = deploy_time.get(job) {
                        free_lifetimes.push(at.since(*d).as_secs() / 60);
                    }
                } else {
                    revoked_paid += 1;
                }
            }
            TraceEvent::Recycled { .. } => recycled += 1,
            TraceEvent::Finished { .. } => finished += 1,
            _ => {}
        }
    }
    println!("deployed={deployed} revoked_free={revoked_free} revoked_paid={revoked_paid} recycled={recycled} finished={finished}");
    println!("per-instance deployments: {deployed_per_inst:?}");
    free_lifetimes.sort_unstable();
    println!("free VM lifetimes (min): {free_lifetimes:?}");
    println!("free_steps={} charged_steps={}", report.free_steps, report.charged_steps);
    println!("{}", report.summary());
}
