//! Regenerates paper Fig. 4: the lifecycle of HPT jobs under SpotTune —
//! deployments, free (refunded) revocations, proactive one-hour recycles and
//! the early-shutdown finish — as an event timeline.
//!
//! Run with: `cargo run --release -p spottune-bench --bin fig04_job_lifetime`

use spottune_bench::{standard_pool, MASTER_SEED};
use spottune_core::prelude::*;
use spottune_mlsim::prelude::*;

fn main() {
    let pool = standard_pool(MASTER_SEED);
    let oracle = OracleEstimator::new(pool.clone(), 0.9);
    // A small ResNet slice keeps the timeline readable.
    let base = Workload::benchmark(Algorithm::ResNet);
    let workload = Workload::custom(Algorithm::ResNet, 100, base.hp_grid()[..4].to_vec());
    let cfg = SpotTuneConfig::new(0.7, 1).with_seed(MASTER_SEED);
    let mut policy = SpotTuneTheta::new(&oracle, cfg.delta_range, cfg.theta);
    let (report, events) = Engine::new(cfg, workload, pool).run_traced(&mut policy);

    println!("=== Fig 4: lifetime of {} HPT jobs under SpotTune ===", 4);
    for e in &events {
        match e {
            TraceEvent::Deployed { job, instance, max_price, at } => println!(
                "{at}  job {job}: deployed on {instance} (max price ${max_price:.4})"
            ),
            TraceEvent::NoticeCheckpoint { job, at } => println!(
                "{at}  job {job}: revocation notice -> checkpoint to object storage"
            ),
            TraceEvent::Revoked { job, free, at } => println!(
                "{at}  job {job}: revoked by provider ({})",
                if *free { "first-hour refund: the time was FREE" } else { "charged" }
            ),
            TraceEvent::Recycled { job, at } => println!(
                "{at}  job {job}: ran >1h on one VM -> proactive shutdown & redeploy"
            ),
            TraceEvent::Finished { job, reason, steps, at } => println!(
                "{at}  job {job}: finished after {steps} steps ({reason:?})"
            ),
        }
    }
    println!("\n{}", report.summary());
}
