//! Ablation: how much of SpotTune's saving comes from each provisioning
//! ingredient (§IV.C "Why SpotTune is the Cheapest")?
//!
//! Four estimator variants drive the same Algorithm-1 orchestrator:
//!
//! * **Oracle (p=0.9)** — full revocation awareness (the Figs. 7–9 setup);
//! * **Blind (p=0)**   — Eq. 2 degenerates to lowest step cost, the
//!   "stable markets" scenario of §V.A: no refund harvesting by intent;
//! * **Pessimist (p=0.5 everywhere)** — constant probability: expected cost
//!   keeps ordering by `spe × price`, so refunds happen only by accident;
//! * **Anti-oracle** — inverted predictions, actively avoiding refunds —
//!   a lower bound showing the cost of being wrong.
//!
//! Run with: `cargo run --release -p spottune-bench --bin ablation_provisioner`

use spottune_bench::{par_map, print_table, standard_pool, MASTER_SEED};
use spottune_core::prelude::*;
use spottune_market::prelude::*;
use spottune_mlsim::prelude::*;

/// Inverts an oracle: predicts "safe" exactly when the market will revoke.
#[derive(Debug)]
struct AntiOracle(OracleEstimator);

impl RevocationEstimator for AntiOracle {
    fn revocation_probability(&self, instance: &str, t: SimTime, max_price: f64) -> f64 {
        1.0 - self.0.revocation_probability(instance, t, max_price)
    }
    fn name(&self) -> &str {
        "anti-oracle"
    }
}

fn main() {
    let pool = standard_pool(MASTER_SEED);
    let workloads = [Algorithm::LoR, Algorithm::Svm, Algorithm::ResNet];

    let oracle = OracleEstimator::new(pool.clone(), 0.9);
    let blind = ConstantEstimator::new(0.0);
    let pessimist = ConstantEstimator::new(0.5);
    let anti = AntiOracle(OracleEstimator::new(pool.clone(), 0.9));
    let estimators: [(&str, &dyn RevocationEstimator); 4] = [
        ("oracle", &oracle),
        ("blind(p=0)", &blind),
        ("constant(p=0.5)", &pessimist),
        ("anti-oracle", &anti),
    ];

    // Every (workload, estimator) campaign is independent: fan the whole
    // ablation grid out across cores.
    let grid: Vec<(Algorithm, usize)> = workloads
        .iter()
        .flat_map(|&alg| (0..estimators.len()).map(move |ei| (alg, ei)))
        .collect();
    let rows: Vec<Vec<String>> = par_map(grid, |(alg, ei)| {
        let (label, est) = estimators[ei];
        let w = Workload::benchmark(alg);
        let cfg = SpotTuneConfig::new(0.7, 3).with_seed(MASTER_SEED);
        let mut policy = SpotTuneTheta::new(est, cfg.delta_range, cfg.theta);
        let r = Engine::new(cfg, w.clone(), pool.clone()).run(&mut policy);
        vec![
            w.algorithm().name().to_string(),
            label.to_string(),
            format!("{:.3}", r.cost),
            format!("{:.1}", 100.0 * r.free_step_fraction()),
            format!("{:.2}", r.jct.as_hours_f64()),
        ]
    });
    print_table(
        "Ablation: revocation awareness in the provisioner (θ=0.7)",
        &["workload", "estimator", "cost_$", "free_steps_pct", "jct_h"],
        &rows,
    );
    println!("\nExpectation: oracle ≪ blind/constant on cost via refunds; the");
    println!("anti-oracle pays the most — prediction quality, not luck, drives Fig. 7.");
}
