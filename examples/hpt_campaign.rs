//! A full HPT cost study: SpotTune vs the Single-Spot baselines on two
//! benchmark workloads — a miniature of the paper's Fig. 7, submitted as
//! one batch of [`CampaignRequest`]s.
//!
//! ```text
//! cargo run --release --example hpt_campaign
//! ```

use spottune::prelude::*;

fn main() {
    let scenario = MarketScenario::from_days(12, 42);
    // One runner: both workloads share its pool, spine and curve tiers.
    let runner = BatchRunner::new();

    for algorithm in [Algorithm::Svm, Algorithm::Gbtr] {
        let workload = Workload::benchmark(algorithm);
        println!("\n==== {} ====", workload.algorithm());

        // SpotTune at θ = 0.7 and 1.0, then the two Single-Spot baselines.
        let requests: Vec<CampaignRequest> = Approach::fig7_set()
            .into_iter()
            .zip(0..)
            .map(|(approach, id)| CampaignRequest {
                id,
                approach,
                workload: workload.clone(),
                scenario,
                seed: 42,
                estimator: EstimatorSpec::default(),
            })
            .collect();
        let reports = runner.run_many(&requests);

        let reference = reports[0].clone();
        for r in &reports {
            println!(
                "{:<28} cost=${:<7.3} jct={:<8} pcr(norm)={:.2}",
                r.approach,
                r.cost,
                format!("{}", r.jct),
                r.pcr_normalized(&reference)
            );
        }
        // SpotTune must win the cost comparison on every workload (Fig 7a).
        let best_cost = reports
            .iter()
            .map(|r| r.cost)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(best_cost, reports[0].cost, "SpotTune(0.7) should be cheapest");
    }
}
