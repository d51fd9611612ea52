//! Quickstart: run one SpotTune campaign end to end.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Describes one campaign as a [`CampaignRequest`] — the same value a
//! client sends to `spottune-serve` — over the standard six-market spot
//! pool: the logistic-regression benchmark (16 hyper-parameter
//! configurations) tuned by SpotTune with early shutdown at θ = 0.7. Runs
//! it in process and prints the cost/JCT report and the selected
//! configurations.

use spottune::prelude::*;

fn main() {
    // Six spot markets (Table III instances) with 12 days of price history.
    let scenario = MarketScenario::from_days(12, 42);

    // The workload: LoR with its Table-II grid of 16 configurations.
    let workload = Workload::benchmark(Algorithm::LoR);
    println!(
        "tuning {} ({} configurations, {} steps each)",
        workload.algorithm(),
        workload.hp_grid().len(),
        workload.max_trial_steps()
    );

    // SpotTune with the paper's default θ = 0.7 (the top 3 models continue
    // to full training), provisioning on the default `oracle(0.9)`
    // revocation estimator.
    let request = CampaignRequest {
        id: 0,
        approach: Approach::SpotTune { theta: 0.7 },
        workload: workload.clone(),
        scenario,
        seed: 42,
        estimator: EstimatorSpec::default(),
    };
    let report = request.run_serial(&scenario.build(), &CurveCache::global());

    println!("\n{}", report.summary());
    println!("\nselected configurations (best predicted first):");
    for &i in &report.selected {
        println!(
            "  #{i}: {}  predicted final = {:.4}, true final = {:.4}",
            workload.hp_grid()[i].id(),
            report.predicted_finals[i],
            report.true_finals[i],
        );
    }
    println!(
        "\n{:.1}% of all training steps ran on refunded (free) spot capacity.",
        100.0 * report.free_step_fraction()
    );
}
