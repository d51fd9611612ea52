//! Regenerates the paper's tables: user parameters (Table I), the benchmark
//! matrix (Table II), the instance catalog (Table III), and the Fig. 2 grid
//! expansion example.
//!
//! Run with: `cargo run --release -p spottune-bench --bin tables`

use spottune_bench::{par_map, print_table};
use spottune_core::SpotTuneConfig;
use spottune_market::instance;
use spottune_mlsim::prelude::*;

fn main() {
    // Table I: user-specified parameters and their defaults here.
    let cfg = SpotTuneConfig::default();
    print_table(
        "Table I: user-specified parameters",
        &["parameter", "meaning", "default"],
        &[
            vec![
                "metric".into(),
                "model-quality metric (per workload, lower is better)".into(),
                "see Table II".into(),
            ],
            vec![
                "max_trial_steps".into(),
                "maximum steps per configuration".into(),
                "see Table II".into(),
            ],
            vec![
                "theta".into(),
                "early-shutdown rate for final-metric prediction".into(),
                format!("{}", cfg.theta),
            ],
            vec![
                "mcnt".into(),
                "models kept for continued training".into(),
                format!("{}", cfg.mcnt),
            ],
        ],
    );

    // Table II: algorithms, datasets, optimizers, metrics, HP grids. Each
    // row walks its whole grid to collect the axis values — independent
    // per workload, so fan the rows across cores.
    let rows: Vec<Vec<String>> = par_map(Workload::all_benchmarks(), |w| {
        let axes: Vec<String> = w.hp_grid()[0]
            .entries()
            .iter()
            .map(|(k, _)| {
                let mut values: Vec<String> = w
                    .hp_grid()
                    .iter()
                    .map(|hp| hp.get(k).expect("axis present").to_string())
                    .collect();
                values.sort();
                values.dedup();
                format!("{k}∈{{{}}}", values.join(" "))
            })
            .collect();
        vec![
            w.algorithm().name().into(),
            w.dataset().into(),
            w.optimizer().into(),
            w.metric().into(),
            format!("{}", w.max_trial_steps()),
            axes.join(" "),
        ]
    });
    print_table(
        "Table II: ML benchmarks",
        &["algorithm", "dataset", "optimizer", "metric", "max_trial_steps", "hyper-parameters"],
        &rows,
    );

    // Table III: instance catalog.
    let rows: Vec<Vec<String>> = instance::catalog()
        .iter()
        .map(|i| {
            vec![
                i.name().into(),
                format!("{}", i.vcpus()),
                format!("{}", i.memory_gb()),
                format!("{}", i.on_demand_price()),
            ]
        })
        .collect();
    print_table(
        "Table III: experimental instance configurations",
        &["instance", "vCPUs", "memory_GB", "on_demand_USD_per_h"],
        &rows,
    );

    // Fig. 2: grid expansion example (the HPT search space).
    let w = Workload::benchmark(Algorithm::ResNet);
    let rows: Vec<Vec<String>> = w
        .hp_grid()
        .iter()
        .enumerate()
        .map(|(i, hp)| vec![format!("model {}.{}", 6, i + 1), hp.id()])
        .collect();
    print_table("Fig 2: expanded ResNet search space (16 models)", &["model", "configuration"], &rows);
}
