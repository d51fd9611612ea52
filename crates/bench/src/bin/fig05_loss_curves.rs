//! Regenerates paper Fig. 5: (a) logistic-regression validation-loss curves
//! under three hyper-parameter settings; (b) a ResNet-style two-stage
//! validation-loss curve with a learning-rate decay drop.
//!
//! Run with: `cargo run --release -p spottune-bench --bin fig05_loss_curves`

use spottune_bench::{print_table, MASTER_SEED};
use spottune_mlsim::prelude::*;

fn main() {
    // (a) Three LoR configurations, like the paper's three curves.
    let w = Workload::benchmark(Algorithm::LoR);
    let picks = [0usize, 5, 10];
    let runs: Vec<(String, TrainingRun)> = picks
        .iter()
        .map(|&i| {
            let hp = &w.hp_grid()[i];
            (hp.id(), TrainingRun::new(&w, hp, MASTER_SEED))
        })
        .collect();
    let max = w.max_trial_steps();
    let mut rows = Vec::new();
    for k in (5..=max).step_by(5) {
        let mut row = vec![k.to_string()];
        for (_, run) in &runs {
            row.push(format!("{:.4}", run.metric_at(k)));
        }
        rows.push(row);
    }
    let labels: Vec<&str> = runs.iter().map(|(id, _)| id.as_str()).collect();
    print_table(
        "Fig 5(a): LoR validation loss under three HP settings",
        &["step", labels[0], labels[1], labels[2]],
        &rows,
    );

    // (b) ResNet two-stage curve (decay at epoch 40).
    let w = Workload::benchmark(Algorithm::ResNet);
    let hp = w
        .hp_grid()
        .iter()
        .find(|h| h.int("de") == 40 && h.int("depth") == 29)
        .expect("grid contains de=40 depth=29");
    let run = TrainingRun::new(&w, hp, MASTER_SEED);
    let rows: Vec<Vec<String>> = (1..=w.max_trial_steps())
        .map(|k| vec![k.to_string(), format!("{:.4}", run.metric_at(k))])
        .collect();
    print_table(
        &format!("Fig 5(b): ResNet validation loss ({})", hp.id()),
        &["epoch", "validation_loss"],
        &rows,
    );
    let drop = run.metric_at(39) - run.metric_at(44);
    println!("\nstage drop across the decay epoch (39→44): {drop:.3} (clearly visible, as in Fig. 5(b))");
}
