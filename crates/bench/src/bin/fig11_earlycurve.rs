//! Regenerates paper Fig. 11: (a) an example staged curve with EarlyCurve's
//! and SLAQ's fitted predictions; (b) the final-metric prediction error of
//! both methods on all 16 ResNet configurations at θ = 0.7.
//!
//! Run with: `cargo run --release -p spottune-bench --bin fig11_earlycurve`

use spottune_bench::{print_table, MASTER_SEED};
use spottune_earlycurve::prelude::*;
use spottune_mlsim::prelude::*;

fn main() {
    let w = Workload::benchmark(Algorithm::ResNet);
    let max = w.max_trial_steps();
    let target = (0.7 * max as f64).ceil() as u64;

    // (a) One two-stage configuration: observed curve + both fits.
    let hp = w
        .hp_grid()
        .iter()
        .find(|h| h.int("de") == 40 && h.int("depth") == 20)
        .expect("grid contains de=40 depth=20");
    let run = TrainingRun::new(&w, hp, MASTER_SEED);
    let mut ec = EarlyCurve::new(EarlyCurveConfig::default());
    let mut slaq = Slaq::new();
    for k in 1..=target {
        let m = run.metric_at(k);
        ec.push(k, m);
        slaq.push(k, m);
    }
    let ec_fit = ec.fit().expect("enough points");
    let slaq_fit = slaq.fit().expect("enough points");
    let rows: Vec<Vec<String>> = (1..=max)
        .map(|k| {
            vec![
                k.to_string(),
                format!("{:.4}", run.metric_at(k)),
                format!("{:.4}", ec_fit.predict(k)),
                format!("{:.4}", slaq_fit.predict(k)),
            ]
        })
        .collect();
    print_table(
        &format!("Fig 11(a): fits for {} (observed ≤ step {target})", hp.id()),
        &["step", "validation_loss", "earlycurve_fit", "slaq_fit"],
        &rows,
    );
    println!(
        "\ndetected stage boundaries (observed range): {:?}",
        ec.boundaries()
    );

    // (b) Absolute final-metric prediction error on all 16 configurations.
    let mut rows = Vec::new();
    let (mut sum_ec, mut sum_slaq) = (0.0, 0.0);
    for (i, hp) in w.hp_grid().iter().enumerate() {
        let run = TrainingRun::new(&w, hp, MASTER_SEED);
        let mut ec = EarlyCurve::new(EarlyCurveConfig::default());
        let mut slaq = Slaq::new();
        for k in 1..=target {
            let m = run.metric_at(k);
            ec.push(k, m);
            slaq.push(k, m);
        }
        let truth = run.final_metric();
        let e_ec = (ec.predict_final(max).expect("fit") - truth).abs();
        let e_slaq = (slaq.predict_final(max).expect("fit") - truth).abs();
        sum_ec += e_ec;
        sum_slaq += e_slaq;
        rows.push(vec![
            format!("{i}"),
            format!("{:.4}", e_ec),
            format!("{:.4}", e_slaq),
            hp.id(),
        ]);
    }
    print_table(
        "Fig 11(b): |prediction error| on 16 ResNet configurations (θ=0.7)",
        &["config", "earlycurve_error", "slaq_error", "hp"],
        &rows,
    );
    println!(
        "\nmean error: EarlyCurve {:.4} vs SLAQ {:.4} ({:.1}x reduction)",
        sum_ec / 16.0,
        sum_slaq / 16.0,
        sum_slaq / sum_ec.max(1e-12)
    );
}
