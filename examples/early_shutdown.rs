//! Early shutdown in action: EarlyCurve watches a two-stage ResNet training
//! curve, detects the learning-rate stage boundary, and predicts the final
//! loss from 70 % of the steps — against the SLAQ single-stage baseline.
//!
//! ```text
//! cargo run --release --example early_shutdown
//! ```

use spottune::prelude::*;

fn main() {
    let workload = Workload::benchmark(Algorithm::ResNet);
    let hp = workload
        .hp_grid()
        .iter()
        .find(|h| h.int("de") == 40 && h.int("depth") == 29)
        .expect("grid contains de=40 depth=29");
    println!("configuration: {}", hp.id());

    let max = workload.max_trial_steps();
    let theta = 0.7;
    let observed = (theta * max as f64).ceil() as u64;

    let run = TrainingRun::new(&workload, hp, 42);
    let mut earlycurve = EarlyCurve::new(EarlyCurveConfig::default());
    let mut slaq = Slaq::new();
    for k in 1..=observed {
        let metric = run.metric_at(k);
        earlycurve.push(k, metric);
        slaq.push(k, metric);
        if k % 10 == 0 {
            println!("  step {k:>3}: validation loss {metric:.4}");
        }
    }

    let boundaries = earlycurve.boundaries();
    println!("\ndetected stage boundaries at steps: {boundaries:?} (decay epoch was 40)");

    let truth = run.final_metric();
    let pred_ec = earlycurve.predict_final(max).expect("enough points");
    let pred_slaq = slaq.predict_final(max).expect("enough points");
    println!("\nafter observing {observed}/{max} steps (θ = {theta}):");
    println!("  EarlyCurve predicts final loss {pred_ec:.4} (error {:+.4})", pred_ec - truth);
    println!("  SLAQ       predicts final loss {pred_slaq:.4} (error {:+.4})", pred_slaq - truth);
    println!("  actual final loss              {truth:.4}");
    assert!(
        (pred_ec - truth).abs() < (pred_slaq - truth).abs(),
        "the staged fit should beat the single-stage fit on a two-stage curve"
    );
    println!(
        "\nSpotTune would release this model's VM {:.0}% early and only keep it if it ranks top-mcnt.",
        100.0 * (1.0 - theta)
    );
}
