//! Regenerates paper Fig. 8: SpotTune's sensitivity against θ — (a) cost and
//! (b) JCT per workload for θ ∈ {0.1, …, 1.0}, and (c) the average top-1 /
//! top-3 accuracy of EarlyCurve's final selection.
//!
//! Run with: `cargo run --release -p spottune-bench --bin fig08_theta_sweep`

use spottune_bench::{par_map, print_table, run_campaigns, standard_scenario, Approach, MASTER_SEED};
use spottune_earlycurve::prelude::*;
use spottune_mlsim::prelude::*;

const THETAS: [f64; 10] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

fn main() {
    let scenario = standard_scenario(MASTER_SEED);
    let workloads = Workload::all_benchmarks();

    // (a) + (b): one campaign per (workload, θ).
    let tasks: Vec<(Approach, Workload)> = workloads
        .iter()
        .flat_map(|w| THETAS.iter().map(move |&theta| (Approach::SpotTune { theta }, w.clone())))
        .collect();
    let reports = run_campaigns(tasks, scenario, MASTER_SEED);

    let mut cost_rows = Vec::new();
    let mut jct_rows = Vec::new();
    for (wi, w) in workloads.iter().enumerate() {
        let group = &reports[wi * THETAS.len()..(wi + 1) * THETAS.len()];
        cost_rows.push(
            std::iter::once(w.algorithm().name().to_string())
                .chain(group.iter().map(|r| format!("{:.3}", r.cost)))
                .collect::<Vec<_>>(),
        );
        jct_rows.push(
            std::iter::once(w.algorithm().name().to_string())
                .chain(group.iter().map(|r| format!("{:.2}", r.jct.as_hours_f64())))
                .collect::<Vec<_>>(),
        );
    }
    let header: Vec<String> = std::iter::once("workload".to_string())
        .chain(THETAS.iter().map(|t| format!("θ={t}")))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    print_table("Fig 8(a): SpotTune cost ($) vs θ", &header_refs, &cost_rows);
    print_table("Fig 8(b): SpotTune JCT (hours) vs θ", &header_refs, &jct_rows);

    // (c): EarlyCurve selection accuracy vs θ, averaged over workloads and
    // seeds (the prediction itself needs no cloud simulation). Each
    // (θ, workload, seed) cell is independent — fan the whole grid out
    // across cores and reduce per θ afterwards.
    let seeds = [42u64, 7, 1234, 99, 555];
    let cells: Vec<(usize, usize, u64)> = (0..THETAS.len())
        .flat_map(|ti| {
            (0..workloads.len()).flat_map(move |wi| seeds.into_iter().map(move |s| (ti, wi, s)))
        })
        .collect();
    let hits: Vec<(usize, bool, bool)> = par_map(cells, |(ti, wi, seed)| {
        let theta = THETAS[ti];
        let w = &workloads[wi];
        let max = w.max_trial_steps();
        let target = ((theta * max as f64).ceil() as u64).clamp(1, max);
        let mut preds = Vec::with_capacity(w.hp_grid().len());
        let mut finals = Vec::with_capacity(w.hp_grid().len());
        for hp in w.hp_grid() {
            let run = TrainingRun::new(w, hp, seed);
            let mut ec = EarlyCurve::new(EarlyCurveConfig::default());
            for k in 1..=target {
                ec.push(k, run.metric_at(k));
            }
            let last = run.metric_at(target);
            preds.push(if theta >= 1.0 {
                last
            } else {
                ec.predict_final(max).unwrap_or(last)
            });
            finals.push(run.final_metric());
        }
        let best = argmin(&finals);
        let mut rank: Vec<usize> = (0..preds.len()).collect();
        rank.sort_by(|&a, &b| preds[a].partial_cmp(&preds[b]).expect("finite"));
        (ti, rank[0] == best, rank[..3].contains(&best))
    });
    let mut acc_rows = Vec::new();
    for (ti, &theta) in THETAS.iter().enumerate() {
        let cell: Vec<&(usize, bool, bool)> = hits.iter().filter(|(i, _, _)| *i == ti).collect();
        let n = cell.len() as f64;
        let hit1 = cell.iter().filter(|(_, h1, _)| *h1).count() as f64;
        let hit3 = cell.iter().filter(|(_, _, h3)| *h3).count() as f64;
        acc_rows.push(vec![
            format!("{theta}"),
            format!("{:.3}", hit1 / n),
            format!("{:.3}", hit3 / n),
        ]);
    }
    print_table(
        "Fig 8(c): selection accuracy vs θ (avg over 6 workloads × 5 seeds)",
        &["theta", "top1_accuracy", "top3_accuracy"],
        &acc_rows,
    );
}

fn argmin(xs: &[f64]) -> usize {
    xs.iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .map(|(i, _)| i)
        .expect("non-empty")
}
