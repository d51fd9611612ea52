//! # spottune-bench
//!
//! Shared infrastructure for the figure/table regeneration binaries (one
//! per paper figure, `src/bin/figNN_*.rs`) and the criterion
//! micro-benchmarks. The campaign fan-out itself is
//! [`BatchRunner::run_many`]: the helpers here build [`CampaignRequest`]s
//! and run them in process as one batch.

use spottune_core::prelude::*;
use spottune_market::prelude::*;
use spottune_mlsim::prelude::*;
use spottune_revpred::PredictorCache;

// Re-exported so existing figure binaries keep importing the approach enum
// from the bench facade (it moved into `spottune_core::campaign`).
pub use spottune_core::campaign::Approach;

/// Length of the standard simulated price history (the Kaggle dataset spans
/// ~12 days: 2017-04-26 → 2017-05-08).
pub const TRACE_DAYS: u64 = 12;

/// Master seed used by every figure unless it sweeps seeds itself.
pub const MASTER_SEED: u64 = 42;

/// The standard six-market pool used by all experiments.
pub fn standard_pool(seed: u64) -> MarketPool {
    standard_scenario(seed).build()
}

/// The scenario key naming [`standard_pool`] on the server's pool tier.
pub fn standard_scenario(seed: u64) -> MarketScenario {
    MarketScenario::from_days(TRACE_DAYS, seed)
}

/// [`run_campaigns_with_estimator`] with the default `oracle(0.9)` spec —
/// the figure binaries' entry point.
pub fn run_campaigns(
    tasks: Vec<(Approach, Workload)>,
    scenario: MarketScenario,
    seed: u64,
) -> Vec<HptReport> {
    run_campaigns_with_estimator(tasks, scenario, seed, EstimatorSpec::default())
}

/// Runs a set of (approach, workload) campaigns in process as one
/// [`BatchRunner::run_many`] batch (one worker thread per core), preserving
/// input order in the output. The batch shares the scenario's market pool,
/// the training-curve memo and — for learned estimator specs — the trained
/// predictor set across all campaigns, and its reports are bit-identical
/// to running each campaign serially.
pub fn run_campaigns_with_estimator(
    tasks: Vec<(Approach, Workload)>,
    scenario: MarketScenario,
    seed: u64,
    estimator: EstimatorSpec,
) -> Vec<HptReport> {
    let requests: Vec<CampaignRequest> = tasks
        .into_iter()
        .enumerate()
        .map(|(i, (approach, workload))| CampaignRequest {
            id: i as u64,
            approach,
            workload,
            scenario,
            seed,
            estimator,
        })
        .collect();
    // Share the process-wide curve memo and predictor tier: figure
    // binaries interleave these batches with direct TrainingRun
    // evaluation (e.g. fig08's accuracy grid) and call this helper once
    // per batch, so both sides replay each other's curves and a learned
    // predictor trains once per process, not once per call.
    BatchRunner::new()
        .with_tiers(PoolCache::new(), SpineCache::new(), CurveCache::global(), PredictorCache::global())
        .run_many(&requests)
}

/// Maps `f` over `items` on scoped threads, one per core, and returns the
/// results in input order: the same vector as `items.into_iter().map(f)`.
/// Items are striped round-robin, thread `t` taking items `t`, `t + n`, ….
/// For fan-outs that are not [`CampaignRequest`]s (custom estimators,
/// pre-trained predictor sets, table rows); campaigns go through
/// [`BatchRunner::run_many`].
pub fn par_map<I: Send, R: Send>(items: Vec<I>, f: impl Fn(I) -> R + Sync) -> Vec<R> {
    let len = items.len();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()).min(len);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let mut stripes: Vec<Vec<I>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        stripes[i % threads].push(item);
    }
    let f = &f;
    let mut results: Vec<std::vec::IntoIter<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = stripes
            .into_iter()
            .map(|stripe| scope.spawn(move || stripe.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("par_map thread panicked").into_iter())
            .collect()
    });
    (0..len).map(|i| results[i % threads].next().expect("a stripe ran short")).collect()
}

/// Prints a CSV-ish header + rows helper used by the figure binaries.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    println!("{}", header.join(","));
    for row in rows {
        println!("{}", row.join(","));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let doubled = par_map((0..1000).collect(), |x: usize| x * 2);
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn matches_sequential_for_owned_vec() {
        let words = vec!["a".to_string(), "bb".to_string(), "ccc".to_string()];
        assert_eq!(par_map(words, |s| s.len()), vec![1, 2, 3]);
    }

    #[test]
    fn handles_empty_and_single() {
        assert!(par_map(Vec::<u64>::new(), |x| x).is_empty());
        assert_eq!(par_map(vec![7u64], |x| x + 1), vec![8]);
    }

    /// Uneven stripes: more items than threads, not a multiple of them.
    #[test]
    fn more_items_than_cores() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let items: Vec<u64> = (0..(4 * cores + 3) as u64).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        assert_eq!(par_map(items, |x| x * x + 1), expected);
    }

    #[test]
    fn fig7_set_matches_paper_order() {
        let set = Approach::fig7_set();
        assert!(matches!(set[0], Approach::SpotTune { theta } if theta == 0.7));
        assert!(matches!(set[3], Approach::SingleSpot(SingleSpotKind::Fastest)));
    }

    #[test]
    fn server_campaigns_preserve_order() {
        let base = Workload::benchmark(Algorithm::LoR);
        let small = Workload::custom(Algorithm::LoR, 30, base.hp_grid()[..2].to_vec());
        let tasks = vec![
            (Approach::SingleSpot(SingleSpotKind::Cheapest), small.clone()),
            (Approach::SingleSpot(SingleSpotKind::Fastest), small),
        ];
        let reports = run_campaigns(tasks, standard_scenario(1), 3);
        assert_eq!(reports.len(), 2);
        assert!(reports[0].approach.contains("Cheapest"));
        assert!(reports[1].approach.contains("Fastest"));
    }

    #[test]
    fn learned_estimator_campaigns_run_through_the_thin_client() {
        let base = Workload::benchmark(Algorithm::LoR);
        let small = Workload::custom(Algorithm::LoR, 15, base.hp_grid()[..2].to_vec());
        let tasks = vec![(Approach::SpotTune { theta: 0.7 }, small)];
        // A short scenario keeps the per-market training sets tiny.
        let scenario = MarketScenario::new(SimDur::from_hours(6), 5);
        let reports =
            run_campaigns_with_estimator(tasks, scenario, 3, EstimatorSpec::Logistic);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].predicted_finals.len(), 2);
    }
}
