//! Property tests for [`CohortPlan`]: the cohort cut is a pure function of
//! the request slice — a partition of its indices into single-scenario,
//! ascending cohorts of at most `COHORT_WIDTH`, ragged only at a group's
//! end, groups in `MarketScenario` order — and `claim` hands every cohort
//! to exactly one claimer however many threads claim. Plan-only: the
//! claim closure records indices and runs no campaign.

use proptest::prelude::*;
use spottune_core::prelude::*;
use spottune_core::COHORT_WIDTH;
use spottune_market::{EstimatorSpec, MarketScenario};
use spottune_mlsim::prelude::*;
use std::sync::{Mutex, OnceLock};

/// One runner for every case, so each one-day scenario builds its pool
/// and spine once for the whole file.
fn runner() -> &'static BatchRunner {
    static RUNNER: OnceLock<BatchRunner> = OnceLock::new();
    RUNNER.get_or_init(BatchRunner::new)
}

/// Request `i` over one-day scenario `picks[i] % scenarios`.
fn sweep(picks: &[usize], scenarios: usize) -> Vec<CampaignRequest> {
    let base = Workload::benchmark(Algorithm::LoR);
    let workload = Workload::custom(Algorithm::LoR, 15, base.hp_grid()[..2].to_vec());
    picks
        .iter()
        .enumerate()
        .map(|(i, &pick)| CampaignRequest {
            id: i as u64,
            approach: Approach::SpotTune { theta: 0.7 },
            workload: workload.clone(),
            scenario: MarketScenario::from_days(1, 500 + (pick % scenarios) as u64),
            seed: i as u64,
            estimator: EstimatorSpec::default(),
        })
        .collect()
}

/// The cohorts `threads` concurrent claimers of a fresh plan ran, sorted.
fn claimed(requests: &[CampaignRequest], threads: usize) -> Vec<Vec<usize>> {
    let plan = CohortPlan::new(requests);
    let seen = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                plan.claim(runner(), |_, idxs| {
                    seen.lock().expect("no claimer panics").push(idxs.to_vec());
                });
            });
        }
    });
    let mut seen = seen.into_inner().expect("no claimer panics");
    seen.sort_unstable();
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cohorts_partition_the_slice_by_scenario(
        scenarios in 1usize..7,
        picks in prop::collection::vec(0usize..6, 0..200),
    ) {
        let requests = sweep(&picks, scenarios);
        let plan = CohortPlan::new(&requests);
        let cohorts: Vec<(MarketScenario, &[usize])> = plan.cohorts().collect();
        prop_assert_eq!(plan.len(), cohorts.len());
        prop_assert_eq!(plan.is_empty(), requests.is_empty());

        let mut all: Vec<usize> = cohorts.iter().flat_map(|(_, c)| c.iter().copied()).collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..requests.len()).collect::<Vec<_>>(), "every index exactly once");

        for (k, &(scenario, cohort)) in cohorts.iter().enumerate() {
            prop_assert!(!cohort.is_empty() && cohort.len() <= COHORT_WIDTH, "cohort {k}");
            prop_assert!(cohort.iter().all(|&i| requests[i].scenario == scenario), "cohort {k}");
            prop_assert!(cohort.windows(2).all(|w| w[0] < w[1]), "cohort {k} not ascending");
            if let Some(&(next, next_cohort)) = cohorts.get(k + 1) {
                if next == scenario {
                    // Within a group only the last cohort may be ragged,
                    // and submission order runs on across the cut.
                    prop_assert_eq!(cohort.len(), COHORT_WIDTH, "cohort {}", k);
                    prop_assert!(cohort[cohort.len() - 1] < next_cohort[0], "cohort {k}");
                } else {
                    prop_assert!(scenario < next, "groups out of MarketScenario order");
                }
            }
        }

        prop_assert!(CohortPlan::new(&requests).cohorts().eq(plan.cohorts()), "not pure");
    }

    #[test]
    fn every_cohort_is_claimed_exactly_once(
        scenarios in 1usize..7,
        picks in prop::collection::vec(0usize..6, 0..200),
    ) {
        let requests = sweep(&picks, scenarios);
        let mut want: Vec<Vec<usize>> =
            CohortPlan::new(&requests).cohorts().map(|(_, c)| c.to_vec()).collect();
        want.sort_unstable();
        for threads in [1, 4] {
            prop_assert_eq!(&claimed(&requests, threads), &want, "{} threads", threads);
        }
    }
}
