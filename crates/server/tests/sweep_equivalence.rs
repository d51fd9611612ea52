//! The server's core guarantee (ISSUE 2 acceptance): a 1 000-campaign
//! sweep through the sharded worker pool produces **bit-identical**
//! [`HptReport`]s to running every campaign serially at the same seeds —
//! shared tiers and completion-order scheduling change wall-clock, never
//! results — and the cross-request curve-memo tier actually gets hits.

use spottune_core::prelude::*;
use spottune_market::{EstimatorSpec, MarketScenario};
use spottune_mlsim::prelude::*;
use spottune_server::{CampaignServer, ServerConfig};
use std::sync::mpsc::TryRecvError;

fn tiny(algorithm: Algorithm, steps: u64) -> Workload {
    let base = Workload::benchmark(algorithm);
    Workload::custom(algorithm, steps, base.hp_grid()[..2].to_vec())
}

/// workload × approach × market scenario × seed, 1 000 points total.
fn sweep_requests() -> Vec<CampaignRequest> {
    let workloads = [tiny(Algorithm::LoR, 15), tiny(Algorithm::Gbtr, 12)];
    let approaches = [
        Approach::SpotTune { theta: 0.5 },
        Approach::SpotTune { theta: 0.7 },
        Approach::SpotTune { theta: 1.0 },
        Approach::SingleSpot(SingleSpotKind::Cheapest),
        Approach::SingleSpot(SingleSpotKind::Fastest),
    ];
    let scenarios = [MarketScenario::from_days(1, 42), MarketScenario::from_days(1, 77)];
    let mut requests = Vec::new();
    for seed in 0..50u64 {
        for workload in &workloads {
            for &approach in &approaches {
                for &scenario in &scenarios {
                    requests.push(CampaignRequest {
                        id: requests.len() as u64,
                        approach,
                        workload: workload.clone(),
                        scenario,
                        seed,
                        estimator: EstimatorSpec::default(),
                    });
                }
            }
        }
    }
    requests
}

#[test]
fn sweep_1000_is_bit_identical_to_serial_with_memo_hits() {
    let requests = sweep_requests();
    assert_eq!(requests.len(), 1000);

    let server = CampaignServer::start(ServerConfig::default());
    let responses = server.run_sweep(requests.clone());
    let stats = server.stats();
    server.shutdown();

    assert_eq!(stats.completed, 1000);
    // Two scenarios serve a thousand campaigns.
    assert_eq!(stats.resident_pools, 2);
    assert_eq!(stats.resident_spines, 2);
    // A sweep resolves its pool and spine once per group session, not
    // once per campaign: one build per scenario, one lookup per session.
    assert_eq!(stats.pool_cache.misses, 2);
    assert_eq!(stats.spine_cache.misses, 2);
    assert!(stats.batched_groups > 0, "sweeps run through group sessions");
    assert_eq!(stats.pool_cache.lookups(), stats.batched_groups);
    assert!(
        stats.spine_queries > 0,
        "sweep campaigns must answer revocation lookups through the spine"
    );
    // The three θ values per (workload, seed) share ground-truth curves:
    // the cross-request memo tier must be doing real work.
    assert!(
        stats.curve_cache.hit_rate() > 0.0,
        "curve-memo hit rate must be positive, got {:?}",
        stats.curve_cache
    );

    // Sessions stage SoA cohorts; the sweep's transient
    // campaigns must actually cross the lane kernel.
    assert!(stats.kernel_invocations > 0, "sweep cohorts must invoke the lane kernel");
    assert!(stats.lane_jobs > 0 && stats.lane_slots >= stats.lane_jobs);

    // Serial reference: same campaigns, same seeds, fresh per-run state.
    // Build each distinct scenario's pool once; the comparison is about
    // campaign results, not pool construction.
    let mut pools = std::collections::HashMap::new();
    for (request, response) in requests.iter().zip(&responses) {
        assert_eq!(request.id, response.id, "run_sweep must restore request order");
        let pool = pools
            .entry(request.scenario)
            .or_insert_with(|| request.scenario.build());
        let serial = request.run_serial(pool, &CurveCache::global());
        assert_eq!(
            serial, response.report,
            "sharded and serial reports must be bit-identical (request {})",
            request.id
        );
    }
}

/// A server sweep and `BatchRunner::run_many` claim one `CohortPlan`, so
/// at every sweep size and worker count the server stages exactly
/// `run_many`'s cohorts over the same requests — same kernel passes, lane
/// slots and lane jobs — and agrees with it bit for bit. The sizes
/// straddle the cohort width (1, 5, 8, 9), stay below four cohorts per
/// worker (12, 44), and reach 1 000 campaigns on one scenario; an empty
/// sweep's stream disconnects at once and counts nothing.
#[test]
fn every_sweep_size_stages_the_same_cohorts_as_run_many() {
    let base = sweep_requests();
    let one = [MarketScenario::from_days(1, 42)];
    let three = [one[0], MarketScenario::from_days(1, 77), MarketScenario::from_days(1, 91)];
    for size in [0, 1, 5, 8, 9, 12, 44, 1000] {
        for scenarios in [&one[..], &three[..]] {
            // 1 000 campaigns run on one scenario only: three scenarios
            // add nothing there that the small sizes do not cover.
            if size == 1000 && scenarios.len() > 1 {
                continue;
            }
            let requests: Vec<CampaignRequest> = base[..size]
                .iter()
                .enumerate()
                .map(|(i, r)| CampaignRequest { scenario: scenarios[i % scenarios.len()], ..r.clone() })
                .collect();
            let runner = BatchRunner::new();
            let reports = runner.run_many(&requests);
            let want = runner.stats();
            assert_eq!(want.lane_jobs > 0, size > 0, "the sweep must cross the lane kernel");
            for workers in [1, 2, 3] {
                let label = format!("{size} requests, {} scenarios, {workers} workers", scenarios.len());
                let server = CampaignServer::start(ServerConfig::with_workers(workers));
                if size == 0 {
                    let stream = server.submit_sweep(Vec::new());
                    assert!(
                        matches!(stream.try_recv(), Err(TryRecvError::Disconnected)),
                        "{label}: an empty sweep's stream disconnects at once"
                    );
                }
                let responses = server.run_sweep(requests.clone());
                let stats = server.stats();
                server.shutdown();
                assert_eq!(stats.submitted, size as u64, "{label}");
                assert_eq!(stats.lane_slots, want.lane_slots, "{label}");
                assert_eq!(stats.lane_jobs, want.lane_jobs, "{label}");
                assert_eq!(stats.kernel_invocations, want.kernel_invocations, "{label}");
                assert_eq!(responses.len(), reports.len(), "{label}");
                for (response, report) in responses.iter().zip(&reports) {
                    assert_eq!(response.report, *report, "{label}: request {}", response.id);
                }
            }
        }
    }
}
