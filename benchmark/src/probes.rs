//! Layer probes: each layer's miss cost and unit cost, measured from
//! outside by timing one public call on fresh, seeded inputs. They do
//! not depend on the workload (only on `--seed`), so every traced run
//! reports them and any two traced runs of one commit can be compared.

use crate::metrics::MetricSet;
use crate::mix;
use crate::stats::median;
use crate::sys;
use spottune_core::wire;
use spottune_core::{CampaignRequest, CampaignResponse, HptReport};
use spottune_earlycurve::{kernel, EarlyCurve, EarlyCurveConfig};
use spottune_market::{PoolCache, SpineCache};
use spottune_mlsim::runner::ground_truth_finals_with_cache;
use spottune_mlsim::{Algorithm, CurveCache, Workload};
use spottune_revpred::{PredictorCache, PredictorKind};
use spottune_server::{CampaignServer, ServerConfig, WorkOutcome};
use std::hint::black_box;
use std::time::Instant;

const FAMILY_BUILD: u64 = 20;
const FAMILY_MEMORY: u64 = 21;
const FAMILY_TRAIN: u64 = 22;

fn ms_of<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

/// Per-call microseconds of `f`, median of `rounds` rounds of `iters`.
fn us_per_call(rounds: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let per_round: Vec<f64> = (0..rounds)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_secs_f64() * 1e6 / iters as f64
        })
        .collect();
    median(&per_round)
}

/// Resident memory the three scenario-keyed tiers hold per 2-day
/// scenario. Runs first in the process, before the allocator has freed
/// memory it could hand back without growing the resident set.
pub fn tier_memory(seed: u64, metrics: &mut MetricSet) {
    const SCENARIOS: u64 = 32;
    let (pools, spines, predictors) = (PoolCache::new(), SpineCache::new(), PredictorCache::new());
    let before = sys::rss_mb(sys::self_pid());
    for i in 0..SCENARIOS {
        let scenario = mix::scenario(seed, 2, FAMILY_MEMORY, i);
        let pool = pools.get(scenario);
        spines.get(scenario, &pool);
        predictors.get(PredictorKind::Logistic, scenario, &pool);
    }
    let after = sys::rss_mb(sys::self_pid());
    metrics.set(
        "market.tier_mb_per_scenario",
        (after - before) / SCENARIOS as f64,
        SCENARIOS,
    );
}

/// Tier miss costs: pool and spine builds at both trace lengths,
/// predictor training, one cold curve set.
pub fn miss_costs(seed: u64, metrics: &mut MetricSet) {
    const REPS: u64 = 3;
    for (days, pool_metric, spine_metric) in [
        (2, "market.pool_build_ms_2d", "market.spine_build_ms_2d"),
        (12, "market.pool_build_ms_12d", "market.spine_build_ms_12d"),
    ] {
        let (mut pool_ms, mut spine_ms) = (Vec::new(), Vec::new());
        for rep in 0..REPS {
            let scenario = mix::scenario(seed, days, FAMILY_BUILD, rep);
            let (pool, ms) = ms_of(|| PoolCache::new().get(scenario));
            pool_ms.push(ms);
            spine_ms.push(ms_of(|| SpineCache::new().get(scenario, &pool)).1);
        }
        metrics.set(pool_metric, median(&pool_ms), REPS);
        metrics.set(spine_metric, median(&spine_ms), REPS);
    }
    let mut logistic_ms = Vec::new();
    for rep in 0..REPS {
        let scenario = mix::scenario(seed, 2, FAMILY_TRAIN, rep);
        let pool = PoolCache::new().get(scenario);
        let cache = PredictorCache::new();
        logistic_ms.push(ms_of(|| cache.get(PredictorKind::Logistic, scenario, &pool)).1);
    }
    metrics.set("revpred.train_ms.logistic", median(&logistic_ms), REPS);
    // One LSTM set costs seconds; a single sample is what the budget allows.
    let scenario = mix::scenario(seed, 2, FAMILY_TRAIN, REPS);
    let pool = PoolCache::new().get(scenario);
    let cache = PredictorCache::new();
    let (_, revpred_ms) = ms_of(|| cache.get(PredictorKind::RevPred, scenario, &pool));
    metrics.set("revpred.train_ms.revpred", revpred_ms, 1);
    // First touch of a workload × seed: sixteen 200-step LoR curves.
    let workload = Workload::benchmark(Algorithm::LoR);
    let cold_ms: Vec<f64> = (0..REPS)
        .map(|rep| {
            let master = mix::scenario(seed, 1, FAMILY_TRAIN, 100 + rep).seed;
            ms_of(|| ground_truth_finals_with_cache(&workload, master, &CurveCache::new())).1
        })
        .collect();
    metrics.set("mlsim.curve_cold_ms", median(&cold_ms), REPS);
}

/// Unit costs of the EarlyCurve fit and the lane kernel.
pub fn earlycurve_costs(metrics: &mut MetricSet) {
    // A two-stage decaying curve, 60 observations: what a mid-campaign
    // fit sees.
    let mut curve = EarlyCurve::new(EarlyCurveConfig::default());
    for k in 1..=60u64 {
        let x = k as f64;
        let stage = if k <= 30 { 1.0 } else { 0.6 };
        curve.push(k, 0.2 + stage / (0.05 * x * x + 0.3 * x + 1.0));
    }
    let (rounds, iters) = (5, 400);
    let fit_us = us_per_call(rounds, iters, || {
        black_box(black_box(&curve).fit());
    });
    metrics.set("earlycurve.fit_us", fit_us, (rounds * iters) as u64);

    const SLOTS: usize = 4_096;
    let lane = |scale: f64| -> Vec<f64> {
        (0..SLOTS)
            .map(|i| scale * (1.0 + (i % 97) as f64 / 97.0))
            .collect()
    };
    let (a0, a1, a2, a3, rel) = (lane(0.01), lane(0.2), lane(1.0), lane(0.3), lane(40.0));
    let mut out = vec![0.0; SLOTS];
    let (rounds, iters) = (5, 500);
    let pass_us = us_per_call(rounds, iters, || {
        kernel::predict_lanes(
            black_box(&a0),
            black_box(&a1),
            black_box(&a2),
            black_box(&a3),
            black_box(&rel),
            &mut out,
        );
        black_box(&out);
    });
    metrics.set(
        "earlycurve.lane_kernel_ns_per_slot",
        pass_us * 1e3 / SLOTS as f64,
        (rounds * iters * SLOTS) as u64,
    );
}

/// Wire codec unit costs and frame sizes for one of the workload's own
/// requests and its report.
pub fn wire_codec(request: &CampaignRequest, report: &HptReport, metrics: &mut MetricSet) {
    let response = CampaignResponse {
        id: request.id,
        report: report.clone(),
    };
    let request_line = wire::encode_request_frame(request, None);
    let response_line = wire::encode_response(&response);
    let (rounds, iters) = (5, 400);
    let n = (rounds * iters) as u64;
    let us = us_per_call(rounds, iters, || {
        black_box(wire::encode_request_frame(black_box(request), None));
    });
    metrics.set("core.wire_encode_request_us", us, n);
    let us = us_per_call(rounds, iters, || {
        black_box(wire::decode_client_frame(black_box(&request_line)).is_ok());
    });
    metrics.set("core.wire_decode_request_us", us, n);
    let us = us_per_call(rounds, iters, || {
        black_box(wire::encode_response(black_box(&response)));
    });
    metrics.set("core.wire_encode_response_us", us, n);
    let us = us_per_call(rounds, iters, || {
        black_box(wire::decode_server_frame(black_box(&response_line)).is_ok());
    });
    metrics.set("core.wire_decode_response_us", us, n);
    metrics.set(
        "core.wire_request_bytes",
        request_line.len() as f64 + 1.0,
        1,
    );
    metrics.set(
        "core.wire_response_bytes",
        response_line.len() as f64 + 1.0,
        1,
    );
}

/// One in-process submit → outcome round trip, in milliseconds; `None`
/// when the server refused or lost the request.
pub fn inproc_submit_ms(server: &CampaignServer, request: &CampaignRequest) -> Option<f64> {
    let t0 = Instant::now();
    let lane = server.try_submit(request.clone(), None).ok()?;
    match lane.recv() {
        Ok(WorkOutcome::Done(_)) => Some(t0.elapsed().as_secs_f64() * 1e3),
        _ => None,
    }
}

/// The server layer without a socket: `CampaignServer::run_sweep` over
/// the batch (warm), and single `try_submit` → outcome round trips.
pub fn inproc_server(batch: &[CampaignRequest], metrics: &mut MetricSet) {
    let server = CampaignServer::start(ServerConfig::with_workers(sys::load_width()));
    black_box(server.run_sweep(batch.to_vec()));
    let (responses, ms) = ms_of(|| server.run_sweep(batch.to_vec()));
    metrics.set(
        "server.inproc_sweep_per_s",
        responses.len() as f64 / (ms / 1e3),
        responses.len() as u64,
    );
    let singles: Vec<f64> = batch
        .iter()
        .take(64)
        .filter_map(|r| inproc_submit_ms(&server, r))
        .collect();
    metrics.set(
        "server.inproc_submit_ms",
        median(&singles),
        singles.len() as u64,
    );
    server.shutdown();
}
