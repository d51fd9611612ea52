//! The paper's baselines: Single-Spot Tune on a fixed instance type, plus
//! an on-demand variant.
//!
//! "The baseline we compare SpotTune with is running HPT on a single spot
//! instance. We assume the maximum price of each used single-spot instance
//! is much higher than its market price such that it would not be revoked"
//! (§IV.A.4). One VM per configuration, all of the same type — Cheapest
//! (`r4.large`) or Fastest (`m4.4xlarge`) — trained to the full
//! `max_trial_steps` (θ = 1, no early shutdown), billed at the market price
//! with no refunds. [`run_on_demand`] is the same execution model at the
//! instance type's fixed on-demand price — the reliable cost ceiling.
//!
//! These closed forms are retained as the *reference implementations* of
//! the policy layer's dedicated drive: the [`crate::policy::SingleSpot`]
//! and [`crate::policy::OnDemand`] policies run through
//! [`crate::engine::Engine`] and must reproduce these reports bit-for-bit
//! (`tests/policy_equivalence.rs`).

use crate::report::HptReport;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spottune_cloud::CloudProvider;
use spottune_market::{instance, MarketPool, SimDur, SimTime};
use spottune_mlsim::runner::ground_truth_finals_with_cache;
use spottune_mlsim::{CurveCache, PerfModel, TrainingRun, Workload};

/// Which fixed instance type the baseline uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SingleSpotKind {
    /// Lowest on-demand price in the catalog: `r4.large`.
    Cheapest,
    /// Most vCPUs in the catalog: `m4.4xlarge`.
    Fastest,
}

impl SingleSpotKind {
    /// The concrete catalog instance name.
    pub fn instance_name(self) -> &'static str {
        match self {
            SingleSpotKind::Cheapest => instance::CHEAPEST,
            SingleSpotKind::Fastest => instance::FASTEST,
        }
    }

    /// Approach label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            SingleSpotKind::Cheapest => "Single-Spot Tune(Cheapest)",
            SingleSpotKind::Fastest => "Single-Spot Tune(Fastest)",
        }
    }

    /// Approach label of the on-demand variant.
    pub fn on_demand_label(self) -> &'static str {
        match self {
            SingleSpotKind::Cheapest => "On-Demand Tune(Cheapest)",
            SingleSpotKind::Fastest => "On-Demand Tune(Fastest)",
        }
    }
}

/// Runs the Single-Spot baseline for a workload.
///
/// # Panics
///
/// Panics if the pool lacks the baseline's instance type.
pub fn run_single_spot(
    kind: SingleSpotKind,
    workload: &Workload,
    pool: &MarketPool,
    start: SimTime,
    seed: u64,
) -> HptReport {
    run_single_spot_with_cache(kind, workload, pool, start, seed, &CurveCache::global())
}

/// [`run_single_spot`] against an explicit curve-memo tier (the server's
/// shared cross-request tier; the plain entry point uses the process-wide
/// default).
///
/// # Panics
///
/// Panics if the pool lacks the baseline's instance type.
pub fn run_single_spot_with_cache(
    kind: SingleSpotKind,
    workload: &Workload,
    pool: &MarketPool,
    start: SimTime,
    seed: u64,
    curve_cache: &CurveCache,
) -> HptReport {
    let inst_name = kind.instance_name();
    let market = pool
        .market(inst_name)
        .unwrap_or_else(|| panic!("pool lacks baseline instance {inst_name}"));
    let inst = market.instance().clone();
    let perf = PerfModel::new();
    let mut provider = CloudProvider::new(pool.clone());
    let mut rng = StdRng::seed_from_u64(seed ^ crate::engine::DEDICATED_SALT);

    // The "never revoked" assumption: offer far above the trace cap.
    let never = inst.on_demand_price() * 100.0;
    let warmup = SimDur::from_secs(workload.restore_warmup_secs());

    let mut end_latest = start;
    let mut charged_steps = 0u64;
    let mut train_time = SimDur::ZERO;
    let mut finals = Vec::with_capacity(workload.hp_grid().len());
    for hp in workload.hp_grid() {
        let vm = provider
            .request_spot(start, inst_name, never)
            .expect("baseline request cannot be rejected");
        let launched = provider.vm(vm).expect("vm exists").launched_at();
        // Run the configuration to completion, sampling per-step times.
        let max = workload.max_trial_steps();
        let mut busy = 0.0f64;
        for _ in 0..max {
            busy += perf.sample_spe(&inst, workload, hp, &mut rng);
        }
        finals.push(TrainingRun::with_cache(workload, hp, seed, curve_cache).final_metric());
        charged_steps += max;
        let busy_dur = SimDur::from_secs(busy.ceil() as u64);
        train_time += busy_dur;
        let end = launched + warmup + busy_dur;
        provider.terminate(end, vm);
        end_latest = end_latest.max(end);
    }

    let ledger = provider.ledger();
    let true_finals = ground_truth_finals_with_cache(workload, seed, curve_cache);
    let mut ranking: Vec<usize> = (0..finals.len()).collect();
    ranking.sort_by(|&a, &b| finals[a].partial_cmp(&finals[b]).expect("finite"));
    HptReport {
        approach: kind.label().to_string(),
        workload: workload.algorithm().name().to_string(),
        theta: 1.0,
        cost: ledger.total_charged(),
        refunded: ledger.total_refunded(),
        gross: ledger.total_gross(),
        jct: end_latest - start,
        cost_with_continuation: ledger.total_charged(),
        jct_with_continuation: end_latest - start,
        train_time,
        overhead_time: SimDur::from_secs(
            workload.restore_warmup_secs() * workload.hp_grid().len() as u64,
        ),
        free_steps: 0,
        charged_steps,
        predicted_finals: finals,
        true_finals,
        selected: ranking.into_iter().take(3).collect(),
        deployments: workload.hp_grid().len() as u64,
        revocations: 0,
        lost_steps: 0,
        migrations: 0,
    }
}

/// Runs the On-Demand Tune baseline: like [`run_single_spot`] but on
/// on-demand capacity — billed at the instance type's fixed on-demand
/// price, never revoked, never refunded.
///
/// # Panics
///
/// Panics if the pool lacks the baseline's instance type.
pub fn run_on_demand(
    kind: SingleSpotKind,
    workload: &Workload,
    pool: &MarketPool,
    start: SimTime,
    seed: u64,
) -> HptReport {
    run_on_demand_with_cache(kind, workload, pool, start, seed, &CurveCache::global())
}

/// [`run_on_demand`] against an explicit curve-memo tier.
///
/// # Panics
///
/// Panics if the pool lacks the baseline's instance type.
pub fn run_on_demand_with_cache(
    kind: SingleSpotKind,
    workload: &Workload,
    pool: &MarketPool,
    start: SimTime,
    seed: u64,
    curve_cache: &CurveCache,
) -> HptReport {
    let inst_name = kind.instance_name();
    let market = pool
        .market(inst_name)
        .unwrap_or_else(|| panic!("pool lacks baseline instance {inst_name}"));
    let inst = market.instance().clone();
    let perf = PerfModel::new();
    let mut provider = CloudProvider::new(pool.clone());
    let mut rng = StdRng::seed_from_u64(seed ^ crate::engine::DEDICATED_SALT);
    let warmup = SimDur::from_secs(workload.restore_warmup_secs());

    let mut end_latest = start;
    let mut charged_steps = 0u64;
    let mut train_time = SimDur::ZERO;
    let mut finals = Vec::with_capacity(workload.hp_grid().len());
    for hp in workload.hp_grid() {
        let vm = provider
            .request_on_demand(start, inst_name)
            .expect("baseline instance is in the catalog");
        let launched = provider.vm(vm).expect("vm exists").launched_at();
        let max = workload.max_trial_steps();
        let mut busy = 0.0f64;
        for _ in 0..max {
            busy += perf.sample_spe(&inst, workload, hp, &mut rng);
        }
        finals.push(TrainingRun::with_cache(workload, hp, seed, curve_cache).final_metric());
        charged_steps += max;
        let busy_dur = SimDur::from_secs(busy.ceil() as u64);
        train_time += busy_dur;
        let end = launched + warmup + busy_dur;
        provider.terminate(end, vm);
        end_latest = end_latest.max(end);
    }

    let ledger = provider.ledger();
    let true_finals = ground_truth_finals_with_cache(workload, seed, curve_cache);
    let mut ranking: Vec<usize> = (0..finals.len()).collect();
    ranking.sort_by(|&a, &b| finals[a].partial_cmp(&finals[b]).expect("finite"));
    HptReport {
        approach: kind.on_demand_label().to_string(),
        workload: workload.algorithm().name().to_string(),
        theta: 1.0,
        cost: ledger.total_charged(),
        refunded: ledger.total_refunded(),
        gross: ledger.total_gross(),
        jct: end_latest - start,
        cost_with_continuation: ledger.total_charged(),
        jct_with_continuation: end_latest - start,
        train_time,
        overhead_time: SimDur::from_secs(
            workload.restore_warmup_secs() * workload.hp_grid().len() as u64,
        ),
        free_steps: 0,
        charged_steps,
        predicted_finals: finals,
        true_finals,
        selected: ranking.into_iter().take(3).collect(),
        deployments: workload.hp_grid().len() as u64,
        revocations: 0,
        lost_steps: 0,
        migrations: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spottune_mlsim::Algorithm;

    fn setup() -> (Workload, MarketPool) {
        let base = Workload::benchmark(Algorithm::LoR);
        let w = Workload::custom(Algorithm::LoR, 40, base.hp_grid()[..4].to_vec());
        (w, MarketPool::standard(SimDur::from_days(10), 42))
    }

    #[test]
    fn baseline_never_gets_refunds() {
        let (w, pool) = setup();
        let r = run_single_spot(SingleSpotKind::Cheapest, &w, &pool, SimTime::from_hours(2), 1);
        assert_eq!(r.refunded, 0.0);
        assert_eq!(r.free_steps, 0);
        assert_eq!(r.charged_steps, 4 * 40);
        assert!(r.cost > 0.0);
        // θ=1 semantics: predictions are the actual finals.
        assert!(r.top1_hit());
        assert!(r.top3_hit());
    }

    #[test]
    fn fastest_beats_cheapest_on_jct_but_not_cost() {
        let (w, pool) = setup();
        let cheap = run_single_spot(SingleSpotKind::Cheapest, &w, &pool, SimTime::from_hours(2), 1);
        let fast = run_single_spot(SingleSpotKind::Fastest, &w, &pool, SimTime::from_hours(2), 1);
        assert!(fast.jct < cheap.jct, "fast {} cheap {}", fast.jct, cheap.jct);
        assert!(fast.cost > cheap.cost, "fast {} cheap {}", fast.cost, cheap.cost);
    }

    #[test]
    fn labels_and_instances() {
        assert_eq!(SingleSpotKind::Cheapest.instance_name(), "r4.large");
        assert_eq!(SingleSpotKind::Fastest.instance_name(), "m4.4xlarge");
        assert!(SingleSpotKind::Fastest.label().contains("Fastest"));
        assert!(SingleSpotKind::Cheapest.on_demand_label().contains("On-Demand"));
    }

    #[test]
    fn on_demand_matches_single_spot_wall_clock_at_fixed_price() {
        let (w, pool) = setup();
        let start = SimTime::from_hours(2);
        let spot = run_single_spot(SingleSpotKind::Cheapest, &w, &pool, start, 1);
        let od = run_on_demand(SingleSpotKind::Cheapest, &w, &pool, start, 1);
        // Same instance, same step-time stream (same salt): identical JCT.
        assert_eq!(od.jct, spot.jct);
        assert_eq!(od.train_time, spot.train_time);
        // But billed at the fixed on-demand rate with no refund exposure.
        assert!(od.cost > 0.0);
        assert_eq!(od.refunded, 0.0);
        assert_eq!(od.free_steps, 0);
        assert_eq!(od.revocations, 0);
        assert!(od.approach.contains("On-Demand"));
        // θ=1 semantics carry over: predictions are the actual finals.
        assert_eq!(od.predicted_finals, spot.predicted_finals);
        assert!(od.top1_hit());
    }
}
