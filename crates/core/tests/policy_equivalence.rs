//! Policy-layer lock-in: re-expressing the paper's approaches as
//! [`ProvisionPolicy`] impls must not move a single bit.
//!
//! * `SingleSpot` and `OnDemand` run through the engine's dedicated drive
//!   and are compared report-for-report against [`closed_form`], the
//!   baselines written out directly.
//! * A policy that leaves the grace-window hooks at their defaults
//!   reproduces `SpotTuneTheta` bit for bit.
//!
//! `SpotTuneTheta` against the engine stepped every tick, and against the
//! request trunk, is checked in `spottune-core`'s `oracle` unit tests.
//! Together the cases below cover 120 campaigns (≥ 100 required).

use rand::rngs::StdRng;
use rand::SeedableRng;
use spottune_cloud::CloudProvider;
use spottune_core::prelude::*;
use spottune_market::prelude::*;
use spottune_mlsim::prelude::*;
use spottune_mlsim::runner::ground_truth_finals_with_cache;

/// Seed salt of the engine's dedicated drive (its step-time stream).
const DEDICATED_SALT: u64 = 0xba5e;

/// The Single-Spot (or, with `on_demand`, the On-Demand) baseline written
/// out directly: one VM of `kind` per configuration, requested at `start`,
/// bid far above the trace cap (or billed at the fixed on-demand price) so
/// it is never revoked, trained to the full `max_trial_steps` with θ = 1
/// semantics, the top three selected.
///
/// # Panics
///
/// Panics if the pool lacks the baseline's instance type.
fn closed_form(
    kind: SingleSpotKind,
    on_demand: bool,
    workload: &Workload,
    pool: &MarketPool,
    start: SimTime,
    seed: u64,
) -> HptReport {
    let inst_name = kind.instance_name();
    let market = pool
        .market(inst_name)
        .unwrap_or_else(|| panic!("pool lacks baseline instance {inst_name}"));
    let inst = market.instance().clone();
    let perf = PerfModel::new();
    let curve_cache = CurveCache::global();
    let mut provider = CloudProvider::new(pool.clone());
    let mut rng = StdRng::seed_from_u64(seed ^ DEDICATED_SALT);
    // The "never revoked" assumption: offer far above the trace cap.
    let never = inst.on_demand_price() * 100.0;
    let warmup = SimDur::from_secs(workload.restore_warmup_secs());

    let mut end_latest = start;
    let mut charged_steps = 0u64;
    let mut train_time = SimDur::ZERO;
    let mut finals = Vec::with_capacity(workload.hp_grid().len());
    for hp in workload.hp_grid() {
        let vm = if on_demand {
            provider.request_on_demand(start, inst_name).expect("baseline instance in catalog")
        } else {
            provider.request_spot(start, inst_name, never).expect("baseline request accepted")
        };
        let launched = provider.vm(vm).expect("vm exists").launched_at();
        // Run the configuration to completion, sampling per-step times.
        let max = workload.max_trial_steps();
        let mut busy = 0.0f64;
        for _ in 0..max {
            busy += perf.sample_spe(&inst, workload, hp, &mut rng);
        }
        finals.push(TrainingRun::with_cache(workload, hp, seed, &curve_cache).final_metric());
        charged_steps += max;
        let busy_dur = SimDur::from_secs(busy.ceil() as u64);
        train_time += busy_dur;
        let end = launched + warmup + busy_dur;
        provider.terminate(end, vm);
        end_latest = end_latest.max(end);
    }

    let ledger = provider.ledger();
    let true_finals = ground_truth_finals_with_cache(workload, seed, &curve_cache);
    let mut ranking: Vec<usize> = (0..finals.len()).collect();
    ranking.sort_by(|&a, &b| finals[a].partial_cmp(&finals[b]).expect("finite"));
    HptReport {
        approach: if on_demand { kind.on_demand_label() } else { kind.label() }.to_string(),
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

fn tiny(algorithm: Algorithm, steps: u64) -> Workload {
    let base = Workload::benchmark(algorithm);
    Workload::custom(algorithm, steps, base.hp_grid()[..2].to_vec())
}

fn request(
    approach: Approach,
    workload: &Workload,
    scenario: MarketScenario,
    seed: u64,
) -> CampaignRequest {
    let estimator = EstimatorSpec::default();
    CampaignRequest { id: seed, approach, workload: workload.clone(), scenario, seed, estimator }
}

/// 80 campaigns: 2 workloads × 2 kinds × 10 seeds × 2 market scenarios.
#[test]
fn single_spot_policy_is_bit_identical_to_closed_form() {
    let workloads = [tiny(Algorithm::LoR, 12), tiny(Algorithm::Gbtr, 10)];
    let scenarios = [MarketScenario::from_days(1, 42), MarketScenario::from_days(1, 77)];
    let pools = scenarios.map(|scenario| (scenario, scenario.build()));
    let start = SpotTuneConfig::default().start;
    let mut campaigns = 0;
    for workload in &workloads {
        for kind in [SingleSpotKind::Cheapest, SingleSpotKind::Fastest] {
            for seed in 0..10u64 {
                for (scenario, pool) in &pools {
                    let via_policy = request(Approach::SingleSpot(kind), workload, *scenario, seed)
                        .run_serial(pool, &CurveCache::global());
                    let reference = closed_form(kind, false, workload, pool, start, seed);
                    assert_eq!(
                        via_policy, reference,
                        "SingleSpot({kind:?}) seed={seed} diverged from the closed form"
                    );
                    campaigns += 1;
                }
            }
        }
    }
    assert_eq!(campaigns, 80);
}

/// 40 campaigns: 2 workloads × 2 kinds × 10 seeds.
#[test]
fn on_demand_policy_is_bit_identical_to_closed_form() {
    let workloads = [tiny(Algorithm::LoR, 12), tiny(Algorithm::Gbtr, 10)];
    let scenario = MarketScenario::from_days(1, 42);
    let pool = scenario.build();
    let start = SpotTuneConfig::default().start;
    let mut campaigns = 0;
    for workload in &workloads {
        for kind in [SingleSpotKind::Cheapest, SingleSpotKind::Fastest] {
            for seed in 0..10u64 {
                let via_policy = request(Approach::OnDemand(kind), workload, scenario, seed)
                    .run_serial(&pool, &CurveCache::global());
                let reference = closed_form(kind, true, workload, &pool, start, seed);
                assert_eq!(
                    via_policy, reference,
                    "OnDemand({kind:?}) seed={seed} diverged from the closed form"
                );
                // On-demand economics: refund-free by construction.
                assert_eq!(via_policy.refunded, 0.0);
                assert_eq!(via_policy.revocations, 0);
                campaigns += 1;
            }
        }
    }
    assert_eq!(campaigns, 40);
}

/// The two related-work policies complete campaigns through the same
/// engine and report coherent accounting (their *behaviour* is new, so
/// there is no legacy path to lock against — sanity only).
#[test]
fn new_policies_run_through_the_same_engine() {
    let scenario = MarketScenario::from_days(1, 42);
    let pool = scenario.build();
    let w = tiny(Algorithm::LoR, 15);
    for approach in [
        Approach::Hybrid { theta: 0.7, max_revocations: 1 },
        Approach::BidAware { theta: 0.7 },
        Approach::MigrationAware { theta: 0.7 },
    ] {
        let report = request(approach, &w, scenario, 3).run_serial(&pool, &CurveCache::global());
        assert_eq!(report.predicted_finals.len(), 2);
        assert!(report.jct.as_secs() > 0);
        assert!((report.gross - report.cost - report.refunded).abs() < 1e-9);
        assert!(report.deployments >= 2);
    }
}

/// A policy that overrides *nothing* beyond what SpotTuneTheta already
/// overrode: the grace-window hooks (`plan_checkpoint`,
/// `assign_migrations`) stay at their trait defaults. The engine's
/// grace-window machinery must then reproduce the historical
/// checkpoint-on-notice path bit for bit.
#[derive(Debug)]
struct DefaultHooks<'a>(SpotTuneTheta<'a>);

impl ProvisionPolicy for DefaultHooks<'_> {
    fn name(&self) -> String {
        self.0.name()
    }
    fn mode(&self) -> PolicyMode {
        self.0.mode()
    }
    fn choose_instance(&mut self, ctx: &DeployCtx<'_>, rng: &mut StdRng) -> Placement {
        self.0.choose_instance(ctx, rng)
    }
    // plan_checkpoint / assign_migrations / should_checkpoint /
    // on_revocation / on_progress: trait defaults, on purpose.
}

/// 12 campaigns: the defaulted grace-window hooks must not move a bit —
/// same reports, same trace events, and no rolled-back or migrated work.
#[test]
fn default_grace_hooks_are_bit_identical_to_spottune() {
    let pool = MarketPool::standard(SimDur::from_days(10), 42);
    let oracle = OracleEstimator::new(pool.clone(), 0.9);
    let w = tiny(Algorithm::LoR, 30);
    for theta in [0.6, 1.0] {
        for seed in 0..6u64 {
            let cfg = SpotTuneConfig::new(theta, 2).with_seed(seed);
            let mut reference = SpotTuneTheta::new(&oracle, cfg.delta_range, theta);
            let (ref_report, ref_events) =
                Engine::new(cfg.clone(), w.clone(), pool.clone()).run_traced(&mut reference);
            let mut defaulted =
                DefaultHooks(SpotTuneTheta::new(&oracle, cfg.delta_range, theta));
            let (def_report, def_events) =
                Engine::new(cfg, w.clone(), pool.clone()).run_traced(&mut defaulted);
            assert_eq!(ref_events, def_events, "θ={theta} seed={seed}: events diverged");
            assert_eq!(ref_report, def_report, "θ={theta} seed={seed}: reports diverged");
            // Fault-free defaults never roll back or batch-migrate.
            assert_eq!(ref_report.lost_steps, 0, "θ={theta} seed={seed}");
            assert_eq!(ref_report.migrations, 0, "θ={theta} seed={seed}");
        }
    }
}
