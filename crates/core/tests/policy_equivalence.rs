//! Policy-layer lock-in (ISSUE 4 acceptance): re-expressing the paper's
//! approaches as [`ProvisionPolicy`] impls must not move a single bit.
//!
//! * `SingleSpot` and `OnDemand` run through the engine's dedicated drive
//!   and are compared report-for-report against the closed-form reference
//!   implementations retained in `spottune_core::baseline`.
//! * `SpotTuneTheta` runs through the transient drive; the tick-loop
//!   reference (`DriveMode::Tick`, the seed implementation's literal
//!   10-second loop) must produce bit-identical reports *and* trace-event
//!   sequences, and the request-level trunk
//!   (`CampaignRequest::run_with_estimator`) must agree with the
//!   engine+policy composition it wraps.
//!
//! Together the cases below cover 130 campaigns (≥ 100 required).

use rand::rngs::StdRng;
use spottune_core::prelude::*;
use spottune_market::prelude::*;
use spottune_mlsim::prelude::*;

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
                    let reference = run_single_spot(kind, workload, pool, start, seed);
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
                let reference = run_on_demand(kind, workload, &pool, start, seed);
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

/// 10 campaigns: the SpotTuneTheta policy through both drives, plus the
/// request-level trunk (`mcnt` 3, as `Approach` configures it), all
/// bit-identical.
#[test]
fn spottune_policy_matches_tick_reference_and_facade() {
    let scenario = MarketScenario::from_days(10, 42);
    let pool = scenario.build();
    let oracle = OracleEstimator::new(pool.clone(), 0.9);
    let w = tiny(Algorithm::LoR, 30);
    let mut campaigns = 0;
    for theta in [0.5, 1.0] {
        for seed in 0..5u64 {
            let run_engine = |mode: DriveMode| {
                let cfg = SpotTuneConfig::new(theta, 3).with_seed(seed).with_drive_mode(mode);
                let mut policy = SpotTuneTheta::new(&oracle, cfg.delta_range, theta);
                Engine::new(cfg, w.clone(), pool.clone()).run_traced(&mut policy)
            };
            let (tick_report, tick_events) = run_engine(DriveMode::Tick);
            let (event_report, event_events) = run_engine(DriveMode::Event);
            assert_eq!(
                tick_events, event_events,
                "θ={theta} seed={seed}: trace events diverged across drives"
            );
            assert_eq!(
                tick_report, event_report,
                "θ={theta} seed={seed}: reports diverged across drives"
            );
            // The request trunk is exactly engine + SpotTuneTheta.
            let facade = request(Approach::SpotTune { theta }, &w, scenario, seed)
                .run_with_estimator(&pool, &CurveCache::global(), &oracle);
            assert_eq!(facade, event_report, "θ={theta} seed={seed}: request trunk diverged");
            campaigns += 1;
        }
    }
    assert_eq!(campaigns, 10);
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
