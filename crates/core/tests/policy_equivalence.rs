//! Policy-layer lock-in: the trait's defaulted hooks must not move a bit.
//!
//! * A policy that leaves the grace-window hooks at their defaults
//!   reproduces `SpotTuneTheta` bit for bit.
//! * The related-work policies complete campaigns on the same engine with
//!   coherent accounting.
//!
//! `SpotTuneTheta` against the engine stepped every tick, and against the
//! request trunk, is checked in `spottune-core`'s `oracle` unit tests; so
//! are the baselines, which run on the same drive. Together the cases
//! below cover 15 campaigns.

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
