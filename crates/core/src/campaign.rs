//! One campaign as a first-class, schedulable unit of work.
//!
//! A *campaign* is a single HPT evaluation point: an approach (a registered
//! provisioning policy, possibly θ-parameterized) applied to one workload
//! over one market scenario with one seed and one revocation estimator.
//! [`CampaignRequest`] is the only description of one — the figure
//! binaries, the batched sweep engine and the campaign server all take it,
//! in process and over the wire — and it carries the scalar trunk itself
//! ([`CampaignRequest::run_with_estimator`]: config → policy →
//! [`Engine::run`]), so a sweep scheduled any way — serially
//! ([`CampaignRequest::run_serial`]), in cohorts, across a worker pool —
//! produces bit-identical [`HptReport`]s.
//!
//! Requests name their market environment by [`MarketScenario`] (a key
//! into the server's shared pool tier), their approach by policy name
//! ([`Approach::policy_name`]) and their revocation predictor by
//! [`EstimatorSpec`] (a key into the estimator registry, and — for the
//! learned families — into the shared trained-predictor tier) — every
//! registered policy × estimator combination runs through the same
//! cached, sharded pipeline.

use crate::config::SpotTuneConfig;
use crate::engine::Engine;
use crate::policy::{
    BidAware, HybridSpotOnDemand, MigrationAware, OnDemand, ProvisionPolicy, SingleSpot,
    SpotTuneTheta,
};
use crate::provision::OracleEstimator;
use crate::report::HptReport;
use spottune_market::{
    instance, ConstantEstimator, EstimatorSpec, MarketPool, MarketScenario, RevocationEstimator,
};
use spottune_mlsim::{CurveCache, Workload};
use spottune_revpred::{PredictorCache, PredictorKind};

/// The provisioning strategies a campaign can evaluate: the paper's
/// approaches (Fig. 7) plus the related-work policies of the policy layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Approach {
    /// SpotTune with the given θ.
    SpotTune {
        /// Early-shutdown rate.
        theta: f64,
    },
    /// Single-Spot Tune baselines.
    SingleSpot(SingleSpotKind),
    /// On-demand baseline: fixed price, no revocations, no refunds.
    OnDemand(SingleSpotKind),
    /// DeepVM-style hybrid: SpotTune provisioning until a configuration
    /// suffers `max_revocations` revocations, then pin it to on-demand.
    Hybrid {
        /// Early-shutdown rate.
        theta: f64,
        /// Revocations tolerated before the on-demand fallback.
        max_revocations: u32,
    },
    /// Voorsluys-style bid-aware provisioning: deterministic bid-margin
    /// ladder per market instead of one random delta.
    BidAware {
        /// Early-shutdown rate.
        theta: f64,
    },
    /// Grace-window-aware provisioning: SpotTune placement plus partial
    /// checkpoint planning under bandwidth-limited notice windows and a
    /// Kuhn–Munkres batch matcher for storm-displaced jobs.
    MigrationAware {
        /// Early-shutdown rate.
        theta: f64,
    },
}

/// Which fixed instance type the Single-Spot and On-Demand baselines use.
///
/// "The baseline we compare SpotTune with is running HPT on a single spot
/// instance. We assume the maximum price of each used single-spot instance
/// is much higher than its market price such that it would not be revoked"
/// (§IV.A.4). One VM per configuration, all of the same type, run at θ = 1
/// (no early shutdown; a configuration whose curve converges finishes
/// early, as under SpotTune at θ = 1) and never checkpointed.
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

/// Revocations tolerated by [`Approach::Hybrid`] before it pins a
/// configuration to on-demand capacity, unless overridden.
pub const DEFAULT_HYBRID_STRIKES: u32 = 3;

impl Approach {
    /// The four bars of Fig. 7, in paper order.
    pub fn fig7_set() -> [Approach; 4] {
        [
            Approach::SpotTune { theta: 0.7 },
            Approach::SpotTune { theta: 1.0 },
            Approach::SingleSpot(SingleSpotKind::Cheapest),
            Approach::SingleSpot(SingleSpotKind::Fastest),
        ]
    }

    /// Every registered policy name, in registry order. These are the
    /// stable identifiers accepted by [`Approach::from_policy_name`], the
    /// `run_campaigns --policy` flag and the CI policy matrix.
    pub fn registered_policies() -> [&'static str; 7] {
        [
            "spottune",
            "single-spot-cheapest",
            "single-spot-fastest",
            "on-demand",
            "hybrid",
            "bid-aware",
            "migration-aware",
        ]
    }

    /// The registry name of this approach's policy.
    pub fn policy_name(&self) -> &'static str {
        match self {
            Approach::SpotTune { .. } => "spottune",
            Approach::SingleSpot(SingleSpotKind::Cheapest) => "single-spot-cheapest",
            Approach::SingleSpot(SingleSpotKind::Fastest) => "single-spot-fastest",
            Approach::OnDemand(_) => "on-demand",
            Approach::Hybrid { .. } => "hybrid",
            Approach::BidAware { .. } => "bid-aware",
            Approach::MigrationAware { .. } => "migration-aware",
        }
    }

    /// Resolves a registry name to an approach, parameterizing the
    /// θ-dependent policies with `theta`. Returns `None` for unknown names
    /// (callers list [`Approach::registered_policies`] in their error).
    pub fn from_policy_name(name: &str, theta: f64) -> Option<Approach> {
        match name {
            "spottune" => Some(Approach::SpotTune { theta }),
            "single-spot-cheapest" => Some(Approach::SingleSpot(SingleSpotKind::Cheapest)),
            "single-spot-fastest" => Some(Approach::SingleSpot(SingleSpotKind::Fastest)),
            "on-demand" => Some(Approach::OnDemand(SingleSpotKind::Cheapest)),
            "hybrid" => {
                Some(Approach::Hybrid { theta, max_revocations: DEFAULT_HYBRID_STRIKES })
            }
            "bid-aware" => Some(Approach::BidAware { theta }),
            "migration-aware" => Some(Approach::MigrationAware { theta }),
            _ => None,
        }
    }

    /// Whether this approach's behaviour depends on θ (the baselines
    /// always run at θ = 1).
    pub fn is_theta_parameterized(&self) -> bool {
        matches!(
            self,
            Approach::SpotTune { .. }
                | Approach::Hybrid { .. }
                | Approach::BidAware { .. }
                | Approach::MigrationAware { .. }
        )
    }

    /// The engine configuration this approach runs under.
    pub(crate) fn config(&self, seed: u64) -> SpotTuneConfig {
        let theta = match *self {
            Approach::SpotTune { theta }
            | Approach::Hybrid { theta, .. }
            | Approach::BidAware { theta }
            | Approach::MigrationAware { theta } => theta,
            Approach::SingleSpot(_) | Approach::OnDemand(_) => 1.0,
        };
        SpotTuneConfig::new(theta, 3).with_seed(seed)
    }

    /// Builds this approach's policy over `estimator`. Every policy runs on
    /// the engine's one drive; SpotTune and the related-work policies
    /// consult the estimator for revocation probabilities, the Single-Spot
    /// and On-Demand baselines ignore it.
    pub fn build_policy<'a>(
        &self,
        estimator: &'a dyn RevocationEstimator,
        config: &SpotTuneConfig,
    ) -> Box<dyn ProvisionPolicy + 'a> {
        match *self {
            Approach::SpotTune { theta } => {
                Box::new(SpotTuneTheta::new(estimator, config.delta_range, theta))
            }
            Approach::SingleSpot(kind) => Box::new(SingleSpot::new(kind)),
            Approach::OnDemand(kind) => Box::new(OnDemand::new(kind)),
            Approach::Hybrid { theta, max_revocations } => Box::new(HybridSpotOnDemand::new(
                estimator,
                config.delta_range,
                theta,
                max_revocations,
            )),
            Approach::BidAware { theta } => {
                Box::new(BidAware::new(estimator, config.delta_range, theta))
            }
            Approach::MigrationAware { theta } => {
                Box::new(MigrationAware::new(estimator, config.delta_range, theta))
            }
        }
    }
}

/// One unit of work submitted to the campaign server.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRequest {
    /// Client-chosen correlation id, echoed in the response. The server
    /// streams responses in *completion* order; ids let clients reorder.
    pub id: u64,
    /// The approach under evaluation.
    pub approach: Approach,
    /// The workload to tune.
    pub workload: Workload,
    /// Market environment, resolved through the server's shared pool tier.
    pub scenario: MarketScenario,
    /// Master seed for the campaign.
    pub seed: u64,
    /// Revocation estimator the policy provisions with; learned specs are
    /// trained per `(scenario, kind)` through the server's predictor tier.
    pub estimator: EstimatorSpec,
}

impl CampaignRequest {
    /// Runs this request outside the server — the serial reference path of
    /// the equivalence suites. The estimator is resolved by the very
    /// function a server worker calls ([`CampaignRequest::run_with_tiers`]),
    /// only over a fresh predictor tier, so a learned spec trains
    /// deterministically for the request's scenario right here (uncached —
    /// the server's tier is what amortizes that) and the report is
    /// bit-identical to the server's answer for the same request.
    pub fn run_serial(&self, pool: &MarketPool, curve_cache: &CurveCache) -> HptReport {
        self.run_with_tiers(pool, curve_cache, &PredictorCache::new())
    }

    /// Resolves the spec'd estimator and runs: ground-truth specs are built
    /// from `pool`, learned specs are looked up in `predictors` (a pure
    /// memo of `train_for_scenario` keyed by `(scenario, kind)`). `pool`
    /// must be the pool `self.scenario` describes.
    ///
    /// Deterministic: the report is a pure function of `self` — the tiers
    /// only change what is recomputed versus replayed. The server's
    /// lone-request arm calls this with its shared tiers.
    pub fn run_with_tiers(
        &self,
        pool: &MarketPool,
        curve_cache: &CurveCache,
        predictors: &PredictorCache,
    ) -> HptReport {
        match PredictorKind::from_spec(&self.estimator) {
            Some(kind) => {
                let trained = predictors.get(kind, self.scenario, pool);
                self.run_with_estimator(pool, curve_cache, trained.as_ref())
            }
            None => match self.estimator {
                EstimatorSpec::Oracle { confidence } => {
                    let oracle = OracleEstimator::new(pool.clone(), confidence);
                    self.run_with_estimator(pool, curve_cache, &oracle)
                }
                EstimatorSpec::Constant { p } => {
                    self.run_with_estimator(pool, curve_cache, &ConstantEstimator::new(p))
                }
                _ => unreachable!("learned specs resolve through PredictorKind::from_spec"),
            },
        }
    }

    /// Runs the campaign against an explicit, already-built estimator —
    /// the common trunk of every scalar campaign path (config → policy →
    /// [`Engine::run`]), and the entry point for callers holding a trained
    /// predictor set. `self.estimator` is not consulted.
    pub fn run_with_estimator(
        &self,
        pool: &MarketPool,
        curve_cache: &CurveCache,
        estimator: &dyn RevocationEstimator,
    ) -> HptReport {
        let cfg = self.approach.config(self.seed);
        let mut policy = self.approach.build_policy(estimator, &cfg);
        Engine::new(cfg, self.workload.clone(), pool.clone())
            .with_curve_cache(curve_cache.clone())
            .run(policy.as_mut())
    }

    /// Checks every invariant a worker would otherwise trip an assert on,
    /// without running anything: θ finite and in (0, 1] where the approach
    /// uses it, a non-degenerate workload, a non-empty market scenario and
    /// a well-formed estimator spec. This is the wire-boundary validation —
    /// a server rejects the request with this message instead of letting a
    /// malformed submission panic a campaign mid-sweep.
    pub fn validate(&self) -> Result<(), String> {
        if self.approach.is_theta_parameterized() {
            let theta = match self.approach {
                Approach::SpotTune { theta }
                | Approach::Hybrid { theta, .. }
                | Approach::BidAware { theta }
                | Approach::MigrationAware { theta } => theta,
                Approach::SingleSpot(_) | Approach::OnDemand(_) => 1.0,
            };
            if !(theta > 0.0 && theta <= 1.0) {
                return Err(format!("theta must be in (0, 1], got {theta}"));
            }
        }
        if let Approach::Hybrid { max_revocations, .. } = self.approach {
            if max_revocations == 0 {
                return Err("hybrid max_revocations must be at least 1".to_string());
            }
        }
        if self.workload.hp_grid().is_empty() {
            return Err("workload HP grid must not be empty".to_string());
        }
        if self.workload.max_trial_steps() == 0 {
            return Err("workload max_trial_steps must be positive".to_string());
        }
        if self.scenario.trace_mins == 0 {
            return Err("market scenario must cover a non-empty trace".to_string());
        }
        self.estimator.validate()
    }
}

/// The server's answer to one [`CampaignRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResponse {
    /// Echo of [`CampaignRequest::id`].
    pub id: u64,
    /// The campaign's report.
    pub report: HptReport,
}

#[cfg(test)]
mod tests {
    use super::*;
    use spottune_mlsim::Algorithm;

    fn tiny_workload() -> Workload {
        let base = Workload::benchmark(Algorithm::LoR);
        Workload::custom(Algorithm::LoR, 30, base.hp_grid()[..2].to_vec())
    }

    /// Seed-5 request over the two-day, seed-11 standard pool.
    fn request(approach: Approach, estimator: EstimatorSpec) -> CampaignRequest {
        CampaignRequest {
            id: 0,
            approach,
            workload: tiny_workload(),
            scenario: MarketScenario::from_days(2, 11),
            seed: 5,
            estimator,
        }
    }

    #[test]
    fn labels_and_instances() {
        assert_eq!(SingleSpotKind::Cheapest.instance_name(), "r4.large");
        assert_eq!(SingleSpotKind::Fastest.instance_name(), "m4.4xlarge");
        assert!(SingleSpotKind::Fastest.label().contains("Fastest"));
        assert!(SingleSpotKind::Cheapest.on_demand_label().contains("On-Demand"));
    }

    #[test]
    fn fig7_set_matches_paper_order() {
        let set = Approach::fig7_set();
        assert!(matches!(set[0], Approach::SpotTune { theta } if theta == 0.7));
        assert!(matches!(set[3], Approach::SingleSpot(SingleSpotKind::Fastest)));
    }

    #[test]
    fn campaign_is_deterministic_across_tiers() {
        let req = request(Approach::SpotTune { theta: 0.6 }, EstimatorSpec::default());
        let pool = req.scenario.build();
        let a = req.run_serial(&pool, &CurveCache::global());
        let b = req.run_serial(&pool, &CurveCache::new());
        assert_eq!(a, b, "tier choice must never change the report");
    }

    #[test]
    fn request_round_trips_to_campaign() {
        let req = CampaignRequest {
            id: 9,
            scenario: MarketScenario::from_days(2, 3),
            seed: 21,
            ..request(Approach::SingleSpot(SingleSpotKind::Cheapest), EstimatorSpec::default())
        };
        let report = req.run_serial(&req.scenario.build(), &CurveCache::global());
        assert!(report.approach.contains("Cheapest"));
        let resp = CampaignResponse { id: req.id, report };
        assert_eq!(resp.id, 9);
    }

    #[test]
    fn registry_round_trips_every_policy() {
        for name in Approach::registered_policies() {
            let approach = Approach::from_policy_name(name, 0.7)
                .unwrap_or_else(|| panic!("registered policy {name} must resolve"));
            assert_eq!(approach.policy_name(), name);
        }
        assert_eq!(Approach::from_policy_name("nope", 0.7), None);
        // θ threads into the θ-parameterized policies only.
        assert!(matches!(
            Approach::from_policy_name("hybrid", 0.5),
            Some(Approach::Hybrid { theta, max_revocations: DEFAULT_HYBRID_STRIKES })
                if theta == 0.5
        ));
        assert!(!Approach::SingleSpot(SingleSpotKind::Cheapest).is_theta_parameterized());
        assert!(Approach::BidAware { theta: 0.7 }.is_theta_parameterized());
    }

    #[test]
    fn default_estimator_spec_matches_explicit_oracle() {
        // The spec plumbing must be a pure refactor: the default spec and a
        // hand-built oracle(0.9) produce the same bits (the 100-campaign ×
        // six-policy version lives in tests/estimator_equivalence.rs).
        let req = request(Approach::SpotTune { theta: 0.7 }, EstimatorSpec::default());
        let pool = req.scenario.build();
        let via_spec = req.run_serial(&pool, &CurveCache::global());
        let oracle = OracleEstimator::new(pool.clone(), 0.9);
        let explicit = req.run_with_estimator(&pool, &CurveCache::global(), &oracle);
        assert_eq!(via_spec, explicit);
    }

    #[test]
    fn constant_spec_runs_and_differs_from_the_oracle() {
        let req = request(Approach::SpotTune { theta: 0.7 }, EstimatorSpec::Constant { p: 0.0 });
        let report = req.run_serial(&req.scenario.build(), &CurveCache::global());
        assert_eq!(report.predicted_finals.len(), 2);
        assert!(report.cost >= 0.0);
    }

    #[test]
    fn run_serial_resolves_learned_specs_deterministically() {
        let req = CampaignRequest {
            scenario: MarketScenario::from_days(1, 13),
            seed: 4,
            ..request(Approach::SpotTune { theta: 0.7 }, EstimatorSpec::Logistic)
        };
        let pool = req.scenario.build();
        let a = req.run_serial(&pool, &CurveCache::new());
        let b = req.run_serial(&pool, &CurveCache::new());
        assert_eq!(a, b, "learned-spec campaigns must be deterministic");
        assert_eq!(a.predicted_finals.len(), 2);
    }

    #[test]
    fn every_registered_policy_completes_a_campaign() {
        let pool = MarketScenario::from_days(2, 11).build();
        for name in Approach::registered_policies() {
            let approach = Approach::from_policy_name(name, 0.7).expect("registered");
            let report = request(approach, EstimatorSpec::default())
                .run_serial(&pool, &CurveCache::global());
            assert_eq!(report.predicted_finals.len(), 2, "{name}: prediction per config");
            assert!(report.cost >= 0.0, "{name}: cost must be finite");
            assert!(report.jct.as_secs() > 0, "{name}: non-zero JCT");
            assert!(report.deployments >= 2, "{name}: every config deployed");
        }
    }
}
