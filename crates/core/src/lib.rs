//! # spottune-core
//!
//! The SpotTune campaign engine and its pluggable policy layer. The
//! [`engine::Engine`] owns the mechanics of paper Algorithm 1 — the
//! 10-second scheduling loop (run as jumps between the ticks at which
//! something happens), checkpoint-on-notice, one-hour proactive recycling
//! for refund harvesting, EarlyCurve-based early shutdown and top-`mcnt`
//! continuation — and consults a [`policy::ProvisionPolicy`] at every decision point.
//! The paper's approaches and related-work strategies are policy impls:
//! [`policy::SpotTuneTheta`] (fine-grained cost-aware provisioning, Eq.
//! 1–2), [`policy::SingleSpot`] / [`policy::OnDemand`] (the baselines),
//! [`policy::HybridSpotOnDemand`] (DeepVM-style fallback) and
//! [`policy::BidAware`] (Voorsluys-style bid ladders). See the
//! [`policy`] module docs for how to write a new one.
//!
//! A campaign has one description, [`CampaignRequest`] — the value a
//! client sends over the wire. Run one in process with
//! [`CampaignRequest::run_serial`] and a sweep with
//! [`BatchRunner::run_many`]; [`Engine::run`] under a hand-built policy is
//! the layer below, for a non-default `mcnt` or a custom
//! [`ProvisionPolicy`].
//!
//! # Design notes
//!
//! The baselines run on the same drive as SpotTune, under the same
//! failure model. [`policy::SingleSpot`] stands in for the paper's "never
//! revoked" single-spot instance by bidding 100× the on-demand price, so
//! no price excursion in the traces ever revokes it; only a
//! [`FaultPlan`](spottune_cloud::FaultPlan) storm does, exactly as it
//! would a SpotTune VM in that market. The baselines never checkpoint — no
//! one-hour recycle, no upload in a notice window — so a revoked
//! configuration starts over. They run at θ = 1 and keep the drive's
//! convergence finish rule, the one SpotTune at θ = 1 uses: a
//! configuration whose curve plateaus stops before `max_trial_steps`.
//!
//! ```no_run
//! use spottune_core::prelude::*;
//! use spottune_market::prelude::*;
//! use spottune_mlsim::prelude::*;
//!
//! let request = CampaignRequest {
//!     id: 0,
//!     approach: Approach::SpotTune { theta: 0.7 },
//!     workload: Workload::benchmark(Algorithm::LoR),
//!     scenario: MarketScenario::from_days(12, 42),
//!     seed: 0,
//!     estimator: EstimatorSpec::default(),
//! };
//! let report = request.run_serial(&request.scenario.build(), &CurveCache::global());
//! println!("{}", report.summary());
//! ```

pub mod arena;
pub mod batch;
pub mod campaign;
pub mod config;
pub mod engine;
pub mod job;
pub mod migration;
#[cfg(test)]
mod oracle;
pub mod perfmatrix;
pub mod policy;
pub mod provision;
pub mod report;
pub mod soa;
pub mod wire;

pub use arena::{EngineScratch, JobArena};
pub use batch::{BatchRunner, BatchStats, CohortPlan, GroupSession};
pub use campaign::{Approach, CampaignRequest, CampaignResponse, SingleSpotKind};
pub use config::SpotTuneConfig;
pub use engine::{Engine, TraceEvent};
pub use migration::{assignment_cost, greedy_assignment, min_cost_assignment};
pub use perfmatrix::PerfMatrix;
pub use policy::{
    CheckpointPlan, DeployCtx, Matcher, MigrationCtx, MigrationJob, Placement, ProvisionPolicy,
    SpotTuneTheta,
};
pub use provision::{InstChoice, OracleEstimator, Provisioner};
pub use report::HptReport;
pub use soa::{JobLanes, COHORT_WIDTH};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::arena::{EngineScratch, JobArena};
    pub use crate::batch::{BatchRunner, BatchStats, CohortPlan, GroupSession};
    pub use crate::campaign::{Approach, CampaignRequest, CampaignResponse, SingleSpotKind};
    pub use crate::config::SpotTuneConfig;
    pub use crate::engine::{Engine, TraceEvent};
    pub use crate::job::{FinishReason, Job};
    pub use crate::migration::{assignment_cost, greedy_assignment, min_cost_assignment};
    pub use crate::perfmatrix::PerfMatrix;
    pub use crate::policy::{
        CheckpointPlan, DeployCtx, Matcher, MigrationCtx, MigrationJob, Placement,
        ProvisionPolicy, SpotTuneTheta,
    };
    pub use crate::provision::{InstChoice, OracleEstimator, Provisioner};
    pub use crate::report::HptReport;
}
