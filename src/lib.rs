//! # SpotTune
//!
//! A comprehensive Rust reproduction of *SpotTune: Leveraging Transient
//! Resources for Cost-efficient Hyper-parameter Tuning in the Public Cloud*
//! (ICDCS 2020): an orchestrating system that runs hyper-parameter tuning on
//! revocable spot instances, combining fine-grained cost-aware provisioning
//! (expected step cost with learned revocation probabilities) with staged
//! training-curve prediction for early shutdown of unpromising models.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`market`] — spot markets, price traces, synthetic trace generation;
//! * [`cloud`] — the discrete-event cloud (VMs, billing with first-hour
//!   refunds, object storage);
//! * [`nn`] — the small LSTM/dense neural-network library;
//! * [`mlsim`] — benchmark workloads, real trainers and the performance model;
//! * [`earlycurve`] — staged curve fitting and the SLAQ baseline;
//! * [`revpred`] — the RevPred revocation predictor and its baselines;
//! * [`core`] — the campaign engine, provisioning policies, campaign
//!   requests, the batched sweep runner and reports;
//! * [`server`] — the long-running sharded multi-campaign service.
//!
//! ## Example
//!
//! ```
//! use spottune::prelude::*;
//!
//! let base = Workload::benchmark(Algorithm::LoR);
//! // One campaign, described the way a client describes it to the server.
//! let request = CampaignRequest {
//!     id: 0,
//!     approach: Approach::SpotTune { theta: 0.5 },
//!     // A tiny slice of the benchmark keeps the doctest fast.
//!     workload: Workload::custom(Algorithm::LoR, 20, base.hp_grid()[..2].to_vec()),
//!     scenario: MarketScenario::from_days(3, 42),
//!     seed: 0,
//!     estimator: EstimatorSpec::default(),
//! };
//! let report = request.run_serial(&request.scenario.build(), &CurveCache::global());
//! assert_eq!(report.predicted_finals.len(), 2);
//! ```

pub use spottune_cloud as cloud;
pub use spottune_core as core;
pub use spottune_earlycurve as earlycurve;
pub use spottune_market as market;
pub use spottune_mlsim as mlsim;
pub use spottune_nn as nn;
pub use spottune_revpred as revpred;
pub use spottune_server as server;

/// Everything needed for typical use, in one import.
pub mod prelude {
    pub use spottune_cloud::prelude::*;
    pub use spottune_core::prelude::*;
    pub use spottune_earlycurve::prelude::*;
    pub use spottune_market::prelude::*;
    pub use spottune_mlsim::prelude::*;
    pub use spottune_revpred::prelude::*;
}
