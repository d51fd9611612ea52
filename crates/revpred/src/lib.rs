//! # spottune-revpred
//!
//! Spot-instance revocation-probability prediction (paper §III.B): the six
//! engineered features, the Algorithm-2 training-delta generation, the
//! RevPred dual-path network (three-tier LSTM over 59 history records ⊕
//! three dense layers over the present record), the Eq. 3 calibration, and
//! the two baselines of Fig. 10 (a re-implementation of Tributary's
//! predictor and a logistic regression), plus the evaluation metrics, the
//! bridge to the orchestrator's `RevocationEstimator` interface, the
//! deterministic per-scenario training entry point
//! ([`estimator::train_for_scenario`]) and the shared trained-predictor
//! tier ([`cache::PredictorCache`]) the campaign server amortizes
//! training through.
//!
//! # Design notes
//!
//! ## The Algorithm-2 delta mixture
//!
//! The paper's Algorithm 2 sets every training max price to the current
//! price plus the trimmed mean of the last hour's per-minute price
//! changes, so samples sit at the revoked / not-revoked border. On the paper's
//! us-east-1 traces that average fluctuation itself spans the
//! `[1e-5, 0.2]` range bids are drawn from at inference time. Our
//! synthetic markets trade at smaller absolute prices and hold their price
//! for long stretches (the trimmed mean is often exactly zero), so a pure
//! Algorithm-2 set would never show the model a bid far from the current
//! price. [`DeltaPolicy::Algorithm2`](dataset::DeltaPolicy) therefore
//! draws a fair coin per sample: heads, the Algorithm-2 delta (or `1e-4`
//! when it is zero) jittered by `Uniform(0.5, 3)`; tails,
//! `Uniform(1e-5, 0.2)` — Tributary's policy — so random max prices are
//! in-distribution. The draw order is part of every golden digest.
//!
//! ## The inverted φ in Eq. 3
//!
//! Training weighs positives by `φ⁻` and negatives by `φ⁺` (the class
//! fractions). The optimum of that weighted BCE for a true posterior `π`
//! is `P̂ = φ⁻π / (φ⁻π + φ⁺(1−π))`, so recovering `π` needs
//! `π/(1−π) = P̂·φ⁺ / ((1−P̂)·φ⁻)`. The paper prints Eq. 3 with the `φ`
//! ratio the other way up, which contradicts its own weighting and
//! collapses recall on positive-heavy markets; [`model::calibrate`]
//! implements the consistent form.
//!
//! ## Lock-step training
//!
//! "For each individual spot market, an independent model is trained"
//! (§III.B) — but the standard split gives every market the same sample
//! instants and the same `seed ^ 0x106` shuffle, so a pool's logistic
//! models visit sample `i` at the same step. [`LogisticModel::train_lockstep`]
//! exploits that: market `l` is lane `l` of `[f64; 6]` rows (features
//! interleaved across markets, read in place from each market's
//! per-minute feature rows — [`SlicedDataset`] — rather than from
//! per-sample copies), and one kernel steps all lanes together. It is
//! bit-identical to training the markets one by one because no lane ever
//! reads another: each lane's dot product is the same left fold from
//! `-0.0` in flatten order, each weight update the same
//! `w -= lr·(g·x + 1e-5·w)` (no FMA, no reassociation); only the order in
//! which *independent* operations are issued changes — across lanes, and
//! within a lane by folding each freshly updated weight straight into the
//! next sample's dot product. [`LogisticModel::train`] is the one-lane
//! call of the same kernel, and the crate's tests lock both against a
//! literal per-market scalar loop on 2- and 12-day pools.

pub mod cache;
pub mod dataset;
pub mod estimator;
pub mod eval;
pub mod features;
pub mod logistic;
pub mod model;
pub mod probe;
pub mod tributary;

pub use cache::PredictorCache;
pub use dataset::{
    build_dataset, build_input, build_sample, DeltaPolicy, Sample, SlicedDataset,
};
pub use estimator::{train_for_pool, train_for_scenario, MarketPredictorSet, PredictorKind};
pub use eval::BinaryEval;
pub use logistic::LogisticModel;
pub use model::{ProbModel, RevPredNet, TrainConfig, TrainStats};
pub use probe::{ProbeCachedPredictors, ProbeCtx};
pub use tributary::TributaryNet;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::dataset::{
        algorithm2_delta, build_dataset, build_input, build_sample, positive_fraction,
        DeltaPolicy, Sample, SlicedDataset, HISTORY_LEN, PRESENT_FEATURES,
    };
    pub use crate::cache::PredictorCache;
    pub use crate::estimator::{
        train_for_pool, train_for_scenario, MarketPredictorSet, PredictorKind,
    };
    pub use crate::eval::BinaryEval;
    pub use crate::features::{features_at, raw_features, RECORD_FEATURES};
    pub use crate::logistic::LogisticModel;
    pub use crate::model::{calibrate, ProbModel, RevPredNet, TrainConfig, TrainStats};
    pub use crate::tributary::TributaryNet;
}
