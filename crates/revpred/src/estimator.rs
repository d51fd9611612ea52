//! Bridges trained per-market models to the orchestrator's
//! [`RevocationEstimator`] interface ("for each individual spot market, an
//! independent model is trained offline", §III.B).

use crate::dataset::{build_dataset, DeltaPolicy, Sample, SlicedDataset};
use crate::logistic::LogisticModel;
use crate::model::{ProbModel, RevPredNet, TrainConfig};
use crate::probe::ProbedModel;
use crate::tributary::TributaryNet;
use spottune_market::{
    CacheStats, EstimatorSpec, MarketPool, MarketScenario, RevocationEstimator, SimDur, SimTime,
    SpotMarket,
};
use std::collections::BTreeMap;
use std::fmt;

/// Which predictor family to train per market.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PredictorKind {
    /// RevPred: dual-path LSTM + Algorithm-2 deltas.
    RevPred,
    /// Tributary: single-path LSTM + uniform-random deltas.
    Tributary,
    /// Logistic regression on flattened features + Algorithm-2 deltas.
    Logistic,
}

impl PredictorKind {
    /// Delta policy the paper pairs with each predictor.
    pub fn delta_policy(self) -> DeltaPolicy {
        match self {
            PredictorKind::RevPred | PredictorKind::Logistic => DeltaPolicy::Algorithm2,
            PredictorKind::Tributary => DeltaPolicy::UniformRandom,
        }
    }

    /// The predictor family an [`EstimatorSpec`] names, or `None` for the
    /// ground-truth (untrained) specs. This is the bridge between the
    /// wire-level estimator registry and the trained-predictor tier.
    pub fn from_spec(spec: &EstimatorSpec) -> Option<PredictorKind> {
        match spec {
            EstimatorSpec::RevPred => Some(PredictorKind::RevPred),
            EstimatorSpec::Tributary => Some(PredictorKind::Tributary),
            EstimatorSpec::Logistic => Some(PredictorKind::Logistic),
            EstimatorSpec::Oracle { .. } | EstimatorSpec::Constant { .. } => None,
        }
    }
}

/// Standard training split: models train on the first
/// `TRAIN_FRACTION_NUM/TRAIN_FRACTION_DEN` of the trace (the paper trains
/// on nine of the twelve trace days and holds out the rest).
const TRAIN_FRACTION_NUM: u64 = 3;
const TRAIN_FRACTION_DEN: u64 = 4;

/// Warm-up skipped before the first training sample (the engineered
/// features need an hour of history; two keeps clear of the trace edge).
const TRAIN_WARMUP: SimTime = SimTime::from_hours(2);

/// Sampling stride of the standard training set.
const TRAIN_STRIDE: SimDur = SimDur::from_mins(20);

/// The deterministic standard training entry point: one predictor per
/// market, trained on the first three quarters of the pool's trace
/// (warm-up-adjusted) with the standard stride and `TrainConfig` seeded by
/// `seed`. For the 12-day evaluation pool this is exactly the paper's
/// nine-day training split, so `fig10_revpred` and the campaign paths
/// train byte-identical models from the same call.
///
/// # Panics
///
/// Panics if the pool's trace is too short to hold a training window past
/// the warm-up (needs more than `2 h · 4/3` of trace).
pub fn train_for_pool(kind: PredictorKind, pool: &MarketPool, seed: u64) -> MarketPredictorSet {
    let total_mins = pool
        .iter()
        .map(|m| m.trace().len_minutes() as u64)
        .min()
        .expect("market pool must not be empty");
    let train_to = SimTime::from_mins(total_mins * TRAIN_FRACTION_NUM / TRAIN_FRACTION_DEN);
    assert!(
        TRAIN_WARMUP < train_to,
        "trace too short to train on: {total_mins} min leaves no window past warm-up"
    );
    let cfg = TrainConfig { seed, ..TrainConfig::default() };
    MarketPredictorSet::train(kind, pool, TRAIN_WARMUP, train_to, TRAIN_STRIDE, &cfg)
}

/// [`train_for_pool`] keyed the way the campaign paths key it: the
/// training seed is the scenario's seed, so a predictor is a pure function
/// of `(scenario, kind)` — exactly the identity the server's predictor
/// tier caches under.
///
/// # Panics
///
/// Panics if `pool`'s trace length disagrees with `scenario` (the tier
/// must never train on mismatched data), or if the trace is too short.
pub fn train_for_scenario(
    kind: PredictorKind,
    scenario: MarketScenario,
    pool: &MarketPool,
) -> MarketPredictorSet {
    assert!(
        pool.iter().all(|m| m.trace().len_minutes() as u64 == scenario.trace_mins),
        "pool/scenario mismatch: traces are not {} min long",
        scenario.trace_mins
    );
    train_for_pool(kind, pool, scenario.seed)
}

/// One trained model per spot market, usable as a [`RevocationEstimator`].
///
/// Each market's model answers probes through its own probe-context memo
/// ([`crate::probe`]), so every holder of the set — sessions on any
/// thread, lone requests, `run_serial` — shares the contexts it built.
pub struct MarketPredictorSet {
    pool: MarketPool,
    models: BTreeMap<String, ProbedModel>,
    label: String,
}

impl fmt::Debug for MarketPredictorSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MarketPredictorSet")
            .field("label", &self.label)
            .field("markets", &self.models.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl MarketPredictorSet {
    /// Trains one predictor per market on `[train_from, train_to)` with the
    /// given sampling stride.
    ///
    /// # Panics
    ///
    /// Panics if the training window produces no samples.
    pub fn train(
        kind: PredictorKind,
        pool: &MarketPool,
        train_from: SimTime,
        train_to: SimTime,
        stride: SimDur,
        cfg: &TrainConfig,
    ) -> Self {
        let policy = kind.delta_policy();
        let data_seed = |market: &SpotMarket| cfg.seed ^ market.instance().name().len() as u64;
        // The LSTM families train market by market on materialized samples.
        let per_market = |fit: &dyn Fn(&[Sample]) -> Box<dyn ProbModel>| -> Vec<_> {
            pool.iter()
                .map(|market| {
                    let seed = data_seed(market);
                    fit(&build_dataset(market, train_from, train_to, stride, policy, seed))
                })
                .collect()
        };
        let trained: Vec<Box<dyn ProbModel>> = match kind {
            PredictorKind::RevPred => per_market(&|samples| {
                let mut net = RevPredNet::new(cfg);
                net.train(samples, cfg);
                Box::new(net)
            }),
            PredictorKind::Tributary => per_market(&|samples| {
                let mut net = TributaryNet::new(cfg);
                net.train(samples, cfg);
                Box::new(net)
            }),
            // The markets share the sample grid and the shuffle, so their
            // (independent) models train in one lock-step pass.
            PredictorKind::Logistic => {
                let sets = pool.iter().map(|market| {
                    let seed = data_seed(market);
                    SlicedDataset::build(market, train_from, train_to, stride, policy, seed)
                });
                LogisticModel::train_lockstep(sets, cfg)
                    .into_iter()
                    .map(|model| Box::new(model) as Box<dyn ProbModel>)
                    .collect()
            }
        };
        let names = pool.iter().map(|market| market.instance().name().to_string());
        let models = names.zip(trained.into_iter().map(ProbedModel::new)).collect();
        let label = match kind {
            PredictorKind::RevPred => "RevPred",
            PredictorKind::Tributary => "Tributary",
            PredictorKind::Logistic => "LogisticRegression",
        };
        MarketPredictorSet { pool: pool.clone(), models, label: label.to_string() }
    }

    /// Predicts for an explicit, already-built sample (evaluation path).
    pub fn predict_sample(&self, instance_name: &str, sample: &Sample) -> Option<f64> {
        Some(self.models.get(instance_name)?.model.predict(sample))
    }

    /// Probe-memo counters summed over the markets.
    pub fn probe_stats(&self) -> CacheStats {
        self.models.values().map(ProbedModel::memo_stats).sum()
    }
}

impl RevocationEstimator for MarketPredictorSet {
    fn revocation_probability(&self, instance_name: &str, t: SimTime, max_price: f64) -> f64 {
        let (Some(model), Some(market)) =
            (self.models.get(instance_name), self.pool.market(instance_name))
        else {
            return 0.5; // unknown market: no information
        };
        model.probability(market, t, max_price)
    }

    fn name(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trains_per_market_and_estimates() {
        let pool = MarketPool::standard(SimDur::from_days(2), 5);
        let cfg = TrainConfig {
            lstm_hidden: 4,
            lstm_tiers: 1,
            dense_hidden: 4,
            epochs: 1,
            batch: 32,
            seed: 2,
            ..TrainConfig::default()
        };
        let set = MarketPredictorSet::train(
            PredictorKind::Logistic, // fast baseline for the unit test
            &pool,
            SimTime::from_hours(2),
            SimTime::from_hours(20),
            SimDur::from_mins(30),
            &cfg,
        );
        let t = SimTime::from_hours(30);
        for market in pool.iter() {
            let price = market.price_at(t);
            let p = set.revocation_probability(market.instance().name(), t, price + 0.01);
            assert!((0.0..=1.0).contains(&p));
        }
        // Unknown instances return the uninformative prior.
        assert_eq!(set.revocation_probability("bogus", t, 1.0), 0.5);
        assert_eq!(set.name(), "LogisticRegression");
    }

    #[test]
    fn policy_pairing_matches_paper() {
        assert_eq!(PredictorKind::RevPred.delta_policy(), DeltaPolicy::Algorithm2);
        assert_eq!(PredictorKind::Tributary.delta_policy(), DeltaPolicy::UniformRandom);
    }

    #[test]
    fn spec_bridge_maps_exactly_the_trained_kinds() {
        assert_eq!(
            PredictorKind::from_spec(&EstimatorSpec::RevPred),
            Some(PredictorKind::RevPred)
        );
        assert_eq!(
            PredictorKind::from_spec(&EstimatorSpec::Tributary),
            Some(PredictorKind::Tributary)
        );
        assert_eq!(
            PredictorKind::from_spec(&EstimatorSpec::Logistic),
            Some(PredictorKind::Logistic)
        );
        assert_eq!(PredictorKind::from_spec(&EstimatorSpec::default()), None);
        assert_eq!(PredictorKind::from_spec(&EstimatorSpec::Constant { p: 0.1 }), None);
    }

    #[test]
    fn standard_entry_point_matches_explicit_paper_split() {
        // The shared entry point must reproduce fig10's private loop: for a
        // pool of T minutes it trains on [2 h, 3T/4) at a 20-minute stride
        // with the default config at the given seed.
        let pool = MarketPool::standard(SimDur::from_days(2), 9);
        let via_entry = train_for_pool(PredictorKind::Logistic, &pool, 9);
        let cfg = TrainConfig { seed: 9, ..TrainConfig::default() };
        let explicit = MarketPredictorSet::train(
            PredictorKind::Logistic,
            &pool,
            SimTime::from_hours(2),
            SimTime::from_hours(36), // 3/4 of two days
            SimDur::from_mins(20),
            &cfg,
        );
        let t = SimTime::from_hours(40);
        for market in pool.iter() {
            let name = market.instance().name();
            let bid = market.price_at(t) + 0.01;
            assert_eq!(
                via_entry.revocation_probability(name, t, bid),
                explicit.revocation_probability(name, t, bid),
                "{name}: entry point must reproduce the explicit split"
            );
        }
        // Scenario keying: the training seed is the scenario seed.
        let scenario = MarketScenario::from_days(2, 9);
        let via_scenario = train_for_scenario(PredictorKind::Logistic, scenario, &pool);
        let name = pool.markets()[0].instance().name();
        assert_eq!(
            via_scenario.revocation_probability(name, t, 0.5),
            via_entry.revocation_probability(name, t, 0.5)
        );
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn entry_point_rejects_traces_inside_the_warmup() {
        let pool = MarketPool::standard(SimDur::from_hours(2), 1);
        let _ = train_for_pool(PredictorKind::Logistic, &pool, 1);
    }
}
