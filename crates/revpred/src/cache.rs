//! Cross-request trained-predictor tier: `(scenario × predictor kind)`-keyed,
//! `Arc`-backed sharing of trained [`MarketPredictorSet`]s.
//!
//! Training a learned revocation predictor is the most expensive thing a
//! campaign can ask for — a RevPred set is six three-tier LSTMs trained
//! over thousands of samples — and a sweep evaluates thousands of
//! campaigns against the *same* few scenarios. Like the market-pool tier
//! ([`spottune_market::PoolCache`]), a long-running server must train each
//! `(scenario, kind)` pair once and hand out reference-counted clones;
//! [`train_for_scenario`] makes the trained set a pure function of the
//! key, so a cache hit can never change a report, only wall-clock.

use crate::estimator::{train_for_scenario, MarketPredictorSet, PredictorKind};
use spottune_market::{MarketPool, MarketScenario, Tier};
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// The shared trained-predictor tier: a [`Tier`] keyed by
/// `(MarketScenario, PredictorKind)`.
///
/// Cloning the cache clones a handle to the same tier (the server hands
/// one to every worker). Distinct cold keys train in parallel, and two
/// workers racing on the *same* cold key still pay the training cost once.
/// An optional capacity bound ([`PredictorCache::with_capacity`]) turns
/// the tier into an LRU: a sweep over many market scenarios would
/// otherwise retain every trained set it ever produced. An evicted key
/// retrains on its next request (a fresh miss), never changing any report;
/// a training that panics leaves no entry behind.
#[derive(Debug, Clone, Default)]
pub struct PredictorCache(Tier<(MarketScenario, PredictorKind), Arc<MarketPredictorSet>>);

impl Deref for PredictorCache {
    type Target = Tier<(MarketScenario, PredictorKind), Arc<MarketPredictorSet>>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl PredictorCache {
    /// Creates an empty, unbounded tier.
    pub fn new() -> Self {
        PredictorCache::default()
    }

    /// Creates an empty tier retaining at most `capacity` trained sets,
    /// evicting the least-recently-used entry on overflow (`0` means
    /// unbounded).
    pub fn with_capacity(capacity: usize) -> Self {
        PredictorCache(Tier::with_capacity(capacity))
    }

    /// The process-wide shared tier, mirroring the curve memo's
    /// `CurveCache::global`: thin clients that spin up a short-lived
    /// server per sweep (the figure binaries) route through this so a
    /// `(scenario, kind)` pair trains once per *process*, not once per
    /// call.
    pub fn global() -> PredictorCache {
        static GLOBAL: OnceLock<PredictorCache> = OnceLock::new();
        GLOBAL.get_or_init(PredictorCache::new).clone()
    }

    /// The trained set for `(scenario, kind)`: a shared clone on a hit,
    /// trained (and retained) on a miss. `pool` must be the pool `scenario`
    /// describes — the server resolves it through its pool tier first, so
    /// the trace data is never built twice.
    pub fn get(
        &self,
        kind: PredictorKind,
        scenario: MarketScenario,
        pool: &MarketPool,
    ) -> Arc<MarketPredictorSet> {
        self.0.get((scenario, kind), |_| Arc::new(train_for_scenario(kind, scenario, pool)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spottune_market::{CacheStats, RevocationEstimator, SimTime};

    #[test]
    fn hits_share_the_same_trained_set() {
        let cache = PredictorCache::new();
        let scenario = MarketScenario::from_days(1, 7);
        let pool = scenario.build();
        let a = cache.get(PredictorKind::Logistic, scenario, &pool);
        let b = cache.get(PredictorKind::Logistic, scenario, &pool);
        // Same Arc-backed set, not a retrained equal one.
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1, evictions: 0 });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn racing_one_cold_key_trains_once() {
        let cache = PredictorCache::new();
        let scenario = MarketScenario::from_days(1, 5);
        let pool = scenario.build();
        let start = std::sync::Barrier::new(8);
        let sets: Vec<Arc<MarketPredictorSet>> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        cache.get(PredictorKind::Logistic, scenario, &pool)
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().expect("racer")).collect()
        });
        // One thread inserted the entry and trained; the other seven found
        // it and waited on (or read) the same cell.
        assert_eq!(cache.stats(), CacheStats { hits: 7, misses: 1, evictions: 0 });
        assert!(sets.iter().all(|set| Arc::ptr_eq(set, &sets[0])));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_train_distinct_sets() {
        let cache = PredictorCache::new();
        let near = MarketScenario::from_days(1, 7);
        let far = MarketScenario::from_days(1, 8);
        let a = cache.get(PredictorKind::Logistic, near, &near.build());
        let b = cache.get(PredictorKind::Logistic, far, &far.build());
        // Distinct scenarios are distinct entries…
        assert!(!Arc::ptr_eq(&a, &b));
        // …and so are distinct kinds over one scenario.
        let c = cache.get(PredictorKind::Tributary, near, &near.build());
        assert_eq!(c.name(), "Tributary");
        assert_eq!(cache.stats().misses, 3);
        assert_eq!(cache.len(), 3);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn cached_set_answers_like_a_fresh_training_run() {
        let cache = PredictorCache::new();
        let scenario = MarketScenario::from_days(1, 3);
        let pool = scenario.build();
        let cached = cache.get(PredictorKind::Logistic, scenario, &pool);
        let fresh = train_for_scenario(PredictorKind::Logistic, scenario, &pool);
        let t = SimTime::from_hours(20);
        for market in pool.iter() {
            let name = market.instance().name();
            let bid = market.price_at(t) + 0.02;
            assert_eq!(
                cached.revocation_probability(name, t, bid),
                fresh.revocation_probability(name, t, bid),
                "{name}: tier must be a pure memo of train_for_scenario"
            );
        }
    }

    #[test]
    fn failed_training_does_not_poison_the_entry() {
        let cache = PredictorCache::new();
        // A trace entirely inside the warm-up window makes training panic.
        let scenario = MarketScenario::new(spottune_market::SimDur::from_hours(2), 1);
        let pool = scenario.build();
        for _ in 0..2 {
            let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                cache.get(PredictorKind::Logistic, scenario, &pool)
            }));
            assert!(attempt.is_err(), "short trace must fail to train");
        }
        // Both attempts count as misses (each ran a training attempt) and
        // nothing poisoned stays resident.
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 2, evictions: 0 });
        assert!(cache.is_empty());
    }

    #[test]
    fn bounded_tier_evicts_least_recently_used() {
        let cache = PredictorCache::with_capacity(2);
        assert_eq!(cache.capacity(), 2);
        let a = MarketScenario::from_days(1, 7);
        let b = MarketScenario::from_days(1, 8);
        let c = MarketScenario::from_days(1, 9);
        cache.get(PredictorKind::Logistic, a, &a.build());
        cache.get(PredictorKind::Logistic, b, &b.build());
        // Refresh `a` so `b` becomes the LRU victim.
        cache.get(PredictorKind::Logistic, a, &a.build());
        cache.get(PredictorKind::Logistic, c, &c.build());
        assert_eq!(cache.len(), 2, "capacity bound respected");
        assert_eq!(cache.stats().evictions, 1);
        // `b` was evicted: asking again retrains (a miss), while the
        // refreshed `a` is still a hit — and the retrained set answers
        // identically (pure function of the key).
        let before = cache.stats();
        let retrained = cache.get(PredictorKind::Logistic, b, &b.build());
        assert_eq!(cache.stats().misses, before.misses + 1);
        let fresh = train_for_scenario(PredictorKind::Logistic, b, &b.build());
        let t = SimTime::from_hours(20);
        let pool = b.build();
        let market = pool.iter().next().expect("non-empty pool");
        let name = market.instance().name();
        let bid = market.price_at(t) + 0.02;
        assert_eq!(
            retrained.revocation_probability(name, t, bid),
            fresh.revocation_probability(name, t, bid),
            "eviction must never change an answer"
        );
        let hit = cache.get(PredictorKind::Logistic, a, &a.build());
        assert_eq!(hit.name(), "LogisticRegression");
    }

    #[test]
    fn shared_handles_see_each_other() {
        let cache = PredictorCache::new();
        let clone = cache.clone();
        let scenario = MarketScenario::from_days(1, 4);
        clone.get(PredictorKind::Logistic, scenario, &scenario.build());
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.len(), 1);
    }
}
