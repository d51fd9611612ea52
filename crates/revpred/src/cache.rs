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
use spottune_market::{CacheStats, MarketPool, MarketScenario};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A shared, thread-safe trained-predictor tier keyed by
/// `(MarketScenario, PredictorKind)`.
///
/// Cloning the cache clones a handle to the same tier (the server hands
/// one to every worker). The map mutex guards only the entry lookup; the
/// expensive training runs inside a per-key `OnceLock`, so distinct cold
/// keys train in parallel, hits never wait behind a training run, and two
/// workers racing on the *same* cold key still pay the training cost once.
/// An optional capacity bound ([`PredictorCache::with_capacity`]) turns
/// the tier into an LRU, mirroring the curve tier
/// (`CurveCache::with_capacity`): a sweep over many market scenarios
/// would otherwise retain every trained set it ever produced. Evictions
/// are counted in [`CacheStats::evictions`]; an evicted key retrains on
/// its next request (a fresh miss), never changing any report.
#[derive(Debug, Clone, Default)]
pub struct PredictorCache {
    inner: Arc<PredictorCacheInner>,
}

#[derive(Debug, Default)]
struct PredictorCacheInner {
    sets: Mutex<PredictorStore>,
    /// Maximum resident trained sets; 0 means unbounded.
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

type PredictorKey = (MarketScenario, PredictorKind);
type PredictorCell = Arc<OnceLock<Arc<MarketPredictorSet>>>;

/// Resident entries plus the logical clock backing LRU ordering.
#[derive(Debug, Default)]
struct PredictorStore {
    entries: BTreeMap<PredictorKey, PredictorEntry>,
    /// Monotone lookup/insert counter; entries stamp their last touch.
    tick: u64,
}

#[derive(Debug)]
struct PredictorEntry {
    cell: PredictorCell,
    last_used: u64,
}

impl PredictorStore {
    fn touch(&mut self, key: &PredictorKey) -> Option<PredictorCell> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(key).map(|e| {
            e.last_used = tick;
            Arc::clone(&e.cell)
        })
    }
}

impl PredictorCache {
    /// Creates an empty, unbounded tier.
    pub fn new() -> Self {
        PredictorCache::default()
    }

    /// Creates an empty tier retaining at most `capacity` trained sets,
    /// evicting the least-recently-used entry on overflow (`0` means
    /// unbounded). Eviction scans the resident entries for the oldest
    /// stamp — O(capacity) per overflowing insert, and only sweeps whose
    /// scenario working set exceeds the bound ever pay it. An entry whose
    /// training is still in flight can be evicted safely: the trainer
    /// holds its own handle and still returns its set; the tier merely
    /// forgets it.
    pub fn with_capacity(capacity: usize) -> Self {
        PredictorCache {
            inner: Arc::new(PredictorCacheInner { capacity, ..PredictorCacheInner::default() }),
        }
    }

    /// The capacity bound (`0` = unbounded).
    pub fn capacity(&self) -> usize {
        self.inner.capacity
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
        let key = (scenario, kind);
        let cell = {
            let mut sets = self.inner.sets.lock().expect("predictor cache lock");
            match sets.touch(&key) {
                Some(cell) => {
                    self.inner.hits.fetch_add(1, Ordering::Relaxed);
                    cell
                }
                None => {
                    self.inner.misses.fetch_add(1, Ordering::Relaxed);
                    let capacity = self.inner.capacity;
                    if capacity > 0 && sets.entries.len() >= capacity {
                        let victim = sets
                            .entries
                            .iter()
                            .min_by_key(|(_, e)| e.last_used)
                            .map(|(k, _)| *k)
                            .expect("non-empty store at capacity");
                        sets.entries.remove(&victim);
                        self.inner.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                    let cell: PredictorCell = Arc::new(OnceLock::new());
                    let tick = sets.tick;
                    sets.entries.insert(
                        key,
                        PredictorEntry { cell: Arc::clone(&cell), last_used: tick },
                    );
                    cell
                }
            }
        };
        let trained = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Arc::clone(cell.get_or_init(|| Arc::new(train_for_scenario(kind, scenario, pool))))
        }));
        match trained {
            Ok(set) => set,
            Err(payload) => {
                // Training panicked (e.g. a trace shorter than the warm-up
                // window). Drop the still-empty entry so the next request
                // for this key counts a fresh miss instead of a hit that
                // silently re-runs the failing training — keeping the
                // "every miss is one training attempt" counter semantic.
                {
                    let mut sets = self.inner.sets.lock().expect("predictor cache lock");
                    if let Some(existing) = sets.entries.get(&key) {
                        if Arc::ptr_eq(&existing.cell, &cell) && cell.get().is_none() {
                            sets.entries.remove(&key);
                        }
                    }
                    // Guard dropped here: resuming the unwind while holding
                    // the lock would poison the whole tier.
                }
                std::panic::resume_unwind(payload)
            }
        }
    }

    /// Number of distinct `(scenario, kind)` pairs currently resident.
    pub fn len(&self) -> usize {
        self.inner.sets.lock().expect("predictor cache lock").entries.len()
    }

    /// Whether no predictor has been trained yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every resident predictor set (counters are retained).
    pub fn clear(&self) {
        self.inner.sets.lock().expect("predictor cache lock").entries.clear();
    }

    /// Hit/miss/eviction counters since construction.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            evictions: self.inner.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spottune_market::{RevocationEstimator, SimTime};

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
