//! The one cross-request cache mechanism behind every shared tier: the
//! market-pool and spine tiers here, the trained-predictor tier
//! (`spottune_revpred::PredictorCache`) and the training-curve tier
//! (`spottune_mlsim::CurveCache`).
//!
//! A sweep evaluates thousands of campaigns against the same few keys, and
//! every tier's value is a pure function of its key, so a tier only ever
//! changes wall-clock, never a report. Each tier is a thin newtype over a
//! [`Tier`] that supplies the key type and the build; everything else —
//! single-flight builds, the optional LRU bound, the counters, the rule for
//! a build that panics — lives here once.

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Hit/miss counters of a shared cache tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to build/compute the entry.
    pub misses: u64,
    /// Entries dropped to respect a capacity bound (0 for unbounded tiers).
    pub evictions: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from the cache (0 when never queried).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            return 0.0;
        }
        self.hits as f64 / self.lookups() as f64
    }
}

/// Field-wise totals, for counters summed over several tiers.
impl std::iter::Sum for CacheStats {
    fn sum<I: Iterator<Item = CacheStats>>(iter: I) -> CacheStats {
        iter.fold(CacheStats::default(), |a, s| CacheStats {
            hits: a.hits + s.hits,
            misses: a.misses + s.misses,
            evictions: a.evictions + s.evictions,
        })
    }
}

/// A shared, thread-safe, single-flight memo from `K` to `V`.
///
/// Cloning a tier clones a handle to the same storage and counters (a
/// server hands one to every worker). The map mutex guards only the entry
/// lookup; each build runs inside a per-key `OnceLock`, so distinct cold
/// keys build in parallel, hits never wait behind another key's build, and
/// requesters racing on the *same* cold key build it once: the one that
/// creates the entry counts the miss and builds, the others count hits and
/// wait on that entry.
///
/// With a capacity ([`Tier::with_capacity`]) the tier is an LRU: every
/// lookup stamps its entry from a logical clock, and a miss that would
/// exceed the bound first evicts the entry with the oldest stamp —
/// O(capacity) per overflowing insert, paid only by workloads whose key
/// set exceeds the bound. An entry still being built can be evicted
/// safely: its builder holds its own handle and still returns the value;
/// the tier merely forgets it, and the next request for the key is a fresh
/// miss.
#[derive(Debug)]
pub struct Tier<K, V> {
    inner: Arc<TierInner<K, V>>,
}

#[derive(Debug)]
struct TierInner<K, V> {
    store: Mutex<Store<K, V>>,
    /// Maximum resident entries; 0 means unbounded.
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// Resident entries plus the logical clock backing LRU ordering.
#[derive(Debug)]
struct Store<K, V> {
    entries: BTreeMap<K, Entry<V>>,
    /// Monotone lookup counter; entries stamp their last touch.
    tick: u64,
}

#[derive(Debug)]
struct Entry<V> {
    cell: Arc<OnceLock<V>>,
    last_used: u64,
}

impl<K, V> Clone for Tier<K, V> {
    fn clone(&self) -> Self {
        Tier { inner: Arc::clone(&self.inner) }
    }
}

impl<K: Ord + Clone, V: Clone> Default for Tier<K, V> {
    fn default() -> Self {
        Tier::with_capacity(0)
    }
}

impl<K: Ord + Clone, V: Clone> Tier<K, V> {
    /// Creates an empty tier retaining at most `capacity` entries (`0`
    /// means unbounded).
    pub fn with_capacity(capacity: usize) -> Self {
        Tier {
            inner: Arc::new(TierInner {
                store: Mutex::new(Store { entries: BTreeMap::new(), tick: 0 }),
                capacity,
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                evictions: AtomicU64::new(0),
            }),
        }
    }

    fn store(&self) -> MutexGuard<'_, Store<K, V>> {
        self.inner.store.lock().expect("tier lock")
    }

    /// The value for `key`: a clone of the resident value on a hit,
    /// `build(&key)` (retained) on a miss.
    ///
    /// If the build panics, the still-empty entry is removed before the
    /// unwind resumes, so the next request for the key counts a fresh miss
    /// instead of a hit that silently re-runs the failing build — every
    /// miss stays one build attempt.
    pub fn get(&self, key: K, build: impl FnOnce(&K) -> V) -> V {
        let cell = {
            let mut store = self.store();
            store.tick += 1;
            let tick = store.tick;
            if let Some(entry) = store.entries.get_mut(&key) {
                entry.last_used = tick;
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                Arc::clone(&entry.cell)
            } else {
                self.inner.misses.fetch_add(1, Ordering::Relaxed);
                let capacity = self.inner.capacity;
                if capacity > 0 && store.entries.len() >= capacity {
                    let victim = store
                        .entries
                        .iter()
                        .min_by_key(|(_, e)| e.last_used)
                        .map(|(k, _)| k.clone())
                        .expect("non-empty store at capacity");
                    store.entries.remove(&victim);
                    self.inner.evictions.fetch_add(1, Ordering::Relaxed);
                }
                let cell = Arc::new(OnceLock::new());
                store
                    .entries
                    .insert(key.clone(), Entry { cell: Arc::clone(&cell), last_used: tick });
                cell
            }
        };
        match panic::catch_unwind(AssertUnwindSafe(|| cell.get_or_init(|| build(&key)).clone())) {
            Ok(value) => value,
            Err(payload) => {
                {
                    let mut store = self.store();
                    let ours = store.entries.get(&key).is_some_and(|e| Arc::ptr_eq(&e.cell, &cell));
                    if ours && cell.get().is_none() {
                        store.entries.remove(&key);
                    }
                    // Guard dropped here: resuming the unwind while holding
                    // the lock would poison the whole tier.
                }
                panic::resume_unwind(payload)
            }
        }
    }

    /// Clones of the resident values whose build has finished.
    pub fn resident(&self) -> Vec<V> {
        self.store().entries.values().filter_map(|e| e.cell.get().cloned()).collect()
    }

    /// Number of resident entries, including ones still being built.
    pub fn len(&self) -> usize {
        self.store().entries.len()
    }

    /// Whether nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every resident entry (counters are retained).
    pub fn clear(&self) {
        self.store().entries.clear();
    }

    /// The capacity bound (`0` = unbounded).
    pub fn capacity(&self) -> usize {
        self.inner.capacity
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
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    #[test]
    fn racing_one_cold_key_builds_once() {
        let tier: Tier<u32, Arc<u64>> = Tier::default();
        let builds = AtomicUsize::new(0);
        let start = Barrier::new(8);
        let values: Vec<Arc<u64>> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        tier.get(3, |&k| {
                            builds.fetch_add(1, Ordering::Relaxed);
                            Arc::new(u64::from(k) * 7)
                        })
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().expect("racer")).collect()
        });
        assert_eq!(builds.load(Ordering::Relaxed), 1);
        assert_eq!(tier.stats(), CacheStats { hits: 7, misses: 1, evictions: 0 });
        assert!(values.iter().all(|v| Arc::ptr_eq(v, &values[0]) && **v == 21));
        assert_eq!(tier.resident().len(), 1);
    }

    #[test]
    fn hit_rate_reports_fraction() {
        let stats = CacheStats { hits: 3, misses: 1, evictions: 0 };
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        assert_eq!(stats.lookups(), 4);
        let more = CacheStats { hits: 1, misses: 2, evictions: 5 };
        let total: CacheStats = [stats, more].into_iter().sum();
        assert_eq!(total, CacheStats { hits: 4, misses: 3, evictions: 5 });
        assert_eq!(std::iter::empty().sum::<CacheStats>(), CacheStats::default());
    }
}
