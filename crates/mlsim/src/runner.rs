//! Unified lazy training runs: one API over the real trainers and the
//! staged-curve substrate, with memoized history and ground-truth finals.

use crate::curve::{cnn_curve, CnnKind, StagedCurveModel};
use crate::dataset;
use crate::hp::HpSetting;
use crate::train::gbt::GbtTrainer;
use crate::train::linreg::LinRegTrainer;
use crate::train::logreg::LogRegTrainer;
use crate::train::svm::{Kernel, SvmTrainer};
use crate::train::{LrSchedule, Trainer};
use crate::workload::{Algorithm, Workload};
use spottune_market::CacheStats;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Learning-rate calibration factor from Table II values to this harness's
/// smaller synthetic datasets (keeps the *relative* HP structure intact;
/// see DESIGN.md).
fn lr_scale(algorithm: Algorithm) -> f64 {
    match algorithm {
        Algorithm::LoR => 10.0,
        Algorithm::Svm => 50.0,
        Algorithm::Gbtr => 2.0,
        Algorithm::LiR => 3.0,
        Algorithm::AlexNet | Algorithm::ResNet => 1.0,
    }
}

enum Backend {
    Real(Box<dyn Trainer + Send>),
    Curve(StagedCurveModel),
    /// Completed curve served from the process-wide memo — no trainer (or
    /// dataset) is built at all.
    Cached(Arc<[f64]>),
}

impl fmt::Debug for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Backend::Real(_) => f.write_str("Backend::Real(..)"),
            Backend::Curve(c) => write!(f, "Backend::Curve({} stages)", c.stages().len()),
            Backend::Cached(c) => write!(f, "Backend::Cached({} steps)", c.len()),
        }
    }
}

/// Cache key: a run is fully determined by (algorithm, step budget, master
/// seed, configuration id).
type CurveKey = (&'static str, u64, u64, String);

/// A shared memo tier of *completed* metric curves.
///
/// Training runs are pure functions of their key, and every campaign
/// evaluates the full curve of every configuration at least once (the
/// report's ground-truth finals advance each run to `max_trial_steps`), so
/// the first campaign over a workload pays the training cost and every
/// later campaign — other θ values, other markets, other orchestrator
/// seeds, repeated bench iterations — replays the memo. This is what lets
/// the event-driven orchestrator's wall-clock be dominated by scheduling
/// rather than by re-training identical models.
///
/// The tier is an injectable handle: cloning shares the same storage and
/// counters, so a long-running server can hand one tier to every worker
/// (and report its hit rate), while [`CurveCache::global`] serves the
/// single-process default. Curves are deterministic in their key, so
/// concurrent publishers always agree on the entry's contents.
///
/// An optional capacity bound ([`CurveCache::with_capacity`]) turns the
/// tier into an LRU: many-seed sweeps touch a distinct curve set per master
/// seed, so an unbounded memo grows linearly with the sweep — a 10⁶-campaign
/// sweep over 10⁴ seeds would otherwise retain every curve it ever
/// completed. Evictions are counted in [`CacheStats::evictions`].
#[derive(Debug, Clone, Default)]
pub struct CurveCache {
    inner: Arc<CurveCacheInner>,
}

#[derive(Debug, Default)]
struct CurveCacheInner {
    curves: Mutex<CurveStore>,
    /// Maximum resident curves; 0 means unbounded.
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// Resident curves plus the logical clock backing LRU ordering.
#[derive(Debug, Default)]
struct CurveStore {
    entries: HashMap<CurveKey, CurveEntry>,
    /// Monotone lookup/publish counter; entries stamp their last touch.
    tick: u64,
}

#[derive(Debug)]
struct CurveEntry {
    curve: Arc<[f64]>,
    last_used: u64,
}

impl CurveStore {
    fn touch(&mut self, key: &CurveKey) -> Option<Arc<[f64]>> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(key).map(|e| {
            e.last_used = tick;
            Arc::clone(&e.curve)
        })
    }
}

impl CurveCache {
    /// Creates an empty, unbounded tier.
    pub fn new() -> Self {
        CurveCache::default()
    }

    /// Creates an empty tier retaining at most `capacity` curves, evicting
    /// the least-recently-used entry on overflow (`0` means unbounded).
    ///
    /// Eviction scans the resident entries for the oldest stamp — O(capacity)
    /// on each overflowing publish. The bound exists to cap *memory* on
    /// many-seed sweeps whose working set exceeds it; workloads that fit
    /// in `capacity` never pay the scan.
    pub fn with_capacity(capacity: usize) -> Self {
        CurveCache {
            inner: Arc::new(CurveCacheInner { capacity, ..CurveCacheInner::default() }),
        }
    }

    /// A handle to the process-wide default tier (what
    /// [`TrainingRun::new`] uses).
    pub fn global() -> CurveCache {
        static GLOBAL: OnceLock<CurveCache> = OnceLock::new();
        GLOBAL.get_or_init(CurveCache::new).clone()
    }

    /// The capacity bound (`0` = unbounded).
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Completed curve for `key`, counting the lookup as a hit or miss and
    /// refreshing the entry's recency.
    fn lookup(&self, key: &CurveKey) -> Option<Arc<[f64]>> {
        let found = self.inner.curves.lock().expect("curve cache lock").touch(key);
        match found {
            Some(curve) => {
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                Some(curve)
            }
            None => {
                self.inner.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Publishes a completed curve, returning the canonical shared copy
    /// (the first publisher wins; later ones — deterministic duplicates —
    /// adopt it). Evicts the least-recently-used entry when a capacity
    /// bound would be exceeded.
    fn publish(&self, key: CurveKey, curve: &[f64]) -> Arc<[f64]> {
        let mut store = self.inner.curves.lock().expect("curve cache lock");
        if let Some(existing) = store.touch(&key) {
            return existing;
        }
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
        let tick = store.tick;
        let shared: Arc<[f64]> = Arc::from(curve);
        store
            .entries
            .insert(key, CurveEntry { curve: Arc::clone(&shared), last_used: tick });
        shared
    }

    /// Number of memoized curves.
    pub fn len(&self) -> usize {
        self.inner.curves.lock().expect("curve cache lock").entries.len()
    }

    /// Whether no curve has completed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every memoized curve (for memory-sensitive sweeps and tests);
    /// counters are retained.
    pub fn clear(&self) {
        self.inner.curves.lock().expect("curve cache lock").entries.clear();
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

/// A lazily-advanced training run for one (workload, configuration) pair.
///
/// `metric_at(k)` is memoized, so checkpoint/restore in the simulator never
/// recomputes or diverges. The run is deterministic in `(workload, hp,
/// seed)`.
/// EWMA factor applied to the real trainers' reported validation metric.
///
/// Mini-batch SGD wiggles at its noise floor; reporting a smoothed metric
/// (standard practice) makes "the final metric" a well-defined quantity that
/// EarlyCurve can meaningfully predict instead of a single noisy endpoint
/// sample. The curve-model backends are already smooth and stay unsmoothed.
const METRIC_SMOOTHING: f64 = 0.25;

#[derive(Debug)]
pub struct TrainingRun {
    backend: Backend,
    key: CurveKey,
    cache: CurveCache,
    history: Vec<f64>,
    max_steps: u64,
    smoothed: Option<f64>,
}

impl TrainingRun {
    /// Builds the training run for one grid point of a benchmark, memoized
    /// through the process-wide [`CurveCache::global`] tier.
    pub fn new(workload: &Workload, hp: &HpSetting, seed: u64) -> Self {
        TrainingRun::with_cache(workload, hp, seed, &CurveCache::global())
    }

    /// Builds the training run against an explicit curve-memo tier.
    ///
    /// If this exact run has already been completed through `cache`, the
    /// memoized curve is reused and no trainer or dataset is constructed;
    /// otherwise the completed curve is published back into `cache`.
    pub fn with_cache(
        workload: &Workload,
        hp: &HpSetting,
        seed: u64,
        cache: &CurveCache,
    ) -> Self {
        TrainingRun::with_cache_keyed(workload, hp, hp.id(), seed, cache)
    }

    /// [`TrainingRun::with_cache`] with the configuration's id string
    /// supplied by the caller. `hp_id` must equal `hp.id()` — the job
    /// arena caches it per slot so a campaign reset on the memo-hit path
    /// never re-formats the setting (float formatting dominated the old
    /// per-reset cost).
    pub fn with_cache_keyed(
        workload: &Workload,
        hp: &HpSetting,
        hp_id: String,
        seed: u64,
        cache: &CurveCache,
    ) -> Self {
        debug_assert_eq!(hp_id, hp.id(), "hp_id must be the setting's own id");
        let max_steps = workload.max_trial_steps();
        let key: CurveKey = (workload.algorithm().name(), max_steps, seed, hp_id);
        if let Some(curve) = cache.lookup(&key) {
            return TrainingRun {
                backend: Backend::Cached(curve),
                key,
                cache: cache.clone(),
                history: Vec::new(),
                max_steps,
                smoothed: None,
            };
        }
        // Only the trainer backends consume the derived per-configuration
        // seed; hashing the id already formatted into the key is exactly
        // `seed ^ hp.stable_hash()`.
        let run_seed = seed ^ crate::hp::fnv1a(key.3.as_bytes());
        let backend = match workload.algorithm() {
            Algorithm::LoR => {
                let data = Arc::new(dataset::two_blobs(800, 40, 1.6, seed ^ LOR_SALT));
                let schedule = LrSchedule {
                    lr0: hp.float("lr") * lr_scale(Algorithm::LoR),
                    decay_rate: hp.float("dr"),
                    decay_steps: hp.int("ds") as u64,
                };
                Backend::Real(Box::new(LogRegTrainer::new(
                    data,
                    schedule,
                    hp.int("bs") as usize,
                    run_seed,
                )))
            }
            Algorithm::Svm => {
                let data = Arc::new(dataset::rings(600, 6, seed ^ SVM_SALT));
                let schedule = LrSchedule {
                    lr0: hp.float("lr") * lr_scale(Algorithm::Svm),
                    decay_rate: hp.float("dr"),
                    decay_steps: 100,
                };
                Backend::Real(Box::new(SvmTrainer::new(
                    data,
                    Kernel::parse(hp.text("kernel")),
                    schedule,
                    hp.int("bs") as usize,
                    run_seed,
                )))
            }
            Algorithm::Gbtr => {
                let data = Arc::new(dataset::nonlinear_target(600, 6, 0.15, seed ^ GBT_SALT));
                Backend::Real(Box::new(GbtTrainer::new(
                    data,
                    hp.float("lr") * lr_scale(Algorithm::Gbtr),
                    hp.int("bs") as usize,
                    hp.int("depth") as u32,
                    hp.int("nt") as usize,
                    run_seed,
                )))
            }
            Algorithm::LiR => {
                let data = Arc::new(dataset::linear_target(800, 30, 0.5, seed ^ LIR_SALT));
                let schedule = LrSchedule {
                    lr0: hp.float("lr") * lr_scale(Algorithm::LiR),
                    decay_rate: hp.float("dr"),
                    decay_steps: hp.int("ds") as u64,
                };
                Backend::Real(Box::new(LinRegTrainer::new(
                    data,
                    schedule,
                    hp.int("bs") as usize,
                    run_seed,
                )))
            }
            Algorithm::AlexNet => {
                Backend::Curve(cnn_curve(CnnKind::AlexNet, hp, max_steps, seed))
            }
            Algorithm::ResNet => Backend::Curve(cnn_curve(CnnKind::ResNet, hp, max_steps, seed)),
        };
        TrainingRun {
            backend,
            key,
            cache: cache.clone(),
            history: Vec::new(),
            max_steps,
            smoothed: None,
        }
    }

    /// The workload's `max_trial_steps`.
    pub fn max_steps(&self) -> u64 {
        self.max_steps
    }

    /// Advances to step `k` (1-based) if needed and returns the metric at
    /// `k`. Clamps at `max_steps`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn metric_at(&mut self, k: u64) -> f64 {
        assert!(k > 0, "steps are 1-based");
        let k = k.min(self.max_steps);
        while (self.history.len() as u64) < k {
            let next = self.history.len() as u64 + 1;
            let m = match &mut self.backend {
                Backend::Real(t) => {
                    let raw = t.step();
                    let s = match self.smoothed {
                        None => raw,
                        Some(prev) => METRIC_SMOOTHING * raw + (1.0 - METRIC_SMOOTHING) * prev,
                    };
                    self.smoothed = Some(s);
                    s
                }
                Backend::Curve(c) => c.metric_at(next),
                Backend::Cached(curve) => curve[(next - 1) as usize],
            };
            self.history.push(m);
        }
        if (self.history.len() as u64) == self.max_steps
            && !matches!(self.backend, Backend::Cached(_))
        {
            // Completed for the first time: publish the full curve into
            // this run's memo tier and switch onto it, so later
            // `metric_at` calls never touch the cache lock again.
            let curve = self.cache.publish(self.key.clone(), &self.history);
            self.backend = Backend::Cached(curve);
        }
        self.history[(k - 1) as usize]
    }

    /// Metric history `[step 1 ..= steps_computed]` computed so far.
    pub fn history(&self) -> &[f64] {
        &self.history
    }

    /// Ground-truth final metric at `max_trial_steps` (advances the run).
    pub fn final_metric(&mut self) -> f64 {
        self.metric_at(self.max_steps)
    }
}

/// Fully evaluates a benchmark: the ground-truth final metric of every grid
/// configuration, in grid order. Used by the oracle ranking evaluation
/// (paper Fig. 8(c) accuracy) and the baselines.
pub fn ground_truth_finals(workload: &Workload, seed: u64) -> Vec<f64> {
    ground_truth_finals_with_cache(workload, seed, &CurveCache::global())
}

/// [`ground_truth_finals`] against an explicit curve-memo tier.
pub fn ground_truth_finals_with_cache(
    workload: &Workload,
    seed: u64,
    cache: &CurveCache,
) -> Vec<f64> {
    workload
        .hp_grid()
        .iter()
        .map(|hp| TrainingRun::with_cache(workload, hp, seed, cache).final_metric())
        .collect()
}

// Distinct dataset-seed salts per benchmark.
const LOR_SALT: u64 = 0x10f2;
const SVM_SALT: u64 = 0x53f3;
const GBT_SALT: u64 = 0x6b77;
const LIR_SALT: u64 = 0x1177;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_are_deterministic_and_memoized() {
        let w = Workload::benchmark(Algorithm::LoR);
        let hp = w.hp_grid()[0].clone();
        let mut a = TrainingRun::new(&w, &hp, 42);
        let mut b = TrainingRun::new(&w, &hp, 42);
        assert_eq!(a.metric_at(10), b.metric_at(10));
        // Re-querying earlier steps hits the memo.
        let at5 = a.metric_at(5);
        assert_eq!(a.metric_at(5), at5);
        assert_eq!(a.history().len(), 10);
    }

    #[test]
    fn metric_clamps_at_max_steps() {
        let w = Workload::benchmark(Algorithm::ResNet);
        let hp = w.hp_grid()[0].clone();
        let mut run = TrainingRun::new(&w, &hp, 1);
        let last = run.metric_at(10_000);
        assert_eq!(run.history().len(), w.max_trial_steps() as usize);
        assert_eq!(last, run.final_metric());
    }

    #[test]
    fn all_benchmarks_produce_decreasing_losses() {
        for w in Workload::all_benchmarks() {
            let hp = w.hp_grid()[0].clone();
            let mut run = TrainingRun::new(&w, &hp, 7);
            let early = run.metric_at(2);
            let late = run.final_metric();
            assert!(
                late < early,
                "{}: loss should fall ({early} -> {late})",
                w.algorithm()
            );
        }
    }

    #[test]
    fn completed_runs_are_memoized_and_identical() {
        let w = Workload::benchmark(Algorithm::LiR);
        let hp = w.hp_grid()[1].clone();
        let mut first = TrainingRun::new(&w, &hp, 99);
        let full: Vec<f64> = (1..=w.max_trial_steps()).map(|k| first.metric_at(k)).collect();
        let mut replayed = TrainingRun::new(&w, &hp, 99);
        assert!(
            format!("{replayed:?}").contains("Cached"),
            "second run must come from the curve memo"
        );
        let replay: Vec<f64> = (1..=w.max_trial_steps()).map(|k| replayed.metric_at(k)).collect();
        assert_eq!(full, replay, "memoized curve must be bit-identical");
    }

    #[test]
    fn injected_tier_is_isolated_and_counts() {
        let w = Workload::benchmark(Algorithm::Gbtr);
        let hp = w.hp_grid()[2].clone();
        let tier = CurveCache::new();
        let mut first = TrainingRun::with_cache(&w, &hp, 4321, &tier);
        let a = first.final_metric();
        assert_eq!(tier.stats(), CacheStats { hits: 0, misses: 1, evictions: 0 });
        assert_eq!(tier.len(), 1);
        let mut second = TrainingRun::with_cache(&w, &hp, 4321, &tier);
        assert!(format!("{second:?}").contains("Cached"));
        assert_eq!(second.final_metric(), a);
        assert_eq!(tier.stats(), CacheStats { hits: 1, misses: 1, evictions: 0 });
        assert!((tier.stats().hit_rate() - 0.5).abs() < 1e-12);
        // A fresh tier knows nothing about the other tier's curves.
        let other = CurveCache::new();
        let third = TrainingRun::with_cache(&w, &hp, 4321, &other);
        assert!(!format!("{third:?}").contains("Cached"));
        assert_eq!(other.stats().misses, 1);
        // Shared handles see the same storage.
        assert_eq!(tier.clone().len(), 1);
        tier.clear();
        assert!(tier.is_empty());
    }

    #[test]
    fn bounded_tier_evicts_least_recently_used() {
        let w = Workload::benchmark(Algorithm::LiR);
        let grid = w.hp_grid();
        let tier = CurveCache::with_capacity(2);
        assert_eq!(tier.capacity(), 2);
        // Complete three distinct runs; the third insert overflows.
        for hp in grid.iter().take(3) {
            TrainingRun::with_cache(&w, hp, 7, &tier).final_metric();
        }
        assert_eq!(tier.len(), 2);
        assert_eq!(tier.stats().evictions, 1);
        // The first-completed (least recently used) curve was the victim:
        // replaying it misses, while the last two still hit.
        let miss0 = TrainingRun::with_cache(&w, &grid[0], 7, &tier);
        assert!(!format!("{miss0:?}").contains("Cached"));
        let hit2 = TrainingRun::with_cache(&w, &grid[2], 7, &tier);
        assert!(format!("{hit2:?}").contains("Cached"));
        // A recency refresh protects an old entry: touch curve 2, publish a
        // new one, and curve 2 must survive the eviction.
        drop(hit2);
        TrainingRun::with_cache(&w, &grid[3], 7, &tier).final_metric();
        let hit2_again = TrainingRun::with_cache(&w, &grid[2], 7, &tier);
        assert!(format!("{hit2_again:?}").contains("Cached"));
        // Unbounded tiers never evict.
        assert_eq!(CurveCache::new().capacity(), 0);
    }

    #[test]
    fn ground_truth_finals_are_distinct() {
        let w = Workload::benchmark(Algorithm::ResNet);
        let finals = ground_truth_finals(&w, 3);
        assert_eq!(finals.len(), 16);
        let distinct: std::collections::HashSet<i64> =
            finals.iter().map(|f| (f * 1e9) as i64).collect();
        assert!(distinct.len() > 8, "finals too degenerate: {finals:?}");
    }
}
