//! Unified training runs: one API over the real trainers and the
//! staged-curve substrate, served from a shared tier of complete curves.

use crate::curve::{cnn_curve, CnnKind};
use crate::dataset;
use crate::hp::HpSetting;
use crate::train::gbt::GbtTrainer;
use crate::train::linreg::LinRegTrainer;
use crate::train::logreg::LogRegTrainer;
use crate::train::svm::{Kernel, SvmTrainer};
use crate::train::{LrSchedule, Trainer};
use crate::workload::{Algorithm, Workload};
use spottune_market::Tier;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// Learning-rate calibration factor from Table II values to this harness's
/// smaller synthetic datasets (keeps the *relative* HP structure intact;
/// see the crate's design notes).
fn lr_scale(algorithm: Algorithm) -> f64 {
    match algorithm {
        Algorithm::LoR => 10.0,
        Algorithm::Svm => 50.0,
        Algorithm::Gbtr => 2.0,
        Algorithm::LiR => 3.0,
        Algorithm::AlexNet | Algorithm::ResNet => 1.0,
    }
}

/// EWMA factor applied to the real trainers' reported validation metric.
///
/// Mini-batch SGD wiggles at its noise floor; reporting a smoothed metric
/// (standard practice) makes "the final metric" a well-defined quantity that
/// EarlyCurve can meaningfully predict instead of a single noisy endpoint
/// sample. The curve-model backends are already smooth and stay unsmoothed.
const METRIC_SMOOTHING: f64 = 0.25;

/// Cache key: a run is fully determined by (algorithm, step budget, master
/// seed, configuration id).
type CurveKey = (&'static str, u64, u64, String);

/// The shared tier of complete metric curves: a [`Tier`] keyed by
/// (algorithm, step budget, master seed, configuration id).
///
/// Training runs are pure functions of their key, and every campaign
/// evaluates the full curve of every configuration at least once (the
/// report's ground-truth finals advance each run to `max_trial_steps`), so
/// a miss builds the *complete* curve inside the tier and every later run
/// of the key — other θ values, other markets, other policies, repeated
/// bench iterations — replays it. Builds are single-flight: sessions racing
/// on one cold key build its curve once.
///
/// The tier is an injectable handle: cloning shares the same storage and
/// counters, so a long-running server can hand one tier to every worker
/// (and report its hit rate), while [`CurveCache::global`] serves the
/// single-process default.
///
/// An optional capacity bound ([`CurveCache::with_capacity`]) turns the
/// tier into an LRU: many-seed sweeps touch a distinct curve set per master
/// seed, so an unbounded memo grows linearly with the sweep.
#[derive(Debug, Clone, Default)]
pub struct CurveCache(Tier<CurveKey, Arc<[f64]>>);

impl Deref for CurveCache {
    type Target = Tier<CurveKey, Arc<[f64]>>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl CurveCache {
    /// Creates an empty, unbounded tier.
    pub fn new() -> Self {
        CurveCache::default()
    }

    /// Creates an empty tier retaining at most `capacity` curves, evicting
    /// the least-recently-used entry on overflow (`0` means unbounded).
    pub fn with_capacity(capacity: usize) -> Self {
        CurveCache(Tier::with_capacity(capacity))
    }

    /// A handle to the process-wide default tier (what
    /// [`TrainingRun::new`] uses).
    pub fn global() -> CurveCache {
        static GLOBAL: OnceLock<CurveCache> = OnceLock::new();
        GLOBAL.get_or_init(CurveCache::new).clone()
    }

    /// The complete curve of `hp` on `workload` under master `seed`,
    /// `max_trial_steps` metrics long: shared on a hit, built on a miss.
    /// `hp_id` must equal `hp.id()` — the job arena caches it per slot so a
    /// campaign reset never re-formats the setting.
    pub fn get(&self, workload: &Workload, hp: &HpSetting, hp_id: String, seed: u64) -> Arc<[f64]> {
        debug_assert_eq!(hp_id, hp.id(), "hp_id must be the setting's own id");
        let key = (workload.algorithm().name(), workload.max_trial_steps(), seed, hp_id);
        self.0.get(key, |key| build_curve(workload, hp, key))
    }
}

/// Runs one configuration to its step budget: the staged curve model for
/// the CNN benchmarks, otherwise the real trainer with its reported metric
/// EWMA-smoothed.
fn build_curve(workload: &Workload, hp: &HpSetting, key: &CurveKey) -> Arc<[f64]> {
    let (_, steps, seed, ref hp_id) = *key;
    // Only the trainers consume the derived per-configuration seed;
    // hashing the id already formatted into the key is exactly
    // `seed ^ hp.stable_hash()`.
    let run_seed = seed ^ crate::hp::fnv1a(hp_id.as_bytes());
    let mut trainer: Box<dyn Trainer> = match workload.algorithm() {
        Algorithm::LoR => {
            let data = Arc::new(dataset::two_blobs(800, 40, 1.6, seed ^ LOR_SALT));
            let schedule = LrSchedule {
                lr0: hp.float("lr") * lr_scale(Algorithm::LoR),
                decay_rate: hp.float("dr"),
                decay_steps: hp.int("ds") as u64,
            };
            Box::new(LogRegTrainer::new(data, schedule, hp.int("bs") as usize, run_seed))
        }
        Algorithm::Svm => {
            let data = Arc::new(dataset::rings(600, 6, seed ^ SVM_SALT));
            let schedule = LrSchedule {
                lr0: hp.float("lr") * lr_scale(Algorithm::Svm),
                decay_rate: hp.float("dr"),
                decay_steps: 100,
            };
            Box::new(SvmTrainer::new(
                data,
                Kernel::parse(hp.text("kernel")),
                schedule,
                hp.int("bs") as usize,
                run_seed,
            ))
        }
        Algorithm::Gbtr => {
            let data = Arc::new(dataset::nonlinear_target(600, 6, 0.15, seed ^ GBT_SALT));
            Box::new(GbtTrainer::new(
                data,
                hp.float("lr") * lr_scale(Algorithm::Gbtr),
                hp.int("bs") as usize,
                hp.int("depth") as u32,
                hp.int("nt") as usize,
                run_seed,
            ))
        }
        Algorithm::LiR => {
            let data = Arc::new(dataset::linear_target(800, 30, 0.5, seed ^ LIR_SALT));
            let schedule = LrSchedule {
                lr0: hp.float("lr") * lr_scale(Algorithm::LiR),
                decay_rate: hp.float("dr"),
                decay_steps: hp.int("ds") as u64,
            };
            Box::new(LinRegTrainer::new(data, schedule, hp.int("bs") as usize, run_seed))
        }
        cnn @ (Algorithm::AlexNet | Algorithm::ResNet) => {
            let kind = if cnn == Algorithm::AlexNet { CnnKind::AlexNet } else { CnnKind::ResNet };
            let model = cnn_curve(kind, hp, steps, seed);
            return (1..=steps).map(|k| model.metric_at(k)).collect();
        }
    };
    let mut smoothed: Option<f64> = None;
    (0..steps)
        .map(|_| {
            let raw = trainer.step();
            let s = match smoothed {
                None => raw,
                Some(prev) => METRIC_SMOOTHING * raw + (1.0 - METRIC_SMOOTHING) * prev,
            };
            smoothed = Some(s);
            s
        })
        .collect()
}

/// One (workload, configuration) training run: a read-only view of its
/// complete metric curve in a [`CurveCache`], deterministic in `(workload,
/// hp, seed)`, so checkpoint/restore in the simulator never recomputes or
/// diverges.
#[derive(Debug)]
pub struct TrainingRun {
    curve: Arc<[f64]>,
}

impl TrainingRun {
    /// The training run for one grid point of a benchmark, served from the
    /// process-wide [`CurveCache::global`] tier.
    pub fn new(workload: &Workload, hp: &HpSetting, seed: u64) -> Self {
        TrainingRun::with_cache(workload, hp, seed, &CurveCache::global())
    }

    /// The training run served from an explicit curve tier (built into it
    /// on a miss).
    pub fn with_cache(
        workload: &Workload,
        hp: &HpSetting,
        seed: u64,
        cache: &CurveCache,
    ) -> Self {
        TrainingRun::with_cache_keyed(workload, hp, hp.id(), seed, cache)
    }

    /// [`TrainingRun::with_cache`] with the configuration's id string
    /// supplied by the caller (see [`CurveCache::get`]).
    pub fn with_cache_keyed(
        workload: &Workload,
        hp: &HpSetting,
        hp_id: String,
        seed: u64,
        cache: &CurveCache,
    ) -> Self {
        TrainingRun { curve: cache.get(workload, hp, hp_id, seed) }
    }

    /// The workload's `max_trial_steps`.
    pub fn max_steps(&self) -> u64 {
        self.curve.len() as u64
    }

    /// The metric after step `k` (1-based), clamped at `max_steps`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn metric_at(&self, k: u64) -> f64 {
        assert!(k > 0, "steps are 1-based");
        self.curve[(k.min(self.max_steps()) - 1) as usize]
    }

    /// Ground-truth final metric at `max_trial_steps`.
    pub fn final_metric(&self) -> f64 {
        self.metric_at(self.max_steps())
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
    use spottune_market::CacheStats;

    #[test]
    fn runs_are_deterministic_and_memoized() {
        let w = Workload::benchmark(Algorithm::LoR);
        let hp = w.hp_grid()[0].clone();
        let a = TrainingRun::new(&w, &hp, 42);
        let b = TrainingRun::new(&w, &hp, 42);
        for k in 1..=10 {
            assert_eq!(a.metric_at(k).to_bits(), b.metric_at(k).to_bits(), "step {k}");
        }
    }

    #[test]
    fn metric_clamps_at_max_steps() {
        let w = Workload::benchmark(Algorithm::ResNet);
        let hp = w.hp_grid()[0].clone();
        let run = TrainingRun::new(&w, &hp, 1);
        let last = run.metric_at(10_000);
        assert_eq!(run.max_steps(), w.max_trial_steps());
        assert_eq!(last, run.metric_at(w.max_trial_steps()));
        assert_eq!(last, run.final_metric());
    }

    #[test]
    fn all_benchmarks_produce_decreasing_losses() {
        for w in Workload::all_benchmarks() {
            let hp = w.hp_grid()[0].clone();
            let run = TrainingRun::new(&w, &hp, 7);
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
        let tier = CurveCache::new();
        let first = TrainingRun::with_cache(&w, &hp, 99, &tier);
        let full: Vec<f64> = (1..=w.max_trial_steps()).map(|k| first.metric_at(k)).collect();
        let replayed = TrainingRun::with_cache(&w, &hp, 99, &tier);
        assert_eq!(tier.stats().hits, 1, "second run must come from the curve memo");
        let replay: Vec<f64> = (1..=w.max_trial_steps()).map(|k| replayed.metric_at(k)).collect();
        assert_eq!(full, replay, "memoized curve must be bit-identical");
    }

    #[test]
    fn injected_tier_is_isolated_and_counts() {
        let w = Workload::benchmark(Algorithm::Gbtr);
        let hp = w.hp_grid()[2].clone();
        let tier = CurveCache::new();
        let a = TrainingRun::with_cache(&w, &hp, 4321, &tier).final_metric();
        assert_eq!(tier.stats(), CacheStats { hits: 0, misses: 1, evictions: 0 });
        assert_eq!(tier.len(), 1);
        let second = TrainingRun::with_cache(&w, &hp, 4321, &tier);
        assert_eq!(second.final_metric(), a);
        assert_eq!(tier.stats(), CacheStats { hits: 1, misses: 1, evictions: 0 });
        assert!((tier.stats().hit_rate() - 0.5).abs() < 1e-12);
        // A fresh tier knows nothing about the other tier's curves, and
        // builds the same one.
        let other = CurveCache::new();
        let third = TrainingRun::with_cache(&w, &hp, 4321, &other);
        assert_eq!(other.stats(), CacheStats { hits: 0, misses: 1, evictions: 0 });
        assert_eq!(third.final_metric(), a);
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
        let run = |i: usize| TrainingRun::with_cache(&w, &grid[i], 7, &tier);
        // Three distinct curves; the third insert overflows.
        for i in 0..3 {
            run(i);
        }
        assert_eq!(tier.len(), 2);
        assert_eq!(tier.stats(), CacheStats { hits: 0, misses: 3, evictions: 1 });
        // Curve 0 (least recently used) was the victim: replaying it misses
        // and displaces curve 1, while curve 2 still hits.
        run(0);
        run(2);
        assert_eq!(tier.stats(), CacheStats { hits: 1, misses: 4, evictions: 2 });
        // A recency refresh protects an older entry: curve 2 was inserted
        // before curve 0 but touched after it, so curve 3 displaces curve 0.
        run(3);
        run(2);
        assert_eq!(tier.stats(), CacheStats { hits: 2, misses: 5, evictions: 3 });
        assert_eq!(tier.len(), 2);
        // Unbounded tiers never evict.
        assert_eq!(CurveCache::new().capacity(), 0);
    }

    #[test]
    fn racing_one_cold_curve_builds_once() {
        let w = Workload::benchmark(Algorithm::LoR);
        let hp = &w.hp_grid()[3];
        let tier = CurveCache::new();
        let start = std::sync::Barrier::new(8);
        let finals: Vec<f64> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        TrainingRun::with_cache(&w, hp, 17, &tier).final_metric()
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().expect("racer")).collect()
        });
        // One thread inserted the entry and built the curve; the other
        // seven found it and waited on the same cell.
        assert_eq!(tier.stats(), CacheStats { hits: 7, misses: 1, evictions: 0 });
        assert!(finals.iter().all(|f| f.to_bits() == finals[0].to_bits()));
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
