//! Logistic-regression baseline on flattened features (the third bar of
//! paper Fig. 10), trained by one lane-parallel SGD kernel: a pool's
//! per-market models step in lock-step, one lane each (see "Lock-step
//! training" in the crate docs).

use crate::dataset::{Sample, SlicedDataset, HISTORY_LEN, PRESENT_FEATURES};
use crate::features::RECORD_FEATURES;
use crate::model::{calibrate, ProbModel, TrainConfig, TrainStats};
use crate::probe::ProbeCtx;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use spottune_nn::activation::sigmoid;

/// Flattened input width: 59 history records × 6 features + 7 present.
pub const FLAT_FEATURES: usize = HISTORY_LEN * RECORD_FEATURES + PRESENT_FEATURES;

/// Flattened features ahead of the bid: the sample's 60-row feature window.
const WINDOW_FEATURES: usize = FLAT_FEATURES - 1;

/// Markets trained side by side by [`LogisticModel::train_lockstep`]: the
/// standard pool's six fill the lanes exactly (three SSE2 vectors); wider
/// lanes measured slower on it, see CHANGES.md PR 24.
pub const LANES: usize = 6;

/// Logistic regression over the flattened sample.
#[derive(Debug, Clone)]
pub struct LogisticModel {
    w: Vec<f64>,
    b: f64,
    phi_pos: f64,
    phi_neg: f64,
}

/// `L` equally-shaped training sets side by side, lane `l` holding model
/// `l`'s numbers. Sample `i` reads its leading [`WINDOW_FEATURES`] from
/// `x[starts[i]..]` — windows may overlap, which is how per-minute rows are
/// shared between samples — and its last feature from `bid[i]`.
struct LaneSet<const L: usize> {
    x: Vec<[f64; L]>,
    starts: Vec<usize>,
    bid: Vec<[f64; L]>,
    label: Vec<[bool; L]>,
}

impl LaneSet<1> {
    /// One model's samples, windows laid end to end.
    fn from_samples(samples: &[Sample]) -> Self {
        let mut x = Vec::with_capacity(samples.len() * WINDOW_FEATURES);
        for s in samples {
            x.extend(s.history.iter().flatten().map(|&v| [v]));
            x.extend(s.present[..RECORD_FEATURES].iter().map(|&v| [v]));
        }
        LaneSet {
            x,
            starts: (0..samples.len()).map(|i| i * WINDOW_FEATURES).collect(),
            bid: samples.iter().map(|s| [s.present[RECORD_FEATURES]]).collect(),
            label: samples.iter().map(|s| [s.label]).collect(),
        }
    }
}

impl<const L: usize> LaneSet<L> {
    /// Up to `L` markets' datasets over one sample grid, rows interleaved
    /// in place of per-sample copies; returns the lanes in use (the rest
    /// stay zero). Datasets after the first are dropped once copied, so a
    /// lazy iterator keeps at most two markets' rows alive.
    ///
    /// # Panics
    ///
    /// Panics if the datasets do not share their sample instants.
    fn interleave(mut sets: impl Iterator<Item = SlicedDataset>) -> (Self, usize) {
        let grid = sets.next().expect("at least one dataset per lane set");
        let n = grid.points().len();
        let mut lanes = LaneSet {
            x: vec![[0.0; L]; grid.rows().len() * RECORD_FEATURES],
            starts: grid
                .points()
                .iter()
                .map(|p| grid.window_start(p) * RECORD_FEATURES)
                .collect(),
            bid: vec![[0.0; L]; n],
            label: vec![[false; L]; n],
        };
        lanes.fill(0, &grid);
        let mut used = 1;
        for set in sets {
            assert!(used < L, "at most {L} datasets per lane set");
            assert!(
                set.rows().len() == grid.rows().len()
                    && set.points().len() == n
                    && set.points().iter().zip(grid.points()).all(|(a, b)| a.at == b.at),
                "lock-step training needs one sample grid across markets"
            );
            lanes.fill(used, &set);
            used += 1;
        }
        (lanes, used)
    }

    fn fill(&mut self, l: usize, set: &SlicedDataset) {
        for (row, lanes) in set.rows().iter().zip(self.x.chunks_exact_mut(RECORD_FEATURES)) {
            for (v, lane) in row.iter().zip(lanes) {
                lane[l] = *v;
            }
        }
        for (i, p) in set.points().iter().enumerate() {
            self.bid[i][l] = p.bid;
            self.label[i][l] = p.label;
        }
    }
}

/// `L` models' parameters, lane-interleaved like [`LaneSet`].
struct LaneWeights<const L: usize> {
    w: Vec<[f64; L]>,
    b: [f64; L],
}

/// `z += w·x` across the lanes. Rows are copied to locals in both helpers
/// so the compiler sees lane arithmetic free of aliasing and keeps it in
/// vector registers.
#[inline(always)]
fn accumulate_row<const L: usize>(z: &mut [f64; L], w: &[f64; L], x: &[f64; L]) {
    let (w, x) = (*w, *x);
    for l in 0..L {
        z[l] += w[l] * x[l];
    }
}

/// One SGD step on one feature's weights across the lanes (with the
/// `1e-5` L2 pull).
#[inline(always)]
fn update_row<const L: usize>(w: &mut [f64; L], x: &[f64; L], g: &[f64; L], lr: f64) {
    let (mut next, x) = (*w, *x);
    for l in 0..L {
        next[l] -= lr * (g[l] * x[l] + 1e-5 * next[l]);
    }
    *w = next;
}

/// The one SGD implementation: class-weighted, `cfg.epochs` passes in the
/// `cfg.seed ^ 0x106` shuffle order, every lane an independent model.
/// Within a lane each step is the scalar recipe term for term — the dot
/// product is a left fold from `-0.0` (what `Iterator::sum` does) over the
/// features in flatten order, then `+ b`; the update is
/// `w -= lr·(g·x + 1e-5·w)` — so neither the lanes nor the fused loop
/// below change a bit, only the schedule. Returns each lane's clamped
/// positive fraction `φ⁺`; mean epoch losses are pushed to `losses` when
/// asked for (they cost an `exp` and an `ln` per step that nothing else
/// needs).
fn sgd_lanes<const L: usize>(
    weights: &mut LaneWeights<L>,
    set: &LaneSet<L>,
    cfg: &TrainConfig,
    mut losses: Option<&mut Vec<[f64; L]>>,
) -> [f64; L] {
    let n = set.starts.len();
    let phi_pos: [f64; L] = std::array::from_fn(|l| {
        let n_pos = set.label.iter().filter(|y| y[l]).count();
        (n_pos as f64 / n as f64).clamp(0.02, 0.98)
    });
    // The shuffles are the only RNG draws, so the whole visiting order is
    // known up front — which lets each step look one sample ahead.
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x106);
    let mut order: Vec<usize> = (0..n).collect();
    let mut schedule = Vec::with_capacity(cfg.epochs * n);
    for _ in 0..cfg.epochs {
        order.shuffle(&mut rng);
        schedule.extend_from_slice(&order);
    }
    let Some(&first) = schedule.first() else {
        return phi_pos;
    };

    let lr = cfg.optim.lr * 10.0; // linear model tolerates a larger step
    let window = |i: usize| &set.x[set.starts[i]..][..WINDOW_FEATURES];
    let (w_window, w_bid) = weights.w.split_at_mut(WINDOW_FEATURES);
    let (w_bid, b) = (&mut w_bid[0], &mut weights.b);
    // `z` enters each step holding the window part of that sample's logit.
    let mut z = [-0.0; L];
    for (w, x) in w_window.iter().zip(window(first)) {
        accumulate_row(&mut z, w, x);
    }
    let mut total = [0.0; L];
    for (k, &i) in schedule.iter().enumerate() {
        let (x_bid, label) = (&set.bid[i], &set.label[i]);
        // Positives weigh φ⁻ and negatives φ⁺.
        let y = label.map(|y| if y { 1.0 } else { 0.0 });
        let weight: [f64; L] =
            std::array::from_fn(|l| if label[l] { 1.0 - phi_pos[l] } else { phi_pos[l] });
        let mut g = [0.0; L];
        for l in 0..L {
            z[l] += w_bid[l] * x_bid[l];
            z[l] += b[l];
            g[l] = weight[l] * (sigmoid(z[l]) - y[l]);
        }
        if let Some(losses) = losses.as_deref_mut() {
            for l in 0..L {
                // Stable weighted BCE.
                let softplus = (1.0 + (-z[l].abs()).exp()).ln() + z[l].max(0.0);
                total[l] += weight[l] * (softplus - y[l] * z[l]);
            }
            if (k + 1) % n == 0 {
                losses.push(total.map(|t| t / n as f64));
                total = [0.0; L];
            }
        }
        // One pass updates each weight row and, while it is in registers,
        // folds it into the next sample's dot product: the update is
        // throughput-bound and the fold one dependent add chain, so they
        // overlap. (After the last step the fold is simply unused.)
        let next = schedule.get(k + 1).copied().unwrap_or(i);
        z = [-0.0; L];
        for ((w, x), x_next) in w_window.iter_mut().zip(window(i)).zip(window(next)) {
            update_row(w, x, &g, lr);
            accumulate_row(&mut z, w, x_next);
        }
        for l in 0..L {
            w_bid[l] -= lr * (g[l] * x_bid[l] + 1e-5 * w_bid[l]);
            b[l] -= lr * g[l];
        }
    }
    phi_pos
}

impl Default for LogisticModel {
    fn default() -> Self {
        LogisticModel::new()
    }
}

impl LogisticModel {
    /// Creates an untrained model.
    pub fn new() -> Self {
        LogisticModel { w: vec![0.0; FLAT_FEATURES], b: 0.0, phi_pos: 0.5, phi_neg: 0.5 }
    }

    /// Trains with class-weighted SGD (only `epochs`, `batch`, `optim.lr`
    /// and `seed` of the config are used).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn train(&mut self, samples: &[Sample], cfg: &TrainConfig) -> TrainStats {
        assert!(!samples.is_empty(), "cannot train on an empty dataset");
        let mut weights =
            LaneWeights { w: self.w.iter().map(|&w| [w]).collect(), b: [self.b] };
        let mut losses = Vec::with_capacity(cfg.epochs);
        let [phi_pos] =
            sgd_lanes(&mut weights, &LaneSet::from_samples(samples), cfg, Some(&mut losses));
        *self = LogisticModel::from_lane(&weights, phi_pos, 0);
        TrainStats { epoch_losses: losses.into_iter().map(|[loss]| loss).collect(), phi_pos }
    }

    /// Trains one fresh model per dataset, [`LANES`] at a time in lock-step
    /// (a shorter last chunk runs with idle lanes). The datasets must share
    /// one sample grid, which per-market datasets over one `(from, to,
    /// stride)` always do; they are consumed as they are read, so a lazy
    /// iterator never has the whole pool's rows alive. Model `k` is
    /// bit-identical to `LogisticModel::new().train(samples_k, cfg)`.
    ///
    /// # Panics
    ///
    /// Panics if the datasets' sample instants differ.
    pub fn train_lockstep(
        sets: impl IntoIterator<Item = SlicedDataset>,
        cfg: &TrainConfig,
    ) -> Vec<LogisticModel> {
        let mut sets = sets.into_iter().peekable();
        let mut models = Vec::new();
        while sets.peek().is_some() {
            let (set, used) = LaneSet::<LANES>::interleave(sets.by_ref().take(LANES));
            let mut weights = LaneWeights { w: vec![[0.0; LANES]; FLAT_FEATURES], b: [0.0; LANES] };
            let phi_pos = sgd_lanes(&mut weights, &set, cfg, None);
            models.extend((0..used).map(|l| LogisticModel::from_lane(&weights, phi_pos[l], l)));
        }
        models
    }

    fn from_lane<const L: usize>(weights: &LaneWeights<L>, phi_pos: f64, l: usize) -> Self {
        LogisticModel {
            w: weights.w.iter().map(|w| w[l]).collect(),
            b: weights.b[l],
            phi_pos,
            phi_neg: 1.0 - phi_pos,
        }
    }

    /// Raw probability before calibration.
    pub fn predict_raw(&self, sample: &Sample) -> f64 {
        // The flattened dot product as one left fold from `-0.0` (what
        // `Iterator::sum` starts from), in plain loops: zipping the weights
        // with a `flatten().chain()` iterator measured 1.5x slower than the
        // copy it replaced, this 0.6x (CHANGES.md PR 24).
        let (w_history, w_present) = self.w.split_at(HISTORY_LEN * RECORD_FEATURES);
        let mut z = -0.0;
        for (w, rec) in w_history.chunks_exact(RECORD_FEATURES).zip(&sample.history) {
            for (w, x) in w.iter().zip(rec) {
                z += w * x;
            }
        }
        for (w, x) in w_present.iter().zip(&sample.present) {
            z += w * x;
        }
        sigmoid(z + self.b)
    }
}

impl ProbModel for LogisticModel {
    fn predict(&self, sample: &Sample) -> f64 {
        calibrate(self.predict_raw(sample), self.phi_pos, self.phi_neg)
    }

    fn name(&self) -> &'static str {
        "LogisticRegression"
    }

    /// The bid is the last flattened feature, so the dot product's 360-term
    /// left-fold prefix is bid-independent. Accumulated in flatten order
    /// (history records, then the leading present features) so the fold is
    /// the same one `predict` computes.
    fn probe_ctx(&self, sample: &Sample) -> ProbeCtx {
        let mut prefix = 0.0f64;
        let mut weights = self.w.iter();
        for rec in &sample.history {
            for &x in rec {
                prefix += weights.next().expect("weight per feature") * x;
            }
        }
        for &x in &sample.present[..RECORD_FEATURES] {
            prefix += weights.next().expect("weight per feature") * x;
        }
        ProbeCtx::Logistic { prefix }
    }

    /// `(prefix + w_bid·bid) + b` continues the cached fold exactly where
    /// `predict`'s full fold would have been after 360 terms — bit-identical.
    fn predict_probe(&self, ctx: &ProbeCtx, bid_feature: f64) -> f64 {
        let ProbeCtx::Logistic { prefix } = ctx else {
            unreachable!("probe context from a different model family");
        };
        let z = prefix + self.w[FLAT_FEATURES - 1] * bid_feature + self.b;
        calibrate(sigmoid(z), self.phi_pos, self.phi_neg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{build_dataset, DeltaPolicy};
    use spottune_market::prelude::*;

    fn flatten(sample: &Sample) -> Vec<f64> {
        let mut x = Vec::with_capacity(FLAT_FEATURES);
        for rec in &sample.history {
            x.extend_from_slice(rec);
        }
        x.extend_from_slice(&sample.present);
        x
    }

    /// Per-market scalar SGD as it was before the lane kernel — the
    /// reference every lane is locked against, bit for bit.
    fn train_scalar(samples: &[Sample], cfg: &TrainConfig) -> (LogisticModel, TrainStats) {
        let mut m = LogisticModel::new();
        let n_pos = samples.iter().filter(|s| s.label).count();
        m.phi_pos = (n_pos as f64 / samples.len() as f64).clamp(0.02, 0.98);
        m.phi_neg = 1.0 - m.phi_pos;
        let (w_pos, w_neg) = (m.phi_neg, m.phi_pos);
        let xs: Vec<Vec<f64>> = samples.iter().map(flatten).collect();

        let lr = cfg.optim.lr * 10.0;
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x106);
        let mut order: Vec<usize> = (0..samples.len()).collect();
        let mut epoch_losses = Vec::with_capacity(cfg.epochs);
        for _ in 0..cfg.epochs {
            order.shuffle(&mut rng);
            let mut total = 0.0;
            for &i in &order {
                let x = &xs[i];
                let y = if samples[i].label { 1.0 } else { 0.0 };
                let weight = if samples[i].label { w_pos } else { w_neg };
                let z: f64 = m.w.iter().zip(x).map(|(w, x)| w * x).sum::<f64>() + m.b;
                let p = sigmoid(z);
                let softplus = (1.0 + (-z.abs()).exp()).ln() + z.max(0.0);
                total += weight * (softplus - y * z);
                let g = weight * (p - y);
                for (w, &xi) in m.w.iter_mut().zip(x) {
                    *w -= lr * (g * xi + 1e-5 * *w);
                }
                m.b -= lr * g;
            }
            epoch_losses.push(total / samples.len() as f64);
        }
        let phi_pos = m.phi_pos;
        (m, TrainStats { epoch_losses, phi_pos })
    }

    fn bits(m: &LogisticModel) -> (Vec<u64>, u64, u64, u64) {
        let w = m.w.iter().map(|w| w.to_bits()).collect();
        (w, m.b.to_bits(), m.phi_pos.to_bits(), m.phi_neg.to_bits())
    }

    /// Trains `pool` both ways over `[from, to)` and compares every market:
    /// lock-step lane, one-lane `train` (with its losses) and the scalar
    /// reference must agree in every weight bit.
    fn assert_lanes_match_scalar(pool: &MarketPool, from: SimTime, to: SimTime, seed: u64) {
        let cfg = TrainConfig { seed, ..TrainConfig::default() };
        let stride = SimDur::from_mins(20);
        let policy = DeltaPolicy::Algorithm2;
        let data_seed = |m: &SpotMarket| seed ^ m.instance().name().len() as u64;
        let sets: Vec<SlicedDataset> = pool
            .iter()
            .map(|m| SlicedDataset::build(m, from, to, stride, policy, data_seed(m)))
            .collect();
        let lanes = LogisticModel::train_lockstep(sets, &cfg);
        assert_eq!(lanes.len(), pool.len());
        for (market, lane) in pool.iter().zip(&lanes) {
            let name = market.instance().name();
            let samples = build_dataset(market, from, to, stride, policy, data_seed(market));
            let (reference, ref_stats) = train_scalar(&samples, &cfg);
            assert_eq!(bits(lane), bits(&reference), "{name} seed {seed}: lane vs scalar");
            let mut single = LogisticModel::new();
            let stats = single.train(&samples, &cfg);
            assert_eq!(bits(&single), bits(&reference), "{name} seed {seed}: one lane vs scalar");
            let loss_bits = |s: &TrainStats| -> Vec<u64> {
                s.epoch_losses.iter().map(|l| l.to_bits()).collect()
            };
            assert_eq!(loss_bits(&stats), loss_bits(&ref_stats), "{name} seed {seed}: losses");
            assert_eq!(stats.phi_pos.to_bits(), ref_stats.phi_pos.to_bits());
            // `predict_raw` is the flattened dot product it always was.
            for s in &samples {
                let z: f64 =
                    lane.w.iter().zip(&flatten(s)).map(|(w, x)| w * x).sum::<f64>() + lane.b;
                assert_eq!(lane.predict_raw(s).to_bits(), sigmoid(z).to_bits(), "{name} at {}", s.at);
            }
        }
    }

    #[test]
    fn lockstep_lanes_match_scalar_sgd_on_standard_pools() {
        for days in [2u64, 12] {
            for seed in 0..8u64 {
                let pool = MarketPool::standard(SimDur::from_days(days), seed);
                let to = SimTime::from_hours(days * 24 * 3 / 4);
                assert_lanes_match_scalar(&pool, SimTime::from_hours(2), to, seed);
            }
        }
    }

    #[test]
    fn lockstep_pads_and_chunks_pools_of_any_size() {
        // 1 and 5 markets leave idle lanes, 7 and 13 spill into further
        // chunks (13 = 6 + 6 + 1).
        let regimes = [Regime::Volatile, Regime::Spiky, Regime::Diurnal, Regime::Stable];
        for size in [1usize, 5, 7, 13] {
            let markets = (0..size)
                .map(|i| {
                    let inst = InstanceType::new(format!("t{i}.{}", "x".repeat(i % 3)), 2, 8.0, 0.1 + 0.05 * i as f64);
                    let generator = TraceGenerator::preset(regimes[i % regimes.len()]);
                    let trace = generator.generate(&inst, SimDur::from_days(1), 40 + i as u64);
                    SpotMarket::new(inst, trace)
                })
                .collect();
            let pool = MarketPool::new(markets);
            // Starts inside the first hour: history windows saturate at 0.
            assert_lanes_match_scalar(&pool, SimTime::from_mins(25), SimTime::from_hours(18), 3);
        }
    }

    #[test]
    #[should_panic(expected = "one sample grid")]
    fn lockstep_rejects_mismatched_grids() {
        let pool = MarketPool::standard(SimDur::from_days(1), 1);
        let build = |m: &SpotMarket, from_h: u64| {
            SlicedDataset::build(
                m,
                SimTime::from_hours(from_h),
                SimTime::from_hours(from_h + 6),
                SimDur::from_mins(20),
                DeltaPolicy::Algorithm2,
                1,
            )
        };
        let sets = vec![build(&pool.markets()[0], 2), build(&pool.markets()[1], 3)];
        let _ = LogisticModel::train_lockstep(sets, &TrainConfig::default());
    }

    #[test]
    fn trains_on_market_data() {
        let pool = MarketPool::standard(SimDur::from_days(3), 5);
        let market = pool.market("r4.large").unwrap();
        let samples = build_dataset(
            market,
            SimTime::from_hours(2),
            SimTime::from_hours(50),
            SimDur::from_mins(15),
            DeltaPolicy::Algorithm2,
            13,
        );
        let cfg = TrainConfig { epochs: 4, ..TrainConfig::default() };
        let mut m = LogisticModel::new();
        let stats = m.train(&samples, &cfg);
        assert!(stats.epoch_losses.last().unwrap() <= &stats.epoch_losses[0]);
        let p = m.predict(&samples[0]);
        assert!((0.0..=1.0).contains(&p));
        assert_eq!(m.name(), "LogisticRegression");
    }

    #[test]
    fn flatten_width_matches_constant() {
        let pool = MarketPool::standard(SimDur::from_days(1), 5);
        let market = pool.market("r4.large").unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let s = crate::dataset::build_sample(
            market,
            SimTime::from_hours(3),
            DeltaPolicy::Algorithm2,
            &mut rng,
        );
        assert_eq!(flatten(&s).len(), FLAT_FEATURES);
    }
}
