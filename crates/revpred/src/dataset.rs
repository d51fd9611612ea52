//! Training-sample assembly for the revocation predictors: sliding windows
//! over a market's price trace, the Algorithm-2 max-price generation, and
//! ground-truth labels.

use crate::features::{features_at, RECORD_FEATURES};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use spottune_market::stats::trimmed_mean_with_zeros;
use spottune_market::time::HOUR;
use spottune_market::{SimDur, SimTime, SpotMarket};

/// History window length: "the history prices across the past 59 minutes"
/// (§III.B).
pub const HISTORY_LEN: usize = 59;

/// Width of the present record: six engineered features plus the maximum
/// price.
pub const PRESENT_FEATURES: usize = RECORD_FEATURES + 1;

/// One supervised sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// `HISTORY_LEN` normalized feature records, oldest first.
    pub history: Vec<[f64; RECORD_FEATURES]>,
    /// Present record: 6 normalized features + normalized max price.
    pub present: [f64; PRESENT_FEATURES],
    /// Whether the market price exceeded the max price within the next hour.
    pub label: bool,
    /// Sample timestamp (for splits and debugging).
    pub at: SimTime,
}

/// How the training max price is generated from the current price.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaPolicy {
    /// RevPred's Algorithm 2: current price + trimmed mean (drop smallest
    /// and largest 20 %) of the absolute per-minute price changes over the
    /// previous hour — deltas near the revoked/not-revoked decision border
    /// (an active-learning argument, §III.B).
    Algorithm2,
    /// Tributary's policy: current price + Uniform(1e-5, 0.2) [1].
    UniformRandom,
}

/// The Algorithm-2 delta at time `t`: trimmed mean of `|Δprice|` over the
/// previous hour.
pub fn algorithm2_delta(market: &SpotMarket, t: SimTime) -> f64 {
    let hour_ago = t.saturating_sub(SimDur::from_secs(HOUR));
    let window = market.trace().window(hour_ago, t.max(SimTime::from_mins(2)));
    // Prices are step functions, so most of the hour's (at most 59) deltas
    // are zero: only the actual moves are collected and sorted.
    let mut moves = [0.0f64; 60];
    let mut n = 0;
    for pair in window.windows(2) {
        let d = (pair[1] - pair[0]).abs();
        if d != 0.0 {
            moves[n] = d;
            n += 1;
        }
    }
    let deltas = window.len().saturating_sub(1);
    trimmed_mean_with_zeros(deltas - n, &mut moves[..n], 0.2)
}

/// Builds one (unlabeled) input at `t` with an explicit max price.
pub fn build_input(market: &SpotMarket, t: SimTime, max_price: f64) -> Sample {
    let od = market.instance().on_demand_price();
    let trace = market.trace();
    let mut history = Vec::with_capacity(HISTORY_LEN);
    for back in (1..=HISTORY_LEN).rev() {
        let at = t.saturating_sub(SimDur::from_mins(back as u64));
        history.push(features_at(trace, at, od));
    }
    let now = features_at(trace, t, od);
    let mut present = [0.0; PRESENT_FEATURES];
    present[..RECORD_FEATURES].copy_from_slice(&now);
    present[RECORD_FEATURES] = max_price / od;
    Sample { history, present, label: false, at: t }
}

/// Draws the training max price at `t` under `policy` — the only part of a
/// sample that consumes `rng`.
fn draw_max_price(market: &SpotMarket, t: SimTime, policy: DeltaPolicy, rng: &mut StdRng) -> f64 {
    let delta = match policy {
        DeltaPolicy::Algorithm2 => {
            // Half the samples sit at the decision border — current price
            // plus (jittered) average fluctuation, the active-learning
            // argument of §III.B — and half cover the full inference-time
            // delta range so random max prices are in-distribution. On the
            // paper's us-east-1 traces the average fluctuation itself spans
            // the [1e-5, 0.2] range; our synthetic markets trade at smaller
            // absolute prices, so coverage needs the explicit mixture (see
            // "The Algorithm-2 delta mixture" in the crate docs).
            if rng.random_bool(0.5) {
                let d = algorithm2_delta(market, t);
                let d = if d > 0.0 { d } else { 1e-4 };
                d * rng.random_range(0.5..3.0)
            } else {
                rng.random_range(0.00001..0.2)
            }
        }
        DeltaPolicy::UniformRandom => rng.random_range(0.00001..0.2),
    };
    market.price_at(t) + delta
}

/// Builds a labeled sample at `t` using the given delta policy.
pub fn build_sample(
    market: &SpotMarket,
    t: SimTime,
    policy: DeltaPolicy,
    rng: &mut StdRng,
) -> Sample {
    let max_price = draw_max_price(market, t, policy, rng);
    let mut sample = build_input(market, t, max_price);
    sample.label = market.revoked_within_hour(t, max_price);
    sample
}

/// One sample of a [`SlicedDataset`]: everything but the feature window.
pub(crate) struct SamplePoint {
    pub(crate) at: SimTime,
    /// Normalized max price — the present record's last slot.
    pub(crate) bid: f64,
    pub(crate) label: bool,
}

/// A market's dataset before its 60-row windows are copied out into
/// [`Sample`]s: the normalized per-minute feature rows, computed once for
/// the whole sampling window, plus each sample's instant, bid and label.
/// [`build_dataset`] materializes it; the lock-step logistic trainer
/// ([`crate::LogisticModel::train_lockstep`]) reads the rows in place.
///
/// [`features_at`] sees its instant only through the minute index, and a
/// dataset's samples overlap (60 records each, 20 minutes apart in the
/// standard split), so assembling samples one by one computes every record
/// about three times. Row `k` holds the record at minute `first + k − 59`,
/// saturating at minute 0 exactly like `build_input`'s `saturating_sub`, so
/// the 59 history records and the present record of any sample are one
/// contiguous slice of `HISTORY_LEN + 1` rows.
pub struct SlicedDataset {
    first: u64,
    rows: Vec<[f64; RECORD_FEATURES]>,
    points: Vec<SamplePoint>,
}

impl SlicedDataset {
    /// Slides over `[from, to)` with `stride`, drawing max prices exactly as
    /// a [`build_sample`] loop seeded with `seed` would.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty or the stride is zero.
    pub fn build(
        market: &SpotMarket,
        from: SimTime,
        to: SimTime,
        stride: SimDur,
        policy: DeltaPolicy,
        seed: u64,
    ) -> Self {
        assert!(from < to, "empty sampling window");
        assert!(stride.as_secs() > 0, "stride must be positive");
        let od = market.instance().on_demand_price();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut points = Vec::new();
        let mut t = from;
        while t < to {
            let max_price = draw_max_price(market, t, policy, &mut rng);
            let label = market.revoked_within_hour(t, max_price);
            points.push(SamplePoint { at: t, bid: max_price / od, label });
            t += stride;
        }
        let first = from.minute_index();
        let last = points.last().expect("non-empty window").at.minute_index();
        let rows = (first..=last + HISTORY_LEN as u64)
            .map(|k| {
                let minute = k.saturating_sub(HISTORY_LEN as u64);
                features_at(market.trace(), SimTime::from_mins(minute), od)
            })
            .collect();
        SlicedDataset { first, rows, points }
    }

    /// All per-minute rows, oldest first.
    pub(crate) fn rows(&self) -> &[[f64; RECORD_FEATURES]] {
        &self.rows
    }

    /// The samples, in sliding order.
    pub(crate) fn points(&self) -> &[SamplePoint] {
        &self.points
    }

    /// Index of the oldest history row of `point`; its window is
    /// `rows()[start..start + HISTORY_LEN + 1]`, present record last.
    pub(crate) fn window_start(&self, point: &SamplePoint) -> usize {
        (point.at.minute_index() - self.first) as usize
    }

    /// Copies every sample's window out of the rows.
    fn samples(&self) -> Vec<Sample> {
        self.points
            .iter()
            .map(|p| {
                let (history, now) = self.rows[self.window_start(p)..].split_at(HISTORY_LEN);
                let mut present = [0.0; PRESENT_FEATURES];
                present[..RECORD_FEATURES].copy_from_slice(&now[0]);
                present[RECORD_FEATURES] = p.bid;
                Sample { history: history.to_vec(), present, label: p.label, at: p.at }
            })
            .collect()
    }
}

/// Builds a dataset by sliding over `[from, to)` with `stride`.
///
/// # Panics
///
/// Panics if the window is empty or the stride is zero.
pub fn build_dataset(
    market: &SpotMarket,
    from: SimTime,
    to: SimTime,
    stride: SimDur,
    policy: DeltaPolicy,
    seed: u64,
) -> Vec<Sample> {
    SlicedDataset::build(market, from, to, stride, policy, seed).samples()
}

/// Positive-class fraction `φ⁺` of a dataset (for the class-weighted loss
/// and the Eq. 3 calibration).
pub fn positive_fraction(samples: &[Sample]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().filter(|s| s.label).count() as f64 / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use spottune_market::prelude::*;

    fn market() -> SpotMarket {
        let pool = MarketPool::standard(SimDur::from_days(3), 9);
        pool.market("r4.large").unwrap().clone()
    }

    #[test]
    fn sample_shapes() {
        let m = market();
        let mut rng = StdRng::seed_from_u64(1);
        let s = build_sample(&m, SimTime::from_hours(5), DeltaPolicy::Algorithm2, &mut rng);
        assert_eq!(s.history.len(), HISTORY_LEN);
        assert_eq!(s.present.len(), PRESENT_FEATURES);
        // Max price strictly above current (delta > 0).
        let od = m.instance().on_demand_price();
        assert!(s.present[RECORD_FEATURES] * od > m.price_at(SimTime::from_hours(5)));
    }

    #[test]
    fn labels_match_ground_truth() {
        let m = market();
        let mut rng = StdRng::seed_from_u64(2);
        for h in [2u64, 10, 20, 40] {
            let t = SimTime::from_hours(h);
            let s = build_sample(&m, t, DeltaPolicy::Algorithm2, &mut rng);
            let od = m.instance().on_demand_price();
            let max_price = s.present[RECORD_FEATURES] * od;
            assert_eq!(s.label, m.revoked_within_hour(t, max_price));
        }
    }

    #[test]
    fn dataset_has_both_classes_on_volatile_market() {
        let m = market(); // r4.large is the Volatile regime
        let samples = build_dataset(
            &m,
            SimTime::from_hours(2),
            SimTime::from_hours(60),
            SimDur::from_mins(10),
            DeltaPolicy::Algorithm2,
            3,
        );
        let phi = positive_fraction(&samples);
        assert!(
            phi > 0.05 && phi < 0.95,
            "positive fraction {phi} should be non-degenerate"
        );
    }

    #[test]
    fn algorithm2_tracks_volatility() {
        let pool = MarketPool::standard(SimDur::from_days(2), 4);
        let stable = pool.market("m4.4xlarge").unwrap();
        let volatile = pool.market("r4.large").unwrap();
        let t = SimTime::from_hours(20);
        // Normalize by on-demand price to compare across instance types.
        let ds = algorithm2_delta(stable, t) / stable.instance().on_demand_price();
        let dv = algorithm2_delta(volatile, t) / volatile.instance().on_demand_price();
        assert!(
            dv >= ds,
            "volatile market delta {dv} should be at least stable {ds}"
        );
    }

    #[test]
    fn algorithm2_delta_matches_the_sorted_copy_definition() {
        use spottune_market::stats::trimmed_mean;
        // The definition: materialize the hour's |Δprice| and trim a sorted
        // copy. Checked at every instant of the standard training grid.
        for days in [2u64, 12] {
            let pool = MarketPool::standard(SimDur::from_days(days), 42);
            for m in pool.iter() {
                let mut t = SimTime::from_hours(2);
                while t < SimTime::from_hours(days * 18) {
                    let hour_ago = t.saturating_sub(SimDur::from_secs(HOUR));
                    let deltas = m.trace().abs_deltas(hour_ago, t.max(SimTime::from_mins(2)));
                    assert_eq!(
                        algorithm2_delta(m, t).to_bits(),
                        trimmed_mean(&deltas, 0.2).to_bits(),
                        "{} at {t}",
                        m.instance().name()
                    );
                    t += SimDur::from_mins(20);
                }
            }
        }
        // The first minutes of a trace, where the window is clipped.
        let m = market();
        for mins in 0..5 {
            let t = SimTime::from_mins(mins);
            let deltas = m.trace().abs_deltas(SimTime::ZERO, t.max(SimTime::from_mins(2)));
            assert_eq!(algorithm2_delta(&m, t).to_bits(), trimmed_mean(&deltas, 0.2).to_bits());
        }
    }

    #[test]
    fn row_sliced_dataset_equals_per_sample_assembly() {
        // `build_dataset` as it was: every sample's 60 records recomputed
        // through `build_sample` → `build_input` → `features_at`.
        let per_sample = |m: &SpotMarket, from, to, stride, policy, seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut out = Vec::new();
            let mut t: SimTime = from;
            while t < to {
                out.push(build_sample(m, t, policy, &mut rng));
                t += stride;
            }
            out
        };
        let pool = MarketPool::standard(SimDur::from_days(2), 11);
        let windows = [
            // The standard split.
            (SimTime::from_hours(2), SimTime::from_hours(36), SimDur::from_mins(20)),
            // Starts inside the first hour (history saturates at minute 0),
            // off the minute grid, with a stride that is not whole minutes.
            (SimTime::from_secs(7 * 60 + 13), SimTime::from_hours(5), SimDur::from_secs(1000)),
            (SimTime::ZERO, SimTime::from_mins(90), SimDur::from_mins(1)),
        ];
        for m in pool.iter() {
            for policy in [DeltaPolicy::Algorithm2, DeltaPolicy::UniformRandom] {
                for (from, to, stride) in windows {
                    let sliced = build_dataset(m, from, to, stride, policy, 5);
                    let literal = per_sample(m, from, to, stride, policy, 5);
                    assert_eq!(sliced, literal, "{} {policy:?} from {from}", m.instance().name());
                }
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let m = market();
        let a = build_dataset(
            &m,
            SimTime::from_hours(2),
            SimTime::from_hours(6),
            SimDur::from_mins(30),
            DeltaPolicy::UniformRandom,
            7,
        );
        let b = build_dataset(
            &m,
            SimTime::from_hours(2),
            SimTime::from_hours(6),
            SimDur::from_mins(30),
            DeltaPolicy::UniformRandom,
            7,
        );
        assert_eq!(a, b);
    }
}
