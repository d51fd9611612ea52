//! Bid-split probe contexts and the probe memo every trained set carries.
//!
//! The provisioner probes `revocation_probability(market, t, max_price)`
//! once per market per deployment decision, and a sweep makes hundreds of
//! thousands of such probes. For the learned predictors a probe needs a
//! full [`Sample`] — 59 history records, ~240 price-trace window queries —
//! even though only the *bid* (`max_price`) differs between probes at the
//! same market and minute: the history and the six "now" features read
//! the instant only through its minute index.
//!
//! [`ProbeCtx`] is the bid-independent remainder of a prediction, computed
//! once and replayed per bid:
//!
//! * **Logistic** — `z = Σᵢ wᵢxᵢ + b` is a left fold whose final term is
//!   the bid feature, so the fold's 360-term prefix is cacheable and
//!   `(prefix + w_bid·x_bid) + b` re-associates nothing: the sum is
//!   bit-identical to the full fold.
//! * **RevPred** — the LSTM path consumes only the history, so its final
//!   hidden state is cacheable; the dense path (which sees the bid) is a
//!   handful of tiny matrix products replayed per probe over the kept
//!   present record. The two paths are independent sub-expressions, and
//!   reordering independent IEEE-754 computations changes no bits.
//! * **Tributary** — the bid is replicated into every LSTM timestep, so
//!   only the assembled base sample is reusable; the forward pass replays
//!   per probe (still skipping the trace-window scans).
//!
//! A [`MarketPredictorSet`](crate::MarketPredictorSet) keeps one
//! `ProbedModel` per market: the model beside a [`Tier`] from minute
//! index to context, bounded at `PROBE_MEMO_MINUTES`. Every probe goes
//! through it, and the memo lives as long as the set, so a set resident in
//! the predictor tier shares its contexts across sessions, threads and
//! lone requests. The tests below lock it against
//! `predict_sample(build_input(..))` bit for bit.

use crate::dataset::{build_input, Sample, PRESENT_FEATURES};
use crate::features::RECORD_FEATURES;
use crate::model::ProbModel;
use spottune_market::{CacheStats, SimTime, SpotMarket, Tier};
use spottune_nn::matrix::Matrix;
use std::sync::Arc;

/// Probed minutes one market's memo retains before evicting the least
/// recently used: one simulated day, above the busiest ledger workload's
/// distinct probe minutes per market and scenario.
pub(crate) const PROBE_MEMO_MINUTES: usize = 1440;

/// The bid-independent part of one `(model, market, minute)` prediction.
/// Only meaningful for the model that built it (via
/// [`ProbModel::probe_ctx`]) at the same market and minute.
#[derive(Debug, Clone)]
pub enum ProbeCtx {
    /// Left-fold prefix of the logistic dot product over every feature
    /// except the trailing bid.
    Logistic {
        /// `Σᵢ<bid wᵢxᵢ`, accumulated in flatten order.
        prefix: f64,
    },
    /// LSTM hidden state over the history plus the present record the
    /// dense path re-bids per probe.
    Hidden {
        /// Final hidden state of the (bid-independent) recurrent path.
        h_last: Matrix,
        /// The present record the context was built from (bid slot is
        /// overwritten per probe).
        present: [f64; PRESENT_FEATURES],
    },
    /// Full per-probe replay over a reusable base sample (models whose
    /// recurrent path consumes the bid, e.g. Tributary).
    Replay {
        /// The sample to re-bid and re-run.
        sample: Sample,
    },
}

/// One market's trained model and its minute-keyed [`ProbeCtx`] memo.
pub(crate) struct ProbedModel {
    pub(crate) model: Box<dyn ProbModel>,
    memo: Tier<u64, Arc<ProbeCtx>>,
}

impl ProbedModel {
    pub(crate) fn new(model: Box<dyn ProbModel>) -> Self {
        ProbedModel { model, memo: Tier::with_capacity(PROBE_MEMO_MINUTES) }
    }

    /// The model's probability at `(market, t, max_price)`: the memoized
    /// context for `t`'s minute (built on a miss from a sample carrying
    /// this probe's bid — every kept part of it is bid-independent), then
    /// the bid replayed over it.
    pub(crate) fn probability(&self, market: &SpotMarket, t: SimTime, max_price: f64) -> f64 {
        let ctx = self.memo.get(t.minute_index(), |_| {
            Arc::new(self.model.probe_ctx(&build_input(market, t, max_price)))
        });
        self.model.predict_probe(&ctx, max_price / market.instance().on_demand_price())
    }

    /// Hit/miss/eviction counters of the memo.
    pub(crate) fn memo_stats(&self) -> CacheStats {
        self.memo.stats()
    }
}

/// Builds a 1-row present-record matrix with the bid slot replaced —
/// the probe-path twin of `batch_present(&[sample])` for a re-bid sample.
pub(crate) fn rebid_present(present: &[f64; PRESENT_FEATURES], bid_feature: f64) -> Matrix {
    let mut present = *present;
    present[RECORD_FEATURES] = bid_feature;
    Matrix::from_fn(1, PRESENT_FEATURES, |_, c| present[c])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::{train_for_pool, MarketPredictorSet, PredictorKind};
    use crate::model::TrainConfig;
    use spottune_market::prelude::*;

    fn pool() -> MarketPool {
        MarketPool::standard(SimDur::from_days(2), 7)
    }

    /// Probe sites per market: seconds 0, 1, 30 and 59 of minute 0, of the
    /// first hour (history saturates at the trace start), of a few
    /// mid-trace minutes and of minutes at and past the trace end; four
    /// bids per site.
    fn probe_grid(pool: &MarketPool) -> Vec<(String, SimTime, f64)> {
        let end = pool.markets()[0].trace().len_minutes() as u64;
        let minutes = [0, 1, 30, 59, 60, 61, 317, 1020, 2463, end - 1, end, end + 90];
        let mut probes = Vec::new();
        for market in pool.iter() {
            let name = market.instance().name().to_string();
            for minute in minutes {
                for sec in [0u64, 1, 30, 59] {
                    let t = SimTime::from_mins(minute) + SimDur::from_secs(sec);
                    let price = market.price_at(t);
                    for delta in [0.0005, 0.01, 0.05, 0.19] {
                        probes.push((name.clone(), t, price + delta));
                    }
                }
            }
        }
        probes
    }

    /// The kept reference: one full sample assembly per probe.
    fn literal(set: &MarketPredictorSet, pool: &MarketPool, probe: &(String, SimTime, f64)) -> f64 {
        let (name, t, bid) = probe;
        let market = pool.market(name).expect("pool market");
        set.predict_sample(name, &build_input(market, *t, *bid)).expect("trained market")
    }

    #[test]
    fn cached_probes_are_bit_identical_for_every_kind() {
        let pool = pool();
        let grid = probe_grid(&pool);
        for kind in [PredictorKind::Logistic, PredictorKind::RevPred, PredictorKind::Tributary] {
            let set = train_for_pool(kind, &pool, 11);
            for probe in &grid {
                let (name, t, bid) = probe;
                assert_eq!(
                    set.revocation_probability(name, *t, *bid).to_bits(),
                    literal(&set, &pool, probe).to_bits(),
                    "{kind:?} {name} t={t:?} bid={bid}: memoized probe must match"
                );
            }
            // One context per (market, minute); every other probe is a hit.
            let sites = (pool.markets().len() * 12) as u64;
            let hits = grid.len() as u64 - sites;
            assert_eq!(set.probe_stats(), CacheStats { hits, misses: sites, evictions: 0 });
        }
    }

    #[test]
    fn two_threads_probing_one_set_agree_bit_for_bit() {
        let pool = pool();
        let grid = probe_grid(&pool);
        // Small, briefly trained models: the race is in the memo, not in
        // the weights.
        let cfg = TrainConfig {
            lstm_hidden: 6,
            lstm_tiers: 2,
            dense_hidden: 6,
            epochs: 1,
            seed: 5,
            ..TrainConfig::default()
        };
        for kind in [PredictorKind::Logistic, PredictorKind::RevPred, PredictorKind::Tributary] {
            let (from, to) = (SimTime::from_hours(2), SimTime::from_hours(20));
            let set = MarketPredictorSet::train(kind, &pool, from, to, SimDur::from_mins(30), &cfg);
            let want: Vec<u64> = grid.iter().map(|p| literal(&set, &pool, p).to_bits()).collect();
            let start = std::sync::Barrier::new(2);
            // Opposite orders, so each thread reads contexts the other
            // built from a different bid.
            let probe = |reverse: bool| {
                start.wait();
                let mut got: Vec<(usize, u64)> = Vec::new();
                let mut visit = |i: usize| {
                    let (name, t, bid) = &grid[i];
                    got.push((i, set.revocation_probability(name, *t, *bid).to_bits()));
                };
                if reverse {
                    (0..grid.len()).rev().for_each(&mut visit);
                } else {
                    (0..grid.len()).for_each(&mut visit);
                }
                got
            };
            let runs = std::thread::scope(|s| {
                let racers = [s.spawn(|| probe(false)), s.spawn(|| probe(true))];
                racers.map(|r| r.join().expect("prober"))
            });
            for got in runs {
                for (i, bits) in got {
                    assert_eq!(bits, want[i], "{kind:?} probe {:?}", grid[i]);
                }
            }
        }
    }

    #[test]
    fn an_overfull_memo_evicts_and_still_answers_identically() {
        let pool = pool();
        let set = train_for_pool(PredictorKind::Logistic, &pool, 3);
        let market = &pool.markets()[2];
        let name = market.instance().name().to_string();
        let minutes = (PROBE_MEMO_MINUTES + 200) as u64;
        let probe = |minute: u64| {
            let t = SimTime::from_mins(minute) + SimDur::from_secs(minute % 60);
            (name.clone(), t, market.price_at(t) + 0.02)
        };
        // Minute 0 again at the end: evicted by then, so rebuilt.
        for minute in (0..minutes).chain([0]) {
            let p = probe(minute);
            assert_eq!(
                set.revocation_probability(&p.0, p.1, p.2).to_bits(),
                literal(&set, &pool, &p).to_bits(),
                "minute {minute}"
            );
        }
        let stats = set.probe_stats();
        assert_eq!(stats.misses, minutes + 1);
        assert_eq!(stats.evictions, minutes + 1 - PROBE_MEMO_MINUTES as u64);
    }

    #[test]
    fn unknown_markets_keep_the_uninformative_prior() {
        let pool = pool();
        let set = train_for_pool(PredictorKind::Logistic, &pool, 3);
        assert_eq!(set.revocation_probability("bogus", SimTime::from_hours(1), 1.0), 0.5);
        assert_eq!(set.probe_stats(), CacheStats::default());
    }
}
