//! Fine-grained cost-aware resource provisioning (paper §III.A, Eq. 1–2 and
//! Algorithm 1 `getBestInst`): pick the spot instance minimizing the
//! expected cost of one training step in the next hour,
//! `E[sCost] = M[inst][hp] · (1 − p) · price`.

use crate::perfmatrix::PerfMatrix;
use rand::rngs::StdRng;
use rand::RngExt;
use spottune_market::{MarketPool, PoolSpine, RevocationEstimator, SimDur, SimTime};
use std::sync::Arc;

/// Result of one provisioning decision.
#[derive(Debug, Clone, PartialEq)]
pub struct InstChoice {
    /// Chosen instance-type name.
    pub instance: String,
    /// Maximum price offered (current price + random delta).
    pub max_price: f64,
    /// Predicted revocation probability for that offer.
    pub p_revoke: f64,
    /// Average market price over the last hour (Eq. 1's `price`).
    pub avg_price: f64,
    /// Expected step cost (Eq. 2) that won the argmin.
    pub expected_step_cost: f64,
}

/// The provisioner: wraps a revocation estimator and the delta policy.
#[derive(Debug)]
pub struct Provisioner<'a> {
    estimator: &'a dyn RevocationEstimator,
    delta_range: (f64, f64),
}

impl<'a> Provisioner<'a> {
    /// Creates a provisioner.
    ///
    /// # Panics
    ///
    /// Panics on an invalid delta range.
    pub fn new(estimator: &'a dyn RevocationEstimator, delta_range: (f64, f64)) -> Self {
        assert!(
            delta_range.0 > 0.0 && delta_range.0 < delta_range.1,
            "invalid delta range {delta_range:?}"
        );
        Provisioner { estimator, delta_range }
    }

    /// Algorithm 1 lines 1–9: for every market, draw a max price slightly
    /// above the current price, predict the revocation probability, compute
    /// the expected step cost, and return the argmin.
    ///
    /// # Panics
    ///
    /// Panics if the pool is empty (never for constructed pools).
    pub fn get_best_inst(
        &self,
        pool: &MarketPool,
        t: SimTime,
        hp_index: usize,
        m: &PerfMatrix,
        rng: &mut StdRng,
    ) -> InstChoice {
        // Track the winner by value and materialize the choice (one string
        // allocation) only once — this runs for every market on every
        // deploy decision of every campaign.
        let mut best: Option<(usize, f64, f64, f64, f64)> = None;
        for (i, market) in pool.iter().enumerate() {
            let inst = market.instance();
            let delta = rng.random_range(self.delta_range.0..self.delta_range.1);
            let max_price = market.price_at(t) + delta;
            let p = self
                .estimator
                .revocation_probability(inst.name(), t, max_price)
                .clamp(0.0, 1.0);
            let avg_price = market.avg_price_last_hour(t);
            let spe = m.estimate(inst, hp_index);
            // Eq. 2: E[sCost] = M[inst][hp] · (1 − p) · price.
            let expected_step_cost = spe * (1.0 - p) * avg_price;
            if best.is_none_or(|(_, _, _, _, c)| expected_step_cost < c) {
                best = Some((i, max_price, p, avg_price, expected_step_cost));
            }
        }
        let (i, max_price, p_revoke, avg_price, expected_step_cost) =
            best.expect("market pool must not be empty");
        InstChoice {
            instance: pool.markets()[i].instance().name().to_string(),
            max_price,
            p_revoke,
            avg_price,
            expected_step_cost,
        }
    }

    /// Voorsluys-style bid-aware selection: instead of one random delta per
    /// market (Algorithm 1 line 4), scan a deterministic ladder of bid
    /// margins — fractions of each instance's on-demand price — and return
    /// the (market, bid) pair minimizing the expected *effective* step cost
    ///
    /// `E[sCost] = M[inst][hp] · (1 − p) · price + p · T_rework · price`
    ///
    /// — Eq. 2's refund term (steps on a VM revoked within its first hour
    /// are free) plus an expected-rework penalty of [`REWORK_SECS`] per
    /// revocation (the checkpoint window plus restore). Low bids chase
    /// refunds, high bids chase stability; the ladder lets every market
    /// pick its own side of that trade, and the whole scan consumes no
    /// randomness.
    ///
    /// # Panics
    ///
    /// Panics if the pool or the ladder is empty.
    pub fn best_with_deltas(
        &self,
        pool: &MarketPool,
        t: SimTime,
        hp_index: usize,
        m: &PerfMatrix,
        delta_fracs: &[f64],
    ) -> InstChoice {
        assert!(!delta_fracs.is_empty(), "bid ladder must not be empty");
        let mut best: Option<(usize, f64, f64, f64, f64)> = None;
        for (i, market) in pool.iter().enumerate() {
            let inst = market.instance();
            let avg_price = market.avg_price_last_hour(t);
            let spe = m.estimate(inst, hp_index);
            for &frac in delta_fracs {
                let max_price = market.price_at(t) + frac * inst.on_demand_price();
                let p = self
                    .estimator
                    .revocation_probability(inst.name(), t, max_price)
                    .clamp(0.0, 1.0);
                let expected_step_cost =
                    spe * (1.0 - p) * avg_price + p * REWORK_SECS * avg_price;
                if best.is_none_or(|(_, _, _, _, c)| expected_step_cost < c) {
                    best = Some((i, max_price, p, avg_price, expected_step_cost));
                }
            }
        }
        let (i, max_price, p_revoke, avg_price, expected_step_cost) =
            best.expect("market pool must not be empty");
        InstChoice {
            instance: pool.markets()[i].instance().name().to_string(),
            max_price,
            p_revoke,
            avg_price,
            expected_step_cost,
        }
    }
}

/// Expected rework per revocation charged by [`Provisioner::best_with_deltas`]:
/// the two-minute notice window burned on checkpointing plus a restore.
pub const REWORK_SECS: f64 = 150.0;

/// Ground-truth estimator that inspects the price traces directly.
///
/// Used for fast simulation (Figs. 7–9, where the paper's focus is the
/// scheduling policy, not predictor quality) and as the upper bound in the
/// predictor ablation. `confidence` tempers the oracle: it answers
/// `confidence` when the trace says "revoked within the hour" and
/// `1 − confidence` otherwise, so expected costs stay comparable across
/// markets instead of collapsing to zero.
#[derive(Debug, Clone)]
pub struct OracleEstimator {
    pool: MarketPool,
    confidence: f64,
    /// Optional shared event spine over the same pool: the one-hour window
    /// query descends the spine's run tree instead of scanning trace
    /// minutes. Same bits either way (the spine's equivalence tests lock
    /// this), so the estimate never depends on which path answered.
    spine: Option<Arc<PoolSpine>>,
}

impl OracleEstimator {
    /// Creates an oracle over the given pool.
    ///
    /// # Panics
    ///
    /// Panics unless `confidence ∈ [0.5, 1]`.
    pub fn new(pool: MarketPool, confidence: f64) -> Self {
        assert!(
            (0.5..=1.0).contains(&confidence),
            "confidence must be in [0.5, 1], got {confidence}"
        );
        OracleEstimator { pool, confidence, spine: None }
    }

    /// Installs a shared event spine derived from this oracle's pool (the
    /// batch runner resolves both through the same scenario key).
    pub fn with_spine(mut self, spine: Arc<PoolSpine>) -> Self {
        self.spine = Some(spine);
        self
    }
}

impl RevocationEstimator for OracleEstimator {
    fn revocation_probability(&self, instance_name: &str, t: SimTime, max_price: f64) -> f64 {
        let hour = SimDur::from_hours(1);
        let revoked = match &self.spine {
            Some(spine) => spine
                .market_index(instance_name)
                .map(|idx| spine.revocation_within(idx, t, hour, max_price).is_some()),
            None => self
                .pool
                .market(instance_name)
                .map(|market| market.revocation_within(t, hour, max_price).is_some()),
        };
        match revoked {
            Some(true) => self.confidence,
            Some(false) => 1.0 - self.confidence,
            None => 0.5,
        }
    }

    fn name(&self) -> &str {
        "Oracle"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use spottune_market::{ConstantEstimator, InstanceType, PriceTrace, SpotMarket};

    fn two_market_pool(price_a: f64, price_b: f64) -> MarketPool {
        let mk = |name: &str, vcpus: u32, price: f64| {
            SpotMarket::new(
                InstanceType::new(name, vcpus, 8.0, 1.0),
                PriceTrace::from_minutes(vec![price; 240]),
            )
        };
        MarketPool::new(vec![mk("cheap.2x", 2, price_a), mk("fast.8x", 8, price_b)])
    }

    #[test]
    fn picks_lowest_expected_step_cost() {
        // Same prior speed scaling (c0/vcpus): fast.8x is 4× faster but
        // only 2× the price — it must win on step cost.
        let pool = two_market_pool(0.1, 0.2);
        let est = ConstantEstimator::new(0.0);
        let prov = Provisioner::new(&est, (0.00001, 0.2));
        let m = PerfMatrix::new(1200.0, 0.3);
        let mut rng = StdRng::seed_from_u64(1);
        let choice = prov.get_best_inst(&pool, SimTime::from_hours(1), 0, &m, &mut rng);
        assert_eq!(choice.instance, "fast.8x");
        assert!(choice.max_price > 0.2);
        // Expected cost matches Eq. 2 by hand: (1200/8) · 1.0 · 0.2 = 30.
        assert!((choice.expected_step_cost - 30.0).abs() < 1e-9);
    }

    #[test]
    fn high_revocation_probability_discounts_cost() {
        // cheap.2x would lose on speed, but if it is predicted to be
        // revoked (p≈1 → refund) its expected cost collapses.
        #[derive(Debug)]
        struct Biased;
        impl RevocationEstimator for Biased {
            fn revocation_probability(&self, inst: &str, _: SimTime, _: f64) -> f64 {
                if inst == "cheap.2x" {
                    0.99
                } else {
                    0.0
                }
            }
            fn name(&self) -> &str {
                "biased"
            }
        }
        let pool = two_market_pool(0.1, 0.2);
        let est = Biased;
        let prov = Provisioner::new(&est, (0.00001, 0.2));
        let m = PerfMatrix::new(1200.0, 0.3);
        let mut rng = StdRng::seed_from_u64(2);
        let choice = prov.get_best_inst(&pool, SimTime::from_hours(1), 0, &m, &mut rng);
        assert_eq!(choice.instance, "cheap.2x");
        assert_eq!(choice.p_revoke, 0.99);
    }

    #[test]
    fn online_profile_overrides_prior() {
        // Profile both cells: fast.8x turns out slow, cheap.2x fast — the
        // observed values must beat the CPU-proportional priors.
        let pool = two_market_pool(0.1, 0.2);
        let est = ConstantEstimator::new(0.0);
        let prov = Provisioner::new(&est, (0.00001, 0.2));
        let mut m = PerfMatrix::new(1200.0, 1.0);
        let fast = pool.market("fast.8x").unwrap().instance().clone();
        let cheap = pool.market("cheap.2x").unwrap().instance().clone();
        m.observe(&fast, 0, 5000.0);
        m.observe(&cheap, 0, 100.0);
        let mut rng = StdRng::seed_from_u64(3);
        let choice = prov.get_best_inst(&pool, SimTime::from_hours(1), 0, &m, &mut rng);
        assert_eq!(choice.instance, "cheap.2x");
    }

    #[test]
    fn scale_prior_transfers_across_instances() {
        // Observing one instance calibrates the prior of the other via the
        // learned per-configuration work scale.
        let pool = two_market_pool(0.1, 0.2);
        let mut m = PerfMatrix::new(1200.0, 1.0);
        let fast = pool.market("fast.8x").unwrap().instance().clone();
        let cheap = pool.market("cheap.2x").unwrap().instance().clone();
        m.observe(&fast, 0, 10.0); // scale = 10 × 8 = 80
        assert!((m.estimate(&cheap, 0) - 40.0).abs() < 1e-9);
        // A different configuration still uses the uninformed prior.
        assert!((m.estimate(&cheap, 1) - 600.0).abs() < 1e-9);
    }

    #[test]
    fn bid_ladder_is_deterministic_and_picks_refunds_when_cheap() {
        // One market that always revokes low bids within the hour: the
        // ladder must prefer the low bid (refunded steps are free) over the
        // high bid that pays full freight, and consume no randomness.
        let mut prices = vec![0.1; 240];
        for p in prices.iter_mut().skip(30) {
            *p = 0.35; // every sub-0.35 bid placed at t<30min is revoked
        }
        let market = SpotMarket::new(
            InstanceType::new("flappy", 2, 8.0, 1.0),
            PriceTrace::from_minutes(prices),
        );
        let pool = MarketPool::new(vec![market]);
        let oracle = crate::provision::OracleEstimator::new(pool.clone(), 0.9);
        let prov = Provisioner::new(&oracle, (0.00001, 0.2));
        let m = PerfMatrix::new(1200.0, 0.3);
        let choice = prov.best_with_deltas(
            &pool,
            SimTime::from_mins(10),
            0,
            &m,
            &[0.001, 0.5],
        );
        // spe = 600 s: low bid scores 600·0.1·avg + 0.9·150·avg = 195·avg,
        // the safe bid 600·0.9·avg + 0.1·150·avg = 555·avg → low bid wins.
        assert!((choice.max_price - (0.1 + 0.001)).abs() < 1e-12, "{}", choice.max_price);
        assert_eq!(choice.p_revoke, 0.9);
        // Determinism: the same call yields the same choice.
        assert_eq!(
            choice,
            prov.best_with_deltas(&pool, SimTime::from_mins(10), 0, &m, &[0.001, 0.5])
        );
    }

    #[test]
    fn bid_ladder_trades_refunds_against_rework_by_step_cost() {
        // score = spe·(1−p)·price + p·150·price. A revoked VM's steps are
        // free, so the refund upside scales with spe while the rework
        // penalty is fixed: cheap steps buy stability (high bid), expensive
        // steps chase refunds (low bid). Crossover at spe = 150 s here.
        let mut prices = vec![0.1; 240];
        for p in prices.iter_mut().skip(30) {
            *p = 0.35;
        }
        let market = SpotMarket::new(
            InstanceType::new("flappy", 2, 8.0, 1.0),
            PriceTrace::from_minutes(prices),
        );
        let pool = MarketPool::new(vec![market]);
        #[derive(Debug)]
        struct BidSensitive;
        impl RevocationEstimator for BidSensitive {
            fn revocation_probability(&self, _: &str, _: SimTime, max_price: f64) -> f64 {
                if max_price < 0.35 {
                    0.9
                } else {
                    0.1
                }
            }
            fn name(&self) -> &str {
                "bid-sensitive"
            }
        }
        let est = BidSensitive;
        let prov = Provisioner::new(&est, (0.00001, 0.2));
        let mut m = PerfMatrix::new(1200.0, 1.0);
        let inst = pool.market("flappy").unwrap().instance().clone();
        m.observe(&inst, 0, 20.0); // cheap steps → stability wins
        let cheap = prov.best_with_deltas(&pool, SimTime::from_mins(10), 0, &m, &[0.001, 0.5]);
        assert!(cheap.max_price > 0.35, "cheap steps buy stability: {}", cheap.max_price);
        m.observe(&inst, 1, 5000.0); // expensive steps → refund chasing wins
        let dear = prov.best_with_deltas(&pool, SimTime::from_mins(10), 1, &m, &[0.001, 0.5]);
        assert!(dear.max_price < 0.35, "expensive steps chase refunds: {}", dear.max_price);
    }

    #[test]
    fn oracle_reads_the_trace() {
        let mut prices = vec![0.1; 240];
        prices[70] = 0.9; // spike at minute 70
        let market = SpotMarket::new(
            InstanceType::new("spiky", 2, 8.0, 1.0),
            PriceTrace::from_minutes(prices),
        );
        let pool = MarketPool::new(vec![market]);
        let oracle = OracleEstimator::new(pool, 0.9);
        // At minute 30, a max price of 0.5 is crossed by the spike.
        assert_eq!(
            oracle.revocation_probability("spiky", SimTime::from_mins(30), 0.5),
            0.9
        );
        // A max price of 1.0 survives.
        assert!(
            (oracle.revocation_probability("spiky", SimTime::from_mins(30), 1.0) - 0.1).abs()
                < 1e-12
        );
        // Unknown market → uninformative.
        assert_eq!(oracle.revocation_probability("none", SimTime::ZERO, 1.0), 0.5);
    }
}
