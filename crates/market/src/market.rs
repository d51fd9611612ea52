//! Spot markets: an instance type paired with its price trace, plus the
//! market pool used throughout the evaluation.

use crate::instance::{self, InstanceType};
use crate::price::PriceTrace;
use crate::synth::{regime_for, TraceGenerator};
use crate::time::{SimDur, SimTime, HOUR};
use std::sync::Arc;

/// One spot market: "different instance types have different spot markets"
/// (§II.A), so each [`InstanceType`] carries its own [`PriceTrace`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpotMarket {
    instance: InstanceType,
    trace: PriceTrace,
}

impl SpotMarket {
    /// Pairs an instance type with its price trace.
    pub fn new(instance: InstanceType, trace: PriceTrace) -> Self {
        SpotMarket { instance, trace }
    }

    /// The instance type traded in this market.
    pub fn instance(&self) -> &InstanceType {
        &self.instance
    }

    /// The underlying price trace.
    pub fn trace(&self) -> &PriceTrace {
        &self.trace
    }

    /// Current market price at `t`.
    pub fn price_at(&self, t: SimTime) -> f64 {
        self.trace.price_at(t)
    }

    /// Average market price over the last hour before `t` (Eq. 1's `price`).
    pub fn avg_price_last_hour(&self, t: SimTime) -> f64 {
        self.trace.avg_last_hour(t)
    }

    /// Ground truth: the first instant in `[from, from + horizon)` at which a
    /// VM with the given `max_price` would be revoked, if any.
    pub fn revocation_within(
        &self,
        from: SimTime,
        horizon: SimDur,
        max_price: f64,
    ) -> Option<SimTime> {
        self.trace.first_exceed(from, horizon, max_price)
    }

    /// Ground-truth label used to train the revocation predictors: would the
    /// market price exceed `max_price` within the next hour after `t`?
    pub fn revoked_within_hour(&self, t: SimTime, max_price: f64) -> bool {
        self.revocation_within(t, SimDur::from_secs(HOUR), max_price)
            .is_some()
    }
}

/// A pool of spot markets, keyed by instance-type name.
///
/// Markets are immutable once constructed, so the pool shares them behind
/// an [`Arc`]: cloning a pool (which every orchestrator, provider and
/// estimator does) is a reference-count bump, not a deep copy of megabytes
/// of price traces — essential when fanning thousands of campaigns over
/// the same markets.
#[derive(Debug, Clone, PartialEq)]
pub struct MarketPool {
    markets: Arc<[SpotMarket]>,
}

impl MarketPool {
    /// Builds a pool from explicit markets.
    ///
    /// # Panics
    ///
    /// Panics if `markets` is empty or contains duplicate instance names.
    pub fn new(markets: Vec<SpotMarket>) -> Self {
        assert!(!markets.is_empty(), "market pool must not be empty");
        for (i, a) in markets.iter().enumerate() {
            for b in &markets[i + 1..] {
                assert!(
                    a.instance().name() != b.instance().name(),
                    "duplicate market for {}",
                    a.instance().name()
                );
            }
        }
        MarketPool { markets: markets.into() }
    }

    /// The standard evaluation pool: the six Table-III instance types with
    /// synthetic traces in their assigned regimes
    /// ([`regime_for`]), each `total` long, derived from `seed`.
    pub fn standard(total: SimDur, seed: u64) -> Self {
        let markets = instance::catalog()
            .into_iter()
            .enumerate()
            .map(|(i, inst)| {
                let gen = TraceGenerator::preset(regime_for(inst.name()));
                // Decorrelate markets: "price fluctuations among different
                // markets are barely correlated" (§II.A).
                let trace = gen.generate(&inst, total, seed.wrapping_add(1000 * i as u64 + 17));
                SpotMarket::new(inst, trace)
            })
            .collect();
        MarketPool::new(markets)
    }

    /// All markets in the pool.
    pub fn markets(&self) -> &[SpotMarket] {
        &self.markets
    }

    /// Number of markets.
    pub fn len(&self) -> usize {
        self.markets.len()
    }

    /// Whether the pool is empty (never true for a constructed pool).
    pub fn is_empty(&self) -> bool {
        self.markets.is_empty()
    }

    /// Looks up a market by instance-type name.
    pub fn market(&self, instance_name: &str) -> Option<&SpotMarket> {
        self.markets
            .iter()
            .find(|m| m.instance().name() == instance_name)
    }

    /// Iterator over the markets.
    pub fn iter(&self) -> impl Iterator<Item = &SpotMarket> {
        self.markets.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::price::PriceTrace;

    fn tiny_market(name: &str, prices: Vec<f64>) -> SpotMarket {
        let inst = InstanceType::new(name, 2, 8.0, 0.4);
        SpotMarket::new(inst, PriceTrace::from_minutes(prices))
    }

    #[test]
    fn revocation_ground_truth() {
        let m = tiny_market("x.large", vec![0.1, 0.1, 0.3, 0.1]);
        assert!(m.revoked_within_hour(SimTime::ZERO, 0.2));
        assert!(!m.revoked_within_hour(SimTime::ZERO, 0.35));
        assert_eq!(
            m.revocation_within(SimTime::ZERO, SimDur::from_hours(1), 0.2),
            Some(SimTime::from_mins(2))
        );
    }

    #[test]
    fn standard_pool_covers_catalog() {
        let pool = MarketPool::standard(SimDur::from_hours(2), 1);
        assert_eq!(pool.len(), 6);
        for inst in instance::catalog() {
            let m = pool.market(inst.name()).expect("market exists");
            assert_eq!(m.instance().vcpus(), inst.vcpus());
            assert_eq!(m.trace().len_minutes(), 120);
        }
        assert!(pool.market("nonexistent").is_none());
    }

    #[test]
    fn standard_pool_markets_are_decorrelated() {
        let pool = MarketPool::standard(SimDur::from_hours(8), 3);
        let a = pool.market("r4.large").unwrap().trace();
        let b = pool.market("m4.2xlarge").unwrap().trace();
        // Same regime but different seeds => different traces.
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "duplicate market")]
    fn duplicate_markets_rejected() {
        let _ = MarketPool::new(vec![
            tiny_market("a", vec![0.1]),
            tiny_market("a", vec![0.2]),
        ]);
    }
}
