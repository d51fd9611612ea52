//! Cross-request market-pool tier: scenario-keyed, `Arc`-backed sharing of
//! constructed [`MarketPool`]s.
//!
//! A multi-campaign sweep evaluates many (workload, θ, seed) points against
//! the *same* few market scenarios. Generating the standard six-market pool
//! for a 12-day trace costs ~100 k synthetic samples plus the prefix/change/
//! run/block caches per market, so a long-running server must build each
//! scenario once and hand out reference-counted clones — [`MarketPool`] is
//! already `Arc`-backed, making a cache hit a pointer bump.

use crate::market::MarketPool;
use crate::time::SimDur;
use crate::tier::Tier;
use std::ops::Deref;

/// Identifies one reproducible market environment: the standard Table-III
/// catalog with synthetic traces of `trace_mins` minutes derived from
/// `seed` (see [`MarketPool::standard`]).
///
/// This is the wire-level key of the pool tier: requests name a scenario
/// instead of shipping megabytes of price traces, and equal scenarios are
/// guaranteed to resolve to the identical (shared) pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MarketScenario {
    /// Trace length in minutes.
    pub trace_mins: u64,
    /// Master seed the per-market trace seeds derive from.
    pub seed: u64,
}

impl MarketScenario {
    /// Scenario covering `total` of simulated time.
    pub fn new(total: SimDur, seed: u64) -> Self {
        MarketScenario { trace_mins: total.as_secs() / crate::time::MINUTE, seed }
    }

    /// Scenario covering `days` days (the evaluation standard is 12).
    pub fn from_days(days: u64, seed: u64) -> Self {
        MarketScenario::new(SimDur::from_days(days), seed)
    }

    /// Total trace duration.
    pub fn total(&self) -> SimDur {
        SimDur::from_mins(self.trace_mins)
    }

    /// Constructs the pool this scenario describes (cache-independent).
    pub fn build(&self) -> MarketPool {
        MarketPool::standard(self.total(), self.seed)
    }
}

/// The shared market-pool tier: a [`Tier`] keyed by [`MarketScenario`].
///
/// Cloning the cache clones a handle to the same tier (the server hands one
/// to every worker). Distinct cold scenarios build in parallel, and two
/// workers racing on the *same* cold scenario still pay the construction
/// cost once; the tier's other methods (`len`, `stats`, …) come from
/// [`Tier`].
#[derive(Debug, Clone, Default)]
pub struct PoolCache(Tier<MarketScenario, MarketPool>);

impl Deref for PoolCache {
    type Target = Tier<MarketScenario, MarketPool>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl PoolCache {
    /// Creates an empty tier.
    pub fn new() -> Self {
        PoolCache::default()
    }

    /// The pool for `scenario`: a shared clone on a hit, built (and
    /// retained) on a miss.
    pub fn get(&self, scenario: MarketScenario) -> MarketPool {
        self.0.get(scenario, MarketScenario::build)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tier::CacheStats;

    #[test]
    fn hits_share_the_same_markets() {
        let cache = PoolCache::new();
        let scenario = MarketScenario::from_days(1, 7);
        let a = cache.get(scenario);
        let b = cache.get(scenario);
        // Same Arc-backed pool, not a rebuilt equal one.
        assert!(std::ptr::eq(a.markets(), b.markets()));
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1, evictions: 0 });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_scenarios_build_distinct_pools() {
        let cache = PoolCache::new();
        let a = cache.get(MarketScenario::from_days(1, 7));
        let b = cache.get(MarketScenario::from_days(1, 8));
        assert!(!std::ptr::eq(a.markets(), b.markets()));
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn scenario_reproduces_standard_pool() {
        let scenario = MarketScenario::from_days(1, 42);
        assert_eq!(scenario.build(), MarketPool::standard(SimDur::from_days(1), 42));
        assert_eq!(scenario.total(), SimDur::from_days(1));
    }

    #[test]
    fn shared_handles_see_each_other() {
        let cache = PoolCache::new();
        let clone = cache.clone();
        clone.get(MarketScenario::from_days(1, 3));
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.len(), 1);
    }
}
