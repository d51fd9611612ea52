//! Per-scenario **event spine**: the time-ordered price-change agenda of
//! every market in a pool, compressed to constant-price runs and indexed
//! for O(log runs) revocation queries.
//!
//! A sweep evaluates thousands of campaigns against the *same* few market
//! scenarios, and every campaign interrogates the same traces the same
//! way: "does the price exceed my offer within this window?" (spot
//! requests deriving their revocation instant, the oracle estimator
//! scoring a placement). [`PriceTrace::first_exceed`] answers that with a
//! block-skip scan over per-minute samples — fine once, wasteful when a
//! 100k-campaign sweep repeats it millions of times per scenario.
//!
//! The spine is built **once per scenario** and shared (`Arc`) by every
//! campaign on it. Per market it stores the run-level price-change agenda
//! (run start minutes + run prices, recovered through the trace's own
//! change detection — no float comparisons) and a segment-max tree over
//! run prices, so "first minute in a window whose price exceeds a
//! threshold" descends the tree instead of scanning minutes. Every answer
//! is **bit-identical** to [`PriceTrace::first_exceed`] — a run's price is
//! the exact per-minute sample, and the first exceeding minute inside the
//! window is the first exceeding run clamped to the window start — locked
//! by the naive-equivalence tests below.
//!
//! [`SpineCache`] is the scenario-keyed [`Tier`] handing out shared spines.

use crate::market::MarketPool;
use crate::poolcache::MarketScenario;
use crate::price::PriceTrace;
use crate::tier::Tier;
use crate::time::{SimDur, SimTime, MINUTE};
use std::collections::BTreeMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One market's price-change agenda: constant-price runs plus a
/// segment-max tree answering "first run at/after `r` priced above a
/// threshold" in O(log runs).
#[derive(Debug)]
struct MarketSpine {
    /// First minute of each constant-price run, ascending; `starts[0] == 0`.
    starts: Vec<u32>,
    /// The price held throughout the corresponding run.
    prices: Vec<f64>,
    /// Segment-max tree over `prices` (1-indexed heap layout; leaves at
    /// `[size, size + runs)`, padding leaves hold `-inf`).
    tree: Vec<f64>,
    /// Leaf count of the tree (power of two ≥ number of runs).
    size: usize,
    /// Trace length in minutes.
    n_minutes: usize,
    /// Price of the final in-trace minute (held by the extension past the
    /// trace end, exactly as [`PriceTrace::price_at`] clamps).
    last_price: f64,
}

impl MarketSpine {
    fn build(trace: &PriceTrace) -> MarketSpine {
        let n = trace.len_minutes();
        let mut starts: Vec<u32> = Vec::new();
        let mut prices: Vec<f64> = Vec::new();
        for m in 0..n {
            let t = SimTime::from_mins(m as u64);
            // A fresh run begins exactly where the trace's own change
            // detection says one does (duration-since-change of zero) —
            // recovered without comparing floats.
            if trace.duration_since_change(t) == SimDur::ZERO {
                starts.push(m as u32);
                prices.push(trace.price_at(t));
            }
        }
        let runs = prices.len();
        let size = runs.next_power_of_two().max(1);
        let mut tree = vec![f64::NEG_INFINITY; 2 * size];
        tree[size..size + runs].copy_from_slice(&prices);
        for i in (1..size).rev() {
            tree[i] = tree[2 * i].max(tree[2 * i + 1]);
        }
        let last_price = trace.price_at(SimTime::from_mins((n - 1) as u64));
        MarketSpine { starts, prices, tree, size, n_minutes: n, last_price }
    }

    /// Index of the run containing minute `m` (`m < n_minutes`).
    fn run_of(&self, m: usize) -> usize {
        self.starts.partition_point(|&s| s as usize <= m) - 1
    }

    /// First run index at/after `r` whose price exceeds `threshold`.
    fn first_run_above(&self, r: usize, threshold: f64) -> Option<usize> {
        if r >= self.prices.len() {
            return None;
        }
        let mut node = self.size + r;
        loop {
            if self.tree[node] > threshold {
                // Descend to the leftmost qualifying leaf of this subtree.
                while node < self.size {
                    node <<= 1;
                    if self.tree[node] <= threshold {
                        node += 1;
                    }
                }
                let idx = node - self.size;
                // Padding leaves are -inf and never qualify.
                return Some(idx);
            }
            // Advance to the next subtree on the right: climb while this
            // node is a right child, then step to the sibling. Falling off
            // the root means nothing to the right qualifies.
            while node & 1 == 1 {
                node >>= 1;
            }
            if node == 0 {
                return None;
            }
            node += 1;
        }
    }

    /// Bit-identical mirror of [`PriceTrace::first_exceed`].
    fn first_exceed(&self, from: SimTime, horizon: SimDur, threshold: f64) -> Option<SimTime> {
        if horizon == SimDur::ZERO {
            return None;
        }
        let n = self.n_minutes;
        let lo = from.minute_index() as usize;
        let hi = ((from + horizon).as_secs().div_ceil(MINUTE) as usize).min(n);
        if lo >= n {
            return (self.last_price > threshold).then_some(from);
        }
        let r = self.first_run_above(self.run_of(lo), threshold)?;
        let i = (self.starts[r] as usize).max(lo);
        (i < hi).then(|| SimTime::from_mins(i as u64).max(from))
    }
}

/// The shared per-scenario event spine: one [`MarketSpine`] per market of
/// the pool, plus a name → index map replacing the pool's linear
/// [`market`](MarketPool::market) scans on the request path.
///
/// Build once per scenario with [`PoolSpine::build`] and share via `Arc`
/// (or let a [`SpineCache`] do both); every query is read-only and
/// thread-safe. The query counter exists so batch acceptance checks can
/// assert the fast path actually served traffic.
#[derive(Debug)]
pub struct PoolSpine {
    markets: Vec<MarketSpine>,
    index: BTreeMap<String, usize>,
    queries: AtomicU64,
}

impl PoolSpine {
    /// Derives the spine of `pool`. The spine answers queries for exactly
    /// this pool's traces; pair it with the pool it was built from (the
    /// [`SpineCache`] keys both by the same [`MarketScenario`]).
    pub fn build(pool: &MarketPool) -> PoolSpine {
        let markets: Vec<MarketSpine> =
            pool.iter().map(|m| MarketSpine::build(m.trace())).collect();
        let index = pool
            .iter()
            .enumerate()
            .map(|(i, m)| (m.instance().name().to_string(), i))
            .collect();
        PoolSpine { markets, index, queries: AtomicU64::new(0) }
    }

    /// Position of the named market in the pool (and in this spine).
    pub fn market_index(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// Number of markets spanned.
    pub fn len(&self) -> usize {
        self.markets.len()
    }

    /// Whether the spine spans no markets.
    pub fn is_empty(&self) -> bool {
        self.markets.is_empty()
    }

    /// Number of constant-price runs in market `idx`'s agenda.
    pub fn runs(&self, idx: usize) -> usize {
        self.markets[idx].prices.len()
    }

    /// First instant in `[from, from + horizon)` at which market `idx`'s
    /// price exceeds `threshold` — bit-identical to
    /// [`PriceTrace::first_exceed`] on the trace the spine was built from,
    /// in O(log runs) instead of a minute scan.
    pub fn first_exceed(
        &self,
        idx: usize,
        from: SimTime,
        horizon: SimDur,
        threshold: f64,
    ) -> Option<SimTime> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.markets[idx].first_exceed(from, horizon, threshold)
    }

    /// Revocation instant of a spot VM on market `idx` launched at `from`
    /// with the given offer — the spine-side mirror of
    /// [`SpotMarket::revocation_within`](crate::market::SpotMarket::revocation_within).
    pub fn revocation_within(
        &self,
        idx: usize,
        from: SimTime,
        horizon: SimDur,
        max_price: f64,
    ) -> Option<SimTime> {
        self.first_exceed(idx, from, horizon, max_price)
    }

    /// Queries answered since construction (acceptance checks assert > 0
    /// after a batched sweep).
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }
}

/// The shared spine tier: a [`Tier`] keyed by [`MarketScenario`], like the
/// [`PoolCache`](crate::poolcache::PoolCache); a hit is an `Arc` bump.
#[derive(Debug, Clone, Default)]
pub struct SpineCache(Tier<MarketScenario, Arc<PoolSpine>>);

impl Deref for SpineCache {
    type Target = Tier<MarketScenario, Arc<PoolSpine>>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl SpineCache {
    /// Creates an empty tier.
    pub fn new() -> Self {
        SpineCache::default()
    }

    /// The spine for `scenario`, derived from `pool` (which must be the
    /// pool that scenario resolves to — callers obtain both through the
    /// same scenario key, so the pairing is by construction).
    pub fn get(&self, scenario: MarketScenario, pool: &MarketPool) -> Arc<PoolSpine> {
        self.0.get(scenario, |_| Arc::new(PoolSpine::build(pool)))
    }

    /// Total queries answered by the resident spines.
    pub fn resident_queries(&self) -> u64 {
        self.resident().iter().map(|s| s.queries()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tier::CacheStats;

    fn pool() -> MarketPool {
        MarketPool::standard(SimDur::from_days(2), 42)
    }

    #[test]
    fn spine_indexes_every_market() {
        let p = pool();
        let spine = PoolSpine::build(&p);
        assert_eq!(spine.len(), p.markets().len());
        for (i, m) in p.iter().enumerate() {
            assert_eq!(spine.market_index(m.instance().name()), Some(i));
            assert!(spine.runs(i) > 0);
        }
        assert_eq!(spine.market_index("no-such-instance"), None);
    }

    #[test]
    fn first_exceed_matches_trace_exhaustively() {
        // The bit-identity lock: every (from, horizon, threshold) cell of a
        // dense grid must agree with the trace's block-skip scan, including
        // mid-minute instants, windows straddling and past the trace end,
        // and thresholds between every pair of price levels.
        let p = pool();
        let spine = PoolSpine::build(&p);
        for (idx, market) in p.iter().enumerate() {
            let trace = market.trace();
            let n = trace.len_minutes() as u64;
            let mut thresholds: Vec<f64> =
                trace.iter().map(|(_, price)| price).collect();
            thresholds.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            thresholds.dedup_by(|a, b| a.to_bits() == b.to_bits());
            let mut probes: Vec<f64> = vec![0.0, f64::INFINITY];
            for w in thresholds.windows(2) {
                probes.push(w[0]);
                probes.push(0.5 * (w[0] + w[1]));
            }
            probes.push(*thresholds.last().expect("non-empty trace"));
            for &thr in &probes {
                for from_s in
                    [0, 1, 59, 60, 61, 90, n * 30, n * 60 - 61, n * 60 - 1, n * 60, n * 60 + 90]
                {
                    let from = SimTime::from_secs(from_s);
                    for horizon_s in [0, 1, 60, 61, 3600, n * 60, 2 * n * 60] {
                        let horizon = SimDur::from_secs(horizon_s);
                        assert_eq!(
                            spine.first_exceed(idx, from, horizon, thr),
                            trace.first_exceed(from, horizon, thr),
                            "market {idx} from {from_s}s horizon {horizon_s}s thr {thr}"
                        );
                    }
                }
            }
        }
        assert!(spine.queries() > 0);
    }

    #[test]
    fn first_exceed_matches_on_adversarial_run_shapes() {
        // Single-run, alternating, and spike-at-end traces exercise the
        // tree descent's edge branches (all-left, all-right, padding).
        let flat = PriceTrace::from_minutes(vec![0.5; 7]);
        let alternating = PriceTrace::from_minutes(
            (0..130).map(|i| if i % 2 == 0 { 0.2 } else { 0.9 }).collect(),
        );
        let spike_end = {
            let mut v = vec![0.1; 129];
            v.push(5.0);
            PriceTrace::from_minutes(v)
        };
        for trace in [&flat, &alternating, &spike_end] {
            let spine = MarketSpine::build(trace);
            let n = trace.len_minutes() as u64;
            for thr in [0.0, 0.15, 0.2, 0.5, 0.9, 4.0, 5.0] {
                for from_m in 0..=n + 2 {
                    for horizon_m in [0, 1, 2, n, 2 * n + 1] {
                        let from = SimTime::from_mins(from_m);
                        let horizon = SimDur::from_mins(horizon_m);
                        assert_eq!(
                            spine.first_exceed(from, horizon, thr),
                            trace.first_exceed(from, horizon, thr),
                            "from {from_m}m horizon {horizon_m}m thr {thr}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn run_agenda_is_well_formed_and_stable_markets_compress() {
        let p = pool();
        let mut best = 1.0f64;
        for m in p.iter() {
            let trace = m.trace();
            let spine = MarketSpine::build(trace);
            assert_eq!(spine.starts.len(), spine.prices.len());
            assert_eq!(spine.starts[0], 0);
            assert!(spine.starts.windows(2).all(|w| w[0] < w[1]));
            assert!(spine.prices.len() <= trace.len_minutes());
            best = best.min(spine.prices.len() as f64 / trace.len_minutes() as f64);
        }
        // The stable regimes hold prices for multi-minute dwells, so at
        // least one market's agenda compresses well below its minute count.
        assert!(best < 0.5, "stable markets must compress, best ratio {best}");
    }

    #[test]
    fn cache_shares_and_counts() {
        let cache = SpineCache::new();
        let scenario = MarketScenario::from_days(1, 7);
        let p = scenario.build();
        let a = cache.get(scenario, &p);
        let b = cache.get(scenario, &p);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1, evictions: 0 });
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
        let _ = a.first_exceed(0, SimTime::ZERO, SimDur::from_hours(1), 0.0);
        assert_eq!(cache.resident_queries(), a.queries());
    }
}
