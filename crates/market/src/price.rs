//! Spot-price traces on a uniform one-minute grid.
//!
//! The paper preprocesses the sparse Kaggle price records "by interpolating
//! values between records, making the timestamp interval between adjacent
//! records fixed at 1 minute" (§IV.A.1). [`PriceTrace`] is that interpolated
//! representation, and the window queries on it supply RevPred's engineered
//! features.

use crate::time::{SimDur, SimTime, HOUR, MINUTE};

/// One raw spot-price record: the market price that became effective at `at`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PricePoint {
    /// Instant the price became effective.
    pub at: SimTime,
    /// Price in USD per hour.
    pub price: f64,
}

/// A spot-price time series with one sample per minute.
///
/// Prices are step functions: the value sampled at minute `m` holds for the
/// whole minute `[m, m+1)`, and the last sample is carried forward past the
/// trace end, so simulations that run slightly past the end remain
/// well-defined. Window queries account for that extension explicitly: a
/// window past the end averages the (still effective) last price rather
/// than silently reporting a clamped in-trace sample.
#[derive(Debug, Clone, PartialEq)]
pub struct PriceTrace {
    /// Price per minute, `per_minute[i]` effective during minute `i`.
    per_minute: Vec<f64>,
    /// Prefix sums: `prefix[i]` = sum of `per_minute[..i]`. Makes every
    /// window average O(1); the orchestrator's provisioner calls
    /// `avg_last_hour` for all six markets on every deploy decision.
    prefix: Vec<f64>,
    /// Prefix change counts: `change_prefix[i]` = number of `k ∈ 1..=i`
    /// with `per_minute[k] != per_minute[k-1]` (`change_prefix[0] = 0`).
    change_prefix: Vec<u32>,
    /// `run_start[i]` = first minute of the constant-price run containing
    /// minute `i` (O(1) `duration_since_change`).
    run_start: Vec<u32>,
    /// Per-64-minute-block maxima: `first_exceed` (called on every spot
    /// request to derive the VM's revocation instant) skips whole blocks
    /// whose maximum is below the threshold instead of scanning every
    /// minute to the end of the trace.
    block_max: Vec<f64>,
}

/// Minutes per [`PriceTrace::block_max`] block.
const BLOCK: usize = 64;

impl PriceTrace {
    /// Builds a trace directly from per-minute samples.
    ///
    /// # Panics
    ///
    /// Panics if `per_minute` is empty or contains a non-finite or
    /// non-positive sample.
    pub fn from_minutes(per_minute: Vec<f64>) -> Self {
        assert!(!per_minute.is_empty(), "price trace must not be empty");
        for (i, &p) in per_minute.iter().enumerate() {
            assert!(
                p.is_finite() && p > 0.0,
                "price sample {i} must be finite and positive, got {p}"
            );
        }
        let mut prefix = Vec::with_capacity(per_minute.len() + 1);
        prefix.push(0.0);
        let mut acc = 0.0;
        for &p in &per_minute {
            acc += p;
            prefix.push(acc);
        }
        let mut change_prefix = Vec::with_capacity(per_minute.len());
        let mut run_start = Vec::with_capacity(per_minute.len());
        change_prefix.push(0);
        run_start.push(0);
        for i in 1..per_minute.len() {
            let changed = per_minute[i] != per_minute[i - 1];
            change_prefix.push(change_prefix[i - 1] + u32::from(changed));
            run_start.push(if changed { i as u32 } else { run_start[i - 1] });
        }
        let block_max = per_minute
            .chunks(BLOCK)
            .map(|c| c.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b)))
            .collect();
        PriceTrace { per_minute, prefix, change_prefix, run_start, block_max }
    }

    /// Interpolates sparse records onto the one-minute grid by carrying each
    /// price forward until the next record (step-function semantics).
    ///
    /// `total` is the desired trace length; records after `total` are
    /// ignored. The first record must be at or before the trace start.
    ///
    /// # Panics
    ///
    /// Panics if `records` is empty, not sorted by time, or the first record
    /// starts after `SimTime::ZERO`.
    pub fn from_records(records: &[PricePoint], total: SimDur) -> Self {
        assert!(!records.is_empty(), "need at least one price record");
        assert!(
            records[0].at == SimTime::ZERO || records[0].at.as_secs() == 0,
            "first record must start the trace"
        );
        for w in records.windows(2) {
            assert!(w[0].at <= w[1].at, "records must be sorted by time");
        }
        let minutes = (total.as_secs() / MINUTE).max(1) as usize;
        let mut per_minute = Vec::with_capacity(minutes);
        let mut idx = 0usize;
        for m in 0..minutes {
            let t = SimTime::from_mins(m as u64);
            while idx + 1 < records.len() && records[idx + 1].at <= t {
                idx += 1;
            }
            per_minute.push(records[idx].price);
        }
        PriceTrace::from_minutes(per_minute)
    }

    /// Number of minutes covered by the trace.
    pub fn len_minutes(&self) -> usize {
        self.per_minute.len()
    }

    /// Total trace duration.
    pub fn duration(&self) -> SimDur {
        SimDur::from_mins(self.per_minute.len() as u64)
    }

    /// The market price effective at instant `t` (clamped to the trace).
    pub fn price_at(&self, t: SimTime) -> f64 {
        let m = (t.minute_index() as usize).min(self.per_minute.len() - 1);
        self.per_minute[m]
    }

    /// In-trace per-minute samples of the window `[from, to)`.
    ///
    /// Empty when the window is empty (`to ≤ from`) or lies entirely past
    /// the trace end; the past-end extension (the last sample carried
    /// forward) is not materialized as a slice — use [`Self::avg_over`] and
    /// friends for queries that must account for it.
    pub fn window(&self, from: SimTime, to: SimTime) -> &[f64] {
        let (lo, hi) = self.window_bounds(from, to);
        let n = self.per_minute.len();
        &self.per_minute[lo.min(n)..hi.min(n)]
    }

    /// Minute bounds `[lo, hi)` of a window, with `hi ≥ lo` (a reversed
    /// window is empty, not reordered). Bounds are *not* clamped to the
    /// trace: minutes at or past `len` refer to the step-function extension
    /// (the last sample carried forward), and each query accounts for that
    /// extension explicitly instead of silently shrinking the window.
    #[inline]
    fn window_bounds(&self, from: SimTime, to: SimTime) -> (usize, usize) {
        let lo = from.minute_index() as usize;
        let hi = (to.minute_index() as usize).max(lo);
        (lo, hi)
    }

    /// Average price over `[from, to)` — O(1) via the prefix-sum cache.
    ///
    /// The average is taken over the step function extended past the trace
    /// end by the last sample, so windows that overlap or lie past the end
    /// are weighted honestly rather than truncated. A degenerate window
    /// (`to ≤ from`) has zero measure; its "average" is defined as the
    /// instantaneous price at `from`, which keeps `avg_last_hour` at the
    /// very first instant well-defined.
    pub fn avg_over(&self, from: SimTime, to: SimTime) -> f64 {
        let (lo, hi) = self.window_bounds(from, to);
        if hi == lo {
            return self.price_at(from);
        }
        let n = self.per_minute.len();
        let in_lo = lo.min(n);
        let in_hi = hi.min(n);
        // Window minutes not covered by the trace carry the last sample.
        let past_minutes = (hi - lo) - (in_hi - in_lo);
        let last = self.per_minute[n - 1];
        let sum = (self.prefix[in_hi] - self.prefix[in_lo]) + past_minutes as f64 * last;
        sum / (hi - lo) as f64
    }

    /// Average price over the hour preceding `t` — the `price` used in the
    /// expected-cost formula (paper Eq. 1: "the average price of this
    /// instance in the last hour").
    pub fn avg_last_hour(&self, t: SimTime) -> f64 {
        self.avg_over(t.saturating_sub(SimDur::from_secs(HOUR)), t)
    }

    /// Number of price *changes* in `[from, to)` — O(1) via the
    /// change-count prefix cache.
    ///
    /// A change event happens at the start of minute `k ≥ 1` when
    /// `per_minute[k] != per_minute[k - 1]`; the count covers the events
    /// at minute starts `k ∈ [from.minute_index(), to.minute_index())` —
    /// window endpoints floor to the trace's one-minute grid, like every
    /// other window query. The extension past the trace end holds the
    /// last price forever, so it contributes no events, and an empty
    /// window reports zero (the old clamping counted one sample as a
    /// window and misattributed the window-edge events).
    pub fn changes_in(&self, from: SimTime, to: SimTime) -> usize {
        let (lo, hi) = self.window_bounds(from, to);
        (self.change_events_before(hi) - self.change_events_before(lo)) as usize
    }

    /// Number of change events at minute starts `k < x` (change events
    /// exist only for `k ∈ [1, len)`).
    #[inline]
    fn change_events_before(&self, x: usize) -> u32 {
        if x == 0 {
            0
        } else {
            self.change_prefix[(x - 1).min(self.per_minute.len() - 1)]
        }
    }

    /// How long the price effective at `t` has held (time since last
    /// change) — O(1) via the run-start cache.
    ///
    /// Past the trace end the last price is still in effect (the step
    /// function extends), so the hold time keeps growing with `t` instead
    /// of being clamped to the last in-trace minute — clamping would
    /// under-report hold time for late-horizon deploy decisions.
    pub fn duration_since_change(&self, t: SimTime) -> SimDur {
        let m = t.minute_index() as usize;
        let idx = m.min(self.per_minute.len() - 1);
        SimDur::from_mins((m - self.run_start[idx] as usize) as u64)
    }

    /// First instant in `[from, from + horizon)` at which the price strictly
    /// exceeds `threshold`, if any. This is the ground-truth revocation test:
    /// "once the spot market price is over the user's maximum price, the
    /// instance would be revoked" (§II.A).
    ///
    /// Honors the same step-function extension as the other window queries:
    /// past the trace end the last sample is still the effective price, so a
    /// query starting there can still report an exceedance instead of the
    /// market inconsistently never revoking while `price_at` reads
    /// over-threshold.
    pub fn first_exceed(&self, from: SimTime, horizon: SimDur, threshold: f64) -> Option<SimTime> {
        // An empty window contains no instant, whatever the price does.
        if horizon == SimDur::ZERO {
            return None;
        }
        let n = self.per_minute.len();
        let lo = from.minute_index() as usize;
        let hi = ((from + horizon).as_secs().div_ceil(MINUTE) as usize).min(n);
        // Query window entirely past the end: the extended (last) price
        // holds throughout, so it exceeds at `from` or never. (A window
        // merely straddling the end needs no special case — the extension
        // equals the last in-trace sample, which the scan below visits.)
        if lo >= n {
            return (self.per_minute[n - 1] > threshold).then_some(from);
        }
        let mut m = lo;
        while m < hi {
            // Skip whole blocks that cannot contain an exceedance.
            if m.is_multiple_of(BLOCK) && m + BLOCK <= hi && self.block_max[m / BLOCK] <= threshold {
                m += BLOCK;
                continue;
            }
            let end = hi.min((m / BLOCK + 1) * BLOCK);
            for i in m..end {
                if self.per_minute[i] > threshold {
                    return Some(SimTime::from_mins(i as u64).max(from));
                }
            }
            m = end;
        }
        None
    }

    /// Absolute per-minute price deltas over `[from, to)`; input to the
    /// Algorithm-2 trimmed-mean delta (see [`crate::stats::trimmed_mean`]).
    pub fn abs_deltas(&self, from: SimTime, to: SimTime) -> Vec<f64> {
        self.window(from, to)
            .windows(2)
            .map(|w| (w[1] - w[0]).abs())
            .collect()
    }

    /// Iterator over `(minute_start, price)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.per_minute
            .iter()
            .enumerate()
            .map(|(m, &p)| (SimTime::from_mins(m as u64), p))
    }

    /// Minimum and maximum price over the whole trace.
    pub fn min_max(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &p in &self.per_minute {
            lo = lo.min(p);
            hi = hi.max(p);
        }
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> PriceTrace {
        // 0.1, 0.2, ..., 1.0 over ten minutes.
        PriceTrace::from_minutes((1..=10).map(|i| i as f64 / 10.0).collect())
    }

    #[test]
    fn price_at_steps_and_clamps() {
        let t = ramp();
        assert_eq!(t.price_at(SimTime::ZERO), 0.1);
        assert_eq!(t.price_at(SimTime::from_secs(59)), 0.1);
        assert_eq!(t.price_at(SimTime::from_secs(60)), 0.2);
        // Past the end clamps to the last sample.
        assert_eq!(t.price_at(SimTime::from_hours(5)), 1.0);
    }

    #[test]
    fn from_records_carries_forward() {
        let recs = vec![
            PricePoint { at: SimTime::ZERO, price: 0.5 },
            PricePoint { at: SimTime::from_mins(3), price: 0.7 },
        ];
        let t = PriceTrace::from_records(&recs, SimDur::from_mins(5));
        assert_eq!(t.len_minutes(), 5);
        assert_eq!(t.price_at(SimTime::from_mins(2)), 0.5);
        assert_eq!(t.price_at(SimTime::from_mins(3)), 0.7);
        assert_eq!(t.price_at(SimTime::from_mins(4)), 0.7);
    }

    #[test]
    fn avg_and_changes() {
        let t = ramp();
        let avg = t.avg_over(SimTime::ZERO, SimTime::from_mins(10));
        assert!((avg - 0.55).abs() < 1e-12);
        assert_eq!(t.changes_in(SimTime::ZERO, SimTime::from_mins(10)), 9);
        let flat = PriceTrace::from_minutes(vec![0.3; 10]);
        assert_eq!(flat.changes_in(SimTime::ZERO, SimTime::from_mins(10)), 0);
    }

    #[test]
    fn duration_since_change_counts_back() {
        let t = PriceTrace::from_minutes(vec![0.1, 0.1, 0.2, 0.2, 0.2, 0.3]);
        assert_eq!(t.duration_since_change(SimTime::from_mins(4)).as_secs(), 2 * MINUTE);
        assert_eq!(t.duration_since_change(SimTime::from_mins(1)).as_secs(), MINUTE);
        assert_eq!(t.duration_since_change(SimTime::from_mins(5)).as_secs(), 0);
    }

    #[test]
    fn first_exceed_finds_revocation_minute() {
        let t = ramp();
        let hit = t.first_exceed(SimTime::ZERO, SimDur::from_hours(1), 0.45);
        assert_eq!(hit, Some(SimTime::from_mins(4))); // price 0.5 > 0.45
        assert_eq!(t.first_exceed(SimTime::ZERO, SimDur::from_hours(1), 2.0), None);
        // Horizon limits the search.
        assert_eq!(t.first_exceed(SimTime::ZERO, SimDur::from_mins(3), 0.45), None);
    }

    #[test]
    fn avg_last_hour_clamps_to_start() {
        let t = ramp();
        let a = t.avg_last_hour(SimTime::from_mins(2));
        assert!((a - 0.15).abs() < 1e-12); // minutes 0 and 1
    }

    #[test]
    fn cached_queries_match_naive_scans() {
        // Pseudo-random trace with constant runs, exercising the prefix
        // caches against the original O(window) definitions.
        let mut prices = Vec::new();
        let mut x = 7u64;
        while prices.len() < 300 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let level = 0.05 + (x >> 33) as f64 / u32::MAX as f64;
            let run = 1 + (x % 7) as usize;
            for _ in 0..run {
                prices.push(level);
            }
        }
        prices.truncate(300);
        let t = PriceTrace::from_minutes(prices.clone());
        let n = prices.len();
        // Extended step function: the last sample holds past the trace end.
        let extended = |m: usize| prices[m.min(n - 1)];
        for &(a, b) in &[
            (0u64, 10u64),
            (5, 5),
            (17, 120),
            (250, 400),
            (299, 300),
            (0, 300),
            (310, 340),
            (302, 302),
        ] {
            let (from, to) = (SimTime::from_mins(a), SimTime::from_mins(b));
            let naive_avg = if a == b {
                extended(a as usize)
            } else {
                (a..b).map(|m| extended(m as usize)).sum::<f64>() / (b - a) as f64
            };
            assert!((t.avg_over(from, to) - naive_avg).abs() < 1e-9, "avg window {a}..{b}");
            let naive_changes = (a.max(1)..b.min(n as u64))
                .filter(|&k| prices[k as usize] != prices[k as usize - 1])
                .count();
            assert_eq!(t.changes_in(from, to), naive_changes, "changes window {a}..{b}");
        }
        for &(from_min, horizon_min, thr) in &[
            (0u64, 400u64, 0.3),
            (10, 50, 0.6),
            (100, 400, 10.0),
            (250, 400, 0.2),
            (63, 130, 0.5),
        ] {
            let from = SimTime::from_mins(from_min);
            let hi = ((from_min + horizon_min) as usize).min(prices.len());
            let naive = (from_min as usize..hi)
                .find(|&m| prices[m] > thr)
                .map(|m| SimTime::from_mins(m as u64).max(from));
            assert_eq!(
                t.first_exceed(from, SimDur::from_mins(horizon_min), thr),
                naive,
                "first_exceed from {from_min} thr {thr}"
            );
        }
        for m in [0usize, 1, 13, 150, 299, 500] {
            let idx = m.min(prices.len() - 1);
            let mut back = idx;
            while back > 0 && prices[back - 1] == prices[idx] {
                back -= 1;
            }
            // Past the trace end the last price is still in effect, so the
            // hold time keeps growing with `m`.
            assert_eq!(
                t.duration_since_change(SimTime::from_mins(m as u64)),
                SimDur::from_mins((m - back) as u64),
                "run length at minute {m}"
            );
        }
    }

    #[test]
    fn empty_window_is_instantaneous_not_one_sample() {
        let t = ramp();
        // Zero-measure window: defined as the instantaneous price.
        assert_eq!(t.avg_over(SimTime::from_mins(3), SimTime::from_mins(3)), 0.4);
        assert_eq!(t.changes_in(SimTime::from_mins(3), SimTime::from_mins(3)), 0);
        // A reversed window is empty too, not reordered.
        assert_eq!(t.changes_in(SimTime::from_mins(7), SimTime::from_mins(3)), 0);
        assert!(t.window(SimTime::from_mins(3), SimTime::from_mins(3)).is_empty());
    }

    #[test]
    fn change_at_window_start_is_counted() {
        // Change event at minute 1; the window [1, 2) must see it (the old
        // prefix indexing dropped window-edge events).
        let t = PriceTrace::from_minutes(vec![0.1, 0.2, 0.2, 0.2]);
        assert_eq!(t.changes_in(SimTime::from_mins(1), SimTime::from_mins(2)), 1);
        assert_eq!(t.changes_in(SimTime::from_mins(2), SimTime::from_mins(4)), 0);
        // The event instant is minute 1 exactly: windows strictly after miss it.
        assert_eq!(t.changes_in(SimTime::from_mins(2), SimTime::from_mins(3)), 0);
    }

    #[test]
    fn past_end_queries_extend_the_last_price() {
        // Ten minutes ending at 1.0; queries past the end see 1.0 forever.
        let t = ramp();
        // Window fully past the end: the average is the extended price.
        let avg = t.avg_over(SimTime::from_mins(20), SimTime::from_mins(30));
        assert!((avg - 1.0).abs() < 1e-12);
        // Window straddling the end: honest time-weighted blend, not a
        // truncated in-trace average.
        let avg = t.avg_over(SimTime::from_mins(8), SimTime::from_mins(12));
        assert!((avg - (0.9 + 1.0 + 1.0 + 1.0) / 4.0).abs() < 1e-12);
        // No change events past the end (the last event is at minute 9).
        assert_eq!(t.changes_in(SimTime::from_mins(9), SimTime::from_mins(40)), 1);
        assert_eq!(t.changes_in(SimTime::from_mins(10), SimTime::from_mins(40)), 0);
        // Hold time keeps growing past the end: the last run started at
        // minute 9, so at minute 25 the price has held 16 minutes.
        assert_eq!(
            t.duration_since_change(SimTime::from_mins(25)),
            SimDur::from_mins(16)
        );
        // Revocation ground truth honors the extension too: past the end
        // the (still effective) last price of 1.0 exceeds a 0.9 offer at
        // the query instant itself, and never exceeds a 1.5 offer.
        assert_eq!(
            t.first_exceed(SimTime::from_mins(30), SimDur::from_hours(1), 0.9),
            Some(SimTime::from_mins(30))
        );
        assert_eq!(t.first_exceed(SimTime::from_mins(30), SimDur::from_hours(1), 1.5), None);
        // Empty windows contain no instant, at any alignment, in or out of
        // the trace.
        assert_eq!(t.first_exceed(SimTime::from_mins(30), SimDur::ZERO, 0.9), None);
        assert_eq!(t.first_exceed(SimTime::from_secs(1830), SimDur::ZERO, 0.5), None);
        assert_eq!(t.first_exceed(SimTime::from_secs(510), SimDur::ZERO, 0.5), None);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_trace_rejected() {
        let _ = PriceTrace::from_minutes(vec![]);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn nonpositive_sample_rejected() {
        let _ = PriceTrace::from_minutes(vec![0.1, 0.0]);
    }
}
