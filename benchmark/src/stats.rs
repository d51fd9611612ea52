//! Order statistics for the ledger: nearest-rank percentiles, the
//! percentile picker, and the quartile spread the acceptance rule uses.

/// Sorts ascending (timings are finite; NaN would be a harness bug).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    values
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100); 0 for
/// an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median by the same rule as [`percentile`], taking unsorted input.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50.0)
}

/// The percentiles the ledger reports, lowest first.
const LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// The highest ladder percentile with at least ten samples beyond it
/// (`n · (1 − p) ≥ 10`), or `None` when even the median lacks support.
pub fn supported_percentile(n: usize) -> Option<f64> {
    // Integer arithmetic in tenths of a percent: 99.9 → 999.
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| n as u64 * (1000 - (p * 10.0).round() as u64) >= 10 * 1000)
}

/// Best-quartile-of-segments summary of a timed window.
///
/// The window is cut into segments of equal work (whole batch cycles, or
/// equal slices of an open-loop step); each segment yields its own
/// throughput and latency percentiles, and the run reports the better
/// quartile across segments: the 75th percentile of the segment rates,
/// the 25th of the segment p50s and p90s. On a shared box a neighbour
/// slows the program for seconds at a time and nothing ever speeds it
/// up, so the better quartile estimates the undisturbed figure and
/// still ignores a single freak segment, where a percentile over the
/// whole window would absorb every slow sample.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    pub per_s: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub segments: u64,
    pub samples: u64,
}

/// One segment: its latency samples (ms, any order), the operations it
/// completed and how long it lasted.
pub struct Segment {
    pub latencies_ms: Vec<f64>,
    pub completed: f64,
    pub seconds: f64,
}

pub fn summarize(segments: Vec<Segment>) -> Summary {
    let (mut rates, mut p50s, mut p90s, mut samples) = (Vec::new(), Vec::new(), Vec::new(), 0);
    for segment in segments {
        if segment.seconds > 0.0 {
            rates.push(segment.completed / segment.seconds);
        }
        if !segment.latencies_ms.is_empty() {
            samples += segment.latencies_ms.len() as u64;
            let ordered = sorted(segment.latencies_ms);
            p50s.push(percentile(&ordered, 50.0));
            p90s.push(percentile(&ordered, 90.0));
        }
    }
    Summary {
        segments: rates.len() as u64,
        per_s: percentile(&sorted(rates), 75.0),
        p50_ms: percentile(&sorted(p50s), 25.0),
        p90_ms: percentile(&sorted(p90s), 25.0),
        samples,
    }
}

/// Python's `statistics.quantiles(values, n=4)` (the default exclusive
/// method), so the spread printed here is the spread the acceptance
/// rule computes. `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values.to_vec());
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for i in 1..n {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        out[i - 1] = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the
/// median; `None` with fewer than two values or a zero median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&xs, 90.0), 9.0);
        assert_eq!(percentile(&xs, 99.0), 10.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn summary_reports_the_better_quartile_of_segments() {
        let steady = |ms: f64| Segment {
            latencies_ms: (0..20).map(|i| ms + f64::from(i) * 0.01).collect(),
            completed: 20.0,
            seconds: 20.0 * ms / 1e3,
        };
        let calm = summarize((0..8).map(|_| steady(10.0)).collect());
        assert!((calm.per_s - 100.0).abs() < 1e-9);
        // Most of the window disturbed: the undisturbed figure survives.
        let mut disturbed: Vec<Segment> = (0..5).map(|_| steady(30.0)).collect();
        disturbed.extend((0..3).map(|_| steady(10.0)));
        let noisy = summarize(disturbed);
        assert_eq!(
            (noisy.per_s, noisy.p50_ms, noisy.p90_ms),
            (calm.per_s, calm.p50_ms, calm.p90_ms)
        );
        assert_eq!((noisy.segments, noisy.samples), (8, 160));
        // One freakishly fast segment is not believed.
        let mut freak: Vec<Segment> = (0..7).map(|_| steady(10.0)).collect();
        freak.push(steady(1.0));
        assert_eq!(summarize(freak).p50_ms, calm.p50_ms);
        assert_eq!(summarize(Vec::new()), Summary::default());
    }

    #[test]
    fn picker_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(99), Some(50.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(999), Some(90.0));
        assert_eq!(supported_percentile(1_000), Some(99.0));
        assert_eq!(supported_percentile(9_999), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some([10.0, 20.0, 40.0]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(quartile_spread(&xs), Some(1.0));
    }
}
