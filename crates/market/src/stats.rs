//! Small statistics helpers shared across the workspace.

/// Arithmetic mean. Returns 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation. Returns 0.0 for fewer than two samples.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Coefficient of variation (σ/μ). Returns 0.0 when the mean is zero.
///
/// The paper uses COV < 0.1 across steps to justify online performance
/// profiling (§IV.A.5).
pub fn cov(xs: &[f64]) -> f64 {
    let m = mean(xs);
    if m == 0.0 {
        return 0.0;
    }
    std_dev(xs) / m
}

/// Trimmed mean dropping the smallest and largest `trim` fraction of samples.
///
/// This is the core of the paper's Algorithm 2: "calculating the average
/// variation of instance I's history prices (removing the smallest 20% and
/// the largest 20%) in the previous 1 hours". With `trim = 0.2`, samples in
/// the index range `(0.2·L, 0.8·L)` (after sorting) are averaged.
///
/// Returns 0.0 when no samples survive the trim.
///
/// # Panics
///
/// Panics if `trim` is not in `[0, 0.5)`.
pub fn trimmed_mean(xs: &[f64], trim: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples must be comparable"));
    mean_of_kept(0, &sorted, trim)
}

/// [`trimmed_mean`] of `zeros` copies of `+0.0` plus the strictly positive
/// `moves`, without allocating: only `moves` is sorted, in place. The
/// zeros are exactly the sorted sequence's prefix, and the result is
/// bit-identical to `trimmed_mean` over the materialized sequence. A
/// step-function price trace's per-minute deltas are mostly zero, which
/// is what makes skipping them worth it.
///
/// # Panics
///
/// Panics if `trim` is not in `[0, 0.5)` or a move is not strictly
/// positive.
pub fn trimmed_mean_with_zeros(zeros: usize, moves: &mut [f64], trim: f64) -> f64 {
    assert!(moves.iter().all(|&x| x > 0.0), "moves must be strictly positive");
    // Positive floats order like their bit patterns, and integer keys sort
    // without the comparison closure's branches.
    moves.sort_unstable_by_key(|x| x.to_bits());
    mean_of_kept(zeros, moves, trim)
}

/// Mean of the index range a `trim` keeps out of `zeros` copies of `+0.0`
/// followed by the ascending `sorted`. The in-order sum folds from `-0.0`
/// as `Iterator::sum` does; leading `+0.0` terms only turn that into
/// `+0.0`, so they are counted rather than added.
fn mean_of_kept(zeros: usize, sorted: &[f64], trim: f64) -> f64 {
    assert!((0.0..0.5).contains(&trim), "trim fraction must be in [0, 0.5)");
    let n = zeros + sorted.len();
    if n == 0 {
        return 0.0;
    }
    let lo = (trim * n as f64).floor() as usize;
    let hi = (((1.0 - trim) * n as f64).ceil() as usize).min(n);
    let (lo, hi) = if lo >= hi { (0, n) } else { (lo, hi) };
    let start = if lo < zeros.min(hi) { 0.0 } else { -0.0 };
    let kept = &sorted[lo.saturating_sub(zeros)..hi.saturating_sub(zeros)];
    kept.iter().fold(start, |acc, &x| acc + x) / (hi - lo) as f64
}

/// Simple exponentially weighted moving average state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    value: Option<f64>,
    alpha: f64,
}

impl Ewma {
    /// Creates an EWMA with smoothing factor `alpha` in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Ewma { value: None, alpha }
    }

    /// Feeds one observation and returns the updated average.
    pub fn update(&mut self, x: f64) -> f64 {
        let v = match self.value {
            None => x,
            Some(prev) => self.alpha * x + (1.0 - self.alpha) * prev,
        };
        self.value = Some(v);
        v
    }

    /// Current average, if any observation has been fed.
    pub fn value(&self) -> Option<f64> {
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(std_dev(&[5.0]), 0.0);
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((std_dev(&xs) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cov_matches_definition() {
        let xs = [10.0, 10.0, 10.0];
        assert_eq!(cov(&xs), 0.0);
        let ys = [1.0, 3.0];
        assert!((cov(&ys) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn trimmed_mean_drops_tails() {
        // 10 samples; trim 0.2 drops indices 0,1 and 8,9.
        let xs = [100.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 100.0];
        assert!((trimmed_mean(&xs, 0.2) - 1.0).abs() < 1e-12);
        // Degenerate cases fall back gracefully.
        assert_eq!(trimmed_mean(&[], 0.2), 0.0);
        assert_eq!(trimmed_mean(&[5.0], 0.2), 5.0);
    }

    /// The definition the allocation-free versions are locked against:
    /// sort a copy, average the surviving index range.
    fn trimmed_mean_literal(xs: &[f64], trim: f64) -> f64 {
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("comparable"));
        let n = sorted.len();
        let lo = (trim * n as f64).floor() as usize;
        let hi = (((1.0 - trim) * n as f64).ceil() as usize).min(n);
        if lo >= hi {
            return mean(&sorted);
        }
        mean(&sorted[lo..hi])
    }

    #[test]
    fn zero_skipping_trimmed_mean_keeps_the_bits() {
        // Deterministic pseudo-random magnitudes, mostly zero like a
        // step-function trace's deltas; every length up to past an hour of
        // minutes, several trims.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        for n in 0..=70usize {
            for zero_share in [0u64, 3, 9, 10] {
                let xs: Vec<f64> = (0..n)
                    .map(|_| if next() % 10 < zero_share { 0.0 } else { next() as f64 / 1e9 })
                    .collect();
                for trim in [0.0, 0.2, 0.35, 0.49] {
                    let want = trimmed_mean_literal(&xs, trim).to_bits();
                    assert_eq!(trimmed_mean(&xs, trim).to_bits(), want, "n={n} trim={trim}");
                    let mut rest: Vec<f64> = xs.iter().copied().filter(|&x| x != 0.0).collect();
                    let zeros = n - rest.len();
                    assert_eq!(
                        trimmed_mean_with_zeros(zeros, &mut rest, trim).to_bits(),
                        want,
                        "n={n} zeros={zeros} trim={trim}"
                    );
                }
            }
        }
        // Signed input goes through `trimmed_mean` (no zero prefix claimed).
        let signed = [3.0, -1.0, 0.0, -0.0, 2.5, -7.0, 0.0];
        assert_eq!(
            trimmed_mean(&signed, 0.2).to_bits(),
            trimmed_mean_literal(&signed, 0.2).to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "trim fraction")]
    fn trim_out_of_range_rejected() {
        let _ = trimmed_mean(&[1.0], 0.5);
    }

    #[test]
    fn ewma_converges_toward_input() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.value(), None);
        assert_eq!(e.update(4.0), 4.0);
        assert_eq!(e.update(8.0), 6.0);
        assert_eq!(e.value(), Some(6.0));
    }
}
