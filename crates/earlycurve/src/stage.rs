//! Stage-boundary detection (paper Eq. 7).
//!
//! A step `i` opens a new stage when its relative metric change
//! `ζᵢ = |Lᵢ − Lᵢ₋₁| / Lᵢ₋₁` exceeds `ξ` *after* a steady period — every
//! `ζⱼ` in the preceding `window` steps below `ε`. "If the changing rate of
//! a model's metric is suddenly high after a steady period, it could be
//! considered to be moving to a new stage."

/// Detection thresholds. Paper defaults are `ξ = 0.5`, `ε = 0.01`,
/// window 5; [`StageConfig::default`] uses `ξ = 0.3`, `ε = 0.05` instead
/// because this harness's curves carry ~2 % multiplicative metric noise and
/// gentler decay drops than ResNet-56's (see the crate's design notes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageConfig {
    /// Threshold `ξ` on the instantaneous change rate.
    pub xi: f64,
    /// Threshold `ε` on the preceding steady period.
    pub eps: f64,
    /// Number of preceding steps that must be steady.
    pub window: usize,
    /// Minimum steps in a stage before a new boundary may open.
    pub min_stage_len: usize,
}

impl Default for StageConfig {
    fn default() -> Self {
        StageConfig { xi: 0.3, eps: 0.05, window: 5, min_stage_len: 8 }
    }
}

impl StageConfig {
    /// The paper's exact Eq. 7 constants (ξ = 0.5, ε = 0.01).
    pub fn paper() -> Self {
        StageConfig { xi: 0.5, eps: 0.01, window: 5, min_stage_len: 8 }
    }
}

/// Returns the indices (into `metrics`) at which a new stage starts,
/// *excluding* the implicit stage at index 0.
///
/// `metrics[i]` is the metric after step `i+1`; indices are positions in
/// the slice. Boundaries honor `min_stage_len` spacing.
pub fn detect_boundaries(metrics: &[f64], cfg: &StageConfig) -> Vec<usize> {
    let mut boundaries = Vec::new();
    detect_boundaries_into(metrics, cfg, &mut boundaries);
    boundaries
}

/// [`detect_boundaries`] into a caller-owned buffer (cleared first), so the
/// batched sweep's per-selection fits reuse one allocation. Same indices,
/// same order.
pub fn detect_boundaries_into(metrics: &[f64], cfg: &StageConfig, boundaries: &mut Vec<usize>) {
    boundaries.clear();
    if metrics.len() < cfg.window + 2 {
        return;
    }
    let mut last_start = 0usize;
    for i in 1..metrics.len() {
        if i - last_start < cfg.min_stage_len || i < cfg.window + 1 {
            continue;
        }
        let prev = metrics[i - 1];
        if prev.abs() < 1e-12 {
            continue;
        }
        let zeta_i = (metrics[i] - prev).abs() / prev.abs();
        if zeta_i <= cfg.xi {
            continue;
        }
        // Steady-period condition on the preceding `window` steps.
        let steady = (i - cfg.window..i).all(|j| {
            let base = metrics[j - 1].abs();
            base > 1e-12 && (metrics[j] - metrics[j - 1]).abs() / base < cfg.eps
        });
        if steady {
            boundaries.push(i);
            last_start = i;
        }
    }
}

/// Splits `points` (absolute step, metric) into per-stage slices according
/// to the detected boundaries. The union of the returned ranges is the whole
/// input and ranges are disjoint — the Eq. 5/6 partition invariant.
pub fn split_stages<'a>(
    points: &'a [(u64, f64)],
    boundaries: &[usize],
) -> Vec<&'a [(u64, f64)]> {
    let mut out = Vec::with_capacity(boundaries.len() + 1);
    let mut start = 0usize;
    for &b in boundaries {
        out.push(&points[start..b]);
        start = b;
    }
    out.push(&points[start..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A curve that is steady around 1.0, then drops to 0.4 at index 30.
    fn two_stage_curve() -> Vec<f64> {
        let mut m: Vec<f64> = (0..30).map(|i| 1.0 + 0.3 / (1.0 + i as f64)).collect();
        m.extend((0..30).map(|i| 0.4 + 0.05 / (1.0 + i as f64)));
        m
    }

    #[test]
    fn detects_the_drop() {
        let cfg = StageConfig::default();
        let b = detect_boundaries(&two_stage_curve(), &cfg);
        assert_eq!(b, vec![30]);
    }

    #[test]
    fn no_boundary_without_steady_prefix() {
        // A drop right at the start, while the curve is still moving fast.
        let mut m: Vec<f64> = (0..6).map(|i| 3.0 / (1.0 + i as f64)).collect();
        m.extend((0..30).map(|i| 0.4 + 0.05 / (1.0 + i as f64)));
        let b = detect_boundaries(&m, &StageConfig::default());
        assert!(b.is_empty(), "boundaries {b:?}");
    }

    #[test]
    fn smooth_single_stage_has_no_boundaries() {
        let m: Vec<f64> = (0..60).map(|i| 0.4 + 1.0 / (1.0 + 0.2 * i as f64)).collect();
        assert!(detect_boundaries(&m, &StageConfig::default()).is_empty());
    }

    #[test]
    fn min_stage_len_suppresses_rapid_boundaries() {
        // Two drops four steps apart: only the first can open a stage.
        let mut m = vec![1.0; 20];
        m.extend(vec![0.5; 4]);
        m.extend(vec![0.2; 20]);
        let b = detect_boundaries(&m, &StageConfig { min_stage_len: 8, ..StageConfig::default() });
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn noise_below_eps_does_not_block_detection() {
        let cfg = StageConfig::default();
        let mut m: Vec<f64> = (0..30)
            .map(|i| (1.0 + 0.02 * ((i * 37 % 10) as f64 / 10.0 - 0.5)) * 1.0)
            .collect();
        m.extend(vec![0.3; 20]);
        let b = detect_boundaries(&m, &cfg);
        assert_eq!(b, vec![30]);
    }

    #[test]
    fn split_partitions_the_points() {
        let points: Vec<(u64, f64)> = (0..10).map(|k| (k, k as f64)).collect();
        let stages = split_stages(&points, &[4, 7]);
        assert_eq!(stages.len(), 3);
        assert_eq!(stages[0].len(), 4);
        assert_eq!(stages[1].len(), 3);
        assert_eq!(stages[2].len(), 3);
        let total: usize = stages.iter().map(|s| s.len()).sum();
        assert_eq!(total, points.len());
        // Contiguity: each stage starts where the previous ended.
        assert_eq!(stages[1][0].0, 4);
        assert_eq!(stages[2][0].0, 7);
    }

    #[test]
    fn short_series_yields_no_boundaries() {
        assert!(detect_boundaries(&[1.0, 0.5], &StageConfig::default()).is_empty());
    }
}
