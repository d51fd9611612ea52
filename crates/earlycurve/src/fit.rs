//! Single-stage fitting of the paper's rational curve family (Eq. 4):
//!
//! ```text
//! L̂(k) = 1 / (a0·k² + a1·k + a2) + a3,      a0..a3 ≥ 0
//! ```
//!
//! EarlyCurve "uses a linear regression solver to find the best
//! coefficients" (§III.C): for a fixed plateau `a3`, the transform
//! `y = 1/(L − a3)` turns the model into a quadratic that is *linear* in
//! `(a0, a1, a2)`. We line-search `a3` (coarse grid below the smallest
//! observed metric, then a fine pass around the winner), solve each
//! weighted linear least-squares problem, and keep the plateau whose fit
//! has the smallest residual in the original metric space. Non-negativity
//! is enforced by active-set descent over coefficient subsets: the first
//! (most expressive) subset whose unconstrained solution is already
//! non-negative is accepted.

use crate::solver::solve_in_place;

/// Fitted coefficients for one stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageFit {
    /// Quadratic coefficient (Eq. 4 `a_{i0}`).
    pub a0: f64,
    /// Linear coefficient (`a_{i1}`).
    pub a1: f64,
    /// Constant coefficient (`a_{i2}`).
    pub a2: f64,
    /// Plateau offset (`a_{i3}`).
    pub a3: f64,
    /// Absolute step the stage starts at (its `l_i`); `k` in the model is
    /// measured relative to this.
    pub start: u64,
    /// Mean squared residual of the fit in metric space.
    pub mse: f64,
}

impl StageFit {
    /// Predicted metric at absolute step `k` (clamped to the stage start).
    pub fn predict(&self, k: u64) -> f64 {
        let rel = k.saturating_sub(self.start) as f64;
        let denom = self.a0 * rel * rel + self.a1 * rel + self.a2;
        if denom <= 1e-12 {
            return self.a3;
        }
        self.a3 + 1.0 / denom
    }
}

/// Fits one stage to `(absolute step, metric)` points.
///
/// Returns a degenerate constant fit when fewer than three points are given
/// (prediction = mean of what is available).
///
/// # Panics
///
/// Panics if `points` is empty or any metric is non-finite.
pub fn fit_stage(points: &[(u64, f64)], start: u64) -> StageFit {
    fit_stage_scratch(points, start, &mut Vec::new())
}

/// [`fit_stage`] with a caller-owned row buffer, so the batched sweep's
/// per-selection fits reuse one allocation across every job of a cohort.
/// The buffer is cleared and refilled; the arithmetic (and therefore the
/// returned fit) is bit-identical to [`fit_stage`].
pub fn fit_stage_scratch(
    points: &[(u64, f64)],
    start: u64,
    rows: &mut Vec<[f64; 3]>,
) -> StageFit {
    assert!(!points.is_empty(), "cannot fit an empty stage");
    for &(_, m) in points {
        assert!(m.is_finite(), "metrics must be finite");
    }
    let n = points.len();
    let mean = points.iter().map(|&(_, m)| m).sum::<f64>() / n as f64;
    if n < 3 {
        return StageFit { a0: 0.0, a1: 0.0, a2: 1.0 / mean.max(1e-9), a3: 0.0, start, mse: 0.0 };
    }
    let min_l = points.iter().map(|&(_, m)| m).fold(f64::INFINITY, f64::min);

    // Two-phase line search of the plateau over [0, min_l): a coarse
    // quadratic-spaced grid (denser near min_l where the true plateau
    // usually sits, plus a3 = 0 exactly), then a fine pass around the
    // coarse winner. Same resolution as a dense 25-point grid at roughly
    // half the solves — this runs inside every selection of every
    // campaign, so it is a hot path of scenario sweeps.
    const COARSE: usize = 8;
    const FINE: usize = 6;
    let top = min_l * (1.0 - 1e-3);
    let coarse_a3 = |j: usize| {
        let frac = (j as f64 / COARSE as f64).powi(2);
        top * (1.0 - frac)
    };
    // The regression rows depend only on the step offsets, not on the
    // plateau candidate — build them once for the whole line search.
    rows.clear();
    rows.extend(points.iter().map(|&(k, _)| {
        let rel = k.saturating_sub(start) as f64;
        [rel * rel, rel, 1.0]
    }));
    let rows: &[[f64; 3]] = rows;
    let mut best: Option<StageFit> = None;
    let mut best_j = 0usize;
    for j in 0..=COARSE {
        if let Some(fit) = fit_with_plateau(points, rows, start, coarse_a3(j)) {
            if best.as_ref().is_none_or(|b| fit.mse < b.mse) {
                best = Some(fit);
                best_j = j;
            }
        }
    }
    if best.is_some() {
        // Refine between the coarse neighbors of the winner.
        let lo_a3 = coarse_a3((best_j + 1).min(COARSE));
        let hi_a3 = coarse_a3(best_j.saturating_sub(1));
        for i in 1..=FINE {
            let a3 = lo_a3 + (hi_a3 - lo_a3) * i as f64 / (FINE + 1) as f64;
            if let Some(fit) = fit_with_plateau(points, rows, start, a3) {
                if best.as_ref().is_none_or(|b| fit.mse < b.mse) {
                    best = Some(fit);
                }
            }
        }
    }
    best.unwrap_or(StageFit {
        a0: 0.0,
        a1: 0.0,
        a2: 1.0 / mean.max(1e-9),
        a3: 0.0,
        start,
        mse: variance(points, mean),
    })
}

fn variance(points: &[(u64, f64)], mean: f64) -> f64 {
    points.iter().map(|&(_, m)| (m - mean) * (m - mean)).sum::<f64>() / points.len() as f64
}

/// Linearized weighted LS for a fixed plateau, with non-negativity via
/// active-set enumeration over the three coefficients.
///
/// The normal equations are accumulated directly on stack arrays — this
/// runs `plateau grid × 4 subsets` times per fitted stage, and the
/// orchestrator fits a stage per configuration at every selection, so a
/// per-row allocation here was the single hottest allocation site of a
/// campaign simulation.
fn fit_with_plateau(
    points: &[(u64, f64)],
    rows: &[[f64; 3]],
    start: u64,
    a3: f64,
) -> Option<StageFit> {
    // y = 1/(L - a3); weight (L - a3)^4 maps y-residuals back to L-space,
    // and the extra 1/L² makes residuals *relative*, so a large initial
    // transient (loss falling orders of magnitude) cannot drown out the
    // plateau tail that the final-metric prediction extrapolates from.
    let target_of = |m: f64| -> Option<(f64, f64)> {
        let gap = m - a3;
        if gap <= 1e-9 {
            return None; // plateau not strictly below all points
        }
        Some((1.0 / gap, gap.powi(4) / (m * m).max(1e-12)))
    };
    // Every point must sit strictly above the plateau.
    if points.iter().any(|&(_, m)| m - a3 <= 1e-9) {
        return None;
    }

    // Subsets of active coefficients, most expressive first; inactive ones
    // are pinned to zero. a2 (the intercept) is always active — the model
    // needs 1/a2 finite at the stage start. The first subset whose
    // unconstrained solution is already non-negative is accepted
    // (active-set descent); later subsets only run when an earlier one
    // violates the constraint.
    const SUBSETS: [[bool; 3]; 4] = [
        [true, true, true],
        [false, true, true],
        [true, false, true],
        [false, false, true],
    ];
    for active in SUBSETS {
        let mut idx = [0usize; 3];
        let mut p = 0;
        for (i, &on) in active.iter().enumerate() {
            if on {
                idx[p] = i;
                p += 1;
            }
        }
        let idx = &idx[..p];
        // Weighted normal equations over the active columns, in the same
        // accumulation order as the general solver used previously.
        let mut xtx = [0.0f64; 9];
        let mut xty = [0.0f64; 3];
        for (row, &(_, m)) in rows.iter().zip(points) {
            let (target, weight) = target_of(m).expect("gap checked above");
            for (si, &i) in idx.iter().enumerate() {
                xty[si] += weight * row[i] * target;
                for (sj, &j) in idx.iter().enumerate() {
                    xtx[si * p + sj] += weight * row[i] * row[j];
                }
            }
        }
        for i in 0..p {
            xtx[i * p + i] += 1e-9;
        }
        if !solve_in_place(&mut xtx[..p * p], &mut xty[..p], p) {
            continue;
        }
        let beta = &xty[..p];
        let mut coef = [0.0f64; 3];
        for (slot, &i) in idx.iter().enumerate() {
            coef[i] = beta[slot];
        }
        if coef.iter().any(|&c| c < 0.0) {
            continue;
        }
        let candidate = StageFit {
            a0: coef[0],
            a1: coef[1],
            a2: coef[2],
            a3,
            start,
            mse: 0.0,
        };
        let mse = points
            .iter()
            .map(|&(k, m)| {
                let e = candidate.predict(k) - m;
                e * e
            })
            .sum::<f64>()
            / points.len() as f64;
        return Some(StageFit { mse, ..candidate });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth(a0: f64, a1: f64, a2: f64, a3: f64, n: u64) -> Vec<(u64, f64)> {
        (0..n)
            .map(|k| {
                let rel = k as f64;
                (k, a3 + 1.0 / (a0 * rel * rel + a1 * rel + a2))
            })
            .collect()
    }

    #[test]
    fn recovers_noise_free_curve() {
        let pts = synth(0.0, 0.05, 0.8, 0.4, 60);
        let fit = fit_stage(&pts, 0);
        // Prediction quality matters more than exact coefficients
        // (the problem is ill-conditioned by design).
        for &(k, m) in &pts {
            assert!((fit.predict(k) - m).abs() < 0.01, "at {k}: {} vs {m}", fit.predict(k));
        }
        // Extrapolation approaches the true plateau.
        let far = fit.predict(600);
        assert!((far - 0.4).abs() < 0.12, "extrapolated {far}");
    }

    #[test]
    fn coefficients_are_nonnegative() {
        let pts = synth(0.002, 0.0, 0.5, 0.2, 50);
        let fit = fit_stage(&pts, 0);
        assert!(fit.a0 >= 0.0 && fit.a1 >= 0.0 && fit.a2 >= 0.0 && fit.a3 >= 0.0);
    }

    #[test]
    fn noisy_curve_fits_reasonably() {
        let mut pts = synth(0.0, 0.08, 1.0, 0.45, 80);
        // Deterministic "noise".
        for (i, p) in pts.iter_mut().enumerate() {
            p.1 *= 1.0 + 0.01 * (((i * 2_654_435_761) % 1000) as f64 / 1000.0 - 0.5);
        }
        let fit = fit_stage(&pts, 0);
        assert!(fit.mse < 1e-3, "mse {}", fit.mse);
        let far = fit.predict(400);
        assert!((far - 0.45).abs() < 0.15, "extrapolated {far}");
    }

    #[test]
    fn stage_offset_is_respected() {
        // Same curve shape but starting at absolute step 100.
        let pts: Vec<(u64, f64)> = synth(0.0, 0.05, 0.8, 0.3, 40)
            .into_iter()
            .map(|(k, m)| (k + 100, m))
            .collect();
        let fit = fit_stage(&pts, 100);
        assert_eq!(fit.start, 100);
        assert!((fit.predict(100) - pts[0].1).abs() < 0.02);
    }

    #[test]
    fn short_stages_fall_back_to_constant() {
        let fit = fit_stage(&[(3, 0.5), (4, 0.6)], 3);
        assert!((fit.predict(100) - 0.55).abs() < 0.01);
    }

    #[test]
    fn flat_plateau_is_fit_exactly() {
        let pts: Vec<(u64, f64)> = (0..30).map(|k| (k, 0.25)).collect();
        let fit = fit_stage(&pts, 0);
        assert!((fit.predict(1000) - 0.25).abs() < 0.02);
    }

    #[test]
    #[should_panic(expected = "cannot fit an empty stage")]
    fn empty_stage_panics() {
        let _ = fit_stage(&[], 0);
    }
}
