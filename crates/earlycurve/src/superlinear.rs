//! Superlinear-convergence curve fitting — the §V.B extension.
//!
//! EarlyCurve's rational family (Eq. 4) models the `O(1/k)`-family
//! convergence of gradient-descent optimizers. Quasi-Newton methods such as
//! L-BFGS converge at a rate `O(μᵏ)` (linear/superlinear), for which the
//! paper says "a different curve-fitting model should be applied, which we
//! will investigate in future work". This module supplies that model:
//!
//! ```text
//! L̂(k) = a3 + amp · μ^(k − start),        0 < μ < 1, amp ≥ 0, a3 ≥ 0
//! ```
//!
//! The fit linearizes per plateau candidate: `ln(L − a3) = ln(amp) +
//! (k − start)·ln μ` is ordinary least squares in `(ln amp, ln μ)`, and the
//! plateau is line-searched exactly like [`crate::fit::fit_stage`].

use crate::solver::weighted_least_squares;

/// Fitted geometric-convergence coefficients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeometricFit {
    /// Plateau the curve decays toward.
    pub a3: f64,
    /// Amplitude above the plateau at the stage start.
    pub amp: f64,
    /// Per-step contraction ratio in `(0, 1)`.
    pub mu: f64,
    /// Absolute step the fit starts at.
    pub start: u64,
    /// Mean squared residual in metric space.
    pub mse: f64,
}

impl GeometricFit {
    /// Predicted metric at absolute step `k`.
    pub fn predict(&self, k: u64) -> f64 {
        let rel = k.saturating_sub(self.start) as f64;
        self.a3 + self.amp * self.mu.powf(rel)
    }
}

/// Fits `L(k) = a3 + amp·μ^(k−start)` to `(absolute step, metric)` points.
///
/// Returns a degenerate constant fit (μ = 1 asymptote semantics via
/// `amp = 0`) for fewer than three points.
///
/// # Panics
///
/// Panics if `points` is empty or contains non-finite metrics.
pub fn fit_geometric(points: &[(u64, f64)], start: u64) -> GeometricFit {
    assert!(!points.is_empty(), "cannot fit an empty stage");
    for &(_, m) in points {
        assert!(m.is_finite(), "metrics must be finite");
    }
    let n = points.len();
    let mean = points.iter().map(|&(_, m)| m).sum::<f64>() / n as f64;
    if n < 3 {
        return GeometricFit { a3: mean, amp: 0.0, mu: 0.5, start, mse: 0.0 };
    }
    let min_l = points.iter().map(|&(_, m)| m).fold(f64::INFINITY, f64::min);

    let mut best: Option<GeometricFit> = None;
    const GRID: usize = 24;
    for j in 0..=GRID {
        let frac = (j as f64 / GRID as f64).powi(2);
        let a3 = (min_l * (1.0 - 1e-3)) * (1.0 - frac);
        let Some(fit) = fit_with_plateau(points, start, a3) else {
            continue;
        };
        if best.as_ref().is_none_or(|b| fit.mse < b.mse) {
            best = Some(fit);
        }
    }
    best.unwrap_or(GeometricFit { a3: mean, amp: 0.0, mu: 0.5, start, mse: 0.0 })
}

fn fit_with_plateau(points: &[(u64, f64)], start: u64, a3: f64) -> Option<GeometricFit> {
    // ln(L − a3) = ln amp + rel·ln μ, weighted by (L − a3)² to express
    // residuals in metric space (d ln(x) = dx/x).
    let mut rows = Vec::with_capacity(points.len());
    let mut ys = Vec::with_capacity(points.len());
    let mut ws = Vec::with_capacity(points.len());
    for &(k, m) in points {
        let gap = m - a3;
        if gap <= 1e-12 {
            return None;
        }
        let rel = k.saturating_sub(start) as f64;
        rows.push(vec![1.0, rel]);
        ys.push(gap.ln());
        ws.push(gap * gap / (m * m).max(1e-12));
    }
    let beta = weighted_least_squares(&rows, &ys, &ws, 2, 1e-9)?;
    let amp = beta[0].exp();
    let mu = beta[1].exp();
    if !(0.0..1.0).contains(&mu) || !amp.is_finite() {
        return None;
    }
    let candidate = GeometricFit { a3, amp, mu, start, mse: 0.0 };
    let mse = points
        .iter()
        .map(|&(k, m)| {
            let e = candidate.predict(k) - m;
            e * e
        })
        .sum::<f64>()
        / points.len() as f64;
    Some(GeometricFit { mse, ..candidate })
}

/// Picks between the rational (sublinear) and geometric (superlinear)
/// families by residual — lets callers handle optimizers of unknown
/// convergence order automatically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AutoFit {
    /// The Eq. 4 rational family won.
    Rational(crate::fit::StageFit),
    /// The geometric family won.
    Geometric(GeometricFit),
}

impl AutoFit {
    /// Fits both families and keeps the lower-residual one.
    pub fn fit(points: &[(u64, f64)], start: u64) -> AutoFit {
        let rational = crate::fit::fit_stage(points, start);
        let geometric = fit_geometric(points, start);
        if geometric.mse < rational.mse {
            AutoFit::Geometric(geometric)
        } else {
            AutoFit::Rational(rational)
        }
    }

    /// Predicted metric at absolute step `k`.
    pub fn predict(&self, k: u64) -> f64 {
        match self {
            AutoFit::Rational(f) => f.predict(k),
            AutoFit::Geometric(f) => f.predict(k),
        }
    }

    /// Mean squared residual of the winning fit.
    pub fn mse(&self) -> f64 {
        match self {
            AutoFit::Rational(f) => f.mse,
            AutoFit::Geometric(f) => f.mse,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geometric_points(a3: f64, amp: f64, mu: f64, n: u64) -> Vec<(u64, f64)> {
        (0..n).map(|k| (k, a3 + amp * mu.powf(k as f64))).collect()
    }

    #[test]
    fn recovers_geometric_curve() {
        let pts = geometric_points(0.3, 2.0, 0.9, 50);
        let fit = fit_geometric(&pts, 0);
        assert!((fit.mu - 0.9).abs() < 0.02, "mu {}", fit.mu);
        assert!((fit.predict(200) - 0.3).abs() < 0.05, "plateau {}", fit.predict(200));
        for &(k, m) in &pts {
            assert!((fit.predict(k) - m).abs() < 0.02);
        }
    }

    #[test]
    fn geometric_beats_rational_on_superlinear_data() {
        // An L-BFGS-style fast-contracting curve.
        let pts = geometric_points(0.1, 5.0, 0.75, 40);
        let auto = AutoFit::fit(&pts, 0);
        assert!(matches!(auto, AutoFit::Geometric(_)), "auto picked {auto:?}");
        assert!((auto.predict(100) - 0.1).abs() < 0.02);
    }

    #[test]
    fn rational_wins_on_sublinear_data() {
        // O(1/k) data should keep the Eq. 4 family.
        let pts: Vec<(u64, f64)> = (0..60)
            .map(|k| (k, 0.4 + 1.0 / (0.2 * k as f64 + 1.0)))
            .collect();
        let auto = AutoFit::fit(&pts, 0);
        let err = (auto.predict(400) - (0.4 + 1.0 / (0.2 * 400.0 + 1.0))).abs();
        assert!(err < 0.1, "extrapolation error {err}");
    }

    #[test]
    fn short_input_falls_back_to_constant() {
        let fit = fit_geometric(&[(0, 1.0), (1, 0.9)], 0);
        assert_eq!(fit.amp, 0.0);
        assert!((fit.predict(100) - 0.95).abs() < 0.01);
    }

    #[test]
    fn stage_offset_respected() {
        let pts: Vec<(u64, f64)> = geometric_points(0.2, 1.0, 0.85, 30)
            .into_iter()
            .map(|(k, m)| (k + 50, m))
            .collect();
        let fit = fit_geometric(&pts, 50);
        assert!((fit.predict(50) - 1.2).abs() < 0.05);
    }
}
