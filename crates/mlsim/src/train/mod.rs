//! Real gradient-descent / gradient-boosting trainers.
//!
//! These produce *genuine* validation-metric curves — the substrate
//! EarlyCurve fits — for the four non-CNN benchmarks of Table II
//! (logistic regression, SVM, GBT regression, linear regression). The two
//! CNN benchmarks use the staged synthetic curve model in
//! [`crate::curve`] instead (see the crate's design notes).

pub mod gbt;
pub mod linreg;
pub mod logreg;
pub mod svm;

use rand::rngs::StdRng;
use rand::RngExt;

/// A training process advanced one validation step at a time.
///
/// All metrics are losses: lower is better, matching the paper's
/// validation-loss / MSE / hinge metrics (Table II).
pub trait Trainer {
    /// Runs one training step and returns the validation metric after it.
    fn step(&mut self) -> f64;

    /// Number of steps completed so far.
    fn steps_done(&self) -> u64;
}

/// Staircase exponential learning-rate schedule
/// `lr(k) = lr0 · dr^(floor(k / ds))` — the `lr`/`dr`/`ds` hyper-parameters
/// of Table II.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LrSchedule {
    /// Initial learning rate (`lr`).
    pub lr0: f64,
    /// Decay rate per decay period (`dr`), 1.0 disables decay.
    pub decay_rate: f64,
    /// Steps between decays (`ds`).
    pub decay_steps: u64,
}

impl LrSchedule {
    /// Constant learning rate.
    pub fn constant(lr0: f64) -> Self {
        LrSchedule { lr0, decay_rate: 1.0, decay_steps: 1 }
    }

    /// Learning rate at step `k` (0-based).
    pub fn at(&self, k: u64) -> f64 {
        self.lr0 * self.decay_rate.powi((k / self.decay_steps.max(1)) as i32)
    }
}

/// Samples `batch` indices uniformly from `0..n` (with replacement).
pub(crate) fn sample_batch(rng: &mut StdRng, n: usize, batch: usize) -> Vec<usize> {
    (0..batch).map(|_| rng.random_range(0..n)).collect()
}

/// A linear model `s(x) = wᵀx + b` shared by the GD trainers.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LinearModel {
    pub w: Vec<f64>,
    pub b: f64,
}

impl LinearModel {
    pub fn zeros(dim: usize) -> Self {
        LinearModel { w: vec![0.0; dim], b: 0.0 }
    }

    pub fn score(&self, x: &[f64]) -> f64 {
        self.w.iter().zip(x).map(|(w, x)| w * x).sum::<f64>() + self.b
    }

    /// Applies `w -= lr * (g_scale * x + l2 * w)`, `b -= lr * g_scale`.
    pub fn gd_update(&mut self, x: &[f64], g_scale: f64, lr: f64, l2: f64) {
        for (w, &xi) in self.w.iter_mut().zip(x) {
            *w -= lr * (g_scale * xi + l2 * *w);
        }
        self.b -= lr * g_scale;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn schedule_staircases() {
        let s = LrSchedule { lr0: 0.1, decay_rate: 0.5, decay_steps: 10 };
        assert_eq!(s.at(0), 0.1);
        assert_eq!(s.at(9), 0.1);
        assert_eq!(s.at(10), 0.05);
        assert_eq!(s.at(25), 0.025);
        let c = LrSchedule::constant(0.2);
        assert_eq!(c.at(1000), 0.2);
    }

    #[test]
    fn batch_sampling_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let b = sample_batch(&mut rng, 10, 100);
        assert_eq!(b.len(), 100);
        assert!(b.iter().all(|&i| i < 10));
        // Covers more than one index.
        assert!(b.iter().collect::<std::collections::HashSet<_>>().len() > 3);
    }

    #[test]
    fn linear_model_scores_and_updates() {
        let mut m = LinearModel::zeros(2);
        m.w = vec![1.0, -1.0];
        m.b = 0.5;
        assert_eq!(m.score(&[2.0, 1.0]), 1.5);
        m.gd_update(&[2.0, 1.0], 1.0, 0.1, 0.0);
        assert!((m.score(&[2.0, 1.0]) - (1.5 - 0.1 * (4.0 + 1.0 + 1.0))).abs() < 1e-12);
    }
}
