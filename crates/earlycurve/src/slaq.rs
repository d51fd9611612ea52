//! The SLAQ baseline: single-stage curve fitting over the whole history.
//!
//! SLAQ [19] fits the training curve "using a single function", ignoring
//! learning-rate stages. On single-stage curves it matches EarlyCurve
//! exactly ("if the learning rate of a model is not changing periodically,
//! EarlyCurve and SLAQ would exhibit the same effect", §IV.E); on staged
//! curves the early high-loss stage drags its plateau estimate up and the
//! final-metric prediction degrades — the comparison of paper Fig. 11.

use crate::fit::{fit_stage, StageFit};

/// Single-stage curve predictor.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Slaq {
    points: Vec<(u64, f64)>,
}

impl Slaq {
    /// Creates an empty predictor.
    pub fn new() -> Self {
        Slaq::default()
    }

    /// Feeds the metric observed after step `k` (strictly increasing `k`).
    ///
    /// # Panics
    ///
    /// Panics if `k` does not increase or the metric is not finite.
    pub fn push(&mut self, k: u64, metric: f64) {
        assert!(metric.is_finite(), "metric must be finite");
        if let Some(&(last, _)) = self.points.last() {
            assert!(k > last, "steps must strictly increase");
        }
        self.points.push((k, metric));
    }

    /// Number of observed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no points have been observed.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Fits one stage over the whole history. `None` with < 3 points.
    pub fn fit(&self) -> Option<StageFit> {
        if self.points.len() < 3 {
            return None;
        }
        Some(fit_stage(&self.points, self.points[0].0))
    }

    /// Predicts the final metric at `max_trial_steps`.
    pub fn predict_final(&self, max_trial_steps: u64) -> Option<f64> {
        Some(self.fit()?.predict(max_trial_steps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::EarlyCurve;

    #[test]
    fn matches_earlycurve_on_single_stage() {
        let f = |k: u64| 0.5 + 2.0 / (0.2 * k as f64 + 1.0);
        let mut slaq = Slaq::new();
        let mut ec = EarlyCurve::new(Default::default());
        for k in 1..=60 {
            slaq.push(k, f(k));
            ec.push(k, f(k));
        }
        let ps = slaq.predict_final(500).unwrap();
        let pe = ec.predict_final(500).unwrap();
        assert!((ps - pe).abs() < 1e-6, "slaq {ps} vs earlycurve {pe}");
    }

    #[test]
    fn worse_than_earlycurve_on_two_stage() {
        let f = |k: u64| {
            if k <= 40 {
                1.0 + 1.5 / (0.3 * k as f64 + 1.0)
            } else {
                let rel = (k - 40) as f64;
                0.45 + 0.2 / (0.4 * rel + 1.0)
            }
        };
        let mut slaq = Slaq::new();
        let mut ec = EarlyCurve::new(Default::default());
        for k in 1..=70 {
            slaq.push(k, f(k));
            ec.push(k, f(k));
        }
        let truth = f(400);
        let es = (slaq.predict_final(400).unwrap() - truth).abs();
        let ee = (ec.predict_final(400).unwrap() - truth).abs();
        assert!(
            ee < es,
            "EarlyCurve error {ee} should beat SLAQ error {es} on staged curves"
        );
    }

    #[test]
    fn insufficient_points() {
        let mut slaq = Slaq::new();
        slaq.push(1, 0.5);
        assert!(slaq.fit().is_none());
        assert_eq!(slaq.len(), 1);
        assert!(!slaq.is_empty());
    }
}
