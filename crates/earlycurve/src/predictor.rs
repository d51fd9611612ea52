//! The EarlyCurve predictor: online metric collection, staged fitting,
//! convergence detection and final-metric prediction.

use crate::fit::{fit_stage, fit_stage_scratch, StageFit};
use crate::kernel::FitScratch;
use crate::stage::{detect_boundaries, detect_boundaries_into, split_stages, StageConfig};

/// Full configuration of the predictor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EarlyCurveConfig {
    /// Stage-boundary detection thresholds (Eq. 7).
    pub stage: StageConfig,
    /// Relative tail-slope threshold for convergence ("the metric curve
    /// becomes a plateau, where training is no longer meaningful", §III.C).
    pub conv_tol: f64,
    /// Number of trailing points examined for convergence.
    pub conv_window: usize,
    /// Minimum points required in the last stage before extrapolating from
    /// it; shorter last stages fall back to all points since the previous
    /// boundary.
    pub min_fit_points: usize,
}

impl Default for EarlyCurveConfig {
    fn default() -> Self {
        EarlyCurveConfig {
            stage: StageConfig::default(),
            conv_tol: 0.002,
            conv_window: 24,
            min_fit_points: 4,
        }
    }
}

/// A fitted piecewise curve (Eq. 4–6): one [`StageFit`] per detected stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StagedFit {
    stages: Vec<StageFit>,
    /// Step of the last observed point.
    last_step: u64,
}

impl StagedFit {
    /// The per-stage fits, in order.
    pub fn stages(&self) -> &[StageFit] {
        &self.stages
    }

    /// Predicted metric at absolute step `k`. Steps within the observed
    /// range use their containing stage; steps beyond it extrapolate with
    /// the last stage (the paper's final-metric prediction).
    pub fn predict(&self, k: u64) -> f64 {
        let stage = self
            .stages
            .iter()
            .rev()
            .find(|s| s.start <= k)
            .unwrap_or(self.stages.first().expect("at least one stage"));
        stage.predict(k)
    }

    /// Mean squared residual across all stages, weighted by stage length.
    pub fn mse(&self) -> f64 {
        // Stage mse values are per-point; combine by simple mean over stages
        // (stage lengths are similar in practice).
        self.stages.iter().map(|s| s.mse).sum::<f64>() / self.stages.len() as f64
    }
}

/// Online EarlyCurve state for one HPT job.
///
/// ```
/// use spottune_earlycurve::predictor::EarlyCurve;
///
/// let mut ec = EarlyCurve::new(Default::default());
/// for k in 1..=50u64 {
///     let metric = 0.4 + 1.0 / (0.3 * k as f64 + 1.0);
///     ec.push(k, metric);
/// }
/// let fit = ec.fit().unwrap();
/// let predicted_final = fit.predict(400);
/// assert!((predicted_final - 0.4).abs() < 0.1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EarlyCurve {
    config: EarlyCurveConfig,
    points: Vec<(u64, f64)>,
}

impl EarlyCurve {
    /// Creates an empty predictor.
    pub fn new(config: EarlyCurveConfig) -> Self {
        EarlyCurve { config, points: Vec::new() }
    }

    /// Feeds the metric observed after step `k` (strictly increasing `k`).
    ///
    /// # Panics
    ///
    /// Panics if `k` does not increase or the metric is not finite.
    pub fn push(&mut self, k: u64, metric: f64) {
        assert!(metric.is_finite(), "metric must be finite");
        if let Some(&(last, _)) = self.points.last() {
            assert!(k > last, "steps must strictly increase ({k} after {last})");
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

    /// The observed `(step, metric)` points.
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }

    /// Discards every observation, keeping the allocation. Equivalent to
    /// `*self = EarlyCurve::new(config)` — used by the batch engine's job
    /// arena to reuse a slot across campaigns without reallocating.
    pub fn reset(&mut self, config: EarlyCurveConfig) {
        self.config = config;
        self.points.clear();
    }

    /// Discards every observation past step `step`, keeping the prefix at
    /// or below it. Used when work is rolled back to an older checkpoint
    /// after a failed transfer: the re-executed steps will be re-observed,
    /// and `push`'s strictly-increasing invariant must keep holding.
    pub fn truncate_to(&mut self, step: u64) {
        self.points.retain(|&(k, _)| k <= step);
    }

    /// Detected stage boundaries as indices into [`EarlyCurve::points`].
    pub fn boundaries(&self) -> Vec<usize> {
        let metrics: Vec<f64> = self.points.iter().map(|&(_, m)| m).collect();
        detect_boundaries(&metrics, &self.config.stage)
    }

    /// Fits the staged model to everything observed so far. Returns `None`
    /// with fewer than three points.
    pub fn fit(&self) -> Option<StagedFit> {
        if self.points.len() < 3 {
            return None;
        }
        let boundaries = self.boundaries();
        let segments = split_stages(&self.points, &boundaries);
        let mut stages = Vec::with_capacity(segments.len());
        let mut pending: Vec<(u64, f64)> = Vec::new();
        for segment in segments {
            // Merge too-short segments into the next stage rather than
            // extrapolating from a handful of points.
            if segment.len() + pending.len() < self.config.min_fit_points {
                pending.extend_from_slice(segment);
                continue;
            }
            let merged: Vec<(u64, f64)> = pending
                .drain(..)
                .chain(segment.iter().copied())
                .collect();
            let start = merged[0].0;
            stages.push(fit_stage(&merged, start));
        }
        if !pending.is_empty() {
            let start = pending[0].0;
            stages.push(fit_stage(&pending, start));
        }
        Some(StagedFit { stages, last_step: self.points.last().expect("non-empty").0 })
    }

    /// Predicts the final metric at `max_trial_steps` (the paper's
    /// EarlyCurve(hp, max_trial_steps) call, Algorithm 1 line 50).
    pub fn predict_final(&self, max_trial_steps: u64) -> Option<f64> {
        Some(self.fit()?.predict(max_trial_steps))
    }

    /// Allocation-free [`EarlyCurve::fit`]: the same boundary detection,
    /// short-segment merging and per-stage fitting, written into
    /// `scratch`'s reusable buffers ([`FitScratch::stages`] holds the
    /// result). Returns `false` — with no stages fitted — under three
    /// points, exactly when [`EarlyCurve::fit`] returns `None`; otherwise
    /// the stages equal `self.fit().unwrap().stages()` bit for bit (every
    /// buffer reuse is a cleared-and-refilled `Vec`, never a change of
    /// arithmetic). The batched sweep's lane path fits every job of a
    /// cohort through one scratch.
    pub fn fit_into(&self, scratch: &mut FitScratch) -> bool {
        scratch.stages_mut().clear();
        if self.points.len() < 3 {
            return false;
        }
        scratch.metrics.clear();
        scratch.metrics.extend(self.points.iter().map(|&(_, m)| m));
        detect_boundaries_into(&scratch.metrics, &self.config.stage, &mut scratch.boundaries);
        scratch.pending.clear();
        // Segments are the `split_stages` partition, iterated in place:
        // [prev boundary, boundary) per detected boundary, then the tail.
        let mut seg_start = 0usize;
        for bi in 0..=scratch.boundaries.len() {
            let seg_end =
                scratch.boundaries.get(bi).copied().unwrap_or(self.points.len());
            let segment = &self.points[seg_start..seg_end];
            seg_start = seg_end;
            // Merge too-short segments into the next stage rather than
            // extrapolating from a handful of points (as in `fit`).
            if segment.len() + scratch.pending.len() < self.config.min_fit_points {
                scratch.pending.extend_from_slice(segment);
                continue;
            }
            scratch.merged.clear();
            scratch.merged.append(&mut scratch.pending);
            scratch.merged.extend_from_slice(segment);
            let start = scratch.merged[0].0;
            let fitted = fit_stage_scratch(&scratch.merged, start, &mut scratch.rows);
            scratch.stages_mut().push(fitted);
        }
        if !scratch.pending.is_empty() {
            let start = scratch.pending[0].0;
            let fitted = fit_stage_scratch(&scratch.pending, start, &mut scratch.rows);
            scratch.stages_mut().push(fitted);
        }
        true
    }

    /// Whether the curve has plateaued ("the model comes to convergence …
    /// we stop the iteration and treat this model as finished", §III.C).
    ///
    /// Compares the means of the first and second halves of the last
    /// `conv_window` points; converged when their relative difference is
    /// below `conv_tol`.
    pub fn converged(&self) -> bool {
        let w = self.config.conv_window;
        if self.points.len() < w {
            return false;
        }
        let tail = &self.points[self.points.len() - w..];
        let half = w / 2;
        let first: f64 = tail[..half].iter().map(|&(_, m)| m).sum::<f64>() / half as f64;
        let second: f64 =
            tail[half..].iter().map(|&(_, m)| m).sum::<f64>() / (w - half) as f64;
        if first.abs() < 1e-12 {
            return true;
        }
        ((first - second) / first).abs() < self.config.conv_tol
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(ec: &mut EarlyCurve, f: impl Fn(u64) -> f64, upto: u64) {
        for k in 1..=upto {
            ec.push(k, f(k));
        }
    }

    #[test]
    fn single_stage_prediction_extrapolates() {
        let mut ec = EarlyCurve::new(Default::default());
        feed(&mut ec, |k| 0.5 + 2.0 / (0.2 * k as f64 + 1.0), 60);
        let pred = ec.predict_final(500).unwrap();
        let truth = 0.5 + 2.0 / (0.2 * 500.0 + 1.0);
        assert!((pred - truth).abs() < 0.08, "pred {pred} truth {truth}");
    }

    #[test]
    fn two_stage_curve_is_fit_piecewise() {
        let mut ec = EarlyCurve::new(Default::default());
        let f = |k: u64| {
            if k <= 40 {
                1.0 + 1.5 / (0.3 * k as f64 + 1.0)
            } else {
                let rel = (k - 40) as f64;
                0.45 + 0.2 / (0.4 * rel + 1.0)
            }
        };
        feed(&mut ec, f, 70);
        let fit = ec.fit().unwrap();
        assert_eq!(fit.stages().len(), 2, "boundaries {:?}", ec.boundaries());
        // The final prediction must come from the second stage, near 0.45,
        // not from the first stage's plateau near 1.0.
        let pred = fit.predict(400);
        assert!((pred - 0.45).abs() < 0.1, "pred {pred}");
    }

    #[test]
    fn convergence_detected_on_plateau() {
        let mut ec = EarlyCurve::new(Default::default());
        feed(&mut ec, |k| if k < 30 { 1.0 / k as f64 } else { 0.033 }, 60);
        assert!(ec.converged());
        let mut moving = EarlyCurve::new(Default::default());
        feed(&mut moving, |k| 2.0 / (0.05 * k as f64 + 1.0), 40);
        assert!(!moving.converged());
    }

    #[test]
    fn too_few_points_yield_none() {
        let mut ec = EarlyCurve::new(Default::default());
        ec.push(1, 1.0);
        ec.push(2, 0.9);
        assert!(ec.fit().is_none());
        assert!(ec.predict_final(100).is_none());
        assert!(!ec.converged());
        assert_eq!(ec.len(), 2);
        assert!(!ec.is_empty());
    }

    #[test]
    fn truncation_reopens_the_step_range() {
        let mut ec = EarlyCurve::new(Default::default());
        feed(&mut ec, |k| 1.0 / k as f64, 20);
        ec.truncate_to(12);
        assert_eq!(ec.len(), 12);
        assert_eq!(ec.points().last().unwrap().0, 12);
        // Re-executed steps can be observed again.
        ec.push(13, 0.07);
        assert_eq!(ec.len(), 13);
        // Truncating below every point empties the curve.
        ec.truncate_to(0);
        assert!(ec.is_empty());
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn non_increasing_steps_panic() {
        let mut ec = EarlyCurve::new(Default::default());
        ec.push(5, 1.0);
        ec.push(5, 0.9);
    }
}
