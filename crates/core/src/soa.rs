//! Structure-of-arrays job lanes: the cross-campaign SIMD prediction
//! barrier of the batched sweep.
//!
//! The transient drive's prediction stage (Algorithm 1 line 50) evaluates
//! one staged-curve extrapolation per job. Campaign by campaign those are
//! a handful of scalar polynomial evaluations — too few to vectorize. The
//! batched sweep, though, holds a *cohort* of campaigns at the same stage
//! at once, and their predictions are entirely independent. [`JobLanes`]
//! gathers the hot per-job fields of every campaign in the cohort into
//! flat arrays (fallback metric, extrapolation-stage coefficients), runs
//! the whole set through the chunked `[f64; 8]` lane kernel
//! ([`spottune_earlycurve::CurveLanes`]) in one pass, and scatters the
//! results back per campaign.
//!
//! Bit-identity is by construction: lanes run *across* campaigns, so each
//! job's prediction is still the exact scalar operation sequence of
//! [`EarlyCurve::predict_final`] — the fit and its stage selection (same
//! scan as `StagedFit::predict`) come from [`Job::extrapolation_stage`],
//! and the rational-model evaluation from the lane kernel (same
//! expression per lane, reordered only *between* independent jobs). A
//! job's fit is not recomputed per campaign: its history is a prefix of
//! its deterministic curve, so the curve tier fits each (curve, prefix)
//! once ([`TrainingRun::extrapolation_stage`]), through the allocation-free
//! [`EarlyCurve::fit_into`] on the lanes' reused [`PrefixScratch`], and
//! every campaign of every cohort that reaches the prefix reuses it. The
//! `batch_equivalence` suite and this module's tests lock this.
//!
//! [`EarlyCurve::predict_final`]: spottune_earlycurve::EarlyCurve::predict_final
//! [`EarlyCurve::fit_into`]: spottune_earlycurve::EarlyCurve::fit_into
//! [`TrainingRun::extrapolation_stage`]: spottune_mlsim::TrainingRun::extrapolation_stage

use crate::job::{FinishReason, Job};
use spottune_earlycurve::kernel::CurveLanes;
use spottune_mlsim::PrefixScratch;

/// Campaigns staged together through one lane barrier. Sized so a cohort's
/// engine scratch stays cache-resident while still filling the 8-wide
/// lanes several times over per kernel invocation.
pub const COHORT_WIDTH: usize = 8;

/// Sentinel lane for jobs whose prediction bypasses the kernel (θ ≥ 1,
/// early convergence, or a curve too short to fit).
const NO_LANE: usize = usize::MAX;

/// SoA mirror of the per-job prediction state of a cohort of campaigns,
/// plus the lane kernel it feeds.
///
/// Usage: [`clear`](JobLanes::clear), one [`gather`](JobLanes::gather) per
/// campaign (returning a handle), one [`evaluate`](JobLanes::evaluate),
/// then one [`scatter`](JobLanes::scatter) per handle.
#[derive(Debug, Default)]
pub struct JobLanes {
    /// Per gathered campaign: its jobs' half-open range in `last`/`lane`.
    ranges: Vec<(usize, usize)>,
    /// Fallback prediction per gathered job: its last observed metric
    /// (+∞ when it never observed one) — also the take-last value.
    last: Vec<f64>,
    /// Kernel lane of each gathered job, or [`NO_LANE`].
    lane: Vec<usize>,
    /// Jobs pushed into kernel lanes since the last clear.
    pushed: usize,
    lanes: CurveLanes,
    /// Fit buffers for the memo misses of every gathered job.
    fit: PrefixScratch,
    /// Counter snapshot already handed to [`flush_counters`] callers.
    flushed: (u64, u64, u64),
}

impl JobLanes {
    /// Creates empty lanes.
    pub fn new() -> Self {
        JobLanes::default()
    }

    /// Drops the gathered cohort, keeping allocations and lifetime
    /// counters.
    pub fn clear(&mut self) {
        self.ranges.clear();
        self.last.clear();
        self.lane.clear();
        self.pushed = 0;
        self.lanes.clear();
    }

    /// Stages one campaign's jobs (post phase 1) for the barrier: computes
    /// each job's fallback/take-last value and, for jobs that extrapolate,
    /// parks the coefficients of its extrapolation stage
    /// ([`Job::extrapolation_stage`], memoized per curve prefix) in a
    /// kernel lane. Returns the campaign's scatter handle.
    pub fn gather(&mut self, jobs: &[Job], theta: f64, max_steps: u64) -> usize {
        let start = self.last.len();
        for job in jobs {
            let last = job.last_metric().unwrap_or(f64::INFINITY);
            let lane = if theta >= 1.0 || job.finished == Some(FinishReason::ConvergedEarly) {
                NO_LANE
            } else if let Some(stage) = job.extrapolation_stage(max_steps, &mut self.fit) {
                self.pushed += 1;
                self.lanes.push(&stage, max_steps)
            } else {
                NO_LANE
            };
            self.last.push(last);
            self.lane.push(lane);
        }
        self.ranges.push((start, self.last.len()));
        self.ranges.len() - 1
    }

    /// Runs the lane kernel over every gathered extrapolation at once.
    /// A cohort with nothing to extrapolate skips the kernel entirely.
    pub fn evaluate(&mut self) {
        if self.pushed > 0 {
            self.lanes.evaluate();
        }
    }

    /// The prediction vector of the campaign behind `handle` — exactly
    /// what [`predict_scalar`] would have produced.
    ///
    /// [`predict_scalar`]: crate::engine::Engine
    ///
    /// # Panics
    ///
    /// Panics if called before [`evaluate`](JobLanes::evaluate) for a
    /// campaign with kernel-lane jobs, or with a foreign handle.
    pub fn scatter(&self, handle: usize) -> Vec<f64> {
        let (start, end) = self.ranges[handle];
        let out = self.lanes.out();
        (start..end)
            .map(|i| match self.lane[i] {
                NO_LANE => self.last[i],
                lane => out[lane],
            })
            .collect()
    }

    /// `(kernel invocations, lane slots, lane jobs)` accumulated since the
    /// previous flush — the occupancy counters the batch runner folds into
    /// [`BatchStats`](crate::batch::BatchStats).
    pub fn flush_counters(&mut self) -> (u64, u64, u64) {
        let (invocations, slots, occupied) = self.lanes.counters();
        let delta = (
            invocations - self.flushed.0,
            slots - self.flushed.1,
            occupied - self.flushed.2,
        );
        self.flushed = (invocations, slots, occupied);
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spottune_mlsim::{Algorithm, CurveCache, Workload};

    fn jobs_with_history(seed: u64, steps: u64) -> Vec<Job> {
        let w = Workload::benchmark(Algorithm::LoR);
        let cache = CurveCache::new();
        (0..w.hp_grid().len())
            .map(|i| {
                let mut job = Job::new(&w, i, steps, seed, &cache);
                for k in 1..=steps {
                    let metric = job.run.metric_at(k);
                    job.curve.push(k, metric);
                    job.steps_done = k;
                }
                job
            })
            .collect()
    }

    #[test]
    fn lane_predictions_match_the_scalar_stage() {
        let max_steps = 200;
        let jobs = jobs_with_history(7, 40);
        let mut lanes = JobLanes::new();
        lanes.clear();
        let handle = lanes.gather(&jobs, 0.7, max_steps);
        lanes.evaluate();
        let got = lanes.scatter(handle);
        for (job, got) in jobs.iter().zip(got) {
            let last = job.last_metric().unwrap_or(f64::INFINITY);
            let want = job.curve.predict_final(max_steps).unwrap_or(last);
            assert_eq!(got.to_bits(), want.to_bits());
        }
        let (invocations, slots, lane_jobs) = lanes.flush_counters();
        assert_eq!(invocations, 1);
        assert_eq!(lane_jobs, jobs.len() as u64);
        assert!(slots >= lane_jobs && slots % 8 == 0);
        // A second flush reports only new work.
        assert_eq!(lanes.flush_counters(), (0, 0, 0));
    }

    #[test]
    fn take_last_jobs_bypass_the_kernel() {
        let jobs = jobs_with_history(9, 12);
        let mut lanes = JobLanes::new();
        let handle = lanes.gather(&jobs, 1.0, 100); // θ = 1: every job takes last
        lanes.evaluate();
        let got = lanes.scatter(handle);
        for (job, got) in jobs.iter().zip(got) {
            assert_eq!(got.to_bits(), job.last_metric().unwrap().to_bits());
        }
        assert_eq!(lanes.flush_counters(), (0, 0, 0), "no kernel work staged");
    }

    #[test]
    fn cohorts_scatter_by_handle() {
        let a = jobs_with_history(1, 40);
        let b = jobs_with_history(2, 35);
        let mut lanes = JobLanes::new();
        let ha = lanes.gather(&a, 0.7, 300);
        let hb = lanes.gather(&b, 0.7, 300);
        lanes.evaluate();
        for (jobs, handle) in [(&a, ha), (&b, hb)] {
            let got = lanes.scatter(handle);
            assert_eq!(got.len(), jobs.len());
            for (job, got) in jobs.iter().zip(got) {
                let last = job.last_metric().unwrap_or(f64::INFINITY);
                let want = job.curve.predict_final(300).unwrap_or(last);
                assert_eq!(got.to_bits(), want.to_bits());
            }
        }
        let (invocations, _, lane_jobs) = lanes.flush_counters();
        assert_eq!(invocations, 1, "one kernel pass per cohort barrier");
        assert_eq!(lane_jobs, (a.len() + b.len()) as u64);
    }
}
