//! Per-configuration job state inside the orchestrator.

use spottune_cloud::VmId;
use spottune_earlycurve::{EarlyCurve, EarlyCurveConfig};
use spottune_mlsim::{CurveCache, HpSetting, TrainingRun, Workload};
use spottune_market::{SimDur, SimTime};

/// Why a job stopped iterating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinishReason {
    /// Reached the step target (`θ × max_trial_steps`, or `max_trial_steps`
    /// in the continuation phase).
    TargetReached,
    /// The metric plateaued before the target ("the model comes to
    /// convergence … treat this model as finished", §III.C).
    ConvergedEarly,
}

/// One hyper-parameter configuration's training job.
#[derive(Debug)]
pub struct Job {
    /// Index into the workload's grid.
    pub hp_index: usize,
    /// The configuration itself.
    pub hp: HpSetting,
    /// Cached `hp.id()` — the curve-memo key component. Formatting it
    /// involves per-entry float formatting, so the arena reset path clones
    /// this instead of re-deriving it every campaign.
    pub hp_id: String,
    /// Object-store key of this job's checkpoint (computed once; the
    /// orchestrator checkpoints on every notice, recycle and finish).
    pub ckpt_key: String,
    /// Checkpoint size of this configuration's model, cached from
    /// [`Workload::model_size_mb`].
    pub model_size_mb: f64,
    /// Lazily advanced metric source.
    pub run: TrainingRun,
    /// Observed metric history feeding EarlyCurve.
    pub curve: EarlyCurve,
    /// Completed validation steps.
    pub steps_done: u64,
    /// Steps to reach in the current phase.
    pub target_steps: u64,
    /// Currently assigned VM, if any.
    pub assigned: Option<VmId>,
    /// Instant the current VM finishes restore and can execute.
    pub exec_ready_at: SimTime,
    /// Cached event candidates for the engine's next-event drive (absolute
    /// grid ticks, maintained by the engine; meaningless while
    /// unassigned). `ready_tick`: first tick at/after `exec_ready_at`;
    /// `recycle_tick`: first tick strictly past the one-hour recycle
    /// threshold; `step_complete_tick`: tick the in-flight step finishes
    /// (valid while `current_spe` is `Some`).
    pub ready_tick: SimTime,
    /// See [`Self::ready_tick`].
    pub recycle_tick: SimTime,
    /// See [`Self::ready_tick`].
    pub step_complete_tick: SimTime,
    /// Whether the assigned VM is eligible for the one-hour proactive
    /// recycle (spot placements are; on-demand placements never refund, so
    /// the engine skips their recycle checks entirely). Set at deployment.
    pub recyclable: bool,
    /// Execution halted by a revocation notice (checkpointed, waiting for
    /// the VM to disappear).
    pub halted: bool,
    /// Steps executed on the current VM (for refund attribution).
    pub steps_on_vm: u64,
    /// Whole poll intervals accumulated toward the in-flight step. Progress
    /// is `step_carry + step_ticks × poll`; counting ticks as an integer
    /// (instead of accumulating an `f64`) makes "advance by n quiet ticks"
    /// exactly associative, so jumping over quiet ticks reproduces
    /// stepping through them bit-for-bit.
    pub step_ticks: u64,
    /// Fractional seconds carried into the in-flight step from the instant
    /// the previous step completed mid-tick.
    pub step_carry: f64,
    /// Sampled seconds-per-step for the in-flight step.
    pub current_spe: Option<f64>,
    /// Whether the job is done for the current phase.
    pub finished: Option<FinishReason>,
    /// Steps that ended up free thanks to the first-hour refund.
    pub free_steps: u64,
    /// Steps billed normally.
    pub charged_steps: u64,
    /// Cumulative checkpoint + restore + warmup time.
    pub overhead: SimDur,
    /// Cumulative execution time.
    pub train_time: SimDur,
    /// Number of deployments (first placement included).
    pub deployments: u64,
    /// Number of provider revocations suffered.
    pub revocations: u64,
    /// Steps covered by the last durable (fully uploaded) checkpoint.
    pub durable_steps: u64,
    /// Steps the checkpoint written inside the current grace window will
    /// cover once the VM disappears; decided by the notice handler,
    /// consumed by the revocation handler. `None` outside a grace window.
    pub pending_capture: Option<u64>,
    /// Steps executed but rolled back after a failed, partial or
    /// abandoned grace-window checkpoint (they are re-executed later).
    pub lost_steps: u64,
    /// Redeployments routed through a policy's batch migration assignment.
    pub migrations: u64,
}

impl Job {
    /// Creates the job for one grid point; its training run memoizes
    /// through `curve_cache`.
    pub fn new(
        workload: &Workload,
        hp_index: usize,
        target_steps: u64,
        ec_config: EarlyCurveConfig,
        seed: u64,
        curve_cache: &CurveCache,
    ) -> Self {
        let hp = workload.hp_grid()[hp_index].clone();
        let hp_id = hp.id();
        Job {
            hp_index,
            ckpt_key: format!("ckpt/{}/{}", workload.algorithm().name(), hp_index),
            model_size_mb: workload.model_size_mb(&hp),
            run: TrainingRun::with_cache_keyed(workload, &hp, hp_id.clone(), seed, curve_cache),
            hp,
            hp_id,
            curve: EarlyCurve::new(ec_config),
            steps_done: 0,
            target_steps,
            assigned: None,
            exec_ready_at: SimTime::ZERO,
            ready_tick: SimTime::ZERO,
            recycle_tick: SimTime::ZERO,
            step_complete_tick: SimTime::ZERO,
            recyclable: true,
            halted: false,
            steps_on_vm: 0,
            step_ticks: 0,
            step_carry: 0.0,
            current_spe: None,
            finished: None,
            free_steps: 0,
            charged_steps: 0,
            overhead: SimDur::ZERO,
            train_time: SimDur::ZERO,
            deployments: 0,
            revocations: 0,
            durable_steps: 0,
            pending_capture: None,
            lost_steps: 0,
            migrations: 0,
        }
    }

    /// Re-initializes this slot for a fresh campaign on the same grid
    /// point of the same workload — field-for-field what
    /// [`Job::new`]`(workload, self.hp_index, …)` would build, but keeping
    /// the slot's allocations (`ckpt_key`, `hp`, the curve's point
    /// buffer). The arena guarantees the workload invariant by rebuilding
    /// its slots whenever the workload changes.
    pub fn reset(
        &mut self,
        workload: &Workload,
        target_steps: u64,
        ec_config: EarlyCurveConfig,
        seed: u64,
        curve_cache: &CurveCache,
    ) {
        self.run = TrainingRun::with_cache_keyed(
            workload,
            &self.hp,
            self.hp_id.clone(),
            seed,
            curve_cache,
        );
        self.curve.reset(ec_config);
        self.steps_done = 0;
        self.target_steps = target_steps;
        self.assigned = None;
        self.exec_ready_at = SimTime::ZERO;
        self.ready_tick = SimTime::ZERO;
        self.recycle_tick = SimTime::ZERO;
        self.step_complete_tick = SimTime::ZERO;
        self.recyclable = true;
        self.halted = false;
        self.steps_on_vm = 0;
        self.step_ticks = 0;
        self.step_carry = 0.0;
        self.current_spe = None;
        self.finished = None;
        self.free_steps = 0;
        self.charged_steps = 0;
        self.overhead = SimDur::ZERO;
        self.train_time = SimDur::ZERO;
        self.deployments = 0;
        self.revocations = 0;
        self.durable_steps = 0;
        self.pending_capture = None;
        self.lost_steps = 0;
        self.migrations = 0;
    }

    /// Whether the job still needs scheduling in the current phase.
    pub fn is_active(&self) -> bool {
        self.finished.is_none()
    }

    /// Whether the job is waiting for a VM.
    pub fn is_waiting(&self) -> bool {
        self.is_active() && self.assigned.is_none()
    }

    /// Credits the steps executed on the ending VM as free or charged.
    pub fn settle_vm_steps(&mut self, was_free: bool) {
        if was_free {
            self.free_steps += self.steps_on_vm;
        } else {
            self.charged_steps += self.steps_on_vm;
        }
        self.steps_on_vm = 0;
        self.assigned = None;
        self.halted = false;
        self.current_spe = None;
        self.step_ticks = 0;
        self.step_carry = 0.0;
    }

    /// Last observed metric, if any step completed.
    pub fn last_metric(&self) -> Option<f64> {
        self.curve.points().last().map(|&(_, m)| m)
    }

    /// Rolls execution back to `captured` completed steps — what the
    /// checkpoint surviving the revocation actually covers. Steps past the
    /// captured point are counted lost and re-executed later; the metric
    /// history is truncated to match so re-observation stays monotone.
    pub fn roll_back_to(&mut self, captured: u64) {
        if captured < self.steps_done {
            self.lost_steps += self.steps_done - captured;
            self.steps_done = captured;
            self.curve.truncate_to(captured);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spottune_mlsim::Algorithm;

    fn job() -> Job {
        let w = Workload::benchmark(Algorithm::LoR);
        Job::new(&w, 0, 10, EarlyCurveConfig::default(), 1, &CurveCache::global())
    }

    #[test]
    fn fresh_job_is_waiting() {
        let j = job();
        assert!(j.is_active());
        assert!(j.is_waiting());
        assert_eq!(j.last_metric(), None);
        assert_eq!(j.steps_done, 0);
    }

    #[test]
    fn settlement_attributes_steps() {
        let mut j = job();
        j.steps_on_vm = 7;
        j.settle_vm_steps(true);
        assert_eq!(j.free_steps, 7);
        assert_eq!(j.charged_steps, 0);
        assert_eq!(j.steps_on_vm, 0);
        assert!(j.assigned.is_none());
        j.steps_on_vm = 3;
        j.settle_vm_steps(false);
        assert_eq!(j.charged_steps, 3);
        // free + charged always equals settled steps
        assert_eq!(j.free_steps + j.charged_steps, 10);
    }

    #[test]
    fn rollback_loses_uncaptured_steps_only() {
        let mut j = job();
        j.steps_done = 8;
        j.curve.push(1, 0.9);
        j.curve.push(8, 0.5);
        j.roll_back_to(5);
        assert_eq!(j.steps_done, 5);
        assert_eq!(j.lost_steps, 3);
        // Only points at or below the captured step survive.
        assert_eq!(j.curve.points(), &[(1, 0.9)]);
        // Rolling back to the current position is a no-op.
        j.roll_back_to(5);
        assert_eq!(j.lost_steps, 3);
        assert_eq!(j.steps_done, 5);
    }

    #[test]
    fn finish_reasons_deactivate() {
        let mut j = job();
        j.finished = Some(FinishReason::TargetReached);
        assert!(!j.is_active());
        assert!(!j.is_waiting());
    }
}
