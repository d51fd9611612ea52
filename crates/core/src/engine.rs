//! The campaign engine: one event-driven executor behind every
//! provisioning strategy.
//!
//! The engine owns everything *mechanical* about a campaign — cloud events,
//! billing, checkpoint accounting, EarlyCurve prediction and top-`mcnt`
//! continuation, and time advance — and consults a
//! [`ProvisionPolicy`](crate::policy::ProvisionPolicy) at its decision
//! points. Every policy, the baselines included, runs on one drive: the
//! paper's Algorithm-1 loop. Phase 1 runs every configuration to
//! `θ × max_trial_steps`, reacting to three events per poll (10 s):
//! revocation notices (checkpoint → requeue), step-target completion
//! (checkpoint → finish), and the one-hour proactive recycle (checkpoint →
//! shutdown → requeue, harvesting the first-hour refund opportunity).
//! EarlyCurve then predicts every configuration's final metric and the
//! top-`mcnt` continue from their checkpoints to full training (Algorithm
//! 1 lines 48–53). The loop polls every 10 seconds; the engine runs it as
//! a next-event drive that jumps straight to the grid ticks at which
//! something can happen and credits the quiet ticks in between in one
//! integer addition. The crate's unit tests check it against itself
//! stepped one tick at a time (the `oracle` test module): reports and
//! trace-event sequences must be bit-identical.
//!
//! The Single-Spot and On-Demand baselines are ordinary policies on this
//! drive at θ = 1: one fixed instance type, no checkpoints, and the same
//! convergence finish rule SpotTune at θ = 1 uses.

use crate::arena::EngineScratch;
use crate::config::SpotTuneConfig;
use crate::job::{FinishReason, Job};
use crate::perfmatrix::PerfMatrix;
use crate::policy::{
    CheckpointPlan, DeployCtx, MigrationCtx, MigrationJob, Placement, ProvisionPolicy,
};
use crate::report::HptReport;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spottune_cloud::storage::{checkpoint_speed_mbps, transfer_time};
use spottune_cloud::{CloudEvent, CloudProvider, FaultPlan, ObjectStore, VmId};
use spottune_market::{MarketPool, PoolSpine, SimDur, SimTime};
use spottune_mlsim::{CurveCache, PerfModel, PrefixScratch, Workload};
use std::sync::Arc;

/// One entry of the campaign timeline (the lifecycle of paper Fig. 4).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A configuration was (re)deployed onto an instance.
    Deployed {
        /// Grid index.
        job: usize,
        /// Instance-type name.
        instance: String,
        /// Offered maximum price (the fixed rate for on-demand VMs).
        max_price: f64,
        /// Event time.
        at: SimTime,
    },
    /// Two-minute revocation notice received; checkpoint taken.
    NoticeCheckpoint {
        /// Grid index.
        job: usize,
        /// Event time.
        at: SimTime,
    },
    /// The provider reclaimed the VM; steps settled (free if refunded).
    Revoked {
        /// Grid index.
        job: usize,
        /// Whether the first-hour refund applied.
        free: bool,
        /// Event time.
        at: SimTime,
    },
    /// Proactive one-hour recycle (Algorithm 1 line 31).
    Recycled {
        /// Grid index.
        job: usize,
        /// Event time.
        at: SimTime,
    },
    /// The job finished its phase.
    Finished {
        /// Grid index.
        job: usize,
        /// Why it stopped.
        reason: FinishReason,
        /// Steps completed.
        steps: u64,
        /// Event time.
        at: SimTime,
    },
}

/// Executes one HPT campaign for one workload under a pluggable policy.
#[derive(Debug)]
pub struct Engine {
    config: SpotTuneConfig,
    workload: Workload,
    pool: MarketPool,
    perf_model: PerfModel,
    curve_cache: CurveCache,
    fault_plan: Option<FaultPlan>,
    /// Optional shared per-scenario event spine, handed through to the
    /// drive's provider (see [`CloudProvider::with_spine`]).
    spine: Option<Arc<PoolSpine>>,
    /// Optional precomputed seconds-per-step means (the exact value of
    /// [`compute_spe_means`] for this engine's pool and workload), shared
    /// across a scenario group by the batch runner.
    spe_means: Option<Arc<SpeTable>>,
    /// The tests' reference: [`Self::next_event_tick`] returns the next
    /// grid tick, so the drive visits every tick of the 10-second loop.
    #[cfg(test)]
    pub(crate) every_tick: bool,
}

impl Engine {
    /// Creates an engine.
    pub fn new(config: SpotTuneConfig, workload: Workload, pool: MarketPool) -> Self {
        config.validate();
        Engine {
            config,
            workload,
            pool,
            perf_model: PerfModel::new(),
            curve_cache: CurveCache::global(),
            fault_plan: None,
            spine: None,
            spe_means: None,
            #[cfg(test)]
            every_tick: false,
        }
    }

    /// Installs a shared event spine built from this engine's pool: the
    /// drive's provider resolves markets and revocation instants
    /// through it instead of re-scanning traces. Bit-identical either way;
    /// wall-clock only.
    pub fn with_spine(mut self, spine: Arc<PoolSpine>) -> Self {
        self.spine = Some(spine);
        self
    }

    /// Installs precomputed per-(market, configuration) step-time means.
    /// Callers must pass exactly [`compute_spe_means`]`(&pool, &workload)`
    /// for this engine's pool and workload — the batch runner derives them
    /// once per (scenario, workload) and shares the `Arc` — so the values
    /// are the ones the engine would have derived itself.
    pub fn with_spe_means(mut self, spe_means: Arc<SpeTable>) -> Self {
        self.spe_means = Some(spe_means);
        self
    }

    /// Installs a seeded fault schedule (correlated revocation storms,
    /// delayed notices, checkpoint upload failures) on the drive's
    /// provider. It reaches every policy: a storm reclaims the baselines'
    /// spot VMs whatever their bid. With no plan (the default) every
    /// campaign is bit-identical to a fault-free build, and because every
    /// injected decision is a pure function of the plan's seed, the same
    /// plan replays bit-identically.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Routes the training-curve memo through an explicit shared tier
    /// (the server's cross-request tier) instead of the process default.
    /// Curves are pure functions of their key, so the tier choice affects
    /// wall-clock and counters, never results.
    pub fn with_curve_cache(mut self, cache: CurveCache) -> Self {
        self.curve_cache = cache;
        self
    }

    /// Runs the campaign under `policy` to completion and reports.
    pub fn run(&self, policy: &mut dyn ProvisionPolicy) -> HptReport {
        self.run_with_scratch(policy, &mut EngineScratch::new())
    }

    /// Runs the campaign and additionally returns the event timeline
    /// (deployments, notices, revocations, recycles, finishes — the
    /// lifecycle of paper Fig. 4).
    pub fn run_traced(&self, policy: &mut dyn ProvisionPolicy) -> (HptReport, Vec<TraceEvent>) {
        let mut scratch = EngineScratch::new();
        let report = self.run_with_scratch(policy, &mut scratch);
        (report, std::mem::take(&mut scratch.events))
    }

    /// Runs the campaign reusing `scratch`'s job slots and buffers. The
    /// stages are those of [`TransientExec`] run back-to-back; the batched
    /// sweep's SoA path interleaves many campaigns' stages around a shared
    /// lane-prediction barrier instead. The scratch only recycles
    /// allocations (every slot is reset to exactly the fresh-job state), so
    /// the report does not depend on what the scratch held before.
    fn run_with_scratch(
        &self,
        policy: &mut dyn ProvisionPolicy,
        scratch: &mut EngineScratch,
    ) -> HptReport {
        let mut exec = TransientExec::new(self, scratch);
        exec.phase1(policy, scratch);
        let predicted = exec.predict_scalar(scratch);
        exec.finish(policy, scratch, predicted, None)
    }

    /// The Algorithm-1 loop (line 45 polls every `poll_interval`, 10
    /// seconds); returns the time when every job in the current phase has
    /// finished. Time advances by next-event jumps to the next grid tick at
    /// which anything can change. Ticks in between only accumulate linear
    /// progress on running jobs, which is applied in one whole-tick
    /// addition (`step_ticks += n`) — integer arithmetic, so the jump is
    /// bit-identical to polling through the same ticks.
    #[allow(clippy::too_many_arguments)]
    fn drive(
        &self,
        jobs: &mut [Job],
        mut t: SimTime,
        provider: &mut CloudProvider,
        store: &mut ObjectStore,
        matrix: &mut PerfMatrix,
        policy: &mut dyn ProvisionPolicy,
        rng: &mut StdRng,
        events: &mut Vec<TraceEvent>,
        spe_means: &[(String, Vec<f64>)],
    ) -> SimTime {
        let poll = self.config.poll_interval;
        // Hard stop: ten simulated weeks — catches scheduling deadlocks in
        // tests rather than hanging.
        let deadline = t + SimDur::from_hours(24 * 70);
        while jobs.iter().any(Job::is_active) {
            assert!(t < deadline, "engine made no progress before deadline");
            let t_next = self.next_event_tick(jobs, t, provider);
            // Quiet ticks in (t, t_next): every running job accumulates one
            // poll interval per tick and nothing else can happen (each
            // state change is a candidate in `next_event_tick`, so none
            // falls strictly inside the span).
            let quiet_end = t_next - poll;
            if quiet_end > t {
                for job in jobs.iter_mut() {
                    if !job.is_active() || job.halted {
                        continue;
                    }
                    let Some(vm_id) = job.assigned else { continue };
                    // An assigned VM is always alive between event ticks:
                    // revocations settle the job at their (visited) tick,
                    // and no event fires inside a quiet span.
                    debug_assert!(
                        provider.vm(vm_id).is_some_and(spottune_cloud::Vm::is_alive),
                        "assigned vm must be alive across a quiet span"
                    );
                    let first = job.ready_tick.max(t + poll);
                    if first <= quiet_end {
                        let n = (quiet_end.as_secs() - first.as_secs()) / poll.as_secs() + 1;
                        job.step_ticks += n;
                        job.train_time += SimDur::from_secs(poll.as_secs() * n);
                    }
                }
            }
            // Sub-poll notice delivery: a notice scheduled strictly inside
            // (t, t_next) sits off the poll grid — waiting for the next
            // grid tick would collapse its grace window (a 1–9 s lead
            // lands on the revocation tick itself, grace zero). Deliver
            // it at its true instant instead. Grid-aligned notices have
            // `at == t_next` (the agenda entry is a `next_event_tick`
            // candidate) and keep flowing through the regular tick body.
            // Safe mid-span: grid ticks in (t, t_next) all precede the
            // notice instant, so the quiet-span accumulation above already
            // credited every tick the job ran before it halts here.
            while let Some(at) = provider.next_notice_at() {
                if at <= t || at >= t_next {
                    break;
                }
                for event in provider.poll_notices(at) {
                    if let CloudEvent::RevocationNotice { vm, grace, .. } = event {
                        self.handle_notice(jobs, vm, grace, at, provider, store, policy, events);
                    }
                }
            }
            t = t_next;
            self.process_tick(jobs, t, provider, store, matrix, policy, rng, events, spe_means);
        }
        t
    }

    /// Earliest grid tick strictly after `t` at which the tick body can do
    /// anything beyond linear progress accumulation: a cloud notice or
    /// revocation, a job's next step completing, a restore finishing (the
    /// first tick a fresh VM executes — and samples its seconds-per-step),
    /// the one-hour recycle deadline, or a deploy retry for a waiting job.
    fn next_event_tick(&self, jobs: &[Job], t: SimTime, provider: &CloudProvider) -> SimTime {
        let poll = self.config.poll_interval;
        let floor = t + poll;
        #[cfg(test)]
        if self.every_tick {
            return floor;
        }
        let mut next: Option<SimTime> = None;
        let mut consider = |cand: SimTime| {
            let c = cand.max(floor);
            next = Some(next.map_or(c, |n| n.min(c)));
        };
        if let Some(at) = provider.next_event_at() {
            consider(self.tick_at_or_after(at));
        }
        for job in jobs {
            if !job.is_active() {
                continue;
            }
            if job.assigned.is_none() {
                // Waiting for a VM: the deploy stage retries every tick.
                consider(floor);
                continue;
            }
            if job.halted {
                // Checkpointed, waiting for the pending revocation — the
                // provider agenda already carries that instant.
                continue;
            }
            // Candidates are maintained incrementally: `recycle_tick` and
            // `ready_tick` at deployment, `step_complete_tick` whenever a
            // step time is sampled — so the scan is a handful of compares
            // per job. On-demand VMs are never recycled (no refund to
            // harvest), so their recycle candidate is skipped.
            if job.recyclable {
                consider(job.recycle_tick);
            }
            match job.current_spe {
                None => consider(job.ready_tick),
                Some(_) => consider(job.step_complete_tick),
            }
        }
        next.unwrap_or(floor)
    }

    /// Grid tick at which the in-flight step of `job` completes, given the
    /// job accumulates one poll interval per tick from `t` on: the smallest
    /// `n ≥ 1` with `carry + (ticks + n)·poll ≥ spe`. The f64 estimate is
    /// corrected against the exact per-tick predicate of
    /// [`Self::process_tick`] (monotone in `n`) to rule out rounding
    /// disagreements with stepping tick by tick.
    fn step_completion_tick(&self, job: &Job, spe: f64, t: SimTime) -> SimTime {
        let poll = self.config.poll_interval;
        let poll_secs = poll.as_secs_f64();
        let progress = |n: u64| job.step_carry + (job.step_ticks + n) as f64 * poll_secs;
        let done = (job.step_ticks as f64).mul_add(poll_secs, job.step_carry);
        let mut n = (((spe - done) / poll_secs).ceil()).max(1.0) as u64;
        while progress(n) < spe {
            n += 1;
        }
        while n > 1 && progress(n - 1) >= spe {
            n -= 1;
        }
        SimTime::from_secs(t.as_secs() + n * poll.as_secs())
    }

    /// First grid tick at or after `x` (grid: `start + k·poll_interval`).
    fn tick_at_or_after(&self, x: SimTime) -> SimTime {
        let s = self.config.start.as_secs();
        let p = self.config.poll_interval.as_secs();
        let rel = x.as_secs().saturating_sub(s);
        SimTime::from_secs(s + rel.div_ceil(p) * p)
    }

    /// First grid tick strictly after `x`.
    fn tick_after(&self, x: SimTime) -> SimTime {
        let s = self.config.start.as_secs();
        let p = self.config.poll_interval.as_secs();
        let rel = x.as_secs().saturating_sub(s);
        SimTime::from_secs(s + (rel / p + 1) * p)
    }

    /// One full iteration of the Algorithm-1 loop body at tick `t`: cloud
    /// events, job progress, proactive recycling, (re)deployment.
    ///
    /// A running job whose in-flight step cannot complete at this tick is
    /// advanced without touching its VM or entering the step loop, and a
    /// job short of its recycle tick skips the one-hour check. The
    /// `debug_assert!`s state why those skips change nothing: they are the
    /// predicates the literal loop body would have evaluated.
    #[allow(clippy::too_many_arguments)]
    fn process_tick(
        &self,
        jobs: &mut [Job],
        t: SimTime,
        provider: &mut CloudProvider,
        store: &mut ObjectStore,
        matrix: &mut PerfMatrix,
        policy: &mut dyn ProvisionPolicy,
        rng: &mut StdRng,
        events: &mut Vec<TraceEvent>,
        spe_means: &[(String, Vec<f64>)],
    ) {
        let poll = self.config.poll_interval;
        let poll_secs = poll.as_secs_f64();
        {
            // (1) Cloud events: notices and revocations.
            for event in provider.poll(t) {
                match event {
                    CloudEvent::RevocationNotice { vm, grace, .. } => {
                        self.handle_notice(jobs, vm, grace, t, provider, store, policy, events);
                    }
                    CloudEvent::Revoked { vm, .. } => {
                        if let Some(job) = job_on_vm(jobs, vm) {
                            job.revocations += 1;
                            let was_free = provider
                                .ledger()
                                .records()
                                .iter()
                                .rev()
                                .find(|r| r.vm == vm)
                                .map(|r| r.was_free())
                                .unwrap_or(false);
                            job.settle_vm_steps(was_free);
                            // Fall back to whatever the grace window
                            // actually captured; steps past it are lost
                            // and re-executed on the next placement. A
                            // revocation with no preceding notice (a
                            // zero-grace storm) keeps everything only if
                            // the last durable checkpoint covers it.
                            let captured = job.pending_capture.take().unwrap_or(job.steps_done);
                            job.roll_back_to(captured);
                            let hp_index = job.hp_index;
                            events.push(TraceEvent::Revoked { job: hp_index, free: was_free, at: t });
                            policy.on_revocation(hp_index, t);
                        }
                    }
                }
            }

            // (2) Advance running jobs by one poll interval.
            for job in jobs.iter_mut() {
                if !job.is_active() || job.halted {
                    continue;
                }
                let Some(vm_id) = job.assigned else { continue };
                // An assigned VM is alive at a visited tick: stage 1 has
                // settled every revocation due by `t`.
                debug_assert!(
                    provider.vm(vm_id).is_some_and(spottune_cloud::Vm::is_alive),
                    "assigned vm must be alive at a visited tick"
                );
                // On the grid, `t < ready_tick ⟺ t < exec_ready_at`.
                let waiting = t < job.ready_tick;
                debug_assert_eq!(waiting, t < job.exec_ready_at, "ready gate off the restore end");
                if waiting {
                    continue;
                }
                job.step_ticks += 1;
                job.train_time += poll;
                if let Some(spe) = job.current_spe {
                    if job.step_carry + job.step_ticks as f64 * poll_secs < spe {
                        continue;
                    }
                }
                let vm = provider.vm(vm_id).expect("assigned vm exists");
                let inst = vm.instance().clone();
                loop {
                    let spe = *job.current_spe.get_or_insert_with(|| {
                        let mean = spe_means
                            .iter()
                            .find(|(name, _)| name == inst.name())
                            .map(|(_, means)| means[job.hp_index])
                            .unwrap_or_else(|| {
                                self.perf_model.true_spe(&inst, &self.workload, &job.hp)
                            });
                        PerfModel::sample_with_mean(mean, rng)
                    });
                    let progress = job.step_carry + job.step_ticks as f64 * poll_secs;
                    if progress < spe {
                        break;
                    }
                    job.step_carry = progress - spe;
                    job.step_ticks = 0;
                    job.current_spe = None;
                    job.steps_done += 1;
                    job.steps_on_vm += 1;
                    let metric = job.run.metric_at(job.steps_done);
                    job.curve.push(job.steps_done, metric);
                    matrix.observe(&inst, job.hp_index, spe);
                    policy.on_progress(job.hp_index, job.steps_done, t);
                    // Finish conditions: target reached, or plateau.
                    if job.steps_done >= job.target_steps {
                        job.finished = Some(FinishReason::TargetReached);
                    } else if job.curve.converged() {
                        job.finished = Some(FinishReason::ConvergedEarly);
                    }
                    if let Some(reason) = job.finished {
                        let size = job.model_size_mb;
                        let dur = store.put(&job.ckpt_key, size, &inst);
                        job.overhead += dur;
                        job.durable_steps = job.steps_done;
                        let record = provider.terminate(t, vm_id);
                        job.settle_vm_steps(record.was_free());
                        events.push(TraceEvent::Finished {
                            job: job.hp_index,
                            reason,
                            steps: job.steps_done,
                            at: t,
                        });
                        break;
                    }
                }
                // Maintain the cached step-completion candidate.
                if job.finished.is_none() {
                    if let Some(spe) = job.current_spe {
                        job.step_complete_tick = self.step_completion_tick(job, spe, t);
                    }
                }
            }

            // (3) One-hour proactive recycle (Algorithm 1 line 31). Spot
            // only: an on-demand VM never refunds, so there is nothing to
            // harvest by churning it.
            for job in jobs.iter_mut() {
                if !job.is_active() || job.halted || !job.recyclable {
                    continue;
                }
                let Some(vm_id) = job.assigned else { continue };
                // Before its first recycle tick `t < recycle_tick ⟺ the
                // strict one-hour comparison below is false`; after the
                // policy declined, the tick is the next ask an hour later.
                // Either way skip without the lookup.
                let hour = self.config.reschedule_after;
                if t < job.recycle_tick {
                    debug_assert!(
                        provider.vm(vm_id).is_some_and(|vm| {
                            let first_ask = self.tick_after(vm.launched_at() + hour);
                            if job.recycle_tick == first_ask {
                                t.since(vm.launched_at()) <= hour
                            } else {
                                job.recycle_tick <= self.tick_at_or_after(t + hour)
                            }
                        }),
                        "a job short of its recycle tick is at most one hour old \
                         or its policy declined a recycle within the last hour"
                    );
                    continue;
                }
                let vm = provider.vm(vm_id).expect("assigned vm exists");
                if !vm.is_alive() {
                    continue;
                }
                let age = t.since(vm.launched_at());
                if age <= hour {
                    continue;
                }
                if !policy.should_checkpoint(job.hp_index, age) {
                    // Declined: ask again an hour later, not at every tick.
                    job.recycle_tick = self.tick_at_or_after(t + hour);
                    continue;
                }
                let inst = vm.instance().clone();
                let size = job.model_size_mb;
                if provider.fault_plan().is_some_and(|p| p.checkpoint_fails(job.hp_index, t)) {
                    // Injected write failure: the upload time is burned,
                    // the VM keeps running, and the recycle retries at a
                    // later tick (a different instant hashes to a fresh
                    // fault draw).
                    job.overhead += transfer_time(&inst, size);
                    continue;
                }
                let dur = store.put(&job.ckpt_key, size, &inst);
                job.overhead += dur;
                job.durable_steps = job.steps_done;
                let record = provider.terminate(t, vm_id);
                job.settle_vm_steps(record.was_free());
                events.push(TraceEvent::Recycled { job: job.hp_index, at: t });
            }

            // (4) (Re)deploy waiting jobs (Algorithm 1 lines 38–44). The
            // whole displaced batch is first offered to the policy's joint
            // migration matcher; policies without one (the default) fall
            // through to the historical per-job loop, bit for bit.
            let waiting: Vec<MigrationJob> = jobs
                .iter()
                .filter(|j| j.is_waiting())
                .map(|j| MigrationJob {
                    hp_index: j.hp_index,
                    remaining_steps: j.target_steps.saturating_sub(j.steps_done),
                })
                .collect();
            let batch = if waiting.is_empty() {
                None
            } else {
                let ctx = MigrationCtx { t, pool: &self.pool, matrix };
                policy.assign_migrations(&waiting, &ctx)
            };
            match batch {
                Some(placements) => {
                    assert_eq!(
                        placements.len(),
                        waiting.len(),
                        "assign_migrations must return one placement per displaced job"
                    );
                    for (mjob, placement) in waiting.iter().zip(placements) {
                        let job = jobs
                            .iter_mut()
                            .find(|j| j.hp_index == mjob.hp_index)
                            .expect("waiting job exists");
                        if self.deploy_with_placement(job, placement, t, provider, store, events) {
                            job.migrations += 1;
                        }
                    }
                }
                None => {
                    for job in jobs.iter_mut() {
                        if !job.is_waiting() {
                            continue;
                        }
                        let ctx =
                            DeployCtx { t, hp_index: job.hp_index, pool: &self.pool, matrix };
                        let placement = policy.choose_instance(&ctx, rng);
                        self.deploy_with_placement(job, placement, t, provider, store, events);
                    }
                }
            }
        }
    }

    /// Reacts to one revocation notice: halt the job and checkpoint inside
    /// the grace window (§IV.F). The window is bandwidth-limited — only
    /// `upload speed × grace` MB can leave the VM before it disappears.
    /// Under the default two-minute notice every model fits whole
    /// (`frac ≥ 1`); fault-delayed notices shrink the window and force the
    /// policy to choose between a truncated partial capture and abandoning
    /// the upload. Shared between the grid-tick poll and the drive's
    /// sub-poll true-instant delivery.
    #[allow(clippy::too_many_arguments)]
    fn handle_notice(
        &self,
        jobs: &mut [Job],
        vm: VmId,
        grace: SimDur,
        t: SimTime,
        provider: &CloudProvider,
        store: &mut ObjectStore,
        policy: &mut dyn ProvisionPolicy,
        events: &mut Vec<TraceEvent>,
    ) {
        let Some(job) = job_on_vm(jobs, vm) else { return };
        if job.halted {
            return;
        }
        job.halted = true;
        let vm_ref = provider.vm(vm).expect("vm exists");
        let inst = vm_ref.instance().clone();
        let age = t.since(vm_ref.launched_at());
        let size = job.model_size_mb;
        let frac = if size > 0.0 {
            checkpoint_speed_mbps(&inst) * grace.as_secs_f64() / size
        } else {
            f64::INFINITY
        };
        // A notice is a revocation regardless of VM age, so
        // `should_checkpoint` is consulted here unconditionally (unlike the
        // recycle gate, which only fires past the one-hour threshold).
        let plan = if policy.should_checkpoint(job.hp_index, age) {
            policy.plan_checkpoint(job.hp_index, frac)
        } else {
            CheckpointPlan::Abandon
        };
        let fails = provider
            .fault_plan()
            .is_some_and(|p| p.checkpoint_fails(job.hp_index, t));
        let captured = match plan {
            CheckpointPlan::Full if frac >= 1.0 && !fails => {
                let dur = store.put(&job.ckpt_key, size, &inst);
                debug_assert!(
                    dur <= grace || size <= 0.0,
                    "full checkpoint must fit the window"
                );
                job.overhead += dur;
                events.push(TraceEvent::NoticeCheckpoint { job: job.hp_index, at: t });
                job.durable_steps = job.steps_done;
                job.steps_done
            }
            CheckpointPlan::Full if frac >= 1.0 => {
                // Injected upload failure: the transfer time is burned, the
                // old checkpoint survives.
                job.overhead += transfer_time(&inst, size);
                job.durable_steps
            }
            CheckpointPlan::Full => {
                // Window too short for the whole model: the upload is cut
                // off at revocation — the window is burned and nothing
                // durable is written.
                job.overhead += grace;
                job.durable_steps
            }
            CheckpointPlan::Partial(f) => {
                let f = f.min(frac).clamp(0.0, 1.0);
                let bytes = f * size;
                if bytes <= 0.0 {
                    job.durable_steps
                } else if fails {
                    job.overhead += transfer_time(&inst, bytes);
                    job.durable_steps
                } else {
                    let dur = store.put(&job.ckpt_key, bytes, &inst);
                    job.overhead += dur;
                    events.push(TraceEvent::NoticeCheckpoint { job: job.hp_index, at: t });
                    // A fraction of the bytes holds a fraction of the
                    // uncaptured work.
                    let delta = job.steps_done - job.durable_steps;
                    let captured = job.durable_steps + (f * delta as f64).floor() as u64;
                    job.durable_steps = captured;
                    captured
                }
            }
            CheckpointPlan::Abandon => job.durable_steps,
        };
        job.pending_capture = Some(captured);
    }

    /// Executes one placement decision for a waiting job: request the VM,
    /// account restore/warmup, cache the drive's tick candidates, and
    /// emit the `Deployed` event. Returns `false` when a spot request
    /// failed because the price moved above the offer (the job stays
    /// waiting and retries next poll).
    fn deploy_with_placement(
        &self,
        job: &mut Job,
        placement: Placement,
        t: SimTime,
        provider: &mut CloudProvider,
        store: &mut ObjectStore,
        events: &mut Vec<TraceEvent>,
    ) -> bool {
        let (vm_id, instance, max_price) = match placement {
            Placement::Spot(choice) => {
                let Ok(id) = provider.request_spot(t, &choice.instance, choice.max_price) else {
                    return false; // price moved above the offer; retry next poll
                };
                (id, choice.instance, choice.max_price)
            }
            Placement::OnDemand { instance } => {
                let id = provider
                    .request_on_demand(t, &instance)
                    .unwrap_or_else(|e| panic!("on-demand placement failed: {e}"));
                let rate = provider.vm(id).expect("vm exists").max_price();
                (id, instance, rate)
            }
        };
        let vm = provider.vm(vm_id).expect("vm exists");
        let inst = vm.instance().clone();
        let mut restore = SimDur::from_secs(self.workload.restore_warmup_secs());
        if let Some((_, dur)) = store.get(&job.ckpt_key, &inst) {
            restore += dur;
        }
        job.exec_ready_at = vm.launched_at() + restore;
        job.ready_tick = self.tick_at_or_after(job.exec_ready_at);
        job.recyclable = vm.is_spot();
        job.recycle_tick = self.tick_after(vm.launched_at() + self.config.reschedule_after);
        job.overhead += restore;
        job.assigned = Some(vm_id);
        job.deployments += 1;
        events.push(TraceEvent::Deployed { job: job.hp_index, instance, max_price, at: t });
        true
    }
}

/// One campaign staged into its Algorithm-1 phases, so callers
/// can interpose between phase 1 and selection. [`Engine::run`] composes
/// the stages sequentially; the batched sweep's SoA path
/// ([`crate::soa`]) runs phase 1 for a whole cohort of campaigns, batches
/// every cohort job's final-metric extrapolation through the cross-campaign
/// lane kernel, and only then finishes each campaign — the same operations
/// in the same per-campaign order, so reports stay bit-identical.
///
/// The exec owns the campaign's mutable machinery (provider, store,
/// matrix, decision RNG, clock); job state lives in the caller's
/// [`EngineScratch`], which must be the same scratch across every stage
/// of one exec.
pub(crate) struct TransientExec<'e> {
    engine: &'e Engine,
    provider: CloudProvider,
    store: ObjectStore,
    matrix: PerfMatrix,
    rng: StdRng,
    t: SimTime,
    /// Full-training step target (the prediction horizon and phase-2 goal).
    pub(crate) max_steps: u64,
    /// SPE table derived locally when the engine was not handed a shared
    /// one (see [`Engine::with_spe_means`]).
    derived_spe: Option<SpeTable>,
}

impl<'e> TransientExec<'e> {
    /// Sets up one campaign: provider (with spine/fault overlays), fresh
    /// store/matrix/RNG, job slots prepared in `scratch`, SPE means
    /// resolved.
    pub(crate) fn new(engine: &'e Engine, scratch: &mut EngineScratch) -> Self {
        let cfg = &engine.config;
        let max_steps = engine.workload.max_trial_steps();
        let target = cfg.target_steps(max_steps);

        let mut provider = CloudProvider::new(engine.pool.clone());
        if let Some(plan) = &engine.fault_plan {
            provider = provider.with_fault_plan(plan.clone());
        }
        if let Some(spine) = &engine.spine {
            provider = provider.with_spine(Arc::clone(spine));
        }
        let store = ObjectStore::new();
        let matrix = PerfMatrix::new(cfg.c0, cfg.ewma_alpha);
        let rng = StdRng::seed_from_u64(cfg.seed ^ ORCH_SALT);
        scratch.events.clear();
        scratch.arena.prepare(&engine.workload, target, cfg.seed, &engine.curve_cache);
        // True seconds-per-step means per (market, configuration): the
        // model is deterministic, so derive it once per campaign instead of
        // hashing names and re-reading string-keyed hyper-parameters on
        // every sampled step — or once per (scenario, workload) when the
        // batch runner shares them via `with_spe_means`.
        let derived_spe = match &engine.spe_means {
            Some(_) => None,
            None => Some(compute_spe_means(&engine.pool, &engine.workload)),
        };
        TransientExec {
            engine,
            provider,
            store,
            matrix,
            rng,
            t: cfg.start,
            max_steps,
            derived_spe,
        }
    }

    /// Phase 1: every configuration to θ·max_trial_steps.
    pub(crate) fn phase1(&mut self, policy: &mut dyn ProvisionPolicy, scratch: &mut EngineScratch) {
        let engine = self.engine;
        let EngineScratch { arena, events } = scratch;
        let jobs = arena.slots_mut();
        let spe_means: &[(String, Vec<f64>)] = match (&engine.spe_means, &self.derived_spe) {
            (Some(shared), _) => shared,
            (None, Some(derived)) => derived,
            (None, None) => unreachable!("derived at construction"),
        };
        self.t = engine.drive(
            jobs,
            self.t,
            &mut self.provider,
            &mut self.store,
            &mut self.matrix,
            policy,
            &mut self.rng,
            events,
            spe_means,
        );
    }

    /// The scalar prediction stage (Algorithm 1 line 50): one final-metric
    /// extrapolation per job, from the stage [`Job::extrapolation_stage`]
    /// serves. The lane path evaluates the same stages through
    /// [`spottune_earlycurve::CurveLanes`] instead.
    pub(crate) fn predict_scalar(&self, scratch: &EngineScratch) -> Vec<f64> {
        let cfg = &self.engine.config;
        let mut fit = PrefixScratch::new();
        scratch
            .arena
            .slots()
            .iter()
            .map(|j| {
                let last = j.last_metric().unwrap_or(f64::INFINITY);
                if cfg.theta >= 1.0 || j.finished == Some(FinishReason::ConvergedEarly) {
                    last
                } else {
                    let stage = j.extrapolation_stage(self.max_steps, &mut fit);
                    stage.map_or(last, |s| s.predict(self.max_steps))
                }
            })
            .collect()
    }

    /// Selection, phase 2 (top-`mcnt` continuation) and the report.
    /// `predicted` must be this exec's prediction vector (scalar or lane —
    /// they are bit-identical). `true_finals`, when supplied, must be the
    /// campaign's ground-truth finals (a pure function of `(workload,
    /// seed)` — the cohort path shares one memoized copy per key instead
    /// of re-deriving it per campaign).
    pub(crate) fn finish(
        mut self,
        policy: &mut dyn ProvisionPolicy,
        scratch: &mut EngineScratch,
        predicted: Vec<f64>,
        true_finals: Option<Vec<f64>>,
    ) -> HptReport {
        let engine = self.engine;
        let cfg = &engine.config;
        let max_steps = self.max_steps;
        let EngineScratch { arena, events } = scratch;
        let jobs = arena.slots_mut();

        // ---- Selection (Algorithm 1 lines 48–53). ----
        let mut ranking: Vec<usize> = (0..jobs.len()).collect();
        ranking.sort_by(|&a, &b| predicted[a].partial_cmp(&predicted[b]).expect("finite"));
        let selected: Vec<usize> = ranking.iter().take(cfg.mcnt).copied().collect();

        // Paper-reported cost/JCT end at model selection (§IV.B.1).
        let selection_cost = self.provider.ledger().total_charged();
        let selection_refunded = self.provider.ledger().total_refunded();
        let selection_gross = self.provider.ledger().total_gross();
        let selection_jct = self.t - cfg.start;

        // ---- Phase 2: continue the top-mcnt from checkpoints. ----
        if cfg.theta < 1.0 {
            for &i in &selected {
                let job = &mut jobs[i];
                if job.finished == Some(FinishReason::TargetReached) && job.steps_done < max_steps
                {
                    job.finished = None;
                    job.target_steps = max_steps;
                }
            }
            let spe_means: &[(String, Vec<f64>)] = match (&engine.spe_means, &self.derived_spe) {
                (Some(shared), _) => shared,
                (None, Some(derived)) => derived,
                (None, None) => unreachable!("derived at construction"),
            };
            self.t = engine.drive(
                jobs,
                self.t,
                &mut self.provider,
                &mut self.store,
                &mut self.matrix,
                policy,
                &mut self.rng,
                events,
                spe_means,
            );
        }

        // ---- Report. ----
        let true_finals = true_finals.unwrap_or_else(|| {
            spottune_mlsim::runner::ground_truth_finals_with_cache(
                &engine.workload,
                cfg.seed,
                &engine.curve_cache,
            )
        });
        let ledger = self.provider.ledger();
        HptReport {
            approach: policy.name(),
            workload: engine.workload.algorithm().name().to_string(),
            theta: cfg.theta,
            cost: selection_cost,
            refunded: selection_refunded,
            gross: selection_gross,
            jct: selection_jct,
            cost_with_continuation: ledger.total_charged(),
            jct_with_continuation: self.t - cfg.start,
            train_time: sum_dur(jobs.iter().map(|j| j.train_time)),
            overhead_time: sum_dur(jobs.iter().map(|j| j.overhead)),
            free_steps: jobs.iter().map(|j| j.free_steps).sum(),
            charged_steps: jobs.iter().map(|j| j.charged_steps).sum(),
            predicted_finals: predicted,
            true_finals,
            selected,
            deployments: jobs.iter().map(|j| j.deployments).sum(),
            revocations: jobs.iter().map(|j| j.revocations).sum(),
            lost_steps: jobs.iter().map(|j| j.lost_steps).sum(),
            migrations: jobs.iter().map(|j| j.migrations).sum(),
        }
    }

    /// θ of the campaign's configuration (the lane gather needs the
    /// take-last gate).
    pub(crate) fn theta(&self) -> f64 {
        self.engine.config.theta
    }
}

/// Per-market rows of per-configuration true seconds-per-step means —
/// the table [`compute_spe_means`] produces and
/// [`Engine::with_spe_means`] accepts.
pub type SpeTable = Vec<(String, Vec<f64>)>;

/// The per-(market, configuration) true seconds-per-step means the
/// drive samples around. A pure function of `(pool, workload)` —
/// the batch runner computes it once per (scenario, workload) pair and
/// shares it via [`Engine::with_spe_means`]; a lone engine derives it
/// per campaign.
pub fn compute_spe_means(pool: &MarketPool, workload: &Workload) -> SpeTable {
    let perf_model = PerfModel::new();
    pool.iter()
        .map(|m| {
            let inst = m.instance();
            let means = workload
                .hp_grid()
                .iter()
                .map(|hp| perf_model.true_spe(inst, workload, hp))
                .collect();
            (inst.name().to_string(), means)
        })
        .collect()
}

fn job_on_vm(jobs: &mut [Job], vm: VmId) -> Option<&mut Job> {
    jobs.iter_mut().find(|j| j.assigned == Some(vm))
}

fn sum_dur(durs: impl Iterator<Item = SimDur>) -> SimDur {
    durs.fold(SimDur::ZERO, |acc, d| acc + d)
}

/// Seed salt for the drive's decision-stream RNG (kept from the
/// pre-policy-layer orchestrator so reports stay bit-identical).
const ORCH_SALT: u64 = 0x0c_5a17;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::SingleSpotKind;
    use crate::policy::{OnDemand, SingleSpot, SpotTuneTheta};
    use crate::provision::OracleEstimator;
    use spottune_earlycurve::kernel::extrapolation_stage;
    use spottune_earlycurve::StageFit;
    use spottune_mlsim::Algorithm;

    fn small_workload() -> Workload {
        let base = Workload::benchmark(Algorithm::LoR);
        Workload::custom(Algorithm::LoR, 60, base.hp_grid()[..4].to_vec())
    }

    /// The paper's SpotTune on [`small_workload`] over the 10-day standard
    /// pool: an engine bound to [`SpotTuneTheta`].
    fn run_spottune(cfg: SpotTuneConfig) -> HptReport {
        let pool = MarketPool::standard(SimDur::from_days(10), 42);
        let oracle = OracleEstimator::new(pool.clone(), 0.9);
        let mut policy = SpotTuneTheta::new(&oracle, cfg.delta_range, cfg.theta);
        Engine::new(cfg, small_workload(), pool).run(&mut policy)
    }

    #[test]
    fn campaign_completes_and_accounts() {
        let report = run_spottune(SpotTuneConfig::new(0.7, 2).with_seed(7));
        // Every configuration produced a prediction and a ground truth.
        assert_eq!(report.predicted_finals.len(), 4);
        assert_eq!(report.true_finals.len(), 4);
        assert_eq!(report.selected.len(), 2);
        // Conservation: every settled step is either free or charged.
        assert!(report.free_steps + report.charged_steps > 0);
        // Billing identity.
        assert!((report.gross - report.cost - report.refunded).abs() < 1e-9);
        // Time sanity.
        assert!(report.jct.as_secs() > 0);
        assert!(report.deployments >= 4);
    }

    #[test]
    fn theta_one_runs_every_step() {
        let report = run_spottune(SpotTuneConfig::new(1.0, 1).with_seed(8));
        let w = small_workload();
        // θ=1.0: predictions equal observed finals, so top-1 must hit
        // unless a job converged early onto the same plateau.
        assert!(report.top3_hit());
        let total = report.free_steps + report.charged_steps;
        // All four configurations ran to (at most) max_trial_steps; with
        // convergence-based early finishes they may stop a little short.
        assert!(total <= 4 * w.max_trial_steps());
        assert!(total >= 4 * w.max_trial_steps() / 2, "total steps {total}");
    }

    #[test]
    fn lower_theta_is_cheaper() {
        let low = run_spottune(SpotTuneConfig::new(0.4, 1).with_seed(9));
        let high = run_spottune(SpotTuneConfig::new(1.0, 1).with_seed(9));
        let low_steps = low.free_steps + low.charged_steps;
        let high_steps = high.free_steps + high.charged_steps;
        assert!(low_steps < high_steps, "steps {low_steps} vs {high_steps}");
    }

    #[test]
    fn label_comes_from_the_policy() {
        let report = run_spottune(SpotTuneConfig::new(0.7, 1).with_seed(3));
        assert_eq!(report.approach, "SpotTune(θ=0.7)");
    }

    /// A baseline on a four-configuration, 40-step LoR slice of the 10-day
    /// standard pool, submitted at 02:00.
    fn baseline(policy: &mut dyn ProvisionPolicy) -> HptReport {
        let base = Workload::benchmark(Algorithm::LoR);
        let w = Workload::custom(Algorithm::LoR, 40, base.hp_grid()[..4].to_vec());
        let pool = MarketPool::standard(SimDur::from_days(10), 42);
        let cfg = SpotTuneConfig {
            start: SimTime::from_hours(2),
            ..SpotTuneConfig::new(1.0, 3).with_seed(1)
        };
        Engine::new(cfg, w, pool).run(policy)
    }

    #[test]
    fn baseline_never_gets_refunds() {
        let r = baseline(&mut SingleSpot::new(SingleSpotKind::Cheapest));
        assert_eq!(r.refunded, 0.0);
        assert_eq!(r.free_steps, 0);
        assert_eq!(r.charged_steps, 4 * 40);
        assert!(r.cost > 0.0);
        // θ=1 semantics: predictions are the actual finals.
        assert!(r.top1_hit());
        assert!(r.top3_hit());
    }

    #[test]
    fn fastest_beats_cheapest_on_jct_but_not_cost() {
        let cheap = baseline(&mut SingleSpot::new(SingleSpotKind::Cheapest));
        let fast = baseline(&mut SingleSpot::new(SingleSpotKind::Fastest));
        assert!(fast.jct < cheap.jct, "fast {} cheap {}", fast.jct, cheap.jct);
        assert!(fast.cost > cheap.cost, "fast {} cheap {}", fast.cost, cheap.cost);
    }

    #[test]
    fn on_demand_matches_single_spot_wall_clock_at_fixed_price() {
        let spot = baseline(&mut SingleSpot::new(SingleSpotKind::Cheapest));
        let od = baseline(&mut OnDemand::new(SingleSpotKind::Cheapest));
        // Same instance, same decision stream, never revoked: identical JCT.
        assert_eq!(od.jct, spot.jct);
        assert_eq!(od.train_time, spot.train_time);
        // But billed at the fixed on-demand rate with no refund exposure.
        assert!(od.cost > 0.0);
        assert_eq!(od.refunded, 0.0);
        assert_eq!(od.free_steps, 0);
        assert_eq!(od.revocations, 0);
        assert!(od.approach.contains("On-Demand"));
        // θ=1 semantics carry over: predictions are the actual finals.
        assert_eq!(od.predicted_finals, spot.predicted_finals);
        assert!(od.top1_hit());
    }

    /// Single-Spot placement (never revoked) whose recycle answer depends
    /// on the VM's age, as a stateful policy's may: it declines until
    /// `recycle_at` and logs every ask.
    #[derive(Debug)]
    struct RecycleAtAge {
        placement: SingleSpot,
        recycle_at: SimDur,
        asks: std::cell::RefCell<Vec<(usize, SimDur)>>,
    }

    impl ProvisionPolicy for RecycleAtAge {
        fn name(&self) -> String {
            "recycle-at-age".to_string()
        }

        fn choose_instance(&mut self, ctx: &DeployCtx<'_>, rng: &mut StdRng) -> Placement {
            self.placement.choose_instance(ctx, rng)
        }

        fn should_checkpoint(&self, hp_index: usize, vm_age: SimDur) -> bool {
            self.asks.borrow_mut().push((hp_index, vm_age));
            vm_age >= self.recycle_at
        }
    }

    #[test]
    fn a_declined_recycle_is_asked_again_an_hour_later() {
        let base = Workload::benchmark(Algorithm::LoR);
        let w = Workload::custom(Algorithm::LoR, 120, base.hp_grid()[..2].to_vec());
        let pool = MarketPool::standard(SimDur::from_days(10), 42);
        let cfg = SpotTuneConfig {
            start: SimTime::from_hours(2),
            ..SpotTuneConfig::new(1.0, 1).with_seed(1)
        };
        let (hour, poll) = (cfg.reschedule_after, cfg.poll_interval);
        let mut policy = RecycleAtAge {
            placement: SingleSpot::new(SingleSpotKind::Cheapest),
            recycle_at: SimDur::from_mins(90),
            asks: Default::default(),
        };
        let (_, events) = Engine::new(cfg, w.clone(), pool).run_traced(&mut policy);
        let asks = policy.asks.into_inner();
        for job in 0..w.hp_grid().len() {
            let deployed: Vec<SimTime> = events
                .iter()
                .filter_map(|e| match *e {
                    TraceEvent::Deployed { job: j, at, .. } if j == job => Some(at),
                    _ => None,
                })
                .collect();
            let recycled: Vec<SimTime> = events
                .iter()
                .filter_map(|e| match *e {
                    TraceEvent::Recycled { job: j, at } if j == job => Some(at),
                    _ => None,
                })
                .collect();
            let ages: Vec<SimDur> =
                asks.iter().filter(|&&(j, _)| j == job).map(|&(_, age)| age).collect();
            assert!(!recycled.is_empty(), "job {job} outlives a VM's first two hours");
            // Every recycled VM is asked twice: at the first tick past its
            // first hour (declined), then exactly one hour later
            // (accepted), and that second ask's tick is the recycle — up
            // to 40 min after the age threshold, not at it.
            for (vm, &at) in recycled.iter().enumerate() {
                let (declined, accepted) = (ages[2 * vm], ages[2 * vm + 1]);
                assert!(declined > hour && declined <= hour + poll, "job {job} VM {vm}");
                assert_eq!(accepted, declined + hour, "job {job} VM {vm}");
                // The VM boots shortly after its deployment tick and is
                // `accepted` old when it is recycled.
                let boot = at.since(deployed[vm]).as_secs() - accepted.as_secs();
                assert!(boot < 60, "job {job} VM {vm}: recycled {boot} s late");
            }
            // The VM the job finishes on is asked at most as often.
            assert!(ages.len() <= 2 * recycled.len() + 2, "job {job}: {} asks", ages.len());
        }
    }

    /// The prediction stage reads each job's extrapolation stage from the
    /// curve tier's per-prefix memo. At the moment of prediction that
    /// stage must equal a fresh fit of the job's own history, whichever
    /// campaign filled the memo: the same curves reached at other prefixes
    /// (other θ) and at the same prefix (a repeated θ, a hit).
    #[test]
    fn memoized_stages_equal_fresh_fits_at_prediction() {
        let bits = |s: Option<StageFit>| {
            s.map(|s| (s.start, [s.a0, s.a1, s.a2, s.a3, s.mse].map(f64::to_bits)))
        };
        let pool = MarketPool::standard(SimDur::from_days(10), 42);
        let oracle = OracleEstimator::new(pool.clone(), 0.9);
        let cache = CurveCache::new();
        let w = small_workload();
        let max_steps = w.max_trial_steps();
        let mut fitted = 0;
        for (theta, seed) in [(0.3, 7), (0.7, 7), (0.3, 7), (0.5, 8), (0.7, 7)] {
            let cfg = SpotTuneConfig::new(theta, 2).with_seed(seed);
            let mut policy = SpotTuneTheta::new(&oracle, cfg.delta_range, cfg.theta);
            let engine =
                Engine::new(cfg, w.clone(), pool.clone()).with_curve_cache(cache.clone());
            let mut scratch = EngineScratch::new();
            let mut exec = TransientExec::new(&engine, &mut scratch);
            exec.phase1(&mut policy, &mut scratch);
            let mut fit = PrefixScratch::new();
            for job in scratch.arena.slots() {
                let fresh = job.curve.fit();
                let want = fresh.as_ref().map(|f| *extrapolation_stage(f.stages(), max_steps));
                let got = job.extrapolation_stage(max_steps, &mut fit);
                assert_eq!(bits(got), bits(want), "θ {theta} seed {seed} job {}", job.hp_index);
                fitted += usize::from(want.is_some());
            }
            // And the scalar prediction is EarlyCurve's own.
            let predicted = exec.predict_scalar(&scratch);
            for (job, got) in scratch.arena.slots().iter().zip(predicted) {
                if job.finished != Some(FinishReason::ConvergedEarly) {
                    let last = job.last_metric().unwrap_or(f64::INFINITY);
                    let want = job.curve.predict_final(max_steps).unwrap_or(last);
                    assert_eq!(got.to_bits(), want.to_bits(), "θ {theta} job {}", job.hp_index);
                }
            }
        }
        assert!(fitted >= 10, "{fitted} jobs extrapolated");
    }
}
