//! Batched sweep execution: scenario-grouped campaign fan-out over shared
//! spines, pools, predictors and engine scratch.
//!
//! A sweep submits thousands of [`CampaignRequest`]s against a handful of
//! market scenarios. Run one at a time ([`CampaignRequest::run_serial`]),
//! every campaign rebuilds the pool, re-trains any learned predictor,
//! re-derives the per-market SPE table and re-allocates the engine's job
//! state. [`BatchRunner::run_many`] amortizes all of it: requests are
//! grouped by scenario, each group resolves its pool, [`PoolSpine`] and
//! predictors exactly once through shared tiers, and a [`GroupSession`]
//! reuses one [`EngineScratch`] per cohort slot across the group so the hot
//! loop is allocation-free.
//!
//! There is one way a sweep executes: [`GroupSession::run_cohort`], which
//! stages up to [`COHORT_WIDTH`] campaigns through the SoA lanes
//! ([`crate::soa`]) and one cross-campaign lane-kernel pass; within a
//! session a lone campaign is a cohort of one. A learned estimator is the
//! predictor tier's trained set itself, whose probe memo every session,
//! thread and lone request over that set shares. The scalar
//! [`Engine::run`] behind [`CampaignRequest::run_serial`] is the reference
//! the suites compare against, not an alternative sweep path.
//!
//! Work is shared at *cohort* granularity through one [`CohortPlan`] per
//! sweep. Its claimers (`run_many`'s threads, the server's workers) first
//! claim whole unstarted groups, then join the groups still running and
//! claim their remaining cohorts, each through a [`GroupSession`] of its
//! own, so a one-scenario sweep uses every core. Which claimer runs a
//! cohort is unspecified; what a cohort *contains* never depends on it.
//!
//! The batched path is *bit-identical* to the serial reference: the spine
//! mirrors [`spottune_market::PriceTrace::first_exceed`] exactly, predictor
//! training is a pure function of `(scenario, kind)`, and the arena resets
//! job slots to precisely what a fresh build would hold. The
//! `batch_equivalence` suite locks this over the full policy × estimator
//! matrix.

use crate::arena::EngineScratch;
use crate::campaign::CampaignRequest;
use crate::engine::{compute_spe_means, Engine, SpeTable, TransientExec};
use crate::policy::PolicyMode;
use crate::provision::OracleEstimator;
use crate::report::HptReport;
use crate::soa::{JobLanes, COHORT_WIDTH};
use spottune_cloud::FaultPlan;
use spottune_market::{
    CacheStats, ConstantEstimator, EstimatorSpec, MarketPool, MarketScenario, PoolCache,
    PoolSpine, RevocationEstimator, SpineCache,
};
use spottune_mlsim::{CurveCache, Workload};
use spottune_revpred::{PredictorCache, PredictorKind};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Counter snapshot of one [`BatchRunner`]'s lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchStats {
    /// [`GroupSession`]s opened. A [`CohortPlan`] claimer opens one per
    /// scenario group in which it ran at least one cohort: exactly one per
    /// group with a single claimer, at most one per claimer and group
    /// otherwise.
    pub groups: u64,
    /// Campaigns executed through the batched path.
    pub campaigns: u64,
    /// Pool-tier counters.
    pub pool_cache: CacheStats,
    /// Spine-tier counters.
    pub spine_cache: CacheStats,
    /// Trained-predictor-tier counters.
    pub predictor_cache: CacheStats,
    /// Revocation lookups answered by resident spines (the CI
    /// sweep-throughput check asserts this is non-zero: the batched path
    /// must actually route through the spine, not silently fall back to
    /// the linear trace scan).
    pub spine_queries: u64,
    /// Cross-campaign lane-kernel passes (one per cohort barrier with at
    /// least one extrapolating job).
    pub kernel_invocations: u64,
    /// Kernel lane slots processed, including ragged-remainder padding to
    /// the 8-wide chunk boundary. `lane_jobs / lane_slots` is the lane
    /// occupancy.
    pub lane_slots: u64,
    /// Jobs whose final-metric extrapolation ran through kernel lanes.
    pub lane_jobs: u64,
    /// Probe-context memo hits summed over the resident trained sets
    /// (each hit skips one full sample assembly). Every holder of a set
    /// counts — other sessions, other runners on the same tiers, the
    /// server's lone requests — and an evicted set's counts are gone.
    pub probe_hits: u64,
    /// Probe-context memo misses (one sample assembly + context build
    /// each), summed like [`BatchStats::probe_hits`].
    pub probe_misses: u64,
}

impl BatchStats {
    /// Fraction of processed lane slots that carried a real job
    /// (1.0 when every 8-wide chunk was full); `None` before any kernel
    /// work.
    pub fn lane_occupancy(&self) -> Option<f64> {
        (self.lane_slots > 0).then(|| self.lane_jobs as f64 / self.lane_slots as f64)
    }
}

#[derive(Debug, Default)]
struct BatchCounters {
    groups: AtomicU64,
    campaigns: AtomicU64,
    kernel_invocations: AtomicU64,
    lane_slots: AtomicU64,
    lane_jobs: AtomicU64,
}

/// Shared-tier batched campaign executor.
///
/// Cloning a runner clones handles to the same tiers, so a server can hand
/// one to every worker and a `(scenario, kind)` predictor still trains
/// once per process. Equal request slices produce equal report vectors
/// regardless of thread count or grouping: scheduling only changes
/// wall-clock, never bits.
#[derive(Debug, Clone)]
pub struct BatchRunner {
    pools: PoolCache,
    spines: SpineCache,
    curves: CurveCache,
    predictors: PredictorCache,
    /// Optional revocation-storm overlay applied to every engine (the
    /// serial reference for fault-plan equivalence builds its engines with
    /// the same plan).
    fault_plan: Option<FaultPlan>,
    /// Worker threads one `run_many` call may use (at least 1).
    threads: usize,
    counters: Arc<BatchCounters>,
}

/// `std::thread::available_parallelism`, read once per process (the std
/// call re-reads cgroup limits every time, and sweeps build runners per
/// batch).
fn default_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

impl Default for BatchRunner {
    fn default() -> Self {
        BatchRunner {
            pools: PoolCache::default(),
            spines: SpineCache::default(),
            curves: CurveCache::default(),
            predictors: PredictorCache::default(),
            fault_plan: None,
            threads: default_threads(),
            counters: Arc::default(),
        }
    }
}

impl BatchRunner {
    /// Creates a runner with fresh, unbounded tiers.
    pub fn new() -> Self {
        BatchRunner::default()
    }

    /// Caps the worker threads of one [`BatchRunner::run_many`] call
    /// (default: `available_parallelism`; `0` is read as 1). Thread count
    /// may change wall-clock, never bits: cohort boundaries are fixed by
    /// the request slice alone, so every count yields the same reports.
    /// `with_threads(1)` runs the whole sweep on the calling thread.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Worker threads one [`BatchRunner::run_many`] call may use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Builder-style tier override: share a server's existing caches.
    pub fn with_tiers(
        mut self,
        pools: PoolCache,
        spines: SpineCache,
        curves: CurveCache,
        predictors: PredictorCache,
    ) -> Self {
        self.pools = pools;
        self.spines = spines;
        self.curves = curves;
        self.predictors = predictors;
        self
    }

    /// Builder-style fault-plan overlay, threaded into every engine.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Opens a session over one scenario: pool and spine resolved once,
    /// scratch and memo tables empty. [`CohortPlan::claim`] opens one per
    /// group a claimer runs cohorts of.
    pub fn session(&self, scenario: MarketScenario) -> GroupSession<'_> {
        let pool = self.pools.get(scenario);
        let spine = self.spines.get(scenario, &pool);
        self.counters.groups.fetch_add(1, Ordering::Relaxed);
        GroupSession {
            runner: self,
            scenario,
            pool,
            spine,
            estimators: Vec::new(),
            spe_memos: Vec::new(),
            truth_memos: BTreeMap::new(),
            lane_scratch: Vec::new(),
            lanes: JobLanes::new(),
        }
    }

    /// Runs every request, batched: one [`CohortPlan`] over the slice,
    /// claimed by up to [`BatchRunner::threads`] workers (the calling
    /// thread is one of them), reports returned in *request order* (index
    /// `i` of the result is the report of `requests[i]`). Every cohort runs
    /// through [`GroupSession::run_cohort`]; for every thread count the
    /// report vector is bit-identical.
    ///
    /// # Panics
    ///
    /// A campaign that panics (a request failing engine validation)
    /// resurfaces here with its original payload once the other workers
    /// have run out of cohorts.
    pub fn run_many(&self, requests: &[CampaignRequest]) -> Vec<HptReport> {
        let plan = CohortPlan::new(requests);
        let workers = self.threads.min(plan.len()).max(1);
        let work = || {
            let mut out = Vec::new();
            plan.claim(self, |session, idxs| {
                let cohort: Vec<&CampaignRequest> = idxs.iter().map(|&i| &requests[i]).collect();
                out.extend(idxs.iter().copied().zip(session.run_cohort(&cohort)));
            });
            out
        };
        let per_worker: Vec<Vec<(usize, HptReport)>> = std::thread::scope(|scope| {
            let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
            let mut per_worker = vec![work()];
            for handle in spawned {
                match handle.join() {
                    Ok(reports) => per_worker.push(reports),
                    // The scope joins the remaining workers, then lets
                    // this unwind through to the caller.
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            per_worker
        });
        let mut out: Vec<Option<HptReport>> = Vec::new();
        out.resize_with(requests.len(), || None);
        for (i, report) in per_worker.into_iter().flatten() {
            out[i] = Some(report);
        }
        out.into_iter().map(|r| r.expect("every request produces a report")).collect()
    }

    /// Counter snapshot across every session this runner (and its clones)
    /// ever opened.
    pub fn stats(&self) -> BatchStats {
        let probes = self.predictors.resident_probe_stats();
        BatchStats {
            groups: self.counters.groups.load(Ordering::Relaxed),
            campaigns: self.counters.campaigns.load(Ordering::Relaxed),
            pool_cache: self.pools.stats(),
            spine_cache: self.spines.stats(),
            predictor_cache: self.predictors.stats(),
            spine_queries: self.spines.resident_queries(),
            kernel_invocations: self.counters.kernel_invocations.load(Ordering::Relaxed),
            lane_slots: self.counters.lane_slots.load(Ordering::Relaxed),
            lane_jobs: self.counters.lane_jobs.load(Ordering::Relaxed),
            probe_hits: probes.hits,
            probe_misses: probes.misses,
        }
    }
}

/// The cohort cut of one request slice: indices grouped by
/// [`MarketScenario`] (in `MarketScenario` order, submission order inside a
/// group), each group cut into [`COHORT_WIDTH`] cohorts, so only a group's
/// last cohort can be ragged. [`CohortPlan::claim`] hands every cohort to
/// exactly one of any number of concurrent claimers — `run_many`'s threads,
/// the server's workers — so all of them stage the same cohorts.
#[derive(Debug)]
pub struct CohortPlan {
    groups: Vec<PlanGroup>,
    next_group: AtomicUsize,
}

/// One scenario group of a [`CohortPlan`] and the cursor claimers take
/// `idxs.chunks(COHORT_WIDTH)` positions from. Both cursors only hand out
/// positions (hence `Relaxed`): everything a position reaches is immutable
/// for the plan's lifetime, and results travel back through each claimer.
#[derive(Debug)]
struct PlanGroup {
    scenario: MarketScenario,
    idxs: Vec<usize>,
    next_cohort: AtomicUsize,
}

impl CohortPlan {
    /// Groups `requests` by scenario and cuts each group into cohorts.
    pub fn new(requests: &[CampaignRequest]) -> Self {
        let mut by_scenario: BTreeMap<MarketScenario, Vec<usize>> = BTreeMap::new();
        for (i, req) in requests.iter().enumerate() {
            by_scenario.entry(req.scenario).or_default().push(i);
        }
        let groups = by_scenario
            .into_iter()
            .map(|(scenario, idxs)| PlanGroup { scenario, idxs, next_cohort: AtomicUsize::new(0) })
            .collect();
        CohortPlan { groups, next_group: AtomicUsize::new(0) }
    }

    /// Every cohort in plan order, as its scenario and its request indices.
    /// Claiming does not change it.
    pub fn cohorts(&self) -> impl Iterator<Item = (MarketScenario, &[usize])> + '_ {
        self.groups.iter().flat_map(|g| g.idxs.chunks(COHORT_WIDTH).map(move |c| (g.scenario, c)))
    }

    /// Number of cohorts.
    pub fn len(&self) -> usize {
        self.groups.iter().map(|group| group.idxs.len().div_ceil(COHORT_WIDTH)).sum()
    }

    /// Whether the plan has no cohort (its request slice was empty).
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Claims cohorts and hands each to `run`, with this claimer's session
    /// for the cohort's group, until none is left. Whole unstarted groups
    /// come first (distinct scenarios' cold builds land on distinct
    /// claimers), then every group again for cohorts its owner has not
    /// claimed yet. A session opens through `runner` on a claimer's first
    /// successful claim in a group, so a late claimer opens nothing.
    pub fn claim(
        &self,
        runner: &BatchRunner,
        mut run: impl FnMut(&mut GroupSession<'_>, &[usize]),
    ) {
        let mut drain = |group: &PlanGroup| {
            let mut session = None;
            let next = || group.next_cohort.fetch_add(1, Ordering::Relaxed);
            while let Some(cohort) = group.idxs.chunks(COHORT_WIDTH).nth(next()) {
                run(session.get_or_insert_with(|| runner.session(group.scenario)), cohort);
            }
        };
        while let Some(group) = self.groups.get(self.next_group.fetch_add(1, Ordering::Relaxed)) {
            drain(group);
        }
        self.groups.iter().for_each(drain);
    }
}

/// One scenario group's execution state: the resolved pool and spine plus
/// the memo tables ([`EstimatorSpec`] → built estimator, [`Workload`] →
/// SPE table) and the reusable per-slot [`EngineScratch`]es.
///
/// Campaigns submitted through [`GroupSession::run_cohort`] are
/// bit-identical to [`CampaignRequest::run_serial`] over the session's
/// scenario — the memos only change what is recomputed, never an answer.
pub struct GroupSession<'a> {
    runner: &'a BatchRunner,
    scenario: MarketScenario,
    pool: MarketPool,
    spine: Arc<PoolSpine>,
    /// Spec-keyed estimator memo, built at most once per spec; linear
    /// probe (a sweep uses a handful of specs, and `EstimatorSpec` is a
    /// tiny `Copy` enum).
    estimators: Vec<(EstimatorSpec, Arc<dyn RevocationEstimator>)>,
    /// Workload-keyed per-market SPE tables shared across the group's
    /// engines via [`Engine::with_spe_means`].
    spe_memos: Vec<(Workload, Arc<SpeTable>)>,
    /// (workload-memo index, seed) → ground-truth finals. A pure function
    /// of its key, so the cohort path hands every campaign a shared copy
    /// instead of re-deriving the finals (two curve-memo lookups plus key
    /// formatting) per report.
    truth_memos: BTreeMap<(usize, u64), Arc<Vec<f64>>>,
    /// One [`EngineScratch`] per cohort slot (slot `i` always serves
    /// cohort position `i`, so arena reuse works exactly as in the serial
    /// session loop).
    lane_scratch: Vec<EngineScratch>,
    /// The cohort's SoA prediction barrier.
    lanes: JobLanes,
}

impl GroupSession<'_> {
    /// Runs a cohort of campaigns of this session's scenario through the
    /// SoA hot path: phase 1 of every transient campaign first, then one
    /// cross-campaign lane-kernel pass over all of their final-metric
    /// extrapolations, then each campaign's selection/phase-2/report.
    /// Dedicated-mode campaigns (no prediction stage) run scalar in place.
    /// Reports are returned in cohort order and are bit-identical to
    /// [`CampaignRequest::run_serial`] per request — the barrier reorders
    /// work only *between* independent campaigns.
    ///
    /// # Panics
    ///
    /// A request failing engine validation panics the whole cohort before
    /// any report is returned or counted. The session stays usable: every
    /// scratch slot is re-prepared by the next cohort, so a caller that
    /// catches the unwind can re-run the survivors as cohorts of one.
    pub fn run_cohort(&mut self, reqs: &[&CampaignRequest]) -> Vec<HptReport> {
        // Resolve the memo indices up front (needs `&mut self`; the rest
        // of the cohort borrows session fields disjointly).
        let resolved: Vec<(usize, usize, Arc<Vec<f64>>)> = reqs
            .iter()
            .map(|req| {
                debug_assert_eq!(
                    req.scenario, self.scenario,
                    "request submitted to a session of a different scenario"
                );
                let est_idx = self.estimator_index(req.estimator);
                let spe_idx = self.spe_index(&req.workload);
                let truth = self.truth_for(spe_idx, req);
                (est_idx, spe_idx, truth)
            })
            .collect();
        if self.lane_scratch.len() < reqs.len() {
            self.lane_scratch.resize_with(reqs.len(), EngineScratch::new);
        }
        let GroupSession { runner, pool, spine, estimators, spe_memos, lane_scratch, lanes, .. } =
            self;

        // Stage every campaign's engine and policy.
        let mut engines = Vec::with_capacity(reqs.len());
        let mut policies = Vec::with_capacity(reqs.len());
        for (req, &(est_idx, spe_idx, _)) in reqs.iter().zip(&resolved) {
            let estimator = estimators[est_idx].1.as_ref();
            let cfg = req.approach.config(req.seed);
            let policy = req.approach.build_policy(estimator, &cfg);
            let mut engine = Engine::new(cfg, req.workload.clone(), pool.clone())
                .with_curve_cache(runner.curves.clone())
                .with_spine(Arc::clone(spine))
                .with_spe_means(Arc::clone(&spe_memos[spe_idx].1));
            if let Some(plan) = &runner.fault_plan {
                engine = engine.with_fault_plan(plan.clone());
            }
            engines.push(engine);
            policies.push(policy);
        }

        // Phase 1 per campaign (dedicated campaigns complete here).
        let mut reports: Vec<Option<HptReport>> = Vec::new();
        reports.resize_with(reqs.len(), || None);
        let mut execs: Vec<Option<TransientExec<'_>>> = Vec::with_capacity(reqs.len());
        for (i, (engine, policy)) in engines.iter().zip(policies.iter_mut()).enumerate() {
            let scratch = &mut lane_scratch[i];
            if policy.mode() == PolicyMode::Dedicated {
                reports[i] = Some(engine.run_with_scratch(policy.as_mut(), scratch));
                execs.push(None);
            } else {
                let mut exec = TransientExec::new(engine, scratch);
                exec.phase1(policy.as_mut(), scratch);
                execs.push(Some(exec));
            }
        }

        // The barrier: gather every campaign's prediction inputs into the
        // SoA lanes, one kernel pass, scatter back.
        lanes.clear();
        let handles: Vec<Option<usize>> = execs
            .iter()
            .enumerate()
            .map(|(i, exec)| {
                exec.as_ref().map(|exec| {
                    lanes.gather(lane_scratch[i].arena.slots(), exec.theta(), exec.max_steps)
                })
            })
            .collect();
        lanes.evaluate();

        // Selection, phase 2 and report per campaign.
        for (i, exec) in execs.into_iter().enumerate() {
            let Some(exec) = exec else { continue };
            let handle = handles[i].expect("transient campaigns were gathered");
            let predicted = lanes.scatter(handle);
            let truth = resolved[i].2.as_ref().clone();
            reports[i] = Some(exec.finish(
                policies[i].as_mut(),
                &mut lane_scratch[i],
                predicted,
                Some(truth),
            ));
        }

        let (invocations, slots, jobs) = lanes.flush_counters();
        runner.counters.kernel_invocations.fetch_add(invocations, Ordering::Relaxed);
        runner.counters.lane_slots.fetch_add(slots, Ordering::Relaxed);
        runner.counters.lane_jobs.fetch_add(jobs, Ordering::Relaxed);
        runner.counters.campaigns.fetch_add(reports.len() as u64, Ordering::Relaxed);
        reports.into_iter().map(|r| r.expect("every cohort campaign reports")).collect()
    }

    /// Index of the memoized estimator for `spec`, building it on first
    /// use. Resolution mirrors [`CampaignRequest::run_with_tiers`] exactly:
    /// learned families train for this session's scenario (through the
    /// shared predictor tier — a pure memo of `train_for_scenario` — and
    /// probe through that set's memo), ground-truth specs are built from
    /// the pool. The oracle additionally routes its trace lookups through
    /// the session spine, which answers bit-identically to the linear scan.
    fn estimator_index(&mut self, spec: EstimatorSpec) -> usize {
        if let Some(i) = self.estimators.iter().position(|(s, _)| *s == spec) {
            return i;
        }
        let built: Arc<dyn RevocationEstimator> = match PredictorKind::from_spec(&spec) {
            Some(kind) => self.runner.predictors.get(kind, self.scenario, &self.pool),
            None => match spec {
                EstimatorSpec::Oracle { confidence } => Arc::new(
                    OracleEstimator::new(self.pool.clone(), confidence)
                        .with_spine(Arc::clone(&self.spine)),
                ),
                EstimatorSpec::Constant { p } => Arc::new(ConstantEstimator::new(p)),
                _ => unreachable!("learned specs resolve through PredictorKind::from_spec"),
            },
        };
        self.estimators.push((spec, built));
        self.estimators.len() - 1
    }

    /// The memoized ground-truth finals for `(workload, seed)`, keyed by
    /// the workload's memo index. [`ground_truth_finals_with_cache`] is a
    /// pure function of the key, so sharing one copy across the cohort
    /// path's reports is bit-identical to each campaign deriving its own.
    ///
    /// [`ground_truth_finals_with_cache`]: spottune_mlsim::runner::ground_truth_finals_with_cache
    fn truth_for(&mut self, spe_idx: usize, req: &CampaignRequest) -> Arc<Vec<f64>> {
        if let Some(truth) = self.truth_memos.get(&(spe_idx, req.seed)) {
            return Arc::clone(truth);
        }
        let truth = Arc::new(spottune_mlsim::runner::ground_truth_finals_with_cache(
            &req.workload,
            req.seed,
            &self.runner.curves,
        ));
        self.truth_memos.insert((spe_idx, req.seed), Arc::clone(&truth));
        truth
    }

    /// Index of the memoized SPE table for `workload`, deriving it on
    /// first use ([`compute_spe_means`] is a pure function of
    /// `(pool, workload)`, so sharing the table is bit-identical to each
    /// engine deriving its own).
    fn spe_index(&mut self, workload: &Workload) -> usize {
        if let Some(i) = self.spe_memos.iter().position(|(w, _)| w == workload) {
            return i;
        }
        let table = Arc::new(compute_spe_means(&self.pool, workload));
        self.spe_memos.push((workload.clone(), table));
        self.spe_memos.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::SingleSpotKind;
    use crate::campaign::Approach;
    use spottune_mlsim::Algorithm;

    fn tiny_workload() -> Workload {
        let base = Workload::benchmark(Algorithm::LoR);
        Workload::custom(Algorithm::LoR, 30, base.hp_grid()[..2].to_vec())
    }

    fn request(id: u64, approach: Approach, scenario: MarketScenario, seed: u64) -> CampaignRequest {
        CampaignRequest {
            id,
            approach,
            workload: tiny_workload(),
            scenario,
            seed,
            estimator: EstimatorSpec::default(),
        }
    }

    #[test]
    fn run_many_matches_serial_and_preserves_order() {
        let near = MarketScenario::from_days(1, 3);
        let far = MarketScenario::from_days(1, 4);
        // Interleave two scenarios so grouping must scatter back by index.
        let reqs: Vec<CampaignRequest> = (0..6)
            .map(|i| {
                let scenario = if i % 2 == 0 { near } else { far };
                request(i, Approach::SpotTune { theta: 0.7 }, scenario, 10 + i)
            })
            .collect();
        let runner = BatchRunner::new();
        let batched = runner.run_many(&reqs);
        let curve_cache = CurveCache::new();
        for (req, got) in reqs.iter().zip(&batched) {
            let want = req.run_serial(&req.scenario.build(), &curve_cache);
            assert_eq!(*got, want, "request {} must match its serial report", req.id);
        }
        let stats = runner.stats();
        assert_eq!(stats.campaigns, 6);
        assert_eq!(stats.groups, 2);
        assert_eq!(stats.pool_cache.misses, 2, "one pool build per scenario");
        assert_eq!(stats.spine_cache.misses, 2, "one spine build per scenario");
        assert!(stats.spine_queries > 0, "campaigns must route through the spine");
    }

    #[test]
    fn session_memoizes_estimators_and_spe_tables() {
        let scenario = MarketScenario::from_days(1, 5);
        let runner = BatchRunner::new();
        let mut session = runner.session(scenario);
        let specs =
            [EstimatorSpec::default(), EstimatorSpec::Constant { p: 0.2 }, EstimatorSpec::default()];
        for (i, spec) in specs.into_iter().enumerate() {
            let req = CampaignRequest {
                estimator: spec,
                ..request(i as u64, Approach::SpotTune { theta: 0.7 }, scenario, 9)
            };
            session.run_cohort(&[&req]);
        }
        assert_eq!(session.estimators.len(), 2, "equal specs share one estimator");
        assert_eq!(session.spe_memos.len(), 1, "equal workloads share one SPE table");
    }

    /// A lone campaign is a cohort of one, transient or dedicated, on one
    /// reused session.
    #[test]
    fn cohort_of_one_matches_serial_for_every_registered_policy() {
        let scenario = MarketScenario::from_days(1, 7);
        let pool = scenario.build();
        let curve_cache = CurveCache::new();
        let runner = BatchRunner::new();
        let mut session = runner.session(scenario);
        for (i, name) in Approach::registered_policies().into_iter().enumerate() {
            let approach = Approach::from_policy_name(name, 0.7).expect("registered");
            let req = request(i as u64, approach, scenario, 3);
            let got = session.run_cohort(&[&req]);
            assert_eq!(got, [req.run_serial(&pool, &curve_cache)], "{name}");
        }
        let stats = runner.stats();
        assert_eq!(stats.campaigns, Approach::registered_policies().len() as u64);
        assert_eq!(stats.groups, 1);
    }

    #[test]
    fn dedicated_policies_run_through_the_batched_path() {
        let scenario = MarketScenario::from_days(1, 6);
        let reqs = vec![
            request(0, Approach::OnDemand(SingleSpotKind::Cheapest), scenario, 2),
            request(1, Approach::SingleSpot(SingleSpotKind::Fastest), scenario, 2),
        ];
        let batched = BatchRunner::new().run_many(&reqs);
        let curve_cache = CurveCache::new();
        let pool = scenario.build();
        for (req, got) in reqs.iter().zip(&batched) {
            assert_eq!(*got, req.run_serial(&pool, &curve_cache));
        }
    }
}
