//! # spottune-server
//!
//! A long-running, sharded multi-campaign service: the scaling layer that
//! turns the per-process campaign fan-out into a reusable subsystem able to
//! sweep 10⁵–10⁶ campaigns (workload × policy × θ × seed × market scenario)
//! in one process. Every registered provisioning policy — SpotTune, the
//! baselines, hybrid and bid-aware — runs through the same engine and the
//! same cached pipeline; a request's `approach` is part of its identity.
//!
//! ## Architecture
//!
//! * **Sharding** — [`CampaignServer::start`] spawns a fixed pool of
//!   resident worker threads. Requests flow through a
//!   `crossbeam::channel` MPMC queue — bounded to
//!   [`ServerConfig::queue_capacity`] (the default `0` keeps the legacy
//!   unbounded feed) — so an idle worker steals the next request the
//!   moment it finishes; coarse campaigns shard evenly without a
//!   scheduler.
//! * **Backpressure & drain** — with a bounded queue, the non-blocking
//!   submission paths ([`CampaignServer::try_submit`]) refuse
//!   over-capacity work with [`SubmitError::Overloaded`] instead of
//!   queueing forever, and per-request deadlines expire not-yet-started
//!   work at dequeue time ([`WorkOutcome::Expired`]). A graceful
//!   shutdown ([`CampaignServer::begin_drain`]) closes the intake —
//!   later submits observe [`SubmitError::Draining`], already-queued
//!   requests finish and stream their responses — and
//!   [`CampaignServer::shutdown`] then joins the pool. All of it is
//!   observable: [`ServerStats`] carries the live queue depth, its
//!   high-water mark and the rejected/overloaded/expired/drained
//!   counters.
//! * **Execution** — a sweep ([`CampaignServer::submit_sweep`]) is one
//!   [`spottune_core::CohortPlan`], claimed by up to one worker per cohort
//!   exactly as `BatchRunner::run_many` claims it, each worker through a
//!   [`spottune_core::GroupSession`] per group (pool, spine and predictors
//!   resolved once, SoA lanes, one lane-kernel pass per cohort). That is the
//!   only sweep path. A lone [`CampaignServer::try_submit`] request runs the
//!   scalar engine directly — the same code as the `run_serial` reference.
//! * **Streaming** — every submission (single request or sweep) carries its
//!   own reply channel; [`CampaignResponse`]s stream back in *completion*
//!   order, tagged with the request id so clients needing submission order
//!   can reorder. The reply receiver disconnects exactly when the last
//!   response of the submission has been delivered.
//! * **Shared tiers** — workers resolve the market environment through a
//!   scenario-keyed [`PoolCache`], memoize training curves through a
//!   cross-request [`CurveCache`], and resolve learned revocation
//!   predictors through a `(scenario × kind)`-keyed [`PredictorCache`] —
//!   all `Arc`-backed with hit/miss counters ([`CampaignServer::stats`]).
//!   The predictor tier is what makes learned-estimator sweeps viable:
//!   training a RevPred set is minutes of LSTM work, so it happens at most
//!   once per `(scenario, kind)` no matter how many thousand campaigns
//!   request it. Campaign results are pure functions of
//!   `(request, scenario)`, so shared tiers change wall-clock and
//!   counters, never reports: a sweep through the server is bit-identical
//!   to running each campaign serially
//!   ([`CampaignRequest::run_serial`]).
//!
//! ```no_run
//! use spottune_core::prelude::*;
//! use spottune_market::{EstimatorSpec, MarketScenario};
//! use spottune_mlsim::prelude::*;
//! use spottune_server::{CampaignServer, ServerConfig};
//!
//! let server = CampaignServer::start(ServerConfig::default());
//! let scenario = MarketScenario::from_days(12, 42);
//! let requests: Vec<CampaignRequest> = (0..1000)
//!     .map(|i| CampaignRequest {
//!         id: i,
//!         approach: Approach::SpotTune { theta: 0.7 },
//!         workload: Workload::benchmark(Algorithm::ResNet),
//!         scenario,
//!         seed: i,
//!         // The learned predictor trains once; 999 campaigns reuse it.
//!         estimator: EstimatorSpec::RevPred,
//!     })
//!     .collect();
//! for response in server.submit_sweep(requests) {
//!     println!("{}", response.report.summary());
//! }
//! let stats = server.stats();
//! println!("curve memo hit rate: {:.1}%", 100.0 * stats.curve_cache.hit_rate());
//! println!("predictor tier: {} trainings", stats.predictor_cache.misses);
//! ```

use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use serde::{Deserialize, Serialize};
use spottune_core::{BatchRunner, CampaignRequest, CampaignResponse, CohortPlan};
use spottune_market::{CacheStats, PoolCache, SpineCache};
use spottune_mlsim::CurveCache;
use spottune_revpred::PredictorCache;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

pub mod net;

/// Campaign-server configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerConfig {
    /// Worker-pool size; `0` (the default) means one worker per available
    /// core. Campaigns are single-threaded and CPU-bound, so more workers
    /// than cores only adds contention on the shared tiers.
    pub workers: usize,
    /// Capacity bound of the curve tier; `0` (the default) is unbounded.
    /// Many-seed sweeps touch a distinct curve set per master seed, so a
    /// 10⁶-campaign sweep needs a bound to keep the memo from growing with
    /// the sweep; evictions are LRU and counted in the tier's
    /// [`CacheStats`].
    pub curve_capacity: usize,
    /// Capacity bound of the trained-predictor tier; `0` (the default) is
    /// unbounded. Each resident entry is a full trained predictor set
    /// (three models per market), so scenario-heavy sweeps bound this to
    /// cap memory; evictions are LRU and counted in the tier's
    /// [`CacheStats`]. An evicted `(scenario, kind)` retrains on its next
    /// request.
    pub predictor_capacity: usize,
    /// Capacity bound of the request queue; `0` (the default) is the
    /// legacy unbounded feed. With a bound, blocking submissions
    /// ([`CampaignServer::submit_sweep`]) wait for space while the
    /// non-blocking paths ([`CampaignServer::try_submit`]) refuse
    /// over-capacity work with [`SubmitError::Overloaded`].
    pub queue_capacity: usize,
}

impl ServerConfig {
    /// Config with an explicit worker count.
    pub fn with_workers(workers: usize) -> Self {
        ServerConfig { workers, ..ServerConfig::default() }
    }

    /// Builder-style curve-tier capacity override (`0` = unbounded).
    pub fn with_curve_capacity(mut self, curve_capacity: usize) -> Self {
        self.curve_capacity = curve_capacity;
        self
    }

    /// Builder-style predictor-tier capacity override (`0` = unbounded).
    pub fn with_predictor_capacity(mut self, predictor_capacity: usize) -> Self {
        self.predictor_capacity = predictor_capacity;
        self
    }

    /// Builder-style request-queue capacity override (`0` = unbounded).
    pub fn with_queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.queue_capacity = queue_capacity;
        self
    }

    fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
    }
}

/// A snapshot of the server's counters and shared-tier state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Worker-pool size.
    pub workers: usize,
    /// Requests accepted so far.
    pub submitted: u64,
    /// Responses delivered (or dropped by a departed client) so far.
    pub completed: u64,
    /// Hit/miss counters of the scenario-keyed market-pool tier.
    pub pool_cache: CacheStats,
    /// Hit/miss counters of the cross-request training-curve tier.
    pub curve_cache: CacheStats,
    /// Hit/miss counters of the `(scenario × kind)`-keyed trained-predictor
    /// tier (every miss is one full training run).
    pub predictor_cache: CacheStats,
    /// Hit/miss counters of the scenario-keyed price-spine tier (every
    /// miss builds one event spine over the scenario's pool).
    pub spine_cache: CacheStats,
    /// Distinct market scenarios currently resident.
    pub resident_pools: usize,
    /// Training curves currently resident, including ones still being
    /// built.
    pub resident_curves: usize,
    /// Trained predictor sets currently resident.
    pub resident_predictors: usize,
    /// Price spines currently resident.
    pub resident_spines: usize,
    /// Revocation lookups answered by resident spines across every sweep
    /// campaign — non-zero whenever a sweep ran (the CI sweep-throughput
    /// check asserts this).
    pub spine_queries: u64,
    /// Sessions opened by sweeps: one per (worker, group) that ran a cohort.
    pub batched_groups: u64,
    /// Cross-campaign lane-kernel passes executed by sweep cohorts (zero
    /// until a transient campaign of a sweep extrapolates; lone
    /// [`CampaignServer::try_submit`] requests never touch the kernel).
    pub kernel_invocations: u64,
    /// Kernel lane slots processed, including padding up to the 8-wide
    /// chunk boundary; `lane_jobs / lane_slots` is the lane occupancy.
    pub lane_slots: u64,
    /// Jobs whose final-metric extrapolation ran through kernel lanes.
    pub lane_jobs: u64,
    /// Probe-context memo hits of the resident trained predictor sets —
    /// sweeps and lone requests alike probe through the set's memo, so a
    /// repeated lone learned request adds hits and no misses.
    pub probe_hits: u64,
    /// Probe-context memo misses (one sample assembly each) of the
    /// resident trained predictor sets.
    pub probe_misses: u64,
    /// Spot revocations absorbed across every completed campaign — the
    /// server-level view of how hostile the swept markets were.
    pub revocations: u64,
    /// Training steps rolled back across every completed campaign (grace
    /// windows too short, or checkpoints lost to injected faults).
    pub lost_steps: u64,
    /// Grace-window batch migrations executed across every completed
    /// campaign (non-zero only for policies overriding
    /// `assign_migrations`).
    pub migrations: u64,
    /// Configured request-queue capacity (`0` = unbounded).
    pub queue_capacity: u64,
    /// Work items currently queued and not yet picked up by a worker: one
    /// per lone request, at most `workers` per sweep.
    pub queue_depth: u64,
    /// High-water mark of [`queue_depth`](Self::queue_depth) (work items,
    /// not requests) over the server's lifetime; with a bounded queue this
    /// never exceeds [`queue_capacity`](Self::queue_capacity).
    pub peak_queue_depth: u64,
    /// Requests refused by validation on the checked submission paths.
    pub rejected: u64,
    /// Non-blocking submissions refused because the bounded queue was at
    /// capacity ([`SubmitError::Overloaded`]).
    pub overloaded: u64,
    /// Requests whose deadline had passed when a worker dequeued them
    /// ([`WorkOutcome::Expired`]); their campaigns never ran.
    pub expired: u64,
    /// Responses completed after [`CampaignServer::begin_drain`] closed
    /// the intake (queued work flushed during a graceful shutdown).
    pub drained: u64,
}

impl ServerStats {
    /// Every counter as a flat `(name, value)` list — the core half of the
    /// TCP stats frame, a tier's `hits` / `misses` flattened to
    /// `<tier>_hits` / `<tier>_misses`. `self` is destructured without
    /// `..`, so a field added to the struct and not listed here does not
    /// compile.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        let ServerStats {
            workers,
            submitted,
            completed,
            pool_cache,
            curve_cache,
            predictor_cache,
            spine_cache,
            resident_pools,
            resident_curves,
            resident_predictors,
            resident_spines,
            spine_queries,
            batched_groups,
            kernel_invocations,
            lane_slots,
            lane_jobs,
            probe_hits,
            probe_misses,
            revocations,
            lost_steps,
            migrations,
            queue_capacity,
            queue_depth,
            peak_queue_depth,
            rejected,
            overloaded,
            expired,
            drained,
        } = *self;
        vec![
            ("workers", workers as u64),
            ("submitted", submitted),
            ("completed", completed),
            ("queue_capacity", queue_capacity),
            ("queue_depth", queue_depth),
            ("peak_queue_depth", peak_queue_depth),
            ("rejected", rejected),
            ("overloaded", overloaded),
            ("expired", expired),
            ("drained", drained),
            ("revocations", revocations),
            ("lost_steps", lost_steps),
            ("migrations", migrations),
            ("resident_pools", resident_pools as u64),
            ("resident_curves", resident_curves as u64),
            ("resident_predictors", resident_predictors as u64),
            ("resident_spines", resident_spines as u64),
            ("pool_hits", pool_cache.hits),
            ("pool_misses", pool_cache.misses),
            ("curve_hits", curve_cache.hits),
            ("curve_misses", curve_cache.misses),
            ("predictor_hits", predictor_cache.hits),
            ("predictor_misses", predictor_cache.misses),
            ("spine_hits", spine_cache.hits),
            ("spine_misses", spine_cache.misses),
            ("spine_queries", spine_queries),
            ("batched_groups", batched_groups),
            ("kernel_invocations", kernel_invocations),
            ("lane_slots", lane_slots),
            ("lane_jobs", lane_jobs),
            ("probe_hits", probe_hits),
            ("probe_misses", probe_misses),
        ]
    }
}

/// Typed refusal from the non-blocking submission path
/// ([`CampaignServer::try_submit`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded request queue is at capacity; retry after backoff.
    Overloaded {
        /// The configured queue bound that was hit.
        capacity: usize,
    },
    /// The request failed [`CampaignRequest::validate`]; never queued.
    Rejected(String),
    /// The server is draining ([`CampaignServer::begin_drain`]) or torn
    /// down; no new work is accepted.
    Draining,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Overloaded { capacity } => {
                write!(f, "request queue at capacity ({capacity})")
            }
            SubmitError::Rejected(reason) => write!(f, "invalid request: {reason}"),
            SubmitError::Draining => f.write_str("server is draining; not accepting work"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// One unit of work's result on the deadline-aware submission paths.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkOutcome {
    /// The campaign ran; here is its response (boxed: a response is two
    /// orders of magnitude larger than the expired variant).
    Done(Box<CampaignResponse>),
    /// The request's deadline passed while it sat in the queue; the
    /// campaign was cancelled before starting.
    Expired {
        /// Id of the expired request.
        id: u64,
    },
}

/// What one queue slot carries. Which variant is built follows from what
/// the server observes — a lone deadline-aware submission or a sweep —
/// never from an option, and the ledger measures both sides: the `wire_*`
/// workloads ride `Single`; `Sweep` runs the `run_cohort` the `sweep_*`
/// workloads time, and `server.inproc_sweep_per_s` times `Sweep` itself.
enum WorkPayload {
    /// One campaign from [`CampaignServer::try_submit`], run by
    /// [`CampaignRequest::run_with_tiers`] — the function
    /// [`CampaignRequest::run_serial`] is, over this server's predictor
    /// tier — so the suites' reference is exercised by production traffic.
    ///
    /// Not a cohort of one, on measurement: routing `try_submit` through a
    /// [`GroupSession`](spottune_core::GroupSession) held one spine per
    /// warmed scenario resident in the server and moved `wire_closed`
    /// `peak_rss_mb` 12.30 → 19.44 MB (+58 %, bound 15 %) and `wire_open`
    /// 12.49 → 19.39 MB while buying nothing (`wire_closed` p50 87.96 →
    /// 87.98 ms; `wire_open` p50 1.43 → 1.51 ms, `sat` 1 489 → 1 425 /s).
    /// Keeping one session resident per worker instead measured
    /// `peak_rss_mb` 20.1–21.8 MB on the `wire_*` workloads against
    /// 12.7 MB. What a session would add for learned estimators — the
    /// probe memo — lives in the trained set, so this arm shares it
    /// without a session. Retire this variant with ROADMAP's "Bound the
    /// pool and spine tiers, then let the wire reach the batched engine".
    Single {
        request: CampaignRequest,
        /// Checked at dequeue: expired work is cancelled before it starts.
        deadline: Option<Instant>,
        reply: Sender<WorkOutcome>,
    },
    /// One of at most `workers` handles on a sweep; the worker that
    /// dequeues it claims the sweep's [`CohortPlan`] until it is exhausted.
    Sweep(Arc<Sweep>),
}

/// A sweep; its reply stream disconnects when the last handle drops.
struct Sweep {
    requests: Vec<CampaignRequest>,
    plan: CohortPlan,
    reply: Sender<CampaignResponse>,
}

/// Graceful-degradation counters accumulated from every completed
/// campaign's report (revocations absorbed, steps rolled back, batch
/// migrations executed).
#[derive(Debug, Default)]
struct DegradationCounters {
    revocations: AtomicU64,
    lost_steps: AtomicU64,
    migrations: AtomicU64,
}

/// Robustness counters shared between the submission paths, the workers
/// and [`CampaignServer::stats`].
#[derive(Debug, Default)]
struct QueueCounters {
    /// High-water mark of the queue depth, sampled right after every
    /// successful enqueue (depth only grows at enqueue, so the true
    /// maximum is always observed there).
    peak_depth: AtomicU64,
    rejected: AtomicU64,
    overloaded: AtomicU64,
    expired: AtomicU64,
    drained: AtomicU64,
    /// Set by [`CampaignServer::begin_drain`]; completions afterwards
    /// count as `drained`.
    draining: AtomicBool,
}

impl QueueCounters {
    fn note_enqueued(&self, depth_now: u64) {
        self.peak_depth.fetch_max(depth_now, Ordering::SeqCst);
    }
}

/// The long-running sharded campaign service.
///
/// Dropping the server disconnects the request queue and joins every
/// worker; in-flight campaigns finish first ([`CampaignServer::shutdown`]
/// does the same explicitly).
pub struct CampaignServer {
    /// `None` once draining/teardown has closed the intake. Behind a
    /// mutex so [`CampaignServer::begin_drain`] works from `&self`
    /// (shared with connection threads).
    req_tx: Mutex<Option<Sender<WorkPayload>>>,
    /// Depth probe on the request queue: its `len()` is the live queue
    /// depth, and — for a bounded queue — can never exceed the capacity
    /// (the channel enforces the bound under its own lock). The extra
    /// receiver does not keep workers alive: they exit on sender
    /// disconnect, not receiver count.
    queue_probe: Receiver<WorkPayload>,
    queue_capacity: usize,
    workers: Vec<JoinHandle<()>>,
    pools: PoolCache,
    curves: CurveCache,
    predictors: PredictorCache,
    spines: SpineCache,
    /// Shared-tier batched executor the workers claim sweep plans
    /// through; its counters feed the `batched_groups`, `spine_queries`
    /// and lane stats.
    runner: BatchRunner,
    submitted: AtomicU64,
    completed: Arc<AtomicU64>,
    degradation: Arc<DegradationCounters>,
    queue: Arc<QueueCounters>,
}

impl CampaignServer {
    /// Spawns the worker pool with fresh, server-private cache tiers (the
    /// curve and predictor tiers honour [`ServerConfig::curve_capacity`]
    /// and [`ServerConfig::predictor_capacity`]).
    pub fn start(config: ServerConfig) -> Self {
        CampaignServer::start_with_tiers(
            config,
            PoolCache::new(),
            CurveCache::with_capacity(config.curve_capacity),
            PredictorCache::with_capacity(config.predictor_capacity),
        )
    }

    /// Spawns the worker pool against caller-provided tiers — e.g.
    /// [`CurveCache::global`] to share curves with non-server work in the
    /// same process, or tiers handed from a previous server instance to
    /// carry warm state (resident pools, curves and trained predictors)
    /// across restarts.
    pub fn start_with_tiers(
        config: ServerConfig,
        pools: PoolCache,
        curves: CurveCache,
        predictors: PredictorCache,
    ) -> Self {
        let workers = config.resolved_workers();
        let (req_tx, req_rx) = if config.queue_capacity > 0 {
            channel::bounded::<WorkPayload>(config.queue_capacity)
        } else {
            channel::unbounded::<WorkPayload>()
        };
        let spines = SpineCache::new();
        let runner = BatchRunner::new().with_tiers(
            pools.clone(),
            spines.clone(),
            curves.clone(),
            predictors.clone(),
        );
        let completed = Arc::new(AtomicU64::new(0));
        let degradation = Arc::new(DegradationCounters::default());
        let queue = Arc::new(QueueCounters::default());
        let shared = WorkerShared {
            runner: runner.clone(),
            pools: pools.clone(),
            curves: curves.clone(),
            predictors: predictors.clone(),
            completed: Arc::clone(&completed),
            degradation: Arc::clone(&degradation),
            queue: Arc::clone(&queue),
        };
        let handles = (0..workers)
            .map(|i| {
                let rx = req_rx.clone();
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("campaign-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &shared))
                    .expect("spawn campaign worker")
            })
            .collect();
        CampaignServer {
            req_tx: Mutex::new(Some(req_tx)),
            queue_probe: req_rx,
            queue_capacity: config.queue_capacity,
            workers: handles,
            pools,
            curves,
            predictors,
            spines,
            runner,
            submitted: AtomicU64::new(0),
            completed,
            degradation,
            queue,
        }
    }

    /// Clones the intake sender, or `None` once draining/teardown has
    /// closed it. (Poisoning cannot outlive this lock: no holder panics
    /// while it is held.)
    fn intake(&self) -> Option<Sender<WorkPayload>> {
        self.req_tx.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Submits a sweep; the returned receiver streams one response per
    /// request in **completion** order and disconnects after the last one.
    ///
    /// Responses echo [`CampaignRequest::id`], so a client that needs
    /// submission order sorts by id on its side (see
    /// [`CampaignServer::run_sweep`]).
    ///
    /// Untrusted (wire-decoded) requests should go through
    /// [`CampaignServer::submit_sweep_checked`] instead: this path queues
    /// whatever it is given, and a request that fails engine validation
    /// panics its campaign, shortening the stream by one response.
    pub fn submit_sweep(&self, requests: Vec<CampaignRequest>) -> Receiver<CampaignResponse> {
        let (reply_tx, reply_rx) = channel::unbounded();
        // `req_tx` is `None` mid-drain or mid-teardown; a send fails only
        // if every worker is gone. Neither is a reason to panic the
        // *client* thread: an unqueued request simply never answers, which
        // the stream reports by disconnecting short (same contract as a
        // panicked campaign).
        let Some(req_tx) = self.intake() else {
            return reply_rx;
        };
        self.submitted.fetch_add(requests.len() as u64, Ordering::Relaxed);
        // One plan — the cohorts `BatchRunner::run_many` stages over the
        // same requests — claimed by as many workers as it has cohorts.
        let plan = CohortPlan::new(&requests);
        let claimers = self.workers.len().min(plan.len());
        let sweep = Arc::new(Sweep { requests, plan, reply: reply_tx });
        for _ in 0..claimers {
            if req_tx.send(WorkPayload::Sweep(Arc::clone(&sweep))).is_err() {
                break;
            }
            self.queue.note_enqueued(self.queue_probe.len() as u64);
        }
        reply_rx
    }

    /// Non-blocking, deadline-aware submission of one campaign: the
    /// backpressure path the TCP front-end rides on.
    ///
    /// The request is validated first ([`SubmitError::Rejected`]); a
    /// draining or torn-down server refuses it
    /// ([`SubmitError::Draining`]); a bounded queue at capacity refuses
    /// it immediately ([`SubmitError::Overloaded`]) instead of blocking.
    /// On success the receiver yields exactly one [`WorkOutcome`]:
    /// [`WorkOutcome::Done`] with the response, or
    /// [`WorkOutcome::Expired`] if `deadline` passed before a worker
    /// picked the request up (the campaign is cancelled, never run).
    pub fn try_submit(
        &self,
        request: CampaignRequest,
        deadline: Option<Instant>,
    ) -> Result<Receiver<WorkOutcome>, SubmitError> {
        if let Err(reason) = request.validate() {
            self.queue.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Rejected(reason));
        }
        let Some(req_tx) = self.intake() else {
            return Err(SubmitError::Draining);
        };
        let (reply_tx, reply_rx) = channel::unbounded();
        let item = WorkPayload::Single { request, deadline, reply: reply_tx };
        match req_tx.try_send(item) {
            Ok(()) => {
                self.queue.note_enqueued(self.queue_probe.len() as u64);
                self.submitted.fetch_add(1, Ordering::Relaxed);
                Ok(reply_rx)
            }
            Err(TrySendError::Full(_)) => {
                self.queue.overloaded.fetch_add(1, Ordering::Relaxed);
                Err(SubmitError::Overloaded { capacity: self.queue_capacity })
            }
            Err(TrySendError::Disconnected(_)) => Err(SubmitError::Draining),
        }
    }

    /// Validating variant of [`CampaignServer::submit_sweep`]: every
    /// request is checked ([`CampaignRequest::validate`] — NaN θ, empty
    /// grid, zero-length scenario, bad estimator spec) before anything is
    /// queued, so a malformed submission yields an error naming the
    /// offending request instead of a worker panic and a silently
    /// shortened response stream. All-or-nothing: one bad request rejects
    /// the whole sweep.
    pub fn submit_sweep_checked(
        &self,
        requests: Vec<CampaignRequest>,
    ) -> Result<Receiver<CampaignResponse>, String> {
        for request in &requests {
            if let Err(reason) = request.validate() {
                self.queue.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(format!("request {}: {reason}", request.id));
            }
        }
        Ok(self.submit_sweep(requests))
    }

    /// Blocking convenience: runs a sweep and returns the responses in
    /// *request* order.
    ///
    /// # Panics
    ///
    /// Panics if request ids are not unique within the sweep, or if a
    /// response went missing (its campaign panicked).
    pub fn run_sweep(&self, requests: Vec<CampaignRequest>) -> Vec<CampaignResponse> {
        let order: std::collections::HashMap<u64, usize> = requests
            .iter()
            .enumerate()
            .map(|(pos, r)| (r.id, pos))
            .collect();
        assert_eq!(order.len(), requests.len(), "sweep request ids must be unique");
        let expected = requests.len();
        let mut responses: Vec<Option<CampaignResponse>> = (0..expected).map(|_| None).collect();
        for response in self.submit_sweep(requests) {
            let pos = order[&response.id];
            responses[pos] = Some(response);
        }
        responses
            .into_iter()
            .map(|r| r.expect("every sweep request must produce a response"))
            .collect()
    }

    /// Counters and shared-tier state.
    pub fn stats(&self) -> ServerStats {
        // One snapshot (the runner shares this server's tiers): each
        // `BatchRunner::stats` locks the spine map and walks every resident
        // spine, and the lane counters should come from one instant.
        let batch = self.runner.stats();
        ServerStats {
            workers: self.workers.len(),
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            pool_cache: batch.pool_cache,
            curve_cache: self.curves.stats(),
            predictor_cache: batch.predictor_cache,
            spine_cache: batch.spine_cache,
            resident_pools: self.pools.len(),
            resident_curves: self.curves.len(),
            resident_predictors: self.predictors.len(),
            resident_spines: self.spines.len(),
            spine_queries: batch.spine_queries,
            batched_groups: batch.groups,
            kernel_invocations: batch.kernel_invocations,
            lane_slots: batch.lane_slots,
            lane_jobs: batch.lane_jobs,
            probe_hits: batch.probe_hits,
            probe_misses: batch.probe_misses,
            revocations: self.degradation.revocations.load(Ordering::Relaxed),
            lost_steps: self.degradation.lost_steps.load(Ordering::Relaxed),
            migrations: self.degradation.migrations.load(Ordering::Relaxed),
            queue_capacity: self.queue_capacity as u64,
            queue_depth: self.queue_probe.len() as u64,
            peak_queue_depth: self.queue.peak_depth.load(Ordering::SeqCst),
            rejected: self.queue.rejected.load(Ordering::Relaxed),
            overloaded: self.queue.overloaded.load(Ordering::Relaxed),
            expired: self.queue.expired.load(Ordering::Relaxed),
            drained: self.queue.drained.load(Ordering::Relaxed),
        }
    }

    /// Whether [`CampaignServer::begin_drain`] has closed the intake.
    pub fn is_draining(&self) -> bool {
        self.queue.draining.load(Ordering::SeqCst)
    }

    /// Starts a graceful drain from a shared reference: closes the
    /// intake (later submissions observe [`SubmitError::Draining`] /
    /// an immediately-disconnected stream) while already-queued requests
    /// keep running and streaming their responses. Workers exit once the
    /// queue is empty; [`CampaignServer::shutdown`] (or `Drop`) then
    /// joins them. Idempotent.
    pub fn begin_drain(&self) {
        self.queue.draining.store(true, Ordering::SeqCst);
        drop(self.req_tx.lock().unwrap_or_else(|e| e.into_inner()).take());
    }

    /// Finishes in-flight campaigns, then stops and joins every worker.
    pub fn shutdown(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        self.begin_drain();
        for handle in self.workers.drain(..) {
            // Propagate a worker panic — unless we are already unwinding
            // (Drop during a client panic), where a second panic would
            // abort the process and mask the original error.
            if handle.join().is_err() && !std::thread::panicking() {
                panic!("campaign worker panicked");
            }
        }
    }
}

impl Drop for CampaignServer {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.finish();
        }
    }
}

/// The resident worker body: pull a work item, run it against the shared
/// tiers, stream each response back on the submission's reply channel. A
/// lone request resolves its pool and estimator itself (learned specs go
/// through the trained-predictor tier, so each `(scenario, kind)` trains at
/// most once); a sweep handle claims cohorts of the sweep's [`CohortPlan`],
/// one [`GroupSession`](spottune_core::GroupSession) per group.
///
/// Campaign panics (a malformed wire request — NaN θ, empty grid — hitting
/// a validation assert) are confined to the request: the worker drops that
/// response and lives on to serve the rest of the queue. Letting the
/// worker die instead would strand every queued request holding a reply
/// channel, hanging their clients forever.
fn worker_loop(rx: &Receiver<WorkPayload>, shared: &WorkerShared) {
    while let Ok(item) = rx.recv() {
        match item {
            WorkPayload::Single { request, deadline, reply } => {
                let id = request.id;
                if deadline.is_some_and(|deadline| Instant::now() > deadline) {
                    shared.queue.expired.fetch_add(1, Ordering::Relaxed);
                    let _ = reply.send(WorkOutcome::Expired { id });
                    continue;
                }
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let pool = shared.pools.get(request.scenario);
                    request.run_with_tiers(&pool, &shared.curves, &shared.predictors)
                }));
                match outcome {
                    // A client that dropped its receiver no longer wants
                    // the report; that is not a server error.
                    Ok(report) => {
                        let _ = reply.send(WorkOutcome::Done(Box::new(shared.settle(id, report))));
                    }
                    Err(_) => drop_panicked(id),
                }
            }
            WorkPayload::Sweep(sweep) => {
                let Sweep { requests, plan, reply } = &*sweep;
                plan.claim(&shared.runner, |session, cohort| {
                    // Runs the cohort at `idxs` and streams its reports;
                    // `false` if a campaign panicked (nothing was reported).
                    let mut run = |idxs: &[usize]| {
                        let refs: Vec<&CampaignRequest> =
                            idxs.iter().map(|&i| &requests[i]).collect();
                        let Ok(reports) = std::panic::catch_unwind(
                            std::panic::AssertUnwindSafe(|| session.run_cohort(&refs)),
                        ) else {
                            return false;
                        };
                        for (request, report) in refs.iter().zip(reports) {
                            let _ = reply.send(shared.settle(request.id, report));
                        }
                        true
                    };
                    if run(cohort) {
                        return;
                    }
                    // A panicking campaign aborts its whole cohort before
                    // any report exists. The session re-prepares its scratch
                    // per cohort, so re-running the cohort as cohorts of one
                    // re-confines the panic to the poisoned request and its
                    // cohort-mates still report. (A cohort that already was
                    // one has had its run.)
                    for lone in cohort.chunks(1) {
                        if cohort.len() == 1 || !run(lone) {
                            drop_panicked(requests[lone[0]].id);
                        }
                    }
                });
            }
        }
    }
}

/// Everything a worker thread shares with its siblings: the tier handles
/// it resolves requests through and the server-wide counters it folds
/// results into. Cloning is cheap — every field is a handle.
#[derive(Clone)]
struct WorkerShared {
    runner: BatchRunner,
    pools: PoolCache,
    curves: CurveCache,
    predictors: PredictorCache,
    completed: Arc<AtomicU64>,
    degradation: Arc<DegradationCounters>,
    queue: Arc<QueueCounters>,
}

impl WorkerShared {
    /// Folds one finished campaign into the server counters and wraps its
    /// report for the reply channel.
    fn settle(&self, id: u64, report: spottune_core::HptReport) -> CampaignResponse {
        self.completed.fetch_add(1, Ordering::Relaxed);
        if self.queue.draining.load(Ordering::SeqCst) {
            self.queue.drained.fetch_add(1, Ordering::Relaxed);
        }
        self.degradation.revocations.fetch_add(report.revocations, Ordering::Relaxed);
        self.degradation.lost_steps.fetch_add(report.lost_steps, Ordering::Relaxed);
        self.degradation.migrations.fetch_add(report.migrations, Ordering::Relaxed);
        CampaignResponse { id, report }
    }
}

/// A campaign panicked. Its message has already been printed by the
/// default hook; withholding the response shortens the submission's stream
/// by one, which streaming clients observe as a missing id and `run_sweep`
/// reports by panicking.
fn drop_panicked(id: u64) {
    eprintln!("campaign request {id} panicked; dropping its response");
}

#[cfg(test)]
mod tests {
    use super::*;
    use spottune_core::{Approach, SingleSpotKind};
    use spottune_market::{EstimatorSpec, MarketScenario};
    use spottune_mlsim::{Algorithm, Workload};

    fn tiny_workload() -> Workload {
        let base = Workload::benchmark(Algorithm::LoR);
        Workload::custom(Algorithm::LoR, 25, base.hp_grid()[..2].to_vec())
    }

    fn request(id: u64) -> CampaignRequest {
        CampaignRequest {
            id,
            approach: Approach::SingleSpot(SingleSpotKind::Cheapest),
            workload: tiny_workload(),
            scenario: MarketScenario::from_days(1, 5),
            seed: id,
            estimator: EstimatorSpec::default(),
        }
    }

    #[test]
    fn single_submission_round_trips() {
        let server = CampaignServer::start(ServerConfig::with_workers(2));
        let rx = server.submit_sweep(vec![request(7)]);
        let response = rx.recv().expect("one response");
        assert_eq!(response.id, 7);
        assert!(response.report.cost > 0.0);
        // Stream disconnects after the single response.
        assert!(rx.recv().is_err());
        let stats = server.stats();
        assert_eq!((stats.submitted, stats.completed), (1, 1));
        server.shutdown();
    }

    #[test]
    fn sweep_streams_every_response_and_shares_pools() {
        let server = CampaignServer::start(ServerConfig::with_workers(4));
        let requests: Vec<CampaignRequest> = (0..12).map(request).collect();
        let mut ids: Vec<u64> = server.submit_sweep(requests).iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..12).collect::<Vec<_>>());
        let stats = server.stats();
        // One scenario, twelve campaigns: one pool build, one pool lookup
        // per session the sweep opened.
        assert_eq!(stats.resident_pools, 1);
        assert_eq!(stats.pool_cache.misses, 1);
        assert_eq!(stats.pool_cache.lookups(), stats.batched_groups);
        assert_eq!(stats.workers, 4);
        server.shutdown();
    }

    #[test]
    fn run_sweep_restores_request_order() {
        let server = CampaignServer::start(ServerConfig::with_workers(3));
        // Scrambled, non-contiguous ids.
        let requests: Vec<CampaignRequest> = [5u64, 1, 9, 3].into_iter().map(request).collect();
        let responses = server.run_sweep(requests);
        let ids: Vec<u64> = responses.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![5, 1, 9, 3]);
        server.shutdown();
    }

    #[test]
    fn dropped_client_does_not_wedge_the_server() {
        let server = CampaignServer::start(ServerConfig::with_workers(1));
        drop(server.submit_sweep(vec![request(1)]));
        // The next submission still answers.
        let response = server.submit_sweep(vec![request(2)]).recv().expect("second response");
        assert_eq!(response.id, 2);
        server.shutdown();
    }

    #[test]
    #[should_panic(expected = "ids must be unique")]
    fn duplicate_sweep_ids_rejected() {
        let server = CampaignServer::start(ServerConfig::with_workers(1));
        let _ = server.run_sweep(vec![request(1), request(1)]);
    }

    #[test]
    fn predictor_tier_trains_once_for_a_shared_scenario() {
        let server = CampaignServer::start(ServerConfig::with_workers(2));
        // Two sweeps of learned-spec requests over the same scenario: one
        // training, then a tier hit for the second sweep. (Logistic is the
        // cheap family; the LSTM kinds go through exactly the same tier
        // path.)
        let mut requests: Vec<CampaignRequest> = (0..2).map(request).collect();
        for req in &mut requests {
            req.approach = Approach::SpotTune { theta: 0.7 };
            req.estimator = EstimatorSpec::Logistic;
        }
        assert_eq!(server.run_sweep(requests.clone()).len(), 2);
        assert_eq!(server.run_sweep(requests).len(), 2);
        let stats = server.stats();
        assert_eq!(stats.predictor_cache.misses, 1, "{:?}", stats.predictor_cache);
        assert!(stats.predictor_cache.hits > 0, "{:?}", stats.predictor_cache);
        assert_eq!(stats.resident_predictors, 1);
        // Oracle campaigns never touch the tier.
        server.run_sweep(vec![request(9)]);
        assert_eq!(server.stats().predictor_cache.lookups(), 2);
        server.shutdown();
    }

    /// The lone-request arm's learned branch: the same resolution function
    /// as `run_serial`, over the server's predictor tier.
    #[test]
    fn lone_learned_requests_match_serial_and_train_once() {
        let server = CampaignServer::start(ServerConfig::with_workers(1));
        let mut requests: Vec<CampaignRequest> = (0..2).map(request).collect();
        for req in &mut requests {
            req.approach = Approach::SpotTune { theta: 0.7 };
            req.estimator = EstimatorSpec::Logistic;
        }
        let pool = requests[0].scenario.build();
        for req in &requests {
            let rx = server.try_submit(req.clone(), None).expect("queued");
            let want = req.run_serial(&pool, &CurveCache::new());
            match rx.recv() {
                Ok(WorkOutcome::Done(response)) => assert_eq!(response.report, want),
                other => panic!("expected a response, got {other:?}"),
            }
        }
        let stats = server.stats();
        assert_eq!(stats.predictor_cache.misses, 1, "{:?}", stats.predictor_cache);
        assert_eq!(stats.predictor_cache.hits, 1, "{:?}", stats.predictor_cache);
        assert_eq!(stats.batched_groups, 0, "lone requests open no session");
        server.shutdown();
    }

    /// The lone arm probes through the resident set's memo: a repeat of a
    /// learned request finds every probe context the first one built.
    #[test]
    fn a_repeated_lone_request_hits_the_probe_memo() {
        let server = CampaignServer::start(ServerConfig::with_workers(1));
        let req = CampaignRequest {
            approach: Approach::SpotTune { theta: 0.7 },
            estimator: EstimatorSpec::Logistic,
            ..request(3)
        };
        let want = req.run_serial(&req.scenario.build(), &CurveCache::new());
        let run = || match server.try_submit(req.clone(), None).expect("queued").recv() {
            Ok(WorkOutcome::Done(response)) => {
                assert_eq!(response.report, want);
                server.stats()
            }
            other => panic!("expected a response, got {other:?}"),
        };
        let first = run();
        assert!(first.probe_misses > 0, "{first:?}");
        let second = run();
        assert_eq!(second.probe_misses, first.probe_misses, "{second:?}");
        assert!(second.probe_hits > first.probe_hits, "{second:?}");
        assert_eq!(second.batched_groups, 0, "lone requests open no session");
        server.shutdown();
    }

    #[test]
    fn bounded_predictor_tier_evicts_across_a_scenario_sweep() {
        let server = CampaignServer::start(
            ServerConfig::with_workers(1).with_predictor_capacity(1),
        );
        // Three distinct scenarios through a capacity-1 tier: every
        // training displaces the previous resident.
        let mut requests: Vec<CampaignRequest> = (0..3).map(request).collect();
        for (i, req) in requests.iter_mut().enumerate() {
            req.approach = Approach::SpotTune { theta: 0.7 };
            req.estimator = EstimatorSpec::Logistic;
            req.scenario = MarketScenario::from_days(1, 100 + i as u64);
        }
        let responses = server.run_sweep(requests.clone());
        assert_eq!(responses.len(), 3);
        // Eviction recomputes, never corrupts: every report is the serial
        // reference's.
        for (req, response) in requests.iter().zip(&responses) {
            assert_eq!(response.report, req.run_serial(&req.scenario.build(), &CurveCache::new()));
        }
        let stats = server.stats();
        assert_eq!(stats.predictor_cache.misses, 3, "{:?}", stats.predictor_cache);
        assert_eq!(stats.predictor_cache.evictions, 2, "{:?}", stats.predictor_cache);
        assert_eq!(stats.resident_predictors, 1);
        server.shutdown();
    }

    #[test]
    fn stats_sum_degradation_counters_over_completed_reports() {
        let server = CampaignServer::start(ServerConfig::with_workers(2));
        // Long enough campaigns on spot capacity to see real revocations.
        let mut requests: Vec<CampaignRequest> = (0..6).map(request).collect();
        for req in &mut requests {
            req.approach = Approach::SpotTune { theta: 0.7 };
            req.workload = Workload::custom(
                Algorithm::LoR,
                60,
                Workload::benchmark(Algorithm::LoR).hp_grid()[..2].to_vec(),
            );
        }
        let responses = server.run_sweep(requests);
        let expected: u64 = responses.iter().map(|r| r.report.revocations).sum();
        let stats = server.stats();
        assert_eq!(stats.revocations, expected, "server counter must equal the report sum");
        // Default hooks never roll back or batch-migrate (the fault-free
        // bit-identity invariant, observed at the server boundary).
        assert_eq!((stats.lost_steps, stats.migrations), (0, 0));
        server.shutdown();
    }

    #[test]
    fn malformed_request_is_rejected_before_queueing() {
        let server = CampaignServer::start(ServerConfig::with_workers(1));
        // NaN θ straight off the wire: rejected with its reason, nothing
        // queued, nothing panicked.
        let mut poisoned = request(0);
        poisoned.approach = Approach::SpotTune { theta: f64::NAN };
        let err =
            server.submit_sweep_checked(vec![poisoned]).err().expect("NaN theta must be rejected");
        assert!(err.contains("theta"), "{err}");
        // A zero-length scenario is just as undecodable-into-work.
        let mut empty = request(1);
        empty.scenario = MarketScenario::from_days(0, 1);
        assert!(server.submit_sweep_checked(vec![empty]).is_err());
        // One bad request rejects the whole sweep before queueing any of it.
        let mut bad = request(3);
        bad.approach = Approach::SpotTune { theta: -0.5 };
        assert!(server.submit_sweep_checked(vec![request(2), bad]).is_err());
        assert_eq!(server.stats().submitted, 0, "rejected requests are never queued");
        // The same server still serves healthy submissions.
        let rx = server.submit_sweep_checked(vec![request(4)]).expect("valid request passes");
        assert_eq!(rx.recv().expect("one response").id, 4);
        server.shutdown();
    }

    #[test]
    fn try_submit_overload_is_typed_and_depth_stays_bounded() {
        let server = CampaignServer::start(
            ServerConfig::with_workers(1).with_queue_capacity(1),
        );
        let mut receivers = Vec::new();
        let mut saw_overload = false;
        // Submissions are orders of magnitude faster than campaigns: a
        // single worker behind a capacity-1 queue must refuse one of the
        // first few hundred.
        for i in 0..500 {
            match server.try_submit(request(i), None) {
                Ok(rx) => receivers.push(rx),
                Err(SubmitError::Overloaded { capacity }) => {
                    assert_eq!(capacity, 1);
                    saw_overload = true;
                    break;
                }
                Err(other) => panic!("unexpected submit error: {other:?}"),
            }
        }
        assert!(saw_overload, "bounded queue never reported Overloaded");
        // Every accepted request still answers.
        for rx in receivers {
            assert!(matches!(rx.recv(), Ok(WorkOutcome::Done(_))));
        }
        let stats = server.stats();
        assert_eq!(stats.queue_capacity, 1);
        assert!(stats.overloaded >= 1, "{stats:?}");
        assert!(
            stats.peak_queue_depth <= stats.queue_capacity,
            "queue depth {} exceeded capacity {}",
            stats.peak_queue_depth,
            stats.queue_capacity
        );
        server.shutdown();
    }

    #[test]
    fn expired_deadline_cancels_queued_work() {
        let server = CampaignServer::start(ServerConfig::with_workers(1));
        // A deadline already in the past expires at dequeue no matter how
        // fast the worker is; the campaign never runs.
        let already_late = Instant::now() - std::time::Duration::from_millis(1);
        let rx = server.try_submit(request(3), Some(already_late)).expect("queued");
        assert_eq!(rx.recv(), Ok(WorkOutcome::Expired { id: 3 }));
        assert!(rx.recv().is_err(), "outcome stream closes after the verdict");
        let stats = server.stats();
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.completed, 0, "expired work must not run");
        // A generous deadline passes through untouched.
        let soon = Instant::now() + std::time::Duration::from_secs(600);
        let rx = server.try_submit(request(4), Some(soon)).expect("queued");
        assert!(matches!(rx.recv(), Ok(WorkOutcome::Done(r)) if r.id == 4));
        server.shutdown();
    }

    #[test]
    fn invalid_try_submit_is_rejected_with_reason() {
        let server = CampaignServer::start(ServerConfig::with_workers(1));
        let mut poisoned = request(0);
        poisoned.approach = Approach::SpotTune { theta: f64::NAN };
        match server.try_submit(poisoned, None).err() {
            Some(SubmitError::Rejected(reason)) => assert!(reason.contains("theta"), "{reason}"),
            other => panic!("expected Rejected, got {other:?}"),
        }
        assert_eq!(server.stats().rejected, 1);
        server.shutdown();
    }

    #[test]
    fn begin_drain_refuses_new_work_but_flushes_queued() {
        let server = CampaignServer::start(ServerConfig::with_workers(1));
        let in_flight = server.submit_sweep((0..3).map(request).collect());
        server.begin_drain();
        assert!(server.is_draining());
        // New work is refused with the typed error...
        assert!(matches!(server.try_submit(request(9), None), Err(SubmitError::Draining)));
        // ...and the legacy path disconnects immediately instead of
        // hanging the client.
        let refused = server.submit_sweep(vec![request(10)]);
        assert!(refused.recv().is_err(), "draining submit_sweep must disconnect, not hang");
        // Work queued before the drain still streams every response.
        let mut ids: Vec<u64> = in_flight.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
        let stats = server.stats();
        assert_eq!(stats.completed, 3);
        assert!(stats.drained <= 3, "{stats:?}");
        assert_eq!(stats.queue_depth, 0);
        server.shutdown();
    }

    #[test]
    fn panicking_campaign_does_not_strand_queued_requests() {
        let server = CampaignServer::start(ServerConfig::with_workers(1));
        // One scenario, 44 requests on one worker: one plan of five full
        // cohorts and a remainder of four (ids 40..44), all claimed through
        // one session. NaN θ fails SpotTuneConfig validation inside the
        // campaign and aborts the full cohort 32..40 mid-staging; its seven
        // cohort-mates re-run as cohorts of one and the remainder cohort
        // follows on the same session.
        let mut requests: Vec<CampaignRequest> = (0..44).map(request).collect();
        for req in requests.iter_mut().step_by(2) {
            req.approach = Approach::SpotTune { theta: 0.7 };
        }
        requests[35].approach = Approach::SpotTune { theta: f64::NAN };
        let mut responses: Vec<CampaignResponse> =
            server.submit_sweep(requests.clone()).iter().collect();
        responses.sort_unstable_by_key(|r| r.id);
        // The stream terminates (no hang), one response short, and every
        // survivor carries the bits of the serial reference.
        requests.remove(35);
        assert_eq!(responses.len(), 43);
        let pool = requests[0].scenario.build();
        for (request, response) in requests.iter().zip(&responses) {
            assert_eq!(request.id, response.id);
            assert_eq!(response.report, request.run_serial(&pool, &CurveCache::new()));
        }
        let stats = server.stats();
        assert_eq!((stats.completed, stats.batched_groups), (43, 1), "{stats:?}");
        server.shutdown();
    }
}
