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
//!   resident worker threads. Requests flow through one *fair queue* — a
//!   FIFO lane per submitter (a TCP connection each; in-process callers
//!   share lane 0), bounded in total by [`ServerConfig::queue_capacity`]
//!   (`0`, the default, is unbounded) — whose lanes idle workers serve
//!   round robin, so coarse campaigns shard evenly without a scheduler.
//!   A connection's reader may run a request in a parked worker's turn
//!   (see *Execution*); at most `workers` campaigns run at once.
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
//!   only sweep path. A lone request runs the scalar engine directly — the
//!   same code as the `run_serial` reference — in one function, which a
//!   worker calls for a queued request and a connection's reader for one
//!   it runs in a parked worker's lent turn, saving the hand-off's wake-up
//!   ([`ServerStats::reader_runs`]); [`CampaignServer::try_submit`] queues.
//! * **Streaming** — every submission carries its own reply path (a
//!   channel; on the wire, the connection, written by the worker itself);
//!   [`CampaignResponse`]s stream back in *completion* order, tagged with
//!   the request id so clients needing submission order can reorder. A
//!   reply channel disconnects right after the submission's last response.
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

use spottune_core::{BatchRunner, CampaignRequest, CampaignResponse, CohortPlan};
use spottune_market::{CacheStats, PoolCache, SpineCache};
use spottune_mlsim::CurveCache;
use spottune_revpred::PredictorCache;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self as channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

pub mod net;
mod queue;

use queue::{FairQueue, PushError};

/// Campaign-server configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker-pool size; `0` (the default) means one worker per available
    /// core. It is also the most campaigns that run at once: a connection
    /// reader that runs a request does so in a parked worker's turn.
    /// Campaigns are single-threaded and CPU-bound, so more workers than
    /// cores only adds contention on the shared tiers.
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
    /// Capacity bound of the request queue, summed over its lanes; `0`
    /// (the default) is unbounded. With a bound, blocking submissions
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
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerStats {
    /// Worker-pool size; `0` once the pool has been joined.
    pub workers: usize,
    /// Requests accepted so far.
    pub submitted: u64,
    /// Lone requests run on their connection's reader thread in a parked
    /// worker's turn instead of through the queue (counted as they start).
    pub reader_runs: u64,
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
            reader_runs,
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
            ("reader_runs", reader_runs),
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
    /// The bounded request queue, or the submitter's lane of it, is full.
    Overloaded {
        /// The bound that was hit: the queue's, or the lane's.
        capacity: usize,
        /// Whether the bound was the submitter's lane rather than the
        /// whole queue (in-process callers' lane 0 is unbounded).
        lane: bool,
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
            SubmitError::Overloaded { capacity, lane } => {
                let bound = if *lane { "connection lane" } else { "request queue" };
                write!(f, "{bound} at capacity ({capacity}); retry after backoff")
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

/// Where a lone request's verdict goes: the worker that ran (or expired)
/// it calls exactly one method, once. A refused push drops the sink unused.
pub(crate) trait ReplySink: Send {
    /// Delivers the verdict.
    fn answer(self: Box<Self>, outcome: WorkOutcome);
    /// The campaign panicked: there is no verdict.
    fn abort(self: Box<Self>);
}

/// [`CampaignServer::try_submit`]'s sink; an abort disconnects it.
impl ReplySink for Sender<WorkOutcome> {
    fn answer(self: Box<Self>, outcome: WorkOutcome) {
        // A caller that dropped its receiver no longer wants the verdict.
        let _ = self.send(outcome);
    }

    fn abort(self: Box<Self>) {}
}

/// What one queue slot carries. Which variant is built follows from what
/// the server observes — a lone deadline-aware submission or a sweep —
/// never from an option, and the ledger measures both sides: the `wire_*`
/// workloads ride `Single`; `Sweep` runs the `run_cohort` the `sweep_*`
/// workloads time, and `server.inproc_sweep_per_s` times `Sweep` itself.
enum WorkPayload {
    /// One campaign from [`CampaignServer::try_submit`] or a connection,
    /// run by [`CampaignRequest::run_with_tiers`] — the function
    /// [`CampaignRequest::run_serial`] is, over this server's predictor
    /// tier — so the suites' reference is exercised by production traffic.
    /// A connection's reader that runs a request in a lent turn skips the
    /// item and calls the same `serve_single` a worker calls for it.
    ///
    /// Not a cohort of one, on measurement: a resident
    /// [`GroupSession`](spottune_core::GroupSession) per warmed scenario
    /// moved `wire_closed` `peak_rss_mb` 12.30 → 19.44 MB (bound 15 %), one
    /// per worker 12.7 → 20.1–21.8 MB, for no latency gain; the probe memo
    /// a session would add lives in the trained set. Retire this variant
    /// with ROADMAP's "Bound the pool and spine tiers" item.
    Single {
        request: CampaignRequest,
        /// Checked at dequeue: expired work is cancelled before it starts.
        deadline: Option<Instant>,
        reply: Box<dyn ReplySink>,
    },
    /// One of at most `workers` handles on a sweep (lane 0); the worker
    /// that dequeues one claims the sweep's [`CohortPlan`] until exhausted.
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
    reader_runs: AtomicU64,
    rejected: AtomicU64,
    overloaded: AtomicU64,
    expired: AtomicU64,
    drained: AtomicU64,
    /// Set by [`CampaignServer::begin_drain`]; completions afterwards
    /// count as `drained`.
    draining: AtomicBool,
}

/// The long-running sharded campaign service.
///
/// Dropping the server closes the request queue and joins every worker;
/// queued and in-flight campaigns finish first
/// ([`CampaignServer::shutdown`] does the same explicitly).
pub struct CampaignServer {
    /// The fair queue the workers pop; closed by
    /// [`CampaignServer::begin_drain`].
    requests: Arc<FairQueue<WorkPayload>>,
    queue_capacity: usize,
    /// Behind a mutex so the TCP front-end can join the pool from `&self`;
    /// empty once joined.
    workers: Mutex<Vec<JoinHandle<()>>>,
    spines: SpineCache,
    submitted: AtomicU64,
    /// The workers' tiers and counters, for the stats and for a reader
    /// that runs a request in a lent turn.
    shared: WorkerShared,
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
        let requests = Arc::new(FairQueue::new(config.queue_capacity));
        let spines = SpineCache::new();
        let runner = BatchRunner::new().with_tiers(
            pools.clone(),
            spines.clone(),
            curves.clone(),
            predictors.clone(),
        );
        let shared = WorkerShared {
            runner,
            pools,
            curves,
            predictors,
            completed: Arc::default(),
            degradation: Arc::default(),
            queue: Arc::default(),
        };
        let handles = (0..workers)
            .map(|i| {
                let requests = Arc::clone(&requests);
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("campaign-worker-{i}"))
                    .spawn(move || worker_loop(&requests, &shared))
                    .expect("spawn campaign worker")
            })
            .collect();
        CampaignServer {
            requests,
            queue_capacity: config.queue_capacity,
            workers: Mutex::new(handles),
            spines,
            submitted: AtomicU64::new(0),
            shared,
        }
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
        let (reply_tx, reply_rx) = channel::channel();
        // A queue closed by a drain or teardown must not panic the client:
        // the stream disconnects short, as for a panicked campaign.
        if self.is_draining() {
            return reply_rx;
        }
        self.submitted.fetch_add(requests.len() as u64, Ordering::Relaxed);
        // One plan — the cohorts `BatchRunner::run_many` stages over the
        // same requests — claimed by as many workers as it has cohorts.
        let plan = CohortPlan::new(&requests);
        let claimers = lock_clean(&self.workers).len().min(plan.len());
        let sweep = Arc::new(Sweep { requests, plan, reply: reply_tx });
        for _ in 0..claimers {
            let handle = WorkPayload::Sweep(Arc::clone(&sweep));
            if self.requests.push(0, usize::MAX, handle, true).is_err() {
                break;
            }
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
    /// picked the request up (the campaign is cancelled, never run). The
    /// campaign always runs on a worker, never on the caller's thread.
    pub fn try_submit(
        &self,
        request: CampaignRequest,
        deadline: Option<Instant>,
    ) -> Result<Receiver<WorkOutcome>, SubmitError> {
        let (reply_tx, reply_rx) = channel::channel();
        self.try_submit_to(0, usize::MAX, request, deadline, Box::new(reply_tx), false)?;
        Ok(reply_rx)
    }

    /// [`CampaignServer::try_submit`] into `lane` of the fair queue, which
    /// may hold at most `lane_cap` requests, with the verdict going to
    /// `reply`. A refused request drops `reply` unused. With `run_here`,
    /// an empty queue with a parked worker lends that worker's turn and
    /// the request runs on the calling thread before this returns.
    pub(crate) fn try_submit_to(
        &self,
        lane: u64,
        lane_cap: usize,
        request: CampaignRequest,
        deadline: Option<Instant>,
        reply: Box<dyn ReplySink>,
        run_here: bool,
    ) -> Result<(), SubmitError> {
        let queue = &self.shared.queue;
        if let Err(reason) = request.validate() {
            queue.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Rejected(reason));
        }
        if let Some(_turn) = run_here.then(|| self.requests.lend()).flatten() {
            self.submitted.fetch_add(1, Ordering::Relaxed);
            queue.reader_runs.fetch_add(1, Ordering::Relaxed);
            serve_single(request, deadline, reply, &self.shared);
            return Ok(());
        }
        let item = WorkPayload::Single { request, deadline, reply };
        let refusal = match self.requests.push(lane, lane_cap, item, false) {
            Ok(()) => {
                self.submitted.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
            Err(PushError::Closed) => return Err(SubmitError::Draining),
            Err(PushError::Full) => {
                SubmitError::Overloaded { capacity: self.queue_capacity, lane: false }
            }
            Err(PushError::LaneFull) => SubmitError::Overloaded { capacity: lane_cap, lane: true },
        };
        queue.overloaded.fetch_add(1, Ordering::Relaxed);
        Err(refusal)
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
                self.shared.queue.rejected.fetch_add(1, Ordering::Relaxed);
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
        let WorkerShared { runner, pools, curves, predictors, completed, degradation, queue } =
            &self.shared;
        let batch = runner.stats();
        let (queue_depth, peak_queue_depth) = self.requests.depths();
        ServerStats {
            workers: lock_clean(&self.workers).len(),
            submitted: self.submitted.load(Ordering::Relaxed),
            reader_runs: queue.reader_runs.load(Ordering::Relaxed),
            completed: completed.load(Ordering::Relaxed),
            pool_cache: batch.pool_cache,
            curve_cache: curves.stats(),
            predictor_cache: batch.predictor_cache,
            spine_cache: batch.spine_cache,
            resident_pools: pools.len(),
            resident_curves: curves.len(),
            resident_predictors: predictors.len(),
            resident_spines: self.spines.len(),
            spine_queries: batch.spine_queries,
            batched_groups: batch.groups,
            kernel_invocations: batch.kernel_invocations,
            lane_slots: batch.lane_slots,
            lane_jobs: batch.lane_jobs,
            probe_hits: batch.probe_hits,
            probe_misses: batch.probe_misses,
            revocations: degradation.revocations.load(Ordering::Relaxed),
            lost_steps: degradation.lost_steps.load(Ordering::Relaxed),
            migrations: degradation.migrations.load(Ordering::Relaxed),
            queue_capacity: self.queue_capacity as u64,
            queue_depth: queue_depth as u64,
            peak_queue_depth: peak_queue_depth as u64,
            rejected: queue.rejected.load(Ordering::Relaxed),
            overloaded: queue.overloaded.load(Ordering::Relaxed),
            expired: queue.expired.load(Ordering::Relaxed),
            drained: queue.drained.load(Ordering::Relaxed),
        }
    }

    /// Whether [`CampaignServer::begin_drain`] has closed the intake.
    pub fn is_draining(&self) -> bool {
        self.shared.queue.draining.load(Ordering::SeqCst)
    }

    /// Starts a graceful drain from a shared reference: closes the
    /// queue (later submissions observe [`SubmitError::Draining`] /
    /// an immediately-disconnected stream) while already-queued requests
    /// keep running and streaming their responses. Workers exit once the
    /// queue is empty; [`CampaignServer::shutdown`] (or `Drop`) then
    /// joins them. Idempotent.
    pub fn begin_drain(&self) {
        self.shared.queue.draining.store(true, Ordering::SeqCst);
        self.requests.close();
    }

    /// Finishes in-flight campaigns, then stops and joins every worker.
    pub fn shutdown(self) {
        self.finish();
    }

    /// Drains, then joins every worker: on return every queued request
    /// has run and delivered its verdict. Idempotent.
    pub(crate) fn finish(&self) {
        self.begin_drain();
        let workers: Vec<JoinHandle<()>> = lock_clean(&self.workers).drain(..).collect();
        for handle in workers {
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
        self.finish();
    }
}

/// The resident worker body: pop a work item, run it against the shared
/// tiers, deliver each response on the submission's reply path. A
/// lone request resolves its pool and estimator itself (learned specs go
/// through the trained-predictor tier, so each `(scenario, kind)` trains at
/// most once); a sweep handle claims cohorts of the sweep's [`CohortPlan`],
/// one [`GroupSession`](spottune_core::GroupSession) per group.
///
/// Campaign panics (a malformed wire request — NaN θ, empty grid — hitting
/// a validation assert) are confined to the request: the worker drops that
/// response (aborting a lone request's reply) and lives on to serve the
/// rest of the queue. Letting the worker die instead would strand every
/// queued request holding a reply path, hanging their clients forever.
fn worker_loop(requests: &FairQueue<WorkPayload>, shared: &WorkerShared) {
    while let Some(item) = requests.pop() {
        match item {
            WorkPayload::Single { request, deadline, reply } => {
                serve_single(request, deadline, reply, shared);
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

/// Runs one lone request — or cancels it if its `deadline` has passed —
/// and delivers the verdict to `reply`: the one body behind a worker's
/// [`WorkPayload::Single`] and a reader's lent turn.
fn serve_single(
    request: CampaignRequest,
    deadline: Option<Instant>,
    reply: Box<dyn ReplySink>,
    shared: &WorkerShared,
) {
    let id = request.id;
    if deadline.is_some_and(|deadline| Instant::now() > deadline) {
        shared.queue.expired.fetch_add(1, Ordering::Relaxed);
        return reply.answer(WorkOutcome::Expired { id });
    }
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let pool = shared.pools.get(request.scenario);
        request.run_with_tiers(&pool, &shared.curves, &shared.predictors)
    }));
    match outcome {
        Ok(report) => reply.answer(WorkOutcome::Done(Box::new(shared.settle(id, report)))),
        Err(_) => {
            drop_panicked(id);
            reply.abort();
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

/// Mutex lock that shrugs off poisoning: no holder of the server's locks
/// panics mid-update (P1 forbids panicking here).
pub(crate) fn lock_clean<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
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
        let err = server.submit_sweep_checked(vec![poisoned]).expect_err("NaN theta must be rejected");
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
                Err(SubmitError::Overloaded { capacity, lane }) => {
                    assert_eq!((capacity, lane), (1, false));
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

    /// A full lane is refused as the lane, not as the queue, so the wire's
    /// `overloaded` frame names the bound that was hit.
    #[test]
    fn a_full_lane_is_refused_as_the_lane() {
        let server = CampaignServer::start(ServerConfig::with_workers(1));
        let mut receivers = Vec::new();
        let refusal = (0..500).find_map(|i| {
            let (tx, rx) = channel::channel();
            receivers.push(rx);
            server.try_submit_to(7, 1, request(i), None, Box::new(tx), false).err()
        });
        let refusal = refusal.expect("a one-request lane never filled");
        assert_eq!(refusal, SubmitError::Overloaded { capacity: 1, lane: true });
        assert_eq!(
            refusal.to_string(),
            "connection lane at capacity (1); retry after backoff"
        );
        assert_eq!(
            SubmitError::Overloaded { capacity: 2, lane: false }.to_string(),
            "request queue at capacity (2); retry after backoff"
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
