//! The three in-process sweep workloads: `BatchRunner::run_many` over
//! seeded request batches, timed from outside, every report digested
//! and checked.
//!
//! A run cycles a fixed list of batches. `sweep_small` and `sweep_paper`
//! give every batch its own market scenario (one scenario = one group =
//! one thread per `run_many` call) and rotate scenarios between batches:
//! batch time differs by up to 2.7x from market to market, so a single
//! market would make the figures a property of the seed. `sweep_distinct`
//! runs the same many-scenario batch every time over fresh pool, spine
//! and predictor tiers, so nothing amortizes and every batch is the same
//! work.
//!
//! Figures are the better quartile over segments of whole cycles (see
//! [`crate::stats::summarize`]).

use crate::digest::{combine, report_digest, CloudSums};
use crate::metrics::MetricSet;
use crate::mix::{self, Mix, Shape};
use crate::stats::{median, summarize, Segment};
use crate::sys;
use crate::trace::{self, Span, SpanId, Tracer};
use crate::Outcome;
use spottune_core::{BatchRunner, BatchStats, CampaignRequest, HptReport, COHORT_WIDTH};
use spottune_market::{CacheStats, MarketScenario, PoolCache, SpineCache};
use spottune_mlsim::CurveCache;
use spottune_revpred::{PredictorCache, PredictorKind};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Small,
    Paper,
    Distinct,
}

impl Kind {
    pub fn from_name(name: &str) -> Option<Kind> {
        match name {
            "sweep_small" => Some(Kind::Small),
            "sweep_paper" => Some(Kind::Paper),
            "sweep_distinct" => Some(Kind::Distinct),
            _ => None,
        }
    }

    /// Batches per segment: whole cycles, about 1.5 s of work.
    fn segment_batches(self) -> usize {
        match self {
            Kind::Small => SMALL_SCENARIOS as usize,
            Kind::Paper => 2 * PAPER_SCENARIOS as usize,
            Kind::Distinct => 8,
        }
    }
}

// Scenario families (see `mix::scenario`): one per use, so no two
// workloads or probes ever share a market.
const FAMILY_SMALL: u64 = 10;
const FAMILY_PAPER: u64 = 11;
const FAMILY_WARM: u64 = 12;
const FAMILY_DISTINCT: u64 = 13;

/// Scenarios `sweep_small` rotates through; 1 024 campaigns (16 balanced
/// blocks of the 64 shapes) per batch, ~25 ms.
const SMALL_SCENARIOS: u64 = 64;
const SMALL_BATCH: usize = 1_024;
/// 12-day scenarios `sweep_paper` rotates through; 40 campaigns (one
/// block of the 40 shapes) per batch, ~45 ms.
const PAPER_SCENARIOS: u64 = 16;
const PAPER_BATCH: usize = 40;
/// `sweep_distinct`: scenarios in its one batch, campaigns per scenario.
const DISTINCT_SCENARIOS: u64 = 48;
const DISTINCT_PER_SCENARIO: usize = 8;

/// Handles to the four shared tiers a `BatchRunner` runs over.
#[derive(Clone, Default)]
pub struct Tiers {
    pub pools: PoolCache,
    pub spines: SpineCache,
    pub curves: CurveCache,
    pub predictors: PredictorCache,
}

impl Tiers {
    pub fn runner(&self) -> BatchRunner {
        BatchRunner::new().with_tiers(
            self.pools.clone(),
            self.spines.clone(),
            self.curves.clone(),
            self.predictors.clone(),
        )
    }

    /// Cold market and predictor tiers over the same (warm) curve tier.
    fn cold_markets(&self) -> Tiers {
        Tiers {
            curves: self.curves.clone(),
            ..Tiers::default()
        }
    }
}

/// The seeded inputs of one sweep workload.
pub struct Plan {
    /// The cycle: batch `b` of a run is `batches[b % batches.len()]`.
    pub batches: Vec<Vec<CampaignRequest>>,
    /// Short request lists that touch every tier entry the timed batches
    /// will hit: every shape once (the curve tier is keyed by workload ×
    /// master seed, not by market), then one policy × estimator cycle per
    /// further scenario (pool, spine, trained predictor).
    warm: Vec<Vec<CampaignRequest>>,
}

fn one_per_shape(shapes: &[Shape], scenario: MarketScenario) -> Vec<CampaignRequest> {
    shapes
        .iter()
        .enumerate()
        .map(|(i, s)| s.request(i as u64, scenario))
        .collect()
}

pub fn plan(kind: Kind, seed: u64) -> Plan {
    match kind {
        Kind::Small | Kind::Paper => {
            let (mix, days, family, scenarios, len) = match kind {
                Kind::Small => (Mix::Small, 2, FAMILY_SMALL, SMALL_SCENARIOS, SMALL_BATCH),
                _ => (Mix::Paper, 12, FAMILY_PAPER, PAPER_SCENARIOS, PAPER_BATCH),
            };
            let shapes = mix::shapes(mix, seed);
            let markets: Vec<MarketScenario> = (0..scenarios)
                .map(|k| mix::scenario(seed, days, family, k))
                .collect();
            Plan {
                batches: markets
                    .iter()
                    .enumerate()
                    .map(|(k, &m)| mix::scenario_batch(&shapes, seed, k as u64, m, len))
                    .collect(),
                warm: markets
                    .iter()
                    .enumerate()
                    .map(|(k, &m)| one_per_shape(if k == 0 { &shapes } else { &shapes[..4] }, m))
                    .collect(),
            }
        }
        Kind::Distinct => {
            let shapes = mix::shapes(Mix::Small, seed);
            Plan {
                batches: vec![mix::distinct_batch(
                    &shapes,
                    seed,
                    FAMILY_DISTINCT,
                    DISTINCT_SCENARIOS,
                    DISTINCT_PER_SCENARIO,
                )],
                // Only the curve tier is warmed; markets stay cold.
                warm: vec![one_per_shape(
                    &shapes,
                    mix::scenario(seed, 2, FAMILY_WARM, 0),
                )],
            }
        }
    }
}

/// Everything up to the first timed operation: input generation and
/// tier / curve warm-up.
pub fn set_up(kind: Kind, seed: u64) -> (Plan, Tiers) {
    let plan = plan(kind, seed);
    let tiers = Tiers::default();
    let runner = tiers.runner();
    for list in &plan.warm {
        std::hint::black_box(runner.run_many(list));
    }
    (plan, tiers)
}

/// Per-batch reference digests, filled by the first pass over the cycle;
/// every later pass must reproduce them report for report.
pub struct Reference {
    per_batch: Vec<Option<Vec<u64>>>,
    pub cloud: CloudSums,
}

impl Reference {
    pub fn new(cycle: usize) -> Self {
        Reference {
            per_batch: vec![None; cycle],
            cloud: CloudSums::default(),
        }
    }

    /// Checks one batch's reports; returns how many failed. The first
    /// sighting of a batch becomes its reference (and feeds the cloud
    /// sums), provided it has one report per request.
    pub fn check(&mut self, k: usize, requests: usize, reports: &[HptReport]) -> u64 {
        if reports.len() != requests {
            return requests as u64;
        }
        let digests: Vec<u64> = reports.iter().map(report_digest).collect();
        match &self.per_batch[k] {
            Some(want) => want.iter().zip(&digests).filter(|(a, b)| a != b).count() as u64,
            None => {
                for r in reports {
                    self.cloud.add(r);
                }
                self.per_batch[k] = Some(digests);
                0
            }
        }
    }

    /// Digest of one whole cycle, independent of how long the run was.
    pub fn cycle_digest(&self) -> u64 {
        combine(
            self.per_batch
                .iter()
                .map(|b| combine(b.iter().flatten().copied())),
        )
    }
}

/// One timed `run_many` call: its reports, wall seconds and the CPU
/// seconds the whole process used meanwhile.
fn timed_batch(runner: &BatchRunner, requests: &[CampaignRequest]) -> (Vec<HptReport>, f64, f64) {
    let pid = sys::self_pid();
    let cpu0 = sys::cpu_seconds(pid);
    let t0 = Instant::now();
    let reports = runner.run_many(requests);
    let wall_s = t0.elapsed().as_secs_f64();
    (reports, wall_s, sys::cpu_seconds(pid) - cpu0)
}

/// The runner a batch executes on: the warm one, or — for
/// `sweep_distinct` — a fresh one whose market tiers are cold.
fn batch_tiers(kind: Kind, warm: &Tiers) -> Tiers {
    match kind {
        Kind::Distinct => warm.cold_markets(),
        _ => warm.clone(),
    }
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

fn repeated_set_up(kind: Kind, seed: u64) -> (Plan, Tiers, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(set_up(kind, seed));
        times.push(t0.elapsed().as_secs_f64());
    }
    let (plan, tiers) = last.expect("SETUP_REPS > 0");
    (plan, tiers, median(&times))
}

/// Index ranges cutting `batches` timed batches into segments of `per`
/// (whole cycles); a ragged tail joins the last segment.
fn segment_ranges(batches: usize, per: usize) -> Vec<std::ops::Range<usize>> {
    let whole = (batches / per).max(1);
    (0..whole)
        .map(|i| {
            i * per..if i + 1 == whole {
                batches
            } else {
                (i + 1) * per
            }
        })
        .collect()
}

/// The untraced run: end-to-end metrics only.
pub fn run_untraced(kind: Kind, seed: u64, seconds: f64, metrics: &mut MetricSet) -> Outcome {
    let (plan, warm, setup_s) = repeated_set_up(kind, seed);
    let cycle = plan.batches.len();
    let mut reference = Reference::new(cycle);
    let mut walls_s = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let window = Instant::now();
    let mut b = 0usize;
    // Whole cycles only: every segment is the same work, and the digest
    // covers every batch.
    while b == 0 || !b.is_multiple_of(cycle) || window.elapsed().as_secs_f64() < seconds {
        let requests = &plan.batches[b % cycle];
        let (reports, wall_s, _) = timed_batch(&batch_tiers(kind, &warm).runner(), requests);
        walls_s.push(wall_s);
        attempted += requests.len() as u64;
        failed += reference.check(b % cycle, requests.len(), &reports);
        b += 1;
    }
    let batch_len = plan.batches[0].len();
    let ranges = segment_ranges(b, kind.segment_batches());
    let summary = summarize(
        ranges
            .iter()
            .map(|r| Segment {
                completed: (r.len() * batch_len) as f64,
                seconds: walls_s[r.clone()].iter().sum(),
                latencies_ms: walls_s[r.clone()].iter().map(|s| s * 1e3).collect(),
            })
            .collect(),
    );
    let n = b as u64;
    let correct = (attempted - failed) as f64;
    metrics.set("setup_s", setup_s, SETUP_REPS as u64);
    // Failed reports do not count as throughput.
    metrics.set(
        "campaigns_per_s",
        summary.per_s * correct / attempted.max(1) as f64,
        n,
    );
    metrics.set("latency_p50_ms", summary.p50_ms, n);
    metrics.set("latency_p90_ms", summary.p90_ms, n);
    metrics.set("peak_rss_mb", sys::peak_rss_mb(sys::self_pid()), 1);
    let notes = vec![format!(
        "{b} timed run_many batches ({} campaigns each, cycle of {cycle}) in {} segments; a batch \
         is the latency sample; whole-window throughput {:.1}/s",
        batch_len,
        summary.segments,
        correct / walls_s.iter().sum::<f64>()
    )];
    Outcome {
        attempted,
        failed,
        digest: reference.cycle_digest(),
        cloud: reference.cloud,
        notes,
        server_flags: Vec::new(),
    }
}

// ---------------------------------------------------------------------
// Traced pass
// ---------------------------------------------------------------------

fn learned_kinds(requests: &[CampaignRequest], idxs: &[usize]) -> Vec<PredictorKind> {
    let mut kinds: Vec<PredictorKind> = Vec::new();
    for &i in idxs {
        if let Some(kind) = PredictorKind::from_spec(&requests[i].estimator) {
            if !kinds.contains(&kind) {
                kinds.push(kind);
            }
        }
    }
    kinds
}

/// Replays `BatchRunner::run_many`'s own steps over harness-owned tiers
/// with a span around each call into a layer: per scenario group
/// `market.pool_get` → `market.spine_get` → `revpred.predictor_get` (so
/// the cohort's own lookup hits) → `core.session_open` → one
/// `core.run_cohort` per `COHORT_WIDTH` chunk, groups spread over
/// `threads` scoped threads, reports restored to request order.
pub fn replay_batch(
    tracer: &Tracer,
    tiers: &Tiers,
    requests: &[CampaignRequest],
    threads: usize,
    batch_no: u64,
) -> Vec<HptReport> {
    let root = tracer.begin("bench.batch", "bench", None, batch_no);
    let runner = tiers.runner();
    let groups: Vec<(MarketScenario, Vec<usize>)> = tracer.span(
        "bench.group_requests",
        "bench",
        Some(root),
        batch_no,
        || {
            let mut groups: BTreeMap<MarketScenario, Vec<usize>> = BTreeMap::new();
            for (i, request) in requests.iter().enumerate() {
                groups.entry(request.scenario).or_default().push(i);
            }
            groups.into_iter().collect()
        },
    );
    let next = AtomicUsize::new(0);
    let lanes: Vec<Vec<(usize, HptReport)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let lane = tracer.begin("bench.worker", "bench", Some(root), batch_no);
                    let mut out = Vec::new();
                    loop {
                        let g = next.fetch_add(1, Ordering::Relaxed);
                        let Some((scenario, idxs)) = groups.get(g) else {
                            break;
                        };
                        replay_group(
                            tracer, tiers, &runner, requests, *scenario, idxs, lane, batch_no,
                            &mut out,
                        );
                    }
                    tracer.end(lane);
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay lane panicked"))
            .collect()
    });
    let reports = tracer.span("bench.merge", "bench", Some(root), batch_no, || {
        let mut slots: Vec<Option<HptReport>> = Vec::new();
        slots.resize_with(requests.len(), || None);
        for (i, report) in lanes.into_iter().flatten() {
            slots[i] = Some(report);
        }
        slots.into_iter().flatten().collect::<Vec<HptReport>>()
    });
    tracer.end(root);
    reports
}

#[allow(clippy::too_many_arguments)]
fn replay_group(
    tracer: &Tracer,
    tiers: &Tiers,
    runner: &BatchRunner,
    requests: &[CampaignRequest],
    scenario: MarketScenario,
    idxs: &[usize],
    lane: SpanId,
    batch_no: u64,
    out: &mut Vec<(usize, HptReport)>,
) {
    let at = Some(lane);
    let pool = tracer.span("market.pool_get", "market", at, batch_no, || {
        tiers.pools.get(scenario)
    });
    tracer.span("market.spine_get", "market", at, batch_no, || {
        tiers.spines.get(scenario, &pool);
    });
    for kind in learned_kinds(requests, idxs) {
        tracer.span("revpred.predictor_get", "revpred", at, batch_no, || {
            tiers.predictors.get(kind, scenario, &pool);
        });
    }
    let mut session = tracer.span("core.session_open", "core", at, batch_no, || {
        runner.session(scenario)
    });
    for chunk in idxs.chunks(COHORT_WIDTH) {
        let cohort: Vec<&CampaignRequest> = chunk.iter().map(|&i| &requests[i]).collect();
        let reports = tracer.span("core.run_cohort", "core", at, batch_no, || {
            session.run_cohort(&cohort)
        });
        out.extend(chunk.iter().copied().zip(reports));
    }
    tracer.span("core.session_close", "core", at, batch_no, || drop(session));
}

fn add_cache(total: &mut CacheStats, s: CacheStats) {
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
}

fn add_stats(total: &mut BatchStats, s: BatchStats) {
    total.groups += s.groups;
    total.campaigns += s.campaigns;
    add_cache(&mut total.pool_cache, s.pool_cache);
    add_cache(&mut total.spine_cache, s.spine_cache);
    add_cache(&mut total.predictor_cache, s.predictor_cache);
    total.spine_queries += s.spine_queries;
    total.kernel_invocations += s.kernel_invocations;
    total.lane_slots += s.lane_slots;
    total.lane_jobs += s.lane_jobs;
    total.probe_hits += s.probe_hits;
    total.probe_misses += s.probe_misses;
}

/// The fixed-work pass behind every count metric: exactly one cycle of
/// `run_many` over tiers that start cold (per batch on `Distinct`), so
/// the counters repeat exactly from run to run. Also yields the
/// reference digests and the simulated statistics.
pub fn count_pass(
    kind: Kind,
    batches: &[Vec<CampaignRequest>],
    metrics: &mut MetricSet,
) -> Reference {
    let mut reference = Reference::new(batches.len());
    let mut stats = BatchStats::default();
    let mut curve = CacheStats::default();
    let cold = Tiers::default();
    // A runner's campaign and kernel counters are its own, the tier
    // counters belong to the tiers: one runner for the whole cycle unless
    // every batch gets cold tiers, where each batch's runner is summed.
    let shared = cold.runner();
    for (k, requests) in batches.iter().enumerate() {
        let runner = match kind {
            Kind::Distinct => cold.cold_markets().runner(),
            _ => shared.clone(),
        };
        let reports = runner.run_many(requests);
        reference.check(k, requests.len(), &reports);
        if kind == Kind::Distinct {
            add_stats(&mut stats, runner.stats());
        }
    }
    if kind != Kind::Distinct {
        add_stats(&mut stats, shared.stats());
    }
    add_cache(&mut curve, cold.curves.stats());
    let n = stats.campaigns;
    metrics.set("market.pool_hits", stats.pool_cache.hits as f64, n);
    metrics.set("market.pool_misses", stats.pool_cache.misses as f64, n);
    metrics.set("market.spine_hits", stats.spine_cache.hits as f64, n);
    metrics.set("market.spine_misses", stats.spine_cache.misses as f64, n);
    metrics.set("market.spine_queries", stats.spine_queries as f64, n);
    metrics.set(
        "revpred.predictor_hits",
        stats.predictor_cache.hits as f64,
        n,
    );
    metrics.set(
        "revpred.predictor_misses",
        stats.predictor_cache.misses as f64,
        n,
    );
    metrics.set("revpred.probe_hits", stats.probe_hits as f64, n);
    metrics.set("revpred.probe_misses", stats.probe_misses as f64, n);
    let probes = (stats.probe_hits + stats.probe_misses).max(1);
    metrics.set(
        "revpred.probe_hit_ratio",
        stats.probe_hits as f64 / probes as f64,
        probes,
    );
    metrics.set("mlsim.curve_hits", curve.hits as f64, n);
    metrics.set("mlsim.curve_misses", curve.misses as f64, n);
    metrics.set(
        "earlycurve.kernel_invocations",
        stats.kernel_invocations as f64,
        n,
    );
    metrics.set("earlycurve.lane_jobs", stats.lane_jobs as f64, n);
    metrics.set("earlycurve.lane_slots", stats.lane_slots as f64, n);
    metrics.set(
        "earlycurve.lane_occupancy",
        stats.lane_occupancy().unwrap_or(0.0),
        stats.lane_slots,
    );
    metrics.set("cloud.cost_usd_sum", reference.cloud.cost_usd, n);
    metrics.set("cloud.revocations", reference.cloud.revocations as f64, n);
    metrics.set("cloud.migrations", reference.cloud.migrations as f64, n);
    metrics.set("cloud.lost_steps", reference.cloud.lost_steps as f64, n);
    // 48 bits survive the trip through a JSON number exactly.
    metrics.set(
        "core.report_digest",
        (reference.cycle_digest() & 0xffff_ffff_ffff) as f64,
        n,
    );
    reference
}

fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

/// Folds the sweep replay's spans (`bench.batch` trees) into the
/// per-layer span metrics; returns the median replay wall in ms.
pub fn span_metrics(spans: &[Span], untraced_ms: &[f64], metrics: &mut MetricSet) -> f64 {
    let own = trace::self_times_ns(spans);
    let roots: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].name == "bench.batch")
        .collect();
    if roots.is_empty() {
        return 0.0;
    }
    // Which replay tree each span belongs to (parents precede children).
    let mut in_batch = vec![false; spans.len()];
    for i in 0..spans.len() {
        in_batch[i] =
            spans[i].name == "bench.batch" || spans[i].parent.is_some_and(|p| in_batch[p]);
    }
    let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
    let mut total_self = 0u64;
    for i in (0..spans.len()).filter(|&i| in_batch[i]) {
        *by_layer.entry(spans[i].layer).or_default() += own[i];
        total_self += own[i];
    }
    let share = |layer: &str| {
        100.0 * by_layer.get(layer).copied().unwrap_or(0) as f64 / total_self.max(1) as f64
    };
    let n = roots.len() as u64;
    metrics.set("market.self_pct", share("market"), n);
    metrics.set("revpred.self_pct", share("revpred"), n);
    metrics.set("core.self_pct", share("core"), n);
    metrics.set("bench.self_pct", share("bench"), n);

    // Attribution checks. Root self time is what no child span explains
    // (thread spawn/join); within each worker lane children run back to
    // back, so the lane's subtree self times must sum to the lane span.
    let root_ns: u64 = roots.iter().map(|&r| spans[r].duration_ns()).sum();
    let root_self: u64 = roots.iter().map(|&r| own[r]).sum();
    metrics.set(
        "bench.trace_unattributed_pct",
        100.0 * root_self as f64 / root_ns.max(1) as f64,
        n,
    );
    let mut lane_error: f64 = 0.0;
    let mut busiest_ms = Vec::new();
    for &root in &roots {
        let mut busiest = 0u64;
        for lane in (0..spans.len())
            .filter(|&i| spans[i].parent == Some(root) && spans[i].name == "bench.worker")
        {
            let sum = trace::subtree_self_ns(spans, &own, lane);
            let dur = spans[lane].duration_ns();
            if dur > 0 {
                lane_error = lane_error.max(100.0 * (sum as f64 - dur as f64).abs() / dur as f64);
            }
            let children: u64 = spans
                .iter()
                .filter(|s| s.parent == Some(lane))
                .map(Span::duration_ns)
                .sum();
            busiest = busiest.max(children);
        }
        busiest_ms.push(busiest as f64 / 1e6);
    }
    metrics.set("bench.trace_lane_error_pct", lane_error, n);

    let cohorts = durations_ms(spans, "core.run_cohort");
    metrics.set("core.cohort_ms", median(&cohorts), cohorts.len() as u64);
    metrics.set(
        "core.cohort_count",
        cohorts.len() as f64 / roots.len() as f64,
        n,
    );
    let opens = durations_ms(spans, "core.session_open");
    metrics.set(
        "core.session_open_us",
        median(&opens) * 1e3,
        opens.len() as u64,
    );
    // run_many wall minus the spans on the busiest lane: grouping,
    // thread hand-off and the merge back to request order.
    if !untraced_ms.is_empty() {
        metrics.set(
            "core.merge_residual_ms",
            median(untraced_ms) - median(&busiest_ms),
            n,
        );
    }
    let replay_ms: Vec<f64> = roots
        .iter()
        .map(|&r| spans[r].duration_ns() as f64 / 1e6)
        .collect();
    median(&replay_ms)
}

/// The traced run of a sweep workload: fixed-work counts, then
/// alternating untraced `run_many` and traced replay batches for
/// `seconds` (tracing overhead is the ratio of their median walls).
pub fn run_traced(
    kind: Kind,
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
    metrics: &mut MetricSet,
) -> Outcome {
    let (plan, warm) = set_up(kind, seed);
    let cycle = plan.batches.len();
    let mut reference = count_pass(kind, &plan.batches, metrics);
    crate::probes::inproc_server(&plan.batches[0], metrics);

    let threads = sys::load_width();
    let (mut untraced_ms, mut cpu_s, mut wall_s) = (Vec::new(), 0.0, 0.0);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let window = Instant::now();
    let mut b = 0usize;
    while b < 2 || window.elapsed().as_secs_f64() < seconds {
        let k = (b / 2) % cycle;
        let requests = &plan.batches[k];
        let tiers = batch_tiers(kind, &warm);
        let reports = if b.is_multiple_of(2) {
            let (reports, wall, cpu) = timed_batch(&tiers.runner(), requests);
            untraced_ms.push(wall * 1e3);
            cpu_s += cpu;
            wall_s += wall;
            if b == 0 {
                crate::probes::wire_codec(&requests[0], &reports[0], metrics);
            }
            reports
        } else {
            replay_batch(tracer, &tiers, requests, threads, b as u64)
        };
        attempted += requests.len() as u64;
        failed += reference.check(k, requests.len(), &reports);
        b += 1;
    }
    let spans = tracer.snapshot();
    let replay_ms = span_metrics(&spans, &untraced_ms, metrics);
    let base = median(&untraced_ms);
    metrics.set(
        "bench.trace_overhead_pct",
        100.0 * (replay_ms / base - 1.0),
        (b / 2) as u64,
    );
    let untraced = untraced_ms.len() as u64;
    metrics.set("core.cpu_cores_busy", cpu_s / wall_s.max(1e-9), untraced);
    let campaigns = untraced as f64 * plan.batches[0].len() as f64;
    metrics.set(
        "core.cpu_us_per_campaign",
        cpu_s / campaigns * 1e6,
        untraced,
    );
    Outcome {
        attempted,
        failed,
        digest: reference.cycle_digest(),
        cloud: reference.cloud,
        notes: vec![format!(
            "{} untraced and {} traced replay batches alternated over {threads} lane(s)",
            b.div_ceil(2),
            b / 2
        )],
        server_flags: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_batch() -> Vec<CampaignRequest> {
        let shapes = mix::shapes(Mix::Small, 5);
        let mut batch = mix::scenario_batch(&shapes[..8], 5, 0, mix::scenario(5, 1, 0, 0), 12);
        let other = mix::scenario(5, 1, 0, 1);
        for request in batch.iter_mut().skip(1).step_by(2) {
            request.scenario = other;
        }
        batch
    }

    #[test]
    fn replay_matches_run_many_and_attributes_its_time() {
        let requests = tiny_batch();
        let want: Vec<u64> = Tiers::default()
            .runner()
            .run_many(&requests)
            .iter()
            .map(report_digest)
            .collect();
        let tracer = Tracer::new();
        let tiers = Tiers::default();
        let got = replay_batch(&tracer, &tiers, &requests, 2, 1);
        assert_eq!(got.iter().map(report_digest).collect::<Vec<_>>(), want);

        let spans = tracer.snapshot();
        let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
        assert_eq!(count("bench.batch"), 1);
        assert_eq!(count("bench.worker"), 2);
        assert_eq!(count("market.pool_get"), 2, "one per scenario group");
        assert_eq!(count("core.session_open"), 2);
        assert_eq!(
            count("core.run_cohort"),
            2,
            "six requests per group fit one cohort"
        );
        let mut metrics = MetricSet::new();
        span_metrics(&spans, &[], &mut metrics);
        let lane_error = metrics
            .get("bench.trace_lane_error_pct")
            .expect("set")
            .value;
        assert!(
            lane_error < 1e-9,
            "lane self times must sum to the lane: {lane_error}"
        );
        let shares: f64 = ["market.self_pct", "revpred.self_pct", "core.self_pct"]
            .iter()
            .map(|m| metrics.get(m).expect("set").value)
            .sum();
        assert!(shares > 0.0 && shares <= 100.0);
    }

    #[test]
    fn reference_counts_mismatches_and_short_batches() {
        let requests = tiny_batch();
        let reports = Tiers::default().runner().run_many(&requests);
        let mut reference = Reference::new(1);
        assert_eq!(reference.check(0, requests.len(), &reports), 0);
        assert_eq!(reference.check(0, requests.len(), &reports), 0);
        let mut wrong = reports.clone();
        wrong[3].cost += 1e-9;
        assert_eq!(reference.check(0, requests.len(), &wrong), 1);
        assert_eq!(
            reference.check(0, requests.len(), &reports[1..]),
            requests.len() as u64
        );
        let first = reference.cycle_digest();
        let mut again = Reference::new(1);
        again.check(0, requests.len(), &reports);
        assert_eq!(again.cycle_digest(), first);
        assert_eq!(again.cloud, reference.cloud);
    }
}
