//! The three wire workloads: the real `spottune-serve` child process
//! over loopback TCP, driven by one generator process.
//!
//! Load shape: `C = nproc` (capped at 4) connections and the server gets
//! `--workers C`. The closed loop and the saturation step use one thread
//! per connection. The open loop uses a sender and a reader thread per
//! connection: a socket read timeout is rounded up to kernel ticks (8 ms
//! on this box), so "read until the next send is due" on one thread would
//! make the generator up to 8 ms late; a reader blocked in the kernel
//! costs no CPU and stamps replies when they arrive.
//!
//! Latency in the open loop is timed from each request's *due* time, and
//! how late the generator actually sent is reported per step. Replies
//! are kept as raw lines with their arrival stamps and decoded, matched
//! and digest-checked after the step, so checking does not steal CPU
//! from the server while it is being measured.

use crate::digest::{combine, report_digest, CloudSums};
use crate::metrics::MetricSet;
use crate::mix::{self, Mix};
use crate::probes;
use crate::stats::{median, percentile, sorted, summarize, supported_percentile, Segment, Summary};
use crate::sweep::{self, Tiers};
use crate::sys;
use crate::trace::{self, Tracer};
use crate::Outcome;
use spottune_client::{Client, RetryPolicy};
use spottune_core::wire::{self, ErrorKind, ServerFrame};
use spottune_core::{CampaignRequest, CampaignResponse};
use spottune_server::{CampaignServer, ServerConfig};
use std::io::{BufRead, BufReader, ErrorKind as IoKind, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Closed,
    Open,
    Flood,
}

impl Kind {
    pub fn from_name(name: &str) -> Option<Kind> {
        match name {
            "wire_closed" => Some(Kind::Closed),
            "wire_open" => Some(Kind::Open),
            "wire_flood" => Some(Kind::Flood),
            _ => None,
        }
    }

    /// Flags after `--addr`: throttling off, except on the flood, which
    /// measures the default token bucket against a 64-slot queue.
    pub fn server_flags(self, workers: usize) -> Vec<String> {
        let mut flags = vec!["--workers".to_string(), workers.to_string()];
        match self {
            Kind::Closed | Kind::Open => flags.extend(["--refill".to_string(), "0".to_string()]),
            Kind::Flood => flags.extend(["--queue-capacity".to_string(), "64".to_string()]),
        }
        flags
    }
}

const FAMILY_WIRE: u64 = 30;
/// Markets the request pool spreads over (per-request CPU differs by
/// market, so one market would tie the figures to the seed).
const POOL_SCENARIOS: u64 = 16;
const POOL_LEN: usize = 4_096;
/// Requests kept in flight per connection in the saturation step.
const IN_FLIGHT: usize = 32;
/// Open-loop steps: name and offered rate, total across connections.
const RATES: [(&str, f64); 3] = [("lo", 200.0), ("mid", 2_000.0), ("hi", 8_000.0)];
const FLOOD_RATE: f64 = 4_000.0;
/// Latency limit on p90 for `server.max_rate_ok_per_s`.
const LIMIT_P90_MS: f64 = 10.0;
/// The server's default admission burst (`AdmissionConfig::default`).
const DEFAULT_BURST: usize = 64;
/// Back-to-back warm-up requests per connection with throttling off:
/// past the burst, so warm-up doubles as the `--refill 0` assertion.
const UNTHROTTLED_CHUNK: usize = 2 * DEFAULT_BURST;
/// How long a step waits for outstanding replies before calling them lost.
const DRAIN_PATIENCE: Duration = Duration::from_secs(10);

// ---------------------------------------------------------------------
// Server child
// ---------------------------------------------------------------------

/// A running `spottune-serve`. Dropping it kills the process if a
/// graceful shutdown has not already reaped it.
pub struct ServerChild {
    child: Child,
    pub addr: String,
    pub flags: Vec<String>,
    pub spawn_ms: f64,
}

impl ServerChild {
    /// Starts the binary on an ephemeral loopback port and waits for its
    /// `listening on <addr>` line.
    ///
    /// # Errors
    ///
    /// Describes a missing binary or a child that never announced.
    pub fn spawn(bin: &Path, flags: &[String]) -> Result<ServerChild, String> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        let announced = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .map(str::to_string);
        match (announced, addr) {
            (Ok(_), Some(addr)) => Ok(ServerChild {
                child,
                addr,
                flags: flags.to_vec(),
                spawn_ms: t0.elapsed().as_secs_f64() * 1e3,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "spottune-serve did not announce its address (got {line:?})"
                ))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks for a graceful drain over the wire, waits for exit 0, and
    /// returns the final stats frame with the drain time in ms.
    ///
    /// # Errors
    ///
    /// Describes a refused shutdown, a non-zero exit or a hung drain
    /// (the child is killed in that case).
    pub fn shutdown(mut self) -> Result<(Vec<(String, u64)>, f64), String> {
        let t0 = Instant::now();
        let stats = Client::connect(&self.addr)
            .map(|c| c.with_retry(RetryPolicy::none()))
            .and_then(|mut c| c.shutdown_server())
            .map_err(|e| format!("shutdown frame failed: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => {
                    return Ok((stats, t0.elapsed().as_secs_f64() * 1e3));
                }
                Ok(Some(status)) => return Err(format!("spottune-serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Ok(None) => return Err("spottune-serve did not drain within 20 s".to_string()),
                Err(e) => return Err(format!("waiting for spottune-serve: {e}")),
            }
        }
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

// ---------------------------------------------------------------------
// Request pool and its reference
// ---------------------------------------------------------------------

/// The seeded request pool with the digest every reply must carry,
/// computed in-process by `BatchRunner::run_many` over the same requests.
pub struct WirePool {
    /// Every distinct campaign (64 shapes × 16 markets); `id` = index.
    pub distinct: Vec<CampaignRequest>,
    pub expected: Vec<u64>,
    /// The 4 096-entry send order: indices into `distinct`, balanced.
    pub order: Vec<usize>,
    pub cloud: CloudSums,
}

impl WirePool {
    pub fn build(seed: u64) -> WirePool {
        let shapes = mix::shapes(Mix::Small, seed);
        let mut distinct = Vec::new();
        for s in 0..POOL_SCENARIOS {
            let market = mix::scenario(seed, 2, FAMILY_WIRE, s);
            for shape in &shapes {
                distinct.push(shape.request(distinct.len() as u64, market));
            }
        }
        let reports = Tiers::default().runner().run_many(&distinct);
        let mut cloud = CloudSums::default();
        for report in &reports {
            cloud.add(report);
        }
        WirePool {
            expected: reports.iter().map(report_digest).collect(),
            order: mix::balanced_order(seed, FAMILY_WIRE, distinct.len(), POOL_LEN),
            distinct,
            cloud,
        }
    }

    pub fn digest(&self) -> u64 {
        combine(self.expected.iter().copied())
    }

    /// The `seq`-th request connection `conn` of `conns` sends.
    fn pick(&self, conn: usize, conns: usize, seq: usize) -> usize {
        self.order[(conn + seq * conns) % self.order.len()]
    }

    fn line(&self, which: usize, id: u64) -> Vec<u8> {
        let mut request = self.distinct[which].clone();
        request.id = id;
        let mut line = wire::encode_request_frame(&request, None).into_bytes();
        line.push(b'\n');
        line
    }
}

fn connect(addr: &str) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    // The generator must not add Nagle delays of its own: every request
    // is one write of one whole line.
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Sends every distinct request once, `chunk` back to back per fresh
/// connection, and checks every reply. Warms the server's pool,
/// predictor and curve tiers. With throttling off the chunk exceeds the
/// default burst, so this is also the start-up assertion that
/// `--refill 0` really disables the token bucket.
fn warm(addr: &str, pool: &WirePool, chunk: usize) -> Result<(), String> {
    for (c, ids) in (0..pool.distinct.len())
        .collect::<Vec<_>>()
        .chunks(chunk)
        .enumerate()
    {
        let io = |e: std::io::Error| format!("warm-up connection {c}: {e}");
        let mut stream = connect(addr).map_err(io)?;
        let mut reader = BufReader::new(stream.try_clone().map_err(io)?);
        reader
            .get_ref()
            .set_read_timeout(Some(DRAIN_PATIENCE))
            .map_err(io)?;
        let burst: Vec<u8> = ids.iter().flat_map(|&i| pool.line(i, i as u64)).collect();
        stream.write_all(&burst).map_err(io)?;
        for _ in ids {
            let mut line = String::new();
            reader.read_line(&mut line).map_err(io)?;
            match wire::decode_server_frame(line.trim()) {
                Ok(ServerFrame::Response(r)) => {
                    let want = pool.expected.get(r.id as usize).copied();
                    if want != Some(report_digest(&r.report)) {
                        return Err(format!("warm-up reply {} differs from run_many", r.id));
                    }
                }
                Ok(ServerFrame::Error(f)) if f.kind == ErrorKind::Throttled => {
                    return Err(format!(
                        "{chunk} back-to-back requests were throttled: --refill 0 no longer \
                         disables the token bucket ({})",
                        f.message
                    ));
                }
                other => return Err(format!("warm-up got {other:?}")),
            }
        }
    }
    Ok(())
}

/// Everything up to the first timed request: pool generation with its
/// in-process reference, server spawn, tier warm-up.
pub fn set_up(kind: Kind, seed: u64, bin: &Path) -> Result<(WirePool, ServerChild), String> {
    let pool = WirePool::build(seed);
    let server = ServerChild::spawn(bin, &kind.server_flags(sys::load_width()))?;
    // Within the burst on the flood's throttled server (each warm-up
    // connection has its own bucket), past it otherwise.
    let chunk = if kind == Kind::Flood {
        DEFAULT_BURST
    } else {
        UNTHROTTLED_CHUNK
    };
    warm(&server.addr, &pool, chunk)?;
    Ok((pool, server))
}

// ---------------------------------------------------------------------
// Load loops
// ---------------------------------------------------------------------

/// What one connection saw during one step. Times are nanoseconds from
/// the step's epoch.
pub struct ConnLog {
    /// When each request was due (open loop) or sent (saturation).
    due_ns: Vec<u64>,
    sent_ns: Vec<u64>,
    /// Index into the pool's distinct requests, by request id.
    which: Vec<usize>,
    /// Lines the generator planned to send (≥ `sent_ns.len()`).
    planned: usize,
    replies: Vec<(u64, Vec<u8>)>,
}

fn since(epoch: Instant) -> u64 {
    Instant::now().saturating_duration_since(epoch).as_nanos() as u64
}

/// Sleeps to ~100 µs before `due` (a sleep overshoots by ~80 µs here),
/// then spins the remainder.
fn wait_until(due: Instant) {
    loop {
        let gap = due.saturating_duration_since(Instant::now());
        if gap.is_zero() {
            return;
        }
        if gap > Duration::from_micros(150) {
            std::thread::sleep(gap - Duration::from_micros(100));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Reads reply lines until `expected` (published by the sender once it
/// has finished) have arrived, the peer closes, or patience runs out.
fn read_replies(stream: TcpStream, epoch: Instant, expected: &AtomicUsize) -> Vec<(u64, Vec<u8>)> {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut reader = BufReader::with_capacity(1 << 16, stream);
    let mut replies = Vec::new();
    let mut buf = Vec::new();
    let mut idle_since: Option<Instant> = None;
    loop {
        let total = expected.load(Ordering::SeqCst);
        if total != usize::MAX && replies.len() >= total {
            return replies;
        }
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) => return replies,
            Ok(_) if buf.last() == Some(&b'\n') => {
                buf.pop();
                replies.push((since(epoch), std::mem::take(&mut buf)));
                idle_since = None;
            }
            // A partial line at EOF; the next read returns 0.
            Ok(_) => {}
            // Timed out mid-wait: bytes read so far stay in `buf`.
            Err(e) if matches!(e.kind(), IoKind::WouldBlock | IoKind::TimedOut) => {
                if total != usize::MAX
                    && idle_since.get_or_insert_with(Instant::now).elapsed() > DRAIN_PATIENCE
                {
                    return replies;
                }
            }
            Err(_) => return replies,
        }
    }
}

/// What one connection will send in an open-loop step, encoded before
/// the step's epoch: request `seq` is `lines[seq]`, due at `due_ns[seq]`,
/// and asks for distinct request `which[seq]`.
struct ConnPlan {
    lines: Vec<Vec<u8>>,
    due_ns: Vec<u64>,
    which: Vec<usize>,
}

/// One connection of an open-loop step: this thread sends each
/// pre-encoded line at its due time, a scoped reader thread stamps the
/// replies.
fn open_conn(addr: &str, plan: ConnPlan, epoch: Instant) -> std::io::Result<ConnLog> {
    let ConnPlan {
        lines,
        due_ns,
        which,
    } = plan;
    let stream = connect(addr)?;
    let read_half = stream.try_clone()?;
    let expected = AtomicUsize::new(usize::MAX);
    let mut sent_ns = Vec::with_capacity(lines.len());
    let replies = std::thread::scope(|scope| {
        let reader = scope.spawn(|| read_replies(read_half, epoch, &expected));
        let mut writer = &stream;
        for (line, &due) in lines.iter().zip(&due_ns) {
            wait_until(epoch + Duration::from_nanos(due));
            if writer.write_all(line).is_err() {
                break;
            }
            sent_ns.push(since(epoch));
        }
        expected.store(sent_ns.len(), Ordering::SeqCst);
        reader.join().expect("reply reader panicked")
    });
    Ok(ConnLog {
        due_ns,
        sent_ns,
        which,
        planned: lines.len(),
        replies,
    })
}

/// One open-loop step across all connections: seeded Poisson arrivals at
/// `rate` in total for `duration`. Lines are encoded before the epoch.
fn open_step(
    addr: &str,
    pool: &WirePool,
    seed: u64,
    step: u64,
    rate: f64,
    duration: Duration,
    conns: usize,
) -> Result<Vec<ConnLog>, String> {
    let plans: Vec<ConnPlan> = (0..conns)
        .map(|c| {
            let due_ns = mix::poisson_offsets_ns(
                seed,
                step,
                c as u64,
                rate / conns as f64,
                duration.as_nanos() as u64,
            );
            let which: Vec<usize> = (0..due_ns.len())
                .map(|seq| pool.pick(c, conns, seq))
                .collect();
            let lines = which
                .iter()
                .enumerate()
                .map(|(seq, &w)| pool.line(w, seq as u64))
                .collect();
            ConnPlan {
                lines,
                due_ns,
                which,
            }
        })
        .collect();
    // Far enough ahead that every connection is up before its first send.
    let epoch = Instant::now() + Duration::from_millis(50);
    std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .into_iter()
            .map(|plan| scope.spawn(move || open_conn(addr, plan, epoch)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("sender panicked")
                    .map_err(|e| format!("open loop: {e}"))
            })
            .collect()
    })
}

/// One connection of the saturation step: keep `IN_FLIGHT` requests
/// outstanding for `duration`, then collect the stragglers. Latency is
/// timed from the send.
fn sat_conn(
    addr: &str,
    pool: &WirePool,
    conn: usize,
    conns: usize,
    duration: Duration,
) -> std::io::Result<ConnLog> {
    let mut stream = connect(addr)?;
    let mut reader = BufReader::with_capacity(1 << 16, stream.try_clone()?);
    reader.get_ref().set_read_timeout(Some(DRAIN_PATIENCE))?;
    let epoch = Instant::now();
    let mut log = ConnLog {
        due_ns: Vec::new(),
        sent_ns: Vec::new(),
        which: Vec::new(),
        planned: 0,
        replies: Vec::new(),
    };
    let mut in_flight = 0usize;
    loop {
        while in_flight < IN_FLIGHT && epoch.elapsed() < duration {
            let seq = log.which.len();
            let which = pool.pick(conn, conns, seq);
            stream.write_all(&pool.line(which, seq as u64))?;
            log.which.push(which);
            log.sent_ns.push(since(epoch));
            in_flight += 1;
        }
        if in_flight == 0 {
            break;
        }
        let mut buf = Vec::new();
        match reader.read_until(b'\n', &mut buf) {
            Ok(n) if n > 0 && buf.last() == Some(&b'\n') => {
                buf.pop();
                log.replies.push((since(epoch), buf));
                in_flight -= 1;
            }
            _ => break,
        }
    }
    log.due_ns = log.sent_ns.clone();
    log.planned = log.sent_ns.len();
    Ok(log)
}

fn sat_step(
    addr: &str,
    pool: &WirePool,
    duration: Duration,
    conns: usize,
) -> Result<Vec<ConnLog>, String> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| scope.spawn(move || sat_conn(addr, pool, c, conns, duration)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("sat loop panicked")
                    .map_err(|e| format!("saturation: {e}"))
            })
            .collect()
    })
}

/// What a step amounted to once its replies were decoded and checked.
#[derive(Debug, Default)]
pub struct StepStats {
    pub attempted: u64,
    /// Digest mismatch, missing / duplicate / undecodable reply, id out
    /// of range, an error kind other than back-pressure, unsent line.
    pub failed: u64,
    /// Latencies of correct replies, ascending, ms.
    pub ok_ms: Vec<f64>,
    /// The same replies as `(when the request was due, latency ms)`, for
    /// cutting the step into segments.
    pub ok_at: Vec<(u64, f64)>,
    /// Send → `throttled` / `overloaded` frame, ascending, ms.
    pub refusal_ms: Vec<f64>,
    /// How late each line left the generator, ascending, ms.
    pub late_ms: Vec<f64>,
    /// Requests outstanding halfway through the step and at its end.
    pub in_flight_mid: i64,
    pub in_flight_end: i64,
}

fn check_conn(log: &ConnLog, pool: &WirePool, out: &mut StepStats) {
    let n = log.sent_ns.len();
    let mut seen = vec![0u32; n];
    out.attempted += log.planned as u64;
    out.failed += (log.planned - n) as u64;
    let ms = |from: u64, to: u64| to.saturating_sub(from) as f64 / 1e6;
    for (recv_ns, bytes) in &log.replies {
        let frame = std::str::from_utf8(bytes)
            .ok()
            .and_then(|t| wire::decode_server_frame(t).ok());
        let id = match &frame {
            Some(ServerFrame::Response(r)) => Some(r.id),
            Some(ServerFrame::Error(f)) => f.id,
            _ => None,
        };
        let Some(seq) = id.map(|id| id as usize).filter(|&seq| seq < n) else {
            out.failed += 1;
            continue;
        };
        seen[seq] += 1;
        if seen[seq] > 1 {
            // One reply per line: the extra one is the failure.
            out.failed += 1;
            continue;
        }
        match frame {
            Some(ServerFrame::Response(r))
                if report_digest(&r.report) == pool.expected[log.which[seq]] =>
            {
                out.ok_at
                    .push((log.due_ns[seq], ms(log.due_ns[seq], *recv_ns)));
            }
            // Typed back-pressure is the server working as designed (a
            // full staging queue at `hi` on a slow box, the token bucket
            // on the flood): a refusal, not a failure. It still counts
            // against `max_rate_ok` and never as throughput.
            Some(ServerFrame::Error(f))
                if matches!(f.kind, ErrorKind::Throttled | ErrorKind::Overloaded) =>
            {
                out.refusal_ms.push(ms(log.sent_ns[seq], *recv_ns));
            }
            _ => out.failed += 1,
        }
    }
    out.failed += seen.iter().filter(|&&s| s == 0).count() as u64;
    out.late_ms
        .extend(log.sent_ns.iter().zip(&log.due_ns).map(|(&s, &d)| ms(d, s)));
}

/// Decodes, matches and digest-checks every reply of a step.
pub fn check_step(logs: &[ConnLog], pool: &WirePool, duration: Duration) -> StepStats {
    let mut stats = StepStats::default();
    for log in logs {
        check_conn(log, pool, &mut stats);
    }
    let outstanding = |at_ns: u64| -> i64 {
        logs.iter()
            .map(|log| {
                let sent = log.sent_ns.iter().filter(|&&t| t <= at_ns).count() as i64;
                let back = log.replies.iter().filter(|(t, _)| *t <= at_ns).count() as i64;
                sent - back
            })
            .sum()
    };
    let end = duration.as_nanos() as u64;
    stats.in_flight_mid = outstanding(end / 2);
    stats.in_flight_end = outstanding(end);
    stats.ok_ms = sorted(stats.ok_at.iter().map(|&(_, ms)| ms).collect());
    stats.refusal_ms = sorted(std::mem::take(&mut stats.refusal_ms));
    stats.late_ms = sorted(std::mem::take(&mut stats.late_ms));
    stats
}

/// Segments per step for the best-quartile summary.
const STEP_SEGMENTS: usize = 10;

/// Cuts a step's correct replies, in completion order, into
/// `STEP_SEGMENTS` runs of equal count and summarizes their latencies.
pub fn step_summary(stats: &StepStats) -> Summary {
    let mut done: Vec<(f64, f64)> = stats
        .ok_at
        .iter()
        .map(|&(at_ns, ms)| (at_ns as f64 / 1e9 + ms / 1e3, ms))
        .collect();
    done.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    let per = done.len().div_ceil(STEP_SEGMENTS).max(1);
    summarize(
        done.chunks(per)
            .map(|run| Segment {
                completed: run.len() as f64,
                seconds: run[run.len() - 1].0 - run[0].0,
                latencies_ms: run.iter().map(|&(_, ms)| ms).collect(),
            })
            .collect(),
    )
}

/// Correct replies per second over the whole step, first send to last
/// completion. None of the three wire rates is CPU-bound today (a 44 ms
/// write stall paces the closed loop and the saturation step, the token
/// bucket paces the flood), so they need no segmenting — and replies
/// come in bursts there, which would bias a per-segment rate by where
/// the cut falls.
pub fn step_rate(stats: &StepStats) -> f64 {
    let last_done_s = stats
        .ok_at
        .iter()
        .map(|&(at_ns, ms)| at_ns as f64 / 1e9 + ms / 1e3)
        .fold(0.0, f64::max);
    stats.ok_at.len() as f64 / last_done_s.max(1e-9)
}

/// One connection of the closed loop: strict request/reply through the
/// real client, no retries, until `deadline`.
fn closed_conn(
    addr: &str,
    pool: &WirePool,
    conn: usize,
    conns: usize,
    deadline: Instant,
) -> Result<StepStats, String> {
    let mut client = Client::connect(addr)
        .map_err(|e| format!("closed loop connect: {e}"))?
        .with_retry(RetryPolicy::none());
    let mut stats = StepStats::default();
    let mut seq = 0usize;
    let epoch = Instant::now();
    while Instant::now() < deadline {
        let which = pool.pick(conn, conns, seq);
        let mut request = pool.distinct[which].clone();
        request.id = seq as u64;
        let t0 = Instant::now();
        let reply = client.run_campaign(&request, None);
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        let at_ns = t0.duration_since(epoch).as_nanos() as u64;
        stats.attempted += 1;
        match reply {
            Ok(CampaignResponse { id, report })
                if id == request.id && report_digest(&report) == pool.expected[which] =>
            {
                stats.ok_at.push((at_ns, latency_ms));
            }
            _ => stats.failed += 1,
        }
        seq += 1;
    }
    Ok(stats)
}

fn closed_step(
    addr: &str,
    pool: &WirePool,
    duration: Duration,
    conns: usize,
) -> Result<StepStats, String> {
    let deadline = Instant::now() + duration;
    let per_conn: Vec<Result<StepStats, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| scope.spawn(move || closed_conn(addr, pool, c, conns, deadline)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed loop panicked"))
            .collect()
    });
    let mut total = StepStats::default();
    for stats in per_conn {
        let stats = stats?;
        total.attempted += stats.attempted;
        total.failed += stats.failed;
        total.ok_at.extend(stats.ok_at);
    }
    total.ok_ms = sorted(total.ok_at.iter().map(|&(_, ms)| ms).collect());
    Ok(total)
}

// ---------------------------------------------------------------------
// Workload procedures
// ---------------------------------------------------------------------

/// The measured procedure of one wire workload: the end-to-end figures
/// and, for the traced run, the step detail as per-layer metrics.
pub struct Procedure {
    pub attempted: u64,
    pub failed: u64,
    pub correct: u64,
    pub campaigns_per_s: f64,
    /// Better-quartile latency behind `latency_p50_ms` / `_p90_ms`.
    pub latency: Summary,
    pub server_cpu_s: f64,
    pub layers: Vec<(String, f64, u64)>,
    pub notes: Vec<String>,
    /// Open-loop steps whose generator ran past its lateness limit.
    pub invalid_steps: u64,
}

impl Procedure {
    fn layer(&mut self, name: impl Into<String>, value: f64, samples: u64) {
        self.layers.push((name.into(), value, samples));
    }
}

fn describe(name: &str, s: &StepStats) -> String {
    let tail = supported_percentile(s.ok_ms.len()).map_or("n/a".to_string(), |p| {
        format!("p{p} {:.3} ms", percentile(&s.ok_ms, p))
    });
    format!(
        "{name}: {} sent, {} ok, {} refused, {} failed; p50 {:.3} ms, highest supported {tail} \
         (n={}); generator late p99 {:.3} ms; in flight mid/end {}/{}",
        s.attempted,
        s.ok_ms.len(),
        s.refusal_ms.len(),
        s.failed,
        percentile(&s.ok_ms, 50.0),
        s.ok_ms.len(),
        percentile(&s.late_ms, 99.0),
        s.in_flight_mid,
        s.in_flight_end,
    )
}

/// Generator lateness limit at p99: 1 ms below saturation; at `hi`,
/// where the box is nearly full, a tenth of the step's own median
/// latency. A step past its limit is reported invalid.
fn late_limit_ms(step: &str, s: &StepStats) -> f64 {
    match step {
        "hi" => 0.1 * percentile(&s.ok_ms, 50.0),
        _ => 1.0,
    }
}

pub fn run_procedure(
    kind: Kind,
    server: &ServerChild,
    pool: &WirePool,
    seed: u64,
    seconds: f64,
) -> Result<Procedure, String> {
    let conns = sys::load_width();
    let cpu0 = sys::cpu_seconds(server.pid());
    let mut p = Procedure {
        attempted: 0,
        failed: 0,
        correct: 0,
        campaigns_per_s: 0.0,
        latency: Summary::default(),
        server_cpu_s: 0.0,
        layers: Vec::new(),
        notes: Vec::new(),
        invalid_steps: 0,
    };
    let take = |p: &mut Procedure, s: &StepStats| {
        p.attempted += s.attempted;
        p.failed += s.failed;
        p.correct += s.ok_ms.len() as u64;
    };
    match kind {
        Kind::Closed => {
            let duration = Duration::from_secs_f64(seconds);
            let s = closed_step(&server.addr, pool, duration, conns)?;
            take(&mut p, &s);
            p.latency = step_summary(&s);
            p.campaigns_per_s = step_rate(&s);
            p.layer(
                "server.latency_p99_ms",
                percentile(&s.ok_ms, 99.0),
                s.ok_ms.len() as u64,
            );
            p.notes.push(describe("closed", &s));
        }
        Kind::Flood => {
            let duration = Duration::from_secs_f64(seconds);
            let logs = open_step(&server.addr, pool, seed, 9, FLOOD_RATE, duration, conns)?;
            let s = check_step(&logs, pool, duration);
            take(&mut p, &s);
            let n = s.ok_ms.len() as u64;
            p.latency = step_summary(&s);
            p.campaigns_per_s = step_rate(&s);
            p.layer("server.latency_p99_ms", percentile(&s.ok_ms, 99.0), n);
            p.layer(
                "server.refusal_p50_ms",
                percentile(&s.refusal_ms, 50.0),
                s.refusal_ms.len() as u64,
            );
            p.layer(
                "server.refused_share",
                s.refusal_ms.len() as f64 / s.attempted.max(1) as f64,
                s.attempted,
            );
            let late = percentile(&s.late_ms, 99.0);
            p.layer("bench.gen_late_p99_ms.flood", late, s.attempted);
            p.invalid_steps += u64::from(late > late_limit_ms("flood", &s));
            p.notes.push(describe("flood", &s));
        }
        Kind::Open => {
            // Four equal steps: three fixed rates, then saturation.
            let duration = Duration::from_secs_f64(seconds / 4.0);
            let mut max_ok = 0.0;
            for (step, (name, rate)) in RATES.iter().enumerate() {
                let logs = open_step(
                    &server.addr,
                    pool,
                    seed,
                    step as u64,
                    *rate,
                    duration,
                    conns,
                )?;
                let s = check_step(&logs, pool, duration);
                take(&mut p, &s);
                let n = s.ok_ms.len() as u64;
                let p90 = percentile(&s.ok_ms, 90.0);
                for (pct, value) in [
                    (50, percentile(&s.ok_ms, 50.0)),
                    (90, p90),
                    (99, percentile(&s.ok_ms, 99.0)),
                ] {
                    p.layer(format!("server.{name}_latency_p{pct}_ms"), value, n);
                }
                let late = percentile(&s.late_ms, 99.0);
                p.layer(format!("bench.gen_late_p99_ms.{name}"), late, s.attempted);
                let backlog_grew =
                    s.in_flight_end - s.in_flight_mid > (s.attempted as i64 / 100).max(8);
                if p90 <= LIMIT_P90_MS && s.failed == 0 && s.refusal_ms.is_empty() && !backlog_grew
                {
                    max_ok = *rate;
                }
                p.invalid_steps += u64::from(late > late_limit_ms(name, &s));
                p.notes.push(describe(name, &s));
                if *name == "mid" {
                    p.latency = step_summary(&s);
                }
            }
            p.layer("server.max_rate_ok_per_s", max_ok, RATES.len() as u64);
            let logs = sat_step(&server.addr, pool, duration, conns)?;
            let s = check_step(&logs, pool, duration);
            take(&mut p, &s);
            p.campaigns_per_s = step_rate(&s);
            p.layer("server.sat_per_s", p.campaigns_per_s, s.ok_ms.len() as u64);
            p.layer(
                "server.latency_p99_ms",
                percentile(&s.ok_ms, 99.0),
                s.ok_ms.len() as u64,
            );
            p.notes.push(describe("sat", &s));
        }
    }
    p.server_cpu_s = sys::cpu_seconds(server.pid()) - cpu0;
    if p.invalid_steps > 0 {
        p.notes.push(format!(
            "{} step(s) invalid: generator past its lateness limit",
            p.invalid_steps
        ));
    }
    Ok(p)
}

/// The untraced run: end-to-end metrics only.
///
/// # Errors
///
/// Set-up and protocol breakdowns (no server binary, a server that
/// throttles despite `--refill 0`, a connection that cannot be opened).
pub fn run_untraced(
    kind: Kind,
    seed: u64,
    seconds: f64,
    bin: &Path,
    metrics: &mut MetricSet,
) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut last: Option<(WirePool, ServerChild)> = None;
    for _ in 0..sweep::SETUP_REPS {
        if let Some((_, server)) = last.take() {
            server.shutdown()?;
        }
        let t0 = Instant::now();
        last = Some(set_up(kind, seed, bin)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let (pool, server) = last.expect("SETUP_REPS > 0");
    let p = run_procedure(kind, &server, &pool, seed, seconds)?;
    let peak_rss_mb = sys::peak_rss_mb(server.pid());
    let flags = server.flags.clone();
    server.shutdown()?;

    metrics.set("setup_s", median(&setup_s), setup_s.len() as u64);
    metrics.set("campaigns_per_s", p.campaigns_per_s, p.correct);
    metrics.set("latency_p50_ms", p.latency.p50_ms, p.latency.samples);
    metrics.set("latency_p90_ms", p.latency.p90_ms, p.latency.samples);
    metrics.set("peak_rss_mb", peak_rss_mb, 1);
    Ok(Outcome {
        attempted: p.attempted,
        failed: p.failed,
        digest: pool.digest(),
        cloud: pool.cloud,
        notes: p.notes,
        server_flags: flags,
    })
}

// ---------------------------------------------------------------------
// Traced pass
// ---------------------------------------------------------------------

fn stat(stats: &[(String, u64)], name: &str) -> f64 {
    stats
        .iter()
        .find(|(k, _)| k == name)
        .map_or(0.0, |(_, v)| *v as f64)
}

/// One connection, strict request/reply, every other request traced:
/// `core.wire_encode_request` → `client.run_campaign` →
/// `core.wire_decode_response`, then a `{"stats":true}` round trip
/// (socket, reader and writer, but no queue and no engine) and the same
/// request through an in-process `CampaignServer` (queue and engine, but
/// no socket). What is left of the round trip after those is what
/// staging, the dispatcher and the responder own.
fn traced_requests(
    addr: &str,
    pool: &WirePool,
    seconds: f64,
    tracer: &Tracer,
    metrics: &mut MetricSet,
) -> Result<(u64, u64), String> {
    let inproc = CampaignServer::start(ServerConfig::with_workers(sys::load_width()));
    std::hint::black_box(inproc.run_sweep(pool.distinct.clone()));
    let t0 = Instant::now();
    let mut client = Client::connect(addr)
        .map_err(|e| format!("traced pass connect: {e}"))?
        .with_retry(RetryPolicy::none());
    metrics.set("client.connect_ms", t0.elapsed().as_secs_f64() * 1e3, 1);

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut untraced_ms = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut seq = 0usize;
    while seq < 4 || Instant::now() < deadline {
        let which = pool.pick(0, 1, seq);
        let mut request = pool.distinct[which].clone();
        request.id = seq as u64;
        attempted += 1;
        let reply = if seq % 2 == 1 {
            let t0 = Instant::now();
            let reply = client.run_campaign(&request, None);
            untraced_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            reply
        } else {
            let id = request.id;
            let root = tracer.begin("bench.request", "bench", None, id);
            let at = Some(root);
            tracer.span("core.wire_encode_request", "core", at, id, || {
                std::hint::black_box(wire::encode_request_frame(&request, None));
            });
            let reply = tracer.span("client.run_campaign", "client", at, id, || {
                client.run_campaign(&request, None)
            });
            if let Ok(response) = &reply {
                let line = wire::encode_response(response);
                tracer.span("core.wire_decode_response", "core", at, id, || {
                    std::hint::black_box(wire::decode_server_frame(&line).is_ok());
                });
            }
            let stats = tracer.span("server.net_stats_rtt", "server", at, id, || client.stats());
            let submit = tracer.span("server.inproc_submit", "server", at, id, || {
                probes::inproc_submit_ms(&inproc, &request)
            });
            tracer.end(root);
            if stats.is_err() || submit.is_none() {
                failed += 1;
            }
            reply
        };
        match reply {
            Ok(r) if r.id == request.id && report_digest(&r.report) == pool.expected[which] => {}
            _ => failed += 1,
        }
        seq += 1;
    }
    inproc.shutdown();

    let spans = tracer.snapshot();
    let own = trace::self_times_ns(&spans);
    let ms_of = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    };
    let (encode, run, decode, stats_rtt, submit) = (
        ms_of("core.wire_encode_request"),
        ms_of("client.run_campaign"),
        ms_of("core.wire_decode_response"),
        ms_of("server.net_stats_rtt"),
        ms_of("server.inproc_submit"),
    );
    let n = run.len() as u64;
    let run_ms = median(&run);
    metrics.set("client.run_campaign_ms", run_ms, n);
    metrics.set(
        "client.round_trip_self_ms",
        run_ms - median(&encode) - median(&decode),
        n,
    );
    metrics.set(
        "server.net_stats_rtt_ms",
        median(&stats_rtt),
        stats_rtt.len() as u64,
    );
    metrics.set(
        "server.inproc_submit_ms",
        median(&submit),
        submit.len() as u64,
    );
    let residual =
        run_ms - median(&encode) - median(&stats_rtt) - median(&submit) - median(&decode);
    metrics.set("server.net_residual_ms", residual, n);
    metrics.set(
        "server.net_residual_pct",
        100.0 * residual / run_ms.max(1e-9),
        n,
    );
    metrics.set(
        "bench.trace_overhead_pct",
        100.0 * (run_ms / median(&untraced_ms).max(1e-9) - 1.0),
        untraced_ms.len() as u64,
    );
    // Share of the traced requests' time spent inside the client call.
    let in_request: Vec<usize> = (0..spans.len())
        .filter(|&i| {
            spans[i].name == "bench.request"
                || spans[i]
                    .parent
                    .is_some_and(|p| spans[p].name == "bench.request")
        })
        .collect();
    let total: u64 = in_request.iter().map(|&i| own[i]).sum();
    let client_ns: u64 = in_request
        .iter()
        .filter(|&&i| spans[i].layer == "client")
        .map(|&i| own[i])
        .sum();
    metrics.set(
        "client.self_pct",
        100.0 * client_ns as f64 / total.max(1) as f64,
        n,
    );
    Ok((attempted, failed))
}

/// The traced run of a wire workload: the fixed-work in-process pass
/// over the request pool (counts, simulated statistics, cohort spans),
/// the workload's own procedure for half of `seconds` with its step
/// detail and the server's final stats frame, then the traced
/// single-connection pass for the other half on a fresh server.
///
/// # Errors
///
/// As [`run_untraced`].
pub fn run_traced(
    kind: Kind,
    seed: u64,
    seconds: f64,
    bin: &Path,
    tracer: &Tracer,
    metrics: &mut MetricSet,
) -> Result<Outcome, String> {
    let (pool, server) = set_up(kind, seed, bin)?;
    metrics.set("server.spawn_ms", server.spawn_ms, 1);

    // In-process view of the same requests.
    let batch: Vec<CampaignRequest> = pool
        .order
        .iter()
        .enumerate()
        .map(|(i, &which)| CampaignRequest {
            id: i as u64,
            ..pool.distinct[which].clone()
        })
        .collect();
    let batches = vec![batch];
    let mut reference = sweep::count_pass(sweep::Kind::Small, &batches, metrics);
    probes::inproc_server(&batches[0], metrics);
    let tiers = Tiers::default();
    let sample = tiers.runner().run_many(&pool.distinct[..1]);
    probes::wire_codec(&pool.distinct[0], &sample[0], metrics);
    let mut failed = 0u64;
    let mut attempted = 0u64;
    for b in 0..2 {
        let reports = sweep::replay_batch(tracer, &tiers, &batches[0], sys::load_width(), b);
        attempted += batches[0].len() as u64;
        failed += reference.check(0, batches[0].len(), &reports);
    }
    sweep::span_metrics(&tracer.snapshot(), &[], metrics);

    // The workload's own procedure, for its step detail.
    let p = run_procedure(kind, &server, &pool, seed, seconds / 2.0)?;
    for (name, value, n) in &p.layers {
        metrics.set(name, *value, *n);
    }
    metrics.set("bench.invalid_steps", p.invalid_steps as f64, 1);
    metrics.set("server.cpu_s", p.server_cpu_s, 1);
    metrics.set(
        "server.cpu_us_per_request",
        p.server_cpu_s / p.attempted.max(1) as f64 * 1e6,
        p.attempted,
    );
    let flags = server.flags.clone();
    let (stats, drain_ms) = server.shutdown()?;
    metrics.set("server.drain_ms", drain_ms, 1);
    for (metric, field) in [
        ("server.completed", "completed"),
        ("server.peak_queue_depth", "peak_queue_depth"),
        ("server.throttled", "throttled"),
        ("server.overloaded", "overloaded"),
        ("server.expired", "expired"),
        ("server.malformed_frames", "malformed_frames"),
        ("server.batched_groups", "batched_groups"),
    ] {
        metrics.set(metric, stat(&stats, field), 1);
    }
    attempted += p.attempted;
    failed += p.failed;

    // The traced single-connection pass, always against an unthrottled
    // server so every request is answered.
    let server = ServerChild::spawn(bin, &Kind::Closed.server_flags(sys::load_width()))?;
    warm(&server.addr, &pool, UNTHROTTLED_CHUNK)?;
    let (a, f) = traced_requests(&server.addr, &pool, seconds / 2.0, tracer, metrics)?;
    server.shutdown()?;
    attempted += a;
    failed += f;

    let mut notes = p.notes;
    notes.push(format!(
        "traced pass: {a} strict request/reply round trips on one connection"
    ));
    Ok(Outcome {
        attempted,
        failed,
        digest: pool.digest(),
        cloud: pool.cloud,
        notes,
        server_flags: flags,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spottune_core::wire::ErrorFrame;

    fn tiny_pool() -> WirePool {
        let shapes = mix::shapes(Mix::Small, 3);
        let market = mix::scenario(3, 1, FAMILY_WIRE, 0);
        let distinct: Vec<CampaignRequest> = shapes[..4]
            .iter()
            .enumerate()
            .map(|(i, s)| s.request(i as u64, market))
            .collect();
        let reports = Tiers::default().runner().run_many(&distinct);
        WirePool {
            expected: reports.iter().map(report_digest).collect(),
            order: vec![0, 1, 2, 3],
            distinct,
            cloud: CloudSums::default(),
        }
    }

    fn reply(pool: &WirePool, which: usize, id: u64) -> Vec<u8> {
        let report = Tiers::default()
            .runner()
            .run_many(&pool.distinct[which..=which])
            .remove(0);
        wire::encode_response(&CampaignResponse { id, report }).into_bytes()
    }

    #[test]
    fn checking_enforces_one_correct_reply_per_line() {
        let pool = tiny_pool();
        let refusal = |id| {
            wire::encode_error_frame(&ErrorFrame {
                id: Some(id),
                kind: ErrorKind::Throttled,
                message: String::new(),
            })
            .into_bytes()
        };
        let log = ConnLog {
            due_ns: vec![0, 1_000_000, 2_000_000, 3_000_000, 4_000_000],
            sent_ns: vec![100_000, 1_000_000, 2_000_000, 3_000_000, 4_000_000],
            which: vec![0, 1, 2, 3, 0],
            planned: 6,
            replies: vec![
                (5_000_000, reply(&pool, 0, 0)),   // correct: 5 ms after it was due
                (6_000_000, reply(&pool, 0, 1)),   // wrong report for request 1
                (7_000_000, refusal(2)),           // refused
                (8_000_000, reply(&pool, 0, 0)),   // duplicate of request 0
                (9_000_000, b"not json".to_vec()), // undecodable
            ],
        };
        // Requests 3 and 4 never answered; one planned line never sent.
        let flood = check_step(std::slice::from_ref(&log), &pool, Duration::from_millis(10));
        assert_eq!(flood.attempted, 6);
        assert_eq!(flood.ok_ms, vec![5.0]);
        assert_eq!(flood.refusal_ms, vec![5.0]);
        assert_eq!(
            flood.failed,
            1 + 1 + 1 + 2 + 1,
            "wrong, duplicate, garbage, 2 missing, unsent"
        );
        assert_eq!(flood.late_ms[4], 0.1);
        assert_eq!((flood.in_flight_mid, flood.in_flight_end), (4, 0));
        // Any other error kind is a failure.
        let mut rejected = log;
        rejected.replies[2].1 = wire::encode_error_frame(&ErrorFrame {
            id: Some(2),
            kind: ErrorKind::Rejected,
            message: String::new(),
        })
        .into_bytes();
        let strict = check_step(
            std::slice::from_ref(&rejected),
            &pool,
            Duration::from_millis(10),
        );
        assert_eq!(strict.failed, flood.failed + 1);
        assert!(strict.refusal_ms.is_empty());
    }

    #[test]
    fn pool_lines_carry_their_ids_and_the_flags_match_the_workload() {
        let pool = tiny_pool();
        let line = pool.line(2, 77);
        assert_eq!(line.last(), Some(&b'\n'));
        let text = std::str::from_utf8(&line[..line.len() - 1]).expect("utf-8");
        match wire::decode_client_frame(text).expect("decodes") {
            wire::ClientFrame::Request {
                request,
                deadline_ms: None,
            } => {
                assert_eq!(request.id, 77);
                assert_eq!(request.seed, pool.distinct[2].seed);
            }
            other => panic!("unexpected frame {other:?}"),
        }
        assert_eq!(
            Kind::Closed.server_flags(2),
            ["--workers", "2", "--refill", "0"]
        );
        assert_eq!(
            Kind::Flood.server_flags(3),
            ["--workers", "3", "--queue-capacity", "64"]
        );
        assert_eq!(pool.pick(1, 2, 1), 3);
    }
}
