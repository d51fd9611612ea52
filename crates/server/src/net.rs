//! TCP front-end for the campaign server: the robustness layer that
//! turns [`CampaignServer`](crate::CampaignServer) into a multi-tenant
//! network service.
//!
//! ## Protocol
//!
//! Newline-delimited JSON frames over a plain TCP stream, encoded by
//! [`spottune_core::wire`]. A client sends one frame per line:
//!
//! * a campaign request (optionally carrying `deadline_ms`),
//! * `{"stats":true}` — answered with a flattened counter snapshot,
//! * `{"shutdown":true}` — begins a graceful drain of the whole server.
//!
//! **Framing:** one frame, its trailing `\n` included, is one `write` on
//! a `TCP_NODELAY` socket, so no reply waits on Nagle for a delayed ACK.
//! The reader never depends on that: it reassembles lines from whatever
//! segments arrive.
//!
//! The server answers every accepted request with exactly one frame: a
//! campaign response, or a typed error frame whose `kind` is one of
//! [`spottune_core::wire::registered_error_kinds`]. Nothing is silently
//! dropped — a connection that stays alive sees one reply per request.
//!
//! ## Robustness model
//!
//! * **Admission control** — each connection owns a token bucket
//!   ([`AdmissionConfig`]); a flood past the refill rate gets `throttled`
//!   frames instead of queue space.
//! * **Fairness** — admitted requests enter a small per-connection
//!   staging queue; a single dispatcher drains the staging queues
//!   round-robin (one request per connection per pass) into the core's
//!   bounded queue, so one chatty client cannot starve the rest. When a
//!   pass moves nothing the dispatcher blocks on a doorbell, rung when a
//!   request is staged, when a connection hits EOF and when the drain
//!   begins — it neither polls nor sleeps.
//! * **Backpressure** — the core queue is bounded
//!   ([`ServerConfig::queue_capacity`](crate::ServerConfig)); an
//!   over-capacity submit comes back as an `overloaded` frame.
//! * **Deadlines** — `deadline_ms` starts counting at receipt; a request
//!   still queued past its deadline is cancelled (never run) and
//!   answered with a `deadline-exceeded` frame.
//! * **Graceful drain** — on shutdown the listener closes, new requests
//!   get `draining` frames, staged work is flushed into the core, queued
//!   campaigns finish, every pending response is written, and only then
//!   do the sockets close and [`NetServer::run`] return.
//!
//! Connection handling never panics: malformed frames, truncated lines,
//! mid-sweep disconnects and write failures are all confined to the
//! connection that caused them.

use crate::{CampaignServer, ServerConfig, SubmitError, WorkOutcome};
use crossbeam::channel::{self, Receiver, Sender};
use spottune_core::wire::{
    self, ClientFrame, ErrorFrame, ErrorKind,
};
use spottune_core::CampaignRequest;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-connection token-bucket admission knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Bucket capacity: how many requests a connection may burst before
    /// the refill rate applies.
    pub burst: u32,
    /// Sustained admission rate in requests/second; `0.0` disables
    /// throttling entirely.
    pub refill_per_sec: f64,
    /// Staging-queue bound per connection; requests admitted past a full
    /// staging queue get an `overloaded` frame.
    pub staging_capacity: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig { burst: 64, refill_per_sec: 256.0, staging_capacity: 256 }
    }
}

/// Configuration of the TCP front-end: the core server's knobs plus
/// admission control.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NetServerConfig {
    /// The wrapped [`CampaignServer`]'s configuration (worker count,
    /// cache tiers, queue capacity).
    pub server: ServerConfig,
    /// Per-connection admission control.
    pub admission: AdmissionConfig,
}

/// Classic token bucket over wall-clock time (permitted in this crate —
/// deadlines and admission are service time, not simulation time).
struct TokenBucket {
    tokens: f64,
    burst: f64,
    rate: f64,
    last: Instant,
}

impl TokenBucket {
    fn new(config: &AdmissionConfig) -> Self {
        TokenBucket {
            tokens: f64::from(config.burst),
            burst: f64::from(config.burst),
            rate: config.refill_per_sec,
            last: Instant::now(),
        }
    }

    fn admit(&mut self) -> bool {
        if self.rate <= 0.0 {
            return true;
        }
        let now = Instant::now();
        self.tokens =
            (self.tokens + now.duration_since(self.last).as_secs_f64() * self.rate).min(self.burst);
        self.last = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// A request admitted by a connection, waiting for the dispatcher.
struct Staged {
    request: CampaignRequest,
    deadline: Option<Instant>,
}

/// The write half of a connection, shared by the reader (error/stats
/// frames), the dispatcher (submit refusals) and the responder
/// (responses). Write errors mean the client left; they are ignored —
/// the reader observes the disconnect and retires the connection.
#[derive(Clone)]
struct SharedWriter {
    stream: Arc<Mutex<TcpStream>>,
}

impl SharedWriter {
    /// Writes `frame` and its newline in one `write_all`. The buffer is
    /// built before the lock, and the lock is what keeps frames from the
    /// reader, the dispatcher and the responder from interleaving.
    fn send_line(&self, mut frame: String) {
        frame.push('\n');
        let _ = lock_clean(&self.stream).write_all(frame.as_bytes());
    }

    fn send_error(&self, id: Option<u64>, kind: ErrorKind, message: impl Into<String>) {
        self.send_line(wire::encode_error_frame(&ErrorFrame {
            id,
            kind,
            message: message.into(),
        }));
    }
}

/// Mutex lock that shrugs off poisoning: every holder only mutates
/// state that stays coherent line-by-line, so continuing with the inner
/// value is always safe (and P1 forbids panicking here).
fn lock_clean<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One connection's entry in the dispatcher's registry.
struct ConnSlot {
    staging: Arc<Mutex<VecDeque<Staged>>>,
    writer: SharedWriter,
    /// Hands `(request id, outcome receiver)` pairs to the responder in
    /// submission order.
    outcome_tx: Sender<(u64, Receiver<WorkOutcome>)>,
    /// Cleared by the reader at EOF; the dispatcher then retires the slot
    /// once its staging queue is empty.
    open: Arc<AtomicBool>,
}

/// Front-end counters, folded into the stats frame next to
/// [`ServerStats`](crate::ServerStats).
#[derive(Default)]
struct NetCounters {
    connections: AtomicU64,
    connections_active: AtomicU64,
    throttled: AtomicU64,
    malformed: AtomicU64,
}

struct Inner {
    core: CampaignServer,
    admission: AdmissionConfig,
    addr: SocketAddr,
    draining: AtomicBool,
    /// The dispatcher's wake-up: holds at most one pending ring, so rings
    /// that arrive while one is pending coalesce and none is lost.
    doorbell: Sender<()>,
    counters: NetCounters,
    registry: Mutex<Vec<ConnSlot>>,
    /// Responder threads: joined *before* the sockets close, so every
    /// pending response reaches the wire.
    responder_threads: Mutex<Vec<JoinHandle<()>>>,
    /// Reader threads: unblocked by the socket shutdown, joined last.
    reader_threads: Mutex<Vec<JoinHandle<()>>>,
    /// TCP streams of live connections, kept so drain can unblock
    /// readers by shutting the sockets down after the final flush.
    sockets: Mutex<Vec<TcpStream>>,
}

impl Inner {
    /// [`ServerStats::fields`](crate::ServerStats::fields) plus the four
    /// front-end counters.
    fn stats_frame(&self) -> String {
        let mut fields = self.core.stats().fields();
        fields.extend([
            ("connections", self.counters.connections.load(Ordering::Relaxed)),
            ("connections_active", self.counters.connections_active.load(Ordering::Relaxed)),
            ("throttled", self.counters.throttled.load(Ordering::Relaxed)),
            ("malformed_frames", self.counters.malformed.load(Ordering::Relaxed)),
        ]);
        wire::encode_stats_frame(&fields)
    }

    /// Flips the draining flag and nudges the accept loop awake with a
    /// throwaway connection to our own listener. The dispatcher is rung
    /// only *after* the flip: a ring before it could be consumed by a pass
    /// that still reads `draining == false`, and the drain would hang.
    fn request_shutdown(&self) {
        if !self.draining.swap(true, Ordering::SeqCst) {
            self.ring();
            let _ = TcpStream::connect(self.addr);
        }
    }

    /// Wakes the dispatcher; rung by a reader after staging a request, by
    /// a reader at EOF, and by [`Inner::request_shutdown`].
    fn ring(&self) {
        let _ = self.doorbell.try_send(());
    }
}

/// Handle for triggering a graceful drain from outside [`NetServer::run`]
/// (tests, signal handlers). Cloneable and thread-safe.
#[derive(Clone)]
pub struct ShutdownHandle {
    inner: Arc<Inner>,
}

impl ShutdownHandle {
    /// Begins the graceful drain; [`NetServer::run`] returns once every
    /// pending response has been flushed.
    pub fn shutdown(&self) {
        self.inner.request_shutdown();
    }
}

/// The bound-but-not-yet-serving TCP front-end.
pub struct NetServer {
    listener: TcpListener,
    inner: Arc<Inner>,
    /// The dispatcher's end of [`Inner::doorbell`].
    doorbell: Receiver<()>,
}

impl NetServer {
    /// Binds the listener (use port `0` for an ephemeral port) and spawns
    /// the wrapped [`CampaignServer`]'s worker pool.
    ///
    /// # Errors
    ///
    /// Returns the bind error, e.g. when the address is taken.
    pub fn bind(addr: &str, config: NetServerConfig) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let (doorbell, doorbell_rx) = channel::bounded(1);
        let inner = Arc::new(Inner {
            core: CampaignServer::start(config.server),
            admission: config.admission,
            addr,
            draining: AtomicBool::new(false),
            doorbell,
            counters: NetCounters::default(),
            registry: Mutex::new(Vec::new()),
            responder_threads: Mutex::new(Vec::new()),
            reader_threads: Mutex::new(Vec::new()),
            sockets: Mutex::new(Vec::new()),
        });
        Ok(NetServer { listener, inner, doorbell: doorbell_rx })
    }

    /// The bound address (resolves the ephemeral port of `bind(":0")`).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// A handle that can trigger the graceful drain from another thread.
    pub fn handle(&self) -> ShutdownHandle {
        ShutdownHandle { inner: Arc::clone(&self.inner) }
    }

    /// Serves connections until a shutdown is requested (wire
    /// `{"shutdown":true}` or [`ShutdownHandle::shutdown`]), then drains
    /// gracefully: stops accepting, flushes staged work into the core,
    /// finishes queued campaigns, writes every pending response, closes
    /// the sockets and joins every thread — including the worker pool.
    ///
    /// # Errors
    ///
    /// Returns accept-loop I/O errors other than transient per-connection
    /// failures (which are skipped).
    pub fn run(self) -> std::io::Result<()> {
        let NetServer { listener, inner, doorbell } = self;
        let dispatcher = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || dispatcher_loop(&inner, &doorbell))
        };
        loop {
            let (stream, _) = match listener.accept() {
                Ok(accepted) => accepted,
                // Transient accept errors (aborted handshake) are not
                // fatal to the service.
                Err(_) if !inner.draining.load(Ordering::SeqCst) => continue,
                Err(_) => break,
            };
            if inner.draining.load(Ordering::SeqCst) {
                // The wake-up connection (or a late client): refuse.
                let writer = match stream.try_clone() {
                    Ok(clone) => SharedWriter { stream: Arc::new(Mutex::new(clone)) },
                    Err(_) => continue,
                };
                writer.send_error(None, ErrorKind::Draining, "server is shutting down");
                break;
            }
            spawn_connection(&inner, stream);
        }
        drop(listener);
        // 1. Dispatcher flushes every staging queue, then exits.
        let _ = dispatcher.join();
        // 2. Core drains: queued campaigns finish, workers exit idle.
        inner.core.begin_drain();
        // 3. Responders flush the last responses and exit (their feed
        //    channels closed when the dispatcher retired every slot);
        //    joining them *before* the sockets close is what guarantees
        //    every pending response reaches the wire.
        let responders: Vec<JoinHandle<()>> =
            lock_clean(&inner.responder_threads).drain(..).collect();
        for handle in responders {
            let _ = handle.join();
        }
        // 4. Unblock readers with a socket shutdown and join them.
        for socket in lock_clean(&inner.sockets).drain(..) {
            let _ = socket.shutdown(Shutdown::Both);
        }
        let readers: Vec<JoinHandle<()>> = lock_clean(&inner.reader_threads).drain(..).collect();
        for handle in readers {
            let _ = handle.join();
        }
        Ok(())
    }
}

/// Spawns the reader + responder pair for one accepted connection.
fn spawn_connection(inner: &Arc<Inner>, stream: TcpStream) {
    // A socket that refuses the option still works, only slower.
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    inner.counters.connections.fetch_add(1, Ordering::Relaxed);
    inner.counters.connections_active.fetch_add(1, Ordering::Relaxed);
    let writer = SharedWriter { stream: Arc::new(Mutex::new(write_half)) };
    let staging = Arc::new(Mutex::new(VecDeque::new()));
    let open = Arc::new(AtomicBool::new(true));
    let (outcome_tx, outcome_rx) = channel::unbounded::<(u64, Receiver<WorkOutcome>)>();
    lock_clean(&inner.registry).push(ConnSlot {
        staging: Arc::clone(&staging),
        writer: writer.clone(),
        outcome_tx,
        open: Arc::clone(&open),
    });
    lock_clean(&inner.sockets).push(stream);
    let responder = {
        let writer = writer.clone();
        std::thread::spawn(move || responder_loop(&outcome_rx, &writer))
    };
    let reader = {
        let inner = Arc::clone(inner);
        std::thread::spawn(move || {
            reader_loop(&inner, read_half, &writer, &staging);
            open.store(false, Ordering::SeqCst);
            // Wake the dispatcher so it retires the slot now, not at the
            // next unrelated ring.
            inner.ring();
            inner.counters.connections_active.fetch_sub(1, Ordering::Relaxed);
        })
    };
    lock_clean(&inner.responder_threads).push(responder);
    lock_clean(&inner.reader_threads).push(reader);
}

/// Reads frames off one connection until EOF, answering admin frames
/// inline and staging admitted requests for the dispatcher.
fn reader_loop(
    inner: &Arc<Inner>,
    read_half: TcpStream,
    writer: &SharedWriter,
    staging: &Mutex<VecDeque<Staged>>,
) {
    let mut bucket = TokenBucket::new(&inner.admission);
    let mut reader = BufReader::new(read_half);
    let mut line = Vec::new();
    loop {
        line.clear();
        // `take` bounds what one peer-controlled line may buffer.
        match (&mut reader).take(wire::MAX_FRAME_BYTES).read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        if line.len() as u64 == wire::MAX_FRAME_BYTES && !line.ends_with(b"\n") {
            // Oversize: one anonymous reply, drop the rest of the line, and
            // the connection keeps serving.
            inner.counters.malformed.fetch_add(1, Ordering::Relaxed);
            writer.send_error(
                None,
                ErrorKind::Malformed,
                format!("frame exceeds {} bytes", wire::MAX_FRAME_BYTES),
            );
            if reader.skip_until(b'\n').is_err() {
                return;
            }
            continue;
        }
        let Ok(text) = std::str::from_utf8(&line) else {
            return;
        };
        let text = text.trim();
        if text.is_empty() {
            continue;
        }
        match wire::decode_client_frame(text) {
            Ok(ClientFrame::Stats) => writer.send_line(inner.stats_frame()),
            Ok(ClientFrame::Shutdown) => {
                // Ack with a stats snapshot *before* flipping the drain
                // flag: once the drain starts, the socket teardown races
                // this write and the requester could lose its ack.
                // Responses still flush before close either way.
                writer.send_line(inner.stats_frame());
                inner.request_shutdown();
            }
            Ok(ClientFrame::Request { request, deadline_ms }) => {
                let id = request.id;
                if !bucket.admit() {
                    inner.counters.throttled.fetch_add(1, Ordering::Relaxed);
                    writer.send_error(
                        Some(id),
                        ErrorKind::Throttled,
                        "admission rate exceeded; slow down and retry",
                    );
                    continue;
                }
                let deadline =
                    deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
                let mut queue = lock_clean(staging);
                // The draining check must happen under the staging lock:
                // the dispatcher's final flush serializes on it, so a
                // request staged here is guaranteed to be flushed.
                if inner.draining.load(Ordering::SeqCst) {
                    drop(queue);
                    writer.send_error(
                        Some(id),
                        ErrorKind::Draining,
                        "server is shutting down; no new work accepted",
                    );
                    continue;
                }
                if queue.len() >= inner.admission.staging_capacity {
                    drop(queue);
                    writer.send_error(
                        Some(id),
                        ErrorKind::Overloaded,
                        "connection staging queue full; retry after backoff",
                    );
                    continue;
                }
                queue.push_back(Staged { request, deadline });
                drop(queue);
                inner.ring();
            }
            Err(e) => {
                inner.counters.malformed.fetch_add(1, Ordering::Relaxed);
                writer.send_error(None, ErrorKind::Malformed, e.to_string());
            }
        }
    }
}

/// Round-robin dispatcher: one staged request per connection per pass
/// into the core's bounded queue. Submit refusals become typed error
/// frames on the owning connection. A pass that moves nothing blocks on
/// the doorbell: every event that can give the next pass work (a stage,
/// an EOF, the drain) rings it after it happened, so a ring that lands
/// between the pass and the wait stays pending and the wait returns at
/// once. Exits only after a drain has been requested *and* every staging
/// queue has been flushed.
fn dispatcher_loop(inner: &Arc<Inner>, doorbell: &Receiver<()>) {
    loop {
        let draining = inner.draining.load(Ordering::SeqCst);
        let slots: Vec<usize> = (0..lock_clean(&inner.registry).len()).collect();
        let mut moved = false;
        for idx in slots {
            let Some((staged, writer, outcome_tx)) = ({
                let registry = lock_clean(&inner.registry);
                registry.get(idx).map(|slot| {
                    let mut queue = lock_clean(&slot.staging);
                    let batch: Vec<Staged> = if draining {
                        // Final flush: take everything so nothing staged
                        // before the drain flag is ever dropped.
                        queue.drain(..).collect()
                    } else {
                        queue.pop_front().into_iter().collect()
                    };
                    (batch, slot.writer.clone(), slot.outcome_tx.clone())
                })
            }) else {
                continue;
            };
            for item in staged {
                moved = true;
                submit_staged(inner, item, &writer, &outcome_tx);
            }
        }
        // Retire connections that hit EOF and have nothing staged;
        // dropping the slot's outcome sender lets the responder finish.
        lock_clean(&inner.registry).retain(|slot| {
            slot.open.load(Ordering::SeqCst) || !lock_clean(&slot.staging).is_empty()
        });
        if draining {
            // The flush above happened entirely after the draining flag
            // was set; readers refuse new stages from now on, so the
            // queues stay empty. Drop every slot so responders wind down.
            lock_clean(&inner.registry).clear();
            return;
        }
        if !moved {
            // `inner` holds the sender, so this returns only on a ring.
            let _ = doorbell.recv();
        }
    }
}

/// Offers one staged request to the core, converting refusals to frames.
fn submit_staged(
    inner: &Arc<Inner>,
    item: Staged,
    writer: &SharedWriter,
    outcome_tx: &Sender<(u64, Receiver<WorkOutcome>)>,
) {
    let id = item.request.id;
    match inner.core.try_submit(item.request, item.deadline) {
        Ok(rx) => {
            // The responder owns delivery from here; if it is already
            // gone the client has disconnected and the response is moot.
            let _ = outcome_tx.send((id, rx));
        }
        Err(SubmitError::Overloaded { capacity }) => writer.send_error(
            Some(id),
            ErrorKind::Overloaded,
            format!("request queue at capacity ({capacity}); retry after backoff"),
        ),
        Err(SubmitError::Rejected(reason)) => {
            writer.send_error(Some(id), ErrorKind::Rejected, reason)
        }
        Err(SubmitError::Draining) => writer.send_error(
            Some(id),
            ErrorKind::Draining,
            "server is shutting down; no new work accepted",
        ),
    }
}

/// Writes one frame per submitted request, in submission order: the
/// response, a `deadline-exceeded` frame, or (if the campaign died
/// without a verdict) a `rejected` frame — never silence.
fn responder_loop(feed: &Receiver<(u64, Receiver<WorkOutcome>)>, writer: &SharedWriter) {
    while let Ok((id, rx)) = feed.recv() {
        match rx.recv() {
            Ok(WorkOutcome::Done(response)) => {
                writer.send_line(wire::encode_response(&response));
            }
            Ok(WorkOutcome::Expired { id }) => writer.send_error(
                Some(id),
                ErrorKind::DeadlineExceeded,
                "deadline passed while queued; campaign cancelled",
            ),
            // The outcome lane died without a verdict: the campaign
            // panicked mid-run. Typed refusal instead of silence.
            Err(_) => writer.send_error(
                Some(id),
                ErrorKind::Rejected,
                "campaign aborted without a response",
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spottune_core::wire::ServerFrame;
    use spottune_core::Approach;
    use spottune_market::{EstimatorSpec, MarketScenario};
    use spottune_mlsim::{Algorithm, Workload};

    /// The frame is [`ServerStats::fields`](crate::ServerStats::fields)
    /// plus the front-end counters — read over a real socket after a sweep
    /// on the wrapped server, so the lane counters are live.
    #[test]
    fn stats_frame_carries_every_server_stat_and_the_front_end_counters() {
        let config =
            NetServerConfig { server: ServerConfig::with_workers(1), ..NetServerConfig::default() };
        let net = NetServer::bind("127.0.0.1:0", config).expect("bind ephemeral");
        let base = Workload::benchmark(Algorithm::LoR);
        let sweep = (0..2)
            .map(|id| CampaignRequest {
                id,
                approach: Approach::SpotTune { theta: 0.7 },
                workload: Workload::custom(Algorithm::LoR, 25, base.hp_grid()[..2].to_vec()),
                scenario: MarketScenario::from_days(1, 5),
                seed: id,
                estimator: EstimatorSpec::default(),
            })
            .collect();
        assert_eq!(net.inner.core.run_sweep(sweep).len(), 2);
        let mut want: Vec<&str> =
            net.inner.core.stats().fields().into_iter().map(|(name, _)| name).collect();
        want.extend(["connections", "connections_active", "throttled", "malformed_frames"]);

        let (addr, handle) = (net.local_addr(), net.handle());
        let server = std::thread::spawn(move || net.run());
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(format!("{}\n", wire::encode_stats_request()).as_bytes()).expect("send");
        let mut line = String::new();
        BufReader::new(&stream).read_line(&mut line).expect("stats frame");
        let ServerFrame::Stats(fields) = wire::decode_server_frame(line.trim()).expect("decodes")
        else {
            panic!("expected a stats frame, got {line}");
        };
        let names: Vec<&str> = fields.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, want);
        let get = |name: &str| fields.iter().find(|(k, _)| k == name).map(|&(_, v)| v);
        assert!(get("kernel_invocations") > Some(0), "{fields:?}");
        assert!(get("lane_jobs") <= get("lane_slots") && get("lane_jobs") > Some(0), "{fields:?}");
        assert_eq!(get("connections_active"), Some(1));

        handle.shutdown();
        server.join().expect("server thread must not panic").expect("clean run");
    }

    /// A hang-up rings the doorbell: the parked dispatcher retires the
    /// slot at once, with no other traffic to wake it.
    #[test]
    fn hang_up_retires_the_slot_without_other_traffic() {
        let config =
            NetServerConfig { server: ServerConfig::with_workers(1), ..NetServerConfig::default() };
        let net = NetServer::bind("127.0.0.1:0", config).expect("bind ephemeral");
        let (addr, handle, inner) = (net.local_addr(), net.handle(), Arc::clone(&net.inner));
        let server = std::thread::spawn(move || net.run());
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(format!("{}\n", wire::encode_stats_request()).as_bytes()).expect("send");
        BufReader::new(&stream).read_line(&mut String::new()).expect("stats frame");
        assert_eq!(lock_clean(&inner.registry).len(), 1, "the slot is registered before its reader");

        drop(stream);
        let deadline = Instant::now() + Duration::from_secs(5);
        while !lock_clean(&inner.registry).is_empty() {
            assert!(Instant::now() < deadline, "the hung-up connection's slot was never retired");
            std::thread::yield_now();
        }
        handle.shutdown();
        server.join().expect("server thread must not panic").expect("clean run");
    }
}
