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
//! **Framing:** a frame, its trailing `\n` included, never spans two
//! `write`s on the `TCP_NODELAY` socket, so no reply waits on Nagle for a
//! delayed ACK. The reader reassembles lines from whatever segments arrive.
//!
//! The server answers every accepted request with exactly one frame: a
//! campaign response, or a typed error frame whose `kind` is one of
//! [`spottune_core::wire::registered_error_kinds`] — in *completion*
//! order, the id saying which request a frame answers.
//!
//! ## Robustness model
//!
//! * **Admission control** — each connection owns a token bucket
//!   ([`AdmissionConfig`]); a flood past the refill rate gets `throttled`
//!   frames instead of queue space.
//! * **Fairness** — one reader thread per connection pushes its requests
//!   into the connection's lane of the core's fair queue; the workers
//!   serve the lanes round robin, so one chatty client cannot starve the
//!   rest, and each writes its request's reply on the connection itself.
//!   A frame with nothing read behind it (its client waits on the reply)
//!   meeting an empty queue and a parked worker runs on the reader instead,
//!   in that worker's lent turn: one wake-up fewer, and still at most
//!   `workers` campaigns at once. Frames that arrive meanwhile are read,
//!   and their deadlines started, when that campaign ends.
//! * **Backpressure** — a lane holds at most
//!   [`AdmissionConfig::staging_capacity`] requests and the whole queue at
//!   most [`ServerConfig::queue_capacity`](crate::ServerConfig); a request
//!   past either bound gets an `overloaded` frame. So does a connection
//!   accepted while [`MAX_CONNECTIONS`] are live, which is then closed.
//! * **Deadlines** — `deadline_ms` starts counting at receipt; a request
//!   still queued past its deadline is cancelled (never run) and
//!   answered with a `deadline-exceeded` frame.
//! * **Slow readers** — a reply goes straight to the socket while the
//!   client keeps up; once the socket stays full, the backlog goes to a
//!   flusher thread of the connection's own, so no worker waits on a slow
//!   client. A client still behind [`WRITE_STALL`] later, or with more
//!   than 4 MiB of replies waiting, is cut off.
//! * **Graceful drain** — on shutdown the listener closes, new requests
//!   get `draining` frames, the core queue closes, queued campaigns finish
//!   and their workers write every pending response; then every socket's
//!   read side shuts, a reader running a campaign finishes it and writes
//!   the reply, and only once the readers are joined do the sockets close
//!   and [`NetServer::run`] return.
//!
//! Connection handling never panics: malformed frames, truncated lines,
//! mid-sweep disconnects and write failures are all confined to the
//! connection that caused them.

use crate::{lock_clean, CampaignServer, ReplySink, ServerConfig, SubmitError, WorkOutcome};
use spottune_core::wire::{self, ClientFrame, ErrorFrame, ErrorKind};
use std::io::ErrorKind::{Interrupted, WouldBlock};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a client may stay behind on its replies. A reply is a few KB
/// and a reading client empties its socket in microseconds, so a client
/// whose replies have backed up for two seconds without catching up has
/// stopped reading, or reads far slower than it asks; its connection is
/// then shut down. Until then its backlog is written by a flusher thread
/// of its own, never by a worker. The ledger's replies arrive in
/// milliseconds, far from it.
pub const WRITE_STALL: Duration = Duration::from_secs(2);

/// How long a direct write waits on a full socket before handing its rest
/// to a flusher thread (the socket's send timeout outside a flush). The
/// kernel rounds it up to a scheduler tick: a worker loses a few
/// milliseconds at most each time a client's socket fills up.
const HANDOFF: Duration = Duration::from_millis(1);

/// Live connections the front-end serves at once: each costs a reader
/// thread, a lane and up to [`MAX_BACKLOG`] of replies. One past it gets
/// an `overloaded` frame and is closed. The ledger opens at most five.
pub const MAX_CONNECTIONS: usize = 256;

/// Reply bytes a connection may have waiting; a frame that would pass it
/// cuts the client off. A full default lane of replies (256 of about
/// 1.1 KB) fits about fifteen times over.
const MAX_BACKLOG: usize = 4 << 20;

/// Per-connection token-bucket admission knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Bucket capacity: how many requests a connection may burst before
    /// the refill rate applies.
    pub burst: u32,
    /// Sustained admission rate in requests/second; `0.0` disables
    /// throttling entirely.
    pub refill_per_sec: f64,
    /// Bound on the connection's lane of the core's fair queue: requests
    /// admitted while the lane holds this many get an `overloaded` frame.
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

#[derive(Default)]
struct Outbox {
    /// Bytes waiting for the write in progress.
    pending: Vec<u8>,
    /// A write is in progress: a direct one, or the flusher's.
    writing: bool,
    /// Set by a failed write, a client left behind too long, or the drain:
    /// the socket is shut down and later frames are dropped.
    dead: bool,
    /// The connection's latest flusher thread, for the drain to join.
    flusher: Option<JoinHandle<()>>,
}

/// A connection's socket, shared by its reader (refusals, stats frames)
/// and the workers running its requests (replies). Frames that find a
/// write in progress wait for it in the outbox. Once the socket stays full
/// for [`HANDOFF`], the outbox goes to a flusher thread, so a worker never
/// waits on a slow client; the reader instead waits for the write in
/// progress to end, so a client that stops reading stops being read.
struct SharedWriter {
    stream: TcpStream,
    outbox: Mutex<Outbox>,
    /// Signalled when a write in progress ends or the connection dies.
    idle: Condvar,
}

impl SharedWriter {
    fn new(stream: TcpStream) -> Arc<Self> {
        let outbox = Mutex::new(Outbox::default());
        Arc::new(SharedWriter { stream, outbox, idle: Condvar::new() })
    }

    fn send_error(self: &Arc<Self>, id: Option<u64>, kind: ErrorKind, message: impl Into<String>) {
        self.write(error_frame(id, kind, message), true);
    }

    /// Queues `frame` plus a newline — once the write in progress ends, or
    /// with `!wait` behind it — and writes the outbox if no write is in
    /// progress. A client with [`MAX_BACKLOG`] bytes waiting is cut off.
    fn write(self: &Arc<Self>, frame: String, wait: bool) {
        let mut out = if wait { self.idle() } else { lock_clean(&self.outbox) };
        if out.dead || out.pending.len() + frame.len() >= MAX_BACKLOG {
            return self.kill(&mut out);
        }
        out.pending.extend_from_slice(frame.as_bytes());
        out.pending.push(b'\n');
        if !out.writing {
            out.writing = true;
            self.drain(out, None);
        }
    }

    /// Writes the outbox until it is empty. A direct writer (`deadline`
    /// `None`) that finds the socket full hands the rest to a new flusher
    /// thread; the flusher cuts the client off if it is not done by its
    /// `deadline`.
    fn drain<'a>(self: &'a Arc<Self>, out: MutexGuard<'a, Outbox>, deadline: Option<Instant>) {
        let mut out = out;
        while !out.dead && !out.pending.is_empty() {
            let mut batch = std::mem::take(&mut out.pending);
            drop(out);
            let written = self.write_once(&batch, deadline);
            out = lock_clean(&self.outbox);
            match written {
                Ok(n) if n == batch.len() => continue,
                Ok(n) => drop(batch.drain(..n)),
                // The send timeout on a full socket, or a signal: not gone.
                Err(e) if matches!(e.kind(), WouldBlock | Interrupted) => {}
                Err(_) => {
                    self.kill(&mut out);
                    break;
                }
            }
            batch.append(&mut out.pending);
            out.pending = batch;
            if deadline.is_none() {
                let writer = Arc::clone(self);
                let deadline = Some(Instant::now() + WRITE_STALL);
                let flush = move || writer.drain(lock_clean(&writer.outbox), deadline);
                match std::thread::Builder::new().spawn(flush) {
                    Ok(flusher) => {
                        // An earlier flusher has released `writing`: it is done.
                        out.flusher = Some(flusher);
                        return;
                    }
                    Err(_) => self.kill(&mut out),
                }
            }
        }
        if deadline.is_some() {
            let _ = self.stream.set_write_timeout(Some(HANDOFF));
        }
        out.writing = false;
        drop(out);
        self.idle.notify_all();
    }

    /// One `write`: outside a flush it waits [`HANDOFF`] at most on a full
    /// socket (the socket's send timeout); a flusher's waits until its
    /// `deadline` at most, and fails once that has passed.
    fn write_once(&self, batch: &[u8], deadline: Option<Instant>) -> io::Result<usize> {
        if let Some(deadline) = deadline {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(io::ErrorKind::TimedOut.into());
            }
            self.stream.set_write_timeout(Some(left))?;
        }
        (&self.stream).write(batch)
    }

    /// Waits for the write in progress, shuts the socket down and joins
    /// the last flusher.
    fn close(&self) {
        let flusher = {
            let mut out = self.idle();
            self.kill(&mut out);
            out.flusher.take()
        };
        if let Some(flusher) = flusher {
            let _ = flusher.join();
        }
    }

    /// Marks the connection dead and shuts the socket down, which fails a
    /// write in progress at once and ends the reader.
    fn kill(&self, out: &mut Outbox) {
        out.dead = true;
        out.pending = Vec::new();
        let _ = self.stream.shutdown(Shutdown::Both);
        self.idle.notify_all();
    }

    /// The outbox once no write is in progress (or the connection is dead).
    fn idle(&self) -> MutexGuard<'_, Outbox> {
        let mut out = lock_clean(&self.outbox);
        while out.writing && !out.dead {
            out = self.idle.wait(out).unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        out
    }
}

fn error_frame(id: Option<u64>, kind: ErrorKind, message: impl Into<String>) -> String {
    wire::encode_error_frame(&ErrorFrame { id, kind, message: message.into() })
}

/// A queued request's way back to its connection: the worker that runs
/// the request writes the reply.
struct PendingReply {
    id: u64,
    writer: Arc<SharedWriter>,
}

impl ReplySink for PendingReply {
    fn answer(self: Box<Self>, outcome: WorkOutcome) {
        let frame = match outcome {
            WorkOutcome::Done(response) => wire::encode_response(&response),
            WorkOutcome::Expired { id } => error_frame(
                Some(id),
                ErrorKind::DeadlineExceeded,
                "deadline passed while queued; campaign cancelled",
            ),
        };
        self.writer.write(frame, false);
    }

    /// The campaign panicked: a typed refusal instead of silence.
    fn abort(self: Box<Self>) {
        let frame =
            error_frame(Some(self.id), ErrorKind::Rejected, "campaign aborted without a response");
        self.writer.write(frame, false);
    }
}

/// Front-end counters, folded into the stats frame next to
/// [`ServerStats`](crate::ServerStats).
#[derive(Default)]
struct NetCounters {
    /// Connections accepted; the `n`-th gets lane `n` (0 is in-process).
    connections: AtomicU64,
    connections_active: AtomicU64,
    /// Connections closed at accept: over the cap, or no reader thread.
    connections_refused: AtomicU64,
    throttled: AtomicU64,
    malformed: AtomicU64,
}

struct Inner {
    core: CampaignServer,
    admission: AdmissionConfig,
    /// [`MAX_CONNECTIONS`] outside tests.
    max_connections: usize,
    addr: SocketAddr,
    draining: AtomicBool,
    counters: NetCounters,
    /// Every connection and its reader, for the drain to close and join;
    /// finished ones are closed at the next accept.
    connections: Mutex<Vec<(Arc<SharedWriter>, JoinHandle<()>)>>,
}

impl Inner {
    /// [`ServerStats::fields`](crate::ServerStats::fields) plus the five
    /// front-end counters.
    fn stats_frame(&self) -> String {
        let mut fields = self.core.stats().fields();
        fields.extend([
            ("connections", self.counters.connections.load(Ordering::Relaxed)),
            ("connections_active", self.counters.connections_active.load(Ordering::Relaxed)),
            ("connections_refused", self.counters.connections_refused.load(Ordering::Relaxed)),
            ("throttled", self.counters.throttled.load(Ordering::Relaxed)),
            ("malformed_frames", self.counters.malformed.load(Ordering::Relaxed)),
        ]);
        wire::encode_stats_frame(&fields)
    }

    /// Flips the draining flag and nudges the accept loop awake with a
    /// throwaway connection to our own listener.
    fn request_shutdown(&self) {
        if !self.draining.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect(self.addr);
        }
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
        let inner = Arc::new(Inner {
            core: CampaignServer::start(config.server),
            admission: config.admission,
            max_connections: MAX_CONNECTIONS,
            addr,
            draining: AtomicBool::new(false),
            counters: NetCounters::default(),
            connections: Mutex::new(Vec::new()),
        });
        Ok(NetServer { listener, inner })
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
    /// gracefully: stops accepting, closes the core queue, finishes queued
    /// campaigns, writes every pending response, closes the sockets and
    /// joins every thread — including the worker pool.
    ///
    /// # Errors
    ///
    /// Returns accept-loop I/O errors other than transient per-connection
    /// failures (which are skipped).
    pub fn run(self) -> std::io::Result<()> {
        let NetServer { listener, inner } = self;
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
                SharedWriter::new(stream).send_error(None, ErrorKind::Draining, "shutting down");
                break;
            }
            spawn_connection(&inner, stream);
        }
        drop(listener);
        // 1. Close the core queue (a racing push gets `draining`), join the
        //    workers: every queued request has run — after the give-back of
        //    any turn a reader holds — and its reply is written or handed to
        //    a write in progress.
        inner.core.finish();
        let connections = std::mem::take(&mut *lock_clean(&inner.connections));
        // 2. End every reader's input: a reader running a campaign finishes
        //    it, writes the reply, then reads EOF. 3. Join the readers.
        for (writer, _) in &connections {
            let _ = writer.stream.shutdown(Shutdown::Read);
        }
        for (writer, reader) in connections {
            let _ = reader.join();
            // 4. Close the socket once its last write ends.
            writer.close();
        }
        Ok(())
    }
}

/// Spawns the reader for one accepted connection, on the next lane, or
/// refuses the connection: past the live-connection cap, or when the OS
/// refuses the thread.
fn spawn_connection(inner: &Arc<Inner>, stream: TcpStream) {
    // A socket that refuses an option still works, slower or unbounded.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(HANDOFF));
    let active = inner.counters.connections_active.fetch_add(1, Ordering::Relaxed);
    let writer = SharedWriter::new(stream);
    if active >= inner.max_connections as u64 {
        return refuse(inner, &writer, format!("connection limit ({})", inner.max_connections));
    }
    let lane = inner.counters.connections.fetch_add(1, Ordering::Relaxed) + 1;
    let mut connections = lock_clean(&inner.connections);
    // Close finished connections: a writer only this list holds has no
    // reader, no queued reply and no flusher left to use it.
    connections.retain(|(writer, _)| Arc::strong_count(writer) > 1);
    let reader = {
        let (inner, writer) = (Arc::clone(inner), Arc::clone(&writer));
        std::thread::Builder::new().spawn(move || {
            reader_loop(&inner, lane, &writer);
            drop(writer);
            inner.counters.connections_active.fetch_sub(1, Ordering::Relaxed);
        })
    };
    match reader {
        Ok(reader) => connections.push((writer, reader)),
        Err(_) => refuse(inner, &writer, "no thread for a reader".to_string()),
    }
}

/// Turns an accepted connection away with one `overloaded` frame, then
/// closes it.
fn refuse(inner: &Inner, writer: &Arc<SharedWriter>, message: String) {
    inner.counters.connections_active.fetch_sub(1, Ordering::Relaxed);
    inner.counters.connections_refused.fetch_add(1, Ordering::Relaxed);
    writer.send_error(None, ErrorKind::Overloaded, message);
    writer.close();
}

/// Reads frames off one connection until EOF, answering admin frames
/// inline and pushing admitted requests into the connection's `lane`.
fn reader_loop(inner: &Inner, lane: u64, writer: &Arc<SharedWriter>) {
    let mut bucket = TokenBucket::new(&inner.admission);
    let mut reader = BufReader::new(&writer.stream);
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
            inner.counters.malformed.fetch_add(1, Ordering::Relaxed);
            writer.send_error(None, ErrorKind::Malformed, "frame is not UTF-8");
            continue;
        };
        let text = text.trim();
        if text.is_empty() {
            continue;
        }
        match wire::decode_client_frame(text) {
            Ok(ClientFrame::Stats) => writer.write(inner.stats_frame(), true),
            Ok(ClientFrame::Shutdown) => {
                // Ack with a stats snapshot *before* flipping the drain
                // flag: once the drain starts, the socket teardown races
                // this write and the requester could lose its ack.
                // Responses still flush before close either way.
                writer.write(inner.stats_frame(), true);
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
                let refusal = if inner.draining.load(Ordering::SeqCst) {
                    SubmitError::Draining
                } else {
                    let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
                    let reply = Box::new(PendingReply { id, writer: Arc::clone(writer) });
                    let cap = inner.admission.staging_capacity;
                    // Nothing read past this frame: the client waits on its
                    // reply, so this thread may run it in a parked worker's turn.
                    let run_here = reader.buffer().is_empty();
                    let Err(refusal) =
                        inner.core.try_submit_to(lane, cap, request, deadline, reply, run_here)
                    else {
                        continue;
                    };
                    refusal
                };
                let kind = match refusal {
                    SubmitError::Overloaded { .. } => ErrorKind::Overloaded,
                    SubmitError::Rejected(_) => ErrorKind::Rejected,
                    SubmitError::Draining => ErrorKind::Draining,
                };
                writer.send_error(Some(id), kind, refusal.to_string());
            }
            Err(e) => {
                inner.counters.malformed.fetch_add(1, Ordering::Relaxed);
                writer.send_error(None, ErrorKind::Malformed, e.to_string());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spottune_core::wire::ServerFrame;
    use spottune_core::{Approach, CampaignRequest};
    use spottune_market::{EstimatorSpec, MarketScenario};
    use spottune_mlsim::{Algorithm, CurveCache, Workload};

    /// How long a test waits on the server before it fails.
    const PATIENCE: Duration = Duration::from_secs(30);

    type Served = (SocketAddr, ShutdownHandle, Arc<Inner>, JoinHandle<io::Result<()>>);

    /// A one-worker front-end with a live-connection cap of `cap`, served
    /// on a background thread.
    fn serve(cap: usize) -> Served {
        let config =
            NetServerConfig { server: ServerConfig::with_workers(1), ..NetServerConfig::default() };
        let mut net = NetServer::bind("127.0.0.1:0", config).expect("bind ephemeral");
        Arc::get_mut(&mut net.inner).expect("no handle yet").max_connections = cap;
        let (addr, handle, inner) = (net.local_addr(), net.handle(), Arc::clone(&net.inner));
        (addr, handle, inner, std::thread::spawn(move || net.run()))
    }

    fn request(id: u64) -> CampaignRequest {
        let base = Workload::benchmark(Algorithm::LoR);
        CampaignRequest {
            id,
            approach: Approach::SpotTune { theta: 0.7 },
            workload: Workload::custom(Algorithm::LoR, 25, base.hp_grid()[..2].to_vec()),
            scenario: MarketScenario::from_days(1, 5),
            seed: id,
            estimator: EstimatorSpec::default(),
        }
    }

    /// Writes `frame` (if any) on `stream` and reads one frame back, on a
    /// helper thread, so a server that never answers fails the test rather
    /// than hanging it. `None` is EOF.
    fn reply_to(stream: &TcpStream, frame: Option<String>) -> Option<ServerFrame> {
        let mut stream = stream.try_clone().expect("clone");
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            if let Some(frame) = frame {
                stream.write_all(format!("{frame}\n").as_bytes()).expect("send");
            }
            let mut line = String::new();
            let _ = BufReader::new(&stream).read_line(&mut line);
            let _ = tx.send(line);
        });
        let line = rx.recv_timeout(PATIENCE).expect("no reply in time");
        (!line.is_empty()).then(|| wire::decode_server_frame(line.trim()).expect("decodes"))
    }

    fn stats(stream: &TcpStream) -> Vec<(String, u64)> {
        match reply_to(stream, Some(wire::encode_stats_request())) {
            Some(ServerFrame::Stats(fields)) => fields,
            other => panic!("expected a stats frame, got {other:?}"),
        }
    }

    /// Waits until at most `n` readers are live.
    fn await_active(inner: &Inner, n: u64) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while inner.counters.connections_active.load(Ordering::SeqCst) > n {
            assert!(Instant::now() < deadline, "hung-up readers never finished");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn stop(handle: ShutdownHandle, server: JoinHandle<io::Result<()>>) {
        handle.shutdown();
        server.join().expect("server thread must not panic").expect("clean run");
    }

    /// The frame is [`ServerStats::fields`](crate::ServerStats::fields)
    /// plus the front-end counters — read over a real socket after a sweep
    /// on the wrapped server, so the lane counters are live.
    #[test]
    fn stats_frame_carries_every_server_stat_and_the_front_end_counters() {
        let (addr, handle, inner, server) = serve(MAX_CONNECTIONS);
        assert_eq!(inner.core.run_sweep(vec![request(0), request(1)]).len(), 2);
        let mut want: Vec<&str> =
            inner.core.stats().fields().into_iter().map(|(name, _)| name).collect();
        want.extend(["connections", "connections_active", "connections_refused"]);
        want.extend(["throttled", "malformed_frames"]);

        let fields = stats(&TcpStream::connect(addr).expect("connect"));
        let names: Vec<&str> = fields.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, want);
        let get = |name: &str| fields.iter().find(|(k, _)| k == name).map(|&(_, v)| v);
        assert!(get("kernel_invocations") > Some(0), "{fields:?}");
        assert!(get("lane_jobs") <= get("lane_slots") && get("lane_jobs") > Some(0), "{fields:?}");
        assert_eq!(get("connections_active"), Some(1));
        stop(handle, server);
    }

    /// Each accept closes the connections that are done: after fifty
    /// clients connected and hung up, the list holds only the live one.
    #[test]
    fn finished_connections_are_closed_at_the_next_accept() {
        let (addr, handle, inner, server) = serve(MAX_CONNECTIONS);
        for _ in 0..50 {
            stats(&TcpStream::connect(addr).expect("connect"));
        }
        await_active(&inner, 0);
        let live = TcpStream::connect(addr).expect("connect");
        stats(&live);
        assert_eq!(lock_clean(&inner.connections).len(), 1, "only the live connection is kept");
        stop(handle, server);
    }

    /// Past the live-connection cap a connection gets one `overloaded`
    /// frame and EOF, through the same refusal a reader thread the OS
    /// refuses takes; once a client hangs up, a new connection is served.
    #[test]
    fn a_connection_past_the_cap_is_refused_until_one_hangs_up() {
        let (addr, handle, inner, server) = serve(4);
        // A stats round trip on each: all four are served before the fifth connects.
        let mut live = Vec::new();
        for _ in 0..4 {
            live.push(TcpStream::connect(addr).expect("connect"));
            stats(&live[live.len() - 1]);
        }
        let fifth = TcpStream::connect(addr).expect("connect");
        let Some(ServerFrame::Error(refusal)) = reply_to(&fifth, None) else {
            panic!("expected an error frame");
        };
        assert_eq!(refusal.kind, ErrorKind::Overloaded);
        assert_eq!(refusal.message, "connection limit (4)");
        assert_eq!(reply_to(&fifth, None), None, "the refused connection is closed");
        assert_eq!(inner.counters.connections_refused.load(Ordering::SeqCst), 1);

        drop(live.remove(0));
        await_active(&inner, 3);
        let request = request(9);
        let frame = Some(wire::encode_request(&request));
        let Some(ServerFrame::Response(response)) =
            reply_to(&TcpStream::connect(addr).expect("connect"), frame)
        else {
            panic!("expected a response");
        };
        let serial = request.run_serial(&request.scenario.build(), &CurveCache::global());
        assert_eq!(response.report, serial);
        assert_eq!(inner.counters.connections_refused.load(Ordering::SeqCst), 1);
        stop(handle, server);
    }
}
