//! Chaos harness for the TCP front-end (ISSUE 8 acceptance): every
//! registered wire error-frame kind is provoked over a real socket,
//! killed connections and floods past admission never panic a worker,
//! surviving clients get responses **bit-identical** to
//! [`CampaignRequest::run_serial`], and a graceful drain flushes every
//! pending response before the sockets close.
//!
//! The fair queue is checked over real sockets too: a backlogged
//! connection does not hold back another one, pipelined replies come back
//! once each in completion order, and a client that never reads, or reads
//! too slowly, is cut off after [`WRITE_STALL`] without stalling anyone
//! else.
//!
//! `RawConn::send` writes a line and its newline separately, so every test
//! also feeds the server frames split across segments; the timing tests
//! use `RawConn::send_whole` instead.
//!
//! `the_suite_covers_the_whole_error_kind_registry` pins
//! [`wire::registered_error_kinds`] to the kinds provoked here: a new
//! error kind without a wire-level test fails this suite.

use spottune_core::prelude::*;
use spottune_core::wire::{self, ErrorKind, ServerFrame};
use spottune_market::{EstimatorSpec, MarketScenario};
use spottune_mlsim::prelude::*;
use spottune_server::net::{
    AdmissionConfig, NetServer, NetServerConfig, ShutdownHandle, WRITE_STALL,
};
use spottune_server::ServerConfig;
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a test waits before calling a wake-up or a disconnect lost.
const LIVENESS: Duration = Duration::from_secs(5);

/// How long a `RawConn` read blocks before it fails the test: a reply or
/// an EOF that never comes fails the suite instead of hanging it.
const PATIENCE: Duration = Duration::from_secs(30);

/// Admission that never throttles: these tests target the queue.
const UNTHROTTLED: AdmissionConfig =
    AdmissionConfig { burst: 1024, refill_per_sec: 0.0, staging_capacity: 256 };

fn request(id: u64, steps: u64, seed: u64) -> CampaignRequest {
    let base = Workload::benchmark(Algorithm::LoR);
    CampaignRequest {
        id,
        approach: Approach::SpotTune { theta: 0.7 },
        workload: Workload::custom(Algorithm::LoR, steps, base.hp_grid()[..2].to_vec()),
        scenario: MarketScenario::from_days(1, 42),
        seed,
        estimator: EstimatorSpec::default(),
    }
}

/// Binds an in-process front-end and serves it on a background thread.
fn serve(config: NetServerConfig) -> (SocketAddr, ShutdownHandle, JoinHandle<std::io::Result<()>>) {
    let net = NetServer::bind("127.0.0.1:0", config).expect("bind ephemeral");
    let addr = net.local_addr();
    let handle = net.handle();
    let thread = std::thread::spawn(move || net.run());
    (addr, handle, thread)
}

/// A raw line-framed connection: full control over what goes on the wire.
struct RawConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl RawConn {
    fn open(addr: SocketAddr) -> RawConn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream.set_read_timeout(Some(PATIENCE)).expect("read timeout");
        RawConn { reader: BufReader::new(stream.try_clone().expect("clone")), writer: stream }
    }

    /// The line and its newline in two writes, so every test also feeds
    /// the server frames split across segments.
    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send newline");
        self.writer.flush().expect("flush");
    }

    /// The line and its newline in one write, for the timing tests: the
    /// server then sees the whole frame at once, and a timing measures the
    /// server, not a second segment.
    fn send_whole(&mut self, line: &str) {
        self.writer.write_all(format!("{line}\n").as_bytes()).expect("send");
    }

    /// Reads exactly one server frame (blocks until it arrives, at most
    /// [`PATIENCE`]).
    fn recv(&mut self) -> ServerFrame {
        let mut line = String::new();
        assert!(self.reader.read_line(&mut line).expect("read frame") > 0, "unexpected EOF");
        wire::decode_server_frame(line.trim()).expect("decodable frame")
    }

    /// Reads server frames until the server closes the connection (each
    /// read waits at most [`PATIENCE`]).
    fn read_to_eof(mut self) -> Vec<ServerFrame> {
        drop(self.writer);
        let mut frames = Vec::new();
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line).expect("read frame") == 0 {
                return frames;
            }
            frames.push(wire::decode_server_frame(line.trim()).expect("decodable frame"));
        }
    }
}

fn kind_counts(frames: &[ServerFrame]) -> BTreeMap<&'static str, usize> {
    let mut counts = BTreeMap::new();
    for frame in frames {
        if let ServerFrame::Error(e) = frame {
            *counts.entry(e.kind.name()).or_insert(0) += 1;
        }
    }
    counts
}

fn serial_reference(request: &CampaignRequest) -> spottune_core::HptReport {
    let pool = request.scenario.build();
    request.run_serial(&pool, &CurveCache::global())
}

/// One counter off a stats frame, asked for on `conn`.
fn stat(conn: &mut RawConn, name: &str) -> u64 {
    conn.send_whole(&wire::encode_stats_request());
    match conn.recv() {
        ServerFrame::Stats(fields) => {
            fields.iter().find(|(k, _)| k == name).map_or(0, |&(_, v)| v)
        }
        other => panic!("expected a stats frame, got {other:?}"),
    }
}

/// Asks for `name` on `conn` until it satisfies `ok`, failing after
/// `patience`.
fn await_stat(conn: &mut RawConn, name: &str, patience: Duration, ok: impl Fn(u64) -> bool) {
    let deadline = Instant::now() + patience;
    loop {
        let value = stat(conn, name);
        if ok(value) {
            return;
        }
        assert!(Instant::now() < deadline, "{name} stuck at {value} for {patience:?}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Strict round trips on `conn` until one runs on its reader, which shows
/// a worker parked; returns `reader_runs` then.
fn await_parked_worker(conn: &mut RawConn) -> u64 {
    let deadline = Instant::now() + LIVENESS;
    let mut id = 9000;
    loop {
        conn.send_whole(&wire::encode_request_frame(&request(id, 20, id), None));
        assert!(matches!(conn.recv(), ServerFrame::Response(r) if r.id == id), "request {id}");
        let runs = stat(conn, "reader_runs");
        if runs > 0 {
            return runs;
        }
        assert!(Instant::now() < deadline, "no request ran on its reader within {LIVENESS:?}");
        id += 1;
    }
}

/// A socket timeout, as opposed to a closed connection.
fn timed_out(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Triggers the drain and requires `run` to return cleanly in time.
fn drain(handle: &ShutdownHandle, server: JoinHandle<std::io::Result<()>>) {
    handle.shutdown();
    let deadline = Instant::now() + LIVENESS;
    while !server.is_finished() {
        assert!(Instant::now() < deadline, "NetServer::run did not return within {LIVENESS:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
    server.join().expect("server thread must not panic").expect("clean run");
}

/// One connection against a deliberately tiny server (one worker, queue
/// capacity one) walks through garbage, a semantically-bad request, a
/// queue-deadline, a flood past the bounded queue and a post-shutdown
/// request — provoking `malformed`, `rejected`, `deadline-exceeded`,
/// `overloaded` and `draining` frames, while the one successful campaign
/// still comes back bit-identical to the serial reference. `throttled`
/// (the sixth kind) has its own server below; together the two tests put
/// every kind in [`wire::registered_error_kinds`] on the wire.
#[test]
fn five_error_kinds_and_a_flushed_response_on_one_connection() {
    let config = NetServerConfig {
        // Queue capacity 2: one slot hands the heavy campaign to the
        // worker, one holds the doomed deadline request; the flood then
        // finds the queue full.
        server: ServerConfig::with_workers(1).with_queue_capacity(2),
        // Throttling off: this test targets the queue bounds, not admission.
        admission: AdmissionConfig { burst: 1024, refill_per_sec: 0.0, staging_capacity: 1024 },
    };
    let (addr, _handle, server) = serve(config);
    let mut conn = RawConn::open(addr);

    // 1. Garbage never decodes: `malformed`, unattributed (no id).
    conn.send("this is not a frame {");
    // 2. Decodes fine, fails validation at the server boundary: `rejected`.
    let mut invalid = request(900, 20, 0);
    invalid.approach = Approach::SpotTune { theta: 2.5 };
    conn.send(&wire::encode_request_frame(&invalid, None));
    // 3. A heavy campaign occupies the single worker...
    let heavy = request(1, 300, 7);
    // 4. ...so this one expires in the queue: `deadline-exceeded`. Both
    //    in one write: the reader sees the second frame behind the first,
    //    so neither runs on the reader and the heavy one holds the worker.
    let doomed = wire::encode_request_frame(&request(2, 20, 8), Some(1));
    conn.send(&format!("{}\n{doomed}", wire::encode_request_frame(&heavy, None)));
    // 5. The queue (capacity 1) now holds the doomed request: `overloaded`.
    for id in 10..16 {
        conn.send(&wire::encode_request_frame(&request(id, 20, id), None));
    }
    // 6. Graceful drain: the shutdown frame is acked with a stats
    //    snapshot, and a request arriving after it gets `draining`.
    conn.send(&wire::encode_shutdown_request());
    conn.send(&wire::encode_request_frame(&request(30, 20, 9), None));

    let frames = conn.read_to_eof();
    server.join().expect("server thread must not panic").expect("clean run");

    // One reply per line sent: 12 lines, 12 frames, nothing lost and
    // nothing duplicated — even across the graceful drain.
    assert_eq!(frames.len(), 12, "one reply per request: {frames:?}");
    let counts = kind_counts(&frames);
    assert_eq!(counts.get("malformed"), Some(&1), "{counts:?}");
    assert_eq!(counts.get("rejected"), Some(&1), "{counts:?}");
    assert_eq!(counts.get("deadline-exceeded"), Some(&1), "{counts:?}");
    assert_eq!(counts.get("draining"), Some(&1), "{counts:?}");
    assert!(counts.get("overloaded").is_some_and(|&n| n >= 1), "{counts:?}");
    let stats_frames = frames.iter().filter(|f| matches!(f, ServerFrame::Stats(_))).count();
    assert_eq!(stats_frames, 1, "the shutdown ack is a stats snapshot");

    // The error frames carry the ids they belong to.
    for frame in &frames {
        if let ServerFrame::Error(e) = frame {
            match e.kind {
                ErrorKind::Malformed => assert_eq!(e.id, None, "garbage has no id"),
                ErrorKind::Rejected => assert_eq!(e.id, Some(900)),
                ErrorKind::DeadlineExceeded => assert_eq!(e.id, Some(2)),
                ErrorKind::Draining => assert_eq!(e.id, Some(30)),
                ErrorKind::Overloaded => {
                    assert!(e.id.is_some_and(|id| (10..16).contains(&id)), "{e:?}");
                    assert!(e.message.starts_with("request queue at capacity (2)"), "{e:?}");
                }
                ErrorKind::Throttled => panic!("throttling is disabled here: {e:?}"),
            }
        }
    }

    // Every campaign that did run came back bit-identical to the serial
    // reference, drain or no drain.
    for frame in &frames {
        if let ServerFrame::Response(response) = frame {
            let reference = if response.id == heavy.id {
                serial_reference(&heavy)
            } else {
                serial_reference(&request(response.id, 20, response.id))
            };
            assert_eq!(response.report, reference, "request {} diverged", response.id);
        }
    }
}

/// The token bucket refuses a burst past its capacity with `throttled`
/// frames — the admitted request still completes — and the counter shows
/// up in the stats frame.
#[test]
fn admission_flood_is_throttled_not_queued() {
    let config = NetServerConfig {
        server: ServerConfig::with_workers(1).with_queue_capacity(8),
        // One token, effectively no refill: the second request must be
        // refused at admission, before it can touch the queue.
        admission: AdmissionConfig { burst: 1, refill_per_sec: 1e-6, staging_capacity: 8 },
    };
    let (addr, handle, server) = serve(config);
    let mut conn = RawConn::open(addr);

    // Strict request/reply: waiting for each frame keeps the shutdown
    // below from racing the reader.
    conn.send(&wire::encode_request_frame(&request(1, 20, 3), None));
    let first = conn.recv();
    conn.send(&wire::encode_request_frame(&request(2, 20, 4), None));
    let second = conn.recv();
    conn.send(&wire::encode_stats_request());
    let third = conn.recv();
    handle.shutdown();

    let frames = vec![first, second, third];
    assert!(conn.read_to_eof().is_empty(), "no stray frames after the drain");
    server.join().expect("server thread must not panic").expect("clean run");
    let counts = kind_counts(&frames);
    assert_eq!(counts.get("throttled"), Some(&1), "{counts:?}");
    let mut saw_response = false;
    for frame in &frames {
        match frame {
            ServerFrame::Response(response) => {
                assert_eq!(response.id, 1, "only the admitted request runs");
                assert_eq!(response.report, serial_reference(&request(1, 20, 3)));
                saw_response = true;
            }
            ServerFrame::Error(e) => assert_eq!((e.kind, e.id), (ErrorKind::Throttled, Some(2))),
            ServerFrame::Stats(fields) => {
                let get = |name: &str| {
                    fields.iter().find(|(k, _)| k == name).map(|&(_, v)| v).unwrap_or(0)
                };
                assert_eq!(get("throttled"), 1, "admission refusals are counted");
            }
        }
    }
    assert!(saw_response, "the admitted request must complete: {frames:?}");
}

/// The two tests above, between them, put every registered kind on the
/// wire; this closes the loop against the registry. Six kinds registered,
/// six kinds exercised.
#[test]
fn the_suite_covers_the_whole_error_kind_registry() {
    let exercised =
        ["overloaded", "throttled", "deadline-exceeded", "malformed", "rejected", "draining"];
    assert_eq!(wire::registered_error_kinds().to_vec(), exercised.to_vec());
}

/// A line past [`wire::MAX_FRAME_BYTES`] is never buffered whole: it gets
/// exactly one anonymous `malformed` frame, the rest of it is discarded
/// through its newline, and the same connection goes on serving.
#[test]
fn oversize_line_gets_one_malformed_frame_and_the_connection_keeps_serving() {
    let config = NetServerConfig {
        server: ServerConfig::with_workers(1),
        admission: AdmissionConfig::default(),
    };
    let (addr, handle, server) = serve(config);
    let mut conn = RawConn::open(addr);
    let malformed_frames = |conn: &mut RawConn| {
        conn.send(&wire::encode_stats_request());
        match conn.recv() {
            ServerFrame::Stats(fields) => {
                fields.iter().find(|(k, _)| k == "malformed_frames").map(|&(_, v)| v)
            }
            other => panic!("expected a stats frame, got {other:?}"),
        }
    };
    let before = malformed_frames(&mut conn).expect("counter on the wire");

    conn.send(&"x".repeat(2 * wire::MAX_FRAME_BYTES as usize));
    match conn.recv() {
        ServerFrame::Error(e) => {
            assert_eq!((e.kind, e.id), (ErrorKind::Malformed, None));
            assert!(e.message.contains("exceeds"), "refused by the cap, not the decoder: {e:?}");
        }
        other => panic!("expected a malformed frame, got {other:?}"),
    }
    // Strict request/reply from here: a second reply to the long line
    // would surface as the answer to one of these.
    let req = request(1, 20, 3);
    conn.send(&wire::encode_request_frame(&req, None));
    match conn.recv() {
        ServerFrame::Response(response) => {
            assert_eq!((response.id, &response.report), (1, &serial_reference(&req)));
        }
        other => panic!("expected the campaign's response, got {other:?}"),
    }
    assert_eq!(malformed_frames(&mut conn), Some(before + 1));

    handle.shutdown();
    assert!(conn.read_to_eof().is_empty(), "one reply per line, nothing stray");
    server.join().expect("server thread must not panic").expect("clean run");
}

/// A line that is not UTF-8 gets one anonymous `malformed` frame, like
/// any undecodable line, and the connection keeps serving: a campaign
/// sent after it on the same connection comes back equal to `run_serial`.
#[test]
fn a_line_that_is_not_utf8_gets_one_malformed_frame_and_the_connection_keeps_serving() {
    let config =
        NetServerConfig { server: ServerConfig::with_workers(1), ..NetServerConfig::default() };
    let (addr, handle, server) = serve(config);
    let mut conn = RawConn::open(addr);
    conn.writer.write_all(b"\xff\xfe{}\n").expect("send bytes");
    match conn.recv() {
        ServerFrame::Error(e) => assert_eq!((e.kind, e.id), (ErrorKind::Malformed, None)),
        other => panic!("expected a malformed frame, got {other:?}"),
    }
    let req = request(1, 20, 3);
    conn.send(&wire::encode_request_frame(&req, None));
    match conn.recv() {
        ServerFrame::Response(response) => {
            assert_eq!((response.id, &response.report), (1, &serial_reference(&req)));
        }
        other => panic!("expected the campaign's response, got {other:?}"),
    }
    assert_eq!(stat(&mut conn, "malformed_frames"), 1);
    drain(&handle, server);
    assert!(conn.read_to_eof().is_empty(), "one reply per line, nothing stray");
}

/// Chaos sweep: three well-behaved clients run campaigns while one
/// connection dies mid-request, one sends truncated garbage, and one
/// floods far past the admission burst without ever reading a reply.
/// No worker panics, the survivors' sweeps are bit-identical to the
/// serial reference, the bounded queue never exceeds its capacity, and
/// the drain still exits cleanly.
#[test]
fn killed_and_flooding_connections_leave_survivors_bit_identical() {
    use spottune_client::{Client, RetryPolicy};

    const QUEUE_CAPACITY: usize = 8;
    let config = NetServerConfig {
        server: ServerConfig::with_workers(2).with_queue_capacity(QUEUE_CAPACITY),
        admission: AdmissionConfig::default(),
    };
    let (addr, _handle, server) = serve(config);

    // Chaos, first wave: a connection that sends garbage plus a truncated
    // frame and vanishes, and one that dies mid-request (a valid campaign
    // whose reply has nowhere to go). The garbage sender waits for its
    // first error frame before dying — a drop with replies still unread
    // resets the connection, and the reset may discard input the server
    // has not processed yet.
    {
        let mut garbage = RawConn::open(addr);
        garbage.send("{\"id\":");
        match garbage.recv() {
            ServerFrame::Error(e) => assert_eq!((e.kind, e.id), (ErrorKind::Malformed, None)),
            other => panic!("expected a malformed frame, got {other:?}"),
        }
        garbage.writer.write_all(b"{\"truncated").expect("half frame");
        drop(garbage);
        let mut killer = RawConn::open(addr);
        killer.send(&wire::encode_request_frame(&request(777, 60, 77), None));
        drop(killer);
    }

    // Survivors: three concurrent clients, six campaigns each, seeded
    // deterministic retry absorbing any transient overloads.
    let survivors: Vec<JoinHandle<Vec<CampaignResponse>>> = (0..3u64)
        .map(|k| {
            let addr = addr.to_string();
            std::thread::spawn(move || {
                let retry = RetryPolicy::default().with_seed(k).with_max_attempts(8);
                let mut client =
                    Client::connect(&addr).expect("survivor connects").with_retry(retry);
                (0..6u64)
                    .map(|i| {
                        let req = request(100 * (k + 1) + i, 20, 50 + i);
                        client.run_campaign(&req, None).expect("survivor response")
                    })
                    .collect()
            })
        })
        .collect();

    // Chaos, second wave: a flood far past the 64-token burst. The
    // flooder reads just long enough to see admission kick in (so the
    // teardown reset cannot discard the still-unprocessed flood), then
    // dies with the rest of its replies in flight.
    {
        let mut flood = RawConn::open(addr);
        for id in 5000..5120u64 {
            flood.send(&wire::encode_request_frame(&request(id, 20, id), None));
        }
        let throttled = (0..120)
            .map(|_| flood.recv())
            .any(|frame| matches!(frame, ServerFrame::Error(e) if e.kind == ErrorKind::Throttled));
        assert!(throttled, "a 120-request burst must out-run the 64-token bucket");
        drop(flood);
    }

    for (k, survivor) in survivors.into_iter().enumerate() {
        let responses = survivor.join().expect("survivor thread must not panic");
        assert_eq!(responses.len(), 6);
        for (i, response) in responses.iter().enumerate() {
            let req = request(100 * (k as u64 + 1) + i as u64, 20, 50 + i as u64);
            assert_eq!(response.id, req.id, "strict request/reply keeps attribution");
            assert_eq!(
                response.report,
                serial_reference(&req),
                "survivor {k} request {} diverged under chaos",
                req.id
            );
        }
    }

    // The flood was refused at admission, the garbage was counted, and
    // the bounded queue honoured its bound throughout.
    let mut admin = Client::connect(&addr.to_string()).expect("admin client");
    let stats = admin.stats().expect("stats frame");
    let get = |name: &str| stats.iter().find(|(k, _)| k == name).map(|&(_, v)| v).unwrap_or(0);
    assert!(get("throttled") >= 1, "the flood must out-run the token bucket: {stats:?}");
    assert!(get("malformed_frames") >= 1, "garbage must be counted: {stats:?}");
    assert_eq!(get("queue_capacity"), QUEUE_CAPACITY as u64);
    assert!(
        get("peak_queue_depth") <= QUEUE_CAPACITY as u64,
        "bounded queue exceeded its capacity: {stats:?}"
    );
    assert!(get("completed") >= 18, "all survivor campaigns completed: {stats:?}");

    // Graceful drain over the wire; the ack is the final snapshot.
    let final_stats = admin.shutdown_server().expect("shutdown ack");
    assert!(!final_stats.is_empty());
    server.join().expect("server thread must not panic").expect("clean run");
}

/// Responses queued at shutdown time are flushed before the sockets
/// close: a client that fires a batch and immediately asks for shutdown
/// still gets every response, bit-identical to the serial reference.
#[test]
fn graceful_drain_flushes_every_pending_response() {
    let config = NetServerConfig {
        server: ServerConfig::with_workers(1).with_queue_capacity(8),
        admission: AdmissionConfig::default(),
    };
    let (addr, _handle, server) = serve(config);
    let mut conn = RawConn::open(addr);

    let requests: Vec<CampaignRequest> = (1..=3).map(|id| request(id, 25, id)).collect();
    for req in &requests {
        conn.send(&wire::encode_request_frame(req, None));
    }
    conn.send(&wire::encode_shutdown_request());

    let frames = conn.read_to_eof();
    server.join().expect("server thread must not panic").expect("clean run");

    assert_eq!(frames.len(), 4, "three responses and the shutdown ack: {frames:?}");
    let mut seen = Vec::new();
    for frame in frames {
        if let ServerFrame::Response(response) = frame {
            let req = &requests[(response.id - 1) as usize];
            assert_eq!(response.report, serial_reference(req), "request {}", response.id);
            seen.push(response.id);
        }
    }
    seen.sort_unstable();
    assert_eq!(seen, vec![1, 2, 3], "the drain must flush every pending response");
}

/// A line of `[` one byte short of [`wire::MAX_FRAME_BYTES`] fits the
/// frame cap, so it reaches the decoder, which refuses it at
/// [`wire::MAX_DEPTH`] instead of recursing half a million levels down the
/// reader's stack: exactly one `malformed` frame, the connection keeps
/// serving, and so does the server.
#[test]
fn a_line_of_brackets_gets_one_malformed_frame_and_the_server_keeps_serving() {
    let config =
        NetServerConfig { server: ServerConfig::with_workers(1), ..NetServerConfig::default() };
    let (addr, handle, server) = serve(config);
    let mut conn = RawConn::open(addr);
    conn.send(&"[".repeat(wire::MAX_FRAME_BYTES as usize - 1));
    match conn.recv() {
        ServerFrame::Error(e) => {
            assert_eq!((e.kind, e.id), (ErrorKind::Malformed, None));
            assert!(e.message.contains("nesting deeper than"), "refused by the depth cap: {e:?}");
        }
        other => panic!("expected a malformed frame, got {other:?}"),
    }
    // Strict request/reply from here: a second reply to the long line
    // would surface as the answer to the stats request.
    assert_eq!(stat(&mut conn, "malformed_frames"), 1);

    let mut other = RawConn::open(addr);
    let req = request(1, 20, 3);
    other.send(&wire::encode_request_frame(&req, None));
    match other.recv() {
        ServerFrame::Response(response) => {
            assert_eq!((response.id, &response.report), (1, &serial_reference(&req)));
        }
        other => panic!("expected the campaign's response, got {other:?}"),
    }

    drain(&handle, server);
    assert!(conn.read_to_eof().is_empty(), "one reply per line, nothing stray");
    assert!(other.read_to_eof().is_empty(), "one reply per line, nothing stray");
}

/// Fairness: one worker, connection A with about fifty requests queued,
/// then connection B sends one. The workers serve the lanes round robin,
/// so B waits for at most the campaign running and one more of A's — its
/// reply arrives before A's fourth since B sent. (Behind a single FIFO, B
/// would wait for all of A's backlog.) Every reply equals `run_serial`.
#[test]
fn a_backlogged_connection_does_not_hold_back_another() {
    let config = NetServerConfig { server: ServerConfig::with_workers(1), admission: UNTHROTTLED };
    let (addr, handle, server) = serve(config);
    let backlog: Vec<CampaignRequest> = (0..50).map(|i| request(1000 + i, 600, i)).collect();
    let mut a = RawConn::open(addr);
    for req in &backlog {
        a.send_whole(&wire::encode_request_frame(req, None));
    }
    // A's replies are counted as they arrive.
    let a_replies = Arc::new(AtomicUsize::new(0));
    let a_reader = {
        let a_replies = Arc::clone(&a_replies);
        std::thread::spawn(move || {
            let frames: Vec<ServerFrame> = (0..50)
                .map(|_| {
                    let frame = a.recv();
                    a_replies.fetch_add(1, Ordering::SeqCst);
                    frame
                })
                .collect();
            (frames, a)
        })
    };

    let mut b = RawConn::open(addr);
    await_stat(&mut b, "queue_depth", LIVENESS, |depth| depth >= 40);
    let lone = request(2000, 20, 99);
    let before = a_replies.load(Ordering::SeqCst);
    b.send_whole(&wire::encode_request_frame(&lone, None));
    let reply = b.recv();
    let overtaken_by = a_replies.load(Ordering::SeqCst) - before;
    assert!(overtaken_by < 4, "B's one request waited behind {overtaken_by} of A's");
    match reply {
        ServerFrame::Response(response) => {
            assert_eq!((response.id, &response.report), (lone.id, &serial_reference(&lone)));
        }
        other => panic!("expected B's response, got {other:?}"),
    }

    let (frames, a) = a_reader.join().expect("A's reader must not panic");
    let mut ids = Vec::new();
    for frame in frames {
        let ServerFrame::Response(response) = frame else {
            panic!("expected only responses on A, got {frame:?}");
        };
        let req = &backlog[(response.id - 1000) as usize];
        assert_eq!(response.report, serial_reference(req), "request {}", response.id);
        ids.push(response.id);
    }
    ids.sort_unstable();
    assert_eq!(ids, (1000..1050).collect::<Vec<_>>());
    drain(&handle, server);
    assert!(a.read_to_eof().is_empty(), "one reply per request, nothing stray");
}

/// Replies on one connection are written in completion order: a pipelined
/// mix of long and short campaigns on two workers gets every id exactly
/// once, each bit-identical to `run_serial`, in whatever order they
/// finished.
#[test]
fn pipelined_replies_come_back_once_each_in_completion_order() {
    let config = NetServerConfig { server: ServerConfig::with_workers(2), admission: UNTHROTTLED };
    let (addr, handle, server) = serve(config);
    let requests: Vec<CampaignRequest> =
        (0..24).map(|i| request(i, if i % 3 == 0 { 200 } else { 20 }, i)).collect();
    let mut conn = RawConn::open(addr);
    for req in &requests {
        conn.send_whole(&wire::encode_request_frame(req, None));
    }
    let mut ids: Vec<u64> = (0..requests.len())
        .map(|_| match conn.recv() {
            ServerFrame::Response(response) => {
                let req = &requests[response.id as usize];
                assert_eq!(response.report, serial_reference(req), "request {}", response.id);
                response.id
            }
            other => panic!("expected a response, got {other:?}"),
        })
        .collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..24).collect::<Vec<_>>(), "every id exactly once");
    drain(&handle, server);
    assert!(conn.read_to_eof().is_empty(), "one reply per request, nothing stray");
}

/// A client that pipelines requests and never reads fills its socket
/// buffers, so a write to it stalls. Its replies go to a flusher thread,
/// not a worker, so a second connection's strict request/reply is answered
/// promptly and bit-identical to `run_serial`. [`WRITE_STALL`] after it
/// fell behind the silent client is disconnected, and the graceful drain
/// returns.
#[test]
fn a_client_that_never_reads_is_cut_off_without_stalling_the_others() {
    let config = NetServerConfig { server: ServerConfig::with_workers(2), admission: UNTHROTTLED };
    let (addr, handle, server) = serve(config);

    // Pipeline until the server stops taking bytes: its reader is then
    // parked behind a write to this client that cannot progress.
    let silent = TcpStream::connect(addr).expect("connect");
    silent.set_write_timeout(Some(Duration::from_millis(200))).expect("write timeout");
    let line = format!("{}\n", wire::encode_request_frame(&request(1, 20, 1), None));
    let mut lines = 0u64;
    while (&silent).write_all(line.as_bytes()).is_ok() {
        lines += 1;
        assert!(lines < 1_000_000, "the server never stopped reading a client that never reads");
    }

    let mut b = RawConn::open(addr);
    for i in 0..3 {
        let req = request(500 + i, 20, 60 + i);
        let sent = Instant::now();
        b.send_whole(&wire::encode_request_frame(&req, None));
        match b.recv() {
            ServerFrame::Response(response) => {
                assert_eq!((response.id, &response.report), (req.id, &serial_reference(&req)));
            }
            other => panic!("expected B's response, got {other:?}"),
        }
        let waited = sent.elapsed();
        assert!(waited < WRITE_STALL / 2, "B waited {waited:?} behind the silent client");
    }

    // The flusher gives up after WRITE_STALL; the silent client's
    // connection is shut down and its reader exits.
    await_stat(&mut b, "connections_active", WRITE_STALL + LIVENESS, |active| active == 1);
    drain(&handle, server);
    drop(silent);
}

/// A client that keeps pipelining but reads only a few KB a second never
/// catches up on its replies, yet every send to it makes some progress.
/// Its backlog is written by a flusher thread, so on a one-worker server
/// a second connection's round trips stay prompt throughout, and the slow
/// client is cut off once it has been behind for [`WRITE_STALL`].
#[test]
fn a_client_that_reads_too_slowly_is_cut_off_without_holding_the_worker() {
    let config = NetServerConfig { server: ServerConfig::with_workers(1), admission: UNTHROTTLED };
    let (addr, handle, server) = serve(config);
    let started = Instant::now();
    let slow = TcpStream::connect(addr).expect("connect");
    slow.set_write_timeout(Some(Duration::from_millis(50))).expect("write timeout");
    slow.set_read_timeout(Some(Duration::from_millis(50))).expect("read timeout");
    let stop = Arc::new(AtomicBool::new(false));
    let pipeliner = {
        let (slow, stop) = (slow.try_clone().expect("clone"), Arc::clone(&stop));
        let line = format!("{}\n", wire::encode_request_frame(&request(1, 20, 1), None));
        std::thread::spawn(move || {
            let mut at = 0;
            while !stop.load(Ordering::SeqCst) {
                match (&slow).write(&line.as_bytes()[at..]) {
                    Ok(n) => at = (at + n) % line.len(),
                    Err(e) if timed_out(&e) => {}
                    Err(_) => return,
                }
            }
        })
    };
    let trickle = {
        let (slow, stop) = (slow.try_clone().expect("clone"), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut buf = [0u8; 2048];
            while !stop.load(Ordering::SeqCst) {
                match (&slow).read(&mut buf) {
                    Ok(0) => return,
                    Ok(_) => std::thread::sleep(Duration::from_millis(250)),
                    Err(e) if timed_out(&e) => {}
                    Err(_) => return,
                }
            }
        })
    };

    let mut b = RawConn::open(addr);
    let mut round_trips = 0;
    while stat(&mut b, "connections_active") > 1 {
        assert!(
            started.elapsed() < WRITE_STALL + LIVENESS,
            "the slow client was not cut off within {:?}",
            WRITE_STALL + LIVENESS
        );
        let req = request(500 + round_trips, 20, 60 + round_trips);
        let sent = Instant::now();
        b.send_whole(&wire::encode_request_frame(&req, None));
        match b.recv() {
            ServerFrame::Response(response) => {
                assert_eq!((response.id, &response.report), (req.id, &serial_reference(&req)));
            }
            other => panic!("expected B's response, got {other:?}"),
        }
        let waited = sent.elapsed();
        assert!(waited < WRITE_STALL / 2, "B waited {waited:?} behind the slow client");
        round_trips += 1;
    }
    assert!(round_trips > 0, "the slow client was cut off before B's first round trip");
    stop.store(true, Ordering::SeqCst);
    pipeliner.join().expect("pipeliner must not panic");
    trickle.join().expect("trickle reader must not panic");
    drain(&handle, server);
}

/// A client that waits on each reply has its requests run by its
/// connection's reader in a parked worker's turn: on an idle two-worker
/// server every strict campaign after the warm-up counts in `reader_runs`,
/// and every reply equals `run_serial`.
#[test]
fn a_strict_client_is_served_by_its_reader() {
    use spottune_client::{Client, RetryPolicy};

    let config = NetServerConfig { server: ServerConfig::with_workers(2), admission: UNTHROTTLED };
    let (addr, handle, server) = serve(config);
    let mut client =
        Client::connect(&addr.to_string()).expect("connect").with_retry(RetryPolicy::none());
    let counters = |client: &mut Client| {
        let stats = client.stats().expect("stats");
        let get = |name: &str| stats.iter().find(|(k, _)| k == name).map_or(0, |&(_, v)| v);
        (get("reader_runs"), get("completed"))
    };
    // Warm-up: the workers may still be on their way to park.
    let warm = request(0, 20, 0);
    assert_eq!(client.run_campaign(&warm, None).expect("warm-up").report, serial_reference(&warm));
    let (runs, completed) = counters(&mut client);
    for id in 1..=20 {
        let req = request(id, 20, id);
        let response = client.run_campaign(&req, None).expect("response");
        assert_eq!((response.id, &response.report), (id, &serial_reference(&req)));
    }
    assert_eq!(
        counters(&mut client),
        (runs + 20, completed + 20),
        "every strict request ran on its reader"
    );
    drop(client);
    drain(&handle, server);
}

/// A pipelined burst sent in one write leaves frames behind each one the
/// reader takes, so every request goes through the fair queue to the
/// workers: `reader_runs` does not move and the queue fills.
#[test]
fn a_pipelined_burst_goes_through_the_queue() {
    let config = NetServerConfig { server: ServerConfig::with_workers(2), admission: UNTHROTTLED };
    let (addr, handle, server) = serve(config);
    let mut conn = RawConn::open(addr);
    let before = stat(&mut conn, "reader_runs");
    let burst: Vec<CampaignRequest> = (0..8).map(|i| request(i, 300, i)).collect();
    let frames: Vec<String> =
        burst.iter().map(|req| wire::encode_request_frame(req, None)).collect();
    conn.send_whole(&frames.join("\n"));
    let mut ids: Vec<u64> = (0..burst.len())
        .map(|_| match conn.recv() {
            ServerFrame::Response(response) => {
                let req = &burst[response.id as usize];
                assert_eq!(response.report, serial_reference(req), "request {}", response.id);
                response.id
            }
            other => panic!("expected a response, got {other:?}"),
        })
        .collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..8).collect::<Vec<_>>(), "every id exactly once");
    assert_eq!(stat(&mut conn, "reader_runs"), before, "a pipelined frame ran on its reader");
    assert!(stat(&mut conn, "peak_queue_depth") > 0, "the burst never queued");
    drain(&handle, server);
    assert!(conn.read_to_eof().is_empty(), "one reply per request, nothing stray");
}

/// Drain while a reader runs a campaign: connection A sends a heavy
/// campaign alone, which its reader runs; once B sees `reader_runs` move,
/// B asks for shutdown. A still gets its reply, equal to `run_serial`,
/// then EOF, and `run` returns in time.
#[test]
fn a_drain_waits_for_the_campaign_a_reader_is_running() {
    let config = NetServerConfig { server: ServerConfig::with_workers(2), admission: UNTHROTTLED };
    let (addr, _handle, server) = serve(config);
    let mut a = RawConn::open(addr);
    let mut b = RawConn::open(addr);
    let before = await_parked_worker(&mut b);
    let heavy = request(1, 600, 7);
    a.send_whole(&wire::encode_request_frame(&heavy, None));
    await_stat(&mut b, "reader_runs", LIVENESS, |runs| runs > before);
    b.send_whole(&wire::encode_shutdown_request());
    assert!(matches!(b.recv(), ServerFrame::Stats(_)), "the shutdown ack is a stats frame");
    let started = Instant::now();
    match a.recv() {
        ServerFrame::Response(response) => {
            assert_eq!((response.id, &response.report), (heavy.id, &serial_reference(&heavy)));
        }
        other => panic!("expected A's response, got {other:?}"),
    }
    assert!(a.read_to_eof().is_empty(), "one reply per request, then EOF");
    assert!(b.read_to_eof().is_empty(), "nothing after the shutdown ack");
    while !server.is_finished() {
        assert!(started.elapsed() < LIVENESS, "NetServer::run did not return within {LIVENESS:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
    server.join().expect("server thread must not panic").expect("clean run");
}
