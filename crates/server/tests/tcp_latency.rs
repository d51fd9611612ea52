//! Latency and liveness of the TCP front-end's socket path.
//!
//! * A round trip costs what the work behind it costs: a frame that left
//!   as two segments on a Nagle socket stalled ~44 ms per side for the
//!   peer's delayed ACK, so a stats or campaign round trip read ~88 ms.
//!   Medians must stay far below that.
//! * Workers and readers park while idle, so every event they must act
//!   on (a queued request, a hang-up, the drain) has to wake them. Each
//!   test below fails on a timeout instead of hanging if one of those
//!   wake-ups is lost.
//! * The server never depends on one segment per frame: a frame split
//!   into single-byte writes, or glued to half of the next, still gets
//!   exactly one reply.

use spottune_client::{Client, RetryPolicy};
use spottune_core::prelude::*;
use spottune_core::wire::{self, ServerFrame};
use spottune_market::{EstimatorSpec, MarketScenario};
use spottune_mlsim::prelude::*;
use spottune_server::net::{NetServer, NetServerConfig, ShutdownHandle};
use spottune_server::ServerConfig;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long a liveness test waits before calling a wake-up lost.
const LIVENESS: Duration = Duration::from_secs(5);

/// The tiny LoR campaign: 25 steps, 2 configurations, a 1-day scenario.
fn request(id: u64, seed: u64) -> CampaignRequest {
    let base = Workload::benchmark(Algorithm::LoR);
    CampaignRequest {
        id,
        approach: Approach::SpotTune { theta: 0.7 },
        workload: Workload::custom(Algorithm::LoR, 25, base.hp_grid()[..2].to_vec()),
        scenario: MarketScenario::from_days(1, 42),
        seed,
        estimator: EstimatorSpec::default(),
    }
}

fn serial_reference(request: &CampaignRequest) -> spottune_core::HptReport {
    let pool = request.scenario.build();
    request.run_serial(&pool, &CurveCache::global())
}

/// Binds an in-process front-end and serves it on a background thread
/// that reports `run`'s return on the channel, so a drain that never
/// finishes shows up as a `recv_timeout` failure rather than a hang.
fn serve() -> (SocketAddr, ShutdownHandle, mpsc::Receiver<std::io::Result<()>>) {
    let config =
        NetServerConfig { server: ServerConfig::with_workers(1), ..NetServerConfig::default() };
    let net = NetServer::bind("127.0.0.1:0", config).expect("bind ephemeral");
    let (addr, handle) = (net.local_addr(), net.handle());
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done_tx.send(net.run());
    });
    (addr, handle, done_rx)
}

/// Triggers the drain and requires `run` to return cleanly in time.
fn drain(handle: &ShutdownHandle, done: &mpsc::Receiver<std::io::Result<()>>) {
    handle.shutdown();
    match done.recv_timeout(LIVENESS) {
        Ok(result) => result.expect("clean run"),
        Err(e) => panic!("NetServer::run did not return within {LIVENESS:?} of shutdown: {e}"),
    }
}

fn median_ms(mut samples: Vec<Duration>) -> f64 {
    samples.sort_unstable();
    samples[samples.len() / 2].as_secs_f64() * 1e3
}

/// A raw connection with Nagle off: every `write` leaves as its own
/// segment, so the byte boundaries chosen here are the ones the server's
/// reader sees.
struct RawConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl RawConn {
    fn open(addr: SocketAddr) -> RawConn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        RawConn { reader: BufReader::new(stream.try_clone().expect("clone")), writer: stream }
    }

    fn write(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).expect("send");
    }

    fn recv(&mut self) -> ServerFrame {
        let mut line = String::new();
        assert!(self.reader.read_line(&mut line).expect("read frame") > 0, "unexpected EOF");
        wire::decode_server_frame(line.trim()).expect("decodable frame")
    }

    fn stats_round_trip(&mut self) {
        self.stat("workers");
    }

    /// One counter off a stats frame.
    fn stat(&mut self, name: &str) -> u64 {
        self.write(format!("{}\n", wire::encode_stats_request()).as_bytes());
        match self.recv() {
            ServerFrame::Stats(fields) => {
                fields.iter().find(|(k, _)| k == name).map_or(0, |&(_, v)| v)
            }
            other => panic!("expected a stats frame, got {other:?}"),
        }
    }

    /// Sends `req` alone and requires its reply, equal to `run_serial`,
    /// within [`LIVENESS`].
    fn round_trip(&mut self, req: &CampaignRequest) {
        self.write(format!("{}\n", wire::encode_request_frame(req, None)).as_bytes());
        self.expect_response(req);
    }

    fn expect_response(&mut self, req: &CampaignRequest) {
        self.writer.set_read_timeout(Some(LIVENESS)).expect("read timeout");
        match self.recv() {
            ServerFrame::Response(response) => {
                assert_eq!((response.id, &response.report), (req.id, &serial_reference(req)));
            }
            other => panic!("expected the response to {}, got {other:?}", req.id),
        }
    }

    /// Reads until the server closes the connection.
    fn read_to_eof(mut self) -> Vec<String> {
        drop(self.writer);
        let mut lines = Vec::new();
        let mut line = String::new();
        while self.reader.read_line(&mut line).expect("read frame") > 0 {
            lines.push(std::mem::take(&mut line));
        }
        lines
    }
}

/// The stall regression: twenty stats and twenty campaign round trips on
/// one client, each campaign bit-identical to `run_serial`, and the median
/// of each set under 10 ms. A split frame on a Nagle socket puts both
/// medians near 88 ms.
#[test]
fn round_trips_cost_the_work_not_a_delayed_ack() {
    let (addr, handle, done) = serve();
    let mut client = Client::connect(&addr.to_string())
        .expect("connect")
        .with_retry(RetryPolicy::none());
    let campaign = |id| request(id, 3);
    let reference = serial_reference(&campaign(0));
    // Warm-up: the first campaign builds the pool and curve tiers.
    client.stats().expect("stats");
    assert_eq!(client.run_campaign(&campaign(0), None).expect("warm-up").report, reference);

    let mut stats_rtt = Vec::new();
    for _ in 0..20 {
        let start = Instant::now();
        let fields = client.stats().expect("stats");
        stats_rtt.push(start.elapsed());
        assert!(!fields.is_empty());
    }
    let mut campaign_rtt = Vec::new();
    for id in 1..=20 {
        let start = Instant::now();
        let response = client.run_campaign(&campaign(id), None).expect("response");
        campaign_rtt.push(start.elapsed());
        assert_eq!((response.id, &response.report), (id, &reference), "request {id}");
    }

    let (stats_p50, campaign_p50) = (median_ms(stats_rtt), median_ms(campaign_rtt));
    assert!(stats_p50 < 10.0, "stats round trip median {stats_p50:.3} ms");
    assert!(campaign_p50 < 10.0, "campaign round trip median {campaign_p50:.3} ms");
    drop(client);
    drain(&handle, &done);
}

/// Drain wake-up: three idle connections and nothing queued leave the
/// workers parked on the empty fair queue and the readers on their
/// sockets; the drain must close the queue and the sockets, or `run`
/// never returns.
#[test]
fn idle_server_drains_promptly() {
    let (addr, handle, done) = serve();
    let mut conns: Vec<RawConn> = (0..3).map(|_| RawConn::open(addr)).collect();
    // A reply proves each connection has its reader, i.e. is registered.
    for conn in &mut conns {
        conn.stats_round_trip();
    }
    drain(&handle, &done);
    for conn in conns {
        assert!(conn.read_to_eof().is_empty(), "no stray frames after the drain");
    }
}

/// After 300 ms without traffic the worker is parked on the empty queue;
/// a request on a fresh connection must still be answered. A lone request
/// runs on its reader in the parked worker's turn; the queue-push wake-up
/// is the next test's.
#[test]
fn request_after_an_idle_spell_is_answered() {
    let (addr, handle, done) = serve();
    std::thread::sleep(Duration::from_millis(300));
    let req = request(7, 11);
    let (reply_tx, reply_rx) = mpsc::channel();
    {
        let (addr, req) = (addr.to_string(), req.clone());
        std::thread::spawn(move || {
            let mut client =
                Client::connect(&addr).expect("connect").with_retry(RetryPolicy::none());
            let _ = reply_tx.send(client.run_campaign(&req, None));
        });
    }
    let response = match reply_rx.recv_timeout(LIVENESS) {
        Ok(reply) => reply.expect("response"),
        Err(e) => panic!("no reply within {LIVENESS:?}: {e}"),
    };
    assert_eq!((response.id, &response.report), (7, &serial_reference(&req)));
    drain(&handle, &done);
}

/// Push wake-up: after an idle spell, two frames in one write. The reader
/// sees the second behind the first, so both go through the queue, and the
/// parked worker must wake for them.
#[test]
fn pipelined_requests_after_an_idle_spell_wake_the_worker() {
    let (addr, handle, done) = serve();
    std::thread::sleep(Duration::from_millis(300));
    let mut conn = RawConn::open(addr);
    let (first, second) = (request(1, 21), request(2, 22));
    let frames = [first.clone(), second.clone()]
        .map(|req| format!("{}\n", wire::encode_request_frame(&req, None)));
    conn.write(frames.concat().as_bytes());
    let mut seen = Vec::new();
    for _ in 0..2 {
        conn.writer.set_read_timeout(Some(LIVENESS)).expect("read timeout");
        match conn.recv() {
            ServerFrame::Response(response) => {
                let req = if response.id == 1 { &first } else { &second };
                assert_eq!(response.report, serial_reference(req), "request {}", response.id);
                seen.push(response.id);
            }
            other => panic!("expected a response, got {other:?}"),
        }
    }
    seen.sort_unstable();
    assert_eq!(seen, vec![1, 2]);
    assert_eq!(conn.stat("reader_runs"), 0, "a pipelined frame ran on its reader");
    drain(&handle, &done);
}

/// Give-back wake-up: one worker, whose turn A's reader holds on a heavy
/// campaign. B's request queues meanwhile; once A's reader is done and
/// gives the turn back, the worker must wake and answer B — after A.
#[test]
fn a_request_queued_behind_a_lent_turn_is_answered_after_it() {
    let (addr, handle, done) = serve();
    let mut b = RawConn::open(addr);
    // Strict round trips until one runs on its reader: the worker is parked.
    let deadline = Instant::now() + LIVENESS;
    for id in 100.. {
        b.round_trip(&request(id, id));
        if b.stat("reader_runs") > 0 {
            break;
        }
        assert!(Instant::now() < deadline, "no request ever ran on its reader");
    }
    let runs = b.stat("reader_runs");
    let mut a = RawConn::open(addr);
    let heavy = CampaignRequest {
        workload: Workload::custom(Algorithm::LoR, 600, request(1, 7).workload.hp_grid().to_vec()),
        ..request(1, 7)
    };
    a.write(format!("{}\n", wire::encode_request_frame(&heavy, None)).as_bytes());
    while b.stat("reader_runs") == runs {
        assert!(Instant::now() < deadline + LIVENESS, "A's campaign never ran on its reader");
    }
    let queued = request(2, 8);
    b.round_trip(&queued);
    // A's reader wrote its reply before giving the turn back.
    a.writer.set_nonblocking(true).expect("nonblocking");
    assert!(a.reader.fill_buf().is_ok_and(|buf| !buf.is_empty()), "B was answered before A");
    a.writer.set_nonblocking(false).expect("blocking");
    a.expect_response(&heavy);
    assert_eq!(b.stat("reader_runs"), runs + 1, "B's request ran on its reader");
    assert!(b.stat("peak_queue_depth") >= 1, "B's request never queued");
    drain(&handle, &done);
}

/// EOF: a connection that hangs up with nothing queued retires its
/// reader at once; a graceful drain afterwards still exits cleanly.
#[test]
fn hang_up_then_drain_exits_cleanly() {
    let (addr, handle, done) = serve();
    let mut conn = RawConn::open(addr);
    conn.stats_round_trip();
    drop(conn);
    // A second connection that stays: the server keeps serving after the
    // hang-up, and its reply shows the hung-up reader has finished.
    let mut client = Client::connect(&addr.to_string()).expect("connect");
    let deadline = Instant::now() + LIVENESS;
    loop {
        let stats = client.stats().expect("stats");
        let active = stats.iter().find(|(k, _)| k == "connections_active").map(|&(_, v)| v);
        if active == Some(1) {
            break;
        }
        assert!(Instant::now() < deadline, "the hung-up connection never closed: {stats:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(client);
    drain(&handle, &done);
}

/// The reader reassembles frames from arbitrary segments: a request sent
/// one byte per `write`, then one `write` carrying a whole frame plus half
/// of the next, then the rest. Every frame gets exactly one reply, ids
/// match and reports equal `run_serial`.
#[test]
fn frames_split_across_segments_get_one_reply_each() {
    let (addr, handle, done) = serve();
    let mut conn = RawConn::open(addr);
    let frame = |req: &CampaignRequest| format!("{}\n", wire::encode_request_frame(req, None));
    let expect_response = |conn: &mut RawConn, req: &CampaignRequest| match conn.recv() {
        ServerFrame::Response(response) => {
            assert_eq!((response.id, &response.report), (req.id, &serial_reference(req)));
        }
        other => panic!("expected the response to {}, got {other:?}", req.id),
    };

    let first = request(1, 21);
    for byte in frame(&first).as_bytes() {
        conn.write(std::slice::from_ref(byte));
    }
    expect_response(&mut conn, &first);

    let (second, third) = (request(2, 22), request(3, 23));
    let third_frame = frame(&third);
    let (head, tail) = third_frame.as_bytes().split_at(third_frame.len() / 2);
    conn.write(&[frame(&second).as_bytes(), head].concat());
    expect_response(&mut conn, &second);
    conn.write(tail);
    expect_response(&mut conn, &third);

    drain(&handle, &done);
    assert!(conn.read_to_eof().is_empty(), "one reply per frame, nothing stray");
}
