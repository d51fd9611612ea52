//! Loopback soak of the real `spottune-serve` binary (the CI `tcp-soak`
//! job): four concurrent clients push 64 campaigns through a live TCP
//! service while one connection is killed mid-request and another floods
//! past the admission burst. Every surviving success frame is diffed
//! against [`CampaignRequest::run_serial`], the bounded queue never
//! exceeds its capacity, and the wire shutdown drains gracefully to
//! exit code 0.

use spottune_client::{Client, RetryPolicy};
use spottune_core::prelude::*;
use spottune_market::{EstimatorSpec, MarketScenario};
use spottune_mlsim::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

const CLIENTS: u64 = 4;
const CAMPAIGNS_PER_CLIENT: u64 = 16;
const QUEUE_CAPACITY: u64 = 16;

/// How long any one read from the server may block: a lost reply or a
/// missing announce line fails the soak instead of hanging it.
const PATIENCE: Duration = Duration::from_secs(30);

fn request(id: u64) -> CampaignRequest {
    let base = Workload::benchmark(Algorithm::LoR);
    CampaignRequest {
        id,
        approach: Approach::SpotTune { theta: 0.7 },
        workload: Workload::custom(Algorithm::LoR, 20, base.hp_grid()[..2].to_vec()),
        scenario: MarketScenario::from_days(1, 42),
        seed: 1000 + id,
        estimator: EstimatorSpec::default(),
    }
}

/// Starts the binary on an ephemeral port and parses the address it
/// announces on stdout (read on a helper thread, waited for at most
/// [`PATIENCE`]).
fn spawn_server() -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_spottune-serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--queue-capacity",
            &QUEUE_CAPACITY.to_string(),
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn spottune-serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line).map(|_| line);
        let _ = tx.send(read);
    });
    let line = match rx.recv_timeout(PATIENCE) {
        Ok(read) => read.expect("read announce line"),
        Err(_) => {
            // Killing the child closes the pipe, so the reader ends too.
            let _ = child.kill();
            panic!("spottune-serve announced no address within {PATIENCE:?}");
        }
    };
    reader.join().expect("announce reader");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected announce line {line:?}"))
        .to_string();
    (child, addr)
}

#[test]
fn soak_four_clients_with_chaos_then_graceful_exit() {
    let (mut child, addr) = spawn_server();

    // Chaos 1: a connection killed mid-request — garbage, then a valid
    // campaign whose reply has nowhere to go, then gone. It waits for
    // the malformed frame before dying so the teardown reset cannot
    // discard input the server has not read yet.
    {
        let stream = TcpStream::connect(&addr).expect("chaos connect");
        stream.set_read_timeout(Some(PATIENCE)).expect("read timeout");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut stream = stream;
        stream.write_all(b"{\"mid-frame garbage\n").expect("garbage");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("malformed frame");
        assert!(reply.contains("\"malformed\""), "got {reply:?}");
        let frame = spottune_core::wire::encode_request_frame(&request(9_000), None);
        stream.write_all(frame.as_bytes()).expect("doomed request");
        stream.write_all(b"\n").expect("newline");
    }

    // The survivors: four concurrent clients, sixteen campaigns each,
    // deterministic seeded retry absorbing transient refusals.
    let survivors: Vec<std::thread::JoinHandle<Vec<CampaignResponse>>> = (0..CLIENTS)
        .map(|k| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let retry = RetryPolicy::default().with_seed(k).with_max_attempts(8);
                let mut client =
                    Client::connect(&addr).expect("survivor connects").with_retry(retry);
                (0..CAMPAIGNS_PER_CLIENT)
                    .map(|i| {
                        let req = request(1_000 * (k + 1) + i);
                        client.run_campaign(&req, None).expect("survivor response")
                    })
                    .collect()
            })
        })
        .collect();

    // Chaos 2: a flood far past the 64-token admission burst. The
    // flooder reads just long enough to see a `throttled` refusal (so
    // its teardown reset cannot discard the unprocessed flood), then
    // dies with the rest of its replies in flight.
    {
        let mut flood = TcpStream::connect(&addr).expect("flood connect");
        flood.set_read_timeout(Some(PATIENCE)).expect("read timeout");
        let mut replies = BufReader::new(flood.try_clone().expect("clone"));
        for id in 5_000..5_120u64 {
            let frame = spottune_core::wire::encode_request_frame(&request(id), None);
            flood.write_all(frame.as_bytes()).expect("flood frame");
            flood.write_all(b"\n").expect("flood newline");
        }
        let mut throttled = false;
        for _ in 0..120 {
            let mut reply = String::new();
            assert!(replies.read_line(&mut reply).expect("flood reply") > 0, "early EOF");
            if reply.contains("\"throttled\"") {
                throttled = true;
                break;
            }
        }
        assert!(throttled, "a 120-request burst must out-run the 64-token bucket");
    }

    // Diff every surviving success frame against the serial reference.
    let pool = request(0).scenario.build();
    let curves = CurveCache::global();
    for (k, survivor) in survivors.into_iter().enumerate() {
        let responses = survivor.join().expect("survivor thread must not panic");
        assert_eq!(responses.len(), CAMPAIGNS_PER_CLIENT as usize);
        for (i, response) in responses.iter().enumerate() {
            let req = request(1_000 * (k as u64 + 1) + i as u64);
            assert_eq!(response.id, req.id, "strict request/reply keeps attribution");
            assert_eq!(
                response.report,
                req.run_serial(&pool, &curves),
                "client {k} request {} diverged over TCP",
                req.id
            );
        }
    }

    // The bounded queue held its bound through the whole soak, and the
    // chaos actually happened (flood throttled, garbage counted).
    let mut admin = Client::connect(&addr).expect("admin client");
    let stats = admin.stats().expect("stats frame");
    let get = |name: &str| stats.iter().find(|(n, _)| n == name).map(|&(_, v)| v).unwrap_or(0);
    assert_eq!(get("queue_capacity"), QUEUE_CAPACITY);
    assert!(
        get("peak_queue_depth") <= QUEUE_CAPACITY,
        "bounded queue exceeded its capacity: {stats:?}"
    );
    assert!(get("throttled") >= 1, "the flood must out-run the token bucket: {stats:?}");
    assert!(get("malformed_frames") >= 1, "garbage must be counted: {stats:?}");
    assert!(
        get("completed") >= CLIENTS * CAMPAIGNS_PER_CLIENT,
        "every survivor campaign completed: {stats:?}"
    );

    // Graceful drain over the wire: final stats ack, then exit code 0.
    let final_stats = admin.shutdown_server().expect("shutdown ack");
    assert!(!final_stats.is_empty(), "the shutdown ack carries the final counters");
    let status = child.wait().expect("server process");
    assert!(status.success(), "spottune-serve must drain and exit 0, got {status:?}");
}
