//! # spottune-client
//!
//! Blocking wire client for the `spottune-serve` TCP service: one
//! request per line, one reply per request (a campaign response or a
//! typed error frame), plus the `{"stats":true}` / `{"shutdown":true}`
//! admin frames.
//!
//! ## Framing
//!
//! Each frame, its trailing `\n` included, goes out in one `write` on a
//! `TCP_NODELAY` socket (set on every connect, reconnects included), so a
//! request never sits behind Nagle waiting for the server's delayed ACK.
//!
//! ## Deterministic retry
//!
//! Transient refusals (`overloaded`, `throttled`, `draining`) and
//! connection failures are retried with exponential backoff and jitter.
//! The backoff schedule is a *pure function* of
//! `(retry seed, request id, attempt)` via [`spottune_market::seeding`],
//! so a replayed run waits the exact same milliseconds at every step —
//! retries never make a campaign sweep less reproducible. Permanent
//! refusals (`malformed`, `rejected`, `deadline-exceeded`) surface
//! immediately.
//!
//! ```no_run
//! use spottune_client::{Client, RetryPolicy};
//! # use spottune_core::CampaignRequest;
//! # fn demo(request: CampaignRequest) -> Result<(), spottune_client::ClientError> {
//! let mut client = Client::connect("127.0.0.1:7915")?
//!     .with_retry(RetryPolicy::default().with_seed(42));
//! let response = client.run_campaign(&request, None)?;
//! println!("{}", response.report.summary());
//! # Ok(())
//! # }
//! ```

use spottune_core::wire::{self, ErrorFrame, ServerFrame};
use spottune_core::{CampaignRequest, CampaignResponse};
use spottune_market::seeding;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Everything that can go wrong on the client side of the wire.
#[derive(Debug)]
pub enum ClientError {
    /// Connecting, sending or receiving failed (after retries).
    Io(std::io::Error),
    /// The server's reply did not decode.
    Wire(wire::WireError),
    /// The server answered with a non-retryable error frame, or retries
    /// ran out on a retryable one.
    Server(ErrorFrame),
    /// The server closed the connection without answering (after
    /// retries).
    Disconnected,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Wire(e) => write!(f, "undecodable server frame: {e}"),
            ClientError::Server(frame) => {
                write!(f, "server refused ({}): {}", frame.kind, frame.message)
            }
            ClientError::Disconnected => f.write_str("server closed the connection mid-request"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Deterministic seeded retry: exponential backoff with jitter whose
/// schedule is a pure function of `(seed, request id, attempt)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per request, the first included; `1` disables
    /// retry entirely.
    pub max_attempts: u32,
    /// Backoff cap doubles from this base: attempt `n` waits up to
    /// `base_delay_ms << n` milliseconds.
    pub base_delay_ms: u64,
    /// Upper bound on any single wait.
    pub max_delay_ms: u64,
    /// Jitter seed; two clients with the same seed (and request ids)
    /// produce bit-identical schedules.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 5, base_delay_ms: 20, max_delay_ms: 2_000, seed: 0 }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> Self {
        RetryPolicy { max_attempts: 1, ..RetryPolicy::default() }
    }

    /// Builder-style jitter-seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style attempt-budget override (minimum 1).
    pub fn with_max_attempts(mut self, max_attempts: u32) -> Self {
        self.max_attempts = max_attempts.max(1);
        self
    }

    /// The wait before retry number `attempt` (1-based: attempt 0 is the
    /// first try and never waits) of request `request_id`. Pure:
    /// `backoff_ms(s, id, n)` is the same on every call, machine and
    /// replay. Jitter spans `[cap/2, cap)` — enough spread to break
    /// thundering herds, bounded below so backoff still backs off.
    pub fn backoff_ms(&self, request_id: u64, attempt: u32) -> u64 {
        if attempt == 0 {
            return 0;
        }
        let doubled = self
            .base_delay_ms
            .saturating_mul(1u64.checked_shl(attempt - 1).unwrap_or(u64::MAX));
        let cap = doubled.min(self.max_delay_ms).max(1);
        let u = seeding::unit_draw(self.seed, &[request_id, u64::from(attempt)]);
        let jittered = (cap as f64) * (0.5 + 0.5 * u);
        jittered as u64
    }
}

struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Connection {
    fn open(addr: &str) -> std::io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Connection { reader, writer: stream })
    }

    /// Sends one frame, newline included, in a single write and reads one
    /// reply line. `Ok(None)` means the server closed the connection; a
    /// reply longer than [`wire::MAX_FRAME_BYTES`] is a wire error (`take`
    /// bounds what one server-controlled line may buffer).
    fn round_trip(&mut self, frame: &str) -> Result<Option<String>, ClientError> {
        self.writer.write_all(format!("{frame}\n").as_bytes())?;
        let mut line = String::new();
        let read = (&mut self.reader).take(wire::MAX_FRAME_BYTES).read_line(&mut line)?;
        if read == 0 {
            return Ok(None);
        }
        if read as u64 == wire::MAX_FRAME_BYTES && !line.ends_with('\n') {
            return Err(ClientError::Wire(wire::WireError::from_message(format!(
                "reply frame exceeds {} bytes",
                wire::MAX_FRAME_BYTES
            ))));
        }
        Ok(Some(line.trim().to_string()))
    }
}

/// Blocking client for one `spottune-serve` endpoint. Reconnects lazily
/// after connection failures (subject to the retry budget).
pub struct Client {
    addr: String,
    retry: RetryPolicy,
    conn: Option<Connection>,
}

impl Client {
    /// Connects with the default retry policy.
    ///
    /// # Errors
    ///
    /// Returns the connect error; nothing is retried at construction.
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        let conn = Connection::open(addr)?;
        Ok(Client { addr: addr.to_string(), retry: RetryPolicy::default(), conn: Some(conn) })
    }

    /// Builder-style retry-policy override.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Client {
        self.retry = retry;
        self
    }

    fn conn(&mut self) -> std::io::Result<&mut Connection> {
        if self.conn.is_none() {
            self.conn = Some(Connection::open(&self.addr)?);
        }
        match self.conn.as_mut() {
            Some(conn) => Ok(conn),
            // Unreachable by construction; reported as an error rather
            // than panicking on a connection path.
            None => Err(std::io::Error::other("connection unavailable")),
        }
    }

    /// One attempt: send the frame, read the reply. A connection error,
    /// an oversize reply (its tail is still in the stream) or a server
    /// close drops the cached connection so the next attempt reconnects.
    fn attempt(&mut self, frame: &str) -> Result<ServerFrame, ClientError> {
        let outcome = match self.conn() {
            Ok(conn) => conn.round_trip(frame),
            Err(e) => Err(ClientError::Io(e)),
        };
        match outcome {
            Ok(Some(line)) => wire::decode_server_frame(&line).map_err(ClientError::Wire),
            Ok(None) => {
                self.conn = None;
                Err(ClientError::Disconnected)
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }

    /// Whether an attempt's failure is worth a retry.
    fn retryable(error: &ClientError) -> bool {
        match error {
            ClientError::Io(_) | ClientError::Disconnected => true,
            ClientError::Server(frame) => frame.kind.is_retryable(),
            ClientError::Wire(_) => false,
        }
    }

    /// Runs one campaign: sends the request (with an optional queue
    /// deadline in milliseconds) and waits for its reply, retrying
    /// transient failures per the [`RetryPolicy`].
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with the final error frame when the
    /// server refuses; [`ClientError::Io`]/[`ClientError::Disconnected`]
    /// when the connection dies and the retry budget runs out.
    pub fn run_campaign(
        &mut self,
        request: &CampaignRequest,
        deadline_ms: Option<u64>,
    ) -> Result<CampaignResponse, ClientError> {
        let frame = wire::encode_request_frame(request, deadline_ms);
        let mut last: Option<ClientError> = None;
        for attempt in 0..self.retry.max_attempts {
            let wait = self.retry.backoff_ms(request.id, attempt);
            if wait > 0 {
                std::thread::sleep(Duration::from_millis(wait));
            }
            match self.attempt(&frame) {
                Ok(ServerFrame::Response(response)) => return Ok(response),
                Ok(ServerFrame::Stats(_)) => {
                    return Err(ClientError::Wire(wire::WireError::from_message(
                        "stats frame answering a campaign request",
                    )))
                }
                Ok(ServerFrame::Error(frame)) => {
                    let error = ClientError::Server(frame);
                    if !Client::retryable(&error) {
                        return Err(error);
                    }
                    last = Some(error);
                }
                Err(error) => {
                    if !Client::retryable(&error) {
                        return Err(error);
                    }
                    last = Some(error);
                }
            }
        }
        Err(last.unwrap_or(ClientError::Disconnected))
    }

    /// Runs a sweep request-by-request (strict request/reply keeps frame
    /// attribution trivial), returning one verdict per request in
    /// request order. Individual refusals do not abort the sweep.
    pub fn run_sweep(
        &mut self,
        requests: &[CampaignRequest],
        deadline_ms: Option<u64>,
    ) -> Vec<Result<CampaignResponse, ClientError>> {
        requests.iter().map(|r| self.run_campaign(r, deadline_ms)).collect()
    }

    /// Fetches the server's flattened counter snapshot.
    ///
    /// # Errors
    ///
    /// Connection errors (after retries) or an unexpected frame shape.
    pub fn stats(&mut self) -> Result<Vec<(String, u64)>, ClientError> {
        self.admin(&wire::encode_stats_request())
    }

    /// Asks the server to drain gracefully; the reply is a final stats
    /// snapshot.
    ///
    /// # Errors
    ///
    /// Connection errors (after retries) or an unexpected frame shape.
    pub fn shutdown_server(&mut self) -> Result<Vec<(String, u64)>, ClientError> {
        self.admin(&wire::encode_shutdown_request())
    }

    fn admin(&mut self, frame: &str) -> Result<Vec<(String, u64)>, ClientError> {
        let mut last: Option<ClientError> = None;
        for attempt in 0..self.retry.max_attempts {
            let wait = self.retry.backoff_ms(0, attempt);
            if wait > 0 {
                std::thread::sleep(Duration::from_millis(wait));
            }
            match self.attempt(frame) {
                Ok(ServerFrame::Stats(fields)) => return Ok(fields),
                Ok(ServerFrame::Response(_)) => {
                    return Err(ClientError::Wire(wire::WireError::from_message(
                        "campaign response answering an admin frame",
                    )))
                }
                Ok(ServerFrame::Error(frame)) => {
                    let error = ClientError::Server(frame);
                    if !Client::retryable(&error) {
                        return Err(error);
                    }
                    last = Some(error);
                }
                Err(error) => {
                    if !Client::retryable(&error) {
                        return Err(error);
                    }
                    last = Some(error);
                }
            }
        }
        Err(last.unwrap_or(ClientError::Disconnected))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_is_deterministic_and_bounded() {
        let policy = RetryPolicy::default().with_seed(42);
        let replay = RetryPolicy::default().with_seed(42);
        for id in [0u64, 7, u64::MAX] {
            assert_eq!(policy.backoff_ms(id, 0), 0, "first attempt never waits");
            for attempt in 1..8 {
                let a = policy.backoff_ms(id, attempt);
                let b = replay.backoff_ms(id, attempt);
                assert_eq!(a, b, "same seed must replay bit-identically");
                let cap = (policy.base_delay_ms << (attempt - 1)).min(policy.max_delay_ms);
                assert!(a >= cap / 2, "jitter bounded below: {a} < {}/2", cap);
                assert!(a <= cap, "jitter bounded above: {a} > {cap}");
            }
        }
        // Different seeds and different request ids decorrelate.
        let other = RetryPolicy::default().with_seed(43);
        let same_seed_schedules: Vec<u64> = (1..6).map(|n| policy.backoff_ms(1, n)).collect();
        let other_seed: Vec<u64> = (1..6).map(|n| other.backoff_ms(1, n)).collect();
        let other_id: Vec<u64> = (1..6).map(|n| policy.backoff_ms(2, n)).collect();
        assert_ne!(same_seed_schedules, other_seed);
        assert_ne!(same_seed_schedules, other_id);
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        let policy = RetryPolicy {
            max_attempts: u32::MAX,
            base_delay_ms: u64::MAX / 2,
            max_delay_ms: 1_000,
            seed: 9,
        };
        // Huge attempt numbers shift past 64 bits; the schedule must
        // saturate at the cap, not wrap.
        for attempt in [1, 2, 63, 64, 65, 1_000] {
            let wait = policy.backoff_ms(5, attempt);
            assert!(wait <= 1_000, "cap respected at attempt {attempt}: {wait}");
            assert!(wait >= 500, "still backing off at attempt {attempt}: {wait}");
        }
    }

    #[test]
    fn oversize_reply_is_a_wire_error_not_an_unbounded_read() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        let addr = listener.local_addr().expect("bound").to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut request = String::new();
            BufReader::new(&stream).read_line(&mut request).expect("request line");
            // The client hangs up at the cap, so the tail of this may fail.
            let _ = stream.write_all("x".repeat(2 * wire::MAX_FRAME_BYTES as usize).as_bytes());
        });
        let mut client = Client::connect(&addr).expect("connect").with_retry(RetryPolicy::none());
        match client.stats() {
            Err(ClientError::Wire(e)) => assert!(e.to_string().contains("exceeds"), "{e}"),
            other => panic!("expected a wire error, got {other:?}"),
        }
        assert!(client.conn.is_none(), "the desynchronised connection is dropped");
        drop(client);
        server.join().expect("fake server must not panic");
    }

    #[test]
    fn retryability_follows_the_error_kind_registry() {
        use spottune_core::wire::ErrorKind;
        let server = |kind: ErrorKind| {
            ClientError::Server(ErrorFrame { id: Some(1), kind, message: String::new() })
        };
        assert!(Client::retryable(&server(ErrorKind::Overloaded)));
        assert!(Client::retryable(&server(ErrorKind::Throttled)));
        assert!(Client::retryable(&server(ErrorKind::Draining)));
        assert!(!Client::retryable(&server(ErrorKind::Malformed)));
        assert!(!Client::retryable(&server(ErrorKind::Rejected)));
        assert!(!Client::retryable(&server(ErrorKind::DeadlineExceeded)));
        assert!(Client::retryable(&ClientError::Disconnected));
        assert!(Client::retryable(&ClientError::Io(std::io::Error::other("gone"))));
        assert!(!Client::retryable(&ClientError::Wire(
            spottune_core::wire::WireError::from_message("bad frame")
        )));
    }
}
