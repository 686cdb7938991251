//! Blocking protocol client: timeouts, retry/backoff, stream re-attach.
//!
//! [`LineReader`] is a byte-buffered newline framer that survives read
//! timeouts: a `WouldBlock`/`TimedOut` error surfaces to the caller while
//! partially received bytes stay buffered, so the server's connection loops
//! can poll their drain flag between reads without tearing frames (and
//! without `BufReader::read_line`'s partial-UTF-8 hazards).
//!
//! [`Client`] is the blocking counterpart used by `serve_load`, the
//! integration tests and scripts: send one [`Request`], read one response
//! line. Every socket operation is bounded — [`ClientConfig`] carries
//! connect, read *and* write timeouts (`TcpStream::connect` alone would
//! block on the OS default, minutes on some stacks) — and the resolved
//! addresses are kept so [`Client::reconnect`] can rebuild the connection
//! after a failure.
//!
//! [`RetryPolicy`] is the disciplined retry path: jittered exponential
//! backoff under a total budget, with safe-to-retry classification —
//! transport failures and `503` (shed work, never started) retry;
//! `400`/`404`/`500` never do. Callers must only hand it idempotent
//! requests (cost queries, and `search/submit` and `fleet/submit`, whose
//! job id is the spec digest); blind retries of non-idempotent ops like
//! `campaign/submit` can duplicate work.
//!
//! [`StreamFollower`] rides a campaign event stream and, on EOF or timeout
//! mid-stream, reconnects and replays from the last seen event offset —
//! the server replays its event log from any `from`, so no event is lost
//! or duplicated.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use dance_telemetry::json::{self, Json};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::proto::{render_request, ReqBody, Request};

/// Byte-buffered newline framer over any reader.
#[derive(Debug)]
pub struct LineReader<R> {
    reader: R,
    buf: Vec<u8>,
}

impl<R: Read> LineReader<R> {
    /// Wraps a reader.
    pub fn new(reader: R) -> Self {
        Self {
            reader,
            buf: Vec::with_capacity(4096),
        }
    }

    /// Reads one `\n`-terminated line (terminator stripped, lossy UTF-8).
    ///
    /// Returns `Ok(None)` on a clean EOF. Unterminated trailing bytes at
    /// EOF are returned as a final line.
    ///
    /// # Errors
    ///
    /// Propagates transport errors; `WouldBlock`/`TimedOut` leave buffered
    /// bytes intact so the caller can simply retry.
    pub fn read_line(&mut self) -> io::Result<Option<String>> {
        loop {
            if let Some(pos) = self.buf.iter().position(|b| *b == b'\n') {
                let rest = self.buf.split_off(pos + 1);
                let mut line = std::mem::replace(&mut self.buf, rest);
                line.pop(); // the newline
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return Ok(Some(String::from_utf8_lossy(&line).into_owned()));
            }
            let mut chunk = [0u8; 4096];
            match self.reader.read(&mut chunk) {
                Ok(0) => {
                    if self.buf.is_empty() {
                        return Ok(None);
                    }
                    let line = String::from_utf8_lossy(&self.buf).into_owned();
                    self.buf.clear();
                    return Ok(Some(line));
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) => return Err(e),
            }
        }
    }
}

/// Socket timeout knobs for [`Client::connect_with`]. `None` means block
/// indefinitely — defaults bound everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// Per-address TCP connect budget (default 5 s).
    pub connect_timeout: Option<Duration>,
    /// Per-read budget (default 10 s).
    pub read_timeout: Option<Duration>,
    /// Per-write budget (default 10 s).
    pub write_timeout: Option<Duration>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Some(Duration::from_secs(5)),
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
        }
    }
}

impl ClientConfig {
    /// Uniform knobs from CLI-style millisecond values (`0` → unbounded).
    #[must_use]
    pub fn from_ms(connect_ms: u64, io_ms: u64) -> Self {
        let opt = |ms: u64| (ms > 0).then(|| Duration::from_millis(ms));
        Self {
            connect_timeout: opt(connect_ms),
            read_timeout: opt(io_ms),
            write_timeout: opt(io_ms),
        }
    }
}

/// Whether a transport error is safe to retry: the failure classes where
/// the request either never reached the server or the connection died
/// without a response — so re-sending an idempotent request cannot
/// double-apply it.
#[must_use]
pub fn retryable_io(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::NotConnected
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::TimedOut
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::UnexpectedEof
    )
}

/// Jittered exponential backoff under a total retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (default 4).
    pub attempts: u32,
    /// First backoff delay (default 50 ms); doubles per retry.
    pub base: Duration,
    /// Per-delay cap (default 2 s).
    pub cap: Duration,
    /// Total sleep budget across all retries (default 10 s).
    pub budget: Duration,
    /// Jitter RNG seed — deterministic per client, decorrelated across a
    /// fleet of clients seeded differently.
    pub seed: u64,
    /// Also retry `503` responses (shed work, never started). Leave off
    /// when the caller accounts sheds itself, as `serve_load` does.
    pub retry_on_503: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 4,
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
            budget: Duration::from_secs(10),
            seed: 0,
            retry_on_503: true,
        }
    }
}

impl RetryPolicy {
    /// The delay before retry number `retry` (0-based): `base · 2^retry`,
    /// capped, scaled by a jitter factor in `[0.5, 1.5)` so a thundering
    /// herd of clients decorrelates.
    #[must_use]
    pub fn backoff(&self, retry: u32, rng: &mut StdRng) -> Duration {
        let exp = self
            .base
            .saturating_mul(2u32.saturating_pow(retry))
            .min(self.cap);
        let jitter: f64 = 0.5 + rng.gen_range(0.0f64..1.0);
        Duration::from_secs_f64(exp.as_secs_f64() * jitter)
    }
}

/// A blocking protocol-v1 client over one TCP connection.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    reader: LineReader<TcpStream>,
    addrs: Vec<SocketAddr>,
    cfg: ClientConfig,
}

impl Client {
    /// Connects with default connect/write timeouts; `timeout` bounds each
    /// response read (`None` blocks). Prefer [`Client::connect_with`] for
    /// full control.
    ///
    /// # Errors
    ///
    /// Propagates connection/setup errors.
    pub fn connect(addr: impl ToSocketAddrs, timeout: Option<Duration>) -> io::Result<Self> {
        Self::connect_with(
            addr,
            ClientConfig {
                read_timeout: timeout,
                ..ClientConfig::default()
            },
        )
    }

    /// Resolves `addr` and connects to the first address that answers
    /// within `cfg.connect_timeout`, then applies the read/write timeouts.
    ///
    /// # Errors
    ///
    /// The last per-address connect error, or `AddrNotAvailable` when
    /// nothing resolves.
    pub fn connect_with(addr: impl ToSocketAddrs, cfg: ClientConfig) -> io::Result<Self> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let stream = connect_any(&addrs, &cfg)?;
        let reader = LineReader::new(stream.try_clone()?);
        Ok(Self {
            stream,
            reader,
            addrs,
            cfg,
        })
    }

    /// Drops the current connection and dials the same addresses again
    /// with the same timeouts. Any partially received bytes are discarded
    /// — after a reconnect the protocol starts from a clean frame.
    ///
    /// # Errors
    ///
    /// Propagates connection/setup errors.
    pub fn reconnect(&mut self) -> io::Result<()> {
        let stream = connect_any(&self.addrs, &self.cfg)?;
        self.reader = LineReader::new(stream.try_clone()?);
        self.stream = stream;
        dance_telemetry::counter!("serve.client.reconnects");
        Ok(())
    }

    /// Sends one request line and reads one response line (raw bytes, no
    /// trailing newline).
    ///
    /// # Errors
    ///
    /// Transport errors, including `UnexpectedEof` if the server closed
    /// the connection before answering.
    pub fn call_raw(&mut self, req: &Request) -> io::Result<String> {
        let mut line = render_request(req);
        line.push('\n');
        self.stream.write_all(line.as_bytes())?;
        self.reader
            .read_line()?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed connection"))
    }

    /// Reads one more response line without sending anything — the client
    /// side of a streaming op (`campaign/stream`), where the server writes
    /// an OK header and then one NDJSON event per line until the stream's
    /// terminal event.
    ///
    /// # Errors
    ///
    /// Transport errors; a read timeout surfaces as `WouldBlock`/`TimedOut`
    /// with any partial line preserved for the next call.
    pub fn read_stream_line(&mut self) -> io::Result<Option<String>> {
        self.reader.read_line()
    }

    /// Sends one request and parses the response as JSON.
    ///
    /// # Errors
    ///
    /// Transport errors, or `InvalidData` when the response line is not
    /// valid JSON.
    pub fn call(&mut self, req: &Request) -> io::Result<Json> {
        let line = self.call_raw(req)?;
        json::parse(&line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {e}")))
    }

    /// [`Client::call`] with retries: transport failures reconnect and
    /// re-send under `policy`'s jittered backoff and budget; `503`
    /// responses retry when the policy allows; every other response —
    /// including `400`/`404`/`500` errors — returns immediately.
    ///
    /// Only hand this idempotent requests; a retried non-idempotent op
    /// (e.g. `campaign/submit`) can duplicate work.
    ///
    /// # Errors
    ///
    /// The final transport error once attempts or budget run out.
    pub fn call_retry(&mut self, req: &Request, policy: &RetryPolicy) -> io::Result<Json> {
        let mut rng = StdRng::seed_from_u64(policy.seed);
        let mut spent = Duration::ZERO;
        let mut retry = 0u32;
        loop {
            let failure = match self.call(req) {
                Ok(resp) => {
                    let code = resp.get("code").and_then(Json::as_f64).map(|c| c as u16);
                    if policy.retry_on_503 && code == Some(503) {
                        None // shed before any work happened: safe to retry
                    } else {
                        return Ok(resp);
                    }
                }
                Err(e) if retryable_io(e.kind()) => Some(e),
                Err(e) => return Err(e),
            };
            let overloaded = || {
                io::Error::new(
                    io::ErrorKind::TimedOut,
                    "server overloaded (503) after all retries",
                )
            };
            if retry + 1 >= policy.attempts {
                return Err(failure.unwrap_or_else(overloaded));
            }
            let delay = policy.backoff(retry, &mut rng);
            if spent + delay > policy.budget {
                return Err(failure.unwrap_or_else(overloaded));
            }
            std::thread::sleep(delay);
            spent += delay;
            // A 503 came over a healthy connection — keep it. Transport
            // failures leave the stream in an unknown state, so dial
            // fresh. Best effort: if the server is still down the next
            // call fails fast with a retryable error and we land back
            // here.
            if failure.is_some() {
                let _unused = self.reconnect();
            }
            retry += 1;
            dance_telemetry::counter!("serve.client.retries");
        }
    }
}

fn connect_any(addrs: &[SocketAddr], cfg: &ClientConfig) -> io::Result<TcpStream> {
    let mut last_err: Option<io::Error> = None;
    for a in addrs {
        let attempt = match cfg.connect_timeout {
            Some(t) => TcpStream::connect_timeout(a, t),
            None => TcpStream::connect(a),
        };
        match attempt {
            Ok(stream) => {
                stream.set_nodelay(true)?;
                stream.set_read_timeout(cfg.read_timeout)?;
                stream.set_write_timeout(cfg.write_timeout)?;
                return Ok(stream);
            }
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.unwrap_or_else(|| {
        io::Error::new(io::ErrorKind::AddrNotAvailable, "no addresses resolved")
    }))
}

/// Follows a campaign event stream with transparent re-attach: on EOF or
/// read timeout mid-stream it reconnects and replays from the next unseen
/// event offset, so a server restart or connection blip costs latency, not
/// events. The stream ends at the `campaign_end` event.
#[derive(Debug)]
pub struct StreamFollower {
    client: Client,
    campaign: String,
    next_from: usize,
    policy: RetryPolicy,
    ended: bool,
}

impl StreamFollower {
    /// Issues `campaign/stream` from offset 0 over `client` and reads the
    /// OK header.
    ///
    /// # Errors
    ///
    /// Transport errors, or `InvalidData`/`NotFound` when the server
    /// rejects the stream request (e.g. unknown campaign).
    pub fn attach(client: Client, campaign: &str, policy: RetryPolicy) -> io::Result<Self> {
        let mut follower = Self {
            client,
            campaign: campaign.to_string(),
            next_from: 0,
            policy,
            ended: false,
        };
        follower.send_stream_request()?;
        Ok(follower)
    }

    fn send_stream_request(&mut self) -> io::Result<()> {
        let req = Request {
            id: format!("stream-{}", self.next_from),
            deadline_ms: None,
            body: ReqBody::CampaignStream {
                campaign: self.campaign.clone(),
                from: self.next_from,
            },
        };
        let header = self.client.call(&req)?;
        let ok = header.get("ok") == Some(&Json::Bool(true));
        if !ok {
            let msg = header
                .get("err")
                .and_then(Json::as_str)
                .unwrap_or("stream request rejected");
            let code = header.get("code").and_then(Json::as_f64).map(|c| c as u16);
            let kind = if code == Some(404) {
                io::ErrorKind::NotFound
            } else {
                io::ErrorKind::InvalidData
            };
            return Err(io::Error::new(kind, msg.to_string()));
        }
        Ok(())
    }

    /// The next event line, replaying across reconnects. `Ok(None)` once
    /// the stream's terminal `campaign_end` event has been delivered.
    ///
    /// # Errors
    ///
    /// The last transport error once the re-attach budget runs out.
    pub fn next_event(&mut self) -> io::Result<Option<String>> {
        if self.ended {
            return Ok(None);
        }
        loop {
            match self.client.read_stream_line() {
                Ok(Some(line)) => {
                    self.next_from += 1;
                    if line.contains("\"event\":\"campaign_end\"") {
                        self.ended = true;
                    }
                    return Ok(Some(line));
                }
                // EOF or timeout mid-stream: the server went away or the
                // stream stalled past the read timeout. Re-attach and
                // replay from the first unseen offset.
                Ok(None) => self.reattach()?,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    self.reattach()?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Events delivered so far — the offset a re-attach resumes from.
    #[must_use]
    pub fn offset(&self) -> usize {
        self.next_from
    }

    /// Gives the underlying client back (e.g. to issue a status call once
    /// the stream ends).
    #[must_use]
    pub fn into_client(self) -> Client {
        self.client
    }

    fn reattach(&mut self) -> io::Result<()> {
        let mut rng = StdRng::seed_from_u64(self.policy.seed ^ self.next_from as u64);
        let mut spent = Duration::ZERO;
        let mut last_err: Option<io::Error> = None;
        for retry in 0..self.policy.attempts {
            let delay = self.policy.backoff(retry, &mut rng);
            if spent + delay > self.policy.budget {
                break;
            }
            std::thread::sleep(delay);
            spent += delay;
            match self
                .client
                .reconnect()
                .and_then(|()| self.send_stream_request())
            {
                Ok(()) => {
                    dance_telemetry::counter!("serve.client.stream_reattach");
                    return Ok(());
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::TimedOut, "stream re-attach budget exhausted")
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_lines_across_chunk_boundaries() {
        let data: &[u8] = b"first\nseco";
        let mut r = LineReader::new(data);
        assert_eq!(r.read_line().expect("read"), Some("first".into()));
        // Trailing unterminated bytes surface at EOF.
        assert_eq!(r.read_line().expect("read"), Some("seco".into()));
        assert_eq!(r.read_line().expect("read"), None);
    }

    #[test]
    fn strips_carriage_returns_and_handles_empty_lines() {
        let data: &[u8] = b"a\r\n\nb\n";
        let mut r = LineReader::new(data);
        assert_eq!(r.read_line().expect("read"), Some("a".into()));
        assert_eq!(r.read_line().expect("read"), Some(String::new()));
        assert_eq!(r.read_line().expect("read"), Some("b".into()));
        assert_eq!(r.read_line().expect("read"), None);
    }

    /// A reader that times out once mid-line, then delivers the rest.
    struct Flaky {
        parts: Vec<io::Result<Vec<u8>>>,
    }

    impl Read for Flaky {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.parts.is_empty() {
                return Ok(0);
            }
            match self.parts.remove(0) {
                Ok(bytes) => {
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
                Err(e) => Err(e),
            }
        }
    }

    #[test]
    fn timeout_mid_line_preserves_buffered_bytes() {
        let mut r = LineReader::new(Flaky {
            parts: vec![
                Ok(b"par".to_vec()),
                Err(io::Error::new(io::ErrorKind::WouldBlock, "poll")),
                Ok(b"tial\n".to_vec()),
            ],
        });
        let err = r.read_line().expect_err("timeout must surface");
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        // Retry completes the frame with nothing lost.
        assert_eq!(r.read_line().expect("read"), Some("partial".into()));
    }

    #[test]
    fn backoff_grows_exponentially_within_jitter_bounds() {
        let policy = RetryPolicy::default();
        let mut rng = StdRng::seed_from_u64(7);
        for retry in 0..4 {
            let nominal = Duration::from_millis(50 * (1 << retry));
            let d = policy.backoff(retry, &mut rng);
            assert!(d >= nominal / 2, "retry {retry}: {d:?} < half nominal");
            assert!(d < nominal * 3 / 2, "retry {retry}: {d:?} > 1.5x nominal");
        }
    }

    #[test]
    fn backoff_respects_the_cap() {
        let policy = RetryPolicy {
            cap: Duration::from_millis(80),
            ..RetryPolicy::default()
        };
        let mut rng = StdRng::seed_from_u64(7);
        for retry in 4..8 {
            let d = policy.backoff(retry, &mut rng);
            assert!(
                d < Duration::from_millis(120),
                "capped at 80ms * 1.5 jitter"
            );
        }
    }

    #[test]
    fn jitter_is_seed_deterministic_but_decorrelated() {
        let policy = RetryPolicy::default();
        let a: Vec<Duration> = {
            let mut rng = StdRng::seed_from_u64(1);
            (0..4).map(|r| policy.backoff(r, &mut rng)).collect()
        };
        let b: Vec<Duration> = {
            let mut rng = StdRng::seed_from_u64(1);
            (0..4).map(|r| policy.backoff(r, &mut rng)).collect()
        };
        let c: Vec<Duration> = {
            let mut rng = StdRng::seed_from_u64(2);
            (0..4).map(|r| policy.backoff(r, &mut rng)).collect()
        };
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "different seeds decorrelate");
    }

    #[test]
    fn retry_classification_covers_the_transport_failures() {
        for kind in [
            io::ErrorKind::ConnectionRefused,
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::ConnectionAborted,
            io::ErrorKind::NotConnected,
            io::ErrorKind::BrokenPipe,
            io::ErrorKind::TimedOut,
            io::ErrorKind::WouldBlock,
            io::ErrorKind::UnexpectedEof,
        ] {
            assert!(retryable_io(kind), "{kind:?} must be retryable");
        }
        for kind in [
            io::ErrorKind::InvalidData,
            io::ErrorKind::PermissionDenied,
            io::ErrorKind::NotFound,
            io::ErrorKind::AddrNotAvailable,
        ] {
            assert!(!retryable_io(kind), "{kind:?} must not be retryable");
        }
    }

    #[test]
    fn connect_timeout_is_applied_per_address() {
        // Nothing listens here; with a connect timeout the failure is
        // bounded instead of hanging on the OS default.
        let t0 = std::time::Instant::now();
        let err = Client::connect_with(
            "127.0.0.1:1", // reserved port, nothing listening
            ClientConfig::from_ms(200, 500),
        )
        .expect_err("connect must fail");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "failed fast, not on the OS default"
        );
        assert!(retryable_io(err.kind()) || err.kind() == io::ErrorKind::AddrNotAvailable);
    }
}
