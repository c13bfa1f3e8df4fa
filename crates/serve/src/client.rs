//! Client side of the `ccapsp serve` wire protocol: a blocking
//! single-connection [`Client`], the multi-connection networked replay
//! ([`replay_network`]) whose fingerprint must equal the in-process one,
//! and the chaos client ([`chaos`]) that feeds the server hostile input and
//! checks it survives.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::loadgen::{generate_queries, stream_fingerprint, LoadSpec};
use crate::service::{fingerprint, Query};
use crate::wire::{self, Reply, Request, ServeInfo, WireError};

/// Backoff between retries of a batch the server answered
/// [`Reply::Overload`] to.
const OVERLOAD_BACKOFF: Duration = Duration::from_millis(2);

/// A blocking client over one TCP connection.
pub struct Client {
    stream: TcpStream,
    frame_cap: u64,
}

impl Client {
    /// Connects with the default frame cap.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Self {
            stream,
            frame_cap: wire::DEFAULT_FRAME_CAP,
        })
    }

    /// Sends one request and reads one reply.
    pub fn request(&mut self, request: &Request) -> Result<Reply, WireError> {
        wire::write_frame(&mut self.stream, &request.to_frame())?;
        match wire::read_frame(&mut self.stream, self.frame_cap)? {
            Some(frame) => Reply::from_frame(&frame),
            None => Err(WireError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))),
        }
    }

    /// Runs one query batch, retrying (with a short backoff) while the
    /// server answers [`Reply::Overload`]. A [`Reply::Error`] surfaces as
    /// [`WireError::Remote`].
    pub fn batch(
        &mut self,
        name: &str,
        queries: &[Query],
    ) -> Result<Vec<crate::service::Response>, WireError> {
        loop {
            let reply = self.request(&Request::Batch {
                name: name.to_string(),
                queries: queries.to_vec(),
            })?;
            match reply {
                Reply::Batch(responses) => return Ok(responses),
                Reply::Overload(_) => std::thread::sleep(OVERLOAD_BACKOFF),
                Reply::Error(msg) => return Err(WireError::Remote(msg)),
                other => {
                    return Err(WireError::Malformed(format!(
                        "unexpected reply to batch: {other:?}"
                    )))
                }
            }
        }
    }

    /// Fetches serving info for a named snapshot.
    pub fn info(&mut self, name: &str) -> Result<ServeInfo, WireError> {
        match self.request(&Request::Info {
            name: name.to_string(),
        })? {
            Reply::Info(info) => Ok(info),
            Reply::Error(msg) => Err(WireError::Remote(msg)),
            other => Err(WireError::Malformed(format!(
                "unexpected reply to info: {other:?}"
            ))),
        }
    }

    /// Fetches the Prometheus-style exposition (metrics v2) over the wire —
    /// the same text body the HTTP `GET /metrics` responder serves.
    pub fn metrics_v2(&mut self) -> Result<String, WireError> {
        match self.request(&Request::MetricsV2)? {
            Reply::MetricsV2(text) => Ok(text),
            Reply::Error(msg) => Err(WireError::Remote(msg)),
            other => Err(WireError::Malformed(format!(
                "unexpected reply to metrics-v2: {other:?}"
            ))),
        }
    }

    /// Fetches the flight-recorder ring as a `cc-flight/v1` JSON document.
    pub fn flight_dump(&mut self) -> Result<String, WireError> {
        match self.request(&Request::FlightDump)? {
            Reply::FlightDump(json) => Ok(json),
            Reply::Error(msg) => Err(WireError::Remote(msg)),
            other => Err(WireError::Malformed(format!(
                "unexpected reply to flight-dump: {other:?}"
            ))),
        }
    }

    /// Sends an admin request ([`Request::ApplyDelta`] /
    /// [`Request::SwapSnapshot`]) and returns the server's confirmation.
    pub fn admin(&mut self, request: &Request) -> Result<String, WireError> {
        match self.request(request)? {
            Reply::AdminOk(msg) => Ok(msg),
            Reply::Error(msg) => Err(WireError::Remote(msg)),
            other => Err(WireError::Malformed(format!(
                "unexpected reply to admin request: {other:?}"
            ))),
        }
    }

    /// Asks the server to drain and stop.
    pub fn shutdown(&mut self) -> Result<(), WireError> {
        match self.request(&Request::Shutdown)? {
            Reply::ShutdownOk => Ok(()),
            Reply::Error(msg) => Err(WireError::Remote(msg)),
            other => Err(WireError::Malformed(format!(
                "unexpected reply to shutdown: {other:?}"
            ))),
        }
    }
}

/// Scrapes `GET /metrics` from a daemon's HTTP metrics listener
/// (`serve --metrics-addr`) and returns the exposition body — the tiny
/// curl-free HTTP client behind `ccapsp serve-admin scrape` and the CI
/// smoke step. Fails on any non-200 status line.
pub fn scrape_http_metrics(addr: impl ToSocketAddrs) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok();
    stream.set_write_timeout(Some(Duration::from_secs(5))).ok();
    stream.write_all(b"GET /metrics HTTP/1.1\r\nHost: ccapsp\r\nConnection: close\r\n\r\n")?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw.split_once("\r\n\r\n").ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "no HTTP header terminator")
    })?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains("200") {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("scrape failed: {status}"),
        ));
    }
    Ok(body.to_string())
}

/// Replays the spec's query stream against the snapshot a daemon serves as
/// `name`, over `conns` concurrent connections, and returns the stream
/// fingerprint the in-process [`crate::loadgen::replay`] would:
///
/// * the query stream is the same pure function of `(LoadSpec, n)` (`n`
///   fetched via [`Request::Info`]);
/// * batches are the same `spec.batch` chunks, dealt round-robin to
///   connections by batch index, each connection closed-loop, and their
///   fingerprints are folded back in batch order, so the result is
///   **bit-identical** to the in-process path whenever the server serves
///   the same snapshot.
///
/// [`Reply::Overload`] answers are retried with a backoff (admission
/// control sheds load; the closed loop re-offers it).
pub fn replay_network(
    addr: impl ToSocketAddrs + Clone + Send + Sync,
    name: &str,
    spec: &LoadSpec,
    conns: usize,
) -> Result<u64, WireError> {
    let conns = conns.max(1);
    let n = Client::connect(addr.clone())?.info(name)?.n;
    let queries = generate_queries(n, spec);
    let batches: Vec<&[Query]> = queries.chunks(spec.batch.max(1)).collect();

    // `(batch index, response fingerprint)` per batch, per connection.
    let per_conn: Vec<Result<Vec<(usize, u64)>, WireError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let addr = addr.clone();
                let batches = &batches;
                scope.spawn(move || {
                    let mut client = Client::connect(addr)?;
                    let mut out = Vec::new();
                    for (i, batch) in batches.iter().enumerate().skip(c).step_by(conns) {
                        out.push((i, fingerprint(&client.batch(name, batch)?)));
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay connection thread panicked"))
            .collect()
    });
    let mut prints = vec![0u64; batches.len()];
    for log in per_conn {
        for (i, print) in log? {
            prints[i] = print;
        }
    }
    Ok(stream_fingerprint(prints))
}

/// The outcome of one [`chaos`] run.
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    /// Scenarios that behaved as required.
    pub passed: Vec<String>,
    /// Scenarios where the server misbehaved (hung, answered garbage, or
    /// went down), with the reason.
    pub failed: Vec<String>,
}

impl ChaosReport {
    /// Whether every scenario passed.
    pub fn ok(&self) -> bool {
        self.failed.is_empty()
    }

    fn record(&mut self, name: &str, outcome: Result<(), String>) {
        match outcome {
            Ok(()) => self.passed.push(name.to_string()),
            Err(why) => self.failed.push(format!("{name}: {why}")),
        }
    }
}

/// Time the chaos client is willing to wait on any single read before
/// declaring the server hung.
const CHAOS_READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Deterministic xorshift byte stream for the garbage scenarios (no
/// dependence on a random source keeps chaos runs reproducible).
fn garbage(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect()
}

fn chaos_stream(addr: &(impl ToSocketAddrs + ?Sized)) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect failed: {e}"))?;
    stream
        .set_read_timeout(Some(CHAOS_READ_TIMEOUT))
        .map_err(|e| format!("set_read_timeout failed: {e}"))?;
    Ok(stream)
}

/// Expects a typed [`Reply::Error`] frame *or* a clean close within the
/// timeout — never a hang and never a non-error reply.
fn expect_error_or_close(stream: &mut TcpStream, what: &str) -> Result<(), String> {
    match wire::read_frame(stream, wire::DEFAULT_FRAME_CAP) {
        Ok(Some(frame)) => match Reply::from_frame(&frame) {
            Ok(Reply::Error(_)) => Ok(()),
            Ok(other) => Err(format!("{what}: got non-error reply {other:?}")),
            Err(_) => Err(format!("{what}: got undecodable reply frame")),
        },
        // Clean close or reset both mean the server cut us off — fine.
        Ok(None) => Ok(()),
        Err(WireError::Io(e))
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut =>
        {
            Err(format!("{what}: server hung (no reply within timeout)"))
        }
        Err(WireError::Io(_)) | Err(WireError::Truncated { .. }) => Ok(()),
        Err(e) => Err(format!("{what}: unexpected decode result {e}")),
    }
}

/// A healthy server must answer an exposition request on a fresh
/// connection.
fn assert_alive(addr: &(impl ToSocketAddrs + ?Sized), after: &str) -> Result<(), String> {
    let mut client =
        Client::connect(addr).map_err(|e| format!("after {after}: reconnect failed: {e}"))?;
    client
        .stream
        .set_read_timeout(Some(CHAOS_READ_TIMEOUT))
        .ok();
    client
        .metrics_v2()
        .map(|_| ())
        .map_err(|e| format!("after {after}: metrics-v2 failed: {e}"))
}

/// Feeds the server hostile input — random bytes, lying lengths, checksum
/// flips, truncated frames with half-closed sockets, a reader that never
/// drains — and verifies after every scenario that the daemon neither
/// panicked, nor hung, nor answered garbage: malformed input gets a typed
/// error frame (or a prompt close), and a fresh connection still serves.
pub fn chaos(addr: impl ToSocketAddrs) -> ChaosReport {
    let mut report = ChaosReport::default();
    let addr = &addr;

    report.record(
        "random-bytes",
        (|| {
            let mut s = chaos_stream(addr)?;
            s.write_all(&garbage(0xbad5eed, 64))
                .map_err(|e| format!("write failed: {e}"))?;
            expect_error_or_close(&mut s, "random bytes")?;
            assert_alive(addr, "random bytes")
        })(),
    );

    report.record(
        "lying-length",
        (|| {
            let mut s = chaos_stream(addr)?;
            let mut bytes = Request::MetricsV2.to_frame().encode();
            bytes[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
            s.write_all(&bytes)
                .map_err(|e| format!("write failed: {e}"))?;
            expect_error_or_close(&mut s, "lying length")?;
            assert_alive(addr, "lying length")
        })(),
    );

    report.record(
        "checksum-flip",
        (|| {
            let mut s = chaos_stream(addr)?;
            let mut bytes = Request::Info {
                name: "default".into(),
            }
            .to_frame()
            .encode();
            let last = bytes.len() - 1;
            bytes[last] ^= 0x40;
            s.write_all(&bytes)
                .map_err(|e| format!("write failed: {e}"))?;
            expect_error_or_close(&mut s, "checksum flip")?;
            assert_alive(addr, "checksum flip")
        })(),
    );

    report.record(
        "truncated-then-half-close",
        (|| {
            let mut s = chaos_stream(addr)?;
            let bytes = Request::Batch {
                name: "default".into(),
                queries: vec![Query::Dist(0, 0); 16],
            }
            .to_frame()
            .encode();
            s.write_all(&bytes[..bytes.len() / 2])
                .map_err(|e| format!("write failed: {e}"))?;
            s.shutdown(Shutdown::Write)
                .map_err(|e| format!("half-close failed: {e}"))?;
            // The server must notice the dead frame and close; a hang here
            // would block the timeout read below.
            let mut buf = [0u8; 64];
            loop {
                match s.read(&mut buf) {
                    Ok(0) => break,
                    Ok(_) => continue,
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        return Err("server held a half-closed truncated frame open".into())
                    }
                    Err(_) => break,
                }
            }
            assert_alive(addr, "truncated half-close")
        })(),
    );

    report.record(
        "slow-reader",
        (|| {
            let mut s = chaos_stream(addr)?;
            // Fire a burst of valid requests and never read a single reply;
            // the server must bound what it buffers for us (dropping the
            // connection is allowed) and keep serving everyone else.
            let frame = Request::Info {
                name: "default".into(),
            }
            .to_frame()
            .encode();
            for _ in 0..512 {
                if s.write_all(&frame).is_err() {
                    break; // server cut us off — that is the defense working
                }
            }
            std::thread::sleep(Duration::from_millis(100));
            assert_alive(addr, "slow reader")
        })(),
    );

    report.record(
        "idle-half-close",
        (|| {
            let mut s = chaos_stream(addr)?;
            s.shutdown(Shutdown::Write)
                .map_err(|e| format!("half-close failed: {e}"))?;
            let mut buf = [0u8; 16];
            match s.read(&mut buf) {
                Ok(0) | Err(_) => {}
                Ok(_) => return Err("unsolicited bytes on an idle connection".into()),
            }
            assert_alive(addr, "idle half-close")
        })(),
    );

    report
}
