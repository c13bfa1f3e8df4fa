//! The `ccapsp serve` daemon: a multi-client TCP front end over
//! [`OracleService`], built on std networking only.
//!
//! # Architecture
//!
//! ```text
//! listener ──accept──▶ per-connection reader thread ──jobs──▶ batcher thread
//!                          │        ▲                            │
//!                          │        └── direct replies           │ run_batch
//!                          ▼                                     ▼
//!                      writer thread ◀──────── demuxed replies ──┘
//! ```
//!
//! * **Reader threads** decode frames ([`crate::wire`]) with a polling read
//!   (200 ms socket timeout + stop-flag check), so a half-sent frame can
//!   never hang shutdown. Query batches are enqueued to the batcher;
//!   metrics/info/admin frames are answered inline.
//! * **The batcher** coalesces whatever jobs are queued (up to
//!   `BATCH_MAX` queries) into single
//!   [`OracleService::run_batch`] calls under a read lock — concurrent
//!   clients' queries share one parallel sweep — and demultiplexes the
//!   responses back to each connection's writer in request order.
//! * **Admission control**: the job queue is a bounded channel
//!   (`QUEUE_CAP` jobs); when it is full the reader answers
//!   [`Reply::Overload`] immediately instead of buffering without limit.
//!   A frame whose payload exceeds [`wire::DEFAULT_FRAME_CAP`] is a wire
//!   error.
//! * **Slow readers**: each connection's outbound frames go through a
//!   bounded writer queue (`WRITER_CAP` frames); a client that stops
//!   draining its socket gets disconnected rather than wedging the batcher.
//! * **Blue/green swaps**: [`Request::ApplyDelta`] / `SwapSnapshot` take
//!   the service write lock, which waits for the in-flight batch and then
//!   bumps the version in place — queued queries run against the new
//!   version, none are dropped.
//! * **Shutdown** ([`Request::Shutdown`] or [`ServerHandle::shutdown`])
//!   sets a stop flag, unblocks `accept` with a self-connection, drains the
//!   job queue, and joins every thread — in-flight queries are answered,
//!   not dropped.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cc_par::ExecPolicy;

use crate::service::{OracleService, Query, SnapshotId};
use crate::snapshot::Snapshot;
use crate::telemetry::{prometheus_text, ServeTelemetry};
use crate::wire::{self, Frame, Reply, Request, ServeInfo, WireError};

/// How often blocked reads/receives re-check the stop flag.
const POLL: Duration = Duration::from_millis(200);

/// Bounded job-queue depth (pending batch requests across all
/// connections); a full queue answers [`Reply::Overload`].
const QUEUE_CAP: usize = 128;

/// Maximum queries the batcher coalesces into one `run_batch` call.
const BATCH_MAX: usize = 4096;

/// Bounded per-connection outbound queue (frames); a slow reader that
/// fills it is disconnected.
const WRITER_CAP: usize = 128;

/// Tuning knobs for [`Server::spawn`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Thread policy for the batched query sweeps.
    pub exec: ExecPolicy,
    /// Slow-query threshold in microseconds for the flight-recorder log;
    /// 0 disables the slow-query log (`serve --slow-query-us`).
    pub slow_query_us: u64,
    /// When set, a second listener serves plain-HTTP `GET /metrics` with
    /// the Prometheus-style exposition (`serve --metrics-addr`); port 0
    /// binds an ephemeral port ([`ServerHandle::metrics_addr`]).
    pub metrics_addr: Option<SocketAddr>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            exec: ExecPolicy::Seq,
            slow_query_us: 0,
            metrics_addr: None,
        }
    }
}

/// Monotone serving counters, readable while the server runs and reported
/// in the Prometheus-style exposition.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Frames successfully decoded.
    pub frames: AtomicU64,
    /// Batch jobs rejected with [`Reply::Overload`].
    pub overloads: AtomicU64,
    /// Connections dropped for protocol errors (malformed/corrupt frames).
    pub wire_errors: AtomicU64,
    /// Connections dropped for not draining their socket.
    pub slow_closes: AtomicU64,
    /// `run_batch` sweeps executed by the batcher.
    pub sweeps: AtomicU64,
    /// Queries answered through the batcher.
    pub queries: AtomicU64,
}

/// One enqueued batch request: the queries plus the way home.
struct Job {
    name: String,
    queries: Vec<Query>,
    reply: SyncSender<Frame>,
}

/// `RwLock` read/write with poison recovery — same rationale as
/// [`crate::service::lock_recovering`]: a panicking holder must not take
/// the whole daemon down, and the guarded service keeps its invariants at
/// every await point (swaps are all-or-nothing by construction).
fn read_recovering(l: &RwLock<OracleService>) -> std::sync::RwLockReadGuard<'_, OracleService> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

fn write_recovering(l: &RwLock<OracleService>) -> std::sync::RwLockWriteGuard<'_, OracleService> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

/// The running daemon; see the [module docs](self). Returned by
/// [`Server::spawn`]; dropped handles leak the threads, so call
/// [`ServerHandle::shutdown`] or [`ServerHandle::wait`].
pub struct ServerHandle {
    local_addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    stop: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    telemetry: Arc<ServeTelemetry>,
    listener_thread: Option<JoinHandle<()>>,
    batcher_thread: Option<JoinHandle<()>>,
    metrics_thread: Option<JoinHandle<()>>,
}

/// Namespace for [`Server::spawn`].
pub struct Server;

impl Server {
    /// Binds `addr` and starts serving `service` on background threads.
    /// `addr` may use port 0 to bind an ephemeral port; the bound address
    /// is [`ServerHandle::local_addr`].
    pub fn spawn(
        service: OracleService,
        addr: impl ToSocketAddrs,
        cfg: ServerConfig,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ServerStats::default());
        let telemetry = Arc::new(ServeTelemetry::new(cfg.slow_query_us));
        // Each state's fingerprint is hashed before any lock exists.
        for id in service.ids() {
            service.state_fingerprint(id);
        }
        let service = Arc::new(RwLock::new(service));
        let (job_tx, job_rx) = std::sync::mpsc::sync_channel::<Job>(QUEUE_CAP);

        // The optional second listener: plain-HTTP `GET /metrics` with the
        // Prometheus-style exposition, so a stock scraper can poll without
        // speaking the wire protocol.
        let (metrics_addr, metrics_thread) = match cfg.metrics_addr {
            None => (None, None),
            Some(addr) => {
                let metrics_listener = TcpListener::bind(addr)?;
                let bound = metrics_listener.local_addr()?;
                let stop = Arc::clone(&stop);
                let stats = Arc::clone(&stats);
                let telemetry = Arc::clone(&telemetry);
                let service = Arc::clone(&service);
                let thread = std::thread::spawn(move || {
                    metrics_http_loop(metrics_listener, &stop, &service, &stats, &telemetry)
                });
                (Some(bound), Some(thread))
            }
        };

        let batcher_thread = {
            let service = Arc::clone(&service);
            let stats = Arc::clone(&stats);
            let telemetry = Arc::clone(&telemetry);
            std::thread::spawn(move || batcher_loop(job_rx, &service, &stats, &telemetry, cfg))
        };

        let listener_thread = {
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            let telemetry = Arc::clone(&telemetry);
            std::thread::spawn(move || {
                let mut conns: Vec<JoinHandle<()>> = Vec::new();
                for incoming in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = incoming else { continue };
                    stats.connections.fetch_add(1, Ordering::Relaxed);
                    let ctx = ConnCtx {
                        stop: Arc::clone(&stop),
                        stats: Arc::clone(&stats),
                        telemetry: Arc::clone(&telemetry),
                        service: Arc::clone(&service),
                        job_tx: job_tx.clone(),
                        cfg,
                        local_addr,
                    };
                    conns.push(std::thread::spawn(move || connection_loop(stream, ctx)));
                    // Reap finished connection threads so a long-lived
                    // server does not accumulate handles.
                    conns.retain(|h| !h.is_finished());
                }
                // Drop our job sender before joining connections: once the
                // last reader exits, the batcher sees the channel disconnect
                // (after draining) and stops.
                drop(job_tx);
                for h in conns {
                    let _ = h.join();
                }
            })
        };

        Ok(ServerHandle {
            local_addr,
            metrics_addr,
            stop,
            stats,
            telemetry,
            listener_thread: Some(listener_thread),
            batcher_thread: Some(batcher_thread),
            metrics_thread,
        })
    }
}

impl ServerHandle {
    /// The bound listen address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The server's monotone counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// The server's live telemetry block (rolling windows, gauges, flight
    /// recorder).
    pub fn telemetry(&self) -> &ServeTelemetry {
        &self.telemetry
    }

    /// The bound `GET /metrics` HTTP address (resolves port 0), when
    /// [`ServerConfig::metrics_addr`] was set.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Whether a stop was requested (via [`ServerHandle::shutdown`] or a
    /// [`Request::Shutdown`] frame).
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Requests a stop and joins every server thread, draining in-flight
    /// work first.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.finish();
    }

    /// Blocks until a [`Request::Shutdown`] frame stops the server, then
    /// joins every thread. This is what `ccapsp serve` parks on.
    pub fn wait(mut self) {
        while !self.stop.load(Ordering::SeqCst) {
            std::thread::sleep(POLL);
        }
        self.finish();
    }

    fn finish(&mut self) {
        // Unblock accept: the listeners check the stop flag per iteration,
        // so one throwaway connection gets each past the blocking call.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(addr) = self.metrics_addr {
            let _ = TcpStream::connect(addr);
        }
        if let Some(h) = self.listener_thread.take() {
            let _ = h.join();
        }
        if let Some(h) = self.batcher_thread.take() {
            let _ = h.join();
        }
        if let Some(h) = self.metrics_thread.take() {
            let _ = h.join();
        }
    }
}

/// Everything a connection thread needs.
struct ConnCtx {
    stop: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    telemetry: Arc<ServeTelemetry>,
    service: Arc<RwLock<OracleService>>,
    job_tx: SyncSender<Job>,
    cfg: ServerConfig,
    local_addr: SocketAddr,
}

/// Per-connection accounting, shared between the reader and writer threads
/// and reported in the connection's `conn-drop` flight event.
#[derive(Debug, Default)]
struct ConnTally {
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    frames: AtomicU64,
}

/// An `io::Read` over a TCP stream that absorbs read timeouts: it polls
/// every [`POLL`] and fails with [`std::io::ErrorKind::ConnectionAborted`]
/// once the stop flag is set, preserving partially-read frames in the
/// caller's buffer — so neither a half-sent frame nor an idle client can
/// hang shutdown. Read bytes are tallied per connection and daemon-wide.
struct PollingReader<'a> {
    stream: &'a TcpStream,
    stop: &'a AtomicBool,
    tally: &'a ConnTally,
    telemetry: &'a ServeTelemetry,
}

impl Read for PollingReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            match self.stream.read(buf) {
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if self.stop.load(Ordering::SeqCst) {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::ConnectionAborted,
                            "server stopping",
                        ));
                    }
                }
                Ok(k) => {
                    self.tally.bytes_in.fetch_add(k as u64, Ordering::Relaxed);
                    self.telemetry
                        .bytes_in
                        .fetch_add(k as u64, Ordering::Relaxed);
                    return Ok(k);
                }
                other => return other,
            }
        }
    }
}

/// Serves one client connection; see the [module docs](self).
fn connection_loop(stream: TcpStream, ctx: ConnCtx) {
    let _ = stream.set_read_timeout(Some(POLL));
    // A writer that stops draining must not wedge us forever.
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let writer_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let peer = stream
        .peer_addr()
        .map_or_else(|_| "unknown".to_string(), |a| a.to_string());
    ctx.telemetry.connections_live.add(1);
    ctx.telemetry.event("conn-accept", format!("peer {peer}"));
    let tally = Arc::new(ConnTally::default());
    let (out_tx, out_rx) = std::sync::mpsc::sync_channel::<Frame>(WRITER_CAP);
    let writer = {
        let stats = Arc::clone(&ctx.stats);
        let telemetry = Arc::clone(&ctx.telemetry);
        let tally = Arc::clone(&tally);
        std::thread::spawn(move || writer_loop(writer_stream, out_rx, &stats, &telemetry, &tally))
    };

    let mut reader = PollingReader {
        stream: &stream,
        stop: &ctx.stop,
        tally: &tally,
        telemetry: &ctx.telemetry,
    };
    loop {
        let frame = match wire::read_frame(&mut reader, wire::DEFAULT_FRAME_CAP) {
            Ok(Some(frame)) => frame,
            // Clean EOF, stop-flag abort, or reset: just close.
            Ok(None) | Err(WireError::Io(_)) => break,
            Err(e) => {
                // Corrupt or malformed bytes: framing is unrecoverable, so
                // answer with a typed error frame and close.
                ctx.stats.wire_errors.fetch_add(1, Ordering::Relaxed);
                ctx.telemetry
                    .event("wire-error", format!("peer {peer}: {e}"));
                enqueue(&out_tx, Reply::Error(e.to_string()).to_frame(), &ctx);
                break;
            }
        };
        ctx.stats.frames.fetch_add(1, Ordering::Relaxed);
        tally.frames.fetch_add(1, Ordering::Relaxed);
        let request = match Request::from_frame(&frame) {
            Ok(r) => r,
            Err(e) => {
                ctx.stats.wire_errors.fetch_add(1, Ordering::Relaxed);
                ctx.telemetry
                    .event("wire-error", format!("peer {peer}: {e}"));
                enqueue(&out_tx, Reply::Error(e.to_string()).to_frame(), &ctx);
                break;
            }
        };
        let done = matches!(request, Request::Shutdown);
        if !handle_request(request, &ctx, &out_tx) || done {
            break;
        }
    }
    // Dropping our sender (and every enqueued Job's clone, once the batcher
    // finishes them) disconnects the writer channel; the writer flushes the
    // backlog and exits.
    drop(out_tx);
    let _ = writer.join();
    let _ = stream.shutdown(std::net::Shutdown::Both);
    ctx.telemetry.connections_live.sub(1);
    ctx.telemetry.event(
        "conn-drop",
        format!(
            "peer {peer} bytes_in={} bytes_out={} frames={}",
            tally.bytes_in.load(Ordering::Relaxed),
            tally.bytes_out.load(Ordering::Relaxed),
            tally.frames.load(Ordering::Relaxed),
        ),
    );
}

/// Best-effort enqueue onto the writer queue, keeping the occupancy gauge
/// honest: the writer decrements per frame it drains, so inc-on-success
/// here makes the gauge's high-water the queue-depth peak.
fn enqueue(out_tx: &SyncSender<Frame>, frame: Frame, ctx: &ConnCtx) -> bool {
    match out_tx.try_send(frame) {
        Ok(()) => {
            ctx.telemetry.writer_queue.add(1);
            true
        }
        Err(_) => false,
    }
}

/// Dispatches one decoded request. Returns `false` when the connection
/// should close (its outbound queue overflowed).
fn handle_request(request: Request, ctx: &ConnCtx, out_tx: &SyncSender<Frame>) -> bool {
    match request {
        Request::Batch { name, queries } => {
            ctx.stats
                .queries
                .fetch_add(queries.len() as u64, Ordering::Relaxed);
            let queued = queries.len() as u64;
            let job = Job {
                name,
                queries,
                reply: out_tx.clone(),
            };
            match ctx.job_tx.try_send(job) {
                Ok(()) => {
                    ctx.telemetry.queue_depth.add(1);
                    true
                }
                Err(TrySendError::Full(_)) => {
                    // Admission control: reject now, with the queue depth,
                    // instead of buffering without bound.
                    ctx.stats.overloads.fetch_add(1, Ordering::Relaxed);
                    ctx.telemetry.event(
                        "overload",
                        format!("rejected batch of {queued} (queue_cap={QUEUE_CAP})"),
                    );
                    send_or_close(out_tx, Reply::Overload(QUEUE_CAP as u64), ctx)
                }
                Err(TrySendError::Disconnected(_)) => {
                    send_or_close(out_tx, Reply::Error("server stopping".into()), ctx)
                }
            }
        }
        Request::MetricsV2 => {
            let text = {
                let svc = read_recovering(&ctx.service);
                prometheus_text(&svc, &ctx.stats, &ctx.telemetry)
            };
            send_or_close(out_tx, Reply::MetricsV2(text), ctx)
        }
        Request::FlightDump => {
            send_or_close(out_tx, Reply::FlightDump(ctx.telemetry.flight_json()), ctx)
        }
        Request::Info { name } => {
            let svc = read_recovering(&ctx.service);
            let reply = match svc.resolve(&name) {
                None => Reply::Error(format!("no snapshot registered as {name:?}")),
                Some(id) => {
                    let (_, version) = svc.label(id);
                    let cache = svc.cache_stats(id);
                    Reply::Info(ServeInfo {
                        name,
                        version,
                        n: svc.n(id),
                        algo: svc.meta(id).algo.clone(),
                        mem_bytes: svc.estimate_mem_bytes(id),
                        cache_hits: cache.hits,
                        cache_misses: cache.misses,
                    })
                }
            };
            drop(svc);
            send_or_close(out_tx, reply, ctx)
        }
        Request::ApplyDelta { name, delta } => {
            let reply = match cc_dynamic::Delta::from_bytes(&delta) {
                Err(e) => Reply::Error(format!("cannot decode delta: {e}")),
                Ok(delta) => {
                    let mut svc = write_recovering(&ctx.service);
                    let locked = Instant::now();
                    let applied = svc.apply_delta(&name, &delta);
                    let hold_us = locked.elapsed().as_micros();
                    match applied {
                        Ok(id) => {
                            let (_, version) = svc.label(id);
                            ctx.telemetry.event(
                                "delta-apply",
                                format!(
                                    "{name} now v{version}, {} rows, write lock {hold_us} us",
                                    delta.rows.len()
                                ),
                            );
                            Reply::AdminOk(format!("applied delta: {name} now v{version}"))
                        }
                        Err(e) => Reply::Error(e.to_string()),
                    }
                }
            };
            send_or_close(out_tx, reply, ctx)
        }
        Request::SwapSnapshot { name, snapshot } => {
            let reply = match Snapshot::from_bytes(&snapshot) {
                Err(e) => Reply::Error(format!("cannot decode snapshot: {e}")),
                Ok(snapshot) => {
                    let (id, version) = {
                        let mut svc = write_recovering(&ctx.service);
                        let id = svc.register(&name, snapshot);
                        (id, svc.label(id).1)
                    };
                    // Hash the new state under the read lock, so the next
                    // delta's base check is a compare under the write lock.
                    read_recovering(&ctx.service).state_fingerprint(id);
                    ctx.telemetry
                        .event("snapshot-swap", format!("{name} now v{version}"));
                    Reply::AdminOk(format!("swapped snapshot: {name} now v{version}"))
                }
            };
            send_or_close(out_tx, reply, ctx)
        }
        Request::Shutdown => {
            ctx.stop.store(true, Ordering::SeqCst);
            ctx.telemetry.event("shutdown", "client shutdown frame");
            // Unblock accept so the listeners can wind down promptly.
            let _ = TcpStream::connect(ctx.local_addr);
            if let Some(addr) = ctx.cfg.metrics_addr {
                let _ = TcpStream::connect(addr);
            }
            send_or_close(out_tx, Reply::ShutdownOk, ctx);
            false
        }
    }
}

/// Enqueues a direct reply; a full outbound queue means the client is not
/// draining its socket, so the connection closes instead of blocking.
fn send_or_close(out_tx: &SyncSender<Frame>, reply: Reply, ctx: &ConnCtx) -> bool {
    if enqueue(out_tx, reply.to_frame(), ctx) {
        true
    } else {
        ctx.stats.slow_closes.fetch_add(1, Ordering::Relaxed);
        ctx.telemetry.event("slow-close", "outbound queue full");
        false
    }
}

/// Writes queued frames until the channel disconnects or the socket dies.
fn writer_loop(
    mut stream: TcpStream,
    out_rx: Receiver<Frame>,
    stats: &ServerStats,
    telemetry: &ServeTelemetry,
    tally: &ConnTally,
) {
    while let Ok(frame) = out_rx.recv() {
        telemetry.writer_queue.sub(1);
        if wire::write_frame(&mut stream, &frame).is_err() {
            // Write timeout or reset: the peer stopped draining. Drain the
            // channel so enqueued replies drop instead of blocking senders.
            stats.slow_closes.fetch_add(1, Ordering::Relaxed);
            telemetry.event("slow-close", "write stalled; dropping backlog");
            let _ = stream.shutdown(std::net::Shutdown::Both);
            while out_rx.recv().is_ok() {
                telemetry.writer_queue.sub(1);
            }
            return;
        }
        let wrote = (wire::HEADER_LEN + frame.payload.len()) as u64;
        tally.bytes_out.fetch_add(wrote, Ordering::Relaxed);
        telemetry.bytes_out.fetch_add(wrote, Ordering::Relaxed);
    }
}

/// The batcher: coalesces queued jobs into shared `run_batch` sweeps and
/// demultiplexes the responses; see the [module docs](self).
fn batcher_loop(
    job_rx: Receiver<Job>,
    service: &RwLock<OracleService>,
    stats: &ServerStats,
    telemetry: &ServeTelemetry,
    cfg: ServerConfig,
) {
    loop {
        let first = match job_rx.recv_timeout(POLL) {
            Ok(job) => job,
            Err(RecvTimeoutError::Timeout) => continue,
            // Every sender (connection) is gone; nothing can arrive.
            Err(RecvTimeoutError::Disconnected) => return,
        };
        telemetry.queue_depth.sub(1);
        let mut jobs = vec![first];
        let mut total: usize = jobs[0].queries.len();
        while total < BATCH_MAX {
            match job_rx.try_recv() {
                Ok(job) => {
                    telemetry.queue_depth.sub(1);
                    total += job.queries.len();
                    jobs.push(job);
                }
                Err(_) => break,
            }
        }
        // Occupancy gauge: how full this coalesced sweep was (high-water =
        // the best coalescing the batcher ever achieved).
        telemetry.batch_fill.set(total as u64);
        run_jobs(jobs, service, stats, telemetry, cfg.exec);
    }
}

/// Executes one coalesced sweep. Name resolution and node-id validation
/// happen under the *same* read lock as `run_batch`, so a concurrent
/// blue/green swap can never shear a validated batch against a different
/// snapshot.
fn run_jobs(
    jobs: Vec<Job>,
    service: &RwLock<OracleService>,
    stats: &ServerStats,
    telemetry: &ServeTelemetry,
    exec: ExecPolicy,
) {
    let svc = read_recovering(service);
    // Group job indices by resolved snapshot id; invalid jobs answer
    // immediately with a typed error.
    let mut by_id: HashMap<SnapshotId, Vec<usize>> = HashMap::new();
    let mut replies: Vec<Option<Frame>> = (0..jobs.len()).map(|_| None).collect();
    for (ji, job) in jobs.iter().enumerate() {
        let Some(id) = svc.resolve(&job.name) else {
            replies[ji] =
                Some(Reply::Error(format!("no snapshot registered as {:?}", job.name)).to_frame());
            continue;
        };
        let n = svc.n(id);
        if let Some(bad) = job.queries.iter().position(|q| {
            let (u, v) = match *q {
                Query::Dist(u, v) | Query::Route(u, v) => (u, v),
                Query::KNearest(u, _) => (u, 0),
            };
            u >= n || v >= n
        }) {
            replies[ji] = Some(
                Reply::Error(format!(
                    "query {bad} references a node out of range (n={n})"
                ))
                .to_frame(),
            );
            continue;
        }
        by_id.entry(id).or_default().push(ji);
    }
    for (id, job_idxs) in by_id {
        let all: Vec<Query> = job_idxs
            .iter()
            .flat_map(|&ji| jobs[ji].queries.iter().copied())
            .collect();
        let outcome = svc.run_batch(id, &all, exec);
        stats.sweeps.fetch_add(1, Ordering::Relaxed);
        // Rolling-window latency/QPS accounting and the slow-query log; a
        // post-pass in query order, so the windows' contents don't depend
        // on the sweep's thread interleaving.
        telemetry.record_sweep(&all, &outcome.latencies_ns);
        let mut offset = 0;
        for &ji in &job_idxs {
            let len = jobs[ji].queries.len();
            let slice = outcome.responses[offset..offset + len].to_vec();
            offset += len;
            replies[ji] = Some(Reply::Batch(slice).to_frame());
        }
    }
    drop(svc);
    for (job, reply) in jobs.into_iter().zip(replies) {
        if let Some(frame) = reply {
            // A full/closed writer queue means the connection is dying; the
            // response drops with it (the client never sees a wrong one).
            if job.reply.try_send(frame).is_ok() {
                telemetry.writer_queue.add(1);
            }
        }
    }
}

/// The `GET /metrics` HTTP responder: a deliberately tiny HTTP/1.1 server
/// over std TCP (the workspace vendors no HTTP stack) that answers every
/// request with `Connection: close`. Anything that is not a `GET /metrics`
/// gets a 404; unparseable requests get a 400. The accept loop re-checks
/// the stop flag per connection, and [`ServerHandle::finish`] unblocks it
/// with a throwaway connection, mirroring the wire listener.
fn metrics_http_loop(
    listener: TcpListener,
    stop: &AtomicBool,
    service: &RwLock<OracleService>,
    stats: &ServerStats,
    telemetry: &ServeTelemetry,
) {
    for incoming in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = incoming else { continue };
        serve_one_scrape(stream, service, stats, telemetry);
    }
}

/// Handles one scrape connection inline (scrapes are rare and cheap; no
/// per-connection thread needed).
fn serve_one_scrape(
    mut stream: TcpStream,
    service: &RwLock<OracleService>,
    stats: &ServerStats,
    telemetry: &ServeTelemetry,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    // Read until the header terminator, bounded: a scrape request that
    // doesn't fit 4 KiB is not a scrape request.
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    let request_line = loop {
        if let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break String::from_utf8_lossy(&buf[..end]).into_owned();
        }
        if buf.len() > 4096 {
            break String::new();
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break String::new(),
            Ok(k) => buf.extend_from_slice(&chunk[..k]),
        }
    };
    let target = request_line
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .collect::<Vec<_>>();
    let (status, body) = match target.as_slice() {
        ["GET", "/metrics", ..] => {
            let svc = read_recovering(service);
            ("200 OK", prometheus_text(&svc, stats, telemetry))
        }
        ["GET", ..] => ("404 Not Found", "only GET /metrics is served\n".into()),
        _ => ("400 Bad Request", "malformed request\n".into()),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
    let _ = stream.shutdown(std::net::Shutdown::Both);
}
