//! Live operational telemetry for the serving daemon: the shared
//! [`ServeTelemetry`] block every server thread feeds, and the
//! Prometheus-style text exposition rendered from it.
//!
//! The block bundles the windowed instruments from [`cc_obs::window`] —
//! per-query-type [`RollingHistogram`]s (sliding QPS and latency
//! percentiles over 1 s/10 s/60 s), [`Gauge`]s for queue depths and live
//! connections, and the [`FlightRecorder`] ring of recent structured
//! events (connection accept/drop, overload rejections, delta applies,
//! slow queries over the `--slow-query-us` threshold).
//!
//! Two invariants carry over from the rest of the observability layer:
//!
//! * **Telemetry never changes an answer.** Everything here is written on
//!   the side of the serving path and read only by exposition endpoints;
//!   `tests/obs_determinism.rs` extends the fingerprint-invariance
//!   property over the network path with all of it enabled.
//! * **Deterministic windows under an injected clock.** All rolling state
//!   is keyed by milliseconds since daemon boot ([`ServeTelemetry::now_ms`]);
//!   the instruments themselves never read a wall clock, so unit and
//!   property tests drive them with synthetic timestamps.
//!
//! The exposition ([`prometheus_text`]) is the body of both the wire
//! Metrics-v2 frame ([`crate::wire::Request::MetricsV2`]) and the
//! plain-HTTP `GET /metrics` responder (`serve --metrics-addr`), so a
//! stock scraper and the wire client read the same text.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use cc_obs::{FlightRecorder, Gauge, RollingHistogram};

use crate::server::ServerStats;
use crate::service::{lock_recovering, OracleService, Query, QUERY_TYPE_NAMES};

/// Epoch width of the rolling rings: 1 s buckets.
pub const EPOCH_MS: u64 = 1_000;

/// Ring length: 64 one-second epochs, covering the longest (60 s) window.
pub const EPOCH_SLOTS: usize = 64;

/// Flight-recorder capacity: the last N structured events.
pub const FLIGHT_CAP: usize = 256;

/// The windows the exposition derives rates over, label → milliseconds.
pub const QPS_WINDOWS: [(&str, u64); 3] = [("1s", 1_000), ("10s", 10_000), ("60s", 60_000)];

/// Rolling per-type latency state, guarded by one mutex (only the batcher
/// thread writes; exposition reads are rare).
struct Rolling {
    /// Latency in nanoseconds per query type, indexed like
    /// [`QUERY_TYPE_NAMES`].
    per_type: [RollingHistogram; 3],
    /// Largest single-epoch (1 s) query count ever observed — the
    /// `qps_1s_peak` the net bench records.
    peak_epoch_queries: u64,
}

/// The daemon's live telemetry block, shared by the listener, every
/// connection thread, the batcher, and the exposition endpoints.
pub struct ServeTelemetry {
    t0: Instant,
    /// Slow-query threshold in microseconds; 0 disables the slow-query log.
    pub slow_query_us: u64,
    rolling: Mutex<Rolling>,
    /// Ring of recent structured events, dumped by `serve-admin
    /// flight-dump`.
    pub flight: FlightRecorder,
    /// Live (currently open) client connections.
    pub connections_live: Gauge,
    /// Jobs sitting in the batcher queue right now (high-water = depth
    /// peak).
    pub queue_depth: Gauge,
    /// Frames queued across all per-connection writer queues.
    pub writer_queue: Gauge,
    /// Queries coalesced into the most recent batcher sweep (high-water =
    /// occupancy peak).
    pub batch_fill: Gauge,
    /// Total bytes read from client sockets.
    pub bytes_in: AtomicU64,
    /// Total bytes written to client sockets.
    pub bytes_out: AtomicU64,
    /// Queries slower than the threshold.
    pub slow_queries: AtomicU64,
}

impl std::fmt::Debug for ServeTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeTelemetry")
            .field("slow_query_us", &self.slow_query_us)
            .field("flight_events", &self.flight.recorded())
            .finish()
    }
}

impl ServeTelemetry {
    /// A fresh block; `slow_query_us == 0` disables the slow-query log.
    pub fn new(slow_query_us: u64) -> Self {
        Self {
            t0: Instant::now(),
            slow_query_us,
            rolling: Mutex::new(Rolling {
                per_type: std::array::from_fn(|_| RollingHistogram::new(EPOCH_MS, EPOCH_SLOTS)),
                peak_epoch_queries: 0,
            }),
            flight: FlightRecorder::new(FLIGHT_CAP),
            connections_live: Gauge::new(),
            queue_depth: Gauge::new(),
            writer_queue: Gauge::new(),
            batch_fill: Gauge::new(),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            slow_queries: AtomicU64::new(0),
        }
    }

    /// Milliseconds since daemon boot — the injected clock every windowed
    /// instrument in this block is driven by.
    pub fn now_ms(&self) -> u64 {
        self.t0.elapsed().as_millis() as u64
    }

    /// Seconds since daemon boot.
    pub fn uptime_secs(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Records one sweep's per-query latencies into the rolling rings and
    /// the slow-query log. Called by the batcher after `run_batch`, in
    /// query order.
    pub fn record_sweep(&self, queries: &[Query], latencies_ns: &[u64]) {
        let now = self.now_ms();
        {
            let mut rolling = lock_recovering(&self.rolling);
            for (q, &ns) in queries.iter().zip(latencies_ns) {
                rolling.per_type[q.type_index()].record(now, ns);
            }
            let epoch_queries: u64 = rolling
                .per_type
                .iter()
                .map(|r| r.current_epoch_count(now))
                .sum();
            rolling.peak_epoch_queries = rolling.peak_epoch_queries.max(epoch_queries);
        }
        if self.slow_query_us > 0 {
            let threshold_ns = self.slow_query_us.saturating_mul(1_000);
            for (q, &ns) in queries.iter().zip(latencies_ns) {
                if ns > threshold_ns {
                    self.slow_queries.fetch_add(1, Ordering::Relaxed);
                    self.flight.record(
                        now,
                        "slow-query",
                        format!(
                            "{} took {}us (threshold {}us)",
                            q.type_name(),
                            ns / 1_000,
                            self.slow_query_us
                        ),
                    );
                }
            }
        }
    }

    /// The largest query count any single 1 s epoch has seen, as a rate.
    pub fn qps_1s_peak(&self) -> f64 {
        lock_recovering(&self.rolling).peak_epoch_queries as f64
    }

    /// Derived QPS over a trailing window, summed across query types.
    pub fn qps(&self, window_ms: u64) -> f64 {
        let now = self.now_ms();
        let rolling = lock_recovering(&self.rolling);
        rolling
            .per_type
            .iter()
            .map(|r| r.rate_per_sec(now, window_ms))
            .sum()
    }

    /// Records a structured flight event stamped with the block's clock.
    pub fn event(&self, kind: &str, detail: impl Into<String>) {
        self.flight.record(self.now_ms(), kind, detail);
    }

    /// The flight ring as a `cc-flight/v1` JSON document.
    pub fn flight_json(&self) -> String {
        cc_obs::render_flight_json(&self.flight.snapshot())
    }
}

/// Escapes a Prometheus label value (`\`, `"`, newline).
fn prom_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Formats a sample value the way Prometheus expects (no exponent needed
/// for our ranges; trims to a stable short decimal).
fn prom_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

/// Renders the full Prometheus-style exposition: `# TYPE`d families with
/// labels, one text body shared by the Metrics-v2 wire frame and the HTTP
/// `GET /metrics` responder. Deterministic family order; label sets ordered
/// by snapshot registration and [`QUERY_TYPE_NAMES`].
pub fn prometheus_text(svc: &OracleService, stats: &ServerStats, tel: &ServeTelemetry) -> String {
    let mut out = String::with_capacity(4096);
    let mut family = |name: &str, kind: &str, samples: &[(String, f64)]| {
        out.push_str(&format!("# TYPE {name} {kind}\n"));
        for (labels, value) in samples {
            out.push_str(&format!("{name}{labels} {}\n", prom_num(*value)));
        }
    };

    // Daemon-level gauges and counters.
    family(
        "ccapsp_uptime_seconds",
        "gauge",
        &[(String::new(), tel.uptime_secs())],
    );
    let counter = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64;
    family(
        "ccapsp_connections_total",
        "counter",
        &[(String::new(), counter(&stats.connections))],
    );
    family(
        "ccapsp_connections_live",
        "gauge",
        &[(String::new(), tel.connections_live.get() as f64)],
    );
    family(
        "ccapsp_frames_total",
        "counter",
        &[(String::new(), counter(&stats.frames))],
    );
    family(
        "ccapsp_queries_total",
        "counter",
        &[(String::new(), counter(&stats.queries))],
    );
    family(
        "ccapsp_sweeps_total",
        "counter",
        &[(String::new(), counter(&stats.sweeps))],
    );
    family(
        "ccapsp_overloads_total",
        "counter",
        &[(String::new(), counter(&stats.overloads))],
    );
    family(
        "ccapsp_wire_errors_total",
        "counter",
        &[(String::new(), counter(&stats.wire_errors))],
    );
    family(
        "ccapsp_slow_closes_total",
        "counter",
        &[(String::new(), counter(&stats.slow_closes))],
    );
    family(
        "ccapsp_slow_queries_total",
        "counter",
        &[(String::new(), counter(&tel.slow_queries))],
    );
    family(
        "ccapsp_bytes_total",
        "counter",
        &[
            ("{direction=\"in\"}".into(), counter(&tel.bytes_in)),
            ("{direction=\"out\"}".into(), counter(&tel.bytes_out)),
        ],
    );
    family(
        "ccapsp_queue_depth",
        "gauge",
        &[(String::new(), tel.queue_depth.get() as f64)],
    );
    family(
        "ccapsp_queue_depth_high_water",
        "gauge",
        &[(String::new(), tel.queue_depth.high_water() as f64)],
    );
    family(
        "ccapsp_writer_queue_high_water",
        "gauge",
        &[(String::new(), tel.writer_queue.high_water() as f64)],
    );
    family(
        "ccapsp_batch_fill_high_water",
        "gauge",
        &[(String::new(), tel.batch_fill.high_water() as f64)],
    );
    family(
        "ccapsp_flight_events",
        "gauge",
        &[(String::new(), tel.flight.len() as f64)],
    );

    // Rolling windows: QPS per window, latency quantiles per query type.
    let qps: Vec<(String, f64)> = QPS_WINDOWS
        .iter()
        .map(|&(label, ms)| (format!("{{window=\"{label}\"}}"), tel.qps(ms)))
        .collect();
    family("ccapsp_qps", "gauge", &qps);
    family(
        "ccapsp_qps_1s_peak",
        "gauge",
        &[(String::new(), tel.qps_1s_peak())],
    );
    let now = tel.now_ms();
    let mut latency: Vec<(String, f64)> = Vec::new();
    {
        let rolling = lock_recovering(&tel.rolling);
        for (ti, name) in QUERY_TYPE_NAMES.iter().enumerate() {
            let hist = rolling.per_type[ti].window(now, 60_000);
            for &(q, qs) in &[(0.50, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                latency.push((
                    format!("{{type=\"{name}\",window=\"60s\",quantile=\"{qs}\"}}"),
                    hist.percentile(q) / 1e3,
                ));
            }
            latency.push((
                format!("{{type=\"{name}\",window=\"60s\",quantile=\"count\"}}"),
                hist.count() as f64,
            ));
        }
    }
    family("ccapsp_latency_us", "gauge", &latency);

    // Per-snapshot families: identity (with backend kind), memory
    // footprint, query counts, cache counters.
    let mut info = Vec::new();
    let mut mem = Vec::new();
    let mut by_type = Vec::new();
    let mut hits = Vec::new();
    let mut misses = Vec::new();
    for id in svc.ids() {
        let (name, version) = svc.label(id);
        let name = prom_escape(name);
        info.push((
            format!(
                "{{name=\"{name}\",version=\"{version}\",backend=\"{backend}\",algo=\"{algo}\",n=\"{n}\"}}",
                backend = svc.backend_kind(id),
                algo = prom_escape(&svc.meta(id).algo),
                n = svc.n(id),
            ),
            1.0,
        ));
        mem.push((
            format!("{{name=\"{name}\",version=\"{version}\"}}"),
            svc.estimate_mem_bytes(id) as f64,
        ));
        for (ty, count) in QUERY_TYPE_NAMES.iter().zip(svc.query_counts(id)) {
            by_type.push((
                format!("{{name=\"{name}\",version=\"{version}\",type=\"{ty}\"}}"),
                count as f64,
            ));
        }
        let cache = svc.cache_stats(id);
        let labels = format!("{{name=\"{name}\",version=\"{version}\"}}");
        hits.push((labels.clone(), cache.hits as f64));
        misses.push((labels, cache.misses as f64));
    }
    family("ccapsp_snapshot_info", "gauge", &info);
    family("ccapsp_estimate_mem_bytes", "gauge", &mem);
    family("ccapsp_queries_by_type_total", "counter", &by_type);
    family("ccapsp_cache_hits_total", "counter", &hits);
    family("ccapsp_cache_misses_total", "counter", &misses);

    out
}

// ---------------------------------------------------------------------------
// Exposition parsing (for `ccapsp top`, the net bench, and tests)
// ---------------------------------------------------------------------------

/// Splits one exposition sample line into `(name, labels, value)`;
/// `labels` is the brace body (possibly empty). Returns `None` for
/// comments, blanks, and malformed lines.
fn split_sample(line: &str) -> Option<(&str, &str, f64)> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return None;
    }
    let (head, value) = line.rsplit_once(' ')?;
    let value: f64 = value.parse().ok()?;
    let (name, labels) = match head.split_once('{') {
        Some((name, rest)) => (name, rest.strip_suffix('}')?),
        None => (head, ""),
    };
    Some((name, labels, value))
}

/// Whether every `key="value"` pair in `want` appears in a label body.
fn labels_match(body: &str, want: &[(&str, &str)]) -> bool {
    want.iter()
        .all(|(k, v)| body.contains(&format!("{k}=\"{v}\"")))
}

/// The first sample of `family` whose labels contain every pair in
/// `labels`. This is the tiny exposition parser `ccapsp top` and the net
/// bench use — it handles exactly the grammar [`prometheus_text`] emits.
pub fn prom_value(text: &str, family: &str, labels: &[(&str, &str)]) -> Option<f64> {
    text.lines().find_map(|line| {
        let (name, body, value) = split_sample(line)?;
        (name == family && labels_match(body, labels)).then_some(value)
    })
}

/// The sum of every sample of `family` (across all label sets).
pub fn prom_sum(text: &str, family: &str) -> f64 {
    text.lines()
        .filter_map(split_sample)
        .filter(|(name, ..)| *name == family)
        .map(|(_, _, v)| v)
        .sum()
}

/// The value of `label` on the first sample of `family` (unescaped raw
/// text) — how `ccapsp top` reads the served version off
/// `ccapsp_snapshot_info`.
pub fn prom_label(text: &str, family: &str, label: &str) -> Option<String> {
    text.lines().find_map(|line| {
        let (name, body, _) = split_sample(line)?;
        if name != family {
            return None;
        }
        let tail = body.split_once(&format!("{label}=\""))?.1;
        Some(tail.split('"').next().unwrap_or("").to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{Snapshot, SnapshotMeta};
    use cc_par::ExecPolicy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_service() -> (OracleService, crate::service::SnapshotId) {
        let mut rng = StdRng::seed_from_u64(7);
        let g = cc_graph::generators::gnp_connected(16, 0.3, 1..=9, &mut rng);
        let exact = cc_graph::apsp::exact_apsp(&g);
        let meta = SnapshotMeta {
            algo: "exact".into(),
            seed: 7,
            stretch_bound: 1.0,
            rounds: 0,
            source: "telemetry-test".into(),
        };
        OracleService::single(Snapshot::new(g, exact, meta))
    }

    #[test]
    fn sweep_recording_feeds_windows_and_slow_log() {
        let tel = ServeTelemetry::new(1); // 1µs threshold: everything is slow
        let queries = [Query::Dist(0, 1), Query::KNearest(2, 3)];
        tel.record_sweep(&queries, &[5_000, 9_000_000]);
        assert!(tel.qps(1_000) >= 2.0, "both samples in the current epoch");
        assert!(tel.qps_1s_peak() >= 2.0);
        assert_eq!(tel.slow_queries.load(Ordering::Relaxed), 2);
        let events = tel.flight.snapshot();
        assert_eq!(events.len(), 2);
        assert!(events[1].detail.contains("knearest"));
    }

    #[test]
    fn exposition_contains_required_families_and_parses_back() {
        let (svc, id) = tiny_service();
        let stats = ServerStats::default();
        let tel = ServeTelemetry::new(0);
        let queries = [Query::Dist(0, 1), Query::Route(0, 5), Query::KNearest(1, 4)];
        let outcome = svc.run_batch(id, &queries, ExecPolicy::Seq);
        tel.record_sweep(&queries, &outcome.latencies_ns);
        tel.event("conn-accept", "peer test");

        let text = prometheus_text(&svc, &stats, &tel);
        for fam in [
            "ccapsp_uptime_seconds",
            "ccapsp_qps",
            "ccapsp_qps_1s_peak",
            "ccapsp_latency_us",
            "ccapsp_snapshot_info",
            "ccapsp_estimate_mem_bytes",
            "ccapsp_flight_events",
        ] {
            assert!(
                text.contains(&format!("# TYPE {fam} ")),
                "missing {fam}:\n{text}"
            );
        }
        assert_eq!(
            prom_value(&text, "ccapsp_qps", &[("window", "1s")]),
            Some(3.0)
        );
        assert!(prom_value(
            &text,
            "ccapsp_latency_us",
            &[("type", "dist"), ("quantile", "0.99")]
        )
        .is_some());
        assert_eq!(
            prom_label(&text, "ccapsp_snapshot_info", "backend").as_deref(),
            Some("dense")
        );
        assert_eq!(
            prom_label(&text, "ccapsp_snapshot_info", "version").as_deref(),
            Some("1")
        );
        assert!(prom_sum(&text, "ccapsp_estimate_mem_bytes") > 0.0);
        assert_eq!(prom_value(&text, "ccapsp_flight_events", &[]), Some(1.0));
    }

    #[test]
    fn label_escaping_survives_hostile_names() {
        assert_eq!(prom_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(prom_num(3.0), "3");
        assert_eq!(prom_num(3.25), "3.250");
    }
}
