//! End-to-end tests for the `ccapsp serve` daemon: real TCP sockets on
//! 127.0.0.1, multiple concurrent connections, chaos clients, and blue/green
//! snapshot swaps under live query load.
//!
//! The headline invariant is the networked extension of the repo-wide
//! determinism contract: for a fixed snapshot and [`LoadSpec`], the
//! fingerprint reduced from TCP responses is **bit-identical** to the
//! in-process [`replay`] fingerprint, at every server thread policy and any
//! number of client connections.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use cc_dynamic::incremental::{DynamicConfig, IncrementalOracle};
use cc_dynamic::update::{random_batch, MutationProfile};
use cc_par::ExecPolicy;
use cc_serve::client::{chaos, replay_network, scrape_http_metrics, Client};
use cc_serve::loadgen::{replay, LoadSpec};
use cc_serve::server::{Server, ServerConfig};
use cc_serve::service::{OracleService, Query};
use cc_serve::snapshot::{Snapshot, SnapshotMeta};
use cc_serve::wire::Request;
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 48;
const SEED: u64 = 0xE2E;

fn make_snapshot(seed: u64) -> Snapshot {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = cc_graph::generators::gnp_connected(N, 0.15, 1..=20, &mut rng);
    let exact = cc_graph::apsp::exact_apsp(&g);
    let meta = SnapshotMeta {
        algo: "exact".into(),
        seed,
        stretch_bound: 1.0,
        rounds: 0,
        source: "server_e2e".into(),
    };
    Snapshot::new(g, exact, meta)
}

fn spawn_server(exec: ExecPolicy) -> cc_serve::server::ServerHandle {
    let (service, _) = OracleService::single(make_snapshot(SEED));
    let cfg = ServerConfig {
        exec,
        ..ServerConfig::default()
    };
    Server::spawn(service, "127.0.0.1:0", cfg).expect("bind ephemeral port")
}

/// The headline invariant: serving over TCP with 4 concurrent connections
/// produces the exact fingerprint of the in-process replay, for both a
/// sequential and a threaded server execution policy.
#[test]
fn networked_fingerprint_matches_in_process() {
    let spec = LoadSpec {
        queries: 4_000,
        batch: 128,
        ..Default::default()
    };
    for exec in [ExecPolicy::Seq, ExecPolicy::with_threads(4)] {
        let (service, id) = OracleService::single(make_snapshot(SEED));
        let reference = replay(&service, id, &spec, exec);

        let handle = spawn_server(exec);
        let addr = handle.local_addr();
        let net = replay_network(addr, "default", &spec, 4).expect("networked replay");
        handle.shutdown();

        assert_eq!(
            net, reference,
            "networked fingerprint diverged from in-process at exec {exec:?}"
        );
    }
}

/// Every chaos scenario — random bytes, lying lengths, checksum flips,
/// mid-frame half-closes, slow readers — must leave the daemon alive and
/// serving; well-behaved clients on the same server keep getting answers.
#[test]
fn chaos_clients_cannot_kill_the_server() {
    use cc_serve::telemetry::prom_value;
    let handle = spawn_server(ExecPolicy::Seq);
    let addr = handle.local_addr();

    let report = chaos(addr);
    assert!(report.ok(), "chaos scenarios failed: {:?}", report.failed);

    // A normal client still works after the abuse.
    let mut client = Client::connect(addr).expect("connect after chaos");
    let metrics = client.metrics_v2().expect("metrics-v2 after chaos");
    let wire_errors = prom_value(&metrics, "ccapsp_wire_errors_total", &[]);
    assert!(wire_errors >= Some(1.0), "exposition: {metrics}");
    let responses = client
        .batch("default", &[Query::Dist(0, 1), Query::Route(0, N - 1)])
        .expect("batch after chaos");
    assert_eq!(responses.len(), 2);
    handle.shutdown();
}

/// Blue/green under fire: while several connections hammer the server with
/// query batches, an admin connection applies a dynamic-update delta and
/// then swaps in a whole replacement snapshot. No in-flight query may be
/// dropped or answered with an error, and the advertised version must bump
/// for each admin action.
#[test]
fn swap_and_delta_under_live_load() {
    // Build the delta offline against an engine seeded from the same
    // snapshot the server will serve.
    let base = make_snapshot(SEED);
    let mut engine = IncrementalOracle::with_backend(
        base.graph.clone(),
        base.backend.clone(),
        "exact",
        SEED,
        DynamicConfig::default(),
    );
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xD17A);
    let mutation = random_batch(engine.graph(), 4, MutationProfile::ReweightHeavy, &mut rng);
    let outcome = engine.apply(&mutation).expect("valid generated batch");
    let delta_bytes = outcome.delta.to_bytes();
    let replacement_bytes = make_snapshot(SEED + 1).to_bytes();

    let handle = spawn_server(ExecPolicy::Seq);
    let addr = handle.local_addr();

    let stop = Arc::new(AtomicBool::new(false));
    let answered = Arc::new(AtomicUsize::new(0));
    let workers: Vec<_> = (0..4)
        .map(|w| {
            let stop = Arc::clone(&stop);
            let answered = Arc::clone(&answered);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("worker connect");
                let queries: Vec<Query> = (0..64)
                    .map(|i| Query::Dist((w * 7 + i) % N, (i * 13) % N))
                    .collect();
                while !stop.load(Ordering::Relaxed) {
                    let responses = client
                        .batch("default", &queries)
                        .expect("query batch during swap");
                    assert_eq!(responses.len(), queries.len());
                    answered.fetch_add(responses.len(), Ordering::Relaxed);
                }
            })
        })
        .collect();

    let mut admin = Client::connect(addr).expect("admin connect");
    let v0 = admin.info("default").expect("info").version;

    // Let the workers get some load in flight, then mutate live.
    while answered.load(Ordering::Relaxed) < 256 {
        std::thread::yield_now();
    }
    admin
        .admin(&Request::ApplyDelta {
            name: "default".into(),
            delta: delta_bytes,
        })
        .expect("apply delta while serving");
    let v1 = admin.info("default").expect("info").version;
    assert_eq!(v1, v0 + 1, "delta must bump the served version");

    admin
        .admin(&Request::SwapSnapshot {
            name: "default".into(),
            snapshot: replacement_bytes,
        })
        .expect("swap snapshot while serving");
    let v2 = admin.info("default").expect("info").version;
    assert!(v2 > v1, "swap must advance the served version");

    // Drain a little more load against the swapped-in snapshot.
    let mark = answered.load(Ordering::Relaxed);
    while answered.load(Ordering::Relaxed) < mark + 256 {
        std::thread::yield_now();
    }
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().expect("worker thread");
    }
    handle.shutdown();
}

/// Validates Prometheus text-exposition grammar line by line: every line
/// is a comment (`# ...`) or a sample `name[{label="value",...}] number`,
/// and every sample's family was declared by a preceding `# TYPE` line.
fn assert_exposition_grammar(text: &str) {
    let mut declared: Vec<&str> = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let family = parts.next().expect("family name after # TYPE");
            let kind = parts.next().expect("kind after family");
            assert!(
                matches!(kind, "counter" | "gauge"),
                "unknown metric kind in {line:?}"
            );
            declared.push(family);
            continue;
        }
        assert!(!line.starts_with('#'), "unexpected comment form: {line:?}");
        assert!(!line.is_empty(), "blank line in exposition");
        let (name_part, value) = line.rsplit_once(' ').expect("sample has a value");
        let name = name_part.split('{').next().unwrap();
        assert!(
            declared.contains(&name),
            "sample {name:?} has no preceding # TYPE declaration"
        );
        assert!(
            value.parse::<f64>().is_ok(),
            "sample value not a number: {line:?}"
        );
        if let Some((_, labels)) = name_part.split_once('{') {
            let labels = labels
                .strip_suffix("\"}")
                .expect("label list ends with a quoted value");
            for pair in labels.split("\",") {
                let (key, val) = pair.split_once("=\"").expect("label key=\"value\"");
                assert!(
                    !key.is_empty() && !key.contains('"'),
                    "bad label in {line:?}"
                );
                assert!(!val.contains('"'), "unescaped quote in {line:?}");
            }
        }
    }
    assert!(!declared.is_empty(), "exposition declared no families");
}

/// The live-telemetry acceptance path end to end: a daemon with the
/// metrics side-listener bound and a 1 µs slow-query threshold serves
/// load, then answers `GET /metrics` over plain HTTP with a
/// grammar-valid exposition carrying rolling QPS, per-type latency
/// quantiles, and the snapshot-identity family; the Metrics-v2 wire frame
/// returns the same document shape; the flight dump is valid JSON holding
/// the expected event kinds; and a wrong HTTP path gets a 404.
#[test]
fn live_metrics_scrape_and_flight_dump() {
    let (service, _) = OracleService::single(make_snapshot(SEED));
    let cfg = ServerConfig {
        exec: ExecPolicy::Seq,
        slow_query_us: 1,
        metrics_addr: Some("127.0.0.1:0".parse().unwrap()),
        ..ServerConfig::default()
    };
    let handle = Server::spawn(service, "127.0.0.1:0", cfg).expect("bind ephemeral port");
    let addr = handle.local_addr();
    let metrics_addr = handle.metrics_addr().expect("metrics listener bound");

    let spec = LoadSpec {
        queries: 2_000,
        batch: 128,
        ..Default::default()
    };
    replay_network(addr, "default", &spec, 3).expect("networked replay");

    // Plain-HTTP scrape: valid grammar plus the required families.
    let text = scrape_http_metrics(metrics_addr).expect("GET /metrics");
    assert_exposition_grammar(&text);
    for family in [
        "ccapsp_uptime_seconds",
        "ccapsp_qps",
        "ccapsp_qps_1s_peak",
        "ccapsp_latency_us",
        "ccapsp_snapshot_info",
        "ccapsp_estimate_mem_bytes",
        "ccapsp_connections_total",
        "ccapsp_cache_hits_total",
        "ccapsp_slow_queries_total",
    ] {
        assert!(
            text.contains(&format!("# TYPE {family} ")),
            "scrape missing family {family}:\n{text}"
        );
    }
    use cc_serve::telemetry::{prom_label, prom_sum, prom_value};
    for window in ["1s", "10s", "60s"] {
        let qps = prom_value(&text, "ccapsp_qps", &[("window", window)]);
        assert!(qps.is_some_and(|q| q >= 0.0), "qps window {window}");
    }
    assert!(prom_value(&text, "ccapsp_qps", &[("window", "1s")]).unwrap() > 0.0);
    for quantile in ["0.5", "0.95", "0.99"] {
        let p = prom_value(
            &text,
            "ccapsp_latency_us",
            &[("type", "dist"), ("quantile", quantile)],
        );
        assert!(p.is_some_and(|v| v > 0.0), "dist latency q{quantile}");
    }
    assert_eq!(
        prom_label(&text, "ccapsp_snapshot_info", "backend").as_deref(),
        Some("dense")
    );
    assert!(prom_sum(&text, "ccapsp_slow_queries_total") > 0.0);

    // The wire Metrics-v2 frame carries the same exposition shape.
    let mut client = Client::connect(addr).expect("connect");
    let wire_text = client.metrics_v2().expect("metrics-v2 frame");
    assert_exposition_grammar(&wire_text);
    assert!(prom_value(&wire_text, "ccapsp_qps_1s_peak", &[]).unwrap() > 0.0);

    // Flight dump: valid JSON, expected event kinds, bounded ring.
    let flight = client.flight_dump().expect("flight-dump frame");
    cc_bench::envelope::validate_json(&flight).expect("flight dump is valid JSON");
    assert!(flight.contains("\"kind\":\"conn-accept\""), "{flight}");
    assert!(flight.contains("\"kind\":\"slow-query\""), "{flight}");

    // Wrong path → 404; the daemon keeps serving afterwards.
    {
        use std::io::{Read, Write};
        let mut s = std::net::TcpStream::connect(metrics_addr).expect("connect http");
        s.write_all(b"GET /nope HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .expect("write");
        let mut reply = String::new();
        s.read_to_string(&mut reply).expect("read");
        assert!(reply.starts_with("HTTP/1.1 404"), "got: {reply}");
    }
    let text2 = scrape_http_metrics(metrics_addr).expect("scrape after 404");
    assert!(text2.contains("ccapsp_uptime_seconds"));

    handle.shutdown();
}

/// A client-initiated shutdown frame stops the daemon; `wait` returns and
/// in-flight work is answered first.
#[test]
fn shutdown_frame_stops_the_daemon() {
    let handle = spawn_server(ExecPolicy::Seq);
    let addr = handle.local_addr();

    let mut client = Client::connect(addr).expect("connect");
    let responses = client
        .batch("default", &[Query::KNearest(3, 4)])
        .expect("batch before shutdown");
    assert_eq!(responses.len(), 1);
    client.shutdown().expect("shutdown acknowledged");
    handle.wait();
}
