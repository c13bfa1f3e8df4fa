//! End-to-end tour of the serving layer: run the Theorem 1.1 pipeline,
//! freeze the result into a versioned snapshot, reload it, register it in
//! an [`OracleService`], answer point queries, and replay a zipf-skewed
//! query stream against it at two thread counts.
//!
//! ```sh
//! cargo run --release --example serve_quickstart
//! ```

use cc_apsp::pipeline::{approximate_apsp, PipelineConfig};
use cc_graph::generators;
use cc_par::ExecPolicy;
use cc_serve::loadgen::{replay, LoadSpec, Skew};
use cc_serve::service::{OracleService, Query, Response};
use cc_serve::snapshot::{Snapshot, SnapshotMeta};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let n = 160;
    let seed = 7;
    let mut rng = StdRng::seed_from_u64(seed);
    let g = generators::gnp_connected(n, 0.06, 1..=50, &mut rng);
    println!("workload: gnp n={n} m={} seed={seed}", g.m());

    // Compute once...
    let result = approximate_apsp(
        &g,
        &PipelineConfig {
            seed,
            ..Default::default()
        },
    );
    println!(
        "pipeline: bound {:.1}x, {} simulated rounds",
        result.stretch_bound, result.rounds
    );

    // ...freeze into the servable artifact and round-trip it like the CLI
    // (`ccapsp snapshot` → `ccapsp query`) does through a file.
    let snapshot = Snapshot::new(
        g,
        result.estimate,
        SnapshotMeta {
            algo: "thm11".into(),
            seed,
            stretch_bound: result.stretch_bound,
            rounds: result.rounds,
            source: format!("gnp(n={n},seed={seed})"),
        },
    );
    let path = std::env::temp_dir().join("serve_quickstart.ccsnap");
    snapshot.save(&path).expect("save snapshot");
    let reloaded = Snapshot::load(&path).expect("load snapshot");
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    let _ = std::fs::remove_file(&path);
    println!("snapshot: {bytes} bytes on disk, round-trips bit-identically");

    // Serve it.
    let (service, id) = OracleService::single(reloaded);
    if let Response::Dist(d) = service.answer(id, &Query::Dist(0, n - 1)) {
        println!("query: dist(0, {}) = {d}", n - 1);
    }
    if let Response::Route(Some(route)) = service.answer(id, &Query::Route(0, n - 1)) {
        println!(
            "query: route(0, {}) delivered in {} hops",
            n - 1,
            route.len() - 1
        );
    }
    if let Response::KNearest(nearest) = service.answer(id, &Query::KNearest(0, 5)) {
        println!("query: 5-nearest of node 0 = {nearest:?}");
    }

    // Replay: same stream, two thread counts — fingerprints must match.
    // (Throughput and latency are the `ccbench` package's job.)
    let spec = LoadSpec {
        queries: 30_000,
        skew: Skew::Zipf(1.1),
        seed,
        ..Default::default()
    };
    println!(
        "\nreplay: {} queries, zipf(1.1) sources, batch {}",
        spec.queries, spec.batch
    );
    let [one, four] = [1, 4].map(|threads| {
        let fingerprint = replay(&service, id, &spec, ExecPolicy::with_threads(threads));
        println!("  threads={threads}: fingerprint {fingerprint:016x}");
        fingerprint
    });
    assert_eq!(
        one, four,
        "served results must not depend on the thread count"
    );
    println!("fingerprints agree: results are thread-count invariant");
}
