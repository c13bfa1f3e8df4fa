//! Distance-oracle scenario: approximate routing on a geometric "ISP-like"
//! topology.
//!
//! ```sh
//! cargo run --release --example network_routing
//! ```
//!
//! APSP in the Congested Clique is motivated by network routing (Section 1):
//! every node ends up knowing its (approximate) distance to every other
//! node. This example builds a random geometric network whose weights are
//! link latencies, runs the pipeline, serves the estimate through a dense
//! [`cc_apsp::oracle::OracleBackend`], and measures greedy next-hop routing
//! ([`cc_apsp::oracle::OracleBackend::route`]) against exact shortest
//! paths.

use cc_apsp::oracle::OracleBackend;
use cc_apsp::pipeline::{approximate_apsp, PipelineConfig};
use cc_graph::{apsp, generators, INF};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let n = 200;
    let mut rng = StdRng::seed_from_u64(7);
    // Latencies ~ distance in a unit square, scaled to ~[1, 140].
    let g = generators::random_geometric(n, 0.18, 100, &mut rng);
    println!("geometric network: n = {}, m = {} links", g.n(), g.m());

    let result = approximate_apsp(
        &g,
        &PipelineConfig {
            seed: 7,
            ..Default::default()
        },
    );
    let exact = apsp::exact_apsp(&g);
    let stats = result.estimate.stretch_vs(&exact);
    println!(
        "oracle built in {} rounds; estimate stretch max {:.2} / mean {:.2} (bound {:.0})",
        result.rounds, stats.max_stretch, stats.mean_stretch, result.stretch_bound
    );

    let oracle = OracleBackend::Dense(result.estimate);

    // Latency queries.
    println!("\nlatency queries (true → oracle):");
    for _ in 0..6 {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v || exact.get(u, v) >= INF {
            continue;
        }
        println!(
            "  {u:3} → {v:3}: {:5} → {:5}  ({:.2}×)",
            exact.get(u, v),
            oracle.query(u, v),
            oracle.query(u, v) as f64 / exact.get(u, v) as f64
        );
    }

    // Greedy routing over a sample of all connected pairs.
    let quality = oracle.routing_quality(&g, &exact, 17);
    println!(
        "\ngreedy routing over {} sampled pairs: {} delivered ({:.1}%)",
        quality.attempted,
        quality.delivered,
        100.0 * quality.delivered as f64 / quality.attempted.max(1) as f64
    );
    println!(
        "route stretch (walked / true shortest): mean {:.3}, max {:.3}",
        quality.mean_route_stretch, quality.max_route_stretch
    );

    // One concrete route.
    if let Some(path) = oracle.route(&g, 0, n - 1) {
        println!(
            "\nroute 0 → {}: {} hops via {:?}",
            n - 1,
            path.len() - 1,
            path
        );
    }
}
