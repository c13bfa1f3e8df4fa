//! Property tests for the landmark-sketch oracle backend, across graph
//! families and execution policies.
//!
//! For every generated instance the sketch must uphold the Thorup–Zwick
//! k = 2 contract: estimates never undershoot the true distance, connected
//! pairs stay within the stretch-3 guarantee, greedy routing over the
//! approximate estimate always terminates on a real path, and the sketch is
//! a pure function of `(graph, seed)` — bit-identical at every thread
//! count, with a matching backend state fingerprint.

use cc_apsp::landmark::LandmarkSketch;
use cc_apsp::oracle::OracleBackend;
use cc_dynamic::backend_state_fingerprint;
use cc_graph::{apsp, generators, Graph, INF};
use cc_par::ExecPolicy;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One connected instance from each of the four families exercised by the
/// conformance suites: gnp, preferential attachment, grid, and random
/// geometric.
fn instance(family: u8, size: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    match family % 4 {
        0 => generators::gnp_connected(size, 0.15, 1..=20, &mut rng),
        1 => generators::preferential_attachment(size, 2, 1..=20, &mut rng),
        2 => generators::grid(size / 5 + 2, 5, 1..=9, &mut rng),
        _ => generators::random_geometric(size, 0.35, 50, &mut rng),
    }
}

fn policies() -> [ExecPolicy; 2] {
    [ExecPolicy::Seq, ExecPolicy::with_threads(4)]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Soundness and the stretch-3 guarantee: for every ordered pair the
    /// sketch never underestimates, and every connected pair's estimate is
    /// within 3× of the true distance (the instances are connected, so no
    /// pair is exempt).
    #[test]
    fn estimates_are_sound_and_within_stretch_three(
        family in 0u8..4, size in 8usize..28, seed in any::<u64>(),
    ) {
        let g = instance(family, size, seed);
        let exact = apsp::exact_apsp(&g);
        let sketch = LandmarkSketch::build(&g, seed, ExecPolicy::Seq);
        for u in 0..g.n() {
            let row = sketch.dist_row(u);
            for (v, &est) in row.iter().enumerate() {
                let true_d = exact.get(u, v);
                prop_assert_eq!(est, sketch.query(u, v), "dist_row vs query at ({}, {})", u, v);
                prop_assert!(est >= true_d, "underestimate at ({}, {}): {} < {}", u, v, est, true_d);
                if true_d < INF && u != v {
                    prop_assert!(
                        est < INF && est as f64 <= 3.0 * true_d as f64,
                        "stretch violated at ({}, {}): est {} vs true {}", u, v, est, true_d
                    );
                }
            }
        }
    }

    /// Greedy routing over the approximate estimate terminates for every
    /// pair, and a delivered route is a real path in the graph ending at
    /// the target.
    #[test]
    fn greedy_routes_terminate_on_real_paths(
        family in 0u8..4, size in 8usize..28, seed in any::<u64>(),
    ) {
        let g = instance(family, size, seed);
        let sketch = LandmarkSketch::build(&g, seed, ExecPolicy::Seq);
        let oracle = OracleBackend::Landmark(sketch);
        for u in 0..g.n() {
            for v in 0..g.n() {
                // `route` must return (its visited-set bounds it to ≤ n
                // hops); a Some must be a genuine u → v walk.
                if let Some(path) = oracle.route(&g, u, v) {
                    prop_assert_eq!(path.first().copied(), Some(u));
                    prop_assert_eq!(path.last().copied(), Some(v));
                    prop_assert!(path.len() <= g.n());
                    for hop in path.windows(2) {
                        prop_assert!(
                            g.neighbors(hop[0]).any(|(x, _)| x == hop[1]),
                            "route used a non-edge {} -> {}", hop[0], hop[1]
                        );
                    }
                }
            }
        }
    }

    /// The sketch is a pure function of `(graph, seed)`: sequential and
    /// 4-thread builds are identical, and so are the resulting backend
    /// state fingerprints (the anchor the delta chain hangs off).
    #[test]
    fn builds_are_execution_invariant(
        family in 0u8..4, size in 8usize..28, seed in any::<u64>(),
    ) {
        let g = instance(family, size, seed);
        let [seq, par] = policies().map(|exec| LandmarkSketch::build(&g, seed, exec));
        prop_assert_eq!(&seq, &par);
        let fp = |s: LandmarkSketch| backend_state_fingerprint(&g, &OracleBackend::Landmark(s));
        prop_assert_eq!(fp(seq), fp(par));
    }
}
