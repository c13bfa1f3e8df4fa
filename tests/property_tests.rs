//! Property-based tests (proptest) for the core invariants:
//! estimates never underestimate, hopsets preserve distances, filtered
//! powers commute (Lemma 5.5), Lemma 5.1's round computes them, spanner
//! stretch, scaling bounds, and the zero-weight reduction.

use cc_apsp::pipeline::{approximate_apsp, PipelineConfig};
use cc_apsp::zeroweight::apsp_with_zero_weights;
use cc_graph::graph::{Direction, Graph};
use cc_graph::{apsp, NodeId, Weight, INF};
use cc_matrix::dense::{adjacency_matrix, power};
use cc_matrix::filtered::{filtered_power_reference, FilteredMatrix};
use clique_sim::{Bandwidth, Clique};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a connected-ish undirected weighted graph as an edge list.
fn arb_graph(max_n: usize, max_w: Weight) -> impl Strategy<Value = Graph> {
    (4usize..max_n).prop_flat_map(move |n| {
        let path_edges: Vec<(NodeId, NodeId)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let extra = proptest::collection::vec((0..n, 0..n, 1..=max_w), 0..3 * n);
        let path_w = proptest::collection::vec(1..=max_w, n - 1);
        (Just(n), Just(path_edges), path_w, extra).prop_map(|(n, path, pw, extra)| {
            let mut edges: Vec<(NodeId, NodeId, Weight)> = path
                .into_iter()
                .zip(pw)
                .map(|((u, v), w)| (u, v, w))
                .collect();
            for (u, v, w) in extra {
                if u != v {
                    edges.push((u, v, w));
                }
            }
            Graph::from_edges(n, Direction::Undirected, &edges)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The headline invariant: the Theorem 1.1 pipeline always produces a
    /// valid estimate within its own declared bound.
    #[test]
    fn pipeline_estimate_is_always_valid(g in arb_graph(36, 50), seed in 0u64..1000) {
        let result = approximate_apsp(&g, &PipelineConfig { seed, ..Default::default() });
        let exact = apsp::exact_apsp(&g);
        let stats = result.estimate.stretch_vs(&exact);
        prop_assert!(stats.is_valid_approximation(result.stretch_bound), "{}", stats);
    }

    /// Lemma 5.5 on arbitrary graphs: filter_k(Ā^h) = filter_k(A^h).
    #[test]
    fn filtered_power_commutes(g in arb_graph(24, 30), k in 2usize..6, h in 2u64..4) {
        let a = adjacency_matrix(&g);
        let full = filtered_power_reference(&a, k, h);
        let abar = FilteredMatrix::from_graph(&g, k).to_dense();
        let filtered = FilteredMatrix::from_dense(&power(&abar, h), k);
        prop_assert_eq!(full, filtered);
    }

    /// Hopsets preserve distances exactly, for any a-approximation input.
    #[test]
    fn hopset_preserves_metric(g in arb_graph(28, 40), factor in 1u64..5) {
        let exact = apsp::exact_apsp(&g);
        let n = g.n();
        let mut delta = exact.clone();
        for u in 0..n {
            for v in 0..n {
                let d = exact.get(u, v);
                if u != v && d < INF {
                    delta.set(u, v, d.saturating_mul(1 + (u as u64 + v as u64) % factor.max(1)));
                }
            }
        }
        delta.symmetrize_min();
        let mut clique = Clique::new(n, Bandwidth::standard(n));
        let k = ((n as f64).sqrt() as usize).max(2);
        let hs = cc_apsp::hopset::build_hopset(&mut clique, &g, &delta, k);
        prop_assert_eq!(apsp::exact_apsp(&hs.combined), exact);
    }

    /// Spanner stretch never exceeds 2k−1.
    #[test]
    fn spanner_stretch_bound(g in arb_graph(28, 30), k in 2usize..5, seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = cc_apsp::spanner::baswana_sen(&g, k, &mut rng);
        let stretch = cc_apsp::spanner::measure_spanner_stretch(&g, &s);
        prop_assert!(stretch <= (2 * k - 1) as f64 + 1e-9, "stretch {}", stretch);
    }

    /// The zero-weight wrapper, composed with an exact inner solver, is
    /// exact on graphs with arbitrary zero/positive weight mixes.
    #[test]
    fn zero_weight_reduction_exactness(
        n in 6usize..20,
        zero_mask in proptest::collection::vec(any::<bool>(), 40),
        weights in proptest::collection::vec(1u64..20, 40),
    ) {
        let mut edges = Vec::new();
        for i in 0..n - 1 {
            let w = if zero_mask[i % zero_mask.len()] { 0 } else { weights[i % weights.len()] };
            edges.push((i, i + 1, w));
        }
        for j in 0..n / 2 {
            let u = (j * 7) % n;
            let v = (j * 11 + 3) % n;
            if u != v {
                let w = if zero_mask[(j + 13) % zero_mask.len()] { 0 } else { weights[(j + 5) % weights.len()] };
                edges.push((u, v, w));
            }
        }
        let g = Graph::from_edges(n, Direction::Undirected, &edges);
        let mut clique = Clique::new(n, Bandwidth::standard(n));
        let mut compressed_positive = true;
        let (est, _) = apsp_with_zero_weights(&mut clique, &g, |_c, compressed| {
            compressed_positive = compressed.has_positive_weights();
            (apsp::exact_apsp(compressed), 1.0)
        });
        prop_assert!(compressed_positive);
        prop_assert_eq!(est, apsp::exact_apsp(&g));
    }
}

/// Strategy: a random weighted digraph on 8–80 nodes with weights 0–40, so
/// zero-weight arcs meet the zero-weight self-arcs that pad Lemma 5.1's list.
fn arb_digraph() -> impl Strategy<Value = Graph> {
    (8usize..=80)
        .prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec((0..n, 0..n, 0u64..=40), 0..=4 * n),
            )
        })
        .prop_map(|(n, arcs)| Graph::from_edges(n, Direction::Directed, &arcs))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Lemma 5.1 over both of its plans: `one_round` equals `filter_k(Ā^h)`
    /// whether `plan_bins` finds bins (always at h = 1 here) or falls back to
    /// the broadcast (below n = 16 at h = 2, n = 64 at h = 3, n = 256 at h = 4).
    #[test]
    fn one_round_equals_the_filtered_power(g in arb_digraph(), k in 1usize..=8, h in 1usize..=4) {
        let abar = FilteredMatrix::from_graph(&g, k);
        let mut clique = Clique::new(g.n(), Bandwidth::standard(g.n()));
        let out = cc_apsp::knearest::one_round(&mut clique, &abar, h);
        prop_assert_eq!(out, filtered_power_reference(&abar.to_dense(), k, h as u64));
    }
}

/// The k-nearest engine agrees with per-source Dijkstra on arbitrary graphs
/// (deterministic loop rather than proptest: the engine is deterministic and
/// the loop covers structured corner shapes).
#[test]
fn k_nearest_agrees_with_dijkstra_on_structured_graphs() {
    let shapes: Vec<Graph> = vec![
        // Path.
        Graph::from_edges(
            17,
            Direction::Undirected,
            &(0..16).map(|i| (i, i + 1, 2)).collect::<Vec<_>>(),
        ),
        // Star.
        Graph::from_edges(
            12,
            Direction::Undirected,
            &(1..12).map(|i| (0, i, i as u64)).collect::<Vec<_>>(),
        ),
        // Cycle with chord.
        {
            let mut e: Vec<(usize, usize, u64)> = (0..14).map(|i| (i, (i + 1) % 15, 3)).collect();
            e.push((0, 7, 1));
            Graph::from_edges(15, Direction::Undirected, &e)
        },
    ];
    for (i, g) in shapes.iter().enumerate() {
        let k = 5;
        let mut clique = Clique::new(g.n(), Bandwidth::standard(g.n()));
        let rows = cc_apsp::knearest::k_nearest_exact(&mut clique, g, k, 2, 4);
        for u in 0..g.n() {
            let expect = cc_graph::sssp::k_nearest(g, u, k);
            assert_eq!(rows.row(u), &expect[..], "shape {i}, node {u}");
        }
    }
}
