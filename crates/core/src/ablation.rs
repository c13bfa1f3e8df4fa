//! Ablations: alternative implementations of design choices, used to
//! cross-validate the main code paths and to quantify the tradeoffs the
//! substitution notes in [`crate::scaling`] and [`crate::spanner`] call out
//! (the A1–A4 tables of `cargo bench -p cc-bench --bench ablations`).
//!
//! * [`greedy_hitting_set`] — a deterministic greedy set-cover hitting set,
//!   vs. the paper's sampled one (Lemma 6.2). Greedy gives smaller sets but
//!   needs `Θ(|S|)` sequential clique rounds; the comparison quantifies the
//!   price of `O(1)`-round sampling.
//! * [`weight_scaling_clique_cap`] — the paper's literal `K_i` construction
//!   (a cap-weight edge between *every* pair, `Θ(n²)` edges per scale), vs.
//!   our hub-star substitution. Tests prove the two metrics sandwich each
//!   other exactly as the substitution argument claims.
//! * [`naive_skeleton_edges`] — direct enumeration of the Section 6.1
//!   triple rule, vs. the `X ⋆ Y` sparse-matmul construction. The two must
//!   agree **exactly**; this pins the x/y decomposition's correctness.

use std::collections::HashMap;

use cc_graph::graph::{Direction, Graph, GraphBuilder};
use cc_graph::{wadd, NodeId, Weight, INF};
use cc_matrix::filtered::FilteredMatrix;

use crate::scaling::ScaledGraphs;
use crate::skeleton::Skeleton;

/// Deterministic greedy hitting set: repeatedly picks the node contained in
/// the most not-yet-hit `Ñ_k` sets (ties by ID). Produces sets at most
/// `H(n) ≈ ln n` times larger than optimal — usually *smaller* than the
/// sampled set — but is inherently sequential (`Θ(|S|)` selection rounds in
/// the clique), which is why the paper samples instead.
pub fn greedy_hitting_set(tilde: &FilteredMatrix) -> Vec<NodeId> {
    let n = tilde.n();
    // membership[v] = the sets (rows) that contain v.
    let mut membership: Vec<Vec<usize>> = vec![Vec::new(); n];
    for u in 0..n {
        for &(v, _) in tilde.row(u) {
            membership[v].push(u);
        }
    }
    let mut hit = vec![false; n]; // per row
    let mut chosen = Vec::new();
    let mut remaining = n;
    let mut gain: Vec<usize> = membership.iter().map(Vec::len).collect();
    while remaining > 0 {
        let best = (0..n)
            .max_by_key(|&v| (gain[v], std::cmp::Reverse(v)))
            .expect("n > 0");
        if gain[best] == 0 {
            // Rows left unhit have empty tilde sets; hit them with
            // themselves (mirrors the sampled fix-up).
            for (u, h) in hit.iter_mut().enumerate() {
                if !*h {
                    chosen.push(u);
                    *h = true;
                }
            }
            break;
        }
        chosen.push(best);
        for &row in &membership[best] {
            if !hit[row] {
                hit[row] = true;
                remaining -= 1;
                // Every member of this row loses one unit of gain.
                for &(v, _) in tilde.row(row) {
                    gain[v] = gain[v].saturating_sub(1);
                }
            }
        }
    }
    chosen.sort_unstable();
    chosen.dedup();
    chosen
}

/// The paper's literal `K_i`: every pair gets a cap-weight edge
/// (`Θ(n²)` edges per scale). Kept for cross-validation and the A2
/// ablation; the pipeline uses the sparse hub-star variant
/// ([`crate::scaling::weight_scaling`]).
pub fn weight_scaling_clique_cap(g: &Graph, delta_max: Weight, h: u64, eps: f64) -> ScaledGraphs {
    assert_eq!(
        g.direction(),
        Direction::Undirected,
        "scaling expects undirected graphs"
    );
    assert!(h >= 1 && eps > 0.0);
    let b_const = (2.0 / eps).ceil() as u64;
    let bh2 = b_const * h * h;
    let mut scales = 1usize;
    let mut bound = bh2;
    while bound <= delta_max.min(INF - 1) {
        scales += 1;
        bound = bound.saturating_mul(2);
    }
    let n = g.n();
    let mut graphs = Vec::with_capacity(scales);
    for i in 0..scales {
        let x: Weight = 1 << i;
        let cap = x.saturating_mul(bh2);
        let mut b = GraphBuilder::undirected(n);
        for (u, v, w) in g.edges() {
            let rounded = w.div_ceil(x).saturating_mul(x);
            b.add_edge(u, v, rounded.min(cap) / x);
        }
        for u in 0..n {
            for v in (u + 1)..n {
                b.add_edge(u, v, bh2);
            }
        }
        graphs.push(b.build());
    }
    ScaledGraphs {
        graphs,
        b_const,
        h,
        eps,
    }
}

/// Direct (non-matmul) skeleton edge construction: enumerates every triple
/// `(u, t, v)` with `t ∈ Ñ_k(u)` and (`{t,v} ∈ E` or `t = v`), and takes
/// the minimum `δ(c(u),u) + δ(u,t) + w_tv + δ(v,c(v))` per center pair.
/// Must match `Skeleton::graph` exactly.
pub fn naive_skeleton_edges(g: &Graph, tilde: &FilteredMatrix, skeleton: &Skeleton) -> Graph {
    let n = g.n();
    let mut best: HashMap<(usize, usize), Weight> = HashMap::new();
    let mut relax = |a: usize, b: usize, w: Weight| {
        if a == b || w >= INF {
            return;
        }
        let key = (a.min(b), a.max(b));
        let e = best.entry(key).or_insert(INF);
        if w < *e {
            *e = w;
        }
    };
    for u in 0..n {
        let cu = skeleton.index_of[skeleton.assignment[u]].expect("center indexed");
        let du = skeleton.delta_to_center[u];
        for &(t, d_ut) in tilde.row(u) {
            let prefix = wadd(du, d_ut);
            // t = v case.
            let cv = skeleton.index_of[skeleton.assignment[t]].expect("center indexed");
            relax(cu, cv, wadd(prefix, skeleton.delta_to_center[t]));
            // {t, v} ∈ E case.
            for (v, w_tv) in g.neighbors(t) {
                let cv = skeleton.index_of[skeleton.assignment[v]].expect("center indexed");
                relax(
                    cu,
                    cv,
                    wadd(wadd(prefix, w_tv), skeleton.delta_to_center[v]),
                );
            }
        }
    }
    let mut b = GraphBuilder::undirected(skeleton.size());
    for ((a, bb), w) in best {
        b.add_edge(a, bb, w);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scaling::weight_scaling;
    use crate::skeleton::{build_skeleton, hitting_set};
    use cc_graph::{apsp, generators, sssp};
    use clique_sim::{Bandwidth, Clique};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn exact_tilde(g: &Graph, k: usize) -> FilteredMatrix {
        let rows: Vec<Vec<(NodeId, Weight)>> =
            (0..g.n()).map(|u| sssp::k_nearest(g, u, k)).collect();
        FilteredMatrix::from_rows(g.n(), k, rows)
    }

    #[test]
    fn greedy_hitting_set_hits_everything() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::gnp_connected(120, 0.06, 1..=20, &mut rng);
        let tilde = exact_tilde(&g, 10);
        let s = greedy_hitting_set(&tilde);
        let in_s: std::collections::HashSet<_> = s.iter().copied().collect();
        for u in 0..g.n() {
            assert!(
                tilde.row(u).iter().any(|&(v, _)| in_s.contains(&v)),
                "row {u} unhit"
            );
        }
    }

    #[test]
    fn greedy_is_no_larger_than_sampled_on_average() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = generators::gnp_connected(200, 0.05, 1..=10, &mut rng);
        let tilde = exact_tilde(&g, 12);
        let greedy = greedy_hitting_set(&tilde).len();
        let sampled = hitting_set(&tilde, &mut rng).len();
        assert!(
            greedy <= sampled + 2,
            "greedy {greedy} unexpectedly larger than sampled {sampled}"
        );
    }

    #[test]
    fn clique_cap_and_hub_star_metrics_sandwich() {
        // For every scale i and pair (u,v):
        //   d_clique = min(d_rounded, cap')   with cap' ≤ 2·B·h²,
        //   d_clique ≤ d_star ≤ min(d_rounded, 2·B·h²).
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::wide_weight_gnp(30, 0.2, 10, &mut rng);
        let dmax = 1 << 14;
        let (h, eps) = (3u64, 0.5);
        let star = weight_scaling(&g, dmax, h, eps);
        let cap = weight_scaling_clique_cap(&g, dmax, h, eps);
        assert_eq!(star.len(), cap.len());
        let bh2 = star.b_const * h * h;
        for i in 0..star.len() {
            let d_star = apsp::exact_apsp(&star.graphs[i]);
            let d_cap = apsp::exact_apsp(&cap.graphs[i]);
            for u in 0..g.n() {
                for v in 0..g.n() {
                    if u == v {
                        continue;
                    }
                    assert!(
                        d_cap.get(u, v) <= d_star.get(u, v),
                        "scale {i} ({u},{v}): clique-cap above star"
                    );
                    assert!(
                        d_star.get(u, v) <= 2 * bh2,
                        "scale {i} ({u},{v}): star diameter bound violated"
                    );
                }
            }
        }
    }

    #[test]
    fn clique_cap_edge_count_is_quadratic_star_is_linear() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = generators::gnp_connected(40, 0.1, 1..=100, &mut rng);
        let star = weight_scaling(&g, 1000, 2, 0.5);
        let cap = weight_scaling_clique_cap(&g, 1000, 2, 0.5);
        let n = g.n();
        assert_eq!(cap.graphs[0].m(), n * (n - 1) / 2); // complete
        assert!(star.graphs[0].m() <= g.m() + n);
    }

    #[test]
    fn naive_skeleton_edges_match_matmul_construction() {
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::gnp_connected(60, 0.1, 1..=25, &mut rng);
            let tilde = exact_tilde(&g, 7);
            let mut clique = Clique::new(g.n(), Bandwidth::standard(g.n()));
            let sk = build_skeleton(&mut clique, &g, &tilde, &mut rng);
            let naive = naive_skeleton_edges(&g, &tilde, &sk);
            assert_eq!(
                naive, sk.graph,
                "seed={seed}: matmul and naive skeleton constructions disagree"
            );
        }
    }

    #[test]
    fn greedy_hitting_set_handles_selfonly_rows() {
        // Every row contains only the node itself: hitting set = everyone.
        let rows: Vec<Vec<(NodeId, Weight)>> = (0..6).map(|u| vec![(u, 0)]).collect();
        let tilde = FilteredMatrix::from_rows(6, 1, rows);
        let s = greedy_hitting_set(&tilde);
        assert_eq!(s.len(), 6);
    }
}
