//! Skeleton graphs (Section 6, Lemmas 6.1–6.4 and 3.4).
//!
//! Given per-node approximate k-nearest sets `Ñ_k(u)` with a *local*
//! a-approximation δ on them, the construction reduces APSP on `G` to APSP
//! on a much smaller graph `G_S` over `O(n·log k / k)` *skeleton nodes*:
//!
//! 1. a **hitting set** `S` intersecting every `Ñ_k(u)` (sampling at rate
//!    `ln k / k`, with a deterministic fix-up; O(log n) parallel trials keep
//!    the smallest — Lemma 6.2);
//! 2. every node picks the **center** `c(u)`: its δ-closest skeleton node in
//!    `Ñ_k(u)`;
//! 3. an edge of `G_S` between `c(u)` and `c(v)` for every "two-hop
//!    exploration" `u → t → v` with `t ∈ Ñ_k(u)` and `{t,v} ∈ E` (or
//!    `t = v`), weighted `δ(c(u),u) + δ(u,t) + w_tv + δ(v,c(v))`, computed
//!    by one sparse min-plus product `X ⋆ Y` (Theorem 6.1);
//! 4. any l-approximation of APSP on `G_S` **extends** to a `7·l·a²`
//!    approximation η on `G` (Lemma 6.4) via `η(u,v) = δ(u,c(u)) +
//!    δ_GS(c(u),c(v)) + δ(c(v),v)` for non-local pairs.

use cc_graph::graph::{Graph, GraphBuilder};
use cc_graph::{log2_ceil, wadd, DistMatrix, NodeId, Weight, INF};
use cc_matrix::engine::{sparse_product_planned, KernelMode};
use cc_matrix::filtered::FilteredMatrix;
use cc_matrix::sparse::SparseMatrix;
use cc_par::ExecPolicy;
use clique_sim::{Clique, Msg};
use rand::rngs::StdRng;
use rand::Rng;

/// Rounds charged for the hitting-set selection (Lemma 6.2): O(log n)
/// one-bit-per-pair sampling trials run in parallel, plus size aggregation
/// and the winner broadcast.
pub const HITTING_SET_ROUNDS: u64 = 3;

/// A skeleton graph with its clustering.
#[derive(Debug, Clone)]
pub struct Skeleton {
    /// The skeleton nodes `V_S = S` (sorted G-node IDs).
    pub centers: Vec<NodeId>,
    /// Maps a G node to its index in [`Self::centers`] if it is a skeleton
    /// node.
    pub index_of: Vec<Option<usize>>,
    /// `G_S`, an undirected graph over `centers.len()` nodes (indices into
    /// [`Self::centers`]).
    pub graph: Graph,
    /// `c(u)` per node (a G-node ID, guaranteed in `S ∩ Ñ_k(u)`).
    pub assignment: Vec<NodeId>,
    /// `δ(u, c(u))` per node.
    pub delta_to_center: Vec<Weight>,
}

impl Skeleton {
    /// Number of skeleton nodes `|V_S|`.
    pub fn size(&self) -> usize {
        self.centers.len()
    }
}

/// Builds the hitting set `S` (Lemma 6.2 procedure): `⌈log₂ n⌉` independent
/// trials of rate-`ln k / k` sampling with fix-up, keeping the smallest.
pub fn hitting_set(tilde: &FilteredMatrix, rng: &mut StdRng) -> Vec<NodeId> {
    let n = tilde.n();
    let k = tilde.k().max(1);
    let prob = ((k as f64).ln() / k as f64).clamp(0.0, 1.0);
    let trials = log2_ceil(n).max(1);
    let mut best: Option<Vec<NodeId>> = None;
    for _ in 0..trials {
        let mut in_s = vec![false; n];
        for slot in in_s.iter_mut() {
            if prob > 0.0 && rng.gen_bool(prob) {
                *slot = true;
            }
        }
        // Fix-up: every node whose Ñ_k set is unhit joins S itself.
        for v in 0..n {
            if !tilde.row(v).iter().any(|&(u, _)| in_s[u]) {
                in_s[v] = true;
            }
        }
        let s: Vec<NodeId> = (0..n).filter(|&v| in_s[v]).collect();
        if best.as_ref().is_none_or(|b| s.len() < b.len()) {
            best = Some(s);
        }
    }
    best.expect("at least one trial")
}

/// Builds the skeleton graph from approximate k-nearest sets (Lemma 6.1 /
/// Lemma 3.4 when δ is exact).
///
/// `tilde` row `u` holds `Ñ_k(u)` as `(node, δ(u, node))`; δ must be the
/// symmetric local estimate required by Lemma 6.1 (exact distances qualify,
/// `a = 1`).
///
/// # Panics
///
/// Panics if dimensions mismatch.
pub fn build_skeleton(
    clique: &mut Clique,
    g: &Graph,
    tilde: &FilteredMatrix,
    rng: &mut StdRng,
) -> Skeleton {
    build_skeleton_kernel(
        clique,
        g,
        tilde,
        rng,
        ExecPolicy::from_env(),
        KernelMode::from_env(),
    )
}

/// [`build_skeleton`] under an explicit [`ExecPolicy`] and [`KernelMode`]:
/// the step-3c product `X ⋆ Y` is dispatched by the kernel engine
/// (dense-tiled vs sparse-sharded per the measured densities, or as forced
/// by `kernel`). The result — skeleton graph, round charges, everything —
/// is bit-identical for every mode.
///
/// # Panics
///
/// Panics if dimensions mismatch.
pub fn build_skeleton_kernel(
    clique: &mut Clique,
    g: &Graph,
    tilde: &FilteredMatrix,
    rng: &mut StdRng,
    exec: ExecPolicy,
    kernel: KernelMode,
) -> Skeleton {
    let n = g.n();
    assert_eq!(tilde.n(), n, "tilde-set dimension mismatch");
    assert_eq!(clique.n(), n, "clique size mismatch");
    clique.phase("skeleton", |clique| {
        // Step 1: hitting set.
        let centers = hitting_set(tilde, rng);
        clique.charge("hitting-set (Lemma 6.2, cited O(1))", HITTING_SET_ROUNDS);
        let mut index_of: Vec<Option<usize>> = vec![None; n];
        for (i, &s) in centers.iter().enumerate() {
            index_of[s] = Some(i);
        }
        let in_s = |v: NodeId| index_of[v].is_some();

        // Step 2 (local): centers.
        let mut assignment = vec![usize::MAX; n];
        let mut delta_to_center = vec![INF; n];
        for u in 0..n {
            let best = tilde
                .row(u)
                .iter()
                .copied()
                .filter(|&(s, _)| in_s(s))
                .min_by_key(|&(s, d)| (d, s))
                .expect("hitting set fix-up guarantees S ∩ Ñ_k(u) ≠ ∅");
            assignment[u] = best.0;
            delta_to_center[u] = best.1;
        }

        // Step 3a: x(s_a, t) = min over u with c(u)=s_a, t ∈ Ñ_k(u) of
        // δ(s_a,u) + δ(u,t). Each u sends (c(u), value) to every t ∈ Ñ_k(u).
        let mut x_msgs: Vec<Msg<(u64, u64)>> = Vec::new();
        for u in 0..n {
            let base = delta_to_center[u];
            for &(t, d_ut) in tilde.row(u) {
                let val = wadd(base, d_ut);
                if val < INF {
                    x_msgs.push(Msg::new(u, t, (assignment[u] as u64, val)));
                }
            }
        }
        let x_inboxes = clique.route("skeleton-x-scatter", x_msgs);
        // t aggregates min per s_a, then reports x(s_a, t) to s_a.
        let mut x_report: Vec<Msg<(u64, u64)>> = Vec::new();
        let mut x_mat = SparseMatrix::zero(n); // X[s_a][t]
        for (t, inbox) in x_inboxes.iter().enumerate() {
            let mut per_center: std::collections::HashMap<u64, u64> =
                std::collections::HashMap::new();
            for m in inbox {
                let (sa, val) = m.payload;
                let e = per_center.entry(sa).or_insert(u64::MAX);
                if val < *e {
                    *e = val;
                }
            }
            for (&sa, &val) in &per_center {
                x_report.push(Msg::new(t, sa as usize, (t as u64, val)));
            }
        }
        let x_back = clique.route("skeleton-x-gather", x_report);
        for (sa, inbox) in x_back.iter().enumerate() {
            for m in inbox {
                let (t, val) = m.payload;
                x_mat.relax(sa, t as usize, val);
            }
        }

        // Step 3b: y(t, s_b) = min over v with c(v)=s_b, {t,v} ∈ E of
        // w_tv + δ(v, s_b); plus the t = v case, y(t, c(t)) ≤ δ(t, c(t)).
        let mut y_msgs: Vec<Msg<(u64, u64)>> = Vec::new();
        for v in 0..n {
            let base = delta_to_center[v];
            for (t, w) in g.neighbors(v) {
                let val = wadd(w, base);
                if val < INF {
                    y_msgs.push(Msg::new(v, t, (assignment[v] as u64, val)));
                }
            }
        }
        let y_inboxes = clique.route("skeleton-y-scatter", y_msgs);
        let mut y_mat = SparseMatrix::zero(n); // Y[t][s_b]
        for (t, inbox) in y_inboxes.iter().enumerate() {
            for m in inbox {
                let (sb, val) = m.payload;
                y_mat.relax(t, sb as usize, val);
            }
            // t = v case.
            y_mat.relax(t, assignment[t], delta_to_center[t]);
        }

        // Step 3c: edge weights of G_S = (X ⋆ Y)[s_a, s_b], via sparse
        // min-plus multiplication (Theorem 6.1 round model). ρX ≤ k,
        // ρY ≤ |S|, ρXY ≤ |S|²/n.
        let rho_hint = (centers.len() as f64).powi(2) / n as f64;
        let (product, _choice) =
            sparse_product_planned(&x_mat, &y_mat, Some(rho_hint), kernel, exec);
        clique.charge("skeleton-matmul (Thm 6.1)", product.rounds);

        let mut gs = GraphBuilder::undirected(centers.len());
        for (ia, &sa) in centers.iter().enumerate() {
            for &(sb, w) in product.matrix.row(sa) {
                if let Some(ib) = index_of[sb] {
                    if ia != ib && w < INF {
                        gs.add_edge(ia, ib, w);
                    }
                }
            }
        }
        Skeleton {
            graph: gs.build(),
            centers,
            index_of,
            assignment,
            delta_to_center,
        }
    })
}

/// Step 4 of Lemma 6.1: extends an l-approximation `delta_gs` of APSP on
/// `G_S` to the estimate η on all of `G`:
///
/// * `η(u,v) = δ(u,v)` when `v ∈ Ñ_k(u)` or `u ∈ Ñ_k(v)`;
/// * `η(u,v) = δ(u,c(u)) + δ_GS(c(u),c(v)) + δ(c(v),v)` otherwise.
///
/// If δ is an a-approximation on the tilde sets (per Lemma 6.1's
/// conditions), η is a `7·l·a²`-approximation on `G` (Lemma 6.4).
///
/// Round charge: the two sparse products `A^T ⋆ (D ⋆ A)` with `ρ_A = 1`
/// (Section 6.2), evaluated through the Theorem 6.1 formula.
pub fn extend_estimate(
    clique: &mut Clique,
    skeleton: &Skeleton,
    tilde: &FilteredMatrix,
    delta_gs: &DistMatrix,
) -> DistMatrix {
    let n = tilde.n();
    let s_count = skeleton.size();
    assert_eq!(delta_gs.n(), s_count, "δ_GS must be over skeleton nodes");
    clique.phase("skeleton-extend", |clique| {
        // Charge the D⋆A and Aᵀ⋆(DA) products (Theorem 6.1, ρ_A = 1).
        let rho_d = (s_count as f64).powi(2) / n as f64;
        let r1 = cc_matrix::sparse::cdkl_rounds(n, rho_d, 1.0, s_count as f64);
        let r2 = cc_matrix::sparse::cdkl_rounds(n, 1.0, s_count as f64, n as f64);
        clique.charge("extend-matmul (Thm 6.1, ρA=1)", r1 + r2);

        let mut eta = DistMatrix::infinite(n);
        // Non-local pairs via centers.
        for u in 0..n {
            let cu = skeleton.index_of[skeleton.assignment[u]].expect("center is in S");
            let du = skeleton.delta_to_center[u];
            for v in 0..n {
                if u == v {
                    continue;
                }
                let cv = skeleton.index_of[skeleton.assignment[v]].expect("center is in S");
                let dv = skeleton.delta_to_center[v];
                let val = wadd(wadd(du, delta_gs.get(cu, cv)), dv);
                eta.set(u, v, val);
            }
        }
        // Local pairs override: η(u,v) = δ(u,v) when v ∈ Ñ_k(u) or u ∈ Ñ_k(v).
        for u in 0..n {
            for &(v, d) in tilde.row(u) {
                if u != v {
                    eta.set(u, v, d);
                    eta.set(v, u, d);
                }
            }
        }
        eta
    })
}

/// Lemma 6.4's approximation bound for the extension: `7·l·a²`.
pub fn extension_bound(l: f64, a: f64) -> f64 {
    7.0 * l * a * a
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::{apsp, generators, sssp};
    use clique_sim::Bandwidth;
    use rand::SeedableRng;

    fn clique_for(n: usize) -> Clique {
        Clique::new(n, Bandwidth::standard(n))
    }

    /// Exact k-nearest tilde sets (the Lemma 3.4 setting: a = 1).
    fn exact_tilde(g: &Graph, k: usize) -> FilteredMatrix {
        let rows: Vec<Vec<(NodeId, Weight)>> =
            (0..g.n()).map(|u| sssp::k_nearest(g, u, k)).collect();
        FilteredMatrix::from_rows(g.n(), k, rows)
    }

    #[test]
    fn hitting_set_hits_every_tilde_set() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::gnp_connected(80, 0.08, 1..=20, &mut rng);
        let tilde = exact_tilde(&g, 9);
        let s = hitting_set(&tilde, &mut rng);
        let in_s: std::collections::HashSet<_> = s.iter().copied().collect();
        for u in 0..g.n() {
            assert!(
                tilde.row(u).iter().any(|&(v, _)| in_s.contains(&v)),
                "Ñ_k({u}) unhit"
            );
        }
    }

    #[test]
    fn hitting_set_size_within_bound() {
        let mut rng = StdRng::seed_from_u64(6);
        let n = 400;
        let k = 20;
        let g = generators::gnp_connected(n, 0.05, 1..=10, &mut rng);
        let tilde = exact_tilde(&g, k);
        let s = hitting_set(&tilde, &mut rng);
        // E|S| ≈ n·ln k/k (plus fix-ups); allow constant 4.
        let bound = 4.0 * n as f64 * (k as f64).ln() / k as f64;
        assert!((s.len() as f64) < bound, "|S| = {} > {bound:.0}", s.len());
    }

    #[test]
    fn centers_are_hit_members_of_tilde_sets() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = generators::gnp_connected(60, 0.1, 1..=15, &mut rng);
        let tilde = exact_tilde(&g, 8);
        let mut clique = clique_for(g.n());
        let sk = build_skeleton(&mut clique, &g, &tilde, &mut rng);
        for u in 0..g.n() {
            let c = sk.assignment[u];
            assert!(sk.index_of[c].is_some(), "c({u}) not in S");
            assert!(
                tilde.row(u).iter().any(|&(v, _)| v == c),
                "c({u}) ∉ Ñ_k({u})"
            );
        }
        // Skeleton nodes center on themselves.
        for &s in &sk.centers {
            assert_eq!(sk.assignment[s], s);
            assert_eq!(sk.delta_to_center[s], 0);
        }
    }

    #[test]
    fn skeleton_edges_are_realizable_paths() {
        // Every G_S edge weight must be ≥ the true distance between its
        // endpoints in G (it is built from δ-values ≥ d plus real edges).
        let mut rng = StdRng::seed_from_u64(8);
        let g = generators::gnp_connected(50, 0.12, 1..=12, &mut rng);
        let tilde = exact_tilde(&g, 7);
        let mut clique = clique_for(g.n());
        let sk = build_skeleton(&mut clique, &g, &tilde, &mut rng);
        let exact = apsp::exact_apsp(&g);
        for (ia, ib, w) in sk.graph.edges() {
            let (sa, sb) = (sk.centers[ia], sk.centers[ib]);
            assert!(w >= exact.get(sa, sb), "G_S edge below true distance");
        }
    }

    /// Lemma 3.4 (a = 1, l = 1): exact APSP on G_S extends to a
    /// 7-approximation on G.
    #[test]
    fn extension_with_exact_skeleton_apsp_is_7_approx() {
        for seed in 0..4 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::gnp_connected(60, 0.1, 1..=25, &mut rng);
            let k = 8;
            let tilde = exact_tilde(&g, k);
            let mut clique = clique_for(g.n());
            let sk = build_skeleton(&mut clique, &g, &tilde, &mut rng);
            let delta_gs = apsp::exact_apsp(&sk.graph);
            let eta = extend_estimate(&mut clique, &sk, &tilde, &delta_gs);
            let exact = apsp::exact_apsp(&g);
            let stats = eta.stretch_vs(&exact);
            assert!(
                stats.is_valid_approximation(extension_bound(1.0, 1.0)),
                "seed={seed}: {stats}"
            );
        }
    }

    #[test]
    fn extension_never_underestimates_even_with_approx_gs() {
        let mut rng = StdRng::seed_from_u64(20);
        let g = generators::gnp_connected(40, 0.15, 1..=10, &mut rng);
        let tilde = exact_tilde(&g, 6);
        let mut clique = clique_for(g.n());
        let sk = build_skeleton(&mut clique, &g, &tilde, &mut rng);
        // A 3-approximation of G_S distances (inflate exact by 3).
        let exact_gs = apsp::exact_apsp(&sk.graph);
        let mut approx_gs = exact_gs.clone();
        for a in 0..sk.size() {
            for b in 0..sk.size() {
                let d = exact_gs.get(a, b);
                if a != b && d < INF {
                    approx_gs.set(a, b, d * 3);
                }
            }
        }
        let eta = extend_estimate(&mut clique, &sk, &tilde, &approx_gs);
        let exact = apsp::exact_apsp(&g);
        let stats = eta.stretch_vs(&exact);
        assert_eq!(stats.underestimates, 0);
        assert!(
            stats.is_valid_approximation(extension_bound(3.0, 1.0)),
            "{stats}"
        );
    }

    #[test]
    fn skeleton_shrinks_with_larger_k() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = generators::gnp_connected(200, 0.06, 1..=20, &mut rng);
        let small_k = exact_tilde(&g, 4);
        let large_k = exact_tilde(&g, 24);
        let mut c1 = clique_for(g.n());
        let mut c2 = clique_for(g.n());
        let sk_small = build_skeleton(&mut c1, &g, &small_k, &mut rng);
        let sk_large = build_skeleton(&mut c2, &g, &large_k, &mut rng);
        assert!(sk_large.size() < sk_small.size());
    }

    #[test]
    fn skeleton_rounds_are_constant_flavored() {
        let mut rng = StdRng::seed_from_u64(10);
        let g = generators::gnp_connected(150, 0.06, 1..=20, &mut rng);
        let tilde = exact_tilde(&g, 12);
        let mut clique = clique_for(g.n());
        let sk = build_skeleton(&mut clique, &g, &tilde, &mut rng);
        let delta_gs = apsp::exact_apsp(&sk.graph);
        extend_estimate(&mut clique, &sk, &tilde, &delta_gs);
        assert!(clique.rounds() <= 24, "rounds = {}", clique.rounds());
    }
}
