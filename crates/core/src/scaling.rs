//! The weight scaling lemma (Section 8.1, Lemma 8.1).
//!
//! Given an h-approximation δ of APSP, distance approximation on `G` reduces
//! — in **zero** communication rounds — to distance approximation on
//! `O(log n)` graphs `G_0, G_1, …`, each of small weighted diameter. For
//! scale `i` (`x = 2^i`):
//!
//! * `H_i`: every weight rounded up to a multiple of `x`;
//! * `K_i`: weights capped at `cap = x·B·h²` (with `B = ⌈2/ε⌉`), and the
//!   diameter forced down to `O(cap)`;
//! * `G_i = K_i / x`: integer weights at most `B·h²`.
//!
//! Distances that are ≈ `2^i` in `G` survive scale `i` with only `(1+ε)`
//! relative rounding error for pairs joined by a shortest path of at most
//! `h` hops; the initial δ selects which scale to read per pair.
//!
//! **Substitution:** the paper's `K_i` adds a
//! cap-weight edge between *every* pair (`Θ(n²)` edges per scale). We
//! instead connect every node to a hub (node 0) with weight `cap`. The
//! resulting metric satisfies `min(d_Hi, cap) ≤ d ≤ d_Hi` for every pair —
//! the same two inequalities the proof uses — while the weighted diameter
//! becomes at most `2·cap` instead of `cap` (hence the factor-2 in
//! [`ScaledGraphs::diameter_bound`]) and the scaled graphs stay sparse.

use cc_graph::graph::{Direction, Graph, GraphBuilder};
use cc_graph::{DistMatrix, Weight, INF};

/// The family of scaled graphs produced by [`weight_scaling`].
#[derive(Debug, Clone)]
pub struct ScaledGraphs {
    /// `G_i` for `i = 0..len` (scale `x = 2^i`).
    pub graphs: Vec<Graph>,
    /// `B = ⌈2/ε⌉`.
    pub b_const: u64,
    /// The hop parameter `h`.
    pub h: u64,
    /// The `ε` used.
    pub eps: f64,
}

impl ScaledGraphs {
    /// Upper bound on every `G_i`'s weighted diameter: `2·B·h²` (the paper's
    /// `B·h²` doubled by the hub substitution).
    pub fn diameter_bound(&self) -> Weight {
        2 * self.b_const * self.h * self.h
    }

    /// Number of scales.
    pub fn len(&self) -> usize {
        self.graphs.len()
    }

    /// Whether the family is empty (never, for a valid construction).
    pub fn is_empty(&self) -> bool {
        self.graphs.is_empty()
    }

    /// The scale index the combination rule reads for a pair with initial
    /// estimate `delta_uv`: the unique `i ≥ 1` with
    /// `2^(i-1)·B·h² ≤ δ < 2^i·B·h²`, or 0 when `δ < B·h²/2` (also 0 for
    /// `δ` below the `i = 1` band, matching the lemma's case split).
    pub fn scale_for(&self, delta_uv: Weight) -> usize {
        let bh2 = self.b_const * self.h * self.h;
        if delta_uv < bh2 / 2 || bh2 == 0 {
            return 0;
        }
        // Smallest i with delta < 2^i · B·h²; the paper's band picks that i.
        let mut i = 0usize;
        let mut bound = bh2;
        while delta_uv >= bound && i + 1 < self.graphs.len() {
            i += 1;
            bound = bound.saturating_mul(2);
        }
        i
    }
}

/// Builds the scaled family (zero communication rounds: every node already
/// knows its incident edges and δ row).
///
/// `delta_max` is the largest finite δ value (drives how many scales are
/// needed); `h` is the hop bound for which the (1+ε) guarantee must hold.
///
/// # Panics
///
/// Panics if `g` is directed, `h == 0`, or `eps <= 0`.
pub fn weight_scaling(g: &Graph, delta_max: Weight, h: u64, eps: f64) -> ScaledGraphs {
    assert_eq!(
        g.direction(),
        Direction::Undirected,
        "scaling expects undirected graphs"
    );
    assert!(h >= 1, "hop bound must be positive");
    assert!(eps > 0.0, "ε must be positive");
    let b_const = (2.0 / eps).ceil() as u64;
    let bh2 = b_const * h * h;
    // Scales until 2^(i-1)·B·h² exceeds delta_max.
    // One scale per doubling band, with strict headroom: every finite δ must
    // satisfy δ < 2^i·B·h² for its selected i (the lower-bound argument
    // needs the cap to sit strictly above the true distance).
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
            // H_i: round up to multiple of x; K_i: cap; G_i: divide by x.
            let rounded = w.div_ceil(x).saturating_mul(x);
            let capped = rounded.min(cap);
            b.add_edge(u, v, capped / x);
        }
        // Hub edges bound the diameter by 2·B·h² after division.
        if n > 1 {
            for v in 1..n {
                b.add_edge(0, v, bh2);
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

/// Combines per-scale estimates into the η of Lemma 8.1:
/// `η(u,v) = 2^i · δ_{G_i}(u,v)` with `i` chosen per pair from the initial
/// estimate `delta` (an h-approximation). Zero communication rounds.
///
/// Guarantees (Lemma 8.1): `η ≥ d_G` everywhere; and
/// `η ≤ (1+ε)·l·d_G` for every pair joined by a shortest path of at most
/// `h` hops, where `l` is the guarantee of the `delta_gis`.
pub fn combine(scaled: &ScaledGraphs, delta_gis: &[DistMatrix], delta: &DistMatrix) -> DistMatrix {
    assert_eq!(delta_gis.len(), scaled.len(), "need one estimate per scale");
    let n = delta.n();
    let mut eta = DistMatrix::infinite(n);
    for u in 0..n {
        for v in 0..n {
            if u == v {
                continue;
            }
            let d = delta.get(u, v);
            if d >= INF {
                continue;
            }
            let i = scaled.scale_for(d);
            let scaled_est = delta_gis[i].get(u, v);
            if scaled_est < INF {
                let x: Weight = 1 << i;
                eta.set(u, v, x.saturating_mul(scaled_est).min(INF));
            }
        }
    }
    eta
}

/// The guarantee the combination provides for `≤h`-hop pairs, given
/// per-scale l-approximations: `(1+ε)·l`.
pub fn combined_bound(l: f64, eps: f64) -> f64 {
    (1.0 + eps) * l
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::sssp::bellman_ford_hops;
    use cc_graph::{apsp, generators};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn exact_scaled_estimates(scaled: &ScaledGraphs) -> Vec<DistMatrix> {
        scaled.graphs.iter().map(apsp::exact_apsp).collect()
    }

    #[test]
    fn scaled_graphs_have_bounded_diameter() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::wide_weight_gnp(50, 0.1, 16, &mut rng);
        let delta = apsp::exact_apsp(&g);
        let dmax = crate::reduction::estimate_diameter(&delta);
        let scaled = weight_scaling(&g, dmax, 4, 0.5);
        for (i, gi) in scaled.graphs.iter().enumerate() {
            let diam = cc_graph::sssp::weighted_diameter(gi);
            assert!(
                diam <= scaled.diameter_bound(),
                "scale {i}: diameter {diam} > bound {}",
                scaled.diameter_bound()
            );
        }
    }

    #[test]
    fn number_of_scales_is_logarithmic() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::wide_weight_gnp(40, 0.15, 20, &mut rng);
        let delta = apsp::exact_apsp(&g);
        let dmax = crate::reduction::estimate_diameter(&delta);
        let scaled = weight_scaling(&g, dmax, 3, 0.5);
        // δ_max ≤ n · 2^20; scales ≤ log2(δ_max) + O(1).
        let limit = (dmax as f64).log2() as usize + 2;
        assert!(scaled.len() <= limit, "{} scales > {limit}", scaled.len());
    }

    /// Lemma 8.1's two guarantees, instantiated with exact per-scale
    /// estimates (l = 1) and an exact initial δ scaled by h (an
    /// h-approximation).
    #[test]
    fn eta_bounds_hold_for_h_hop_pairs() {
        for seed in 0..4 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::wide_weight_gnp(36, 0.2, 12, &mut rng);
            let exact = apsp::exact_apsp(&g);
            let h = 4u64;
            let eps = 0.5;
            // An h-approximation: exact distances inflated by up to h.
            let mut delta = exact.clone();
            for u in 0..g.n() {
                for v in 0..g.n() {
                    let d = exact.get(u, v);
                    if u != v && d < INF {
                        let f = 1 + ((u + v) as u64) % h;
                        delta.set(u, v, d.saturating_mul(f));
                    }
                }
            }
            delta.symmetrize_min();
            let dmax = crate::reduction::estimate_diameter(&delta);
            let scaled = weight_scaling(&g, dmax, h, eps);
            let gis = exact_scaled_estimates(&scaled);
            let eta = combine(&scaled, &gis, &delta);
            let bound = combined_bound(1.0, eps);
            for u in 0..g.n() {
                let hhop = bellman_ford_hops(&g, u, h as usize);
                for (v, &hv) in hhop.iter().enumerate() {
                    if u == v {
                        continue;
                    }
                    let d = exact.get(u, v);
                    if d >= INF {
                        continue;
                    }
                    let e = eta.get(u, v);
                    assert!(e >= d, "seed={seed} ({u},{v}): η {e} < d {d}");
                    // Pairs whose shortest path has ≤ h hops get the (1+ε)l
                    // guarantee.
                    if hv == d {
                        assert!(
                            (e as f64) <= bound * d as f64 + 1e-9,
                            "seed={seed} ({u},{v}): η {e} > {bound}·{d}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn scale_zero_is_original_capped_graph() {
        let g = Graph::from_edges(3, Direction::Undirected, &[(0, 1, 5), (1, 2, 7)]);
        let scaled = weight_scaling(&g, 12, 2, 1.0);
        // x = 1: weights unchanged (below cap B·h² = 2·4 = 8).
        assert_eq!(scaled.graphs[0].edge_weight(0, 1), Some(5));
        assert_eq!(scaled.graphs[0].edge_weight(1, 2), Some(7));
    }

    #[test]
    fn scale_selection_bands() {
        let g = Graph::from_edges(2, Direction::Undirected, &[(0, 1, 1)]);
        let scaled = weight_scaling(&g, 1 << 12, 2, 1.0); // B=2, h=2, Bh²=8
        assert_eq!(scaled.scale_for(3), 0); // < Bh²/2 = 4
        assert_eq!(scaled.scale_for(7), 0); // within [4, 8): i = 0 band
        assert_eq!(scaled.scale_for(9), 1); // within [8, 16)
        assert_eq!(scaled.scale_for(40), 3); // within [32, 64)
    }

    #[test]
    fn zero_rounds_of_communication() {
        // weight_scaling and combine never touch a Clique — the lemma
        // states "in zero rounds"; this test documents the API contract.
        let mut rng = StdRng::seed_from_u64(8);
        let g = generators::gnp_connected(20, 0.3, 1..=100, &mut rng);
        let delta = apsp::exact_apsp(&g);
        let scaled = weight_scaling(&g, 500, 3, 0.5);
        let gis = exact_scaled_estimates(&scaled);
        let _ = combine(&scaled, &gis, &delta);
    }
}
