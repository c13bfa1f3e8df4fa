//! Deterministic workload generators.
//!
//! The paper proves worst-case bounds; the reproduction evaluates them over a
//! spread of graph families. Every generator takes an explicit RNG so that
//! experiments are reproducible bit-for-bit.
//!
//! Families (used throughout the E1–E15 experiment tables of `cc_bench`):
//!
//! * [`gnp`] / [`gnp_connected`] — Erdős–Rényi `G(n, p)`.
//! * [`random_geometric`] — unit-square geometric graphs; the "network-like"
//!   family where weights correlate with metric distance.
//! * [`preferential_attachment`] — heavy-tailed degrees (hubs stress the
//!   receive-load accounting of the routing lemmas).
//! * [`grid`] — large (hop and weighted) diameter, stressing hopsets.
//! * [`path_with_chords`] — near-pathological diameter with a few shortcuts;
//!   the family on which the Figure 1 hop-chain is rendered.
//! * [`complete_graph`], [`star`] — degenerate extremes.
//! * [`wide_weight_gnp`] — exponentially spread weights (`2^0 .. 2^max_exp`)
//!   exercising the weight-scaling lemma (Section 8.1).

use std::ops::RangeInclusive;

use rand::rngs::StdRng;
use rand::Rng;

use crate::graph::{Graph, GraphBuilder};
use crate::unionfind::UnionFind;
use crate::Weight;

/// Erdős–Rényi `G(n, p)` with i.i.d. uniform weights from `weights`.
pub fn gnp(n: usize, p: f64, weights: RangeInclusive<Weight>, rng: &mut StdRng) -> Graph {
    let mut b = GraphBuilder::undirected(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p) {
                b.add_edge(u, v, rng.gen_range(weights.clone()));
            }
        }
    }
    b.build()
}

/// [`gnp`], then patched to be connected by linking components with random
/// extra edges (weights from the same range).
pub fn gnp_connected(n: usize, p: f64, weights: RangeInclusive<Weight>, rng: &mut StdRng) -> Graph {
    let g = gnp(n, p, weights.clone(), rng);
    connect_components(&g, weights, rng)
}

/// Random geometric graph: `n` points uniform in the unit square, edges
/// between pairs within `radius`, weight = rounded scaled Euclidean distance
/// (at least 1). Patched to be connected.
pub fn random_geometric(n: usize, radius: f64, scale: Weight, rng: &mut StdRng) -> Graph {
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();
    let mut b = GraphBuilder::undirected(n);
    for u in 0..n {
        for v in (u + 1)..n {
            let dx = pts[u].0 - pts[v].0;
            let dy = pts[u].1 - pts[v].1;
            let d = (dx * dx + dy * dy).sqrt();
            if d <= radius {
                let w = ((d * scale as f64).round() as Weight).max(1);
                b.add_edge(u, v, w);
            }
        }
    }
    connect_components(&b.build(), 1..=scale.max(1), rng)
}

/// Barabási–Albert-style preferential attachment: each new node attaches to
/// `m` existing nodes chosen proportionally to degree, with uniform weights.
pub fn preferential_attachment(
    n: usize,
    m: usize,
    weights: RangeInclusive<Weight>,
    rng: &mut StdRng,
) -> Graph {
    assert!(n >= 2, "preferential attachment needs n >= 2");
    let m = m.max(1);
    let mut b = GraphBuilder::undirected(n);
    // Degree-proportional sampling via a repeated-endpoint pool.
    let mut pool: Vec<usize> = vec![0, 1];
    b.add_edge(0, 1, rng.gen_range(weights.clone()));
    for v in 2..n {
        let mut chosen = Vec::new();
        let mut guard = 0;
        while chosen.len() < m.min(v) && guard < 50 * m {
            let t = pool[rng.gen_range(0..pool.len())];
            guard += 1;
            if t != v && !chosen.contains(&t) {
                chosen.push(t);
            }
        }
        if chosen.is_empty() {
            chosen.push(rng.gen_range(0..v));
        }
        for &t in &chosen {
            b.add_edge(v, t, rng.gen_range(weights.clone()));
            pool.push(t);
            pool.push(v);
        }
    }
    b.build()
}

/// `rows × cols` grid with uniform weights; large diameter.
pub fn grid(rows: usize, cols: usize, weights: RangeInclusive<Weight>, rng: &mut StdRng) -> Graph {
    let n = rows * cols;
    let id = |r: usize, c: usize| r * cols + c;
    let mut b = GraphBuilder::undirected(n);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_edge(id(r, c), id(r, c + 1), rng.gen_range(weights.clone()));
            }
            if r + 1 < rows {
                b.add_edge(id(r, c), id(r + 1, c), rng.gen_range(weights.clone()));
            }
        }
    }
    b.build()
}

/// A path `0-1-…-(n-1)` with `chords` random long-range shortcut edges.
/// Path edges have weight 1; chords get weights from `chord_weights`.
pub fn path_with_chords(
    n: usize,
    chords: usize,
    chord_weights: RangeInclusive<Weight>,
    rng: &mut StdRng,
) -> Graph {
    let mut b = GraphBuilder::undirected(n);
    for v in 0..n.saturating_sub(1) {
        b.add_edge(v, v + 1, 1);
    }
    for _ in 0..chords {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v {
            b.add_edge(u, v, rng.gen_range(chord_weights.clone()));
        }
    }
    b.build()
}

/// The complete graph `K_n` with uniform weights.
pub fn complete_graph(n: usize, weights: RangeInclusive<Weight>, rng: &mut StdRng) -> Graph {
    let mut b = GraphBuilder::undirected(n);
    for u in 0..n {
        for v in (u + 1)..n {
            b.add_edge(u, v, rng.gen_range(weights.clone()));
        }
    }
    b.build()
}

/// A star centered at node 0.
pub fn star(n: usize, weights: RangeInclusive<Weight>, rng: &mut StdRng) -> Graph {
    let mut b = GraphBuilder::undirected(n);
    for v in 1..n {
        b.add_edge(0, v, rng.gen_range(weights.clone()));
    }
    b.build()
}

/// `G(n, p)` with weights `2^e` for `e` uniform in `0..=max_exp`: the
/// exponentially spread weight distribution that makes the weight-scaling
/// lemma (Section 8.1) non-trivial. Connected.
pub fn wide_weight_gnp(n: usize, p: f64, max_exp: u32, rng: &mut StdRng) -> Graph {
    let mut b = GraphBuilder::undirected(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p) {
                let e = rng.gen_range(0..=max_exp);
                b.add_edge(u, v, 1u64 << e);
            }
        }
    }
    connect_components(&b.build(), 1..=(1u64 << max_exp), rng)
}

/// A 2D torus (grid with wraparound): regular degree 4, hop diameter
/// `Θ(rows + cols)` with no boundary effects.
pub fn torus(rows: usize, cols: usize, weights: RangeInclusive<Weight>, rng: &mut StdRng) -> Graph {
    let n = rows * cols;
    let id = |r: usize, c: usize| r * cols + c;
    let mut b = GraphBuilder::undirected(n);
    if rows < 2 || cols < 2 {
        return grid(rows, cols, weights, rng);
    }
    for r in 0..rows {
        for c in 0..cols {
            b.add_edge(
                id(r, c),
                id(r, (c + 1) % cols),
                rng.gen_range(weights.clone()),
            );
            b.add_edge(
                id(r, c),
                id((r + 1) % rows, c),
                rng.gen_range(weights.clone()),
            );
        }
    }
    b.build()
}

/// The hypercube on `2^dim` nodes: the classic low-diameter, high-expansion
/// topology (hop diameter exactly `dim`).
pub fn hypercube(dim: u32, weights: RangeInclusive<Weight>, rng: &mut StdRng) -> Graph {
    let n = 1usize << dim;
    let mut b = GraphBuilder::undirected(n);
    for v in 0..n {
        for bit in 0..dim {
            let u = v ^ (1 << bit);
            if u > v {
                b.add_edge(v, u, rng.gen_range(weights.clone()));
            }
        }
    }
    b.build()
}

/// A stochastic block model: `communities` dense blobs with sparse
/// inter-community edges — the shape on which skeleton graphs shine (each
/// community collapses to a few skeleton nodes). Connected.
pub fn communities(
    n: usize,
    communities: usize,
    p_in: f64,
    p_out: f64,
    weights: RangeInclusive<Weight>,
    rng: &mut StdRng,
) -> Graph {
    let communities = communities.max(1);
    let mut b = GraphBuilder::undirected(n);
    let block = |v: usize| v * communities / n.max(1);
    for u in 0..n {
        for v in (u + 1)..n {
            let p = if block(u) == block(v) { p_in } else { p_out };
            if rng.gen_bool(p.clamp(0.0, 1.0)) {
                b.add_edge(u, v, rng.gen_range(weights.clone()));
            }
        }
    }
    connect_components(&b.build(), weights, rng)
}

/// A caterpillar: a path spine with `legs` pendant nodes hanging off random
/// spine nodes — many degree-1 nodes stress the hitting-set fix-up.
pub fn caterpillar(
    spine: usize,
    legs: usize,
    weights: RangeInclusive<Weight>,
    rng: &mut StdRng,
) -> Graph {
    let n = spine + legs;
    let mut b = GraphBuilder::undirected(n);
    for v in 0..spine.saturating_sub(1) {
        b.add_edge(v, v + 1, rng.gen_range(weights.clone()));
    }
    for leg in 0..legs {
        let attach = rng.gen_range(0..spine.max(1));
        b.add_edge(spine + leg, attach, rng.gen_range(weights.clone()));
    }
    b.build()
}

/// Adds random edges between connected components until the graph is
/// connected. Returns `g` unchanged if already connected.
pub fn connect_components(g: &Graph, weights: RangeInclusive<Weight>, rng: &mut StdRng) -> Graph {
    let n = g.n();
    if n == 0 {
        return g.clone();
    }
    let mut uf = UnionFind::new(n);
    for (u, v, _) in g.all_arcs() {
        uf.union(u, v);
    }
    if uf.components() == 1 {
        return g.clone();
    }
    let mut b = GraphBuilder::undirected(n);
    for (u, v, w) in g.edges() {
        b.add_edge(u, v, w);
    }
    // Link a representative of each component to a random node of the
    // lowest-ID component.
    let mut reps: Vec<usize> = Vec::new();
    let mut seen = vec![false; n];
    for v in 0..n {
        let r = uf.find(v);
        if !seen[r] {
            seen[r] = true;
            reps.push(v);
        }
    }
    for pair in reps.windows(2) {
        b.add_edge(pair[0], pair[1], rng.gen_range(weights.clone()));
    }
    b.build()
}

/// Named workload family, used by the experiment harness to sweep families
/// uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Erdős–Rényi with average degree ~8, connected.
    Gnp,
    /// Random geometric, connected.
    Geometric,
    /// Preferential attachment, m = 3.
    PowerLaw,
    /// Near-square grid.
    Grid,
    /// Path with n/8 chords.
    PathChords,
    /// Exponentially spread weights.
    WideWeights,
}

impl Family {
    /// All families, in the order experiments report them.
    pub const ALL: [Family; 6] = [
        Family::Gnp,
        Family::Geometric,
        Family::PowerLaw,
        Family::Grid,
        Family::PathChords,
        Family::WideWeights,
    ];

    /// Short machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Family::Gnp => "gnp",
            Family::Geometric => "geo",
            Family::PowerLaw => "ba",
            Family::Grid => "grid",
            Family::PathChords => "pathz",
            Family::WideWeights => "wide",
        }
    }

    /// Instantiates the family at `n` nodes with max weight ~`w_max`.
    pub fn generate(self, n: usize, w_max: Weight, rng: &mut StdRng) -> Graph {
        let w_max = w_max.max(1);
        match self {
            Family::Gnp => gnp_connected(n, (8.0 / n as f64).min(1.0), 1..=w_max, rng),
            Family::Geometric => {
                let r = (16.0 / n as f64).sqrt().min(1.0);
                random_geometric(n, r, w_max, rng)
            }
            Family::PowerLaw => preferential_attachment(n, 3, 1..=w_max, rng),
            Family::Grid => {
                let side = (n as f64).sqrt().round() as usize;
                grid(
                    side.max(1),
                    n.div_euclid(side.max(1)).max(1),
                    1..=w_max,
                    rng,
                )
            }
            Family::PathChords => path_with_chords(n, n / 8, 1..=w_max, rng),
            Family::WideWeights => {
                let max_exp = crate::log2_ceil(w_max as usize).max(1);
                wide_weight_gnp(n, (8.0 / n as f64).min(1.0), max_exp, rng)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::connected_components;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(12345)
    }

    #[test]
    fn gnp_connected_is_connected() {
        let g = gnp_connected(50, 0.02, 1..=10, &mut rng());
        let (_, c) = connected_components(&g);
        assert_eq!(c, 1);
    }

    #[test]
    fn gnp_is_deterministic_per_seed() {
        let g1 = gnp(30, 0.2, 1..=9, &mut rng());
        let g2 = gnp(30, 0.2, 1..=9, &mut rng());
        assert_eq!(g1, g2);
    }

    #[test]
    fn geometric_weights_positive_and_connected() {
        let g = random_geometric(60, 0.3, 100, &mut rng());
        assert!(g.has_positive_weights());
        let (_, c) = connected_components(&g);
        assert_eq!(c, 1);
    }

    #[test]
    fn preferential_attachment_connected_with_hub_degrees() {
        let g = preferential_attachment(100, 3, 1..=5, &mut rng());
        let (_, c) = connected_components(&g);
        assert_eq!(c, 1);
        let max_deg = (0..g.n()).map(|v| g.degree(v)).max().unwrap();
        assert!(max_deg >= 6, "expected a hub, max degree {max_deg}");
    }

    #[test]
    fn grid_dimensions() {
        let g = grid(4, 5, 1..=1, &mut rng());
        assert_eq!(g.n(), 20);
        assert_eq!(g.m(), 4 * 4 + 3 * 5); // horizontal + vertical edges
    }

    #[test]
    fn path_with_chords_contains_path() {
        let g = path_with_chords(20, 4, 1..=10, &mut rng());
        for v in 0..19 {
            assert!(g.edge_weight(v, v + 1).is_some());
        }
    }

    #[test]
    fn complete_graph_edge_count() {
        let g = complete_graph(10, 1..=3, &mut rng());
        assert_eq!(g.m(), 45);
    }

    #[test]
    fn wide_weights_are_powers_of_two() {
        let g = wide_weight_gnp(40, 0.2, 10, &mut rng());
        for (_, _, w) in g.edges() {
            assert!(w.is_power_of_two(), "weight {w} not a power of two");
        }
    }

    #[test]
    fn all_families_generate_connected_nontrivial_graphs() {
        for fam in Family::ALL {
            let g = fam.generate(64, 64, &mut rng());
            assert!(g.n() >= 60, "{}: n = {}", fam.name(), g.n());
            assert!(g.m() >= g.n() - 1, "{}: too few edges", fam.name());
            if fam != Family::Grid {
                let (_, c) = connected_components(&g);
                assert_eq!(c, 1, "{} should be connected", fam.name());
            }
        }
    }

    #[test]
    fn star_has_center_degree_n_minus_1() {
        let g = star(9, 1..=2, &mut rng());
        assert_eq!(g.degree(0), 8);
    }

    #[test]
    fn torus_is_4_regular() {
        let g = torus(5, 6, 1..=3, &mut rng());
        assert_eq!(g.n(), 30);
        for v in 0..30 {
            assert_eq!(g.degree(v), 4, "node {v}");
        }
    }

    #[test]
    fn hypercube_degree_and_diameter() {
        let g = hypercube(5, 1..=1, &mut rng());
        assert_eq!(g.n(), 32);
        for v in 0..32 {
            assert_eq!(g.degree(v), 5);
        }
        assert_eq!(crate::hops::hop_diameter(&g), 5);
    }

    #[test]
    fn communities_are_denser_inside() {
        let g = communities(80, 4, 0.5, 0.01, 1..=5, &mut rng());
        let block = |v: usize| v * 4 / 80;
        let (mut inside, mut outside) = (0usize, 0usize);
        for (u, v, _) in g.edges() {
            if block(u) == block(v) {
                inside += 1;
            } else {
                outside += 1;
            }
        }
        assert!(inside > 4 * outside, "inside {inside} vs outside {outside}");
        let (_, c) = connected_components(&g);
        assert_eq!(c, 1);
    }

    #[test]
    fn caterpillar_has_pendant_legs() {
        let g = caterpillar(20, 15, 1..=4, &mut rng());
        assert_eq!(g.n(), 35);
        let pendants = (20..35).filter(|&v| g.degree(v) == 1).count();
        assert_eq!(pendants, 15);
    }
}
