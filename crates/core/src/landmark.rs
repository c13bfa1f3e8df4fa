//! Landmark distance sketches: a sublinear-space oracle backend.
//!
//! The dense `n × n` [`DistMatrix`](cc_graph::DistMatrix) caps servable
//! instances at a few thousand vertices (8n² bytes). A [`LandmarkSketch`]
//! instead stores, per vertex, distances to ⌈√n⌉ sampled *landmarks* plus a
//! small exact neighborhood (its *bunch*), for Θ(n√n) expected words total —
//! the classic Thorup–Zwick k = 2 decomposition, the same landmark/cluster
//! shape the Congested Clique literature uses for sublinear-bandwidth
//! distance computation.
//!
//! The estimate it answers is a provable **3-approximation** that never
//! underestimates and never misses a reachable pair:
//!
//! * if `d(u,v) < d(u, A)` (A = the landmark set), then `v` lies in `u`'s
//!   bunch and the answer is exact;
//! * otherwise `d(u, ℓ) + d(ℓ, v) ≤ 2·d(u, A) + d(u,v) ≤ 3·d(u,v)` for
//!   `u`'s nearest landmark `ℓ`, by the triangle inequality.
//!
//! Every component is guaranteed a landmark (the minimum-ID vertex of any
//! landmark-free component is promoted), which is what makes the second
//! bullet's landmark path exist for every reachable pair.
//!
//! Construction is a deterministic pure function of `(graph, seed)` — the
//! execution policy moves wall-clock time only — so a sketch can be rebuilt
//! bit-identically from the graph alone. The dynamic engine leans on this:
//! a landmark delta ships no rows, just the update batch, and the receiver
//! regenerates the sketch.

use cc_graph::components::connected_components;
use cc_graph::graph::Graph;
use cc_graph::sssp::dijkstra_within;
use cc_graph::{apsp, wadd, NodeId, Weight, INF};
use cc_par::ExecPolicy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A Thorup–Zwick-style landmark sketch: ⌈√n⌉ landmark distance rows plus
/// per-vertex exact bunches, answering 3-approximate distance queries in
/// O(√n) time from Θ(n√n) expected space.
///
/// ```
/// use cc_graph::graph::{Direction, Graph};
/// use cc_apsp::landmark::LandmarkSketch;
/// use cc_par::ExecPolicy;
///
/// // A path 0—1—2—3—4 with unit-ish weights; true d(0,4) = 8.
/// let g = Graph::from_edges(
///     5,
///     Direction::Undirected,
///     &[(0, 1, 2), (1, 2, 2), (2, 3, 2), (3, 4, 2)],
/// );
/// let sketch = LandmarkSketch::build(&g, 7, ExecPolicy::Seq);
/// assert_eq!(sketch.query(0, 0), 0);
/// assert!(sketch.query(0, 4) >= 8); // never underestimates …
/// assert!(sketch.query(0, 4) <= 24); // … and stays within stretch 3
/// assert!(sketch.approx_mem_bytes() > 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LandmarkSketch {
    n: usize,
    seed: u64,
    /// Sorted, distinct landmark node IDs.
    landmarks: Vec<NodeId>,
    /// `L × n` row-major exact distances: `rows[ℓi * n + v] = d(landmarks[ℓi], v)`.
    rows: Vec<Weight>,
    /// `d(u, A)` per vertex: distance to the nearest landmark (derived from
    /// `rows`; not serialized).
    nearest: Vec<Weight>,
    /// Per-vertex symmetrized bunches, each sorted by node ID with exact
    /// distances. `v` appears in `bunches[u]` iff
    /// `d(u,v) < max(d(u,A), d(v,A))` (and `v ≠ u`).
    bunches: Vec<Vec<(NodeId, Weight)>>,
}

impl LandmarkSketch {
    /// Builds the sketch for `graph` with the given RNG seed.
    ///
    /// Deterministic per `(graph, seed)`: `exec` affects wall-clock time
    /// only — every field, and therefore the serialized form and the state
    /// fingerprint, is bit-identical across execution policies.
    pub fn build(graph: &Graph, seed: u64, exec: ExecPolicy) -> Self {
        let n = graph.n();
        if n == 0 {
            return Self {
                n: 0,
                seed,
                landmarks: Vec::new(),
                rows: Vec::new(),
                nearest: Vec::new(),
                bunches: Vec::new(),
            };
        }

        // ⌈√n⌉ landmarks sampled without replacement (partial Fisher–Yates),
        // then one promoted per landmark-free component so every vertex has
        // a finite landmark distance.
        let target = ((n as f64).sqrt().ceil() as usize).clamp(1, n);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ids: Vec<NodeId> = (0..n).collect();
        for i in 0..target {
            let j = rng.gen_range(i..n);
            ids.swap(i, j);
        }
        let mut landmarks: Vec<NodeId> = ids[..target].to_vec();
        let (comp, comp_count) = connected_components(graph);
        let mut comp_has_landmark = vec![false; comp_count];
        for &l in &landmarks {
            comp_has_landmark[comp[l]] = true;
        }
        for v in 0..n {
            // First scan hit per component is its minimum-ID vertex.
            if !comp_has_landmark[comp[v]] {
                comp_has_landmark[comp[v]] = true;
                landmarks.push(v);
            }
        }
        landmarks.sort_unstable();
        landmarks.dedup();

        // L exact SSSP rows; undirected symmetry gives d(u, ℓ) = rows[ℓi][u].
        let row_vecs = apsp::exact_rows_with(graph, &landmarks, exec);
        let mut rows = Vec::with_capacity(landmarks.len() * n);
        for row in &row_vecs {
            rows.extend_from_slice(row);
        }
        let nearest: Vec<Weight> = (0..n)
            .map(|u| {
                row_vecs
                    .iter()
                    .map(|row| row[u])
                    .min()
                    .expect("at least one landmark")
            })
            .collect();

        // Raw bunches B(u) = {v ≠ u : d(u,v) < d(u,A)} via radius-bounded
        // Dijkstra, sharded over sources (deterministic merge in row order).
        let raw: Vec<Vec<(NodeId, Weight)>> = exec.map_shards_collect(n, |sources| {
            sources
                .map(|u| {
                    dijkstra_within(graph, u, nearest[u])
                        .into_iter()
                        .filter(|&(v, _)| v != u)
                        .collect()
                })
                .collect()
        });

        // Symmetrize: ensure (v, d) ∈ bunch(u) ⇔ (u, d) ∈ bunch(v), so a
        // query needs only one endpoint's bunch. Distances are exact, so
        // merged duplicates always agree.
        let mut bunches = raw.clone();
        for (u, bunch) in raw.iter().enumerate() {
            for &(v, d) in bunch {
                bunches[v].push((u, d));
            }
        }
        for bunch in &mut bunches {
            bunch.sort_unstable();
            bunch.dedup();
        }

        Self {
            n,
            seed,
            landmarks,
            rows,
            nearest,
            bunches,
        }
    }

    /// Reassembles a sketch from its serialized parts, validating structure
    /// (the snapshot decoder's entry point). `rows` is `L × n` row-major;
    /// `bunches` must be per-vertex, sorted strictly by node ID, with no
    /// self entries. `nearest` is recomputed from the rows.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first structural violation.
    pub fn from_parts(
        n: usize,
        seed: u64,
        landmarks: Vec<NodeId>,
        rows: Vec<Weight>,
        bunches: Vec<Vec<(NodeId, Weight)>>,
    ) -> Result<Self, String> {
        if n == 0 {
            if !landmarks.is_empty() || !rows.is_empty() || !bunches.is_empty() {
                return Err("empty sketch with non-empty parts".into());
            }
            return Ok(Self {
                n,
                seed,
                landmarks,
                rows,
                nearest: Vec::new(),
                bunches,
            });
        }
        if landmarks.is_empty() {
            return Err("sketch has no landmarks".into());
        }
        if !landmarks.windows(2).all(|w| w[0] < w[1]) {
            return Err("landmarks not sorted strictly ascending".into());
        }
        if *landmarks.last().unwrap() >= n {
            return Err(format!(
                "landmark {} out of range for n={n}",
                landmarks.last().unwrap()
            ));
        }
        if rows.len() != landmarks.len() * n {
            return Err(format!(
                "expected {} row cells, got {}",
                landmarks.len() * n,
                rows.len()
            ));
        }
        if bunches.len() != n {
            return Err(format!("expected {n} bunches, got {}", bunches.len()));
        }
        for (u, bunch) in bunches.iter().enumerate() {
            if !bunch.windows(2).all(|w| w[0].0 < w[1].0) {
                return Err(format!("bunch of {u} not sorted strictly by node"));
            }
            for &(v, _) in bunch {
                if v >= n {
                    return Err(format!("bunch of {u} references node {v} (n={n})"));
                }
                if v == u {
                    return Err(format!("bunch of {u} contains a self entry"));
                }
            }
        }
        let l = landmarks.len();
        let nearest: Vec<Weight> = (0..n)
            .map(|u| (0..l).map(|i| rows[i * n + u]).min().unwrap())
            .collect();
        Ok(Self {
            n,
            seed,
            landmarks,
            rows,
            nearest,
            bunches,
        })
    }

    /// Number of nodes the sketch covers.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The RNG seed the sketch was built with (rebuilding from the same
    /// graph and seed reproduces the sketch bit-identically).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The sorted landmark node IDs.
    pub fn landmarks(&self) -> &[NodeId] {
        &self.landmarks
    }

    /// The symmetrized bunch of `u`: `(node, exact distance)` sorted by node.
    pub fn bunch(&self, u: NodeId) -> &[(NodeId, Weight)] {
        &self.bunches[u]
    }

    /// `d(u, A)`: the distance from `u` to its nearest landmark.
    pub fn nearest_landmark_dist(&self, u: NodeId) -> Weight {
        self.nearest[u]
    }

    /// The stretch bound the sketch guarantees (Thorup–Zwick k = 2).
    pub fn stretch_bound(&self) -> f64 {
        3.0
    }

    /// The distance estimate δ(u, v): the minimum over the shared bunch
    /// entry (exact when one exists) and every landmark two-leg path.
    /// Symmetric, never below the true distance, and at most 3× it.
    pub fn query(&self, u: NodeId, v: NodeId) -> Weight {
        if u == v {
            return 0;
        }
        let mut best = match self.bunches[u].binary_search_by_key(&v, |e| e.0) {
            Ok(i) => self.bunches[u][i].1,
            Err(_) => INF,
        };
        for i in 0..self.landmarks.len() {
            let via = wadd(self.rows[i * self.n + u], self.rows[i * self.n + v]);
            if via < best {
                best = via;
            }
        }
        best
    }

    /// Materializes the full estimate row δ(u, ·) in O(L·n + |B(u)|) time.
    /// Entry `v` equals [`LandmarkSketch::query`]`(u, v)` exactly — the
    /// serving layer's k-nearest path depends on that agreement.
    pub fn dist_row(&self, u: NodeId) -> Vec<Weight> {
        let mut row = vec![INF; self.n];
        row[u] = 0;
        for i in 0..self.landmarks.len() {
            let du = self.rows[i * self.n + u];
            if du >= INF {
                continue;
            }
            let lrow = &self.rows[i * self.n..(i + 1) * self.n];
            for (v, slot) in row.iter_mut().enumerate() {
                if v == u {
                    continue;
                }
                let via = wadd(du, lrow[v]);
                if via < *slot {
                    *slot = via;
                }
            }
        }
        for &(v, d) in &self.bunches[u] {
            if d < row[v] {
                row[v] = d;
            }
        }
        row
    }

    /// Approximate resident memory of the sketch payload in bytes: landmark
    /// IDs, distance rows, the derived nearest-landmark column, and every
    /// bunch entry.
    pub fn approx_mem_bytes(&self) -> u64 {
        let word = std::mem::size_of::<Weight>() as u64;
        let entries: u64 = self.bunches.iter().map(|b| b.len() as u64).sum();
        (self.landmarks.len() as u64) * word
            + (self.rows.len() as u64) * word
            + (self.nearest.len() as u64) * word
            + entries * 2 * word
    }

    /// Feeds every content word of the sketch (in canonical order) to `f`:
    /// seed, landmark count + IDs, rows, bunch lengths + entries (`nearest`
    /// is derived, so it is excluded). This is the one word layout of a
    /// sketch: the `*.ccsnap` landmark section writes these words after
    /// `n`, and the dynamic layer folds them into its state fingerprint.
    pub fn fold_words<F: FnMut(u64)>(&self, mut f: F) {
        f(self.seed);
        f(self.landmarks.len() as u64);
        for &l in &self.landmarks {
            f(l as u64);
        }
        for &d in &self.rows {
            f(d);
        }
        for bunch in &self.bunches {
            f(bunch.len() as u64);
            for &(v, d) in bunch {
                f(v as u64);
                f(d);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::generators;
    use cc_graph::graph::Direction;

    fn gnp(n: usize, seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        generators::gnp(n, 3.0 / n as f64, 1..=20, &mut rng)
    }

    #[test]
    fn never_underestimates_and_respects_stretch_bound() {
        let g = gnp(60, 3);
        let exact = apsp::exact_apsp(&g);
        let sketch = LandmarkSketch::build(&g, 11, ExecPolicy::Seq);
        for u in 0..g.n() {
            for v in 0..g.n() {
                let d = exact.get(u, v);
                let e = sketch.query(u, v);
                assert!(e >= d, "underestimate at ({u},{v}): {e} < {d}");
                if d < INF {
                    assert!(e < INF, "missing reachable pair ({u},{v})");
                    assert!(e as f64 <= 3.0 * d as f64 + 1e-9, "stretch at ({u},{v})");
                } else {
                    assert!(e >= INF, "phantom path at ({u},{v})");
                }
            }
        }
    }

    #[test]
    fn disconnected_graphs_get_a_landmark_per_component() {
        // Three components, including an isolated vertex.
        let g = Graph::from_edges(
            7,
            Direction::Undirected,
            &[(0, 1, 2), (1, 2, 2), (3, 4, 5), (4, 5, 5)],
        );
        let sketch = LandmarkSketch::build(&g, 0, ExecPolicy::Seq);
        for u in 0..7 {
            assert!(
                sketch.nearest_landmark_dist(u) < INF,
                "vertex {u} has no landmark in its component"
            );
        }
        assert_eq!(sketch.query(0, 2), 4);
        assert!(sketch.query(0, 3) >= INF);
        assert_eq!(sketch.query(6, 6), 0);
        assert!(sketch.query(6, 0) >= INF);
    }

    #[test]
    fn query_is_symmetric_and_matches_dist_row() {
        let g = gnp(40, 9);
        let sketch = LandmarkSketch::build(&g, 5, ExecPolicy::Seq);
        for u in 0..g.n() {
            let row = sketch.dist_row(u);
            for (v, &row_v) in row.iter().enumerate() {
                assert_eq!(sketch.query(u, v), row_v, "row mismatch at ({u},{v})");
                assert_eq!(
                    sketch.query(u, v),
                    sketch.query(v, u),
                    "asymmetry at ({u},{v})"
                );
            }
        }
    }

    #[test]
    fn build_is_invariant_across_exec_policies() {
        let g = gnp(50, 21);
        let seq = LandmarkSketch::build(&g, 13, ExecPolicy::Seq);
        let par = LandmarkSketch::build(&g, 13, ExecPolicy::with_threads(4));
        assert_eq!(seq, par);
        let mut a = Vec::new();
        let mut b = Vec::new();
        seq.fold_words(|w| a.push(w));
        par.fold_words(|w| b.push(w));
        assert_eq!(a, b);
    }

    #[test]
    fn from_parts_round_trips_and_validates() {
        let g = gnp(30, 2);
        let sketch = LandmarkSketch::build(&g, 4, ExecPolicy::Seq);
        let back = LandmarkSketch::from_parts(
            sketch.n(),
            sketch.seed(),
            sketch.landmarks.clone(),
            sketch.rows.clone(),
            sketch.bunches.clone(),
        )
        .expect("valid parts");
        assert_eq!(back, sketch);

        // Structural violations are rejected with a description.
        assert!(LandmarkSketch::from_parts(3, 0, vec![], vec![], vec![vec![]; 3]).is_err());
        assert!(LandmarkSketch::from_parts(3, 0, vec![2, 1], vec![0; 6], vec![vec![]; 3]).is_err());
        assert!(LandmarkSketch::from_parts(3, 0, vec![5], vec![0; 3], vec![vec![]; 3]).is_err());
        assert!(LandmarkSketch::from_parts(3, 0, vec![0], vec![0; 2], vec![vec![]; 3]).is_err());
        assert!(
            LandmarkSketch::from_parts(3, 0, vec![0], vec![0; 3], vec![vec![(1, 1)]; 3]).is_err(),
            "self entry in bunch of 1 must be rejected"
        );
        assert!(LandmarkSketch::from_parts(
            3,
            0,
            vec![0],
            vec![0; 3],
            vec![vec![(2, 1), (1, 1)], vec![], vec![]]
        )
        .is_err());
    }

    #[test]
    fn landmark_count_is_about_sqrt_n() {
        let g = gnp(100, 8);
        let sketch = LandmarkSketch::build(&g, 1, ExecPolicy::Seq);
        assert!(sketch.landmarks().len() >= 10);
        // Promotion can add at most one landmark per component.
        let (_, comps) = connected_components(&g);
        assert!(sketch.landmarks().len() <= 10 + comps);
    }

    #[test]
    fn empty_and_single_vertex_graphs() {
        let empty = Graph::from_edges(0, Direction::Undirected, &[]);
        let s0 = LandmarkSketch::build(&empty, 1, ExecPolicy::Seq);
        assert_eq!(s0.n(), 0);
        assert_eq!(s0.approx_mem_bytes(), 0);

        let one = Graph::from_edges(1, Direction::Undirected, &[]);
        let s1 = LandmarkSketch::build(&one, 1, ExecPolicy::Seq);
        assert_eq!(s1.query(0, 0), 0);
        assert_eq!(s1.landmarks(), &[0]);
    }
}
