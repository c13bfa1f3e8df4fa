//! Distance oracles and greedy routing — the network-routing application
//! that motivates APSP in the Congested Clique (Section 1: "particularly
//! important in distributed computing due to its close connection to
//! network routing").
//!
//! After an APSP run, each node knows an estimate row δ(u, ·). An
//! [`OracleBackend`] holds the estimate and, given the graph it estimates,
//! supports *greedy next-hop routing* ([`OracleBackend::route`]): from `u`
//! toward `v`, forward to the neighbor minimizing `w(u, x) + δ(x, v)`.
//! With exact distances this follows a shortest path; with an
//! α-approximation the detour is bounded in practice (measured by
//! [`OracleBackend::routing_quality`]).

use cc_graph::{wadd, DistMatrix, Graph, NodeId, StretchStats, Weight, INF};
use cc_par::ExecPolicy;

use crate::landmark::LandmarkSketch;

/// Which oracle backend a run should produce — the `--oracle` /
/// `CC_ORACLE` axis, mirroring the `--kernel` / `CC_KERNEL` pattern of
/// [`cc_matrix::engine::KernelMode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OracleKind {
    /// Dense n×n [`DistMatrix`] estimate: exact answers for whatever the
    /// pipeline computed, 8n² bytes resident.
    #[default]
    Dense,
    /// Sublinear [`LandmarkSketch`]: Θ(n√n) expected words, provable
    /// 3-approximate answers.
    Landmark,
}

impl OracleKind {
    /// Parses a CLI/env spelling (`dense` | `landmark`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "dense" => Some(OracleKind::Dense),
            "landmark" => Some(OracleKind::Landmark),
            _ => None,
        }
    }

    /// The canonical spelling, for usage strings and bench labels.
    pub fn name(self) -> &'static str {
        match self {
            OracleKind::Dense => "dense",
            OracleKind::Landmark => "landmark",
        }
    }

    /// The `CC_ORACLE` environment default: `dense` when unset or
    /// unrecognized.
    pub fn from_env() -> Self {
        std::env::var("CC_ORACLE")
            .ok()
            .and_then(|s| Self::parse(&s))
            .unwrap_or_default()
    }
}

impl std::fmt::Display for OracleKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The distance estimate an oracle answers from: either the classic dense
/// matrix or a sublinear landmark sketch. Every layer above (snapshots, the
/// serving engine, the dynamic engine, the benches) is generic over this
/// enum; the dense arm answers bit-identically to the pre-refactor code.
#[derive(Debug, Clone, PartialEq)]
pub enum OracleBackend {
    /// Dense n×n estimate matrix.
    Dense(DistMatrix),
    /// Landmark sketch (see [`crate::landmark`]).
    Landmark(LandmarkSketch),
}

impl OracleBackend {
    /// Number of nodes the backend covers.
    pub fn n(&self) -> usize {
        match self {
            OracleBackend::Dense(m) => m.n(),
            OracleBackend::Landmark(s) => s.n(),
        }
    }

    /// Which kind of backend this is.
    pub fn kind(&self) -> OracleKind {
        match self {
            OracleBackend::Dense(_) => OracleKind::Dense,
            OracleBackend::Landmark(_) => OracleKind::Landmark,
        }
    }

    /// The distance estimate δ(u, v).
    #[inline]
    pub fn query(&self, u: NodeId, v: NodeId) -> Weight {
        match self {
            OracleBackend::Dense(m) => m.get(u, v),
            OracleBackend::Landmark(s) => s.query(u, v),
        }
    }

    /// The dense matrix, when this is a dense backend (the serving layer's
    /// zero-copy row path and the dynamic engine's row repair use this).
    pub fn as_dense(&self) -> Option<&DistMatrix> {
        match self {
            OracleBackend::Dense(m) => Some(m),
            OracleBackend::Landmark(_) => None,
        }
    }

    /// The landmark sketch, when this is a landmark backend.
    pub fn as_landmark(&self) -> Option<&LandmarkSketch> {
        match self {
            OracleBackend::Dense(_) => None,
            OracleBackend::Landmark(s) => Some(s),
        }
    }

    /// Materializes the estimate row δ(u, ·). Dense backends copy their row;
    /// landmark backends compute it in O(L·n). Prefer
    /// [`OracleBackend::as_dense`] when a borrowed row suffices.
    pub fn dist_row(&self, u: NodeId) -> Vec<Weight> {
        match self {
            OracleBackend::Dense(m) => m.row(u).to_vec(),
            OracleBackend::Landmark(s) => s.dist_row(u),
        }
    }

    /// Approximate resident memory of the estimate payload in bytes.
    pub fn approx_mem_bytes(&self) -> u64 {
        match self {
            OracleBackend::Dense(m) => m.approx_mem_bytes(),
            OracleBackend::Landmark(s) => s.approx_mem_bytes(),
        }
    }

    /// Audits the backend's stretch against exact distances computed from
    /// `sources` seeded-sampled source vertices (all of them when `sources
    /// ≥ n`) — the affordable audit at sketch scale, reported with the same
    /// [`StretchStats`] semantics as the dense matrix audits.
    ///
    /// Deterministic per `(graph, sources, seed)`; `exec` parallelizes the
    /// exact rows only.
    pub fn sampled_stretch(
        &self,
        graph: &Graph,
        sources: usize,
        seed: u64,
        exec: ExecPolicy,
    ) -> StretchStats {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let n = graph.n();
        let picked: Vec<NodeId> = if sources >= n {
            (0..n).collect()
        } else {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ids: Vec<NodeId> = (0..n).collect();
            for i in 0..sources {
                let j = rng.gen_range(i..n);
                ids.swap(i, j);
            }
            let mut picked = ids[..sources].to_vec();
            picked.sort_unstable();
            picked
        };
        let exact_rows = cc_graph::apsp::exact_rows_with(graph, &picked, exec);
        let mut ratios = Vec::new();
        let mut under = 0usize;
        let mut missing = 0usize;
        for (row, &u) in exact_rows.iter().zip(&picked) {
            let est_row = self.dist_row(u);
            for (v, &d) in row.iter().enumerate() {
                if u == v || d == 0 || d >= INF {
                    continue;
                }
                let e = est_row[v];
                if e >= INF {
                    missing += 1;
                    continue;
                }
                if e < d {
                    under += 1;
                }
                ratios.push(e as f64 / d as f64);
            }
        }
        StretchStats::from_tally(ratios, under, missing)
    }

    /// The greedy next hop from `u` toward `v` in `graph`: the neighbor `x`
    /// minimizing `(w(u,x) + δ(x,v), x)`, or `None` if `u` is isolated or
    /// every neighbor estimates `v` as unreachable.
    pub fn next_hop(&self, graph: &Graph, u: NodeId, v: NodeId) -> Option<NodeId> {
        graph
            .neighbors(u)
            .map(|(x, w)| (wadd(w, self.query(x, v)), x))
            .filter(|&(cost, _)| cost < INF)
            .min()
            .map(|(_, x)| x)
    }

    /// Routes greedily from `u` to `v` in `graph`: at each step, forward to
    /// the best **unvisited** neighbor by `w(u,x) + δ(x,v)` (excluding
    /// visited nodes guarantees termination even when the approximate
    /// estimate would create a loop). Gives up when stuck; returns the node
    /// sequence on success.
    ///
    /// Guaranteed to terminate within `n` steps for *any* estimate, however
    /// misleading: every step visits a fresh node, so the walk either
    /// reaches `v`, or runs out of unvisited neighbors (a dead end or an
    /// unreachable target, e.g. `δ(·,v) = ∞` everywhere) and returns
    /// `None` — it can never loop. `u == v` is the trivial one-node route.
    pub fn route(&self, graph: &Graph, u: NodeId, v: NodeId) -> Option<Vec<NodeId>> {
        if u == v {
            return Some(vec![u]);
        }
        let n = graph.n();
        let mut path = vec![u];
        let mut visited = vec![false; n];
        visited[u] = true;
        let mut cur = u;
        while cur != v {
            debug_assert!(path.len() <= n, "visited-set invariant violated");
            let next = graph
                .neighbors(cur)
                .filter(|&(x, _)| !visited[x])
                .map(|(x, w)| (wadd(w, self.query(x, v)), x))
                .filter(|&(cost, _)| cost < INF)
                .min()
                .map(|(_, x)| x)?;
            visited[next] = true;
            path.push(next);
            cur = next;
        }
        Some(path)
    }

    /// Measures greedy-routing quality in `graph` over all ordered
    /// connected pairs of a deterministic sample (every `stride`-th pair),
    /// comparing walked length to exact distance.
    pub fn routing_quality(
        &self,
        graph: &Graph,
        exact: &DistMatrix,
        stride: usize,
    ) -> RoutingQuality {
        let n = graph.n();
        let stride = stride.max(1);
        let mut attempted = 0;
        let mut delivered = 0;
        let mut sum = 0.0;
        let mut max = 0.0f64;
        let mut counter = 0usize;
        for u in 0..n {
            for v in 0..n {
                if u == v || exact.get(u, v) >= INF {
                    continue;
                }
                counter += 1;
                if !counter.is_multiple_of(stride) {
                    continue;
                }
                attempted += 1;
                if let Some(path) = self.route(graph, u, v) {
                    let length: Weight = path
                        .windows(2)
                        .map(|p| {
                            graph
                                .edge_weight(p[0], p[1])
                                .expect("route uses real edges")
                        })
                        .sum();
                    delivered += 1;
                    let ratio = length as f64 / exact.get(u, v) as f64;
                    sum += ratio;
                    max = max.max(ratio);
                }
            }
        }
        RoutingQuality {
            attempted,
            delivered,
            mean_route_stretch: if delivered > 0 {
                sum / delivered as f64
            } else {
                0.0
            },
            max_route_stretch: max,
        }
    }
}

/// Outcome of routing a batch of random queries through an estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutingQuality {
    /// Queries attempted (connected pairs only).
    pub attempted: usize,
    /// Queries whose greedy walk reached the target.
    pub delivered: usize,
    /// Mean ratio of walked length to true distance, over delivered
    /// queries.
    pub mean_route_stretch: f64,
    /// Max ratio of walked length to true distance.
    pub max_route_stretch: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::graph::Direction;
    use cc_graph::{apsp, generators};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn geometric(n: usize, seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        generators::random_geometric(n, 0.3, 50, &mut rng)
    }

    #[test]
    fn exact_oracle_routes_along_shortest_paths() {
        let g = geometric(40, 1);
        let exact = apsp::exact_apsp(&g);
        let oracle = OracleBackend::Dense(exact.clone());
        let q = oracle.routing_quality(&g, &exact, 7);
        assert_eq!(q.attempted, q.delivered);
        assert!((q.max_route_stretch - 1.0).abs() < 1e-9, "{q:?}");
    }

    #[test]
    fn approximate_oracle_delivers_with_bounded_detour() {
        let g = geometric(50, 2);
        let exact = apsp::exact_apsp(&g);
        let result = crate::pipeline::approximate_apsp(
            &g,
            &crate::pipeline::PipelineConfig {
                seed: 2,
                ..Default::default()
            },
        );
        let oracle = OracleBackend::Dense(result.estimate);
        let q = oracle.routing_quality(&g, &exact, 5);
        // Most queries should deliver, and detours stay modest on geometric
        // graphs.
        assert!(q.delivered * 10 >= q.attempted * 8, "{q:?}");
        assert!(q.max_route_stretch < 20.0, "{q:?}");
    }

    #[test]
    fn next_hop_none_for_isolated_node() {
        let g = Graph::from_edges(3, Direction::Undirected, &[(0, 1, 1)]);
        let exact = apsp::exact_apsp(&g);
        let oracle = OracleBackend::Dense(exact);
        assert_eq!(oracle.next_hop(&g, 2, 0), None);
        assert_eq!(oracle.route(&g, 2, 0), None);
    }

    #[test]
    fn route_to_self_is_trivial() {
        let g = geometric(10, 3);
        let exact = apsp::exact_apsp(&g);
        let oracle = OracleBackend::Dense(exact);
        assert_eq!(oracle.route(&g, 4, 4), Some(vec![4]));
    }

    #[test]
    fn route_to_self_works_even_for_isolated_nodes() {
        // u == v must be the trivial route regardless of connectivity.
        let g = Graph::from_edges(3, Direction::Undirected, &[(0, 1, 1)]);
        let exact = apsp::exact_apsp(&g);
        let oracle = OracleBackend::Dense(exact);
        assert_eq!(oracle.route(&g, 2, 2), Some(vec![2]));
        assert_eq!(oracle.route(&g, 0, 0), Some(vec![0]));
    }

    #[test]
    fn disconnected_pair_with_inf_estimate_returns_none() {
        // Two components; every neighbor estimates the far side as INF, so
        // the very first step finds no candidate.
        let g = Graph::from_edges(
            6,
            Direction::Undirected,
            &[(0, 1, 2), (1, 2, 3), (3, 4, 1), (4, 5, 1)],
        );
        let exact = apsp::exact_apsp(&g);
        assert_eq!(exact.get(0, 5), INF);
        let oracle = OracleBackend::Dense(exact);
        assert_eq!(oracle.route(&g, 0, 5), None);
        assert_eq!(oracle.route(&g, 5, 0), None);
        assert_eq!(oracle.next_hop(&g, 0, 5), None);
    }

    #[test]
    fn lying_estimate_into_a_dead_end_returns_none() {
        // δ(1, 3) = 0 lies: greedy routing from 0 toward 3 prefers the
        // dead-end node 1 over the real path through 2, then has no
        // unvisited neighbor left and must give up (not loop back).
        let g = Graph::from_edges(4, Direction::Undirected, &[(0, 1, 1), (0, 2, 1), (2, 3, 1)]);
        let mut fake = DistMatrix::infinite(4);
        fake.set(1, 3, 0);
        fake.set(2, 3, 5);
        fake.set(3, 3, 0);
        let oracle = OracleBackend::Dense(fake);
        assert_eq!(oracle.route(&g, 0, 3), None);
    }

    #[test]
    fn cyclic_estimate_terminates_with_distinct_path_nodes() {
        // A constant all-ones estimate on a cycle is the classic greedy
        // loop bait; the visited set must bound the walk by n distinct
        // nodes whatever happens.
        let n = 8;
        let edges: Vec<(usize, usize, u64)> = (0..n).map(|i| (i, (i + 1) % n, 1)).collect();
        let g = Graph::from_edges(n, Direction::Undirected, &edges);
        let mut fake = DistMatrix::infinite(n);
        for u in 0..n {
            for v in 0..n {
                if u != v {
                    fake.set(u, v, 1);
                }
            }
        }
        let oracle = OracleBackend::Dense(fake);
        for target in 0..n {
            if let Some(path) = oracle.route(&g, 0, target) {
                assert!(path.len() <= n, "path too long: {path:?}");
                let mut sorted = path.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), path.len(), "revisit in {path:?}");
            }
        }
    }

    #[test]
    fn oracle_kind_parses_and_reads_env_spellings() {
        assert_eq!(OracleKind::parse("dense"), Some(OracleKind::Dense));
        assert_eq!(OracleKind::parse("landmark"), Some(OracleKind::Landmark));
        assert_eq!(OracleKind::parse("sketchy"), None);
        assert_eq!(OracleKind::Dense.name(), "dense");
        assert_eq!(OracleKind::Landmark.to_string(), "landmark");
        assert_eq!(OracleKind::default(), OracleKind::Dense);
    }

    #[test]
    fn dense_backend_answers_identically_to_the_old_dense_oracle() {
        let g = geometric(30, 6);
        let exact = apsp::exact_apsp(&g);
        let oracle = OracleBackend::Dense(exact.clone());
        assert_eq!(oracle.kind(), OracleKind::Dense);
        for u in 0..g.n() {
            for v in 0..g.n() {
                assert_eq!(oracle.query(u, v), exact.get(u, v));
            }
            assert_eq!(oracle.dist_row(u), exact.row(u).to_vec());
        }
        assert_eq!(oracle.approx_mem_bytes(), exact.approx_mem_bytes());
    }

    #[test]
    fn landmark_backend_routes_and_never_underestimates() {
        let g = geometric(40, 8);
        let exact = apsp::exact_apsp(&g);
        let sketch = crate::landmark::LandmarkSketch::build(&g, 17, cc_par::ExecPolicy::Seq);
        let oracle = OracleBackend::Landmark(sketch);
        assert_eq!(oracle.kind(), OracleKind::Landmark);
        for u in 0..g.n() {
            for v in 0..g.n() {
                let d = exact.get(u, v);
                let e = oracle.query(u, v);
                assert!(e >= d, "underestimate at ({u},{v})");
                if d < INF {
                    // Route must terminate; when delivered it uses real edges.
                    if let Some(path) = oracle.route(&g, u, v) {
                        assert_eq!(*path.first().unwrap(), u);
                        assert_eq!(*path.last().unwrap(), v);
                        assert!(path.len() <= g.n());
                    }
                }
            }
        }
        let stats = oracle.sampled_stretch(&g, 16, 3, cc_par::ExecPolicy::Seq);
        assert_eq!(stats.underestimates, 0);
        assert_eq!(stats.missing, 0);
        assert!(stats.max_stretch <= 3.0 + 1e-9, "{stats}");
    }

    #[test]
    fn sampled_stretch_with_all_sources_matches_full_matrix_audit() {
        let g = geometric(25, 12);
        let exact = apsp::exact_apsp(&g);
        let sketch = crate::landmark::LandmarkSketch::build(&g, 2, cc_par::ExecPolicy::Seq);
        let backend = OracleBackend::Landmark(sketch.clone());
        let sampled = backend.sampled_stretch(&g, g.n(), 0, cc_par::ExecPolicy::Seq);
        // Materialize the sketch into a dense matrix and audit it fully.
        let mut dense = DistMatrix::infinite(g.n());
        for u in 0..g.n() {
            let row = sketch.dist_row(u);
            for (v, &d) in row.iter().enumerate() {
                dense.set(u, v, d);
            }
        }
        let full = dense.stretch_vs(&exact);
        assert_eq!(sampled, full);
    }

    #[test]
    fn misleading_estimate_detected_as_loop_or_dead_end() {
        // An estimate claiming everything is at distance 1 everywhere makes
        // greedy routing walk to the ID-smallest neighbor forever; the
        // visited-set guard must catch it rather than hang.
        let g = Graph::from_edges(
            4,
            Direction::Undirected,
            &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)],
        );
        let mut fake = DistMatrix::infinite(4);
        for u in 0..4 {
            for v in 0..4 {
                if u != v {
                    fake.set(u, v, 1);
                }
            }
        }
        let oracle = OracleBackend::Dense(fake);
        // Routing may or may not succeed, but must terminate.
        let _ = oracle.route(&g, 0, 2);
    }
}
