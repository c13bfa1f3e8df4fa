//! Exact single-source shortest paths.
//!
//! These routines serve two roles:
//!
//! 1. **Local computation inside simulated nodes.** For example, in the
//!    hopset construction (Section 4) each node runs a shortest-path
//!    computation on the subgraph induced by its received edges; in the
//!    k-nearest algorithm (Section 5) each combination node runs hop-limited
//!    searches over its bins.
//! 2. **Ground truth.** Experiments compare every distance estimate against
//!    exact distances computed here.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::{wadd, Graph, NodeId, Weight, INF};

/// Dijkstra from `src`; returns the distance to every node (`INF` when
/// unreachable).
///
/// ```
/// use cc_graph::graph::{Graph, Direction};
/// use cc_graph::sssp::dijkstra;
/// let g = Graph::from_edges(4, Direction::Undirected, &[(0, 1, 2), (1, 2, 2), (0, 2, 5)]);
/// let d = dijkstra(&g, 0);
/// assert_eq!(d[2], 4);
/// assert_eq!(d[3], cc_graph::INF);
/// ```
pub fn dijkstra(g: &Graph, src: NodeId) -> Vec<Weight> {
    let mut dist = vec![INF; g.n()];
    let mut scratch = DijkstraScratch::new();
    dijkstra_into(g, src, &mut dist, &mut scratch);
    dist
}

/// Reusable working state for [`dijkstra_into`]: the binary heap (and its
/// backing allocation) survives across calls, so a caller running Dijkstra
/// from many sources — APSP row blocks, landmark sketch builds — pays for
/// the heap's growth once per worker instead of once per source.
#[derive(Default)]
pub struct DijkstraScratch {
    heap: BinaryHeap<Reverse<(Weight, NodeId)>>,
}

impl DijkstraScratch {
    /// An empty scratch; allocations happen lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// [`dijkstra`] writing into a caller-owned row. `dist` must have length
/// `g.n()`; every entry is overwritten (no stale state leaks between
/// sources). Output is bit-identical to [`dijkstra`] — the heap's pop order
/// on equal keys is the same because the scratch heap is always empty at
/// entry.
pub fn dijkstra_into(g: &Graph, src: NodeId, dist: &mut [Weight], scratch: &mut DijkstraScratch) {
    debug_assert_eq!(dist.len(), g.n());
    dist.fill(INF);
    dist[src] = 0;
    let heap = &mut scratch.heap;
    heap.clear();
    heap.push(Reverse((0, src)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        for (v, w) in g.neighbors(u) {
            let nd = wadd(d, w);
            if nd < dist[v] {
                dist[v] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }
}

/// Dijkstra with the lexicographic key `(distance, hops)`: among all
/// shortest paths, also minimizes the number of edges.
///
/// The hop counts let experiments *measure* the hop bound β of a hopset
/// (Lemma 3.2): β is the maximum, over the pairs the hopset must serve, of
/// the minimum hop count of an exact-length path in `G ∪ H`.
///
/// Returns `(dist, hops)` per node; `(INF, usize::MAX)` when unreachable.
pub fn dijkstra_with_hops(g: &Graph, src: NodeId) -> Vec<(Weight, usize)> {
    let mut best: Vec<(Weight, usize)> = vec![(INF, usize::MAX); g.n()];
    best[src] = (0, 0);
    let mut heap: BinaryHeap<Reverse<(Weight, usize, NodeId)>> = BinaryHeap::new();
    heap.push(Reverse((0, 0, src)));
    while let Some(Reverse((d, h, u))) = heap.pop() {
        if (d, h) > best[u] {
            continue;
        }
        for (v, w) in g.neighbors(u) {
            let nd = wadd(d, w);
            if nd >= INF {
                continue;
            }
            let nh = h + 1;
            if (nd, nh) < best[v] {
                best[v] = (nd, nh);
                heap.push(Reverse((nd, nh, v)));
            }
        }
    }
    best
}

/// Dijkstra from `src` truncated to the open ball of radius `bound`:
/// returns `(node, dist)` for exactly the nodes with `d(src, node) < bound`
/// (including `src` at distance 0 when `bound > 0`), sorted by node ID.
///
/// The search never relaxes past the bound, so the cost is proportional to
/// the ball, not the graph — this is what makes Thorup–Zwick-style bunch
/// construction (`B(u) = {v : d(u,v) < d(u, A)}`) affordable at scale.
///
/// ```
/// use cc_graph::graph::{Graph, Direction};
/// use cc_graph::sssp::dijkstra_within;
/// let g = Graph::from_edges(4, Direction::Undirected, &[(0, 1, 2), (1, 2, 2), (0, 2, 5)]);
/// assert_eq!(dijkstra_within(&g, 0, 3), vec![(0, 0), (1, 2)]);
/// assert_eq!(dijkstra_within(&g, 0, 0), vec![]);
/// ```
pub fn dijkstra_within(g: &Graph, src: NodeId, bound: Weight) -> Vec<(NodeId, Weight)> {
    if bound == 0 {
        return Vec::new();
    }
    let mut dist = vec![INF; g.n()];
    dist[src] = 0;
    let mut touched = vec![src];
    let mut heap: BinaryHeap<Reverse<(Weight, NodeId)>> = BinaryHeap::new();
    heap.push(Reverse((0, src)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        for (v, w) in g.neighbors(u) {
            let nd = wadd(d, w);
            if nd < bound && nd < dist[v] {
                if dist[v] >= INF {
                    touched.push(v);
                }
                dist[v] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    touched.sort_unstable();
    touched.into_iter().map(|v| (v, dist[v])).collect()
}

/// The `k` nearest nodes to `src` (including `src` itself at distance 0),
/// ties broken by node ID, as `(node, dist)` sorted by `(dist, node)`.
///
/// This is the reference implementation of the set `N_k(v)` from Section 2.1:
/// "the k nodes u with the smallest values of d(u, v), breaking ties by node
/// IDs".
///
/// ```
/// use cc_graph::graph::{Graph, Direction};
/// use cc_graph::sssp::k_nearest;
/// let g = Graph::from_edges(4, Direction::Undirected, &[(0, 1, 1), (0, 2, 1), (0, 3, 9)]);
/// assert_eq!(k_nearest(&g, 0, 3), vec![(0, 0), (1, 1), (2, 1)]);
/// ```
pub fn k_nearest(g: &Graph, src: NodeId, k: usize) -> Vec<(NodeId, Weight)> {
    let dist = dijkstra(g, src);
    k_nearest_from_dists(&dist, k)
}

/// Selects the `k` nearest entries from a distance vector, ties broken by ID,
/// excluding unreachable nodes, as `(node, dist)` sorted by `(dist, node)`.
pub fn k_nearest_from_dists(dist: &[Weight], k: usize) -> Vec<(NodeId, Weight)> {
    select_k_smallest(dist.iter().copied().enumerate(), k)
}

/// Keeps the `k` smallest `(node, dist)` entries by `(dist, node)`, dropping
/// unreachable (`INF`) ones, sorted ascending: the selection rule used
/// everywhere the paper says "the k nodes with the smallest values, breaking
/// ties by node IDs". Nodes must be distinct but may arrive in any order.
///
/// One scan keeps the `k` smallest pairs in a bounded max-heap and sorts
/// only those: O(len log k) time, and the heap never holds more than
/// `min(k, len)` entries, so any `k` (`usize::MAX` included) is safe to pass.
pub fn select_k_smallest(
    entries: impl IntoIterator<Item = (NodeId, Weight)>,
    k: usize,
) -> Vec<(NodeId, Weight)> {
    let entries = entries.into_iter();
    let mut heap: BinaryHeap<(Weight, NodeId)> =
        BinaryHeap::with_capacity(k.min(entries.size_hint().0));
    for (v, d) in entries {
        if d >= INF {
            continue;
        }
        if heap.len() < k {
            heap.push((d, v));
        } else if let Some(mut top) = heap.peek_mut() {
            if (d, v) < *top {
                *top = (d, v);
            }
        }
    }
    heap.into_sorted_vec()
        .into_iter()
        .map(|(d, v)| (v, d))
        .collect()
}

/// Hop-limited Bellman–Ford: the minimum length of a path from `src` with at
/// most `h` edges, for every target (`INF` when no such path exists).
///
/// This is exactly the h-hop distance `A^h[src, ·]` of Section 2.1's matrix
/// exponentiation view, and is the reference against which the filtered
/// matrix machinery of Section 5 is tested.
pub fn bellman_ford_hops(g: &Graph, src: NodeId, h: usize) -> Vec<Weight> {
    let mut dist = vec![INF; g.n()];
    dist[src] = 0;
    for _ in 0..h {
        let mut next = dist.clone();
        let mut changed = false;
        for (u, &du) in dist.iter().enumerate() {
            if du >= INF {
                continue;
            }
            for (v, w) in g.neighbors(u) {
                let nd = wadd(du, w);
                if nd < next[v] {
                    next[v] = nd;
                    changed = true;
                }
            }
        }
        dist = next;
        if !changed {
            break;
        }
    }
    dist
}

/// Dijkstra over an explicit arc list, restricted to the nodes mentioned in
/// the arcs plus `src`. Used by simulated nodes' local computations, e.g.
/// Step 3 of the hopset algorithm (Section 4.1).
pub fn dijkstra_arcs(n: usize, arcs: &[(NodeId, NodeId, Weight)], src: NodeId) -> Vec<Weight> {
    // Build a local adjacency map to avoid O(n)-per-pop scans.
    let mut adj: Vec<Vec<(NodeId, Weight)>> = vec![Vec::new(); n];
    for &(u, v, w) in arcs {
        adj[u].push((v, w));
    }
    let mut dist = vec![INF; n];
    dist[src] = 0;
    let mut heap: BinaryHeap<Reverse<(Weight, NodeId)>> = BinaryHeap::new();
    heap.push(Reverse((0, src)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        for &(v, w) in &adj[u] {
            let nd = wadd(d, w);
            if nd < dist[v] {
                dist[v] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    dist
}

/// Eccentricity of `src`: max finite distance from `src`.
pub fn eccentricity(g: &Graph, src: NodeId) -> Weight {
    dijkstra(g, src)
        .into_iter()
        .filter(|&d| d < INF)
        .max()
        .unwrap_or(0)
}

/// Weighted diameter (max over a sample of sources if `sample` is set, else
/// exact over all sources). The paper's `d` in Lemma 3.2's bound `O(a log d)`.
pub fn weighted_diameter(g: &Graph) -> Weight {
    (0..g.n()).map(|s| eccentricity(g, s)).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Direction;

    fn diamond() -> Graph {
        // 0 -2- 1 -2- 3, 0 -5- 2 -1- 3
        Graph::from_edges(
            4,
            Direction::Undirected,
            &[(0, 1, 2), (1, 3, 2), (0, 2, 5), (2, 3, 1)],
        )
    }

    #[test]
    fn dijkstra_matches_hand_computation() {
        let d = dijkstra(&diamond(), 0);
        assert_eq!(d, vec![0, 2, 5, 4]);
    }

    #[test]
    fn reused_scratch_is_bit_identical_to_fresh_runs() {
        let g = diamond();
        let mut scratch = DijkstraScratch::new();
        let mut row = vec![0; g.n()];
        // Run every source twice through the same scratch: stale heap or
        // dist state from a previous source must never leak.
        for _ in 0..2 {
            for src in 0..g.n() {
                dijkstra_into(&g, src, &mut row, &mut scratch);
                assert_eq!(row, dijkstra(&g, src), "src {src}");
            }
        }
    }

    #[test]
    fn dijkstra_unreachable_is_inf() {
        let g = Graph::from_edges(3, Direction::Undirected, &[(0, 1, 1)]);
        assert_eq!(dijkstra(&g, 0)[2], INF);
    }

    #[test]
    fn dijkstra_with_hops_prefers_fewer_edges_among_shortest() {
        // Two shortest paths of length 4 from 0 to 3: 0-1-3 (2 hops) via
        // weights 2+2, and 0-3 direct with weight 4 (1 hop).
        let g = Graph::from_edges(4, Direction::Undirected, &[(0, 1, 2), (1, 3, 2), (0, 3, 4)]);
        let best = dijkstra_with_hops(&g, 0);
        assert_eq!(best[3], (4, 1));
    }

    #[test]
    fn k_nearest_ties_break_by_id() {
        let g = Graph::from_edges(
            5,
            Direction::Undirected,
            &[(0, 4, 1), (0, 2, 1), (0, 1, 1), (0, 3, 1)],
        );
        assert_eq!(k_nearest(&g, 0, 3), vec![(0, 0), (1, 1), (2, 1)]);
    }

    #[test]
    fn dijkstra_within_matches_filtered_full_search() {
        let g = diamond();
        for src in 0..g.n() {
            let full = dijkstra(&g, src);
            for bound in 0..8u64 {
                let expect: Vec<(NodeId, Weight)> = full
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|&(_, d)| d < bound)
                    .collect();
                assert_eq!(
                    dijkstra_within(&g, src, bound),
                    expect,
                    "src {src} bound {bound}"
                );
            }
        }
    }

    #[test]
    fn dijkstra_within_inf_bound_is_the_reachable_set() {
        let g = Graph::from_edges(4, Direction::Undirected, &[(0, 1, 1)]);
        assert_eq!(dijkstra_within(&g, 0, INF), vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn bellman_ford_hop_limit_binds() {
        let g = diamond();
        // 0 -> 3 shortest is 4 with 2 hops; with h = 1 only direct edges.
        assert_eq!(bellman_ford_hops(&g, 0, 1)[3], INF);
        assert_eq!(bellman_ford_hops(&g, 0, 2)[3], 4);
    }

    #[test]
    fn bellman_ford_matches_dijkstra_when_h_large() {
        let g = diamond();
        assert_eq!(bellman_ford_hops(&g, 0, 10), dijkstra(&g, 0));
    }

    #[test]
    fn arc_list_variants_match_graph_variants() {
        let g = diamond();
        let arcs: Vec<_> = g.all_arcs().collect();
        for s in 0..g.n() {
            assert_eq!(dijkstra_arcs(g.n(), &arcs, s), dijkstra(&g, s));
        }
    }

    #[test]
    fn diameter_of_diamond() {
        assert_eq!(weighted_diameter(&diamond()), 5);
    }

    #[test]
    fn directed_dijkstra_respects_direction() {
        let g = Graph::from_edges(3, Direction::Directed, &[(0, 1, 1), (1, 2, 1)]);
        assert_eq!(dijkstra(&g, 0)[2], 2);
        assert_eq!(dijkstra(&g, 2)[0], INF);
    }
}
