//! Compact CSR weighted graphs.
//!
//! [`Graph`] is the single graph representation used across the workspace.
//! It stores a weighted graph in compressed-sparse-row form: for each node
//! `u`, the slice [`Graph::neighbors`]`(u)` lists `(v, w)` pairs for every
//! edge leaving `u`. Undirected graphs store each edge in both directions.
//!
//! Parallel edges are collapsed to the minimum weight at build time, matching
//! the paper's convention ("in the presence of parallel edges, only the one
//! with the minimum weight is retained", Section 6.1). Self-loops are dropped:
//! `d(v, v) = 0` always.

use crate::{NodeId, Weight};

/// Whether a [`Graph`] interprets its edges as one-way or two-way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Every added edge `(u, v)` also exists as `(v, u)` with the same weight.
    Undirected,
    /// Edges are one-way.
    Directed,
}

/// Incremental builder for [`Graph`].
///
/// ```
/// use cc_graph::GraphBuilder;
/// let mut b = GraphBuilder::undirected(4);
/// b.add_edge(0, 1, 5);
/// b.add_edge(1, 2, 3);
/// b.add_edge(1, 2, 7); // parallel edge, collapsed to weight 3
/// let g = b.build();
/// assert_eq!(g.n(), 4);
/// assert_eq!(g.m(), 2);
/// assert_eq!(g.neighbors(1).count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    direction: Direction,
    edges: Vec<(NodeId, NodeId, Weight)>,
}

impl GraphBuilder {
    /// Starts an undirected graph on `n` nodes.
    pub fn undirected(n: usize) -> Self {
        Self {
            n,
            direction: Direction::Undirected,
            edges: Vec::new(),
        }
    }

    /// Starts a directed graph on `n` nodes.
    pub fn directed(n: usize) -> Self {
        Self {
            n,
            direction: Direction::Directed,
            edges: Vec::new(),
        }
    }

    /// Adds an edge. Self-loops are silently ignored.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: Weight) -> &mut Self {
        assert!(
            u < self.n && v < self.n,
            "edge ({u}, {v}) out of range for n={}",
            self.n
        );
        if u != v {
            self.edges.push((u, v, w));
        }
        self
    }

    /// Finalizes into a CSR [`Graph`], collapsing parallel edges to minimum
    /// weight.
    pub fn build(&self) -> Graph {
        let mut all: Vec<(NodeId, NodeId, Weight)> = Vec::with_capacity(
            self.edges.len()
                * if self.direction == Direction::Undirected {
                    2
                } else {
                    1
                },
        );
        for &(u, v, w) in &self.edges {
            all.push((u, v, w));
            if self.direction == Direction::Undirected {
                all.push((v, u, w));
            }
        }
        all.sort_unstable();
        // Collapse parallel edges: sorted by (u, v, w), keep first (min w).
        all.dedup_by(|next, prev| next.0 == prev.0 && next.1 == prev.1);

        let mut offsets = vec![0usize; self.n + 1];
        for &(u, _, _) in &all {
            offsets[u + 1] += 1;
        }
        for i in 0..self.n {
            offsets[i + 1] += offsets[i];
        }
        let targets: Vec<NodeId> = all.iter().map(|e| e.1).collect();
        let weights: Vec<Weight> = all.iter().map(|e| e.2).collect();
        Graph {
            n: self.n,
            direction: self.direction,
            offsets,
            targets,
            weights,
        }
    }
}

/// A weighted graph in CSR form.
///
/// See the [module docs](self) for conventions. Construct with
/// [`GraphBuilder`] or [`Graph::from_edges`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    n: usize,
    direction: Direction,
    offsets: Vec<usize>,
    targets: Vec<NodeId>,
    weights: Vec<Weight>,
}

impl Graph {
    /// Builds a graph directly from an edge list.
    ///
    /// ```
    /// use cc_graph::graph::{Graph, Direction};
    /// let g = Graph::from_edges(3, Direction::Undirected, &[(0, 1, 2), (1, 2, 4)]);
    /// assert_eq!(g.m(), 2);
    /// ```
    pub fn from_edges(n: usize, direction: Direction, edges: &[(NodeId, NodeId, Weight)]) -> Self {
        let mut b = match direction {
            Direction::Undirected => GraphBuilder::undirected(n),
            Direction::Directed => GraphBuilder::directed(n),
        };
        for &(u, v, w) in edges {
            b.add_edge(u, v, w);
        }
        b.build()
    }

    /// An empty graph (no edges) on `n` nodes.
    pub fn empty(n: usize, direction: Direction) -> Self {
        Self::from_edges(n, direction, &[])
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges. For undirected graphs this counts each edge once.
    pub fn m(&self) -> usize {
        match self.direction {
            Direction::Undirected => self.targets.len() / 2,
            Direction::Directed => self.targets.len(),
        }
    }

    /// Number of stored arcs (directed adjacency entries).
    pub fn arcs(&self) -> usize {
        self.targets.len()
    }

    /// Whether the graph is directed.
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// Out-degree of `u`.
    pub fn degree(&self, u: NodeId) -> usize {
        self.offsets[u + 1] - self.offsets[u]
    }

    /// The out-neighbors of `u` as `(target, weight)` pairs, sorted by target.
    pub fn neighbors(&self, u: NodeId) -> impl Iterator<Item = (NodeId, Weight)> + '_ {
        let lo = self.offsets[u];
        let hi = self.offsets[u + 1];
        self.targets[lo..hi]
            .iter()
            .copied()
            .zip(self.weights[lo..hi].iter().copied())
    }

    /// Weight of edge `(u, v)` if present.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<Weight> {
        let lo = self.offsets[u];
        let hi = self.offsets[u + 1];
        match self.targets[lo..hi].binary_search(&v) {
            Ok(i) => Some(self.weights[lo + i]),
            Err(_) => None,
        }
    }

    /// Iterates all arcs `(u, v, w)`. Undirected edges appear in both
    /// directions; use [`Graph::edges`] for one direction only.
    pub fn all_arcs(&self) -> impl Iterator<Item = (NodeId, NodeId, Weight)> + '_ {
        (0..self.n).flat_map(move |u| self.neighbors(u).map(move |(v, w)| (u, v, w)))
    }

    /// Iterates each undirected edge once (`u < v`), or every arc when
    /// directed.
    pub fn edges(&self) -> Vec<(NodeId, NodeId, Weight)> {
        match self.direction {
            Direction::Undirected => self.all_arcs().filter(|&(u, v, _)| u < v).collect(),
            Direction::Directed => self.all_arcs().collect(),
        }
    }

    /// Maximum edge weight, or 0 for an edgeless graph.
    pub fn max_weight(&self) -> Weight {
        self.weights.iter().copied().max().unwrap_or(0)
    }

    /// Minimum edge weight, or 0 for an edgeless graph.
    pub fn min_weight(&self) -> Weight {
        self.weights.iter().copied().min().unwrap_or(0)
    }

    /// The `count` lightest outgoing edges of `u`, ties broken by target ID.
    ///
    /// This is the per-node filtering primitive used throughout Sections 4
    /// and 5 of the paper ("the √n shortest outgoing edges").
    pub fn lightest_out_edges(&self, u: NodeId, count: usize) -> Vec<(NodeId, Weight)> {
        let mut out: Vec<(NodeId, Weight)> = self.neighbors(u).collect();
        out.sort_unstable_by_key(|&(v, w)| (w, v));
        out.truncate(count);
        out
    }

    /// Returns a new graph with every edge of `self` plus every edge of
    /// `extra` (collapsing duplicates to minimum weight). Used to form
    /// `G ∪ H` when augmenting with a hopset.
    ///
    /// # Panics
    ///
    /// Panics if node counts differ.
    pub fn union(&self, extra: &Graph) -> Graph {
        assert_eq!(self.n, extra.n, "graph union requires equal node counts");
        assert_eq!(
            self.direction, extra.direction,
            "graph union requires equal directedness"
        );
        let mut b = match self.direction {
            Direction::Undirected => GraphBuilder::undirected(self.n),
            Direction::Directed => GraphBuilder::directed(self.n),
        };
        for (u, v, w) in self.all_arcs().chain(extra.all_arcs()) {
            // all_arcs yields both directions for undirected graphs; adding
            // them again is harmless because build() dedups.
            b.add_edge(u, v, w);
        }
        b.build()
    }

    /// This graph with each listed edge set to a new weight (`Some`) or
    /// removed (`None`); an undirected graph changes both arcs of an edge.
    /// The CSR arrays are patched in one pass, O(n + m + c log c) for `c`
    /// changes, and the result is `==` to [`Graph::from_edges`] over the
    /// edited edge list.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range, an edge is a self-loop, or an
    /// edge is listed twice.
    pub fn patched(&self, changes: &[(NodeId, NodeId, Option<Weight>)]) -> Graph {
        let mut arcs: Vec<(NodeId, NodeId, Option<Weight>)> = Vec::with_capacity(2 * changes.len());
        for &(u, v, w) in changes {
            assert!(
                u < self.n && v < self.n && u != v,
                "edge ({u}, {v}) cannot be patched into n={}",
                self.n
            );
            arcs.push((u, v, w));
            if self.direction == Direction::Undirected {
                arcs.push((v, u, w));
            }
        }
        arcs.sort_unstable_by_key(|&(u, v, _)| (u, v));
        assert!(
            arcs.windows(2)
                .all(|p| (p[0].0, p[0].1) != (p[1].0, p[1].1)),
            "an edge is patched twice"
        );
        let cap = self.targets.len() + arcs.len();
        let (mut targets, mut weights) = (Vec::with_capacity(cap), Vec::with_capacity(cap));
        let mut offsets = Vec::with_capacity(self.n + 1);
        offsets.push(0);
        let mut arcs = arcs.into_iter().peekable();
        for u in 0..self.n {
            let (mut lo, hi) = (self.offsets[u], self.offsets[u + 1]);
            while let Some((_, v, w)) = arcs.next_if(|a| a.0 == u) {
                // Keep u's arcs below v, drop the old (u, v), add the new one.
                let at = lo + self.targets[lo..hi].partition_point(|&t| t < v);
                targets.extend_from_slice(&self.targets[lo..at]);
                weights.extend_from_slice(&self.weights[lo..at]);
                lo = if at < hi && self.targets[at] == v {
                    at + 1
                } else {
                    at
                };
                if let Some(w) = w {
                    targets.push(v);
                    weights.push(w);
                }
            }
            targets.extend_from_slice(&self.targets[lo..hi]);
            weights.extend_from_slice(&self.weights[lo..hi]);
            offsets.push(targets.len());
        }
        Graph {
            n: self.n,
            direction: self.direction,
            offsets,
            targets,
            weights,
        }
    }

    /// Applies `f` to every edge weight, producing a new graph with the same
    /// topology. Used by the weight-scaling lemma (Section 8.1).
    pub fn map_weights(&self, mut f: impl FnMut(Weight) -> Weight) -> Graph {
        let mut g = self.clone();
        for w in &mut g.weights {
            *w = f(*w);
        }
        g
    }

    /// Validates that all weights are strictly positive (the paper's standing
    /// assumption outside of Theorem 2.1).
    pub fn has_positive_weights(&self) -> bool {
        self.weights.iter().all(|&w| w > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_dedups_parallel_edges_to_min() {
        let mut b = GraphBuilder::undirected(3);
        b.add_edge(0, 1, 9).add_edge(1, 0, 4).add_edge(0, 1, 6);
        let g = b.build();
        assert_eq!(g.m(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(4));
        assert_eq!(g.edge_weight(1, 0), Some(4));
    }

    #[test]
    fn builder_drops_self_loops() {
        let mut b = GraphBuilder::directed(2);
        b.add_edge(0, 0, 1).add_edge(0, 1, 2);
        let g = b.build();
        assert_eq!(g.m(), 1);
        assert_eq!(g.edge_weight(0, 0), None);
    }

    #[test]
    fn undirected_stores_both_directions() {
        let g = Graph::from_edges(3, Direction::Undirected, &[(0, 1, 2), (1, 2, 3)]);
        assert_eq!(g.arcs(), 4);
        assert_eq!(g.m(), 2);
        assert_eq!(g.neighbors(1).collect::<Vec<_>>(), vec![(0, 2), (2, 3)]);
    }

    #[test]
    fn directed_stores_one_direction() {
        let g = Graph::from_edges(3, Direction::Directed, &[(0, 1, 2)]);
        assert_eq!(g.edge_weight(0, 1), Some(2));
        assert_eq!(g.edge_weight(1, 0), None);
    }

    #[test]
    fn lightest_out_edges_orders_by_weight_then_id() {
        let g = Graph::from_edges(4, Direction::Directed, &[(0, 3, 5), (0, 1, 5), (0, 2, 1)]);
        assert_eq!(g.lightest_out_edges(0, 2), vec![(2, 1), (1, 5)]);
        assert_eq!(g.lightest_out_edges(0, 10).len(), 3);
    }

    #[test]
    fn union_collapses_to_min_weight() {
        let g = Graph::from_edges(3, Direction::Undirected, &[(0, 1, 10)]);
        let h = Graph::from_edges(3, Direction::Undirected, &[(0, 1, 4), (1, 2, 1)]);
        let u = g.union(&h);
        assert_eq!(u.edge_weight(0, 1), Some(4));
        assert_eq!(u.edge_weight(1, 2), Some(1));
        assert_eq!(u.m(), 2);
    }

    #[test]
    fn map_weights_preserves_topology() {
        let g = Graph::from_edges(3, Direction::Undirected, &[(0, 1, 3), (1, 2, 5)]);
        let doubled = g.map_weights(|w| w * 2);
        assert_eq!(doubled.edge_weight(0, 1), Some(6));
        assert_eq!(doubled.edge_weight(1, 2), Some(10));
        assert_eq!(doubled.m(), g.m());
    }

    #[test]
    fn edges_yields_each_undirected_edge_once() {
        let g = Graph::from_edges(4, Direction::Undirected, &[(2, 0, 1), (3, 1, 2)]);
        let mut e = g.edges();
        e.sort_unstable();
        assert_eq!(e, vec![(0, 2, 1), (1, 3, 2)]);
    }

    #[test]
    fn patched_equals_the_rebuild() {
        let edges = [(0, 1, 3), (1, 2, 1), (2, 3, 4), (0, 3, 9)];
        let edit = [(0, 1, None), (1, 3, Some(7)), (2, 3, Some(2))];
        let rebuilt = [(1, 2, 1), (2, 3, 2), (0, 3, 9), (1, 3, 7)];
        for direction in [Direction::Undirected, Direction::Directed] {
            let g = Graph::from_edges(4, direction, &edges);
            assert_eq!(g.patched(&edit), Graph::from_edges(4, direction, &rebuilt));
            assert_eq!(g.patched(&[]), g);
        }
    }

    #[test]
    #[should_panic(expected = "patched twice")]
    fn patching_an_edge_twice_panics() {
        let g = Graph::from_edges(3, Direction::Undirected, &[(0, 1, 1)]);
        g.patched(&[(0, 1, None), (1, 0, Some(2))]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edge_out_of_range_panics() {
        GraphBuilder::undirected(2).add_edge(0, 5, 1);
    }

    #[test]
    fn positive_weight_validation() {
        let g = Graph::from_edges(2, Direction::Undirected, &[(0, 1, 0)]);
        assert!(!g.has_positive_weights());
        let g = Graph::from_edges(2, Direction::Undirected, &[(0, 1, 1)]);
        assert!(g.has_positive_weights());
    }
}
