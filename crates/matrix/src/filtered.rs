//! Filtered matrices: the `Ā` notation of Section 5.
//!
//! Filtering a matrix keeps, in each row, only the `k` smallest entries
//! (ties broken by column ID) and sets the rest to `∞`. A filtered matrix is
//! exactly a "k-nearest list per node", and Lemma 5.5 is the fact that makes
//! the paper's k-nearest algorithm work: filtering commutes with tropical
//! exponentiation, `filter(Ā^i) = filter(A^i)`.
//!
//! [`FilteredMatrix`] stores rows sparsely (`(col, val)` sorted by
//! `(val, col)`), which is also the on-the-wire format nodes exchange in the
//! Section 5 algorithm.

use cc_graph::sssp::{k_nearest_from_dists, select_k_smallest};
use cc_graph::{DistMatrix, Graph, NodeId, Weight, INF};

/// A row-filtered tropical matrix: row `u` holds at most `k` entries,
/// sorted by `(value, column)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilteredMatrix {
    n: usize,
    k: usize,
    rows: Vec<Vec<(NodeId, Weight)>>,
}

impl FilteredMatrix {
    /// Filters a dense matrix: keep the `k` smallest entries per row, ties
    /// by column.
    pub fn from_dense(a: &DistMatrix, k: usize) -> Self {
        let n = a.n();
        let rows = (0..n).map(|u| k_nearest_from_dists(a.row(u), k)).collect();
        Self { n, k, rows }
    }

    /// Filters the adjacency matrix of `g` directly: row `u` is the `k`
    /// smallest of `{(u, 0)} ∪ {(v, w_uv)}` — note the diagonal zero is
    /// included, matching `N¹_k(u)` (which contains `u` itself).
    pub fn from_graph(g: &Graph, k: usize) -> Self {
        let n = g.n();
        let rows = (0..n)
            .map(|u| {
                let entries = std::iter::once((u, 0)).chain(g.neighbors(u));
                select_k_smallest(entries, k)
            })
            .collect();
        Self { n, k, rows }
    }

    /// Builds from explicit rows (each row is sorted and truncated to `k`;
    /// a row must not repeat a column).
    pub fn from_rows(n: usize, k: usize, rows: Vec<Vec<(NodeId, Weight)>>) -> Self {
        assert_eq!(rows.len(), n);
        let rows = rows.into_iter().map(|r| select_k_smallest(r, k)).collect();
        Self { n, k, rows }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The filtering parameter.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Row `u`: `(col, val)` sorted by `(val, col)`, at most `k` entries.
    pub fn row(&self, u: NodeId) -> &[(NodeId, Weight)] {
        &self.rows[u]
    }

    /// Total number of stored entries.
    pub fn nnz(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// All stored entries as arcs `(row, col, val)`, rows in order.
    pub fn arcs(&self) -> impl Iterator<Item = (NodeId, NodeId, Weight)> + '_ {
        self.rows
            .iter()
            .enumerate()
            .flat_map(|(u, row)| row.iter().map(move |&(v, w)| (u, v, w)))
    }

    /// Densifies (missing entries become `∞`; note the dense result does not
    /// re-add a zero diagonal — a filtered row only contains its diagonal if
    /// it survived filtering, which it always does since `(0, u)` sorts
    /// first among nonnegative entries of row `u`).
    pub fn to_dense(&self) -> DistMatrix {
        let mut a = DistMatrix::from_raw(self.n, vec![INF; self.n * self.n]);
        for (u, v, w) in self.arcs() {
            a.set(u, v, w);
        }
        a
    }
}

/// Reference implementation of the Section 5 target: `filter_k(A^h)`, the
/// `k` smallest h-hop distances per row, computed densely.
pub fn filtered_power_reference(a: &DistMatrix, k: usize, h: u64) -> FilteredMatrix {
    FilteredMatrix::from_dense(&crate::dense::power(a, h), k)
}

/// One square-and-filter step through the kernel engine:
/// `filter_k(F ⋆ F)` for a filtered matrix `F`.
///
/// This is the step the engine is built for: a filtered matrix is `k`-sparse
/// per row, so the rows feed the engine's sparse entry point directly —
/// `O(n·k²)`-ish work with **no** dense `n²` materialization on the sparse
/// path (the engine only densifies if its dispatch decides the operands
/// warrant a dense kernel). By Lemma 5.5, re-filtering between squarings
/// preserves the k-nearest semantics: `filter((filter(A^c))²) = filter(A^(2c))`.
pub fn filtered_square(
    f: &FilteredMatrix,
    mode: crate::engine::KernelMode,
    exec: cc_par::ExecPolicy,
) -> FilteredMatrix {
    let n = f.n();
    let s = crate::sparse::SparseMatrix::from_rows(n, (0..n).map(|u| f.row(u).to_vec()).collect());
    let (product, _choice) = crate::engine::sparse_product_planned(&s, &s, None, mode, exec);
    FilteredMatrix::from_rows(
        n,
        f.k(),
        (0..n).map(|u| product.matrix.row(u).to_vec()).collect(),
    )
}

/// `filter_k(A^(2^squarings))` for a filtered start matrix `Ā = filter_k(A)`
/// by iterated [`filtered_square`] — the centralized doubling engine
/// (`cc_baselines::doubling` runs the same recurrence through the simulated
/// clique; this is its local counterpart for serving and benchmarks).
pub fn filtered_power_engine(
    abar: &FilteredMatrix,
    squarings: usize,
    mode: crate::engine::KernelMode,
    exec: cc_par::ExecPolicy,
) -> FilteredMatrix {
    let mut cur = abar.clone();
    for _ in 0..squarings {
        cur = filtered_square(&cur, mode, exec);
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{adjacency_matrix, power};
    use cc_graph::graph::Direction;
    use rand::{Rng, SeedableRng};

    fn random_digraph(n: usize, p: f64, seed: u64) -> Graph {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for u in 0..n {
            for v in 0..n {
                if u != v && rng.gen_bool(p) {
                    edges.push((u, v, rng.gen_range(1..30)));
                }
            }
        }
        Graph::from_edges(n, Direction::Directed, &edges)
    }

    #[test]
    fn from_graph_includes_diagonal_zero() {
        let g = Graph::from_edges(3, Direction::Directed, &[(0, 1, 5)]);
        let f = FilteredMatrix::from_graph(&g, 2);
        assert_eq!(f.row(0), &[(0, 0), (1, 5)]);
        assert_eq!(f.row(2), &[(2, 0)]);
    }

    /// Sparse entries do not arrive in column order, so ties must be
    /// broken on the full `(val, col)` pair, not on arrival.
    #[test]
    fn select_k_smallest_breaks_ties_on_the_full_pair() {
        let entries = vec![(3, 5), (1, 5), (4, 2), (2, 7), (0, 5)];
        assert_eq!(select_k_smallest(entries, 3), vec![(4, 2), (0, 5), (1, 5)]);
    }

    #[test]
    fn select_k_smallest_drops_inf() {
        let entries = vec![(0, INF), (1, 3)];
        assert_eq!(select_k_smallest(entries, 5), vec![(1, 3)]);
    }

    #[test]
    fn from_dense_matches_from_graph() {
        let g = random_digraph(15, 0.3, 7);
        let a = adjacency_matrix(&g);
        assert_eq!(
            FilteredMatrix::from_dense(&a, 4),
            FilteredMatrix::from_graph(&g, 4)
        );
    }

    /// Lemma 5.5: `filter(Ā^i) = filter(A^i)` — filtering the graph first and
    /// exponentiating gives the same k-nearest rows as exponentiating the
    /// full matrix.
    #[test]
    fn lemma_5_5_filtered_power_commutes() {
        for seed in 0..8 {
            let n = 14;
            let k = 4;
            let g = random_digraph(n, 0.35, seed);
            let a = adjacency_matrix(&g);
            for h in [2u64, 3] {
                let full = filtered_power_reference(&a, k, h);
                let abar = FilteredMatrix::from_graph(&g, k).to_dense();
                let filtered_then_power = FilteredMatrix::from_dense(&power(&abar, h), k);
                assert_eq!(full, filtered_then_power, "seed={seed} h={h}");
            }
        }
    }

    /// The engine-backed square-and-filter matches the dense reference for
    /// every kernel mode (Lemma 5.5 + engine bit-identity).
    #[test]
    fn filtered_power_engine_matches_reference() {
        use crate::engine::KernelMode;
        for seed in 0..4 {
            let g = random_digraph(16, 0.3, seed + 30);
            let k = 4;
            let a = adjacency_matrix(&g);
            let abar = FilteredMatrix::from_graph(&g, k);
            for squarings in [0usize, 1, 2, 3] {
                let reference = filtered_power_reference(&a, k, 1u64 << squarings);
                for mode in [KernelMode::Auto, KernelMode::Dense, KernelMode::Sparse] {
                    let out =
                        filtered_power_engine(&abar, squarings, mode, cc_par::ExecPolicy::Seq);
                    assert_eq!(
                        out, reference,
                        "seed={seed} squarings={squarings} mode={mode}"
                    );
                }
            }
        }
    }

    #[test]
    fn to_dense_round_trips() {
        let g = random_digraph(10, 0.4, 3);
        let f = FilteredMatrix::from_graph(&g, 3);
        let back = FilteredMatrix::from_dense(&f.to_dense(), 3);
        assert_eq!(f, back);
    }

    #[test]
    fn nnz_bounded_by_nk() {
        let g = random_digraph(20, 0.5, 11);
        let f = FilteredMatrix::from_graph(&g, 5);
        assert!(f.nnz() <= 20 * 5);
    }
}
