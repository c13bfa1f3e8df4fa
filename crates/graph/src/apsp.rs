//! Exact all-pairs shortest paths (ground truth).

use crate::sssp::{dijkstra_into, DijkstraScratch};
use crate::{wadd, DistMatrix, Graph, INF};
use cc_par::ExecPolicy;

/// Exact APSP via Dijkstra from every source, under the `CC_THREADS`
/// execution default ([`ExecPolicy::from_env`]); see [`exact_apsp_with`].
///
/// This is the ground truth all experiments compare against. Runs in
/// `O(n · m log n)` time centrally (it is *not* a Congested Clique algorithm;
/// the simulated baselines live in `cc-baselines`).
pub fn exact_apsp(g: &Graph) -> DistMatrix {
    exact_apsp_with(g, ExecPolicy::from_env())
}

/// [`exact_apsp`] under an explicit [`ExecPolicy`]: the per-source Dijkstras
/// are independent, so rows are computed in parallel row blocks. Output is
/// bit-identical for every policy.
///
/// Each worker writes the Dijkstra distances straight into its output rows
/// and reuses one [`DijkstraScratch`] heap across all sources in its block,
/// so the per-source allocation cost is amortized away.
pub fn exact_apsp_with(g: &Graph, exec: ExecPolicy) -> DistMatrix {
    let n = g.n();
    let _sp = cc_obs::span("exact-apsp");
    let rows_per_block = exec.row_block_len(n, 1);
    let mut data = vec![INF; n * n];
    exec.for_each_chunk_mut(&mut data, rows_per_block * n.max(1), |block, chunk| {
        let mut scratch = DijkstraScratch::new();
        for (off, row) in chunk.chunks_mut(n).enumerate() {
            let s = block * rows_per_block + off;
            dijkstra_into(g, s, row, &mut scratch);
        }
    });
    DistMatrix::from_raw(n, data)
}

/// Exact distance rows for a subset of sources: `result[i]` is the
/// Dijkstra row of `sources[i]` on `g`, computed in parallel shards. This
/// is the per-source repair kernel of the dynamic update engine
/// (`cc_dynamic`): each row is exactly the row [`exact_apsp_with`] would
/// produce, so patching rows into an existing exact matrix is
/// bit-identical to a full recomputation.
pub fn exact_rows_with(g: &Graph, sources: &[usize], exec: ExecPolicy) -> Vec<Vec<crate::Weight>> {
    let n = g.n();
    let mut sp = cc_obs::span("exact-rows");
    sp.attr("rows", sources.len() as f64);
    exec.map_shards_collect(sources.len(), |range| {
        let mut scratch = DijkstraScratch::new();
        range
            .map(|i| {
                let mut row = vec![INF; n];
                dijkstra_into(g, sources[i], &mut row, &mut scratch);
                row
            })
            .collect()
    })
}

/// Exact APSP via Floyd–Warshall. `O(n³)`; used to cross-check
/// [`exact_apsp`] on small graphs.
pub fn floyd_warshall(g: &Graph) -> DistMatrix {
    let n = g.n();
    let mut m = DistMatrix::infinite(n);
    for (u, v, w) in g.all_arcs() {
        m.relax(u, v, w);
    }
    for k in 0..n {
        for u in 0..n {
            let duk = m.get(u, k);
            if duk >= INF {
                continue;
            }
            for v in 0..n {
                let nd = wadd(duk, m.get(k, v));
                m.relax(u, v, nd);
            }
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Direction;

    #[test]
    fn dijkstra_and_floyd_agree() {
        let g = Graph::from_edges(
            5,
            Direction::Undirected,
            &[
                (0, 1, 3),
                (1, 2, 1),
                (2, 3, 7),
                (3, 4, 2),
                (0, 4, 20),
                (1, 3, 5),
            ],
        );
        assert_eq!(exact_apsp(&g), floyd_warshall(&g));
    }

    #[test]
    fn directed_apsp_is_asymmetric() {
        let g = Graph::from_edges(3, Direction::Directed, &[(0, 1, 1), (1, 2, 1)]);
        let m = exact_apsp(&g);
        assert_eq!(m.get(0, 2), 2);
        assert_eq!(m.get(2, 0), INF);
    }

    #[test]
    fn exact_rows_match_full_apsp() {
        let g = Graph::from_edges(
            6,
            Direction::Undirected,
            &[(0, 1, 2), (1, 2, 3), (2, 3, 1), (3, 4, 4), (0, 5, 9)],
        );
        let full = exact_apsp(&g);
        for exec in [ExecPolicy::Seq, ExecPolicy::with_threads(3)] {
            let rows = exact_rows_with(&g, &[4, 0, 2], exec);
            assert_eq!(rows.len(), 3);
            assert_eq!(rows[0], full.row(4));
            assert_eq!(rows[1], full.row(0));
            assert_eq!(rows[2], full.row(2));
        }
        assert!(exact_rows_with(&g, &[], ExecPolicy::Seq).is_empty());
    }

    #[test]
    fn disconnected_pairs_are_inf() {
        let g = Graph::from_edges(4, Direction::Undirected, &[(0, 1, 1), (2, 3, 1)]);
        let m = exact_apsp(&g);
        assert_eq!(m.get(0, 3), INF);
        assert_eq!(m.get(2, 3), 1);
    }
}
