//! Exact APSP by tropical matrix squaring (the algebraic baseline).
//!
//! `A^(2^i)` after `i` squarings; `⌈log₂(n−1)⌉` squarings give the distance
//! matrix. Each dense `n × n` min-plus product costs `Θ(n^(1/3))` rounds in
//! the Congested Clique (\[CKK+19\]); we charge
//! `max(1, ⌈n^(1/3)⌉)` per squaring, labeled with the citation. This is the
//! "polynomial number of rounds" regime the paper's introduction contrasts
//! against.

use cc_graph::{DistMatrix, Graph};
use cc_matrix::dense;
use cc_matrix::engine::{self, KernelMode};
use cc_par::ExecPolicy;
use clique_sim::Clique;

/// Rounds charged per dense min-plus product: `⌈n^(1/3)⌉` (\[CKK+19\]'s
/// `O(n^(1/3))` semiring matrix multiplication; the paper's Section 1.1).
pub fn product_rounds(n: usize) -> u64 {
    (n as f64).cbrt().ceil() as u64
}

/// Exact APSP by repeated squaring, with round charges per squaring, under
/// the `CC_THREADS` execution and `CC_KERNEL` dispatch defaults.
/// Returns the exact distance matrix.
pub fn exact_apsp_squaring(clique: &mut Clique, g: &Graph) -> DistMatrix {
    exact_apsp_squaring_kernel(clique, g, ExecPolicy::from_env(), KernelMode::from_env())
}

/// [`exact_apsp_squaring`] under an explicit [`ExecPolicy`] for the local
/// min-plus squarings and an explicit [`KernelMode`]: every squaring runs
/// through the kernel engine's self-product path ([`engine::square`]),
/// which re-plans per multiply — the first squarings of an adjacency matrix
/// dispatch sparse, the later (filled-in) ones to the dense lane kernel at
/// the narrowest width the entries permit. Each squaring opens one
/// `square[<kernel>]` span under the `exact-squaring` phase. Output and
/// round charges are bit-identical across modes.
pub fn exact_apsp_squaring_kernel(
    clique: &mut Clique,
    g: &Graph,
    exec: ExecPolicy,
    kernel: KernelMode,
) -> DistMatrix {
    clique.phase("exact-squaring", |clique| {
        let mut cur = dense::adjacency_matrix(g);
        let per_product = product_rounds(g.n());
        loop {
            let next = engine::square(&cur, kernel, exec);
            clique.charge("minplus-square (CKK+19 n^(1/3))", per_product);
            if next == cur {
                return next;
            }
            cur = next;
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::{apsp, generators, log2_ceil};
    use clique_sim::Bandwidth;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn squaring_matches_dijkstra() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::gnp_connected(40, 0.15, 1..=25, &mut rng);
        let mut clique = Clique::new(g.n(), Bandwidth::standard(g.n()));
        let m = exact_apsp_squaring(&mut clique, &g);
        assert_eq!(m, apsp::exact_apsp(&g));
    }

    #[test]
    fn rounds_scale_with_n_to_the_third_times_log() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = generators::gnp_connected(64, 0.1, 1..=9, &mut rng);
        let mut clique = Clique::new(g.n(), Bandwidth::standard(g.n()));
        exact_apsp_squaring(&mut clique, &g);
        let per = product_rounds(64);
        let max_squarings = (log2_ceil(64) + 2) as u64;
        assert!(clique.rounds() >= per);
        assert!(
            clique.rounds() <= per * max_squarings,
            "rounds = {}",
            clique.rounds()
        );
    }

    #[test]
    fn disconnected_inputs_keep_inf() {
        let g = Graph::from_edges(
            4,
            cc_graph::graph::Direction::Undirected,
            &[(0, 1, 3), (2, 3, 4)],
        );
        let mut clique = Clique::new(4, Bandwidth::standard(4));
        let m = exact_apsp_squaring(&mut clique, &g);
        assert!(m.get(0, 2) >= cc_graph::INF);
        assert_eq!(m.get(0, 1), 3);
    }
}
