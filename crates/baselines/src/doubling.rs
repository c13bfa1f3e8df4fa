//! The doubling k-nearest baseline (\[CDKL21\]-flavour).
//!
//! Computes k-nearest sets by repeatedly *squaring* the filtered matrix
//! (`Ā → filter(Ā²) → filter(Ā⁴) → …`) — i.e. the paper's Lemma 5.2 engine
//! pinned to `h = 2`, which needs `⌈log₂ β⌉` iterations to cover β hops.
//! The paper's Section 5 contribution is covering `h^i` hops in `i` rounds
//! for larger `h`; experiment E5 compares the two on identical inputs.
//!
//! To keep the comparison apples-to-apples, the baseline runs through the
//! **same** distributed bins machinery (`cc_apsp::knearest`) with `h = 2`,
//! so both sides are charged identically per iteration and the difference
//! is purely the iteration count — exactly the quantity the paper improves.

use cc_graph::Graph;
use cc_matrix::engine::KernelMode;
use cc_matrix::filtered::{filtered_power_engine, FilteredMatrix};
use cc_par::ExecPolicy;
use clique_sim::Clique;

/// Filtered-squaring k-nearest: covers `hop_target` hops with
/// `⌈log₂ hop_target⌉` squarings, each one round-charged like a Lemma 5.1
/// application at `h = 2`.
pub fn doubling_k_nearest(
    clique: &mut Clique,
    g: &Graph,
    k: usize,
    hop_target: usize,
) -> FilteredMatrix {
    clique.phase("doubling-knearest", |clique| {
        let start = FilteredMatrix::from_graph(g, k);
        cc_apsp::knearest::iterated(clique, &start, 2, doubling_iterations(hop_target))
    })
}

/// The same filtered-squaring recurrence run **locally** through the kernel
/// engine (no clique, no round charges): `⌈log₂ hop_target⌉` engine-backed
/// square-and-filter steps. A filtered matrix is `k`-sparse per row, so the
/// engine's auto-dispatch runs these on the sparse kernel; bounded-weight
/// instances use a compact dense kernel when a step fills in. Bit-identical
/// to [`doubling_k_nearest`]'s output (property: the distributed bins
/// machinery computes exactly `filter_k(Ā²)` per step — Lemma 5.4).
pub fn doubling_k_nearest_central(
    g: &Graph,
    k: usize,
    hop_target: usize,
    kernel: KernelMode,
    exec: ExecPolicy,
) -> FilteredMatrix {
    let _sp = cc_obs::span("doubling-knearest-central");
    let start = FilteredMatrix::from_graph(g, k);
    filtered_power_engine(&start, doubling_iterations(hop_target), kernel, exec)
}

/// Number of squarings the baseline needs for `hop_target` hops.
pub fn doubling_iterations(hop_target: usize) -> usize {
    let mut covered = 1usize;
    let mut iters = 0;
    while covered < hop_target {
        covered = covered.saturating_mul(2);
        iters += 1;
    }
    iters
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::{generators, sssp};
    use clique_sim::Bandwidth;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn doubling_matches_exact_k_nearest_when_hops_suffice() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = generators::gnp_connected(50, 0.1, 1..=20, &mut rng);
        let k = 6;
        let mut clique = Clique::new(g.n(), Bandwidth::standard(g.n()));
        let out = doubling_k_nearest(&mut clique, &g, k, k.next_power_of_two());
        for u in 0..g.n() {
            assert_eq!(out.row(u), &sssp::k_nearest(&g, u, k)[..], "node {u}");
        }
    }

    #[test]
    fn central_engine_doubling_matches_clique_doubling() {
        let mut rng = StdRng::seed_from_u64(21);
        let g = generators::gnp_connected(48, 0.12, 1..=15, &mut rng);
        let (k, hop_target) = (5, 8);
        let mut clique = Clique::new(g.n(), Bandwidth::standard(g.n()));
        let distributed = doubling_k_nearest(&mut clique, &g, k, hop_target);
        for kernel in [KernelMode::Auto, KernelMode::Dense, KernelMode::Sparse] {
            let central = doubling_k_nearest_central(&g, k, hop_target, kernel, ExecPolicy::Seq);
            assert_eq!(central, distributed, "kernel={kernel}");
        }
    }

    #[test]
    fn doubling_iteration_count_is_log() {
        assert_eq!(doubling_iterations(1), 0);
        assert_eq!(doubling_iterations(2), 1);
        assert_eq!(doubling_iterations(8), 3);
        assert_eq!(doubling_iterations(9), 4);
    }

    #[test]
    fn doubling_agrees_with_paper_algorithm() {
        // Same inputs, same outputs — only round counts differ.
        let mut rng = StdRng::seed_from_u64(9);
        let g = generators::gnp_connected(40, 0.15, 1..=10, &mut rng);
        let k = 5;
        let mut c1 = Clique::new(g.n(), Bandwidth::standard(g.n()));
        let mut c2 = Clique::new(g.n(), Bandwidth::standard(g.n()));
        let ours = cc_apsp::knearest::k_nearest_exact(&mut c1, &g, k, 2, 3);
        let baseline = doubling_k_nearest(&mut c2, &g, k, 8);
        assert_eq!(ours, baseline);
    }

    #[test]
    fn larger_h_halves_iterations_at_comparable_rounds() {
        // The paper's point is the *iteration count*: h = 3 covers 9 hops in
        // 2 iterations where doubling needs 4. Per-iteration loads shift
        // with h (bins get larger), so at finite n the total rounds are
        // comparable; the iteration count is what turns into the
        // O(log log n) → O(log log log n) improvement asymptotically.
        let mut rng = StdRng::seed_from_u64(11);
        let g = generators::gnp_connected(256, 0.04, 1..=10, &mut rng);
        let k = 6; // ≤ 256^(1/3)
        let mut ours_clique = Clique::new(g.n(), Bandwidth::standard(g.n()));
        let ours = cc_apsp::knearest::k_nearest_exact(&mut ours_clique, &g, k, 3, 2);
        let mut base_clique = Clique::new(g.n(), Bandwidth::standard(g.n()));
        let base = doubling_k_nearest(&mut base_clique, &g, k, 9);
        assert_eq!(ours, base);
        assert_eq!(doubling_iterations(9), 4); // vs our 2
        assert!(
            ours_clique.rounds() <= 2 * base_clique.rounds(),
            "ours {} vs doubling {}",
            ours_clique.rounds(),
            base_clique.rounds()
        );
    }
}
