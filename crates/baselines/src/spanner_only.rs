//! The `O(1)`-round / `O(log n)`-approximation baseline ([DFKL21; CZ22]).
//!
//! Build one `(2k−1)`-spanner with `k = Θ(log n)` so the spanner has `O(n)`
//! edges, broadcast it, and let every node answer from the spanner's
//! distances. This was the state of the art for constant-round APSP before
//! the paper; its approximation is stuck at `Ω(log n)` because of the
//! spanner size/stretch tradeoff (Section 1.1).

use cc_apsp::spanner::{bootstrap_k, spanner_apsp_estimate_with};
use cc_graph::{DistMatrix, Graph};
use cc_par::ExecPolicy;
use clique_sim::Clique;
use rand::rngs::StdRng;

/// Runs the spanner-only baseline; returns `(estimate, stretch bound)`.
pub fn spanner_only_apsp(clique: &mut Clique, g: &Graph, rng: &mut StdRng) -> (DistMatrix, f64) {
    spanner_only_apsp_with(clique, g, rng, ExecPolicy::from_env())
}

/// [`spanner_only_apsp`] under an explicit [`ExecPolicy`].
pub fn spanner_only_apsp_with(
    clique: &mut Clique,
    g: &Graph,
    rng: &mut StdRng,
    exec: ExecPolicy,
) -> (DistMatrix, f64) {
    let est = spanner_apsp_estimate_with(clique, g, bootstrap_k(g.n()), rng, exec);
    (est.estimate, est.stretch_bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::{apsp, generators, log2_ceil};
    use clique_sim::Bandwidth;
    use rand::SeedableRng;

    #[test]
    fn baseline_is_valid_and_log_bounded() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = generators::gnp_connected(90, 0.08, 1..=30, &mut rng);
        let mut clique = Clique::new(g.n(), Bandwidth::standard(g.n()));
        let (est, bound) = spanner_only_apsp(&mut clique, &g, &mut rng);
        assert!(bound <= log2_ceil(g.n()) as f64);
        let stats = est.stretch_vs(&apsp::exact_apsp(&g));
        assert!(stats.is_valid_approximation(bound), "{stats}");
    }

    #[test]
    fn baseline_uses_few_rounds() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::gnp_connected(128, 0.06, 1..=10, &mut rng);
        let mut clique = Clique::new(g.n(), Bandwidth::standard(g.n()));
        spanner_only_apsp(&mut clique, &g, &mut rng);
        // construction (3) + broadcast of an O(n)-edge spanner (the
        // Baswana–Sen size constant drives the broadcast; see the
        // `cc_apsp::spanner` module doc on the CZ22 substitution).
        assert!(clique.rounds() <= 32, "rounds = {}", clique.rounds());
    }
}
