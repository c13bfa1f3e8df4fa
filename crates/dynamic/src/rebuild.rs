//! Pipeline re-entry: run any of the suite's named algorithms over a graph.
//!
//! This is the dispatch table the `ccapsp` CLI used to own; it lives here so
//! the dynamic engine's rebuilds, the CLI, and the benches all share one
//! definition of what `--algo thm11` (etc.) means. An
//! [`IncrementalOracle`](crate::incremental::IncrementalOracle) holding an
//! approximate estimate re-enters the same pipeline (same algorithm, same
//! seed, same exec/kernel config) on every batch, which is what makes its
//! rebuilt estimate identical to a fresh run on the new graph.

use cc_apsp::pipeline::{approximate_apsp, apsp_large_bandwidth, PipelineConfig};
use cc_apsp::smalldiam::{small_diameter_apsp, SmallDiamConfig};
use cc_baselines::{exact as exact_baseline, spanner_only};
use cc_graph::{DistMatrix, Graph};
use cc_matrix::engine::KernelMode;
use cc_par::ExecPolicy;
use clique_sim::{Bandwidth, Clique};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::update::UpdateError;

/// The algorithm names [`run_algorithm`] accepts, for usage strings.
pub const ALGORITHMS: &str = "thm11|thm81|smalldiam|thm71|spanner|exact";

/// Runs one named algorithm over `g`, returning
/// `(estimate, stretch bound, simulated rounds)`.
///
/// Algorithms: `thm11` (Theorem 1.1), `thm81` (Theorem 8.1 on CC\[log⁴n\]),
/// `smalldiam` (Theorem 7.1; `thm71` is an alias), `spanner` (the O(log n)
/// baseline), `exact`
/// (min-plus squaring baseline). Deterministic per `(algo, seed)`; `exec`
/// and `kernel` only move wall-clock time.
///
/// # Errors
///
/// [`UpdateError::UnknownAlgorithm`] for a name outside the table.
pub fn run_algorithm(
    g: &Graph,
    algo: &str,
    seed: u64,
    exec: ExecPolicy,
    kernel: KernelMode,
) -> Result<(DistMatrix, f64, u64), UpdateError> {
    let cfg = PipelineConfig {
        seed,
        exec,
        kernel,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let n = g.n();
    Ok(match algo {
        "thm11" => {
            let r = approximate_apsp(g, &cfg);
            (r.estimate, r.stretch_bound, r.rounds)
        }
        "thm81" => {
            let mut clique = Clique::new(n, Bandwidth::polylog(4, n));
            let (est, bound) = apsp_large_bandwidth(&mut clique, g, &cfg, &mut rng);
            (est, bound, clique.rounds())
        }
        // `thm71` is an alias: `smalldiam` *is* the paper's Theorem 7.1.
        "smalldiam" | "thm71" => {
            let mut clique = Clique::new(n, Bandwidth::standard(n));
            let sd_cfg = SmallDiamConfig {
                exec,
                kernel,
                ..Default::default()
            };
            let (est, bound) = small_diameter_apsp(&mut clique, g, &sd_cfg, &mut rng);
            (est, bound, clique.rounds())
        }
        "spanner" => {
            let mut clique = Clique::new(n, Bandwidth::standard(n));
            let (est, bound) = spanner_only::spanner_only_apsp_with(&mut clique, g, &mut rng, exec);
            (est, bound, clique.rounds())
        }
        "exact" => {
            let mut clique = Clique::new(n, Bandwidth::standard(n));
            let est = exact_baseline::exact_apsp_squaring_kernel(&mut clique, g, exec, kernel);
            (est, 1.0, clique.rounds())
        }
        other => return Err(UpdateError::UnknownAlgorithm(other.to_string())),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::{apsp, generators};

    #[test]
    fn exact_matches_ground_truth_and_unknown_errors() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::gnp_connected(20, 0.2, 1..=9, &mut rng);
        let (est, bound, _rounds) =
            run_algorithm(&g, "exact", 1, ExecPolicy::Seq, KernelMode::Auto).expect("exact runs");
        assert_eq!(est, apsp::exact_apsp(&g));
        assert_eq!(bound, 1.0);
        assert!(matches!(
            run_algorithm(&g, "nope", 1, ExecPolicy::Seq, KernelMode::Auto),
            Err(UpdateError::UnknownAlgorithm(_))
        ));
    }

    #[test]
    fn every_named_algorithm_runs_and_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::gnp_connected(18, 0.25, 1..=7, &mut rng);
        for algo in ["thm11", "thm81", "smalldiam", "spanner", "exact"] {
            let a = run_algorithm(&g, algo, 9, ExecPolicy::Seq, KernelMode::Auto).unwrap();
            let b = run_algorithm(&g, algo, 9, ExecPolicy::Seq, KernelMode::Auto).unwrap();
            assert_eq!(a.0, b.0, "{algo} estimate deterministic");
            assert_eq!(a.2, b.2, "{algo} rounds deterministic");
        }
    }
}
