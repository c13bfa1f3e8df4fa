//! The full APSP pipelines (Sections 8.2–8.4): Theorem 8.1
//! (`Congested-Clique\[log⁴n\]`, `7³+ε`), Theorem 1.1 (standard model,
//! `7⁴+ε`), and Theorem 1.2 (the `O(t)`-round / `O(log^(2^-t) n)`
//! tradeoff).
//!
//! Theorem 8.1 composes every building block:
//!
//! 1. bootstrap an `O(log n)`-approximation δ₀ (Corollary 7.2);
//! 2. build a `√n`-nearest β-hopset from δ₀ and work on `C = G ∪ H`
//!    (Lemma 3.2);
//! 3. weight-scale `C` with `h = β` into `O(log n)` small-diameter graphs
//!    (Lemma 8.1);
//! 4. run Theorem 7.1 on every scale **in parallel** (the `log⁴n` bandwidth
//!    pays for `log n` parallel `log³n`-bandwidth instances — in the
//!    simulator, [`clique_sim::Clique::parallel_exec`] charges any bandwidth
//!    overcommit honestly);
//! 5. combine the per-scale estimates into η (Lemma 8.1), a good
//!    approximation for every pair within β hops of `C` — in particular for
//!    each node's `√n`-nearest sets;
//! 6. build a skeleton graph from η's approximate k-nearest sets (the *full*
//!    Lemma 6.1, `a > 1`), broadcast it, solve it exactly, and extend.
//!
//! Theorem 1.1 prepends a bandwidth-reduction step: compute exact k₀-nearest
//! sets directly (Lemma 5.2 on `G` — every k-nearest node is within `k`
//! hops), reduce to a skeleton of `n/polylog(n)` nodes, and *simulate* the
//! Theorem 8.1 algorithm for that skeleton inside the standard-bandwidth
//! clique (Lemma 2.1 makes the simulation free; the simulator charges it
//! from measured loads).

use cc_graph::graph::Graph;
use cc_graph::{apsp, sssp, DistMatrix};
use cc_par::ExecPolicy;
use clique_sim::{Bandwidth, Clique};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::estimate::ApspResult;
use crate::params::{self, hopset_beta_bound};
use crate::reduction::estimate_diameter;
use crate::scaling::{combine, combined_bound, weight_scaling};
use crate::skeleton::{build_skeleton_kernel, extend_estimate, extension_bound};
use crate::smalldiam::{small_diameter_apsp, SmallDiamConfig};
use crate::spanner::{bootstrap_k, spanner_apsp_estimate_with};
use crate::{hopset, knearest};
use cc_matrix::engine::KernelMode;
use cc_matrix::filtered::FilteredMatrix;

/// Configuration for the APSP pipelines.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// The ε of the final `7⁴+ε` / `7³+ε` guarantees (drives the weight
    /// scaling's rounding slack).
    pub eps: f64,
    /// RNG seed (hitting sets, spanner sampling); runs are deterministic per
    /// seed.
    pub seed: u64,
    /// Reduction policy inside the per-scale Theorem 7.1 instances:
    /// `None` = Theorem 1.1 behaviour; `Some(t)` = the Theorem 1.2
    /// round-limited variant (Lemmas 8.2/8.3).
    pub max_reductions: Option<usize>,
    /// Override for Theorem 1.1's bandwidth-reduction parameter `k₀`
    /// (default: [`params::theorem_1_1_k0`]).
    pub k0: Option<usize>,
    /// Local execution policy for the hot kernels (per-scale Theorem 7.1
    /// instances, per-source Dijkstras, row-blocked products). Affects
    /// wall-clock time only: every output — estimate, bounds, rounds,
    /// ledger — is bit-identical across policies. Defaults to the
    /// `CC_THREADS` environment default ([`ExecPolicy::from_env`]).
    pub exec: ExecPolicy,
    /// Min-plus kernel dispatch for every engine-backed product on the hot
    /// path (skeleton matmuls, per-scale instances). Like [`Self::exec`]
    /// this is wall-clock only — estimates, bounds, rounds, and ledger are
    /// bit-identical across modes. Defaults to the `CC_KERNEL` environment
    /// default ([`KernelMode::from_env`]).
    pub kernel: KernelMode,
    /// Which oracle backend the run's servable artifact should use (the
    /// `--oracle` / `CC_ORACLE` axis). The pipeline's *internal* estimates
    /// are always dense; this selects what snapshot-producing callers
    /// package for serving: the dense matrix itself, or a sublinear
    /// [`crate::landmark::LandmarkSketch`] built straight from the graph.
    /// Defaults to the `CC_ORACLE` environment default
    /// ([`crate::oracle::OracleKind::from_env`]).
    pub oracle: crate::oracle::OracleKind,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            eps: 0.1,
            seed: 0xC11C,
            max_reductions: None,
            k0: None,
            exec: ExecPolicy::from_env(),
            kernel: KernelMode::from_env(),
            oracle: crate::oracle::OracleKind::from_env(),
        }
    }
}

/// Theorem 8.1: APSP approximation with large bandwidth. Run it on a clique
/// whose bandwidth is `Congested-Clique\[log⁴n\]` for the paper's setting; on
/// narrower cliques the parallel step simply charges the overcommit.
///
/// Returns `(estimate, stretch bound)`; the bound is `7³(1+ε)²`-flavored,
/// computed from the components' actual guarantees.
pub fn apsp_large_bandwidth(
    clique: &mut Clique,
    g: &Graph,
    cfg: &PipelineConfig,
    rng: &mut StdRng,
) -> (DistMatrix, f64) {
    let n = g.n();
    clique.phase("theorem-8.1", |clique| {
        if n <= 8 {
            // Degenerate clique: broadcast everything (still O(1) rounds at
            // this size) and solve exactly.
            clique.broadcast_volume("broadcast-tiny-graph", 3 * g.m());
            return (apsp::exact_apsp_with(g, cfg.exec), 1.0);
        }
        // Step 1: bootstrap.
        let boot = spanner_apsp_estimate_with(clique, g, bootstrap_k(n), rng, cfg.exec);
        let delta0 = boot.estimate;
        let a0 = boot.stretch_bound;

        // Step 2: hopset; continue on C = G ∪ H.
        let sqrt_n = ((n as f64).sqrt().floor() as usize).max(2);
        let hs = hopset::build_hopset(clique, g, &delta0, sqrt_n);
        let combined = hs.combined;
        let diam0 = estimate_diameter(&delta0);
        let beta = hopset_beta_bound(a0, diam0) as u64;

        // Step 3: weight scaling with h = β (δ₀ is an a₀ ≤ β approximation).
        let scaled = weight_scaling(&combined, diam0, beta, cfg.eps);

        // Step 4: Theorem 7.1 on each scale, in parallel. Each instance gets
        // an equal share of the clique's actual bandwidth (when the clique is
        // the paper's Congested-Clique[log⁴n] and there are Θ(log n) scales,
        // the share is exactly the log³n-bit budget of Theorem 7.1's second
        // bullet); any overcommit beyond the physical links is charged by
        // the parallel primitive.
        let sd_cfg = SmallDiamConfig {
            forced_reductions: cfg.max_reductions,
            wide_bandwidth: true,
            exec: cfg.exec,
            kernel: cfg.kernel,
        };
        let scale_count = scaled.len();
        let available = clique.bandwidth().words_per_message();
        let per_instance = Bandwidth::words((available / scale_count.max(1)).max(1));
        let mut seeds: Vec<u64> = Vec::new();
        for i in 0..scale_count {
            seeds.push(
                cfg.seed
                    .wrapping_add(0x9E3779B97F4A7C15u64.wrapping_mul(i as u64 + 1)),
            );
        }
        // The instances are also *locally* independent, so `cfg.exec` runs
        // them on worker threads; the sub-ledger merge in scale order keeps
        // the overcommit charging identical to a sequential run.
        let results = clique.parallel_exec(
            "scaled-instances",
            scale_count,
            per_instance,
            cfg.exec,
            |sub, i| {
                let mut inst_rng = StdRng::seed_from_u64(seeds[i]);
                small_diameter_apsp(sub, &scaled.graphs[i], &sd_cfg, &mut inst_rng)
            },
        );
        let l_scale = results.iter().map(|(_, b)| *b).fold(1.0f64, f64::max);
        let delta_gis: Vec<DistMatrix> = results.into_iter().map(|(m, _)| m).collect();

        // Step 5: combine into η; valid (1+ε)·l for ≤β-hop pairs of C —
        // which covers each node's √n-nearest sets by the hopset guarantee.
        let eta = combine(&scaled, &delta_gis, &delta0);
        let a_eta = combined_bound(l_scale, cfg.eps);

        // Step 6: skeleton from η's approximate √n-nearest sets (full
        // Lemma 6.1 with a = a_eta), exact APSP on the broadcast skeleton.
        let tilde_rows: Vec<Vec<(usize, u64)>> = cfg
            .exec
            .map_collect(n, |u| sssp::k_nearest_from_dists(eta.row(u), sqrt_n));
        let tilde = FilteredMatrix::from_rows(n, sqrt_n, tilde_rows);
        let sk = build_skeleton_kernel(clique, &combined, &tilde, rng, cfg.exec, cfg.kernel);
        clique.broadcast_volume("broadcast-final-skeleton", 3 * sk.graph.m());
        let delta_gs = apsp::exact_apsp_with(&sk.graph, cfg.exec);
        let eta_final = extend_estimate(clique, &sk, &tilde, &delta_gs);
        (eta_final, extension_bound(1.0, a_eta))
    })
}

/// Theorem 1.1: `(7⁴+ε)`-approximate APSP in the standard Congested Clique.
/// Returns `(estimate, stretch bound)`.
pub fn theorem_1_1(
    clique: &mut Clique,
    g: &Graph,
    cfg: &PipelineConfig,
    rng: &mut StdRng,
) -> (DistMatrix, f64) {
    let n = g.n();
    clique.phase("theorem-1.1", |clique| {
        if n <= 8 {
            clique.broadcast_volume("broadcast-tiny-graph", 3 * g.m());
            return (apsp::exact_apsp_with(g, cfg.exec), 1.0);
        }
        // Step 1: exact k₀-nearest sets directly on G (Lemma 5.2; every
        // k-nearest node is within k hops, so h^i ≥ k₀ suffices).
        let k0 = cfg
            .k0
            .unwrap_or_else(|| params::theorem_1_1_k0(n))
            .clamp(2, n);
        let (h, i) = params::direct_knearest_h_i(n, k0);
        let rows = knearest::k_nearest_exact(clique, g, k0, h, i);

        // Step 2: bandwidth-reduction skeleton (Lemma 3.4, a = 1).
        let sk = build_skeleton_kernel(clique, g, &rows, rng, cfg.exec, cfg.kernel);
        let ns = sk.size();

        // Step 3: simulate the Theorem 8.1 algorithm for the skeleton graph
        // inside this clique (Lemma 2.1). The child clique gets the widest
        // bandwidth the host can simulate at no extra cost:
        // f = ⌊n / ns⌋ words (≈ the paper's log⁴n budget when
        // ns = n/polylog n). Every child round then costs the host
        // `rounds_for_load(ns·f)` rounds.
        let (delta_gs, l) = if ns <= 8 {
            clique.broadcast_volume("broadcast-tiny-skeleton", 3 * sk.graph.m());
            (apsp::exact_apsp_with(&sk.graph, cfg.exec), 1.0)
        } else {
            let f_child = (n / ns).max(1);
            let mut child = Clique::new(ns, Bandwidth::words(f_child));
            let out = apsp_large_bandwidth(&mut child, &sk.graph, cfg, rng);
            let per_round = clique.rounds_for_load(ns * f_child).max(1);
            clique.charge(
                "simulate-skeleton-clique (Lemma 2.1)",
                child.rounds().saturating_mul(per_round),
            );
            out
        };

        // Step 4: extend back to G: 7·l with l = 7³(1+ε)²-flavored.
        let eta = extend_estimate(clique, &sk, &rows, &delta_gs);
        (eta, extension_bound(l, 1.0))
    })
}

/// Theorem 1.1 as a one-call API: runs on a fresh standard-bandwidth clique
/// and returns the packaged [`ApspResult`].
pub fn approximate_apsp(g: &Graph, cfg: &PipelineConfig) -> ApspResult {
    let mut sp = cc_obs::span("pipeline");
    sp.attr("n", g.n() as f64);
    let mut clique = Clique::new(g.n().max(1), Bandwidth::standard(g.n().max(1)));
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let (estimate, bound) = theorem_1_1(&mut clique, g, cfg, &mut rng);
    sp.attr("rounds", clique.rounds() as f64);
    ApspResult::from_run(estimate, bound, &clique)
}

/// Theorem 1.2: the round/approximation tradeoff — the Theorem 1.1 pipeline
/// with the per-scale instances limited to `t` factor reductions
/// (Lemmas 8.2/8.3). Larger `t` buys a better approximation for `O(t)`
/// rounds.
///
/// The paper's bound at parameter `t` is `O(log^(2^-t) n)`
/// ([`params::tradeoff_bound`]); the returned
/// [`ApspResult::stretch_bound`] is the run's actual composed guarantee.
pub fn apsp_tradeoff(g: &Graph, t: usize, cfg: &PipelineConfig) -> ApspResult {
    let cfg = PipelineConfig {
        max_reductions: Some(t),
        ..cfg.clone()
    };
    approximate_apsp(g, &cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::generators;
    use clique_sim::Bandwidth;

    #[test]
    fn theorem_8_1_bound_holds() {
        for seed in [2u64, 11] {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::gnp_connected(60, 0.12, 1..=40, &mut rng);
            let mut clique = Clique::new(g.n(), Bandwidth::polylog(4, g.n()));
            let cfg = PipelineConfig::default();
            let (est, bound) = apsp_large_bandwidth(&mut clique, &g, &cfg, &mut rng);
            assert!(
                bound <= 343.0 * (1.0 + cfg.eps).powi(3) + 1e-6,
                "bound = {bound}"
            );
            let exact = apsp::exact_apsp(&g);
            let stats = est.stretch_vs(&exact);
            assert!(stats.is_valid_approximation(bound), "seed={seed}: {stats}");
        }
    }

    #[test]
    fn theorem_1_1_bound_holds() {
        for seed in [3u64, 7] {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::gnp_connected(80, 0.09, 1..=30, &mut rng);
            let cfg = PipelineConfig {
                seed,
                ..Default::default()
            };
            let result = approximate_apsp(&g, &cfg);
            assert!(
                result.stretch_bound <= 2401.0 * (1.0 + cfg.eps).powi(3) + 1e-6,
                "bound = {}",
                result.stretch_bound
            );
            let exact = apsp::exact_apsp(&g);
            let stats = result.estimate.stretch_vs(&exact);
            assert!(
                stats.is_valid_approximation(result.stretch_bound),
                "seed={seed}: {stats}"
            );
        }
    }

    #[test]
    fn theorem_1_1_works_on_wide_weights() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::wide_weight_gnp(64, 0.12, 14, &mut rng);
        let result = approximate_apsp(
            &g,
            &PipelineConfig {
                seed: 5,
                ..Default::default()
            },
        );
        let exact = apsp::exact_apsp(&g);
        let stats = result.estimate.stretch_vs(&exact);
        assert!(
            stats.is_valid_approximation(result.stretch_bound),
            "{stats}"
        );
    }

    #[test]
    fn tradeoff_larger_t_never_worse_bound() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = generators::gnp_connected(50, 0.15, 1..=20, &mut rng);
        let cfg = PipelineConfig {
            seed: 9,
            ..Default::default()
        };
        let exact = apsp::exact_apsp(&g);
        for t in [1usize, 2] {
            let result = apsp_tradeoff(&g, t, &cfg);
            let stats = result.estimate.stretch_vs(&exact);
            assert!(
                stats.is_valid_approximation(result.stretch_bound),
                "t={t}: {stats}"
            );
        }
    }

    #[test]
    fn tiny_graph_fast_path_is_exact() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::complete_graph(5, 1..=9, &mut rng);
        let result = approximate_apsp(&g, &PipelineConfig::default());
        assert_eq!(result.estimate, apsp::exact_apsp(&g));
        assert_eq!(result.stretch_bound, 1.0);
    }

    #[test]
    fn disconnected_graphs_keep_inf_pairs() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut b = cc_graph::GraphBuilder::undirected(40);
        // Two disjoint G(20, .) blobs.
        let g1 = generators::gnp_connected(20, 0.2, 1..=9, &mut rng);
        let g2 = generators::gnp_connected(20, 0.2, 1..=9, &mut rng);
        for (u, v, w) in g1.edges() {
            b.add_edge(u, v, w);
        }
        for (u, v, w) in g2.edges() {
            b.add_edge(u + 20, v + 20, w);
        }
        let g = b.build();
        let result = approximate_apsp(&g, &PipelineConfig::default());
        let exact = apsp::exact_apsp(&g);
        let stats = result.estimate.stretch_vs(&exact);
        assert!(
            stats.is_valid_approximation(result.stretch_bound),
            "{stats}"
        );
        // Cross-blob pairs must stay infinite (no phantom paths).
        assert!(result.estimate.get(0, 25) >= cc_graph::INF);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = generators::gnp_connected(40, 0.15, 1..=15, &mut rng);
        let cfg = PipelineConfig {
            seed: 77,
            ..Default::default()
        };
        let r1 = approximate_apsp(&g, &cfg);
        let r2 = approximate_apsp(&g, &cfg);
        assert_eq!(r1.estimate, r2.estimate);
        assert_eq!(r1.rounds, r2.rounds);
    }
}
