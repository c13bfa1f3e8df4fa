//! `cargo bench -p cc-bench --bench ablations` — design-choice ablations
//! (A1–A4), quantifying the alternatives documented in `cc_apsp::ablation`.
//! Set `FAST=1` for a smoke run.

use cc_apsp::ablation;
use cc_apsp::pipeline::{approximate_apsp, PipelineConfig};
use cc_apsp::scaling;
use cc_apsp::skeleton::hitting_set;
use cc_bench::{bench_workload, header, okmark, stretch};
use cc_graph::generators::Family;
use cc_graph::{apsp, sssp, NodeId, Weight};
use cc_matrix::filtered::FilteredMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fast() -> bool {
    std::env::var("FAST").is_ok_and(|v| v == "1")
}

/// A1 — hitting set: sampled (Lemma 6.2, O(1) rounds) vs greedy set cover
/// (smaller, but Θ(|S|) rounds).
fn a1_hitting_set() {
    header(
        "A1 · hitting set — sampled (paper) vs greedy set-cover",
        &format!(
            "{:>6} {:>4} {:>10} {:>10} {:>16}",
            "n", "k", "sampled", "greedy", "bound 4n·lnk/k"
        ),
    );
    let n = if fast() { 128 } else { 384 };
    let w = bench_workload(Family::Gnp, n, 42);
    let mut rng = StdRng::seed_from_u64(9);
    for k in [4usize, 8, 16, 32] {
        let rows: Vec<Vec<(NodeId, Weight)>> =
            (0..n).map(|u| sssp::k_nearest(&w.graph, u, k)).collect();
        let tilde = FilteredMatrix::from_rows(n, k, rows);
        let sampled = hitting_set(&tilde, &mut rng).len();
        let greedy = ablation::greedy_hitting_set(&tilde).len();
        let bound = 4.0 * n as f64 * (k as f64).ln().max(1.0) / k as f64;
        println!(
            "{:>6} {:>4} {:>10} {:>10} {:>16.0}",
            n, k, sampled, greedy, bound
        );
    }
}

/// A2 — weight scaling: hub-star substitution vs the paper's clique cap.
fn a2_scaling_variants() {
    header(
        "A2 · weight scaling — hub-star (ours) vs clique-cap (paper literal)",
        &format!(
            "{:>6} {:>8} {:>14} {:>14} {:>12} {:>10}",
            "n", "scales", "star edges/Gi", "cap edges/Gi", "star diam", "both valid"
        ),
    );
    let n = if fast() { 32 } else { 64 };
    let mut rng = StdRng::seed_from_u64(11);
    let g = cc_graph::generators::wide_weight_gnp(n, (10.0 / n as f64).min(0.5), 12, &mut rng);
    let exact = apsp::exact_apsp(&g);
    let h = 4u64;
    let eps = 0.5;
    // h-approximation input.
    let mut delta = exact.clone();
    for u in 0..n {
        for v in 0..n {
            let d = exact.get(u, v);
            if u != v && d < cc_graph::INF {
                delta.set(u, v, d.saturating_mul(1 + ((u + v) as u64) % h));
            }
        }
    }
    delta.symmetrize_min();
    let dmax = cc_apsp::reduction::estimate_diameter(&delta);
    let star = scaling::weight_scaling(&g, dmax, h, eps);
    let cap = ablation::weight_scaling_clique_cap(&g, dmax, h, eps);
    let star_gis: Vec<_> = star.graphs.iter().map(apsp::exact_apsp).collect();
    let cap_gis: Vec<_> = cap.graphs.iter().map(apsp::exact_apsp).collect();
    let eta_star = scaling::combine(&star, &star_gis, &delta);
    let eta_cap = scaling::combine(&cap, &cap_gis, &delta);
    let bound = scaling::combined_bound(1.0, eps);
    let mut both_valid = true;
    for u in 0..n {
        let hh = sssp::bellman_ford_hops(&g, u, h as usize);
        for (v, &hv) in hh.iter().enumerate() {
            let d = exact.get(u, v);
            if u == v || d >= cc_graph::INF {
                continue;
            }
            for eta in [&eta_star, &eta_cap] {
                let e = eta.get(u, v);
                if e < d || (hv == d && (e as f64) > bound * d as f64 + 1e-9) {
                    both_valid = false;
                }
            }
        }
    }
    let star_diam = star
        .graphs
        .iter()
        .map(sssp::weighted_diameter)
        .max()
        .unwrap_or(0);
    println!(
        "{:>6} {:>8} {:>14} {:>14} {:>12} {:>10}",
        n,
        star.len(),
        star.graphs[0].m(),
        cap.graphs[0].m(),
        star_diam,
        okmark(both_valid)
    );
    println!(
        "(clique-cap stores {}× more edges per scale; both satisfy Lemma 8.1's guarantees)",
        cap.graphs[0].m() / star.graphs[0].m().max(1)
    );
}

/// A3 — Theorem 1.1's k₀ (bandwidth-reduction skeleton parameter).
fn a3_k0_sensitivity() {
    header(
        "A3 · Theorem 1.1 k₀ sensitivity — skeleton size vs simulation cost",
        &format!(
            "{:>6} {:>5} {:>8} {:>12} {:>10}",
            "n", "k0", "rounds", "max stretch", "valid"
        ),
    );
    let n = if fast() { 96 } else { 256 };
    let w = bench_workload(Family::Gnp, n, 77);
    for k0 in [4usize, 8, 16, (n as f64).sqrt() as usize] {
        let cfg = PipelineConfig {
            seed: 3,
            k0: Some(k0),
            ..Default::default()
        };
        let result = approximate_apsp(&w.graph, &cfg);
        let s = stretch(&w, &result.estimate);
        println!(
            "{:>6} {:>5} {:>8} {:>12.3} {:>10}",
            n,
            k0,
            result.rounds,
            s.max_stretch,
            okmark(s.is_valid_approximation(result.stretch_bound))
        );
    }
}

/// A4 — ε sensitivity: guarantee vs rounds.
fn a4_eps_sensitivity() {
    header(
        "A4 · ε sensitivity — weight-scaling slack vs bound",
        &format!(
            "{:>6} {:>6} {:>8} {:>12} {:>12} {:>10}",
            "n", "ε", "rounds", "bound", "max stretch", "valid"
        ),
    );
    let n = if fast() { 96 } else { 192 };
    let w = bench_workload(Family::WideWeights, n, 88);
    for eps in [0.05f64, 0.1, 0.5, 1.0] {
        let cfg = PipelineConfig {
            seed: 5,
            eps,
            ..Default::default()
        };
        let result = approximate_apsp(&w.graph, &cfg);
        let s = stretch(&w, &result.estimate);
        println!(
            "{:>6} {:>6} {:>8} {:>12.1} {:>12.3} {:>10}",
            n,
            eps,
            result.rounds,
            result.stretch_bound,
            s.max_stretch,
            okmark(s.is_valid_approximation(result.stretch_bound))
        );
    }
}

fn main() {
    println!(
        "== Design-choice ablations (A1–A4) ==  fast mode: {}",
        fast()
    );
    a1_hitting_set();
    a2_scaling_variants();
    a3_k0_sensitivity();
    a4_eps_sensitivity();
}
