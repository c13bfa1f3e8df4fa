//! The per-claim experiments (E1–E15), run in order by [`run_all`]; the
//! README's "Benchmarks and experiments" section says how to run them.

use cc_apsp::params::{self, hopset_beta_bound};
use cc_apsp::pipeline::{approximate_apsp, apsp_large_bandwidth, apsp_tradeoff, PipelineConfig};
use cc_apsp::smalldiam::{small_diameter_apsp, SmallDiamConfig};
use cc_apsp::spanner::{baswana_sen, measure_spanner_stretch};
use cc_apsp::zeroweight::apsp_with_zero_weights;
use cc_apsp::{hopset, knearest, reduction, scaling, skeleton};
use cc_baselines::{doubling, exact as exact_baseline, spanner_only};
use cc_graph::generators::{self, Family};
use cc_graph::graph::Graph;
use cc_graph::{apsp, log2_ceil, sssp, DistMatrix, NodeId, Weight, INF};
use cc_matrix::sparse::cdkl_rounds;
use clique_sim::routing::schedule_route;
use clique_sim::{Bandwidth, Clique};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{bench_workload, header, okmark, stretch};

/// Scales every experiment down for smoke runs (`FAST=1 cargo bench`).
pub fn fast() -> bool {
    std::env::var("FAST").is_ok_and(|v| v == "1")
}

/// E1 — Theorem 1.1: `(7⁴+ε)`-approximate APSP, round counts ~flat in n.
pub fn e01_theorem_1_1() {
    header(
        "E1 · Theorem 1.1 — (7⁴+ε)-approximation in O(log log log n) rounds",
        &format!(
            "{:>6} {:>6} {:>8} {:>12} {:>12} {:>12} {:>10}",
            "n", "family", "rounds", "max stretch", "mean", "bound", "valid"
        ),
    );
    let sizes: &[usize] = if fast() {
        &[64, 128]
    } else {
        &[64, 128, 256, 512]
    };
    for &n in sizes {
        for family in [Family::Gnp, Family::Geometric, Family::PowerLaw] {
            let w = bench_workload(family, n, 100 + n as u64);
            let result = approximate_apsp(
                &w.graph,
                &PipelineConfig {
                    seed: 1,
                    ..Default::default()
                },
            );
            let s = stretch(&w, &result.estimate);
            println!(
                "{:>6} {:>6} {:>8} {:>12.3} {:>12.3} {:>12.1} {:>10}",
                n,
                w.family,
                result.rounds,
                s.max_stretch,
                s.mean_stretch,
                result.stretch_bound,
                okmark(s.is_valid_approximation(result.stretch_bound))
            );
        }
    }
    if !fast() {
        let w = bench_workload(Family::Gnp, 1024, 1124);
        let result = approximate_apsp(
            &w.graph,
            &PipelineConfig {
                seed: 1,
                ..Default::default()
            },
        );
        let s = stretch(&w, &result.estimate);
        println!(
            "{:>6} {:>6} {:>8} {:>12.3} {:>12.3} {:>12.1} {:>10}",
            1024,
            w.family,
            result.rounds,
            s.max_stretch,
            s.mean_stretch,
            result.stretch_bound,
            okmark(s.is_valid_approximation(result.stretch_bound))
        );
    }
}

/// E2 — Theorem 1.2: the round/approximation tradeoff.
pub fn e02_tradeoff() {
    header(
        "E2 · Theorem 1.2 — O(t) rounds for O(log^(2^-t) n) approximation",
        &format!(
            "{:>3} {:>16} {:>14} {:>12} {:>8}",
            "t", "paper bound", "run guarantee", "max stretch", "rounds"
        ),
    );
    let n = if fast() { 96 } else { 256 };
    let w = bench_workload(Family::Gnp, n, 202);
    for t in 0..=4usize {
        let result = apsp_tradeoff(
            &w.graph,
            t,
            &PipelineConfig {
                seed: 2,
                ..Default::default()
            },
        );
        let s = stretch(&w, &result.estimate);
        println!(
            "{:>3} {:>16.2} {:>14.1} {:>12.3} {:>8}  {}",
            t,
            params::tradeoff_bound(n, t),
            result.stretch_bound,
            s.max_stretch,
            result.rounds,
            okmark(s.is_valid_approximation(result.stretch_bound))
        );
    }
}

/// E3 — Theorem 7.1: small-weighted-diameter graphs; 21 (standard) vs 7
/// (`CC[log³n]`).
pub fn e03_small_diameter() {
    header(
        "E3 · Theorem 7.1 — small weighted diameter: 21-approx (std) / 7-approx (CC[log³n])",
        &format!(
            "{:>6} {:>10} {:>8} {:>12} {:>8} {:>8}",
            "n", "model", "rounds", "max stretch", "bound", "valid"
        ),
    );
    let sizes: &[usize] = if fast() { &[96] } else { &[128, 256] };
    for &n in sizes {
        // Small weights keep the weighted diameter polylog-flavored.
        let mut rng = StdRng::seed_from_u64(300 + n as u64);
        let g = generators::gnp_connected(n, (8.0 / n as f64).min(0.5), 1..=8, &mut rng);
        let exact = apsp::exact_apsp(&g);
        for wide in [false, true] {
            let bw = if wide {
                Bandwidth::polylog(3, n)
            } else {
                Bandwidth::standard(n)
            };
            let mut clique = Clique::new(n, bw);
            let cfg = SmallDiamConfig {
                wide_bandwidth: wide,
                ..Default::default()
            };
            let mut arng = StdRng::seed_from_u64(7);
            let (est, bound) = small_diameter_apsp(&mut clique, &g, &cfg, &mut arng);
            let s = est.stretch_vs(&exact);
            println!(
                "{:>6} {:>10} {:>8} {:>12.3} {:>8.0} {:>8}",
                n,
                if wide { "log³n" } else { "standard" },
                clique.rounds(),
                s.max_stretch,
                bound,
                okmark(s.is_valid_approximation(bound))
            );
        }
    }
}

/// A degraded a-approximation for hopset experiments: exact distances with
/// deterministic multiplicative noise in `[1, a]`.
fn degraded(exact: &DistMatrix, a: u64) -> DistMatrix {
    let n = exact.n();
    let mut m = exact.clone();
    for u in 0..n {
        for v in 0..n {
            let d = exact.get(u, v);
            if u != v && d < INF {
                m.set(u, v, d * (1 + (u * 31 + v * 17) as u64 % a.max(1)));
            }
        }
    }
    m.symmetrize_min();
    m
}

/// E4 — Lemma 3.2: hopset hop bound β vs `O(a·log d)`.
pub fn e04_hopset() {
    header(
        "E4 · Lemma 3.2 — √n-nearest β-hopsets from an a-approximation",
        &format!(
            "{:>6} {:>6} {:>4} {:>8} {:>10} {:>12} {:>10} {:>10}",
            "n",
            "family",
            "a",
            "diam d",
            "β measured",
            "bound 2(⌈a·ln d⌉+1)+1",
            "preserved",
            "rounds"
        ),
    );
    let n = if fast() { 64 } else { 144 };
    for family in [Family::Gnp, Family::PathChords] {
        let w = bench_workload(family, n, 400 + n as u64);
        let d = reduction::estimate_diameter(&w.exact);
        for a in [1u64, 2, 4, 8] {
            let delta = degraded(&w.exact, a);
            let k = (n as f64).sqrt() as usize;
            let mut clique = Clique::new(n, Bandwidth::standard(n));
            let hs = hopset::build_hopset(&mut clique, &w.graph, &delta, k);
            let (beta, preserved) = hopset::measure_hop_bound(&w.graph, &hs, k);
            let bound = hopset_beta_bound(a as f64, d);
            println!(
                "{:>6} {:>6} {:>4} {:>8} {:>10} {:>21} {:>10} {:>10}",
                n,
                w.family,
                a,
                d,
                beta,
                format!("{bound} {}", okmark(beta <= bound)),
                preserved,
                clique.rounds()
            );
        }
    }
}

/// E5 — Lemmas 5.1/5.2/3.3: k-nearest rounds, vs the doubling baseline.
pub fn e05_knearest() {
    header(
        "E5 · Lemmas 5.1/5.2 — k-nearest: i iterations at hop-radius h vs doubling (h=2)",
        &format!(
            "{:>6} {:>4} {:>3} {:>8} {:>12} {:>12} {:>14} {:>16} {:>8}",
            "n",
            "k",
            "h",
            "hops h^i",
            "iters(paper)",
            "iters(2x)",
            "rounds (paper)",
            "rounds (doubling)",
            "exact"
        ),
    );
    let n = if fast() { 128 } else { 256 };
    let w = bench_workload(Family::Gnp, n, 500);
    for (k, h, i) in [
        (4usize, 2usize, 2usize),
        (8, 2, 3),
        (6, 3, 2),
        (4, 4, 1),
        (4, 3, 2),
    ] {
        let mut c1 = Clique::new(n, Bandwidth::standard(n));
        let rows = knearest::k_nearest_exact(&mut c1, &w.graph, k, h, i);
        let hops = h.pow(i as u32);
        let mut c2 = Clique::new(n, Bandwidth::standard(n));
        let base = doubling::doubling_k_nearest(&mut c2, &w.graph, k, hops);
        // Exactness: if h^i ≥ k, rows are exact k-nearest sets.
        let exact_ok = if hops >= k {
            (0..n).all(|u| rows.row(u) == &sssp::k_nearest(&w.graph, u, k)[..])
        } else {
            rows == base
        };
        println!(
            "{:>6} {:>4} {:>3} {:>8} {:>12} {:>12} {:>14} {:>16} {:>8}",
            n,
            k,
            h,
            hops,
            i,
            doubling::doubling_iterations(hops),
            c1.rounds(),
            c2.rounds(),
            okmark(exact_ok)
        );
    }
}

/// E6 — Lemmas 3.4/6.1: skeleton size and extension stretch.
pub fn e06_skeleton() {
    header(
        "E6 · Lemmas 3.4/6.1 — skeleton graphs: |V_S| ≤ O(n·ln k/k), extension ≤ 7·l·a²",
        &format!(
            "{:>6} {:>4} {:>6} {:>14} {:>6} {:>12} {:>10}",
            "n", "k", "|V_S|", "bound 4n·lnk/k", "l", "max stretch", "≤7l?"
        ),
    );
    let n = if fast() { 128 } else { 400 };
    let w = bench_workload(Family::Gnp, n, 600);
    let mut rng = StdRng::seed_from_u64(66);
    for k in [4usize, 8, 16, 32] {
        let rows: Vec<Vec<(NodeId, Weight)>> =
            (0..n).map(|u| sssp::k_nearest(&w.graph, u, k)).collect();
        let tilde = cc_matrix::filtered::FilteredMatrix::from_rows(n, k, rows);
        let mut clique = Clique::new(n, Bandwidth::standard(n));
        let sk = skeleton::build_skeleton(&mut clique, &w.graph, &tilde, &mut rng);
        let delta_gs = apsp::exact_apsp(&sk.graph);
        let eta = skeleton::extend_estimate(&mut clique, &sk, &tilde, &delta_gs);
        let s = stretch(&w, &eta);
        let size_bound = 4.0 * n as f64 * (k as f64).ln().max(1.0) / k as f64;
        println!(
            "{:>6} {:>4} {:>6} {:>14.0} {:>6} {:>12.3} {:>10}",
            n,
            k,
            sk.size(),
            size_bound,
            1,
            s.max_stretch,
            okmark(s.is_valid_approximation(7.0) && (sk.size() as f64) < size_bound)
        );
    }
}

/// E7 — Lemma 7.1 / Corollary 7.2: spanner stretch and size.
pub fn e07_spanner() {
    header(
        "E7 · Lemma 7.1 — (2k−1)-spanners (Baswana–Sen standing in for CZ22)",
        &format!(
            "{:>6} {:>3} {:>8} {:>12} {:>8} {:>16}",
            "n", "k", "stretch", "bound 2k−1", "edges", "bound 4k·n^(1+1/k)"
        ),
    );
    let n = if fast() { 96 } else { 192 };
    let mut rng = StdRng::seed_from_u64(700);
    let g = generators::complete_graph(n, 1..=100, &mut rng);
    for k in [2usize, 3, 4, 5] {
        let s = baswana_sen(&g, k, &mut rng);
        let measured = measure_spanner_stretch(&g, &s);
        let size_bound = 4.0 * k as f64 * (n as f64).powf(1.0 + 1.0 / k as f64) + n as f64;
        println!(
            "{:>6} {:>3} {:>8.3} {:>12} {:>8} {:>16.0}  {}",
            n,
            k,
            measured,
            2 * k - 1,
            s.m(),
            size_bound,
            okmark(measured <= (2 * k - 1) as f64 && (s.m() as f64) < size_bound)
        );
    }
}

/// E8 — Lemma 8.1: weight scaling.
pub fn e08_scaling() {
    header(
        "E8 · Lemma 8.1 — weight scaling: O(log n) graphs of diameter ≤ 2⌈2/ε⌉h²",
        &format!(
            "{:>6} {:>5} {:>3} {:>8} {:>10} {:>16} {:>14}",
            "n", "ε", "h", "#graphs", "max diam", "bound 2⌈2/ε⌉h²", "η ok (h-hop)"
        ),
    );
    let n = if fast() { 48 } else { 80 };
    let mut rng = StdRng::seed_from_u64(800);
    let g = generators::wide_weight_gnp(n, (10.0 / n as f64).min(0.5), 16, &mut rng);
    let exact = apsp::exact_apsp(&g);
    for eps in [0.25f64, 0.5, 1.0] {
        let h = 4u64;
        // h-approximation input: exact scaled by alternating factors ≤ h.
        let delta = degraded(&exact, h);
        let dmax = reduction::estimate_diameter(&delta);
        let scaled = scaling::weight_scaling(&g, dmax, h, eps);
        let gis: Vec<DistMatrix> = scaled.graphs.iter().map(apsp::exact_apsp).collect();
        let eta = scaling::combine(&scaled, &gis, &delta);
        let bound = scaling::combined_bound(1.0, eps);
        let max_diam = scaled
            .graphs
            .iter()
            .map(sssp::weighted_diameter)
            .max()
            .unwrap_or(0);
        // Validate η on all pairs (≥ d) and the (1+ε) bound on ≤h-hop pairs.
        let mut ok = true;
        for u in 0..n {
            let hh = sssp::bellman_ford_hops(&g, u, h as usize);
            for (v, &hv) in hh.iter().enumerate() {
                let d = exact.get(u, v);
                if u == v || d >= INF {
                    continue;
                }
                let e = eta.get(u, v);
                if e < d {
                    ok = false;
                }
                if hv == d && (e as f64) > bound * d as f64 + 1e-9 {
                    ok = false;
                }
            }
        }
        println!(
            "{:>6} {:>5} {:>3} {:>8} {:>10} {:>16} {:>14}",
            n,
            eps,
            h,
            scaled.len(),
            max_diam,
            scaled.diameter_bound(),
            okmark(ok && max_diam <= scaled.diameter_bound())
        );
    }
}

/// Shortest path with parent tracking over `G ∪ H`, minimizing
/// `(length, hops)`; used to render Figure 1.
fn lex_path(g: &Graph, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let n = g.n();
    let mut best = vec![(INF, usize::MAX); n];
    let mut parent = vec![usize::MAX; n];
    best[src] = (0, 0);
    let mut heap = BinaryHeap::new();
    heap.push(Reverse((0u64, 0usize, src)));
    while let Some(Reverse((d, h, u))) = heap.pop() {
        if (d, h) > best[u] {
            continue;
        }
        for (v, w) in g.neighbors(u) {
            let nd = d.saturating_add(w);
            let nh = h + 1;
            if (nd, nh) < best[v] {
                best[v] = (nd, nh);
                parent[v] = u;
                heap.push(Reverse((nd, nh, v)));
            }
        }
    }
    if best[dst].0 >= INF {
        return None;
    }
    let mut path = vec![dst];
    let mut cur = dst;
    while cur != src {
        cur = parent[cur];
        path.push(cur);
    }
    path.reverse();
    Some(path)
}

/// E9 — Figure 1: the hop chain `t_0 → t_1 → …` a hopset creates on a path
/// graph.
pub fn e09_figure1() {
    header(
        "E9 · Figure 1 — hopset hop-chain on a path graph (t_i selection realized)",
        "rendering the minimum-hop exact-length path in G ∪ H",
    );
    let n = if fast() { 48 } else { 96 };
    let mut rng = StdRng::seed_from_u64(900);
    let g = generators::path_with_chords(n, 0, 1..=1, &mut rng);
    let exact = apsp::exact_apsp(&g);
    let delta = degraded(&exact, 3);
    // A larger k than √n makes the chain long enough to see the t_i
    // structure (the hopset construction itself is k-agnostic).
    let k = n / 4;
    let mut clique = Clique::new(n, Bandwidth::standard(n));
    let hs = hopset::build_hopset(&mut clique, &g, &delta, k);
    let v = 0usize;
    // Farthest of v's k-nearest.
    let nearest = sssp::k_nearest(&g, v, k);
    let &(u, d) = nearest.last().expect("nonempty");
    let path = lex_path(&hs.combined, v, u).expect("reachable");
    println!("v = {v}, u = {u} (farthest √n-nearest), d(v,u) = {d}");
    print!("chain in G ∪ H ({} hops): ", path.len() - 1);
    for (i, node) in path.iter().enumerate() {
        if i > 0 {
            let prev = path[i - 1];
            let kind = if g.edge_weight(prev, *node).is_some() {
                "→"
            } else {
                "⇢"
            }; // ⇢ = hopset edge
            print!(" {kind} ");
        }
        print!("{node}");
    }
    println!();
    println!(
        "(⇢ marks hopset shortcut edges; in G alone the path needs {} hops)",
        d
    );
    println!(
        "hop bound check: {} hops ≤ bound {}",
        path.len() - 1,
        hopset_beta_bound(3.0, reduction::estimate_diameter(&exact))
    );
}

/// E10 — Figure 2: the skeleton decomposition `u_i / t_i / s_i` of a
/// shortest path.
pub fn e10_figure2() {
    header(
        "E10 · Figure 2 — skeleton decomposition of a shortest path (u_i, t_i, s_i)",
        "red nodes of the paper's figure = skeleton centers",
    );
    let n = if fast() { 64 } else { 120 };
    let w = bench_workload(Family::Gnp, n, 1000);
    let k = 8usize;
    let rows: Vec<Vec<(NodeId, Weight)>> =
        (0..n).map(|u| sssp::k_nearest(&w.graph, u, k)).collect();
    let tilde = cc_matrix::filtered::FilteredMatrix::from_rows(n, k, rows);
    let mut rng = StdRng::seed_from_u64(10);
    let mut clique = Clique::new(n, Bandwidth::standard(n));
    let sk = skeleton::build_skeleton(&mut clique, &w.graph, &tilde, &mut rng);
    // Pick the farthest connected pair and decompose its shortest path.
    let (mut bu, mut bv, mut bd) = (0, 0, 0);
    for u in 0..n {
        for v in 0..n {
            let d = w.exact.get(u, v);
            if d < INF && d > bd {
                (bu, bv, bd) = (u, v, d);
            }
        }
    }
    let path = lex_path(&w.graph, bu, bv).expect("connected");
    println!(
        "decomposing shortest path {bu} → {bv} (length {bd}, {} hops)",
        path.len() - 1
    );
    // The Section 6.3 decomposition: u_0 = u; t_i = rightmost path node in
    // Ñ_k(u_i); u_{i+1} = successor of t_i.
    let in_tilde = |a: NodeId, b: NodeId| tilde.row(a).iter().any(|&(x, _)| x == b);
    let mut i = 0usize;
    let mut pos = 0usize; // index of u_i on path
    loop {
        let u_i = path[pos];
        let mut t_pos = pos;
        for (j, &node) in path.iter().enumerate().skip(pos) {
            if in_tilde(u_i, node) {
                t_pos = j;
            }
        }
        let t_i = path[t_pos];
        let s_i = sk.assignment[u_i];
        println!(
            "  segment {i}: u_{i} = {u_i:<4} t_{i} = {t_i:<4} s_{i} = c(u_{i}) = {s_i:<4} (δ(u,c) = {})",
            sk.delta_to_center[u_i]
        );
        if t_pos + 1 >= path.len() {
            break;
        }
        pos = t_pos + 1;
        i += 1;
        if i > path.len() {
            break; // safety
        }
    }
    println!("  s* = c({bv}) = {}", sk.assignment[bv]);
    println!("segments p+1 = {}; skeleton |V_S| = {}", i + 1, sk.size());
}

/// E11 — the Section 1.1 landscape: who wins at one n.
pub fn e11_landscape() {
    header(
        "E11 · §1.1 landscape — rounds vs guarantee, all algorithms, same workload",
        &format!(
            "{:>26} {:>8} {:>14} {:>12} {:>8}",
            "algorithm", "rounds", "guarantee", "max stretch", "valid"
        ),
    );
    let n = if fast() { 96 } else { 256 };
    let w = bench_workload(Family::Gnp, n, 1100);

    let mut c = Clique::new(n, Bandwidth::standard(n));
    let est = exact_baseline::exact_apsp_squaring(&mut c, &w.graph);
    let s = stretch(&w, &est);
    println!(
        "{:>26} {:>8} {:>14} {:>12.3} {:>8}",
        "exact (CKK+19 squaring)",
        c.rounds(),
        "1 (exact)",
        s.max_stretch,
        okmark(s.is_valid_approximation(1.0))
    );

    let mut c = Clique::new(n, Bandwidth::standard(n));
    let mut rng = StdRng::seed_from_u64(4);
    let (est, bound) = spanner_only::spanner_only_apsp(&mut c, &w.graph, &mut rng);
    let s = stretch(&w, &est);
    println!(
        "{:>26} {:>8} {:>14} {:>12.3} {:>8}",
        "spanner-only (CZ22)",
        c.rounds(),
        format!("{bound:.0} (O(log n))"),
        s.max_stretch,
        okmark(s.is_valid_approximation(bound))
    );

    let mut c = Clique::new(n, Bandwidth::standard(n));
    let mut rng = StdRng::seed_from_u64(4);
    let (est, bound) = cc_apsp::smalldiam::apsp_o_loglog(&mut c, &w.graph, false, &mut rng);
    let s = stretch(&w, &est);
    println!(
        "{:>26} {:>8} {:>14} {:>12.3} {:>8}",
        "this paper (§3.2 loglog)",
        c.rounds(),
        format!("{bound:.0} (O(1))"),
        s.max_stretch,
        okmark(s.is_valid_approximation(bound))
    );

    let result = approximate_apsp(
        &w.graph,
        &PipelineConfig {
            seed: 4,
            ..Default::default()
        },
    );
    let s = stretch(&w, &result.estimate);
    println!(
        "{:>26} {:>8} {:>14} {:>12.3} {:>8}",
        "this paper (Thm 1.1)",
        result.rounds,
        format!("{:.0} (O(1))", result.stretch_bound),
        s.max_stretch,
        okmark(s.is_valid_approximation(result.stretch_bound))
    );

    let mut c = Clique::new(n, Bandwidth::polylog(4, n));
    let mut rng = StdRng::seed_from_u64(4);
    let (est, bound) = apsp_large_bandwidth(
        &mut c,
        &w.graph,
        &PipelineConfig {
            seed: 4,
            ..Default::default()
        },
        &mut rng,
    );
    let s = stretch(&w, &est);
    println!(
        "{:>26} {:>8} {:>14} {:>12.3} {:>8}",
        "this paper (Thm 8.1, B=log⁴)",
        c.rounds(),
        format!("{bound:.0} (O(1))"),
        s.max_stretch,
        okmark(s.is_valid_approximation(bound))
    );
}

/// E12 — Theorem 2.1: zero-weight handling overhead.
pub fn e12_zeroweight() {
    header(
        "E12 · Theorem 2.1 — zero weights: +O(1) rounds, exactness preserved",
        &format!(
            "{:>6} {:>9} {:>14} {:>14} {:>8}",
            "n", "clusters", "overhead (rounds)", "inner rounds", "exact"
        ),
    );
    for (clusters, size) in [(8usize, 4usize), (16, 4), (24, 6)] {
        let n = clusters * size;
        let mut rng = StdRng::seed_from_u64(1200 + n as u64);
        let mut b = cc_graph::GraphBuilder::undirected(n);
        for c in 0..clusters {
            for i in 1..size {
                b.add_edge(c * size, c * size + i, 0);
            }
            let next = (c + 1) % clusters;
            b.add_edge(c * size, next * size, rng.gen_range(1..30));
        }
        let g = b.build();
        let mut clique = Clique::new(n, Bandwidth::standard(n));
        let mut inner_rounds = 0;
        let (est, _) = apsp_with_zero_weights(&mut clique, &g, |c, compressed| {
            let out = (apsp::exact_apsp(compressed), 1.0);
            inner_rounds = c.rounds();
            out
        });
        let overhead = clique.rounds() - inner_rounds;
        let exact = apsp::exact_apsp(&g);
        println!(
            "{:>6} {:>9} {:>14} {:>14} {:>8}",
            n,
            clusters,
            overhead,
            inner_rounds,
            okmark(est == exact)
        );
    }
}

/// E13 — Theorem 8.1 standalone on `CC[log⁴n]`: bound 7³(1+ε)-flavored.
pub fn e13_theorem_8_1() {
    header(
        "E13 · Theorem 8.1 — (7³+ε)-approximation in CC[log⁴n]",
        &format!(
            "{:>6} {:>6} {:>8} {:>12} {:>12} {:>8}",
            "n", "family", "rounds", "max stretch", "bound", "valid"
        ),
    );
    let sizes: &[usize] = if fast() { &[64] } else { &[64, 128, 256] };
    for &n in sizes {
        for family in [Family::Gnp, Family::WideWeights] {
            let w = bench_workload(family, n, 1300 + n as u64);
            let mut clique = Clique::new(n, Bandwidth::polylog(4, n));
            let mut rng = StdRng::seed_from_u64(13);
            let (est, bound) = apsp_large_bandwidth(
                &mut clique,
                &w.graph,
                &PipelineConfig {
                    seed: 13,
                    ..Default::default()
                },
                &mut rng,
            );
            let s = stretch(&w, &est);
            println!(
                "{:>6} {:>6} {:>8} {:>12.3} {:>12.1} {:>8}",
                n,
                w.family,
                clique.rounds(),
                s.max_stretch,
                bound,
                okmark(s.is_valid_approximation(bound))
            );
        }
    }
}

/// E14 — Theorem 6.1's round model across densities.
pub fn e14_sparse_matmul() {
    header(
        "E14 · Theorem 6.1 — sparse min-plus product round model",
        &format!(
            "{:>6} {:>8} {:>8} {:>10} {:>8}",
            "n", "ρS", "ρT", "ρST", "rounds"
        ),
    );
    let n = 1024usize;
    for (rs, rt, rst) in [
        (2.0f64, 2.0, 2.0),
        (32.0, 111.0, 12.0), // the skeleton invocation at n=1024
        (111.0, 111.0, 111.0),
        (1024.0, 1024.0, 1024.0), // dense
    ] {
        println!(
            "{:>6} {:>8.0} {:>8.0} {:>10.1} {:>8}",
            n,
            rs,
            rt,
            rst,
            cdkl_rounds(n, rs, rt, rst)
        );
    }
}

/// E15 — routing model validation: scheduled vs charged.
pub fn e15_routing() {
    header(
        "E15 · Lemma 2.1 — scheduled relay routing vs closed-form charge",
        &format!(
            "{:>6} {:>10} {:>16} {:>14}",
            "n", "load L/n", "scheduled rounds", "charged rounds"
        ),
    );
    let n = 64usize;
    let mut rng = StdRng::seed_from_u64(1500);
    for c in [1usize, 2, 4, 8] {
        let mut msgs = Vec::new();
        for u in 0..n {
            for _ in 0..c * n {
                msgs.push((u, rng.gen_range(0..n), 1usize));
            }
        }
        let schedule = schedule_route(n, 1, &msgs);
        let clique = Clique::new(n, Bandwidth::standard(n));
        let charged = clique.rounds_for_load(c * n);
        println!(
            "{:>6} {:>10} {:>16} {:>14}",
            n, c, schedule.total_rounds, charged
        );
    }
}

/// Runs every experiment in order.
pub fn run_all() {
    println!("== Congested Clique APSP — experiment tables ==");
    println!(
        "(paper: Bui, Chandra, Chang, Dory, Leitersdorf, PODC 2024)\nfast mode: {}",
        fast()
    );
    e01_theorem_1_1();
    e02_tradeoff();
    e03_small_diameter();
    e04_hopset();
    e05_knearest();
    e06_skeleton();
    e07_spanner();
    e08_scaling();
    e09_figure1();
    e10_figure2();
    e11_landscape();
    e12_zeroweight();
    e13_theorem_8_1();
    e14_sparse_matmul();
    e15_routing();
    let _ = log2_ceil(2); // keep the import honest in fast mode
}
