//! Fast computation of the k-nearest nodes (Section 5).
//!
//! Lemma 5.1: for `k ∈ O(n^(1/h))`, every node can learn its `k` nearest
//! nodes **under h-hop distances** in `O(1)` rounds. Iterating (Lemma 5.2)
//! gives `h^i`-hop k-nearest in `O(i)` rounds, and applying that to `G ∪ H`
//! for a k-nearest `h^i`-hopset `H` yields exact k-nearest distances
//! (Lemma 3.3).
//!
//! The engine is *filtered matrix multiplication*: keep only the `k` smallest
//! entries per row (`Ā`, see [`cc_matrix::filtered`]) — Lemma 5.5 shows
//! filtering commutes with tropical powers. The distributed algorithm
//! (Section 5.2):
//!
//! 1. every node contributes its filtered row to a global ordered list `M`
//!    of `nk` arcs;
//! 2. `M` is cut into `p = ⌊n^(1/h)·h/4⌋` contiguous **bins**;
//! 3. each of the `h·C(p,h) ≤ n` **h-combinations** (an ordered first bin
//!    plus `h−1` unordered others) is assigned to a node, which learns all
//!    arcs in its bins;
//! 4. a combination node computes, for every node `u` owning an arc in its
//!    *first* bin, the `k` nearest nodes within `h` hops over its arcs, and
//!    sends them to `u`; `u` merges the responses. The model counts this
//!    local work as free; here it reads `M` in place. Node `x`'s arcs are
//!    the `k` slots `M[x·k..(x+1)·k]`, so each hop scans only the slots,
//!    within the combination's bins, of the nodes the previous hop lowered.
//!
//! When no bin plan exists (tiny `n` or large `h`), every node broadcasts its
//! arcs instead; the local work is then the one-combination case, with all
//! of `M` in one node and every node a source. Only the charges differ.
//!
//! Every `≤h`-hop path's arcs live in some combination whose first bin holds
//! the path's first arc (owned by the path's source), so the merge recovers
//! exactly `filter_k(Ā^h)` (Lemma 5.4).

use std::ops::Range;

use cc_graph::sssp::select_k_smallest;
use cc_graph::{wadd, Graph, NodeId, Weight, INF};
use cc_matrix::filtered::FilteredMatrix;
use clique_sim::Clique;

/// The bin/combination geometry for one invocation of Lemma 5.1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinPlan {
    /// Number of bins `p`.
    pub bins: usize,
    /// Bin size `s = ⌈nk/p⌉` (positions per bin).
    pub bin_size: usize,
    /// All h-combinations: `(first_bin, other_bins)`; index = assigned node.
    pub combinations: Vec<(usize, Vec<usize>)>,
}

impl BinPlan {
    /// The slots of a `len`-slot list M in each bin of a combination, first
    /// bin first.
    fn slots(&self, (first, rest): &(usize, Vec<usize>), len: usize) -> Vec<Range<usize>> {
        let s = self.bin_size;
        std::iter::once(first)
            .chain(rest)
            .map(|&b| (b * s).min(len)..((b + 1) * s).min(len))
            .collect()
    }
}

/// Computes the bin plan, shrinking `p` if needed so the combination count
/// fits in `n` (the paper proves `h·C(p,h) ≤ n` for `p = ⌊n^(1/h)·h/4⌋`; the
/// shrink only triggers at tiny `n`). Returns `None` when the preconditions
/// cannot be met (`p < h` or bin size ≤ k), in which case callers fall back
/// to broadcasting (the paper's remark: those cases force `k ∈ O(1)`).
pub fn plan_bins(n: usize, k: usize, h: usize) -> Option<BinPlan> {
    assert!(h >= 1 && k >= 1 && n >= 1);
    let mut p = ((n as f64).powf(1.0 / h as f64) * h as f64 / 4.0).floor() as usize;
    loop {
        if p < h {
            return None;
        }
        match combination_count(p, h, n as u128) {
            Some(count) if count <= n as u128 => break,
            _ => p -= 1,
        }
    }
    let bin_size = (n * k).div_ceil(p);
    if bin_size <= k {
        return None;
    }
    let mut combinations = Vec::new();
    let mut rest = Vec::with_capacity(h.saturating_sub(1));
    for first in 0..p {
        enumerate_subsets(p, first, h - 1, 0, &mut rest, &mut combinations);
    }
    Some(BinPlan {
        bins: p,
        bin_size,
        combinations,
    })
}

/// `h · C(p, h) = p · C(p-1, h-1)`, capped at `limit+1` to avoid overflow.
fn combination_count(p: usize, h: usize, limit: u128) -> Option<u128> {
    if h == 0 || p < h {
        return Some(0);
    }
    // p * C(p-1, h-1)
    let mut count: u128 = p as u128;
    let (mut num, mut den) = (1u128, 1u128);
    for j in 0..(h - 1) {
        num = num.checked_mul((p - 1 - j) as u128)?;
        den = den.checked_mul((j + 1) as u128)?;
        if num / den > limit.saturating_mul(2) {
            return None; // far beyond any usable count
        }
    }
    count = count.checked_mul(num / den)?;
    Some(count)
}

fn enumerate_subsets(
    p: usize,
    first: usize,
    remaining: usize,
    start: usize,
    rest: &mut Vec<usize>,
    out: &mut Vec<(usize, Vec<usize>)>,
) {
    if remaining == 0 {
        out.push((first, rest.clone()));
        return;
    }
    for b in start..p {
        if b == first {
            continue;
        }
        rest.push(b);
        enumerate_subsets(p, first, remaining - 1, b + 1, rest, out);
        rest.pop();
    }
}

/// One application of Lemma 5.1: from the filtered matrix `abar` (= `Ā`),
/// computes `filter_k(Ā^h)` — each node's `k` nearest under `h`-hop
/// distances of `Ā` — in `O(1)` charged rounds.
pub fn one_round(clique: &mut Clique, abar: &FilteredMatrix, h: usize) -> FilteredMatrix {
    let n = abar.n();
    let k = abar.k();
    assert_eq!(clique.n(), n, "clique size must match matrix dimension");
    clique.phase("knearest-round", |clique| {
        // Global list M: rows padded to exactly k slots with (u, 0) self-arcs
        // (harmless zero self-loops), so node x's arcs are m[x·k..(x+1)·k].
        let mut m: Vec<(NodeId, Weight)> = Vec::with_capacity(n * k);
        for u in 0..n {
            m.extend_from_slice(abar.row(u));
            m.resize((u + 1) * k, (u, 0));
        }
        let plan = plan_bins(n, k, h);
        match &plan {
            Some(plan) => charge_bin_transfer(clique, plan, n, k),
            None => {
                // The degenerate regimes (`p < h` or bin ≤ k, both forcing
                // `k ∈ O(1)`): every node broadcasts its `k` arcs.
                let per_node: Vec<usize> = (0..n).map(|u| 2 * abar.row(u).len()).collect();
                clique.broadcast_all("knearest-fallback-broadcast", &per_node);
            }
        }
        // Without a plan every node computes its own row: one combination
        // whose one bin is all of M, with every node a source.
        let whole = BinPlan {
            bins: 1,
            bin_size: n * k,
            combinations: vec![(0, Vec::new())],
        };
        let local = plan.as_ref().unwrap_or(&whole);

        // --- Local work at each combination node + Step 4 response charge. ---
        let mut search = HopSearch::new(n);
        let mut responses: Vec<Vec<(NodeId, Weight)>> = vec![Vec::new(); n];
        let mut resp_send = vec![0usize; n];
        let mut resp_recv = vec![0usize; n];
        for (idx, combination) in local.combinations.iter().enumerate() {
            let ranges = local.slots(combination, n * k);
            // Sources: owners of the slots in the first bin.
            for u in ranges[0].start / k..ranges[0].end.div_ceil(k) {
                let found = search.k_nearest(&m, k, &ranges, u, h);
                resp_send[idx] += 2 * found.len();
                resp_recv[u] += 2 * found.len();
                responses[u].extend(found);
            }
        }
        if plan.is_some() {
            clique.charge_route_by_loads("knearest-responses", &resp_send, &resp_recv);
        }

        // --- Merge at each node: own row ∪ responses, keep k smallest. ---
        let rows: Vec<Vec<(NodeId, Weight)>> = (0..n)
            .map(|u| {
                for &(v, d) in abar.row(u).iter().chain(&responses[u]) {
                    search.lower(v, d);
                }
                search.take_k_smallest(k)
            })
            .collect();
        FilteredMatrix::from_rows(n, k, rows)
    })
}

/// Step 3's charge: every combination node learns the arcs in its bins.
fn charge_bin_transfer(clique: &mut Clique, plan: &BinPlan, n: usize, k: usize) {
    let mut send = vec![0usize; n];
    let mut recv = vec![0usize; n];
    for (idx, combination) in plan.combinations.iter().enumerate() {
        for r in plan.slots(combination, n * k) {
            recv[idx] += 2 * r.len();
            for pos in r {
                send[pos / k] += 2;
            }
        }
    }
    clique.charge_route_by_loads("knearest-bin-transfer", &send, &recv);
}

/// A combination node's working state, reused across its sources and the
/// per-node merge: the best distance found so far, the value each node had
/// at the end of the previous hop, the nodes lowered since the last reset,
/// and the nodes the previous hop lowered (`frontier`) or this hop lowers.
struct HopSearch {
    dist: Vec<Weight>,
    prev: Vec<Weight>,
    touched: Vec<NodeId>,
    frontier: Vec<NodeId>,
    next: Vec<NodeId>,
}

impl HopSearch {
    fn new(n: usize) -> Self {
        Self {
            dist: vec![INF; n],
            prev: vec![INF; n],
            touched: Vec::new(),
            frontier: Vec::new(),
            next: Vec::new(),
        }
    }

    /// Lowers `v` to `d` if that is smaller, remembering `v` for the reset.
    fn lower(&mut self, v: NodeId, d: Weight) {
        if d < self.dist[v] {
            if self.dist[v] == INF {
                self.touched.push(v);
            }
            self.dist[v] = d;
        }
    }

    /// The `k` smallest touched `(node, dist)`, by `(dist, node)`; resets
    /// every touched entry for the next use.
    fn take_k_smallest(&mut self, k: usize) -> Vec<(NodeId, Weight)> {
        let out = select_k_smallest(self.touched.iter().map(|&v| (v, self.dist[v])), k);
        for &v in &self.touched {
            self.dist[v] = INF;
            self.prev[v] = INF;
        }
        self.touched.clear();
        out
    }

    /// `src`'s `k` nearest within `≤h` hops over the arcs of M in `ranges`.
    /// Each hop scans only the slots owned by the nodes the previous hop
    /// lowered, clipped to `ranges`, and relaxes each from its previous-hop
    /// value, so no path exceeds `h` hops.
    fn k_nearest(
        &mut self,
        m: &[(NodeId, Weight)],
        k: usize,
        ranges: &[Range<usize>],
        src: NodeId,
        h: usize,
    ) -> Vec<(NodeId, Weight)> {
        self.lower(src, 0);
        self.prev[src] = 0;
        self.frontier.push(src);
        for _ in 0..h {
            for &x in &self.frontier {
                for r in ranges {
                    let slots = r.start.max(x * k)..r.end.min((x + 1) * k);
                    for &(v, w) in m.get(slots).unwrap_or_default() {
                        let cand = wadd(self.prev[x], w);
                        if cand < self.dist[v] {
                            // First lowering this hop: dist still equals prev.
                            if self.dist[v] == self.prev[v] {
                                self.next.push(v);
                            }
                            if self.dist[v] == INF {
                                self.touched.push(v);
                            }
                            self.dist[v] = cand;
                        }
                    }
                }
            }
            for &v in &self.next {
                self.prev[v] = self.dist[v];
            }
            std::mem::swap(&mut self.frontier, &mut self.next);
            self.next.clear();
            if self.frontier.is_empty() {
                break;
            }
        }
        self.frontier.clear();
        self.take_k_smallest(k)
    }
}

/// Lemma 5.2: `i` applications of [`one_round`], yielding each node's `k`
/// nearest under `h^i`-hop distances, in `O(i)` charged rounds.
pub fn iterated(
    clique: &mut Clique,
    start: &FilteredMatrix,
    h: usize,
    iterations: usize,
) -> FilteredMatrix {
    let mut cur = start.clone();
    for _ in 0..iterations {
        cur = one_round(clique, &cur, h);
    }
    cur
}

/// Lemma 3.3: given `G ∪ H` for a k-nearest `h^i`-hopset `H`, computes each
/// node's **exact** distances to its `k` nearest nodes in `O(i)` rounds.
///
/// The returned rows are `(node, exact distance)` sorted by
/// `(distance, id)`; row `u` contains `u` itself at distance 0.
pub fn k_nearest_exact(
    clique: &mut Clique,
    combined: &Graph,
    k: usize,
    h: usize,
    iterations: usize,
) -> FilteredMatrix {
    let start = FilteredMatrix::from_graph(combined, k);
    iterated(clique, &start, h, iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::graph::Direction;
    use cc_graph::{generators, sssp};
    use cc_matrix::dense::adjacency_matrix;
    use cc_matrix::filtered::filtered_power_reference;
    use clique_sim::Bandwidth;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn clique_for(n: usize) -> Clique {
        Clique::new(n, Bandwidth::standard(n))
    }

    fn random_digraph(n: usize, p: f64, seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for u in 0..n {
            for v in 0..n {
                if u != v && rng.gen_bool(p) {
                    edges.push((u, v, rng.gen_range(1..40u64)));
                }
            }
        }
        Graph::from_edges(n, Direction::Directed, &edges)
    }

    #[test]
    fn plan_bins_combination_count_fits_n() {
        for (n, k, h) in [(1024, 32, 2), (1024, 10, 3), (256, 16, 2), (4096, 8, 4)] {
            if let Some(plan) = plan_bins(n, k, h) {
                assert!(plan.combinations.len() <= n, "n={n} k={k} h={h}");
                assert!(plan.bins >= h);
                assert!(plan.bin_size > k);
            }
        }
    }

    #[test]
    fn plan_bins_none_for_degenerate_params() {
        // Tiny n with big h: p < h.
        assert!(plan_bins(8, 2, 5).is_none());
    }

    #[test]
    fn combinations_are_distinct_and_well_formed() {
        let plan = plan_bins(512, 22, 2).expect("plan");
        let mut seen = std::collections::HashSet::new();
        for (first, rest) in &plan.combinations {
            assert!(!rest.contains(first));
            let mut sorted = rest.clone();
            sorted.sort_unstable();
            assert_eq!(&sorted, rest, "rest must be sorted (canonical)");
            assert!(seen.insert((*first, rest.clone())), "duplicate combination");
        }
    }

    /// Lemma 5.1: the distributed algorithm computes exactly filter_k(Ā^h).
    #[test]
    fn one_round_matches_filtered_power() {
        for seed in 0..4 {
            let n = 60;
            let k = 5;
            let h = 2;
            let g = random_digraph(n, 0.15, seed);
            let abar = FilteredMatrix::from_graph(&g, k);
            let mut clique = clique_for(n);
            let out = one_round(&mut clique, &abar, h);
            let expect = filtered_power_reference(&abar.to_dense(), k, h as u64);
            assert_eq!(out, expect, "seed={seed}");
        }
    }

    #[test]
    fn one_round_broadcast_fallback_matches_reference() {
        let n = 30;
        let k = 2;
        let h = 6; // forces fallback: p < h at this n
        assert!(plan_bins(n, k, h).is_none());
        let g = random_digraph(n, 0.2, 9);
        let abar = FilteredMatrix::from_graph(&g, k);
        let mut clique = clique_for(n);
        let out = one_round(&mut clique, &abar, h);
        let expect = filtered_power_reference(&abar.to_dense(), k, h as u64);
        assert_eq!(out, expect);
        // The charge is the all-broadcast of every node's arcs, whatever the
        // local work: knearest-fallback-broadcast alone.
        assert_eq!(clique.rounds(), 8);
        assert_eq!(clique.traffic().total_words(), 120);
    }

    /// Lemma 5.2 + Lemma 5.5: i iterations give filter_k(A^(h^i)).
    #[test]
    fn iterated_matches_power_of_original_matrix() {
        let n = 48;
        let k = 4;
        let h = 2;
        let i = 3; // h^i = 8 hops
        let g = random_digraph(n, 0.12, 5);
        let start = FilteredMatrix::from_graph(&g, k);
        let mut clique = clique_for(n);
        let out = iterated(&mut clique, &start, h, i);
        let a = adjacency_matrix(&g);
        let expect = filtered_power_reference(&a, k, (h as u64).pow(i as u32));
        assert_eq!(out, expect);
    }

    /// Lemma 3.3: with enough hops, rows hold exact k-nearest distances.
    #[test]
    fn k_nearest_exact_matches_dijkstra() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::gnp_connected(50, 0.1, 1..=25, &mut rng);
        let k = 6;
        // Any k-nearest node is within k hops; h=2, i=ceil(log2 k)=3 ⇒ 8 ≥ 6.
        let mut clique = clique_for(g.n());
        let out = k_nearest_exact(&mut clique, &g, k, 2, 3);
        for u in 0..g.n() {
            let expect = sssp::k_nearest(&g, u, k);
            assert_eq!(out.row(u), &expect[..], "node {u}");
        }
    }

    #[test]
    fn rounds_scale_linearly_in_iterations() {
        let g = random_digraph(64, 0.1, 8);
        let start = FilteredMatrix::from_graph(&g, 4);
        let mut c1 = clique_for(64);
        iterated(&mut c1, &start, 2, 1);
        let mut c3 = clique_for(64);
        iterated(&mut c3, &start, 2, 3);
        assert!(c3.rounds() <= 3 * c1.rounds() + 3);
        assert!(c3.rounds() >= c1.rounds());
    }

    #[test]
    fn per_node_receive_load_is_linear() {
        // The lemma's requirement: every routing step has O(n) receive load.
        let n = 256;
        let k = 16; // = n^(1/2)
        let g = random_digraph(n, 0.05, 4);
        let abar = FilteredMatrix::from_graph(&g, k);
        let mut clique = clique_for(n);
        assert!(plan_bins(n, k, 2).is_some());
        let out = one_round(&mut clique, &abar, 2);
        assert_eq!(out.n(), n);
        // Rounds and words come from the bin geometry alone:
        // knearest-bin-transfer 16 + knearest-responses 8.
        assert_eq!(clique.rounds(), 24);
        assert_eq!(clique.traffic().total_words(), 171_184);
        // Check ledger: each routing event charged O(1) rounds for n-load.
        for ev in clique.ledger().events() {
            assert!(
                ev.rounds <= 16,
                "event {} charged {} rounds",
                ev.label,
                ev.rounds
            );
        }
    }

    #[test]
    fn self_distance_is_zero_in_output() {
        let g = random_digraph(40, 0.1, 6);
        let mut clique = clique_for(40);
        let out = k_nearest_exact(&mut clique, &g, 4, 2, 2);
        for u in 0..40 {
            assert!(out.row(u).contains(&(u, 0)), "node {u} missing (u, 0)");
        }
    }
}
