//! Distance matrices and stretch auditing.
//!
//! [`DistMatrix`] is the dense `n × n` array of distances (or distance
//! estimates δ) that APSP algorithms produce. [`StretchStats`] audits an
//! estimate against exact distances and is the measurement every experiment
//! reports: an algorithm is an α-approximation iff
//! `d(u,v) ≤ δ(u,v) ≤ α·d(u,v)` for all pairs (Section 2.1).

use crate::{NodeId, Weight, INF};
use cc_par::ExecPolicy;

/// Dense `n × n` distance (or estimate) matrix, row-major.
#[derive(Clone, PartialEq, Eq)]
pub struct DistMatrix {
    n: usize,
    data: Vec<Weight>,
}

impl std::fmt::Debug for DistMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "DistMatrix(n={})", self.n)?;
        let show = self.n.min(8);
        for u in 0..show {
            let row: Vec<String> = (0..show)
                .map(|v| {
                    let d = self.get(u, v);
                    if d >= INF {
                        "∞".into()
                    } else {
                        d.to_string()
                    }
                })
                .collect();
            writeln!(
                f,
                "  [{}{}]",
                row.join(", "),
                if self.n > show { ", …" } else { "" }
            )?;
        }
        Ok(())
    }
}

impl DistMatrix {
    /// A matrix with zero diagonal and `INF` everywhere else.
    pub fn infinite(n: usize) -> Self {
        let mut m = Self {
            n,
            data: vec![INF; n * n],
        };
        for v in 0..n {
            m.set(v, v, 0);
        }
        m
    }

    /// Builds from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != n * n`.
    pub fn from_raw(n: usize, data: Vec<Weight>) -> Self {
        assert_eq!(data.len(), n * n, "raw distance data must be n*n");
        Self { n, data }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Entry `(u, v)`.
    #[inline]
    pub fn get(&self, u: NodeId, v: NodeId) -> Weight {
        self.data[u * self.n + v]
    }

    /// Sets entry `(u, v)`.
    #[inline]
    pub fn set(&mut self, u: NodeId, v: NodeId, d: Weight) {
        self.data[u * self.n + v] = d;
    }

    /// Lowers entry `(u, v)` to `d` if `d` is smaller.
    #[inline]
    pub fn relax(&mut self, u: NodeId, v: NodeId, d: Weight) {
        let e = &mut self.data[u * self.n + v];
        if d < *e {
            *e = d;
        }
    }

    /// Row `u` as a slice.
    pub fn row(&self, u: NodeId) -> &[Weight] {
        &self.data[u * self.n..(u + 1) * self.n]
    }

    /// Mutable row `u`.
    pub fn row_mut(&mut self, u: NodeId) -> &mut [Weight] {
        &mut self.data[u * self.n..(u + 1) * self.n]
    }

    /// Raw row-major data.
    pub fn raw(&self) -> &[Weight] {
        &self.data
    }

    /// Mutable raw row-major data, for row-blocked in-place updates.
    pub fn raw_mut(&mut self) -> &mut [Weight] {
        &mut self.data
    }

    /// Approximate resident memory of the matrix in bytes: the n² weight
    /// cells (struct overhead excluded). For dense backends, the daemon's
    /// `ccapsp_estimate_mem_bytes` gauge, `serve-admin info` and
    /// `BENCH_oracle.json` report this number.
    pub fn approx_mem_bytes(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<Weight>()) as u64
    }

    /// Replaces every entry with `min(self, other)` entrywise.
    pub fn entrywise_min(&mut self, other: &DistMatrix) {
        assert_eq!(self.n, other.n);
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            if b < *a {
                *a = b;
            }
        }
    }

    /// Makes the matrix symmetric by taking `min(m[u][v], m[v][u])`.
    ///
    /// Several intermediate estimates (hopset-derived distances, filtered
    /// k-nearest outputs) are formally directed even on undirected inputs
    /// (Section 4.1 notes `d'(v,u) ≠ d'(u,v)` is possible); the skeleton
    /// lemma requires a symmetric δ, so callers symmetrize first.
    pub fn symmetrize_min(&mut self) {
        for u in 0..self.n {
            for v in (u + 1)..self.n {
                let m = self.get(u, v).min(self.get(v, u));
                self.set(u, v, m);
                self.set(v, u, m);
            }
        }
    }

    /// Whether `m[u][v] == m[v][u]` for all pairs.
    pub fn is_symmetric(&self) -> bool {
        (0..self.n).all(|u| (0..u).all(|v| self.get(u, v) == self.get(v, u)))
    }

    /// Audits this matrix as an estimate of `exact`; see [`StretchStats`].
    pub fn stretch_vs(&self, exact: &DistMatrix) -> StretchStats {
        StretchStats::audit(self, exact)
    }

    /// [`DistMatrix::stretch_vs`] under an explicit [`ExecPolicy`].
    pub fn stretch_vs_with(&self, exact: &DistMatrix, exec: ExecPolicy) -> StretchStats {
        StretchStats::audit_with(self, exact, exec)
    }
}

/// The result of auditing a distance estimate δ against exact distances d.
///
/// For an α-approximation (Section 2.1) we need, for **every** pair,
/// `d(u,v) ≤ δ(u,v) ≤ α·d(u,v)`. The audit reports:
///
/// * [`underestimates`](Self::underestimates): pairs with `δ < d` — any
///   nonzero value means the output is not a valid distance estimate at all;
/// * [`max_stretch`](Self::max_stretch) / [`mean_stretch`](Self::mean_stretch)
///   over pairs with `0 < d < ∞`;
/// * [`missing`](Self::missing): reachable pairs estimated as `INF`.
#[derive(Debug, Clone, PartialEq)]
pub struct StretchStats {
    /// Number of ordered pairs with finite exact distance > 0.
    pub pairs: usize,
    /// Pairs where the estimate is below the true distance (must be 0).
    pub underestimates: usize,
    /// Reachable pairs the estimate reports as infinite.
    pub missing: usize,
    /// max δ(u,v)/d(u,v).
    pub max_stretch: f64,
    /// mean δ(u,v)/d(u,v).
    pub mean_stretch: f64,
    /// 99th percentile of δ(u,v)/d(u,v).
    pub p99_stretch: f64,
}

impl StretchStats {
    /// Computes stretch statistics of `estimate` against `exact`, under the
    /// `CC_THREADS` execution default; see [`StretchStats::audit_with`].
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn audit(estimate: &DistMatrix, exact: &DistMatrix) -> StretchStats {
        Self::audit_with(estimate, exact, ExecPolicy::from_env())
    }

    /// [`StretchStats::audit`] under an explicit [`ExecPolicy`]: rows are
    /// audited in parallel shards and the per-shard tallies merged in row
    /// order, so the result is identical for every policy (the ratio list is
    /// sorted before any float accumulation, which also fixes the summation
    /// order).
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn audit_with(estimate: &DistMatrix, exact: &DistMatrix, exec: ExecPolicy) -> StretchStats {
        assert_eq!(estimate.n(), exact.n(), "estimate/exact dimension mismatch");
        let n = exact.n();
        let shard_tallies: Vec<(Vec<f64>, usize, usize)> = exec.map_shards_collect(n, |rows| {
            let mut ratios: Vec<f64> = Vec::new();
            let mut under = 0usize;
            let mut missing = 0usize;
            for u in rows {
                for v in 0..n {
                    let d = exact.get(u, v);
                    if u == v || d == 0 || d >= INF {
                        continue;
                    }
                    let e = estimate.get(u, v);
                    if e >= INF {
                        missing += 1;
                        continue;
                    }
                    if e < d {
                        under += 1;
                    }
                    ratios.push(e as f64 / d as f64);
                }
            }
            vec![(ratios, under, missing)]
        });
        let mut ratios: Vec<f64> = Vec::new();
        let mut under = 0usize;
        let mut missing = 0usize;
        for (shard_ratios, shard_under, shard_missing) in shard_tallies {
            ratios.extend(shard_ratios);
            under += shard_under;
            missing += shard_missing;
        }
        Self::from_tally(ratios, under, missing)
    }

    /// Audits a **seeded random sample** of ordered pairs instead of all n²
    /// of them — the only affordable mode once estimates leave the dense
    /// regime (a full audit of an n = 50k sketch is 2.5 × 10⁹ pairs).
    ///
    /// Samples up to `max_pairs` distinct ordered pairs `(u, v)`, `u ≠ v`,
    /// with an RNG seeded by `seed`, then applies exactly the same per-pair
    /// tally as [`StretchStats::audit_with`] (pairs with `d = 0` or
    /// `d = ∞` are skipped, not resampled, so the reported
    /// [`pairs`](Self::pairs) can be smaller than `max_pairs`). The result
    /// is a deterministic function of `(n, max_pairs, seed)` and the two
    /// matrices.
    ///
    /// When `max_pairs` covers every ordered pair, the sample *is* the full
    /// pair set and the result is identical to [`StretchStats::audit`] —
    /// the convergence law the sampled-audit proptest pins down.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn audit_sampled(
        estimate: &DistMatrix,
        exact: &DistMatrix,
        max_pairs: usize,
        seed: u64,
    ) -> StretchStats {
        assert_eq!(estimate.n(), exact.n(), "estimate/exact dimension mismatch");
        let n = exact.n();
        let universe = n.saturating_mul(n.saturating_sub(1));
        let mut ratios: Vec<f64> = Vec::new();
        let mut under = 0usize;
        let mut missing = 0usize;
        let mut tally = |u: NodeId, v: NodeId| {
            let d = exact.get(u, v);
            if d == 0 || d >= INF {
                return;
            }
            let e = estimate.get(u, v);
            if e >= INF {
                missing += 1;
                return;
            }
            if e < d {
                under += 1;
            }
            ratios.push(e as f64 / d as f64);
        };
        if max_pairs >= universe {
            for u in 0..n {
                for v in 0..n {
                    if u != v {
                        tally(u, v);
                    }
                }
            }
        } else {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let mut seen = std::collections::HashSet::with_capacity(max_pairs);
            while seen.len() < max_pairs {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u != v && seen.insert(u * n + v) {
                    tally(u, v);
                }
            }
        }
        Self::from_tally(ratios, under, missing)
    }

    /// Finalizes a tally of per-pair stretch ratios (δ/d over audited pairs)
    /// into summary statistics. The ratio list is sorted before any float
    /// accumulation, which fixes the summation order whatever order the
    /// ratios were collected in. Public so callers auditing estimates that
    /// never materialize as a [`DistMatrix`] (e.g. sublinear oracle sketches
    /// audited row-by-row against sampled exact sources) produce the same
    /// statistics the matrix audits do.
    pub fn from_tally(mut ratios: Vec<f64>, under: usize, missing: usize) -> StretchStats {
        ratios.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
        let pairs = ratios.len() + missing;
        let max = ratios.last().copied().unwrap_or(1.0);
        let mean = if ratios.is_empty() {
            1.0
        } else {
            ratios.iter().sum::<f64>() / ratios.len() as f64
        };
        let p99 = if ratios.is_empty() {
            1.0
        } else {
            ratios[((ratios.len() - 1) as f64 * 0.99) as usize]
        };
        StretchStats {
            pairs,
            underestimates: under,
            missing,
            max_stretch: max,
            mean_stretch: mean,
            p99_stretch: p99,
        }
    }

    /// Whether the estimate is a valid α-approximation: never underestimates,
    /// never misses a reachable pair, and max stretch ≤ `alpha` (with a tiny
    /// float tolerance).
    pub fn is_valid_approximation(&self, alpha: f64) -> bool {
        self.underestimates == 0 && self.missing == 0 && self.max_stretch <= alpha + 1e-9
    }
}

impl std::fmt::Display for StretchStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "pairs={} stretch(max={:.3}, mean={:.3}, p99={:.3}) under={} missing={}",
            self.pairs,
            self.max_stretch,
            self.mean_stretch,
            self.p99_stretch,
            self.underestimates,
            self.missing
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infinite_matrix_has_zero_diagonal() {
        let m = DistMatrix::infinite(3);
        assert_eq!(m.get(1, 1), 0);
        assert_eq!(m.get(0, 2), INF);
    }

    #[test]
    fn relax_only_lowers() {
        let mut m = DistMatrix::infinite(2);
        m.relax(0, 1, 5);
        m.relax(0, 1, 9);
        assert_eq!(m.get(0, 1), 5);
        m.relax(0, 1, 3);
        assert_eq!(m.get(0, 1), 3);
    }

    #[test]
    fn symmetrize_takes_min() {
        let mut m = DistMatrix::infinite(2);
        m.set(0, 1, 7);
        m.set(1, 0, 3);
        assert!(!m.is_symmetric());
        m.symmetrize_min();
        assert_eq!(m.get(0, 1), 3);
        assert!(m.is_symmetric());
    }

    #[test]
    fn stretch_exact_estimate_is_one() {
        let mut exact = DistMatrix::infinite(3);
        exact.set(0, 1, 2);
        exact.set(1, 0, 2);
        let s = exact.clone().stretch_vs(&exact);
        assert_eq!(s.pairs, 2);
        assert_eq!(s.max_stretch, 1.0);
        assert!(s.is_valid_approximation(1.0));
    }

    #[test]
    fn stretch_detects_underestimate_and_missing() {
        let mut exact = DistMatrix::infinite(3);
        exact.set(0, 1, 10);
        exact.set(1, 0, 10);
        exact.set(0, 2, 4);
        exact.set(2, 0, 4);
        let mut est = exact.clone();
        est.set(0, 1, 5); // underestimate
        est.set(0, 2, INF); // missing
        let s = est.stretch_vs(&exact);
        assert_eq!(s.underestimates, 1);
        assert_eq!(s.missing, 1);
        assert!(!s.is_valid_approximation(100.0));
    }

    #[test]
    fn stretch_max_computed() {
        let mut exact = DistMatrix::infinite(2);
        exact.set(0, 1, 4);
        exact.set(1, 0, 4);
        let mut est = exact.clone();
        est.set(0, 1, 12);
        let s = est.stretch_vs(&exact);
        assert!((s.max_stretch - 3.0).abs() < 1e-12);
        assert!(s.is_valid_approximation(3.0));
        assert!(!s.is_valid_approximation(2.9));
    }

    #[test]
    fn approx_mem_bytes_is_cell_payload() {
        assert_eq!(DistMatrix::infinite(10).approx_mem_bytes(), 800);
        assert_eq!(DistMatrix::infinite(0).approx_mem_bytes(), 0);
    }

    #[test]
    fn sampled_audit_with_full_coverage_equals_full_audit() {
        let mut exact = DistMatrix::infinite(4);
        for (u, v, d) in [(0, 1, 10), (0, 2, 4), (1, 2, 6), (2, 3, 1)] {
            exact.set(u, v, d);
            exact.set(v, u, d);
        }
        let mut est = exact.clone();
        est.set(0, 1, 25);
        est.set(1, 0, 25);
        est.set(2, 3, INF);
        let full = est.stretch_vs(&exact);
        let sampled = StretchStats::audit_sampled(&est, &exact, 4 * 3, 99);
        assert_eq!(sampled, full);
        // Oversampling beyond the universe is the same full audit.
        assert_eq!(StretchStats::audit_sampled(&est, &exact, 10_000, 7), full);
    }

    #[test]
    fn sampled_audit_is_deterministic_per_seed_and_bounded() {
        let mut exact = DistMatrix::infinite(12);
        for u in 0..12 {
            for v in 0..12 {
                if u != v {
                    exact.set(u, v, (u + v) as Weight);
                }
            }
        }
        let est = exact.clone();
        let a = StretchStats::audit_sampled(&est, &exact, 20, 5);
        let b = StretchStats::audit_sampled(&est, &exact, 20, 5);
        assert_eq!(a, b);
        assert!(a.pairs <= 20);
        let c = StretchStats::audit_sampled(&est, &exact, 20, 6);
        assert!(c.pairs <= 20);
    }

    #[test]
    fn entrywise_min_combines() {
        let mut a = DistMatrix::infinite(2);
        a.set(0, 1, 9);
        let mut b = DistMatrix::infinite(2);
        b.set(0, 1, 4);
        a.entrywise_min(&b);
        assert_eq!(a.get(0, 1), 4);
    }
}
