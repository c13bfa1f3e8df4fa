//! The paper's parameter formulas, with documented finite-n clamps.
//!
//! The paper's parameter choices are asymptotic; at feasible `n` (≤ a few
//! thousand, `log₂ n ≈ 10`) several of them degenerate (`h = a^(1/4)/2 < 1`,
//! `k = log⁴ n > n`, the reduction loop's profitability threshold
//! `15√a < a ⇔ a > 225` never triggers). Every formula used by the pipeline
//! lives here with its clamp, so the finite-n regime is explained in a
//! single place.

use cc_graph::{log2_ceil, Weight};

/// `⌈a·ln d⌉`-based hop bound of Lemma 4.2: a path to any `√n`-nearest node
/// needs at most `i* ≤ ⌈a ln d⌉ + 1` two-hop segments plus one closing edge,
/// so `β ≤ 2(⌈a ln d⌉ + 1) + 1`.
pub fn hopset_beta_bound(a: f64, diameter: Weight) -> usize {
    let d = diameter.max(2) as f64;
    let segments = (a.max(1.0) * d.ln()).ceil() as usize + 1;
    2 * segments + 1
}

/// Smallest `i ≥ 1` with `h^i ≥ beta`.
pub fn iterations_for_hops(h: usize, beta: usize) -> usize {
    let h = h.max(2);
    let mut i = 1;
    let mut reach = h;
    while reach < beta {
        reach = reach.saturating_mul(h);
        i += 1;
    }
    i
}

/// Lemma 3.1's inner parameters: `h = max(2, round(a^(1/4)/2))` and
/// `k = clamp(n^(1/h), 2, ⌊√n⌋)`.
///
/// Paper: `h = a^(1/4)/2`, `k = n^(1/h)`. Clamps: `h ≥ 2` (the bins
/// algorithm needs at least two hops per level to make progress), and
/// `k ≤ √n` because the hopset only serves the `√n`-nearest sets.
pub fn reduction_h_k(n: usize, a: f64) -> (usize, usize) {
    let h = ((a.max(1.0).powf(0.25) / 2.0).round() as usize).max(2);
    let sqrt_n = (n as f64).sqrt().floor() as usize;
    let k = ((n as f64).powf(1.0 / h as f64).floor() as usize).clamp(2, sqrt_n.max(2));
    (h, k)
}

/// The reduction loop stops improving once `15√a ≥ a`, i.e. at `a ≤ 225`.
pub const REDUCTION_PROFITABLE_ABOVE: f64 = 225.0;

/// Theorem 1.1's bandwidth-reduction skeleton parameter: the paper sets
/// `k₀ = log⁴ n`; we clamp to `⌊√n⌋` (above which the k-nearest step's
/// `k ∈ O(n^(1/h))` precondition is unsatisfiable at finite n).
pub fn theorem_1_1_k0(n: usize) -> usize {
    let log_n = log2_ceil(n) as usize;
    let sqrt_n = ((n as f64).sqrt().floor() as usize).max(2);
    log_n.pow(4).clamp(2, sqrt_n)
}

/// `(h, i)` for computing exact `k`-nearest sets directly on `G` (Theorem
/// 1.1, first step): needs `k ≤ n^(1/h)` and `h^i ≥ k` (every `k`-nearest
/// node is within `k` hops).
pub fn direct_knearest_h_i(n: usize, k: usize) -> (usize, usize) {
    let k = k.max(2);
    // Largest h with n^(1/h) ≥ k, i.e. h ≤ ln n / ln k.
    let h = (((n as f64).ln() / (k as f64).ln()).floor() as usize).max(2);
    let i = iterations_for_hops(h, k);
    (h, i)
}

/// Theorem 1.2's approximation bound at finite n: `log₂(n)^(2^-t)`, the
/// bound after `t` applications of Lemma 3.1 starting from an `O(log n)`
/// bootstrap. Reported next to measured stretch in experiment E2.
pub fn tradeoff_bound(n: usize, t: usize) -> f64 {
    let log_n = log2_ceil(n) as f64;
    log_n.powf(0.5f64.powi(t as i32))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beta_bound_grows_with_a_and_d() {
        assert!(hopset_beta_bound(2.0, 100) < hopset_beta_bound(4.0, 100));
        assert!(hopset_beta_bound(2.0, 100) < hopset_beta_bound(2.0, 10_000));
        assert!(hopset_beta_bound(1.0, 2) >= 3);
    }

    #[test]
    fn iterations_cover_beta() {
        for h in [2usize, 3, 5] {
            for beta in [1usize, 2, 7, 30, 1000] {
                let i = iterations_for_hops(h, beta);
                assert!(h.pow(i as u32) >= beta, "h={h} beta={beta} i={i}");
                if i > 1 {
                    assert!(h.pow((i - 1) as u32) < beta, "i not minimal");
                }
            }
        }
    }

    #[test]
    fn reduction_params_clamped() {
        let (h, k) = reduction_h_k(1024, 10.0);
        assert_eq!(h, 2); // 10^(1/4)/2 ≈ 0.9 → clamped to 2
        assert!(k <= 32);
        assert!(k >= 2);
        let (h_big, _) = reduction_h_k(1024, 10_000.0);
        assert_eq!(h_big, 5); // 10000^(1/4)/2 = 5
    }

    #[test]
    fn theorem_1_1_k0_clamps_to_sqrt_n() {
        // log⁴(1024) = 10⁴ ≫ √1024 = 32.
        assert_eq!(theorem_1_1_k0(1024), 32);
        assert!(theorem_1_1_k0(64) <= 8);
    }

    #[test]
    fn direct_knearest_satisfies_preconditions() {
        for n in [64usize, 256, 1024] {
            let k = theorem_1_1_k0(n);
            let (h, i) = direct_knearest_h_i(n, k);
            assert!(
                (n as f64).powf(1.0 / h as f64) + 1e-9 >= k as f64,
                "n={n} k={k} h={h}"
            );
            assert!(h.pow(i as u32) >= k);
        }
    }

    #[test]
    fn tradeoff_bound_decreases_in_t() {
        let n = 512;
        for t in 0..5 {
            assert!(tradeoff_bound(n, t) > tradeoff_bound(n, t + 1));
        }
        assert!(tradeoff_bound(n, 10) < 1.3); // approaches 1
    }
}
