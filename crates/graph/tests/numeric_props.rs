//! Property tests for the numeric helpers every algorithm builds on:
//! saturating semiring addition ([`cc_graph::wadd`]), the integer log
//! ([`cc_graph::log2_ceil`]), the stretch audit
//! ([`cc_graph::DistMatrix::stretch_vs`]), and the k-nearest selection
//! ([`cc_graph::sssp::k_nearest_from_dists`] over a dense row, and
//! [`cc_graph::sssp::select_k_smallest`] over the same entries in any order).

use cc_graph::sssp::{k_nearest_from_dists, select_k_smallest};
use cc_graph::{log2_ceil, wadd, DistMatrix, NodeId, StretchStats, Weight, INF};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// `wadd` never wraps, even when both operands sit just below `INF`,
    /// and `INF` absorbs regardless of the other operand.
    #[test]
    fn wadd_never_wraps_near_inf(a in 0u64..=u64::MAX, near in 0u64..1_000_000) {
        // Near-INF operands from both sides of the sentinel.
        let lo = INF - near.min(INF);
        let hi = INF.saturating_add(near);
        for &x in &[a, lo, hi] {
            for &y in &[lo, hi, INF] {
                let s = wadd(x, y);
                // Saturation: the result is a real sum or exactly INF —
                // never a wrapped-around small value.
                prop_assert!(s == INF || (s >= x && s >= y), "wadd({x}, {y}) = {s}");
            }
        }
        // Two finite operands below INF sum exactly (INF = u64::MAX / 4
        // guarantees headroom).
        let f1 = a % INF;
        let f2 = lo.min(INF - 1);
        let s = wadd(f1, f2);
        prop_assert!(s == INF || s == f1 + f2);
        prop_assert!(wadd(f1, f2) >= f1.min(INF));
    }

    /// `log2_ceil` agrees with the `f64::log2` ceiling (clamped to `n ≥ 2`,
    /// minimum 1, as documented) across 1..=2^20.
    #[test]
    fn log2_ceil_matches_f64(n in 1usize..=(1 << 20)) {
        let expect = ((n.max(2) as f64).log2().ceil() as u32).max(1);
        prop_assert_eq!(log2_ceil(n), expect, "n = {}", n);
        // Defining property: 2^(l-1) < n.max(2) ≤ 2^l.
        let l = log2_ceil(n);
        prop_assert!(n.max(2) <= 1usize << l);
        prop_assert!(n.max(2) > 1usize << (l - 1));
    }

    /// Auditing any distance matrix against itself reports zero
    /// underestimates, zero missing pairs, and stretch exactly 1 whenever
    /// any finite off-diagonal pair exists.
    #[test]
    fn stretch_vs_self_has_zero_underestimates(
        n in 1usize..12,
        weights in proptest::collection::vec(0u64..500, 144),
        inf_mask in proptest::collection::vec(any::<bool>(), 144),
    ) {
        let data: Vec<Weight> = (0..n * n)
            .map(|i| {
                let (u, v) = (i / n, i % n);
                if u == v {
                    0
                } else if inf_mask[i % inf_mask.len()] {
                    INF
                } else {
                    weights[i % weights.len()]
                }
            })
            .collect();
        let m = DistMatrix::from_raw(n, data);
        let stats = m.stretch_vs(&m);
        prop_assert_eq!(stats.underestimates, 0);
        prop_assert_eq!(stats.missing, 0);
        if stats.pairs > 0 {
            prop_assert!((stats.max_stretch - 1.0).abs() < 1e-12);
            prop_assert!((stats.mean_stretch - 1.0).abs() < 1e-12);
        }
        prop_assert!(stats.is_valid_approximation(1.0));
    }

    /// The sampled audit converges to the full audit: once `max_pairs`
    /// covers the whole ordered-pair universe, `audit_sampled` reports
    /// exactly the same statistics as the exhaustive `audit`, for any
    /// estimate/exact pair and any seed.
    #[test]
    fn sampled_audit_converges_to_full_audit(
        n in 1usize..10,
        exact_cells in proptest::collection::vec((0u8..4, 1u64..200), 100),
        est_cells in proptest::collection::vec((0u8..4, 1u64..600), 100),
        seed in any::<u64>(),
        slack in 0usize..50,
    ) {
        let matrix = |cells: &[(u8, u64)]| {
            let data: Vec<Weight> = (0..n * n)
                .map(|i| {
                    let (u, v) = (i / n, i % n);
                    let (sel, w) = cells[i % cells.len()];
                    if u == v { 0 } else if sel == 0 { INF } else { w }
                })
                .collect();
            DistMatrix::from_raw(n, data)
        };
        let (exact, est) = (matrix(&exact_cells), matrix(&est_cells));
        let full = StretchStats::audit(&est, &exact);
        let covering = n * (n.max(1) - 1) + slack;
        prop_assert_eq!(StretchStats::audit_sampled(&est, &exact, covering, seed), full);
        // An under-covering sample still never audits more pairs than asked
        // for, and stays deterministic per seed.
        if covering > 0 {
            let half = StretchStats::audit_sampled(&est, &exact, covering / 2, seed);
            prop_assert!(half.pairs <= covering / 2);
            prop_assert_eq!(
                half,
                StretchStats::audit_sampled(&est, &exact, covering / 2, seed)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The bounded selection returns exactly what sorting the whole row
    /// and truncating returns, for every `k` up to past the row length and
    /// for `usize::MAX`, on rows dense with ties and unreachable cells.
    #[test]
    fn k_nearest_selection_equals_the_full_sort(
        cells in proptest::collection::vec((0u8..6, 0u64..5), 0..81),
        keys in proptest::collection::vec(any::<u64>(), 81),
    ) {
        let row: Vec<Weight> = cells
            .iter()
            .map(|&(sel, w)| match sel {
                0 => INF,
                1 => INF - 1,
                _ => w,
            })
            .collect();
        let mut order: Vec<(Weight, NodeId)> = row
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, d)| d < INF)
            .map(|(v, d)| (d, v))
            .collect();
        order.sort_unstable();
        // The shared helper takes sparse entries in any order: the row's
        // finite entries, shuffled by sorting on random keys.
        let mut shuffled: Vec<(NodeId, Weight)> = order.iter().map(|&(d, v)| (v, d)).collect();
        shuffled.sort_by_key(|&(v, _)| keys[v]);
        for k in (0..=row.len() + 2).chain([usize::MAX]) {
            let expect: Vec<(NodeId, Weight)> =
                order.iter().take(k).map(|&(d, v)| (v, d)).collect();
            prop_assert_eq!(k_nearest_from_dists(&row, k), expect.clone(), "k = {}, row = {:?}", k, row);
            prop_assert_eq!(select_k_smallest(shuffled.iter().copied(), k), expect, "k = {}, entries = {:?}", k, shuffled);
        }
    }
}

/// Exhaustive boundary check around the `INF` sentinel (the exact values
/// where wrapping would occur if `wadd` used plain `+`).
#[test]
fn wadd_boundary_cases() {
    assert_eq!(wadd(0, 0), 0);
    assert_eq!(wadd(INF - 1, 0), INF - 1);
    assert_eq!(wadd(INF - 1, 1), INF);
    assert_eq!(wadd(INF, 0), INF);
    assert_eq!(wadd(u64::MAX, u64::MAX), INF);
    assert_eq!(wadd(u64::MAX, 1), INF);
    // Two finite operands sum exactly; a sum that crosses INF lands in the
    // "infinite" band (>= INF) without wrapping — INF = u64::MAX / 4 leaves
    // two bits of headroom.
    assert_eq!(wadd(INF - 1, INF - 1), 2 * (INF - 1));
    assert!(wadd(INF - 1, INF - 1) >= INF);
}
