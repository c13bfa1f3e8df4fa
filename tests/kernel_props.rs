//! Property tests for the min-plus kernel engine: the branchless lane
//! kernel (u64/u32/u16 widths, products and self-products alike), the
//! sparse kernel, and the `KernelPlan` auto-dispatcher must all be
//! **bit-identical** to the naive reference
//! `cc_matrix::dense::distance_product` — across densities, tile sizes
//! (including the degenerate `1` and `≥ n`), thread counts, weights
//! straddling both compact entry bounds, and dispatch modes. The engine's
//! closure, which holds its matrix narrow between squares, must equal the
//! reference loop `cc_matrix::dense::closure`.

use cc_graph::{DistMatrix, Weight, INF};
use cc_matrix::dense::{distance_product_lanes_opts, distance_product_with};
use cc_matrix::engine::{
    self, KernelChoice, KernelMode, KernelPlan, COMPACT_MAX_ENTRY, SPARSE_FILL_CUTOFF,
    ULTRA_MAX_ENTRY,
};
use cc_matrix::sparse::SparseMatrix;
use cc_par::ExecPolicy;
use proptest::prelude::*;

const THREADS: [usize; 3] = [1, 2, 4];
const MODES: [KernelMode; 3] = [KernelMode::Auto, KernelMode::Dense, KernelMode::Sparse];

/// Strategy: a dense tropical matrix whose fill and weight range both vary
/// (the `sel` byte keeps roughly `1/den` of the entries finite), so cases
/// land on every side of the dispatcher's cutoffs.
fn arb_matrix(n: usize, den: u8, max_w: Weight) -> impl Strategy<Value = DistMatrix> {
    proptest::collection::vec((0u8..den, 0..=max_w), n * n..=n * n).prop_map(move |cells| {
        let data = cells
            .into_iter()
            .map(|(sel, w)| if sel == 0 { w } else { INF })
            .collect();
        DistMatrix::from_raw(n, data)
    })
}

/// Strategy: an adjacency-shaped matrix (zero diagonal; roughly `1/den` of
/// the other entries finite) with weights in `max_w/4..=max_w`. At `max_w`
/// half an entry bound, a shortest path of three or more arcs is past that
/// bound, so the largest finite entry crosses it between squarings.
fn arb_adjacency(n: usize, den: u8, max_w: Weight) -> impl Strategy<Value = DistMatrix> {
    proptest::collection::vec((0u8..den, max_w / 4..=max_w), n * n..=n * n).prop_map(move |cells| {
        let data = cells
            .into_iter()
            .enumerate()
            .map(|(i, (sel, w))| match (i / n == i % n, sel) {
                (true, _) => 0,
                (false, 0) => w,
                (false, _) => INF,
            })
            .collect();
        DistMatrix::from_raw(n, data)
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The engine's closure, which keeps its matrix at the width of the
    /// last kernel between squares, equals the reference loop
    /// `dense::closure` in both matrix and squaring count, for every mode
    /// and thread count: on adjacency-shaped inputs whose largest entry
    /// crosses `ULTRA_MAX_ENTRY` or `COMPACT_MAX_ENTRY` between squarings
    /// (sparse at first under auto when `den` is large), on inputs with an
    /// arbitrary diagonal, and on inputs with a few entries above `INF`.
    #[test]
    fn engine_closure_equals_dense_closure_at_every_width(
        adjacency in (0usize..2, 2u8..9).prop_flat_map(|(bound, den)| {
            arb_adjacency(14, den, [ULTRA_MAX_ENTRY, COMPACT_MAX_ENTRY][bound] / 2)
        }),
        any_diagonal in arb_matrix(12, 3, ULTRA_MAX_ENTRY / 2),
        above_inf in (
            arb_matrix(10, 2, 400),
            proptest::collection::vec((0usize..100, 0..=INF), 1..4),
        ).prop_map(|(mut m, cells)| {
            for (i, over) in cells {
                m.set(i / 10, i % 10, INF + over);
            }
            m
        }),
    ) {
        for a in [&adjacency, &any_diagonal, &above_inf] {
            let (reference, ref_squarings) = cc_matrix::dense::closure(a);
            for mode in MODES {
                for threads in THREADS {
                    let exec = ExecPolicy::with_threads(threads);
                    let (out, squarings) = engine::closure(a, mode, exec, |_| {});
                    prop_assert_eq!(&out, &reference, "mode={} threads={}", mode, threads);
                    prop_assert_eq!(squarings, ref_squarings, "mode={} threads={}", mode, threads);
                }
            }
        }
    }

    /// Engine dispatch equivalence: every mode (and therefore every kernel
    /// the plans resolve to) produces the naive result, across a density
    /// spread from nearly-empty to nearly-full and weights that straddle
    /// the compact kernel's entry bound.
    #[test]
    fn engine_modes_equal_naive_across_densities(
        a in arb_matrix(11, 5, COMPACT_MAX_ENTRY * 2),
        b in arb_matrix(11, 2, 500),
    ) {
        let naive = distance_product_with(&a, &b, ExecPolicy::Seq);
        for mode in MODES {
            for threads in THREADS {
                let out = engine::min_plus(&a, &b, mode, ExecPolicy::with_threads(threads));
                prop_assert_eq!(&out, &naive, "mode={} threads={}", mode, threads);
            }
        }
    }

    /// The plan itself is lawful: forced modes are honored, the auto choice
    /// follows the documented sampled-fill cutoff, and the compact kernel is
    /// only ever chosen when every finite entry fits its bound.
    #[test]
    fn kernel_plan_dispatch_is_lawful(
        a in arb_matrix(12, 4, COMPACT_MAX_ENTRY * 2),
        b in arb_matrix(12, 4, 90),
    ) {
        let auto = KernelPlan::choose(&a, &b, KernelMode::Auto);
        // At n=12 every row is sampled, so the plan's fill is exact.
        prop_assert_eq!(
            auto.choice == KernelChoice::SparseSharded,
            auto.fill_a * auto.fill_b <= SPARSE_FILL_CUTOFF,
            "auto choice {} vs fills {} × {}", auto.choice, auto.fill_a, auto.fill_b
        );
        prop_assert_eq!(KernelPlan::choose(&a, &b, KernelMode::Sparse).choice,
            KernelChoice::SparseSharded);
        let dense = KernelPlan::choose(&a, &b, KernelMode::Dense);
        prop_assert!(dense.choice != KernelChoice::SparseSharded);
        if dense.choice == KernelChoice::DenseCompact {
            let bounded = |m: &DistMatrix| m.raw().iter().all(|&w| w >= INF || w <= COMPACT_MAX_ENTRY);
            prop_assert!(bounded(&a) && bounded(&b), "compact chosen with wide entries");
        }
    }

    /// Engine exponentiation (per-multiply re-planning) equals the naive
    /// dense power for every mode.
    #[test]
    fn engine_power_equals_dense_power(
        a in arb_matrix(9, 3, 200),
        h in 0u64..7,
    ) {
        let reference = cc_matrix::dense::power(&a, h);
        for mode in MODES {
            let out = engine::power(&a, h, mode, ExecPolicy::Seq);
            prop_assert_eq!(&out, &reference, "mode={} h={}", mode, h);
        }
    }

    /// The branchless lane kernel equals the naive reference for every tile
    /// size — including tile 1 (degenerate), 7 (never divides n evenly), 64
    /// (the default), and n (a single tile) — at every thread count, with
    /// weights wide enough to exercise the INF-skip path, for `A ⋆ B` and
    /// for the self-products `A ⋆ A` and `C ⋆ C` every squaring runs.
    #[test]
    fn lanes_equals_naive_for_all_tiles_and_threads(
        a in arb_matrix(13, 3, COMPACT_MAX_ENTRY * 2),
        b in arb_matrix(13, 3, 300),
        c in arb_matrix(13, 2, 400),
    ) {
        for (x, y) in [(&a, &b), (&a, &a), (&c, &c)] {
            let naive = distance_product_with(x, y, ExecPolicy::Seq);
            for tile in [1usize, 7, 64, 13] {
                for threads in THREADS {
                    let out = distance_product_lanes_opts(x, y, ExecPolicy::with_threads(threads), tile);
                    prop_assert_eq!(&out, &naive, "tile={} threads={}", tile, threads);
                }
            }
        }
    }

    /// Weights straddling `ULTRA_MAX_ENTRY`: matrices land on either side of
    /// the u16 bound (and occasionally cross it entry-by-entry), so the
    /// engine exercises the ultra kernel, the compact kernel, and the
    /// demotion between them — all bit-identical to naive, for both the
    /// general product and the self-product square path.
    #[test]
    fn engine_square_and_product_straddle_the_ultra_bound(
        a in arb_matrix(11, 3, ULTRA_MAX_ENTRY * 2),
        b in arb_matrix(11, 3, ULTRA_MAX_ENTRY / 2),
    ) {
        let product_ref = distance_product_with(&a, &b, ExecPolicy::Seq);
        let square_ref = distance_product_with(&a, &a, ExecPolicy::Seq);
        for mode in MODES {
            for threads in THREADS {
                let exec = ExecPolicy::with_threads(threads);
                prop_assert_eq!(
                    &engine::min_plus(&a, &b, mode, exec), &product_ref,
                    "product mode={} threads={}", mode, threads
                );
                prop_assert_eq!(
                    &engine::square(&a, mode, exec), &square_ref,
                    "square mode={} threads={}", mode, threads
                );
            }
        }
    }

    /// Dispatch lawfulness for the v2 arms: the ultra kernel is only ever
    /// chosen when every finite entry of *both* operands fits the u16
    /// bound, the compact kernel only under its u32 bound, and a forced
    /// dense mode always picks the narrowest lawful width.
    #[test]
    fn v2_dense_dispatch_is_lawful(
        a in arb_matrix(12, 4, ULTRA_MAX_ENTRY * 3),
        b in arb_matrix(12, 4, ULTRA_MAX_ENTRY * 3),
    ) {
        let bounded = |m: &DistMatrix, bound: Weight| {
            m.raw().iter().all(|&w| w >= INF || w <= bound)
        };
        let dense = KernelPlan::choose(&a, &b, KernelMode::Dense);
        match dense.choice {
            KernelChoice::DenseUltra => {
                prop_assert!(bounded(&a, ULTRA_MAX_ENTRY) && bounded(&b, ULTRA_MAX_ENTRY),
                    "ultra chosen with entries past the u16 bound");
            }
            KernelChoice::DenseCompact => {
                prop_assert!(bounded(&a, COMPACT_MAX_ENTRY) && bounded(&b, COMPACT_MAX_ENTRY),
                    "compact chosen with entries past the u32 bound");
                // At n=12 the entry cap is sampled exactly, so compact
                // implies at least one entry genuinely needed > u16.
                prop_assert!(!(bounded(&a, ULTRA_MAX_ENTRY) && bounded(&b, ULTRA_MAX_ENTRY)),
                    "compact chosen where ultra was lawful");
            }
            KernelChoice::DenseLanes => {
                prop_assert!(!(bounded(&a, COMPACT_MAX_ENTRY) && bounded(&b, COMPACT_MAX_ENTRY)),
                    "wide lanes chosen where a narrower width was lawful");
            }
            KernelChoice::SparseSharded => prop_assert!(false, "Dense mode picked sparse"),
        }
        prop_assert!(dense.choice.lane_width().is_some());
    }
}

/// Strategy-free regression: a sparse matrix whose rows are 90% empty —
/// the empty-row fast path in `sparse_product_with` must not change any
/// row, and the engine's planned sparse product must agree for every mode.
#[test]
fn ninety_percent_empty_rows_sparse_product() {
    let n = 50;
    let rows: Vec<Vec<(usize, Weight)>> = (0..n)
        .map(|i| {
            if i % 10 == 3 {
                vec![(i % n, 4), ((i * 7 + 1) % n, 9), ((i * 13 + 2) % n, 2)]
            } else {
                Vec::new()
            }
        })
        .collect();
    let s = SparseMatrix::from_rows(n, rows);
    assert!((0..n).filter(|&i| s.row(i).is_empty()).count() >= (9 * n) / 10);
    let t = SparseMatrix::from_rows(
        n,
        (0..n)
            .map(|i| vec![((i + 1) % n, 1), ((i * 3 + 5) % n, 7)])
            .collect(),
    );
    let (reference, _) =
        engine::sparse_product_planned(&s, &t, None, KernelMode::Sparse, ExecPolicy::Seq);
    // Dense reference check.
    let mut sd = DistMatrix::from_raw(n, vec![INF; n * n]);
    for u in 0..n {
        for &(v, w) in s.row(u) {
            sd.set(u, v, w);
        }
    }
    let mut td = DistMatrix::from_raw(n, vec![INF; n * n]);
    for u in 0..n {
        for &(v, w) in t.row(u) {
            td.set(u, v, w);
        }
    }
    let dense_ref = distance_product_with(&sd, &td, ExecPolicy::Seq);
    for u in 0..n {
        for v in 0..n {
            assert_eq!(reference.matrix.get(u, v), dense_ref.get(u, v), "({u},{v})");
        }
        if s.row(u).is_empty() {
            assert!(reference.matrix.row(u).is_empty(), "row {u} not empty");
        }
    }
    // Mode invariance, including the round charge.
    for mode in MODES {
        for threads in THREADS {
            let (out, _) = engine::sparse_product_planned(
                &s,
                &t,
                None,
                mode,
                ExecPolicy::with_threads(threads),
            );
            assert_eq!(
                out.matrix, reference.matrix,
                "mode={mode} threads={threads}"
            );
            assert_eq!(out.densities, reference.densities);
            assert_eq!(out.rounds, reference.rounds);
        }
    }
}
