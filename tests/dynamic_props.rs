//! Property tests for the dynamic update engine: batch canonicalization
//! laws, the incremental-vs-rebuild bit-identity invariant across graph
//! families × thread counts × kernel modes, and delta-chain replay/
//! compaction fingerprints.

use cc_apsp::oracle::OracleBackend;
use cc_dynamic::delta::{backend_state_fingerprint, compact, replay, state_fingerprint, Delta};
use cc_dynamic::incremental::{DynamicConfig, IncrementalOracle};
use cc_dynamic::update::{random_batch, EdgeChange, EdgeOp, MutationProfile, UpdateBatch};
use cc_graph::generators::Family;
use cc_graph::graph::Direction;
use cc_graph::{apsp, Graph};
use cc_matrix::engine::KernelMode;
use cc_par::ExecPolicy;
use cc_serve::service::OracleService;
use cc_serve::snapshot::{Snapshot, SnapshotMeta};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// The golden-fixture families the equivalence invariant is pinned on.
const FAMILIES: [Family; 4] = [
    Family::Gnp,
    Family::PowerLaw,
    Family::Grid,
    Family::Geometric,
];

/// Ops over a small id/weight domain; many collide on the same pair, which
/// is what exercises last-write-wins.
fn arbitrary_ops() -> impl Strategy<Value = Vec<EdgeOp>> {
    proptest::collection::vec((0usize..3, 0usize..8, 0usize..8, 1u64..40), 0..24).prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, u, v, w)| match kind {
                0 => EdgeOp::Insert(u, v, w),
                1 => EdgeOp::Delete(u, v),
                _ => EdgeOp::Reweight(u, v, w),
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Canonicalization is idempotent, normalizes endpoint order, and keeps
    /// exactly the last op per pair.
    #[test]
    fn canonicalization_is_idempotent_and_last_write_wins(ops in arbitrary_ops()) {
        let batch = UpdateBatch::new(ops.clone());
        let canonical = batch.canonicalize();
        prop_assert_eq!(canonical.canonicalize(), canonical.clone());
        // At most one op per unordered pair, sorted by key.
        let keys: Vec<_> = canonical.ops.iter().map(EdgeOp::key).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(&keys, &sorted);
        // Last write wins: for every key, the canonical op matches the last
        // declaration-order op with that key (endpoints normalized).
        for (i, op) in canonical.ops.iter().enumerate() {
            let last = ops.iter().rev().find(|o| o.key() == keys[i]).unwrap();
            let expect = match *last {
                EdgeOp::Insert(_, _, w) => EdgeOp::Insert(keys[i].0, keys[i].1, w),
                EdgeOp::Delete(_, _) => EdgeOp::Delete(keys[i].0, keys[i].1),
                EdgeOp::Reweight(_, _, w) => EdgeOp::Reweight(keys[i].0, keys[i].1, w),
            };
            prop_assert_eq!(*op, expect);
        }
    }

    /// Reordering ops that touch distinct pairs does not change the
    /// canonical form.
    #[test]
    fn canonicalization_is_order_insensitive_across_distinct_pairs(ops in arbitrary_ops()) {
        // Keep the first op per pair so every surviving pair is distinct.
        let mut seen = std::collections::HashSet::new();
        let distinct: Vec<EdgeOp> = ops
            .into_iter()
            .filter(|op| seen.insert(op.key()))
            .collect();
        let forward = UpdateBatch::new(distinct.clone()).canonicalize();
        let mut reversed = distinct.clone();
        reversed.reverse();
        prop_assert_eq!(UpdateBatch::new(reversed).canonicalize(), forward.clone());
        let mut rotated = distinct;
        let mid = rotated.len() / 2;
        if mid > 0 {
            rotated.rotate_left(mid);
        }
        prop_assert_eq!(UpdateBatch::new(rotated).canonicalize(), forward);
    }

    /// Parse/render is a lossless round trip.
    #[test]
    fn ops_text_round_trips(ops in arbitrary_ops()) {
        let batch = UpdateBatch::new(ops);
        prop_assert_eq!(UpdateBatch::parse(&batch.render()).unwrap(), batch);
    }
}

/// One update session on one family: mutate an exact state through several
/// random batches under the given exec/kernel config, asserting after every
/// batch that the incremental estimate is bit-identical to a from-scratch
/// recomputation on the post-update graph. Returns the final state
/// fingerprint so callers can compare across configs.
fn drive_family(family: Family, seed: u64, threads: usize, kernel: KernelMode) -> u64 {
    let n = 36;
    let mut rng = StdRng::seed_from_u64(seed);
    let g = family.generate(n, n as u64, &mut rng);
    let estimate = apsp::exact_apsp(&g);
    let exec = ExecPolicy::with_threads(threads);
    let mut engine =
        IncrementalOracle::new(g, estimate, "exact", seed, DynamicConfig { exec, kernel });
    let mut mutation_rng = StdRng::seed_from_u64(seed ^ 0xABCD);
    for (step, profile) in [
        MutationProfile::ReweightHeavy,
        MutationProfile::TopologyHeavy,
        MutationProfile::ReweightHeavy,
    ]
    .into_iter()
    .enumerate()
    {
        let batch = random_batch(engine.graph(), 4, profile, &mut mutation_rng);
        let before = engine.estimate().clone();
        let outcome = engine.apply(&batch).expect("generated batches are valid");
        // The delta carries exactly the rows that changed: the all-rows
        // diff against the state before the write is the reference.
        let diff: Vec<(usize, Vec<u64>)> = (0..n)
            .filter(|&s| engine.estimate().row(s) != before.row(s))
            .map(|s| (s, engine.estimate().row(s).to_vec()))
            .collect();
        assert_eq!(
            outcome.delta.rows,
            diff,
            "family {} step {step}: delta rows are not the changed rows",
            family.name()
        );
        let rebuilt = apsp::exact_apsp_with(engine.graph(), exec);
        assert_eq!(
            engine.estimate().raw(),
            rebuilt.raw(),
            "family {} step {step} ({:?}) diverged from a from-scratch rebuild",
            family.name(),
            outcome.strategy
        );
        // The cached fingerprint tracks every state change.
        assert_eq!(
            engine.fingerprint(),
            backend_state_fingerprint(engine.graph(), engine.backend()),
            "family {} step {step}",
            family.name()
        );
    }
    engine.fingerprint()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]

    /// The tentpole invariant: incremental output is byte-identical to a
    /// from-scratch rebuild on the post-update graph, for every golden
    /// fixture family, at 1 and 4 threads, under forced dense and sparse
    /// kernels — and the final state is identical across all those configs.
    #[test]
    fn incremental_equals_rebuild_across_families_threads_kernels(seed in 1u64..500) {
        for family in FAMILIES {
            let mut prints = Vec::new();
            for threads in [1usize, 4] {
                for kernel in [KernelMode::Dense, KernelMode::Sparse] {
                    prints.push(drive_family(family, seed, threads, kernel));
                }
            }
            prop_assert!(
                prints.windows(2).all(|w| w[0] == w[1]),
                "family {} fingerprints diverged across configs: {:?}",
                family.name(),
                prints
            );
        }
    }

    /// Delta chains: replay reproduces the engine's final state, compaction
    /// reproduces the direct snapshot fingerprint, and the serving-layer
    /// snapshot apply path agrees.
    #[test]
    fn delta_chains_replay_and_compact_to_the_direct_state(seed in 1u64..500) {
        let n = 32;
        let mut rng = StdRng::seed_from_u64(seed);
        let g = Family::Gnp.generate(n, n as u64, &mut rng);
        let estimate = apsp::exact_apsp(&g);
        let mut engine = IncrementalOracle::new(
            g.clone(),
            estimate.clone(),
            "exact",
            seed,
            DynamicConfig::default(),
        );
        let mut mutation_rng = StdRng::seed_from_u64(seed.wrapping_mul(31));
        let mut deltas: Vec<Delta> = Vec::new();
        for profile in [
            MutationProfile::TopologyHeavy,
            MutationProfile::ReweightHeavy,
            MutationProfile::TopologyHeavy,
        ] {
            let batch = random_batch(engine.graph(), 3, profile, &mut mutation_rng);
            deltas.push(engine.apply(&batch).expect("valid").delta);
        }

        // Chain replay lands exactly on the engine's state.
        let base = OracleBackend::Dense(estimate.clone());
        let (rg, rb) = replay(&g, &base, &deltas).expect("chain replays");
        prop_assert_eq!(&rg, engine.graph());
        prop_assert_eq!(rb.as_dense(), Some(engine.estimate()));

        // Compaction reproduces the direct snapshot fingerprint.
        let (merged, cg, cb) = compact(&g, &base, &deltas).expect("compacts");
        let direct = state_fingerprint(engine.graph(), engine.estimate());
        prop_assert_eq!(backend_state_fingerprint(&cg, &cb), direct);
        let (ag, ab) = merged.apply(&g, &base).expect("merged applies");
        prop_assert_eq!(backend_state_fingerprint(&ag, &ab), direct);

        // And the serving-layer snapshot path agrees delta by delta.
        let meta = SnapshotMeta {
            algo: "exact".into(),
            seed,
            stretch_bound: 1.0,
            rounds: 0,
            source: "dynamic_props".into(),
        };
        let (mut service, id) = OracleService::single(Snapshot::new(g, estimate, meta));
        for d in &deltas {
            service.apply_delta("default", d).expect("service applies delta");
        }
        prop_assert_eq!(service.export(id).state_fingerprint(), direct);
    }
}

/// The reference for `UpdateBatch::apply_to`'s graph, as `apply_to` built
/// it before the CSR patch: the base edge list edited through a map and
/// rebuilt by `Graph::from_edges`.
fn rebuilt_through_edge_map(base: &Graph, changes: &[EdgeChange]) -> Graph {
    let mut edges: BTreeMap<(usize, usize), u64> = base
        .edges()
        .into_iter()
        .map(|(u, v, w)| ((u, v), w))
        .collect();
    for c in changes {
        match c.new {
            Some(w) => {
                edges.insert((c.u, c.v), w);
            }
            None => {
                edges.remove(&(c.u, c.v));
            }
        }
    }
    let list: Vec<(usize, usize, u64)> = edges.into_iter().map(|((u, v), w)| (u, v, w)).collect();
    Graph::from_edges(base.n(), Direction::Undirected, &list)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The CSR patch equals the rebuild on every family, under chained
    /// topology- and reweight-heavy batches.
    #[test]
    fn csr_patch_equals_the_rebuild(seed in 1u64..500) {
        for family in Family::ALL {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut g = family.generate(40, 40, &mut rng);
            for profile in [
                MutationProfile::TopologyHeavy,
                MutationProfile::ReweightHeavy,
                MutationProfile::TopologyHeavy,
            ] {
                let batch = random_batch(&g, 6, profile, &mut rng);
                let (patched, changes) = batch.apply_to(&g).expect("generated batches are valid");
                prop_assert_eq!(&patched, &rebuilt_through_edge_map(&g, &changes), "{}", family.name());
                g = patched;
            }
        }
    }
}

/// The CSR patch at the array ends and on nodes it empties or fills.
#[test]
fn csr_patch_handles_the_ends_and_emptied_nodes() {
    let path = Graph::from_edges(
        5,
        Direction::Undirected,
        &[(0, 1, 2), (1, 2, 3), (2, 3, 1), (3, 4, 5), (1, 3, 7)],
    );
    let cases = [
        (path.clone(), vec![EdgeOp::Delete(0, 1)]),
        (path.clone(), vec![EdgeOp::Delete(4, 3)]),
        (path.clone(), vec![EdgeOp::Insert(0, 4, 9)]),
        (
            path.clone(),
            vec![EdgeOp::Delete(0, 1), EdgeOp::Insert(4, 0, 1)],
        ),
        (
            path,
            vec![
                EdgeOp::Delete(0, 1),
                EdgeOp::Delete(3, 4),
                EdgeOp::Insert(0, 2, 1),
                EdgeOp::Reweight(1, 3, 1),
            ],
        ),
        (
            Graph::empty(3, Direction::Undirected),
            vec![EdgeOp::Insert(0, 2, 4)],
        ),
    ];
    for (base, ops) in cases {
        let (patched, changes) = UpdateBatch::new(ops.clone())
            .apply_to(&base)
            .expect("valid");
        assert_eq!(
            patched,
            rebuilt_through_edge_map(&base, &changes),
            "{ops:?}"
        );
    }
}

/// Directed graphs are rejected up front — the repair math assumes
/// symmetric distances.
#[test]
fn directed_graphs_are_rejected() {
    let g = Graph::from_edges(4, Direction::Directed, &[(0, 1, 1), (1, 2, 1)]);
    let estimate = apsp::exact_apsp(&g);
    let mut engine = IncrementalOracle::new(g, estimate, "exact", 1, DynamicConfig::default());
    assert!(engine
        .apply(&UpdateBatch::new(vec![EdgeOp::Insert(0, 3, 1)]))
        .is_err());
}
