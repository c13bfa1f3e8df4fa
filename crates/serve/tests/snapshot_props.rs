//! Property tests for the snapshot format: `save → load` is bit-identical
//! for arbitrary graphs and estimates, and every class of corruption maps
//! to a typed error instead of a panic or a silently wrong artifact. The
//! `*.ccdelta` format shares the snapshot's section framing, so arbitrary
//! deltas ride along as one more input to the same properties.

use cc_dynamic::update::{EdgeOp, UpdateBatch};
use cc_dynamic::{Delta, DeltaError, DeltaStrategy};
use cc_graph::graph::{Direction, Graph};
use cc_graph::{DistMatrix, NodeId, Weight, INF};
use cc_serve::snapshot::{
    Snapshot, SnapshotError, SnapshotMeta, FORMAT_VERSION, LEGACY_VERSION, MAGIC,
};
use proptest::prelude::*;

/// Strategy: an arbitrary weighted graph — possibly disconnected, directed
/// or undirected, with isolated nodes.
fn arb_graph(max_n: usize, max_w: Weight) -> impl Strategy<Value = Graph> {
    (1usize..max_n, any::<bool>()).prop_flat_map(move |(n, directed)| {
        let edges = proptest::collection::vec((0..n, 0..n, 1..=max_w), 0..4 * n);
        (Just(n), Just(directed), edges).prop_map(|(n, directed, edges)| {
            let direction = if directed {
                Direction::Directed
            } else {
                Direction::Undirected
            };
            let edges: Vec<(NodeId, NodeId, Weight)> =
                edges.into_iter().filter(|&(u, v, _)| u != v).collect();
            Graph::from_edges(n, direction, &edges)
        })
    })
}

/// Strategy: an arbitrary estimate for `n` nodes (INF entries included).
fn arb_estimate(n: usize, max_w: Weight) -> impl Strategy<Value = DistMatrix> {
    proptest::collection::vec((0u8..4, 0..=max_w), n * n..=n * n).prop_map(move |cells| {
        let data = cells
            .into_iter()
            .map(|(sel, w)| if sel == 0 { INF } else { w })
            .collect();
        DistMatrix::from_raw(n, data)
    })
}

fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
    (arb_graph(24, 50), any::<u64>(), 0u32..4).prop_flat_map(|(g, seed, algo_sel)| {
        let n = g.n();
        (Just(g), arb_estimate(n, 200), Just(seed), Just(algo_sel)).prop_map(
            |(g, est, seed, algo_sel)| {
                let algo = ["thm11", "thm81", "exact", "spanner"][algo_sel as usize];
                Snapshot::new(
                    g,
                    est,
                    SnapshotMeta {
                        algo: algo.into(),
                        seed,
                        stretch_bound: 1.0 + (seed % 100) as f64 / 10.0,
                        rounds: seed % 1000,
                        source: format!("prop(seed={seed})"),
                    },
                )
            },
        )
    })
}

/// Strategy: a snapshot whose backend is a landmark sketch built from an
/// arbitrary undirected graph (sketches assume symmetric distances).
fn arb_landmark_snapshot() -> impl Strategy<Value = Snapshot> {
    (1usize..20, any::<u64>()).prop_flat_map(|(n, seed)| {
        let edges = proptest::collection::vec((0..n, 0..n, 1..=50 as Weight), 0..4 * n);
        (Just(n), Just(seed), edges).prop_map(|(n, seed, edges)| {
            let edges: Vec<(NodeId, NodeId, Weight)> =
                edges.into_iter().filter(|&(u, v, _)| u != v).collect();
            let g = Graph::from_edges(n, Direction::Undirected, &edges);
            let sketch =
                cc_apsp::landmark::LandmarkSketch::build(&g, seed, cc_par::ExecPolicy::Seq);
            Snapshot::with_backend(
                g,
                cc_apsp::oracle::OracleBackend::Landmark(sketch),
                SnapshotMeta {
                    algo: "landmark".into(),
                    seed,
                    stretch_bound: 3.0,
                    rounds: 0,
                    source: format!("prop(seed={seed})"),
                },
            )
        })
    })
}

/// Strategy: an arbitrary well-formed delta — any node count, op list and
/// strictly increasing row set (decoding does not check fingerprints, so
/// those are arbitrary too).
fn arb_delta() -> impl Strategy<Value = Delta> {
    (1usize..12, any::<u64>(), any::<bool>()).prop_flat_map(|(n, print, rebuilt)| {
        let ops = proptest::collection::vec((0u8..3, 0..n, 0..n, 1..=50 as Weight), 0..8);
        let rows = proptest::collection::vec(
            (
                any::<bool>(),
                proptest::collection::vec(0..=200 as Weight, n..=n),
            ),
            n..=n,
        );
        (Just(n), Just(print), Just(rebuilt), ops, rows).prop_map(
            |(n, print, rebuilt, ops, rows)| Delta {
                n,
                strategy: if rebuilt {
                    DeltaStrategy::Rebuilt
                } else {
                    DeltaStrategy::Repaired
                },
                base_fingerprint: print,
                result_fingerprint: print.rotate_left(17),
                batch: UpdateBatch::new(
                    ops.into_iter()
                        .map(|(sel, u, v, w)| match sel {
                            0 => EdgeOp::Insert(u, v, w),
                            1 => EdgeOp::Delete(u, v),
                            _ => EdgeOp::Reweight(u, v, w),
                        })
                        .collect(),
                ),
                rows: rows
                    .into_iter()
                    .enumerate()
                    .filter(|(_, (keep, _))| *keep)
                    .map(|(i, (_, row))| (i, row))
                    .collect(),
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The round-trip law: decode(encode(s)) == s and the canonical bytes
    /// are stable — encode(decode(encode(s))) == encode(s).
    #[test]
    fn save_load_round_trip_is_bit_identical(snap in arb_snapshot(), delta in arb_delta()) {
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes).expect("decode of freshly encoded snapshot");
        prop_assert_eq!(&back, &snap);
        prop_assert_eq!(back.to_bytes(), bytes);
        let bytes = delta.to_bytes();
        let back = Delta::from_bytes(&bytes).expect("decode of freshly encoded delta");
        prop_assert_eq!(&back, &delta);
        prop_assert_eq!(back.to_bytes(), bytes);
    }

    /// The same round-trip law for landmark-backed snapshots.
    #[test]
    fn landmark_save_load_round_trip_is_bit_identical(snap in arb_landmark_snapshot()) {
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes).expect("decode of freshly encoded snapshot");
        prop_assert_eq!(&back, &snap);
        prop_assert_eq!(back.to_bytes(), bytes);
    }

    /// Truncating a landmark snapshot anywhere is Truncated, and flipping a
    /// payload byte is a checksum mismatch — the corruption guarantees hold
    /// for the new estimate-section layout too.
    #[test]
    fn landmark_corruption_is_detected(snap in arb_landmark_snapshot(), cut in 0u64..1000, off in 0usize..8, flip in 1u8..=255) {
        let bytes = snap.to_bytes();
        let len = (bytes.len() - 1) * cut as usize / 1000;
        let err = Snapshot::from_bytes(&bytes[..len]).unwrap_err();
        prop_assert!(
            matches!(err, SnapshotError::Truncated { .. }),
            "prefix {} of {} gave {:?}", len, bytes.len(), err
        );
        let payload_start = MAGIC.len() + 4 + 4 + (4 + 8 + 8);
        let mut corrupt = bytes.clone();
        corrupt[payload_start + off] ^= flip;
        prop_assert!(matches!(
            Snapshot::from_bytes(&corrupt),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    /// Every strict prefix of a valid snapshot is Truncated — never a panic,
    /// never a success.
    #[test]
    fn any_truncation_is_detected(snap in arb_snapshot(), delta in arb_delta(), cut in 0u64..1000) {
        let bytes = snap.to_bytes();
        let len = (bytes.len() - 1) * cut as usize / 1000;
        let err = Snapshot::from_bytes(&bytes[..len]).unwrap_err();
        prop_assert!(
            matches!(err, SnapshotError::Truncated { .. }),
            "prefix {} of {} gave {:?}", len, bytes.len(), err
        );
        let bytes = delta.to_bytes();
        let len = (bytes.len() - 1) * cut as usize / 1000;
        let err = Delta::from_bytes(&bytes[..len]).unwrap_err();
        prop_assert!(
            matches!(err, DeltaError::Truncated { .. }),
            "delta prefix {} of {} gave {:?}", len, bytes.len(), err
        );
    }

    /// Flipping any byte of the magic is BadMagic.
    #[test]
    fn bad_magic_is_detected(snap in arb_snapshot(), pos in 0usize..MAGIC.len(), flip in 1u8..=255) {
        let mut bytes = snap.to_bytes();
        bytes[pos] ^= flip;
        prop_assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::BadMagic)
        ));
    }

    /// Flipping any payload byte is a checksum mismatch in *some* section
    /// (payloads start after the 16-byte header + three 20-byte section
    /// headers; we flip within the first section's payload to keep the
    /// framing intact).
    #[test]
    fn payload_corruption_is_a_checksum_mismatch(snap in arb_snapshot(), delta in arb_delta(), off in 0usize..8, flip in 1u8..=255) {
        let bytes = snap.to_bytes();
        // First section header sits at 16; its payload starts at 16 + 20.
        let payload_start = MAGIC.len() + 4 + 4 + (4 + 8 + 8);
        let mut corrupt = bytes.clone();
        corrupt[payload_start + off] ^= flip;
        prop_assert!(matches!(
            Snapshot::from_bytes(&corrupt),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        // The delta shares the framing; its first (header) payload is 25
        // bytes, so the same offsets land inside it.
        let mut corrupt = delta.to_bytes();
        corrupt[payload_start + off] ^= flip;
        prop_assert!(matches!(
            Delta::from_bytes(&corrupt),
            Err(DeltaError::ChecksumMismatch { section: "header" })
        ));
    }

    /// Any version other than FORMAT_VERSION is rejected as unsupported.
    #[test]
    fn other_versions_are_rejected(snap in arb_snapshot(), delta in arb_delta(), version in any::<u32>()) {
        // The vendored proptest has no prop_assume; dodge the accepted
        // versions (current and legacy) deterministically instead.
        let version = if version == FORMAT_VERSION || version == LEGACY_VERSION {
            FORMAT_VERSION + 1 + version
        } else {
            version
        };
        let mut bytes = snap.to_bytes();
        bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&version.to_le_bytes());
        prop_assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::UnsupportedVersion(v)) if v == version
        ));
        // Neither accepted snapshot version is the delta's only version, 1.
        let mut bytes = delta.to_bytes();
        bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&version.to_le_bytes());
        prop_assert!(matches!(
            Delta::from_bytes(&bytes),
            Err(DeltaError::UnsupportedVersion(v)) if v == version
        ));
    }
}

/// Random byte soup (non-empty, wrong magic with overwhelming probability)
/// never panics the decoder.
#[test]
fn fuzz_soup_never_panics() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0xF00D);
    for _ in 0..500 {
        let len = rng.gen_range(0..600usize);
        let soup: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u64) as u8).collect();
        let _ = Snapshot::from_bytes(&soup);
        let _ = Delta::from_bytes(&soup);
        // Behind a valid magic the soup reaches the section parser.
        let _ = Delta::from_bytes(&[&cc_dynamic::delta::MAGIC[..], &soup].concat());
    }
}

/// A snapshot with a valid frame but mismatched graph/estimate dimensions
/// must decode to Malformed, not panic.
#[test]
fn dimension_mismatch_decodes_to_malformed() {
    let g = Graph::from_edges(3, Direction::Undirected, &[(0, 1, 1)]);
    let good = Snapshot::new(
        g,
        DistMatrix::infinite(3),
        SnapshotMeta {
            algo: "exact".into(),
            seed: 0,
            stretch_bound: 1.0,
            rounds: 0,
            source: "t".into(),
        },
    );
    let bytes = good.to_bytes();
    // Surgically rebuild the estimate section with n=2 (valid checksum, bad
    // dimension): easiest is to re-encode a 2-node estimate and splice.
    let small = Snapshot::new(
        Graph::from_edges(2, Direction::Undirected, &[(0, 1, 1)]),
        DistMatrix::infinite(2),
        good.meta.clone(),
    );
    let small_bytes = small.to_bytes();
    // Graph section from `good`, estimate + meta sections from `small`.
    let header = 16;
    let sec = |buf: &[u8], idx: usize| -> (usize, usize) {
        // Returns (start, end) of the idx-th section including its header.
        let mut pos = header;
        for _ in 0..idx {
            let len = u64::from_le_bytes(buf[pos + 4..pos + 12].try_into().unwrap()) as usize;
            pos += 20 + len;
        }
        let len = u64::from_le_bytes(buf[pos + 4..pos + 12].try_into().unwrap()) as usize;
        (pos, pos + 20 + len)
    };
    let (g0, g1) = sec(&bytes, 0);
    let (e0, e1) = sec(&small_bytes, 1);
    let (m0, m1) = sec(&small_bytes, 2);
    let mut spliced = bytes[..header].to_vec();
    spliced.extend_from_slice(&bytes[g0..g1]);
    spliced.extend_from_slice(&small_bytes[e0..e1]);
    spliced.extend_from_slice(&small_bytes[m0..m1]);
    match Snapshot::from_bytes(&spliced) {
        Err(SnapshotError::Malformed(msg)) => assert!(msg.contains("estimate"), "{msg}"),
        other => panic!("expected Malformed, got {other:?}"),
    }
}
