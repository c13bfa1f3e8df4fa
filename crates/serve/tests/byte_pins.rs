//! Byte pins for every binary format the serving stack writes: the FNV-1a
//! of a dense and a landmark `*.ccsnap`, a repaired dense and a landmark
//! `*.ccdelta`, one frame of every wire kind, the response fingerprint of
//! a mixed response list, and the state fingerprints that anchor delta
//! chains. Refactoring the codecs must leave every constant below as it
//! is; a deliberate format change bumps its format version and re-pins.
//!
//! The hash is a local FNV-1a, kept independent of the codec under test.

use cc_apsp::landmark::LandmarkSketch;
use cc_apsp::oracle::OracleBackend;
use cc_dynamic::delta::{backend_state_fingerprint, state_fingerprint};
use cc_dynamic::update::{EdgeOp, UpdateBatch};
use cc_dynamic::{Delta, DeltaStrategy};
use cc_graph::graph::{Direction, Graph};
use cc_graph::{apsp, DistMatrix, INF};
use cc_par::ExecPolicy;
use cc_serve::service::{fingerprint, Query, Response};
use cc_serve::snapshot::{Snapshot, SnapshotMeta};
use cc_serve::wire::{Reply, Request, ServeInfo};

fn reference_fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn graph() -> Graph {
    Graph::from_edges(
        6,
        Direction::Undirected,
        &[
            (0, 1, 3),
            (1, 2, 1),
            (2, 3, 4),
            (3, 4, 2),
            (0, 4, 9),
            (4, 5, 1),
            (2, 5, 7),
        ],
    )
}

fn meta(algo: &str, stretch_bound: f64) -> SnapshotMeta {
    SnapshotMeta {
        algo: algo.into(),
        seed: 13,
        stretch_bound,
        rounds: 12,
        source: "byte-pin".into(),
    }
}

fn landmark(g: &Graph) -> OracleBackend {
    OracleBackend::Landmark(LandmarkSketch::build(g, 13, ExecPolicy::Seq))
}

/// A repaired dense delta covering all three op tags.
fn dense_delta(g: &Graph, e: &DistMatrix) -> Delta {
    let batch = UpdateBatch::new(vec![
        EdgeOp::Reweight(0, 1, 1),
        EdgeOp::Insert(1, 3, 2),
        EdgeOp::Delete(0, 4),
    ])
    .canonicalize();
    let (ng, _) = batch.apply_to(g).expect("valid batch");
    let ne = apsp::exact_apsp(&ng);
    let rows = (0..g.n())
        .filter(|&i| e.row(i) != ne.row(i))
        .map(|i| (i, ne.row(i).to_vec()))
        .collect();
    Delta {
        n: g.n(),
        strategy: DeltaStrategy::Repaired,
        base_fingerprint: state_fingerprint(g, e),
        result_fingerprint: state_fingerprint(&ng, &ne),
        batch,
        rows,
    }
}

/// A landmark delta: batch only, the receiver rebuilds the sketch.
fn landmark_delta(g: &Graph) -> Delta {
    let batch = UpdateBatch::new(vec![EdgeOp::Reweight(2, 3, 1)]).canonicalize();
    let (ng, _) = batch.apply_to(g).expect("valid batch");
    Delta {
        n: g.n(),
        strategy: DeltaStrategy::Rebuilt,
        base_fingerprint: backend_state_fingerprint(g, &landmark(g)),
        result_fingerprint: backend_state_fingerprint(&ng, &landmark(&ng)),
        batch,
        rows: Vec::new(),
    }
}

fn responses() -> Vec<Response> {
    vec![
        Response::Dist(17),
        Response::Dist(INF),
        Response::Route(None),
        Response::Route(Some(vec![1, 2, 3])),
        Response::KNearest(vec![(4, 9), (5, 11)]),
        Response::KNearest(Vec::new()),
    ]
}

#[test]
fn encoded_bytes_and_fingerprints_are_pinned() {
    let g = graph();
    let e = apsp::exact_apsp(&g);
    let dense_snap = Snapshot::new(g.clone(), e.clone(), meta("exact", 1.0)).to_bytes();
    let landmark_snap = Snapshot::with_backend(g.clone(), landmark(&g), meta("landmark", 3.0));
    let dense_delta = dense_delta(&g, &e).to_bytes();
    let name = String::from("default");

    let requests = [
        Request::Batch {
            name: name.clone(),
            queries: vec![Query::Dist(0, 5), Query::Route(3, 4), Query::KNearest(2, 8)],
        },
        Request::Info { name: name.clone() },
        Request::ApplyDelta {
            name: name.clone(),
            delta: dense_delta.clone(),
        },
        Request::SwapSnapshot {
            name: name.clone(),
            snapshot: dense_snap.clone(),
        },
        Request::Shutdown,
        Request::MetricsV2,
        Request::FlightDump,
    ];
    let replies = [
        Reply::Batch(responses()),
        Reply::Info(ServeInfo {
            name,
            version: 3,
            n: 6,
            algo: "exact".into(),
            mem_bytes: 288,
            cache_hits: 10,
            cache_misses: 2,
        }),
        Reply::AdminOk("applied".into()),
        Reply::Overload(64),
        Reply::Error("unknown snapshot".into()),
        Reply::ShutdownOk,
        Reply::MetricsV2("# TYPE ccapsp_qps gauge\nccapsp_qps{window=\"1s\"} 42\n".into()),
        Reply::FlightDump("{\"schema\":\"cc-flight/v1\",\"count\":0,\"events\":[]}\n".into()),
    ];
    let frames = requests
        .iter()
        .map(Request::to_frame)
        .chain(replies.iter().map(Reply::to_frame));

    let mut got: Vec<(String, u64)> = vec![
        ("ccsnap dense".into(), reference_fnv1a(&dense_snap)),
        (
            "ccsnap landmark".into(),
            reference_fnv1a(&landmark_snap.to_bytes()),
        ),
        ("ccdelta dense".into(), reference_fnv1a(&dense_delta)),
        (
            "ccdelta landmark".into(),
            reference_fnv1a(&landmark_delta(&g).to_bytes()),
        ),
    ];
    for frame in frames {
        got.push((
            format!("wire kind {}", frame.kind as u32),
            reference_fnv1a(&frame.encode()),
        ));
    }
    got.push(("response fingerprint".into(), fingerprint(&responses())));
    got.push(("state fingerprint".into(), state_fingerprint(&g, &e)));
    got.push((
        "backend fingerprint dense".into(),
        backend_state_fingerprint(&g, &OracleBackend::Dense(e.clone())),
    ));
    got.push((
        "backend fingerprint landmark".into(),
        backend_state_fingerprint(&g, &landmark_snap.backend),
    ));

    let want: &[(&str, u64)] = &[
        ("ccsnap dense", 0xb0ea94a97ff1ec4a),
        ("ccsnap landmark", 0xbc51baae43ce1ad2),
        ("ccdelta dense", 0xd3df3c1298361680),
        ("ccdelta landmark", 0xc017a256c189190e),
        ("wire kind 1", 0xda97a010f90929bc),
        ("wire kind 3", 0xa7ef4092a22a7e1a),
        ("wire kind 4", 0xb09b490ba2922a6d),
        ("wire kind 5", 0x5058ca659f8960a9),
        ("wire kind 6", 0xb869a0fcdebf39ce),
        ("wire kind 7", 0x6f42e3f2820a72f0),
        ("wire kind 8", 0xc5b39b6b7ab3509b),
        ("wire kind 17", 0x87a61b9d3ae8d8f1),
        ("wire kind 19", 0x380c73a75c9e627b),
        ("wire kind 20", 0xc88089e1a23517ce),
        ("wire kind 21", 0xcdbe4a46bb0e0059),
        ("wire kind 22", 0xe3f1d719d7430ad7),
        ("wire kind 23", 0x67c45fc31e63b2ef),
        ("wire kind 24", 0x85e6b215151406ab),
        ("wire kind 25", 0x3f19df33bc9fa968),
        ("response fingerprint", 0x9fb65a887a814dcd),
        ("state fingerprint", 0xf34a29bf6b0fe4aa),
        ("backend fingerprint dense", 0xf34a29bf6b0fe4aa),
        ("backend fingerprint landmark", 0xa75e8786d52d0346),
    ];
    let got: Vec<(&str, u64)> = got.iter().map(|(l, h)| (l.as_str(), *h)).collect();
    assert_eq!(
        got,
        want,
        "pinned bytes moved; current values:\n{}",
        got.iter()
            .map(|(l, h)| format!("        ({l:?}, {h:#018x}),"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
