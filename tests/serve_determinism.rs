//! The serving layer's hard invariant, in the style of
//! `parallel_determinism.rs`: for a fixed snapshot and load spec, query
//! *results* — every response and the stream fingerprint — are bit-identical
//! at every thread count. Only timings (latency, QPS) may move.

use cc_apsp::pipeline::{approximate_apsp, PipelineConfig};
use cc_graph::graph::{Direction, Graph};
use cc_graph::sssp::k_nearest_from_dists;
use cc_graph::{NodeId, Weight};
use cc_par::ExecPolicy;
use cc_serve::loadgen::{generate_queries, replay, LoadSpec, QueryMix, Skew};
use cc_serve::service::{OracleService, Query, Response, ServiceConfig};
use cc_serve::snapshot::{Snapshot, SnapshotMeta};
use proptest::prelude::*;

/// The thread counts checked, matching `parallel_determinism.rs`.
const THREADS: [usize; 3] = [1, 2, 4];

/// Strategy: a connected-ish undirected weighted graph (path backbone plus
/// random extra edges), as in `parallel_determinism.rs`.
fn arb_graph(max_n: usize, max_w: Weight) -> impl Strategy<Value = Graph> {
    (4usize..max_n).prop_flat_map(move |n| {
        let path_edges: Vec<(NodeId, NodeId)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let extra = proptest::collection::vec((0..n, 0..n, 1..=max_w), 0..3 * n);
        let path_w = proptest::collection::vec(1..=max_w, n - 1);
        (Just(n), Just(path_edges), path_w, extra).prop_map(|(n, path, pw, extra)| {
            let mut edges: Vec<(NodeId, NodeId, Weight)> = path
                .into_iter()
                .zip(pw)
                .map(|((u, v), w)| (u, v, w))
                .collect();
            for (u, v, w) in extra {
                if u != v {
                    edges.push((u, v, w));
                }
            }
            Graph::from_edges(n, Direction::Undirected, &edges)
        })
    })
}

/// A pipeline-produced snapshot for `g`, deterministic per seed.
fn pipeline_snapshot(g: &Graph, seed: u64) -> Snapshot {
    let result = approximate_apsp(
        g,
        &PipelineConfig {
            seed,
            exec: ExecPolicy::Seq,
            ..Default::default()
        },
    );
    Snapshot::new(
        g.clone(),
        result.estimate,
        SnapshotMeta {
            algo: "thm11".into(),
            seed,
            stretch_bound: result.stretch_bound,
            rounds: result.rounds,
            source: "serve-determinism".into(),
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Raw batch responses (all three query types, zipf-skewed sources) are
    /// bit-identical to the sequential run at every thread count.
    #[test]
    fn batch_responses_are_thread_count_invariant(
        g in arb_graph(28, 30),
        seed in 0u64..500,
    ) {
        let snap = pipeline_snapshot(&g, seed);
        let spec = LoadSpec {
            queries: 400,
            batch: 64,
            mix: QueryMix { dist: 4, route: 2, knearest: 2 },
            skew: Skew::Zipf(1.1),
            k: 5,
            seed,
        };
        let queries = generate_queries(g.n(), &spec);
        let (service, id) = OracleService::single(snap.clone());
        let seq = service.run_batch(id, &queries, ExecPolicy::Seq);
        for threads in THREADS {
            // A fresh service per policy: cache state must not be able to
            // leak into results either.
            let (service, id) = OracleService::single(snap.clone());
            let par = service.run_batch(id, &queries, ExecPolicy::with_threads(threads));
            prop_assert_eq!(&par.responses, &seq.responses, "threads={}", threads);
        }
    }

    /// The k-nearest row cache never changes an answer. A few hot sources
    /// are asked narrow k first, then wide k up to past n: with room for
    /// only two prefixes, lookups evict and recompute larger prefixes, yet
    /// every response equals a fresh selection on the estimate row and the
    /// uncached service's, at every thread count.
    #[test]
    fn cached_prefixes_never_change_a_knearest_answer(
        g in arb_graph(28, 30),
        seed in 0u64..500,
        picks in proptest::collection::vec((0usize..3, 0usize..1000), 40..120),
    ) {
        let snap = pipeline_snapshot(&g, seed);
        let matrix = snap.dense_estimate().expect("dense snapshot").clone();
        let n = g.n();
        let narrow = picks.len() / 2;
        let asks: Vec<(NodeId, usize)> = picks
            .iter()
            .enumerate()
            .map(|(i, &(source, r))| {
                let u = (seed as usize + source * n / 3) % n;
                let k = if i < narrow {
                    1 + r % 3
                } else if r % 10 == 0 {
                    usize::MAX
                } else {
                    r % (n + 4)
                };
                (u, k)
            })
            .collect();
        let queries: Vec<Query> = asks.iter().map(|&(u, k)| Query::KNearest(u, k)).collect();
        let expect: Vec<Response> = asks
            .iter()
            .map(|&(u, k)| Response::KNearest(k_nearest_from_dists(matrix.row(u), k)))
            .collect();
        for cache_rows in [2, 0] {
            for threads in THREADS {
                let mut service = OracleService::new(ServiceConfig { cache_rows });
                let id = service.register("g", snap.clone());
                let got = service.run_batch(id, &queries, ExecPolicy::with_threads(threads));
                prop_assert_eq!(
                    &got.responses,
                    &expect,
                    "cache_rows={}, threads={}",
                    cache_rows,
                    threads
                );
            }
        }
    }

    /// The full closed-loop replay — snapshot → save → load → serve — yields
    /// the same response fingerprint at every thread count, for both skews.
    #[test]
    fn drive_fingerprint_is_thread_count_invariant(
        g in arb_graph(24, 25),
        seed in 0u64..500,
        uniform in any::<bool>(),
    ) {
        let snap = pipeline_snapshot(&g, seed);
        // Round-trip through the binary format, as the CLI does.
        let reloaded = Snapshot::from_bytes(&snap.to_bytes()).expect("round trip");
        prop_assert_eq!(&reloaded, &snap);
        let spec = LoadSpec {
            queries: 300,
            batch: 50,
            skew: if uniform { Skew::Uniform } else { Skew::Zipf(1.0) },
            k: 4,
            seed,
            ..Default::default()
        };
        let run = |threads: usize| {
            let (service, id) = OracleService::single(reloaded.clone());
            replay(&service, id, &spec, ExecPolicy::with_threads(threads))
        };
        let seq = run(1);
        for threads in THREADS {
            prop_assert_eq!(run(threads), seq, "threads={}", threads);
        }
    }
}
