//! The observability layer's hard invariant, in the style of
//! `parallel_determinism.rs`: enabling `cc_obs` tracing never changes any
//! computed output. Pipeline estimates, serve response fingerprints, and
//! dynamic-update state fingerprints must be bit-identical with tracing off
//! vs on, across thread counts {1, 4} and forced kernel modes
//! {dense, sparse} — tracing may only add a span tree on the side.

use cc_apsp::pipeline::{approximate_apsp, PipelineConfig};
use cc_baselines::exact as exact_baseline;
use cc_dynamic::incremental::{DynamicConfig, IncrementalOracle};
use cc_dynamic::update::{random_batch, EdgeOp, MutationProfile, UpdateBatch};
use cc_graph::graph::{Direction, Graph};
use cc_graph::{apsp, NodeId, Weight};
use cc_matrix::engine::{KernelChoice, KernelMode, KernelPlan};
use cc_par::ExecPolicy;
use cc_serve::client::replay_network;
use cc_serve::loadgen::{replay, LoadSpec, Skew};
use cc_serve::server::{Server, ServerConfig};
use cc_serve::service::OracleService;
use cc_serve::snapshot::{Snapshot, SnapshotMeta};
use clique_sim::{Bandwidth, Clique};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// The thread counts and forced kernel modes the invariant is checked at,
/// per the acceptance criteria.
const THREADS: [usize; 2] = [1, 4];
const KERNELS: [KernelMode; 2] = [KernelMode::Dense, KernelMode::Sparse];

/// `cc_obs` state (enabled flag, global store) is process-wide, so the
/// tests in this file serialize on one lock to keep each off/on comparison
/// self-contained.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Runs `f` twice — tracing off, then tracing on with a fresh store — and
/// returns both outputs plus the captured snapshot from the traced run.
fn off_then_on<T>(mut f: impl FnMut() -> T) -> (T, T, cc_obs::Snapshot) {
    cc_obs::disable();
    cc_obs::reset();
    let off = f();
    cc_obs::enable();
    let on = f();
    cc_obs::disable();
    let snapshot = cc_obs::capture();
    cc_obs::reset();
    (off, on, snapshot)
}

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

proptest! {
    // Each case runs the full pipeline/serve/dynamic stack several times;
    // a handful of cases suffices, as in the other pipeline-level suites.
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// The Theorem 1.1 pipeline is bit-identical with tracing off vs on at
    /// every (kernel × thread count) combination — and the traced run
    /// actually produced the pipeline span tree with round/bandwidth attrs.
    #[test]
    fn pipeline_output_is_tracing_invariant(
        g in arb_graph(28, 30),
        seed in 0u64..500,
    ) {
        let _guard = locked();
        for kernel in KERNELS {
            for threads in THREADS {
                let cfg = PipelineConfig {
                    seed,
                    exec: ExecPolicy::with_threads(threads),
                    kernel,
                    ..Default::default()
                };
                let (off, on, snapshot) = off_then_on(|| approximate_apsp(&g, &cfg));
                prop_assert_eq!(
                    &on.estimate, &off.estimate,
                    "kernel={} threads={}", kernel, threads
                );
                prop_assert_eq!(on.stretch_bound, off.stretch_bound);
                prop_assert_eq!(on.rounds, off.rounds);
                // The traced run recorded the phase tree: root pipeline
                // span, theorem phase under it, round accounting attached.
                let pipeline = snapshot.find("pipeline").expect("pipeline span");
                prop_assert_eq!(pipeline.count, 1);
                let thm = snapshot.find("pipeline/theorem-1.1").expect("theorem span");
                let rounds = thm.attrs.iter().find(|(k, _)| k == "rounds");
                prop_assert_eq!(rounds.map(|(_, v)| *v), Some(on.rounds as f64));
                prop_assert!(thm.attrs.iter().any(|(k, _)| k == "words"));
            }
        }
    }

    /// The serving layer's replay fingerprint (snapshot → batched queries →
    /// response stream) is bit-identical with tracing off vs on, even
    /// though tracing adds latency histograms and cache counters.
    #[test]
    fn serve_fingerprint_is_tracing_invariant(
        g in arb_graph(22, 25),
        seed in 0u64..500,
    ) {
        let _guard = locked();
        let result = approximate_apsp(&g, &PipelineConfig {
            seed,
            exec: ExecPolicy::Seq,
            ..Default::default()
        });
        let snap = Snapshot::new(
            g.clone(),
            result.estimate,
            SnapshotMeta {
                algo: "thm11".into(),
                seed,
                stretch_bound: result.stretch_bound,
                rounds: result.rounds,
                source: "obs-determinism".into(),
            },
        );
        let spec = LoadSpec {
            queries: 200,
            batch: 40,
            skew: Skew::Zipf(1.0),
            k: 4,
            seed,
            ..Default::default()
        };
        for threads in THREADS {
            let (off, on, snapshot) = off_then_on(|| {
                let (service, id) = OracleService::single(snap.clone());
                replay(&service, id, &spec, ExecPolicy::with_threads(threads))
            });
            prop_assert_eq!(on, off, "threads={}", threads);
            // The traced run populated the per-type latency histograms.
            let timed: u64 = snapshot
                .histograms
                .iter()
                .filter(|(name, _)| name.starts_with("serve.latency."))
                .map(|(_, h)| h.count())
                .sum();
            prop_assert_eq!(timed, spec.queries as u64, "threads={}", threads);
        }
    }

    /// The dynamic engine's post-batch state fingerprint — whichever steps
    /// of the write path a batch took — is bit-identical with tracing off
    /// vs on under both forced kernels.
    #[test]
    fn dynamic_fingerprint_is_tracing_invariant(seed in 0u64..500) {
        let _guard = locked();
        for kernel in KERNELS {
            let (off, on, snapshot) = off_then_on(|| {
                let mut rng = StdRng::seed_from_u64(seed);
                let g = cc_graph::generators::gnp_connected(24, 0.18, 1..=9, &mut rng);
                let estimate = apsp::exact_apsp(&g);
                let mut engine = IncrementalOracle::new(
                    g,
                    estimate,
                    "exact",
                    seed,
                    DynamicConfig { kernel, ..Default::default() },
                );
                let mut mutation_rng = StdRng::seed_from_u64(seed ^ 0xABCD);
                for profile in [MutationProfile::ReweightHeavy, MutationProfile::TopologyHeavy] {
                    let batch = random_batch(engine.graph(), 4, profile, &mut mutation_rng);
                    engine.apply(&batch).expect("generated batches are valid");
                }
                // An improvement-only batch: a unit-weight edge on the first
                // missing pair, which only the fold handles.
                let g = engine.graph();
                let (u, v) = (0..g.n())
                    .flat_map(|u| (u + 1..g.n()).map(move |v| (u, v)))
                    .find(|&(u, v)| g.edge_weight(u, v).is_none())
                    .expect("gnp(24, 0.18) is not complete");
                engine
                    .apply(&UpdateBatch::new(vec![EdgeOp::Insert(u, v, 1)]))
                    .expect("inserting a missing edge is valid");
                engine.fingerprint()
            });
            prop_assert_eq!(on, off, "kernel={}", kernel);
            // The traced run recorded the write-path steps taken as spans.
            let count = |name: &str| {
                snapshot
                    .spans
                    .iter()
                    .filter(|s| s.name == name)
                    .map(|s| s.count)
                    .sum::<u64>()
            };
            // Each of the 3 batches repairs rows, folds edges or both; the
            // insert always folds, and an exact state never rebuilds.
            let (repairs, folds) = (count("dyn-repair"), count("dyn-fold"));
            prop_assert!(folds >= 1, "kernel={} folds={}", kernel, folds);
            prop_assert!(repairs + folds >= 3, "kernel={} repairs={} folds={}", kernel, repairs, folds);
            prop_assert_eq!(count("dyn-rebuild"), 0, "kernel={}", kernel);
        }
    }
}

/// The network serving path under *full* live telemetry — rolling-window
/// recording, flight recorder, slow-query log armed at 1 µs (so nearly
/// every query logs), a bound `/metrics` HTTP listener, plus `cc_obs`
/// tracing toggled off-then-on — returns response fingerprints
/// bit-identical to the in-process replay of the same spec, at thread
/// counts {1, 4}. Telemetry is side-effect-only on the serving path.
#[test]
fn network_fingerprint_is_telemetry_invariant() {
    let _guard = locked();
    let mut rng = StdRng::seed_from_u64(0x0B5);
    let g = cc_graph::generators::gnp_connected(40, 0.15, 1..=20, &mut rng);
    let estimate = apsp::exact_apsp(&g);
    let meta = SnapshotMeta {
        algo: "exact".into(),
        seed: 0x0B5,
        stretch_bound: 1.0,
        rounds: 0,
        source: "obs-determinism".into(),
    };
    let snap = Snapshot::new(g, estimate, meta);
    let spec = LoadSpec {
        queries: 400,
        batch: 64,
        skew: Skew::Zipf(1.0),
        k: 4,
        seed: 0x0B5,
        ..Default::default()
    };
    let (service, id) = OracleService::single(snap.clone());
    let reference = replay(&service, id, &spec, ExecPolicy::Seq);

    for threads in THREADS {
        let (off, on, _) = off_then_on(|| {
            let mut service = OracleService::default();
            service.register("default", snap.clone());
            let cfg = ServerConfig {
                exec: ExecPolicy::with_threads(threads),
                slow_query_us: 1,
                metrics_addr: Some("127.0.0.1:0".parse().unwrap()),
            };
            let handle = Server::spawn(service, "127.0.0.1:0", cfg).expect("bind");
            assert!(handle.metrics_addr().is_some(), "metrics listener bound");
            let result =
                replay_network(handle.local_addr(), "default", &spec, 3).expect("network replay");
            // Telemetry observed the run before the daemon stops.
            assert!(handle.telemetry().qps_1s_peak() > 0.0);
            assert!(!handle.telemetry().flight.is_empty());
            handle.shutdown();
            result
        });
        assert_eq!(on, off, "threads={threads}");
        assert_eq!(on, reference, "threads={threads}");
    }
}

/// The exact baseline's squaring loop opens one `square[<choice>]` span per
/// squaring under its `exact-squaring` phase, named by the kernel
/// `KernelPlan::choose` picks at that step: sparse while the adjacency
/// matrix is thin, then a dense width once it fills in. Benchmark replays
/// of the loop compare their own plan choices against these span names.
#[test]
fn exact_squaring_spans_name_each_planned_kernel() {
    let _guard = locked();
    let mut rng = StdRng::seed_from_u64(0x5A);
    let g = cc_graph::generators::gnp_connected(64, 0.05, 1..=9, &mut rng);
    // The choices the loop must make, replayed on the reference product.
    let mut planned = Vec::new();
    let mut cur = cc_matrix::dense::adjacency_matrix(&g);
    loop {
        planned.push(KernelPlan::choose(&cur, &cur, KernelMode::Auto).choice);
        let next = cc_matrix::dense::distance_product(&cur, &cur);
        if next == cur {
            break;
        }
        cur = next;
    }
    let first_dense = planned
        .iter()
        .position(|&c| c != KernelChoice::SparseSharded)
        .expect("the squares fill in");
    assert!(first_dense > 0, "planned {planned:?}");
    assert!(
        planned[first_dense..]
            .iter()
            .all(|&c| c != KernelChoice::SparseSharded),
        "planned {planned:?}"
    );

    cc_obs::reset();
    cc_obs::enable();
    let mut clique = Clique::new(g.n(), Bandwidth::standard(g.n()));
    let est = exact_baseline::exact_apsp_squaring_kernel(
        &mut clique,
        &g,
        ExecPolicy::Seq,
        KernelMode::Auto,
    );
    cc_obs::disable();
    let snapshot = cc_obs::capture();
    cc_obs::reset();
    assert_eq!(est, cur);

    let squares = &snapshot
        .find("exact-squaring")
        .expect("the phase span was recorded")
        .children;
    // The name says which kernel ran; an operand size summed over the
    // squarings would mean nothing, so kernel spans carry no attrs.
    for c in squares {
        assert!(c.attrs.is_empty(), "{} carries {:?}", c.name, c.attrs);
    }
    let recorded: Vec<(String, u64)> = squares.iter().map(|c| (c.name.clone(), c.count)).collect();
    let mut want = BTreeMap::new();
    for choice in &planned {
        *want
            .entry(format!("square[{}]", choice.name()))
            .or_insert(0u64) += 1;
    }
    assert_eq!(recorded, want.into_iter().collect::<Vec<_>>());
}
