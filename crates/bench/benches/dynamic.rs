//! `dynamic` — wall-clock benchmark of the dynamic update engine, emitting
//! `BENCH_dynamic.json`.
//!
//! Times, on one servable exact state, the three write-path operations:
//!
//! * `dynamic_repair` — an [`IncrementalOracle`] applying a reweight-heavy
//!   batch on its exact write path (Dijkstra on the rows the worsened edges
//!   can lengthen, one fold per improved edge);
//! * `dynamic_rebuild` — the honest from-scratch alternative: per-source
//!   Dijkstra over the whole post-update graph (the cheapest way to rebuild
//!   an exact estimate, i.e. a *conservative* baseline — pipeline re-entry
//!   via min-plus squaring, which the write path no longer runs, is far
//!   slower and reported as `dynamic_rebuild_pipeline`);
//! * `dynamic_delta_apply` — replaying the repair's delta (fingerprint
//!   checks included) onto a copy of the base state, the `apply_delta`
//!   serving path.
//!
//! The repair and rebuild estimates are asserted bit-identical before any
//! number is reported, so the speedup can never come from computing
//! something different. The workload is a dense-ish `G(n, p)` (each edge
//! carries few shortest paths, the regime bounded-drift reweights target)
//! at ≤ 5% edge churn.
//!
//! ```sh
//! cargo bench -p cc-bench --bench dynamic            # n = 512
//! FAST=1 cargo bench -p cc-bench --bench dynamic     # smoke size
//! ```

use cc_bench::experiments::fast;
use cc_bench::report::{time_best_of, write_report, BenchRecord};
use cc_dynamic::incremental::{ApplyStrategy, DynamicConfig, IncrementalOracle};
use cc_dynamic::rebuild::run_algorithm;
use cc_dynamic::update::{random_batch, MutationProfile};
use cc_graph::{apsp, generators};
use cc_matrix::engine::KernelMode;
use cc_par::ExecPolicy;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Written at the workspace root regardless of cargo's bench CWD.
const OUT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dynamic.json");
const THREADS: [usize; 2] = [1, 4];

fn main() {
    let reps = if fast() { 2 } else { 3 };
    let n = if fast() { 192 } else { 512 };
    let ops = if fast() { 4 } else { 8 };
    // Dense-ish G(n, p): average degree ≈ 30, so single edges carry few
    // shortest paths and bounded-drift reweights stay local.
    let mut rng = StdRng::seed_from_u64(7);
    let g = generators::gnp_connected(n, (30.0 / n as f64).min(1.0), 1..=100, &mut rng);
    let m = g.m();
    let estimate = apsp::exact_apsp(&g);
    let mut batch_rng = StdRng::seed_from_u64(11);
    let batch = random_batch(&g, ops, MutationProfile::ReweightHeavy, &mut batch_rng);
    let churn_pct = 100.0 * batch.len() as f64 / m as f64;
    println!(
        "workload          n={n} m={m} batch={} ops ({churn_pct:.2}% edge churn)",
        batch.len()
    );
    assert!(churn_pct <= 5.0, "bench must stay at ≤ 5% edge churn");

    let mut records: Vec<BenchRecord> = Vec::new();
    for threads in THREADS {
        let exec = ExecPolicy::with_threads(threads);
        let cfg = DynamicConfig {
            exec,
            kernel: KernelMode::Auto,
        };

        // Repair: fresh engine per repetition (apply mutates the state).
        let (repair_ms, outcome) = time_best_of(reps, || {
            let mut engine = IncrementalOracle::new(g.clone(), estimate.clone(), "exact", 7, cfg);
            let outcome = engine.apply(&batch).expect("valid batch");
            (engine, outcome)
        });
        let (engine, outcome) = outcome;
        let ApplyStrategy::Repaired { affected, .. } = outcome.strategy else {
            panic!("an exact state always takes the repair path");
        };

        // Rebuild baseline: per-source Dijkstra on the post-update graph.
        let (rebuild_ms, rebuilt) =
            time_best_of(reps, || apsp::exact_apsp_with(engine.graph(), exec));
        assert_eq!(
            engine.estimate(),
            &rebuilt,
            "repair must be bit-identical to the rebuild"
        );

        // Delta replay (the serving-side apply path, fingerprints verified).
        let (delta_ms, replayed) = time_best_of(reps, || {
            outcome.delta.apply(&g, &estimate).expect("delta applies")
        });
        assert_eq!(&replayed.1, engine.estimate());

        let speedup = rebuild_ms / repair_ms.max(1e-9);
        println!(
            "repair            n={n:>4} threads={threads}  {repair_ms:>9.2} ms  \
             affected={affected}  ({speedup:.1}x vs rebuild {rebuild_ms:.2} ms)"
        );
        records.push(BenchRecord {
            experiment: "dynamic_repair".into(),
            n,
            threads,
            wall_ms: repair_ms,
            rounds: 0,
            extras: vec![
                ("affected_rows".into(), affected as f64),
                ("changed_edges".into(), outcome.changed_edges as f64),
                ("churn_pct".into(), churn_pct),
                ("speedup_vs_rebuild".into(), speedup),
            ],
        });
        records.push(BenchRecord {
            experiment: "dynamic_rebuild".into(),
            n,
            threads,
            wall_ms: rebuild_ms,
            rounds: 0,
            extras: Vec::new(),
        });
        records.push(BenchRecord {
            experiment: "dynamic_delta_apply".into(),
            n,
            threads,
            wall_ms: delta_ms,
            rounds: 0,
            extras: vec![("rows".into(), outcome.delta.rows.len() as f64)],
        });
    }

    // Pipeline re-entry through the exact min-plus squaring baseline on the
    // post-update graph, at one thread count, for scale.
    let exec = ExecPolicy::with_threads(THREADS[THREADS.len() - 1]);
    let (updated, _) = batch.apply_to(&g).expect("valid batch");
    let (pipeline_ms, _) = time_best_of(1, || {
        run_algorithm(&updated, "exact", 7, exec, KernelMode::Auto).expect("exact is known")
    });
    println!(
        "rebuild_pipeline  n={n:>4} threads={}  {pipeline_ms:>9.2} ms",
        exec.threads()
    );
    records.push(BenchRecord {
        experiment: "dynamic_rebuild_pipeline".into(),
        n,
        threads: exec.threads(),
        wall_ms: pipeline_ms,
        rounds: 0,
        extras: Vec::new(),
    });

    write_report(OUT_PATH, &records).expect("write BENCH_dynamic.json");
    println!("wrote {OUT_PATH}");
}
