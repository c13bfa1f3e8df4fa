//! `perf` — thread-scaling wall-clock benchmark emitting `BENCH_kernels.json`.
//!
//! Times the parallel hot kernels (per-source Dijkstra APSP, dense min-plus
//! product, the full Theorem 1.1 pipeline, and the min-plus **kernel
//! engine** — naive vs lanes vs sparse vs auto-dispatch, plus per-family
//! auto rows on power-law/grid/geometric workloads) at thread counts 1/2/4
//! and writes the records machine-readably (see [`cc_bench::report`]) so the
//! perf trajectory is tracked from this PR onward.
//!
//! ```sh
//! cargo bench -p cc-bench --bench perf            # full sizes
//! FAST=1 cargo bench -p cc-bench --bench perf     # smoke sizes
//! ```
//!
//! Every record is produced from the *same* inputs; the kernels' outputs are
//! cross-checked against the sequential run, so a scheduling bug that broke
//! determinism would fail the bench rather than skew the numbers.

use cc_apsp::pipeline::{approximate_apsp, PipelineConfig};
use cc_bench::experiments::fast;
use cc_bench::report::{time_best_of, write_report, BenchRecord};
use cc_graph::generators::Family;
use cc_graph::{apsp, DistMatrix, INF};
use cc_matrix::dense::{
    adjacency_matrix, distance_product_lanes_opts, distance_product_with, TILE,
};
use cc_matrix::engine::{self, KernelChoice, KernelMode, KernelPlan, ULTRA_MAX_ENTRY};
use cc_par::ExecPolicy;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Written at the workspace root regardless of cargo's bench CWD.
const OUT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
const THREADS: [usize; 3] = [1, 2, 4];

fn workload(n: usize, seed: u64) -> cc_graph::Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    Family::Gnp.generate(n, n as u64, &mut rng)
}

fn main() {
    let reps = if fast() { 2 } else { 3 };
    let mut records: Vec<BenchRecord> = Vec::new();

    // Kernel 1: exact APSP (per-source Dijkstra row blocks).
    let n_apsp = if fast() { 192 } else { 512 };
    let g = workload(n_apsp, 7);
    let mut reference: Option<DistMatrix> = None;
    for threads in THREADS {
        let exec = ExecPolicy::with_threads(threads);
        let (wall_ms, out) = time_best_of(reps, || apsp::exact_apsp_with(&g, exec));
        match &reference {
            None => reference = Some(out),
            Some(seq) => assert_eq!(&out, seq, "exact_apsp diverged at {threads} threads"),
        }
        println!("exact_apsp        n={n_apsp:>4} threads={threads}  {wall_ms:>9.2} ms");
        records.push(BenchRecord {
            experiment: "exact_apsp".into(),
            n: n_apsp,
            threads,
            wall_ms,
            rounds: 0,
            extras: Vec::new(),
        });
    }

    // Kernel 2: dense min-plus product (row-blocked O(n³)).
    let n_prod = if fast() { 160 } else { 384 };
    let a = adjacency_matrix(&workload(n_prod, 8));
    let b = adjacency_matrix(&workload(n_prod, 9));
    let mut reference: Option<DistMatrix> = None;
    for threads in THREADS {
        let exec = ExecPolicy::with_threads(threads);
        let (wall_ms, out) = time_best_of(reps, || distance_product_with(&a, &b, exec));
        match &reference {
            None => reference = Some(out),
            Some(seq) => assert_eq!(&out, seq, "distance_product diverged at {threads} threads"),
        }
        println!("distance_product  n={n_prod:>4} threads={threads}  {wall_ms:>9.2} ms");
        records.push(BenchRecord {
            experiment: "distance_product".into(),
            n: n_prod,
            threads,
            wall_ms,
            rounds: 0,
            extras: Vec::new(),
        });
    }

    // Kernel 3: the full Theorem 1.1 pipeline (rounds come from the run).
    let n_pipe = if fast() { 96 } else { 192 };
    let g = workload(n_pipe, 10);
    let mut reference = None;
    for threads in THREADS {
        let cfg = PipelineConfig {
            seed: 3,
            exec: ExecPolicy::with_threads(threads),
            ..Default::default()
        };
        let (wall_ms, result) = time_best_of(reps, || approximate_apsp(&g, &cfg));
        match &reference {
            None => reference = Some((result.estimate.clone(), result.rounds)),
            Some((est, rounds)) => {
                assert_eq!(
                    &result.estimate, est,
                    "pipeline diverged at {threads} threads"
                );
                assert_eq!(result.rounds, *rounds);
            }
        }
        // One traced repetition breaks the wall-clock down per phase (the
        // timed best-of reps above ran untraced); tracing must not change
        // the output, so the traced run is also cross-checked.
        cc_obs::reset();
        cc_obs::enable();
        let traced = approximate_apsp(&g, &cfg);
        cc_obs::disable();
        let span_snapshot = cc_obs::capture();
        assert_eq!(
            traced.estimate,
            reference.as_ref().expect("set above").0,
            "tracing changed the pipeline output at {threads} threads"
        );
        println!(
            "theorem_1_1       n={n_pipe:>4} threads={threads}  {wall_ms:>9.2} ms  rounds={}",
            result.rounds
        );
        records.push(BenchRecord {
            experiment: "theorem_1_1".into(),
            n: n_pipe,
            threads,
            wall_ms,
            rounds: result.rounds,
            extras: cc_bench::report::phase_extras(&span_snapshot),
        });
    }

    // Kernel 4: the min-plus kernel engine at n = 512 — always full size,
    // so BENCH_kernels.json records the kernel-vs-naive comparison the
    // engine exists for. Operands: a fully dense distance matrix (the shape
    // of skeleton/closure products; the engine's auto path dispatches it to
    // a narrow lane kernel) and the sparse adjacency matrix itself
    // (auto dispatches it to the sparse kernel).
    let n_kern = 512;
    let kern_reps = if fast() { 1 } else { 3 };
    let adj = adjacency_matrix(&workload(n_kern, 11));
    let (dense_mat, _) = engine::closure(&adj, KernelMode::Auto, ExecPolicy::from_env());
    let kernel_code = |c: KernelChoice| c.code() as f64;
    let lane_code = |c: KernelChoice| c.lane_width().map_or(-1.0, |w| w as f64);
    // The same closure matrix with every finite entry clamped to the u16
    // ultra bound — the weight-scaled-instance shape; auto dispatch must
    // send its self-product to the ultra kernel.
    let ultra_mat = {
        let mut m = dense_mat.clone();
        for i in 0..n_kern {
            for j in 0..n_kern {
                let v = m.get(i, j);
                if v < INF {
                    m.set(i, j, v.min(ULTRA_MAX_ENTRY));
                }
            }
        }
        m
    };
    let ultra_choice = KernelPlan::choose(&ultra_mat, &ultra_mat, KernelMode::Auto).choice;
    assert_eq!(
        ultra_choice,
        KernelChoice::DenseUltra,
        "clamped matrix must dispatch to the u16 kernel"
    );
    let auto_choice = KernelPlan::choose(&dense_mat, &dense_mat, KernelMode::Auto).choice;
    let dense_reference = distance_product_with(&dense_mat, &dense_mat, ExecPolicy::Seq);
    let ultra_reference = distance_product_with(&ultra_mat, &ultra_mat, ExecPolicy::Seq);
    let sparse_reference = distance_product_with(&adj, &adj, ExecPolicy::Seq);
    type KernelRun<'a> = (
        &'a str,
        Box<dyn Fn() -> DistMatrix + 'a>,
        &'a DistMatrix,
        f64,
        f64,
    );
    for threads in THREADS {
        let exec = ExecPolicy::with_threads(threads);
        let runs: [KernelRun<'_>; 6] = [
            (
                "minplus_naive",
                Box::new(|| distance_product_with(&dense_mat, &dense_mat, exec)),
                &dense_reference,
                -1.0,
                -1.0,
            ),
            (
                "minplus_lanes",
                Box::new(|| distance_product_lanes_opts(&dense_mat, &dense_mat, exec, TILE)),
                &dense_reference,
                kernel_code(KernelChoice::DenseLanes),
                lane_code(KernelChoice::DenseLanes),
            ),
            (
                "minplus_auto",
                Box::new(|| engine::min_plus(&dense_mat, &dense_mat, KernelMode::Auto, exec)),
                &dense_reference,
                kernel_code(auto_choice),
                lane_code(auto_choice),
            ),
            (
                "minplus_u16",
                Box::new(|| engine::min_plus(&ultra_mat, &ultra_mat, KernelMode::Auto, exec)),
                &ultra_reference,
                kernel_code(ultra_choice),
                lane_code(ultra_choice),
            ),
            // The row name is a key of the envelope fixture and of CI's row
            // list; it times the self-product every squaring runs.
            (
                "closure_ktiled",
                Box::new(|| engine::square(&dense_mat, KernelMode::Auto, exec)),
                &dense_reference,
                kernel_code(auto_choice),
                lane_code(auto_choice),
            ),
            (
                "minplus_sparse",
                Box::new(|| engine::min_plus(&adj, &adj, KernelMode::Sparse, exec)),
                &sparse_reference,
                kernel_code(KernelChoice::SparseSharded),
                -1.0,
            ),
        ];
        for (name, run, reference, code, lanes) in runs {
            let (wall_ms, out) = time_best_of(kern_reps, &*run);
            assert_eq!(&out, reference, "{name} diverged at {threads} threads");
            println!("{name:<17} n={n_kern:>4} threads={threads}  {wall_ms:>9.2} ms");
            records.push(BenchRecord {
                experiment: name.into(),
                n: n_kern,
                threads,
                wall_ms,
                rounds: 0,
                extras: vec![("kernel_code".into(), code), ("lane_width".into(), lanes)],
            });
        }
    }

    // Kernel 5: engine auto-dispatch across realistic topologies — one
    // adjacency self-product per family (power-law, grid, geometric), with
    // the measured fill and the kernel the plan picked recorded alongside.
    let n_fam = if fast() { 160 } else { 256 };
    for family in [Family::PowerLaw, Family::Grid, Family::Geometric] {
        let mut rng = StdRng::seed_from_u64(n_fam as u64);
        let g = family.generate(n_fam, n_fam as u64, &mut rng);
        let a = adjacency_matrix(&g);
        let reference = distance_product_with(&a, &a, ExecPolicy::Seq);
        let plan = KernelPlan::choose(&a, &a, KernelMode::Auto);
        let exec = ExecPolicy::with_threads(2);
        let (wall_ms, out) = time_best_of(kern_reps, || {
            engine::min_plus(&a, &a, KernelMode::Auto, exec)
        });
        assert_eq!(out, reference, "engine diverged on {}", family.name());
        let name = format!("minplus_auto_{}", family.name());
        println!(
            "{name:<17} n={:>4} threads=2  {wall_ms:>9.2} ms  ({}, fill {:.3})",
            g.n(),
            plan.choice,
            plan.fill_a
        );
        records.push(BenchRecord {
            experiment: name,
            n: g.n(),
            threads: 2,
            wall_ms,
            rounds: 0,
            extras: vec![
                ("kernel_code".into(), kernel_code(plan.choice)),
                ("fill".into(), plan.fill_a),
            ],
        });
    }

    // Kernel 6: the doubling baseline's filtered-squaring recurrence run
    // locally through the engine (k-sparse rows → sparse kernel), the
    // serving-side counterpart of `cc_baselines::doubling` — cross-checked
    // against the dense reference power.
    {
        let g = workload(n_fam, 12);
        let (k, hops) = (16usize, 16usize);
        let reference = cc_matrix::filtered::filtered_power_reference(
            &cc_matrix::filtered::FilteredMatrix::from_graph(&g, k).to_dense(),
            k,
            hops as u64,
        );
        let exec = ExecPolicy::with_threads(2);
        let (wall_ms, out) = time_best_of(kern_reps, || {
            cc_baselines::doubling::doubling_k_nearest_central(&g, k, hops, KernelMode::Auto, exec)
        });
        assert_eq!(out, reference, "central doubling diverged");
        println!(
            "doubling_central  n={:>4} threads=2  {wall_ms:>9.2} ms  (k={k}, {hops} hops)",
            g.n()
        );
        records.push(BenchRecord {
            experiment: "doubling_central".into(),
            n: g.n(),
            threads: 2,
            wall_ms,
            rounds: 0,
            extras: vec![("k".into(), k as f64)],
        });
    }

    write_report(OUT_PATH, &records).expect("write BENCH_kernels.json");
    println!("\nwrote {OUT_PATH} ({} records)", records.len());
}
