//! `build`: the paper's pipeline (`thm11`) and the exact min-plus squaring
//! baseline over a gnp graph of n = 2048, through `run_algorithm` as the CLI
//! calls it. No serving code runs.
//!
//! The traced run replays both calls step by step through the layers'
//! public functions — `theorem_1_1`'s four steps and the squaring loop — and
//! checks each replay is bit-identical to its one-call result.

use std::collections::BTreeMap;
use std::time::Instant;

use cc_apsp::knearest;
use cc_apsp::params;
use cc_apsp::pipeline::{apsp_large_bandwidth, PipelineConfig};
use cc_apsp::skeleton::{build_skeleton_kernel, extend_estimate};
use cc_baselines::exact::product_rounds;
use cc_dynamic::rebuild::run_algorithm;
use cc_graph::{DistMatrix, Graph};
use cc_matrix::dense::adjacency_matrix;
use cc_matrix::engine::{square_planned, KernelChoice, KernelMode, KernelPlan};
use clique_sim::{Bandwidth, Clique};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{gnp, reference, repeat_setup, report_layers, report_overhead};
use crate::report::Report;
use crate::stats::{median, quantile};
use crate::sys::{timed, Timed};
use crate::trace::{Tracer, HARNESS};
use crate::Ctx;

const N: usize = 2048;

/// One `run_algorithm` result: `(estimate, stretch bound, rounds)`.
type Built = (DistMatrix, f64, u64);

fn build(ctx: &Ctx, g: &Graph, algo: &str) -> (Built, Timed) {
    timed(|| run_algorithm(g, algo, ctx.seed, ctx.exec, KernelMode::Auto).expect("known algorithm"))
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    // Set-up is only graph generation (milliseconds), so it is repeated
    // often enough for its median to hold still.
    let g = repeat_setup(&mut report, 21, || gnp(N, ctx.seed));

    // Closed loop of reps — thm11, exact squaring, Dijkstra from every
    // source — each timed; a new rep starts only if it is expected to end
    // within the run. The traced run times one rep.
    let (mut thm_ms, mut exact_ms, mut dijkstra_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<(Built, Built, DistMatrix)> = None;
    let start = Instant::now();
    loop {
        let (thm, t_thm) = build(ctx, &g, "thm11");
        let (exact, t_exact) = build(ctx, &g, "exact");
        let (truth, t_truth) = timed(|| reference(ctx, &g));
        thm_ms.push(t_thm.ms());
        exact_ms.push(t_exact.ms());
        dijkstra_ms.push(t_truth.ms());
        match &first {
            None => first = Some((thm, exact, truth)),
            Some((thm0, exact0, truth0)) => {
                report.check(thm.0 == thm0.0 && thm.2 == thm0.2, || {
                    "thm11 repeat differs from the first build".into()
                });
                report.check(exact.0 == exact0.0 && truth == *truth0, || {
                    "exact repeat differs from the first build".into()
                });
            }
        }
        let reps = thm_ms.len() as f64;
        let per_rep = start.elapsed().as_secs_f64() / reps;
        if ctx.trace || start.elapsed().as_secs_f64() + per_rep > ctx.run.as_secs_f64() {
            break;
        }
    }
    let ((thm, bound, rounds), (exact, _, exact_rounds), truth) = first.expect("at least one rep");
    let reps = thm_ms.len();
    report.set("run.reps", reps as f64);

    // Output checks against the Dijkstra reference, outside the timed calls.
    let stats = thm.stretch_vs_with(&truth, ctx.exec);
    report.check(stats.is_valid_approximation(bound), || {
        format!("thm11 stretch {stats} exceeds its bound {bound:.1}")
    });
    report.check(exact == truth, || "exact differs from Dijkstra".into());

    // Gated: the exact baseline and the Dijkstra reference, best of the
    // reps. The thm11 time is reported but not gated: its one-threaded
    // k-nearest phase is the most cache-bound code here, and on a shared
    // host its best-of-reps time spread 26-32% across ten runs (beyond any
    // usable bound) while exact spread 14% and Dijkstra ~7%. Its cost is
    // gated through `rounds` and `stretch_max`, which repeat exactly.
    let best = |v: &[f64]| quantile(v, 0.0);
    report.set("primary_ms", best(&exact_ms));
    report.set("secondary_ms", best(&dijkstra_ms));
    report.set("answers_per_s", (N * N) as f64 / (best(&exact_ms) / 1e3));
    report.set("rounds", rounds as f64);
    report.set("stretch_max", stats.max_stretch);
    report.set("thm11.ms", median(&thm_ms));
    for (name, what, v) in [
        ("build_s       ", "thm11", &thm_ms),
        ("exact_build_s ", "min-plus squaring", &exact_ms),
        ("dijkstra_s    ", "Dijkstra from every source", &dijkstra_ms),
    ] {
        let each: Vec<String> = v.iter().map(|ms| format!("{:.3}", ms / 1e3)).collect();
        report.line(format!(
            "{name} {:.4} s ({what}, best of {reps}, median {:.4} s; reps {}; n={N}, {})",
            best(v) / 1e3,
            median(v) / 1e3,
            each.join(" "),
            ctx.exec
        ));
    }
    report.line(format!(
        "rounds         {rounds} (thm11) vs {exact_rounds} (exact)"
    ));
    report.line(format!(
        "stretch_max    {:.4} ratio (bound {bound:.1}; mean {:.4})",
        stats.max_stretch, stats.mean_stretch
    ));

    if ctx.trace {
        traced(
            ctx,
            &g,
            &thm,
            rounds,
            &exact,
            thm_ms[0] + exact_ms[0],
            &mut report,
        );
    }
    report
}

/// The traced run: the one-call pair again with the `cc_obs` recorder on
/// (read for phase rounds and kernel choices), then the step replays.
fn traced(
    ctx: &Ctx,
    g: &Graph,
    thm: &DistMatrix,
    rounds: u64,
    exact: &DistMatrix,
    untraced_ms: f64,
    report: &mut Report,
) {
    cc_obs::reset();
    cc_obs::enable();
    let mut tr = Tracer::new();
    let ((thm_obs, exact_obs), t) = tr.span(HARNESS, |tr| {
        let thm = tr.span("cc_apsp", |_| build(ctx, g, "thm11").0).0;
        let exact = tr.span("cc_baselines", |_| build(ctx, g, "exact").0).0;
        (thm, exact)
    });
    cc_obs::disable();
    let obs = cc_obs::capture();
    report_overhead(report, untraced_ms, t.ms());
    report.check(thm_obs.0 == *thm && exact_obs.0 == *exact, || {
        "recording changed a build result".into()
    });

    let phase = |path: &str, key: &str| {
        obs.find(path)
            .and_then(|s| s.attrs.iter().find(|(k, _)| k == key))
            .map_or(0.0, |(_, v)| *v)
    };

    let mut tr = Tracer::new();
    let ((replayed, exact_replay), _) = tr.span(HARNESS, |tr| {
        let thm = tr.span("cc_apsp", |tr| replay_thm11(ctx, g, tr)).0;
        let exact = tr.span("cc_baselines", |tr| replay_exact(ctx, g, tr)).0;
        (thm, exact)
    });
    report_layers(report, &tr, untraced_ms);

    let (est, replay_rounds, steps) = replayed;
    report.check(est == *thm && replay_rounds == rounds, || {
        format!(
            "thm11 replay differs from the one-call result ({replay_rounds} vs {rounds} rounds)"
        )
    });
    let obs_rounds = phase("pipeline/theorem-1.1", "rounds");
    report.check(obs_rounds == rounds as f64, || {
        format!("recorded theorem-1.1 rounds {obs_rounds} != {rounds}")
    });
    let obs_knearest = phase("pipeline/theorem-1.1/knearest-round", "rounds");
    report.check(obs_knearest == steps.rounds[0] as f64, || {
        format!(
            "recorded knearest rounds {obs_knearest} != replayed {}",
            steps.rounds[0]
        )
    });
    let names = ["knearest", "skeleton", "child_thm81", "extend"];
    for (i, name) in names.iter().enumerate() {
        report.line(format!(
            "replay thm11   {name:<12} {:>10.3} ms  cpu_util {:.3}  rounds {}",
            steps.time[i].ms(),
            steps.time[i].cpu_util(ctx.nproc),
            steps.rounds[i]
        ));
    }
    report.set("knearest.ms", steps.time[0].ms());
    report.set("knearest.cpu_util", steps.time[0].cpu_util(ctx.nproc));
    report.set("skeleton.ms", steps.time[1].ms());
    report.set("skeleton.nodes", steps.skeleton_nodes as f64);
    report.set("child_thm81.ms", steps.time[2].ms());
    report.set("extend.ms", steps.time[3].ms());
    report.set("rounds.knearest", steps.rounds[0] as f64);
    report.set("rounds.skeleton", steps.rounds[1] as f64);
    report.set("rounds.child", steps.rounds[2] as f64);
    report.set("rounds.extend", steps.rounds[3] as f64);
    report.set("words.knearest", steps.words_knearest as f64);

    let (est, squares) = exact_replay;
    report.check(est == *exact, || {
        "exact replay differs from the one-call result".into()
    });
    // Kernel choices as the recorder saw them in the one-call run: the
    // `square[<kernel>]` spans under the `exact-squaring` phase.
    let recorded: Vec<(String, u64)> = obs
        .find("exact-squaring")
        .map(|s| {
            s.children
                .iter()
                .map(|c| (c.name.clone(), c.count))
                .collect()
        })
        .unwrap_or_default();
    let mut by_name = BTreeMap::new();
    for (choice, _) in &squares {
        *by_name
            .entry(format!("square[{}]", choice.name()))
            .or_insert(0u64) += 1;
    }
    let replayed_counts: Vec<(String, u64)> = by_name.into_iter().collect();
    report.check(recorded == replayed_counts, || {
        format!("recorded kernels {recorded:?} != replayed {replayed_counts:?}")
    });
    report_squares(report, ctx, g.n(), &squares);
}

/// Per-step measurements of the `theorem_1_1` replay.
#[derive(Debug, Default)]
struct Steps {
    time: [Timed; 4],
    rounds: [u64; 4],
    words_knearest: usize,
    skeleton_nodes: usize,
}

/// `theorem_1_1` as its four public steps, in the same order and with the
/// same random stream as `approximate_apsp`, each in its own span.
fn replay_thm11(ctx: &Ctx, g: &Graph, tr: &mut Tracer) -> (DistMatrix, u64, Steps) {
    let n = g.n();
    assert!(n > 8, "the replay covers the general case only");
    let cfg = PipelineConfig {
        seed: ctx.seed,
        exec: ctx.exec,
        kernel: KernelMode::Auto,
        ..Default::default()
    };
    let mut clique = Clique::new(n, Bandwidth::standard(n));
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut steps = Steps::default();
    let est = clique.phase("theorem-1.1", |clique| {
        let k0 = cfg
            .k0
            .unwrap_or_else(|| params::theorem_1_1_k0(n))
            .clamp(2, n);
        let (h, i) = params::direct_knearest_h_i(n, k0);

        let (r0, w0) = (clique.rounds(), clique.traffic().total_words());
        let (rows, t) = tr.span("cc_apsp", |_| {
            knearest::k_nearest_exact(clique, g, k0, h, i)
        });
        steps.time[0] = t;
        steps.rounds[0] = clique.rounds() - r0;
        steps.words_knearest = clique.traffic().total_words() - w0;

        let r0 = clique.rounds();
        let (sk, t) = tr.span("cc_apsp", |_| {
            build_skeleton_kernel(clique, g, &rows, &mut rng, cfg.exec, cfg.kernel)
        });
        steps.time[1] = t;
        steps.rounds[1] = clique.rounds() - r0;
        let ns = sk.size();
        steps.skeleton_nodes = ns;

        let r0 = clique.rounds();
        let ((delta_gs, _), t) = tr.span("cc_apsp", |_| {
            if ns <= 8 {
                clique.broadcast_volume("broadcast-tiny-skeleton", 3 * sk.graph.m());
                (cc_graph::apsp::exact_apsp_with(&sk.graph, cfg.exec), 1.0)
            } else {
                let f_child = (n / ns).max(1);
                let mut child = Clique::new(ns, Bandwidth::words(f_child));
                let out = apsp_large_bandwidth(&mut child, &sk.graph, &cfg, &mut rng);
                let per_round = clique.rounds_for_load(ns * f_child).max(1);
                clique.charge(
                    "simulate-skeleton-clique (Lemma 2.1)",
                    child.rounds().saturating_mul(per_round),
                );
                out
            }
        });
        steps.time[2] = t;
        steps.rounds[2] = clique.rounds() - r0;

        let r0 = clique.rounds();
        let (eta, t) = tr.span("cc_apsp", |_| {
            extend_estimate(clique, &sk, &rows, &delta_gs)
        });
        steps.time[3] = t;
        steps.rounds[3] = clique.rounds() - r0;
        eta
    });
    (est, clique.rounds(), steps)
}

/// The exact baseline's squaring loop, one `cc_matrix` span per square.
fn replay_exact(ctx: &Ctx, g: &Graph, tr: &mut Tracer) -> (DistMatrix, Vec<(KernelChoice, Timed)>) {
    let n = g.n();
    let mut clique = Clique::new(n, Bandwidth::standard(n));
    let mut squares = Vec::new();
    let est = clique.phase("exact-squaring", |clique| {
        let mut cur = adjacency_matrix(g);
        let per_product = product_rounds(n);
        loop {
            let ((next, choice), t) = tr.span("cc_matrix", |_| {
                let plan = KernelPlan::choose(&cur, &cur, KernelMode::Auto);
                (square_planned(&cur, &plan, ctx.exec), plan.choice)
            });
            squares.push((choice, t));
            clique.charge("minplus-square (CKK+19 n^(1/3))", per_product);
            if next == cur {
                return next;
            }
            cur = next;
        }
    });
    (est, squares)
}

/// The `minplus.*` metrics from timed squarings: total time, count, the
/// kernel that took the most time (by `KernelChoice::code()`), computed
/// throughput (n³ min-plus operations per square), and CPU utilisation.
pub fn report_squares(report: &mut Report, ctx: &Ctx, n: usize, squares: &[(KernelChoice, Timed)]) {
    let mut total = Timed::default();
    let mut by_kernel: Vec<(KernelChoice, Timed, usize)> = Vec::new();
    for &(choice, t) in squares {
        total.add(t);
        match by_kernel.iter_mut().find(|(c, ..)| *c == choice) {
            Some((_, kt, count)) => {
                kt.add(t);
                *count += 1;
            }
            None => by_kernel.push((choice, t, 1)),
        }
    }
    for (choice, t, count) in &by_kernel {
        report.line(format!(
            "minplus        {:<15} code {}  {count:>3} squares  {:>10.3} ms  cpu_util {:.3}",
            choice.name(),
            choice.code(),
            t.ms(),
            t.cpu_util(ctx.nproc)
        ));
    }
    let dominant = by_kernel
        .iter()
        .max_by(|a, b| a.1.wall_s.total_cmp(&b.1.wall_s))
        .map_or(0, |(c, ..)| c.code());
    let ops = squares.len() as f64 * (n as f64).powi(3);
    report.set("minplus.square_ms", total.ms());
    report.set("minplus.squarings", squares.len() as f64);
    report.set("minplus.kernel", dominant as f64);
    report.set("minplus.gops", ops / total.wall_s.max(1e-12) / 1e9);
    report.set("minplus.cpu_util", total.cpu_util(ctx.nproc));
    report.line(format!(
        "minplus        total {:.3} ms over {} squares, {:.2} Gop/s computed (n^3 per square), dominant kernel code {dominant}",
        total.ms(),
        squares.len(),
        ops / total.wall_s.max(1e-12) / 1e9
    ));
}
