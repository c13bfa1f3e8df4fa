//! `update`: writes against an exact dense snapshot of gnp n = 512. Each
//! write is one single-op reweight batch (`random_batch(…, 1,
//! ReweightHeavy, …)`) applied through `IncrementalOracle::apply` and then
//! `OracleService::apply_delta`; each write is followed by one read batch of
//! 1024 default-mix queries. Every write bumps the snapshot version, so the
//! row cache restarts cold, and the write path either repairs rows
//! (Dijkstra) or rebuilds (dense squaring).

use std::time::Instant;

use cc_dynamic::delta::backend_state_fingerprint;
use cc_dynamic::incremental::{ApplyStrategy, DynamicConfig, IncrementalOracle};
use cc_dynamic::rebuild::run_algorithm;
use cc_dynamic::update::{random_batch, MutationProfile};
use cc_dynamic::Delta;
use cc_matrix::engine::KernelMode;
use cc_serve::loadgen::{generate_queries, LoadSpec};
use cc_serve::service::Query;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{exact_served, reference, repeat_setup, report_layers, report_overhead, SETUP_REPS};
use crate::check::Checker;
use crate::report::Report;
use crate::stats::{mean, median, quantile, reportable_tail};
use crate::sys::{timed, Timed};
use crate::trace::{Tracer, CHECK, HARNESS};
use crate::Ctx;

const N: usize = 512;
/// The update graph is the same for every `--seed`, which drives the write
/// and read streams. Across gnp(512) graphs the exact rebuild takes 5 or 6
/// squarings, so with a per-seed graph the rebuild-dominated p90 would
/// spread ~25% from the input alone.
const GRAPH_SEED: u64 = 1;
/// Writes in a run when the run is short; otherwise the loop runs for the
/// whole `--seconds`.
const MIN_WRITES: usize = 50;
/// Read batches in the generated stream; reads wrap around it.
const STREAM_BATCHES: usize = 512;
/// Every this-many writes, the following read batch is checked in full.
const CHECK_EVERY: usize = 8;
/// Deltas kept from the traced pass to time their encoding.
const KEEP_DELTAS: usize = 64;
/// Salt separating the write stream's seed from the read stream's.
const WRITE_SALT: u64 = 0x5851_f42d_4c95_7f2d;

/// One timed write.
#[derive(Debug, Clone, Copy)]
struct Write {
    apply: Timed,
    swap_ms: f64,
    repaired: bool,
    rows: usize,
}

impl Write {
    /// Time until the write is visible to reads: apply plus swap.
    fn visible_ms(&self) -> f64 {
        self.apply.ms() + self.swap_ms
    }
}

#[derive(Debug, Default)]
struct Pass {
    writes: Vec<Write>,
    read_ms: Vec<f64>,
    answered: u64,
    read_s: f64,
    wall_s: f64,
    deltas: Vec<Delta>,
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let spec = LoadSpec {
        queries: STREAM_BATCHES * LoadSpec::default().batch,
        seed: ctx.seed,
        ..LoadSpec::default()
    };
    let dynamic = DynamicConfig {
        exec: ctx.exec,
        kernel: KernelMode::Auto,
        ..DynamicConfig::default()
    };
    let (mut served, mut engine, queries) = repeat_setup(&mut report, SETUP_REPS, || {
        let served = exact_served(ctx, N, GRAPH_SEED);
        let snap = served.service.export(served.id);
        let engine =
            IncrementalOracle::with_backend(snap.graph, snap.backend, "exact", ctx.seed, dynamic);
        (served, engine, generate_queries(N, &spec))
    });
    served.setup.report_setup(&mut report);
    let batches: Vec<&[Query]> = queries.chunks(spec.batch).collect();
    let mut write_rng = StdRng::seed_from_u64(ctx.seed ^ WRITE_SALT);

    let share = if ctx.trace { 0.5 } else { 1.0 };
    let mut pass = |tracer: Option<&mut Tracer>, report: &mut Report, keep: usize| {
        let mut out = Pass::default();
        let mut tracer = tracer;
        let start = Instant::now();
        let id = served.id;
        while out.writes.len() < MIN_WRITES || !ctx.expired(start, share) {
            let mutation = random_batch(
                engine.graph(),
                1,
                MutationProfile::ReweightHeavy,
                &mut write_rng,
            );
            let mut span = |layer: &'static str, f: &mut dyn FnMut()| match tracer.as_deref_mut() {
                Some(tr) => tr.span(layer, |_| f()).1,
                None => timed(f).1,
            };
            let mut outcome = None;
            let apply = span("cc_dynamic", &mut || {
                outcome = Some(engine.apply(&mutation));
            });
            let outcome = match outcome.expect("the span ran") {
                Ok(o) => o,
                Err(e) => {
                    report.check(false, || format!("apply failed: {e}"));
                    break;
                }
            };
            let mut swapped = None;
            let swap = span("cc_serve.service", &mut || {
                swapped = Some(served.service.apply_delta("default", &outcome.delta));
            });
            if let Some(Err(e)) = swapped {
                report.check(false, || format!("apply_delta failed: {e}"));
                break;
            }
            out.writes.push(Write {
                apply,
                swap_ms: swap.ms(),
                repaired: matches!(outcome.strategy, ApplyStrategy::Repaired { .. }),
                rows: outcome.delta.rows.len(),
            });
            if out.deltas.len() < keep {
                out.deltas.push(outcome.delta);
            }

            let batch = batches[(out.writes.len() - 1) % batches.len()];
            let mut responses = None;
            let read = span("cc_serve.service", &mut || {
                responses = Some(served.service.run_batch(id, batch, ctx.exec).responses);
            });
            out.read_ms.push(read.ms());
            out.read_s += read.wall_s;
            out.answered += batch.len() as u64;
            if out.writes.len() % CHECK_EVERY == 1 {
                let responses = responses.expect("the span ran");
                span(CHECK, &mut || {
                    let truth = reference(ctx, engine.graph());
                    let mut checker = Checker {
                        graph: engine.graph(),
                        matrix: engine.estimate(),
                        truth: &truth,
                        stretch: 1.0,
                    };
                    checker.batch(report, batch, &responses);
                });
            }
        }
        out.wall_s = start.elapsed().as_secs_f64();
        out
    };

    let untraced = pass(None, &mut report, 0);
    let traced = ctx.trace.then(|| {
        cc_obs::reset();
        cc_obs::enable();
        let mut tr = Tracer::new();
        let (p, root) = tr.span(HARNESS, |tr| pass(Some(tr), &mut report, KEEP_DELTAS));
        cc_obs::disable();
        (p, tr, root)
    });

    // Final-state checks: the engine, the service's live state, and a
    // from-scratch rebuild of the final graph must agree.
    let live = served.service.export(served.id);
    let live_print = backend_state_fingerprint(&live.graph, &live.backend);
    let (scratch, _, _) = run_algorithm(
        engine.graph(),
        "exact",
        ctx.seed,
        ctx.exec,
        KernelMode::Auto,
    )
    .expect("exact is a known algorithm");
    let scratch_print = cc_dynamic::delta::state_fingerprint(engine.graph(), &scratch);
    report.check(
        engine.fingerprint() == live_print && live_print == scratch_print,
        || {
            format!(
                "final state: engine {:016x}, service {live_print:016x}, rebuild {scratch_print:016x}",
                engine.fingerprint()
            )
        },
    );
    let truth = reference(ctx, engine.graph());
    let stats = scratch.stretch_vs_with(&truth, ctx.exec);
    report.check(stats.is_valid_approximation(1.0), || {
        format!("rebuilt final state is not exact: {stats}")
    });
    report.line(format!(
        "final state    {live_print:016x} (engine = service = from-scratch rebuild)"
    ));

    let w: Vec<f64> = untraced.writes.iter().map(Write::visible_ms).collect();
    let (read_tail, read_label) = reportable_tail(&untraced.read_ms);
    let qps = untraced.answered as f64 / untraced.read_s;
    report.set("primary_ms", median(&w));
    report.set("secondary_ms", quantile(&w, 0.9));
    report.set("answers_per_s", qps);
    report.set("stretch_max", stats.max_stretch);
    report.set("run.reps", w.len() as f64);
    let repairs = untraced.writes.iter().filter(|x| x.repaired).count();
    report.line(format!(
        "update_p50_ms  {:.4} ms / update_p90_ms {:.4} ms apply+swap ({} writes: {repairs} repaired, {} rebuilt)",
        median(&w),
        quantile(&w, 0.9),
        w.len(),
        w.len() - repairs
    ));
    report.line(format!(
        "qps            {qps:.0} 1/s reads ({} queries over {:.3} s of run_batch time)",
        untraced.answered, untraced.read_s
    ));
    report.line(format!(
        "batch_p50_ms   {:.4} ms / batch_{read_label}_ms {read_tail:.4} ms ({} read batches)",
        median(&untraced.read_ms),
        untraced.read_ms.len()
    ));

    if let Some((p, tr, root)) = traced {
        let per_write = |p: &Pass| p.wall_s / p.writes.len() as f64;
        report_overhead(&mut report, per_write(&untraced), per_write(&p));
        report_layers(&mut report, &tr, root.ms());
        report_dynamic(&mut report, ctx, &p);
    }
    report
}

/// The `cc_dynamic` and squaring metrics of the traced pass.
fn report_dynamic(report: &mut Report, ctx: &Ctx, p: &Pass) {
    let (repaired, rebuilt): (Vec<&Write>, Vec<&Write>) = p.writes.iter().partition(|w| w.repaired);
    let ms = |ws: &[&Write]| ws.iter().map(|w| w.apply.ms()).collect::<Vec<f64>>();
    let zero_if_empty = |v: Vec<f64>| if v.is_empty() { 0.0 } else { median(&v) };
    report.set("dynamic.repair_ms", zero_if_empty(ms(&repaired)));
    report.set("dynamic.rebuild_ms", zero_if_empty(ms(&rebuilt)));
    report.set("dynamic.repairs", repaired.len() as f64);
    report.set("dynamic.rebuilds", rebuilt.len() as f64);
    let rows: Vec<f64> = p.writes.iter().map(|w| w.rows as f64).collect();
    report.set("dynamic.delta_rows", mean(&rows));
    let swaps: Vec<f64> = p.writes.iter().map(|w| w.swap_ms).collect();
    report.set("service.apply_delta_ms", median(&swaps));
    report.set("service.batch_ms", median(&p.read_ms));

    let mut encode_ms = Vec::new();
    let mut bytes = Vec::new();
    for d in &p.deltas {
        let (encoded, t) = timed(|| d.to_bytes());
        encode_ms.push(t.ms());
        bytes.push(encoded.len() as f64);
    }
    report.set("delta.encode_ms", median(&encode_ms));
    report.set("delta.bytes", mean(&bytes));
    report.line(format!(
        "dynamic        repair median {:.3} ms ({}), rebuild median {:.3} ms ({}), {:.1} rows per delta, apply_delta {:.3} ms, delta encode {:.3} ms for {:.0} bytes",
        zero_if_empty(ms(&repaired)),
        repaired.len(),
        zero_if_empty(ms(&rebuilt)),
        rebuilt.len(),
        mean(&rows),
        median(&swaps),
        median(&encode_ms),
        mean(&bytes)
    ));

    // Rebuilds run the exact squaring loop inside `apply`; the recorder's
    // `square[<kernel>]` spans count and time those squarings.
    let obs = cc_obs::capture();
    let mut squares: Vec<(String, u64, u64, f64)> = Vec::new();
    fn walk(nodes: &[cc_obs::SpanNode], out: &mut Vec<(String, u64, u64, f64)>) {
        for node in nodes {
            if node.name.starts_with("square[") {
                let code = node
                    .attrs
                    .iter()
                    .find(|(k, _)| k == "kernel_code")
                    .map_or(0.0, |(_, v)| *v / node.count.max(1) as f64);
                out.push((node.name.clone(), node.count, node.total_ns, code));
            }
            walk(&node.children, out);
        }
    }
    walk(&obs.spans, &mut squares);
    let count: u64 = squares.iter().map(|s| s.1).sum();
    let total_ns: u64 = squares.iter().map(|s| s.2).sum();
    let dominant = squares.iter().max_by_key(|s| s.2).map_or(0.0, |s| s.3);
    let rebuild_cpu = rebuilt.iter().fold(Timed::default(), |mut acc, w| {
        acc.add(w.apply);
        acc
    });
    let total_s = total_ns as f64 * 1e-9;
    report.set("minplus.square_ms", total_s * 1e3);
    report.set("minplus.squarings", count as f64);
    report.set("minplus.kernel", dominant);
    report.set(
        "minplus.gops",
        if total_s > 0.0 {
            count as f64 * (N as f64).powi(3) / total_s / 1e9
        } else {
            0.0
        },
    );
    report.set("minplus.cpu_util", rebuild_cpu.cpu_util(ctx.nproc));
    for (name, count, ns, code) in &squares {
        report.line(format!(
            "minplus        {name:<24} code {code} {count:>4} squares {:>10.3} ms (recorded)",
            *ns as f64 * 1e-6
        ));
    }
}
