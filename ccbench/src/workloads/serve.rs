//! `serve`: in-process closed-loop reads against an exact dense snapshot of
//! gnp n = 1024 (an 8 MiB matrix), through `OracleService::run_batch` with
//! the default `LoadSpec`: 8:1:1 dist/route/k-nearest, zipf 1.0, k = 8,
//! batches of 1024. No wire, server, pipeline or dynamic code runs.

use std::time::{Duration, Instant};

use cc_par::ExecPolicy;
use cc_serve::loadgen::{generate_queries, LoadSpec};
use cc_serve::service::{OracleService, Query, SnapshotId};

use super::{exact_served, reference, repeat_setup, report_layers, report_overhead, SETUP_REPS};
use crate::check::Checker;
use crate::report::Report;
use crate::stats::{median, reportable_tail};
use crate::trace::{Tracer, HARNESS};
use crate::Ctx;

const N: usize = 1024;
/// Queries in the generated stream (2^21); the loop wraps around it.
const STREAM: usize = 1 << 21;
/// Every this-many batches of the first pass is checked in full.
const CHECK_EVERY: usize = 8;

/// What one closed-loop pass measured.
#[derive(Debug, Default)]
pub struct ReadPass {
    /// `run_batch` call time per batch.
    pub batch_ms: Vec<f64>,
    pub answered: u64,
    /// Sum of the batch call times: the read wall time.
    pub busy: Duration,
    pub cache_hits: u64,
    pub cache_lookups: u64,
}

impl ReadPass {
    pub fn qps(&self) -> f64 {
        self.answered as f64 / self.busy.as_secs_f64()
    }
}

/// One closed-loop pass over `batches` (wrapping) for `share` of the run;
/// the first pass over the stream is checked every [`CHECK_EVERY`] batches.
#[allow(clippy::too_many_arguments)]
fn pass(
    ctx: &Ctx,
    service: &OracleService,
    id: SnapshotId,
    batches: &[&[Query]],
    exec: ExecPolicy,
    share: f64,
    mut tracer: Option<&mut Tracer>,
    mut checker: Option<(&mut Checker, &mut Report)>,
) -> ReadPass {
    let before = service.cache_stats(id);
    let mut out = ReadPass::default();
    let start = Instant::now();
    let mut i = 0;
    while i == 0 || !ctx.expired(start, share) {
        let batch = batches[i % batches.len()];
        let t = Instant::now();
        let outcome = match tracer.as_deref_mut() {
            Some(tr) => {
                tr.span("cc_serve.service", |_| service.run_batch(id, batch, exec))
                    .0
            }
            None => service.run_batch(id, batch, exec),
        };
        let dt = t.elapsed();
        out.busy += dt;
        out.batch_ms.push(dt.as_secs_f64() * 1e3);
        out.answered += batch.len() as u64;
        if let Some((c, report)) = checker.as_mut() {
            if i < batches.len() && i % CHECK_EVERY == 0 {
                c.batch(report, batch, &outcome.responses);
            }
        }
        i += 1;
    }
    let after = service.cache_stats(id);
    out.cache_hits = after.hits - before.hits;
    out.cache_lookups = (after.hits + after.misses) - (before.hits + before.misses);
    out
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let spec = LoadSpec {
        queries: STREAM,
        seed: ctx.seed,
        ..LoadSpec::default()
    };
    let (served, queries) = repeat_setup(&mut report, SETUP_REPS, || {
        (exact_served(ctx, N, ctx.seed), generate_queries(N, &spec))
    });
    served.setup.report_setup(&mut report);
    let (graph, matrix) = served.setup.state();
    let truth = reference(ctx, &graph);
    report.check(matrix == truth, || {
        "served snapshot differs from Dijkstra".into()
    });
    let batches: Vec<&[Query]> = queries.chunks(spec.batch).collect();
    let (service, id) = (&served.service, served.id);

    let mut checker = Checker {
        graph: &graph,
        matrix: &matrix,
        truth: &truth,
        stretch: 1.0,
    };
    let share = if ctx.trace { 0.4 } else { 1.0 };
    let read = pass(
        ctx,
        service,
        id,
        &batches,
        ctx.exec,
        share,
        None,
        Some((&mut checker, &mut report)),
    );
    let (tail, tail_label) = reportable_tail(&read.batch_ms);
    report.set("primary_ms", median(&read.batch_ms));
    report.set("secondary_ms", tail);
    report.set("answers_per_s", read.qps());
    report.set("stretch_max", checker.stretch);
    report.set("run.reps", read.batch_ms.len() as f64);
    report.line(format!(
        "qps            {:.0} 1/s ({} queries over {:.3} s of run_batch time, {})",
        read.qps(),
        read.answered,
        read.busy.as_secs_f64(),
        ctx.exec
    ));
    report.line(format!(
        "batch_p50_ms   {:.4} ms / batch_{tail_label}_ms {tail:.4} ms ({} batches of {})",
        median(&read.batch_ms),
        read.batch_ms.len(),
        spec.batch
    ));
    report.line(format!(
        "cache          {:.4} hit ratio ({} hits / {} lookups)",
        read.cache_hits as f64 / read.cache_lookups.max(1) as f64,
        read.cache_hits,
        read.cache_lookups
    ));
    report.line(format!(
        "stretch_max    {:.4} ratio vs Dijkstra",
        checker.stretch
    ));

    if ctx.trace {
        traced(ctx, service, id, &batches, &read, &mut report);
    }
    report
}

fn traced(
    ctx: &Ctx,
    service: &OracleService,
    id: SnapshotId,
    batches: &[&[Query]],
    untraced: &ReadPass,
    report: &mut Report,
) {
    report.set("service.batch_ms", median(&untraced.batch_ms));
    report.set(
        "service.cache_hit_ratio",
        untraced.cache_hits as f64 / untraced.cache_lookups.max(1) as f64,
    );
    report.set("service.cache_hits", untraced.cache_hits as f64);
    report.set("service.cache_lookups", untraced.cache_lookups as f64);

    // The same loop with the recorder on and a span per batch.
    cc_obs::reset();
    cc_obs::enable();
    let mut tr = Tracer::new();
    let (traced, root) = tr.span(HARNESS, |tr| {
        pass(ctx, service, id, batches, ctx.exec, 0.4, Some(tr), None)
    });
    cc_obs::disable();
    let obs = cc_obs::capture();
    report_overhead(
        report,
        untraced.busy.as_secs_f64() / untraced.answered as f64,
        traced.busy.as_secs_f64() / traced.answered as f64,
    );
    report_layers(report, &tr, root.ms());
    // The recorder's own cache counters must agree with the service's.
    let counter = |name: &str| {
        obs.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    let (hits, misses) = (counter("serve.cache.hit"), counter("serve.cache.miss"));
    report.check(
        hits == traced.cache_hits && hits + misses == traced.cache_lookups,
        || {
            format!(
                "recorded cache {hits}/{misses} != service {}/{}",
                traced.cache_hits, traced.cache_lookups
            )
        },
    );

    // Per-type service time: `answer` one query at a time; k-nearest hits
    // and misses told apart by the cache counters around each call.
    let mut per_type: [Vec<f64>; 4] = Default::default();
    for q in batches.iter().take(32).flat_map(|b| b.iter()) {
        let before = service.cache_stats(id);
        let t = Instant::now();
        let r = service.answer(id, q);
        let ns = t.elapsed().as_nanos() as f64;
        std::hint::black_box(r);
        let slot = match q {
            Query::Dist(..) => 0,
            Query::Route(..) => 1,
            Query::KNearest(..) if service.cache_stats(id).hits > before.hits => 2,
            Query::KNearest(..) => 3,
        };
        per_type[slot].push(ns);
    }
    let names = [
        "service.dist_ns",
        "service.route_ns",
        "service.knearest_hit_ns",
        "service.knearest_miss_ns",
    ];
    for (name, samples) in names.iter().zip(&per_type) {
        report.set(
            name,
            if samples.is_empty() {
                0.0
            } else {
                median(samples)
            },
        );
        report.line(format!(
            "per type       {name:<26} median {:>10.1} ns over {} calls",
            median(samples),
            samples.len()
        ));
    }

    // The same batches on one thread: how much the second core buys.
    let seq = pass(ctx, service, id, batches, ExecPolicy::Seq, 0.15, None, None);
    report.set("service.seq_qps", seq.qps());
    report.set("service.scaling", untraced.qps() / seq.qps());
    report.line(format!(
        "scaling        {:.3}x ({:.0} qps at {} vs {:.0} qps sequential)",
        untraced.qps() / seq.qps(),
        untraced.qps(),
        ctx.exec,
        seq.qps()
    ));
}
