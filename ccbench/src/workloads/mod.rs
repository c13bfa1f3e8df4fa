//! The four workloads, plus the set-up and reporting pieces they share.

pub mod build;
pub mod serve;
pub mod serve_net;
pub mod update;

use cc_dynamic::rebuild::run_algorithm;
use cc_graph::generators::Family;
use cc_graph::{apsp, DistMatrix, Graph};
use cc_matrix::engine::KernelMode;
use cc_serve::service::{OracleService, SnapshotId};
use cc_serve::snapshot::{Snapshot, SnapshotMeta};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{Report, SELF_METRICS};
use crate::stats::median;
use crate::sys::{timed, Timed};
use crate::trace::Tracer;
use crate::Ctx;

/// Set-up repetitions of the serving workloads (each builds an exact
/// snapshot, a few hundred milliseconds).
pub const SETUP_REPS: usize = 5;

/// The workload graph, generated the way the CLI does it.
pub fn gnp(n: usize, seed: u64) -> Graph {
    Family::Gnp.generate(n, n as u64, &mut StdRng::seed_from_u64(seed))
}

/// Runs set-up `reps` times and keeps the last result; `setup_s` is the
/// median, so one slow repetition does not move it.
pub fn repeat_setup<T>(report: &mut Report, reps: usize, f: impl FnMut() -> T) -> T {
    repeat_setup_with(report, reps, f, drop)
}

/// [`repeat_setup`] where an earlier repetition's result must be torn down
/// by `discard` (a running server) rather than dropped.
pub fn repeat_setup_with<T>(
    report: &mut Report,
    reps: usize,
    mut f: impl FnMut() -> T,
    mut discard: impl FnMut(T),
) -> T {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        // Tear the previous repetition down first, so only one copy lives.
        if let Some(prev) = last.take() {
            discard(prev);
        }
        let (value, t) = timed(&mut f);
        times.push(t.wall_s);
        last = Some(value);
    }
    report.set("setup_s", median(&times));
    report.line(format!(
        "setup          median {:.4} s over {} reps",
        median(&times),
        times.len()
    ));
    last.expect("at least one set-up repetition")
}

/// An exact dense snapshot registered in a service, plus what the checks
/// and the per-layer report need from its set-up.
pub struct Served {
    pub service: OracleService,
    pub id: SnapshotId,
    pub setup: SnapshotSetup,
}

/// How a served snapshot was made.
pub struct SnapshotSetup {
    pub rounds: u64,
    /// The encoded snapshot, from which the checks rebuild the state.
    pub bytes: Vec<u8>,
    pub encode: Timed,
    pub decode: Timed,
}

/// Set-up of the serving workloads: generate, build the exact snapshot,
/// encode and decode it (the path a snapshot file takes), register it.
pub fn exact_served(ctx: &Ctx, n: usize, graph_seed: u64) -> Served {
    let g = gnp(n, graph_seed);
    let (est, bound, rounds) = run_algorithm(&g, "exact", ctx.seed, ctx.exec, KernelMode::Auto)
        .expect("exact is a known algorithm");
    let snapshot = Snapshot::new(
        g,
        est,
        SnapshotMeta {
            algo: "exact".into(),
            seed: ctx.seed,
            stretch_bound: bound,
            rounds,
            source: format!("gnp(n={n},seed={graph_seed})"),
        },
    );
    let (bytes, encode) = timed(|| snapshot.to_bytes());
    drop(snapshot);
    let (decoded, decode) =
        timed(|| Snapshot::from_bytes(&bytes).expect("a freshly encoded snapshot decodes"));
    let (service, id) = OracleService::single(decoded);
    Served {
        service,
        id,
        setup: SnapshotSetup {
            rounds,
            bytes,
            encode,
            decode,
        },
    }
}

impl SnapshotSetup {
    /// The registered graph and matrix, decoded again for the checks.
    pub fn state(&self) -> (Graph, DistMatrix) {
        let snap = Snapshot::from_bytes(&self.bytes).expect("a freshly encoded snapshot decodes");
        let m = snap
            .dense_estimate()
            .expect("exact snapshots are dense")
            .clone();
        (snap.graph, m)
    }

    /// Per-layer snapshot metrics and the end-to-end `rounds`.
    pub fn report_setup(&self, report: &mut Report) {
        report.set("rounds", self.rounds as f64);
        report.set("snapshot.encode_ms", self.encode.ms());
        report.set("snapshot.decode_ms", self.decode.ms());
        report.set("snapshot.bytes", self.bytes.len() as f64);
        report.line(format!(
            "snapshot       {} bytes, encode {:.3} ms, decode {:.3} ms, exact build {} rounds",
            self.bytes.len(),
            self.encode.ms(),
            self.decode.ms(),
            self.rounds
        ));
    }
}

/// Dijkstra from every source: the reference the checks compare against.
pub fn reference(ctx: &Ctx, g: &Graph) -> DistMatrix {
    apsp::exact_apsp_with(g, ctx.exec)
}

/// Reports per-layer self times of a traced region and the residual by
/// which they fail to add up to the end-to-end time `e2e_ms` (less any
/// output checks the region ran).
pub fn report_layers(report: &mut Report, tracer: &Tracer, e2e_ms: f64) {
    let layers = tracer.self_ms_by_layer();
    let e2e_ms = e2e_ms - layers.get(crate::trace::CHECK).copied().unwrap_or(0.0);
    let mut in_layers = 0.0;
    for (layer, metric) in SELF_METRICS {
        let ms = layers.get(layer).copied().unwrap_or(0.0);
        report.set(metric, ms);
        if layer != crate::trace::HARNESS {
            in_layers += ms;
        }
    }
    let residual = e2e_ms - in_layers;
    report.set("layers.residual_ms", residual);
    report.set("layers.residual_pct", 100.0 * residual / e2e_ms);
    let table: Vec<String> = layers
        .iter()
        .map(|(layer, ms)| format!("{layer}={ms:.3}"))
        .collect();
    report.line(format!(
        "layers         self ms: {} | traced {:.3} ms, end-to-end {:.3} ms without checks, residual {:.3} ms ({:.2}%)",
        table.join(" "),
        tracer.root_ms(),
        e2e_ms,
        residual,
        100.0 * residual / e2e_ms
    ));
}

/// `trace.overhead_pct`: how much longer the traced pass took than the
/// untraced one, per unit of work.
pub fn report_overhead(report: &mut Report, untraced_per_op: f64, traced_per_op: f64) {
    let pct = 100.0 * (traced_per_op / untraced_per_op - 1.0);
    report.set("trace.overhead_pct", pct);
    report.line(format!(
        "trace overhead {pct:.2}% (untraced {untraced_per_op:.4e} vs traced {traced_per_op:.4e} per op)"
    ));
}
