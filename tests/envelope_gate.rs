//! Perf-regression gate: diff a fresh `BENCH_kernels.json` against the
//! checked-in envelopes in `tests/fixtures/kernel_envelopes.json`.
//!
//! Workflow (also run by CI's kernel-matrix job):
//!
//! ```sh
//! FAST=1 cargo bench -p cc-bench --bench perf   # writes BENCH_kernels.json
//! cargo test --test envelope_gate               # gates it
//! ```
//!
//! When `BENCH_kernels.json` is absent (a plain `cargo test -q` run that
//! never benched), the gate is a no-op so the tier-1 suite stays
//! self-contained. Only `threads == 1` envelope rows are gated and the
//! factor is a generous [`DEFAULT_FACTOR`]× — the gate exists to catch
//! "kernel silently fell back to naive"-sized regressions, not scheduler
//! noise. To re-baseline after an intentional perf change:
//!
//! ```sh
//! FAST=1 cargo bench -p cc-bench --bench perf
//! UPDATE_ENVELOPES=1 cargo test --test envelope_gate
//! ```
//!
//! which rewrites the fixture from the fresh rows (keeping their
//! `cores_detected` stamp so future readers know what box set the bar).

use cc_bench::envelope::{check_against_envelopes, parse_report, DEFAULT_FACTOR};
use cc_bench::report::{render_report, BenchRecord};

const BENCH_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_kernels.json");
const ENVELOPE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/kernel_envelopes.json"
);

/// The kernel rows the gate tracks. Deliberately the engine-owned paths
/// only: `minplus_naive` is the reference implementation whose speed is
/// not a product property, and family/doubling rows vary with workload
/// shape rather than kernel quality.
const GATED: &[&str] = &[
    "minplus_lanes",
    "minplus_auto",
    "minplus_u16",
    "closure_ktiled",
    "minplus_sparse",
];

#[test]
fn kernel_rows_stay_within_checked_in_envelopes() {
    let Ok(fresh_doc) = std::fs::read_to_string(BENCH_PATH) else {
        eprintln!("no BENCH_kernels.json — run `FAST=1 cargo bench -p cc-bench --bench perf`; skipping gate");
        return;
    };
    let fresh = parse_report(&fresh_doc).expect("BENCH_kernels.json parses");

    if std::env::var_os("UPDATE_ENVELOPES").is_some() {
        let rows: Vec<BenchRecord> = fresh
            .iter()
            .filter(|r| r.threads == 1 && GATED.contains(&r.experiment.as_str()))
            .map(|r| BenchRecord {
                experiment: r.experiment.clone(),
                n: r.n,
                threads: r.threads,
                wall_ms: r.wall_ms,
                rounds: 0,
                extras: r.extras.clone(),
            })
            .collect();
        assert_eq!(
            rows.len(),
            GATED.len(),
            "fresh report is missing gated rows — rerun the perf bench"
        );
        std::fs::write(ENVELOPE_PATH, render_report(&rows)).expect("write envelopes");
        eprintln!("rewrote {ENVELOPE_PATH} from {} fresh rows", rows.len());
        return;
    }

    let envelope_doc = std::fs::read_to_string(ENVELOPE_PATH).expect("kernel_envelopes.json");
    let envelopes = parse_report(&envelope_doc).expect("kernel_envelopes.json parses");
    assert_eq!(
        envelopes.len(),
        GATED.len(),
        "envelope fixture out of sync with the gated row list"
    );
    let regressions = check_against_envelopes(&fresh, &envelopes, DEFAULT_FACTOR);
    assert!(
        regressions.is_empty(),
        "perf regressions vs tests/fixtures/kernel_envelopes.json (>{}x):\n  {}\n\
         (if intentional, re-baseline with UPDATE_ENVELOPES=1 — see this test's module docs)",
        DEFAULT_FACTOR,
        regressions
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join("\n  ")
    );
}

#[test]
fn envelope_fixture_is_parseable_and_single_threaded() {
    let doc = std::fs::read_to_string(ENVELOPE_PATH).expect("kernel_envelopes.json");
    let rows = parse_report(&doc).expect("fixture parses");
    assert!(!rows.is_empty());
    for row in &rows {
        assert_eq!(
            row.threads, 1,
            "{}: only threads=1 rows are gateable",
            row.experiment
        );
        assert!(row.wall_ms > 0.0);
        assert!(
            row.extra("cores_detected").is_some(),
            "{}: envelopes must record the machine that set the bar",
            row.experiment
        );
        assert!(
            GATED.contains(&row.experiment.as_str()),
            "{}",
            row.experiment
        );
    }
}
