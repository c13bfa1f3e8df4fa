//! Machine-readable benchmark reports.
//!
//! The `perf` bench target times the hot kernels at several thread counts
//! and writes the records as `BENCH_kernels.json` (and `ccapsp
//! bench-oracle` writes `BENCH_oracle.json`), so the performance
//! trajectory (wall-clock × threads × simulated rounds) can be tracked
//! across PRs by tooling instead of by eyeballing logs. The JSON is emitted
//! by a tiny hand-rolled serializer — the workspace has no network access
//! for a real serde dependency.

use std::io::Write;
use std::time::Instant;

/// One timed experiment at one thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Experiment id, e.g. `"exact_apsp"`.
    pub experiment: String,
    /// Problem size (nodes).
    pub n: usize,
    /// Thread count the kernel executed with (1 = sequential).
    pub threads: usize,
    /// Best-of-`reps` wall-clock milliseconds.
    pub wall_ms: f64,
    /// Simulated Congested Clique rounds, when the experiment runs on a
    /// [`clique_sim::Clique`] (0 for purely local kernels).
    pub rounds: u64,
    /// Additional numeric metrics, rendered as extra JSON keys (e.g. the
    /// serve bench's `qps` and latency percentiles). Empty for the kernel
    /// benches.
    pub extras: Vec<(String, f64)>,
}

/// Number of logical CPU cores visible to this process.
///
/// Stamped into every record's extras by [`render_report`] so speedup
/// claims in checked-in reports stay interpretable: `threads=4, speedup
/// ~1x, cores_detected=1` is the expected shape on a 1-CPU container, not
/// a scaling bug.
pub fn cores_detected() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

impl BenchRecord {
    fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"experiment\":{},\"n\":{},\"threads\":{},\"wall_ms\":{:.3},\"rounds\":{}",
            json_string(&self.experiment),
            self.n,
            self.threads,
            self.wall_ms,
            self.rounds
        );
        for (key, value) in &self.extras {
            out.push_str(&format!(",{}:{value:.3}", json_string(key)));
        }
        out.push('}');
        out
    }
}

/// Escapes `s` as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders the full report document.
///
/// Every record is stamped with a `cores_detected` extra (unless the caller
/// already set one), so all `BENCH_*.json` files carry the machine context
/// their thread-scaling numbers were measured under.
pub fn render_report(records: &[BenchRecord]) -> String {
    let cores = cores_detected() as f64;
    let rows: Vec<String> = records
        .iter()
        .map(|r| {
            let mut r = r.clone();
            if !r.extras.iter().any(|(k, _)| k == "cores_detected") {
                r.extras.push(("cores_detected".into(), cores));
            }
            format!("    {}", r.to_json())
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"cc-apsp-bench/v1\",\n  \"records\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    )
}

/// Writes the report to `path`.
pub fn write_report(path: &str, records: &[BenchRecord]) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(render_report(records).as_bytes())
}

/// Flattens a captured `cc_obs` span tree into `phase_<name>_ms` extras:
/// one entry per distinct span **name** anywhere in the tree (so nested
/// pipeline phases like `pipeline/theorem-1.1/spanner-bootstrap` each get
/// their own `phase_spanner_bootstrap_ms`), with non-alphanumeric name
/// characters collapsed to `_` and same-name spans summed. Attaching this
/// to a [`BenchRecord`] makes the BENCH_*.json explain *where* an
/// experiment's wall-clock went, not just its total.
pub fn phase_extras(snapshot: &cc_obs::Snapshot) -> Vec<(String, f64)> {
    fn sanitize(name: &str) -> String {
        let mut out = String::with_capacity(name.len());
        for c in name.chars() {
            if c.is_ascii_alphanumeric() {
                out.push(c.to_ascii_lowercase());
            } else if !out.ends_with('_') && !out.is_empty() {
                out.push('_');
            }
        }
        out.trim_end_matches('_').to_string()
    }
    fn walk(extras: &mut Vec<(String, f64)>, nodes: &[cc_obs::SpanNode]) {
        for node in nodes {
            let key = format!("phase_{}_ms", sanitize(&node.name));
            let ms = node.total_ns as f64 / 1e6;
            match extras.iter_mut().find(|(k, _)| *k == key) {
                Some((_, v)) => *v += ms,
                None => extras.push((key, ms)),
            }
            walk(extras, &node.children);
        }
    }
    let mut extras = Vec::new();
    walk(&mut extras, &snapshot.spans);
    extras
}

/// Times `f` as best-of-`reps` wall-clock milliseconds, returning the last
/// repetition's output alongside (so callers can pull rounds out of it and
/// the optimizer cannot drop the work).
pub fn time_best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    assert!(reps >= 1, "need at least one repetition");
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let start = Instant::now();
        let out = f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        last = Some(out);
    }
    (best, last.expect("reps >= 1"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_is_valid_shaped_json() {
        let records = vec![
            BenchRecord {
                experiment: "exact_apsp".into(),
                n: 512,
                threads: 4,
                wall_ms: 12.5,
                rounds: 0,
                extras: vec![("qps".into(), 1234.5), ("p99_us".into(), 7.25)],
            },
            BenchRecord {
                experiment: "pipe\"line".into(),
                n: 128,
                threads: 1,
                wall_ms: 3.25,
                rounds: 42,
                extras: Vec::new(),
            },
        ];
        let doc = render_report(&records);
        assert!(doc.contains("\"schema\": \"cc-apsp-bench/v1\""));
        assert!(doc.contains("\"experiment\":\"exact_apsp\""));
        assert!(doc.contains("\"wall_ms\":12.500"));
        assert!(doc.contains("\"rounds\":42"));
        assert!(doc.contains("\"qps\":1234.500"));
        assert!(doc.contains("\"p99_us\":7.250"));
        assert!(doc.contains("pipe\\\"line"));
        // Every record gets the machine-context stamp exactly once.
        assert_eq!(doc.matches("\"cores_detected\":").count(), records.len());
        assert!(doc.contains(&format!("\"cores_detected\":{}.000", cores_detected())));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }

    #[test]
    fn caller_supplied_cores_detected_is_not_duplicated() {
        let records = vec![BenchRecord {
            experiment: "x".into(),
            n: 1,
            threads: 1,
            wall_ms: 1.0,
            rounds: 0,
            extras: vec![("cores_detected".into(), 99.0)],
        }];
        let doc = render_report(&records);
        assert_eq!(doc.matches("\"cores_detected\":").count(), 1);
        assert!(doc.contains("\"cores_detected\":99.000"));
    }

    #[test]
    fn phase_extras_flattens_and_sums_by_sanitized_name() {
        fn node(name: &str, ns: u64, children: Vec<cc_obs::SpanNode>) -> cc_obs::SpanNode {
            cc_obs::SpanNode {
                name: name.into(),
                path: name.into(),
                count: 1,
                total_ns: ns,
                attrs: Vec::new(),
                children,
            }
        }
        let snap = cc_obs::Snapshot {
            spans: vec![node(
                "pipeline",
                10_000_000,
                vec![node(
                    "theorem-1.1",
                    9_000_000,
                    vec![
                        node("spanner-bootstrap", 2_000_000, Vec::new()),
                        node("minplus[dense-ultra]", 1_000_000, Vec::new()),
                        node("minplus[dense-ultra]", 3_000_000, Vec::new()),
                    ],
                )],
            )],
            ..Default::default()
        };
        let extras = phase_extras(&snap);
        let get = |k: &str| extras.iter().find(|(key, _)| key == k).map(|(_, v)| *v);
        assert_eq!(get("phase_pipeline_ms"), Some(10.0));
        assert_eq!(get("phase_theorem_1_1_ms"), Some(9.0));
        assert_eq!(get("phase_spanner_bootstrap_ms"), Some(2.0));
        assert_eq!(get("phase_minplus_dense_ultra_ms"), Some(4.0));
        assert_eq!(extras.len(), 4);
    }

    #[test]
    fn time_best_of_returns_min_and_output() {
        let mut calls = 0;
        let (ms, out) = time_best_of(3, || {
            calls += 1;
            calls
        });
        assert_eq!(calls, 3);
        assert_eq!(out, 3);
        assert!(ms >= 0.0);
    }
}
