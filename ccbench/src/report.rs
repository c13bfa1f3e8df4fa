//! Metric catalogs, the human-readable report, and the one-line JSON result.
//!
//! Every workload reports every end-to-end metric (`--trace 0`) and every
//! per-layer metric (`--trace 1`). A per-layer metric of a layer the
//! workload never calls reads 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`. What `primary_ms` and `secondary_ms`
/// time differs per workload; see `ccbench/README.md`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("primary_ms", "ms"),
    ("secondary_ms", "ms"),
    ("answers_per_s", "1/s"),
    ("rounds", "count"),
    ("stretch_max", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`, grouped by layer.
pub const PER_LAYER: [(&str, &str); 57] = [
    // cc_apsp: the one-call thm11 time, and the four public steps of
    // theorem_1_1, replayed.
    ("thm11.ms", "ms"),
    ("knearest.ms", "ms"),
    ("knearest.cpu_util", "ratio"),
    ("skeleton.ms", "ms"),
    ("skeleton.nodes", "count"),
    ("child_thm81.ms", "ms"),
    ("extend.ms", "ms"),
    // clique_sim: rounds and words the replayed steps were charged.
    ("rounds.knearest", "count"),
    ("rounds.skeleton", "count"),
    ("rounds.child", "count"),
    ("rounds.extend", "count"),
    ("words.knearest", "count"),
    // cc_matrix / cc_baselines: the exact squaring loop.
    ("minplus.square_ms", "ms"),
    ("minplus.squarings", "count"),
    ("minplus.kernel", "code"),
    ("minplus.gops", "Gop/s"),
    ("minplus.cpu_util", "ratio"),
    // cc_serve::snapshot
    ("snapshot.encode_ms", "ms"),
    ("snapshot.decode_ms", "ms"),
    ("snapshot.bytes", "bytes"),
    // cc_serve::service
    ("service.batch_ms", "ms"),
    ("service.dist_ns", "ns"),
    ("service.route_ns", "ns"),
    ("service.knearest_hit_ns", "ns"),
    ("service.knearest_miss_ns", "ns"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.cache_hits", "count"),
    ("service.cache_lookups", "count"),
    ("service.seq_qps", "1/s"),
    ("service.scaling", "ratio"),
    // cc_serve::wire
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.bytes_per_query", "bytes"),
    // cc_serve::server + client
    ("net.rtt_ms", "ms"),
    ("net.service_ms", "ms"),
    ("net.residual_ms", "ms"),
    ("server.queries_per_sweep", "count"),
    ("server.overloads", "count"),
    ("open.gen_lag_ms", "ms"),
    // cc_dynamic
    ("dynamic.repair_ms", "ms"),
    ("dynamic.rebuild_ms", "ms"),
    ("dynamic.repairs", "count"),
    ("dynamic.rebuilds", "count"),
    ("dynamic.delta_rows", "count"),
    ("delta.encode_ms", "ms"),
    ("delta.bytes", "bytes"),
    ("service.apply_delta_ms", "ms"),
    // cc_obs: cost of turning the recorder and the spans on.
    ("trace.overhead_pct", "%"),
    // Self time per layer over the traced region, and what is left over.
    ("self.cc_apsp_ms", "ms"),
    ("self.cc_baselines_ms", "ms"),
    ("self.cc_matrix_ms", "ms"),
    ("self.cc_dynamic_ms", "ms"),
    ("self.cc_serve_service_ms", "ms"),
    ("self.cc_serve_net_ms", "ms"),
    ("self.harness_ms", "ms"),
    ("layers.residual_ms", "ms"),
    ("layers.residual_pct", "%"),
];

/// Layer labels of the benchmark's spans, mapped to their `self.*` metric.
pub const SELF_METRICS: [(&str, &str); 7] = [
    ("cc_apsp", "self.cc_apsp_ms"),
    ("cc_baselines", "self.cc_baselines_ms"),
    ("cc_matrix", "self.cc_matrix_ms"),
    ("cc_dynamic", "self.cc_dynamic_ms"),
    ("cc_serve.service", "self.cc_serve_service_ms"),
    ("cc_serve.net", "self.cc_serve_net_ms"),
    (crate::trace::HARNESS, "self.harness_ms"),
];

/// One workload's outcome: metrics, operation counts, and report lines.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub lines: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Prints a report line (standard output, before the JSON result).
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Counts one checked operation; a failed check prints why.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.lines.push(format!("CHECK FAILED   {}", what()));
        }
    }

    /// Counts `n` operations of which `failed` failed.
    pub fn count(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// The JSON result line: the catalog selected by `trace`, every metric
    /// present and finite, or `correct` is false.
    pub fn json(&self, trace: bool) -> String {
        let catalog: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut complete = true;
        let mut body = String::new();
        for (i, (name, unit)) in catalog.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(_) => {
                    complete = false;
                    0.0
                }
                // Per-layer metrics of a layer this workload never calls.
                None if trace => 0.0,
                None => {
                    complete = false;
                    0.0
                }
            };
            if i > 0 {
                body.push_str(", ");
            }
            let _ = write!(
                body,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        let correct = complete && self.failed == 0 && self.attempted > 0;
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.attempted.max(1),
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for (_, metric) in SELF_METRICS {
            assert!(PER_LAYER.iter().any(|(n, _)| *n == metric), "{metric}");
        }
    }

    #[test]
    fn benchmark_json_lists_the_catalogs_in_order() {
        let json = include_str!("../../BENCHMARK.json");
        let mut at = 0;
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            let found = json[at..].find(&entry);
            assert!(
                found.is_some(),
                "BENCHMARK.json lacks {entry} after byte {at}"
            );
            at += found.unwrap_or(0) + entry.len();
        }
        assert_eq!(
            json.matches("\"name\":").count(),
            4 + END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn missing_end_to_end_metric_is_not_correct() {
        let mut r = Report::default();
        r.count(1, 0);
        assert!(r.json(false).starts_with("{\"correct\": false"));
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        assert!(r.json(false).starts_with("{\"correct\": true"));
        assert!(r.json(true).starts_with("{\"correct\": true"));
    }
}
