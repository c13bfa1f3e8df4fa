//! Perf-regression envelopes: parse `BENCH_*.json` reports and diff fresh
//! rows against checked-in reference bounds.
//!
//! The report files are written by [`crate::report`]'s hand-rolled
//! serializer, so this module only needs to read back that one flat shape —
//! a `cc-apsp-bench/v1` document whose records hold string and number
//! fields. The gate (`tests/envelope_gate.rs` at the workspace root, also
//! run by CI's kernel-matrix job) compares a fresh FAST-mode
//! `BENCH_kernels.json` against `tests/fixtures/kernel_envelopes.json` and
//! fails on any row slower than [`DEFAULT_FACTOR`]× its envelope.
//!
//! Envelopes are deliberately generous: they are regenerated from a real
//! run (`UPDATE_ENVELOPES=1`), carry the `cores_detected` stamp of the
//! machine that produced them, and only `threads == 1` rows are gated so a
//! faster or more parallel runner can never fail the gate — only a genuine
//! slowdown can.

use std::fmt;

/// Gate threshold: a fresh row fails when `wall_ms > factor × envelope`.
/// 2x on top of measured-on-this-box envelopes absorbs CI runner noise
/// while still catching the regressions worth catching (a kernel silently
/// falling back to naive is >2x on every dense row).
pub const DEFAULT_FACTOR: f64 = 2.0;

/// One parsed report row (the fields the gate needs; unknown numeric
/// extras are kept verbatim).
#[derive(Debug, Clone, PartialEq)]
pub struct ReportRow {
    /// Experiment id, e.g. `"minplus_lanes"`.
    pub experiment: String,
    /// Problem size.
    pub n: usize,
    /// Thread count of the run.
    pub threads: usize,
    /// Wall-clock milliseconds (best-of-reps).
    pub wall_ms: f64,
    /// Every other numeric field, e.g. `kernel_code`, `cores_detected`.
    pub extras: Vec<(String, f64)>,
}

impl ReportRow {
    /// The numeric extra named `key`, if present.
    pub fn extra(&self, key: &str) -> Option<f64> {
        self.extras.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }
}

/// One gate failure: a fresh row slower than `factor ×` its envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Experiment id of the offending row.
    pub experiment: String,
    /// Problem size of the matched pair.
    pub n: usize,
    /// Thread count of the matched pair.
    pub threads: usize,
    /// Fresh measurement (ms).
    pub fresh_ms: f64,
    /// Checked-in envelope (ms).
    pub envelope_ms: f64,
}

impl fmt::Display for Regression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} n={} threads={}: {:.2} ms vs envelope {:.2} ms ({:.2}x)",
            self.experiment,
            self.n,
            self.threads,
            self.fresh_ms,
            self.envelope_ms,
            self.fresh_ms / self.envelope_ms.max(f64::MIN_POSITIVE)
        )
    }
}

/// Parses a `cc-apsp-bench/v1` document into its rows.
///
/// Rejects other schemas and malformed documents with a message naming the
/// byte offset, so a truncated or hand-mangled fixture fails loudly rather
/// than gating nothing.
pub fn parse_report(doc: &str) -> Result<Vec<ReportRow>, String> {
    let mut s = Scanner::new(doc);
    s.skip_ws();
    s.expect(b'{')?;
    let mut schema_ok = false;
    let mut rows: Option<Vec<ReportRow>> = None;
    loop {
        s.skip_ws();
        let key = s.parse_string()?;
        s.skip_ws();
        s.expect(b':')?;
        s.skip_ws();
        match key.as_str() {
            "schema" => {
                let v = s.parse_string()?;
                if v != "cc-apsp-bench/v1" {
                    return Err(format!("unsupported schema {v:?}"));
                }
                schema_ok = true;
            }
            "records" => rows = Some(parse_records(&mut s)?),
            other => return Err(format!("unexpected top-level key {other:?}")),
        }
        s.skip_ws();
        if !s.eat(b',') {
            break;
        }
    }
    s.expect(b'}')?;
    if !schema_ok {
        return Err("missing schema field".into());
    }
    rows.ok_or_else(|| "missing records field".into())
}

fn parse_records(s: &mut Scanner) -> Result<Vec<ReportRow>, String> {
    s.expect(b'[')?;
    let mut rows = Vec::new();
    s.skip_ws();
    if s.eat(b']') {
        return Ok(rows);
    }
    loop {
        s.skip_ws();
        rows.push(parse_row(s)?);
        s.skip_ws();
        if !s.eat(b',') {
            break;
        }
    }
    s.expect(b']')?;
    Ok(rows)
}

fn parse_row(s: &mut Scanner) -> Result<ReportRow, String> {
    s.expect(b'{')?;
    let mut experiment = None;
    let (mut n, mut threads, mut wall_ms) = (None, None, None);
    let mut extras = Vec::new();
    loop {
        s.skip_ws();
        let key = s.parse_string()?;
        s.skip_ws();
        s.expect(b':')?;
        s.skip_ws();
        match key.as_str() {
            "experiment" => experiment = Some(s.parse_string()?),
            "n" => n = Some(s.parse_number()? as usize),
            "threads" => threads = Some(s.parse_number()? as usize),
            "wall_ms" => wall_ms = Some(s.parse_number()?),
            _ => extras.push((key, s.parse_number()?)),
        }
        s.skip_ws();
        if !s.eat(b',') {
            break;
        }
    }
    s.expect(b'}')?;
    Ok(ReportRow {
        experiment: experiment.ok_or("record missing experiment")?,
        n: n.ok_or("record missing n")?,
        threads: threads.ok_or("record missing threads")?,
        wall_ms: wall_ms.ok_or("record missing wall_ms")?,
        extras,
    })
}

/// Diffs `fresh` rows against `envelopes`, gating only `threads == 1`
/// envelope rows (multi-thread timings on an unknown runner are not
/// upper-boundable). A fresh row regresses when
/// `fresh.wall_ms > factor × envelope.wall_ms` for the matching
/// `(experiment, n, threads)`.
///
/// An envelope row with no matching fresh row is also reported (as a
/// regression with `fresh_ms = +∞`): a silently dropped bench row must not
/// silently drop its gate.
pub fn check_against_envelopes(
    fresh: &[ReportRow],
    envelopes: &[ReportRow],
    factor: f64,
) -> Vec<Regression> {
    let mut out = Vec::new();
    for env in envelopes.iter().filter(|e| e.threads == 1) {
        let matched = fresh
            .iter()
            .find(|f| f.experiment == env.experiment && f.n == env.n && f.threads == env.threads);
        let fresh_ms = matched.map_or(f64::INFINITY, |f| f.wall_ms);
        if fresh_ms > factor * env.wall_ms {
            out.push(Regression {
                experiment: env.experiment.clone(),
                n: env.n,
                threads: env.threads,
                fresh_ms,
                envelope_ms: env.wall_ms,
            });
        }
    }
    out
}

/// Validates that `doc` is one well-formed JSON value (any shape — objects,
/// arrays, strings, numbers, booleans, null) with nothing trailing.
///
/// This is the same byte `Scanner` the report parser runs on, opened up
/// to generic JSON so the trace files `ccapsp --trace` writes (the
/// `cc-obs/v1` span dump and the Chrome-trace event file) can be smoke-
/// checked by CI without a serde dependency. Errors name the byte offset.
pub fn validate_json(doc: &str) -> Result<(), String> {
    let mut s = Scanner::new(doc);
    s.skip_ws();
    s.parse_value()?;
    s.skip_ws();
    if s.i < s.s.len() {
        return Err(format!("trailing content at byte {}", s.i));
    }
    Ok(())
}

/// Byte-level scanner over the report document.
struct Scanner<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Scanner<'a> {
    fn new(doc: &'a str) -> Self {
        Self {
            s: doc.as_bytes(),
            i: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.i < self.s.len() && self.s[self.i] == b {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {} (found {:?})",
                b as char,
                self.i,
                self.s.get(self.i).map(|&c| c as char)
            ))
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        while self.i < self.s.len() {
            match self.s[self.i] {
                b'"' => {
                    self.i += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.i += 1;
                    let esc = *self
                        .s
                        .get(self.i)
                        .ok_or_else(|| format!("dangling escape at byte {}", self.i))?;
                    out.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.i + 1..self.i + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            self.i += 4;
                            char::from_u32(code).ok_or("invalid \\u escape")?
                        }
                        other => return Err(format!("unknown escape {:?}", other as char)),
                    });
                    self.i += 1;
                }
                _ => {
                    // Multi-byte UTF-8 is copied through byte-wise; the
                    // input is a &str so the bytes are valid.
                    let start = self.i;
                    while self.i < self.s.len() && !matches!(self.s[self.i], b'"' | b'\\') {
                        self.i += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?,
                    );
                }
            }
        }
        Err("unterminated string".into())
    }

    /// Recursive-descent over one generic JSON value (for
    /// [`validate_json`]; the report parser keeps its schema-directed
    /// entry points).
    fn parse_value(&mut self) -> Result<(), String> {
        self.skip_ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                self.skip_ws();
                if self.eat(b'}') {
                    return Ok(());
                }
                loop {
                    self.skip_ws();
                    self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.parse_value()?;
                    self.skip_ws();
                    if !self.eat(b',') {
                        break;
                    }
                }
                self.expect(b'}')
            }
            Some(b'[') => {
                self.i += 1;
                self.skip_ws();
                if self.eat(b']') {
                    return Ok(());
                }
                loop {
                    self.parse_value()?;
                    self.skip_ws();
                    if !self.eat(b',') {
                        break;
                    }
                }
                self.expect(b']')
            }
            Some(b'"') => self.parse_string().map(|_| ()),
            Some(b't') => self.parse_literal("true"),
            Some(b'f') => self.parse_literal("false"),
            Some(b'n') => self.parse_literal("null"),
            Some(_) => self.parse_number().map(|_| ()),
            None => Err(format!("expected a value at byte {}", self.i)),
        }
    }

    fn parse_literal(&mut self, lit: &str) -> Result<(), String> {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(format!("expected {lit:?} at byte {}", self.i))
        }
    }

    fn parse_number(&mut self) -> Result<f64, String> {
        let start = self.i;
        while self.i < self.s.len()
            && matches!(
                self.s[self.i],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .map_err(|e| e.to_string())?
            .parse::<f64>()
            .map_err(|_| format!("expected number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{render_report, BenchRecord};

    fn record(experiment: &str, threads: usize, wall_ms: f64) -> BenchRecord {
        BenchRecord {
            experiment: experiment.into(),
            n: 512,
            threads,
            wall_ms,
            rounds: 0,
            extras: vec![("kernel_code".into(), 0.0)],
        }
    }

    #[test]
    fn parse_round_trips_the_report_serializer() {
        let records = vec![
            record("minplus_lanes", 1, 12.5),
            record("minplus_u16", 2, 8.25),
        ];
        let rows = parse_report(&render_report(&records)).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].experiment, "minplus_lanes");
        assert_eq!(rows[0].n, 512);
        assert_eq!(rows[0].threads, 1);
        assert_eq!(rows[0].wall_ms, 12.5);
        assert_eq!(rows[0].extra("kernel_code"), Some(0.0));
        // The serializer stamps cores_detected; the parser keeps it.
        assert!(rows[0].extra("cores_detected").is_some());
        assert_eq!(rows[1].threads, 2);
    }

    #[test]
    fn parse_handles_escaped_strings() {
        let records = vec![record("quo\"te\\slash", 1, 1.0)];
        let rows = parse_report(&render_report(&records)).unwrap();
        assert_eq!(rows[0].experiment, "quo\"te\\slash");
    }

    #[test]
    fn parse_rejects_other_schemas_and_garbage() {
        assert!(parse_report("{\"schema\": \"other/v9\", \"records\": []}").is_err());
        assert!(parse_report("{\"records\": []}").is_err());
        assert!(parse_report("{\"schema\": \"cc-apsp-bench/v1\"}").is_err());
        assert!(parse_report("not json").is_err());
        assert!(parse_report("{\"schema\": \"cc-apsp-bench/v1\", \"records\": [").is_err());
    }

    #[test]
    fn gate_passes_within_factor_and_fails_beyond() {
        let envelopes = [report_row("minplus_lanes", 1, 10.0)];
        let ok = [report_row("minplus_lanes", 1, 19.9)];
        assert!(check_against_envelopes(&ok, &envelopes, 2.0).is_empty());
        let slow = [report_row("minplus_lanes", 1, 20.1)];
        let regs = check_against_envelopes(&slow, &envelopes, 2.0);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].experiment, "minplus_lanes");
        assert!(regs[0].to_string().contains("2.01x"));
    }

    #[test]
    fn gate_ignores_multithread_envelope_rows() {
        let envelopes = [report_row("minplus_lanes", 4, 10.0)];
        let slow = [report_row("minplus_lanes", 4, 1000.0)];
        assert!(check_against_envelopes(&slow, &envelopes, 2.0).is_empty());
    }

    #[test]
    fn gate_reports_missing_fresh_rows() {
        let envelopes = [report_row("minplus_lanes", 1, 10.0)];
        let regs = check_against_envelopes(&[], &envelopes, 2.0);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].fresh_ms, f64::INFINITY);
    }

    #[test]
    fn validate_json_accepts_generic_documents() {
        for doc in [
            "{}",
            "[]",
            "null",
            "true",
            "-12.5e3",
            "\"str\\u0041\"",
            "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"X\",\"ts\":0.5,\"dur\":1,\"pid\":1,\"tid\":0}]}",
            "{\"spans\":[{\"children\":[],\"attrs\":{\"rounds\":3}}],\"counters\":{}}",
            "  [1, [2, {\"a\": null}], false]  ",
        ] {
            assert!(validate_json(doc).is_ok(), "{doc}");
        }
    }

    #[test]
    fn validate_json_rejects_malformed_documents() {
        for doc in [
            "",
            "{",
            "[1,]",
            "{\"a\"}",
            "{\"a\":1,}",
            "{} {}",
            "truth",
            "\"unterminated",
            "[1] trailing",
        ] {
            assert!(validate_json(doc).is_err(), "{doc}");
        }
    }

    fn report_row(experiment: &str, threads: usize, wall_ms: f64) -> ReportRow {
        ReportRow {
            experiment: experiment.into(),
            n: 512,
            threads,
            wall_ms,
            extras: Vec::new(),
        }
    }
}
