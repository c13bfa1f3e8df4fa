//! End-to-end smoke tests for the `ccapsp` binary: the usage listing names
//! every subcommand, each subcommand's documented invocations exit 0 with
//! their outputs written, malformed command lines exit 2, and `gen → info →
//! run` round-trips through a file on disk.

use cc_bench::envelope::validate_json;
use std::io::{BufRead, BufReader, Lines};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Output, Stdio};

fn ccapsp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ccapsp"))
        .args(args)
        .output()
        .expect("failed to spawn ccapsp")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The line of `out` that starts with `label`.
fn line<'a>(out: &'a str, label: &str) -> &'a str {
    out.lines()
        .find(|l| l.starts_with(label))
        .unwrap_or_else(|| panic!("no {label} line in: {out}"))
}

/// Runs `ccapsp bench-serve` in an empty temporary directory and returns its
/// stdout, failing the test if it exits non-zero or leaves a file behind.
fn bench_serve(tag: &str, args: &[&str]) -> String {
    let dir = std::env::temp_dir().join(format!("ccapsp_smoke_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_ccapsp"))
        .current_dir(&dir)
        .arg("bench-serve")
        .args(args)
        .output()
        .expect("failed to spawn ccapsp");
    let left: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(out.status.success(), "bench-serve {args:?} failed: {out:?}");
    assert!(left.is_empty(), "bench-serve {args:?} wrote {left:?}");
    stdout(&out)
}

/// A unique scratch path per test, cleaned up by the returned guard.
struct TempEdges(PathBuf);

impl TempEdges {
    fn new(tag: &str) -> Self {
        Self::with_ext(tag, "edges")
    }

    fn with_ext(tag: &str, ext: &str) -> Self {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "ccapsp_smoke_{}_{}.{}",
            tag,
            std::process::id(),
            ext
        ));
        TempEdges(p)
    }

    fn as_str(&self) -> &str {
        self.0.to_str().unwrap()
    }
}

impl Drop for TempEdges {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn gen_info_run_round_trip() {
    let edges = TempEdges::new("round_trip");

    let gen = ccapsp(&["gen", "gnp", "40", "7", edges.as_str()]);
    assert!(gen.status.success(), "gen failed: {gen:?}");
    assert!(
        stdout(&gen).contains("40 nodes"),
        "gen output: {}",
        stdout(&gen)
    );

    let info = ccapsp(&["info", edges.as_str()]);
    assert!(info.status.success(), "info failed: {info:?}");
    let info_out = stdout(&info);
    assert!(
        info_out.contains("nodes          40"),
        "info output: {info_out}"
    );
    assert!(
        info_out.contains("components     1"),
        "info output: {info_out}"
    );

    let run = ccapsp(&["run", edges.as_str(), "--algo", "thm11", "--seed", "3"]);
    assert!(run.status.success(), "run failed: {run:?}");
    let run_out = stdout(&run);
    assert!(
        run_out.contains("algorithm      thm11"),
        "run output: {run_out}"
    );
    assert!(
        run_out.contains("valid          true"),
        "run output: {run_out}"
    );
}

#[test]
fn every_documented_algo_exits_zero() {
    let edges = TempEdges::new("algos");
    assert!(ccapsp(&["gen", "gnp", "32", "1", edges.as_str()])
        .status
        .success());
    for algo in ["thm11", "thm81", "smalldiam", "spanner", "exact"] {
        let run = ccapsp(&["run", edges.as_str(), "--algo", algo]);
        assert!(run.status.success(), "--algo {algo} failed: {run:?}");
        assert!(
            stdout(&run).contains("valid          true"),
            "--algo {algo} produced an invalid estimate: {}",
            stdout(&run)
        );
    }
}

#[test]
fn every_documented_family_generates() {
    for family in ["gnp", "geo", "ba", "grid", "pathz", "wide"] {
        let edges = TempEdges::new(&format!("family_{family}"));
        let gen = ccapsp(&["gen", family, "24", "5", edges.as_str()]);
        assert!(gen.status.success(), "gen {family} failed: {gen:?}");
        let info = ccapsp(&["info", edges.as_str()]);
        assert!(info.status.success(), "info on {family} failed: {info:?}");
    }
}

#[test]
fn snapshot_query_bench_serve_round_trip() {
    let snap = TempEdges::with_ext("serving", "ccsnap");

    let made = ccapsp(&["snapshot", "--n", "48", "--seed", "7", "-o", snap.as_str()]);
    assert!(made.status.success(), "snapshot failed: {made:?}");
    assert!(
        stdout(&made).contains("48 nodes"),
        "snapshot output: {}",
        stdout(&made)
    );

    let dist = ccapsp(&["query", snap.as_str(), "dist", "0", "5"]);
    assert!(dist.status.success(), "query dist failed: {dist:?}");
    assert!(
        stdout(&dist).contains("dist 0 -> 5"),
        "dist output: {}",
        stdout(&dist)
    );

    let route = ccapsp(&["query", snap.as_str(), "route", "0", "5"]);
    assert!(route.status.success(), "query route failed: {route:?}");
    assert!(
        stdout(&route).contains("route"),
        "route output: {}",
        stdout(&route)
    );

    let knn = ccapsp(&["query", snap.as_str(), "knearest", "0", "4"]);
    assert!(knn.status.success(), "query knearest failed: {knn:?}");
    assert!(
        stdout(&knn).contains("k-nearest      4 entries"),
        "knearest output: {}",
        stdout(&knn)
    );

    // Serve the snapshot at two thread counts: results (the printed
    // fingerprint) must match.
    let mut fingerprints = Vec::new();
    for threads in ["1", "4"] {
        let out = bench_serve(
            "serving",
            &[
                snap.as_str(),
                "--queries",
                "3000",
                "--threads",
                threads,
                "--seed",
                "7",
            ],
        );
        fingerprints.push(line(&out, "fingerprint").to_string());
    }
    assert_eq!(
        fingerprints[0], fingerprints[1],
        "served results diverged across thread counts"
    );
}

/// The served bytes of a fixed snapshot and stream, pinned: `bench-serve`'s
/// fingerprint for the n=48 seed-7 graph, as a dense thm11 snapshot and as
/// a landmark one, at one and at four threads.
#[test]
fn bench_serve_fingerprints_are_pinned() {
    for (oracle, expect) in [
        ("dense", "fingerprint    cd558f6292658409"),
        ("landmark", "fingerprint    8158d4944fc468a8"),
    ] {
        let snap = TempEdges::with_ext(&format!("pin_{oracle}"), "ccsnap");
        let made = ccapsp(&[
            "snapshot",
            "--n",
            "48",
            "--seed",
            "7",
            "--oracle",
            oracle,
            "-o",
            snap.as_str(),
        ]);
        assert!(made.status.success(), "snapshot failed: {made:?}");
        for threads in ["1", "4"] {
            let out = bench_serve(
                &format!("pin_{oracle}"),
                &[
                    snap.as_str(),
                    "--queries",
                    "3000",
                    "--seed",
                    "7",
                    "--threads",
                    threads,
                ],
            );
            assert_eq!(
                line(&out, "fingerprint"),
                expect,
                "{oracle}, threads={threads}"
            );
        }
    }
}

#[test]
fn query_rejects_out_of_range_nodes() {
    let snap = TempEdges::with_ext("range", "ccsnap");
    assert!(
        ccapsp(&["snapshot", "--n", "16", "--seed", "1", "-o", snap.as_str()])
            .status
            .success()
    );
    // Out-of-range node is a runtime failure (1), not a usage error (2).
    assert_eq!(
        ccapsp(&["query", snap.as_str(), "dist", "0", "99"])
            .status
            .code(),
        Some(1)
    );
    // A corrupt snapshot is reported cleanly.
    std::fs::write(snap.as_str(), b"not a snapshot").unwrap();
    let bad = ccapsp(&["query", snap.as_str(), "dist", "0", "1"]);
    assert_eq!(bad.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&bad.stderr).contains("magic"));
}

#[test]
fn usage_lists_every_subcommand() {
    let none = ccapsp(&[]);
    assert_eq!(none.status.code(), Some(2));
    let usage = String::from_utf8_lossy(&none.stderr).into_owned();
    for sub in [
        "gen",
        "info",
        "run",
        "snapshot",
        "query",
        "update",
        "compact",
        "bench-serve",
        "bench-oracle",
        "serve",
        "serve-admin",
        "top",
        "serve-chaos",
    ] {
        assert!(
            usage.contains(&format!("ccapsp {sub}")),
            "usage missing {sub}: {usage}"
        );
    }
    assert!(usage.contains("hint:"), "usage has no hint: {usage}");
}

#[test]
fn bad_invocations_exit_nonzero_with_usage() {
    // No arguments at all.
    let none = ccapsp(&[]);
    assert_eq!(none.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&none.stderr).contains("usage:"));

    // Unknown subcommand, unknown family, unknown algorithm.
    assert_eq!(ccapsp(&["frobnicate"]).status.code(), Some(2));
    assert_eq!(
        ccapsp(&["gen", "nope", "8", "1", "/tmp/x.edges"])
            .status
            .code(),
        Some(2)
    );
    let edges = TempEdges::new("bad_algo");
    assert!(ccapsp(&["gen", "gnp", "16", "1", edges.as_str()])
        .status
        .success());
    assert_eq!(
        ccapsp(&["run", edges.as_str(), "--algo", "nope"])
            .status
            .code(),
        Some(2)
    );

    // Missing file is a runtime failure (1), not a usage error (2).
    assert_eq!(
        ccapsp(&["info", "/nonexistent/graph.edges"]).status.code(),
        Some(1)
    );

    // Malformed flags are usage errors too, each named on stderr, and
    // nothing gets written: an unparsable value, a value flag with no value,
    // a flag the subcommand does not take, a flag given twice (`-o` is
    // `--out`), a graph too small to query, a graph path next to --n, and
    // the retired `--repair-fraction`, `bench-serve --out` and
    // `bench-serve --write-ratio`.
    let out = TempEdges::with_ext("bad_out", "ccsnap");
    let (e, o) = (edges.as_str(), out.as_str());
    for (args, why) in [
        (
            &["run", "--n", "32", "--seed", "bogus"][..],
            "\"bogus\" for --seed",
        ),
        (
            &["snapshot", "--n", "32", "-o", o, "--seed"],
            "--seed expects a value",
        ),
        (
            &["run", "--n", "32", "--verbose"],
            "run does not take --verbose",
        ),
        (
            &["run", "--n", "32", "--thread", "2"],
            "run does not take --thread",
        ),
        (
            &["run", "--n", "32", "--seed", "1", "--seed", "2"],
            "--seed given twice",
        ),
        (
            &["snapshot", "--n", "32", "-o", o, "--out", o],
            "--out given twice",
        ),
        (&["snapshot", "--n", "0", "-o", o], "\"0\" for --n"),
        (&["snapshot", "--n", "1", "-o", o], "\"1\" for --n"),
        (
            &["bench-oracle", e, "--n", "64", "-o", o],
            "takes one graph",
        ),
        (
            &["bench-serve", "s.ccsnap", "--out", o],
            "bench-serve does not take --out",
        ),
        (
            &["bench-serve", "s.ccsnap", "--write-ratio", "0.2"],
            "bench-serve does not take --write-ratio",
        ),
        (
            &[
                "update",
                "s.ccsnap",
                "--random",
                "1",
                "--repair-fraction",
                "0.5",
            ],
            "update does not take --repair-fraction",
        ),
    ] {
        let bad = ccapsp(args);
        assert_eq!(bad.status.code(), Some(2), "{args:?}: {bad:?}");
        let stderr = String::from_utf8_lossy(&bad.stderr);
        assert!(
            stderr.contains(why) && stderr.contains("usage:"),
            "{args:?}: {stderr}"
        );
        assert!(!out.0.exists(), "{args:?} wrote {o}");
    }
}

/// The `state  <base> -> <result>` line's result fingerprint.
fn result_fingerprint(out: &str) -> String {
    out.lines()
        .find(|l| l.starts_with("state"))
        .and_then(|l| l.split("-> ").nth(1))
        .expect("update prints a state line")
        .trim()
        .to_string()
}

#[test]
fn update_compact_chain_reproduces_the_direct_snapshot() {
    let s0 = TempEdges::with_ext("dyn_s0", "ccsnap");
    let s = TempEdges::with_ext("dyn_s", "ccsnap");
    let d1 = TempEdges::with_ext("dyn_d1", "ccdelta");
    let d2 = TempEdges::with_ext("dyn_d2", "ccdelta");
    let d3 = TempEdges::with_ext("dyn_d3", "ccdelta");
    let compacted = TempEdges::with_ext("dyn_comp", "ccsnap");

    let made = ccapsp(&[
        "snapshot",
        "--n",
        "48",
        "--seed",
        "7",
        "--algo",
        "exact",
        "-o",
        s0.as_str(),
    ]);
    assert!(made.status.success(), "snapshot failed: {made:?}");

    // Three updates, chaining through the updated snapshot each time.
    let mut last_fingerprint = String::new();
    for (i, (delta, seed)) in [(&d1, "1"), (&d2, "2"), (&d3, "3")].iter().enumerate() {
        let input = if i == 0 { s0.as_str() } else { s.as_str() };
        let up = ccapsp(&[
            "update",
            input,
            "--random",
            "3",
            "--seed",
            seed,
            "--delta",
            delta.as_str(),
            "-o",
            s.as_str(),
        ]);
        assert!(up.status.success(), "update {i} failed: {up:?}");
        let out = stdout(&up);
        assert!(out.contains("strategy"), "update output: {out}");
        last_fingerprint = result_fingerprint(&out);
    }

    // Compacting the chain reproduces the chained snapshot's state.
    let comp = ccapsp(&[
        "compact",
        s0.as_str(),
        d1.as_str(),
        d2.as_str(),
        d3.as_str(),
        "-o",
        compacted.as_str(),
    ]);
    assert!(comp.status.success(), "compact failed: {comp:?}");
    let comp_out = stdout(&comp);
    assert!(
        comp_out.contains(&format!("state          {last_fingerprint}")),
        "compacted state {comp_out} != chained {last_fingerprint}"
    );

    // The compacted snapshot serves queries.
    let q = ccapsp(&["query", compacted.as_str(), "dist", "0", "5"]);
    assert!(q.status.success(), "query failed: {q:?}");
    assert!(stdout(&q).contains("dist 0 -> 5"));

    // Replaying a delta against the wrong base fails loudly.
    let wrong = ccapsp(&["compact", compacted.as_str(), d1.as_str(), "-o", s.as_str()]);
    assert_eq!(wrong.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&wrong.stderr).contains("applies to state"));
}

/// `update … -o` onto its own input path replaces the file whole: the
/// rewritten snapshot holds the printed result state, and no temporary
/// file is left beside it.
#[test]
fn update_in_place_rewrites_the_snapshot_whole() {
    let dir = std::env::temp_dir().join(format!("ccapsp_smoke_in_place_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("s.ccsnap");
    let snap = snap.to_str().unwrap();
    let made = ccapsp(&[
        "snapshot", "--n", "32", "--seed", "7", "--algo", "exact", "-o", snap,
    ]);
    assert!(made.status.success(), "snapshot failed: {made:?}");

    let up = ccapsp(&["update", snap, "--random", "2", "--seed", "4", "-o", snap]);
    assert!(up.status.success(), "in-place update failed: {up:?}");
    let written = result_fingerprint(&stdout(&up));

    // A dry run on the rewritten file starts from exactly that state.
    let again = ccapsp(&["update", snap, "--random", "1", "--seed", "5"]);
    assert!(
        again.status.success(),
        "update of rewritten file: {again:?}"
    );
    let out = stdout(&again);
    let base = out
        .lines()
        .find(|l| l.starts_with("state"))
        .and_then(|l| l.split_whitespace().nth(1))
        .expect("update prints a state line");
    assert_eq!(base, written);

    let names: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(names, ["s.ccsnap"]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn update_reads_ops_files_and_rejects_bad_ones() {
    let snap = TempEdges::with_ext("dyn_ops", "ccsnap");
    let ops = TempEdges::with_ext("dyn_ops", "txt");
    assert!(ccapsp(&[
        "snapshot",
        "--n",
        "24",
        "--seed",
        "3",
        "--algo",
        "exact",
        "-o",
        snap.as_str(),
    ])
    .status
    .success());

    // A valid file: insert a fresh long-range edge (24-node gnp generated
    // with seed 3 has no (0, 23)-style guarantee, so reweight via delete if
    // needed — insert to a fresh pair is the only op valid on any graph
    // when the pair is absent; pick one and fall back across candidates).
    let mut applied = false;
    for (u, v) in [(0, 23), (1, 22), (2, 21), (3, 20)] {
        std::fs::write(ops.as_str(), format!("# one op\ninsert {u} {v} 2\n")).unwrap();
        let up = ccapsp(&["update", snap.as_str(), "--ops", ops.as_str()]);
        if up.status.success() {
            let out = stdout(&up);
            assert!(out.contains("dry run"), "no-output update: {out}");
            applied = true;
            break;
        }
        assert!(String::from_utf8_lossy(&up.stderr).contains("already exists"));
    }
    assert!(applied, "no candidate insert pair was free");

    // A malformed file is a runtime failure with a line number.
    std::fs::write(ops.as_str(), "insert 0 nope 2\n").unwrap();
    let bad = ccapsp(&["update", snap.as_str(), "--ops", ops.as_str()]);
    assert_eq!(bad.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&bad.stderr).contains("line 1"));

    // --ops and --random together is a usage error.
    assert_eq!(
        ccapsp(&[
            "update",
            snap.as_str(),
            "--ops",
            ops.as_str(),
            "--random",
            "2"
        ])
        .status
        .code(),
        Some(2)
    );
}

#[test]
fn bench_oracle_writes_both_backend_rows() {
    let report = TempEdges::with_ext("oracle", "json");
    let out = ccapsp(&[
        "bench-oracle",
        "--n",
        "64",
        "--seed",
        "2",
        "--queries",
        "500",
        "--sources",
        "4",
        "--out",
        report.as_str(),
    ]);
    assert!(out.status.success(), "bench-oracle failed: {out:?}");
    let json = std::fs::read_to_string(report.as_str()).unwrap();
    for row in ["oracle_dense", "oracle_landmark"] {
        assert!(
            json.contains(&format!("\"experiment\":\"{row}\"")),
            "missing {row}: {json}"
        );
    }
}

/// `--trace` (and its `CC_TRACE` / `CC_TRACE_FORMAT` environment defaults)
/// dumps a valid span tree in either format, wherever the flag sits.
#[test]
fn trace_flag_works_before_and_after_the_subcommand() {
    for (format, marker) in [
        ("json", "\"schema\":\"cc-obs/v1\""),
        ("chrome", "\"traceEvents\""),
    ] {
        let path = TempEdges::with_ext(&format!("trace_{format}"), "json");
        let trace = ["--trace", path.as_str(), "--trace-format", format];
        let run = ["run", "--n", "32"];
        let command = |args: &[&str]| {
            let mut c = Command::new(env!("CARGO_BIN_EXE_ccapsp"));
            c.args(args);
            c
        };
        let mut by_env = command(&run);
        by_env
            .env("CC_TRACE", path.as_str())
            .env("CC_TRACE_FORMAT", format);
        for mut traced in [
            command(&[&trace[..], &run[..]].concat()),
            command(&[&run[..], &trace[..]].concat()),
            by_env,
        ] {
            let out = traced.output().expect("failed to spawn ccapsp");
            assert!(out.status.success(), "traced run failed: {out:?}");
            assert!(stdout(&out).contains("wrote trace"), "{}", stdout(&out));
            let doc = std::fs::read_to_string(path.as_str()).unwrap();
            assert!(doc.contains(marker), "{format} trace lacks {marker}");
            validate_json(&doc).unwrap();
            std::fs::remove_file(path.as_str()).unwrap();
        }
    }
}

/// Runs `ccapsp` and returns its stdout, failing the test if it exits non-zero.
fn ok(args: &[&str]) -> String {
    let out = ccapsp(args);
    assert!(out.status.success(), "{args:?} failed: {out:?}");
    stdout(&out)
}

/// A `ccapsp serve` child on OS-assigned ports, killed on drop so a failed
/// assertion never leaves a daemon behind.
struct Daemon {
    child: Child,
    lines: Lines<BufReader<ChildStdout>>,
    addr: String,
    maddr: String,
}

impl Daemon {
    /// Serves `snap` and reads the query and metrics addresses it prints.
    fn start(snap: &str) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_ccapsp"))
            .args(["serve", snap, "--addr", "127.0.0.1:0"])
            .args(["--metrics-addr", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("failed to spawn ccapsp serve");
        let out = child.stdout.take().unwrap();
        let mut daemon = Daemon {
            child,
            lines: BufReader::new(out).lines(),
            addr: String::new(),
            maddr: String::new(),
        };
        for line in &mut daemon.lines {
            let line = line.unwrap();
            if let Some(rest) = line.strip_prefix("listening") {
                daemon.addr = rest.trim().to_string();
            } else if let Some(rest) = line.strip_prefix("metrics http") {
                daemon.maddr = rest.split_whitespace().next().unwrap().to_string();
            } else if line.starts_with("stop with") {
                break;
            }
        }
        assert!(
            !daemon.addr.is_empty() && !daemon.maddr.is_empty(),
            "{:?} {:?}",
            daemon.addr,
            daemon.maddr
        );
        daemon
    }

    /// `serve-admin shutdown`; the child must report its drain and exit 0.
    fn shut_down(&mut self) {
        assert!(ok(&["serve-admin", "--addr", &self.addr, "shutdown"])
            .contains("shutdown acknowledged"));
        assert!(self.child.wait().unwrap().success());
        let rest: Vec<String> = self.lines.by_ref().map(Result::unwrap).collect();
        assert!(
            rest.iter().any(|l| l.starts_with("shutdown       drained")),
            "{rest:?}"
        );
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Every client subcommand against one daemon on OS-assigned ports, then a
/// clean shutdown.
#[test]
fn serve_daemon_answers_every_client_subcommand() {
    let snap = TempEdges::with_ext("daemon", "ccsnap");
    let flight = TempEdges::with_ext("daemon_flight", "json");
    let snap = snap.as_str();
    assert!(
        ccapsp(&["snapshot", "--n", "48", "--seed", "7", "-o", snap])
            .status
            .success()
    );
    let mut daemon = Daemon::start(snap);
    let (addr, maddr) = (daemon.addr.as_str(), daemon.maddr.as_str());
    assert!(ok(&["serve-admin", "--addr", addr, "info"]).contains("nodes          48"));
    assert!(
        ok(&["serve-admin", "--addr", addr, "metrics-v2"]).contains("ccapsp_qps{window=\"1s\"}")
    );
    assert!(ok(&["serve-admin", "--metrics-addr", maddr, "scrape"])
        .contains("# TYPE ccapsp_uptime_seconds "));
    ok(&[
        "serve-admin",
        "--addr",
        addr,
        "flight-dump",
        "--out",
        flight.as_str(),
    ]);
    let doc = std::fs::read_to_string(flight.as_str()).unwrap();
    assert!(doc.contains("\"schema\":\"cc-flight/v1\""), "{doc}");
    assert!(ok(&["top", "--addr", addr, "--frames", "1"]).contains("ccapsp top"));
    assert!(ok(&["serve-chaos", "--addr", addr]).contains("scenarios survived"));
    let bench = bench_serve(
        "daemon",
        &[snap, "--addr", addr, "--conns", "2", "--queries", "2000"],
    );
    assert!(bench.contains("verified"), "{bench}");
    daemon.shut_down();
}

/// The daemon's write path, checked by replaying the file each step should
/// serve: a delta applied over the wire lands exactly on the state
/// `update -o` wrote, and a whole-snapshot swap replaces the live state with
/// one snapshot at the next version.
#[test]
fn bench_serve_addr_verifies_the_daemon_write_path() {
    let snap = TempEdges::with_ext("daemon_rw", "ccsnap");
    let delta = TempEdges::with_ext("daemon_rw_d", "ccdelta");
    let updated = TempEdges::with_ext("daemon_rw_s1", "ccsnap");
    let (snap, delta, updated) = (snap.as_str(), delta.as_str(), updated.as_str());
    assert!(
        ccapsp(&["snapshot", "--n", "48", "--seed", "7", "-o", snap])
            .status
            .success()
    );
    let mut daemon = Daemon::start(snap);
    let addr = daemon.addr.as_str();
    ok(&[
        "update", snap, "--random", "3", "--seed", "1", "--delta", delta, "-o", updated,
    ]);
    assert!(ok(&["serve-admin", "--addr", addr, "apply-delta", delta]).contains("now v2"));
    let replay = |file: &str| ccapsp(&["bench-serve", file, "--addr", addr, "--queries", "2000"]);
    assert!(stdout(&replay(updated)).contains("\nverified "));
    // The base file no longer matches what the daemon serves.
    let stale = replay(snap);
    assert_eq!(stale.status.code(), Some(1), "{stale:?}");
    assert!(ok(&["serve-admin", "--addr", addr, "swap", snap]).contains("now v3"));
    assert!(stdout(&replay(snap)).contains("\nverified "));
    let metrics = ok(&["serve-admin", "--addr", addr, "metrics-v2"]);
    let infos = metrics
        .lines()
        .filter(|l| l.starts_with("ccapsp_snapshot_info{"))
        .count();
    assert_eq!(infos, 1, "{metrics}");
    assert!(ok(&["top", "--addr", addr, "--frames", "1"]).contains("\"default\" v3"));
    daemon.shut_down();
}
