//! `ccapsp` — command-line front end for the Congested Clique APSP
//! reproduction and its serving layer.
//!
//! ```text
//! ccapsp gen <family> <n> <seed> <out.edges>             generate a workload
//! ccapsp run <graph.edges> [--algo A] [--seed S] [--threads T] [--kernel K]
//!                                                        run an algorithm + audit
//! ccapsp info <graph.edges>                              graph statistics
//! ccapsp snapshot [graph.edges] [--n N] [--family F] [--algo A] [--seed S]
//!                 [--threads T] -o <out.ccsnap>          run pipeline → snapshot
//! ccapsp query <snap.ccsnap> dist|route|knearest <u> <v|k>
//!                                                        answer one query
//! ccapsp update <snap.ccsnap> --ops <file>|--random K [--profile P]
//!                 [--repair-fraction F] [--delta <d.ccdelta>] [-o <new.ccsnap>]
//!                                                        apply an edge-update batch
//! ccapsp compact <base.ccsnap> <d.ccdelta>... -o <out.ccsnap> [--delta <merged>]
//!                                                        collapse a delta chain
//! ccapsp bench-serve <snap.ccsnap> [--queries Q] [--batch B] [--skew S]
//!                 [--k K] [--seed S] [--threads T] [--out FILE]
//!                 [--write-ratio R] [--ops-per-batch K] [--profile P]
//!                 [--addr HOST:PORT --conns C]           load-generate → BENCH_serve.json
//! ccapsp serve <snap.ccsnap> [--addr HOST:PORT] [--name N] [--threads T]
//!                 [--queue-cap Q] [--batch-max B]
//!                 [--metrics-addr HOST:PORT] [--slow-query-us N]
//!                                                        TCP oracle daemon
//! ccapsp serve-admin --addr HOST:PORT metrics-v2|info|shutdown|
//!                 apply-delta <d.ccdelta>|swap <s.ccsnap>|
//!                 flight-dump [--out FILE] [--name N]    admin frames to a daemon
//! ccapsp serve-admin --metrics-addr HOST:PORT scrape     plain-HTTP /metrics scrape
//! ccapsp top --addr HOST:PORT [--interval-ms N] [--frames K]
//!                                                        live daemon dashboard
//! ccapsp serve-chaos --addr HOST:PORT                    hostile-input survival check
//! ccapsp bench-oracle [graph.edges] [--n N] [--family F] [--seed S]
//!                 [--queries Q] [--sources S] [--threads T] [--out FILE]
//!                                                        dense vs landmark → BENCH_oracle.json
//! ```
//!
//! Algorithms (`--algo`): `thm11` (default, Theorem 1.1), `thm81`
//! (Theorem 8.1 on CC\[log⁴n\]), `smalldiam` (Theorem 7.1), `spanner`
//! (the O(log n) baseline), `exact` (min-plus squaring baseline).
//!
//! `--threads T` pins the local execution policy (`1` = sequential, `0` =
//! all cores, like `CC_THREADS`); without it the `CC_THREADS` environment
//! default applies. `--kernel {auto,dense,sparse}` pins the min-plus kernel
//! engine's dispatch the same way (`CC_KERNEL` environment default, `auto`
//! when unset). Neither ever changes any output — estimates, bounds, round
//! counts, served query results, and update deltas are bit-identical across
//! policies and kernels — only the wall-clock time.
//!
//! `--oracle {dense,landmark}` selects the servable oracle backend
//! (`CC_ORACLE` environment default, `dense` when unset). Unlike `--kernel`
//! this *does* change outputs: a landmark snapshot stores a ~√n-landmark
//! sketch (Θ(n^1.5) expected words instead of n²) whose answers carry a
//! stretch-3 guarantee instead of the dense estimate's bound.

use cc_apsp::landmark::LandmarkSketch;
use cc_apsp::oracle::{OracleBackend, OracleKind};
use cc_dynamic::delta as ccdelta;
use cc_dynamic::incremental::{ApplyStrategy, DynamicConfig, IncrementalOracle};
use cc_dynamic::rebuild::{run_algorithm, ALGORITHMS as ALGOS};
use cc_dynamic::update::{random_batch, MutationProfile, UpdateBatch};
use cc_dynamic::Delta;
use cc_graph::generators::Family;
use cc_graph::graph::Direction;
use cc_graph::{apsp, io as gio, sssp, DistMatrix, Graph, INF};
use cc_matrix::engine::KernelMode;
use cc_par::ExecPolicy;
use cc_serve::client::{chaos, drive_network, scrape_http_metrics, Client};
use cc_serve::loadgen::{drive, drive_readwrite, LoadSpec, ReadWriteSpec, Skew};
use cc_serve::report::write_report;
use cc_serve::report::BenchRecord;
use cc_serve::server::{Server, ServerConfig};
use cc_serve::service::{OracleService, Query, Response};
use cc_serve::snapshot::{Snapshot, SnapshotMeta};
use cc_serve::telemetry::{prom_label, prom_sum, prom_value};
use cc_serve::wire::{Request, WireError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::process::ExitCode;
use std::time::Instant;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         ccapsp gen <family:{families}> <n> <seed> <out.edges>\n  \
         ccapsp info <graph.edges>\n  \
         ccapsp run <graph.edges>|--n N [--family F] [--algo {ALGOS}] [--seed S] [--threads T] \
         [--kernel auto|dense|sparse] [--oracle dense|landmark]\n  \
         ccapsp snapshot [graph.edges] [--n N] [--family F] [--algo A] [--seed S] [--threads T] \
         [--kernel K] [--oracle dense|landmark] -o <out.ccsnap>\n  \
         ccapsp query <snap.ccsnap> dist|route|knearest <u> <v|k>\n  \
         ccapsp update <snap.ccsnap> --ops <file>|--random K [--profile reweight|topology] \
         [--seed S] [--threads T] [--kernel K] [--oracle dense|landmark] [--repair-fraction F] \
         [--delta <d.ccdelta>] [-o <new.ccsnap>]\n  \
         ccapsp compact <base.ccsnap> <d.ccdelta>... -o <out.ccsnap> [--delta <merged.ccdelta>]\n  \
         ccapsp bench-serve <snap.ccsnap> [--queries Q] [--batch B] [--skew uniform|zipf[:EXP]] \
         [--k K] [--seed S] [--threads T] [--out FILE] [--write-ratio R] [--ops-per-batch K] \
         [--profile P] [--addr HOST:PORT --conns C]\n  \
         ccapsp bench-oracle [graph.edges] [--n N] [--family F] [--seed S] [--queries Q] \
         [--sources S] [--threads T] [--out FILE]\n  \
         ccapsp serve <snap.ccsnap> [--addr HOST:PORT] [--name N] [--threads T] \
         [--queue-cap Q] [--batch-max B] [--metrics-addr HOST:PORT] [--slow-query-us N]\n  \
         ccapsp serve-admin --addr HOST:PORT metrics-v2|info|shutdown|\
apply-delta <d.ccdelta>|swap <s.ccsnap>|flight-dump [--out FILE] [--name N]\n  \
         ccapsp serve-admin --metrics-addr HOST:PORT scrape\n  \
         ccapsp top --addr HOST:PORT [--interval-ms N] [--frames K]\n  \
         ccapsp serve-chaos --addr HOST:PORT\n\
         every subcommand also accepts --trace <out.json> [--trace-format json|chrome] \
         (env defaults CC_TRACE / CC_TRACE_FORMAT) to dump the cc_obs span tree\n\
         hint: `ccapsp <subcommand>` with missing arguments prints this listing; \
         see the README's \"Serving\" and \"Dynamic updates\" sections for the workflows",
        families = Family::ALL.map(|f| f.name()).join("|")
    );
    ExitCode::from(2)
}

/// Removes `name <value>` from `args`, returning the value. Errors when the
/// flag is present but its value is missing.
fn take_value_flag(args: &mut Vec<String>, name: &str) -> Result<Option<String>, ExitCode> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        eprintln!("{name} expects a value");
        return Err(usage());
    }
    let value = args.remove(i + 1);
    args.remove(i);
    Ok(Some(value))
}

/// The `--trace` wiring every subcommand shares: where to write the
/// captured span tree and in which format. Flags win over the
/// `CC_TRACE` / `CC_TRACE_FORMAT` environment defaults.
struct TraceConfig {
    path: String,
    chrome: bool,
}

fn parse_trace(args: &mut Vec<String>) -> Result<Option<TraceConfig>, ExitCode> {
    let path = take_value_flag(args, "--trace")?
        .or_else(|| std::env::var("CC_TRACE").ok().filter(|s| !s.is_empty()));
    let format = take_value_flag(args, "--trace-format")?.or_else(|| {
        std::env::var("CC_TRACE_FORMAT")
            .ok()
            .filter(|s| !s.is_empty())
    });
    let chrome = match format.as_deref() {
        None | Some("json") => false,
        Some("chrome") => true,
        Some(other) => {
            eprintln!("--trace-format expects json|chrome, got {other:?}");
            return Err(usage());
        }
    };
    Ok(path.map(|path| TraceConfig { path, chrome }))
}

fn write_trace(cfg: &TraceConfig) -> bool {
    let snapshot = cc_obs::capture();
    let doc = if cfg.chrome {
        cc_obs::render_chrome(&snapshot)
    } else {
        cc_obs::render_json(&snapshot)
    };
    if let Err(e) = std::fs::write(&cfg.path, doc) {
        eprintln!("cannot write trace {}: {e}", cfg.path);
        return false;
    }
    println!(
        "wrote trace    {} ({})",
        cfg.path,
        if cfg.chrome { "chrome" } else { "json" }
    );
    true
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Strip the shared tracing flags before subcommand dispatch so no
    // per-subcommand flag list needs to know about them.
    let trace = match parse_trace(&mut args) {
        Ok(trace) => trace,
        Err(code) => return code,
    };
    if trace.is_some() {
        cc_obs::enable();
    }
    let code = match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("snapshot") => cmd_snapshot(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("update") => cmd_update(&args[1..]),
        Some("compact") => cmd_compact(&args[1..]),
        Some("bench-serve") => cmd_bench_serve(&args[1..]),
        Some("bench-oracle") => cmd_bench_oracle(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("serve-admin") => cmd_serve_admin(&args[1..]),
        Some("serve-chaos") => cmd_serve_chaos(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        Some(other) => {
            eprintln!("unknown subcommand {other:?}");
            usage()
        }
        None => usage(),
    };
    if let Some(cfg) = &trace {
        cc_obs::disable();
        if !write_trace(cfg) {
            return ExitCode::FAILURE;
        }
    }
    code
}

fn cmd_gen(args: &[String]) -> ExitCode {
    let [family, n, seed, out] = args else {
        return usage();
    };
    let Some(family) = Family::ALL.iter().find(|f| f.name() == family) else {
        eprintln!("unknown family {family:?}");
        return usage();
    };
    let (Ok(n), Ok(seed)) = (n.parse::<usize>(), seed.parse::<u64>()) else {
        return usage();
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let g = family.generate(n, n as u64, &mut rng);
    if let Err(e) = gio::write_graph_file(&g, out) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {} ({} nodes, {} edges)", out, g.n(), g.m());
    ExitCode::SUCCESS
}

fn load(path: &str) -> Result<Graph, ExitCode> {
    gio::read_graph_file(path, Direction::Undirected).map_err(|e| {
        eprintln!("cannot read {path}: {e}");
        ExitCode::FAILURE
    })
}

fn load_snapshot(path: &str) -> Result<Snapshot, ExitCode> {
    Snapshot::load(path).map_err(|e| {
        eprintln!("cannot load snapshot {path}: {e}");
        ExitCode::FAILURE
    })
}

fn cmd_info(args: &[String]) -> ExitCode {
    let [path] = args else { return usage() };
    let g = match load(path) {
        Ok(g) => g,
        Err(code) => return code,
    };
    println!("nodes          {}", g.n());
    println!("edges          {}", g.m());
    println!("weight range   [{}, {}]", g.min_weight(), g.max_weight());
    let (_, comps) = cc_graph::components::connected_components(&g);
    println!("components     {comps}");
    if g.n() <= 2048 {
        println!("weighted diam  {}", sssp::weighted_diameter(&g));
        println!("hop diam       {}", cc_graph::hops::hop_diameter(&g));
    }
    ExitCode::SUCCESS
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// The arguments that are neither flags nor values of the given
/// value-taking flags, in order.
fn positionals<'a>(args: &'a [String], value_flags: &[&str]) -> Vec<&'a str> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if value_flags.contains(&args[i].as_str()) {
            i += 2; // skip the flag and its value
        } else if args[i].starts_with('-') {
            i += 1; // unknown flag without a value
        } else {
            out.push(args[i].as_str());
            i += 1;
        }
    }
    out
}

/// A numeric flag for the serving subcommands: absent → `default`,
/// unparsable → a loud usage error (never a silent fallback).
fn num_flag<T: std::str::FromStr + Copy>(
    args: &[String],
    name: &str,
    default: T,
) -> Result<T, ExitCode> {
    match flag(args, name) {
        None => Ok(default),
        Some(s) => s.parse().map_err(|_| {
            eprintln!("{name} expects a number, got {s:?}");
            usage()
        }),
    }
}

/// Parses `--threads` (absent → the `CC_THREADS` environment default).
fn parse_exec(args: &[String]) -> Result<ExecPolicy, ExitCode> {
    match flag(args, "--threads") {
        // `0` means hardware parallelism, matching `CC_THREADS=0`.
        Some(t) => match t.parse::<usize>() {
            Ok(0) => Ok(ExecPolicy::auto()),
            Ok(k) => Ok(ExecPolicy::with_threads(k)),
            Err(_) => {
                eprintln!("--threads expects a number, got {t:?}");
                Err(usage())
            }
        },
        None => Ok(ExecPolicy::from_env()),
    }
}

/// Parses `--kernel` (absent → the `CC_KERNEL` environment default).
fn parse_kernel(args: &[String]) -> Result<KernelMode, ExitCode> {
    match flag(args, "--kernel") {
        Some(k) => match KernelMode::parse(k) {
            Some(mode) => Ok(mode),
            None => {
                eprintln!("--kernel expects auto|dense|sparse, got {k:?}");
                Err(usage())
            }
        },
        None => Ok(KernelMode::from_env()),
    }
}

/// Parses `--oracle` (absent → the `CC_ORACLE` environment default).
fn parse_oracle(args: &[String]) -> Result<OracleKind, ExitCode> {
    match flag(args, "--oracle") {
        Some(s) => match OracleKind::parse(s) {
            Some(kind) => Ok(kind),
            None => {
                eprintln!("--oracle expects dense|landmark, got {s:?}");
                Err(usage())
            }
        },
        None => Ok(OracleKind::from_env()),
    }
}

/// Runs one named algorithm over `g` through the shared dispatch table
/// (`cc_dynamic::rebuild::run_algorithm` — the same table the dynamic
/// engine's rebuild fallback re-enters), returning
/// `(estimate, stretch bound, rounds)`; `None` for an unknown name.
fn run_algo(
    g: &Graph,
    algo: &str,
    seed: u64,
    exec: ExecPolicy,
    kernel: KernelMode,
) -> Option<(DistMatrix, f64, u64)> {
    run_algorithm(g, algo, seed, exec, kernel).ok()
}

fn cmd_run(args: &[String]) -> ExitCode {
    let algo = flag(args, "--algo").unwrap_or("thm11");
    let seed: u64 = flag(args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    // Workload: a positional edge-list path, or --n (+ --family) to
    // generate one in-process (the same convention as `snapshot`).
    let positional = match positionals(
        args,
        &[
            "--n",
            "--family",
            "--algo",
            "--seed",
            "--threads",
            "--kernel",
            "--oracle",
        ],
    )[..]
    {
        [] => None,
        [path] => Some(path),
        ref many => {
            eprintln!("run takes at most one graph path, got {many:?}");
            return usage();
        }
    };
    if positional.is_some() && flag(args, "--n").is_some() {
        eprintln!("run takes either a graph path or --n, not both");
        return usage();
    }
    let g = if let Some(path) = positional {
        match load(path) {
            Ok(g) => g,
            Err(code) => return code,
        }
    } else {
        let n = match flag(args, "--n") {
            None => return usage(),
            Some(s) => match s.parse::<usize>() {
                Ok(n) if n >= 2 => n,
                _ => {
                    eprintln!("--n expects a node count of at least 2, got {s:?}");
                    return usage();
                }
            },
        };
        let family_name = flag(args, "--family").unwrap_or("gnp");
        let Some(family) = Family::ALL.iter().find(|f| f.name() == family_name) else {
            eprintln!("unknown family {family_name:?}");
            return usage();
        };
        let mut rng = StdRng::seed_from_u64(seed);
        family.generate(n, n as u64, &mut rng)
    };
    let exec = match parse_exec(args) {
        Ok(exec) => exec,
        Err(code) => return code,
    };
    let kernel = match parse_kernel(args) {
        Ok(kernel) => kernel,
        Err(code) => return code,
    };
    let oracle = match parse_oracle(args) {
        Ok(oracle) => oracle,
        Err(code) => return code,
    };
    if oracle == OracleKind::Landmark {
        // Landmark runs build the sketch directly from the graph; the
        // pipeline algorithms produce dense estimates only.
        if flag(args, "--algo").is_some() {
            println!("note           --oracle landmark builds a sketch; --algo is ignored");
        }
        let start = Instant::now();
        let sketch = LandmarkSketch::build(&g, seed, exec);
        let build_ms = start.elapsed().as_secs_f64() * 1e3;
        let backend = OracleBackend::Landmark(sketch);
        println!("oracle         landmark");
        println!("exec           {exec}");
        println!("build          {build_ms:.1} ms");
        println!("memory         {} bytes", backend.approx_mem_bytes());
        println!("guarantee      3.0×");
        if g.n() <= 2048 {
            let stats = backend.sampled_stretch(&g, g.n(), seed, exec);
            println!(
                "measured       max {:.3} / mean {:.3} / p99 {:.3}",
                stats.max_stretch, stats.mean_stretch, stats.p99_stretch
            );
            println!("valid          {}", stats.is_valid_approximation(3.0));
        }
        return ExitCode::SUCCESS;
    }
    let Some((estimate, bound, rounds)) = run_algo(&g, algo, seed, exec, kernel) else {
        eprintln!("unknown algorithm {algo:?}");
        return usage();
    };

    println!("algorithm      {algo}");
    println!("exec           {exec}");
    println!("kernel         {kernel}");
    println!("rounds         {rounds}");
    println!("guarantee      {bound:.1}×");
    if g.n() <= 2048 {
        let exact = apsp::exact_apsp_with(&g, exec);
        let stats = estimate.stretch_vs_with(&exact, exec);
        println!(
            "measured       max {:.3} / mean {:.3} / p99 {:.3}",
            stats.max_stretch, stats.mean_stretch, stats.p99_stretch
        );
        println!("valid          {}", stats.is_valid_approximation(bound));
    }
    ExitCode::SUCCESS
}

fn cmd_snapshot(args: &[String]) -> ExitCode {
    let Some(out) = flag(args, "-o").or_else(|| flag(args, "--out")) else {
        eprintln!("snapshot needs an output path (-o <out.ccsnap>)");
        return usage();
    };
    let algo = flag(args, "--algo").unwrap_or("thm11");
    let seed: u64 = match num_flag(args, "--seed", 1) {
        Ok(seed) => seed,
        Err(code) => return code,
    };
    let exec = match parse_exec(args) {
        Ok(exec) => exec,
        Err(code) => return code,
    };
    let kernel = match parse_kernel(args) {
        Ok(kernel) => kernel,
        Err(code) => return code,
    };
    // Workload: either a positional edge-list path (accepted anywhere among
    // the flags), or --n (+ --family) to generate one in-process.
    let positional = match positionals(
        args,
        &[
            "--n",
            "--family",
            "--algo",
            "--seed",
            "--threads",
            "--kernel",
            "--oracle",
            "-o",
            "--out",
        ],
    )[..]
    {
        [] => None,
        [path] => Some(path),
        ref many => {
            eprintln!("snapshot takes at most one graph path, got {many:?}");
            return usage();
        }
    };
    if positional.is_some() && flag(args, "--n").is_some() {
        eprintln!("snapshot takes either a graph path or --n, not both");
        return usage();
    }
    let (g, source) = if let Some(path) = positional {
        match load(path) {
            Ok(g) => (g, path.to_string()),
            Err(code) => return code,
        }
    } else {
        let n = match flag(args, "--n") {
            None => {
                eprintln!("snapshot needs a graph: a <graph.edges> path or --n N [--family F]");
                return usage();
            }
            Some(s) => match s.parse::<usize>() {
                Ok(n) => n,
                Err(_) => {
                    eprintln!("--n expects a number, got {s:?}");
                    return usage();
                }
            },
        };
        let family_name = flag(args, "--family").unwrap_or("gnp");
        let Some(family) = Family::ALL.iter().find(|f| f.name() == family_name) else {
            eprintln!("unknown family {family_name:?}");
            return usage();
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let g = family.generate(n, n as u64, &mut rng);
        (g, format!("{family_name}(n={n},seed={seed})"))
    };
    let oracle = match parse_oracle(args) {
        Ok(oracle) => oracle,
        Err(code) => return code,
    };
    let n = g.n();
    let snapshot = if oracle == OracleKind::Landmark {
        // Landmark snapshots skip the dense pipeline entirely: the sketch
        // is the servable artifact, built straight from the graph.
        if flag(args, "--algo").is_some() {
            println!("note           --oracle landmark builds a sketch; --algo is ignored");
        }
        let sketch = LandmarkSketch::build(&g, seed, exec);
        Snapshot::with_backend(
            g,
            OracleBackend::Landmark(sketch),
            SnapshotMeta {
                algo: "landmark".to_string(),
                seed,
                stretch_bound: 3.0,
                rounds: 0,
                source,
            },
        )
    } else {
        let Some((estimate, bound, rounds)) = run_algo(&g, algo, seed, exec, kernel) else {
            eprintln!("unknown algorithm {algo:?}");
            return usage();
        };
        Snapshot::new(
            g,
            estimate,
            SnapshotMeta {
                algo: algo.to_string(),
                seed,
                stretch_bound: bound,
                rounds,
                source,
            },
        )
    };
    let (algo, bound, rounds) = (
        snapshot.meta.algo.clone(),
        snapshot.meta.stretch_bound,
        snapshot.meta.rounds,
    );
    let encoded = snapshot.to_bytes();
    let bytes = encoded.len();
    if let Err(e) = cc_graph::codec::write_atomic(out, &encoded) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {out} ({n} nodes, algo {algo}, bound {bound:.1}×, {rounds} rounds, {bytes} bytes)"
    );
    ExitCode::SUCCESS
}

fn parse_node(s: &str, n: usize, what: &str) -> Result<usize, ExitCode> {
    match s.parse::<usize>() {
        Ok(v) if v < n => Ok(v),
        Ok(v) => {
            eprintln!("{what} {v} out of range for a {n}-node snapshot");
            Err(ExitCode::FAILURE)
        }
        Err(_) => {
            eprintln!("{what} expects a node id, got {s:?}");
            Err(ExitCode::FAILURE)
        }
    }
}

fn cmd_query(args: &[String]) -> ExitCode {
    let [path, kind, rest @ ..] = args else {
        return usage();
    };
    let snapshot = match load_snapshot(path) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let n = snapshot.n();
    let (service, id) = OracleService::single(snapshot);
    let query = match (kind.as_str(), rest) {
        ("dist", [u, v]) => {
            let (u, v) = match (parse_node(u, n, "u"), parse_node(v, n, "v")) {
                (Ok(u), Ok(v)) => (u, v),
                (Err(code), _) | (_, Err(code)) => return code,
            };
            Query::Dist(u, v)
        }
        ("route", [u, v]) => {
            let (u, v) = match (parse_node(u, n, "u"), parse_node(v, n, "v")) {
                (Ok(u), Ok(v)) => (u, v),
                (Err(code), _) | (_, Err(code)) => return code,
            };
            Query::Route(u, v)
        }
        ("knearest", [u, k]) => {
            let u = match parse_node(u, n, "u") {
                Ok(u) => u,
                Err(code) => return code,
            };
            let Ok(k) = k.parse::<usize>() else {
                eprintln!("k expects a number, got {k:?}");
                return ExitCode::FAILURE;
            };
            Query::KNearest(u, k.clamp(1, n))
        }
        _ => return usage(),
    };
    let meta = service.meta(id);
    println!(
        "snapshot       {} nodes, algo {}, bound {:.1}×, source {}",
        n, meta.algo, meta.stretch_bound, meta.source
    );
    match service.answer(id, &query) {
        Response::Dist(d) => match query {
            Query::Dist(u, v) if d >= INF => println!("dist {u} -> {v}  unreachable"),
            Query::Dist(u, v) => println!("dist {u} -> {v}  {d}"),
            _ => unreachable!(),
        },
        Response::Route(None) => println!("route          gave up (unreachable or dead end)"),
        Response::Route(Some(route)) => {
            let hops = route.len() - 1;
            let path_str: Vec<String> = route.iter().map(|x| x.to_string()).collect();
            println!("route          {} hops: {}", hops, path_str.join(" -> "));
        }
        Response::KNearest(rows) => {
            println!("k-nearest      {} entries", rows.len());
            for (v, d) in rows {
                println!("  {v:<6} {d}");
            }
        }
    }
    ExitCode::SUCCESS
}

fn load_delta(path: &str) -> Result<Delta, ExitCode> {
    Delta::load(path).map_err(|e| {
        eprintln!("cannot load delta {path}: {e}");
        ExitCode::FAILURE
    })
}

fn cmd_update(args: &[String]) -> ExitCode {
    let flags = [
        "--ops",
        "--random",
        "--profile",
        "--seed",
        "--threads",
        "--kernel",
        "--oracle",
        "--repair-fraction",
        "--delta",
        "-o",
        "--out",
    ];
    let [path] = positionals(args, &flags)[..] else {
        return usage();
    };
    let snapshot = match load_snapshot(path) {
        Ok(s) => s,
        Err(code) => return code,
    };
    // The backend is baked into the snapshot; an explicit --oracle flag is
    // only a consistency check (the environment default is not — it must
    // not reject snapshots made under a different CC_ORACLE).
    if flag(args, "--oracle").is_some() {
        let requested = match parse_oracle(args) {
            Ok(o) => o,
            Err(code) => return code,
        };
        let actual = snapshot.backend.kind();
        if requested != actual {
            eprintln!(
                "snapshot {path} has a {} backend, but --oracle {} was requested",
                actual.name(),
                requested.name()
            );
            return ExitCode::FAILURE;
        }
    }
    let exec = match parse_exec(args) {
        Ok(exec) => exec,
        Err(code) => return code,
    };
    let kernel = match parse_kernel(args) {
        Ok(kernel) => kernel,
        Err(code) => return code,
    };
    let seed: u64 = match num_flag(args, "--seed", 1) {
        Ok(seed) => seed,
        Err(code) => return code,
    };
    let repair_fraction: f64 = match num_flag(args, "--repair-fraction", 0.25) {
        Ok(f) if (0.0..=1.0).contains(&f) => f,
        Ok(f) => {
            eprintln!("--repair-fraction expects a value in [0, 1], got {f}");
            return usage();
        }
        Err(code) => return code,
    };
    let profile = match flag(args, "--profile") {
        None => MutationProfile::ReweightHeavy,
        Some(p) => match MutationProfile::parse(p) {
            Some(p) => p,
            None => {
                eprintln!("--profile expects reweight|topology, got {p:?}");
                return usage();
            }
        },
    };
    let batch = match (flag(args, "--ops"), flag(args, "--random")) {
        (Some(file), None) => {
            let text = match std::fs::read_to_string(file) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read {file}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match UpdateBatch::parse(&text) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("cannot parse {file}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        (None, Some(k)) => {
            let Ok(k) = k.parse::<usize>() else {
                eprintln!("--random expects a number of ops, got {k:?}");
                return usage();
            };
            let mut rng = StdRng::seed_from_u64(seed);
            random_batch(&snapshot.graph, k, profile, &mut rng)
        }
        _ => {
            eprintln!("update needs exactly one batch source: --ops <file> or --random K");
            return usage();
        }
    };
    let meta = snapshot.meta.clone();
    let mut engine = IncrementalOracle::with_backend(
        snapshot.graph,
        snapshot.backend,
        &meta.algo,
        meta.seed,
        DynamicConfig {
            repair_fraction,
            exec,
            kernel,
        },
    );
    let start = Instant::now();
    let outcome = match engine.apply(&batch) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("cannot apply batch: {e}");
            return ExitCode::FAILURE;
        }
    };
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let n = engine.graph().n();
    println!("snapshot       {} nodes, algo {}", n, meta.algo);
    println!(
        "batch          {} ops, {} effective edge changes",
        batch.canonicalize().len(),
        outcome.changed_edges
    );
    match outcome.strategy {
        ApplyStrategy::Repaired { affected } => {
            println!("strategy       repaired {affected}/{n} rows");
        }
        ApplyStrategy::Rebuilt { reason } => println!("strategy       rebuilt ({reason:?})"),
    }
    println!("rows in delta  {}", outcome.delta.rows.len());
    println!("wall           {wall_ms:.1} ms");
    println!(
        "state          {:016x} -> {:016x}",
        outcome.delta.base_fingerprint, outcome.delta.result_fingerprint
    );
    if let Some(delta_out) = flag(args, "--delta") {
        if let Err(e) = outcome.delta.save(delta_out) {
            eprintln!("cannot write {delta_out}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote          {delta_out}");
    }
    if let Some(out) = flag(args, "-o").or_else(|| flag(args, "--out")) {
        let updated =
            Snapshot::with_backend(engine.graph().clone(), engine.backend().clone(), meta);
        if let Err(e) = updated.save(out) {
            eprintln!("cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote          {out}");
    } else if flag(args, "--delta").is_none() {
        println!("note           dry run: no --delta or -o output requested");
    }
    ExitCode::SUCCESS
}

fn cmd_compact(args: &[String]) -> ExitCode {
    let flags = ["--delta", "-o", "--out"];
    let positional = positionals(args, &flags);
    let Some((&base_path, delta_paths)) = positional.split_first() else {
        return usage();
    };
    if delta_paths.is_empty() {
        eprintln!("compact needs at least one <d.ccdelta> after the base snapshot");
        return usage();
    }
    let Some(out) = flag(args, "-o").or_else(|| flag(args, "--out")) else {
        eprintln!("compact needs an output path (-o <out.ccsnap>)");
        return usage();
    };
    let base = match load_snapshot(base_path) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let mut deltas = Vec::with_capacity(delta_paths.len());
    for p in delta_paths {
        match load_delta(p) {
            Ok(d) => deltas.push(d),
            Err(code) => return code,
        }
    }
    let (merged, graph, backend) =
        match ccdelta::compact_backend(&base.graph, &base.backend, &deltas) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("cannot replay delta chain: {e}");
                return ExitCode::FAILURE;
            }
        };
    let final_snapshot = Snapshot::with_backend(graph, backend, base.meta.clone());
    let fp = final_snapshot.state_fingerprint();
    if let Err(e) = final_snapshot.save(out) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "compacted      {} deltas: {} ops, {} rows",
        deltas.len(),
        merged.batch.len(),
        merged.rows.len()
    );
    println!("state          {fp:016x}");
    println!("wrote          {out}");
    if let Some(delta_out) = flag(args, "--delta") {
        if let Err(e) = merged.save(delta_out) {
            eprintln!("cannot write {delta_out}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote          {delta_out}");
    }
    ExitCode::SUCCESS
}

fn cmd_bench_serve(args: &[String]) -> ExitCode {
    let flags = [
        "--queries",
        "--batch",
        "--skew",
        "--k",
        "--seed",
        "--threads",
        "--out",
        "--write-ratio",
        "--ops-per-batch",
        "--profile",
        "--addr",
        "--conns",
        "--name",
    ];
    let [path] = positionals(args, &flags)[..] else {
        return usage();
    };
    let snapshot = match load_snapshot(path) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let exec = match parse_exec(args) {
        Ok(exec) => exec,
        Err(code) => return code,
    };
    let skew = match flag(args, "--skew") {
        None => Skew::Zipf(1.0),
        Some(s) => match Skew::parse(s) {
            Ok(skew) => skew,
            Err(msg) => {
                eprintln!("--skew: {msg}");
                return usage();
            }
        },
    };
    let defaults = LoadSpec::default();
    let spec = match (
        num_flag(args, "--queries", defaults.queries),
        num_flag(args, "--batch", defaults.batch),
        num_flag(args, "--k", defaults.k),
        num_flag(args, "--seed", defaults.seed),
    ) {
        (Ok(queries), Ok(batch), Ok(k), Ok(seed)) => LoadSpec {
            queries,
            batch,
            skew,
            k,
            seed,
            ..defaults
        },
        (Err(code), ..) | (_, Err(code), ..) | (_, _, Err(code), _) | (.., Err(code)) => {
            return code
        }
    };
    let write_ratio: f64 = match num_flag::<f64>(args, "--write-ratio", 0.0) {
        Ok(r) if r.is_finite() && r >= 0.0 => r,
        Ok(r) => {
            eprintln!("--write-ratio expects a non-negative number, got {r}");
            return usage();
        }
        Err(code) => return code,
    };
    let ops_per_batch: usize = match num_flag(args, "--ops-per-batch", 8) {
        Ok(k) => k,
        Err(code) => return code,
    };
    let profile = match flag(args, "--profile") {
        None => MutationProfile::ReweightHeavy,
        Some(p) => match MutationProfile::parse(p) {
            Some(p) => p,
            None => {
                eprintln!("--profile expects reweight|topology, got {p:?}");
                return usage();
            }
        },
    };
    let out = flag(args, "--out").unwrap_or("BENCH_serve.json");
    if let Some(addr) = flag(args, "--addr") {
        if write_ratio > 0.0 {
            eprintln!(
                "--addr drives a remote daemon; --write-ratio applies to the in-process path"
            );
            return usage();
        }
        let conns = match num_flag(args, "--conns", 4usize) {
            Ok(c) => c.max(1),
            Err(code) => return code,
        };
        let name = flag(args, "--name").unwrap_or("default");
        return bench_serve_networked(addr, name, snapshot, &spec, exec, conns, out);
    }
    let n = snapshot.n();
    let (mut service, id) = OracleService::single(snapshot);
    println!("snapshot       {n} nodes, algo {}", service.meta(id).algo);
    println!("exec           {exec}");
    let (result, record) = if write_ratio > 0.0 {
        let rw_spec = ReadWriteSpec {
            load: spec.clone(),
            write_ratio,
            ops_per_batch,
            profile,
        };
        let rw = drive_readwrite(&mut service, "default", &rw_spec, exec);
        println!(
            "writes         {} batches ({} edge changes, profile {profile}, ratio {write_ratio})",
            rw.write_batches, rw.ops_applied
        );
        println!(
            "write path     {} repaired / {} rebuilt, p50 {:.2} ms / p95 {:.2} ms",
            rw.repairs, rw.rebuilds, rw.write_p50_ms, rw.write_p95_ms
        );
        println!("final state    {:016x}", rw.final_state_fingerprint);
        let record = rw.to_record("serve_readwrite", n);
        (rw.read, record)
    } else {
        let read = drive(&service, id, &spec, exec);
        let record = read.to_record("serve_mixed", n);
        (read, record)
    };
    println!(
        "queries        {} (batch {}, {:?})",
        result.queries, spec.batch, spec.skew
    );
    println!("wall           {:.1} ms", result.wall_ms);
    println!("throughput     {:.0} qps", result.qps);
    println!(
        "latency        p50 {:.2} µs / p95 {:.2} µs / p99 {:.2} µs",
        result.p50_us, result.p95_us, result.p99_us
    );
    println!("cache hit      {:.1}%", result.cache_hit_rate * 100.0);
    println!("fingerprint    {:016x}", result.fingerprint);
    if let Err(e) = write_report(out, &[record]) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote          {out}");
    ExitCode::SUCCESS
}

/// The `bench-serve --addr` path: drive a running daemon over TCP with
/// `conns` connections, then check the response fingerprint bit-for-bit
/// against an in-process run of the same spec on the locally loaded
/// snapshot — the networked serving path must be observationally identical.
fn bench_serve_networked(
    addr: &str,
    name: &str,
    snapshot: Snapshot,
    spec: &LoadSpec,
    exec: ExecPolicy,
    conns: usize,
    out: &str,
) -> ExitCode {
    let n = snapshot.n();
    let (service, id) = OracleService::single(snapshot);
    let reference = drive(&service, id, spec, exec);
    // Scrape the daemon's Metrics-v2 exposition around the drive so the
    // record carries live-telemetry extras (overload delta, 1s QPS peak).
    let scrape = |what: &str| match Client::connect(addr)
        .map_err(WireError::Io)
        .and_then(|mut c| c.metrics_v2())
    {
        Ok(text) => Some(text),
        Err(e) => {
            eprintln!("warning: {what} metrics-v2 scrape of {addr} failed: {e}");
            None
        }
    };
    let before = scrape("pre-drive");
    let result = match drive_network(addr, name, spec, conns) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("networked drive against {addr} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let after = scrape("post-drive");
    println!("daemon         {addr} ({conns} connections, snapshot {name:?})");
    println!(
        "queries        {} (batch {}, {:?})",
        result.queries, spec.batch, spec.skew
    );
    println!("wall           {:.1} ms", result.wall_ms);
    println!("throughput     {:.0} qps", result.qps);
    println!(
        "latency        p50 {:.2} µs / p95 {:.2} µs / p99 {:.2} µs (batch rtt / batch size)",
        result.p50_us, result.p95_us, result.p99_us
    );
    println!("cache hit      {:.1}%", result.cache_hit_rate * 100.0);
    println!("fingerprint    {:016x}", result.fingerprint);
    if result.fingerprint != reference.fingerprint {
        eprintln!(
            "FINGERPRINT MISMATCH: networked {:016x} != in-process {:016x} \
             (is the daemon serving a different snapshot or a mutated version?)",
            result.fingerprint, reference.fingerprint
        );
        return ExitCode::FAILURE;
    }
    println!("verified       networked responses bit-identical to in-process run_batch");
    let mut record = result.to_record("serve_net", n);
    if let (Some(before), Some(after)) = (&before, &after) {
        let overloads =
            prom_sum(after, "ccapsp_overloads_total") - prom_sum(before, "ccapsp_overloads_total");
        let peak = prom_value(after, "ccapsp_qps_1s_peak", &[]).unwrap_or(0.0);
        println!("daemon peak    {peak:.0} qps (1s) / {overloads:.0} overload rejections");
        record.extras.push(("qps_1s_peak".into(), peak));
        record
            .extras
            .push(("overload_rejections".into(), overloads));
    }
    if let Err(e) = write_report(out, &[record]) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote          {out}");
    ExitCode::SUCCESS
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let flags = [
        "--addr",
        "--name",
        "--threads",
        "--queue-cap",
        "--batch-max",
        "--metrics-addr",
        "--slow-query-us",
    ];
    let [path] = positionals(args, &flags)[..] else {
        return usage();
    };
    let snapshot = match load_snapshot(path) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let exec = match parse_exec(args) {
        Ok(exec) => exec,
        Err(code) => return code,
    };
    let metrics_addr = match flag(args, "--metrics-addr") {
        None => None,
        Some(raw) => match raw.parse::<std::net::SocketAddr>() {
            Ok(a) => Some(a),
            Err(e) => {
                eprintln!("--metrics-addr expects HOST:PORT, got {raw:?}: {e}");
                return usage();
            }
        },
    };
    let defaults = ServerConfig::default();
    let cfg = match (
        num_flag(args, "--queue-cap", defaults.queue_cap),
        num_flag(args, "--batch-max", defaults.batch_max),
        num_flag(args, "--slow-query-us", defaults.slow_query_us),
    ) {
        (Ok(queue_cap), Ok(batch_max), Ok(slow_query_us)) => ServerConfig {
            exec,
            queue_cap,
            batch_max,
            slow_query_us,
            metrics_addr,
            ..defaults
        },
        (Err(code), ..) | (_, Err(code), _) | (.., Err(code)) => return code,
    };
    let addr = flag(args, "--addr").unwrap_or("127.0.0.1:7199");
    let name = flag(args, "--name").unwrap_or("default");
    let n = snapshot.n();
    let algo = snapshot.meta.algo.clone();
    let mut service = OracleService::default();
    service.register(name, snapshot);
    let handle = match Server::spawn(service, addr, cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("snapshot       {n} nodes, algo {algo}, served as {name:?}");
    println!("exec           {exec}");
    println!("listening      {}", handle.local_addr());
    if let Some(maddr) = handle.metrics_addr() {
        println!("metrics http   {maddr} (GET /metrics)");
    }
    println!(
        "stop with      ccapsp serve-admin --addr {} shutdown",
        handle.local_addr()
    );
    handle.wait();
    println!("shutdown       drained and stopped");
    ExitCode::SUCCESS
}

fn cmd_serve_admin(args: &[String]) -> ExitCode {
    let flags = ["--addr", "--name", "--out", "--metrics-addr"];
    let positional = positionals(args, &flags);
    // `scrape` talks plain HTTP to the metrics side-listener; every other
    // action is a wire frame to the main --addr listener.
    if positional[..] == ["scrape"] {
        let Some(maddr) = flag(args, "--metrics-addr") else {
            eprintln!("serve-admin scrape needs --metrics-addr HOST:PORT");
            return usage();
        };
        return match scrape_http_metrics(maddr) {
            Ok(body) => {
                print!("{body}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("cannot scrape http://{maddr}/metrics: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(addr) = flag(args, "--addr") else {
        eprintln!("serve-admin needs --addr HOST:PORT");
        return usage();
    };
    let name = flag(args, "--name").unwrap_or("default").to_string();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match positional[..] {
        ["metrics-v2"] => client.metrics_v2().map(|text| print!("{text}")),
        ["flight-dump"] => client
            .flight_dump()
            .and_then(|doc| match flag(args, "--out") {
                None => {
                    print!("{doc}");
                    Ok(())
                }
                Some(path) => std::fs::write(path, &doc)
                    .map(|()| println!("wrote          {path}"))
                    .map_err(WireError::Io),
            }),
        ["info"] => client.info(&name).map(|info| {
            println!("snapshot       {} v{}", info.name, info.version);
            println!("nodes          {}", info.n);
            println!("algo           {}", info.algo);
            println!("estimate mem   {} bytes", info.mem_bytes);
            println!(
                "cache          {} hits / {} misses",
                info.cache_hits, info.cache_misses
            );
        }),
        ["shutdown"] => client
            .shutdown()
            .map(|()| println!("shutdown acknowledged")),
        ["apply-delta", path] => match std::fs::read(path) {
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
            Ok(delta) => client
                .admin(&Request::ApplyDelta { name, delta })
                .map(|msg| println!("{msg}")),
        },
        ["swap", path] => match std::fs::read(path) {
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
            Ok(snapshot) => client
                .admin(&Request::SwapSnapshot { name, snapshot })
                .map(|msg| println!("{msg}")),
        },
        _ => {
            eprintln!(
                "serve-admin expects one action: metrics-v2|info|shutdown|\
                 apply-delta <d.ccdelta>|swap <s.ccsnap>|flight-dump|scrape"
            );
            return usage();
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_serve_chaos(args: &[String]) -> ExitCode {
    let Some(addr) = flag(args, "--addr") else {
        eprintln!("serve-chaos needs --addr HOST:PORT");
        return usage();
    };
    let report = chaos(addr);
    for name in &report.passed {
        println!("pass           {name}");
    }
    for why in &report.failed {
        println!("FAIL           {why}");
    }
    if report.ok() {
        println!(
            "chaos          {} scenarios survived: typed errors, no hangs, daemon healthy",
            report.passed.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("chaos          {} scenario(s) failed", report.failed.len());
        ExitCode::FAILURE
    }
}

/// One rendered frame of the `ccapsp top` dashboard, built from the
/// daemon's Metrics-v2 exposition text.
fn top_frame(addr: &str, text: &str, last_version: Option<f64>) -> Vec<String> {
    let v = |family: &str, labels: &[(&str, &str)]| prom_value(text, family, labels).unwrap_or(0.0);
    let uptime = v("ccapsp_uptime_seconds", &[]);
    let name = prom_label(text, "ccapsp_snapshot_info", "name").unwrap_or_else(|| "default".into());
    let version = prom_label(text, "ccapsp_snapshot_info", "version")
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(1.0);
    let swapped = last_version.is_some_and(|prev| prev != version);
    let hits = prom_sum(text, "ccapsp_cache_hits_total");
    let misses = prom_sum(text, "ccapsp_cache_misses_total");
    let hit_rate = if hits + misses > 0.0 {
        100.0 * hits / (hits + misses)
    } else {
        0.0
    };
    let mut lines = vec![
        format!(
            "ccapsp top     {addr}   uptime {uptime:.0}s   snapshot {name:?} v{version:.0}{}",
            if swapped { "  (version changed)" } else { "" }
        ),
        format!(
            "qps            1s {:.0} / 10s {:.0} / 60s {:.0}   peak(1s) {:.0}",
            v("ccapsp_qps", &[("window", "1s")]),
            v("ccapsp_qps", &[("window", "10s")]),
            v("ccapsp_qps", &[("window", "60s")]),
            v("ccapsp_qps_1s_peak", &[]),
        ),
    ];
    for ty in ["dist", "route", "knearest"] {
        let q = |qs: &str| v("ccapsp_latency_us", &[("type", ty), ("quantile", qs)]);
        lines.push(format!(
            "{ty:<15}p50 {:.1} µs / p95 {:.1} µs / p99 {:.1} µs ({} in 60s)",
            q("0.5"),
            q("0.95"),
            q("0.99"),
            q("count") as u64,
        ));
    }
    lines.push(format!(
        "cache hit      {hit_rate:.1}%   connections {} live / {} total",
        v("ccapsp_connections_live", &[]) as u64,
        v("ccapsp_connections_total", &[]) as u64,
    ));
    lines.push(format!(
        "pressure       overloads {} / slow queries {} / wire errors {}",
        prom_sum(text, "ccapsp_overloads_total") as u64,
        prom_sum(text, "ccapsp_slow_queries_total") as u64,
        prom_sum(text, "ccapsp_wire_errors_total") as u64,
    ));
    lines
}

/// The `ccapsp top` live dashboard: poll the daemon's Metrics-v2 frame
/// every `--interval-ms` and redraw a fixed block in place (ANSI
/// cursor-up). `--frames K` bounds the number of polls (`0` = run until
/// the daemon goes away or the user interrupts) so CI can take one frame.
fn cmd_top(args: &[String]) -> ExitCode {
    let Some(addr) = flag(args, "--addr") else {
        eprintln!("top needs --addr HOST:PORT");
        return usage();
    };
    let interval_ms = match num_flag(args, "--interval-ms", 1000u64) {
        Ok(ms) => ms.max(50),
        Err(code) => return code,
    };
    let frames = match num_flag(args, "--frames", 0u64) {
        Ok(k) => k,
        Err(code) => return code,
    };
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut last_version: Option<f64> = None;
    let mut drawn = 0usize;
    let mut frame = 0u64;
    loop {
        let text = match client.metrics_v2() {
            Ok(t) => t,
            Err(e) => {
                eprintln!("daemon {addr} went away: {e}");
                return if frame > 0 {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                };
            }
        };
        let lines = top_frame(addr, &text, last_version);
        last_version = prom_label(&text, "ccapsp_snapshot_info", "version")
            .and_then(|s| s.parse::<f64>().ok())
            .or(last_version);
        if drawn > 0 {
            print!("\x1b[{drawn}A");
        }
        for line in &lines {
            println!("\x1b[2K{line}");
        }
        use std::io::Write as _;
        std::io::stdout().flush().ok();
        drawn = lines.len();
        frame += 1;
        if frames > 0 && frame >= frames {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// Times `backend.query` over the shared pair set, returning
/// `(p50 µs, p95 µs, distance checksum)`. The checksum keeps the work
/// observable (and doubles as a cross-backend sanity print).
fn time_queries(backend: &OracleBackend, pairs: &[(usize, usize)]) -> (f64, f64, u64) {
    let mut lat_ns: Vec<u64> = Vec::with_capacity(pairs.len());
    let mut checksum = 0u64;
    for &(u, v) in pairs {
        let start = Instant::now();
        let d = backend.query(u, v);
        lat_ns.push(start.elapsed().as_nanos() as u64);
        checksum = checksum
            .wrapping_mul(0x100000001b3)
            .wrapping_add(if d >= INF { u64::MAX } else { d });
    }
    lat_ns.sort_unstable();
    let pct = |p: f64| -> f64 {
        let idx = ((lat_ns.len() - 1) as f64 * p).round() as usize;
        lat_ns[idx] as f64 / 1e3
    };
    (pct(0.50), pct(0.95), checksum)
}

/// Head-to-head dense vs landmark comparison on one shared instance:
/// build time, resident estimate bytes, query latency over an identical
/// seeded pair set, and measured sampled stretch. Emits one
/// `BENCH_oracle.json` record per backend.
fn cmd_bench_oracle(args: &[String]) -> ExitCode {
    let flags = [
        "--n",
        "--family",
        "--seed",
        "--queries",
        "--sources",
        "--threads",
        "--kernel",
        "--out",
        "-o",
    ];
    let seed: u64 = match num_flag(args, "--seed", 1) {
        Ok(seed) => seed,
        Err(code) => return code,
    };
    let queries: usize = match num_flag(args, "--queries", 10_000) {
        Ok(q) if q > 0 => q,
        Ok(_) => {
            eprintln!("--queries expects a positive count");
            return usage();
        }
        Err(code) => return code,
    };
    let sources: usize = match num_flag(args, "--sources", 32) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let exec = match parse_exec(args) {
        Ok(exec) => exec,
        Err(code) => return code,
    };
    let kernel = match parse_kernel(args) {
        Ok(kernel) => kernel,
        Err(code) => return code,
    };
    let (g, source) = match positionals(args, &flags)[..] {
        [path] => match load(path) {
            Ok(g) => (g, path.to_string()),
            Err(code) => return code,
        },
        [] => {
            let n: usize = match num_flag(args, "--n", 1024) {
                Ok(n) if n >= 2 => n,
                Ok(n) => {
                    eprintln!("--n expects at least 2 nodes, got {n}");
                    return usage();
                }
                Err(code) => return code,
            };
            let family_name = flag(args, "--family").unwrap_or("gnp");
            let Some(family) = Family::ALL.iter().find(|f| f.name() == family_name) else {
                eprintln!("unknown family {family_name:?}");
                return usage();
            };
            let mut rng = StdRng::seed_from_u64(seed);
            (
                family.generate(n, n as u64, &mut rng),
                format!("{family_name}(n={n},seed={seed})"),
            )
        }
        ref many => {
            eprintln!("bench-oracle takes at most one graph path, got {many:?}");
            return usage();
        }
    };
    let n = g.n();
    let threads = exec.threads();
    let out = flag(args, "--out")
        .or_else(|| flag(args, "-o"))
        .unwrap_or("BENCH_oracle.json");
    println!("instance       {source} ({n} nodes, {} edges)", g.m());
    println!("exec           {exec}");

    // Build both backends on the same graph.
    let start = Instant::now();
    let Some((estimate, _, _)) = run_algo(&g, "exact", seed, exec, kernel) else {
        unreachable!("exact is a registered algorithm");
    };
    let dense_ms = start.elapsed().as_secs_f64() * 1e3;
    let dense = OracleBackend::Dense(estimate);
    let start = Instant::now();
    let landmark = OracleBackend::Landmark(LandmarkSketch::build(&g, seed, exec));
    let landmark_ms = start.elapsed().as_secs_f64() * 1e3;

    // An identical seeded pair set for both backends.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0b5e_5eed);
    let pairs: Vec<(usize, usize)> = (0..queries)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect();

    let mut records = Vec::with_capacity(2);
    for (name, backend, build_ms) in [
        ("oracle_dense", &dense, dense_ms),
        ("oracle_landmark", &landmark, landmark_ms),
    ] {
        let (p50_us, p95_us, checksum) = time_queries(backend, &pairs);
        let stats = backend.sampled_stretch(&g, sources, seed, exec);
        let mem = backend.approx_mem_bytes();
        println!("{name:<14} build {build_ms:.1} ms, memory {mem} bytes");
        println!(
            "               query p50 {p50_us:.2} µs / p95 {p95_us:.2} µs (checksum {checksum:016x})"
        );
        println!(
            "               stretch max {:.3} / mean {:.3} / p99 {:.3}",
            stats.max_stretch, stats.mean_stretch, stats.p99_stretch
        );
        records.push(BenchRecord {
            experiment: name.to_string(),
            n,
            threads,
            wall_ms: build_ms,
            rounds: 0,
            extras: vec![
                ("build_ms".into(), build_ms),
                ("estimate_mem_bytes".into(), mem as f64),
                ("query_p50_us".into(), p50_us),
                ("query_p95_us".into(), p95_us),
                ("max_stretch".into(), stats.max_stretch),
                ("mean_stretch".into(), stats.mean_stretch),
            ],
        });
    }
    println!(
        "memory ratio   landmark/dense = {:.3}",
        landmark.approx_mem_bytes() as f64 / dense.approx_mem_bytes() as f64
    );
    if let Err(e) = write_report(out, &records) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote          {out}");
    ExitCode::SUCCESS
}
