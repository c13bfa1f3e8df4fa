//! `ccapsp` — command-line front end for the Congested Clique APSP
//! reproduction and its serving layer.
//!
//! Run with no arguments for the usage listing. It is generated from
//! [`COMMANDS`], the one table that declares each subcommand's positional
//! arguments and value flags; the parser and the handlers read the same
//! table. `-o` is short for `--out`. A malformed command line — an unknown
//! subcommand or flag, a flag given twice or without its value, a value that
//! does not parse — exits 2 with the listing; a runtime failure (an
//! unreadable file, a refused connection) exits 1.
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
use cc_dynamic::rebuild::{run_algorithm, ALGORITHMS};
use cc_dynamic::update::{random_batch, MutationProfile, UpdateBatch};
use cc_dynamic::Delta;
use cc_graph::generators::Family;
use cc_graph::graph::Direction;
use cc_graph::{apsp, io as gio, sssp, Graph, INF};
use cc_matrix::engine::KernelMode;
use cc_par::ExecPolicy;
use cc_serve::client::{chaos, replay_network, scrape_http_metrics, Client};
use cc_serve::loadgen::{replay, LoadSpec, Skew};
use cc_serve::report::{write_report, BenchRecord};
use cc_serve::server::{Server, ServerConfig};
use cc_serve::service::{OracleService, Query, Response};
use cc_serve::snapshot::{Snapshot, SnapshotMeta};
use cc_serve::telemetry::{prom_label, prom_sum, prom_value};
use cc_serve::wire::Request;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::{Display, Write as _};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Instant;

/// A value flag and the hint the usage listing shows for its value.
type Flag = (&'static str, &'static str);

const N: Flag = ("--n", "N");
const FAMILY: Flag = ("--family", "F");
const ALGO: Flag = ("--algo", ALGORITHMS);
const SEED: Flag = ("--seed", "S");
const THREADS: Flag = ("--threads", "T");
const KERNEL: Flag = ("--kernel", "auto|dense|sparse");
const ORACLE: Flag = ("--oracle", "dense|landmark");
const OUT: Flag = ("--out", "FILE");
const DELTA: Flag = ("--delta", "FILE");
const QUERIES: Flag = ("--queries", "Q");
const ADDR: Flag = ("--addr", "HOST:PORT");
const METRICS_ADDR: Flag = ("--metrics-addr", "HOST:PORT");
const NAME: Flag = ("--name", "NAME");

/// The flags every subcommand takes, before or after its name.
const TRACE: [Flag; 2] = [("--trace", "FILE"), ("--trace-format", "json|chrome")];

/// One subcommand: everything the parser, the usage listing and the
/// dispatcher know about it.
struct Command {
    name: &'static str,
    /// The positional arguments, as the usage listing shows them.
    synopsis: &'static str,
    flags: &'static [Flag],
    run: fn(&Args) -> Result<(), ExitCode>,
}

const COMMANDS: &[Command] = &[
    Command {
        name: "gen",
        synopsis: "<family F> <n> <seed> <out.edges>",
        flags: &[],
        run: cmd_gen,
    },
    Command {
        name: "info",
        synopsis: "<graph.edges>",
        flags: &[],
        run: cmd_info,
    },
    Command {
        name: "run",
        synopsis: "[graph.edges]",
        flags: &[N, FAMILY, ALGO, SEED, THREADS, KERNEL, ORACLE],
        run: cmd_run,
    },
    Command {
        name: "snapshot",
        synopsis: "[graph.edges]",
        flags: &[N, FAMILY, ALGO, SEED, THREADS, KERNEL, ORACLE, OUT],
        run: cmd_snapshot,
    },
    Command {
        name: "query",
        synopsis: "<snap.ccsnap> dist|route|knearest <u> <v|k>",
        flags: &[],
        run: cmd_query,
    },
    Command {
        name: "update",
        synopsis: "<snap.ccsnap>",
        flags: &[
            ("--ops", "FILE"),
            ("--random", "K"),
            ("--profile", "reweight|topology"),
            SEED,
            THREADS,
            KERNEL,
            ORACLE,
            DELTA,
            OUT,
        ],
        run: cmd_update,
    },
    Command {
        name: "compact",
        synopsis: "<base.ccsnap> <d.ccdelta>...",
        flags: &[OUT, DELTA],
        run: cmd_compact,
    },
    Command {
        name: "bench-serve",
        synopsis: "<snap.ccsnap>",
        flags: &[
            QUERIES,
            ("--batch", "B"),
            ("--skew", "uniform|zipf[:EXP]"),
            ("--k", "K"),
            SEED,
            THREADS,
            ADDR,
            ("--conns", "C"),
            NAME,
        ],
        run: cmd_bench_serve,
    },
    Command {
        name: "bench-oracle",
        synopsis: "[graph.edges]",
        flags: &[
            N,
            FAMILY,
            SEED,
            QUERIES,
            ("--sources", "S"),
            THREADS,
            KERNEL,
            OUT,
        ],
        run: cmd_bench_oracle,
    },
    Command {
        name: "serve",
        synopsis: "<snap.ccsnap>",
        flags: &[
            ADDR,
            NAME,
            THREADS,
            ("--queue-cap", "Q"),
            ("--batch-max", "B"),
            METRICS_ADDR,
            ("--slow-query-us", "N"),
        ],
        run: cmd_serve,
    },
    Command {
        name: "serve-admin",
        synopsis:
            "metrics-v2|info|shutdown|apply-delta <d.ccdelta>|swap <s.ccsnap>|flight-dump|scrape",
        flags: &[ADDR, METRICS_ADDR, NAME, OUT],
        run: cmd_serve_admin,
    },
    Command {
        name: "top",
        synopsis: "",
        flags: &[ADDR, ("--interval-ms", "N"), ("--frames", "K")],
        run: cmd_top,
    },
    Command {
        name: "serve-chaos",
        synopsis: "",
        flags: &[ADDR],
        run: cmd_serve_chaos,
    },
];

/// Prints the usage listing, generated from [`COMMANDS`]; returns the
/// usage-error exit code.
fn usage() -> ExitCode {
    let mut text = String::from("usage:\n");
    let line = |text: &mut String, flags: &[Flag]| {
        for (name, hint) in flags {
            let name = if *name == OUT.0 { "-o|--out" } else { name };
            let _ = write!(text, " [{name} {hint}]");
        }
        text.push('\n');
    };
    for c in COMMANDS {
        text += format!("  ccapsp {} {}", c.name, c.synopsis).trim_end();
        line(&mut text, c.flags);
    }
    text += "every subcommand also takes";
    line(&mut text, &TRACE);
    let families = Family::ALL.map(|f| f.name()).join("|");
    eprintln!(
        "{text}  to dump the cc_obs span tree (env defaults CC_TRACE / CC_TRACE_FORMAT)\n\
         F is one of {families}\n\
         hint: `ccapsp <subcommand>` with missing arguments prints this listing; \
         see the README's \"Serving\" and \"Dynamic updates\" sections for the workflows"
    );
    ExitCode::from(2)
}

/// A malformed command line: the reason, then the usage listing.
fn usage_error(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    usage()
}

/// A runtime failure (exit 1).
fn fail(msg: impl Display) -> ExitCode {
    eprintln!("{msg}");
    ExitCode::FAILURE
}

/// Reports a write of `path`: a `wrote` line, or a runtime failure.
fn wrote(path: &str, result: Result<(), impl Display>) -> Result<(), ExitCode> {
    result.map_err(|e| fail(format!("cannot write {path}: {e}")))?;
    println!("wrote          {path}");
    Ok(())
}

/// A command line split against its subcommand's row of [`COMMANDS`].
struct Args {
    cmd: &'static Command,
    positional: Vec<String>,
    values: Vec<(&'static str, String)>,
}

/// The table entry of flag `name` under `cmd`; before the subcommand is
/// known, only [`TRACE`] is.
fn lookup(cmd: Option<&'static Command>, name: &str) -> Option<&'static Flag> {
    let declared: &'static [Flag] = cmd.map_or(&[], |c| c.flags);
    declared.iter().chain(&TRACE).find(|f| f.0 == name)
}

/// Splits `argv` into a subcommand, its positionals and its flag values.
/// Every argument that starts with `-` is a value flag: one the subcommand
/// (or [`TRACE`]) declares, given at most once, followed by its value.
fn parse_args(argv: &[String]) -> Result<Args, ExitCode> {
    let mut cmd: Option<&'static Command> = None;
    let mut positional = Vec::new();
    let mut values: Vec<(&'static str, String)> = Vec::new();
    let mut rest = argv.iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with('-') {
            match cmd {
                Some(_) => positional.push(arg.clone()),
                None => match COMMANDS.iter().find(|c| c.name == arg) {
                    Some(c) => cmd = Some(c),
                    None => return Err(usage_error(&format!("unknown subcommand {arg:?}"))),
                },
            }
            continue;
        }
        let long = if arg == "-o" { OUT.0 } else { arg.as_str() };
        let Some(&(name, _)) = lookup(cmd, long) else {
            let who = cmd.map_or("ccapsp", |c| c.name);
            return Err(usage_error(&format!("{who} does not take {arg}")));
        };
        if values.iter().any(|(f, _)| *f == name) {
            return Err(usage_error(&format!("{name} given twice")));
        }
        let Some(value) = rest.next() else {
            return Err(usage_error(&format!("{arg} expects a value")));
        };
        values.push((name, value.clone()));
    }
    let cmd = cmd.ok_or_else(usage)?;
    Ok(Args {
        cmd,
        positional,
        values,
    })
}

impl Args {
    /// Flag `name`'s entry in the table. Handlers read only flags their
    /// subcommand declares, so any other name is a bug in this file.
    fn declared(&self, name: &str) -> &'static Flag {
        lookup(Some(self.cmd), name)
            .unwrap_or_else(|| panic!("{} reads undeclared flag {name}", self.cmd.name))
    }

    /// The raw value of flag `name`, if given.
    fn get(&self, name: &str) -> Option<&str> {
        let (name, _) = self.declared(name);
        self.values
            .iter()
            .find(|(f, _)| f == name)
            .map(|(_, v)| v.as_str())
    }

    /// The value of a flag the subcommand cannot run without.
    fn required(&self, name: &str) -> Result<&str, ExitCode> {
        self.get(name).ok_or_else(|| {
            usage_error(&format!(
                "{} needs {name} {}",
                self.cmd.name,
                self.declared(name).1
            ))
        })
    }

    /// Flag `name` through `parse`, `None` when absent; a value `parse`
    /// rejects is a usage error.
    fn parse<T>(
        &self,
        name: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, ExitCode> {
        let Some(raw) = self.get(name) else {
            return Ok(None);
        };
        parse(raw).map(Some).ok_or_else(|| {
            usage_error(&format!(
                "invalid value {raw:?} for {name} {}",
                self.declared(name).1
            ))
        })
    }

    /// Flag `name` parsed as a `T`, or `default` when absent.
    fn value_or<T: FromStr>(&self, name: &str, default: T) -> Result<T, ExitCode> {
        Ok(self.parse(name, |s| s.parse().ok())?.unwrap_or(default))
    }

    /// `--threads` (`0` = all cores, like `CC_THREADS=0`), else the
    /// `CC_THREADS` environment default.
    fn exec(&self) -> Result<ExecPolicy, ExitCode> {
        Ok(match self.parse("--threads", |s| s.parse().ok())? {
            None => ExecPolicy::from_env(),
            Some(0) => ExecPolicy::auto(),
            Some(k) => ExecPolicy::with_threads(k),
        })
    }

    /// `--kernel`, else the `CC_KERNEL` environment default.
    fn kernel(&self) -> Result<KernelMode, ExitCode> {
        Ok(self
            .parse("--kernel", KernelMode::parse)?
            .unwrap_or_else(KernelMode::from_env))
    }
}

/// The `--trace` wiring every subcommand shares: where to write the
/// captured span tree and in which format. Flags win over the
/// `CC_TRACE` / `CC_TRACE_FORMAT` environment defaults.
struct TraceConfig {
    path: String,
    chrome: bool,
}

fn trace_config(args: &Args) -> Result<Option<TraceConfig>, ExitCode> {
    let flag_or_env = |flag: &str, var: &str| {
        args.get(flag)
            .map(str::to_string)
            .or_else(|| std::env::var(var).ok().filter(|s| !s.is_empty()))
    };
    let chrome = match flag_or_env("--trace-format", "CC_TRACE_FORMAT").as_deref() {
        None | Some("json") => false,
        Some("chrome") => true,
        Some(other) => {
            return Err(usage_error(&format!(
                "--trace-format expects json|chrome, got {other:?}"
            )))
        }
    };
    Ok(flag_or_env("--trace", "CC_TRACE").map(|path| TraceConfig { path, chrome }))
}

fn write_trace(cfg: &TraceConfig) -> Result<(), ExitCode> {
    let snapshot = cc_obs::capture();
    let doc = if cfg.chrome {
        cc_obs::render_chrome(&snapshot)
    } else {
        cc_obs::render_json(&snapshot)
    };
    std::fs::write(&cfg.path, doc)
        .map_err(|e| fail(format!("cannot write trace {}: {e}", cfg.path)))?;
    println!(
        "wrote trace    {} ({})",
        cfg.path,
        if cfg.chrome { "chrome" } else { "json" }
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv).and_then(|args| run_traced(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}

/// Runs the subcommand, then writes the span tree if tracing was asked for
/// (whatever the subcommand's outcome).
fn run_traced(args: &Args) -> Result<(), ExitCode> {
    let trace = trace_config(args)?;
    if trace.is_some() {
        cc_obs::enable();
    }
    let outcome = (args.cmd.run)(args);
    if let Some(cfg) = &trace {
        cc_obs::disable();
        write_trace(cfg)?;
    }
    outcome
}

fn family(name: &str) -> Result<Family, ExitCode> {
    Family::ALL
        .into_iter()
        .find(|f| f.name() == name)
        .ok_or_else(|| usage_error(&format!("unknown family {name:?}")))
}

fn cmd_gen(args: &Args) -> Result<(), ExitCode> {
    let [family_name, n, seed, out] = &args.positional[..] else {
        return Err(usage());
    };
    let family = family(family_name)?;
    let (Ok(n), Ok(seed)) = (n.parse::<usize>(), seed.parse::<u64>()) else {
        return Err(usage());
    };
    let g = family.generate(n, n as u64, &mut StdRng::seed_from_u64(seed));
    gio::write_graph_file(&g, out).map_err(|e| fail(format!("cannot write {out}: {e}")))?;
    println!("wrote {} ({} nodes, {} edges)", out, g.n(), g.m());
    Ok(())
}

fn load(path: &str) -> Result<Graph, ExitCode> {
    gio::read_graph_file(path, Direction::Undirected)
        .map_err(|e| fail(format!("cannot read {path}: {e}")))
}

fn load_snapshot(path: &str) -> Result<Snapshot, ExitCode> {
    Snapshot::load(path).map_err(|e| fail(format!("cannot load snapshot {path}: {e}")))
}

/// The graph `run`, `snapshot` and `bench-oracle` work on, with a label
/// naming it: the one positional edge-list path, or else a `--family`
/// graph (gnp by default) on `--n` nodes generated from `seed`. `--n` falls
/// back to `default_n` where the subcommand has one.
fn workload(args: &Args, seed: u64, default_n: Option<usize>) -> Result<(Graph, String), ExitCode> {
    let n = args.parse("--n", |s| s.parse().ok().filter(|&n: &usize| n >= 2))?;
    let family_name = args.get("--family");
    match (&args.positional[..], n.or(default_n)) {
        ([path], _) if n.is_none() && family_name.is_none() => Ok((load(path)?, path.clone())),
        ([], Some(n)) => {
            let name = family_name.unwrap_or("gnp");
            let g = family(name)?.generate(n, n as u64, &mut StdRng::seed_from_u64(seed));
            Ok((g, format!("{name}(n={n},seed={seed})")))
        }
        _ => Err(usage_error(&format!(
            "{} takes one graph: a <graph.edges> path, or --n N [--family F]",
            args.cmd.name
        ))),
    }
}

fn cmd_info(args: &Args) -> Result<(), ExitCode> {
    let [path] = &args.positional[..] else {
        return Err(usage());
    };
    let g = load(path)?;
    println!("nodes          {}", g.n());
    println!("edges          {}", g.m());
    println!("weight range   [{}, {}]", g.min_weight(), g.max_weight());
    let (_, comps) = cc_graph::components::connected_components(&g);
    println!("components     {comps}");
    if g.n() <= 2048 {
        println!("weighted diam  {}", sssp::weighted_diameter(&g));
        println!("hop diam       {}", cc_graph::hops::hop_diameter(&g));
    }
    Ok(())
}

/// `--oracle`, else the `CC_ORACLE` environment default. A landmark build
/// ignores `--algo`, and says so.
fn oracle(args: &Args) -> Result<OracleKind, ExitCode> {
    let kind = args
        .parse("--oracle", OracleKind::parse)?
        .unwrap_or_else(OracleKind::from_env);
    if kind == OracleKind::Landmark && args.get("--algo").is_some() {
        println!("note           --oracle landmark builds a sketch; --algo is ignored");
    }
    Ok(kind)
}

fn cmd_run(args: &Args) -> Result<(), ExitCode> {
    let seed = args.value_or("--seed", 1u64)?;
    let (g, _) = workload(args, seed, None)?;
    let exec = args.exec()?;
    let kernel = args.kernel()?;
    if oracle(args)? == OracleKind::Landmark {
        // Landmark runs build the sketch directly from the graph; the
        // pipeline algorithms produce dense estimates only.
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
        return Ok(());
    }
    let algo = args.get("--algo").unwrap_or("thm11");
    let (estimate, bound, rounds) =
        run_algorithm(&g, algo, seed, exec, kernel).map_err(|e| usage_error(&e.to_string()))?;

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
    Ok(())
}

fn cmd_snapshot(args: &Args) -> Result<(), ExitCode> {
    let out = args.required("--out")?;
    let seed = args.value_or("--seed", 1u64)?;
    let exec = args.exec()?;
    let kernel = args.kernel()?;
    let (g, source) = workload(args, seed, None)?;
    let n = g.n();
    let snapshot = if oracle(args)? == OracleKind::Landmark {
        // Landmark snapshots skip the dense pipeline entirely: the sketch
        // is the servable artifact, built straight from the graph.
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
        let algo = args.get("--algo").unwrap_or("thm11");
        let (estimate, bound, rounds) =
            run_algorithm(&g, algo, seed, exec, kernel).map_err(|e| usage_error(&e.to_string()))?;
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
    let encoded = snapshot.to_bytes();
    cc_graph::codec::write_atomic(out, &encoded)
        .map_err(|e| fail(format!("cannot write {out}: {e}")))?;
    let meta = &snapshot.meta;
    println!(
        "wrote {out} ({n} nodes, algo {}, bound {:.1}×, {} rounds, {} bytes)",
        meta.algo,
        meta.stretch_bound,
        meta.rounds,
        encoded.len()
    );
    Ok(())
}

fn parse_node(s: &str, n: usize, what: &str) -> Result<usize, ExitCode> {
    match s.parse::<usize>() {
        Ok(v) if v < n => Ok(v),
        Ok(v) => Err(fail(format!(
            "{what} {v} out of range for a {n}-node snapshot"
        ))),
        Err(_) => Err(fail(format!("{what} expects a node id, got {s:?}"))),
    }
}

fn cmd_query(args: &Args) -> Result<(), ExitCode> {
    let [path, kind, rest @ ..] = &args.positional[..] else {
        return Err(usage());
    };
    let snapshot = load_snapshot(path)?;
    let n = snapshot.n();
    let (service, id) = OracleService::single(snapshot);
    let query = match (kind.as_str(), rest) {
        ("dist", [u, v]) => Query::Dist(parse_node(u, n, "u")?, parse_node(v, n, "v")?),
        ("route", [u, v]) => Query::Route(parse_node(u, n, "u")?, parse_node(v, n, "v")?),
        ("knearest", [u, k]) => {
            let u = parse_node(u, n, "u")?;
            let k = k
                .parse::<usize>()
                .map_err(|_| fail(format!("k expects a number, got {k:?}")))?;
            Query::KNearest(u, k.clamp(1, n))
        }
        _ => return Err(usage()),
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
    Ok(())
}

fn cmd_update(args: &Args) -> Result<(), ExitCode> {
    let [path] = &args.positional[..] else {
        return Err(usage());
    };
    let snapshot = load_snapshot(path)?;
    // The backend is baked into the snapshot; an explicit --oracle flag is
    // only a consistency check (the environment default is not — it must
    // not reject snapshots made under a different CC_ORACLE).
    if let Some(requested) = args.parse("--oracle", OracleKind::parse)? {
        let actual = snapshot.backend.kind();
        if requested != actual {
            return Err(fail(format!(
                "snapshot {path} has a {} backend, but --oracle {} was requested",
                actual.name(),
                requested.name()
            )));
        }
    }
    let exec = args.exec()?;
    let kernel = args.kernel()?;
    let seed = args.value_or("--seed", 1u64)?;
    let profile = args
        .parse("--profile", MutationProfile::parse)?
        .unwrap_or(MutationProfile::ReweightHeavy);
    let random = args.parse("--random", |s| s.parse::<usize>().ok())?;
    let batch = match (args.get("--ops"), random) {
        (Some(file), None) => {
            let text = std::fs::read_to_string(file)
                .map_err(|e| fail(format!("cannot read {file}: {e}")))?;
            UpdateBatch::parse(&text).map_err(|e| fail(format!("cannot parse {file}: {e}")))?
        }
        (None, Some(k)) => {
            let mut rng = StdRng::seed_from_u64(seed);
            random_batch(&snapshot.graph, k, profile, &mut rng)
        }
        _ => {
            return Err(usage_error(
                "update needs exactly one batch source: --ops <file> or --random K",
            ))
        }
    };
    let meta = snapshot.meta.clone();
    let mut engine = IncrementalOracle::with_backend(
        snapshot.graph,
        snapshot.backend,
        &meta.algo,
        meta.seed,
        DynamicConfig { exec, kernel },
    );
    let start = Instant::now();
    let outcome = engine
        .apply(&batch)
        .map_err(|e| fail(format!("cannot apply batch: {e}")))?;
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let n = engine.graph().n();
    println!("snapshot       {} nodes, algo {}", n, meta.algo);
    println!(
        "batch          {} ops, {} effective edge changes",
        batch.canonicalize().len(),
        outcome.changed_edges
    );
    match outcome.strategy {
        ApplyStrategy::Repaired { affected, folded } => {
            println!("strategy       repaired {affected}/{n} rows, {folded} edges folded");
        }
        ApplyStrategy::Rebuilt => println!("strategy       rebuilt (Approximate)"),
    }
    println!("rows in delta  {}", outcome.delta.rows.len());
    println!("wall           {wall_ms:.1} ms");
    println!(
        "state          {:016x} -> {:016x}",
        outcome.delta.base_fingerprint, outcome.delta.result_fingerprint
    );
    if let Some(delta_out) = args.get("--delta") {
        wrote(delta_out, outcome.delta.save(delta_out))?;
    }
    if let Some(out) = args.get("--out") {
        let updated =
            Snapshot::with_backend(engine.graph().clone(), engine.backend().clone(), meta);
        wrote(out, updated.save(out))?;
    } else if args.get("--delta").is_none() {
        println!("note           dry run: no --delta or -o output requested");
    }
    Ok(())
}

fn cmd_compact(args: &Args) -> Result<(), ExitCode> {
    let [base_path, delta_paths @ ..] = &args.positional[..] else {
        return Err(usage());
    };
    if delta_paths.is_empty() {
        return Err(usage_error(
            "compact needs at least one <d.ccdelta> after the base snapshot",
        ));
    }
    let out = args.required("--out")?;
    let base = load_snapshot(base_path)?;
    let deltas = delta_paths
        .iter()
        .map(|p| Delta::load(p).map_err(|e| fail(format!("cannot load delta {p}: {e}"))))
        .collect::<Result<Vec<_>, _>>()?;
    let (merged, graph, backend) = ccdelta::compact_backend(&base.graph, &base.backend, &deltas)
        .map_err(|e| fail(format!("cannot replay delta chain: {e}")))?;
    let final_snapshot = Snapshot::with_backend(graph, backend, base.meta.clone());
    let fp = final_snapshot.state_fingerprint();
    final_snapshot
        .save(out)
        .map_err(|e| fail(format!("cannot write {out}: {e}")))?;
    println!(
        "compacted      {} deltas: {} ops, {} rows",
        deltas.len(),
        merged.batch.len(),
        merged.rows.len()
    );
    println!("state          {fp:016x}");
    println!("wrote          {out}");
    if let Some(delta_out) = args.get("--delta") {
        wrote(delta_out, merged.save(delta_out))?;
    }
    Ok(())
}

/// Replays a seeded query stream against a snapshot file and prints the
/// stream fingerprint. With `--addr`, replays it against a running daemon
/// over `--conns` connections too, and fails unless the daemon's
/// fingerprint equals the file's: the networked serving path must be
/// observationally identical to in-process `run_batch`.
fn cmd_bench_serve(args: &Args) -> Result<(), ExitCode> {
    let [path] = &args.positional[..] else {
        return Err(usage());
    };
    let snapshot = load_snapshot(path)?;
    let exec = args.exec()?;
    let defaults = LoadSpec::default();
    let spec = LoadSpec {
        queries: args.value_or("--queries", defaults.queries)?,
        batch: args.value_or("--batch", defaults.batch)?,
        skew: args
            .parse("--skew", |s| Skew::parse(s).ok())?
            .unwrap_or(defaults.skew),
        k: args.value_or("--k", defaults.k)?,
        seed: args.value_or("--seed", defaults.seed)?,
        ..defaults
    };
    let conns = args.value_or("--conns", 4usize)?.max(1);
    let (service, id) = OracleService::single(snapshot);
    let local = replay(&service, id, &spec, exec);
    let Some(addr) = args.get("--addr") else {
        let (n, algo) = (service.n(id), &service.meta(id).algo);
        println!("snapshot       {n} nodes, algo {algo}");
        println!("exec           {exec}");
        println!(
            "queries        {} (batch {}, {:?})",
            spec.queries, spec.batch, spec.skew
        );
        println!("fingerprint    {local:016x}");
        return Ok(());
    };
    let name = args.get("--name").unwrap_or("default");
    let remote = replay_network(addr, name, &spec, conns)
        .map_err(|e| fail(format!("networked replay against {addr} failed: {e}")))?;
    println!("daemon         {addr} ({conns} connections, snapshot {name:?})");
    println!(
        "queries        {} (batch {}, {:?})",
        spec.queries, spec.batch, spec.skew
    );
    println!("fingerprint    {remote:016x}");
    if remote != local {
        return Err(fail(format!(
            "FINGERPRINT MISMATCH: networked {remote:016x} != in-process {local:016x} \
             (is the daemon serving a different snapshot or a mutated version?)"
        )));
    }
    println!("verified       networked responses bit-identical to in-process run_batch");
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), ExitCode> {
    let [path] = &args.positional[..] else {
        return Err(usage());
    };
    let snapshot = load_snapshot(path)?;
    let exec = args.exec()?;
    let defaults = ServerConfig::default();
    let cfg = ServerConfig {
        exec,
        queue_cap: args.value_or("--queue-cap", defaults.queue_cap)?,
        batch_max: args.value_or("--batch-max", defaults.batch_max)?,
        slow_query_us: args.value_or("--slow-query-us", defaults.slow_query_us)?,
        metrics_addr: args.parse("--metrics-addr", |s| s.parse().ok())?,
        ..defaults
    };
    let addr = args.get("--addr").unwrap_or("127.0.0.1:7199");
    let name = args.get("--name").unwrap_or("default");
    let n = snapshot.n();
    let algo = snapshot.meta.algo.clone();
    let mut service = OracleService::default();
    service.register(name, snapshot);
    let handle =
        Server::spawn(service, addr, cfg).map_err(|e| fail(format!("cannot bind {addr}: {e}")))?;
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
    Ok(())
}

fn cmd_serve_admin(args: &Args) -> Result<(), ExitCode> {
    let action: Vec<&str> = args.positional.iter().map(String::as_str).collect();
    // `scrape` talks plain HTTP to the metrics side-listener; every other
    // action is a wire frame to the main --addr listener.
    if action == ["scrape"] {
        let maddr = args.required("--metrics-addr")?;
        let body = scrape_http_metrics(maddr)
            .map_err(|e| fail(format!("cannot scrape http://{maddr}/metrics: {e}")))?;
        print!("{body}");
        return Ok(());
    }
    let addr = args.required("--addr")?;
    let name = args.get("--name").unwrap_or("default").to_string();
    let mut client =
        Client::connect(addr).map_err(|e| fail(format!("cannot connect to {addr}: {e}")))?;
    let read =
        |path: &str| std::fs::read(path).map_err(|e| fail(format!("cannot read {path}: {e}")));
    let outcome = match action[..] {
        ["metrics-v2"] => client.metrics_v2().map(|text| print!("{text}")),
        ["flight-dump"] => {
            let doc = client.flight_dump().map_err(fail)?;
            return match args.get("--out") {
                None => {
                    print!("{doc}");
                    Ok(())
                }
                Some(path) => wrote(path, std::fs::write(path, &doc)),
            };
        }
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
        ["apply-delta", path] => client
            .admin(&Request::ApplyDelta {
                name,
                delta: read(path)?,
            })
            .map(|msg| println!("{msg}")),
        ["swap", path] => client
            .admin(&Request::SwapSnapshot {
                name,
                snapshot: read(path)?,
            })
            .map(|msg| println!("{msg}")),
        _ => {
            let actions = args.cmd.synopsis;
            return Err(usage_error(&format!(
                "serve-admin expects one action: {actions}"
            )));
        }
    };
    outcome.map_err(fail)
}

fn cmd_serve_chaos(args: &Args) -> Result<(), ExitCode> {
    let report = chaos(args.required("--addr")?);
    for name in &report.passed {
        println!("pass           {name}");
    }
    for why in &report.failed {
        println!("FAIL           {why}");
    }
    if !report.ok() {
        return Err(fail(format!(
            "chaos          {} scenario(s) failed",
            report.failed.len()
        )));
    }
    println!(
        "chaos          {} scenarios survived: typed errors, no hangs, daemon healthy",
        report.passed.len()
    );
    Ok(())
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
fn cmd_top(args: &Args) -> Result<(), ExitCode> {
    let addr = args.required("--addr")?;
    let interval_ms = args.value_or("--interval-ms", 1000u64)?.max(50);
    let frames = args.value_or("--frames", 0u64)?;
    let mut client =
        Client::connect(addr).map_err(|e| fail(format!("cannot connect to {addr}: {e}")))?;
    let mut last_version: Option<f64> = None;
    let mut drawn = 0usize;
    let mut frame = 0u64;
    loop {
        let text = match client.metrics_v2() {
            Ok(t) => t,
            Err(e) => {
                eprintln!("daemon {addr} went away: {e}");
                return if frame > 0 {
                    Ok(())
                } else {
                    Err(ExitCode::FAILURE)
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
            return Ok(());
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
fn cmd_bench_oracle(args: &Args) -> Result<(), ExitCode> {
    let seed = args.value_or("--seed", 1u64)?;
    let queries = args
        .parse("--queries", |s| s.parse().ok().filter(|&q: &usize| q > 0))?
        .unwrap_or(10_000);
    let sources = args.value_or("--sources", 32usize)?;
    let exec = args.exec()?;
    let kernel = args.kernel()?;
    let (g, source) = workload(args, seed, Some(1024))?;
    let n = g.n();
    let threads = exec.threads();
    let out = args.get("--out").unwrap_or("BENCH_oracle.json");
    println!("instance       {source} ({n} nodes, {} edges)", g.m());
    println!("exec           {exec}");

    // Build both backends on the same graph.
    let start = Instant::now();
    let (estimate, _, _) =
        run_algorithm(&g, "exact", seed, exec, kernel).expect("exact is a registered algorithm");
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
    wrote(out, write_report(out, &records))
}
