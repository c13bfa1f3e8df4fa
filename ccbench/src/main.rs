//! `ccbench`: the repository benchmark. One invocation runs one seeded
//! workload in this process, measures it for `--seconds`, checks its
//! outputs, prints a report, and ends with one JSON result line.
//!
//! ```text
//! ccbench --workload build|serve|serve_net|update --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` reports the end-to-end metrics with every recorder off;
//! `--trace 1` is the separate traced run that reports per-layer metrics.

mod check;
mod report;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use cc_par::ExecPolicy;

use crate::report::Report;

/// Workload settings shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub seed: u64,
    /// Length of the measured phase.
    pub run: Duration,
    pub trace: bool,
    /// Cores available to the process.
    pub nproc: usize,
    /// Worker threads and client connections: `nproc`, at most 2, so the
    /// workload has the same shape on every box.
    pub threads: usize,
    pub exec: ExecPolicy,
}

impl Ctx {
    /// Whether a phase that started at `start` and was given `share` of the
    /// run has used up its time.
    pub fn expired(&self, start: Instant, share: f64) -> bool {
        start.elapsed().as_secs_f64() >= self.run.as_secs_f64() * share
    }
}

const USAGE: &str =
    "usage: ccbench --workload build|serve|serve_net|update --seed N --seconds S --trace 0|1";

fn parse_args(args: &[String]) -> Result<(String, Ctx), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let nproc = sys::nproc();
    let threads = nproc.clamp(1, 2);
    Ok((
        workload,
        Ctx {
            seed,
            run: Duration::from_secs_f64(seconds),
            trace,
            nproc,
            threads,
            exec: ExecPolicy::with_threads(threads),
        },
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, ctx) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run: fn(&Ctx) -> Report = match workload.as_str() {
        "build" => workloads::build::run,
        "serve" => workloads::serve::run,
        "serve_net" => workloads::serve_net::run,
        "update" => workloads::update::run,
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = run(&ctx);
    report.set("peak_rss_mb", sys::peak_rss_mb());
    println!(
        "stamp          workload={workload} seed={} seconds={} trace={} nproc={} threads={} reps={} rustc=\"{}\" commit={}",
        ctx.seed,
        ctx.run.as_secs_f64(),
        u8::from(ctx.trace),
        ctx.nproc,
        ctx.threads,
        report.metrics.get("run.reps").copied().unwrap_or(0.0),
        sys::rustc_version(),
        sys::git_commit(),
    );
    for line in &report.lines {
        println!("{line}");
    }
    println!("peak_rss_mb    {:.1} MiB", sys::peak_rss_mb());
    println!(
        "ops            attempted {} / failed {} (fail_ratio {:.6})",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    println!("{}", report.json(ctx.trace));
    ExitCode::SUCCESS
}
