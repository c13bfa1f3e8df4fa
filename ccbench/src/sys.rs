//! Process-level measurements and the provenance stamp: CPU time, peak
//! resident memory, core count, toolchain and commit.

use std::process::Command;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: CPU time of every thread of the process.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds the whole process has used so far (all threads).
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit fields
    // on the 64-bit Linux targets this benchmark builds for), and the clock
    // id is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Wall and CPU time of one call, and the CPU utilisation over `nproc`
/// cores: CPU time / (wall × nproc).
#[derive(Debug, Clone, Copy, Default)]
pub struct Timed {
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl Timed {
    pub fn ms(&self) -> f64 {
        self.wall_s * 1e3
    }

    pub fn cpu_util(&self, nproc: usize) -> f64 {
        if self.wall_s > 0.0 {
            self.cpu_s / (self.wall_s * nproc as f64)
        } else {
            0.0
        }
    }

    pub fn add(&mut self, other: Timed) {
        self.wall_s += other.wall_s;
        self.cpu_s += other.cpu_s;
    }
}

/// Runs `f`, returning its result with its wall and process CPU time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Timed) {
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    (out, Timed { wall_s, cpu_s })
}

/// The process's high-water resident set size in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of a command's standard output, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}

/// Toolchain version (`rustc --version`), or `unknown`.
pub fn rustc_version() -> String {
    command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())
}

/// The commit of the checkout, or `none` outside a git work tree (only a
/// `.git` in the working directory is consulted, never a parent's).
pub fn git_commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "none".into();
    }
    command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "none".into())
}
