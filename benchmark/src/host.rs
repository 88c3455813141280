//! Host facts and process accounting read from procfs.
//!
//! Every output carries the host-facts block so a number is never read off
//! the wrong box: the previous evidence labelled a curve "scaling" that was
//! recorded with one hardware thread.

use crate::json::{obj, s};
use serde::Content;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, fixed
/// at 100 on every Linux ABI the repo builds for).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process has consumed, all threads.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let after = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    // `after` starts at field 3 (state): utime/stime are fields 14/15.
    let tick = |i: usize| fields.get(i).and_then(|s| s.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => (u + s) / USER_HZ,
        _ => 0.0,
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|r| r.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The host-facts block: where and how the numbers were taken.
pub fn facts(seed: u64) -> Content {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let flags = field("flags");
    let has = |f: &str| flags.split_whitespace().any(|x| x == f);
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // `run.sh` exports the toolchain and commit: learning them takes
    // `rustc` and `git`, and the driver's checkout is not a git repository.
    let env = |key: &str| {
        std::env::var(key)
            .ok()
            .filter(|v| !v.is_empty())
            .unwrap_or_else(|| "unknown".into())
    };
    obj([
        ("nproc", Content::U64(nproc as u64)),
        ("cpu_model", s(field("model name"))),
        ("avx2", Content::Bool(has("avx2"))),
        ("fma", Content::Bool(has("fma"))),
        ("rustc", s(env("VC_BENCH_RUSTC"))),
        (
            "profile",
            s(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("git_commit", s(env("VC_BENCH_COMMIT"))),
        ("vc_threads", s(env("VC_THREADS"))),
        ("seed", Content::U64(seed)),
    ])
}
