//! What the host tells us about this process and itself: CPU time and peak
//! memory from `/proc`, core count, last-level cache size, toolchain.

use std::process::Command;

/// `USER_HZ`: the unit of the times in `/proc/<pid>/stat`. It is 100 on
/// every Linux ABI this benchmark can meet.
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds of the whole process, all threads, including
/// threads that have already exited (a `Cluster` spawns fresh rank threads
/// per call, so per-thread accounting would lose them).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The second field is the command in parentheses and may hold spaces:
    // count fields from the closing one.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut f = rest.split_whitespace().skip(11);
    let utime: f64 = f.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    let stime: f64 = f.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    (utime + stime) / TICKS_PER_S
}

/// `VmHWM`, the peak resident set of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Size of the largest cache level of cpu0 in bytes, and whether it was
/// read from sysfs (`false`: the 32 MiB fallback).
pub fn llc_bytes() -> (usize, bool) {
    let mut best = 0usize;
    for idx in 0..8 {
        let p = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}/size");
        let Ok(s) = std::fs::read_to_string(p) else {
            continue;
        };
        let s = s.trim();
        let (num, mult) = match s.as_bytes().last() {
            Some(b'K') => (&s[..s.len() - 1], 1 << 10),
            Some(b'M') => (&s[..s.len() - 1], 1 << 20),
            Some(b'G') => (&s[..s.len() - 1], 1 << 30),
            _ => (s, 1),
        };
        best = best.max(num.parse::<usize>().unwrap_or(0) * mult);
    }
    if best == 0 {
        (32 << 20, false)
    } else {
        (best, true)
    }
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// `rustc -V` of the toolchain on `PATH` (the one that built this binary,
/// since the benchmark command builds and runs in one step).
pub fn rustc_version() -> String {
    first_line_of("rustc", &["-V"])
}

/// Commit of the tree, or `unknown` outside a git repository (the
/// driver's checkout is not one).
pub fn git_sha() -> String {
    first_line_of(
        "git",
        &[
            "-C",
            env!("CARGO_MANIFEST_DIR"),
            "rev-parse",
            "--short",
            "HEAD",
        ],
    )
}
