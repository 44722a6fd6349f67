//! What the numbers were measured on.

use std::fs::read_to_string;

fn first_line(path: &str) -> Option<String> {
    read_to_string(path)
        .ok()?
        .lines()
        .next()
        .map(|l| l.trim().to_string())
}

/// The 1-minute load average.
pub fn load_average() -> Option<f64> {
    first_line("/proc/loadavg")?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set of this process, in kB (`VmHWM`).
pub fn peak_rss_kb() -> Option<f64> {
    read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One line per fact.  `run.sh` passes what only it can know (compiler
/// version, commit) through `PERF_RUSTC` and `PERF_COMMIT`.
pub fn fingerprint() -> Vec<(&'static str, String)> {
    let unknown = || "unknown".to_string();
    let cpu = read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(unknown);
    vec![
        ("nproc", nproc().to_string()),
        ("cpu", cpu),
        (
            "governor",
            first_line("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
                .unwrap_or_else(unknown),
        ),
        (
            "kernel",
            first_line("/proc/sys/kernel/osrelease").unwrap_or_else(unknown),
        ),
        (
            "rustc",
            std::env::var("PERF_RUSTC").unwrap_or_else(|_| unknown()),
        ),
        (
            "commit",
            std::env::var("PERF_COMMIT").unwrap_or_else(|_| unknown()),
        ),
    ]
}
