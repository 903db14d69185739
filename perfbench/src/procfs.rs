//! What the benchmark reads about its own process and host: CPU time,
//! the thread census, peak memory, and the provenance block.

use std::collections::BTreeMap;
use std::process::Command;

/// Thread groups, by the thread-name prefixes the kernel and transport
/// use (`comm` is truncated to 15 bytes, so `eden-tcp-write-0-1` reads
/// `eden-tcp-write-`). Unknown names land in `other`, so a new kind of
/// thread shows up instead of hiding in a known group.
pub const GROUPS: [&str; 9] = [
    "tcp-rdr",
    "tcp-write",
    "tcp-accept",
    "recv",
    "vproc",
    "watchdog",
    "mesh",
    "bench",
    "other",
];

/// The group of a thread named `comm`; `is_main` marks the process's
/// main thread, which is the benchmark's.
pub fn group_of(comm: &str, is_main: bool) -> &'static str {
    if is_main {
        return "bench";
    }
    let Some(rest) = comm.strip_prefix("eden-") else {
        return if comm.starts_with("bench") {
            "bench"
        } else {
            "other"
        };
    };
    GROUPS[..7]
        .iter()
        .find(|g| rest.starts_with(*g))
        .copied()
        .unwrap_or("other")
}

/// The `comm` field of a `stat` line (parenthesised; it may contain
/// spaces and parentheses itself).
fn stat_comm(stat: &str) -> Option<&str> {
    Some(&stat[stat.find('(')? + 1..stat.rfind(')')?])
}

/// One scan of `/proc/self/task`: per thread id, its group and its
/// on-CPU time in nanoseconds (the first field of `schedstat`). The
/// process's `stat` counts CPU in 10 ms ticks, too coarse to split a
/// two-second slice; per-thread `schedstat` counts nanoseconds, and the
/// same scan gives the thread census.
pub fn census() -> BTreeMap<u32, (&'static str, u64)> {
    let pid = std::process::id();
    let mut out = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        // A thread can exit between listing and reading: skip it.
        let (Ok(stat), Ok(sched)) = (
            std::fs::read_to_string(entry.path().join("stat")),
            std::fs::read_to_string(entry.path().join("schedstat")),
        ) else {
            continue;
        };
        let cpu_ns = sched.split_whitespace().next().and_then(|v| v.parse().ok());
        if let (Some(comm), Some(cpu_ns)) = (stat_comm(&stat), cpu_ns) {
            out.insert(tid, (group_of(comm, tid == pid), cpu_ns));
        }
    }
    out
}

/// Total on-CPU nanoseconds of the threads in a census.
pub fn cpu_ns(census: &BTreeMap<u32, (&'static str, u64)>) -> u64 {
    census.values().map(|&(_, ns)| ns).sum()
}

/// Per group between two censuses: (threads at `end`, CPU nanoseconds
/// spent in the interval). Threads that exited in between are not
/// counted.
pub fn group_split(
    start: &BTreeMap<u32, (&'static str, u64)>,
    end: &BTreeMap<u32, (&'static str, u64)>,
) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = GROUPS.iter().map(|&g| (g, (0, 0))).collect();
    for (tid, &(group, ns)) in end {
        let before = start.get(tid).map_or(0, |&(_, t)| t);
        let slot = out.get_mut(group).expect("every group is listed");
        slot.0 += 1;
        slot.1 += ns.saturating_sub(before);
    }
    out
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host and build the numbers were produced on.
pub fn host() -> BTreeMap<&'static str, String> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    BTreeMap::from([
        ("nproc", nproc.to_string()),
        ("cpu_model", cpu),
        ("kernel_release", kernel),
        ("rustc", command_line("rustc", &["--version"])),
        ("git_commit", command_line("git", &["rev-parse", "HEAD"])),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_may_hold_spaces_and_parentheses() {
        assert_eq!(stat_comm("42 (eden (x) y) S 1 2"), Some("eden (x) y"));
    }

    #[test]
    fn census_sees_this_thread_on_cpu() {
        let c = census();
        assert!(!c.is_empty());
        assert!(cpu_ns(&c) > 0);
    }

    #[test]
    fn truncated_thread_names_find_their_group() {
        assert_eq!(group_of("eden-tcp-write-", false), "tcp-write");
        assert_eq!(group_of("eden-tcp-rdr-0-", false), "tcp-rdr");
        assert_eq!(group_of("eden-vproc-1-s3", false), "vproc");
        assert_eq!(group_of("eden-mesh-delay", false), "mesh");
        assert_eq!(group_of("bench-drv-0", false), "bench");
        assert_eq!(group_of("eden-perfbench", true), "bench");
        assert_eq!(group_of("eden-behavior-x", false), "other");
    }
}
