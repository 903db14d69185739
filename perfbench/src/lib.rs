//! The Eden invocation benchmark.
//!
//! One command runs one workload for a fixed time and prints one JSON
//! result line: end-to-end metrics in an untraced run, per-layer metrics
//! in a traced one (`--trace 1`). Every number is measured from outside
//! the kernel, through its public API and through the benchmark's own
//! decorators around the transport, the store and the type manager; see
//! `README.md` for the workloads and what each metric should move.

#![forbid(unsafe_code)]

pub mod decor;
pub mod procfs;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workload;

use std::path::PathBuf;

/// Set-ups per run: the median is `setup_s`, and the last one is driven.
pub const SETUPS: usize = 5;

/// Where a run keeps its disk stores: under the build's target
/// directory, so it stays inside the checkout and out of version
/// control.
pub fn scratch_dir(name: &str) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"));
    target
        .join("perfbench-scratch")
        .join(format!("{name}-{}", std::process::id()))
}
