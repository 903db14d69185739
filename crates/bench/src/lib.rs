//! The experiment harness behind EXPERIMENTS.md.
//!
//! Each submodule implements one experiment from DESIGN.md §5a and
//! returns a [`Table`]; the `repro` binary prints them. `exp_micro`
//! times the wire codec, the store CRC and the obs primitives per
//! operation.
//!
//! Everything here runs on the public API only — the harness is
//! downstream code, not a kernel back door.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod table;
pub mod types;

pub mod exp_e10_failover;
pub mod exp_e11_ablation;
pub mod exp_e12_fanout;
pub mod exp_e13_transport;
pub mod exp_e14_directory;
pub mod exp_e16_pipeline;
pub mod exp_e1_latency;
pub mod exp_e2_classes;
pub mod exp_e3_checkpoint;
pub mod exp_e4_frozen;
pub mod exp_e5_mobility;
pub mod exp_e6_location;
pub mod exp_e7_ethernet;
pub mod exp_e8_efs_cc;
pub mod exp_e9_replication;
pub mod exp_f1_topology;
pub mod exp_f2_vprocs;
pub mod exp_micro;

pub use table::Table;

/// Seconds-precision wall-clock helper: runs `f` and returns (result,
/// elapsed seconds).
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = std::time::Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// Path for an experiment artifact, creating `target/artifacts/` on
/// first use. Artifacts are machine-readable exports riding along with
/// the printed tables — Prometheus scrapes, Chrome traces — referenced
/// from EXPERIMENTS.md.
pub fn artifact_path(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new("target").join("artifacts");
    let _ = std::fs::create_dir_all(&dir);
    dir.join(name)
}

/// Formats a duration in adaptive units for table cells.
pub fn fmt_us(us: f64) -> String {
    if us >= 10_000.0 {
        format!("{:.2} ms", us / 1000.0)
    } else {
        format!("{us:.1} µs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_measures_something() {
        let ((), secs) = timed(|| std::thread::sleep(std::time::Duration::from_millis(20)));
        assert!(secs >= 0.02);
    }

    #[test]
    fn fmt_us_switches_units() {
        assert!(fmt_us(100.0).contains("µs"));
        assert!(fmt_us(50_000.0).contains("ms"));
    }
}
