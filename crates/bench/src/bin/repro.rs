//! Regenerates every experiment table in EXPERIMENTS.md.
//!
//! ```sh
//! cargo run -p eden-bench --bin repro --release            # everything
//! cargo run -p eden-bench --bin repro --release -- e7 e8   # a subset
//! cargo run -p eden-bench --bin repro --release -- micro    # per-op substrate costs
//! ```
//!
//! An unknown experiment id exits with status 2 before anything runs.

use eden_bench::*;

/// An experiment's id and what it runs.
type Experiment = (&'static str, fn() -> Vec<Table>);

/// Every experiment by id, in the order a full run prints them.
const EXPERIMENTS: &[Experiment] = &[
    ("f1", || vec![exp_f1_topology::run()]),
    ("f2", || vec![exp_f2_vprocs::run()]),
    ("e1", || vec![exp_e1_latency::run()]),
    ("e2", || vec![exp_e2_classes::run()]),
    ("e3", || vec![exp_e3_checkpoint::run()]),
    ("e4", || vec![exp_e4_frozen::run()]),
    ("e5", || vec![exp_e5_mobility::run()]),
    ("e6", || vec![exp_e6_location::run()]),
    ("e7", exp_e7_ethernet::run),
    ("e8", || vec![exp_e8_efs_cc::run()]),
    ("e9", || vec![exp_e9_replication::run()]),
    ("e10", || vec![exp_e10_failover::run()]),
    ("e11", || vec![exp_e11_ablation::run()]),
    ("e12", || vec![exp_e12_fanout::run()]),
    ("e14", || vec![exp_e14_directory::run()]),
    ("e16", || vec![exp_e16_pipeline::run()]),
    ("micro", || vec![exp_micro::run()]),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).map(|s| s.to_lowercase()).collect();
    let known = |a: &String| a == "all" || EXPERIMENTS.iter().any(|(id, _)| a == id);
    if let Some(bad) = args.iter().find(|a| !known(a)) {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        eprintln!(
            "repro: unknown experiment `{bad}`; valid ids: {} all",
            ids.join(" ")
        );
        std::process::exit(2);
    }
    let want = |id: &str| args.is_empty() || args.iter().any(|a| a == id || a == "all");

    println!("eden reproduction — experiment tables (see EXPERIMENTS.md)\n");
    for (id, run) in EXPERIMENTS {
        if want(id) {
            for table in run() {
                table.print();
            }
        }
    }
}
