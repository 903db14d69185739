//! Regenerates every experiment table in EXPERIMENTS.md.
//!
//! ```sh
//! cargo run -p eden-bench --bin repro --release            # everything
//! cargo run -p eden-bench --bin repro --release -- e7 e8   # a subset
//! cargo run -p eden-bench --bin repro --release -- micro    # per-op substrate costs
//! ```

use eden_bench::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).map(|s| s.to_lowercase()).collect();
    let want = |id: &str| args.is_empty() || args.iter().any(|a| a == id || a == "all");

    println!("eden reproduction — experiment tables (see EXPERIMENTS.md)\n");

    if want("f1") {
        exp_f1_topology::run().print();
    }
    if want("f2") {
        exp_f2_vprocs::run().print();
    }
    if want("e1") {
        exp_e1_latency::run().print();
    }
    if want("e2") {
        exp_e2_classes::run().print();
    }
    if want("e3") {
        exp_e3_checkpoint::run().print();
    }
    if want("e4") {
        exp_e4_frozen::run().print();
    }
    if want("e5") {
        exp_e5_mobility::run().print();
    }
    if want("e6") {
        exp_e6_location::run().print();
    }
    if want("e7") {
        for table in exp_e7_ethernet::run() {
            table.print();
        }
    }
    if want("e8") {
        exp_e8_efs_cc::run().print();
    }
    if want("e9") {
        exp_e9_replication::run().print();
    }
    if want("e10") {
        exp_e10_failover::run().print();
    }
    if want("e11") {
        exp_e11_ablation::run().print();
    }
    if want("e12") {
        exp_e12_fanout::run().print();
    }
    if want("e13") {
        exp_e13_transport::run().print();
    }
    if want("e14") {
        exp_e14_directory::run().print();
    }
    if want("e16") {
        exp_e16_pipeline::run().print();
    }
    if want("micro") {
        exp_micro::run().print();
    }
}
