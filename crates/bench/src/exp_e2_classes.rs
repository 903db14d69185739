//! E2 — invocation classes as flow control.
//!
//! Sixteen concurrent clients invoke a 5 ms operation on one object
//! whose class limit varies. Expected shape: throughput grows
//! essentially linearly with the limit until it meets the client count,
//! then flattens — the class limit is the §4.2 "internal flow-control
//! mechanism" in action.

use std::time::{Duration, Instant};

use eden_kernel::NodeConfig;
use eden_wire::{Status, Value};

use crate::table::Table;
use crate::types::{bench_cluster_with, HoldType};

const CLIENTS: usize = 16;
const INVOCATIONS_PER_CLIENT: usize = 8;
const HOLD_MS: u64 = 5;

/// Measures throughput (ops/s) for one class limit.
fn throughput_for_limit(limit: usize) -> f64 {
    let cluster = bench_cluster_with(
        1,
        NodeConfig {
            // Plenty of processors: the class limit must be the only
            // bottleneck under test.
            virtual_processors: 32,
            ..Default::default()
        },
    );
    let cap = cluster
        .node(0)
        .create_object(&HoldType::name_for(limit), &[])
        .expect("create holder");

    let start = Instant::now();
    let handles: Vec<_> = (0..CLIENTS * INVOCATIONS_PER_CLIENT)
        .map(|_| {
            cluster
                .node(0)
                .invoke_async(cap, "hold_ms", &[Value::U64(HOLD_MS)])
        })
        .collect();
    for h in handles {
        let (status, _) = h.wait(Duration::from_secs(60));
        assert_eq!(status, Status::Ok, "hold completes");
    }
    let elapsed = start.elapsed().as_secs_f64();
    let total = (CLIENTS * INVOCATIONS_PER_CLIENT) as f64;
    cluster.shutdown();
    total / elapsed
}

/// Runs E2 and returns the table.
pub fn run() -> Table {
    let mut t = Table::new(
        "E2 — invocation-class concurrency limits (5 ms op, 16 clients)",
        &[
            "class limit",
            "throughput (ops/s)",
            "ideal (limit/5ms)",
            "efficiency",
        ],
    );
    for limit in [1usize, 2, 4, 8, 16] {
        let tput = throughput_for_limit(limit);
        let ideal = limit as f64 * 1000.0 / HOLD_MS as f64;
        t.row(vec![
            limit.to_string(),
            format!("{tput:.0}"),
            format!("{ideal:.0}"),
            format!("{:.0}%", 100.0 * tput / ideal),
        ]);
    }
    t.note("expected shape: throughput ∝ limit (limit=1 is the paper's mutual-exclusion case)");
    t
}
