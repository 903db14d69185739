//! The benchmark's self-test: a delay injected into one layer through
//! the benchmark's own decorators must move that layer's metric and the
//! end-to-end metric of the workload that loads the layer past its
//! bound, and must leave a workload that bypasses the layer unchanged.
//!
//! Run with `cargo test --release` from this package; it takes about a
//! minute and a half of wall time.

use std::collections::BTreeMap;
use std::time::Duration;

use eden_perfbench::decor::Inject;
use eden_perfbench::report;
use eden_perfbench::workload::{self, RunConfig, Workload};

/// The bound `BENCHMARK.json` fixes for `lat_p50_us` and `lat_p99_us`.
const BOUND: f64 = 0.25;
/// Added to every checkpoint write.
const STORE_DELAY: Duration = Duration::from_millis(2);
/// Added to every frame sent.
const SEND_DELAY: Duration = Duration::from_millis(1);

fn run(workload: Workload, inject: Inject, trace: bool) -> BTreeMap<String, f64> {
    let cfg = RunConfig {
        workload,
        seed: 7,
        seconds: 2.0,
        trace,
        setups: 1,
        inject,
        scratch: eden_perfbench::scratch_dir("selftest"),
    };
    let outcome = workload::run(&cfg);
    let _ = std::fs::remove_dir_all(&cfg.scratch);
    assert!(outcome.tally.wrong.is_none(), "{:?}", outcome.tally.wrong);
    assert!(
        outcome.tally.failures.is_empty(),
        "{:?}",
        outcome.tally.failures
    );
    let metrics = if trace {
        report::per_layer(&outcome, workload)
    } else {
        report::end_to_end(&outcome)
    };
    metrics.into_iter().map(|(name, v, _)| (name, v)).collect()
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn store_delay() -> Inject {
    Inject {
        store_put: STORE_DELAY,
        ..Inject::default()
    }
}

fn send_delay() -> Inject {
    Inject {
        send: SEND_DELAY,
        ..Inject::default()
    }
}

fn assert_moved(what: &str, base: f64, slowed: f64) {
    assert!(
        slowed > base * (1.0 + BOUND),
        "{what}: {base:.1} -> {slowed:.1} should exceed the {BOUND} bound"
    );
}

#[test]
fn an_injected_delay_is_attributed_to_its_layer_and_workload() {
    // Store delay: seen by the store and by mesh_mixed, whose writes
    // checkpoint through it.
    let base = run(Workload::MeshMixed, Inject::default(), false);
    let slowed = run(Workload::MeshMixed, store_delay(), false);
    assert_moved(
        "mesh_mixed lat_p99_us",
        base["lat_p99_us"],
        slowed["lat_p99_us"],
    );
    let base = run(Workload::MeshMixed, Inject::default(), true);
    let slowed = run(Workload::MeshMixed, store_delay(), true);
    assert_moved(
        "mesh_mixed store.put_us_p50",
        base["store.put_us_p50"],
        slowed["store.put_us_p50"],
    );

    // ...but not by tcp_seq, which never checkpoints. Interleaved
    // medians of three, because the polling transport occasionally runs
    // a whole run in a faster phase-locked mode.
    let (mut base, mut slowed) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        base.push(run(Workload::TcpSeq, Inject::default(), false)["lat_p50_us"]);
        slowed.push(run(Workload::TcpSeq, store_delay(), false)["lat_p50_us"]);
    }
    let (base_p50, slowed_p50) = (median(base), median(slowed));
    assert!(
        slowed_p50 <= base_p50 * (1.0 + BOUND),
        "tcp_seq lat_p50_us moved with a store delay: {base_p50:.1} -> {slowed_p50:.1}"
    );

    // Send delay: seen by the transport and by tcp_seq.
    let slowed = run(Workload::TcpSeq, send_delay(), false);
    assert_moved("tcp_seq lat_p50_us", base_p50, slowed["lat_p50_us"]);
    let base = run(Workload::TcpSeq, Inject::default(), true);
    let slowed = run(Workload::TcpSeq, send_delay(), true);
    assert_moved(
        "tcp_seq transport.send_us_p50",
        base["transport.send_us_p50"],
        slowed["transport.send_us_p50"],
    );
    assert_eq!(slowed["store.puts_per_op"], 0.0);
}
