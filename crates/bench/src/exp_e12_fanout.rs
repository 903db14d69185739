//! E12 — fan-out under a bounded virtual-processor pool.
//!
//! §3 gives each node machine a small, fixed processor complement; the
//! kernel mirrors that with a bounded [`VirtualProcessorPool`](eden_kernel::vproc::VirtualProcessorPool) instead
//! of spawning an OS thread per invocation (the shape the kernel had
//! before the pool). This experiment drives one node with 64 concurrent
//! clients spread over 8 objects and compares:
//!
//! * the **bounded pool** — the full kernel invocation path, pool sized
//!   to a handful of workers;
//! * a **worker-per-client pool** — same kernel path, 64 workers, for
//!   the marginal cost of thread count alone;
//! * **thread-per-invocation** — the pre-pool dispatch substrate,
//!   emulated outside the kernel: every invocation spawns a fresh OS
//!   thread that runs the operation and completes the reply. This is
//!   deliberately generous to the baseline (no coordinator, no
//!   capability checks, no tracing — just the raw substrate).
//!
//! Two things are on trial:
//!
//! * **boundedness** — the pooled run must keep `vproc.live` at exactly
//!   the configured worker count, with no spare injection, no matter
//!   how many clients pile on;
//! * **throughput** — despite carrying the whole kernel path, the
//!   bounded pool must beat thread-per-invocation: reusing a parked
//!   worker is far cheaper than creating and destroying a thread.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use eden_kernel::{NodeConfig, VprocStats};
use eden_wire::Value;

use crate::table::Table;
use crate::types::{bench_cluster_with, SpinType};

/// Concurrent external clients.
pub const CLIENTS: usize = 64;
/// Objects the clients fan out over (client *i* targets object *i* mod 8).
pub const OBJECTS: usize = 8;
/// Sequential invocations per client.
const CALLS_PER_CLIENT: usize = 250;
/// Arithmetic iterations per call — tens of microseconds of real work,
/// so the batch is CPU-bound and every configuration executes identical
/// total work.
const SPIN_ITERS: u64 = 50_000;

/// The workload body, identical to `SpinType`'s `spin` op.
fn spin(iters: u64) -> u64 {
    let mut acc = std::hint::black_box(0x9e3779b97f4a7c15u64);
    for i in 0..iters {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    std::hint::black_box(acc)
}

/// One measured run: invocations/second plus the pool's own view of
/// its thread population, sampled while all 64 clients were in flight.
pub struct FanoutRun {
    /// Sustained invocations per second over the whole batch.
    pub throughput: f64,
    /// Wall-clock seconds for the batch.
    pub secs: f64,
    /// Highest `live` worker count observed mid-run.
    pub peak_live: usize,
    /// Pool stats at the end of the run.
    pub stats: VprocStats,
}

/// Drives 64 clients × 8 objects against a single node whose pool has
/// `workers` virtual processors.
pub fn fanout_run(workers: usize) -> FanoutRun {
    let cluster = bench_cluster_with(
        1,
        NodeConfig {
            virtual_processors: workers,
            ..Default::default()
        },
    );
    let caps: Vec<_> = (0..OBJECTS)
        .map(|_| {
            cluster
                .node(0)
                .create_object(SpinType::NAME, &[])
                .expect("create spin object")
        })
        .collect();

    let barrier = Arc::new(Barrier::new(CLIENTS + 1));
    let finished = Arc::new(AtomicUsize::new(0));
    let mut peak_live = 0usize;
    let secs = std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let cap = caps[client % OBJECTS];
            let node = cluster.node(0);
            let barrier = Arc::clone(&barrier);
            let finished = Arc::clone(&finished);
            s.spawn(move || {
                let arg = [Value::U64(SPIN_ITERS)];
                barrier.wait();
                for _ in 0..CALLS_PER_CLIENT {
                    node.invoke(cap, "spin", &arg).expect("spin");
                }
                finished.fetch_add(1, Ordering::Relaxed);
            });
        }
        barrier.wait();
        let start = Instant::now();
        // Sample the pool's thread population while the fan-out is hot;
        // the batch ends when the last client finishes its quota.
        while finished.load(Ordering::Relaxed) < CLIENTS {
            peak_live = peak_live.max(cluster.node(0).vproc_stats().live);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        start.elapsed().as_secs_f64()
    });

    let stats = cluster.node(0).vproc_stats();
    peak_live = peak_live.max(stats.live);
    cluster.shutdown();
    FanoutRun {
        throughput: (CLIENTS * CALLS_PER_CLIENT) as f64 / secs,
        secs,
        peak_live,
        stats,
    }
}

/// The pre-pool baseline: the same 64-client fan-out, but every
/// invocation spawns a fresh OS thread (as `run_invocation` once did)
/// and the client joins it for the reply. Returns (invokes/s, seconds,
/// peak in-flight invocation threads).
pub fn thread_per_invocation_run() -> (f64, f64, usize) {
    let barrier = Barrier::new(CLIENTS + 1);
    let peak_threads = AtomicUsize::new(0);
    let in_flight = AtomicUsize::new(0);
    let finished = AtomicUsize::new(0);
    let secs = std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                barrier.wait();
                for _ in 0..CALLS_PER_CLIENT {
                    let n = in_flight.fetch_add(1, Ordering::Relaxed) + 1;
                    peak_threads.fetch_max(n, Ordering::Relaxed);
                    std::thread::spawn(|| spin(SPIN_ITERS))
                        .join()
                        .expect("invocation thread");
                    in_flight.fetch_sub(1, Ordering::Relaxed);
                }
                finished.fetch_add(1, Ordering::Relaxed);
            });
        }
        barrier.wait();
        let start = Instant::now();
        while finished.load(Ordering::Relaxed) < CLIENTS {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        start.elapsed().as_secs_f64()
    });
    (
        (CLIENTS * CALLS_PER_CLIENT) as f64 / secs,
        secs,
        peak_threads.load(Ordering::Relaxed),
    )
}

/// Best of three runs — the batch is short (~0.1 s), so scheduler noise
/// dominates single samples.
fn best_of_3(workers: usize) -> FanoutRun {
    (0..3)
        .map(|_| fanout_run(workers))
        .max_by(|a, b| a.throughput.total_cmp(&b.throughput))
        .expect("three runs")
}

/// Runs F3 and returns the table.
pub fn run() -> Table {
    // Throwaway run: the first batch in a process pays one-time costs
    // (lazy statics, allocator warm-up) that would bias whichever
    // configuration happened to go first.
    let _ = fanout_run(4);
    let mut t = Table::new(
        format!(
            "E12 — fan-out: {CLIENTS} clients x {OBJECTS} objects, \
             {CALLS_PER_CLIENT} spin({SPIN_ITERS}) calls each, one node"
        ),
        &[
            "pool",
            "invokes/s",
            "batch (s)",
            "peak live workers",
            "spares",
            "rejected",
        ],
    );
    let pooled = best_of_3(4);
    let per_client = best_of_3(CLIENTS);
    for (label, run) in [
        ("4 workers (bounded pool, full kernel path)", &pooled),
        ("64 workers (worker-per-client pool)", &per_client),
    ] {
        t.row(vec![
            label.into(),
            format!("{:.0}", run.throughput),
            format!("{:.2}", run.secs),
            run.peak_live.to_string(),
            run.stats.spares_spawned.to_string(),
            run.stats.rejected.to_string(),
        ]);
    }
    let (tpi_rate, tpi_secs, tpi_peak) = (0..3)
        .map(|_| thread_per_invocation_run())
        .max_by(|a, b| a.0.total_cmp(&b.0))
        .expect("three runs");
    t.row(vec![
        "thread-per-invocation (raw substrate)".into(),
        format!("{tpi_rate:.0}"),
        format!("{tpi_secs:.2}"),
        tpi_peak.to_string(),
        "-".into(),
        "-".into(),
    ]);
    t.note(format!(
        "bounded pool kept {} live workers for {} concurrent clients ({}x fewer threads), {:.2}x thread-per-invocation throughput",
        pooled.peak_live,
        CLIENTS,
        CLIENTS / pooled.peak_live.max(1),
        pooled.throughput / tpi_rate,
    ));
    t.note("expected shape: the bounded pool beats thread-per-invocation (worker reuse vs thread create/destroy per call) even though the baseline skips all kernel bookkeeping; peak live workers == configured workers, zero spares (spin never blocks)");
    t
}
