//! E16 — multiplexed receive path + client invocation pipelining.
//!
//! Two kernel-side changes meet here (DESIGN.md §30): inbound TCP is
//! drained by a small fixed pool of reader threads multiplexing every
//! connection (thread count flat as peers scale), and the receive loop
//! hands whole frame batches to the virtual-processor pool in one
//! enqueue. On top of that, `PipelinedClient` keeps a window of
//! invocations in flight per connection instead of one.
//!
//! The measurement: one server kernel over real loopback TCP, N client
//! kernels (N = one connection each), every client invoking its own
//! trivial object on the server.
//!
//! * **baseline** — each connection runs one-RTT-per-call (`call_sync`):
//!   request, block for the reply, repeat.
//! * **pipelined** — each connection keeps a window of
//!   [`WINDOW`] calls outstanding, harvesting oldest-first while it
//!   issues.
//!
//! Acceptance: pipelined throughput ≥3x the baseline at 64 connections,
//! and the server's reader-thread count stays at the configured pool
//! size at every scale.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use eden_capability::{Capability, NodeId, Rights};
use eden_kernel::{
    Node, NodeConfig, OpCtx, OpError, OpResult, TypeManager, TypeRegistry, TypeSpec,
};
use eden_obs::TraceSampling;
use eden_store::MemStore;
use eden_transport::{TcpMesh, TcpTuning};
use eden_wire::{Status, Value};

use crate::artifact_path;
use crate::table::Table;

/// Connection counts measured (one client kernel per connection).
const SCALES: [usize; 3] = [4, 16, 64];
/// In-flight window per connection on the pipelined runs.
const WINDOW: usize = 32;
/// The server's reader-pool size — the number that must stay flat.
const READER_POOL: usize = 4;
/// One-RTT-per-call invocations per connection.
const BASELINE_CALLS: usize = 200;
/// Pipelined invocations per connection.
const PIPELINED_CALLS: usize = 1000;
/// Per-call reply budget. Generous on purpose: at 64 connections the
/// harness runs 65 in-process kernels, and on a small machine a reply
/// can be scheduler-starved for seconds without anything being wrong.
/// Loopback TCP never loses the frame, so the run disables the
/// retransmission machinery (pure added load here) and lets every call
/// complete; the all-Ok asserts below then catch any frame actually
/// lost in the receive path.
const CALL_BUDGET: Duration = Duration::from_secs(120);

/// The cheapest possible serving object: the run measures the receive
/// path and dispatch machinery, not operation work.
struct Echo;

impl TypeManager for Echo {
    fn spec(&self) -> TypeSpec {
        TypeSpec::new("e16.echo")
            .class("all", 64)
            .op("echo", "all", Rights::EXECUTE)
    }

    fn dispatch(&self, _ctx: &OpCtx<'_>, op: &str, args: &[Value]) -> OpResult {
        match op {
            "echo" => Ok(args.to_vec()),
            other => Err(OpError::no_such_op(other)),
        }
    }
}

fn server_config() -> NodeConfig {
    NodeConfig {
        virtual_processors: 4,
        vproc_workers: 8,
        // Headroom over the largest burst (64 conns x 32 window): the
        // run measures throughput, not the Overloaded shed path.
        vproc_queue_cap: 8192,
        trace_sampling: TraceSampling::Ratio(0),
        enable_retransmission: false,
        default_invoke_timeout: CALL_BUDGET,
        ..NodeConfig::default()
    }
}

fn client_config() -> NodeConfig {
    NodeConfig {
        virtual_processors: 1,
        vproc_workers: 1,
        trace_sampling: TraceSampling::Ratio(0),
        enable_retransmission: false,
        default_invoke_timeout: CALL_BUDGET,
        ..NodeConfig::default()
    }
}

struct TcpCluster {
    server: Node,
    server_mesh: Arc<TcpMesh>,
    clients: Vec<Node>,
}

impl TcpCluster {
    fn build(n_clients: usize) -> TcpCluster {
        let tuning = TcpTuning {
            reader_threads: READER_POOL,
            queue_cap: 1 << 15,
            ..TcpTuning::default()
        };
        let meshes: Vec<Arc<TcpMesh>> = TcpMesh::bind_local_cluster_with(1 + n_clients, tuning)
            .expect("bind loopback cluster")
            .into_iter()
            .map(Arc::new)
            .collect();
        let mut meshes = meshes.into_iter();
        let server_mesh = meshes.next().expect("server endpoint");
        let registry = Arc::new(TypeRegistry::new());
        registry.register(Arc::new(Echo)).expect("register echo");
        let server = Node::new(
            server_config(),
            server_mesh.clone(),
            Arc::new(MemStore::new()),
            registry,
        );
        let clients = meshes
            .map(|m| {
                Node::new(
                    client_config(),
                    m,
                    Arc::new(MemStore::new()),
                    Arc::new(TypeRegistry::new()),
                )
            })
            .collect();
        TcpCluster {
            server,
            server_mesh,
            clients,
        }
    }

    fn shutdown(self) {
        for c in &self.clients {
            c.shutdown();
        }
        self.server.shutdown();
    }
}

/// One-RTT-per-call driver: issue, block, repeat. Returns Ok count.
fn drive_baseline(client: &Node, cap: Capability) -> u64 {
    let pc = client.pipelined_client_to(cap, NodeId(0));
    (0..BASELINE_CALLS)
        .filter(|_| pc.call_sync("echo", &[Value::U64(1)]).0 == Status::Ok)
        .count() as u64
}

/// Windowed driver: keep [`WINDOW`] calls outstanding, harvest the
/// oldest as each new one is issued. Returns Ok count.
fn drive_pipelined(client: &Node, cap: Capability) -> u64 {
    let pc = client.pipelined_client_to(cap, NodeId(0));
    let mut window = VecDeque::with_capacity(WINDOW);
    let mut ok = 0u64;
    for _ in 0..PIPELINED_CALLS {
        if window.len() >= WINDOW {
            let oldest: eden_kernel::PendingCall<'_> = window.pop_front().expect("non-empty");
            if oldest.wait(CALL_BUDGET).0 == Status::Ok {
                ok += 1;
            }
        }
        if let Ok(pending) = pc.call("echo", &[Value::U64(1)]) {
            window.push_back(pending);
        }
    }
    while let Some(pending) = window.pop_front() {
        if pending.wait(CALL_BUDGET).0 == Status::Ok {
            ok += 1;
        }
    }
    ok
}

/// Runs one mode across every connection in parallel; returns
/// (invocations/sec, completed-Ok count).
fn measure(cluster: &TcpCluster, caps: &[Capability], pipelined: bool) -> (f64, u64) {
    let start = Instant::now();
    let ok: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = cluster
            .clients
            .iter()
            .zip(caps)
            .map(|(client, &cap)| {
                s.spawn(move || {
                    if pipelined {
                        drive_pipelined(client, cap)
                    } else {
                        drive_baseline(client, cap)
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("driver")).sum()
    });
    (ok as f64 / start.elapsed().as_secs_f64(), ok)
}

/// One row of results at a fixed connection count.
pub struct ScalePoint {
    /// Connections (= client kernels).
    pub connections: usize,
    /// One-RTT-per-call invocations/sec across all connections.
    pub baseline_ips: f64,
    /// Windowed-pipelining invocations/sec across all connections.
    pub pipelined_ips: f64,
    /// Server reader threads observed after the runs.
    pub reader_threads: usize,
}

/// Runs both modes at one connection count.
fn run_scale(connections: usize) -> ScalePoint {
    let cluster = TcpCluster::build(connections);
    let caps: Vec<Capability> = (0..connections)
        .map(|_| {
            cluster
                .server
                .create_object("e16.echo", &[])
                .expect("create echo object")
        })
        .collect();
    let (baseline_ips, base_ok) = measure(&cluster, &caps, false);
    let (pipelined_ips, pipe_ok) = measure(&cluster, &caps, true);
    // Loopback TCP plus the generous budget: every call must complete.
    // A shortfall here means a frame was lost in the receive path.
    assert_eq!(
        base_ok as usize,
        connections * BASELINE_CALLS,
        "baseline calls all Ok"
    );
    assert_eq!(
        pipe_ok as usize,
        connections * PIPELINED_CALLS,
        "pipelined calls all Ok"
    );
    let reader_threads = cluster.server_mesh.reader_thread_count();
    cluster.shutdown();
    ScalePoint {
        connections,
        baseline_ips,
        pipelined_ips,
        reader_threads,
    }
}

/// Renders the machine-readable artifact alongside the printed table.
fn write_artifact(points: &[ScalePoint]) {
    let mut scales = String::new();
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            scales.push_str(",\n");
        }
        scales.push_str(&format!(
            "    {{\"connections\": {}, \"baseline_inv_per_sec\": {:.0}, \
             \"pipelined_inv_per_sec\": {:.0}, \"speedup\": {:.2}, \
             \"server_reader_threads\": {}}}",
            p.connections,
            p.baseline_ips,
            p.pipelined_ips,
            p.pipelined_ips / p.baseline_ips,
            p.reader_threads,
        ));
    }
    let last = points.last().expect("at least one scale");
    let json = format!(
        "{{\n  \"experiment\": \"e16\",\n  \"window\": {WINDOW},\n  \
         \"reader_pool\": {READER_POOL},\n  \"baseline_calls_per_conn\": {BASELINE_CALLS},\n  \
         \"pipelined_calls_per_conn\": {PIPELINED_CALLS},\n  \"scales\": [\n{scales}\n  ],\n  \
         \"speedup_at_{}\": {:.2}\n}}\n",
        last.connections,
        last.pipelined_ips / last.baseline_ips,
    );
    let path = artifact_path("BENCH_E16.json");
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Runs E16 and returns the table.
pub fn run() -> Table {
    // Warm-up: listener setup, lazy statics, the allocator.
    let _ = run_scale(2);

    let points: Vec<ScalePoint> = SCALES.iter().map(|&n| run_scale(n)).collect();

    let mut t = Table::new(
        format!(
            "E16 — pipelined invocations over loopback TCP: window {WINDOW} \
             vs one-RTT-per-call, reader pool of {READER_POOL}"
        ),
        &[
            "connections",
            "baseline inv/s",
            "pipelined inv/s",
            "speedup",
            "server reader threads",
        ],
    );
    for p in &points {
        t.row(vec![
            format!("{}", p.connections),
            format!("{:.0}", p.baseline_ips),
            format!("{:.0}", p.pipelined_ips),
            format!("{:.2}x", p.pipelined_ips / p.baseline_ips),
            format!("{}", p.reader_threads),
        ]);
    }
    let last = points.last().expect("non-empty");
    t.note(format!(
        "acceptance: >=3x at {} connections (measured {:.2}x); reader \
         threads flat at the pool size across every scale",
        last.connections,
        last.pipelined_ips / last.baseline_ips
    ));
    t.note(
        "expected shape: the baseline pays a full RTT per invocation; the \
         window overlaps them, so throughput tracks the server's dispatch \
         capacity and grows with connection count until the pool saturates",
    );
    write_artifact(&points);
    t
}
