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
//!
//! Each scale runs against a wall-clock budget ([`SCALE_BUDGET`]). A
//! scale that misses it stops issuing calls, is torn down, and enters
//! the artifact as a failure with its elapsed time — the run finishes
//! either way instead of hanging.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use eden_capability::{Capability, NodeId, Rights};
use eden_kernel::{
    Node, NodeConfig, OpCtx, OpError, OpResult, PendingCall, TypeManager, TypeRegistry, TypeSpec,
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
/// Wall-clock budget for one scale. It covers cluster boot and both
/// modes; teardown is not counted.
const SCALE_BUDGET: Duration = Duration::from_secs(120);
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

/// Waits for one call's reply, for at most what is left of the scale's
/// budget. True if it came back Ok.
fn harvest(pending: PendingCall<'_>, deadline: Instant) -> bool {
    let left = deadline.saturating_duration_since(Instant::now());
    pending.wait(left).0 == Status::Ok
}

/// One-RTT-per-call driver: issue, block, repeat — until `deadline`.
/// Returns Ok count.
fn drive_baseline(client: &Node, cap: Capability, deadline: Instant) -> u64 {
    let pc = client.pipelined_client_to(cap, NodeId(0));
    let mut ok = 0u64;
    for _ in 0..BASELINE_CALLS {
        if Instant::now() >= deadline {
            break;
        }
        if let Ok(pending) = pc.call("echo", &[Value::U64(1)]) {
            ok += u64::from(harvest(pending, deadline));
        }
    }
    ok
}

/// Windowed driver: keep [`WINDOW`] calls outstanding, harvest the
/// oldest as each new one is issued — until `deadline`. Returns Ok
/// count.
fn drive_pipelined(client: &Node, cap: Capability, deadline: Instant) -> u64 {
    let pc = client.pipelined_client_to(cap, NodeId(0));
    let mut window = VecDeque::with_capacity(WINDOW);
    let mut ok = 0u64;
    for _ in 0..PIPELINED_CALLS {
        if Instant::now() >= deadline {
            break;
        }
        if window.len() >= WINDOW {
            let oldest = window.pop_front().expect("non-empty");
            ok += u64::from(harvest(oldest, deadline));
        }
        if let Ok(pending) = pc.call("echo", &[Value::U64(1)]) {
            window.push_back(pending);
        }
    }
    for pending in window {
        ok += u64::from(harvest(pending, deadline));
    }
    ok
}

/// Runs one mode across every connection in parallel; returns
/// (invocations/sec, completed-Ok count).
fn measure(
    cluster: &TcpCluster,
    caps: &[Capability],
    pipelined: bool,
    deadline: Instant,
) -> (f64, u64) {
    let start = Instant::now();
    let ok: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = cluster
            .clients
            .iter()
            .zip(caps)
            .map(|(client, &cap)| {
                s.spawn(move || {
                    if pipelined {
                        drive_pipelined(client, cap, deadline)
                    } else {
                        drive_baseline(client, cap, deadline)
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

/// One connection count's outcome: a measured point, or the budget it
/// missed.
pub enum ScaleOutcome {
    /// Both modes finished within [`SCALE_BUDGET`].
    Done(ScalePoint),
    /// The scale was still running when its budget ran out.
    OverBudget {
        /// Connections (= client kernels).
        connections: usize,
        /// Wall-clock time from the start of the scale to giving up.
        elapsed: Duration,
        /// Calls that completed Ok before the budget ran out, per mode
        /// (baseline, pipelined).
        completed: (u64, u64),
    },
}

/// Runs both modes at one connection count within [`SCALE_BUDGET`].
fn run_scale(connections: usize) -> ScaleOutcome {
    let start = Instant::now();
    let deadline = start + SCALE_BUDGET;
    let cluster = TcpCluster::build(connections);
    let caps: Vec<Capability> = (0..connections)
        .map(|_| {
            cluster
                .server
                .create_object("e16.echo", &[])
                .expect("create echo object")
        })
        .collect();
    let (baseline_ips, base_ok) = measure(&cluster, &caps, false, deadline);
    let (pipelined_ips, pipe_ok) = measure(&cluster, &caps, true, deadline);
    let elapsed = start.elapsed();
    let reader_threads = cluster.server_mesh.reader_thread_count();
    cluster.shutdown();
    if elapsed >= SCALE_BUDGET {
        return ScaleOutcome::OverBudget {
            connections,
            elapsed,
            completed: (base_ok, pipe_ok),
        };
    }
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
    ScaleOutcome::Done(ScalePoint {
        connections,
        baseline_ips,
        pipelined_ips,
        reader_threads,
    })
}

/// Renders the machine-readable artifact alongside the printed table.
fn write_artifact(outcomes: &[ScaleOutcome]) {
    let scales: Vec<String> = outcomes
        .iter()
        .map(|o| match o {
            ScaleOutcome::Done(p) => format!(
                "    {{\"connections\": {}, \"status\": \"ok\", \
                 \"baseline_inv_per_sec\": {:.0}, \"pipelined_inv_per_sec\": {:.0}, \
                 \"speedup\": {:.2}, \"server_reader_threads\": {}}}",
                p.connections,
                p.baseline_ips,
                p.pipelined_ips,
                p.pipelined_ips / p.baseline_ips,
                p.reader_threads,
            ),
            ScaleOutcome::OverBudget {
                connections,
                elapsed,
                completed: (base_ok, pipe_ok),
            } => format!(
                "    {{\"connections\": {connections}, \"status\": \"over_budget\", \
                 \"elapsed_s\": {:.1}, \"baseline_ok\": {base_ok}, \"pipelined_ok\": {pipe_ok}}}",
                elapsed.as_secs_f64(),
            ),
        })
        .collect();
    let speedup = match outcomes.iter().rev().find_map(done) {
        Some(p) => format!(
            ",\n  \"speedup_at_{}\": {:.2}",
            p.connections,
            p.pipelined_ips / p.baseline_ips
        ),
        None => String::new(),
    };
    let json = format!(
        "{{\n  \"experiment\": \"e16\",\n  \"window\": {WINDOW},\n  \
         \"reader_pool\": {READER_POOL},\n  \"baseline_calls_per_conn\": {BASELINE_CALLS},\n  \
         \"pipelined_calls_per_conn\": {PIPELINED_CALLS},\n  \
         \"scale_budget_s\": {},\n  \"scales\": [\n{}\n  ]{speedup}\n}}\n",
        SCALE_BUDGET.as_secs(),
        scales.join(",\n"),
    );
    let path = artifact_path("BENCH_E16.json");
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

fn done(outcome: &ScaleOutcome) -> Option<&ScalePoint> {
    match outcome {
        ScaleOutcome::Done(p) => Some(p),
        ScaleOutcome::OverBudget { .. } => None,
    }
}

/// Runs E16 and returns the table.
pub fn run() -> Table {
    // Warm-up: listener setup, lazy statics, the allocator.
    let _ = run_scale(2);

    let outcomes: Vec<ScaleOutcome> = SCALES.iter().map(|&n| run_scale(n)).collect();

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
    for outcome in &outcomes {
        t.row(match outcome {
            ScaleOutcome::Done(p) => vec![
                format!("{}", p.connections),
                format!("{:.0}", p.baseline_ips),
                format!("{:.0}", p.pipelined_ips),
                format!("{:.2}x", p.pipelined_ips / p.baseline_ips),
                format!("{}", p.reader_threads),
            ],
            ScaleOutcome::OverBudget {
                connections,
                elapsed,
                completed: (base_ok, pipe_ok),
            } => vec![
                format!("{connections}"),
                format!(
                    "over budget ({:.0} s; {base_ok}/{} Ok)",
                    elapsed.as_secs_f64(),
                    connections * BASELINE_CALLS
                ),
                format!("{pipe_ok}/{} Ok", connections * PIPELINED_CALLS),
                "-".into(),
                "-".into(),
            ],
        });
    }
    match outcomes.last().and_then(done) {
        Some(last) => t.note(format!(
            "acceptance: >=3x at {} connections (measured {:.2}x); reader \
             threads flat at the pool size across every scale",
            last.connections,
            last.pipelined_ips / last.baseline_ips
        )),
        None => t.note(format!(
            "acceptance not met: the largest scale did not finish within its \
             {} s budget",
            SCALE_BUDGET.as_secs()
        )),
    }
    t.note(
        "expected shape: the baseline pays a full RTT per invocation; the \
         window overlaps them, so throughput tracks the server's dispatch \
         capacity and grows with connection count until the pool saturates",
    );
    write_artifact(&outcomes);
    t
}
