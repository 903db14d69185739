//! Client invocation pipelining (`PipelinedClient`): many calls in
//! flight on one connection, replies harvested out of order by
//! invocation id, with the at-most-once contract intact even when a
//! lossy network forces pipelined retransmissions.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eden_capability::{NodeId, Rights};
use eden_kernel::{Cluster, NodeConfig, OpCtx, OpError, OpResult, TypeManager, TypeSpec};
use eden_transport::MeshOptions;
use eden_wire::{Status, Value};

/// Counts *executions* (not replies) and can hold per-call, so tests
/// can overlap invocations and detect duplicate dispatch.
struct PipeCounted {
    executions: Arc<AtomicU64>,
}

impl TypeManager for PipeCounted {
    fn spec(&self) -> TypeSpec {
        TypeSpec::new("pipe.counted")
            .class("all", 8)
            .op("bump", "all", Rights::EXECUTE)
            .op("sleep", "all", Rights::EXECUTE)
    }

    fn dispatch(&self, _ctx: &OpCtx<'_>, op: &str, args: &[Value]) -> OpResult {
        match op {
            "bump" => {
                let n = self.executions.fetch_add(1, Ordering::SeqCst) + 1;
                Ok(vec![Value::U64(n)])
            }
            "sleep" => {
                let Some(Value::U64(ms)) = args.first() else {
                    return Err(OpError::type_error("sleep(ms: u64)"));
                };
                std::thread::sleep(Duration::from_millis(*ms));
                Ok(vec![Value::U64(*ms)])
            }
            other => Err(OpError::no_such_op(other)),
        }
    }
}

fn cluster(mesh: MeshOptions, config: NodeConfig, executions: Arc<AtomicU64>) -> Cluster {
    Cluster::builder()
        .nodes(2)
        .mesh(mesh)
        .node_config(config)
        .register(move || {
            Box::new(PipeCounted {
                executions: executions.clone(),
            })
        })
        .build()
}

#[test]
fn replies_complete_out_of_order() {
    let executions = Arc::new(AtomicU64::new(0));
    let cluster = cluster(
        MeshOptions::default(),
        NodeConfig::default(),
        executions.clone(),
    );
    let cap = cluster
        .node(0)
        .create_object("pipe.counted", &[])
        .expect("create");
    let client = cluster.node(1).pipelined_client(cap);

    // A slow call goes out first, a fast one second; both are on the
    // wire before either reply. The fast call must complete while the
    // slow one is still executing — replies rendezvous by inv_id, not
    // by issue order.
    let slow = client.call("sleep", &[Value::U64(400)]).expect("send slow");
    let fast = client.call("sleep", &[Value::U64(10)]).expect("send fast");
    let start = Instant::now();
    let (status, results) = fast.wait(Duration::from_secs(10));
    let fast_latency = start.elapsed();
    assert_eq!(status, Status::Ok);
    assert_eq!(results, vec![Value::U64(10)]);
    assert!(
        fast_latency < Duration::from_millis(300),
        "fast call waited on the slow one: {fast_latency:?}"
    );
    let (status, results) = slow.wait(Duration::from_secs(10));
    assert_eq!(status, Status::Ok);
    assert_eq!(results, vec![Value::U64(400)]);

    assert_eq!(executions.load(Ordering::SeqCst), 0, "sleep must not bump");
    cluster.shutdown();
}

#[test]
fn pipelined_retransmissions_execute_each_call_once() {
    let executions = Arc::new(AtomicU64::new(0));
    // A quarter of all frames vanish, and the retransmit interval is
    // tiny, so the serving kernel sees a pipelined burst *plus* plenty
    // of duplicates of it — the at-most-once bookkeeping must keep
    // exactly one execution per inv_id.
    let cluster = cluster(
        MeshOptions {
            loss_probability: 0.25,
            seed: 11,
            ..Default::default()
        },
        NodeConfig {
            retransmit_interval: Duration::from_millis(20),
            default_invoke_timeout: Duration::from_secs(30),
            remote_try_timeout: Duration::from_secs(10),
            ..Default::default()
        },
        executions.clone(),
    );
    let cap = cluster
        .node(0)
        .create_object("pipe.counted", &[])
        .expect("create");
    let client = cluster.node(1).pipelined_client(cap);

    const CALLS: u64 = 32;
    let pending: Vec<_> = (0..CALLS)
        .map(|i| {
            client
                .call("bump", &[])
                .unwrap_or_else(|e| panic!("send {i} failed: {e:?}"))
        })
        .collect();

    // Harvest in *reverse* issue order: every completion is
    // out-of-order relative to the wire, and late waits replay any
    // lost replies from the server's cache.
    let mut ordinals: Vec<u64> = pending
        .into_iter()
        .rev()
        .map(|p| {
            let (status, results) = p.wait(Duration::from_secs(30));
            assert_eq!(status, Status::Ok);
            match results[0] {
                Value::U64(n) => n,
                ref other => panic!("unexpected result {other:?}"),
            }
        })
        .collect();
    ordinals.sort_unstable();
    assert_eq!(
        ordinals,
        (1..=CALLS).collect::<Vec<u64>>(),
        "each pipelined call executed exactly once, despite duplicates"
    );
    assert_eq!(executions.load(Ordering::SeqCst), CALLS);
    cluster.shutdown();
}

#[test]
fn dropped_pending_call_releases_its_waiter() {
    let executions = Arc::new(AtomicU64::new(0));
    let cluster = cluster(MeshOptions::default(), NodeConfig::default(), executions);
    let cap = cluster
        .node(0)
        .create_object("pipe.counted", &[])
        .expect("create");
    let client = cluster.node(1).pipelined_client(cap);

    // Issue and abandon: the reply (if any) is discarded, and the next
    // call still works — no leaked waiter wedges the pending table.
    drop(client.call("bump", &[]).expect("send"));
    let (status, _) = client.call_sync("bump", &[]);
    assert_eq!(status, Status::Ok);
    cluster.shutdown();
}

#[test]
fn a_client_aimed_at_the_wrong_node_still_reaches_the_object() {
    let executions = Arc::new(AtomicU64::new(0));
    let counted = executions.clone();
    let cluster = Cluster::builder()
        .nodes(3)
        .register(move || {
            Box::new(PipeCounted {
                executions: counted.clone(),
            })
        })
        .build();
    let cap = cluster
        .node(0)
        .create_object("pipe.counted", &[])
        .expect("create");

    // Node 2 never held the object and answers `NoSuchObject`; the call
    // then searches like a blocking invoke and re-aims the client.
    let client = cluster.node(1).pipelined_client_to(cap, NodeId(2));
    let pending = client.call("bump", &[]).expect("send");
    let (status, results) = pending.wait(Duration::from_secs(5));
    assert_eq!((status, results), (Status::Ok, vec![Value::U64(1)]));
    assert_eq!(client.dst(), NodeId(0), "re-aimed at the real holder");

    let (status, results) = client.call_sync("bump", &[]);
    assert_eq!((status, results), (Status::Ok, vec![Value::U64(2)]));
    assert_eq!(executions.load(Ordering::SeqCst), 2, "each call ran once");
    cluster.shutdown();
}
