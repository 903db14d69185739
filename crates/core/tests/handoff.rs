//! Handoff scheduling: a ready invocation runs on the thread that
//! readied it when a virtual processor is free — a client thread runs
//! its own local invocation, and a receive thread the one invocation its
//! batch readied — while nested calls, gossip and shutdown keep working.

use std::sync::Arc;
use std::time::{Duration, Instant};

use eden_capability::Rights;
use eden_kernel::{Cluster, Node, NodeConfig, OpCtx, OpError, OpResult, TypeManager, TypeRegistry};
use eden_obs::KernelEvent;
use eden_store::MemStore;
use eden_transport::TcpMesh;
use eden_wire::{Status, Value};
use parking_lot::Mutex;

/// Each operation logs and returns the name and id of the thread it ran on.
struct Where {
    log: Arc<Mutex<Vec<String>>>,
}

fn thread_name() -> String {
    std::thread::current().name().unwrap_or("").to_string()
}

fn thread_id() -> String {
    format!("{:?}", std::thread::current().id())
}

impl TypeManager for Where {
    fn spec(&self) -> eden_kernel::TypeSpec {
        eden_kernel::TypeSpec::new("where")
            .class("all", 8)
            .op("whoami", "all", Rights::EXECUTE)
            .op("relay", "all", Rights::EXECUTE)
            .op("nap", "all", Rights::EXECUTE)
            .op("await_port", "all", Rights::EXECUTE)
    }

    fn dispatch(&self, ctx: &OpCtx<'_>, op: &str, args: &[Value]) -> OpResult {
        self.log.lock().push(format!("{op}@{}", thread_name()));
        let me = vec![Value::Str(thread_name()), Value::Str(thread_id())];
        match op {
            "whoami" => Ok(me),
            // Invokes `args[1]` on `args[0]` and appends its answer.
            "relay" => {
                let target = OpCtx::cap_arg(args, 0)?;
                let Some(Value::Str(inner)) = args.get(1) else {
                    return Err(OpError::type_error("an operation name"));
                };
                let out = ctx.invoke(target, inner, &[])?;
                Ok(me.into_iter().chain(out).collect())
            }
            // Holds the processor for `args[0]` milliseconds.
            "nap" => {
                std::thread::sleep(Duration::from_millis(OpCtx::u64_arg(args, 0)?));
                Ok(me)
            }
            // Parks on a message port nobody sends to.
            "await_port" => {
                ctx.port("never").recv_timeout(Duration::from_secs(30));
                Ok(me)
            }
            other => Err(OpError::no_such_op(other)),
        }
    }
}

fn cluster(nodes: usize) -> (Cluster, Arc<Mutex<Vec<String>>>) {
    let log = Arc::new(Mutex::new(Vec::new()));
    let l = log.clone();
    let cluster = Cluster::builder()
        .nodes(nodes)
        .register(move || Box::new(Where { log: l.clone() }))
        .build();
    (cluster, log)
}

/// Waits until every pool worker of `nodes` has parked for work: a
/// worker counts as running until then, so a pool just booted lends
/// nothing.
fn settle(nodes: &[Node]) {
    let deadline = Instant::now() + Duration::from_secs(5);
    for node in nodes {
        while node.vproc_stats().idle < node.vproc_stats().workers {
            assert!(Instant::now() < deadline, "the workers never parked");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

fn name_of(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a thread name, got {other:?}"),
    }
}

#[test]
fn a_local_invocation_runs_on_the_invoking_thread() {
    let (cluster, _) = cluster(1);
    let node = cluster.node(0);
    let cap = node.create_object("where", &[]).unwrap();
    settle(cluster.nodes());
    let out = node.invoke(cap, "whoami", &[]).unwrap();
    assert_eq!(out[1], Value::Str(thread_id()), "ran on {:?}", out[0]);

    // The operation holds a lent processor, so its thread counts as a
    // worker: its nested local call goes through the pool.
    let out = node
        .invoke(
            cap,
            "relay",
            &[Value::Cap(cap), Value::Str("whoami".into())],
        )
        .unwrap();
    assert_eq!(out[1], Value::Str(thread_id()));
    assert!(name_of(&out[2]).starts_with("eden-vproc-"), "{out:?}");

    // An asynchronous local call is queued for a pool worker, never run
    // on the calling thread.
    let (status, out) = node
        .invoke_async(cap, "whoami", &[])
        .wait(Duration::from_secs(5));
    assert_eq!(status, Status::Ok);
    assert!(name_of(&out[0]).starts_with("eden-vproc-"), "{out:?}");
    let stats = node.vproc_stats();
    assert_eq!(stats.lent, 0, "every lent processor came back");
    assert_eq!(stats.executed, 4, "lent runs count as executed: {stats:?}");
}

#[test]
fn async_invocations_take_no_pool_task_of_their_own() {
    for processors in [1, 8] {
        let cluster = Cluster::builder()
            .nodes(1)
            .node_config(NodeConfig {
                virtual_processors: processors,
                ..Default::default()
            })
            .register(|| {
                Box::new(Where {
                    log: Arc::default(),
                })
            })
            .build();
        let node = cluster.node(0);
        let cap = node.create_object("where", &[]).unwrap();
        settle(cluster.nodes());
        let before = node.vproc_stats();
        let start = Instant::now();
        let calls: Vec<_> = (0..16)
            .map(|_| node.invoke_async(cap, "nap", &[Value::U64(40)]))
            .collect();
        for call in calls {
            assert_eq!(call.wait(Duration::from_secs(10)).0, Status::Ok);
        }
        // The class admits 8 at once: 16 naps of 40 ms need at least
        // two rounds, and one per processor below that.
        let rounds = 16 / processors.min(8) as u32;
        assert!(start.elapsed() >= Duration::from_millis(40) * rounds);
        // A worker counts a task once it returns, after the reply.
        settle(cluster.nodes());
        let after = node.vproc_stats();
        assert_eq!(after.spares_spawned - before.spares_spawned, 0, "{after:?}");
        assert_eq!(after.executed - before.executed, 16, "{after:?}");
    }
}

#[test]
fn a_local_timeout_bounds_only_the_wait_for_a_processor() {
    let (cluster, _) = cluster(1);
    let node = cluster.node(0);
    let cap = node.create_object("where", &[]).unwrap();
    settle(cluster.nodes());
    // Run on the invoking thread, the operation outlives its timeout.
    let asked = Instant::now();
    let out = node
        .invoke_with_timeout(cap, "nap", &[Value::U64(200)], Duration::from_millis(50))
        .expect("an invocation running in place returns when it returns");
    assert_eq!(out[1], Value::Str(thread_id()));
    assert!(asked.elapsed() >= Duration::from_millis(200));
    // With both processors lent, a third call waits for one, and its
    // timeout ends that wait.
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| node.invoke(cap, "nap", &[Value::U64(400)]).unwrap());
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while node.vproc_stats().lent < 2 {
            assert!(Instant::now() < deadline, "the naps never started");
            std::thread::sleep(Duration::from_millis(1));
        }
        let err = node
            .invoke_with_timeout(cap, "whoami", &[], Duration::from_millis(50))
            .unwrap_err();
        assert!(err.is_timeout(), "{err:?}");
    });
}

/// Node 0 invokes `relay` on node 1, whose receive thread runs it and
/// calls node 2 from there: the reply it waits for must reach node 1
/// while that receive thread is busy.
fn nested_remote_call_from_a_receive_thread(nodes: &[Node]) {
    let relay = nodes[1].create_object("where", &[]).unwrap();
    let target = nodes[2].create_object("where", &[]).unwrap();
    settle(nodes);
    let out = nodes[0]
        .invoke_with_timeout(
            relay,
            "relay",
            &[Value::Cap(target), Value::Str("whoami".into())],
            Duration::from_secs(5),
        )
        .unwrap();
    assert!(name_of(&out[0]).starts_with("eden-recv-N1-"), "{out:?}");
    assert!(name_of(&out[2]).starts_with("eden-recv-N2-"), "{out:?}");
}

#[test]
fn a_receive_thread_completes_a_nested_remote_call_on_loopback() {
    let (cluster, _) = cluster(3);
    nested_remote_call_from_a_receive_thread(cluster.nodes());
}

#[test]
fn a_receive_thread_completes_a_nested_remote_call_over_tcp() {
    let log = Arc::new(Mutex::new(Vec::new()));
    let nodes: Vec<Node> = TcpMesh::bind_local_cluster(3)
        .expect("bind cluster")
        .into_iter()
        .map(|mesh| {
            let registry = Arc::new(TypeRegistry::new());
            registry
                .register(Arc::new(Where { log: log.clone() }))
                .unwrap();
            Node::new(
                NodeConfig::default(),
                Arc::new(mesh),
                Arc::new(MemStore::new()),
                registry,
            )
        })
        .collect();
    nested_remote_call_from_a_receive_thread(&nodes);
    for node in &nodes {
        node.shutdown();
    }
}

fn wait_running(node: &Node, cap: eden_capability::Capability) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while node.object_info(cap.name()).unwrap().running_invocations == 0 {
        assert!(Instant::now() < deadline, "the operation never started");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn a_long_operation_on_a_receive_thread_leaves_the_node_responsive() {
    let (cluster, log) = cluster(3);
    let (client, server) = (cluster.node(0), cluster.node(1));
    let slow = server.create_object("where", &[]).unwrap();
    let quick = server.create_object("where", &[]).unwrap();
    // The birth hint in each name routes both calls straight to the
    // server. An earlier call that ran on a receive thread could leave
    // it short of standing by when the nap arrives.
    settle(cluster.nodes());
    std::thread::scope(|s| {
        let nap = s.spawn(|| client.invoke(slow, "nap", &[Value::U64(500)]).unwrap());
        wait_running(server, slow);
        let asked = Instant::now();
        client
            .invoke_with_timeout(quick, "whoami", &[], Duration::from_secs(2))
            .expect("a second call is answered during the nap");
        assert!(asked.elapsed() < Duration::from_millis(400));
        assert_eq!(
            server.object_info(slow.name()).unwrap().running_invocations,
            1,
            "the nap was still running"
        );
        let out = nap.join().unwrap();
        assert!(name_of(&out[0]).starts_with("eden-recv-N1-"), "{out:?}");
    });
    let suspected: Vec<_> = cluster
        .nodes()
        .iter()
        .flat_map(|n| n.obs().recorder().events())
        .filter(|e| matches!(e.event, KernelEvent::MemberSuspect { node: 1 }))
        .collect();
    assert!(
        suspected.is_empty(),
        "{suspected:?}; ops ran: {:?}",
        *log.lock()
    );
}

#[test]
fn shutdown_returns_while_a_receive_thread_is_parked_on_a_port() {
    let (cluster, log) = cluster(2);
    let (client, server) = (cluster.node(0), cluster.node(1));
    let cap = server.create_object("where", &[]).unwrap();
    settle(cluster.nodes());
    std::thread::scope(|s| {
        s.spawn(|| client.invoke_with_timeout(cap, "await_port", &[], Duration::from_secs(3)));
        wait_running(server, cap);
        let ran = log.lock().clone();
        assert!(
            ran.last().unwrap().starts_with("await_port@eden-recv-N1-"),
            "{ran:?}"
        );
        let asked = Instant::now();
        server.shutdown();
        assert!(
            asked.elapsed() < Duration::from_secs(2),
            "shutdown took {:?}",
            asked.elapsed()
        );
    });
}
