//! Extended lifecycle tests: pull-activation at a non-checksite node,
//! introspection, ablation switches, and moves under continuous load.
#![allow(clippy::disallowed_methods, reason = "tests start their own threads")]

use std::sync::Arc;
use std::time::{Duration, Instant};

use eden_capability::{NodeId, Rights};
use eden_kernel::{
    Cluster, EdenError, NodeConfig, ObjStatus, OpCtx, OpError, OpResult, TypeManager, TypeSpec,
};
use eden_transport::MeshOptions;
use eden_wire::{Status, Value};

struct Counter;

impl TypeManager for Counter {
    fn spec(&self) -> TypeSpec {
        TypeSpec::new("counter")
            .class("writes", 1)
            .class("reads", 4)
            .op("add", "writes", Rights::WRITE)
            .op("get", "reads", Rights::READ)
            .op("checkpoint", "writes", Rights::CHECKPOINT)
            .op("crash", "writes", Rights::OWNER)
            .op("migrate", "writes", Rights::MOVE)
    }

    fn dispatch(&self, ctx: &OpCtx<'_>, op: &str, args: &[Value]) -> OpResult {
        match op {
            "add" => {
                let d = OpCtx::i64_arg(args, 0)?;
                let v = ctx.mutate_repr(|r| {
                    let v = r.get_i64("n").unwrap_or(0) + d;
                    r.put_i64("n", v);
                    v
                })?;
                Ok(vec![Value::I64(v)])
            }
            "get" => Ok(vec![Value::I64(
                ctx.read_repr(|r| r.get_i64("n").unwrap_or(0)),
            )]),
            "checkpoint" => Ok(vec![Value::U64(ctx.checkpoint()?)]),
            "crash" => {
                ctx.crash();
                Ok(vec![])
            }
            "migrate" => {
                let dst = OpCtx::u64_arg(args, 0)? as u16;
                ctx.move_to(NodeId(dst))?;
                Ok(vec![])
            }
            other => Err(OpError::no_such_op(other)),
        }
    }
}

fn cluster(n: usize) -> Cluster {
    Cluster::builder()
        .nodes(n)
        .register(|| Box::new(Counter))
        .build()
}

#[test]
fn activate_here_pulls_the_checkpoint_across_the_network() {
    let c = cluster(3);
    let cap = c.node(0).create_object("counter", &[]).unwrap();
    c.node(0).invoke(cap, "add", &[Value::I64(5)]).unwrap();
    c.node(0).invoke(cap, "checkpoint", &[]).unwrap();
    c.node(0).invoke(cap, "crash", &[]).unwrap();
    // Wait until the teardown settles (object passive at node 0).
    let deadline = Instant::now() + Duration::from_secs(2);
    while c.node(0).is_local(cap.name()) {
        assert!(Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(5));
    }

    // Node 2 — which holds no checkpoint — pulls the image and becomes
    // the executing node.
    c.node(2).activate_here(cap).unwrap();
    assert!(c.node(2).is_local(cap.name()));
    let out = c.node(2).invoke(cap, "get", &[]).unwrap();
    assert_eq!(out, vec![Value::I64(5)]);
    // Local execution, not a remote call back to node 0.
    assert_eq!(c.node(2).metrics().reincarnations, 1);
}

#[test]
fn activate_here_refuses_when_the_object_is_active_elsewhere() {
    let c = cluster(2);
    let cap = c.node(0).create_object("counter", &[]).unwrap();
    c.node(0).invoke(cap, "add", &[Value::I64(1)]).unwrap();
    let err = c.node(1).activate_here(cap).unwrap_err();
    assert!(matches!(err, EdenError::BadRequest(_)), "got {err:?}");
}

#[test]
fn activate_here_does_not_resurrect_a_moved_object_from_its_old_checkpoint() {
    let c = cluster(2);
    let cap = c.node(0).create_object("counter", &[]).unwrap();
    c.node(0).invoke(cap, "add", &[Value::I64(1)]).unwrap();
    c.node(0).invoke(cap, "checkpoint", &[]).unwrap();
    c.node(0).move_object(cap, NodeId(1)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(2);
    while c.node(0).is_local(cap.name()) {
        assert!(Instant::now() < deadline, "the move never completed");
        std::thread::sleep(Duration::from_millis(5));
    }
    c.node(1).invoke(cap, "add", &[Value::I64(10)]).unwrap();

    // Node 0 still holds the checkpoint it took before the move, but its
    // forwarding address says the object is active elsewhere.
    let err = c.node(0).activate_here(cap).unwrap_err();
    assert!(
        matches!(&err, EdenError::BadRequest(m) if m.contains("active elsewhere")),
        "got {err:?}"
    );
    assert!(!c.node(0).is_local(cap.name()));
    assert_eq!(
        c.node(0).invoke(cap, "get", &[]).unwrap(),
        vec![Value::I64(11)]
    );
    assert_eq!(
        c.node(1).invoke(cap, "get", &[]).unwrap(),
        vec![Value::I64(11)]
    );
}

#[test]
fn activate_here_fails_without_any_checkpoint() {
    let c = cluster(2);
    let cap = c.node(0).create_object("counter", &[]).unwrap();
    c.node(0).invoke(cap, "crash", &[]).unwrap();
    let err = c.node(1).activate_here(cap).unwrap_err();
    assert_eq!(err, EdenError::Invoke(Status::NoSuchObject));
}

#[test]
fn object_info_reflects_the_slot_state() {
    let c = cluster(1);
    let cap = c.node(0).create_object("counter", &[]).unwrap();
    c.node(0).invoke(cap, "add", &[Value::I64(3)]).unwrap();
    c.node(0).invoke(cap, "checkpoint", &[]).unwrap();
    let info = c.node(0).object_info(cap.name()).unwrap();
    assert_eq!(info.type_name, "counter");
    assert_eq!(info.status, ObjStatus::Active);
    assert!(!info.frozen);
    assert!(!info.replica);
    assert_eq!(info.checkpoint_version, 1);
    assert_eq!(info.checksite, NodeId(0));
    assert!(info.data_size > 0);
    // The reply is delivered before the coordinator's completion
    // bookkeeping, so `running` may read 1 for an instant.
    let deadline = Instant::now() + Duration::from_secs(2);
    while c
        .node(0)
        .object_info(cap.name())
        .unwrap()
        .running_invocations
        != 0
    {
        assert!(Instant::now() < deadline, "invocation never retired");
        std::thread::sleep(Duration::from_millis(2));
    }
    // Unknown names yield None.
    assert!(c
        .node(0)
        .object_info(eden_capability::NameGenerator::with_epoch(NodeId(9), 9).next_name())
        .is_none());
}

#[test]
fn disabling_the_location_cache_forces_rediscovery() {
    let config = NodeConfig {
        enable_location_cache: false,
        ..Default::default()
    };
    let c = Cluster::builder()
        .nodes(3)
        .node_config(config)
        .register(|| Box::new(Counter))
        .build();
    let cap = c.node(1).create_object("counter", &[]).unwrap();
    // Two invocations from node 2: without the cache, both resolve from
    // scratch (birth hint), and no cache hits are recorded.
    c.node(2).invoke(cap, "get", &[]).unwrap();
    c.node(2).invoke(cap, "get", &[]).unwrap();
    assert_eq!(c.node(2).metrics().location_cache_hits, 0);
}

#[test]
fn disabling_retransmission_hurts_on_a_lossy_network() {
    let mesh = MeshOptions {
        loss_probability: 0.3,
        seed: 11,
        ..Default::default()
    };
    let run = |retransmit: bool| -> usize {
        let c = Cluster::builder()
            .nodes(2)
            .mesh(mesh)
            .node_config(NodeConfig {
                enable_retransmission: retransmit,
                remote_try_timeout: Duration::from_millis(400),
                default_invoke_timeout: Duration::from_secs(2),
                ..Default::default()
            })
            .register(|| Box::new(Counter))
            .build();
        let cap = c.node(0).create_object("counter", &[]).unwrap();
        let ok = (0..20)
            .filter(|_| c.node(1).invoke(cap, "get", &[]).is_ok())
            .count();
        c.shutdown();
        ok
    };
    let with = run(true);
    let without = run(false);
    assert!(
        with > without,
        "retransmission must help on a lossy link: with={with} without={without}"
    );
    assert!(
        with >= 14,
        "retransmission should recover most losses: {with}/20"
    );
}

#[test]
fn move_rejection_reason_is_surfaced() {
    // Register the type on node 0 only: node 1 must reject the move.
    let mesh = eden_transport::LoopbackMesh::new(2);
    let registry0 = Arc::new(eden_kernel::TypeRegistry::new());
    registry0.register(Arc::new(Counter)).unwrap();
    let node0 = eden_kernel::Node::new(
        NodeConfig::default(),
        mesh.endpoint(0),
        Arc::new(eden_store::MemStore::new()),
        registry0,
    );
    let node1 = eden_kernel::Node::new(
        NodeConfig::default(),
        mesh.endpoint(1),
        Arc::new(eden_store::MemStore::new()),
        Arc::new(eden_kernel::TypeRegistry::new()), // Empty: no 'counter'.
    );
    let cap = node0.create_object("counter", &[]).unwrap();
    node0.move_object(cap, NodeId(1)).unwrap();
    // The move must fail and the object must stay at node 0, working.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if let Some(reason) = node0.last_move_rejection() {
            assert!(reason.contains("not registered"), "reason: {reason}");
            break;
        }
        assert!(Instant::now() < deadline, "rejection never surfaced");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(node0.is_local(cap.name()));
    let out = node0.invoke(cap, "get", &[]).unwrap();
    assert_eq!(out, vec![Value::I64(0)]);
    node0.shutdown();
    node1.shutdown();
}

/// Invocations issued continuously while the object bounces between
/// nodes: none may be lost or double-applied (adds are counted).
#[test]
fn moves_under_continuous_load_lose_nothing() {
    let c = Arc::new(cluster(3));
    let cap = c.node(0).create_object("counter", &[]).unwrap();

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut workers = Vec::new();
    let successes = Arc::new(std::sync::atomic::AtomicU64::new(0));
    for w in 0..3usize {
        let c = c.clone();
        let stop = stop.clone();
        let successes = successes.clone();
        workers.push(std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                match c.node(w).invoke_with_timeout(
                    cap,
                    "add",
                    &[Value::I64(1)],
                    Duration::from_secs(5),
                ) {
                    Ok(_) => {
                        successes.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                    Err(EdenError::Invoke(Status::Timeout)) => {} // Allowed: retried load.
                    Err(e) => panic!("unexpected failure under move: {e:?}"),
                }
            }
        }));
    }

    // Bounce the object 0 → 1 → 2 → 0 while the adders hammer it.
    for dst in [1u64, 2, 0, 1] {
        std::thread::sleep(Duration::from_millis(50));
        // The migrate op itself competes with the adders.
        let _ = c.node(0).invoke_with_timeout(
            cap,
            "migrate",
            &[Value::U64(dst)],
            Duration::from_secs(5),
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        while !c.node(dst as usize).is_local(cap.name()) {
            assert!(Instant::now() < deadline, "move to {dst} never completed");
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    stop.store(true, std::sync::atomic::Ordering::Release);
    for w in workers {
        w.join().unwrap();
    }

    let expected = successes.load(std::sync::atomic::Ordering::Relaxed) as i64;
    let out = c
        .node(1)
        .invoke_with_timeout(cap, "get", &[], Duration::from_secs(5))
        .unwrap();
    assert_eq!(
        out,
        vec![Value::I64(expected)],
        "every acknowledged add must be applied exactly once"
    );
    assert!(expected > 0, "the workers must have made progress");
}

/// Behaviors are short-term state: a move tears them down at the source
/// and the reincarnation handler rebuilds them at the destination.
#[test]
fn behaviors_are_rebuilt_by_moves() {
    use eden_wire::Value as V;

    struct Ticker;
    impl TypeManager for Ticker {
        fn spec(&self) -> TypeSpec {
            TypeSpec::new("ticker")
                .class("all", 2)
                .op("ticks", "all", Rights::READ)
                .op("host", "all", Rights::READ)
                .op("migrate", "all", Rights::MOVE)
        }
        fn initialize(&self, ctx: &OpCtx<'_>, _args: &[V]) -> Result<(), OpError> {
            self.reincarnate(ctx)
        }
        fn reincarnate(&self, ctx: &OpCtx<'_>) -> Result<(), OpError> {
            // Record which node's behavior is ticking (short-term scratch
            // does not survive the move, so use the repr).
            let host = ctx.node_id().0 as i64;
            ctx.mutate_repr(|r| r.put_i64("behavior_host", host))?;
            ctx.spawn_behavior("tick", |bctx| {
                while bctx.wait(Duration::from_millis(5)) {
                    let _ = bctx.mutate_repr(|r| {
                        let t = r.get_i64("ticks").unwrap_or(0) + 1;
                        r.put_i64("ticks", t);
                    });
                }
            });
            Ok(())
        }
        fn dispatch(&self, ctx: &OpCtx<'_>, op: &str, args: &[V]) -> OpResult {
            match op {
                "ticks" => Ok(vec![V::I64(
                    ctx.read_repr(|r| r.get_i64("ticks").unwrap_or(0)),
                )]),
                "host" => Ok(vec![V::I64(
                    ctx.read_repr(|r| r.get_i64("behavior_host").unwrap_or(-1)),
                )]),
                "migrate" => {
                    let dst = OpCtx::u64_arg(args, 0)? as u16;
                    ctx.move_to(NodeId(dst))?;
                    Ok(vec![])
                }
                other => Err(OpError::no_such_op(other)),
            }
        }
    }

    let c = Cluster::builder()
        .nodes(2)
        .register(|| Box::new(Ticker))
        .build();
    let cap = c.node(0).create_object("ticker", &[]).unwrap();
    // The behavior ticks on node 0.
    std::thread::sleep(Duration::from_millis(50));
    let before = c.node(0).invoke(cap, "ticks", &[]).unwrap()[0]
        .as_i64()
        .unwrap();
    assert!(before > 0, "behavior must tick at the birth node");

    c.node(0).invoke(cap, "migrate", &[Value::U64(1)]).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while !c.node(1).is_local(cap.name()) {
        assert!(Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(5));
    }
    // The destination's reincarnation handler restarted the behavior.
    let host = c.node(1).invoke(cap, "host", &[]).unwrap()[0]
        .as_i64()
        .unwrap();
    assert_eq!(host, 1, "the behavior must now belong to node 1");
    let at_move = c.node(1).invoke(cap, "ticks", &[]).unwrap()[0]
        .as_i64()
        .unwrap();
    std::thread::sleep(Duration::from_millis(60));
    let later = c.node(1).invoke(cap, "ticks", &[]).unwrap()[0]
        .as_i64()
        .unwrap();
    assert!(later > at_move, "ticking must continue on the new node");
}
