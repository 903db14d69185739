//! Edge-path tests: remote-checksite destruction, forwarding-budget
//! exhaustion, timeouts racing dispatch, frozen-object corner cases and
//! async-handle polling.

use std::time::{Duration, Instant};

use eden_capability::{NodeId, Rights};
use eden_kernel::{
    Cluster, EdenError, NodeConfig, OpCtx, OpError, OpResult, ReliabilityLevel, TypeManager,
    TypeSpec,
};
use eden_wire::{Status, Value};

struct Omni;

impl TypeManager for Omni {
    fn spec(&self) -> TypeSpec {
        TypeSpec::new("omni")
            .class("slow", 1)
            .class("fast", 8)
            .op("set", "fast", Rights::WRITE)
            .op("get", "fast", Rights::READ)
            .op("sleep_ms", "slow", Rights::EXECUTE)
            .op("checkpoint", "fast", Rights::CHECKPOINT)
            .op("checksite", "fast", Rights::OWNER)
            .op("destroy", "fast", Rights::DESTROY)
            .op("freeze", "fast", Rights::FREEZE)
            .op("migrate", "fast", Rights::MOVE)
    }

    fn dispatch(&self, ctx: &OpCtx<'_>, op: &str, args: &[Value]) -> OpResult {
        match op {
            "set" => {
                let v = OpCtx::str_arg(args, 0)?.to_string();
                ctx.mutate_repr(|r| r.put_str("v", &v))?;
                Ok(vec![])
            }
            "get" => Ok(vec![ctx
                .read_repr(|r| r.get_str("v"))
                .map(Value::Str)
                .unwrap_or(Value::Unit)]),
            "sleep_ms" => {
                std::thread::sleep(Duration::from_millis(
                    args.first().and_then(Value::as_u64).unwrap_or(0),
                ));
                Ok(vec![])
            }
            "checkpoint" => Ok(vec![Value::U64(ctx.checkpoint()?)]),
            "checksite" => {
                let node = OpCtx::u64_arg(args, 0)? as u16;
                ctx.set_checksite(NodeId(node), ReliabilityLevel::Local)?;
                Ok(vec![])
            }
            "destroy" => {
                ctx.destroy();
                Ok(vec![])
            }
            "freeze" => Ok(vec![Value::U64(ctx.freeze()?)]),
            "migrate" => {
                ctx.move_to(NodeId(OpCtx::u64_arg(args, 0)? as u16))?;
                Ok(vec![])
            }
            other => Err(OpError::no_such_op(other)),
        }
    }
}

fn cluster(n: usize) -> Cluster {
    Cluster::builder()
        .nodes(n)
        .register(|| Box::new(Omni))
        .build()
}

#[test]
fn destroy_deletes_checkpoints_at_a_remote_checksite() {
    let c = cluster(3);
    let cap = c.node(0).create_object("omni", &[]).unwrap();
    c.node(0)
        .invoke(cap, "checksite", &[Value::U64(1)])
        .unwrap();
    c.node(0)
        .invoke(cap, "set", &[Value::Str("doomed".into())])
        .unwrap();
    c.node(0).invoke(cap, "checkpoint", &[]).unwrap();
    assert!(matches!(c.node(1).store().latest(cap.name()), Ok(Some(_))));

    c.node(0).invoke(cap, "destroy", &[]).unwrap();
    // The CheckpointDelete reaches node 1 asynchronously.
    let deadline = Instant::now() + Duration::from_secs(3);
    loop {
        if matches!(c.node(1).store().latest(cap.name()), Ok(None)) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "remote checkpoints never deleted"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // Neither node resurrects it.
    for node in [0, 2] {
        let err = c
            .node(node)
            .invoke_with_timeout(cap, "get", &[], Duration::from_secs(2))
            .unwrap_err();
        assert!(
            matches!(
                err,
                EdenError::Invoke(Status::Destroyed) | EdenError::Invoke(Status::NoSuchObject)
            ),
            "node {node}: {err:?}"
        );
    }
}

#[test]
fn forwarding_budget_bounds_the_chase() {
    // hop_limit 1: a two-hop forwarding chain cannot be followed by the
    // forwarders alone. The invoke still succeeds via the broadcast
    // fallback (correctness), but no more than one forward happens per
    // request (the budget).
    let config = NodeConfig {
        hop_limit: 1,
        enable_location_cache: false, // Keep hitting the chain.
        remote_try_timeout: Duration::from_millis(300),
        ..Default::default()
    };
    let c = Cluster::builder()
        .nodes(4)
        .node_config(config)
        .register(|| Box::new(Omni))
        .build();
    let cap = c.node(0).create_object("omni", &[]).unwrap();
    for dst in [1u64, 2] {
        c.node(0)
            .invoke(cap, "migrate", &[Value::U64(dst)])
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while !c.node(dst as usize).is_local(cap.name()) {
            assert!(Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    // Node 3 invokes: birth hint → node 0 forwards (budget 1 → 0) →
    // node 1 cannot forward further; the requester falls back to
    // broadcast and reaches node 2 directly.
    let out = c
        .node(3)
        .invoke_with_timeout(cap, "get", &[], Duration::from_secs(5))
        .unwrap();
    assert_eq!(out, vec![Value::Unit]);
}

#[test]
fn timeout_while_queued_leaves_the_object_consistent() {
    let c = cluster(1);
    let cap = c.node(0).create_object("omni", &[]).unwrap();
    // Saturate the slow class (limit 1), then time out a queued call.
    let blocker = c.node(0).invoke_async(cap, "sleep_ms", &[Value::U64(300)]);
    std::thread::sleep(Duration::from_millis(30));
    let err = c
        .node(0)
        .invoke_with_timeout(cap, "sleep_ms", &[Value::U64(0)], Duration::from_millis(50))
        .unwrap_err();
    assert!(err.is_timeout());
    assert_eq!(blocker.wait(Duration::from_secs(5)).0, Status::Ok);
    // The timed-out invocation still executes eventually (its reply is
    // dropped); the object keeps serving.
    let out = c.node(0).invoke(cap, "get", &[]).unwrap();
    assert_eq!(out, vec![Value::Unit]);
}

#[test]
fn frozen_objects_reject_checksite_changes_and_moves_keep_frozenness() {
    let c = cluster(2);
    let cap = c.node(0).create_object("omni", &[]).unwrap();
    c.node(0)
        .invoke(cap, "set", &[Value::Str("ice".into())])
        .unwrap();
    c.node(0).invoke(cap, "freeze", &[]).unwrap();

    // Checksite changes on a frozen object are refused.
    let err = c
        .node(0)
        .invoke(cap, "checksite", &[Value::U64(1)])
        .unwrap_err();
    assert!(
        matches!(err, EdenError::Invoke(Status::AppError { .. })),
        "{err:?}"
    );

    // Moving a frozen object keeps it frozen at the destination.
    c.node(0).move_object(cap, NodeId(1)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while !c.node(1).is_local(cap.name()) {
        assert!(Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(5));
    }
    let info = c.node(1).object_info(cap.name()).unwrap();
    assert!(info.frozen, "frozenness must survive the move");
    let err = c
        .node(0)
        .invoke(cap, "set", &[Value::Str("thaw?".into())])
        .unwrap_err();
    assert_eq!(err, EdenError::Invoke(Status::Frozen));
}

#[test]
fn double_freeze_is_idempotent() {
    let c = cluster(1);
    let cap = c.node(0).create_object("omni", &[]).unwrap();
    c.node(0).invoke(cap, "freeze", &[]).unwrap();
    c.node(0).invoke(cap, "freeze", &[]).unwrap();
    assert!(c.node(0).object_info(cap.name()).unwrap().frozen);
}

#[test]
fn async_invocation_returns_before_the_operation_ends() {
    let c = cluster(1);
    let cap = c.node(0).create_object("omni", &[]).unwrap();
    let start = Instant::now();
    let h = c.node(0).invoke_async(cap, "sleep_ms", &[Value::U64(100)]);
    assert!(
        start.elapsed() < Duration::from_millis(80),
        "must not wait for the operation"
    );
    // `wait` takes the call by value, so it is harvested once.
    assert_eq!(h.wait(Duration::from_secs(5)).0, Status::Ok);
    assert!(start.elapsed() >= Duration::from_millis(80));
}

#[test]
fn self_move_is_a_no_op_and_unknown_destination_errors() {
    let c = cluster(2);
    let cap = c.node(0).create_object("omni", &[]).unwrap();
    // Move to self: fine, nothing happens.
    c.node(0).invoke(cap, "migrate", &[Value::U64(0)]).unwrap();
    assert!(c.node(0).is_local(cap.name()));
    // Move to a node that does not exist: the type surfaces the error.
    let err = c
        .node(0)
        .invoke(cap, "migrate", &[Value::U64(77)])
        .unwrap_err();
    assert!(
        matches!(err, EdenError::Invoke(Status::AppError { .. })),
        "{err:?}"
    );
}

#[test]
fn concurrent_class_queue_drains_in_order_per_class() {
    let c = cluster(1);
    let cap = c.node(0).create_object("omni", &[]).unwrap();
    // Fill the slow class; fast ops keep flowing meanwhile.
    let slow: Vec<_> = (0..3)
        .map(|_| c.node(0).invoke_async(cap, "sleep_ms", &[Value::U64(50)]))
        .collect();
    let start = Instant::now();
    c.node(0)
        .invoke(cap, "set", &[Value::Str("concurrent".into())])
        .unwrap();
    assert!(
        start.elapsed() < Duration::from_millis(100),
        "a fast-class op must not wait behind the slow class"
    );
    for h in slow {
        assert_eq!(h.wait(Duration::from_secs(5)).0, Status::Ok);
    }
}
