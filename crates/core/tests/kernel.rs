//! End-to-end kernel tests: every §4 mechanism exercised through the
//! public API on in-process clusters.
#![allow(clippy::disallowed_methods, reason = "tests start their own threads")]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eden_capability::{Capability, NodeId, Rights};
use eden_kernel::{
    Cluster, EdenError, Node, NodeConfig, OpCtx, OpError, OpResult, ReliabilityLevel, TypeManager,
    TypeSpec,
};
use eden_wire::{Status, Value};

/// A counter: `add` is serialized (class limit 1), `get` is concurrent.
struct Counter;

impl TypeManager for Counter {
    fn spec(&self) -> TypeSpec {
        TypeSpec::new("counter")
            .class("writes", 1)
            .class("reads", 4)
            .op("add", "writes", Rights::WRITE)
            .op("get", "reads", Rights::READ)
            .op("add_and_checkpoint", "writes", Rights::WRITE)
            .op("crash", "writes", Rights::OWNER)
            .op("set_checksite", "writes", Rights::OWNER)
            .op("destroy", "writes", Rights::DESTROY)
    }

    fn initialize(&self, ctx: &OpCtx<'_>, args: &[Value]) -> Result<(), OpError> {
        let start = args.first().and_then(Value::as_i64).unwrap_or(0);
        ctx.mutate_repr(|r| r.put_i64("count", start))?;
        Ok(())
    }

    fn dispatch(&self, ctx: &OpCtx<'_>, op: &str, args: &[Value]) -> OpResult {
        match op {
            "add" => {
                let delta = OpCtx::i64_arg(args, 0)?;
                let new = ctx.mutate_repr(|r| {
                    let v = r.get_i64("count").unwrap_or(0) + delta;
                    r.put_i64("count", v);
                    v
                })?;
                Ok(vec![Value::I64(new)])
            }
            "get" => Ok(vec![Value::I64(
                ctx.read_repr(|r| r.get_i64("count").unwrap_or(0)),
            )]),
            "add_and_checkpoint" => {
                let delta = OpCtx::i64_arg(args, 0)?;
                let new = ctx.mutate_repr(|r| {
                    let v = r.get_i64("count").unwrap_or(0) + delta;
                    r.put_i64("count", v);
                    v
                })?;
                let version = ctx.checkpoint()?;
                Ok(vec![Value::I64(new), Value::U64(version)])
            }
            "crash" => {
                ctx.crash();
                Ok(vec![])
            }
            "set_checksite" => {
                let node = OpCtx::u64_arg(args, 0)? as u16;
                let replicas = OpCtx::u64_arg(args, 1).unwrap_or(0) as usize;
                let level = if replicas == 0 {
                    ReliabilityLevel::Local
                } else {
                    ReliabilityLevel::Replicated(replicas)
                };
                ctx.set_checksite(NodeId(node), level)?;
                Ok(vec![])
            }
            "destroy" => {
                ctx.destroy();
                Ok(vec![])
            }
            other => Err(OpError::no_such_op(other)),
        }
    }
}

/// Its behavior sleeps in `BehaviorCtx::wait` until asked to stop, then
/// reports how long it slept.
struct Dozer(std::sync::mpsc::Sender<Duration>);

impl TypeManager for Dozer {
    fn spec(&self) -> TypeSpec {
        TypeSpec::new("dozer")
            .class("all", 1)
            .op("crash", "all", Rights::OWNER)
    }

    fn initialize(&self, ctx: &OpCtx<'_>, _args: &[Value]) -> Result<(), OpError> {
        let slept = self.0.clone();
        ctx.spawn_behavior("dozer", move |bctx| {
            let start = Instant::now();
            while bctx.wait(Duration::from_secs(30)) {}
            let _ = slept.send(start.elapsed());
        });
        Ok(())
    }

    fn dispatch(&self, ctx: &OpCtx<'_>, op: &str, _args: &[Value]) -> OpResult {
        match op {
            "crash" => {
                ctx.crash();
                Ok(vec![])
            }
            other => Err(OpError::no_such_op(other)),
        }
    }
}

/// Tracks concurrency inside operations via shared atomics.
struct Gauged {
    current: Arc<AtomicU64>,
    peak: Arc<AtomicU64>,
    limit: usize,
}

impl TypeManager for Gauged {
    fn spec(&self) -> TypeSpec {
        TypeSpec::new("gauged")
            .class("work", self.limit)
            .class("relay", 16)
            .op("work", "work", Rights::EXECUTE)
            .op("relay", "relay", Rights::EXECUTE)
    }

    fn dispatch(&self, ctx: &OpCtx<'_>, op: &str, _args: &[Value]) -> OpResult {
        match op {
            // Waits, ungauged, for a nested `work` on the same object.
            "relay" => Ok(ctx.invoke(ctx.self_cap(), "work", &[])?),
            "work" => {
                let now = self.current.fetch_add(1, Ordering::SeqCst) + 1;
                self.peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(20));
                self.current.fetch_sub(1, Ordering::SeqCst);
                Ok(vec![])
            }
            other => Err(OpError::no_such_op(other)),
        }
    }
}

/// Calls through to another object (nested invocation).
struct Proxy;

impl TypeManager for Proxy {
    fn spec(&self) -> TypeSpec {
        TypeSpec::new("proxy")
            .class("all", 4)
            .op("relay_add", "all", Rights::EXECUTE)
    }

    fn dispatch(&self, ctx: &OpCtx<'_>, op: &str, args: &[Value]) -> OpResult {
        match op {
            "relay_add" => {
                let target = OpCtx::cap_arg(args, 0)?;
                let delta = OpCtx::i64_arg(args, 1)?;
                let out = ctx.invoke(target, "add", &[Value::I64(delta)])?;
                Ok(out)
            }
            other => Err(OpError::no_such_op(other)),
        }
    }
}

/// Misbehaving operations: sleeping and panicking.
struct Rogue;

impl TypeManager for Rogue {
    fn spec(&self) -> TypeSpec {
        TypeSpec::new("rogue")
            .class("all", 8)
            .op("sleep_ms", "all", Rights::EXECUTE)
            .op("panic", "all", Rights::EXECUTE)
    }

    fn dispatch(&self, _ctx: &OpCtx<'_>, op: &str, args: &[Value]) -> OpResult {
        match op {
            "sleep_ms" => {
                let ms = args.first().and_then(Value::as_u64).unwrap_or(0);
                std::thread::sleep(Duration::from_millis(ms));
                Ok(vec![Value::Str("done".into())])
            }
            "panic" => panic!("deliberate test panic"),
            other => Err(OpError::no_such_op(other)),
        }
    }
}

/// A dictionary that can freeze itself.
struct Dict;

impl TypeManager for Dict {
    fn spec(&self) -> TypeSpec {
        TypeSpec::new("dict")
            .class("writes", 1)
            .class("reads", 8)
            .op("put", "writes", Rights::WRITE)
            .op("get", "reads", Rights::READ)
            .op("freeze", "writes", Rights::FREEZE)
    }

    fn dispatch(&self, ctx: &OpCtx<'_>, op: &str, args: &[Value]) -> OpResult {
        match op {
            "put" => {
                let key = OpCtx::str_arg(args, 0)?.to_string();
                let value = OpCtx::str_arg(args, 1)?.to_string();
                ctx.mutate_repr(|r| r.put_str(format!("kv:{key}"), &value))?;
                Ok(vec![])
            }
            "get" => {
                let key = OpCtx::str_arg(args, 0)?;
                let v = ctx.read_repr(|r| r.get_str(&format!("kv:{key}")));
                Ok(vec![v.map(Value::Str).unwrap_or(Value::Unit)])
            }
            "freeze" => {
                let version = ctx.freeze()?;
                Ok(vec![Value::U64(version)])
            }
            other => Err(OpError::no_such_op(other)),
        }
    }
}

/// Migrates itself on request.
struct Nomad;

impl TypeManager for Nomad {
    fn spec(&self) -> TypeSpec {
        TypeSpec::new("nomad")
            .class("all", 2)
            .op("where_am_i", "all", Rights::READ)
            .op("migrate", "all", Rights::MOVE)
            .op("set_note", "all", Rights::WRITE)
            .op("get_note", "all", Rights::READ)
    }

    fn dispatch(&self, ctx: &OpCtx<'_>, op: &str, args: &[Value]) -> OpResult {
        match op {
            "where_am_i" => Ok(vec![Value::U64(ctx.node_id().0 as u64)]),
            "migrate" => {
                let dst = OpCtx::u64_arg(args, 0)? as u16;
                ctx.move_to(NodeId(dst))?;
                Ok(vec![])
            }
            "set_note" => {
                let note = OpCtx::str_arg(args, 0)?.to_string();
                ctx.mutate_repr(|r| r.put_str("note", &note))?;
                Ok(vec![])
            }
            "get_note" => Ok(vec![ctx
                .read_repr(|r| r.get_str("note"))
                .map(Value::Str)
                .unwrap_or(Value::Unit)]),
            other => Err(OpError::no_such_op(other)),
        }
    }
}

/// Uses a behavior + port: `feed` sends values to a caretaker behavior
/// that accumulates them into the representation.
struct Caretaker;

impl TypeManager for Caretaker {
    fn spec(&self) -> TypeSpec {
        TypeSpec::new("caretaker")
            .class("all", 4)
            .op("feed", "all", Rights::WRITE)
            .op("total", "all", Rights::READ)
    }

    fn initialize(&self, ctx: &OpCtx<'_>, _args: &[Value]) -> Result<(), OpError> {
        self.reincarnate(ctx)
    }

    fn reincarnate(&self, ctx: &OpCtx<'_>) -> Result<(), OpError> {
        ctx.spawn_behavior("accumulator", |bctx| {
            let port = bctx.port("in");
            while let Some(v) = port.recv() {
                if let Some(n) = v.as_i64() {
                    let _ = bctx.mutate_repr(|r| {
                        let t = r.get_i64("total").unwrap_or(0) + n;
                        r.put_i64("total", t);
                    });
                }
                if bctx.should_stop() {
                    break;
                }
            }
        });
        Ok(())
    }

    fn dispatch(&self, ctx: &OpCtx<'_>, op: &str, args: &[Value]) -> OpResult {
        match op {
            "feed" => {
                let n = OpCtx::i64_arg(args, 0)?;
                ctx.port("in").send(Value::I64(n));
                Ok(vec![])
            }
            "total" => Ok(vec![Value::I64(
                ctx.read_repr(|r| r.get_i64("total").unwrap_or(0)),
            )]),
            other => Err(OpError::no_such_op(other)),
        }
    }
}

/// Sleeps a little per `work` call and can crash itself. Its one class
/// admits 16 concurrent processes, so a burst makes the coordinator hand
/// the pool more dispatches at once than a small pool queue holds.
struct Burst;

impl TypeManager for Burst {
    fn spec(&self) -> TypeSpec {
        TypeSpec::new("burst")
            .class("all", 16)
            .op("work", "all", Rights::EXECUTE)
            .op("crash", "all", Rights::OWNER)
            .op("checkpoint", "all", Rights::WRITE)
    }

    fn dispatch(&self, ctx: &OpCtx<'_>, op: &str, _args: &[Value]) -> OpResult {
        match op {
            "work" => {
                std::thread::sleep(Duration::from_millis(1));
                Ok(vec![])
            }
            "crash" => {
                ctx.crash();
                Ok(vec![])
            }
            "checkpoint" => Ok(vec![Value::U64(ctx.checkpoint()?)]),
            other => Err(OpError::no_such_op(other)),
        }
    }
}

/// Parks on an object semaphore, or naps, on a single virtual processor.
struct Parker;

impl TypeManager for Parker {
    fn spec(&self) -> TypeSpec {
        TypeSpec::new("parker")
            .class("all", 2)
            .op("acquire", "all", Rights::EXECUTE)
            .op("release", "all", Rights::EXECUTE)
            .op("nap", "all", Rights::EXECUTE)
    }

    fn dispatch(&self, ctx: &OpCtx<'_>, op: &str, _args: &[Value]) -> OpResult {
        match op {
            "acquire" => ctx.semaphore("s", 0).p(),
            "release" => ctx.semaphore("s", 0).v(),
            "nap" => std::thread::sleep(Duration::from_millis(50)),
            other => return Err(OpError::no_such_op(other)),
        }
        Ok(vec![])
    }
}

fn single_vproc_parker() -> Cluster {
    Cluster::builder()
        .nodes(1)
        .node_config(NodeConfig {
            virtual_processors: 1,
            ..Default::default()
        })
        .register(|| Box::new(Parker))
        .build()
}

fn standard_cluster(n: usize) -> Cluster {
    Cluster::builder()
        .nodes(n)
        .register(|| Box::new(Counter))
        .register(|| Box::new(Proxy))
        .register(|| Box::new(Rogue))
        .register(|| Box::new(Dict))
        .register(|| Box::new(Nomad))
        .register(|| Box::new(Caretaker))
        .build()
}

#[test]
fn create_and_invoke_locally() {
    let cluster = standard_cluster(1);
    let cap = cluster.node(0).create_object("counter", &[]).unwrap();
    let out = cluster
        .node(0)
        .invoke(cap, "add", &[Value::I64(5)])
        .unwrap();
    assert_eq!(out, vec![Value::I64(5)]);
    let out = cluster.node(0).invoke(cap, "get", &[]).unwrap();
    assert_eq!(out, vec![Value::I64(5)]);
}

#[test]
fn initialize_arguments_reach_the_type_manager() {
    let cluster = standard_cluster(1);
    let cap = cluster
        .node(0)
        .create_object("counter", &[Value::I64(100)])
        .unwrap();
    let out = cluster.node(0).invoke(cap, "get", &[]).unwrap();
    assert_eq!(out, vec![Value::I64(100)]);
}

#[test]
fn invocation_is_location_independent() {
    let cluster = standard_cluster(3);
    let cap = cluster.node(0).create_object("counter", &[]).unwrap();
    // Invoke from a node that is neither the birth node nor the creator.
    let out = cluster
        .node(2)
        .invoke(cap, "add", &[Value::I64(7)])
        .unwrap();
    assert_eq!(out, vec![Value::I64(7)]);
    // And from another.
    let out = cluster.node(1).invoke(cap, "get", &[]).unwrap();
    assert_eq!(out, vec![Value::I64(7)]);
    // The executing node was node 0 throughout.
    assert_eq!(cluster.node(0).metrics().remote_invocations_served, 2);
}

#[test]
fn unknown_object_reports_no_such_object() {
    let cluster = standard_cluster(2);
    let bogus =
        Capability::mint(eden_capability::NameGenerator::with_epoch(NodeId(0), 0xdead).next_name());
    let err = cluster.node(1).invoke(bogus, "get", &[]).unwrap_err();
    assert_eq!(err, EdenError::Invoke(Status::NoSuchObject));
}

#[test]
fn unknown_operation_reports_no_such_operation() {
    let cluster = standard_cluster(1);
    let cap = cluster.node(0).create_object("counter", &[]).unwrap();
    let err = cluster.node(0).invoke(cap, "frobnicate", &[]).unwrap_err();
    assert_eq!(
        err,
        EdenError::Invoke(Status::NoSuchOperation("frobnicate".into()))
    );
}

#[test]
fn rights_are_verified_before_dispatch() {
    let cluster = standard_cluster(2);
    let cap = cluster.node(0).create_object("counter", &[]).unwrap();
    let read_only = cap.restrict(Rights::READ);
    // Reads pass.
    cluster.node(1).invoke(read_only, "get", &[]).unwrap();
    // Writes fail with the precise gap, locally and remotely.
    for node in [0, 1] {
        let err = cluster
            .node(node)
            .invoke(read_only, "add", &[Value::I64(1)])
            .unwrap_err();
        match err {
            EdenError::Invoke(Status::RightsViolation { required, held }) => {
                assert_eq!(required, Rights::WRITE);
                assert_eq!(held, Rights::READ);
            }
            other => panic!("expected rights violation, got {other:?}"),
        }
    }
}

#[test]
fn wrong_argument_types_report_type_error() {
    let cluster = standard_cluster(1);
    let cap = cluster.node(0).create_object("counter", &[]).unwrap();
    let err = cluster
        .node(0)
        .invoke(cap, "add", &[Value::Str("three".into())])
        .unwrap_err();
    assert!(matches!(err, EdenError::Invoke(Status::TypeError(_))));
}

#[test]
fn user_supplied_timeout_is_honored() {
    // A remote invoker: a local invocation may run on its invoker's
    // thread, where the timeout bounds only the wait for a processor
    // (see `handoff::a_local_timeout_bounds_only_the_wait_for_a_processor`).
    let cluster = standard_cluster(2);
    let cap = cluster.node(0).create_object("rogue", &[]).unwrap();
    let err = cluster
        .node(1)
        .invoke_with_timeout(
            cap,
            "sleep_ms",
            &[Value::U64(500)],
            Duration::from_millis(50),
        )
        .unwrap_err();
    assert!(err.is_timeout());
    assert_eq!(cluster.node(1).metrics().timeouts, 1);
}

#[test]
fn panicking_operation_becomes_app_error_and_node_survives() {
    let cluster = standard_cluster(1);
    let cap = cluster.node(0).create_object("rogue", &[]).unwrap();
    let err = cluster.node(0).invoke(cap, "panic", &[]).unwrap_err();
    assert!(matches!(
        err,
        EdenError::Invoke(Status::AppError { code: -3, .. })
    ));
    // The object and node still work.
    let out = cluster
        .node(0)
        .invoke(cap, "sleep_ms", &[Value::U64(0)])
        .unwrap();
    assert_eq!(out, vec![Value::Str("done".into())]);
}

#[test]
fn class_limit_one_gives_mutual_exclusion() {
    let current = Arc::new(AtomicU64::new(0));
    let peak = Arc::new(AtomicU64::new(0));
    let (c2, p2) = (current.clone(), peak.clone());
    let cluster = Cluster::builder()
        .nodes(1)
        .node_config(NodeConfig {
            virtual_processors: 8,
            ..Default::default()
        })
        .register(move || {
            Box::new(Gauged {
                current: c2.clone(),
                peak: p2.clone(),
                limit: 1,
            })
        })
        .build();
    let cap = cluster.node(0).create_object("gauged", &[]).unwrap();
    let handles: Vec<_> = (0..8)
        .map(|_| cluster.node(0).invoke_async(cap, "work", &[]))
        .collect();
    for h in handles {
        assert_eq!(h.wait(Duration::from_secs(10)).0, Status::Ok);
    }
    assert_eq!(
        peak.load(Ordering::SeqCst),
        1,
        "limit-1 class must serialize its operations"
    );
}

#[test]
fn class_limit_k_allows_exactly_k_concurrent_processes() {
    let current = Arc::new(AtomicU64::new(0));
    let peak = Arc::new(AtomicU64::new(0));
    let (c2, p2) = (current.clone(), peak.clone());
    let cluster = Cluster::builder()
        .nodes(1)
        .node_config(NodeConfig {
            virtual_processors: 16,
            ..Default::default()
        })
        .register(move || {
            Box::new(Gauged {
                current: c2.clone(),
                peak: p2.clone(),
                limit: 3,
            })
        })
        .build();
    let cap = cluster.node(0).create_object("gauged", &[]).unwrap();
    let handles: Vec<_> = (0..12)
        .map(|_| cluster.node(0).invoke_async(cap, "work", &[]))
        .collect();
    for h in handles {
        assert_eq!(h.wait(Duration::from_secs(10)).0, Status::Ok);
    }
    let observed = peak.load(Ordering::SeqCst);
    assert!(observed <= 3, "class limit exceeded: {observed}");
    assert!(observed >= 2, "concurrency never materialized: {observed}");
}

#[test]
fn virtual_processors_bound_concurrent_execution() {
    let current = Arc::new(AtomicU64::new(0));
    let peak = Arc::new(AtomicU64::new(0));
    let (c2, p2) = (current.clone(), peak.clone());
    let cluster = Cluster::builder()
        .nodes(2)
        .register(move || {
            Box::new(Gauged {
                current: c2.clone(),
                peak: p2.clone(),
                limit: 8,
            })
        })
        .build();
    let (node, peer) = (cluster.node(0), cluster.node(1));
    let cap = node.create_object("gauged", &[]).unwrap();
    // Each async relay parks a pool worker on its nested `work`, and
    // spares cover for it; workers coming back must not push execution
    // past the default complement of two. Client threads calling locally
    // and receive threads serving remote calls run invocations on lent
    // processors of the same complement.
    std::thread::scope(|s| {
        for caller in [node, node, node, peer, peer] {
            s.spawn(move || {
                for _ in 0..8 {
                    caller
                        .invoke_with_timeout(cap, "work", &[], Duration::from_secs(10))
                        .unwrap();
                }
            });
        }
        let handles: Vec<_> = (0..12)
            .map(|_| node.invoke_async(cap, "relay", &[]))
            .collect();
        for h in handles {
            assert_eq!(h.wait(Duration::from_secs(10)).0, Status::Ok);
        }
    });
    assert!(node.vproc_stats().spares_spawned > 0, "no worker parked");
    assert_eq!(peak.load(Ordering::SeqCst), 2);
}

#[test]
fn nested_invocation_does_not_deadlock_a_single_vproc_node() {
    let cluster = Cluster::builder()
        .nodes(1)
        .node_config(NodeConfig {
            virtual_processors: 1,
            ..Default::default()
        })
        .register(|| Box::new(Counter))
        .register(|| Box::new(Proxy))
        .build();
    let counter = cluster.node(0).create_object("counter", &[]).unwrap();
    let proxy = cluster.node(0).create_object("proxy", &[]).unwrap();
    let out = cluster
        .node(0)
        .invoke(proxy, "relay_add", &[Value::Cap(counter), Value::I64(3)])
        .unwrap();
    assert_eq!(out, vec![Value::I64(3)]);
}

#[test]
fn a_process_parked_on_a_semaphore_yields_its_virtual_processor() {
    let cluster = single_vproc_parker();
    let node = cluster.node(0);
    let cap = node.create_object("parker", &[]).unwrap();
    let acquire = node.invoke_async(cap, "acquire", &[]);
    let deadline = Instant::now() + Duration::from_secs(2);
    while node.object_info(cap.name()).unwrap().running_invocations == 0 {
        assert!(Instant::now() < deadline, "acquire never started");
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(20));
    // `acquire` is parked on the semaphore. It holds the node's one
    // processor only until it parks, so `release` gets to run and wake it.
    node.invoke_with_timeout(cap, "release", &[], Duration::from_secs(2))
        .expect("release runs while acquire is parked");
    let (status, _) = acquire.wait(Duration::from_secs(2));
    assert_eq!(status, Status::Ok, "acquire completes");
}

#[test]
fn execute_span_excludes_the_wait_for_a_virtual_processor() {
    let cluster = single_vproc_parker();
    let node = cluster.node(0);
    let cap = node.create_object("parker", &[]).unwrap();
    let barrier = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                barrier.wait();
                node.invoke(cap, "nap", &[]).unwrap();
            });
        }
    });
    let spans = node.obs().traces().spans();
    let mut executes: Vec<_> = spans.iter().filter(|s| s.name == "execute").collect();
    executes.sort_by_key(|s| s.start_ns);
    assert_eq!(executes.len(), 2, "{spans:?}");
    for e in &executes {
        let ms = (e.end_ns - e.start_ns) / 1_000_000;
        assert!(ms < 80, "execute took {ms} ms, so it includes queueing");
    }
    // The second nap waited for the one processor in the pool's queue.
    let second = executes[1].trace_id;
    let queued_ns: u64 = spans
        .iter()
        .filter(|s| s.trace_id == second && s.stage == eden_obs::stage::VPROC_QUEUE)
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    assert!(
        queued_ns >= 30_000_000,
        "second nap queued only {queued_ns} ns: {spans:?}"
    );
}

#[test]
fn nested_invocation_crosses_nodes() {
    let cluster = standard_cluster(2);
    let counter = cluster.node(0).create_object("counter", &[]).unwrap();
    let proxy = cluster.node(1).create_object("proxy", &[]).unwrap();
    let out = cluster
        .node(0)
        .invoke(proxy, "relay_add", &[Value::Cap(counter), Value::I64(9)])
        .unwrap();
    assert_eq!(out, vec![Value::I64(9)]);
}

#[test]
fn async_invocation_yields_a_usable_handle() {
    let cluster = standard_cluster(1);
    let cap = cluster.node(0).create_object("counter", &[]).unwrap();
    let h1 = cluster.node(0).invoke_async(cap, "add", &[Value::I64(1)]);
    let h2 = cluster.node(0).invoke_async(cap, "add", &[Value::I64(2)]);
    assert_eq!(h1.wait(Duration::from_secs(5)).0, Status::Ok);
    assert_eq!(h2.wait(Duration::from_secs(5)).0, Status::Ok);
    let out = cluster.node(0).invoke(cap, "get", &[]).unwrap();
    assert_eq!(out, vec![Value::I64(3)]);
}

/// How a test invokes: one answer as a status and results.
type Invoker = fn(&Node, Capability, &str) -> (Status, Vec<Value>);

fn invoke_blocking(node: &Node, cap: Capability, op: &str) -> (Status, Vec<Value>) {
    match node.invoke_with_timeout(cap, op, &[], Duration::from_secs(10)) {
        Ok(results) => (Status::Ok, results),
        Err(EdenError::Invoke(status)) => (status, Vec::new()),
        Err(other) => panic!("{other:?}"),
    }
}

fn invoke_then_wait(node: &Node, cap: Capability, op: &str) -> (Status, Vec<Value>) {
    node.invoke_async(cap, op, &[])
        .wait(Duration::from_secs(10))
}

/// Three nodes whose remote tries give up after 300 ms; a counter born
/// on `home` holds 5, checkpointed at node 2.
fn counter_checkpointed_at_node_2(home: usize) -> (Cluster, Capability) {
    let cluster = Cluster::builder()
        .nodes(3)
        .node_config(NodeConfig {
            remote_try_timeout: Duration::from_millis(300),
            ..Default::default()
        })
        .register(|| Box::new(Counter))
        .build();
    let node = cluster.node(home);
    let cap = node.create_object("counter", &[]).unwrap();
    node.invoke(cap, "set_checksite", &[Value::U64(2)]).unwrap();
    node.invoke(cap, "add_and_checkpoint", &[Value::I64(5)])
        .unwrap();
    (cluster, cap)
}

/// Node 0 moves the counter to node 1, which then crashes it: node 0
/// holds a forwarding address to node 1, node 1 answers
/// `NoSuchObject`, and the search finds the checkpoint at node 2.
fn moved_then_crashed(invoke: Invoker) -> (Status, Vec<Value>) {
    let (cluster, cap) = counter_checkpointed_at_node_2(0);
    let (node0, node1) = (cluster.node(0), cluster.node(1));
    // The move and the crash each finish after the call that asks for
    // them returns: node 0 leaves its forwarding address when node 1's
    // ack arrives, and node 1 tears the object down after the crash
    // operation has replied. Each step waits for the one before.
    let deadline = Instant::now() + Duration::from_secs(5);
    let wait_until = |done: &dyn Fn() -> bool, what: &str| {
        while !done() {
            assert!(Instant::now() < deadline, "{what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    };
    node0.move_object(cap, NodeId(1)).unwrap();
    wait_until(
        &|| node1.is_local(cap.name()) && node0.forwarding_address(cap.name()).is_some(),
        "the move never completed",
    );
    node1.invoke(cap, "crash", &[]).unwrap();
    wait_until(&|| !node1.is_local(cap.name()), "the crash never completed");
    assert_eq!(node0.forwarding_address(cap.name()), Some(NodeId(1)));
    let answer = invoke(node0, cap, "get");
    assert!(
        cluster.node(2).is_local(cap.name()),
        "reincarnated at node 2"
    );
    answer
}

/// The counter lives on node 1, which dies: node 0's hints name it, it
/// stays silent, and the search finds the checkpoint at node 2.
fn holder_killed(invoke: Invoker) -> (Status, Vec<Value>) {
    let (cluster, cap) = counter_checkpointed_at_node_2(1);
    assert_eq!(
        invoke_blocking(cluster.node(0), cap, "get"),
        (Status::Ok, vec![Value::I64(5)])
    );
    cluster.kill(1);
    invoke(cluster.node(0), cap, "get")
}

#[test]
fn async_invocation_answers_as_the_blocking_one_after_a_move_and_a_crash() {
    let found = (Status::Ok, vec![Value::I64(5)]);
    assert_eq!(moved_then_crashed(invoke_blocking), found);
    assert_eq!(moved_then_crashed(invoke_then_wait), found);
}

#[test]
fn async_invocation_answers_as_the_blocking_one_when_the_holder_dies() {
    let found = (Status::Ok, vec![Value::I64(5)]);
    assert_eq!(holder_killed(invoke_blocking), found);
    assert_eq!(holder_killed(invoke_then_wait), found);
}

#[test]
fn a_crash_wakes_a_behavior_waiting_for_its_stop() {
    let (tx, rx) = std::sync::mpsc::channel();
    let cluster = Cluster::builder()
        .nodes(1)
        .register(move || Box::new(Dozer(tx.clone())))
        .build();
    let node = cluster.node(0);
    let cap = node.create_object("dozer", &[]).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    node.invoke(cap, "crash", &[]).unwrap();
    let slept = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the behavior stopped");
    assert!(slept < Duration::from_secs(10), "slept {slept:?}");
}

#[test]
fn checkpoint_crash_reincarnate_preserves_long_term_state() {
    let cluster = standard_cluster(1);
    let node = cluster.node(0);
    let cap = node.create_object("counter", &[]).unwrap();
    node.invoke(cap, "add_and_checkpoint", &[Value::I64(10)])
        .unwrap();
    // Mutate past the checkpoint, then crash: the un-checkpointed add is
    // lost, exactly per §4.4.
    node.invoke(cap, "add", &[Value::I64(5)]).unwrap();
    node.invoke(cap, "crash", &[]).unwrap();

    // The next invocation reincarnates from the checkpoint.
    let out = node.invoke(cap, "get", &[]).unwrap();
    assert_eq!(
        out,
        vec![Value::I64(10)],
        "state rolls back to the checkpoint"
    );
    assert_eq!(node.metrics().crashes, 1);
    assert_eq!(node.metrics().reincarnations, 1);
}

#[test]
fn crash_without_checkpoint_loses_the_object() {
    let cluster = standard_cluster(1);
    let node = cluster.node(0);
    let cap = node.create_object("counter", &[]).unwrap();
    node.invoke(cap, "add", &[Value::I64(1)]).unwrap();
    node.invoke(cap, "crash", &[]).unwrap();
    // An invocation racing the teardown may see ObjectCrashed; once the
    // teardown completes the name is simply gone.
    let err = node.invoke(cap, "get", &[]).unwrap_err();
    assert!(
        matches!(
            err,
            EdenError::Invoke(Status::NoSuchObject) | EdenError::Invoke(Status::ObjectCrashed)
        ),
        "unexpected: {err:?}"
    );
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    loop {
        match node.invoke(cap, "get", &[]) {
            Err(EdenError::Invoke(Status::NoSuchObject)) => break,
            Err(EdenError::Invoke(Status::ObjectCrashed)) => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "teardown never settled"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }
}

#[test]
fn destroyed_objects_stay_destroyed() {
    let cluster = standard_cluster(1);
    let node = cluster.node(0);
    let cap = node.create_object("counter", &[]).unwrap();
    node.invoke(cap, "add_and_checkpoint", &[Value::I64(1)])
        .unwrap();
    node.invoke(cap, "destroy", &[]).unwrap();
    let err = node.invoke(cap, "get", &[]).unwrap_err();
    assert_eq!(err, EdenError::Invoke(Status::Destroyed));
}

#[test]
fn reincarnation_happens_transparently_for_remote_invokers() {
    let cluster = standard_cluster(2);
    let cap = cluster.node(0).create_object("counter", &[]).unwrap();
    cluster
        .node(0)
        .invoke(cap, "add_and_checkpoint", &[Value::I64(42)])
        .unwrap();
    cluster.node(0).invoke(cap, "crash", &[]).unwrap();
    // Node 1 invokes; node 0 reincarnates transparently.
    let out = cluster.node(1).invoke(cap, "get", &[]).unwrap();
    assert_eq!(out, vec![Value::I64(42)]);
}

#[test]
fn failover_to_checksite_after_node_death() {
    let cluster = standard_cluster(3);
    // Create on node 0 but keep long-term state on node 1.
    let cap = cluster.node(0).create_object("nomad", &[]).unwrap();
    cluster
        .node(0)
        .invoke(cap, "set_note", &[Value::Str("precious".into())])
        .unwrap();
    // Move long-term state to node 1 via a chained type op? The nomad
    // does not expose checksite; drive checkpoint through the kernel on
    // the dict instead.
    let dict = cluster.node(0).create_object("dict", &[]).unwrap();
    cluster
        .node(0)
        .invoke(
            dict,
            "put",
            &[Value::Str("k".into()), Value::Str("v".into())],
        )
        .unwrap();
    // Manually checkpoint at a remote checksite using a counter's
    // add_and_checkpoint is local-site; instead exercise via kill.
    // -- Simplest end-to-end: checkpoint locally, replicate by killing
    //    only after the checkpoint reached another node is covered in
    //    cluster tests with checksite-capable types; here we verify the
    //    local-store path: kill node 0 without checkpoint → object gone.
    cluster.kill(0);
    let err = cluster
        .node(2)
        .invoke_with_timeout(
            dict,
            "get",
            &[Value::Str("k".into())],
            Duration::from_secs(2),
        )
        .unwrap_err();
    assert!(
        matches!(
            err,
            EdenError::Invoke(Status::NoSuchObject) | EdenError::Invoke(Status::Timeout)
        ),
        "uncheckpointed object must be lost with its node: {err:?}"
    );
}

#[test]
fn move_relocates_execution_and_leaves_forwarding() {
    let cluster = standard_cluster(3);
    let cap = cluster.node(0).create_object("nomad", &[]).unwrap();
    cluster
        .node(0)
        .invoke(cap, "set_note", &[Value::Str("carried".into())])
        .unwrap();
    let here = cluster.node(0).invoke(cap, "where_am_i", &[]).unwrap();
    assert_eq!(here, vec![Value::U64(0)]);

    cluster
        .node(0)
        .invoke(cap, "migrate", &[Value::U64(1)])
        .unwrap();
    // The move is deferred until the migrate invocation completes; poll
    // until the object answers from its new home.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let here = cluster.node(2).invoke(cap, "where_am_i", &[]).unwrap();
        if here == vec![Value::U64(1)] {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "move never completed");
        std::thread::sleep(Duration::from_millis(10));
    }
    // Representation travelled with the object.
    let note = cluster.node(2).invoke(cap, "get_note", &[]).unwrap();
    assert_eq!(note, vec![Value::Str("carried".into())]);
    assert_eq!(cluster.node(0).metrics().moves_out, 1);
    assert_eq!(cluster.node(1).metrics().moves_in, 1);
    assert!(!cluster.node(0).is_local(cap.name()));
    assert!(cluster.node(1).is_local(cap.name()));
}

#[test]
fn kernel_move_object_requires_the_move_right() {
    let cluster = standard_cluster(2);
    let cap = cluster.node(0).create_object("counter", &[]).unwrap();
    let no_move = cap.restrict(Rights::READ | Rights::WRITE);
    let err = cluster.node(0).move_object(no_move, NodeId(1)).unwrap_err();
    assert!(matches!(
        err,
        EdenError::Invoke(Status::RightsViolation { .. })
    ));
    // With the right, the move succeeds.
    cluster.node(0).move_object(cap, NodeId(1)).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !cluster.node(1).is_local(cap.name()) {
        assert!(std::time::Instant::now() < deadline, "move never completed");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn frozen_objects_reject_mutation_but_serve_reads() {
    let cluster = standard_cluster(1);
    let node = cluster.node(0);
    let cap = node.create_object("dict", &[]).unwrap();
    node.invoke(
        cap,
        "put",
        &[Value::Str("a".into()), Value::Str("1".into())],
    )
    .unwrap();
    node.invoke(cap, "freeze", &[]).unwrap();
    let err = node
        .invoke(
            cap,
            "put",
            &[Value::Str("b".into()), Value::Str("2".into())],
        )
        .unwrap_err();
    assert_eq!(err, EdenError::Invoke(Status::Frozen));
    let out = node.invoke(cap, "get", &[Value::Str("a".into())]).unwrap();
    assert_eq!(out, vec![Value::Str("1".into())]);
}

#[test]
fn frozen_replicas_serve_invocations_locally() {
    let cluster = standard_cluster(3);
    let cap = cluster.node(0).create_object("dict", &[]).unwrap();
    cluster
        .node(0)
        .invoke(
            cap,
            "put",
            &[Value::Str("k".into()), Value::Str("v".into())],
        )
        .unwrap();
    cluster.node(0).invoke(cap, "freeze", &[]).unwrap();

    // Before caching: node 2's reads are remote.
    cluster
        .node(2)
        .invoke(cap, "get", &[Value::Str("k".into())])
        .unwrap();
    let before = cluster.node(2).metrics();
    assert!(before.remote_invocations_sent >= 1);

    // Cache the replica, then read again: served locally.
    cluster.node(2).cache_replica(cap).unwrap();
    assert_eq!(cluster.node(2).metrics().replicas_cached, 1);
    let sent_before = cluster.node(2).metrics().remote_invocations_sent;
    let out = cluster
        .node(2)
        .invoke(cap, "get", &[Value::Str("k".into())])
        .unwrap();
    assert_eq!(out, vec![Value::Str("v".into())]);
    assert_eq!(
        cluster.node(2).metrics().remote_invocations_sent,
        sent_before,
        "replica reads must not touch the network"
    );
    // Mutations against the replica are refused.
    let err = cluster
        .node(2)
        .invoke(
            cap,
            "put",
            &[Value::Str("x".into()), Value::Str("y".into())],
        )
        .unwrap_err();
    assert_eq!(err, EdenError::Invoke(Status::Frozen));
}

#[test]
fn caching_an_unfrozen_object_is_refused() {
    let cluster = standard_cluster(2);
    let cap = cluster.node(0).create_object("dict", &[]).unwrap();
    let err = cluster.node(1).cache_replica(cap).unwrap_err();
    assert!(matches!(
        err,
        EdenError::BadRequest(_) | EdenError::Invoke(_)
    ));
}

#[test]
fn cache_replica_requires_the_read_right() {
    let cluster = standard_cluster(2);
    let cap = cluster.node(0).create_object("dict", &[]).unwrap();
    cluster
        .node(0)
        .invoke(
            cap,
            "put",
            &[Value::Str("k".into()), Value::Str("v".into())],
        )
        .unwrap();
    cluster.node(0).invoke(cap, "freeze", &[]).unwrap();
    // A write-only capability must not be able to pull the frozen
    // representation across the network.
    let no_read = cap.restrict(Rights::WRITE);
    let err = cluster.node(1).cache_replica(no_read).unwrap_err();
    assert!(matches!(
        err,
        EdenError::Invoke(Status::RightsViolation { .. })
    ));
    assert_eq!(cluster.node(1).metrics().replicas_cached, 0);
    // With READ, the replica installs.
    cluster.node(1).cache_replica(cap).unwrap();
    assert_eq!(cluster.node(1).metrics().replicas_cached, 1);
}

#[test]
fn activate_here_requires_the_move_right() {
    let cluster = standard_cluster(2);
    let cap = cluster.node(0).create_object("counter", &[]).unwrap();
    let no_move = cap.restrict(Rights::READ | Rights::WRITE);
    let err = cluster.node(1).activate_here(no_move).unwrap_err();
    assert!(matches!(
        err,
        EdenError::Invoke(Status::RightsViolation { .. })
    ));
}

#[test]
fn behaviors_process_port_traffic() {
    let cluster = standard_cluster(1);
    let node = cluster.node(0);
    let cap = node.create_object("caretaker", &[]).unwrap();
    for i in 1..=10 {
        node.invoke(cap, "feed", &[Value::I64(i)]).unwrap();
    }
    // The behavior drains the port asynchronously; poll for the total.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let out = node.invoke(cap, "total", &[]).unwrap();
        if out == vec![Value::I64(55)] {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "behavior never accumulated the feed: {out:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn ping_reaches_live_nodes_and_not_dead_ones() {
    let cluster = standard_cluster(2);
    assert!(cluster.node(0).ping(NodeId(1), Duration::from_secs(1)));
    cluster.kill(1);
    assert!(!cluster.node(0).ping(NodeId(1), Duration::from_millis(200)));
}

#[test]
fn location_cache_warms_after_first_search() {
    let cluster = standard_cluster(3);
    let cap = cluster.node(0).create_object("counter", &[]).unwrap();
    // First remote invoke from node 2 uses the birth-node hint directly
    // (birth node 0 holds it), so no broadcast is needed.
    cluster.node(2).invoke(cap, "get", &[]).unwrap();
    let m = cluster.node(2).metrics();
    assert_eq!(m.location_broadcasts, 0, "birth hint should suffice");
    // Subsequent invokes use the cache.
    cluster.node(2).invoke(cap, "get", &[]).unwrap();
    assert!(cluster.node(2).metrics().location_cache_hits >= 1);
}

#[test]
fn broadcast_finds_objects_that_moved_when_hints_fail() {
    let cluster = standard_cluster(3);
    let cap = cluster.node(0).create_object("nomad", &[]).unwrap();
    cluster
        .node(0)
        .invoke(cap, "migrate", &[Value::U64(1)])
        .unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !cluster.node(1).is_local(cap.name()) {
        assert!(std::time::Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(10));
    }
    // Node 2 has no hints; its invoke must still find the object —
    // either via the birth node's forwarding address or broadcast.
    let out = cluster.node(2).invoke(cap, "where_am_i", &[]).unwrap();
    assert_eq!(out, vec![Value::U64(1)]);
}

#[test]
fn many_objects_coexist_on_one_node() {
    let cluster = standard_cluster(1);
    let node = cluster.node(0);
    let caps: Vec<_> = (0..100)
        .map(|i| node.create_object("counter", &[Value::I64(i)]).unwrap())
        .collect();
    for (i, cap) in caps.iter().enumerate() {
        let out = node.invoke(*cap, "get", &[]).unwrap();
        assert_eq!(out, vec![Value::I64(i as i64)]);
    }
    assert_eq!(node.active_objects().len(), 100);
}

#[test]
fn remote_checksite_survives_node_death() {
    // The §4.4 contract end-to-end: the checksite node, not the
    // executing node, owns durability. Kill the executing node and the
    // object reincarnates at the checksite on the next invocation.
    let cluster = standard_cluster(3);
    let cap = cluster.node(0).create_object("counter", &[]).unwrap();
    cluster
        .node(0)
        .invoke(cap, "set_checksite", &[Value::U64(1), Value::U64(0)])
        .unwrap();
    cluster
        .node(0)
        .invoke(cap, "add_and_checkpoint", &[Value::I64(33)])
        .unwrap();
    // The checkpoint lives on node 1, not node 0.
    assert!(matches!(
        cluster.node(1).store().latest(cap.name()),
        Ok(Some(_))
    ));
    assert!(matches!(
        cluster.node(0).store().latest(cap.name()),
        Ok(None)
    ));

    cluster.kill(0);
    let out = cluster
        .node(2)
        .invoke_with_timeout(cap, "get", &[], Duration::from_secs(5))
        .unwrap();
    assert_eq!(
        out,
        vec![Value::I64(33)],
        "state must survive at the checksite"
    );
    assert_eq!(cluster.node(1).metrics().reincarnations, 1);
    assert!(
        cluster.node(1).is_local(cap.name()),
        "object now lives at the checksite"
    );
}

#[test]
fn replicated_checkpoints_survive_checksite_death_too() {
    let cluster = standard_cluster(4);
    let cap = cluster.node(0).create_object("counter", &[]).unwrap();
    // Checksite node 1, plus 2 replicas.
    cluster
        .node(0)
        .invoke(cap, "set_checksite", &[Value::U64(1), Value::U64(2)])
        .unwrap();
    cluster
        .node(0)
        .invoke(cap, "add_and_checkpoint", &[Value::I64(77)])
        .unwrap();
    // Kill both the executing node and the checksite.
    cluster.kill(0);
    cluster.kill(1);
    let out = cluster
        .node(3)
        .invoke_with_timeout(cap, "get", &[], Duration::from_secs(8))
        .unwrap();
    assert_eq!(out, vec![Value::I64(77)], "a replica must take over");
}

#[test]
fn an_answer_compresses_the_forwarding_address_onto_the_holder() {
    // Moves 0 → 1 → 2 leave a chain: node 0 forwards to 1, node 1 to 2.
    // Once node 2 has answered node 0's call, node 0's forwarding
    // address names node 2, so its next call no longer passes node 1.
    let cluster = standard_cluster(3);
    let cap = cluster.node(0).create_object("nomad", &[]).unwrap();
    for (src, dst) in [(0, 1u16), (1, 2)] {
        cluster.node(src).move_object(cap, NodeId(dst)).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !cluster.node(dst as usize).is_local(cap.name()) {
            assert!(
                std::time::Instant::now() < deadline,
                "move to {dst} stalled"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    let first = cluster.node(0).invoke(cap, "where_am_i", &[]).unwrap();
    assert_eq!(first, vec![Value::U64(2)]);
    let forwards = cluster.node(1).metrics().forwards;
    assert!(forwards >= 1, "the first call must walk the chain");
    let second = cluster.node(0).invoke(cap, "where_am_i", &[]).unwrap();
    assert_eq!(second, vec![Value::U64(2)]);
    assert_eq!(
        cluster.node(1).metrics().forwards,
        forwards,
        "the second call must go straight to the holder"
    );
    // The compressed address still keeps node 0 from reincarnating.
    assert!(!cluster.node(0).is_local(cap.name()));
}

#[test]
fn repeated_checkpoints_register_the_checksite_once() {
    let cluster = standard_cluster(3);
    let cap = cluster.node(0).create_object("counter", &[]).unwrap();
    let before = cluster.node(0).metrics().directory_registrations;
    for i in 0..5 {
        cluster
            .node(0)
            .invoke(cap, "add_and_checkpoint", &[Value::I64(i)])
            .unwrap();
    }
    let m = cluster.node(0).metrics();
    assert_eq!(m.checkpoints, 5);
    assert_eq!(
        m.directory_registrations - before,
        1,
        "the directory keeps a checksite registration; one is enough"
    );
}

#[test]
fn moved_object_is_not_resurrected_from_its_old_checkpoint() {
    // Regression: an object that checkpointed on node 0 and then moved
    // to node 1 leaves its checkpoint at the checksite (node 0). A
    // request arriving at node 0 must follow the forwarding address,
    // not reincarnate a stale twin.
    let cluster = standard_cluster(3);
    let cap = cluster.node(0).create_object("counter", &[]).unwrap();
    cluster
        .node(0)
        .invoke(cap, "add_and_checkpoint", &[Value::I64(1)])
        .unwrap();
    cluster.node(0).move_object(cap, NodeId(1)).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !cluster.node(1).is_local(cap.name()) {
        assert!(std::time::Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(10));
    }
    // Mutate on the new home, then invoke *via the old home's hint*
    // (node 2 has no cache, so it tries the birth node first).
    cluster
        .node(1)
        .invoke(cap, "add", &[Value::I64(1)])
        .unwrap();
    let out = cluster.node(2).invoke(cap, "get", &[]).unwrap();
    assert_eq!(
        out,
        vec![Value::I64(2)],
        "must see the moved object's state"
    );
    assert!(
        !cluster.node(0).is_local(cap.name()),
        "the old home must not resurrect the object"
    );
    assert_eq!(cluster.node(0).metrics().reincarnations, 0);
}

#[test]
fn shutdown_refuses_further_work() {
    let cluster = standard_cluster(1);
    let node = cluster.node(0).clone();
    let cap = node.create_object("counter", &[]).unwrap();
    node.shutdown();
    assert_eq!(
        node.create_object("counter", &[]),
        Err(EdenError::ShuttingDown)
    );
    assert_eq!(node.invoke(cap, "get", &[]), Err(EdenError::ShuttingDown));
}

#[test]
fn a_crash_requested_during_an_overload_burst_completes() {
    // One worker and a two-slot pool queue kept full by a second object:
    // most of a burst's dispatches are refused, and a refused dispatch
    // can be the one that brings the object's running count to zero
    // while a crash is pending.
    let cluster = Cluster::builder()
        .nodes(2)
        .node_config(NodeConfig {
            virtual_processors: 1,
            vproc_queue_cap: 2,
            ..NodeConfig::default()
        })
        .register(|| Box::new(Burst))
        .build();
    let cap = cluster.node(0).create_object("burst", &[]).unwrap();
    cluster.node(0).invoke(cap, "checkpoint", &[]).unwrap();
    let hog = cluster.node(0).create_object("burst", &[]).unwrap();
    let stop = Arc::new(AtomicU64::new(0));
    let hogger = {
        let (node, stop) = (cluster.node(1).clone(), stop.clone());
        std::thread::spawn(move || {
            let client = node.pipelined_client(hog);
            while stop.load(Ordering::SeqCst) == 0 {
                let calls: Vec<_> = (0..8)
                    .filter_map(|_| client.call("work", &[]).ok())
                    .collect();
                for call in calls {
                    call.wait(Duration::from_secs(5));
                }
            }
        })
    };
    let client = cluster.node(1).pipelined_client(cap);
    let budget = Duration::from_secs(5);
    let mut crashes = 0;
    for _round in 0..200 {
        let start = Instant::now();
        let calls: Vec<_> = (0..48)
            .map(|i| {
                let op = if i == 1 { "crash" } else { "work" };
                (op, client.call(op, &[]).expect("send"))
            })
            .collect();
        for (op, call) in calls {
            let (status, _) = call.wait(budget);
            assert!(
                matches!(
                    status,
                    Status::Ok | Status::Overloaded | Status::ObjectCrashed
                ),
                "{op}: {status:?}"
            );
            crashes += u64::from(op == "crash" && status == Status::Ok);
        }
        assert!(
            start.elapsed() < budget / 2,
            "a burst took {:?}: some caller waited out its timeout",
            start.elapsed()
        );
        if crashes == 10 {
            break;
        }
    }
    stop.store(1, Ordering::SeqCst);
    hogger.join().unwrap();
    assert!(crashes > 0, "the crash request was shed in every round");
    // Replies go out before the completion bookkeeping, so a teardown
    // may trail the last reply by a moment.
    let deadline = Instant::now() + Duration::from_secs(2);
    while cluster.node(0).metrics().crashes < crashes && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        cluster.node(0).metrics().crashes,
        crashes,
        "every crash completed"
    );
    // The object reincarnates from its checkpoint and serves again.
    assert_eq!(cluster.node(1).invoke(cap, "work", &[]), Ok(vec![]));
    cluster.shutdown();
}
