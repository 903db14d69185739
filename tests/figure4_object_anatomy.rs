//! Figure 4, executable: the four parts of an Eden object.
//!
//! §4.1 names them: the unique **name**, the **representation** (data +
//! capability segments, the only part ever on long-term storage), the
//! **type** (a shared type manager), and the **short-term state**
//! (temporal data, synchronization state, processes — "never written to
//! long-term storage"). This test walks one object through checkpoint,
//! crash and reincarnation and checks each part behaves per its spec.

use std::time::Duration;

use eden::capability::Rights;
use eden::kernel::{Cluster, OpCtx, OpError, OpResult, TypeManager, TypeSpec};
use eden::wire::{Status, Value};

/// A type whose representation and short-term state are separately
/// observable.
struct Specimen;

impl TypeManager for Specimen {
    fn spec(&self) -> TypeSpec {
        TypeSpec::new("specimen")
            .class("all", 2)
            .op("set_longterm", "all", Rights::WRITE)
            .op("get_longterm", "all", Rights::READ)
            .op("set_shortterm", "all", Rights::WRITE)
            .op("get_shortterm", "all", Rights::READ)
            .op("link", "all", Rights::WRITE)
            .op("follow", "all", Rights::READ)
            .op("checkpoint", "all", Rights::CHECKPOINT)
            .op("crash", "all", Rights::OWNER)
    }

    fn dispatch(&self, ctx: &OpCtx<'_>, op: &str, args: &[Value]) -> OpResult {
        match op {
            "set_longterm" => {
                let v = OpCtx::str_arg(args, 0)?.to_string();
                ctx.mutate_repr(|r| r.put_str("data", &v))?;
                Ok(vec![])
            }
            "get_longterm" => Ok(vec![ctx
                .read_repr(|r| r.get_str("data"))
                .map(Value::Str)
                .unwrap_or(Value::Unit)]),
            "set_shortterm" => {
                ctx.scratch_put("temp", args.first().cloned().unwrap_or(Value::Unit));
                Ok(vec![])
            }
            "get_shortterm" => Ok(vec![ctx.scratch_get("temp").unwrap_or(Value::Unit)]),
            "link" => {
                // Store a capability in the capability segment.
                let peer = OpCtx::cap_arg(args, 0)?;
                ctx.mutate_repr(|r| r.caps_mut().put("peer", peer))?;
                Ok(vec![])
            }
            "follow" => {
                // Use the stored capability: invoke through it.
                let peer = ctx
                    .read_repr(|r| r.caps().get("peer"))
                    .ok_or_else(|| OpError::app(404, "no peer linked"))?;
                let out = ctx.invoke(peer, "get_longterm", &[])?;
                Ok(out)
            }
            "checkpoint" => {
                let v = ctx.checkpoint()?;
                Ok(vec![Value::U64(v)])
            }
            "crash" => {
                ctx.crash();
                Ok(vec![])
            }
            other => Err(OpError::no_such_op(other)),
        }
    }
}

fn cluster() -> Cluster {
    Cluster::builder()
        .nodes(2)
        .register(|| Box::new(Specimen))
        .build()
}

#[test]
fn the_name_is_unique_and_survives_the_whole_lifecycle() {
    let c = cluster();
    let a = c.node(0).create_object("specimen", &[]).unwrap();
    let b = c.node(0).create_object("specimen", &[]).unwrap();
    assert_ne!(a.name(), b.name(), "names are unique");
    assert_eq!(
        a.name().birth_node(),
        c.node(0).node_id(),
        "birth-node hint"
    );

    // The same name designates the object across checkpoint + crash.
    c.node(0)
        .invoke(a, "set_longterm", &[Value::from("v1")])
        .unwrap();
    c.node(0).invoke(a, "checkpoint", &[]).unwrap();
    c.node(0).invoke(a, "crash", &[]).unwrap();
    let out = c.node(0).invoke(a, "get_longterm", &[]).unwrap();
    assert_eq!(out, vec![Value::Str("v1".into())]);
}

#[test]
fn representation_persists_and_short_term_state_does_not() {
    let c = cluster();
    let cap = c.node(0).create_object("specimen", &[]).unwrap();
    c.node(0)
        .invoke(cap, "set_longterm", &[Value::from("durable")])
        .unwrap();
    c.node(0)
        .invoke(cap, "set_shortterm", &[Value::from("volatile")])
        .unwrap();
    // Both visible while active.
    assert_eq!(
        c.node(0).invoke(cap, "get_shortterm", &[]).unwrap(),
        vec![Value::Str("volatile".into())]
    );

    c.node(0).invoke(cap, "checkpoint", &[]).unwrap();
    c.node(0).invoke(cap, "crash", &[]).unwrap();

    // After reincarnation: representation restored, short-term reset —
    // "the short-term state … is never written to long-term storage".
    assert_eq!(
        c.node(0).invoke(cap, "get_longterm", &[]).unwrap(),
        vec![Value::Str("durable".into())]
    );
    assert_eq!(
        c.node(0).invoke(cap, "get_shortterm", &[]).unwrap(),
        vec![Value::Unit]
    );
}

#[test]
fn capability_segment_survives_checkpoint_and_still_conveys_authority() {
    let c = cluster();
    let target = c.node(1).create_object("specimen", &[]).unwrap();
    c.node(1)
        .invoke(target, "set_longterm", &[Value::from("linked data")])
        .unwrap();

    let holder = c.node(0).create_object("specimen", &[]).unwrap();
    c.node(0)
        .invoke(holder, "link", &[Value::Cap(target.restrict(Rights::READ))])
        .unwrap();
    c.node(0).invoke(holder, "checkpoint", &[]).unwrap();
    c.node(0).invoke(holder, "crash", &[]).unwrap();

    // The reincarnated holder's capability segment still works — and
    // the stored capability's restriction still holds.
    let out = c.node(0).invoke(holder, "follow", &[]).unwrap();
    assert_eq!(out, vec![Value::Str("linked data".into())]);
}

#[test]
fn type_code_is_shared_among_instances() {
    // "On a single node, the type code can be shared by several
    // instances of the type": many instances, one manager, distinct
    // representations.
    let c = cluster();
    let caps: Vec<_> = (0..10)
        .map(|i| {
            let cap = c.node(0).create_object("specimen", &[]).unwrap();
            c.node(0)
                .invoke(cap, "set_longterm", &[Value::Str(format!("instance {i}"))])
                .unwrap();
            cap
        })
        .collect();
    for (i, cap) in caps.iter().enumerate() {
        let out = c.node(0).invoke(*cap, "get_longterm", &[]).unwrap();
        assert_eq!(out, vec![Value::Str(format!("instance {i}"))]);
    }
}

#[test]
fn invocations_are_the_fourth_part() {
    // "some number of invocations (threads of control)" — several
    // concurrent invocations of one object make progress together.
    let c = cluster();
    let cap = c.node(0).create_object("specimen", &[]).unwrap();
    c.node(0)
        .invoke(cap, "set_longterm", &[Value::from("shared")])
        .unwrap();
    let handles: Vec<_> = (0..8)
        .map(|_| c.node(0).invoke_async(cap, "get_longterm", &[]))
        .collect();
    for h in handles {
        assert_eq!(
            h.wait(Duration::from_secs(5)),
            (Status::Ok, vec![Value::Str("shared".into())])
        );
    }
}
