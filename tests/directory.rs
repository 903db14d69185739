//! E14: the sharded location directory and gossip membership.
//!
//! End-to-end checks that the directory retires broadcast `WhereIs` as
//! the common path: stale hints are repaired in one forwarded hop, a
//! suspect holder's registrations are withheld until the suspicion
//! resolves, and a definitive miss completes without waiting out the
//! seed's full locate window.

use std::time::{Duration, Instant};

use eden::apps::with_apps;
use eden::capability::NodeId;
use eden::kernel::{Cluster, GossipConfig, NodeConfig};
use eden::wire::{MemberStatus, Value};

/// A cluster with gossip fast enough for test-scale failure detection.
fn fast_gossip(n: usize) -> Cluster {
    with_apps(Cluster::builder().nodes(n).node_config(NodeConfig {
        remote_try_timeout: Duration::from_millis(150),
        gossip: GossipConfig {
            probe_interval: Duration::from_millis(25),
            probe_timeout: Duration::from_millis(60),
            suspect_timeout: Duration::from_millis(250),
        },
        ..NodeConfig::default()
    }))
    .build()
}

/// Polls `check` until it returns `Some`, or panics after `secs`.
fn wait_for<T>(secs: u64, what: &str, mut check: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        if let Some(v) = check() {
            return v;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn counter(c: &Cluster, node: usize) -> eden::capability::Capability {
    c.node(node).create_object("counter", &[]).unwrap()
}

fn counters_on(c: &Cluster, node: usize, name: &str) -> u64 {
    c.node(node)
        .obs()
        .counters_snapshot()
        .get(name)
        .copied()
        .unwrap_or(0)
}

#[test]
fn stale_hint_is_repaired_by_the_forwarded_reply() {
    let c = with_apps(Cluster::builder().nodes(3)).build();
    let cap = counter(&c, 0);
    let name = cap.name();

    // First remote invocation caches the holder.
    c.node(2).invoke(cap, "add", &[Value::I64(1)]).unwrap();
    assert_eq!(c.node(2).location_hint(name), Some(NodeId(0)));

    // Move the object out from under the hint.
    c.node(0).move_object(cap, NodeId(1)).unwrap();
    wait_for(5, "move to settle", || {
        c.node(1).is_local(name).then_some(())
    });

    // The stale hint sends the next invocation to node 0, which
    // forwards; the reply arrives from node 1 and corrects the cache.
    let out = c.node(2).invoke(cap, "get", &[]).unwrap();
    assert_eq!(out, vec![Value::I64(1)]);
    assert_eq!(
        c.node(2).location_hint(name),
        Some(NodeId(1)),
        "forwarded reply must repair the stale hint"
    );

    // With the hint repaired, the second invocation is one hop: no
    // broadcast and no directory query.
    let broadcasts = counters_on(&c, 2, "kernel.location_broadcasts");
    let queries = counters_on(&c, 2, "kernel.directory_queries");
    c.node(2).invoke(cap, "get", &[]).unwrap();
    assert_eq!(counters_on(&c, 2, "kernel.location_broadcasts"), broadcasts);
    assert_eq!(counters_on(&c, 2, "kernel.directory_queries"), queries);
    c.shutdown();
}

#[test]
fn suspect_holder_registrations_are_withheld_until_resolved() {
    let c = fast_gossip(3);

    // An object held on node 2 whose directory home is node 0, so the
    // home's answer is observable locally while node 2 is cut off.
    let cap = wait_for(5, "an object homed on node 0", || {
        let cap = counter(&c, 2);
        (c.node(0).directory_home(cap.name()) == Some(NodeId(0))).then_some(cap)
    });
    let name = cap.name();
    wait_for(5, "registration to reach the home", || {
        (c.node(0).directory_locate(name) == Some(NodeId(2))).then_some(())
    });

    // Cut node 2 off from both peers. Probes go unanswered, so node 0
    // suspects it; while the suspicion is open the directory withholds
    // the registration rather than naming a possibly-dead holder.
    c.mesh().partition(NodeId(0), NodeId(2));
    c.mesh().partition(NodeId(1), NodeId(2));
    wait_for(10, "node 2 to become suspect or dead", || {
        c.node(0)
            .membership()
            .iter()
            .find(|(n, s, _)| *n == NodeId(2) && *s != MemberStatus::Alive)
            .map(|_| ())
    });
    assert_eq!(
        c.node(0).directory_locate(name),
        None,
        "a suspect holder's registration must be withheld"
    );

    // Unrefuted suspicion hardens into a death verdict.
    wait_for(10, "node 2 to be declared dead", || {
        c.node(0)
            .membership()
            .iter()
            .find(|(n, s, _)| *n == NodeId(2) && *s == MemberStatus::Dead)
            .map(|_| ())
    });

    // Healing lets a direct probe through; the ack resurrects the
    // member and its registration becomes servable again.
    c.mesh().heal(NodeId(0), NodeId(2));
    c.mesh().heal(NodeId(1), NodeId(2));
    wait_for(10, "node 2 to be alive again", || {
        c.node(0)
            .membership()
            .iter()
            .find(|(n, s, _)| *n == NodeId(2) && *s == MemberStatus::Alive)
            .map(|_| ())
    });
    wait_for(10, "the registration to be servable again", || {
        (c.node(0).directory_locate(name) == Some(NodeId(2))).then_some(())
    });
    c.shutdown();
}

#[test]
fn definitive_miss_completes_without_the_full_locate_window() {
    // The seed kernel's only search is broadcast WhereIs with a fixed
    // collection window: a miss costs the whole window. With the
    // directory, every live peer answers NotHeld and the collector
    // completes as soon as the expected answers are in.
    let c = fast_gossip(3);
    // Home the object away from the doomed node so the directory query
    // itself is not a message to a corpse.
    let cap = wait_for(5, "an object not homed on node 1", || {
        let cap = counter(&c, 1);
        (c.node(0).directory_home(cap.name()) != Some(NodeId(1))).then_some(cap)
    });
    c.kill(1);
    wait_for(10, "gossip to declare node 1 dead", || {
        c.node(0)
            .membership()
            .iter()
            .find(|(n, s, _)| *n == NodeId(1) && *s == MemberStatus::Dead)
            .map(|_| ())
    });
    let started = Instant::now();
    let err = c
        .node(0)
        .invoke_with_timeout(cap, "get", &[], Duration::from_secs(5));
    let elapsed = started.elapsed();
    assert!(err.is_err(), "uncheckpointed object must be lost");
    assert!(
        elapsed < Duration::from_millis(200),
        "directory miss should beat the 250ms locate window, took {elapsed:?}"
    );
    c.shutdown();

    // Control: the seed configuration (directory off) pays the window.
    let seed = with_apps(Cluster::builder().nodes(3).node_config(NodeConfig {
        enable_directory: false,
        remote_try_timeout: Duration::from_millis(150),
        ..NodeConfig::default()
    }))
    .build();
    let cap = counter(&seed, 1);
    seed.kill(1);
    let started = Instant::now();
    let err = seed
        .node(0)
        .invoke_with_timeout(cap, "get", &[], Duration::from_secs(5));
    let elapsed = started.elapsed();
    assert!(err.is_err());
    assert!(
        elapsed >= Duration::from_millis(250),
        "the seed search cannot finish before the locate window, took {elapsed:?}"
    );
    seed.shutdown();
}
