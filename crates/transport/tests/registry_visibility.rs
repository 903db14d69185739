//! The transport's counters are the registry's counters: every frame,
//! byte, drop and dial an endpoint counts shows in its node's registry
//! as `transport.<field>`, including what it counted before the registry
//! was attached, and the TCP send-queue gauge settles back to zero.

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use eden_capability::NodeId;
use eden_obs::ObsRegistry;
use eden_transport::{Endpoint, LoopbackMesh, TcpMesh, TcpMeshConfig, TcpTuning, TransportStats};
use eden_wire::{Frame, Message};

fn ping(token: u64) -> Frame {
    Frame::to(NodeId(0), NodeId(1), Message::Ping { token })
}

/// `stats()` as the registry names it: `transport.<field>` → value.
fn by_name(s: &TransportStats) -> BTreeMap<String, u64> {
    [
        ("frames_sent", s.frames_sent),
        ("frames_received", s.frames_received),
        ("bytes_sent", s.bytes_sent),
        ("bytes_received", s.bytes_received),
        ("frames_dropped", s.frames_dropped),
        ("frames_shed", s.frames_shed),
        ("batches_sent", s.batches_sent),
        ("dials", s.dials),
        ("dial_failures", s.dial_failures),
        ("inbound_dropped", s.inbound_dropped),
    ]
    .into_iter()
    .map(|(k, v)| (format!("transport.{k}"), v))
    .collect()
}

/// Asserts the registry's `transport.*` counters are exactly the
/// endpoint's `stats()` counters.
fn assert_registry_matches(endpoint: &dyn Endpoint, obs: &ObsRegistry) {
    let registered: BTreeMap<String, u64> = obs
        .counters_snapshot()
        .into_iter()
        .filter(|(name, _)| name.starts_with("transport."))
        .collect();
    assert_eq!(registered, by_name(&endpoint.stats()));
}

/// Polls `cond` for up to five seconds.
fn eventually(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn loopback_counts_before_and_after_attach_reach_the_registry() {
    let mesh = LoopbackMesh::new(2);
    let (a, b) = (mesh.endpoint(0), mesh.endpoint(1));
    for i in 0..3 {
        a.send(ping(i)).unwrap();
        b.recv().unwrap();
    }
    let (obs_a, obs_b) = (Arc::new(ObsRegistry::new(0)), Arc::new(ObsRegistry::new(1)));
    a.attach_obs(Arc::clone(&obs_a));
    b.attach_obs(Arc::clone(&obs_b));
    for i in 3..5 {
        a.send(ping(i)).unwrap();
        b.recv().unwrap();
    }
    mesh.partition(NodeId(0), NodeId(1));
    a.send(ping(5)).unwrap();

    assert_eq!(a.stats().frames_sent, 6);
    assert_eq!(a.stats().frames_dropped, 1);
    assert_eq!(b.stats().frames_received, 5);
    assert_registry_matches(&*a, &obs_a);
    assert_registry_matches(&*b, &obs_b);
}

#[test]
fn tcp_counts_before_and_after_attach_reach_the_registry() {
    // Reserve a port for B but leave it closed, so A's first frames wait
    // in its send queue (the writer's dials fail) until after A's
    // registry is attached and B comes up.
    let b_addr = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("reserve a port");
    let mut config = TcpMeshConfig::new(NodeId(0), "127.0.0.1:0".parse().unwrap());
    config.peers.insert(NodeId(1), b_addr);
    let a = TcpMesh::bind(config).expect("bind A");
    for i in 0..3 {
        a.send(ping(i)).unwrap();
    }
    eventually("a failed dial", || a.stats().dial_failures > 0);
    let obs_a = Arc::new(ObsRegistry::new(0));
    a.attach_obs(Arc::clone(&obs_a));
    for i in 3..6 {
        a.send(ping(i)).unwrap();
    }

    let b = TcpMesh::bind(TcpMeshConfig::new(NodeId(1), b_addr)).expect("bind B");
    for i in 0..3 {
        let frame = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(frame.map(|f| f.msg), Some(Message::Ping { token: i }));
    }
    let obs_b = Arc::new(ObsRegistry::new(1));
    b.attach_obs(Arc::clone(&obs_b));
    for i in 3..6 {
        let frame = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(frame.map(|f| f.msg), Some(Message::Ping { token: i }));
    }

    eventually("A's queue to drain", || a.stats().queue_depth == 0);
    assert_eq!(obs_a.gauges_snapshot()["tcp.send_queue"], 0);
    assert_eq!(obs_a.gauges_snapshot()["tcp.connected_peers"], 1);
    assert_eq!(a.stats().frames_sent, 6);
    assert_eq!(b.stats().frames_received, 6);
    assert_registry_matches(&a, &obs_a);
    assert_registry_matches(&b, &obs_b);
}

#[test]
fn a_shed_frame_counts_as_shed_and_dropped_in_stats_and_registry() {
    // A peer whose port is closed: the writer never connects, so the
    // one-frame queue stays full and every later frame sheds. The long
    // backoff holds the dial counters still after the first failure.
    let dead = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("reserve a port");
    let mut config = TcpMeshConfig::new(NodeId(0), "127.0.0.1:0".parse().unwrap());
    config.peers.insert(NodeId(1), dead);
    config.tuning = TcpTuning {
        queue_cap: 1,
        dial_backoff_min: Duration::from_secs(60),
        dial_backoff_max: Duration::from_secs(60),
        ..TcpTuning::default()
    };
    let a = TcpMesh::bind(config).expect("bind");
    let obs = Arc::new(ObsRegistry::new(0));
    a.attach_obs(Arc::clone(&obs));
    for i in 0..5 {
        a.send(ping(i)).unwrap();
    }
    eventually("the failed dial", || a.stats().dial_failures == 1);

    let s = a.stats();
    assert_eq!(s.frames_shed, 4);
    assert_eq!(s.frames_dropped, 4);
    assert_eq!(s.queue_depth, 1);
    assert_eq!(obs.gauges_snapshot()["tcp.send_queue"], 1);
    assert_registry_matches(&a, &obs);
}
