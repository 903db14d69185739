//! Critical-path attribution and the stall watchdog, end to end over
//! real TCP sockets.
//!
//! The slow peer is injected with the backlog trick from
//! `crates/transport/tests/tcp_pipeline.rs`: the client's address for
//! the serving node initially points at a listener whose accept backlog
//! is full, so the background dial hangs and the invocation's frames
//! sit in the transport send queue. A repair thread then re-points the
//! peer at the real mesh; the invocation completes, and the stitched
//! critical-path report must charge the delay to the `xport-queue`
//! stage — not to execution, and not to the untracked residue.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eden::apps::counter::CounterType;
use eden::capability::NodeId;
use eden::kernel::{node_object_cap, GossipConfig, Node, NodeConfig, TypeRegistry};
use eden::obs::{critical_path, SpanRecord};
use eden::store::MemStore;
use eden::transport::{Endpoint, TcpMesh, TcpMeshConfig, TcpTuning};
use eden::wire::{Frame, Message, Value};

/// A listener whose accept backlog is full: dials to `addr` hang for
/// the dialer's whole connect timeout instead of completing.
struct StuckPeer {
    _listener: TcpListener,
    _held: Vec<TcpStream>,
    addr: SocketAddr,
}

fn stuck_peer() -> StuckPeer {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind stuck listener");
    let addr = listener.local_addr().expect("local addr");
    let mut held = Vec::new();
    for _ in 0..512 {
        match TcpStream::connect_timeout(&addr, Duration::from_millis(50)) {
            Ok(s) => held.push(s),
            Err(_) => break, // Backlog is full: mission accomplished.
        }
    }
    assert!(
        held.len() < 512,
        "could not exhaust the accept backlog; the backlog trick needs \
         connects to start timing out"
    );
    StuckPeer {
        _listener: listener,
        _held: held,
        addr,
    }
}

/// Fast dial/backoff tuning so a failed dial burns milliseconds, not
/// the default half second.
fn fast_tuning() -> TcpTuning {
    TcpTuning {
        connect_timeout: Duration::from_millis(150),
        dial_backoff_min: Duration::from_millis(25),
        dial_backoff_max: Duration::from_millis(100),
        ..TcpTuning::default()
    }
}

fn node_over(mesh: Arc<TcpMesh>, config: NodeConfig) -> Node {
    let registry = Arc::new(TypeRegistry::new());
    registry.register(Arc::new(CounterType)).unwrap();
    Node::new(config, mesh, Arc::new(MemStore::new()), registry)
}

#[test]
fn critpath_attributes_slow_peer_delay_to_the_transport_queue() {
    // Three meshes, wired by hand so node 1's address for node 0 can
    // start out pointing at the stuck listener.
    let stuck = stuck_peer();
    let meshes: Vec<Arc<TcpMesh>> = (0..3u16)
        .map(|i| {
            let mut cfg = TcpMeshConfig::new(NodeId(i), "127.0.0.1:0".parse().unwrap());
            cfg.tuning = fast_tuning();
            Arc::new(TcpMesh::bind(cfg).expect("bind mesh"))
        })
        .collect();
    let addrs: Vec<SocketAddr> = meshes.iter().map(|m| m.local_addr()).collect();
    for (i, mesh) in meshes.iter().enumerate() {
        for (j, &addr) in addrs.iter().enumerate() {
            if i == j {
                continue;
            }
            if i == 1 && j == 0 {
                mesh.add_peer(NodeId(0), stuck.addr); // The slow path.
            } else {
                mesh.add_peer(NodeId(j as u16), addr);
            }
        }
    }

    // Long gossip suspicion window: the stalled link must not get
    // node 0 declared dead before the repair lands.
    let config = NodeConfig {
        gossip: GossipConfig {
            suspect_timeout: Duration::from_secs(30),
            ..GossipConfig::default()
        },
        ..NodeConfig::default()
    };
    let nodes: Vec<Node> = meshes
        .iter()
        .map(|m| node_over(Arc::clone(m), config.clone()))
        .collect();
    let cap = nodes[0]
        .create_object(CounterType::NAME, &[Value::I64(0)])
        .unwrap();

    // Repair the link mid-flight: after 400 ms node 1 learns node 0's
    // real address and the next dial attempt succeeds.
    let client_mesh = Arc::clone(&meshes[1]);
    let real0 = addrs[0];
    let repair = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(400));
        client_mesh.add_peer(NodeId(0), real0);
    });

    let started = Instant::now();
    let out = nodes[1]
        .invoke_with_timeout(cap, "add", &[Value::I64(5)], Duration::from_secs(10))
        .expect("invocation completes once the link is repaired");
    let elapsed = started.elapsed();
    assert_eq!(out, vec![Value::I64(5)]);
    assert!(
        elapsed >= Duration::from_millis(200),
        "the stall must actually delay the invocation, took {elapsed:?}"
    );
    repair.join().unwrap();

    // Stitch every node's spans — exactly what the monitor scrape feeds
    // the report — and attribute the caller's wall clock.
    let spans: Vec<SpanRecord> = nodes
        .iter()
        .flat_map(|n| n.obs().traces().spans())
        .collect();
    let root = nodes[1]
        .obs()
        .traces()
        .spans()
        .into_iter()
        .find(|s| s.name == "invoke" && s.parent_span == 0)
        .expect("client root span");
    let cp = critical_path(&spans, root.trace_id).expect("critical path");
    eprintln!("{}", cp.text_table()); // The EXPERIMENTS.md E15 capture.

    assert_eq!(cp.root_node, 1);
    assert!(
        cp.coverage() >= 0.95,
        "named stages must account for >=95% of the wall clock, got {:.1}% of {} ns:\n{}",
        cp.coverage() * 100.0,
        cp.total_ns,
        cp.text_table()
    );
    let (stage, ns) = cp.dominant_stage().expect("a dominant stage");
    assert_eq!(
        stage,
        "xport-queue",
        "the stall happened in the send queue:\n{}",
        cp.text_table()
    );
    assert!(
        ns >= 100_000_000 && ns * 2 >= cp.total_ns,
        "xport-queue must hold the bulk of {} ns, got {ns} ns:\n{}",
        cp.total_ns,
        cp.text_table()
    );

    for node in &nodes {
        node.shutdown();
    }
}

#[test]
fn watchdog_snapshots_a_non_draining_writer_within_twice_the_deadline() {
    // One node whose only peer is permanently stuck; frames to it queue
    // and never drain.
    let stuck = stuck_peer();
    let mut cfg = TcpMeshConfig::new(NodeId(0), "127.0.0.1:0".parse().unwrap());
    cfg.tuning = fast_tuning();
    cfg.peers.insert(NodeId(9), stuck.addr);
    let mesh = Arc::new(TcpMesh::bind(cfg).expect("bind"));

    let deadline = Duration::from_millis(250);
    let config = NodeConfig {
        watchdog_interval: Duration::from_millis(25),
        watchdog_stall_deadline: deadline,
        ..NodeConfig::default()
    };
    let node = node_over(Arc::clone(&mesh), config);

    let started = Instant::now();
    mesh.send(Frame::to(NodeId(0), NodeId(9), Message::Ping { token: 1 }))
        .expect("enqueue to the stuck peer");

    // The snapshot must land within 2x the stall deadline.
    let budget = 2 * deadline;
    let mut detected = None;
    while started.elapsed() <= budget {
        if node.obs().counter("watchdog.stalls").get() > 0 {
            detected = Some(started.elapsed());
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let detected = detected.unwrap_or_else(|| {
        panic!(
            "no watchdog stall within {budget:?} (stalls={})",
            node.obs().counter("watchdog.stalls").get()
        )
    });
    assert!(detected <= budget, "detected after {detected:?}");

    // The typed event reached the flight recorder...
    let dump = node.obs().recorder().dump(64);
    assert!(
        dump.contains("writer-stall dst node 9"),
        "flight recorder:\n{dump}"
    );

    // ...and the structured snapshot is served through the reserved
    // telemetry object, like any other scrape.
    let reply = node
        .invoke(node_object_cap(NodeId(0)), "get_watchdog", &[])
        .expect("get_watchdog");
    let state = reply.first().and_then(Value::as_map).expect("state map");
    assert!(state.get("stalls").and_then(Value::as_u64).unwrap() >= 1);
    let snapshot = state.get("snapshot").and_then(Value::as_str).unwrap();
    for needle in [
        "watchdog snapshot node=N0",
        "writer-stall",
        "writer-queue dst=N9",
        "threads:",
    ] {
        assert!(
            snapshot.contains(needle),
            "missing {needle:?} in:\n{snapshot}"
        );
    }

    node.shutdown();
}
