//! Integration tests for the TCP send pipeline: duplicate-dial
//! regression, slow-peer isolation, full-queue shedding, the stall
//! probe's queue depth, and the shutdown drain.
//!
//! Dead/slow peers are simulated with the *backlog trick*: bind a
//! listener, never accept, and pre-fill its accept backlog with held
//! connections. Further connects then hang in SYN-sent until the
//! dialer's timeout — unlike an unroutable address, this works even
//! behind the transparent proxies some CI sandboxes run.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use eden_capability::NodeId;
use eden_transport::{Endpoint, TcpMesh, TcpMeshConfig, TcpTuning, TransportError};
use eden_wire::{Frame, Message};

fn ping(token: u64) -> Message {
    Message::Ping { token }
}

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

#[test]
fn concurrent_first_sends_dial_exactly_once() {
    let meshes = TcpMesh::bind_local_cluster(2).expect("cluster");
    let (sender, receiver) = (&meshes[0], &meshes[1]);

    // Eight threads race the first send to a cold peer. The seed's
    // `connection()` dialed outside the map lock, so two racers could
    // both connect and one stream leaked; the pipeline creates the
    // writer (which owns the dial) under the writers lock.
    std::thread::scope(|s| {
        for t in 0..8u64 {
            s.spawn(move || {
                sender
                    .send(Frame::to(NodeId(0), NodeId(1), ping(t)))
                    .expect("send");
            });
        }
    });
    for _ in 0..8 {
        receiver
            .recv_timeout(Duration::from_secs(2))
            .expect("recv")
            .expect("frame before timeout");
    }
    assert_eq!(
        receiver.inbound_connections(),
        1,
        "concurrent first-sends must share one outbound connection"
    );
    assert_eq!(sender.stats().dials, 1);
}

#[test]
fn slow_peer_does_not_block_sends_to_healthy_peers() {
    let meshes = TcpMesh::bind_local_cluster(2).expect("cluster");
    let (a, b) = (&meshes[0], &meshes[1]);
    let stuck = stuck_peer();
    a.add_peer(NodeId(9), stuck.addr);

    // Kick node 9's writer into its (hanging) dial.
    a.send(Frame::to(NodeId(0), NodeId(9), ping(0))).unwrap();
    std::thread::sleep(Duration::from_millis(20));

    // While that dial burns its 500 ms timeout, sends to the healthy
    // peer are plain enqueues: fast and non-blocking.
    const N: u64 = 100;
    let started = Instant::now();
    for i in 0..N {
        a.send(Frame::to(NodeId(0), NodeId(1), ping(i))).unwrap();
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(100),
        "sends to a healthy peer took {elapsed:?} for {N} frames \
         (>1 ms average) while another peer was dialing"
    );
    for _ in 0..N {
        b.recv_timeout(Duration::from_secs(2))
            .expect("recv")
            .expect("frame before timeout");
    }
}

#[test]
fn full_queue_sheds_instead_of_blocking() {
    let stuck = stuck_peer();
    let tuning = TcpTuning {
        queue_cap: 8,
        ..TcpTuning::default()
    };
    let mut config = TcpMeshConfig::new(NodeId(0), "127.0.0.1:0".parse().unwrap());
    config.tuning = tuning;
    config.peers.insert(NodeId(1), stuck.addr);
    let mesh = TcpMesh::bind(config).expect("bind");

    // The peer never answers, so the writer never drains: the first 8
    // frames fill the bounded queue and the rest shed at enqueue time.
    const N: u64 = 100;
    let started = Instant::now();
    for i in 0..N {
        mesh.send(Frame::to(NodeId(0), NodeId(1), ping(i)))
            .expect("best-effort send never errors on a full queue");
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(250),
        "shedding sends must not block; took {elapsed:?}"
    );
    let s = mesh.stats();
    assert_eq!(s.frames_sent, N);
    assert!(
        s.frames_shed >= N - 8,
        "expected ~{} shed frames, saw {}",
        N - 8,
        s.frames_shed
    );
    assert!(s.frames_dropped >= s.frames_shed);
    assert!(s.queue_depth <= 8, "queue depth {} > cap", s.queue_depth);
}

#[test]
fn writer_probe_reports_a_stuck_peers_depth_until_it_drains() {
    let stuck = stuck_peer();
    let mut config = TcpMeshConfig::new(NodeId(0), "127.0.0.1:0".parse().unwrap());
    config.tuning = TcpTuning {
        queue_cap: 4,
        connect_timeout: Duration::from_millis(100),
        dial_backoff_min: Duration::from_millis(10),
        ..TcpTuning::default()
    };
    config.peers.insert(NodeId(1), stuck.addr);
    let a = TcpMesh::bind(config).expect("bind");
    let b = TcpMesh::bind(TcpMeshConfig::new(
        NodeId(1),
        "127.0.0.1:0".parse().unwrap(),
    ))
    .expect("bind");
    assert!(a.writer_probe().is_empty(), "no writer, nothing queued");

    // The writer never connects, so it never dequeues: the queue holds
    // its capacity and the rest shed without counting toward the depth.
    for i in 0..10 {
        a.send(Frame::to(NodeId(0), NodeId(1), ping(i))).unwrap();
    }
    let probe = a.writer_probe();
    assert_eq!(probe.len(), 1, "one stuck peer: {probe:?}");
    assert_eq!((probe[0].0, probe[0].2), (NodeId(1), 4));
    assert_eq!(a.stats().frames_shed, 6);

    // Point node 1 at a live endpoint: the next dial connects and the
    // queue drains, counted down at dequeue, before the frames arrive.
    a.add_peer(NodeId(1), b.local_addr());
    for i in 0..4 {
        let frame = b
            .recv_timeout(Duration::from_secs(5))
            .expect("recv")
            .expect("queued frame delivered after the redial");
        assert_eq!(frame.msg, ping(i));
    }
    assert!(a.writer_probe().is_empty(), "drained queue reported");
}

#[test]
fn closed_endpoint_still_errors() {
    let meshes = TcpMesh::bind_local_cluster(2).expect("cluster");
    meshes[0].shutdown();
    assert_eq!(
        meshes[0].send(Frame::to(NodeId(0), NodeId(1), ping(0))),
        Err(TransportError::Closed)
    );
}

#[test]
fn shutdown_flushes_every_frame_queued_on_a_connected_writer() {
    let meshes = TcpMesh::bind_local_cluster(2).expect("cluster");
    let (a, b) = (&meshes[0], &meshes[1]);
    // Connect first: a writer still dialing at shutdown sheds its queue.
    a.send(Frame::to(NodeId(0), NodeId(1), ping(0))).unwrap();
    b.recv_timeout(Duration::from_secs(2))
        .expect("recv")
        .expect("first frame before timeout");

    // Fewer frames than the queue holds, so none shed at enqueue.
    const N: u64 = 500;
    for i in 1..=N {
        a.send(Frame::to(NodeId(0), NodeId(1), ping(i))).unwrap();
    }
    a.shutdown();
    for i in 1..=N {
        let frame = b
            .recv_timeout(Duration::from_secs(2))
            .expect("recv")
            .unwrap_or_else(|| panic!("frame {i} of {N} lost at shutdown"));
        assert_eq!(frame.msg, ping(i), "frames arrive in send order");
    }
    assert_eq!(a.stats().frames_dropped, 0);
}
