//! E13 — TCP transport throughput: per-frame sync sends vs the
//! coalescing send pipeline.
//!
//! The seed `TcpMesh::send` ran on the caller's thread: per-connection
//! mutex, two `write_all` syscalls per frame (length prefix, payload),
//! and a synchronous 500 ms dial whenever the peer was cold or dead.
//! The send pipeline (DESIGN.md S26) moves all of that to one writer
//! thread per peer: `send()` is a bounded-queue enqueue, the writer
//! coalesces everything pending into a single `write` syscall, and
//! dialing happens in the background with exponential backoff.
//!
//! Two measurements on a 4-endpoint loopback cluster:
//!
//! * **small-frame throughput** — one sender floods its three peers
//!   with `Ping` frames; the clock stops when every receiver has its
//!   full count. The baseline emulates the seed path faithfully but
//!   generously: streams are pre-connected (no dial cost on the
//!   measured path), receivers are identical `TcpMesh` endpoints, so
//!   only the sender-side discipline differs. Acceptance: the pipeline
//!   sustains at least twice the baseline rate.
//!
//! * **dead-peer isolation** — one cycle sends a frame to each healthy
//!   peer plus one to a peer whose accept backlog is full (dials hang
//!   for the whole connect timeout — the "backlog trick", which works
//!   even where unroutable addresses don't). The seed path eats the
//!   500 ms dial *on the caller's thread* every cycle; the pipeline's
//!   cycles stay in microseconds while the stuck peer's writer backs
//!   off in the background and its queue sheds.

use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use eden_capability::NodeId;
use eden_transport::{Endpoint, TcpMesh, TcpTuning};
use eden_wire::{Frame, Message, WireEncode};

use crate::artifact_path;
use crate::table::Table;

/// Frames sent to each of the three healthy peers in the throughput run.
const FRAMES_PER_PEER: u64 = 10_000;
/// Healthy receivers in the cluster (plus the sender = 4 endpoints).
const PEERS: u64 = 3;
/// Dead-peer cycles driven through the pipeline.
const PIPELINE_CYCLES: u64 = 1_000;
/// Dead-peer cycles driven through the seed path: each one stalls for
/// the full 500 ms connect timeout, so a handful suffices.
const BASELINE_CYCLES: u64 = 3;

fn ping(token: u64) -> Message {
    Message::Ping { token }
}

/// A listener whose accept backlog is pre-filled: dialing `addr` hangs
/// until the dialer's connect timeout instead of completing.
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
            Err(_) => break,
        }
    }
    StuckPeer {
        _listener: listener,
        _held: held,
        addr,
    }
}

/// The seed send path, emulated outside the kernel: one pre-connected
/// stream per peer behind a mutex, two `write_all` syscalls per frame.
struct SeedSender {
    conns: HashMap<NodeId, Mutex<TcpStream>>,
}

impl SeedSender {
    fn connect(peers: &[(NodeId, SocketAddr)]) -> SeedSender {
        let conns = peers
            .iter()
            .map(|&(node, addr)| {
                let s = TcpStream::connect_timeout(&addr, Duration::from_millis(500))
                    .expect("baseline pre-connect");
                s.set_nodelay(true).expect("nodelay");
                (node, Mutex::new(s))
            })
            .collect();
        SeedSender { conns }
    }

    /// One seed-style send: length prefix, then payload, each its own
    /// syscall under the per-connection lock.
    fn send(&self, dst: NodeId, frame: &Frame) {
        let payload = frame.encode_to_bytes();
        let mut conn = self
            .conns
            .get(&dst)
            .expect("known peer")
            .lock()
            .expect("unpoisoned");
        conn.write_all(&(payload.len() as u32).to_le_bytes())
            .expect("write len");
        conn.write_all(&payload).expect("write payload");
    }
}

/// Waits until every receiver reports `per_peer` delivered frames.
fn await_delivery(receivers: &[&TcpMesh], per_peer: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if receivers
            .iter()
            .all(|m| m.stats().frames_received >= per_peer)
        {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "receivers never drained: {:?}",
            receivers
                .iter()
                .map(|m| m.stats().frames_received)
                .collect::<Vec<_>>()
        );
        std::thread::yield_now();
    }
}

/// Throughput of the emulated seed path: frames/s over the full
/// flood-and-drain, plus the payload size used.
fn baseline_throughput() -> (f64, usize) {
    let receivers = TcpMesh::bind_local_cluster(PEERS as usize).expect("receivers");
    let peers: Vec<(NodeId, SocketAddr)> = receivers
        .iter()
        .map(|m| (m.node(), m.local_addr()))
        .collect();
    let sender = SeedSender::connect(&peers);
    let probe = Frame::to(NodeId(7), NodeId(0), ping(0));
    let payload_bytes = probe.encode_to_bytes().len();

    let refs: Vec<&TcpMesh> = receivers.iter().collect();
    let start = Instant::now();
    for i in 0..FRAMES_PER_PEER {
        for &(node, _) in &peers {
            sender.send(node, &Frame::to(NodeId(7), node, ping(i)));
        }
    }
    await_delivery(&refs, FRAMES_PER_PEER);
    let secs = start.elapsed().as_secs_f64();
    for m in &receivers {
        m.shutdown();
    }
    ((FRAMES_PER_PEER * PEERS) as f64 / secs, payload_bytes)
}

/// Throughput of the send pipeline, plus the batch count it needed
/// (fewer batches than frames = coalescing happened).
fn pipeline_throughput() -> (f64, u64) {
    // A deep queue so the flood measures coalescing, not shedding: the
    // run is only valid if every frame is delivered (asserted below).
    let tuning = TcpTuning {
        queue_cap: 1 << 16,
        ..TcpTuning::default()
    };
    let meshes = TcpMesh::bind_local_cluster_with(1 + PEERS as usize, tuning).expect("cluster");
    let (sender, receivers) = meshes.split_first().expect("non-empty");
    let src = sender.node();

    let refs: Vec<&TcpMesh> = receivers.iter().collect();
    let start = Instant::now();
    for i in 0..FRAMES_PER_PEER {
        for m in receivers {
            sender
                .send(Frame::to(src, m.node(), ping(i)))
                .expect("send");
        }
    }
    await_delivery(&refs, FRAMES_PER_PEER);
    let secs = start.elapsed().as_secs_f64();
    let stats = sender.stats();
    assert_eq!(stats.frames_dropped, 0, "throughput run must not shed");
    let batches = stats.batches_sent;
    for m in &meshes {
        m.shutdown();
    }
    ((FRAMES_PER_PEER * PEERS) as f64 / secs, batches)
}

/// Max caller-side cycle latency (seconds) when each cycle sends one
/// frame to every healthy peer and one to a stuck peer, on the seed
/// path: the stuck peer costs a synchronous 500 ms dial per cycle.
pub fn baseline_dead_peer_cycle() -> f64 {
    let receivers = TcpMesh::bind_local_cluster(PEERS as usize).expect("receivers");
    let peers: Vec<(NodeId, SocketAddr)> = receivers
        .iter()
        .map(|m| (m.node(), m.local_addr()))
        .collect();
    let sender = SeedSender::connect(&peers);
    let stuck = stuck_peer();

    let mut worst = 0f64;
    for i in 0..BASELINE_CYCLES {
        let start = Instant::now();
        for &(node, _) in &peers {
            sender.send(node, &Frame::to(NodeId(7), node, ping(i)));
        }
        // The seed path had no connection to the dead peer, so every
        // send re-dialed synchronously and ate the full timeout.
        let _ = TcpStream::connect_timeout(&stuck.addr, Duration::from_millis(500));
        worst = worst.max(start.elapsed().as_secs_f64());
    }
    for m in &receivers {
        m.shutdown();
    }
    worst
}

/// Max caller-side cycle latency (seconds) for the same cycle through
/// the pipeline, plus the sender's (shed, dial_failures) counters —
/// proof the stuck peer was really backing off in the background.
pub fn pipeline_dead_peer_cycle() -> (f64, u64, u64) {
    let meshes = TcpMesh::bind_local_cluster(1 + PEERS as usize).expect("cluster");
    let (sender, receivers) = meshes.split_first().expect("non-empty");
    let src = sender.node();
    let stuck = stuck_peer();
    let dead = NodeId(9);
    sender.add_peer(dead, stuck.addr);

    let mut worst = 0f64;
    for i in 0..PIPELINE_CYCLES {
        let start = Instant::now();
        for m in receivers {
            sender
                .send(Frame::to(src, m.node(), ping(i)))
                .expect("send");
        }
        sender.send(Frame::to(src, dead, ping(i))).expect("send");
        worst = worst.max(start.elapsed().as_secs_f64());
    }
    let stats = sender.stats();
    for m in &meshes {
        m.shutdown();
    }
    (worst, stats.frames_shed, stats.dial_failures)
}

/// Renders a machine-readable artifact alongside the printed table.
fn write_artifact(
    payload_bytes: usize,
    baseline_fps: f64,
    pipeline_fps: f64,
    batches: u64,
    baseline_cycle_s: f64,
    pipeline_cycle_s: f64,
) {
    let json = format!(
        "{{\n  \"experiment\": \"e13\",\n  \"frames\": {},\n  \"payload_bytes\": {},\n  \
         \"baseline_frames_per_sec\": {:.0},\n  \"pipeline_frames_per_sec\": {:.0},\n  \
         \"speedup\": {:.2},\n  \"pipeline_batches\": {},\n  \
         \"baseline_dead_peer_cycle_ms\": {:.1},\n  \"pipeline_dead_peer_cycle_ms\": {:.3}\n}}\n",
        FRAMES_PER_PEER * PEERS,
        payload_bytes,
        baseline_fps,
        pipeline_fps,
        pipeline_fps / baseline_fps,
        batches,
        baseline_cycle_s * 1e3,
        pipeline_cycle_s * 1e3,
    );
    let path = artifact_path("BENCH_E13.json");
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Runs E13 and returns the table.
pub fn run() -> Table {
    // Warm-up: first-run costs (allocator, lazy statics, listener
    // setup) must not bias whichever variant goes first.
    let _ = pipeline_throughput();

    let (baseline_fps, payload_bytes) = baseline_throughput();
    let (pipeline_fps, batches) = pipeline_throughput();
    let baseline_cycle = baseline_dead_peer_cycle();
    let (pipeline_cycle, shed, dial_failures) = pipeline_dead_peer_cycle();

    let mut t = Table::new(
        format!(
            "E13 — TCP transport: 1 sender -> {PEERS} receivers, \
             {FRAMES_PER_PEER} x {payload_bytes}-byte frames per peer"
        ),
        &["send path", "frames/s", "dead-peer cycle (max)"],
    );
    t.row(vec![
        "seed: sync per-frame writes, sync dial".into(),
        format!("{baseline_fps:.0}"),
        format!("{:.0} ms ({BASELINE_CYCLES} cycles)", baseline_cycle * 1e3),
    ]);
    t.row(vec![
        format!("pipeline: coalescing writers ({batches} batches)"),
        format!("{pipeline_fps:.0}"),
        format!("{:.3} ms ({PIPELINE_CYCLES} cycles)", pipeline_cycle * 1e3),
    ]);
    t.note(format!(
        "speedup {:.2}x (acceptance: >=2x); a cycle = one send to each \
         healthy peer + one to a peer whose dials hang",
        pipeline_fps / baseline_fps
    ));
    t.note(format!(
        "stuck peer stayed in the background: {shed} frames shed at its \
         bounded queue, {dial_failures} dial failures absorbed by backoff"
    ));
    t.note("expected shape: the pipeline wins on syscall count (2 per batch vs 2 per frame) and its dead-peer cycle is enqueue-priced, not dial-priced");
    write_artifact(
        payload_bytes,
        baseline_fps,
        pipeline_fps,
        batches,
        baseline_cycle,
        pipeline_cycle,
    );
    t
}
