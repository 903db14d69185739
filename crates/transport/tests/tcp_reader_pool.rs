//! The multiplexed receive path: inbound connections share a small
//! fixed pool of reader threads (`eden-tcp-rdr-*`) instead of spawning
//! one thread per connection, so the kernel's thread count stays flat
//! as peers scale. Kept in its own test binary so sibling tests'
//! threads cannot confuse the per-name counting.

#![cfg(target_os = "linux")]

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use eden_capability::NodeId;
use eden_transport::{Endpoint, TcpMesh, TcpTuning};
use eden_wire::{Frame, Message, WireEncode};

/// Inbound connections driven at the server — well past the pool size.
const CONNECTIONS: usize = 64;
/// The configured reader-pool cap.
const READERS: usize = 4;

/// Live threads in this process whose name marks them as TCP readers.
/// Thread names truncate at 15 bytes, so `eden-tcp-rdr-0-3` shows up
/// as `eden-tcp-rdr-0-`; the pool prefix survives the cut.
fn reader_threads_alive() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter(|entry| {
            let Ok(entry) = entry else { return false };
            std::fs::read_to_string(entry.path().join("comm"))
                .map(|comm| comm.starts_with("eden-tcp-rdr-"))
                .unwrap_or(false)
        })
        .count()
}

#[test]
fn sixty_four_connections_share_a_fixed_reader_pool() {
    let tuning = TcpTuning {
        reader_threads: READERS,
        ..TcpTuning::default()
    };
    let meshes = TcpMesh::bind_local_cluster_with(1, tuning).expect("bind");
    let mesh = &meshes[0];
    let addr = mesh.local_addr();

    // 64 raw inbound connections, each delivering one frame. The
    // streams stay open for the whole test: a per-connection-thread
    // design would be pinned at 64 readers here.
    let mut conns = Vec::with_capacity(CONNECTIONS);
    for i in 0..CONNECTIONS {
        let mut s = TcpStream::connect(addr).expect("connect");
        let frame = Frame::to(
            NodeId((i + 1) as u16),
            NodeId(0),
            Message::Ping { token: i as u64 },
        );
        let payload = frame.encode_to_bytes();
        s.write_all(&(payload.len() as u32).to_le_bytes())
            .expect("write len");
        s.write_all(&payload).expect("write payload");
        conns.push(s);
    }

    // Every frame arrives...
    let deadline = Instant::now() + Duration::from_secs(10);
    while mesh.stats().frames_received < CONNECTIONS as u64 {
        assert!(
            Instant::now() < deadline,
            "only {} of {CONNECTIONS} frames arrived",
            mesh.stats().frames_received
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // ...through exactly the configured pool: the reader count is the
    // cap, not the connection count.
    assert_eq!(mesh.reader_thread_count(), READERS);
    assert_eq!(reader_threads_alive(), READERS);

    // And the frames are really consumable in batches downstream.
    let mut drained = 0usize;
    while drained < CONNECTIONS {
        let batch = mesh
            .recv_batch(CONNECTIONS, Duration::from_secs(2))
            .expect("recv_batch");
        assert!(!batch.is_empty(), "drained only {drained} frames");
        drained += batch.len();
    }

    drop(conns);
    for m in &meshes {
        m.shutdown();
    }
    assert_eq!(
        reader_threads_alive(),
        0,
        "shutdown must reap the reader pool"
    );
}
