//! A node's two receive threads call `recv_batch` on one shared
//! endpoint. Every frame must reach exactly one of them, and each
//! thread must see one sender's frames in send order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use eden_transport::{Endpoint, LoopbackMesh, TcpMesh};
use eden_wire::{Frame, Message};

/// Fewer than the TCP writer's default queue capacity, so no frame sheds.
const N: u64 = 1000;

/// Sends `N` numbered pings from `tx` to `rx` while two threads drain
/// `rx` with `recv_batch`, and checks what each thread took.
fn two_threads_take_every_frame_once(tx: &dyn Endpoint, rx: &dyn Endpoint) {
    let taken = AtomicUsize::new(0);
    let start = Barrier::new(3);
    let deadline = Instant::now() + Duration::from_secs(10);
    let per_thread: Vec<Vec<u64>> = std::thread::scope(|s| {
        let takers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    let mut tokens = Vec::new();
                    while taken.load(Ordering::SeqCst) < N as usize && Instant::now() < deadline {
                        let batch = rx.recv_batch(16, Duration::from_millis(10)).expect("recv");
                        taken.fetch_add(batch.len(), Ordering::SeqCst);
                        tokens.extend(batch.into_iter().map(|f| match f.msg {
                            Message::Ping { token } => token,
                            other => panic!("unexpected frame {other:?}"),
                        }));
                    }
                    tokens
                })
            })
            .collect();
        start.wait();
        for token in 0..N {
            tx.send(Frame::to(tx.node(), rx.node(), Message::Ping { token }))
                .expect("send");
        }
        takers
            .into_iter()
            .map(|t| t.join().expect("receiving thread"))
            .collect()
    });
    for tokens in &per_thread {
        assert!(
            tokens.windows(2).all(|w| w[0] < w[1]),
            "a thread saw the sender's frames out of order"
        );
    }
    let mut all: Vec<u64> = per_thread.concat();
    all.sort_unstable();
    assert_eq!(all, (0..N).collect::<Vec<_>>(), "every frame exactly once");
}

#[test]
fn loopback_endpoint_shared_by_two_receivers_delivers_each_frame_once() {
    let mesh = LoopbackMesh::new(2);
    two_threads_take_every_frame_once(&*mesh.endpoint(0), &*mesh.endpoint(1));
}

#[test]
fn tcp_endpoint_shared_by_two_receivers_delivers_each_frame_once() {
    let meshes = TcpMesh::bind_local_cluster(2).expect("cluster");
    two_threads_take_every_frame_once(&meshes[0], &meshes[1]);
}
