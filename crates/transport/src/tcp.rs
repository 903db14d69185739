//! TCP transport for multi-process Eden clusters.
//!
//! Each kernel process binds one [`TcpMesh`] endpoint and declares its
//! peers' addresses. Frames travel length-prefixed over per-destination
//! TCP connections. Broadcast is unicast to every configured peer — on
//! a switched network that is what Ethernet broadcast degenerates to
//! anyway.
//!
//! The send side is an asynchronous per-peer pipeline (see
//! [`writer`](crate::writer)): `send()` is a non-blocking enqueue onto
//! a bounded per-peer queue; a dedicated writer thread per destination
//! coalesces pending frames into single-syscall batches and dials in
//! the background with exponential backoff, so a cold or dead peer
//! never stalls the caller.
//!
//! The receive side is a small *fixed* pool of reader threads
//! (`eden-tcp-rdr-<node>-<i>`) multiplexing every inbound connection
//! over non-blocking sockets: the accept loop hands each new stream to
//! a reader round-robin, and each reader rotates over its connections,
//! draining everything available per pass and decoding complete frames.
//! Each frame's payload is copied once out of the per-connection receive
//! buffer into a `Bytes` of its own, which [`Frame::decode_shared`] then
//! slices without further copies. The copy stays on purpose: a server
//! keeps the results of its last 4,096 served invocations to re-send
//! lost replies, so frames sliced from a shared read buffer would each
//! pin a whole buffer for as long as their results are kept.
//! Everything decoded in one pass is pushed to the kernel as a single
//! `Vec<Frame>` batch — one channel operation per wakeup, however many
//! frames the senders coalesced — which
//! [`Endpoint::recv_batch`] hands through intact. Thread count is
//! [`TcpTuning::reader_threads`] at most, flat as peers scale; the
//! seed's thread-per-connection reader (and its leak of accepted
//! stream handles) is gone.
//!
//! Delivery remains best-effort to match the [`Endpoint`] contract: a
//! peer that is down simply does not receive (its frames shed at the
//! bounded queue, counted as drops); the kernel's timeout and retry
//! machinery is responsible for coping, exactly as over the mesh.
//! A peer that sends garbage (an oversized length prefix or an
//! undecodable frame) has its connection dropped, counted in
//! `stats().inbound_dropped` (`transport.inbound_dropped` in the
//! registry) and recorded as a flight-recorder event naming the peer
//! address and reason — never silently.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::time::Duration;

use bytes::{Bytes, BytesMut};
use eden_capability::NodeId;
use eden_obs::thread::{self, Role};
use eden_obs::{InboundDropReason, KernelEvent, ObsRegistry};
use eden_wire::{Dest, Frame, WireDecode, WireEncode};
use parking_lot::Mutex;

use crate::stats::{TransportCounters, TransportStats};
use crate::writer::{SendPipeline, TcpTuning};
use crate::{Endpoint, TransportError};

/// Maximum accepted frame size; guards the length prefix on untrusted
/// input (matches the wire codec's sequence limit).
const MAX_FRAME_BYTES: u32 = 64 << 20;

/// Wire overhead per frame: the u32 length prefix. Counted in both
/// `bytes_sent` and `bytes_received` so the monitor's send/recv byte
/// columns agree with each other and with the wire.
const LEN_PREFIX_BYTES: usize = 4;

/// How long an idle reader naps between rotation passes. Short enough
/// that shutdown and a quiet connection's next frame are both observed
/// promptly; long enough that 4 idle readers cost ~nothing.
const READER_NAP: Duration = Duration::from_millis(1);

/// Per-pass read budget per connection, so one firehose socket cannot
/// starve the other connections multiplexed onto the same reader.
const READ_BUDGET_PER_PASS: usize = 1 << 20;

/// Static configuration of one TCP endpoint.
#[derive(Debug, Clone)]
pub struct TcpMeshConfig {
    /// This endpoint's node id.
    pub node: NodeId,
    /// Address to listen on (use port 0 to let the OS choose, then read
    /// [`TcpMesh::local_addr`]).
    pub listen: SocketAddr,
    /// Peer node ids and their listen addresses.
    pub peers: HashMap<NodeId, SocketAddr>,
    /// Send-pipeline and reader-pool knobs (queue capacity, coalescing
    /// budget, dial backoff, reader thread count); the defaults suit
    /// small-frame kernel traffic.
    pub tuning: TcpTuning,
}

impl TcpMeshConfig {
    /// A config with default tuning and no peers yet.
    pub fn new(node: NodeId, listen: SocketAddr) -> Self {
        TcpMeshConfig {
            node,
            listen,
            peers: HashMap::new(),
            tuning: TcpTuning::default(),
        }
    }
}

struct TcpInner {
    node: NodeId,
    pipeline: Arc<SendPipeline>,
    /// Readers push whole per-pass decode batches; `recv_batch` pops
    /// them intact, so a coalesced sender batch crosses the channel in
    /// one operation end to end.
    rx_tx: Sender<Vec<Frame>>,
    stats: Arc<TransportCounters>,
    closed: AtomicBool,
    /// Inbound connections accepted so far (test observability for the
    /// one-connection-per-peer invariant).
    inbound_accepted: AtomicU64,
    /// The fixed reader pool's join handles (at most
    /// `tuning.reader_threads`, spawned lazily as connections arrive).
    reader_threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl TcpInner {
    /// Records a dropped inbound connection: counter + flight-recorder
    /// event naming the peer and reason.
    fn note_inbound_drop(&self, peer: SocketAddr, reason: InboundDropReason) {
        self.stats.inbound_dropped.inc();
        if let Some(obs) = self.pipeline.obs() {
            obs.recorder()
                .record(KernelEvent::InboundDropped { peer, reason });
        }
    }
}

/// The receive side of a [`TcpMesh`]. The channel and the rest of a
/// popped batch sit under one lock: a receiver that spilled its batch's
/// rest after another had popped a newer batch would break per-sender
/// order.
struct Inbox {
    /// The readers' per-pass batches.
    rx: Receiver<Vec<Frame>>,
    /// Frames of a popped batch not yet handed out.
    pending: VecDeque<Frame>,
}

/// A TCP-backed [`Endpoint`].
///
/// See `examples/multiprocess_net.rs` for a whole cluster of these, one
/// per OS process.
pub struct TcpMesh {
    inner: Arc<TcpInner>,
    /// A node's two receive threads share it; the receive role lets
    /// only one of them receive at a time, so the lock is uncontended.
    inbox: Mutex<Inbox>,
    local_addr: SocketAddr,
    accept_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl TcpMesh {
    /// Binds the listener and starts the accept loop.
    pub fn bind(config: TcpMeshConfig) -> Result<Self, TransportError> {
        let listener =
            TcpListener::bind(config.listen).map_err(|e| TransportError::Io(e.to_string()))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| TransportError::Io(e.to_string()))?;
        let (rx_tx, rx) = channel();
        let stats = Arc::new(TransportCounters::default());
        let reader_cap = config.tuning.reader_threads.max(1);
        let pipeline =
            SendPipeline::new(config.node, config.peers, config.tuning, Arc::clone(&stats));
        let inner = Arc::new(TcpInner {
            node: config.node,
            pipeline,
            rx_tx,
            stats,
            closed: AtomicBool::new(false),
            inbound_accepted: AtomicU64::new(0),
            reader_threads: Mutex::new(Vec::new()),
        });

        let accept_inner = inner.clone();
        let accept_thread = thread::spawn(Role::TcpAccept, config.node, move || {
            // Reader intake channels, created lazily: the first
            // `reader_cap` connections each bring a reader up; every
            // connection after that joins an existing reader
            // round-robin. A mostly-client endpoint thus runs one
            // reader; a 64-peer server still runs `reader_cap`.
            let mut readers: Vec<Sender<TcpStream>> = Vec::new();
            let mut next = 0usize;
            for stream in listener.incoming() {
                if accept_inner.closed.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                stream.set_nodelay(true).ok();
                accept_inner
                    .inbound_accepted
                    .fetch_add(1, Ordering::Relaxed);
                if readers.len() < reader_cap {
                    let (conn_tx, conn_rx) = channel();
                    let reader_inner = accept_inner.clone();
                    let tag = format!("{}-{}", reader_inner.node, readers.len());
                    let spawned = thread::spawn(Role::TcpReader, tag, move || {
                        reader_loop(&reader_inner, &conn_rx)
                    });
                    if let Ok(handle) = spawned {
                        accept_inner.reader_threads.lock().push(handle);
                        readers.push(conn_tx);
                    }
                }
                if readers.is_empty() {
                    continue; // Spawn failed; drop the connection.
                }
                let slot = next % readers.len();
                next = next.wrapping_add(1);
                let _ = readers[slot].send(stream);
            }
        })
        .map_err(|e| TransportError::Io(e.to_string()))?;

        Ok(TcpMesh {
            inner,
            inbox: Mutex::new(Inbox {
                rx,
                pending: VecDeque::new(),
            }),
            local_addr,
            accept_thread: Mutex::new(Some(accept_thread)),
        })
    }

    /// The actual bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Registers (or updates) a peer after construction.
    pub fn add_peer(&self, node: NodeId, addr: SocketAddr) {
        self.inner.pipeline.add_peer(node, addr);
    }

    /// Inbound connections accepted over this endpoint's lifetime.
    /// One live peer dials at most once (its writer owns the
    /// connection), so tests assert this stays at the peer count.
    pub fn inbound_connections(&self) -> u64 {
        self.inner.inbound_accepted.load(Ordering::Relaxed)
    }

    /// Reader threads currently live — bounded by
    /// [`TcpTuning::reader_threads`] no matter how many connections are
    /// accepted (the reader-pool invariant the E16 experiment asserts).
    pub fn reader_thread_count(&self) -> usize {
        self.inner.reader_threads.lock().len()
    }

    /// Binds `n` endpoints on ephemeral loopback ports, fully meshed —
    /// the in-process test harness for the TCP path.
    pub fn bind_local_cluster(n: usize) -> Result<Vec<TcpMesh>, TransportError> {
        Self::bind_local_cluster_with(n, TcpTuning::default())
    }

    /// [`TcpMesh::bind_local_cluster`] with explicit pipeline tuning.
    pub fn bind_local_cluster_with(
        n: usize,
        tuning: TcpTuning,
    ) -> Result<Vec<TcpMesh>, TransportError> {
        let mut meshes = Vec::with_capacity(n);
        for i in 0..n {
            meshes.push(TcpMesh::bind(TcpMeshConfig {
                node: NodeId(i as u16),
                listen: "127.0.0.1:0".parse().expect("literal addr"),
                peers: HashMap::new(),
                tuning: tuning.clone(),
            })?);
        }
        let addrs: Vec<SocketAddr> = meshes.iter().map(|m| m.local_addr()).collect();
        for (i, mesh) in meshes.iter().enumerate() {
            for (j, &addr) in addrs.iter().enumerate() {
                if i != j {
                    mesh.add_peer(NodeId(j as u16), addr);
                }
            }
        }
        Ok(meshes)
    }
}

/// One inbound connection multiplexed onto a reader: its non-blocking
/// stream, who is on the other end, and the accumulation buffer partial
/// frames wait in between passes.
struct InboundConn {
    stream: TcpStream,
    peer: SocketAddr,
    buf: BytesMut,
}

/// Why a reader cut an inbound connection (EOF and plain I/O errors are
/// ordinary churn and carry no event).
enum ConnFate {
    /// Still open; `true` if the pass read any bytes.
    Open(bool),
    /// EOF or I/O error: the peer went away. Normal.
    Gone,
    /// Protocol violation: drop and record.
    Poisoned(InboundDropReason),
}

/// One reader of the fixed pool: adopts connections assigned by the
/// accept loop, rotates over them draining whatever is readable, and
/// pushes each pass's decoded frames as one batch.
fn reader_loop(inner: &Arc<TcpInner>, intake: &Receiver<TcpStream>) {
    let mut conns: Vec<InboundConn> = Vec::new();
    let mut chunk = vec![0u8; 64 << 10];
    let mut batch: Vec<Frame> = Vec::new();
    loop {
        if inner.closed.load(Ordering::Acquire) {
            return;
        }
        // Adopt newly assigned connections.
        loop {
            match intake.try_recv() {
                Ok(stream) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let peer = stream
                        .peer_addr()
                        .unwrap_or_else(|_| "0.0.0.0:0".parse().expect("literal addr"));
                    conns.push(InboundConn {
                        stream,
                        peer,
                        buf: BytesMut::new(),
                    });
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    if conns.is_empty() {
                        return; // Accept loop gone and nothing to drain.
                    }
                    break;
                }
            }
        }
        // One rotation pass over every connection.
        let mut progress = false;
        let mut i = 0;
        while i < conns.len() {
            match pump_conn(inner, &mut conns[i], &mut chunk, &mut batch) {
                ConnFate::Open(advanced) => {
                    progress |= advanced;
                    i += 1;
                }
                ConnFate::Gone => {
                    conns.swap_remove(i);
                }
                ConnFate::Poisoned(reason) => {
                    let peer = conns[i].peer;
                    inner.note_inbound_drop(peer, reason);
                    conns.swap_remove(i);
                }
            }
        }
        if !batch.is_empty() {
            progress = true;
            if inner.rx_tx.send(std::mem::take(&mut batch)).is_err() {
                return;
            }
        }
        if !progress {
            std::thread::sleep(READER_NAP);
        }
    }
}

/// Drains one connection's readable bytes (up to the per-pass budget)
/// and decodes every complete frame into `batch`.
fn pump_conn(
    inner: &TcpInner,
    conn: &mut InboundConn,
    chunk: &mut [u8],
    batch: &mut Vec<Frame>,
) -> ConnFate {
    let mut advanced = false;
    let mut budget = READ_BUDGET_PER_PASS;
    let mut eof = false;
    while budget > 0 {
        match conn.stream.read(chunk) {
            Ok(0) => {
                eof = true;
                break;
            }
            Ok(n) => {
                conn.buf.extend_from_slice(&chunk[..n]);
                advanced = true;
                budget = budget.saturating_sub(n);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                eof = true; // Connection error: deliver what we have, then drop.
                break;
            }
        }
    }
    // Decode every complete frame accumulated so far. Each payload is
    // copied into one `Bytes` of its own (see the module doc for why it
    // does not slice the read buffer), which `decode_shared` slices
    // without further copies; the buffer compacts once per pass, not per
    // frame.
    let mut consumed = 0usize;
    loop {
        let avail = conn.buf.len() - consumed;
        if avail < LEN_PREFIX_BYTES {
            break;
        }
        let len = u32::from_le_bytes(
            conn.buf[consumed..consumed + LEN_PREFIX_BYTES]
                .try_into()
                .expect("4 bytes"),
        );
        if len > MAX_FRAME_BYTES {
            return ConnFate::Poisoned(InboundDropReason::Oversized);
        }
        let total = LEN_PREFIX_BYTES + len as usize;
        if avail < total {
            break;
        }
        let payload: Bytes =
            Bytes::copy_from_slice(&conn.buf[consumed + LEN_PREFIX_BYTES..consumed + total]);
        consumed += total;
        let Ok(frame) = Frame::decode_shared(&payload) else {
            // The stream is unsynchronized; nothing after this point can
            // be trusted to be framed correctly.
            return ConnFate::Poisoned(InboundDropReason::Codec);
        };
        inner.stats.received(total);
        batch.push(frame);
    }
    if consumed > 0 {
        conn.buf.advance(consumed);
    }
    if eof {
        ConnFate::Gone
    } else {
        ConnFate::Open(advanced)
    }
}

impl Endpoint for TcpMesh {
    fn node(&self) -> NodeId {
        self.inner.node
    }

    fn send(&self, frame: Frame) -> Result<(), TransportError> {
        if self.inner.closed.load(Ordering::Acquire) {
            return Err(TransportError::Closed);
        }
        thread_local! {
            // Encode scratch: frames split off a reused allocation, so
            // the steady state allocates no per-frame BytesMut.
            static SCRATCH: RefCell<BytesMut> = RefCell::new(BytesMut::new());
        }
        let payload: Bytes =
            SCRATCH.with(|scratch| frame.encode_reusing(&mut scratch.borrow_mut()));
        self.inner.stats.sent(payload.len() + LEN_PREFIX_BYTES);
        match frame.dst {
            Dest::Node(dst) => self
                .inner
                .pipeline
                .enqueue_unicast(dst, payload, frame.trace)?,
            Dest::Broadcast => self.inner.pipeline.broadcast(payload, frame.trace),
        }
        Ok(())
    }

    fn recv(&self) -> Result<Frame, TransportError> {
        let mut inbox = self.inbox.lock();
        if inbox.pending.is_empty() {
            let batch = inbox.rx.recv().map_err(|_| TransportError::Closed)?;
            inbox.pending.extend(batch);
        }
        Ok(inbox
            .pending
            .pop_front()
            .expect("readers never send empty batches"))
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Frame>, TransportError> {
        Ok(self.recv_batch(1, timeout)?.pop())
    }

    fn recv_batch(&self, max: usize, timeout: Duration) -> Result<Vec<Frame>, TransportError> {
        let max = max.max(1);
        let mut guard = self.inbox.lock();
        let inbox = &mut *guard;
        if inbox.pending.is_empty() {
            match inbox.rx.recv_timeout(timeout) {
                Ok(batch) => inbox.pending.extend(batch),
                Err(RecvTimeoutError::Timeout) => return Ok(Vec::new()),
                Err(RecvTimeoutError::Disconnected) => return Err(TransportError::Closed),
            }
        }
        // Opportunistically top up from batches already queued, without
        // blocking again.
        while inbox.pending.len() < max {
            match inbox.rx.try_recv() {
                Ok(batch) => inbox.pending.extend(batch),
                Err(_) => break,
            }
        }
        let take = inbox.pending.len().min(max);
        Ok(inbox.pending.drain(..take).collect())
    }

    fn peers(&self) -> Vec<NodeId> {
        self.inner.pipeline.peer_ids()
    }

    fn stats(&self) -> TransportStats {
        let mut s = self.inner.stats.snapshot();
        s.queue_depth = self.inner.pipeline.queue_depth();
        s
    }

    fn attach_obs(&self, obs: Arc<ObsRegistry>) {
        self.inner.pipeline.attach_obs(obs);
    }

    fn writer_probe(&self) -> Vec<(NodeId, u64, u64)> {
        self.inner.pipeline.stall_probe()
    }

    fn shutdown(&self) {
        self.inner.closed.store(true, Ordering::Release);
        // Drain and join the per-peer writers first (graceful flush)...
        self.inner.pipeline.shutdown();
        // ...poke the listener so the accept loop observes the closed
        // flag,...
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_millis(100));
        if let Some(h) = self.accept_thread.lock().take() {
            let _ = h.join();
        }
        // ...and join the readers — they never block in reads (the
        // sockets are non-blocking), so they observe the flag within one
        // nap: drop(TcpMesh) leaves no live threads.
        for h in self.inner.reader_threads.lock().drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for TcpMesh {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eden_wire::Message;

    fn ping(token: u64) -> Message {
        Message::Ping { token }
    }

    #[test]
    fn two_endpoints_exchange_frames() {
        let meshes = TcpMesh::bind_local_cluster(2).unwrap();
        let (a, b) = (&meshes[0], &meshes[1]);
        a.send(Frame::to(NodeId(0), NodeId(1), ping(1))).unwrap();
        let got = b.recv_timeout(Duration::from_secs(2)).unwrap().unwrap();
        assert_eq!(got.msg, ping(1));
        assert_eq!(got.src, NodeId(0));

        b.send(Frame::to(NodeId(1), NodeId(0), ping(2))).unwrap();
        let got = a.recv_timeout(Duration::from_secs(2)).unwrap().unwrap();
        assert_eq!(got.msg, ping(2));
    }

    #[test]
    fn frames_are_fifo_per_sender() {
        let meshes = TcpMesh::bind_local_cluster(2).unwrap();
        let (a, b) = (&meshes[0], &meshes[1]);
        for i in 0..200 {
            a.send(Frame::to(NodeId(0), NodeId(1), ping(i))).unwrap();
        }
        for i in 0..200 {
            let got = b.recv_timeout(Duration::from_secs(2)).unwrap().unwrap();
            assert_eq!(got.msg, ping(i));
        }
    }

    #[test]
    fn recv_batch_returns_coalesced_frames() {
        let meshes = TcpMesh::bind_local_cluster(2).unwrap();
        let (a, b) = (&meshes[0], &meshes[1]);
        for i in 0..100 {
            a.send(Frame::to(NodeId(0), NodeId(1), ping(i))).unwrap();
        }
        let mut got = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while got.len() < 100 && std::time::Instant::now() < deadline {
            got.extend(b.recv_batch(64, Duration::from_millis(200)).unwrap());
        }
        assert_eq!(got.len(), 100);
        // FIFO per sender holds across batch boundaries.
        for (i, f) in got.iter().enumerate() {
            assert_eq!(f.msg, ping(i as u64));
        }
    }

    #[test]
    fn recv_batch_interleaves_with_single_frame_recv() {
        let meshes = TcpMesh::bind_local_cluster(2).unwrap();
        let (a, b) = (&meshes[0], &meshes[1]);
        for i in 0..10 {
            a.send(Frame::to(NodeId(0), NodeId(1), ping(i))).unwrap();
        }
        // A single-frame recv may buffer the rest of its batch; the
        // following recv_batch must deliver those buffered frames first.
        let first = b.recv_timeout(Duration::from_secs(2)).unwrap().unwrap();
        assert_eq!(first.msg, ping(0));
        let mut got = vec![first];
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while got.len() < 10 && std::time::Instant::now() < deadline {
            got.extend(b.recv_batch(8, Duration::from_millis(200)).unwrap());
        }
        for (i, f) in got.iter().enumerate() {
            assert_eq!(f.msg, ping(i as u64));
        }
    }

    #[test]
    fn broadcast_reaches_all_peers() {
        let meshes = TcpMesh::bind_local_cluster(3).unwrap();
        meshes[0]
            .send(Frame::broadcast(NodeId(0), ping(9)))
            .unwrap();
        for m in &meshes[1..] {
            let got = m.recv_timeout(Duration::from_secs(2)).unwrap().unwrap();
            assert_eq!(got.msg, ping(9));
        }
    }

    #[test]
    fn unknown_unicast_peer_is_an_error() {
        let meshes = TcpMesh::bind_local_cluster(1).unwrap();
        assert_eq!(
            meshes[0].send(Frame::to(NodeId(0), NodeId(42), ping(0))),
            Err(TransportError::UnknownPeer(NodeId(42)))
        );
    }

    #[test]
    fn sending_to_dead_peer_is_best_effort() {
        let meshes = TcpMesh::bind_local_cluster(2).unwrap();
        let dead_addr = meshes[1].local_addr();
        meshes[1].shutdown();
        // Give the OS a moment to release the port.
        std::thread::sleep(Duration::from_millis(50));
        let a = &meshes[0];
        a.add_peer(NodeId(1), dead_addr);
        // Must not error: Ethernet semantics.
        a.send(Frame::to(NodeId(0), NodeId(1), ping(1))).unwrap();
    }

    #[test]
    fn large_frames_survive_the_wire() {
        let meshes = TcpMesh::bind_local_cluster(2).unwrap();
        let blob = vec![0xa5u8; 1 << 20];
        let msg = Message::InvokeRequest {
            inv_id: 1,
            target: eden_capability::Capability::mint(
                eden_capability::NameGenerator::with_epoch(NodeId(0), 1).next_name(),
            ),
            operation: "put".into(),
            args: vec![eden_wire::Value::Blob(bytes::Bytes::from(blob.clone()))],
            reply_to: NodeId(0),
            hops: 1,
        };
        meshes[0]
            .send(Frame::to(NodeId(0), NodeId(1), msg.clone()))
            .unwrap();
        let got = meshes[1]
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .unwrap();
        assert_eq!(got.msg, msg);
    }

    #[test]
    fn stats_track_bytes_on_the_wire() {
        let meshes = TcpMesh::bind_local_cluster(2).unwrap();
        meshes[0]
            .send(Frame::to(NodeId(0), NodeId(1), ping(1)))
            .unwrap();
        meshes[1].recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(meshes[0].stats().frames_sent, 1);
        assert!(meshes[0].stats().bytes_sent > 0);
        assert_eq!(meshes[1].stats().frames_received, 1);
        // Both directions count the length prefix, so one delivered
        // frame reads the same number of bytes on each side.
        assert_eq!(
            meshes[0].stats().bytes_sent,
            meshes[1].stats().bytes_received
        );
    }

    #[test]
    fn oversized_frame_drops_the_connection_and_counts() {
        use std::io::Write;
        let meshes = TcpMesh::bind_local_cluster(1).unwrap();
        let m = &meshes[0];
        let mut raw = TcpStream::connect(m.local_addr()).unwrap();
        // A length prefix past MAX_FRAME_BYTES: hostile or corrupt.
        raw.write_all(&(MAX_FRAME_BYTES + 1).to_le_bytes()).unwrap();
        raw.flush().unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while m.stats().inbound_dropped == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(m.stats().inbound_dropped, 1);
    }

    #[test]
    fn undecodable_frame_drops_the_connection_and_counts() {
        use std::io::Write;
        let meshes = TcpMesh::bind_local_cluster(1).unwrap();
        let m = &meshes[0];
        let mut raw = TcpStream::connect(m.local_addr()).unwrap();
        // A well-framed payload that is not a Frame.
        raw.write_all(&8u32.to_le_bytes()).unwrap();
        raw.write_all(&[0xffu8; 8]).unwrap();
        raw.flush().unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while m.stats().inbound_dropped == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(m.stats().inbound_dropped, 1);
    }

    #[test]
    fn coalescing_batches_are_counted() {
        let meshes = TcpMesh::bind_local_cluster(2).unwrap();
        let (a, b) = (&meshes[0], &meshes[1]);
        for i in 0..64 {
            a.send(Frame::to(NodeId(0), NodeId(1), ping(i))).unwrap();
        }
        for _ in 0..64 {
            b.recv_timeout(Duration::from_secs(2)).unwrap().unwrap();
        }
        let s = a.stats();
        assert_eq!(s.frames_sent, 64);
        assert!(s.batches_sent >= 1, "batches must be counted");
        assert!(
            s.batches_sent <= 64,
            "batches cannot exceed frames: {}",
            s.batches_sent
        );
        assert_eq!(s.dials, 1, "one peer, one dial");
        assert_eq!(s.queue_depth, 0, "queue drained after delivery");
    }

    #[test]
    fn shutdown_is_idempotent_and_closes_send() {
        let meshes = TcpMesh::bind_local_cluster(2).unwrap();
        meshes[0].shutdown();
        meshes[0].shutdown();
        assert_eq!(
            meshes[0].send(Frame::to(NodeId(0), NodeId(1), ping(0))),
            Err(TransportError::Closed)
        );
    }
}

#[cfg(test)]
mod reconnect_tests {
    use super::*;
    use eden_wire::Message;

    #[test]
    fn sender_redials_after_the_peer_restarts() {
        // Endpoint A talks to B; B dies and a new endpoint rebinds the
        // same port; A's next sends reach the reincarnated B.
        let a = TcpMesh::bind(TcpMeshConfig::new(
            NodeId(0),
            "127.0.0.1:0".parse().unwrap(),
        ))
        .unwrap();
        let b1 = TcpMesh::bind(TcpMeshConfig::new(
            NodeId(1),
            "127.0.0.1:0".parse().unwrap(),
        ))
        .unwrap();
        let b_addr = b1.local_addr();
        a.add_peer(NodeId(1), b_addr);

        a.send(Frame::to(NodeId(0), NodeId(1), Message::Ping { token: 1 }))
            .unwrap();
        assert!(b1.recv_timeout(Duration::from_secs(2)).unwrap().is_some());

        // B restarts on the same address.
        b1.shutdown();
        std::thread::sleep(Duration::from_millis(50));
        let b2 =
            TcpMesh::bind(TcpMeshConfig::new(NodeId(1), b_addr)).expect("rebind the released port");

        // A's first send may land on the dead connection (best-effort
        // drop); the redial then delivers. Retry a few times like the
        // kernel's retransmission layer would.
        let mut got = None;
        for token in 10..20 {
            a.send(Frame::to(NodeId(0), NodeId(1), Message::Ping { token }))
                .unwrap();
            if let Some(frame) = b2.recv_timeout(Duration::from_millis(300)).unwrap() {
                got = Some(frame);
                break;
            }
        }
        let frame = got.expect("reconnection must eventually deliver");
        assert!(matches!(frame.msg, Message::Ping { .. }));
        a.shutdown();
        b2.shutdown();
    }
}
