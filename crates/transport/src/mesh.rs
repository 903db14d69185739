//! The in-process loopback mesh.
//!
//! A [`LoopbackMesh`] connects any number of endpoints inside one process
//! with `std::sync::mpsc` channels, optionally shaping traffic with a
//! [`LatencyModel`], seeded random loss, and directed link partitions.
//! The failure controls exist for the reliability experiments: §4.4's
//! checkpoint/reincarnation machinery is exercised by killing nodes and
//! partitioning links mid-run.

use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eden_capability::NodeId;
use eden_obs::{now_ns, Histogram, ObsRegistry};
use eden_wire::{Dest, Frame, Message};
use parking_lot::{Condvar, Mutex, RwLock};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::latency::LatencyModel;
use crate::stats::{TransportCounters, TransportStats};
use crate::{Endpoint, TransportError};

/// Traffic-shaping options for a mesh.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeshOptions {
    /// Delivery delay model.
    pub latency: LatencyModel,
    /// Independent per-frame drop probability in `[0, 1]`.
    pub loss_probability: f64,
    /// Seed for the loss and latency randomness.
    pub seed: u64,
}

impl Default for MeshOptions {
    fn default() -> Self {
        MeshOptions {
            latency: LatencyModel::Zero,
            loss_probability: 0.0,
            seed: 0,
        }
    }
}

/// An approximate encoded size for stats accounting, avoiding a full
/// encode on the loopback fast path.
pub fn message_size_hint(msg: &Message) -> usize {
    match msg {
        Message::InvokeRequest {
            operation, args, ..
        } => 40 + operation.len() + args.iter().map(|v| v.wire_size()).sum::<usize>(),
        Message::InvokeReply { results, .. } => {
            16 + results.iter().map(|v| v.wire_size()).sum::<usize>()
        }
        Message::MoveTransfer { image, .. } => 40 + image.data_size(),
        Message::ReplicaPush { image, .. } => {
            24 + image.as_ref().map(|i| i.data_size()).unwrap_or(0)
        }
        Message::CheckpointPut { image, .. } => 40 + image.data_size(),
        Message::CheckpointData { image, .. } => {
            24 + image.as_ref().map(|i| i.data_size()).unwrap_or(0)
        }
        _ => 32,
    }
}

struct Delayed {
    deliver_at: Instant,
    seq: u64,
    dst: NodeId,
    frame: Frame,
    size: usize,
    enqueue_ns: u64,
}

impl PartialEq for Delayed {
    fn eq(&self, other: &Self) -> bool {
        (self.deliver_at, self.seq) == (other.deliver_at, other.seq)
    }
}
impl Eq for Delayed {}
impl PartialOrd for Delayed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Delayed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the earliest first.
        (other.deliver_at, other.seq).cmp(&(self.deliver_at, self.seq))
    }
}

/// Frames waiting out their delay, with the sequence number the next
/// one gets: equal delivery times keep their send order.
#[derive(Default)]
struct DelayHeap {
    frames: BinaryHeap<Delayed>,
    next_seq: u64,
}

struct DelayLine {
    heap: Mutex<DelayHeap>,
    cv: Condvar,
}

/// A node's observability registry, with its `net.delivery` histogram
/// resolved once at attach.
struct NodeObs {
    obs: Arc<ObsRegistry>,
    delivery: Arc<Histogram>,
}

struct MeshCore {
    options: MeshOptions,
    inboxes: RwLock<HashMap<NodeId, Sender<Frame>>>,
    /// Per-node traffic counters, indexed by node id.
    stats: Vec<Arc<TransportCounters>>,
    /// Directed (src, dst) pairs whose frames are silently dropped.
    blocked: RwLock<HashSet<(NodeId, NodeId)>>,
    /// Per-node observability registries (attached by the kernels).
    obs: RwLock<HashMap<NodeId, NodeObs>>,
    rng: Mutex<SmallRng>,
    closed: AtomicBool,
    delay: Arc<DelayLine>,
}

impl MeshCore {
    /// Delivers (or drops) one unicast frame of `size` hinted bytes
    /// from `src` to `dst`.
    fn route(&self, src: NodeId, dst: NodeId, frame: Frame, size: usize) {
        let enqueue_ns = now_ns();
        if self.blocked.read().contains(&(src, dst)) {
            self.drop_frame(src);
            return;
        }
        let loss = self.options.loss_probability;
        if loss > 0.0 && self.rng.lock().random::<f64>() < loss {
            self.drop_frame(src);
            return;
        }
        let delay = match self.options.latency {
            LatencyModel::Zero => Duration::ZERO,
            latency => latency.sample(size, &mut self.rng.lock()),
        };
        if delay.is_zero() {
            self.deliver(dst, frame, size, enqueue_ns);
        } else {
            let mut heap = self.delay.heap.lock();
            let seq = heap.next_seq;
            heap.next_seq += 1;
            heap.frames.push(Delayed {
                deliver_at: Instant::now() + delay,
                seq,
                dst,
                frame,
                size,
                enqueue_ns,
            });
            drop(heap);
            self.delay.cv.notify_one();
        }
    }

    fn deliver(&self, dst: NodeId, frame: Frame, size: usize, enqueue_ns: u64) {
        let trace = frame.trace;
        let sent = match self.inboxes.read().get(&dst) {
            Some(tx) => tx.send(frame).is_ok(),
            None => return, // Dead node: silent best-effort drop.
        };
        if sent {
            if let Some(counters) = self.stats.get(usize::from(dst.0)) {
                counters.received(size);
            }
            if let Some(node) = self.obs.read().get(&dst) {
                let delivered_ns = now_ns();
                node.delivery
                    .record(delivered_ns.saturating_sub(enqueue_ns));
                if let Some(ctx) = trace {
                    // The wire time, parented onto the sender's span.
                    node.obs.record_span("net", ctx, enqueue_ns, delivered_ns);
                }
            }
        }
    }

    fn drop_frame(&self, src: NodeId) {
        if let Some(counters) = self.stats.get(usize::from(src.0)) {
            counters.frames_dropped.inc();
        }
    }
}

/// A mesh of in-process endpoints.
///
/// # Examples
///
/// ```
/// use eden_transport::{Endpoint, LoopbackMesh};
/// use eden_capability::NodeId;
/// use eden_wire::{Frame, Message};
///
/// let mesh = LoopbackMesh::new(2);
/// let (a, b) = (mesh.endpoint(0), mesh.endpoint(1));
/// a.send(Frame::to(NodeId(0), NodeId(1), Message::Ping { token: 1 })).unwrap();
/// let got = b.recv().unwrap();
/// assert_eq!(got.msg, Message::Ping { token: 1 });
/// ```
pub struct LoopbackMesh {
    core: Arc<MeshCore>,
    endpoints: Vec<Arc<MeshEndpoint>>,
    delay_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

/// One node's attachment to a [`LoopbackMesh`].
pub struct MeshEndpoint {
    node: NodeId,
    core: Arc<MeshCore>,
    /// The inbox. A node's two receive threads share it; the receive
    /// role lets only one of them receive at a time, so the lock is
    /// uncontended.
    rx: Mutex<Receiver<Frame>>,
    stats: Arc<TransportCounters>,
    detached: AtomicBool,
}

impl LoopbackMesh {
    /// A mesh of `n` endpoints with ids `0..n`, zero latency, no loss.
    pub fn new(n: usize) -> Self {
        LoopbackMesh::with_options(n, MeshOptions::default())
    }

    /// A mesh of `n` endpoints with traffic shaping.
    pub fn with_options(n: usize, options: MeshOptions) -> Self {
        let delay = Arc::new(DelayLine {
            heap: Mutex::default(),
            cv: Condvar::new(),
        });
        let mut inboxes = HashMap::new();
        let mut receivers = Vec::with_capacity(n);
        for i in 0..n {
            let (tx, rx) = channel();
            inboxes.insert(NodeId(i as u16), tx);
            receivers.push(rx);
        }
        let core = Arc::new(MeshCore {
            options,
            inboxes: RwLock::new(inboxes),
            stats: (0..n).map(|_| Arc::default()).collect(),
            blocked: RwLock::new(HashSet::new()),
            obs: RwLock::new(HashMap::new()),
            rng: Mutex::new(SmallRng::seed_from_u64(options.seed)),
            closed: AtomicBool::new(false),
            delay,
        });
        let endpoints = receivers
            .into_iter()
            .enumerate()
            .map(|(i, rx)| {
                Arc::new(MeshEndpoint {
                    node: NodeId(i as u16),
                    core: core.clone(),
                    rx: Mutex::new(rx),
                    stats: core.stats[i].clone(),
                    detached: AtomicBool::new(false),
                })
            })
            .collect();

        // The delay-line pump: delivers shaped frames when their time comes.
        let pump_core = core.clone();
        let handle = std::thread::Builder::new()
            .name("eden-mesh-delay".into())
            .spawn(move || {
                let delay = pump_core.delay.clone();
                loop {
                    let mut due: Vec<Delayed> = Vec::new();
                    {
                        let mut heap = delay.heap.lock();
                        loop {
                            if pump_core.closed.load(Ordering::Acquire) {
                                return;
                            }
                            let now = Instant::now();
                            match heap.frames.peek() {
                                Some(d) if d.deliver_at <= now => {
                                    due.push(heap.frames.pop().expect("peeked"));
                                    // Drain everything due before releasing.
                                    continue;
                                }
                                Some(d) => {
                                    if !due.is_empty() {
                                        break;
                                    }
                                    let wait = d.deliver_at - now;
                                    delay.cv.wait_for(&mut heap, wait);
                                }
                                None => {
                                    if !due.is_empty() {
                                        break;
                                    }
                                    // `shutdown` sets `closed` under this
                                    // lock, so its wake-up cannot fall
                                    // between the check above and the wait.
                                    delay.cv.wait(&mut heap);
                                }
                            }
                        }
                    }
                    for d in due {
                        pump_core.deliver(d.dst, d.frame, d.size, d.enqueue_ns);
                    }
                }
            })
            .expect("spawn delay pump");

        LoopbackMesh {
            core,
            endpoints,
            delay_thread: Mutex::new(Some(handle)),
        }
    }

    /// The endpoint for node `i` (panics if out of range).
    pub fn endpoint(&self, i: usize) -> Arc<MeshEndpoint> {
        self.endpoints[i].clone()
    }

    /// Number of endpoints created.
    pub fn len(&self) -> usize {
        self.endpoints.len()
    }

    /// Tests whether the mesh has no endpoints.
    pub fn is_empty(&self) -> bool {
        self.endpoints.is_empty()
    }

    /// Silently drops all traffic in both directions between `a` and `b`.
    pub fn partition(&self, a: NodeId, b: NodeId) {
        let mut blocked = self.core.blocked.write();
        blocked.insert((a, b));
        blocked.insert((b, a));
    }

    /// Restores traffic between `a` and `b`.
    pub fn heal(&self, a: NodeId, b: NodeId) {
        let mut blocked = self.core.blocked.write();
        blocked.remove(&(a, b));
        blocked.remove(&(b, a));
    }

    /// Permanently disconnects `node`: its inbox is removed, so frames to
    /// it vanish and its endpoint's `recv` drains then reports closure.
    pub fn kill(&self, node: NodeId) {
        self.core.inboxes.write().remove(&node);
    }

    /// Shuts the whole mesh down.
    pub fn shutdown(&self) {
        {
            // Under the heap lock, so an idle pump is either before its
            // check of `closed` or already waiting when the notify lands.
            let _heap = self.core.delay.heap.lock();
            self.core.closed.store(true, Ordering::Release);
            self.core.delay.cv.notify_all();
        }
        self.core.inboxes.write().clear();
        if let Some(h) = self.delay_thread.lock().take() {
            let _ = h.join();
        }
    }
}

impl Drop for LoopbackMesh {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Endpoint for MeshEndpoint {
    fn node(&self) -> NodeId {
        self.node
    }

    fn send(&self, frame: Frame) -> Result<(), TransportError> {
        if self.core.closed.load(Ordering::Acquire) || self.detached.load(Ordering::Acquire) {
            return Err(TransportError::Closed);
        }
        let size = message_size_hint(&frame.msg);
        self.stats.sent(size);
        match frame.dst {
            Dest::Node(dst) => {
                self.core.route(self.node, dst, frame, size);
            }
            Dest::Broadcast => {
                let peers: Vec<NodeId> = self
                    .core
                    .inboxes
                    .read()
                    .keys()
                    .copied()
                    .filter(|&p| p != self.node)
                    .collect();
                for p in peers {
                    self.core.route(self.node, p, frame.clone(), size);
                }
            }
        }
        Ok(())
    }

    fn recv(&self) -> Result<Frame, TransportError> {
        self.rx.lock().recv().map_err(|_| TransportError::Closed)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Frame>, TransportError> {
        match self.rx.lock().recv_timeout(timeout) {
            Ok(f) => Ok(Some(f)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(TransportError::Closed),
        }
    }

    fn recv_batch(&self, max: usize, timeout: Duration) -> Result<Vec<Frame>, TransportError> {
        // The inbox is a plain frame channel; batching here is just a
        // non-blocking drain after the first (blocking) pop.
        let max = max.max(1);
        let rx = self.rx.lock();
        let first = match rx.recv_timeout(timeout) {
            Ok(f) => f,
            Err(RecvTimeoutError::Timeout) => return Ok(Vec::new()),
            Err(RecvTimeoutError::Disconnected) => return Err(TransportError::Closed),
        };
        Ok(std::iter::once(first)
            .chain(rx.try_iter().take(max - 1))
            .collect())
    }

    fn peers(&self) -> Vec<NodeId> {
        self.core
            .inboxes
            .read()
            .keys()
            .copied()
            .filter(|&p| p != self.node)
            .collect()
    }

    fn stats(&self) -> TransportStats {
        self.stats.snapshot()
    }

    fn attach_obs(&self, obs: Arc<ObsRegistry>) {
        self.stats.register(&obs);
        let delivery = obs.histogram("net.delivery");
        self.core
            .obs
            .write()
            .insert(self.node, NodeObs { obs, delivery });
    }

    fn shutdown(&self) {
        self.detached.store(true, Ordering::Release);
        self.core.inboxes.write().remove(&self.node);
        self.core.obs.write().remove(&self.node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ping(token: u64) -> Message {
        Message::Ping { token }
    }

    #[test]
    fn unicast_is_fifo_per_sender() {
        let mesh = LoopbackMesh::new(2);
        let a = mesh.endpoint(0);
        let b = mesh.endpoint(1);
        for i in 0..100 {
            a.send(Frame::to(NodeId(0), NodeId(1), ping(i))).unwrap();
        }
        for i in 0..100 {
            assert_eq!(b.recv().unwrap().msg, ping(i));
        }
    }

    #[test]
    fn broadcast_reaches_everyone_but_sender() {
        let mesh = LoopbackMesh::new(4);
        let a = mesh.endpoint(0);
        a.send(Frame::broadcast(NodeId(0), ping(7))).unwrap();
        for i in 1..4 {
            assert_eq!(mesh.endpoint(i).recv().unwrap().msg, ping(7));
        }
        assert_eq!(
            a.recv_timeout(Duration::from_millis(20)).unwrap(),
            None,
            "sender must not hear its own broadcast"
        );
    }

    #[test]
    fn constant_latency_is_applied() {
        let mesh = LoopbackMesh::with_options(
            2,
            MeshOptions {
                latency: LatencyModel::Constant(Duration::from_millis(30)),
                ..Default::default()
            },
        );
        let a = mesh.endpoint(0);
        let b = mesh.endpoint(1);
        let start = Instant::now();
        a.send(Frame::to(NodeId(0), NodeId(1), ping(1))).unwrap();
        b.recv().unwrap();
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(28), "got {elapsed:?}");
    }

    #[test]
    fn delayed_frames_preserve_order_for_equal_delay() {
        let mesh = LoopbackMesh::with_options(
            2,
            MeshOptions {
                latency: LatencyModel::Constant(Duration::from_millis(5)),
                ..Default::default()
            },
        );
        let a = mesh.endpoint(0);
        let b = mesh.endpoint(1);
        for i in 0..50 {
            a.send(Frame::to(NodeId(0), NodeId(1), ping(i))).unwrap();
        }
        for i in 0..50 {
            assert_eq!(b.recv().unwrap().msg, ping(i));
        }
    }

    #[test]
    fn total_loss_drops_everything() {
        let mesh = LoopbackMesh::with_options(
            2,
            MeshOptions {
                loss_probability: 1.0,
                seed: 3,
                ..Default::default()
            },
        );
        let a = mesh.endpoint(0);
        let b = mesh.endpoint(1);
        for i in 0..20 {
            a.send(Frame::to(NodeId(0), NodeId(1), ping(i))).unwrap();
        }
        assert_eq!(b.recv_timeout(Duration::from_millis(30)).unwrap(), None);
        assert_eq!(a.stats().frames_dropped, 20);
    }

    #[test]
    fn partial_loss_is_roughly_proportional() {
        let mesh = LoopbackMesh::with_options(
            2,
            MeshOptions {
                loss_probability: 0.5,
                seed: 42,
                ..Default::default()
            },
        );
        let a = mesh.endpoint(0);
        let b = mesh.endpoint(1);
        let n = 2000;
        for i in 0..n {
            a.send(Frame::to(NodeId(0), NodeId(1), ping(i))).unwrap();
        }
        let mut got = 0;
        while b.recv_timeout(Duration::from_millis(10)).unwrap().is_some() {
            got += 1;
        }
        let rate = got as f64 / n as f64;
        assert!((rate - 0.5).abs() < 0.05, "delivery rate {rate}");
    }

    #[test]
    fn partition_blocks_both_directions_and_heals() {
        let mesh = LoopbackMesh::new(3);
        let a = mesh.endpoint(0);
        let b = mesh.endpoint(1);
        let c = mesh.endpoint(2);
        mesh.partition(NodeId(0), NodeId(1));

        a.send(Frame::to(NodeId(0), NodeId(1), ping(1))).unwrap();
        b.send(Frame::to(NodeId(1), NodeId(0), ping(2))).unwrap();
        assert_eq!(b.recv_timeout(Duration::from_millis(20)).unwrap(), None);
        assert_eq!(a.recv_timeout(Duration::from_millis(20)).unwrap(), None);

        // Third parties are unaffected.
        a.send(Frame::to(NodeId(0), NodeId(2), ping(3))).unwrap();
        assert_eq!(c.recv().unwrap().msg, ping(3));

        mesh.heal(NodeId(0), NodeId(1));
        a.send(Frame::to(NodeId(0), NodeId(1), ping(4))).unwrap();
        assert_eq!(b.recv().unwrap().msg, ping(4));
    }

    #[test]
    fn killed_node_vanishes() {
        let mesh = LoopbackMesh::new(2);
        let a = mesh.endpoint(0);
        mesh.kill(NodeId(1));
        // Sending to the dead node is best-effort, not an error.
        a.send(Frame::to(NodeId(0), NodeId(1), ping(1))).unwrap();
        assert!(!a.peers().contains(&NodeId(1)));
    }

    #[test]
    fn stats_count_frames_and_bytes() {
        let mesh = LoopbackMesh::new(2);
        let a = mesh.endpoint(0);
        let b = mesh.endpoint(1);
        a.send(Frame::to(NodeId(0), NodeId(1), ping(1))).unwrap();
        b.recv().unwrap();
        assert_eq!(a.stats().frames_sent, 1);
        assert_eq!(b.stats().frames_received, 1);
        assert!(b.stats().bytes_received > 0);
    }

    #[test]
    fn shutdown_closes_endpoints() {
        let mesh = LoopbackMesh::new(2);
        let a = mesh.endpoint(0);
        mesh.shutdown();
        assert_eq!(
            a.send(Frame::to(NodeId(0), NodeId(1), ping(1))),
            Err(TransportError::Closed)
        );
        assert_eq!(a.recv(), Err(TransportError::Closed));
    }

    #[test]
    fn shutdown_wakes_an_idle_or_waiting_delay_pump() {
        // The meshes run on a thread of their own, so a `shutdown` that
        // hangs fails the test instead of hanging it.
        let (done_tx, done_rx) = channel();
        std::thread::spawn(move || {
            for _ in 0..200 {
                LoopbackMesh::new(2).shutdown();
            }
            let mesh = LoopbackMesh::with_options(
                2,
                MeshOptions {
                    latency: LatencyModel::Constant(Duration::from_secs(60)),
                    ..Default::default()
                },
            );
            let a = mesh.endpoint(0);
            a.send(Frame::to(NodeId(0), NodeId(1), ping(1))).unwrap();
            mesh.shutdown();
            done_tx.send(()).unwrap();
        });
        assert!(
            done_rx.recv_timeout(Duration::from_secs(30)).is_ok(),
            "a mesh shutdown did not return"
        );
    }

    #[test]
    fn endpoint_shutdown_detaches_only_itself() {
        let mesh = LoopbackMesh::new(3);
        let a = mesh.endpoint(0);
        let b = mesh.endpoint(1);
        let c = mesh.endpoint(2);
        b.shutdown();
        assert_eq!(
            b.send(Frame::to(NodeId(1), NodeId(2), ping(0))),
            Err(TransportError::Closed)
        );
        a.send(Frame::to(NodeId(0), NodeId(2), ping(5))).unwrap();
        assert_eq!(c.recv().unwrap().msg, ping(5));
    }
}
