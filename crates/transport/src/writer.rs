//! The asynchronous per-peer send pipeline behind [`TcpMesh`].
//!
//! `TcpMesh::send` used to run on the caller's thread: per-connection
//! mutex, two `write_all` syscalls per frame, and — worst — a
//! synchronous 500 ms dial when the peer was cold or dead, stalling
//! whatever kernel thread happened to send (the retransmit loop, a
//! virtual-processor worker). This module replaces that with Lampson's
//! two classic cures — *batch* and *background*:
//!
//! * **Queueing model.** Each destination gets one dedicated writer
//!   thread fed by a bounded frame queue. `send()` is a `try_send`
//!   enqueue: it never blocks on the network, and a full queue sheds
//!   the frame (counted in `frames_dropped`/`frames_shed`) instead of
//!   applying backpressure — the best-effort [`Endpoint`] contract.
//!   One queue per peer keeps per-sender FIFO intact and isolates a
//!   slow or dead peer: its queue fills and sheds while every other
//!   peer's pipeline runs at full speed.
//!
//! * **Frame coalescing.** The writer drains its queue in bursts and
//!   packs all pending length-prefixed frames into a single buffer
//!   written with one syscall — one `write` for N frames instead of
//!   2·N, which is the dominant lever for small-frame throughput
//!   (see EXPERIMENTS.md E13).
//!
//! * **Dial state machine.** Disconnected ⇄ Connected. Dialing happens
//!   on the writer thread with exponential backoff plus jitter
//!   (`dial_backoff_min` doubling to `dial_backoff_max`); a successful
//!   write keeps the connection, a failed write drops it, counts the
//!   batch as dropped, and re-enters the dial state. Callers never
//!   observe any of this: frames to an unreachable peer simply shed at
//!   the bounded queue once it fills.
//!
//! * **Shutdown drain.** A connected writer blocks on its queue and
//!   costs nothing while idle. `shutdown()` flips the closed flag and
//!   drops every queue's sender: a connected writer flushes what is
//!   queued and exits when the queue reports it is disconnected; a
//!   disconnected one sheds the remainder (counted). Both exit promptly
//!   enough to be joined.
//!
//! [`TcpMesh`]: crate::TcpMesh
//! [`Endpoint`]: crate::Endpoint

use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::{BufMut, Bytes, BytesMut};
use eden_capability::NodeId;
use eden_obs::trace::stage;
use eden_obs::{now_ns, Gauge, Histogram, ObsRegistry, TraceCtx};
use parking_lot::Mutex;
use rand::Rng;

use crate::stats::TransportCounters;
use crate::TransportError;

/// Tuning knobs for the TCP send pipeline. The defaults are sized for
/// small-frame kernel traffic on a LAN; everything is per-endpoint.
#[derive(Debug, Clone)]
pub struct TcpTuning {
    /// Per-peer bounded send-queue capacity, in frames (0 holds one
    /// frame, as 1 does). A full queue sheds new frames (counted in
    /// `stats().frames_dropped` and `frames_shed`) rather than blocking
    /// the caller.
    pub queue_cap: usize,
    /// TCP connect timeout for each background dial attempt.
    pub connect_timeout: Duration,
    /// Delay before the first redial after a failure; doubles per
    /// consecutive failure, with up to 50% random jitter added so a
    /// cluster restart does not produce synchronized dial storms.
    pub dial_backoff_min: Duration,
    /// Ceiling for the exponential dial backoff.
    pub dial_backoff_max: Duration,
    /// Size of the inbound reader pool: at most this many
    /// `eden-tcp-rdr-*` threads multiplex every accepted connection
    /// (spawned lazily as connections arrive, so an endpoint with one
    /// inbound connection runs one reader). Thread count stays flat as
    /// peers scale; the rotation granularity is ~1ms when idle.
    pub reader_threads: usize,
}

impl Default for TcpTuning {
    fn default() -> Self {
        TcpTuning {
            queue_cap: 1024,
            connect_timeout: Duration::from_millis(500),
            dial_backoff_min: Duration::from_millis(50),
            dial_backoff_max: Duration::from_secs(2),
            reader_threads: 4,
        }
    }
}

/// Coalescing budget: a writer packs queued frames into one write
/// syscall until the batch reaches this many bytes. A single frame
/// larger than the budget still goes out (alone).
const MAX_BATCH_BYTES: usize = 256 << 10;

/// Longest single nap of a writer waiting out its dial backoff, so
/// shutdown is observed promptly even under a long backoff.
const WRITER_NAP: Duration = Duration::from_millis(25);

/// One frame waiting in a peer queue: the encoded payload plus what the
/// critical-path report needs — when it entered the queue, and the
/// trace it belongs to (`None` for untraced frames, which then cost no
/// span work anywhere in the pipeline).
struct QueuedFrame {
    payload: Bytes,
    enqueued_ns: u64,
    trace: Option<TraceCtx>,
}

/// One peer's half of the pipeline: the queue feeding its writer, and
/// the marks its writer shares with the enqueue side.
struct PeerWriter {
    tx: SyncSender<QueuedFrame>,
    marks: Arc<QueueMarks>,
    handle: Option<JoinHandle<()>>,
}

/// What the stall watchdog reads of one peer's queue.
struct QueueMarks {
    /// Frames in the queue, counted like `tcp.send_queue`: up before the
    /// enqueue, down on dequeue or on a failed enqueue.
    depth: AtomicU64,
    /// Nanosecond timestamp of the last observed queue movement —
    /// dequeue, or enqueue onto an empty queue.
    progress_ns: AtomicU64,
}

/// The send side of a [`TcpMesh`]: peer table, per-peer writers, and
/// the metric handles they feed. The handles exist from construction and
/// are published when a registry attaches, so an enqueue or a batch
/// costs a few atomics and no lock beyond the writer table.
///
/// [`TcpMesh`]: crate::TcpMesh
pub(crate) struct SendPipeline {
    node: NodeId,
    tuning: TcpTuning,
    peers: Mutex<HashMap<NodeId, SocketAddr>>,
    writers: Mutex<HashMap<NodeId, PeerWriter>>,
    stats: Arc<TransportCounters>,
    /// `tcp.send_queue`: frames queued across all peers.
    send_queue: Arc<Gauge>,
    /// `tcp.batch_frames`: frames coalesced per write.
    batch_frames: Arc<Histogram>,
    /// `tcp.connected_peers`: writers holding a live connection.
    connected_peers: Arc<Gauge>,
    /// The attached registry, set once: spans and flight-recorder events.
    obs: OnceLock<Arc<ObsRegistry>>,
    closed: AtomicBool,
}

impl SendPipeline {
    pub(crate) fn new(
        node: NodeId,
        peers: HashMap<NodeId, SocketAddr>,
        tuning: TcpTuning,
        stats: Arc<TransportCounters>,
    ) -> Arc<SendPipeline> {
        Arc::new(SendPipeline {
            node,
            tuning,
            peers: Mutex::new(peers),
            writers: Mutex::new(HashMap::new()),
            stats,
            send_queue: Arc::default(),
            batch_frames: Arc::default(),
            connected_peers: Arc::default(),
            obs: OnceLock::new(),
            closed: AtomicBool::new(false),
        })
    }

    pub(crate) fn add_peer(&self, node: NodeId, addr: SocketAddr) {
        self.peers.lock().insert(node, addr);
    }

    pub(crate) fn peer_ids(&self) -> Vec<NodeId> {
        self.peers.lock().keys().copied().collect()
    }

    /// Publishes the endpoint's counters and the pipeline's handles in
    /// `reg` and keeps it for spans and events. Only the first registry
    /// attached is kept.
    pub(crate) fn attach_obs(&self, reg: Arc<ObsRegistry>) {
        self.stats.register(&reg);
        reg.register_gauge("tcp.send_queue", &self.send_queue);
        reg.register_histogram("tcp.batch_frames", &self.batch_frames);
        reg.register_gauge("tcp.connected_peers", &self.connected_peers);
        let _ = self.obs.set(reg);
    }

    /// The attached registry, if any.
    pub(crate) fn obs(&self) -> Option<&Arc<ObsRegistry>> {
        self.obs.get()
    }

    /// Frames currently queued across all peers.
    pub(crate) fn queue_depth(&self) -> u64 {
        self.send_queue.get().max(0) as u64
    }

    /// Enqueues an encoded frame for `dst`. Cheap and non-blocking:
    /// the only failure surfaced to the caller is an unknown peer.
    pub(crate) fn enqueue_unicast(
        self: &Arc<Self>,
        dst: NodeId,
        payload: Bytes,
        trace: Option<TraceCtx>,
    ) -> Result<(), TransportError> {
        if !self.peers.lock().contains_key(&dst) {
            return Err(TransportError::UnknownPeer(dst));
        }
        self.enqueue(dst, payload, trace);
        Ok(())
    }

    /// Enqueues an encoded frame for every known peer.
    pub(crate) fn broadcast(self: &Arc<Self>, payload: Bytes, trace: Option<TraceCtx>) {
        for dst in self.peer_ids() {
            self.enqueue(dst, payload.clone(), trace);
        }
    }

    fn enqueue(self: &Arc<Self>, dst: NodeId, payload: Bytes, trace: Option<TraceCtx>) {
        let mut writers = self.writers.lock();
        // Checked under the lock `shutdown` drains the table with, so no
        // writer is created after shutdown has collected the ones to join.
        if self.closed.load(Ordering::Acquire) {
            self.stats.frames_dropped.inc();
            return;
        }
        // Exactly one writer (and so one outbound connection) per peer,
        // created under this lock: concurrent first-sends to a cold
        // peer cannot race two dials (the seed duplicate-dial leak).
        let writer = writers.entry(dst).or_insert_with(|| {
            // A zero-capacity std channel is a rendezvous; the queue
            // always holds at least one frame.
            let (tx, rx) = sync_channel(self.tuning.queue_cap.max(1));
            let marks = Arc::new(QueueMarks {
                depth: AtomicU64::new(0),
                progress_ns: AtomicU64::new(now_ns()),
            });
            let writer_marks = Arc::clone(&marks);
            let pipe = Arc::clone(self);
            let handle = std::thread::Builder::new()
                .name(format!("eden-tcp-write-{}-{}", self.node, dst))
                .spawn(move || writer_loop(&pipe, dst, &rx, &writer_marks))
                .ok();
            PeerWriter { tx, marks, handle }
        });
        let enqueued_ns = now_ns();
        let marks = &writer.marks;
        // Counted before the frame is visible to the writer, so its
        // decrement can never run first and drive a count negative.
        if marks.depth.fetch_add(1, Ordering::Relaxed) == 0 {
            // An enqueue onto an empty queue counts as progress, so a
            // long-idle peer does not look stalled the instant traffic
            // resumes (the watchdog measures non-drain time, not idle).
            marks.progress_ns.store(enqueued_ns, Ordering::Relaxed);
        }
        self.send_queue.inc();
        let sent = writer.tx.try_send(QueuedFrame {
            payload,
            enqueued_ns,
            trace,
        });
        if let Err(e) = sent {
            marks.depth.fetch_sub(1, Ordering::Relaxed);
            self.send_queue.dec();
            match e {
                TrySendError::Full(_) => self.stats.shed(),
                TrySendError::Disconnected(_) => self.stats.frames_dropped.inc(),
            }
        }
    }

    /// One stall-watchdog probe: every peer whose queue is non-empty,
    /// with how long the queue has gone without movement and its depth.
    pub(crate) fn stall_probe(&self) -> Vec<(NodeId, u64, u64)> {
        let now = now_ns();
        self.writers
            .lock()
            .iter()
            .filter_map(|(&dst, w)| {
                let depth = w.marks.depth.load(Ordering::Relaxed);
                let last = w.marks.progress_ns.load(Ordering::Relaxed);
                (depth > 0).then(|| (dst, now.saturating_sub(last), depth))
            })
            .collect()
    }

    /// Drains and joins every writer. Idempotent.
    pub(crate) fn shutdown(&self) {
        self.closed.store(true, Ordering::Release);
        // Keeping only the handles drops every queue's sender before the
        // first join, so all writers drain their queues concurrently.
        let handles: Vec<JoinHandle<()>> = self
            .writers
            .lock()
            .drain()
            .filter_map(|(_, w)| w.handle)
            .collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

/// One peer's writer: dial state machine plus coalescing drain loop.
fn writer_loop(
    pipe: &Arc<SendPipeline>,
    dst: NodeId,
    rx: &Receiver<QueuedFrame>,
    marks: &QueueMarks,
) {
    let tuning = pipe.tuning.clone();
    let mut conn: Option<TcpStream> = None;
    let mut backoff = tuning.dial_backoff_min;
    let mut next_dial = Instant::now();
    // The most recent *successful* dial, as a half-open ns interval.
    // Traced frames whose queue residency overlaps it report the
    // overlap as a `dial` span instead of undifferentiated queue wait.
    let mut last_dial: Option<(u64, u64)> = None;
    let mut batch = BytesMut::with_capacity(MAX_BATCH_BYTES.min(64 << 10));
    loop {
        let Some(stream) = conn.as_mut() else {
            if pipe.closed.load(Ordering::Acquire) {
                // Nothing to flush to: shed the remainder, counted.
                let mut shed = 0;
                while rx.try_recv().is_ok() {
                    shed += 1;
                }
                pipe.stats.frames_dropped.add(shed);
                marks.depth.fetch_sub(shed, Ordering::Relaxed);
                pipe.send_queue.add(-(shed as i64));
                return;
            }
            let now = Instant::now();
            if now >= next_dial {
                let addr = pipe.peers.lock().get(&dst).copied();
                let dial_start = now_ns();
                let dialed =
                    addr.and_then(|a| TcpStream::connect_timeout(&a, tuning.connect_timeout).ok());
                if dialed.is_some() {
                    last_dial = Some((dial_start, now_ns()));
                }
                pipe.stats.dials.inc();
                match dialed {
                    Some(s) => {
                        s.set_nodelay(true).ok();
                        conn = Some(s);
                        backoff = tuning.dial_backoff_min;
                        pipe.connected_peers.inc();
                        continue;
                    }
                    None => {
                        pipe.stats.dial_failures.inc();
                        // Exponential backoff with up to 50% jitter.
                        let jitter = Duration::from_nanos(
                            rand::rng().random_range(0..=backoff.as_nanos() as u64 / 2),
                        );
                        next_dial = now + backoff + jitter;
                        backoff = (backoff * 2).min(tuning.dial_backoff_max);
                    }
                }
            }
            // Park a bounded slice so shutdown and the next dial both
            // stay prompt; senders shed at the queue meanwhile.
            let nap = next_dial
                .saturating_duration_since(Instant::now())
                .min(WRITER_NAP);
            if !nap.is_zero() {
                std::thread::sleep(nap);
            }
            continue;
        };

        // Connected: block for the head of the next burst. Shutdown drops
        // the sender, and `recv` still hands over every queued frame
        // before it reports the disconnect: the graceful drain.
        let Ok(first) = rx.recv() else {
            pipe.connected_peers.dec();
            return;
        };
        // Coalesce everything pending (up to the byte budget) into one
        // buffer: a single write syscall for the whole burst.
        batch.clear();
        let mut traced: Vec<(TraceCtx, u64)> = Vec::new();
        let mut take = |f: QueuedFrame, batch: &mut BytesMut| {
            append_frame(batch, &f.payload);
            if let Some(t) = f.trace {
                traced.push((t, f.enqueued_ns));
            }
        };
        take(first, &mut batch);
        let mut frames: u64 = 1;
        while batch.len() < MAX_BATCH_BYTES {
            match rx.try_recv() {
                Ok(f) => {
                    take(f, &mut batch);
                    frames += 1;
                }
                Err(_) => break,
            }
        }
        let dequeue_ns = now_ns();
        marks.progress_ns.store(dequeue_ns, Ordering::Relaxed);
        marks.depth.fetch_sub(frames, Ordering::Relaxed);
        let obs = pipe.obs().filter(|_| !traced.is_empty());
        if let Some(reg) = obs {
            // Retroactive queue-residency spans: [enqueue, dequeue],
            // with any overlapping successful dial carved out into its
            // own `dial`-stage span so the report can tell "waiting in
            // the send queue" apart from "waiting for the connection".
            for &(ctx, enq) in &traced {
                let dial = last_dial
                    .map(|(ds, de)| (ds.max(enq), de.min(dequeue_ns)))
                    .filter(|&(ds, de)| ds < de);
                let queue_end = dial.map_or(dequeue_ns, |(ds, _)| ds);
                if dial.is_none() || queue_end > enq {
                    reg.record_span_staged("xport-queue", stage::XPORT_QUEUE, ctx, enq, queue_end);
                }
                if let Some((ds, de)) = dial {
                    reg.record_span_staged("dial", stage::DIAL, ctx, ds, de);
                    if dequeue_ns > de {
                        reg.record_span_staged(
                            "xport-queue",
                            stage::XPORT_QUEUE,
                            ctx,
                            de,
                            dequeue_ns,
                        );
                    }
                }
            }
        }
        pipe.send_queue.add(-(frames as i64));
        pipe.stats.batches_sent.inc();
        pipe.batch_frames.record(frames);
        let write_ok = stream.write_all(&batch).is_ok();
        if let (true, Some(reg)) = (write_ok, obs) {
            let write_end = now_ns();
            for &(ctx, _) in &traced {
                reg.record_span_staged("batch-write", stage::WRITE, ctx, dequeue_ns, write_end);
            }
        }
        if !write_ok {
            // Best-effort: the burst is lost, the connection is dropped,
            // and the state machine re-enters dialing (immediately, so a
            // restarted peer is picked up fast; failures then back off).
            pipe.stats.frames_dropped.add(frames);
            conn = None;
            next_dial = Instant::now();
            backoff = tuning.dial_backoff_min;
            pipe.connected_peers.dec();
        }
    }
}

/// Appends one length-prefixed frame to the batch buffer.
fn append_frame(batch: &mut BytesMut, payload: &Bytes) {
    batch.put_u32_le(payload.len() as u32);
    batch.put_slice(payload);
}
