//! The node: virtual memory + virtual processors + the kernel proper.
//!
//! §4.3: "A node is an object that supplies *virtual memory* to store the
//! segments of active objects and *virtual processors* to execute
//! invocations. … At any point in time each active Eden object is
//! supported by exactly one node. This node is responsible for supplying
//! hardware resources and for receiving and processing invocations for
//! the object."
//!
//! [`Node`] is one kernel instance: an **object table** (the virtual
//! memory) of [`ObjectSlot`]s, and the **virtual processors**
//! ([`VirtualProcessorPool`]), the paper's fixed complement of
//! [`NodeConfig::virtual_processors`] processors (§3; the default of 2
//! mirrors the two GDPs of the default Eden node machine, "field
//! upgradable" to 4 — see experiment F2). Worker threads run moves,
//! reincarnations and every invocation a thread cannot run itself. When
//! a processor is free and nothing is queued, the pool lends it to the
//! thread that readied the invocation instead: a client
//! thread runs its own local invocation, and a receive thread the single
//! invocation its batch readied, with no thread hand-off. A process
//! blocked in a nested invocation, a remote wait or an object semaphore
//! yields its processor ([`blocking`](crate::vproc::blocking)), so waiting can never deadlock the
//! node. Excess work queues up to [`NodeConfig::vproc_queue_cap`], past
//! which the kernel sheds load with
//! [`Status::Overloaded`].
//!
//! This file boots and stops a node and holds its state. The kernel's
//! work is one `impl Node` spread over a file per section of the paper:
//!
//! * `invoke` (§4.2) — invocation: the one local/passive/remote decision
//!   that starts a blocking or asynchronous invocation and the wait that
//!   finishes it, the coordinator and its **one dispatch path** (`pump`
//!   moves ready invocations to running under the coordinator lock,
//!   `dispatch` submits them as one pool batch once the lock is released,
//!   and one routine releases a finished or refused invocation and
//!   completes a requested crash or destroy once nothing runs), the
//!   invocation process, and the reply;
//! * `request` — the **one request/reply engine**: every
//!   kernel-to-kernel request (invocation, blocking, asynchronous or
//!   pipelined, directory query, checkpoint write, move transfer,
//!   replica or checkpoint fetch, ping) is registered in one reply
//!   registry, sent, and awaited inside `blocking`. A blocking remote
//!   invocation is an asynchronous one's send followed at once by its
//!   wait;
//! * `location` (§2) — the location-independent address space: the pure
//!   `Search` (forwarding address → hint cache → birth node → directory
//!   home → broadcast `WhereIs`), what this node itself knows of a name,
//!   the directory and gossip glue, and path compression of forwarding
//!   addresses, so a forwarding chain is walked once, not on every call;
//! * `lifecycle` (§4.4) — checkpoint, checksite, crash, destroy and
//!   reincarnation, and activation of a passive object here;
//! * `mobility` (§4.3) — move, freeze and replica caching;
//! * `recv` — the **receive loop** servicing the kernel-to-kernel
//!   protocol, run by two `eden-recv` threads that pass one receive role
//!   between them: the holder receives and handles every frame, so one
//!   thread is always receiving while the other runs an invocation;
//! * `watchdog` — the stall watchdog thread.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eden_capability::{Capability, NameGenerator, NodeId, ObjName, Rights};
use eden_directory::{DirectoryService, GossipConfig};
use eden_obs::thread::{self, Role};
use eden_obs::{now_ns, KernelEvent, ObsRegistry, TraceCtx, TraceSampling};
use eden_store::CheckpointStore;
use eden_transport::Endpoint;
use eden_wire::{Frame, Message, Status};
use parking_lot::{Condvar, Mutex, RwLock};

use crate::lru::LruMap;
use crate::metrics::{InvokeMetrics, KernelMetrics, MetricsCell};
pub use crate::object::ReliabilityLevel;
use crate::object::{ObjectSlot, PendingInvocation};
use crate::types::TypeRegistry;
use crate::vproc::{VirtualProcessorPool, VprocStats, SHUTDOWN_GRACE};

mod invoke;
mod lifecycle;
mod location;
mod mobility;
mod recv;
mod request;
mod watchdog;

pub(crate) use invoke::Started;
pub(crate) use request::Ticket;

use location::{LocationService, LOCATION_CACHE_CAP};
use recv::ServedRequests;
use request::Registered;

/// Receive threads per node: the holder of the receive role, and one
/// that runs an invocation or stands by to take the role over.
const RECEIVERS: usize = 2;

/// An invocation `pump` moved to running, awaiting `Node::dispatch`.
type Ready = (Arc<ObjectSlot>, PendingInvocation);

/// Kernel tuning parameters: the settings a caller chooses. Values no
/// caller varies (the locate window, the move timeout, the per-object
/// process cap and the hint-cache bound) are constants of the section
/// that uses them.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// The node machine's processors (its GDPs, §3): the worker threads
    /// of the pool that runs every invocation process, move,
    /// reincarnation and redelivery. A worker blocked in a wait
    /// yields its processor, so at most this many run at once.
    pub virtual_processors: usize,
    /// Default invocation timeout when the invoker does not supply one.
    pub default_invoke_timeout: Duration,
    /// Budget for one remote request/reply exchange before trying the
    /// next location candidate.
    pub remote_try_timeout: Duration,
    /// Forwarding budget on invocation requests (bounds forwarding
    /// chains left by repeated moves).
    pub hop_limit: u8,
    /// Retransmission interval for unanswered remote invocations. The
    /// same invocation id is re-sent, and the serving kernel dedupes,
    /// giving at-most-once execution per holder over a lossy network.
    pub retransmit_interval: Duration,
    /// Ablation switch: disable the location hint cache (every remote
    /// invocation falls back to birth hints and broadcast search).
    pub enable_location_cache: bool,
    /// Ablation switch: disable request retransmission (a lost frame
    /// costs the whole candidate budget).
    pub enable_retransmission: bool,
    /// Which invocations open a root trace span. Sampled-out
    /// invocations carry no [`TraceCtx`] at all, so
    /// every downstream layer (client send, transport, dispatch,
    /// execute, reply) skips its span work for free.
    pub trace_sampling: TraceSampling,
    /// Bound on the pool's task queue. Past it the kernel sheds load
    /// with [`Status::Overloaded`] instead
    /// of queueing without limit —
    /// the backpressure contract a fan-out client must handle.
    pub vproc_queue_cap: usize,
    /// Enables the sharded location directory and its gossip membership:
    /// each object name hashes to a *home* node that tracks the current
    /// holder, so an object the hints miss costs one round trip to its
    /// home instead of a broadcast plus the locate window. When the
    /// directory names no live holder, the broadcast `WhereIs` search
    /// still follows (directory state is a hint, not ground truth). Off
    /// reproduces the seed kernel exactly (broadcast is the only search).
    pub enable_directory: bool,
    /// Gossip membership timings (probe period, probe timeout, suspicion
    /// timeout), used when the directory is on.
    pub gossip: GossipConfig,
    /// How often the per-node stall watchdog thread
    /// (`eden-watchdog-<id>`) probes the virtual-processor pool, the
    /// transport's writer queues and the in-flight remote invocations;
    /// it dumps a structured diagnostic snapshot to the flight recorder
    /// when something exceeds its deadline.
    pub watchdog_interval: Duration,
    /// Age past which a busy virtual processor, a head-of-queue task or
    /// a non-draining writer queue counts as stalled.
    pub watchdog_stall_deadline: Duration,
    /// Age past which an in-flight remote invocation is reported as a
    /// `slow-invocation` flight-recorder event.
    pub slow_invocation_budget: Duration,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            virtual_processors: 2,
            default_invoke_timeout: Duration::from_secs(5),
            remote_try_timeout: Duration::from_secs(2),
            hop_limit: 8,
            retransmit_interval: Duration::from_millis(150),
            enable_location_cache: true,
            enable_retransmission: true,
            trace_sampling: TraceSampling::Always,
            vproc_queue_cap: 1024,
            enable_directory: true,
            gossip: GossipConfig::default(),
            watchdog_interval: Duration::from_millis(50),
            watchdog_stall_deadline: Duration::from_secs(1),
            slow_invocation_budget: Duration::from_secs(2),
        }
    }
}

/// The reserved object name under which each kernel answers telemetry
/// scrapes (`get_metrics`, `get_trace`, `get_flight_log`).
///
/// [`NameGenerator`] epochs and sequence numbers start at zero and
/// never reach `u32::MAX`/`u64::MAX`, so the sentinel cannot collide
/// with a real object. Because the name's birth-node field is `node`,
/// ordinary invocation routing delivers a scrape to the right kernel
/// with no extra location traffic.
pub fn node_object_name(node: NodeId) -> ObjName {
    ObjName::from_parts(node, u32::MAX, u64::MAX)
}

/// A read-only capability for `node`'s telemetry object — the handle a
/// monitor holds per node it watches.
pub fn node_object_cap(node: NodeId) -> Capability {
    Capability::with_rights(node_object_name(node), Rights::READ)
}

/// The node's own threads: the receive role its receive threads pass
/// between them, and the waits of the watchdog and `Node::shutdown`.
/// Its lock is a leaf, never held while a frame is handled.
struct NodeThreads {
    role: Mutex<RecvRole>,
    /// Wakes a standby receiver when the role is handed over.
    handover: Condvar,
    /// Wakes the watchdog and `Node::shutdown`: signalled at shutdown
    /// and as each receive thread exits.
    halt: Condvar,
}

struct RecvRole {
    /// A receive thread holds the role; only the holder receives and
    /// handles frames, so they are handled in arrival order.
    held: bool,
    /// Receive threads waiting for the role.
    standby: usize,
    /// When the holder next ticks gossip, carried with the role so a
    /// hand-over keeps the gossip schedule.
    next_gossip: Instant,
    /// Receive threads that have not exited.
    running: usize,
}

pub(crate) struct NodeInner {
    id: NodeId,
    config: NodeConfig,
    names: NameGenerator,
    registry: Arc<TypeRegistry>,
    objects: RwLock<HashMap<ObjName, Arc<ObjectSlot>>>,
    destroyed: Mutex<HashSet<ObjName>>,
    served: Mutex<ServedRequests>,
    location: LocationService,
    /// The sharded location directory and gossip membership (`None`
    /// reproduces the seed kernel exactly). The service is a pure state
    /// machine: the receive loop ticks it and feeds it frames; no thread
    /// of its own.
    directory: Option<Mutex<DirectoryService>>,
    /// The reply registry: every request awaiting its reply, by id.
    pending: Mutex<HashMap<u64, Registered>>,
    store: Arc<dyn CheckpointStore>,
    endpoint: Arc<dyn Endpoint>,
    vprocs: VirtualProcessorPool,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    metrics: MetricsCell,
    invoke_metrics: InvokeMetrics,
    obs: Arc<ObsRegistry>,
    last_move_rejection: Mutex<Option<String>>,
    threads: NodeThreads,
    recv_threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// The most recent watchdog diagnostic snapshot, if any stall has
    /// ever been detected on this node (scraped via `get_watchdog`).
    watchdog_snapshot: Mutex<Option<String>>,
    watchdog_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

/// One Eden kernel instance. Cheap to clone (shared interior).
#[derive(Clone)]
pub struct Node {
    inner: Arc<NodeInner>,
}

/// Introspection snapshot of one active object (see
/// [`Node::object_info`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectInfo {
    /// The object's unique name.
    pub name: ObjName,
    /// Its type.
    pub type_name: String,
    /// Lifecycle status.
    pub status: crate::object::ObjStatus,
    /// Whether the representation is frozen.
    pub frozen: bool,
    /// Whether this is a cached replica.
    pub replica: bool,
    /// Last durable checkpoint version.
    pub checkpoint_version: u64,
    /// Node keeping the long-term state.
    pub checksite: NodeId,
    /// Representation payload bytes.
    pub data_size: usize,
    /// Invocations queued at the coordinator.
    pub queued_invocations: usize,
    /// Invocation processes currently executing.
    pub running_invocations: usize,
}

impl Node {
    /// Boots a kernel on `endpoint` with the given store and type
    /// registry, and starts its receive loop.
    pub fn new(
        config: NodeConfig,
        endpoint: Arc<dyn Endpoint>,
        store: Arc<dyn CheckpointStore>,
        registry: Arc<TypeRegistry>,
    ) -> Node {
        let id = endpoint.node();
        let obs = Arc::new(ObsRegistry::new(id.0));
        obs.set_sampling(config.trace_sampling.clone());
        endpoint.attach_obs(obs.clone());
        store.attach_obs(obs.clone());
        let directory = config.enable_directory.then(|| {
            let peers = endpoint.peers();
            Mutex::new(DirectoryService::new(
                id,
                &peers,
                config.gossip,
                Instant::now(),
            ))
        });
        let inner = Arc::new(NodeInner {
            id,
            vprocs: VirtualProcessorPool::new(
                id,
                config.virtual_processors,
                config.vproc_queue_cap,
                &obs,
            ),
            config,
            names: NameGenerator::new(id),
            registry,
            objects: RwLock::new(HashMap::new()),
            destroyed: Mutex::new(HashSet::new()),
            served: Mutex::new(ServedRequests::default()),
            location: LocationService {
                cache: Mutex::new(LruMap::new(LOCATION_CACHE_CAP)),
                forwards: RwLock::new(HashMap::new()),
                queries: Mutex::new(HashMap::new()),
            },
            directory,
            pending: Mutex::new(HashMap::new()),
            store,
            endpoint,
            next_id: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            metrics: MetricsCell::new(&obs),
            invoke_metrics: InvokeMetrics::new(&obs),
            obs,
            last_move_rejection: Mutex::new(None),
            threads: NodeThreads {
                role: Mutex::new(RecvRole {
                    held: false,
                    standby: 0,
                    next_gossip: Instant::now(),
                    running: RECEIVERS,
                }),
                handover: Condvar::new(),
                halt: Condvar::new(),
            },
            recv_threads: Mutex::new(Vec::with_capacity(RECEIVERS)),
            watchdog_snapshot: Mutex::new(None),
            watchdog_thread: Mutex::new(None),
        });
        let node = Node { inner };
        for i in 0..RECEIVERS {
            let recv_node = node.clone();
            let handle = thread::spawn(Role::Recv, format_args!("{id}-{i}"), move || {
                recv_node.recv_loop()
            })
            .expect("spawn receive loop");
            node.inner.recv_threads.lock().push(handle);
        }
        let dog = node.clone();
        let handle =
            thread::spawn(Role::Watchdog, id, move || dog.watchdog_loop()).expect("spawn watchdog");
        *node.inner.watchdog_thread.lock() = Some(handle);
        node
    }

    /// This kernel's node id.
    pub fn node_id(&self) -> NodeId {
        self.inner.id
    }

    /// The configuration this kernel booted with.
    pub(crate) fn config(&self) -> &NodeConfig {
        &self.inner.config
    }

    /// The type registry (register types before creating objects).
    pub fn registry(&self) -> &Arc<TypeRegistry> {
        &self.inner.registry
    }

    /// A snapshot of the kernel counters.
    pub fn metrics(&self) -> KernelMetrics {
        self.inner.metrics.snapshot()
    }

    /// This node's observability registry: histograms, gauges, the
    /// flight recorder, and the span collector.
    pub fn obs(&self) -> &Arc<ObsRegistry> {
        &self.inner.obs
    }

    /// A snapshot of the transport counters.
    pub fn transport_stats(&self) -> eden_transport::TransportStats {
        self.inner.endpoint.stats()
    }

    /// A snapshot of the virtual-processor pool: configured workers,
    /// live/idle/blocked counts, queue depth, and lifetime counters.
    pub fn vproc_stats(&self) -> VprocStats {
        self.inner.vprocs.stats()
    }

    /// The other nodes reachable on this node's network — what a policy
    /// object consults to make location decisions (§4.3).
    pub fn peers(&self) -> Vec<NodeId> {
        self.inner.endpoint.peers()
    }

    /// Names of objects currently active on this node.
    pub fn active_objects(&self) -> Vec<ObjName> {
        self.inner.objects.read().keys().copied().collect()
    }

    /// Whether `name` is active (or a cached replica) on this node.
    pub fn is_local(&self, name: ObjName) -> bool {
        self.inner.objects.read().contains_key(&name)
    }

    /// The kernel's checkpoint store (used by tooling and experiments).
    pub fn store(&self) -> &Arc<dyn CheckpointStore> {
        &self.inner.store
    }

    fn fresh_id(&self) -> u64 {
        self.inner.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records `event` in this node's flight recorder.
    fn log_event(&self, event: KernelEvent) {
        self.inner.obs.recorder().record(event);
    }

    /// Records a span of `stage`, from `start_ns` to now, in the trace
    /// `ctx` belongs to, if any; returns the span's context.
    fn trace_stage(
        &self,
        name: &'static str,
        stage: &'static str,
        ctx: Option<TraceCtx>,
        start_ns: u64,
    ) -> Option<TraceCtx> {
        let obs = &self.inner.obs;
        ctx.map(|t| obs.record_span_staged(name, stage, t, start_ns, now_ns()))
    }

    /// A frame carrying `msg` from this node to `dst`, with `trace` on it
    /// if any.
    fn frame(&self, dst: NodeId, msg: Message, trace: Option<TraceCtx>) -> Frame {
        let frame = Frame::to(self.inner.id, dst, msg);
        match trace {
            Some(t) => frame.with_trace(t),
            None => frame,
        }
    }

    /// Sends `msg` to `dst`, best effort: a lost frame is left to the
    /// requester's timeout and retransmission.
    fn send_msg(&self, dst: NodeId, msg: Message) {
        let _ = self.inner.endpoint.send(self.frame(dst, msg, None));
    }

    /// `Ok` when `cap` carries `required`; otherwise counts the violation
    /// and returns its status.
    fn check_rights(&self, cap: Capability, required: Rights) -> std::result::Result<(), Status> {
        if cap.permits(required) {
            return Ok(());
        }
        self.inner.metrics.bump_rights_violation();
        Err(Status::RightsViolation {
            required,
            held: cap.rights(),
        })
    }

    /// A point-in-time description of one locally active object.
    pub fn object_info(&self, name: ObjName) -> Option<ObjectInfo> {
        let slot = self.inner.objects.read().get(&name).cloned()?;
        let (queued, running) = {
            let coord = slot.coord.lock();
            (coord.queue.len(), coord.running)
        };
        let data_size = slot.repr.read().data_size();
        Some(ObjectInfo {
            name,
            type_name: slot.type_name.clone(),
            status: slot.status(),
            frozen: slot.is_frozen(),
            replica: slot.is_replica(),
            checkpoint_version: slot.checkpoint_version(),
            checksite: slot.checksite().node,
            data_size,
            queued_invocations: queued,
            running_invocations: running,
        })
    }

    /// Pings `node`; `true` if it answered within `timeout`.
    pub fn ping(&self, node: NodeId, timeout: Duration) -> bool {
        let reply = self.request(node, timeout, |token| Message::Ping { token });
        matches!(reply, Some(Message::Pong { .. }))
    }

    /// Stops the receive loop, tears down behaviors, drains the
    /// virtual-processor pool, and detaches from the network.
    pub fn shutdown(&self) {
        if self.inner.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        self.log_event(KernelEvent::NodeShutdown);
        let threads = &self.inner.threads;
        {
            let _role = threads.role.lock();
            threads.halt.notify_all();
            threads.handover.notify_all();
        }
        if let Some(h) = self.inner.watchdog_thread.lock().take() {
            let _ = h.join();
        }
        self.inner.endpoint.shutdown();
        // Teardown before the receive threads are joined and the pool
        // drains: it wakes behaviors (and their port waits), so an
        // operation parked on object state, on a receive thread or a
        // pool worker, can finish.
        for slot in self.inner.objects.read().values() {
            slot.short.teardown();
        }
        // A receive thread wedged in a long operation is abandoned after
        // the pool's grace, like a wedged worker.
        let all_exited = self.halt_wait(SHUTDOWN_GRACE, |role| role.running == 0);
        for h in self.inner.recv_threads.lock().drain(..) {
            if all_exited || h.is_finished() {
                let _ = h.join();
            }
        }
        self.inner.vprocs.shutdown();
    }

    /// Waits on the `halt` condvar until `done` holds or `timeout`
    /// passes; whether `done` held.
    fn halt_wait(&self, timeout: Duration, mut done: impl FnMut(&RecvRole) -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        let threads = &self.inner.threads;
        let mut role = threads.role.lock();
        while !done(&role) {
            let left = deadline.saturating_duration_since(Instant::now());
            if threads.halt.wait_for(&mut role, left).timed_out() {
                return done(&role);
            }
        }
        true
    }
}

impl core::fmt::Debug for Node {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Node")
            .field("id", &self.inner.id)
            .field("objects", &self.inner.objects.read().len())
            .finish()
    }
}

/// The type manager and cluster the section files' unit tests share.
#[cfg(test)]
mod testing {
    use eden_capability::Rights;
    use eden_wire::Value;

    use super::NodeConfig;
    use crate::{Cluster, OpCtx, OpError, OpResult, TypeManager, TypeSpec};

    /// `work` returns at once; `checkpoint` makes the object survive a
    /// crash.
    struct Plain;

    impl TypeManager for Plain {
        fn spec(&self) -> TypeSpec {
            TypeSpec::new("plain")
                .class("all", 4)
                .op("work", "all", Rights::EXECUTE)
                .op("checkpoint", "all", Rights::WRITE)
        }

        fn dispatch(&self, ctx: &OpCtx<'_>, op: &str, _args: &[Value]) -> OpResult {
            match op {
                "work" => Ok(vec![]),
                "checkpoint" => Ok(vec![Value::U64(ctx.checkpoint()?)]),
                other => Err(OpError::no_such_op(other)),
            }
        }
    }

    pub(super) fn cluster(nodes: usize, config: NodeConfig) -> Cluster {
        Cluster::builder()
            .nodes(nodes)
            .node_config(config)
            .register(|| Box::new(Plain))
            .build()
    }
}
