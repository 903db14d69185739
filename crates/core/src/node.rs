//! The node: virtual memory + virtual processors + the kernel proper.
//!
//! §4.3: "A node is an object that supplies *virtual memory* to store the
//! segments of active objects and *virtual processors* to execute
//! invocations. … At any point in time each active Eden object is
//! supported by exactly one node. This node is responsible for supplying
//! hardware resources and for receiving and processing invocations for
//! the object."
//!
//! [`Node`] is one kernel instance. Its pieces:
//!
//! * an **object table** (the virtual memory) of [`ObjectSlot`]s;
//! * the **virtual processors** ([`VirtualProcessorPool`]):
//!   [`NodeConfig::virtual_processors`] worker threads that execute
//!   every invocation process, async invoke, move, reincarnation and
//!   redelivery — the paper's fixed processor complement (§3; the
//!   default of 2 mirrors the two GDPs of the default Eden node
//!   machine, "field upgradable" to 4 — see experiment F2). A process
//!   blocked in a nested invocation, a remote wait or an object
//!   semaphore yields its processor ([`blocking`]), so waiting can
//!   never deadlock the node. Excess work queues up to
//!   [`NodeConfig::vproc_queue_cap`], past which the kernel sheds load
//!   with [`Status::Overloaded`];
//! * the **location service**: forwarding address → hint cache →
//!   birth-node hint → directory home → broadcast `WhereIs`, realizing
//!   the location-independent object address space of §2. The answer
//!   that ends a search is cached, and compresses a forwarding address
//!   this node holds onto the node that answered (path compression), so
//!   a forwarding chain is walked once, not on every call;
//! * the **lifecycle machinery**: checkpoint / checksite / crash /
//!   reincarnation (§4.4), move (§4.3), freeze + replica caching (§4.3);
//! * a **receive loop** servicing the kernel-to-kernel protocol.
//!
//! Two mechanisms carry the traffic:
//!
//! * **one request/reply engine**: every kernel-to-kernel request —
//!   invocation (blocking or pipelined), directory query, checkpoint
//!   write, move transfer, replica or checkpoint fetch, ping — is
//!   registered in one reply registry, sent, and awaited inside
//!   [`blocking`]. A blocking remote invocation is a pipelined call's
//!   send followed at once by its wait;
//! * **one dispatch path**: `pump` moves ready invocations to running
//!   under the coordinator lock and returns them, and `dispatch` submits
//!   them as one pool batch once the lock is released. One routine
//!   releases a finished or refused invocation, and completes a
//!   requested crash or destroy once nothing runs.

use std::collections::{HashMap, HashSet};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eden_capability::{Capability, NameGenerator, NodeId, ObjName, Rights};
use eden_directory::{DirOutput, DirectoryService, GossipConfig, MemberEvent};
use eden_obs::{now_ns, stage, Gauge, KernelEvent, ObsRegistry, TraceCtx, TraceSampling};
use eden_store::CheckpointStore;
use eden_transport::Endpoint;
use eden_wire::{
    DirRegisterKind, DirState, Frame, HeldState, MemberStatus, Message, ObjectImage, Reader,
    Status, Value, WireDecode, WireEncode, Writer,
};
use parking_lot::{Mutex, RwLock};

use crate::ctx::OpCtx;
use crate::error::{EdenError, Result};
use crate::lru::LruMap;
use crate::metrics::{InvokeMetrics, KernelMetrics, MetricsCell};
pub use crate::object::ReliabilityLevel;
use crate::object::{
    Checksite, CoordState, ObjStatus, ObjectSlot, PendingInvocation, ReplySink, CHECKSITE_SEGMENT,
};
use crate::repr::Representation;
use crate::types::TypeRegistry;
use crate::vproc::{blocking, BatchTask, SubmitError, VirtualProcessorPool, VprocStats};
use crate::waiter::{LocationAnswer, QueryCollector, Waiter};

/// How many frames the receive loop asks the transport for per wakeup.
const RECV_BATCH_MAX: usize = 128;

/// An invocation `pump` moved to running, awaiting `Node::dispatch`.
type Ready = (Arc<ObjectSlot>, PendingInvocation);

/// The teardown `pump` found due: a crash or destroy was requested and
/// no invocation runs any more.
enum Teardown {
    Crash,
    Destroy,
}

/// Kernel tuning parameters.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// The node machine's processors (its GDPs, §3): the worker threads
    /// of the pool that runs every invocation process, async invoke,
    /// move, reincarnation and redelivery. A worker blocked in a wait
    /// yields its processor, so at most this many run at once.
    pub virtual_processors: usize,
    /// Default invocation timeout when the invoker does not supply one.
    pub default_invoke_timeout: Duration,
    /// Budget for one remote request/reply exchange before trying the
    /// next location candidate.
    pub remote_try_timeout: Duration,
    /// How long a broadcast location query collects answers when no
    /// active holder responds immediately.
    pub locate_window: Duration,
    /// Budget for a move transfer to be acknowledged.
    pub move_timeout: Duration,
    /// Forwarding budget on invocation requests (bounds forwarding
    /// chains left by repeated moves).
    pub hop_limit: u8,
    /// Hard cap on concurrent invocation processes within one object,
    /// over and above per-class limits.
    pub max_processes_per_object: usize,
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
    /// invocations carry no [`TraceCtx`] at all, so every downstream
    /// layer (client send, transport, dispatch, execute, reply) skips
    /// its span work for free.
    pub trace_sampling: TraceSampling,
    /// Bound on the pool's task queue. Past it the kernel sheds load
    /// with [`Status::Overloaded`] instead of queueing without limit —
    /// the backpressure contract a fan-out client must handle.
    pub vproc_queue_cap: usize,
    /// Enables the sharded location directory and its gossip membership:
    /// each object name hashes to a *home* node that tracks the current
    /// holder, so a locate miss costs one round trip to the home instead
    /// of a broadcast plus the locate window. Off reproduces the seed
    /// kernel exactly (broadcast `WhereIs` is the only search).
    pub enable_directory: bool,
    /// Compatibility switch: when the directory cannot name a live
    /// holder, fall back to the seed's broadcast search. Disabling it
    /// makes misses cheap but surrenders the broadcast safety net
    /// (directory state is a hint, not ground truth).
    pub enable_broadcast_fallback: bool,
    /// Bound on the location hint cache; past it the least recently used
    /// hint is evicted (counted in `location_cache_evictions`).
    pub location_cache_cap: usize,
    /// Gossip protocol period: one direct liveness probe per period.
    pub gossip_interval: Duration,
    /// Budget for a probed peer to ack (directly or via relays) before
    /// it becomes a suspect.
    pub gossip_probe_timeout: Duration,
    /// How long a suspect may stay unrefuted before gossip declares it
    /// dead and the directory withholds its registrations.
    pub gossip_suspect_timeout: Duration,
    /// Runs the per-node stall watchdog thread (`eden-watchdog-<id>`),
    /// which probes the virtual-processor pool, the transport's writer
    /// queues and the in-flight remote invocations, and dumps a
    /// structured diagnostic snapshot to the flight recorder when
    /// something exceeds its deadline.
    pub enable_watchdog: bool,
    /// How often the watchdog probes.
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
            locate_window: Duration::from_millis(250),
            move_timeout: Duration::from_secs(2),
            hop_limit: 8,
            max_processes_per_object: 64,
            retransmit_interval: Duration::from_millis(150),
            enable_location_cache: true,
            enable_retransmission: true,
            trace_sampling: TraceSampling::Always,
            vproc_queue_cap: 1024,
            enable_directory: true,
            enable_broadcast_fallback: true,
            location_cache_cap: 4096,
            gossip_interval: Duration::from_millis(100),
            gossip_probe_timeout: Duration::from_millis(200),
            gossip_suspect_timeout: Duration::from_millis(600),
            enable_watchdog: true,
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

/// One entry of the reply registry.
struct Registered {
    waiter: Arc<Waiter<Frame>>,
    /// `(start_ns, trace_id)` of an invocation; the watchdog reports
    /// those older than [`NodeConfig::slow_invocation_budget`]. `None`
    /// for every other kind of request.
    invocation: Option<(u64, u64)>,
}

/// A request registered in the reply registry and sent: what
/// `Node::await_reply` needs to wait for it, retransmit it and
/// attribute the exchange. Dropping it unregisters the request.
pub(crate) struct Ticket {
    pub(crate) id: u64,
    pub(crate) dst: NodeId,
    pub(crate) start_ns: u64,
    /// The trace context riding the request frame.
    pub(crate) trace: Option<TraceCtx>,
    waiter: Arc<Waiter<Frame>>,
    node: Node,
}

impl Drop for Ticket {
    fn drop(&mut self) {
        self.node.inner.pending.lock().remove(&self.id);
    }
}

/// The status invocations queued on a failed reincarnation receive.
fn reincarnation_failed(reason: impl std::fmt::Display) -> Status {
    Status::AppError {
        code: -2,
        message: format!("reincarnation failed: {reason}"),
    }
}

/// Whether a remote kernel's `status` ends the location search. Every
/// status but `NoSuchObject` and `Timeout` is an *answer* from the
/// object's real home — enumerated (not `_`) so a new wire status
/// forces a decision about whether it ends the search.
pub(crate) fn ends_search(status: &Status) -> bool {
    match status {
        Status::NoSuchObject | Status::Timeout => false,
        Status::Ok
        | Status::NoSuchOperation(_)
        | Status::RightsViolation { .. }
        | Status::ObjectCrashed
        | Status::Frozen
        | Status::TypeError(_)
        | Status::NodeUnreachable
        | Status::Destroyed
        | Status::AppError { .. }
        | Status::Overloaded => true,
    }
}

/// At-most-once bookkeeping for remotely served invocations: requests
/// currently executing, and a bounded cache of sent replies so a lost
/// reply can be re-sent instead of the operation re-executed.
#[derive(Default)]
struct ServedRequests {
    in_progress: HashSet<(NodeId, u64)>,
    done: HashMap<(NodeId, u64), (Status, Vec<Value>)>,
    order: std::collections::VecDeque<(NodeId, u64)>,
}

impl ServedRequests {
    const CAPACITY: usize = 4096;

    fn record_done(&mut self, key: (NodeId, u64), status: Status, results: Vec<Value>) {
        self.in_progress.remove(&key);
        if self.done.insert(key, (status, results)).is_none() {
            self.order.push_back(key);
        }
        while self.order.len() > Self::CAPACITY {
            if let Some(old) = self.order.pop_front() {
                self.done.remove(&old);
            }
        }
    }
}

struct LocationService {
    /// Last known holder of an object (hints; may be stale). Bounded by
    /// [`NodeConfig::location_cache_cap`] with LRU eviction.
    cache: Mutex<LruMap<ObjName, NodeId>>,
    /// Where objects this node moved away now live, each with the time
    /// (`now_ns`) from which that address is known: the move's
    /// acknowledgement, or the send of the request whose answer
    /// compressed it.
    forwards: RwLock<HashMap<ObjName, (NodeId, u64)>>,
    /// Outstanding broadcast queries.
    queries: Mutex<HashMap<u64, Arc<QueryCollector>>>,
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
    recv_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
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

/// A handle on an asynchronous invocation (§4.2 promises asynchronous
/// invocation "through a separate kernel primitive"; this is it).
pub struct InvocationHandle {
    waiter: Arc<Waiter<Result<Vec<Value>>>>,
}

impl InvocationHandle {
    /// Blocks until the invocation completes or `timeout` elapses. A
    /// pool worker waiting here yields its processor.
    pub fn wait(&self, timeout: Duration) -> Result<Vec<Value>> {
        match blocking(|| self.waiter.wait(timeout)) {
            Some(r) => r,
            None => Err(EdenError::Invoke(Status::Timeout)),
        }
    }

    /// Non-blocking poll.
    pub fn try_take(&self) -> Option<Result<Vec<Value>>> {
        self.waiter.try_take()
    }
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
        let directory = if config.enable_directory {
            let gossip = GossipConfig {
                probe_interval: config.gossip_interval,
                probe_timeout: config.gossip_probe_timeout,
                suspect_timeout: config.gossip_suspect_timeout,
                ..GossipConfig::default()
            };
            Some(Mutex::new(DirectoryService::new(
                id,
                &endpoint.peers(),
                gossip,
                Instant::now(),
            )))
        } else {
            None
        };
        let cache_cap = config.location_cache_cap;
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
                cache: Mutex::new(LruMap::new(cache_cap)),
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
            recv_thread: Mutex::new(None),
            watchdog_snapshot: Mutex::new(None),
            watchdog_thread: Mutex::new(None),
        });
        let node = Node { inner };
        let recv_node = node.clone();
        let handle = std::thread::Builder::new()
            .name(format!("eden-recv-{id}"))
            .spawn(move || recv_node.recv_loop())
            .expect("spawn receive loop");
        *node.inner.recv_thread.lock() = Some(handle);
        if node.inner.config.enable_watchdog {
            let dog = node.clone();
            let handle = std::thread::Builder::new()
                .name(format!("eden-watchdog-{id}"))
                .spawn(move || dog.watchdog_loop())
                .expect("spawn watchdog");
            *node.inner.watchdog_thread.lock() = Some(handle);
        }
        node
    }

    /// This kernel's node id.
    pub fn node_id(&self) -> NodeId {
        self.inner.id
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

    // ================= Location directory =================

    /// The cached location hint for `name`, refreshed as most recently
    /// used.
    pub fn location_hint(&self, name: ObjName) -> Option<NodeId> {
        self.inner.location.cache.lock().get(&name).copied()
    }

    /// Number of live location hints (bounded by
    /// [`NodeConfig::location_cache_cap`]).
    pub fn location_cache_len(&self) -> usize {
        self.inner.location.cache.lock().len()
    }

    fn cache_insert(&self, name: ObjName, holder: NodeId) {
        let evicted = self.inner.location.cache.lock().insert(name, holder);
        for _ in 0..evicted {
            self.inner.metrics.bump_cache_eviction();
        }
    }

    /// The gossip membership view: every known node with its believed
    /// status and incarnation, self included. Self-only when the
    /// directory is disabled.
    pub fn membership(&self) -> Vec<(NodeId, MemberStatus, u64)> {
        match &self.inner.directory {
            Some(dir) => dir.lock().snapshot(),
            None => vec![(self.inner.id, MemberStatus::Alive, 0)],
        }
    }

    /// The directory home node for `name` on this node's current ring,
    /// if the directory is enabled.
    pub fn directory_home(&self, name: ObjName) -> Option<NodeId> {
        self.inner
            .directory
            .as_ref()
            .and_then(|d| d.lock().home(name))
    }

    /// Number of directory entries homed on this node's shard.
    pub fn directory_shard_len(&self) -> usize {
        self.inner
            .directory
            .as_ref()
            .map(|d| d.lock().shard_len())
            .unwrap_or(0)
    }

    /// Whether gossip currently believes `node` is dead. Used to skip
    /// doomed candidate probes; safe because the broadcast fallback (or
    /// the directory itself) still finds the object if gossip is wrong.
    fn peer_is_dead(&self, node: NodeId) -> bool {
        match &self.inner.directory {
            Some(dir) => dir.lock().status_of(node) == MemberStatus::Dead,
            None => false,
        }
    }

    /// Sends the frames a directory/membership step produced and applies
    /// its liveness events to kernel state.
    fn apply_dir_output(&self, out: DirOutput) {
        for (dst, msg) in out.msgs {
            let _ = self.inner.endpoint.send(Frame::to(self.inner.id, dst, msg));
        }
        for event in out.events {
            match event {
                MemberEvent::Alive(node) => {
                    self.inner
                        .obs
                        .recorder()
                        .record(KernelEvent::MemberAlive { node: node.0 });
                }
                MemberEvent::Suspect(node) => {
                    self.inner
                        .obs
                        .recorder()
                        .record(KernelEvent::MemberSuspect { node: node.0 });
                }
                MemberEvent::Dead(node) => {
                    self.inner.metrics.bump_gossip_dead();
                    self.inner
                        .obs
                        .recorder()
                        .record(KernelEvent::MemberDead { node: node.0 });
                    // Hints pointing at a dead node are now worthless.
                    self.inner
                        .location
                        .cache
                        .lock()
                        .retain(|_, holder| *holder != node);
                    // Broadcasts in flight will never hear from it: rule
                    // it out so their collectors can complete early.
                    for collector in self.inner.location.queries.lock().values() {
                        collector.note_unreachable();
                    }
                }
            }
        }
        if out.topology_changed {
            self.reregister_local_objects();
        }
    }

    /// Re-registers every locally active object after a ring change so
    /// its directory entry migrates to the new home node, together with
    /// this node as its checksite when the slot has checkpointed here.
    /// Checkpoints of objects not active here are not re-announced:
    /// `CheckpointStore::names` could list them, but announcing the
    /// whole store costs a frame per stored object on every ring
    /// change, and a passive copy still answers the broadcast `WhereIs`.
    fn reregister_local_objects(&self) {
        let slots: Vec<(ObjName, bool)> = self
            .inner
            .objects
            .read()
            .iter()
            .filter(|(_, slot)| !slot.is_replica())
            .map(|(name, slot)| (*name, slot.checkpoint_registered.load(Ordering::Acquire)))
            .collect();
        for (name, checkpointed) in slots {
            self.dir_register(name, self.inner.id, DirRegisterKind::Active);
            if checkpointed {
                self.dir_register(name, self.inner.id, DirRegisterKind::Checkpoint);
            }
        }
    }

    /// Registers (or drops) a holder fact at the object's directory home.
    /// Fire-and-forget: the directory stores hints, not truth (§4.3), so
    /// a lost registration merely degrades a later locate to the
    /// broadcast fallback.
    fn dir_register(&self, name: ObjName, holder: NodeId, kind: DirRegisterKind) {
        let Some(dir) = &self.inner.directory else {
            return;
        };
        self.inner.metrics.bump_dir_register();
        let forward = dir
            .lock()
            .handle_register(self.inner.id, name, holder, kind);
        let home = forward
            .as_ref()
            .map(|(dst, _)| *dst)
            .unwrap_or(self.inner.id);
        self.inner
            .obs
            .recorder()
            .record(KernelEvent::DirectoryRegister {
                obj: name.to_u128(),
                home: home.0,
            });
        if let Some((dst, msg)) = forward {
            let _ = self.inner.endpoint.send(Frame::to(self.inner.id, dst, msg));
        }
    }

    /// Resolves `name` through the sharded directory: one `DirQuery` to
    /// the object's home node (or a local shard lookup when this node is
    /// the home). Returns the registered holder on a hit; `None` on a
    /// miss, a withheld (suspect) answer, or an unreachable home.
    pub fn directory_locate(&self, name: ObjName) -> Option<NodeId> {
        let deadline = Instant::now() + self.inner.config.locate_window;
        self.directory_locate_before(name, deadline, None)
    }

    fn directory_locate_before(
        &self,
        name: ObjName,
        deadline: Instant,
        trace: Option<TraceCtx>,
    ) -> Option<NodeId> {
        let dir = self.inner.directory.as_ref()?;
        let home = dir.lock().home(name)?;
        let query_start = now_ns();
        self.inner.metrics.bump_dir_query();
        self.inner
            .obs
            .recorder()
            .record(KernelEvent::DirectoryQuery {
                obj: name.to_u128(),
                home: home.0,
            });
        let hit = if home == self.inner.id {
            let (holder, state) = dir.lock().answer_query(name);
            (state == DirState::Hit).then_some(holder).flatten()
        } else {
            let budget = self
                .inner
                .config
                .locate_window
                .min(deadline.saturating_duration_since(Instant::now()));
            let reply = self.request(home, budget, |query_id| Message::DirQuery {
                query_id,
                name,
                reply_to: self.inner.id,
            });
            match reply {
                Some(Message::DirAnswer { holder, state, .. }) => {
                    (state == DirState::Hit).then_some(holder).flatten()
                }
                // Home unreachable or the answer was lost: treat as a
                // miss and let the caller fall back.
                _ => None,
            }
        };
        if hit.is_some() {
            self.inner.metrics.bump_dir_hit();
        }
        if let Some(t) = trace {
            // Retroactive: covers the shard lookup or the DirQuery RTT,
            // so the critical-path report can price directory time.
            self.inner.obs.record_span_staged(
                "dir-query",
                stage::DIRECTORY,
                t,
                query_start,
                now_ns(),
            );
        }
        hit
    }

    // ================= Object creation =================

    /// Creates a new object of `type_name` on this node; `args` go to the
    /// type manager's `initialize`. Returns the full-rights capability.
    pub fn create_object(&self, type_name: &str, args: &[Value]) -> Result<Capability> {
        if self.inner.shutdown.load(Ordering::Acquire) {
            return Err(EdenError::ShuttingDown);
        }
        let manager = self
            .inner
            .registry
            .manager(type_name)
            .ok_or_else(|| EdenError::UnknownType(type_name.to_string()))?;
        let name = self.inner.names.next_name();
        let slot = ObjectSlot::new(
            name,
            type_name.to_string(),
            Representation::new(),
            ObjStatus::Active,
            Checksite {
                node: self.inner.id,
                level: ReliabilityLevel::Local,
            },
        );
        self.inner.objects.write().insert(name, slot.clone());
        let cap = Capability::mint(name);
        let ctx = OpCtx::new(self, &slot, cap, self.inner.id, "<initialize>");
        match manager.initialize(&ctx, args) {
            Ok(()) => {
                self.dir_register(name, self.inner.id, DirRegisterKind::Active);
                Ok(cap)
            }
            Err(e) => {
                self.inner.objects.write().remove(&name);
                Err(EdenError::Invoke(e.into_status()))
            }
        }
    }

    // ================= Invocation =================

    /// Invokes `op` on the object designated by `cap`, blocking for the
    /// status and return parameters. Location-independent: the target may
    /// be on any node, active or passive.
    pub fn invoke(&self, cap: Capability, op: &str, args: &[Value]) -> Result<Vec<Value>> {
        self.invoke_with_timeout(cap, op, args, self.inner.config.default_invoke_timeout)
    }

    /// [`Node::invoke`] with a caller-supplied timeout (§4.2: "The
    /// invocation request may also contain a user-supplied timeout").
    pub fn invoke_with_timeout(
        &self,
        cap: Capability,
        op: &str,
        args: &[Value],
        timeout: Duration,
    ) -> Result<Vec<Value>> {
        if self.inner.shutdown.load(Ordering::Acquire) {
            return Err(EdenError::ShuttingDown);
        }
        let (status, results) = self.do_invoke(cap, op, args, timeout);
        match status {
            Status::Ok => Ok(results),
            Status::Timeout => {
                self.inner.metrics.bump_timeout();
                Err(EdenError::Invoke(Status::Timeout))
            }
            other => Err(EdenError::Invoke(other)),
        }
    }

    /// Starts an invocation without blocking; the returned handle
    /// rendezvouses with the eventual result.
    pub fn invoke_async(&self, cap: Capability, op: &str, args: &[Value]) -> InvocationHandle {
        let waiter = Arc::new(Waiter::new());
        let handle = InvocationHandle {
            waiter: waiter.clone(),
        };
        let node = self.clone();
        let op = op.to_string();
        let args = args.to_vec();
        let task_waiter = waiter.clone();
        if let Err(e) = self.inner.vprocs.submit(move || {
            let r = node.invoke(cap, &op, &args);
            task_waiter.complete(r);
        }) {
            waiter.complete(Err(match e {
                SubmitError::Overloaded => EdenError::Invoke(Status::Overloaded),
                SubmitError::Closed => EdenError::ShuttingDown,
            }));
        }
        handle
    }

    /// The invocation state machine: local slot → local checkpoint →
    /// located remote holder.
    fn do_invoke(
        &self,
        cap: Capability,
        op: &str,
        args: &[Value],
        timeout: Duration,
    ) -> (Status, Vec<Value>) {
        let deadline = Instant::now() + timeout;
        let name = cap.name();
        // Telemetry scrape of this kernel: served inline, before any
        // span opens, so scraping never perturbs the traces it reads.
        // A scrape of a *remote* kernel falls through to the ordinary
        // remote path below — the sentinel name's birth hint routes it.
        if name == node_object_name(self.inner.id) {
            return self.serve_node_object(cap, op, args);
        }
        // The root of this invocation's trace: every downstream span —
        // client-send, net, dispatch, execute, reply — descends from it,
        // across however many nodes the invocation visits. Subject to
        // the node's sampling policy: `None` means this invocation is
        // unsampled and no layer anywhere opens a span for it.
        let root = self.inner.obs.sampled_root_span("invoke", op);
        let ctx = root.as_ref().map(|r| r.ctx());

        // Fast path: active (or replica) on this node. The lookup is
        // bound first so the table's read guard drops before the
        // invocation blocks (an `if let` scrutinee guard would be held
        // across the wait and deadlock crash/move teardown). A slot torn
        // down between the lookup and the enqueue hands the invocation
        // back, and the lookup runs again.
        loop {
            let local = self.inner.objects.read().get(&name).cloned();
            let slot = match local {
                Some(slot) => slot,
                None => {
                    if self.inner.destroyed.lock().contains(&name) {
                        return (Status::Destroyed, Vec::new());
                    }
                    // Passive here: reincarnate locally — but only when
                    // we have not moved the object away. An object's
                    // checkpoints legitimately stay at its checksite after
                    // a move (§4.4), so a forwarding address must win over
                    // the local checkpoint or the source node would
                    // resurrect a stale twin.
                    if self.inner.location.forwards.read().contains_key(&name) {
                        break;
                    }
                    match self.activate_passive_local(name) {
                        Ok(slot) => slot,
                        Err(Status::Overloaded) => return (Status::Overloaded, Vec::new()),
                        Err(_) => break,
                    }
                }
            };
            self.inner.metrics.bump_local();
            if let Some(answer) = self.invoke_on_slot(&slot, cap, op, args, deadline, ctx) {
                return answer;
            }
        }

        let (status, results, _) = self.search(cap, op, args, deadline, ctx, HashSet::new());
        (status, results)
    }

    /// The location search for a remote holder: invokes each of the
    /// [`hints`](Self::hints), then the directory's registered holder,
    /// then — unless disabled — each holder a `WhereIs` broadcast finds,
    /// skipping nodes in `tried`. Returns the answer and the node that
    /// gave it; `NoSuchObject` when nobody holds the object.
    pub(crate) fn search(
        &self,
        cap: Capability,
        op: &str,
        args: &[Value],
        deadline: Instant,
        ctx: Option<TraceCtx>,
        mut tried: HashSet<NodeId>,
    ) -> (Status, Vec<Value>, NodeId) {
        let name = cap.name();
        let hint_start = now_ns();
        let hints = self.hints(name);
        if let Some(t) = ctx {
            // Hint assembly (forwarding table + LRU cache + birth hint):
            // usually nanoseconds, but visible in the report when lock
            // contention makes it otherwise.
            self.inner.obs.record_span_staged(
                "hint-probe",
                stage::DIRECTORY,
                t,
                hint_start,
                now_ns(),
            );
        }
        let peers = self.inner.endpoint.peers();
        let not_found = (Status::NoSuchObject, Vec::new(), self.inner.id);
        // A hint or directory entry is hearsay: a candidate gossip has
        // declared dead is skipped with its whole try budget, and a
        // stale one falls through to the next source.
        let mut hearsay = |candidate: NodeId, from_cache: bool| {
            if candidate == self.inner.id
                || !tried.insert(candidate)
                || !peers.contains(&candidate)
                || self.peer_is_dead(candidate)
            {
                return None;
            }
            if from_cache {
                self.inner.metrics.bump_cache_hit();
            }
            let answer = self.attempt(candidate, cap, op, args, deadline, ctx);
            if answer.is_none() && from_cache {
                self.inner.location.cache.lock().remove(&name);
            }
            answer
        };
        for (candidate, from_cache) in hints {
            if let Some(answer) = hearsay(candidate, from_cache) {
                return answer;
            }
        }
        // Directory lookup: one message to the object's home node names
        // the registered holder, where the seed paid a broadcast plus
        // the locate window.
        if self.inner.directory.is_some() {
            let holder = self.directory_locate_before(name, deadline, ctx);
            if let Some(answer) = holder.and_then(|h| hearsay(h, false)) {
                return answer;
            }
            if !self.inner.config.enable_broadcast_fallback {
                // Directory-only mode (experiments): a miss is final.
                return not_found;
            }
        }

        // Broadcast search.
        if Instant::now() >= deadline {
            return (Status::Timeout, Vec::new(), self.inner.id);
        }
        let where_is_start = now_ns();
        let answers = self.locate_broadcast(name);
        if let Some(t) = ctx {
            // The seed's safety net: a WhereIs broadcast plus the locate
            // window. When this dominates a trace, the directory missed.
            self.inner.obs.record_span_staged(
                "where-is",
                stage::DIRECTORY,
                t,
                where_is_start,
                now_ns(),
            );
        }
        let mut ordered: Vec<NodeId> = Vec::new();
        for want in [
            HeldState::Active,
            HeldState::FrozenReplica,
            HeldState::Passive,
        ] {
            for a in &answers {
                if a.state == want && !ordered.contains(&a.holder) {
                    ordered.push(a.holder);
                }
            }
        }
        for holder in ordered {
            if holder == self.inner.id || tried.contains(&holder) {
                continue;
            }
            if let Some(answer) = self.attempt(holder, cap, op, args, deadline, ctx) {
                return answer;
            }
        }
        not_found
    }

    /// One remote attempt of the location search at `dst`. `Some` ends
    /// the search: an answer from the object's home (see
    /// [`ends_search`]), or `Timeout` once the deadline has passed.
    fn attempt(
        &self,
        dst: NodeId,
        cap: Capability,
        op: &str,
        args: &[Value],
        deadline: Instant,
        trace: Option<TraceCtx>,
    ) -> Option<(Status, Vec<Value>, NodeId)> {
        let now = Instant::now();
        if now >= deadline {
            return Some((Status::Timeout, Vec::new(), dst));
        }
        let budget = (deadline - now).min(self.inner.config.remote_try_timeout);
        // A blocking remote invocation: the send, then at once the wait.
        let answer = match self.send_invoke(dst, cap, op, args, trace) {
            Ok(ticket) => self.await_invoke(ticket, cap, op, args, budget),
            Err(status) => (status, Vec::new(), dst),
        };
        ends_search(&answer.0).then_some(answer)
    }

    /// Serves an invocation on this kernel's reserved telemetry object
    /// (see [`node_object_name`]). The kernel itself is the "object":
    /// there is no slot, no coordinator, no queueing — a scrape reads
    /// the observability registry and replies inline. `Rights::READ`
    /// gates all three operations.
    fn serve_node_object(&self, cap: Capability, op: &str, args: &[Value]) -> (Status, Vec<Value>) {
        if !cap.permits(Rights::READ) {
            self.inner.metrics.bump_rights_violation();
            return (
                Status::RightsViolation {
                    required: Rights::READ,
                    held: cap.rights(),
                },
                Vec::new(),
            );
        }
        let obs = &self.inner.obs;
        match op {
            // Counters, gauges and histogram snapshots of this node.
            "get_metrics" => (
                Status::Ok,
                vec![eden_wire::obs_codec::registry_metrics_to_value(obs)],
            ),
            // Span records — all of them, or one trace when the first
            // argument is a `U64` trace id.
            "get_trace" => {
                let spans = match args.first() {
                    Some(Value::U64(trace_id)) => obs.traces().spans_for(*trace_id),
                    _ => obs.traces().spans(),
                };
                (
                    Status::Ok,
                    vec![eden_wire::obs_codec::spans_to_value(&spans)],
                )
            }
            // Flight-recorder events — all retained, or the last `n`
            // when the first argument is a `U64`.
            "get_flight_log" => {
                let events = match args.first() {
                    Some(Value::U64(n)) => obs.recorder().last(*n as usize),
                    _ => obs.recorder().events(),
                };
                (
                    Status::Ok,
                    vec![eden_wire::obs_codec::events_to_value(
                        self.inner.id.0,
                        &events,
                    )],
                )
            }
            // This node's gossip membership view: one map per known node
            // with its believed status and incarnation (self-only when
            // the directory is disabled).
            "get_membership" => {
                let rows = self
                    .membership()
                    .into_iter()
                    .map(|(node, status, incarnation)| {
                        let mut m = std::collections::BTreeMap::new();
                        m.insert("node".to_string(), Value::U64(node.0 as u64));
                        m.insert("status".to_string(), Value::Str(status.label().to_string()));
                        m.insert("incarnation".to_string(), Value::U64(incarnation));
                        Value::Map(m)
                    })
                    .collect();
                (Status::Ok, vec![Value::List(rows)])
            }
            // Stall-watchdog state: the cumulative stall count and the
            // most recent diagnostic snapshot (empty string when the
            // node has never stalled).
            "get_watchdog" => {
                let mut m = std::collections::BTreeMap::new();
                m.insert(
                    "stalls".to_string(),
                    Value::U64(obs.counter("watchdog.stalls").get()),
                );
                m.insert(
                    "snapshot".to_string(),
                    Value::Str(
                        self.inner
                            .watchdog_snapshot
                            .lock()
                            .clone()
                            .unwrap_or_default(),
                    ),
                );
                (Status::Ok, vec![Value::Map(m)])
            }
            other => (Status::NoSuchOperation(other.to_string()), Vec::new()),
        }
    }

    /// Validates and enqueues an invocation on a local slot, then waits.
    /// `None` when the invocation was rerouted because the slot left the
    /// object table.
    fn invoke_on_slot(
        &self,
        slot: &Arc<ObjectSlot>,
        cap: Capability,
        op: &str,
        args: &[Value],
        deadline: Instant,
        ctx: Option<TraceCtx>,
    ) -> Option<(Status, Vec<Value>)> {
        let start_ns = now_ns();
        let waiter = Arc::new(Waiter::new());
        let pending =
            match self.validate(slot, cap, op, args, ReplySink::Local(waiter.clone()), ctx) {
                Ok(p) => p,
                Err(status) => return Some((status, Vec::new())),
            };
        let mut ready = Vec::new();
        self.enqueue(slot, pending, &mut ready);
        self.dispatch(ready);
        let budget = deadline.saturating_duration_since(Instant::now());
        // A pool worker waiting here (async or nested invocation) yields
        // its place: the reply it waits for may itself need a worker.
        let outcome = match blocking(|| waiter.wait(budget)) {
            Some(Some(answer)) => answer,
            Some(None) => return None, // Rerouted: look the object up again.
            None => (Status::Timeout, Vec::new()),
        };
        self.inner
            .invoke_metrics
            .local
            .record(now_ns().saturating_sub(start_ns));
        Some(outcome)
    }

    /// Builds a validated [`PendingInvocation`], or the failure status.
    fn validate(
        &self,
        slot: &Arc<ObjectSlot>,
        cap: Capability,
        op: &str,
        args: &[Value],
        sink: ReplySink,
        trace: Option<TraceCtx>,
    ) -> std::result::Result<PendingInvocation, Status> {
        let Some(resolved) = self.inner.registry.resolve_op(&slot.type_name, op) else {
            return Err(Status::NoSuchOperation(op.to_string()));
        };
        if !cap.permits(resolved.op.required) {
            self.inner.metrics.bump_rights_violation();
            return Err(Status::RightsViolation {
                required: resolved.op.required,
                held: cap.rights(),
            });
        }
        let in_service = self
            .inner
            .invoke_metrics
            .in_service(&self.inner.obs, &resolved.op.class);
        Ok(PendingInvocation {
            presented: cap,
            operation: op.to_string(),
            args: args.to_vec(),
            resolved,
            in_service,
            sink,
            caller: self.inner.id,
            trace,
            enqueue_ns: now_ns(),
        })
    }

    /// Queues an invocation at the coordinator and pumps it; the
    /// invocations that became ready go to `ready` for
    /// [`dispatch`](Self::dispatch). A retired coordinator — its slot was
    /// looked up just before a crash, destroy or move took the object
    /// out of the table — hands the invocation to
    /// [`reroute`](Self::reroute) instead.
    fn enqueue(&self, slot: &Arc<ObjectSlot>, pending: PendingInvocation, ready: &mut Vec<Ready>) {
        let bounced = self.coordinate(slot, ready, |coord| {
            if coord.retired {
                return Some(pending);
            }
            self.inner.invoke_metrics.queue_depth.inc();
            // During a teardown the invocation rides along and is
            // rerouted (or refused) by the teardown path.
            if coord.status != ObjStatus::Crashed
                && (!coord.queue.is_empty() || coord.status != ObjStatus::Active)
            {
                self.inner.metrics.bump_class_queued();
            }
            coord.queue.push_back(pending);
            None
        });
        if let Some(pending) = bounced {
            self.reroute(pending, ready);
        }
    }

    /// Routes again an invocation whose slot left the object table: a
    /// remote request as if it had just arrived (after a move that
    /// forwards it), while a local invoker looks the object up again.
    fn reroute(&self, pending: PendingInvocation, ready: &mut Vec<Ready>) {
        match pending.sink {
            ReplySink::Remote { inv_id, reply_to } => self.route(
                inv_id,
                pending.presented,
                pending.operation,
                pending.args,
                reply_to,
                self.inner.config.hop_limit,
                pending.trace,
                ready,
            ),
            ReplySink::Local(waiter) => waiter.complete(None),
        }
    }

    /// Drains the coordinator queue for good, keeping the queue-depth
    /// gauge true: the slot has left the object table, so the
    /// coordinator retires and later enqueues bounce.
    fn drain_queue(&self, coord: &mut CoordState) -> Vec<PendingInvocation> {
        coord.retired = true;
        let queued: Vec<PendingInvocation> = coord.queue.drain(..).collect();
        self.inner
            .invoke_metrics
            .queue_depth
            .add(-(queued.len() as i64));
        queued
    }

    /// Drives `slot`'s coordinator: applies `f` to its state and pumps
    /// it under the coordinator lock, appending the invocations that
    /// became ready to `ready`; then, with the lock released, carries
    /// out a teardown the pump found due.
    fn coordinate<R>(
        &self,
        slot: &Arc<ObjectSlot>,
        ready: &mut Vec<Ready>,
        f: impl FnOnce(&mut CoordState) -> R,
    ) -> R {
        let mut coord = slot.coord.lock();
        let r = f(&mut coord);
        let teardown = self.pump(slot, &mut coord, ready);
        drop(coord);
        match teardown {
            Some(Teardown::Crash) => self.finish_crash(slot),
            Some(Teardown::Destroy) => self.finish_destroy(slot),
            None => {}
        }
        r
    }

    /// [`coordinate`](Self::coordinate), then dispatches what became
    /// ready.
    fn pump_with<R>(&self, slot: &Arc<ObjectSlot>, f: impl FnOnce(&mut CoordState) -> R) -> R {
        let mut ready = Vec::new();
        let r = self.coordinate(slot, &mut ready, f);
        self.dispatch(ready);
        r
    }

    /// The coordinator's dispatch rule (§4.2), run under the coordinator
    /// lock: moves each queued invocation whose class has spare capacity
    /// to running and appends it to `ready`. Once nothing runs, a
    /// requested crash or destroy is reported due and a requested move
    /// starts instead.
    fn pump(
        &self,
        slot: &Arc<ObjectSlot>,
        coord: &mut CoordState,
        ready: &mut Vec<Ready>,
    ) -> Option<Teardown> {
        if coord.status != ObjStatus::Active {
            return None;
        }
        if coord.crash_requested || coord.destroy_requested {
            if coord.running > 0 {
                return None;
            }
            coord.status = ObjStatus::Crashed;
            return Some(if coord.crash_requested {
                Teardown::Crash
            } else {
                Teardown::Destroy
            });
        }
        if let Some(dst) = coord.pending_move {
            if coord.running == 0 {
                coord.status = ObjStatus::Moving;
                coord.pending_move = None;
                let node = self.clone();
                let task_slot = slot.clone();
                if self
                    .inner
                    .vprocs
                    .submit(move || node.start_move(task_slot, dst))
                    .is_err()
                {
                    // Pool saturated (or shutting down): resume in place;
                    // a later pump retries the move.
                    coord.status = ObjStatus::Active;
                    coord.pending_move = Some(dst);
                }
            }
            return None; // No dispatch while a move is pending.
        }
        let mut i = 0;
        while i < coord.queue.len() && coord.running < self.inner.config.max_processes_per_object {
            let next = &coord.queue[i].resolved;
            let in_service = coord
                .class_in_service
                .get(&next.op.class)
                .copied()
                .unwrap_or(0);
            if in_service >= next.limit {
                i += 1;
                continue;
            }
            let mut pending = coord.queue.remove(i).expect("index in bounds");
            let class = &pending.resolved.op.class;
            coord.running += 1;
            self.inner.invoke_metrics.queue_depth.dec();
            pending.in_service.inc();
            *coord.class_in_service.entry(class.clone()).or_insert(0) += 1;
            // Close the coordinator-residency gap retroactively:
            // `dispatch` covers enqueue → this dispatch decision. The
            // invocation's remaining spans (the pool's `vproc-wait`, then
            // `execute`) parent on it, so the three intervals tile the
            // queue time without overlap.
            let enqueue_ns = pending.enqueue_ns;
            pending.trace = pending.trace.map(|t| {
                self.inner.obs.record_span_staged(
                    "dispatch",
                    stage::DISPATCH,
                    t,
                    enqueue_ns,
                    now_ns(),
                )
            });
            ready.push((slot.clone(), pending));
        }
        None
    }

    /// Submits invocations `pump` moved to running as one pool batch:
    /// one pool lock and one wakeup however many there are. A dispatch
    /// the pool refuses is shed with `Overloaded` and released like a
    /// finished invocation, which may ready the next one.
    fn dispatch(&self, mut ready: Vec<Ready>) {
        while !ready.is_empty() {
            let mut shed = Vec::with_capacity(ready.len());
            let mut tasks: Vec<BatchTask> = Vec::with_capacity(ready.len());
            for (slot, pending) in ready.drain(..) {
                let class = pending.resolved.op.class.clone();
                let in_service = pending.in_service.clone();
                shed.push((
                    slot.clone(),
                    class,
                    in_service,
                    pending.sink.clone(),
                    pending.trace,
                ));
                let node = self.clone();
                let trace = pending.trace;
                tasks.push((Box::new(move || node.run_invocation(slot, pending)), trace));
            }
            let verdicts = self.inner.vprocs.submit_batch(tasks);
            for (verdict, (slot, class, in_service, sink, trace)) in verdicts.into_iter().zip(shed)
            {
                if verdict.is_ok() {
                    self.inner.metrics.bump_process();
                } else {
                    self.send_reply(sink, Status::Overloaded, Vec::new(), trace);
                    self.release(&slot, &class, &in_service, &mut ready);
                }
            }
        }
    }

    /// Releases one running invocation of `class` — finished, or refused
    /// by the pool — and pumps the coordinator: the next dispatches go
    /// to `ready`, and once nothing runs a requested crash or destroy
    /// completes (or a requested move starts).
    fn release(
        &self,
        slot: &Arc<ObjectSlot>,
        class: &str,
        in_service: &Gauge,
        ready: &mut Vec<Ready>,
    ) {
        self.coordinate(slot, ready, |coord| {
            coord.running -= 1;
            in_service.dec();
            if let Some(n) = coord.class_in_service.get_mut(class) {
                *n -= 1;
                if *n == 0 {
                    coord.class_in_service.remove(class);
                }
            }
        });
    }

    /// The body of one invocation process.
    fn run_invocation(&self, slot: Arc<ObjectSlot>, pending: PendingInvocation) {
        // `pending.trace` was rewritten at dispatch (see `pump`) to the
        // `dispatch` span's context; queue residency in the pool was
        // already recorded by the pool itself as `vproc-wait`. All that
        // remains here is timing the execution.
        let exec_span = pending.trace.map(|t| {
            self.inner
                .obs
                .child_span_staged("execute", stage::EXECUTE, t)
        });
        let exec_start = now_ns();
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let ctx = OpCtx::new(
                self,
                &slot,
                pending.presented,
                pending.caller,
                pending.operation.clone(),
            );
            pending
                .resolved
                .manager
                .dispatch(&ctx, &pending.operation, &pending.args)
        }));
        self.inner
            .invoke_metrics
            .execute
            .record(now_ns().saturating_sub(exec_start));
        let exec_ctx = exec_span.map(|s| {
            let c = s.ctx();
            s.finish();
            c
        });

        let (status, results) = match outcome {
            Ok(Ok(values)) => (Status::Ok, values),
            Ok(Err(e)) => (e.into_status(), Vec::new()),
            Err(_) => (
                Status::AppError {
                    code: -3,
                    message: format!("operation '{}' panicked", pending.operation),
                },
                Vec::new(),
            ),
        };
        self.send_reply(pending.sink, status, results, exec_ctx);
        let mut ready = Vec::new();
        self.release(
            &slot,
            &pending.resolved.op.class,
            &pending.in_service,
            &mut ready,
        );
        self.dispatch(ready);
    }

    fn send_reply(
        &self,
        sink: ReplySink,
        status: Status,
        results: Vec<Value>,
        trace: Option<TraceCtx>,
    ) {
        match sink {
            ReplySink::Local(waiter) => waiter.complete(Some((status, results))),
            ReplySink::Remote { inv_id, reply_to } => {
                self.inner.served.lock().record_done(
                    (reply_to, inv_id),
                    status.clone(),
                    results.clone(),
                );
                let mut frame = Frame::to(
                    self.inner.id,
                    reply_to,
                    Message::InvokeReply {
                        inv_id,
                        status,
                        results,
                    },
                );
                if let Some(t) = trace {
                    frame = frame.with_trace(t);
                }
                let _ = self.inner.endpoint.send(frame);
            }
        }
    }

    // ================= The request/reply engine =================
    //
    // Replies rendezvous by id, so a caller may hold many tickets and
    // harvest them in any order; that is all a `PipelinedClient` is.

    /// Registers a reply waiter under a fresh id and sends `msg(id)` to
    /// `dst`, with `trace` on the frame; `invocation` also registers the
    /// request for the watchdog's slow-invocation probe. `None` when the
    /// transport refuses the frame outright.
    fn send_request(
        &self,
        dst: NodeId,
        trace: Option<TraceCtx>,
        invocation: bool,
        msg: impl FnOnce(u64) -> Message,
    ) -> Option<Ticket> {
        let ticket = Ticket {
            id: self.fresh_id(),
            dst,
            start_ns: now_ns(),
            trace,
            waiter: Arc::new(Waiter::new()),
            node: self.clone(),
        };
        let entry = Registered {
            waiter: ticket.waiter.clone(),
            invocation: invocation.then(|| (ticket.start_ns, trace.map_or(0, |t| t.trace_id))),
        };
        self.inner.pending.lock().insert(ticket.id, entry);
        if self
            .inner
            .endpoint
            .send(self.request_frame(&ticket, msg(ticket.id)))
            .is_err()
        {
            return None;
        }
        Some(ticket)
    }

    fn request_frame(&self, ticket: &Ticket, msg: Message) -> Frame {
        let frame = Frame::to(self.inner.id, ticket.dst, msg);
        match ticket.trace {
            Some(t) => frame.with_trace(t),
            None => frame,
        }
    }

    /// Waits up to `budget` for `ticket`'s reply. The wait is a blocking
    /// scope: a pool worker parked here (async
    /// invoke, redelivery, move) must not starve runnable local tasks.
    /// With `resend`, an unanswered request is re-sent every retransmit
    /// interval under the same id; the server dedupes (at-most-once
    /// execution; a lost reply is replayed from its reply cache).
    fn await_reply(
        &self,
        ticket: &Ticket,
        budget: Duration,
        resend: Option<&dyn Fn(u64) -> Message>,
    ) -> Option<Frame> {
        let deadline = Instant::now() + budget;
        let reply = blocking(|| loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let slice = match resend {
                Some(_) => left.min(self.inner.config.retransmit_interval),
                None => left,
            };
            if let Some(reply) = ticket.waiter.wait(slice) {
                break Some(reply);
            }
            let Some(msg) = resend.filter(|_| Instant::now() < deadline) else {
                break None;
            };
            self.inner.obs.recorder().record(KernelEvent::Retransmit {
                inv_id: ticket.id,
                dst: ticket.dst.0,
            });
            // Non-blocking even over TCP: the transport's send pipeline
            // enqueues to a per-peer writer, so a dead or slow
            // destination cannot stall this retransmit slice (the frame
            // sheds at the bounded queue).
            let _ = self
                .inner
                .endpoint
                .send(self.request_frame(ticket, msg(ticket.id)));
        });
        reply
    }

    /// One request/reply exchange without retransmission.
    fn request(
        &self,
        dst: NodeId,
        budget: Duration,
        msg: impl FnOnce(u64) -> Message,
    ) -> Option<Message> {
        let ticket = self.send_request(dst, None, false, msg)?;
        self.await_reply(&ticket, budget, None)
            .map(|reply| reply.msg)
    }

    /// The send half of every remote invocation, blocking or pipelined:
    /// sends `op` on `cap` to `dst` with `trace` on the frame. Fails only
    /// when the transport refuses the frame outright.
    pub(crate) fn send_invoke(
        &self,
        dst: NodeId,
        cap: Capability,
        op: &str,
        args: &[Value],
        trace: Option<TraceCtx>,
    ) -> std::result::Result<Ticket, Status> {
        self.inner.metrics.bump_remote_sent();
        self.send_request(dst, trace, true, |id| self.invoke_msg(id, cap, op, args))
            .ok_or(Status::NodeUnreachable)
    }

    /// The wait half of every remote invocation: waits up to `budget`,
    /// retransmitting on the configured interval, records the exchange
    /// as a `client-send` span and in `invoke.remote`, and learns the
    /// node that answered — after a forwarding chain that is the
    /// object's real home, so the chain is paid once: it is cached, and
    /// a forwarding address held here is compressed onto it. Returns
    /// the answer and that node (`Timeout` and `ticket.dst` when no
    /// reply came).
    pub(crate) fn await_invoke(
        &self,
        ticket: Ticket,
        cap: Capability,
        op: &str,
        args: &[Value],
        budget: Duration,
    ) -> (Status, Vec<Value>, NodeId) {
        let resend = |id| self.invoke_msg(id, cap, op, args);
        let resend: Option<&dyn Fn(u64) -> Message> =
            self.inner.config.enable_retransmission.then_some(&resend);
        let reply = self.await_reply(&ticket, budget, resend);
        let end_ns = now_ns();
        if let Some(t) = ticket.trace {
            // Recorded retroactively, since a pipelined ticket outlives
            // any span guard; the serving kernel's spans parent on the
            // same context, carried by the request frame.
            self.inner
                .obs
                .record_span("client-send", t, ticket.start_ns, end_ns);
        }
        self.inner
            .invoke_metrics
            .remote
            .record(end_ns.saturating_sub(ticket.start_ns));
        match reply.map(|frame| (frame.src, frame.msg)) {
            Some((
                from,
                Message::InvokeReply {
                    status, results, ..
                },
            )) => {
                if ends_search(&status) {
                    self.compress_forward(cap.name(), from, ticket.start_ns);
                    if self.inner.config.enable_location_cache {
                        self.cache_insert(cap.name(), from);
                    }
                }
                (status, results, from)
            }
            _ => {
                self.inner
                    .obs
                    .recorder()
                    .record(KernelEvent::RemoteTimeout { dst: ticket.dst.0 });
                (Status::Timeout, Vec::new(), ticket.dst)
            }
        }
    }

    fn invoke_msg(&self, inv_id: u64, cap: Capability, op: &str, args: &[Value]) -> Message {
        Message::InvokeRequest {
            inv_id,
            target: cap,
            operation: op.to_string(),
            args: args.to_vec(),
            reply_to: self.inner.id,
            hops: self.inner.config.hop_limit,
        }
    }

    /// Path compression of forwarding addresses (Fowler, PODC 1985):
    /// once `holder` has answered for `name` a request sent at
    /// `asked_ns`, a forwarding address this node holds for it points
    /// straight at `holder`, so neither this node's own calls nor the
    /// requests it forwards walk the old chain again. The entry is only
    /// overwritten, never inserted or removed: its presence is what
    /// stops a stale local checkpoint from reincarnating an object that
    /// moved away. An answer to a request older than the entry is
    /// ignored: the object may since have come back here and left
    /// again, and the old holder would forward back to this node.
    fn compress_forward(&self, name: ObjName, holder: NodeId, asked_ns: u64) {
        let outdated = |&(fwd, since): &(NodeId, u64)| fwd != holder && since <= asked_ns;
        let forwards = &self.inner.location.forwards;
        if holder == self.inner.id || !forwards.read().get(&name).is_some_and(outdated) {
            return;
        }
        if let Some(entry) = forwards.write().get_mut(&name).filter(|e| outdated(e)) {
            *entry = (holder, asked_ns);
        }
    }

    /// Where `name` may be, best guess first, each with whether the
    /// guess came from the hint cache: the forwarding address, the
    /// cached hint, then the birth node baked into the name.
    pub(crate) fn hints(&self, name: ObjName) -> Vec<(NodeId, bool)> {
        let mut hints = Vec::with_capacity(3);
        if let Some(&(fwd, _)) = self.inner.location.forwards.read().get(&name) {
            hints.push((fwd, false));
        }
        if self.inner.config.enable_location_cache {
            if let Some(hint) = self.inner.location.cache.lock().get(&name).copied() {
                hints.push((hint, true));
            }
        }
        hints.push((name.birth_node(), false));
        hints
    }

    /// The default per-exchange reply budget for pipelined calls.
    pub(crate) fn pipeline_default_budget(&self) -> Duration {
        self.inner.config.default_invoke_timeout
    }

    // ================= Location =================

    /// Broadcasts a `WhereIs` and collects answers for the locate window
    /// (cut short as soon as an active holder replies).
    fn locate_broadcast(&self, name: ObjName) -> Vec<LocationAnswer> {
        self.inner.metrics.bump_broadcast();
        self.inner
            .obs
            .recorder()
            .record(KernelEvent::WhereIsBroadcast {
                obj: name.to_u128(),
            });
        let query_id = self.fresh_id();
        // With the membership view, the wait can also end once every
        // live peer has answered (negative answers and gossip deaths
        // count), instead of always sleeping out the locate window.
        // When gossip believes *no* peer is live, keep the seed's
        // full-window wait: the verdict may be false (lossy network) and
        // a "dead" peer's answer is then the only way to find the object.
        let expected = self
            .inner
            .directory
            .as_ref()
            .map(|dir| dir.lock().expected_responders())
            .unwrap_or(0);
        let collector = if expected > 0 {
            Arc::new(QueryCollector::with_expected(expected))
        } else {
            Arc::new(QueryCollector::new())
        };
        self.inner
            .location
            .queries
            .lock()
            .insert(query_id, collector.clone());
        // Broadcast fans out as one enqueue per peer writer; an
        // unreachable node sheds its copy without delaying the others,
        // so the locate window below is pure answer-collection time.
        let _ = self.inner.endpoint.send(Frame::broadcast(
            self.inner.id,
            Message::WhereIs {
                query_id,
                name,
                reply_to: self.inner.id,
            },
        ));
        let answers = blocking(|| collector.wait(self.inner.config.locate_window));
        self.inner.location.queries.lock().remove(&query_id);
        answers
    }

    // ================= Lifecycle: checkpoint / crash / reincarnate =====

    /// Persists `slot`'s representation at its checksite; returns the
    /// durable version.
    pub(crate) fn checkpoint_slot(&self, slot: &Arc<ObjectSlot>) -> Result<u64> {
        let cs = slot.checksite();
        let image = {
            let repr = slot.repr.read();
            repr.to_image(
                &slot.type_name,
                slot.is_frozen(),
                slot.checkpoint_version() + 1,
            )
        };
        let version = self.put_checkpoint(cs.node, slot, &image)?;
        if let ReliabilityLevel::Replicated(k) = cs.level {
            // Best-effort replication to k additional sites: a down
            // replica does not fail the checkpoint (the checksite copy is
            // the durability contract; replicas raise availability).
            let mut peers = self.inner.endpoint.peers();
            peers.sort();
            let mut sent = 0;
            for peer in peers {
                if sent >= k {
                    break;
                }
                if peer == cs.node {
                    continue;
                }
                let _ = self.put_checkpoint(peer, slot, &image);
                sent += 1;
            }
            if sent < k && cs.node != self.inner.id {
                // Fall back to a local copy to honour the replica count
                // as far as possible.
                let _ = self.put_checkpoint(self.inner.id, slot, &image);
            }
        }
        slot.version.store(version, Ordering::Release);
        self.inner.metrics.bump_checkpoint();
        self.inner
            .obs
            .recorder()
            .record(KernelEvent::CheckpointWrite {
                obj: slot.name.to_u128(),
                version,
            });
        Ok(version)
    }

    /// Writes one checkpoint image of `slot` at `site` (local store or
    /// remote checksite over the wire). The slot's first local write
    /// registers this node as a checksite with the directory; the home
    /// keeps that registration, so later writes need not repeat it.
    fn put_checkpoint(&self, site: NodeId, slot: &ObjectSlot, image: &ObjectImage) -> Result<u64> {
        let name = slot.name;
        if site == self.inner.id {
            let version = self.inner.store.put(name, &image.encode_to_bytes())?;
            if !slot.checkpoint_registered.swap(true, Ordering::AcqRel) {
                self.dir_register(name, self.inner.id, DirRegisterKind::Checkpoint);
            }
            return Ok(version);
        }
        let budget = self.inner.config.remote_try_timeout;
        let reply = self.request(site, budget, |req_id| Message::CheckpointPut {
            req_id,
            name,
            image: image.clone(),
            reply_to: self.inner.id,
        });
        match reply {
            Some(Message::CheckpointAck {
                ok: true, version, ..
            }) => Ok(version),
            Some(Message::CheckpointAck { ok: false, .. }) => Err(EdenError::Store(
                eden_store::StoreError::Io(format!("checksite {site} refused the checkpoint")),
            )),
            _ => Err(EdenError::Invoke(Status::NodeUnreachable)),
        }
    }

    /// Sets the checksite of `slot` and persists it into the
    /// representation so it survives checkpoints and moves.
    pub(crate) fn set_checksite(
        &self,
        slot: &Arc<ObjectSlot>,
        node: NodeId,
        level: ReliabilityLevel,
    ) -> Result<()> {
        if slot.is_frozen() {
            return Err(EdenError::BadRequest(
                "cannot change the checksite of a frozen object".into(),
            ));
        }
        if node != self.inner.id && !self.inner.endpoint.peers().contains(&node) {
            return Err(EdenError::BadRequest(format!(
                "checksite {node} is not a known node"
            )));
        }
        *slot.checksite.lock() = Checksite { node, level };
        let mut w = Writer::new();
        w.put_u16(node.0);
        match level {
            ReliabilityLevel::Local => {
                w.put_u8(0);
                w.put_u32(0);
            }
            ReliabilityLevel::Replicated(k) => {
                w.put_u8(1);
                w.put_u32(k as u32);
            }
        }
        slot.repr.write().put(CHECKSITE_SEGMENT, w.finish());
        Ok(())
    }

    /// Parses a checksite persisted by [`Node::set_checksite`].
    fn parse_checksite(repr: &Representation, fallback: NodeId) -> Checksite {
        let Some(bytes) = repr.get(CHECKSITE_SEGMENT) else {
            return Checksite {
                node: fallback,
                level: ReliabilityLevel::Local,
            };
        };
        let mut r = Reader::new(bytes);
        let mut parse = || -> std::result::Result<Checksite, eden_wire::CodecError> {
            let node = NodeId(r.get_u16()?);
            let level = match r.get_u8()? {
                1 => ReliabilityLevel::Replicated(r.get_u32()? as usize),
                _ => ReliabilityLevel::Local,
            };
            Ok(Checksite { node, level })
        };
        parse().unwrap_or(Checksite {
            node: fallback,
            level: ReliabilityLevel::Local,
        })
    }

    /// Requests a crash (§4.4): active state is destroyed once running
    /// invocations complete; queued invocations reincarnate the object
    /// from its last checkpoint if one exists.
    pub(crate) fn request_crash(&self, slot: &Arc<ObjectSlot>) {
        self.pump_with(slot, |coord| coord.crash_requested = true);
    }

    /// Requests permanent destruction, once running invocations complete.
    pub(crate) fn request_destroy(&self, slot: &Arc<ObjectSlot>) {
        self.pump_with(slot, |coord| coord.destroy_requested = true);
    }

    /// Destroys active state: the crash primitive's teardown half.
    fn finish_crash(&self, slot: &Arc<ObjectSlot>) {
        self.inner.metrics.bump_crash();
        self.inner.obs.recorder().record(KernelEvent::Crash {
            obj: slot.name.to_u128(),
        });
        slot.short.teardown();
        self.inner.objects.write().remove(&slot.name);
        // Retract the holder registration before any reincarnation below
        // re-registers it (per-peer FIFO delivery keeps the order).
        self.dir_register(slot.name, self.inner.id, DirRegisterKind::Drop);
        let queued = self.drain_queue(&mut slot.coord.lock());
        if queued.is_empty() {
            return;
        }
        // The single-level-store illusion: invocations that arrived
        // during the crash reincarnate the object if it checkpointed.
        match self.activate_passive_local(slot.name) {
            Ok(new_slot) => {
                let mut ready = Vec::new();
                for pending in queued {
                    self.enqueue(&new_slot, pending, &mut ready);
                }
                self.dispatch(ready);
            }
            Err(status) => {
                // Without a checkpoint the object is gone; a saturated
                // pool leaves it passive, to reincarnate later.
                let status = if status == Status::Overloaded {
                    status
                } else {
                    Status::ObjectCrashed
                };
                for pending in queued {
                    let trace = pending.trace;
                    self.send_reply(pending.sink, status.clone(), Vec::new(), trace);
                }
            }
        }
    }

    /// Destroys the object and its checkpoints everywhere we know of.
    fn finish_destroy(&self, slot: &Arc<ObjectSlot>) {
        slot.short.teardown();
        self.inner.objects.write().remove(&slot.name);
        self.inner.destroyed.lock().insert(slot.name);
        self.dir_register(slot.name, self.inner.id, DirRegisterKind::Drop);
        let _ = self.inner.store.delete(slot.name);
        let cs = slot.checksite();
        if cs.node != self.inner.id {
            let req_id = self.fresh_id();
            let _ = self.inner.endpoint.send(Frame::to(
                self.inner.id,
                cs.node,
                Message::CheckpointDelete {
                    req_id,
                    name: slot.name,
                    reply_to: self.inner.id,
                },
            ));
        }
        for pending in self.drain_queue(&mut slot.coord.lock()) {
            let trace = pending.trace;
            self.send_reply(pending.sink, Status::Destroyed, Vec::new(), trace);
        }
    }

    /// Reincarnates `name` from a locally held checkpoint.
    ///
    /// Returns the (possibly still-reincarnating) slot; invocations may be
    /// queued against it immediately. Fails with `NoSuchObject` when no
    /// usable checkpoint is held here, and with `Overloaded` when the
    /// pool refuses the reincarnation.
    fn activate_passive_local(
        &self,
        name: ObjName,
    ) -> std::result::Result<Arc<ObjectSlot>, Status> {
        let (version, image) = self
            .inner
            .store
            .latest(name)
            .ok()
            .flatten()
            .and_then(|(version, bytes)| {
                Some((version, ObjectImage::decode_from_bytes(&bytes).ok()?))
            })
            .filter(|(_, image)| self.inner.registry.has(&image.type_name))
            .ok_or(Status::NoSuchObject)?;
        let slot = match self.install_image(name, &image, version) {
            Ok(slot) => slot,
            Err(existing) => return Ok(existing), // Raced with another activation.
        };
        let node = self.clone();
        let task_slot = slot.clone();
        if self
            .inner
            .vprocs
            .submit(move || node.run_reincarnation(task_slot))
            .is_err()
        {
            // Pool saturated: back out; the object stays passive and a
            // later invocation retries the reincarnation.
            self.fail_reincarnation(&slot, Status::Overloaded);
            return Err(Status::Overloaded);
        }
        Ok(slot)
    }

    /// Puts a reincarnating slot built from `image` into the object
    /// table; `Err` hands back the slot already there.
    fn install_image(
        &self,
        name: ObjName,
        image: &ObjectImage,
        version: u64,
    ) -> std::result::Result<Arc<ObjectSlot>, Arc<ObjectSlot>> {
        let mut objects = self.inner.objects.write();
        if let Some(existing) = objects.get(&name) {
            return Err(existing.clone());
        }
        let repr = Representation::from_image(image);
        let checksite = Self::parse_checksite(&repr, self.inner.id);
        let slot = ObjectSlot::new(
            name,
            image.type_name.clone(),
            repr,
            ObjStatus::Reincarnating,
            checksite,
        );
        slot.version.store(version, Ordering::Release);
        slot.frozen.store(image.frozen, Ordering::Release);
        objects.insert(name, slot.clone());
        Ok(slot)
    }

    /// Runs the reincarnation condition handler, then opens the gate for
    /// queued invocations (§4.2).
    fn run_reincarnation(&self, slot: Arc<ObjectSlot>) {
        let manager = match self.inner.registry.manager(&slot.type_name) {
            Some(m) => m,
            None => {
                self.fail_reincarnation(&slot, reincarnation_failed("type manager vanished"));
                return;
            }
        };
        let cap = Capability::mint(slot.name);
        let ctx = OpCtx::new(self, &slot, cap, self.inner.id, "<reincarnate>");
        match manager.reincarnate(&ctx) {
            Ok(()) => {
                self.inner.metrics.bump_reincarnation();
                self.inner
                    .obs
                    .recorder()
                    .record(KernelEvent::Reincarnation {
                        obj: slot.name.to_u128(),
                        version: slot.checkpoint_version(),
                    });
                self.dir_register(slot.name, self.inner.id, DirRegisterKind::Active);
                self.pump_with(&slot, |coord| coord.status = ObjStatus::Active);
            }
            Err(e) => {
                let status = e.into_status();
                self.fail_reincarnation(&slot, reincarnation_failed(status));
            }
        }
    }

    /// Takes a slot that never became active out of the table and
    /// answers the invocations queued on it with `status`.
    fn fail_reincarnation(&self, slot: &Arc<ObjectSlot>, status: Status) {
        self.inner.objects.write().remove(&slot.name);
        for pending in self.drain_queue(&mut slot.coord.lock()) {
            let trace = pending.trace;
            self.send_reply(pending.sink, status.clone(), Vec::new(), trace);
        }
    }

    // ================= Mobility (§4.3) =================

    /// Requests that a local active object move to `dst` (rights already
    /// verified by the caller: the object itself via [`OpCtx::move_to`],
    /// or [`Node::move_object`] which checks `Rights::MOVE`).
    pub(crate) fn request_move(&self, slot: &Arc<ObjectSlot>, dst: NodeId) -> Result<()> {
        if dst == self.inner.id {
            return Ok(());
        }
        if !self.inner.endpoint.peers().contains(&dst) {
            return Err(EdenError::BadRequest(format!("{dst} is not a known node")));
        }
        self.pump_with(slot, |coord| {
            if coord.status == ObjStatus::Moving || coord.pending_move.is_some() {
                return Err(EdenError::BadRequest("move already in progress".into()));
            }
            coord.pending_move = Some(dst);
            Ok(())
        })
    }

    /// The kernel-level move operation, usable by policy objects holding
    /// `Rights::MOVE` on the target (§4.3: "some objects may have the
    /// ability to make location decisions for other objects").
    pub fn move_object(&self, cap: Capability, dst: NodeId) -> Result<()> {
        if !cap.permits(eden_capability::Rights::MOVE) {
            return Err(EdenError::Invoke(Status::RightsViolation {
                required: eden_capability::Rights::MOVE,
                held: cap.rights(),
            }));
        }
        let slot =
            self.inner
                .objects
                .read()
                .get(&cap.name())
                .cloned()
                .ok_or(EdenError::BadRequest(
                    "move_object requires the object to be active on this node".into(),
                ))?;
        self.request_move(&slot, dst)
    }

    /// Executes a quiesced move: ship the image, then hand over the
    /// queue and leave a forwarding address.
    fn start_move(&self, slot: Arc<ObjectSlot>, dst: NodeId) {
        let image = {
            let repr = slot.repr.read();
            repr.to_image(&slot.type_name, slot.is_frozen(), slot.checkpoint_version())
        };
        let budget = self.inner.config.move_timeout;
        let ack = self.request(dst, budget, |xfer_id| Message::MoveTransfer {
            xfer_id,
            name: slot.name,
            image,
            reply_to: self.inner.id,
        });
        match ack {
            Some(Message::MoveAck { accepted: true, .. }) => {
                self.inner.metrics.bump_move_out();
                self.inner.obs.recorder().record(KernelEvent::MoveOut {
                    obj: slot.name.to_u128(),
                    dst: dst.0,
                });
                slot.short.teardown();
                self.inner.objects.write().remove(&slot.name);
                self.inner
                    .location
                    .forwards
                    .write()
                    .insert(slot.name, (dst, now_ns()));
                self.cache_insert(slot.name, dst);
                let queued = self.drain_queue(&mut slot.coord.lock());
                let mut ready = Vec::new();
                for pending in queued {
                    self.reroute(pending, &mut ready);
                }
                self.dispatch(ready);
            }
            other => {
                // Rejected or timed out: resume in place. The rejection
                // reason is recorded for introspection.
                if let Some(Message::MoveAck { reason, .. }) = other {
                    *self.inner.last_move_rejection.lock() = Some(reason);
                }
                self.pump_with(&slot, |coord| {
                    coord.status = ObjStatus::Active;
                    coord.pending_move = None;
                });
            }
        }
    }

    /// The reason the most recent outbound move was rejected, if any —
    /// diagnostic surface for policy objects and tests.
    pub fn last_move_rejection(&self) -> Option<String> {
        self.inner.last_move_rejection.lock().clone()
    }

    /// Installs an object shipped to us by a move.
    fn install_moved(&self, src: NodeId, xfer_id: u64, name: ObjName, image: ObjectImage) {
        let reject = |reason: &str| {
            let _ = self.inner.endpoint.send(Frame::to(
                self.inner.id,
                src,
                Message::MoveAck {
                    xfer_id,
                    accepted: false,
                    reason: reason.to_string(),
                },
            ));
        };
        if !self.inner.registry.has(&image.type_name) {
            reject(&format!("type '{}' not registered here", image.type_name));
            return;
        }
        let Ok(slot) = self.install_image(name, &image, image.version) else {
            reject("object already present");
            return;
        };
        // The object's short-term state is rebuilt from scratch on the new
        // node: run the reincarnation condition handler.
        let manager = self
            .inner
            .registry
            .manager(&slot.type_name)
            .expect("checked above");
        let cap = Capability::mint(name);
        let ctx = OpCtx::new(self, &slot, cap, src, "<reincarnate>");
        match manager.reincarnate(&ctx) {
            Ok(()) => {
                self.inner.metrics.bump_move_in();
                self.inner.obs.recorder().record(KernelEvent::MoveIn {
                    obj: name.to_u128(),
                    src: src.0,
                });
                // If we had previously moved this object away, the old
                // forwarding entry is now wrong.
                self.inner.location.forwards.write().remove(&name);
                self.dir_register(name, self.inner.id, DirRegisterKind::Active);
                let _ = self.inner.endpoint.send(Frame::to(
                    self.inner.id,
                    src,
                    Message::MoveAck {
                        xfer_id,
                        accepted: true,
                        reason: String::new(),
                    },
                ));
                self.pump_with(&slot, |coord| coord.status = ObjStatus::Active);
            }
            Err(e) => {
                self.inner.objects.write().remove(&name);
                reject(&format!("reincarnation failed: {}", e.into_status()));
            }
        }
    }

    // ================= Frozen objects (§4.3) =================

    /// Freezes `slot`: representation becomes immutable, a frozen
    /// checkpoint is taken, and replicas may be cached elsewhere.
    pub(crate) fn freeze_slot(&self, slot: &Arc<ObjectSlot>) -> Result<u64> {
        slot.frozen.store(true, Ordering::Release);
        self.checkpoint_slot(slot)
    }

    /// Fetches a frozen object's representation and installs a local
    /// replica, so subsequent invocations run locally (§4.3: "Such an
    /// object can be replicated and cached at several sites in order to
    /// save the overhead of remote invocations").
    ///
    /// Requires `Rights::READ`: a replica is a readable copy of the
    /// whole representation, so a capability that cannot read the
    /// object must not be able to pull its bytes across the network.
    pub fn cache_replica(&self, cap: Capability) -> Result<()> {
        if !cap.permits(Rights::READ) {
            self.inner.metrics.bump_rights_violation();
            return Err(EdenError::Invoke(Status::RightsViolation {
                required: Rights::READ,
                held: cap.rights(),
            }));
        }
        let name = cap.name();
        if let Some(slot) = self.inner.objects.read().get(&name) {
            return if slot.is_frozen() {
                Ok(()) // Already local (home or replica).
            } else {
                Err(EdenError::BadRequest(
                    "object is local and not frozen".into(),
                ))
            };
        }
        // Find the holder: the best hint a peer can take, else every
        // node that answers a broadcast.
        let peers = self.inner.endpoint.peers();
        let hint = self
            .hints(name)
            .into_iter()
            .find(|(h, _)| peers.contains(h));
        let candidates: Vec<NodeId> = match hint {
            Some((h, _)) => vec![h],
            None => self
                .locate_broadcast(name)
                .iter()
                .map(|a| a.holder)
                .collect(),
        };
        for h in candidates {
            let budget = self.inner.config.remote_try_timeout;
            let reply = self.request(h, budget, |req_id| Message::ReplicaRequest {
                req_id,
                name,
                reply_to: self.inner.id,
            });
            if let Some(Message::ReplicaPush {
                image: Some(image), ..
            }) = reply
            {
                if !image.frozen {
                    return Err(EdenError::BadRequest("object is not frozen".into()));
                }
                if !self.inner.registry.has(&image.type_name) {
                    return Err(EdenError::UnknownType(image.type_name));
                }
                let repr = Representation::from_image(&image);
                let slot =
                    ObjectSlot::new_replica(name, image.type_name.clone(), repr, image.version, h);
                self.inner.objects.write().insert(name, slot);
                self.inner.metrics.bump_replica();
                return Ok(());
            }
        }
        Err(EdenError::Invoke(Status::NoSuchObject))
    }

    /// Activates a passive object *on this node*, pulling its latest
    /// checkpoint from whichever nodes hold one (§4.4: "the checksite
    /// node that is responsible for maintaining an object's long-term
    /// state need not be the node responsible for supporting its active
    /// execution"). Picks the highest version among the answering
    /// holders. Fails if the object is already active anywhere or no
    /// checkpoint can be found.
    ///
    /// Requires `Rights::MOVE`, matching [`Node::move_object`]:
    /// activation decides *where* the object runs, which §4.3 reserves
    /// to holders of the location-decision right.
    pub fn activate_here(&self, cap: Capability) -> Result<()> {
        if !cap.permits(Rights::MOVE) {
            self.inner.metrics.bump_rights_violation();
            return Err(EdenError::Invoke(Status::RightsViolation {
                required: Rights::MOVE,
                held: cap.rights(),
            }));
        }
        let name = cap.name();
        if self.inner.objects.read().contains_key(&name) {
            return Ok(()); // Already active here.
        }
        // Try the local store first.
        if self.activate_passive_local(name).is_ok() {
            return Ok(());
        }
        let answers = self.locate_broadcast(name);
        if answers.iter().any(|a| a.state == HeldState::Active) {
            return Err(EdenError::BadRequest(
                "object is active elsewhere; use move_object instead".into(),
            ));
        }
        // Fetch from every passive holder; keep the newest image.
        let mut best: Option<ObjectImage> = None;
        for answer in answers.iter().filter(|a| a.state == HeldState::Passive) {
            let budget = self.inner.config.remote_try_timeout;
            let reply = self.request(answer.holder, budget, |req_id| Message::CheckpointFetch {
                req_id,
                name,
                reply_to: self.inner.id,
            });
            if let Some(Message::CheckpointData {
                image: Some(image), ..
            }) = reply
            {
                if best
                    .as_ref()
                    .map(|b| image.version > b.version)
                    .unwrap_or(true)
                {
                    best = Some(image);
                }
            }
        }
        let Some(image) = best else {
            return Err(EdenError::Invoke(Status::NoSuchObject));
        };
        if !self.inner.registry.has(&image.type_name) {
            return Err(EdenError::UnknownType(image.type_name));
        }
        // Persist the fetched image locally so this node can answer
        // passive queries and re-reincarnate after its own crashes.
        self.inner.store.put(name, &image.encode_to_bytes())?;
        self.activate_passive_local(name)
            .map(|_| ())
            .map_err(EdenError::Invoke)
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

    // ================= Liveness =================

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
        self.inner.obs.recorder().record(KernelEvent::NodeShutdown);
        if let Some(h) = self.inner.watchdog_thread.lock().take() {
            let _ = h.join();
        }
        self.inner.endpoint.shutdown();
        if let Some(h) = self.inner.recv_thread.lock().take() {
            let _ = h.join();
        }
        // Teardown before the pool drain: it wakes behaviors (and their
        // port waits), so pool tasks blocked on object state can finish.
        for slot in self.inner.objects.read().values() {
            slot.short.teardown();
        }
        self.inner.vprocs.shutdown();
    }

    // ================= The stall watchdog =================

    /// The body of the `eden-watchdog-<id>` thread: every
    /// [`NodeConfig::watchdog_interval`] it probes the three places an
    /// invocation can silently wedge — the virtual-processor pool (a
    /// busy worker or an un-dequeued head-of-queue task past the stall
    /// deadline), the transport's per-peer writer queues (non-draining
    /// past the same deadline), and the in-flight remote invocations
    /// (older than the slow-invocation budget). Each finding becomes a
    /// typed flight-recorder event plus a bump of `watchdog.stalls`,
    /// and the batch is rendered into a diagnostic snapshot scrapeable
    /// via the node object's `get_watchdog` operation.
    fn watchdog_loop(&self) {
        let interval = self.inner.config.watchdog_interval;
        let deadline_ns = self.inner.config.watchdog_stall_deadline.as_nanos() as u64;
        let budget_ns = self.inner.config.slow_invocation_budget.as_nanos() as u64;
        // Per-finding report times, so a persistent stall re-reports
        // once per deadline period instead of once per probe tick.
        let mut last_report: HashMap<(u8, u64), u64> = HashMap::new();
        loop {
            // Sleep in small slices so shutdown joins promptly even
            // with a long probe interval.
            let mut slept = Duration::ZERO;
            while slept < interval {
                if self.inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                let nap = (interval - slept).min(Duration::from_millis(10));
                std::thread::sleep(nap);
                slept += nap;
            }
            let now = now_ns();
            let mut due = |key: (u8, u64)| match last_report.get(&key) {
                Some(&t) if now.saturating_sub(t) < deadline_ns => false,
                _ => {
                    last_report.insert(key, now);
                    true
                }
            };
            let mut stalls: Vec<KernelEvent> = Vec::new();
            let probe = self.inner.vprocs.stall_probe();
            if let Some((wid, age)) = probe.busiest {
                if age >= deadline_ns && due((0, wid as u64)) {
                    stalls.push(KernelEvent::VprocStall {
                        worker: wid,
                        age_ms: age / 1_000_000,
                        queued: probe.queued as u64,
                    });
                }
            }
            if probe.oldest_wait_ns >= deadline_ns && due((1, 0)) {
                // `u16::MAX` is the reserved "no particular worker"
                // marker: the queue head itself is not being picked up.
                stalls.push(KernelEvent::VprocStall {
                    worker: u16::MAX,
                    age_ms: probe.oldest_wait_ns / 1_000_000,
                    queued: probe.queued as u64,
                });
            }
            for (dst, age, queued) in self.inner.endpoint.writer_probe() {
                if age >= deadline_ns && due((2, dst.0 as u64)) {
                    stalls.push(KernelEvent::WriterStall {
                        dst: dst.0,
                        age_ms: age / 1_000_000,
                        queued,
                    });
                }
            }
            for (inv_id, start_ns, trace) in self.in_flight_invocations() {
                let age = now.saturating_sub(start_ns);
                if age >= budget_ns && due((3, inv_id)) {
                    stalls.push(KernelEvent::SlowInvocation {
                        inv_id,
                        age_ms: age / 1_000_000,
                        trace,
                    });
                }
            }
            if stalls.is_empty() {
                continue;
            }
            self.inner
                .obs
                .counter("watchdog.stalls")
                .add(stalls.len() as u64);
            for e in &stalls {
                self.inner.obs.recorder().record(*e);
            }
            *self.inner.watchdog_snapshot.lock() = Some(self.watchdog_snapshot_text(&stalls));
        }
    }

    /// The remote invocations awaiting a reply, as
    /// `(inv_id, start_ns, trace_id)`.
    fn in_flight_invocations(&self) -> Vec<(u64, u64, u64)> {
        self.inner
            .pending
            .lock()
            .iter()
            .filter_map(|(&id, r)| r.invocation.map(|(start, trace)| (id, start, trace)))
            .collect()
    }

    /// Renders one watchdog finding batch plus the node state needed to
    /// interpret it: thread names, pool and writer-queue depths, the
    /// oldest in-flight invocation, the oldest retained span, and the
    /// gossip membership view.
    fn watchdog_snapshot_text(&self, stalls: &[KernelEvent]) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let id = self.inner.id;
        let _ = writeln!(s, "watchdog snapshot node={id} at_ns={}", now_ns());
        for e in stalls {
            let _ = writeln!(s, "  stall: {e}");
        }
        let v = self.inner.vprocs.stats();
        let _ = writeln!(
            s,
            "  threads: eden-recv-{id} eden-watchdog-{id} eden-vproc-{id}-[0..{}]",
            v.live
        );
        let _ = writeln!(
            s,
            "  vprocs: queued={} live={} blocked={} executed={} rejected={}",
            v.queued, v.live, v.blocked, v.executed, v.rejected
        );
        for (dst, age, queued) in self.inner.endpoint.writer_probe() {
            let _ = writeln!(
                s,
                "  writer-queue dst={dst}: {queued} frames, idle {} ms",
                age / 1_000_000
            );
        }
        let inflight = self.in_flight_invocations();
        let _ = write!(s, "  inflight: {}", inflight.len());
        if let Some((inv_id, start, trace)) = inflight.iter().min_by_key(|i| i.1) {
            let _ = write!(
                s,
                ", oldest inv={inv_id} age={} ms trace={trace:#x}",
                now_ns().saturating_sub(*start) / 1_000_000
            );
        }
        let _ = writeln!(s);
        if let Some(span) = self
            .inner
            .obs
            .traces()
            .spans()
            .into_iter()
            .min_by_key(|r| r.start_ns)
        {
            let _ = writeln!(
                s,
                "  oldest-span: {} trace={:#x} start_ns={}",
                span.name, span.trace_id, span.start_ns
            );
        }
        for (node, status, incarnation) in self.membership() {
            let _ = writeln!(
                s,
                "  member node={node} status={} incarnation={incarnation}",
                status.label()
            );
        }
        s
    }

    // ================= The receive loop =================

    fn recv_loop(&self) {
        // Gossip rides the receive loop (no thread of its own): the
        // state machine's timers are checked between frames, at most
        // every half protocol period and at least every recv timeout.
        let tick_every = (self.inner.config.gossip_interval / 2)
            .clamp(Duration::from_millis(5), Duration::from_millis(50));
        let mut next_gossip = Instant::now();
        loop {
            if self.inner.shutdown.load(Ordering::Acquire) {
                return;
            }
            if self.inner.directory.is_some() {
                let now = Instant::now();
                if now >= next_gossip {
                    let out = self
                        .inner
                        .directory
                        .as_ref()
                        .map(|dir| dir.lock().tick(now));
                    if let Some(out) = out {
                        self.apply_dir_output(out);
                    }
                    next_gossip = now + tick_every;
                }
            }
            match self
                .inner
                .endpoint
                .recv_batch(RECV_BATCH_MAX, Duration::from_millis(50))
            {
                // Frames are handled in arrival order (so replies, gossip
                // and location traffic keep their ordering), and the
                // invocations they make ready go to the pool as one
                // batch: one lock and one wakeup for the whole batch.
                Ok(batch) => {
                    let mut ready = Vec::new();
                    for frame in batch {
                        self.handle_frame(frame, &mut ready);
                    }
                    self.dispatch(ready);
                }
                Err(_) => return,
            }
        }
    }

    /// Handles one inbound frame; invocations it makes ready go to
    /// `ready`.
    fn handle_frame(&self, frame: Frame, ready: &mut Vec<Ready>) {
        let src = frame.src;
        let trace = frame.trace;
        match frame.msg {
            Message::InvokeRequest {
                inv_id,
                target,
                operation,
                args,
                reply_to,
                hops,
            } => self.handle_invoke_request(
                inv_id, target, operation, args, reply_to, hops, trace, ready,
            ),
            // A reply: it rendezvouses with its request by id.
            Message::InvokeReply { inv_id: id, .. }
            | Message::MoveAck { xfer_id: id, .. }
            | Message::ReplicaPush { req_id: id, .. }
            | Message::CheckpointAck { req_id: id, .. }
            | Message::CheckpointData { req_id: id, .. }
            | Message::Pong { token: id }
            | Message::DirAnswer { query_id: id, .. } => {
                if let (Message::InvokeReply { .. }, Some(ctx)) = (&frame.msg, trace) {
                    // Close the trace on the requester's side: a point
                    // span marking when the reply reached this kernel.
                    let t = now_ns();
                    self.inner.obs.record_span("reply", ctx, t, t);
                }
                let waiter = self.inner.pending.lock().get(&id).map(|r| r.waiter.clone());
                if let Some(waiter) = waiter {
                    waiter.complete(frame);
                }
            }
            Message::WhereIs {
                query_id,
                name,
                reply_to,
            } => {
                let state = if let Some(slot) = self.inner.objects.read().get(&name) {
                    Some(if slot.is_replica() {
                        HeldState::FrozenReplica
                    } else {
                        HeldState::Active
                    })
                } else if self.inner.location.forwards.read().contains_key(&name) {
                    // Moved away: the checkpoint here is the checksite
                    // copy of an object active elsewhere, not a passive
                    // object.
                    None
                } else if matches!(self.inner.store.latest(name), Ok(Some(_))) {
                    Some(HeldState::Passive)
                } else {
                    None
                };
                // With the directory on, a miss is still an *answer*
                // (`NotHeld`): the querier's collector can then complete
                // as soon as every live peer has spoken instead of
                // sleeping out the locate window.
                let state = match state {
                    Some(s) => Some(s),
                    None if self.inner.directory.is_some() => Some(HeldState::NotHeld),
                    None => None,
                };
                if let Some(state) = state {
                    let _ = self.inner.endpoint.send(Frame::to(
                        self.inner.id,
                        reply_to,
                        Message::HereIs {
                            query_id,
                            name,
                            state,
                        },
                    ));
                }
            }
            Message::HereIs {
                query_id,
                name,
                state,
            } => {
                if state == HeldState::Active {
                    self.cache_insert(name, src);
                }
                let collector = self.inner.location.queries.lock().get(&query_id).cloned();
                if let Some(c) = collector {
                    if state == HeldState::NotHeld {
                        c.add_negative();
                    } else {
                        c.add(LocationAnswer { holder: src, state });
                    }
                }
            }
            Message::MoveTransfer {
                xfer_id,
                name,
                image,
                reply_to,
            } => {
                let node = self.clone();
                if self
                    .inner
                    .vprocs
                    .submit(move || node.install_moved(reply_to, xfer_id, name, image))
                    .is_err()
                {
                    // Refuse the transfer; the source resumes in place.
                    let _ = self.inner.endpoint.send(Frame::to(
                        self.inner.id,
                        reply_to,
                        Message::MoveAck {
                            xfer_id,
                            accepted: false,
                            reason: "node overloaded".to_string(),
                        },
                    ));
                }
            }
            Message::ReplicaRequest {
                req_id,
                name,
                reply_to,
            } => {
                let image = self.inner.objects.read().get(&name).and_then(|slot| {
                    if slot.is_frozen() {
                        let repr = slot.repr.read();
                        Some(repr.to_image(&slot.type_name, true, slot.checkpoint_version()))
                    } else {
                        None
                    }
                });
                let _ = self.inner.endpoint.send(Frame::to(
                    self.inner.id,
                    reply_to,
                    Message::ReplicaPush {
                        req_id,
                        name,
                        image,
                    },
                ));
            }
            Message::CheckpointPut {
                req_id,
                name,
                image,
                reply_to,
            } => {
                let result = self.inner.store.put(name, &image.encode_to_bytes());
                let (ok, version) = match result {
                    Ok(v) => (true, v),
                    Err(_) => (false, 0),
                };
                let _ = self.inner.endpoint.send(Frame::to(
                    self.inner.id,
                    reply_to,
                    Message::CheckpointAck {
                        req_id,
                        ok,
                        version,
                    },
                ));
            }
            Message::CheckpointFetch {
                req_id,
                name,
                reply_to,
            } => {
                let image = self
                    .inner
                    .store
                    .latest(name)
                    .ok()
                    .flatten()
                    .and_then(|(_, bytes)| ObjectImage::decode_from_bytes(&bytes).ok());
                let _ = self.inner.endpoint.send(Frame::to(
                    self.inner.id,
                    reply_to,
                    Message::CheckpointData {
                        req_id,
                        name,
                        image,
                    },
                ));
            }
            Message::CheckpointDelete {
                req_id,
                name,
                reply_to,
            } => {
                let ok = self.inner.store.delete(name).is_ok();
                self.inner.destroyed.lock().insert(name);
                let _ = self.inner.endpoint.send(Frame::to(
                    self.inner.id,
                    reply_to,
                    Message::CheckpointAck {
                        req_id,
                        ok,
                        version: 0,
                    },
                ));
            }
            Message::Ping { token } => {
                let _ = self.inner.endpoint.send(Frame::to(
                    self.inner.id,
                    src,
                    Message::Pong { token },
                ));
            }
            Message::GossipPing {
                seq,
                reply_to,
                updates,
            } => {
                if let Some(dir) = &self.inner.directory {
                    let out = dir
                        .lock()
                        .handle_ping(src, seq, reply_to, &updates, Instant::now());
                    self.apply_dir_output(out);
                }
            }
            Message::GossipAck { seq, updates } => {
                if let Some(dir) = &self.inner.directory {
                    let out = dir.lock().handle_ack(src, seq, &updates, Instant::now());
                    self.apply_dir_output(out);
                }
            }
            Message::GossipPingReq {
                seq,
                target,
                reply_to,
                updates,
            } => {
                if let Some(dir) = &self.inner.directory {
                    let out = dir.lock().handle_ping_req(
                        src,
                        seq,
                        target,
                        reply_to,
                        &updates,
                        Instant::now(),
                    );
                    self.apply_dir_output(out);
                }
            }
            Message::DirRegister { name, holder, kind } => {
                if let Some(dir) = &self.inner.directory {
                    // This node may no longer be the name's home (the
                    // registrant's ring was stale): forward one hop.
                    let forward = dir.lock().handle_register(src, name, holder, kind);
                    if let Some((dst, msg)) = forward {
                        let _ = self.inner.endpoint.send(Frame::to(self.inner.id, dst, msg));
                    }
                }
            }
            Message::DirQuery {
                query_id,
                name,
                reply_to,
            } => {
                let (holder, state) = match &self.inner.directory {
                    Some(dir) => {
                        self.inner.metrics.bump_dir_served();
                        dir.lock().answer_query(name)
                    }
                    // Directory disabled here: answer a definitive miss
                    // so the querier falls back instead of waiting.
                    None => (None, DirState::Miss),
                };
                let _ = self.inner.endpoint.send(Frame::to(
                    self.inner.id,
                    reply_to,
                    Message::DirAnswer {
                        query_id,
                        name,
                        holder,
                        state,
                    },
                ));
            }
        }
    }

    /// Services an invocation request from another kernel.
    #[allow(clippy::too_many_arguments)]
    fn handle_invoke_request(
        &self,
        inv_id: u64,
        target: Capability,
        operation: String,
        args: Vec<Value>,
        reply_to: NodeId,
        hops: u8,
        trace: Option<TraceCtx>,
        ready: &mut Vec<Ready>,
    ) {
        self.inner.metrics.bump_remote_served();
        // At-most-once: replay a cached reply for a retransmitted
        // request; drop retransmissions of requests still executing.
        // Check *and* admit under one lock acquisition — with pipelined
        // clients a duplicate can race the original through the receive
        // path, and only an atomic check-and-insert keeps exactly one of
        // them executing. Every admitted request reaches `send_reply`
        // (which records it done and clears the marker) except the
        // forwarding path, which removes the marker itself.
        {
            let mut served = self.inner.served.lock();
            let key = (reply_to, inv_id);
            if let Some((status, results)) = served.done.get(&key).cloned() {
                drop(served);
                let _ = self.inner.endpoint.send(Frame::to(
                    self.inner.id,
                    reply_to,
                    Message::InvokeReply {
                        inv_id,
                        status,
                        results,
                    },
                ));
                return;
            }
            if !served.in_progress.insert(key) {
                return;
            }
        }
        self.route(
            inv_id, target, operation, args, reply_to, hops, trace, ready,
        );
    }

    /// Routes an admitted invocation request: serves it here, forwards
    /// it along a forwarding address, or refuses it.
    #[allow(clippy::too_many_arguments)]
    fn route(
        &self,
        inv_id: u64,
        target: Capability,
        operation: String,
        args: Vec<Value>,
        reply_to: NodeId,
        hops: u8,
        trace: Option<TraceCtx>,
        ready: &mut Vec<Ready>,
    ) {
        let name = target.name();
        let sink = ReplySink::Remote { inv_id, reply_to };

        // Remote telemetry scrape of this kernel: no slot exists for
        // the sentinel name, so answer before the object-table lookup.
        // The scrape enters the same at-most-once bookkeeping as an
        // ordinary invocation — `send_reply` records it done — so a
        // retransmitted scrape replays the cached reply instead of
        // re-executing and double-counting scrape-side metrics.
        if name == node_object_name(self.inner.id) {
            let (status, results) = self.serve_node_object(target, &operation, &args);
            self.send_reply(sink, status, results, trace);
            return;
        }

        let slot = self.inner.objects.read().get(&name).cloned();
        let slot = match slot {
            Some(s) => Some(s),
            None => {
                if self.inner.destroyed.lock().contains(&name) {
                    self.send_reply(sink, Status::Destroyed, Vec::new(), trace);
                    return;
                }
                // A forwarding address wins over a local checkpoint: the
                // checkpoint at the old checksite must not resurrect an
                // object that is active elsewhere.
                if self.inner.location.forwards.read().contains_key(&name) {
                    None
                } else {
                    match self.activate_passive_local(name) {
                        Ok(slot) => Some(slot),
                        Err(Status::Overloaded) => {
                            self.send_reply(sink, Status::Overloaded, Vec::new(), trace);
                            return;
                        }
                        Err(_) => None,
                    }
                }
            }
        };
        if let Some(slot) = slot {
            match self.validate(&slot, target, &operation, &args, sink, trace) {
                Ok(pending) => self.enqueue(&slot, pending, ready),
                Err(status) => self.send_reply(
                    ReplySink::Remote { inv_id, reply_to },
                    status,
                    Vec::new(),
                    trace,
                ),
            }
            return;
        }
        // Forwarding address from a past move?
        if let Some(&(fwd, _)) = self.inner.location.forwards.read().get(&name) {
            if hops > 0 {
                // Not served here after all: clear the admission marker so
                // a later retransmission can be forwarded again (the next
                // holder replies directly to `reply_to` and runs its own
                // at-most-once bookkeeping).
                self.inner
                    .served
                    .lock()
                    .in_progress
                    .remove(&(reply_to, inv_id));
                self.inner.metrics.bump_forward();
                self.inner.obs.recorder().record(KernelEvent::Forward {
                    obj: name.to_u128(),
                    dst: fwd.0,
                });
                let mut forwarded = Frame::to(
                    self.inner.id,
                    fwd,
                    Message::InvokeRequest {
                        inv_id,
                        target,
                        operation,
                        args,
                        reply_to,
                        hops: hops - 1,
                    },
                );
                if let Some(t) = trace {
                    forwarded = forwarded.with_trace(t);
                }
                let _ = self.inner.endpoint.send(forwarded);
                return;
            }
        }
        self.send_reply(sink, Status::NoSuchObject, Vec::new(), trace);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, OpError, OpResult, TypeManager, TypeSpec};

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

    fn cluster(nodes: usize, config: NodeConfig) -> Cluster {
        Cluster::builder()
            .nodes(nodes)
            .node_config(config)
            .register(|| Box::new(Plain))
            .build()
    }

    #[test]
    fn a_crash_requested_before_a_refused_dispatch_completes() {
        let cluster = cluster(
            1,
            NodeConfig {
                virtual_processors: 1,
                vproc_queue_cap: 1,
                ..NodeConfig::default()
            },
        );
        let node = cluster.node(0);
        let cap = node.create_object("plain", &[]).unwrap();
        node.invoke(cap, "checkpoint", &[]).unwrap();
        let slot = node.inner.objects.read().get(&cap.name()).cloned().unwrap();

        // Wedge the one worker, then fill the one queue slot.
        let gate = Arc::new(Waiter::<()>::new());
        let wedge = gate.clone();
        node.inner
            .vprocs
            .submit(move || {
                wedge.wait(Duration::from_secs(10));
            })
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while node.vproc_stats().queued > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        node.inner.vprocs.submit(|| {}).unwrap();

        // Pump one invocation to running, then request the crash before
        // its dispatch reaches the pool: the window a receive batch
        // leaves open between `pump` and `dispatch`.
        let waiter = Arc::new(Waiter::new());
        let sink = ReplySink::Local(waiter.clone());
        let pending = node.validate(&slot, cap, "work", &[], sink, None).unwrap();
        let mut ready = Vec::new();
        node.enqueue(&slot, pending, &mut ready);
        assert_eq!(ready.len(), 1);
        node.request_crash(&slot);
        assert!(node.is_local(cap.name()), "the crash waits for it to end");

        // The pool refuses the dispatch: the invocation is shed, and its
        // release finds nothing running, so the crash completes.
        node.dispatch(ready);
        assert_eq!(
            waiter.try_take(),
            Some(Some((Status::Overloaded, Vec::new())))
        );
        assert!(!node.is_local(cap.name()));
        assert_eq!(node.metrics().crashes, 1);

        gate.complete(());
        while node.vproc_stats().queued > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(node.invoke(cap, "work", &[]), Ok(vec![]));
        cluster.shutdown();
    }

    #[test]
    fn a_slow_invocation_is_reported_and_then_unregistered() {
        let cluster = cluster(
            2,
            NodeConfig {
                remote_try_timeout: Duration::from_millis(300),
                watchdog_interval: Duration::from_millis(5),
                slow_invocation_budget: Duration::from_millis(50),
                ..NodeConfig::default()
            },
        );
        let cap = cluster.node(0).create_object("plain", &[]).unwrap();
        cluster.mesh().partition(NodeId(0), NodeId(1));
        let client = cluster.node(1);
        assert_eq!(
            client.invoke_with_timeout(cap, "work", &[], Duration::from_millis(300)),
            Err(EdenError::Invoke(Status::Timeout))
        );

        let root = client
            .obs()
            .traces()
            .spans()
            .into_iter()
            .find(|s| s.name == "invoke" && s.parent_span == 0)
            .expect("the invocation's root span");
        let reported = client.obs().recorder().events().into_iter().any(|e| {
            matches!(e.event, KernelEvent::SlowInvocation { trace, .. } if trace == root.trace_id)
        });
        assert!(reported, "no slow-invocation event for the trace");
        let at_stall = client.inner.watchdog_snapshot.lock().clone().unwrap();
        assert!(at_stall.contains("inflight: 1"), "{at_stall}");
        // The reply wait unregistered the invocation.
        let now = client.watchdog_snapshot_text(&[]);
        assert!(now.contains("inflight: 0"), "{now}");
        cluster.shutdown();
    }

    #[test]
    fn only_a_fresher_answer_compresses_a_forwarding_address() {
        let cluster = cluster(3, NodeConfig::default());
        let node = cluster.node(0);
        let name = node.create_object("plain", &[]).unwrap().name();
        let forward = |n: &Node| n.inner.location.forwards.read().get(&name).copied();
        // No entry: an answer never inserts one.
        node.compress_forward(name, NodeId(2), 10);
        assert_eq!(forward(node), None);

        node.inner
            .location
            .forwards
            .write()
            .insert(name, (NodeId(1), 100));
        // An answer to a request sent before the address was learned
        // may name a node the object has since left.
        node.compress_forward(name, NodeId(2), 99);
        assert_eq!(forward(node), Some((NodeId(1), 100)));
        // This node never forwards to itself.
        node.compress_forward(name, NodeId(0), 200);
        assert_eq!(forward(node), Some((NodeId(1), 100)));
        node.compress_forward(name, NodeId(2), 150);
        assert_eq!(forward(node), Some((NodeId(2), 150)));
        cluster.shutdown();
    }
}
