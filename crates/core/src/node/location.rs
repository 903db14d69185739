//! §2: the location-independent object address space.
//!
//! An invocation names an object, never a node; the kernel finds the
//! node. [`Search`] makes every decision of that search — which node to
//! ask next, what a gossip verdict is worth, whether an answer ends the
//! search, how broadcast answers rank, and when an answer may compress a
//! forwarding address. It holds no node, lock, channel or clock: the
//! [`Node`] methods here feed it this node's tables, the directory's
//! answer and the broadcast's replies, and perform the I/O it asks for.
//!
//! The other half of the rule is what this node itself knows of a name
//! ([`Node::known_here`]): an active slot, a destroyed name, a
//! forwarding address, a passive checkpoint, or nothing.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use eden_capability::{Capability, NodeId, ObjName};
use eden_directory::{DirOutput, DirectoryService, MemberEvent};
use eden_obs::{now_ns, stage, KernelEvent, TraceCtx};
use eden_wire::{
    DirRegisterKind, DirState, Frame, HeldState, MemberStatus, Message, ObjectImage, Status, Value,
    WireDecode,
};
use parking_lot::{Mutex, RwLock};

use super::Node;
use crate::lru::LruMap;
use crate::object::ObjectSlot;
use crate::vproc::blocking;
use crate::waiter::{LocationAnswer, QueryCollector};

/// This node's location tables.
pub(super) struct LocationService {
    /// Last known holder of an object (hints; may be stale). Bounded by
    /// [`NodeConfig::location_cache_cap`](super::NodeConfig::location_cache_cap)
    /// with LRU eviction.
    pub(super) cache: Mutex<LruMap<ObjName, NodeId>>,
    /// Where objects this node moved away now live, each with the time
    /// (`now_ns`) from which that address is known: the move's
    /// acknowledgement, or the send of the request whose answer
    /// compressed it.
    pub(super) forwards: RwLock<HashMap<ObjName, (NodeId, u64)>>,
    /// Outstanding broadcast queries.
    pub(super) queries: Mutex<HashMap<u64, Arc<QueryCollector>>>,
}

/// What this node itself knows of an object, before any message is
/// sent.
pub(super) enum Here {
    /// Active, or a cached replica, in this node's object table.
    Active(Arc<ObjectSlot>),
    /// Destroyed; its name is retired here.
    Destroyed,
    /// Moved away from here; it lives at, or beyond, this node. A
    /// forwarding address wins over a checkpoint held here: after a move
    /// the checkpoint at the old checksite is the copy of an object
    /// active elsewhere, and reincarnating it would make a stale twin.
    Forwarded(NodeId),
    /// Passive here: the latest checkpoint and its version.
    Passive(u64, ObjectImage),
    /// Nothing here.
    Absent,
}

/// Where an object may be, read from this node's tables at one moment:
/// the guesses a [`Search`] tries first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Hints {
    /// The forwarding address a move left here, with the time from which
    /// it is known.
    forward: Option<(NodeId, u64)>,
    /// The hint cache's last known holder.
    cached: Option<NodeId>,
    /// The birth node baked into the name.
    birth: NodeId,
}

impl Hints {
    /// The guesses, best first: the forwarding address, the cached
    /// hint, then the birth node.
    fn in_order(&self) -> impl Iterator<Item = (NodeId, Kind)> {
        let forward = self.forward.map(|(fwd, _)| (fwd, Kind::Hearsay));
        let cached = self.cached.map(|hint| (hint, Kind::Cached));
        forward
            .into_iter()
            .chain(cached)
            .chain([(self.birth, Kind::Hearsay)])
    }

    /// The best single guess: the first candidate a search tries.
    pub(crate) fn best(&self) -> NodeId {
        self.in_order().next().map_or(self.birth, |(node, _)| node)
    }
}

/// What one candidate's answer says about the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// An answer from the object's holder: the search ends.
    Answer,
    /// The candidate does not hold the object, and the request executed
    /// nowhere.
    NotHere,
    /// No answer came in time; the request may have executed.
    Silent,
}

/// The next thing a [`Search`] needs done.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Step {
    /// Ask `node`, then report its status with [`Search::answered`].
    /// `cached` marks a hint-cache guess, stale if `node` does not end
    /// the search.
    Try { node: NodeId, cached: bool },
    /// Ask the directory for the registered holder, then report it with
    /// [`Search::directory_answered`].
    AskDirectory,
    /// Broadcast a `WhereIs`, then report the answers with
    /// [`Search::broadcast_answered`].
    Broadcast,
    /// No candidate is left: the search fails with this status.
    Fail(Status),
}

/// How a candidate reached the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A hint or the directory's entry: hearsay, so only a peer gossip
    /// believes live is asked at once.
    Hearsay,
    /// A hearsay guess from the hint cache.
    Cached,
    /// A node that answered the broadcast, or a hearsay candidate gossip
    /// called dead, asked last: offered whatever gossip says.
    Direct,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Hints,
    Directory,
    Broadcast,
    LastResort,
    Done,
}

/// The location search as a state machine without I/O: forwarding
/// address → hint cache → birth node → directory → broadcast `WhereIs`,
/// then the candidates gossip called dead.
///
/// A gossip verdict is a hint like any other: a candidate skipped only
/// because gossip called it dead is tried last, never dropped, and a
/// search that then hears nothing from it fails with the retriable
/// `NodeUnreachable`, not `NoSuchObject`.
pub(crate) struct Search {
    me: NodeId,
    peers: Vec<NodeId>,
    directory: bool,
    broadcast: bool,
    stage: Stage,
    /// Candidates of the current stage not yet offered, best last.
    queue: Vec<(NodeId, Kind)>,
    tried: Vec<NodeId>,
    /// Hearsay candidates gossip called dead, in the order met (a node
    /// met twice is offered once: the second time it is in `tried`).
    dead: Vec<NodeId>,
    /// A candidate gossip called dead stayed silent.
    unreachable: bool,
}

impl Search {
    /// A search run by `me` among `peers`, starting from `hints`. With
    /// `directory`, a directory query follows the hints; a broadcast
    /// follows when the directory is off or `broadcast_fallback` is on.
    pub(crate) fn new(
        me: NodeId,
        peers: Vec<NodeId>,
        hints: Hints,
        directory: bool,
        broadcast_fallback: bool,
    ) -> Search {
        let mut queue: Vec<(NodeId, Kind)> = hints.in_order().collect();
        queue.reverse();
        Search {
            me,
            peers,
            directory,
            broadcast: !directory || broadcast_fallback,
            stage: Stage::Hints,
            queue,
            tried: Vec::new(),
            dead: Vec::new(),
            unreachable: false,
        }
    }

    /// Rules `node` out: it was asked before the search began.
    pub(crate) fn exclude(&mut self, node: NodeId) {
        self.tried.push(node);
    }

    /// The next step; `dead` is gossip's verdict on a peer.
    pub(crate) fn next(&mut self, dead: impl Fn(NodeId) -> bool) -> Step {
        loop {
            while let Some((node, kind)) = self.queue.pop() {
                if node == self.me || self.tried.contains(&node) {
                    continue;
                }
                if kind != Kind::Direct {
                    if !self.peers.contains(&node) {
                        continue;
                    }
                    if dead(node) {
                        self.dead.push(node);
                        continue;
                    }
                }
                self.tried.push(node);
                return Step::Try {
                    node,
                    cached: kind == Kind::Cached,
                };
            }
            match self.stage {
                Stage::Hints if self.directory => {
                    self.stage = Stage::Directory;
                    return Step::AskDirectory;
                }
                Stage::Hints | Stage::Directory if self.broadcast => {
                    self.stage = Stage::Broadcast;
                    return Step::Broadcast;
                }
                Stage::Hints | Stage::Directory | Stage::Broadcast => {
                    self.stage = Stage::LastResort;
                    let last = self.dead.iter().rev().map(|&n| (n, Kind::Direct));
                    self.queue.extend(last);
                }
                Stage::LastResort | Stage::Done => {
                    self.stage = Stage::Done;
                    return Step::Fail(if self.unreachable {
                        Status::NodeUnreachable
                    } else {
                        Status::NoSuchObject
                    });
                }
            }
        }
    }

    /// Reports the status the last [`Step::Try`] candidate answered;
    /// whether it ends the search.
    pub(crate) fn answered(&mut self, status: &Status) -> bool {
        let outcome = Search::classify(status);
        self.unreachable |= self.stage == Stage::LastResort && outcome == Outcome::Silent;
        outcome == Outcome::Answer
    }

    /// Reports the directory's registered holder, if any.
    pub(crate) fn directory_answered(&mut self, holder: Option<NodeId>) {
        self.queue.extend(holder.map(|h| (h, Kind::Hearsay)));
    }

    /// Reports the broadcast's answers: an active holder is asked first,
    /// then a frozen replica, then a passive checkpoint, each in the
    /// order heard.
    pub(crate) fn broadcast_answered(&mut self, answers: &[LocationAnswer]) {
        let rank = |state: HeldState| match state {
            HeldState::Active => Some(0),
            HeldState::FrozenReplica => Some(1),
            HeldState::Passive => Some(2),
            HeldState::NotHeld => None,
        };
        let mut ranked: Vec<(u8, NodeId)> = answers
            .iter()
            .filter_map(|a| Some((rank(a.state)?, a.holder)))
            .collect();
        ranked.sort_by_key(|&(r, _)| r);
        let ranked = ranked.into_iter().rev().map(|(_, n)| (n, Kind::Direct));
        self.queue.extend(ranked);
    }

    /// Whether `status` from a candidate ends the search.
    pub(crate) fn ends(status: &Status) -> bool {
        Search::classify(status) == Outcome::Answer
    }

    /// What `status` from a candidate says. Every status but
    /// `NoSuchObject` and `Timeout` is an answer from the object's real
    /// holder — enumerated (not `_`) so a new wire status forces a
    /// decision about whether it ends the search.
    pub(crate) fn classify(status: &Status) -> Outcome {
        match status {
            Status::NoSuchObject => Outcome::NotHere,
            Status::Timeout => Outcome::Silent,
            Status::Ok
            | Status::NoSuchOperation(_)
            | Status::RightsViolation { .. }
            | Status::ObjectCrashed
            | Status::Frozen
            | Status::TypeError(_)
            | Status::NodeUnreachable
            | Status::Destroyed
            | Status::AppError { .. }
            | Status::Overloaded => Outcome::Answer,
        }
    }

    /// Path compression of forwarding addresses (Fowler, PODC 1985):
    /// the entry `me` should hold once `holder` has answered a request
    /// sent at `asked_ns`, given the current `entry`; `None` keeps the
    /// entry. An answer only overwrites an address, never inserts one:
    /// its presence is what stops a stale local checkpoint from
    /// reincarnating an object that moved away. An answer to a request
    /// older than the entry is ignored: the object may since have come
    /// back here and left again, and the old holder would forward back
    /// to `me`.
    pub(crate) fn compressed(
        me: NodeId,
        entry: Option<(NodeId, u64)>,
        holder: NodeId,
        asked_ns: u64,
    ) -> Option<(NodeId, u64)> {
        let (fwd, since) = entry?;
        (holder != me && fwd != holder && since <= asked_ns).then_some((holder, asked_ns))
    }
}

impl Node {
    /// The cached location hint for `name`, refreshed as most recently
    /// used.
    pub fn location_hint(&self, name: ObjName) -> Option<NodeId> {
        self.inner.location.cache.lock().get(&name).copied()
    }

    /// Number of live location hints (bounded by
    /// [`NodeConfig::location_cache_cap`](super::NodeConfig::location_cache_cap)).
    pub fn location_cache_len(&self) -> usize {
        self.inner.location.cache.lock().len()
    }

    pub(super) fn cache_insert(&self, name: ObjName, holder: NodeId) {
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

    /// Whether gossip currently believes `node` is dead.
    fn peer_is_dead(&self, node: NodeId) -> bool {
        match &self.inner.directory {
            Some(dir) => dir.lock().status_of(node) == MemberStatus::Dead,
            None => false,
        }
    }

    /// Runs one step of the directory and gossip state machine, if the
    /// directory is on, and applies its output.
    pub(super) fn gossip(&self, step: impl FnOnce(&mut DirectoryService, Instant) -> DirOutput) {
        if let Some(dir) = &self.inner.directory {
            let out = step(&mut dir.lock(), Instant::now());
            self.apply_dir_output(out);
        }
    }

    /// Sends the frames a directory/membership step produced and applies
    /// its liveness events to kernel state.
    fn apply_dir_output(&self, out: DirOutput) {
        let location = &self.inner.location;
        for (dst, msg) in out.msgs {
            self.send_msg(dst, msg);
        }
        for event in out.events {
            match event {
                MemberEvent::Alive(node) => {
                    self.log_event(KernelEvent::MemberAlive { node: node.0 })
                }
                MemberEvent::Suspect(node) => {
                    self.log_event(KernelEvent::MemberSuspect { node: node.0 })
                }
                MemberEvent::Dead(node) => {
                    self.inner.metrics.bump_gossip_dead();
                    self.log_event(KernelEvent::MemberDead { node: node.0 });
                    // Hints pointing at a dead node are now worthless.
                    location.cache.lock().retain(|_, holder| *holder != node);
                    // Broadcasts in flight will never hear from it: rule
                    // it out so their collectors can complete early.
                    for collector in location.queries.lock().values() {
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
    pub(super) fn dir_register(&self, name: ObjName, holder: NodeId, kind: DirRegisterKind) {
        let Some(dir) = &self.inner.directory else {
            return;
        };
        self.inner.metrics.bump_dir_register();
        let forward = dir
            .lock()
            .handle_register(self.inner.id, name, holder, kind);
        let home = forward.as_ref().map_or(self.inner.id, |(dst, _)| *dst);
        self.log_event(KernelEvent::DirectoryRegister {
            obj: name.to_u128(),
            home: home.0,
        });
        if let Some((dst, msg)) = forward {
            self.send_msg(dst, msg);
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
        self.log_event(KernelEvent::DirectoryQuery {
            obj: name.to_u128(),
            home: home.0,
        });
        let (holder, state) = if home == self.inner.id {
            dir.lock().answer_query(name)
        } else {
            let left = deadline.saturating_duration_since(Instant::now());
            let budget = self.inner.config.locate_window.min(left);
            let reply = self.request(home, budget, |query_id| Message::DirQuery {
                query_id,
                name,
                reply_to: self.inner.id,
            });
            match reply {
                Some(Message::DirAnswer { holder, state, .. }) => (holder, state),
                // Home unreachable or the answer was lost: treat as a
                // miss and let the caller fall back.
                _ => (None, DirState::Miss),
            }
        };
        let hit = (state == DirState::Hit).then_some(holder).flatten();
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

    /// What this node knows of `name` (see [`Here`]). An active slot
    /// answers from the object table alone; otherwise the destroyed set,
    /// the forwarding table and the store are read, in that order.
    pub(super) fn known_here(&self, name: ObjName) -> Here {
        if let Some(slot) = self.inner.objects.read().get(&name) {
            return Here::Active(slot.clone());
        }
        if self.inner.destroyed.lock().contains(&name) {
            return Here::Destroyed;
        }
        if let Some(&(fwd, _)) = self.inner.location.forwards.read().get(&name) {
            return Here::Forwarded(fwd);
        }
        let latest = self.inner.store.latest(name).ok().flatten();
        let image = latest.and_then(|(v, b)| Some((v, ObjectImage::decode_from_bytes(&b).ok()?)));
        image.map_or(Here::Absent, |(version, image)| {
            Here::Passive(version, image)
        })
    }

    /// This node's hints for `name`.
    pub(crate) fn hints(&self, name: ObjName) -> Hints {
        let forward = self.inner.location.forwards.read().get(&name).copied();
        let cache = self.inner.config.enable_location_cache;
        let cached = cache.then(|| self.location_hint(name)).flatten();
        Hints {
            forward,
            cached,
            birth: name.birth_node(),
        }
    }

    /// A [`Search`] for `name` from this node's tables and configuration.
    fn new_search(&self, name: ObjName) -> Search {
        Search::new(
            self.inner.id,
            self.inner.endpoint.peers(),
            self.hints(name),
            self.inner.directory.is_some(),
            self.inner.config.enable_broadcast_fallback,
        )
    }

    /// The location search for a remote holder, invoking `op` on each
    /// candidate [`Search`] names, except `tried`. Returns the answer and
    /// the node that gave it; `None` for the node when the search failed
    /// or timed out.
    pub(crate) fn search(
        &self,
        cap: Capability,
        op: &str,
        args: &[Value],
        deadline: Instant,
        ctx: Option<TraceCtx>,
        tried: Option<NodeId>,
    ) -> (Status, Vec<Value>, Option<NodeId>) {
        let name = cap.name();
        let hint_start = now_ns();
        let mut search = self.new_search(name);
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
        if let Some(node) = tried {
            search.exclude(node);
        }
        loop {
            let step = search.next(|n| self.peer_is_dead(n));
            let now = Instant::now();
            if now >= deadline && !matches!(step, Step::Fail(_)) {
                return (Status::Timeout, Vec::new(), None);
            }
            match step {
                Step::Try { node, cached } => {
                    if cached {
                        self.inner.metrics.bump_cache_hit();
                    }
                    let budget = (deadline - now).min(self.inner.config.remote_try_timeout);
                    // A blocking remote invocation: the send, then at once
                    // the wait.
                    let (status, results, from) = match self.send_invoke(node, cap, op, args, ctx) {
                        Ok(ticket) => self.await_invoke(ticket, cap, op, args, budget),
                        Err(status) => (status, Vec::new(), node),
                    };
                    if search.answered(&status) {
                        return (status, results, Some(from));
                    }
                    if cached {
                        self.inner.location.cache.lock().remove(&name);
                    }
                }
                // One message to the object's home node names the
                // registered holder, where the seed paid a broadcast plus
                // the locate window.
                Step::AskDirectory => {
                    search.directory_answered(self.directory_locate_before(name, deadline, ctx))
                }
                Step::Broadcast => {
                    let where_is_start = now_ns();
                    let answers = self.locate_broadcast(name);
                    if let Some(t) = ctx {
                        // The seed's safety net: a WhereIs broadcast plus
                        // the locate window. When this dominates a trace,
                        // the directory missed.
                        self.inner.obs.record_span_staged(
                            "where-is",
                            stage::DIRECTORY,
                            t,
                            where_is_start,
                            now_ns(),
                        );
                    }
                    search.broadcast_answered(&answers);
                }
                Step::Fail(status) => return (status, Vec::new(), None),
            }
        }
    }

    /// Finishes a call sent to one node ahead of the search: `answer` is
    /// its status, results and the node that gave it. An answer stands;
    /// `NoSuchObject` means the request executed nowhere, so the search
    /// goes on among the other nodes, within `deadline`; silence stands
    /// too, as the request may have executed.
    pub(crate) fn resume_search(
        &self,
        cap: Capability,
        op: &str,
        args: &[Value],
        deadline: Instant,
        ctx: Option<TraceCtx>,
        answer: (Status, Vec<Value>, NodeId),
    ) -> (Status, Vec<Value>, Option<NodeId>) {
        let (status, results, from) = answer;
        match Search::classify(&status) {
            Outcome::Answer => (status, results, Some(from)),
            Outcome::NotHere => self.search(cap, op, args, deadline, ctx, Some(from)),
            Outcome::Silent => (status, results, None),
        }
    }

    /// Compresses the forwarding address held for `name`, if any, onto
    /// `holder`, which answered a request sent at `asked_ns` (see
    /// [`Search::compressed`]).
    pub(super) fn compress_forward(&self, name: ObjName, holder: NodeId, asked_ns: u64) {
        let me = self.inner.id;
        let forwards = &self.inner.location.forwards;
        let entry = forwards.read().get(&name).copied();
        if Search::compressed(me, entry, holder, asked_ns).is_none() {
            return;
        }
        if let Some(entry) = forwards.write().get_mut(&name) {
            if let Some(fresher) = Search::compressed(me, Some(*entry), holder, asked_ns) {
                *entry = fresher;
            }
        }
    }

    /// Broadcasts a `WhereIs` and collects answers for the locate window
    /// (cut short as soon as an active holder replies).
    pub(super) fn locate_broadcast(&self, name: ObjName) -> Vec<LocationAnswer> {
        self.inner.metrics.bump_broadcast();
        self.log_event(KernelEvent::WhereIsBroadcast {
            obj: name.to_u128(),
        });
        let query_id = self.fresh_id();
        // With the membership view, the wait can also end once every
        // live peer has answered (negative answers and gossip deaths
        // count), instead of always sleeping out the locate window.
        // When gossip believes *no* peer is live, keep the seed's
        // full-window wait: the verdict may be false (lossy network) and
        // a "dead" peer's answer is then the only way to find the object.
        let directory = self.inner.directory.as_ref();
        let collector = Arc::new(
            match directory.map_or(0, |d| d.lock().expected_responders()) {
                0 => QueryCollector::new(),
                expected => QueryCollector::with_expected(expected),
            },
        );
        let queries = &self.inner.location.queries;
        queries.lock().insert(query_id, collector.clone());
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
        queries.lock().remove(&query_id);
        answers
    }

    /// Finds a node that gives `fetch` what it asks for, trying the
    /// candidates a [`Search`] names: `fetch` returns the value, or the
    /// status the candidate answered (`Timeout` for silence).
    pub(super) fn fetch_located<T>(
        &self,
        name: ObjName,
        mut fetch: impl FnMut(NodeId) -> Result<T, Status>,
    ) -> Result<T, Status> {
        let mut search = self.new_search(name);
        loop {
            match search.next(|n| self.peer_is_dead(n)) {
                Step::Try { node, .. } => match fetch(node) {
                    Ok(found) => return Ok(found),
                    Err(status) => {
                        search.answered(&status);
                    }
                },
                Step::AskDirectory => search.directory_answered(self.directory_locate(name)),
                Step::Broadcast => search.broadcast_answered(&self.locate_broadcast(name)),
                Step::Fail(status) => return Err(status),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ME: NodeId = NodeId(0);

    fn peers() -> Vec<NodeId> {
        (1..5).map(NodeId).collect()
    }

    fn hints(forward: Option<u16>, cached: Option<u16>, birth: u16) -> Hints {
        Hints {
            forward: forward.map(|n| (NodeId(n), 0)),
            cached: cached.map(NodeId),
            birth: NodeId(birth),
        }
    }

    fn alive(_: NodeId) -> bool {
        false
    }

    fn answer(holder: u16, state: HeldState) -> LocationAnswer {
        LocationAnswer {
            holder: NodeId(holder),
            state,
        }
    }

    fn try_node(node: u16, cached: bool) -> Step {
        Step::Try {
            node: NodeId(node),
            cached,
        }
    }

    #[test]
    fn every_status_is_classified() {
        let answers = [
            Status::Ok,
            Status::NoSuchOperation("op".into()),
            Status::RightsViolation {
                required: eden_capability::Rights::READ,
                held: eden_capability::Rights::empty(),
            },
            Status::ObjectCrashed,
            Status::Frozen,
            Status::TypeError("t".into()),
            Status::NodeUnreachable,
            Status::Destroyed,
            Status::AppError {
                code: 1,
                message: "m".into(),
            },
            Status::Overloaded,
        ];
        for status in &answers {
            assert_eq!(Search::classify(status), Outcome::Answer, "{status:?}");
        }
        assert_eq!(Search::classify(&Status::NoSuchObject), Outcome::NotHere);
        assert_eq!(Search::classify(&Status::Timeout), Outcome::Silent);
        let mut search = Search::new(ME, peers(), hints(None, None, 1), true, true);
        assert_eq!(search.next(alive), try_node(1, false));
        assert!(search.answered(&Status::Ok));
        assert!(!search.answered(&Status::NoSuchObject));
        assert!(!search.answered(&Status::Timeout));
    }

    #[test]
    fn candidates_come_in_order_each_once() {
        let mut search = Search::new(ME, peers(), hints(Some(1), Some(2), 3), true, true);
        assert_eq!(search.next(alive), try_node(1, false));
        assert_eq!(search.next(alive), try_node(2, true));
        assert_eq!(search.next(alive), try_node(3, false));
        assert_eq!(search.next(alive), Step::AskDirectory);
        // A holder already asked is not asked again.
        search.directory_answered(Some(NodeId(2)));
        assert_eq!(search.next(alive), Step::Broadcast);
        search.broadcast_answered(&[answer(4, HeldState::Passive)]);
        assert_eq!(search.next(alive), try_node(4, false));
        assert_eq!(search.next(alive), Step::Fail(Status::NoSuchObject));
        assert_eq!(search.next(alive), Step::Fail(Status::NoSuchObject));
    }

    #[test]
    fn self_non_peers_and_tried_nodes_are_skipped() {
        let mut search = Search::new(ME, peers(), hints(Some(0), Some(9), 3), true, true);
        search.exclude(NodeId(3));
        assert_eq!(search.next(alive), Step::AskDirectory);
        search.directory_answered(Some(NodeId(4)));
        assert_eq!(search.next(alive), try_node(4, false));
        assert_eq!(search.next(alive), Step::Broadcast);
        // This node and the nodes already asked are skipped among the
        // broadcast's answers too.
        search.broadcast_answered(&[
            answer(0, HeldState::Active),
            answer(3, HeldState::Active),
            answer(4, HeldState::Active),
        ]);
        assert_eq!(search.next(alive), Step::Fail(Status::NoSuchObject));
    }

    #[test]
    fn broadcast_answers_rank_active_then_replica_then_passive() {
        let mut search = Search::new(ME, peers(), hints(None, None, 0), false, false);
        assert_eq!(search.next(alive), Step::Broadcast);
        search.broadcast_answered(&[
            answer(1, HeldState::Passive),
            answer(2, HeldState::NotHeld),
            answer(3, HeldState::FrozenReplica),
            answer(4, HeldState::Active),
            answer(1, HeldState::Passive),
        ]);
        assert_eq!(search.next(alive), try_node(4, false));
        assert_eq!(search.next(alive), try_node(3, false));
        assert_eq!(search.next(alive), try_node(1, false));
        assert_eq!(search.next(alive), Step::Fail(Status::NoSuchObject));
    }

    #[test]
    fn a_directory_only_miss_is_final() {
        let mut search = Search::new(ME, peers(), hints(None, None, 0), true, false);
        assert_eq!(search.next(alive), Step::AskDirectory);
        search.directory_answered(None);
        assert_eq!(search.next(alive), Step::Fail(Status::NoSuchObject));
    }

    #[test]
    fn a_node_gossip_calls_dead_is_tried_last_not_dropped() {
        let dead = |n: NodeId| n == NodeId(1);
        let mut search = Search::new(ME, peers(), hints(None, Some(2), 1), true, true);
        assert_eq!(search.next(dead), try_node(2, true));
        assert!(!search.answered(&Status::NoSuchObject));
        assert_eq!(search.next(dead), Step::AskDirectory);
        search.directory_answered(Some(NodeId(1)));
        assert_eq!(search.next(dead), Step::Broadcast);
        search.broadcast_answered(&[]);
        assert_eq!(search.next(dead), try_node(1, false));
        assert!(search.answered(&Status::Ok));

        // A node gossip calls dead that answers the broadcast is asked
        // in the broadcast's order.
        let mut search = Search::new(ME, peers(), hints(None, None, 1), true, true);
        assert_eq!(search.next(dead), Step::AskDirectory);
        search.directory_answered(None);
        assert_eq!(search.next(dead), Step::Broadcast);
        search.broadcast_answered(&[answer(1, HeldState::Active)]);
        assert_eq!(search.next(dead), try_node(1, false));
        assert_eq!(search.next(dead), Step::Fail(Status::NoSuchObject));
    }

    #[test]
    fn silence_from_a_node_gossip_calls_dead_fails_retriably() {
        let dead = |n: NodeId| n == NodeId(1);
        let mut search = Search::new(ME, peers(), hints(None, None, 1), true, false);
        assert_eq!(search.next(dead), Step::AskDirectory);
        search.directory_answered(None);
        assert_eq!(search.next(dead), try_node(1, false));
        assert!(!search.answered(&Status::Timeout));
        assert_eq!(search.next(dead), Step::Fail(Status::NodeUnreachable));

        // A node that answers `NoSuchObject` is alive after all, and the
        // object is not there.
        let mut search = Search::new(ME, peers(), hints(None, None, 1), true, false);
        assert_eq!(search.next(dead), Step::AskDirectory);
        search.directory_answered(None);
        assert_eq!(search.next(dead), try_node(1, false));
        search.answered(&Status::NoSuchObject);
        assert_eq!(search.next(dead), Step::Fail(Status::NoSuchObject));
    }

    #[test]
    fn the_best_hint_is_the_first_candidate() {
        assert_eq!(hints(Some(1), Some(2), 3).best(), NodeId(1));
        assert_eq!(hints(None, Some(2), 3).best(), NodeId(2));
        assert_eq!(hints(None, None, 3).best(), NodeId(3));
    }

    #[test]
    fn only_a_fresher_answer_compresses_a_forwarding_address() {
        // No entry: an answer never inserts one.
        assert_eq!(Search::compressed(ME, None, NodeId(2), 10), None);
        let entry = Some((NodeId(1), 100));
        // An answer to a request sent before the address was learned
        // may name a node the object has since left.
        assert_eq!(Search::compressed(ME, entry, NodeId(2), 99), None);
        // This node never forwards to itself.
        assert_eq!(Search::compressed(ME, entry, ME, 200), None);
        assert_eq!(
            Search::compressed(ME, entry, NodeId(2), 150),
            Some((NodeId(2), 150))
        );
    }
}
