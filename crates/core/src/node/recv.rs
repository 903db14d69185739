//! The receive loop: the kernel-to-kernel protocol's serving side. Two
//! `eden-recv` threads pass one receive role between them; the holder
//! receives and handles every frame in arrival order, and routes each
//! invocation request — served here, forwarded along a forwarding
//! address, or refused.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use eden_capability::{Capability, NodeId};
use eden_obs::{now_ns, KernelEvent, TraceCtx};
use eden_wire::{
    DirState, Frame, HeldState, Message, ObjectImage, Status, Value, WireDecode, WireEncode,
};

use super::location::Here;
use super::{node_object_name, Node, Ready};
use crate::object::ReplySink;
use crate::vproc::Lent;
use crate::waiter::LocationAnswer;

/// How many frames the receive loop asks the transport for per wakeup.
const RECV_BATCH_MAX: usize = 128;

/// At-most-once bookkeeping for remotely served invocations: requests
/// currently executing, and a bounded cache of sent replies so a lost
/// reply can be re-sent instead of the operation re-executed.
#[derive(Default)]
pub(super) struct ServedRequests {
    in_progress: HashSet<(NodeId, u64)>,
    done: HashMap<(NodeId, u64), (Status, Vec<Value>)>,
    order: VecDeque<(NodeId, u64)>,
}

impl ServedRequests {
    const CAPACITY: usize = 4096;

    pub(super) fn record_done(&mut self, key: (NodeId, u64), status: Status, results: Vec<Value>) {
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

impl Node {
    /// The body of each `eden-recv-<id>-<i>` thread: take the receive
    /// role when it is free, hold it (see [`hold_role`](Self::hold_role)),
    /// and when the holder hands the role over to run an invocation, run
    /// it and then stand by for the role again.
    pub(super) fn recv_loop(&self) {
        let threads = &self.inner.threads;
        loop {
            let mut next_gossip = {
                let mut role = threads.role.lock();
                while role.held && !self.inner.shutdown.load(Ordering::Acquire) {
                    role.standby += 1;
                    threads.handover.wait(&mut role);
                    role.standby -= 1;
                }
                if self.inner.shutdown.load(Ordering::Acquire) {
                    break;
                }
                role.held = true;
                role.next_gossip
            };
            let run_here = self.hold_role(&mut next_gossip);
            {
                let mut role = threads.role.lock();
                role.held = false;
                role.next_gossip = next_gossip;
                threads.handover.notify_one();
            }
            let Some((cpu, (slot, pending))) = run_here else {
                break;
            };
            self.run_lent(cpu, slot, pending);
        }
        threads.role.lock().running -= 1;
        threads.halt.notify_all();
    }

    /// Receives and handles frames while holding the receive role, until
    /// shutdown or a closed endpoint (`None`). A batch that readied
    /// exactly one invocation, while the pool lends this thread a
    /// processor and the other receive thread stands by, ends the hold:
    /// the invocation comes back to run here, and the standby takes the
    /// role. Every other batch's invocations go to the pool.
    fn hold_role(&self, next_gossip: &mut Instant) -> Option<(Lent, Ready)> {
        // Gossip rides the receive loop (no thread of its own): the
        // state machine's timers are checked between frames, at most
        // every half protocol period and at least every recv timeout.
        let tick_every = (self.inner.config.gossip_interval / 2)
            .clamp(Duration::from_millis(5), Duration::from_millis(50));
        let mut ready = Vec::new();
        loop {
            if self.inner.shutdown.load(Ordering::Acquire) {
                return None;
            }
            if Instant::now() >= *next_gossip {
                self.gossip(|dir, now| dir.tick(now));
                *next_gossip = Instant::now() + tick_every;
            }
            // Frames are handled in arrival order (so replies, gossip
            // and location traffic keep their ordering), and the
            // invocations they make ready go to the pool as one batch:
            // one lock and one wakeup for the whole batch.
            let batch = self
                .inner
                .endpoint
                .recv_batch(RECV_BATCH_MAX, Duration::from_millis(50))
                .ok()?;
            for frame in batch {
                self.handle_frame(frame, &mut ready);
            }
            if ready.len() == 1 {
                if let Some(cpu) = self.inner.vprocs.lend(ready[0].1.trace) {
                    let standby = self.inner.threads.role.lock().standby;
                    if standby > 0 {
                        return Some((cpu, ready.pop().expect("one ready invocation")));
                    }
                }
            }
            self.dispatch(std::mem::take(&mut ready));
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
                let state = match self.known_here(name) {
                    Here::Active(slot) if slot.is_replica() => Some(HeldState::FrozenReplica),
                    Here::Active(_) => Some(HeldState::Active),
                    Here::Passive(..) => Some(HeldState::Passive),
                    Here::Destroyed | Here::Forwarded(_) | Here::Absent => None,
                };
                // With the directory on, a miss is still an *answer*
                // (`NotHeld`): the querier's collector can then complete
                // as soon as every live peer has spoken instead of
                // sleeping out the locate window.
                let not_held = self.inner.directory.is_some().then_some(HeldState::NotHeld);
                let state = state.or(not_held);
                if let Some(state) = state {
                    self.send_msg(
                        reply_to,
                        Message::HereIs {
                            query_id,
                            name,
                            state,
                        },
                    );
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
                    self.send_msg(
                        reply_to,
                        Message::MoveAck {
                            xfer_id,
                            accepted: false,
                            reason: "node overloaded".to_string(),
                        },
                    );
                }
            }
            Message::ReplicaRequest {
                req_id,
                name,
                reply_to,
            } => {
                let image = self.inner.objects.read().get(&name).and_then(|slot| {
                    let repr = slot.is_frozen().then(|| slot.repr.read())?;
                    Some(repr.to_image(&slot.type_name, true, slot.checkpoint_version()))
                });
                self.send_msg(
                    reply_to,
                    Message::ReplicaPush {
                        req_id,
                        name,
                        image,
                    },
                );
            }
            Message::CheckpointPut {
                req_id,
                name,
                image,
                reply_to,
            } => {
                let put = self.inner.store.put(name, &image.encode_to_bytes());
                let (ok, version) = (put.is_ok(), put.unwrap_or(0));
                self.send_msg(
                    reply_to,
                    Message::CheckpointAck {
                        req_id,
                        ok,
                        version,
                    },
                );
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
                self.send_msg(
                    reply_to,
                    Message::CheckpointData {
                        req_id,
                        name,
                        image,
                    },
                );
            }
            Message::CheckpointDelete {
                req_id,
                name,
                reply_to,
            } => {
                let ok = self.inner.store.delete(name).is_ok();
                self.inner.destroyed.lock().insert(name);
                self.send_msg(
                    reply_to,
                    Message::CheckpointAck {
                        req_id,
                        ok,
                        version: 0,
                    },
                );
            }
            Message::Ping { token } => {
                self.send_msg(src, Message::Pong { token });
            }
            Message::GossipPing {
                seq,
                reply_to,
                updates,
            } => self.gossip(|dir, now| dir.handle_ping(src, seq, reply_to, &updates, now)),
            Message::GossipAck { seq, updates } => {
                self.gossip(|dir, now| dir.handle_ack(src, seq, &updates, now))
            }
            Message::GossipPingReq {
                seq,
                target,
                reply_to,
                updates,
            } => self
                .gossip(|dir, now| dir.handle_ping_req(src, seq, target, reply_to, &updates, now)),
            Message::DirRegister { name, holder, kind } => {
                if let Some(dir) = &self.inner.directory {
                    // This node may no longer be the name's home (the
                    // registrant's ring was stale): forward one hop.
                    let forward = dir.lock().handle_register(src, name, holder, kind);
                    if let Some((dst, msg)) = forward {
                        self.send_msg(dst, msg);
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
                self.send_msg(
                    reply_to,
                    Message::DirAnswer {
                        query_id,
                        name,
                        holder,
                        state,
                    },
                );
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
                self.send_msg(
                    reply_to,
                    Message::InvokeReply {
                        inv_id,
                        status,
                        results,
                    },
                );
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
    pub(super) fn route(
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

        let slot = match self.local_slot(name) {
            Ok(slot) => slot,
            Err((Status::NoSuchObject, Some(fwd))) if hops > 0 => {
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
                self.log_event(KernelEvent::Forward {
                    obj: name.to_u128(),
                    dst: fwd.0,
                });
                let forwarded = Message::InvokeRequest {
                    inv_id,
                    target,
                    operation,
                    args,
                    reply_to,
                    hops: hops - 1,
                };
                let _ = self.inner.endpoint.send(self.frame(fwd, forwarded, trace));
                return;
            }
            Err((status, _)) => {
                self.send_reply(sink, status, Vec::new(), trace);
                return;
            }
        };
        match self.validate(&slot, target, &operation, &args, sink, trace) {
            Ok(pending) => self.enqueue(&slot, pending, ready),
            Err(status) => self.send_reply(
                ReplySink::Remote { inv_id, reply_to },
                status,
                Vec::new(),
                trace,
            ),
        }
    }
}
