//! eden-directory: gossip membership + the sharded location directory.
//!
//! The paper's kernel locates objects with a hint cache backed by a
//! cluster-wide broadcast (`WhereIs`), which costs O(nodes) messages per
//! miss and floors failover latency at the locate window. This crate
//! supplies the scalable replacement, in two layers:
//!
//! * [`Membership`] — a SWIM-style gossiper (ping / ping-req probes,
//!   piggybacked alive/suspect/dead rumors, incarnation numbers) so
//!   dead-holder detection is push-based instead of timeout-based;
//! * [`HashRing`] + [`DirectoryShard`] — every object name maps to a *home
//!   node* on a consistent-hash ring over the live membership; move,
//!   reincarnate and checkpoint events register the current holder at the
//!   home node, so a locate miss asks one node instead of all of them.
//!
//! [`DirectoryService`] composes the layers behind a single deterministic,
//! thread-free state machine: every entry point takes `now` and returns
//! the frames to transmit, so the kernel's receive loop drives it and
//! tests can single-step time. Directory answers are hints in Lampson's
//! sense — the invocation verifies them, the broadcast remains as a
//! compat fallback — so no distributed agreement is needed anywhere.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod membership;
pub mod ring;
pub mod shard;

use std::time::Instant;

use eden_capability::{NodeId, ObjName};
use eden_wire::{DirRegisterKind, DirState, MemberStatus, MemberUpdate, Message};

pub use membership::{GossipConfig, GossipOutput, MemberEvent, Membership};
pub use ring::HashRing;
pub use shard::{DirEntry, DirectoryShard};

/// Frames to send, liveness events to act on, and whether the ring moved.
#[derive(Debug, Default)]
pub struct DirOutput {
    /// Unicast frames to transmit, as `(destination, message)` pairs.
    pub msgs: Vec<(NodeId, Message)>,
    /// Liveness transitions observed while processing.
    pub events: Vec<MemberEvent>,
    /// True when the member set changed and the hash ring was rebuilt;
    /// the kernel re-registers its locally held objects in response.
    pub topology_changed: bool,
}

/// One node's membership view, hash ring, and directory shard.
#[derive(Debug)]
pub struct DirectoryService {
    membership: Membership,
    ring: HashRing,
    shard: DirectoryShard,
}

impl DirectoryService {
    /// Boots the service with every mesh peer presumed alive.
    pub fn new(self_id: NodeId, peers: &[NodeId], cfg: GossipConfig, now: Instant) -> Self {
        let membership = Membership::new(self_id, peers, cfg, now);
        let ring = HashRing::new(&membership.non_dead_view());
        DirectoryService {
            membership,
            ring,
            shard: DirectoryShard::default(),
        }
    }

    /// Advances gossip timers; call at least once per protocol period.
    pub fn tick(&mut self, now: Instant) -> DirOutput {
        let out = self.membership.tick(now);
        self.finish(out)
    }

    /// Handles an inbound [`Message::GossipPing`].
    pub fn handle_ping(
        &mut self,
        from: NodeId,
        seq: u64,
        reply_to: NodeId,
        updates: &[MemberUpdate],
        now: Instant,
    ) -> DirOutput {
        let out = self
            .membership
            .handle_ping(from, seq, reply_to, updates, now);
        self.finish(out)
    }

    /// Handles an inbound [`Message::GossipAck`].
    pub fn handle_ack(
        &mut self,
        from: NodeId,
        seq: u64,
        updates: &[MemberUpdate],
        now: Instant,
    ) -> DirOutput {
        let out = self.membership.handle_ack(from, seq, updates, now);
        self.finish(out)
    }

    /// Handles an inbound [`Message::GossipPingReq`].
    pub fn handle_ping_req(
        &mut self,
        from: NodeId,
        seq: u64,
        target: NodeId,
        reply_to: NodeId,
        updates: &[MemberUpdate],
        now: Instant,
    ) -> DirOutput {
        let out = self
            .membership
            .handle_ping_req(from, seq, target, reply_to, updates, now);
        self.finish(out)
    }

    /// Records a registration. Applied to the local shard when this node
    /// is the name's home; otherwise returns the frame to forward (the
    /// registrant's ring may be stale). Never forwards back to `from`, so
    /// two nodes with momentarily divergent rings cannot ping-pong.
    pub fn handle_register(
        &mut self,
        from: NodeId,
        name: ObjName,
        holder: NodeId,
        kind: DirRegisterKind,
    ) -> Option<(NodeId, Message)> {
        let self_id = self.membership.self_id();
        match self.ring.home(name) {
            Some(home) if home != self_id && home != from => {
                Some((home, Message::DirRegister { name, holder, kind }))
            }
            _ => {
                self.apply_register(name, holder, kind);
                None
            }
        }
    }

    /// Applies a registration to the local shard unconditionally (used
    /// when this node is, or must act as, the home).
    pub fn apply_register(&mut self, name: ObjName, holder: NodeId, kind: DirRegisterKind) {
        match kind {
            DirRegisterKind::Active => self.shard.register_active(name, holder),
            DirRegisterKind::Checkpoint => self.shard.register_checkpoint(name, holder),
            DirRegisterKind::Drop => self.shard.drop_active(name, holder),
        }
    }

    /// Answers a locate query from the local shard, filtered through the
    /// current liveness view (suspects are withheld, dead holders fall
    /// back to a live checksite).
    pub fn answer_query(&self, name: ObjName) -> (Option<NodeId>, DirState) {
        self.shard
            .lookup(name, |node| self.membership.status_of(node))
    }

    /// The believed home node of `name` on the current ring.
    pub fn home(&self, name: ObjName) -> Option<NodeId> {
        self.ring.home(name)
    }

    /// The believed liveness of `node`.
    pub fn status_of(&self, node: NodeId) -> MemberStatus {
        self.membership.status_of(node)
    }

    /// How many peers a broadcast can expect answers from (non-dead).
    pub fn expected_responders(&self) -> usize {
        self.membership.expected_responders()
    }

    /// The full membership view for scrapes: `(node, status, incarnation)`.
    pub fn snapshot(&self) -> Vec<(NodeId, MemberStatus, u64)> {
        self.membership.snapshot()
    }

    /// Applies liveness events to the ring and shard: rebuilds the ring
    /// when the member set changes, purges registrations of dead holders,
    /// and emits re-registration frames for entries that re-homed.
    fn finish(&mut self, gossip: GossipOutput) -> DirOutput {
        let mut out = DirOutput {
            msgs: gossip.msgs,
            events: gossip.events,
            topology_changed: false,
        };
        let set_changed = out
            .events
            .iter()
            .any(|e| matches!(e, MemberEvent::Alive(_) | MemberEvent::Dead(_)));
        for event in &out.events {
            if let MemberEvent::Dead(node) = event {
                self.shard.purge_dead(*node);
            }
        }
        if set_changed {
            self.ring = HashRing::new(&self.membership.non_dead_view());
            out.topology_changed = true;
            let self_id = self.membership.self_id();
            let ring = self.ring.clone();
            let evicted = self
                .shard
                .evict_rehomed(|name| ring.home(name) == Some(self_id));
            for (name, entry) in evicted {
                let Some(home) = ring.home(name) else {
                    continue;
                };
                if let Some(holder) = entry.holder {
                    out.msgs.push((
                        home,
                        Message::DirRegister {
                            name,
                            holder,
                            kind: DirRegisterKind::Active,
                        },
                    ));
                }
                for site in entry.checksites {
                    out.msgs.push((
                        home,
                        Message::DirRegister {
                            name,
                            holder: site,
                            kind: DirRegisterKind::Checkpoint,
                        },
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eden_capability::NameGenerator;
    use std::time::Duration;

    /// Drives a set of services against each other with a lossless,
    /// instant "network", optionally cutting some nodes off.
    fn exchange(
        services: &mut [DirectoryService],
        initial: Vec<(NodeId, NodeId, Message)>,
        cut: &[NodeId],
        now: Instant,
    ) -> Vec<MemberEvent> {
        let mut events = Vec::new();
        let mut queue = initial;
        let mut hops = 0;
        while let Some((src, dst, msg)) = queue.pop() {
            hops += 1;
            assert!(hops < 10_000, "gossip message storm");
            if cut.contains(&src) || cut.contains(&dst) {
                continue;
            }
            let svc = &mut services[dst.0 as usize];
            let out = match msg {
                Message::GossipPing {
                    seq,
                    reply_to,
                    updates,
                } => svc.handle_ping(src, seq, reply_to, &updates, now),
                Message::GossipAck { seq, updates } => svc.handle_ack(src, seq, &updates, now),
                Message::GossipPingReq {
                    seq,
                    target,
                    reply_to,
                    updates,
                } => svc.handle_ping_req(src, seq, target, reply_to, &updates, now),
                Message::DirRegister { name, holder, kind } => {
                    if let Some((fwd, m)) = svc.handle_register(src, name, holder, kind) {
                        queue.push((dst, fwd, m));
                    }
                    continue;
                }
                other => panic!("unexpected message {}", other.label()),
            };
            events.extend(out.events);
            for (to, m) in out.msgs {
                queue.push((dst, to, m));
            }
        }
        events
    }

    #[test]
    fn a_cut_member_is_suspected_then_dead_and_its_entries_purged() {
        let t0 = Instant::now();
        let peers: Vec<NodeId> = (0..3).map(NodeId).collect();
        let mut services: Vec<DirectoryService> = peers
            .iter()
            .map(|p| DirectoryService::new(*p, &peers, GossipConfig::default(), t0))
            .collect();

        // Register an object held by node 2; route to its home.
        let name = NameGenerator::with_epoch(NodeId(2), 1).next_name();
        let home = services[0].home(name).unwrap();
        services[home.0 as usize].apply_register(name, NodeId(2), DirRegisterKind::Active);
        assert_eq!(
            services[home.0 as usize].answer_query(name),
            (Some(NodeId(2)), DirState::Hit)
        );

        // Cut node 2 off and run the protocol for a while.
        let mut now = t0;
        let mut saw_suspect = false;
        let mut saw_dead = false;
        for _ in 0..60 {
            now += Duration::from_millis(100);
            let mut pending = Vec::new();
            for svc in services.iter_mut() {
                let self_id = svc.membership.self_id();
                let out = svc.tick(now);
                for e in &out.events {
                    saw_suspect |= matches!(e, MemberEvent::Suspect(NodeId(2)));
                    saw_dead |= matches!(e, MemberEvent::Dead(NodeId(2)));
                }
                for (to, m) in out.msgs {
                    pending.push((self_id, to, m));
                }
            }
            let events = exchange(&mut services, pending, &[NodeId(2)], now);
            for e in &events {
                saw_suspect |= matches!(e, MemberEvent::Suspect(NodeId(2)));
                saw_dead |= matches!(e, MemberEvent::Dead(NodeId(2)));
            }
            if saw_dead {
                break;
            }
        }
        assert!(saw_suspect, "node 2 was never suspected");
        assert!(saw_dead, "node 2 was never declared dead");

        // Survivors agree node 2 is dead, and no shard hands out its
        // registration any more.
        for survivor in [NodeId(0), NodeId(1)] {
            let svc = &services[survivor.0 as usize];
            assert_eq!(svc.status_of(NodeId(2)), MemberStatus::Dead);
            let (holder, state) = svc.answer_query(name);
            assert_eq!(holder, None);
            assert!(state == DirState::Miss || state == DirState::Suspect);
        }
    }

    #[test]
    fn registrations_route_to_the_home_and_answer_queries() {
        let t0 = Instant::now();
        let peers: Vec<NodeId> = (0..4).map(NodeId).collect();
        let mut services: Vec<DirectoryService> = peers
            .iter()
            .map(|p| DirectoryService::new(*p, &peers, GossipConfig::default(), t0))
            .collect();
        let gen = NameGenerator::with_epoch(NodeId(1), 3);
        for i in 0..32u64 {
            let name = gen.next_name();
            let holder = NodeId((i % 4) as u16);
            // Node 0 registers on behalf of the holder; the register is
            // forwarded to the right home if node 0 is not it.
            let initial =
                match services[0].handle_register(NodeId(0), name, holder, DirRegisterKind::Active)
                {
                    Some((to, m)) => vec![(NodeId(0), to, m)],
                    None => vec![],
                };
            exchange(&mut services, initial, &[], t0);
            let home = services[0].home(name).unwrap();
            assert_eq!(
                services[home.0 as usize].answer_query(name),
                (Some(holder), DirState::Hit),
                "object {i} homed at {home:?}"
            );
        }
    }
}
