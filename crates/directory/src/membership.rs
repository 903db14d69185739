//! SWIM-style gossip membership (Das, Gupta, Motivala: "SWIM: Scalable
//! Weakly-consistent Infection-style Process Group Membership Protocol").
//!
//! Each node probes one peer per protocol period with a direct
//! [`Message::GossipPing`]; if the ack does not arrive in time it asks a few
//! other peers to probe indirectly ([`Message::GossipPingReq`]) before
//! declaring the peer *suspect*. Suspicion that is not refuted within the
//! suspicion timeout hardens into *dead*. Every gossip frame piggybacks a
//! bounded batch of membership rumors ([`MemberUpdate`]), so liveness state
//! spreads infection-style without any extra message load. A falsely
//! accused member refutes by re-announcing itself with a higher
//! *incarnation* number — only the member itself may bump its incarnation.
//!
//! The state machine is deterministic and thread-free: every entry point
//! takes an explicit `now` and returns the frames to transmit, so the
//! kernel's existing receive loop can drive it (no new threads — see
//! `eden_obs::thread`) and unit tests can single-step time.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use eden_capability::NodeId;
use eden_wire::{MemberStatus, MemberUpdate, Message};

/// Timing of the gossip protocol.
#[derive(Debug, Clone, Copy)]
pub struct GossipConfig {
    /// Protocol period: one direct probe is launched per interval.
    pub probe_interval: Duration,
    /// How long to wait for a direct ack before probing indirectly, and
    /// again for the indirect round before suspecting the target.
    pub probe_timeout: Duration,
    /// How long a suspect may remain unrefuted before it is declared dead.
    pub suspect_timeout: Duration,
}

impl Default for GossipConfig {
    fn default() -> Self {
        GossipConfig {
            probe_interval: Duration::from_millis(100),
            probe_timeout: Duration::from_millis(200),
            suspect_timeout: Duration::from_millis(600),
        }
    }
}

/// How many relays an indirect probe round enlists.
const INDIRECT_PROBES: usize = 2;
/// How many times each rumor is piggybacked before it retires.
const RUMOR_FANOUT: u32 = 6;
/// Upper bound on rumors attached to a single gossip frame.
const PIGGYBACK_MAX: usize = 16;

/// A liveness transition another subsystem may care about (the kernel
/// purges hints and re-registers directory entries on these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberEvent {
    /// The member is (again) reachable.
    Alive(NodeId),
    /// Probes are failing; the directory withholds its registrations.
    Suspect(NodeId),
    /// The suspicion timeout expired.
    Dead(NodeId),
}

/// Frames to send and events to act on, returned by every entry point.
#[derive(Debug, Default)]
pub struct GossipOutput {
    /// Unicast frames to transmit, as `(destination, message)` pairs.
    pub msgs: Vec<(NodeId, Message)>,
    /// Liveness transitions observed while processing.
    pub events: Vec<MemberEvent>,
}

#[derive(Debug, Clone, Copy)]
struct MemberState {
    status: MemberStatus,
    incarnation: u64,
    /// When `status` last changed (drives the suspicion timeout).
    since: Instant,
}

#[derive(Debug, Clone, Copy)]
struct PendingProbe {
    target: NodeId,
    seq: u64,
    sent_at: Instant,
    indirect_sent: bool,
}

/// One node's view of the cluster membership.
#[derive(Debug)]
pub struct Membership {
    self_id: NodeId,
    /// Own incarnation; bumped only to refute a suspicion about self.
    incarnation: u64,
    cfg: GossipConfig,
    /// Peers (never contains `self_id`); BTreeMap for deterministic order.
    members: BTreeMap<NodeId, MemberState>,
    rumors: Vec<(MemberUpdate, u32)>,
    pending: Option<PendingProbe>,
    next_probe_at: Instant,
    probe_cursor: usize,
    next_seq: u64,
}

impl Membership {
    /// Seeds the view with every known peer alive (the mesh's static peer
    /// set stands in for a join protocol; S1 names carry the birth node,
    /// so peers are known at boot).
    pub fn new(self_id: NodeId, peers: &[NodeId], cfg: GossipConfig, now: Instant) -> Self {
        let members = peers
            .iter()
            .filter(|p| **p != self_id)
            .map(|p| {
                (
                    *p,
                    MemberState {
                        status: MemberStatus::Alive,
                        incarnation: 0,
                        since: now,
                    },
                )
            })
            .collect();
        Membership {
            self_id,
            incarnation: 0,
            cfg,
            members,
            rumors: Vec::new(),
            pending: None,
            next_probe_at: now + cfg.probe_interval,
            probe_cursor: self_id.0 as usize,
            next_seq: 1,
        }
    }

    /// Advances timers: escalates the pending probe (indirect round, then
    /// suspicion), expires suspects into deads, and launches the next
    /// direct probe when the protocol period elapses.
    pub fn tick(&mut self, now: Instant) -> GossipOutput {
        let mut out = GossipOutput::default();

        if let Some(probe) = self.pending {
            if !probe.indirect_sent && now >= probe.sent_at + self.cfg.probe_timeout {
                let relays: Vec<NodeId> = self
                    .members
                    .iter()
                    .filter(|(n, m)| **n != probe.target && m.status != MemberStatus::Dead)
                    .map(|(n, _)| *n)
                    .take(INDIRECT_PROBES)
                    .collect();
                for relay in relays {
                    let updates = self.piggyback();
                    out.msgs.push((
                        relay,
                        Message::GossipPingReq {
                            seq: probe.seq,
                            target: probe.target,
                            reply_to: self.self_id,
                            updates,
                        },
                    ));
                }
                if let Some(p) = self.pending.as_mut() {
                    p.indirect_sent = true;
                }
            } else if probe.indirect_sent && now >= probe.sent_at + 2 * self.cfg.probe_timeout {
                self.pending = None;
                self.suspect(probe.target, now, &mut out);
            }
        }

        let expired: Vec<NodeId> = self
            .members
            .iter()
            .filter(|(_, m)| {
                m.status == MemberStatus::Suspect && now >= m.since + self.cfg.suspect_timeout
            })
            .map(|(n, _)| *n)
            .collect();
        for node in expired {
            self.transition(node, MemberStatus::Dead, None, now, &mut out);
        }

        if self.pending.is_none() && now >= self.next_probe_at {
            self.next_probe_at = now + self.cfg.probe_interval;
            if let Some(target) = self.next_probe_target() {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.pending = Some(PendingProbe {
                    target,
                    seq,
                    sent_at: now,
                    indirect_sent: false,
                });
                let updates = self.piggyback();
                out.msgs.push((
                    target,
                    Message::GossipPing {
                        seq,
                        reply_to: self.self_id,
                        updates,
                    },
                ));
            }
        }

        out
    }

    /// A direct probe arrived: answer to `reply_to` (the original prober,
    /// which differs from `from` when the ping was relayed).
    pub fn handle_ping(
        &mut self,
        from: NodeId,
        seq: u64,
        reply_to: NodeId,
        updates: &[MemberUpdate],
        now: Instant,
    ) -> GossipOutput {
        let mut out = GossipOutput::default();
        self.note_contact(from, now, &mut out);
        self.apply_updates(updates, now, &mut out);
        let piggyback = self.piggyback();
        out.msgs.push((
            reply_to,
            Message::GossipAck {
                seq,
                updates: piggyback,
            },
        ));
        out
    }

    /// An ack arrived for (possibly) our pending probe.
    pub fn handle_ack(
        &mut self,
        from: NodeId,
        seq: u64,
        updates: &[MemberUpdate],
        now: Instant,
    ) -> GossipOutput {
        let mut out = GossipOutput::default();
        self.note_contact(from, now, &mut out);
        self.apply_updates(updates, now, &mut out);
        if let Some(probe) = self.pending {
            if probe.seq == seq {
                self.pending = None;
                self.note_contact(probe.target, now, &mut out);
            }
        }
        out
    }

    /// Relay an indirect probe on behalf of a prober whose direct ping
    /// timed out; the target acks straight back to the prober.
    pub fn handle_ping_req(
        &mut self,
        from: NodeId,
        seq: u64,
        target: NodeId,
        reply_to: NodeId,
        updates: &[MemberUpdate],
        now: Instant,
    ) -> GossipOutput {
        let mut out = GossipOutput::default();
        self.note_contact(from, now, &mut out);
        self.apply_updates(updates, now, &mut out);
        let piggyback = self.piggyback();
        out.msgs.push((
            target,
            Message::GossipPing {
                seq,
                reply_to,
                updates: piggyback,
            },
        ));
        out
    }

    /// Direct evidence of life: any gossip frame from a node overrides a
    /// local suspect/dead verdict (rumors only beat rumors; contact beats
    /// both). The node still refutes on its own behalf once it hears the
    /// rumor, which is what convinces third parties.
    fn note_contact(&mut self, from: NodeId, now: Instant, out: &mut GossipOutput) {
        if from == self.self_id {
            return;
        }
        let incarnation = self.members.get(&from).map(|m| m.incarnation);
        if let Some(m) = self.members.get(&from) {
            if m.status == MemberStatus::Alive {
                return;
            }
        }
        self.transition(from, MemberStatus::Alive, incarnation, now, out);
    }

    fn suspect(&mut self, target: NodeId, now: Instant, out: &mut GossipOutput) {
        let still_alive = self
            .members
            .get(&target)
            .map(|m| m.status == MemberStatus::Alive)
            .unwrap_or(false);
        if still_alive {
            self.transition(target, MemberStatus::Suspect, None, now, out);
        }
    }

    /// Applies one rumor batch with SWIM precedence: higher incarnation
    /// wins; at equal incarnation `Dead` > `Suspect` > `Alive`.
    fn apply_updates(&mut self, updates: &[MemberUpdate], now: Instant, out: &mut GossipOutput) {
        for u in updates {
            if u.node == self.self_id {
                // A rumor says we are suspect or dead: refute with a
                // higher incarnation (only we may bump it).
                if u.status != MemberStatus::Alive && u.incarnation >= self.incarnation {
                    self.incarnation = u.incarnation + 1;
                    let refutation = MemberUpdate {
                        node: self.self_id,
                        incarnation: self.incarnation,
                        status: MemberStatus::Alive,
                    };
                    self.enqueue_rumor(refutation);
                }
                continue;
            }
            let known = self.members.get(&u.node).copied();
            let adopt = match known {
                None => true,
                Some(m) => {
                    u.incarnation > m.incarnation
                        || (u.incarnation == m.incarnation && u.status > m.status)
                }
            };
            if adopt {
                self.transition(u.node, u.status, Some(u.incarnation), now, out);
            }
        }
    }

    /// Records a status change, emits the event, and re-disseminates it.
    fn transition(
        &mut self,
        node: NodeId,
        status: MemberStatus,
        incarnation: Option<u64>,
        now: Instant,
        out: &mut GossipOutput,
    ) {
        let entry = self.members.entry(node).or_insert(MemberState {
            status: MemberStatus::Alive,
            incarnation: 0,
            since: now,
        });
        let changed = entry.status != status;
        entry.status = status;
        if let Some(inc) = incarnation {
            entry.incarnation = inc;
        }
        if changed {
            entry.since = now;
            out.events.push(match status {
                MemberStatus::Alive => MemberEvent::Alive(node),
                MemberStatus::Suspect => MemberEvent::Suspect(node),
                MemberStatus::Dead => MemberEvent::Dead(node),
            });
            let rumor = MemberUpdate {
                node,
                incarnation: entry.incarnation,
                status,
            };
            self.enqueue_rumor(rumor);
        }
    }

    fn enqueue_rumor(&mut self, update: MemberUpdate) {
        // A newer rumor about the same node supersedes the queued one.
        self.rumors.retain(|(u, _)| u.node != update.node);
        self.rumors.push((update, RUMOR_FANOUT));
    }

    /// Rumors to attach to an outgoing gossip frame; always leads with a
    /// fresh self-is-alive so resurrection after a heal spreads quickly.
    fn piggyback(&mut self) -> Vec<MemberUpdate> {
        let mut batch = vec![MemberUpdate {
            node: self.self_id,
            incarnation: self.incarnation,
            status: MemberStatus::Alive,
        }];
        for (update, remaining) in self.rumors.iter_mut() {
            if batch.len() >= PIGGYBACK_MAX {
                break;
            }
            batch.push(*update);
            *remaining = remaining.saturating_sub(1);
        }
        self.rumors.retain(|(_, remaining)| *remaining > 0);
        batch
    }

    /// Next peer in round-robin order. Dead peers stay in the rotation:
    /// the mesh's peer set is static (no join protocol), so after a
    /// partition heals where *both* sides hold Dead verdicts, a direct
    /// probe answered by an ack is the only path back to Alive — rumors
    /// cannot override Dead at the same incarnation, and neither side
    /// would otherwise initiate contact.
    fn next_probe_target(&mut self) -> Option<NodeId> {
        let candidates: Vec<NodeId> = self.members.keys().copied().collect();
        if candidates.is_empty() {
            return None;
        }
        self.probe_cursor = (self.probe_cursor + 1) % candidates.len();
        Some(candidates[self.probe_cursor])
    }

    /// This node's id.
    pub fn self_id(&self) -> NodeId {
        self.self_id
    }

    /// This node's current incarnation number.
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// The believed liveness of `node` (self is always alive).
    pub fn status_of(&self, node: NodeId) -> MemberStatus {
        if node == self.self_id {
            return MemberStatus::Alive;
        }
        self.members
            .get(&node)
            .map(|m| m.status)
            .unwrap_or(MemberStatus::Alive)
    }

    /// Every member not believed dead, including self — the ring domain.
    pub fn non_dead_view(&self) -> Vec<NodeId> {
        let mut view: Vec<NodeId> = self
            .members
            .iter()
            .filter(|(_, m)| m.status != MemberStatus::Dead)
            .map(|(n, _)| *n)
            .collect();
        view.push(self.self_id);
        view.sort_unstable();
        view
    }

    /// How many peers a broadcast can expect answers from (non-dead).
    pub fn expected_responders(&self) -> usize {
        self.members
            .values()
            .filter(|m| m.status != MemberStatus::Dead)
            .count()
    }

    /// The full view for scrapes: `(node, status, incarnation)`, self
    /// included, ascending by node id.
    pub fn snapshot(&self) -> Vec<(NodeId, MemberStatus, u64)> {
        let mut view: Vec<(NodeId, MemberStatus, u64)> = self
            .members
            .iter()
            .map(|(n, m)| (*n, m.status, m.incarnation))
            .collect();
        view.push((self.self_id, MemberStatus::Alive, self.incarnation));
        view.sort_unstable_by_key(|(n, _, _)| *n);
        view
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> GossipConfig {
        GossipConfig::default()
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn probe_timeout_escalates_to_indirect_then_suspect_then_dead() {
        let t0 = Instant::now();
        let peers = vec![NodeId(0), NodeId(1), NodeId(2)];
        let mut m = Membership::new(NodeId(0), &peers, cfg(), t0);

        // First protocol period: a direct ping goes out.
        let out = m.tick(t0 + ms(100));
        assert_eq!(out.msgs.len(), 1);
        let (probed, msg) = &out.msgs[0];
        let seq = match msg {
            Message::GossipPing { seq, reply_to, .. } => {
                assert_eq!(*reply_to, NodeId(0));
                *seq
            }
            other => panic!("expected ping, got {}", other.label()),
        };

        // No ack by the probe timeout: indirect probes via the other peer.
        let out = m.tick(t0 + ms(100) + ms(201));
        assert_eq!(out.msgs.len(), 1);
        match &out.msgs[0].1 {
            Message::GossipPingReq { seq: s, target, .. } => {
                assert_eq!(*s, seq);
                assert_eq!(target, probed);
            }
            other => panic!("expected ping-req, got {}", other.label()),
        }

        // No ack by twice the probe timeout: the target becomes suspect.
        let out = m.tick(t0 + ms(100) + ms(401));
        assert_eq!(out.events, vec![MemberEvent::Suspect(*probed)]);
        assert_eq!(m.status_of(*probed), MemberStatus::Suspect);

        // Unrefuted past the suspicion timeout: dead.
        let out = m.tick(t0 + ms(100) + ms(401) + ms(601));
        assert!(out.events.contains(&MemberEvent::Dead(*probed)));
        assert_eq!(m.status_of(*probed), MemberStatus::Dead);
        assert!(!m.non_dead_view().contains(probed));
    }

    #[test]
    fn ack_keeps_the_target_alive() {
        let t0 = Instant::now();
        let peers = vec![NodeId(0), NodeId(1)];
        let mut m = Membership::new(NodeId(0), &peers, cfg(), t0);
        let out = m.tick(t0 + ms(100));
        let seq = match &out.msgs[0].1 {
            Message::GossipPing { seq, .. } => *seq,
            other => panic!("expected ping, got {}", other.label()),
        };
        m.handle_ack(NodeId(1), seq, &[], t0 + ms(150));
        let out = m.tick(t0 + ms(100) + ms(401));
        assert!(out.events.is_empty());
        assert_eq!(m.status_of(NodeId(1)), MemberStatus::Alive);
    }

    #[test]
    fn a_suspected_member_refutes_with_a_higher_incarnation() {
        let t0 = Instant::now();
        let peers = vec![NodeId(0), NodeId(1)];
        let mut m = Membership::new(NodeId(1), &peers, cfg(), t0);
        // Node 1 hears a rumor that it is suspect at its own incarnation.
        let rumor = MemberUpdate {
            node: NodeId(1),
            incarnation: 0,
            status: MemberStatus::Suspect,
        };
        let out = m.handle_ping(NodeId(0), 7, NodeId(0), &[rumor], t0);
        assert_eq!(m.incarnation(), 1);
        // The ack it sends leads with the refutation.
        match &out.msgs[0].1 {
            Message::GossipAck { updates, .. } => {
                assert!(updates.contains(&MemberUpdate {
                    node: NodeId(1),
                    incarnation: 1,
                    status: MemberStatus::Alive,
                }));
            }
            other => panic!("expected ack, got {}", other.label()),
        }
    }

    #[test]
    fn rumor_precedence_follows_swim() {
        let t0 = Instant::now();
        let peers = vec![NodeId(0), NodeId(1), NodeId(2)];
        let mut m = Membership::new(NodeId(0), &peers, cfg(), t0);
        let mut out = GossipOutput::default();
        // Suspect at incarnation 0 beats alive at incarnation 0.
        m.apply_updates(
            &[MemberUpdate {
                node: NodeId(2),
                incarnation: 0,
                status: MemberStatus::Suspect,
            }],
            t0,
            &mut out,
        );
        assert_eq!(m.status_of(NodeId(2)), MemberStatus::Suspect);
        // Alive at incarnation 1 (a refutation) beats suspect at 0.
        m.apply_updates(
            &[MemberUpdate {
                node: NodeId(2),
                incarnation: 1,
                status: MemberStatus::Alive,
            }],
            t0,
            &mut out,
        );
        assert_eq!(m.status_of(NodeId(2)), MemberStatus::Alive);
        // A stale suspect at incarnation 0 no longer applies.
        m.apply_updates(
            &[MemberUpdate {
                node: NodeId(2),
                incarnation: 0,
                status: MemberStatus::Suspect,
            }],
            t0,
            &mut out,
        );
        assert_eq!(m.status_of(NodeId(2)), MemberStatus::Alive);
    }

    #[test]
    fn direct_contact_resurrects_a_dead_member() {
        let t0 = Instant::now();
        let peers = vec![NodeId(0), NodeId(1)];
        let mut m = Membership::new(NodeId(0), &peers, cfg(), t0);
        let mut out = GossipOutput::default();
        m.apply_updates(
            &[MemberUpdate {
                node: NodeId(1),
                incarnation: 0,
                status: MemberStatus::Dead,
            }],
            t0,
            &mut out,
        );
        assert_eq!(m.status_of(NodeId(1)), MemberStatus::Dead);
        // The "dead" node pings us after the partition heals.
        let out = m.handle_ping(NodeId(1), 9, NodeId(1), &[], t0 + ms(50));
        assert_eq!(m.status_of(NodeId(1)), MemberStatus::Alive);
        assert!(out.events.contains(&MemberEvent::Alive(NodeId(1))));
    }
}
