//! The kernel-to-kernel protocol.
//!
//! Eden kernels exchange [`Frame`]s over the local network. A frame names
//! its source and destination node (or broadcast) and carries one
//! [`Message`]. The message set covers every inter-kernel interaction the
//! paper's kernel requires:
//!
//! * invocation forwarding and replies (§4.2);
//! * the location protocol — `WhereIs`/`HereIs` broadcasts the kernel uses
//!   "to determine the node on which the target object resides" (§2);
//! * object transfer for the `move` primitive (§4.3);
//! * replica distribution for frozen objects (§4.3);
//! * remote checkpoint traffic to a checksite node (§4.4: "the checksite
//!   node that is responsible for maintaining an object's long-term state
//!   need not be the node responsible for supporting its active
//!   execution").

use eden_capability::{Capability, NodeId, ObjName};
use eden_obs::TraceCtx;

use crate::codec::{wire_enum, CodecError, Reader, WireDecode, WireEncode, Writer};
use crate::image::ObjectImage;
use crate::status::Status;
use crate::value::Value;

/// Where a frame is going.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dest {
    /// A single node.
    Node(NodeId),
    /// Every other node on the network (location search, announcements).
    Broadcast,
}

wire_enum! {
    /// How a node holds an object, reported in [`Message::HereIs`] replies.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum HeldState {
        /// A stable short label for logs.
        pub fn label;

        /// The object is active on the replying node.
        0 => Active "active",
        /// The replying node holds a checkpoint (the object is passive there).
        1 => Passive "passive",
        /// The replying node holds a frozen replica.
        2 => FrozenReplica "frozen-replica",
        /// The replying node does not hold the object at all. Negative answers
        /// let the querier's collector count down the locate window instead of
        /// always sleeping it out (every peer answered → nobody has it).
        3 => NotHeld "not-held",
    }
}

wire_enum! {
    /// Liveness of a cluster member as disseminated by the gossip protocol
    /// (eden-directory). Precedence at equal incarnation: `Dead` > `Suspect` >
    /// `Alive`; a higher incarnation always wins.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub enum MemberStatus {
        /// A stable short label for scrapes and logs.
        pub fn label;

        /// The member answered a recent probe (directly or indirectly).
        0 => Alive "alive",
        /// Probes are timing out; the member may be partitioned or dead.
        1 => Suspect "suspect",
        /// The suspicion timeout expired without a refutation.
        2 => Dead "dead",
    }
}

/// One piggybacked membership rumor: `node` is believed to be `status` at
/// `incarnation`. Rides on every gossip frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemberUpdate {
    /// The member the rumor is about.
    pub node: NodeId,
    /// The member's incarnation number (only the member itself bumps it,
    /// to refute a false suspicion).
    pub incarnation: u64,
    /// The rumored liveness.
    pub status: MemberStatus,
}

wire_enum! {
    /// What the home node knows about an object, reported in
    /// [`Message::DirAnswer`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum DirState {
        /// A stable short label for logs.
        pub fn label;

        /// A registration exists and its holder looks reachable.
        0 => Hit "hit",
        /// No registration for the object.
        1 => Miss "miss",
        /// A registration exists but its holder is currently suspected; the
        /// directory withholds it until the suspicion is refuted or confirmed.
        2 => Suspect "suspect",
    }
}

wire_enum! {
    /// What a [`Message::DirRegister`] is recording at the home node.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum DirRegisterKind {
        /// A stable short label for logs.
        pub fn label;

        /// `holder` runs the object's active form (create / move-in /
        /// reincarnation / passive activation).
        0 => Active "active",
        /// `holder` stores a checkpoint (failover fallback when the active
        /// holder dies).
        1 => Checkpoint "checkpoint",
        /// Remove the active registration if it still names `holder`
        /// (crash / destroy).
        2 => Drop "drop",
    }
}

wire_enum! {
    /// One kernel-to-kernel protocol message.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Message {
        /// A stable short label for metrics and tracing.
        pub fn label;

        /// Forward an invocation to the node holding the target object.
        0 => InvokeRequest "invoke-request" {
            /// Correlates the eventual [`Message::InvokeReply`].
            inv_id: u64,
            /// The capability presented by the invoker (rights travel with it).
            target: Capability,
            /// The operation name.
            operation: String,
            /// Data and capability parameters.
            args: Vec<Value>,
            /// Node to send the reply to.
            reply_to: NodeId,
            /// Remaining forwarding budget; decremented per hop so forwarding
            /// chains (after moves) terminate.
            hops: u8,
        },
        /// The status and return parameters of a completed invocation.
        1 => InvokeReply "invoke-reply" {
            /// Matches the request's `inv_id`.
            inv_id: u64,
            /// Outcome.
            status: Status,
            /// Return parameters (valid when `status` is `Ok`).
            results: Vec<Value>,
        },
        /// Broadcast: who holds this object?
        2 => WhereIs "where-is" {
            /// Correlates [`Message::HereIs`] replies.
            query_id: u64,
            /// The object being located.
            name: ObjName,
            /// Node to reply to.
            reply_to: NodeId,
        },
        /// Reply to [`Message::WhereIs`]: the sender holds the object.
        3 => HereIs "here-is" {
            /// Matches the query.
            query_id: u64,
            /// The object.
            name: ObjName,
            /// How the sender holds it.
            state: HeldState,
        },
        /// Transfer an object's representation to the destination node (§4.3).
        4 => MoveTransfer "move-transfer" {
            /// Correlates the [`Message::MoveAck`].
            xfer_id: u64,
            /// The object being moved.
            name: ObjName,
            /// Its representation image.
            image: ObjectImage,
            /// Node to acknowledge to (the source).
            reply_to: NodeId,
        },
        /// Accept/reject a [`Message::MoveTransfer`].
        5 => MoveAck "move-ack" {
            /// Matches the transfer.
            xfer_id: u64,
            /// Whether the destination installed the object.
            accepted: bool,
            /// Reason when rejected (unknown type, shutting down, …).
            reason: String,
        },
        /// Ask a node for a frozen object's replica (§4.3).
        6 => ReplicaRequest "replica-request" {
            /// Correlates the [`Message::ReplicaPush`].
            req_id: u64,
            /// The frozen object.
            name: ObjName,
            /// Node to reply to.
            reply_to: NodeId,
        },
        /// Deliver (or refuse) a frozen replica.
        7 => ReplicaPush "replica-push" {
            /// Matches the request.
            req_id: u64,
            /// The frozen object.
            name: ObjName,
            /// The frozen image; `None` if the sender cannot supply it.
            image: Option<ObjectImage>,
        },
        /// Write a checkpoint at a remote checksite (§4.4).
        8 => CheckpointPut "checkpoint-put" {
            /// Correlates the [`Message::CheckpointAck`].
            req_id: u64,
            /// The object being checkpointed.
            name: ObjName,
            /// The representation image to persist.
            image: ObjectImage,
            /// Node to acknowledge to.
            reply_to: NodeId,
        },
        /// Acknowledge a checkpoint write.
        9 => CheckpointAck "checkpoint-ack" {
            /// Matches the put.
            req_id: u64,
            /// Whether the checkpoint is durable.
            ok: bool,
            /// The stored version number.
            version: u64,
        },
        /// Fetch the latest checkpoint of an object (reincarnation after the
        /// active node failed, or activation at a node other than the
        /// checksite).
        10 => CheckpointFetch "checkpoint-fetch" {
            /// Correlates the [`Message::CheckpointData`].
            req_id: u64,
            /// The object whose checkpoint is wanted.
            name: ObjName,
            /// Node to reply to.
            reply_to: NodeId,
        },
        /// Deliver (or refuse) a checkpoint.
        11 => CheckpointData "checkpoint-data" {
            /// Matches the fetch.
            req_id: u64,
            /// The object.
            name: ObjName,
            /// The latest checkpoint image, if the sender has one.
            image: Option<ObjectImage>,
        },
        /// Remove every checkpoint of an object at a remote checksite
        /// (object destruction).
        14 => CheckpointDelete "checkpoint-delete" {
            /// Correlates the [`Message::CheckpointAck`].
            req_id: u64,
            /// The object being destroyed.
            name: ObjName,
            /// Node to acknowledge to.
            reply_to: NodeId,
        },
        /// Liveness probe, used by failure-injection tests and the cluster
        /// harness.
        12 => Ping "ping" {
            /// Correlates the [`Message::Pong`].
            token: u64,
        },
        /// Liveness reply.
        13 => Pong "pong" {
            /// Matches the ping.
            token: u64,
        },
        /// SWIM direct probe (eden-directory membership). The target answers
        /// [`Message::GossipAck`] to `reply_to`, which may be a third node when
        /// the ping was relayed by a [`Message::GossipPingReq`].
        15 => GossipPing "gossip-ping" {
            /// Correlates the ack with the prober's pending probe.
            seq: u64,
            /// Node the ack should go to (the original prober).
            reply_to: NodeId,
            /// Piggybacked membership rumors.
            updates: Vec<MemberUpdate>,
        },
        /// SWIM probe acknowledgement.
        16 => GossipAck "gossip-ack" {
            /// Matches the probe.
            seq: u64,
            /// Piggybacked membership rumors.
            updates: Vec<MemberUpdate>,
        },
        /// SWIM indirect probe: asks the receiver to ping `target` on behalf
        /// of `reply_to` (the prober whose direct ping timed out).
        17 => GossipPingReq "gossip-ping-req" {
            /// Correlates the eventual ack with the prober's pending probe.
            seq: u64,
            /// The member to probe.
            target: NodeId,
            /// The original prober; the target acks straight back to it.
            reply_to: NodeId,
            /// Piggybacked membership rumors.
            updates: Vec<MemberUpdate>,
        },
        /// Record at the object's home node who holds it. Fire-and-forget:
        /// registrations are hints (a lost one degrades a later locate to the
        /// broadcast fallback, never to a wrong answer).
        18 => DirRegister "dir-register" {
            /// The object being registered.
            name: ObjName,
            /// The holding (or dropping) node.
            holder: NodeId,
            /// What is being recorded.
            kind: DirRegisterKind,
        },
        /// Ask an object's home node who holds it — the O(1) replacement for
        /// the broadcast [`Message::WhereIs`].
        19 => DirQuery "dir-query" {
            /// Correlates the [`Message::DirAnswer`].
            query_id: u64,
            /// The object being located.
            name: ObjName,
            /// Node to reply to.
            reply_to: NodeId,
        },
        /// The home node's answer to a [`Message::DirQuery`].
        20 => DirAnswer "dir-answer" {
            /// Matches the query.
            query_id: u64,
            /// The object.
            name: ObjName,
            /// The registered holder, when `state` is `Hit`.
            holder: Option<NodeId>,
            /// What the directory knows.
            state: DirState,
        },
    }
}

/// One unit of network delivery: source, destination, message.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node or broadcast.
    pub dst: Dest,
    /// The protocol message.
    pub msg: Message,
    /// Tracing context, carried as an optional trailing wire field so
    /// frames encoded before tracing existed still decode (to `None`).
    pub trace: Option<TraceCtx>,
}

impl Frame {
    /// Builds a unicast frame.
    pub fn to(src: NodeId, dst: NodeId, msg: Message) -> Self {
        Frame {
            src,
            dst: Dest::Node(dst),
            msg,
            trace: None,
        }
    }

    /// Builds a broadcast frame.
    pub fn broadcast(src: NodeId, msg: Message) -> Self {
        Frame {
            src,
            dst: Dest::Broadcast,
            msg,
            trace: None,
        }
    }

    /// Attaches a tracing context.
    pub fn with_trace(mut self, ctx: TraceCtx) -> Self {
        self.trace = Some(ctx);
        self
    }
}

impl WireEncode for MemberUpdate {
    fn encode(&self, w: &mut Writer) {
        self.node.encode(w);
        w.put_u64(self.incarnation);
        self.status.encode(w);
    }
}

impl WireDecode for MemberUpdate {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(MemberUpdate {
            node: NodeId::decode(r)?,
            incarnation: r.get_u64()?,
            status: MemberStatus::decode(r)?,
        })
    }
}

impl WireEncode for TraceCtx {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.trace_id);
        w.put_u64(self.parent_span);
        w.put_u64(self.span_id);
    }
}

impl WireDecode for TraceCtx {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(TraceCtx {
            trace_id: r.get_u64()?,
            parent_span: r.get_u64()?,
            span_id: r.get_u64()?,
        })
    }
}

impl WireEncode for Frame {
    fn encode(&self, w: &mut Writer) {
        self.src.encode(w);
        match self.dst {
            Dest::Node(n) => {
                w.put_u8(0);
                n.encode(w);
            }
            Dest::Broadcast => w.put_u8(1),
        }
        self.msg.encode(w);
        // The trace context is a trailing field: frames from senders that
        // predate it simply end here, so `decode` treats "no bytes left"
        // as `None` rather than an error.
        w.put_option(&self.trace);
    }
}

impl WireDecode for Frame {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let src = NodeId::decode(r)?;
        let dst = match r.get_u8()? {
            0 => Dest::Node(NodeId::decode(r)?),
            1 => Dest::Broadcast,
            tag => return Err(CodecError::BadTag { what: "Dest", tag }),
        };
        let msg = Message::decode(r)?;
        let trace = if r.remaining() == 0 {
            None // pre-tracing frame layout
        } else {
            r.get_option()?
        };
        Ok(Frame {
            src,
            dst,
            msg,
            trace,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use eden_capability::{NameGenerator, Rights};
    use proptest::prelude::*;

    fn sample_name() -> ObjName {
        NameGenerator::with_epoch(NodeId(3), 11).next_name()
    }

    /// One message of every variant, in declaration order.
    pub(crate) fn sample_messages() -> Vec<Message> {
        let name = sample_name();
        let cap = Capability::mint(name).restrict(Rights::READ | Rights::WRITE);
        vec![
            Message::InvokeRequest {
                inv_id: 1,
                target: cap,
                operation: "put".into(),
                args: vec![Value::Str("this is a new line".into())],
                reply_to: NodeId(0),
                hops: 4,
            },
            Message::InvokeReply {
                inv_id: 1,
                status: Status::Ok,
                results: vec![Value::U64(17)],
            },
            Message::WhereIs {
                query_id: 2,
                name,
                reply_to: NodeId(1),
            },
            Message::HereIs {
                query_id: 2,
                name,
                state: HeldState::FrozenReplica,
            },
            Message::MoveTransfer {
                xfer_id: 3,
                name,
                image: ObjectImage::empty("file"),
                reply_to: NodeId(2),
            },
            Message::MoveAck {
                xfer_id: 3,
                accepted: false,
                reason: "unknown type".into(),
            },
            Message::ReplicaRequest {
                req_id: 4,
                name,
                reply_to: NodeId(3),
            },
            Message::ReplicaPush {
                req_id: 4,
                name,
                image: Some(ObjectImage::empty("dict")),
            },
            Message::CheckpointPut {
                req_id: 5,
                name,
                image: ObjectImage::empty("mailbox"),
                reply_to: NodeId(4),
            },
            Message::CheckpointAck {
                req_id: 5,
                ok: true,
                version: 12,
            },
            Message::CheckpointFetch {
                req_id: 6,
                name,
                reply_to: NodeId(5),
            },
            Message::CheckpointData {
                req_id: 6,
                name,
                image: None,
            },
            Message::CheckpointDelete {
                req_id: 8,
                name,
                reply_to: NodeId(6),
            },
            Message::Ping { token: 7 },
            Message::Pong { token: 7 },
            Message::GossipPing {
                seq: 9,
                reply_to: NodeId(2),
                updates: vec![MemberUpdate {
                    node: NodeId(4),
                    incarnation: 3,
                    status: MemberStatus::Suspect,
                }],
            },
            Message::GossipAck {
                seq: 9,
                updates: vec![
                    MemberUpdate {
                        node: NodeId(4),
                        incarnation: 4,
                        status: MemberStatus::Alive,
                    },
                    MemberUpdate {
                        node: NodeId(1),
                        incarnation: 0,
                        status: MemberStatus::Dead,
                    },
                ],
            },
            Message::GossipPingReq {
                seq: 10,
                target: NodeId(4),
                reply_to: NodeId(0),
                updates: vec![],
            },
            Message::DirRegister {
                name,
                holder: NodeId(5),
                kind: DirRegisterKind::Active,
            },
            Message::DirQuery {
                query_id: 11,
                name,
                reply_to: NodeId(6),
            },
            Message::DirAnswer {
                query_id: 11,
                name,
                holder: Some(NodeId(5)),
                state: DirState::Hit,
            },
        ]
    }

    #[test]
    fn every_message_variant_round_trips() {
        for msg in sample_messages() {
            let frame = Frame::to(NodeId(8), NodeId(9), msg.clone());
            let buf = frame.encode_to_bytes();
            let back = Frame::decode_from_bytes(&buf).unwrap();
            assert_eq!(back, frame, "variant {}", msg.label());
        }
    }

    #[test]
    fn directory_edge_cases_round_trip() {
        let name = sample_name();
        for msg in [
            Message::HereIs {
                query_id: 21,
                name,
                state: HeldState::NotHeld,
            },
            Message::DirAnswer {
                query_id: 22,
                name,
                holder: None,
                state: DirState::Miss,
            },
            Message::DirAnswer {
                query_id: 23,
                name,
                holder: None,
                state: DirState::Suspect,
            },
            Message::DirRegister {
                name,
                holder: NodeId(3),
                kind: DirRegisterKind::Drop,
            },
            Message::DirRegister {
                name,
                holder: NodeId(2),
                kind: DirRegisterKind::Checkpoint,
            },
        ] {
            let frame = Frame::to(NodeId(0), NodeId(1), msg.clone());
            let buf = frame.encode_to_bytes();
            assert_eq!(
                Frame::decode_from_bytes(&buf).unwrap(),
                frame,
                "variant {}",
                msg.label()
            );
        }
    }

    #[test]
    fn broadcast_frames_round_trip() {
        let frame = Frame::broadcast(NodeId(1), Message::Ping { token: 99 });
        let buf = frame.encode_to_bytes();
        assert_eq!(Frame::decode_from_bytes(&buf).unwrap(), frame);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            sample_messages().iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), sample_messages().len());
    }

    /// Encodes a frame in the pre-tracing layout: src, dst, msg, and
    /// nothing after — no presence byte for the trace field.
    fn encode_pre_trace_layout(frame: &Frame) -> Vec<u8> {
        let mut w = crate::codec::Writer::new();
        frame.src.encode(&mut w);
        match frame.dst {
            Dest::Node(n) => {
                w.put_u8(0);
                n.encode(&mut w);
            }
            Dest::Broadcast => w.put_u8(1),
        }
        frame.msg.encode(&mut w);
        w.finish().to_vec()
    }

    #[test]
    fn traced_frames_round_trip() {
        use eden_obs::TraceCtx;
        for msg in sample_messages() {
            let frame = Frame::to(NodeId(8), NodeId(9), msg).with_trace(TraceCtx {
                trace_id: 0x0001_0000_0000_0007,
                parent_span: 0x0001_0000_0000_0003,
                span_id: 0x0001_0000_0000_0009,
            });
            let buf = frame.encode_to_bytes();
            assert_eq!(Frame::decode_from_bytes(&buf).unwrap(), frame);
        }
    }

    proptest! {
        #[test]
        fn frame_decoding_garbage_never_panics(garbage in proptest::collection::vec(0u8.., 0..512)) {
            let _ = Frame::decode_from_bytes(&garbage);
        }

        #[test]
        fn shared_and_copying_frame_decoders_agree(
            inv_id in 0u64..,
            op in "[a-z]{1,12}",
            payload in proptest::collection::vec(0u8.., 0..512),
            garbage in proptest::collection::vec(0u8.., 0..256),
        ) {
            // The transport's receive path decodes zero-copy
            // (`decode_shared` slices the inbound buffer); it must agree
            // byte-for-byte with the copying decoder on valid frames...
            let frame = Frame::to(NodeId(1), NodeId(2), Message::InvokeRequest {
                inv_id,
                target: Capability::mint(sample_name()),
                operation: op,
                args: vec![
                    Value::Blob(bytes::Bytes::from(payload.clone())),
                    Value::List(vec![Value::Blob(bytes::Bytes::from(payload))]),
                ],
                reply_to: NodeId(3),
                hops: 2,
            });
            let buf = frame.encode_to_bytes();
            let copied = Frame::decode_from_bytes(&buf).unwrap();
            let shared = Frame::decode_shared(&buf).unwrap();
            prop_assert_eq!(&copied, &shared);
            prop_assert_eq!(&shared, &frame);
            // ...and on garbage, fail or succeed identically.
            let g = bytes::Bytes::from(garbage);
            prop_assert_eq!(Frame::decode_from_bytes(&g), Frame::decode_shared(&g));
        }

        #[test]
        fn pre_trace_layout_still_decodes(
            inv_id in 0u64..,
            op in "[a-z]{1,12}",
            token in 0u64..,
        ) {
            // Frames encoded by a sender that predates the trace field
            // (no trailing presence byte) must decode to trace: None.
            for msg in [
                Message::InvokeRequest {
                    inv_id,
                    target: Capability::mint(sample_name()),
                    operation: op.clone(),
                    args: vec![Value::U64(inv_id)],
                    reply_to: NodeId(1),
                    hops: 3,
                },
                Message::Ping { token },
            ] {
                let frame = Frame::to(NodeId(2), NodeId(5), msg);
                let old_buf = encode_pre_trace_layout(&frame);
                let back = Frame::decode_from_bytes(&old_buf).unwrap();
                prop_assert_eq!(back.trace, None);
                prop_assert_eq!(&back, &frame);
                // And the re-encoded form round-trips in the new layout.
                let new_buf = back.encode_to_bytes();
                prop_assert_eq!(Frame::decode_from_bytes(&new_buf).unwrap(), frame);
            }
        }

        #[test]
        fn truncated_trace_field_is_rejected_not_panicking(
            token in 0u64..,
            cut in 1usize..25,
        ) {
            use eden_obs::TraceCtx;
            let frame = Frame::to(NodeId(0), NodeId(1), Message::Pong { token })
                .with_trace(TraceCtx { trace_id: 1, parent_span: 2, span_id: 3 });
            let buf = frame.encode_to_bytes();
            // Chop bytes off the trailing trace field (1 presence byte +
            // 24 payload bytes): every truncation must error cleanly.
            let truncated = &buf[..buf.len() - cut];
            prop_assert_eq!(
                Frame::decode_from_bytes(truncated),
                Err(CodecError::UnexpectedEof)
            );
        }

        #[test]
        fn invoke_request_round_trips(
            inv_id in 0u64..,
            op in "[a-z]{1,12}",
            hops in 0u8..,
            payload in proptest::collection::vec(0u8.., 0..256),
        ) {
            let msg = Message::InvokeRequest {
                inv_id,
                target: Capability::mint(sample_name()),
                operation: op,
                args: vec![Value::Blob(bytes::Bytes::from(payload))],
                reply_to: NodeId(1),
                hops,
            };
            let frame = Frame::broadcast(NodeId(0), msg);
            let buf = frame.encode_to_bytes();
            prop_assert_eq!(Frame::decode_from_bytes(&buf).unwrap(), frame);
        }
    }
}
