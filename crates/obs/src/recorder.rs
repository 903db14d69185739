//! The per-node flight recorder: a fixed-capacity ring of typed kernel
//! events for after-the-fact debugging of failover experiments.
//!
//! The kernel appends an event at each §4.3/§4.4 lifecycle edge — moves,
//! reincarnations, crashes, forwards, retransmissions, `WhereIs`
//! broadcasts. The ring is bounded, so a long-running node keeps only
//! the recent past — exactly what a postmortem wants.
//!
//! Every event kind is declared once, as one row of the table below:
//! its variant, doc, fields, export kind token and one-line text. The
//! table generates [`KernelEvent`], its `Display`, [`KernelEvent::kind`],
//! the field visitor [`KernelEvent::visit_fields`] and the constructor
//! [`KernelEvent::from_fields`]; the JSONL export and the `Value` codec
//! in `eden-wire` are each one loop over those, so adding an event means
//! adding one row.

use std::collections::VecDeque;
use std::fmt;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::clock::now_ns;

/// One field of a [`KernelEvent`], as the export codecs see it. Its
/// `Display` is the dump form used in the event's one-line text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventField {
    /// A count, duration, invocation id or node id.
    Num(u64),
    /// A virtual-processor worker index, or `u16::MAX` when a stall is
    /// queue age rather than one busy worker.
    Worker(u16),
    /// A 64-bit id shown in hex (trace ids).
    Hex(u64),
    /// An object name's `u128` wire form (this crate sits below
    /// `eden-capability`). The dump shows its low 64 bits, enough to
    /// tell objects apart.
    Obj(u128),
    /// A peer's socket address.
    Addr(SocketAddr),
    /// Why an inbound connection was dropped.
    Reason(InboundDropReason),
}

impl EventField {
    /// The field as an export number: `Some` for the numeric kinds,
    /// `None` for the kinds exported as [`text`](Self::text).
    pub fn number(&self) -> Option<u64> {
        match *self {
            EventField::Num(n) => Some(n),
            EventField::Worker(w) => Some(w.into()),
            _ => None,
        }
    }

    /// The field's full export text: hex ids and object names as
    /// `0x…`, addresses, reason tokens.
    pub fn text(&self) -> String {
        match *self {
            EventField::Obj(obj) => format!("{obj:#x}"),
            EventField::Worker(w) => w.to_string(),
            _ => self.to_string(),
        }
    }
}

impl fmt::Display for EventField {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            EventField::Num(n) => write!(f, "{n}"),
            EventField::Worker(u16::MAX) => f.write_str("queue age"),
            EventField::Worker(w) => write!(f, "worker {w} busy"),
            EventField::Hex(n) => write!(f, "{n:#x}"),
            EventField::Obj(obj) => write!(f, "{:#x}", obj as u64),
            EventField::Addr(addr) => write!(f, "{addr}"),
            EventField::Reason(reason) => write!(f, "{reason}"),
        }
    }
}

/// One stored field handed to [`KernelEvent::from_fields`]: encodings
/// keep numbers as numbers and everything else as strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RawField<'a> {
    /// A number.
    Num(u64),
    /// A string.
    Str(&'a str),
}

/// A Rust type an event field can have: its default [`EventField`]
/// kind, and how it is read back from a [`RawField`].
trait FieldType: Sized {
    fn field(self) -> EventField;
    fn parse(raw: RawField<'_>) -> Option<Self>;
}

fn parse_hex(raw: RawField<'_>) -> Option<u128> {
    match raw {
        RawField::Str(s) => u128::from_str_radix(s.strip_prefix("0x")?, 16).ok(),
        RawField::Num(_) => None,
    }
}

impl FieldType for u64 {
    fn field(self) -> EventField {
        EventField::Num(self)
    }
    fn parse(raw: RawField<'_>) -> Option<Self> {
        match raw {
            RawField::Num(n) => Some(n),
            RawField::Str(_) => parse_hex(raw)?.try_into().ok(),
        }
    }
}

impl FieldType for u16 {
    fn field(self) -> EventField {
        EventField::Num(self.into())
    }
    fn parse(raw: RawField<'_>) -> Option<Self> {
        match raw {
            RawField::Num(n) => n.try_into().ok(),
            RawField::Str(_) => None,
        }
    }
}

impl FieldType for u128 {
    fn field(self) -> EventField {
        EventField::Obj(self)
    }
    fn parse(raw: RawField<'_>) -> Option<Self> {
        parse_hex(raw)
    }
}

impl FieldType for SocketAddr {
    fn field(self) -> EventField {
        EventField::Addr(self)
    }
    fn parse(raw: RawField<'_>) -> Option<Self> {
        match raw {
            RawField::Str(s) => s.parse().ok(),
            RawField::Num(_) => None,
        }
    }
}

impl FieldType for InboundDropReason {
    fn field(self) -> EventField {
        EventField::Reason(self)
    }
    fn parse(raw: RawField<'_>) -> Option<Self> {
        match raw {
            RawField::Str(s) => InboundDropReason::parse(s),
            RawField::Num(_) => None,
        }
    }
}

/// A field's [`EventField`]: its type's default kind, or the kind the
/// row names with `as`.
macro_rules! event_field {
    ($value:expr) => {
        FieldType::field($value)
    };
    ($value:expr, $kind:ident) => {
        EventField::$kind($value)
    };
}

/// A field's export key: its name, or the row's `#[key = "…"]`.
macro_rules! field_key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident $key:literal) => {
        $key
    };
}

/// The event table: one row per kind, as
/// `Variant "kind" { field: Type, … } => "one-line text";`. A field may
/// carry `#[key = "…"]` to export under another key and `as Kind` to
/// pick an [`EventField`] kind other than its type's default; the text
/// names fields as `{field}`, shown in their dump form.
macro_rules! kernel_events {
    ($(
        $(#[$meta:meta])*
        $variant:ident $kind:literal $({
            $($(#[key = $key:literal])? $field:ident: $ty:ty $(as $fkind:ident)?),* $(,)?
        })? => $text:literal;
    )*) => {
        /// One kind of kernel lifecycle event. Object names are carried
        /// as their `u128` wire form (this crate sits below
        /// `eden-capability`).
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum KernelEvent {
            $($(#[$meta])* $variant $({ $($field: $ty),* })?,)*
        }

        impl KernelEvent {
            /// The stable export token of this event's kind (`move_out`,
            /// `shutdown`, …).
            pub fn kind(&self) -> &'static str {
                match self {
                    $(KernelEvent::$variant { .. } => $kind,)*
                }
            }

            /// Calls `visit` with each field's export key and value, in
            /// declaration order.
            pub fn visit_fields(&self, mut visit: impl FnMut(&'static str, EventField)) {
                match *self {
                    $(KernelEvent::$variant $({ $($field),* })? => {
                        $($(visit(field_key!($field $($key)?), event_field!($field $(, $fkind)?));)*)?
                    })*
                }
            }

            /// Rebuilds an event of kind token `kind` from its stored
            /// fields; `None` for an unknown kind or a missing or
            /// malformed field.
            pub fn from_fields<'a>(
                kind: &str,
                mut get: impl FnMut(&'static str) -> Option<RawField<'a>>,
            ) -> Option<KernelEvent> {
                Some(match kind {
                    $($kind => KernelEvent::$variant $({ $(
                        $field: <$ty as FieldType>::parse(get(field_key!($field $($key)?))?)?,
                    )* })?,)*
                    _ => return None,
                })
            }
        }

        impl fmt::Display for KernelEvent {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match *self {
                    $(KernelEvent::$variant $({ $($field),* })? => {
                        $($(let $field = event_field!($field $(, $fkind)?);)*)?
                        write!(f, $text)
                    })*
                }
            }
        }
    };
}

kernel_events! {
    /// An object's active form was discarded (`crash` primitive or node
    /// teardown).
    Crash "crash" { obj: u128 } => "crash obj={obj}";
    /// An object was rebuilt from its last checkpoint on this node.
    Reincarnation "reincarnation" { obj: u128, version: u64 } => "reincarnation obj={obj} v{version}";
    /// A checkpoint was written for an object.
    CheckpointWrite "checkpoint" { obj: u128, version: u64 } => "checkpoint obj={obj} v{version}";
    /// An active object left this node.
    MoveOut "move_out" { obj: u128, dst: u16 } => "move-out obj={obj} -> node {dst}";
    /// An active object arrived at this node.
    MoveIn "move_in" { obj: u128, src: u16 } => "move-in obj={obj} <- node {src}";
    /// An invocation was forwarded after a move.
    Forward "forward" { obj: u128, dst: u16 } => "forward obj={obj} -> node {dst}";
    /// A pending remote invocation was retransmitted.
    Retransmit "retransmit" { inv_id: u64, dst: u16 } => "retransmit inv={inv_id} -> node {dst}";
    /// A remote invocation attempt timed out (candidate node presumed
    /// crashed or partitioned).
    RemoteTimeout "remote_timeout" { dst: u16 } => "remote-timeout node {dst}";
    /// This node broadcast a `WhereIs` location search.
    WhereIsBroadcast "where_is" { obj: u128 } => "where-is broadcast obj={obj}";
    /// This node asked (or consulted itself as) an object's directory
    /// home node for the registered holder.
    DirectoryQuery "dir_query" { obj: u128, home: u16 } => "dir-query obj={obj} home node {home}";
    /// This node registered a holder fact at an object's directory home.
    DirectoryRegister "dir_register" { obj: u128, home: u16 } => "dir-register obj={obj} home node {home}";
    /// Gossip began suspecting a peer (unrefuted probe timeout).
    MemberSuspect "member_suspect" { #[key = "member"] node: u16 } => "member-suspect node {node}";
    /// Gossip declared a peer dead; its registrations and hints are
    /// purged until it refutes.
    MemberDead "member_dead" { #[key = "member"] node: u16 } => "member-dead node {node}";
    /// A peer believed suspect or dead proved alive again.
    MemberAlive "member_alive" { #[key = "member"] node: u16 } => "member-alive node {node}";
    /// The stall watchdog found a virtual-processor worker stuck past
    /// the deadline, or queued work older than it (`worker` is
    /// `u16::MAX` when the stall is queue-age rather than a specific
    /// worker).
    VprocStall "vproc_stall" { worker: u16 as Worker, age_ms: u64, queued: u64 }
        => "vproc-stall {worker} {age_ms} ms ({queued} queued)";
    /// The stall watchdog found a transport writer whose per-peer queue
    /// has not drained within the deadline.
    WriterStall "writer_stall" { dst: u16, age_ms: u64, queued: u64 }
        => "writer-stall dst node {dst} undrained {age_ms} ms ({queued} queued)";
    /// The stall watchdog found an invocation in flight longer than the
    /// slow-invocation budget (`trace` is the trace id, 0 if untraced).
    SlowInvocation "slow_invocation" { inv_id: u64, age_ms: u64, trace: u64 as Hex }
        => "slow-invocation inv={inv_id} in flight {age_ms} ms trace={trace}";
    /// The TCP transport dropped an inbound connection for a protocol
    /// violation (the reader pool never dies silently).
    InboundDropped "inbound_dropped" { peer: SocketAddr, reason: InboundDropReason }
        => "inbound-dropped peer {peer} reason {reason}";
    /// This node shut down.
    NodeShutdown "shutdown" => "node shutdown";
}

/// Why an inbound TCP connection was dropped (see
/// [`KernelEvent::InboundDropped`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InboundDropReason {
    /// The length prefix exceeded the frame-size ceiling: hostile or
    /// corrupt peer.
    Oversized,
    /// A well-framed payload failed to decode: the stream is
    /// unsynchronized.
    Codec,
}

impl InboundDropReason {
    /// Stable lowercase token, used by the wire codec and JSONL export.
    pub fn as_str(&self) -> &'static str {
        match self {
            InboundDropReason::Oversized => "oversized",
            InboundDropReason::Codec => "codec",
        }
    }

    /// Inverse of [`InboundDropReason::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "oversized" => Some(InboundDropReason::Oversized),
            "codec" => Some(InboundDropReason::Codec),
            _ => None,
        }
    }
}

impl fmt::Display for InboundDropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Recording order across *every* recorder in the process. Like the
/// process-wide clock epoch, a single counter means events from
/// different in-process nodes carry comparable sequence numbers, so a
/// merged multi-node JSONL stream is totally orderable by `seq` even
/// when `at_ns` timestamps tie.
static GLOBAL_SEQ: AtomicU64 = AtomicU64::new(0);

/// A recorded event: sequence number (process-global, monotone),
/// timestamp on the process-wide clock, and the event itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Process-global monotone sequence number: unique across all
    /// recorders in the process and consistent with recording order, so
    /// merged multi-node streams sort into one total order.
    pub seq: u64,
    /// Nanoseconds on the process-wide clock.
    pub at_ns: u64,
    /// What happened.
    pub event: KernelEvent,
}

/// A fixed-capacity ring buffer of [`FlightEvent`]s.
pub struct FlightRecorder {
    capacity: usize,
    ring: Mutex<VecDeque<FlightEvent>>,
}

impl FlightRecorder {
    /// Creates a recorder retaining the most recent `capacity` events.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity,
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
        }
    }

    /// Appends an event, evicting the oldest at capacity. The sequence
    /// number is drawn from the process-global counter.
    pub fn record(&self, event: KernelEvent) {
        let seq = GLOBAL_SEQ.fetch_add(1, Ordering::Relaxed);
        let entry = FlightEvent {
            seq,
            at_ns: now_ns(),
            event,
        };
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(entry);
    }

    /// All retained events, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        self.ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// The `n` most recent events, oldest first.
    pub fn last(&self, n: usize) -> Vec<FlightEvent> {
        let all = self.events();
        let skip = all.len().saturating_sub(n);
        all.into_iter().skip(skip).collect()
    }

    /// Text dump of the last `n` events, one per line.
    pub fn dump(&self, n: usize) -> String {
        let mut out = String::new();
        for e in self.last(n) {
            out.push_str(&format!(
                "[{:>6}] {:>12.3} ms  {}\n",
                e.seq,
                e.at_ns as f64 / 1e6,
                e.event
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_last_n_in_order() {
        let r = FlightRecorder::new(3);
        for i in 0..5u64 {
            r.record(KernelEvent::Retransmit { inv_id: i, dst: 0 });
        }
        let events = r.events();
        // Only the newest 3 of the 5 survive (payloads 2, 3, 4), and the
        // global sequence numbers are strictly increasing in ring order.
        let payloads: Vec<u64> = events
            .iter()
            .map(|e| match e.event {
                KernelEvent::Retransmit { inv_id, .. } => inv_id,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(payloads, vec![2, 3, 4]);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(r.last(2).len(), 2);
        assert_eq!(r.last(99).len(), 3);
    }

    #[test]
    fn sequence_is_global_across_recorders() {
        // Two recorders model two in-process nodes: their merged event
        // streams must sort into one total order by `seq`.
        let (a, b) = (FlightRecorder::new(8), FlightRecorder::new(8));
        a.record(KernelEvent::NodeShutdown);
        b.record(KernelEvent::NodeShutdown);
        a.record(KernelEvent::NodeShutdown);
        let mut merged = a.events();
        merged.extend(b.events());
        let mut seqs: Vec<u64> = merged.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), 3, "global seqs must be unique across rings");
    }

    #[test]
    fn fields_rebuild_the_event_and_reject_gaps() {
        let event = KernelEvent::SlowInvocation {
            inv_id: 5,
            age_ms: 900,
            trace: 0x7,
        };
        let mut stored = Vec::new();
        event.visit_fields(|key, field| stored.push((key, field)));
        assert_eq!(
            stored,
            [
                ("inv_id", EventField::Num(5)),
                ("age_ms", EventField::Num(900)),
                ("trace", EventField::Hex(0x7)),
            ]
        );
        let texts: Vec<(&str, String)> = stored.iter().map(|(k, f)| (*k, f.text())).collect();
        let get = |key: &str| {
            let (_, text) = texts.iter().find(|(k, _)| *k == key)?;
            Some(match text.parse() {
                Ok(n) => RawField::Num(n),
                Err(_) => RawField::Str(text.as_str()),
            })
        };
        assert_eq!(KernelEvent::from_fields(event.kind(), get), Some(event));
        assert_eq!(KernelEvent::from_fields("no_such_kind", get), None);
        // A missing field or one of the wrong shape is a decode failure.
        assert_eq!(KernelEvent::from_fields("retransmit", get), None);
        let wrong = |_: &str| Some(RawField::Str("x"));
        assert_eq!(KernelEvent::from_fields("slow_invocation", wrong), None);
    }

    #[test]
    fn dump_renders_every_event_kind() {
        let r = FlightRecorder::new(16);
        r.record(KernelEvent::Crash { obj: 1 });
        r.record(KernelEvent::Reincarnation { obj: 1, version: 2 });
        r.record(KernelEvent::CheckpointWrite { obj: 1, version: 3 });
        r.record(KernelEvent::MoveOut { obj: 1, dst: 2 });
        r.record(KernelEvent::MoveIn { obj: 1, src: 0 });
        r.record(KernelEvent::Forward { obj: 1, dst: 2 });
        r.record(KernelEvent::Retransmit { inv_id: 9, dst: 1 });
        r.record(KernelEvent::RemoteTimeout { dst: 1 });
        r.record(KernelEvent::WhereIsBroadcast { obj: 1 });
        r.record(KernelEvent::VprocStall {
            worker: 0,
            age_ms: 120,
            queued: 4,
        });
        r.record(KernelEvent::WriterStall {
            dst: 2,
            age_ms: 250,
            queued: 8,
        });
        r.record(KernelEvent::SlowInvocation {
            inv_id: 5,
            age_ms: 900,
            trace: 0x7,
        });
        r.record(KernelEvent::NodeShutdown);
        let dump = r.dump(16);
        for needle in [
            "crash",
            "reincarnation",
            "checkpoint",
            "move-out",
            "move-in",
            "forward",
            "retransmit",
            "remote-timeout",
            "where-is",
            "vproc-stall",
            "writer-stall",
            "slow-invocation",
            "shutdown",
        ] {
            assert!(dump.contains(needle), "missing {needle} in dump:\n{dump}");
        }
    }
}
