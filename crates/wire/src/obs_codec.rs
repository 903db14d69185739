//! [`Value`] encodings for observability payloads.
//!
//! The kernel's node object serves `get_metrics` / `get_trace` /
//! `get_flight_log` through *ordinary invocation*: scrape results must
//! therefore travel as invocation return parameters — [`Value`]s — not
//! as new frame fields. This module is that boundary: metrics
//! snapshots, span records and flight-recorder events to and from the
//! parameter algebra.
//!
//! Histogram buckets are encoded sparsely (`(index, count)` pairs):
//! the bucket array is ~1000 entries but a live histogram occupies a
//! handful, so a scrape reply stays small.

use std::collections::BTreeMap;

use eden_obs::export::NodeMetrics;
use eden_obs::hist::{bucket_count, HistogramSnapshot};
use eden_obs::trace::{intern_name, stage};
use eden_obs::{FlightEvent, KernelEvent, ObsRegistry, RawField, SpanRecord};

use crate::Value;

/// Encodes a histogram snapshot as a map with sparse buckets.
pub fn hist_to_value(s: &HistogramSnapshot) -> Value {
    let buckets: Vec<Value> = s
        .buckets()
        .iter()
        .enumerate()
        .filter(|(_, &n)| n > 0)
        .map(|(i, &n)| Value::List(vec![Value::U64(i as u64), Value::U64(n)]))
        .collect();
    let mut m = BTreeMap::new();
    m.insert("count".to_string(), Value::U64(s.count));
    m.insert("sum".to_string(), Value::U64(s.sum));
    m.insert("min".to_string(), Value::U64(s.min));
    m.insert("max".to_string(), Value::U64(s.max));
    m.insert("buckets".to_string(), Value::List(buckets));
    Value::Map(m)
}

/// Decodes a histogram snapshot (inverse of [`hist_to_value`]).
pub fn hist_from_value(v: &Value) -> Option<HistogramSnapshot> {
    let m = v.as_map()?;
    let mut buckets = vec![0u64; bucket_count()];
    for entry in m.get("buckets")?.as_list()? {
        let pair = entry.as_list()?;
        let idx = pair.first()?.as_u64()? as usize;
        let n = pair.get(1)?.as_u64()?;
        if idx < buckets.len() {
            buckets[idx] = n;
        }
    }
    Some(HistogramSnapshot::from_parts(
        buckets,
        m.get("count")?.as_u64()?,
        m.get("sum")?.as_u64()?,
        m.get("min")?.as_u64()?,
        m.get("max")?.as_u64()?,
    ))
}

/// Encodes a full [`NodeMetrics`] (the `get_metrics` reply payload).
pub fn metrics_to_value(m: &NodeMetrics) -> Value {
    let counters: BTreeMap<String, Value> = m
        .counters
        .iter()
        .map(|(k, &v)| (k.clone(), Value::U64(v)))
        .collect();
    let gauges: BTreeMap<String, Value> = m
        .gauges
        .iter()
        .map(|(k, &v)| (k.clone(), Value::I64(v)))
        .collect();
    let histograms: BTreeMap<String, Value> = m
        .histograms
        .iter()
        .map(|(k, h)| (k.clone(), hist_to_value(h)))
        .collect();
    let mut out = BTreeMap::new();
    out.insert("node".to_string(), Value::Str(m.node.clone()));
    out.insert("counters".to_string(), Value::Map(counters));
    out.insert("gauges".to_string(), Value::Map(gauges));
    out.insert("histograms".to_string(), Value::Map(histograms));
    Value::Map(out)
}

/// Snapshots a live registry straight into the `get_metrics` reply
/// payload (what the kernel's node object calls).
pub fn registry_metrics_to_value(reg: &ObsRegistry) -> Value {
    metrics_to_value(&NodeMetrics::from_registry(reg))
}

/// Decodes a `get_metrics` reply (inverse of [`metrics_to_value`]).
pub fn metrics_from_value(v: &Value) -> Option<NodeMetrics> {
    let m = v.as_map()?;
    let mut counters = BTreeMap::new();
    for (k, v) in m.get("counters")?.as_map()? {
        counters.insert(k.clone(), v.as_u64()?);
    }
    let mut gauges = BTreeMap::new();
    for (k, v) in m.get("gauges")?.as_map()? {
        gauges.insert(k.clone(), v.as_i64()?);
    }
    let mut histograms = BTreeMap::new();
    for (k, v) in m.get("histograms")?.as_map()? {
        histograms.insert(k.clone(), hist_from_value(v)?);
    }
    Some(NodeMetrics {
        node: m.get("node")?.as_str()?.to_string(),
        counters,
        gauges,
        histograms,
    })
}

/// Encodes one span record. The `stage` key is omitted for untagged
/// spans, so pre-stage decoders (and small payloads) are unaffected.
pub fn span_to_value(s: &SpanRecord) -> Value {
    let mut m = BTreeMap::new();
    m.insert("trace".to_string(), Value::U64(s.trace_id));
    m.insert("span".to_string(), Value::U64(s.span_id));
    m.insert("parent".to_string(), Value::U64(s.parent_span));
    m.insert("node".to_string(), Value::U64(s.node as u64));
    m.insert("name".to_string(), Value::Str(s.name.to_string()));
    if !s.stage.is_empty() {
        m.insert("stage".to_string(), Value::Str(s.stage.to_string()));
    }
    m.insert("start".to_string(), Value::U64(s.start_ns));
    m.insert("end".to_string(), Value::U64(s.end_ns));
    Value::Map(m)
}

/// Decodes one span record. Decoded names are interned (the record's
/// name field is `&'static str`); the span-name vocabulary is small and
/// fixed, so the intern table stays bounded. A missing `stage` key
/// (pre-stage encoders) decodes as untagged.
pub fn span_from_value(v: &Value) -> Option<SpanRecord> {
    let m = v.as_map()?;
    Some(SpanRecord {
        trace_id: m.get("trace")?.as_u64()?,
        span_id: m.get("span")?.as_u64()?,
        parent_span: m.get("parent")?.as_u64()?,
        node: m.get("node")?.as_u64()? as u16,
        name: intern_name(m.get("name")?.as_str()?),
        stage: match m.get("stage") {
            Some(v) => stage::intern(v.as_str()?),
            None => stage::NONE,
        },
        start_ns: m.get("start")?.as_u64()?,
        end_ns: m.get("end")?.as_u64()?,
    })
}

/// Encodes a span list (the `get_trace` reply payload).
pub fn spans_to_value(spans: &[SpanRecord]) -> Value {
    Value::List(spans.iter().map(span_to_value).collect())
}

/// Decodes a span list (inverse of [`spans_to_value`]).
pub fn spans_from_value(v: &Value) -> Option<Vec<SpanRecord>> {
    v.as_list()?.iter().map(span_from_value).collect()
}

/// Encodes one flight-recorder event tagged with its recording node:
/// the header, the kind token, then each field as a `U64` or a `Str`.
pub fn event_to_value(node: u16, e: &FlightEvent) -> Value {
    let mut m = BTreeMap::new();
    m.insert("seq".to_string(), Value::U64(e.seq));
    m.insert("at".to_string(), Value::U64(e.at_ns));
    m.insert("node".to_string(), Value::U64(node as u64));
    m.insert("kind".to_string(), Value::Str(e.event.kind().into()));
    e.event.visit_fields(|key, field| {
        let v = match field.number() {
            Some(n) => Value::U64(n),
            None => Value::Str(field.text()),
        };
        m.insert(key.to_string(), v);
    });
    Value::Map(m)
}

/// Decodes one event (inverse of [`event_to_value`]).
pub fn event_from_value(v: &Value) -> Option<(u16, FlightEvent)> {
    let m = v.as_map()?;
    let event = KernelEvent::from_fields(m.get("kind")?.as_str()?, |key| {
        let v = m.get(key)?;
        v.as_u64()
            .map(RawField::Num)
            .or_else(|| v.as_str().map(RawField::Str))
    })?;
    Some((
        m.get("node")?.as_u64()? as u16,
        FlightEvent {
            seq: m.get("seq")?.as_u64()?,
            at_ns: m.get("at")?.as_u64()?,
            event,
        },
    ))
}

/// Encodes one node's event stream (the `get_flight_log` reply payload):
/// a list of node-tagged events, concatenation-friendly across nodes.
pub fn events_to_value(node: u16, events: &[FlightEvent]) -> Value {
    Value::List(events.iter().map(|e| event_to_value(node, e)).collect())
}

/// Decodes a (possibly multi-node, merged) event list.
pub fn events_from_value(v: &Value) -> Option<Vec<(u16, FlightEvent)>> {
    v.as_list()?.iter().map(event_from_value).collect()
}

// The round-trip tests below name it through `super::*`.
#[cfg(test)]
use eden_obs::InboundDropReason;

#[cfg(test)]
mod tests {
    use super::*;
    use eden_obs::Histogram;

    #[test]
    fn histogram_snapshot_round_trips_sparsely() {
        let h = Histogram::new();
        for v in [1u64, 1, 17, 40_000, u64::MAX / 3] {
            h.record(v);
        }
        let snap = h.snapshot();
        let v = hist_to_value(&snap);
        // Sparse: far fewer encoded buckets than the dense array.
        let n_encoded = v.as_map().unwrap()["buckets"].as_list().unwrap().len();
        assert!(n_encoded <= 5, "expected sparse encoding, got {n_encoded}");
        assert_eq!(hist_from_value(&v).unwrap(), snap);
    }

    #[test]
    fn node_metrics_round_trip() {
        let reg = ObsRegistry::new(4);
        reg.counter("kernel.remote_sent").inc();
        reg.gauge("coord.queue_depth").add(-3);
        reg.histogram("invoke.local").record(123_456);
        let m = NodeMetrics::from_registry(&reg);
        let decoded = metrics_from_value(&registry_metrics_to_value(&reg)).unwrap();
        assert_eq!(decoded, m);
        assert_eq!(decoded.node, "4");
        assert_eq!(decoded.gauges["coord.queue_depth"], -3);
    }

    #[test]
    fn spans_round_trip_with_interned_names() {
        let reg = ObsRegistry::new(2);
        let root = reg.root_span("invoke");
        let child = reg.child_span("client-send", root.ctx());
        let staged = reg.child_span_staged("vproc-wait", stage::VPROC_QUEUE, root.ctx());
        staged.finish();
        child.finish();
        root.finish();
        let spans = reg.traces().spans();
        let decoded = spans_from_value(&spans_to_value(&spans)).unwrap();
        assert_eq!(decoded, spans);
        // The staged span must survive with its stage intact (interned
        // back to the canonical constant, not just an equal string).
        let got = decoded.iter().find(|s| s.name == "vproc-wait").unwrap();
        assert_eq!(got.stage, stage::VPROC_QUEUE);
    }

    #[test]
    fn events_round_trip_every_kind() {
        let kinds = [
            KernelEvent::Crash { obj: u128::MAX - 5 },
            KernelEvent::Reincarnation { obj: 1, version: 2 },
            KernelEvent::CheckpointWrite { obj: 1, version: 3 },
            KernelEvent::MoveOut { obj: 2, dst: 7 },
            KernelEvent::MoveIn { obj: 2, src: 6 },
            KernelEvent::Forward { obj: 3, dst: 8 },
            KernelEvent::Retransmit { inv_id: 99, dst: 0 },
            KernelEvent::RemoteTimeout { dst: 1 },
            KernelEvent::WhereIsBroadcast { obj: 4 },
            KernelEvent::DirectoryQuery { obj: 5, home: 2 },
            KernelEvent::DirectoryRegister { obj: 5, home: 3 },
            KernelEvent::MemberSuspect { node: 4 },
            KernelEvent::MemberDead { node: 4 },
            KernelEvent::MemberAlive { node: 4 },
            KernelEvent::VprocStall {
                worker: u16::MAX,
                age_ms: 1500,
                queued: 12,
            },
            KernelEvent::WriterStall {
                dst: 4,
                age_ms: 333,
                queued: 64,
            },
            KernelEvent::SlowInvocation {
                inv_id: 99,
                age_ms: 2000,
                trace: 0x0001_0000_0000_0001,
            },
            KernelEvent::InboundDropped {
                peer: "127.0.0.1:4096".parse().expect("literal addr"),
                reason: InboundDropReason::Codec,
            },
            KernelEvent::NodeShutdown,
        ];
        let events: Vec<FlightEvent> = kinds
            .into_iter()
            .enumerate()
            .map(|(i, event)| FlightEvent {
                seq: i as u64,
                at_ns: i as u64 * 10,
                event,
            })
            .collect();
        let decoded = events_from_value(&events_to_value(9, &events)).unwrap();
        assert_eq!(decoded.len(), events.len());
        for ((node, e), orig) in decoded.iter().zip(&events) {
            assert_eq!(*node, 9);
            assert_eq!(e, orig);
        }
    }
}
