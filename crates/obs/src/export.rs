//! Telemetry serializers: Prometheus text exposition, Chrome-trace
//! (Perfetto-loadable) JSON, and a JSONL structured-event stream.
//!
//! The registries keep telemetry in process memory; this module is the
//! boundary where it leaves the process in formats external tools read:
//!
//! * [`prometheus_text`] — counters, gauges and histograms for all
//!   scraped nodes (plus a cluster-merged series) in the Prometheus text
//!   exposition format.
//! * [`chrome_trace_json`] — a span set as Chrome trace-event JSON
//!   (`ph: "X"` complete events), loadable in Perfetto / `chrome://tracing`.
//! * [`events_jsonl`] — flight-recorder events as one JSON object per
//!   line, totally ordered by the process-global sequence number.
//!
//! All three are hand-rolled (the repo carries no serde); the JSONL
//! parser and [`validate_json`] exist so round-trips are testable without
//! external tooling.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write;

use crate::hist::{merge_snapshot_maps, HistogramSnapshot};
use crate::recorder::{FlightEvent, KernelEvent, RawField};
use crate::registry::ObsRegistry;
use crate::trace::SpanRecord;

/// One node's scraped metrics, ready for serialization or merging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeMetrics {
    /// The `node` label value: a node id (`"0"`, `"1"`, …) or
    /// `"cluster"` for a merged view.
    pub node: String,
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Gauge name → level.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram name → snapshot.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl NodeMetrics {
    /// Snapshots one registry into an exportable form.
    pub fn from_registry(reg: &ObsRegistry) -> NodeMetrics {
        NodeMetrics {
            node: reg.node().to_string(),
            counters: reg.counters_snapshot(),
            gauges: reg.gauges_snapshot(),
            histograms: reg.histograms_snapshot(),
        }
    }
}

/// Merges per-node metrics into one cluster-wide view (label
/// `"cluster"`). Counters and gauges sum; histograms fold with
/// [`HistogramSnapshot::merge`]. Every merge is commutative, so the
/// result is independent of the order of `parts`.
pub fn merge_metrics(parts: &[NodeMetrics]) -> NodeMetrics {
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut gauges: BTreeMap<String, i64> = BTreeMap::new();
    for p in parts {
        for (name, v) in &p.counters {
            *counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &p.gauges {
            *gauges.entry(name.clone()).or_insert(0) += v;
        }
    }
    NodeMetrics {
        node: "cluster".to_string(),
        counters,
        gauges,
        histograms: merge_snapshot_maps(parts.iter().map(|p| &p.histograms)),
    }
}

/// Rewrites a metric name into the Prometheus name charset
/// (`[a-zA-Z0-9_:]`), prefixed `eden_`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("eden_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Serializes metric sets in the Prometheus text exposition format, one
/// time series per `(metric, node)` pair. Histograms emit cumulative
/// `_bucket{le=…}` series plus `_sum` and `_count`, so a scrape of a
/// multi-node cluster carries both per-node and (when a merged
/// [`NodeMetrics`] is included in `parts`) cluster-wide distributions.
pub fn prometheus_text(parts: &[NodeMetrics]) -> String {
    let mut out = String::new();
    let counter_names: BTreeSet<&str> = parts
        .iter()
        .flat_map(|p| p.counters.keys().map(String::as_str))
        .collect();
    for name in counter_names {
        let n = prom_name(name);
        out.push_str(&format!("# TYPE {n} counter\n"));
        for p in parts {
            if let Some(v) = p.counters.get(name) {
                out.push_str(&format!("{n}{{node=\"{}\"}} {v}\n", p.node));
            }
        }
    }
    let gauge_names: BTreeSet<&str> = parts
        .iter()
        .flat_map(|p| p.gauges.keys().map(String::as_str))
        .collect();
    for name in gauge_names {
        let n = prom_name(name);
        out.push_str(&format!("# TYPE {n} gauge\n"));
        for p in parts {
            if let Some(v) = p.gauges.get(name) {
                out.push_str(&format!("{n}{{node=\"{}\"}} {v}\n", p.node));
            }
        }
    }
    let hist_names: BTreeSet<&str> = parts
        .iter()
        .flat_map(|p| p.histograms.keys().map(String::as_str))
        .collect();
    for name in hist_names {
        let n = prom_name(name);
        out.push_str(&format!("# TYPE {n} histogram\n"));
        for p in parts {
            let Some(h) = p.histograms.get(name) else {
                continue;
            };
            for (le, cum) in h.cumulative_buckets() {
                out.push_str(&format!(
                    "{n}_bucket{{node=\"{}\",le=\"{le}\"}} {cum}\n",
                    p.node
                ));
            }
            out.push_str(&format!(
                "{n}_bucket{{node=\"{}\",le=\"+Inf\"}} {}\n",
                p.node, h.count
            ));
            out.push_str(&format!("{n}_sum{{node=\"{}\"}} {}\n", p.node, h.sum));
            out.push_str(&format!("{n}_count{{node=\"{}\"}} {}\n", p.node, h.count));
        }
    }
    out
}

/// One sample line parsed back out of [`prometheus_text`] output.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// The metric name (including any `_bucket`/`_sum`/`_count` suffix).
    pub name: String,
    /// Label pairs in written order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

/// Parses one exposition line. Comment (`#`) and blank lines return
/// `None`; malformed sample lines also return `None`, so a round-trip
/// test distinguishes them by checking comment lines explicitly. Handles
/// the subset of the format [`prometheus_text`] emits (no escaping
/// inside label values, no timestamps).
pub fn parse_prometheus_line(line: &str) -> Option<PromSample> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return None;
    }
    let (head, value) = line.rsplit_once(' ')?;
    let value: f64 = value.parse().ok()?;
    let (name, labels) = match head.split_once('{') {
        None => (head.to_string(), Vec::new()),
        Some((name, rest)) => {
            let body = rest.strip_suffix('}')?;
            let mut labels = Vec::new();
            for pair in body.split(',').filter(|p| !p.is_empty()) {
                let (k, v) = pair.split_once('=')?;
                let v = v.strip_prefix('"')?.strip_suffix('"')?;
                labels.push((k.to_string(), v.to_string()));
            }
            (name.to_string(), labels)
        }
    };
    Some(PromSample {
        name,
        labels,
        value,
    })
}

/// Escapes a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serializes spans as Chrome trace-event JSON, loadable in Perfetto or
/// `chrome://tracing`.
///
/// Each span becomes one `ph: "X"` *complete* event (a begin/end pair in
/// a single record — unlike `B`/`E` pairs, `X` events need no stack
/// discipline, which matters because sibling spans overlap). `pid` is
/// the recording node, `tid` groups events of one trace, and timestamps
/// are microseconds on the shared process clock, so spans from different
/// nodes align on one timeline. Full 64-bit ids travel in `args` as hex
/// strings (JSON numbers lose precision past 2^53).
pub fn chrome_trace_json(spans: &[SpanRecord]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ts = s.start_ns as f64 / 1_000.0;
        let dur = s.end_ns.saturating_sub(s.start_ns) as f64 / 1_000.0;
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"eden\",\"ph\":\"X\",\"ts\":{ts:.3},\"dur\":{dur:.3},\
             \"pid\":{},\"tid\":{},\"args\":{{\"trace_id\":\"{:#x}\",\"span_id\":\"{:#x}\",\
             \"parent_span\":\"{:#x}\",\"stage\":\"{}\"}}}}",
            json_escape(s.name),
            s.node,
            s.trace_id & 0xffff_ffff,
            s.trace_id,
            s.span_id,
            s.parent_span,
            json_escape(s.stage),
        ));
    }
    out.push_str("]}");
    out
}

/// Serializes one flight-recorder event (tagged with its node) as a
/// single JSON object on one line: the header, the kind token, then each
/// field as a number or a string.
pub fn event_jsonl_line(node: u16, e: &FlightEvent) -> String {
    let mut out = format!(
        "{{\"seq\":{},\"at_ns\":{},\"node\":{},\"kind\":\"{}\"",
        e.seq,
        e.at_ns,
        node,
        e.event.kind()
    );
    e.event.visit_fields(|key, field| {
        let _ = match field.number() {
            Some(n) => write!(out, ",\"{key}\":{n}"),
            None => write!(out, ",\"{key}\":\"{}\"", field.text()),
        };
    });
    out.push('}');
    out
}

/// Serializes several nodes' event streams as one JSONL document,
/// totally ordered by the process-global sequence number.
pub fn events_jsonl(streams: &[(u16, Vec<FlightEvent>)]) -> String {
    let mut tagged: Vec<(u16, &FlightEvent)> = streams
        .iter()
        .flat_map(|(node, events)| events.iter().map(move |e| (*node, e)))
        .collect();
    tagged.sort_by_key(|(_, e)| e.seq);
    let mut out = String::new();
    for (node, e) in tagged {
        out.push_str(&event_jsonl_line(node, e));
        out.push('\n');
    }
    out
}

/// Extracts the value following `"key":` in a flat JSON object (the
/// shape [`event_jsonl_line`] emits; keys must not collide as
/// substrings, which the fixed key set guarantees).
fn json_field<'a>(line: &'a str, key: &str) -> Option<RawField<'a>> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    if let Some(stripped) = rest.strip_prefix('"') {
        stripped
            .find('"')
            .map(|end| RawField::Str(&stripped[..end]))
    } else {
        let end = rest.find([',', '}'])?;
        rest[..end].parse().ok().map(RawField::Num)
    }
}

/// Parses one [`event_jsonl_line`] back into the node id and the typed
/// event (the JSONL round-trip used in tests and by tooling).
pub fn parse_jsonl_line(line: &str) -> Option<(u16, FlightEvent)> {
    let num = |key| match json_field(line, key)? {
        RawField::Num(n) => Some(n),
        RawField::Str(_) => None,
    };
    let RawField::Str(kind) = json_field(line, "kind")? else {
        return None;
    };
    let event = KernelEvent::from_fields(kind, |key| json_field(line, key))?;
    let node = u16::try_from(num("node")?).ok()?;
    Some((
        node,
        FlightEvent {
            seq: num("seq")?,
            at_ns: num("at_ns")?,
            event,
        },
    ))
}

/// Checks that `text` is one well-formed JSON value (objects, arrays,
/// strings with escapes, numbers, booleans, null) with nothing trailing.
/// A tiny recursive-descent validator so CI and tests need no external
/// JSON tooling.
pub fn validate_json(text: &str) -> Result<(), String> {
    let b = text.as_bytes();
    let mut i = 0usize;
    skip_ws(b, &mut i);
    json_value(b, &mut i)?;
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err(format!("trailing data at byte {i}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn json_value(b: &[u8], i: &mut usize) -> Result<(), String> {
    match b.get(*i) {
        Some(b'{') => {
            *i += 1;
            skip_ws(b, i);
            if b.get(*i) == Some(&b'}') {
                *i += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, i);
                json_string(b, i)?;
                skip_ws(b, i);
                if b.get(*i) != Some(&b':') {
                    return Err(format!("expected ':' at byte {i}"));
                }
                *i += 1;
                skip_ws(b, i);
                json_value(b, i)?;
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b'}') => {
                        *i += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {i}")),
                }
            }
        }
        Some(b'[') => {
            *i += 1;
            skip_ws(b, i);
            if b.get(*i) == Some(&b']') {
                *i += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, i);
                json_value(b, i)?;
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b']') => {
                        *i += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {i}")),
                }
            }
        }
        Some(b'"') => json_string(b, i),
        Some(b't') => json_literal(b, i, "true"),
        Some(b'f') => json_literal(b, i, "false"),
        Some(b'n') => json_literal(b, i, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            *i += 1;
            while *i < b.len()
                && (b[*i].is_ascii_digit() || matches!(b[*i], b'.' | b'e' | b'E' | b'+' | b'-'))
            {
                *i += 1;
            }
            Ok(())
        }
        _ => Err(format!("unexpected byte at {i}")),
    }
}

fn json_string(b: &[u8], i: &mut usize) -> Result<(), String> {
    if b.get(*i) != Some(&b'"') {
        return Err(format!("expected string at byte {i}"));
    }
    *i += 1;
    while let Some(&c) = b.get(*i) {
        match c {
            b'"' => {
                *i += 1;
                return Ok(());
            }
            b'\\' => *i += 2,
            _ => *i += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn json_literal(b: &[u8], i: &mut usize, lit: &str) -> Result<(), String> {
    if b[*i..].starts_with(lit.as_bytes()) {
        *i += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {i}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;

    fn sample_metrics(node: &str, values: &[u64]) -> NodeMetrics {
        let h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        NodeMetrics {
            node: node.to_string(),
            counters: [("kernel.remote_sent".to_string(), values.len() as u64)]
                .into_iter()
                .collect(),
            gauges: [("coord.queue_depth".to_string(), 2i64)]
                .into_iter()
                .collect(),
            histograms: [("invoke.local".to_string(), h.snapshot())]
                .into_iter()
                .collect(),
        }
    }

    #[test]
    fn prometheus_round_trips_line_by_line() {
        let parts = vec![
            sample_metrics("0", &[100, 200, 300]),
            sample_metrics("1", &[50]),
        ];
        let merged = merge_metrics(&parts);
        let all = [parts, vec![merged]].concat();
        let text = prometheus_text(&all);
        let mut samples = 0usize;
        for line in text.lines() {
            if line.starts_with("# TYPE ") {
                let rest = line.strip_prefix("# TYPE ").unwrap();
                let mut it = rest.split(' ');
                assert!(it.next().unwrap().starts_with("eden_"));
                assert!(matches!(it.next(), Some("counter" | "gauge" | "histogram")));
                continue;
            }
            let s =
                parse_prometheus_line(line).unwrap_or_else(|| panic!("unparsable line: {line}"));
            assert!(s.name.starts_with("eden_"));
            assert!(s.labels.iter().any(|(k, _)| k == "node"));
            samples += 1;
        }
        assert!(samples > 10, "expected many sample lines, got {samples}");
        // Per-node and cluster-merged histogram series both present.
        assert!(text.contains("eden_invoke_local_count{node=\"0\"} 3"));
        assert!(text.contains("eden_invoke_local_count{node=\"1\"} 1"));
        assert!(text.contains("eden_invoke_local_count{node=\"cluster\"} 4"));
        assert!(text.contains("le=\"+Inf\""));
    }

    #[test]
    fn cumulative_bucket_counts_match_the_count_series() {
        let parts = vec![sample_metrics("0", &[10, 20, 30, 1_000_000])];
        let text = prometheus_text(&parts);
        let buckets: Vec<PromSample> = text
            .lines()
            .filter_map(parse_prometheus_line)
            .filter(|s| s.name == "eden_invoke_local_bucket")
            .collect();
        let last_bucket = buckets.last().unwrap();
        assert!(last_bucket.labels.contains(&("le".into(), "+Inf".into())));
        assert_eq!(last_bucket.value, 4.0);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_x_event_per_span() {
        let spans = vec![
            SpanRecord {
                trace_id: 7,
                span_id: 1,
                parent_span: 0,
                node: 0,
                name: "invoke",
                stage: crate::trace::stage::NONE,
                start_ns: 1_000,
                end_ns: 9_000,
            },
            SpanRecord {
                trace_id: 7,
                span_id: 2,
                parent_span: 1,
                node: 1,
                name: "execute",
                stage: crate::trace::stage::EXECUTE,
                start_ns: 2_000,
                end_ns: 8_000,
            },
        ];
        let json = chrome_trace_json(&spans);
        validate_json(&json).expect("valid JSON");
        assert_eq!(json.matches("\"ph\":\"X\"").count(), spans.len());
        assert!(json.contains("\"name\":\"invoke\""));
        assert!(
            json.contains("\"stage\":\"execute\""),
            "stage tag in: {json}"
        );
        assert!(json.contains("\"dur\":8.000"), "µs duration in: {json}");
        // Empty input is still a valid document.
        validate_json(&chrome_trace_json(&[])).expect("empty trace valid");
    }

    #[test]
    fn jsonl_round_trips_every_event_kind() {
        let events = [
            KernelEvent::Crash {
                obj: 0x1234_5678_9abc_def0_u128 << 40,
            },
            KernelEvent::Reincarnation { obj: 7, version: 3 },
            KernelEvent::CheckpointWrite { obj: 7, version: 4 },
            KernelEvent::MoveOut { obj: 9, dst: 2 },
            KernelEvent::MoveIn { obj: 9, src: 1 },
            KernelEvent::Forward { obj: 9, dst: 3 },
            KernelEvent::Retransmit { inv_id: 42, dst: 1 },
            KernelEvent::RemoteTimeout { dst: 5 },
            KernelEvent::WhereIsBroadcast { obj: u128::MAX },
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
                peer: "10.0.0.7:51123".parse().expect("literal addr"),
                reason: crate::recorder::InboundDropReason::Oversized,
            },
            KernelEvent::InboundDropped {
                peer: "[::1]:9000".parse().expect("literal addr"),
                reason: crate::recorder::InboundDropReason::Codec,
            },
            KernelEvent::NodeShutdown,
        ];
        for (i, event) in events.into_iter().enumerate() {
            let fe = FlightEvent {
                seq: i as u64,
                at_ns: 1_000 + i as u64,
                event,
            };
            let line = event_jsonl_line(3, &fe);
            validate_json(&line).expect("each line is a JSON object");
            let (node, parsed) =
                parse_jsonl_line(&line).unwrap_or_else(|| panic!("unparsable line: {line}"));
            assert_eq!(node, 3);
            assert_eq!(parsed, fe);
        }
    }

    #[test]
    fn merged_jsonl_stream_is_totally_ordered_by_seq() {
        let mk = |seq: u64| FlightEvent {
            seq,
            at_ns: 0,
            event: KernelEvent::NodeShutdown,
        };
        let streams = vec![(1u16, vec![mk(4), mk(9)]), (0u16, vec![mk(2), mk(7)])];
        let text = events_jsonl(&streams);
        let seqs: Vec<u64> = text
            .lines()
            .map(|l| parse_jsonl_line(l).unwrap().1.seq)
            .collect();
        assert_eq!(seqs, vec![2, 4, 7, 9]);
    }

    #[test]
    fn validate_json_accepts_and_rejects() {
        for good in [
            "{}",
            "[]",
            "{\"a\":[1,2.5,-3e4],\"b\":\"x\\\"y\",\"c\":null,\"d\":true}",
            "  [ {\"k\": false} ] ",
        ] {
            validate_json(good).unwrap_or_else(|e| panic!("{good}: {e}"));
        }
        for bad in ["", "{", "{\"a\"}", "[1,]", "{}extra", "{'a':1}"] {
            assert!(validate_json(bad).is_err(), "accepted: {bad}");
        }
    }
}
