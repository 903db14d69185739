//! Reduces an [`Outcome`] to the named metrics and renders the result.
//!
//! End-to-end metrics come from the driver's own samples and from the
//! process; per-layer metrics come from the spans the decorators
//! recorded and from the kernel's public counters.

use std::collections::{BTreeMap, HashMap};

use crate::procfs::GROUPS;
use crate::stats::{median, quantile, ratio};
use crate::trace::{Span, SpanName};
use crate::workload::{Counters, OpKind, Outcome, Workload};

/// One metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

impl Outcome {
    /// Operations that completed correctly.
    pub fn completed(&self) -> u64 {
        self.tally.samples.len() as u64
    }

    fn latencies(&self, kind: Option<OpKind>) -> Vec<u64> {
        sorted(
            self.tally
                .samples
                .iter()
                .filter(|s| kind.is_none_or(|k| s.kind == k))
                .map(|s| u64::from(s.ns))
                .collect(),
        )
    }

    /// Sums one counter's change across the window over every node.
    fn delta(&self, pick: impl Fn(&Counters, usize) -> u64) -> f64 {
        (0..self.after.kernel.len())
            .map(|i| pick(&self.after, i).saturating_sub(pick(&self.before, i)) as f64)
            .sum()
    }
}

/// Latency p50 and p99 (µs), throughput (1/s) and CPU per operation
/// (µs) of each slice of the window, reduced to the median slice.
fn sliced(o: &Outcome) -> [f64; 4] {
    let mut cols: [Vec<f64>; 4] = Default::default();
    for w in o.marks.windows(2) {
        let ((s0, cpu0), (s1, cpu1)) = (w[0], w[1]);
        let lat = sorted(
            o.tally
                .samples
                .iter()
                .filter(|s| (s0..s1).contains(&(f64::from(s.at_us) / 1e6)))
                .map(|s| u64::from(s.ns))
                .collect(),
        );
        let n = lat.len() as f64;
        cols[0].push(us(quantile(&lat, 0.50)));
        cols[1].push(us(quantile(&lat, 0.99)));
        cols[2].push(ratio(n, s1 - s0));
        cols[3].push(ratio(us(cpu1.saturating_sub(cpu0)), n));
    }
    cols.map(|c| median(&c))
}

/// The end-to-end metrics: what a user of the system sees. Failures are
/// reported as `ok_frac`, the share of attempted operations that
/// completed correctly, because a metric that can read 0 cannot carry a
/// relative bound; the result line also carries `attempted` and `failed`.
pub fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let [p50, p99, throughput, cpu] = sliced(o);
    vec![
        ("setup_s".into(), median(&o.setup_s), "s"),
        ("lat_p50_us".into(), p50, "us"),
        ("lat_p99_us".into(), p99, "us"),
        ("throughput_ops_s".into(), throughput, "1/s"),
        ("cpu_us_per_op".into(), cpu, "us"),
        (
            "ok_frac".into(),
            ratio(o.completed() as f64, o.tally.attempted as f64),
            "ratio",
        ),
        ("rss_peak_mb".into(), crate::procfs::peak_rss_mb(), "MiB"),
    ]
}

/// Total length of the union of `[start, end)` intervals sorted by start.
fn union_len(intervals: impl Iterator<Item = (u64, u64)>) -> u64 {
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Kernel self time of each invocation: the operation's span minus the
/// part of it covered by layer work (send, dispatch, store) on any
/// thread. Valid only when one operation is in flight at a time.
fn invoke_self_ns(spans: &[Span]) -> Vec<u64> {
    let work: Vec<&Span> = spans.iter().filter(|s| s.name.is_layer_work()).collect();
    let mut first = 0;
    let mut out = Vec::new();
    for op in spans.iter().filter(|s| s.name == SpanName::Op) {
        if OpKind::from_index(op.arg) == Some(OpKind::Move) {
            continue;
        }
        while first < work.len() && work[first].end_ns <= op.start_ns {
            first += 1;
        }
        let covered = union_len(
            work[first..]
                .iter()
                .take_while(|w| w.start_ns < op.end_ns)
                .map(|w| (w.start_ns.max(op.start_ns), w.end_ns.min(op.end_ns)))
                .filter(|(s, e)| s < e),
        );
        out.push(op.dur_ns().saturating_sub(covered));
    }
    sorted(out)
}

/// Same-thread child time per span id, for self times.
fn child_time(spans: &[Span]) -> HashMap<u32, u64> {
    let mut child_ns = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.dur_ns();
    }
    child_ns
}

/// The per-layer metrics of a traced run.
pub fn per_layer(o: &Outcome, workload: Workload) -> Vec<Metric> {
    let done = o.completed() as f64;
    let kop = o.tally.attempted as f64 / 1000.0;
    let spans = &o.spans;

    let child_ns = child_time(spans);
    let durs = |name: SpanName| -> Vec<u64> {
        sorted(
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(Span::dur_ns)
                .collect(),
        )
    };
    let recv: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == SpanName::RecvBatch)
        .collect();
    let recv_full: Vec<&Span> = recv.iter().copied().filter(|s| s.arg > 0).collect();
    let puts: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == SpanName::StorePut)
        .collect();
    let dispatch_self = sorted(
        spans
            .iter()
            .filter(|s| s.name == SpanName::Dispatch)
            .map(|s| {
                s.dur_ns()
                    .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0))
            })
            .collect(),
    );
    let invoke_self = if workload.sequential() {
        invoke_self_ns(spans)
    } else {
        Vec::new()
    };

    let k = |f: fn(&eden_kernel::KernelMetrics) -> u64| o.delta(|c, i| f(&c.kernel[i]));
    let t = |f: fn(&eden_transport::TransportStats) -> u64| o.delta(|c, i| f(&c.transport[i]));
    let v = |f: fn(&eden_kernel::VprocStats) -> u64| o.delta(|c, i| f(&c.vproc[i]));
    let executed = v(|s| s.executed);
    let rejected = v(|s| s.rejected);
    let frames_sent = t(|s| s.frames_sent);
    let dir_queries = k(|m| m.directory_queries);

    let read = o.latencies(Some(OpKind::Read));
    let write = o.latencies(Some(OpKind::Write));
    let moves = o.latencies(Some(OpKind::Move));
    let reinc = o.latencies(Some(OpKind::Reincarnate));
    let put_us = durs(SpanName::StorePut);

    let mut m: Vec<Metric> = vec![
        (
            "kernel.invoke_us_p50".into(),
            us(quantile(&invoke_self, 0.5)),
            "us",
        ),
        (
            "kernel.invoke_us_p99".into(),
            us(quantile(&invoke_self, 0.99)),
            "us",
        ),
        (
            "kernel.pipeline_call_us_p50".into(),
            us(quantile(&durs(SpanName::PipelineCall), 0.5)),
            "us",
        ),
        (
            "kernel.pipeline_wait_us_p50".into(),
            us(quantile(&durs(SpanName::PipelineWait), 0.5)),
            "us",
        ),
        (
            "kernel.served_per_sent".into(),
            ratio(
                k(|m| m.remote_invocations_served),
                k(|m| m.remote_invocations_sent),
            ),
            "ratio",
        ),
        (
            "kernel.timeouts_per_kop".into(),
            ratio(k(|m| m.timeouts), kop),
            "1/kop",
        ),
        (
            "location.forwards_per_kop".into(),
            ratio(k(|m| m.forwards), kop),
            "1/kop",
        ),
        (
            "location.cache_hits_per_kop".into(),
            ratio(k(|m| m.location_cache_hits), kop),
            "1/kop",
        ),
        (
            "location.dir_queries_per_kop".into(),
            ratio(dir_queries, kop),
            "1/kop",
        ),
        (
            "location.dir_hit_ratio".into(),
            ratio(k(|m| m.directory_hits), dir_queries),
            "ratio",
        ),
        (
            "location.broadcasts_per_kop".into(),
            ratio(k(|m| m.location_broadcasts), kop),
            "1/kop",
        ),
        (
            "mobility.move_us_p50".into(),
            us(quantile(&moves, 0.5)),
            "us",
        ),
        (
            "mobility.move_us_p99".into(),
            us(quantile(&moves, 0.99)),
            "us",
        ),
        (
            "lifecycle.reincarnate_us_p50".into(),
            us(quantile(&reinc, 0.5)),
            "us",
        ),
        (
            "lifecycle.checkpoints_per_kop".into(),
            ratio(k(|m| m.checkpoints), kop),
            "1/kop",
        ),
        ("op.read_us_p50".into(), us(quantile(&read, 0.5)), "us"),
        ("op.write_us_p50".into(), us(quantile(&write, 0.5)), "us"),
        ("op.write_us_p99".into(), us(quantile(&write, 0.99)), "us"),
        (
            "vproc.executed_per_op".into(),
            ratio(executed, done),
            "ratio",
        ),
        (
            "vproc.rejected_ratio".into(),
            ratio(rejected, executed + rejected),
            "ratio",
        ),
        (
            "vproc.spares_spawned".into(),
            v(|s| s.spares_spawned),
            "count",
        ),
        (
            "vproc.queued_max".into(),
            o.tally.queued_max as f64,
            "count",
        ),
        (
            "types.dispatch_us_p50".into(),
            us(quantile(&dispatch_self, 0.5)),
            "us",
        ),
        (
            "transport.send_us_p50".into(),
            us(quantile(&durs(SpanName::Send), 0.5)),
            "us",
        ),
        (
            "transport.frames_per_op".into(),
            ratio(frames_sent, done),
            "ratio",
        ),
        (
            "transport.bytes_per_op".into(),
            ratio(t(|s| s.bytes_sent), done),
            "B",
        ),
        (
            "transport.frames_per_batch".into(),
            ratio(frames_sent, t(|s| s.batches_sent)),
            "ratio",
        ),
        (
            "transport.shed_ratio".into(),
            ratio(t(|s| s.frames_shed), frames_sent),
            "ratio",
        ),
        (
            "transport.recv_batch_frames_mean".into(),
            ratio(
                recv_full.iter().map(|s| f64::from(s.arg)).sum(),
                recv_full.len() as f64,
            ),
            "ratio",
        ),
        (
            "transport.recv_empty_ratio".into(),
            ratio((recv.len() - recv_full.len()) as f64, recv.len() as f64),
            "ratio",
        ),
        (
            "transport.recv_wait_us_p50".into(),
            us(quantile(
                &sorted(recv_full.iter().map(|s| s.dur_ns()).collect()),
                0.5,
            )),
            "us",
        ),
        ("store.put_us_p50".into(), us(quantile(&put_us, 0.5)), "us"),
        ("store.put_us_p99".into(), us(quantile(&put_us, 0.99)), "us"),
        (
            "store.put_bytes_mean".into(),
            ratio(
                puts.iter().map(|s| f64::from(s.arg)).sum(),
                puts.len() as f64,
            ),
            "B",
        ),
        (
            "store.puts_per_op".into(),
            ratio(puts.len() as f64, done),
            "ratio",
        ),
        (
            "store.latest_us_p50".into(),
            us(quantile(&durs(SpanName::StoreLatest), 0.5)),
            "us",
        ),
    ];
    for g in GROUPS {
        let (threads, cpu_ns) = o.groups.get(g).copied().unwrap_or((0, 0));
        m.push((format!("cpu.{g}_us_per_op"), ratio(us(cpu_ns), done), "us"));
        m.push((format!("threads.{g}"), threads as f64, "count"));
    }
    let [p50, p99, throughput, cpu] = sliced(o);
    m.extend([
        ("traced.lat_p50_us".into(), p50, "us"),
        ("traced.lat_p99_us".into(), p99, "us"),
        ("traced.throughput_ops_s".into(), throughput, "1/s"),
        ("traced.cpu_us_per_op".into(), cpu, "us"),
        (
            "trace.spans_per_op".into(),
            ratio(spans.len() as f64, done),
            "ratio",
        ),
        (
            "trace.spans_dropped".into(),
            o.spans_dropped as f64,
            "count",
        ),
        ("lat_samples".into(), done, "count"),
    ]);
    m
}

/// One line per span name: count, p50, p99 and self-time p50 in µs —
/// the written-out form of the run's spans.
pub fn span_table(o: &Outcome) -> String {
    let child_ns = child_time(&o.spans);
    let mut by_name: BTreeMap<SpanName, (Vec<u64>, Vec<u64>)> = BTreeMap::new();
    for s in &o.spans {
        let e = by_name.entry(s.name).or_default();
        e.0.push(s.dur_ns());
        e.1.push(
            s.dur_ns()
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0)),
        );
    }
    let mut out = format!(
        "{:<14} {:>9} {:>10} {:>10} {:>10}\n",
        "span", "count", "p50_us", "p99_us", "self_p50"
    );
    for (name, (dur, own)) in by_name {
        let (dur, own) = (sorted(dur), sorted(own));
        out.push_str(&format!(
            "{:<14} {:>9} {:>10.2} {:>10.2} {:>10.2}\n",
            format!("{name:?}"),
            dur.len(),
            us(quantile(&dur, 0.5)),
            us(quantile(&dur, 0.99)),
            us(quantile(&own, 0.5)),
        ));
    }
    out
}

/// Escapes `s` as a JSON string.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number; a non-finite value (never expected) reads 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line the benchmark contract asks for.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

/// A flat JSON object of string pairs.
pub fn json_object<'a>(pairs: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = pairs
        .into_iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(&v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_len([(0, 10), (5, 15), (20, 25)].into_iter()), 20);
        assert_eq!(union_len(std::iter::empty()), 0);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_line(true, 3, 0, &[("x".into(), 1.5, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"x\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}
