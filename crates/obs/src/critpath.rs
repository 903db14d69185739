//! Critical-path latency attribution: stitch one trace's spans into a
//! per-invocation breakdown of where the wall-clock went.
//!
//! Every asynchronous hand-off an invocation crosses records a span
//! tagged with a [`stage`] constant — vproc queue
//! residency, transport send-queue wait, dial time, directory lookups,
//! dispatch, execute. This module merges the spans of a trace (scraped
//! from any number of nodes) and buckets the root span's duration into
//! *named stages*: queueing on the caller's node vs. the transport
//! queue vs. the wire vs. queueing on the serving node vs. execution.
//! Time inside a `client-send` span not covered by any tagged span is
//! derived as wire time, so the report accounts for (nearly) the whole
//! end-to-end latency instead of only the instrumented parts.

use std::collections::BTreeMap;

use crate::registry::ObsRegistry;
use crate::trace::{stage, SpanRecord};

/// Canonical stage order for reports (callers side first, then the
/// journey out and back).
pub const STAGE_ORDER: &[&str] = &[
    "local-queue",
    "directory",
    "dispatch",
    "xport-queue",
    "dial",
    "write",
    "wire",
    "remote-queue",
    "remote-dispatch",
    "execute",
    "untracked",
];

/// One trace's latency, bucketed by named stage.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// The stitched trace.
    pub trace_id: u64,
    /// Node that recorded the root span (the caller).
    pub root_node: u16,
    /// Root-span name (normally `invoke`).
    pub root_name: &'static str,
    /// End-to-end wall clock of the root span, nanoseconds.
    pub total_ns: u64,
    /// Stage name → attributed nanoseconds (union-deduped per stage;
    /// `untracked` is the residue no stage claims).
    pub stages: BTreeMap<&'static str, u64>,
    /// Nanoseconds covered by *named* stages (everything but
    /// `untracked`).
    pub accounted_ns: u64,
    /// Spans stitched into this report.
    pub span_count: usize,
}

impl CriticalPath {
    /// Fraction of the end-to-end latency the named stages explain
    /// (0.0–1.0; 1.0 when `total_ns` is 0).
    pub fn coverage(&self) -> f64 {
        if self.total_ns == 0 {
            1.0
        } else {
            self.accounted_ns as f64 / self.total_ns as f64
        }
    }

    /// Stages in canonical order, skipping empty ones.
    pub fn ordered_stages(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = STAGE_ORDER
            .iter()
            .filter_map(|s| self.stages.get(s).map(|ns| (*s, *ns)))
            .filter(|(_, ns)| *ns > 0)
            .collect();
        // Any stage outside the canonical list still renders (appended).
        for (s, ns) in &self.stages {
            if *ns > 0 && !STAGE_ORDER.contains(s) {
                out.push((s, *ns));
            }
        }
        out
    }

    /// The stage with the most attributed time (`None` for an empty
    /// report). `untracked` is excluded — it is a residue, not a stage.
    pub fn dominant_stage(&self) -> Option<(&'static str, u64)> {
        self.stages
            .iter()
            .filter(|(s, _)| **s != "untracked")
            .max_by_key(|(_, ns)| **ns)
            .map(|(s, ns)| (*s, *ns))
    }

    /// Renders the breakdown as an aligned text table.
    pub fn text_table(&self) -> String {
        let mut out = format!(
            "critical path — trace {:#018x} ({} spans, root {} on node {})\n",
            self.trace_id, self.span_count, self.root_name, self.root_node
        );
        out.push_str(&format!(
            "{:<16} {:>12} {:>8}\n",
            "stage", "time (µs)", "share"
        ));
        for (name, ns) in self.ordered_stages() {
            let share = if self.total_ns == 0 {
                0.0
            } else {
                ns as f64 / self.total_ns as f64 * 100.0
            };
            out.push_str(&format!(
                "{name:<16} {:>12.1} {share:>7.1}%\n",
                ns as f64 / 1_000.0
            ));
        }
        out.push_str(&format!(
            "{:<16} {:>12.1} {:>7.1}%  ({:.1}% accounted by named stages)\n",
            "total",
            self.total_ns as f64 / 1_000.0,
            100.0,
            self.coverage() * 100.0
        ));
        out
    }

    /// Feeds this breakdown into `critpath.<stage>` histograms on `reg`,
    /// so the per-stage p99 series accumulate across invocations.
    pub fn record_stage_histograms(&self, reg: &ObsRegistry) {
        for (name, ns) in &self.stages {
            if *ns > 0 {
                reg.histogram(&format!("critpath.{name}")).record(*ns);
            }
        }
        if self.total_ns > 0 {
            reg.histogram("critpath.total").record(self.total_ns);
        }
    }
}

/// Clips `(start, end)` to `window` and returns it when non-empty.
fn clip(start: u64, end: u64, window: (u64, u64)) -> Option<(u64, u64)> {
    let s = start.max(window.0);
    let e = end.min(window.1);
    (e > s).then_some((s, e))
}

/// Total length of the union of `intervals` (sorted or not).
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = 0u64;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
        cursor = cursor.max(e);
    }
    covered
}

/// Stitches `spans` belonging to `trace_id` into a [`CriticalPath`].
///
/// Returns `None` when the trace has no spans. The root is the span
/// with `parent_span == 0` (earliest start wins on ties); spans wholly
/// outside the root window are ignored. Stage attribution localizes
/// queueing by node: a `vproc-queue`/`dispatch` span on the root's node
/// is `local-queue`/`dispatch`, on any other node `remote-queue`/
/// `remote-dispatch`. Time inside a `client-send` span covered by no
/// tagged span is derived as `wire`.
pub fn critical_path(spans: &[SpanRecord], trace_id: u64) -> Option<CriticalPath> {
    let mine: Vec<&SpanRecord> = spans.iter().filter(|s| s.trace_id == trace_id).collect();
    let root = mine
        .iter()
        .copied()
        .filter(|s| s.parent_span == 0)
        .min_by_key(|s| s.start_ns)
        .or_else(|| mine.iter().copied().min_by_key(|s| s.start_ns))?;
    let window = (root.start_ns, root.end_ns);
    let total_ns = root.end_ns.saturating_sub(root.start_ns);

    // Tagged intervals, localized by node relative to the root.
    let mut per_stage: BTreeMap<&'static str, Vec<(u64, u64)>> = BTreeMap::new();
    let mut tagged_all: Vec<(u64, u64)> = Vec::new();
    for s in &mine {
        if s.stage.is_empty() {
            continue;
        }
        let Some(iv) = clip(s.start_ns, s.end_ns, window) else {
            continue;
        };
        let label: &'static str = match s.stage {
            stage::VPROC_QUEUE => {
                if s.node == root.node {
                    "local-queue"
                } else {
                    "remote-queue"
                }
            }
            stage::DISPATCH => {
                if s.node == root.node {
                    "dispatch"
                } else {
                    "remote-dispatch"
                }
            }
            stage::XPORT_QUEUE => "xport-queue",
            stage::DIAL => "dial",
            stage::WRITE => "write",
            stage::DIRECTORY => "directory",
            stage::EXECUTE => "execute",
            stage::WIRE => "wire",
            other => other,
        };
        per_stage.entry(label).or_default().push(iv);
        tagged_all.push(iv);
    }

    // Derived wire time: the part of each client-send span no tagged
    // span explains — the frame is on the wire or in the receive path.
    let mut derived_wire = 0u64;
    for s in &mine {
        if s.name != "client-send" {
            continue;
        }
        let Some((cs, ce)) = clip(s.start_ns, s.end_ns, window) else {
            continue;
        };
        let mut inside: Vec<(u64, u64)> = tagged_all
            .iter()
            .filter_map(|&(a, b)| clip(a, b, (cs, ce)))
            .collect();
        let covered = union_len(&mut inside);
        derived_wire += (ce - cs).saturating_sub(covered);
    }

    let mut stages: BTreeMap<&'static str, u64> = per_stage
        .into_iter()
        .map(|(label, mut ivs)| (label, union_len(&mut ivs)))
        .collect();
    if derived_wire > 0 {
        *stages.entry("wire").or_insert(0) += derived_wire;
    }

    let accounted_ns = (union_len(&mut tagged_all) + derived_wire).min(total_ns);
    let untracked = total_ns.saturating_sub(accounted_ns);
    if untracked > 0 {
        stages.insert("untracked", untracked);
    }

    Some(CriticalPath {
        trace_id,
        root_node: root.node,
        root_name: root.name,
        total_ns,
        stages,
        accounted_ns,
        span_count: mine.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::stage;

    fn span(
        id: u64,
        parent: u64,
        node: u16,
        name: &'static str,
        stage: &'static str,
        start: u64,
        end: u64,
    ) -> SpanRecord {
        SpanRecord {
            trace_id: 7,
            span_id: id,
            parent_span: parent,
            node,
            name,
            stage,
            start_ns: start,
            end_ns: end,
        }
    }

    /// A full cross-node invocation: 100 µs end to end, every stage
    /// instrumented, with wire time appearing only as uncovered
    /// client-send gaps.
    fn cross_node_trace() -> Vec<SpanRecord> {
        vec![
            span(1, 0, 0, "invoke", stage::NONE, 0, 100_000),
            // 10 µs waiting in the caller's vproc queue.
            span(2, 1, 0, "vproc-wait", stage::VPROC_QUEUE, 0, 10_000),
            // 5 µs directory lookup.
            span(3, 1, 0, "dir-query", stage::DIRECTORY, 10_000, 15_000),
            span(4, 1, 0, "client-send", stage::NONE, 15_000, 95_000),
            // 8 µs in the transport queue, 2 µs batch write.
            span(5, 4, 0, "xport-queue", stage::XPORT_QUEUE, 15_000, 23_000),
            span(6, 4, 0, "batch-write", stage::WRITE, 23_000, 25_000),
            // Remote side: 20 µs queued, 40 µs executing.
            span(7, 4, 1, "vproc-wait", stage::VPROC_QUEUE, 30_000, 50_000),
            span(8, 4, 1, "dispatch", stage::DISPATCH, 50_000, 52_000),
            span(9, 8, 1, "execute", stage::EXECUTE, 52_000, 92_000),
        ]
    }

    #[test]
    fn stages_are_localized_and_summed() {
        let cp = critical_path(&cross_node_trace(), 7).expect("report");
        assert_eq!(cp.total_ns, 100_000);
        assert_eq!(cp.stages["local-queue"], 10_000);
        assert_eq!(cp.stages["directory"], 5_000);
        assert_eq!(cp.stages["xport-queue"], 8_000);
        assert_eq!(cp.stages["write"], 2_000);
        assert_eq!(cp.stages["remote-queue"], 20_000);
        assert_eq!(cp.stages["remote-dispatch"], 2_000);
        assert_eq!(cp.stages["execute"], 40_000);
        // client-send is 80 µs; tagged spans inside cover 72 µs; the
        // remaining 8 µs derive as wire.
        assert_eq!(cp.stages["wire"], 8_000);
        // 10+5+8+2+20+2+40+8 = 95 µs of 100 µs.
        assert_eq!(cp.accounted_ns, 95_000);
        assert!(cp.coverage() >= 0.95, "coverage {}", cp.coverage());
        assert_eq!(cp.stages["untracked"], 5_000);
        assert_eq!(cp.dominant_stage(), Some(("execute", 40_000)));
    }

    #[test]
    fn overlapping_spans_do_not_double_count() {
        let spans = vec![
            span(1, 0, 0, "invoke", stage::NONE, 0, 100),
            span(2, 1, 0, "vproc-wait", stage::VPROC_QUEUE, 0, 60),
            span(3, 1, 0, "vproc-wait", stage::VPROC_QUEUE, 40, 80),
        ];
        let cp = critical_path(&spans, 7).expect("report");
        assert_eq!(cp.stages["local-queue"], 80);
        assert_eq!(cp.accounted_ns, 80);
    }

    #[test]
    fn spans_outside_the_root_window_are_clipped() {
        let spans = vec![
            span(1, 0, 0, "invoke", stage::NONE, 100, 200),
            span(2, 1, 0, "vproc-wait", stage::VPROC_QUEUE, 50, 150),
            span(3, 1, 0, "stray", stage::EXECUTE, 300, 400),
        ];
        let cp = critical_path(&spans, 7).expect("report");
        assert_eq!(cp.stages["local-queue"], 50);
        assert!(!cp.stages.contains_key("execute"));
    }

    #[test]
    fn empty_trace_is_none_and_text_renders() {
        assert!(critical_path(&[], 7).is_none());
        let cp = critical_path(&cross_node_trace(), 7).unwrap();
        let table = cp.text_table();
        for needle in ["local-queue", "wire", "execute", "total", "% accounted"] {
            assert!(table.contains(needle), "missing {needle} in:\n{table}");
        }
        // Canonical row order: local-queue before execute.
        assert!(table.find("local-queue").unwrap() < table.find("execute").unwrap());
    }

    #[test]
    fn stage_histograms_accumulate_p99_series() {
        let reg = ObsRegistry::new(0);
        let cp = critical_path(&cross_node_trace(), 7).unwrap();
        cp.record_stage_histograms(&reg);
        cp.record_stage_histograms(&reg);
        let hists = reg.histograms_snapshot();
        assert_eq!(hists["critpath.execute"].count, 2);
        assert_eq!(hists["critpath.wire"].count, 2);
        assert_eq!(hists["critpath.total"].count, 2);
        assert!(hists["critpath.execute"].percentile(99.0) >= 39_000);
    }
}
