//! The per-node observability registry: named metrics, the flight
//! recorder, the trace collector, and span/trace id allocation.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::clock::now_ns;
use crate::hist::{Histogram, HistogramSnapshot};
use crate::metric::{Counter, Gauge};
use crate::recorder::FlightRecorder;
use crate::trace::{stage, SpanRecord, TraceCollector, TraceCtx};

/// Default flight-recorder capacity (events per node).
pub const DEFAULT_RECORDER_CAPACITY: usize = 1024;
/// Default trace-collector capacity (spans per node).
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// How root spans are sampled when a trace would start.
///
/// Sampling is decided once, at the root: a sampled-out invocation
/// carries no [`TraceCtx`] at all, so every downstream layer (client
/// send, transport, dispatch, execute, reply) skips span recording for
/// free — the cost of a sampled-out trace is one policy check.
///
/// Ratio sampling is deterministic (a shared counter, not a random
/// draw): exactly one in `n` roots is sampled, which keeps experiment
/// runs reproducible.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum TraceSampling {
    /// Every invocation is traced (the default; matches the pre-sampling
    /// behavior).
    #[default]
    Always,
    /// One in `n` root spans is traced. `Ratio(0)` disables tracing
    /// entirely; `Ratio(1)` is equivalent to [`Always`](Self::Always).
    Ratio(u64),
    /// Per-operation ratios, with `default` applied to operations not
    /// listed. Each entry has [`Ratio`](Self::Ratio) semantics.
    PerOperation {
        /// Operation name → sampling ratio.
        ops: BTreeMap<String, u64>,
        /// Ratio for operations absent from `ops`.
        default: u64,
    },
}

/// One node's observability state. Cheap handles ([`Arc<Counter>`],
/// [`Arc<Histogram>`]…) are handed out once and bumped lock-free on hot
/// paths; the registry lock is only taken on first lookup of a name.
pub struct ObsRegistry {
    node: u16,
    counters: Named<Counter>,
    gauges: Named<Gauge>,
    histograms: Named<Histogram>,
    recorder: FlightRecorder,
    traces: TraceCollector,
    span_seq: AtomicU64,
    trace_seq: AtomicU64,
    sampling: Mutex<TraceSampling>,
    sample_seq: AtomicU64,
}

impl ObsRegistry {
    /// Creates a registry for `node` with default capacities.
    pub fn new(node: u16) -> Self {
        ObsRegistry {
            node,
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            recorder: FlightRecorder::new(DEFAULT_RECORDER_CAPACITY),
            traces: TraceCollector::new(DEFAULT_TRACE_CAPACITY),
            span_seq: AtomicU64::new(1),
            trace_seq: AtomicU64::new(1),
            sampling: Mutex::new(TraceSampling::Always),
            sample_seq: AtomicU64::new(0),
        }
    }

    /// The node this registry belongs to.
    pub fn node(&self) -> u16 {
        self.node
    }

    /// Named monotone counter (created on first use).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        lookup(&self.counters, name)
    }

    /// Named gauge (created on first use).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        lookup(&self.gauges, name)
    }

    /// Named latency histogram (created on first use).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        lookup(&self.histograms, name)
    }

    /// Publishes an existing counter under `name`, replacing any counter
    /// of that name. Counts made before registration keep showing, so a
    /// component can count from construction and join a registry later.
    pub fn register_counter(&self, name: &str, counter: &Arc<Counter>) {
        register(&self.counters, name, counter);
    }

    /// [`register_counter`](Self::register_counter) for a gauge.
    pub fn register_gauge(&self, name: &str, gauge: &Arc<Gauge>) {
        register(&self.gauges, name, gauge);
    }

    /// [`register_counter`](Self::register_counter) for a histogram.
    pub fn register_histogram(&self, name: &str, histogram: &Arc<Histogram>) {
        register(&self.histograms, name, histogram);
    }

    /// Current value of every counter.
    pub fn counters_snapshot(&self) -> BTreeMap<String, u64> {
        self.counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// Current level of every gauge.
    pub fn gauges_snapshot(&self) -> BTreeMap<String, i64> {
        self.gauges
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// Snapshot of every histogram.
    pub fn histograms_snapshot(&self) -> BTreeMap<String, HistogramSnapshot> {
        self.histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect()
    }

    /// This node's flight recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// This node's span collector.
    pub fn traces(&self) -> &TraceCollector {
        &self.traces
    }

    fn next_span_id(&self) -> u64 {
        // Node id in the high bits keeps ids unique across in-process
        // nodes without coordination.
        ((self.node as u64) << 48) | self.span_seq.fetch_add(1, Ordering::Relaxed)
    }

    fn next_trace_id(&self) -> u64 {
        ((self.node as u64) << 48) | self.trace_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Replaces the trace-sampling policy (effective for subsequent
    /// root spans; in-flight traces finish under the old policy).
    pub fn set_sampling(&self, policy: TraceSampling) {
        *self.sampling.lock().unwrap_or_else(|e| e.into_inner()) = policy;
    }

    /// The current trace-sampling policy.
    pub fn sampling(&self) -> TraceSampling {
        self.sampling
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Decides whether a root span for `op` should be traced under the
    /// current policy. Deterministic: ratio decisions consume a shared
    /// counter, so exactly one in `n` eligible roots samples.
    pub fn should_sample(&self, op: &str) -> bool {
        let ratio = match &*self.sampling.lock().unwrap_or_else(|e| e.into_inner()) {
            TraceSampling::Always => return true,
            TraceSampling::Ratio(n) => *n,
            TraceSampling::PerOperation { ops, default } => {
                ops.get(op).copied().unwrap_or(*default)
            }
        };
        match ratio {
            0 => false,
            1 => true,
            n => self
                .sample_seq
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(n),
        }
    }

    /// Opens a root span for operation `op` if the sampling policy
    /// elects it; `None` means the invocation runs untraced (and every
    /// downstream layer skips span work because no [`TraceCtx`] exists).
    pub fn sampled_root_span(&self, name: &'static str, op: &str) -> Option<SpanGuard<'_>> {
        if self.should_sample(op) {
            Some(self.root_span(name))
        } else {
            None
        }
    }

    /// Opens a root span, starting a new trace.
    pub fn root_span(&self, name: &'static str) -> SpanGuard<'_> {
        let ctx = TraceCtx {
            trace_id: self.next_trace_id(),
            parent_span: 0,
            span_id: self.next_span_id(),
        };
        SpanGuard {
            registry: self,
            name,
            stage: stage::NONE,
            ctx,
            start_ns: now_ns(),
            finished: false,
        }
    }

    /// Opens a span as a child of `parent` (possibly from another node).
    pub fn child_span(&self, name: &'static str, parent: TraceCtx) -> SpanGuard<'_> {
        let ctx = TraceCtx {
            trace_id: parent.trace_id,
            parent_span: parent.span_id,
            span_id: self.next_span_id(),
        };
        SpanGuard {
            registry: self,
            name,
            stage: stage::NONE,
            ctx,
            start_ns: now_ns(),
            finished: false,
        }
    }

    /// [`child_span`](Self::child_span) with a critical-path stage tag.
    pub fn child_span_staged(
        &self,
        name: &'static str,
        stage: &'static str,
        parent: TraceCtx,
    ) -> SpanGuard<'_> {
        let mut guard = self.child_span(name, parent);
        guard.stage = stage;
        guard
    }

    /// Records a span retroactively from explicit timestamps (used for
    /// queue-wait spans whose start predates the recording site).
    pub fn record_span(
        &self,
        name: &'static str,
        parent: TraceCtx,
        start_ns: u64,
        end_ns: u64,
    ) -> TraceCtx {
        self.record_span_staged(name, stage::NONE, parent, start_ns, end_ns)
    }

    /// [`record_span`](Self::record_span) with a critical-path stage tag.
    pub fn record_span_staged(
        &self,
        name: &'static str,
        stage: &'static str,
        parent: TraceCtx,
        start_ns: u64,
        end_ns: u64,
    ) -> TraceCtx {
        let ctx = TraceCtx {
            trace_id: parent.trace_id,
            parent_span: parent.span_id,
            span_id: self.next_span_id(),
        };
        self.traces.record(SpanRecord {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_span: ctx.parent_span,
            node: self.node,
            name,
            stage,
            start_ns,
            end_ns,
        });
        ctx
    }
}

type Named<T> = Mutex<BTreeMap<String, Arc<T>>>;

/// The handle named `name`, created on first use.
fn lookup<T: Default>(map: &Named<T>, name: &str) -> Arc<T> {
    let mut map = map.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(handle) = map.get(name) {
        return Arc::clone(handle);
    }
    Arc::clone(map.entry(name.to_string()).or_default())
}

fn register<T>(map: &Named<T>, name: &str, handle: &Arc<T>) {
    map.lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(name.to_string(), Arc::clone(handle));
}

impl std::fmt::Debug for ObsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsRegistry")
            .field("node", &self.node)
            .finish()
    }
}

/// An open span; records itself into the collector when finished (or
/// dropped). Obtain the [`TraceCtx`] with [`ctx`](Self::ctx) to stamp
/// outgoing frames while the span is still open.
pub struct SpanGuard<'a> {
    registry: &'a ObsRegistry,
    name: &'static str,
    stage: &'static str,
    ctx: TraceCtx,
    start_ns: u64,
    finished: bool,
}

impl SpanGuard<'_> {
    /// The context identifying this span (propagate it downstream).
    pub fn ctx(&self) -> TraceCtx {
        self.ctx
    }

    /// Ends the span now.
    pub fn finish(mut self) {
        self.finish_inner();
    }

    fn finish_inner(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.registry.traces.record(SpanRecord {
            trace_id: self.ctx.trace_id,
            span_id: self.ctx.span_id,
            parent_span: self.ctx.parent_span,
            node: self.registry.node,
            name: self.name,
            stage: self.stage,
            start_ns: self.start_ns,
            end_ns: now_ns(),
        });
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.finish_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render_trace;

    #[test]
    fn named_handles_are_shared() {
        let reg = ObsRegistry::new(3);
        reg.counter("x").inc();
        reg.counter("x").inc();
        assert_eq!(reg.counter("x").get(), 2);
        assert_eq!(reg.counters_snapshot()["x"], 2);

        reg.gauge("depth").add(5);
        assert_eq!(reg.gauges_snapshot()["depth"], 5);

        reg.histogram("lat").record(100);
        assert_eq!(reg.histograms_snapshot()["lat"].count, 1);
    }

    #[test]
    fn spans_nest_across_registries_like_nodes() {
        let client = ObsRegistry::new(0);
        let server = ObsRegistry::new(1);

        let root = client.root_span("invoke");
        let send = client.child_span("client-send", root.ctx());
        // The ctx crosses the wire; the server parents onto it.
        let wire_ctx = send.ctx();
        let dispatch = server.child_span("dispatch", wire_ctx);
        let exec = server.child_span("execute", dispatch.ctx());
        let trace_id = root.ctx().trace_id;
        exec.finish();
        dispatch.finish();
        send.finish();
        root.finish();

        let mut spans = client.traces().spans_for(trace_id);
        spans.extend(server.traces().spans_for(trace_id));
        assert_eq!(spans.len(), 4);
        // Every non-root span's parent is present: one causal tree.
        let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.span_id).collect();
        for s in &spans {
            assert!(
                s.parent_span == 0 || ids.contains(&s.parent_span),
                "orphan {s:?}"
            );
        }
        let tree = render_trace(&spans, trace_id);
        assert!(tree.contains("execute"), "tree:\n{tree}");
    }

    #[test]
    fn sampling_always_and_never() {
        let reg = ObsRegistry::new(0);
        assert!(reg.sampled_root_span("invoke", "get").is_some());
        let recorded = reg.traces().spans().len();
        reg.set_sampling(TraceSampling::Ratio(0));
        for _ in 0..10 {
            assert!(reg.sampled_root_span("invoke", "get").is_none());
        }
        assert_eq!(reg.traces().spans().len(), recorded);
        reg.set_sampling(TraceSampling::Ratio(1));
        assert!(reg.sampled_root_span("invoke", "get").is_some());
    }

    #[test]
    fn ratio_sampling_is_deterministic_one_in_n() {
        let reg = ObsRegistry::new(0);
        reg.set_sampling(TraceSampling::Ratio(4));
        let sampled = (0..40)
            .filter(|_| reg.sampled_root_span("invoke", "get").is_some())
            .count();
        assert_eq!(sampled, 10);
    }

    #[test]
    fn per_operation_sampling_selects_by_op() {
        let reg = ObsRegistry::new(0);
        let mut ops = BTreeMap::new();
        ops.insert("add".to_string(), 1u64);
        reg.set_sampling(TraceSampling::PerOperation { ops, default: 0 });
        assert!(reg.sampled_root_span("invoke", "add").is_some());
        assert!(reg.sampled_root_span("invoke", "get").is_none());
        assert_eq!(
            reg.sampling(),
            TraceSampling::PerOperation {
                ops: [("add".to_string(), 1u64)].into_iter().collect(),
                default: 0
            }
        );
    }

    #[test]
    fn span_ids_are_node_disjoint() {
        let a = ObsRegistry::new(1);
        let b = ObsRegistry::new(2);
        let sa = a.root_span("x");
        let sb = b.root_span("x");
        assert_ne!(sa.ctx().span_id, sb.ctx().span_id);
        assert_ne!(sa.ctx().trace_id, sb.ctx().trace_id);
    }
}
