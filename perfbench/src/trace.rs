//! Spans recorded from outside the kernel.
//!
//! Every call the benchmark makes into a layer, and every call a layer
//! makes into one of the benchmark's decorators, can open a [`Span`]:
//! its name, start, end, the span open on the same thread when it began
//! (its parent), and one numeric argument (frames, bytes). Spans stay in
//! memory until the run ends; the per-layer numbers are derived from
//! them afterwards, so recording costs one clock read and one short
//! mutex push per span.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// What a span times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanName {
    /// One driver operation (an invocation, or a move); the argument is
    /// the [`OpKind`](crate::workload::OpKind) index.
    Op,
    /// `PipelinedClient::call`: building and queueing one request.
    PipelineCall,
    /// `PendingCall::wait`: blocking until the oldest reply is harvested.
    PipelineWait,
    /// `Endpoint::send`; the argument is 1.
    Send,
    /// `Endpoint::recv_batch`; the argument is the frame count returned.
    RecvBatch,
    /// `TypeManager::dispatch` of the benchmark's own type.
    Dispatch,
    /// `CheckpointStore::put`; the argument is the image size in bytes.
    StorePut,
    /// `CheckpointStore::latest`.
    StoreLatest,
}

impl SpanName {
    /// Layers whose time is work done inside one invocation, as opposed
    /// to the kernel's own bookkeeping and hand-offs between threads.
    pub fn is_layer_work(self) -> bool {
        matches!(
            self,
            SpanName::Send | SpanName::Dispatch | SpanName::StorePut | SpanName::StoreLatest
        )
    }
}

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique within a run, starting at 1.
    pub id: u32,
    /// The span open on the same thread when this one began (0: none).
    pub parent: u32,
    /// What was timed.
    pub name: SpanName,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Name-specific argument (see [`SpanName`]).
    pub arg: u32,
}

impl Span {
    /// The span's duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Collects the spans of one run. A disabled tracer records nothing; an
/// enabled one records only while armed, and only up to its budget.
pub struct Tracer {
    enabled: bool,
    armed: AtomicBool,
    /// Buffer length past which spans are dropped.
    limit: AtomicUsize,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU64,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            armed: AtomicBool::new(false),
            limit: AtomicUsize::new(0),
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Whether this run records spans.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts recording, keeping at most `budget` more spans.
    pub fn arm(&self, budget: usize) {
        if !self.enabled {
            return;
        }
        let mut spans = self.spans.lock().expect("span buffer poisoned");
        spans.reserve_exact(budget);
        self.limit.store(spans.len() + budget, Ordering::Relaxed);
        self.armed.store(true, Ordering::Relaxed);
    }

    /// Stops opening spans; spans already open are still recorded.
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::Relaxed);
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span on the calling thread; it is recorded when the guard
    /// drops. `None` when tracing is off.
    pub fn open(&self, name: SpanName) -> Option<OpenSpan<'_>> {
        if !self.enabled || !self.armed.load(Ordering::Relaxed) {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied().unwrap_or(0);
            open.push(id);
            parent
        });
        Some(OpenSpan {
            tracer: self,
            span: Span {
                id,
                parent,
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                arg: 0,
            },
        })
    }

    fn record(&self, span: Span) {
        let mut spans = self.spans.lock().expect("span buffer poisoned");
        if spans.len() < self.limit.load(Ordering::Relaxed) {
            spans.push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Spans that did not fit in the buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Takes every recorded span, sorted by start time.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"));
        spans.sort_by_key(|s| s.start_ns);
        spans
    }
}

/// A span being timed; recorded on drop.
pub struct OpenSpan<'a> {
    tracer: &'a Tracer,
    span: Span,
}

impl OpenSpan<'_> {
    /// Sets the span's argument.
    pub fn set_arg(&mut self, arg: u32) {
        self.span.arg = arg;
    }
}

impl Drop for OpenSpan<'_> {
    fn drop(&mut self) {
        self.span.end_ns = self.tracer.now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&id| id == self.span.id) {
                open.remove(pos);
            }
        });
        self.tracer.record(self.span);
    }
}
