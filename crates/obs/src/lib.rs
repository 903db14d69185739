//! Cross-layer observability for the Eden reproduction.
//!
//! The 1981 paper argues for mechanisms — location-transparent
//! invocation, invocation classes, checkpointing, mobility — whose costs
//! a reproduction must be able to *see* to be evaluable. This crate is
//! that layer, with three pillars:
//!
//! * **Distributed invocation tracing** — a compact [`TraceCtx`]
//!   (`trace_id`, `parent_span`, `span_id`) rides along `eden-wire`
//!   frames as an optional trailing field. Each layer opens a span
//!   ([`ObsRegistry::child_span`]) against the context it received, so a
//!   single remote invocation yields a causally linked span tree across
//!   nodes: client send → transport delivery → coordinator dispatch →
//!   operation execution → reply delivery. [`render_trace`] draws the
//!   tree.
//! * **Lock-free latency histograms** — [`Histogram`] is a log-linear
//!   (HDR-style) array of atomic buckets: recording a sample is a couple
//!   of relaxed atomic adds, snapshots are mergeable, and percentiles
//!   come out with ≤ ~6% relative error. [`Counter`] and [`Gauge`]
//!   cover monotone event counts and instantaneous levels (coordinator
//!   queue depth, per-class in-service counts). The [`metrics!`] macro
//!   declares a counter family once — a typed snapshot with a
//!   saturating `delta` plus a cell of registry handles — and backs both
//!   the kernel's `KernelMetrics` and the transport's `TransportStats`.
//! * **A per-node flight recorder** — [`FlightRecorder`] keeps the last
//!   N typed [`KernelEvent`]s (crashes, reincarnations, moves, forwards,
//!   retransmissions, `WhereIs` broadcasts…) in a fixed-capacity ring,
//!   dumpable as text for postmortems after failover experiments. Each
//!   event kind is one row of the table in [`recorder`], which generates
//!   the enum, its text, and the [`EventField`] visitor and constructor
//!   the JSONL export and the `eden-wire` `Value` codec loop over.
//!
//! Everything hangs off a per-node [`ObsRegistry`]. All nodes in one
//! process share a single monotonic epoch ([`now_ns`]) and a single
//! flight-recorder sequence counter, so timestamps and event sequence
//! numbers from different in-process nodes are directly comparable.
//!
//! The [`export`] module is the boundary where telemetry leaves the
//! process: Prometheus text exposition for metrics, Chrome-trace
//! (Perfetto-loadable) JSON for span trees, and a JSONL event stream
//! for the flight recorder. Root-span creation is governed by a
//! configurable [`TraceSampling`] policy so tracing cost stays bounded
//! under load.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod clock;
pub mod critpath;
pub mod export;
pub mod hist;
pub mod metric;
pub mod recorder;
pub mod registry;
pub mod trace;

pub use clock::now_ns;
pub use critpath::{critical_path, CriticalPath, STAGE_ORDER};
pub use export::{
    chrome_trace_json, events_jsonl, merge_metrics, parse_jsonl_line, parse_prometheus_line,
    prometheus_text, validate_json, NodeMetrics, PromSample,
};
pub use hist::{merge_snapshot_maps, Histogram, HistogramSnapshot};
pub use metric::{Counter, Gauge};
pub use recorder::{
    EventField, FlightEvent, FlightRecorder, InboundDropReason, KernelEvent, RawField,
};
pub use registry::{ObsRegistry, SpanGuard, TraceSampling};
pub use trace::{intern_name, render_trace, stage, SpanRecord, TraceCollector, TraceCtx};
