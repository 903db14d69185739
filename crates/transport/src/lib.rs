//! Frame transports connecting Eden kernels.
//!
//! The kernel's only assumption about the network is the one Eden's
//! Ethernet provides (§3): message-oriented, best-effort delivery of
//! [`Frame`]s between the node machines of one local network, including
//! broadcast (which the location service uses for its `WhereIs` search).
//! This crate supplies that contract three ways:
//!
//! * [`LoopbackMesh`] — an in-process mesh over `std::sync::mpsc`
//!   channels, with optional per-frame latency models, seeded random
//!   loss, and link partitioning for failure experiments. This is the
//!   default harness fabric: a whole five-node Eden (Figure 1) runs in
//!   one process.
//! * [`TcpMesh`] — length-prefixed frames over `std::net` TCP, with a
//!   writer thread per destination and a fixed pool of reader threads,
//!   for *multi-process* Eden clusters on one machine (or a real LAN).
//! * The `eden-ethersim` crate is the third face of the
//!   network: the same Ethernet, modelled offline for the E7 experiments.
//!   Its calibrated latency figures can be fed back into
//!   [`LatencyModel::Ethernet`] so in-process runs feel like the wire.
//!
//! Delivery guarantees: frames may be dropped (loss model, dead peer,
//! partition) and unicast frames to a live peer arrive in FIFO order per
//! sender. The kernel's request/reply and timeout machinery tolerates
//! loss; nothing assumes reliability.
//!
//! Counting: every endpoint counts frames, bytes, drops and dials into
//! a [`stats::TransportCounters`] cell of registry handles from the
//! moment it is built; [`Endpoint::attach_obs`] publishes them in the
//! node's registry as `transport.<field>`, and [`Endpoint::stats`] is
//! their [`TransportStats`] snapshot, so the registry and `stats()`
//! always read the same numbers.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod latency;
pub mod mesh;
pub mod stats;
pub mod tcp;
pub mod writer;

use std::sync::Arc;
use std::time::Duration;

use eden_capability::NodeId;
use eden_obs::ObsRegistry;
use eden_wire::Frame;

pub use latency::LatencyModel;
pub use mesh::{LoopbackMesh, MeshOptions};
pub use stats::TransportStats;
pub use tcp::{TcpMesh, TcpMeshConfig};
pub use writer::TcpTuning;

/// Errors surfaced by transports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The endpoint (or the whole mesh) has been shut down.
    Closed,
    /// The destination node is unknown to this transport.
    UnknownPeer(NodeId),
    /// An I/O failure (TCP transport), rendered.
    Io(String),
}

impl core::fmt::Display for TransportError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TransportError::Closed => write!(f, "transport closed"),
            TransportError::UnknownPeer(n) => write!(f, "unknown peer {n}"),
            TransportError::Io(e) => write!(f, "transport I/O error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// One kernel's attachment to the network.
///
/// Implementations are shared between the kernel's receive loop and its
/// virtual processors, so everything here is `&self` and thread-safe.
pub trait Endpoint: Send + Sync {
    /// The node this endpoint belongs to.
    fn node(&self) -> NodeId;

    /// Sends a frame (unicast or broadcast). Best-effort: a dead or
    /// partitioned destination is not an error, matching Ethernet
    /// semantics; only a closed transport or an unknown unicast peer is.
    fn send(&self, frame: Frame) -> Result<(), TransportError>;

    /// Receives the next frame, blocking until one arrives or the
    /// transport closes.
    fn recv(&self) -> Result<Frame, TransportError>;

    /// Receives with a deadline; `Ok(None)` on timeout.
    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Frame>, TransportError>;

    /// Receives up to `max` frames in one call: blocks until at least
    /// one frame arrives (or `timeout` passes — then `Ok(empty)`), then
    /// drains whatever more is immediately available, preserving
    /// per-sender FIFO order. The kernel's receive loop uses this to
    /// amortize its channel and dispatch costs over a sender's whole
    /// coalesced batch; transports without internal batching fall back
    /// to handing over one frame.
    fn recv_batch(&self, max: usize, timeout: Duration) -> Result<Vec<Frame>, TransportError> {
        let _ = max;
        Ok(match self.recv_timeout(timeout)? {
            Some(f) => vec![f],
            None => Vec::new(),
        })
    }

    /// The other nodes this endpoint can currently address.
    fn peers(&self) -> Vec<NodeId>;

    /// Counters for frames and bytes in each direction.
    fn stats(&self) -> TransportStats;

    /// Attaches the receiving node's observability registry: the
    /// transport publishes its `transport.*` counters there (counts made
    /// before the attach included) and records delivery-latency
    /// histograms and `net` spans for traced frames. The default ignores
    /// the registry.
    fn attach_obs(&self, obs: Arc<ObsRegistry>) {
        let _ = obs;
    }

    /// One stall-watchdog probe over the send side: for every
    /// destination with a non-empty outbound queue, `(peer, ns since
    /// the queue last moved, frames queued)`. Transports without
    /// per-peer queues (loopback) have nothing to report.
    fn writer_probe(&self) -> Vec<(NodeId, u64, u64)> {
        Vec::new()
    }

    /// Detaches this endpoint; subsequent `recv` returns
    /// [`TransportError::Closed`] once the queue drains.
    fn shutdown(&self);
}
