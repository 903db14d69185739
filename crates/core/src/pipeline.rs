//! Asynchronous invocation: a [`PendingCall`] is an invocation started
//! and not yet harvested.
//!
//! [`Node::invoke`] blocks for each answer. [`Node::invoke_async`]
//! starts the same invocation and returns at once: an object on this
//! node is queued at its coordinator, a remote one is sent to the first
//! node its location search names under a reply ticket, and no thread
//! waits for it until [`wait`] harvests the answer — the answer a
//! blocking invoke would have given. A [`PipelinedClient`] keeps **many
//! invocations of one remote object in flight on one connection**:
//! [`call`] sends a request to the node it aims at and returns a
//! [`PendingCall`] too; [`wait`] harvests replies in any order across
//! outstanding calls, because replies rendezvous by invocation id.
//!
//! The at-most-once contract is unchanged. Every remote request carries
//! a fresh `inv_id`; the serving kernel's dedup-and-replay bookkeeping
//! treats a pipelined burst exactly like a sequence of individual
//! invocations, and an unanswered request retransmits (same id) on the
//! node's configured interval during [`wait`].
//!
//! There is no second protocol underneath: a blocking invoke is the same
//! start followed at once by the same wait, on the kernel's one
//! request/reply engine. Pipelined calls are location transparent too
//! (§2): a call that finds no object at its destination falls back to
//! the location search.
//!
//! ```text
//! sequential:  req1 ──► rep1 ──► req2 ──► rep2 ──► req3 ──► rep3
//! pipelined:   req1 req2 req3 ──► rep2 rep1 rep3      (3 calls, ~1 RTT)
//! ```
//!
//! [`call`]: PipelinedClient::call
//! [`wait`]: PendingCall::wait

use std::time::{Duration, Instant};

use eden_capability::{Capability, NodeId};
use eden_obs::TraceCtx;
use eden_wire::{Status, Value};
use parking_lot::Mutex;

use crate::node::{Node, Started};

impl Node {
    /// Creates a pipelined client for `cap`, aimed at this node's best
    /// current guess of the holder (forwarding address → hint cache →
    /// birth node). The aim self-corrects: each completed call re-aims
    /// the client at the node that actually answered.
    pub fn pipelined_client(&self, cap: Capability) -> PipelinedClient {
        self.pipelined_client_to(cap, self.hints(cap.name()).best())
    }

    /// [`pipelined_client`](Self::pipelined_client) with an explicit
    /// initial destination.
    pub fn pipelined_client_to(&self, cap: Capability, dst: NodeId) -> PipelinedClient {
        PipelinedClient {
            node: self.clone(),
            cap,
            dst: Mutex::new(dst),
        }
    }
}

/// Issues invocations of one object without waiting for each reply —
/// the connection carries a window of outstanding requests instead of
/// one. Create with [`Node::pipelined_client`]; the window size is
/// whatever the caller keeps un-harvested (backpressure still applies:
/// the serving kernel sheds past its queue caps with
/// [`Status::Overloaded`]).
pub struct PipelinedClient {
    node: Node,
    cap: Capability,
    /// Current destination; re-aimed at whichever node answered last,
    /// so a forwarding chain after a move is paid once.
    dst: Mutex<NodeId>,
}

impl PipelinedClient {
    /// Where requests are currently being sent.
    pub fn dst(&self) -> NodeId {
        *self.dst.lock()
    }

    /// Sends one invocation request and returns without waiting. The
    /// reply is harvested with [`PendingCall::wait`] — in any order
    /// relative to other outstanding calls. Fails only when the
    /// transport refuses the frame outright.
    pub fn call(&self, op: &str, args: &[Value]) -> Result<PendingCall<'_>, Status> {
        // The root span closes at once and marks the issue point; the
        // frame carries its context, and the wait records `client-send`.
        let trace = self
            .node
            .obs()
            .sampled_root_span("invoke", op)
            .map(|s| s.ctx());
        let ticket = self
            .node
            .send_invoke(self.dst(), self.cap, op, args, trace)?;
        Ok(PendingCall {
            node: self.node.clone(),
            cap: self.cap,
            op: op.to_string(),
            args: args.to_vec(),
            trace,
            started: Started::Aimed(ticket),
            aim: Some(&self.dst),
        })
    }

    /// Convenience: `call` + `wait` with the node's default timeout —
    /// one-RTT-per-call, exactly the baseline the pipelined path is
    /// measured against in experiment E16.
    pub fn call_sync(&self, op: &str, args: &[Value]) -> (Status, Vec<Value>) {
        match self.call(op, args) {
            Ok(pending) => pending.wait(self.node.config().default_invoke_timeout),
            Err(status) => (status, Vec::new()),
        }
    }
}

/// One invocation in flight: started by [`Node::invoke_async`] or
/// [`PipelinedClient::call`], harvested by [`wait`](Self::wait).
/// Dropping it un-harvested abandons the answer (a remote reply, if it
/// arrives, is discarded; a local invocation still runs).
pub struct PendingCall<'a> {
    pub(crate) node: Node,
    pub(crate) cap: Capability,
    pub(crate) op: String,
    pub(crate) args: Vec<Value>,
    /// The trace context the invocation carries.
    pub(crate) trace: Option<TraceCtx>,
    pub(crate) started: Started,
    /// A pipelined client's destination, re-aimed at the node that
    /// answers.
    pub(crate) aim: Option<&'a Mutex<NodeId>>,
}

impl PendingCall<'_> {
    /// Waits up to `budget` for the answer. A remote request is
    /// retransmitted (same `inv_id`; the server dedupes) on the node's
    /// configured interval; a `NoSuchObject` reply goes on, within the
    /// same budget, with the location search (hints, the directory, then
    /// a broadcast) among the other nodes; a local invocation rerouted
    /// by a move or crash is started again. A pipelined client re-aims
    /// at the node that answered.
    pub fn wait(self, budget: Duration) -> (Status, Vec<Value>) {
        let deadline = Instant::now() + budget;
        let (status, results, from) = self.node.finish_invoke(
            self.started,
            self.cap,
            &self.op,
            &self.args,
            deadline,
            self.trace,
        );
        if let (Some(aim), Some(from)) = (self.aim, from) {
            *aim.lock() = from;
        }
        (status, results)
    }
}
