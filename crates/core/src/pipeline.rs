//! Client-side invocation pipelining.
//!
//! [`Node::invoke`] is one-RTT-per-call: each remote invocation sends a
//! request and blocks until its reply returns. A [`PipelinedClient`]
//! keeps **many invocations in flight on one connection**: [`call`]
//! sends a request and returns immediately with a [`PendingCall`];
//! [`wait`] harvests the reply later, in any order across outstanding
//! calls, because replies rendezvous by invocation id.
//!
//! The at-most-once contract is unchanged. Every call carries a fresh
//! `inv_id`; the serving kernel's dedup-and-replay bookkeeping treats a
//! pipelined burst exactly like a sequence of individual invocations,
//! and an unanswered call retransmits its request (same id) on the
//! node's configured interval during [`wait`].
//!
//! There is no second protocol underneath: [`call`] and [`wait`] are the
//! two halves of the kernel's one request/reply engine, and a blocking
//! [`Node::invoke`] of a remote object is the same send followed at
//! once by the same wait. Pipelined calls are location transparent too
//! (§2): a call that finds no object at its destination falls back to
//! the blocking invoke's search.
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
use eden_wire::{Status, Value};
use parking_lot::Mutex;

use crate::node::{Node, Ticket};

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
    /// The capability this client invokes.
    pub fn capability(&self) -> Capability {
        self.cap
    }

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
            client: self,
            ticket,
            op: op.to_string(),
            args: args.to_vec(),
        })
    }

    /// Convenience: `call` + `wait` with the node's default timeout —
    /// one-RTT-per-call, exactly the baseline the pipelined path is
    /// measured against in experiment E16.
    pub fn call_sync(&self, op: &str, args: &[Value]) -> (Status, Vec<Value>) {
        match self.call(op, args) {
            Ok(pending) => pending.wait_default(),
            Err(status) => (status, Vec::new()),
        }
    }
}

/// One in-flight pipelined invocation. Dropping it un-harvested
/// releases the reply waiter (the reply, if it arrives, is discarded).
pub struct PendingCall<'a> {
    client: &'a PipelinedClient,
    ticket: Ticket,
    op: String,
    args: Vec<Value>,
}

impl PendingCall<'_> {
    /// The invocation id this call is riding (its at-most-once key on
    /// the serving kernel, scoped to this node's id).
    pub fn inv_id(&self) -> u64 {
        self.ticket.id
    }

    /// Waits for the reply, retransmitting the request (same `inv_id`;
    /// the server dedupes) on the node's configured interval. A
    /// `NoSuchObject` reply falls back, within the same budget, to the
    /// blocking invoke's search (hints, the directory, then a broadcast)
    /// among the other nodes. On an answer the client re-aims at the
    /// node that gave it.
    pub fn wait(self, budget: Duration) -> (Status, Vec<Value>) {
        let deadline = Instant::now() + budget;
        let (node, cap, trace) = (&self.client.node, self.client.cap, self.ticket.trace);
        let answer = node.await_invoke(self.ticket, cap, &self.op, &self.args, budget);
        let (status, results, from) =
            node.resume_search(cap, &self.op, &self.args, deadline, trace, answer);
        if let Some(from) = from {
            *self.client.dst.lock() = from;
        }
        (status, results)
    }

    /// [`wait`](Self::wait) with the node's default invocation timeout.
    pub fn wait_default(self) -> (Status, Vec<Value>) {
        let budget = self.client.node.pipeline_default_budget();
        self.wait(budget)
    }
}
