//! The request/reply engine: every kernel-to-kernel request registers a
//! waiter under a fresh id in the node's reply registry, is sent, and is
//! awaited inside [`blocking`]. Replies rendezvous by id, so a caller
//! may hold many tickets and harvest them in any order; that is all a
//! `PipelinedClient`, or a fan-out of `invoke_async` calls to remote
//! objects, is.

use std::sync::Arc;
use std::time::{Duration, Instant};

use eden_capability::{Capability, NodeId};
use eden_obs::{now_ns, stage, KernelEvent, TraceCtx};
use eden_wire::{Frame, Message, Status, Value};

use super::location::Search;
use super::Node;
use crate::vproc::blocking;
use crate::waiter::Waiter;

/// One entry of the reply registry.
pub(super) struct Registered {
    pub(super) waiter: Arc<Waiter<Frame>>,
    /// `(start_ns, trace_id)` of an invocation; the watchdog reports
    /// those older than
    /// [`NodeConfig::slow_invocation_budget`](super::NodeConfig::slow_invocation_budget).
    /// `None` for every other kind of request.
    pub(super) invocation: Option<(u64, u64)>,
}

/// A request registered in the reply registry and sent: what
/// `Node::await_reply` needs to wait for it, retransmit it and
/// attribute the exchange. Dropping it unregisters the request.
pub(crate) struct Ticket {
    pub(crate) id: u64,
    pub(crate) dst: NodeId,
    pub(crate) start_ns: u64,
    /// The trace context riding the request frame.
    pub(crate) trace: Option<TraceCtx>,
    waiter: Arc<Waiter<Frame>>,
    node: Node,
}

impl Drop for Ticket {
    fn drop(&mut self) {
        self.node.inner.pending.lock().remove(&self.id);
    }
}

impl Node {
    /// Registers a reply waiter under a fresh id and sends `msg(id)` to
    /// `dst`, with `trace` on the frame; `invocation` also registers the
    /// request for the watchdog's slow-invocation probe. `None` when the
    /// transport refuses the frame outright.
    fn send_request(
        &self,
        dst: NodeId,
        trace: Option<TraceCtx>,
        invocation: bool,
        msg: impl FnOnce(u64) -> Message,
    ) -> Option<Ticket> {
        let ticket = Ticket {
            id: self.fresh_id(),
            dst,
            start_ns: now_ns(),
            trace,
            waiter: Arc::new(Waiter::new()),
            node: self.clone(),
        };
        let entry = Registered {
            waiter: ticket.waiter.clone(),
            invocation: invocation.then(|| (ticket.start_ns, trace.map_or(0, |t| t.trace_id))),
        };
        self.inner.pending.lock().insert(ticket.id, entry);
        if self
            .inner
            .endpoint
            .send(self.frame(dst, msg(ticket.id), trace))
            .is_err()
        {
            return None;
        }
        Some(ticket)
    }

    /// Waits up to `budget` for `ticket`'s reply. The wait is a blocking
    /// scope: a pool worker parked here (a nested invocation,
    /// redelivery, move) must not starve runnable local tasks.
    /// With `resend`, an unanswered request is re-sent every retransmit
    /// interval under the same id; the server dedupes (at-most-once
    /// execution; a lost reply is replayed from its reply cache).
    fn await_reply(
        &self,
        ticket: &Ticket,
        budget: Duration,
        resend: Option<&dyn Fn(u64) -> Message>,
    ) -> Option<Frame> {
        let deadline = Instant::now() + budget;
        blocking(|| loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let slice = match resend {
                Some(_) => left.min(self.inner.config.retransmit_interval),
                None => left,
            };
            if let Some(reply) = ticket.waiter.wait(slice) {
                break Some(reply);
            }
            let Some(msg) = resend.filter(|_| Instant::now() < deadline) else {
                break None;
            };
            self.log_event(KernelEvent::Retransmit {
                inv_id: ticket.id,
                dst: ticket.dst.0,
            });
            // Non-blocking even over TCP: the transport's send pipeline
            // enqueues to a per-peer writer, so a dead or slow
            // destination cannot stall this retransmit slice (the frame
            // sheds at the bounded queue).
            let _ = self
                .inner
                .endpoint
                .send(self.frame(ticket.dst, msg(ticket.id), ticket.trace));
        })
    }

    /// One request/reply exchange without retransmission.
    pub(super) fn request(
        &self,
        dst: NodeId,
        budget: Duration,
        msg: impl FnOnce(u64) -> Message,
    ) -> Option<Message> {
        let ticket = self.send_request(dst, None, false, msg)?;
        self.await_reply(&ticket, budget, None)
            .map(|reply| reply.msg)
    }

    /// The send half of every remote invocation, blocking, asynchronous
    /// or pipelined: sends `op` on `cap` to `dst` with `trace` on the
    /// frame. Fails only when the transport refuses the frame outright.
    pub(crate) fn send_invoke(
        &self,
        dst: NodeId,
        cap: Capability,
        op: &str,
        args: &[Value],
        trace: Option<TraceCtx>,
    ) -> std::result::Result<Ticket, Status> {
        self.inner.metrics.bump_remote_sent();
        self.send_request(dst, trace, true, |id| self.invoke_msg(id, cap, op, args))
            .ok_or(Status::NodeUnreachable)
    }

    /// The wait half of every remote invocation: waits up to `budget`,
    /// retransmitting on the configured interval, records the exchange
    /// as a `client-send` span and in `invoke.remote`, and learns the
    /// node that answered — after a forwarding chain that is the
    /// object's real home, so the chain is paid once: it is cached, and
    /// a forwarding address held here is compressed onto it. Returns
    /// the answer and that node (`Timeout` and `ticket.dst` when no
    /// reply came).
    pub(crate) fn await_invoke(
        &self,
        ticket: Ticket,
        cap: Capability,
        op: &str,
        args: &[Value],
        budget: Duration,
    ) -> (Status, Vec<Value>, NodeId) {
        let resend = |id| self.invoke_msg(id, cap, op, args);
        let resend: Option<&dyn Fn(u64) -> Message> =
            self.inner.config.enable_retransmission.then_some(&resend);
        let reply = self.await_reply(&ticket, budget, resend);
        let elapsed = now_ns().saturating_sub(ticket.start_ns);
        self.inner.invoke_metrics.remote.record(elapsed);
        // Recorded retroactively, since a pipelined or asynchronous
        // ticket outlives any span guard; the serving kernel's spans
        // parent on the same context, carried by the request frame.
        self.trace_stage("client-send", stage::NONE, ticket.trace, ticket.start_ns);
        match reply.map(|frame| (frame.src, frame.msg)) {
            Some((
                from,
                Message::InvokeReply {
                    status, results, ..
                },
            )) => {
                if Search::ends(&status) {
                    self.compress_forward(cap.name(), from, ticket.start_ns);
                    if self.inner.config.enable_location_cache {
                        self.cache_insert(cap.name(), from);
                    }
                }
                (status, results, from)
            }
            _ => {
                self.log_event(KernelEvent::RemoteTimeout { dst: ticket.dst.0 });
                (Status::Timeout, Vec::new(), ticket.dst)
            }
        }
    }

    fn invoke_msg(&self, inv_id: u64, cap: Capability, op: &str, args: &[Value]) -> Message {
        Message::InvokeRequest {
            inv_id,
            target: cap,
            operation: op.to_string(),
            args: args.to_vec(),
            reply_to: self.inner.id,
            hops: self.inner.config.hop_limit,
        }
    }
}
