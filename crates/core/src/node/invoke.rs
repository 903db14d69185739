//! §4.2: invocation. An invocation names an object, an operation and
//! its parameters; the kernel validates the capability's rights, queues
//! the invocation at the object's coordinator, runs it as an invocation
//! process on a virtual processor once its class has room, and returns
//! the status and results.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use eden_capability::{Capability, NodeId, Rights};
use eden_obs::{now_ns, stage, Gauge, TraceCtx};
use eden_wire::{obs_codec, MemberStatus, Message, Status, Value};

use super::{node_object_name, Node, Ready};
use crate::ctx::OpCtx;
use crate::error::{EdenError, Result};
use crate::object::{CoordState, ObjStatus, ObjectSlot, PendingInvocation, ReplySink};
use crate::vproc::{blocking, BatchTask, Lent, SubmitError};
use crate::waiter::Waiter;

/// The teardown `pump` found due: a crash or destroy was requested and
/// no invocation runs any more.
enum Teardown {
    Crash,
    Destroy,
}

/// A `Value::Map` of `pairs`.
fn value_map<const N: usize>(pairs: [(&str, Value); N]) -> Value {
    Value::Map(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// A handle on an asynchronous invocation (§4.2 promises asynchronous
/// invocation "through a separate kernel primitive"; this is it).
pub struct InvocationHandle {
    waiter: Arc<Waiter<Result<Vec<Value>>>>,
}

impl InvocationHandle {
    /// Blocks until the invocation completes or `timeout` elapses. A
    /// pool worker waiting here yields its processor.
    pub fn wait(&self, timeout: Duration) -> Result<Vec<Value>> {
        match blocking(|| self.waiter.wait(timeout)) {
            Some(r) => r,
            None => Err(EdenError::Invoke(Status::Timeout)),
        }
    }

    /// Non-blocking poll.
    pub fn try_take(&self) -> Option<Result<Vec<Value>>> {
        self.waiter.try_take()
    }
}

impl Node {
    /// Invokes `op` on the object designated by `cap`, blocking for the
    /// status and return parameters. Location-independent: the target may
    /// be on any node, active or passive.
    pub fn invoke(&self, cap: Capability, op: &str, args: &[Value]) -> Result<Vec<Value>> {
        self.invoke_with_timeout(cap, op, args, self.inner.config.default_invoke_timeout)
    }

    /// [`Node::invoke`] with a caller-supplied timeout (§4.2: "The
    /// invocation request may also contain a user-supplied timeout").
    pub fn invoke_with_timeout(
        &self,
        cap: Capability,
        op: &str,
        args: &[Value],
        timeout: Duration,
    ) -> Result<Vec<Value>> {
        if self.inner.shutdown.load(Ordering::Acquire) {
            return Err(EdenError::ShuttingDown);
        }
        let (status, results) = self.do_invoke(cap, op, args, timeout);
        match status {
            Status::Ok => Ok(results),
            Status::Timeout => {
                self.inner.metrics.bump_timeout();
                Err(EdenError::Invoke(Status::Timeout))
            }
            other => Err(EdenError::Invoke(other)),
        }
    }

    /// Starts an invocation without blocking; the returned handle
    /// rendezvouses with the eventual result.
    pub fn invoke_async(&self, cap: Capability, op: &str, args: &[Value]) -> InvocationHandle {
        let waiter = Arc::new(Waiter::new());
        let node = self.clone();
        let op = op.to_string();
        let args = args.to_vec();
        let task_waiter = waiter.clone();
        if let Err(e) = self.inner.vprocs.submit(move || {
            let r = node.invoke(cap, &op, &args);
            task_waiter.complete(r);
        }) {
            waiter.complete(Err(match e {
                SubmitError::Overloaded => EdenError::Invoke(Status::Overloaded),
                SubmitError::Closed => EdenError::ShuttingDown,
            }));
        }
        InvocationHandle { waiter }
    }

    /// The invocation state machine: local slot → local checkpoint →
    /// located remote holder.
    fn do_invoke(
        &self,
        cap: Capability,
        op: &str,
        args: &[Value],
        timeout: Duration,
    ) -> (Status, Vec<Value>) {
        let deadline = Instant::now() + timeout;
        let name = cap.name();
        // Telemetry scrape of this kernel: served inline, before any
        // span opens, so scraping never perturbs the traces it reads.
        // A scrape of a *remote* kernel falls through to the ordinary
        // remote path below — the sentinel name's birth hint routes it.
        if name == node_object_name(self.inner.id) {
            return self.serve_node_object(cap, op, args);
        }
        // The root of this invocation's trace: every downstream span —
        // client-send, net, dispatch, execute, reply — descends from it,
        // across however many nodes the invocation visits. Subject to
        // the node's sampling policy: `None` means this invocation is
        // unsampled and no layer anywhere opens a span for it.
        let root = self.inner.obs.sampled_root_span("invoke", op);
        let ctx = root.as_ref().map(|r| r.ctx());

        // Fast path: active (or replica) on this node, or passive here
        // and reincarnated. The slot is looked up before the invocation
        // blocks, so no table guard is held across the wait. A slot torn
        // down between the lookup and the enqueue hands the invocation
        // back, and the lookup runs again.
        loop {
            let slot = match self.local_slot(name) {
                Ok(slot) => slot,
                Err((status @ (Status::Destroyed | Status::Overloaded), _)) => {
                    return (status, Vec::new())
                }
                Err(_) => break,
            };
            self.inner.metrics.bump_local();
            if let Some(answer) = self.invoke_on_slot(&slot, cap, op, args, deadline, ctx) {
                return answer;
            }
        }

        let (status, results, _) = self.search(cap, op, args, deadline, ctx, None);
        (status, results)
    }

    /// Serves an invocation on this kernel's reserved telemetry object
    /// (see [`node_object_name`]). The kernel itself is the "object":
    /// there is no slot, no coordinator, no queueing — a scrape reads
    /// the observability registry and replies inline. `Rights::READ`
    /// gates all three operations.
    pub(super) fn serve_node_object(
        &self,
        cap: Capability,
        op: &str,
        args: &[Value],
    ) -> (Status, Vec<Value>) {
        if let Err(status) = self.check_rights(cap, Rights::READ) {
            return (status, Vec::new());
        }
        let obs = &self.inner.obs;
        let value = match op {
            // Counters, gauges and histogram snapshots of this node.
            "get_metrics" => obs_codec::registry_metrics_to_value(obs),
            // Span records — all of them, or one trace when the first
            // argument is a `U64` trace id.
            "get_trace" => obs_codec::spans_to_value(&match args.first() {
                Some(Value::U64(trace_id)) => obs.traces().spans_for(*trace_id),
                _ => obs.traces().spans(),
            }),
            // Flight-recorder events — all retained, or the last `n`
            // when the first argument is a `U64`.
            "get_flight_log" => {
                let events = match args.first() {
                    Some(Value::U64(n)) => obs.recorder().last(*n as usize),
                    _ => obs.recorder().events(),
                };
                obs_codec::events_to_value(self.inner.id.0, &events)
            }
            // This node's gossip membership view: one map per known node
            // with its believed status and incarnation (self-only when
            // the directory is disabled).
            "get_membership" => {
                let row = |(node, status, incarnation): (NodeId, MemberStatus, u64)| {
                    value_map([
                        ("node", Value::U64(node.0 as u64)),
                        ("status", Value::Str(status.label().to_string())),
                        ("incarnation", Value::U64(incarnation)),
                    ])
                };
                Value::List(self.membership().into_iter().map(row).collect())
            }
            // Stall-watchdog state: the cumulative stall count and the
            // most recent diagnostic snapshot (empty string when the
            // node has never stalled).
            "get_watchdog" => {
                let snapshot = self.inner.watchdog_snapshot.lock().clone();
                value_map([
                    ("stalls", Value::U64(obs.counter("watchdog.stalls").get())),
                    ("snapshot", Value::Str(snapshot.unwrap_or_default())),
                ])
            }
            other => return (Status::NoSuchOperation(other.to_string()), Vec::new()),
        };
        (Status::Ok, vec![value])
    }

    /// Validates and enqueues an invocation on a local slot, then waits.
    /// When the enqueue made the invocation ready and the pool lends this
    /// thread a processor, the invoker runs it itself: it then returns
    /// when the operation returns, and `deadline` bounds only the wait
    /// for a processor. `None` when the invocation was rerouted because
    /// the slot left the object table.
    fn invoke_on_slot(
        &self,
        slot: &Arc<ObjectSlot>,
        cap: Capability,
        op: &str,
        args: &[Value],
        deadline: Instant,
        ctx: Option<TraceCtx>,
    ) -> Option<(Status, Vec<Value>)> {
        let start_ns = now_ns();
        let waiter = Arc::new(Waiter::new());
        let pending =
            match self.validate(slot, cap, op, args, ReplySink::Local(waiter.clone()), ctx) {
                Ok(p) => p,
                Err(status) => return Some((status, Vec::new())),
            };
        let mut ready = Vec::new();
        self.enqueue(slot, pending, &mut ready);
        let mine = ready
            .iter()
            .position(|(_, p)| matches!(&p.sink, ReplySink::Local(w) if Arc::ptr_eq(w, &waiter)));
        let in_place = mine.and_then(|i| {
            let cpu = self.inner.vprocs.lend(ready[i].1.trace)?;
            Some((cpu, ready.remove(i)))
        });
        self.dispatch(ready);
        if let Some((cpu, (slot, pending))) = in_place {
            self.run_lent(cpu, slot, pending);
        }
        let budget = deadline.saturating_duration_since(Instant::now());
        // A pool worker waiting here (async or nested invocation) yields
        // its place: the reply it waits for may itself need a worker.
        let outcome = match blocking(|| waiter.wait(budget)) {
            Some(Some(answer)) => answer,
            Some(None) => return None, // Rerouted: look the object up again.
            None => (Status::Timeout, Vec::new()),
        };
        let elapsed = now_ns().saturating_sub(start_ns);
        self.inner.invoke_metrics.local.record(elapsed);
        Some(outcome)
    }

    /// Builds a validated [`PendingInvocation`], or the failure status.
    pub(super) fn validate(
        &self,
        slot: &Arc<ObjectSlot>,
        cap: Capability,
        op: &str,
        args: &[Value],
        sink: ReplySink,
        trace: Option<TraceCtx>,
    ) -> std::result::Result<PendingInvocation, Status> {
        let Some(resolved) = self.inner.registry.resolve_op(&slot.type_name, op) else {
            return Err(Status::NoSuchOperation(op.to_string()));
        };
        self.check_rights(cap, resolved.op.required)?;
        let in_service = self
            .inner
            .invoke_metrics
            .in_service(&self.inner.obs, &resolved.op.class);
        Ok(PendingInvocation {
            presented: cap,
            operation: op.to_string(),
            args: args.to_vec(),
            resolved,
            in_service,
            sink,
            caller: self.inner.id,
            trace,
            enqueue_ns: now_ns(),
        })
    }

    /// Queues an invocation at the coordinator and pumps it; the
    /// invocations that became ready go to `ready` for
    /// [`dispatch`](Self::dispatch). A retired coordinator — its slot was
    /// looked up just before a crash, destroy or move took the object
    /// out of the table — hands the invocation to
    /// [`reroute`](Self::reroute) instead.
    pub(super) fn enqueue(
        &self,
        slot: &Arc<ObjectSlot>,
        pending: PendingInvocation,
        ready: &mut Vec<Ready>,
    ) {
        let bounced = self.coordinate(slot, ready, |coord| {
            if coord.retired {
                return Some(pending);
            }
            self.inner.invoke_metrics.queue_depth.inc();
            // During a teardown the invocation rides along and is
            // rerouted (or refused) by the teardown path.
            if coord.status != ObjStatus::Crashed
                && (!coord.queue.is_empty() || coord.status != ObjStatus::Active)
            {
                self.inner.metrics.bump_class_queued();
            }
            coord.queue.push_back(pending);
            None
        });
        if let Some(pending) = bounced {
            self.reroute(pending, ready);
        }
    }

    /// Routes again an invocation whose slot left the object table: a
    /// remote request as if it had just arrived (after a move that
    /// forwards it), while a local invoker looks the object up again.
    pub(super) fn reroute(&self, pending: PendingInvocation, ready: &mut Vec<Ready>) {
        match pending.sink {
            ReplySink::Remote { inv_id, reply_to } => self.route(
                inv_id,
                pending.presented,
                pending.operation,
                pending.args,
                reply_to,
                self.inner.config.hop_limit,
                pending.trace,
                ready,
            ),
            ReplySink::Local(waiter) => waiter.complete(None),
        }
    }

    /// Drains the coordinator queue for good, keeping the queue-depth
    /// gauge true: the slot has left the object table, so the
    /// coordinator retires and later enqueues bounce.
    pub(super) fn drain_queue(&self, coord: &mut CoordState) -> Vec<PendingInvocation> {
        coord.retired = true;
        let queued: Vec<PendingInvocation> = coord.queue.drain(..).collect();
        let depth = &self.inner.invoke_metrics.queue_depth;
        depth.add(-(queued.len() as i64));
        queued
    }

    /// Answers every invocation `queued` with `status`.
    pub(super) fn refuse(&self, queued: Vec<PendingInvocation>, status: Status) {
        for pending in queued {
            let trace = pending.trace;
            self.send_reply(pending.sink, status.clone(), Vec::new(), trace);
        }
    }

    /// Drives `slot`'s coordinator: applies `f` to its state and pumps
    /// it under the coordinator lock, appending the invocations that
    /// became ready to `ready`; then, with the lock released, carries
    /// out a teardown the pump found due.
    fn coordinate<R>(
        &self,
        slot: &Arc<ObjectSlot>,
        ready: &mut Vec<Ready>,
        f: impl FnOnce(&mut CoordState) -> R,
    ) -> R {
        let mut coord = slot.coord.lock();
        let r = f(&mut coord);
        let teardown = self.pump(slot, &mut coord, ready);
        drop(coord);
        match teardown {
            Some(Teardown::Crash) => self.finish_crash(slot),
            Some(Teardown::Destroy) => self.finish_destroy(slot),
            None => {}
        }
        r
    }

    /// [`coordinate`](Self::coordinate), then dispatches what became
    /// ready.
    pub(super) fn pump_with<R>(
        &self,
        slot: &Arc<ObjectSlot>,
        f: impl FnOnce(&mut CoordState) -> R,
    ) -> R {
        let mut ready = Vec::new();
        let r = self.coordinate(slot, &mut ready, f);
        self.dispatch(ready);
        r
    }

    /// The coordinator's dispatch rule (§4.2), run under the coordinator
    /// lock: moves each queued invocation whose class has spare capacity
    /// to running and appends it to `ready`. Once nothing runs, a
    /// requested crash or destroy is reported due and a requested move
    /// starts instead.
    fn pump(
        &self,
        slot: &Arc<ObjectSlot>,
        coord: &mut CoordState,
        ready: &mut Vec<Ready>,
    ) -> Option<Teardown> {
        if coord.status != ObjStatus::Active {
            return None;
        }
        if coord.crash_requested || coord.destroy_requested {
            if coord.running > 0 {
                return None;
            }
            coord.status = ObjStatus::Crashed;
            return Some(if coord.crash_requested {
                Teardown::Crash
            } else {
                Teardown::Destroy
            });
        }
        if let Some(dst) = coord.pending_move {
            if coord.running == 0 {
                coord.status = ObjStatus::Moving;
                coord.pending_move = None;
                let node = self.clone();
                let task_slot = slot.clone();
                if self
                    .inner
                    .vprocs
                    .submit(move || node.start_move(task_slot, dst))
                    .is_err()
                {
                    // Pool saturated (or shutting down): resume in place;
                    // a later pump retries the move.
                    coord.status = ObjStatus::Active;
                    coord.pending_move = Some(dst);
                }
            }
            return None; // No dispatch while a move is pending.
        }
        let mut i = 0;
        while i < coord.queue.len() && coord.running < self.inner.config.max_processes_per_object {
            let next = &coord.queue[i].resolved;
            let in_service = coord.class_in_service.get(&next.op.class).map_or(0, |n| *n);
            if in_service >= next.limit {
                i += 1;
                continue;
            }
            let mut pending = coord.queue.remove(i).expect("index in bounds");
            let class = &pending.resolved.op.class;
            coord.running += 1;
            self.inner.invoke_metrics.queue_depth.dec();
            pending.in_service.inc();
            *coord.class_in_service.entry(class.clone()).or_insert(0) += 1;
            // Close the coordinator-residency gap retroactively:
            // `dispatch` covers enqueue → this dispatch decision. The
            // invocation's remaining spans (the pool's `vproc-wait`, then
            // `execute`) parent on it, so the three intervals tile the
            // queue time without overlap.
            let enqueue_ns = pending.enqueue_ns;
            pending.trace = pending.trace.map(|t| {
                self.inner.obs.record_span_staged(
                    "dispatch",
                    stage::DISPATCH,
                    t,
                    enqueue_ns,
                    now_ns(),
                )
            });
            ready.push((slot.clone(), pending));
        }
        None
    }

    /// Submits invocations `pump` moved to running as one pool batch:
    /// one pool lock and one wakeup however many there are. A dispatch
    /// the pool refuses is shed with `Overloaded` and released like a
    /// finished invocation, which may ready the next one.
    pub(super) fn dispatch(&self, mut ready: Vec<Ready>) {
        while !ready.is_empty() {
            let mut shed = Vec::with_capacity(ready.len());
            let mut tasks: Vec<BatchTask> = Vec::with_capacity(ready.len());
            for (slot, pending) in ready.drain(..) {
                let class = pending.resolved.op.class.clone();
                let sink = pending.sink.clone();
                shed.push((
                    slot.clone(),
                    class,
                    pending.in_service.clone(),
                    sink,
                    pending.trace,
                ));
                let node = self.clone();
                let trace = pending.trace;
                tasks.push((Box::new(move || node.run_invocation(slot, pending)), trace));
            }
            let verdicts = self.inner.vprocs.submit_batch(tasks);
            for (verdict, (slot, class, in_service, sink, trace)) in verdicts.into_iter().zip(shed)
            {
                if verdict.is_ok() {
                    self.inner.metrics.bump_process();
                } else {
                    self.send_reply(sink, Status::Overloaded, Vec::new(), trace);
                    self.release(&slot, &class, &in_service, &mut ready);
                }
            }
        }
    }

    /// Releases one running invocation of `class` — finished, or refused
    /// by the pool — and pumps the coordinator: the next dispatches go
    /// to `ready`, and once nothing runs a requested crash or destroy
    /// completes (or a requested move starts).
    fn release(
        &self,
        slot: &Arc<ObjectSlot>,
        class: &str,
        in_service: &Gauge,
        ready: &mut Vec<Ready>,
    ) {
        self.coordinate(slot, ready, |coord| {
            coord.running -= 1;
            in_service.dec();
            if let Some(n) = coord.class_in_service.get_mut(class) {
                *n -= 1;
                if *n == 0 {
                    coord.class_in_service.remove(class);
                }
            }
        });
    }

    /// Runs a ready invocation on the calling thread, which `cpu` lends
    /// a processor until the invocation is done.
    pub(super) fn run_lent(&self, cpu: Lent, slot: Arc<ObjectSlot>, pending: PendingInvocation) {
        self.inner.metrics.bump_process();
        self.run_invocation(slot, pending);
        drop(cpu);
    }

    /// The body of one invocation process.
    fn run_invocation(&self, slot: Arc<ObjectSlot>, pending: PendingInvocation) {
        // `pending.trace` was rewritten at dispatch (see `pump`) to the
        // `dispatch` span's context; queue residency in the pool was
        // already recorded by the pool itself as `vproc-wait`. All that
        // remains here is timing the execution.
        let obs = &self.inner.obs;
        let exec_span = pending
            .trace
            .map(|t| obs.child_span_staged("execute", stage::EXECUTE, t));
        let exec_start = now_ns();
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let ctx = OpCtx::new(
                self,
                &slot,
                pending.presented,
                pending.caller,
                pending.operation.clone(),
            );
            pending
                .resolved
                .manager
                .dispatch(&ctx, &pending.operation, &pending.args)
        }));
        let elapsed = now_ns().saturating_sub(exec_start);
        self.inner.invoke_metrics.execute.record(elapsed);
        let exec_ctx = exec_span.map(|s| {
            let c = s.ctx();
            s.finish();
            c
        });

        let (status, results) = match outcome {
            Ok(Ok(values)) => (Status::Ok, values),
            Ok(Err(e)) => (e.into_status(), Vec::new()),
            Err(_) => (
                Status::AppError {
                    code: -3,
                    message: format!("operation '{}' panicked", pending.operation),
                },
                Vec::new(),
            ),
        };
        self.send_reply(pending.sink, status, results, exec_ctx);
        let mut ready = Vec::new();
        self.release(
            &slot,
            &pending.resolved.op.class,
            &pending.in_service,
            &mut ready,
        );
        self.dispatch(ready);
    }

    pub(super) fn send_reply(
        &self,
        sink: ReplySink,
        status: Status,
        results: Vec<Value>,
        trace: Option<TraceCtx>,
    ) {
        match sink {
            ReplySink::Local(waiter) => waiter.complete(Some((status, results))),
            ReplySink::Remote { inv_id, reply_to } => {
                self.inner.served.lock().record_done(
                    (reply_to, inv_id),
                    status.clone(),
                    results.clone(),
                );
                let reply = Message::InvokeReply {
                    inv_id,
                    status,
                    results,
                };
                let _ = self.inner.endpoint.send(self.frame(reply_to, reply, trace));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testing::cluster;
    use super::*;
    use crate::node::NodeConfig;

    #[test]
    fn a_crash_requested_before_a_refused_dispatch_completes() {
        let cluster = cluster(
            1,
            NodeConfig {
                virtual_processors: 1,
                vproc_queue_cap: 1,
                ..NodeConfig::default()
            },
        );
        let node = cluster.node(0);
        let cap = node.create_object("plain", &[]).unwrap();
        node.invoke(cap, "checkpoint", &[]).unwrap();
        let slot = node.inner.objects.read().get(&cap.name()).cloned().unwrap();

        // Wedge the one worker, then fill the one queue slot.
        let gate = Arc::new(Waiter::<()>::new());
        let wedge = gate.clone();
        node.inner
            .vprocs
            .submit(move || {
                wedge.wait(Duration::from_secs(10));
            })
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while node.vproc_stats().queued > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        node.inner.vprocs.submit(|| {}).unwrap();

        // Pump one invocation to running, then request the crash before
        // its dispatch reaches the pool: the window a receive batch
        // leaves open between `pump` and `dispatch`.
        let waiter = Arc::new(Waiter::new());
        let sink = ReplySink::Local(waiter.clone());
        let pending = node.validate(&slot, cap, "work", &[], sink, None).unwrap();
        let mut ready = Vec::new();
        node.enqueue(&slot, pending, &mut ready);
        assert_eq!(ready.len(), 1);
        node.request_crash(&slot);
        assert!(node.is_local(cap.name()), "the crash waits for it to end");

        // The pool refuses the dispatch: the invocation is shed, and its
        // release finds nothing running, so the crash completes.
        node.dispatch(ready);
        assert_eq!(
            waiter.try_take(),
            Some(Some((Status::Overloaded, Vec::new())))
        );
        assert!(!node.is_local(cap.name()));
        assert_eq!(node.metrics().crashes, 1);

        gate.complete(());
        while node.vproc_stats().queued > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(node.invoke(cap, "work", &[]), Ok(vec![]));
        cluster.shutdown();
    }
}
