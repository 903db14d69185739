//! The stall watchdog: one `eden-watchdog-<id>` thread per node that
//! probes where an invocation can silently wedge and reports what it
//! finds to the flight recorder.

use std::collections::HashMap;
use std::sync::atomic::Ordering;

use eden_obs::{now_ns, KernelEvent};

use super::{Node, RECEIVERS};

impl Node {
    /// The body of the `eden-watchdog-<id>` thread: every
    /// [`NodeConfig::watchdog_interval`](super::NodeConfig::watchdog_interval)
    /// it probes the three places an invocation can silently wedge — the
    /// virtual-processor pool (a busy worker or an un-dequeued
    /// head-of-queue task past the stall deadline), the transport's
    /// per-peer writer queues (non-draining past the same deadline), and
    /// the in-flight remote invocations (older than the slow-invocation
    /// budget). Each finding becomes a typed flight-recorder event plus
    /// a bump of `watchdog.stalls`, and the batch is rendered into a
    /// diagnostic snapshot scrapeable via the node object's
    /// `get_watchdog` operation.
    pub(super) fn watchdog_loop(&self) {
        let interval = self.inner.config.watchdog_interval;
        let deadline_ns = self.inner.config.watchdog_stall_deadline.as_nanos() as u64;
        let budget_ns = self.inner.config.slow_invocation_budget.as_nanos() as u64;
        // Per-finding report times, so a persistent stall re-reports
        // once per deadline period instead of once per probe tick.
        let mut last_report: HashMap<(u8, u64), u64> = HashMap::new();
        // Shutdown signals `halt`, so it joins this thread at once even
        // with a long probe interval.
        while !self.halt_wait(interval, |_| self.inner.shutdown.load(Ordering::Acquire)) {
            let now = now_ns();
            let mut due = |key: (u8, u64)| match last_report.get(&key) {
                Some(&t) if now.saturating_sub(t) < deadline_ns => false,
                _ => {
                    last_report.insert(key, now);
                    true
                }
            };
            let mut stalls: Vec<KernelEvent> = Vec::new();
            let probe = self.inner.vprocs.stall_probe();
            if let Some((wid, age)) = probe.busiest {
                if age >= deadline_ns && due((0, wid as u64)) {
                    stalls.push(KernelEvent::VprocStall {
                        worker: wid,
                        age_ms: age / 1_000_000,
                        queued: probe.queued as u64,
                    });
                }
            }
            if probe.oldest_wait_ns >= deadline_ns && due((1, 0)) {
                // `u16::MAX` is the reserved "no particular worker"
                // marker: the queue head itself is not being picked up.
                stalls.push(KernelEvent::VprocStall {
                    worker: u16::MAX,
                    age_ms: probe.oldest_wait_ns / 1_000_000,
                    queued: probe.queued as u64,
                });
            }
            for (dst, age, queued) in self.inner.endpoint.writer_probe() {
                if age >= deadline_ns && due((2, dst.0 as u64)) {
                    stalls.push(KernelEvent::WriterStall {
                        dst: dst.0,
                        age_ms: age / 1_000_000,
                        queued,
                    });
                }
            }
            for (inv_id, start_ns, trace) in self.in_flight_invocations() {
                let age = now.saturating_sub(start_ns);
                if age >= budget_ns && due((3, inv_id)) {
                    stalls.push(KernelEvent::SlowInvocation {
                        inv_id,
                        age_ms: age / 1_000_000,
                        trace,
                    });
                }
            }
            if stalls.is_empty() {
                continue;
            }
            let counted = self.inner.obs.counter("watchdog.stalls");
            counted.add(stalls.len() as u64);
            for e in &stalls {
                self.log_event(*e);
            }
            *self.inner.watchdog_snapshot.lock() = Some(self.watchdog_snapshot_text(&stalls));
        }
    }

    /// The remote invocations awaiting a reply, as
    /// `(inv_id, start_ns, trace_id)`.
    fn in_flight_invocations(&self) -> Vec<(u64, u64, u64)> {
        self.inner
            .pending
            .lock()
            .iter()
            .filter_map(|(&id, r)| r.invocation.map(|(start, trace)| (id, start, trace)))
            .collect()
    }

    /// Renders one watchdog finding batch plus the node state needed to
    /// interpret it: thread names, pool and writer-queue depths, the
    /// oldest in-flight invocation, the oldest retained span, and the
    /// gossip membership view.
    fn watchdog_snapshot_text(&self, stalls: &[KernelEvent]) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let id = self.inner.id;
        let _ = writeln!(s, "watchdog snapshot node={id} at_ns={}", now_ns());
        for e in stalls {
            let _ = writeln!(s, "  stall: {e}");
        }
        let v = self.inner.vprocs.stats();
        let _ = write!(s, "  threads:");
        for i in 0..RECEIVERS {
            let _ = write!(s, " eden-recv-{id}-{i}");
        }
        let _ = writeln!(s, " eden-watchdog-{id} eden-vproc-{id}-[0..{}]", v.live);
        let _ = writeln!(
            s,
            "  vprocs: queued={} live={} lent={} blocked={} executed={} rejected={}",
            v.queued, v.live, v.lent, v.blocked, v.executed, v.rejected
        );
        for (dst, age, queued) in self.inner.endpoint.writer_probe() {
            let idle_ms = age / 1_000_000;
            let _ = writeln!(
                s,
                "  writer-queue dst={dst}: {queued} frames, idle {idle_ms} ms"
            );
        }
        let inflight = self.in_flight_invocations();
        let _ = write!(s, "  inflight: {}", inflight.len());
        if let Some((inv_id, start, trace)) = inflight.iter().min_by_key(|i| i.1) {
            let age_ms = now_ns().saturating_sub(*start) / 1_000_000;
            let _ = write!(s, ", oldest inv={inv_id} age={age_ms} ms trace={trace:#x}");
        }
        let _ = writeln!(s);
        if let Some(span) = self
            .inner
            .obs
            .traces()
            .spans()
            .into_iter()
            .min_by_key(|r| r.start_ns)
        {
            let _ = writeln!(
                s,
                "  oldest-span: {} trace={:#x} start_ns={}",
                span.name, span.trace_id, span.start_ns
            );
        }
        for (node, status, incarnation) in self.membership() {
            let status = status.label();
            let _ = writeln!(
                s,
                "  member node={node} status={status} incarnation={incarnation}"
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use eden_capability::NodeId;
    use eden_wire::Status;

    use super::super::testing::cluster;
    use super::*;
    use crate::error::EdenError;
    use crate::node::NodeConfig;

    #[test]
    fn a_slow_invocation_is_reported_and_then_unregistered() {
        let cluster = cluster(
            2,
            NodeConfig {
                remote_try_timeout: Duration::from_millis(300),
                watchdog_interval: Duration::from_millis(5),
                slow_invocation_budget: Duration::from_millis(50),
                ..NodeConfig::default()
            },
        );
        let cap = cluster.node(0).create_object("plain", &[]).unwrap();
        cluster.mesh().partition(NodeId(0), NodeId(1));
        let client = cluster.node(1);
        assert_eq!(
            client.invoke_with_timeout(cap, "work", &[], Duration::from_millis(300)),
            Err(EdenError::Invoke(Status::Timeout))
        );

        let root = client
            .obs()
            .traces()
            .spans()
            .into_iter()
            .find(|s| s.name == "invoke" && s.parent_span == 0)
            .expect("the invocation's root span");
        let reported = client.obs().recorder().events().into_iter().any(|e| {
            matches!(e.event, KernelEvent::SlowInvocation { trace, .. } if trace == root.trace_id)
        });
        assert!(reported, "no slow-invocation event for the trace");
        let at_stall = client.inner.watchdog_snapshot.lock().clone().unwrap();
        assert!(at_stall.contains("inflight: 1"), "{at_stall}");
        // The reply wait unregistered the invocation.
        let now = client.watchdog_snapshot_text(&[]);
        assert!(now.contains("inflight: 0"), "{now}");
        cluster.shutdown();
    }
}
