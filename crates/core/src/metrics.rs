//! Kernel event counters.
//!
//! Every mechanism under measurement in EXPERIMENTS.md increments a
//! counter here, so experiments can assert *mechanism* effects (e.g.
//! "after caching the frozen replica, remote invocations stop") rather
//! than inferring them from timing alone.
//!
//! [`MetricsCell`] holds the counters as handles registered in the
//! node's [`ObsRegistry`] under `kernel.<name>`,
//! so the same numbers surface through the registry's snapshot (and the
//! shell's `metrics` command) and through the typed [`KernelMetrics`]
//! snapshot. Both come from one [`eden_obs::metrics!`] declaration, the
//! same one the transport's counters use. `InvokeMetrics` holds the same
//! kind of handles for the gauges and histograms every invocation
//! updates.

use std::collections::HashMap;
use std::sync::Arc;

use eden_obs::{Gauge, Histogram, ObsRegistry};
use parking_lot::RwLock;

eden_obs::metrics! {
    /// A point-in-time snapshot of one node's kernel counters.
    pub struct KernelMetrics;
    /// Shared counter cell; the counters live in the node's
    /// observability registry once [`MetricsCell::new`] registers them.
    pub struct MetricsCell => "kernel";
    counters {
        /// Invocations executed against local objects (including replicas).
        local_invocations => bump_local,
        /// Invocations sent to another node.
        remote_invocations_sent => bump_remote_sent,
        /// Invocation requests received from other nodes.
        remote_invocations_served => bump_remote_served,
        /// Requests forwarded along a post-move forwarding address.
        forwards => bump_forward,
        /// Broadcast `WhereIs` queries issued.
        location_broadcasts => bump_broadcast,
        /// Location answers served from the hint cache.
        location_cache_hits => bump_cache_hit,
        /// Reincarnations performed (§4.2/§4.4).
        reincarnations => bump_reincarnation,
        /// Checkpoints written (locally or to a remote checksite).
        checkpoints => bump_checkpoint,
        /// Objects crashed via the crash primitive.
        crashes => bump_crash,
        /// Objects moved away from this node.
        moves_out => bump_move_out,
        /// Objects installed by an inbound move.
        moves_in => bump_move_in,
        /// Frozen replicas cached on this node.
        replicas_cached => bump_replica,
        /// Invocations that returned `Status::Timeout`.
        timeouts => bump_timeout,
        /// Invocations rejected for insufficient rights.
        rights_violations => bump_rights_violation,
        /// Invocation processes spawned (the paper's per-invocation
        /// processes).
        invocation_processes => bump_process,
        /// Invocations that waited in a class queue before dispatch.
        class_queued => bump_class_queued,
        /// Locate queries sent to an object's directory home node.
        directory_queries => bump_dir_query,
        /// Directory answers that named a usable holder.
        directory_hits => bump_dir_hit,
        /// Holder registrations sent to (or applied at) a home node.
        directory_registrations => bump_dir_register,
        /// Directory queries answered from the local shard.
        directory_answers_served => bump_dir_served,
        /// Peers this node's gossip declared dead.
        gossip_deaths => bump_gossip_dead,
        /// Location hints evicted by the cache's LRU cap.
        location_cache_evictions => bump_cache_eviction,
    }
}

impl MetricsCell {
    /// Builds the cell over `obs`, registering each counter as
    /// `kernel.<field>`.
    pub(crate) fn new(obs: &ObsRegistry) -> Self {
        let cell = MetricsCell::default();
        cell.register(obs);
        cell
    }
}

/// Handles on the metrics every invocation updates, resolved once at
/// boot (per class on the class's first invocation here), so an update
/// costs one atomic instead of a registry lookup.
pub(crate) struct InvokeMetrics {
    /// `coord.queue_depth`: invocations queued at coordinators.
    pub(crate) queue_depth: Arc<Gauge>,
    /// `invoke.local`: local invocation latency.
    pub(crate) local: Arc<Histogram>,
    /// `invoke.remote`: remote request/reply exchange latency.
    pub(crate) remote: Arc<Histogram>,
    /// `invoke.execute`: operation execution time.
    pub(crate) execute: Arc<Histogram>,
    /// `class.in_service.<class>`, by class name.
    in_service: RwLock<HashMap<String, Arc<Gauge>>>,
}

impl InvokeMetrics {
    pub(crate) fn new(obs: &ObsRegistry) -> Self {
        InvokeMetrics {
            queue_depth: obs.gauge("coord.queue_depth"),
            local: obs.histogram("invoke.local"),
            remote: obs.histogram("invoke.remote"),
            execute: obs.histogram("invoke.execute"),
            in_service: RwLock::new(HashMap::new()),
        }
    }

    /// The in-service gauge of `class`, registered on first use.
    pub(crate) fn in_service(&self, obs: &ObsRegistry, class: &str) -> Arc<Gauge> {
        if let Some(gauge) = self.in_service.read().get(class) {
            return gauge.clone();
        }
        self.in_service
            .write()
            .entry(class.to_string())
            .or_insert_with(|| obs.gauge(&format!("class.in_service.{class}")))
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bumps_show_in_snapshot() {
        let m = MetricsCell::default();
        m.bump_local();
        m.bump_local();
        m.bump_reincarnation();
        let s = m.snapshot();
        assert_eq!(s.local_invocations, 2);
        assert_eq!(s.reincarnations, 1);
        assert_eq!(s.remote_invocations_sent, 0);
    }

    #[test]
    fn delta_isolates_an_interval() {
        let m = MetricsCell::default();
        m.bump_checkpoint();
        let before = m.snapshot();
        m.bump_checkpoint();
        m.bump_checkpoint();
        let d = m.snapshot().delta(&before);
        assert_eq!(d.checkpoints, 2);
    }

    #[test]
    fn registry_backed_counters_share_state() {
        let obs = ObsRegistry::new(7);
        let m = MetricsCell::new(&obs);
        m.bump_broadcast();
        m.bump_broadcast();
        assert_eq!(m.snapshot().location_broadcasts, 2);
        assert_eq!(
            obs.counters_snapshot()["kernel.location_broadcasts"],
            2,
            "facade and registry must observe the same counter"
        );
    }

    #[test]
    fn a_class_gauge_is_registered_once_and_shared() {
        let obs = ObsRegistry::new(7);
        let m = InvokeMetrics::new(&obs);
        let a = m.in_service(&obs, "reads");
        let b = m.in_service(&obs, "reads");
        assert!(Arc::ptr_eq(&a, &b));
        a.inc();
        assert_eq!(obs.gauges_snapshot()["class.in_service.reads"], 1);
    }
}
