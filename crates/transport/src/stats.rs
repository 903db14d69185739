//! Transport counters.
//!
//! The frozen-object experiment (E4) measures its win as *remote messages
//! avoided*, so every transport counts frames and payload bytes in each
//! direction. The counters are declared once with [`eden_obs::metrics!`],
//! the kernel's counter system: each endpoint counts into a
//! [`TransportCounters`] cell from construction, `attach_obs` publishes
//! it in the node's registry as `transport.<field>` (counts made before
//! attach included), and [`TransportStats`] is its snapshot.

eden_obs::metrics! {
    /// A point-in-time snapshot of one endpoint's traffic.
    pub struct TransportStats;
    /// One endpoint's traffic counters, registered as `transport.<field>`.
    pub struct TransportCounters => "transport";
    counters {
        /// Frames passed to `send`.
        frames_sent,
        /// Frames delivered to `recv`.
        frames_received,
        /// Encoded payload bytes sent.
        bytes_sent,
        /// Encoded payload bytes received.
        bytes_received,
        /// Frames dropped: loss model, partition, dead peer, failed write,
        /// or shed at a full send queue.
        frames_dropped,
        /// Of `frames_dropped`, frames shed because a per-peer send queue
        /// was full (TCP pipeline backpressure).
        frames_shed,
        /// Coalesced write batches issued (TCP pipeline; one syscall each).
        batches_sent,
        /// Background dial attempts (TCP pipeline).
        dials,
        /// Of `dials`, attempts that failed and went into backoff.
        dial_failures,
        /// Inbound connections dropped for protocol violations (oversized
        /// length prefix, undecodable frame). TCP transport only.
        inbound_dropped,
    }
    levels {
        /// Frames sitting in per-peer send queues at snapshot time
        /// (instantaneous level, not a counter; zero for non-queueing
        /// transports).
        queue_depth,
    }
}

impl TransportCounters {
    /// Counts an outbound frame of `bytes` payload bytes.
    pub(crate) fn sent(&self, bytes: usize) {
        self.frames_sent.inc();
        self.bytes_sent.add(bytes as u64);
    }

    /// Counts an inbound frame of `bytes` payload bytes.
    pub(crate) fn received(&self, bytes: usize) {
        self.frames_received.inc();
        self.bytes_received.add(bytes as u64);
    }

    /// Counts a frame shed at a full send queue, which is also a drop.
    pub(crate) fn shed(&self) {
        self.frames_shed.inc();
        self.frames_dropped.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eden_obs::ObsRegistry;

    #[test]
    fn counters_accumulate() {
        let c = TransportCounters::default();
        c.sent(100);
        c.sent(50);
        c.received(10);
        c.frames_dropped.inc();
        let s = c.snapshot();
        assert_eq!(s.frames_sent, 2);
        assert_eq!(s.bytes_sent, 150);
        assert_eq!(s.frames_received, 1);
        assert_eq!(s.bytes_received, 10);
        assert_eq!(s.frames_dropped, 1);
    }

    #[test]
    fn pipeline_counters_accumulate() {
        let c = TransportCounters::default();
        c.shed();
        c.batches_sent.inc();
        c.frames_dropped.add(3);
        let s = c.snapshot();
        assert_eq!(s.frames_shed, 1);
        assert_eq!(s.frames_dropped, 4); // 1 shed + 3 write-failure drops
        assert_eq!(s.batches_sent, 1);
    }

    #[test]
    fn delta_measures_an_interval() {
        let c = TransportCounters::default();
        c.sent(10);
        let before = c.snapshot();
        c.sent(20);
        c.sent(30);
        let mut after = c.snapshot();
        after.queue_depth = 7;
        let d = after.delta(&before);
        assert_eq!(d.frames_sent, 2);
        assert_eq!(d.bytes_sent, 50);
        // A level carries through; a counter that went backwards (an
        // endpoint replaced mid-interval) saturates at zero.
        assert_eq!(d.queue_depth, 7);
        assert_eq!(before.delta(&after).frames_sent, 0);
    }

    #[test]
    fn registration_publishes_counts_made_before_it() {
        let c = TransportCounters::default();
        c.sent(8);
        let obs = ObsRegistry::new(1);
        c.register(&obs);
        c.sent(8);
        let counters = obs.counters_snapshot();
        assert_eq!(counters["transport.frames_sent"], 2);
        assert_eq!(counters["transport.bytes_sent"], 16);
    }
}
