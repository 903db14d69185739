//! Lock-free log-linear latency histograms (HDR-style).
//!
//! Values (nanoseconds, but any `u64` works) land in one of ~1000
//! buckets: exact below 16, then 16 linear sub-buckets per power of two
//! above that, for ≤ 1/16 ≈ 6% relative quantile error across the full
//! 64-bit range. Recording is two relaxed `fetch_add`s plus min/max
//! maintenance — no locks, no allocation — so it is cheap enough to sit
//! on the kernel's invocation hot path.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per power of two (log-linear resolution).
const SUBBUCKET_BITS: u32 = 4;
const SUBBUCKETS: u64 = 1 << SUBBUCKET_BITS; // 16
/// Values below this are bucketed exactly.
const LINEAR_MAX: u64 = SUBBUCKETS;
/// Total bucket count: 16 exact + 16 per exponent 4..=63.
const BUCKETS: usize = LINEAR_MAX as usize + ((64 - SUBBUCKET_BITS as usize) * SUBBUCKETS as usize);

fn bucket_index(v: u64) -> usize {
    if v < LINEAR_MAX {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros(); // >= SUBBUCKET_BITS
        let sub = (v >> (exp - SUBBUCKET_BITS)) & (SUBBUCKETS - 1);
        LINEAR_MAX as usize + (exp - SUBBUCKET_BITS) as usize * SUBBUCKETS as usize + sub as usize
    }
}

/// Inclusive upper bound of the value range covered by `index` (the
/// `le` bound Prometheus exposition reports for the bucket).
fn bucket_upper(index: usize) -> u64 {
    if index < LINEAR_MAX as usize {
        index as u64
    } else {
        let rel = index - LINEAR_MAX as usize;
        let exp = SUBBUCKET_BITS + (rel / SUBBUCKETS as usize) as u32;
        let sub = (rel % SUBBUCKETS as usize) as u64;
        let lo = (1u64 << exp) | (sub << (exp - SUBBUCKET_BITS));
        let width = 1u64 << (exp - SUBBUCKET_BITS);
        lo + (width - 1)
    }
}

/// The fixed number of buckets every [`Histogram`] (and therefore every
/// [`HistogramSnapshot`]) carries. Exposed so wire codecs can rebuild a
/// dense bucket vector from a sparse encoding.
pub const fn bucket_count() -> usize {
    BUCKETS
}

/// Midpoint of the value range covered by `index` (the value quantile
/// queries report).
fn bucket_mid(index: usize) -> u64 {
    if index < LINEAR_MAX as usize {
        index as u64
    } else {
        let rel = index - LINEAR_MAX as usize;
        let exp = SUBBUCKET_BITS + (rel / SUBBUCKETS as usize) as u32;
        let sub = (rel % SUBBUCKETS as usize) as u64;
        let lo = (1u64 << exp) | (sub << (exp - SUBBUCKET_BITS));
        let width = 1u64 << (exp - SUBBUCKET_BITS);
        lo + width / 2
    }
}

/// A fixed-size, lock-free latency histogram.
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        // `AtomicU64` is not Copy; build the array from a Vec.
        let v: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; BUCKETS]> =
            v.into_boxed_slice().try_into().expect("bucket count");
        Histogram {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample. Lock-free; callable from any thread.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a `std::time::Duration` in nanoseconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Takes a consistent-enough copy for reporting (individual bucket
    /// loads are relaxed; in-flight samples may straddle the snapshot).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        write!(
            f,
            "Histogram(count={}, p50={}, p99={})",
            s.count,
            s.percentile(50.0),
            s.percentile(99.0)
        )
    }
}

/// An owned, mergeable copy of a [`Histogram`]'s state.
///
/// # Merge semantics
///
/// [`merge`](Self::merge) is a bucket-wise sum plus `count`/`sum`
/// addition and `min`/`max` folds. Every component is **commutative and
/// associative**, so folding any number of per-node snapshots of the
/// same histogram name produces an identical cluster-wide snapshot
/// regardless of the order nodes are visited (and regardless of how the
/// fold is parenthesized). Cluster aggregation therefore needs no node
/// ordering convention: `merge_snapshot_maps` can walk nodes in whatever
/// order a scrape returned them and the merged view is stable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (`u64::MAX` when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot (identity for [`merge`](Self::merge)).
    pub fn empty() -> Self {
        HistogramSnapshot {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Rebuilds a snapshot from previously extracted parts (the inverse
    /// of [`buckets`](Self::buckets) plus the public fields; used by wire
    /// codecs). `buckets` shorter than [`bucket_count`] is zero-padded;
    /// longer is truncated.
    pub fn from_parts(mut buckets: Vec<u64>, count: u64, sum: u64, min: u64, max: u64) -> Self {
        buckets.resize(BUCKETS, 0);
        HistogramSnapshot {
            buckets,
            count,
            sum,
            min,
            max,
        }
    }

    /// The per-bucket sample counts (fixed length [`bucket_count`]).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// `(upper_bound, cumulative_count)` pairs at each occupied bucket,
    /// in ascending bound order — the shape Prometheus histogram
    /// exposition (`le` buckets) wants. The final implicit `+Inf` bucket
    /// is `count` and is not included.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                cum += n;
                out.push((bucket_upper(i), cum));
            }
        }
        out
    }

    /// Folds another snapshot in (for cluster-wide aggregates).
    /// Commutative and associative — see the type-level merge semantics.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The value at percentile `p` (0–100). Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_mid(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Arithmetic mean of the samples, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// One-line summary used by the shell and experiment tables.
    pub fn summary(&self) -> String {
        if self.count == 0 {
            return "count=0".to_string();
        }
        format!(
            "count={} min={} p50={} p95={} p99={} max={} mean={:.0}",
            self.count,
            self.min,
            self.percentile(50.0),
            self.percentile(95.0),
            self.percentile(99.0),
            self.max,
            self.mean(),
        )
    }
}

/// Merges several nodes' `name → snapshot` maps into one cluster-wide
/// view. When two nodes report the same histogram name the snapshots are
/// folded with [`HistogramSnapshot::merge`]; because merge is commutative
/// and associative the result is independent of the order `maps` is
/// iterated, and the returned `BTreeMap` iterates names in a stable
/// lexicographic order.
pub fn merge_snapshot_maps<'a, I>(maps: I) -> std::collections::BTreeMap<String, HistogramSnapshot>
where
    I: IntoIterator<Item = &'a std::collections::BTreeMap<String, HistogramSnapshot>>,
{
    let mut merged = std::collections::BTreeMap::new();
    for map in maps {
        for (name, snap) in map {
            merged
                .entry(name.clone())
                .or_insert_with(HistogramSnapshot::empty)
                .merge(snap);
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exact_below_linear_max() {
        let h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 16);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 15);
        assert_eq!(s.percentile(100.0), 15);
    }

    #[test]
    fn percentiles_of_uniform_ramp_are_close() {
        let h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        for (p, expect) in [(50.0, 50_000.0), (95.0, 95_000.0), (99.0, 99_000.0)] {
            let got = s.percentile(p) as f64;
            let err = (got - expect).abs() / expect;
            assert!(err < 0.07, "p{p}: got {got}, want ~{expect} (err {err:.3})");
        }
    }

    #[test]
    fn merge_is_sum() {
        let (a, b) = (Histogram::new(), Histogram::new());
        for v in 0..1000u64 {
            a.record(v);
            b.record(v * 17);
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count, 2000);
        assert_eq!(m.max, 999 * 17);
    }

    #[test]
    fn merged_map_view_is_ordering_stable() {
        use std::collections::BTreeMap;
        let mk = |values: &[u64]| {
            let h = Histogram::new();
            for &v in values {
                h.record(v);
            }
            h.snapshot()
        };
        let mut node0 = BTreeMap::new();
        node0.insert("invoke.local".to_string(), mk(&[10, 20, 30]));
        node0.insert("store.write".to_string(), mk(&[5]));
        let mut node1 = BTreeMap::new();
        node1.insert("invoke.local".to_string(), mk(&[1000, 2000]));
        let mut node2 = BTreeMap::new();
        node2.insert("invoke.local".to_string(), mk(&[7]));

        let forward = merge_snapshot_maps([&node0, &node1, &node2]);
        let backward = merge_snapshot_maps([&node2, &node1, &node0]);
        assert_eq!(forward, backward);
        assert_eq!(forward["invoke.local"].count, 6);
        assert_eq!(forward["invoke.local"].min, 7);
        assert_eq!(forward["invoke.local"].max, 2000);
        assert_eq!(forward["store.write"].count, 1);
        // Stable name order for serializers.
        let names: Vec<&String> = forward.keys().collect();
        assert_eq!(names, vec!["invoke.local", "store.write"]);
    }

    #[test]
    fn cumulative_buckets_reach_total_count() {
        let h = Histogram::new();
        for v in [3u64, 3, 17, 40_000, 40_001] {
            h.record(v);
        }
        let s = h.snapshot();
        let cum = s.cumulative_buckets();
        assert!(!cum.is_empty());
        // Bounds ascend, counts ascend, last count is the total.
        for w in cum.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(cum.last().unwrap().1, s.count);
        // Every sample is ≤ the bound of the bucket it landed in.
        assert!(cum[0].0 >= 3);
    }

    #[test]
    fn from_parts_round_trips_buckets() {
        let h = Histogram::new();
        for v in 0..500u64 {
            h.record(v * 13);
        }
        let s = h.snapshot();
        let rebuilt =
            HistogramSnapshot::from_parts(s.buckets().to_vec(), s.count, s.sum, s.min, s.max);
        assert_eq!(rebuilt, s);
        assert_eq!(rebuilt.percentile(50.0), s.percentile(50.0));
    }

    #[test]
    fn recording_is_fast_enough() {
        // Acceptance floor: far under 1 µs per sample even unoptimized.
        let h = Histogram::new();
        let n = 200_000u64;
        let start = std::time::Instant::now();
        for v in 0..n {
            h.record(v);
        }
        let per = start.elapsed().as_nanos() as u64 / n;
        assert!(per < 1_000, "record took {per} ns/sample (budget 1 µs)");
        assert_eq!(h.snapshot().count, n);
    }

    #[test]
    fn sampled_off_queue_span_is_fast_enough() {
        // With sampling off a frame carries no TraceCtx, so the
        // queue-residency span the vproc pool and the transport writer
        // record at dequeue must cost one branch: far under 1 µs.
        use crate::trace::stage;
        use crate::{now_ns, ObsRegistry, TraceCtx};
        let obs = ObsRegistry::new(0);
        let start_ns = now_ns();
        let n = 100_000u32;
        let start = std::time::Instant::now();
        for _ in 0..n {
            let trace: Option<TraceCtx> = std::hint::black_box(None);
            if let Some(ctx) = trace {
                obs.record_span_staged("vproc-wait", stage::VPROC_QUEUE, ctx, start_ns, now_ns());
            }
        }
        let per = start.elapsed() / n;
        assert!(
            per < std::time::Duration::from_micros(1),
            "sampled-off queue span took {per:?}/event (budget 1 µs)"
        );
        assert!(obs.traces().spans().is_empty());
    }

    proptest! {
        #[test]
        fn bucket_mid_stays_in_bucket(v in 0u64..) {
            let idx = bucket_index(v);
            let mid = bucket_mid(idx);
            // The midpoint maps back to the same bucket.
            prop_assert_eq!(bucket_index(mid), idx);
            // And is within the 1/16 relative-error envelope.
            if v >= LINEAR_MAX {
                let err = (mid as f64 - v as f64).abs() / v as f64;
                prop_assert!(err <= 1.0 / 16.0 + 1e-9, "v={} mid={} err={}", v, mid, err);
            }
        }

        #[test]
        fn quantiles_bracket_the_data(mut samples in proptest::collection::vec(0u64..1_000_000, 1..512)) {
            let h = Histogram::new();
            for &s in &samples {
                h.record(s);
            }
            samples.sort_unstable();
            let snap = h.snapshot();
            prop_assert_eq!(snap.count, samples.len() as u64);
            prop_assert_eq!(snap.min, samples[0]);
            prop_assert_eq!(snap.max, *samples.last().unwrap());
            let p50 = snap.percentile(50.0);
            prop_assert!(p50 >= snap.min && p50 <= snap.max);
        }
    }
}
