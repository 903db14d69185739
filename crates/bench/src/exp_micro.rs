//! Micro — the per-operation cost of the substrate under every
//! invocation: the wire codec, the CRC behind the checkpoint store, and
//! the observability primitives the kernel records on its hot paths.
//!
//! Each case runs a fixed number of iterations per batch through
//! [`black_box`], and the table reports the median batch. Expected
//! shape: every obs primitive costs tens of nanoseconds or less, so the
//! kernel can record every invocation; the untraced queue span is a
//! branch. The `< 1 µs` bar on that branch is a unit test in `eden-obs`.

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use eden_capability::{Capability, NameGenerator, NodeId};
use eden_obs::trace::stage;
use eden_obs::{now_ns, Histogram, KernelEvent, ObsRegistry, TraceCtx, TraceSampling};
use eden_store::crc::crc32;
use eden_wire::{Frame, Message, Value, WireDecode, WireEncode};

use crate::table::Table;

/// Batches per case; the table reports the median.
const BATCHES: usize = 5;
/// Iterations per batch of a case without a byte size.
const OBS_ITERS: u32 = 1 << 18;
/// Bytes processed per batch of a sized case, so every size takes
/// about as long.
const BATCH_BYTES: usize = 8 << 20;

/// Median nanoseconds per call of `f` over [`BATCHES`] batches of
/// `iters` calls each.
fn ns_per_op<R>(iters: u32, mut f: impl FnMut() -> R) -> f64 {
    let mut batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            start.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[BATCHES / 2]
}

/// Times one case and appends its row; a case with a byte size also
/// reports MB/s.
fn case<R>(t: &mut Table, name: &str, bytes: Option<usize>, f: impl FnMut() -> R) {
    let iters = bytes.map_or(OBS_ITERS, |b| (BATCH_BYTES / b).max(1) as u32);
    let ns = ns_per_op(iters, f);
    let (size, rate) = match bytes {
        Some(b) => (b.to_string(), format!("{:.0}", b as f64 * 1e3 / ns)),
        None => ("-".into(), "-".into()),
    };
    t.row(vec![name.into(), size, format!("{ns:.1}"), rate]);
}

/// An invocation request frame carrying a `payload`-byte blob.
fn sample_frame(payload: usize) -> Frame {
    let g = NameGenerator::with_epoch(NodeId(1), 1);
    Frame::to(
        NodeId(0),
        NodeId(1),
        Message::InvokeRequest {
            inv_id: 42,
            target: Capability::mint(g.next_name()),
            operation: "put".into(),
            args: vec![Value::Blob(Bytes::from(vec![0u8; payload]))],
            reply_to: NodeId(0),
            hops: 8,
        },
    )
}

/// Runs the micro experiment and returns the table.
pub fn run() -> Table {
    let mut t = Table::new(
        format!("Micro — substrate cost per operation (median of {BATCHES} batches)"),
        &["case", "bytes", "ns/op", "MB/s"],
    );

    for payload in [64usize, 1 << 10, 16 << 10] {
        let frame = sample_frame(payload);
        let encoded = frame.encode_to_bytes();
        let bytes = Some(encoded.len());
        case(
            &mut t,
            &format!("frame encode, {payload} B blob"),
            bytes,
            || frame.encode_to_bytes(),
        );
        case(
            &mut t,
            &format!("frame decode, {payload} B blob"),
            bytes,
            || Frame::decode_from_bytes(&encoded).expect("decode"),
        );
    }

    // 256 B, 4 KiB and 64 KiB are the object sizes `mesh_mixed` checkpoints.
    for size in [256usize, 1 << 10, 4 << 10, 64 << 10, 1 << 20] {
        let data = vec![0x5Au8; size];
        case(&mut t, "crc32", Some(size), || crc32(&data));
    }

    let hist = Histogram::new();
    let mut v = 1u64;
    case(&mut t, "obs histogram record", None, || {
        v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
        hist.record(v >> 40);
    });
    let obs = ObsRegistry::new(0);
    let counter = obs.counter("micro.counter");
    case(&mut t, "obs counter inc", None, || counter.inc());
    let gauge = obs.gauge("micro.gauge");
    case(&mut t, "obs gauge inc + dec", None, || {
        gauge.inc();
        gauge.dec();
    });
    case(&mut t, "obs span open + close", None, || {
        obs.root_span("micro").finish()
    });
    // What an invocation pays when the sampling policy rejects it.
    let sampled_out = ObsRegistry::new(0);
    sampled_out.set_sampling(TraceSampling::Ratio(0));
    case(&mut t, "obs span, sampled out", None, || {
        sampled_out.sampled_root_span("micro", "op")
    });
    // The retroactive queue-residency span the vproc pool and the
    // transport writer record at dequeue, traced and untraced.
    let root = obs.root_span("micro");
    let parent = root.ctx();
    let start = now_ns();
    let queue_span = |trace: Option<TraceCtx>| {
        trace.map(|ctx| {
            obs.record_span_staged("vproc-wait", stage::VPROC_QUEUE, ctx, start, now_ns())
        })
    };
    case(&mut t, "obs queue span, traced", None, || {
        queue_span(black_box(Some(parent)))
    });
    case(&mut t, "obs queue span, untraced", None, || {
        queue_span(black_box(None))
    });
    root.finish();
    case(&mut t, "obs flight recorder record", None, || {
        obs.recorder()
            .record(KernelEvent::Retransmit { inv_id: 7, dst: 1 })
    });
    case(&mut t, "obs now_ns", None, now_ns);

    t.note("frame bytes are the encoded frame; MB/s = bytes / ns/op");
    t.note("expected shape: obs primitives cost tens of ns or less; the untraced queue span is one branch; crc32 MB/s flattens above 4 KiB");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_per_op_runs_every_batch() {
        let mut calls = 0u32;
        let ns = ns_per_op(10, || calls += 1);
        assert_eq!(calls, 10 * BATCHES as u32);
        assert!(ns >= 0.0);
    }
}
