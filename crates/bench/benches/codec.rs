//! Substrate micro-benchmarks: the wire codec and the CRC behind the
//! checkpoint store.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use eden_capability::{Capability, NameGenerator, NodeId};
use eden_store::crc::crc32;
use eden_wire::{Frame, Message, Value, WireDecode, WireEncode};

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

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_codec");
    for payload in [64usize, 1024, 16384] {
        let frame = sample_frame(payload);
        let encoded = frame.encode_to_bytes();
        group.throughput(Throughput::Bytes(encoded.len() as u64));
        group.bench_with_input(BenchmarkId::new("encode", payload), &frame, |b, f| {
            b.iter(|| f.encode_to_bytes())
        });
        group.bench_with_input(BenchmarkId::new("decode", payload), &encoded, |b, e| {
            b.iter(|| Frame::decode_from_bytes(e).expect("decode"))
        });
    }
    group.finish();
}

fn bench_crc(c: &mut Criterion) {
    let mut group = c.benchmark_group("crc32");
    // 256 B, 4 KiB and 64 KiB are the object sizes `mesh_mixed` checkpoints.
    for size in [256usize, 1 << 10, 4 << 10, 64 << 10, 1 << 20] {
        let data = vec![0x5Au8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, d| {
            b.iter(|| crc32(d))
        });
    }
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(30)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_codec, bench_crc
}
criterion_main!(benches);
