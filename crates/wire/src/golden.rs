//! Golden bytes: one fixed encoding for every variant of every wire enum.
//!
//! The codec's byte layout is a protocol between kernels, so a change to
//! how any variant encodes is a wire break even when every round-trip
//! test still passes. Each table below pins the exact bytes (as hex) and
//! the kind name of one value per variant, and checks that those bytes
//! decode back to the same value through both decoders.

use std::collections::BTreeMap;
use std::fmt::Debug;

use bytes::Bytes;
use eden_capability::{Capability, NodeId, ObjName, Rights};
use eden_obs::TraceCtx;

use crate::codec::{WireDecode, WireEncode};
use crate::message::tests::sample_messages;
use crate::message::{DirRegisterKind, DirState, Frame, HeldState, MemberStatus, Message};
use crate::status::Status;
use crate::value::Value;

fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn from_hex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}

/// Checks `value` against its pinned encoding: the encoder produces
/// exactly `hex`, and both decoders read `hex` back to `value`.
fn check<T: WireEncode + WireDecode + PartialEq + Debug>(value: &T, hex: &str) {
    assert_eq!(
        to_hex(&value.encode_to_bytes()),
        hex,
        "encoding of {value:?}"
    );
    let bytes = Bytes::from(from_hex(hex));
    assert_eq!(&T::decode_from_bytes(&bytes).unwrap(), value);
    assert_eq!(&T::decode_shared(&bytes).unwrap(), value);
}

/// Checks a pinned table whose rows are `(kind name, hex)`, and that the
/// kind names are pairwise distinct.
fn check_table<T: WireEncode + WireDecode + PartialEq + Debug>(
    values: &[T],
    kind: impl Fn(&T) -> &'static str,
    table: &[(&str, &str)],
) {
    assert_eq!(values.len(), table.len());
    for (value, (name, hex)) in values.iter().zip(table) {
        assert_eq!(kind(value), *name, "kind name of {value:?}");
        check(value, hex);
    }
    let names: std::collections::HashSet<_> = values.iter().map(kind).collect();
    assert_eq!(names.len(), values.len(), "kind names must be distinct");
}

const MESSAGES: [(&str, &str); 21] = [
    ("invoke-request", "00010000000000000000000000000000000b000000030000000300000003000000707574010000000512000000746869732069732061206e6577206c696e65000004"),
    ("invoke-reply", "0101000000000000000001000000031100000000000000"),
    ("where-is", "02020000000000000000000000000000000b000000030000000100"),
    ("here-is", "03020000000000000000000000000000000b0000000300000002"),
    ("move-transfer", "04030000000000000000000000000000000b000000030000000400000066696c6500000000000000000000000000000000000200"),
    ("move-ack", "050300000000000000000c000000756e6b6e6f776e2074797065"),
    ("replica-request", "06040000000000000000000000000000000b000000030000000300"),
    ("replica-push", "07040000000000000000000000000000000b000000030000000104000000646963740000000000000000000000000000000000"),
    ("checkpoint-put", "08050000000000000000000000000000000b00000003000000070000006d61696c626f7800000000000000000000000000000000000400"),
    ("checkpoint-ack", "090500000000000000010c00000000000000"),
    ("checkpoint-fetch", "0a060000000000000000000000000000000b000000030000000500"),
    ("checkpoint-data", "0b060000000000000000000000000000000b0000000300000000"),
    ("checkpoint-delete", "0e080000000000000000000000000000000b000000030000000600"),
    ("ping", "0c0700000000000000"),
    ("pong", "0d0700000000000000"),
    ("gossip-ping", "0f09000000000000000200010000000400030000000000000001"),
    ("gossip-ack", "1009000000000000000200000004000400000000000000000100000000000000000002"),
    ("gossip-ping-req", "110a000000000000000400000000000000"),
    ("dir-register", "1200000000000000000b00000003000000050000"),
    ("dir-query", "130b0000000000000000000000000000000b000000030000000600"),
    ("dir-answer", "140b0000000000000000000000000000000b0000000300000001050000"),
];

#[test]
fn every_message_variant_has_pinned_bytes() {
    check_table(&sample_messages(), Message::label, &MESSAGES);
}

fn sample_statuses() -> Vec<Status> {
    vec![
        Status::Ok,
        Status::NoSuchObject,
        Status::NoSuchOperation("put".into()),
        Status::RightsViolation {
            required: Rights::READ | Rights::WRITE,
            held: Rights::READ,
        },
        Status::Timeout,
        Status::ObjectCrashed,
        Status::Frozen,
        Status::TypeError("want u64".into()),
        Status::NodeUnreachable,
        Status::Destroyed,
        Status::AppError {
            code: -2,
            message: "full".into(),
        },
        Status::Overloaded,
    ]
}

const STATUSES: [(&str, &str); 12] = [
    ("ok", "00"),
    ("no-such-object", "01"),
    ("no-such-operation", "0203000000707574"),
    ("rights-violation", "030300000001000000"),
    ("timeout", "04"),
    ("object-crashed", "05"),
    ("frozen", "06"),
    ("type-error", "070800000077616e7420753634"),
    ("node-unreachable", "08"),
    ("destroyed", "09"),
    ("app-error", "0afeffffff0400000066756c6c"),
    ("overloaded", "0b"),
];

#[test]
fn every_status_variant_has_pinned_bytes() {
    check_table(&sample_statuses(), Status::label, &STATUSES);
}

fn sample_values() -> Vec<Value> {
    let name = ObjName::from_parts(NodeId(3), 11, 1);
    vec![
        Value::Unit,
        Value::Bool(true),
        Value::I64(-2),
        Value::U64(17),
        Value::F64(1.5),
        Value::Str("hi".into()),
        Value::Blob(Bytes::from_static(&[1, 2, 3])),
        Value::List(vec![Value::U64(1), Value::Unit]),
        Value::Map(BTreeMap::from([
            ("a".to_string(), Value::Bool(false)),
            ("b".to_string(), Value::Str("x".into())),
        ])),
        Value::Cap(Capability::with_rights(name, Rights::READ)),
    ]
}

const VALUES: [(&str, &str); 10] = [
    ("unit", "00"),
    ("bool", "0101"),
    ("i64", "02feffffffffffffff"),
    ("u64", "031100000000000000"),
    ("f64", "04000000000000f83f"),
    ("str", "05020000006869"),
    ("blob", "0603000000010203"),
    ("list", "070200000003010000000000000000"),
    ("map", "0802000000010000006101000100000062050100000078"),
    ("cap", "0901000000000000000b0000000300000001000000"),
];

#[test]
fn every_value_variant_has_pinned_bytes() {
    check_table(&sample_values(), Value::type_name, &VALUES);
}

#[test]
fn every_one_byte_enum_value_has_pinned_bytes() {
    use DirRegisterKind as K;
    for (value, hex) in [
        (HeldState::Active, "00"),
        (HeldState::Passive, "01"),
        (HeldState::FrozenReplica, "02"),
        (HeldState::NotHeld, "03"),
    ] {
        check(&value, hex);
    }
    check_table(
        &[
            MemberStatus::Alive,
            MemberStatus::Suspect,
            MemberStatus::Dead,
        ],
        MemberStatus::label,
        &[("alive", "00"), ("suspect", "01"), ("dead", "02")],
    );
    for (value, hex) in [
        (DirState::Hit, "00"),
        (DirState::Miss, "01"),
        (DirState::Suspect, "02"),
    ] {
        check(&value, hex);
    }
    for (value, hex) in [(K::Active, "00"), (K::Checkpoint, "01"), (K::Drop, "02")] {
        check(&value, hex);
    }
}

#[test]
fn frames_have_pinned_bytes() {
    let traced = Frame::to(NodeId(8), NodeId(9), Message::Ping { token: 7 }).with_trace(TraceCtx {
        trace_id: 1,
        parent_span: 2,
        span_id: 3,
    });
    check(
        &traced,
        "08000009000c070000000000000001010000000000000002000000000000000300000000000000",
    );
    check(
        &Frame::broadcast(NodeId(1), Message::Pong { token: 2 }),
        "0100010d020000000000000000",
    );
}
