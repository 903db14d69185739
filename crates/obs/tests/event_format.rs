//! Pins the exported text of every kernel event: the JSONL line that
//! `events_jsonl` writes and the one-line `Display` form the flight
//! recorder's dump prints. Round-trip tests would still pass if an
//! encoder and its decoder changed together; tools that read the
//! exported stream would not, so the exact bytes are fixed here.

use eden_obs::export::event_jsonl_line;
use eden_obs::{FlightEvent, InboundDropReason, KernelEvent};

/// `(event, JSONL line for node 3 / seq 11 / at_ns 500, Display text)`.
fn cases() -> Vec<(KernelEvent, &'static str, &'static str)> {
    let obj = 0xabcd_0000_0000_0000_0000_0000_0000_1234_u128;
    vec![
        (
            KernelEvent::Crash { obj },
            r#"{"seq":11,"at_ns":500,"node":3,"kind":"crash","obj":"0xabcd0000000000000000000000001234"}"#,
            "crash obj=0x1234",
        ),
        (
            KernelEvent::Reincarnation { obj, version: 7 },
            r#"{"seq":11,"at_ns":500,"node":3,"kind":"reincarnation","obj":"0xabcd0000000000000000000000001234","version":7}"#,
            "reincarnation obj=0x1234 v7",
        ),
        (
            KernelEvent::CheckpointWrite { obj, version: 8 },
            r#"{"seq":11,"at_ns":500,"node":3,"kind":"checkpoint","obj":"0xabcd0000000000000000000000001234","version":8}"#,
            "checkpoint obj=0x1234 v8",
        ),
        (
            KernelEvent::MoveOut { obj, dst: 2 },
            r#"{"seq":11,"at_ns":500,"node":3,"kind":"move_out","obj":"0xabcd0000000000000000000000001234","dst":2}"#,
            "move-out obj=0x1234 -> node 2",
        ),
        (
            KernelEvent::MoveIn { obj, src: 1 },
            r#"{"seq":11,"at_ns":500,"node":3,"kind":"move_in","obj":"0xabcd0000000000000000000000001234","src":1}"#,
            "move-in obj=0x1234 <- node 1",
        ),
        (
            KernelEvent::Forward { obj, dst: 4 },
            r#"{"seq":11,"at_ns":500,"node":3,"kind":"forward","obj":"0xabcd0000000000000000000000001234","dst":4}"#,
            "forward obj=0x1234 -> node 4",
        ),
        (
            KernelEvent::Retransmit { inv_id: 42, dst: 1 },
            r#"{"seq":11,"at_ns":500,"node":3,"kind":"retransmit","inv_id":42,"dst":1}"#,
            "retransmit inv=42 -> node 1",
        ),
        (
            KernelEvent::RemoteTimeout { dst: 5 },
            r#"{"seq":11,"at_ns":500,"node":3,"kind":"remote_timeout","dst":5}"#,
            "remote-timeout node 5",
        ),
        (
            KernelEvent::WhereIsBroadcast { obj },
            r#"{"seq":11,"at_ns":500,"node":3,"kind":"where_is","obj":"0xabcd0000000000000000000000001234"}"#,
            "where-is broadcast obj=0x1234",
        ),
        (
            KernelEvent::DirectoryQuery { obj, home: 2 },
            r#"{"seq":11,"at_ns":500,"node":3,"kind":"dir_query","obj":"0xabcd0000000000000000000000001234","home":2}"#,
            "dir-query obj=0x1234 home node 2",
        ),
        (
            KernelEvent::DirectoryRegister { obj, home: 0 },
            r#"{"seq":11,"at_ns":500,"node":3,"kind":"dir_register","obj":"0xabcd0000000000000000000000001234","home":0}"#,
            "dir-register obj=0x1234 home node 0",
        ),
        (
            KernelEvent::MemberSuspect { node: 6 },
            r#"{"seq":11,"at_ns":500,"node":3,"kind":"member_suspect","member":6}"#,
            "member-suspect node 6",
        ),
        (
            KernelEvent::MemberDead { node: 6 },
            r#"{"seq":11,"at_ns":500,"node":3,"kind":"member_dead","member":6}"#,
            "member-dead node 6",
        ),
        (
            KernelEvent::MemberAlive { node: 6 },
            r#"{"seq":11,"at_ns":500,"node":3,"kind":"member_alive","member":6}"#,
            "member-alive node 6",
        ),
        (
            KernelEvent::VprocStall {
                worker: 2,
                age_ms: 120,
                queued: 4,
            },
            r#"{"seq":11,"at_ns":500,"node":3,"kind":"vproc_stall","worker":2,"age_ms":120,"queued":4}"#,
            "vproc-stall worker 2 busy 120 ms (4 queued)",
        ),
        (
            KernelEvent::VprocStall {
                worker: u16::MAX,
                age_ms: 1500,
                queued: 12,
            },
            r#"{"seq":11,"at_ns":500,"node":3,"kind":"vproc_stall","worker":65535,"age_ms":1500,"queued":12}"#,
            "vproc-stall queue age 1500 ms (12 queued)",
        ),
        (
            KernelEvent::WriterStall {
                dst: 9,
                age_ms: 250,
                queued: 8,
            },
            r#"{"seq":11,"at_ns":500,"node":3,"kind":"writer_stall","dst":9,"age_ms":250,"queued":8}"#,
            "writer-stall dst node 9 undrained 250 ms (8 queued)",
        ),
        (
            KernelEvent::SlowInvocation {
                inv_id: 99,
                age_ms: 2000,
                trace: 0x0001_0000_0000_0001,
            },
            r#"{"seq":11,"at_ns":500,"node":3,"kind":"slow_invocation","inv_id":99,"age_ms":2000,"trace":"0x1000000000001"}"#,
            "slow-invocation inv=99 in flight 2000 ms trace=0x1000000000001",
        ),
        (
            KernelEvent::InboundDropped {
                peer: "10.0.0.7:51123".parse().expect("literal addr"),
                reason: InboundDropReason::Oversized,
            },
            r#"{"seq":11,"at_ns":500,"node":3,"kind":"inbound_dropped","peer":"10.0.0.7:51123","reason":"oversized"}"#,
            "inbound-dropped peer 10.0.0.7:51123 reason oversized",
        ),
        (
            KernelEvent::InboundDropped {
                peer: "[::1]:9000".parse().expect("literal addr"),
                reason: InboundDropReason::Codec,
            },
            r#"{"seq":11,"at_ns":500,"node":3,"kind":"inbound_dropped","peer":"[::1]:9000","reason":"codec"}"#,
            "inbound-dropped peer [::1]:9000 reason codec",
        ),
        (
            KernelEvent::NodeShutdown,
            r#"{"seq":11,"at_ns":500,"node":3,"kind":"shutdown"}"#,
            "node shutdown",
        ),
    ]
}

#[test]
fn every_event_kind_exports_its_pinned_jsonl_line() {
    for (event, jsonl, _) in cases() {
        let fe = FlightEvent {
            seq: 11,
            at_ns: 500,
            event,
        };
        assert_eq!(event_jsonl_line(3, &fe), jsonl, "JSONL of {event:?}");
    }
}

#[test]
fn every_event_kind_displays_its_pinned_text() {
    for (event, _, text) in cases() {
        assert_eq!(event.to_string(), text, "Display of {event:?}");
    }
}

#[test]
fn the_pinned_cases_cover_all_nineteen_kinds() {
    let mut kinds: Vec<&str> = cases()
        .into_iter()
        .map(|(_, line, _)| {
            let start = line.find(r#""kind":""#).expect("kind key") + 8;
            let end = start + line[start..].find('"').expect("closing quote");
            &line[start..end]
        })
        .collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert_eq!(kinds.len(), 19, "kinds: {kinds:?}");
}
