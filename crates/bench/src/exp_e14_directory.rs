//! E14 — the sharded location directory vs broadcast `WhereIs`.
//!
//! The seed kernel's only search was a broadcast: a locate miss (no
//! cached hint, dead birth hint) cost `WhereIs` to every peer plus a
//! fixed 250 ms collection window whenever nothing answered. The
//! directory (DESIGN.md §27) hashes each name to a *home* node that
//! tracks the current holder, and gossip membership turns dead-holder
//! detection push-based. Two claims, measured at 8/16/64 nodes:
//!
//! * **locate-miss messages are O(1)** — a miss is one query to the
//!   home plus one answer, independent of cluster size, where the seed
//!   pays `WhereIs` to n-1 peers plus the holder's `HereIs`.
//!
//! * **failover loses the 250 ms floor** — invoking a genuinely lost
//!   object (holder dead, no checkpoint) fails fast: gossip already
//!   knows the holder is dead and every live peer answers `NotHeld`,
//!   completing the fallback collector, where the seed always waits
//!   out the full locate window.
//!
//! The scenario per cluster size: an object born on node 1 and moved to
//! node 2 (so the birth hint dead-ends), plus an uncheckpointed object
//! that dies with node 1; node 1 is killed; node 3 invokes both with a
//! cold hint cache.

use std::time::{Duration, Instant};

use eden_capability::{Capability, NodeId};
use eden_kernel::{Cluster, GossipConfig, NodeConfig};
use eden_wire::MemberStatus;

use crate::artifact_path;
use crate::table::Table;

/// Cluster sizes measured.
const SIZES: [usize; 3] = [8, 16, 64];
/// The broadcast collection window (the kernel's `LOCATE_WINDOW`).
const LOCATE_WINDOW_MS: u64 = 250;

/// One variant's measurements at one cluster size.
struct Arm {
    /// Location frames for the locate-miss invocation of a live,
    /// moved object (computed from the kernel's own counters).
    locate_messages: u64,
    /// Latency of that invocation, milliseconds.
    hit_ms: f64,
    /// Latency of invoking the lost object until failure, milliseconds.
    lost_ms: f64,
    /// Broadcasts the miss cost (0 with the directory).
    broadcasts: u64,
    /// Directory queries the miss cost (0 in the seed).
    queries: u64,
}

fn build(n: usize, directory: bool) -> Cluster {
    eden_apps::with_apps(Cluster::builder().nodes(n).node_config(NodeConfig {
        enable_directory: directory,
        remote_try_timeout: Duration::from_millis(200),
        gossip: GossipConfig {
            probe_interval: Duration::from_millis(40),
            probe_timeout: Duration::from_millis(120),
            suspect_timeout: Duration::from_millis(400),
        },
        ..NodeConfig::default()
    }))
    .build()
}

fn wait_until(secs: u64, what: &str, mut check: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while !check() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Creates a counter on `birth` whose directory home (when enabled) is
/// neither the doomed birth node nor the invoker, so the measured query
/// is one real round trip to a surviving home.
fn counter_homed_away(c: &Cluster, birth: usize, avoid: &[NodeId]) -> Capability {
    for _ in 0..256 {
        let cap = c.node(birth).create_object("counter", &[]).unwrap();
        match c.node(birth).directory_home(cap.name()) {
            Some(home) if avoid.contains(&home) => continue,
            _ => return cap,
        }
    }
    panic!("no object homed away from {avoid:?} in 256 draws");
}

/// Runs the miss-and-failover scenario on one cluster.
fn measure(n: usize, directory: bool) -> Arm {
    let c = build(n, directory);
    let invoker_id = NodeId(3);

    // The live object: born on 1, moved to 2, so hints dead-end once
    // node 1 is gone. The doomed object stays on node 1 unreplicated.
    let moved = counter_homed_away(&c, 1, &[NodeId(1), invoker_id]);
    let doomed = counter_homed_away(&c, 1, &[NodeId(1)]);
    c.node(1).move_object(moved, NodeId(2)).unwrap();
    wait_until(10, "move to settle", || c.node(2).is_local(moved.name()));

    c.kill(1);
    let invoker = c.node(3);
    if directory {
        // Failure detection is gossip's job: wait for the push-based
        // verdict, then for the re-homed registration to be servable.
        wait_until(60, "gossip death verdict", || {
            invoker
                .membership()
                .iter()
                .any(|(node, s, _)| *node == NodeId(1) && *s == MemberStatus::Dead)
        });
        wait_until(60, "registration to re-home", || {
            invoker.directory_locate(moved.name()) == Some(NodeId(2))
        });
    }

    // Locate miss on a live object: no cached hint, dead birth hint.
    let m0 = invoker.metrics();
    let start = Instant::now();
    invoker
        .invoke_with_timeout(moved, "get", &[], Duration::from_secs(30))
        .expect("moved object is alive on node 2");
    let hit_ms = start.elapsed().as_secs_f64() * 1e3;
    let m1 = invoker.metrics();
    let broadcasts = m1.location_broadcasts - m0.location_broadcasts;
    let queries = m1.directory_queries - m0.directory_queries;
    // The kernel's own counters translate to location frames: a
    // broadcast is WhereIs to n-1 peers plus the holder's HereIs; a
    // directory query is one request plus one answer.
    let locate_messages = broadcasts * (n as u64 - 1) + u64::from(broadcasts > 0) + queries * 2;

    // Failover on a lost object: the invocation must fail, the question
    // is how long the search takes to conclude "gone".
    let start = Instant::now();
    let err = invoker.invoke_with_timeout(doomed, "get", &[], Duration::from_secs(30));
    let lost_ms = start.elapsed().as_secs_f64() * 1e3;
    assert!(err.is_err(), "uncheckpointed object must be lost");

    c.shutdown();
    Arm {
        locate_messages,
        hit_ms,
        lost_ms,
        broadcasts,
        queries,
    }
}

fn write_artifact(rows: &[(usize, Arm, Arm)]) {
    let mut sizes = String::new();
    for (i, (n, seed, dir)) in rows.iter().enumerate() {
        if i > 0 {
            sizes.push_str(",\n");
        }
        sizes.push_str(&format!(
            "    {{\"nodes\": {n}, \
             \"seed\": {{\"locate_messages\": {}, \"broadcasts\": {}, \
             \"hit_ms\": {:.2}, \"lost_miss_ms\": {:.2}}}, \
             \"directory\": {{\"locate_messages\": {}, \"queries\": {}, \
             \"hit_ms\": {:.2}, \"lost_miss_ms\": {:.2}}}}}",
            seed.locate_messages,
            seed.broadcasts,
            seed.hit_ms,
            seed.lost_ms,
            dir.locate_messages,
            dir.queries,
            dir.hit_ms,
            dir.lost_ms,
        ));
    }
    let json = format!(
        "{{\n  \"experiment\": \"e14\",\n  \"locate_window_ms\": {LOCATE_WINDOW_MS},\n  \
         \"sizes\": [\n{sizes}\n  ]\n}}\n"
    );
    let path = artifact_path("BENCH_E14.json");
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Runs E14 and returns the table.
pub fn run() -> Table {
    let mut rows = Vec::new();
    for n in SIZES {
        let seed = measure(n, false);
        let dir = measure(n, true);

        // The two acceptance claims, enforced where they are measured.
        assert_eq!(
            dir.locate_messages, 2,
            "directory locate miss must be O(1) messages at {n} nodes"
        );
        assert!(
            dir.lost_ms < LOCATE_WINDOW_MS as f64,
            "directory failover must beat the {LOCATE_WINDOW_MS}ms locate window \
             at {n} nodes, took {:.1}ms",
            dir.lost_ms
        );
        assert!(
            seed.lost_ms >= LOCATE_WINDOW_MS as f64,
            "the seed search cannot conclude a miss before the locate window, \
             took {:.1}ms",
            seed.lost_ms
        );
        rows.push((n, seed, dir));
    }

    let mut t = Table::new(
        "E14 — location search: broadcast WhereIs (seed) vs sharded directory",
        &[
            "nodes",
            "search",
            "locate-miss msgs",
            "hit latency",
            "lost-object failover",
        ],
    );
    for (n, seed, dir) in &rows {
        t.row(vec![
            n.to_string(),
            "seed: broadcast".into(),
            seed.locate_messages.to_string(),
            format!("{:.2} ms", seed.hit_ms),
            format!("{:.1} ms", seed.lost_ms),
        ]);
        t.row(vec![
            n.to_string(),
            "directory".into(),
            dir.locate_messages.to_string(),
            format!("{:.2} ms", dir.hit_ms),
            format!("{:.1} ms", dir.lost_ms),
        ]);
    }
    t.note(
        "a locate miss = no cached hint and a dead birth hint; seed messages \
         grow with n (WhereIs to n-1 peers + HereIs), directory stays at 2",
    );
    t.note(format!(
        "lost-object failover: the seed waits out the full {LOCATE_WINDOW_MS}ms \
         collection window; with gossip the holder is already a known corpse \
         and every live peer's NotHeld completes the search"
    ));
    write_artifact(&rows);
    t
}
