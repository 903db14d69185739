//! The three workloads and the measurement around them.
//!
//! Every kernel runs `NodeConfig::default()`, so the benchmark measures
//! what a user gets. All load is closed-loop: a driver issues its next
//! operation only when a reply (or, pipelined, a window slot) frees up.
//! Load comes from at most two driver threads in this process, which
//! also hosts the kernels.
//!
//! * `tcp_seq` — one client and one server kernel on loopback TCP; one
//!   driver invokes a small echo, one call at a time. Nearly all the time
//!   is the transport's wake-up path; `vproc` and the store barely work.
//!   Not gated by `BENCHMARK.json` (see `README.md`): on the polling
//!   transport its tail swings with host timing from run to run.
//! * `tcp_pipelined` — two clients and one server on loopback TCP; each
//!   client's driver keeps [`WINDOW`] pipelined calls outstanding. This
//!   loads the server's receive batching, the `vproc` pool and writer
//!   coalescing, and hides per-call wake-up latency.
//! * `mesh_mixed` — three kernels on the zero-latency loopback mesh, each
//!   with a disk store; one driver reads, writes (mutate + checkpoint),
//!   moves and crashes [`OBJECTS`] objects from random nodes. This loads
//!   location, mobility, lifecycle and the store, and bypasses TCP.

use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use eden_capability::Capability;
use eden_kernel::{EdenError, KernelMetrics, Node, NodeConfig, TypeRegistry, VprocStats};
use eden_store::disk::SyncPolicy;
use eden_store::{CheckpointStore, DiskStore, MemStore};
use eden_transport::{Endpoint, LoopbackMesh, TcpMesh, TransportStats};
use eden_wire::{Status, Value};

use crate::decor::{BenchObject, Inject, Probe, TimedEndpoint, TimedStore};
use crate::procfs;
use crate::stats::Rng;
use crate::trace::{Span, SpanName, Tracer};

/// Budget for one invocation: the kernel's default invoke timeout.
const CALL_TIMEOUT: Duration = Duration::from_secs(5);
/// Budget for a move or a crash to take effect before it counts as
/// failed.
const SETTLE_TIMEOUT: Duration = Duration::from_secs(5);
/// Outstanding calls per `tcp_pipelined` client.
pub const WINDOW: usize = 32;
/// Largest `tcp_*` echo payload; sizes are uniform in `0..=ECHO_MAX`.
const ECHO_MAX: u64 = 256;
/// Sequential echoes each `tcp_*` client makes before timing starts.
const TCP_WARMUP: usize = 50;
/// Kernels in `mesh_mixed`.
const MESH_NODES: usize = 3;
/// Objects in `mesh_mixed`.
pub const OBJECTS: usize = 256;
/// `mesh_mixed` representation sizes and how many objects get each.
/// Fixed counts (the seed only decides which object gets which size)
/// keep the size mix, and so the latency tail, the same across seeds.
const SIZE_CLASSES: [(usize, usize); 3] = [(256, 128), (4 << 10, 96), (64 << 10, 32)];
/// `mesh_mixed` operation mix, in thousandths: read, write, move; the
/// rest are crashes.
const MIX_PER_MILLE: [u64; 3] = [650, 280, 50];
/// How long drivers run before the window opens.
const RAMP: Duration = Duration::from_secs(2);
/// Length of one slice of the timed window. Latency, throughput and CPU
/// are computed per slice and the median slice is reported, so a burst
/// of interference from outside the process moves a result only if it
/// covers most of the window.
const SLICE_S: f64 = 2.0;
/// Spans kept per traced run, about 64 MiB. A run that would record more
/// keeps the spans of the start of its window (`trace.spans_dropped`).
const SPAN_BUDGET: usize = 1 << 21;
/// How often (in operations) a traced run samples the pools' queues.
const QUEUE_SAMPLE_EVERY: u64 = 64;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sequential echo over loopback TCP.
    TcpSeq,
    /// Windowed pipelined echo over loopback TCP.
    TcpPipelined,
    /// Read/write/move/crash over the loopback mesh with disk stores.
    MeshMixed,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::TcpSeq,
        Workload::TcpPipelined,
        Workload::MeshMixed,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TcpSeq => "tcp_seq",
            Workload::TcpPipelined => "tcp_pipelined",
            Workload::MeshMixed => "mesh_mixed",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether one operation is in flight at a time, so that every span
    /// inside an operation's interval belongs to that operation.
    pub fn sequential(self) -> bool {
        self != Workload::TcpPipelined
    }
}

/// What one timed operation did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    /// `echo` (both TCP workloads).
    Echo,
    /// `read` of an active object.
    Read,
    /// `write`: mutate and checkpoint.
    Write,
    /// `Node::move_object` until the object is installed at its target.
    Move,
    /// `crash` invocation.
    Crash,
    /// The first `read` after a crash, which reincarnates the object.
    Reincarnate,
}

impl OpKind {
    const ALL: [OpKind; 6] = [
        OpKind::Echo,
        OpKind::Read,
        OpKind::Write,
        OpKind::Move,
        OpKind::Crash,
        OpKind::Reincarnate,
    ];

    /// The kind recorded as an `Op` span's argument.
    pub fn from_index(i: u32) -> Option<OpKind> {
        OpKind::ALL.get(i as usize).copied()
    }
}

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Seed for every generated input.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Record spans (the per-layer run).
    pub trace: bool,
    /// Set-ups per run; the median is reported and the last one is timed.
    pub setups: usize,
    /// Delays injected into the decorators (zero except in self-tests).
    pub inject: Inject,
    /// Directory for the disk stores; removed when the run ends.
    pub scratch: PathBuf,
}

/// One completed operation, in 12 bytes.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// What it was.
    pub kind: OpKind,
    /// How long it took, in nanoseconds (saturating at 4.29 s).
    pub ns: u32,
    /// When it completed, in microseconds since the window opened.
    pub at_us: u32,
}

/// Completed operations, stored in fixed-size chunks so the log grows
/// in step with the operation count: a doubling `Vec` would make the
/// process's peak memory jump at powers of two.
#[derive(Debug, Default)]
pub struct Samples {
    chunks: Vec<Vec<Sample>>,
}

impl Samples {
    const CHUNK: usize = 1 << 16;

    fn push(&mut self, sample: Sample) {
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < Self::CHUNK => chunk.push(sample),
            _ => {
                let mut chunk = Vec::with_capacity(Self::CHUNK);
                chunk.push(sample);
                self.chunks.push(chunk);
            }
        }
    }

    /// How many operations completed.
    pub fn len(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }

    /// Whether none did.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every sample, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = &Sample> {
        self.chunks.iter().flatten()
    }
}

/// The timed window.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// When timing started.
    pub start: Instant,
    /// When drivers stop issuing new operations.
    pub end: Instant,
}

impl Window {
    fn open(&self) -> bool {
        Instant::now() < self.end
    }
}

/// What a driver observed.
#[derive(Debug)]
pub struct Tally {
    /// When the window opened.
    start: Instant,
    /// Every operation that completed with the right answer.
    pub samples: Samples,
    /// Operations attempted.
    pub attempted: u64,
    /// Failed operations by status.
    pub failures: BTreeMap<String, u64>,
    /// The first wrong answer, which ends the run.
    pub wrong: Option<String>,
    /// Largest `vproc` queue depth sampled on any node (traced runs).
    pub queued_max: u64,
    /// Calls to `sample_queues`, which samples every
    /// [`QUEUE_SAMPLE_EVERY`]th.
    polls: u64,
}

impl Tally {
    fn new(window: &Window) -> Tally {
        Tally {
            start: window.start,
            samples: Samples::default(),
            attempted: 0,
            failures: BTreeMap::new(),
            wrong: None,
            queued_max: 0,
            polls: 0,
        }
    }

    /// Operations completing before the window opens are not counted.
    fn counts(&self) -> bool {
        Instant::now() >= self.start
    }

    fn ok(&mut self, kind: OpKind, started: Instant) {
        if !self.counts() {
            return;
        }
        self.attempted += 1;
        let now = Instant::now();
        let since = |t: Instant| now.duration_since(t);
        self.samples.push(Sample {
            kind,
            ns: u32::try_from(since(started).as_nanos()).unwrap_or(u32::MAX),
            at_us: u32::try_from(since(self.start).as_micros()).unwrap_or(u32::MAX),
        });
    }

    fn failed(&mut self, kind: OpKind, status: String) {
        if !self.counts() {
            return;
        }
        self.attempted += 1;
        *self
            .failures
            .entry(format!("{kind:?}.{status}"))
            .or_default() += 1;
    }

    fn wrong(&mut self, what: String) {
        self.attempted += 1;
        self.wrong.get_or_insert(what);
    }

    fn merge(&mut self, other: Tally) {
        self.samples.chunks.extend(other.samples.chunks);
        self.attempted += other.attempted;
        for (k, n) in other.failures {
            *self.failures.entry(k).or_default() += n;
        }
        if self.wrong.is_none() {
            self.wrong = other.wrong;
        }
        self.queued_max = self.queued_max.max(other.queued_max);
    }

    fn sample_queues(&mut self, nodes: &[Node]) {
        self.polls += 1;
        if self.polls.is_multiple_of(QUEUE_SAMPLE_EVERY) {
            for n in nodes {
                self.queued_max = self.queued_max.max(n.vproc_stats().queued as u64);
            }
        }
    }
}

/// The variant name of a status or error, without its payload.
fn variant(debug: String) -> String {
    debug
        .split(|c: char| !c.is_alphanumeric())
        .next()
        .unwrap_or("Unknown")
        .to_string()
}

fn status_key(status: &Status) -> String {
    variant(format!("{status:?}"))
}

fn error_key(e: &EdenError) -> String {
    match e {
        EdenError::Invoke(status) => status_key(status),
        other => variant(format!("{other:?}")),
    }
}

/// Every node's public counters at one instant.
#[derive(Debug, Clone)]
pub struct Counters {
    /// Per node.
    pub kernel: Vec<KernelMetrics>,
    /// Per node.
    pub vproc: Vec<VprocStats>,
    /// Per node.
    pub transport: Vec<TransportStats>,
}

impl Counters {
    fn of(nodes: &[Node]) -> Counters {
        Counters {
            kernel: nodes.iter().map(Node::metrics).collect(),
            vproc: nodes.iter().map(Node::vproc_stats).collect(),
            transport: nodes.iter().map(Node::transport_stats).collect(),
        }
    }
}

/// Everything a run measured, before it is reduced to metrics.
#[derive(Debug)]
pub struct Outcome {
    /// Workload parameters, for the provenance block.
    pub params: Vec<(&'static str, String)>,
    /// Duration of each set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// What the drivers saw in the timed window.
    pub tally: Tally,
    /// Length of the timed window, in seconds.
    pub window_s: f64,
    /// Slice edges of the window: (seconds since it opened, process CPU
    /// nanoseconds then), from (0, start) to (window_s, end).
    pub marks: Vec<(f64, u64)>,
    /// Per thread group: (threads at the end of the window, CPU ns).
    pub groups: BTreeMap<&'static str, (u64, u64)>,
    /// Counters when the window opened.
    pub before: Counters,
    /// Counters when the window closed.
    pub after: Counters,
    /// Spans recorded inside the window, sorted by start (traced runs).
    pub spans: Vec<Span>,
    /// Spans that did not fit in the tracer's buffer.
    pub spans_dropped: u64,
}

/// A booted set of kernels, ready to be driven.
trait Rig: Sized + Sync {
    /// The workload's fixed parameters.
    fn params() -> Vec<(&'static str, String)>;
    /// Boots, connects, creates objects and warms up.
    fn build(cfg: &RunConfig, probe: &Arc<Probe>, attempt: usize) -> Self;
    /// The kernels.
    fn nodes(&self) -> &[Node];
    /// Driver threads.
    fn drivers(&self) -> usize;
    /// Driver `i`'s closed loop until the window closes.
    fn drive(&self, i: usize, cfg: &RunConfig, probe: &Probe, window: &Window) -> Tally;
    /// Stops every kernel and removes on-disk state.
    fn teardown(self);
}

/// Runs the configured workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    match cfg.workload {
        Workload::TcpSeq => measure::<TcpRig<1>>(cfg),
        Workload::TcpPipelined => measure::<TcpRig<2>>(cfg),
        Workload::MeshMixed => measure::<MeshRig>(cfg),
    }
}

/// What is read at a window edge, while the drivers still run.
struct Edge {
    at: Instant,
    census: BTreeMap<u32, (&'static str, u64)>,
    counters: Counters,
}

impl Edge {
    fn take(nodes: &[Node]) -> Edge {
        Edge {
            at: Instant::now(),
            census: procfs::census(),
            counters: Counters::of(nodes),
        }
    }
}

/// Sets up `cfg.setups` times, tearing each down but the last, and
/// drives the last one for the window.
fn measure<R: Rig>(cfg: &RunConfig) -> Outcome {
    let probe = Arc::new(Probe {
        tracer: Tracer::new(cfg.trace),
        inject: cfg.inject,
    });
    let mut setup_s = Vec::new();
    let mut rig: Option<R> = None;
    for attempt in 0..cfg.setups.max(1) {
        if let Some(old) = rig.take() {
            old.teardown();
        }
        let started = Instant::now();
        rig = Some(R::build(cfg, &probe, attempt));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let rig = rig.expect("at least one set-up");

    // The drivers start a ramp before the window opens and record
    // nothing until it does, so start-up transients stay outside it.
    let start = Instant::now() + RAMP;
    let window = Window {
        start,
        end: start + Duration::from_secs_f64(cfg.seconds),
    };
    let slices = (cfg.seconds / SLICE_S).round().max(1.0) as u32;
    let n = rig.drivers();
    // Drivers wait at `done` after their loop, so the closing census
    // still sees them and charges their CPU to the `bench` group.
    let done = Barrier::new(n + 1);
    let release = Barrier::new(n + 1);
    let (mut edges, mut marks) = (None, Vec::new());
    let mut tally = Tally::new(&window);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let (rig, probe, window, done, release) = (&rig, &*probe, &window, &done, &release);
                std::thread::Builder::new()
                    .name(format!("bench-drv-{i}"))
                    .spawn_scoped(s, move || {
                        let t = rig.drive(i, cfg, probe, window);
                        done.wait();
                        release.wait();
                        t
                    })
                    .expect("spawn driver thread")
            })
            .collect();
        std::thread::sleep(start.saturating_duration_since(Instant::now()));
        let opened = Edge::take(rig.nodes());
        marks.push((0.0, procfs::cpu_ns(&opened.census)));
        probe.tracer.arm(SPAN_BUDGET);
        for k in 1..slices {
            let at =
                start + Duration::from_secs_f64(cfg.seconds * f64::from(k) / f64::from(slices));
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            let cpu = procfs::cpu_ns(&procfs::census());
            marks.push((at.duration_since(start).as_secs_f64(), cpu));
        }
        done.wait();
        probe.tracer.disarm();
        let closed = Edge::take(rig.nodes());
        marks.push((
            closed.at.duration_since(opened.at).as_secs_f64(),
            procfs::cpu_ns(&closed.census),
        ));
        edges = Some((opened, closed));
        release.wait();
        for h in handles {
            tally.merge(h.join().expect("driver thread panicked"));
        }
    });
    let (opened, closed) = edges.expect("window closed");
    rig.teardown();
    Outcome {
        params: R::params(),
        setup_s,
        tally,
        window_s: closed.at.duration_since(opened.at).as_secs_f64(),
        marks,
        groups: procfs::group_split(&opened.census, &closed.census),
        before: opened.counters,
        after: closed.counters,
        spans: probe.tracer.take(),
        spans_dropped: probe.tracer.dropped(),
    }
}

/// A kernel with the benchmark's type, on a timed endpoint and store.
fn boot(endpoint: Arc<dyn Endpoint>, store: Arc<dyn CheckpointStore>, probe: &Arc<Probe>) -> Node {
    let registry = Arc::new(TypeRegistry::new());
    registry
        .register(Arc::new(BenchObject::new(probe.clone())))
        .expect("register the benchmark type");
    Node::new(NodeConfig::default(), endpoint, store, registry)
}

/// A seeded echo argument of 0..=[`ECHO_MAX`] bytes.
fn echo_arg(rng: &mut Rng) -> Value {
    let len = rng.below(ECHO_MAX + 1) as usize;
    Value::Blob(Bytes::from(rng.bytes(len)))
}

fn check_echo(arg: &Value, results: &[Value]) -> Result<(), String> {
    if results.len() == 1 && &results[0] == arg {
        Ok(())
    } else {
        Err(format!("echo of {arg:?} returned {results:?}"))
    }
}

/// `CLIENTS` client kernels and one server kernel (node 0) on loopback
/// TCP; client `i` invokes its own echo object on the server.
struct TcpRig<const CLIENTS: usize> {
    nodes: Vec<Node>,
    caps: Vec<Capability>,
}

impl<const CLIENTS: usize> Rig for TcpRig<CLIENTS> {
    fn params() -> Vec<(&'static str, String)> {
        let mut p = vec![
            ("transport", "TcpMesh loopback, default tuning".to_string()),
            ("kernels", format!("1 server + {CLIENTS} client")),
            ("driver_threads", CLIENTS.to_string()),
            ("echo_bytes", format!("uniform 0..={ECHO_MAX}")),
            ("call_timeout_s", CALL_TIMEOUT.as_secs().to_string()),
            ("node_config", "NodeConfig::default()".to_string()),
        ];
        if CLIENTS > 1 {
            p.push(("window", WINDOW.to_string()));
        }
        p
    }

    fn build(cfg: &RunConfig, probe: &Arc<Probe>, attempt: usize) -> Self {
        let meshes = TcpMesh::bind_local_cluster(CLIENTS + 1).expect("bind loopback TCP");
        let nodes: Vec<Node> = meshes
            .into_iter()
            .map(|mesh| {
                let endpoint = Arc::new(TimedEndpoint::new(Arc::new(mesh), probe.clone()));
                let store = Arc::new(TimedStore::new(MemStore::new(), probe.clone()));
                boot(endpoint, store, probe)
            })
            .collect();
        let caps: Vec<Capability> = (0..CLIENTS)
            .map(|_| {
                nodes[0]
                    .create_object(BenchObject::NAME, &[])
                    .expect("create echo object")
            })
            .collect();
        let mut rng = Rng::new(cfg.seed, 1000 + attempt as u64);
        for (client, &cap) in nodes[1..].iter().zip(&caps) {
            for _ in 0..TCP_WARMUP {
                let arg = echo_arg(&mut rng);
                let out = client
                    .invoke_with_timeout(cap, "echo", std::slice::from_ref(&arg), CALL_TIMEOUT)
                    .expect("warm-up echo");
                check_echo(&arg, &out).expect("warm-up echo is correct");
            }
        }
        TcpRig { nodes, caps }
    }

    fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    fn drivers(&self) -> usize {
        CLIENTS
    }

    fn drive(&self, i: usize, cfg: &RunConfig, probe: &Probe, window: &Window) -> Tally {
        let client = &self.nodes[i + 1];
        let cap = self.caps[i];
        let mut rng = Rng::new(cfg.seed, i as u64);
        if CLIENTS == 1 {
            drive_seq(client, cap, &mut rng, probe, window)
        } else {
            drive_pipelined(client, cap, &mut rng, probe, window, &self.nodes)
        }
    }

    fn teardown(self) {
        for n in &self.nodes {
            n.shutdown();
        }
    }
}

fn drive_seq(
    client: &Node,
    cap: Capability,
    rng: &mut Rng,
    probe: &Probe,
    window: &Window,
) -> Tally {
    let mut tally = Tally::new(window);
    while window.open() && tally.wrong.is_none() {
        let arg = echo_arg(rng);
        let mut span = probe.tracer.open(SpanName::Op);
        if let Some(s) = span.as_mut() {
            s.set_arg(OpKind::Echo as u32);
        }
        let started = Instant::now();
        let r = client.invoke_with_timeout(cap, "echo", std::slice::from_ref(&arg), CALL_TIMEOUT);
        drop(span);
        match r {
            Ok(out) => match check_echo(&arg, &out) {
                Ok(()) => tally.ok(OpKind::Echo, started),
                Err(e) => tally.wrong(e),
            },
            Err(e) => tally.failed(OpKind::Echo, error_key(&e)),
        }
    }
    tally
}

fn drive_pipelined(
    client: &Node,
    cap: Capability,
    rng: &mut Rng,
    probe: &Probe,
    window: &Window,
    nodes: &[Node],
) -> Tally {
    let mut tally = Tally::new(window);
    let pc = client.pipelined_client(cap);
    let mut inflight = VecDeque::with_capacity(WINDOW);
    loop {
        let open = window.open() && tally.wrong.is_none();
        if inflight.len() >= WINDOW || (!open && !inflight.is_empty()) {
            let (pending, arg, started): (eden_kernel::PendingCall<'_>, Value, Instant) =
                inflight.pop_front().expect("a call is in flight");
            let wait_span = probe.tracer.open(SpanName::PipelineWait);
            let (status, out) = pending.wait(CALL_TIMEOUT);
            drop(wait_span);
            match status {
                Status::Ok => match check_echo(&arg, &out) {
                    Ok(()) => tally.ok(OpKind::Echo, started),
                    Err(e) => tally.wrong(e),
                },
                other => tally.failed(OpKind::Echo, status_key(&other)),
            }
            if probe.tracer.enabled() {
                tally.sample_queues(nodes);
            }
            continue;
        }
        if !open {
            break;
        }
        let arg = echo_arg(rng);
        let started = Instant::now();
        let call_span = probe.tracer.open(SpanName::PipelineCall);
        let r = pc.call("echo", std::slice::from_ref(&arg));
        drop(call_span);
        match r {
            Ok(pending) => inflight.push_back((pending, arg, started)),
            Err(status) => tally.failed(OpKind::Echo, status_key(&status)),
        }
    }
    tally
}

/// The driver's model of one `mesh_mixed` object.
struct Model {
    cap: Capability,
    /// Node the object is active on.
    holder: usize,
    /// Representation size; fixed per object.
    len: usize,
    /// Generation of the current representation.
    gen: u64,
    /// Per node, the generation of the last checkpoint written there:
    /// a crash at the holder reincarnates from that one.
    ckpt: [Option<u64>; MESH_NODES],
}

/// Three kernels on the loopback mesh with disk stores, and the objects.
struct MeshRig {
    nodes: Vec<Node>,
    mesh: LoopbackMesh,
    dir: PathBuf,
    /// Object models and the next generation number; one driver.
    state: Mutex<(Vec<Model>, u64)>,
    /// One shared payload per size class: reads check length and
    /// generation, so writes need not build fresh bytes.
    payloads: Vec<Bytes>,
}

impl MeshRig {
    fn payload(&self, len: usize) -> Bytes {
        self.payloads
            .iter()
            .find(|p| p.len() == len)
            .expect("a payload per size class")
            .clone()
    }
}

/// Polls `done` until it holds or [`SETTLE_TIMEOUT`] passes.
fn wait_for(done: impl Fn() -> bool) -> bool {
    let started = Instant::now();
    while !done() {
        if started.elapsed() > SETTLE_TIMEOUT {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

fn read_matches(out: &[Value], len: usize, gen: u64) -> Result<(), String> {
    if out == [Value::U64(len as u64), Value::U64(gen)] {
        Ok(())
    } else {
        Err(format!(
            "read returned {out:?}, model has len {len} gen {gen}"
        ))
    }
}

impl Rig for MeshRig {
    fn params() -> Vec<(&'static str, String)> {
        vec![
            (
                "transport",
                "LoopbackMesh, zero latency, no loss".to_string(),
            ),
            ("kernels", MESH_NODES.to_string()),
            ("store", "DiskStore, SyncPolicy::Never".to_string()),
            ("objects", OBJECTS.to_string()),
            (
                "sizes",
                SIZE_CLASSES
                    .iter()
                    .map(|(len, n)| format!("{n}x{len}B"))
                    .collect::<Vec<_>>()
                    .join(" "),
            ),
            (
                "mix_per_mille",
                format!(
                    "read {} write {} move {} crash {}",
                    MIX_PER_MILLE[0],
                    MIX_PER_MILLE[1],
                    MIX_PER_MILLE[2],
                    1000 - MIX_PER_MILLE.iter().sum::<u64>()
                ),
            ),
            ("driver_threads", "1".to_string()),
            ("call_timeout_s", CALL_TIMEOUT.as_secs().to_string()),
            ("node_config", "NodeConfig::default()".to_string()),
        ]
    }

    fn build(cfg: &RunConfig, probe: &Arc<Probe>, attempt: usize) -> Self {
        let dir = cfg.scratch.join(format!("mesh-{attempt}"));
        let _ = std::fs::remove_dir_all(&dir);
        let mesh = LoopbackMesh::new(MESH_NODES);
        let nodes: Vec<Node> = (0..MESH_NODES)
            .map(|i| {
                let endpoint = Arc::new(TimedEndpoint::new(mesh.endpoint(i), probe.clone()));
                let disk = DiskStore::open(dir.join(format!("node-{i}.log")), SyncPolicy::Never)
                    .expect("open disk store");
                let store = Arc::new(TimedStore::new(disk, probe.clone()));
                boot(endpoint, store, probe)
            })
            .collect();
        let payloads: Vec<Bytes> = SIZE_CLASSES
            .iter()
            .map(|&(len, _)| Bytes::from(vec![0xED; len]))
            .collect();

        let mut rng = Rng::new(cfg.seed, 2000);
        let mut lens: Vec<usize> = SIZE_CLASSES
            .iter()
            .flat_map(|&(len, n)| std::iter::repeat_n(len, n))
            .collect();
        assert_eq!(lens.len(), OBJECTS, "size classes cover every object");
        rng.shuffle(&mut lens);
        let models: Vec<Model> = lens
            .into_iter()
            .enumerate()
            .map(|(i, len)| {
                let holder = rng.below(MESH_NODES as u64) as usize;
                let gen = i as u64 + 1;
                let data = payloads.iter().find(|p| p.len() == len).expect("payload");
                let cap = nodes[holder]
                    .create_object(
                        BenchObject::NAME,
                        &[Value::Blob(data.clone()), Value::U64(gen)],
                    )
                    .expect("create object");
                let mut ckpt = [None; MESH_NODES];
                ckpt[holder] = Some(gen);
                Model {
                    cap,
                    holder,
                    len,
                    gen,
                    ckpt,
                }
            })
            .collect();
        // Warm-up: every node reads every object once, which fills each
        // node's location hints.
        for node in &nodes {
            for m in &models {
                let out = node
                    .invoke_with_timeout(m.cap, "read", &[], CALL_TIMEOUT)
                    .expect("warm-up read");
                read_matches(&out, m.len, m.gen).expect("warm-up read is correct");
            }
        }
        let next_gen = OBJECTS as u64 + 1;
        MeshRig {
            nodes,
            mesh,
            dir,
            state: Mutex::new((models, next_gen)),
            payloads,
        }
    }

    fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    fn drivers(&self) -> usize {
        1
    }

    fn drive(&self, _i: usize, cfg: &RunConfig, probe: &Probe, window: &Window) -> Tally {
        let mut rng = Rng::new(cfg.seed, 0);
        let mut tally = Tally::new(window);
        let mut state = self.state.lock().expect("model lock");
        let (models, next_gen) = &mut *state;
        while window.open() && tally.wrong.is_none() {
            let pick = rng.below(1000);
            let idx = rng.below(OBJECTS as u64) as usize;
            let from = rng.below(MESH_NODES as u64) as usize;
            if pick < MIX_PER_MILLE[0] {
                self.read(&mut models[idx], from, OpKind::Read, probe, &mut tally);
            } else if pick < MIX_PER_MILLE[0] + MIX_PER_MILLE[1] {
                *next_gen += 1;
                self.write(&mut models[idx], from, *next_gen, probe, &mut tally);
            } else if pick < MIX_PER_MILLE.iter().sum::<u64>() {
                let hop = 1 + rng.below(MESH_NODES as u64 - 1) as usize;
                self.move_to(&mut models[idx], hop, probe, &mut tally);
            } else {
                // Crash only an object with a checkpoint at its holder:
                // without one, a crash legitimately destroys it.
                let eligible = (0..OBJECTS)
                    .map(|k| (idx + k) % OBJECTS)
                    .find(|&k| models[k].ckpt[models[k].holder].is_some());
                if let Some(k) = eligible {
                    let again = rng.below(MESH_NODES as u64) as usize;
                    self.crash(&mut models[k], from, again, probe, &mut tally);
                }
            }
            if probe.tracer.enabled() {
                tally.sample_queues(&self.nodes);
            }
        }
        tally
    }

    fn teardown(self) {
        for n in &self.nodes {
            n.shutdown();
        }
        self.mesh.shutdown();
        drop(self.nodes);
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl MeshRig {
    fn timed_invoke(
        &self,
        kind: OpKind,
        from: usize,
        m: &Model,
        op: &str,
        args: &[Value],
        probe: &Probe,
    ) -> (Instant, eden_kernel::Result<Vec<Value>>) {
        let mut span = probe.tracer.open(SpanName::Op);
        if let Some(s) = span.as_mut() {
            s.set_arg(kind as u32);
        }
        let started = Instant::now();
        let r = self.nodes[from].invoke_with_timeout(m.cap, op, args, CALL_TIMEOUT);
        (started, r)
    }

    fn read(&self, m: &mut Model, from: usize, kind: OpKind, probe: &Probe, tally: &mut Tally) {
        let (started, r) = self.timed_invoke(kind, from, m, "read", &[], probe);
        match r {
            Ok(out) => match read_matches(&out, m.len, m.gen) {
                Ok(()) => tally.ok(kind, started),
                Err(e) => tally.wrong(e),
            },
            Err(e) => tally.failed(kind, error_key(&e)),
        }
    }

    fn write(&self, m: &mut Model, from: usize, gen: u64, probe: &Probe, tally: &mut Tally) {
        let args = [Value::Blob(self.payload(m.len)), Value::U64(gen)];
        let (started, r) = self.timed_invoke(OpKind::Write, from, m, "write", &args, probe);
        match r {
            Ok(out) if matches!(out.as_slice(), [Value::U64(v)] if *v > 0) => {
                tally.ok(OpKind::Write, started);
                m.gen = gen;
                m.ckpt[m.holder] = Some(gen);
            }
            Ok(out) => tally.wrong(format!("write returned {out:?}")),
            Err(e) => tally.failed(OpKind::Write, error_key(&e)),
        }
    }

    fn move_to(&self, m: &mut Model, hop: usize, probe: &Probe, tally: &mut Tally) {
        let src = m.holder;
        let dst = (src + hop) % MESH_NODES;
        let name = m.cap.name();
        let mut span = probe.tracer.open(SpanName::Op);
        if let Some(s) = span.as_mut() {
            s.set_arg(OpKind::Move as u32);
        }
        let started = Instant::now();
        if let Err(e) = self.nodes[src].move_object(m.cap, self.nodes[dst].node_id()) {
            tally.failed(OpKind::Move, error_key(&e));
            return;
        }
        // The move completes when the source has handed over: the
        // target holds the object and the source no longer does.
        let (src_node, dst_node) = (&self.nodes[src], &self.nodes[dst]);
        if wait_for(|| dst_node.is_local(name) && !src_node.is_local(name)) {
            tally.ok(OpKind::Move, started);
            m.holder = dst;
        } else {
            tally.failed(OpKind::Move, "Timeout".to_string());
            if let Some(at) = self.nodes.iter().position(|n| n.is_local(name)) {
                m.holder = at;
            }
        }
    }

    fn crash(&self, m: &mut Model, from: usize, again: usize, probe: &Probe, tally: &mut Tally) {
        let (started, r) = self.timed_invoke(OpKind::Crash, from, m, "crash", &[], probe);
        match r {
            Ok(out) if out.is_empty() => {}
            Ok(out) => {
                tally.wrong(format!("crash returned {out:?}"));
                return;
            }
            Err(e) => {
                tally.failed(OpKind::Crash, error_key(&e));
                return;
            }
        }
        // The reply leaves before the holder tears the object down. An
        // invocation that finds the object during teardown can be left in
        // the dead object's queue until it times out, so the crash counts
        // as done only once the holder has dropped the object.
        let holder = &self.nodes[m.holder];
        if !wait_for(|| !holder.is_local(m.cap.name())) {
            tally.failed(OpKind::Crash, "Timeout".to_string());
            return;
        }
        tally.ok(OpKind::Crash, started);
        m.gen = m.ckpt[m.holder].expect("crash needs a checkpoint at the holder");
        self.read(m, again, OpKind::Reincarnate, probe, tally);
    }
}
