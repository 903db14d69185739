//! The virtual-processor pool: the node's processor complement.
//!
//! §3: the Eden node machine multiplexes a *fixed* complement of
//! processors (two GDPs, "field upgradable" to four) over however many
//! invocation processes exist. [`VirtualProcessorPool`] is that
//! complement: [`NodeConfig::virtual_processors`](crate::NodeConfig)
//! processors run every invocation process, move, reincarnation and
//! redelivery, on the pool's worker threads or on a thread the pool
//! lends a processor to. Excess work queues, and past
//! [`NodeConfig::vproc_queue_cap`](crate::NodeConfig) the kernel sheds
//! load with `Status::Overloaded` instead of falling over.
//!
//! ## Yielding a processor
//!
//! §4.2: a process blocked in a nested invocation or on a semaphore
//! gives its processor back. Kernel waits (an invocation's reply, a
//! locate window, a move ack) and the intra-object primitives of
//! [`sync`](crate::sync) all wait inside [`blocking`], the one way a
//! worker yields. It marks the worker *blocked*, outside the pool's
//! count of running processors, and when runnable work would otherwise
//! stall it injects a temporary *spare* worker, so the task that would
//! unblock the wait always gets a processor. When the wait ends the
//! returning worker finishes its task, but no worker starts a new task
//! while more than the complement are unblocked: a spare retires once
//! the queue is empty or the complement is full again, and a base worker
//! waits for it. Blocked processes cost memory, not processors.
//!
//! ## Lending a processor
//!
//! Handing a ready invocation to a worker costs a thread hand-off. When
//! a processor of the complement is free and nothing is queued,
//! [`VirtualProcessorPool::lend`] lends it to the calling thread
//! instead (LRPC's handoff scheduling): a client thread runs its own
//! local invocation, and a receive thread the one invocation its batch
//! readied. While it holds the processor the thread counts as a worker
//! — [`blocking`] yields the processor, the stall probe sees it under
//! its own id, and `vproc.executed` counts it — and dropping the
//! [`Lent`] guard, by unwinding too, gives the processor back. Lent and
//! pooled processors together never run more than the complement.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::{Duration, Instant};

use eden_capability::NodeId;
use eden_obs::{now_ns, stage, Counter, Gauge, Histogram, ObsRegistry, TraceCtx};

use crate::sync::shim::{self, Condvar, Mutex};

thread_local! {
    /// The pool whose worker loop owns this thread, or that lent it a
    /// processor, so [`blocking`] yields the processor of the calling
    /// worker's own pool — and does nothing on other threads (a client
    /// thread waiting inside `Node::invoke` holds no processor). Empty
    /// inside a blocking scope, so a nested scope does not yield twice.
    static WORKER_OF: RefCell<Option<Arc<Shared>>> = const { RefCell::new(None) };
}

/// Runs `f` — a wait whose completion may itself need a processor (a
/// nested or remote invocation's reply, a move ack, an object's
/// semaphore or message port) — with the calling worker's processor
/// given back: the worker counts as blocked, and a spare is injected if
/// queued work would otherwise stall. See the module docs. On a thread
/// that is not a pool worker, `f` runs unadorned.
pub fn blocking<R>(f: impl FnOnce() -> R) -> R {
    let Some(shared) = WORKER_OF.with(|w| w.borrow_mut().take()) else {
        return f();
    };
    let spawn_spare = {
        let mut st = shared.state.lock();
        st.blocked += 1;
        // A worker parked while the pool was over its complement may now
        // run the queue; otherwise a spare may have to.
        if st.idle > 0 && !st.queue.is_empty() {
            shared.cv.notify_one();
        }
        shared.reserve_spare(&mut st)
    };
    if spawn_spare {
        shared.spawn_spare();
    }
    /// Takes the processor back when the wait ends, even by unwinding.
    struct Unblock(Arc<Shared>);
    impl Drop for Unblock {
        fn drop(&mut self) {
            self.0.state.lock().blocked -= 1;
            WORKER_OF.with(|w| *w.borrow_mut() = Some(Arc::clone(&self.0)));
        }
    }
    let _unblock = Unblock(shared);
    f()
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// How long [`VirtualProcessorPool::shutdown`] waits for processors
/// wedged in a long-running operation before abandoning them.
pub(crate) const SHUTDOWN_GRACE: Duration = Duration::from_millis(500);

/// The first stall-probe id of a lent processor; base workers and
/// spares number from 0 below it, and `u16::MAX` is the queue-age
/// pseudo-worker.
const LENT_IDS: u16 = 0x8000;

/// One entry of a [`VirtualProcessorPool::submit_batch`]: the job and the
/// trace context it runs under.
pub type BatchTask = (Job, Option<TraceCtx>);

struct Task {
    job: Job,
    enqueued_ns: u64,
    /// Trace context of the invocation this task belongs to. `None` for
    /// untraced (sampled-out or internal) tasks, which then pay zero
    /// span cost at dequeue — not even an allocation.
    trace: Option<TraceCtx>,
}

struct State {
    queue: VecDeque<Task>,
    /// Worker threads currently alive (base workers + spares).
    live: usize,
    /// Workers parked on the condvar waiting for work.
    idle: usize,
    /// Workers inside a [`blocking`] scope, lent processors included.
    blocked: usize,
    /// Processors lent to threads outside the pool ([`Lent`]).
    lent: usize,
    /// Per-worker busy-since timestamps (worker id → ns), maintained
    /// around task execution and lending so the stall watchdog can spot
    /// a worker wedged in one task past the deadline.
    busy_since: std::collections::BTreeMap<u16, u64>,
    stop: bool,
}

struct Shared {
    state: Mutex<State>,
    cv: Condvar,
    /// Signalled as the last processor exits or returns after stop.
    exited: Condvar,
    node: NodeId,
    /// Target number of unblocked workers (the configured pool size).
    workers: usize,
    queue_cap: usize,
    /// Registry the queue-residency spans of traced tasks are recorded
    /// into at dequeue.
    obs: Arc<ObsRegistry>,
    busy: Arc<Gauge>,
    queue_depth: Arc<Gauge>,
    task_wait: Arc<Histogram>,
    executed: Arc<Counter>,
    rejected: Arc<Counter>,
    spares: Arc<Counter>,
    panicked: Arc<Counter>,
}

impl State {
    /// Workers and lent threads holding a processor: neither parked for
    /// work nor blocked in a wait (a worker asking counts itself).
    fn running(&self) -> usize {
        self.live + self.lent - self.blocked - self.idle
    }
}

impl Shared {
    /// Whether a spare is needed right now: queued work exists, no idle
    /// worker will pick it up, and blocking waits have eaten into the
    /// processor complement. Reserves the spare's `live` slot under the
    /// lock so concurrent callers do not over-inject.
    fn reserve_spare(&self, st: &mut State) -> bool {
        let need = !st.stop && !st.queue.is_empty() && st.idle == 0 && st.running() < self.workers;
        if need {
            st.live += 1;
        }
        need
    }

    /// A processor came free — a worker exited or a lent processor came
    /// back: a worker parked while the complement was full may now run
    /// the queue, and shutdown waits for the last one.
    fn freed(&self, st: &State) {
        if !st.queue.is_empty() {
            self.cv.notify_one();
        }
        if st.stop && st.live + st.lent == 0 {
            self.exited.notify_all();
        }
    }

    fn spawn_spare(self: &Arc<Self>) {
        self.spares.inc();
        let n = self.spares.get();
        let shared = Arc::clone(self);
        // Spare ids live above the base range so a probe can tell them
        // apart, and below the lent range.
        let wid = (self.workers as u64 + n).min(LENT_IDS as u64 - 1) as u16;
        let spawned = shim::thread::Builder::new()
            .name(format!("eden-vproc-{}-s{n}", self.node))
            .spawn(move || worker_loop(shared, true, wid));
        if spawned.is_err() {
            // Could not create the thread: release the reserved slot.
            self.state.lock().live -= 1;
        }
    }
}

/// Why [`VirtualProcessorPool::submit`] refused a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The task queue is at `vproc_queue_cap`; the kernel sheds this
    /// request with `Status::Overloaded`.
    Overloaded,
    /// The pool has been shut down.
    Closed,
}

/// What the stall watchdog sees in one [`VirtualProcessorPool::
/// stall_probe`]: queue backlog and the longest-running in-flight task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VprocProbe {
    /// Tasks waiting in the queue.
    pub queued: usize,
    /// Age of the oldest queued task in nanoseconds (0 when empty).
    pub oldest_wait_ns: u64,
    /// Longest-running in-flight task as `(worker id, busy ns)`;
    /// `None` when every worker is idle or blocked.
    pub busiest: Option<(u16, u64)>,
}

/// A point-in-time snapshot of one node's pool (see
/// [`Node::vproc_stats`](crate::Node::vproc_stats)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VprocStats {
    /// Configured worker count (the fixed processor complement).
    pub workers: usize,
    /// Worker threads currently alive (base workers + live spares).
    pub live: usize,
    /// Workers parked waiting for work.
    pub idle: usize,
    /// Workers parked inside a blocking scope (nested/remote waits).
    pub blocked: usize,
    /// Processors lent to threads outside the pool.
    pub lent: usize,
    /// Tasks waiting in the queue.
    pub queued: usize,
    /// Queue capacity before `Overloaded` shedding starts.
    pub queue_cap: usize,
    /// Tasks started since boot: counted when a worker dequeues a task
    /// or a processor is lent, before the task runs, so a reply the task
    /// sends is never seen ahead of its count.
    pub executed: u64,
    /// Tasks refused because the queue was full.
    pub rejected: u64,
    /// Spare workers injected to replace blocked ones.
    pub spares_spawned: u64,
    /// Tasks that panicked (the worker survives).
    pub panicked: u64,
}

/// A fixed set of named worker threads executing the kernel's deferred
/// tasks; see the module docs for the scheduling model.
pub struct VirtualProcessorPool {
    shared: Arc<Shared>,
    base: Mutex<Vec<shim::thread::JoinHandle<()>>>,
}

impl VirtualProcessorPool {
    /// Starts `workers` base workers for `node`, with a task queue
    /// bounded at `queue_cap`. Pressure metrics are registered in `obs`
    /// (`vproc.busy`, `vproc.queue_depth`, `vproc.task_wait`, …), so
    /// the Monitor object and the Prometheus export see them.
    pub fn new(node: NodeId, workers: usize, queue_cap: usize, obs: &Arc<ObsRegistry>) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                live: workers,
                idle: 0,
                blocked: 0,
                lent: 0,
                busy_since: std::collections::BTreeMap::new(),
                stop: false,
            }),
            cv: Condvar::new(),
            exited: Condvar::new(),
            node,
            workers,
            queue_cap: queue_cap.max(1),
            obs: Arc::clone(obs),
            busy: obs.gauge("vproc.busy"),
            queue_depth: obs.gauge("vproc.queue_depth"),
            task_wait: obs.histogram("vproc.task_wait"),
            executed: obs.counter("vproc.executed"),
            rejected: obs.counter("vproc.rejected"),
            spares: obs.counter("vproc.spares_spawned"),
            panicked: obs.counter("vproc.panicked"),
        });
        let pool = VirtualProcessorPool {
            shared,
            base: Mutex::new(Vec::with_capacity(workers)),
        };
        let mut base = pool.base.lock();
        for i in 0..workers {
            let shared = pool.shared.clone();
            let handle = shim::thread::Builder::new()
                .name(format!("eden-vproc-{node}-{i}"))
                .spawn(move || worker_loop(shared, false, i as u16))
                .expect("spawn virtual-processor worker");
            base.push(handle);
        }
        drop(base);
        pool
    }

    /// Queues `job` for execution on a pool worker.
    ///
    /// Fails with [`SubmitError::Overloaded`] when the queue is at
    /// capacity (the job is dropped; the caller owes the invoker a
    /// `Status::Overloaded` reply) and [`SubmitError::Closed`] after
    /// shutdown.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) -> Result<(), SubmitError> {
        self.submit_traced(job, None)
    }

    /// [`submit`](Self::submit) for a task belonging to a traced
    /// invocation: at dequeue the worker records a retroactive
    /// `vproc-wait` span (stage `vproc-queue`) covering the task's whole
    /// queue residency, parented on `trace`. Untraced tasks (`None`)
    /// skip all span work.
    pub fn submit_traced(
        &self,
        job: impl FnOnce() + Send + 'static,
        trace: Option<TraceCtx>,
    ) -> Result<(), SubmitError> {
        self.submit_batch(vec![(Box::new(job), trace)])
            .pop()
            .expect("one verdict per task")
    }

    /// The pool's one admission path: all `tasks` are enqueued under
    /// **one** lock acquisition and one wakeup, so a receive-loop frame
    /// batch pays the pool's synchronization cost once instead of once
    /// per invocation ([`submit_traced`](Self::submit_traced) is the
    /// one-task case).
    ///
    /// Admission is per task: the i-th result is the i-th task's
    /// verdict (tasks past the queue cap shed with `Overloaded`; the
    /// caller owes each rejected invocation its backpressure reply).
    pub fn submit_batch(&self, tasks: Vec<BatchTask>) -> Vec<Result<(), SubmitError>> {
        if tasks.is_empty() {
            return Vec::new();
        }
        let mut results = Vec::with_capacity(tasks.len());
        let mut accepted = 0usize;
        let spawn_spare = {
            let mut st = self.shared.state.lock();
            for (job, trace) in tasks {
                if st.stop {
                    results.push(Err(SubmitError::Closed));
                    continue;
                }
                if st.queue.len() >= self.shared.queue_cap {
                    self.shared.rejected.inc();
                    results.push(Err(SubmitError::Overloaded));
                    continue;
                }
                st.queue.push_back(Task {
                    job,
                    enqueued_ns: now_ns(),
                    trace,
                });
                accepted += 1;
                results.push(Ok(()));
            }
            if accepted > 0 {
                self.shared.queue_depth.add(accepted as i64);
            }
            self.shared.reserve_spare(&mut st)
        };
        match accepted {
            0 => {}
            1 => self.shared.cv.notify_one(),
            _ => self.shared.cv.notify_all(),
        }
        if spawn_spare {
            self.shared.spawn_spare();
        }
        results
    }

    /// One stall-watchdog probe: queue backlog with the oldest task's
    /// residency, and the longest-running in-flight task, ages computed
    /// at probe time. Cheap — one lock acquisition, no allocation
    /// beyond the map walk.
    pub fn stall_probe(&self) -> VprocProbe {
        let now = now_ns();
        let st = self.shared.state.lock();
        VprocProbe {
            queued: st.queue.len(),
            oldest_wait_ns: st
                .queue
                .front()
                .map(|t| now.saturating_sub(t.enqueued_ns))
                .unwrap_or(0),
            busiest: st
                .busy_since
                .iter()
                .map(|(&wid, &since)| (wid, now.saturating_sub(since)))
                .max_by_key(|&(_, age)| age),
        }
    }

    /// Current pool shape and lifetime counters.
    pub fn stats(&self) -> VprocStats {
        let st = self.shared.state.lock();
        VprocStats {
            workers: self.shared.workers,
            live: st.live,
            idle: st.idle,
            blocked: st.blocked,
            lent: st.lent,
            queued: st.queue.len(),
            queue_cap: self.shared.queue_cap,
            executed: self.shared.executed.get(),
            rejected: self.shared.rejected.get(),
            spares_spawned: self.shared.spares.get(),
            panicked: self.shared.panicked.get(),
        }
    }

    /// Lends the calling thread a free processor of the complement, so
    /// it runs a ready task itself instead of handing it to a worker.
    /// `None` unless the caller is not a pool worker, nothing is
    /// queued, and fewer than the complement are running. A traced
    /// task's `vproc-wait` span is recorded as the empty interval.
    /// Dropping the guard gives the processor back; see the module docs.
    pub fn lend(&self, trace: Option<TraceCtx>) -> Option<Lent> {
        if WORKER_OF.with(|w| w.borrow().is_some()) {
            return None;
        }
        let now = now_ns();
        let wid = {
            let mut st = self.shared.state.lock();
            if st.stop || !st.queue.is_empty() || st.running() >= self.shared.workers {
                return None;
            }
            st.lent += 1;
            let wid = (LENT_IDS..u16::MAX)
                .find(|id| !st.busy_since.contains_key(id))
                .unwrap_or(u16::MAX - 1);
            st.busy_since.insert(wid, now);
            wid
        };
        WORKER_OF.with(|w| *w.borrow_mut() = Some(Arc::clone(&self.shared)));
        self.shared.busy.inc();
        self.shared.executed.inc();
        self.shared.task_wait.record(0);
        if let Some(trace) = trace {
            self.shared
                .obs
                .record_span_staged("vproc-wait", stage::VPROC_QUEUE, trace, now, now);
        }
        Some(Lent {
            shared: Arc::clone(&self.shared),
            wid,
            _thread: PhantomData,
        })
    }

    /// Stops accepting work and drains: base workers finish every task
    /// already queued, then exit, and lent processors come back.
    /// Processors wedged in a long-running operation are abandoned
    /// after a grace period rather than hanging the caller (they still
    /// exit once their task completes).
    pub fn shutdown(&self) {
        let deadline = Instant::now() + SHUTDOWN_GRACE;
        let mut st = self.shared.state.lock();
        if st.stop {
            return;
        }
        st.stop = true;
        self.shared.cv.notify_all();
        while st.live + st.lent > 0 {
            let left = deadline.saturating_duration_since(Instant::now());
            if self.shared.exited.wait_for(&mut st, left).timed_out() {
                break;
            }
        }
        let all_exited = st.live == 0;
        drop(st);
        for handle in self.base.lock().drain(..) {
            if all_exited || handle.is_finished() {
                let _ = handle.join();
            }
        }
    }
}

/// A processor of the complement lent to a thread outside the pool by
/// [`VirtualProcessorPool::lend`], which counts the task it runs as
/// executed; dropping it gives the processor back.
pub struct Lent {
    shared: Arc<Shared>,
    wid: u16,
    /// Not `Send`: the guard marks its own thread as a worker.
    _thread: PhantomData<*const ()>,
}

impl Drop for Lent {
    fn drop(&mut self) {
        WORKER_OF.with(|w| *w.borrow_mut() = None);
        self.shared.busy.dec();
        if std::thread::panicking() {
            self.shared.panicked.inc();
        }
        let mut st = self.shared.state.lock();
        st.lent -= 1;
        st.busy_since.remove(&self.wid);
        self.shared.freed(&st);
    }
}

fn worker_loop(shared: Arc<Shared>, spare: bool, wid: u16) {
    WORKER_OF.with(|w| *w.borrow_mut() = Some(Arc::clone(&shared)));
    loop {
        let dequeued_ns;
        let task = {
            let mut st = shared.state.lock();
            let task = loop {
                // More workers run than the complement once a worker is
                // back from a wait a spare covered: no task starts until
                // a spare has retired.
                if st.running() <= shared.workers {
                    if let Some(task) = st.queue.pop_front() {
                        break Some(task);
                    }
                }
                // Spares exist only to cover a blocked-worker gap: they
                // retire once the queue is empty or the complement is
                // full again. Base workers park — and drain the
                // remaining queue on stop before exiting.
                if spare || (st.stop && st.queue.is_empty()) {
                    break None;
                }
                st.idle += 1;
                shared.cv.wait(&mut st);
                st.idle -= 1;
            };
            dequeued_ns = now_ns();
            if task.is_some() {
                st.busy_since.insert(wid, dequeued_ns);
            }
            task
        };
        let Some(task) = task else { break };
        shared.queue_depth.dec();
        shared
            .task_wait
            .record(dequeued_ns.saturating_sub(task.enqueued_ns));
        // Queue residency becomes a retroactive critical-path span —
        // only for traced tasks; sampled-out work does no span work.
        if let Some(trace) = task.trace {
            shared.obs.record_span_staged(
                "vproc-wait",
                stage::VPROC_QUEUE,
                trace,
                task.enqueued_ns,
                dequeued_ns,
            );
        }
        shared.busy.inc();
        shared.executed.inc();
        // Panic isolation: one panicking task must not kill its worker.
        // (Operation panics are already caught in `run_invocation`; this
        // is the backstop for every other task the kernel queues.)
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(task.job));
        shared.busy.dec();
        if outcome.is_err() {
            shared.panicked.inc();
        }
        shared.state.lock().busy_since.remove(&wid);
    }
    let mut st = shared.state.lock();
    st.live -= 1;
    shared.freed(&st);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn pool(workers: usize, cap: usize) -> VirtualProcessorPool {
        let obs = Arc::new(ObsRegistry::new(0));
        VirtualProcessorPool::new(NodeId(0), workers, cap, &obs)
    }

    #[test]
    fn executes_submitted_tasks() {
        let p = pool(2, 64);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..16 {
            let done = done.clone();
            p.submit(move || {
                done.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while done.load(Ordering::SeqCst) < 16 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(done.load(Ordering::SeqCst), 16);
        p.shutdown();
    }

    #[test]
    fn overflow_is_rejected_not_queued() {
        let p = pool(1, 2);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        // Wedge the single worker so the queue backs up.
        let g = gate.clone();
        p.submit(move || {
            let mut open = g.0.lock();
            while !*open {
                g.1.wait(&mut open);
            }
        })
        .unwrap();
        // Wait until the worker has actually taken the wedge task.
        let deadline = Instant::now() + Duration::from_secs(5);
        while p.stats().queued > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        p.submit(|| {}).unwrap();
        p.submit(|| {}).unwrap();
        assert_eq!(p.submit(|| {}), Err(SubmitError::Overloaded));
        assert!(p.stats().rejected >= 1);
        *gate.0.lock() = true;
        gate.1.notify_all();
        p.shutdown();
    }

    #[test]
    fn submit_batch_runs_all_and_sheds_past_the_cap() {
        let p = pool(1, 4);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = gate.clone();
        // Wedge the single worker so the batch lands in the queue.
        p.submit(move || {
            let mut open = g.0.lock();
            while !*open {
                g.1.wait(&mut open);
            }
        })
        .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while p.stats().queued > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Six tasks into a cap-4 queue: per-item verdicts, the first
        // four accepted, the tail shed with Overloaded.
        let done = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<BatchTask> = (0..6)
            .map(|_| {
                let d = done.clone();
                let job: Job = Box::new(move || {
                    d.fetch_add(1, Ordering::SeqCst);
                });
                (job, None)
            })
            .collect();
        let results = p.submit_batch(tasks);
        assert_eq!(results.len(), 6);
        assert!(results[..4].iter().all(Result::is_ok));
        assert_eq!(results[4], Err(SubmitError::Overloaded));
        assert_eq!(results[5], Err(SubmitError::Overloaded));
        *gate.0.lock() = true;
        gate.1.notify_all();
        let deadline = Instant::now() + Duration::from_secs(5);
        while done.load(Ordering::SeqCst) < 4 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(done.load(Ordering::SeqCst), 4, "accepted tasks all ran");
        p.shutdown();
        assert_eq!(
            p.submit_batch(vec![(Box::new(|| {}) as Box<dyn FnOnce() + Send>, None)]),
            vec![Err(SubmitError::Closed)]
        );
    }

    #[test]
    fn panicking_task_does_not_kill_the_worker() {
        let p = pool(1, 64);
        p.submit(|| panic!("boom")).unwrap();
        let done = Arc::new(AtomicUsize::new(0));
        let d = done.clone();
        p.submit(move || {
            d.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while done.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(done.load(Ordering::SeqCst), 1);
        assert_eq!(p.stats().panicked, 1);
        p.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_tasks() {
        let p = pool(1, 1024);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            let d = done.clone();
            p.submit(move || {
                d.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        p.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 64);
        assert_eq!(p.submit(|| {}), Err(SubmitError::Closed));
    }

    #[test]
    fn blocked_worker_is_replaced_by_a_spare() {
        let p = pool(1, 64);
        // Outside the pool there is no processor to give back.
        assert_eq!(blocking(|| p.stats().blocked), 0);
        let unblocker = Arc::new(AtomicUsize::new(0));
        // The single worker's task blocks until a *second* task — which
        // can only run if a spare is injected — unblocks it. A nested
        // scope yields nothing more.
        let u2 = unblocker.clone();
        p.submit(move || {
            blocking(|| {
                blocking(|| {
                    let deadline = Instant::now() + Duration::from_secs(5);
                    while u2.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                })
            });
        })
        .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while p.stats().blocked == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(p.stats().blocked, 1);
        let u3 = unblocker.clone();
        p.submit(move || {
            u3.store(1, Ordering::SeqCst);
        })
        .unwrap();
        while unblocker.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(unblocker.load(Ordering::SeqCst), 1, "spare never ran");
        assert!(p.stats().spares_spawned >= 1);
        p.shutdown();
    }

    #[test]
    fn traced_task_records_queue_residency_span() {
        let obs = Arc::new(ObsRegistry::new(7));
        let p = VirtualProcessorPool::new(NodeId(7), 1, 64, &obs);
        let root = obs.root_span("invoke");
        let ctx = root.ctx();
        p.submit_traced(|| {}, Some(ctx)).unwrap();
        // An untraced task must add nothing.
        p.submit(|| {}).unwrap();
        p.shutdown();
        root.finish();
        let spans = obs.traces().spans_for(ctx.trace_id);
        let waits: Vec<_> = spans.iter().filter(|s| s.name == "vproc-wait").collect();
        assert_eq!(waits.len(), 1, "spans: {spans:?}");
        assert_eq!(waits[0].stage, stage::VPROC_QUEUE);
        assert_eq!(waits[0].parent_span, ctx.span_id);
        assert!(waits[0].end_ns >= waits[0].start_ns);
    }

    #[test]
    fn stall_probe_sees_backlog_and_busy_worker() {
        let p = pool(1, 64);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = gate.clone();
        p.submit(move || {
            let mut open = g.0.lock();
            while !*open {
                g.1.wait(&mut open);
            }
        })
        .unwrap();
        // Wait for the worker to take the wedge, then queue one more.
        let deadline = Instant::now() + Duration::from_secs(5);
        while p.stats().queued > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        p.submit(|| {}).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        let probe = p.stall_probe();
        assert_eq!(probe.queued, 1);
        assert!(probe.oldest_wait_ns > 0, "queued task must age");
        let (wid, busy_ns) = probe.busiest.expect("wedged worker visible");
        assert_eq!(wid, 0);
        assert!(busy_ns > 0);
        *gate.0.lock() = true;
        gate.1.notify_all();
        p.shutdown();
        let after = p.stall_probe();
        assert_eq!(after.queued, 0);
        assert!(after.busiest.is_none(), "probe after drain: {after:?}");
    }

    #[test]
    fn a_lent_processor_counts_against_the_complement() {
        let p = Arc::new(pool(1, 64));
        // A worker counts as running until it has parked for work.
        let deadline = Instant::now() + Duration::from_secs(5);
        while p.stats().idle == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let cpu = p.lend(None).expect("an idle pool lends its processor");
        assert_eq!(p.stats().lent, 1);
        assert!(p
            .stall_probe()
            .busiest
            .is_some_and(|(wid, _)| wid >= LENT_IDS));
        // The complement is full, and the holder counts as a worker.
        let p2 = p.clone();
        assert!(std::thread::spawn(move || p2.lend(None).is_none())
            .join()
            .unwrap());
        assert!(p.lend(None).is_none());
        // A task queued behind the lent processor runs once it is back.
        let done = Arc::new(AtomicUsize::new(0));
        let (d, p3) = (done.clone(), p.clone());
        p.submit(move || {
            assert!(p3.lend(None).is_none(), "a worker is never lent one");
            d.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(done.load(Ordering::SeqCst), 0, "ran past the complement");
        drop(cpu);
        let deadline = Instant::now() + Duration::from_secs(5);
        while done.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(done.load(Ordering::SeqCst), 1);
        p.shutdown();
        let stats = p.stats();
        assert_eq!((stats.lent, stats.executed), (0, 2));
        assert!(p.lend(None).is_none(), "a stopped pool lends nothing");
    }

    #[test]
    fn a_task_counts_as_executed_before_it_returns() {
        let p = pool(1, 64);
        let replied = Arc::new(crate::waiter::Waiter::new());
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let (r, g) = (replied.clone(), gate.clone());
        p.submit(move || {
            // The task's reply goes out, then the task runs on.
            r.complete(());
            let mut open = g.0.lock();
            while !*open {
                g.1.wait(&mut open);
            }
        })
        .unwrap();
        assert_eq!(replied.wait(Duration::from_secs(5)), Some(()));
        assert_eq!(p.stats().executed, 1, "a replied task is counted");
        *gate.0.lock() = true;
        gate.1.notify_all();
        p.shutdown();
        assert_eq!(p.stats().executed, 1);
    }

    #[test]
    fn a_lent_processor_counts_its_task_while_held() {
        let p = pool(1, 64);
        let deadline = Instant::now() + Duration::from_secs(5);
        while p.stats().idle == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let cpu = p.lend(None).expect("an idle pool lends its processor");
        assert_eq!(p.stats().executed, 1, "counted when lent");
        drop(cpu);
        assert_eq!(p.stats().executed, 1, "and not again when returned");
        p.shutdown();
    }

    #[test]
    fn steady_state_thread_count_is_bounded() {
        let p = pool(3, 4096);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..256 {
            let d = done.clone();
            p.submit(move || {
                d.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
            assert!(
                p.stats().live <= 3,
                "non-blocking load must not grow the pool"
            );
        }
        p.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 256);
    }
}
