//! Loom models for the virtual-processor pool's load-bearing
//! properties: queue-full shedding, blocked-worker spare injection, a
//! process parked on an object semaphore yielding its processor,
//! shutdown draining, and processors lent to outside threads sharing
//! the complement. Compiled only under `RUSTFLAGS="--cfg loom"` —
//! run them with `scripts/ci.sh loom`, which also swaps the kernel's
//! sync shims (see `eden_kernel::sync::shim`) to loom's instrumented
//! primitives so the pool's lock/condvar traffic is under the model's
//! schedule control.
#![cfg(loom)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use eden_capability::NodeId;
use eden_kernel::vproc::{blocking, SubmitError, VirtualProcessorPool};
use eden_kernel::EdenSemaphore;
use eden_obs::ObsRegistry;
use loom::sync::{Arc, Condvar, Mutex};

fn pool(workers: usize, cap: usize) -> VirtualProcessorPool {
    let obs = std::sync::Arc::new(ObsRegistry::new(0));
    VirtualProcessorPool::new(NodeId(0), workers, cap, &obs)
}

fn wait_until(deadline: Duration, mut done: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + deadline;
    while !done() {
        if Instant::now() >= end {
            return false;
        }
        loom::thread::yield_now();
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

/// A full queue sheds with `Overloaded` — never blocks, never grows —
/// under every explored interleaving of submitter vs. worker.
#[test]
fn model_queue_full_sheds_overloaded() {
    loom::model(|| {
        let p = pool(1, 2);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = gate.clone();
        p.submit(move || {
            let mut open = g.0.lock();
            while !*open {
                g.1.wait(&mut open);
            }
        })
        .unwrap();
        // The wedge task must leave the queue before it can back up.
        assert!(
            wait_until(Duration::from_secs(5), || p.stats().queued == 0),
            "worker never picked up the wedge task"
        );
        p.submit(|| {}).unwrap();
        p.submit(|| {}).unwrap();
        assert_eq!(p.submit(|| {}), Err(SubmitError::Overloaded));
        let stats = p.stats();
        assert!(stats.rejected >= 1);
        assert!(stats.queued <= 2, "shedding must cap the queue");
        *gate.0.lock() = true;
        gate.1.notify_all();
        p.shutdown();
    });
}

/// A worker parked in a `blocking` scope is replaced by a spare, so the
/// task that unblocks it always gets a processor (no starvation
/// deadlock), and the pool shrinks back afterwards.
#[test]
fn model_blocked_worker_gets_a_spare() {
    loom::model(|| {
        let p = pool(1, 64);
        let unblocker = Arc::new(AtomicUsize::new(0));
        let u2 = unblocker.clone();
        p.submit(move || {
            blocking(|| {
                let end = Instant::now() + Duration::from_secs(5);
                while u2.load(Ordering::SeqCst) == 0 && Instant::now() < end {
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        })
        .unwrap();
        assert!(
            wait_until(Duration::from_secs(5), || p.stats().blocked == 1),
            "worker never entered the blocking scope"
        );
        let u3 = unblocker.clone();
        p.submit(move || {
            u3.store(1, Ordering::SeqCst);
        })
        .unwrap();
        assert!(
            wait_until(Duration::from_secs(5), || unblocker.load(Ordering::SeqCst)
                == 1),
            "spare never ran the unblocking task"
        );
        assert!(p.stats().spares_spawned >= 1);
        // Spares retire once the queue is empty and the blocked worker
        // returns: live settles back to the configured complement.
        assert!(
            wait_until(Duration::from_secs(5), || p.stats().live <= 1),
            "pool did not shrink back after the blocking scope"
        );
        p.shutdown();
    });
}

/// On a one-processor pool, a task parked in `EdenSemaphore::p` yields
/// its processor, so the task that V()s it runs — whichever of the two
/// the pool happens to start first — and the pool shrinks back to its
/// one worker afterwards.
#[test]
fn model_semaphore_wait_yields_the_processor() {
    loom::model(|| {
        let p = pool(1, 64);
        let sem = Arc::new(EdenSemaphore::new(0));
        let done = Arc::new(AtomicUsize::new(0));
        let (s2, d2) = (sem.clone(), done.clone());
        p.submit(move || {
            s2.p();
            d2.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        let (s3, d3) = (sem.clone(), done.clone());
        p.submit(move || {
            s3.v();
            d3.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        assert!(
            wait_until(Duration::from_secs(5), || done.load(Ordering::SeqCst) == 2),
            "the P()ing task starved the V()ing one"
        );
        assert!(
            wait_until(Duration::from_secs(5), || p.stats().live <= 1),
            "pool did not shrink back after the semaphore wait"
        );
        assert_eq!(sem.permits(), 0);
        p.shutdown();
    });
}

/// Shutdown drains every queued task exactly once, then refuses new
/// work, regardless of how submits interleave with the stop flag.
#[test]
fn model_shutdown_drains_then_closes() {
    loom::model(|| {
        let p = pool(1, 1024);
        let done = Arc::new(AtomicUsize::new(0));
        let mut accepted = 0usize;
        for _ in 0..24 {
            let d = done.clone();
            if p.submit(move || {
                d.fetch_add(1, Ordering::SeqCst);
            })
            .is_ok()
            {
                accepted += 1;
            }
        }
        p.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), accepted);
        assert_eq!(p.submit(|| {}), Err(SubmitError::Closed));
        assert_eq!(done.load(Ordering::SeqCst), accepted, "no task ran twice");
    });
}

/// Marks one thread as running on a processor while `f` runs, keeping
/// the peak count.
fn on_processor(inside: &AtomicUsize, peak: &AtomicUsize, f: impl FnOnce()) {
    let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
    peak.fetch_max(now, Ordering::SeqCst);
    loom::thread::yield_now();
    f();
    inside.fetch_sub(1, Ordering::SeqCst);
}

/// Client threads that run work on lent processors, and the pool's
/// workers, together never run more than the complement, whichever of
/// lending and submitting wins each race.
#[test]
fn model_lent_processors_share_the_complement() {
    loom::model(|| {
        let p = std::sync::Arc::new(pool(2, 64));
        let inside = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let done = Arc::new(AtomicUsize::new(0));
        let clients: Vec<_> = (0..3)
            .map(|_| {
                let (p, inside, peak, done) =
                    (p.clone(), inside.clone(), peak.clone(), done.clone());
                loom::thread::spawn(move || {
                    for _ in 0..2 {
                        let (i, k, d) = (inside.clone(), peak.clone(), done.clone());
                        let work = move || {
                            on_processor(&i, &k, || {});
                            d.fetch_add(1, Ordering::SeqCst);
                        };
                        match p.lend(None) {
                            Some(cpu) => {
                                work();
                                drop(cpu);
                            }
                            None => p.submit(work).unwrap(),
                        }
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        assert!(
            wait_until(Duration::from_secs(5), || done.load(Ordering::SeqCst) == 6),
            "queued work never ran"
        );
        assert!(peak.load(Ordering::SeqCst) <= 2, "ran past the complement");
        p.shutdown();
        assert_eq!(p.stats().lent, 0);
    });
}

/// A worker parked behind a lent processor — the complement was full
/// when work arrived — is woken when the processor comes back.
#[test]
fn model_returning_a_lent_processor_wakes_a_parked_worker() {
    loom::model(|| {
        let p = pool(1, 64);
        let inside = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let done = Arc::new(AtomicUsize::new(0));
        // A worker counts as running until it has parked for work.
        assert!(wait_until(Duration::from_secs(5), || p.stats().idle == 1));
        let cpu = p.lend(None).expect("an idle pool lends its processor");
        on_processor(&inside, &peak, || {
            let (i, k, d) = (inside.clone(), peak.clone(), done.clone());
            p.submit(move || {
                on_processor(&i, &k, || {});
                d.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
            loom::thread::yield_now();
        });
        drop(cpu);
        assert!(
            wait_until(Duration::from_secs(5), || done.load(Ordering::SeqCst) == 1),
            "returning the lent processor did not wake the worker"
        );
        assert_eq!(peak.load(Ordering::SeqCst), 1, "ran past the complement");
        p.shutdown();
    });
}
