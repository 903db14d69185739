//! Kernel-supplied intra-object synchronization primitives.
//!
//! §4.2: "for fine-grained synchronization control, programmers can use
//! kernel-supplied *semaphore* and *message port* primitives." Both are
//! per-object, created on demand by name through the [`OpCtx`], and live
//! in the short-term state — they are never checkpointed and are rebuilt
//! empty on reincarnation (§4.1: short-term state "is never written to
//! long-term storage").
//!
//! A process parked on either primitive yields its virtual processor
//! ([`blocking`]), as §4.2 intends, so the process that will release it
//! can run even on a node with a single processor. The uncontended
//! paths never touch the pool.
//!
//! [`OpCtx`]: crate::OpCtx

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use eden_wire::Value;

use self::shim::{Condvar, Mutex};
use crate::vproc::blocking;

/// The sync primitives the kernel's concurrency-sensitive paths build
/// on, swappable at compile time for model checking.
///
/// Normally these are `parking_lot` and `std::thread`. Under
/// `RUSTFLAGS="--cfg loom"` (the `scripts/ci.sh loom` target) they
/// become the `loom` crate's instrumented equivalents, so the
/// [`VirtualProcessorPool`](crate::vproc::VirtualProcessorPool) and the
/// intra-object primitives in this module run under the model checker's
/// schedule exploration without any source changes. The two APIs are
/// kept parking_lot-shaped (`lock()` returns the guard directly).
pub mod shim {
    #[cfg(loom)]
    pub use loom::sync::{Condvar, Mutex};
    #[cfg(loom)]
    pub use loom::thread;
    #[cfg(not(loom))]
    pub use parking_lot::{Condvar, Mutex};
    #[cfg(not(loom))]
    pub use std::thread;
    // The dependency is unconditional (see Cargo.toml); this marks it
    // used for `unused_crate_dependencies` when the cfg is off.
    #[cfg(not(loom))]
    use loom as _;
}

/// A counting semaphore for invocation processes and behaviors within one
/// object.
pub struct EdenSemaphore {
    count: Mutex<u64>,
    cv: Condvar,
}

impl EdenSemaphore {
    /// A semaphore with `initial` permits.
    pub fn new(initial: u64) -> Self {
        EdenSemaphore {
            count: Mutex::new(initial),
            cv: Condvar::new(),
        }
    }

    /// P: blocks until a permit is available, then takes it.
    pub fn p(&self) {
        park_until(&self.count, &self.cv, None, take_permit).expect("no deadline");
    }

    /// P with a deadline; `false` if it expired.
    pub fn p_timeout(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        park_until(&self.count, &self.cv, Some(deadline), take_permit).is_some()
    }

    /// Non-blocking P.
    pub fn try_p(&self) -> bool {
        take_permit(&mut self.count.lock()).is_some()
    }

    /// V: releases one permit.
    pub fn v(&self) {
        let mut count = self.count.lock();
        *count += 1;
        self.cv.notify_one();
    }

    /// Current permit count (diagnostics only; racy by nature).
    pub fn permits(&self) -> u64 {
        *self.count.lock()
    }
}

fn take_permit(count: &mut u64) -> Option<()> {
    (*count > 0).then(|| *count -= 1)
}

/// Runs `step` on the state behind `lock` until it returns `Some`,
/// parking on `cv` between tries; `None` once `deadline` passes. Only a
/// caller that has to park yields its virtual processor, and it parks
/// inside [`blocking`] with no lock held on entry or exit, so the pool's
/// lock is never taken under this one.
fn park_until<T, R>(
    lock: &Mutex<T>,
    cv: &Condvar,
    deadline: Option<Instant>,
    mut step: impl FnMut(&mut T) -> Option<R>,
) -> Option<R> {
    if let Some(r) = step(&mut lock.lock()) {
        return Some(r);
    }
    blocking(|| {
        let mut state = lock.lock();
        loop {
            if let Some(r) = step(&mut state) {
                return Some(r);
            }
            match deadline {
                None => cv.wait(&mut state),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return None;
                    }
                    cv.wait_for(&mut state, deadline - now);
                }
            }
        }
    })
}

/// A many-producer, many-consumer port carrying [`Value`]s between the
/// processes of one object (invocations and behaviors).
pub struct MessagePort {
    queue: Mutex<PortState>,
    recv_cv: Condvar,
    send_cv: Condvar,
}

struct PortState {
    items: VecDeque<Value>,
    capacity: Option<usize>,
    closed: bool,
}

impl MessagePort {
    /// An unbounded port.
    pub fn unbounded() -> Self {
        MessagePort::with_capacity(None)
    }

    /// A port that blocks senders beyond `capacity` queued messages.
    pub fn bounded(capacity: usize) -> Self {
        MessagePort::with_capacity(Some(capacity))
    }

    fn with_capacity(capacity: Option<usize>) -> Self {
        MessagePort {
            queue: Mutex::new(PortState {
                items: VecDeque::new(),
                capacity,
                closed: false,
            }),
            recv_cv: Condvar::new(),
            send_cv: Condvar::new(),
        }
    }

    /// Sends a message, blocking while the port is full. Returns `false`
    /// if the port is closed.
    pub fn send(&self, value: Value) -> bool {
        let mut value = Some(value);
        park_until(&self.queue, &self.send_cv, None, |q| {
            if q.closed {
                return Some(false);
            }
            if q.capacity.is_some_and(|cap| q.items.len() >= cap) {
                return None;
            }
            q.items.push_back(value.take().expect("sent once"));
            self.recv_cv.notify_one();
            Some(true)
        })
        .expect("no deadline")
    }

    /// Receives the next message, blocking until one arrives or the port
    /// closes (then `None`).
    pub fn recv(&self) -> Option<Value> {
        self.recv_until(None)
    }

    /// Receives with a deadline; `None` on timeout or closure.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Value> {
        self.recv_until(Some(Instant::now() + timeout))
    }

    fn recv_until(&self, deadline: Option<Instant>) -> Option<Value> {
        park_until(&self.queue, &self.recv_cv, deadline, |q| {
            if let Some(v) = q.items.pop_front() {
                self.send_cv.notify_one();
                return Some(Some(v));
            }
            q.closed.then_some(None)
        })
        .flatten()
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Value> {
        let mut q = self.queue.lock();
        let v = q.items.pop_front();
        if v.is_some() {
            self.send_cv.notify_one();
        }
        v
    }

    /// Closes the port: senders fail, receivers drain then get `None`.
    /// Called by the kernel when the object crashes or moves.
    pub fn close(&self) {
        let mut q = self.queue.lock();
        q.closed = true;
        self.recv_cv.notify_all();
        self.send_cv.notify_all();
    }

    /// Messages currently queued.
    pub fn len(&self) -> usize {
        self.queue.lock().items.len()
    }

    /// Tests whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.lock().items.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn semaphore_counts_permits() {
        let s = EdenSemaphore::new(2);
        assert!(s.try_p());
        assert!(s.try_p());
        assert!(!s.try_p());
        s.v();
        assert!(s.try_p());
    }

    #[test]
    fn semaphore_p_blocks_until_v() {
        let s = Arc::new(EdenSemaphore::new(0));
        let s2 = s.clone();
        let t = std::thread::spawn(move || {
            s2.p();
            "woke"
        });
        std::thread::sleep(Duration::from_millis(20));
        s.v();
        assert_eq!(t.join().unwrap(), "woke");
    }

    #[test]
    fn semaphore_p_timeout_expires() {
        let s = EdenSemaphore::new(0);
        let start = Instant::now();
        assert!(!s.p_timeout(Duration::from_millis(25)));
        assert!(start.elapsed() >= Duration::from_millis(23));
        s.v();
        assert!(s.p_timeout(Duration::from_millis(25)));
    }

    #[test]
    fn semaphore_provides_mutual_exclusion() {
        let s = Arc::new(EdenSemaphore::new(1));
        let counter = Arc::new(Mutex::new((0u32, 0u32))); // (inside, max_inside)
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = s.clone();
            let counter = counter.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    s.p();
                    {
                        let mut c = counter.lock();
                        c.0 += 1;
                        c.1 = c.1.max(c.0);
                    }
                    std::thread::yield_now();
                    {
                        let mut c = counter.lock();
                        c.0 -= 1;
                    }
                    s.v();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.lock().1, 1, "critical section was never shared");
    }

    #[test]
    fn port_is_fifo() {
        let p = MessagePort::unbounded();
        for i in 0..10 {
            assert!(p.send(Value::I64(i)));
        }
        for i in 0..10 {
            assert_eq!(p.recv(), Some(Value::I64(i)));
        }
    }

    #[test]
    fn bounded_port_blocks_senders() {
        let p = Arc::new(MessagePort::bounded(1));
        assert!(p.send(Value::Unit));
        let p2 = p.clone();
        let t = std::thread::spawn(move || {
            let start = Instant::now();
            assert!(p2.send(Value::Bool(true)));
            start.elapsed()
        });
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(p.recv(), Some(Value::Unit));
        let blocked_for = t.join().unwrap();
        assert!(blocked_for >= Duration::from_millis(25), "{blocked_for:?}");
        assert_eq!(p.recv(), Some(Value::Bool(true)));
    }

    #[test]
    fn recv_timeout_expires_empty() {
        let p = MessagePort::unbounded();
        assert_eq!(p.recv_timeout(Duration::from_millis(20)), None);
    }

    #[test]
    fn close_wakes_everyone() {
        let p = Arc::new(MessagePort::unbounded());
        let p2 = p.clone();
        let receiver = std::thread::spawn(move || p2.recv());
        std::thread::sleep(Duration::from_millis(20));
        p.close();
        assert_eq!(receiver.join().unwrap(), None);
        assert!(!p.send(Value::Unit), "send after close must fail");
    }

    #[test]
    fn close_lets_receivers_drain() {
        let p = MessagePort::unbounded();
        p.send(Value::I64(1));
        p.close();
        assert_eq!(p.recv(), Some(Value::I64(1)));
        assert_eq!(p.recv(), None);
    }

    #[test]
    fn many_producers_one_consumer() {
        let p = Arc::new(MessagePort::unbounded());
        let mut handles = Vec::new();
        for t in 0..4i64 {
            let p = p.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..250 {
                    p.send(Value::I64(t * 1000 + i));
                }
            }));
        }
        let mut got = Vec::new();
        for _ in 0..1000 {
            got.push(p.recv().unwrap());
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(got.len(), 1000);
    }
}
