//! In-tree shim for the `loom` crate (offline build environment).
//!
//! Real loom model-checks a closure by running it under a virtual
//! scheduler and exhaustively (DPOR-pruned) enumerating interleavings
//! of its `loom::sync` operations. This build environment has no
//! registry access, so this shim keeps loom's API *shape* — [`model`],
//! [`thread`], [`sync`] — while exploring interleavings statistically
//! instead of exhaustively: the model body runs many times on real OS
//! threads, each iteration under a distinct seed, and every touch of a
//! shim sync primitive calls [`step`], which uses the seeded per-thread
//! RNG to sometimes yield or briefly sleep. That perturbs the OS
//! scheduler into orderings a plain stress loop rarely reaches.
//!
//! The trade-off is honest: this shim can only *find* races and
//! deadlocks, never prove their absence. Swapping in the real crate is
//! a `Cargo.toml` one-liner when a registry is available — the test
//! code does not change.
//!
//! Iteration count defaults to 64 and can be raised with the
//! `LOOM_ITERS` environment variable (the real crate's
//! `LOOM_MAX_BRANCHES` knob has no analogue here).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Seed for the current model iteration; thread RNGs derive from it.
static ITERATION_SEED: AtomicU64 = AtomicU64::new(0x9e3779b97f4a7c15);
/// Per-process spawn counter, mixed into each thread's RNG stream.
static SPAWN_COUNTER: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static RNG: Cell<u64> = const { Cell::new(0) };
}

fn seed_this_thread() {
    let iter = ITERATION_SEED.load(Ordering::Relaxed);
    let salt = SPAWN_COUNTER.fetch_add(1, Ordering::Relaxed);
    RNG.with(|r| r.set(splitmix(iter ^ splitmix(salt + 1))));
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

fn next_rand() -> u64 {
    RNG.with(|r| {
        let mut x = r.get();
        if x == 0 {
            x = splitmix(ITERATION_SEED.load(Ordering::Relaxed));
        }
        // xorshift64*
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        r.set(x);
        x.wrapping_mul(0x2545f4914f6cdd1d)
    })
}

/// A scheduling perturbation point. Called by every shim sync-primitive
/// touch; model bodies may also call it directly between lock-free
/// operations (e.g. around `Histogram::record`) to widen the explored
/// orderings.
pub fn step() {
    match next_rand() % 16 {
        0..=2 => std::thread::yield_now(),
        3 => std::thread::sleep(std::time::Duration::from_micros(next_rand() % 50)),
        _ => {}
    }
}

/// Runs `f` under many seeded schedules. Panics (test failure)
/// propagate from any iteration.
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    let iters: u64 = std::env::var("LOOM_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64);
    for i in 0..iters {
        ITERATION_SEED.store(splitmix(0xEDE0 + i), Ordering::Relaxed);
        seed_this_thread();
        f();
    }
}

/// Loom-shaped thread handling: real OS threads whose closures are
/// wrapped to join the current iteration's RNG stream.
pub mod thread {
    pub use std::thread::{current, sleep, yield_now, JoinHandle};

    /// Spawns a thread seeded into the model's RNG stream.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        std::thread::spawn(move || {
            super::seed_this_thread();
            super::step();
            f()
        })
    }

    /// Mirror of `std::thread::Builder` (name + spawn only).
    pub struct Builder {
        inner: std::thread::Builder,
    }

    impl Default for Builder {
        fn default() -> Builder {
            Builder::new()
        }
    }

    impl Builder {
        /// A new builder with no name set.
        pub fn new() -> Builder {
            Builder {
                inner: std::thread::Builder::new(),
            }
        }

        /// Names the thread.
        pub fn name(self, name: String) -> Builder {
            Builder {
                inner: self.inner.name(name),
            }
        }

        /// Spawns the thread, seeded into the model's RNG stream.
        pub fn spawn<F, T>(self, f: F) -> std::io::Result<JoinHandle<T>>
        where
            F: FnOnce() -> T + Send + 'static,
            T: Send + 'static,
        {
            self.inner.spawn(move || {
                super::seed_this_thread();
                super::step();
                f()
            })
        }
    }
}

/// Loom-shaped sync primitives: parking_lot-flavoured API (guards, not
/// `Result`s) with a [`step`] on every touch.
pub mod sync {
    pub use std::sync::Arc;

    /// A mutex that perturbs scheduling on every acquisition.
    pub struct Mutex<T: ?Sized> {
        inner: parking_lot::Mutex<T>,
    }

    impl<T> Mutex<T> {
        /// Creates the mutex.
        pub fn new(value: T) -> Mutex<T> {
            Mutex {
                inner: parking_lot::Mutex::new(value),
            }
        }

        /// Consumes the mutex, returning its value.
        pub fn into_inner(self) -> T {
            self.inner.into_inner()
        }
    }

    impl<T: ?Sized> Mutex<T> {
        /// Acquires the lock (parking_lot-style: returns the guard).
        pub fn lock(&self) -> parking_lot::MutexGuard<'_, T> {
            super::step();
            let guard = self.inner.lock();
            super::step();
            guard
        }

        /// Tries to acquire the lock without blocking.
        pub fn try_lock(&self) -> Option<parking_lot::MutexGuard<'_, T>> {
            super::step();
            self.inner.try_lock()
        }
    }

    impl<T: Default> Default for Mutex<T> {
        fn default() -> Mutex<T> {
            Mutex::new(T::default())
        }
    }

    /// A condition variable that perturbs scheduling around waits.
    #[derive(Default)]
    pub struct Condvar {
        inner: parking_lot::Condvar,
    }

    impl Condvar {
        /// Creates the condvar.
        pub fn new() -> Condvar {
            Condvar {
                inner: parking_lot::Condvar::new(),
            }
        }

        /// Blocks until notified.
        pub fn wait<T>(&self, guard: &mut parking_lot::MutexGuard<'_, T>) {
            self.inner.wait(guard);
            super::step();
        }

        /// Blocks until notified or the timeout elapses.
        pub fn wait_for<T>(
            &self,
            guard: &mut parking_lot::MutexGuard<'_, T>,
            timeout: std::time::Duration,
        ) -> parking_lot::WaitTimeoutResult {
            let result = self.inner.wait_for(guard, timeout);
            super::step();
            result
        }

        /// Wakes one waiter.
        pub fn notify_one(&self) {
            super::step();
            self.inner.notify_one();
        }

        /// Wakes every waiter.
        pub fn notify_all(&self) {
            super::step();
            self.inner.notify_all();
        }
    }

    /// Atomics that perturb scheduling on every operation.
    pub mod atomic {
        pub use std::sync::atomic::Ordering;

        macro_rules! shim_atomic {
            ($name:ident, $std:ty, $value:ty) => {
                /// Atomic wrapper injecting a scheduling step per op.
                #[derive(Default)]
                pub struct $name {
                    inner: $std,
                }

                impl $name {
                    /// Creates the atomic.
                    pub const fn new(v: $value) -> $name {
                        $name {
                            inner: <$std>::new(v),
                        }
                    }

                    /// Atomic load.
                    pub fn load(&self, order: Ordering) -> $value {
                        super::super::step();
                        self.inner.load(order)
                    }

                    /// Atomic store.
                    pub fn store(&self, v: $value, order: Ordering) {
                        super::super::step();
                        self.inner.store(v, order);
                    }

                    /// Atomic add, returning the previous value.
                    pub fn fetch_add(&self, v: $value, order: Ordering) -> $value {
                        super::super::step();
                        self.inner.fetch_add(v, order)
                    }

                    /// Atomic swap, returning the previous value.
                    pub fn swap(&self, v: $value, order: Ordering) -> $value {
                        super::super::step();
                        self.inner.swap(v, order)
                    }

                    /// Compare-and-exchange.
                    pub fn compare_exchange(
                        &self,
                        current: $value,
                        new: $value,
                        success: Ordering,
                        failure: Ordering,
                    ) -> Result<$value, $value> {
                        super::super::step();
                        self.inner.compare_exchange(current, new, success, failure)
                    }
                }
            };
        }

        shim_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
        shim_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);

        /// Atomic bool wrapper injecting a scheduling step per op.
        #[derive(Default)]
        pub struct AtomicBool {
            inner: std::sync::atomic::AtomicBool,
        }

        impl AtomicBool {
            /// Creates the atomic.
            pub const fn new(v: bool) -> AtomicBool {
                AtomicBool {
                    inner: std::sync::atomic::AtomicBool::new(v),
                }
            }

            /// Atomic load.
            pub fn load(&self, order: Ordering) -> bool {
                super::super::step();
                self.inner.load(order)
            }

            /// Atomic store.
            pub fn store(&self, v: bool, order: Ordering) {
                super::super::step();
                self.inner.store(v, order);
            }

            /// Atomic swap, returning the previous value.
            pub fn swap(&self, v: bool, order: Ordering) -> bool {
                super::super::step();
                self.inner.swap(v, order)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::sync::atomic::{AtomicU64, Ordering};
    use super::sync::{Arc, Condvar, Mutex};

    #[test]
    fn model_runs_many_seeded_iterations() {
        let runs = Arc::new(AtomicU64::new(0));
        let r = runs.clone();
        super::model(move || {
            r.fetch_add(1, Ordering::SeqCst);
        });
        assert!(runs.load(Ordering::SeqCst) >= 2);
    }

    #[test]
    fn threads_and_mutexes_compose() {
        super::model(|| {
            let total = Arc::new(Mutex::new(0u64));
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let total = total.clone();
                    super::thread::spawn(move || {
                        for _ in 0..10 {
                            *total.lock() += 1;
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(*total.lock(), 30);
        });
    }

    #[test]
    fn condvar_wakes_waiters() {
        super::model(|| {
            let pair = Arc::new((Mutex::new(false), Condvar::new()));
            let p = pair.clone();
            let t = super::thread::spawn(move || {
                let mut ready = p.0.lock();
                while !*ready {
                    p.1.wait(&mut ready);
                }
            });
            *pair.0.lock() = true;
            pair.1.notify_all();
            t.join().unwrap();
        });
    }
}
