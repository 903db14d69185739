//! Counters and gauges, the two scalar metric kinds, and
//! [`metrics!`](crate::metrics), which declares a family of counters
//! once.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotone event counter. All operations are relaxed atomics — safe
/// to bump from any kernel thread without coordination.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1)
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An instantaneous level (queue depth, in-service count). Signed so a
/// dec racing ahead of its inc cannot wrap.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1)
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.add(-1)
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Sets the level outright.
    pub fn set(&self, n: i64) {
        self.value.store(n, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Declares a family of counters once: a `Copy` snapshot struct with
/// one `u64` per counter and a saturating `delta`, and a cell holding an
/// `Arc<Counter>` handle per counter that its `register` publishes in an
/// [`ObsRegistry`](crate::ObsRegistry) as `<prefix>.<field>`. Handles
/// count from construction, so counts made before registration show. A
/// counter written `field => method` also gets an increment method.
/// Fields under `levels` are instantaneous levels kept elsewhere: they
/// appear in the snapshot only, read zero in the cell's snapshot for the
/// owner to fill in, and `delta` carries the later level through.
///
/// ```
/// eden_obs::metrics! {
///     /// Snapshot.
///     pub struct DiskStats;
///     /// Handles.
///     pub struct DiskCounters => "disk";
///     counters {
///         /// Blocks written.
///         writes,
///     }
///     levels {
///         /// Blocks queued.
///         queued,
///     }
/// }
/// let c = DiskCounters::default();
/// let before = c.snapshot();
/// c.writes.add(3);
/// let obs = eden_obs::ObsRegistry::new(0);
/// c.register(&obs);
/// assert_eq!(obs.counters_snapshot()["disk.writes"], 3);
/// assert_eq!(c.snapshot().delta(&before).writes, 3);
/// ```
#[macro_export]
macro_rules! metrics {
    (
        $(#[$snap_meta:meta])*
        pub struct $snap:ident;
        $(#[$cell_meta:meta])*
        pub struct $cell:ident => $prefix:literal;
        counters { $($(#[$meta:meta])* $field:ident $(=> $bump:ident)?,)* }
        $(levels { $($(#[$level_meta:meta])* $level:ident,)* })?
    ) => {
        $(#[$snap_meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct $snap {
            $($(#[$meta])* pub $field: u64,)*
            $($($(#[$level_meta])* pub $level: u64,)*)?
        }

        $(#[$cell_meta])*
        #[derive(Debug, Default)]
        pub struct $cell {
            $($(#[$meta])* pub $field: ::std::sync::Arc<$crate::Counter>,)*
        }

        impl $cell {
            /// Publishes every counter in `obs` as `<prefix>.<field>`.
            pub fn register(&self, obs: &$crate::ObsRegistry) {
                $(obs.register_counter(concat!($prefix, ".", stringify!($field)), &self.$field);)*
            }

            $($(
                /// Increments the corresponding counter.
                pub fn $bump(&self) {
                    self.$field.inc();
                }
            )?)*

            /// Takes a snapshot of every counter; levels read zero.
            pub fn snapshot(&self) -> $snap {
                $snap {
                    $($field: self.$field.get(),)*
                    $($($level: 0,)*)?
                }
            }
        }

        impl $snap {
            /// The difference `self - earlier`, for measuring an interval:
            /// counters subtract, saturating at zero; levels carry
            /// `self`'s value through.
            #[must_use]
            pub fn delta(&self, earlier: &$snap) -> $snap {
                $snap {
                    $($field: self.$field.saturating_sub(earlier.$field),)*
                    $($($level: self.$level,)*)?
                }
            }
        }
    };
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, reason = "tests start their own threads")]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_and_gauges_track_concurrent_updates() {
        let c = Arc::new(Counter::new());
        let g = Arc::new(Gauge::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (c, g) = (Arc::clone(&c), Arc::clone(&g));
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                        g.inc();
                        g.dec();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 8000);
        assert_eq!(g.get(), 0);
    }
}
