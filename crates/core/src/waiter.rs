//! Rendezvous cells for request/reply correlation.
//!
//! Every remote interaction in the kernel (invocation, checkpoint ack,
//! replica fetch, move ack, location query) is request/reply over a
//! best-effort network. A [`Waiter`] is the blocking rendezvous the
//! requesting thread parks on; the receive loop completes it when the
//! correlated reply frame arrives. [`QueryCollector`] is the multi-reply
//! variant used by the broadcast location protocol, where several nodes
//! may answer one `WhereIs`.

use std::time::{Duration, Instant};

use eden_capability::NodeId;
use eden_wire::HeldState;
use parking_lot::{Condvar, Mutex};

/// A one-shot rendezvous: one thread waits, one completes.
pub struct Waiter<T> {
    slot: Mutex<Option<T>>,
    cv: Condvar,
}

impl<T> Waiter<T> {
    /// An empty waiter.
    pub fn new() -> Self {
        Waiter {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    /// Deposits the value and wakes the waiter. A second completion is
    /// ignored (late duplicate replies are legal on a lossy network).
    pub fn complete(&self, value: T) {
        let mut slot = self.slot.lock();
        if slot.is_none() {
            *slot = Some(value);
            self.cv.notify_all();
        }
    }

    /// Blocks until completed or `timeout` elapses.
    pub fn wait(&self, timeout: Duration) -> Option<T> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.slot.lock();
        loop {
            if let Some(v) = slot.take() {
                return Some(v);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            self.cv.wait_for(&mut slot, deadline - now);
        }
    }
}

impl<T> Default for Waiter<T> {
    fn default() -> Self {
        Waiter::new()
    }
}

/// One answer to a location query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocationAnswer {
    /// The node that answered.
    pub holder: NodeId,
    /// How it holds the object.
    pub state: HeldState,
}

/// Collects `HereIs` answers for one broadcast `WhereIs`.
///
/// The waiter returns early as soon as an *active* holder answers (the
/// common case); otherwise it collects until the deadline so the caller
/// can pick the best passive/replica holder.
///
/// With an *expected responder count* (directory mode), the wait also
/// ends as soon as every live peer has answered — counting negative
/// (`NotHeld`) answers and peers that gossip declares dead — so a miss
/// costs one round trip instead of the full locate window.
pub struct QueryCollector {
    state: Mutex<CollectorState>,
    cv: Condvar,
}

struct CollectorState {
    answers: Vec<LocationAnswer>,
    /// Peers still expected to answer; `None` disables early return on
    /// a complete count (the seed broadcast behavior).
    outstanding: Option<usize>,
}

impl QueryCollector {
    /// A collector that waits out its deadline unless an active holder
    /// answers (seed behavior; no responder accounting).
    pub fn new() -> Self {
        QueryCollector {
            state: Mutex::new(CollectorState {
                answers: Vec::new(),
                outstanding: None,
            }),
            cv: Condvar::new(),
        }
    }

    /// A collector that additionally completes once `expected` peers have
    /// answered or been ruled out.
    pub fn with_expected(expected: usize) -> Self {
        QueryCollector {
            state: Mutex::new(CollectorState {
                answers: Vec::new(),
                outstanding: Some(expected),
            }),
            cv: Condvar::new(),
        }
    }

    /// Records one positive answer.
    pub fn add(&self, answer: LocationAnswer) {
        let mut state = self.state.lock();
        state.answers.push(answer);
        if let Some(n) = state.outstanding.as_mut() {
            *n = n.saturating_sub(1);
        }
        self.cv.notify_all();
    }

    /// Records a negative (`NotHeld`) answer: the peer responded but does
    /// not hold the object.
    pub fn add_negative(&self) {
        let mut state = self.state.lock();
        if let Some(n) = state.outstanding.as_mut() {
            *n = n.saturating_sub(1);
        }
        self.cv.notify_all();
    }

    /// Rules a peer out without an answer (gossip declared it dead while
    /// the query was pending).
    pub fn note_unreachable(&self) {
        self.add_negative();
    }

    /// Waits until an active holder answers, every expected peer has
    /// responded or been ruled out, or `timeout` elapses; returns
    /// everything collected.
    pub fn wait(&self, timeout: Duration) -> Vec<LocationAnswer> {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock();
        loop {
            if state.answers.iter().any(|a| a.state == HeldState::Active) {
                return state.answers.clone();
            }
            if state.outstanding == Some(0) {
                return state.answers.clone();
            }
            let now = Instant::now();
            if now >= deadline {
                return state.answers.clone();
            }
            self.cv.wait_for(&mut state, deadline - now);
        }
    }
}

impl Default for QueryCollector {
    fn default() -> Self {
        QueryCollector::new()
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, reason = "tests start their own threads")]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn complete_before_wait_returns_immediately() {
        let w = Waiter::new();
        w.complete(5);
        assert_eq!(w.wait(Duration::from_millis(1)), Some(5));
    }

    #[test]
    fn wait_times_out_without_completion() {
        let w: Waiter<u32> = Waiter::new();
        let start = Instant::now();
        assert_eq!(w.wait(Duration::from_millis(30)), None);
        assert!(start.elapsed() >= Duration::from_millis(28));
    }

    #[test]
    fn cross_thread_completion_wakes_waiter() {
        let w = Arc::new(Waiter::new());
        let w2 = w.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            w2.complete("done");
        });
        assert_eq!(w.wait(Duration::from_secs(2)), Some("done"));
        t.join().unwrap();
    }

    #[test]
    fn duplicate_completion_is_ignored() {
        let w = Waiter::new();
        w.complete(1);
        w.complete(2);
        assert_eq!(w.wait(Duration::from_millis(1)), Some(1));
    }

    #[test]
    fn collector_returns_early_on_active_answer() {
        let c = Arc::new(QueryCollector::new());
        let c2 = c.clone();
        let t = std::thread::spawn(move || {
            c2.add(LocationAnswer {
                holder: NodeId(3),
                state: HeldState::Passive,
            });
            std::thread::sleep(Duration::from_millis(10));
            c2.add(LocationAnswer {
                holder: NodeId(4),
                state: HeldState::Active,
            });
        });
        let start = Instant::now();
        let answers = c.wait(Duration::from_secs(5));
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "must not wait out the deadline"
        );
        assert_eq!(answers.len(), 2);
        t.join().unwrap();
    }

    #[test]
    fn collector_returns_passives_at_deadline() {
        let c = QueryCollector::new();
        c.add(LocationAnswer {
            holder: NodeId(1),
            state: HeldState::Passive,
        });
        let answers = c.wait(Duration::from_millis(20));
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].state, HeldState::Passive);
    }

    #[test]
    fn collector_completes_early_once_every_peer_responds() {
        let c = QueryCollector::with_expected(3);
        c.add_negative();
        c.add(LocationAnswer {
            holder: NodeId(2),
            state: HeldState::Passive,
        });
        c.add_negative();
        let start = Instant::now();
        let answers = c.wait(Duration::from_secs(5));
        assert!(
            start.elapsed() < Duration::from_millis(500),
            "all expected peers answered; the wait must not sleep out the window"
        );
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].state, HeldState::Passive);
    }

    #[test]
    fn collector_completes_when_gossip_rules_out_the_last_peer() {
        let c = Arc::new(QueryCollector::with_expected(2));
        c.add_negative();
        let c2 = c.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            c2.note_unreachable();
        });
        let start = Instant::now();
        let answers = c.wait(Duration::from_secs(5));
        assert!(start.elapsed() < Duration::from_millis(500));
        assert!(answers.is_empty());
        t.join().unwrap();
    }

    #[test]
    fn seed_collector_still_waits_out_the_window() {
        let c = QueryCollector::new();
        c.add_negative(); // no accounting without an expected count
        let start = Instant::now();
        let answers = c.wait(Duration::from_millis(30));
        assert!(start.elapsed() >= Duration::from_millis(28));
        assert!(answers.is_empty());
    }
}
