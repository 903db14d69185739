//! In-tree shim for the `crossbeam` crate.
//!
//! Only `crossbeam::channel` is provided. A channel is one
//! `Mutex<VecDeque<T>>` with two condvars: receivers park on
//! `not_empty`, senders to a full bounded channel park on `not_full`.
//! Each side counts its parked threads, so a send or receive signals
//! only when someone waits, and a waiter parks at once instead of
//! spinning first. Both ends are `Sync`, so threads may share one
//! receiver; senders are `Clone`. The channel disconnects when the last
//! sender drops (receivers drain the queue, then see `Disconnected`) or
//! when the receiver drops (the queue is discarded and sends fail).

#![forbid(unsafe_code)]

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    /// Error returned by [`Sender::send`] when the channel is disconnected.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// disconnected.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The wait deadline elapsed with no message.
        Timeout,
        /// All senders dropped and the queue is drained.
        Disconnected,
    }

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// No message was ready.
        Empty,
        /// All senders dropped and the queue is drained.
        Disconnected,
    }

    /// Error returned by [`Sender::try_send`], carrying the rejected
    /// message.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The bounded channel is at capacity.
        Full(T),
        /// Every receiver is gone.
        Disconnected(T),
    }

    impl<T> fmt::Display for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("sending on a full channel"),
                TrySendError::Disconnected(_) => f.write_str("sending on a disconnected channel"),
            }
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty, disconnected channel")
        }
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => f.write_str("receive timed out"),
                RecvTimeoutError::Disconnected => f.write_str("channel disconnected"),
            }
        }
    }

    /// Everything the channel's lock guards.
    struct State<T> {
        queue: VecDeque<T>,
        /// Receivers parked on `not_empty`.
        parked_receivers: usize,
        /// Senders parked on `not_full`.
        parked_senders: usize,
    }

    /// The sender count and the receiver flag are atomics, so cloning a
    /// sender takes no lock. The last sender's drop, and the receiver's,
    /// take the lock before they wake the other side, so a waiter that
    /// saw its peer alive under the lock is parked by then and hears
    /// the wakeup.
    struct Chan<T> {
        state: Mutex<State<T>>,
        senders: AtomicUsize,
        receiver_gone: AtomicBool,
        not_empty: Condvar,
        not_full: Condvar,
        /// Capacity of a bounded channel (`None`: unbounded).
        cap: Option<usize>,
    }

    impl<T> Chan<T> {
        fn new(cap: Option<usize>) -> Arc<Self> {
            Arc::new(Chan {
                state: Mutex::new(State {
                    queue: VecDeque::new(),
                    parked_receivers: 0,
                    parked_senders: 0,
                }),
                senders: AtomicUsize::new(1),
                receiver_gone: AtomicBool::new(false),
                not_empty: Condvar::new(),
                not_full: Condvar::new(),
                cap,
            })
        }

        fn lock(&self) -> MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(|e| e.into_inner())
        }

        fn senders_gone(&self) -> bool {
            self.senders.load(Ordering::Acquire) == 0
        }

        fn receiver_gone(&self) -> bool {
            self.receiver_gone.load(Ordering::Acquire)
        }

        fn is_full(&self, st: &State<T>) -> bool {
            self.cap.is_some_and(|cap| st.queue.len() >= cap)
        }

        /// Queues `value` under the held lock, then wakes one parked
        /// receiver, if any.
        fn push(&self, mut st: MutexGuard<'_, State<T>>, value: T) {
            st.queue.push_back(value);
            let wake = st.parked_receivers > 0;
            drop(st);
            if wake {
                self.not_empty.notify_one();
            }
        }

        /// Takes the head of the queue under the held lock, waking one
        /// parked sender if that freed a slot.
        fn pop(&self, st: &mut State<T>) -> Option<T> {
            let value = st.queue.pop_front()?;
            if st.parked_senders > 0 {
                self.not_full.notify_one();
            }
            Some(value)
        }

        /// Receives, parking until `deadline` (`None`: forever).
        fn recv_until(&self, deadline: Option<Instant>) -> Result<T, RecvTimeoutError> {
            let mut st = self.lock();
            loop {
                if let Some(value) = self.pop(&mut st) {
                    return Ok(value);
                }
                if self.senders_gone() {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
                if left.is_some_and(|left| left.is_zero()) {
                    return Err(RecvTimeoutError::Timeout);
                }
                st.parked_receivers += 1;
                st = match left {
                    None => self.not_empty.wait(st).unwrap_or_else(|e| e.into_inner()),
                    Some(left) => {
                        self.not_empty
                            .wait_timeout(st, left)
                            .unwrap_or_else(|e| e.into_inner())
                            .0
                    }
                };
                st.parked_receivers -= 1;
            }
        }
    }

    /// The sending half of a channel.
    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.chan.senders.fetch_add(1, Ordering::Relaxed);
            Sender {
                chan: Arc::clone(&self.chan),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.chan.senders.fetch_sub(1, Ordering::AcqRel) != 1 {
                return;
            }
            let wake = self.chan.lock().parked_receivers > 0;
            if wake {
                self.chan.not_empty.notify_all();
            }
        }
    }

    impl<T> Sender<T> {
        /// Enqueues a message, blocking on a full bounded channel;
        /// errors if every receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut st = self.chan.lock();
            loop {
                if self.chan.receiver_gone() {
                    return Err(SendError(value));
                }
                if !self.chan.is_full(&st) {
                    self.chan.push(st, value);
                    return Ok(());
                }
                st.parked_senders += 1;
                st = self
                    .chan
                    .not_full
                    .wait(st)
                    .unwrap_or_else(|e| e.into_inner());
                st.parked_senders -= 1;
            }
        }

        /// Non-blocking enqueue: a full bounded channel rejects the
        /// message instead of waiting for space.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let st = self.chan.lock();
            if self.chan.receiver_gone() {
                return Err(TrySendError::Disconnected(value));
            }
            if self.chan.is_full(&st) {
                return Err(TrySendError::Full(value));
            }
            self.chan.push(st, value);
            Ok(())
        }

        /// Messages currently queued.
        pub fn len(&self) -> usize {
            self.chan.lock().queue.len()
        }

        /// True when no message is queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    /// The receiving half of a channel.
    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.chan.receiver_gone.store(true, Ordering::Release);
            let mut st = self.chan.lock();
            // Nobody can take the queued messages any more: discard
            // them (outside the lock) and fail every parked sender.
            let discarded = std::mem::take(&mut st.queue);
            let wake = st.parked_senders > 0;
            drop(st);
            drop(discarded);
            if wake {
                self.chan.not_full.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or the channel disconnects.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.chan.recv_until(None).map_err(|_| RecvError)
        }

        /// Blocks with a deadline.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            // A timeout too large to represent waits forever.
            self.chan.recv_until(Instant::now().checked_add(timeout))
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.chan.lock();
            match self.chan.pop(&mut st) {
                Some(value) => Ok(value),
                None if self.chan.senders_gone() => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// Messages currently queued.
        pub fn len(&self) -> usize {
            self.chan.lock().queue.len()
        }

        /// True when no message is queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    fn pair<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let chan = Chan::new(cap);
        (
            Sender {
                chan: Arc::clone(&chan),
            },
            Receiver { chan },
        )
    }

    /// Creates an unbounded FIFO channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        pair(None)
    }

    /// Creates a bounded FIFO channel holding at most `cap` messages.
    /// Unlike crossbeam, a zero capacity is not a rendezvous channel:
    /// it holds one message.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        pair(Some(cap.max(1)))
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::collections::HashSet;
        use std::thread;

        /// Waits until `receivers` receivers and `senders` senders are
        /// parked on `chan`, so a test acts only once the interleaving
        /// it checks is in place.
        fn await_parked<T>(chan: &Chan<T>, receivers: usize, senders: usize) {
            loop {
                let st = chan.lock();
                if (st.parked_receivers, st.parked_senders) == (receivers, senders) {
                    return;
                }
                drop(st);
                thread::yield_now();
            }
        }

        #[test]
        fn fifo_and_timeout() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(2));
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Timeout)
            );
            drop(tx);
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Disconnected)
            );
        }

        #[test]
        fn bounded_sheds_when_full() {
            let (tx, rx) = bounded(2);
            assert_eq!(tx.try_send(1), Ok(()));
            assert_eq!(tx.try_send(2), Ok(()));
            assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));
            assert_eq!(tx.len(), 2);
            assert_eq!(rx.try_recv(), Ok(1));
            assert_eq!(rx.len(), 1);
            assert!(!rx.is_empty());
            assert_eq!(tx.try_send(4), Ok(()));
            assert_eq!(rx.recv(), Ok(2));
            assert_eq!(rx.recv(), Ok(4));
            assert!(rx.is_empty());
            drop(rx);
            assert_eq!(tx.try_send(5), Err(TrySendError::Disconnected(5)));
        }

        #[test]
        fn a_parked_receiver_is_woken_by_a_send() {
            let (tx, rx) = unbounded();
            let (tx2, rx2) = unbounded();
            let (chan, chan2) = (Arc::clone(&rx.chan), Arc::clone(&rx2.chan));
            let parked = thread::spawn(move || rx.recv());
            let timed = thread::spawn(move || rx2.recv_timeout(Duration::from_secs(60)));
            await_parked(&chan, 1, 0);
            await_parked(&chan2, 1, 0);
            tx.send(7).unwrap();
            tx2.send(8).unwrap();
            assert_eq!(parked.join().unwrap(), Ok(7));
            assert_eq!(timed.join().unwrap(), Ok(8));
        }

        #[test]
        fn a_bounded_send_blocks_until_a_receive_frees_a_slot() {
            let (tx, rx) = bounded(1);
            tx.send(1).unwrap();
            let sender = thread::spawn(move || tx.send(2));
            await_parked(&rx.chan, 0, 1);
            assert_eq!(rx.len(), 1, "the second send waits for a slot");
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(sender.join().unwrap(), Ok(()));
            assert_eq!(rx.recv(), Ok(2));
        }

        #[test]
        fn two_receiving_threads_take_distinct_items() {
            let (tx, rx) = unbounded();
            let rx = Arc::new(rx);
            let n = 1000;
            let drain = |rx: Arc<Receiver<i32>>| {
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(v) = rx.recv() {
                        got.push(v);
                    }
                    got
                })
            };
            let (a, b) = (drain(Arc::clone(&rx)), drain(rx));
            for i in 0..n {
                tx.send(i).unwrap();
            }
            drop(tx);
            let (a, b) = (a.join().unwrap(), b.join().unwrap());
            let all: HashSet<i32> = a.iter().chain(&b).copied().collect();
            assert_eq!(a.len() + b.len(), n as usize, "an item was taken twice");
            assert_eq!(all.len(), n as usize, "an item was lost");
        }

        #[test]
        fn the_receiver_drains_the_queue_after_the_last_sender_drops() {
            let (tx, rx) = bounded(4);
            let tx2 = tx.clone();
            tx.send(1).unwrap();
            tx2.send(2).unwrap();
            drop(tx);
            assert_eq!(rx.try_recv(), Ok(1));
            drop(tx2);
            assert_eq!(rx.recv(), Ok(2));
            assert_eq!(rx.recv(), Err(RecvError));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
            assert_eq!(
                rx.recv_timeout(Duration::from_secs(10)),
                Err(RecvTimeoutError::Disconnected)
            );
        }

        #[test]
        fn the_last_sender_dropping_wakes_a_parked_receiver() {
            let (tx, rx) = unbounded::<u8>();
            let chan = Arc::clone(&rx.chan);
            let parked = thread::spawn(move || rx.recv());
            await_parked(&chan, 1, 0);
            drop(tx);
            assert_eq!(parked.join().unwrap(), Err(RecvError));
        }

        #[test]
        fn send_fails_once_the_receiver_is_gone() {
            let (tx, rx) = bounded(1);
            tx.send(1).unwrap();
            // A sender parked on the full queue is failed, not stranded.
            let tx2 = tx.clone();
            let parked = thread::spawn(move || tx2.send(2));
            await_parked(&tx.chan, 0, 1);
            drop(rx);
            assert_eq!(parked.join().unwrap(), Err(SendError(2)));
            assert_eq!(tx.send(3), Err(SendError(3)));
            assert!(tx.is_empty(), "queued messages are discarded");
        }

        #[test]
        fn many_producers_deliver_every_item() {
            let (tx, rx) = bounded(16);
            let producers = 4;
            let per = 5000u64;
            let handles: Vec<_> = (0..producers)
                .map(|p| {
                    let tx = tx.clone();
                    thread::spawn(move || {
                        for i in 0..per {
                            tx.send(p * per + i).unwrap();
                        }
                    })
                })
                .collect();
            drop(tx);
            let mut seen = vec![false; (producers * per) as usize];
            let mut last = vec![None; producers as usize];
            while let Ok(v) = rx.recv() {
                assert!(!seen[v as usize], "{v} delivered twice");
                seen[v as usize] = true;
                // Each producer's items arrive in the order it sent them.
                let p = (v / per) as usize;
                assert!(last[p] < Some(v), "producer {p} reordered");
                last[p] = Some(v);
            }
            for h in handles {
                h.join().unwrap();
            }
            assert!(seen.iter().all(|&s| s), "an item was lost");
        }
    }
}
