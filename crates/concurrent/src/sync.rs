//! Synchronization abstraction layer: std primitives in normal builds,
//! [`loom`]-instrumented primitives under `--cfg loom`.
//!
//! Every concurrent module in this crate ([`coarse`], [`sharded`],
//! [`mpsc`]) imports its `Arc`, `Mutex`, atomics and queues from here and
//! nowhere else. That single choke point is what makes the loom models in
//! `tests/loom.rs` honest: the exact same source that ships is what the
//! model checker explores — compile with `RUSTFLAGS="--cfg loom"` and each
//! atomic access or lock operation becomes a preemption point in an
//! exhaustive interleaving search.
//!
//! The std-side `Mutex` deliberately exposes the panic-free
//! `lock() -> MutexGuard` shape (the parking_lot convention the crate grew
//! up with): lock poisoning is ignored, because a panic mid-operation
//! already fails the process-level invariant the poison flag would guard.
//!
//! [`coarse`]: crate::coarse
//! [`sharded`]: crate::sharded
//! [`mpsc`]: crate::mpsc

use std::collections::VecDeque;

#[cfg(not(loom))]
pub use std::sync::{atomic, Arc};

#[cfg(loom)]
pub use loom::sync::{atomic, Arc};

/// Mutual exclusion with a non-poisoning `lock()`.
///
/// Under `--cfg loom` this is a model-checked lock whose acquire and
/// release are schedule points; otherwise it wraps [`std::sync::Mutex`].
pub struct Mutex<T> {
    #[cfg(not(loom))]
    inner: std::sync::Mutex<T>,
    #[cfg(loom)]
    inner: loom::sync::Mutex<T>,
}

/// Guard returned by [`Mutex::lock`].
#[cfg(not(loom))]
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

/// Guard returned by [`Mutex::lock`].
#[cfg(loom)]
pub type MutexGuard<'a, T> = loom::sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub fn new(value: T) -> Mutex<T> {
        Mutex {
            #[cfg(not(loom))]
            inner: std::sync::Mutex::new(value),
            #[cfg(loom)]
            inner: loom::sync::Mutex::new(value),
        }
    }

    /// Acquires the lock, ignoring poison.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(not(loom))]
        {
            self.inner.lock().unwrap_or_else(|e| e.into_inner())
        }
        #[cfg(loom)]
        {
            self.inner.lock().expect("loom mutex")
        }
    }

    /// Attempts the uncontended fast path, ignoring poison. `None` means
    /// another thread holds the lock right now — which is what the
    /// contention telemetry counts before falling back to [`lock`](Self::lock).
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        #[cfg(not(loom))]
        {
            match self.inner.try_lock() {
                Ok(guard) => Some(guard),
                Err(std::sync::TryLockError::Poisoned(e)) => Some(e.into_inner()),
                Err(std::sync::TryLockError::WouldBlock) => None,
            }
        }
        #[cfg(loom)]
        {
            self.inner.try_lock().ok()
        }
    }
}

/// An unbounded MPSC/MPMC FIFO used as the [`mpsc`](crate::mpsc) admission
/// queue.
///
/// The seed implementation used a lock-free segment queue; this one is a
/// mutex-protected ring, which keeps the structure modelable by loom (the
/// queue's lock is a schedule point) at the cost of producer-side lock
/// traffic. Producers still touch nothing but this queue, so the
/// wait-free-*progress* claim weakens to lock-free-in-practice; the
/// admission-latency semantics are unchanged.
///
/// The API speaks `enqueue`/`dequeue` rather than `send`/`recv`: both
/// operations complete in a bounded number of steps (one short critical
/// section around the ring), so neither can park the caller — the names
/// keep them visibly outside the blocking channel vocabulary while the
/// queue still serves as the one-way message fabric of the Appendix A.1
/// model ("the only communication between the host and chip is through
/// interrupts").
pub struct Queue<T> {
    inner: Mutex<VecDeque<T>>,
}

impl<T> Queue<T> {
    /// Creates an empty queue.
    pub fn new() -> Queue<T> {
        Queue {
            inner: Mutex::new(VecDeque::new()),
        }
    }

    /// Enqueues a message at the tail. Never blocks beyond the ring's own
    /// short critical section.
    pub fn enqueue(&self, value: T) {
        self.inner.lock().push_back(value);
    }

    /// Dequeues the head message, if any. Never blocks: an empty queue
    /// returns `None` instead of parking the caller.
    pub fn dequeue(&self) -> Option<T> {
        self.inner.lock().pop_front()
    }

    /// Whether the queue is currently empty (racy by nature: a concurrent
    /// push may land immediately after the check).
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// Number of queued elements (racy snapshot, like [`Queue::is_empty`]).
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }
}

impl<T> Default for Queue<T> {
    fn default() -> Self {
        Queue::new()
    }
}

/// A small single-sender channel for the [`service`](crate::service)
/// module: both halves are `Sync`, so an `Arc<TimerService>` can be shared
/// freely, and its one `Sender` dropping disconnects the receiver.
///
/// Not compiled under loom, and neither is the service: its one-lock
/// serialization is the shape loom model 5 already checks, and its
/// realtime ticker is a wall-clock thread the model checker cannot explore.
#[cfg(not(loom))]
pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    struct ChanState<T> {
        queue: VecDeque<T>,
        sender_alive: bool,
        receiver_alive: bool,
    }

    struct Chan<T> {
        state: Mutex<ChanState<T>>,
        cv: Condvar,
    }

    fn lock<T>(chan: &Chan<T>) -> MutexGuard<'_, ChanState<T>> {
        chan.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Sending half; one per channel, `Send + Sync`.
    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
    }

    /// Receiving half; `Send + Sync` (receives compete if shared).
    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    /// The channel has no receiver anymore.
    #[derive(PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    // Manual impl: no `T: Debug` bound, so `.expect()` works on any payload.
    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    /// The channel is empty and its sender is gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Why `try_recv` returned nothing.
    #[derive(Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        /// No message queued right now.
        Empty,
        /// No message queued and the sender is gone.
        Disconnected,
    }

    /// Why `recv_timeout` returned nothing.
    #[derive(Debug, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The deadline elapsed first.
        Timeout,
        /// The sender is gone and the queue is drained.
        Disconnected,
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            state: Mutex::new(ChanState {
                queue: VecDeque::new(),
                sender_alive: true,
                receiver_alive: true,
            }),
            cv: Condvar::new(),
        });
        (
            Sender {
                chan: Arc::clone(&chan),
            },
            Receiver { chan },
        )
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            lock(&self.chan).sender_alive = false;
            self.chan.cv.notify_all();
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            lock(&self.chan).receiver_alive = false;
        }
    }

    impl<T> Sender<T> {
        /// Enqueues a message.
        ///
        /// # Errors
        ///
        /// Returns the message if the receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut st = lock(&self.chan);
            if !st.receiver_alive {
                return Err(SendError(value));
            }
            st.queue.push_back(value);
            self.chan.cv.notify_one();
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message or disconnection.
        ///
        /// # Errors
        ///
        /// [`RecvError`] when the queue is drained and the sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = lock(&self.chan);
            loop {
                if let Some(v) = st.queue.pop_front() {
                    return Ok(v);
                }
                if !st.sender_alive {
                    return Err(RecvError);
                }
                st = self.chan.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        }

        /// Non-blocking receive.
        ///
        /// # Errors
        ///
        /// [`TryRecvError::Empty`] or [`TryRecvError::Disconnected`].
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = lock(&self.chan);
            match st.queue.pop_front() {
                Some(v) => Ok(v),
                None if !st.sender_alive => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// Blocks until a message, disconnection, or the timeout.
        ///
        /// # Errors
        ///
        /// [`RecvTimeoutError::Timeout`] or
        /// [`RecvTimeoutError::Disconnected`].
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut st = lock(&self.chan);
            loop {
                if let Some(v) = st.queue.pop_front() {
                    return Ok(v);
                }
                if !st.sender_alive {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _) = self
                    .chan
                    .cv
                    .wait_timeout(st, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                st = guard;
            }
        }

        /// Drains currently queued messages without blocking.
        pub fn try_iter(&self) -> impl Iterator<Item = T> + '_ {
            std::iter::from_fn(move || self.try_recv().ok())
        }

        /// Number of currently queued messages (racy snapshot: concurrent
        /// sends and receives move it immediately). The timer service reads
        /// it under its own lock, where only receives can move it, to count
        /// undrained expiries against its admission cap.
        pub fn len(&self) -> usize {
            lock(&self.chan).queue.len()
        }

        /// Whether the queue is currently empty (racy, like
        /// [`len`](Self::len)).
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::time::Duration;

        #[test]
        fn send_recv_roundtrip() {
            let (tx, rx) = unbounded::<u32>();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.try_recv(), Ok(2));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn disconnect_semantics() {
            let (tx, rx) = unbounded::<u32>();
            tx.send(5).unwrap();
            drop(tx);
            assert_eq!(rx.recv(), Ok(5));
            assert_eq!(rx.recv(), Err(RecvError));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
            let (tx, rx) = unbounded::<u32>();
            drop(rx);
            assert_eq!(tx.send(9), Err(SendError(9)));
        }

        #[test]
        fn timeout_fires() {
            let (tx, rx) = unbounded::<u32>();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Timeout)
            );
            tx.send(3).unwrap();
            assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(3));
        }

        #[test]
        fn recv_timeout_drains_then_reports_disconnect() {
            let (tx, rx) = unbounded::<u32>();
            tx.send(4).unwrap();
            drop(tx);
            let wait = Duration::from_secs(10);
            assert_eq!(rx.recv_timeout(wait), Ok(4));
            // Disconnected at once, not after the 10 s timeout.
            assert_eq!(rx.recv_timeout(wait), Err(RecvTimeoutError::Disconnected));
        }

        #[test]
        fn dropping_the_sender_wakes_a_blocked_receiver() {
            let (tx, rx) = unbounded::<u32>();
            let blocked = std::thread::spawn(move || rx.recv());
            std::thread::sleep(Duration::from_millis(20));
            drop(tx);
            assert_eq!(blocked.join().unwrap(), Err(RecvError));
        }

        #[test]
        fn cross_thread_wakeup() {
            let (tx, rx) = unbounded::<u64>();
            let t = std::thread::spawn(move || rx.recv().unwrap());
            std::thread::sleep(Duration::from_millis(20));
            tx.send(77).unwrap();
            assert_eq!(t.join().unwrap(), 77);
        }

        #[test]
        fn try_iter_drains() {
            let (tx, rx) = unbounded::<u32>();
            for i in 0..10 {
                tx.send(i).unwrap();
            }
            assert_eq!(rx.try_iter().count(), 10);
            assert_eq!(rx.try_iter().count(), 0);
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn queue_is_fifo() {
        let q: Queue<u32> = Queue::new();
        assert!(q.is_empty());
        q.enqueue(1);
        q.enqueue(2);
        q.enqueue(3);
        assert_eq!(q.len(), 3);
        assert_eq!(q.dequeue(), Some(1));
        assert_eq!(q.dequeue(), Some(2));
        assert_eq!(q.dequeue(), Some(3));
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(41);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
    }
}
