//! The coarse-locked baseline for Appendix A.2.
//!
//! "Steve Glaser has pointed out that algorithms that tie up a common data
//! structure for a large period of time will reduce efficiency. For
//! instance in Scheme 2, when Processor A inserts a timer into the ordered
//! list other processors cannot process timer module routines until
//! Processor A finishes and releases its semaphore."
//!
//! [`CoarseLocked`] is exactly that semaphore-around-everything structure:
//! one [`Mutex`] serializing every routine of an
//! arbitrary single-threaded scheme. It is correct and simple — and the
//! `smp` experiment shows it stops scaling the moment the protected
//! operation is O(n), which is Glaser's point.

use crate::sync::{Arc, Mutex};
use tw_core::{Expired, Tick, TickDelta, TimerError, TimerHandle, TimerScheme};

/// A thread-safe timer module made from any scheme plus one big lock.
pub struct CoarseLocked<S, T> {
    inner: Arc<Mutex<S>>,
    _payload: std::marker::PhantomData<fn(T)>,
}

impl<S, T> Clone for CoarseLocked<S, T> {
    fn clone(&self) -> Self {
        CoarseLocked {
            inner: Arc::clone(&self.inner),
            _payload: std::marker::PhantomData,
        }
    }
}

impl<T, S: TimerScheme<T>> CoarseLocked<S, T> {
    /// Wraps a scheme behind a single mutex.
    pub fn new(scheme: S) -> CoarseLocked<S, T> {
        CoarseLocked {
            inner: Arc::new(Mutex::new(scheme)),
            _payload: std::marker::PhantomData,
        }
    }

    /// `START_TIMER`, serialized.
    pub fn start_timer(&self, interval: TickDelta, payload: T) -> Result<TimerHandle, TimerError> {
        self.inner.lock().start_timer(interval, payload)
    }

    /// `STOP_TIMER`, serialized.
    pub fn stop_timer(&self, handle: TimerHandle) -> Result<T, TimerError> {
        self.inner.lock().stop_timer(handle)
    }

    /// `UPDATE`, serialized: re-arms `handle` to expire `interval` ticks
    /// from now, keeping the handle valid. Delegates to the wrapped
    /// scheme's relink, so the cost under the lock is the scheme's own
    /// UPDATE bound — not a stop + start pair.
    ///
    /// # Errors
    ///
    /// Whatever the wrapped scheme's `restart_timer` returns —
    /// [`TimerError::Stale`] for fired/stopped handles,
    /// [`TimerError::ZeroInterval`], overflow-policy errors, or
    /// [`TimerError::UpdateUnsupported`] for schemes without UPDATE.
    pub fn restart_timer(
        &self,
        handle: TimerHandle,
        interval: TickDelta,
    ) -> Result<(), TimerError> {
        self.inner.lock().restart_timer(handle, interval)
    }

    /// `PER_TICK_BOOKKEEPING`, serialized; returns the expired batch.
    pub fn tick(&self) -> Vec<Expired<T>> {
        let mut out = Vec::new();
        self.tick_into(&mut out);
        out
    }

    /// Allocation-free [`tick`](CoarseLocked::tick): appends the expired
    /// batch to a caller-owned buffer (clear-and-reuse across ticks) and
    /// returns how many timers fired.
    pub fn tick_into(&self, out: &mut Vec<Expired<T>>) -> usize {
        let start = out.len();
        // tw-analyze: allow(TW009, reason = "delivering under the single global mutex is the entire point of the coarse-locking baseline (the Appendix A strawman); there is no second lock to deadlock against and the callback only appends to the caller's buffer")
        self.inner.lock().tick(&mut |e| out.push(e)); // tw-analyze: allow(TW004, reason = "appends to the caller-owned reusable buffer that is the point of tick_into; the buffer amortizes to zero allocations across ticks")
        out.len() - start
    }

    /// Current time.
    pub fn now(&self) -> Tick {
        self.inner.lock().now()
    }

    /// Outstanding timer count.
    pub fn outstanding(&self) -> usize {
        self.inner.lock().outstanding()
    }
}

// OS-thread stress tests are meaningless inside the loom explorer (its
// dedicated models live in tests/loom.rs), so they only build without it.
#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::thread;
    use tw_core::wheel::HashedWheelUnsorted;

    #[test]
    fn serialized_basic_flow() {
        let m = CoarseLocked::new(HashedWheelUnsorted::<u32>::new(64));
        let h = m.start_timer(TickDelta(3), 7).unwrap();
        assert_eq!(m.outstanding(), 1);
        assert_eq!(m.stop_timer(h), Ok(7));
        m.start_timer(TickDelta(2), 9).unwrap();
        assert!(m.tick().is_empty());
        let fired = m.tick();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].payload, 9);
        assert_eq!(m.now(), Tick(2));
    }

    #[test]
    fn restart_is_serialized_and_keeps_the_handle() {
        let m = CoarseLocked::new(HashedWheelUnsorted::<u32>::new(64));
        let h = m.start_timer(TickDelta(3), 7).unwrap();
        m.restart_timer(h, TickDelta(10)).unwrap();
        for _ in 0..9 {
            assert!(m.tick().is_empty(), "old deadline must not fire");
        }
        let fired = m.tick();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].payload, 7);
        assert_eq!(
            m.restart_timer(h, TickDelta(5)),
            Err(TimerError::Stale),
            "fired handle is stale"
        );
    }

    #[test]
    fn concurrent_restarts_race_safely() {
        let m = CoarseLocked::new(HashedWheelUnsorted::<u64>::new(128));
        let handles: Vec<TimerHandle> = (0..100u64)
            .map(|i| m.start_timer(TickDelta(1_000), i).unwrap())
            .collect();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let m = m.clone();
                let handles = handles.clone();
                thread::spawn(move || {
                    for (i, &h) in handles.iter().enumerate() {
                        m.restart_timer(h, TickDelta(50 + (t + i as u64) % 40))
                            .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(m.outstanding(), 100, "restarts never change residency");
        let mut fired = 0usize;
        for _ in 0..100 {
            fired += m.tick().len();
        }
        assert_eq!(
            fired, 100,
            "every timer fires once at some restarted deadline"
        );
    }

    #[test]
    fn concurrent_starts_and_stops_do_not_lose_timers() {
        let m = CoarseLocked::new(HashedWheelUnsorted::<u64>::new(256));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let m = m.clone();
                thread::spawn(move || {
                    let mut kept = 0u64;
                    for i in 0..500u64 {
                        let h = m.start_timer(TickDelta(10_000), t * 1000 + i).unwrap();
                        if i % 2 == 0 {
                            m.stop_timer(h).unwrap();
                        } else {
                            kept += 1;
                        }
                    }
                    kept
                })
            })
            .collect();
        let kept: u64 = threads.into_iter().map(|t| t.join().unwrap()).sum();
        assert_eq!(m.outstanding() as u64, kept);
        assert_eq!(kept, 4 * 250);
    }

    #[test]
    fn ticker_runs_concurrently_with_churn() {
        let m = CoarseLocked::new(HashedWheelUnsorted::<u64>::new(64));
        let churn = {
            let m = m.clone();
            thread::spawn(move || {
                for i in 0..2_000u64 {
                    let h = m.start_timer(TickDelta(5), i).unwrap();
                    let _ = m.stop_timer(h);
                }
            })
        };
        let mut fired = 0usize;
        for _ in 0..200 {
            fired += m.tick().len();
        }
        churn.join().unwrap();
        // Everything was stopped immediately, so nothing should fire.
        assert_eq!(fired, 0);
        assert_eq!(m.outstanding(), 0);
    }
}
