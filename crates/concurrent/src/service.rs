//! The timer service: one scheme behind one lock, the deployable form of
//! the facility.
//!
//! Appendix A.2 shares one timer module between processors behind a
//! lock. [`TimerService`] does exactly that: every client call runs its
//! routine in place on the calling thread, in one short critical section,
//! and returns the scheme's `Result` directly. No call pays a message, a
//! reply channel or a thread hop, and a dead thread is not a failure mode
//! the service has.
//!
//! Time can be driven two ways:
//!
//! * **virtual** — clients call [`TimerService::advance`], which is
//!   deterministic and what the tests and experiments use. No thread is
//!   started;
//! * **real** — [`TimerServiceBuilder::realtime`] starts the shared
//!   [`ticker`], which advances the scheme on a
//!   drift-free wall-clock grid.
//!
//! Expirations are delivered on an unbounded channel as [`Expiry`]
//! records, sent under the service lock, so with an
//! [`arena_capacity`](TimerServiceBuilder::arena_capacity) the armed
//! timers plus the undrained expiries never exceed the cap: a slow
//! consumer sees [`TimerError::Exhausted`], not an unbounded queue.

use std::time::Duration;

use crate::sync::channel::{unbounded, Receiver, Sender};
use crate::sync::{Arc, Mutex};
use crate::ticker;
use tw_core::{
    Observed, Observer, RequestId, Tick, TickDelta, TimerError, TimerHandle, TimerScheme,
};

/// An expiry notification from the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expiry {
    /// Client-supplied timer id (the paper's `Request_ID`).
    pub id: RequestId,
    /// Tick the timer was scheduled for.
    pub deadline: Tick,
    /// Tick it actually fired at.
    pub fired_at: Tick,
}

impl Expiry {
    /// Signed firing error in ticks: positive when the timer fired late,
    /// negative when a reduced-precision scheme fired it early, zero for
    /// the exact schemes (§6.2's precision/cost trade).
    #[must_use]
    pub fn error(&self) -> i64 {
        self.fired_at.signed_offset_from(self.deadline)
    }
}

/// Configures and spawns a [`TimerService`]: its single construction
/// entry point.
///
/// One builder covers wall-clock ticking, a shared [`Observer`] and an
/// admission ceiling:
///
/// ```
/// use tw_concurrent::TimerService;
/// use tw_core::wheel::HashedWheelUnsorted;
/// use tw_core::{RequestId, TickDelta};
///
/// let svc = TimerService::builder(HashedWheelUnsorted::<RequestId>::new(64))
///     .arena_capacity(1 << 20)
///     .spawn();
/// svc.start_timer(7, TickDelta(3)).unwrap();
/// assert_eq!(svc.advance(3), 1);
/// ```
#[must_use = "the builder does nothing until `spawn`"]
pub struct TimerServiceBuilder<S> {
    scheme: S,
    period: Option<Duration>,
    observer: Option<Arc<dyn Observer + Send + Sync>>,
    arena_capacity: Option<usize>,
}

impl<S> TimerServiceBuilder<S>
where
    S: TimerScheme<RequestId> + Send + 'static,
{
    /// Drives the clock from wall time: tick `k` comes due `k·period`
    /// after the spawn, and the [`ticker`] delivers any
    /// ticks a late wake missed in one batched advance. Without this, or
    /// with a zero `period`, the service keeps virtual time and only
    /// moves on [`TimerService::advance`].
    pub fn realtime(mut self, period: Duration) -> Self {
        self.period = Some(period);
        self
    }

    /// Reports the scheme hooks to `observer` (typically a `tw-obs`
    /// `ServiceTelemetry` behind the `Arc`) through an [`Observed`]
    /// wrapper.
    pub fn observer(mut self, observer: Arc<dyn Observer + Send + Sync>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Admits at most `limit` timers that are armed or fired but not yet
    /// received: `start_timer` reports [`TimerError::Exhausted`] while
    /// [`outstanding`](TimerService::outstanding) plus the undrained
    /// [`expiries`](TimerService::expiries) reach `limit`, until a stop,
    /// or a receive of an expiry, frees a place. Holds for every scheme.
    pub fn arena_capacity(mut self, limit: usize) -> Self {
        self.arena_capacity = Some(limit);
        self
    }

    /// Builds the service, and in realtime mode starts its ticker.
    #[must_use]
    pub fn spawn(self) -> TimerService {
        // An unobserved scheme is boxed bare: the `NoopObserver` wrapper
        // would add nothing but a closure layer per fire.
        let scheme: Box<dyn TimerScheme<RequestId> + Send> = match self.observer {
            Some(observer) => Box::new(Observed::new(self.scheme, observer)),
            None => Box::new(self.scheme),
        };
        TimerService::start(scheme, self.period, self.arena_capacity)
    }
}

/// The state behind the service lock.
struct Core {
    timers: Box<dyn TimerScheme<RequestId> + Send>,
    expiries: Sender<Expiry>,
    arena_capacity: Option<usize>,
}

impl Core {
    /// Advances the clock by `ticks` in one batched sweep, sending each
    /// expiry; returns how many timers fired.
    fn expire_due(&mut self, ticks: u64) -> u64 {
        let Core {
            timers, expiries, ..
        } = self;
        let target = Tick(timers.now().as_u64().saturating_add(ticks));
        let mut fired = 0;
        timers.advance_to_with(target, &mut |e| {
            fired += 1;
            let _ = expiries.send(Expiry {
                id: e.payload,
                deadline: e.deadline,
                fired_at: e.fired_at,
            });
        });
        fired
    }
}

/// Handle to a timer service. See the [module docs](self).
pub struct TimerService {
    core: Arc<Mutex<Core>>,
    expiries: Receiver<Expiry>,
}

impl TimerService {
    /// Starts configuring a service around `scheme`; finish with
    /// [`TimerServiceBuilder::spawn`]. The default build keeps virtual
    /// time, observes nothing, and leaves the arena uncapped.
    pub fn builder<S>(scheme: S) -> TimerServiceBuilder<S>
    where
        S: TimerScheme<RequestId> + Send + 'static,
    {
        TimerServiceBuilder {
            scheme,
            period: None,
            observer: None,
            arena_capacity: None,
        }
    }

    /// The non-generic rest of [`TimerServiceBuilder::spawn`].
    fn start(
        timers: Box<dyn TimerScheme<RequestId> + Send>,
        period: Option<Duration>,
        arena_capacity: Option<usize>,
    ) -> TimerService {
        let (tx, expiries) = unbounded();
        let core = Arc::new(Mutex::new(Core {
            timers,
            expiries: tx,
            arena_capacity,
        }));
        if let Some(period) = period {
            let core = Arc::downgrade(&core);
            ticker::spawn(period, move |ticks| {
                let Some(core) = core.upgrade() else {
                    return false;
                };
                core.lock().expire_due(ticks);
                true
            });
        }
        TimerService { core, expiries }
    }

    /// `START_TIMER`: arms a timer for `id` that expires `interval` ticks
    /// from the service's current time.
    ///
    /// # Errors
    ///
    /// [`TimerError::Exhausted`] at the
    /// [`arena_capacity`](TimerServiceBuilder::arena_capacity) cap, and
    /// otherwise the scheme's errors.
    pub fn start_timer(
        &self,
        id: impl Into<RequestId>,
        interval: TickDelta,
    ) -> Result<TimerHandle, TimerError> {
        let mut core = self.core.lock();
        if let Some(limit) = core.arena_capacity {
            let held = core
                .timers
                .outstanding()
                .saturating_add(self.expiries.len());
            if held >= limit {
                return Err(TimerError::Exhausted);
            }
        }
        core.timers.start_timer(interval, id.into())
    }

    /// `STOP_TIMER`; returns the timer's id.
    ///
    /// # Errors
    ///
    /// [`TimerError::Stale`] if the timer already fired or was stopped.
    pub fn stop_timer(&self, handle: TimerHandle) -> Result<RequestId, TimerError> {
        self.core.lock().timers.stop_timer(handle)
    }

    /// `UPDATE`: re-arms `handle` to expire `interval` ticks after the
    /// service's current time, keeping the handle valid.
    ///
    /// # Errors
    ///
    /// Whatever the scheme's `restart_timer` returns —
    /// [`TimerError::Stale`] for fired/stopped handles,
    /// [`TimerError::ZeroInterval`], overflow-policy errors, or
    /// [`TimerError::UpdateUnsupported`].
    pub fn restart_timer(
        &self,
        handle: TimerHandle,
        interval: TickDelta,
    ) -> Result<(), TimerError> {
        self.core.lock().timers.restart_timer(handle, interval)
    }

    /// Advances the clock by `ticks` in one batched sweep, sending every
    /// expiry on the [`expiries`](Self::expiries) channel before it
    /// returns; returns how many timers fired. In realtime mode the ticker
    /// calls this too, and an explicit call moves the same clock further.
    pub fn advance(&self, ticks: u64) -> u64 {
        self.core.lock().expire_due(ticks)
    }

    /// Number of outstanding timers.
    pub fn outstanding(&self) -> usize {
        self.core.lock().timers.outstanding()
    }

    /// The expiry notification channel.
    pub fn expiries(&self) -> &Receiver<Expiry> {
        &self.expiries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_core::wheel::{HashedWheelUnsorted, HierarchicalWheel, LevelSizes};

    #[test]
    fn virtual_time_flow() {
        let svc = TimerService::builder(HashedWheelUnsorted::<RequestId>::new(64)).spawn();
        svc.start_timer(1, TickDelta(5)).unwrap();
        svc.start_timer(2, TickDelta(3)).unwrap();
        assert_eq!(svc.outstanding(), 2);
        assert_eq!(svc.advance(4), 1);
        let e = svc.expiries().try_recv().unwrap();
        assert_eq!((e.id, e.fired_at), (RequestId(2), Tick(3)));
        assert_eq!(svc.advance(1), 1);
        let e = svc.expiries().try_recv().unwrap();
        assert_eq!((e.id, e.fired_at), (RequestId(1), Tick(5)));
        assert_eq!(e.error(), 0, "Scheme 6a hashed wheel fires exactly");
        assert_eq!(svc.outstanding(), 0);
    }

    #[test]
    fn stop_via_service() {
        let svc = TimerService::builder(HierarchicalWheel::<RequestId>::new(LevelSizes(vec![
            16, 16,
        ])))
        .spawn();
        let h = svc.start_timer(42, TickDelta(100)).unwrap();
        assert_eq!(svc.stop_timer(h), Ok(RequestId(42)));
        assert_eq!(svc.stop_timer(h), Err(TimerError::Stale));
        assert_eq!(svc.advance(200), 0);
        assert!(svc.expiries().try_recv().is_err());
    }

    #[test]
    fn restart_via_service() {
        let svc = TimerService::builder(HierarchicalWheel::<RequestId>::new(LevelSizes(vec![
            16, 16,
        ])))
        .spawn();
        let h = svc.start_timer(42, TickDelta(10)).unwrap();
        svc.restart_timer(h, TickDelta(40)).unwrap();
        assert_eq!(svc.advance(30), 0, "old deadline must not fire");
        assert_eq!(svc.advance(10), 1, "fires at the restarted deadline");
        let e = svc.expiries().try_recv().unwrap();
        assert_eq!((e.id, e.fired_at), (RequestId(42), Tick(40)));
        assert_eq!(
            svc.restart_timer(h, TickDelta(5)),
            Err(TimerError::Stale),
            "fired handle is stale"
        );
        assert_eq!(
            svc.restart_timer(h, TickDelta::ZERO),
            Err(TimerError::ZeroInterval)
        );
    }

    #[test]
    fn concurrent_restarts_leave_a_restarted_schedule() {
        use std::sync::Arc;
        let svc =
            Arc::new(TimerService::builder(HashedWheelUnsorted::<RequestId>::new(64)).spawn());
        let handles: Vec<TimerHandle> = (0..20u64)
            .map(|i| svc.start_timer(i, TickDelta(500)).unwrap())
            .collect();
        // Four clients hammer restarts on the same handles; the lock
        // orders them in any interleaving, but every call must succeed
        // and each timer must end on *some* successful restart's
        // schedule, never the original one.
        let clients: Vec<_> = (0..4u64)
            .map(|c| {
                let svc = Arc::clone(&svc);
                let handles = handles.clone();
                std::thread::spawn(move || {
                    for round in 0..10u64 {
                        for &h in &handles {
                            svc.restart_timer(h, TickDelta(50 + (c * 10 + round) % 40))
                                .unwrap();
                        }
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        assert_eq!(svc.outstanding(), 20);
        let fired = svc.advance(100);
        assert_eq!(
            fired, 20,
            "every timer fires once, inside the restart range"
        );
        for e in svc.expiries().try_iter() {
            assert!(e.deadline.as_u64() < 500, "original schedule superseded");
            assert_eq!(e.error(), 0);
        }
        assert_eq!(svc.outstanding(), 0);
    }

    #[test]
    fn many_clients_share_the_service() {
        use std::sync::Arc;
        let svc =
            Arc::new(TimerService::builder(HashedWheelUnsorted::<RequestId>::new(256)).spawn());
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let svc = Arc::clone(&svc);
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        svc.start_timer(t * 1_000 + i, TickDelta(10 + i % 7))
                            .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(svc.outstanding(), 400);
        let fired = svc.advance(20);
        assert_eq!(fired, 400);
        assert_eq!(svc.expiries().try_iter().count(), 400);
    }

    #[test]
    fn concurrent_advance_bursts_attribute_each_fire_once() {
        use std::sync::Arc;
        let svc =
            Arc::new(TimerService::builder(HashedWheelUnsorted::<RequestId>::new(64)).spawn());
        for i in 0..40u64 {
            svc.start_timer(i, TickDelta(i % 20 + 1)).unwrap();
        }
        // Four clients race 5-tick advances; in whichever order the lock
        // serializes them, each fire must be counted by exactly one
        // advance and none may be lost.
        let clients: Vec<_> = (0..4u64)
            .map(|_| {
                let svc = Arc::clone(&svc);
                std::thread::spawn(move || svc.advance(5))
            })
            .collect();
        let total: u64 = clients.into_iter().map(|t| t.join().unwrap()).sum();
        assert_eq!(total, 40, "every timer fired in exactly one window");
        assert_eq!(svc.expiries().try_iter().count(), 40);
        assert_eq!(svc.outstanding(), 0);
    }

    #[test]
    fn realtime_ticker_fires() {
        let svc = TimerService::builder(HashedWheelUnsorted::<RequestId>::new(64))
            .realtime(Duration::from_millis(1))
            .spawn();
        svc.start_timer(7, TickDelta(3)).unwrap();
        let e = svc
            .expiries()
            .recv_timeout(Duration::from_secs(5))
            .expect("timer fires under the wall-clock ticker");
        assert_eq!(e.id, RequestId(7));
        assert_eq!(e.fired_at, e.deadline);
    }

    #[test]
    fn realtime_lateness_stays_under_thirty_percent() {
        let period = Duration::from_micros(100);
        let svc = TimerService::builder(HashedWheelUnsorted::<RequestId>::new(256))
            .realtime(period)
            .spawn();
        let begun = std::time::Instant::now();
        svc.start_timer(7, TickDelta(2_000)).unwrap();
        svc.expiries()
            .recv_timeout(Duration::from_secs(10))
            .expect("timer fires under the wall-clock ticker");
        let took = begun.elapsed();
        let ideal = period * 2_000;
        assert!(took <= ideal * 13 / 10, "{took:?} for {ideal:?} of ticks");
    }

    #[test]
    fn a_slow_consumer_meets_exhausted_and_each_drain_frees_one_start() {
        let svc = TimerService::builder(HashedWheelUnsorted::<RequestId>::new(64))
            .arena_capacity(8)
            .spawn();
        for i in 0..8u64 {
            svc.start_timer(i, TickDelta(1)).unwrap();
        }
        assert_eq!(svc.start_timer(8, TickDelta(1)), Err(TimerError::Exhausted));
        assert_eq!(svc.advance(1), 8);
        assert_eq!(svc.outstanding(), 0);
        assert_eq!(
            svc.start_timer(8, TickDelta(1)),
            Err(TimerError::Exhausted),
            "undrained expiries keep their places"
        );
        for k in 1..=3u64 {
            svc.expiries().try_recv().unwrap();
            assert!(svc.start_timer(100 + k, TickDelta(5)).is_ok());
            assert_eq!(
                svc.start_timer(200 + k, TickDelta(5)),
                Err(TimerError::Exhausted),
                "one drained expiry admits exactly one start"
            );
        }
        assert_eq!(svc.outstanding() + svc.expiries().len(), 8);
    }

    #[test]
    fn four_threads_never_push_past_the_cap() {
        use std::sync::Arc;
        const CAP: usize = 32;
        let svc = Arc::new(
            TimerService::builder(HashedWheelUnsorted::<RequestId>::new(64))
                .arena_capacity(CAP)
                .spawn(),
        );
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let svc = Arc::clone(&svc);
                std::thread::spawn(move || {
                    let mut exhausted = 0u64;
                    for i in 0..500u64 {
                        match svc.start_timer(t * 1_000 + i, TickDelta(1 + i % 3)) {
                            Ok(_) => {}
                            Err(TimerError::Exhausted) => exhausted += 1,
                            Err(e) => panic!("unexpected {e}"),
                        }
                        if i % 4 == 0 {
                            svc.advance(1);
                        }
                        if i % 7 == 0 {
                            let _ = svc.expiries().try_recv();
                        }
                    }
                    exhausted
                })
            })
            .collect();
        let exhausted: u64 = threads.into_iter().map(|t| t.join().unwrap()).sum();
        assert!(exhausted > 0, "the undrained queue reached the cap");
        assert!(svc.outstanding() + svc.expiries().len() <= CAP);
        svc.advance(10);
        assert_eq!(svc.outstanding(), 0);
        assert!(svc.expiries().len() <= CAP);
    }
}
