//! An owning timer-service thread: the deployable form of the facility.
//!
//! A dedicated thread owns one (single-threaded) timer scheme; clients talk
//! to it over channels. This is the software analogue of the Appendix A.1
//! chip — "the only communication between the host and chip is through
//! interrupts" becomes "the only communication is through messages" — and
//! it keeps the hot data structure single-owner, which §A.2 notes is the
//! alternative to locking.
//!
//! Time can be driven two ways:
//!
//! * **virtual** — clients call [`TimerService::advance`], which is
//!   deterministic and what the tests and experiments use;
//! * **real** — [`TimerServiceBuilder::realtime`] runs a wall-clock ticker
//!   at a fixed tick period.
//!
//! Expirations are delivered on a channel as [`Expiry`] records.

use std::collections::HashMap;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::sync::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use crate::sync::Arc;
use tw_core::{
    NoopObserver, Observed, Observer, RequestId, Tick, TickDelta, TimerError, TimerHandle,
    TimerScheme,
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

enum Cmd {
    Start {
        id: RequestId,
        interval: TickDelta,
        reply: Sender<Result<TimerHandle, TimerError>>,
    },
    Stop {
        handle: TimerHandle,
        reply: Sender<Result<RequestId, TimerError>>,
    },
    Restart {
        handle: TimerHandle,
        interval: TickDelta,
        reply: Sender<Result<(), TimerError>>,
    },
    Advance {
        ticks: u64,
        reply: Sender<u64>,
    },
    Outstanding {
        reply: Sender<usize>,
    },
    Shutdown,
}

/// Configures and spawns a [`TimerService`]: the single construction
/// entry point for the service thread.
///
/// One builder covers wall-clock ticking, a shared [`Observer`] and an
/// arena admission ceiling:
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
    /// Drives the clock from wall time: one scheme tick every `period`.
    /// Without this the service keeps virtual time and only moves on
    /// [`TimerService::advance`].
    pub fn realtime(mut self, period: Duration) -> Self {
        self.period = Some(period);
        self
    }

    /// Reports service events to `observer` (typically a `tw-obs`
    /// `ServiceTelemetry` behind the `Arc`): the scheme hooks via
    /// [`Observed`], plus [`Observer::on_queue_depth`] per command picked
    /// up, [`Observer::on_batch`] per coalesced burst, and
    /// [`Observer::on_command_latency`] with the command→fire tick
    /// distance when an armed timer fires.
    pub fn observer(mut self, observer: Arc<dyn Observer + Send + Sync>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Caps the scheme's arena at `limit` live timers before spawning;
    /// past the cap, `start_timer` reports [`TimerError::Exhausted`] until
    /// a stop or expiry frees a slot. Ignored by schemes without an arena
    /// (every wheel in this workspace has one; see
    /// [`TimerScheme::set_arena_capacity`]).
    pub fn arena_capacity(mut self, limit: usize) -> Self {
        self.arena_capacity = Some(limit);
        self
    }

    /// Spawns the owning service thread and returns the client handle.
    #[must_use]
    pub fn spawn(self) -> TimerService {
        let TimerServiceBuilder {
            mut scheme,
            period,
            observer,
            arena_capacity,
        } = self;
        if let Some(limit) = arena_capacity {
            let _ = scheme.set_arena_capacity(limit);
        }
        // Dispatch keeps the unobserved path monomorphized over
        // `NoopObserver` — zero-sized, every hook inlined away — instead of
        // paying dyn dispatch for no recorder.
        match observer {
            Some(o) => TimerService::spawn_inner(scheme, period, o),
            None => TimerService::spawn_inner(scheme, period, NoopObserver),
        }
    }
}

/// Handle to a running timer-service thread. See the [module docs](self).
pub struct TimerService {
    cmd: Sender<Cmd>,
    expiries: Receiver<Expiry>,
    join: Option<JoinHandle<()>>,
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

    fn spawn_inner<S, O>(scheme: S, period: Option<Duration>, observer: O) -> TimerService
    where
        S: TimerScheme<RequestId> + Send + 'static,
        O: Observer + Clone + Send + 'static,
    {
        // The scheme-level hooks ride the Observed wrapper; the service
        // loop below raises the service-level ones on its own clone.
        let mut scheme = Observed::new(scheme, observer.clone());
        // Tick each armed timer was started at, for command→fire latency.
        let mut armed: HashMap<TimerHandle, Tick> = HashMap::new();
        let (cmd_tx, cmd_rx) = unbounded::<Cmd>();
        let (exp_tx, exp_rx) = unbounded::<Expiry>();
        let join = std::thread::Builder::new()
            .name("timer-service".into())
            .spawn(move || {
                // With a real-time ticker, wait for commands only until the
                // next tick deadline; with virtual time, wait indefinitely.
                // tw-analyze: allow(TW003, reason = "the optional real-time ticker is this driver's entire purpose (Appendix A model); virtual-time services pass period = None and never construct next_tick")
                let mut next_tick = period.map(|p| (Instant::now() + p, p));
                // A command pulled off the queue while coalescing an
                // Advance burst, to be handled on the next loop iteration.
                let mut pending: Option<Cmd> = None;
                loop {
                    let cmd = if let Some(c) = pending.take() {
                        Some(c)
                    } else if let Some((deadline, p)) = next_tick {
                        // tw-analyze: allow(TW003, reason = "same real-time ticker: computing the recv timeout until the next wall-clock tick deadline is the driver's job, not scheme logic")
                        let now = Instant::now();
                        if now >= deadline {
                            next_tick = Some((deadline + p, p));
                            None
                        } else {
                            match cmd_rx.recv_timeout(deadline - now) {
                                Ok(c) => Some(c),
                                Err(RecvTimeoutError::Timeout) => {
                                    next_tick = Some((deadline + p, p));
                                    None
                                }
                                Err(RecvTimeoutError::Disconnected) => break,
                            }
                        }
                    } else {
                        match cmd_rx.recv() {
                            Ok(c) => Some(c),
                            Err(_) => break,
                        }
                    };
                    if cmd.is_some() {
                        observer.on_queue_depth(cmd_rx.len());
                    }
                    match cmd {
                        None => {
                            // Real-time tick.
                            let armed = &mut armed;
                            scheme.tick(&mut |e| {
                                if let Some(at) = armed.remove(&e.handle) {
                                    observer.on_command_latency(e.fired_at.since(at));
                                }
                                let _ = exp_tx.send(Expiry {
                                    id: e.payload,
                                    deadline: e.deadline,
                                    fired_at: e.fired_at,
                                });
                            });
                        }
                        Some(Cmd::Start {
                            id,
                            interval,
                            reply,
                        }) => {
                            let result = scheme.start_timer(interval, id);
                            if let Ok(handle) = result {
                                armed.insert(handle, scheme.now());
                            }
                            let _ = reply.send(result);
                        }
                        Some(Cmd::Stop { handle, reply }) => {
                            armed.remove(&handle);
                            let _ = reply.send(scheme.stop_timer(handle));
                        }
                        Some(Cmd::Restart {
                            handle,
                            interval,
                            reply,
                        }) => {
                            // Coalesce a burst of queued Restart commands:
                            // UPDATE semantics make the newest interval per
                            // handle the only one that takes effect, so one
                            // relink serves the whole burst. Every command
                            // for a handle observes the surviving restart's
                            // result — a superseded interval's deadline
                            // never takes effect, so neither does its
                            // error, except zero intervals, which are
                            // settled per command (they are pure failures
                            // that mutate nothing).
                            let mut burst = vec![(handle, interval, reply)];
                            loop {
                                match cmd_rx.try_recv() {
                                    Ok(Cmd::Restart {
                                        handle,
                                        interval,
                                        reply,
                                    }) => burst.push((handle, interval, reply)),
                                    Ok(other) => {
                                        pending = Some(other);
                                        break;
                                    }
                                    Err(_) => break,
                                }
                            }
                            observer.on_batch(burst.len());
                            let mut newest: HashMap<TimerHandle, TickDelta> = HashMap::new();
                            for (h, interval, _) in &burst {
                                if !interval.is_zero() {
                                    newest.insert(*h, *interval);
                                }
                            }
                            let mut outcome: HashMap<TimerHandle, Result<(), TimerError>> =
                                HashMap::new();
                            for (&h, &interval) in &newest {
                                let r = scheme.restart_timer(h, interval);
                                if r.is_ok() {
                                    armed.insert(h, scheme.now());
                                }
                                outcome.insert(h, r);
                            }
                            for (h, interval, reply) in burst {
                                let result = if interval.is_zero() {
                                    Err(TimerError::ZeroInterval)
                                } else {
                                    outcome.get(&h).cloned().unwrap_or(Err(TimerError::Stale))
                                };
                                let _ = reply.send(result);
                            }
                        }
                        Some(Cmd::Advance { ticks, reply }) => {
                            // Coalesce a burst of queued Advance commands
                            // into one batched advance over the scheme's
                            // fast path, attributing fired counts back to
                            // each command by its tick window.
                            let mut windows = vec![(ticks, reply)];
                            loop {
                                match cmd_rx.try_recv() {
                                    Ok(Cmd::Advance { ticks, reply }) => {
                                        windows.push((ticks, reply));
                                    }
                                    Ok(other) => {
                                        pending = Some(other);
                                        break;
                                    }
                                    Err(_) => break,
                                }
                            }
                            observer.on_batch(windows.len());
                            let start = scheme.now().as_u64();
                            let bounds: Vec<u64> = windows
                                .iter()
                                .scan(start, |end, w| {
                                    *end += w.0;
                                    Some(*end)
                                })
                                .collect();
                            let mut counts = vec![0u64; windows.len()];
                            let end = bounds.last().copied().unwrap_or(start);
                            let armed = &mut armed;
                            scheme.advance_to_with(Tick(end), &mut |e| {
                                let fired_at = e.fired_at.as_u64();
                                let w = bounds.partition_point(|&b| b < fired_at);
                                counts[w] += 1;
                                if let Some(at) = armed.remove(&e.handle) {
                                    observer.on_command_latency(e.fired_at.since(at));
                                }
                                let _ = exp_tx.send(Expiry {
                                    id: e.payload,
                                    deadline: e.deadline,
                                    fired_at: e.fired_at,
                                });
                            });
                            for ((_, reply), fired) in windows.iter().zip(counts) {
                                let _ = reply.send(fired);
                            }
                        }
                        Some(Cmd::Outstanding { reply }) => {
                            let _ = reply.send(scheme.outstanding());
                        }
                        Some(Cmd::Shutdown) => break,
                    }
                }
            })
            .expect("spawn timer-service thread");
        TimerService {
            cmd: cmd_tx,
            expiries: exp_rx,
            join: Some(join),
        }
    }

    /// `START_TIMER` by message round-trip.
    ///
    /// # Errors
    ///
    /// Propagates the scheme's errors.
    ///
    /// # Panics
    ///
    /// Panics if the service thread has died.
    pub fn start_timer(
        &self,
        id: impl Into<RequestId>,
        interval: TickDelta,
    ) -> Result<TimerHandle, TimerError> {
        let (tx, rx) = bounded(1);
        self.round_trip(
            Cmd::Start {
                id: id.into(),
                interval,
                reply: tx,
            },
            &rx,
        )
    }

    /// Sends `cmd` and blocks for the single reply — the one message
    /// round-trip every client call is made of.
    ///
    /// # Panics
    ///
    /// Panics if the service thread has died; this is the audited choke
    /// point every client round-trip routes through.
    fn round_trip<R>(&self, cmd: Cmd, rx: &Receiver<R>) -> R {
        // tw-analyze: allow(TW002, reason = "documented # Panics contract: a dead service thread is unrecoverable infrastructure failure, not a timer-domain error the TimerError enum can express; every client round-trip routes through this one choke point")
        self.cmd.send(cmd).expect("timer service alive");
        // tw-analyze: allow(TW002, reason = "same dead-service-thread contract as the send above")
        rx.recv().expect("timer service alive")
    }

    /// `STOP_TIMER` by message round-trip; returns the timer's id.
    ///
    /// # Errors
    ///
    /// [`TimerError::Stale`] if the timer already fired or was stopped.
    ///
    /// # Panics
    ///
    /// Panics if the service thread has died.
    pub fn stop_timer(&self, handle: TimerHandle) -> Result<RequestId, TimerError> {
        let (tx, rx) = bounded(1);
        self.round_trip(Cmd::Stop { handle, reply: tx }, &rx)
    }

    /// `UPDATE` by message round-trip: re-arms `handle` to expire
    /// `interval` ticks after the service's current time, keeping the
    /// handle valid. Bursts of queued restarts are coalesced by the service
    /// loop — the newest interval per handle wins, which is exactly what
    /// executing them in arrival order would leave behind.
    ///
    /// # Errors
    ///
    /// Whatever the owned scheme's `restart_timer` returns —
    /// [`TimerError::Stale`] for fired/stopped handles,
    /// [`TimerError::ZeroInterval`], overflow-policy errors, or
    /// [`TimerError::UpdateUnsupported`].
    ///
    /// # Panics
    ///
    /// Panics if the service thread has died.
    pub fn restart_timer(
        &self,
        handle: TimerHandle,
        interval: TickDelta,
    ) -> Result<(), TimerError> {
        let (tx, rx) = bounded(1);
        self.round_trip(
            Cmd::Restart {
                handle,
                interval,
                reply: tx,
            },
            &rx,
        )
    }

    /// Advances virtual time by `ticks`; returns how many timers fired.
    ///
    /// # Panics
    ///
    /// Panics if the service thread has died.
    pub fn advance(&self, ticks: u64) -> u64 {
        let (tx, rx) = bounded(1);
        self.round_trip(Cmd::Advance { ticks, reply: tx }, &rx)
    }

    /// Number of outstanding timers.
    ///
    /// # Panics
    ///
    /// Panics if the service thread has died.
    pub fn outstanding(&self) -> usize {
        let (tx, rx) = bounded(1);
        self.round_trip(Cmd::Outstanding { reply: tx }, &rx)
    }

    /// The expiry notification channel.
    pub fn expiries(&self) -> &Receiver<Expiry> {
        &self.expiries
    }
}

impl Drop for TimerService {
    fn drop(&mut self) {
        let _ = self.cmd.send(Cmd::Shutdown);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
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
    fn restart_bursts_coalesce_to_the_newest_interval() {
        use std::sync::Arc;
        let svc =
            Arc::new(TimerService::builder(HashedWheelUnsorted::<RequestId>::new(64)).spawn());
        let handles: Vec<TimerHandle> = (0..20u64)
            .map(|i| svc.start_timer(i, TickDelta(500)).unwrap())
            .collect();
        // Four clients hammer restarts on the same handles; the service
        // may coalesce any burst shape, but every call must succeed and
        // each timer must end on *some* successful restart's schedule,
        // never the original one.
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
        // Four clients race 5-tick advances; whichever burst shape the
        // service coalesces them into, each fire must be attributed to
        // exactly one command's window and none may be lost.
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
}
