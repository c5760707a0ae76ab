//! The timer driver: owns a [`TimerScheme`] behind one lock, next to the
//! [`WakerTable`], and converts the wheel's expiries into task wakeups.
//!
//! Each sleep call runs its routine in place on the calling thread, in one
//! short critical section: the Appendix A.2 choice of a lock over a single
//! owning thread, so no call pays a message, a reply channel or a thread
//! hop. Two clocking modes:
//!
//! * **Virtual time** (default) — the caller owns the clock and calls
//!   [`TimerDriver::advance`], which delivers the whole coalesced wake
//!   storm before returning. No thread is started.
//! * **Realtime** ([`TimerDriverBuilder::realtime`]) — one ticker thread
//!   calls `advance(1)` once per period, so both modes share every line
//!   of the delivery path.
//!
//! The fire path is allocation-free: `advance` ticks the wheel into a
//! reused expiry buffer and releases the wheel lock. Each expiry's
//! `Request_ID` *is* the packed waker-slot handle ([`slot_to_request`]),
//! so delivery is one generation-checked arena lookup
//! ([`WakerTable::take_for_fire`]) and a `Waker::wake` outside both
//! locks, which are never held together. Wheel-side events flow through
//! the [`Observed`] wrapper around the scheme; the driver adds
//! [`Observer::on_wake_latency`], recording arm→wake elapsed ticks per
//! fire.
//!
//! # Backpressure
//!
//! When either arena is at its [`arena_capacity`](TimerDriverBuilder::arena_capacity)
//! cap, arming reports [`TimerError::Exhausted`] internally. The driver
//! converts that into *recoverable pending*: the sleep's waker is parked,
//! the arm retried once (a fire may have raced the failure), and on the
//! next capacity release — any fire or cancel — all parked wakers are
//! woken so their sleeps re-poll and re-try the arm. No task ever observes
//! the error.

use std::future::Future;
use std::sync::Arc;
use std::task::Waker;
use std::time::Duration;

use tw_concurrent::sync::Mutex;
use tw_core::{
    Expired, Observed, Observer, RequestId, Tick, TickDelta, TimerError, TimerHandle, TimerScheme,
};

use crate::interval::Interval;
use crate::sleep::Sleep;
use crate::slots::{request_to_slot, slot_to_request, RegisterOutcome, WakerTable};
use crate::timeout::Timeout;

/// The scheme and the buffer its expiries are collected into.
struct Wheel {
    timers: Box<dyn TimerScheme<RequestId> + Send>,
    /// Kept between advances so its capacity is reused; empty whenever
    /// the lock is free.
    fired: Vec<Expired<RequestId>>,
}

/// State shared between driver handles, polling tasks, and the realtime
/// ticker thread.
struct DriverShared {
    wheel: Mutex<Wheel>,
    table: WakerTable<Waker>,
    /// Wakers of sleeps that hit `Exhausted` while arming; woken (to
    /// re-poll and retry) whenever capacity is released.
    parked: Mutex<Vec<Waker>>,
    observer: Option<Arc<dyn Observer + Send + Sync>>,
}

impl DriverShared {
    /// Advances the clock by `ticks` and delivers every fire, each wake
    /// outside both locks. Returns the number of timers the wheel fired.
    fn advance(&self, ticks: u64) -> u64 {
        let mut fired = {
            let mut wheel = self.wheel.lock();
            let Wheel { timers, fired } = &mut *wheel;
            let mut buf = std::mem::take(fired);
            let deadline = Tick(timers.now().as_u64().saturating_add(ticks));
            // The lock is held across the scheme's expiry callback, which
            // only appends to the buffer, and across the observer's scheme
            // hooks, which the `Observer` contract keeps cheap and
            // non-blocking. Wakes, the user code here, run after release.
            timers.advance_to_with(deadline, &mut |e| buf.push(e));
            buf
        };
        let count = fired.len() as u64;
        let mut woken = false;
        for expiry in fired.drain(..) {
            woken |= self.fire(&expiry);
        }
        if woken {
            // Fires freed slots: let parked sleeps contend for them.
            self.wake_parked();
        }
        let mut wheel = self.wheel.lock();
        if wheel.fired.capacity() < fired.capacity() {
            wheel.fired = fired;
        }
        count
    }

    /// Routes one expiry to its waker slot. Returns `true` if a live sleep
    /// was completed (a stale expiry — the sleep was dropped or reset
    /// between the fire and this delivery — is dropped silently).
    fn fire(&self, expiry: &Expired<RequestId>) -> bool {
        let slot = request_to_slot(expiry.payload);
        let Some((waker, interval)) = self.table.take_for_fire(slot) else {
            return false;
        };
        if let Some(obs) = &self.observer {
            // Arm tick reconstructed from the slot's recorded interval;
            // saturating because reduced-precision schemes may round the
            // deadline below `armed + interval`.
            let armed = expiry.deadline.as_u64().saturating_sub(interval.as_u64());
            let elapsed = expiry.fired_at.as_u64().saturating_sub(armed);
            obs.on_wake_latency(TickDelta(elapsed));
        }
        if let Some(w) = waker {
            w.wake();
        }
        true
    }

    fn wake_parked(&self) {
        let drained = std::mem::take(&mut *self.parked.lock());
        for w in drained {
            w.wake();
        }
    }
}

/// Builder for a [`TimerDriver`]; the async layer's single construction
/// entry point.
///
/// ```
/// use tw_async::TimerDriver;
/// use tw_core::wheel::HashedWheelUnsorted;
/// use tw_core::RequestId;
///
/// let driver = TimerDriver::builder(HashedWheelUnsorted::<RequestId>::new(256))
///     .arena_capacity(1 << 20)
///     .build();
/// let sleep = driver.sleep(tw_core::TickDelta(10));
/// # drop(sleep);
/// ```
pub struct TimerDriverBuilder<S> {
    scheme: S,
    period: Option<Duration>,
    observer: Option<Arc<dyn Observer + Send + Sync>>,
    arena_capacity: Option<usize>,
}

impl<S> TimerDriverBuilder<S>
where
    S: TimerScheme<RequestId> + Send + 'static,
{
    /// Ticks the wheel once per wall-clock `period` from a driver-owned
    /// thread, which also delivers the wakes. Without this, the driver
    /// runs in virtual time and [`TimerDriver::advance`] is the clock.
    #[must_use]
    pub fn realtime(mut self, period: Duration) -> Self {
        self.period = Some(period);
        self
    }

    /// Installs `observer` on both layers: the [`Observed`] wrapper
    /// raises the scheme hooks, the driver raises
    /// [`Observer::on_wake_latency`] per delivered wake.
    #[must_use]
    pub fn observer(mut self, observer: Arc<dyn Observer + Send + Sync>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Caps both arenas — the scheme's timer records and the waker table —
    /// at `limit` live entries. Past the cap, arming parks instead of
    /// erroring (see the module docs on backpressure).
    #[must_use]
    pub fn arena_capacity(mut self, limit: usize) -> Self {
        self.arena_capacity = Some(limit);
        self
    }

    /// Builds the driver (and starts the ticker, in realtime mode) and
    /// returns the cloneable handle.
    #[must_use]
    pub fn build(self) -> TimerDriver {
        // Only the boxing is generic, so each scheme type adds no more
        // than its vtable; the rest is `TimerDriver::start`.
        let timers: Box<dyn TimerScheme<RequestId> + Send> = match &self.observer {
            Some(o) => Box::new(Observed::new(self.scheme, Arc::clone(o))),
            None => Box::new(self.scheme),
        };
        TimerDriver::start(timers, self.period, self.observer, self.arena_capacity)
    }
}

/// Result of arming a sleep's timer.
pub(crate) enum ArmOutcome {
    /// Timer started; the sleep holds both handles until fire/drop/reset.
    Armed {
        /// Waker-table slot (packed into the wheel's `Request_ID`).
        slot: TimerHandle,
        /// Wheel-side timer handle, for `restart_timer`/`stop_timer`.
        timer: TimerHandle,
    },
    /// Capacity exhausted; the waker is parked and the sleep stays
    /// pending — it re-arms on the wake that follows a capacity release.
    Parked,
}

/// Cloneable handle to the async timer driver. All sleeps created from
/// clones share one wheel and one waker table.
#[derive(Clone)]
pub struct TimerDriver {
    shared: Arc<DriverShared>,
}

impl TimerDriver {
    /// Starts building a driver over `scheme`. See [`TimerDriverBuilder`].
    pub fn builder<S>(scheme: S) -> TimerDriverBuilder<S>
    where
        S: TimerScheme<RequestId> + Send + 'static,
    {
        TimerDriverBuilder {
            scheme,
            period: None,
            observer: None,
            arena_capacity: None,
        }
    }

    /// The non-generic rest of [`TimerDriverBuilder::build`].
    fn start(
        mut timers: Box<dyn TimerScheme<RequestId> + Send>,
        period: Option<Duration>,
        observer: Option<Arc<dyn Observer + Send + Sync>>,
        arena_capacity: Option<usize>,
    ) -> TimerDriver {
        let table = WakerTable::new();
        if let Some(limit) = arena_capacity {
            let _ = timers.set_arena_capacity(limit);
            table.set_capacity(limit);
        }
        let shared = Arc::new(DriverShared {
            wheel: Mutex::new(Wheel {
                timers,
                fired: Vec::new(),
            }),
            table,
            parked: Mutex::new(Vec::new()),
            observer,
        });
        if let Some(period) = period {
            // The realtime clock, detached on purpose: the last handle may
            // drop on this very thread, inside a wake, where a join would
            // wait on itself. Holding only a weak reference, it ends within
            // a period of that drop.
            let driver = Arc::downgrade(&shared);
            std::thread::spawn(move || loop {
                std::thread::sleep(period);
                let Some(shared) = driver.upgrade() else {
                    return;
                };
                shared.advance(1);
            });
        }
        TimerDriver { shared }
    }

    /// A future that completes after `interval` ticks (`START_TIMER` on
    /// first poll, `STOP_TIMER` on drop, `UPDATE` on
    /// [`reset`](Sleep::reset)).
    #[must_use]
    pub fn sleep(&self, interval: TickDelta) -> Sleep {
        Sleep::new(self.clone(), interval)
    }

    /// Races `future` against an `interval`-tick deadline.
    #[must_use]
    pub fn timeout<F: Future>(&self, interval: TickDelta, future: F) -> Timeout<F> {
        Timeout::new(self.sleep(interval), future)
    }

    /// A stream of ticks every `period` ticks; each completed tick re-arms
    /// via `UPDATE` on the same waker slot.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero — an interval must make forward progress.
    #[must_use]
    pub fn interval(&self, period: TickDelta) -> Interval {
        assert!(!period.is_zero(), "interval period must be non-zero");
        Interval::new(self.sleep(period), period)
    }

    /// Advances the clock by `ticks`, fires due timers, and delivers
    /// the entire coalesced wake storm before returning. Returns the
    /// number of timers the wheel fired.
    ///
    /// In realtime mode the ticker calls this once per period; an
    /// explicit call moves the same clock further.
    pub fn advance(&self, ticks: u64) -> u64 {
        self.shared.advance(ticks)
    }

    /// Outstanding timers in the wheel (armed sleeps, from the scheme's
    /// point of view).
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.shared.wheel.lock().timers.outstanding()
    }

    /// Live waker slots — pending sleeps currently armed or mid-fire.
    #[must_use]
    pub fn pending_sleeps(&self) -> usize {
        self.shared.table.live()
    }

    /// Waker-table slots ever allocated (the memory high-water mark);
    /// plateaus under steady-state churn.
    #[must_use]
    pub fn waker_slots(&self) -> usize {
        self.shared.table.slot_count()
    }

    /// Arms a sleep: allocate the waker slot *first* (so a fire racing the
    /// return can already find the waker), then `START_TIMER` with the
    /// packed slot as the `Request_ID`.
    pub(crate) fn arm(&self, interval: TickDelta, waker: &Waker) -> ArmOutcome {
        if let Some(armed) = self.try_arm(interval, waker) {
            return armed;
        }
        // Exhausted: park, then retry once — a fire may have released
        // capacity between the failure and the park, and without the
        // retry that release's wake_parked would already have passed us
        // by. A leftover parked clone after a successful retry is a
        // harmless spurious wake.
        self.shared.parked.lock().push(waker.clone());
        match self.try_arm(interval, waker) {
            Some(armed) => armed,
            None => ArmOutcome::Parked,
        }
    }

    fn try_arm(&self, interval: TickDelta, waker: &Waker) -> Option<ArmOutcome> {
        let slot = match self.shared.table.alloc(interval, waker.clone()) {
            Ok(slot) => slot,
            Err(_) => return None,
        };
        let started = self
            .shared
            .wheel
            .lock()
            .timers
            .start_timer(interval, slot_to_request(slot));
        match started {
            Ok(timer) => Some(ArmOutcome::Armed { slot, timer }),
            Err(TimerError::Exhausted) => {
                self.shared.table.cancel(slot);
                None
            }
            Err(err) => {
                self.shared.table.cancel(slot);
                // Config-shaped rejections (zero interval is screened by
                // Sleep, so this is out-of-range/overflow): surface at the
                // call site rather than parking forever.
                panic!("timer driver could not arm sleep: {err}");
            }
        }
    }

    /// Poll-time waker re-registration on an armed sleep's slot.
    pub(crate) fn register(&self, slot: TimerHandle, waker: &Waker) -> RegisterOutcome {
        self.shared.table.register_waker(slot, waker)
    }

    /// `UPDATE` path for [`Sleep::reset`]: one `restart_timer` relink
    /// (never stop+start), then refresh the slot's recorded interval.
    pub(crate) fn restart(
        &self,
        timer: TimerHandle,
        slot: TimerHandle,
        interval: TickDelta,
    ) -> Result<(), TimerError> {
        self.shared
            .wheel
            .lock()
            .timers
            .restart_timer(timer, interval)?;
        self.shared.table.set_interval(slot, interval);
        Ok(())
    }

    /// Cancellation path (drop, or reset of an already-fired sleep): stop
    /// the wheel timer, free the waker slot, and hand the released
    /// capacity to any exhaustion-parked sleeps.
    pub(crate) fn release(&self, timer: TimerHandle, slot: TimerHandle) {
        // The stop may report Stale — the timer fired and its delivery is
        // (or was) under way; freeing the slot here makes that delivery
        // find a stale slot and drop silently.
        let _ = self.shared.wheel.lock().timers.stop_timer(timer);
        if self.shared.table.cancel(slot) {
            self.shared.wake_parked();
        }
    }
}
