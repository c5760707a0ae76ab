//! The timer driver: owns a [`TimerScheme`] and the waker slab behind one
//! lock ([`Wheel`]) and converts the wheel's expiries into task wakeups.
//!
//! Each sleep call runs its routine in place on the calling thread, in one
//! short critical section: the Appendix A.2 choice of a lock over a single
//! owning thread, so no call pays a message, a reply channel or a thread
//! hop. Two clocking modes:
//!
//! * **Virtual time** (default) — the caller owns the clock and calls
//!   [`TimerDriver::advance`], which delivers the whole coalesced wake
//!   storm before returning. No thread is started.
//! * **Realtime** ([`TimerDriverBuilder::realtime`]) — the shared
//!   [`ticker`](tw_concurrent::ticker) thread calls `advance` on a
//!   drift-free wall-clock grid: tick `k` comes due `k·period` after the
//!   build, and a late wake delivers the ticks it missed in one batched
//!   advance. Both modes share every line of the delivery path. A zero
//!   period starts no ticker and keeps virtual time.
//!
//! The fire path is allocation-free and takes the lock once per advance:
//! the sweep ticks the wheel, routes each expiry's `Request_ID` (the
//! packed slot handle, [`slot_to_request`](crate::slots::slot_to_request))
//! to its waker, frees the slot and collects the waker into a reused
//! per-thread buffer, all in one critical section; the batch is woken
//! after the lock is released.
//!
//! The driver raises the observer's hooks itself, in the same critical
//! sections, on a bare scheme: no [`Observed`](tw_core::Observed) layer
//! sits under the sweep, because that layer would add a second callback
//! per fire. Arm, reset and release raise `on_start`, `on_restart` and
//! `on_stop` on success, with the arguments `Observed` would pass. Each
//! advance is one `on_tick_begin`/`on_tick_end` window, inside which the
//! sweep's own expiry callback reports [`Observer::on_fires`] and
//! [`Observer::on_wake_latency`], each coalesced into one call per run of
//! equal values ([`Runs`](tw_core::observe::Runs)). The wake latency is
//! the deadline→delivery distance in ticks of each wake: the advance's
//! target tick minus the timer's deadline. It is 0 for an exact scheme
//! advanced one tick at a time, grows with the batch of a longer
//! `advance`, and includes a reduced-precision hierarchy's §6.2 lateness.
//! An exact scheme advanced one tick at a time therefore makes one call
//! of each per-fire hook per tick, however many sleeps fire.
//!
//! # Backpressure
//!
//! When either the slab or the scheme's arena is at its
//! [`arena_capacity`](TimerDriverBuilder::arena_capacity) cap, arming
//! reports [`TimerError::Exhausted`](tw_core::TimerError::Exhausted)
//! internally. The driver converts that into *recoverable pending*: the
//! sleep's waker is parked under the same lock, and the next capacity
//! release (any fire or drop, which must take that lock) wakes every
//! parked sleep to re-poll and re-try the arm. No task ever observes the
//! error, and no wakeup is lost between the failure and the park.

use std::cell::Cell;
use std::future::Future;
use std::sync::Arc;
use std::task::Waker;
use std::time::Duration;

use tw_concurrent::sync::Mutex;
use tw_concurrent::ticker;
use tw_core::{Observer, RequestId, TickDelta, TimerError, TimerHandle, TimerScheme};

use crate::interval::Interval;
use crate::sleep::Sleep;
use crate::slots::{ArmOutcome, RegisterOutcome, Wheel};
use crate::timeout::Timeout;

thread_local! {
    /// The wakers one advance collects under the lock and wakes after it.
    /// Per thread, so its capacity is reused without taking the lock
    /// again; a wake that re-enters `advance` finds it empty and starts
    /// its own.
    static WOKEN: Cell<Vec<Waker>> = const { Cell::new(Vec::new()) };
}

/// Advances `wheel`'s clock by `ticks` and delivers every fire, each wake
/// outside the lock. Returns the number of timers the wheel fired.
fn advance(wheel: &Mutex<Wheel<Waker>>, ticks: u64) -> u64 {
    let mut woken = WOKEN.take();
    // The lock is held across the scheme's expiry callback, which frees
    // one slot and pushes its waker, and across the observer's hooks,
    // which the `Observer` contract keeps cheap and non-blocking. Wakes,
    // the user code here, run after release.
    let fired = {
        let mut wheel = wheel.lock();
        wheel.sweep(ticks, &mut woken)
    };
    for waker in woken.drain(..) {
        waker.wake();
    }
    WOKEN.set(woken);
    fired
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
    /// Ticks the wheel on a wall-clock grid of `period` from the shared
    /// [`ticker`](tw_concurrent::ticker) thread, which also delivers the
    /// wakes. Without this, or with a zero `period`, the driver runs in
    /// virtual time and [`TimerDriver::advance`] is the clock.
    #[must_use]
    pub fn realtime(mut self, period: Duration) -> Self {
        self.period = Some(period);
        self
    }

    /// Installs `observer`, which then receives the scheme hooks of every
    /// sleep routine and [`Observer::on_wake_latency`] for delivered wakes
    /// (see the module docs).
    #[must_use]
    pub fn observer(mut self, observer: Arc<dyn Observer + Send + Sync>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Caps both slabs — the scheme's timer records and the waker slots —
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
        TimerDriver::start(
            Box::new(self.scheme),
            self.period,
            self.observer,
            self.arena_capacity,
        )
    }
}

/// Cloneable handle to the async timer driver. All sleeps created from
/// clones share one wheel and one waker slab, behind one lock.
#[derive(Clone)]
pub struct TimerDriver {
    wheel: Arc<Mutex<Wheel<Waker>>>,
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
        timers: Box<dyn TimerScheme<RequestId> + Send>,
        period: Option<Duration>,
        observer: Option<Arc<dyn Observer + Send + Sync>>,
        arena_capacity: Option<usize>,
    ) -> TimerDriver {
        let wheel = Arc::new(Mutex::new(Wheel::new(timers, observer, arena_capacity)));
        if let Some(period) = period {
            // The shared realtime clock. Holding only a weak reference, it
            // ends within a period of the last handle's drop.
            let driver = Arc::downgrade(&wheel);
            ticker::spawn(period, move |ticks| {
                let Some(wheel) = driver.upgrade() else {
                    return false;
                };
                advance(&wheel, ticks);
                true
            });
        }
        TimerDriver { wheel }
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
    /// the sleep, whose next poll starts a fresh timer.
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
    /// In realtime mode the ticker calls this as ticks come due; an
    /// explicit call moves the same clock further.
    pub fn advance(&self, ticks: u64) -> u64 {
        advance(&self.wheel, ticks)
    }

    /// Outstanding timers in the wheel (armed sleeps, from the scheme's
    /// point of view).
    #[must_use]
    pub fn outstanding(&self) -> usize {
        let wheel = self.wheel.lock();
        wheel.outstanding()
    }

    /// Live waker slots — pending sleeps currently armed.
    #[must_use]
    pub fn pending_sleeps(&self) -> usize {
        let wheel = self.wheel.lock();
        wheel.pending_sleeps()
    }

    /// Waker slots ever allocated (the memory high-water mark);
    /// plateaus under steady-state churn.
    #[must_use]
    pub fn waker_slots(&self) -> usize {
        let wheel = self.wheel.lock();
        wheel.waker_slots()
    }

    /// Arms a sleep in one critical section: slot, `START_TIMER`, or the
    /// park on exhaustion.
    pub(crate) fn arm(&self, interval: TickDelta, waker: &Waker) -> ArmOutcome {
        let armed = {
            let mut wheel = self.wheel.lock();
            wheel.arm(interval, waker.clone())
        };
        // Config-shaped rejections (zero interval is screened by Sleep, so
        // this is out-of-range/overflow): surface at the call site rather
        // than parking forever.
        armed.unwrap_or_else(|err| panic!("timer driver could not arm sleep: {err}"))
    }

    /// Poll-time waker re-registration on an armed sleep's slot.
    pub(crate) fn register(&self, slot: TimerHandle, waker: &Waker) -> RegisterOutcome {
        let mut wheel = self.wheel.lock();
        wheel.register_waker(slot, waker)
    }

    /// `UPDATE` path for [`Sleep::reset`]: one `restart_timer` relink
    /// (never stop+start), with no slot write.
    pub(crate) fn restart(
        &self,
        timer: TimerHandle,
        interval: TickDelta,
    ) -> Result<(), TimerError> {
        let mut wheel = self.wheel.lock();
        wheel.restart(timer, interval)
    }

    /// Cancellation path (drop, or a zero-interval reset): stop the wheel
    /// timer, free the waker slot, and wake any exhaustion-parked sleeps
    /// if that released capacity.
    pub(crate) fn release(&self, timer: TimerHandle, slot: TimerHandle) {
        let mut unparked = Vec::new();
        {
            let mut wheel = self.wheel.lock();
            wheel.release(timer, slot, &mut unparked);
        }
        for waker in unparked {
            waker.wake();
        }
    }
}
