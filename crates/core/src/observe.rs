//! Observer hooks for every timer scheme, free when unused.
//!
//! The §7 evaluation counts what the timer module does per operation
//! ([`OpCounters`] reproduces the VAX instruction
//! model), but a production facility also needs *distributions* — firing
//! error of the reduced-precision §6.2 variants, per-shard contention,
//! wake latency. This module is the hook layer those measurements
//! attach to:
//!
//! * [`Observer`] — a small trait of event hooks, each receiving
//!   [`Tick`]/[`TickDelta`]-typed context. Every hook has an empty default
//!   body, so the trait can grow hooks without breaking implementors (the
//!   "sealed-by-defaults" convention: downstream impls override only what
//!   they record and must not assume the hook set is closed).
//! * [`NoopObserver`] — the default observer. Every hook is the inherited
//!   empty body on a zero-sized type, so a `NoopObserver`-parameterized
//!   scheme monomorphizes to exactly the unobserved code: the compiler
//!   inlines the empty calls away and the hot path is untouched.
//! * [`Observed`] — wraps any [`TimerScheme`] with an observer without
//!   modifying the scheme itself. The wheels' hot paths stay hook-free;
//!   observation is a wrapper you opt into, which is what keeps the §7
//!   instruction ratios and the bitmap-cursor benches identical with the
//!   layer compiled in. The wrapper does add a closure layer per fire,
//!   even with empty hooks, so a caller that already routes expiries
//!   through a callback of its own raises the hooks there instead.
//! * [`Runs`] — coalesces a window's per-fire values into one
//!   `(value, count)` report per run of equal values, so the per-fire
//!   hooks ([`on_fires`](Observer::on_fires),
//!   [`on_wake_latency`](Observer::on_wake_latency)) cost one call per
//!   run rather than one per fire. An exact scheme advanced one tick at a
//!   time reports each tick's fires as a single run.
//!
//! Three layers raise the hooks. [`Observed`] wraps any scheme, and the
//! `tw-concurrent` timer service runs its scheme inside one when observed.
//! `tw-concurrent`'s sharded wheel raises the scheme and lock hooks
//! inside its own sweeps. `tw-async`'s driver raises them from
//! inside its own critical sections, with no `Observed` layer under its
//! sweep, and adds the wake latency.
//!
//! Hooks take `&self` so one observer can be shared — across the client
//! and ticker threads of `tw-concurrent`'s sharded wheel, or behind an
//! `Arc` feeding a metrics exporter. Implementations in the workspace
//! (`tw-obs`) use atomics and preallocated log₂ histograms, keeping the
//! record path allocation-free so the TW004/TW008 lint guarantees extend
//! through the observer into the per-tick path.

use crate::counters::OpCounters;
use crate::scheme::{DeadlinePeek, Expired, TimerScheme};
use crate::time::{Tick, TickDelta};
use crate::validate::{InvariantCheck, InvariantViolation};
use crate::{TimerError, TimerHandle};

/// Event hooks raised by observed schemes and services.
///
/// All hooks default to no-ops; implement only what you record. Hooks must
/// be cheap and **allocation-free** when reachable from the per-tick path
/// (enforced by the TW008 lint) and must not call back into the scheme.
///
/// The first six hooks are raised around the §2 routines (plus the UPDATE
/// extension) by [`Observed`], by `tw-concurrent`'s sharded wheel, and by
/// `tw-async`'s driver, each with the same arguments (the timer service
/// raises them through [`Observed`]). [`on_lock`](Observer::on_lock) is
/// raised by `tw-concurrent`'s sharded wheel alone, and
/// [`on_wake_latency`](Observer::on_wake_latency) by the `tw-async`
/// driver alone.
///
/// The two per-fire hooks take a `count`: each call reports `count` fires
/// that share one value, and a raiser coalesces consecutive equal values
/// into one call with [`Runs`]. A recorder must treat `(v, n)` exactly as
/// `n` calls of `(v, 1)`.
pub trait Observer {
    /// `START_TIMER` succeeded: a timer now expires `interval` after `now`.
    fn on_start(&self, now: Tick, interval: TickDelta) {
        let _ = (now, interval);
    }

    /// `STOP_TIMER` succeeded at `now`.
    fn on_stop(&self, now: Tick) {
        let _ = now;
    }

    /// UPDATE succeeded: an outstanding timer was re-armed to expire
    /// `interval` after `now`, keeping its handle. Raised instead of (never
    /// alongside) `on_stop`/`on_start`, so recorders can distinguish the
    /// ACK-driven restart traffic of a transport from genuine churn.
    fn on_restart(&self, now: Tick, interval: TickDelta) {
        let _ = (now, interval);
    }

    /// `EXPIRY_PROCESSING`: `count` timers fired, each with firing error
    /// `error` = `|fired_at − deadline|` in ticks ([`firing_error`]). The
    /// error is 0 for exact schemes and the §6.2 firing error for
    /// reduced-precision hierarchies. Raised inside the tick window, before
    /// its [`on_tick_end`](Observer::on_tick_end).
    fn on_fires(&self, error: TickDelta, count: usize) {
        let _ = (error, count);
    }

    /// A `PER_TICK_BOOKKEEPING` window is opening with the clock at `now`.
    /// A window is one `tick` call or one batched `advance_to_with` sweep.
    fn on_tick_begin(&self, now: Tick) {
        let _ = now;
    }

    /// The window that opened at [`on_tick_begin`](Observer::on_tick_begin)
    /// closed with the clock at `now`, having fired `fired` timers. Window
    /// widths (`now_end - now_begin`) sum to the scheme's tick count.
    fn on_tick_end(&self, now: Tick, fired: usize) {
        let _ = (now, fired);
    }

    /// A service shard lock was acquired; `contended` is true when the
    /// uncontended fast path failed and the caller had to block.
    fn on_lock(&self, shard: usize, contended: bool) {
        let _ = (shard, contended);
    }

    /// Deadline→delivery latency of the async layer, in ticks, shared by
    /// `count` wakes: the tick the `tw-async` driver's `advance` delivered
    /// each sleep's wake at (the advance's target), minus the timer's
    /// deadline. It reads 0 for an exact scheme advanced one tick at a
    /// time; a batched advance adds its overshoot, and a reduced-precision
    /// hierarchy its §6.2 lateness (an early fire reads 0).
    fn on_wake_latency(&self, elapsed: TickDelta, count: usize) {
        let _ = (elapsed, count);
    }
}

/// The do-nothing observer: a zero-sized type whose hooks are all the
/// inherited empty defaults, so observing with it compiles to zero code.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopObserver;

impl Observer for NoopObserver {}

/// Firing error `|fired_at − deadline|` in ticks: the value
/// [`Observer::on_fires`] reports.
#[inline]
#[must_use]
pub fn firing_error(deadline: Tick, fired_at: Tick) -> TickDelta {
    TickDelta(fired_at.as_u64().abs_diff(deadline.as_u64()))
}

/// Run-length coalescing of one per-fire value over a tick window.
///
/// [`tally`](Runs::tally) each fire's value; it hands back the run the value
/// ended, if it differs from the run so far. [`flush`](Runs::flush) at the
/// end of the window hands back the open run. Reporting each returned
/// `(value, count)` in one hook call gives a recorder exactly what one call
/// per fire would, at one call per run.
///
/// ```
/// use tw_core::observe::Runs;
/// use tw_core::TickDelta;
///
/// let mut runs = Runs::default();
/// assert_eq!(runs.tally(TickDelta(0)), None);
/// assert_eq!(runs.tally(TickDelta(0)), None);
/// assert_eq!(runs.tally(TickDelta(3)), Some((TickDelta(0), 2)));
/// assert_eq!(runs.flush(), Some((TickDelta(3), 1)));
/// assert_eq!(runs.flush(), None);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Runs {
    value: TickDelta,
    count: usize,
}

impl Runs {
    /// Counts one more occurrence of `value`. Returns the run it ended,
    /// when `value` differs from the open run's.
    #[inline]
    #[must_use]
    pub fn tally(&mut self, value: TickDelta) -> Option<(TickDelta, usize)> {
        if value == self.value {
            self.count += 1;
            return None;
        }
        let ended = self.flush();
        *self = Runs { value, count: 1 };
        ended
    }

    /// Closes the open run, if any, and returns it.
    #[inline]
    #[must_use]
    pub fn flush(&mut self) -> Option<(TickDelta, usize)> {
        let count = core::mem::take(&mut self.count);
        (count > 0).then_some((self.value, count))
    }
}

/// Shared references observe wherever an owned observer does, so one
/// recorder can be borrowed by several wrapped schemes.
impl<O: Observer + ?Sized> Observer for &O {
    fn on_start(&self, now: Tick, interval: TickDelta) {
        (**self).on_start(now, interval);
    }
    fn on_stop(&self, now: Tick) {
        (**self).on_stop(now);
    }
    fn on_restart(&self, now: Tick, interval: TickDelta) {
        (**self).on_restart(now, interval);
    }
    fn on_fires(&self, error: TickDelta, count: usize) {
        (**self).on_fires(error, count);
    }
    fn on_tick_begin(&self, now: Tick) {
        (**self).on_tick_begin(now);
    }
    fn on_tick_end(&self, now: Tick, fired: usize) {
        (**self).on_tick_end(now, fired);
    }
    fn on_lock(&self, shard: usize, contended: bool) {
        (**self).on_lock(shard, contended);
    }
    fn on_wake_latency(&self, elapsed: TickDelta, count: usize) {
        (**self).on_wake_latency(elapsed, count);
    }
}

/// `Arc<O>` observes by delegating to the shared recorder, which is how
/// `tw-concurrent` threads one observer through service and shards.
#[cfg(feature = "std")]
impl<O: Observer + ?Sized> Observer for std::sync::Arc<O> {
    fn on_start(&self, now: Tick, interval: TickDelta) {
        (**self).on_start(now, interval);
    }
    fn on_stop(&self, now: Tick) {
        (**self).on_stop(now);
    }
    fn on_restart(&self, now: Tick, interval: TickDelta) {
        (**self).on_restart(now, interval);
    }
    fn on_fires(&self, error: TickDelta, count: usize) {
        (**self).on_fires(error, count);
    }
    fn on_tick_begin(&self, now: Tick) {
        (**self).on_tick_begin(now);
    }
    fn on_tick_end(&self, now: Tick, fired: usize) {
        (**self).on_tick_end(now, fired);
    }
    fn on_lock(&self, shard: usize, contended: bool) {
        (**self).on_lock(shard, contended);
    }
    fn on_wake_latency(&self, elapsed: TickDelta, count: usize) {
        (**self).on_wake_latency(elapsed, count);
    }
}

/// A [`TimerScheme`] wrapper that raises [`Observer`] hooks around every
/// operation, leaving the inner scheme untouched.
///
/// With the default [`NoopObserver`] the wrapper monomorphizes to the bare
/// scheme; with a recording observer it reports starts, stops, fires (their
/// firing errors, one report per run of equal errors), and tick windows.
///
/// # Examples
///
/// ```
/// use tw_core::observe::{NoopObserver, Observed};
/// use tw_core::wheel::BasicWheel;
/// use tw_core::{TickDelta, TimerScheme, TimerSchemeExt};
///
/// let mut w = Observed::new(BasicWheel::<&str>::new(64), NoopObserver);
/// w.start_timer(TickDelta(3), "ping").unwrap();
/// assert_eq!(w.collect_ticks(3).len(), 1);
/// ```
pub struct Observed<S, O = NoopObserver> {
    inner: S,
    observer: O,
}

impl<S, O: Observer> Observed<S, O> {
    /// Wraps `inner` so every operation reports to `observer`.
    pub fn new(inner: S, observer: O) -> Observed<S, O> {
        Observed { inner, observer }
    }

    /// Unwraps the inner scheme, discarding the observer.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Borrows the inner scheme.
    pub fn get(&self) -> &S {
        &self.inner
    }

    /// Borrows the observer.
    pub fn observer(&self) -> &O {
        &self.observer
    }
}

impl<T, S: TimerScheme<T>, O: Observer> TimerScheme<T> for Observed<S, O> {
    fn start_timer(&mut self, interval: TickDelta, payload: T) -> Result<TimerHandle, TimerError> {
        let result = self.inner.start_timer(interval, payload);
        if result.is_ok() {
            self.observer.on_start(self.inner.now(), interval);
        }
        result
    }

    fn stop_timer(&mut self, handle: TimerHandle) -> Result<T, TimerError> {
        let result = self.inner.stop_timer(handle);
        if result.is_ok() {
            self.observer.on_stop(self.inner.now());
        }
        result
    }

    fn restart_timer(
        &mut self,
        handle: TimerHandle,
        interval: TickDelta,
    ) -> Result<(), TimerError> {
        let result = self.inner.restart_timer(handle, interval);
        if result.is_ok() {
            self.observer.on_restart(self.inner.now(), interval);
        }
        result
    }

    fn tick(&mut self, expired: &mut dyn FnMut(Expired<T>)) {
        self.observer.on_tick_begin(self.inner.now());
        let mut fired = 0usize;
        let mut errors = Runs::default();
        // Split borrow: the closure reads the shared observer while the
        // inner scheme is driven mutably.
        let Observed { inner, observer } = self;
        inner.tick(&mut |e| {
            if let Some((error, n)) = errors.tally(firing_error(e.deadline, e.fired_at)) {
                observer.on_fires(error, n);
            }
            fired += 1;
            expired(e);
        });
        if let Some((error, n)) = errors.flush() {
            self.observer.on_fires(error, n);
        }
        self.observer.on_tick_end(self.inner.now(), fired);
    }

    fn advance_to_with(&mut self, deadline: Tick, expired: &mut dyn FnMut(Expired<T>)) {
        // One observer window per batched sweep: delegate to the inner
        // scheme's (possibly bitmap-accelerated) fast path rather than the
        // per-tick default, so observation never disables the optimization.
        self.observer.on_tick_begin(self.inner.now());
        let mut fired = 0usize;
        let mut errors = Runs::default();
        let Observed { inner, observer } = self;
        inner.advance_to_with(deadline, &mut |e| {
            if let Some((error, n)) = errors.tally(firing_error(e.deadline, e.fired_at)) {
                observer.on_fires(error, n);
            }
            fired += 1;
            expired(e);
        });
        if let Some((error, n)) = errors.flush() {
            self.observer.on_fires(error, n);
        }
        self.observer.on_tick_end(self.inner.now(), fired);
    }

    fn set_arena_capacity(&mut self, limit: usize) -> bool {
        self.inner.set_arena_capacity(limit)
    }

    fn now(&self) -> Tick {
        self.inner.now()
    }

    fn outstanding(&self) -> usize {
        self.inner.outstanding()
    }

    fn counters(&self) -> &OpCounters {
        self.inner.counters()
    }

    fn reset_counters(&mut self) {
        self.inner.reset_counters();
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl<S: DeadlinePeek, O> DeadlinePeek for Observed<S, O> {
    fn next_deadline(&self) -> Option<Tick> {
        self.inner.next_deadline()
    }
}

impl<S: InvariantCheck, O> InvariantCheck for Observed<S, O> {
    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        self.inner.check_invariants()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::OracleScheme;
    use crate::scheme::TimerSchemeExt;
    use core::cell::Cell;

    /// Cell-based single-threaded recorder used across the core test suite.
    #[derive(Default)]
    struct Recorder {
        starts: Cell<u64>,
        stops: Cell<u64>,
        restarts: Cell<u64>,
        fires: Cell<u64>,
        reports: Cell<u64>,
        windows: Cell<u64>,
        window_ticks: Cell<u64>,
        open: Cell<u64>,
    }

    impl Observer for Recorder {
        fn on_start(&self, _now: Tick, _interval: TickDelta) {
            self.starts.set(self.starts.get() + 1);
        }
        fn on_stop(&self, _now: Tick) {
            self.stops.set(self.stops.get() + 1);
        }
        fn on_restart(&self, _now: Tick, _interval: TickDelta) {
            self.restarts.set(self.restarts.get() + 1);
        }
        fn on_fires(&self, error: TickDelta, count: usize) {
            assert_eq!(error, TickDelta::ZERO, "oracle fires exactly");
            self.fires.set(self.fires.get() + count as u64);
            self.reports.set(self.reports.get() + 1);
        }
        fn on_tick_begin(&self, now: Tick) {
            self.open.set(now.as_u64());
        }
        fn on_tick_end(&self, now: Tick, _fired: usize) {
            self.windows.set(self.windows.get() + 1);
            self.window_ticks
                .set(self.window_ticks.get() + (now.as_u64() - self.open.get()));
        }
    }

    #[test]
    fn hooks_fire_around_each_routine() {
        let rec = Recorder::default();
        let mut w = Observed::new(OracleScheme::<u32>::new(), &rec);
        let h = w.start_timer(TickDelta(5), 1).unwrap();
        w.start_timer(TickDelta(2), 2).unwrap();
        w.stop_timer(h).unwrap();
        assert_eq!(w.collect_ticks(3).len(), 1);
        assert_eq!(rec.starts.get(), 2);
        assert_eq!(rec.stops.get(), 1);
        assert_eq!(rec.fires.get(), 1);
        assert_eq!(rec.windows.get(), 3, "one window per tick call");
        assert_eq!(rec.window_ticks.get(), 3, "window widths sum to ticks");
    }

    #[test]
    fn failed_operations_raise_no_hooks() {
        let rec = Recorder::default();
        let mut w = Observed::new(OracleScheme::<u32>::new(), &rec);
        assert_eq!(
            w.start_timer(TickDelta::ZERO, 9),
            Err(TimerError::ZeroInterval)
        );
        let h = w.start_timer(TickDelta(1), 1).unwrap();
        assert_eq!(
            w.restart_timer(h, TickDelta::ZERO),
            Err(TimerError::ZeroInterval)
        );
        w.stop_timer(h).unwrap();
        assert_eq!(w.stop_timer(h), Err(TimerError::Stale));
        assert_eq!(w.restart_timer(h, TickDelta(1)), Err(TimerError::Stale));
        assert_eq!(rec.starts.get(), 1);
        assert_eq!(rec.stops.get(), 1);
        assert_eq!(rec.restarts.get(), 0);
    }

    #[test]
    fn restart_raises_its_own_hook_not_stop_plus_start() {
        let rec = Recorder::default();
        let mut w = Observed::new(OracleScheme::<u32>::new(), &rec);
        let h = w.start_timer(TickDelta(5), 1).unwrap();
        w.restart_timer(h, TickDelta(9)).unwrap();
        w.restart_timer(h, TickDelta(2)).unwrap();
        assert_eq!(rec.starts.get(), 1);
        assert_eq!(rec.stops.get(), 0);
        assert_eq!(rec.restarts.get(), 2);
        assert_eq!(w.collect_ticks(2).len(), 1);
    }

    #[test]
    fn advance_is_one_window_of_full_width() {
        let rec = Recorder::default();
        let mut w = Observed::new(OracleScheme::<u32>::new(), &rec);
        w.start_timer(TickDelta(7), 1).unwrap();
        w.start_timer(TickDelta(40), 2).unwrap();
        assert_eq!(w.advance_to(Tick(50)).len(), 2);
        assert_eq!(rec.windows.get(), 1, "one batched sweep, one window");
        assert_eq!(rec.window_ticks.get(), 50);
        assert_eq!(rec.fires.get(), 2);
        assert_eq!(rec.reports.get(), 1, "equal errors make one report");
    }

    #[test]
    fn runs_expand_back_to_the_pushed_sequence() {
        let values = [0u64, 0, 3, 3, 3, 0, 7, 7, 0];
        let mut runs = Runs::default();
        let mut reported = alloc::vec::Vec::new();
        for &v in &values {
            reported.extend(runs.tally(TickDelta(v)));
        }
        reported.extend(runs.flush());
        assert_eq!(reported.len(), 5, "one report per run of equal values");
        let expanded: alloc::vec::Vec<u64> = reported
            .iter()
            .flat_map(|&(v, n)| core::iter::repeat(v.as_u64()).take(n))
            .collect();
        assert_eq!(expanded, values);
        assert_eq!(runs.flush(), None, "a flushed window holds no run");
    }

    #[test]
    fn noop_observer_changes_nothing_observable() {
        let mut plain = OracleScheme::<u64>::new();
        let mut wrapped = Observed::new(OracleScheme::<u64>::new(), NoopObserver);
        for j in [3u64, 9, 12, 80] {
            plain.start_timer(TickDelta(j), j).unwrap();
            wrapped.start_timer(TickDelta(j), j).unwrap();
        }
        let a: alloc::vec::Vec<_> = plain
            .collect_ticks(100)
            .into_iter()
            .map(|e| (e.payload, e.fired_at))
            .collect();
        let b: alloc::vec::Vec<_> = wrapped
            .collect_ticks(100)
            .into_iter()
            .map(|e| (e.payload, e.fired_at))
            .collect();
        assert_eq!(a, b);
        assert_eq!(
            plain.counters().vax_instructions,
            wrapped.counters().vax_instructions,
            "observation never perturbs the §7 accounting"
        );
    }
}
