//! The four-routine timer-module model of §2, as a Rust trait.
//!
//! The paper defines a timer module by four routines:
//!
//! * `START_TIMER(Interval, Request_ID, Expiry_Action)` →
//!   [`TimerScheme::start_timer`] (the request-id ↔ handle mapping lives in
//!   [`TimerFacility`](crate::facility::TimerFacility)),
//! * `STOP_TIMER(Request_ID)` → [`TimerScheme::stop_timer`],
//! * `PER_TICK_BOOKKEEPING` → [`TimerScheme::tick`],
//! * `EXPIRY_PROCESSING` → the `expired` callback passed to `tick`.
//!
//! Every scheme in this workspace — the wheels in this crate, the baselines
//! in `tw-baselines`, the simulation wheel in `tw-des`, the sharded wheel in
//! `tw-concurrent` — implements this trait, so the experiment harness and
//! the property-test oracle treat them interchangeably.

use alloc::vec::Vec;

use crate::counters::OpCounters;
use crate::handle::TimerHandle;
use crate::time::{Tick, TickDelta};
use crate::TimerError;

/// A timer that has reached `EXPIRY_PROCESSING`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expired<T> {
    /// The handle the client held (now stale).
    pub handle: TimerHandle,
    /// The payload supplied to `start_timer` (the paper's `Expiry_Action`).
    pub payload: T,
    /// The tick the timer was scheduled to expire at (`start + interval`).
    pub deadline: Tick,
    /// The tick the timer actually fired at. Equals `deadline` for the exact
    /// schemes; may be earlier/later for the reduced-precision hierarchical
    /// variants (§6.2, Wick Nichols), bounded by the level granularity.
    pub fired_at: Tick,
}

impl<T> Expired<T> {
    /// Signed firing error in ticks (`fired_at - deadline`); negative means
    /// the timer fired early. Saturates at the `i64` extremes.
    #[must_use]
    pub fn error(&self) -> i64 {
        self.fired_at.signed_offset_from(self.deadline)
    }
}

/// A timer scheme: one concrete implementation of the §2 timer module.
///
/// `T` is the client payload delivered on expiry. Implementations must
/// uphold the *trace-equivalence contract* checked by the workspace test
/// suite: for any sequence of `start_timer`/`stop_timer`/`tick` calls, an
/// exact scheme fires exactly the set of non-stopped timers, each at its
/// deadline tick, during the `tick` call that advances the clock to that
/// deadline.
pub trait TimerScheme<T> {
    /// `START_TIMER` (§2): schedules expiry `interval` ticks after the
    /// current time and returns a handle for `stop_timer`.
    ///
    /// # Errors
    ///
    /// * [`TimerError::ZeroInterval`] if `interval` is zero.
    /// * [`TimerError::IntervalOutOfRange`] if the scheme's range is bounded,
    ///   the interval exceeds it, and the overflow policy is `Reject`.
    /// * [`TimerError::DeadlineOverflow`] if `now + interval` exceeds the
    ///   representable tick range.
    fn start_timer(&mut self, interval: TickDelta, payload: T) -> Result<TimerHandle, TimerError>;

    /// `STOP_TIMER` (§2): cancels an outstanding timer, returning its
    /// payload.
    ///
    /// # Errors
    ///
    /// [`TimerError::Stale`] if the timer already expired or was stopped.
    fn stop_timer(&mut self, handle: TimerHandle) -> Result<T, TimerError>;

    /// UPDATE (the dynamic-update routine of "Design of a Timer Queue
    /// Supporting Dynamic Update Operations"): re-arms an outstanding timer
    /// to expire `interval` ticks after the current time, keeping the same
    /// handle valid — the node is unlinked from its current position and
    /// relinked at the new deadline without passing through the arena's
    /// free list, so no generation bump and no allocation occur.
    ///
    /// Validation happens *before* any unlink: a failed restart leaves the
    /// timer exactly where it was, still armed for its original deadline.
    ///
    /// The default body rejects the call so external implementors opt in
    /// explicitly; every scheme in this workspace (the oracle and all seven
    /// wheels) overrides it with a pure unlink+relink.
    ///
    /// # Errors
    ///
    /// * [`TimerError::UpdateUnsupported`] if the scheme has no update path.
    /// * [`TimerError::Stale`] if the timer already expired or was stopped.
    /// * The same [`TimerError::ZeroInterval`] /
    ///   [`TimerError::IntervalOutOfRange`] /
    ///   [`TimerError::DeadlineOverflow`] contract as `start_timer` for the
    ///   new interval.
    fn restart_timer(
        &mut self,
        handle: TimerHandle,
        interval: TickDelta,
    ) -> Result<(), TimerError> {
        let _ = (handle, interval);
        Err(TimerError::UpdateUnsupported)
    }

    /// `PER_TICK_BOOKKEEPING` (§2): advances the clock by one tick and
    /// delivers every timer expiring at the new time to `expired`
    /// (`EXPIRY_PROCESSING`). Timers due on the same tick come in no
    /// specified order.
    fn tick(&mut self, expired: &mut dyn FnMut(Expired<T>));

    /// Batched `PER_TICK_BOOKKEEPING`: advances the clock to `deadline`
    /// (a no-op when `deadline <= now`), delivering every expiry on the way
    /// in tick order.
    ///
    /// The default runs `tick` once per elapsed tick, which is the paper's
    /// semantics by construction. Wheels override it under the
    /// `bitmap-cursor` feature to jump between occupied slots via their
    /// [occupancy bitmaps](crate::bitmap), skipping the per-tick empty-slot
    /// test entirely; the trace delivered to `expired` must be identical
    /// either way (pinned by the oracle-equivalence differential suite).
    fn advance_to_with(&mut self, deadline: Tick, expired: &mut dyn FnMut(Expired<T>)) {
        // tw-analyze: fact(loop_bounded, reason = "one tick() per elapsed virtual tick; the paper's PER_TICK envelope is priced per tick, and a batched advance is exactly (deadline - now) of them")
        while self.now() < deadline {
            self.tick(expired);
        }
    }

    /// Caps the scheme's node arena at `limit` live timers, returning `true`
    /// when the scheme supports a ceiling. Once the cap is reached,
    /// `start_timer` reports [`TimerError::Exhausted`] instead of growing —
    /// the admission-control knob a bounded host (or the tw-async driver)
    /// turns before accepting work.
    ///
    /// The default reports `false` (no arena to cap), so baselines and
    /// external implementors opt in explicitly; every arena-backed wheel in
    /// this workspace overrides it with a delegation to
    /// [`TimerArena::set_capacity_limit`](crate::arena::TimerArena::set_capacity_limit).
    fn set_arena_capacity(&mut self, limit: usize) -> bool {
        let _ = limit;
        false
    }

    /// The current absolute time (number of `tick` calls so far).
    fn now(&self) -> Tick;

    /// Number of outstanding timers.
    fn outstanding(&self) -> usize;

    /// Work counters accumulated since creation (or the last reset).
    fn counters(&self) -> &OpCounters;

    /// Resets the work counters.
    fn reset_counters(&mut self);

    /// Short human-readable scheme name for experiment tables.
    fn name(&self) -> &'static str;
}

/// Schemes that can report their earliest outstanding deadline in O(1) or
/// O(log n) — ordered lists, heaps, trees, and the oracle.
///
/// This is what lets a host skip clock interrupts entirely when paired with
/// single-timer hardware (§3.2: "the hardware timer is set to expire at the
/// time at which the timer at the head of the list is due to expire"), and
/// what the event-driven time-flow mechanism of `tw-des` jumps on. Wheels
/// deliberately do *not* implement it: finding their minimum requires a scan,
/// which is the §4.2 trade-off this workspace measures.
pub trait DeadlinePeek {
    /// The earliest outstanding deadline, or `None` when no timers are set.
    fn next_deadline(&self) -> Option<Tick>;
}

/// Extension helpers available on every scheme.
pub trait TimerSchemeExt<T>: TimerScheme<T> {
    /// Runs `n` ticks, discarding expiries.
    fn run_ticks(&mut self, n: u64) {
        for _ in 0..n {
            self.tick(&mut |_| {});
        }
    }

    /// Runs `n` ticks, collecting expiries in order.
    fn collect_ticks(&mut self, n: u64) -> Vec<Expired<T>> {
        let mut out = Vec::new();
        for _ in 0..n {
            self.tick(&mut |e| out.push(e));
        }
        out
    }

    /// Advances until the clock reaches `deadline`, collecting expiries.
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is in the past.
    fn advance_to(&mut self, deadline: Tick) -> Vec<Expired<T>> {
        // `since` keeps the documented panic-on-past contract; the actual
        // advance goes through the scheme's (possibly bitmap-accelerated)
        // batched path.
        let _gap = deadline.since(self.now());
        let mut out = Vec::new();
        self.advance_to_with(deadline, &mut |e| out.push(e));
        out
    }
}

impl<T, S: TimerScheme<T> + ?Sized> TimerSchemeExt<T> for S {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expired_error_sign() {
        let e = Expired {
            handle: TimerHandle::from_raw(0, 0),
            payload: (),
            deadline: Tick(10),
            fired_at: Tick(12),
        };
        assert_eq!(e.error(), 2);
        let e = Expired {
            fired_at: Tick(8),
            ..e
        };
        assert_eq!(e.error(), -2);
        let e = Expired {
            fired_at: Tick(10),
            ..e
        };
        assert_eq!(e.error(), 0);
    }
}
