//! [`Sleep`]: a future that completes `interval` ticks after it is first
//! polled, mapping the future lifecycle onto the paper's four routines:
//!
//! | future event        | timer routine                                   |
//! |---------------------|-------------------------------------------------|
//! | first poll          | `START_TIMER` (plus one waker-slot alloc)       |
//! | re-poll while armed | waker re-registration only — no timer traffic   |
//! | fire                | `EXPIRY_PROCESSING` → `Waker::wake`             |
//! | [`Sleep::reset`]    | `UPDATE` (`restart_timer`) — never stop+start   |
//! | drop while armed    | `STOP_TIMER` + slot free                        |
//!
//! Arming is lazy (on first poll, tokio-style) so an unpolled sleep costs
//! nothing and `interval` is measured from first poll, not construction.
//! Once armed, the steady-state poll path is allocation-free: one
//! generation-checked slot lookup and a `will_wake` test
//! ([`WakerSlab::register_waker`](crate::slots::WakerSlab::register_waker)).
//! Each row of the table is one critical section under the driver's lock.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};

use tw_core::{TickDelta, TimerError, TimerHandle};

use crate::driver::TimerDriver;
use crate::slots::{ArmOutcome, RegisterOutcome};

enum State {
    /// Not yet armed: either never polled, exhaustion-parked, or revived
    /// by [`Sleep::reset`] after completing.
    Idle,
    /// Timer outstanding in the wheel, waker slot live.
    Armed {
        slot: TimerHandle,
        timer: TimerHandle,
    },
    /// Fired (or zero-interval/stale-completed); polls return `Ready`.
    Done,
}

/// Future returned by [`TimerDriver::sleep`]. See the module docs.
///
/// `Sleep` is `Unpin`: its state is two copyable handles, so it can be
/// moved freely, stored in structs, and reset in place.
pub struct Sleep {
    driver: TimerDriver,
    interval: TickDelta,
    state: State,
}

impl Sleep {
    pub(crate) fn new(driver: TimerDriver, interval: TickDelta) -> Sleep {
        Sleep {
            driver,
            interval,
            state: State::Idle,
        }
    }

    /// The interval this sleep is (or will be) armed for.
    #[must_use]
    pub fn interval(&self) -> TickDelta {
        self.interval
    }

    /// Whether the sleep has completed (a poll would return `Ready`
    /// without touching the wheel).
    #[must_use]
    pub fn is_elapsed(&self) -> bool {
        matches!(self.state, State::Done)
    }

    /// Re-arms the sleep to expire `interval` ticks after the driver's
    /// current time.
    ///
    /// On an armed sleep this is the paper's `UPDATE`: one
    /// `restart_timer` relink on the existing timer record, with the waker
    /// slot untouched — never a stop+start pair, observable as a lone
    /// `on_restart` in telemetry. If the timer already fired (the handle
    /// is stale, and the sweep that fired it freed the slot), or the sleep
    /// already completed, the sleep returns to `Idle` and re-arms fresh on
    /// its next poll, on a new slot the old expiry cannot reach. A zero
    /// `interval` completes the sleep immediately.
    pub fn reset(&mut self, interval: TickDelta) {
        self.interval = interval;
        match self.state {
            State::Armed { slot, timer } => {
                if interval.is_zero() {
                    // Degenerate reset: elapse now, cancel the armed timer.
                    self.driver.release(timer, slot);
                    self.state = State::Done;
                    return;
                }
                match self.driver.restart(timer, interval) {
                    Ok(()) => {} // stays Armed on the same slot — pure UPDATE
                    Err(TimerError::Stale) => {
                        // Fired before the reset: its sweep freed the slot
                        // already, so only the re-arm is left, lazily.
                        self.state = State::Idle;
                    }
                    Err(err) => {
                        self.driver.release(timer, slot);
                        self.state = State::Idle;
                        panic!("sleep reset could not restart timer: {err}");
                    }
                }
            }
            State::Idle | State::Done => {
                // Includes reviving a completed sleep, tokio-style: the
                // next poll arms it fresh.
                self.state = State::Idle;
            }
        }
    }

    /// First-poll (and exhaustion-retry) path: arm the timer, or stay
    /// pending parked on capacity.
    fn poll_arm(&mut self, waker: &Waker) -> Poll<()> {
        if self.interval.is_zero() {
            self.state = State::Done;
            return Poll::Ready(());
        }
        match self.driver.arm(self.interval, waker) {
            ArmOutcome::Armed { slot, timer } => {
                self.state = State::Armed { slot, timer };
                Poll::Pending
            }
            // Exhausted is recoverable pending: the waker is parked and
            // re-woken on the next capacity release, which re-enters here.
            ArmOutcome::Parked => Poll::Pending,
        }
    }

    /// Steady-state poll path (seeded into tw-analyze's allocation-freedom
    /// certification): re-register the waker; a stale slot means the
    /// timer fired and the sleep is complete.
    fn poll_armed(&mut self, slot: TimerHandle, waker: &Waker) -> Poll<()> {
        match self.driver.register(slot, waker) {
            RegisterOutcome::Registered => Poll::Pending,
            RegisterOutcome::Stale => {
                self.state = State::Done;
                Poll::Ready(())
            }
        }
    }
}

impl Future for Sleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        match this.state {
            State::Done => Poll::Ready(()),
            State::Armed { slot, .. } => this.poll_armed(slot, cx.waker()),
            State::Idle => this.poll_arm(cx.waker()),
        }
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        if let State::Armed { slot, timer } = self.state {
            // STOP_TIMER + slot free; racing fire is resolved by the slot
            // generation (whoever frees first wins, the loser sees Stale).
            self.driver.release(timer, slot);
        }
    }
}
