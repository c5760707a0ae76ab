//! Behavioral tests for the `Sleep`/`Timeout`/`Interval` futures: the
//! lifecycle table in `sleep.rs`'s module docs, the exhaustion
//! backpressure contract, and the realtime ticker.

// Integration test: panicking on an unexpected Err is the assertion.
#![allow(clippy::unwrap_used)]
#![cfg(not(loom))]

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::Duration;

use tw_async::{block_on, TimerDriver};
use tw_core::wheel::{HashedWheelUnsorted, HierarchicalWheel, LevelSizes};
use tw_core::{RequestId, TickDelta};

#[derive(Default)]
struct Flag(AtomicBool);

impl Wake for Flag {
    fn wake(self: Arc<Self>) {
        self.0.store(true, Ordering::SeqCst);
    }
    fn wake_by_ref(self: &Arc<Self>) {
        self.0.store(true, Ordering::SeqCst);
    }
}

fn flag_waker() -> (Arc<Flag>, Waker) {
    let flag = Arc::new(Flag::default());
    (Arc::clone(&flag), Waker::from(Arc::clone(&flag)))
}

/// Under `--features checked` every driver in this suite owns an
/// invariant-checked scheme, so each command the futures issue revalidates
/// the wheel's structural catalog.
#[cfg(feature = "checked")]
fn wheel(slots: usize) -> tw_core::validate::Checked<HashedWheelUnsorted<RequestId>> {
    tw_core::validate::Checked::new(HashedWheelUnsorted::new(slots))
}

#[cfg(not(feature = "checked"))]
fn wheel(slots: usize) -> HashedWheelUnsorted<RequestId> {
    HashedWheelUnsorted::new(slots)
}

fn driver() -> TimerDriver {
    TimerDriver::builder(wheel(64)).build()
}

fn poll_once<F: Future + Unpin>(f: &mut F, waker: &Waker) -> Poll<F::Output> {
    Pin::new(f).poll(&mut Context::from_waker(waker))
}

#[test]
fn sleep_fires_at_deadline_not_before() {
    let driver = driver();
    let (flag, waker) = flag_waker();
    let mut sleep = driver.sleep(TickDelta(10));
    assert!(poll_once(&mut sleep, &waker).is_pending());
    assert_eq!(driver.outstanding(), 1);
    assert_eq!(driver.pending_sleeps(), 1);

    driver.advance(9);
    assert!(!flag.0.load(Ordering::SeqCst), "no early wake");
    assert!(poll_once(&mut sleep, &waker).is_pending());

    driver.advance(1);
    assert!(flag.0.load(Ordering::SeqCst), "wake delivered at deadline");
    assert!(poll_once(&mut sleep, &waker).is_ready());
    assert!(sleep.is_elapsed());
    assert_eq!(driver.outstanding(), 0);
    assert_eq!(driver.pending_sleeps(), 0);
}

#[test]
fn zero_interval_sleep_is_immediately_ready() {
    let driver = driver();
    let (_, waker) = flag_waker();
    let mut sleep = driver.sleep(TickDelta::ZERO);
    assert!(poll_once(&mut sleep, &waker).is_ready());
    assert_eq!(driver.outstanding(), 0, "never touched the wheel");
}

#[test]
fn unpolled_sleep_never_arms() {
    let driver = driver();
    let sleep = driver.sleep(TickDelta(5));
    assert_eq!(driver.outstanding(), 0, "arming is lazy (first poll)");
    drop(sleep);
    assert_eq!(driver.outstanding(), 0);
}

#[test]
fn drop_cancels_the_wheel_timer() {
    let driver = driver();
    let (flag, waker) = flag_waker();
    let mut sleep = driver.sleep(TickDelta(3));
    assert!(poll_once(&mut sleep, &waker).is_pending());
    drop(sleep);
    assert_eq!(driver.outstanding(), 0);
    driver.advance(10);
    assert!(!flag.0.load(Ordering::SeqCst), "dropped sleep never woken");
}

#[test]
fn reset_pushes_the_deadline_and_revives_done_sleeps() {
    let driver = driver();
    let (flag, waker) = flag_waker();
    let mut sleep = driver.sleep(TickDelta(5));
    assert!(poll_once(&mut sleep, &waker).is_pending());

    // Push out: 5 → 20 (from now=0). The old deadline must not fire.
    sleep.reset(TickDelta(20));
    driver.advance(10);
    assert!(poll_once(&mut sleep, &waker).is_pending());
    assert!(!flag.0.load(Ordering::SeqCst));
    driver.advance(10);
    assert!(poll_once(&mut sleep, &waker).is_ready());

    // Revive: reset after completion re-arms (lazily) from current time.
    sleep.reset(TickDelta(7));
    assert!(!sleep.is_elapsed());
    assert!(poll_once(&mut sleep, &waker).is_pending());
    driver.advance(7);
    assert!(poll_once(&mut sleep, &waker).is_ready());

    // Degenerate: zero-interval reset of an armed sleep completes it now.
    sleep.reset(TickDelta(4));
    assert!(poll_once(&mut sleep, &waker).is_pending());
    sleep.reset(TickDelta::ZERO);
    assert!(sleep.is_elapsed());
    assert_eq!(driver.outstanding(), 0);
}

#[test]
fn timeout_inner_future_wins() {
    let driver = driver();
    let (_, waker) = flag_waker();
    let inner_driver = driver.clone();
    // The inner future: a shorter sleep on the same driver.
    let mut timeout = driver.timeout(TickDelta(100), Box::pin(inner_driver.sleep(TickDelta(5))));
    assert!(poll_once(&mut timeout, &waker).is_pending());
    driver.advance(5);
    match poll_once(&mut timeout, &waker) {
        Poll::Ready(Ok(())) => {}
        other => panic!("expected inner win, got {other:?}"),
    }
    // The deadline timer is cancelled on drop; nothing lingers.
    drop(timeout);
    assert_eq!(driver.outstanding(), 0);
}

#[test]
fn timeout_deadline_wins() {
    let driver = driver();
    let (_, waker) = flag_waker();
    let mut timeout = driver.timeout(TickDelta(5), std::future::pending::<u32>());
    assert!(poll_once(&mut timeout, &waker).is_pending());
    driver.advance(5);
    match poll_once(&mut timeout, &waker) {
        Poll::Ready(Err(e)) => {
            assert!(!e.to_string().is_empty());
        }
        other => panic!("expected Elapsed, got {other:?}"),
    }
}

#[test]
fn interval_ticks_periodically_and_recycles_slots() {
    let driver = driver();
    let (_, waker) = flag_waker();
    let mut interval = driver.interval(TickDelta(10));
    let mut cx = Context::from_waker(&waker);
    assert!(interval.poll_tick(&mut cx).is_pending());
    for expect in 1..=5u64 {
        driver.advance(10);
        assert_eq!(interval.poll_tick(&mut cx), Poll::Ready(expect));
        // The re-arm happened inside poll_tick; next poll registers it.
        assert!(interval.poll_tick(&mut cx).is_pending());
    }
    assert_eq!(interval.ticks(), 5);
    assert_eq!(
        driver.waker_slots(),
        1,
        "five fires recycled one slot off the free list"
    );
    // A mid-flight period change is Sleep::reset — pure UPDATE.
    interval
        .poll_tick(&mut cx)
        .is_pending()
        .then_some(())
        .unwrap();
    driver.advance(9);
    assert!(interval.poll_tick(&mut cx).is_pending());
    driver.advance(1);
    assert_eq!(interval.poll_tick(&mut cx), Poll::Ready(6));
}

/// Satellite regression: `TimerError::Exhausted` never surfaces through
/// the async layer — at a tiny arena capacity, excess sleeps are
/// *pending*, parked until a fire or drop releases capacity, then retry
/// and complete normally.
#[test]
fn exhausted_is_recoverable_pending_at_tiny_capacity() {
    let driver = TimerDriver::builder(wheel(16)).arena_capacity(2).build();
    let mut sleeps = Vec::new();
    let mut wakers = Vec::new();
    for _ in 0..4 {
        let (flag, waker) = flag_waker();
        let mut sleep = driver.sleep(TickDelta(3));
        // Every poll is Pending — the two past the cap park, no error.
        assert!(poll_once(&mut sleep, &waker).is_pending());
        sleeps.push(sleep);
        wakers.push((flag, waker));
    }
    assert_eq!(driver.pending_sleeps(), 2, "two armed, two parked");
    assert_eq!(driver.outstanding(), 2);

    // Fire the armed pair; the wake storm must also wake the parked pair
    // so they re-poll and claim the freed capacity.
    driver.advance(3);
    let armed_done = sleeps
        .iter_mut()
        .zip(&wakers)
        .filter(|(_, (flag, _))| flag.0.load(Ordering::SeqCst))
        .map(|(sleep, (_, waker))| {
            // Parked sleeps got a retry wake too; re-poll everyone woken.
            poll_once(sleep, waker)
        })
        .filter(Poll::is_ready)
        .count();
    assert_eq!(armed_done, 2, "the armed pair completed");
    assert_eq!(driver.pending_sleeps(), 2, "parked pair armed on retry");
    assert_eq!(driver.outstanding(), 2);

    driver.advance(3);
    for (sleep, (_, waker)) in sleeps.iter_mut().zip(&wakers) {
        assert!(poll_once(sleep, waker).is_ready(), "everyone completes");
    }
    assert_eq!(driver.waker_slots(), 2, "slab never grew past the cap");
}

#[test]
fn capacity_released_by_drop_unparks_a_waiter() {
    let driver = TimerDriver::builder(wheel(16)).arena_capacity(1).build();
    let (_, w1) = flag_waker();
    let (parked_flag, w2) = flag_waker();
    let mut holder = driver.sleep(TickDelta(50));
    let mut waiter = driver.sleep(TickDelta(5));
    assert!(poll_once(&mut holder, &w1).is_pending());
    assert!(poll_once(&mut waiter, &w2).is_pending());
    assert_eq!(driver.outstanding(), 1, "waiter is parked, not armed");

    drop(holder); // STOP_TIMER releases capacity → parked waiter woken
    assert!(parked_flag.0.load(Ordering::SeqCst), "retry wake delivered");
    assert!(poll_once(&mut waiter, &w2).is_pending());
    assert_eq!(driver.outstanding(), 1, "waiter armed after retry");
    driver.advance(5);
    assert!(poll_once(&mut waiter, &w2).is_ready());
}

/// The park happens under the arm's own lock, with no retry after it, so
/// the wakeup must come from a release in a later call: here a fire two
/// advances on. Calls that free nothing leave the parked sleep asleep.
#[test]
fn parked_sleep_is_woken_by_a_later_fire_and_arms() {
    let driver = TimerDriver::builder(wheel(16)).arena_capacity(1).build();
    let (holder_flag, w1) = flag_waker();
    let (parked_flag, w2) = flag_waker();
    let mut holder = driver.sleep(TickDelta(5));
    let mut waiter = driver.sleep(TickDelta(3));
    assert!(poll_once(&mut holder, &w1).is_pending());
    assert!(poll_once(&mut waiter, &w2).is_pending());
    assert_eq!(driver.pending_sleeps(), 1, "the waiter parked");

    // A reset and an advance that fires nothing release no capacity.
    holder.reset(TickDelta(5));
    assert!(poll_once(&mut waiter, &w2).is_pending(), "still parked");
    driver.advance(4);
    assert!(!parked_flag.0.load(Ordering::SeqCst), "no release, no wake");
    assert_eq!(driver.outstanding(), 1);

    // The holder's fire frees the slot and wakes the parked sleep.
    driver.advance(1);
    assert!(holder_flag.0.load(Ordering::SeqCst));
    assert!(
        parked_flag.0.load(Ordering::SeqCst),
        "the fire woke the parked sleep"
    );
    assert!(poll_once(&mut holder, &w1).is_ready());
    assert!(poll_once(&mut waiter, &w2).is_pending());
    assert_eq!(driver.outstanding(), 1, "the waiter armed on its re-poll");
    driver.advance(3);
    assert!(poll_once(&mut waiter, &w2).is_ready());
    assert_eq!(driver.waker_slots(), 1, "the slab never grew past the cap");
}

#[test]
fn block_on_over_realtime_ticker() {
    // Realtime leg: the ticker thread ticks the wheel on a wall-clock
    // period and delivers the wake itself — no advance calls anywhere.
    let driver = TimerDriver::builder(HierarchicalWheel::<RequestId>::new(LevelSizes(vec![
        16, 16,
    ])))
    .realtime(Duration::from_millis(1))
    .build();
    let sleep = driver.sleep(TickDelta(5));
    block_on(sleep);
    assert_eq!(driver.outstanding(), 0);

    // Timeout over realtime: the inner future never completes, the
    // deadline does.
    let result = block_on(driver.timeout(TickDelta(5), std::future::pending::<()>()));
    assert!(result.is_err());
}

#[test]
fn realtime_lateness_stays_under_thirty_percent() {
    // The ticker keeps tick k on the origin + k·period grid, so neither
    // oversleep nor the sweep accumulates across 2,000 ticks: only the
    // last wake can be late.
    let period = Duration::from_micros(100);
    let driver = TimerDriver::builder(wheel(256)).realtime(period).build();
    let begun = std::time::Instant::now();
    block_on(driver.sleep(TickDelta(2_000)));
    let took = begun.elapsed();
    let ideal = period * 2_000;
    assert!(took <= ideal * 13 / 10, "{took:?} for {ideal:?} of ticks");
}

#[test]
fn many_waiters_one_wake_storm() {
    // A batch of same-deadline sleeps: one advance delivers the whole
    // coalesced storm before advance() returns.
    let driver = driver();
    let mut sleeps = Vec::new();
    for _ in 0..64 {
        let (flag, waker) = flag_waker();
        let mut sleep = driver.sleep(TickDelta(7));
        assert!(poll_once(&mut sleep, &waker).is_pending());
        sleeps.push((sleep, flag, waker));
    }
    driver.advance(7);
    for (sleep, flag, waker) in &mut sleeps {
        assert!(flag.0.load(Ordering::SeqCst), "woken in the storm");
        assert!(poll_once(sleep, waker).is_ready());
    }
    assert_eq!(driver.pending_sleeps(), 0);
}
