//! Model 9 of the workspace's loom suite (models 1–8 live in
//! tw-concurrent): exhaustive checking of the one-lock protocol that
//! `Sleep` polling, resets, drops and the driver's sweep share.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"`:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p tw-async --release --test loom
//! ```
//!
//! The models drive the *exact shipped* [`Wheel`] — the scheme, the waker
//! slab and the parked list the driver keeps behind its one lock — under
//! tw-concurrent's loom `Mutex`, the same lock type `TimerDriver` takes.
//! Integer tokens stand in for task wakers; a sweep hands back the tokens
//! to wake, which the model checks after the lock is released, as the
//! driver wakes them. Across **every** interleaving:
//!
//! 9a. re-register racing fire: the task is woken exactly once, with a
//!     waker it actually registered — never a lost wakeup, never a double
//!     wake;
//! 9b. drop racing fire: exactly one of {release frees the slot, the sweep
//!     wakes it} wins — a dropped sleep is never woken and a fired slot is
//!     never double-freed;
//! 9c. reset racing fire: a reset that wins moves the deadline and the old
//!     one never fires; a reset that loses sees `Stale`, re-arms on a new
//!     slot, and that sleep is woken only at its own deadline, never by
//!     the old expiry;
//! 9d. concurrent arms get distinct slots and distinct `Request_ID`s;
//! 9e. an arm parked on exhaustion racing the release of capacity: the
//!     sleep either arms or is handed back to be woken — no lost wakeup.

#![cfg(loom)]

use tw_async::slots::{slot_to_request, ArmOutcome, RegisterOutcome, Wheel};
use tw_concurrent::sync::{Arc, Mutex};
use tw_core::wheel::HashedWheelUnsorted;
use tw_core::{RequestId, TickDelta, TimerHandle};

type Shared = Arc<Mutex<Wheel<usize>>>;

/// A wheel with `capacity` live sleeps at most, behind the loom lock.
fn shared(capacity: Option<usize>) -> Shared {
    let timers = Box::new(HashedWheelUnsorted::<RequestId>::new(8));
    Arc::new(Mutex::new(Wheel::new(timers, None, capacity)))
}

/// Arms a sleep that the model expects to arm.
fn arm(wheel: &Shared, interval: u64, token: usize) -> (TimerHandle, TimerHandle) {
    match wheel.lock().arm(TickDelta(interval), token) {
        Ok(ArmOutcome::Armed { slot, timer }) => (slot, timer),
        other => panic!("expected an armed sleep, got {other:?}"),
    }
}

/// The driver's `advance`: one sweep under the lock, returning the tokens
/// it would wake after releasing it.
fn sweep(wheel: &Shared, ticks: u64) -> Vec<usize> {
    let mut woken = Vec::new();
    wheel.lock().sweep(ticks, &mut woken);
    woken
}

/// Model 9a: a task re-polling (re-registering its waker) while the
/// driver sweeps its timer. No schedule may lose the wakeup.
#[test]
fn reregister_vs_fire_wakes_exactly_once() {
    loom::model(|| {
        let wheel = shared(None);
        // Armed at first poll: waker 1 is stored before any race begins.
        let (slot, _) = arm(&wheel, 4, 1);

        let driver = {
            let wheel = Arc::clone(&wheel);
            loom::thread::spawn(move || sweep(&wheel, 4))
        };
        // The re-poll: replace waker 1 with waker 2, or complete if the
        // sweep already freed the slot (Sleep::poll_armed's two arms).
        let outcome = wheel.lock().register(slot, 2);
        let woken = driver.join().unwrap();

        match outcome {
            RegisterOutcome::Registered => assert_eq!(woken, [2], "the newest waker, once"),
            RegisterOutcome::Stale => assert_eq!(woken, [1], "the poll completes; one wake"),
        }
        assert_eq!(
            wheel.lock().register(slot, 3),
            RegisterOutcome::Stale,
            "slot is stale for every later poll"
        );
        assert_eq!(wheel.lock().pending_sleeps(), 0);
    });
}

/// Model 9b: `Sleep::drop` (release) racing the sweep's fire. Exactly one
/// side reclaims the slot, and a dropped sleep's waker is never invoked.
#[test]
fn drop_vs_fire_exactly_one_side_wins() {
    loom::model(|| {
        let wheel = shared(None);
        let (slot, timer) = arm(&wheel, 2, 7);

        let driver = {
            let wheel = Arc::clone(&wheel);
            loom::thread::spawn(move || sweep(&wheel, 2))
        };
        let mut unparked = Vec::new();
        let released = wheel.lock().release(timer, slot, &mut unparked);
        let woken = driver.join().unwrap();

        assert_ne!(
            released,
            woken == [7],
            "exactly one of release/fire reclaims the slot (released={released}, woken={woken:?})"
        );
        assert!(unparked.is_empty(), "nobody was parked");
        let wheel = wheel.lock();
        assert_eq!(wheel.pending_sleeps(), 0, "loser left no residue");
        assert_eq!(wheel.outstanding(), 0, "no timer left in the scheme");
    });
}

/// Model 9c: `Sleep::reset` (`restart_timer`) racing the sweep that would
/// fire the old deadline.
#[test]
fn reset_vs_fire_never_wakes_the_reset_sleep_early() {
    loom::model(|| {
        let wheel = shared(None);
        let (_, timer) = arm(&wheel, 10, 1);

        let driver = {
            let wheel = Arc::clone(&wheel);
            loom::thread::spawn(move || sweep(&wheel, 10))
        };
        let restarted = wheel.lock().restart(timer, TickDelta(20));
        let woken = driver.join().unwrap();

        // Where the sleep now waits: its slot, token and ticks left from
        // the clock after the race (tick 10).
        let (slot, token, left) = match restarted {
            // The reset won: the deadline moved to 0 + 20 before the sweep
            // reached the old one, which never fires.
            Ok(()) => {
                assert!(woken.is_empty(), "the old deadline must not fire");
                (None, 1, 10)
            }
            // The sweep won and freed the slot; the sleep goes Idle and its
            // next poll arms afresh at 10 + 20, on a new slot.
            Err(_) => {
                assert_eq!(woken, [1], "the old expiry woke the old waker once");
                let (slot, _) = arm(&wheel, 20, 2);
                (Some(slot), 2, 20)
            }
        };
        if let Some(slot) = slot {
            assert_eq!(
                wheel.lock().register(slot, 2),
                RegisterOutcome::Registered,
                "the re-armed sleep is not completed by the old expiry"
            );
        }
        assert!(sweep(&wheel, left - 1).is_empty(), "no early wake");
        assert_eq!(sweep(&wheel, 1), [token], "woken at its own deadline");
        assert_eq!(wheel.lock().pending_sleeps(), 0);
    });
}

/// Model 9d: two sleeps arming concurrently never share a slot, and their
/// packed `Request_ID`s stay distinct — the property expiry routing
/// depends on.
#[test]
fn concurrent_arms_get_distinct_slots() {
    loom::model(|| {
        let wheel = shared(None);
        let other = {
            let wheel = Arc::clone(&wheel);
            loom::thread::spawn(move || arm(&wheel, 1, 1))
        };
        let (slot_a, timer_a) = arm(&wheel, 2, 2);
        let (slot_b, timer_b) = other.join().unwrap();

        assert_ne!(slot_a, slot_b, "distinct slots");
        assert_ne!(timer_a, timer_b, "distinct timers");
        assert_ne!(
            slot_to_request(slot_a),
            slot_to_request(slot_b),
            "distinct ids"
        );
        assert_eq!(wheel.lock().pending_sleeps(), 2);
        assert_eq!(sweep(&wheel, 1), [1]);
        assert_eq!(sweep(&wheel, 1), [2]);
    });
}

/// Model 9e: at capacity 1, a second sleep's arm races the release of the
/// first. The park and the release take the same lock, so the parked
/// waker is always handed back by the release that follows it.
#[test]
fn park_vs_release_loses_no_wakeup() {
    loom::model(|| {
        let wheel = shared(Some(1));
        let (slot, timer) = arm(&wheel, 5, 1);

        let waiter = {
            let wheel = Arc::clone(&wheel);
            loom::thread::spawn(move || wheel.lock().arm(TickDelta(5), 2).unwrap())
        };
        let mut unparked = Vec::new();
        assert!(wheel.lock().release(timer, slot, &mut unparked));
        let armed = waiter.join().unwrap();

        match armed {
            // The release came first: the waiter found the freed capacity.
            ArmOutcome::Armed { .. } => assert!(unparked.is_empty()),
            // The waiter parked first: the release must wake it.
            ArmOutcome::Parked => {
                assert_eq!(unparked, [2], "the parked waker is handed back");
                arm(&wheel, 5, 2);
            }
        }
        let wheel = wheel.lock();
        assert_eq!(wheel.pending_sleeps(), 1);
        assert_eq!(wheel.outstanding(), 1);
    });
}
