//! Differential tests: N interleaved sleeps/resets/drops against a
//! pen-and-paper oracle, under proptest-generated op schedules.
//!
//! The harness runs the driver in virtual time and polls futures by hand,
//! so every schedule is deterministic: fires happen only inside
//! [`TimerDriver::advance`], never concurrently with the ops between
//! advances. The oracle is a plain `(id → deadline)` map — a sleep armed
//! at time `t` for interval `i` must complete at the first advance that
//! reaches `t + i`, a reset rebases the deadline to the driver's current
//! time (`UPDATE` semantics), and a drop removes it. After every advance,
//! each live sleep's poll result must match the oracle exactly: `Ready`
//! iff `now ≥ deadline`, and a fired sleep's waker must have been invoked
//! by the wake storm *before* the completing poll observed it.
//!
//! A counting observer double-checks the API contract on the wheel
//! side: every successful reset of an armed sleep is exactly one
//! `on_restart` (never a stop+start pair), and `on_stop` fires only for
//! drops and zero-interval resets of armed sleeps.

// Integration test: panicking on an unexpected Err is the assertion.
#![allow(clippy::unwrap_used)]
#![cfg(not(loom))]

use std::collections::BTreeMap;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use proptest::prelude::*;
use tw_async::{Sleep, TimerDriver};
use tw_core::wheel::HashedWheelUnsorted;
use tw_core::{Observer, RequestId, Tick, TickDelta};

/// Case count per property, overridable by `TW_PROPTEST_CASES` (the
/// scheduled CI job elevates it; seeds are per-test-name fixed, so the
/// elevated run is a strict superset of the default one).
fn env_cases(default: u32) -> u32 {
    std::env::var("TW_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

const MAX_INTERVAL: u64 = 64;
const MAX_ADVANCE: u64 = 32;
const MAX_OPS: usize = 48;

/// A waker that records it was invoked; the harness's stand-in for an
/// executor's task queue.
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

/// Wheel-side hook counts, for the reset-is-UPDATE assertion.
#[derive(Default)]
struct Hooks {
    starts: AtomicU64,
    stops: AtomicU64,
    restarts: AtomicU64,
    wakes: AtomicU64,
}

impl Observer for Hooks {
    fn on_start(&self, _now: Tick, _interval: TickDelta) {
        self.starts.fetch_add(1, Ordering::Relaxed);
    }
    fn on_stop(&self, _now: Tick) {
        self.stops.fetch_add(1, Ordering::Relaxed);
    }
    fn on_restart(&self, _now: Tick, _interval: TickDelta) {
        self.restarts.fetch_add(1, Ordering::Relaxed);
    }
    fn on_wake_latency(&self, _elapsed: TickDelta, count: usize) {
        self.wakes.fetch_add(count as u64, Ordering::Relaxed);
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Create a sleep with this interval and poll it once (arming it).
    Sleep(u64),
    /// Reset the k-th (mod live count) sleep to this interval (0 = the
    /// degenerate complete-now reset).
    Reset(usize, u64),
    /// Drop the k-th (mod live count) sleep.
    Drop(usize),
    /// Advance virtual time, then re-poll every live sleep.
    Advance(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (1..=MAX_INTERVAL).prop_map(Op::Sleep),
        2 => (any::<usize>(), 0..=MAX_INTERVAL).prop_map(|(k, i)| Op::Reset(k, i)),
        1 => any::<usize>().prop_map(Op::Drop),
        3 => (1..=MAX_ADVANCE).prop_map(Op::Advance),
    ]
}

struct Entry {
    id: u64,
    sleep: Sleep,
    flag: Arc<Flag>,
    waker: Waker,
    /// Oracle deadline (absolute virtual time).
    deadline: u64,
}

/// Under `--features checked` the differential campaign drives an
/// invariant-checked wheel, revalidating the structure after every op.
#[cfg(feature = "checked")]
fn wheel(slots: usize) -> tw_core::validate::Checked<HashedWheelUnsorted<RequestId>> {
    tw_core::validate::Checked::new(HashedWheelUnsorted::new(slots))
}

#[cfg(not(feature = "checked"))]
fn wheel(slots: usize) -> HashedWheelUnsorted<RequestId> {
    HashedWheelUnsorted::new(slots)
}

fn run_schedule(ops: &[Op]) {
    let hooks = Arc::new(Hooks::default());
    let driver = TimerDriver::builder(wheel(64))
        .observer(Arc::clone(&hooks) as Arc<dyn Observer + Send + Sync>)
        .build();
    let mut now = 0u64;
    let mut next_id = 0u64;
    let mut live: Vec<Entry> = Vec::new();
    // id → (completion advance-step, woken by the wake storm).
    let mut completed: BTreeMap<u64, (usize, bool)> = BTreeMap::new();
    let mut oracle_deadlines: BTreeMap<u64, u64> = BTreeMap::new();
    let mut step = 0usize;
    let mut expected_stops = 0u64;
    let mut expected_restarts = 0u64;

    for op in ops {
        match *op {
            Op::Sleep(interval) => {
                let (flag, waker) = flag_waker();
                let mut sleep = driver.sleep(TickDelta(interval));
                let poll = Pin::new(&mut sleep).poll(&mut Context::from_waker(&waker));
                assert_eq!(poll, Poll::Pending, "nonzero sleep pends on first poll");
                let id = next_id;
                next_id += 1;
                oracle_deadlines.insert(id, now + interval);
                live.push(Entry {
                    id,
                    sleep,
                    flag,
                    waker,
                    deadline: now + interval,
                });
            }
            Op::Reset(k, interval) => {
                if live.is_empty() {
                    continue;
                }
                let idx = k % live.len();
                let entry = &mut live[idx];
                entry.sleep.reset(TickDelta(interval));
                if interval == 0 {
                    // Degenerate reset: completes now, via STOP_TIMER.
                    expected_stops += 1;
                    completed.insert(entry.id, (step, false));
                    oracle_deadlines.insert(entry.id, now);
                    live.remove(idx);
                } else {
                    // In this harness nothing fires between advances, so
                    // the sleep is still armed and reset is a pure UPDATE.
                    expected_restarts += 1;
                    entry.deadline = now + interval;
                    oracle_deadlines.insert(entry.id, now + interval);
                }
            }
            Op::Drop(k) => {
                if live.is_empty() {
                    continue;
                }
                let entry = live.remove(k % live.len());
                oracle_deadlines.remove(&entry.id);
                expected_stops += 1;
                drop(entry.sleep);
            }
            Op::Advance(ticks) => {
                driver.advance(ticks);
                now += ticks;
                step += 1;
                let mut still: Vec<Entry> = Vec::new();
                for mut entry in live.drain(..) {
                    let woken = entry.flag.0.load(Ordering::SeqCst);
                    let poll =
                        Pin::new(&mut entry.sleep).poll(&mut Context::from_waker(&entry.waker));
                    if entry.deadline <= now {
                        assert_eq!(
                            poll,
                            Poll::Ready(()),
                            "sleep {} (deadline {}) must fire by now={now}",
                            entry.id,
                            entry.deadline
                        );
                        assert!(
                            woken,
                            "sleep {} completed but its waker was never invoked",
                            entry.id
                        );
                        completed.insert(entry.id, (step, woken));
                    } else {
                        assert_eq!(
                            poll,
                            Poll::Pending,
                            "sleep {} (deadline {}) fired early at now={now}",
                            entry.id,
                            entry.deadline
                        );
                        assert!(!woken, "pending sleep {} woken early", entry.id);
                        still.push(entry);
                    }
                }
                live = still;
            }
        }
    }

    // Oracle order: completion step must be the first advance reaching
    // each deadline — replay the advance schedule against the deadline map.
    for (id, &(fired_step, _)) in &completed {
        let deadline = oracle_deadlines[id];
        let mut t = 0u64;
        let mut s = 0usize;
        let mut expect = None;
        for op in ops {
            if let Op::Advance(ticks) = *op {
                t += ticks;
                s += 1;
                if t >= deadline {
                    expect = Some(s);
                    break;
                }
            }
        }
        if let Some(expect_step) = expect {
            // Zero-interval resets complete inline (recorded at the step
            // counter's current value), so only fired sleeps are checked.
            if completed[id].1 {
                assert_eq!(
                    fired_step, expect_step,
                    "sleep {id} fired at step {fired_step}, oracle says {expect_step}"
                );
            }
        }
    }

    // Remaining armed sleeps release on drop (drivers of expected_stops).
    expected_stops += u64::try_from(live.len()).unwrap();
    drop(live);

    // Wheel-side contract: resets are UPDATEs — one on_restart each,
    // never a stop+start pair; stops come only from drops/zero-resets.
    assert_eq!(hooks.restarts.load(Ordering::SeqCst), expected_restarts);
    assert_eq!(hooks.stops.load(Ordering::SeqCst), expected_stops);
    let fired_count = completed.values().filter(|&&(_, woken)| woken).count();
    assert_eq!(
        hooks.wakes.load(Ordering::SeqCst),
        u64::try_from(fired_count).unwrap(),
        "one wake-latency sample per delivered fire"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(env_cases(64)))]

    #[test]
    fn interleaved_sleeps_resets_drops_fire_in_oracle_order(
        ops in proptest::collection::vec(op_strategy(), 1..MAX_OPS)
    ) {
        run_schedule(&ops);
    }
}

/// The schedule shape proptest shrinks toward, pinned as a regression
/// case: reset past a nearer deadline, then a drop racing nothing.
#[test]
fn pinned_reset_then_drop_schedule() {
    run_schedule(&[
        Op::Sleep(3),
        Op::Sleep(10),
        Op::Reset(0, 20),
        Op::Advance(5),
        Op::Sleep(1),
        Op::Drop(1),
        Op::Advance(30),
    ]);
}
