//! Pins [`Observer::on_wake_latency`] to its one definition: the
//! deadline→delivery distance of each wake, in ticks — the target tick of
//! the `advance` that delivered it minus the timer's deadline.

// Integration test: panicking on an unexpected Err is the assertion.
#![allow(clippy::unwrap_used)]
#![cfg(not(loom))]

use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Wake, Waker};

use tw_async::{Sleep, TimerDriver};
use tw_core::wheel::{
    HashedWheelUnsorted, HierarchicalWheel, InsertRule, LevelSizes, MigrationPolicy, WheelConfig,
};
use tw_core::{Observer, RequestId, TickDelta, TimerScheme};

/// Records every wake latency the driver reports.
#[derive(Default)]
struct Recorder(Mutex<Vec<u64>>);

impl Observer for Recorder {
    fn on_wake_latency(&self, elapsed: TickDelta, count: usize) {
        let mut v = self.0.lock().unwrap();
        v.extend(std::iter::repeat(elapsed.as_u64()).take(count));
    }
}

impl Recorder {
    fn sorted(&self) -> Vec<u64> {
        let mut v = self.0.lock().unwrap().clone();
        v.sort_unstable();
        v
    }
}

struct Nop;

impl Wake for Nop {
    fn wake(self: Arc<Self>) {}
}

/// Builds a driver over `scheme` reporting to a fresh recorder, and arms
/// one sleep per interval.
fn armed<S>(scheme: S, intervals: &[u64]) -> (TimerDriver, Arc<Recorder>, Vec<Sleep>)
where
    S: TimerScheme<RequestId> + Send + 'static,
{
    let recorder = Arc::new(Recorder::default());
    let driver = TimerDriver::builder(scheme)
        .observer(Arc::clone(&recorder) as Arc<dyn Observer + Send + Sync>)
        .build();
    let waker = Waker::from(Arc::new(Nop));
    let sleeps = intervals
        .iter()
        .map(|&i| {
            let mut sleep = driver.sleep(TickDelta(i));
            assert!(Pin::new(&mut sleep)
                .poll(&mut Context::from_waker(&waker))
                .is_pending());
            sleep
        })
        .collect();
    (driver, recorder, sleeps)
}

const INTERVALS: [u64; 8] = [1, 3, 5, 9, 17, 40, 63, 100];

#[test]
fn exact_scheme_advanced_one_tick_at_a_time_records_zero() {
    let (driver, recorder, _sleeps) = armed(HashedWheelUnsorted::<RequestId>::new(16), &INTERVALS);
    for _ in 0..100 {
        driver.advance(1);
    }
    assert_eq!(recorder.sorted(), [0; INTERVALS.len()]);
}

#[test]
fn batched_advance_records_target_minus_deadline() {
    let (driver, recorder, _sleeps) = armed(HashedWheelUnsorted::<RequestId>::new(16), &[3, 5, 9]);
    // One sweep to tick 10 delivers all three: 10 − 9, 10 − 5, 10 − 3.
    assert_eq!(driver.advance(10), 3);
    assert_eq!(recorder.sorted(), [1, 5, 7]);

    // A deadline the sweep lands on exactly reads 0, one it passes reads
    // the overshoot, measured from the deadline, not from the arm.
    let (driver, recorder, _sleeps) = armed(HashedWheelUnsorted::<RequestId>::new(16), &[4, 6]);
    driver.advance(2);
    driver.advance(2);
    driver.advance(4);
    assert_eq!(recorder.sorted(), [0, 2]);
}

/// A 4×4×8 hierarchy that never migrates (§6.2, Wick Nichols): a timer
/// fires when its insertion-level slot comes up, off its deadline by up to
/// that level's granularity.
fn nomig() -> HierarchicalWheel<RequestId> {
    let config = WheelConfig::new()
        .granularities(LevelSizes(vec![4, 4, 8]))
        .insert_rule(InsertRule::Covering)
        .migration(MigrationPolicy::None);
    HierarchicalWheel::try_from(config).unwrap()
}

#[test]
fn reduced_precision_hierarchy_records_its_firing_error() {
    // The firing error of each timer, from a bare twin of the scheme
    // ticked the same way.
    let mut twin = nomig();
    for &i in &INTERVALS {
        twin.start_timer(TickDelta(i), RequestId(i)).unwrap();
    }
    let mut errors = Vec::new();
    while twin.outstanding() > 0 {
        twin.tick(&mut |e| errors.push(e.error()));
    }
    let late: Vec<u64> = errors
        .iter()
        .filter_map(|&e| u64::try_from(e).ok())
        .collect();
    assert!(
        late.iter().any(|&e| e > 0),
        "the twin fires some timer late: {errors:?}"
    );

    let (driver, recorder, _sleeps) = armed(nomig(), &INTERVALS);
    while driver.outstanding() > 0 {
        driver.advance(1);
    }
    // Advanced one tick at a time, delivery is the firing tick: a late
    // timer records exactly its error, an early one records 0.
    let mut expected: Vec<u64> = errors
        .iter()
        .map(|&e| u64::try_from(e).unwrap_or(0))
        .collect();
    expected.sort_unstable();
    assert_eq!(recorder.sorted(), expected);
}
