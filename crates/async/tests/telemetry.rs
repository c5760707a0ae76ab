//! The driver's telemetry against its definition. The driver raises the
//! observer's hooks itself, from inside its own critical sections, with no
//! `Observed` layer under its sweep. These tests pin what that must still
//! record:
//!
//! * **Parity.** One seeded sleep arm/reset/drop/advance stream is
//!   replayed through a `TimerDriver` with `ServiceTelemetry` attached,
//!   and as the equivalent START/UPDATE/STOP/advance calls through an
//!   `Observed<Scheme, &SchemeTelemetry>`, whose wake latencies the
//!   harness records one by one. Every counter and histogram must agree,
//!   on Scheme 6 and on a no-migration hierarchy whose firing errors vary.
//! * **Coalescing.** One `advance(1)` firing 128 sleeps on Scheme 6 raises
//!   each per-fire hook once.

// Integration test: panicking on an unexpected Err is the assertion.
#![allow(clippy::unwrap_used)]
#![cfg(not(loom))]

use std::collections::BTreeSet;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use proptest::prelude::*;
use tw_async::{Sleep, TimerDriver};
use tw_core::observe::firing_error;
use tw_core::wheel::{
    HashedWheelUnsorted, HierarchicalWheel, InsertRule, LevelSizes, MigrationPolicy, WheelConfig,
};
use tw_core::{Observed, Observer, RequestId, Tick, TickDelta, TimerHandle, TimerScheme};
use tw_obs::ServiceTelemetry;

/// Case count per property, overridable by `TW_PROPTEST_CASES`.
fn env_cases(default: u32) -> u32 {
    std::env::var("TW_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Counts the wakes of every sleep polled with it.
#[derive(Default)]
struct Wakes(AtomicU64);

impl Wake for Wakes {
    fn wake(self: Arc<Self>) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Create a sleep with this interval and poll it once, arming it.
    Sleep(u64),
    /// Reset the k-th (mod live count) sleep; 0 completes it via STOP.
    Reset(u64, u64),
    /// Drop the k-th (mod live count) sleep.
    Drop(u64),
    /// Advance the clock, then poll every live sleep.
    Advance(u64),
}

/// A seeded op stream: splitmix64 over `seed`, with sleeps up to 100
/// ticks (inside the hierarchy's range), mostly single-tick advances and
/// some batched ones up to 8 ticks.
fn stream(seed: u64, len: usize) -> Vec<Op> {
    let mut z = seed;
    let mut next = move || {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = z;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    };
    (0..len)
        .map(|_| match next() % 10 {
            0..=3 => Op::Sleep(1 + next() % 100),
            4 | 5 => Op::Reset(next(), next() % 101),
            6 => Op::Drop(next()),
            7 | 8 => Op::Advance(1),
            _ => Op::Advance(1 + next() % 8),
        })
        .collect()
}

/// The index `k` names among `len` live sleeps.
fn pick(k: u64, len: usize) -> usize {
    usize::try_from(k % len as u64).unwrap()
}

/// A live sleep on the driver side, with its twin timer.
struct Live {
    sleep: Sleep,
    twin: TimerHandle,
}

/// What both replays recorded, and the firing errors the twin saw.
struct Replayed {
    driver: Arc<ServiceTelemetry>,
    twin: ServiceTelemetry,
    wakes: u64,
    errors: BTreeSet<u64>,
}

/// Replays `ops` through a driver over `scheme()` and through an observed
/// twin of the same scheme, fed the equivalent routine calls.
fn replay<S>(scheme: impl Fn() -> S, ops: &[Op]) -> Replayed
where
    S: TimerScheme<RequestId> + Send + 'static,
{
    let tele = Arc::new(ServiceTelemetry::new());
    let driver = TimerDriver::builder(scheme())
        .observer(Arc::clone(&tele) as Arc<dyn Observer + Send + Sync>)
        .build();
    let wakes = Arc::new(Wakes::default());
    let waker = Waker::from(Arc::clone(&wakes));
    let poll = |sleep: &mut Sleep| Pin::new(sleep).poll(&mut Context::from_waker(&waker));

    let reference = ServiceTelemetry::new();
    let mut twin = Observed::new(scheme(), &reference.scheme);
    let mut errors = BTreeSet::new();
    let mut live: Vec<Live> = Vec::new();
    let mut next_id = 0u64;

    for &op in ops {
        match op {
            Op::Sleep(interval) => {
                let mut sleep = driver.sleep(TickDelta(interval));
                assert_eq!(poll(&mut sleep), Poll::Pending);
                let twin_timer = twin
                    .start_timer(TickDelta(interval), RequestId(next_id))
                    .unwrap();
                next_id += 1;
                live.push(Live {
                    sleep,
                    twin: twin_timer,
                });
            }
            Op::Reset(k, interval) if !live.is_empty() => {
                let i = pick(k, live.len());
                live[i].sleep.reset(TickDelta(interval));
                if interval == 0 {
                    twin.stop_timer(live.remove(i).twin).unwrap();
                } else {
                    twin.restart_timer(live[i].twin, TickDelta(interval))
                        .unwrap();
                }
            }
            Op::Drop(k) if !live.is_empty() => {
                let gone = live.remove(pick(k, live.len()));
                drop(gone.sleep);
                twin.stop_timer(gone.twin).unwrap();
            }
            Op::Advance(ticks) => {
                driver.advance(ticks);
                let target = Tick(twin.now().as_u64() + ticks);
                let mut fired = Vec::new();
                twin.advance_to_with(target, &mut |e| {
                    errors.insert(firing_error(e.deadline, e.fired_at).as_u64());
                    let late = target.checked_since(e.deadline).unwrap_or(TickDelta::ZERO);
                    reference.on_wake_latency(late, 1);
                    fired.push(e.handle);
                });
                // Every sleep the twin fired is ready; no other is.
                live.retain_mut(|l| {
                    let ready = poll(&mut l.sleep).is_ready();
                    assert_eq!(ready, fired.contains(&l.twin), "driver and twin agree");
                    !ready
                });
            }
            Op::Reset(..) | Op::Drop(_) => {}
        }
    }
    for gone in live {
        drop(gone.sleep);
        twin.stop_timer(gone.twin).unwrap();
    }
    Replayed {
        driver: tele,
        twin: reference,
        wakes: wakes.0.load(Ordering::Relaxed),
        errors,
    }
}

/// Asserts that both sides recorded the same thing, counter by counter
/// and histogram by histogram.
fn assert_parity(r: &Replayed) {
    let (driver, twin) = (r.driver.snapshot(), r.twin.snapshot());
    assert_eq!(driver.counters, twin.counters);
    assert_eq!(driver.histograms, twin.histograms);
    assert_eq!(
        r.driver.check_saturation().is_ok(),
        r.twin.check_saturation().is_ok()
    );
    // twbench's `driver.wakes_per_fire` divides wakes by this counter.
    assert_eq!(r.driver.scheme.fires.get(), r.wakes);
}

/// A 4×4×8 hierarchy that never migrates (§6.2): timers fire when their
/// insertion-level slot comes up, early or late by up to its granularity.
fn nomig() -> HierarchicalWheel<RequestId> {
    let config = WheelConfig::new()
        .granularities(LevelSizes(vec![4, 4, 8]))
        .insert_rule(InsertRule::Covering)
        .migration(MigrationPolicy::None);
    HierarchicalWheel::try_from(config).unwrap()
}

fn scheme6() -> HashedWheelUnsorted<RequestId> {
    HashedWheelUnsorted::new(64)
}

const STREAM: usize = 400;

#[test]
fn pinned_stream_parity_on_scheme_6() {
    let r = replay(scheme6, &stream(1, 4 * STREAM));
    assert_parity(&r);
    assert!(r.wakes > 100, "the stream fires: {} wakes", r.wakes);
    assert_eq!(r.errors, BTreeSet::from([0]), "Scheme 6 is exact");
}

#[test]
fn pinned_stream_parity_on_a_no_migration_hierarchy() {
    let r = replay(nomig, &stream(1, 4 * STREAM));
    assert_parity(&r);
    assert!(
        r.errors.len() > 2,
        "firing errors vary, so runs flush on a change of value: {:?}",
        r.errors
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(env_cases(32)))]

    #[test]
    fn driver_telemetry_matches_an_observed_twin_scheme_6(seed in any::<u64>()) {
        assert_parity(&replay(scheme6, &stream(seed, STREAM)));
    }

    #[test]
    fn driver_telemetry_matches_an_observed_twin_no_migration(seed in any::<u64>()) {
        assert_parity(&replay(nomig, &stream(seed, STREAM)));
    }
}

/// Counts per-fire hook calls and the fires they carry.
#[derive(Default)]
struct Calls {
    fires_calls: AtomicU64,
    fires: AtomicU64,
    wake_calls: AtomicU64,
    wakes: AtomicU64,
}

impl Observer for Calls {
    fn on_fires(&self, _error: TickDelta, count: usize) {
        self.fires_calls.fetch_add(1, Ordering::Relaxed);
        self.fires.fetch_add(count as u64, Ordering::Relaxed);
    }
    fn on_wake_latency(&self, _elapsed: TickDelta, count: usize) {
        self.wake_calls.fetch_add(1, Ordering::Relaxed);
        self.wakes.fetch_add(count as u64, Ordering::Relaxed);
    }
}

#[test]
fn one_tick_of_128_fires_raises_each_per_fire_hook_once() {
    let calls = Arc::new(Calls::default());
    let driver = TimerDriver::builder(HashedWheelUnsorted::<RequestId>::new(4096))
        .observer(Arc::clone(&calls) as Arc<dyn Observer + Send + Sync>)
        .build();
    let waker = Waker::from(Arc::new(Wakes::default()));
    let mut sleeps: Vec<Sleep> = (0..128).map(|_| driver.sleep(TickDelta(3))).collect();
    for sleep in &mut sleeps {
        assert!(Pin::new(sleep)
            .poll(&mut Context::from_waker(&waker))
            .is_pending());
    }
    driver.advance(2);
    assert_eq!(calls.fires_calls.load(Ordering::Relaxed), 0);
    assert_eq!(driver.advance(1), 128);
    assert_eq!(calls.fires_calls.load(Ordering::Relaxed), 1);
    assert_eq!(calls.fires.load(Ordering::Relaxed), 128);
    assert_eq!(calls.wake_calls.load(Ordering::Relaxed), 1);
    assert_eq!(calls.wakes.load(Ordering::Relaxed), 128);
}
