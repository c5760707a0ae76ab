//! Observer/accounting reconciliation: the event stream an [`Observer`]
//! sees must agree *exactly* with the [`OpCounters`] the scheme keeps for
//! §7 cost accounting — same successful starts, same stops, same expiries,
//! and tick windows whose widths partition the clock's travel. A drifting
//! observer would make telemetry dashboards lie about the §2 routines.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use proptest::prelude::*;
use tw_core::wheel::{HashedWheelUnsorted, HierarchicalWheel, LevelSizes, WheelConfig};
use tw_core::{
    Checked, InvariantCheck, Observed, Observer, OpCounters, Tick, TickDelta, TimerHandle,
    TimerScheme,
};

/// Tallies every hook with relaxed atomics (hooks take `&self`).
#[derive(Debug, Default)]
struct Counts {
    starts: AtomicU64,
    stops: AtomicU64,
    fires: AtomicU64,
    windows: AtomicU64,
    ticks: AtomicU64,
    window_open: AtomicU64,
}

impl Observer for Counts {
    fn on_start(&self, _now: Tick, _interval: TickDelta) {
        self.starts.fetch_add(1, Relaxed);
    }

    fn on_stop(&self, _now: Tick) {
        self.stops.fetch_add(1, Relaxed);
    }

    fn on_fires(&self, _error: TickDelta, count: usize) {
        self.fires.fetch_add(count as u64, Relaxed);
    }

    fn on_tick_begin(&self, now: Tick) {
        self.window_open.store(now.as_u64(), Relaxed);
    }

    fn on_tick_end(&self, now: Tick, _fired: usize) {
        self.windows.fetch_add(1, Relaxed);
        self.ticks
            .fetch_add(now.as_u64() - self.window_open.load(Relaxed), Relaxed);
    }
}

/// One step of a random workload, including operations that must *fail*
/// (stale stops, out-of-range starts) — failures raise no hooks and bump no
/// counters, so they exercise the success-only pairing.
#[derive(Debug, Clone)]
enum Op {
    Start(u64),
    Stop(usize),
    Tick,
    Advance(u64),
}

fn op_strategy(max_interval: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (1..=max_interval).prop_map(Op::Start),
        2 => (0..64usize).prop_map(Op::Stop),
        3 => Just(Op::Tick),
        1 => (2..=40u64).prop_map(Op::Advance),
    ]
}

/// Drives `scheme` through `ops` and checks the observer's tallies against
/// the scheme's own [`OpCounters`] after every expiry-bearing step.
fn reconcile<S>(mut scheme: S, counts: &Counts, ops: Vec<Op>) -> Result<(), TestCaseError>
where
    S: TimerScheme<u64>,
{
    let mut handles: Vec<TimerHandle> = Vec::new();
    for op in ops {
        match op {
            Op::Start(interval) => {
                if let Ok(h) = scheme.start_timer(TickDelta(interval), interval) {
                    handles.push(h);
                }
            }
            Op::Stop(k) => {
                if let Some(h) = handles.get(k % handles.len().max(1)) {
                    // May be stale (already fired or stopped) — only a
                    // success may tally.
                    let _ = scheme.stop_timer(*h);
                }
            }
            Op::Tick => {
                scheme.tick(&mut |_| {});
            }
            Op::Advance(n) => {
                let target = Tick(scheme.now().as_u64() + n);
                scheme.advance_to_with(target, &mut |_| {});
            }
        }
    }
    let c: OpCounters = *scheme.counters();
    prop_assert_eq!(counts.starts.load(Relaxed), c.starts, "starts = inserts");
    prop_assert_eq!(counts.stops.load(Relaxed), c.stops, "stops = deletions");
    prop_assert_eq!(counts.fires.load(Relaxed), c.expiries, "fires = expiries");
    prop_assert_eq!(
        counts.ticks.load(Relaxed),
        c.ticks,
        "window widths partition the clock's travel"
    );
    prop_assert!(
        counts.windows.load(Relaxed) <= c.ticks,
        "windows batch ticks"
    );
    Ok(())
}

fn hierarchy() -> HierarchicalWheel<u64> {
    HierarchicalWheel::try_from(WheelConfig::new().granularities(LevelSizes(vec![8, 8, 8])))
        .expect("8/8/8 hierarchy config is statically valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn observer_reconciles_with_op_counters_plain(
        ops in proptest::collection::vec(op_strategy(400), 1..200),
    ) {
        let counts = Counts::default();
        reconcile(
            Observed::new(HashedWheelUnsorted::<u64>::new(16), &counts),
            &counts,
            ops,
        )?;
    }

    #[test]
    fn observer_reconciles_with_op_counters_checked(
        ops in proptest::collection::vec(op_strategy(400), 1..200),
    ) {
        // Checked re-validates the full invariant catalog after every
        // operation; the observer must see the identical event stream.
        let counts = Counts::default();
        let wheel = Observed::new(hierarchy(), &counts);
        wheel.check_invariants().expect("fresh wheel is sound");
        reconcile(Checked::new(wheel), &counts, ops)?;
    }
}
