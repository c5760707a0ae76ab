//! T-ASYNC — a million concurrent sleeps through the futures layer.
//!
//! The async stack's scaling claim, measured end to end: `tw-async` holds
//! `n` concurrent `Sleep` futures (1M by default; pass a count or set
//! `ASYNC_N` for CI smoke runs) over a driver-owned wheel, then
//! survives a reset churn and a chunked advance sweep that delivers the
//! wake storms. Three claims are asserted, not just printed:
//!
//! * **Allocation-free hot path** — the waker-slot slab and the scheme
//!   arena both plateau at the ramp's high-water mark: re-polling the
//!   whole fleet allocates nothing (`will_wake` short-circuit), reset
//!   churn relinks in place, and a post-drain second wave re-arms
//!   entirely off the free lists (`waker_slots()` never grows past `n`).
//! * **Reset is `UPDATE`, never stop+start** — during churn, telemetry
//!   must show exactly one `on_restart` per reset and *zero* `on_stop`:
//!   the driver maps `Sleep::reset` to `restart_timer` (TW014's O(1)
//!   relink), so a reset costs one relink, not two calls plus a
//!   realloc.
//! * **Exactly-once wake delivery** — every surviving sleep's waker is
//!   invoked exactly once across the storm sweep (wake count == fires ==
//!   survivors), and the per-fire `wake_latency` histogram carries one
//!   sample per delivered wake.
//!
//! The workload is a seeded [`SleepsPlan`] (tw-workload), so the 1M run
//! and the CI smoke run replay the same schedule at different scales.

// Measurement harness: abort-on-error is the point; the audited tick/index
// domain is enforced in the library crates.
#![allow(
    clippy::unwrap_used,
    clippy::cast_possible_truncation,
    clippy::cast_precision_loss
)]

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::Instant;

use tw_async::{Sleep, TimerDriver};
use tw_bench::table::{f2, Table};
use tw_core::wheel::HashedWheelUnsorted;
use tw_core::{Observer, RequestId, TickDelta};
use tw_obs::ServiceTelemetry;
use tw_workload::{IntervalDist, SleepOp, SleepsConfig, SleepsPlan};

/// Hashed-wheel table size: 4096 slots over an 8192-tick interval span
/// keeps bucket chains short at 1M timers without pretending the wheel
/// must cover the span.
const TABLE_SIZE: usize = 4096;

/// A wake counter standing in for an executor's run queue: every
/// delivered fire increments it exactly once.
struct CountingWaker(AtomicU64);

impl Wake for CountingWaker {
    fn wake(self: Arc<Self>) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
    fn wake_by_ref(self: &Arc<Self>) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

fn poll(sleep: &mut Sleep, waker: &Waker) -> Poll<()> {
    Pin::new(sleep).poll(&mut Context::from_waker(waker))
}

fn main() {
    let n: u64 = std::env::args()
        .nth(1)
        .or_else(|| std::env::var("ASYNC_N").ok())
        .and_then(|a| a.parse().ok())
        .unwrap_or(1_000_000);
    assert!(n >= 64, "need a non-trivial fleet");

    let plan = SleepsPlan::generate(&SleepsConfig {
        sleeps: n,
        intervals: IntervalDist::Uniform { lo: 64, hi: 8_192 },
        reset_fraction: 0.25,
        drop_fraction: 0.10,
        storm_chunks: 16,
        seed: 0x1987_000A,
    });
    println!(
        "T-ASYNC — {n} concurrent sleeps, uniform intervals 64..8192, \
         {} resets / {} drops of churn, {} storm chunks\n",
        plan.resets, plan.drops, 16
    );

    let telemetry = Arc::new(ServiceTelemetry::new());
    let driver = TimerDriver::builder(HashedWheelUnsorted::<RequestId>::new(TABLE_SIZE))
        .observer(Arc::clone(&telemetry) as Arc<dyn Observer + Send + Sync>)
        .arena_capacity(usize::try_from(n).unwrap() + 1)
        .build();
    let counter = Arc::new(CountingWaker(AtomicU64::new(0)));
    let waker = Waker::from(Arc::clone(&counter));

    let mut sleeps: Vec<Option<Sleep>> = Vec::with_capacity(plan.ops.len());
    let mut ramp_ns = 0.0;
    let mut churn_ns = 0.0;
    let mut storm_ns = 0.0;
    let (mut resets, mut drops, mut advances) = (0u64, 0u64, 0u64);
    let mut peak_slots = 0usize;

    let t_all = Instant::now();
    for op in &plan.ops {
        match *op {
            SleepOp::Spawn { interval, .. } => {
                let t0 = Instant::now();
                let mut sleep = driver.sleep(interval);
                assert!(poll(&mut sleep, &waker).is_pending());
                ramp_ns += t0.elapsed().as_nanos() as f64;
                sleeps.push(Some(sleep));
            }
            SleepOp::Reset { id, interval } => {
                let t0 = Instant::now();
                sleeps[id as usize].as_mut().unwrap().reset(interval);
                churn_ns += t0.elapsed().as_nanos() as f64;
                resets += 1;
            }
            SleepOp::Drop { id } => {
                drop(sleeps[id as usize].take());
                drops += 1;
            }
            SleepOp::Advance { ticks } => {
                if advances == 0 {
                    // Ramp + churn complete: this is the plateau to hold.
                    peak_slots = driver.waker_slots();

                    // The reset-is-UPDATE claim, before any fire muddies
                    // the stop counter.
                    assert_eq!(
                        telemetry.scheme.restarts.get(),
                        resets,
                        "every reset is exactly one restart_timer"
                    );
                    assert_eq!(
                        telemetry.scheme.stops.get(),
                        drops,
                        "stops come only from dropped sleeps — reset never \
                         issues STOP+START"
                    );

                    // Allocation-free re-poll: re-register the entire
                    // surviving fleet; the slab must not move.
                    let t0 = Instant::now();
                    for slot in sleeps.iter_mut().flatten() {
                        assert!(poll(slot, &waker).is_pending());
                    }
                    let repoll_ns = t0.elapsed().as_nanos() as f64 / plan.survivors as f64;
                    assert_eq!(
                        driver.waker_slots(),
                        peak_slots,
                        "re-polling the fleet allocated waker slots"
                    );
                    println!("re-poll (register_waker hot path): {} ns/op", f2(repoll_ns));
                }
                let t0 = Instant::now();
                driver.advance(ticks);
                storm_ns += t0.elapsed().as_nanos() as f64;
                advances += 1;
            }
        }
    }

    // Drain check: collect every survivor; all fired, woken exactly once.
    let mut completed = 0u64;
    for slot in sleeps.iter_mut().flatten() {
        assert!(
            poll(slot, &waker).is_ready(),
            "sweep covered every deadline"
        );
        completed += 1;
    }
    let total_s = t_all.elapsed().as_secs_f64();

    let wakes = counter.0.load(Ordering::Relaxed);
    let fires = telemetry.scheme.fires.get();
    let wake_lat = telemetry.wake_latency.snapshot();

    let mut table = Table::new(vec!["metric", "value", "per-op ns"]);
    table.row(vec![
        "ramp (arm via first poll)".into(),
        format!("{n} sleeps"),
        f2(ramp_ns / n as f64),
    ]);
    table.row(vec![
        "reset churn (UPDATE)".into(),
        format!("{resets} resets"),
        f2(churn_ns / resets.max(1) as f64),
    ]);
    table.row(vec![
        "storm sweep (advance+wake)".into(),
        format!("{} fires", fires),
        f2(storm_ns / fires.max(1) as f64),
    ]);
    table.row(vec![
        "wake latency p50/p99 (ticks)".into(),
        format!("{}/{}", wake_lat.p50, wake_lat.p99),
        String::new(),
    ]);
    table.row(vec![
        "waker slots peak/final".into(),
        format!("{}/{}", peak_slots, driver.waker_slots()),
        String::new(),
    ]);
    table.print();

    // Exactly-once delivery: one wake per survivor, one histogram sample
    // per wake, no timer left behind.
    assert_eq!(completed, plan.survivors, "every survivor completed");
    assert_eq!(fires, plan.survivors, "every survivor fired");
    assert_eq!(wakes, plan.survivors, "each fire wakes exactly once");
    assert_eq!(
        wake_lat.count, plan.survivors,
        "one wake-latency sample per delivered fire"
    );
    assert_eq!(driver.pending_sleeps(), 0);
    assert_eq!(driver.outstanding(), 0);

    // Allocation-freedom: the slab never grew past the ramp population.
    assert!(
        peak_slots <= usize::try_from(n).unwrap(),
        "waker slab exceeded the fleet size"
    );
    assert_eq!(
        driver.waker_slots(),
        peak_slots,
        "storm + drain grew the waker slab"
    );

    // Second wave: re-arm half the fleet after the drain — everything
    // must come off the free lists, growing nothing.
    let wave = n / 2;
    let mut second: Vec<Sleep> = Vec::with_capacity(wave as usize);
    for _ in 0..wave {
        let mut sleep = driver.sleep(TickDelta(100));
        assert!(poll(&mut sleep, &waker).is_pending());
        second.push(sleep);
    }
    assert_eq!(
        driver.waker_slots(),
        peak_slots,
        "second wave must recycle slots, not allocate"
    );
    driver.advance(100);
    for sleep in &mut second {
        assert!(poll(sleep, &waker).is_ready());
    }
    telemetry
        .check_saturation()
        .expect("no histogram saturated");

    println!(
        "\n{n} sleeps ramped, churned, stormed and re-waved in {} s",
        f2(total_s)
    );
    println!("expected shape: waker slots plateau at the ramp peak through");
    println!("re-poll, churn, storm, drain and the second wave; restarts ==");
    println!("resets with zero reset-driven stops (UPDATE, never STOP+START);");
    println!("wake count == fires == survivors (exactly-once delivery).");
}
