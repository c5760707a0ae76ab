//! [`Observer`] implementations that aggregate events into counters and
//! [`LogHistogram`]s, for scraping as [`Snapshot`]s.
//!
//! Both telemetry types record through `&self` with relaxed atomics, so one
//! instance can sit behind an `Arc` shared by the ticker thread and every
//! client — and their hook bodies never allocate, which is what lets them
//! ride inside `PER_TICK_BOOKKEEPING` under the TW008 lint.

use core::sync::atomic::{AtomicU64, Ordering::Relaxed};

use tw_core::{Observer, Tick, TickDelta, TimerError};

use crate::histogram::LogHistogram;
#[cfg(feature = "std")]
use crate::snapshot::Snapshot;

/// A relaxed atomic event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.0.fetch_add(1, Relaxed);
    }

    /// Adds `n` (saturating: telemetry pins rather than wraps).
    #[inline]
    pub fn add(&self, n: u64) {
        let _ = self
            .0
            .fetch_update(Relaxed, Relaxed, |v| Some(v.saturating_add(n)));
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.0.store(0, Relaxed);
    }
}

/// Per-scheme telemetry: counts the §2 routines and the distributions the
/// experiments report — firing error (§6.2) and per-window expiry batches.
///
/// Attach with [`Observed`](tw_core::Observed) or a
/// `WheelConfig::observer(...)` build. Window-width pairing
/// (`on_tick_begin`/`on_tick_end`) assumes the wheel itself is driven from
/// one thread at a time, which every scheme already requires (`&mut self`);
/// the *recording* side is still safe to share.
#[derive(Debug, Default)]
pub struct SchemeTelemetry {
    /// Successful `START_TIMER` calls.
    pub starts: Counter,
    /// Successful `STOP_TIMER` calls.
    pub stops: Counter,
    /// Successful `UPDATE` (restart) calls. Restarts are counted on their
    /// own — never as a stop plus a start — so a transport's ACK-driven
    /// re-arm traffic is distinguishable from genuine timer churn.
    pub restarts: Counter,
    /// Timers delivered to `EXPIRY_PROCESSING`.
    pub fires: Counter,
    /// Tick windows closed (one per `tick` call or batched sweep).
    pub windows: Counter,
    /// Clock ticks covered by closed windows; equals the scheme's tick
    /// count because window widths partition the clock's travel.
    pub ticks: Counter,
    /// Absolute firing error `|fired_at - deadline|` in ticks. All-zero for
    /// the exact schemes; bounded by the worst level granularity for the
    /// reduced-precision §6.2 variants.
    pub firing_error: LogHistogram,
    /// Timers fired per closed window.
    pub window_fired: LogHistogram,
    window_open: AtomicU64,
}

impl SchemeTelemetry {
    /// Empty telemetry, ready to attach to a scheme.
    pub const fn new() -> SchemeTelemetry {
        SchemeTelemetry {
            starts: Counter::new(),
            stops: Counter::new(),
            restarts: Counter::new(),
            fires: Counter::new(),
            windows: Counter::new(),
            ticks: Counter::new(),
            firing_error: LogHistogram::new(),
            window_fired: LogHistogram::new(),
            window_open: AtomicU64::new(0),
        }
    }

    /// Errs with [`TimerError::Saturated`] if any histogram accumulator has
    /// pinned at its ceiling (totals are then lower bounds).
    pub fn check_saturation(&self) -> Result<(), TimerError> {
        self.firing_error.check_saturation()?;
        self.window_fired.check_saturation()
    }

    /// Resets every counter and histogram.
    pub fn reset(&self) {
        self.starts.reset();
        self.stops.reset();
        self.restarts.reset();
        self.fires.reset();
        self.windows.reset();
        self.ticks.reset();
        self.firing_error.reset();
        self.window_fired.reset();
        self.window_open.store(0, Relaxed);
    }

    /// Summarizes current contents for export.
    #[cfg(feature = "std")]
    pub fn snapshot(&self) -> Snapshot {
        let mut s = Snapshot::new("scheme");
        s.counter("starts", self.starts.get());
        s.counter("stops", self.stops.get());
        s.counter("restarts", self.restarts.get());
        s.counter("fires", self.fires.get());
        s.counter("windows", self.windows.get());
        s.counter("ticks", self.ticks.get());
        s.histogram("firing_error", self.firing_error.snapshot());
        s.histogram("window_fired", self.window_fired.snapshot());
        s
    }
}

impl Observer for SchemeTelemetry {
    fn on_start(&self, _now: Tick, _interval: TickDelta) {
        self.starts.incr();
    }

    fn on_stop(&self, _now: Tick) {
        self.stops.incr();
    }

    fn on_restart(&self, _now: Tick, _interval: TickDelta) {
        self.restarts.incr();
    }

    fn on_fires(&self, error: TickDelta, count: usize) {
        self.fires.add(count as u64);
        self.firing_error.record_n(error.as_u64(), count as u64);
    }

    fn on_tick_begin(&self, now: Tick) {
        self.window_open.store(now.as_u64(), Relaxed);
    }

    fn on_tick_end(&self, now: Tick, fired: usize) {
        self.windows.incr();
        self.ticks
            .add(now.as_u64().saturating_sub(self.window_open.load(Relaxed)));
        self.window_fired.record(fired as u64);
    }
}

/// Front-end telemetry: everything [`SchemeTelemetry`] records, plus the
/// shard-lock contention of `tw-concurrent`'s sharded wheel and the
/// deadline→delivery latency of the `tw-async` driver's wakes. The timer
/// service and the driver feed its scheme tallies.
#[derive(Debug, Default)]
pub struct ServiceTelemetry {
    /// The per-scheme tallies, fed by the same five hooks.
    pub scheme: SchemeTelemetry,
    /// Shard lock acquisitions.
    pub locks: Counter,
    /// Acquisitions where the uncontended fast path failed.
    pub contended: Counter,
    /// Recorded by nothing: no front-end has a command queue. Kept,
    /// always empty, for readers of the snapshot's `queue_depth` key.
    pub queue_depth: LogHistogram,
    /// Recorded by nothing: no front-end coalesces commands. Kept, always
    /// empty, for readers of the snapshot's `batch_size` key.
    pub batch_size: LogHistogram,
    /// Deadline→delivery ticks of each wake the `tw-async` driver
    /// delivers: the tick its `advance` moved the clock to, minus the
    /// timer's deadline (see `Observer::on_wake_latency`).
    pub wake_latency: LogHistogram,
}

impl ServiceTelemetry {
    /// Empty telemetry, ready to pass to a service or sharded wheel.
    pub const fn new() -> ServiceTelemetry {
        ServiceTelemetry {
            scheme: SchemeTelemetry::new(),
            locks: Counter::new(),
            contended: Counter::new(),
            queue_depth: LogHistogram::new(),
            batch_size: LogHistogram::new(),
            wake_latency: LogHistogram::new(),
        }
    }

    /// Errs with [`TimerError::Saturated`] if any accumulator has pinned.
    pub fn check_saturation(&self) -> Result<(), TimerError> {
        self.scheme.check_saturation()?;
        self.queue_depth.check_saturation()?;
        self.batch_size.check_saturation()?;
        self.wake_latency.check_saturation()
    }

    /// Resets every counter and histogram.
    pub fn reset(&self) {
        self.scheme.reset();
        self.locks.reset();
        self.contended.reset();
        self.queue_depth.reset();
        self.batch_size.reset();
        self.wake_latency.reset();
    }

    /// Summarizes current contents for export.
    #[cfg(feature = "std")]
    pub fn snapshot(&self) -> Snapshot {
        let mut s = self.scheme.snapshot();
        s.name = "service";
        s.counter("locks", self.locks.get());
        s.counter("contended", self.contended.get());
        s.histogram("queue_depth", self.queue_depth.snapshot());
        s.histogram("batch_size", self.batch_size.snapshot());
        s.histogram("wake_latency", self.wake_latency.snapshot());
        s
    }
}

impl Observer for ServiceTelemetry {
    fn on_start(&self, now: Tick, interval: TickDelta) {
        self.scheme.on_start(now, interval);
    }

    fn on_stop(&self, now: Tick) {
        self.scheme.on_stop(now);
    }

    fn on_restart(&self, now: Tick, interval: TickDelta) {
        self.scheme.on_restart(now, interval);
    }

    fn on_fires(&self, error: TickDelta, count: usize) {
        self.scheme.on_fires(error, count);
    }

    fn on_tick_begin(&self, now: Tick) {
        self.scheme.on_tick_begin(now);
    }

    fn on_tick_end(&self, now: Tick, fired: usize) {
        self.scheme.on_tick_end(now, fired);
    }

    fn on_lock(&self, _shard: usize, contended: bool) {
        self.locks.incr();
        if contended {
            self.contended.incr();
        }
    }

    fn on_wake_latency(&self, elapsed: TickDelta, count: usize) {
        self.wake_latency.record_n(elapsed.as_u64(), count as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_core::wheel::{BasicWheel, WheelConfig};
    use tw_core::{TimerScheme, TimerSchemeExt};

    #[test]
    fn scheme_telemetry_reconciles_with_a_driven_wheel() {
        let tele = SchemeTelemetry::new();
        let mut w = WheelConfig::new()
            .slots(64)
            .observer(&tele)
            .build_basic::<u64>()
            .unwrap();
        let mut handles = Vec::new();
        for j in 1..=20u64 {
            handles.push(w.start_timer(TickDelta(j), j).unwrap());
        }
        let stopped = w.stop_timer(handles[4]).unwrap();
        assert_eq!(stopped, 5);
        w.restart_timer(handles[5], TickDelta(30)).unwrap();
        let fired = w.collect_ticks(64);
        assert_eq!(tele.starts.get(), 20);
        assert_eq!(tele.stops.get(), 1);
        assert_eq!(tele.restarts.get(), 1, "UPDATE is its own counter");
        assert_eq!(tele.fires.get(), fired.len() as u64);
        assert_eq!(tele.fires.get(), 19);
        assert_eq!(tele.windows.get(), 64);
        assert_eq!(tele.ticks.get(), 64);
        // Scheme 4 is exact: the whole error distribution sits at zero.
        assert_eq!(tele.firing_error.max(), 0);
        assert_eq!(tele.firing_error.count(), 19);
        assert!(tele.check_saturation().is_ok());
    }

    #[test]
    fn batched_advance_is_one_wide_window() {
        let tele = SchemeTelemetry::new();
        let wheel: BasicWheel<u64> = BasicWheel::try_from(WheelConfig::new().slots(128)).unwrap();
        let mut w = tw_core::Observed::new(wheel, &tele);
        w.start_timer(TickDelta(100), 1).unwrap();
        let mut n = 0;
        w.advance_to_with(Tick(120), &mut |_| n += 1);
        assert_eq!(n, 1);
        assert_eq!(tele.windows.get(), 1);
        assert_eq!(tele.ticks.get(), 120);
        assert_eq!(tele.window_fired.max(), 1);
    }

    #[test]
    fn service_hooks_fill_the_service_histograms() {
        let tele = ServiceTelemetry::new();
        let obs: &dyn Fn(&ServiceTelemetry) = &|t| {
            t.on_lock(0, false);
            t.on_lock(1, true);
            t.on_wake_latency(TickDelta(17), 2);
        };
        obs(&tele);
        assert_eq!(tele.locks.get(), 2);
        assert_eq!(tele.contended.get(), 1);
        assert_eq!(tele.wake_latency.count(), 2);
        assert_eq!(tele.wake_latency.percentile(100), 31, "bucket [16,32)");
        assert!(tele.check_saturation().is_ok());
        tele.reset();
        assert_eq!(tele.locks.get(), 0);
        assert_eq!(tele.wake_latency.count(), 0);
    }
}
