//! Timer-operation traces: deterministic workloads that any
//! [`TimerScheme`] can replay.
//!
//! A trace is a flat op sequence (start / stop / tick) produced from an
//! [`ArrivalProcess`], an [`IntervalDist`], and a *stop model*: with
//! probability `stop_prob` a started timer is cancelled after a uniform
//! fraction of its interval has elapsed — the §1 observation that
//! retransmission-style timers are "almost always" stopped before expiry
//! while failure-detection timers "rarely expire" corresponds to
//! `stop_prob` near 1 and near 0 respectively.
//!
//! Replaying the same trace against different schemes is how every
//! comparative table in `tw-bench` is produced: identical inputs, differing
//! only in the data structure under test.

use std::collections::BTreeMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tw_core::{TickDelta, TimerHandle, TimerScheme};
use tw_obs::LogHistogram;

use crate::arrivals::{ArrivalProcess, Arrivals};
use crate::dist::IntervalDist;
use crate::stats::OnlineStats;

/// One operation in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// Start timer `id` with the given interval.
    Start {
        /// Trace-unique timer id.
        id: u64,
        /// Interval in ticks.
        interval: TickDelta,
    },
    /// Stop timer `id` (guaranteed still outstanding at this point).
    Stop {
        /// Id of a previously started, unexpired, unstopped timer.
        id: u64,
    },
    /// Advance the clock one tick.
    Tick,
}

/// A generated workload.
///
/// # Examples
///
/// ```
/// use tw_core::OracleScheme;
/// use tw_workload::{replay, ArrivalProcess, IntervalDist, Trace, TraceConfig};
///
/// let trace = Trace::generate(&TraceConfig {
///     arrivals: ArrivalProcess::Poisson { rate: 0.5 },
///     intervals: IntervalDist::Exponential { mean: 50.0 },
///     stop_prob: 0.3,
///     horizon: 1_000,
///     seed: 7,
/// });
/// let mut scheme: OracleScheme<u64> = OracleScheme::new();
/// let report = replay(&mut scheme, &trace, false);
/// assert_eq!(report.counters.starts, trace.starts);
/// ```
#[derive(Debug, Clone)]
pub struct Trace {
    /// The operation sequence.
    pub ops: Vec<TraceOp>,
    /// Number of `Start` ops.
    pub starts: u64,
    /// Number of `Stop` ops.
    pub stops: u64,
    /// Number of `Tick` ops.
    pub ticks: u64,
}

/// Parameters for [`Trace::generate`].
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// When `START_TIMER` calls arrive.
    pub arrivals: ArrivalProcess,
    /// Interval distribution of started timers.
    pub intervals: IntervalDist,
    /// Probability a timer is stopped before it expires.
    pub stop_prob: f64,
    /// Length of the generated timeline in ticks.
    pub horizon: u64,
    /// RNG seed: identical configs produce identical traces.
    pub seed: u64,
}

impl Trace {
    /// Generates a deterministic trace from the configuration.
    ///
    /// # Panics
    ///
    /// Panics if `stop_prob` is outside `[0, 1]` or `horizon` is zero.
    #[must_use]
    pub fn generate(cfg: &TraceConfig) -> Trace {
        assert!((0.0..=1.0).contains(&cfg.stop_prob), "stop_prob range");
        assert!(cfg.horizon > 0, "horizon must be positive");
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut arrivals = Arrivals::new(cfg.arrivals.clone());

        // Pre-plan start times and stop times on the discrete timeline.
        let mut starts_at: BTreeMap<u64, Vec<(u64, TickDelta)>> = BTreeMap::new();
        let mut stops_at: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        let mut t = 0u64;
        let mut id = 0u64;
        loop {
            t += arrivals.next_gap(&mut rng);
            if t >= cfg.horizon {
                break;
            }
            let interval = cfg.intervals.sample(&mut rng);
            starts_at.entry(t).or_default().push((id, interval));
            if rng.gen_bool(cfg.stop_prob) {
                // Stop after a uniform fraction of the interval, but always
                // strictly before the expiry tick.
                let j = interval.as_u64();
                let offset = if j <= 1 { 0 } else { rng.gen_range(0..j) };
                let stop_t = t + offset.min(j - 1);
                if stop_t < cfg.horizon {
                    stops_at.entry(stop_t).or_default().push(id);
                } else {
                    // The stop would land beyond the horizon; leave the
                    // timer running (it may or may not expire in-trace).
                }
            }
            id += 1;
        }

        let mut ops = Vec::new();
        let (mut starts, mut stops, mut ticks) = (0u64, 0u64, 0u64);
        for now in 0..cfg.horizon {
            if now > 0 {
                ops.push(TraceOp::Tick);
                ticks += 1;
            }
            if let Some(batch) = starts_at.remove(&now) {
                for (id, interval) in batch {
                    ops.push(TraceOp::Start { id, interval });
                    starts += 1;
                }
            }
            if let Some(batch) = stops_at.remove(&now) {
                for id in batch {
                    ops.push(TraceOp::Stop { id });
                    stops += 1;
                }
            }
        }
        Trace {
            ops,
            starts,
            stops,
            ticks,
        }
    }
}

/// Measurements from replaying a trace against one scheme.
#[derive(Debug)]
pub struct ReplayReport {
    /// Scheme name (from [`TimerScheme::name`]).
    pub scheme: &'static str,
    /// Counter deltas accumulated over the replay.
    pub counters: tw_core::OpCounters,
    /// Timers that reached expiry.
    pub expiries: u64,
    /// Firing-error statistics in ticks (all zeros for exact schemes).
    pub error: OnlineStats,
    /// Peak number of simultaneously outstanding timers.
    pub peak_outstanding: usize,
    /// Wall-clock nanoseconds per `start_timer` call (empty unless timed).
    pub start_ns: OnlineStats,
    /// Wall-clock nanoseconds per `stop_timer` call (empty unless timed).
    pub stop_ns: OnlineStats,
    /// Wall-clock nanoseconds per `tick` call (empty unless timed).
    pub tick_ns: OnlineStats,
    /// Histogram of per-tick expiry batch sizes.
    pub batch_sizes: LogHistogram,
}

/// Replays `trace` against `scheme`.
///
/// With `timed = true`, each operation is individually wall-clocked (adds
/// `Instant::now` overhead); with `false` only the scheme's own counters are
/// collected, which is fully deterministic.
///
/// # Panics
///
/// Panics if the trace is internally inconsistent with the scheme (e.g. a
/// `Stop` for a timer the scheme already expired — cannot happen for exact
/// schemes on a well-formed trace; reduced-precision schemes may fire early,
/// in which case such stops are skipped, not errors).
pub fn replay<S: TimerScheme<u64> + ?Sized>(
    scheme: &mut S,
    trace: &Trace,
    timed: bool,
) -> ReplayReport {
    use std::collections::HashMap;
    use std::time::Instant;

    let before = *scheme.counters();
    let mut handles: HashMap<u64, TimerHandle> = HashMap::new();
    let mut report = ReplayReport {
        scheme: scheme.name(),
        counters: tw_core::OpCounters::new(),
        expiries: 0,
        error: OnlineStats::new(),
        peak_outstanding: 0,
        start_ns: OnlineStats::new(),
        stop_ns: OnlineStats::new(),
        tick_ns: OnlineStats::new(),
        batch_sizes: LogHistogram::new(),
    };

    for op in &trace.ops {
        match *op {
            TraceOp::Start { id, interval } => {
                // tw-analyze: allow(TW003, reason = "run_trace measures per-op wall-clock latency when timed is set; the measurement harness is the one place wall time is the datum, and untimed runs never call it")
                let t0 = timed.then(Instant::now);
                let handle = scheme
                    .start_timer(interval, id)
                    .expect("trace interval out of scheme range");
                if let Some(t0) = t0 {
                    report.start_ns.push(t0.elapsed().as_nanos() as f64);
                }
                handles.insert(id, handle);
            }
            TraceOp::Stop { id } => {
                let handle = handles.remove(&id).expect("trace stops unknown id");
                // tw-analyze: allow(TW003, reason = "run_trace measures per-op wall-clock latency when timed is set; the measurement harness is the one place wall time is the datum, and untimed runs never call it")
                let t0 = timed.then(Instant::now);
                // Reduced-precision schemes may have fired this timer early;
                // a stale stop is then expected, not a trace error.
                let _ = scheme.stop_timer(handle);
                if let Some(t0) = t0 {
                    report.stop_ns.push(t0.elapsed().as_nanos() as f64);
                }
            }
            TraceOp::Tick => {
                let mut batch = 0u64;
                // tw-analyze: allow(TW003, reason = "run_trace measures per-op wall-clock latency when timed is set; the measurement harness is the one place wall time is the datum, and untimed runs never call it")
                let t0 = timed.then(Instant::now);
                scheme.tick(&mut |e| {
                    batch += 1;
                    report.expiries += 1;
                    report.error.push(e.error() as f64);
                    handles.remove(&e.payload);
                });
                if let Some(t0) = t0 {
                    report.tick_ns.push(t0.elapsed().as_nanos() as f64);
                }
                report.batch_sizes.record(batch);
            }
        }
        report.peak_outstanding = report.peak_outstanding.max(scheme.outstanding());
    }
    report.counters = scheme.counters().delta_since(&before);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_core::wheel::HashedWheelUnsorted;
    use tw_core::OracleScheme;

    fn cfg(stop_prob: f64, seed: u64) -> TraceConfig {
        TraceConfig {
            arrivals: ArrivalProcess::Poisson { rate: 0.5 },
            intervals: IntervalDist::Uniform { lo: 1, hi: 100 },
            stop_prob,
            horizon: 2_000,
            seed,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Trace::generate(&cfg(0.5, 9));
        let b = Trace::generate(&cfg(0.5, 9));
        assert_eq!(a.ops, b.ops);
        let c = Trace::generate(&cfg(0.5, 10));
        assert_ne!(a.ops, c.ops, "different seeds should differ");
    }

    #[test]
    fn op_counts_are_consistent() {
        let t = Trace::generate(&cfg(0.7, 1));
        assert_eq!(t.ticks, 1999);
        assert!(t.starts > 500, "poisson 0.5/tick over 2000 ticks");
        assert!(t.stops > 0 && t.stops <= t.starts);
        let start_ops = t
            .ops
            .iter()
            .filter(|o| matches!(o, TraceOp::Start { .. }))
            .count() as u64;
        assert_eq!(start_ops, t.starts);
    }

    #[test]
    fn stops_always_precede_expiry() {
        // Replay on the oracle: every Stop must find a live timer.
        let t = Trace::generate(&cfg(1.0, 33));
        let mut oracle: OracleScheme<u64> = OracleScheme::new();
        let report = replay(&mut oracle, &t, false);
        // With stop_prob = 1, within-horizon stops leave almost nothing to
        // expire; anything that does expire had its stop beyond the horizon.
        assert_eq!(report.counters.starts, t.starts);
        assert!(report.expiries < t.starts / 10);
    }

    #[test]
    fn replay_same_trace_two_schemes_same_expiries() {
        let t = Trace::generate(&cfg(0.4, 5));
        let mut oracle: OracleScheme<u64> = OracleScheme::new();
        let mut wheel: HashedWheelUnsorted<u64> = HashedWheelUnsorted::new(64);
        let a = replay(&mut oracle, &t, false);
        let b = replay(&mut wheel, &t, false);
        assert_eq!(a.expiries, b.expiries);
        assert_eq!(a.peak_outstanding, b.peak_outstanding);
        assert_eq!(b.error.max(), a.error.max(), "exact schemes: zero error");
    }

    #[test]
    fn timed_replay_collects_latencies() {
        let t = Trace::generate(&cfg(0.2, 2));
        let mut wheel: HashedWheelUnsorted<u64> = HashedWheelUnsorted::new(64);
        let r = replay(&mut wheel, &t, true);
        assert_eq!(r.start_ns.count(), t.starts);
        assert_eq!(r.tick_ns.count(), t.ticks);
        assert!(r.start_ns.mean() > 0.0);
    }

    #[test]
    fn batch_size_histogram_populated() {
        let t = Trace::generate(&cfg(0.0, 8));
        let mut oracle: OracleScheme<u64> = OracleScheme::new();
        let r = replay(&mut oracle, &t, false);
        assert_eq!(r.batch_sizes.count(), t.ticks);
        assert_eq!(r.batch_sizes.percentile(0), 0, "some ticks expire nothing");
        assert!(r.expiries > 0);
    }
}
