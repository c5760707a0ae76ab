//! Preallocated log₂-bucketed histograms.
//!
//! The record path is wait-free and **allocation-free** — a handful of
//! relaxed atomic read-modify-writes into a fixed 65-bucket array — so an
//! observer can record from inside `PER_TICK_BOOKKEEPING` without violating
//! the TW004/TW008 allocation bans. Log₂ bucketing trades value resolution
//! (quantiles are reported as bucket upper bounds, ≤ 2× the true value) for
//! a footprint and cost independent of the recorded range, which is the
//! right trade for tick-latency and firing-error distributions spanning
//! nine decades.

use core::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

use tw_core::TimerError;

/// Number of buckets: one for zero plus one per bit position of `u64`.
pub const BUCKETS: usize = 65;

/// A concurrent histogram over `u64` samples with logarithmic buckets.
///
/// Bucket 0 holds exact zeros; bucket `i ≥ 1` holds samples in
/// `[2^(i-1), 2^i)`. All mutation is through `&self` with relaxed atomics:
/// cross-field reads (e.g. a snapshot taken mid-record) may be off by the
/// in-flight sample, never torn.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    saturated: AtomicBool,
}

impl Default for LogHistogram {
    fn default() -> LogHistogram {
        LogHistogram::new()
    }
}

/// Summary of a [`LogHistogram`] at one instant: counts plus the quantiles
/// the experiment tables report. Plain data, `Copy`, available without
/// `std`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Saturating sum of all samples.
    pub sum: u64,
    /// Largest sample recorded.
    pub max: u64,
    /// Median, as the upper bound of its log₂ bucket.
    pub p50: u64,
    /// 90th percentile (bucket upper bound).
    pub p90: u64,
    /// 99th percentile (bucket upper bound).
    pub p99: u64,
}

impl LogHistogram {
    /// An empty histogram. `const`, so telemetry structs embed histograms
    /// with no runtime initialization.
    pub const fn new() -> LogHistogram {
        // A `const` item is deliberately used as an array-repeat initializer:
        // each element gets a fresh atomic, which is exactly the point.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        LogHistogram {
            buckets: [ZERO; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            saturated: AtomicBool::new(false),
        }
    }

    /// The bucket a sample lands in: 0 for 0, else `64 - leading_zeros`.
    #[inline]
    fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            BUCKETS - 1 - (value.leading_zeros() as usize)
        }
    }

    /// The largest value a bucket can hold — what quantiles report.
    #[inline]
    fn bucket_upper_bound(index: usize) -> u64 {
        match index {
            0 => 0,
            64 => u64::MAX,
            i => (1u64 << i) - 1,
        }
    }

    /// Records one sample: [`record_n`](Self::record_n) with `n = 1`.
    pub fn record(&self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` samples of `value`, leaving exactly the state `n` calls
    /// of [`record`](Self::record) would, saturation included. Wait-free
    /// except for the saturating sum (a CAS loop that retries only under
    /// write contention); never allocates.
    ///
    /// The common cases skip RMWs that would change nothing: a `value` no
    /// larger than the current max skips the max update (a CAS loop on
    /// x86), and a zero `value` skips the sum.
    pub fn record_n(&self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::bucket_index(value)].fetch_add(n, Relaxed);
        self.count.fetch_add(n, Relaxed);
        if value > self.max.load(Relaxed) {
            self.max.fetch_max(value, Relaxed);
        }
        if value == 0 {
            return;
        }
        let total = value.checked_mul(n);
        let _ = self.sum.fetch_update(Relaxed, Relaxed, |sum| {
            Some(total.and_then(|t| sum.checked_add(t)).unwrap_or_else(|| {
                // Pin at the ceiling rather than wrapping: the snapshot
                // stays a lower bound and the saturation flag reports it.
                self.saturated.store(true, Relaxed);
                u64::MAX
            }))
        });
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Largest sample recorded, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max.load(Relaxed)
    }

    /// Saturating sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }

    /// Mean sample, or 0.0 when empty. Exact in the numerator (the sum is
    /// kept outside the buckets), so unaffected by bucket granularity.
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() as f64 / count as f64
        }
    }

    /// The `p`-th percentile (0–100), reported as the upper bound of the
    /// log₂ bucket containing that rank — an overestimate by at most 2×.
    /// Returns 0 for an empty histogram.
    pub fn percentile(&self, p: u8) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        // Ceiling rank in 1..=count; u128 keeps count * p from overflowing.
        let rank = (u128::from(count) * u128::from(p.min(100))).div_ceil(100);
        let rank = u64::try_from(rank).unwrap_or(count).max(1);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(bucket.load(Relaxed));
            if seen >= rank {
                return Self::bucket_upper_bound(i);
            }
        }
        self.max()
    }

    /// Errs with [`TimerError::Saturated`] once any accumulator has been
    /// pinned at its ceiling, meaning totals are now lower bounds.
    pub fn check_saturation(&self) -> Result<(), TimerError> {
        if self.saturated.load(Relaxed) {
            Err(TimerError::Saturated)
        } else {
            Ok(())
        }
    }

    /// Summarizes the current contents.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
            p50: self.percentile(50),
            p90: self.percentile(90),
            p99: self.percentile(99),
        }
    }

    /// Resets every accumulator to empty.
    pub fn reset(&self) {
        for bucket in &self.buckets {
            bucket.store(0, Relaxed);
        }
        self.count.store(0, Relaxed);
        self.sum.store(0, Relaxed);
        self.max.store(0, Relaxed);
        self.saturated.store(false, Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_split_on_powers_of_two() {
        assert_eq!(LogHistogram::bucket_index(0), 0);
        assert_eq!(LogHistogram::bucket_index(1), 1);
        assert_eq!(LogHistogram::bucket_index(2), 2);
        assert_eq!(LogHistogram::bucket_index(3), 2);
        assert_eq!(LogHistogram::bucket_index(4), 3);
        assert_eq!(LogHistogram::bucket_index(u64::MAX), 64);
        for i in 1..BUCKETS - 1 {
            // Every bucket's upper bound maps back into that bucket.
            assert_eq!(
                LogHistogram::bucket_index(LogHistogram::bucket_upper_bound(i)),
                i
            );
        }
    }

    #[test]
    fn percentiles_bound_the_true_quantile_within_2x() {
        let h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max(), 1000);
        // True p50 = 500, bucket [256, 512) reports 511.
        assert_eq!(h.percentile(50), 511);
        // True p99 = 990, bucket [512, 1024) reports 1023.
        assert_eq!(h.percentile(99), 1023);
        assert_eq!(h.percentile(100), 1023);
        let m = h.mean();
        assert!((m - 500.5).abs() < 1e-9, "exact mean, got {m}");
    }

    #[test]
    fn zero_samples_have_their_own_bucket() {
        let h = LogHistogram::new();
        for _ in 0..10 {
            h.record(0);
        }
        h.record(1);
        assert_eq!(h.percentile(50), 0);
        assert_eq!(h.percentile(99), 1);
        assert_eq!(h.max(), 1);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LogHistogram::new();
        let s = h.snapshot();
        assert_eq!(s, HistogramSnapshot::default());
        assert!(h.check_saturation().is_ok());
    }

    #[test]
    fn sum_saturates_and_reports_instead_of_wrapping() {
        let h = LogHistogram::new();
        h.record(u64::MAX - 1);
        assert!(h.check_saturation().is_ok());
        h.record(u64::MAX - 1);
        assert_eq!(h.sum(), u64::MAX, "pinned at the ceiling");
        assert_eq!(h.check_saturation(), Err(TimerError::Saturated));
        h.reset();
        assert!(h.check_saturation().is_ok());
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn record_n_matches_n_single_records() {
        let cases: [&[(u64, u64)]; 4] = [
            &[(0, 5), (3, 4), (1000, 2), (0, 1)],
            &[(7, 0), (2, 3)],
            // Saturates part-way through a run, then keeps counting.
            &[(u64::MAX / 3, 2), (u64::MAX / 3, 3), (1, 2)],
            // The run's total alone overflows.
            &[(u64::MAX - 1, 2), (0, 4)],
        ];
        for runs in cases {
            let batched = LogHistogram::new();
            let single = LogHistogram::new();
            for &(v, n) in runs {
                batched.record_n(v, n);
                for _ in 0..n {
                    single.record(v);
                }
            }
            assert_eq!(batched.snapshot(), single.snapshot(), "{runs:?}");
            assert_eq!(batched.check_saturation(), single.check_saturation());
            for v in [0, 1, 3, 4, 1000, u64::MAX - 1] {
                let i = LogHistogram::bucket_index(v);
                assert_eq!(
                    batched.buckets[i].load(Relaxed),
                    single.buckets[i].load(Relaxed),
                    "bucket {i} of {runs:?}"
                );
            }
        }
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        use std::sync::Arc;
        let h = Arc::new(LogHistogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 10_000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 40_000);
        assert_eq!(h.max(), 39_999);
    }
}
