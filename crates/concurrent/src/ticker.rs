//! The realtime clock both front-ends share: one detached thread that
//! advances a wheel on a fixed wall-clock grid.
//!
//! The ticker keeps its `origin` and the ticks it has `done`. It sleeps
//! until tick `done + 1` is due at `origin + (done + 1)·period`, then
//! catches up with one batched `advance(due − done)`. Tick `k` is thus
//! scheduled at `origin + k·period` whatever the oversleep or the sweep
//! cost, so the clock does not drift: a late wake delivers the ticks it
//! missed in one sweep, and the next deadline stays on the grid.
//!
//! The thread holds only what its `advance` closure captures, which for
//! both front-ends is a weak reference to their wheel. When that closure
//! reports the wheel gone, the thread ends, so it outlives the last
//! handle by at most a period. It is detached on purpose: the last handle
//! may drop on the ticker thread itself, inside a wake, where a join
//! would wait on itself.
//!
//! A zero period has no grid, so [`spawn`] starts no thread and the
//! caller keeps virtual time.

use std::time::{Duration, Instant};

/// The tick grid of a non-zero period: the pure catch-up arithmetic of
/// the ticker, apart from any clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Grid {
    period: Duration,
}

impl Grid {
    /// The grid of `period`, or `None` for a zero period.
    fn new(period: Duration) -> Option<Grid> {
        (!period.is_zero()).then_some(Grid { period })
    }

    /// Ticks due `elapsed` after the origin: the whole periods in it,
    /// saturating at `u64::MAX`.
    fn due(&self, elapsed: Duration) -> u64 {
        u64::try_from(elapsed.as_nanos() / self.period.as_nanos()).unwrap_or(u64::MAX)
    }

    /// Offset of tick `k`'s deadline from the origin, `k·period`; `None`
    /// past the largest [`Duration`].
    fn deadline(&self, k: u64) -> Option<Duration> {
        const NANOS_PER_SEC: u128 = 1_000_000_000;
        let nanos = self.period.as_nanos().checked_mul(u128::from(k))?;
        let secs = u64::try_from(nanos / NANOS_PER_SEC).ok()?;
        let subsec = u32::try_from(nanos % NANOS_PER_SEC).ok()?;
        Some(Duration::new(secs, subsec))
    }
}

/// The ticker's one clock read.
fn now() -> Instant {
    // tw-analyze: allow(TW003, reason = "the realtime ticker exists to map wall time onto ticks; this helper is its only clock read, and a virtual-time front-end never starts the ticker")
    Instant::now()
}

/// Starts a detached ticker on `period`'s grid. Each wake calls
/// `advance(n)` with the `n ≥ 1` ticks that came due since the last one;
/// the thread ends when `advance` returns `false`, or when the grid runs
/// past the largest [`Instant`]. A zero period starts no thread.
pub fn spawn<F>(period: Duration, mut advance: F)
where
    F: FnMut(u64) -> bool + Send + 'static,
{
    let Some(grid) = Grid::new(period) else {
        return;
    };
    std::thread::spawn(move || {
        let origin = now();
        let mut done = 0u64;
        loop {
            let Some(next) = done
                .checked_add(1)
                .and_then(|k| grid.deadline(k))
                .and_then(|offset| origin.checked_add(offset))
            else {
                return;
            };
            std::thread::sleep(next.saturating_duration_since(now()));
            let due = grid.due(now().saturating_duration_since(origin));
            if due > done {
                if !advance(due - done) {
                    return;
                }
                done = due;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_oversleep_catches_up_in_one_advance_and_stays_on_the_grid() {
        let period = Duration::from_micros(100);
        let grid = Grid::new(period).unwrap();
        let mut done = 0;
        // The first wake comes 3.5 periods after the origin.
        let due = grid.due(period * 7 / 2);
        assert_eq!(due - done, 3, "one advance(3)");
        done = due;
        assert_eq!(grid.deadline(done + 1), Some(period * 4), "on the grid");
        // An on-time wake then delivers exactly one tick.
        assert_eq!(grid.due(period * 4) - done, 1);
        assert_eq!(grid.due(period * 4 - Duration::from_nanos(1)), 3);
    }

    #[test]
    fn a_very_large_done_saturates_instead_of_overflowing() {
        let grid = Grid::new(Duration::from_nanos(1)).unwrap();
        assert_eq!(
            grid.deadline(u64::MAX),
            Some(Duration::from_nanos(u64::MAX))
        );
        assert_eq!(grid.due(Duration::MAX), u64::MAX);
        assert_eq!(grid.due(Duration::from_nanos(u64::MAX)), u64::MAX);
        let slow = Grid::new(Duration::from_secs(2)).unwrap();
        assert_eq!(
            slow.deadline(u64::MAX / 2),
            Some(Duration::from_secs(u64::MAX - 1))
        );
        assert_eq!(slow.deadline(u64::MAX / 2 + 1), None, "past Duration::MAX");
        assert_eq!(slow.due(Duration::MAX), u64::MAX / 2);
    }

    #[test]
    fn a_zero_period_has_no_grid_and_starts_no_thread() {
        assert_eq!(Grid::new(Duration::ZERO), None);
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        // The closure owns the only sender: were a thread started, the
        // closure would live on in it and keep the channel connected.
        spawn(Duration::ZERO, move |_| tx.send(()).is_ok());
        assert_eq!(rx.recv(), Err(std::sync::mpsc::RecvError));
    }
}
