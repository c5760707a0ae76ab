//! Closed-form predictions quoted in the paper, used as the reference
//! curves in the experiment tables.
//!
//! §3.2 models the timer module as a G/G/∞ queue (Figure 3): every
//! outstanding timer is "in service" simultaneously, so Little's law gives
//! the average number outstanding, and the remaining time of queued timers
//! seen by a new insert follows the residual-life density of the interval
//! distribution. From \[4\] the paper quotes average ordered-list insertion
//! costs (reads + writes, each one unit):
//!
//! * `2 + 2n/3` — negative exponential intervals, search from the front,
//! * `2 + n/2` — uniform intervals, search from the front,
//! * `2 + n/3` — negative exponential intervals, search from the rear.
//!
//! §7 gives the Scheme 6 per-tick cost `4 + 15·n/TableSize`, and §6.2 the
//! per-timer bookkeeping totals `c(6)·T/M` vs. `≤ c(7)·m` used to choose
//! between Schemes 6 and 7.

/// Average ordered-list insert cost for negative-exponential intervals,
/// front search (§3.2): `2 + 2n/3`.
#[must_use]
pub fn scheme2_insert_exp_front(n: f64) -> f64 {
    2.0 + 2.0 * n / 3.0
}

/// Average ordered-list insert cost for uniform intervals, front search
/// (§3.2): `2 + n/2`.
#[must_use]
pub fn scheme2_insert_uniform_front(n: f64) -> f64 {
    2.0 + n / 2.0
}

/// Average ordered-list insert cost for negative-exponential intervals,
/// rear search (§3.2): `2 + n/3`.
#[must_use]
pub fn scheme2_insert_exp_rear(n: f64) -> f64 {
    2.0 + n / 3.0
}

/// Little's law for the G/G/∞ timer queue: average outstanding timers =
/// arrival rate × mean interval.
#[must_use]
pub fn littles_law(rate_per_tick: f64, mean_interval: f64) -> f64 {
    rate_per_tick * mean_interval
}

/// Mean residual life of a renewal interval with the given first and second
/// moments: `E[X²] / (2·E[X])`.
///
/// For the exponential (memoryless) distribution this equals the mean; for
/// the uniform `[0, 2m]` it is `2m/3`.
#[must_use]
pub fn residual_life_mean(mean: f64, second_moment: f64) -> f64 {
    second_moment / (2.0 * mean)
}

/// §7's Scheme 6 average cost per tick in cheap VAX instructions:
/// `4 + 15·n/TableSize` (assuming every outstanding timer expires during one
/// scan of the table).
#[must_use]
pub fn scheme6_vax_per_tick(n: f64, table_size: f64) -> f64 {
    4.0 + 15.0 * n / table_size
}

/// §6.2's total bookkeeping work for one average timer under Scheme 6:
/// `c(6) · T / M` (the timer is touched once per wheel revolution).
#[must_use]
pub fn scheme6_work_per_timer(c6: f64, mean_interval: f64, table_size: f64) -> f64 {
    c6 * mean_interval / table_size
}

/// §6.2's upper bound on the bookkeeping work for one timer under Scheme 7:
/// `c(7) · m` (at most one migration per hierarchy level).
#[must_use]
pub fn scheme7_work_per_timer(c7: f64, levels: f64) -> f64 {
    c7 * levels
}

/// The §6.2 decision rule: `true` when Scheme 7's bound beats Scheme 6's
/// average for the given parameters (large T, small M favours the
/// hierarchy).
#[must_use]
pub fn scheme7_wins(c6: f64, c7: f64, mean_interval: f64, table_size: f64, levels: f64) -> bool {
    scheme7_work_per_timer(c7, levels) < scheme6_work_per_timer(c6, mean_interval, table_size)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_cost_formulas() {
        assert_eq!(scheme2_insert_exp_front(0.0), 2.0);
        assert_eq!(scheme2_insert_exp_front(300.0), 202.0);
        assert_eq!(scheme2_insert_uniform_front(100.0), 52.0);
        assert_eq!(scheme2_insert_exp_rear(300.0), 102.0);
        // §3.2: rear search is half the front-search cost asymptotically.
        let n = 1e6;
        let ratio = (scheme2_insert_exp_front(n) - 2.0) / (scheme2_insert_exp_rear(n) - 2.0);
        assert!((ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn littles_law_example() {
        // §1's example: 200 connections × 3 timers outstanding needs e.g.
        // rate 600/T with mean interval T.
        assert_eq!(littles_law(0.6, 1000.0), 600.0);
    }

    #[test]
    fn residual_life_known_cases() {
        // Exponential(mean m): E[X²] = 2m² → residual = m (memoryless).
        let m = 7.0;
        assert!((residual_life_mean(m, 2.0 * m * m) - m).abs() < 1e-12);
        // Uniform[0, 2m]: E[X²] = (2m)²/3 → residual = 2m/3.
        let second = (2.0 * m) * (2.0 * m) / 3.0;
        assert!((residual_life_mean(m, second) - 2.0 * m / 3.0).abs() < 1e-12);
    }

    #[test]
    fn scheme6_per_tick_formula() {
        // §7: "the average cost per tick is 4 + 15·n/TableSize"; with a
        // table much larger than n it approaches 4 instructions.
        assert_eq!(scheme6_vax_per_tick(256.0, 256.0), 19.0);
        assert!((scheme6_vax_per_tick(1.0, 65536.0) - 4.0).abs() < 0.001);
    }

    #[test]
    fn crossover_moves_with_t_and_m() {
        // §6.2: "for small values of T and large values of M, Scheme 6 can
        // be better… for large values of T and small values of M, Scheme 7
        // will have a better average cost."
        let (c6, c7, m_levels) = (6.0, 13.0, 4.0);
        assert!(!scheme7_wins(c6, c7, 100.0, 4096.0, m_levels)); // small T, big M
        assert!(scheme7_wins(c6, c7, 1_000_000.0, 256.0, m_levels)); // big T, small M
    }
}
