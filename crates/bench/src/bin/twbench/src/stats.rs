//! Exact order statistics over raw samples.

/// The `p`-th percentile (0 < p ≤ 100) of `sorted` by nearest rank: the
/// smallest sample with at least `p`% of the samples at or below it.
/// `None` for no samples.
pub fn percentile(sorted: &[u64], p: usize) -> Option<u64> {
    let rank = (p * sorted.len()).div_ceil(100).max(1);
    sorted.get(rank - 1).copied()
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles, as Python's `statistics.quantiles(values,
/// n=4)` computes them (the default, exclusive method). A single value is
/// its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Negative when the clamp moved `j` up: Python extrapolates too.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&s, 50), Some(500));
        assert_eq!(percentile(&s, 99), Some(990));
        assert_eq!(percentile(&s, 100), Some(1000));
        assert_eq!(percentile(&[7], 99), Some(7));
        assert_eq!(percentile(&[], 50), None);
        // 1001 samples: rank ceil(0.99 * 1001) = 991.
        let s: Vec<u64> = (0..=1000).collect();
        assert_eq!(percentile(&s, 99), Some(990));
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        let v = [3.0, 1.0, 4.0, 1.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quartiles(&v), (1.0, 4.5));
        // statistics.quantiles([2, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[4.0, 2.0]), (1.5, 4.5));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }
}
