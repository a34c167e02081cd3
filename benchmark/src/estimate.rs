//! The slice estimator and the spread measure.
//!
//! A run never reports a single timed section: every wall-clock and CPU
//! metric is computed per slice and the run reports the **median over
//! slices**.  The fastest slice is not used, even for the simulator's
//! identical slices: on the shared host this was built on, the undisturbed
//! state is the rare one, and over windows of 24 slices the fastest slice
//! spread 8.8–13.8 % where the median spread 3.7–4.3 % (README, "Why the
//! median").  [`min`] serves the nanosecond micro-probes, whose batches are
//! too short for that effect to matter.

/// Smallest value; `NaN` for an empty slice.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NAN, f64::min)
}

/// Median by linear interpolation; `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    mra_sim::stats::median(xs)
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (the "exclusive" method: rank `p·(n+1)`), because that is
/// the rule the benchmark's acceptance spread is computed with.  Needs at
/// least two values.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need at least two values");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    let at = |i: usize| {
        // `j` is the 1-based rank's integer part, clamped as Python does.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median, in percent: the
/// run-to-run (or slice-to-slice) spread.  0 for fewer than two values or
/// a zero median.
pub fn spread_pct(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(xs);
    let med = median(xs);
    if med == 0.0 {
        0.0
    } else {
        100.0 * (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_and_median_on_known_vectors() {
        assert_eq!(min(&[3.0, 1.5, 2.0]), 1.5);
        assert!(min(&[]).is_nan());
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // Two values extrapolate, as Python does: [0.75, 1.5, 2.25].
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread_pct(&xs) - 100.0).abs() < 1e-12);
        assert_eq!(spread_pct(&[7.0]), 0.0);
        assert_eq!(spread_pct(&[3.0, 3.0, 3.0]), 0.0);
    }
}
