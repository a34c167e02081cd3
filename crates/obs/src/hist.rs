//! Log2-bucketed histogram: fixed-size, mergeable, allocation-free.
//!
//! Where `WaitStats::from_ms` keeps the full sample vector and computes
//! exact percentiles, [`LogHist`] keeps 64 counters — one per power of
//! two — and answers quantiles with at most one bucket (~2×) of relative
//! error.  That trade is what lets the serving layer's latency metrics
//! (`mra-serve::ServeStats`, its one production owner) survive millions
//! of requests and merge across a fleet: recording is two array ops,
//! merging is 64 additions, and the struct never allocates.

/// Number of buckets: bucket `b` (b ≥ 1) holds values in `[2^(b-1), 2^b)`,
/// bucket 0 holds exactly 0.  64 buckets cover the full `u64` range.
pub const BUCKETS: usize = 64;

/// A log2-bucketed histogram over `u64` samples (nanoseconds, bytes,
/// queue depths — unit-agnostic).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogHist {
    counts: [u64; BUCKETS],
    total: u64,
    sum: u128,
    max: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist { counts: [0; BUCKETS], total: 0, sum: 0, max: 0 }
    }
}

impl LogHist {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn bucket(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            (64 - v.leading_zeros() as usize).min(BUCKETS - 1)
        }
    }

    /// Record one sample.  O(1), allocation-free.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.total += 1;
        self.sum += v as u128;
        if v > self.max {
            self.max = v;
        }
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of all recorded samples; `NaN` when empty (same contract as
    /// `stats::mean`).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            f64::NAN
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Approximate `q`-th percentile (`q` in 0..=100).
    ///
    /// Finds the bucket holding the rank-`⌈q/100·total⌉` sample and
    /// interpolates linearly inside its `[2^(b-1), 2^b)` span, clamped to
    /// the observed maximum.  Relative error is bounded by one bucket
    /// width (a factor of 2); in exchange the state is 64 counters
    /// instead of the full sample vector.
    ///
    /// Returns `NaN` for an empty histogram — the same contract as
    /// `stats::percentile`, and rendered as `n/a` by `WaitStats::cell`.
    /// Callers must use `is_nan()`, not `== NAN`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let rank = ((q / 100.0) * self.total as f64).ceil().clamp(1.0, self.total as f64) as u64;
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen >= rank {
                if b == 0 {
                    return 0.0;
                }
                let lo = 1u64 << (b - 1);
                let hi = if b >= 63 { u64::MAX } else { (1u64 << b) - 1 };
                // Interpolate by the sample's position within this bucket.
                let into = (rank - (seen - c)) as f64 / c as f64;
                let est = lo as f64 + into * (hi - lo) as f64;
                return est.min(self.max as f64);
            }
        }
        self.max as f64
    }

    pub fn p50(&self) -> f64 {
        self.quantile(50.0)
    }

    pub fn p99(&self) -> f64 {
        self.quantile(99.0)
    }

    pub fn p999(&self) -> f64 {
        self.quantile(99.9)
    }

    /// Fold `other` into `self`.  Merging per-node histograms is exact:
    /// bucket counts add, so the merged quantiles equal what a single
    /// histogram over the union would report.
    pub fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_nan() {
        let h = LogHist::new();
        assert!(h.quantile(50.0).is_nan());
        assert!(h.mean().is_nan());
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn zero_and_small_values() {
        let mut h = LogHist::new();
        h.record(0);
        h.record(0);
        assert_eq!(h.quantile(50.0), 0.0);
        h.record(1);
        assert_eq!(h.max(), 1);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn quantile_within_bucket_error() {
        let mut h = LogHist::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        // Exact p50 = 500; a log2 histogram must land within its bucket
        // [256, 512) after interpolation+clamp — assert a 2x error bound.
        let p50 = h.p50();
        assert!((250.0..=1000.0).contains(&p50), "p50={p50}");
        // p999 of 1..=1000 is 1000 exactly; clamped to max.
        assert!(h.p999() <= 1000.0);
        assert!(h.p999() >= 500.0);
        // Mean is exact regardless of bucketing.
        assert!((h.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn quantiles_monotone_in_q() {
        let mut h = LogHist::new();
        let mut x = 1u64;
        for _ in 0..200 {
            h.record(x % 100_000);
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        let mut prev = f64::NEG_INFINITY;
        for q in [0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let v = h.quantile(q);
            assert!(v >= prev, "quantile not monotone at q={q}: {v} < {prev}");
            prev = v;
        }
        assert!(h.quantile(100.0) <= h.max() as f64);
    }

    #[test]
    fn merge_equals_union() {
        let mut a = LogHist::new();
        let mut b = LogHist::new();
        let mut u = LogHist::new();
        for v in [0u64, 1, 5, 17, 1000, 65_536, 3] {
            if v % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            u.record(v);
        }
        a.merge(&b);
        assert_eq!(a, u);
    }

    #[test]
    fn huge_values_do_not_overflow_buckets() {
        let mut h = LogHist::new();
        h.record(u64::MAX);
        h.record(u64::MAX / 2);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        assert!(h.quantile(100.0) > 0.0);
    }
}
