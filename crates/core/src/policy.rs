//! The scheduling function `A` and the total order `/` over requests.
//!
//! The paper (§3.3.2) identifies each request with a vector of counter
//! values (one per required resource, zero elsewhere) and orders requests by
//! `req_i / req_j  ⇔  A(v_i) < A(v_j) ∨ (A(v_i) = A(v_j) ∧ s_i ≺ s_j)`.
//! `A : ℕ^M → ℝ` is a *parameter of the algorithm*: it defines the
//! scheduling policy, and liveness requires that every pending request
//! eventually has the smallest value (hypothesis 6 of the proof annex).
//!
//! The paper's evaluation uses the **average of the non-null values**; since
//! counters only grow, the minimum of `A` over new requests grows without
//! bound, so no request can be overtaken forever.  The alternative policies
//! here share that property (they are monotone in the counter values) and
//! are used by the ablation benchmarks.

use mra_types::NodeId;

/// The reduction `A` applied to a request's counter vector.
///
/// All variants ignore zero entries (zero means "resource not required";
/// real counter values start at 1).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SchedulingPolicy {
    /// Average of non-null counter values — the paper's choice.
    #[default]
    AvgNonZero,
    /// Maximum of non-null counter values: prioritizes requests whose most
    /// contended resource was reserved earliest.
    MaxNonZero,
    /// Sum of non-null counter values: biases towards small requests.
    SumNonZero,
    /// Minimum of non-null counter values: a request is as old as its
    /// earliest reservation.
    MinNonZero,
}

impl SchedulingPolicy {
    /// Apply `A` to a counter vector.  `A(0⃗) = 0` by convention (only
    /// reachable under the single-resource optimization, where the mark is
    /// computed by the token holder instead).
    pub fn mark(&self, vector: &[u64]) -> f64 {
        self.mark_sparse(vector.iter().copied())
    }

    /// Apply `A` to the counter values of a sparse vector: `vals` yields
    /// the stored entries (zeros may be omitted — they are ignored either
    /// way).  Equivalent to [`SchedulingPolicy::mark`] on the dense form.
    pub fn mark_sparse(&self, vals: impl Iterator<Item = u64>) -> f64 {
        let nz = vals.filter(|&v| v != 0);
        match self {
            SchedulingPolicy::AvgNonZero => {
                let (sum, count) = nz.fold((0u64, 0u64), |(s, c), v| (s + v, c + 1));
                if count == 0 {
                    0.0
                } else {
                    sum as f64 / count as f64
                }
            }
            SchedulingPolicy::MaxNonZero => nz.max().unwrap_or(0) as f64,
            SchedulingPolicy::SumNonZero => nz.sum::<u64>() as f64,
            SchedulingPolicy::MinNonZero => nz.min().unwrap_or(0) as f64,
        }
    }

    /// `A` of a vector with a single non-null entry `v` — used by the token
    /// holder for the single-resource request optimization (§4.6.1).
    pub fn mark_single(&self, v: u64) -> f64 {
        self.mark(&[v])
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulingPolicy::AvgNonZero => "avg",
            SchedulingPolicy::MaxNonZero => "max",
            SchedulingPolicy::SumNonZero => "sum",
            SchedulingPolicy::MinNonZero => "min",
        }
    }

    /// All policies, for ablation sweeps.
    pub fn all() -> [SchedulingPolicy; 4] {
        [
            SchedulingPolicy::AvgNonZero,
            SchedulingPolicy::MaxNonZero,
            SchedulingPolicy::SumNonZero,
            SchedulingPolicy::MinNonZero,
        ]
    }
}

/// The strict total order `/` over requests (definition 1 of the proof
/// annex): smaller mark first, site id breaking ties.
///
/// Returns true iff `(mark_a, a)` strictly precedes `(mark_b, b)`.
#[inline]
pub fn precedes(mark_a: f64, a: NodeId, mark_b: f64, b: NodeId) -> bool {
    match mark_a.total_cmp(&mark_b) {
        std::cmp::Ordering::Less => true,
        std::cmp::Ordering::Greater => false,
        std::cmp::Ordering::Equal => a < b,
    }
}

/// Total-order comparison used to keep token wait queues sorted.
#[inline]
pub fn order_key(mark: f64, site: NodeId) -> (u64, NodeId) {
    // `total_cmp`-compatible bit trick: for finite floats with the sign
    // bit clear the IEEE-754 bit pattern orders identically to the value.
    // Marks are averages/sums of non-negative counters, and the decoder
    // refuses any other (`-0.0` included, which `>= 0.0` would pass);
    // asserted in debug builds.
    debug_assert!(mark.is_sign_positive() && mark.is_finite(), "invalid mark {mark}");
    (mark.to_bits(), site)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avg_ignores_zeros() {
        let p = SchedulingPolicy::AvgNonZero;
        assert_eq!(p.mark(&[0, 4, 0, 8]), 6.0);
        assert_eq!(p.mark(&[5]), 5.0);
        assert_eq!(p.mark(&[0, 0]), 0.0);
        assert_eq!(p.mark(&[]), 0.0);
    }

    #[test]
    fn other_policies() {
        assert_eq!(SchedulingPolicy::MaxNonZero.mark(&[0, 4, 9, 1]), 9.0);
        assert_eq!(SchedulingPolicy::SumNonZero.mark(&[0, 4, 9, 1]), 14.0);
        assert_eq!(SchedulingPolicy::MinNonZero.mark(&[0, 4, 9, 1]), 1.0);
        assert_eq!(SchedulingPolicy::MaxNonZero.mark(&[0]), 0.0);
    }

    #[test]
    fn mark_single_matches_vector() {
        for p in SchedulingPolicy::all() {
            assert_eq!(p.mark_single(7), p.mark(&[0, 7, 0]));
        }
    }

    #[test]
    fn precedes_is_strict_total_order_on_samples() {
        let samples = [(1.0, 0), (1.0, 1), (2.0, 0), (0.5, 3), (2.0, 2)];
        // Irreflexive.
        for &(m, s) in &samples {
            assert!(!precedes(m, s, m, s));
        }
        // Trichotomy.
        for &(ma, a) in &samples {
            for &(mb, b) in &samples {
                if (ma, a) == (mb, b) {
                    continue;
                }
                assert_ne!(precedes(ma, a, mb, b), precedes(mb, b, ma, a));
            }
        }
        // Transitivity on a sorted chain.
        assert!(precedes(0.5, 3, 1.0, 0));
        assert!(precedes(1.0, 0, 1.0, 1));
        assert!(precedes(0.5, 3, 1.0, 1));
    }

    #[test]
    fn order_key_agrees_with_precedes() {
        let samples = [(1.0, 0), (1.5, 4), (1.5, 2), (0.0, 9), (3.25, 1)];
        for &(ma, a) in &samples {
            for &(mb, b) in &samples {
                assert_eq!(
                    precedes(ma, a, mb, b),
                    order_key(ma, a) < order_key(mb, b),
                    "({ma},{a}) vs ({mb},{b})"
                );
            }
        }
    }

    #[test]
    fn policy_names_unique() {
        let names: Vec<_> = SchedulingPolicy::all().iter().map(|p| p.name()).collect();
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(names, dedup);
    }
}
