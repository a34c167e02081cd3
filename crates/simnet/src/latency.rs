//! Network latency models.
//!
//! The paper's testbed had γ ≈ 0.6 ms point-to-point latency on a flat
//! 10 GbE switch — [`LatencyModel::Constant`] reproduces that.  The other
//! models support the robustness and future-work experiments:
//! [`LatencyModel::Uniform`] adds jitter (FIFO ordering is enforced by the
//! engine regardless), and [`LatencyModel::Hierarchical`] models the
//! "hierarchical physical topology such as Clouds" of the paper's
//! conclusion — two or more clusters with cheap intra-cluster and expensive
//! inter-cluster links.

use mra_types::{NodeId, Time};
use rand::rngs::StdRng;
use rand::Rng;

/// How long a message from `src` to `dst` spends on the wire.
#[derive(Clone, Debug)]
pub enum LatencyModel {
    /// Every message takes exactly this long (the paper's γ).
    Constant(Time),
    /// Uniformly random in `[lo, hi]` per message.
    Uniform {
        /// Minimum latency.
        lo: Time,
        /// Maximum latency.
        hi: Time,
    },
    /// Cluster topology: `cluster[i]` is node `i`'s cluster; messages
    /// within a cluster take `intra`, across clusters `inter`.
    Hierarchical {
        /// Cluster index of each node.
        cluster: Vec<usize>,
        /// Intra-cluster latency.
        intra: Time,
        /// Inter-cluster latency.
        inter: Time,
    },
    /// Zero latency: used for the "in shared memory" scheduler, whose
    /// synchronization cost must be nil (paper §5.2).
    Zero,
}

impl LatencyModel {
    /// The paper's LAN: γ = 0.6 ms.
    pub fn paper_lan() -> Self {
        LatencyModel::Constant(Time::from_micros(600))
    }

    /// A two-cluster cloud with the given split point: nodes `< split` in
    /// cluster 0, the rest in cluster 1.
    pub fn two_clusters(n: usize, split: usize, intra: Time, inter: Time) -> Self {
        LatencyModel::Hierarchical {
            cluster: (0..n).map(|i| usize::from(i >= split)).collect(),
            intra,
            inter,
        }
    }

    /// The latency of one `src → dst` message when this model needs no
    /// randomness: `Constant`, `Zero` and `Hierarchical` are pure functions
    /// of the endpoints, so engines can skip borrowing (and advancing) the
    /// network RNG entirely — the fast path for the paper's γ = const
    /// scenarios.  A degenerate `Uniform` with `lo == hi` is a constant in
    /// disguise and takes the same path.  Returns `None` only for genuinely
    /// jittered models.
    #[inline]
    pub fn sample_deterministic(&self, src: NodeId, dst: NodeId) -> Option<Time> {
        match self {
            LatencyModel::Constant(t) => Some(*t),
            LatencyModel::Zero => Some(Time::ZERO),
            LatencyModel::Hierarchical {
                cluster,
                intra,
                inter,
            } => Some(if cluster[src] == cluster[dst] { *intra } else { *inter }),
            LatencyModel::Uniform { lo, hi } if lo == hi => Some(*lo),
            LatencyModel::Uniform { .. } => None,
        }
    }

    /// Sample the latency for one message.  Deterministic models never
    /// touch `rng` (see [`Self::sample_deterministic`]), so the RNG stream
    /// — and therefore every downstream draw — is identical whichever
    /// entry point an engine uses.
    pub fn sample(&self, src: NodeId, dst: NodeId, rng: &mut StdRng) -> Time {
        if let Some(t) = self.sample_deterministic(src, dst) {
            return t;
        }
        match self {
            LatencyModel::Uniform { lo, hi } => {
                // `lo == hi` was already served by the deterministic fast
                // path above, so the span here is always positive.
                debug_assert!(lo < hi);
                let span = hi.as_nanos() - lo.as_nanos();
                Time::from_nanos(lo.as_nanos() + rng.gen_range(0..=span))
            }
            // Named so a new variant fails to compile here instead of
            // panicking at runtime: the author must decide which path
            // serves it.
            LatencyModel::Constant(_)
            | LatencyModel::Zero
            | LatencyModel::Hierarchical { .. } => {
                unreachable!("deterministic models are handled above")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn constant_is_constant() {
        let m = LatencyModel::paper_lan();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(m.sample(0, 1, &mut rng), Time::from_micros(600));
        assert_eq!(m.sample(3, 2, &mut rng), Time::from_micros(600));
    }

    #[test]
    fn uniform_within_bounds() {
        let lo = Time::from_micros(100);
        let hi = Time::from_micros(200);
        let m = LatencyModel::Uniform { lo, hi };
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let t = m.sample(0, 1, &mut rng);
            assert!(t >= lo && t <= hi);
        }
    }

    #[test]
    fn hierarchical_distinguishes_clusters() {
        let m = LatencyModel::two_clusters(
            4,
            2,
            Time::from_micros(100),
            Time::from_millis(5),
        );
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(m.sample(0, 1, &mut rng), Time::from_micros(100));
        assert_eq!(m.sample(2, 3, &mut rng), Time::from_micros(100));
        assert_eq!(m.sample(1, 2, &mut rng), Time::from_millis(5));
    }

    #[test]
    fn zero_is_free() {
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(LatencyModel::Zero.sample(0, 5, &mut rng), Time::ZERO);
    }

    #[test]
    fn deterministic_models_agree_with_sample_and_skip_the_rng() {
        use rand::RngCore;
        let models = [
            LatencyModel::paper_lan(),
            LatencyModel::Zero,
            LatencyModel::two_clusters(4, 2, Time::from_micros(100), Time::from_millis(5)),
        ];
        for model in models {
            for (src, dst) in [(0, 1), (1, 2), (2, 3)] {
                let mut rng = StdRng::seed_from_u64(17);
                let untouched = rng.clone();
                let sampled = model.sample(src, dst, &mut rng);
                assert_eq!(model.sample_deterministic(src, dst), Some(sampled));
                // The fast path must leave the RNG stream exactly where it
                // was: same next draw as a clone that never sampled.
                assert_eq!(
                    rng.next_u64(),
                    untouched.clone().next_u64(),
                    "sample() advanced the RNG for a deterministic model"
                );
            }
        }
        let jitter = LatencyModel::Uniform {
            lo: Time::from_micros(10),
            hi: Time::from_micros(20),
        };
        assert_eq!(jitter.sample_deterministic(0, 1), None);
    }

    #[test]
    fn degenerate_uniform_takes_the_deterministic_fast_path() {
        use rand::RngCore;
        let t = Time::from_micros(150);
        let m = LatencyModel::Uniform { lo: t, hi: t };
        assert_eq!(m.sample_deterministic(0, 1), Some(t));
        // `sample` agrees and consumes **no** RNG draws: the stream stays
        // exactly where a never-sampling clone's stream is.
        let mut rng = StdRng::seed_from_u64(23);
        let untouched = rng.clone();
        for (src, dst) in [(0, 1), (1, 2), (3, 0)] {
            assert_eq!(m.sample(src, dst, &mut rng), t);
        }
        assert_eq!(
            rng.next_u64(),
            untouched.clone().next_u64(),
            "lo == hi Uniform consumed RNG draws"
        );
        // A genuinely jittered model does advance the stream.
        let jitter = LatencyModel::Uniform {
            lo: t,
            hi: Time::from_micros(151),
        };
        let mut rng2 = StdRng::seed_from_u64(23);
        let before = rng2.clone();
        let _ = jitter.sample(0, 1, &mut rng2);
        assert_ne!(rng2.next_u64(), before.clone().next_u64());
    }
}
