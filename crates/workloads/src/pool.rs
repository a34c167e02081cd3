//! A std-only scoped-thread work pool for experiment sweeps.
//!
//! Every figure of the paper's evaluation is a grid of **independent,
//! deterministic** simulations (Fig. 5 alone is 3 loads × 11 φ × 5
//! algorithms = 165 runs).  [`sweep`] fans such a grid across cores:
//! workers claim grid points from an atomic cursor (dynamic load balancing
//! — simulation cost varies wildly across φ and algorithm) and write each
//! result into the slot matching its input index, so the output order is
//! **always input order** regardless of scheduling.  Combined with each
//! run's own seeded RNGs, a parallel sweep is byte-for-byte identical to a
//! sequential one (see `tests/sweep_determinism.rs`).
//!
//! Thread count comes from the `MRA_THREADS` environment variable; unset
//! (or unparsable) means all available parallelism, and `1` takes exactly
//! the pre-pool sequential path — no threads spawned, items mapped in
//! place.  The pool is std-only (`std::thread::scope`) because the build
//! environment is offline; no rayon, no crossbeam.

// Poison-tolerant: a worker panic (e.g. a safety violation inside a
// simulation) must surface as that panic when the scope joins, not as a
// `PoisonError` cascade from a sibling.
use mra_sim::lock;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The thread count a sweep will use: `MRA_THREADS` if set to an integer
/// ≥ 1 (`1` forces the sequential path), otherwise the machine's available
/// parallelism.
pub fn configured_threads() -> usize {
    match std::env::var("MRA_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// Map `f` over `items` on [`configured_threads`] workers, returning the
/// results **in input order**.
///
/// # Panics
/// Propagates the first worker panic after all threads have joined
/// (`std::thread::scope` semantics), so simulation safety/liveness panics
/// still fail the sweep.
pub fn sweep<I, T, F>(items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    sweep_with_threads(configured_threads(), items, f)
}

/// [`sweep`] with an explicit thread count, bypassing `MRA_THREADS`.
/// Determinism tests compare `threads = 1` against `threads = N` directly.
pub fn sweep_with_threads<I, T, F>(threads: usize, items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        // The sequential path: identical to the pre-pool code.
        return items.into_iter().map(f).collect();
    }

    // Jobs are claimed via `cursor`, each exactly once, so the Mutexes are
    // never contended — they only carry ownership across the thread
    // boundary in safe code.
    let jobs: Vec<Mutex<Option<I>>> = items.into_iter().map(|it| Mutex::new(Some(it))).collect();
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                let k = cursor.fetch_add(1, Ordering::Relaxed);
                if k >= n {
                    break;
                }
                let item = lock(&jobs[k]).take().expect("job claimed twice");
                let result = f(item);
                *lock(&slots[k]) = Some(result);
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("worker exited without filling its result slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = sweep_with_threads(4, items, |i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_equals_sequential() {
        let work = |i: u64| -> u64 {
            // A small deterministic computation with per-item state.
            (0..1_000).fold(i, |acc, k| acc.wrapping_mul(6364136223846793005).wrapping_add(k))
        };
        let a = sweep_with_threads(1, (0..64).collect(), work);
        let b = sweep_with_threads(8, (0..64).collect(), work);
        assert_eq!(a, b);
    }

    #[test]
    fn single_item_takes_sequential_path() {
        assert_eq!(sweep_with_threads(8, vec![41], |i| i + 1), vec![42]);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<usize> = sweep_with_threads(4, Vec::<usize>::new(), |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn worker_panic_propagates() {
        let boom = std::panic::catch_unwind(|| {
            sweep_with_threads(2, (0..8).collect::<Vec<usize>>(), |i| {
                assert!(i != 5, "synthetic safety violation");
                i
            })
        });
        assert!(boom.is_err(), "a worker panic must fail the whole sweep");
    }

    #[test]
    fn configured_threads_is_at_least_one() {
        assert!(configured_threads() >= 1);
    }
}
