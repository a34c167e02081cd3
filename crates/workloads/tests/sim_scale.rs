//! Scale smoke for the sharded windowed engine: the paper's workload
//! at shapes far past its 32 × 80 testbed.
//!
//! The headline test (`#[ignore]`, run by the CI `sim-scale` job and by
//! hand via `cargo test -p mra-workloads --release --test sim_scale --
//! --ignored`) drives 10 000 nodes × 100 000 resources through LASS with
//! loan, LASS without loan and Incremental, sequentially and on 4 shards,
//! and requires the run digests to match **exactly**: the windowed
//! schedule is bit-identical to the sequential one, not merely
//! statistically alike.
//! It ends by holding the process's peak resident set under a ceiling: at
//! this shape memory must follow what the sets hold, not the 100 000-wide
//! universe they are drawn from.
//!
//! No speed is asserted anywhere here: every shard count runs on the
//! calling thread (DESIGN §10.2), and wall-clock numbers are the
//! benchmark's `sim-scale` workload, which runs this shape on 2 shards.

use mra_sim::RunResult;
use mra_workloads::{run, Algorithm, Scenario};

/// An order-sensitive digest of everything the simulation produced:
/// aggregate counters plus an FNV-1a fold over the canonical per-request
/// records.  Two runs with equal digests made the same requests at the
/// same nanoseconds and saw the same grants.
fn digest(r: &RunResult) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut fold = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(FNV_PRIME);
    };
    fold(r.cs_completed);
    fold(r.censored);
    fold(r.events_processed);
    fold(r.msgs_total);
    fold(r.msg_weight);
    for rec in &r.records {
        fold(rec.node as u64);
        fold(rec.size as u64);
        fold(rec.issued.as_nanos());
        fold(rec.granted.map_or(u64::MAX, |t| t.as_nanos()));
        fold(rec.released.map_or(u64::MAX, |t| t.as_nanos()));
    }
    h
}

fn run_at(algo: Algorithm, n: usize, m: usize, shards: usize) -> RunResult {
    let mut sc = Scenario::large(n, m, 7);
    sc.shards = Some(shards);
    run(algo, &sc)
}

/// Mid-scale parity in the ordinary suite: big enough that shards matter
/// (hundreds of nodes per shard), small enough for a debug-build test run.
#[test]
fn mid_scale_digest_parity_1_vs_3_shards() {
    let seq = run_at(Algorithm::LassLoan, 300, 3_000, 1);
    assert!(seq.cs_completed > 0, "mid-scale run did no work");
    let par = run_at(Algorithm::LassLoan, 300, 3_000, 3);
    assert_eq!(par.shards, 3);
    assert_eq!(
        digest(&seq),
        digest(&par),
        "sharded run diverged from sequential at 300 nodes"
    );
}

/// The acceptance shape: 10 000 nodes, 100 000 resources, φ = 4, medium
/// load, on the three algorithms that scale (the broadcast and
/// control-token baselines are O(n) or O(m) per message and are not part
/// of the scale story).  Digests must match between 1 and 4 shards, and
/// the whole test must fit in [`PEAK_RSS_CEILING_MB`].
#[test]
#[ignore = "large: ~10^7-10^8 events per run; CI runs it in the release-mode sim-scale job"]
fn ten_thousand_nodes_digest_parity_1_vs_4_shards() {
    for algo in [
        Algorithm::LassLoan,
        Algorithm::LassNoLoan,
        Algorithm::Incremental,
    ] {
        let started = std::time::Instant::now();
        let seq = run_at(algo, 10_000, 100_000, 1);
        assert!(
            seq.cs_completed > 1_000,
            "{algo:?} did almost no work at 10k nodes: {} cs",
            seq.cs_completed
        );
        let par = run_at(algo, 10_000, 100_000, 4);
        assert_eq!(par.shards, 4);
        assert_eq!(par.shard_events.len(), 4);
        assert_eq!(par.shard_events.iter().sum::<u64>(), par.events_processed);
        assert_eq!(
            digest(&seq),
            digest(&par),
            "sharded run diverged from sequential for {algo:?}"
        );
        println!(
            "{algo:?}: {} events, {} cs, digest {:#018x}, {:.1}s for both runs",
            seq.events_processed,
            seq.cs_completed,
            digest(&seq),
            started.elapsed().as_secs_f64()
        );
    }
    #[cfg(target_os = "linux")]
    {
        let peak = peak_rss_mb();
        println!("peak resident set {peak:.0} MB (ceiling {PEAK_RSS_CEILING_MB} MB)");
        assert!(
            peak <= PEAK_RSS_CEILING_MB,
            "10 000 x 100 000 peaked at {peak:.0} MB resident (ceiling {PEAK_RSS_CEILING_MB} MB)"
        );
    }
}

/// Measured 53 MB over the six runs above; with every set a 12.5 KB
/// bitmap of the universe the same test peaked at 751 MB.  Run with
/// `--ignored` the process holds nothing else (the mid-scale test is
/// filtered out).
#[cfg(target_os = "linux")]
const PEAK_RSS_CEILING_MB: f64 = 200.0;

/// `VmHWM` of this process, from `/proc/self/status`.
#[cfg(target_os = "linux")]
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM line");
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in kB");
    kb / 1024.0
}
