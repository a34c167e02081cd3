//! Scale smoke: the paper's workload at a shape far past its 32 × 80
//! testbed.
//!
//! The test (`#[ignore]`, run by the CI `sim-scale` job and by hand via
//! `cargo test -p mra-workloads --release --test sim_scale -- --ignored`)
//! drives 10 000 nodes × 100 000 resources through LASS with loan, LASS
//! without loan and Incremental once each and requires each run digest to
//! equal a literal recorded at commit `4ad8e7c`: the schedule at this
//! shape is pinned across commits, not merely statistically alike.
//! It ends by holding the process's peak resident set under a ceiling: at
//! this shape memory must follow what the sets hold, not the 100 000-wide
//! universe they are drawn from.
//!
//! No speed is asserted here: wall-clock numbers are the benchmark's
//! `sim-scale` workload, which runs this shape.

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

/// The acceptance shape: 10 000 nodes, 100 000 resources, φ = 4, medium
/// load, on the three algorithms that scale (the broadcast and
/// control-token baselines are O(n) or O(m) per message and are not part
/// of the scale story).  Each digest must equal its literal, and the whole
/// test must fit in [`PEAK_RSS_CEILING_MB`].
#[test]
#[ignore = "large: ~10^5 events per run; CI runs it in the release-mode sim-scale job"]
fn ten_thousand_nodes_match_their_pinned_digests() {
    for (algo, want) in [
        (Algorithm::LassLoan, 0x02c8_cd30_ee3b_23ad),
        (Algorithm::LassNoLoan, 0x14c8_a2d9_4cf2_27ea),
        (Algorithm::Incremental, 0x4778_6107_4363_381a),
    ] {
        let started = std::time::Instant::now();
        let res = run(algo, &Scenario::large(10_000, 100_000, 7));
        assert!(
            res.cs_completed > 1_000,
            "{algo:?} did almost no work at 10k nodes: {} cs",
            res.cs_completed
        );
        let got = digest(&res);
        println!(
            "{algo:?}: {} events, {} cs, digest {got:#018x}, {:.1}s",
            res.events_processed,
            res.cs_completed,
            started.elapsed().as_secs_f64()
        );
        assert_eq!(got, want, "{algo:?} moved at 10k nodes: digest {got:#018x}");
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

/// Measured 25-26 MB over the three runs above in a release build, from
/// run to run, both before and after the records were ordered in place
/// and one-request histories went inline (a run here measures a 10 ms
/// window and keeps about 2 300 records; the ceiling was 36 MB until
/// then).  Earlier readings: 30 MB while every token kept its
/// stamp rows on the heap and every LASS entry a pending-history vector;
/// 34 MB while every node kept its own handler context and LASS staging
/// block; 38 MB while every site kept a full copy of each token it had
/// sent or seen pass; 41 MB before small sets stopped allocating; with
/// every set a 12.5 KB bitmap of the universe, and each algorithm run
/// twice, the test peaked at 751 MB.  Run with `--ignored` the process
/// holds nothing else.
#[cfg(target_os = "linux")]
const PEAK_RSS_CEILING_MB: f64 = 32.0;

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
