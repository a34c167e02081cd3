//! Trace determinism: the observability layer must not weaken the engine's
//! core invariant.  The JSONL trace of one seeded run is pinned **across
//! commits** as an FNV-1a digest of its bytes, recorded at commit
//! `4ad8e7c`: a change that moves a trace byte — an event, a key, a
//! Lamport stamp, the rendering — fails here, even if it moves every run
//! of the same build consistently.  Re-record only for a deliberate change
//! of the trace, and say so.
//!
//! One test function: the environment mutation (`MRA_TRACE`) must not race
//! another test in this binary.

use mra_sim::obs::render_jsonl;
use mra_workloads::{run, Algorithm, Load, Scenario};

fn traced_jsonl(seed: u64) -> String {
    let sc = Scenario::builder()
        .nodes(6)
        .resources(12)
        .max_request_size(3)
        .load(Load::High)
        .seed(seed)
        .measure_secs(0.3)
        .build();
    let res = run(Algorithm::LassLoan, &sc);
    let trace = res
        .obs
        .trace
        .as_ref()
        .expect("MRA_TRACE armed but no trace captured");
    assert!(trace.len() > 100, "suspiciously short trace: {}", trace.len());
    render_jsonl(trace, &res.algo, res.n, res.m)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn traced_run_matches_its_pinned_digest() {
    std::env::set_var("MRA_TRACE", "on");
    let jsonl = traced_jsonl(42);
    std::env::remove_var("MRA_TRACE");

    // Line and byte counts first for a readable failure, then the digest.
    let got = (jsonl.lines().count(), jsonl.len(), fnv1a(jsonl.as_bytes()));
    assert_eq!(
        got,
        (686, 75_692, 0xacb1_5214_9549_0483),
        "JSONL trace moved: {} lines, {} bytes, digest {:#018x}",
        got.0,
        got.1,
        got.2
    );

    // Sanity: this is a real trace with the full event vocabulary.
    for kind in ["\"k\":\"send\"", "\"k\":\"recv\"", "\"k\":\"cs-enter\""] {
        assert!(jsonl.contains(kind), "trace missing {kind}");
    }
}
