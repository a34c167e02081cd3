//! A serving run honours `MRA_TRACE_FILE` like a paper run: the merged
//! trace is written as JSONL after the run and passes the causal checks
//! that `mra-trace --check` applies.
//!
//! One test function: the environment mutation (`MRA_TRACE_FILE`) must
//! not race another test in this binary.

use mra_serve::ServeConfig;
use mra_sim::obs::{check_events, parse_jsonl};
use mra_workloads::{run_serve, Algorithm, Load, Scenario, ServeScenario};

#[test]
fn serve_run_writes_a_consistent_trace_file() {
    let path = std::env::temp_dir().join(format!("mra_serve_trace_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let sc = Scenario::builder()
        .nodes(6)
        .resources(12)
        .max_request_size(3)
        .load(Load::Medium)
        .seed(5)
        .measure_secs(0.5)
        .build();
    let serve = ServeConfig {
        rate_hz: 150.0,
        ..ServeConfig::default()
    };

    std::env::set_var("MRA_TRACE_FILE", &path);
    let out = run_serve(Algorithm::LassLoan, &ServeScenario::new(sc, serve), None, None);
    std::env::remove_var("MRA_TRACE_FILE");
    assert!(out.serve.served > 0, "no requests served");

    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("no trace written to {}: {e}", path.display()));
    let _ = std::fs::remove_file(&path);
    let trace = parse_jsonl(&text).expect("trace parses");
    assert_eq!(trace.n, 6);
    assert!(trace.events.len() > 100, "suspiciously short trace: {}", trace.events.len());
    let rep = check_events(&trace.events, trace.dropped);
    assert!(rep.ok(), "{} causal violation(s): {:?}", rep.violations, rep.details);
}
