//! Serving figure: offered load vs goodput and arrival-keyed tail latency
//! (p50/p95/p99/p999 of intended arrival → grant) of the open-loop front
//! end across the algorithm families, next to the issue-keyed p99 whose
//! gap to it is the coordinated-omission bias.  Simulated time, so every
//! column repeats exactly.
//!
//! ```text
//! cargo run -p mra-workloads --release --bin fig_serve
//! ```
//!
//! Environment: `MRA_MEASURE_SECS` / `MRA_FAST` scale the simulated window
//! as usual (2 s full, 0.5 s fast).  `MRA_TRACE_FILE` writes each run's
//! trace as JSONL, overwriting the last; under `MRA_THREADS=1` the file
//! ends up holding the last grid point's trace, ready for `mra-trace
//! --check`.

use mra_workloads::experiments::{fig_serve, fig_serve_table, measure_secs_or};

fn main() {
    let secs = measure_secs_or(2.0);
    eprintln!("fig_serve: 8 load points at {secs}s per run");
    let table = fig_serve_table(&fig_serve(secs));
    println!("{}", table.render());
    table.save_csv("fig_serve.csv");
}
