//! Fault-robustness ablation: CS throughput degradation vs frame-loss
//! rate, for all six protocol families, with the reliable-delivery
//! session layer off (the paper's bare protocols) and on (exactly-once
//! FIFO restored by retransmission) — on a deterministic [`FaultPlan`].
//!
//! ```text
//! cargo run -p mra-workloads --release --bin fig_faults            # full grid
//! cargo run -p mra-workloads --release --bin fig_faults -- --smoke # CI grid
//! ```
//!
//! The drop decisions are seeded with `0xFA17`, as in
//! [`FaultPlan::from_env`].
//!
//! Environment: `MRA_LOSS` restricts the sweep to `{0, loss}` (a quick
//! single-point comparison), `MRA_RELIABLE` pins the ablation to one mode
//! (default: both), `MRA_RTO_MS` tunes the reliability-on retransmission
//! timeout, and `MRA_MEASURE_SECS` / `MRA_FAST` scale the simulated window
//! as usual.

use mra_protocol::faults::FaultPlan;
use mra_protocol::reliable::Reliability;
use mra_workloads::experiments::{
    fig_faults, fig_faults_csv, fig_faults_table, measure_secs_or, sweep_reliability,
    FIG_FAULTS_LOSSES,
};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let secs = measure_secs_or(if smoke { 2.0 } else { 8.0 });
    let seed = 42;
    let fault_seed = 0xFA17;
    let losses: Vec<f64> = if let Some(loss) = FaultPlan::env_loss() {
        vec![0.0, loss]
    } else if smoke {
        vec![0.0, 5e-4, 2e-2]
    } else {
        FIG_FAULTS_LOSSES.to_vec()
    };
    // The ablation runs both modes unless MRA_RELIABLE pins one.
    let modes: Vec<bool> = if std::env::var("MRA_RELIABLE").is_ok() {
        vec![Reliability::env_enabled()]
    } else {
        vec![false, true]
    };
    eprintln!(
        "fig_faults: sweeping loss over {losses:?} × reliability {modes:?} at {secs}s \
         per run (seed {seed}, fault seed {fault_seed}, rto {:.1}ms)",
        sweep_reliability().rto.as_millis_f64()
    );
    let t0 = std::time::Instant::now();
    let rows = fig_faults(&losses, &modes, seed, fault_seed, secs);
    println!("{}", fig_faults_table(&rows).render());
    fig_faults_csv(&rows).save_csv("fig_faults.csv");
    eprintln!("fig_faults done in {:?}", t0.elapsed());
}
