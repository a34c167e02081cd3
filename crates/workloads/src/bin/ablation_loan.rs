//! Loan-threshold ablation — the experiment the paper's conclusion calls
//! for: *"it would be interesting to evaluate the impact of this threshold
//! on other metrics"*.
//!
//! Sweeps the threshold from `off` to 4 at several request sizes under both
//! loads.
//!
//! ```text
//! cargo run -p mra-workloads --release --bin ablation_loan
//! ```

use mra_workloads::experiments::{ablation_loan, measure_secs_or};
use mra_workloads::Load;

fn main() {
    let secs = measure_secs_or(10.0);
    let thresholds = [0usize, 1, 2, 3, 4];
    for load in [Load::Medium, Load::High] {
        for phi in [4usize, 8, 16] {
            let t = ablation_loan(&thresholds, phi, load, 42, secs);
            println!("{}", t.render());
            t.save_csv(&format!("ablation_loan_{}_phi{}.csv", load.label(), phi));
        }
    }
}
