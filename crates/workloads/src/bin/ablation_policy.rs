//! Scheduling-function (`A`) ablation: the paper makes `A` a parameter of
//! the algorithm (§3.3.2) and evaluates only the average of non-null
//! counter values; this harness compares all implemented policies.
//!
//! ```text
//! cargo run -p mra-workloads --release --bin ablation_policy
//! ```

use mra_workloads::experiments::{ablation_policy, measure_secs_or};
use mra_workloads::Load;

fn main() {
    let secs = measure_secs_or(10.0);
    for load in [Load::Medium, Load::High] {
        for phi in [4usize, 16, 80] {
            let t = ablation_policy(phi, load, 42, secs);
            println!("{}", t.render());
            t.save_csv(&format!("ablation_policy_{}_phi{}.csv", load.label(), phi));
        }
    }
}
