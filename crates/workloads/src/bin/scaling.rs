//! Scaling extension: how the algorithms behave as the system grows
//! (N ∈ {8, 16, 32, 64}, M scaled as 2.5·N like the paper's 32/80 ratio).
//! Reports use rate, mean wait and messages per critical section — the
//! dimension along which the broadcast baseline degrades and the
//! counter-based design keeps its per-conflict communication profile.
//!
//! ```text
//! cargo run -p mra-workloads --release --bin scaling
//! ```

use mra_workloads::experiments::measure_secs_or;
use mra_workloads::{pool, run, Algorithm, Load, Scenario, Table};

fn main() {
    let secs = measure_secs_or(10.0);
    let mut t = Table::new(
        "Scaling sweep (phi = 4, high load, M = 2.5N)",
        &["N", "M", "algorithm", "use rate [%]", "mean wait [ms]", "msgs/cs"],
    );
    let mut grid = Vec::new();
    for n in [8usize, 16, 32, 64] {
        let m = n * 5 / 2;
        for algo in [
            Algorithm::BouabdallahLaforest,
            Algorithm::LassLoan,
            Algorithm::Maddi,
        ] {
            grid.push((n, m, algo));
        }
    }
    // The grid points are independent seeded simulations: fan them across
    // MRA_THREADS workers, rows come back in input order.
    let rows = pool::sweep(grid, |(n, m, algo)| {
        let sc = Scenario::builder()
            .nodes(n)
            .resources(m)
            .max_request_size(4)
            .load(Load::High)
            .seed(42)
            .measure_secs(secs)
            .build();
        let res = run(algo, &sc);
        vec![
            n.to_string(),
            m.to_string(),
            algo.label().into(),
            format!("{:.1}", 100.0 * res.use_rate()),
            format!("{:.1}", res.wait_stats().mean_ms),
            format!("{:.1}", res.msgs_per_cs()),
        ]
    });
    for row in rows {
        t.row(row);
    }
    println!("{}", t.render());
    t.save_csv("scaling.csv");
}
