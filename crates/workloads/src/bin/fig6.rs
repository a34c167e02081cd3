//! Regenerate **Figure 6**: average waiting time (with standard deviation)
//! at φ = 4 for Bouabdallah–Laforest and the two LASS variants, medium (a)
//! and high (b) load.
//!
//! ```text
//! cargo run -p mra-workloads --release --bin fig6
//! ```

use mra_sim::WaitStats;
use mra_workloads::experiments::{fig6, fig6_table, measure_secs_or};
use mra_workloads::{Algorithm, Load, Table};

fn main() {
    let secs = measure_secs_or(10.0);
    let seed = 42;
    eprintln!("fig6: phi=4, both loads, {secs}s per run (seed {seed})");
    let rows = fig6(&[Load::Medium, Load::High], seed, secs);
    println!("{}", fig6_table(&rows).render());

    let mut csv = Table::new(
        "fig6",
        &["load", "algorithm", "mean_ms", "std_ms", "median_ms", "p95_ms", "count", "censored"],
    );
    for r in &rows {
        csv.row(vec![
            r.load.label().into(),
            r.algo.label().into(),
            WaitStats::cell(r.wait.mean_ms, 3),
            WaitStats::cell(r.wait.std_ms, 3),
            WaitStats::cell(r.wait.median_ms, 3),
            WaitStats::cell(r.wait.p95_ms, 3),
            r.wait.count.to_string(),
            r.censored.to_string(),
        ]);
    }
    csv.save_csv("fig6_waiting_time.csv");

    // Headline of §5.3: BL-vs-LASS waiting-time factor per load.
    for load in [Load::Medium, Load::High] {
        let get = |a: Algorithm| {
            rows.iter()
                .find(|r| r.load == load && r.algo == a)
                .map(|r| r.wait.mean_ms)
        };
        let get_median = |a: Algorithm| {
            rows.iter()
                .find(|r| r.load == load && r.algo == a)
                .map(|r| r.wait.median_ms)
        };
        if let (Some(bl), Some(noloan), Some(loan)) = (
            get(Algorithm::BouabdallahLaforest),
            get(Algorithm::LassNoLoan),
            get(Algorithm::LassLoan),
        ) {
            let med_ratio = match (get_median(Algorithm::BouabdallahLaforest), get_median(Algorithm::LassNoLoan)) {
                (Some(a), Some(b)) if b > 0.0 => a / b,
                _ => f64::NAN,
            };
            println!(
                "{} load: BL/without-loan wait ratio = {:.1}x mean, {:.1}x median; \
                 loan effect {:+.0}% on the mean \
                 (paper: ~{}x lower mean, loan ~-20% at high load)",
                load.label(),
                bl / noloan,
                med_ratio,
                100.0 * (loan / noloan - 1.0),
                if load == Load::Medium { 8 } else { 11 },
            );
        }
    }
}
