//! Regenerate **Figure 5**: resource use rate vs maximum request size φ,
//! for medium (a) and high (b) load, across the five algorithms of the
//! paper's evaluation.
//!
//! ```text
//! cargo run -p mra-workloads --release --bin fig5
//! ```

use mra_workloads::experiments::{fig5, fig5_tables, measure_secs_or, FIG5_PHIS};
use mra_workloads::{Load, Table};

fn main() {
    let secs = measure_secs_or(10.0);
    let seed = 42;
    eprintln!("fig5: sweeping phi over {FIG5_PHIS:?} at {secs}s per run (seed {seed})");
    let t0 = std::time::Instant::now();
    let rows = fig5(&[Load::Medium, Load::High], &FIG5_PHIS, seed, secs);
    for table in fig5_tables(&rows) {
        println!("{}", table.render());
    }

    // CSV: long format, one row per point.
    let mut csv = Table::new(
        "fig5",
        &["load", "phi", "algorithm", "use_rate_pct", "msgs_per_cs", "cs_completed"],
    );
    for r in &rows {
        csv.row(vec![
            r.load.label().into(),
            r.phi.to_string(),
            r.algo.label().into(),
            format!("{:.3}", r.use_rate_pct),
            format!("{:.2}", r.msgs_per_cs),
            r.cs_completed.to_string(),
        ]);
    }
    csv.save_csv("fig5_use_rate.csv");

    // Headline of §5.2: the LASS/BL improvement factor range.
    let mut ratios: Vec<f64> = Vec::new();
    for load in [Load::Medium, Load::High] {
        for phi in FIG5_PHIS {
            let get = |algo| {
                rows.iter()
                    .find(|r| r.load == load && r.phi == phi && r.algo == algo)
                    .map(|r| r.use_rate_pct)
            };
            if let (Some(lass), Some(bl)) = (
                get(mra_workloads::Algorithm::LassLoan),
                get(mra_workloads::Algorithm::BouabdallahLaforest),
            ) {
                if bl > 0.0 {
                    ratios.push(lass / bl);
                }
            }
        }
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    if let (Some(min), Some(max)) = (ratios.first(), ratios.last()) {
        println!(
            "LASS-with-loan vs Bouabdallah-Laforest use-rate ratio: {min:.2}x .. {max:.2}x \
             (paper: up to 20x on its testbed)"
        );
    }
    eprintln!("fig5 done in {:?}", t0.elapsed());
}
