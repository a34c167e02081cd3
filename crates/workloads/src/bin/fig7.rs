//! Regenerate **Figure 7**: average waiting time by request-size bucket at
//! φ = 80 (labels 1res, 17res, …, 80res), medium (a) and high (b) load.
//!
//! Also runs the skewed-popularity extension: the paper attributes the
//! small-request penalty of its scheduling function `A` to unevenly
//! requested resources; with a Zipf-like resource popularity the effect is
//! directly visible.
//!
//! ```text
//! cargo run -p mra-workloads --release --bin fig7
//! ```

use mra_workloads::experiments::{fig7, fig7_tables, measure_secs_or};
use mra_workloads::{run, Algorithm, Load, Scenario, Table};

fn main() {
    let secs = measure_secs_or(10.0);
    let seed = 42;
    eprintln!("fig7: phi=80, 6 size buckets, {secs}s per run (seed {seed})");
    let rows = fig7(&[Load::Medium, Load::High], seed, secs);
    for t in fig7_tables(&rows) {
        println!("{}", t.render());
    }

    let mut csv = Table::new(
        "fig7",
        &["load", "algorithm", "size_lo", "size_hi", "mean_ms", "std_ms", "count"],
    );
    for r in &rows {
        csv.row(vec![
            r.load.label().into(),
            r.algo.label().into(),
            r.size_lo.to_string(),
            r.size_hi.to_string(),
            format!("{:.3}", r.wait.mean_ms),
            format!("{:.3}", r.wait.std_ms),
            r.wait.count.to_string(),
        ]);
    }
    csv.save_csv("fig7_wait_by_size.csv");

    // Extension: skewed resource popularity exposes the small-request
    // penalty the paper discusses (§5.3 last paragraph).
    let mut skew_table = Table::new(
        "Fig.7 extension: request-size penalty under Zipf(1.0) popularity (high load)",
        &["algorithm", "sizes", "mean [ms]", "std [ms]", "n"],
    );
    for algo in [Algorithm::BouabdallahLaforest, Algorithm::LassLoan] {
        let sc = Scenario::builder()
            .load(Load::High)
            .max_request_size(80)
            .seed(seed)
            .skew(1.0)
            .measure_secs(secs)
            .build();
        let res = run(algo, &sc);
        for (lo, hi, w) in res.wait_buckets(80, 6) {
            skew_table.row(vec![
                algo.label().into(),
                format!("{lo}-{hi}"),
                format!("{:.1}", w.mean_ms),
                format!("{:.1}", w.std_ms),
                w.count.to_string(),
            ]);
        }
    }
    println!("{}", skew_table.render());
    skew_table.save_csv("fig7_skew_extension.csv");
}
