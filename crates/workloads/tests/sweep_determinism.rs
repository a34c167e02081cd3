//! Determinism is the repo's core invariant (see `deterministic_given_seed`
//! in `mra-sim`): the sweep pool's parallelism may not bend it.  A sweep
//! run with `MRA_THREADS=4` must produce **byte-identical** table and CSV
//! output to `MRA_THREADS=1`.
//!
//! Everything lives in one function so the environment mutations cannot
//! race another test in this binary.

use mra_workloads::experiments::{
    fig5, fig5_tables, fig6, fig6_table, fig_faults, fig_faults_csv, fig_faults_table, fig_serve,
    fig_serve_table,
};
use mra_workloads::{pool, Load, Table};

/// Render the exact artifacts the fig5 binary emits for a small grid: the
/// paper-layout tables plus the long-format CSV.
fn fig5_artifacts(seed: u64) -> (String, String) {
    let rows = fig5(&[Load::Medium, Load::High], &[1, 4, 8], seed, 0.3);
    let tables: String = fig5_tables(&rows).iter().map(|t| t.render()).collect();
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
    (tables, csv.to_csv())
}

/// Render the exact artifacts the fig_faults binary emits for a small
/// loss grid — both reliability modes, like the real ablation: the matrix
/// table plus the long-format CSV (via the shared `fig_faults_csv`, so
/// the bytes certified here are the bytes the binary ships).
fn fig_faults_artifacts(seed: u64) -> (String, String) {
    let rows = fig_faults(&[0.0, 0.05, 0.2], &[false, true], seed, 0xFA17, 0.3);
    let table = fig_faults_table(&rows).render();
    (table, fig_faults_csv(&rows).to_csv())
}

/// Render the exact artifacts the fig_serve binary emits: its one table,
/// as text and as CSV.
fn fig_serve_artifacts() -> (String, String) {
    let table = fig_serve_table(&fig_serve(0.3));
    (table.render(), table.to_csv())
}

#[test]
fn mra_threads_4_is_byte_identical_to_mra_threads_1() {
    // Through the real `MRA_THREADS` plumbing (what CI and users set).
    std::env::set_var("MRA_THREADS", "1");
    assert_eq!(pool::configured_threads(), 1);
    let (tables_seq, csv_seq) = fig5_artifacts(42);
    let fig6_seq = fig6_table(&fig6(&[Load::Medium, Load::High], 42, 0.3)).render();
    let (faults_tbl_seq, faults_csv_seq) = fig_faults_artifacts(42);
    let serve_seq = fig_serve_artifacts();

    std::env::set_var("MRA_THREADS", "4");
    assert_eq!(pool::configured_threads(), 4);
    let (tables_par, csv_par) = fig5_artifacts(42);
    let fig6_par = fig6_table(&fig6(&[Load::Medium, Load::High], 42, 0.3)).render();
    let (faults_tbl_par, faults_csv_par) = fig_faults_artifacts(42);
    let serve_par = fig_serve_artifacts();
    std::env::remove_var("MRA_THREADS");

    assert_eq!(tables_seq, tables_par, "fig5 tables diverged across thread counts");
    assert_eq!(csv_seq, csv_par, "fig5 CSV diverged across thread counts");
    assert_eq!(fig6_seq, fig6_par, "fig6 table diverged across thread counts");
    assert_eq!(
        faults_tbl_seq, faults_tbl_par,
        "fig_faults table diverged across thread counts"
    );
    assert_eq!(
        faults_csv_seq, faults_csv_par,
        "fig_faults CSV diverged across thread counts"
    );
    assert_eq!(serve_seq, serve_par, "fig_serve diverged across thread counts");
    // Sanity: this is real output, not two empty strings agreeing.
    assert!(csv_seq.lines().count() > 30);
    assert!(tables_seq.contains("Fig.5(high)"));
    assert!(faults_csv_seq.lines().count() > 12);
    assert!(faults_tbl_seq.contains("fig_faults"));
    assert!(serve_seq.0.contains("fig_serve"));
    assert_eq!(serve_seq.1.lines().count(), 9);
}
