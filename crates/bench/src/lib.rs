//! Shared helpers for the figure binaries.
//!
//! One entry point per figure: `cargo run -p mra-bench --release --bin
//! <fig>` runs the full sweep, prints the paper-style table and writes CSV
//! to `target/experiments/`.  Wall-clock performance is measured by the
//! `benchmark/` package (`BENCHMARK.json`), not here.
//!
//! Set `MRA_FAST=1` or `MRA_MEASURE_SECS=<s>` to shrink simulation windows.

use std::path::{Path, PathBuf};

/// Directory where experiment CSVs are written: `experiments/` under the
/// workspace's target directory, whatever the current directory is.  A
/// relative `CARGO_TARGET_DIR` is anchored at the workspace root; an
/// absolute one is used as it is.
pub fn experiments_dir() -> PathBuf {
    let workspace_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root");
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    // `join` replaces the base when `target` is absolute.
    workspace_root.join(target).join("experiments")
}

/// Write a table as CSV under [`experiments_dir`], reporting the path.
pub fn save_csv(table: &mra_workloads::Table, name: &str) {
    let path = experiments_dir().join(name);
    match table.write_csv(&path) {
        Ok(()) => println!("[csv] wrote {}", path.display()),
        Err(e) => eprintln!("[csv] FAILED to write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiments_dir_does_not_depend_on_cwd() {
        let dir = experiments_dir();
        assert!(dir.is_absolute(), "{}", dir.display());
        assert!(dir.ends_with("experiments"), "{}", dir.display());
    }
}
