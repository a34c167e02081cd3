//! Minimal text-table and CSV rendering for experiment output.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Directory where experiment CSVs are written: `experiments/` under the
/// workspace's target directory, whatever the current directory is.  A
/// relative `CARGO_TARGET_DIR` is anchored at the workspace root; an
/// absolute one is used as it is.
pub fn experiments_dir() -> PathBuf {
    let workspace_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/workloads sits two levels below the workspace root");
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    // `join` replaces the base when `target` is absolute.
    workspace_root.join(target).join("experiments")
}

/// A simple column-aligned table that can also be written as CSV.
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    title: String,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            title: title.to_string(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{:>w$}", h, w = widths[i]))
            .collect();
        let _ = writeln!(out, "{}", line.join("  "));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
        out
    }

    /// Render as CSV (RFC-4180-ish; quotes cells containing separators).
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers.iter().map(|h| esc(h)).collect::<Vec<_>>().join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Write the CSV next to other experiment artifacts, creating parent
    /// directories as needed.  Returns the path written.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_csv())
    }

    /// Write the CSV as `name` under [`experiments_dir`], reporting the path.
    pub fn save_csv(&self, name: &str) {
        let path = experiments_dir().join(name);
        match self.write_csv(&path) {
            Ok(()) => println!("[csv] wrote {}", path.display()),
            Err(e) => eprintln!("[csv] FAILED to write {}: {e}", path.display()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("demo", &["phi", "algo", "use%"]);
        t.row(vec!["4".into(), "With loan".into(), "12.5".into()]);
        t.row(vec!["80".into(), "Incremental".into(), "3.1".into()]);
        t
    }

    #[test]
    fn renders_aligned() {
        let s = sample().render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("phi"));
        let lines: Vec<&str> = s.lines().collect();
        // All data lines equally wide (right-aligned columns).
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    fn csv_escapes() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["with,comma".into(), "with\"quote".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"with,comma\""));
        assert!(csv.contains("\"with\"\"quote\""));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_checked() {
        let mut t = Table::new("x", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn csv_writes_to_disk() {
        let dir = std::env::temp_dir().join("mra_table_test");
        let path = dir.join("t.csv");
        sample().write_csv(&path).unwrap();
        let s = std::fs::read_to_string(&path).unwrap();
        assert!(s.starts_with("phi,algo,use%"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn experiments_dir_does_not_depend_on_cwd() {
        let dir = experiments_dir();
        assert!(dir.is_absolute(), "{}", dir.display());
        assert!(dir.ends_with("experiments"), "{}", dir.display());
    }
}
