//! Markdown/CSV reporting helpers shared by the experiment artifacts, and
//! the workspace's default results directory.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A simple table accumulated row by row and rendered as GitHub-flavoured
/// markdown and CSV.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Self {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("\n## {}\n\n", self.title);
        out.push_str(&format!("| {} |\n", self.header.join(" | ")));
        out.push_str(&format!("|{}\n", "---|".repeat(self.header.len())));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }

    /// Renders as CSV (header + rows).
    pub fn to_csv(&self) -> String {
        let mut out = self.header.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Writes the CSV as `<file_stem>.csv` in `dir`, printing nothing (the
    /// suite's concurrent artifact workers must not interleave markdown on
    /// stdout).
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the directory or file cannot be written.
    pub fn write_csv(&self, dir: &Path, file_stem: &str) -> io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{file_stem}.csv"));
        fs::write(&path, self.to_csv())?;
        Ok(path)
    }
}

/// `results/` beside the workspace root: where experiment outputs go unless
/// `XBAR_RESULTS_DIR` names another directory (read once, by
/// [`crate::runner::CommonArgs`]).
pub fn default_results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench → workspace root is two levels up.
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .unwrap_or(manifest)
        .join("results")
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}", 100.0 * x)
}

/// Formats a ratio like the paper's compression rates ("19.69x").
pub fn rate(x: f64) -> String {
    format!("{x:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_and_csv_shapes() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.contains("## Demo"));
        assert!(md.contains("| 1 | 2 |"));
        let csv = t.to_csv();
        assert_eq!(csv, "a,b\n1,2\n");
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(pct(0.8349), "83.5");
        assert_eq!(rate(19.687), "19.69x");
    }

    #[test]
    fn results_dir_is_workspace_level() {
        let d = default_results_dir();
        assert!(d.ends_with("results"));
        assert!(d.parent().unwrap().join("crates").is_dir());
    }
}
