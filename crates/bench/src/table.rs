//! Minimal table/CSV output (no external deps).

use std::io::Write;
use std::path::{Path, PathBuf};

/// The committed results directory, `bench_results/` at the workspace root
/// — wherever the binary is started from.
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench_results")
}

/// One experiment's result table.
#[derive(Clone, Debug)]
pub struct Table {
    /// Human title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of stringified cells.
    pub rows: Vec<Vec<String>>,
    /// Free-text notes printed under the table (expected shape, caveats).
    pub notes: Vec<String>,
}

impl Table {
    /// New empty table.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: vec![],
            notes: vec![],
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Append a note line.
    pub fn note(&mut self, s: &str) {
        self.notes.push(s.to_string());
    }

    /// Render to stdout under the experiment id `id`.
    pub fn print(&self, id: &str) {
        println!("\n== {} — {} ==", id.to_uppercase(), self.title);
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let s: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            println!("  {}", s.join("  "));
        };
        line(&self.headers);
        println!(
            "  {}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for r in &self.rows {
            line(r);
        }
        for n in &self.notes {
            println!("  note: {n}");
        }
    }

    /// Write as CSV to [`results_dir`]`/<id>.csv`.
    pub fn write_csv(&self, id: &str) -> std::io::Result<PathBuf> {
        let dir = results_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{id}.csv"));
        let mut f = std::fs::File::create(&path)?;
        writeln!(f, "{}", self.headers.join(","))?;
        for r in &self.rows {
            writeln!(f, "{}", r.join(","))?;
        }
        Ok(path)
    }
}

/// Format helpers.
pub fn f(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.note("hello");
        t.print("tx");
        assert_eq!(t.rows.len(), 1);
    }

    #[test]
    #[should_panic]
    fn arity_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn fmt() {
        assert_eq!(f(0.0), "0");
        assert_eq!(f(1234.0), "1234");
        assert_eq!(f(1.5), "1.50");
    }
}
