//! Row and CSV output for the experiment harness.
//!
//! Every `repro` subcommand prints the paper-style rows to stdout *and*
//! writes the same series to `results/<name>.csv` so the exhibits can be
//! re-plotted with any tool.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// A simple CSV/row sink for one exhibit.
pub struct Report {
    name: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    /// Starts a report for exhibit `name` (e.g. `"fig9"`).
    pub fn new(name: &str, header: &[&str]) -> Self {
        Report {
            name: name.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringifying each cell).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Number of rows so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Prints an aligned table to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (w, cell) in widths.iter().zip(cells) {
                s.push_str(&format!("{cell:>w$}  ", w = w));
            }
            println!("  {}", s.trim_end());
        };
        line(&self.header);
        for row in &self.rows {
            line(row);
        }
    }

    /// Writes `results/<name>.csv` under `dir`.
    fn write_csv(&self, dir: &Path) -> std::io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.name));
        let mut f = fs::File::create(&path)?;
        writeln!(f, "{}", self.header.join(","))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join(","))?;
        }
        Ok(path)
    }

    /// Writes the CSV and reports the path. A failed write ends the
    /// process with exit 1 naming the path, so a run never reads as
    /// complete with an exhibit missing.
    pub fn save(&self, dir: &Path) {
        match self.write_csv(dir) {
            Ok(path) => println!("  -> wrote {}", path.display()),
            Err(e) => {
                let path = dir.join(format!("{}.csv", self.name));
                eprintln!("could not write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }

    /// Prints the table and writes the CSV ([`Report::save`]).
    pub fn finish(&self, dir: &Path) {
        self.print();
        self.save(dir);
    }
}

/// Formats a float with 3 significant-ish decimals for table cells.
pub fn f3(v: f64) -> String {
    if v.is_nan() {
        "-".to_string()
    } else {
        format!("{v:.3}")
    }
}

/// Formats a percentage.
pub fn pct(v: f64) -> String {
    if v.is_nan() {
        "-".to_string()
    } else {
        format!("{v:.2}%")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_round_trip() {
        #[expect(
            clippy::disallowed_methods,
            reason = "the test writes a scratch CSV under the system temp dir"
        )]
        let dir = std::env::temp_dir().join("ms_bench_report_test");
        let mut r = Report::new("unit", &["a", "b"]);
        r.row(&["1".into(), "x".into()]);
        r.row(&["2".into(), "y".into()]);
        let path = r.write_csv(&dir).unwrap();
        let body = std::fs::read_to_string(path).unwrap();
        assert_eq!(body, "a,b\n1,x\n2,y\n");
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn row_width_checked() {
        let mut r = Report::new("unit", &["a", "b"]);
        r.row(&["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f3(f64::NAN), "-");
        assert_eq!(pct(12.345), "12.35%");
        assert_eq!(pct(f64::NAN), "-");
    }
}
