//! Text-table rendering and the experiment envelope.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// A simple column-aligned text table with CSV export.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Self {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row. Panics when the cell count does not match the
    /// header count — a malformed experiment is a bug, not a runtime
    /// condition.
    #[track_caller]
    pub fn push_row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row has {} cells but the table has {} columns",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Renders an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let render_row = |out: &mut String, cells: &[String]| {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let pad = w - cell.chars().count();
                out.push_str(cell);
                out.extend(std::iter::repeat_n(' ', pad));
            }
            // Trim trailing padding.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        render_row(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            render_row(&mut out, row);
        }
        out
    }

    /// CSV export (simple quoting: cells containing commas or quotes are
    /// quoted with doubled inner quotes).
    pub fn to_csv(&self) -> String {
        let quote = |cell: &str| {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        let mut write_row = |cells: &[String]| {
            let line: Vec<String> = cells.iter().map(|c| quote(c)).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        };
        write_row(&self.headers);
        for row in &self.rows {
            write_row(row);
        }
        out
    }
}

/// One regenerated paper artifact.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Experiment {
    /// Stable id, e.g. `"table1"` or `"fig4"`; used for output file names.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    pub table: TextTable,
    /// Caveats / observations recorded alongside the table.
    pub notes: Vec<String>,
}

impl Experiment {
    pub fn new(id: impl Into<String>, title: impl Into<String>, table: TextTable) -> Self {
        Experiment {
            id: id.into(),
            title: title.into(),
            table,
            notes: Vec::new(),
        }
    }

    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Full text rendering: title, table, notes.
    pub fn render(&self) -> String {
        let mut out = format!("# {} — {}\n\n{}", self.id, self.title, self.table.render());
        if !self.notes.is_empty() {
            out.push('\n');
            for note in &self.notes {
                out.push_str(&format!("note: {note}\n"));
            }
        }
        out
    }
}

/// Formats a float with a fixed number of decimals (negative zero is
/// normalized to zero).
pub fn fmt(value: f64, decimals: usize) -> String {
    let value = if value == 0.0 { 0.0 } else { value };
    format!("{value:.decimals$}")
}

/// Formats a gain ratio as a percentage change, e.g. `1.47 -> "+47%"`.
pub fn fmt_gain(ratio: f64) -> String {
    format!("{:+.1}%", (ratio - 1.0) * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TextTable {
        let mut t = TextTable::new(["name", "value"]);
        t.push_row(["alpha", "1"]);
        t.push_row(["b", "22.5"]);
        t
    }

    #[test]
    fn render_aligns_columns() {
        let text = sample().render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "name   value");
        assert!(lines[1].starts_with("---"));
        assert_eq!(lines[2], "alpha  1");
        assert_eq!(lines[3], "b      22.5");
    }

    #[test]
    #[should_panic(expected = "2 columns")]
    fn mismatched_row_panics() {
        let mut t = sample();
        t.push_row(["only-one"]);
    }

    #[test]
    fn csv_quotes_special_cells() {
        let mut t = TextTable::new(["a", "b"]);
        t.push_row(["with,comma", "with\"quote"]);
        let csv = t.to_csv();
        assert!(csv.contains("\"with,comma\""));
        assert!(csv.contains("\"with\"\"quote\""));
        assert_eq!(csv.lines().count(), 2);
    }

    #[test]
    fn experiment_render_includes_notes() {
        let e = Experiment::new("t", "Title", sample()).with_note("a caveat");
        let text = e.render();
        assert!(text.contains("# t — Title"));
        assert!(text.contains("note: a caveat"));
    }

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(fmt_gain(1.47), "+47.0%");
        assert_eq!(fmt_gain(0.98), "-2.0%");
    }

    #[test]
    fn serde_round_trip() {
        let e = Experiment::new("x", "y", sample());
        let json = serde_json::to_string(&e).unwrap();
        let back: Experiment = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }
}
