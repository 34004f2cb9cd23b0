//! Shared experiment harness: structured logs and table rendering.
//!
//! Each `exp_*` binary produces one [`ExperimentLog`], printed both as a
//! human-readable markdown table (mirroring the rows EXPERIMENTS.md
//! records) and, with `--json`, as machine-readable JSON for archival.

use crate::json::{json_array, json_str};
use std::fmt::Write as _;

/// A single experiment's output: a table plus free-form notes.
#[derive(Debug, Clone)]
pub struct ExperimentLog {
    /// Experiment id (e.g. "E1").
    pub id: String,
    /// Title line.
    pub title: String,
    /// Source in the paper (e.g. "Example 3.1 / 4.1").
    pub paper_ref: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Table rows.
    pub rows: Vec<Vec<String>>,
    /// Additional observations.
    pub notes: Vec<String>,
}

impl ExperimentLog {
    /// Start a log.
    pub fn new(id: &str, title: &str, paper_ref: &str, columns: &[&str]) -> ExperimentLog {
        ExperimentLog {
            id: id.to_string(),
            title: title.to_string(),
            paper_ref: paper_ref.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row (must match the column count).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Append a note.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Render as markdown.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "## {} — {}", self.id, self.title);
        let _ = writeln!(out, "paper: {}\n", self.paper_ref);
        out.push_str(&markdown_table(&self.columns, &self.rows));
        for n in &self.notes {
            let _ = writeln!(out, "\n> {n}");
        }
        out
    }

    /// Render as JSON (hand-rolled; the container has no serialization
    /// dependency).
    pub fn to_json(&self) -> String {
        let strs = |xs: &[String]| json_array(xs.iter().map(|s| json_str(s)), ", ");
        let rows = json_array(self.rows.iter().map(|r| strs(r)), ", ");
        format!(
            "{{\n  \"id\": {},\n  \"title\": {},\n  \"paper_ref\": {},\n  \"columns\": {},\n  \"rows\": {},\n  \"notes\": {}\n}}",
            json_str(&self.id),
            json_str(&self.title),
            json_str(&self.paper_ref),
            strs(&self.columns),
            rows,
            strs(&self.notes),
        )
    }

    /// Print to stdout; honours a `--json` CLI flag.
    pub fn emit(&self) {
        if std::env::args().any(|a| a == "--json") {
            println!("{}", self.to_json());
        } else {
            println!("{}", self.render());
        }
    }
}

/// Render a markdown table with aligned columns.
pub fn markdown_table(columns: &[String], rows: &[Vec<String>]) -> String {
    let ncols = columns.len();
    let mut widths: Vec<usize> = columns.iter().map(|c| c.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let emit_row = |out: &mut String, cells: &[String]| {
        out.push('|');
        for (i, w) in widths.iter().enumerate().take(ncols) {
            let cell = cells.get(i).map(String::as_str).unwrap_or("");
            let _ = write!(out, " {cell:width$} |", width = w);
        }
        out.push('\n');
    };
    emit_row(&mut out, columns);
    out.push('|');
    for w in &widths {
        let _ = write!(out, "{}|", "-".repeat(w + 2));
    }
    out.push('\n');
    for row in rows {
        emit_row(&mut out, row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = markdown_table(
            &["name".into(), "value".into()],
            &[vec!["a".into(), "1".into()], vec!["longer".into(), "22".into()]],
        );
        assert!(t.contains("| name   | value |"), "{t}");
        assert!(t.contains("| longer | 22    |"), "{t}");
    }

    #[test]
    fn log_roundtrip() {
        let mut log = ExperimentLog::new("E0", "demo", "none", &["k", "v"]);
        log.row(&["x".into(), "y".into()]);
        log.note("observation");
        let s = log.render();
        assert!(s.contains("## E0 — demo"));
        assert!(s.contains("> observation"));
        let json = log.to_json();
        assert!(json.contains("\"id\": \"E0\""), "{json}");
        assert!(json.contains("\"rows\": [[\"x\", \"y\"]]"), "{json}");
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn row_arity_checked() {
        let mut log = ExperimentLog::new("E0", "demo", "none", &["a", "b"]);
        log.row(&["only-one".into()]);
    }
}
