//! Minimal table type the experiment harness emits and the `tables`
//! binary prints.

use std::fmt;

/// A titled table of strings — one per regenerated paper result.
#[derive(Clone, Debug)]
pub struct Table {
    /// Experiment id + description (e.g. "E2 power of few choices").
    pub title: String,
    /// Column names.
    pub headers: Vec<String>,
    /// Row-major cells.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (seeds, parameters, interpretation).
    pub notes: Vec<String>,
}

impl Table {
    /// Start a table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Append a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }
}

/// Format a float tersely for table cells.
pub fn f(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.2}")
    }
}

impl fmt::Display for Table {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(out, "\n== {} ==", self.title)?;
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |out: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(out, "|")?;
            for (w, c) in widths.iter().zip(cells) {
                write!(out, " {c:>w$} |", w = w)?;
            }
            writeln!(out)
        };
        line(out, &self.headers)?;
        let sep: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
        line(out, &sep)?;
        for row in &self.rows {
            line(out, row)?;
        }
        for n in &self.notes {
            writeln!(out, "  note: {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_prints() {
        let mut t = Table::new("E0 smoke", &["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.note("hello");
        let s = t.to_string();
        assert!(s.contains("E0 smoke"));
        assert!(s.contains("note: hello"));
        assert!(s.contains("| 1 |"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new("x", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(0.0), "0");
        assert_eq!(f(2.71875), "2.72");
        assert_eq!(f(42.42), "42.4");
        assert_eq!(f(1234.5), "1234");
    }
}
