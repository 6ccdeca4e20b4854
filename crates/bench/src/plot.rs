//! Minimal terminal bar charts for the `tables --plot` flag: render a
//! numeric column of a [`Table`] as labeled unicode bars so curve-shaped
//! results (E2's decay, E7's failure rates, E12's convergence) are visible
//! at a glance without leaving the terminal.

use crate::table::Table;

const BLOCKS: [&str; 8] = ["▏", "▎", "▍", "▌", "▋", "▊", "▉", "█"];

/// Render one bar of fractional width `frac ∈ [0, 1]` over `width` cells.
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "floors of values clamped into [0, width] and [0, 8)"
)]
fn bar(frac: f64, width: usize) -> String {
    let cells = frac.clamp(0.0, 1.0) * width as f64;
    let full = cells.floor() as usize;
    let rem = cells - full as f64;
    let mut s = "█".repeat(full);
    if full < width && rem > 0.0 {
        let idx = ((rem * 8.0).floor() as usize).min(7);
        s.push_str(BLOCKS[idx]);
    }
    s
}

/// Render `table`'s numeric column `col` as a bar chart, labeled by the
/// concatenation of the leading label columns. Non-numeric cells ("-")
/// are skipped. Returns `None` when nothing in the column parses.
pub fn plot_column(table: &Table, col: usize, width: usize) -> Option<String> {
    assert!(col < table.headers.len(), "column out of range");
    let points: Vec<(String, f64)> = table
        .rows
        .iter()
        .filter_map(|row| {
            let v: f64 = row[col].parse().ok()?;
            let label = row[..col.min(3)].join(" ");
            Some((label, v))
        })
        .collect();
    if points.is_empty() {
        return None;
    }
    let max = points.iter().map(|p| p.1).fold(0.0, f64::max).max(1e-12);
    let label_w = points.iter().map(|p| p.0.len()).max().unwrap_or(0);
    let mut out = String::new();
    out.push_str(&format!("  {} (bar max = {max:.3})\n", table.headers[col]));
    for (label, v) in &points {
        out.push_str(&format!(
            "  {label:>label_w$} |{:<width$} {v:.3}\n",
            bar(v / max, width)
        ));
    }
    Some(out)
}

/// Default plotted column per experiment: the main ratio/rate column.
pub fn default_plot_column(title: &str) -> Option<usize> {
    // choose by experiment id prefix in the title
    let id = title.split_whitespace().next()?;
    Some(match id {
        "E2" => 2,  // mean ratio
        "E7" => 2,  // measured failure rate
        "E12" => 2, // worst ratio
        "E18" => 1, // mean semi ratio
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_table() -> Table {
        let mut t = Table::new("E2 demo", &["graph", "s", "mean ratio"]);
        t.row(vec!["q".into(), "1".into(), "6.0".into()]);
        t.row(vec!["q".into(), "2".into(), "3.0".into()]);
        t.row(vec!["q".into(), "4".into(), "1.5".into()]);
        t
    }

    #[test]
    fn bars_scale_monotonically() {
        assert_eq!(bar(0.0, 10), "");
        assert_eq!(bar(1.0, 10).chars().count(), 10);
        assert!(bar(0.5, 10).chars().count() <= 6);
    }

    #[test]
    fn plot_renders_all_rows() {
        let t = demo_table();
        let p = plot_column(&t, 2, 20).expect("numeric column");
        assert_eq!(p.lines().count(), 4); // header + 3 bars
        assert!(p.contains("6.000"));
        assert!(p.contains("1.500"));
        // the s=1 bar is the longest
        let lines: Vec<&str> = p.lines().skip(1).collect();
        let count_full = |l: &str| l.matches('█').count();
        assert!(count_full(lines[0]) > count_full(lines[2]));
    }

    #[test]
    fn skips_non_numeric() {
        let mut t = Table::new("E7 x", &["k", "tau", "rate"]);
        t.row(vec!["1".into(), "2".into(), "-".into()]);
        assert!(plot_column(&t, 2, 10).is_none());
    }

    #[test]
    fn default_columns() {
        assert_eq!(default_plot_column("E2 power of few choices"), Some(2));
        assert_eq!(default_plot_column("E1 log-sparsity"), None);
    }
}
