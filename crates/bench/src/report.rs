//! The cells and tables every `results/*.md` artifact is rendered from.

/// A simple left-aligned table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new<I, S>(header: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Table { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row; short rows are padded with empty cells.
    pub fn row<I, S>(&mut self, cells: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
    }

    /// Renders the table as a Markdown pipe table with padded columns.
    pub fn markdown(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count().max(3)).collect();
        for row in &self.rows {
            for (width, cell) in widths.iter_mut().zip(row) {
                *width = (*width).max(cell.chars().count());
            }
        }
        let line = |cells: &mut dyn Iterator<Item = String>| {
            let cells: Vec<String> = cells.zip(&widths).map(|(c, &w)| format!("{c:<w$}")).collect();
            format!("| {} |\n", cells.join(" | "))
        };
        let mut out = line(&mut self.header.iter().cloned());
        out += &line(&mut widths.iter().map(|&w| "-".repeat(w)));
        for row in &self.rows {
            out += &line(&mut row.iter().cloned());
        }
        out
    }
}

/// Marks a value that depends on the host it was measured on — a wall-clock
/// time, or the incumbent of a solver that ran out of budget — with a
/// trailing `*`, the marker `tests/reproduce.rs` skips.
pub fn host(value: String, host_dependent: bool) -> String {
    if host_dependent {
        value + "*"
    } else {
        value
    }
}

/// Formats a millisecond reading the way the paper's log-scale bars do:
/// `"(>cap)"`-style marker for capped values, sub-millisecond precision
/// for fast runs.
pub fn fmt_ms(ms: f64, capped: bool) -> String {
    if capped {
        return format!(">{:.0e} (capped)", ms);
    }
    if ms < 1.0 {
        format!("{ms:.3}")
    } else if ms < 1000.0 {
        format!("{ms:.1}")
    } else {
        format!("{:.1}k", ms / 1000.0)
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;

    #[test]
    fn markdown_pads_columns_and_short_rows() {
        let mut t = Table::new(["name", "v", "w"]);
        t.row(["hermes", "4"]);
        assert_eq!(
            t.markdown(),
            "| name   | v   | w   |\n| ------ | --- | --- |\n| hermes | 4   |     |\n"
        );
    }

    #[test]
    fn ms_formatting() {
        assert_eq!(fmt_ms(0.5, false), "0.500");
        assert_eq!(fmt_ms(12.34, false), "12.3");
        assert_eq!(fmt_ms(4200.0, false), "4.2k");
        assert!(fmt_ms(1e7, true).contains("capped"));
    }
}
