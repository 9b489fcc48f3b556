//! Minimal fixed-width table rendering for the `repro` harness.

/// Renders rows as a fixed-width text table with a header rule.
pub fn render(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (cell, w) in cells.iter().zip(widths) {
            line.push_str(&format!(" {cell:>w$} |", w = w));
        }
        line.push('\n');
        line
    };
    out.push_str(&fmt_row(
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        &widths,
    ));
    out.push('|');
    for w in &widths {
        out.push_str(&"-".repeat(w + 2));
        out.push('|');
    }
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// Escapes a string for embedding in a JSON document (the workspace is
/// dependency-free, so the `repro --json` artifacts are emitted by hand).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON number; non-finite values (which JSON cannot
/// represent) become `null`.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

/// Formats an optional `(value, paper)` pair as `measured (paper x.x)`,
/// with `OOM` for missing values.
pub fn vs_paper(measured: Option<f64>, paper: Option<f64>) -> String {
    match (measured, paper) {
        (Some(m), Some(p)) => format!("{m:.2} ({p:.2})"),
        (Some(m), None) => format!("{m:.2} (OOM)"),
        (None, Some(p)) => format!("OOM ({p:.2})"),
        (None, None) => "OOM (OOM)".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let t = render(
            &["method", "mfu"],
            &[
                vec!["baseline".into(), "25.2".into()],
                vec!["vocab-2".into(), "49.7".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        assert!(t.contains("baseline"));
    }

    #[test]
    fn vs_paper_formats_oom() {
        assert_eq!(vs_paper(None, Some(1.0)), "OOM (1.00)");
        assert_eq!(vs_paper(Some(2.5), None), "2.50 (OOM)");
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("plain"), "plain");
    }

    #[test]
    fn json_f64_rejects_non_finite() {
        assert_eq!(json_f64(1.5), "1.500");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }
}
