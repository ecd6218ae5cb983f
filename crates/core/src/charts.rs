//! Plain-text chart rendering for the figure binaries: the paper's Figs.
//! 3–5 are line/bar charts, and the harness mirrors them as ASCII so the
//! *shape* (crossings of the real-time line, bar families per format) is
//! visible directly in a terminal.

use crate::figures::{Fig3Data, FormatGridData};

/// Renders one horizontal bar of width proportional to `value / max`.
fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 || value <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64).round() as usize;
    "█".repeat(n.min(width))
}

/// An annotated horizontal bar chart: one row per (label, value), scaled to
/// the maximum value; `mark` draws a vertical reference line (e.g. the
/// real-time requirement).
///
/// # Examples
///
/// ```
/// use mcm_core::charts::hbar_chart;
///
/// let rows = vec![("1 ch".to_string(), 46.9), ("2 ch".to_string(), 23.4)];
/// let chart = hbar_chart(&rows, Some(33.3), 40, "ms");
/// assert!(chart.contains("1 ch"));
/// assert!(chart.contains("46.9"));
/// ```
pub fn hbar_chart(rows: &[(String, f64)], mark: Option<f64>, width: usize, unit: &str) -> String {
    let max = rows
        .iter()
        .map(|&(_, v)| v)
        .chain(mark)
        .fold(0.0f64, f64::max);
    if max <= 0.0 {
        return String::from("  (no data)\n");
    }
    let label_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mark_col =
        mark.map(|m| (((m / max) * width as f64).round() as usize).min(width.saturating_sub(1)));
    let mut out = String::new();
    for (label, value) in rows {
        let mut b = format!("{:<w$}", bar(*value, max, width), w = width);
        if let Some(col) = mark_col {
            if col < width {
                // Overlay the reference line.
                let mut chars: Vec<char> = b.chars().collect();
                chars[col] = if chars[col] == '█' { '▓' } else { '|' };
                b = chars.into_iter().collect();
            }
        }
        out.push_str(&format!("  {label:<label_w$} {b} {value:.1} {unit}\n"));
    }
    if let Some(m) = mark {
        out.push_str(&format!(
            "  {:<label_w$} {:>w$}\n",
            "",
            format!("| = {m:.1} {unit}"),
            w = width + 8
        ));
    }
    out
}

/// Fig. 3 as a chart: one bar per channel count at a chosen clock, against
/// the real-time line.
pub fn fig3_chart(d: &Fig3Data, clock_mhz: u64) -> String {
    let Some(col) = d.clocks_mhz.iter().position(|&c| c == clock_mhz) else {
        return format!("  (no data for {clock_mhz} MHz)\n");
    };
    let rows: Vec<(String, f64)> = d
        .channels
        .iter()
        .zip(&d.cells)
        .filter_map(|(ch, row)| row[col].access_ms.map(|ms| (format!("{ch} ch"), ms)))
        .collect();
    let mut out = format!("  720p30 access time @ {clock_mhz} MHz (| = 30 fps budget)\n");
    out.push_str(&hbar_chart(&rows, Some(d.realtime_ms), 48, "ms"));
    out
}

/// Fig. 5 as a chart: total power bars per channel count for one format
/// column (suppressed bars shown as zero, as in the paper).
pub fn fig5_chart(d: &FormatGridData, point_index: usize) -> String {
    let Some(label) = d.points.get(point_index) else {
        return String::from("  (no such format)\n");
    };
    let rows: Vec<(String, f64)> = d
        .channels
        .iter()
        .zip(&d.cells)
        .map(|(ch, row)| {
            (
                format!("{ch} ch"),
                row[point_index].reported_power_mw().unwrap_or(0.0),
            )
        })
        .collect();
    let mut out = format!("  power for {label} (0 = fails real time with margin)\n");
    out.push_str(&hbar_chart(&rows, None, 48, "mW"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bars_scale_linearly() {
        assert_eq!(bar(50.0, 100.0, 10), "█████");
        assert_eq!(bar(100.0, 100.0, 10), "██████████");
        assert_eq!(bar(0.0, 100.0, 10), "");
        assert_eq!(bar(200.0, 100.0, 10).chars().count(), 10); // clamped
    }

    #[test]
    fn chart_contains_labels_values_and_mark() {
        let rows = vec![
            ("one".to_string(), 10.0),
            ("two".to_string(), 20.0),
            ("three".to_string(), 40.0),
        ];
        let c = hbar_chart(&rows, Some(30.0), 20, "ms");
        for needle in ["one", "two", "three", "10.0 ms", "40.0 ms", "= 30.0 ms"] {
            assert!(c.contains(needle), "missing {needle} in:\n{c}");
        }
        // The longest bar is longest.
        let lens: Vec<usize> = c
            .lines()
            .take(3)
            .map(|l| l.chars().filter(|&ch| ch == '█' || ch == '▓').count())
            .collect();
        assert!(lens[0] < lens[1] && lens[1] < lens[2]);
    }

    #[test]
    fn empty_chart_is_graceful() {
        assert!(hbar_chart(&[], None, 20, "x").contains("no data"));
    }
}
