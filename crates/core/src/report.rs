//! Cross-seed grid reports: aggregated results tables with structured
//! CSV/JSON export.
//!
//! A [`GridReport`] is what a results section prints: one row per
//! scenario-axis grid point, one [`Aggregate`] cell per declared column,
//! each cell condensing that column's per-run (per-seed) values into mean
//! ± stddev plus the percentile-of-percentiles spread. Produced by the
//! [`Scalars`](crate::metric::Scalars) metric; exported with
//! [`GridReport::to_csv`] / [`GridReport::to_json`] so EXPERIMENTS.md
//! tables come straight out of one grid run.

use std::fmt;

use ethmeter_measure::csv::escape_field;
use ethmeter_stats::table::Table;
use ethmeter_stats::Aggregate;

use crate::grid::GridPoint;

/// One grid point's aggregated row.
#[derive(Debug, Clone, PartialEq)]
pub struct GridRow {
    /// The scenario-axis coordinates this row aggregates over.
    pub point: GridPoint,
    /// One aggregate per report column, in column order.
    pub cells: Vec<Aggregate>,
}

/// A cross-seed results table over a whole grid.
#[derive(Debug, Clone, PartialEq)]
pub struct GridReport {
    /// Axis names, in declaration order (empty for an axis-less grid).
    pub axes: Vec<String>,
    /// Column (statistic) names, in declaration order.
    pub columns: Vec<String>,
    /// One row per grid point, in point order.
    pub rows: Vec<GridRow>,
}

impl GridReport {
    /// Builds a report from per-point run samples: every column's value,
    /// one run after another, in column order.
    ///
    /// Non-finite samples (a probe dividing by zero, say) are excluded
    /// from aggregation — each cell's `runs` counts only finite values —
    /// so one bad probe result cannot abort a completed grid at finish
    /// time.
    pub(crate) fn from_samples(columns: Vec<String>, points: Vec<(GridPoint, Vec<f64>)>) -> Self {
        let axes = points
            .first()
            .map(|(p, _)| p.coords().iter().map(|(a, _)| a.clone()).collect())
            .unwrap_or_default();
        let width = columns.len();
        let rows = points
            .into_iter()
            .map(|(point, values)| GridRow {
                point,
                cells: (0..width)
                    .map(|col| {
                        let column = values.iter().skip(col).step_by(width).copied();
                        Aggregate::from_values(column.filter(|v| v.is_finite()))
                    })
                    .collect(),
            })
            .collect();
        GridReport {
            axes,
            columns,
            rows,
        }
    }

    /// The row of one grid point, if present.
    pub fn row(&self, point: &GridPoint) -> Option<&GridRow> {
        self.rows.iter().find(|r| &r.point == point)
    }

    /// Serializes the report as CSV: one header, one row per grid point.
    ///
    /// Axis-value and header fields are quoted when they contain commas,
    /// quotes, or newlines (RFC-4180 style, see
    /// [`ethmeter_measure::csv::escape_field`]); every statistic column
    /// expands to `<name>_runs`, `<name>_mean`, `<name>_sd`, `<name>_min`,
    /// `<name>_p50`, `<name>_p95`, `<name>_max`.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for axis in &self.axes {
            out.push_str(&escape_field(axis));
            out.push(',');
        }
        for (i, col) in self.columns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            for (j, stat) in ["runs", "mean", "sd", "min", "p50", "p95", "max"]
                .iter()
                .enumerate()
            {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&escape_field(&format!("{col}_{stat}")));
            }
        }
        out.push('\n');
        for row in &self.rows {
            for (_, value) in row.point.coords() {
                out.push_str(&escape_field(value));
                out.push(',');
            }
            for (i, cell) in row.cells.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{},{},{},{},{},{},{}",
                    cell.runs,
                    fmt_f64(cell.mean),
                    fmt_f64(cell.std_dev),
                    fmt_f64(cell.min),
                    fmt_f64(cell.p50),
                    fmt_f64(cell.p95),
                    fmt_f64(cell.max),
                ));
            }
            out.push('\n');
        }
        out
    }

    /// Serializes the report as JSON (dependency-free, stable key order):
    /// `{"axes": [...], "columns": [...], "rows": [{"point": {...},
    /// "stats": {"<col>": {"runs": .., "mean": .., ...}}}]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"axes\": [");
        push_json_str_list(&mut out, &self.axes);
        out.push_str("],\n  \"columns\": [");
        push_json_str_list(&mut out, &self.columns);
        out.push_str("],\n  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str("    {\"point\": {");
            for (j, (axis, value)) in row.point.coords().iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{}: {}", json_str(axis), json_str(value)));
            }
            out.push_str("}, \"stats\": {");
            for (j, (col, cell)) in self.columns.iter().zip(&row.cells).enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{}: {{\"runs\": {}, \"mean\": {}, \"sd\": {}, \"min\": {}, \
                     \"p50\": {}, \"p95\": {}, \"max\": {}}}",
                    json_str(col),
                    cell.runs,
                    fmt_f64(cell.mean),
                    fmt_f64(cell.std_dev),
                    fmt_f64(cell.min),
                    fmt_f64(cell.p50),
                    fmt_f64(cell.p95),
                    fmt_f64(cell.max),
                ));
            }
            out.push_str("}}");
            out.push_str(if i + 1 < self.rows.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

impl fmt::Display for GridReport {
    /// Renders the paper-style text table: one row per grid point, each
    /// statistic shown as `mean ± sd`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut headers: Vec<String> = if self.axes.is_empty() {
            vec!["point".to_owned()]
        } else {
            self.axes.clone()
        };
        headers.push("runs".to_owned());
        headers.extend(self.columns.iter().cloned());
        let mut t = Table::new(headers);
        for row in &self.rows {
            let mut cells: Vec<String> = if self.axes.is_empty() {
                vec![row.point.to_string()]
            } else {
                row.point.coords().iter().map(|(_, v)| v.clone()).collect()
            };
            cells.push(row.cells.first().map_or(0, |c| c.runs).to_string());
            cells.extend(
                row.cells
                    .iter()
                    .map(|c| format!("{:.3} ± {:.3}", c.mean, c.std_dev)),
            );
            t.row(cells);
        }
        write!(f, "{t}")
    }
}

/// Formats a float for CSV/JSON: finite shortest-roundtrip form.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `{}` on f64 is shortest-roundtrip; always valid CSV/JSON.
        s
    } else {
        "null".to_owned()
    }
}

/// JSON string literal with minimal escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn push_json_str_list(out: &mut String, items: &[String]) {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&json_str(item));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> GridReport {
        let point = |rate: &str| GridPoint::from_coords([("tx_rate", rate)]);
        GridReport::from_samples(
            vec!["head".to_owned(), "forks".to_owned()],
            vec![
                (point("0.5"), vec![10.0, 1.0, 12.0, 3.0]),
                (point("2"), vec![11.0, 2.0, 13.0, 2.0]),
            ],
        )
    }

    #[test]
    fn csv_shape_and_values() {
        let csv = sample_report().to_csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "tx_rate,head_runs,head_mean,head_sd,head_min,head_p50,head_p95,head_max,\
             forks_runs,forks_mean,forks_sd,forks_min,forks_p50,forks_p95,forks_max"
        );
        let row = lines.next().unwrap();
        assert!(row.starts_with("0.5,2,11,1,10,10,12,12,"), "{row}");
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn json_parses_by_eye_and_quotes_strings() {
        let json = sample_report().to_json();
        assert!(json.contains("\"axes\": [\"tx_rate\"]"));
        assert!(json.contains("\"columns\": [\"head\", \"forks\"]"));
        assert!(json.contains("{\"point\": {\"tx_rate\": \"0.5\"}"));
        assert!(json.contains("\"mean\": 11"));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn display_renders_mean_pm_sd() {
        let text = sample_report().to_string();
        assert!(text.contains("tx_rate"));
        assert!(text.contains("11.000 ± 1.000"));
    }

    #[test]
    fn non_finite_samples_are_excluded_not_fatal() {
        let report = GridReport::from_samples(
            vec!["ratio".to_owned()],
            vec![(
                GridPoint::from_coords([("a", "1")]),
                vec![2.0, f64::NAN, 4.0, f64::INFINITY],
            )],
        );
        let cell = &report.rows[0].cells[0];
        assert_eq!(cell.runs, 2, "only finite samples aggregate");
        assert_eq!(cell.mean, 3.0);
        assert!(report.to_csv().contains("1,2,3"));
    }

    #[test]
    fn row_lookup_by_point() {
        let report = sample_report();
        let p = GridPoint::from_coords([("tx_rate", "2")]);
        assert_eq!(report.row(&p).unwrap().cells[0].mean, 12.0);
        let missing = GridPoint::from_coords([("tx_rate", "9")]);
        assert!(report.row(&missing).is_none());
    }
}
