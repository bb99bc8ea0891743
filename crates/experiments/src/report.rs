//! Figure/table data structures and plain-text rendering.
//!
//! Every experiment produces a [`Figure`]: named series of `(x, y)` points
//! (one per curve in the paper's plot) plus free-form notes. The renderer
//! prints an aligned table with one row per x value and one column per
//! series — the same rows the paper's plots are drawn from.

use std::fmt::Write as _;

/// One curve of a figure.
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    /// Legend label (e.g. "Vitis - high correlation").
    pub label: String,
    /// `(x, y)` points in ascending x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Create a series from points.
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series {
            label: label.into(),
            points,
        }
    }

    /// The y value at a given x, if present.
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|(px, _)| (px - x).abs() < 1e-9)
            .map(|&(_, y)| y)
    }
}

/// A complete regenerated figure.
#[derive(Clone, Debug, Default)]
pub struct Figure {
    /// Title, e.g. "Figure 4(a): traffic overhead vs number of friends".
    pub title: String,
    /// Label of the x axis.
    pub x_label: String,
    /// Label of the y axis.
    pub y_label: String,
    /// The curves.
    pub series: Vec<Series>,
    /// Free-form annotations (paper-vs-measured remarks, substitutions).
    pub notes: Vec<String>,
}

impl Figure {
    /// Create an empty figure.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Figure {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Add a curve.
    pub fn push_series(&mut self, s: Series) {
        self.series.push(s);
    }

    /// Add an annotation line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Find a series by its label.
    pub fn series_named(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// All distinct x values across series, ascending.
    pub fn x_values(&self) -> Vec<f64> {
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|&(x, _)| x))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("x values are finite"));
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        xs
    }

    /// Render as an aligned plain-text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        if self.series.is_empty() {
            let _ = writeln!(out, "(no data)");
        } else {
            let xs = self.x_values();
            let mut header = vec![format!("{} \\ {}", self.x_label, self.y_label)];
            header.extend(self.series.iter().map(|s| s.label.clone()));
            let mut rows: Vec<Vec<String>> = vec![header];
            for &x in &xs {
                let mut row = vec![trim_float(x)];
                for s in &self.series {
                    row.push(match s.y_at(x) {
                        Some(y) => format!("{y:.2}"),
                        None => "-".to_string(),
                    });
                }
                rows.push(row);
            }
            let widths: Vec<usize> = (0..rows[0].len())
                .map(|c| rows.iter().map(|r| r[c].len()).max().unwrap_or(0))
                .collect();
            for (i, row) in rows.iter().enumerate() {
                let line: Vec<String> = row
                    .iter()
                    .zip(&widths)
                    .map(|(cell, w)| format!("{cell:>w$}", w = w))
                    .collect();
                let _ = writeln!(out, "  {}", line.join("  "));
                if i == 0 {
                    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
                    let _ = writeln!(out, "  {}", "-".repeat(total));
                }
            }
        }
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        out
    }
}

fn trim_float(x: f64) -> String {
    if (x - x.round()).abs() < 1e-9 {
        format!("{}", x.round() as i64)
    } else {
        format!("{x:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> Figure {
        let mut f = Figure::new("Test", "x", "y");
        f.push_series(Series::new("a", vec![(0.0, 1.0), (1.0, 2.0)]));
        f.push_series(Series::new("b", vec![(1.0, 5.0), (2.0, 6.5)]));
        f.note("hello");
        f
    }

    #[test]
    fn x_values_union_sorted() {
        assert_eq!(fig().x_values(), vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn y_at_exact_match_only() {
        let f = fig();
        assert_eq!(f.series_named("a").unwrap().y_at(1.0), Some(2.0));
        assert_eq!(f.series_named("a").unwrap().y_at(2.0), None);
        assert!(f.series_named("zzz").is_none());
    }

    #[test]
    fn render_contains_all_cells() {
        let r = fig().render();
        assert!(r.contains("== Test =="));
        assert!(r.contains("6.50"));
        assert!(r.contains('-'), "missing cells are dashes");
        assert!(r.contains("note: hello"));
        // Row for x=0 exists with the integer form.
        assert!(r.lines().any(|l| l.trim_start().starts_with('0')));
    }

    #[test]
    fn trim_float_formats() {
        assert_eq!(trim_float(3.0), "3");
        assert_eq!(trim_float(0.25), "0.25");
    }
}
