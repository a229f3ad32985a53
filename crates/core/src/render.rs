//! ASCII rendering of the online graph (the Figure-3 view, terminal
//! edition) and CSV export of its series.

use std::fmt::Write as _;

use prophet_mc::Series;

/// Glyphs assigned to series in order.
const GLYPHS: [char; 6] = ['*', 'o', 'x', '^', '@', '%'];

/// Render one or more series as an ASCII line chart.
///
/// Series whose style words include `y2` are scaled against a secondary
/// axis (the paper's Figure 3 plots overload probability on y1 and
/// capacity/demand magnitudes on y2). Each axis is normalized to its own
/// min/max across its series.
pub fn ascii_chart(series: &[&Series], width: usize, height: usize) -> String {
    let width = width.clamp(10, 400);
    let height = height.clamp(4, 100);
    let mut out = String::new();
    if series.is_empty() || series.iter().all(|s| s.points.is_empty()) {
        out.push_str("(no data)\n");
        return out;
    }

    // Split series across the two axes.
    let on_y2: Vec<bool> = series
        .iter()
        .map(|s| s.style.iter().any(|w| w.eq_ignore_ascii_case("y2")))
        .collect();
    let axis_range = |want_y2: bool| -> Option<(f64, f64)> {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (s, &is_y2) in series.iter().zip(&on_y2) {
            if is_y2 == want_y2 {
                if let Some((a, b)) = s.y_range() {
                    lo = lo.min(a);
                    hi = hi.max(b);
                }
            }
        }
        (lo.is_finite() && hi.is_finite()).then_some(if (hi - lo).abs() < 1e-12 {
            (lo - 0.5, hi + 0.5)
        } else {
            (lo, hi)
        })
    };
    let y1 = axis_range(false);
    let y2 = axis_range(true);

    let x_min = series
        .iter()
        .filter_map(|s| s.points.first())
        .map(|p| p.x)
        .min()
        .unwrap_or(0);
    let x_max = series
        .iter()
        .filter_map(|s| s.points.last())
        .map(|p| p.x)
        .max()
        .unwrap_or(1);
    let x_span = (x_max - x_min).max(1) as f64;

    let mut grid = vec![vec![' '; width]; height];
    for (si, (s, &is_y2)) in series.iter().zip(&on_y2).enumerate() {
        let Some((lo, hi)) = (if is_y2 { y2 } else { y1 }) else {
            continue;
        };
        let glyph = GLYPHS[si % GLYPHS.len()];
        for p in &s.points {
            if !p.y.is_finite() {
                continue;
            }
            let col = (((p.x - x_min) as f64 / x_span) * (width - 1) as f64).round() as usize;
            let frac = ((p.y - lo) / (hi - lo)).clamp(0.0, 1.0);
            let row = height - 1 - (frac * (height - 1) as f64).round() as usize;
            grid[row][col.min(width - 1)] = glyph;
        }
    }

    // Header: legend with axis assignment.
    for (si, (s, &is_y2)) in series.iter().zip(&on_y2).enumerate() {
        let _ = writeln!(
            out,
            "  {} {} {} [{}]{}",
            GLYPHS[si % GLYPHS.len()],
            s.metric,
            s.column,
            if is_y2 { "y2" } else { "y1" },
            if s.style.is_empty() {
                String::new()
            } else {
                format!(" ({})", s.style.join(" "))
            },
        );
    }
    // Axis captions.
    if let Some((lo, hi)) = y1 {
        let _ = writeln!(out, "  y1: {lo:.3} .. {hi:.3}");
    }
    if let Some((lo, hi)) = y2 {
        let _ = writeln!(out, "  y2: {lo:.1} .. {hi:.1}");
    }
    for row in grid {
        out.push_str("  |");
        out.extend(row);
        out.push('\n');
    }
    out.push_str("  +");
    out.push_str(&"-".repeat(width));
    out.push('\n');
    let _ = writeln!(out, "   x: {x_min} .. {x_max}");
    out
}

/// Export every series as one CSV document: `x,<col1 metric1>,<col2 …>,…`
/// with one row per x value present in any series.
///
/// Neither this nor `ExplorationMap::to_csv` (the workspace's only other
/// CSV writer) quotes a field: every field is a number, a metric keyword
/// or a scenario identifier, and identifiers lex as `[A-Za-z0-9_]`
/// (`prophet_sql::lexer`), so no field can hold a comma, quote or newline.
pub fn series_csv(series: &[&Series]) -> String {
    let mut xs: Vec<i64> = series
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.x))
        .collect();
    xs.sort_unstable();
    xs.dedup();
    let mut out = String::from("x");
    for s in series {
        let _ = write!(out, ",{} {}", s.metric, s.column);
    }
    out.push('\n');
    for &x in &xs {
        let _ = write!(out, "{x}");
        for s in series {
            match s.at(x) {
                Some(p) => {
                    let _ = write!(out, ",{}", p.y);
                }
                None => out.push(','),
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophet_mc::instance::ParamPoint;
    use prophet_mc::SampleSet;
    use prophet_sql::ast::{AggMetric, SeriesSpec};
    use std::collections::HashMap;

    fn series_with(column: &str, style: &[&str], points: &[(i64, f64)]) -> Series {
        let spec = SeriesSpec {
            metric: AggMetric::Expect,
            column: column.into(),
            style: style.iter().map(|s| s.to_string()).collect(),
        };
        let mut s = Series::new(&spec);
        for &(x, y) in points {
            let mut samples = HashMap::new();
            samples.insert(column.to_string(), vec![y]);
            let ss = SampleSet::from_samples(ParamPoint::new(), vec![column.to_string()], samples);
            s.update_from(x, &ss);
        }
        s
    }

    #[test]
    fn chart_contains_legend_axes_and_glyphs() {
        let overload = series_with(
            "overload",
            &["bold", "red"],
            &[(0, 0.0), (26, 0.5), (52, 1.0)],
        );
        let capacity = series_with(
            "capacity",
            &["blue", "y2"],
            &[(0, 10_000.0), (52, 14_000.0)],
        );
        let chart = ascii_chart(&[&overload, &capacity], 60, 12);
        assert!(chart.contains("* EXPECT overload [y1] (bold red)"));
        assert!(chart.contains("o EXPECT capacity [y2] (blue y2)"));
        assert!(chart.contains("y1: 0.000 .. 1.000"));
        assert!(chart.contains("y2: 10000.0 .. 14000.0"));
        assert!(chart.contains('*'));
        assert!(chart.contains('o'));
        assert!(chart.contains("x: 0 .. 52"));
    }

    #[test]
    fn empty_series_renders_placeholder() {
        let empty = series_with("overload", &[], &[]);
        assert_eq!(ascii_chart(&[&empty], 40, 10), "(no data)\n");
        assert_eq!(ascii_chart(&[], 40, 10), "(no data)\n");
    }

    #[test]
    fn flat_series_does_not_divide_by_zero() {
        let flat = series_with("v", &[], &[(0, 5.0), (10, 5.0)]);
        let chart = ascii_chart(&[&flat], 30, 8);
        assert!(chart.contains('*'), "{chart}");
    }

    #[test]
    fn csv_export_merges_x_values() {
        let a = series_with("a", &[], &[(0, 1.0), (2, 3.0)]);
        let b = series_with("b", &[], &[(0, 9.0), (1, 8.0)]);
        let csv = series_csv(&[&a, &b]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "x,EXPECT a,EXPECT b");
        assert_eq!(lines[1], "0,1,9");
        assert_eq!(lines[2], "1,,8");
        assert_eq!(lines[3], "2,3,");
    }
}
