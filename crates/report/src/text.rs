//! Monospace text rendering.

use bb_study::exhibit::{BarFigure, BinnedFigure, CdfFigure, Exhibit, ExperimentTable};
use std::fmt::Write as _;

/// Width of the plot area in characters.
const PLOT_WIDTH: usize = 60;
/// Height of the plot area in rows.
const PLOT_HEIGHT: usize = 16;

/// Render an experiment table in the paper's layout:
/// control | treatment | % H holds | p-value (asterisk = not significant).
pub fn render_experiment_table(t: &ExperimentTable) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {} [{}] ==", t.title, t.id);
    let c_w = t
        .rows
        .iter()
        .map(|r| r.control.len())
        .chain([t.control_label.len()])
        .max()
        .unwrap_or(8);
    let tr_w = t
        .rows
        .iter()
        .map(|r| r.treatment.len())
        .chain([t.treatment_label.len()])
        .max()
        .unwrap_or(8);
    let _ = writeln!(
        out,
        "{:<c_w$}  {:<tr_w$}  {:>7}  {:>10}  {:>6}",
        t.control_label, t.treatment_label, "pairs", "% H holds", "p"
    );
    for r in &t.rows {
        let _ = writeln!(
            out,
            "{:<c_w$}  {:<tr_w$}  {:>7}  {:>9.1}%{}  {}",
            r.control,
            r.treatment,
            r.n_pairs,
            r.percent_holds,
            r.asterisk(),
            p_value(r.p_value, 3)
        );
    }
    if t.rows.is_empty() {
        let _ = writeln!(out, "(no rows: not enough matched pairs)");
    }
    out
}

/// Map a value to a column, linearly or logarithmically.
fn to_col(v: f64, lo: f64, hi: f64, log: bool) -> usize {
    let (v, lo, hi) = if log {
        (v.max(1e-12).ln(), lo.max(1e-12).ln(), hi.max(1e-12).ln())
    } else {
        (v, lo, hi)
    };
    if hi <= lo {
        return 0;
    }
    (((v - lo) / (hi - lo)) * (PLOT_WIDTH - 1) as f64)
        .round()
        .clamp(0.0, (PLOT_WIDTH - 1) as f64) as usize
}

/// Render a CDF figure as an ASCII plot: y is F(x) from 0 to 1, one glyph
/// per series.
pub fn render_cdf_figure(f: &CdfFigure) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {} [{}] ==", f.title, f.id);
    if f.series.is_empty() {
        let _ = writeln!(out, "(no series)");
        return out;
    }
    let glyphs = ['*', 'o', '+', 'x', '#', '@'];
    let lo = f
        .series
        .iter()
        .filter_map(|s| s.points.first())
        .map(|p| p.0)
        .fold(f64::INFINITY, f64::min);
    let hi = f
        .series
        .iter()
        .filter_map(|s| s.points.last())
        .map(|p| p.0)
        .fold(f64::NEG_INFINITY, f64::max);
    let mut grid = vec![vec![' '; PLOT_WIDTH]; PLOT_HEIGHT];
    for (si, series) in f.series.iter().enumerate() {
        let glyph = glyphs[si % glyphs.len()];
        for &(x, y) in &series.points {
            let col = to_col(x, lo, hi, f.log_x);
            let row = ((1.0 - y) * (PLOT_HEIGHT - 1) as f64)
                .round()
                .clamp(0.0, (PLOT_HEIGHT - 1) as f64) as usize;
            grid[row][col] = glyph;
        }
    }
    for (i, row) in grid.iter().enumerate() {
        let y = 1.0 - i as f64 / (PLOT_HEIGHT - 1) as f64;
        let _ = writeln!(out, "{y:>4.2} |{}|", row.iter().collect::<String>());
    }
    let _ = writeln!(out, "      {:<28}{:>31}", format_num(lo), format_num(hi));
    let _ = writeln!(
        out,
        "      x: {}{}",
        f.x_label,
        if f.log_x { " (log)" } else { "" }
    );
    for (si, s) in f.series.iter().enumerate() {
        let _ = writeln!(
            out,
            "      {} {} (n = {}, median = {})",
            glyphs[si % glyphs.len()],
            s.label,
            s.n,
            format_num(s.median)
        );
    }
    out
}

/// Render a binned figure as a table of per-bin means with CIs, one block
/// per series (a text table is more faithful than ASCII art for error-bar
/// figures).
pub fn render_binned_figure(f: &BinnedFigure) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {} [{}] ==", f.title, f.id);
    let _ = writeln!(out, "   x = {}, y = {}", f.x_label, f.y_label);
    for s in &f.series {
        match s.r_log {
            Some(r) => {
                let _ = writeln!(out, "  series {} (r = {:.3}):", s.label, r);
            }
            None => {
                let _ = writeln!(out, "  series {}:", s.label);
            }
        }
        let _ = writeln!(
            out,
            "    {:>12}  {:>12}  {:>26}  {:>6}",
            "x", "mean", "95% CI", "n"
        );
        for p in &s.points {
            let _ = writeln!(
                out,
                "    {:>12}  {:>12}  [{:>11}, {:>11}]  {:>6}",
                format_num(p.x),
                format_num(p.mean),
                format_num(p.ci_lo),
                format_num(p.ci_hi),
                p.n
            );
        }
    }
    out
}

/// Render a bar figure as an indented list with bar lengths.
pub fn render_bar_figure(f: &BarFigure) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {} [{}] ==", f.title, f.id);
    let _ = writeln!(out, "   y = {}", f.y_label);
    let max_abs = f
        .groups
        .iter()
        .flat_map(|g| g.bars.iter())
        .map(|b| b.value.abs())
        .fold(0.0, f64::max)
        .max(1e-12);
    for g in &f.groups {
        let _ = writeln!(out, "  {}:", g.label);
        for b in &g.bars {
            let len = ((b.value.abs() / max_abs) * 30.0).round() as usize;
            let bar: String = std::iter::repeat_n('#', len).collect();
            let sign = if b.value < 0.0 { "-" } else { " " };
            let ci = match b.ci {
                Some((lo, hi)) => format!(" CI [{}, {}]", format_num(lo), format_num(hi)),
                None => String::new(),
            };
            let _ = writeln!(
                out,
                "    {:<22} {sign}{bar:<30} {}{} (n = {})",
                b.label,
                format_num(b.value),
                ci,
                b.n
            );
        }
    }
    out
}

/// Render any exhibit with its kind's renderer: the `.txt` file
/// `reproduce` writes and the text `needwant exhibit` prints.
pub fn render_exhibit(e: &Exhibit) -> String {
    match e {
        Exhibit::Cdf(f) => render_cdf_figure(f),
        Exhibit::Binned(f) => render_binned_figure(f),
        Exhibit::Bar(f) => render_bar_figure(f),
        Exhibit::Table(t) => render_experiment_table(t),
    }
}

/// A sign test's p in scientific notation with `digits` decimals. A
/// tail that underflowed to exactly zero prints as the bound
/// `< 1e-300`, not as `0.000e0`: an exact binomial tail is never zero,
/// and one below `f64`'s normal range is far below 1e-300.
pub(crate) fn p_value(p: f64, digits: usize) -> String {
    if p == 0.0 {
        "< 1e-300".into()
    } else {
        format!("{p:.digits$e}")
    }
}

/// Compact number formatting for axis annotations.
pub fn format_num(v: f64) -> String {
    let a = v.abs();
    if a == 0.0 {
        "0".to_string()
    } else if !(1e-3..1e4).contains(&a) {
        format!("{v:.2e}")
    } else if a >= 100.0 {
        format!("{v:.0}")
    } else if a >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_study::exhibit::*;

    fn table() -> ExperimentTable {
        ExperimentTable {
            id: "t".into(),
            title: "Test".into(),
            control_label: "Control".into(),
            treatment_label: "Treatment".into(),
            rows: vec![
                ExperimentRow {
                    control: "(0.4, 0.8]".into(),
                    treatment: "(0.8, 1.6]".into(),
                    n_pairs: 320,
                    percent_holds: 59.9,
                    p_value: 8.01e-8,
                    significant: true,
                },
                ExperimentRow {
                    control: "(12.8, 25.6]".into(),
                    treatment: "(25.6, 51.2]".into(),
                    n_pairs: 210,
                    percent_holds: 52.9,
                    p_value: 0.31,
                    significant: false,
                },
            ],
        }
    }

    #[test]
    fn experiment_table_renders_asterisks() {
        let s = render_experiment_table(&table());
        assert!(s.contains("59.9%"), "{s}");
        assert!(s.contains("52.9%*"), "{s}");
        assert!(
            s.contains("8.01") && s.contains("e-8") || s.contains("e-08"),
            "{s}"
        );
    }

    #[test]
    fn empty_table_is_flagged() {
        let t = ExperimentTable {
            rows: vec![],
            ..table()
        };
        assert!(render_experiment_table(&t).contains("no rows"));
    }

    #[test]
    fn cdf_plot_has_axes_and_legend() {
        let fig = CdfFigure {
            id: "f".into(),
            title: "A CDF".into(),
            x_label: "Mbps".into(),
            log_x: true,
            series: vec![CdfSeries {
                label: "all".into(),
                n: 100,
                median: 5.0,
                points: (1..=100).map(|i| (i as f64, i as f64 / 100.0)).collect(),
            }],
        };
        let s = render_cdf_figure(&fig);
        assert!(s.contains("1.00 |"), "{s}");
        assert!(s.contains("0.00 |"), "{s}");
        assert!(s.contains("median = 5.00"), "{s}");
        assert!(s.contains("(log)"));
    }

    #[test]
    fn binned_figure_lists_bins() {
        let fig = BinnedFigure {
            id: "b".into(),
            title: "Binned".into(),
            x_label: "Capacity".into(),
            y_label: "Usage".into(),
            series: vec![BinnedSeries {
                label: "s1".into(),
                r_log: Some(0.87),
                points: vec![BinnedPoint {
                    x: 1.0,
                    mean: 0.2,
                    ci_lo: 0.15,
                    ci_hi: 0.25,
                    n: 42,
                }],
            }],
        };
        let s = render_binned_figure(&fig);
        assert!(s.contains("r = 0.870"), "{s}");
        assert!(s.contains("42"));
    }

    #[test]
    fn bar_figure_draws_bars() {
        let fig = BarFigure {
            id: "bar".into(),
            title: "Bars".into(),
            y_label: "Mbps".into(),
            groups: vec![BarGroup {
                label: "g".into(),
                bars: vec![Bar {
                    label: "b".into(),
                    value: 1.0,
                    ci: Some((0.8, 1.2)),
                    n: 10,
                }],
            }],
        };
        let s = render_bar_figure(&fig);
        assert!(s.contains("##"), "{s}");
        assert!(s.contains("CI ["));
    }

    #[test]
    fn number_formatting() {
        assert_eq!(format_num(0.0), "0");
        assert_eq!(format_num(123456.0), "1.23e5");
        assert_eq!(format_num(512.0), "512");
        assert_eq!(format_num(7.4), "7.40");
        assert_eq!(format_num(0.0123), "0.0123");
    }
}
