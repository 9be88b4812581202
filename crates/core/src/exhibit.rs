//! Typed exhibits: the figures and tables the pipeline produces.
//!
//! Each exhibit kind mirrors one visual vocabulary of the paper — CDF
//! plots, binned-mean plots with 95% CI error bars, grouped bar charts, and
//! natural-experiment tables — so `bb-report` can render any of them
//! uniformly and `EXPERIMENTS.md` can diff them against the published
//! values.

use bb_stats::Ecdf;

/// A CDF figure: one or more empirical distributions over a shared x-axis.
#[derive(Clone, Debug, PartialEq)]
pub struct CdfFigure {
    /// Exhibit id, e.g. `"fig1a"`.
    pub id: String,
    /// Title as in the paper's caption.
    pub title: String,
    /// x-axis label (with units).
    pub x_label: String,
    /// Whether the x-axis is naturally log-scaled.
    pub log_x: bool,
    /// Named series of `(x, F(x))` step points.
    pub series: Vec<CdfSeries>,
}

/// One CDF line.
#[derive(Clone, Debug, PartialEq)]
pub struct CdfSeries {
    /// Legend label.
    pub label: String,
    /// Number of underlying observations.
    pub n: usize,
    /// Median of the sample (commonly quoted in the text).
    pub median: f64,
    /// Plot points `(x, F(x))`, monotone in both coordinates.
    pub points: Vec<(f64, f64)>,
}

impl CdfSeries {
    /// The line of `ecdf`, downsampled to at most `max_points` points;
    /// each figure's count is part of its bytes.
    pub(crate) fn from_ecdf(label: impl Into<String>, ecdf: &Ecdf, max_points: usize) -> Self {
        CdfSeries {
            label: label.into(),
            n: ecdf.len(),
            median: ecdf.median(),
            points: ecdf.plot_points_downsampled(max_points),
        }
    }
}

/// A binned-mean figure (Figs. 2, 3, 6): per-bin mean with a 95% CI.
#[derive(Clone, Debug, PartialEq)]
pub struct BinnedFigure {
    /// Exhibit id, e.g. `"fig2a"`.
    pub id: String,
    /// Title.
    pub title: String,
    /// x-axis label.
    pub x_label: String,
    /// y-axis label.
    pub y_label: String,
    /// Named series.
    pub series: Vec<BinnedSeries>,
}

/// One binned series with its log-log correlation coefficient.
#[derive(Clone, Debug, PartialEq)]
pub struct BinnedSeries {
    /// Legend label.
    pub label: String,
    /// Pearson r between log-x and log-mean across bins (the "r = 0.870"
    /// the paper prints under each panel), when defined.
    pub r_log: Option<f64>,
    /// Per-bin points.
    pub points: Vec<BinnedPoint>,
}

/// One bin of a binned series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BinnedPoint {
    /// Bin x-coordinate (geometric midpoint for log bins).
    pub x: f64,
    /// Mean of the bin.
    pub mean: f64,
    /// Lower edge of the 95% CI of the mean.
    pub ci_lo: f64,
    /// Upper edge of the 95% CI of the mean.
    pub ci_hi: f64,
    /// Number of observations in the bin.
    pub n: usize,
}

/// A natural-experiment table (Tables 1–3, 6–8).
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentTable {
    /// Exhibit id, e.g. `"table2_dasu"`.
    pub id: String,
    /// Title.
    pub title: String,
    /// Column label for the control group.
    pub control_label: String,
    /// Column label for the treatment group.
    pub treatment_label: String,
    /// Rows.
    pub rows: Vec<ExperimentRow>,
}

/// One experiment row: "% H holds" and its p-value, plus the pair count.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentRow {
    /// Control-group description (e.g. `"(3.2, 6.4]"`).
    pub control: String,
    /// Treatment-group description.
    pub treatment: String,
    /// Matched (non-tied) pairs behind the test.
    pub n_pairs: usize,
    /// Percentage of pairs supporting the hypothesis.
    pub percent_holds: f64,
    /// Exact one-tailed binomial p-value.
    pub p_value: f64,
    /// Statistically significant at α = 0.05 (no asterisk in the paper).
    pub significant: bool,
}

impl ExperimentRow {
    /// The paper's rendering convention: an asterisk marks rows that are
    /// *not* statistically significant.
    pub fn asterisk(&self) -> &'static str {
        if self.significant {
            ""
        } else {
            "*"
        }
    }
}

/// A grouped bar figure (Figs. 5 and 9): groups on the x-axis, one bar per
/// series within each group.
#[derive(Clone, Debug, PartialEq)]
pub struct BarFigure {
    /// Exhibit id.
    pub id: String,
    /// Title.
    pub title: String,
    /// y-axis label.
    pub y_label: String,
    /// Groups in display order.
    pub groups: Vec<BarGroup>,
}

/// One x-axis group of bars.
#[derive(Clone, Debug, PartialEq)]
pub struct BarGroup {
    /// Group label (e.g. an initial speed tier, or `"US 8-16"`).
    pub label: String,
    /// Bars within the group.
    pub bars: Vec<Bar>,
}

/// One bar with an optional confidence interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Bar {
    /// Bar label (legend key).
    pub label: String,
    /// Bar height.
    pub value: f64,
    /// 95% CI of the value, when available.
    pub ci: Option<(f64, f64)>,
    /// Observations behind the bar.
    pub n: usize,
}

/// Any one exhibit, by kind: an entry of
/// [`StudyReport::exhibits`](crate::StudyReport::exhibits).
#[derive(Clone, Copy, Debug)]
pub enum Exhibit<'a> {
    /// A CDF figure.
    Cdf(&'a CdfFigure),
    /// A binned-mean figure.
    Binned(&'a BinnedFigure),
    /// A grouped bar figure.
    Bar(&'a BarFigure),
    /// A natural-experiment table.
    Table(&'a ExperimentTable),
}

impl Exhibit<'_> {
    /// The exhibit id, e.g. `"fig1a"` or `"table2_dasu"`.
    pub fn id(&self) -> &str {
        match self {
            Exhibit::Cdf(f) => &f.id,
            Exhibit::Binned(f) => &f.id,
            Exhibit::Bar(f) => &f.id,
            Exhibit::Table(t) => &t.id,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asterisk_convention() {
        let row = ExperimentRow {
            control: "a".into(),
            treatment: "b".into(),
            n_pairs: 100,
            percent_holds: 56.8,
            p_value: 0.0583,
            significant: false,
        };
        assert_eq!(row.asterisk(), "*");
        let sig = ExperimentRow {
            p_value: 0.001,
            significant: true,
            ..row
        };
        assert_eq!(sig.asterisk(), "");
    }

    #[test]
    fn exhibits_are_cloneable_and_comparable() {
        let fig = CdfFigure {
            id: "fig1a".into(),
            title: "t".into(),
            x_label: "Capacity (Mbps)".into(),
            log_x: true,
            series: vec![CdfSeries {
                label: "all".into(),
                n: 3,
                median: 2.0,
                points: vec![(1.0, 0.33), (2.0, 0.67), (3.0, 1.0)],
            }],
        };
        assert_eq!(fig.clone(), fig);
    }
}
