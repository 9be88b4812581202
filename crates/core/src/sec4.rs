//! §4 — Longitudinal trends in usage (Figure 6).
//!
//! "Despite the fourfold increase in global IP traffic, we find that
//! subscribers' demand on the network remained constant at each speed
//! tier" — the panel figures overlay usage-vs-capacity curves for 2011,
//! 2012 and 2013, and a natural experiment checks for per-tier change
//! between the first and last year.

use crate::confounders::{to_units, ConfounderSet, MatchedTable, OutcomeSpec};
use crate::exhibit::{BinnedFigure, BinnedPoint, BinnedSeries, ExperimentTable};
use bb_dataset::Dataset;
use bb_stats::binning::BinnedSeries as StatsBins;
use bb_stats::corr::pearson;
use bb_trace::EventLog;
use bb_types::{CapacityBin, Year};

/// Minimum users per (year, bin) cell.
const MIN_CELL_USERS: usize = 5;

/// Figure 6: usage vs capacity, one series per panel year. Panels:
/// (a) mean w/ BT, (b) p95 w/ BT, (c) mean no BT, (d) p95 no BT.
pub fn figure6(dataset: &Dataset, ledger: &mut EventLog) -> [BinnedFigure; 4] {
    let spec = [
        ("fig6a", "Mean (w/ BT)", OutcomeSpec::MEAN_WITH_BT),
        ("fig6b", "95th %ile (w/ BT)", OutcomeSpec::PEAK_WITH_BT),
        ("fig6c", "Mean (no BT)", OutcomeSpec::MEAN_NO_BT),
        ("fig6d", "95th %ile (no BT)", OutcomeSpec::PEAK_NO_BT),
    ];
    spec.map(|(id, title, outcome)| {
        let mut series = Vec::new();
        for year in Year::PANEL {
            let mut bins: StatsBins<CapacityBin> = StatsBins::new();
            let mut n_input = 0u64;
            let mut dropped_no_outcome = 0u64;
            for r in dataset.dasu().filter(|r| r.year == year) {
                n_input += 1;
                if let Some(v) = outcome.of(r) {
                    bins.push(CapacityBin::of(r.capacity), v / 1e6);
                } else {
                    dropped_no_outcome += 1;
                }
            }
            let before_filter = bins.n_total();
            let bins = bins.filter_min_count(MIN_CELL_USERS);
            ledger
                .emit("exhibit")
                .str("id", id)
                .str("series", year.to_string())
                .u64("n", n_input)
                .u64("dropped_no_outcome", dropped_no_outcome)
                .u64(
                    "dropped_thin_bins",
                    before_filter as u64 - bins.n_total() as u64,
                )
                .u64("min_bin_users", MIN_CELL_USERS as u64)
                .u64("n_used", bins.n_total() as u64);
            let points: Vec<BinnedPoint> = bins
                .mean_cis(0.95)
                .into_iter()
                .map(|(bin, ci)| BinnedPoint {
                    x: bin.midpoint().mbps(),
                    mean: ci.mean,
                    ci_lo: ci.lo,
                    ci_hi: ci.hi,
                    n: ci.n,
                })
                .collect();
            if points.is_empty() {
                continue;
            }
            let xs: Vec<f64> = points.iter().map(|p| p.x.log10()).collect();
            let ys: Vec<f64> = points.iter().map(|p| p.mean.max(1e-9).log10()).collect();
            series.push(BinnedSeries {
                label: year.to_string(),
                r_log: pearson(&xs, &ys),
                points,
            });
        }
        BinnedFigure {
            id: id.into(),
            title: format!("Usage vs capacity by year — {title}"),
            x_label: "Capacity (Mbps)".into(),
            y_label: "Usage (Mbps)".into(),
            series,
        }
    })
}

/// The §4 natural experiment: per capacity bin, is 2013 demand higher than
/// 2011 demand among matched users? The paper is "unable to find any
/// significant change in demand at any given speed tier".
pub fn year_experiment(dataset: &Dataset, ledger: &mut EventLog) -> ExperimentTable {
    let set = ConfounderSet::ForCapacityExperiment;
    let mut table = MatchedTable::new("table_sec4", set, ledger);
    for k in 1..=10u8 {
        let bin = CapacityBin(k);
        let of_year = |year: Year| {
            to_units(
                dataset
                    .dasu()
                    .filter(|r| r.year == year && CapacityBin::of(r.capacity) == bin),
                set,
                OutcomeSpec::PEAK_NO_BT,
            )
        };
        table.arm(
            format!("year shift in {bin}"),
            &of_year(Year(2011)),
            &of_year(Year(2013)),
            format!("{bin} in 2011"),
            format!("{bin} in 2013"),
        );
    }
    table.finish(
        "Per-tier demand change between 2011 and 2013 (matched users)",
        "Control group (2011)",
        "Treatment group (2013)",
    )
}

/// Summary statistic for EXPERIMENTS.md: the share of per-tier year
/// experiments that came out *conclusive* (significant + practically
/// important). The paper found none.
pub fn share_of_tiers_with_significant_change(table: &ExperimentTable) -> f64 {
    if table.rows.is_empty() {
        return 0.0;
    }
    let conclusive = table
        .rows
        .iter()
        .filter(|r| r.significant && (r.percent_holds - 50.0).abs() > 2.0)
        .count();
    conclusive as f64 / table.rows.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_dataset::{World, WorldConfig};

    fn dataset() -> Dataset {
        let mut cfg = WorldConfig::small(1717);
        cfg.user_scale = 3.0;
        cfg.days = 2;
        cfg.fcc_users = 0;
        World::with_countries(cfg, &["US", "DE", "GB", "JP", "BR"]).generate()
    }

    #[test]
    fn figure6_has_overlapping_yearly_series() {
        let ds = dataset();
        let figs = figure6(&ds, &mut bb_trace::EventLog::new());
        for fig in &figs {
            assert!(
                fig.series.len() >= 2,
                "{}: {} series",
                fig.id,
                fig.series.len()
            );
        }
        // Per-tier demand is roughly constant across years: compare 2011
        // and 2013 means in shared bins of the no-BT p95 panel; the bulk of
        // shared bins should differ by less than 3x (they differ by 10-50x
        // across the capacity axis).
        let fig = &figs[3];
        let find = |label: &str| fig.series.iter().find(|s| s.label == label);
        if let (Some(a), Some(b)) = (find("2011"), find("2013")) {
            let mut ratios = Vec::new();
            for pa in &a.points {
                if let Some(pb) = b.points.iter().find(|p| p.x == pa.x) {
                    ratios.push((pb.mean / pa.mean).max(pa.mean / pb.mean));
                }
            }
            assert!(!ratios.is_empty(), "no shared bins");
            let close = ratios.iter().filter(|r| **r < 3.0).count();
            assert!(
                close * 2 >= ratios.len(),
                "per-tier demand drifted: ratios {ratios:?}"
            );
        }
    }

    #[test]
    fn year_experiment_finds_little_change() {
        let ds = dataset();
        let table = year_experiment(&ds, &mut bb_trace::EventLog::new());
        // With a faithful world the paper's null result should mostly hold:
        // fewer than half the tiers show a conclusive change.
        let share = share_of_tiers_with_significant_change(&table);
        assert!(share <= 0.5, "share of changed tiers {share}");
    }
}
