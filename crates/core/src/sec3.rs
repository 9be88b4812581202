//! §3 — Impact of capacity.
//!
//! * [`figure2`] — usage vs capacity for the global population, mean and
//!   95th percentile, with and without BitTorrent;
//! * [`figure3`] — FCC gateways vs Dasu US end hosts;
//! * [`table1`] — the §3.2 natural experiment on users switching networks;
//! * [`figure4`] — demand CDFs of movers on their slow vs fast network;
//! * [`figure5`] — change in demand by initial × target service tier;
//! * [`table2`] — matched adjacent-capacity-bin experiments (Dasu & FCC).

use crate::confounders::{to_units, ConfounderSet, MatchedTable, OutcomeSpec};
use crate::exhibit::{
    Bar, BarFigure, BarGroup, BinnedFigure, BinnedPoint, BinnedSeries, CdfFigure, CdfSeries,
    ExperimentRow, ExperimentTable,
};
use bb_causal::{Unit, MIN_TRIALS};
use bb_dataset::record::UserRecord;
use bb_dataset::{Dataset, UpgradeObservation};
use bb_stats::binning::BinnedSeries as StatsBins;
use bb_stats::corr::pearson;
use bb_stats::hypothesis::{binomial_test, Tail};
use bb_stats::Ecdf;
use bb_trace::EventLog;
use bb_types::{CapacityBin, Country, DemandMetric, UpgradeTier};

/// Minimum users per capacity bin for the binned figures.
const MIN_BIN_USERS: usize = 5;

/// Build one usage-vs-capacity series over `records`, logging input n and
/// drop counts (missing outcome, thin bins) under `exhibit`'s id.
fn binned_usage<'a>(
    records: impl IntoIterator<Item = &'a UserRecord>,
    outcome: OutcomeSpec,
    label: &str,
    exhibit: &str,
    ledger: &mut EventLog,
) -> BinnedSeries {
    let mut bins: StatsBins<CapacityBin> = StatsBins::new();
    let mut n_input = 0u64;
    let mut dropped_no_outcome = 0u64;
    for r in records {
        n_input += 1;
        if let Some(value) = outcome.of(r) {
            bins.push(CapacityBin::of(r.capacity), value / 1e6); // Mbps
        } else {
            dropped_no_outcome += 1;
        }
    }
    let before_filter = bins.n_total();
    let bins = bins.filter_min_count(MIN_BIN_USERS);
    ledger
        .emit("exhibit")
        .str("id", exhibit)
        .str("series", label)
        .u64("n", n_input)
        .u64("dropped_no_outcome", dropped_no_outcome)
        .u64(
            "dropped_thin_bins",
            before_filter as u64 - bins.n_total() as u64,
        )
        .u64("min_bin_users", MIN_BIN_USERS as u64)
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
    // The paper's per-panel r: correlation between log capacity and log
    // mean usage across bins.
    let xs: Vec<f64> = points.iter().map(|p| p.x.max(1e-9).log10()).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.mean.max(1e-9).log10()).collect();
    BinnedSeries {
        label: label.into(),
        r_log: pearson(&xs, &ys),
        points,
    }
}

fn usage_figure(id: &str, title: &str, series: Vec<BinnedSeries>) -> BinnedFigure {
    BinnedFigure {
        id: id.into(),
        title: title.into(),
        x_label: "Download capacity (Mbps)".into(),
        y_label: "Usage (Mbps)".into(),
        series,
    }
}

/// Figure 2: four panels of usage vs capacity over the global Dasu
/// population — (a) mean w/ BT, (b) p95 w/ BT, (c) mean w/o BT, (d) p95
/// w/o BT.
pub fn figure2(dataset: &Dataset, ledger: &mut EventLog) -> [BinnedFigure; 4] {
    let dasu: Vec<&UserRecord> = dataset.dasu().collect();
    let spec = [
        ("fig2a", "Mean w/ BT", OutcomeSpec::MEAN_WITH_BT),
        ("fig2b", "95th %ile w/ BT", OutcomeSpec::PEAK_WITH_BT),
        ("fig2c", "Mean no BT", OutcomeSpec::MEAN_NO_BT),
        ("fig2d", "95th %ile no BT", OutcomeSpec::PEAK_NO_BT),
    ];
    spec.map(|(id, title, outcome)| {
        usage_figure(
            id,
            title,
            vec![binned_usage(
                dasu.iter().copied(),
                outcome,
                "all users",
                id,
                ledger,
            )],
        )
    })
}

/// Figure 3: mean and peak usage vs capacity for FCC gateways and Dasu US
/// users (the latter when not using BitTorrent).
pub fn figure3(dataset: &Dataset, ledger: &mut EventLog) -> [BinnedFigure; 2] {
    let us = Country::new("US");
    let fcc: Vec<&UserRecord> = dataset.fcc().collect();
    let dasu_us: Vec<&UserRecord> = dataset.dasu().filter(|r| r.country == us).collect();
    let mut build = |id: &str, title: &str, fcc_outcome: OutcomeSpec, dasu_outcome: OutcomeSpec| {
        usage_figure(
            id,
            title,
            vec![
                binned_usage(fcc.iter().copied(), fcc_outcome, "FCC", id, ledger),
                binned_usage(dasu_us.iter().copied(), dasu_outcome, "Dasu US", id, ledger),
            ],
        )
    };
    [
        // Gateways cannot see inside flows, so the FCC series includes all
        // traffic; Dasu excludes BitTorrent intervals, as in the paper.
        build(
            "fig3a",
            "Mean",
            OutcomeSpec::MEAN_WITH_BT,
            OutcomeSpec::MEAN_NO_BT,
        ),
        build(
            "fig3b",
            "95th %ile",
            OutcomeSpec::PEAK_WITH_BT,
            OutcomeSpec::PEAK_NO_BT,
        ),
    ]
}

/// Outcome pair (before, after) for one mover under a metric/BT choice.
fn mover_outcomes(
    up: &UpgradeObservation,
    metric: DemandMetric,
    with_bt: bool,
) -> Option<(f64, f64)> {
    let (b, a) = if with_bt {
        (up.before.demand_with_bt?, up.after.demand_with_bt?)
    } else {
        (up.before.demand_no_bt?, up.after.demand_no_bt?)
    };
    Some((b.metric(metric).bps(), a.metric(metric).bps()))
}

/// Table 1: "percentage of the time that an individual user's average and
/// peak demand will increase when moving to a network with a higher
/// capacity" (no-BT demand, as in the paper).
pub fn table1(dataset: &Dataset, ledger: &mut EventLog) -> ExperimentTable {
    let mut rows = Vec::new();
    for (label, metric) in [
        ("Average usage", DemandMetric::Mean),
        ("Peak usage", DemandMetric::Peak),
    ] {
        let mut holds = 0u64;
        let mut trials = 0u64;
        let mut ties = 0u64;
        let mut dropped_no_outcome = 0u64;
        for up in &dataset.upgrades {
            if let Some((before, after)) = mover_outcomes(up, metric, false) {
                if after == before {
                    ties += 1;
                    continue;
                }
                trials += 1;
                if after > before {
                    holds += 1;
                }
            } else {
                dropped_no_outcome += 1;
            }
        }
        ledger
            .emit("exhibit")
            .str("id", "table1")
            .str("series", label)
            .u64("n", dataset.upgrades.len() as u64)
            .u64("dropped_no_outcome", dropped_no_outcome)
            .u64("ties", ties);
        if trials == 0 {
            continue;
        }
        let test = binomial_test(holds, trials, 0.5, Tail::Greater);
        // The same starvation guard the matched experiments get from
        // bb-causal: a handful of movers cannot carry a significance star.
        let starved = trials < MIN_TRIALS;
        ledger
            .emit("sign_test")
            .str("exhibit", "table1")
            .str("experiment", label)
            .u64("n_pairs", trials + ties)
            .u64("ties", ties)
            .u64("n", trials)
            .u64("positives", holds)
            .f64("p_value", test.p_value)
            .str("direction", "treatment_higher")
            .bool("significant", !starved && test.significant())
            .bool("starved", starved)
            .bool("kept", !starved);
        if starved {
            continue;
        }
        rows.push(ExperimentRow {
            control: format!("{label} (slower network)"),
            treatment: format!("{label} (faster network)"),
            n_pairs: trials as usize,
            percent_holds: test.share_percent(),
            p_value: test.p_value,
            significant: test.significant(),
        });
    }
    ExperimentTable {
        id: "table1".into(),
        title: "Demand increase when an individual user moves to a higher-capacity network".into(),
        control_label: "Metric (control: slower network)".into(),
        treatment_label: "Treatment: faster network".into(),
        rows,
    }
}

/// Figure 4: CDFs of mean and peak usage for movers on their slow and fast
/// networks (no BitTorrent).
pub fn figure4(dataset: &Dataset, ledger: &mut EventLog) -> [CdfFigure; 2] {
    let mut build = |id: &str, title: &str, metric: DemandMetric| {
        let mut slow = Vec::new();
        let mut fast = Vec::new();
        for up in &dataset.upgrades {
            if let Some((b, a)) = mover_outcomes(up, metric, false) {
                slow.push(b / 1e6);
                fast.push(a / 1e6);
            }
        }
        ledger
            .emit("exhibit")
            .str("id", id)
            .u64("n", dataset.upgrades.len() as u64)
            .u64(
                "dropped_no_outcome",
                dataset.upgrades.len() as u64 - slow.len() as u64,
            )
            .u64("n_used", slow.len() as u64);
        let series = [("Slow network", slow), ("Fast network", fast)]
            .into_iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(label, v)| CdfSeries::from_ecdf(label, &Ecdf::new(v), 200))
            .collect();
        CdfFigure {
            id: id.into(),
            title: title.into(),
            x_label: "Usage (Mbps)".into(),
            log_x: true,
            series,
        }
    };
    [
        build("fig4a", "Mean", DemandMetric::Mean),
        build("fig4b", "95th %ile", DemandMetric::Peak),
    ]
}

/// Figure 5: average change in demand when switching to a faster service,
/// grouped by initial tier (x-axis) and target tier (bars). Four panels:
/// (a) mean w/ BT, (b) p95 w/ BT, (c) mean no BT, (d) p95 no BT.
pub fn figure5(dataset: &Dataset, ledger: &mut EventLog) -> [BarFigure; 4] {
    let spec = [
        ("fig5a", "Mean (w/ BT)", DemandMetric::Mean, true),
        ("fig5b", "95th %ile (w/ BT)", DemandMetric::Peak, true),
        ("fig5c", "Mean (no BT)", DemandMetric::Mean, false),
        ("fig5d", "95th %ile (no BT)", DemandMetric::Peak, false),
    ];
    spec.map(|(id, title, metric, with_bt)| {
        // (initial tier, target tier) -> deltas (Mbps).
        let mut cells: StatsBins<(UpgradeTier, UpgradeTier)> = StatsBins::new();
        let mut dropped_no_tier = 0u64;
        let mut dropped_no_outcome = 0u64;
        for up in &dataset.upgrades {
            let (Some(from), Some(to)) = (
                UpgradeTier::of(up.before.capacity),
                UpgradeTier::of(up.after.capacity),
            ) else {
                dropped_no_tier += 1;
                continue;
            };
            if let Some((b, a)) = mover_outcomes(up, metric, with_bt) {
                cells.push((from, to), (a - b) / 1e6);
            } else {
                dropped_no_outcome += 1;
            }
        }
        ledger
            .emit("exhibit")
            .str("id", id)
            .u64("n", dataset.upgrades.len() as u64)
            .u64("dropped_no_tier", dropped_no_tier)
            .u64("dropped_no_outcome", dropped_no_outcome)
            .u64("n_used", cells.n_total() as u64);
        let cis = cells.mean_cis(0.95);
        let mut groups: Vec<BarGroup> = UpgradeTier::ALL
            .iter()
            .map(|from| BarGroup {
                label: from.label(),
                bars: Vec::new(),
            })
            .collect();
        for ((from, to), ci) in cis {
            groups[from.0 as usize].bars.push(Bar {
                label: format!("{} to {} Mbps", to.lower_mbps(), to.upper_mbps()),
                value: ci.mean,
                ci: Some((ci.lo, ci.hi)),
                n: ci.n,
            });
        }
        groups.retain(|g| !g.bars.is_empty());
        BarFigure {
            id: id.into(),
            title: format!("Change in demand when switching to a faster connection — {title}"),
            y_label: "Average change in demand (Mbps)".into(),
            groups,
        }
    })
}

/// Table 2: matched natural experiments between adjacent capacity bins, for
/// the Dasu (global) and FCC (US) populations.
///
/// The Dasu outcome excludes BitTorrent intervals; the FCC gateway counters
/// cannot distinguish BitTorrent, so its outcome includes all traffic.
pub fn table2(dataset: &Dataset, ledger: &mut EventLog) -> (ExperimentTable, ExperimentTable) {
    let dasu_units = |bin: CapacityBin| -> Vec<Unit> {
        to_units(
            dataset
                .dasu()
                .filter(|r| CapacityBin::of(r.capacity) == bin),
            ConfounderSet::ForCapacityExperiment,
            OutcomeSpec::PEAK_NO_BT,
        )
    };
    let fcc_units = |bin: CapacityBin| -> Vec<Unit> {
        to_units(
            dataset.fcc().filter(|r| CapacityBin::of(r.capacity) == bin),
            ConfounderSet::ForCapacityExperiment,
            OutcomeSpec::PEAK_WITH_BT,
        )
    };
    let dasu = adjacent_bin_table(
        "table2_dasu",
        "Dasu data: matched users, adjacent capacity bins",
        1..=10,
        dasu_units,
        ledger,
    );
    let fcc = adjacent_bin_table(
        "table2_fcc",
        "FCC data: matched users, adjacent capacity bins",
        3..=10,
        fcc_units,
        ledger,
    );
    (dasu, fcc)
}

/// Shared engine for Table 2: one experiment per adjacent bin pair.
fn adjacent_bin_table(
    id: &str,
    title: &str,
    bins: std::ops::RangeInclusive<u8>,
    units_for: impl Fn(CapacityBin) -> Vec<Unit>,
    ledger: &mut EventLog,
) -> ExperimentTable {
    let mut table = MatchedTable::new(id, ConfounderSet::ForCapacityExperiment, ledger);
    for k in bins {
        let control_bin = CapacityBin(k);
        let treatment_bin = control_bin.next();
        table.arm(
            format!("capacity {control_bin} vs {treatment_bin}"),
            &units_for(control_bin),
            &units_for(treatment_bin),
            control_bin.to_string(),
            treatment_bin.to_string(),
        );
    }
    table.finish(
        title,
        "Control group (in Mbps)",
        "Treatment group (in Mbps)",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_dataset::{World, WorldConfig};
    use std::sync::OnceLock;

    /// One shared dataset for the whole module: balanced country weights so
    /// every capacity bin is populated, 2-day windows, generated once.
    fn dataset() -> &'static Dataset {
        static DS: OnceLock<Dataset> = OnceLock::new();
        DS.get_or_init(|| {
            let mut cfg = WorldConfig::small(42);
            cfg.user_scale = 10.0;
            cfg.days = 2;
            cfg.fcc_users = 150;
            let mut world = World::with_countries(cfg, &["US", "JP", "DE", "GB", "BR", "IN"]);
            for p in &mut world.profiles {
                p.user_weight = match p.country.as_str() {
                    "US" => 10.0,
                    "JP" => 3.0,
                    _ => 5.0,
                };
            }
            world.generate()
        })
    }

    #[test]
    fn figure2_usage_grows_with_capacity() {
        let ds = dataset();
        let figs = figure2(ds, &mut bb_trace::EventLog::new());
        for fig in &figs {
            let pts = &fig.series[0].points;
            assert!(pts.len() >= 4, "{}: {} bins", fig.id, pts.len());
            // Strong positive log-log correlation, as in the paper
            // (r >= 0.87 there; we ask for clearly-positive).
            let r = fig.series[0].r_log.expect("r defined");
            assert!(r > 0.6, "{}: r = {r}", fig.id);
            // Demand at the top bin exceeds demand at the bottom bin.
            assert!(
                pts.last().unwrap().mean > pts.first().unwrap().mean,
                "{}",
                fig.id
            );
        }
    }

    #[test]
    fn figure2_shows_diminishing_returns() {
        // Usage grows far more slowly than capacity: the mean-usage ratio
        // between top and bottom bins is much smaller than the capacity
        // ratio between those bins.
        let ds = dataset();
        let fig = &figure2(ds, &mut bb_trace::EventLog::new())[3]; // p95 no BT
        let pts = &fig.series[0].points;
        let cap_ratio = pts.last().unwrap().x / pts.first().unwrap().x;
        let use_ratio = pts.last().unwrap().mean / pts.first().unwrap().mean;
        assert!(
            use_ratio < cap_ratio * 0.5,
            "usage ratio {use_ratio} vs capacity ratio {cap_ratio}"
        );
    }

    #[test]
    fn figure3_has_both_series() {
        let ds = dataset();
        let [mean_fig, peak_fig] = figure3(ds, &mut bb_trace::EventLog::new());
        for fig in [&mean_fig, &peak_fig] {
            assert_eq!(fig.series.len(), 2);
            assert_eq!(fig.series[0].label, "FCC");
            assert_eq!(fig.series[1].label, "Dasu US");
            assert!(fig.series[0].points.len() >= 3);
            assert!(fig.series[1].points.len() >= 3);
        }
    }

    #[test]
    fn table1_movers_increase_demand() {
        let ds = dataset();
        let t = table1(ds, &mut bb_trace::EventLog::new());
        assert_eq!(t.rows.len(), 2);
        for row in &t.rows {
            assert!(row.n_pairs > 30, "{} pairs", row.n_pairs);
            assert!(
                row.percent_holds > 55.0,
                "{}: {}%",
                row.control,
                row.percent_holds
            );
            assert!(row.significant, "{}: p = {}", row.control, row.p_value);
        }
    }

    #[test]
    fn figure4_fast_network_cdf_sits_right_of_slow() {
        let ds = dataset();
        let [mean_fig, peak_fig] = figure4(ds, &mut bb_trace::EventLog::new());
        for fig in [&mean_fig, &peak_fig] {
            assert_eq!(fig.series.len(), 2);
            let slow = &fig.series[0];
            let fast = &fig.series[1];
            assert!(
                fast.median > slow.median,
                "{}: fast median {} vs slow {}",
                fig.id,
                fast.median,
                slow.median
            );
        }
    }

    #[test]
    fn figure5_panels_have_groups() {
        let ds = dataset();
        let figs = figure5(ds, &mut bb_trace::EventLog::new());
        for fig in &figs {
            assert!(!fig.groups.is_empty(), "{}", fig.id);
            let n_bars: usize = fig.groups.iter().map(|g| g.bars.len()).sum();
            assert!(n_bars >= 2, "{}: {} bars", fig.id, n_bars);
        }
        // Pooled across tiers, upgrades raise demand (the Table 1 effect
        // viewed through the Fig. 5 lens). Individual low-tier cells are
        // small and can sit at zero when quality-suppressed markets (e.g.
        // India) dominate them.
        let no_bt_peak = &figs[3];
        let mut weighted = 0.0;
        let mut n = 0usize;
        for g in &no_bt_peak.groups {
            for b in &g.bars {
                weighted += b.value * b.n as f64;
                n += b.n;
            }
        }
        assert!(n > 50, "{n} movers");
        assert!(
            weighted / n as f64 > 0.0,
            "upgrades should raise peak demand overall: {}",
            weighted / n as f64
        );
    }

    #[test]
    fn table2_pooled_effect_is_positive() {
        let ds = dataset();
        let (dasu, _fcc) = table2(ds, &mut bb_trace::EventLog::new());
        assert!(dasu.rows.len() >= 3, "{} rows", dasu.rows.len());
        // This moderate world cannot populate every bin the way the
        // paper-scale run does (see EXPERIMENTS.md); assert the pooled
        // direction, which is the claim that carries §3.2.
        let weighted: f64 = dasu
            .rows
            .iter()
            .map(|r| r.percent_holds * r.n_pairs as f64)
            .sum::<f64>()
            / dasu.rows.iter().map(|r| r.n_pairs as f64).sum::<f64>();
        assert!(
            weighted > 53.0,
            "pooled %H = {weighted} (rows: {:?})",
            dasu.rows
                .iter()
                .map(|r| (r.control.clone(), r.percent_holds, r.n_pairs))
                .collect::<Vec<_>>()
        );
    }
}
