//! §6 — Cost of increasing capacity.
//!
//! * [`figure10`] — CDF across countries of the monthly cost of +1 Mbps;
//! * [`table5`] — regional shares of countries above $1/$5/$10 per Mbps
//!   (delegated to `bb-market`);
//! * [`census`] — the price~capacity correlation census;
//! * [`table6`] — the matched upgrade-cost experiments (average demand,
//!   with and without BitTorrent).

use crate::confounders::{to_units, ConfounderSet, MatchedTable, OutcomeSpec};
use crate::exhibit::{CdfFigure, CdfSeries, ExperimentTable};
use bb_dataset::Dataset;
use bb_market::survey::{CorrelationCensus, RegionCostRow};
use bb_stats::Ecdf;
use bb_trace::EventLog;
use bb_types::CostClass;

/// Figure 10: CDF of the monthly cost (USD PPP) of +1 Mbps across the
/// surveyed markets (markets failing the r > 0.4 bar are excluded, as in
/// the paper). Also returns the per-country costs for annotation.
pub fn figure10(dataset: &Dataset, ledger: &mut EventLog) -> (CdfFigure, Vec<(String, f64)>) {
    let costs = dataset.survey.upgrade_costs();
    let labelled: Vec<(String, f64)> = costs
        .iter()
        .map(|(c, m)| (c.to_string(), m.usd()))
        .collect();
    assert!(
        !labelled.is_empty(),
        "figure 10 needs at least one market with a usable upgrade cost"
    );
    ledger
        .emit("exhibit")
        .str("id", "fig10")
        .u64("n_markets", dataset.survey.len() as u64)
        .u64(
            "dropped_weak_correlation",
            dataset.survey.len() as u64 - labelled.len() as u64,
        )
        .u64("n_used", labelled.len() as u64);
    let e = Ecdf::new(labelled.iter().map(|(_, v)| *v));
    let fig = CdfFigure {
        id: "fig10".into(),
        title: "Monthly cost to increase capacity by 1 Mbps across markets".into(),
        x_label: "Monthly cost of +1 Mbps (USD PPP)".into(),
        log_x: true,
        series: vec![CdfSeries::from_ecdf("countries", &e, 150)],
    };
    (fig, labelled)
}

/// Table 5 rows, straight from the survey.
pub fn table5(dataset: &Dataset) -> Vec<RegionCostRow> {
    dataset.survey.table5()
}

/// The §6 correlation census ("66% of markets r > 0.8; 81% r > 0.4").
pub fn census(dataset: &Dataset) -> CorrelationCensus {
    dataset.survey.correlation_census()
}

/// Table 6: matched experiments between upgrade-cost classes, on average
/// demand (a) including and (b) excluding BitTorrent.
pub fn table6(dataset: &Dataset, ledger: &mut EventLog) -> [ExperimentTable; 2] {
    [
        cost_table(
            dataset,
            OutcomeSpec::MEAN_WITH_BT,
            "table6a",
            "w/ BitTorrent",
            ledger,
        ),
        cost_table(
            dataset,
            OutcomeSpec::MEAN_NO_BT,
            "table6b",
            "w/o BitTorrent",
            ledger,
        ),
    ]
}

fn cost_table(
    dataset: &Dataset,
    outcome: OutcomeSpec,
    id: &str,
    suffix: &str,
    ledger: &mut EventLog,
) -> ExperimentTable {
    let set = ConfounderSet::ForUpgradeCostExperiment;
    let units_for = |class: CostClass| {
        to_units(
            dataset.dasu().filter(|r| {
                r.upgrade_cost
                    .map(|u| CostClass::of(u) == class)
                    .unwrap_or(false)
            }),
            set,
            outcome,
        )
    };
    let mut table = MatchedTable::new(id, set, ledger);
    for (control_class, treatment_class) in [
        (CostClass::UpTo50c, CostClass::From50cTo1),
        (CostClass::From50cTo1, CostClass::Above1),
    ] {
        table.arm(
            format!("upgrade cost {control_class} vs {treatment_class}"),
            &units_for(control_class),
            &units_for(treatment_class),
            control_class.label(),
            treatment_class.label(),
        );
    }
    table.finish(
        format!("Higher upgrade cost vs average demand ({suffix})"),
        "Control group",
        "Treatment group",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_dataset::{World, WorldConfig};

    fn full_survey_dataset() -> Dataset {
        // Survey shape only needs catalogues, not many users.
        let mut cfg = WorldConfig::small(99);
        cfg.user_scale = 0.02;
        cfg.days = 1;
        cfg.fcc_users = 0;
        cfg.upgrade_fraction = 0.0;
        World::new(cfg).generate()
    }

    #[test]
    fn figure10_spans_orders_of_magnitude() {
        let ds = full_survey_dataset();
        let (fig, costs) = figure10(&ds, &mut bb_trace::EventLog::new());
        assert!(fig.series[0].n > 60, "{} markets", fig.series[0].n);
        let min = costs.iter().map(|(_, v)| *v).fold(f64::INFINITY, f64::min);
        let max = costs.iter().map(|(_, v)| *v).fold(0.0, f64::max);
        // Japan/Korea under $0.10; Paraguay/Ivory Coast above $100.
        assert!(min < 0.2, "min {min}");
        assert!(max > 50.0, "max {max}");
    }

    #[test]
    fn table5_regional_ordering() {
        let ds = full_survey_dataset();
        let rows = table5(&ds);
        let find = |name: &str| rows.iter().find(|r| r.region == name);
        let africa = find("Africa").expect("Africa present");
        let na = find("North America").expect("NA present");
        let europe = find("Europe").expect("Europe present");
        let asia_dev = find("Asia (developed)").expect("dev Asia present");
        // Table 5's striking pattern.
        assert!(
            africa.share_above_10 > 0.5,
            "Africa {}",
            africa.share_above_10
        );
        assert_eq!(na.share_above_1, 0.0, "North America all under $1");
        assert!(europe.share_above_5 < 0.25);
        assert_eq!(asia_dev.share_above_1, 0.0);
        // Asia (all) row exists between developed and developing.
        assert!(find("Asia (all)").is_some());
    }

    #[test]
    fn census_matches_paper_band() {
        let ds = full_survey_dataset();
        let c = census(&ds);
        assert!(c.n_markets > 80);
        // Paper: 66% strong, 81% moderate. Accept generous bands; the
        // ordering and "most markets correlated" claim are the substance.
        assert!(c.share_moderate > c.share_strong);
        assert!(c.share_strong > 0.4, "strong {}", c.share_strong);
        assert!(c.share_moderate > 0.6, "moderate {}", c.share_moderate);
    }

    #[test]
    fn table6_dearer_upgrades_raise_demand() {
        let mut cfg = WorldConfig::small(31);
        cfg.user_scale = 30.0;
        cfg.days = 2;
        cfg.fcc_users = 0;
        let mut world = World::with_countries(cfg, &["US", "JP", "KR", "DE", "MX", "BR", "SA"]);
        for p in &mut world.profiles {
            p.user_weight = 4.0; // balanced classes
        }
        let ds = world.generate();
        let [with_bt, without_bt] = table6(&ds, &mut bb_trace::EventLog::new());
        for t in [&with_bt, &without_bt] {
            assert!(!t.rows.is_empty(), "{} has no rows", t.id);
            // Pooled effect direction is what the paper reports.
            let pooled: f64 = t
                .rows
                .iter()
                .map(|r| r.percent_holds * r.n_pairs as f64)
                .sum::<f64>()
                / t.rows.iter().map(|r| r.n_pairs as f64).sum::<f64>();
            assert!(pooled > 50.0, "{}: pooled {pooled}%", t.id);
        }
    }
}
