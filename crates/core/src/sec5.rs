//! §5 — Price of broadband access.
//!
//! * [`table3`] — the matched experiment on the price of access;
//! * [`table4`] — the four-market case study (Botswana, Saudi Arabia, US,
//!   Japan);
//! * [`figure7`] — capacity and peak-utilisation CDFs per market;
//! * [`figure8`] — peak-utilisation CDFs per market, split by service tier;
//! * [`figure9`] — average peak demand per market × tier.

use crate::confounders::{to_units, ConfounderSet, MatchedTable, OutcomeSpec};
use crate::exhibit::{Bar, BarFigure, BarGroup, CdfFigure, CdfSeries, ExperimentTable};
use bb_dataset::{CountryProfile, Dataset};
use bb_stats::binning::BinnedSeries as StatsBins;
use bb_stats::Ecdf;
use bb_trace::EventLog;
use bb_types::{Bandwidth, Country, MoneyPpp, PriceBin, ServiceTier};

/// The four case-study markets, in the paper's order.
pub const CASE_STUDY: [&str; 4] = ["BW", "SA", "US", "JP"];

/// Minimum users for a (country, tier) cell to be plotted — "we do not
/// include data on a particular tier for a country with less than 30 users
/// in our dataset".
pub const MIN_TIER_USERS: usize = 30;

/// Table 3: matched experiment — does a higher price of broadband access
/// increase demand at equal capacity/quality? Rows compare the cheapest
/// price bin against each dearer bin. Outcome: peak usage, no BitTorrent.
pub fn table3(dataset: &Dataset, ledger: &mut EventLog) -> ExperimentTable {
    let set = ConfounderSet::ForPriceExperiment;
    let units_for = |bin: PriceBin| {
        to_units(
            dataset
                .dasu()
                .filter(|r| PriceBin::of(r.access_price) == bin),
            set,
            OutcomeSpec::PEAK_NO_BT,
        )
    };
    let cheap = units_for(PriceBin::UpTo25);
    let mut table = MatchedTable::new("table3", set, ledger);
    for treatment_bin in [PriceBin::From25To60, PriceBin::Above60] {
        table.arm(
            format!("access price {} vs {}", PriceBin::UpTo25, treatment_bin),
            &cheap,
            &units_for(treatment_bin),
            PriceBin::UpTo25.label(),
            treatment_bin.label(),
        );
    }
    table.finish(
        "Higher price of broadband access vs demand (matched users)",
        "Control group",
        "Treatment group",
    )
}

/// One row of Table 4.
#[derive(Clone, Debug, PartialEq)]
pub struct CaseStudyRow {
    /// Country code.
    pub country: Country,
    /// Users of that country in the dataset.
    pub n_users: usize,
    /// Median measured capacity.
    pub median_capacity: Bandwidth,
    /// Nearest advertised tier in the country's catalogue.
    pub nearest_tier: Bandwidth,
    /// Monthly price of that tier (USD PPP).
    pub price: MoneyPpp,
    /// Annual GDP per capita (PPP).
    pub gdp_per_capita: MoneyPpp,
    /// Cost of access as a share of *monthly* GDP per capita.
    pub price_share_of_income: f64,
}

/// Table 4: the "typical price of broadband" case study. Profiles supply
/// the GDP column (the paper took it from the IMF).
pub fn table4(
    dataset: &Dataset,
    profiles: &[CountryProfile],
    ledger: &mut EventLog,
) -> Vec<CaseStudyRow> {
    let rows: Vec<CaseStudyRow> = CASE_STUDY
        .iter()
        .filter_map(|code| {
            let country = Country::new(code);
            let profile = profiles.iter().find(|p| p.country == country)?;
            let caps: Vec<f64> = dataset
                .dasu()
                .filter(|r| r.country == country)
                .map(|r| r.capacity.mbps())
                .collect();
            if caps.is_empty() {
                return None;
            }
            let median = Ecdf::new(caps.clone()).median();
            let entry = dataset.survey.get(country)?;
            let plan = entry.catalog.nearest_tier(Bandwidth::from_mbps(median));
            let monthly_income = profile.monthly_income();
            Some(CaseStudyRow {
                country,
                n_users: caps.len(),
                median_capacity: Bandwidth::from_mbps(median),
                nearest_tier: plan.download,
                price: plan.monthly_price,
                gdp_per_capita: profile.gdp_per_capita,
                price_share_of_income: plan
                    .monthly_price
                    .fraction_of(monthly_income)
                    .unwrap_or(0.0),
            })
        })
        .collect();
    ledger
        .emit("exhibit")
        .str("id", "table4")
        .u64("n", CASE_STUDY.len() as u64)
        .u64("dropped_no_data", (CASE_STUDY.len() - rows.len()) as u64)
        .u64("rows", rows.len() as u64);
    rows
}

/// Figure 7: (a) capacity CDFs and (b) peak-utilisation CDFs for the four
/// case-study markets.
pub fn figure7(dataset: &Dataset, ledger: &mut EventLog) -> [CdfFigure; 2] {
    let mut cap_series = Vec::new();
    let mut util_series = Vec::new();
    for code in CASE_STUDY {
        let country = Country::new(code);
        let caps: Vec<f64> = dataset
            .dasu()
            .filter(|r| r.country == country)
            .map(|r| r.capacity.mbps())
            .collect();
        let utils: Vec<f64> = dataset
            .dasu()
            .filter(|r| r.country == country)
            .filter_map(|r| r.peak_utilization())
            .collect();
        for id in ["fig7a", "fig7b"] {
            ledger
                .emit("exhibit")
                .str("id", id)
                .str("series", code)
                .u64("n", caps.len() as u64)
                .u64("dropped_no_utilization", (caps.len() - utils.len()) as u64);
        }
        if caps.is_empty() || utils.is_empty() {
            continue;
        }
        cap_series.push(CdfSeries::from_ecdf(code, &Ecdf::new(caps), 150));
        util_series.push(CdfSeries::from_ecdf(code, &Ecdf::new(utils), 150));
    }
    [
        CdfFigure {
            id: "fig7a".into(),
            title: "Download capacities (case-study markets)".into(),
            x_label: "Capacity (Mbps)".into(),
            log_x: true,
            series: cap_series,
        },
        CdfFigure {
            id: "fig7b".into(),
            title: "95th %ile link utilization (case-study markets)".into(),
            x_label: "95th %ile link utilization (fraction)".into(),
            log_x: false,
            series: util_series,
        },
    ]
}

/// Figure 8: per-market peak-utilisation CDFs split by service tier.
/// Tiers with fewer than `min_tier_users` users are dropped (the paper
/// uses 30).
pub fn figure8(dataset: &Dataset, min_tier_users: usize, ledger: &mut EventLog) -> Vec<CdfFigure> {
    CASE_STUDY
        .iter()
        .enumerate()
        .filter_map(|(i, code)| {
            let country = Country::new(code);
            let mut per_tier: StatsBins<ServiceTier> = StatsBins::new();
            let mut n_input = 0u64;
            for r in dataset.dasu().filter(|r| r.country == country) {
                n_input += 1;
                if let Some(u) = r.peak_utilization() {
                    per_tier.push(ServiceTier::of(r.capacity), u);
                }
            }
            let before_filter = per_tier.n_total();
            let per_tier = per_tier.filter_min_count(min_tier_users);
            ledger
                .emit("exhibit")
                .str("id", format!("fig8{}", (b'a' + i as u8) as char))
                .str("series", *code)
                .u64("n", n_input)
                .u64("dropped_no_utilization", n_input - before_filter as u64)
                .u64(
                    "dropped_thin_tiers",
                    before_filter as u64 - per_tier.n_total() as u64,
                )
                .u64("min_tier_users", min_tier_users as u64)
                .u64("n_used", per_tier.n_total() as u64);
            let series: Vec<CdfSeries> = per_tier
                .iter()
                .map(|(tier, utils)| {
                    CdfSeries::from_ecdf(tier.label(), &Ecdf::new(utils.iter().copied()), 120)
                })
                .collect();
            if series.is_empty() {
                return None;
            }
            Some(CdfFigure {
                id: format!("fig8{}", (b'a' + i as u8) as char),
                title: format!("95th %ile link utilization by tier — {code}"),
                x_label: "95th %ile link utilization (fraction)".into(),
                log_x: false,
                series,
            })
        })
        .collect()
}

/// Figure 9: average peak demand (Mbps) per market × tier bar chart.
pub fn figure9(dataset: &Dataset, min_tier_users: usize, ledger: &mut EventLog) -> BarFigure {
    let mut groups = Vec::new();
    for code in CASE_STUDY {
        let country = Country::new(code);
        let mut per_tier: StatsBins<ServiceTier> = StatsBins::new();
        let mut n_input = 0u64;
        for r in dataset.dasu().filter(|r| r.country == country) {
            n_input += 1;
            if let Some(d) = r.demand_no_bt {
                per_tier.push(ServiceTier::of(r.capacity), d.peak.mbps());
            }
        }
        let before_filter = per_tier.n_total();
        let per_tier = per_tier.filter_min_count(min_tier_users);
        ledger
            .emit("exhibit")
            .str("id", "fig9")
            .str("series", code)
            .u64("n", n_input)
            .u64("dropped_no_demand", n_input - before_filter as u64)
            .u64(
                "dropped_thin_tiers",
                before_filter as u64 - per_tier.n_total() as u64,
            )
            .u64("min_tier_users", min_tier_users as u64)
            .u64("n_used", per_tier.n_total() as u64);
        for (tier, ci) in per_tier.mean_cis(0.95) {
            groups.push(BarGroup {
                label: format!("{code} {}", tier.label()),
                bars: vec![Bar {
                    label: tier.label().into(),
                    value: ci.mean,
                    ci: Some((ci.lo, ci.hi)),
                    n: ci.n,
                }],
            });
        }
    }
    BarFigure {
        id: "fig9".into(),
        title: "Average 95th %ile demand per market and speed tier".into(),
        y_label: "Average 95th %ile demand (Mbps)".into(),
        groups,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_dataset::{World, WorldConfig};
    use std::sync::OnceLock;

    fn world() -> World {
        let mut cfg = WorldConfig::small(55);
        cfg.user_scale = 25.0;
        cfg.days = 2;
        cfg.fcc_users = 0;
        World::with_countries(cfg, &["BW", "SA", "US", "JP", "DE"])
    }

    fn case_dataset() -> &'static Dataset {
        static DS: OnceLock<Dataset> = OnceLock::new();
        DS.get_or_init(|| world().generate())
    }

    #[test]
    fn table4_matches_paper_shape() {
        let w = world();
        let ds = case_dataset();
        let rows = table4(ds, &w.profiles, &mut bb_trace::EventLog::new());
        assert_eq!(rows.len(), 4);
        // Capacity ordering BW < SA < US < JP.
        for pair in rows.windows(2) {
            assert!(
                pair[0].median_capacity < pair[1].median_capacity,
                "{} ({}) !< {} ({})",
                pair[0].country,
                pair[0].median_capacity,
                pair[1].country,
                pair[1].median_capacity
            );
        }
        // Income-share ordering: Botswana pays the largest share.
        let bw = &rows[0];
        let us = &rows[2];
        let jp = &rows[3];
        assert!(bw.price_share_of_income > 3.0 * us.price_share_of_income);
        assert!(
            (jp.price_share_of_income - us.price_share_of_income).abs() < us.price_share_of_income,
            "US and Japan spend a similar share"
        );
    }

    #[test]
    fn figure7_utilization_reverses_capacity_order() {
        let ds = case_dataset();
        let [caps, utils] = figure7(ds, &mut bb_trace::EventLog::new());
        assert_eq!(caps.series.len(), 4);
        assert_eq!(utils.series.len(), 4);
        // Median capacity ascending BW..JP; median utilisation descending.
        let cap_medians: Vec<f64> = caps.series.iter().map(|s| s.median).collect();
        assert!(
            cap_medians.windows(2).all(|w| w[0] <= w[1]),
            "{cap_medians:?}"
        );
        let bw_util = utils.series[0].median;
        let jp_util = utils.series[3].median;
        assert!(
            bw_util > jp_util,
            "BW util {bw_util} should exceed JP util {jp_util}"
        );
    }

    #[test]
    fn figure8_tiers_filtered_by_count() {
        let ds = case_dataset();
        let figs = figure8(ds, 30, &mut bb_trace::EventLog::new());
        assert!(!figs.is_empty());
        for fig in &figs {
            for s in &fig.series {
                assert!(s.n >= 30, "{}: {} has {}", fig.id, s.label, s.n);
            }
        }
    }

    #[test]
    fn figure9_has_us_bars() {
        let ds = case_dataset();
        let fig = figure9(ds, 30, &mut bb_trace::EventLog::new());
        assert!(fig.groups.iter().any(|g| g.label.starts_with("US")));
        for g in &fig.groups {
            assert!(g.bars[0].value > 0.0);
        }
    }

    #[test]
    fn table3_price_raises_demand() {
        // A world with cheap and expensive markets, balanced so both sides
        // of each price bin carry real mass.
        let mut cfg = WorldConfig::small(77);
        cfg.user_scale = 25.0;
        cfg.days = 2;
        cfg.fcc_users = 0;
        let mut world = World::with_countries(
            cfg,
            &[
                "US", "DE", "RU", "PT", "CN", "TR", "MX", "SA", "IN", "BW", "IR",
            ],
        );
        for p in &mut world.profiles {
            // Balanced sides with extra mass where the affordability
            // mechanism is strongest (the expensive markets).
            p.user_weight = match p.country.as_str() {
                "US" | "IN" | "SA" => 4.0,
                _ => 3.0,
            };
        }
        let ds = world.generate();
        let t = table3(&ds, &mut bb_trace::EventLog::new());
        assert!(!t.rows.is_empty(), "no price-bin rows produced");
        let pooled: f64 = t
            .rows
            .iter()
            .map(|r| r.percent_holds * r.n_pairs as f64)
            .sum::<f64>()
            / t.rows.iter().map(|r| r.n_pairs as f64).sum::<f64>();
        assert!(
            pooled > 50.0,
            "pooled {pooled}% over rows {:?}",
            t.rows
                .iter()
                .map(|r| (r.treatment.clone(), r.percent_holds, r.n_pairs))
                .collect::<Vec<_>>()
        );
    }
}
