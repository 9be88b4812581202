//! §7 — Connection quality.
//!
//! * [`table7`] — the latency experiment: very high latency (512–2048 ms
//!   control) vs each lower latency bin;
//! * [`figure11`] — latency CDFs, India vs the rest, NDT and web probes;
//! * [`table8`] — the packet-loss experiment;
//! * [`figure12`] — loss CDFs, India vs the rest;
//! * [`india_vs_us`] — the §7.1 matched comparison (India imposes lower
//!   demand than capacity-matched US users ~62% of the time).

use crate::confounders::{
    kept_row, run_logged, to_units, ConfounderSet, MatchedTable, OutcomeSpec,
};
use crate::exhibit::{CdfFigure, CdfSeries, ExperimentRow, ExperimentTable};
use bb_causal::experiment::Direction;
use bb_causal::NaturalExperiment;
use bb_dataset::Dataset;
use bb_stats::Ecdf;
use bb_trace::EventLog;
use bb_types::{Country, LatencyBin, LossBin};

/// Table 7: does *lower* latency mean higher peak demand (no BitTorrent)?
/// Control: the (512, 2048] ms group; treatments: each lower bin.
pub fn table7(dataset: &Dataset, ledger: &mut EventLog) -> ExperimentTable {
    let set = ConfounderSet::ForLatencyExperiment;
    let units_for = |bin: LatencyBin| {
        to_units(
            dataset.dasu().filter(|r| LatencyBin::of(r.latency) == bin),
            set,
            OutcomeSpec::PEAK_NO_BT,
        )
    };
    let control_bin = LatencyBin::From512To2048;
    let control = units_for(control_bin);
    let mut table = MatchedTable::new("table7", set, ledger);
    for treatment_bin in [
        LatencyBin::UpTo64,
        LatencyBin::From64To128,
        LatencyBin::From128To256,
        LatencyBin::From256To512,
    ] {
        table.arm(
            format!("latency {control_bin} vs {treatment_bin}"),
            &control,
            &units_for(treatment_bin),
            control_bin.label(),
            treatment_bin.label(),
        );
    }
    table.finish(
        "Lower latency vs 95th %ile usage (no BitTorrent)",
        "Control group (ms)",
        "Treatment group (ms)",
    )
}

/// Figure 11: latency CDFs for India vs the rest of the population — web
/// probes ('14 cohort) and NDT probes.
pub fn figure11(dataset: &Dataset, ledger: &mut EventLog) -> CdfFigure {
    let india = Country::new("IN");
    let mut series = Vec::new();
    let mut add = |label: &str, values: Vec<f64>| {
        if values.len() >= 3 {
            series.push(CdfSeries::from_ecdf(label, &Ecdf::new(values), 150));
        }
    };
    let web = |in_india: bool| -> Vec<f64> {
        dataset
            .dasu()
            .filter(|r| (r.country == india) == in_india)
            .filter_map(|r| r.web_latency.map(|l| l.ms()))
            .collect()
    };
    let ndt = |in_india: bool| -> Vec<f64> {
        dataset
            .dasu()
            .filter(|r| (r.country == india) == in_india)
            .map(|r| r.latency.ms())
            .collect()
    };
    add("Web '14 India", web(true));
    add("NDT India", ndt(true));
    add("Web '14 Other", web(false));
    add("NDT Other", ndt(false));
    let n_dasu = dataset.dasu().count() as u64;
    let n_web = (web(true).len() + web(false).len()) as u64;
    ledger
        .emit("exhibit")
        .str("id", "fig11")
        .u64("n", n_dasu)
        .u64("dropped_no_web_latency", n_dasu - n_web)
        .u64("series", series.len() as u64);
    CdfFigure {
        id: "fig11".into(),
        title: "Latency to NDT servers and popular web sites: India vs others".into(),
        x_label: "Latency (ms)".into(),
        log_x: true,
        series,
    }
}

/// Table 8: does *lower* packet loss mean higher average demand (no
/// BitTorrent)? Controls: the two high-loss bins; treatments: the two
/// low-loss bins — the four row pairs of the paper's Table 8.
pub fn table8(dataset: &Dataset, ledger: &mut EventLog) -> ExperimentTable {
    let set = ConfounderSet::ForLossExperiment;
    let units_for = |bin: LossBin| {
        to_units(
            dataset.dasu().filter(|r| LossBin::of(r.loss) == bin),
            set,
            OutcomeSpec::MEAN_NO_BT,
        )
    };
    let mut table = MatchedTable::new("table8", set, ledger);
    for (control_bin, treatment_bin) in [
        (LossBin::From0_1To1, LossBin::UpTo0_01),
        (LossBin::From0_1To1, LossBin::From0_01To0_1),
        (LossBin::From1To15, LossBin::UpTo0_01),
        (LossBin::From1To15, LossBin::From0_01To0_1),
    ] {
        table.arm(
            format!("loss {control_bin} vs {treatment_bin}"),
            &units_for(control_bin),
            &units_for(treatment_bin),
            control_bin.label(),
            treatment_bin.label(),
        );
    }
    table.finish(
        "Lower packet loss vs average usage (no BitTorrent)",
        "Control group",
        "Treatment group",
    )
}

/// Figure 12: packet-loss CDFs, India vs the rest of the population.
/// Series with no underlying users (a world without India, say) are
/// omitted rather than fabricated.
pub fn figure12(dataset: &Dataset, ledger: &mut EventLog) -> CdfFigure {
    let india = Country::new("IN");
    let build = |label: &str, in_india: bool| -> Option<CdfSeries> {
        let v: Vec<f64> = dataset
            .dasu()
            .filter(|r| (r.country == india) == in_india)
            .map(|r| r.loss.percent().max(1e-4))
            .collect();
        if v.is_empty() {
            return None;
        }
        Some(CdfSeries::from_ecdf(label, &Ecdf::new(v), 150))
    };
    let series: Vec<CdfSeries> = [build("India", true), build("Rest of population", false)]
        .into_iter()
        .flatten()
        .collect();
    ledger
        .emit("exhibit")
        .str("id", "fig12")
        .u64("n", dataset.dasu().count() as u64)
        .u64("series", series.len() as u64)
        .u64("dropped", 0);
    CdfFigure {
        id: "fig12".into(),
        title: "Average packet loss: India vs the rest of the population".into(),
        x_label: "Packet loss rate (%)".into(),
        log_x: true,
        series,
    }
}

/// The §7.1 matched comparison: capacity-matched users in India impose
/// *lower* demand than users in the US (the paper finds H holds 62% of the
/// time with p < 0.001, despite India's higher access price which would
/// predict the opposite).
pub fn india_vs_us(dataset: &Dataset, ledger: &mut EventLog) -> Option<ExperimentRow> {
    let set = ConfounderSet::ForCountryComparison;
    let units_in = |country: &str| {
        let country = Country::new(country);
        to_units(
            dataset.dasu().filter(|r| r.country == country),
            set,
            OutcomeSpec::PEAK_NO_BT,
        )
    };
    let exp = NaturalExperiment::new(
        "India users impose lower demand than capacity-matched US users",
        set.calipers(),
    )
    .with_direction(Direction::TreatmentLower);
    let outcome = run_logged(
        &exp,
        "india_vs_us",
        set,
        &units_in("US"),
        &units_in("IN"),
        ledger,
    );
    kept_row(outcome.as_ref(), "US (matched capacity)", "India")
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_dataset::{World, WorldConfig};
    use std::sync::OnceLock;

    fn dataset() -> &'static Dataset {
        static DS: OnceLock<Dataset> = OnceLock::new();
        DS.get_or_init(|| {
            let mut cfg = WorldConfig::small(61);
            cfg.user_scale = 20.0;
            cfg.days = 2;
            cfg.fcc_users = 0;
            World::with_countries(cfg, &["US", "DE", "IN", "BR", "PH", "UG", "AF"]).generate()
        })
    }

    #[test]
    fn table7_low_latency_users_demand_more() {
        let ds = dataset();
        let t = table7(ds, &mut bb_trace::EventLog::new());
        assert!(!t.rows.is_empty(), "no latency rows");
        let pooled: f64 = t
            .rows
            .iter()
            .map(|r| r.percent_holds * r.n_pairs as f64)
            .sum::<f64>()
            / t.rows.iter().map(|r| r.n_pairs as f64).sum::<f64>();
        assert!(pooled > 50.0, "pooled {pooled}%");
    }

    #[test]
    fn table8_low_loss_users_demand_more() {
        let ds = dataset();
        let t = table8(ds, &mut bb_trace::EventLog::new());
        assert!(!t.rows.is_empty(), "no loss rows");
        let pooled: f64 = t
            .rows
            .iter()
            .map(|r| r.percent_holds * r.n_pairs as f64)
            .sum::<f64>()
            / t.rows.iter().map(|r| r.n_pairs as f64).sum::<f64>();
        assert!(pooled > 50.0, "pooled {pooled}%");
    }

    #[test]
    fn figure11_india_is_shifted_right() {
        let ds = dataset();
        let fig = figure11(ds, &mut bb_trace::EventLog::new());
        let ndt_india = fig.series.iter().find(|s| s.label == "NDT India").unwrap();
        let ndt_other = fig.series.iter().find(|s| s.label == "NDT Other").unwrap();
        assert!(
            ndt_india.median > 2.0 * ndt_other.median,
            "India NDT median {} vs other {}",
            ndt_india.median,
            ndt_other.median
        );
        // Nearly every Indian user above 100 ms (paper's observation).
        let above_100 = ndt_india
            .points
            .iter()
            .find(|(x, _)| *x >= 100.0)
            .map(|(_, y)| 1.0 - y)
            .unwrap_or(1.0);
        assert!(above_100 > 0.6, "share above 100 ms {above_100}");
    }

    #[test]
    fn figure12_india_loss_is_worse() {
        let ds = dataset();
        let fig = figure12(ds, &mut bb_trace::EventLog::new());
        let india = &fig.series[0];
        let rest = &fig.series[1];
        assert!(
            india.median > rest.median,
            "India loss median {} vs rest {}",
            india.median,
            rest.median
        );
    }

    #[test]
    fn india_imposes_lower_demand_than_us() {
        let ds = dataset();
        let row = india_vs_us(ds, &mut bb_trace::EventLog::new()).expect("comparison ran");
        assert!(
            row.percent_holds > 50.0,
            "India lower-demand share {}%",
            row.percent_holds
        );
    }
}
