//! Extensions beyond the paper's own exhibits.
//!
//! These implement the follow-on analyses the paper points at:
//!
//! * [`caps_experiment`] — the effect of monthly usage caps on demand
//!   (Chetty et al., cited in §8, modelled end-to-end in `bb-netsim`);
//! * [`persona_breakdown`] and [`persona_experiment`] — "how different
//!   categories of users (e.g., gamers, shoppers or movie-watchers) …
//!   are impacted" (§10);
//! * [`cdf_separations`] — Kolmogorov–Smirnov quantification of the CDF
//!   gaps Figs. 11–12 show visually;
//! * [`qed_cross_check`] — the §8 design comparison: the same price
//!   question answered by a natural experiment and by a stratified QED.

use crate::confounders::{kept_row, to_units, ConfounderSet, OutcomeSpec};
use crate::exhibit::{ExperimentRow, ExperimentTable};
use bb_causal::experiment::Direction;
use bb_causal::{NaturalExperiment, StratifiedQed, MIN_TRIALS};
use bb_dataset::{Dataset, Persona};
use bb_stats::ks::{ks_two_sample, KsTest};
use bb_stats::mean_ci;
use bb_types::{Country, PriceBin};

/// The caps experiment: among otherwise similar users (capacity, quality,
/// market), do subscribers of *capped* plans impose less demand?
///
/// Chetty et al. found capped users curb their usage; our world models
/// both the self-pacing and the ISP throttle, so the matched comparison
/// should come out in the same direction.
pub fn caps_experiment(dataset: &Dataset) -> Option<ExperimentRow> {
    let uncapped = to_units(
        dataset.dasu().filter(|r| !r.plan_capped),
        ConfounderSet::ForUpgradeCostExperiment,
        OutcomeSpec::MEAN_WITH_BT,
    );
    let capped = to_units(
        dataset.dasu().filter(|r| r.plan_capped),
        ConfounderSet::ForUpgradeCostExperiment,
        OutcomeSpec::MEAN_WITH_BT,
    );
    let exp = NaturalExperiment::new(
        "capped plans reduce demand",
        ConfounderSet::ForUpgradeCostExperiment.calipers(),
    )
    .with_direction(Direction::TreatmentLower);
    let outcome = exp.run(&uncapped, &capped);
    kept_row(outcome.as_ref(), "uncapped plan", "capped plan")
}

/// Mean demand (Mbps, incl. BitTorrent) per persona with 95% CIs.
#[derive(Clone, Debug)]
pub struct PersonaRow {
    /// The persona.
    pub persona: Persona,
    /// Users of that persona.
    pub n_users: usize,
    /// Mean of per-user mean demand (Mbps).
    pub mean_demand_mbps: f64,
    /// 95% CI of the mean.
    pub ci: (f64, f64),
    /// Share of the persona's users that run BitTorrent.
    pub bt_share: f64,
}

/// The §10 breakdown: demand by user category.
pub fn persona_breakdown(dataset: &Dataset) -> Vec<PersonaRow> {
    Persona::ALL
        .iter()
        .filter_map(|&persona| {
            let demands: Vec<f64> = dataset
                .dasu()
                .filter(|r| r.persona == persona)
                .filter_map(|r| r.demand_with_bt.map(|d| d.mean.mbps()))
                .collect();
            if demands.len() < 5 {
                return None;
            }
            let n_bt = dataset
                .dasu()
                .filter(|r| r.persona == persona && r.is_bt_user)
                .count();
            let n_all = dataset.dasu().filter(|r| r.persona == persona).count();
            let ci = mean_ci(&demands, 0.95);
            Some(PersonaRow {
                persona,
                n_users: demands.len(),
                mean_demand_mbps: ci.mean,
                ci: (ci.lo, ci.hi),
                bt_share: n_bt as f64 / n_all.max(1) as f64,
            })
        })
        .collect()
}

/// Matched experiment: do streamers impose more demand than browsers at
/// equal capacity, quality and market? (They should — that's what the
/// persona means — but the matched design verifies the label survives the
/// confounders.)
pub fn persona_experiment(dataset: &Dataset) -> Option<ExperimentRow> {
    let browsers = to_units(
        dataset.dasu().filter(|r| r.persona == Persona::Browser),
        ConfounderSet::ForUpgradeCostExperiment,
        OutcomeSpec::MEAN_NO_BT,
    );
    let streamers = to_units(
        dataset.dasu().filter(|r| r.persona == Persona::Streamer),
        ConfounderSet::ForUpgradeCostExperiment,
        OutcomeSpec::MEAN_NO_BT,
    );
    let exp = NaturalExperiment::new(
        "streamers out-consume browsers",
        ConfounderSet::ForUpgradeCostExperiment.calipers(),
    );
    let outcome = exp.run(&browsers, &streamers);
    kept_row(outcome.as_ref(), "browsers", "streamers")
}

/// Upload/download asymmetry by group: mean uplink and downlink rates and
/// their ratio.
#[derive(Clone, Debug)]
pub struct UploadRow {
    /// Group label.
    pub group: String,
    /// Users in the group with both directions observed.
    pub n_users: usize,
    /// Mean downlink rate (Mbps, incl. BitTorrent intervals).
    pub down_mbps: f64,
    /// Mean uplink rate (Mbps).
    pub up_mbps: f64,
    /// Up/down ratio.
    pub ratio: f64,
}

/// Upload/download breakdown for BitTorrent vs non-BitTorrent users —
/// Dasu recorded both directions, and its BitTorrent-recruited population
/// is famously upload-heavy.
pub fn upload_breakdown(dataset: &Dataset) -> Vec<UploadRow> {
    let mut rows = Vec::new();
    for (label, want_bt) in [("BitTorrent users", true), ("other users", false)] {
        let mut down = Vec::new();
        let mut up = Vec::new();
        for r in dataset.dasu().filter(|r| r.is_bt_user == want_bt) {
            if let (Some(d), Some(u)) = (r.demand_with_bt, r.upload_mean) {
                down.push(d.mean.mbps());
                up.push(u.mbps());
            }
        }
        if down.is_empty() {
            continue;
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let (d, u) = (mean(&down), mean(&up));
        rows.push(UploadRow {
            group: label.into(),
            n_users: down.len(),
            down_mbps: d,
            up_mbps: u,
            ratio: u / d.max(1e-12),
        });
    }
    rows
}

/// KS quantification of the Figs. 11–12 separations: India vs the rest of
/// the population, for NDT latency and loss.
#[derive(Clone, Copy, Debug)]
pub struct CdfSeparations {
    /// KS test on NDT latencies (India vs rest).
    pub latency: KsTest,
    /// KS test on loss rates (India vs rest).
    pub loss: KsTest,
}

/// Compute the KS separations, if India is present in the dataset.
pub fn cdf_separations(dataset: &Dataset) -> Option<CdfSeparations> {
    let india = Country::new("IN");
    let split = |f: &dyn Fn(&bb_dataset::UserRecord) -> f64| -> (Vec<f64>, Vec<f64>) {
        let mut a = Vec::new();
        let mut b = Vec::new();
        for r in dataset.dasu() {
            if r.country == india {
                a.push(f(r));
            } else {
                b.push(f(r));
            }
        }
        (a, b)
    };
    let (lat_in, lat_rest) = split(&|r| r.latency.ms());
    let (loss_in, loss_rest) = split(&|r| r.loss.percent());
    if lat_in.len() < 10 || lat_rest.len() < 10 {
        return None;
    }
    Some(CdfSeparations {
        latency: ks_two_sample(&lat_in, &lat_rest),
        loss: ks_two_sample(&loss_in, &loss_rest),
    })
}

/// The §8 design comparison: answer "does a dearer market raise demand?"
/// (the Table 3 bin-1 vs bin-2 question) with both study designs.
#[derive(Clone, Debug)]
pub struct DesignComparison {
    /// Natural-experiment result (nearest-neighbour matching).
    pub natural: Option<ExperimentRow>,
    /// Stratified-QED result on the same units.
    pub qed: Option<ExperimentRow>,
}

/// Run both designs over identical unit sets.
pub fn qed_cross_check(dataset: &Dataset) -> DesignComparison {
    let units_for = |bin: PriceBin| {
        to_units(
            dataset
                .dasu()
                .filter(|r| PriceBin::of(r.access_price) == bin),
            ConfounderSet::ForPriceExperiment,
            OutcomeSpec::PEAK_NO_BT,
        )
    };
    let control = units_for(PriceBin::UpTo25);
    let treatment = units_for(PriceBin::From25To60);

    let natural = NaturalExperiment::new(
        "price (natural experiment)",
        ConfounderSet::ForPriceExperiment.calipers(),
    )
    .run(&control, &treatment);
    let natural = kept_row(natural.as_ref(), "($0, $25] (NE)", "($25, $60]");

    let qed = StratifiedQed::new("price (stratified QED)")
        .with_buckets(4)
        .run(&control, &treatment)
        .filter(|o| o.test.trials >= MIN_TRIALS)
        .map(|o| ExperimentRow {
            control: "($0, $25] (QED)".into(),
            treatment: "($25, $60]".into(),
            n_pairs: o.test.trials as usize,
            percent_holds: o.percent_holds(),
            p_value: o.test.p_value,
            significant: o.test.significant(),
        });

    DesignComparison { natural, qed }
}

/// Render the extension findings as one experiment table for the harness.
pub fn extension_table(dataset: &Dataset) -> ExperimentTable {
    let mut rows = Vec::new();
    if let Some(r) = caps_experiment(dataset) {
        rows.push(r);
    }
    if let Some(r) = persona_experiment(dataset) {
        rows.push(r);
    }
    let cmp = qed_cross_check(dataset);
    rows.extend(cmp.natural);
    rows.extend(cmp.qed);
    ExperimentTable {
        id: "ext".into(),
        title: "Extensions: caps, personas, and the NE-vs-QED design comparison".into(),
        control_label: "Control group".into(),
        treatment_label: "Treatment group".into(),
        rows,
    }
}

/// Every extension finding the paper run reports, computed at once.
#[derive(Clone, Debug)]
pub struct Extensions {
    /// [`extension_table`].
    pub table: ExperimentTable,
    /// [`cdf_separations`].
    pub separations: Option<CdfSeparations>,
    /// [`persona_breakdown`].
    pub personas: Vec<PersonaRow>,
    /// [`upload_breakdown`].
    pub uploads: Vec<UploadRow>,
}

impl Extensions {
    /// Compute every extension on `dataset`.
    pub fn run(dataset: &Dataset) -> Self {
        Extensions {
            table: extension_table(dataset),
            separations: cdf_separations(dataset),
            personas: persona_breakdown(dataset),
            uploads: upload_breakdown(dataset),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_dataset::{World, WorldConfig};
    use std::sync::OnceLock;

    fn dataset() -> &'static Dataset {
        static DS: OnceLock<Dataset> = OnceLock::new();
        DS.get_or_init(|| {
            let mut cfg = WorldConfig::small(888);
            cfg.user_scale = 30.0;
            cfg.days = 2;
            cfg.fcc_users = 0;
            let mut world = World::with_countries(cfg, &["US", "DE", "RU", "CN", "BR", "IN", "MX"]);
            for p in &mut world.profiles {
                p.user_weight = 4.0;
                // Caps off so persona/market signals are undiluted; the
                // caps experiment gets its own world below.
                p.market.capped_share = 0.0;
            }
            world.generate()
        })
    }

    /// Single-market world with a large capped share: the caps experiment
    /// needs within-market pairs and real statistical power.
    fn caps_dataset() -> &'static Dataset {
        static DS: OnceLock<Dataset> = OnceLock::new();
        DS.get_or_init(|| {
            let mut cfg = WorldConfig::small(889);
            cfg.user_scale = 14.0;
            cfg.days = 2;
            cfg.fcc_users = 0;
            let mut world = World::with_countries(cfg, &["US"]);
            // Binding caps: a tight market convention makes the effect
            // detectable at test scale (the paper-scale run uses the
            // default generous caps and still detects it with ~10x the
            // pairs).
            world.profiles[0].market.capped_share = 0.55;
            world.profiles[0].market.cap_gb_per_mbps = 12.0;
            world.generate()
        })
    }

    #[test]
    fn caps_lower_demand() {
        let row = caps_experiment(caps_dataset()).expect("caps experiment runs");
        assert!(row.n_pairs > 40, "{} pairs", row.n_pairs);
        assert!(
            row.percent_holds > 50.0,
            "capped users should use less: {}%",
            row.percent_holds
        );
    }

    #[test]
    fn personas_order_as_designed() {
        let rows = persona_breakdown(dataset());
        assert!(rows.len() >= 3, "{} personas", rows.len());
        let get = |p: Persona| rows.iter().find(|r| r.persona == p);
        if let (Some(streamer), Some(browser)) = (get(Persona::Streamer), get(Persona::Browser)) {
            assert!(
                streamer.mean_demand_mbps > browser.mean_demand_mbps,
                "streamers {} vs browsers {}",
                streamer.mean_demand_mbps,
                browser.mean_demand_mbps
            );
        }
        if let Some(downloader) = get(Persona::Downloader) {
            // Downloaders torrent the most.
            for other in &rows {
                if other.persona != Persona::Downloader {
                    assert!(downloader.bt_share >= other.bt_share - 0.05);
                }
            }
        }
    }

    #[test]
    fn persona_experiment_confirms_the_label() {
        if let Some(row) = persona_experiment(dataset()) {
            assert!(
                row.percent_holds > 52.0,
                "streamers should out-consume browsers: {}%",
                row.percent_holds
            );
        }
    }

    #[test]
    fn ks_separations_flag_india() {
        let sep = cdf_separations(dataset()).expect("India present");
        assert!(
            sep.latency.significant(),
            "latency D = {}",
            sep.latency.statistic
        );
        assert!(sep.latency.statistic > 0.5);
        assert!(sep.loss.statistic > 0.2, "loss D = {}", sep.loss.statistic);
    }

    #[test]
    fn both_designs_run_and_agree_in_direction() {
        let cmp = qed_cross_check(dataset());
        // Both designs should produce an answer at this scale; when they
        // do, the *direction* should agree (both above or both below 50
        // within noise).
        if let (Some(ne), Some(qed)) = (&cmp.natural, &cmp.qed) {
            assert!(ne.n_pairs >= 8);
            assert!(qed.n_pairs >= 8);
            let agree = (ne.percent_holds - 50.0) * (qed.percent_holds - 50.0) >= -100.0;
            assert!(
                agree,
                "designs disagree wildly: NE {}%, QED {}%",
                ne.percent_holds, qed.percent_holds
            );
        }
    }

    #[test]
    fn extension_table_collects_rows() {
        let t = extension_table(dataset());
        assert!(!t.rows.is_empty());
    }

    #[test]
    fn bt_users_are_upload_heavy() {
        let rows = upload_breakdown(dataset());
        assert_eq!(rows.len(), 2);
        let bt = rows
            .iter()
            .find(|r| r.group.contains("BitTorrent"))
            .unwrap();
        let other = rows.iter().find(|r| r.group.contains("other")).unwrap();
        assert!(bt.n_users > 50 && other.n_users > 50);
        assert!(
            bt.ratio > 2.0 * other.ratio,
            "BT up/down {} vs other {}",
            bt.ratio,
            other.ratio
        );
        // Consumption-dominated traffic is download-heavy for everyone.
        assert!(other.ratio < 0.4, "{}", other.ratio);
    }
}
