//! The §3.2 matching configuration shared by all natural experiments.
//!
//! Every matched experiment in the paper balances on "connection quality
//! (packet loss and latency), price of broadband access, and cost to
//! upgrade capacity" — except that the variable under treatment is swapped
//! out of the confounder set and (where relevant) capacity is swapped in.
//! The caliper is the paper's 25% relative rule, with small absolute floors
//! so near-zero covariates (clean links) remain matchable.
//!
//! Every matched table (Tables 2, 3, 6, 7, 8 and the §4 per-tier test) is
//! built by one crate-private builder, `MatchedTable`: each arm matches
//! its pools, sign-tests the pairs, logs both, and keeps its row exactly
//! when the outcome is not `starved()`.

use crate::exhibit::{ExperimentRow, ExperimentTable};
use bb_causal::{Caliper, ExperimentOutcome, NaturalExperiment, Unit, MIN_TRIALS};
use bb_dataset::record::UserRecord;
use bb_trace::EventLog;
use bb_types::{Bandwidth, DemandMetric};

/// Which covariates an experiment balances on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfounderSet {
    /// Capacity is the treatment (Table 2): match on latency, loss, access
    /// price and upgrade cost.
    ForCapacityExperiment,
    /// Price of access is the treatment (Table 3): match on capacity,
    /// latency and loss. Upgrade cost is deliberately *not* a covariate
    /// here: the two price variables are strongly collinear across markets
    /// (Fig. 10 spans four orders of magnitude), so requiring both within
    /// 25% would empty the expensive bins' common support — §5 only asks
    /// for "otherwise similar pairs of users".
    ForPriceExperiment,
    /// Upgrade cost is the treatment (Table 6): match on capacity, latency,
    /// loss and access price.
    ForUpgradeCostExperiment,
    /// Latency is the treatment (Table 7). §7 matches on "link capacity
    /// and location", requiring similar loss: capacity, loss, access price.
    ForLatencyExperiment,
    /// Loss is the treatment (Table 8): capacity, latency, access price.
    ForLossExperiment,
    /// Country-to-country comparison (§7.1 India vs US): match on capacity
    /// only ("comparing users in India to users with similar capacities in
    /// the US") — quality and the market covariates *are* the difference
    /// under study.
    ForCountryComparison,
}

impl ConfounderSet {
    /// Calipers, one per covariate, in the order produced by
    /// [`ConfounderSet::covariates`].
    pub fn calipers(self) -> Vec<Caliper> {
        // Floors sized to each covariate's measurement noise: ~20 ms of
        // latency (repeated NDT runs jitter by that much), 0.05 loss
        // percentage points, $2 of access price, $0.30 of upgrade cost
        // (the OLS slope's typical standard error), 100 kbps of capacity.
        let latency = Caliper::paper_with_floor(20.0);
        let loss = Caliper::paper_with_floor(0.05);
        let access = Caliper::paper_with_floor(2.0);
        let upgrade = Caliper::paper_with_floor(0.3);
        let capacity = Caliper::paper_with_floor(0.1);
        match self {
            ConfounderSet::ForCapacityExperiment => vec![latency, loss, access, upgrade],
            ConfounderSet::ForPriceExperiment => vec![capacity, latency, loss],
            ConfounderSet::ForUpgradeCostExperiment => vec![capacity, latency, loss, access],
            ConfounderSet::ForLatencyExperiment => vec![capacity, loss, access],
            ConfounderSet::ForLossExperiment => vec![capacity, latency, access],
            ConfounderSet::ForCountryComparison => vec![capacity],
        }
    }

    /// Covariate names, in the order produced by
    /// [`ConfounderSet::covariates`] and [`ConfounderSet::calipers`] —
    /// used to label per-covariate caliper rejections in the provenance
    /// ledger.
    pub fn covariate_names(self) -> Vec<&'static str> {
        match self {
            ConfounderSet::ForCapacityExperiment => {
                vec!["latency", "loss", "access_price", "upgrade_cost"]
            }
            ConfounderSet::ForPriceExperiment => vec!["capacity", "latency", "loss"],
            ConfounderSet::ForUpgradeCostExperiment => {
                vec!["capacity", "latency", "loss", "access_price"]
            }
            ConfounderSet::ForLatencyExperiment => vec!["capacity", "loss", "access_price"],
            ConfounderSet::ForLossExperiment => vec!["capacity", "latency", "access_price"],
            ConfounderSet::ForCountryComparison => vec!["capacity"],
        }
    }

    /// Covariate vector for `record`, or `None` when the record lacks a
    /// needed covariate (market without an upgrade-cost estimate, say).
    pub fn covariates(self, record: &UserRecord) -> Option<Vec<f64>> {
        let latency = record.latency.ms();
        let loss = record.loss.percent();
        let access = record.access_price.usd();
        let capacity = record.capacity.mbps();
        match self {
            ConfounderSet::ForCapacityExperiment => {
                let upgrade = record.upgrade_cost?.usd();
                Some(vec![latency, loss, access, upgrade])
            }
            ConfounderSet::ForPriceExperiment => Some(vec![capacity, latency, loss]),
            ConfounderSet::ForUpgradeCostExperiment => Some(vec![capacity, latency, loss, access]),
            ConfounderSet::ForLatencyExperiment => Some(vec![capacity, loss, access]),
            ConfounderSet::ForLossExperiment => Some(vec![capacity, latency, access]),
            ConfounderSet::ForCountryComparison => Some(vec![capacity]),
        }
    }
}

/// Demand variants the experiments compare.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutcomeSpec {
    /// Mean or 95th-percentile usage.
    pub metric: DemandMetric,
    /// Whether BitTorrent-active intervals are included.
    pub with_bt: bool,
}

impl OutcomeSpec {
    /// Peak usage excluding BitTorrent — the workhorse outcome of §5–§7.
    pub const PEAK_NO_BT: OutcomeSpec = OutcomeSpec {
        metric: DemandMetric::Peak,
        with_bt: false,
    };
    /// Mean usage excluding BitTorrent.
    pub const MEAN_NO_BT: OutcomeSpec = OutcomeSpec {
        metric: DemandMetric::Mean,
        with_bt: false,
    };
    /// Mean usage including BitTorrent.
    pub const MEAN_WITH_BT: OutcomeSpec = OutcomeSpec {
        metric: DemandMetric::Mean,
        with_bt: true,
    };
    /// Peak usage including BitTorrent.
    pub const PEAK_WITH_BT: OutcomeSpec = OutcomeSpec {
        metric: DemandMetric::Peak,
        with_bt: true,
    };

    /// Extract the outcome (bps) from a record, if observed.
    pub fn of(&self, record: &UserRecord) -> Option<f64> {
        let demand = if self.with_bt {
            record.demand_with_bt?
        } else {
            record.demand_no_bt?
        };
        Some(demand.metric(self.metric).bps())
    }
}

/// Convert records to matching units under a confounder set and outcome.
/// Records missing a covariate or the outcome are skipped.
pub fn to_units<'a>(
    records: impl IntoIterator<Item = &'a UserRecord>,
    set: ConfounderSet,
    outcome: OutcomeSpec,
) -> Vec<Unit> {
    records
        .into_iter()
        .filter_map(|r| {
            let covariates = set.covariates(r)?;
            let out = outcome.of(r)?;
            Some(Unit::new(r.user.0, covariates, out))
        })
        .collect()
}

/// Capacity helper used by several sections: measured capacity in Mbps.
pub fn capacity_mbps(record: &UserRecord) -> f64 {
    record.capacity.mbps()
}

/// Convenience: a `Bandwidth` from an f64 bps outcome.
pub fn bps(value: f64) -> Bandwidth {
    Bandwidth::from_bps(value.max(0.0))
}

/// Run `exp` on the two pools and record its `match_audit` and
/// `sign_test` events under `exhibit`; the row is `kept` exactly when
/// [`kept_row`] would keep it.
pub(crate) fn run_logged(
    exp: &NaturalExperiment,
    exhibit: &str,
    set: ConfounderSet,
    control: &[Unit],
    treatment: &[Unit],
    ledger: &mut EventLog,
) -> Option<ExperimentOutcome> {
    let (outcome, audit) = exp.run_audited(control, treatment);
    let kept = outcome.as_ref().is_some_and(|o| !o.starved());
    let names = set.covariate_names();
    exp.log_provenance(ledger, exhibit, &names, &audit, outcome.as_ref(), kept);
    outcome
}

/// The table row for an experiment's outcome, or `None` when it did not
/// run or is `starved()`: too few pairs to report at all.
pub(crate) fn kept_row(
    outcome: Option<&ExperimentOutcome>,
    control: impl Into<String>,
    treatment: impl Into<String>,
) -> Option<ExperimentRow> {
    let outcome = outcome.filter(|o| !o.starved())?;
    Some(ExperimentRow {
        control: control.into(),
        treatment: treatment.into(),
        n_pairs: outcome.test.trials as usize,
        percent_holds: outcome.percent_holds(),
        p_value: outcome.p_value(),
        significant: outcome.significant(),
    })
}

/// Builder for one matched-experiment table: each [`arm`](Self::arm) is
/// either a row or one counted drop, and [`finish`](Self::finish) records
/// the table's `exhibit` accounting event.
pub(crate) struct MatchedTable<'a> {
    id: &'a str,
    set: ConfounderSet,
    ledger: &'a mut EventLog,
    rows: Vec<ExperimentRow>,
    dropped_empty_bins: u64,
    dropped_no_experiment: u64,
    dropped_min_pairs: u64,
}

impl<'a> MatchedTable<'a> {
    /// An empty table `id` whose arms all balance on `set`.
    pub(crate) fn new(id: &'a str, set: ConfounderSet, ledger: &'a mut EventLog) -> Self {
        MatchedTable {
            id,
            set,
            ledger,
            rows: Vec::new(),
            dropped_empty_bins: 0,
            dropped_no_experiment: 0,
            dropped_min_pairs: 0,
        }
    }

    /// Match `treatment` against `control` (units built under this table's
    /// set) as the experiment `name`, and keep the outcome as the row
    /// `control_label` vs `treatment_label`. An empty pool skips the arm.
    pub(crate) fn arm(
        &mut self,
        name: String,
        control: &[Unit],
        treatment: &[Unit],
        control_label: impl Into<String>,
        treatment_label: impl Into<String>,
    ) {
        if control.is_empty() || treatment.is_empty() {
            self.dropped_empty_bins += 1;
            return;
        }
        let exp = NaturalExperiment::new(name, self.set.calipers());
        let outcome = run_logged(&exp, self.id, self.set, control, treatment, self.ledger);
        match kept_row(outcome.as_ref(), control_label, treatment_label) {
            Some(row) => self.rows.push(row),
            None if outcome.is_none() => self.dropped_no_experiment += 1,
            None => self.dropped_min_pairs += 1,
        }
    }

    /// Record the row and drop counts, and return the table.
    pub(crate) fn finish(
        self,
        title: impl Into<String>,
        control_label: &str,
        treatment_label: &str,
    ) -> ExperimentTable {
        self.ledger
            .emit("exhibit")
            .str("id", self.id)
            .u64("rows", self.rows.len() as u64)
            .u64("dropped_empty_bins", self.dropped_empty_bins)
            .u64("dropped_no_experiment", self.dropped_no_experiment)
            .u64("dropped_min_pairs", self.dropped_min_pairs)
            .u64("min_pairs", MIN_TRIALS);
        ExperimentTable {
            id: self.id.into(),
            title: title.into(),
            control_label: control_label.into(),
            treatment_label: treatment_label.into(),
            rows: self.rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_dataset::record::VantageKind;
    use bb_types::{Country, DemandSummary, Latency, LossRate, MoneyPpp, NetworkId, UserId, Year};

    fn record(upgrade: Option<f64>) -> UserRecord {
        UserRecord {
            user: UserId(9),
            country: Country::new("US"),
            network: NetworkId::new(Country::new("US"), 0, 0, 0),
            year: Year(2012),
            vantage: VantageKind::Dasu,
            capacity: Bandwidth::from_mbps(10.0),
            latency: Latency::from_ms(50.0),
            loss: LossRate::from_percent(0.1),
            web_latency: None,
            demand_with_bt: Some(DemandSummary::new(
                Bandwidth::from_kbps(300.0),
                Bandwidth::from_mbps(3.0),
            )),
            demand_no_bt: Some(DemandSummary::new(
                Bandwidth::from_kbps(100.0),
                Bandwidth::from_mbps(1.0),
            )),
            plan_capacity: Bandwidth::from_mbps(10.0),
            plan_price: MoneyPpp::from_usd(50.0),
            access_price: MoneyPpp::from_usd(20.0),
            upgrade_cost: upgrade.map(MoneyPpp::from_usd),
            is_bt_user: true,
            upload_mean: None,
            plan_capped: false,
            counter_source: Some(bb_netsim::collect::CounterSource::Netstat),
            persona: bb_dataset::Persona::Streamer,
        }
    }

    #[test]
    fn covariate_orders_match_calipers() {
        let r = record(Some(0.5));
        for set in [
            ConfounderSet::ForCapacityExperiment,
            ConfounderSet::ForPriceExperiment,
            ConfounderSet::ForUpgradeCostExperiment,
            ConfounderSet::ForLatencyExperiment,
            ConfounderSet::ForLossExperiment,
            ConfounderSet::ForCountryComparison,
        ] {
            let cov = set.covariates(&r).unwrap();
            assert_eq!(cov.len(), set.calipers().len(), "{set:?}");
            assert_eq!(cov.len(), set.covariate_names().len(), "{set:?}");
        }
    }

    #[test]
    fn treatment_variable_is_excluded_from_its_own_confounders() {
        let r = record(Some(0.5));
        // Capacity experiment must not match on capacity (10 Mbps).
        let cov = ConfounderSet::ForCapacityExperiment.covariates(&r).unwrap();
        assert!(!cov.contains(&10.0));
        // Latency experiment must not match on latency (50 ms).
        let cov = ConfounderSet::ForLatencyExperiment.covariates(&r).unwrap();
        assert!(!cov.contains(&50.0));
    }

    #[test]
    fn missing_upgrade_cost_blocks_most_sets() {
        let r = record(None);
        assert!(ConfounderSet::ForCapacityExperiment
            .covariates(&r)
            .is_none());
        // …but not the sets that don't use it.
        assert!(ConfounderSet::ForUpgradeCostExperiment
            .covariates(&r)
            .is_some());
        assert!(ConfounderSet::ForCountryComparison.covariates(&r).is_some());
    }

    #[test]
    fn outcomes_select_the_right_metric() {
        let r = record(Some(0.5));
        assert_eq!(OutcomeSpec::PEAK_NO_BT.of(&r), Some(1e6));
        assert_eq!(OutcomeSpec::MEAN_NO_BT.of(&r), Some(1e5));
        assert_eq!(OutcomeSpec::PEAK_WITH_BT.of(&r), Some(3e6));
        assert_eq!(OutcomeSpec::MEAN_WITH_BT.of(&r), Some(3e5));
    }

    #[test]
    fn to_units_skips_incomplete_records() {
        let good = record(Some(0.5));
        let bad = record(None);
        let units = to_units(
            [&good, &bad],
            ConfounderSet::ForCapacityExperiment,
            OutcomeSpec::PEAK_NO_BT,
        );
        assert_eq!(units.len(), 1);
        assert_eq!(units[0].outcome, 1e6);
    }
}
