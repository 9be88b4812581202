//! The full study: every exhibit in one pass.

use crate::exhibit::{BarFigure, BinnedFigure, CdfFigure, Exhibit, ExperimentRow, ExperimentTable};
use crate::sec5::CaseStudyRow;
use crate::{sec2, sec3, sec4, sec5, sec6, sec7};
use bb_dataset::{CountryProfile, Dataset};
use bb_market::survey::{CorrelationCensus, RegionCostRow};
use bb_trace::EventLog;

/// Every table and figure of the paper, computed from one dataset.
#[derive(Clone, Debug)]
pub struct StudyReport {
    /// Fig. 1a–c and the §2.2 prose statistics.
    pub fig1: (CdfFigure, CdfFigure, CdfFigure, sec2::PopulationStats),
    /// Fig. 2a–d.
    pub fig2: [BinnedFigure; 4],
    /// Fig. 3a–b.
    pub fig3: [BinnedFigure; 2],
    /// Table 1.
    pub table1: ExperimentTable,
    /// Fig. 4a–b.
    pub fig4: [CdfFigure; 2],
    /// Fig. 5a–d.
    pub fig5: [BarFigure; 4],
    /// Table 2 (Dasu, FCC).
    pub table2: (ExperimentTable, ExperimentTable),
    /// Fig. 6a–d.
    pub fig6: [BinnedFigure; 4],
    /// §4 per-tier year experiment.
    pub year_experiment: ExperimentTable,
    /// Table 3.
    pub table3: ExperimentTable,
    /// Table 4.
    pub table4: Vec<CaseStudyRow>,
    /// Fig. 7a–b.
    pub fig7: [CdfFigure; 2],
    /// Fig. 8 panels (one per case-study market with enough users).
    pub fig8: Vec<CdfFigure>,
    /// Fig. 9.
    pub fig9: BarFigure,
    /// Fig. 10 plus per-country upgrade costs.
    pub fig10: (CdfFigure, Vec<(String, f64)>),
    /// Table 5.
    pub table5: Vec<RegionCostRow>,
    /// §6 correlation census.
    pub census: CorrelationCensus,
    /// Table 6a–b.
    pub table6: [ExperimentTable; 2],
    /// Table 7.
    pub table7: ExperimentTable,
    /// Fig. 11.
    pub fig11: CdfFigure,
    /// Table 8.
    pub table8: ExperimentTable,
    /// Fig. 12.
    pub fig12: CdfFigure,
    /// §7.1 India-vs-US matched comparison.
    pub india_vs_us: Option<ExperimentRow>,
}

impl StudyReport {
    /// Run the entire pipeline.
    ///
    /// `profiles` supplies the per-country GDP data for Table 4 (the paper
    /// took it from the IMF); pass the same profiles used to generate the
    /// dataset. `min_tier_users` is the §5 per-tier filter (30 in the
    /// paper; smaller values are useful on reduced datasets).
    pub fn run(dataset: &Dataset, profiles: &[CountryProfile], min_tier_users: usize) -> Self {
        Self::run_with_ledger(dataset, profiles, min_tier_users, &mut EventLog::new())
    }

    /// Like [`StudyReport::run`], but records a provenance event for every
    /// exhibit into `ledger` (see the `bb-trace` event log). The ledger
    /// contents depend only on the dataset, never on the execution plan
    /// that generated it.
    pub fn run_with_ledger(
        dataset: &Dataset,
        profiles: &[CountryProfile],
        min_tier_users: usize,
        ledger: &mut EventLog,
    ) -> Self {
        StudyReport {
            fig1: sec2::figure1(dataset, ledger),
            fig2: sec3::figure2(dataset, ledger),
            fig3: sec3::figure3(dataset, ledger),
            table1: sec3::table1(dataset, ledger),
            fig4: sec3::figure4(dataset, ledger),
            fig5: sec3::figure5(dataset, ledger),
            table2: sec3::table2(dataset, ledger),
            fig6: sec4::figure6(dataset, ledger),
            year_experiment: sec4::year_experiment(dataset, ledger),
            table3: sec5::table3(dataset, ledger),
            table4: sec5::table4(dataset, profiles, ledger),
            fig7: sec5::figure7(dataset, ledger),
            fig8: sec5::figure8(dataset, min_tier_users, ledger),
            fig9: sec5::figure9(dataset, min_tier_users, ledger),
            fig10: sec6::figure10(dataset, ledger),
            table5: sec6::table5(dataset),
            census: sec6::census(dataset),
            table6: sec6::table6(dataset, ledger),
            table7: sec7::table7(dataset, ledger),
            fig11: sec7::figure11(dataset, ledger),
            table8: sec7::table8(dataset, ledger),
            fig12: sec7::figure12(dataset, ledger),
            india_vs_us: sec7::india_vs_us(dataset, ledger),
        }
    }

    /// The one ordered inventory of every figure and table, in the order
    /// `reproduce` writes them: the CDF figures (Fig. 1, 4, 7, 10, 11, 12,
    /// then the Fig. 8 panels), the binned figures (Fig. 2, 3, 6), the bar
    /// figures (Fig. 5, 9), then the non-empty
    /// [`experiment_tables`](Self::experiment_tables). Ids are unique.
    pub fn exhibits(&self) -> Vec<Exhibit<'_>> {
        let r = self;
        let cdfs = [
            &r.fig1.0, &r.fig1.1, &r.fig1.2, &r.fig4[0], &r.fig4[1], &r.fig7[0], &r.fig7[1],
            &r.fig10.0, &r.fig11, &r.fig12,
        ];
        let binned = r.fig2.iter().chain(&r.fig3).chain(&r.fig6);
        let bars = r.fig5.iter().chain([&r.fig9]);
        cdfs.into_iter()
            .chain(&r.fig8)
            .map(Exhibit::Cdf)
            .chain(binned.map(Exhibit::Binned))
            .chain(bars.map(Exhibit::Bar))
            .chain(self.experiment_tables().into_iter().map(Exhibit::Table))
            .collect()
    }

    /// The inventory entry with this id, if the report has it; `"table2"`
    /// names Table 2's Dasu panel, `"table2_dasu"`.
    pub fn exhibit(&self, id: &str) -> Option<Exhibit<'_>> {
        let id = if id == "table2" { "table2_dasu" } else { id };
        self.exhibits().into_iter().find(|e| e.id() == id)
    }

    /// All experiment tables, for bulk rendering.
    pub fn experiment_tables(&self) -> Vec<&ExperimentTable> {
        let mut v = vec![
            &self.table1,
            &self.table2.0,
            &self.table2.1,
            &self.year_experiment,
            &self.table3,
            &self.table6[0],
            &self.table6[1],
            &self.table7,
            &self.table8,
        ];
        v.retain(|t| !t.rows.is_empty());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_dataset::{World, WorldConfig};

    /// The full report and its ledger on a small world that keeps some
    /// matched rows and drops others for every reason a table can have.
    fn small_world_report() -> (StudyReport, EventLog) {
        let mut cfg = WorldConfig::small(123);
        cfg.user_scale = 1.0;
        cfg.days = 1;
        cfg.fcc_users = 30;
        let world = World::new(cfg);
        let ds = world.generate();
        let mut ledger = EventLog::new();
        let report = StudyReport::run_with_ledger(&ds, &world.profiles, 10, &mut ledger);
        (report, ledger)
    }

    #[test]
    fn full_report_runs_on_a_small_world() {
        let (report, ledger) = small_world_report();
        // Every section left provenance behind.
        assert!(
            ledger.events().any(|e| e.kind() == "match_audit"),
            "expected match_audit events in the ledger"
        );
        assert!(ledger.events().any(|e| e.kind() == "exhibit"));
        // Every exhibit produced something.
        assert!(report.fig1.3.median_capacity_mbps > 0.0);
        assert!(!report.fig2[0].series[0].points.is_empty());
        assert!(!report.table1.rows.is_empty());
        assert_eq!(report.table4.len(), 4);
        assert!(!report.table5.is_empty());
        assert!(report.census.n_markets > 80);
        assert!(!report.experiment_tables().is_empty());
        // The inventory names every exhibit once, and resolves the alias.
        let exhibits = report.exhibits();
        let ids: Vec<&str> = exhibits.iter().map(|e| e.id()).collect();
        let unique: std::collections::BTreeSet<&str> = ids.iter().copied().collect();
        assert_eq!(unique.len(), ids.len(), "{ids:?}");
        assert!(ids.contains(&"fig12") && ids.contains(&"table1"), "{ids:?}");
        let alias = report.exhibit("table2").map(|e| e.id().to_string());
        assert_eq!(alias.as_deref(), Some("table2_dasu"));
        assert!(report.exhibit("fig99").is_none());
    }

    #[test]
    fn matched_tables_agree_with_their_ledger_accounting() {
        use bb_trace::{Event, Value};
        let (report, ledger) = small_world_report();
        let field = |e: &Event, key: &str| {
            e.get(key)
                .and_then(Value::as_u64)
                .unwrap_or_else(|| panic!("{} event without {key}", e.kind()))
        };
        let under = |kind: &'static str, key: &'static str, id: &str| -> Vec<&Event> {
            ledger
                .events()
                .filter(|e| e.kind() == kind && e.get(key).and_then(Value::as_str) == Some(id))
                .collect()
        };
        // Each table with the number of arms it tries: every arm is
        // either a row or one of the three drops.
        let matched = [
            (&report.table2.0, 10),
            (&report.table2.1, 8),
            (&report.year_experiment, 10),
            (&report.table3, 2),
            (&report.table6[0], 2),
            (&report.table6[1], 2),
            (&report.table7, 4),
            (&report.table8, 4),
        ];
        let mut drops_seen = [0u64; 3];
        for (table, arms) in matched {
            let id = table.id.as_str();
            let exhibit = under("exhibit", "id", id);
            assert_eq!(exhibit.len(), 1, "{id}: one exhibit event");
            let rows = field(exhibit[0], "rows");
            assert_eq!(rows, table.rows.len() as u64, "{id}");
            let drops = [
                "dropped_empty_bins",
                "dropped_no_experiment",
                "dropped_min_pairs",
            ]
            .map(|key| field(exhibit[0], key));
            assert_eq!(rows + drops.iter().sum::<u64>(), arms, "{id}: {drops:?}");
            for (seen, n) in drops_seen.iter_mut().zip(drops) {
                *seen += n;
            }
            assert_eq!(
                field(exhibit[0], "min_pairs"),
                bb_causal::MIN_TRIALS,
                "{id}"
            );
            let kept: Vec<&Event> = under("sign_test", "exhibit", id)
                .into_iter()
                .filter(|e| e.get("kept") == Some(&Value::Bool(true)))
                .collect();
            assert_eq!(kept.len(), table.rows.len(), "{id}");
            for (test, row) in kept.into_iter().zip(&table.rows) {
                assert_eq!(field(test, "n"), row.n_pairs as u64, "{id}: {row:?}");
                assert_eq!(test.get("p_value"), Some(&Value::F64(row.p_value)), "{id}");
                assert_eq!(
                    test.get("significant"),
                    Some(&Value::Bool(row.significant)),
                    "{id}"
                );
            }
        }
        // The world is small enough that every drop reason fires, so the
        // accounting above is not checked on kept rows alone.
        assert!(drops_seen.iter().all(|&n| n > 0), "{drops_seen:?}");
    }
}
