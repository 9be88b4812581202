//! Robustness of the findings across seeds and under degraded collection.
//!
//! Paxson's *Strategies for Sound Internet Measurement* — which the paper
//! leans on for its statistical hygiene — asks two questions of every
//! finding: does it survive re-drawing the data, and does it survive
//! plausible measurement failure?
//!
//! * [`seed_sweep`] answers the first: regenerate the dataset under
//!   several seeds and report, per experiment, the min / mean / max
//!   "% H holds" and how many runs came out significant — the
//!   reproduction's error bars on itself. [`seed_sweep_with`] runs the
//!   seeds through [`bb_engine::run_sharded`], so a multi-threaded sweep
//!   is bit-identical to the serial one.
//! * [`chaos_sweep`] answers the second: re-run the whole experiment
//!   battery across a fault-severity grid of one [`ChaosScenario`] and
//!   emit a [`SurvivalMatrix`] — per experiment, the severity at which
//!   the direction flips, significance is lost, or the matched pairs
//!   collapse. Severity 0 is the fault-free baseline and is guaranteed
//!   bit-identical to a run with no chaos configured at all.

use crate::exhibit::ExperimentRow;
use crate::{sec3, sec4, sec5, sec6, sec7};
use bb_dataset::{Dataset, World, WorldConfig};
use bb_engine::{run_sharded, ShardPlan};
use bb_netsim::chaos::{ChaosScenario, ChaosSpec};
use bb_stats::Ecdf;

/// The experiments the sweeps track, in report order. The first six are
/// the headline tables; the last two extend coverage to §4 (the year
/// experiment) and the §7 India/US comparison so the chaos campaigns
/// exercise every sectioned finding.
pub const SWEEP_EXPERIMENTS: [&str; 8] = [
    "table1 movers (peak)",
    "table2 capacity (pooled)",
    "table3 price (pooled)",
    "table6 upgrade cost (pooled)",
    "table7 latency (pooled)",
    "table8 loss (pooled)",
    "sec4 year shift (pooled)",
    "india vs US (peak)",
];

/// Summary of one experiment across seeds.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepRow {
    /// Which experiment.
    pub experiment: String,
    /// Runs in which the experiment produced a result at all.
    pub n_runs: usize,
    /// Minimum "% H holds" across runs.
    pub min: f64,
    /// Mean "% H holds" across runs.
    pub mean: f64,
    /// Maximum "% H holds" across runs.
    pub max: f64,
    /// Runs that were statistically significant.
    pub n_significant: usize,
    /// Total matched pairs across runs.
    pub total_pairs: usize,
}

impl SweepRow {
    /// The finding is *stable* when every run points the same way and most
    /// are significant.
    pub fn stable(&self) -> bool {
        self.n_runs > 0 && self.min > 50.0 && self.n_significant * 2 >= self.n_runs
    }
}

/// One experiment's pooled result in one generated world:
/// (pooled "% H holds", any row significant, total matched pairs).
type Observation = (f64, bool, usize);

/// Pooled rows of one experiment table as a single direction observation.
fn pooled(rows: &[ExperimentRow]) -> Option<Observation> {
    if rows.is_empty() {
        return None;
    }
    let pairs: usize = rows.iter().map(|r| r.n_pairs).sum();
    let share = rows
        .iter()
        .map(|r| r.percent_holds * r.n_pairs as f64)
        .sum::<f64>()
        / pairs as f64;
    let significant = rows.iter().any(|r| r.significant);
    Some((share, significant, pairs))
}

/// Run the full experiment battery over one dataset, one slot per
/// [`SWEEP_EXPERIMENTS`] entry (`None` = the experiment produced no
/// reportable rows in this world).
fn battery(ds: &Dataset) -> [Option<Observation>; 8] {
    let mut sink = bb_trace::EventLog::new();
    let t1 = sec3::table1(ds, &mut sink);
    let peak_row: Vec<ExperimentRow> = t1
        .rows
        .into_iter()
        .filter(|r| r.control.starts_with("Peak"))
        .collect();
    let (dasu2, _) = sec3::table2(ds, &mut sink);
    let t3 = sec5::table3(ds, &mut sink);
    let [t6a, _] = sec6::table6(ds, &mut sink);
    let t7 = sec7::table7(ds, &mut sink);
    let t8 = sec7::table8(ds, &mut sink);
    let t4 = sec4::year_experiment(ds, &mut sink);
    let ivu: Vec<ExperimentRow> = sec7::india_vs_us(ds, &mut sink).into_iter().collect();
    [
        pooled(&peak_row),
        pooled(&dasu2.rows),
        pooled(&t3.rows),
        pooled(&t6a.rows),
        pooled(&t7.rows),
        pooled(&t8.rows),
        pooled(&t4.rows),
        pooled(&ivu),
    ]
}

/// Run the headline experiments across `n_seeds` regenerated worlds
/// (serially — see [`seed_sweep_with`] to spread seeds over threads).
///
/// `base` supplies everything except the seed; pass a reduced
/// configuration (small scale, short windows) unless you have minutes to
/// spend.
pub fn seed_sweep(base: &WorldConfig, n_seeds: u64) -> Vec<SweepRow> {
    seed_sweep_with(base, n_seeds, ShardPlan::serial())
}

/// [`seed_sweep`] with the seeds spread across `plan`'s shards via
/// [`run_sharded`]. Each seed's world is generated and analysed inside
/// its shard; per-seed observation vectors merge by ordered append, so
/// the result is bit-identical for every plan.
pub fn seed_sweep_with(base: &WorldConfig, n_seeds: u64, plan: ShardPlan) -> Vec<SweepRow> {
    assert!(n_seeds >= 1, "need at least one seed");
    let per_seed: Vec<[Option<Observation>; 8]> = run_sharded(n_seeds, plan, |_, range| {
        range
            .map(|i| {
                let mut cfg = base.clone();
                cfg.seed = base
                    .seed
                    .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let ds = World::new(cfg).generate();
                battery(&ds)
            })
            .collect::<Vec<_>>()
    })
    .0;

    SWEEP_EXPERIMENTS
        .iter()
        .enumerate()
        .map(|(idx, name)| {
            let obs: Vec<Observation> = per_seed.iter().filter_map(|seed| seed[idx]).collect();
            let n_runs = obs.len();
            let shares: Vec<f64> = obs.iter().map(|o| o.0).collect();
            let (min, max) = shares.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &s| {
                (lo.min(s), hi.max(s))
            });
            SweepRow {
                experiment: (*name).to_string(),
                n_runs,
                min: if n_runs == 0 { 0.0 } else { min },
                mean: if n_runs == 0 {
                    0.0
                } else {
                    shares.iter().sum::<f64>() / n_runs as f64
                },
                max,
                n_significant: obs.iter().filter(|o| o.1).count(),
                total_pairs: obs.iter().map(|o| o.2).sum(),
            }
        })
        .collect()
}

/// Render a sweep as a text table.
pub fn render_sweep(rows: &[SweepRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<30} {:>5}  {:>6}  {:>6}  {:>6}  {:>11}  {:>11}",
        "experiment", "runs", "min%", "mean%", "max%", "significant", "total pairs"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<30} {:>5}  {:>6.1}  {:>6.1}  {:>6.1}  {:>8}/{:<2}  {:>11}",
            r.experiment, r.n_runs, r.min, r.mean, r.max, r.n_significant, r.n_runs, r.total_pairs
        );
    }
    out
}

/// One experiment at one severity of a chaos campaign.
#[derive(Clone, Debug, PartialEq)]
pub struct SurvivalCell {
    /// The severity this cell was measured at.
    pub severity: f64,
    /// "% H holds" (for the capacity row: % of the baseline median
    /// capacity retained). `None` when the experiment produced no
    /// reportable result at this severity.
    pub value: Option<f64>,
    /// Did the result clear the (guarded) significance bar?
    pub significant: bool,
    /// Matched pairs backing the cell (panel size for the capacity row).
    pub pairs: usize,
}

/// One experiment's trajectory across the severity grid, with the three
/// survival thresholds derived against the severity-0 baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct SurvivalRow {
    /// Which experiment.
    pub experiment: String,
    /// One cell per severity, in grid order (cell 0 is the baseline).
    pub cells: Vec<SurvivalCell>,
    /// Lowest severity at which the finding's direction crossed 50%
    /// against the baseline's side. `None` = the direction survived.
    pub direction_flip_at: Option<f64>,
    /// Lowest severity at which a baseline-significant finding stopped
    /// being significant. `None` = significance survived (or the
    /// baseline was never significant).
    pub significance_lost_at: Option<f64>,
    /// Lowest severity at which the matched pairs collapsed to zero.
    pub pairs_collapse_at: Option<f64>,
}

/// The full survival matrix of one chaos campaign.
#[derive(Clone, Debug, PartialEq)]
pub struct SurvivalMatrix {
    /// Scenario name (kebab-case, as accepted by `--chaos`).
    pub scenario: String,
    /// The severity grid, ascending from the mandatory 0 baseline.
    pub severities: Vec<f64>,
    /// One row per tracked exhibit: the §2 capacity panel first, then
    /// every [`SWEEP_EXPERIMENTS`] entry.
    pub rows: Vec<SurvivalRow>,
}

/// Derive the survival thresholds of one experiment's cell trajectory.
fn survival_row(experiment: &str, cells: Vec<SurvivalCell>) -> SurvivalRow {
    let base = cells[0].clone();
    // Which side of 50% the baseline is on; 0 ⇒ no direction to flip.
    let base_side = base.value.map_or(0.0, |v| (v - 50.0).signum());
    let mut flip = None;
    let mut sig_lost = None;
    let mut collapse = None;
    for c in &cells[1..] {
        if flip.is_none() && base_side != 0.0 {
            if let Some(v) = c.value {
                if (v - 50.0) * base_side <= 0.0 {
                    flip = Some(c.severity);
                }
            }
        }
        if sig_lost.is_none() && base.significant && !c.significant {
            sig_lost = Some(c.severity);
        }
        if collapse.is_none() && base.pairs > 0 && c.pairs == 0 {
            collapse = Some(c.severity);
        }
    }
    SurvivalRow {
        experiment: experiment.to_string(),
        cells,
        direction_flip_at: flip,
        significance_lost_at: sig_lost,
        pairs_collapse_at: collapse,
    }
}

/// Run the experiment battery across a fault-severity grid of one
/// scenario and assemble the survival matrix.
///
/// `severities` must be strictly increasing, within `[0, 1]`, and start
/// at `0.0` — the fault-free baseline every threshold is derived
/// against. The whole grid is generated in one fused pass under `plan`
/// ([`World::generate_branches`]): each user is simulated and polled
/// once, and each severity's column equals a separate world generated
/// at that severity. The matrix is therefore bit-identical for every
/// `--threads` / `--shards` choice. One severity's dataset is assembled
/// at a time and dropped once its battery has run.
pub fn chaos_sweep(
    base: &WorldConfig,
    scenario: ChaosScenario,
    severities: &[f64],
    plan: ShardPlan,
) -> SurvivalMatrix {
    assert!(!severities.is_empty(), "need at least one severity");
    assert!(
        severities[0] == 0.0,
        "severity grid must start at 0 (the fault-free baseline)"
    );
    assert!(
        severities.windows(2).all(|w| w[0] < w[1]),
        "severities must be strictly increasing"
    );

    let branches: Vec<Option<ChaosSpec>> = severities
        .iter()
        .map(|&s| Some(ChaosSpec::new(scenario, s)))
        .collect();
    let (datasets, _) = World::new(base.clone()).generate_branches(&branches, plan);
    let columns: Vec<Column> = datasets.map(|(ds, _)| Column::of(&ds)).collect();
    survival_matrix(scenario, severities, &columns)
}

/// One severity's column of a survival matrix: the §2 panel health and
/// the experiment battery.
struct Column {
    median_capacity: f64,
    n_dasu: usize,
    battery: [Option<Observation>; 8],
}

impl Column {
    fn of(ds: &Dataset) -> Self {
        let caps: Vec<f64> = ds.dasu().map(|r| r.capacity.mbps()).collect();
        Column {
            median_capacity: if caps.is_empty() {
                0.0
            } else {
                Ecdf::new(caps.clone()).median()
            },
            n_dasu: caps.len(),
            battery: battery(ds),
        }
    }
}

/// Derive every row of the matrix from its severity columns.
fn survival_matrix(
    scenario: ChaosScenario,
    severities: &[f64],
    columns: &[Column],
) -> SurvivalMatrix {
    let mut rows = Vec::with_capacity(1 + SWEEP_EXPERIMENTS.len());
    // §2 panel health: median measured capacity as % of the baseline
    // median. "Direction flip" (retention < 50%) means degraded
    // collection halved the headline capacity picture.
    let base_median = columns[0].median_capacity;
    let cells = columns
        .iter()
        .zip(severities)
        .map(|(c, &s)| SurvivalCell {
            severity: s,
            value: (base_median > 0.0 && c.n_dasu > 0)
                .then(|| 100.0 * c.median_capacity / base_median),
            significant: c.n_dasu > 0,
            pairs: c.n_dasu,
        })
        .collect();
    rows.push(survival_row("sec2 median capacity (retention %)", cells));

    for (idx, name) in SWEEP_EXPERIMENTS.iter().enumerate() {
        let cells = columns
            .iter()
            .zip(severities)
            .map(|(c, &s)| match c.battery[idx] {
                Some((share, significant, pairs)) => SurvivalCell {
                    severity: s,
                    value: Some(share),
                    significant,
                    pairs,
                },
                None => SurvivalCell {
                    severity: s,
                    value: None,
                    significant: false,
                    pairs: 0,
                },
            })
            .collect();
        rows.push(survival_row(name, cells));
    }

    SurvivalMatrix {
        scenario: scenario.name().to_string(),
        severities: severities.to_vec(),
        rows,
    }
}

/// Format a float for `chaos.json`: rounded to 4 decimals, rendered via
/// the default `Display` so the bytes are identical on every platform.
fn json_f64(x: f64) -> String {
    let r = (x * 10_000.0).round() / 10_000.0;
    format!("{r}")
}

fn json_opt(x: Option<f64>) -> String {
    x.map_or_else(|| "null".to_string(), json_f64)
}

impl SurvivalMatrix {
    /// Serialise the matrix as deterministic JSON: fixed key order,
    /// floats rounded to 4 decimals — byte-identical across shard plans
    /// and platforms, so CI can `cmp` two runs.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "{{\n  \"scenario\": \"{}\",\n", self.scenario);
        let sevs: Vec<String> = self.severities.iter().map(|&s| json_f64(s)).collect();
        let _ = write!(
            out,
            "  \"severities\": [{}],\n  \"rows\": [",
            sevs.join(", ")
        );
        for (i, row) in self.rows.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{\"experiment\": \"{}\", \"cells\": [",
                if i == 0 { "" } else { "," },
                row.experiment
            );
            for (j, c) in row.cells.iter().enumerate() {
                let _ = write!(
                    out,
                    "{}{{\"severity\": {}, \"value\": {}, \"significant\": {}, \"pairs\": {}}}",
                    if j == 0 { "" } else { ", " },
                    json_f64(c.severity),
                    json_opt(c.value),
                    c.significant,
                    c.pairs
                );
            }
            let _ = write!(
                out,
                "], \"direction_flip_at\": {}, \"significance_lost_at\": {}, \"pairs_collapse_at\": {}}}",
                json_opt(row.direction_flip_at),
                json_opt(row.significance_lost_at),
                json_opt(row.pairs_collapse_at)
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deliberately small sweep: three seeds of a reduced world. The
    /// headline findings should point the right way in aggregate.
    #[test]
    fn small_sweep_is_directionally_stable() {
        let mut base = WorldConfig::small(71);
        base.user_scale = 2.0;
        base.days = 2;
        base.fcc_users = 60;
        let rows = seed_sweep(&base, 3);
        assert_eq!(rows.len(), 8);
        // Movers (Table 1) are the strongest effect in the model: every
        // run should point up and be significant.
        let movers = &rows[0];
        assert_eq!(movers.n_runs, 3);
        assert!(movers.min > 55.0, "{movers:?}");
        assert_eq!(movers.n_significant, 3);
        // Pooled capacity experiments point up on average.
        let capacity = &rows[1];
        assert!(capacity.mean > 52.0, "{capacity:?}");
        // The render is a complete table.
        let text = render_sweep(&rows);
        assert_eq!(text.lines().count(), 9);
        assert!(text.contains("table8 loss"));
    }

    #[test]
    fn sharded_sweep_is_bit_identical_to_serial() {
        let mut base = WorldConfig::small(71);
        base.user_scale = 1.0;
        base.days = 1;
        base.fcc_users = 30;
        let serial = seed_sweep(&base, 3);
        for plan in [ShardPlan::new(3, 3), ShardPlan::new(2, 2)] {
            let sharded = seed_sweep_with(&base, 3, plan);
            assert_eq!(serial, sharded, "seed sweep must not depend on {plan:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn zero_seeds_rejected() {
        let base = WorldConfig::small(1);
        let _ = seed_sweep(&base, 0);
    }

    fn chaos_base() -> WorldConfig {
        let mut base = WorldConfig::small(71);
        base.user_scale = 1.0;
        base.days = 1;
        base.fcc_users = 30;
        base
    }

    /// The per-severity loop the fused sweep replaced: one separately
    /// generated world per grid cell. Kept only as the oracle
    /// [`chaos_sweep`] is pinned against.
    fn chaos_sweep_per_severity(
        base: &WorldConfig,
        scenario: ChaosScenario,
        severities: &[f64],
        plan: ShardPlan,
    ) -> SurvivalMatrix {
        let columns: Vec<Column> = severities
            .iter()
            .map(|&s| {
                let mut cfg = base.clone();
                cfg.chaos = Some(ChaosSpec::new(scenario, s));
                Column::of(&World::new(cfg).generate_with_traced(plan).0)
            })
            .collect();
        survival_matrix(scenario, severities, &columns)
    }

    #[test]
    fn fused_sweep_equals_the_per_severity_oracle_for_every_scenario() {
        let base = chaos_base();
        let severities = [0.0, 0.5, 1.0];
        for (scenario, plan) in ChaosScenario::ALL.into_iter().zip(
            [ShardPlan::serial(), ShardPlan::new(8, 4)]
                .into_iter()
                .cycle(),
        ) {
            let fused = chaos_sweep(&base, scenario, &severities, plan);
            let oracle = chaos_sweep_per_severity(&base, scenario, &severities, plan);
            assert_eq!(fused, oracle, "{} under {plan:?}", scenario.name());
            assert_eq!(fused.to_json(), oracle.to_json(), "{}", scenario.name());
        }
    }

    #[test]
    fn chaos_sweep_has_full_coverage_and_healthy_baseline() {
        let base = chaos_base();
        let m = chaos_sweep(
            &base,
            ChaosScenario::Omnibus,
            &[0.0, 0.5, 1.0],
            ShardPlan::new(8, 4),
        );
        assert_eq!(m.scenario, "omnibus");
        assert_eq!(m.rows.len(), 1 + SWEEP_EXPERIMENTS.len());
        assert_eq!(m.rows[0].experiment, "sec2 median capacity (retention %)");
        for row in &m.rows {
            assert_eq!(row.cells.len(), 3, "{}", row.experiment);
        }
        // The baseline capacity row is exactly 100% by construction.
        assert_eq!(m.rows[0].cells[0].value, Some(100.0));
        // The movers experiment exists at baseline.
        assert!(m.rows[1].cells[0].pairs > 0, "{:?}", m.rows[1]);
    }

    #[test]
    fn severity_zero_column_matches_chaos_free_run() {
        // The single-point "sweep" at severity 0 must reproduce the
        // clean battery bit for bit.
        let base = chaos_base();
        let m = chaos_sweep(
            &base,
            ChaosScenario::ProbeBlackout,
            &[0.0],
            ShardPlan::serial(),
        );
        let clean = battery(&World::new(base).generate());
        for (row, obs) in m.rows[1..].iter().zip(clean) {
            match obs {
                Some((share, sig, pairs)) => {
                    assert_eq!(row.cells[0].value, Some(share), "{}", row.experiment);
                    assert_eq!(row.cells[0].significant, sig);
                    assert_eq!(row.cells[0].pairs, pairs);
                }
                None => assert_eq!(row.cells[0].value, None, "{}", row.experiment),
            }
        }
    }

    #[test]
    fn chaos_json_is_plan_invariant() {
        let base = chaos_base();
        let severities = [0.0, 1.0];
        let a = chaos_sweep(
            &base,
            ChaosScenario::PollChurn,
            &severities,
            ShardPlan::serial(),
        );
        let b = chaos_sweep(
            &base,
            ChaosScenario::PollChurn,
            &severities,
            ShardPlan::new(8, 4),
        );
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.to_json().contains("\"scenario\": \"poll-churn\""));
    }

    #[test]
    #[should_panic(expected = "must start at 0")]
    fn chaos_sweep_requires_baseline() {
        let _ = chaos_sweep(
            &chaos_base(),
            ChaosScenario::Omnibus,
            &[0.5, 1.0],
            ShardPlan::serial(),
        );
    }

    #[test]
    fn survival_thresholds_are_derived_correctly() {
        let cell = |s: f64, v: Option<f64>, sig: bool, pairs: usize| SurvivalCell {
            severity: s,
            value: v,
            significant: sig,
            pairs,
        };
        // Direction flips at 0.5, significance lost at 0.25, pairs
        // collapse at 0.75.
        let row = survival_row(
            "t",
            vec![
                cell(0.0, Some(70.0), true, 40),
                cell(0.25, Some(60.0), false, 20),
                cell(0.5, Some(45.0), false, 10),
                cell(0.75, None, false, 0),
            ],
        );
        assert_eq!(row.direction_flip_at, Some(0.5));
        assert_eq!(row.significance_lost_at, Some(0.25));
        assert_eq!(row.pairs_collapse_at, Some(0.75));
        // A never-significant baseline cannot "lose" significance.
        let row = survival_row(
            "t",
            vec![cell(0.0, Some(55.0), false, 40), cell(1.0, None, false, 0)],
        );
        assert_eq!(row.significance_lost_at, None);
        assert_eq!(row.pairs_collapse_at, Some(1.0));
    }

    #[test]
    fn survival_json_shape() {
        let m = SurvivalMatrix {
            scenario: "omnibus".into(),
            severities: vec![0.0, 0.5],
            rows: vec![survival_row(
                "t",
                vec![
                    SurvivalCell {
                        severity: 0.0,
                        value: Some(70.123456),
                        significant: true,
                        pairs: 12,
                    },
                    SurvivalCell {
                        severity: 0.5,
                        value: None,
                        significant: false,
                        pairs: 0,
                    },
                ],
            )],
        };
        let json = m.to_json();
        assert!(json.contains("\"value\": 70.1235"), "{json}");
        assert!(json.contains("\"value\": null"), "{json}");
        assert!(json.contains("\"pairs_collapse_at\": 0.5"), "{json}");
        assert!(json.ends_with("\n  ]\n}\n"), "{json}");
    }
}
