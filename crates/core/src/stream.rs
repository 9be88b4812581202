//! Streaming exhibits: the scale path of the pipeline.
//!
//! [`crate::full::StudyReport`] materialises the whole panel and is the
//! reference implementation of every exhibit. At millions of users that
//! costs O(n) memory, so this module provides [`StreamStudy`] — a
//! [`Mergeable`] accumulator built from the `bb-engine` sketches that
//! absorbs one [`UserRecord`] at a time and renders the headline exhibits
//! (Fig. 1, Fig. 2, Fig. 7) in O(sketch) memory. Because every sketch
//! merges with exact integer arithmetic, the accumulated study — and the
//! JSON exhibits rendered from it — is **bit-identical for any shard and
//! thread count** of the generating [`bb_dataset::World`].

use crate::confounders::OutcomeSpec;
use crate::exhibit::{BinnedFigure, BinnedPoint, BinnedSeries, CdfFigure, CdfSeries};
use crate::sec2::PopulationStats;
use crate::sec5::CASE_STUDY;
use bb_dataset::record::VantageKind;
use bb_dataset::{UpgradeObservation, UserRecord};
use bb_engine::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use bb_engine::{BottomK, EcdfSketch, ExactMoments, Mergeable};
use bb_stats::corr::pearson;
use bb_types::{CapacityBin, Country};
use std::collections::BTreeMap;

/// Relative x-axis accuracy of the streamed CDFs (0.5%: invisible at plot
/// resolution, a few hundred buckets per sketch).
pub const CDF_ACCURACY: f64 = 0.005;

/// Size of the deterministic spot-check sample of users.
const SAMPLE_K: usize = 64;

/// Seed of the spot-check sample (fixed: merging requires equal seeds).
const SAMPLE_SEED: u64 = 20141105;

/// Minimum users per capacity bin, as in `sec3`.
const MIN_BIN_USERS: u64 = 5;

/// Per-country streamed state (the Fig. 7 inputs).
#[derive(Clone, Debug)]
pub struct CountrySketch {
    /// Measured download capacities, Mbps.
    pub capacity: EcdfSketch,
    /// Peak link utilisation (95th-percentile demand over capacity).
    pub utilization: EcdfSketch,
}

impl CountrySketch {
    fn new() -> Self {
        CountrySketch {
            capacity: EcdfSketch::with_accuracy(CDF_ACCURACY),
            utilization: EcdfSketch::with_accuracy(CDF_ACCURACY),
        }
    }
}

impl Mergeable for CountrySketch {
    fn merge(&mut self, other: Self) {
        self.capacity.merge(other.capacity);
        self.utilization.merge(other.utilization);
    }
}

/// The four Fig. 2 outcome panels, in exhibit order.
const FIG2_PANELS: [(&str, &str, OutcomeSpec); 4] = [
    ("fig2a", "Mean w/ BT", OutcomeSpec::MEAN_WITH_BT),
    ("fig2b", "95th %ile w/ BT", OutcomeSpec::PEAK_WITH_BT),
    ("fig2c", "Mean no BT", OutcomeSpec::MEAN_NO_BT),
    ("fig2d", "95th %ile no BT", OutcomeSpec::PEAK_NO_BT),
];

/// A mergeable, bounded-memory study over a stream of user records.
#[derive(Clone, Debug)]
pub struct StreamStudy {
    /// Users absorbed (all vantages).
    pub users: u64,
    /// Dasu end-host users.
    pub dasu_users: u64,
    /// FCC gateway users.
    pub fcc_users: u64,
    /// Users observed across a service upgrade.
    pub movers: u64,
    /// Fig. 1a input: Dasu download capacities, Mbps.
    pub capacity: EcdfSketch,
    /// Fig. 1b input: Dasu latencies, ms.
    pub latency: EcdfSketch,
    /// Fig. 1c input: Dasu loss rates, percent.
    pub loss: EcdfSketch,
    /// Fig. 2 inputs: per-capacity-bin demand moments (Mbps), one map per
    /// panel of the module-private `FIG2_PANELS` table.
    pub fig2_bins: [BTreeMap<CapacityBin, ExactMoments>; 4],
    /// Fig. 7 inputs: per-country capacity and utilisation sketches.
    pub by_country: BTreeMap<Country, CountrySketch>,
    /// Deterministic spot-check sample of `(user id, capacity Mbps)`.
    pub sample: BottomK,
}

impl Default for StreamStudy {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamStudy {
    /// An empty study.
    pub fn new() -> Self {
        StreamStudy {
            users: 0,
            dasu_users: 0,
            fcc_users: 0,
            movers: 0,
            capacity: EcdfSketch::with_accuracy(CDF_ACCURACY),
            latency: EcdfSketch::with_accuracy(CDF_ACCURACY),
            loss: EcdfSketch::with_accuracy(CDF_ACCURACY),
            fig2_bins: [
                BTreeMap::new(),
                BTreeMap::new(),
                BTreeMap::new(),
                BTreeMap::new(),
            ],
            by_country: BTreeMap::new(),
            sample: BottomK::new(SAMPLE_SEED, SAMPLE_K),
        }
    }

    /// Absorb one user.
    pub fn absorb(&mut self, record: &UserRecord, upgrade: Option<&UpgradeObservation>) {
        self.users += 1;
        self.movers += u64::from(upgrade.is_some());
        match record.vantage {
            VantageKind::Fcc => {
                self.fcc_users += 1;
                return; // Fig. 1/2/7 are Dasu-population exhibits.
            }
            VantageKind::Dasu => self.dasu_users += 1,
        }
        let cap_mbps = record.capacity.mbps();
        self.capacity.push(cap_mbps);
        self.latency.push(record.latency.ms());
        self.loss.push(record.loss.percent());
        let bin = CapacityBin::of(record.capacity);
        for (panel, (_, _, outcome)) in self.fig2_bins.iter_mut().zip(FIG2_PANELS) {
            if let Some(bps) = outcome.of(record) {
                panel
                    .entry(bin)
                    .or_insert_with(ExactMoments::new)
                    .push(bps / 1e6);
            }
        }
        let country = self
            .by_country
            .entry(record.country)
            .or_insert_with(CountrySketch::new);
        country.capacity.push(cap_mbps);
        if let Some(util) = record.peak_utilization() {
            country.utilization.push(util);
        }
        self.sample.offer(record.user.0, cap_mbps);
    }

    /// Total strictly-negative observations swallowed by the study's CDF
    /// sketches (capacity/latency/loss plus every per-country sketch).
    /// Physical quantities can never be negative, so anything nonzero
    /// here is an upstream sign bug; the `reproduce` CLI surfaces it as
    /// the `study.sketch_negatives` metric instead of letting it vanish
    /// into the `q=0` mass.
    pub fn sketch_negatives(&self) -> u64 {
        self.capacity.negatives()
            + self.latency.negatives()
            + self.loss.negatives()
            + self
                .by_country
                .values()
                .map(|c| c.capacity.negatives() + c.utilization.negatives())
                .sum::<u64>()
    }

    /// The §2.2 prose statistics, when any Dasu user has been absorbed.
    pub fn population_stats(&self) -> Option<PopulationStats> {
        if self.capacity.count() == 0 {
            return None;
        }
        Some(PopulationStats {
            median_capacity_mbps: self.capacity.median()?,
            capacity_iqr_mbps: self.capacity.quantile(0.75)? - self.capacity.quantile(0.25)?,
            frac_below_1mbps: self.capacity.fraction_below(1.0),
            frac_above_30mbps: 1.0 - self.capacity.fraction_below(30.0),
            median_latency_ms: self.latency.median()?,
            frac_latency_above_500ms: 1.0 - self.latency.fraction_below(500.0),
            frac_loss_above_1pct: 1.0 - self.loss.fraction_below(1.0),
        })
    }

    /// Fig. 1a–c from the streamed sketches.
    pub fn figure1(&self) -> [CdfFigure; 3] {
        let fig = |id: &str, title: &str, x: &str, sketch: &EcdfSketch| CdfFigure {
            id: id.into(),
            title: title.into(),
            x_label: x.into(),
            log_x: true,
            series: vec![cdf_series("all users", sketch)],
        };
        [
            fig(
                "fig1a",
                "Download capacity",
                "Capacity (Mbps)",
                &self.capacity,
            ),
            fig("fig1b", "Latency", "Latency (ms)", &self.latency),
            fig("fig1c", "Packet loss", "Packet loss rate (%)", &self.loss),
        ]
    }

    /// Fig. 2a–d from the streamed per-bin moments.
    pub fn figure2(&self) -> [BinnedFigure; 4] {
        let mut figs = Vec::with_capacity(4);
        for (panel, (id, title, _)) in self.fig2_bins.iter().zip(FIG2_PANELS) {
            let points: Vec<BinnedPoint> = panel
                .iter()
                .filter(|(_, m)| m.count() >= MIN_BIN_USERS)
                .map(|(bin, m)| {
                    let half = 1.96 * m.std_error();
                    BinnedPoint {
                        x: bin.midpoint().mbps(),
                        mean: m.mean(),
                        ci_lo: m.mean() - half,
                        ci_hi: m.mean() + half,
                        n: m.count() as usize,
                    }
                })
                .collect();
            let xs: Vec<f64> = points.iter().map(|p| p.x.max(1e-9).log10()).collect();
            let ys: Vec<f64> = points.iter().map(|p| p.mean.max(1e-9).log10()).collect();
            figs.push(BinnedFigure {
                id: id.into(),
                title: title.into(),
                x_label: "Download capacity (Mbps)".into(),
                y_label: "Usage (Mbps)".into(),
                series: vec![BinnedSeries {
                    label: "all users".into(),
                    r_log: pearson(&xs, &ys),
                    points,
                }],
            });
        }
        figs.try_into().expect("four panels")
    }

    /// Fig. 7a–b (case-study capacity and utilisation CDFs) from the
    /// streamed per-country sketches.
    pub fn figure7(&self) -> [CdfFigure; 2] {
        let mut cap_series = Vec::new();
        let mut util_series = Vec::new();
        for code in CASE_STUDY {
            let Some(sketch) = self.by_country.get(&Country::new(code)) else {
                continue;
            };
            if sketch.capacity.count() == 0 || sketch.utilization.count() == 0 {
                continue;
            }
            cap_series.push(cdf_series(code, &sketch.capacity));
            util_series.push(cdf_series(code, &sketch.utilization));
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
}

/// Restore one CDF sketch and reject it unless its accuracy matches this
/// build's [`CDF_ACCURACY`]. Sketch `merge` *asserts* on an α mismatch, so
/// a checkpoint written under a different accuracy (an older build, or a
/// doctored file with consistent checksums) must fail here as a
/// [`SnapshotError`] — counted as a rejection and recomputed — instead of
/// panicking a worker mid-merge. Equality uses the same ε tolerance the
/// merge assert does.
fn read_cdf_sketch(r: &mut SnapshotReader<'_>, field: &str) -> Result<EcdfSketch, SnapshotError> {
    let sketch = EcdfSketch::read_snapshot(r)?;
    let alpha = sketch.inner().accuracy();
    if (alpha - CDF_ACCURACY).abs() < f64::EPSILON {
        Ok(sketch)
    } else {
        Err(r.invalid(format!(
            "{field} sketch accuracy {alpha} does not match this build's {CDF_ACCURACY}"
        )))
    }
}

impl Snapshot for CountrySketch {
    const KIND: &'static str = "CountrySketch";

    fn write_body(&self, w: &mut SnapshotWriter) {
        self.capacity.write_snapshot(w);
        self.utilization.write_snapshot(w);
    }

    fn read_body(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(CountrySketch {
            capacity: read_cdf_sketch(r, "country capacity")?,
            utilization: read_cdf_sketch(r, "country utilization")?,
        })
    }
}

impl Snapshot for StreamStudy {
    const KIND: &'static str = "StreamStudy";

    fn write_body(&self, w: &mut SnapshotWriter) {
        w.u64("users", self.users);
        w.u64("dasu_users", self.dasu_users);
        w.u64("fcc_users", self.fcc_users);
        w.u64("movers", self.movers);
        self.capacity.write_snapshot(w);
        self.latency.write_snapshot(w);
        self.loss.write_snapshot(w);
        for panel in &self.fig2_bins {
            w.u64("bins", panel.len() as u64);
            for (bin, moments) in panel {
                w.u64("-", u64::from(bin.0));
                moments.write_snapshot(w);
            }
        }
        w.u64("countries", self.by_country.len() as u64);
        for (country, sketch) in &self.by_country {
            w.line("-", country.as_str());
            sketch.write_snapshot(w);
        }
        self.sample.write_snapshot(w);
    }

    fn read_body(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let users = r.take_u64("users")?;
        let dasu_users = r.take_u64("dasu_users")?;
        let fcc_users = r.take_u64("fcc_users")?;
        let movers = r.take_u64("movers")?;
        let capacity = read_cdf_sketch(r, "capacity")?;
        let latency = read_cdf_sketch(r, "latency")?;
        let loss = read_cdf_sketch(r, "loss")?;
        let mut fig2_bins: [BTreeMap<CapacityBin, ExactMoments>; 4] = Default::default();
        for panel in &mut fig2_bins {
            let len = r.take_u64("bins")?;
            for _ in 0..len {
                let bin = r.take_u64("-")?;
                let bin = u8::try_from(bin)
                    .map(CapacityBin)
                    .map_err(|_| r.invalid(format!("capacity bin {bin} out of range")))?;
                let moments = ExactMoments::read_snapshot(r)?;
                if panel.insert(bin, moments).is_some() {
                    return Err(r.invalid(format!("duplicate capacity bin {}", bin.0)));
                }
            }
        }
        let n_countries = r.take_u64("countries")?;
        let mut by_country = BTreeMap::new();
        for _ in 0..n_countries {
            let code = r.take("-")?;
            let country = code
                .trim()
                .parse::<Country>()
                .map_err(|_| r.invalid(format!("invalid country code {code:?}")))?;
            let sketch = CountrySketch::read_snapshot(r)?;
            if by_country.insert(country, sketch).is_some() {
                return Err(r.invalid(format!("duplicate country {}", country.as_str())));
            }
        }
        let sample = BottomK::read_snapshot(r)?;
        Ok(StreamStudy {
            users,
            dasu_users,
            fcc_users,
            movers,
            capacity,
            latency,
            loss,
            fig2_bins,
            by_country,
            sample,
        })
    }
}

impl Mergeable for StreamStudy {
    fn merge(&mut self, other: Self) {
        self.users += other.users;
        self.dasu_users += other.dasu_users;
        self.fcc_users += other.fcc_users;
        self.movers += other.movers;
        self.capacity.merge(other.capacity);
        self.latency.merge(other.latency);
        self.loss.merge(other.loss);
        for (mine, theirs) in self.fig2_bins.iter_mut().zip(other.fig2_bins) {
            Mergeable::merge(mine, theirs);
        }
        Mergeable::merge(&mut self.by_country, other.by_country);
        self.sample.merge(other.sample);
    }
}

/// Render one sketch as a downsampled [`CdfSeries`] (≤ ~200 points, like
/// `Ecdf::plot_points_downsampled`).
fn cdf_series(label: &str, sketch: &EcdfSketch) -> CdfSeries {
    let points = sketch.points();
    let stride = points.len().div_ceil(200).max(1);
    let last = points.len().saturating_sub(1);
    let points: Vec<(f64, f64)> = points
        .iter()
        .enumerate()
        .filter(|(i, _)| i % stride == 0 || *i == last)
        .map(|(_, &p)| p)
        .collect();
    CdfSeries {
        label: label.into(),
        n: sketch.count() as usize,
        median: sketch.median().unwrap_or(0.0),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_dataset::{World, WorldConfig};
    use bb_engine::ShardPlan;

    fn small_world() -> World {
        let mut cfg = WorldConfig::small(7);
        cfg.user_scale = 1.0;
        cfg.fcc_users = 30;
        cfg.days = 2;
        World::with_countries(cfg, &["US", "JP", "BW", "SA", "IN"])
    }

    #[test]
    fn streamed_study_is_shard_invariant() {
        let world = small_world();
        let (_, serial, _, _) =
            world.fold_users_traced(ShardPlan::serial(), StreamStudy::new, |s, r, u| {
                s.absorb(r, u)
            });
        let (_, sharded, _, _) =
            world.fold_users_traced(ShardPlan::new(8, 4), StreamStudy::new, |s, r, u| {
                s.absorb(r, u)
            });
        assert_eq!(serial.users, sharded.users);
        assert_eq!(serial.movers, sharded.movers);
        assert_eq!(serial.figure1(), sharded.figure1());
        assert_eq!(serial.figure2(), sharded.figure2());
        assert_eq!(serial.figure7(), sharded.figure7());
        assert_eq!(
            serial.sample.items().collect::<Vec<_>>(),
            sharded.sample.items().collect::<Vec<_>>()
        );
        // Physical quantities are non-negative, so a healthy pipeline
        // reports zero swallowed negatives.
        assert_eq!(serial.sketch_negatives(), 0);
    }

    /// The order statistic at the sketch's rank convention.
    fn exact_median(mut values: Vec<f64>) -> f64 {
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        values[(0.5 * (values.len() - 1) as f64).floor() as usize]
    }

    #[test]
    fn streamed_stats_track_the_materialised_study() {
        let world = small_world();
        let dataset = world.generate();
        let (_, _, _, exact) = crate::sec2::figure1(&dataset, &mut bb_trace::EventLog::new());
        let (_, study, _, _) =
            world.fold_users_traced(ShardPlan::serial(), StreamStudy::new, |s, r, u| {
                s.absorb(r, u)
            });
        let stats = study.population_stats().expect("non-empty study");
        assert_eq!(study.dasu_users as usize, dataset.dasu().count());
        assert_eq!(study.fcc_users as usize, dataset.fcc().count());
        // Medians: compare against the exact order statistic at the same
        // rank convention the sketch uses — that is the α guarantee.
        let cap_median = exact_median(dataset.dasu().map(|r| r.capacity.mbps()).collect());
        assert!(
            (stats.median_capacity_mbps - cap_median).abs() <= CDF_ACCURACY * cap_median * 1.000001,
            "sketch median {} vs exact {}",
            stats.median_capacity_mbps,
            cap_median
        );
        let lat_median = exact_median(dataset.dasu().map(|r| r.latency.ms()).collect());
        assert!(
            (stats.median_latency_ms - lat_median).abs() <= CDF_ACCURACY * lat_median * 1.000001,
            "sketch latency median {} vs exact {}",
            stats.median_latency_ms,
            lat_median
        );
        assert!((stats.frac_below_1mbps - exact.frac_below_1mbps).abs() < 0.02);
        assert!((stats.frac_loss_above_1pct - exact.frac_loss_above_1pct).abs() < 0.02);
    }

    #[test]
    fn foreign_accuracy_snapshot_is_a_read_error_not_a_merge_panic() {
        let world = small_world();
        let (_, study, _, _) =
            world.fold_users_traced(ShardPlan::serial(), StreamStudy::new, |s, r, u| {
                s.absorb(r, u)
            });
        let mut w = SnapshotWriter::new();
        study.write_snapshot(&mut w);
        let text = w.finish();

        // Unmodified snapshot round-trips.
        let mut r = SnapshotReader::new(&text);
        let thawed = StreamStudy::read_snapshot(&mut r).expect("clean snapshot restores");
        assert_eq!(thawed.users, study.users);

        // Doctor every sketch α to a *valid but different* accuracy — the
        // shape that sails through the α ∈ (0,1) sanity check and then
        // kills a worker in `merge`'s α assert if restore accepts it.
        let ours = format!("alpha {:016x}", CDF_ACCURACY.to_bits());
        let foreign = format!("alpha {:016x}", 0.01f64.to_bits());
        let doctored = text.replace(&ours, &foreign);
        assert_ne!(doctored, text, "snapshot must contain the α field");
        let mut r = SnapshotReader::new(&doctored);
        let err = StreamStudy::read_snapshot(&mut r)
            .expect_err("foreign-accuracy sketch must be rejected at restore");
        assert!(err.message.contains("does not match this build's"), "{err}");

        // Same rejection when the mismatch is buried in a per-country
        // sketch rather than a top-level one.
        let countries = text.find("countries ").expect("countries section");
        let (head, tail) = text.split_at(countries);
        let one_country = format!("{head}{}", tail.replacen(&ours, &foreign, 1));
        assert_ne!(one_country, text, "study must observe at least one country");
        let mut r = SnapshotReader::new(&one_country);
        StreamStudy::read_snapshot(&mut r)
            .expect_err("per-country foreign-accuracy sketch must be rejected");
    }

    #[test]
    fn streamed_fig2_matches_the_materialised_bins() {
        let world = small_world();
        let dataset = world.generate();
        let exact = crate::sec3::figure2(&dataset, &mut bb_trace::EventLog::new());
        let (_, study, _, _) =
            world.fold_users_traced(ShardPlan::serial(), StreamStudy::new, |s, r, u| {
                s.absorb(r, u)
            });
        let streamed = study.figure2();
        for (e, s) in exact.iter().zip(&streamed) {
            let ep = &e.series[0].points;
            let sp = &s.series[0].points;
            assert_eq!(ep.len(), sp.len(), "{}", e.id);
            for (a, b) in ep.iter().zip(sp) {
                assert_eq!(a.n, b.n);
                assert!((a.mean - b.mean).abs() < 1e-6, "{} vs {}", a.mean, b.mean);
            }
        }
    }
}
