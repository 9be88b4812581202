//! §2.2 — Broadband network characteristics (Figure 1).
//!
//! "CDFs of the maximum download capacities, average latency to nearest
//! available measurement server, and average packet loss rates measured for
//! every network connection used throughout our analysis."

use crate::exhibit::{CdfFigure, CdfSeries};
use bb_dataset::Dataset;
use bb_stats::Ecdf;
use bb_trace::EventLog;

/// Population-level characteristics quoted in the §2.2 prose.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PopulationStats {
    /// Median download capacity (Mbps). Paper: 7.4 Mbps.
    pub median_capacity_mbps: f64,
    /// Interquartile range of capacity (Mbps). Paper: 14.3 Mbps.
    pub capacity_iqr_mbps: f64,
    /// Share of users below 1 Mbps. Paper: ~10%.
    pub frac_below_1mbps: f64,
    /// Share of users above 30 Mbps. Paper: ~10%.
    pub frac_above_30mbps: f64,
    /// Median latency (ms). Paper: ~100 ms "typical".
    pub median_latency_ms: f64,
    /// Share of users with average latency above 500 ms. Paper: ~5%.
    pub frac_latency_above_500ms: f64,
    /// Share of users with loss above 1%. Paper: ~14%.
    pub frac_loss_above_1pct: f64,
}

/// Build Fig. 1a (capacity CDF), 1b (latency CDF), 1c (loss CDF) and the
/// § 2.2 prose statistics from the global (Dasu) population.
pub fn figure1(
    dataset: &Dataset,
    ledger: &mut EventLog,
) -> (CdfFigure, CdfFigure, CdfFigure, PopulationStats) {
    let caps: Vec<f64> = dataset.dasu().map(|r| r.capacity.mbps()).collect();
    let lats: Vec<f64> = dataset.dasu().map(|r| r.latency.ms()).collect();
    let losses: Vec<f64> = dataset.dasu().map(|r| r.loss.percent()).collect();
    assert!(!caps.is_empty(), "figure 1 needs at least one Dasu record");
    for id in ["fig1a", "fig1b", "fig1c"] {
        ledger
            .emit("exhibit")
            .str("id", id)
            .str("population", "dasu")
            .u64("n", caps.len() as u64)
            .u64("dropped", 0);
    }

    let cap_ecdf = Ecdf::new(caps);
    let lat_ecdf = Ecdf::new(lats);
    let loss_ecdf = Ecdf::new(losses);

    let stats = PopulationStats {
        median_capacity_mbps: cap_ecdf.median(),
        capacity_iqr_mbps: cap_ecdf.quantile(0.75) - cap_ecdf.quantile(0.25),
        frac_below_1mbps: cap_ecdf.eval(1.0),
        frac_above_30mbps: cap_ecdf.frac_above(30.0),
        median_latency_ms: lat_ecdf.median(),
        frac_latency_above_500ms: lat_ecdf.frac_above(500.0),
        frac_loss_above_1pct: loss_ecdf.frac_above(1.0),
    };

    let fig = |id: &str, title: &str, x: &str, ecdf: &Ecdf| CdfFigure {
        id: id.into(),
        title: title.into(),
        x_label: x.into(),
        log_x: true,
        series: vec![CdfSeries::from_ecdf("all users", ecdf, 200)],
    };

    (
        fig("fig1a", "Download capacity", "Capacity (Mbps)", &cap_ecdf),
        fig("fig1b", "Latency", "Latency (ms)", &lat_ecdf),
        fig("fig1c", "Packet loss", "Packet loss rate (%)", &loss_ecdf),
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_dataset::{World, WorldConfig};

    #[test]
    fn figure1_has_sane_shape() {
        let mut cfg = WorldConfig::small(3);
        cfg.user_scale = 0.6;
        cfg.days = 1;
        cfg.fcc_users = 5;
        let ds = World::new(cfg).generate();
        let mut ledger = bb_trace::EventLog::new();
        let (a, b, c, stats) = figure1(&ds, &mut ledger);
        assert_eq!(ledger.len(), 3, "one exhibit event per sub-figure");
        for fig in [&a, &b, &c] {
            let pts = &fig.series[0].points;
            assert!(pts.len() > 10);
            // Monotone CDF.
            for w in pts.windows(2) {
                assert!(w[0].0 <= w[1].0 && w[0].1 <= w[1].1);
            }
            assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-9);
        }
        // Loose global-shape checks against the paper's quoted values.
        assert!(
            stats.median_capacity_mbps > 1.0 && stats.median_capacity_mbps < 40.0,
            "median capacity {}",
            stats.median_capacity_mbps
        );
        assert!(
            stats.median_latency_ms > 30.0 && stats.median_latency_ms < 300.0,
            "median latency {}",
            stats.median_latency_ms
        );
        assert!(
            stats.frac_loss_above_1pct < 0.5,
            "loss tail {}",
            stats.frac_loss_above_1pct
        );
        assert!(stats.frac_below_1mbps < 0.6);
    }
}
