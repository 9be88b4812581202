//! Fault injection: degrade a population's connection quality and watch
//! demand fall (the §7 mechanism), smoltcp-style CLI knobs included.
//!
//! ```text
//! cargo run --release --example quality_impact -- [--latency-ms 600] [--loss-pct 1.5] [--shape-mbps 2]
//! ```

use needwant::netsim::chaos::ChaosPlan;
use needwant::netsim::collect::{CollectScratch, CounterPolling, CounterSource, UsageSeries};
use needwant::netsim::link::AccessLink;
use needwant::netsim::probe::NdtProbe;
use needwant::netsim::workload::{simulate_user, GroundTruth, UserWorkload};
use needwant::trace::Registry;
use needwant::types::{Bandwidth, Latency, LossRate, TimeAxis, Year};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    // Parse the fault-injection knobs.
    let mut extra_latency = 600.0f64;
    let mut extra_loss = 1.5f64;
    let mut shape: Option<f64> = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {flag}"))
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("{flag} takes a number"))
        };
        match flag.as_str() {
            "--latency-ms" => extra_latency = val(),
            "--loss-pct" => extra_loss = val(),
            "--shape-mbps" => shape = Some(val()),
            other => panic!("unknown flag {other} (try --latency-ms/--loss-pct/--shape-mbps)"),
        }
    }

    let baseline = AccessLink::new(
        Bandwidth::from_mbps(10.0),
        Latency::from_ms(45.0),
        LossRate::from_percent(0.05),
    );
    let mut degraded = baseline.degraded(
        Latency::from_ms(extra_latency),
        LossRate::from_percent(extra_loss),
    );
    if let Some(mbps) = shape {
        // ISP throttling: the downlink is shaped below its advertised rate.
        assert!(mbps > 0.0, "--shape-mbps must be positive, got {mbps}");
        degraded.capacity = degraded.capacity.min(Bandwidth::from_mbps(mbps));
    }

    println!("baseline link: {:?}", baseline);
    println!("degraded link: {:?}\n", degraded);

    // What an NDT probe would report on each.
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let probe = NdtProbe::default();
    let base_report = probe.run_averaged(&baseline, 4, &mut rng);
    let degr_report = probe.run_averaged(&degraded, 4, &mut rng);
    println!(
        "NDT baseline: {} down, {} rtt, {} loss",
        base_report.download, base_report.avg_rtt, base_report.loss
    );
    println!(
        "NDT degraded: {} down, {} rtt, {} loss\n",
        degr_report.download, degr_report.avg_rtt, degr_report.loss
    );

    // Simulate a small cohort on both links and compare realized demand.
    let axis = TimeAxis::new(Year(2013), 5);
    let wl = UserWorkload::without_bt(Bandwidth::from_kbps(700.0));
    let cohort = 40;
    let mut totals = (0.0f64, 0.0f64);
    let mut peaks = (0.0f64, 0.0f64);
    let mut scratch = CollectScratch::new();
    for seed in 0..cohort {
        let mut rng = ChaCha8Rng::seed_from_u64(100 + seed);
        let t_base = simulate_user(&baseline, &wl, axis, &mut rng);
        let mut rng = ChaCha8Rng::seed_from_u64(100 + seed);
        let t_degr = simulate_user(&degraded, &wl, axis, &mut rng);
        totals.0 += t_base.total_bytes();
        totals.1 += t_degr.total_bytes();
        peaks.0 += dasu_peak_mbps(&t_base, &baseline, 500 + seed, &mut scratch);
        peaks.1 += dasu_peak_mbps(&t_degr, &degraded, 500 + seed, &mut scratch);
    }

    let suppression = 100.0 * (1.0 - totals.1 / totals.0);
    println!("cohort of {cohort} users, {} days each:", 5);
    println!(
        "  total bytes:   baseline {:.2} GB, degraded {:.2} GB ({suppression:.0}% suppressed)",
        totals.0 / 1e9,
        totals.1 / 1e9
    );
    println!(
        "  avg p95 rate:  baseline {:.2} Mbps, degraded {:.2} Mbps",
        peaks.0 / cohort as f64,
        peaks.1 / cohort as f64
    );
    println!();
    println!("This is the paper's §7 finding as a mechanism: latencies above");
    println!("~500 ms and loss above ~1% collapse the per-flow TCP bound, so");
    println!("streaming sessions degrade or get abandoned, and total demand");
    println!("drops even though the link's nominal capacity is unchanged.");
}

/// The p95 downlink rate a typical Dasu client (online about half the
/// time, reading `netstat`) measures on `link`, or 0 when it saw nothing.
fn dasu_peak_mbps(
    truth: &GroundTruth,
    link: &AccessLink,
    seed: u64,
    scratch: &mut CollectScratch,
) -> f64 {
    let polling = CounterPolling {
        uptime: 0.5,
        source: CounterSource::Netstat,
        link_capacity: link.capacity,
        chaos: &ChaosPlan::NONE,
    };
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    UsageSeries::poll_counters(truth, &polling, &mut rng, scratch);
    let series = UsageSeries::reconstruct_polls(
        truth,
        &polling,
        &mut scratch.polls,
        &mut scratch.draws,
        &mut ChaCha8Rng::seed_from_u64(0),
        &mut Registry::new(),
    );
    series
        .summarise(&mut Vec::new(), &mut Vec::new())
        .demand_with_bt
        .map_or(0.0, |d| d.peak.mbps())
}
