//! Application profiles and per-user application mixes.
//!
//! Each session the workload generator emits belongs to an [`AppClass`].
//! The class determines the number of parallel TCP flows, the desired
//! transfer rate (with the link's capacity, in
//! [`effective_desired`](crate::workload::effective_desired)), the
//! (heavy-tailed) session size, and how tolerant the application is of
//! a poor path before the user gives up — the knob through which
//! connection quality feeds back into demand (§7).

use bb_stats::dist::{LogNormal, Pareto};
use rand::Rng;

/// Coarse application classes of residential downstream traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AppClass {
    /// Interactive web browsing: short, bursty, many parallel flows.
    Web,
    /// Video streaming: long sessions at a quality-dependent target rate.
    Video,
    /// Bulk downloads (software updates, large files).
    Bulk,
    /// BitTorrent: long, many-flow, link-saturating transfers.
    BitTorrent,
    /// Background chatter (sync clients, telemetry, mail polling).
    Background,
}

impl AppClass {
    /// All classes.
    pub const ALL: [AppClass; 5] = [
        AppClass::Web,
        AppClass::Video,
        AppClass::Bulk,
        AppClass::BitTorrent,
        AppClass::Background,
    ];

    /// Number of parallel TCP flows the application opens. Video is a
    /// single stream (2013-era players), which is why loss and latency hit
    /// streaming hardest — the §7 mechanism.
    pub fn flows(self) -> u32 {
        match self {
            AppClass::Web => 6,
            AppClass::Video => 1,
            AppClass::Bulk => 4,
            AppClass::BitTorrent => 30,
            AppClass::Background => 1,
        }
    }

    /// Fraction of the desired rate below which the user abandons or
    /// degrades the session (quality feedback). Elastic apps never abandon.
    pub fn abandon_threshold(self) -> Option<f64> {
        match self {
            AppClass::Web => Some(0.15),
            AppClass::Video => Some(0.75), // players stall/downshift below ~3/4 of target
            AppClass::Bulk => Some(0.05),  // users do give up on crawling downloads
            AppClass::BitTorrent => None,
            AppClass::Background => None,
        }
    }

    /// Upload bytes generated per download byte: requests and ACK-ish
    /// chatter for the consumption classes, real payload for BitTorrent
    /// (peers reciprocate — Dasu's population is upload-heavy) and for
    /// chatty background sync.
    pub fn upload_fraction(self) -> f64 {
        match self {
            AppClass::Web => 0.05,
            AppClass::Video => 0.01,
            AppClass::Bulk => 0.02,
            AppClass::BitTorrent => 0.7,
            AppClass::Background => 0.3,
        }
    }

    /// Draw a session size in bytes. Sizes are heavy-tailed for the
    /// file-transfer classes (Pareto) and log-normal for the rest.
    pub fn sample_bytes<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        match self {
            // Median web "visit" ~2.5 MB with a long tail.
            AppClass::Web => LogNormal::from_median(2.5e6, 1.0).sample(rng),
            // Video sessions: median ~250 MB (≈15 min at 2.5 Mbps).
            AppClass::Video => LogNormal::from_median(2.5e8, 0.9).sample(rng),
            // Bulk: Pareto body from 5 MB, alpha 1.2 (heavy tail).
            AppClass::Bulk => Pareto::new(5e6, 1.2).sample(rng).min(5e9),
            // Torrents: Pareto from 50 MB.
            AppClass::BitTorrent => Pareto::new(5e7, 1.1).sample(rng).min(2e10),
            // Background blips ~100 kB.
            AppClass::Background => LogNormal::from_median(1e5, 0.7).sample(rng),
        }
    }
}

/// A user's application mix: relative weights over the app classes
/// (BitTorrent is handled separately by the workload, since only a subset
/// of users run it at all).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AppMix {
    /// Weight of web browsing.
    pub web: f64,
    /// Weight of video streaming.
    pub video: f64,
    /// Weight of bulk downloads.
    pub bulk: f64,
    /// Weight of background traffic.
    pub background: f64,
}

impl AppMix {
    /// A typical residential mix: video-dominated by volume, web-dominated
    /// by session count.
    pub const TYPICAL: AppMix = AppMix {
        web: 0.55,
        video: 0.25,
        bulk: 0.05,
        background: 0.15,
    };

    /// Total weight.
    pub fn total(&self) -> f64 {
        self.web + self.video + self.bulk + self.background
    }

    /// Draw an application class according to the weights.
    ///
    /// # Panics
    /// Panics if all weights are zero.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> AppClass {
        let total = self.total();
        assert!(total > 0.0, "application mix has zero total weight");
        let mut x = rng.gen::<f64>() * total;
        for (w, class) in [
            (self.web, AppClass::Web),
            (self.video, AppClass::Video),
            (self.bulk, AppClass::Bulk),
            (self.background, AppClass::Background),
        ] {
            if x < w {
                return class;
            }
            x -= w;
        }
        AppClass::Background
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn flow_counts_ordering() {
        // BitTorrent opens by far the most flows; background the fewest.
        assert!(AppClass::BitTorrent.flows() > AppClass::Web.flows());
        assert_eq!(AppClass::Background.flows(), 1);
    }

    #[test]
    fn upload_fractions_reflect_reciprocity() {
        assert!(AppClass::BitTorrent.upload_fraction() > 0.5);
        assert!(AppClass::Video.upload_fraction() < 0.05);
        for class in AppClass::ALL {
            let f = class.upload_fraction();
            assert!((0.0..=1.0).contains(&f));
        }
    }

    #[test]
    fn session_sizes_are_positive_and_ordered() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let mean = |class: AppClass, rng: &mut ChaCha8Rng| {
            (0..2000).map(|_| class.sample_bytes(rng)).sum::<f64>() / 2000.0
        };
        let web = mean(AppClass::Web, &mut rng);
        let video = mean(AppClass::Video, &mut rng);
        let bg = mean(AppClass::Background, &mut rng);
        assert!(web > 0.0 && video > 0.0 && bg > 0.0);
        assert!(video > web, "video sessions carry more bytes than web");
        assert!(web > bg, "web sessions carry more bytes than background");
    }

    #[test]
    fn mix_sampling_respects_weights() {
        let mix = AppMix {
            web: 1.0,
            video: 0.0,
            bulk: 0.0,
            background: 0.0,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(mix.sample(&mut rng), AppClass::Web);
        }
    }

    #[test]
    fn typical_mix_produces_all_classes() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..5000 {
            seen.insert(AppMix::TYPICAL.sample(&mut rng));
        }
        assert!(seen.contains(&AppClass::Web));
        assert!(seen.contains(&AppClass::Video));
        assert!(seen.contains(&AppClass::Bulk));
        assert!(seen.contains(&AppClass::Background));
        // BitTorrent never comes out of the mix; it is driven separately.
        assert!(!seen.contains(&AppClass::BitTorrent));
    }

    #[test]
    #[should_panic(expected = "zero total weight")]
    fn zero_mix_rejected() {
        let mix = AppMix {
            web: 0.0,
            video: 0.0,
            bulk: 0.0,
            background: 0.0,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let _ = mix.sample(&mut rng);
    }
}
