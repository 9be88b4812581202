//! Property tests of link shaping: a link throttled below its advertised
//! capacity never carries more traffic than the unthrottled link.

use bb_netsim::link::AccessLink;
use bb_netsim::workload::{simulate_user, UserWorkload};
use bb_types::{Bandwidth, Latency, LossRate, TimeAxis, Year};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

proptest! {
    #[test]
    fn shaped_link_carries_no_more_traffic_than_unshaped(
        seed in 0u64..1_000,
        shape_frac in 0.1f64..1.0,
    ) {
        let link = AccessLink::new(
            Bandwidth::from_mbps(20.0),
            Latency::from_ms(40.0),
            LossRate::from_percent(0.1),
        );
        let wl = UserWorkload::with_bt(Bandwidth::from_mbps(5.0), 0.4);
        let axis = TimeAxis::new(Year(2012), 2);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let unshaped = simulate_user(&link, &wl, axis, &mut rng);
        // The ISP throttles the downlink; the uplink is left as it was.
        let shaped_link = AccessLink {
            capacity: Bandwidth::from_mbps(20.0 * shape_frac),
            ..link
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let shaped = simulate_user(&shaped_link, &wl, axis, &mut rng);
        prop_assert!(
            shaped.total_bytes() <= unshaped.total_bytes() * (1.0 + 1e-9),
            "shaped {} > unshaped {}",
            shaped.total_bytes(),
            unshaped.total_bytes()
        );
    }
}
