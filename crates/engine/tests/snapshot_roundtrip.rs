//! Serde roundtrip battery for every checkpointable accumulator.
//!
//! The checkpoint/resume guarantee — a resumed run is byte-identical to
//! a cold run — reduces to one invariant per type: thawing a frozen
//! accumulator yields *exactly* the state that was frozen, for any
//! reachable state. These property tests drive each sketch with
//! arbitrary inputs and require `read(write(x)) == x` (the sketches all
//! derive `PartialEq` over their full state, and every `f64` travels as
//! IEEE bits, so equality here is bit-equality). The unit tests pin the
//! edge states: empty accumulators, negative observations routed to the
//! out-of-range counters, saturated log₂ buckets, and reservoirs at and
//! below capacity.

use bb_engine::snapshot::roundtrip;
use bb_engine::{BottomK, EcdfSketch, ExactMoments, Log2Histogram, QuantileSketch, Snapshot};
use bb_trace::Registry;
use proptest::prelude::*;

fn assert_roundtrips<T: Snapshot + PartialEq + std::fmt::Debug>(value: &T) {
    let back = roundtrip(value).expect("snapshot must parse back");
    assert_eq!(&back, value);
    // Idempotence: re-freezing the thawed state reproduces the bytes.
    assert_eq!(back.to_snapshot_string(), value.to_snapshot_string());
}

proptest! {
    #[test]
    fn quantile_sketch_roundtrips(
        values in prop::collection::vec(-1e9f64..1e9, 0..300)
    ) {
        let mut s = QuantileSketch::with_accuracy(0.01);
        values.iter().for_each(|&v| s.push(v));
        let back = roundtrip(&s).expect("parse");
        prop_assert_eq!(&back, &s);
        prop_assert_eq!(back.to_snapshot_string(), s.to_snapshot_string());
    }

    #[test]
    fn ecdf_sketch_roundtrips(
        values in prop::collection::vec(-1e6f64..1e6, 0..300)
    ) {
        let mut s = EcdfSketch::with_accuracy(0.005);
        values.iter().for_each(|&v| s.push(v));
        let back = roundtrip(&s).expect("parse");
        prop_assert_eq!(back, s);
    }

    #[test]
    fn log2_histogram_roundtrips(
        values in prop::collection::vec(-1e5f64..1e5, 0..300)
    ) {
        let mut h = Log2Histogram::new();
        values.iter().for_each(|&v| h.push(v, 0.1));
        let back = roundtrip(&h).expect("parse");
        prop_assert_eq!(back, h);
    }

    #[test]
    fn exact_moments_roundtrip(
        values in prop::collection::vec(-1e4f64..1e4, 0..300)
    ) {
        let mut m = ExactMoments::new();
        values.iter().for_each(|&v| m.push(v));
        let back = roundtrip(&m).expect("parse");
        prop_assert_eq!(back, m);
    }

    #[test]
    fn reservoir_roundtrips(
        ids in prop::collection::vec(0u64..1_000_000, 0..300),
        seed in 0u64..1000
    ) {
        let mut r = BottomK::new(seed, 16);
        ids.iter().for_each(|&id| r.offer(id, id as f64 * 0.25));
        let back = roundtrip(&r).expect("parse");
        prop_assert_eq!(back, r);
    }

    #[test]
    fn registry_roundtrips(
        counts in prop::collection::vec(0u64..1_000_000, 0..20),
        observations in prop::collection::vec(0.001f64..1e5, 0..50)
    ) {
        let names = ["a.count", "b.count", "c.with space", "d.\\backslash"];
        let mut reg = Registry::new();
        for (i, &c) in counts.iter().enumerate() {
            reg.add(names[i % names.len()], c);
        }
        for &v in &observations {
            reg.observe("values.seen", v, 0.1);
        }
        let back = roundtrip(&reg).expect("parse");
        prop_assert_eq!(&back, &reg);
        prop_assert_eq!(back.to_json(), reg.to_json());
    }

    #[test]
    fn vectors_and_tuples_roundtrip(
        values in prop::collection::vec(-1e6f64..1e6, 0..60),
        counts in prop::collection::vec(0u64..1000, 0..10)
    ) {
        let mut m = ExactMoments::new();
        values.iter().for_each(|&v| m.push(v));
        let mut q = QuantileSketch::with_accuracy(0.01);
        values.iter().for_each(|&v| q.push(v));
        let moments: Vec<ExactMoments> = counts
            .iter()
            .map(|&c| {
                let mut m = ExactMoments::new();
                m.push(c as f64);
                m
            })
            .collect();
        let composite = (moments, Some(m), q);
        let back = roundtrip(&composite).expect("parse");
        prop_assert_eq!(back, composite);
    }
}

#[test]
fn empty_accumulators_roundtrip() {
    assert_roundtrips(&QuantileSketch::with_accuracy(0.01));
    assert_roundtrips(&EcdfSketch::with_accuracy(0.005));
    assert_roundtrips(&Log2Histogram::new());
    assert_roundtrips(&ExactMoments::new());
    assert_roundtrips(&BottomK::new(7, 8));
    assert_roundtrips(&Registry::new());
    assert_roundtrips(&Vec::<ExactMoments>::new());
    assert_roundtrips(&Option::<QuantileSketch>::None);
}

#[test]
fn negative_observations_survive_the_roundtrip() {
    // QuantileSketch routes negatives to a dedicated counter and tracks
    // min/max across them; all of that must thaw intact.
    let mut s = QuantileSketch::with_accuracy(0.01);
    for v in [-5.0, -0.25, 0.0, 0.0, 3.5, -1e9] {
        s.push(v);
    }
    assert_roundtrips(&s);
    let back = roundtrip(&s).unwrap();
    assert_eq!(back.quantile(0.5), s.quantile(0.5));

    // Log2Histogram folds every nonpositive value into one counter.
    let mut h = Log2Histogram::new();
    for v in [-3.0, 0.0, -0.001, 2.0] {
        h.push(v, 0.1);
    }
    assert_eq!(h.nonpositive(), 3);
    assert_roundtrips(&h);
}

#[test]
fn saturated_log2_buckets_roundtrip() {
    // Extreme magnitudes land in extreme bucket indices (deeply negative
    // and strongly positive i32 exponents); the text format must carry
    // both signs of the bucket index.
    let mut h = Log2Histogram::new();
    for v in [f64::MIN_POSITIVE, 1e-300, 1e300, f64::MAX] {
        h.push(v, 1.0);
    }
    let buckets: Vec<(i32, u64)> = h.buckets().collect();
    assert!(buckets.first().unwrap().0 < -900, "{buckets:?}");
    assert!(buckets.last().unwrap().0 > 900, "{buckets:?}");
    assert_roundtrips(&h);
}

#[test]
fn reservoir_at_and_below_capacity_roundtrips() {
    // Below k: every offered item is retained.
    let mut below = BottomK::new(3, 8);
    for id in 0..5u64 {
        below.offer(id, id as f64);
    }
    assert_eq!(below.len(), 5);
    assert_roundtrips(&below);

    // At k (saturated): retention is the bottom-k priority set.
    let mut full = BottomK::new(3, 8);
    for id in 0..500u64 {
        full.offer(id, (id as f64).sqrt());
    }
    assert_eq!(full.len(), 8);
    assert_roundtrips(&full);

    // Exactly k offered items: boundary between the two regimes.
    let mut exact = BottomK::new(3, 8);
    for id in 0..8u64 {
        exact.offer(id, -(id as f64));
    }
    assert_eq!(exact.len(), 8);
    assert_roundtrips(&exact);
}

#[test]
fn special_floats_roundtrip_bit_exactly() {
    // -0.0, infinities, and subnormals all have distinct bit patterns
    // that decimal formatting would destroy; the hex-bits encoding must
    // preserve each one. An empty sketch holds ±∞ as its extremes, and
    // the smallest positive subnormal is a valid accuracy.
    let subnormal = QuantileSketch::with_accuracy(5e-324);
    assert_eq!(subnormal.accuracy().to_bits(), 1);
    assert_roundtrips(&subnormal);

    // No push stores -0.0 in a field, so thaw a frozen sketch whose
    // minimum carries its bits: freezing it again must keep them.
    let frozen = QuantileSketch::with_accuracy(0.01)
        .to_snapshot_string()
        .replace(
            &format!("min {:016x}", f64::INFINITY.to_bits()),
            &format!("min {:016x}", (-0.0f64).to_bits()),
        );
    assert!(frozen.contains("min 8000000000000000"), "{frozen}");
    let negative_zero = QuantileSketch::from_snapshot_str(&frozen).expect("parse");
    assert_eq!(negative_zero.to_snapshot_string(), frozen);
    assert_roundtrips(&negative_zero);

    let mut s = QuantileSketch::with_accuracy(0.01);
    s.push(-0.0);
    s.push(5e-324);
    assert_roundtrips(&s);
}
