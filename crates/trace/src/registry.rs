//! The mergeable metrics registry.
//!
//! A [`Registry`] is a bag of named `u64` counters plus named
//! [`Log2Histogram`]s. Both merge by exact integer addition, so folding
//! per-shard registries **in shard index order** yields the same bytes
//! for any `(shards, threads)` plan — the registry obeys the same
//! partition-invariance contract as the engine's streaming sketches and
//! its JSON serialisation is pinned by `tests/shard_invariance.rs`.
//!
//! Only *data events* belong here: wraps detected, resets clamped,
//! samples dropped — things that are pure functions of `(seed, user
//! index)`. Wall-clock observables (span timings, steal counts) are
//! plan-dependent by nature and live in [`crate::Timings`] and the
//! engine's `RunStats` instead, so they can never leak into the
//! deterministic output.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::hist::Log2Histogram;

/// Named counters + named log₂ histograms, merged by addition.
///
/// Metric names are `&'static str` by design: every name is a literal at
/// an instrumentation site, lookups avoid allocation, and the full name
/// set is auditable by grepping the workspace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Registry {
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Log2Histogram>,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add 1 to `name`.
    pub fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Add `delta` to `name` (creating it at zero first).
    pub fn add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Record `value` (relative to `base`) into histogram `name`.
    pub fn observe(&mut self, name: &'static str, value: f64, base: f64) {
        self.hists.entry(name).or_default().push(value, base);
    }

    /// Fold a locally-accumulated histogram into histogram `name`.
    ///
    /// Hot loops should fill a local [`Log2Histogram`] and flush it here
    /// once, rather than paying a map lookup per observation.
    pub fn merge_hist(&mut self, name: &'static str, hist: Log2Histogram) {
        self.hists.entry(name).or_default().merge(hist);
    }

    /// Histogram `name`, if any value was ever observed.
    pub fn histogram(&self, name: &str) -> Option<&Log2Histogram> {
        self.hists.get(name)
    }

    /// `(name, value)` over all counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// `(name, histogram)` over all histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Log2Histogram)> + '_ {
        self.hists.iter().map(|(&k, v)| (k, v))
    }

    /// True if nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.hists.is_empty()
    }

    /// Fold `other` into `self` by adding counters and histogram buckets.
    ///
    /// Exact integer addition: associative, commutative, and therefore
    /// invariant under any partition of the underlying event stream.
    pub fn merge(&mut self, other: Self) {
        for (name, v) in other.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        for (name, h) in other.hists {
            self.hists.entry(name).or_default().merge(h);
        }
    }

    /// Deterministic pretty-printed JSON: keys in name order, histogram
    /// buckets in ascending bucket order, two-space indent, trailing
    /// newline. Byte-identical for equal registries — this is the
    /// `--metrics` file format pinned by the shard-invariance tests.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"counters\": {");
        let mut first = true;
        for (name, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{name}\": {v}");
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"histograms\": {");
        first = true;
        for (name, h) in &self.hists {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    \"{name}\": {{\"nonpositive\": {}, \"buckets\": [",
                h.nonpositive()
            );
            let mut first_bucket = true;
            for (k, c) in h.buckets() {
                if !first_bucket {
                    out.push_str(", ");
                }
                first_bucket = false;
                let _ = write!(out, "[{k}, {c}]");
            }
            out.push_str("]}");
        }
        if !self.hists.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(offset: u64) -> Registry {
        let mut r = Registry::new();
        r.add("wraps", 3 + offset);
        r.inc("resets");
        r.observe("gap_slots", 4.0 + offset as f64, 1.0);
        r
    }

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let r = sample(0);
        assert_eq!(r.counter("wraps"), 3);
        assert_eq!(r.counter("resets"), 1);
        assert_eq!(r.counter("never_touched"), 0);
    }

    #[test]
    fn merge_adds_counters_and_histograms() {
        let mut a = sample(0);
        a.merge(sample(10));
        assert_eq!(a.counter("wraps"), 16);
        assert_eq!(a.counter("resets"), 2);
        assert_eq!(a.histogram("gap_slots").unwrap().count(), 2);
    }

    #[test]
    fn merge_order_does_not_change_the_json() {
        let (a, b) = (sample(0), sample(7));
        let mut ab = a.clone();
        ab.merge(b.clone());
        let mut ba = b;
        ba.merge(a);
        assert_eq!(ab.to_json(), ba.to_json());
    }

    #[test]
    fn json_is_stable_and_sorted() {
        let mut r = Registry::new();
        r.add("zeta", 1);
        r.add("alpha", 2);
        let json = r.to_json();
        let alpha = json.find("alpha").unwrap();
        let zeta = json.find("zeta").unwrap();
        assert!(alpha < zeta, "keys must serialise in name order");
        assert!(json.ends_with("}\n"));
        // An empty registry still renders both sections.
        assert_eq!(
            Registry::new().to_json(),
            "{\n  \"counters\": {},\n  \"histograms\": {}\n}\n"
        );
    }
}
