//! Bounded-relative-error streaming quantiles.
//!
//! A logarithmically-bucketed sketch in the GK/DDSketch family: values are
//! classified into geometric buckets `(γ^(i-1), γ^i]` with
//! `γ = (1+α)/(1-α)`, and a quantile query returns the representative of
//! the bucket containing the requested order statistic. Because bucket
//! counts are exact integers, merging is exactly associative and
//! commutative, and the answer to any query is **bit-identical** however
//! the stream was partitioned — the property the sharded engine needs.
//!
//! Guarantee: for any quantile `q`, the returned estimate `v̂` and the true
//! order statistic `v` satisfy `|v̂ − v| ≤ α·v` (values below
//! [`QuantileSketch::MIN_POSITIVE`] are treated as zero).

use crate::merge::Mergeable;
use crate::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use std::collections::BTreeMap;

/// Mergeable α-relative-error quantile sketch for non-negative values.
#[derive(Clone, Debug, PartialEq)]
pub struct QuantileSketch {
    /// Configured relative accuracy α ∈ (0, 1).
    alpha: f64,
    /// ln γ, cached.
    ln_gamma: f64,
    /// Geometric bucket counts, keyed by bucket index.
    buckets: BTreeMap<i32, u64>,
    /// Observations below [`Self::MIN_POSITIVE`].
    zeros: u64,
    /// How many of those were strictly negative. A subset of `zeros`:
    /// negatives still *quantise* to zero (the sketch is defined for
    /// non-negative streams and the numerics are unchanged), but an
    /// upstream sign bug is now visible instead of vanishing into `q=0`.
    negatives: u64,
    /// Exact extremes (min over positives only).
    min: f64,
    max: f64,
}

impl QuantileSketch {
    /// Values below this threshold count as zero.
    pub const MIN_POSITIVE: f64 = 1e-12;

    /// A sketch with relative accuracy `alpha` (e.g. `0.01` → 1 %).
    pub fn with_accuracy(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "relative accuracy must be in (0,1), got {alpha}"
        );
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        QuantileSketch {
            alpha,
            ln_gamma: gamma.ln(),
            buckets: BTreeMap::new(),
            zeros: 0,
            negatives: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The configured relative accuracy.
    pub fn accuracy(&self) -> f64 {
        self.alpha
    }

    /// Total observations absorbed.
    pub fn count(&self) -> u64 {
        self.zeros + self.buckets.values().sum::<u64>()
    }

    /// Number of distinct buckets in use (sketch size is O(buckets)).
    pub fn n_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Absorb one non-negative observation. Negatives clamp to zero for
    /// every query, but are additionally tallied in [`Self::negatives`]
    /// so callers can detect a sign bug upstream.
    pub fn push(&mut self, value: f64) {
        debug_assert!(value.is_finite(), "QuantileSketch::push({value})");
        if value < Self::MIN_POSITIVE {
            self.zeros += 1;
            if value < 0.0 {
                self.negatives += 1;
            }
            return;
        }
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let index = (value.ln() / self.ln_gamma).ceil() as i32;
        *self.buckets.entry(index).or_insert(0) += 1;
    }

    /// The representative value of bucket `index`: the midpoint that
    /// bounds relative error by α for every value in the bucket.
    fn representative(&self, index: i32) -> f64 {
        // 2γ^i/(γ+1) = γ^i (1−α).
        (self.ln_gamma * index as f64).exp() * (1.0 - self.alpha)
    }

    /// Estimate the `q`-quantile (q ∈ [0, 1]) of the absorbed stream.
    /// Returns `None` on an empty sketch.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the targeted order statistic (0-based).
        let rank = (q * (n - 1) as f64).floor() as u64;
        if rank < self.zeros {
            return Some(0.0);
        }
        let mut cumulative = self.zeros;
        for (&index, &count) in &self.buckets {
            cumulative += count;
            if cumulative > rank {
                return Some(self.representative(index));
            }
        }
        // Numerically unreachable; the last bucket always covers rank n-1.
        Some(self.representative(*self.buckets.keys().last()?))
    }

    /// Strictly negative observations absorbed so far. They were clamped
    /// to zero for quantile purposes (and are included in [`Self::count`]);
    /// a nonzero value here means something upstream produced a sign it
    /// should not have.
    pub fn negatives(&self) -> u64 {
        self.negatives
    }

    /// Exact smallest positive observation (None if all zero/empty).
    pub fn min(&self) -> Option<f64> {
        self.min.is_finite().then_some(self.min)
    }

    /// Exact largest observation (None if all zero/empty).
    pub fn max(&self) -> Option<f64> {
        self.max.is_finite().then_some(self.max)
    }

    /// Iterate `(bucket representative, count)` in ascending value order,
    /// with zeros reported first under representative 0.0.
    pub fn bucket_points(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let zeros = (self.zeros > 0).then_some((0.0, self.zeros));
        zeros.into_iter().chain(
            self.buckets
                .iter()
                .map(|(&i, &c)| (self.representative(i), c)),
        )
    }
}

impl Snapshot for QuantileSketch {
    const KIND: &'static str = "QuantileSketch";

    fn write_body(&self, w: &mut SnapshotWriter) {
        w.f64("alpha", self.alpha);
        w.u64("zeros", self.zeros);
        w.u64("negatives", self.negatives);
        w.f64("min", self.min);
        w.f64("max", self.max);
        w.u64("buckets", self.buckets.len() as u64);
        for (&index, &count) in &self.buckets {
            w.line("-", &format!("{index} {count}"));
        }
    }

    fn read_body(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let alpha = r.take_f64("alpha")?;
        // `with_accuracy` asserts on a bad α; a checkpoint must never be
        // able to reach that assert, so validate first and fail softly.
        if !(alpha > 0.0 && alpha < 1.0) {
            return Err(r.invalid(format!("alpha out of (0,1): {alpha}")));
        }
        let mut sketch = QuantileSketch::with_accuracy(alpha);
        sketch.zeros = r.take_u64("zeros")?;
        sketch.negatives = r.take_u64("negatives")?;
        sketch.min = r.take_f64("min")?;
        sketch.max = r.take_f64("max")?;
        let len = r.take_u64("buckets")?;
        for _ in 0..len {
            let rest = r.take("-")?;
            let mut toks = rest.split_whitespace();
            let index = toks
                .next()
                .and_then(|t| t.parse::<i32>().ok())
                .ok_or_else(|| r.invalid(format!("bad bucket index in {rest:?}")))?;
            let count = toks
                .next()
                .and_then(|t| t.parse::<u64>().ok())
                .ok_or_else(|| r.invalid(format!("bad bucket count in {rest:?}")))?;
            *sketch.buckets.entry(index).or_insert(0) += count;
        }
        Ok(sketch)
    }
}

impl Mergeable for QuantileSketch {
    fn merge(&mut self, other: Self) {
        assert!(
            (self.alpha - other.alpha).abs() < f64::EPSILON,
            "merging sketches of different accuracy ({} vs {})",
            self.alpha,
            other.alpha
        );
        for (index, count) in other.buckets {
            *self.buckets.entry(index).or_insert(0) += count;
        }
        self.zeros += other.zeros;
        self.negatives += other.negatives;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        let rank = (q * (sorted.len() - 1) as f64).floor() as usize;
        sorted[rank]
    }

    #[test]
    fn error_stays_within_alpha() {
        let alpha = 0.02;
        let mut sketch = QuantileSketch::with_accuracy(alpha);
        let mut values: Vec<f64> = (1..2000u32)
            .map(|i| ((i as f64 * 0.618).fract() * 12.0).exp() * 1e-3)
            .collect();
        values.iter().for_each(|&v| sketch.push(v));
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let exact = exact_quantile(&values, q);
            let est = sketch.quantile(q).unwrap();
            assert!(
                (est - exact).abs() <= alpha * exact * (1.0 + 1e-9) + 1e-12,
                "q={q}: est {est} exact {exact}"
            );
        }
    }

    #[test]
    fn zeros_and_empty_behave() {
        let mut sketch = QuantileSketch::with_accuracy(0.05);
        assert_eq!(sketch.quantile(0.5), None);
        sketch.push(0.0);
        sketch.push(0.0);
        sketch.push(10.0);
        assert_eq!(sketch.count(), 3);
        assert_eq!(sketch.quantile(0.0), Some(0.0));
        let p100 = sketch.quantile(1.0).unwrap();
        assert!((p100 - 10.0).abs() <= 0.05 * 10.0 * 1.000001);
    }

    #[test]
    fn negative_inputs_are_counted_not_silently_zeroed() {
        // Regression: negatives used to be indistinguishable from true
        // zeros, so a sign bug upstream surfaced as a heap of q=0 mass.
        let mut sketch = QuantileSketch::with_accuracy(0.05);
        sketch.push(-3.5);
        sketch.push(0.0);
        sketch.push(2.0);
        assert_eq!(sketch.negatives(), 1, "the sign bug must be visible");
        // Query behaviour is unchanged: the negative still clamps to zero.
        assert_eq!(sketch.count(), 3);
        assert_eq!(sketch.quantile(0.0), Some(0.0));

        let mut other = QuantileSketch::with_accuracy(0.05);
        other.push(-1.0);
        sketch.merge(other);
        assert_eq!(sketch.negatives(), 2, "negatives survive merges");
    }

    #[test]
    fn merge_equals_single_stream() {
        let mut whole = QuantileSketch::with_accuracy(0.01);
        let mut left = QuantileSketch::with_accuracy(0.01);
        let mut right = QuantileSketch::with_accuracy(0.01);
        for i in 0..1000 {
            let v = (i as f64 * 0.7331).fract() * 500.0;
            whole.push(v);
            if i % 2 == 0 {
                left.push(v);
            } else {
                right.push(v);
            }
        }
        left.merge(right);
        assert_eq!(left, whole);
    }
}
