//! Streaming ECDF sketch.
//!
//! The exhibit CDFs (`CdfFigure`) need `(x, F(x))` step points plus the
//! series count and median. Holding every observation (the seed approach)
//! costs O(n) per series; this sketch rides the geometric buckets of
//! [`QuantileSketch`] to answer the same queries in O(buckets), with exact
//! counts, exact min/max, and partition-invariant merging.

use crate::merge::Mergeable;
use crate::quantile::QuantileSketch;

/// Mergeable CDF sketch for non-negative values.
#[derive(Clone, Debug, PartialEq)]
pub struct EcdfSketch {
    sketch: QuantileSketch,
}

impl EcdfSketch {
    /// A sketch with relative value accuracy `alpha` on the x-axis.
    pub fn with_accuracy(alpha: f64) -> Self {
        EcdfSketch {
            sketch: QuantileSketch::with_accuracy(alpha),
        }
    }

    /// Absorb one observation.
    pub fn push(&mut self, value: f64) {
        self.sketch.push(value);
    }

    /// Observations absorbed.
    pub fn count(&self) -> u64 {
        self.sketch.count()
    }

    /// Median estimate.
    pub fn median(&self) -> Option<f64> {
        self.sketch.quantile(0.5)
    }

    /// Strictly negative observations (clamped to zero for all queries);
    /// see [`QuantileSketch::negatives`].
    pub fn negatives(&self) -> u64 {
        self.sketch.negatives()
    }

    /// Quantile estimate (delegates to the underlying sketch).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.sketch.quantile(q)
    }

    /// Fraction of observations at or below `x` (0 on an empty sketch).
    pub fn fraction_below(&self, x: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let below: u64 = self.bucket_points_below(x).map(|(_, c)| c).sum();
        below as f64 / n as f64
    }

    fn bucket_points_below(&self, x: f64) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.sketch
            .bucket_points()
            .take_while(move |&(value, _)| value <= x)
    }

    /// The underlying quantile sketch (checkpoint serialisation delegates
    /// to it so the ECDF snapshot is exactly the sketch snapshot).
    pub fn inner(&self) -> &QuantileSketch {
        &self.sketch
    }

    /// Rebuild from a restored inner sketch — the checkpoint-thaw inverse
    /// of [`Self::inner`].
    pub fn from_inner(sketch: QuantileSketch) -> Self {
        EcdfSketch { sketch }
    }

    /// The `(x, F(x))` step points of the sketched distribution, ending at
    /// the exact maximum with `F = 1`.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.count();
        if n == 0 {
            return Vec::new();
        }
        let mut points = Vec::new();
        let mut cumulative = 0u64;
        for (value, count) in self.sketch.bucket_points() {
            cumulative += count;
            points.push((value, cumulative as f64 / n as f64));
        }
        if let Some(max) = self.sketch.max() {
            match points.last() {
                Some(&(x, _)) if x >= max => {}
                _ => points.push((max, 1.0)),
            }
        }
        points
    }
}

impl Mergeable for EcdfSketch {
    fn merge(&mut self, other: Self) {
        self.sketch.merge(other.sketch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_are_monotone_and_end_at_one() {
        let mut e = EcdfSketch::with_accuracy(0.01);
        for i in 0..500 {
            e.push(((i * 37) % 100) as f64 + 0.5);
        }
        let pts = e.points();
        assert!(!pts.is_empty());
        assert!(pts.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
        assert_eq!(pts.last().unwrap().1, 1.0);
    }

    #[test]
    fn fraction_below_tracks_truth() {
        let mut e = EcdfSketch::with_accuracy(0.005);
        for i in 1..=1000 {
            e.push(i as f64);
        }
        let f = e.fraction_below(500.0);
        assert!((f - 0.5).abs() < 0.02, "{f}");
    }
}
