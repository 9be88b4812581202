//! Streaming first and second moments.
//!
//! [`ExactMoments`] is fixed-point integer accumulation. Sums are exact,
//! so merging is exactly associative and commutative: the mean/variance
//! computed from a merged state is **bit-identical** regardless of how
//! the population was partitioned into shards.

use crate::merge::Mergeable;
use crate::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};

/// Fixed-point scale: 2^20 ≈ 10^6 fractional resolution.
const SCALE: f64 = (1u64 << 20) as f64;

/// Exact mergeable count/sum/sum-of-squares accumulator.
///
/// Values are scaled by 2^20 and rounded to integers on entry; sums are
/// held in `i128`/`u128`, which comfortably bounds one million observations
/// of magnitude up to ~10^9 (Mbps-scale and bytes-scale exhibit inputs).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExactMoments {
    count: u64,
    sum: i128,
    sum_sq: u128,
}

impl ExactMoments {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorb one observation.
    pub fn push(&mut self, value: f64) {
        debug_assert!(value.is_finite(), "ExactMoments::push({value})");
        let scaled = (value * SCALE).round() as i128;
        self.count += 1;
        self.sum += scaled;
        self.sum_sq += (scaled * scaled) as u128;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        (self.sum as f64 / SCALE) / self.count as f64
    }

    /// Population variance (0 if fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let n = self.count as f64;
        let mean_scaled = self.sum as f64 / n;
        let var_scaled = (self.sum_sq as f64 / n - mean_scaled * mean_scaled).max(0.0);
        var_scaled / (SCALE * SCALE)
    }

    /// Sample standard deviation (Bessel-corrected).
    pub fn sample_sd(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let n = self.count as f64;
        (self.variance() * n / (n - 1.0)).sqrt()
    }

    /// Standard error of the mean.
    pub fn std_error(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        self.sample_sd() / (self.count as f64).sqrt()
    }
}

impl Mergeable for ExactMoments {
    fn merge(&mut self, other: Self) {
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
    }
}

impl Snapshot for ExactMoments {
    const KIND: &'static str = "ExactMoments";

    fn write_body(&self, w: &mut SnapshotWriter) {
        w.u64("count", self.count);
        w.i128("sum", self.sum);
        w.u128("sum_sq", self.sum_sq);
    }

    fn read_body(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(ExactMoments {
            count: r.take_u64("count")?,
            sum: r.take_i128("sum")?,
            sum_sq: r.take_u128("sum_sq")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Vec<f64> {
        (0..257)
            .map(|i| (i as f64 * 0.37).sin() * 50.0 + 60.0)
            .collect()
    }

    #[test]
    fn exact_matches_naive() {
        let values = data();
        let mut acc = ExactMoments::new();
        for &v in &values {
            acc.push(v);
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        assert!((acc.mean() - mean).abs() < 1e-5, "{} vs {mean}", acc.mean());
        assert!(
            (acc.variance() - var).abs() < 1e-3,
            "{} vs {var}",
            acc.variance()
        );
    }

    #[test]
    fn exact_merge_is_partition_invariant_bitwise() {
        let values = data();
        let mut whole = ExactMoments::new();
        for &v in &values {
            whole.push(v);
        }
        for split in [1, 3, 7, 100] {
            let mut merged = ExactMoments::new();
            for chunk in values.chunks(split) {
                let mut part = ExactMoments::new();
                for &v in chunk {
                    part.push(v);
                }
                merged.merge(part);
            }
            // Equality of the integer state implies bit-identical statistics.
            assert_eq!(merged, whole, "chunk size {split}");
        }
    }
}
