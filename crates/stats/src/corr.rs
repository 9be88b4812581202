//! Correlation coefficients.
//!
//! The paper leans on Pearson's r throughout: "usage is strongly correlated
//! with the group's link capacity (r ≥ 0.87…)" (§3.1) and the §6 census of
//! price~capacity correlation across markets.

/// Pearson product-moment correlation between two equal-length slices.
///
/// Returns `None` when either series is constant (the coefficient is
/// undefined) or when fewer than two observations are given.
pub fn pearson(x: &[f64], y: &[f64]) -> Option<f64> {
    assert_eq!(x.len(), y.len(), "correlation inputs differ in length");
    let n = x.len();
    if n < 2 {
        return None;
    }
    let nf = n as f64;
    let mx = x.iter().sum::<f64>() / nf;
    let my = y.iter().sum::<f64>() / nf;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for i in 0..n {
        let dx = x[i] - mx;
        let dy = y[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    Some((sxy / (sxx * syy).sqrt()).clamp(-1.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_linear_relationship() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        let neg = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&x, &neg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn known_pearson_value() {
        // Cross-checked with numpy.corrcoef.
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [2.0, 1.0, 4.0, 3.0, 6.0];
        let r = pearson(&x, &y).unwrap();
        assert!((r - 0.821_994_936_526_786_5).abs() < 1e-12, "r = {r}");
    }

    #[test]
    fn constant_series_has_no_correlation() {
        let x = [1.0, 1.0, 1.0];
        let y = [2.0, 3.0, 4.0];
        assert_eq!(pearson(&x, &y), None);
    }

    #[test]
    fn too_short_series() {
        assert_eq!(pearson(&[1.0], &[2.0]), None);
    }

    #[test]
    #[should_panic(expected = "differ in length")]
    fn length_mismatch_panics() {
        let _ = pearson(&[1.0, 2.0], &[1.0]);
    }
}
