//! The one-tailed binomial test.
//!
//! This is the statistical engine of the paper's methodology (§2.3): each
//! natural experiment produces a sequence of matched pairs, each pair
//! either supports the hypothesis or not, and "we use the one-tailed
//! binomial test to measure the statistical significance of deviations from
//! the expected distribution" (a fair coin under H₀).
//!
//! The paper also guards against the large-sample pathology pointed out by
//! Paxson — with enough data even a trivial deviation is "significant" — by
//! additionally requiring the observed share to deviate by more than 2
//! percentage points ("we only consider deviations larger than 2% to be
//! practically important", i.e. the hypothesis must hold at least 52% of
//! the time). [`BinomialTest::practically_important`] encodes exactly that
//! rule.

use crate::dist::Binomial;
use crate::special::std_normal_sf;

/// Which tail of the null distribution the alternative hypothesis lives in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tail {
    /// Alternative: true success probability is *greater* than the null's
    /// (the paper's experiments all use this direction).
    Greater,
    /// Alternative: true success probability is *less* than the null's.
    Less,
}

/// Result of a one-tailed binomial test.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BinomialTest {
    /// Number of successes observed.
    pub successes: u64,
    /// Number of trials.
    pub trials: u64,
    /// Null success probability (0.5 in all of the paper's experiments).
    pub null_p: f64,
    /// Direction of the alternative hypothesis.
    pub tail: Tail,
    /// Exact one-tailed p-value.
    pub p_value: f64,
    /// Observed success share (`successes / trials`).
    pub observed_share: f64,
}

impl BinomialTest {
    /// Significance at the paper's α = 0.05 ("a strong presumption against
    /// the null hypothesis").
    pub fn significant(&self) -> bool {
        self.p_value < 0.05
    }

    /// The paper's practical-importance guard: the observed share must
    /// deviate from the null probability by more than 2 percentage points
    /// in the direction of the alternative.
    pub fn practically_important(&self) -> bool {
        match self.tail {
            Tail::Greater => self.observed_share >= self.null_p + 0.02,
            Tail::Less => self.observed_share <= self.null_p - 0.02,
        }
    }

    /// Both significant and practically important — the bar a result must
    /// clear before the paper rejects H₀.
    pub fn conclusive(&self) -> bool {
        self.significant() && self.practically_important()
    }

    /// Observed share as a percentage (the "% H holds" column of every
    /// experiment table in the paper).
    pub fn share_percent(&self) -> f64 {
        self.observed_share * 100.0
    }
}

/// Run an exact one-tailed binomial test.
///
/// `successes` of `trials` came out in favour of the hypothesis; under the
/// null they would be `Binomial(trials, null_p)`.
///
/// # Panics
/// Panics when `trials` is zero, `successes > trials`, or `null_p` is
/// outside `[0, 1]`.
pub fn binomial_test(successes: u64, trials: u64, null_p: f64, tail: Tail) -> BinomialTest {
    assert!(trials > 0, "binomial test with zero trials");
    assert!(
        successes <= trials,
        "successes ({successes}) exceed trials ({trials})"
    );
    let dist = Binomial::new(trials, null_p);
    let p_value = match tail {
        Tail::Greater => dist.sf_at_least(successes),
        Tail::Less => dist.cdf(successes),
    };
    BinomialTest {
        successes,
        trials,
        null_p,
        tail,
        p_value,
        observed_share: successes as f64 / trials as f64,
    }
}

/// Normal-approximation version of the one-tailed test (with continuity
/// correction). Provided for the `ablate_binomial` bench, which quantifies
/// how far the approximation drifts from the exact tail at the paper's
/// sample sizes.
pub fn binomial_test_normal_approx(
    successes: u64,
    trials: u64,
    null_p: f64,
    tail: Tail,
) -> BinomialTest {
    assert!(trials > 0, "binomial test with zero trials");
    assert!(
        successes <= trials,
        "successes ({successes}) exceed trials ({trials})"
    );
    let n = trials as f64;
    let mean = n * null_p;
    let sd = (n * null_p * (1.0 - null_p)).sqrt();
    let p_value = if sd == 0.0 {
        // Degenerate null: all mass at mean.
        match tail {
            Tail::Greater => {
                if (successes as f64) <= mean {
                    1.0
                } else {
                    0.0
                }
            }
            Tail::Less => {
                if (successes as f64) >= mean {
                    1.0
                } else {
                    0.0
                }
            }
        }
    } else {
        match tail {
            Tail::Greater => std_normal_sf((successes as f64 - 0.5 - mean) / sd),
            Tail::Less => 1.0 - std_normal_sf((successes as f64 + 0.5 - mean) / sd),
        }
    };
    BinomialTest {
        successes,
        trials,
        null_p,
        tail,
        p_value: p_value.clamp(0.0, 1.0),
        observed_share: successes as f64 / trials as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fair_coin_not_significant() {
        let t = binomial_test(52, 100, 0.5, Tail::Greater);
        assert!(!t.significant(), "p = {}", t.p_value);
        // scipy.stats.binomtest(52, 100, alternative='greater') = 0.38218...
        assert!((t.p_value - 0.382_177).abs() < 1e-5, "p = {}", t.p_value);
        assert!(t.practically_important()); // 52% is exactly the cut-off.
        assert!(!t.conclusive());
    }

    #[test]
    fn biased_coin_detected() {
        // 70 of 100 heads under a fair null: p ≈ 3.9e-5.
        let t = binomial_test(70, 100, 0.5, Tail::Greater);
        assert!(t.significant());
        assert!(t.practically_important());
        assert!(t.conclusive());
        assert!(t.p_value < 1e-4 && t.p_value > 1e-6, "p = {}", t.p_value);
    }

    #[test]
    fn paper_scale_p_values() {
        // Table 1 reports 70.3% of pairs and p = 1.13e-36; with ~640 pairs
        // and 450 successes the exact tail lands in that regime.
        let t = binomial_test(450, 640, 0.5, Tail::Greater);
        assert!(t.p_value < 1e-20, "p = {}", t.p_value);
        assert!(t.p_value > 0.0);
        // At the paper's panel size (Table 1: 12,046 pairs) the tail
        // leaves f64's range: 66.0 % still has a p, 69.7 % underflows to
        // exactly 0, which bb-report prints as `< 1e-300`.
        let t = binomial_test(7_950, 12_046, 0.5, Tail::Greater);
        assert!(t.p_value > 0.0 && t.p_value < 1e-270, "p = {}", t.p_value);
        let t = binomial_test(8_400, 12_046, 0.5, Tail::Greater);
        assert_eq!(t.p_value, 0.0);
    }

    #[test]
    fn large_samples_make_trivial_deviations_significant_not_important() {
        // §2.3's Paxson caveat: a 50.5 % coin is practically fair, yet a
        // million throws make the deviation significant. The 2-point
        // guard keeps it from being a finding.
        let big = binomial_test(505_000, 1_000_000, 0.5, Tail::Greater);
        assert!(big.significant(), "p = {}", big.p_value);
        assert!(big.p_value < 1e-20, "p = {}", big.p_value);
        assert!(!big.practically_important());
        assert!(!big.conclusive());
        // The same share at a realistic sample size is not significant.
        let small = binomial_test(505, 1_000, 0.5, Tail::Greater);
        assert!(!small.significant(), "p = {}", small.p_value);
        assert!((small.p_value - 0.39).abs() < 0.01, "p = {}", small.p_value);
    }

    #[test]
    fn lower_tail() {
        let t = binomial_test(30, 100, 0.5, Tail::Less);
        assert!(t.significant());
        assert!(t.practically_important());
        let t2 = binomial_test(49, 100, 0.5, Tail::Less);
        assert!(!t2.practically_important());
    }

    #[test]
    fn exact_small_case() {
        // P(X >= 9 | n = 10, p = 0.5) = 11/1024.
        let t = binomial_test(9, 10, 0.5, Tail::Greater);
        assert!((t.p_value - 11.0 / 1024.0).abs() < 1e-12);
    }

    #[test]
    fn normal_approx_tracks_exact() {
        for &(k, n) in &[(60u64, 100u64), (550, 1000), (5200, 10000)] {
            let exact = binomial_test(k, n, 0.5, Tail::Greater).p_value;
            let approx = binomial_test_normal_approx(k, n, 0.5, Tail::Greater).p_value;
            let rel = (approx - exact).abs() / exact;
            assert!(rel < 0.05, "k={k} n={n}: exact {exact}, approx {approx}");
        }
    }

    #[test]
    fn share_percent() {
        let t = binomial_test(668, 1000, 0.5, Tail::Greater);
        assert!((t.share_percent() - 66.8).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero trials")]
    fn zero_trials_rejected() {
        let _ = binomial_test(0, 0, 0.5, Tail::Greater);
    }

    #[test]
    #[should_panic(expected = "exceed trials")]
    fn impossible_successes_rejected() {
        let _ = binomial_test(11, 10, 0.5, Tail::Greater);
    }
}
