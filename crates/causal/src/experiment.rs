//! Running a natural experiment end to end.
//!
//! A [`NaturalExperiment`] bundles a name, a hypothesis direction, and the
//! caliper configuration; [`NaturalExperiment::run`] matches the groups,
//! scores each pair, and produces an [`ExperimentOutcome`] whose fields map
//! one-to-one onto the columns of the paper's experiment tables
//! ("% H holds", "p-value", and the asterisk that "denotes that a result
//! was not statistically significant").

use crate::caliper::Caliper;
use crate::matching::{match_pairs_audited, MatchAudit, MatchedPair, Unit};
use bb_stats::hypothesis::{binomial_test, BinomialTest, Tail};
use bb_trace::EventLog;

/// Direction of the hypothesis on the treated outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// H: treated units have *higher* outcomes than their matched controls
    /// (every experiment in the paper is phrased this way).
    TreatmentHigher,
    /// H: treated units have *lower* outcomes.
    TreatmentLower,
}

/// Minimum number of non-tied pairs before an experiment may claim
/// statistical significance. Below this, even an exact binomial
/// p < 0.05 (e.g. 5/5 pairs, p ≈ 0.031) is one lucky streak away from
/// noise — degraded collection that starves the matcher must downgrade
/// a finding to "insufficient data", never sharpen it.
pub const MIN_TRIALS: u64 = 8;

/// A configured natural experiment.
#[derive(Clone, Debug)]
pub struct NaturalExperiment {
    /// Human-readable name, used in reports.
    pub name: String,
    /// Hypothesis direction.
    pub direction: Direction,
    /// One caliper per covariate.
    pub calipers: Vec<Caliper>,
}

impl NaturalExperiment {
    /// Create an experiment with the paper's hypothesis direction
    /// (treatment increases the outcome).
    pub fn new(name: impl Into<String>, calipers: Vec<Caliper>) -> Self {
        NaturalExperiment {
            name: name.into(),
            direction: Direction::TreatmentHigher,
            calipers,
        }
    }

    /// Override the hypothesis direction.
    pub fn with_direction(mut self, direction: Direction) -> Self {
        self.direction = direction;
        self
    }

    /// Match the groups, score the pairs, and test the hypothesis.
    ///
    /// Returns `None` when no pairs could be formed (e.g. empty groups or a
    /// caliper so tight nothing matches) — there is no experiment to run.
    pub fn run(&self, control: &[Unit], treatment: &[Unit]) -> Option<ExperimentOutcome> {
        self.run_audited(control, treatment).0
    }

    /// [`NaturalExperiment::run`] plus the [`MatchAudit`] of the matching
    /// stage, for callers feeding a provenance ledger. The audit is
    /// returned even when no experiment could be run — "nothing matched"
    /// is exactly the case an audit trail must explain.
    pub fn run_audited(
        &self,
        control: &[Unit],
        treatment: &[Unit],
    ) -> (Option<ExperimentOutcome>, MatchAudit) {
        let (pairs, audit) = match_pairs_audited(control, treatment, &self.calipers);
        (self.score(pairs), audit)
    }

    /// Record this experiment's provenance in `ledger`: a `match_audit`
    /// event (pool sizes, pairs formed, per-covariate caliper rejections,
    /// pair-distance histogram) and — when the experiment ran — a
    /// `sign_test` event (n, positives, ties, p-value, direction).
    ///
    /// `exhibit` ties the events to a report exhibit id;
    /// `covariate_names` labels the rejection counts and must have one
    /// entry per caliper; `kept` says whether the row survived the
    /// caller's filters (e.g. the minimum-pairs rule) into the report.
    pub fn log_provenance(
        &self,
        ledger: &mut EventLog,
        exhibit: &str,
        covariate_names: &[&str],
        audit: &MatchAudit,
        outcome: Option<&ExperimentOutcome>,
        kept: bool,
    ) {
        assert_eq!(
            covariate_names.len(),
            audit.caliper_rejections.len(),
            "one name per covariate"
        );
        let rejections: Vec<(String, u64)> = covariate_names
            .iter()
            .zip(&audit.caliper_rejections)
            .map(|(name, &count)| ((*name).to_string(), count))
            .collect();
        ledger
            .emit("match_audit")
            .str("exhibit", exhibit)
            .str("experiment", &self.name)
            .u64("control_pool", audit.control_pool)
            .u64("treated_considered", audit.treated_considered)
            .u64("candidates_eligible", audit.candidates_eligible)
            .u64("pairs_formed", audit.pairs_formed)
            .u64("treated_unmatched", audit.treated_unmatched)
            .counts("caliper_rejections", rejections)
            .hist("pair_distance_log2", audit.pair_distance_log2.clone());
        if let Some(out) = outcome {
            ledger
                .emit("sign_test")
                .str("exhibit", exhibit)
                .str("experiment", &self.name)
                .u64("n_pairs", out.n_pairs as u64)
                .u64("ties", out.n_ties as u64)
                .u64("n", out.test.trials)
                .u64("positives", out.test.successes)
                .f64("p_value", out.test.p_value)
                .str(
                    "direction",
                    match self.direction {
                        Direction::TreatmentHigher => "treatment_higher",
                        Direction::TreatmentLower => "treatment_lower",
                    },
                )
                .bool("significant", out.significant())
                .bool("starved", out.starved())
                .bool("kept", kept);
        }
    }

    /// Sign-test the matched pairs; `None` when there are none.
    fn score(&self, pairs: Vec<MatchedPair>) -> Option<ExperimentOutcome> {
        if pairs.is_empty() {
            return None;
        }
        let mut holds = 0u64;
        let mut ties = 0u64;
        for p in &pairs {
            let diff = p.treatment_outcome - p.control_outcome;
            if diff == 0.0 {
                ties += 1;
                continue;
            }
            let in_favour = match self.direction {
                Direction::TreatmentHigher => diff > 0.0,
                Direction::TreatmentLower => diff < 0.0,
            };
            if in_favour {
                holds += 1;
            }
        }
        // Sign-test convention: ties carry no information about direction
        // and are dropped from the trial count.
        let trials = pairs.len() as u64 - ties;
        if trials == 0 {
            return None;
        }
        let test = binomial_test(holds, trials, 0.5, Tail::Greater);
        Some(ExperimentOutcome {
            name: self.name.clone(),
            n_pairs: pairs.len(),
            n_ties: ties as usize,
            test,
            pairs,
        })
    }
}

/// The result of one natural experiment.
#[derive(Clone, Debug)]
pub struct ExperimentOutcome {
    /// Name of the experiment.
    pub name: String,
    /// Number of matched pairs (including ties).
    pub n_pairs: usize,
    /// Pairs with exactly equal outcomes, excluded from the test.
    pub n_ties: usize,
    /// The one-tailed binomial sign test over non-tied pairs.
    pub test: BinomialTest,
    /// The matched pairs themselves (for downstream inspection/plots).
    pub pairs: Vec<MatchedPair>,
}

impl ExperimentOutcome {
    /// "% H holds" — percentage of (non-tied) pairs supporting the
    /// hypothesis.
    pub fn percent_holds(&self) -> f64 {
        self.test.share_percent()
    }

    /// Exact one-tailed p-value.
    pub fn p_value(&self) -> f64 {
        self.test.p_value
    }

    /// Fewer than [`MIN_TRIALS`] non-tied pairs, too few to support any
    /// significance claim: the experiment is "insufficient data",
    /// whatever its raw p-value.
    pub fn starved(&self) -> bool {
        self.test.trials < MIN_TRIALS
    }

    /// Statistically significant at α = 0.05 — and only when the
    /// minimum-trials guard is met ([`ExperimentOutcome::starved`]).
    pub fn significant(&self) -> bool {
        !self.starved() && self.test.significant()
    }

    /// Clears both the significance and practical-importance bars of §2.3
    /// (guarded by the same minimum-trials rule).
    pub fn conclusive(&self) -> bool {
        !self.starved() && self.test.conclusive()
    }

    /// Mean outcome difference (treatment − control) across pairs.
    pub fn mean_effect(&self) -> f64 {
        let sum: f64 = self
            .pairs
            .iter()
            .map(|p| p.treatment_outcome - p.control_outcome)
            .sum();
        sum / self.pairs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn units(outcomes: &[f64], base_id: u64) -> Vec<Unit> {
        outcomes
            .iter()
            .enumerate()
            .map(|(i, &o)| Unit::new(base_id + i as u64, vec![100.0], o))
            .collect()
    }

    #[test]
    fn clear_effect_is_detected() {
        // Treated outcomes uniformly higher: H should hold for all pairs.
        let control = units(&[1.0, 1.1, 0.9, 1.2, 1.0, 0.8, 1.3, 0.95], 0);
        let treatment = units(&[2.0, 2.1, 1.9, 2.2, 2.0, 1.8, 2.3, 1.95], 100);
        let exp = NaturalExperiment::new("capacity", vec![Caliper::PAPER]);
        let out = exp.run(&control, &treatment).unwrap();
        assert_eq!(out.n_pairs, 8);
        assert_eq!(out.percent_holds(), 100.0);
        assert!(out.significant());
        assert!(out.conclusive());
        assert!(out.mean_effect() > 0.9);
    }

    #[test]
    fn null_effect_is_not_significant() {
        // Same outcome distribution in both groups, alternating order.
        let control = units(&[1.0, 2.0, 1.0, 2.0, 1.0, 2.0], 0);
        let treatment = units(&[2.0, 1.0, 2.0, 1.0, 2.0, 1.0], 100);
        let exp = NaturalExperiment::new("noise", vec![Caliper::PAPER]);
        let out = exp.run(&control, &treatment).unwrap();
        assert!(!out.significant(), "p = {}", out.p_value());
    }

    #[test]
    fn direction_flips_result() {
        let control = units(&[2.0, 2.0, 2.0, 2.0], 0);
        let treatment = units(&[1.0, 1.0, 1.0, 1.0], 100);
        let higher = NaturalExperiment::new("h", vec![Caliper::PAPER]);
        let lower = higher.clone().with_direction(Direction::TreatmentLower);
        assert_eq!(
            higher.run(&control, &treatment).unwrap().percent_holds(),
            0.0
        );
        assert_eq!(
            lower.run(&control, &treatment).unwrap().percent_holds(),
            100.0
        );
    }

    #[test]
    fn ties_are_excluded() {
        let control = units(&[1.0, 1.0, 1.0], 0);
        let treatment = units(&[1.0, 2.0, 2.0], 100);
        let exp = NaturalExperiment::new("ties", vec![Caliper::PAPER]);
        let out = exp.run(&control, &treatment).unwrap();
        assert_eq!(out.n_ties, 1);
        assert_eq!(out.test.trials, 2);
        assert_eq!(out.percent_holds(), 100.0);
    }

    #[test]
    fn no_pairs_is_none() {
        let control = units(&[1.0], 0);
        let mut treatment = units(&[2.0], 100);
        treatment[0].covariates[0] = 500.0; // violates the caliper
        let exp = NaturalExperiment::new("empty", vec![Caliper::PAPER]);
        assert!(exp.run(&control, &treatment).is_none());
        assert!(exp.run(&[], &[]).is_none());
    }

    #[test]
    fn all_ties_is_none() {
        let control = units(&[1.0, 1.0], 0);
        let treatment = units(&[1.0, 1.0], 100);
        let exp = NaturalExperiment::new("all-ties", vec![Caliper::PAPER]);
        assert!(exp.run(&control, &treatment).is_none());
    }

    #[test]
    fn starved_experiment_cannot_be_significant() {
        // Five pairs, all in favour: raw binomial p ≈ 0.031 < 0.05 — but
        // five lucky pairs must read as "insufficient data", not a finding.
        let control = units(&[1.0, 1.1, 0.9, 1.2, 1.0], 0);
        let treatment = units(&[2.0, 2.1, 1.9, 2.2, 2.0], 100);
        let exp = NaturalExperiment::new("starved", vec![Caliper::PAPER]);
        let out = exp.run(&control, &treatment).unwrap();
        assert_eq!(out.percent_holds(), 100.0);
        assert!(out.test.p_value < 0.05, "raw p = {}", out.test.p_value);
        assert!(out.starved());
        assert!(!out.significant(), "guard must override the raw p-value");
        assert!(!out.conclusive());
    }

    #[test]
    fn run_audited_logs_full_provenance() {
        let control = units(&[1.0, 1.1, 0.9, 1.2], 0);
        let treatment = units(&[2.0, 2.1, 1.9, 2.2], 100);
        let exp = NaturalExperiment::new("capacity", vec![Caliper::PAPER]);
        let (outcome, audit) = exp.run_audited(&control, &treatment);
        let outcome = outcome.expect("experiment ran");
        assert_eq!(audit.pairs_formed as usize, outcome.n_pairs);

        let mut ledger = bb_trace::EventLog::new();
        exp.log_provenance(
            &mut ledger,
            "table2",
            &["capacity"],
            &audit,
            Some(&outcome),
            true,
        );
        let jsonl = ledger.to_jsonl();
        assert_eq!(ledger.len(), 2, "{jsonl}");
        let audit_line = jsonl.lines().next().unwrap();
        assert!(audit_line.contains("\"event\": \"match_audit\""), "{jsonl}");
        assert!(audit_line.contains("\"treated_considered\": 4"), "{jsonl}");
        assert!(audit_line.contains("\"pairs_formed\": 4"), "{jsonl}");
        assert!(
            audit_line.contains("\"caliper_rejections\": {\"capacity\": 0}"),
            "{jsonl}"
        );
        let test_line = jsonl.lines().nth(1).unwrap();
        assert!(test_line.contains("\"event\": \"sign_test\""), "{jsonl}");
        assert!(test_line.contains("\"n\": 4"), "{jsonl}");
        assert!(test_line.contains("\"positives\": 4"), "{jsonl}");
        assert!(test_line.contains("\"p_value\": 0.062"), "{jsonl}");
        assert!(
            test_line.contains("\"direction\": \"treatment_higher\""),
            "{jsonl}"
        );
    }

    #[test]
    fn audit_is_returned_even_when_nothing_matches() {
        let control = units(&[1.0], 0);
        let mut treatment = units(&[2.0], 100);
        treatment[0].covariates[0] = 500.0;
        let exp = NaturalExperiment::new("empty", vec![Caliper::PAPER]);
        let (outcome, audit) = exp.run_audited(&control, &treatment);
        assert!(outcome.is_none());
        assert_eq!(audit.treated_considered, 1);
        assert_eq!(audit.treated_unmatched, 1);
        assert_eq!(audit.caliper_rejections, vec![1]);
        // No sign_test event without an outcome; the audit still lands.
        let mut ledger = bb_trace::EventLog::new();
        exp.log_provenance(&mut ledger, "t", &["capacity"], &audit, None, false);
        assert_eq!(ledger.len(), 1);
    }

    #[test]
    fn table_style_fields() {
        // Mimic a Table 2 row: 59.9% of 1000 pairs in favour.
        let n = 1000;
        let control: Vec<Unit> = (0..n).map(|i| Unit::new(i, vec![100.0], 0.0)).collect();
        let treatment: Vec<Unit> = (0..n)
            .map(|i| {
                let outcome = if i < 599 { 1.0 } else { -1.0 };
                Unit::new(1000 + i, vec![100.0], outcome)
            })
            .collect();
        let exp = NaturalExperiment::new("t2", vec![Caliper::PAPER]);
        let out = exp.run(&control, &treatment).unwrap();
        assert!((out.percent_holds() - 59.9).abs() < 1e-9);
        assert!(out.p_value() < 1e-8);
        assert!(out.conclusive());
    }
}
