//! Nearest-neighbour matching with calipers.
//!
//! The paper "use\[s\] nearest neighbor matching to pair similar users in
//! 'control' and 'treatment' groups … with a caliper to ensure that
//! dissimilar users are not matched" (§3.2). We implement greedy 1:1
//! matching without replacement: treated units are processed in input
//! order, each taking the nearest eligible control; matched controls are
//! removed from the pool. The trade-off the paper notes — a tighter caliper
//! gives cleaner comparisons but fewer pairs — is directly observable by
//! varying the [`Caliper`]s (see the `ablate_caliper` bench), and the
//! audited entry point [`match_pairs_audited`] records it per run: how many
//! treated units were considered, how many candidate controls each caliper
//! rejected, and the distance distribution of the pairs that formed.
//!
//! **Tie-breaking is explicit**: when two eligible controls are exactly
//! equidistant from a treated unit, the one with the lower `id` wins, and
//! between equal ids the one earlier in the control pool. This makes the
//! matching — and therefore the provenance ledger — a pure function of the
//! unit *sets* wherever ids are unique, stable under control-pool
//! reordering.
//!
//! **Windowed scan.** The matcher sorts the control pool once by the first
//! covariate. A control can pass the first caliper `(r, floor)` against a
//! treated value `b` only if `|a − b| ≤ max(floor, r·|b|/(1 − r))`: when
//! `|a| ≤ |b|` the relative rule allows at most `r·|b|`, and when
//! `|a| > |b|` it allows `r·|a| ≤ r·(|b| + |a − b|)`, which solves to the
//! bound. Each treated unit therefore scores only the controls inside that
//! window, two binary searches wide, and counts every other untaken control
//! as a first-covariate rejection in bulk — exactly what the full scan
//! would have recorded for it. The bound is evaluated in floating point
//! with a rounding margin (`first_covariate_reach`, whose comment carries
//! the error analysis), so the window always contains every control the
//! full scan finds eligible; controls inside it are still scored exactly.
//! A relative width of 1 or more bounds nothing, and then the window is
//! the whole pool. Pairs and [`MatchAudit`] equal the full scan's, but the
//! cost falls from `O(treated × controls)` caliper evaluations to
//! `O(controls · log controls)` for the sort plus `O(log controls)` and
//! the window's width per treated unit.
use crate::caliper::Caliper;
use bb_trace::Log2Histogram;
use std::ops::Range;

/// One unit (user) entering an experiment: an opaque id, the covariates to
/// balance on, and the outcome to compare.
#[derive(Clone, Debug, PartialEq)]
pub struct Unit {
    /// Caller-meaningful identifier (propagated into matches).
    pub id: u64,
    /// Covariate vector; all units in one experiment must agree on length
    /// and ordering.
    pub covariates: Vec<f64>,
    /// Outcome value (a demand metric, in this study).
    pub outcome: f64,
}

impl Unit {
    /// Convenience constructor.
    pub fn new(id: u64, covariates: Vec<f64>, outcome: f64) -> Self {
        assert!(
            covariates.iter().all(|c| c.is_finite()),
            "covariates must be finite"
        );
        assert!(outcome.is_finite(), "outcome must be finite");
        Unit {
            id,
            covariates,
            outcome,
        }
    }
}

/// A matched control/treatment pair.
#[derive(Clone, Debug, PartialEq)]
pub struct MatchedPair {
    /// Id of the control unit.
    pub control_id: u64,
    /// Id of the treated unit.
    pub treatment_id: u64,
    /// Outcome of the control unit.
    pub control_outcome: f64,
    /// Outcome of the treated unit.
    pub treatment_outcome: f64,
    /// Normalised covariate distance of the pair (0 = identical).
    pub distance: f64,
}

/// Audit trail of one greedy matching run — the numbers an observational
/// study must be able to show for its matching to be trusted.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MatchAudit {
    /// Size of the control pool offered to the matcher.
    pub control_pool: u64,
    /// Treated units that entered the matcher.
    pub treated_considered: u64,
    /// Pairs that formed (≤ `treated_considered`).
    pub pairs_formed: u64,
    /// Treated units that found no eligible control.
    pub treated_unmatched: u64,
    /// Candidate (control, treated) evaluations that passed every caliper.
    pub candidates_eligible: u64,
    /// Candidate evaluations rejected, broken down by the index of the
    /// *first* covariate whose caliper fired (one slot per covariate).
    pub caliper_rejections: Vec<u64>,
    /// Log₂ histogram of accepted pair distances, base 10⁻³ — bucket `k`
    /// covers `(2^(k-1), 2^k]` thousandths of a caliper width. Exact-zero
    /// distances (identical covariates) land in `nonpositive`.
    pub pair_distance_log2: Log2Histogram,
}

/// Base for [`MatchAudit::pair_distance_log2`]: distances are measured in
/// caliper widths, so most land well below 1; a 10⁻³ base keeps the small
/// end resolved.
pub const PAIR_DISTANCE_HIST_BASE: f64 = 1e-3;

/// Greedily match treated units to their nearest eligible control.
///
/// `calipers` must have one entry per covariate. A control is *eligible*
/// for a treated unit when every covariate passes its caliper; among
/// eligible controls the one with the smallest normalised Euclidean
/// distance wins, and **exact distance ties go to the lower control
/// `id`** (then to the control earlier in the pool), so with unique ids
/// the result does not depend on control-pool order. Matching
/// is 1:1 without replacement, so
/// `pairs.len() ≤ min(control.len(), treatment.len())`.
///
/// # Panics
/// Panics when any unit's covariate count disagrees with `calipers.len()`.
pub fn match_pairs(control: &[Unit], treatment: &[Unit], calipers: &[Caliper]) -> Vec<MatchedPair> {
    match_pairs_audited(control, treatment, calipers).0
}

/// [`match_pairs`] plus a [`MatchAudit`] describing what the matcher saw:
/// treated units considered, per-covariate caliper rejections, and the
/// distance distribution of accepted pairs.
///
/// Scans only the first-covariate window of each treated unit (see the
/// module docs); the pairs and the audit are those of a scan of the whole
/// pool.
///
/// # Panics
/// Panics when any unit's covariate count disagrees with `calipers.len()`.
pub fn match_pairs_audited(
    control: &[Unit],
    treatment: &[Unit],
    calipers: &[Caliper],
) -> (Vec<MatchedPair>, MatchAudit) {
    for u in control.iter().chain(treatment) {
        assert_eq!(
            u.covariates.len(),
            calipers.len(),
            "unit {} has {} covariates but {} calipers were given",
            u.id,
            u.covariates.len(),
            calipers.len()
        );
    }

    let mut audit = MatchAudit {
        control_pool: control.len() as u64,
        treated_considered: treatment.len() as u64,
        caliper_rejections: vec![0; calipers.len()],
        ..MatchAudit::default()
    };
    // The pool by first covariate: finite values ascending (the window
    // runs over them), the rest scanned for every treated unit, since an
    // infinite control passes a relative caliper against any finite value.
    let mut sorted: Vec<(f64, usize)> = Vec::with_capacity(control.len());
    let mut unsorted: Vec<usize> = Vec::new();
    for (ci, c) in control.iter().enumerate() {
        match c.covariates.first() {
            Some(a) if !a.is_finite() => unsorted.push(ci),
            first => sorted.push((first.copied().unwrap_or(0.0), ci)),
        }
    }
    sorted.sort_unstable_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
    let mut taken = vec![false; control.len()];
    let mut untaken = control.len() as u64;
    let mut pairs = Vec::new();

    for t in treatment {
        let window = match (calipers.first(), t.covariates.first()) {
            (Some(cal), Some(&b)) => first_covariate_window(&sorted, b, cal),
            _ => 0..sorted.len(),
        };
        let mut pick = Pick::default();
        let mut scored = 0u64;
        let candidates = sorted[window]
            .iter()
            .map(|&(_, ci)| ci)
            .chain(unsorted.iter().copied());
        for ci in candidates {
            if taken[ci] {
                continue;
            }
            scored += 1;
            let c = &control[ci];
            match pair_distance_detailed(c, t, calipers) {
                Ok(d) => {
                    audit.candidates_eligible += 1;
                    pick.offer(ci, c.id, d);
                }
                Err(covariate) => audit.caliper_rejections[covariate] += 1,
            }
        }
        // Every untaken control outside the window fails the first
        // caliper, which is what the full scan records for it.
        if let Some(first) = audit.caliper_rejections.first_mut() {
            *first += untaken - scored;
        }
        if let Some((ci, d)) = pick.winner() {
            taken[ci] = true;
            untaken -= 1;
            audit.pairs_formed += 1;
            audit.pair_distance_log2.push(d, PAIR_DISTANCE_HIST_BASE);
            pairs.push(MatchedPair {
                control_id: control[ci].id,
                treatment_id: t.id,
                control_outcome: control[ci].outcome,
                treatment_outcome: t.outcome,
                distance: d,
            });
        } else {
            audit.treated_unmatched += 1;
        }
    }
    (pairs, audit)
}

/// The full scan: every treated unit scores every untaken control in pool
/// order. The oracle [`match_pairs_audited`]'s windowed scan is pinned
/// against.
#[cfg(test)]
fn match_pairs_reference(
    control: &[Unit],
    treatment: &[Unit],
    calipers: &[Caliper],
) -> (Vec<MatchedPair>, MatchAudit) {
    for u in control.iter().chain(treatment) {
        assert_eq!(
            u.covariates.len(),
            calipers.len(),
            "unit {} has {} covariates but {} calipers were given",
            u.id,
            u.covariates.len(),
            calipers.len()
        );
    }

    let mut audit = MatchAudit {
        control_pool: control.len() as u64,
        treated_considered: treatment.len() as u64,
        caliper_rejections: vec![0; calipers.len()],
        ..MatchAudit::default()
    };
    let mut taken = vec![false; control.len()];
    let mut pairs = Vec::new();

    for t in treatment {
        let mut best: Option<(usize, f64)> = None;
        for (ci, c) in control.iter().enumerate() {
            if taken[ci] {
                continue;
            }
            match pair_distance_detailed(c, t, calipers) {
                Ok(d) => {
                    audit.candidates_eligible += 1;
                    // Strictly nearer wins; on an exact tie the lower
                    // control id wins, making the outcome independent of
                    // control-pool order.
                    let better = match best {
                        None => true,
                        Some((bi, bd)) => d < bd || (d == bd && c.id < control[bi].id),
                    };
                    if better {
                        best = Some((ci, d));
                    }
                }
                Err(covariate) => audit.caliper_rejections[covariate] += 1,
            }
        }
        if let Some((ci, d)) = best {
            taken[ci] = true;
            audit.pairs_formed += 1;
            audit.pair_distance_log2.push(d, PAIR_DISTANCE_HIST_BASE);
            pairs.push(MatchedPair {
                control_id: control[ci].id,
                treatment_id: t.id,
                control_outcome: control[ci].outcome,
                treatment_outcome: t.outcome,
                distance: d,
            });
        } else {
            audit.treated_unmatched += 1;
        }
    }
    (pairs, audit)
}

/// The choice among one treated unit's eligible controls, offered in any
/// order, that a scan of the pool in pool order makes.
///
/// That scan keeps the first eligible control and replaces it only by a
/// strictly nearer one, or an equally near one with a lower id. So the
/// winner is the least `(distance, id, pool index)`; except that a NaN
/// distance (an infinite covariate against an infinite width) compares
/// false both ways, so if the first eligible control in pool order has one,
/// nothing ever replaces it, and no later NaN ever wins.
#[derive(Default)]
struct Pick {
    /// The eligible control earliest in the pool: `(pool index, distance)`.
    first: Option<(usize, f64)>,
    /// The least `(distance, id, pool index)` with a non-NaN distance.
    best: Option<(f64, u64, usize)>,
}

impl Pick {
    fn offer(&mut self, ci: usize, id: u64, d: f64) {
        let earlier = match self.first {
            Some((fi, _)) => ci < fi,
            None => true,
        };
        if earlier {
            self.first = Some((ci, d));
        }
        let better = match self.best {
            None => !d.is_nan(),
            Some((bd, bid, bci)) => d < bd || (d == bd && (id < bid || (id == bid && ci < bci))),
        };
        if better {
            self.best = Some((d, id, ci));
        }
    }

    fn winner(&self) -> Option<(usize, f64)> {
        match self.first {
            Some((ci, d)) if d.is_nan() => Some((ci, d)),
            _ => self.best.map(|(d, _, ci)| (ci, d)),
        }
    }
}

/// Positions of `sorted` (finite first covariates, ascending) whose value
/// `a` may pass `cal` against the treated value `b`: every `a` with
/// `|fl(a − b)|` within [`first_covariate_reach`], or all of them when that
/// bounds nothing. `fl(a − b)` never decreases as `a` grows, so the
/// positions are one contiguous run, found by two binary searches.
fn first_covariate_window(sorted: &[(f64, usize)], b: f64, cal: &Caliper) -> Range<usize> {
    match first_covariate_reach(b, cal) {
        Some(reach) => {
            let lo = sorted.partition_point(|&(a, _)| a - b < -reach);
            let hi = lo + sorted[lo..].partition_point(|&(a, _)| a - b <= reach);
            lo..hi
        }
        None => 0..sorted.len(),
    }
}

/// Slack subtracted from `1 − r`: `2^-50`.
const REACH_DENOMINATOR_SLACK: f64 = 1.0 / (1u64 << 50) as f64;
/// Relative widening of the reach: `2^-40`.
const REACH_RELATIVE_SLACK: f64 = 1.0 / (1u64 << 40) as f64;
/// Absolute widening of the reach, far above any subnormal error: `1e-300`.
const REACH_ABSOLUTE_SLACK: f64 = 1e-300;

/// An upper bound on the rounded difference `|fl(a − b)|` of every finite
/// `a` that passes `cal` against the finite value `b`, or `None` when
/// there is none to give (`b` not finite, or `r = cal.relative` outside
/// `[0, 1 − 2^-50)`).
///
/// In real arithmetic the bound is `max(floor, r·|b| / (1 − r))` (module
/// docs). In floating point, with `u = 2^-53` and `η = 2^-1075` (half the
/// least subnormal), let `D = |fl(a − b)|`. A subtraction is exact when its
/// result is subnormal, so `D ≥ |a − b|·(1 − u)`, and the relative test
/// `D ≤ fl(r·M)`, `M = max(|a|, |b|)`, gives `D ≤ r·M·(1 + u) + η`. With
/// `|a| ≤ |b| + D/(1 − u)` this solves, for `ρ = r(1 + u)/(1 − u) < 1`, to
/// `D ≤ B = (r(1 + u)·|b| + η) / (1 − ρ)`; the floor test gives `D ≤
/// floor`. The returned `max(floor, q)` covers both, because `q ≥ B`:
///
/// * `den = fl(fl(1 − r) − 2^-50) ≤ 1 − ρ`. For `r ≥ 1/2`, `1 − r` and then
///   `den` are exact (Sterbenz; both are multiples of `2^-53` below 1/2),
///   and `2^-50` exceeds `1 − ρ`'s shortfall `2ur/(1 − u) < 2^-52`. For
///   `r < 1/2` the two roundings add at most `2^-53` each and the shortfall
///   is below `2^-53`: together less than `2^-50`. A positive `den` is
///   also at least `2^-53`.
/// * `q = fl(fl(fl(r·|b|) / den)·(1 + 2^-40)) + 1e-300`, rounded. Its four
///   roundings lose a factor of at most `(1 − u)^4`, and `(1 − u)^4·(1 +
///   2^-40) > 1 + u` covers `B`'s numerator factor. Their subnormal errors,
///   scaled by `1/den ≤ 2^53`, and `η / (1 − ρ) ≤ 2^-1022` together stay
///   below `2^-1020`, which the `1e-300` term covers many times over.
///
/// An overflow to infinity only widens the window. The `a` that make
/// `fl(a − b)` infinite pass only an infinite floor, which the bound then
/// is.
fn first_covariate_reach(b: f64, cal: &Caliper) -> Option<f64> {
    let r = cal.relative;
    if !b.is_finite() || r.is_nan() || r < 0.0 {
        return None;
    }
    let den = (1.0 - r) - REACH_DENOMINATOR_SLACK;
    if den <= 0.0 {
        return None;
    }
    let q = r * b.abs() / den * (1.0 + REACH_RELATIVE_SLACK) + REACH_ABSOLUTE_SLACK;
    // `max` ignores a NaN floor, which passes nothing.
    Some(cal.absolute_floor.max(q))
}

/// Normalised distance between a control and a treated unit, or `None` when
/// any covariate violates its caliper.
///
/// Each per-covariate difference is divided by the caliper width at that
/// point, so a value of 1.0 means "exactly at the edge of similarity" for
/// that covariate regardless of its units.
pub fn pair_distance(control: &Unit, treatment: &Unit, calipers: &[Caliper]) -> Option<f64> {
    pair_distance_detailed(control, treatment, calipers).ok()
}

/// [`pair_distance`], but a caliper violation reports *which* covariate
/// fired: `Err(i)` is the index of the first covariate outside its
/// caliper. Feeds the per-covariate rejection counts in [`MatchAudit`].
pub fn pair_distance_detailed(
    control: &Unit,
    treatment: &Unit,
    calipers: &[Caliper],
) -> Result<f64, usize> {
    let mut sum_sq = 0.0;
    for (i, ((a, b), cal)) in control
        .covariates
        .iter()
        .zip(&treatment.covariates)
        .zip(calipers)
        .enumerate()
    {
        if !cal.within(*a, *b) {
            return Err(i);
        }
        let width = cal.width_at(a.abs().max(b.abs()));
        let norm = if width > 0.0 {
            (a - b).abs() / width
        } else {
            0.0
        };
        sum_sq += norm * norm;
    }
    Ok(sum_sq.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(id: u64, cov: &[f64], out: f64) -> Unit {
        Unit::new(id, cov.to_vec(), out)
    }

    fn paper_calipers(n: usize) -> Vec<Caliper> {
        vec![Caliper::PAPER; n]
    }

    /// The windowed scan and the full scan agree exactly: the same pairs,
    /// bit for bit, and the same audit.
    fn assert_matches_the_full_scan(control: &[Unit], treatment: &[Unit], calipers: &[Caliper]) {
        let (pairs, audit) = match_pairs_audited(control, treatment, calipers);
        let (want_pairs, want_audit) = match_pairs_reference(control, treatment, calipers);
        let bits = |pairs: &[MatchedPair]| -> Vec<(u64, u64, u64, u64, u64)> {
            pairs
                .iter()
                .map(|p| {
                    (
                        p.control_id,
                        p.treatment_id,
                        p.control_outcome.to_bits(),
                        p.treatment_outcome.to_bits(),
                        p.distance.to_bits(),
                    )
                })
                .collect()
        };
        let context =
            || format!("control {control:?}\ntreatment {treatment:?}\ncalipers {calipers:?}");
        assert_eq!(bits(&pairs), bits(&want_pairs), "pairs\n{}", context());
        assert_eq!(audit, want_audit, "audit\n{}", context());
    }

    /// A uniform index below `n`.
    fn pick(rng: &mut proptest::TestRng, n: usize) -> usize {
        (rng.next_u64() % n as u64) as usize
    }

    /// One covariate: mostly from a small set, so exact distance ties,
    /// duplicate units and values exactly on a caliper edge (3 and 4 or 12
    /// and 16 at 25 %, 0.5 and 1 at a floor of 0.5) occur; then zeros of
    /// both signs, negatives, non-finite values and the odd arbitrary one.
    fn covariate(rng: &mut proptest::TestRng) -> f64 {
        const VALUES: [f64; 14] = [
            -4.0, -3.0, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 8.0, 10.0, 12.0, 16.0,
        ];
        match pick(rng, 40) {
            0 => f64::INFINITY,
            1 => f64::NEG_INFINITY,
            2 => f64::NAN,
            3 => (pick(rng, 1 << 20) as f64 - (1 << 19) as f64) / 4096.0,
            k => VALUES[k % VALUES.len()],
        }
    }

    /// Up to `max_len - 1` units with ids from a small range, so duplicate
    /// ids are common, and distinct outcomes, so a different control with
    /// the same id shows in the pairs.
    fn units(rng: &mut proptest::TestRng, max_len: usize, n_cov: usize, base: f64) -> Vec<Unit> {
        (0..pick(rng, max_len))
            .map(|i| Unit {
                id: pick(rng, 6) as u64,
                covariates: (0..n_cov).map(|_| covariate(rng)).collect(),
                outcome: base + i as f64,
            })
            .collect()
    }

    proptest::proptest! {
        #[test]
        fn windowed_scan_equals_the_full_scan(seed in 0u64..u64::MAX) {
            const RELATIVE: [f64; 5] = [0.0, 0.25, 0.999, 1.0, 1.5];
            const FLOORS: [f64; 3] = [0.0, 0.5, 2.0];
            let rng = &mut proptest::TestRng::new(seed);
            for _ in 0..16 {
                let n_cov = pick(rng, 5);
                let calipers: Vec<Caliper> = (0..n_cov)
                    .map(|_| Caliper {
                        relative: RELATIVE[pick(rng, RELATIVE.len())],
                        absolute_floor: FLOORS[pick(rng, FLOORS.len())],
                    })
                    .collect();
                let control = units(rng, 25, n_cov, 0.0);
                let treatment = units(rng, 13, n_cov, 1000.0);
                assert_matches_the_full_scan(&control, &treatment, &calipers);
            }
        }
    }

    #[test]
    fn window_reaches_a_control_on_the_rounding_edge() {
        // At r = 0.999 the control 28999.99999999999 passes against 29:
        // |a − b| rounds to no more than fl(0.999·a). Yet r·|b|/(1 − r)
        // evaluated in floating point falls a few ulps short of that
        // difference, so a window without the rounding margin leaves the
        // control out.
        let cal = Caliper::relative(0.999);
        let (a, b) = (28999.99999999999, 29.0);
        assert!(cal.within(a, b));
        let unwidened = cal.relative * b / (1.0 - cal.relative);
        assert!((a - b) > unwidened, "{} vs {unwidened}", a - b);
        let control = vec![unit(1, &[a], 1.0)];
        let treatment = vec![unit(2, &[b], 2.0)];
        assert_matches_the_full_scan(&control, &treatment, &[cal]);
        assert_eq!(match_pairs(&control, &treatment, &[cal]).len(), 1);
    }

    #[test]
    fn equal_ids_at_equal_distance_go_to_the_earlier_control() {
        // Under a floor-dominated caliper, 0 and 2 are equally far from 1,
        // and both controls carry id 5: the full scan keeps the one that
        // comes first in the pool, although it sorts after the other.
        let cal = [Caliper {
            relative: 0.0,
            absolute_floor: 2.0,
        }];
        let control = vec![unit(5, &[2.0], 20.0), unit(5, &[0.0], 0.0)];
        let treatment = vec![unit(9, &[1.0], 1.0)];
        assert_matches_the_full_scan(&control, &treatment, &cal);
        let pairs = match_pairs(&control, &treatment, &cal);
        assert_eq!(pairs[0].control_outcome, 20.0);
    }

    #[test]
    fn nearest_eligible_control_wins() {
        let control = vec![
            unit(1, &[100.0], 1.0),
            unit(2, &[110.0], 2.0),
            unit(3, &[124.0], 3.0),
        ];
        let treatment = vec![unit(10, &[112.0], 9.0)];
        let pairs = match_pairs(&control, &treatment, &paper_calipers(1));
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].control_id, 2, "110 is nearest to 112");
        assert_eq!(pairs[0].treatment_id, 10);
    }

    #[test]
    fn caliper_excludes_dissimilar() {
        let control = vec![unit(1, &[10.0], 1.0)];
        let treatment = vec![unit(2, &[20.0], 2.0)];
        assert!(match_pairs(&control, &treatment, &paper_calipers(1)).is_empty());
    }

    #[test]
    fn matching_is_without_replacement() {
        let control = vec![unit(1, &[100.0], 1.0)];
        let treatment = vec![unit(10, &[100.0], 2.0), unit(11, &[100.0], 3.0)];
        let pairs = match_pairs(&control, &treatment, &paper_calipers(1));
        assert_eq!(pairs.len(), 1, "single control can only be used once");
    }

    #[test]
    fn pairs_are_disjoint() {
        let control: Vec<Unit> = (0..50).map(|i| unit(i, &[i as f64 + 100.0], 0.0)).collect();
        let treatment: Vec<Unit> = (0..50)
            .map(|i| unit(1000 + i, &[i as f64 + 101.0], 1.0))
            .collect();
        let pairs = match_pairs(&control, &treatment, &paper_calipers(1));
        let mut controls: Vec<u64> = pairs.iter().map(|p| p.control_id).collect();
        let mut treats: Vec<u64> = pairs.iter().map(|p| p.treatment_id).collect();
        controls.sort_unstable();
        controls.dedup();
        treats.sort_unstable();
        treats.dedup();
        assert_eq!(controls.len(), pairs.len());
        assert_eq!(treats.len(), pairs.len());
    }

    #[test]
    fn all_covariates_must_pass() {
        // Similar latency but very different price: no match.
        let calipers = paper_calipers(2);
        let control = vec![unit(1, &[50.0, 25.0], 1.0)];
        let treatment = vec![unit(2, &[55.0, 90.0], 2.0)];
        assert!(match_pairs(&control, &treatment, &calipers).is_empty());
        // Both similar: match.
        let treatment_ok = vec![unit(3, &[55.0, 28.0], 2.0)];
        assert_eq!(match_pairs(&control, &treatment_ok, &calipers).len(), 1);
    }

    #[test]
    fn distance_is_zero_for_identical_covariates() {
        let control = vec![unit(1, &[42.0, 7.0], 1.0)];
        let treatment = vec![unit(2, &[42.0, 7.0], 2.0)];
        let pairs = match_pairs(&control, &treatment, &paper_calipers(2));
        assert_eq!(pairs[0].distance, 0.0);
    }

    #[test]
    fn distance_normalisation_is_unitless() {
        // The same relative offset in two very different units should give
        // the same distance contribution.
        let cal = [Caliper::PAPER];
        let a = pair_distance(&unit(1, &[1000.0], 0.0), &unit(2, &[1100.0], 0.0), &cal).unwrap();
        let b = pair_distance(&unit(3, &[1.0], 0.0), &unit(4, &[1.1], 0.0), &cal).unwrap();
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn empty_groups_produce_no_pairs() {
        assert!(match_pairs(&[], &[], &paper_calipers(0)).is_empty());
        let t = vec![unit(1, &[1.0], 1.0)];
        assert!(match_pairs(&[], &t, &paper_calipers(1)).is_empty());
    }

    #[test]
    #[should_panic(expected = "covariates")]
    fn covariate_count_mismatch_panics() {
        let control = vec![unit(1, &[1.0, 2.0], 1.0)];
        let treatment = vec![unit(2, &[1.0], 2.0)];
        let _ = match_pairs(&control, &treatment, &paper_calipers(2));
    }

    #[test]
    fn equidistant_tie_goes_to_the_lower_control_id() {
        // Two controls with identical covariates: exactly equidistant,
        // and the higher id arrives first in the pool.
        let treatment = vec![unit(10, &[100.0], 9.0)];
        let control = vec![unit(7, &[102.0], 1.0), unit(3, &[102.0], 2.0)];
        let pairs = match_pairs(&control, &treatment, &paper_calipers(1));
        assert_eq!(pairs[0].control_id, 3, "lower id wins the tie");
    }

    #[test]
    fn matching_is_stable_under_control_pool_reordering() {
        // A pool full of duplicate covariates forces ties; the winner
        // must be the same whichever order the pool arrives in.
        let control: Vec<Unit> = [5u64, 2, 9, 4, 7, 11]
            .iter()
            .enumerate()
            .map(|(i, &id)| unit(id, &[100.0 + (i % 2) as f64], i as f64))
            .collect();
        let treatment: Vec<Unit> = (0..4).map(|i| unit(100 + i, &[100.5], 1.0)).collect();
        let mut reversed = control.clone();
        reversed.reverse();
        let forward = match_pairs(&control, &treatment, &paper_calipers(1));
        let backward = match_pairs(&reversed, &treatment, &paper_calipers(1));
        assert_eq!(forward, backward, "control order must not matter");
    }

    #[test]
    fn pair_distance_detailed_reports_the_violating_covariate() {
        let calipers = paper_calipers(3);
        let c = unit(1, &[100.0, 50.0, 10.0], 0.0);
        // Second covariate (index 1) is far outside 25%.
        let t = unit(2, &[101.0, 90.0, 11.0], 0.0);
        assert_eq!(pair_distance_detailed(&c, &t, &calipers), Err(1));
        // All within: Ok with a finite distance.
        let t_ok = unit(3, &[101.0, 51.0, 11.0], 0.0);
        assert!(pair_distance_detailed(&c, &t_ok, &calipers).is_ok());
    }

    #[test]
    fn audit_counts_add_up() {
        let control = vec![
            unit(1, &[100.0], 1.0),
            unit(2, &[103.0], 2.0),
            unit(3, &[500.0], 3.0), // outside every treated unit's caliper
        ];
        let treatment = vec![
            unit(10, &[101.0], 9.0),
            unit(11, &[102.0], 9.0),
            unit(12, &[2000.0], 9.0), // matches nothing
        ];
        let (pairs, audit) = match_pairs_audited(&control, &treatment, &paper_calipers(1));
        assert_eq!(audit.control_pool, 3);
        assert_eq!(audit.treated_considered, 3);
        assert_eq!(audit.pairs_formed, pairs.len() as u64);
        assert_eq!(audit.pairs_formed + audit.treated_unmatched, 3);
        assert_eq!(audit.caliper_rejections.len(), 1);
        assert!(audit.caliper_rejections[0] > 0, "{audit:?}");
        assert_eq!(audit.pair_distance_log2.count(), audit.pairs_formed);
        // Audited and plain entry points agree.
        assert_eq!(pairs, match_pairs(&control, &treatment, &paper_calipers(1)));
    }

    #[test]
    fn zero_distance_pairs_land_in_the_nonpositive_bucket() {
        let control = vec![unit(1, &[42.0], 1.0)];
        let treatment = vec![unit(2, &[42.0], 2.0)];
        let (_, audit) = match_pairs_audited(&control, &treatment, &paper_calipers(1));
        assert_eq!(audit.pair_distance_log2.nonpositive(), 1);
    }

    #[test]
    fn tighter_caliper_yields_fewer_pairs() {
        // Every treatment sits exactly 15% above its would-be control:
        // all pairs pass a 25% caliper, none pass a 10% caliper.
        let control: Vec<Unit> = (0..20)
            .map(|i| unit(i, &[100.0 + 3.0 * i as f64], 0.0))
            .collect();
        let treatment: Vec<Unit> = (0..20)
            .map(|i| unit(100 + i, &[(100.0 + 3.0 * i as f64) * 1.15], 1.0))
            .collect();
        let loose = match_pairs(&control, &treatment, &[Caliper::relative(0.25)]);
        let tight = match_pairs(&control, &treatment, &[Caliper::relative(0.10)]);
        assert!(
            loose.len() > tight.len(),
            "loose = {}, tight = {}",
            loose.len(),
            tight.len()
        );
    }
}
