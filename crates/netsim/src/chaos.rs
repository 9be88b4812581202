//! bb-chaos: deterministic, composable degradation scenarios.
//!
//! [`crate::AccessLink::degraded`] models *steady* impairments (added
//! latency and loss). Real collection pipelines die in messier ways:
//! clients crash and leave correlated multi-sample gaps, gateway reboots
//! zero cumulative counters, clock glitches skew poll timestamps,
//! transport hiccups duplicate or reorder polls, and active probes fail
//! outright. [`ChaosPlan`] models that family as a transform over the raw
//! poll sequence (plus an NDT failure rate), and [`ChaosScenario`] names
//! severity-parameterised presets for campaign sweeps.
//!
//! Determinism contract: every knob at zero draws **nothing** from the
//! RNG and records **nothing** in the registry, so a `ChaosPlan::NONE`
//! (equivalently any scenario at severity 0) is a bit-exact identity on
//! the pipeline. Non-trivial plans must be driven by a *dedicated*
//! counter-mode RNG stream (see `bb_dataset`'s `CHAOS_STREAM`) so the
//! main per-user streams are untouched and campaigns are bit-reproducible
//! under any shard/thread plan.

use bb_trace::Registry;
use rand::Rng;

/// One raw counter poll: `(slot index, down reading, up reading,
/// cumulative detected-cross estimate)`. The same shape
/// `UsageSeries::poll_counters` leaves in its scratch.
pub type RawPoll = (usize, u64, u64, f64);

/// A composable degradation plan over the collection pipeline.
///
/// All probabilities are per-poll (or per-probe-run) and must be finite
/// values in `[0, 1]`; construct via [`ChaosScenario::plan`] or validate
/// with [`ChaosPlan::validated`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChaosPlan {
    /// Probability that a burst outage *starts* at any given poll,
    /// erasing [`ChaosPlan::burst_len_polls`] consecutive polls
    /// (correlated gap — the client crashed or lost connectivity).
    pub burst_start_prob: f64,
    /// Length of each burst outage, in polls.
    pub burst_len_polls: u32,
    /// Maximum timestamp skew, in slots: each poll's slot index is
    /// perturbed by a uniform offset in `[-skew, +skew]` (clock drift,
    /// NTP steps). Skew can create duplicate or out-of-order timestamps.
    pub skew_max_slots: u32,
    /// Probability that the gateway reboots at any given poll, zeroing
    /// the cumulative counters from that poll onward (reset storm).
    pub reset_prob: f64,
    /// Probability that any given poll is delivered twice.
    pub duplicate_prob: f64,
    /// Probability that a poll is swapped with its successor in the
    /// delivered sequence.
    pub reorder_prob: f64,
    /// Probability that any single NDT probe run fails. When every run
    /// of a probe session fails the user has no capacity measurement at
    /// all (a probe blackout) and the record is quarantined downstream.
    pub probe_failure_prob: f64,
}

impl ChaosPlan {
    /// No degradation: a bit-exact identity that draws no randomness.
    pub const NONE: ChaosPlan = ChaosPlan {
        burst_start_prob: 0.0,
        burst_len_polls: 0,
        skew_max_slots: 0,
        reset_prob: 0.0,
        duplicate_prob: 0.0,
        reorder_prob: 0.0,
        probe_failure_prob: 0.0,
    };

    /// True when every knob is zero (the plan is an exact identity).
    pub fn is_none(&self) -> bool {
        *self == ChaosPlan::NONE
    }

    /// Validate every knob, panicking loudly on a malformed plan, so a
    /// mis-computed probability fails at construction instead of silently
    /// eating a series.
    ///
    /// # Panics
    /// Panics when any probability is non-finite or outside `[0, 1]`, or
    /// when `burst_start_prob > 0` with a zero `burst_len_polls`.
    pub fn validated(self) -> Self {
        for (name, p) in [
            ("burst_start_prob", self.burst_start_prob),
            ("reset_prob", self.reset_prob),
            ("duplicate_prob", self.duplicate_prob),
            ("reorder_prob", self.reorder_prob),
            ("probe_failure_prob", self.probe_failure_prob),
        ] {
            assert!(
                p.is_finite() && (0.0..=1.0).contains(&p),
                "{name} must be a probability in [0, 1], got {p}"
            );
        }
        assert!(
            self.burst_start_prob == 0.0 || self.burst_len_polls > 0,
            "burst_start_prob > 0 requires burst_len_polls > 0"
        );
        self
    }

    /// Degrade a raw poll sequence in place. Applied between polling and
    /// delta reconstruction; the reconstruction layer is hardened to
    /// survive (and count) whatever comes out of here.
    ///
    /// Mechanisms fire in a fixed order — bursts, resets, skew,
    /// duplication, reordering — each drawing from `rng` only when its
    /// knob is non-zero, so [`ChaosPlan::NONE`] consumes zero draws and
    /// leaves both `polls` and `reg` untouched.
    ///
    /// The reset and duplication passes draw exactly one uniform per
    /// poll, so they fill `uniforms` (a buffer reused across calls) with
    /// [`rand::RngCore::fill_standard_f64`], which consumes the stream as
    /// the same sequential draws. Bursts and reordering skip polls after
    /// a hit, so their draw counts depend on the data and they draw one
    /// at a time. The result, the registry and the words drawn are those
    /// of the one-poll-at-a-time passes (kept as the test oracle
    /// `apply_to_polls_reference`).
    pub fn apply_to_polls<R: Rng + ?Sized>(
        &self,
        polls: &mut Vec<RawPoll>,
        uniforms: &mut Vec<f64>,
        rng: &mut R,
        reg: &mut Registry,
    ) {
        if self.is_none() {
            return;
        }
        let mut bursts = 0u64;
        let mut burst_dropped = 0u64;
        let mut resets = 0u64;
        let mut skewed = 0u64;
        let mut duplicated = 0u64;
        let mut reordered = 0u64;

        // Burst outages: the client goes dark for a run of polls. The
        // kept polls move down over the dropped ones.
        if self.burst_start_prob > 0.0 {
            let mut kept = 0;
            let mut remaining = 0u32;
            for i in 0..polls.len() {
                if remaining > 0 {
                    remaining -= 1;
                    burst_dropped += 1;
                    continue;
                }
                if rng.gen::<f64>() < self.burst_start_prob {
                    bursts += 1;
                    burst_dropped += 1;
                    remaining = self.burst_len_polls.saturating_sub(1);
                    continue;
                }
                polls[kept] = polls[i];
                kept += 1;
            }
            polls.truncate(kept);
        }

        // Reset storm: a reboot zeroes the cumulative registers, so every
        // reading from the reset poll onward is re-based on the value at
        // the reboot. The detected-cross estimate is client-side state
        // and survives gateway reboots, so it is left alone.
        if self.reset_prob > 0.0 {
            let mut off_down = 0u64;
            let mut off_up = 0u64;
            let u = fill_uniforms(uniforms, polls.len(), rng);
            for (p, &u) in polls.iter_mut().zip(u) {
                if u < self.reset_prob {
                    off_down = p.1;
                    off_up = p.2;
                    resets += 1;
                }
                p.1 = p.1.saturating_sub(off_down);
                p.2 = p.2.saturating_sub(off_up);
            }
        }

        // Clock skew: perturb each poll's slot index. Offsets can push a
        // timestamp past a neighbour (out-of-order), onto a neighbour
        // (duplicate slot) or past the end of the window. A zero offset
        // leaves the index as it is, so the update needs no branch.
        if self.skew_max_slots > 0 {
            let s = self.skew_max_slots as i64;
            for p in polls.iter_mut() {
                let off = rng.gen_range(-s..=s);
                skewed += (off != 0) as u64;
                p.0 = p.0.saturating_add_signed(off as isize);
            }
        }

        // Duplicate delivery: count the duplicates, grow the buffer by
        // that many, and fill it from the back. Each poll is written
        // twice; without a duplicate the second write lands on the first.
        if self.duplicate_prob > 0.0 {
            let n = polls.len();
            let u = fill_uniforms(uniforms, n, rng);
            duplicated = u.iter().filter(|&&u| u < self.duplicate_prob).count() as u64;
            polls.resize(n + duplicated as usize, (0, 0, 0, 0.0));
            let mut w = polls.len();
            for i in (0..n).rev() {
                let p = polls[i];
                polls[w - 1] = p;
                w -= (u[i] < self.duplicate_prob) as usize;
                polls[w - 1] = p;
                w -= 1;
            }
        }

        // Reordered delivery: swap a poll with its successor. Swapped
        // pairs are skipped so one draw never cascades down the vector.
        if self.reorder_prob > 0.0 && polls.len() >= 2 {
            let mut i = 0;
            while i + 1 < polls.len() {
                if rng.gen::<f64>() < self.reorder_prob {
                    polls.swap(i, i + 1);
                    reordered += 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
        }

        reg.add("netsim.chaos.bursts", bursts);
        reg.add("netsim.chaos.burst_dropped_polls", burst_dropped);
        reg.add("netsim.chaos.resets_injected", resets);
        reg.add("netsim.chaos.polls_skewed", skewed);
        reg.add("netsim.chaos.polls_duplicated", duplicated);
        reg.add("netsim.chaos.polls_reordered", reordered);
    }

    /// The one-poll-at-a-time passes, kept verbatim as the oracle
    /// [`ChaosPlan::apply_to_polls`] is pinned against.
    #[cfg(test)]
    pub(crate) fn apply_to_polls_reference<R: Rng + ?Sized>(
        &self,
        mut polls: Vec<RawPoll>,
        rng: &mut R,
        reg: &mut Registry,
    ) -> Vec<RawPoll> {
        if self.is_none() {
            return polls;
        }
        let mut bursts = 0u64;
        let mut burst_dropped = 0u64;
        let mut resets = 0u64;
        let mut skewed = 0u64;
        let mut duplicated = 0u64;
        let mut reordered = 0u64;

        // Burst outages: the client goes dark for a run of polls.
        if self.burst_start_prob > 0.0 {
            let mut kept = Vec::with_capacity(polls.len());
            let mut remaining = 0u32;
            for p in polls {
                if remaining > 0 {
                    remaining -= 1;
                    burst_dropped += 1;
                    continue;
                }
                if rng.gen::<f64>() < self.burst_start_prob {
                    bursts += 1;
                    burst_dropped += 1;
                    remaining = self.burst_len_polls.saturating_sub(1);
                    continue;
                }
                kept.push(p);
            }
            polls = kept;
        }

        // Reset storm: a reboot zeroes the cumulative registers, so every
        // reading from the reset poll onward is re-based on the value at
        // the reboot. The detected-cross estimate is client-side state
        // and survives gateway reboots, so it is left alone.
        if self.reset_prob > 0.0 {
            let mut off_down = 0u64;
            let mut off_up = 0u64;
            for p in polls.iter_mut() {
                if rng.gen::<f64>() < self.reset_prob {
                    off_down = p.1;
                    off_up = p.2;
                    resets += 1;
                }
                p.1 = p.1.saturating_sub(off_down);
                p.2 = p.2.saturating_sub(off_up);
            }
        }

        // Clock skew: perturb each poll's slot index. Offsets can push a
        // timestamp past a neighbour (out-of-order), onto a neighbour
        // (duplicate slot) or past the end of the window.
        if self.skew_max_slots > 0 {
            let s = self.skew_max_slots as i64;
            for p in polls.iter_mut() {
                let off = rng.gen_range(-s..=s);
                if off != 0 {
                    skewed += 1;
                    p.0 = (p.0 as i64 + off).max(0) as usize;
                }
            }
        }

        // Duplicate delivery.
        if self.duplicate_prob > 0.0 {
            let mut out = Vec::with_capacity(polls.len());
            for p in polls {
                out.push(p);
                if rng.gen::<f64>() < self.duplicate_prob {
                    duplicated += 1;
                    out.push(p);
                }
            }
            polls = out;
        }

        // Reordered delivery: swap a poll with its successor. Swapped
        // pairs are skipped so one draw never cascades down the vector.
        if self.reorder_prob > 0.0 && polls.len() >= 2 {
            let mut i = 0;
            while i + 1 < polls.len() {
                if rng.gen::<f64>() < self.reorder_prob {
                    polls.swap(i, i + 1);
                    reordered += 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
        }

        reg.add("netsim.chaos.bursts", bursts);
        reg.add("netsim.chaos.burst_dropped_polls", burst_dropped);
        reg.add("netsim.chaos.resets_injected", resets);
        reg.add("netsim.chaos.polls_skewed", skewed);
        reg.add("netsim.chaos.polls_duplicated", duplicated);
        reg.add("netsim.chaos.polls_reordered", reordered);
        polls
    }
}

/// `n` standard uniforms from `rng` in `uniforms[..n]`, drawn as `n`
/// sequential draws would be. The buffer only ever grows.
fn fill_uniforms<'a, R: Rng + ?Sized>(
    uniforms: &'a mut Vec<f64>,
    n: usize,
    rng: &mut R,
) -> &'a [f64] {
    if uniforms.len() < n {
        uniforms.resize(n, 0.0);
    }
    let u = &mut uniforms[..n];
    rng.fill_standard_f64(u);
    u
}

/// A named, severity-parameterised degradation scenario.
///
/// Each scenario maps a severity `s ∈ [0, 1]` to a [`ChaosPlan`];
/// severity 0 is always [`ChaosPlan::NONE`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosScenario {
    /// Correlated multi-poll outages (client crashes).
    BurstOutage,
    /// Clock skew/drift on poll timestamps.
    ClockSkew,
    /// Gateway reboots zeroing the cumulative counters.
    ResetStorm,
    /// Duplicated and reordered poll delivery.
    PollChurn,
    /// NDT probe failures, up to total capacity-measurement blackout.
    ProbeBlackout,
    /// Targeted degradation of one country's collection (US), leaving
    /// the rest of the population clean.
    TargetedUs,
    /// Everything at once, at moderated levels.
    Omnibus,
}

impl ChaosScenario {
    /// Every scenario, in rendering order.
    pub const ALL: [ChaosScenario; 7] = [
        ChaosScenario::BurstOutage,
        ChaosScenario::ClockSkew,
        ChaosScenario::ResetStorm,
        ChaosScenario::PollChurn,
        ChaosScenario::ProbeBlackout,
        ChaosScenario::TargetedUs,
        ChaosScenario::Omnibus,
    ];

    /// CLI name of the scenario.
    pub fn name(&self) -> &'static str {
        match self {
            ChaosScenario::BurstOutage => "burst-outage",
            ChaosScenario::ClockSkew => "clock-skew",
            ChaosScenario::ResetStorm => "reset-storm",
            ChaosScenario::PollChurn => "poll-churn",
            ChaosScenario::ProbeBlackout => "probe-blackout",
            ChaosScenario::TargetedUs => "targeted-us",
            ChaosScenario::Omnibus => "omnibus",
        }
    }

    /// Parse a CLI name; `None` for unknown scenarios.
    pub fn parse(name: &str) -> Option<ChaosScenario> {
        ChaosScenario::ALL.into_iter().find(|s| s.name() == name)
    }

    /// The countries this scenario degrades; `None` means everyone.
    fn target(&self) -> Option<&'static str> {
        match self {
            ChaosScenario::TargetedUs => Some("US"),
            _ => None,
        }
    }

    /// Whether the scenario degrades users in `country` (ISO code).
    pub fn applies_to(&self, country: &str) -> bool {
        self.target().is_none_or(|t| t == country)
    }

    /// The plan at severity `s ∈ [0, 1]`. Severity 0 is always the exact
    /// identity [`ChaosPlan::NONE`].
    ///
    /// # Panics
    /// Panics when `s` is non-finite or outside `[0, 1]`.
    pub fn plan(&self, s: f64) -> ChaosPlan {
        assert!(
            s.is_finite() && (0.0..=1.0).contains(&s),
            "severity must be in [0, 1], got {s}"
        );
        if s == 0.0 {
            return ChaosPlan::NONE;
        }
        let plan = match self {
            ChaosScenario::BurstOutage => ChaosPlan {
                burst_start_prob: 0.04 * s,
                burst_len_polls: 3 + (9.0 * s).round() as u32,
                ..ChaosPlan::NONE
            },
            ChaosScenario::ClockSkew => ChaosPlan {
                skew_max_slots: (3.0 * s).ceil() as u32,
                ..ChaosPlan::NONE
            },
            ChaosScenario::ResetStorm => ChaosPlan {
                reset_prob: 0.05 * s,
                ..ChaosPlan::NONE
            },
            ChaosScenario::PollChurn => ChaosPlan {
                duplicate_prob: 0.20 * s,
                reorder_prob: 0.15 * s,
                ..ChaosPlan::NONE
            },
            ChaosScenario::ProbeBlackout => ChaosPlan {
                probe_failure_prob: 0.85 * s,
                ..ChaosPlan::NONE
            },
            // Targeted: an omnibus-grade hit, but `applies_to` restricts
            // it to US users (hits the FCC cohort and the US side of the
            // India-vs-US comparison while the rest stay clean).
            ChaosScenario::TargetedUs | ChaosScenario::Omnibus => ChaosPlan {
                burst_start_prob: 0.02 * s,
                burst_len_polls: 3 + (6.0 * s).round() as u32,
                skew_max_slots: (2.0 * s).ceil() as u32,
                reset_prob: 0.02 * s,
                duplicate_prob: 0.10 * s,
                reorder_prob: 0.05 * s,
                probe_failure_prob: 0.40 * s,
            },
        };
        plan.validated()
    }
}

/// A scenario pinned at one severity: what a chaos run threads through
/// the world generator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChaosSpec {
    /// The scenario family.
    pub scenario: ChaosScenario,
    /// Severity in `[0, 1]`.
    pub severity: f64,
}

impl ChaosSpec {
    /// The severity a campaign runs at when the request names none.
    pub const DEFAULT_SEVERITY: f64 = 0.5;

    /// Validate a requested campaign: a scenario name plus an optional
    /// severity (default [`ChaosSpec::DEFAULT_SEVERITY`]). No scenario
    /// means clean collection, and a severity without a scenario is an
    /// error rather than a silently clean run. The command line, the
    /// HTTP job body and the federation wire job all go through this one
    /// check, so they accept and reject the same campaigns.
    pub fn parse(scenario: Option<&str>, severity: Option<f64>) -> Result<Option<Self>, String> {
        let Some(name) = scenario else {
            return match severity {
                Some(_) => Err("a severity requires a chaos scenario".into()),
                None => Ok(None),
            };
        };
        let scenario = ChaosScenario::parse(name).ok_or_else(|| {
            let known: Vec<&str> = ChaosScenario::ALL.iter().map(|s| s.name()).collect();
            format!("unknown scenario {name:?}; one of {}", known.join(", "))
        })?;
        let severity = severity.unwrap_or(Self::DEFAULT_SEVERITY);
        if !severity.is_finite() || !(0.0..=1.0).contains(&severity) {
            return Err(format!("severity must be in [0, 1], got {severity}"));
        }
        Ok(Some(ChaosSpec { scenario, severity }))
    }

    /// Build a spec, validating the severity.
    ///
    /// # Panics
    /// Panics when `severity` is non-finite or outside `[0, 1]`.
    pub fn new(scenario: ChaosScenario, severity: f64) -> Self {
        assert!(
            severity.is_finite() && (0.0..=1.0).contains(&severity),
            "severity must be in [0, 1], got {severity}"
        );
        ChaosSpec { scenario, severity }
    }

    /// The effective plan for a user in `country`: the scenario plan, or
    /// [`ChaosPlan::NONE`] when the scenario does not target them.
    pub fn plan_for(&self, country: &str) -> ChaosPlan {
        if self.scenario.applies_to(country) {
            self.scenario.plan(self.severity)
        } else {
            ChaosPlan::NONE
        }
    }

    /// A stable `scenario@severity` label for ledgers and checkpoint
    /// parameter pinning.
    pub fn label(&self) -> String {
        format!("{}@{}", self.scenario.name(), self.severity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn polls(n: usize) -> Vec<RawPoll> {
        (0..n)
            .map(|i| (i * 2, (i as u64) * 1000, (i as u64) * 100, i as f64))
            .collect()
    }

    /// `polls` degraded by `plan`, with a fresh uniform buffer.
    fn degraded(
        plan: &ChaosPlan,
        mut polls: Vec<RawPoll>,
        rng: &mut ChaCha8Rng,
        reg: &mut Registry,
    ) -> Vec<RawPoll> {
        plan.apply_to_polls(&mut polls, &mut Vec::new(), rng, reg);
        polls
    }

    #[test]
    fn none_plan_is_identity_and_draws_nothing() {
        let p = polls(50);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut reg = Registry::new();
        let out = degraded(&ChaosPlan::NONE, p.clone(), &mut rng, &mut reg);
        assert_eq!(out, p);
        assert_eq!(reg.to_json(), Registry::new().to_json(), "no counters");
        // Zero draws: the RNG is still at its initial state.
        let mut fresh = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(rng.gen::<u64>(), fresh.gen::<u64>());
    }

    #[test]
    fn severity_zero_is_none_for_every_scenario() {
        for sc in ChaosScenario::ALL {
            assert_eq!(sc.plan(0.0), ChaosPlan::NONE, "{}", sc.name());
        }
    }

    #[test]
    fn scenario_names_round_trip() {
        for sc in ChaosScenario::ALL {
            assert_eq!(ChaosScenario::parse(sc.name()), Some(sc));
        }
        assert_eq!(ChaosScenario::parse("nope"), None);
    }

    #[test]
    #[should_panic(expected = "severity must be in [0, 1]")]
    fn severity_above_one_rejected() {
        let _ = ChaosScenario::Omnibus.plan(1.5);
    }

    #[test]
    #[should_panic(expected = "severity must be in [0, 1]")]
    fn non_finite_severity_rejected() {
        let _ = ChaosSpec::new(ChaosScenario::Omnibus, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "probability in [0, 1]")]
    fn malformed_plan_rejected() {
        let _ = ChaosPlan {
            reset_prob: f64::NAN,
            ..ChaosPlan::NONE
        }
        .validated();
    }

    #[test]
    fn in_place_passes_match_the_one_poll_at_a_time_oracle() {
        // Each knob alone (at a middling value and at its extreme), then
        // every scenario's plan over the severity grid.
        let mut plans: Vec<(String, ChaosPlan)> = [
            (
                "burst",
                ChaosPlan {
                    burst_start_prob: 0.3,
                    burst_len_polls: 4,
                    ..ChaosPlan::NONE
                },
            ),
            (
                "burst-all",
                ChaosPlan {
                    burst_start_prob: 1.0,
                    burst_len_polls: 1,
                    ..ChaosPlan::NONE
                },
            ),
            (
                "skew",
                ChaosPlan {
                    skew_max_slots: 2,
                    ..ChaosPlan::NONE
                },
            ),
            (
                "reset",
                ChaosPlan {
                    reset_prob: 0.3,
                    ..ChaosPlan::NONE
                },
            ),
            (
                "reset-all",
                ChaosPlan {
                    reset_prob: 1.0,
                    ..ChaosPlan::NONE
                },
            ),
            (
                "duplicate",
                ChaosPlan {
                    duplicate_prob: 0.3,
                    ..ChaosPlan::NONE
                },
            ),
            (
                "duplicate-all",
                ChaosPlan {
                    duplicate_prob: 1.0,
                    ..ChaosPlan::NONE
                },
            ),
            (
                "reorder",
                ChaosPlan {
                    reorder_prob: 0.3,
                    ..ChaosPlan::NONE
                },
            ),
            (
                "reorder-all",
                ChaosPlan {
                    reorder_prob: 1.0,
                    ..ChaosPlan::NONE
                },
            ),
            (
                "probe",
                ChaosPlan {
                    probe_failure_prob: 0.5,
                    ..ChaosPlan::NONE
                },
            ),
        ]
        .map(|(name, plan)| (name.to_string(), plan.validated()))
        .into();
        for sc in ChaosScenario::ALL {
            for s in [0.25, 0.5, 0.75, 1.0] {
                plans.push((format!("{}@{s}", sc.name()), sc.plan(s)));
            }
        }
        // One poll and one uniform buffer across every case, both left
        // holding stale values by the previous one.
        let mut got = Vec::new();
        let mut uniforms = vec![0.5; 7];
        for (name, plan) in &plans {
            for n in [0, 1, 2, 2880] {
                for seed in [3u64, 4] {
                    let mut rng_ref = ChaCha8Rng::seed_from_u64(seed);
                    let mut reg_ref = Registry::new();
                    let expect =
                        plan.apply_to_polls_reference(polls(n), &mut rng_ref, &mut reg_ref);
                    let mut rng = ChaCha8Rng::seed_from_u64(seed);
                    let mut reg = Registry::new();
                    got.clear();
                    got.extend(polls(n));
                    plan.apply_to_polls(&mut got, &mut uniforms, &mut rng, &mut reg);
                    let case = format!("{name}, {n} polls, seed {seed}");
                    assert_eq!(got, expect, "polls, {case}");
                    assert_eq!(reg.to_json(), reg_ref.to_json(), "registry, {case}");
                    assert_eq!(rng.gen::<u64>(), rng_ref.gen::<u64>(), "next draw, {case}");
                }
            }
        }
    }

    #[test]
    fn bursts_drop_runs_of_polls() {
        let plan = ChaosScenario::BurstOutage.plan(1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut reg = Registry::new();
        let out = degraded(&plan, polls(2000), &mut rng, &mut reg);
        assert!(out.len() < 2000);
        assert!(reg.counter("netsim.chaos.bursts") > 0);
        assert_eq!(
            out.len() as u64 + reg.counter("netsim.chaos.burst_dropped_polls"),
            2000
        );
    }

    #[test]
    fn resets_rebase_readings() {
        let plan = ChaosPlan {
            reset_prob: 1.0, // reboot at every poll
            ..ChaosPlan::NONE
        };
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut reg = Registry::new();
        let out = degraded(&plan, polls(10), &mut rng, &mut reg);
        assert_eq!(reg.counter("netsim.chaos.resets_injected"), 10);
        // Every poll re-bases on itself: readings are all zero.
        assert!(out.iter().all(|p| p.1 == 0 && p.2 == 0));
    }

    #[test]
    fn churn_duplicates_and_reorders() {
        let plan = ChaosScenario::PollChurn.plan(1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut reg = Registry::new();
        let out = degraded(&plan, polls(1000), &mut rng, &mut reg);
        assert!(out.len() > 1000, "duplicates grow the sequence");
        assert!(reg.counter("netsim.chaos.polls_duplicated") > 0);
        assert!(reg.counter("netsim.chaos.polls_reordered") > 0);
        assert!(
            out.windows(2).any(|w| w[1].0 < w[0].0),
            "reordering must produce out-of-order timestamps"
        );
    }

    #[test]
    fn skew_perturbs_slots_within_bound() {
        let plan = ChaosScenario::ClockSkew.plan(1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let mut reg = Registry::new();
        let input = polls(500);
        let out = degraded(&plan, input.clone(), &mut rng, &mut reg);
        assert_eq!(out.len(), input.len());
        for (a, b) in input.iter().zip(&out) {
            let diff = (a.0 as i64 - b.0 as i64).abs();
            assert!(diff <= plan.skew_max_slots as i64, "skew {diff}");
        }
        assert!(reg.counter("netsim.chaos.polls_skewed") > 0);
    }

    #[test]
    fn targeted_scenario_spares_other_countries() {
        let spec = ChaosSpec::new(ChaosScenario::TargetedUs, 0.8);
        assert_eq!(spec.plan_for("JP"), ChaosPlan::NONE);
        assert_ne!(spec.plan_for("US"), ChaosPlan::NONE);
        let omni = ChaosSpec::new(ChaosScenario::Omnibus, 0.8);
        assert_ne!(omni.plan_for("JP"), ChaosPlan::NONE);
    }

    #[test]
    fn parse_validates_the_pair() {
        assert_eq!(ChaosSpec::parse(None, None), Ok(None));
        assert_eq!(
            ChaosSpec::parse(Some("omnibus"), None),
            Ok(Some(ChaosSpec::new(ChaosScenario::Omnibus, 0.5)))
        );
        assert_eq!(
            ChaosSpec::parse(Some("reset-storm"), Some(0.0)),
            Ok(Some(ChaosSpec::new(ChaosScenario::ResetStorm, 0.0)))
        );
        for (scenario, severity) in [
            (None, Some(0.5)),
            (Some("nope"), None),
            (Some("omnibus"), Some(1.5)),
            (Some("omnibus"), Some(-0.1)),
            (Some("omnibus"), Some(f64::NAN)),
            (Some("omnibus"), Some(f64::INFINITY)),
        ] {
            assert!(
                ChaosSpec::parse(scenario, severity).is_err(),
                "{scenario:?} @ {severity:?}"
            );
        }
    }

    #[test]
    fn label_is_stable() {
        assert_eq!(
            ChaosSpec::new(ChaosScenario::Omnibus, 0.25).label(),
            "omnibus@0.25"
        );
    }
}
