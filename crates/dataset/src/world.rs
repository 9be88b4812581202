//! World generation: from country profiles to a complete [`Dataset`].

use crate::agent::{choose_plan, Agent, AgentSampler};
use crate::country::{builtin_world, CountryProfile, APPETITE_GROWTH_PER_YEAR};
use crate::quality::{self, DataQuality};
use crate::record::{Dataset, UpgradeObservation, UpgradeSnapshot, UserRecord, VantageKind};
use bb_engine::{run_sharded, stream_rng, CheckpointParams, Mergeable, RunStats, ShardPlan};
use bb_market::{MarketSurvey, Plan, PlanCatalog};
use bb_netsim::chaos::{ChaosPlan, ChaosSpec, RawPoll};
use bb_netsim::collect::{
    CollectScratch, CounterPolling, CounterSource, SeriesSummary, UsageSeries,
};
use bb_netsim::link::AccessLink;
use bb_netsim::probe::{web_latency, NdtProbe};
use bb_netsim::workload::{simulate_user_into, GroundTruth, UserWorkload};
use bb_stats::dist::LogNormal;
use bb_trace::Registry;
use bb_types::{Country, Latency, LossRate, NetworkId, TimeAxis, UserId, Year};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::ops::Range;

/// Stream id of the per-user RNG streams (market instantiation draws from
/// the sequential master RNG instead; see [`World::population`]).
const USER_STREAM: u64 = 1;

/// Stream id of the per-user *chaos* RNG streams. Fault-campaign draws
/// come from their own counter-mode stream so that (a) a severity-0
/// campaign consumes zero draws and is bit-identical to a fault-free
/// run, and (b) chaos stays bit-reproducible under any shard/thread
/// plan, exactly like the user streams.
const CHAOS_STREAM: u64 = 2;

/// Fraction of users with the 2014 web-latency measurements (§7.1 added
/// that experiment "later in the study").
const WEB_PROBE_FRACTION: f64 = 0.5;

/// Share of BitTorrent users in the FCC cohort (gateway panellists are
/// recruited very differently from Dasu's BitTorrent population).
const FCC_BT_PROB: f64 = 0.12;

/// Per-shard reusable buffers for the generation hot path. One of these
/// lives for a whole shard; every user observation resets and refills it
/// instead of allocating the five per-window simulation buffers, the
/// poll/draw collection buffers, and the demand rates vector per user.
struct GenScratch {
    /// Simulated ground truth (five window-length buffers).
    truth: GroundTruth,
    /// Discarded uplink side of the cross-traffic process; once the
    /// window is simulated, the BitTorrent-excluded rates of the demand
    /// summaries.
    cross_up: Vec<f64>,
    /// Poll/acceptance-draw buffers for counter-based collection; its
    /// `polls` hold the shared raw polls of the user being observed.
    collect: CollectScratch,
    /// A chaos branch's private copy of the shared raw polls, for the
    /// branches whose plan rewrites them while a later branch still
    /// needs the originals.
    branch_polls: Vec<RawPoll>,
    /// Per-bin rates for the demand summaries.
    rates: Vec<f64>,
}

impl GenScratch {
    fn new(days: u32) -> Self {
        GenScratch {
            truth: GroundTruth::empty(TimeAxis::new(Year(2012), days)),
            cross_up: Vec::new(),
            collect: CollectScratch::new(),
            branch_polls: Vec::new(),
            rates: Vec::new(),
        }
    }
}

/// Who one observation is of: the user, their market, their plan and
/// the link it delivers. Every chaos branch of an observation shares it.
struct Subject<'a> {
    user: UserId,
    profile: &'a CountryProfile,
    catalog: &'a PlanCatalog,
    agent: Agent,
    year: Year,
    vantage: VantageKind,
    plan: &'a Plan,
    link: AccessLink,
}

/// What the poll pass of one observation leaves for its chaos branches.
enum Polled {
    /// A Dasu client's raw counter polls, waiting in
    /// `GenScratch::collect.polls`.
    Counters(CounterSource),
    /// An FCC gateway's hourly series: there is no poll sequence for
    /// chaos to degrade.
    Hourly(UsageSeries),
}

/// A chaos branch that drew its user as a mover, waiting for the upgrade
/// re-observation: the kept record, and the streams it continues from.
struct Mover {
    branch: usize,
    record: UserRecord,
    chaos: ChaosPlan,
    /// The NDT runs that survived the branch's probe: the only thing the
    /// tail draws from the main stream that a branch can change, so
    /// movers that agree on it continue from equal main streams.
    ndt_runs: u32,
    rng: ChaCha8Rng,
    chaos_rng: ChaCha8Rng,
}

/// One chaos branch's share of one shard: its kept records, its movers
/// and its data events.
type BranchPartial = (Vec<UserRecord>, Vec<UpgradeObservation>, Registry);

/// The output of [`World::generate_branches`]: every branch's shard
/// partials, held in shard order. Iterating assembles one branch's
/// `(Dataset, Registry)` at a time, in branch order, and releases that
/// branch's partials, so a caller that drops each dataset before asking
/// for the next never holds more than one assembled dataset.
pub struct Branches {
    survey: MarketSurvey,
    /// `shards[s][k]`: branch `k`'s partial of shard `s`.
    shards: Vec<Vec<BranchPartial>>,
    /// The next branch to assemble.
    next: usize,
    len: usize,
}

impl Iterator for Branches {
    type Item = (Dataset, Registry);

    fn next(&mut self) -> Option<(Dataset, Registry)> {
        if self.next == self.len {
            return None;
        }
        let k = self.next;
        self.next += 1;
        let (n_records, n_upgrades) = self.shards.iter().fold((0, 0), |(r, u), shard| {
            (r + shard[k].0.len(), u + shard[k].1.len())
        });
        let mut parts = self
            .shards
            .iter_mut()
            .map(|shard| std::mem::take(&mut shard[k]));
        let (mut records, mut upgrades, mut registry) = parts.next().expect("at least one shard");
        records.reserve_exact(n_records - records.len());
        upgrades.reserve_exact(n_upgrades - upgrades.len());
        // Shard order, exactly like the engine's fold of a one-branch run.
        for (mut r, mut u, reg) in parts {
            records.append(&mut r);
            upgrades.append(&mut u);
            registry.merge(reg);
        }
        let survey = if self.next == self.len {
            std::mem::take(&mut self.survey)
        } else {
            self.survey.clone()
        };
        let dataset = Dataset {
            records,
            upgrades,
            survey,
        };
        Some((dataset, registry))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.len - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Branches {}

/// Knobs controlling the size and shape of a generated dataset. Every
/// world spreads its users over the three [`Year::PANEL`] years.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// Master seed; every derived stream is deterministic in it.
    pub seed: u64,
    /// Multiplier on each country's `user_weight` to get its Dasu user
    /// count.
    pub user_scale: f64,
    /// Observation window length per user, days.
    pub days: u32,
    /// Size of the US-only FCC gateway cohort.
    pub fcc_users: usize,
    /// Fraction of Dasu users additionally observed after a service
    /// upgrade (the §3.2 movers).
    pub upgrade_fraction: f64,
    /// Degradation campaign applied during collection (`None` = clean).
    /// Severity 0 is guaranteed bit-identical to `None`.
    pub chaos: Option<ChaosSpec>,
}

impl WorldConfig {
    /// A small, fast configuration for unit/integration tests
    /// (~250 users, 3-day windows).
    pub fn small(seed: u64) -> Self {
        WorldConfig {
            seed,
            user_scale: 1.2,
            days: 3,
            fcc_users: 60,
            upgrade_fraction: 0.25,
            chaos: None,
        }
    }

    /// The full configuration used by the benches and the `reproduce`
    /// harness (~5,600 Dasu users + 600 FCC gateways, 7-day windows —
    /// comparable to the paper's ~5,000-user Table 4 population).
    pub fn paper_scale(seed: u64) -> Self {
        WorldConfig {
            seed,
            user_scale: 40.0,
            days: 7,
            fcc_users: 600,
            upgrade_fraction: 0.25,
            chaos: None,
        }
    }

    /// The configuration of a streaming [`RunSpec`]:
    /// [`WorldConfig::paper_scale`] defaults with the per-country scale
    /// chosen so the streamed world is roughly `users` strong after the
    /// `fcc_users` US-only gateway cohort.
    pub fn streaming(seed: u64, users: u64, days: u32, fcc_users: usize) -> Self {
        let mut cfg = WorldConfig::paper_scale(seed);
        cfg.days = days;
        cfg.fcc_users = fcc_users;
        let total_weight: f64 = builtin_world().iter().map(|p| p.user_weight).sum();
        cfg.user_scale = (users.saturating_sub(fcc_users as u64)) as f64 / total_weight.max(1e-9);
        cfg
    }
}

/// The identity of one run: every parameter its bytes depend on, and none
/// they do not (thread plan, shard count, output paths). The batch CLI,
/// the federation coordinator and its workers, and the serve gateway's
/// job runner all describe their run with one of these, so the world they
/// generate, the checkpoint manifest they pin and the result-cache key
/// they look up cannot drift apart.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunSpec {
    /// Master seed.
    pub seed: u64,
    /// Per-country user multiplier of a materialised run. A streaming run
    /// sizes its world from `users` instead; the scale is pinned all the
    /// same, so it stays at the paper default there.
    pub scale: f64,
    /// `Some(U)` streams ~U users through mergeable sketches (the scale
    /// path); `None` materialises the panel at `scale`.
    pub users: Option<u64>,
    /// Observation window per user, days.
    pub days: u32,
    /// Size of the US-only FCC gateway cohort.
    pub fcc_users: usize,
    /// Degradation campaign applied during collection (`None` = clean).
    pub chaos: Option<ChaosSpec>,
}

impl RunSpec {
    /// The paper-scale materialised run of `seed`: the `reproduce`
    /// defaults every surface starts from.
    pub fn paper(seed: u64) -> Self {
        let cfg = WorldConfig::paper_scale(seed);
        RunSpec {
            seed,
            scale: cfg.user_scale,
            users: None,
            days: cfg.days,
            fcc_users: cfg.fcc_users,
            chaos: None,
        }
    }

    /// The world configuration this run generates.
    pub fn world_config(&self) -> WorldConfig {
        let mut cfg = match self.users {
            Some(users) => WorldConfig::streaming(self.seed, users, self.days, self.fcc_users),
            None => WorldConfig {
                user_scale: self.scale,
                days: self.days,
                fcc_users: self.fcc_users,
                ..WorldConfig::paper_scale(self.seed)
            },
        };
        cfg.chaos = self.chaos;
        cfg
    }

    /// The world this run generates.
    pub fn world(&self) -> World {
        World::new(self.world_config())
    }

    /// The parameter list a checkpoint manifest (and the serve cache key)
    /// pins for this run. The pipeline path is part of it, since the two
    /// paths accumulate different shard state; the thread count is not,
    /// since shard boundaries are thread-invariant and a resume may use
    /// another. Checkpoints therefore resume across every surface that
    /// runs the same spec.
    pub fn checkpoint_params(&self) -> CheckpointParams {
        let path = if self.users.is_some() {
            "streaming"
        } else {
            "materialised"
        };
        CheckpointParams::new()
            .set("path", path)
            .set("seed", self.seed)
            .set("scale", self.scale)
            .set("days", self.days)
            .set("fcc", self.fcc_users)
            .set(
                "users",
                self.users.map_or_else(|| "-".into(), |u| u.to_string()),
            )
            .set(
                "chaos",
                self.chaos.map_or_else(|| "-".into(), |c| c.label()),
            )
    }

    /// Check that this run's world can be laid out: a window of at least
    /// one day, a finite positive scale, and cohorts that fit the `u64`
    /// user index space. Every surface that reads a spec from outside —
    /// command-line flags, a federation wire job — calls this before
    /// building the world, so an absurd size is refused instead of
    /// panicking later or wrapping around to a small world that pins the
    /// absurd one in its manifest.
    pub fn validate(&self) -> Result<(), String> {
        if self.days == 0 {
            return Err("the observation window must be at least 1 day".into());
        }
        let scale = self.scale;
        if !scale.is_finite() || scale <= 0.0 {
            return Err(format!(
                "the user scale must be a finite number > 0, got {scale}"
            ));
        }
        self.world().cohort_ends().map(drop)
    }
}

/// One contiguous block of the flat user index space: users
/// `[previous end, end)` belong to this profile/catalogue/vantage.
struct Cohort<'a> {
    profile: &'a CountryProfile,
    catalog: PlanCatalog,
    /// Exclusive end of this cohort's user indices.
    end: u64,
    vantage: VantageKind,
    /// BitTorrent-share override (the FCC gateway cohort).
    bt_override: Option<f64>,
}

/// A world with its markets instantiated and its users laid out over the
/// flat index space `0..n_users()`: the per-range body of every run.
///
/// A driver cuts the index space into ranges and calls [`Population::fold`]
/// (streaming) or [`Population::observe`] (materialised) once per range —
/// on threads, under a checkpoint, or on a federation worker's lease —
/// and merges the partials in range order. Every user is a pure function
/// of `(seed, user_index)` through their own [`stream_rng`] stream, so the
/// merged bytes are the same however the ranges were cut and wherever
/// they ran.
pub struct Population<'w> {
    world: &'w World,
    survey: MarketSurvey,
    cohorts: Vec<Cohort<'w>>,
}

impl Population<'_> {
    /// Total users (Dasu + FCC).
    pub fn n_users(&self) -> u64 {
        self.cohorts.last().map_or(0, |c| c.end)
    }

    /// Fold the kept users of `range` into `init` under the world's own
    /// chaos spec, calling `absorb(acc, record, upgrade)` once per kept
    /// record in index order, and return the accumulator with the range's
    /// data events.
    pub fn fold<A, F>(&self, range: Range<u64>, init: A, mut absorb: F) -> (A, Registry)
    where
        F: FnMut(&mut A, &UserRecord, Option<&UpgradeObservation>),
    {
        let mut acc = init;
        let mut reg = Registry::new();
        self.walk(
            range,
            &[self.world.config.chaos],
            std::slice::from_mut(&mut reg),
            &mut |_, record, upgrade| absorb(&mut acc, &record, upgrade.as_ref()),
        );
        (acc, reg)
    }

    /// Observe `range` under the world's own chaos spec, keeping its
    /// records and movers in index order: the materialised partial, which
    /// merges by concatenation.
    pub fn observe(
        &self,
        range: Range<u64>,
    ) -> (Vec<UserRecord>, Vec<UpgradeObservation>, Registry) {
        let mut partials = self.observe_shard(range, &[self.world.config.chaos]);
        partials.pop().expect("one branch")
    }

    /// The retail-plan survey of the instantiated markets.
    pub fn into_survey(self) -> MarketSurvey {
        self.survey
    }

    /// Observe `range` under every branch, keeping each branch's records,
    /// movers and registry in its own partial.
    fn observe_shard(
        &self,
        range: Range<u64>,
        branches: &[Option<ChaosSpec>],
    ) -> Vec<BranchPartial> {
        let n = (range.end - range.start) as usize;
        let mut kept: Vec<(Vec<UserRecord>, Vec<UpgradeObservation>)> = branches
            .iter()
            .map(|_| (Vec::with_capacity(n), Vec::new()))
            .collect();
        let mut regs = vec![Registry::new(); branches.len()];
        self.walk(
            range,
            branches,
            &mut regs,
            &mut |branch, record, upgrade| {
                kept[branch].0.push(record);
                kept[branch].1.extend(upgrade);
            },
        );
        kept.into_iter()
            .zip(regs)
            .map(|((records, upgrades), reg)| (records, upgrades, reg))
            .collect()
    }

    /// Walk `range`, observing each user under every branch with one
    /// reusable [`GenScratch`] and feeding each branch's kept records to
    /// `sink(branch, record, upgrade)`.
    fn walk<S>(
        &self,
        range: Range<u64>,
        branches: &[Option<ChaosSpec>],
        regs: &mut [Registry],
        sink: &mut S,
    ) where
        S: FnMut(usize, UserRecord, Option<UpgradeObservation>),
    {
        let mut scratch = GenScratch::new(self.world.config.days);
        for user_index in range {
            self.world.observe_branches(
                user_index,
                &self.cohorts,
                branches,
                regs,
                &mut scratch,
                sink,
            );
        }
    }
}

/// A world: profiles plus configuration.
#[derive(Clone, Debug)]
pub struct World {
    /// Country profiles to populate.
    pub profiles: Vec<CountryProfile>,
    /// Generation knobs.
    pub config: WorldConfig,
}

impl World {
    /// The built-in 99-country world.
    pub fn new(config: WorldConfig) -> Self {
        World {
            profiles: builtin_world(),
            config,
        }
    }

    /// A world restricted to specific countries (case studies, examples).
    pub fn with_countries(config: WorldConfig, codes: &[&str]) -> Self {
        let wanted: Vec<Country> = codes.iter().map(|c| Country::new(c)).collect();
        let profiles = builtin_world()
            .into_iter()
            .filter(|p| wanted.contains(&p.country))
            .collect();
        World { profiles, config }
    }

    /// Generate the dataset serially (single shard, calling thread).
    pub fn generate(&self) -> Dataset {
        self.generate_with_traced(ShardPlan::serial()).0
    }

    /// Generate the dataset under a shard plan, returning it with the
    /// merged per-user [`Registry`] (collection-heuristic counters — a
    /// pure function of the world seed, so identical for every plan) and
    /// the [`RunStats`] for this particular execution (wall times and
    /// steals — plan-dependent by nature).
    ///
    /// Every user is a pure function of `(seed, user_index)` (see
    /// [`World::population`]), so the dataset and registry are
    /// **bit-identical for any shard and thread count**. It is the
    /// one-branch case of [`World::generate_branches`].
    pub fn generate_with_traced(&self, plan: ShardPlan) -> (Dataset, Registry, RunStats) {
        let (mut branches, stats) = self.generate_branches(&[self.config.chaos], plan);
        let (dataset, registry) = branches.next().expect("one branch");
        (dataset, registry, stats)
    }

    /// Generate the dataset once per chaos branch in a single pass over
    /// the users. Branch `k` is exactly what [`World::generate_with_traced`]
    /// returns for this world with `config.chaos = branches[k]`: the same
    /// records, movers and registry, under any plan. The world's own
    /// `config.chaos` is not consulted.
    ///
    /// Each user is simulated and polled once for all branches, and only
    /// the collection and probing that chaos can change run once per
    /// branch (see `observe_branches`). The branches' shard partials are
    /// held until the returned [`Branches`] is iterated.
    ///
    /// # Panics
    /// Panics when `branches` is empty.
    pub fn generate_branches(
        &self,
        branches: &[Option<ChaosSpec>],
        plan: ShardPlan,
    ) -> (Branches, RunStats) {
        assert!(!branches.is_empty(), "need at least one chaos branch");
        let population = self.population();
        // Each shard contributes one entry of per-branch partials; the
        // engine's fold only concatenates the entries, so no branch is
        // assembled until it is asked for.
        let (shards, stats) = run_sharded(population.n_users(), plan, |range| {
            vec![population.observe_shard(range, branches)]
        });
        let branches = Branches {
            survey: population.into_survey(),
            shards,
            next: 0,
            len: branches.len(),
        };
        (branches, stats)
    }

    /// Stream every user of the world through a mergeable accumulator
    /// without materialising the panel: each shard folds its users into an
    /// `init()` accumulator ([`Population::fold`]), and the partials merge
    /// in shard order. Memory is O(accumulator × shards) however many users
    /// the config implies — this is the entry point for the million-user
    /// scale runs. Also returns the merged per-user [`Registry`]
    /// (plan-invariant data events) and this execution's [`RunStats`]
    /// (plan-dependent scheduling observables).
    pub fn fold_users_traced<A, I, F>(
        &self,
        plan: ShardPlan,
        init: I,
        absorb: F,
    ) -> (MarketSurvey, A, Registry, RunStats)
    where
        A: Mergeable + Send,
        I: Fn() -> A + Sync,
        F: Fn(&mut A, &UserRecord, Option<&UpgradeObservation>) + Sync,
    {
        let population = self.population();
        let ((folded, registry), stats) = run_sharded(population.n_users(), plan, |range| {
            population.fold(range, init(), &absorb)
        });
        (population.into_survey(), folded, registry, stats)
    }

    /// Total users (Dasu + FCC) the current config implies: the last end
    /// of the cohort layout, with no market instantiated.
    ///
    /// # Panics
    /// When the cohort layout overflows the `u64` user index space (see
    /// [`RunSpec::validate`]).
    pub fn n_users(&self) -> u64 {
        let ends = self.cohort_ends().unwrap_or_else(|err| panic!("{err}"));
        ends.last().copied().unwrap_or(0)
    }

    /// Instantiate every market from the master stream and lay the users
    /// out over a flat index space — Dasu users country by country, then
    /// the US-only FCC gateway cohort — ready to observe any range of it.
    ///
    /// # Panics
    /// When the cohort layout overflows the `u64` user index space. A
    /// [`RunSpec`] read from outside input is checked by
    /// [`RunSpec::validate`] before any world is built from it.
    pub fn population(&self) -> Population<'_> {
        let ends = self.cohort_ends().unwrap_or_else(|err| panic!("{err}"));
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        let mut survey = MarketSurvey::new();
        let mut cohorts: Vec<Cohort<'_>> = Vec::with_capacity(ends.len());
        let mut us: Option<(&CountryProfile, PlanCatalog)> = None;
        for (profile, &end) in self.profiles.iter().zip(&ends) {
            let catalog = profile.market.instantiate(&mut rng);
            survey.insert(profile.region, catalog.clone());
            if profile.country == Country::new("US") {
                us = Some((profile, catalog.clone()));
            }
            cohorts.push(Cohort {
                profile,
                catalog,
                end,
                vantage: VantageKind::Dasu,
                bt_override: None,
            });
        }
        if let (Some((profile, catalog)), Some(&end)) = (us, ends.get(self.profiles.len())) {
            cohorts.push(Cohort {
                profile,
                catalog,
                end,
                vantage: VantageKind::Fcc,
                bt_override: Some(FCC_BT_PROB),
            });
        }
        Population {
            world: self,
            survey,
            cohorts,
        }
    }

    /// The cohort layout, computed in this one place: the exclusive end of
    /// every Dasu cohort in profile order, then — when the world includes
    /// the US — of the FCC gateway cohort. Errors when the users do not
    /// fit the `u64` index space, instead of wrapping around to a smaller
    /// world than the one asked for.
    fn cohort_ends(&self) -> Result<Vec<u64>, String> {
        let overflow = || {
            format!(
                "a world of user scale {:?} with {} FCC gateways overflows the u64 user index",
                self.config.user_scale, self.config.fcc_users
            )
        };
        let mut ends = Vec::with_capacity(self.profiles.len() + 1);
        let mut end = 0u64;
        for profile in &self.profiles {
            let size = (profile.user_weight * self.config.user_scale)
                .round()
                .max(1.0);
            // `u64::MAX as f64` is 2^64, the first size `as` would
            // silently saturate instead of converting.
            if size >= u64::MAX as f64 {
                return Err(overflow());
            }
            end = end.checked_add(size as u64).ok_or_else(overflow)?;
            ends.push(end);
        }
        if self
            .profiles
            .iter()
            .any(|p| p.country == Country::new("US"))
        {
            let fcc_end = end.checked_add(self.config.fcc_users as u64);
            ends.push(fcc_end.ok_or_else(overflow)?);
        }
        Ok(ends)
    }

    /// Observe the user at `user_index` under every chaos branch and hand
    /// each branch's kept record to `sink(branch, record, upgrade)`.
    /// Branch `k` is a pure function of `(config.seed, user_index,
    /// branches[k])` given the instantiated markets — what a world with
    /// `chaos: branches[k]` observes — and counts into `regs[k]` only. A
    /// record the ingest screen quarantines is counted there under
    /// `dataset.quality.quarantine.*` by [`quality::screen`] and dropped.
    ///
    /// Chaos draws only from the dedicated chaos stream and acts only on
    /// collection, so every branch consumes the same main-stream words
    /// through the poll pass. That prefix — agent sampling, plan and link,
    /// the cross-traffic draw, session simulation, the counter-source draw
    /// and the poll pass — runs once. Each branch then continues from its
    /// own copy of the main stream, with a fresh chaos stream: it degrades
    /// and reconstructs the polls, summarises demand, probes, screens and
    /// draws the mover. The last branch takes the main stream and the
    /// shared polls themselves, so a one-branch call copies nothing. The
    /// NDT probe is where branches truly part: under probe failures
    /// `run_averaged` draws once per surviving run, so the branches' main
    /// streams diverge from there on. Upgrade re-observations run after
    /// every branch's first observation, since they re-simulate into the
    /// same scratch. Nothing else a branch does draws from the main
    /// stream, so the movers of branches whose probes kept the same number
    /// of runs continue from equal streams: the upgrade prefix (rungs,
    /// provisioning, growth, simulation and poll pass) runs once per such
    /// group, and each member runs only its own tail, from a clone of the
    /// group's stream and with its own chaos stream.
    fn observe_branches<S>(
        &self,
        user_index: u64,
        cohorts: &[Cohort<'_>],
        branches: &[Option<ChaosSpec>],
        regs: &mut [Registry],
        scratch: &mut GenScratch,
        sink: &mut S,
    ) where
        S: FnMut(usize, UserRecord, Option<UpgradeObservation>),
    {
        let cohort = &cohorts[cohorts.partition_point(|c| c.end <= user_index)];
        for reg in regs.iter_mut() {
            reg.inc("dataset.users.observed");
        }
        let mut rng = stream_rng(self.config.seed, USER_STREAM, user_index);
        let year = Year::PANEL[rng.gen_range(0..Year::PANEL.len())];
        let agent = self.sample_subscriber(
            cohort.profile,
            &cohort.catalog,
            year,
            cohort.bt_override,
            &mut rng,
        );
        let plan = choose_plan(&agent, &cohort.catalog);
        let link = self.build_link(cohort.profile, plan, &mut rng);
        let subject = Subject {
            user: UserId(user_index),
            profile: cohort.profile,
            catalog: &cohort.catalog,
            agent,
            year,
            vantage: cohort.vantage,
            plan,
            link,
        };
        let polled = self.simulate_and_poll(&subject, &mut rng, scratch);

        let last = branches.len() - 1;
        let mut main = Some(rng);
        let mut movers = Vec::new();
        for (branch, (spec, reg)) in branches.iter().zip(regs.iter_mut()).enumerate() {
            // The campaign's degradation plan for this user's country. A
            // clean branch (or severity 0, or a targeted scenario sparing
            // this country) yields NONE, which never draws — so the chaos
            // stream existing at all leaves the generated bytes untouched.
            let chaos = spec.map_or(ChaosPlan::NONE, |spec| {
                spec.plan_for(cohort.profile.country.as_str())
            });
            let mut rng = if branch == last {
                main.take()
            } else {
                main.clone()
            }
            .expect("only the last branch takes the main stream");
            let mut chaos_rng = stream_rng(self.config.seed, CHAOS_STREAM, user_index);
            // A NONE plan leaves the shared polls as they are; any other
            // plan rewrites them, so it works on a copy unless no later
            // branch needs them.
            let private_polls = branch != last && !chaos.is_none();
            let (mut record, ndt_runs) = self.observe_tail(
                &subject,
                &polled,
                private_polls,
                &chaos,
                &mut rng,
                &mut chaos_rng,
                reg,
                scratch,
            );
            if quality::screen(&mut record, reg) == DataQuality::Quarantine {
                continue;
            }
            // Movers: re-observe a fraction of Dasu users after an upgrade.
            if cohort.vantage == VantageKind::Dasu
                && rng.gen::<f64>() < self.config.upgrade_fraction
            {
                movers.push(Mover {
                    branch,
                    record,
                    chaos,
                    ndt_runs,
                    rng,
                    chaos_rng,
                });
            } else {
                sink(branch, record, None);
            }
        }
        // One upgrade prefix per group of movers with equal main streams.
        movers.sort_unstable_by_key(|m| m.ndt_runs);
        let mut movers = movers.into_iter().peekable();
        while let Some(mut lead) = movers.next() {
            let after = self.upgrade_prefix(&subject, &mut lead.rng, scratch);
            let mut group_rng = Some(lead.rng.clone());
            let mut member = Some(lead);
            while let Some(mut mover) = member.take() {
                member = movers.next_if(|next| next.ndt_runs == mover.ndt_runs);
                // As in the first observation: the last member takes the
                // stream and the shared polls themselves.
                let last = member.is_none();
                let reg = &mut regs[mover.branch];
                let upgrade = after
                    .as_ref()
                    .map(|(after, polled)| {
                        let mut rng = if last {
                            group_rng.take()
                        } else {
                            group_rng.clone()
                        }
                        .expect("only the last member takes the group's stream");
                        let (after_record, _) = self.observe_tail(
                            after,
                            polled,
                            !last && !mover.chaos.is_none(),
                            &mover.chaos,
                            &mut rng,
                            &mut mover.chaos_rng,
                            reg,
                            scratch,
                        );
                        upgrade_observation(&mover.record, after_record)
                    })
                    .filter(|up| quality::screen_upgrade(up, reg) != DataQuality::Quarantine);
                if upgrade.is_some() {
                    reg.inc("dataset.users.upgraded");
                }
                sink(mover.branch, mover.record, upgrade);
            }
        }
    }

    /// Sample an agent who is actually *in* the broadband market.
    ///
    /// "Need, want, can afford" applies to the subscription decision
    /// itself: where the cheapest workable plan exceeds a household's
    /// budget, only the needy subscribe at all ("subscribers are willing
    /// to pay more for it", §5). Low-appetite would-be users simply never
    /// appear in a broadband measurement dataset. This self-selection is
    /// the mechanism behind the §5/§6 findings that users in expensive
    /// markets impose higher demand at matched capacities.
    fn sample_subscriber(
        &self,
        profile: &CountryProfile,
        catalog: &PlanCatalog,
        year: Year,
        bt_prob_override: Option<f64>,
        rng: &mut ChaCha8Rng,
    ) -> Agent {
        let growth = APPETITE_GROWTH_PER_YEAR.powi(year.0 as i32 - 2012);
        for _ in 0..60 {
            let agent = self.sample_agent(profile, year, bt_prob_override, rng);
            let plan = choose_plan(&agent, catalog);
            // Consumer surplus of the best available plan, with some slack
            // for habit, work-from-home necessity, family pressure…
            let value = agent.value_of(plan.download).usd();
            let hurdle = plan.monthly_price.usd() * 0.8;
            // Soft acceptance in two parts: the measurable surplus, and a
            // direct *need* tilt — dollar value alone cannot express why a
            // high-need household keeps paying painful prices for a small
            // pipe (the value of the first megabit is nearly
            // appetite-independent), yet that is precisely who stays in an
            // expensive market. Where plans are cheap the odds saturate
            // and no selection occurs; where they are dear, subscribers
            // skew needy — the §5 mechanism.
            let need_ratio = agent.appetite.mbps() / (profile.appetite_median_mbps * growth);
            let odds = (value / hurdle.max(0.01)).powf(1.5) * need_ratio.powf(0.8);
            let accept = odds / (1.0 + odds);
            if rng.gen::<f64>() < accept {
                return agent;
            }
        }
        // Extremely unaffordable market: whoever subscribes, subscribes.
        self.sample_agent(profile, year, bt_prob_override, rng)
    }

    fn sample_agent(
        &self,
        profile: &CountryProfile,
        year: Year,
        bt_prob_override: Option<f64>,
        rng: &mut ChaCha8Rng,
    ) -> Agent {
        // Appetites grow yearly around the 2012 anchor.
        let growth = APPETITE_GROWTH_PER_YEAR.powi(year.0 as i32 - 2012);
        let mut sampler = AgentSampler::new(
            profile.appetite_median_mbps * growth,
            profile.monthly_income(),
        );
        if let Some(p) = bt_prob_override {
            sampler.bt_user_prob = p;
        }
        sampler.sample(rng)
    }

    /// Build the physical link a plan delivers at this user's location.
    fn build_link(
        &self,
        profile: &CountryProfile,
        plan: &Plan,
        rng: &mut ChaCha8Rng,
    ) -> AccessLink {
        // Delivered capacity: advertised rate times a provisioning factor.
        let provisioning = rng.gen_range(0.85..1.05);
        let capacity = plan.download * provisioning;
        // Path quality: country distribution, much worse over impaired
        // technologies (the satellite/wireless tails of Figs. 1b-1c).
        // Satellite-like paths are dominated by propagation delay;
        // terrestrial wireless by loss — keeping the two impairments
        // partly decoupled is what lets the §7 experiments match
        // high-latency users against similar-loss users and vice versa.
        let (rtt_mult, loss_mult) = if plan.technology.is_impaired() {
            if rng.gen::<f64>() < 0.5 {
                (5.0, 2.5) // satellite-like
            } else {
                (1.8, 8.0) // terrestrial wireless-like
            }
        } else {
            (1.0, 1.0)
        };
        let rtt = LogNormal::from_median(profile.rtt_median_ms * rtt_mult, profile.rtt_sigma)
            .sample(rng)
            .clamp(3.0, 3000.0);
        let loss_pct =
            LogNormal::from_median(profile.loss_median_pct * loss_mult, profile.loss_sigma)
                .sample(rng)
                .clamp(1e-4, 30.0);
        AccessLink::new(
            capacity,
            Latency::from_ms(rtt),
            LossRate::from_percent(loss_pct),
        )
        .with_upload((plan.upload * provisioning).max(bb_types::Bandwidth::from_kbps(64.0)))
    }

    /// The severity-independent prefix of an observation: simulate the
    /// subject's window on their link, draw the Dasu counter source and
    /// run the poll pass. A Dasu client's raw polls are left in
    /// `scratch.collect.polls`; an FCC gateway's hourly series is
    /// returned whole. Draws only from the main stream.
    fn simulate_and_poll(
        &self,
        s: &Subject<'_>,
        rng: &mut ChaCha8Rng,
        scratch: &mut GenScratch,
    ) -> Polled {
        let axis = TimeAxis::new(s.year, self.config.days);
        // Usage caps: subscribers on capped plans *manage* their usage to
        // the cap (Chetty et al., cited in §8) — model that as pacing the
        // offered intensity to ~80% of the window's allowance — with the
        // ISP's hard throttle as the backstop for the unlucky rest.
        let window_cap_bytes = s
            .plan
            .cap_gb
            .map(|gb| gb * 1e9 * self.config.days as f64 / 30.0);
        let mut intensity = s.agent.offered_intensity();
        if let Some(cap) = window_cap_bytes {
            let paced = bb_types::Bandwidth::from_bps(0.8 * cap * 8.0 / axis.duration_secs());
            intensity = intensity.min(paced);
        }
        let mut workload = if s.agent.bt_user {
            UserWorkload::with_bt(intensity, 0.45)
        } else {
            UserWorkload::without_bt(intensity)
        };
        workload.mix = s.agent.persona.app_mix();
        if let Some(cap) = window_cap_bytes {
            workload = workload.with_cap(cap);
        }
        // Multi-device households: other machines share the link; their
        // traffic reaches UPnP gateway counters but not the measured
        // host's netstat (Dasu detects and subtracts most of it).
        if rng.gen::<f64>() < 0.4 {
            let share = rng.gen_range(0.1..0.5);
            workload = workload.with_cross_traffic(intensity * share);
        }
        simulate_user_into(
            &s.link,
            &workload,
            axis,
            rng,
            &mut scratch.truth,
            &mut scratch.cross_up,
        );
        // Dasu clients poll real byte counters (§2.1): most ride UPnP
        // gateway registers (32-bit, wrapping), the rest read netstat on a
        // directly-connected host. FCC gateways report hourly bins.
        match s.vantage {
            VantageKind::Dasu => {
                let source = if rng.gen::<f64>() < 0.6 {
                    CounterSource::Upnp
                } else {
                    CounterSource::Netstat
                };
                let polling = dasu_polling(source, &s.link, &ChaosPlan::NONE);
                UsageSeries::poll_counters(&scratch.truth, &polling, rng, &mut scratch.collect);
                Polled::Counters(source)
            }
            VantageKind::Fcc => Polled::Hourly(UsageSeries::hourly(&scratch.truth)),
        }
    }

    /// One chaos branch's tail of an observation: degrade and reconstruct
    /// the shared polls, summarise demand, run the NDT and web probes and
    /// draw the network id. With `private_polls` the polls are
    /// reconstructed from a copy, leaving the shared ones for a later
    /// branch. Returns the record and the number of NDT runs that
    /// survived, which alone decides how far the tail advances `rng`.
    ///
    /// Degradation (`chaos`) applies at the two measurement surfaces:
    /// the raw poll sequence of counter-based Dasu collection, and the
    /// NDT probe runs (any vantage). All chaos draws come from the
    /// dedicated `chaos_rng`; a NONE plan draws nothing from it and is
    /// bit-identical to the clean path.
    #[allow(clippy::too_many_arguments)]
    fn observe_tail(
        &self,
        s: &Subject<'_>,
        polled: &Polled,
        private_polls: bool,
        chaos: &ChaosPlan,
        rng: &mut ChaCha8Rng,
        chaos_rng: &mut ChaCha8Rng,
        reg: &mut Registry,
        scratch: &mut GenScratch,
    ) -> (UserRecord, u32) {
        let reconstructed;
        let (collected, counter_source) = match polled {
            Polled::Counters(source) => {
                reg.inc(match source {
                    CounterSource::Upnp => "dataset.observations.upnp",
                    CounterSource::Netstat => "dataset.observations.netstat",
                });
                let polls = if private_polls {
                    scratch.branch_polls.clone_from(&scratch.collect.polls);
                    &mut scratch.branch_polls
                } else {
                    &mut scratch.collect.polls
                };
                reconstructed = UsageSeries::reconstruct_polls(
                    &scratch.truth,
                    &dasu_polling(*source, &s.link, chaos),
                    polls,
                    &mut scratch.collect.draws,
                    chaos_rng,
                    reg,
                );
                (&reconstructed, Some(*source))
            }
            Polled::Hourly(series) => {
                reg.inc("dataset.observations.fcc");
                (series, None)
            }
        };
        // The simulation is done with its cross-traffic uplink buffer, so
        // it holds the BitTorrent-excluded rates.
        let SeriesSummary {
            demand_with_bt,
            demand_no_bt,
            upload_mean,
        } = collected.summarise(&mut scratch.rates, &mut scratch.cross_up);

        // NDT probing under chaos: each of the 4 scheduled runs fails
        // independently with the plan's probe-failure probability. A
        // total blackout leaves the user with no capacity measurement —
        // the placeholder record is quarantined by the ingest screen.
        const NDT_RUNS: u32 = 4;
        let surviving_runs = if chaos.probe_failure_prob > 0.0 {
            let ok = (0..NDT_RUNS)
                .filter(|_| chaos_rng.gen::<f64>() >= chaos.probe_failure_prob)
                .count() as u32;
            reg.add("netsim.probe.failed_runs", (NDT_RUNS - ok) as u64);
            ok
        } else {
            NDT_RUNS
        };
        let ndt = if surviving_runs == 0 {
            reg.inc("netsim.probe.blackouts");
            None
        } else {
            Some(NdtProbe::default().run_averaged(&s.link, surviving_runs, rng))
        };
        let web = if rng.gen::<f64>() < WEB_PROBE_FRACTION {
            Some(web_latency(&s.link, rng))
        } else {
            None
        };

        let network = NetworkId::new(
            s.profile.country,
            (s.catalog
                .plans
                .iter()
                .position(|p| p == s.plan)
                .unwrap_or(0)
                % 4) as u16,
            rng.gen_range(0..1 << 16),
            rng.gen_range(0..24),
        );

        // A blacked-out probe leaves measurement placeholders; the
        // ingest screen quarantines the record on the zero capacity.
        let (capacity, latency, loss) = match ndt {
            Some(r) => (r.download, r.avg_rtt, r.loss),
            None => (
                bb_types::Bandwidth::ZERO,
                bb_types::Latency::ZERO,
                bb_types::LossRate::ZERO,
            ),
        };
        let record = UserRecord {
            user: s.user,
            country: s.profile.country,
            network,
            year: s.year,
            vantage: s.vantage,
            capacity,
            latency,
            loss,
            web_latency: web,
            demand_with_bt,
            demand_no_bt,
            plan_capacity: s.plan.download,
            plan_price: s.plan.monthly_price,
            access_price: s.catalog.price_of_access().unwrap_or(s.plan.monthly_price),
            upgrade_cost: s.catalog.upgrade_cost(),
            is_bt_user: s.agent.bt_user,
            upload_mean,
            plan_capped: s.plan.cap_gb.is_some(),
            counter_source,
            persona: s.agent.persona,
        };
        (record, surviving_runs)
    }

    /// The branch-independent start of a mover's re-observation after a
    /// service upgrade: the plan one to three rungs up the ladder of
    /// strictly faster, non-dedicated plans, its link, the grown appetite,
    /// and the simulation and poll pass of the new window. `None`, before
    /// any draw, when no faster plan exists. Draws only from `rng`, so
    /// movers with equal main streams share it.
    ///
    /// Users "jump to a higher service when their demand grows" (§1), so
    /// the mover's appetite is scaled by a heavy-tailed growth factor
    /// (median ~1.7x, wide spread — some upgrades are promotions or
    /// marketing, not need) between the two observations. The §3.2 numbers
    /// (usage roughly doubling at the median, H holding for two thirds of
    /// movers rather than all of them) reflect that mix plus the relaxed
    /// capacity constraint.
    fn upgrade_prefix<'s>(
        &self,
        subject: &Subject<'s>,
        rng: &mut ChaCha8Rng,
        scratch: &mut GenScratch,
    ) -> Option<(Subject<'s>, Polled)> {
        // Candidate faster plans, sorted by capacity.
        let mut faster: Vec<&Plan> = subject
            .catalog
            .plans
            .iter()
            .filter(|p| !p.dedicated && p.download > subject.plan.download)
            .collect();
        if faster.is_empty() {
            return None;
        }
        faster.sort_by_key(|p| p.download);
        let rungs = rng.gen_range(1..=3usize.min(faster.len()));
        let after_plan = faster[rungs - 1];

        // Same location: keep the path quality, change the delivered
        // capacity.
        let provisioning = rng.gen_range(0.85..1.05);
        let after_link = AccessLink::new(
            after_plan.download * provisioning,
            subject.link.base_rtt,
            subject.link.loss,
        )
        .with_upload((after_plan.upload * provisioning).max(bb_types::Bandwidth::from_kbps(64.0)));
        // Demand growth drives the upgrade (see the doc comment).
        let growth = LogNormal::from_median(1.7, 0.85)
            .sample(rng)
            .clamp(0.35, 10.0);
        let after = Subject {
            agent: Agent {
                appetite: (subject.agent.appetite * growth)
                    .min(bb_types::Bandwidth::from_mbps(200.0)),
                ..subject.agent
            },
            vantage: VantageKind::Dasu,
            plan: after_plan,
            link: after_link,
            ..*subject
        };
        let polled = self.simulate_and_poll(&after, rng, scratch);
        Some((after, polled))
    }
}

/// A mover's before/after pair: the kept first record and the record of
/// the re-observation after the upgrade.
fn upgrade_observation(before: &UserRecord, after: UserRecord) -> UpgradeObservation {
    UpgradeObservation {
        user: before.user,
        country: before.country,
        before: UpgradeSnapshot {
            network: before.network.clone(),
            capacity: before.capacity,
            demand_with_bt: before.demand_with_bt,
            demand_no_bt: before.demand_no_bt,
        },
        after: UpgradeSnapshot {
            network: after.network,
            capacity: after.capacity,
            demand_with_bt: after.demand_with_bt,
            demand_no_bt: after.demand_no_bt,
        },
    }
}

/// How a Dasu client polls: online half the time, reading `source` over
/// `link`, degraded by `chaos`.
fn dasu_polling<'a>(
    source: CounterSource,
    link: &AccessLink,
    chaos: &'a ChaosPlan,
) -> CounterPolling<'a> {
    CounterPolling {
        uptime: 0.5,
        source,
        link_capacity: link.capacity,
        chaos,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        let mut cfg = WorldConfig::small(7);
        cfg.user_scale = 0.4;
        cfg.fcc_users = 20;
        cfg.days = 2;
        World::with_countries(cfg, &["US", "JP", "BW", "SA", "IN"]).generate()
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.records.len(), b.records.len());
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(ra.capacity, rb.capacity);
            assert_eq!(ra.demand_no_bt, rb.demand_no_bt);
        }
    }

    #[test]
    fn sharded_generation_is_bit_identical() {
        let mut cfg = WorldConfig::small(7);
        cfg.user_scale = 0.4;
        cfg.fcc_users = 20;
        cfg.days = 2;
        let world = World::with_countries(cfg, &["US", "JP", "BW", "SA", "IN"]);
        let serial = world.generate();
        for plan in [
            ShardPlan::new(8, 1),
            ShardPlan::new(8, 4),
            ShardPlan::new(64, 3),
        ] {
            let sharded = world.generate_with_traced(plan).0;
            assert_eq!(serial.records.len(), sharded.records.len());
            assert_eq!(serial.upgrades.len(), sharded.upgrades.len());
            for (a, b) in serial.records.iter().zip(&sharded.records) {
                assert_eq!(a.user, b.user);
                assert_eq!(a.capacity, b.capacity);
                assert_eq!(a.latency, b.latency);
                assert_eq!(a.loss, b.loss);
                assert_eq!(a.demand_with_bt, b.demand_with_bt);
                assert_eq!(a.demand_no_bt, b.demand_no_bt);
            }
            for (a, b) in serial.upgrades.iter().zip(&sharded.upgrades) {
                assert_eq!(a.user, b.user);
                assert_eq!(a.after.capacity, b.after.capacity);
            }
        }
    }

    fn assert_same_dataset(a: &Dataset, b: &Dataset, label: &str) {
        assert_eq!(a.records.len(), b.records.len(), "{label}: record count");
        assert_eq!(a.upgrades.len(), b.upgrades.len(), "{label}: upgrade count");
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(ra.user, rb.user, "{label}");
            assert_eq!(ra.capacity, rb.capacity, "{label}");
            assert_eq!(ra.latency, rb.latency, "{label}");
            assert_eq!(ra.loss, rb.loss, "{label}");
            assert_eq!(ra.demand_with_bt, rb.demand_with_bt, "{label}");
            assert_eq!(ra.demand_no_bt, rb.demand_no_bt, "{label}");
            assert_eq!(ra.upload_mean, rb.upload_mean, "{label}");
            assert_eq!(ra.web_latency, rb.web_latency, "{label}");
            assert_eq!(ra.network, rb.network, "{label}");
        }
        for (ua, ub) in a.upgrades.iter().zip(&b.upgrades) {
            assert_eq!(ua.user, ub.user, "{label}");
            assert_eq!(ua.before.capacity, ub.before.capacity, "{label}");
            assert_eq!(ua.after.capacity, ub.after.capacity, "{label}");
            assert_eq!(ua.after.demand_with_bt, ub.after.demand_with_bt, "{label}");
        }
        // Every remaining field too: the Debug rendering prints each float
        // in its shortest round-trip form, so equal text is equal bits.
        assert_eq!(
            format!("{:?}", a.records),
            format!("{:?}", b.records),
            "{label}: records"
        );
        assert_eq!(
            format!("{:?}", a.upgrades),
            format!("{:?}", b.upgrades),
            "{label}: upgrades"
        );
        assert_eq!(a.survey.len(), b.survey.len(), "{label}: survey");
    }

    /// The world the branch tests fuse: several countries including the
    /// US, so `targeted-us` branches differ by cohort, plus an FCC cohort.
    fn branch_world() -> World {
        let mut cfg = WorldConfig::small(7);
        cfg.user_scale = 0.4;
        cfg.fcc_users = 20;
        cfg.days = 2;
        World::with_countries(cfg, &["US", "JP", "BW", "SA", "IN"])
    }

    /// `world` generated on its own with `chaos` as its campaign.
    fn separate_run(world: &World, chaos: Option<ChaosSpec>) -> (Dataset, Registry) {
        let mut alone = world.clone();
        alone.config.chaos = chaos;
        let (ds, reg, _) = alone.generate_with_traced(ShardPlan::serial());
        (ds, reg)
    }

    /// Fuse `specs` over `world` under each of `plans` and pin every
    /// branch to a separate run at its spec: dataset and registry.
    fn assert_branches_match_separate_runs(
        world: &World,
        specs: &[Option<ChaosSpec>],
        plans: &[ShardPlan],
        label: &str,
    ) {
        let separate: Vec<(Dataset, Registry)> = specs
            .iter()
            .map(|&spec| separate_run(world, spec))
            .collect();
        for &plan in plans {
            let (branches, _) = world.generate_branches(specs, plan);
            assert_eq!(branches.len(), specs.len(), "{label}");
            for (k, ((want, want_reg), (ds, reg))) in separate.iter().zip(branches).enumerate() {
                let label = format!("{label} branch {k} under {plan:?}");
                assert_same_dataset(want, &ds, &label);
                assert_eq!(reg.to_json(), want_reg.to_json(), "{label}");
            }
        }
    }

    #[test]
    fn every_branch_equals_a_separate_run_at_its_spec() {
        use bb_netsim::chaos::ChaosScenario;
        let world = branch_world();
        for scenario in ChaosScenario::ALL {
            let specs: Vec<Option<ChaosSpec>> = [0.0, 0.5, 1.0]
                .iter()
                .map(|&s| Some(ChaosSpec::new(scenario, s)))
                .collect();
            let plans = [ShardPlan::serial(), ShardPlan::new(8, 4)];
            assert_branches_match_separate_runs(&world, &specs, &plans, scenario.name());
        }
        // The CLI's sweep grid, under the two scenarios whose probe
        // failures group the movers: several branches share one upgrade
        // prefix where their probes kept the same runs, and branches whose
        // surviving runs differ split.
        for scenario in [ChaosScenario::Omnibus, ChaosScenario::ProbeBlackout] {
            let specs: Vec<Option<ChaosSpec>> = [0.0, 0.25, 0.5, 0.75, 1.0]
                .iter()
                .map(|&s| Some(ChaosSpec::new(scenario, s)))
                .collect();
            let label = format!("{} sweep grid", scenario.name());
            assert_branches_match_separate_runs(&world, &specs, &[ShardPlan::new(8, 4)], &label);
        }
        // Branches need not share a scenario, nor be chaotic at all.
        let mixed = [
            Some(ChaosSpec::new(ChaosScenario::ProbeBlackout, 1.0)),
            None,
            Some(ChaosSpec::new(ChaosScenario::TargetedUs, 0.75)),
            Some(ChaosSpec::new(ChaosScenario::PollChurn, 1.0)),
        ];
        assert_branches_match_separate_runs(&world, &mixed, &[ShardPlan::new(8, 4)], "mixed");
    }

    #[test]
    fn branches_of_empty_and_single_user_worlds() {
        use bb_netsim::chaos::ChaosScenario;
        let specs = [
            None,
            Some(ChaosSpec::new(ChaosScenario::ProbeBlackout, 1.0)),
            Some(ChaosSpec::new(ChaosScenario::Omnibus, 0.5)),
        ];
        let mut cfg = WorldConfig::small(7);
        cfg.fcc_users = 0;
        let empty = World::with_countries(cfg, &[]);
        let (branches, _) = empty.generate_branches(&specs, ShardPlan::new(4, 2));
        assert_eq!(branches.len(), specs.len());
        for (ds, reg) in branches {
            assert!(ds.records.is_empty() && ds.upgrades.is_empty());
            assert_eq!(reg.to_json(), Registry::new().to_json());
        }

        let mut one_cfg = WorldConfig::small(7);
        one_cfg.user_scale = 1e-9; // rounds to the max(1) floor
        one_cfg.fcc_users = 0;
        one_cfg.days = 1;
        let one = World::with_countries(one_cfg, &["JP"]);
        assert_eq!(one.n_users(), 1);
        let plans = [ShardPlan::serial(), ShardPlan::new(2, 2)];
        assert_branches_match_separate_runs(&one, &specs, &plans, "single-user");
    }

    #[test]
    fn main_stream_is_shared_through_the_poll_pass_and_parts_at_the_ndt_probe() {
        // The precondition of the fused sweep, and where it stops: chaos
        // draws only from its own stream, so a probe blackout leaves
        // every main-stream draw up to and including the poll pass alone
        // — but `run_averaged` draws once per surviving NDT run, so every
        // draw after the probe (web probe, network id, mover draw,
        // upgrade) comes from a different position of the main stream.
        use bb_netsim::chaos::ChaosScenario;
        use std::collections::BTreeMap;
        let mut cfg = WorldConfig::small(71);
        cfg.user_scale = 1.0;
        cfg.days = 1;
        cfg.fcc_users = 30;
        let clean = World::new(cfg.clone()).generate();
        cfg.chaos = Some(ChaosSpec::new(ChaosScenario::ProbeBlackout, 1.0));
        let blackout = World::new(cfg).generate();
        let clean_by_user: BTreeMap<UserId, &UserRecord> =
            clean.records.iter().map(|r| (r.user, r)).collect();
        let mut kept_in_both = 0;
        for b in &blackout.records {
            let Some(a) = clean_by_user.get(&b.user) else {
                continue; // quarantined by the blackout
            };
            kept_in_both += 1;
            // Drawn before the probe: identical.
            assert_eq!(a.year, b.year, "{:?}", b.user);
            assert_eq!(a.persona, b.persona, "{:?}", b.user);
            assert_eq!(a.plan_capacity, b.plan_capacity, "{:?}", b.user);
            assert_eq!(a.is_bt_user, b.is_bt_user, "{:?}", b.user);
            assert_eq!(a.counter_source, b.counter_source, "{:?}", b.user);
            assert_eq!(a.demand_with_bt, b.demand_with_bt, "{:?}", b.user);
            // Drawn after the probe: from a shifted main stream.
            assert_ne!(a.network, b.network, "{:?}", b.user);
        }
        assert!(kept_in_both > 50, "only {kept_in_both} users kept in both");
        let movers = |ds: &Dataset| -> Vec<UserId> { ds.upgrades.iter().map(|u| u.user).collect() };
        assert_ne!(movers(&clean), movers(&blackout));
    }

    #[test]
    fn shared_scratch_matches_fresh_scratch_per_user() {
        // A fresh GenScratch per user is the no-reuse reference: any
        // state leaking across users through the shared buffers would
        // split these outputs.
        let mut cfg = WorldConfig::small(7);
        cfg.user_scale = 0.4;
        cfg.fcc_users = 20;
        cfg.days = 2;
        let world = World::with_countries(cfg, &["US", "JP", "BW", "SA", "IN"]);
        let shared = world.generate();
        let population = world.population();
        let total = population.n_users();
        let mut reg = Registry::new();
        let mut records = Vec::new();
        let mut upgrades = Vec::new();
        for user_index in 0..total {
            let mut fresh = GenScratch::new(world.config.days);
            world.observe_branches(
                user_index,
                &population.cohorts,
                &[None],
                std::slice::from_mut(&mut reg),
                &mut fresh,
                &mut |_, record, upgrade| {
                    records.push(record);
                    upgrades.extend(upgrade);
                },
            );
        }
        assert_eq!(records.len(), shared.records.len());
        assert_eq!(upgrades.len(), shared.upgrades.len());
        for (a, b) in shared.records.iter().zip(&records) {
            assert_eq!(a.user, b.user);
            assert_eq!(a.capacity, b.capacity);
            assert_eq!(a.demand_with_bt, b.demand_with_bt);
            assert_eq!(a.demand_no_bt, b.demand_no_bt);
            assert_eq!(a.upload_mean, b.upload_mean);
        }
    }

    #[test]
    fn empty_and_single_user_worlds_generate_cleanly() {
        // 0-user world: no countries at all — every entry point must
        // return an empty dataset rather than tripping over an empty
        // range.
        let mut cfg = WorldConfig::small(7);
        cfg.fcc_users = 0;
        let empty = World::with_countries(cfg.clone(), &[]);
        assert_eq!(empty.n_users(), 0);
        let ds = empty.generate_with_traced(ShardPlan::new(4, 2)).0;
        assert!(ds.records.is_empty() && ds.upgrades.is_empty());
        let (_, seen, _, _) =
            empty.fold_users_traced(ShardPlan::serial(), Vec::new, |acc: &mut Vec<u64>, _, _| {
                acc.push(1)
            });
        assert!(seen.is_empty());

        // 1-user world: a single cohort of one, which a two-shard plan
        // clamps to one shard.
        let mut one_cfg = WorldConfig::small(7);
        one_cfg.user_scale = 1e-9; // rounds to the max(1) floor
        one_cfg.fcc_users = 0;
        one_cfg.days = 1;
        let one = World::with_countries(one_cfg, &["JP"]);
        assert_eq!(one.n_users(), 1);
        let (baseline, base_reg, _) = one.generate_with_traced(ShardPlan::serial());
        assert!(baseline.records.len() <= 1);
        let (ds, reg, _) = one.generate_with_traced(ShardPlan::new(2, 2));
        assert_same_dataset(&baseline, &ds, "single user");
        assert_eq!(reg.to_json(), base_reg.to_json());
    }

    #[test]
    fn traced_registry_is_plan_invariant_and_populated() {
        let mut cfg = WorldConfig::small(7);
        cfg.user_scale = 0.4;
        cfg.fcc_users = 20;
        cfg.days = 2;
        let world = World::with_countries(cfg, &["US", "JP", "BW", "SA", "IN"]);
        let (serial_ds, serial_reg, serial_stats) = world.generate_with_traced(ShardPlan::serial());
        assert_eq!(
            serial_reg.counter("dataset.users.observed"),
            serial_ds.records.len() as u64
        );
        assert!(serial_reg.counter("netsim.collect.polls") > 0);
        assert!(serial_reg.counter("dataset.observations.upnp") > 0);
        assert!(serial_reg.counter("dataset.observations.fcc") > 0);
        assert_eq!(
            serial_reg.counter("dataset.users.upgraded"),
            serial_ds.upgrades.len() as u64
        );
        assert_eq!(serial_stats.shards, 1);

        for plan in [ShardPlan::new(8, 1), ShardPlan::new(8, 4)] {
            let (_, reg, stats) = world.generate_with_traced(plan);
            assert_eq!(
                reg.to_json(),
                serial_reg.to_json(),
                "registry must be byte-identical under {plan:?}"
            );
            assert_eq!(stats.shards, 8);
        }

        // The streaming path sees the same users, so the same registry.
        let (_, _n, fold_reg, _) = world.fold_users_traced(
            ShardPlan::new(8, 4),
            Vec::new,
            |acc: &mut Vec<u64>, _, _| acc.push(1),
        );
        assert_eq!(fold_reg.to_json(), serial_reg.to_json());
    }

    #[test]
    fn chaotic_generation_is_plan_invariant() {
        use bb_netsim::chaos::{ChaosScenario, ChaosSpec};
        let mut cfg = WorldConfig::small(7);
        cfg.user_scale = 0.4;
        cfg.fcc_users = 20;
        cfg.days = 2;
        cfg.chaos = Some(ChaosSpec::new(ChaosScenario::Omnibus, 0.75));
        let world = World::with_countries(cfg.clone(), &["US", "JP", "BW", "SA", "IN"]);
        let (serial_ds, serial_reg, _) = world.generate_with_traced(ShardPlan::serial());
        // The campaign really degrades the stream…
        assert!(serial_reg.counter("netsim.chaos.bursts") > 0);
        assert!(serial_reg.counter("netsim.chaos.resets_injected") > 0);
        assert!(serial_reg.counter("netsim.probe.failed_runs") > 0);
        // …and the degraded world is still plan-invariant.
        for plan in [ShardPlan::new(8, 4), ShardPlan::new(64, 3)] {
            let (ds, reg, _) = world.generate_with_traced(plan);
            assert_eq!(ds.records.len(), serial_ds.records.len());
            for (a, b) in serial_ds.records.iter().zip(&ds.records) {
                assert_eq!(a.user, b.user);
                assert_eq!(a.capacity, b.capacity);
                assert_eq!(a.demand_with_bt, b.demand_with_bt);
            }
            assert_eq!(
                reg.to_json(),
                serial_reg.to_json(),
                "chaotic registry must be byte-identical under {plan:?}"
            );
        }

        // ProbeBlackout at severity 1 quarantines roughly half the panel,
        // so kept and quarantined users interleave inside every shard.
        cfg.chaos = Some(ChaosSpec::new(ChaosScenario::ProbeBlackout, 1.0));
        let world = World::with_countries(cfg, &["US", "JP", "BW", "SA", "IN"]);
        let (serial_ds, serial_reg, _) = world.generate_with_traced(ShardPlan::serial());
        let (ds, reg, _) = world.generate_with_traced(ShardPlan::new(8, 4));
        assert_same_dataset(&serial_ds, &ds, "probe blackout");
        assert_eq!(reg.to_json(), serial_reg.to_json(), "probe blackout");
    }

    #[test]
    fn severity_zero_chaos_is_bit_identical_to_clean() {
        use bb_netsim::chaos::{ChaosScenario, ChaosSpec};
        let mut cfg = WorldConfig::small(7);
        cfg.user_scale = 0.4;
        cfg.fcc_users = 20;
        cfg.days = 2;
        let clean_world = World::with_countries(cfg.clone(), &["US", "JP", "BW", "SA", "IN"]);
        let (clean_ds, clean_reg, _) = clean_world.generate_with_traced(ShardPlan::new(8, 4));
        for scenario in ChaosScenario::ALL {
            let mut chaotic_cfg = cfg.clone();
            chaotic_cfg.chaos = Some(ChaosSpec::new(scenario, 0.0));
            let world = World::with_countries(chaotic_cfg, &["US", "JP", "BW", "SA", "IN"]);
            let (ds, reg, _) = world.generate_with_traced(ShardPlan::new(8, 4));
            assert_eq!(ds.records.len(), clean_ds.records.len());
            for (a, b) in clean_ds.records.iter().zip(&ds.records) {
                assert_eq!(a.capacity, b.capacity, "{}@0", scenario.name());
                assert_eq!(a.latency, b.latency);
                assert_eq!(a.demand_with_bt, b.demand_with_bt);
                assert_eq!(a.demand_no_bt, b.demand_no_bt);
            }
            assert_eq!(
                reg.to_json(),
                clean_reg.to_json(),
                "severity-0 {} must leave the registry untouched",
                scenario.name()
            );
        }
    }

    #[test]
    fn probe_blackouts_are_quarantined_and_accounted() {
        use bb_netsim::chaos::{ChaosScenario, ChaosSpec};
        let mut cfg = WorldConfig::small(7);
        cfg.user_scale = 0.4;
        cfg.fcc_users = 20;
        cfg.days = 2;
        cfg.chaos = Some(ChaosSpec::new(ChaosScenario::ProbeBlackout, 1.0));
        let world = World::with_countries(cfg, &["US", "JP", "BW", "SA", "IN"]);
        let (ds, reg, _) = world.generate_with_traced(ShardPlan::new(8, 4));
        // At severity 1 each of the 4 runs fails with p=0.85, so roughly
        // half the panel (0.85⁴ ≈ 0.52) loses every run.
        let blackouts = reg.counter("netsim.probe.blackouts");
        assert!(blackouts > 0, "expected blackouts at full severity");
        assert!(reg.counter("dataset.quality.quarantine.capacity_blackout") > 0);
        // Every observed user is either a kept record or a quarantined one.
        assert_eq!(
            reg.counter("dataset.users.observed"),
            ds.records.len() as u64 + reg.counter("dataset.quality.quarantined")
        );
        // Survivors all carry a real capacity measurement.
        assert!(ds.records.iter().all(|r| !r.capacity.is_zero()));
        // Upgrades hanging off blacked-out re-observations are screened too.
        assert_eq!(
            reg.counter("dataset.users.upgraded"),
            ds.upgrades.len() as u64
        );
        assert!(ds
            .upgrades
            .iter()
            .all(|up| !up.before.capacity.is_zero() && !up.after.capacity.is_zero()));
    }

    #[test]
    fn targeted_chaos_spares_other_countries() {
        use bb_netsim::chaos::{ChaosScenario, ChaosSpec};
        let mut cfg = WorldConfig::small(7);
        cfg.user_scale = 0.4;
        cfg.fcc_users = 0;
        cfg.days = 2;
        let countries = ["US", "JP", "BW", "SA", "IN"];
        let clean = World::with_countries(cfg.clone(), &countries).generate();
        let mut targeted_cfg = cfg.clone();
        targeted_cfg.chaos = Some(ChaosSpec::new(ChaosScenario::TargetedUs, 1.0));
        let targeted = World::with_countries(targeted_cfg, &countries).generate();
        // Non-US users are untouched, bit for bit.
        let non_us = |ds: &Dataset| -> Vec<UserRecord> {
            ds.records
                .iter()
                .filter(|r| r.country != Country::new("US"))
                .cloned()
                .collect()
        };
        let (a, b) = (non_us(&clean), non_us(&targeted));
        assert_eq!(a.len(), b.len());
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.user, rb.user);
            assert_eq!(ra.capacity, rb.capacity);
            assert_eq!(ra.demand_with_bt, rb.demand_with_bt);
        }
        // The US panel, by contrast, degrades: quarantines can only
        // shrink it, and the survivors' measurements shift.
        let us = |ds: &Dataset| -> Vec<UserRecord> {
            ds.in_country(Country::new("US")).cloned().collect()
        };
        let (cu, tu) = (us(&clean), us(&targeted));
        assert!(tu.len() <= cu.len());
        let shifted = cu
            .iter()
            .zip(&tu)
            .filter(|(a, b)| a.capacity != b.capacity || a.demand_with_bt != b.demand_with_bt)
            .count();
        assert!(
            shifted > 0,
            "targeted degradation should perturb US measurements"
        );
    }

    #[test]
    fn fold_users_sees_every_record_once() {
        let mut cfg = WorldConfig::small(7);
        cfg.user_scale = 0.4;
        cfg.fcc_users = 20;
        cfg.days = 2;
        let world = World::with_countries(cfg, &["US", "JP", "BW", "SA", "IN"]);
        let full = world.generate();
        let (survey, (n_records, n_upgrades, cap_sum), _, _) = world.fold_users_traced(
            ShardPlan::new(8, 4),
            || (Vec::new(), Vec::new(), Vec::new()),
            |acc, record, upgrade| {
                acc.0.push(1u64);
                acc.1.extend(upgrade.map(|_| 1u64));
                acc.2.push(record.capacity.mbps());
            },
        );
        assert_eq!(n_records.len(), full.records.len());
        assert_eq!(n_upgrades.len(), full.upgrades.len());
        let direct: Vec<f64> = full.records.iter().map(|r| r.capacity.mbps()).collect();
        assert_eq!(cap_sum, direct, "same records in the same order");
        assert_eq!(survey.len(), full.survey.len());
        assert_eq!(world.n_users() as usize, full.records.len());
    }

    #[test]
    fn cohorts_are_present() {
        let ds = tiny();
        assert!(ds.dasu().count() > 20);
        assert_eq!(ds.fcc().count(), 20);
        assert!(ds.fcc().all(|r| r.country == Country::new("US")));
        assert!(!ds.upgrades.is_empty());
        assert_eq!(ds.survey.len(), 5);
    }

    #[test]
    fn upgrades_actually_go_up() {
        let ds = tiny();
        let mut ratios: Vec<f64> = Vec::new();
        for up in &ds.upgrades {
            // Individual *measured* capacities can dip across an upgrade
            // (provisioning spread + probe noise), just like real NDT
            // readings; but never catastrophically…
            assert!(
                up.after.capacity > up.before.capacity * 0.5,
                "after {} vs before {}",
                up.after.capacity,
                up.before.capacity
            );
            ratios.push(up.after.capacity / up.before.capacity);
        }
        // …and the typical upgrade clearly raises capacity.
        ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        assert!(
            ratios[ratios.len() / 2] > 1.15,
            "median upgrade ratio {}",
            ratios[ratios.len() / 2]
        );
    }

    #[test]
    fn case_study_capacity_ordering() {
        // The Fig. 7a ordering: BW < SA < US < JP in median capacity.
        let mut cfg = WorldConfig::small(11);
        cfg.user_scale = 40.0; // enough users in the small countries
        cfg.fcc_users = 0;
        cfg.days = 1;
        let ds = World::with_countries(cfg, &["US", "JP", "BW", "SA"]).generate();
        let median_cap = |code: &str| {
            let mut caps: Vec<f64> = ds
                .in_country(Country::new(code))
                .map(|r| r.capacity.mbps())
                .collect();
            assert!(caps.len() >= 20, "{code}: {} users", caps.len());
            caps.sort_by(|a, b| a.partial_cmp(b).unwrap());
            caps[caps.len() / 2]
        };
        let (bw, sa, us, jp) = (
            median_cap("BW"),
            median_cap("SA"),
            median_cap("US"),
            median_cap("JP"),
        );
        assert!(bw < sa, "BW {bw} < SA {sa}");
        assert!(sa < us, "SA {sa} < US {us}");
        assert!(us < jp, "US {us} < JP {jp}");
    }

    #[test]
    fn utilization_ordering_reverses_capacity_ordering() {
        // Fig. 7b: "the countries appear in exactly reverse order".
        let mut cfg = WorldConfig::small(13);
        cfg.user_scale = 40.0;
        cfg.fcc_users = 0;
        cfg.days = 2;
        let ds = World::with_countries(cfg, &["US", "JP", "BW"]).generate();
        let mean_util = |code: &str| {
            let utils: Vec<f64> = ds
                .in_country(Country::new(code))
                .filter_map(|r| r.peak_utilization())
                .collect();
            utils.iter().sum::<f64>() / utils.len() as f64
        };
        let (bw, us, jp) = (mean_util("BW"), mean_util("US"), mean_util("JP"));
        assert!(bw > us, "BW {bw} should out-utilise US {us}");
        assert!(us > jp, "US {us} should out-utilise JP {jp}");
    }

    #[test]
    fn india_has_long_latency_records() {
        let ds = tiny();
        let in_lat: Vec<f64> = ds
            .in_country(Country::new("IN"))
            .map(|r| r.latency.ms())
            .collect();
        let us_lat: Vec<f64> = ds
            .in_country(Country::new("US"))
            .filter(|r| r.vantage == VantageKind::Dasu)
            .map(|r| r.latency.ms())
            .collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&in_lat) > 2.0 * mean(&us_lat));
    }

    #[test]
    fn demand_summaries_mostly_observed() {
        let ds = tiny();
        let observed = ds
            .records
            .iter()
            .filter(|r| r.demand_no_bt.is_some())
            .count();
        assert!(observed as f64 > 0.95 * ds.records.len() as f64);
    }

    #[test]
    fn n_users_counts_the_layout_the_population_uses() {
        let mut floor = WorldConfig::small(7);
        floor.user_scale = 1e-9; // every country at its one-user floor
        floor.fcc_users = 0;
        let worlds = [
            ("small", World::new(WorldConfig::small(7))),
            ("paper_scale", World::new(WorldConfig::paper_scale(7))),
            (
                "streaming",
                World::new(WorldConfig::streaming(7, 10_000, 1, 50)),
            ),
            ("floor", World::new(floor)),
            ("empty", World::with_countries(WorldConfig::small(7), &[])),
            (
                "no US, no FCC cohort",
                World::with_countries(WorldConfig::small(7), &["JP", "BW", "IN"]),
            ),
        ];
        for (name, world) in &worlds {
            assert_eq!(world.n_users(), world.population().n_users(), "{name}");
        }
        assert_eq!(worlds[3].1.n_users(), worlds[3].1.profiles.len() as u64);
        assert_eq!(worlds[4].1.n_users(), 0);
    }

    #[test]
    #[should_panic(expected = "overflows the u64 user index")]
    fn n_users_refuses_a_layout_that_overflows() {
        let spec = RunSpec {
            scale: 1e300,
            ..RunSpec::paper(1)
        };
        spec.world().n_users();
    }

    #[test]
    fn the_cohort_layout_is_checked_not_wrapped() {
        let world = branch_world();
        let ends = world.cohort_ends().unwrap();
        assert_eq!(ends.len(), world.profiles.len() + 1, "Dasu cohorts + FCC");
        assert!(ends.windows(2).all(|w| w[0] < w[1]), "{ends:?}");
        assert_eq!(ends.last().copied(), Some(world.n_users()));
        assert_eq!(
            ends[ends.len() - 1] - ends[ends.len() - 2],
            20,
            "FCC cohort"
        );
        let us_free = World::with_countries(world.config.clone(), &["JP", "BW"]);
        assert_eq!(us_free.cohort_ends().unwrap().len(), 2, "no FCC cohort");

        // Each of these sums past u64::MAX: a cohort count too large to
        // represent, two cohorts that overflow together, an FCC cohort
        // that overflows the Dasu total, and a streamed world sized
        // right at the limit.
        let max = u64::MAX;
        let too_big = [
            RunSpec {
                scale: 1e300,
                ..RunSpec::paper(1)
            },
            RunSpec {
                scale: 1e18,
                ..RunSpec::paper(1)
            },
            RunSpec {
                fcc_users: max as usize,
                ..RunSpec::paper(1)
            },
            RunSpec {
                users: Some(max),
                fcc_users: 0,
                ..RunSpec::paper(1)
            },
            RunSpec {
                users: Some(100),
                fcc_users: max as usize,
                ..RunSpec::paper(1)
            },
        ];
        for spec in too_big {
            let err = spec.validate().expect_err("must not lay out");
            assert!(err.contains("overflows the u64 user index"), "{err}");
        }
        // Large but representable worlds still lay out, and a tiny
        // streamed world keeps its one-user-per-country floor.
        let fits = RunSpec {
            users: Some(1 << 53),
            ..RunSpec::paper(1)
        };
        assert_eq!(fits.validate(), Ok(()));
        let floor = RunSpec {
            users: Some(1),
            fcc_users: 0,
            ..RunSpec::paper(1)
        };
        assert_eq!(floor.world().n_users(), floor.world().profiles.len() as u64);
    }

    #[test]
    fn empty_windows_and_degenerate_scales_are_refused() {
        let empty = RunSpec {
            days: 0,
            ..RunSpec::paper(1)
        };
        assert!(empty.validate().unwrap_err().contains("at least 1 day"));
        for scale in [0.0, -3.0, f64::NAN, f64::INFINITY] {
            let spec = RunSpec {
                scale,
                ..RunSpec::paper(1)
            };
            let err = spec.validate().expect_err("degenerate scale");
            assert!(err.contains("user scale"), "{scale}: {err}");
        }
    }

    fn param_text(spec: &RunSpec) -> String {
        let pairs: Vec<String> = spec
            .checkpoint_params()
            .pairs()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        pairs.join(" ")
    }

    #[test]
    fn params_pin_the_chaos_label_and_user_count() {
        use bb_netsim::chaos::ChaosScenario;
        let streaming = RunSpec {
            users: Some(900),
            days: 3,
            fcc_users: 60,
            chaos: Some(ChaosSpec::new(ChaosScenario::Omnibus, 0.5)),
            ..RunSpec::paper(1)
        };
        assert_eq!(
            param_text(&streaming),
            "path=streaming seed=1 scale=40 days=3 fcc=60 users=900 chaos=omnibus@0.5"
        );
        let materialised = RunSpec {
            scale: 2.5,
            days: 1,
            fcc_users: 20,
            ..RunSpec::paper(77)
        };
        assert_eq!(
            param_text(&materialised),
            "path=materialised seed=77 scale=2.5 days=1 fcc=20 users=- chaos=-"
        );
        let world = streaming.world_config();
        assert_eq!(
            world.user_scale,
            WorldConfig::streaming(1, 900, 3, 60).user_scale
        );
        assert_eq!((world.days, world.chaos), (3, streaming.chaos));
        assert_eq!(materialised.world_config().user_scale, 2.5);
    }
}
