//! `stream`: the million-user scale path. A streaming fold of the world's
//! users into `StreamStudy` sketches, then the provenance counters and
//! ledger and the exhibit bundle, exactly as `reproduce --users` runs it.
//! It bypasses chaos, the analysis battery, checkpoints, HTTP and the
//! wire, so generation dominates and any hot-path change shows here.

use crate::measure::{
    digest, expect_eq, latency, median, millis, secs, set_up_reps, LayerClock, Metric, Tally,
};
use crate::{check_golden, repeat_for, RunConfig, Spans, PLAN};
use bb_dataset::{World, WorldConfig};
use bb_engine::{RunStats, ShardPlan};
use bb_report::bundle;
use bb_study::{provenance, StreamStudy};
use bb_trace::{EventLog, Registry};
use std::time::{Duration, Instant};

/// Observation window of a streamed user, days.
pub const DAYS: u32 = 1;

/// Set-ups timed per job; `setup_s` is the median over the run.
pub const SETUP_REPS: usize = 3;

/// One streaming job's inputs.
#[derive(Clone, Copy, Debug)]
pub struct Job {
    pub seed: u64,
    pub users: u64,
    pub fcc_users: usize,
}

impl Job {
    /// The job every `stream` and `federate` run repeats: 5k users is
    /// ~0.4 s at two threads, so a run's median spans about sixty jobs
    /// and shrugs off the seconds-long slow spells of a shared host.
    pub fn for_run(cfg: &RunConfig) -> Job {
        let (users, fcc_users) = if cfg.tiny { (1_500, 60) } else { (5_000, 600) };
        Job {
            seed: cfg.seed,
            users,
            fcc_users,
        }
    }

    fn world(&self) -> World {
        World::new(WorldConfig::streaming(
            self.seed,
            self.users,
            DAYS,
            self.fcc_users,
        ))
    }
}

/// The workload's set-up: build the world and count its users (which
/// instantiates every market). Returns the `n_users` wall time too.
pub fn set_up(job: &Job) -> (World, u64, Duration) {
    let world = job.world();
    let start = Instant::now();
    let n_users = world.n_users();
    (world, n_users, start.elapsed())
}

/// The files `reproduce --users` writes for a folded study, in its
/// order: `metrics.json`, `ledger.jsonl`, then the exhibit bundle. Also
/// returns the provenance and render wall times.
pub fn publish(
    seed: u64,
    study: &StreamStudy,
    mut registry: Registry,
    spans: &mut Spans,
) -> (Vec<(String, String)>, Duration, Duration) {
    let (ledger, provenance_time) = spans.time("study.provenance", || {
        provenance::register_stream_metrics(&mut registry, study);
        let mut ledger = EventLog::new();
        provenance::stream_provenance(&mut ledger, seed, study, &registry);
        ledger
    });
    let (exhibits, render_time) =
        spans.time("report.render", || bundle::stream_exhibit_files(study));
    let mut files = vec![
        ("metrics.json".to_string(), registry.to_json()),
        ("ledger.jsonl".to_string(), ledger.to_jsonl()),
    ];
    files.extend(exhibits);
    (files, provenance_time, render_time)
}

/// The bytes of the exhibit bundle (everything after metrics and ledger).
pub fn bundle_bytes(files: &[(String, String)]) -> usize {
    files.iter().skip(2).map(|(_, c)| c.len()).sum()
}

/// One finished job: its output digest, checks and timings.
pub struct JobRun {
    pub digest: String,
    pub render_bytes: usize,
    pub check: Result<(), String>,
    pub fold: Duration,
    pub total: Duration,
    pub stats: RunStats,
    pub provenance: Duration,
    pub render: Duration,
    /// Time inside `StreamStudy::absorb` (only with a layer clock).
    pub absorb: Duration,
}

/// Fold, publish and check one job. With `clock`, every absorb call on
/// the engine threads is timed into it.
pub fn run_job(
    job: &Job,
    world: &World,
    n_users: u64,
    plan: ShardPlan,
    clock: Option<&LayerClock>,
    spans: &mut Spans,
) -> JobRun {
    let start = Instant::now();
    let ((_, study, registry, stats), fold) = spans.time("engine.fold", || match clock {
        Some(clock) => world.fold_users_traced(plan, StreamStudy::new, |s, r, u| {
            clock.time(0, || s.absorb(r, u))
        }),
        None => world.fold_users_traced(plan, StreamStudy::new, |s, r, u| s.absorb(r, u)),
    });
    let observed = registry.counter("dataset.users.observed");
    let (files, provenance, render) = publish(job.seed, &study, registry, spans);
    let total = start.elapsed();
    let check = expect_eq("users observed", observed, n_users).and_then(|()| {
        if study.users > 0 && study.users <= n_users {
            Ok(())
        } else {
            Err(format!("{} users folded of {n_users}", study.users))
        }
    });
    JobRun {
        digest: digest(&files),
        render_bytes: bundle_bytes(&files),
        check,
        fold,
        total,
        stats,
        provenance,
        render,
        absorb: clock.map_or(Duration::ZERO, |c| c.take().0),
    }
}

pub fn run(cfg: &RunConfig, spans: &mut Spans) -> (Tally, Vec<Metric>) {
    let job = Job::for_run(cfg);
    let mut tally = Tally::default();
    let clock = LayerClock::default();
    let mut layers = Vec::new();
    let mut serial_rate = 0.0;
    if cfg.trace {
        // One thread over the same shard cut: generation cost per user
        // without contention, and the base of the scaling efficiency.
        let serial = Job {
            users: if cfg.tiny { 600 } else { 10_000 },
            ..job
        };
        let (serial_world, serial_users, _) = set_up(&serial);
        spans.begin("stream.serial");
        let run = run_job(
            &serial,
            &serial_world,
            serial_users,
            ShardPlan::new(PLAN.shards, 1),
            Some(&clock),
            spans,
        );
        spans.end();
        tally.op(run.check);
        let gen = run.stats.work.saturating_sub(run.absorb);
        layers.push(Metric::new(
            "dataset.gen_us_per_user",
            secs(gen) * 1e6 / serial_users as f64,
            "us",
            serial_users as usize,
        ));
        serial_rate = serial_users as f64 / secs(run.fold);
    }

    // Untraced jobs give the end-to-end numbers; a traced run alternates
    // them with traced jobs, whose ratio is the tracing overhead.
    let mut setup = Vec::new();
    let mut market_ms = Vec::new();
    let mut teardown = Vec::new();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut reference: Option<String> = None;
    let mut quiet = Spans::new(false);
    let mut n_users = 0;
    repeat_for(cfg.seconds, if cfg.trace { 2 } else { 1 }, |i| {
        let with_trace = cfg.trace && i % 2 == 1;
        let spans: &mut Spans = if with_trace { &mut *spans } else { &mut quiet };
        spans.begin("stream.job");
        let ((world, users), _) = spans.time("setup", || {
            set_up_reps(SETUP_REPS, &mut setup, || {
                let (world, users, market) = set_up(&job);
                market_ms.push(millis(market));
                (world, users)
            })
        });
        n_users = users;
        let run = run_job(
            &job,
            &world,
            n_users,
            PLAN,
            with_trace.then_some(&clock),
            spans,
        );
        let ((), released) = spans.time("teardown", move || drop(world));
        spans.end();
        teardown.push(secs(released));
        let check = run.check.clone().and_then(|()| match &reference {
            None => check_golden(cfg, "stream", job.seed, &run.digest),
            Some(first) => expect_eq("repeated job digest", &run.digest, first),
        });
        reference.get_or_insert_with(|| run.digest.clone());
        tally.op(check);
        if with_trace {
            traced.push(run);
        } else {
            plain.push(run);
        }
    });

    let job_ms: Vec<f64> = plain.iter().map(|r| millis(r.total)).collect();
    let rate: Vec<f64> = plain
        .iter()
        .map(|r| n_users as f64 / secs(r.fold))
        .collect();
    let mut metrics = vec![
        Metric::new("setup_s", median(&setup), "s", setup.len()),
        Metric::new("users_per_s", median(&rate), "users/s", rate.len()),
        Metric::new("teardown_s", median(&teardown), "s", teardown.len()),
        Metric::new(
            "dataset.build_market_ms",
            median(&market_ms),
            "ms",
            market_ms.len(),
        ),
    ];
    metrics.extend(latency("stream", &job_ms));
    if cfg.trace {
        let n = traced.len();
        let over = |f: &dyn Fn(&JobRun) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        let traced_ms = over(&|r| millis(r.total));
        let traced_rate = over(&|r| n_users as f64 / secs(r.fold));
        layers.extend([
            Metric::new(
                "study.absorb_us_per_user",
                over(&|r| secs(r.absorb) * 1e6 / n_users as f64),
                "us",
                n,
            ),
            Metric::new("engine.work_s", over(&|r| secs(r.stats.work)), "s", n),
            Metric::new("engine.merge_s", over(&|r| secs(r.stats.merge)), "s", n),
            Metric::new(
                "engine.steals",
                over(&|r| r.stats.steals as f64),
                "count",
                n,
            ),
            Metric::new(
                "engine.scaling_eff",
                traced_rate / (PLAN.threads as f64 * serial_rate),
                "ratio",
                n,
            ),
            Metric::new(
                "study.provenance_ms",
                over(&|r| millis(r.provenance)),
                "ms",
                n,
            ),
            Metric::new("report.render_ms", over(&|r| millis(r.render)), "ms", n),
            Metric::new(
                "report.render_bytes",
                over(&|r| r.render_bytes as f64),
                "bytes",
                n,
            ),
            Metric::new(
                "trace_overhead",
                traced_ms / median(&job_ms) - 1.0,
                "ratio",
                n,
            ),
        ]);
    }
    metrics.extend(layers);
    (tally, metrics)
}
