//! `federate`: the `stream` job farmed out through `bb-federate`. A
//! coordinator on loopback whose validator fully decodes every payload,
//! as `reproduce coordinator` does; two worker threads running the body
//! of `reproduce worker`; then decode, shard-order merge, provenance and
//! bundle. Users and plan are those of `stream`, so the gap between the
//! two workloads is the protocol's cost: snapshot codec, frames, leases.

use crate::measure::{
    digest, expect_eq, latency, median, millis, secs, set_up_reps, LayerClock, Metric, Tally,
};
use crate::stream::{self, Job};
use crate::{check_golden, repeat_for, RunConfig, Spans, PLAN};
use bb_bench::federation::{run_worker_process, WorkerOptions};
use bb_engine::{Mergeable, Snapshot};
use bb_federate::{Coordinator, CoordinatorConfig, FederationReport, JobSpec};
use bb_study::StreamStudy;
use bb_trace::{Registry, Telemetry};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker threads; with the coordinator's merge that is the two cores.
const WORKERS: u64 = 2;

fn bind(job: &Job, n_items: u64) -> Coordinator {
    let spec = JobSpec {
        seed: job.seed,
        users: job.users,
        days: stream::DAYS,
        fcc_users: job.fcc_users as u64,
        chaos_scenario: "-".into(),
        chaos_severity: 0.0,
        n_items,
        shards: PLAN.shards as u64,
    };
    Coordinator::bind(
        "127.0.0.1:0",
        CoordinatorConfig::new(spec),
        Arc::new(Telemetry::system()),
    )
    .expect("bind a loopback coordinator")
}

/// Decode one shard payload the way the coordinator validates it.
fn decode(payload: &str) -> Result<(StreamStudy, Registry), String> {
    <(StreamStudy, Registry)>::from_snapshot_str(payload).map_err(|e| e.to_string())
}

struct FedRun {
    digest: String,
    render_bytes: usize,
    check: Result<(), String>,
    total: Duration,
    fold: Duration,
    coordinate: Duration,
    report: FederationReport,
    shards: usize,
    /// Validator and merge-side decodes: time, count, payload bytes.
    decode: Duration,
    decodes: u64,
    bytes: u64,
    merge: Duration,
    provenance: Duration,
    render: Duration,
    exit_lag: Duration,
    teardown: Duration,
}

fn federated_job(
    job: &Job,
    n_items: u64,
    coordinator: Coordinator,
    validator: &Arc<LayerClock>,
    spans: &mut Spans,
) -> FedRun {
    let addr = coordinator
        .local_addr()
        .expect("coordinator address")
        .to_string();
    let start = Instant::now();
    let workers: Vec<_> = (0..WORKERS)
        .map(|w| {
            let addr = addr.clone();
            let opts = WorkerOptions {
                backoff_seed: job.seed.wrapping_add(w),
                ..WorkerOptions::default()
            };
            std::thread::spawn(move || run_worker_process(&addr, &opts, true))
        })
        .collect();
    let clock = Arc::clone(validator);
    let ((payloads, report), coordinate) = spans.time("federate.coordinate", || {
        coordinator.run_with(
            move |_, payload: &str| clock.time(payload.len(), || decode(payload).map(|_| ())),
            |_, _| Ok(()),
        )
    });
    let coordinated = Instant::now();
    let (partials, merge_decode) = spans.time("engine.snapshot_decode", || {
        payloads
            .iter()
            .map(|p| decode(p))
            .collect::<Result<Vec<_>, _>>()
    });
    let (merged, merge) = spans.time("engine.merge", || {
        partials.map(|parts| {
            parts.into_iter().reduce(|mut acc, next| {
                acc.merge(next);
                acc
            })
        })
    });
    let fold = start.elapsed();
    let (files, check, provenance, render) = match merged {
        Ok(Some((study, registry))) => {
            let observed = registry.counter("dataset.users.observed");
            let (files, provenance, render) = stream::publish(job.seed, &study, registry, spans);
            let check = expect_eq("users observed", observed, n_items);
            (files, check, provenance, render)
        }
        Ok(None) => (
            Vec::new(),
            Err("no shards".into()),
            Duration::ZERO,
            Duration::ZERO,
        ),
        Err(e) => (
            Vec::new(),
            Err(format!("merge decode: {e}")),
            Duration::ZERO,
            Duration::ZERO,
        ),
    };
    let total = start.elapsed();
    let (computed, teardown) = spans.time("federate.teardown", || {
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|_| Err("worker panicked".into())))
            .collect::<Result<Vec<u64>, String>>()
    });
    let exit_lag = coordinated.elapsed();
    let (validate, validated, bytes) = validator.take();
    let check = check
        .and_then(|()| computed.map(|c| c.iter().sum::<u64>()))
        .and_then(|sum| {
            if sum >= payloads.len() as u64 {
                Ok(())
            } else {
                Err(format!(
                    "workers computed {sum} of {} shards",
                    payloads.len()
                ))
            }
        })
        .and_then(|()| expect_eq("shards merged", payloads.len(), PLAN.shards))
        .and_then(|()| {
            expect_eq(
                "reassignments and rejections",
                report.reassignments + report.frames_rejected + report.results_rejected,
                0,
            )
        });
    FedRun {
        digest: digest(&files),
        render_bytes: stream::bundle_bytes(&files),
        check,
        total,
        fold,
        coordinate,
        report,
        shards: payloads.len(),
        decode: validate + merge_decode,
        decodes: validated + payloads.len() as u64,
        bytes,
        merge,
        provenance,
        render,
        exit_lag,
        teardown,
    }
}

pub fn run(cfg: &RunConfig, spans: &mut Spans) -> (Tally, Vec<Metric>) {
    let job = Job::for_run(cfg);
    let mut tally = Tally::default();

    // The in-process fold of the same job is the reference every
    // federated result must match byte for byte.
    let (world, n_users, _) = stream::set_up(&job);
    let reference = stream::run_job(&job, &world, n_users, PLAN, None, &mut Spans::new(false));
    tally.op(reference
        .check
        .and_then(|()| check_golden(cfg, "stream", job.seed, &reference.digest)));
    drop(world);

    let validator = Arc::new(LayerClock::default());
    let mut setup = Vec::new();
    let mut market_ms = Vec::new();
    let mut runs = Vec::new();
    repeat_for(cfg.seconds, 1, |_| {
        spans.begin("federate.job");
        // The coordinator's set-up: derive the user count, bind.
        let ((n_items, coordinator), _) = spans.time("setup", || {
            set_up_reps(stream::SETUP_REPS, &mut setup, || {
                let (_, n_items, market) = stream::set_up(&job);
                market_ms.push(millis(market));
                (n_items, bind(&job, n_items))
            })
        });
        let run = federated_job(&job, n_items, coordinator, &validator, spans);
        spans.end();
        let check = run.check.clone().and_then(|()| {
            expect_eq(
                "digest against the in-process fold",
                &run.digest,
                &reference.digest,
            )
        });
        tally.op(check);
        runs.push((run, n_items));
    });

    let n = runs.len();
    let over =
        |f: &dyn Fn(&FedRun) -> f64| median(&runs.iter().map(|(r, _)| f(r)).collect::<Vec<_>>());
    let rate: Vec<f64> = runs
        .iter()
        .map(|(r, users)| *users as f64 / secs(r.fold))
        .collect();
    let job_ms: Vec<f64> = runs.iter().map(|(r, _)| millis(r.total)).collect();
    let mut metrics = vec![
        Metric::new("setup_s", median(&setup), "s", setup.len()),
        Metric::new("users_per_s", median(&rate), "users/s", n),
        Metric::new(
            "dataset.build_market_ms",
            median(&market_ms),
            "ms",
            market_ms.len(),
        ),
        Metric::new(
            "federate.coordinate_s",
            over(&|r| secs(r.coordinate)),
            "s",
            n,
        ),
        Metric::new("federate.shards", over(&|r| r.shards as f64), "count", n),
        Metric::new(
            "federate.reassignments",
            over(&|r| r.report.reassignments as f64),
            "count",
            n,
        ),
        Metric::new(
            "federate.rejected",
            over(&|r| (r.report.frames_rejected + r.report.results_rejected) as f64),
            "count",
            n,
        ),
        Metric::new("federate.exit_lag_s", over(&|r| secs(r.exit_lag)), "s", n),
        Metric::new(
            "engine.snapshot_decodes",
            over(&|r| r.decodes as f64),
            "count",
            n,
        ),
        Metric::new(
            "engine.snapshot_decode_s",
            over(&|r| secs(r.decode)),
            "s",
            n,
        ),
        Metric::new(
            "engine.snapshot_bytes",
            over(&|r| r.bytes as f64),
            "bytes",
            n,
        ),
        Metric::new("engine.merge_s", over(&|r| secs(r.merge)), "s", n),
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
        Metric::new("teardown_s", over(&|r| secs(r.teardown)), "s", n),
    ];
    metrics.extend(latency("federate", &job_ms));
    (tally, metrics)
}
