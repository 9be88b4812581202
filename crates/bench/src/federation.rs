//! The federated streaming run: coordinator and worker entry points for
//! the `reproduce coordinator` / `reproduce worker` subcommands.
//!
//! `bb-federate` moves opaque shard payloads; this module fixes what a
//! payload *is* for the reproduction harness — the snapshot encoding of
//! one shard's `(StreamStudy, Registry)` partial, computed by
//! [`Population::fold`](bb_dataset::Population::fold), the exact
//! per-range body every in-process streaming fold uses. A worker builds
//! its job's population (instantiating the markets) once and folds every
//! lease it is granted from it. The coordinator
//! folds the payloads **in shard order** (the same `acc.merge(next)`
//! reduction as `bb_engine::run_sharded`) and returns the merged fold for
//! the publish step `reproduce --users` ends in too
//! ([`publish::stream`]). Byte-identity of `metrics.json`, the ledger,
//! and every exhibit with a single-process run therefore holds by
//! construction — and the crash batteries in
//! `crates/bench/tests/federate.rs` plus the CI `federation-smoke` job
//! `cmp` it anyway.
//!
//! With a checkpoint directory, every merged shard is committed through
//! the engine's [`CheckpointSession`](bb_engine::CheckpointSession) under
//! the run's [`RunSpec`] identity: a federated checkpoint is an ordinary
//! streaming checkpoint, which `reproduce --users --checkpoint` resumes
//! and which resumes what that command left behind.
//!
//! Process-dependent federation bookkeeping (reassignments, rejected
//! frames, per-worker counters) goes to the `.runtime.json` sidecar and
//! stderr — never into the deterministic artifacts, mirroring how the
//! checkpoint layer reports.

use crate::publish::{self, progress, Folded};
use bb_dataset::RunSpec;
use bb_engine::{CheckpointStore, Mergeable, Snapshot};
use bb_federate::{run_worker, Coordinator, CoordinatorConfig, FederationReport, JobSpec};
use bb_netsim::chaos::ChaosSpec;
use bb_study::StreamStudy;
use bb_trace::{Registry, Telemetry};
use std::cell::OnceCell;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

pub use bb_federate::WorkerOptions;

/// One shard's partial fold: the payload a worker sends back.
type Partial = (StreamStudy, Registry);

/// How `reproduce coordinator` executes a run. The run itself is a
/// [`RunSpec`]; where its artifacts go is a [`publish::Outputs`].
#[derive(Clone, Debug)]
pub struct CoordinatorArgs {
    /// Bind address, e.g. `127.0.0.1:0`.
    pub listen: String,
    /// Shard count to cut the user space into.
    pub shards: usize,
    /// Lease timeout before a silent shard is reassigned.
    pub lease_timeout: Duration,
    /// Read/write deadline on every worker socket.
    pub io_deadline: Duration,
    /// Durable checkpoint directory: every merged shard is committed here
    /// as it lands, so a killed coordinator can restart with `resume` and
    /// re-lease only the missing ranges.
    pub checkpoint: Option<PathBuf>,
    /// Restore committed shards from `checkpoint` before serving.
    pub resume: bool,
    /// Suppress progress lines on stderr.
    pub quiet: bool,
}

/// The wire job that carries `spec`, a streaming run of `users` requested
/// and `n_items` derived users, to the workers.
fn wire_job(spec: &RunSpec, users: u64, n_items: u64, shards: usize) -> JobSpec {
    JobSpec {
        seed: spec.seed,
        users,
        days: spec.days,
        fcc_users: spec.fcc_users as u64,
        chaos_scenario: spec
            .chaos
            .map_or_else(|| "-".into(), |c| c.scenario.name().to_string()),
        chaos_severity: spec.chaos.map_or(0.0, |c| c.severity),
        n_items,
        shards: shards.max(1) as u64,
    }
}

/// The run a wire job describes (worker side), validated like any other
/// outside input: a world that cannot be laid out is refused.
fn wire_spec(job: &JobSpec) -> Result<RunSpec, String> {
    let scenario = (job.chaos_scenario != "-").then_some(job.chaos_scenario.as_str());
    let spec = RunSpec {
        users: Some(job.users),
        days: job.days,
        fcc_users: usize::try_from(job.fcc_users).map_err(|_| "fcc overflows usize")?,
        chaos: ChaosSpec::parse(scenario, scenario.map(|_| job.chaos_severity))?,
        ..RunSpec::paper(job.seed)
    };
    spec.validate()?;
    Ok(spec)
}

/// Run the coordinator to completion: serve shard leases, and merge the
/// validated payloads in shard order into the same fold a
/// single-process `reproduce --users` run of `spec` produces.
pub fn run_coordinator(spec: &RunSpec, args: &CoordinatorArgs) -> Result<Folded, String> {
    let users = spec
        .users
        .ok_or("a federated run streams; it needs a user count")?;
    let n_items = spec.world().n_users();
    let mut config = CoordinatorConfig::new(wire_job(spec, users, n_items, args.shards));
    config.lease_timeout = args.lease_timeout;
    config.io_deadline = args.io_deadline;
    let coordinator = Coordinator::bind(&args.listen, config, Arc::new(Telemetry::system()))
        .map_err(|e| format!("bind {}: {e}", args.listen))?;
    let n_shards = coordinator.shard_count();
    // Restore through the same engine code as `reproduce --users
    // --checkpoint`: restored shards are never leased out.
    let session = match &args.checkpoint {
        None => None,
        Some(dir) => {
            let store = CheckpointStore::new(dir, spec.checkpoint_params());
            let (session, restored, report) = store
                .open::<Partial>(n_items, n_shards, args.resume)
                .map_err(|e| e.to_string())?;
            coordinator.preload(
                restored
                    .into_iter()
                    .enumerate()
                    .filter_map(|(index, partial)| Some((index, partial?.to_snapshot_string()))),
            );
            publish::checkpoint_status(args.quiet, &store, &report)?;
            Some(session)
        }
    };
    let addr = coordinator
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    progress(
        args.quiet,
        &format!(
            "federating {n_items} users over {n_shards} shards: seed {}, {} days, lease {:?}",
            spec.seed, spec.days, args.lease_timeout
        ),
    );
    // The bound address on stdout, flushed, so parents (tests, the CI
    // smoke job) can scrape the ephemeral port — same contract as
    // `bb-serve listening on …`.
    println!("bb-federate coordinator listening on {addr}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    let started = std::time::Instant::now();
    // Forged or corrupt payloads must die here, not at merge time: a
    // full decode is the validation.
    let validate = |_: u64, payload: &str| {
        Partial::from_snapshot_str(payload)
            .map(drop)
            .map_err(|e| e.to_string())
    };
    // Durability hook: each freshly merged shard is committed (shard
    // file, then manifest) as it lands.
    let persist = move |index: usize, payload: &str| -> Result<(), String> {
        let Some(session) = &session else {
            return Ok(());
        };
        let partial = Partial::from_snapshot_str(payload).map_err(|e| e.to_string())?;
        session.commit(index, &partial).map_err(|e| e.to_string())
    };
    let (payloads, report) = coordinator.run_with(validate, persist);
    report_federation(args.quiet, &report);

    // Decoded and folded in shard order: `run_sharded`'s reduction.
    let mut merged: Option<Partial> = None;
    for (shard, payload) in payloads.iter().enumerate() {
        let partial = Partial::from_snapshot_str(payload)
            .map_err(|e| format!("decode merged shard {shard}: {e}"))?;
        merged.merge(Some(partial));
    }
    let (study, registry) = merged.ok_or("no shards to merge")?;
    progress(
        args.quiet,
        &format!(
            "merged {} users ({} Dasu / {} FCC, {} movers) from {} workers in {:.1?}",
            study.users,
            study.dasu_users,
            study.fcc_users,
            study.movers,
            report.workers_seen,
            started.elapsed()
        ),
    );
    Ok(Folded {
        study,
        registry,
        runtime: runtime_json(&report),
    })
}

/// Run one worker process against `addr` until the coordinator finishes
/// it. Returns the number of shards computed.
pub fn run_worker_process(addr: &str, opts: &WorkerOptions, quiet: bool) -> Result<u64, String> {
    // The job's world outlives every lease computed from its population.
    let world = OnceCell::new();
    let report = run_worker(addr, opts, |job: &JobSpec| {
        let spec = wire_spec(job)?;
        let population = world.get_or_init(|| spec.world()).population();
        let derived = population.n_users();
        if derived != job.n_items {
            // Refuse rather than contaminate the merge: a worker whose
            // derivation disagrees would fold different users.
            return Err(format!(
                "user-count mismatch: coordinator pinned {} users, this worker derives {derived}",
                job.n_items
            ));
        }
        progress(
            quiet,
            &format!(
                "worker: joined job seed {} ({} users, {} shards)",
                job.seed, job.n_items, job.shards
            ),
        );
        Ok(move |_shard: u64, range: std::ops::Range<u64>| {
            population
                .fold(range, StreamStudy::new(), |s, r, u| s.absorb(r, u))
                .to_snapshot_string()
        })
    })?;
    progress(
        quiet,
        &format!(
            "worker {}: computed {} shard(s) over {} reconnect(s), coordinator finished",
            report.worker, report.computed, report.reconnects
        ),
    );
    Ok(report.computed)
}

fn report_federation(quiet: bool, report: &FederationReport) {
    progress(
        quiet,
        &format!(
            "federation: {} workers, {} reassignments, {} rejected frames, \
             {} rejected results, {} duplicates, {} reconnects, \
             {} deadline expiries, {} resumed shards",
            report.workers_seen,
            report.reassignments,
            report.frames_rejected,
            report.results_rejected,
            report.duplicate_results,
            report.worker_reconnects,
            report.deadline_expiries,
            report.resumed_shards
        ),
    );
    for reason in &report.reasons {
        progress(quiet, &format!("federation: {reason}"));
    }
}

/// The federation-shaped `.runtime.json` sidecar: the coordinator's
/// analogue of the single-process scheduling sidecar.
fn runtime_json(report: &FederationReport) -> String {
    format!(
        "{{\n  \"federation\": {{\"workers\": {}, \"reassignments\": {}, \
         \"rejected_frames\": {}, \"rejected_results\": {}, \"duplicates\": {}, \
         \"reconnects\": {}, \"deadline_expiries\": {}, \"resumed_shards\": {}}}\n}}\n",
        report.workers_seen,
        report.reassignments,
        report.frames_rejected,
        report.results_rejected,
        report.duplicate_results,
        report.worker_reconnects,
        report.deadline_expiries,
        report.resumed_shards
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_netsim::chaos::ChaosScenario;

    #[test]
    fn the_wire_job_round_trips_the_run_spec() {
        let chaotic = RunSpec {
            users: Some(900),
            days: 2,
            fcc_users: 30,
            chaos: Some(ChaosSpec::new(ChaosScenario::TargetedUs, 0.75)),
            ..RunSpec::paper(11)
        };
        let clean = RunSpec {
            chaos: None,
            ..chaotic
        };
        for spec in [chaotic, clean] {
            assert_eq!(wire_spec(&wire_job(&spec, 900, 912, 4)), Ok(spec));
        }
        let mut forged = wire_job(&chaotic, 900, 912, 4);
        forged.chaos_severity = 1.5;
        assert!(wire_spec(&forged).is_err());
        forged.chaos_scenario = "nope".into();
        assert!(wire_spec(&forged).is_err());
    }

    #[test]
    fn a_wire_job_whose_world_cannot_be_laid_out_is_refused() {
        let spec = RunSpec {
            users: Some(900),
            ..RunSpec::paper(11)
        };
        for (users, fcc_users) in [(u64::MAX, 0), (900, u64::MAX)] {
            let mut job = wire_job(&spec, 900, 912, 4);
            (job.users, job.fcc_users) = (users, fcc_users);
            let err = wire_spec(&job).expect_err("job must be refused");
            assert!(err.contains("overflows the u64 user index"), "{err}");
        }
    }
}
