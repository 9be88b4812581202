//! A run's artifacts: the one publish step every artifact-writing
//! `reproduce` subcommand ends in.
//!
//! Every run lays out one artifact set — `metrics.json`, `ledger.jsonl`,
//! then its exhibit files — and [`write_run`] writes it. A streaming run
//! executes either in this process (`reproduce --users`) or across worker
//! processes (`reproduce coordinator`); both hand the merged fold to
//! [`stream`], whose set is [`bundle::stream_run_files`] — the file set
//! the serve gateway caches too. The materialised paper run hands its
//! generated panel to [`paper`], which runs the analysis battery and the
//! requested sweeps and returns its set. Only the `.runtime.json` sidecar
//! says how a run executed.

use bb_dataset::{Dataset, World, WorldConfig};
use bb_engine::{atomic_write, CheckpointReport, CheckpointStore, RunStats, ShardPlan};
use bb_netsim::chaos::ChaosScenario;
use bb_report::{bundle, markdown};
use bb_study::ext::Extensions;
use bb_study::robustness::{chaos_sweep, seed_sweep_with};
use bb_study::{provenance, StreamStudy, StudyReport};
use bb_trace::{EventLog, Registry, Timings};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Where a run's artifacts go.
#[derive(Debug)]
pub struct Outputs {
    /// Exhibit directory.
    pub out: PathBuf,
    /// Metrics registry JSON, plus a `.runtime.json` sidecar beside it.
    pub metrics: Option<PathBuf>,
    /// Provenance ledger JSONL.
    pub ledger: Option<PathBuf>,
    /// Suppress progress lines on stderr.
    pub quiet: bool,
}

/// A merged streaming fold, ready to publish.
#[derive(Debug)]
pub struct Folded {
    /// The merged sketch study.
    pub study: StreamStudy,
    /// The merged per-user registry (plan-invariant data events).
    pub registry: Registry,
    /// This execution's `.runtime.json` sidecar: plan-, process- and
    /// machine-dependent, so never one of the artifacts.
    pub runtime: String,
}

/// A progress line on stderr, unless `quiet`.
pub fn progress(quiet: bool, line: &str) {
    if !quiet {
        eprintln!("{line}");
    }
}

/// Write `content` to `path` atomically (tmp → fsync → rename), creating
/// the parent directory first.
pub fn write_file(path: &Path, content: &str) -> Result<(), String> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
    }
    atomic_write(path, content).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Write a run's artifact set: the leading `metrics.json` and
/// `ledger.jsonl` where `outputs` asks for them, with the `runtime`
/// sidecar beside the metrics, and every other file under `outputs.out`.
pub fn write_run(
    outputs: &Outputs,
    runtime: &str,
    files: &[(String, String)],
) -> Result<(), String> {
    let [(_, metrics), (_, ledger), exhibits @ ..] = files else {
        unreachable!("a run's artifact set leads with metrics.json and ledger.jsonl");
    };
    std::fs::create_dir_all(&outputs.out)
        .map_err(|e| format!("create {}: {e}", outputs.out.display()))?;
    if let Some(path) = &outputs.metrics {
        write_file(path, metrics)?;
        let sidecar = path.with_extension("runtime.json");
        write_file(&sidecar, runtime)?;
        progress(
            outputs.quiet,
            &format!(
                "wrote metrics to {} (runtime sidecar {})",
                path.display(),
                sidecar.display()
            ),
        );
    }
    if let Some(path) = &outputs.ledger {
        write_file(path, ledger)?;
        progress(
            outputs.quiet,
            &format!(
                "wrote provenance ledger ({} events) to {}",
                ledger.lines().count(),
                path.display()
            ),
        );
    }
    for (name, content) in exhibits {
        std::fs::write(outputs.out.join(name), content)
            .map_err(|e| format!("write {name}: {e}"))?;
    }
    Ok(())
}

/// Publish a merged streaming fold of the run seeded `seed`: the
/// artifact set of [`bundle::stream_run_files`], and the
/// paper-vs-measured table on stdout.
pub fn stream(outputs: &Outputs, seed: u64, folded: Folded) -> Result<(), String> {
    let files = bundle::stream_run_files(seed, &folded.study, folded.registry, None);
    write_run(outputs, &folded.runtime, &files)?;
    let study = &folded.study;
    if let Some(stats) = study.population_stats() {
        println!("# Streaming scale run\n");
        println!("| quantity | paper | measured |");
        println!("|---|---|---|");
        println!("| users streamed | — | {} |", study.users);
        println!(
            "| median download capacity | 7.4 Mbps | {:.1} Mbps |",
            stats.median_capacity_mbps
        );
        println!(
            "| share below 1 Mbps | ~10% | {:.0}% |",
            stats.frac_below_1mbps * 100.0
        );
        println!(
            "| median latency | ~100 ms | {:.0} ms |",
            stats.median_latency_ms
        );
        println!(
            "| share with loss > 1% | ~14% | {:.1}% |",
            stats.frac_loss_above_1pct * 100.0
        );
    }
    progress(
        outputs.quiet,
        &format!("wrote streaming exhibits to {}", outputs.out.display()),
    );
    Ok(())
}

/// The sweeps a paper run adds to its analysis battery.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sweeps {
    /// Regenerated seeds of the robustness sweep (`--sweep N`; 0: none).
    pub seeds: u64,
    /// Run the chaos campaign over the severity grid 0, ¼, ½, ¾, 1 of the
    /// world's scenario, omnibus by default (`--chaos-sweep`).
    pub chaos: bool,
}

/// The chaos campaign's severity grid. Starts at the mandatory fault-free
/// baseline; the survival thresholds are derived against it.
const CHAOS_GRID: &[f64] = &[0.0, 0.25, 0.5, 0.75, 1.0];

/// The materialised paper run's whole artifact set, from the panel
/// `world` generated — `dataset`, and the merged data events `registry`:
/// `metrics.json`, `ledger.jsonl`, every exhibit file and `ext.txt`
/// ([`bundle::paper_exhibit_files`]), `chaos.json` after a chaos
/// campaign, and `experiments.md` last. The sweeps regenerate a reduced
/// world per cell and execute under `plan`, which changes no byte.
/// `timings` records the `analysis` and `render` phases.
pub fn paper(
    world: &World,
    dataset: &Dataset,
    registry: &Registry,
    sweeps: Sweeps,
    plan: ShardPlan,
    quiet: bool,
    timings: &mut Timings,
) -> Vec<(String, String)> {
    let cfg = &world.config;
    let say = |line: String| progress(quiet, &line);
    let started = Instant::now();
    timings.begin("analysis");
    let mut ledger = EventLog::new();
    ledger
        .emit("dataset")
        .u64("seed", cfg.seed)
        .u64("records", dataset.records.len() as u64)
        .u64("dasu", dataset.dasu().count() as u64)
        .u64("fcc", dataset.fcc().count() as u64)
        .u64("movers", dataset.upgrades.len() as u64)
        .u64("markets", dataset.survey.len() as u64);
    provenance::log_data_quality(&mut ledger, registry);
    let report = StudyReport::run_with_ledger(dataset, &world.profiles, 30, &mut ledger);
    timings.end();
    say(format!(
        "analysis pipeline finished in {:.1?}",
        started.elapsed()
    ));

    timings.begin("render");
    let ext = Extensions::run(dataset);
    let mut files = vec![
        ("metrics.json".to_string(), registry.to_json()),
        ("ledger.jsonl".to_string(), ledger.to_jsonl()),
    ];
    files.extend(bundle::paper_exhibit_files(&report, &ext.table));
    // The seed and chaos sweeps regenerate a reduced world per cell to
    // stay affordable.
    let mut reduced = WorldConfig::small(cfg.seed);
    reduced.user_scale = (cfg.user_scale / 3.0).max(1.0);
    reduced.days = 3;
    reduced.fcc_users = cfg.fcc_users / 2;
    let sweep = (sweeps.seeds > 0).then(|| {
        say(format!(
            "running robustness sweep over {} seeds…",
            sweeps.seeds
        ));
        seed_sweep_with(&reduced, sweeps.seeds, plan)
    });
    let chaos = sweeps.chaos.then(|| {
        let scenario = cfg.chaos.map_or(ChaosScenario::Omnibus, |c| c.scenario);
        let name = scenario.name();
        say(format!(
            "running chaos campaign: scenario {name} over severities {CHAOS_GRID:?}…"
        ));
        chaos_sweep(&reduced, scenario, CHAOS_GRID, plan)
    });
    let experiments = markdown::experiments(
        &report,
        &ext,
        sweep.as_deref().map(|rows| (sweeps.seeds, rows)),
        chaos.as_ref(),
        &ledger,
    );
    files.extend(chaos.map(|matrix| ("chaos.json".to_string(), matrix.to_json())));
    files.push(("experiments.md".to_string(), experiments));
    timings.end();
    files
}

/// An in-process run's `.runtime.json` sidecar: the shard plan, steal
/// counts and wall times, plus the `checkpoint.*` counters when the run
/// was checkpointed (process-dependent, like the wall times).
pub fn runtime_json(stats: &RunStats, ckpt: Option<&CheckpointReport>) -> String {
    let mut walls = String::new();
    for (i, (bucket, count)) in stats.shard_wall_us.buckets().enumerate() {
        if i > 0 {
            walls.push_str(", ");
        }
        let _ = write!(walls, "[{bucket}, {count}]");
    }
    let checkpoint = match ckpt {
        Some(report) => format!(
            ",\n  \"checkpoint\": {{\"skipped\": {}, \"recomputed\": {}, \"rejected\": {}}}",
            report.skipped, report.recomputed, report.rejected
        ),
        None => String::new(),
    };
    format!(
        "{{\n  \"plan\": {{\"shards\": {}, \"threads\": {}}},\n  \"items\": {},\n  \"steals\": {},\n  \"work_us\": {},\n  \"merge_us\": {},\n  \"total_us\": {},\n  \"shard_wall_us_log2_buckets\": [{walls}]{checkpoint}\n}}\n",
        stats.shards,
        stats.threads,
        stats.items,
        stats.steals,
        stats.work.as_micros(),
        stats.merge.as_micros(),
        stats.total.as_micros()
    )
}

/// Log a checkpoint outcome and write `DIR/status.json` with the
/// `checkpoint.*` counters. The counters describe *this process* (a
/// resumed run skips, a cold run recomputes), so they go to the
/// checkpoint directory and the runtime sidecar — never the
/// plan-invariant metrics registry or the exhibits.
pub fn checkpoint_status(
    quiet: bool,
    store: &CheckpointStore,
    report: &CheckpointReport,
) -> Result<(), String> {
    progress(
        quiet,
        &format!(
            "checkpoint: {} skipped, {} recomputed, {} rejected ({})",
            report.skipped,
            report.recomputed,
            report.rejected,
            store.dir().display()
        ),
    );
    for reason in &report.reasons {
        progress(quiet, &format!("checkpoint: rejected: {reason}"));
    }
    let mut status = Registry::new();
    status.add("checkpoint.skipped", report.skipped);
    status.add("checkpoint.recomputed", report.recomputed);
    status.add("checkpoint.rejected", report.rejected);
    // Atomic: a crash mid-write leaves the previous status intact.
    write_file(&store.dir().join("status.json"), &status.to_json())
}
