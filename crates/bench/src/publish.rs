//! Writing a run's artifacts: the one publish step every artifact-writing
//! `reproduce` subcommand ends in.
//!
//! A streaming run executes either in this process (`reproduce --users`)
//! or across worker processes (`reproduce coordinator`). Both hand the
//! merged fold to [`stream`], which lays out `metrics.json`, the ledger,
//! the exhibit files and the stdout table from
//! [`bundle::stream_run_files`] — the file set the serve gateway caches
//! too. Only the `.runtime.json` sidecar says how the run executed.

use bb_engine::{atomic_write, CheckpointReport, CheckpointStore};
use bb_report::bundle;
use bb_study::StreamStudy;
use bb_trace::Registry;
use std::path::{Path, PathBuf};

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

/// Write the run-level artifacts `outputs` asks for: the metrics registry
/// plus its `.runtime.json` sidecar, and the provenance ledger.
pub fn run_files(
    outputs: &Outputs,
    metrics: &str,
    runtime: &str,
    ledger: &str,
) -> Result<(), String> {
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
    Ok(())
}

/// Publish a merged streaming fold of the run seeded `seed`: the
/// run-level artifacts, the exhibit files under `outputs.out`, and the
/// paper-vs-measured table on stdout.
pub fn stream(outputs: &Outputs, seed: u64, folded: Folded) -> Result<(), String> {
    let files = bundle::stream_run_files(seed, &folded.study, folded.registry, None);
    let [(_, metrics), (_, ledger), exhibits @ ..] = files.as_slice() else {
        unreachable!("the bundle leads with metrics.json and ledger.jsonl");
    };
    std::fs::create_dir_all(&outputs.out)
        .map_err(|e| format!("create {}: {e}", outputs.out.display()))?;
    run_files(outputs, metrics, &folded.runtime, ledger)?;
    for (name, content) in exhibits {
        std::fs::write(outputs.out.join(name), content)
            .map_err(|e| format!("write {name}: {e}"))?;
    }
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
