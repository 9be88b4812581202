//! `paper`: what `reproduce --chaos-sweep` does. A materialised 7-day
//! panel of the paper's Table 4 scale, the full analysis battery and the
//! extension tables, every exhibit rendered in memory the way the CLI
//! writes them, then the chaos severity sweep on the CLI's reduced world.
//! Every iteration of a run builds the world of the run's seed, so the
//! host's speed, which sets how many iterations fit, never changes which
//! worlds a run measures.

use crate::measure::{
    digest, expect_eq, latency, median, millis, secs, set_up_reps, Metric, Tally,
};
use crate::{check_golden, repeat_for, RunConfig, Spans, PLAN};
use bb_dataset::{World, WorldConfig};
use bb_engine::RunStats;
use bb_netsim::chaos::ChaosScenario;
use bb_report::{csv, gnuplot, json, text};
use bb_study::robustness::chaos_sweep;
use bb_study::{ext, provenance, ExperimentTable, StudyReport};
use bb_trace::EventLog;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Set-ups timed per iteration; `setup_s` is the median over the run.
const SETUP_REPS: usize = 9;

/// `reproduce --chaos-sweep`'s severity grid.
const GRID: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];
const TINY_GRID: [f64; 2] = [0.0, 1.0];

/// §5's per-tier user floor, as the CLI passes it.
const MIN_TIER_USERS: usize = 30;

fn world_config(cfg: &RunConfig) -> WorldConfig {
    if cfg.tiny {
        let mut c = WorldConfig::small(cfg.seed);
        c.days = 1;
        c
    } else {
        WorldConfig::paper_scale(cfg.seed)
    }
}

/// The reduced world the CLI's chaos sweep regenerates per severity:
/// a third of the paper scale, 3 days, half the FCC cohort.
fn sweep_config(cfg: &RunConfig, seed: u64) -> WorldConfig {
    let mut c = WorldConfig::small(seed);
    if cfg.tiny {
        c.user_scale = 1.0;
        c.days = 1;
        c.fcc_users = 20;
    } else {
        let paper = WorldConfig::paper_scale(seed);
        c.user_scale = paper.user_scale / 3.0;
        c.days = 3;
        c.fcc_users = paper.fcc_users / 2;
    }
    c
}

/// Every exhibit file `reproduce` writes for a report, in memory and in
/// its order, plus the extension table as `ext.txt`.
fn render(r: &StudyReport, extensions: &ExperimentTable) -> Vec<(String, String)> {
    let pretty = |v: &serde_json::Value| serde_json::to_string_pretty(v).expect("serialise");
    let mut files = Vec::new();
    let mut add = |id: &str, ext: &str, content: String| {
        files.push((format!("{id}.{ext}"), content));
    };
    let cdfs = [
        &r.fig1.0, &r.fig1.1, &r.fig1.2, &r.fig4[0], &r.fig4[1], &r.fig7[0], &r.fig7[1],
        &r.fig10.0, &r.fig11, &r.fig12,
    ];
    for f in cdfs.into_iter().chain(r.fig8.iter()) {
        add(&f.id, "txt", text::render_cdf_figure(f));
        add(&f.id, "csv", csv::cdf_to_csv(f));
        add(&f.id, "gp", gnuplot::cdf_script(f));
        add(&f.id, "json", pretty(&json::cdf_to_json(f)));
    }
    for f in r.fig2.iter().chain(r.fig3.iter()).chain(r.fig6.iter()) {
        add(&f.id, "txt", text::render_binned_figure(f));
        add(&f.id, "csv", csv::binned_to_csv(f));
        add(&f.id, "gp", gnuplot::binned_script(f));
        add(&f.id, "json", pretty(&json::binned_to_json(f)));
    }
    for f in r.fig5.iter().chain([&r.fig9]) {
        add(&f.id, "txt", text::render_bar_figure(f));
        add(&f.id, "csv", csv::bar_to_csv(f));
        add(&f.id, "gp", gnuplot::bar_script(f));
        add(&f.id, "json", pretty(&json::bar_to_json(f)));
    }
    for t in r.experiment_tables() {
        add(&t.id, "txt", text::render_experiment_table(t));
        add(&t.id, "csv", csv::experiment_to_csv(t));
        add(&t.id, "json", pretty(&json::experiment_to_json(t)));
    }
    add("ext", "txt", text::render_experiment_table(extensions));
    files
}

/// One pipeline iteration's outputs and timings.
struct Iteration {
    digest: String,
    check: Result<(), String>,
    total: Duration,
    generate: Duration,
    stats: RunStats,
    records: usize,
    movers: usize,
    analysis: Duration,
    ext: Duration,
    render: Duration,
    render_bytes: usize,
    sweep: Duration,
    teardown: Duration,
}

fn iterate(cfg: &RunConfig, world: &World, n_users: u64, spans: &mut Spans) -> Iteration {
    let seed = world.config.seed;
    let start = Instant::now();
    let ((dataset, registry, stats), generate) =
        spans.time("dataset.generate", || world.generate_with_traced(PLAN));
    let ((report, ledger), analysis) = spans.time("study.analysis", || {
        let mut ledger = EventLog::new();
        ledger
            .emit("dataset")
            .u64("seed", seed)
            .u64("records", dataset.records.len() as u64)
            .u64("dasu", dataset.dasu().count() as u64)
            .u64("fcc", dataset.fcc().count() as u64)
            .u64("movers", dataset.upgrades.len() as u64)
            .u64("markets", dataset.survey.len() as u64);
        provenance::log_data_quality(&mut ledger, &registry);
        let report =
            StudyReport::run_with_ledger(&dataset, &world.profiles, MIN_TIER_USERS, &mut ledger);
        (report, ledger)
    });
    let (extensions, ext) = spans.time("study.ext", || {
        black_box((
            ext::cdf_separations(&dataset),
            ext::persona_breakdown(&dataset),
            ext::upload_breakdown(&dataset),
        ));
        ext::extension_table(&dataset)
    });
    let (mut files, render) = spans.time("report.render", || render(&report, &extensions));
    let render_bytes = files.iter().map(|(_, c)| c.len()).sum();
    let grid: &[f64] = if cfg.tiny { &TINY_GRID } else { &GRID };
    let (matrix, sweep) = spans.time("study.chaos_sweep", || {
        chaos_sweep(&sweep_config(cfg, seed), ChaosScenario::Omnibus, grid, PLAN)
    });
    files.push(("ledger.jsonl".into(), ledger.to_jsonl()));
    files.push(("chaos.json".into(), matrix.to_json()));
    let total = start.elapsed();

    let check = expect_eq(
        "users observed",
        registry.counter("dataset.users.observed"),
        n_users,
    )
    .and_then(|()| expect_eq("sweep severities", matrix.severities.as_slice(), grid))
    .and_then(|()| {
        if dataset.records.is_empty() || report.experiment_tables().is_empty() {
            Err("empty panel or report".into())
        } else {
            Ok(())
        }
    });
    let (records, movers) = (dataset.records.len(), dataset.upgrades.len());
    let ((), teardown) = spans.time("teardown", move || drop((dataset, report, matrix)));
    Iteration {
        digest: digest(&files),
        check,
        total,
        generate,
        stats,
        records,
        movers,
        analysis,
        ext,
        render,
        render_bytes,
        sweep,
        teardown,
    }
}

pub fn run(cfg: &RunConfig, spans: &mut Spans) -> (Tally, Vec<Metric>) {
    let mut tally = Tally::default();
    let mut setup = Vec::new();
    let mut market_ms = Vec::new();
    let mut done: Vec<(Iteration, u64)> = Vec::new();
    let mut reference: Option<String> = None;
    repeat_for(cfg.seconds, 1, |_| {
        spans.begin("paper.iteration");
        let ((world, n_users), _) = spans.time("setup", || {
            set_up_reps(SETUP_REPS, &mut setup, || {
                let world = World::new(world_config(cfg));
                let start = Instant::now();
                let n_users = world.n_users();
                market_ms.push(millis(start.elapsed()));
                (world, n_users)
            })
        });
        let it = iterate(cfg, &world, n_users, spans);
        spans.end();
        let check = it.check.clone().and_then(|()| match &reference {
            None => check_golden(cfg, "paper", cfg.seed, &it.digest),
            Some(first) => expect_eq("repeated iteration digest", &it.digest, first),
        });
        reference.get_or_insert_with(|| it.digest.clone());
        tally.op(check);
        done.push((it, n_users));
    });

    let n = done.len();
    let over = |f: &dyn Fn(&Iteration) -> f64| {
        median(&done.iter().map(|(it, _)| f(it)).collect::<Vec<_>>())
    };
    let rate: Vec<f64> = done
        .iter()
        .map(|(it, users)| *users as f64 / secs(it.generate))
        .collect();
    let iteration_ms: Vec<f64> = done.iter().map(|(it, _)| millis(it.total)).collect();
    let mut metrics = vec![
        Metric::new("setup_s", median(&setup), "s", setup.len()),
        Metric::new("users_per_s", median(&rate), "users/s", n),
        Metric::new(
            "dataset.build_market_ms",
            median(&market_ms),
            "ms",
            market_ms.len(),
        ),
        Metric::new("dataset.generate_s", over(&|it| secs(it.generate)), "s", n),
        Metric::new("dataset.records", over(&|it| it.records as f64), "count", n),
        Metric::new("dataset.movers", over(&|it| it.movers as f64), "count", n),
        Metric::new("engine.work_s", over(&|it| secs(it.stats.work)), "s", n),
        Metric::new("engine.merge_s", over(&|it| secs(it.stats.merge)), "s", n),
        Metric::new(
            "engine.steals",
            over(&|it| it.stats.steals as f64),
            "count",
            n,
        ),
        Metric::new("study.analysis_s", over(&|it| secs(it.analysis)), "s", n),
        Metric::new("study.ext_s", over(&|it| secs(it.ext)), "s", n),
        Metric::new("report.render_ms", over(&|it| millis(it.render)), "ms", n),
        Metric::new(
            "report.render_bytes",
            over(&|it| it.render_bytes as f64),
            "bytes",
            n,
        ),
        Metric::new("study.chaos_sweep_s", over(&|it| secs(it.sweep)), "s", n),
        Metric::new("teardown_s", over(&|it| secs(it.teardown)), "s", n),
    ];
    metrics.extend(latency("paper", &iteration_ms));
    (tally, metrics)
}
