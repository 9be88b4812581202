//! The repository benchmark: four workloads that drive the production
//! crates through their public functions, check every output, and print
//! end-to-end metrics (untraced) or per-layer metrics (traced).
//!
//! ```text
//! benchmark [--workload W]... [--seed S] [--seconds N] [--trace 0|1]
//!           [--trace-out PATH] [--runs N] [--out RESULT.json]
//! benchmark compare A B [--spec BENCHMARK.json]
//! ```
//!
//! One workload and one run measure in this process: one line per metric
//! (`<workload> <metric> <value> <unit> n=<samples>`), then one JSON
//! object with `correct`, `attempted`, `failed` and `metrics` as the last
//! line of standard output. Several workloads or `--runs N` run each
//! (workload, run) in a fresh child process, one at a time, so the peak
//! RSS of a run belongs to its workload; `--out` collects them for
//! `compare`. A failed check exits non-zero. See README.md.

mod compare;
mod federate;
mod measure;
mod paper;
mod serve;
mod stream;

use bb_engine::ShardPlan;
use bb_trace::Timings;
use measure::{Metric, Tally};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// The shard plan of every workload except `serve`. Its two threads are
/// the core count of the baseline's host, fixed here rather than derived
/// at run time so numbers compare across hosts; `host_cores` is recorded
/// beside results.
pub const PLAN: ShardPlan = ShardPlan {
    shards: 8,
    threads: 2,
};

/// Seconds measured per run when `--seconds` is not given; the same as
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 20;

/// The workloads, in the order a full run executes them.
pub const WORKLOADS: [&str; 4] = ["stream", "paper", "federate", "serve"];

/// End-to-end metrics: every untraced run reports each of them. The
/// latency is that of one answer a caller waits for: a job for `stream`,
/// `paper` and `federate`, a read for `serve`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("users_per_s", "users/s"),
    ("peak_rss_mb", "MiB"),
];

/// A list of (metric name, unit).
type Catalogue = [(&'static str, &'static str)];

/// The metrics a run reports: per-layer when traced, else end-to-end.
fn catalogue(trace: bool) -> &'static Catalogue {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Per-layer metrics: every traced run reports each of them; a layer a
/// workload does not call reads 0 with n=0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("latency_tail_ms", "ms"),
    ("teardown_s", "s"),
    ("trace_overhead", "ratio"),
    ("dataset.build_market_ms", "ms"),
    ("dataset.gen_us_per_user", "us"),
    ("dataset.generate_s", "s"),
    ("dataset.records", "count"),
    ("dataset.movers", "count"),
    ("engine.work_s", "s"),
    ("engine.merge_s", "s"),
    ("engine.steals", "count"),
    ("engine.scaling_eff", "ratio"),
    ("engine.snapshot_decodes", "count"),
    ("engine.snapshot_decode_s", "s"),
    ("engine.snapshot_bytes", "bytes"),
    ("study.absorb_us_per_user", "us"),
    ("study.provenance_ms", "ms"),
    ("study.analysis_s", "s"),
    ("study.ext_s", "s"),
    ("study.chaos_sweep_s", "s"),
    ("report.render_ms", "ms"),
    ("report.render_bytes", "bytes"),
    ("federate.coordinate_s", "s"),
    ("federate.shards", "count"),
    ("federate.reassignments", "count"),
    ("federate.rejected", "count"),
    ("federate.exit_lag_s", "s"),
    ("serve.job_cold_s", "s"),
    ("serve.job_cached_ms", "ms"),
    ("serve.exhibits_p50_ms", "ms"),
    ("serve.countries_p50_ms", "ms"),
    ("serve.metrics_p50_ms", "ms"),
    ("serve.ledger_p50_ms", "ms"),
    ("serve.healthz_p50_ms", "ms"),
    ("serve.post_jobs_p50_ms", "ms"),
    ("serve.server_p50_ms", "ms"),
    ("serve.server_p99_ms", "ms"),
    ("serve.gen_lag_p99_ms", "ms"),
    ("serve.job_queue_ms", "ms"),
    ("serve.job_tail_ms", "ms"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
];

/// One workload run's settings.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Workload seed: the inputs are a pure function of it.
    pub seed: u64,
    /// How long the measured loop runs; it always completes one job.
    pub seconds: Duration,
    /// Spans and per-thread layer clocks on; per-layer metrics out.
    pub trace: bool,
    /// Test-sized inputs (the tests run every workload this way).
    pub tiny: bool,
    /// Directory for the run's files (caches, access log); removed after.
    pub scratch: PathBuf,
}

/// What a workload run reports.
pub struct Outcome {
    pub tally: Tally,
    /// End-to-end metrics when untraced, per-layer metrics when traced.
    pub metrics: Vec<Metric>,
    pub timings: Timings,
}

/// Wall-clock spans on the driving thread, recorded only when tracing.
pub struct Spans(Option<Timings>);

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans(on.then(Timings::new))
    }

    /// Run `f` under span `name`, returning its result and wall time.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        if let Some(t) = &mut self.0 {
            t.begin(name);
        }
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed();
        if let Some(t) = &mut self.0 {
            t.end();
        }
        (out, elapsed)
    }

    /// Open a parent span (a workload iteration); close it with `end`.
    pub fn begin(&mut self, name: &'static str) {
        if let Some(t) = &mut self.0 {
            t.begin(name);
        }
    }

    pub fn end(&mut self) {
        if let Some(t) = &mut self.0 {
            t.end();
        }
    }

    pub fn into_timings(self) -> Timings {
        self.0.unwrap_or_default()
    }
}

/// The seed held out for verifying claims; `golden.json` pins outputs
/// for it beside the default [`bb_bench::REPRO_SEED`].
pub const HELD_OUT_SEED: u64 = 20140101;

/// Compare an output digest with the one pinned in `golden.json` for
/// `(workload, seed)`, when there is one. Tiny test runs have no pins.
pub fn check_golden(cfg: &RunConfig, workload: &str, seed: u64, hex: &str) -> Result<(), String> {
    eprintln!("benchmark: digest {workload} seed={seed} {hex}");
    if cfg.tiny {
        return Ok(());
    }
    let golden: serde_json::Value =
        serde_json::from_str(include_str!("../golden.json")).expect("golden.json parses");
    match golden[workload][seed.to_string().as_str()].as_str() {
        Some(pinned) if pinned != hex => Err(format!(
            "{workload} seed {seed}: output digest {hex}, golden.json pins {pinned}"
        )),
        _ => Ok(()),
    }
}

/// Run `job(i)` for i = 0, 1, ... while the next job, at the median
/// length so far, is due to end within `seconds`, and at least `min`
/// times. Returns how many ran.
pub fn repeat_for(seconds: Duration, min: usize, mut job: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut took = Vec::new();
    loop {
        let n = took.len();
        let next_end = start.elapsed().as_secs_f64() + measure::median(&took);
        if n >= min && next_end > seconds.as_secs_f64() {
            return n;
        }
        let began = Instant::now();
        job(n);
        took.push(began.elapsed().as_secs_f64());
    }
}

/// Run one workload in this process.
pub fn run_workload(name: &str, cfg: &RunConfig) -> Outcome {
    let mut spans = Spans::new(cfg.trace);
    let (tally, metrics) = match name {
        "stream" => stream::run(cfg, &mut spans),
        "paper" => paper::run(cfg, &mut spans),
        "federate" => federate::run(cfg, &mut spans),
        "serve" => serve::run(cfg, &mut spans),
        other => panic!("unknown workload {other:?}"),
    };
    let _ = std::fs::remove_dir_all(&cfg.scratch);
    let failed = tally.failed > 0;
    Outcome {
        tally,
        metrics: complete(metrics, cfg.trace, failed),
        timings: spans.into_timings(),
    }
}

/// Keep the metrics of the run's mode, in catalogue order: end-to-end
/// when untraced (with `peak_rss_mb` read last), per-layer when traced,
/// where a layer the workload does not call reads 0 (n=0). A failed run
/// keeps only what it measured, so no stand-in value can be mistaken for
/// a measurement. A healthy run missing an end-to-end metric is a bug,
/// and so is a name in neither catalogue.
fn complete(mut metrics: Vec<Metric>, trace: bool, failed: bool) -> Vec<Metric> {
    if !trace {
        metrics.push(Metric::new("peak_rss_mb", measure::peak_rss_mb(), "MiB", 1));
    }
    let mut ordered = Vec::with_capacity(catalogue(trace).len());
    for &(name, unit) in catalogue(trace) {
        match metrics.iter().position(|m| m.name == name) {
            Some(i) => {
                let m = metrics.swap_remove(i);
                assert_eq!(m.unit, unit, "unit of {name}");
                ordered.push(m);
            }
            None if failed => {}
            None if trace => ordered.push(Metric::new(name, 0.0, unit, 0)),
            None => panic!("workload did not report end-to-end metric {name}"),
        }
    }
    for m in &metrics {
        assert!(
            catalogue(!trace).iter().any(|(name, _)| *name == m.name),
            "{} is in neither catalogue",
            m.name
        );
    }
    ordered
}

/// The contract line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(outcome: &Outcome) -> String {
    let metrics: serde_json::Map = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = serde_json::json!({ "value": m.value, "unit": m.unit });
            (m.name.to_string(), value)
        })
        .collect();
    serde_json::json!({
        "correct": outcome.tally.failed == 0,
        "attempted": outcome.tally.attempted,
        "failed": outcome.tally.failed,
        "metrics": serde_json::Value::Object(metrics),
    })
    .to_string()
}

fn metric_line(workload: &str, m: &Metric) -> String {
    format!("{workload} {} {} {} n={}", m.name, m.value, m.unit, m.n)
}

const USAGE: &str = "\
usage: benchmark [--workload W]... [--seed S] [--seconds N] [--trace 0|1]
                 [--trace-out PATH] [--runs N] [--out RESULT.json]
       benchmark compare A B [--spec BENCHMARK.json]

workloads: stream paper federate serve (default: all four)
  --seed S        workload seed (default: the reproduction seed)
  --seconds N     measured seconds per run (default 20)
  --trace 0|1     1: spans on, print per-layer metrics, write a Chrome
                  trace (default 0: end-to-end metrics)
  --trace-out P   Chrome trace file (default target/benchmark/trace-W.json;
                  with several runs, trace-W-R.json beside P)
  --runs N        run every workload N times, each in a fresh process
  --out FILE      write every run's metrics as JSON for `compare`, whose
                  A and B are such files or directories of them
";

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<PathBuf>,
    runs: usize,
    out: Option<PathBuf>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: bb_bench::REPRO_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        trace_out: None,
        runs: 1,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}"));
                }
                args.workloads.push(w);
            }
            "--seed" => args.seed = number(flag, &value()?)?,
            "--seconds" => args.seconds = number(flag, &value()?)?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--runs" => args.runs = number(flag, &value()?)?,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.seconds == 0 || args.runs == 0 {
        return Err("--seconds and --runs must be at least 1".into());
    }
    if args.workloads.is_empty() {
        args.workloads = WORKLOADS.iter().map(|w| w.to_string()).collect();
    }
    Ok(args)
}

fn number<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{flag}: {raw:?} is not a non-negative integer"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match compare::main(&argv[1..]) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("benchmark compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprint!("benchmark: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workloads.len() == 1 && args.runs == 1 && args.out.is_none() {
        run_here(&args)
    } else {
        run_children(&args)
    }
}

/// Hard stop should a workload hang (a lost worker, a stuck socket):
/// report and exit non-zero, so a run always ends.
fn watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("benchmark: run exceeded {limit:?}, aborting");
        std::process::exit(3);
    });
}

fn run_here(args: &Args) -> ExitCode {
    let workload = args.workloads[0].as_str();
    watchdog(Duration::from_secs(args.seconds + 120));
    let root = PathBuf::from("target").join("benchmark");
    let cfg = RunConfig {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        trace: args.trace,
        tiny: false,
        scratch: root.join(format!("{workload}-{}", std::process::id())),
    };
    let outcome = run_workload(workload, &cfg);
    for m in &outcome.metrics {
        println!("{}", metric_line(workload, m));
    }
    if args.trace {
        let path = args
            .trace_out
            .clone()
            .unwrap_or_else(|| root.join(format!("trace-{workload}.json")));
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, outcome.timings.to_chrome_trace()));
        match written {
            Ok(()) => eprintln!("benchmark: wrote Chrome trace to {}", path.display()),
            Err(e) => eprintln!("benchmark: write {}: {e}", path.display()),
        }
    }
    for reason in &outcome.tally.reasons {
        eprintln!("benchmark: {workload}: FAILED {reason}");
    }
    println!("{}", result_json(&outcome));
    if outcome.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every (run, workload) pair in a child process of this binary,
/// echo its metric lines, and collect them for `--out`.
fn run_children(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut runs = Vec::new();
    let mut all_ok = true;
    for run in 0..args.runs {
        for workload in &args.workloads {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
            if let Some(dir) = args.trace_out.as_ref().and_then(|p| p.parent()) {
                cmd.arg("--trace-out")
                    .arg(dir.join(format!("trace-{workload}-{run}.json")));
            }
            let output = match cmd.output() {
                Ok(output) => output,
                Err(e) => {
                    eprintln!("benchmark: spawn {workload}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            let ok = output.status.success();
            all_ok &= ok;
            let mut metrics = serde_json::Map::new();
            for line in stdout
                .lines()
                .filter(|l| l.starts_with(&format!("{workload} ")))
            {
                println!("{line}");
                if let Some((name, value)) = parse_metric_line(line) {
                    metrics.insert(name, value);
                }
            }
            let last: serde_json::Value = stdout
                .lines()
                .last()
                .and_then(|l| serde_json::from_str(l).ok())
                .unwrap_or(serde_json::Value::Null);
            runs.push(serde_json::json!({
                "workload": workload,
                "run": run,
                "correct": ok,
                "attempted": last["attempted"],
                "failed": last["failed"],
                "metrics": serde_json::Value::Object(metrics),
            }));
        }
    }
    if let Some(out) = &args.out {
        let doc = serde_json::json!({
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "host_cores": std::thread::available_parallelism().map_or(0, |n| n.get()),
            "runs": runs,
        });
        let text = serde_json::to_string_pretty(&doc).expect("serialise results");
        if let Err(e) = std::fs::write(out, text) {
            eprintln!("benchmark: write {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
        eprintln!("benchmark: wrote {}", out.display());
    }
    if all_ok {
        println!("benchmark: every check passed");
        ExitCode::SUCCESS
    } else {
        println!("benchmark: some checks FAILED (see stderr)");
        ExitCode::FAILURE
    }
}

/// `<workload> <metric> <value> <unit> n=<samples>` back into
/// `(metric, {"value", "unit", "n"})`.
fn parse_metric_line(line: &str) -> Option<(String, serde_json::Value)> {
    let parts: Vec<&str> = line.split_whitespace().collect();
    let [_, name, value, unit, n] = parts.as_slice() else {
        return None;
    };
    let value: f64 = value.parse().ok()?;
    let n: f64 = n.strip_prefix("n=")?.parse().ok()?;
    Some((
        name.to_string(),
        serde_json::json!({ "value": value, "unit": *unit, "n": n }),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root, which these lists mirror.
    const SPEC: &str = include_str!("../../../../../BENCHMARK.json");

    fn tiny(name: &str, trace: bool) -> Outcome {
        let cfg = RunConfig {
            seed: bb_bench::REPRO_SEED,
            seconds: Duration::ZERO,
            trace,
            tiny: true,
            scratch: PathBuf::from("target")
                .join("benchmark-test")
                .join(format!("{name}-{trace}")),
        };
        run_workload(name, &cfg)
    }

    fn assert_clean(name: &str, trace: bool) {
        let outcome = tiny(name, trace);
        assert_eq!(
            outcome.tally.failed, 0,
            "{name}: {:?}",
            outcome.tally.reasons
        );
        assert!(outcome.tally.attempted > 0, "{name} attempted nothing");
        let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
        let expected: Vec<&str> = catalogue(trace).iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected);
        if !trace {
            for m in &outcome.metrics {
                assert!(m.value > 0.0 && m.value.is_finite(), "{name}: {m:?}");
            }
        }
        serde_json::from_str(&result_json(&outcome)).expect("result line is JSON");
    }

    #[test]
    fn stream_tiny_passes_its_checks() {
        assert_clean("stream", false);
        assert_clean("stream", true);
    }

    #[test]
    fn paper_tiny_passes_its_checks() {
        assert_clean("paper", false);
        assert_clean("paper", true);
    }

    #[test]
    fn federate_tiny_passes_its_checks() {
        assert_clean("federate", false);
        assert_clean("federate", true);
    }

    #[test]
    fn serve_tiny_passes_its_checks() {
        assert_clean("serve", false);
        assert_clean("serve", true);
    }

    #[test]
    fn traced_run_writes_a_loadable_chrome_trace() {
        let outcome = tiny("stream", true);
        let trace: serde_json::Value =
            serde_json::from_str(&outcome.timings.to_chrome_trace()).expect("trace is JSON");
        let events = trace.as_array().expect("an event array");
        assert!(events.iter().any(|e| e["name"] == "engine.fold"));
        assert!(events.iter().all(|e| e["ph"] == "X"));
    }

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(name), "{name}");
            assert!(seen.insert(*name), "{name} used twice");
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert!(!name_ok("bad name"));
        assert!(!name_ok("_leading"));
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let spec: serde_json::Value = serde_json::from_str(SPEC).expect("BENCHMARK.json");
        let listed = |key: &str| -> Vec<(String, String)> {
            spec[key]
                .as_array()
                .expect(key)
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().expect("name").to_string(),
                        m["unit"].as_str().expect("unit").to_string(),
                    )
                })
                .collect()
        };
        let own = |list: &Catalogue| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = spec["workloads"]
            .as_array()
            .expect("workloads")
            .iter()
            .map(|w| w["name"].as_str().expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(spec["run_seconds"].as_u64(), Some(DEFAULT_SECONDS));
    }

    /// The `[profile.release]` table of a manifest, as text.
    fn release_profile(manifest: &str) -> String {
        manifest
            .split("\n[")
            .find(|table| table.starts_with("profile.release]"))
            .expect("a [profile.release] table")
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn release_profile_matches_the_workspace_root() {
        let own = release_profile(include_str!("../Cargo.toml"));
        let root = release_profile(include_str!("../../../../../Cargo.toml"));
        assert_eq!(own, root);
    }

    #[test]
    fn golden_pins_cover_the_default_and_held_out_seeds() {
        let cfg = RunConfig {
            seed: 0,
            seconds: Duration::ZERO,
            trace: false,
            tiny: false,
            scratch: PathBuf::new(),
        };
        for seed in [bb_bench::REPRO_SEED, HELD_OUT_SEED] {
            for workload in ["stream", "paper"] {
                assert!(
                    check_golden(&cfg, workload, seed, "wrong").is_err(),
                    "{workload} has no pin for seed {seed}"
                );
            }
        }
        // Seeds without a pin are checked only for repeatability.
        assert!(check_golden(&cfg, "stream", 1, "anything").is_ok());
    }

    #[test]
    fn metric_lines_round_trip() {
        let m = Metric::new("latency_p50_ms", 1.25, "ms", 9);
        let (name, value) = parse_metric_line(&metric_line("stream", &m)).unwrap();
        assert_eq!(name, "latency_p50_ms");
        assert_eq!(value["value"], 1.25);
        assert_eq!(value["n"], 9.0);
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let a = parse(&argv("--workload serve --seed 3 --seconds 4 --trace 1")).unwrap();
        assert_eq!(
            (a.workloads, a.seed, a.seconds, a.trace),
            (vec!["serve".to_string()], 3, 4, true)
        );
        assert_eq!(parse(&[]).unwrap().workloads.len(), 4);
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds 0",
            "--seed",
            "--bogus",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad}");
        }
    }
}
