//! The reproduction harness: regenerate every table and figure of the
//! paper from the synthetic world and compare against the published
//! values.
//!
//! ```text
//! cargo run --release -p bb-bench --bin reproduce -- [--scale N] [--days D] [--seed S] [--out DIR]
//!     [--threads T] [--shards S] [--users U] [--sweep N] [--chaos-sweep]
//! ```
//!
//! This binary parses flags and dispatches; the runs themselves are
//! library calls. A batch run generates its panel here — in memory, or
//! durably with `--checkpoint` — and hands it to `bb_bench::publish`:
//! [`publish::paper`] makes the materialised run's artifact set (one
//! `.txt`, `.csv` and `.json` file per exhibit, plus a gnuplot script per
//! figure, `ext.txt`, `chaos.json` and `experiments.md`, the source of
//! the repository's `EXPERIMENTS.md`), [`publish::stream`] the streaming
//! run's, and [`publish::write_run`] writes either. `experiments.md` is
//! also printed on stdout.
//!
//! `USAGE` (`reproduce --help`) documents every subcommand and flag. One
//! reader, [`Flags`], reads them all: each subcommand lists the flags it
//! accepts, and each flag has one rule whichever subcommand takes it. A
//! flag outside the list, a flag given twice and an empty value are
//! usage errors, refused before any work starts. Exit codes: 0 after
//! `--help`, 2 for a usage error, 1 for a runtime failure and 83 for the
//! `--fail-after-shard` crash. The run-identity flags become one
//! `bb_dataset::RunSpec`, the identity every surface — batch, `serve`,
//! `coordinator` — pins in its checkpoints.
//!
//! `--users U` never materialises the panel: `~U` users are folded shard
//! by shard into `bb_study::StreamStudy` sketches, and the headline
//! exhibits (Fig. 1, Fig. 2, Fig. 7) are rendered from the merged
//! sketches in bounded memory. The metrics registry holds collection
//! heuristic counters, a pure function of the seed. Every artifact is
//! byte-identical under any `--threads`/`--shards` plan and across a
//! crash and `--resume`; only the `.runtime.json` sidecar and the Chrome
//! trace depend on the plan. `--fail-after-shard N` counts the shards
//! this process computed, each of which is durable before it is
//! reported.

use bb_bench::federation::{CoordinatorArgs, WorkerOptions};
use bb_bench::publish::{self, Folded, Outputs, Sweeps};
use bb_bench::REPRO_SEED;
use bb_dataset::{Dataset, RunSpec};
use bb_engine::{
    run_sharded, run_sharded_checkpointed, CheckpointReport, CheckpointStore, Mergeable, RunStats,
    ShardPlan, ShardProgress, Snapshot,
};
use bb_netsim::chaos::ChaosSpec;
use bb_serve::{Server, ServerConfig};
use bb_study::StreamStudy;
use bb_trace::Timings;
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const USAGE: &str = "\
usage: reproduce [options]
       reproduce serve [serve options]
       reproduce coordinator [coordinator options]
       reproduce worker --connect ADDR [worker options]
       reproduce chaosnet --upstream ADDR [chaosnet options]

Regenerates the paper's tables and figures from the synthetic world.

options:
  --seed S        world seed (default: the pinned reproduction seed)
  --scale N       per-country user multiplier; finite and > 0 (default 40;
                  incompatible with --users)
  --days D        observation window in days; at least 1 (default 7)
  --fcc N         size of the US-only FCC gateway cohort (default 600)
  --out DIR       output directory for exhibits (default: results)
  --sweep N       also run a robustness sweep over N regenerated seeds
                  (incompatible with --users)
  --chaos NAME    degrade collection with a deterministic fault scenario:
                  burst-outage, clock-skew, reset-storm, poll-churn,
                  probe-blackout, targeted-us, omnibus
  --severity S    chaos severity in [0, 1] (default 0.5; requires --chaos;
                  severity 0 is bit-identical to running without --chaos)
  --chaos-sweep   run the chaos campaign: the full experiment battery
                  across a severity grid of the --chaos scenario (default
                  omnibus), appended to experiments.md as the \"Robustness
                  under degraded collection\" section and written to
                  OUT/chaos.json (plan-invariant; incompatible with
                  --users)
  --threads T     worker threads; at least 1 (default 1)
  --shards S      shard count; at least 1 (default: derived from --threads)
  --users U       stream ~U users through the sketch study instead of
                  materialising the panel; at least 1
  --metrics PATH  write the merged bb-trace metrics registry as JSON to
                  PATH (byte-identical for any --threads/--shards plan)
                  plus a plan-dependent PATH-adjacent .runtime.json
                  sidecar with wall times and steal counts
  --ledger PATH   write the provenance event log as JSONL to PATH: per-
                  exhibit input/drop accounting, per-experiment matching
                  audits and sign-test inputs (byte-identical for any
                  --threads/--shards plan)
  --chrome-trace PATH
                  write a Chrome trace-event JSON file of the harness
                  phases to PATH (plan-dependent; open in Perfetto or
                  chrome://tracing)
  --checkpoint DIR
                  durably commit each completed generation shard to DIR
                  (atomic rename + fsync'd manifest); DIR/status.json
                  records the checkpoint.* counters of the run
  --resume        restore committed shards from --checkpoint DIR instead
                  of recomputing them; mismatched or corrupt state is
                  rejected and recomputed, and the outputs stay
                  byte-identical to a cold run under any plan
  --fail-after-shard N
                  crash-injection test hook: abort with exit code 83
                  once N shards are durably committed (requires
                  --checkpoint; N at least 1)
  --quiet         suppress per-phase progress lines on stderr
  -h, --help      print this help

serve options (reproduce serve: always-on query gateway over the
streaming path — POST /jobs, SSE progress at /jobs/{id}/events, cached
results at /metrics, /ledger, /exhibits/{id}, /countries/{cc},
/survival; responses are byte-identical to this harness's artifacts for
the same parameters):
  --port P        TCP port to bind on 127.0.0.1; 0 picks an ephemeral
                  port (default 8080; the bound address is printed on
                  stdout as 'bb-serve listening on http://HOST:PORT')
  --cache-dir DIR root of the manifest-keyed result cache and the
                  per-job checkpoint directories; must be non-empty
                  (default: serve-cache)
  --days D        observation window for every job, days (default 7)
  --fcc N         FCC gateway cohort size for every job (default 600)
  --seed S        seed for jobs that omit one (default: the pinned
                  reproduction seed)
  --users U       user count for jobs that omit one (default 2000)
  --threads T     worker threads; at least 1 (default 1)
  --shards S      shard count; at least 1 (default: from --threads);
                  part of the cache key
  --access-log F  append one JSONL line per request to F (ts, request
                  id, method, route template, path, status, bytes, µs);
                  live telemetry is also exposed at GET /metrics.prom
                  (Prometheus text) and GET /debug/telemetry (JSON)
  --quiet         suppress startup lines on stderr
  -h, --help      print this help

coordinator options (reproduce coordinator: serve shard leases to
`reproduce worker` processes over TCP and merge their snapshot-encoded
partials in shard order; metrics.json, the ledger, and every exhibit
are byte-identical to a single-process `reproduce --users` run of the
same seed/users/days/fcc/chaos — the bound address is printed on stdout
as 'bb-federate coordinator listening on HOST:PORT'):
  --listen ADDR   TCP bind address (default 127.0.0.1:0 = ephemeral)
  --users U       stream ~U users; at least 1 (default 2000)
  --workers K     expected worker count; only sets the default shard
                  count (K*4 oversubscription); at least 1 (default 2)
  --shards S      shard count; at least 1 (default: workers*4)
  --seed S        world seed (default: the pinned reproduction seed)
  --days D        observation window in days; at least 1 (default 7)
  --fcc N         US-only FCC gateway cohort size (default 600)
  --chaos NAME    degraded-collection scenario (see the batch options)
  --severity S    chaos severity in [0, 1] (default 0.5)
  --lease-timeout SECS
                  reassign a leased shard after SECS without a result
                  or heartbeat; at least 1 (default 30)
  --io-deadline SECS
                  drop a worker socket silent for SECS (half-open or
                  stalled peers become counted lease expiries instead
                  of hung threads); at least 1 (default 30)
  --checkpoint DIR
                  durably commit every merged shard payload to DIR as
                  it lands (atomic rename + fsync'd manifest), so a
                  killed coordinator can restart with --resume
  --resume        restore committed shards from --checkpoint DIR and
                  re-lease only the missing ranges; resumed output is
                  byte-identical to a cold single-process run
  --out DIR       output directory for exhibits (default: results)
  --metrics PATH  write the merged metrics registry to PATH plus a
                  federation .runtime.json sidecar (workers,
                  reassignments, rejections, reconnects, deadline
                  expiries, resumed shards — process-dependent)
  --ledger PATH   write the provenance event log as JSONL to PATH
  --quiet         suppress progress lines on stderr
  -h, --help      print this help

worker options (reproduce worker: claim shard ranges from a
coordinator, compute them with the same per-range fold the in-process
path uses, stream the partials back; run as many workers as you like;
losing the coordinator triggers a deterministic backoff reconnect loop
that re-sends the in-flight result on the new connection):
  --connect ADDR  coordinator address (required; HOST:PORT from the
                  coordinator's stdout line)
  --die-on-assign N
                  crash-injection test hook: abort without a result on
                  receiving the Nth shard assignment (N at least 1)
  --max-reconnects N
                  consecutive failed connect/handshake attempts before
                  giving up; a successful handshake resets the count;
                  0 disables reconnecting (default 5)
  --backoff-cap SECS
                  ceiling of the exponential reconnect backoff; at
                  least 1 (default 5)
  --backoff-seed S
                  seed of the deterministic backoff jitter (default:
                  the process id)
  --io-deadline SECS
                  treat a coordinator silent for SECS as lost and
                  reconnect; at least 1 (default 30)
  --quiet         suppress progress lines on stderr
  -h, --help      print this help

chaosnet options (reproduce chaosnet: a deterministic flaky-network
TCP proxy; point workers at its address and it forwards to --upstream,
injecting a seeded schedule of connection cuts, stalls, and delivery
delays — the bound address is printed on stdout as 'bb-chaosnet
listening on HOST:PORT -> UPSTREAM'; SIGTERM/SIGINT print the fault
stats and exit):
  --upstream ADDR coordinator address to forward to (required)
  --seed S        fault schedule seed (default: the pinned seed)
  --cut N         per-mille of connections severed mid-stream
                  (default 0)
  --stall N       per-mille of connections silenced while held open
                  (default 0)
  --delay N       per-mille of connections with per-chunk delivery
                  delay (default 0; cut+stall+delay at most 1000)
  --cut-bytes MAX max bytes forwarded before a cut or stall fires
                  (default 4096)
  --delay-ms MAX  max per-chunk delay in milliseconds (default 50)
  --quiet         suppress the stats line on stderr
  -h, --help      print this help
";

/// The flags each subcommand accepts, as `USAGE` lists them; the unit
/// test below holds every list to its `USAGE` section.
const BATCH: &str = "--seed --scale --days --fcc --out --sweep --chaos --severity \
    --chaos-sweep --threads --shards --users --metrics --ledger --chrome-trace \
    --checkpoint --resume --fail-after-shard --quiet";
const SERVE: &str = "--port --cache-dir --days --fcc --seed --users --threads --shards \
    --access-log --quiet";
const COORDINATOR: &str = "--listen --users --workers --shards --seed --days --fcc --chaos \
    --severity --lease-timeout --io-deadline --checkpoint --resume --out --metrics --ledger \
    --quiet";
const WORKER: &str = "--connect --die-on-assign --max-reconnects --backoff-cap --backoff-seed \
    --io-deadline --quiet";
const CHAOSNET: &str = "--upstream --seed --cut --stall --delay --cut-bytes --delay-ms --quiet";

/// The flags that take no value; every other flag takes the next token.
const SWITCHES: &str = "--quiet --resume --chaos-sweep";

/// Exit code of the `--fail-after-shard` injected crash: distinguishable
/// from real failures (1) and usage errors (2) so the recovery tests can
/// assert the abort actually came from the hook.
const FAIL_AFTER_EXIT: i32 = 83;

/// A progress line on stderr, suppressed by `--quiet`.
macro_rules! progress {
    ($args:expr, $($t:tt)*) => {
        if !$args.outputs.quiet {
            eprintln!($($t)*);
        }
    };
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let rest = argv.get(1..).unwrap_or_default();
    match argv.first().map(String::as_str) {
        Some("coordinator") => {
            if let Some((spec, args, outputs)) = parsed(rest, COORDINATOR, coordinator) {
                announce_chaos(&spec, args.quiet);
                let folded = bb_bench::federation::run_coordinator(&spec, &args)
                    .unwrap_or_else(|err| fail(&format!("coordinator: {err}")));
                or_fail(publish::stream(&outputs, spec.seed, folded));
            }
        }
        Some("worker") => {
            if let Some((connect, options, quiet)) = parsed(rest, WORKER, worker) {
                bb_bench::federation::run_worker_process(&connect, &options, quiet)
                    .unwrap_or_else(|err| fail(&format!("worker: {err}")));
            }
        }
        Some("chaosnet") => {
            if let Some(args) = parsed(rest, CHAOSNET, chaosnet) {
                run_chaosnet(&args);
            }
        }
        Some("serve") => {
            if let Some((config, quiet)) = parsed(rest, SERVE, serve) {
                run_serve(config, quiet);
            }
        }
        _ => {
            if let Some(args) = parsed(&argv, BATCH, batch) {
                announce_chaos(&args.spec, args.outputs.quiet);
                match args.spec.users {
                    Some(_) => run_streaming(&args),
                    None => run_materialised(&args),
                }
            }
        }
    }
}

/// The materialised paper run: generate the panel here, then write the
/// artifact set [`publish::paper`] makes of it and print its
/// `experiments.md`.
fn run_materialised(args: &Args) {
    let plan = args.plan;
    let spec = args.spec;
    progress!(
        args,
        "generating world: seed {}, user scale {}, {} days, {} FCC gateways ({} shards / {} threads)",
        spec.seed,
        spec.scale,
        spec.days,
        spec.fcc_users,
        plan.shards,
        plan.threads
    );
    let world = spec.world();
    let mut timings = Timings::new();
    timings.begin("reproduce");
    timings.begin("generate");
    let population = world.population();
    let ((records, upgrades, registry), stats, ckpt) =
        execute(args, population.n_users(), |range| {
            population.observe(range)
        });
    let dataset = Dataset {
        records,
        upgrades,
        survey: population.into_survey(),
    };
    timings.end();
    progress!(
        args,
        "generated {} user records ({} Dasu / {} FCC), {} movers, {} markets in {:.1?}",
        dataset.records.len(),
        dataset.dasu().count(),
        dataset.fcc().count(),
        dataset.upgrades.len(),
        dataset.survey.len(),
        stats.total
    );
    let quiet = args.outputs.quiet;
    let files = publish::paper(
        &world,
        &dataset,
        &registry,
        args.sweeps,
        plan,
        quiet,
        &mut timings,
    );
    let runtime = publish::runtime_json(&stats, ckpt.as_ref());
    or_fail(publish::write_run(&args.outputs, &runtime, &files));
    if args.sweeps.chaos {
        let matrix = args.outputs.out.join("chaos.json");
        progress!(args, "wrote survival matrix to {}", matrix.display());
    }
    let (_, experiments) = files.last().expect("experiments.md closes the set");
    println!("{experiments}");
    timings.end();
    write_chrome_trace(args, &timings);
    progress!(args, "wrote exhibits to {}", args.outputs.out.display());
}

/// The `--users U` scale path, folded in this process: stream ~U users
/// through the mergeable sketch study without materialising the panel.
/// `reproduce coordinator` folds the same run across worker processes;
/// both end in [`publish::stream`].
fn run_streaming(args: &Args) {
    let plan = args.plan;
    let world = args.spec.world();
    let population = world.population();
    progress!(
        args,
        "streaming {} users: seed {}, {} days, {} shards / {} threads",
        population.n_users(),
        args.spec.seed,
        args.spec.days,
        plan.shards,
        plan.threads
    );
    let mut timings = Timings::new();
    timings.begin("reproduce");
    timings.begin("stream");
    let ((study, registry), stats, ckpt) = execute(args, population.n_users(), |range| {
        population.fold(range, StreamStudy::new(), |s, r, u| s.absorb(r, u))
    });
    timings.end();
    progress!(
        args,
        "streamed {} users ({} Dasu / {} FCC, {} movers) in {:.1?} — {:.0} users/sec",
        study.users,
        study.dasu_users,
        study.fcc_users,
        study.movers,
        stats.total,
        study.users as f64 / stats.total.as_secs_f64().max(1e-9)
    );
    timings.begin("render");
    let runtime = publish::runtime_json(&stats, ckpt.as_ref());
    or_fail(publish::stream(
        &args.outputs,
        args.spec.seed,
        Folded {
            study,
            registry,
            runtime,
        },
    ));
    timings.end();
    timings.end();
    write_chrome_trace(args, &timings);
}

/// Configuration of a batch run.
struct Args {
    spec: RunSpec,
    outputs: Outputs,
    sweeps: Sweeps,
    plan: ShardPlan,
    chrome_trace: Option<PathBuf>,
    checkpoint: Option<PathBuf>,
    resume: bool,
    fail_after_shard: Option<u64>,
}

/// The batch run the [`BATCH`] flags describe.
fn batch(flags: &Flags) -> Result<Args, String> {
    let spec = flags.spec(RunSpec::paper(REPRO_SEED))?;
    let sweeps = Sweeps {
        seeds: flags.num("--sweep", "a seed count")?.unwrap_or(0),
        chaos: flags.on("--chaos-sweep"),
    };
    if spec.users.is_some() && (sweeps.chaos || sweeps.seeds > 0) {
        let flag = if sweeps.chaos {
            "--chaos-sweep"
        } else {
            "--sweep"
        };
        return Err(format!(
            "{flag} needs the materialised experiment battery; drop --users"
        ));
    }
    let (checkpoint, resume) = flags.checkpoint()?;
    let fail_after_shard = flags.positive("--fail-after-shard", "a shard count")?;
    if fail_after_shard.is_some() && checkpoint.is_none() {
        return Err("--fail-after-shard requires --checkpoint DIR".into());
    }
    Ok(Args {
        spec,
        outputs: flags.outputs()?,
        sweeps,
        plan: flags.plan()?,
        chrome_trace: flags.path("--chrome-trace")?,
        checkpoint,
        resume,
        fail_after_shard,
    })
}

/// The defaults of a streaming run: the paper's, with 2000 users.
fn stream_defaults() -> RunSpec {
    RunSpec {
        users: Some(2000),
        ..RunSpec::paper(REPRO_SEED)
    }
}

/// The gateway's config the [`SERVE`] flags describe, plus `--quiet`.
fn serve(flags: &Flags) -> Result<(ServerConfig, bool), String> {
    // Jobs vary only the seed, chaos and a JSON-capped user count, so
    // a window and FCC cohort the default job can lay out fit them all.
    let spec = flags.spec(stream_defaults())?;
    let config = ServerConfig {
        port: flags.num("--port", "a port in [0, 65535]")?.unwrap_or(8080),
        cache_dir: flags
            .path("--cache-dir")?
            .unwrap_or_else(|| PathBuf::from("serve-cache")),
        days: spec.days,
        fcc_users: spec.fcc_users,
        plan: flags.plan()?,
        default_seed: spec.seed,
        default_users: spec.users.expect("the streaming defaults set a user count"),
        access_log: flags.path("--access-log")?,
        sse_keepalive: Duration::from_secs(10),
        debug_routes: false,
    };
    Ok((config, flags.on("--quiet")))
}

/// The run the [`COORDINATOR`] flags stream, how the coordinator
/// executes it, and where the artifacts go.
fn coordinator(flags: &Flags) -> Result<(RunSpec, CoordinatorArgs, Outputs), String> {
    let spec = flags.spec(stream_defaults())?;
    let workers: usize = flags.positive("--workers", "an integer")?.unwrap_or(2);
    let shards = match flags.positive("--shards", "an integer")? {
        Some(shards) => shards,
        None => workers.checked_mul(4).ok_or_else(|| {
            format!(
                "--workers {workers}: the default of 4 shards per worker overflows; pass --shards"
            )
        })?,
    };
    let (checkpoint, resume) = flags.checkpoint()?;
    let outputs = flags.outputs()?;
    let args = CoordinatorArgs {
        listen: flags.text("--listen")?.unwrap_or("127.0.0.1:0").into(),
        shards,
        lease_timeout: flags
            .seconds("--lease-timeout")?
            .unwrap_or(Duration::from_secs(30)),
        io_deadline: flags
            .seconds("--io-deadline")?
            .unwrap_or(Duration::from_secs(30)),
        checkpoint,
        resume,
        quiet: outputs.quiet,
    };
    Ok((spec, args, outputs))
}

/// The coordinator address, options and `--quiet` of the [`WORKER`]
/// flags.
fn worker(flags: &Flags) -> Result<(String, WorkerOptions, bool), String> {
    let connect = flags
        .text("--connect")?
        .ok_or("worker requires --connect ADDR")?;
    let defaults = WorkerOptions::default();
    let options = WorkerOptions {
        die_on_assign: flags.positive("--die-on-assign", "an assignment count")?,
        max_reconnects: flags
            .num("--max-reconnects", "a retry count")?
            .unwrap_or(defaults.max_reconnects),
        backoff_cap: flags
            .seconds("--backoff-cap")?
            .unwrap_or(defaults.backoff_cap),
        backoff_seed: flags
            .num("--backoff-seed", "an integer")?
            .unwrap_or(defaults.backoff_seed),
        io_deadline: flags.seconds("--io-deadline")?.or(defaults.io_deadline),
        ..defaults
    };
    Ok((connect.into(), options, flags.on("--quiet")))
}

/// Configuration of the `chaosnet` subcommand.
struct ChaosnetCli {
    upstream: std::net::SocketAddr,
    seed: u64,
    cut_per_mille: u64,
    stall_per_mille: u64,
    delay_per_mille: u64,
    cut_bytes_max: u64,
    delay_ms_max: u64,
    quiet: bool,
}

/// The proxy the [`CHAOSNET`] flags describe.
fn chaosnet(flags: &Flags) -> Result<ChaosnetCli, String> {
    let upstream = flags
        .text("--upstream")?
        .ok_or("chaosnet requires --upstream HOST:PORT")?;
    let per_mille = "a per-mille value in [0, 1000]";
    let args = ChaosnetCli {
        upstream: upstream
            .parse()
            .map_err(|e| format!("--upstream {upstream:?}: {e}"))?,
        seed: flags.num("--seed", "an integer")?.unwrap_or(REPRO_SEED),
        cut_per_mille: flags.num("--cut", per_mille)?.unwrap_or(0),
        stall_per_mille: flags.num("--stall", per_mille)?.unwrap_or(0),
        delay_per_mille: flags.num("--delay", per_mille)?.unwrap_or(0),
        cut_bytes_max: flags
            .positive("--cut-bytes", "a byte count")?
            .unwrap_or(4096),
        delay_ms_max: flags.positive("--delay-ms", "milliseconds")?.unwrap_or(50),
        quiet: flags.on("--quiet"),
    };
    let total = args
        .cut_per_mille
        .saturating_add(args.stall_per_mille)
        .saturating_add(args.delay_per_mille);
    if total > 1000 {
        return Err("--cut + --stall + --delay must not exceed 1000".into());
    }
    Ok(args)
}

/// The `chaosnet` subcommand: a standalone flaky-network proxy between
/// `reproduce worker` processes and a coordinator.
fn run_chaosnet(args: &ChaosnetCli) {
    let plan = bb_federate::ChaosPlan::seeded(
        args.seed,
        args.cut_per_mille,
        args.stall_per_mille,
        args.delay_per_mille,
        args.cut_bytes_max,
        args.delay_ms_max,
    );
    let proxy = bb_federate::ChaosProxy::start(args.upstream, plan)
        .unwrap_or_else(|e| fail(&format!("chaosnet: start proxy: {e}")));
    if !args.quiet {
        eprintln!(
            "chaosnet: seed {}, cut {}‰, stall {}‰, delay {}‰",
            args.seed, args.cut_per_mille, args.stall_per_mille, args.delay_per_mille
        );
    }
    // The bound address on stdout, flushed — same scrape contract as the
    // coordinator and serve banners.
    println!(
        "bb-chaosnet listening on {} -> {}",
        proxy.local_addr(),
        args.upstream
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    signals::install();
    while !signals::requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    let stats = proxy.stats();
    if !args.quiet {
        eprintln!(
            "chaosnet: {} connections, {} cuts, {} stalls, {} delayed chunks, {} bytes",
            stats.connections,
            stats.cuts,
            stats.stalls,
            stats.delayed_chunks,
            stats.bytes_forwarded
        );
    }
}

/// The `serve` subcommand: start the gateway and run until killed.
fn run_serve(config: ServerConfig, quiet: bool) {
    let summary = format!(
        "serve: cache {} ({} shards / {} threads, {} days, {} FCC)",
        config.cache_dir.display(),
        config.plan.shards,
        config.plan.threads,
        config.days,
        config.fcc_users
    );
    let mut server = Server::start(config).unwrap_or_else(|e| fail(&format!("serve: {e}")));
    publish::progress(quiet, &summary);
    // The bound address on stdout, flushed, so a parent process (the CI
    // smoke job, the end-to-end tests) can scrape the ephemeral port.
    println!("bb-serve listening on http://{}", server.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    signals::install();
    while !signals::requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    publish::progress(
        quiet,
        "serve: shutdown signal received, draining in-flight requests",
    );
    // Graceful path: stop accepting, drain the in-flight pool, flush the
    // access log. A job still computing keeps its per-shard checkpoints
    // (they are committed as shards finish), so a restarted server
    // resumes it from the last durable shard; exiting without joining
    // the scheduler thread is what lets a long job stop mid-run.
    server.shutdown();
    std::process::exit(0);
}

/// Minimal async-signal-safe SIGTERM/SIGINT latch. The binary links
/// libc through std anyway; `signal(2)` with a flag-setting handler is
/// the one legal thing a handler may do without locks or allocation.
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static REQUESTED: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    /// Install the latch for SIGTERM and SIGINT.
    pub fn install() {
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }

    /// True once either signal has been delivered.
    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

/// One command line's flags, each given at most once, read through one
/// accessor per rule.
struct Flags {
    values: BTreeMap<&'static str, String>,
}

impl Flags {
    /// Read `argv` against the `accepted` flag list. `Ok(None)` means
    /// `--help`; a flag outside the list, a flag given twice and a
    /// missing value are errors. A switch ([`SWITCHES`]) takes no value;
    /// every other flag takes the next token.
    fn parse(argv: &[String], accepted: &'static str) -> Result<Option<Flags>, String> {
        let mut values = BTreeMap::new();
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            if arg == "--help" || arg == "-h" {
                return Ok(None);
            }
            let flag = accepted
                .split_whitespace()
                .find(|flag| flag == arg)
                .ok_or_else(|| format!("unknown flag {arg:?}"))?;
            let value = if SWITCHES.split_whitespace().any(|s| s == flag) {
                String::new()
            } else {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("missing value for {flag}"))?
            };
            if values.insert(flag, value).is_some() {
                return Err(format!("{flag} given more than once"));
            }
        }
        Ok(Some(Flags { values }))
    }

    /// Whether `flag` was given.
    fn on(&self, flag: &str) -> bool {
        self.values.contains_key(flag)
    }

    /// The value of `flag`, which must not be empty.
    fn text(&self, flag: &str) -> Result<Option<&str>, String> {
        match self.values.get(flag) {
            Some(value) if value.is_empty() => Err(format!("{flag} must not be empty")),
            value => Ok(value.map(String::as_str)),
        }
    }

    /// The value of `flag` as a path.
    fn path(&self, flag: &str) -> Result<Option<PathBuf>, String> {
        Ok(self.text(flag)?.map(PathBuf::from))
    }

    /// The value of `flag` parsed, describing the expected shape on error.
    fn num<T: FromStr>(&self, flag: &str, wants: &str) -> Result<Option<T>, String> {
        let Some(raw) = self.text(flag)? else {
            return Ok(None);
        };
        raw.parse()
            .map(Some)
            .map_err(|_| format!("{flag} takes {wants}, got {raw:?}"))
    }

    /// The value of `flag`: a number of at least 1.
    fn positive<T: FromStr + Default + PartialEq>(
        &self,
        flag: &str,
        wants: &str,
    ) -> Result<Option<T>, String> {
        match self.num(flag, wants)? {
            Some(n) if n == T::default() => Err(format!("{flag} must be at least 1")),
            n => Ok(n),
        }
    }

    /// The value of `flag`: a whole number of seconds, at least 1.
    fn seconds(&self, flag: &str) -> Result<Option<Duration>, String> {
        let secs = self.positive(flag, "a whole number of seconds")?;
        Ok(secs.map(Duration::from_secs))
    }

    /// The run-identity flags — `--seed`, `--scale`, `--days`, `--fcc`,
    /// `--users`, `--chaos`, `--severity` — over `defaults`, validated.
    /// A streaming run sizes its world from the user count, so a
    /// `--scale` there would be ignored yet still pinned into the
    /// checkpoint identity: it is refused instead, and so is a world too
    /// large to lay out.
    fn spec(&self, defaults: RunSpec) -> Result<RunSpec, String> {
        let scale = self.num("--scale", "a number")?;
        let chaos = self.text("--chaos")?;
        let severity = self.num("--severity", "a number in [0, 1]")?;
        let spec = RunSpec {
            seed: self.num("--seed", "an integer")?.unwrap_or(defaults.seed),
            scale: scale.unwrap_or(defaults.scale),
            days: self
                .positive("--days", "an integer")?
                .unwrap_or(defaults.days),
            fcc_users: self
                .num("--fcc", "an integer")?
                .unwrap_or(defaults.fcc_users),
            users: self.positive("--users", "an integer")?.or(defaults.users),
            chaos: ChaosSpec::parse(chaos, severity)
                .map_err(|e| format!("--chaos/--severity: {e}"))?,
        };
        if scale.is_some() && spec.users.is_some() {
            return Err(
                "--scale sizes the materialised panel; a streaming run takes --users".into(),
            );
        }
        spec.validate()?;
        Ok(spec)
    }

    /// The shard plan `--shards`/`--threads` imply. Output never depends
    /// on it.
    fn plan(&self) -> Result<ShardPlan, String> {
        let threads = self.positive("--threads", "an integer")?.unwrap_or(1);
        match self.positive("--shards", "an integer")? {
            Some(shards) => Ok(ShardPlan::new(shards, threads)),
            None => ShardPlan::for_threads(threads).ok_or_else(|| {
                format!(
                    "--threads {threads}: the default of 4 shards per thread overflows; pass --shards"
                )
            }),
        }
    }

    /// Where the artifacts go: `--out`, `--metrics`, `--ledger`, `--quiet`.
    fn outputs(&self) -> Result<Outputs, String> {
        Ok(Outputs {
            out: self
                .path("--out")?
                .unwrap_or_else(|| PathBuf::from("results")),
            metrics: self.path("--metrics")?,
            ledger: self.path("--ledger")?,
            quiet: self.on("--quiet"),
        })
    }

    /// `--checkpoint DIR`, and whether `--resume` restores from it.
    fn checkpoint(&self) -> Result<(Option<PathBuf>, bool), String> {
        let dir = self.path("--checkpoint")?;
        let resume = self.on("--resume");
        if resume && dir.is_none() {
            return Err("--resume requires --checkpoint DIR".into());
        }
        Ok((dir, resume))
    }
}

/// Run `body` over every shard of `0..n_items` under the batch plan and
/// fold the partials in shard order: in memory, or with `--checkpoint`
/// durably, resuming with `--resume` and recording `DIR/status.json`.
/// Both batch paths execute through here; only their per-range body
/// differs.
fn execute<A, F>(args: &Args, n_items: u64, body: F) -> (A, RunStats, Option<CheckpointReport>)
where
    A: Mergeable + Snapshot + Send,
    F: Fn(Range<u64>) -> A + Sync,
{
    let plan = args.plan;
    let Some(dir) = &args.checkpoint else {
        let (acc, stats) = run_sharded(n_items, plan, body);
        return (acc, stats, None);
    };
    let store = CheckpointStore::new(dir, args.spec.checkpoint_params());
    // `--fail-after-shard N`: abort once this process has computed N
    // shards. The engine reports a computed shard only once it is
    // durable, so exactly the shards counted here survive the crash.
    let computed = AtomicU64::new(0);
    let fail_after = args.fail_after_shard.map(|n| {
        let computed = &computed;
        move |p: ShardProgress| {
            if !p.restored && computed.fetch_add(1, Ordering::Relaxed) + 1 >= n {
                progress!(
                    args,
                    "reproduce: injected failure after {n} committed shards"
                );
                std::process::exit(FAIL_AFTER_EXIT);
            }
        }
    });
    let observer = fail_after
        .as_ref()
        .map(|f| f as &(dyn Fn(ShardProgress) + Sync));
    match run_sharded_checkpointed(n_items, plan, &store, args.resume, observer, body) {
        Ok((acc, stats, report)) => {
            or_fail(publish::checkpoint_status(
                args.outputs.quiet,
                &store,
                &report,
            ));
            (acc, stats, Some(report))
        }
        Err(e) => fail(&e.to_string()),
    }
}

/// The config `build` makes of `argv`'s `accepted` flags, or `None` once
/// `--help` has printed the usage text; an error is a [`usage_error`].
fn parsed<T>(
    argv: &[String],
    accepted: &'static str,
    build: fn(&Flags) -> Result<T, String>,
) -> Option<T> {
    match Flags::parse(argv, accepted).and_then(|flags| flags.map(|f| build(&f)).transpose()) {
        Ok(None) => {
            print!("{USAGE}");
            None
        }
        Ok(some) => some,
        Err(err) => usage_error(&err),
    }
}

/// A usage error: the message, then the usage text, exit code 2.
fn usage_error(err: &str) -> ! {
    eprint!("reproduce: {err}\n\n{USAGE}");
    std::process::exit(2)
}

/// A runtime failure: the message, exit code 1.
fn fail(message: &str) -> ! {
    eprintln!("reproduce: {message}");
    std::process::exit(1)
}

/// The value, or [`fail`] with the error.
fn or_fail<T>(result: Result<T, String>) -> T {
    result.unwrap_or_else(|err| fail(&err))
}

/// Say on stderr which degradation campaign the run applies, if any.
fn announce_chaos(spec: &RunSpec, quiet: bool) {
    if let Some(chaos) = &spec.chaos {
        publish::progress(quiet, &format!("chaos campaign active: {}", chaos.label()));
    }
}

/// Write the plan-dependent Chrome trace of the harness phases.
fn write_chrome_trace(args: &Args, timings: &Timings) {
    let Some(path) = &args.chrome_trace else {
        return;
    };
    or_fail(publish::write_file(path, &timings.to_chrome_trace()));
    progress!(
        args,
        "wrote chrome trace to {} (open in Perfetto or chrome://tracing)",
        path.display()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The flags a `USAGE` section documents, `--help` aside, each with
    /// whether its line shows a metavar, sorted.
    fn documented(section: &str) -> Vec<(&'static str, bool)> {
        let block = USAGE
            .split("\n\n")
            .find(|block| block.starts_with(section))
            .unwrap_or_else(|| panic!("no {section:?} section in USAGE"));
        let mut flags: Vec<(&str, bool)> = block
            .lines()
            .filter(|line| line.starts_with("  --"))
            .map(|line| {
                let mut words = line.split_whitespace();
                let flag = words.next().expect("a flag starts the line");
                let metavar = words
                    .next()
                    .is_some_and(|word| word.chars().all(|c| c.is_ascii_uppercase()));
                (flag, metavar)
            })
            .collect();
        flags.sort_unstable();
        flags
    }

    #[test]
    fn each_subcommand_accepts_exactly_the_flags_its_usage_documents() {
        for (section, accepted) in [
            ("options:", BATCH),
            ("serve options", SERVE),
            ("coordinator options", COORDINATOR),
            ("worker options", WORKER),
            ("chaosnet options", CHAOSNET),
        ] {
            let mut listed: Vec<(&str, bool)> = accepted
                .split_whitespace()
                .map(|flag| (flag, !SWITCHES.split_whitespace().any(|s| s == flag)))
                .collect();
            listed.sort_unstable();
            assert_eq!(listed, documented(section), "{section}");
        }
    }
}
