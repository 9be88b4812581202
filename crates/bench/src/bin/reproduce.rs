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
//! `--threads`/`--shards` parallelise world generation through
//! `bb-engine`; the output is bit-identical for every plan. `--users U`
//! switches to the streaming scale path: the panel is never materialised —
//! `~U` users are folded shard by shard into `bb_study::StreamStudy`
//! sketches, and the headline exhibits (Fig. 1, Fig. 2, Fig. 7) are
//! rendered from the merged sketches in bounded memory. The run-identity
//! flags (`--seed`, `--scale`, `--days`, `--fcc`, `--users`, `--chaos`,
//! `--severity`) become one `bb_dataset::RunSpec`, the identity every
//! surface — batch, `serve`, `coordinator` — pins in its checkpoints.
//!
//! `--metrics PATH` writes the merged `bb-trace` registry — collection
//! heuristic counters, a pure function of the seed and therefore
//! byte-identical for every shard/thread plan — plus a plan-dependent
//! `.runtime.json` sidecar (wall times, steal counts). `--ledger PATH`
//! writes the provenance event log (JSONL, also plan-invariant):
//! one event per exhibit with input/drop accounting, one `match_audit`
//! per natural experiment, one `sign_test` per reported test.
//! `--chrome-trace PATH` writes a plan-dependent Chrome trace-event
//! file of the harness phases, loadable in Perfetto. `--quiet`
//! suppresses the per-phase progress lines on stderr.
//!
//! `--checkpoint DIR` commits every completed shard to `DIR` (atomic
//! tmp-file + rename, fsync'd manifest) and `--resume` restores the
//! committed shards of a matching earlier run instead of recomputing
//! them; mismatched or corrupt state is rejected and recomputed, never
//! merged. A resumed run's outputs are byte-identical to a cold run
//! under any `--threads`/`--shards` plan. `DIR/status.json` records the
//! `checkpoint.skipped` / `checkpoint.recomputed` /
//! `checkpoint.rejected` counters of the most recent run.
//! `--fail-after-shard N` is the crash-injection test hook: a progress
//! observer that aborts the process with exit code 83 once this process
//! has computed N shards, each of which is durable before it is reported.

use bb_bench::federation::CoordinatorArgs;
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
use std::ops::Range;
use std::path::PathBuf;
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
    let rest = || argv.iter().skip(1).cloned();
    match argv.first().map(String::as_str) {
        Some("coordinator") => {
            if let Some((spec, args, outputs)) = parsed(CoordinatorCli::try_parse(rest())) {
                announce_chaos(&spec, args.quiet);
                let folded = bb_bench::federation::run_coordinator(&spec, &args)
                    .unwrap_or_else(|err| fail(&format!("coordinator: {err}")));
                or_fail(publish::stream(&outputs, spec.seed, folded));
            }
        }
        Some("worker") => {
            if let Some(args) = parsed(WorkerCli::try_parse(rest())) {
                bb_bench::federation::run_worker_process(&args.connect, &args.options, args.quiet)
                    .unwrap_or_else(|err| fail(&format!("worker: {err}")));
            }
        }
        Some("chaosnet") => {
            if let Some(args) = parsed(ChaosnetCli::try_parse(rest())) {
                run_chaosnet(&args);
            }
        }
        Some("serve") => {
            if let Some((config, quiet)) = parsed(ServeCli::try_parse(rest())) {
                run_serve(config, quiet);
            }
        }
        _ => {
            if let Some(args) = parsed(Args::try_parse(argv.iter().cloned())) {
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

/// Parser for the `serve` subcommand: the gateway's config, plus
/// `--quiet`.
struct ServeCli;

impl ServeCli {
    /// Parse the flags after `serve`. `Ok(None)` means `--help`.
    fn try_parse(
        mut it: impl Iterator<Item = String>,
    ) -> Result<Option<(ServerConfig, bool)>, String> {
        let paper = RunSpec::paper(REPRO_SEED);
        let mut config = ServerConfig {
            port: 8080,
            cache_dir: PathBuf::from("serve-cache"),
            days: paper.days,
            fcc_users: paper.fcc_users,
            plan: ShardPlan::serial(),
            default_seed: paper.seed,
            default_users: 2000,
            access_log: None,
            sse_keepalive: Duration::from_secs(10),
            debug_routes: false,
        };
        let (mut threads, mut shards, mut quiet) = (1, None, false);
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--port" => {
                    config.port = num(&flag, &take(&mut it, &flag)?, "a port in [0, 65535]")?;
                }
                "--cache-dir" => config.cache_dir = PathBuf::from(non_empty(&flag, &mut it)?),
                "--days" => config.days = positive(&flag, &mut it, "an integer")?,
                "--fcc" => config.fcc_users = num(&flag, &take(&mut it, &flag)?, "an integer")?,
                "--seed" => config.default_seed = num(&flag, &take(&mut it, &flag)?, "an integer")?,
                "--users" => config.default_users = positive(&flag, &mut it, "an integer")?,
                "--threads" => threads = positive(&flag, &mut it, "an integer")?,
                "--shards" => shards = Some(positive(&flag, &mut it, "an integer")?),
                "--access-log" => {
                    config.access_log = Some(PathBuf::from(non_empty(&flag, &mut it)?));
                }
                "--quiet" => quiet = true,
                "--help" | "-h" => return Ok(None),
                other => return Err(format!("unknown serve flag {other:?}")),
            }
        }
        config.plan = shard_plan(shards, threads)?;
        // Jobs vary only the seed, chaos and a JSON-capped user count, so
        // a window and FCC cohort the default job can lay out fit them all.
        RunSpec {
            users: Some(config.default_users),
            days: config.days,
            fcc_users: config.fcc_users,
            ..RunSpec::paper(config.default_seed)
        }
        .validate()?;
        Ok(Some((config, quiet)))
    }
}

/// Parser for the `coordinator` subcommand: the run it streams, how it
/// executes it, and where the artifacts go.
struct CoordinatorCli;

impl CoordinatorCli {
    /// Parse the flags after `coordinator`. `Ok(None)` means `--help`.
    fn try_parse(
        mut it: impl Iterator<Item = String>,
    ) -> Result<Option<(RunSpec, CoordinatorArgs, Outputs)>, String> {
        let mut identity = SpecFlags::new(RunSpec {
            users: Some(2000),
            ..RunSpec::paper(REPRO_SEED)
        });
        let mut args = CoordinatorArgs {
            listen: String::from("127.0.0.1:0"),
            shards: 0,
            lease_timeout: Duration::from_secs(30),
            io_deadline: Duration::from_secs(30),
            checkpoint: None,
            resume: false,
            quiet: false,
        };
        let mut outputs = Outputs {
            out: PathBuf::from("results"),
            metrics: None,
            ledger: None,
            quiet: false,
        };
        let mut workers: usize = 2;
        let mut shards: Option<usize> = None;
        while let Some(flag) = it.next() {
            if identity.take(&flag, &mut it)? {
                continue;
            }
            match flag.as_str() {
                "--listen" => args.listen = non_empty(&flag, &mut it)?,
                "--workers" => workers = positive(&flag, &mut it, "an integer")?,
                "--shards" => shards = Some(positive(&flag, &mut it, "an integer")?),
                "--lease-timeout" => args.lease_timeout = seconds(&flag, &mut it)?,
                "--io-deadline" => args.io_deadline = seconds(&flag, &mut it)?,
                "--checkpoint" => args.checkpoint = Some(PathBuf::from(non_empty(&flag, &mut it)?)),
                "--resume" => args.resume = true,
                "--out" => outputs.out = PathBuf::from(take(&mut it, &flag)?),
                "--metrics" => outputs.metrics = Some(PathBuf::from(take(&mut it, &flag)?)),
                "--ledger" => outputs.ledger = Some(PathBuf::from(take(&mut it, &flag)?)),
                "--quiet" => args.quiet = true,
                "--help" | "-h" => return Ok(None),
                other => return Err(format!("unknown coordinator flag {other:?}")),
            }
        }
        let spec = identity.finish()?;
        if args.resume && args.checkpoint.is_none() {
            return Err("--resume requires --checkpoint DIR".into());
        }
        args.shards = match shards {
            Some(shards) => shards,
            None => workers.checked_mul(4).ok_or_else(|| {
                format!("--workers {workers}: the default of 4 shards per worker overflows; pass --shards")
            })?,
        };
        outputs.quiet = args.quiet;
        Ok(Some((spec, args, outputs)))
    }
}

/// Configuration of the `worker` subcommand.
struct WorkerCli {
    connect: String,
    options: bb_bench::federation::WorkerOptions,
    quiet: bool,
}

impl WorkerCli {
    /// Parse the flags after `worker`. `Ok(None)` means `--help`.
    fn try_parse(mut it: impl Iterator<Item = String>) -> Result<Option<WorkerCli>, String> {
        let mut connect: Option<String> = None;
        let mut options = bb_bench::federation::WorkerOptions::default();
        let mut quiet = false;
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--connect" => connect = Some(non_empty(&flag, &mut it)?),
                "--die-on-assign" => {
                    options.die_on_assign = Some(positive(&flag, &mut it, "an assignment count")?);
                }
                "--max-reconnects" => {
                    options.max_reconnects = num(&flag, &take(&mut it, &flag)?, "a retry count")?;
                }
                "--backoff-cap" => options.backoff_cap = seconds(&flag, &mut it)?,
                "--backoff-seed" => {
                    options.backoff_seed = num(&flag, &take(&mut it, &flag)?, "an integer")?;
                }
                "--io-deadline" => options.io_deadline = Some(seconds(&flag, &mut it)?),
                "--quiet" => quiet = true,
                "--help" | "-h" => return Ok(None),
                other => return Err(format!("unknown worker flag {other:?}")),
            }
        }
        let connect = connect.ok_or("worker requires --connect ADDR")?;
        Ok(Some(WorkerCli {
            connect,
            options,
            quiet,
        }))
    }
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

impl ChaosnetCli {
    /// Parse the flags after `chaosnet`. `Ok(None)` means `--help`.
    fn try_parse(mut it: impl Iterator<Item = String>) -> Result<Option<ChaosnetCli>, String> {
        let mut args = ChaosnetCli {
            upstream: "127.0.0.1:0".parse().expect("literal addr"),
            seed: REPRO_SEED,
            cut_per_mille: 0,
            stall_per_mille: 0,
            delay_per_mille: 0,
            cut_bytes_max: 4096,
            delay_ms_max: 50,
            quiet: false,
        };
        let mut upstream_set = false;
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--upstream" => {
                    let addr = take(&mut it, &flag)?;
                    args.upstream = addr
                        .parse()
                        .map_err(|e| format!("--upstream {addr:?}: {e}"))?;
                    upstream_set = true;
                }
                "--seed" => args.seed = num(&flag, &take(&mut it, &flag)?, "an integer")?,
                "--cut" => {
                    args.cut_per_mille = per_mille(&flag, &take(&mut it, &flag)?)?;
                }
                "--stall" => {
                    args.stall_per_mille = per_mille(&flag, &take(&mut it, &flag)?)?;
                }
                "--delay" => {
                    args.delay_per_mille = per_mille(&flag, &take(&mut it, &flag)?)?;
                }
                "--cut-bytes" => args.cut_bytes_max = positive(&flag, &mut it, "a byte count")?,
                "--delay-ms" => args.delay_ms_max = positive(&flag, &mut it, "milliseconds")?,
                "--quiet" => args.quiet = true,
                "--help" | "-h" => return Ok(None),
                other => return Err(format!("unknown chaosnet flag {other:?}")),
            }
        }
        if !upstream_set {
            return Err("chaosnet requires --upstream HOST:PORT".into());
        }
        if args.cut_per_mille + args.stall_per_mille + args.delay_per_mille > 1000 {
            return Err("--cut + --stall + --delay must not exceed 1000".into());
        }
        Ok(Some(args))
    }
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

/// `--cut`/`--stall`/`--delay` take per-mille probabilities in [0, 1000].
fn per_mille(flag: &str, value: &str) -> Result<u64, String> {
    let n: u64 = num(flag, value, "a per-mille value in [0, 1000]")?;
    if n > 1000 {
        return Err(format!("{flag} must be at most 1000, got {n}"));
    }
    Ok(n)
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

/// The next token after `flag`, or a "missing value" error.
fn take(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("missing value for {flag}"))
}

/// Parse `raw` as the value of `flag`, describing the expected shape on error.
fn num<T: std::str::FromStr>(flag: &str, raw: &str, wants: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{flag} takes {wants}, got {raw:?}"))
}

/// The value of `flag`: a number of at least 1.
fn positive<T: std::str::FromStr + Default + PartialEq>(
    flag: &str,
    it: &mut impl Iterator<Item = String>,
    wants: &str,
) -> Result<T, String> {
    let n: T = num(flag, &take(it, flag)?, wants)?;
    if n == T::default() {
        return Err(format!("{flag} must be at least 1"));
    }
    Ok(n)
}

/// The value of `flag`: a whole number of seconds, at least 1.
fn seconds(flag: &str, it: &mut impl Iterator<Item = String>) -> Result<Duration, String> {
    positive(flag, it, "a whole number of seconds").map(Duration::from_secs)
}

/// The value of `flag`, which must not be empty.
fn non_empty(flag: &str, it: &mut impl Iterator<Item = String>) -> Result<String, String> {
    let value = take(it, flag)?;
    if value.is_empty() {
        return Err(format!("{flag} must not be empty"));
    }
    Ok(value)
}

/// The shard plan `--shards`/`--threads` imply. Output never depends on
/// it.
fn shard_plan(shards: Option<usize>, threads: usize) -> Result<ShardPlan, String> {
    match shards {
        Some(shards) => Ok(ShardPlan::new(shards, threads)),
        None => ShardPlan::for_threads(threads).ok_or_else(|| {
            format!(
                "--threads {threads}: the default of 4 shards per thread overflows; pass --shards"
            )
        }),
    }
}

/// The run-identity flags the batch run and the coordinator share —
/// `--seed`, `--scale`, `--days`, `--fcc`, `--users`, `--chaos`,
/// `--severity` — read into a [`RunSpec`].
struct SpecFlags {
    spec: RunSpec,
    scale_set: bool,
    chaos: Option<String>,
    severity: Option<f64>,
}

impl SpecFlags {
    /// Start from `defaults`.
    fn new(defaults: RunSpec) -> Self {
        SpecFlags {
            spec: defaults,
            scale_set: false,
            chaos: None,
            severity: None,
        }
    }

    /// Consume `flag` and its value if it is a run-identity flag;
    /// `Ok(false)` leaves every other flag to the caller.
    fn take(&mut self, flag: &str, it: &mut impl Iterator<Item = String>) -> Result<bool, String> {
        let spec = &mut self.spec;
        match flag {
            "--seed" => spec.seed = num(flag, &take(it, flag)?, "an integer")?,
            "--scale" => {
                spec.scale = num(flag, &take(it, flag)?, "a number")?;
                self.scale_set = true;
            }
            "--days" => spec.days = positive(flag, it, "an integer")?,
            "--fcc" => spec.fcc_users = num(flag, &take(it, flag)?, "an integer")?,
            "--users" => spec.users = Some(positive(flag, it, "an integer")?),
            "--chaos" => self.chaos = Some(take(it, flag)?),
            "--severity" => {
                self.severity = Some(num(flag, &take(it, flag)?, "a number in [0, 1]")?);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The validated spec. A streaming run sizes its world from the user
    /// count, so a `--scale` there would be ignored yet still pinned into
    /// the checkpoint identity: it is refused instead, and so is a world
    /// too large to lay out.
    fn finish(self) -> Result<RunSpec, String> {
        let mut spec = self.spec;
        spec.chaos = ChaosSpec::parse(self.chaos.as_deref(), self.severity)
            .map_err(|e| format!("--chaos/--severity: {e}"))?;
        if self.scale_set && spec.users.is_some() {
            return Err(
                "--scale sizes the materialised panel; a streaming run takes --users".into(),
            );
        }
        spec.validate()?;
        Ok(spec)
    }
}

impl Args {
    /// Parse the batch flags. `Ok(None)` means `--help`.
    fn try_parse(mut it: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
        let mut identity = SpecFlags::new(RunSpec::paper(REPRO_SEED));
        let mut args = Args {
            spec: identity.spec,
            outputs: Outputs {
                out: PathBuf::from("results"),
                metrics: None,
                ledger: None,
                quiet: false,
            },
            sweeps: Sweeps::default(),
            plan: ShardPlan::serial(),
            chrome_trace: None,
            checkpoint: None,
            resume: false,
            fail_after_shard: None,
        };
        let (mut threads, mut shards) = (1, None);
        while let Some(flag) = it.next() {
            if identity.take(&flag, &mut it)? {
                continue;
            }
            match flag.as_str() {
                "--out" => args.outputs.out = PathBuf::from(take(&mut it, &flag)?),
                "--sweep" => {
                    args.sweeps.seeds = num(&flag, &take(&mut it, &flag)?, "a seed count")?;
                }
                "--chaos-sweep" => args.sweeps.chaos = true,
                "--threads" => threads = positive(&flag, &mut it, "an integer")?,
                "--shards" => shards = Some(positive(&flag, &mut it, "an integer")?),
                "--metrics" => args.outputs.metrics = Some(PathBuf::from(take(&mut it, &flag)?)),
                "--ledger" => args.outputs.ledger = Some(PathBuf::from(take(&mut it, &flag)?)),
                "--chrome-trace" => {
                    args.chrome_trace = Some(PathBuf::from(take(&mut it, &flag)?));
                }
                "--checkpoint" => args.checkpoint = Some(PathBuf::from(take(&mut it, &flag)?)),
                "--resume" => args.resume = true,
                "--fail-after-shard" => {
                    args.fail_after_shard = Some(positive(&flag, &mut it, "a shard count")?);
                }
                "--quiet" => args.outputs.quiet = true,
                "--help" | "-h" => return Ok(None),
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        args.spec = identity.finish()?;
        args.plan = shard_plan(shards, threads)?;
        if args.spec.users.is_some() && (args.sweeps.chaos || args.sweeps.seeds > 0) {
            let flag = if args.sweeps.chaos {
                "--chaos-sweep"
            } else {
                "--sweep"
            };
            return Err(format!(
                "{flag} needs the materialised experiment battery; drop --users"
            ));
        }
        if args.resume && args.checkpoint.is_none() {
            return Err("--resume requires --checkpoint DIR".into());
        }
        if args.fail_after_shard.is_some() && args.checkpoint.is_none() {
            return Err("--fail-after-shard requires --checkpoint DIR".into());
        }
        Ok(Some(args))
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

/// A parsed command line, or `None` once `--help` has printed the usage
/// text; a parse error is a [`usage_error`].
fn parsed<T>(result: Result<Option<T>, String>) -> Option<T> {
    match result {
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
