//! The HTTP routes, wired to the scheduler.
//!
//! ```text
//! POST /jobs                  submit {seed, users, scenario, severity}
//! GET  /jobs                  list all jobs
//! GET  /jobs/{id}             one job's state
//! GET  /jobs/{id}/events      SSE progress stream (full replay)
//! GET  /metrics               latest job's metrics.json   (?job=N)
//! GET  /metrics.prom          live telemetry, Prometheus text format
//! GET  /debug/telemetry       live telemetry, full JSON snapshot
//! GET  /ledger                latest job's ledger.jsonl   (?job=N, ?exhibit=ID)
//! GET  /exhibits              exhibit id list
//! GET  /exhibits/{id}         one exhibit (?format=md|json|txt|csv|gp)
//! GET  /countries/{cc}        per-country drill-down      (?job=N)
//! GET  /survival              chaos survival matrix       (?scenario=NAME, ?format=json|md)
//! GET  /healthz               liveness + uptime + scheduler/cache counters
//! GET  /version               service and format versions
//! ```
//!
//! Every `GET` route also answers `HEAD` with identical headers
//! (including the `Content-Length` the body would have) and no body.
//!
//! Concurrency model: the listener thread accepts; a fixed pool handles
//! connections; exactly one scheduler worker computes jobs, so requests
//! never contend with each other for the simulation engine, and reads
//! (`/metrics`, `/exhibits/...`) serve completed jobs' artifacts even
//! while the worker is busy resuming another job: from the scheduler's
//! hot set of recent artifact sets, or read back from the result cache
//! and digest-verified. All result-bearing responses are the exact
//! artifact bytes the batch CLI writes for the same parameters.
//!
//! No peer can hold a pool thread indefinitely: each connection has
//! [`READ_DEADLINE`] (5 s) to deliver its whole request, whose head is
//! capped at 16 KiB, and each response or SSE chunk has 5 s to leave. An
//! expired deadline is counted in `serve.conn.timeouts`, and an
//! incomplete request is answered 408.
//!
//! Every request takes one path. A request that does not parse is
//! answered with its error status; any other is routed, and every route,
//! the SSE routes included, returns a reply: a response, or a feed to
//! stream. That reply is written once, and the exchange is recorded
//! once: a monotonic request id, the in-flight gauge, per-route RED
//! metrics, and (with `--access-log`) one JSONL access-log line. A
//! panicking handler is caught, answered with a 500, and counted in
//! `serve.panics` — it never takes a pool worker down. Telemetry labels
//! always use the route *template* (`/jobs/{id}`) and one of four method
//! labels (`GET`, `HEAD`, `POST`, `other`), keeping metric cardinality
//! bounded.

use crate::http::{
    read_request, write_sse_head, Conn, Request, RequestError, Response, ThreadPool, MAX_BODY,
    MAX_HEAD, READ_DEADLINE,
};
use crate::runner;
use crate::scheduler::Scheduler;
use crate::sse::Feed;
use crate::telemetry::ServeTelemetry;
use bb_dataset::{RunSpec, WorldConfig};
use bb_engine::ShardPlan;
use bb_netsim::chaos::ChaosSpec;
use bb_report::{json as report_json, markdown};
use bb_study::robustness::{chaos_sweep, SurvivalMatrix};
use bb_trace::telemetry::SystemClock;
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// The reduced severity grid behind `GET /survival`: the mandatory
/// fault-free baseline plus two probe points. The full grid belongs to
/// the batch `--chaos-sweep` campaign; the endpoint is a drill-down.
const SURVIVAL_GRID: &[f64] = &[0.0, 0.5, 1.0];

/// Connection-handling pool size. Jobs run on the scheduler's worker,
/// so these threads only parse, route and serve bytes.
pub const HTTP_THREADS: usize = 8;

/// Everything a server instance needs to know.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Port to bind on 127.0.0.1 (0 = ephemeral).
    pub port: u16,
    /// Result cache + checkpoint root.
    pub cache_dir: PathBuf,
    /// Observation window for every job, days.
    pub days: u32,
    /// FCC cohort size for every job.
    pub fcc_users: usize,
    /// Shard/thread plan. Never affects result bytes.
    pub plan: ShardPlan,
    /// Seed used when a job spec omits one.
    pub default_seed: u64,
    /// User count used when a job spec omits one.
    pub default_users: u64,
    /// Append one JSONL line per request to this file.
    pub access_log: Option<PathBuf>,
    /// Idle interval after which SSE streams emit a `: keepalive`
    /// comment frame (and thereby notice dead peers).
    pub sse_keepalive: Duration,
    /// Enable the test-only `/debug/panic` and `/debug/hold` routes.
    /// Never set outside tests.
    pub debug_routes: bool,
}

struct Inner {
    scheduler: Scheduler,
    config: ServerConfig,
    telemetry: Arc<ServeTelemetry>,
    /// A feed that never closes, behind `/debug/hold`: a deterministic
    /// way for tests to hold an SSE stream open until the subscriber
    /// drops (exercising keepalives and `serve.sse.dropped`).
    hold: Arc<Feed>,
    /// Lazily computed survival matrices, one per scenario.
    survival: Mutex<BTreeMap<&'static str, Arc<SurvivalMatrix>>>,
    shutdown: AtomicBool,
}

/// A running gateway: listener thread + connection pool + scheduler.
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    accept: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Bind `127.0.0.1:{port}` and start serving.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        let addr = listener.local_addr()?;
        let telemetry = Arc::new(ServeTelemetry::new(
            Arc::new(SystemClock::new()),
            config.access_log.as_deref(),
        )?);
        let inner = Arc::new(Inner {
            scheduler: Scheduler::start(&config.cache_dir, config.plan, Arc::clone(&telemetry)),
            config,
            telemetry,
            hold: Arc::new(Feed::new()),
            survival: Mutex::new(BTreeMap::new()),
            shutdown: AtomicBool::new(false),
        });
        let accept = {
            let inner = Arc::clone(&inner);
            thread::spawn(move || {
                // The worker-level catch is a backstop: handlers answer
                // their own panics with a 500 (and count them), so only
                // a panic outside the handler path reaches the pool.
                let pool = ThreadPool::new(
                    HTTP_THREADS,
                    Arc::clone(&inner.telemetry.pool_busy),
                    Arc::clone(&inner.telemetry.panics),
                );
                for stream in listener.incoming() {
                    if inner.shutdown.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let inner = Arc::clone(&inner);
                    pool.execute(move || handle_connection(&inner, stream));
                }
                // Dropping the pool drains in-flight connections.
            })
        };
        Ok(Server {
            inner,
            addr,
            accept: Some(accept),
        })
    }

    /// The live-telemetry surface, for in-process inspection in tests.
    pub fn telemetry(&self) -> &ServeTelemetry {
        &self.inner.telemetry
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The scheduler, for in-process inspection in tests.
    pub fn scheduler(&self) -> &Scheduler {
        &self.inner.scheduler
    }

    /// Stop accepting, unblock SSE readers, join the listener.
    pub fn shutdown(&mut self) {
        self.inner.shutdown.store(true, Ordering::Relaxed);
        self.inner
            .scheduler
            .shutdown_flag()
            .store(true, Ordering::Relaxed);
        // Nudge the blocking accept loop with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr).finish()
    }
}

fn handle_connection(inner: &Inner, stream: TcpStream) {
    let telemetry = &inner.telemetry;
    let req_id = telemetry.next_request_id();
    let start = telemetry.now_micros();
    telemetry.in_flight.add(1);
    let mut conn = Conn::new(stream, Arc::clone(&telemetry.conn_timeouts));
    serve_one(inner, &mut conn, req_id, start);
    telemetry.in_flight.add(-1);
}

/// What a route answers: a whole response, or an SSE feed streamed to
/// the peer until it closes.
enum Reply {
    Response(Response),
    Stream(Arc<Feed>),
}

/// Read, route and answer one request, then record it: the only place
/// a reply is written and a request is counted and logged.
fn serve_one(inner: &Inner, stream: &mut Conn, req_id: u64, start: u64) {
    let request = read_request(&mut *stream);
    let (method, path, (reply, template)) = match &request {
        Ok(request) => {
            // HEAD is GET with the body suppressed: route identically.
            let method = match request.method.as_str() {
                "HEAD" => "GET",
                method => method,
            };
            // A panicking handler answers 500 and keeps the worker; the
            // poisoned state a panic could leave behind is confined to
            // the survival cache mutex (whose lock already propagates
            // the poison explicitly).
            let routed = catch_unwind(AssertUnwindSafe(|| route(inner, method, request)))
                .unwrap_or_else(|_| {
                    inner.telemetry.panics.inc();
                    let response = Response::error(500, "handler panicked");
                    (Reply::Response(response), "(panic)")
                });
            (request.method.as_str(), request.path.as_str(), routed)
        }
        // Parse-level rejections and expired read deadlines still get a
        // proper HTTP answer; only a dead transport (which includes the
        // shutdown nudge connection) is silently dropped.
        Err(error) => {
            let (status, message, template) = match error {
                RequestError::Malformed(message) => (400, message.clone(), "(malformed)"),
                RequestError::TooLarge => (
                    413,
                    format!("request body exceeds {MAX_BODY} bytes"),
                    "(too-large)",
                ),
                RequestError::HeadTooLarge => (
                    431,
                    format!("request head exceeds {MAX_HEAD} bytes"),
                    "(head-too-large)",
                ),
                RequestError::TimedOut => (
                    408,
                    format!("request not complete within {} s", READ_DEADLINE.as_secs()),
                    "(timeout)",
                ),
                RequestError::Io(_) => return,
            };
            let reply = Reply::Response(Response::error(status, &message));
            ("-", "-", (reply, template))
        }
    };
    // A HEAD answer is the GET answer's status and headers (incl.
    // Content-Length) without the body.
    let head_only = method == "HEAD";
    let (status, bytes) = match reply {
        Reply::Response(response) => {
            let written = if head_only {
                response.write_head_to(stream).map(|_| 0)
            } else {
                response
                    .write_to(stream)
                    .map(|_| response.body_len() as u64)
            };
            (response.status(), written.unwrap_or(0))
        }
        Reply::Stream(feed) => {
            if head_only {
                let _ = write_sse_head(stream);
            } else {
                stream_feed(inner, &feed, stream);
            }
            (200, 0)
        }
    };
    let telemetry = &inner.telemetry;
    let micros = telemetry.now_micros().saturating_sub(start);
    telemetry.observe_request(method, template, status, micros);
    telemetry.log_access(req_id, method, template, path, status, bytes, micros);
}

/// Stream an SSE feed to a subscriber, counting a dropped peer (one
/// whose write deadline expired included).
fn stream_feed(inner: &Inner, feed: &Feed, stream: &mut Conn) {
    if write_sse_head(stream).is_err() {
        inner.telemetry.sse_dropped.inc();
        return;
    }
    if feed
        .stream_to(
            stream,
            inner.scheduler.shutdown_flag(),
            inner.config.sse_keepalive,
        )
        .is_err()
    {
        inner.telemetry.sse_dropped.inc();
    }
}

/// Dispatch one request. Returns the reply together with the route
/// *template* used as the bounded-cardinality telemetry label. `method`
/// is the effective method — `HEAD` arrives here as `GET`.
fn route(inner: &Inner, method: &str, request: &Request) -> (Reply, &'static str) {
    let segments = request.segments();
    let (response, template) = match (method, segments.as_slice()) {
        ("GET", ["jobs", id, "events"]) => {
            match id.parse().ok().and_then(|id| inner.scheduler.feed(id)) {
                Some(feed) => return (Reply::Stream(feed), "/jobs/{id}/events"),
                None => (Response::error(404, "no such job"), "/jobs/{id}/events"),
            }
        }
        ("GET", ["debug", "hold"]) if inner.config.debug_routes => {
            return (Reply::Stream(Arc::clone(&inner.hold)), "/debug/hold")
        }
        ("GET", []) => (index(), "/"),
        ("GET", ["healthz"]) => (healthz(inner), "/healthz"),
        ("GET", ["version"]) => (version(), "/version"),
        ("POST", ["jobs"]) => (submit_job(inner, request), "/jobs"),
        ("GET", ["jobs"]) => {
            let jobs: Vec<serde_json::Value> =
                inner.scheduler.jobs().iter().map(|j| j.to_json()).collect();
            (
                Response::json(serde_json::json!({ "jobs": jobs }).to_string()),
                "/jobs",
            )
        }
        ("GET", ["jobs", id]) => (
            match id
                .parse::<u64>()
                .ok()
                .and_then(|id| inner.scheduler.job(id))
            {
                Some(view) => Response::json(view.to_json().to_string()),
                None => Response::error(404, "no such job"),
            },
            "/jobs/{id}",
        ),
        ("GET", ["metrics"]) => (
            artifact(inner, request, "metrics.json", "application/json"),
            "/metrics",
        ),
        ("GET", ["metrics.prom"]) => (metrics_prom(inner), "/metrics.prom"),
        ("GET", ["debug", "telemetry"]) => (debug_telemetry(inner), "/debug/telemetry"),
        ("GET", ["debug", "panic"]) if inner.config.debug_routes => {
            panic!("deliberate panic from the /debug/panic test route")
        }
        ("GET", ["ledger"]) => (ledger(inner, request), "/ledger"),
        ("GET", ["exhibits"]) => (exhibit_list(inner, request), "/exhibits"),
        ("GET", ["exhibits", id]) => (exhibit(inner, request, id), "/exhibits/{id}"),
        ("GET", ["countries", cc]) => (country(inner, request, cc), "/countries/{cc}"),
        ("GET", ["survival"]) => (survival(inner, request), "/survival"),
        ("POST", _) | ("GET", _) => (Response::error(404, "no such route"), "(unmatched)"),
        _ => (Response::error(405, "method not allowed"), "(method)"),
    };
    (Reply::Response(response), template)
}

fn index() -> Response {
    Response::text(
        "bb-serve: POST /jobs; GET /jobs /jobs/{id} /jobs/{id}/events /metrics /metrics.prom \
         /debug/telemetry /ledger /exhibits /exhibits/{id} /countries/{cc} /survival /healthz \
         /version\n",
    )
}

fn healthz(inner: &Inner) -> Response {
    let telemetry = &inner.telemetry;
    Response::json(
        serde_json::json!({
            "status": "ok",
            "jobs": inner.scheduler.job_count(),
            "uptime_secs": telemetry.registry().uptime_secs(),
            "in_flight": telemetry.in_flight.get(),
            "queue_depth": telemetry.queue_depth.get(),
            "cache": serde_json::json!({
                "hits": inner.scheduler.cache_hits(),
                "misses": inner.scheduler.cache_misses(),
                "rejected": inner.scheduler.cache_rejected(),
            }),
        })
        .to_string(),
    )
}

/// `GET /metrics.prom`: the live registry in Prometheus text format.
/// Deliberately a different path from `/metrics`, which serves the
/// byte-identical batch artifact — the two must never mix.
fn metrics_prom(inner: &Inner) -> Response {
    Response::ok(
        "text/plain; version=0.0.4; charset=utf-8",
        inner.telemetry.registry().to_prometheus(),
    )
}

/// `GET /debug/telemetry`: everything, including ring-buffer windows.
fn debug_telemetry(inner: &Inner) -> Response {
    Response::json(inner.telemetry.registry().to_json())
}

fn version() -> Response {
    Response::json(
        serde_json::json!({
            "service": "bb-serve",
            "version": env!("CARGO_PKG_VERSION"),
            "checkpoint_format": bb_engine::FORMAT_VERSION,
        })
        .to_string(),
    )
}

fn submit_job(inner: &Inner, request: &Request) -> Response {
    let config = &inner.config;
    let defaults = RunSpec {
        users: Some(config.default_users),
        days: config.days,
        fcc_users: config.fcc_users,
        ..RunSpec::paper(config.default_seed)
    };
    let spec = match runner::parse_job(&request.body, defaults) {
        Ok(spec) => spec,
        Err(message) => return Response::error(400, &message),
    };
    let id = inner.scheduler.submit(spec);
    let view = inner.scheduler.job(id).expect("just submitted");
    Response::accepted(view.to_json().to_string())
}

/// The artifact set a read-only route should serve: `?job=N`, else the
/// most recently completed job.
fn job_files(inner: &Inner, request: &Request) -> Result<Arc<Vec<(String, String)>>, Response> {
    if let Some(raw) = request.query("job") {
        let id: u64 = raw
            .parse()
            .map_err(|_| Response::error(400, "job must be an integer"))?;
        return inner.scheduler.files(id).ok_or_else(|| {
            Response::error(404, "job has no artifacts (not done, or no such job)")
        });
    }
    inner
        .scheduler
        .latest_files()
        .ok_or_else(|| Response::error(404, "no completed job yet; POST /jobs first"))
}

fn artifact(inner: &Inner, request: &Request, name: &str, content_type: &'static str) -> Response {
    match job_files(inner, request) {
        Ok(files) => match files.iter().find(|(n, _)| n == name) {
            Some((_, content)) => Response::ok(content_type, content.as_bytes().to_vec()),
            None => Response::error(404, "artifact not found"),
        },
        Err(response) => response,
    }
}

/// `GET /ledger`: the provenance JSONL, optionally filtered to the
/// `exhibit` events of one exhibit id.
fn ledger(inner: &Inner, request: &Request) -> Response {
    let files = match job_files(inner, request) {
        Ok(files) => files,
        Err(response) => return response,
    };
    let Some((_, jsonl)) = files.iter().find(|(n, _)| n == "ledger.jsonl") else {
        return Response::error(404, "artifact not found");
    };
    match request.query("exhibit") {
        None => Response::ok("application/jsonl", jsonl.as_bytes().to_vec()),
        Some(id) => {
            let needle = format!("\"id\": \"{id}\"");
            let filtered: String = jsonl
                .lines()
                .filter(|line| line.contains("\"event\": \"exhibit\"") && line.contains(&needle))
                .flat_map(|line| [line, "\n"])
                .collect();
            Response::ok("application/jsonl", filtered.into_bytes())
        }
    }
}

fn exhibit_list(inner: &Inner, request: &Request) -> Response {
    let files = match job_files(inner, request) {
        Ok(files) => files,
        Err(response) => return response,
    };
    let ids: Vec<&str> = files
        .iter()
        .filter_map(|(n, _)| n.strip_suffix(".md"))
        .collect();
    Response::json(serde_json::json!({ "exhibits": ids }).to_string())
}

/// `GET /exhibits/{id}`: Markdown by default, or any stored render via
/// `?format=json|txt|csv|gp|md`.
fn exhibit(inner: &Inner, request: &Request, id: &str) -> Response {
    let format = request.query("format").unwrap_or("md");
    let content_type = match format {
        "md" => "text/markdown; charset=utf-8",
        "json" => "application/json",
        "txt" | "csv" | "gp" => "text/plain; charset=utf-8",
        other => return Response::error(400, &format!("unknown format {other:?}")),
    };
    if !id
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    {
        return Response::error(400, "invalid exhibit id");
    }
    artifact(inner, request, &format!("{id}.{format}"), content_type)
}

/// `GET /countries/{cc}`: one country's drill-down out of the
/// `countries.json` artifact.
fn country(inner: &Inner, request: &Request, cc: &str) -> Response {
    let files = match job_files(inner, request) {
        Ok(files) => files,
        Err(response) => return response,
    };
    let Some((_, doc)) = files.iter().find(|(n, _)| n == "countries.json") else {
        return Response::error(404, "artifact not found");
    };
    let parsed: serde_json::Value = match serde_json::from_str(doc) {
        Ok(parsed) => parsed,
        Err(_) => return Response::error(404, "artifact not found"),
    };
    let code = cc.to_ascii_uppercase();
    match parsed.get(&code) {
        Some(entry) => {
            Response::json(serde_json::json!({ "country": code, "sketches": entry }).to_string())
        }
        None => Response::error(404, "no observations for that country"),
    }
}

/// `GET /survival`: the chaos survival matrix of one scenario over a
/// reduced world, computed once per scenario and cached in memory.
fn survival(inner: &Inner, request: &Request) -> Response {
    let name = request.query("scenario").unwrap_or("omnibus");
    let scenario = match ChaosSpec::parse(Some(name), None) {
        Ok(spec) => spec.expect("a named scenario").scenario,
        Err(message) => return Response::error(400, &message),
    };
    let matrix = {
        let mut cache = inner.survival.lock().expect("survival cache");
        Arc::clone(cache.entry(scenario.name()).or_insert_with(|| {
            let mut base = WorldConfig::small(inner.config.default_seed);
            base.user_scale = 2.0;
            base.days = 2;
            base.fcc_users = 60;
            Arc::new(chaos_sweep(
                &base,
                scenario,
                SURVIVAL_GRID,
                inner.config.plan,
            ))
        }))
    };
    match request.query("format").unwrap_or("json") {
        "json" => Response::json(
            serde_json::to_string_pretty(&report_json::survival_to_json(&matrix))
                .expect("serialise"),
        ),
        "md" => Response::markdown(markdown::survival_matrix(&matrix)),
        other => Response::error(400, &format!("unknown format {other:?}")),
    }
}
