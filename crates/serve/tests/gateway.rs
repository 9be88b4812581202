//! In-process integration tests for the gateway: route behaviour, SSE
//! replay, and the cache-key semantics (hit ⇒ identical bytes without
//! recomputation; any parameter change ⇒ miss; corrupt entry ⇒ counted
//! rejection and recompute).

use bb_engine::ShardPlan;
use bb_serve::{Server, ServerConfig};
use std::fs;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};

fn tmpdir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

/// Start a server over a tiny world so jobs finish in well under a
/// second even in debug builds.
fn small_server(cache_dir: &Path) -> Server {
    small_server_with(cache_dir, |_| {})
}

/// Like [`small_server`], with a config tweak (debug routes, access
/// log, keepalive interval).
fn small_server_with(cache_dir: &Path, tweak: impl FnOnce(&mut ServerConfig)) -> Server {
    let mut config = ServerConfig {
        port: 0,
        cache_dir: cache_dir.to_path_buf(),
        days: 1,
        fcc_users: 20,
        plan: ShardPlan::new(3, 1),
        default_seed: 20141105,
        default_users: 250,
        access_log: None,
        sse_keepalive: std::time::Duration::from_secs(10),
        debug_routes: false,
    };
    tweak(&mut config);
    Server::start(config).expect("bind an ephemeral port")
}

/// Minimal HTTP/1.1 client. Responses use `Connection: close`, so the
/// whole exchange is write-request / read-to-EOF.
fn http(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .expect("write head");
    stream.write_all(body).expect("write body");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    http(addr, "GET", path, b"")
}

fn post_job(addr: SocketAddr, body: &str) -> (u16, String) {
    http(addr, "POST", "/jobs", body.as_bytes())
}

/// Submit a job, wait for it in-process, and return its terminal view.
fn run_job(server: &Server, body: &str) -> bb_serve::JobView {
    let (status, response) = post_job(server.addr(), body);
    assert_eq!(status, 202, "submit: {response}");
    let id: u64 = response
        .split("\"job\":")
        .nth(1)
        .and_then(|s| s.trim_start().split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no job id in {response}"));
    let view = server.scheduler().wait(id).expect("job exists");
    assert_eq!(view.state, bb_serve::JobState::Done, "{:?}", view.error);
    view
}

#[test]
fn routes_serve_artifacts_errors_and_sse_replay() {
    let dir = tmpdir("gateway-routes");
    let server = small_server(&dir);
    let addr = server.addr();

    // Liveness before any job.
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    let (status, body) = get(addr, "/version");
    assert_eq!(status, 200);
    assert!(body.contains("\"service\":\"bb-serve\""), "{body}");

    // Read-only routes 404 helpfully before the first job completes.
    let (status, body) = get(addr, "/metrics");
    assert_eq!((status, body.contains("POST /jobs")), (404, true), "{body}");

    run_job(&server, "{}");

    // Artifacts: metrics is JSON; the exhibit list holds all nine ids;
    // `?format=` selects among the stored renders.
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(metrics.contains("\"study.users\""), "{metrics}");
    let (status, exhibits) = get(addr, "/exhibits");
    assert_eq!(status, 200);
    for id in [
        "fig1a", "fig1b", "fig1c", "fig2a", "fig2b", "fig2c", "fig2d", "fig7a", "fig7b",
    ] {
        assert!(exhibits.contains(&format!("\"{id}\"")), "{exhibits}");
    }
    let (status, md) = get(addr, "/exhibits/fig1a");
    assert_eq!(status, 200);
    assert!(md.starts_with("**"), "markdown render: {md}");
    let (status, json) = get(addr, "/exhibits/fig1a?format=json");
    assert_eq!(status, 200);
    assert!(json.contains("\"kind\": \"cdf\""), "{json}");
    let (status, _) = get(addr, "/exhibits/fig2a?format=gp");
    assert_eq!(status, 404, "binned exhibits have no gnuplot render");

    // Ledger filter: only `exhibit` events for the requested id.
    let (status, filtered) = get(addr, "/ledger?exhibit=fig1a");
    assert_eq!(status, 200);
    assert_eq!(filtered.lines().count(), 1, "{filtered}");
    assert!(filtered.contains("\"event\": \"exhibit\""), "{filtered}");
    assert!(filtered.contains("\"id\": \"fig1a\""), "{filtered}");

    // Country drill-down is case-insensitive on the code.
    let (status, us) = get(addr, "/countries/us");
    assert_eq!(status, 200);
    assert!(us.contains("\"country\":\"US\""), "{us}");
    assert!(us.contains("\"capacity_mbps\""), "{us}");

    // Errors: unknown ids, bad formats, bad specs, bad routes.
    assert_eq!(get(addr, "/jobs/99").0, 404);
    assert_eq!(get(addr, "/countries/ZZ").0, 404);
    assert_eq!(get(addr, "/exhibits/fig1a?format=exe").0, 400);
    assert_eq!(get(addr, "/exhibits/..%2Fetc").0, 400);
    assert_eq!(get(addr, "/no/such/route").0, 404);
    assert_eq!(post_job(addr, r#"{"severity": 7}"#).0, 400);
    assert_eq!(post_job(addr, r#"{"typo": 1}"#).0, 400);
    assert_eq!(http(addr, "PUT", "/jobs", b"{}").0, 405);

    // SSE: a late subscriber still gets the full replay, ending in the
    // terminal `done` frame, and the connection closes after it.
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET /jobs/0/events HTTP/1.1\r\nHost: test\r\n\r\n").expect("write");
    let mut sse = String::new();
    stream
        .read_to_string(&mut sse)
        .expect("stream closes after the terminal event");
    assert!(sse.contains("Content-Type: text/event-stream"), "{sse}");
    assert!(sse.contains("event: status"), "{sse}");
    assert!(sse.contains("event: shard"), "{sse}");
    assert!(sse.contains("event: ledger"), "{sse}");
    assert!(
        sse.trim_end()
            .ends_with("data: {\"job\": 0, \"from_cache\": false}"),
        "{sse}"
    );
    let shard_frames = sse.matches("event: shard").count();
    assert_eq!(shard_frames, 3, "one frame per shard: {sse}");
}

#[test]
fn cache_hits_misses_and_corruption_are_counted_and_correct() {
    let dir = tmpdir("gateway-cache");
    let server = small_server(&dir);
    let addr = server.addr();

    // Cold run: a miss that computes.
    let first = run_job(&server, "{}");
    assert!(!first.from_cache);
    let (_, baseline) = get(addr, "/metrics?job=0");

    // Identical re-submission: answered from the cache, byte-identical.
    let second = run_job(&server, "{}");
    assert!(second.from_cache, "identical spec must hit the cache");
    assert_eq!(second.cache_key, first.cache_key);
    assert_eq!(server.scheduler().cache_hits(), 1);
    assert_eq!(get(addr, "/metrics?job=1").1, baseline);

    // Any parameter change is a different key and a miss.
    let reseeded = run_job(&server, r#"{"seed": 7}"#);
    assert!(!reseeded.from_cache);
    assert_ne!(reseeded.cache_key, first.cache_key);
    let chaotic = run_job(&server, r#"{"scenario": "omnibus", "severity": 0.5}"#);
    assert!(!chaotic.from_cache);
    assert_ne!(chaotic.cache_key, first.cache_key);
    assert_ne!(
        get(addr, "/metrics?job=3").1,
        baseline,
        "chaos changes the result"
    );

    // Corrupt the stored entry: the next identical submission rejects
    // it (counted), recomputes, and still serves the same bytes.
    let entry = dir
        .join("results")
        .join(format!("{:016x}", first.cache_key))
        .join("metrics.json");
    fs::write(&entry, "{\"tampered\": true}").expect("corrupt the cache entry");
    let recomputed = run_job(&server, "{}");
    assert!(!recomputed.from_cache, "corrupt entry must not be served");
    assert_eq!(server.scheduler().cache_rejected(), 1);
    assert_eq!(
        get(addr, "/metrics?job=4").1,
        baseline,
        "recompute restores the bytes"
    );

    // And the repaired entry serves hits again.
    let repaired = run_job(&server, "{}");
    assert!(repaired.from_cache);
    let (_, health) = get(addr, "/healthz");
    assert!(health.contains("\"hits\":2"), "{health}");
    assert!(health.contains("\"rejected\":1"), "{health}");
}

#[test]
fn a_stored_result_takes_the_place_of_its_checkpoint() {
    let dir = tmpdir("gateway-checkpoint-cleanup");
    let server = small_server(&dir);
    let addr = server.addr();
    let checkpoint = |key: u64| dir.join("checkpoints").join(format!("{key:016x}"));

    // A cold job checkpoints its shards while it runs and removes them
    // once its result is stored.
    let first = run_job(&server, "{}");
    assert!(!first.from_cache);
    assert!(
        !checkpoint(first.cache_key).exists(),
        "checkpoint left behind"
    );
    let (_, baseline) = get(addr, "/metrics?job=0");

    // With no checkpoint to resume, a tampered entry is recomputed from
    // the start, to the same bytes, and again leaves no checkpoint.
    let entry = dir
        .join("results")
        .join(format!("{:016x}", first.cache_key))
        .join("metrics.json");
    fs::write(&entry, "{\"tampered\": true}").expect("tamper with the entry");
    let recomputed = run_job(&server, "{}");
    assert!(
        !recomputed.from_cache,
        "a tampered entry must not be served"
    );
    assert_eq!(server.scheduler().cache_rejected(), 1);
    assert_eq!(get(addr, "/metrics?job=1").1, baseline);
    assert_eq!(
        fs::read_to_string(&entry).expect("repaired entry"),
        baseline
    );
    assert!(
        !checkpoint(first.cache_key).exists(),
        "checkpoint left behind"
    );
}

/// Send raw header bytes (no body) and return the status line's code.
/// Used for requests whose *headers* must be rejected — the server has
/// to answer over HTTP rather than silently dropping the socket.
fn raw_status(addr: SocketAddr, head: &str) -> u16 {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(head.as_bytes()).expect("write head");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    raw.split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no HTTP status in {raw:?}"))
}

#[test]
fn bad_content_length_is_rejected_before_allocation_with_400_or_413() {
    let dir = tmpdir("serve-content-length");
    let server = small_server(&dir);
    let addr = server.addr();

    // Oversized declarations — including ones that do not even fit in
    // u64 — must answer 413 from the header alone. Before the fix these
    // either allocated `vec![0; attacker_len]` or dropped the socket
    // without a response.
    for huge in ["1048577", "999999999999", "99999999999999999999999999"] {
        assert_eq!(
            raw_status(
                addr,
                &format!("POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: {huge}\r\n\r\n")
            ),
            413,
            "Content-Length: {huge}"
        );
    }

    // Garbage (and negative-looking) declarations are a 400, not a
    // silent zero-length body.
    for garbage in ["-1", "abc", "18xo", "1e6"] {
        assert_eq!(
            raw_status(
                addr,
                &format!("POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: {garbage}\r\n\r\n")
            ),
            400,
            "Content-Length: {garbage}"
        );
    }

    // A well-formed request on the same server still works.
    assert_eq!(get(addr, "/healthz").0, 200);
}

#[test]
fn query_params_are_percent_decoded_end_to_end() {
    let dir = tmpdir("serve-percent-decode");
    let server = small_server(&dir);
    let addr = server.addr();
    run_job(&server, "{}");

    let plain = get(addr, "/metrics?job=0");
    assert_eq!(plain.0, 200);
    // "%30" is "0" and "%6Aob" is "job": both the key and the value of
    // a query parameter arrive percent-decoded at the route.
    let encoded = get(addr, "/metrics?%6Aob=%30");
    assert_eq!(encoded.0, 200);
    assert_eq!(encoded.1, plain.1, "encoded query must hit the same job");

    let exhibit_plain = get(addr, "/exhibits/fig1a?format=md");
    assert_eq!(exhibit_plain.0, 200);
    let exhibit_encoded = get(addr, "/exhibits/fig1a?format=m%64");
    assert_eq!(exhibit_encoded.0, 200);
    assert_eq!(exhibit_encoded.1, exhibit_plain.1);
}

#[test]
fn non_finite_severity_is_a_400_at_submission() {
    let dir = tmpdir("serve-nonfinite-severity");
    let server = small_server(&dir);
    let addr = server.addr();

    // 1e999 overflows f64 parsing to +inf; the submit-time validator
    // must catch it (is_finite), not let it seed a chaos campaign.
    for body in [
        r#"{"scenario": "omnibus", "severity": 1e999}"#,
        r#"{"scenario": "omnibus", "severity": -1e999}"#,
        r#"{"scenario": "omnibus", "severity": 2.0}"#,
        r#"{"scenario": "omnibus", "severity": -0.25}"#,
    ] {
        let (status, response) = post_job(addr, body);
        assert_eq!(status, 400, "{body}: {response}");
        assert!(response.contains("severity"), "{body}: {response}");
    }
    // The boundary values are valid.
    for body in [
        r#"{"scenario": "omnibus", "severity": 0.0}"#,
        r#"{"scenario": "omnibus", "severity": 1.0}"#,
    ] {
        assert_eq!(post_job(addr, body).0, 202, "{body}");
    }
}

#[test]
fn severity_without_a_scenario_is_a_400_not_a_clean_run() {
    // `reproduce --severity` without `--chaos` exits 2; the job body
    // must refuse the same pair instead of running clean under the
    // cache key of `{}`.
    let dir = tmpdir("serve-severity-without-scenario");
    let server = small_server(&dir);
    let addr = server.addr();
    for body in [
        r#"{"severity": 0.5}"#,
        r#"{"scenario": null, "severity": 0.25}"#,
    ] {
        let (status, response) = post_job(addr, body);
        assert_eq!(status, 400, "{body}: {response}");
        assert!(response.contains("scenario"), "{body}: {response}");
    }
    let (_, jobs) = get(addr, "/jobs");
    assert!(!jobs.contains("\"job\""), "no job may be queued: {jobs}");
}

#[test]
fn survival_serves_the_chaos_sweep_of_the_base_world() {
    use bb_dataset::WorldConfig;
    use bb_netsim::chaos::ChaosScenario;
    use bb_report::{json, markdown};
    use bb_study::robustness::chaos_sweep;
    let dir = tmpdir("gateway-survival");
    let server = small_server(&dir);
    let addr = server.addr();

    // The gateway's reduced base world of its default seed, over the
    // grid 0 / 0.5 / 1, here under another plan than the server's.
    let mut base = WorldConfig::small(20141105);
    base.user_scale = 2.0;
    base.days = 2;
    base.fcc_users = 60;
    let matrix = chaos_sweep(
        &base,
        ChaosScenario::Omnibus,
        &[0.0, 0.5, 1.0],
        ShardPlan::serial(),
    );
    let want = serde_json::to_string_pretty(&json::survival_to_json(&matrix)).expect("serialise");

    let (status, body) = get(addr, "/survival?scenario=omnibus");
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, want);
    let (status, md) = get(addr, "/survival?scenario=omnibus&format=md");
    assert_eq!(status, 200, "{md}");
    assert_eq!(md, markdown::survival_matrix(&matrix));
    assert_eq!(get(addr, "/survival?scenario=omnibus"), (200, want));

    let (status, body) = get(addr, "/survival?scenario=bogus");
    assert_eq!(status, 400, "{body}");
    let (status, body) = get(addr, "/survival?scenario=omnibus&format=xml");
    assert_eq!(status, 400, "{body}");
}
