//! Live-telemetry integration tests over real sockets: RED metrics and
//! Prometheus exposition, the access log, HEAD semantics, panic
//! isolation, and SSE keepalive / dropped-subscriber accounting.

use bb_engine::ShardPlan;
use bb_serve::{Server, ServerConfig};
use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn tmpdir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

/// A tiny-world server with the test-only debug routes enabled, a fast
/// SSE keepalive, and an optional access log.
fn debug_server(cache_dir: &Path, access_log: Option<PathBuf>) -> Server {
    Server::start(ServerConfig {
        port: 0,
        cache_dir: cache_dir.to_path_buf(),
        days: 1,
        fcc_users: 20,
        plan: ShardPlan::new(3, 1),
        default_seed: 20141105,
        default_users: 250,
        access_log,
        sse_keepalive: Duration::from_millis(50),
        debug_routes: true,
    })
    .expect("bind an ephemeral port")
}

/// Raw HTTP exchange returning `(status, headers, body)`.
fn exchange(addr: SocketAddr, method: &str, path: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "{method} {path} HTTP/1.1\r\nHost: test\r\n\r\n").expect("write");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {raw:?}"));
    let (headers, body) = raw
        .split_once("\r\n\r\n")
        .map(|(h, b)| (h.to_string(), b.to_string()))
        .unwrap_or((raw.clone(), String::new()));
    (status, headers, body)
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let (status, _, body) = exchange(addr, "GET", path);
    (status, body)
}

#[test]
fn panicking_handler_answers_500_and_never_kills_a_worker() {
    let dir = tmpdir("telemetry-panic");
    let server = debug_server(&dir, None);
    let addr = server.addr();

    // More panics than the pool has workers: before the catch-unwind
    // fix each panic killed one worker permanently, so the 9th request
    // (and every later one) would hang forever with no worker left.
    for i in 0..12 {
        let (status, body) = get(addr, "/debug/panic");
        assert_eq!(status, 500, "request {i}: {body}");
        assert!(body.contains("panicked"), "{body}");
    }
    assert_eq!(server.telemetry().panics.get(), 12, "every panic counted");

    // The pool is still fully alive and serving.
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200, "{body}");

    // The panics surface in the exposition and in the error counters.
    let (_, prom) = get(addr, "/metrics.prom");
    assert!(prom.contains("serve_panics 12"), "{prom}");
    assert!(
        prom.contains("serve_errors{class=\"5xx\",route=\"(panic)\"} 12"),
        "{prom}"
    );
}

#[test]
fn head_answers_every_get_route_with_headers_and_no_body() {
    let dir = tmpdir("telemetry-head");
    let server = debug_server(&dir, None);
    let addr = server.addr();

    for path in ["/", "/healthz", "/version", "/jobs", "/metrics.prom"] {
        let (get_status, _, get_body) = exchange(addr, "GET", path);
        let (head_status, head_headers, head_body) = exchange(addr, "HEAD", path);
        assert_eq!(head_status, get_status, "{path}");
        assert_eq!(head_body, "", "{path}: HEAD must not carry a body");
        // The declared length is the GET body's length, not zero. (The
        // two GET bodies can differ between calls — /metrics.prom grows
        // with every request — so compare against a fresh GET loosely.)
        let declared: usize = head_headers
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{path}: no Content-Length in {head_headers}"));
        if path != "/metrics.prom" {
            assert_eq!(declared, get_body.len(), "{path}");
        } else {
            assert!(declared > 0, "{path}");
        }
    }

    // Error routes answer HEAD with the error status, still no body.
    let (status, _, body) = exchange(addr, "HEAD", "/no/such/route");
    assert_eq!((status, body.as_str()), (404, ""));

    // The SSE routes too: the event-stream head alone, or the 404.
    let (status, headers, body) = exchange(addr, "HEAD", "/debug/hold");
    assert_eq!((status, body.as_str()), (200, ""));
    assert!(headers.contains("text/event-stream"), "{headers}");
    let (status, _, body) = exchange(addr, "HEAD", "/jobs/99/events");
    assert_eq!((status, body.as_str()), (404, ""));

    // Non-GET routes keep rejecting other methods.
    let (status, _, _) = exchange(addr, "PUT", "/jobs");
    assert_eq!(status, 405);
}

#[test]
fn prometheus_exposition_covers_red_metrics_queue_and_cache() {
    let dir = tmpdir("telemetry-prom");
    let server = debug_server(&dir, None);
    let addr = server.addr();

    // Generate traffic: a computed job, a cached re-submission, reads.
    for body in ["{}", "{}"] {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(
            stream,
            "POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .expect("write");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read");
        assert!(raw.starts_with("HTTP/1.1 202"), "{raw}");
    }
    let last = server.scheduler().wait(1).expect("job 1");
    assert_eq!(last.state, bb_serve::JobState::Done, "{:?}", last.error);
    get(addr, "/metrics");
    get(addr, "/jobs/0");
    get(addr, "/jobs/99"); // 404 → a 4xx error sample

    let (status, prom) = get(addr, "/metrics.prom");
    assert_eq!(status, 200);
    // RED: per-route counts with method labels, 4xx split, histograms.
    assert!(
        prom.contains("serve_requests{method=\"POST\",route=\"/jobs\"} 2"),
        "{prom}"
    );
    assert!(
        prom.contains("serve_requests{method=\"GET\",route=\"/jobs/{id}\"} 2"),
        "{prom}"
    );
    assert!(
        prom.contains("serve_errors{class=\"4xx\",route=\"/jobs/{id}\"} 1"),
        "{prom}"
    );
    assert!(
        prom.contains("serve_request_us_bucket{route=\"/metrics\",le=\"+Inf\"} 1"),
        "{prom}"
    );
    assert!(
        prom.contains("serve_request_us_sum{route=\"/metrics\"}"),
        "{prom}"
    );
    // Scheduler + cache wiring: one computed job, one cache hit, the
    // job wall-time histogram saw both, the queue drained back to 0.
    assert!(
        prom.contains("# TYPE serve_jobs_completed counter"),
        "{prom}"
    );
    assert!(prom.contains("serve_jobs_completed 2"), "{prom}");
    assert!(prom.contains("serve_cache_hits 1"), "{prom}");
    assert!(prom.contains("serve_cache_misses 1"), "{prom}");
    assert!(prom.contains("serve_job_wall_us_count 2"), "{prom}");
    assert!(prom.contains("serve_queue_depth 0"), "{prom}");
    assert!(
        prom.contains("serve_in_flight 1"),
        "this very scrape: {prom}"
    );
    // Sliding-window series render as window-labelled `_window` gauges,
    // a family distinct from the monotone counters of the same name.
    assert!(
        prom.contains("serve_cache_hits_window{window=\"60s\"} 1"),
        "{prom}"
    );
    assert!(
        prom.contains("serve_request_rate_window{window=\"60s\"}"),
        "{prom}"
    );

    // The JSON snapshot exposes the same state plus ring windows.
    let (status, snapshot) = get(addr, "/debug/telemetry");
    assert_eq!(status, 200);
    assert!(
        snapshot.contains("\"serve.jobs.completed\": 2"),
        "{snapshot}"
    );
    assert!(snapshot.contains("\"per_sec\""), "{snapshot}");
    assert!(snapshot.contains("\"uptime_secs\""), "{snapshot}");

    // The enriched health check.
    let (_, health) = get(addr, "/healthz");
    for key in [
        "\"uptime_secs\"",
        "\"in_flight\"",
        "\"queue_depth\"",
        "\"hits\":1",
    ] {
        assert!(health.contains(key), "{key} missing in {health}");
    }
}

#[test]
fn access_log_is_parseable_jsonl_with_monotonic_request_ids() {
    let dir = tmpdir("telemetry-access-log");
    let log_path = dir.join("access.jsonl");
    let server = debug_server(&dir, Some(log_path.clone()));
    let addr = server.addr();

    get(addr, "/healthz");
    get(addr, "/version");
    get(addr, "/no/such/route");
    exchange(addr, "HEAD", "/healthz");
    get(addr, "/jobs/99/events");

    let text = fs::read_to_string(&log_path).expect("access log exists");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 5, "{text}");
    let mut ids = Vec::new();
    for line in &lines {
        let parsed: serde_json::Value = serde_json::from_str(line).expect(line);
        for field in [
            "ts", "id", "method", "route", "path", "status", "bytes", "us",
        ] {
            assert!(parsed.get(field).is_some(), "missing {field} in {line}");
        }
        ids.push(parsed["id"].as_u64().expect("numeric id"));
    }
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), 5, "request ids are unique: {ids:?}");
    assert!(
        lines[2].contains("\"route\": \"(unmatched)\""),
        "{}",
        lines[2]
    );
    assert!(
        lines[2].contains("\"path\": \"/no/such/route\""),
        "{}",
        lines[2]
    );
    assert!(lines[3].contains("\"method\": \"HEAD\""), "{}", lines[3]);
    assert!(
        lines[3].contains("\"bytes\": 0"),
        "HEAD writes no body: {}",
        lines[3]
    );
    // The SSE route's 404 logs the body it wrote, `no such job\n`.
    for field in [
        "\"route\": \"/jobs/{id}/events\"",
        "\"status\": 404",
        "\"bytes\": 12",
    ] {
        assert!(lines[4].contains(field), "{field} missing in {}", lines[4]);
    }
}

#[test]
fn sse_keepalives_flow_and_dropped_subscribers_are_counted() {
    let dir = tmpdir("telemetry-sse-drop");
    let server = debug_server(&dir, None);
    let addr = server.addr();

    // /debug/hold streams a feed that never closes, so the only frames
    // are keepalives — read two to prove the interval fires repeatedly.
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET /debug/hold HTTP/1.1\r\nHost: t\r\n\r\n").expect("write");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut reader = BufReader::new(&stream);
    let mut head = String::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read head");
        head.push_str(&line);
        if line == "\r\n" {
            break;
        }
    }
    assert!(head.contains("text/event-stream"), "{head}");
    let mut keepalives = 0;
    while keepalives < 2 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read frame");
        if line.starts_with(": keepalive") {
            keepalives += 1;
        }
    }
    // Drop the subscriber mid-stream; the server notices within a few
    // keepalive intervals (the write to the dead socket fails) and
    // counts it.
    drop(reader);
    drop(stream);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.telemetry().sse_dropped.get() == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "dropped subscriber was never detected"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let (_, prom) = get(addr, "/metrics.prom");
    assert!(prom.contains("serve_sse_dropped 1"), "{prom}");
}

#[test]
fn debug_routes_are_absent_by_default() {
    let dir = tmpdir("telemetry-no-debug");
    let server = Server::start(ServerConfig {
        port: 0,
        cache_dir: dir.clone(),
        days: 1,
        fcc_users: 20,
        plan: ShardPlan::new(3, 1),
        default_seed: 20141105,
        default_users: 250,
        access_log: None,
        sse_keepalive: Duration::from_secs(10),
        debug_routes: false,
    })
    .expect("bind");
    let addr = server.addr();
    assert_eq!(get(addr, "/debug/panic").0, 404);
    assert_eq!(get(addr, "/debug/hold").0, 404);
    // The telemetry snapshot stays available — it is observability, not
    // a test hook.
    assert_eq!(get(addr, "/debug/telemetry").0, 200);
    assert_eq!(get(addr, "/metrics.prom").0, 200);
}
