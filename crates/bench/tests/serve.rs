//! End-to-end test of `reproduce serve`: start the gateway as a child
//! process, run a job over HTTP, and verify the serving invariants the
//! design pins — every result-bearing response is byte-identical to the
//! batch CLI's artifacts for the same parameters (under a *different*
//! thread plan), and an identical re-submission is answered from the
//! result cache without recomputation.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn tmpdir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

/// Kills the server when the test ends, pass or fail.
struct ServerGuard(Child);

impl Drop for ServerGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Start `reproduce serve` on an ephemeral port and scrape the bound
/// address from its startup line.
fn start_server(dir: &Path, args: &[&str]) -> (ServerGuard, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .arg("serve")
        .args(args)
        .current_dir(dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn reproduce serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("startup line");
    let addr = line
        .trim()
        .strip_prefix("bb-serve listening on http://")
        .unwrap_or_else(|| panic!("unexpected startup line: {line:?}"))
        .to_string();
    (ServerGuard(child), addr)
}

/// Minimal HTTP/1.1 exchange; responses use `Connection: close`.
fn http(addr: &str, method: &str, path: &str, body: &[u8]) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .expect("write head");
    stream.write_all(body).expect("write body");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header terminator");
    let head = String::from_utf8_lossy(&raw[..head_end]).to_string();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed response head: {head:?}"));
    (status, raw[head_end + 4..].to_vec())
}

fn get(addr: &str, path: &str) -> (u16, Vec<u8>) {
    http(addr, "GET", path, b"")
}

/// Submit a job and block until it is done (via the SSE stream, which
/// only closes after the terminal event). Returns the SSE transcript.
fn run_job_to_done(addr: &str, body: &str) -> (u64, String) {
    let (status, response) = http(addr, "POST", "/jobs", body.as_bytes());
    assert_eq!(status, 202, "{}", String::from_utf8_lossy(&response));
    let response = String::from_utf8_lossy(&response).to_string();
    let id: u64 = response
        .split("\"job\":")
        .nth(1)
        .and_then(|s| s.trim_start().split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no job id in {response}"));
    let (status, sse) = get(addr, &format!("/jobs/{id}/events"));
    assert_eq!(status, 200);
    let sse = String::from_utf8_lossy(&sse).to_string();
    assert!(
        sse.contains("event: done"),
        "job {id} did not finish: {sse}"
    );
    (id, sse)
}

/// Shards the manifest in any per-job checkpoint dir says are committed
/// (0 when no job has checkpointed anything yet).
fn committed_shards(cache: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(cache.join("checkpoints")) else {
        return 0;
    };
    for entry in entries.flatten() {
        if let Ok(text) = std::fs::read_to_string(entry.path().join("manifest")) {
            let done = text
                .lines()
                .find_map(|line| line.strip_prefix("done "))
                .and_then(|n| n.trim().parse().ok())
                .unwrap_or(0);
            if done > 0 {
                return done;
            }
        }
    }
    0
}

/// SIGTERM mid-job is a *graceful* shutdown: the server exits 0 instead
/// of dying on the default signal disposition, the per-shard checkpoint
/// survives, and a restarted server resumes the interrupted job from
/// committed shards — finishing with artifacts byte-identical to the
/// batch CLI.
#[test]
fn sigterm_mid_job_shuts_down_gracefully_and_the_restart_resumes() {
    let dir = tmpdir("serve-sigterm");

    // A release build chews through 300 users before the signal can
    // land; debug is ~25x slower. Size the job per profile so at least
    // one shard commits while several still remain to be interrupted.
    let users = if cfg!(debug_assertions) {
        "300"
    } else {
        "12000"
    };

    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args([
            "--users",
            users,
            "--days",
            "1",
            "--fcc",
            "20",
            "--quiet",
            "--threads",
            "2",
            "--shards",
            "8",
            "--out",
            "batch",
            "--metrics",
            "batch/metrics.json",
        ])
        .current_dir(&dir)
        .output()
        .expect("batch run");
    assert_eq!(
        out.status.code(),
        Some(0),
        "batch: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let server_args = [
        "--port",
        "0",
        "--cache-dir",
        "cache",
        "--days",
        "1",
        "--fcc",
        "20",
        "--users",
        users,
        "--threads",
        "1",
        "--shards",
        "6",
        "--quiet",
    ];
    let (mut guard, addr) = start_server(&dir, &server_args);

    // Submit a job but do not wait for it; instead watch the per-job
    // checkpoint until at least one shard is durably committed.
    let (status, response) = http(&addr, "POST", "/jobs", b"{}");
    assert_eq!(status, 202, "{}", String::from_utf8_lossy(&response));
    let deadline = Instant::now() + Duration::from_secs(60);
    while committed_shards(&dir.join("cache")) == 0 {
        assert!(
            Instant::now() < deadline,
            "no shard committed before the signal"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    // SIGTERM, not SIGKILL: the shutdown path must run.
    let sigterm = Command::new("kill")
        .args(["-TERM", &guard.0.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(sigterm.success(), "kill -TERM failed");
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = guard.0.try_wait().expect("try_wait") {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "server did not exit after SIGTERM"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(
        status.code(),
        Some(0),
        "SIGTERM must be a graceful exit, not the default signal death"
    );

    // Same cache dir, fresh process: the interrupted job's checkpoint is
    // picked up, so the re-run restores at least one shard instead of
    // recomputing everything…
    let (_guard2, addr) = start_server(&dir, &server_args);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if get(&addr, "/healthz").0 == 200 {
            break;
        }
        assert!(Instant::now() < deadline, "restarted server never healthy");
        std::thread::sleep(Duration::from_millis(50));
    }
    let (_id, sse) = run_job_to_done(&addr, "{}");
    assert!(
        sse.contains("\"from_cache\": false"),
        "the killed job must not have produced a cache entry: {sse}"
    );
    assert!(
        sse.contains("\"restored\": true"),
        "the resumed job must restore committed shards: {sse}"
    );

    // …and the interruption is invisible in the result bytes.
    let (status, metrics) = get(&addr, "/metrics");
    assert_eq!(status, 200);
    let batch = std::fs::read(dir.join("batch").join("metrics.json")).expect("batch metrics");
    assert_eq!(metrics, batch, "resumed /metrics vs batch");
}

#[test]
fn served_job_is_byte_identical_to_batch_and_repeat_hits_the_cache() {
    let dir = tmpdir("serve-e2e");

    // Batch reference run: same world parameters the server will use,
    // but a *different* shard/thread plan — byte-identity must hold
    // across plans, not just across processes.
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args([
            "--users",
            "300",
            "--days",
            "1",
            "--fcc",
            "20",
            "--quiet",
            "--threads",
            "2",
            "--shards",
            "8",
            "--out",
            "batch",
            "--metrics",
            "batch/metrics.json",
            "--ledger",
            "batch/ledger.jsonl",
        ])
        .current_dir(&dir)
        .output()
        .expect("batch run");
    assert_eq!(
        out.status.code(),
        Some(0),
        "batch: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let (_guard, addr) = start_server(
        &dir,
        &[
            "--port",
            "0",
            "--cache-dir",
            "cache",
            "--days",
            "1",
            "--fcc",
            "20",
            "--users",
            "300",
            "--threads",
            "1",
            "--shards",
            "5",
            // With the access log on, every byte-identity assertion
            // below doubles as the pin that telemetry stays strictly
            // out of the artifacts.
            "--access-log",
            "access.jsonl",
            "--quiet",
        ],
    );
    // The listener is up once the startup line is printed, but give the
    // health endpoint a moment on slow machines.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if get(&addr, "/healthz").0 == 200 {
            break;
        }
        assert!(Instant::now() < deadline, "server never became healthy");
        std::thread::sleep(Duration::from_millis(50));
    }

    let (id, sse) = run_job_to_done(&addr, "{}");
    assert_eq!(id, 0);
    assert!(sse.contains("\"from_cache\": false"), "{sse}");
    assert!(sse.contains("event: shard"), "{sse}");
    assert!(sse.contains("event: ledger"), "{sse}");

    // Every result-bearing response matches the batch artifact bytes.
    let batch = |name: &str| std::fs::read(dir.join("batch").join(name)).expect(name);
    let (status, metrics) = get(&addr, "/metrics");
    assert_eq!(status, 200);
    assert_eq!(metrics, batch("metrics.json"), "/metrics vs batch");
    let (status, ledger) = get(&addr, "/ledger");
    assert_eq!(status, 200);
    assert_eq!(ledger, batch("ledger.jsonl"), "/ledger vs batch");
    for id in [
        "fig1a", "fig1b", "fig1c", "fig2a", "fig2b", "fig2c", "fig2d", "fig7a", "fig7b",
    ] {
        let (status, body) = get(&addr, &format!("/exhibits/{id}?format=json"));
        assert_eq!(status, 200, "{id}");
        assert_eq!(
            body,
            batch(&format!("{id}.json")),
            "/exhibits/{id} vs batch"
        );
    }

    // Identical re-submission: served from the cache, not recomputed.
    let (id, sse) = run_job_to_done(&addr, "{}");
    assert_eq!(id, 1);
    assert!(sse.contains("\"from_cache\": true"), "{sse}");
    assert!(
        !sse.contains("event: shard"),
        "a cache hit must not re-run shards: {sse}"
    );
    let (_, health) = get(&addr, "/healthz");
    let health = String::from_utf8_lossy(&health).to_string();
    assert!(health.contains("\"hits\":1"), "{health}");
    assert!(health.contains("\"uptime_secs\""), "{health}");
    let (status, cached) = get(&addr, "/metrics?job=1");
    assert_eq!(status, 200);
    assert_eq!(cached, batch("metrics.json"), "cached /metrics vs batch");

    // Live telemetry rides alongside without perturbing the artifacts:
    // the Prometheus exposition covers the traffic this test generated…
    let (status, prom) = get(&addr, "/metrics.prom");
    assert_eq!(status, 200);
    let prom = String::from_utf8_lossy(&prom).to_string();
    for needle in [
        "serve_requests{method=\"POST\",route=\"/jobs\"} 2",
        "serve_jobs_completed 2",
        "serve_cache_hits 1",
        "serve_cache_misses 1",
        "serve_request_us_bucket",
        "serve_queue_depth 0",
    ] {
        assert!(prom.contains(needle), "{needle} missing in {prom}");
    }
    // …and the access log is valid JSONL, one line per request so far,
    // with the expected fields.
    let log = std::fs::read_to_string(dir.join("access.jsonl")).expect("access log");
    assert!(log.lines().count() >= 10, "{log}");
    for line in log.lines() {
        let parsed: serde_json::Value =
            serde_json::from_str(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        for field in [
            "ts", "id", "method", "route", "path", "status", "bytes", "us",
        ] {
            assert!(parsed.get(field).is_some(), "missing {field} in {line}");
        }
    }
    assert!(log.contains("\"route\": \"/jobs/{id}/events\""), "{log}");

    // A re-read after the scrape still serves the identical bytes —
    // telemetry reads never mutate artifact state.
    let (_, again) = get(&addr, "/metrics?job=1");
    assert_eq!(again, batch("metrics.json"));
}
