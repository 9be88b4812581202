//! The gateway's resource bounds, over real sockets: finished jobs'
//! artifacts live in one small hot set and are read back from the
//! result cache (same bytes, no counter moves, tampering rejected once);
//! the request head is capped and must be UTF-8; and idle or trickling
//! peers cannot hold the connection pool past the read deadline.

use bb_engine::ShardPlan;
use bb_serve::gateway::HTTP_THREADS;
use bb_serve::http::READ_DEADLINE;
use bb_serve::scheduler::HOT_ENTRIES;
use bb_serve::{JobState, JobView, Server, ServerConfig};
use std::fs;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn tmpdir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

fn small_server(cache_dir: &Path) -> Server {
    Server::start(ServerConfig {
        port: 0,
        cache_dir: cache_dir.to_path_buf(),
        days: 1,
        fcc_users: 20,
        plan: ShardPlan::new(3, 1),
        default_seed: 20141105,
        default_users: 60,
        access_log: None,
        sse_keepalive: Duration::from_secs(10),
        debug_routes: false,
    })
    .expect("bind an ephemeral port")
}

/// Send `request` and return everything the server answered. A server
/// that answers before reading the whole request may reset the
/// connection, so write and read errors end the exchange quietly.
fn exchange(addr: SocketAddr, request: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let _ = stream.write_all(request);
    read_answer(&mut stream)
}

fn read_answer(stream: &mut TcpStream) -> Vec<u8> {
    let mut answer = Vec::new();
    let mut buf = [0u8; 4096];
    while let Ok(n @ 1..) = stream.read(&mut buf) {
        answer.extend_from_slice(&buf[..n]);
    }
    answer
}

/// The status code of a raw answer; 0 when there was none.
fn status(answer: &[u8]) -> u16 {
    String::from_utf8_lossy(answer)
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let answer = exchange(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes(),
    );
    let text = String::from_utf8(answer).expect("UTF-8 answer");
    let body = text.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    (status(text.as_bytes()), body.to_string())
}

/// Submit `body`, wait for the job in-process, and return its view.
fn run_job(server: &Server, body: &str) -> JobView {
    let request = format!(
        "POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let answer = String::from_utf8(exchange(server.addr(), request.as_bytes())).expect("UTF-8");
    assert_eq!(status(answer.as_bytes()), 202, "{answer}");
    let accepted: serde_json::Value = answer
        .split_once("\r\n\r\n")
        .and_then(|(_, body)| serde_json::from_str(body).ok())
        .unwrap_or_else(|| panic!("no job view in {answer}"));
    let id = accepted["job"].as_u64().expect("job id");
    let view = server.scheduler().wait(id).expect("job exists");
    assert_eq!(view.state, JobState::Done, "{:?}", view.error);
    view
}

fn job(seed: usize) -> String {
    format!("{{\"seed\": {seed}, \"users\": 60}}")
}

/// What a reader of one job sees over HTTP.
fn reads(addr: SocketAddr, id: u64) -> Vec<(u16, String)> {
    [
        format!("/metrics?job={id}"),
        format!("/ledger?job={id}"),
        format!("/exhibits/fig1a?job={id}&format=json"),
        format!("/countries/US?job={id}"),
    ]
    .iter()
    .map(|path| get(addr, path))
    .collect()
}

#[test]
fn a_cold_job_and_its_cached_resubmission_share_one_copy() {
    let dir = tmpdir("hardening-shared-copy");
    let server = small_server(&dir);
    let cold = run_job(&server, &job(1));
    let cached = run_job(&server, &job(1));
    assert!(!cold.from_cache && cached.from_cache);
    let scheduler = server.scheduler();
    let (a, b) = (
        scheduler.files(cold.id).expect("cold artifacts"),
        scheduler.files(cached.id).expect("cached artifacts"),
    );
    assert!(Arc::ptr_eq(&a, &b), "one copy for one cache key");
}

#[test]
fn evicted_jobs_read_back_byte_identical_without_moving_the_counters() {
    let dir = tmpdir("hardening-read-back");
    let server = small_server(&dir);
    let addr = server.addr();
    let scheduler = server.scheduler();
    let mut seen = Vec::new();
    for seed in 0..=HOT_ENTRIES {
        let view = run_job(&server, &job(seed));
        let files = scheduler.files(view.id).expect("done job has artifacts");
        seen.push((view.id, files, reads(addr, view.id)));
    }
    let counters = (
        scheduler.cache_hits(),
        scheduler.cache_misses(),
        scheduler.cache_rejected(),
    );
    assert_eq!(counters, (0, HOT_ENTRIES as u64 + 1, 0));
    // The first job's set was evicted: it comes back as a fresh copy
    // of the same bytes.
    let first = scheduler.files(seen[0].0).expect("read back");
    assert!(!Arc::ptr_eq(&first, &seen[0].1), "job 0 was evicted");
    for _ in 0..2 {
        for (id, files, served) in &seen {
            assert_eq!(scheduler.files(*id).as_deref(), Some(&**files), "job {id}");
            assert_eq!(&reads(addr, *id), served, "job {id}");
            assert!(served.iter().all(|(status, _)| *status == 200), "job {id}");
        }
    }
    let after = (
        scheduler.cache_hits(),
        scheduler.cache_misses(),
        scheduler.cache_rejected(),
    );
    assert_eq!(after, counters, "reads are not lookups");
    let (_, health) = get(addr, "/healthz");
    assert!(health.contains("\"hits\":0"), "{health}");
    assert!(health.contains("\"misses\":5"), "{health}");
}

#[test]
fn a_tampered_evicted_entry_is_rejected_once_and_recomputed() {
    let dir = tmpdir("hardening-tamper");
    let server = small_server(&dir);
    let addr = server.addr();
    let first = run_job(&server, &job(0));
    let (_, original) = get(addr, "/metrics?job=0");
    for seed in 1..=HOT_ENTRIES {
        run_job(&server, &job(seed));
    }
    let entry = dir
        .join("results")
        .join(format!("{:016x}", first.cache_key))
        .join("metrics.json");
    fs::write(&entry, "{\"tampered\": true}").expect("tamper with the entry");

    // The read-back rejects the entry once; later reads find it gone.
    for _ in 0..3 {
        let (status, body) = get(addr, "/metrics?job=0");
        assert_eq!(status, 404, "{body}");
        assert!(!body.contains("tampered"), "{body}");
    }
    assert!(server.scheduler().files(first.id).is_none());
    assert_eq!(server.scheduler().cache_rejected(), 1);
    let (_, prom) = get(addr, "/metrics.prom");
    assert!(prom.contains("serve_cache_rejected 1"), "{prom}");

    // A resubmission recomputes the original bytes, which the first
    // job then serves again.
    let again = run_job(&server, &job(0));
    assert!(!again.from_cache, "the rejected entry must not be served");
    assert_eq!(get(addr, &format!("/metrics?job={}", again.id)).1, original);
    assert_eq!(get(addr, "/metrics?job=0"), (200, original));
    assert_eq!(server.scheduler().cache_rejected(), 1);
}

#[test]
fn a_megabyte_header_line_is_answered_431() {
    let dir = tmpdir("hardening-head-cap");
    let server = small_server(&dir);
    let addr = server.addr();
    let mut request = b"GET /healthz HTTP/1.1\r\nX-Big: ".to_vec();
    request.resize(request.len() + (1 << 20), b'a');
    request.extend_from_slice(b"\r\n\r\n");
    let answer = exchange(addr, &request);
    assert_eq!(status(&answer), 431, "{}", String::from_utf8_lossy(&answer));
    let (_, prom) = get(addr, "/metrics.prom");
    assert!(
        prom.contains("serve_errors{class=\"4xx\",route=\"(head-too-large)\"} 1"),
        "{prom}"
    );
}

#[test]
fn a_non_utf8_request_line_is_answered_400() {
    let dir = tmpdir("hardening-utf8");
    let server = small_server(&dir);
    let answer = exchange(server.addr(), b"GET /\xff\xfe HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status(&answer), 400, "{}", String::from_utf8_lossy(&answer));
}

#[test]
fn idle_and_trickling_peers_cannot_hold_the_pool() {
    let dir = tmpdir("hardening-deadlines");
    let server = small_server(&dir);
    let addr = server.addr();
    let started = Instant::now();
    // Every pool thread taken, in connection order: silent peers, and
    // one that sends its request a byte at a time, too slowly to finish
    // by the deadline.
    let mut silent: Vec<TcpStream> = (1..HTTP_THREADS)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    let mut stream = TcpStream::connect(addr).expect("connect");
    let trickler = thread::spawn(move || {
        for byte in b"GET /healthz HTTP/1.1\r\nHost: trickle\r\n\r\n" {
            if stream.write_all(&[*byte]).is_err() {
                break;
            }
            thread::sleep(Duration::from_millis(250));
        }
        read_answer(&mut stream)
    });

    let mut health = TcpStream::connect(addr).expect("connect");
    health
        .set_read_timeout(Some(READ_DEADLINE + Duration::from_secs(5)))
        .expect("read timeout");
    health
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("send");
    let answer = read_answer(&mut health);
    assert_eq!(status(&answer), 200, "{}", String::from_utf8_lossy(&answer));
    // It waited for the holders' deadlines, and no longer.
    let waited = started.elapsed();
    assert!(
        waited + Duration::from_millis(250) >= READ_DEADLINE
            && waited < READ_DEADLINE + Duration::from_secs(2),
        "/healthz waited {waited:?}"
    );

    // Each holder was answered 408 and counted once.
    for stream in &mut silent {
        assert_eq!(status(&read_answer(stream)), 408);
    }
    assert_eq!(status(&trickler.join().expect("trickler")), 408);
    assert_eq!(server.telemetry().conn_timeouts.get(), HTTP_THREADS as u64);
    let (_, prom) = get(addr, "/metrics.prom");
    assert!(
        prom.contains(&format!("serve_conn_timeouts {HTTP_THREADS}")),
        "{prom}"
    );
}

#[test]
fn request_methods_cannot_mint_series_or_break_the_telemetry_json() {
    let dir = tmpdir("hardening-methods");
    let server = small_server(&dir);
    let addr = server.addr();
    // Fifty distinct unknown methods share one `other` series.
    for n in 0..50 {
        let request = format!("VERB{n} / HTTP/1.1\r\nHost: t\r\n\r\n");
        let answer = exchange(addr, request.as_bytes());
        assert_eq!(status(&answer), 405, "{}", String::from_utf8_lossy(&answer));
    }
    let (_, prom) = get(addr, "/metrics.prom");
    let series: Vec<&str> = prom
        .lines()
        .filter(|line| line.starts_with("serve_requests{"))
        .collect();
    assert_eq!(
        series,
        ["serve_requests{method=\"other\",route=\"(method)\"} 50"],
        "{prom}"
    );

    // A control character in the method reaches no JSON document raw.
    let answer = exchange(addr, b"GE\x01T / HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status(&answer), 405, "{}", String::from_utf8_lossy(&answer));
    let (code, body) = get(addr, "/debug/telemetry");
    assert_eq!(code, 200);
    let parsed: Result<serde_json::Value, _> = serde_json::from_str(&body);
    assert!(parsed.is_ok(), "{parsed:?}: {body}");
}
