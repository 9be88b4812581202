//! `serve`: the only request/response surface. An in-process gateway on
//! loopback with a warm job, then two client threads for the measured
//! window: an open loop of reads on a seeded Poisson schedule, and a
//! closed loop that submits a cold job, follows its progress stream,
//! resubmits it (a cache hit) and thinks. Reads compete with the cold
//! jobs' CPU and checkpoint fsyncs, so starving either side shows.

use crate::measure::{
    expect_eq, latency, median, millis, open_loop, percentile, poisson_schedule, secs, set_up_reps,
    Metric, Sent, SplitMix, Tally,
};
use crate::{RunConfig, Spans};
use bb_dataset::{World, WorldConfig};
use bb_engine::ShardPlan;
use bb_serve::{Server, ServerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const DAYS: u32 = 1;
const FCC_USERS: usize = 60;
/// One engine thread for jobs, leaving the other core to the clients
/// and the gateway's pool.
const JOB_PLAN: ShardPlan = ShardPlan {
    shards: 4,
    threads: 1,
};
/// Reads per second of the open loop.
const READ_RATE: f64 = 200.0;
/// The closed loop's pause between job cycles.
const THINK: Duration = Duration::from_millis(500);
/// The traffic window never drops below this, so even a test-sized run
/// sends reads.
const MIN_WINDOW: Duration = Duration::from_secs(1);
/// Server start-ups (each with its warm job) timed per run.
const SETUP_REPS: usize = 3;
/// No client socket waits longer than this; a stuck server fails the
/// request instead of hanging the run.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

fn users(cfg: &RunConfig) -> u64 {
    if cfg.tiny {
        300
    } else {
        2_000
    }
}

/// The workload's set-up: a gateway on a fresh cache that has completed
/// one warm job. Returns the server and the warm job's id.
fn start(
    cfg: &RunConfig,
    cache_dir: PathBuf,
    access_log: Option<PathBuf>,
) -> Result<(Server, u64), String> {
    let server = Server::start(ServerConfig {
        port: 0,
        cache_dir,
        days: DAYS,
        fcc_users: FCC_USERS,
        plan: JOB_PLAN,
        default_seed: cfg.seed,
        default_users: users(cfg),
        access_log,
        sse_keepalive: Duration::from_secs(10),
        debug_routes: false,
    })
    .map_err(|e| format!("start server: {e}"))?;
    let id = submit(server.addr(), cfg.seed, users(cfg))?;
    let warm = follow(server.addr(), id)?;
    if warm.from_cache {
        return Err("warm job on a fresh cache came from the cache".into());
    }
    Ok((server, id))
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream =
        TcpStream::connect_timeout(&addr, IO_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
        .and_then(|()| stream.set_nodelay(true))
        .map_err(|e| format!("socket options: {e}"))?;
    Ok(stream)
}

fn send(stream: &mut TcpStream, method: &str, path: &str, body: &str) -> Result<(), String> {
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("{method} {path}: send: {e}"))
}

/// One exchange on a fresh connection (the gateway closes after each):
/// the status and the body, whose length must match `Content-Length`.
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), String> {
    let mut stream = connect(addr)?;
    send(&mut stream, method, path, body)?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("{method} {path}: read: {e}"))?;
    let text =
        String::from_utf8(raw).map_err(|_| format!("{method} {path}: response not UTF-8"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: no header terminator"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: bad status line"))?;
    let length = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|n| n.trim().parse::<usize>().ok());
    if length != Some(body.len()) {
        return Err(format!(
            "{method} {path}: Content-Length {length:?}, body {}",
            body.len()
        ));
    }
    Ok((status, body.to_string()))
}

/// `POST /jobs`; returns the new job's id.
fn submit(addr: SocketAddr, seed: u64, users: u64) -> Result<u64, String> {
    let body = format!("{{\"seed\": {seed}, \"users\": {users}}}");
    let (status, reply) = request(addr, "POST", "/jobs", &body)?;
    if status != 202 {
        return Err(format!("POST /jobs: status {status}: {reply}"));
    }
    serde_json::from_str(&reply)
        .ok()
        .and_then(|v| v["job"].as_u64())
        .ok_or_else(|| format!("POST /jobs: no job id in {reply}"))
}

/// What following a job's progress stream to its terminal frame saw.
struct Followed {
    first_shard: Option<Instant>,
    last_shard: Option<Instant>,
    done: Instant,
    from_cache: bool,
    /// Users over all `shard` frames.
    items: u64,
}

/// `GET /jobs/{id}/events` until the `done` frame, timestamping frames
/// as they arrive.
fn follow(addr: SocketAddr, id: u64) -> Result<Followed, String> {
    let path = format!("/jobs/{id}/events");
    let mut stream = connect(addr)?;
    send(&mut stream, "GET", &path, "")?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut read_line = |line: &mut String| -> Result<usize, String> {
        line.clear();
        reader
            .read_line(line)
            .map_err(|e| format!("GET {path}: read: {e}"))
    };
    read_line(&mut line)?;
    if !line.starts_with("HTTP/1.1 200") {
        return Err(format!("GET {path}: {}", line.trim_end()));
    }
    while read_line(&mut line)? > 0 && line != "\r\n" {}
    let mut event = String::new();
    let (mut first_shard, mut last_shard, mut items) = (None, None, 0);
    loop {
        if read_line(&mut line)? == 0 {
            return Err(format!("job {id}: stream ended before done"));
        }
        let text = line.trim_end();
        if let Some(name) = text.strip_prefix("event: ") {
            event = name.to_string();
            continue;
        }
        let Some(data) = text.strip_prefix("data: ") else {
            continue;
        };
        let now = Instant::now();
        let value: serde_json::Value =
            serde_json::from_str(data).unwrap_or(serde_json::Value::Null);
        match event.as_str() {
            "shard" => {
                items += value["items"].as_u64().unwrap_or(0);
                first_shard.get_or_insert(now);
                last_shard = Some(now);
            }
            "done" => {
                return Ok(Followed {
                    first_shard,
                    last_shard,
                    done: now,
                    from_cache: value["from_cache"].as_bool().unwrap_or(false),
                    items,
                })
            }
            "error" => return Err(format!("job {id} failed: {data}")),
            _ => {}
        }
    }
}

/// What a read must return.
enum Expect {
    /// Exactly these bytes.
    Body(String),
    /// `{"country": cc, "sketches": <countries.json[cc]>}`.
    Country(String, serde_json::Value),
    /// A `/healthz` document with `"status": "ok"`.
    Healthy,
}

struct ReadReq {
    route: &'static str,
    path: String,
    expect: Expect,
}

/// The read mix, grouped by request kind, with each expected answer
/// taken from the warm job's artifacts as the scheduler holds them.
fn read_mix(files: &[(String, String)], warm: u64) -> Result<Vec<Vec<ReadReq>>, String> {
    let file = |name: &str| {
        files
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c.clone())
            .ok_or_else(|| format!("warm job has no {name}"))
    };
    let ids: Vec<&str> = files
        .iter()
        .filter_map(|(n, _)| n.strip_suffix(".md"))
        .collect();
    let mut json = Vec::new();
    let mut markdown = Vec::new();
    for id in &ids {
        json.push(ReadReq {
            route: "exhibits",
            path: format!("/exhibits/{id}?format=json&job={warm}"),
            expect: Expect::Body(file(&format!("{id}.json"))?),
        });
        markdown.push(ReadReq {
            route: "exhibits",
            path: format!("/exhibits/{id}?job={warm}"),
            expect: Expect::Body(file(&format!("{id}.md"))?),
        });
    }
    let countries: serde_json::Value = serde_json::from_str(&file("countries.json")?)
        .map_err(|e| format!("countries.json: {e}"))?;
    let countries = countries
        .as_object()
        .ok_or("countries.json is not an object")?
        .iter()
        .map(|(cc, entry)| ReadReq {
            route: "countries",
            path: format!("/countries/{cc}?job={warm}"),
            expect: Expect::Country(cc.clone(), entry.clone()),
        })
        .collect();
    // The gateway's exhibit filter over the ledger, restated as the oracle.
    let ledger: String = file("ledger.jsonl")?
        .lines()
        .filter(|l| l.contains("\"event\": \"exhibit\"") && l.contains("\"id\": \"fig1a\""))
        .flat_map(|l| [l, "\n"])
        .collect();
    if ledger.is_empty() {
        return Err("warm ledger has no fig1a exhibit event".into());
    }
    let mix = vec![
        json,
        markdown,
        countries,
        vec![ReadReq {
            route: "metrics",
            path: format!("/metrics?job={warm}"),
            expect: Expect::Body(file("metrics.json")?),
        }],
        vec![ReadReq {
            route: "ledger",
            path: format!("/ledger?exhibit=fig1a&job={warm}"),
            expect: Expect::Body(ledger),
        }],
        vec![ReadReq {
            route: "healthz",
            path: "/healthz".into(),
            expect: Expect::Healthy,
        }],
    ];
    if mix.iter().any(Vec::is_empty) {
        return Err("warm job has no exhibits or countries".into());
    }
    Ok(mix)
}

fn check_read(read: &ReadReq, status: u16, body: &str) -> Result<(), String> {
    if status != 200 {
        return Err(format!("GET {}: status {status}", read.path));
    }
    let parsed = || serde_json::from_str(body).unwrap_or(serde_json::Value::Null);
    let ok = match &read.expect {
        Expect::Body(expected) => body == expected,
        Expect::Country(cc, entry) => {
            let v = parsed();
            v["country"] == cc.as_str() && v["sketches"] == *entry
        }
        Expect::Healthy => parsed()["status"] == "ok",
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "GET {}: body differs from the warm job's artifacts",
            read.path
        ))
    }
}

/// The read thread's result: each request as sent, its kind, failures.
struct Reads {
    sent: Vec<(Sent, &'static str)>,
    tally: Tally,
}

fn read_loop(
    cfg: &RunConfig,
    addr: SocketAddr,
    mix: &[Vec<ReadReq>],
    start: Instant,
    until: Instant,
) -> Reads {
    let schedule = poisson_schedule(cfg.seed ^ 0x7265_6164, READ_RATE, until - start);
    let mut rng = SplitMix(cfg.seed ^ 0x6d69_7800);
    let picks: Vec<&ReadReq> = schedule
        .iter()
        .map(|_| {
            let group = &mix[rng.below(mix.len())];
            &group[rng.below(group.len())]
        })
        .collect();
    let mut tally = Tally::default();
    let sent = open_loop(start, &schedule, until, |i| {
        let read = picks[i];
        tally.op(request(addr, "GET", &read.path, "")
            .and_then(|(status, body)| check_read(read, status, &body)));
    });
    let sent = sent
        .into_iter()
        .map(|s| (s, picks[s.index].route))
        .collect();
    Reads { sent, tally }
}

/// The job thread's result.
#[derive(Default)]
struct Jobs {
    cold_s: Vec<f64>,
    cold_rate: Vec<f64>,
    queue_ms: Vec<f64>,
    tail_ms: Vec<f64>,
    cached_ms: Vec<f64>,
    post_ms: Vec<f64>,
    market_ms: Vec<f64>,
    cached: u64,
    cold: u64,
    tally: Tally,
}

/// One submission followed to `done`; `Err` if it failed or came from
/// the cache when it should not have (or the reverse).
fn job_cycle(
    addr: SocketAddr,
    seed: u64,
    users: u64,
    cached: bool,
    jobs: &mut Jobs,
) -> Result<(Instant, Followed), String> {
    let posted = Instant::now();
    let id = submit(addr, seed, users)?;
    jobs.post_ms.push(millis(posted.elapsed()));
    let followed = follow(addr, id)?;
    expect_eq("from_cache", followed.from_cache, cached)?;
    Ok((posted, followed))
}

fn job_loop(cfg: &RunConfig, addr: SocketAddr, until: Instant) -> Jobs {
    let users = users(cfg);
    let mut jobs = Jobs::default();
    let mut k = 0u64;
    loop {
        let seed = cfg.seed.wrapping_add(1 + k);
        k += 1;
        let cold = job_cycle(addr, seed, users, false, &mut jobs);
        let cached = job_cycle(addr, seed, users, true, &mut jobs);
        // Checked while the loop thinks: the cold job's progress frames
        // must account for every user of its world.
        let think_start = Instant::now();
        let world = World::new(WorldConfig::streaming(seed, users, DAYS, FCC_USERS));
        let market = Instant::now();
        let n_users = world.n_users();
        jobs.market_ms.push(millis(market.elapsed()));
        let cold = cold.and_then(|(posted, f)| {
            expect_eq("users in shard frames", f.items, n_users)?;
            let last = f.last_shard.ok_or("cold job sent no shard frames")?;
            let first = f.first_shard.unwrap_or(last);
            jobs.cold_s.push(secs(f.done - posted));
            jobs.cold_rate.push(n_users as f64 / secs(last - posted));
            jobs.queue_ms.push(millis(first - posted));
            jobs.tail_ms.push(millis(f.done - last));
            Ok(())
        });
        jobs.cold += 1;
        jobs.tally.op(cold);
        let cached = cached.map(|(posted, f)| jobs.cached_ms.push(millis(f.done - posted)));
        jobs.cached += 1;
        jobs.tally.op(cached);
        if Instant::now() >= until {
            return jobs;
        }
        std::thread::sleep(THINK.saturating_sub(think_start.elapsed()));
    }
}

/// Server-side microseconds of every read in the gateway's access log.
fn server_read_ms(log: &Path) -> Vec<f64> {
    const READ_ROUTES: [&str; 5] = [
        "/exhibits/{id}",
        "/countries/{cc}",
        "/metrics",
        "/ledger",
        "/healthz",
    ];
    std::fs::read_to_string(log)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| serde_json::from_str(l).ok())
        .filter(|v| v["method"] == "GET" && READ_ROUTES.iter().any(|r| v["route"] == *r))
        .filter_map(|v| v["us"].as_f64())
        .map(|us| us / 1e3)
        .collect()
}

pub fn run(cfg: &RunConfig, spans: &mut Spans) -> (Tally, Vec<Metric>) {
    let mut tally = Tally::default();
    let access_log = cfg.trace.then(|| cfg.scratch.join("access.jsonl"));
    let mut rep = 0;
    spans.begin("setup");
    let mut setup = Vec::new();
    let started = set_up_reps(SETUP_REPS, &mut setup, || {
        rep += 1;
        // Only the kept (last) server logs, so the log holds the run.
        let log = access_log.clone().filter(|_| rep == SETUP_REPS);
        start(cfg, cfg.scratch.join(format!("cache-{rep}")), log)
    });
    spans.end();
    let (mut server, warm) = match started {
        Ok(started) => started,
        Err(e) => {
            tally.op(Err(e));
            return (tally, Vec::new());
        }
    };
    let addr = server.addr();
    let mix = server
        .scheduler()
        .files(warm)
        .ok_or_else(|| "warm job has no artifacts".to_string())
        .and_then(|files| read_mix(&files, warm));
    let mix = match mix {
        Ok(mix) => mix,
        Err(e) => {
            tally.op(Err(e));
            return (tally, Vec::new());
        }
    };

    let window = cfg.seconds.max(MIN_WINDOW);
    let start = Instant::now();
    let until = start + window;
    spans.begin("serve.traffic");
    let (reads, jobs) = std::thread::scope(|s| {
        let reads = s.spawn(|| read_loop(cfg, addr, &mix, start, until));
        let jobs = s.spawn(|| job_loop(cfg, addr, until));
        (
            reads.join().expect("read thread"),
            jobs.join().expect("job thread"),
        )
    });
    spans.end();
    tally.merge(reads.tally);
    tally.merge(jobs.tally);

    let ((hits, misses), _) = spans.time("serve.healthz", || {
        let health = request(addr, "GET", "/healthz", "")
            .ok()
            .and_then(|(_, body)| serde_json::from_str(&body).ok())
            .unwrap_or(serde_json::Value::Null);
        let count = |key: &str| health["cache"][key].as_u64().unwrap_or(u64::MAX);
        (count("hits"), count("misses"))
    });
    tally.op(expect_eq("cache hits", hits, jobs.cached)
        .and_then(|()| expect_eq("cache misses", misses, jobs.cold + 1)));
    let ((), teardown) = spans.time("teardown", || {
        server.shutdown();
        drop(server);
    });

    let read_ms: Vec<f64> = reads.sent.iter().map(|(s, _)| millis(s.latency)).collect();
    let route_p50 = |route: &str| {
        let v: Vec<f64> = reads
            .sent
            .iter()
            .filter(|(_, r)| *r == route)
            .map(|(s, _)| millis(s.latency))
            .collect();
        (median(&v), v.len())
    };
    let lags: Vec<f64> = reads.sent.iter().map(|(s, _)| millis(s.lag)).collect();
    let server_ms = access_log
        .as_deref()
        .map(server_read_ms)
        .unwrap_or_default();
    let mut metrics = vec![
        Metric::new("setup_s", median(&setup), "s", setup.len()),
        Metric::new(
            "users_per_s",
            median(&jobs.cold_rate),
            "users/s",
            jobs.cold_rate.len(),
        ),
        Metric::new(
            "serve.job_cold_s",
            median(&jobs.cold_s),
            "s",
            jobs.cold_s.len(),
        ),
        Metric::new(
            "serve.job_cached_ms",
            median(&jobs.cached_ms),
            "ms",
            jobs.cached_ms.len(),
        ),
        Metric::new(
            "serve.post_jobs_p50_ms",
            median(&jobs.post_ms),
            "ms",
            jobs.post_ms.len(),
        ),
        Metric::new(
            "serve.server_p50_ms",
            median(&server_ms),
            "ms",
            server_ms.len(),
        ),
        Metric::new(
            "serve.server_p99_ms",
            percentile(&server_ms, 990),
            "ms",
            server_ms.len(),
        ),
        Metric::new(
            "serve.gen_lag_p99_ms",
            percentile(&lags, 990),
            "ms",
            lags.len(),
        ),
        Metric::new(
            "serve.job_queue_ms",
            median(&jobs.queue_ms),
            "ms",
            jobs.queue_ms.len(),
        ),
        Metric::new(
            "serve.job_tail_ms",
            median(&jobs.tail_ms),
            "ms",
            jobs.tail_ms.len(),
        ),
        Metric::new("serve.cache_hits", hits as f64, "count", 1),
        Metric::new("serve.cache_misses", misses as f64, "count", 1),
        Metric::new(
            "dataset.build_market_ms",
            median(&jobs.market_ms),
            "ms",
            jobs.market_ms.len(),
        ),
        Metric::new("teardown_s", secs(teardown), "s", 1),
    ];
    for (route, name) in [
        ("exhibits", "serve.exhibits_p50_ms"),
        ("countries", "serve.countries_p50_ms"),
        ("metrics", "serve.metrics_p50_ms"),
        ("ledger", "serve.ledger_p50_ms"),
        ("healthz", "serve.healthz_p50_ms"),
    ] {
        let (p50, n) = route_p50(route);
        metrics.push(Metric::new(name, p50, "ms", n));
    }
    metrics.extend(latency("serve", &read_ms));
    (tally, metrics)
}
