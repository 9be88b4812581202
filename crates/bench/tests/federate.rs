//! Killed-worker crash battery for the federation path.
//!
//! The scenario under test is the production one: a coordinator farms a
//! streaming run out to three worker *processes*; one aborts the moment
//! it receives its second shard (a deterministic mid-run machine loss)
//! and another is SIGKILLed from outside while running. The survivors
//! absorb the reassignments, and every deterministic artifact —
//! `metrics.json`, the provenance ledger, the whole exhibit tree — must
//! be byte-for-byte identical to a single-process run under a different
//! thread plan. Only the `.runtime.json` sidecar may know the difference.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const USERS: &str = "400";
const SHARDS: &str = "6";

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

/// Compare two output trees byte-for-byte (same file set, same bytes).
fn assert_trees_identical(a: &Path, b: &Path) {
    let list = |root: &Path| -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(root)
            .expect("read output dir")
            .map(|e| e.expect("dir entry").file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    };
    let (fa, fb) = (list(a), list(b));
    assert_eq!(fa, fb, "different file sets in {a:?} vs {b:?}");
    for name in fa {
        let ba = std::fs::read(a.join(&name)).expect("read a");
        let bb = std::fs::read(b.join(&name)).expect("read b");
        assert_eq!(ba, bb, "{name} differs between {a:?} and {b:?}");
    }
}

/// `wait` with a deadline: a wedged federation must fail the test, not
/// hang the suite.
fn wait_with_deadline(
    child: &mut Child,
    what: &str,
    deadline: Duration,
) -> std::process::ExitStatus {
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        if start.elapsed() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{what} did not finish within {deadline:?}");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Spawn a coordinator on `listen` and scrape its advertised address
/// from the banner; a spawn that never produces the banner (e.g. the
/// port is still draining from a killed predecessor) is reaped and
/// reported as `Err` so callers can retry.
fn try_spawn_coordinator(
    dir: &Path,
    listen: &str,
    extra: &[&str],
) -> Result<(Child, String, std::thread::JoinHandle<String>), String> {
    let mut args = vec![
        "coordinator",
        "--listen",
        listen,
        "--users",
        USERS,
        "--days",
        "1",
        "--fcc",
        "20",
        "--shards",
        SHARDS,
        "--lease-timeout",
        "5",
        "--out",
        "fed",
        "--metrics",
        "fed-metrics.json",
        "--ledger",
        "fed-ledger.jsonl",
        "--quiet",
    ];
    args.extend_from_slice(extra);
    let mut child = bin()
        .args(&args)
        .current_dir(dir)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn coordinator: {e}"))?;
    let mut lines = BufReader::new(child.stdout.take().expect("coordinator stdout"));
    let mut banner = String::new();
    let _ = lines.read_line(&mut banner);
    let Some(addr) = banner
        .trim()
        .strip_prefix("bb-federate coordinator listening on ")
        .map(str::to_string)
    else {
        let _ = child.kill();
        let _ = child.wait();
        return Err(format!("unexpected banner: {banner:?}"));
    };
    let drain = std::thread::spawn(move || {
        let mut rest = String::new();
        let _ = lines.read_to_string(&mut rest);
        rest
    });
    Ok((child, addr, drain))
}

/// Spawn the coordinator on an ephemeral port; the rest of stdout keeps
/// draining on a side thread so the pipe can never fill up and stall
/// the run.
fn spawn_coordinator(
    dir: &Path,
    extra: &[&str],
) -> (Child, String, std::thread::JoinHandle<String>) {
    try_spawn_coordinator(dir, "127.0.0.1:0", extra).expect("spawn coordinator")
}

fn spawn_worker(dir: &Path, addr: &str, extra: &[&str]) -> Child {
    let mut args = vec!["worker", "--connect", addr, "--quiet"];
    args.extend_from_slice(extra);
    bin()
        .args(&args)
        .current_dir(dir)
        .spawn()
        .expect("spawn worker")
}

/// Pull an integer field out of the federation `.runtime.json` sidecar.
fn sidecar_field(sidecar: &str, name: &str) -> u64 {
    sidecar
        .split(&format!("\"{name}\":"))
        .nth(1)
        .and_then(|rest| {
            rest.trim_start()
                .split(|c: char| !c.is_ascii_digit())
                .next()?
                .parse()
                .ok()
        })
        .unwrap_or_else(|| panic!("{name} missing from sidecar: {sidecar}"))
}

#[test]
fn killed_workers_leave_byte_identical_artifacts() {
    let dir = tmpdir("federate-crash-battery");

    // Single-process reference, deliberately under a different plan
    // (2 in-process threads; the federation runs 3 worker processes).
    let out = bin()
        .args([
            "--users",
            USERS,
            "--days",
            "1",
            "--fcc",
            "20",
            "--threads",
            "2",
            "--shards",
            SHARDS,
            "--out",
            "ref",
            "--metrics",
            "ref-metrics.json",
            "--ledger",
            "ref-ledger.jsonl",
            "--quiet",
        ])
        .current_dir(&dir)
        .output()
        .expect("reference run");
    assert_eq!(
        out.status.code(),
        Some(0),
        "reference run: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let (mut coordinator, addr, drain) = spawn_coordinator(&dir, &[]);

    // Three workers: one healthy, one that aborts the moment it receives
    // its first assignment (a deterministic crash with the lease still
    // held), and one we SIGKILL from outside shortly after it starts.
    let mut survivor = spawn_worker(&dir, &addr, &[]);
    let mut aborter = spawn_worker(&dir, &addr, &["--die-on-assign", "1"]);
    let mut victim = spawn_worker(&dir, &addr, &[]);
    std::thread::sleep(Duration::from_millis(500));
    victim.kill().expect("kill worker");

    let status = wait_with_deadline(&mut coordinator, "coordinator", Duration::from_secs(180));
    assert_eq!(
        status.code(),
        Some(0),
        "coordinator must survive the losses"
    );
    let status = wait_with_deadline(&mut survivor, "surviving worker", Duration::from_secs(30));
    assert_eq!(status.code(), Some(0), "the surviving worker exits cleanly");
    let status = wait_with_deadline(&mut aborter, "aborting worker", Duration::from_secs(30));
    assert_ne!(
        status.code(),
        Some(0),
        "the crash-injected worker must actually die"
    );
    let _ = victim.wait();

    // Every deterministic artifact is byte-identical to the reference.
    let read = |rel: &str| std::fs::read(dir.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"));
    assert_eq!(
        read("ref-metrics.json"),
        read("fed-metrics.json"),
        "metrics.json must not betray the crashes"
    );
    assert_eq!(
        read("ref-ledger.jsonl"),
        read("fed-ledger.jsonl"),
        "provenance ledger must not betray the crashes"
    );
    assert_trees_identical(&dir.join("ref"), &dir.join("fed"));

    // The stdout table after the banner matches the single-process one.
    let fed_stdout = drain.join().expect("stdout drain");
    assert_eq!(
        fed_stdout.as_bytes(),
        out.stdout.as_slice(),
        "the federated run reports the same exhibit table"
    );

    // The process-dependent story lives only in the sidecar: at least
    // one shard was reassigned away from a dead worker.
    let sidecar = String::from_utf8(read("fed-metrics.runtime.json")).expect("sidecar is UTF-8");
    assert!(
        sidecar_field(&sidecar, "reassignments") >= 1,
        "the crash battery must force a reassignment: {sidecar}"
    );
    assert!(
        sidecar_field(&sidecar, "workers") >= 3,
        "all three workers handshook: {sidecar}"
    );
}

/// The coordinator itself is SIGKILLed mid-run and restarted with
/// `--resume` on the same address: committed shards are restored from
/// the checkpoint instead of recomputed, the workers reconnect through
/// their backoff loops (one of them across a chaosnet proxy injecting
/// connection cuts), and every deterministic artifact is byte-identical
/// to a single-process run. The sidecar must prove both halves of the
/// story: at least one resumed shard and at least one reconnect.
#[test]
fn killed_coordinator_resumes_byte_identical() {
    let dir = tmpdir("federate-coordinator-resume");

    let out = bin()
        .args([
            "--users",
            USERS,
            "--days",
            "1",
            "--fcc",
            "20",
            "--threads",
            "2",
            "--shards",
            SHARDS,
            "--out",
            "ref",
            "--metrics",
            "ref-metrics.json",
            "--ledger",
            "ref-ledger.jsonl",
            "--quiet",
        ])
        .current_dir(&dir)
        .output()
        .expect("reference run");
    assert_eq!(
        out.status.code(),
        Some(0),
        "reference run: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let (mut first, addr, first_drain) = spawn_coordinator(&dir, &["--checkpoint", "ckpt"]);

    // A deterministic flaky link in front of the coordinator: a quarter
    // of the proxied connections are severed after at most 4 KiB.
    let mut chaos = bin()
        .args([
            "chaosnet",
            "--upstream",
            &addr,
            "--seed",
            "11",
            "--cut",
            "250",
            "--cut-bytes",
            "4096",
            "--quiet",
        ])
        .current_dir(&dir)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn chaosnet");
    let mut chaos_lines = BufReader::new(chaos.stdout.take().expect("chaosnet stdout"));
    let mut chaos_banner = String::new();
    chaos_lines
        .read_line(&mut chaos_banner)
        .expect("chaosnet banner");
    let proxy_addr = chaos_banner
        .trim()
        .strip_prefix("bb-chaosnet listening on ")
        .and_then(|rest| rest.split(" -> ").next())
        .unwrap_or_else(|| panic!("unexpected chaosnet banner: {chaos_banner:?}"))
        .to_string();

    // Two workers with generous reconnect budgets: one direct, one
    // through the flaky link.
    let reconnect = ["--max-reconnects", "40", "--backoff-cap", "1"];
    let mut direct = spawn_worker(
        &dir,
        &addr,
        &[&reconnect[..], &["--backoff-seed", "3"]].concat(),
    );
    let mut flaky = spawn_worker(
        &dir,
        &proxy_addr,
        &[&reconnect[..], &["--backoff-seed", "5"]].concat(),
    );

    // Wait until the manifest has committed at least one shard — only
    // then is there provably something for `--resume` to restore.
    let manifest = dir.join("ckpt").join("manifest");
    let poll_start = Instant::now();
    loop {
        let committed = std::fs::read_to_string(&manifest)
            .ok()
            .and_then(|text| {
                text.lines()
                    .find_map(|line| line.strip_prefix("done "))
                    .and_then(|n| n.trim().parse::<u64>().ok())
            })
            .unwrap_or(0);
        if committed >= 1 {
            break;
        }
        assert!(
            poll_start.elapsed() < Duration::from_secs(120),
            "no shard committed to the checkpoint within 120s"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    // Machine loss: SIGKILL, no shutdown path runs.
    first.kill().expect("kill coordinator");
    let _ = first.wait();
    let _ = first_drain.join();

    // Restart on the *same* address with --resume; the port can take a
    // moment to come back after the kill, so retry the spawn.
    let mut restarted = None;
    for _ in 0..50 {
        match try_spawn_coordinator(&dir, &addr, &["--checkpoint", "ckpt", "--resume"]) {
            Ok(spawned) => {
                restarted = Some(spawned);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(100)),
        }
    }
    let (mut second, addr2, drain) = restarted.expect("coordinator restart on the same address");
    assert_eq!(addr2, addr, "the restart must advertise the same address");

    let status = wait_with_deadline(&mut second, "resumed coordinator", Duration::from_secs(180));
    assert_eq!(status.code(), Some(0), "the resumed coordinator finishes");
    let status = wait_with_deadline(&mut direct, "direct worker", Duration::from_secs(60));
    assert_eq!(status.code(), Some(0), "the direct worker exits cleanly");
    let status = wait_with_deadline(&mut flaky, "flaky-link worker", Duration::from_secs(60));
    assert_eq!(
        status.code(),
        Some(0),
        "the flaky-link worker exits cleanly"
    );
    let _ = chaos.kill();
    let _ = chaos.wait();

    // Crash, resume, reconnects, cut links — none of it may show in the
    // deterministic artifacts.
    let read = |rel: &str| std::fs::read(dir.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"));
    assert_eq!(
        read("ref-metrics.json"),
        read("fed-metrics.json"),
        "metrics.json must not betray the coordinator crash"
    );
    assert_eq!(
        read("ref-ledger.jsonl"),
        read("fed-ledger.jsonl"),
        "provenance ledger must not betray the coordinator crash"
    );
    assert_trees_identical(&dir.join("ref"), &dir.join("fed"));
    let fed_stdout = drain.join().expect("stdout drain");
    assert_eq!(
        fed_stdout.as_bytes(),
        out.stdout.as_slice(),
        "the resumed run reports the same exhibit table"
    );

    // The sidecar tells the survivability story.
    let sidecar = String::from_utf8(read("fed-metrics.runtime.json")).expect("sidecar is UTF-8");
    assert!(
        sidecar_field(&sidecar, "resumed_shards") >= 1,
        "at least one shard must be restored from the checkpoint: {sidecar}"
    );
    assert!(
        sidecar_field(&sidecar, "reconnects") >= 1,
        "at least one worker must have reconnected: {sidecar}"
    );
}

/// A checkpoint belongs to a run, not to a process layout: a batch
/// `reproduce --users --checkpoint` run killed after two durable shards
/// is finished by a coordinator resuming the same directory with two
/// workers. Both sides pin the same run identity in the manifest, so
/// the committed shards are restored rather than discarded, and every
/// artifact matches a cold batch run.
#[test]
fn coordinator_resumes_a_batch_checkpoint_byte_identical() {
    let dir = tmpdir("federate-resume-batch-checkpoint");
    let batch = |extra: &[&str]| {
        bin()
            .args([
                "--users", USERS, "--days", "1", "--fcc", "20", "--shards", SHARDS, "--quiet",
            ])
            .args(extra)
            .current_dir(&dir)
            .output()
            .expect("batch run")
    };
    let cold = batch(&[
        "--out",
        "ref",
        "--metrics",
        "ref-metrics.json",
        "--ledger",
        "ref-ledger.jsonl",
    ]);
    assert_eq!(
        cold.status.code(),
        Some(0),
        "cold run: {}",
        String::from_utf8_lossy(&cold.stderr)
    );
    let crashed = batch(&[
        "--out",
        "crashed",
        "--checkpoint",
        "ckpt",
        "--fail-after-shard",
        "2",
    ]);
    assert_eq!(
        crashed.status.code(),
        Some(83),
        "the injected crash must fire: {}",
        String::from_utf8_lossy(&crashed.stderr)
    );

    let (mut coordinator, addr, drain) =
        spawn_coordinator(&dir, &["--checkpoint", "ckpt", "--resume"]);
    let mut workers: Vec<Child> = (0..2).map(|_| spawn_worker(&dir, &addr, &[])).collect();
    let status = wait_with_deadline(
        &mut coordinator,
        "resuming coordinator",
        Duration::from_secs(180),
    );
    assert_eq!(status.code(), Some(0), "the resuming coordinator finishes");
    for (i, worker) in workers.iter_mut().enumerate() {
        let status = wait_with_deadline(worker, "worker", Duration::from_secs(60));
        assert_eq!(status.code(), Some(0), "worker {i} must exit cleanly");
    }

    let read = |rel: &str| std::fs::read(dir.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"));
    assert_eq!(read("ref-metrics.json"), read("fed-metrics.json"));
    assert_eq!(read("ref-ledger.jsonl"), read("fed-ledger.jsonl"));
    assert_trees_identical(&dir.join("ref"), &dir.join("fed"));
    let fed_stdout = drain.join().expect("stdout drain");
    assert_eq!(
        fed_stdout.as_bytes(),
        cold.stdout.as_slice(),
        "the resumed run reports the same exhibit table"
    );
    let sidecar = String::from_utf8(read("fed-metrics.runtime.json")).expect("sidecar is UTF-8");
    assert!(
        sidecar_field(&sidecar, "resumed_shards") >= 2,
        "both committed batch shards must be restored: {sidecar}"
    );
}

#[test]
fn workers_outnumbering_shards_stay_healthy() {
    // Empty claims are normal: 2 shards, 3 workers — whoever arrives
    // late just polls, gets `Finished`, and exits 0.
    let dir = tmpdir("federate-empty-claims");
    let out = bin()
        .args([
            "--users",
            "200",
            "--days",
            "1",
            "--fcc",
            "10",
            "--threads",
            "1",
            "--shards",
            "2",
            "--out",
            "ref",
            "--metrics",
            "ref-metrics.json",
            "--quiet",
        ])
        .current_dir(&dir)
        .output()
        .expect("reference run");
    assert_eq!(out.status.code(), Some(0));

    let mut child = bin()
        .args([
            "coordinator",
            "--listen",
            "127.0.0.1:0",
            "--users",
            "200",
            "--days",
            "1",
            "--fcc",
            "10",
            "--shards",
            "2",
            "--out",
            "fed",
            "--metrics",
            "fed-metrics.json",
            "--quiet",
        ])
        .current_dir(&dir)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn coordinator");
    let mut lines = BufReader::new(child.stdout.take().expect("stdout"));
    let mut banner = String::new();
    lines.read_line(&mut banner).expect("banner");
    let addr = banner
        .trim()
        .strip_prefix("bb-federate coordinator listening on ")
        .expect("banner prefix")
        .to_string();
    let drain = std::thread::spawn(move || {
        let mut rest = String::new();
        let _ = lines.read_to_string(&mut rest);
    });

    let mut workers: Vec<Child> = (0..3).map(|_| spawn_worker(&dir, &addr, &[])).collect();
    let status = wait_with_deadline(&mut child, "coordinator", Duration::from_secs(120));
    assert_eq!(status.code(), Some(0));
    for (i, worker) in workers.iter_mut().enumerate() {
        let status = wait_with_deadline(worker, "worker", Duration::from_secs(30));
        assert_eq!(status.code(), Some(0), "worker {i} must exit cleanly");
    }
    drain.join().expect("drain");

    let read = |rel: &str| std::fs::read(dir.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"));
    assert_eq!(read("ref-metrics.json"), read("fed-metrics.json"));
    assert_trees_identical(&dir.join("ref"), &dir.join("fed"));
}
