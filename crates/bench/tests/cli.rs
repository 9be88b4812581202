//! Integration tests of the `reproduce` binary's command line: the former
//! panic paths must now fail with a message and exit code 2, `--help` must
//! succeed, and `--metrics` output must be byte-identical across shard
//! plans (the registry records data events only).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn reproduce(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn reproduce")
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

#[test]
fn bad_arguments_exit_2_with_usage_not_a_panic() {
    let dir = tmpdir("cli-bad-args");
    let cases: &[&[&str]] = &[
        &["--frobnicate"],                                  // unknown flag
        &["--threads"],                                     // missing value
        &["--threads", "zero"],                             // unparseable value
        &["--threads", "0"],                                // zero workers
        &["--shards", "0"],                                 // zero shards
        &["--users", "0"],                                  // empty stream
        &["--days", "0"],                                   // empty window
        &["--scale", "nan"],                                // non-finite scale
        &["--scale", "inf"],                                // non-finite scale
        &["--scale", "-2"],                                 // negative scale
        &["--scale", "0"],                                  // zero scale
        &["--seed", "1.5"],                                 // non-integer seed
        &["--resume"],                                      // --resume without --checkpoint
        &["--fail-after-shard", "2"],                       // crash hook without --checkpoint
        &["--checkpoint", "ck", "--fail-after-shard", "0"], // zero commits
        &["--checkpoint"],                                  // missing value
        &["--chaos"],                                       // missing scenario
        &["--chaos", "bogus"],                              // unknown scenario
        &["--severity", "0.5"],                             // --severity without --chaos
        &["--chaos", "omnibus", "--severity", "1.5"],       // severity out of range
        &["--chaos", "omnibus", "--severity", "-0.5"],      // negative severity
        &["--chaos", "omnibus", "--severity", "nan"],       // non-finite severity
        &["--chaos", "omnibus", "--severity", "inf"],       // non-finite severity
        &["--chaos", "omnibus", "--severity", "-inf"],      // non-finite severity
        &["--chaos", "omnibus", "--severity", "1e999"],     // f64-overflowing severity
        &["--chaos-sweep", "--users", "100"],               // sweep needs full battery
        &["--users", "100", "--scale", "2"],                // streaming ignores the scale
        &["--scale", "2", "--users", "100"],                // ... in either order
        &["--users", "100", "--sweep", "2"],                // seed sweep needs full battery
        &["coordinator", "--scale", "2"],                   // the coordinator always streams
    ];
    for args in cases {
        let out = reproduce(args, &dir);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?}: expected exit 2, got {:?}\nstderr: {stderr}",
            out.status
        );
        assert!(
            stderr.starts_with("reproduce: "),
            "{args:?}: diagnostic missing, stderr: {stderr}"
        );
        assert!(
            stderr.contains("usage: reproduce"),
            "{args:?}: usage text missing, stderr: {stderr}"
        );
        // A panic would print a backtrace pointer; a clean error must not.
        assert!(
            !stderr.contains("panicked"),
            "{args:?}: still panicking, stderr: {stderr}"
        );
    }
}

#[test]
fn serve_bad_arguments_exit_2_with_usage_not_a_panic() {
    let dir = tmpdir("cli-serve-bad-args");
    let cases: &[&[&str]] = &[
        &["serve", "--port"],           // missing value
        &["serve", "--port", "abc"],    // unparseable port
        &["serve", "--port", "70000"],  // not a u16
        &["serve", "--cache-dir"],      // missing value
        &["serve", "--cache-dir", ""],  // empty cache root
        &["serve", "--threads", "0"],   // zero workers
        &["serve", "--shards", "0"],    // zero shards
        &["serve", "--days", "0"],      // empty window
        &["serve", "--users", "0"],     // empty default stream
        &["serve", "--seed", "1.5"],    // non-integer seed
        &["serve", "--access-log"],     // missing value
        &["serve", "--access-log", ""], // empty log path
        &["serve", "--frobnicate"],     // unknown serve flag
        &["serve", "--out", "x"],       // batch-only flag after serve
    ];
    for args in cases {
        let out = reproduce(args, &dir);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?}: expected exit 2, got {:?}\nstderr: {stderr}",
            out.status
        );
        assert!(
            stderr.starts_with("reproduce: "),
            "{args:?}: diagnostic missing, stderr: {stderr}"
        );
        assert!(
            stderr.contains("usage: reproduce"),
            "{args:?}: usage text missing, stderr: {stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "{args:?}: still panicking, stderr: {stderr}"
        );
    }
}

#[test]
fn serve_help_exits_0_and_documents_the_subcommand() {
    let dir = tmpdir("cli-serve-help");
    for args in [&["serve", "--help"][..], &["serve", "-h"][..]] {
        let out = reproduce(args, &dir);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {:?}", out.status);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("usage: reproduce"), "{args:?}: {stdout}");
        assert!(
            stdout.contains("reproduce serve"),
            "{args:?}: serve form documented"
        );
        assert!(
            stdout.contains("--access-log"),
            "{args:?}: access log flag documented"
        );
        assert!(
            stdout.contains("/metrics.prom"),
            "{args:?}: telemetry endpoint documented"
        );
    }
}

#[test]
fn help_prints_usage_on_stdout_and_exits_0() {
    let dir = tmpdir("cli-help");
    for flag in ["--help", "-h"] {
        let out = reproduce(&[flag], &dir);
        assert_eq!(out.status.code(), Some(0), "{flag}: {:?}", out.status);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("usage: reproduce"), "{flag}: {stdout}");
        assert!(stdout.contains("--metrics"), "{flag}: new flags documented");
        assert!(stdout.contains("--quiet"), "{flag}: new flags documented");
        assert!(stdout.contains("--ledger"), "{flag}: new flags documented");
        assert!(
            stdout.contains("--chrome-trace"),
            "{flag}: new flags documented"
        );
        assert!(
            stdout.contains("--checkpoint"),
            "{flag}: new flags documented"
        );
        assert!(stdout.contains("--resume"), "{flag}: new flags documented");
        assert!(
            stdout.contains("--fail-after-shard"),
            "{flag}: new flags documented"
        );
        assert!(stdout.contains("--chaos"), "{flag}: new flags documented");
        assert!(
            stdout.contains("--severity"),
            "{flag}: new flags documented"
        );
        assert!(
            stdout.contains("--chaos-sweep"),
            "{flag}: new flags documented"
        );
        assert!(
            stdout.contains("reproduce serve"),
            "{flag}: serve subcommand documented"
        );
        assert!(stdout.contains("--port"), "{flag}: serve flags documented");
        assert!(
            stdout.contains("--cache-dir"),
            "{flag}: serve flags documented"
        );
    }
}

#[test]
fn ledger_is_byte_identical_across_plans() {
    let dir = tmpdir("cli-ledger");
    let run = |label: &str, threads: &str, shards: &str| -> String {
        let ledger = format!("out-{label}/ledger.jsonl");
        let out = reproduce(
            &[
                "--users",
                "300",
                "--days",
                "1",
                "--fcc",
                "20",
                "--quiet",
                "--threads",
                threads,
                "--shards",
                shards,
                "--out",
                &format!("out-{label}"),
                "--ledger",
                &ledger,
            ],
            &dir,
        );
        assert_eq!(
            out.status.code(),
            Some(0),
            "{label}: {:?}\nstderr: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read_to_string(dir.join(&ledger)).expect("ledger file")
    };
    let serial = run("serial", "1", "1");
    let parallel = run("parallel", "2", "8");
    assert_eq!(
        serial, parallel,
        "provenance ledger must not depend on the shard plan"
    );
    // Shape: one JSON object per line, study header first, then exhibits.
    let first = serial.lines().next().expect("non-empty ledger");
    assert!(first.starts_with("{\"event\": \"stream_study\""), "{first}");
    assert!(serial.contains("\"event\": \"exhibit\""), "{serial}");
    for line in serial.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "not JSONL: {line}"
        );
    }
}

#[test]
fn chrome_trace_is_a_valid_trace_event_array() {
    let dir = tmpdir("cli-chrome-trace");
    let out = reproduce(
        &[
            "--users",
            "200",
            "--days",
            "1",
            "--fcc",
            "10",
            "--quiet",
            "--out",
            "out-trace",
            "--chrome-trace",
            "out-trace/trace.json",
        ],
        &dir,
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "{:?}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let raw = std::fs::read_to_string(dir.join("out-trace/trace.json")).expect("trace file");
    let parsed: serde_json::Value = serde_json::from_str(&raw).expect("trace must be valid JSON");
    let events = parsed.as_array().expect("trace must be a JSON array");
    assert!(!events.is_empty(), "trace must record at least one span");
    let names: Vec<&str> = events
        .iter()
        .map(|e| e["name"].as_str().expect("name"))
        .collect();
    assert!(names.contains(&"reproduce"), "{names:?}");
    assert!(names.contains(&"stream"), "{names:?}");
    for e in events {
        // Complete ("X") events with microsecond ts/dur, as Perfetto and
        // chrome://tracing expect.
        assert_eq!(e["ph"].as_str(), Some("X"), "{e:?}");
        assert!(e["ts"].as_f64().is_some(), "{e:?}");
        assert!(e["dur"].as_f64().is_some(), "{e:?}");
        assert!(e["pid"].as_f64().is_some(), "{e:?}");
        assert!(e["tid"].as_f64().is_some(), "{e:?}");
    }
}

#[test]
fn seed_sweep_report_is_byte_identical_across_plans() {
    // `--sweep N` spreads its seeds over the `--threads`/`--shards` plan;
    // the report must not depend on it.
    let dir = tmpdir("cli-seed-sweep");
    let run = |label: &str, threads: &str, shards: &str| -> String {
        let out_dir = format!("out-{label}");
        let out = reproduce(
            &[
                "--scale",
                "2",
                "--days",
                "1",
                "--fcc",
                "20",
                "--sweep",
                "2",
                "--quiet",
                "--threads",
                threads,
                "--shards",
                shards,
                "--out",
                &out_dir,
            ],
            &dir,
        );
        assert_eq!(
            out.status.code(),
            Some(0),
            "{label}: {:?}\nstderr: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read_to_string(dir.join(&out_dir).join("experiments.md")).expect("experiments.md")
    };
    let serial = run("serial", "1", "1");
    assert!(serial.contains("## Robustness across seeds"), "{serial}");
    assert_eq!(
        serial,
        run("parallel", "2", "4"),
        "the seed sweep must not depend on the plan"
    );
}

#[test]
fn materialised_path_writes_chrome_trace_metrics_and_quiet_is_quiet() {
    // The materialised (non `--users`) path shares the observability
    // flags with the streaming path; cover it explicitly.
    let dir = tmpdir("cli-materialised-trace");
    let out = reproduce(
        &[
            "--scale",
            "2",
            "--days",
            "1",
            "--fcc",
            "30",
            "--quiet",
            "--out",
            "out-mat",
            "--chrome-trace",
            "out-mat/trace.json",
            "--metrics",
            "out-mat/metrics.json",
        ],
        &dir,
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "{:?}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        out.stderr.is_empty(),
        "--quiet must silence progress, got: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let raw = std::fs::read_to_string(dir.join("out-mat/trace.json")).expect("trace file");
    let parsed: serde_json::Value = serde_json::from_str(&raw).expect("trace must be valid JSON");
    let events = parsed.as_array().expect("trace must be a JSON array");
    let names: Vec<&str> = events
        .iter()
        .map(|e| e["name"].as_str().expect("name"))
        .collect();
    // The materialised path's phases, not the streaming path's.
    assert!(names.contains(&"generate"), "{names:?}");
    assert!(names.contains(&"analysis"), "{names:?}");
    assert!(names.contains(&"render"), "{names:?}");
    assert!(
        dir.join("out-mat/metrics.json").exists() && dir.join("out-mat/experiments.md").exists(),
        "metrics and experiments.md must both be written"
    );
}

#[test]
fn streaming_metrics_are_byte_identical_across_plans_and_quiet_is_quiet() {
    let dir = tmpdir("cli-metrics");
    let run = |label: &str, threads: &str, shards: &str| -> Vec<u8> {
        let metrics = format!("out-{label}/metrics.json");
        let out = reproduce(
            &[
                "--users",
                "300",
                "--days",
                "1",
                "--fcc",
                "20",
                "--quiet",
                "--threads",
                threads,
                "--shards",
                shards,
                "--out",
                &format!("out-{label}"),
                "--metrics",
                &metrics,
            ],
            &dir,
        );
        assert_eq!(
            out.status.code(),
            Some(0),
            "{label}: {:?}\nstderr: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            out.stderr.is_empty(),
            "{label}: --quiet must silence progress, got: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        // The plan-dependent observables land in the sidecar, not the
        // plan-invariant metrics file.
        let sidecar = dir.join(format!("out-{label}/metrics.runtime.json"));
        let runtime = std::fs::read_to_string(&sidecar).expect("runtime sidecar");
        assert!(runtime.contains("\"steals\""), "{label}: {runtime}");
        std::fs::read(dir.join(&metrics)).expect("metrics file")
    };

    let serial = run("serial", "1", "1");
    let parallel = run("parallel", "2", "8");
    let text = String::from_utf8(serial.clone()).expect("metrics are UTF-8");
    assert_eq!(
        text,
        String::from_utf8(parallel).unwrap(),
        "metrics JSON must not depend on the shard plan"
    );
    // Streaming runs surface the study-level counters too.
    assert!(text.contains("\"study.users\""), "{text}");
    assert!(text.contains("\"study.sketch_negatives\""), "{text}");
    assert!(text.contains("\"netsim.collect.polls\""), "{text}");
}

/// Run `reproduce` with `args`, killing it if it has not exited after
/// `deadline`: `None` means it had to be killed.
fn reproduce_within(args: &[&str], dir: &Path, deadline: std::time::Duration) -> Option<Output> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .current_dir(dir)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn reproduce");
    let started = std::time::Instant::now();
    while child.try_wait().expect("poll reproduce").is_none() {
        if started.elapsed() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            return None;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    Some(child.wait_with_output().expect("collect reproduce output"))
}

#[test]
fn worlds_that_overflow_the_user_index_exit_2_not_a_wrapped_run() {
    // Each of these sums its cohort sizes past u64::MAX. Unchecked, a
    // release build wraps around and runs a small world whose manifest
    // pins the absurd size, and a debug build panics; `serve` would
    // start and accept jobs it can never lay out.
    let dir = tmpdir("cli-overflow");
    let max = "18446744073709551615";
    let cases: &[&[&str]] = &[
        &["--users", max, "--fcc", "0"],
        &["--fcc", max],
        &["--scale", "1e300"],
        &["--users", "100", "--fcc", max],
        &["coordinator", "--users", max, "--fcc", "0"],
        &["coordinator", "--fcc", max],
        &["serve", "--port", "0", "--fcc", max],
    ];
    for args in cases {
        let Some(out) = reproduce_within(args, &dir, std::time::Duration::from_secs(30)) else {
            panic!("{args:?}: still running after 30 s instead of exiting 2");
        };
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?}: expected exit 2, got {:?}\nstderr: {stderr}",
            out.status
        );
        assert!(
            stderr.starts_with("reproduce: ") && stderr.contains("usage: reproduce"),
            "{args:?}: diagnostic or usage missing, stderr: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
