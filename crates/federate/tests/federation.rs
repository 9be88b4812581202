//! Federation determinism properties.
//!
//! The pinned contract: however shard ranges are partitioned across
//! 1–4 workers — empty claims included, completion order scrambled —
//! the coordinator's shard-ordered merge is byte-identical to a serial
//! single-process fold of the same `ShardPlan`. A second set of cases
//! pins the lease machinery: an expired claim is reassigned and a
//! heartbeating slow worker is not. A third pins the coordinator's start
//! and end: a fully preloaded job needs no worker, and a finished run
//! leaves no listener behind.

use bb_engine::{ExactMoments, Mergeable, ShardPlan, Snapshot};
use bb_federate::{
    read_frame, run_worker, write_frame, Coordinator, CoordinatorConfig, FederationReport, JobSpec,
    Message, WorkerOptions, PROTOCOL_VERSION,
};
use bb_trace::Telemetry;
use proptest::{run_property, TestRng};
use std::io::BufReader;
use std::net::TcpStream;
use std::ops::Range;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

fn toy_value(i: u64) -> f64 {
    (i as f64).cos() * 3.0 + (i % 17) as f64
}

fn shard_payload(range: Range<u64>) -> String {
    let mut moments = ExactMoments::new();
    for i in range {
        moments.push(toy_value(i));
    }
    moments.to_snapshot_string()
}

/// Serial single-process reference: per-shard partials merged in shard
/// order, exactly as `run_sharded` folds them.
fn serial_reference(n_items: u64, shards: u64) -> String {
    merge_payloads(
        &ShardPlan::new(shards as usize, 1)
            .ranges(n_items)
            .into_iter()
            .map(shard_payload)
            .collect::<Vec<_>>(),
    )
}

fn merge_payloads(payloads: &[String]) -> String {
    payloads
        .iter()
        .map(|p| ExactMoments::from_snapshot_str(p).expect("decode payload"))
        .reduce(|mut acc, next| {
            acc.merge(next);
            acc
        })
        .expect("at least one payload")
        .to_snapshot_string()
}

fn toy_job(n_items: u64, shards: u64) -> JobSpec {
    JobSpec {
        seed: 11,
        users: n_items,
        days: 1,
        fcc_users: 0,
        chaos_scenario: "-".to_string(),
        chaos_severity: 0.0,
        n_items,
        shards,
    }
}

fn spawn_coordinator(
    cfg: CoordinatorConfig,
) -> (String, JoinHandle<(Vec<String>, FederationReport)>) {
    let coordinator =
        Coordinator::bind("127.0.0.1:0", cfg, Arc::new(Telemetry::system())).expect("bind");
    let addr = coordinator.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || {
        coordinator.run(|_, payload| {
            ExactMoments::from_snapshot_str(payload)
                .map(|_| ())
                .map_err(|e| e.to_string())
        })
    });
    (addr, handle)
}

/// Any partition of the shard table across any worker fleet merges to
/// the same bytes as the serial fold: worker count, claim interleaving,
/// and completion order are all invisible in the result.
#[test]
fn any_partition_merges_to_serial_bytes() {
    run_property(
        "any_partition_merges_to_serial_bytes",
        |rng: &mut TestRng, case| {
            // Small worlds keep 128 cases fast; workers regularly outnumber
            // shards so empty claims are exercised, and a per-shard jitter
            // scrambles completion order.
            let n_items = 1 + rng.next_u64() % 200;
            let shards = 1 + rng.next_u64() % 8;
            let workers = 1 + rng.next_u64() % 4;
            let mut cfg = CoordinatorConfig::new(toy_job(n_items, shards));
            cfg.poll_ms = 5;
            let (addr, handle) = spawn_coordinator(cfg);

            let fleet: Vec<JoinHandle<Result<u64, String>>> = (0..workers)
                .map(|w| {
                    let addr = addr.clone();
                    std::thread::spawn(move || {
                        // `max_reconnects: 0` keeps the straggler
                        // fail-fast: a worker that raced completion
                        // reports "connect"/"closed" immediately
                        // instead of burning backoff across 128 cases.
                        let opts = WorkerOptions {
                            max_reconnects: 0,
                            ..WorkerOptions::default()
                        };
                        run_worker(&addr, &opts, |_job| {
                            Ok(move |shard: u64, range: Range<u64>| {
                                // Deterministic per-(case, worker, shard) delay:
                                // late shards finish out of claim order.
                                let jitter = (shard * 7919 + w * 131 + u64::from(case)) % 4;
                                std::thread::sleep(Duration::from_millis(jitter));
                                shard_payload(range)
                            })
                        })
                        .map(|report| report.computed)
                    })
                })
                .collect();

            let (payloads, report) = handle.join().expect("coordinator thread");
            let mut computed = 0;
            for worker in fleet {
                match worker.join().expect("worker thread") {
                    Ok(n) => computed += n,
                    // A straggler that raced job completion and never got a
                    // connection (or a welcome) computed nothing; that must
                    // be the only failure mode in a clean run.
                    Err(e) => assert!(
                        e.contains("connect") || e.contains("closed"),
                        "case {case}: unexpected worker failure: {e}"
                    ),
                }
            }
            assert_eq!(
                computed,
                payloads.len() as u64,
                "case {case}: with no faults every shard is computed exactly once"
            );
            assert_eq!(report.reassignments, 0, "case {case}: {:?}", report.reasons);
            assert_eq!(
                merge_payloads(&payloads),
                serial_reference(n_items, shards),
                "case {case}: {n_items} items / {shards} shards / {workers} workers"
            );
        },
    );
}

/// A claimant that goes silent loses its lease: the shard is reassigned
/// and the run still converges to the serial bytes.
#[test]
fn expired_lease_is_reassigned_and_converges() {
    let n_items = 30;
    let mut cfg = CoordinatorConfig::new(toy_job(n_items, 3));
    cfg.lease_timeout = Duration::from_millis(150);
    cfg.poll_ms = 20;
    let (addr, handle) = spawn_coordinator(cfg);

    // The staller claims a shard over the raw protocol and never
    // computes, never heartbeats, never hangs up.
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let send = |writer: &mut TcpStream, message: &Message| {
        write_frame(writer, &message.encode()).expect("send");
    };
    send(
        &mut writer,
        &Message::Hello {
            protocol: PROTOCOL_VERSION,
            prior: 0,
        },
    );
    let worker = match Message::decode(&read_frame(&mut reader).expect("frame")).expect("decode") {
        Message::Welcome { worker, .. } => worker,
        other => panic!("expected Welcome, got {other:?}"),
    };
    send(&mut writer, &Message::Ready { worker });
    assert!(matches!(
        Message::decode(&read_frame(&mut reader).expect("frame")).expect("decode"),
        Message::Assign { .. }
    ));

    // A healthy worker drains the rest, waits out the stalled lease,
    // and picks up the reassignment.
    run_worker(&addr, &WorkerOptions::default(), |_job| {
        Ok(|_shard, range: Range<u64>| shard_payload(range))
    })
    .expect("good worker");

    let (payloads, report) = handle.join().expect("coordinator thread");
    assert!(
        report.reassignments >= 1,
        "the stalled shard must be reassigned: {:?}",
        report.reasons
    );
    assert!(
        report.reasons.iter().any(|r| r.contains("expired")),
        "reasons: {:?}",
        report.reasons
    );
    assert_eq!(merge_payloads(&payloads), serial_reference(n_items, 3));
}

/// A slow worker that heartbeats keeps its lease: no reassignment, no
/// duplicate, even though the compute takes several lease lifetimes.
#[test]
fn heartbeat_keeps_a_slow_lease_alive() {
    let n_items = 20;
    let mut cfg = CoordinatorConfig::new(toy_job(n_items, 2));
    cfg.lease_timeout = Duration::from_millis(150);
    cfg.poll_ms = 20;
    let (addr, handle) = spawn_coordinator(cfg);

    let opts = WorkerOptions {
        heartbeat: Duration::from_millis(40),
        ..WorkerOptions::default()
    };
    run_worker(&addr, &opts, |_job| {
        Ok(|shard: u64, range: Range<u64>| {
            if shard == 0 {
                // Several lease lifetimes of honest work.
                std::thread::sleep(Duration::from_millis(600));
            }
            shard_payload(range)
        })
    })
    .expect("slow worker");

    let (payloads, report) = handle.join().expect("coordinator thread");
    assert_eq!(
        report.reassignments, 0,
        "heartbeats must keep the lease: {:?}",
        report.reasons
    );
    assert_eq!(report.duplicate_results, 0);
    assert_eq!(merge_payloads(&payloads), serial_reference(n_items, 2));
}

/// A job whose every shard is preloaded is complete before anyone
/// connects: `run` returns the preloaded payloads without accepting.
#[test]
fn fully_preloaded_job_returns_without_a_worker() {
    let (n_items, shards) = (40, 4);
    let coordinator = Coordinator::bind(
        "127.0.0.1:0",
        CoordinatorConfig::new(toy_job(n_items, shards)),
        Arc::new(Telemetry::system()),
    )
    .expect("bind");
    let ranges = ShardPlan::new(shards as usize, 1).ranges(n_items);
    let restored = coordinator.preload(
        ranges
            .iter()
            .enumerate()
            .map(|(index, range)| (index, shard_payload(range.clone()))),
    );
    assert_eq!(restored, ranges.len());

    // An accept that blocked before checking for completion would hang
    // here: bound the wait so that shows as a failure.
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || done.send(coordinator.run(|_, _| Ok(()))));
    let (payloads, report) = finished
        .recv_timeout(Duration::from_secs(10))
        .expect("a fully preloaded run returns without a worker");
    assert_eq!(report.resumed_shards, shards);
    assert_eq!(report.workers_seen, 0);
    assert_eq!(merge_payloads(&payloads), serial_reference(n_items, shards));
}

/// Once `run` returns, its listener is closed: a new connection to the
/// address is refused rather than left waiting in a leaked backlog.
#[test]
fn finished_run_refuses_new_connections() {
    let (n_items, shards) = (30, 3);
    let (addr, handle) = spawn_coordinator(CoordinatorConfig::new(toy_job(n_items, shards)));
    run_worker(&addr, &WorkerOptions::default(), |_job| {
        Ok(|_shard, range: Range<u64>| shard_payload(range))
    })
    .expect("worker");
    let (payloads, _) = handle.join().expect("coordinator thread");
    assert_eq!(merge_payloads(&payloads), serial_reference(n_items, shards));

    let refused = TcpStream::connect(&addr).expect_err("the listener must be closed");
    assert_eq!(refused.kind(), std::io::ErrorKind::ConnectionRefused);
}
