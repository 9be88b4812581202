//! Federation survivability properties.
//!
//! `tests/federation.rs` pins *determinism* (any partition merges to
//! serial bytes); this suite pins the *failure model* from DESIGN.md
//! §16. Four families of cases:
//!
//! * the reconnect [`Backoff`] schedule is a pure function of
//!   `(base, cap, seed)` with pinned envelope and monotonicity;
//! * a storm of leased-then-silent workers expires every lease exactly
//!   once and never double-merges;
//! * a peer that connects and never speaks is dropped by the socket
//!   deadline, not hung forever;
//! * a [`ChaosProxy`] stall (half-open link) and a mid-frame cut both
//!   end in a counted reconnect and serial-identical bytes;
//! * `run_with` returns only after every merged shard's durability hook
//!   has, so a coordinator never publishes ahead of its checkpoint.

use bb_engine::{ExactMoments, Mergeable, ShardPlan, Snapshot};
use bb_federate::{
    read_frame, run_worker, write_frame, Backoff, ChaosPlan, ChaosProxy, Coordinator,
    CoordinatorConfig, Fault, FederationReport, JobSpec, Message, WorkerOptions, PROTOCOL_VERSION,
};
use bb_trace::Telemetry;
use proptest::{run_property, TestRng};
use std::io::BufReader;
use std::net::TcpStream;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Shared toy world (mirrors tests/federation.rs).

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

/// Bytes a message occupies on the wire: 12-byte header plus the body.
fn frame_len(message: &Message) -> u64 {
    12 + message.encode().len() as u64
}

// ---------------------------------------------------------------------------
// 1. Backoff schedule properties.

/// The un-jittered step for attempt `n`, computed independently of the
/// implementation (u128 arithmetic, so no overflow subtleties).
fn expected_step_us(base_us: u64, cap_us: u64, attempt: u64) -> u64 {
    if base_us == 0 {
        return 0;
    }
    let raw = u128::from(base_us) << attempt.min(63);
    u64::try_from(raw.min(u128::from(cap_us))).expect("capped below u64::MAX")
}

/// Pinned contract of `Backoff::delay`: deterministic per
/// `(base, cap, seed)`, total in `[step, 1.5 * step]`, and strictly
/// increasing while the un-capped exponential still fits under the cap.
#[test]
fn backoff_schedule_is_deterministic_bounded_and_monotone() {
    run_property(
        "backoff_schedule_is_deterministic_bounded_and_monotone",
        |rng: &mut TestRng, _case| {
            let base_us = 1 + rng.next_u64() % 100_000;
            let cap_us = base_us + rng.next_u64() % 5_000_000;
            let seed = rng.next_u64();
            let base = Duration::from_micros(base_us);
            let cap = Duration::from_micros(cap_us);
            let schedule = Backoff::new(base, cap, seed);
            let replay = Backoff::new(base, cap, seed);
            for attempt in 0..48u64 {
                let delay = schedule.delay(attempt);
                // Same (base, cap, seed) — same schedule, every attempt.
                assert_eq!(delay, replay.delay(attempt));
                // Envelope: never below the exponential floor, never
                // more than 50% above it (jitter is < step/2).
                let step = expected_step_us(base_us, cap_us, attempt);
                let total = delay.as_micros();
                assert!(
                    total >= u128::from(step),
                    "attempt {attempt}: {total}us below step {step}us"
                );
                assert!(
                    total <= u128::from(step) + u128::from(step / 2),
                    "attempt {attempt}: {total}us above 1.5x step {step}us"
                );
                // Monotone while the next doubling still fits under the
                // cap: 2*step(n) > 1.5*step(n) > total(n).
                if (u128::from(base_us) << (attempt + 1).min(63)) <= u128::from(cap_us) {
                    assert!(
                        delay < schedule.delay(attempt + 1),
                        "attempt {attempt}: schedule not strictly increasing below the cap"
                    );
                }
            }
        },
    );
}

// ---------------------------------------------------------------------------
// 2. Lease sweeper under an expiry storm.

/// A raw protocol client that handshakes, claims one shard, and then
/// goes silent while holding its socket open — the shape of a worker
/// whose machine wedged mid-compute without dying.
struct SilentLeaseHolder {
    _writer: TcpStream,
    _reader: BufReader<TcpStream>,
}

impl SilentLeaseHolder {
    fn claim(addr: &str) -> SilentLeaseHolder {
        let mut writer = TcpStream::connect(addr).expect("staller connect");
        let mut reader = BufReader::new(writer.try_clone().expect("clone"));
        let hello = Message::Hello {
            protocol: PROTOCOL_VERSION,
            prior: 0,
        };
        write_frame(&mut writer, &hello.encode()).expect("send hello");
        let welcome = read_frame(&mut reader).expect("read welcome");
        let Message::Welcome { worker, .. } = Message::decode(&welcome).expect("decode welcome")
        else {
            panic!("expected Welcome, got {welcome}");
        };
        write_frame(&mut writer, &Message::Ready { worker }.encode()).expect("send ready");
        let directive = read_frame(&mut reader).expect("read directive");
        assert!(
            matches!(
                Message::decode(&directive).expect("decode directive"),
                Message::Assign { .. }
            ),
            "staller must actually hold a lease"
        );
        SilentLeaseHolder {
            _writer: writer,
            _reader: reader,
        }
    }
}

/// Under a storm of leased-then-silent workers, every expired shard is
/// re-leased exactly once (reassignments == stallers, all of them
/// lease expiries), nothing double-merges, and the merged bytes still
/// equal the serial fold.
#[test]
fn lease_expiry_storm_reassigns_each_shard_exactly_once() {
    for case in 0..8u64 {
        let mut rng = TestRng::new(0xBB_5EE9 + case);
        let stallers = 1 + rng.next_u64() % 3;
        let shards = stallers + 1 + rng.next_u64() % 3;
        let n_items = 30 + rng.next_u64() % 120;

        let mut cfg = CoordinatorConfig::new(toy_job(n_items, shards));
        cfg.lease_timeout = Duration::from_millis(200);
        cfg.poll_ms = 10;
        // Deadlines stay out of this test's way: lease expiry must be
        // the only requeue mechanism in play.
        cfg.io_deadline = Duration::from_secs(10);
        let (addr, handle) = spawn_coordinator(cfg);

        // Claim the storm's leases first, so every staller provably
        // holds one before the healthy worker enters.
        let holders: Vec<SilentLeaseHolder> = (0..stallers)
            .map(|_| SilentLeaseHolder::claim(&addr))
            .collect();

        let healthy = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let opts = WorkerOptions {
                    heartbeat: Duration::from_millis(50),
                    ..WorkerOptions::default()
                };
                run_worker(&addr, &opts, |_job| {
                    Ok(|_shard: u64, range: Range<u64>| shard_payload(range))
                })
            })
        };

        let (payloads, report) = handle.join().expect("coordinator thread");
        let worker_report = healthy
            .join()
            .expect("healthy thread")
            .expect("healthy run");
        drop(holders);

        assert_eq!(
            report.reassignments, stallers,
            "case {case}: each stalled lease must expire exactly once: {:?}",
            report.reasons
        );
        for reason in &report.reasons {
            assert!(
                reason.contains("expired"),
                "case {case}: non-expiry reason in a pure lease storm: {reason}"
            );
        }
        assert_eq!(report.duplicate_results, 0, "case {case}: double merge");
        assert_eq!(report.deadline_expiries, 0, "case {case}: deadline fired");
        assert_eq!(report.frames_rejected, 0, "case {case}: frame rejected");
        assert_eq!(
            worker_report.computed, shards,
            "case {case}: the healthy worker must compute every shard"
        );
        assert_eq!(
            merge_payloads(&payloads),
            serial_reference(n_items, shards),
            "case {case}: merged bytes diverged from the serial fold"
        );
    }
}

// ---------------------------------------------------------------------------
// 3. Socket deadlines versus half-open peers.

/// A peer that connects and never says Hello is dropped by the
/// handshake deadline — counted and reasoned — while the run completes
/// normally, instead of a receiver thread hanging forever.
#[test]
fn silent_peer_is_dropped_by_the_handshake_deadline() {
    let n_items = 60;
    let shards = 4;
    let mut cfg = CoordinatorConfig::new(toy_job(n_items, shards));
    cfg.poll_ms = 10;
    cfg.io_deadline = Duration::from_millis(150);
    let (addr, handle) = spawn_coordinator(cfg);

    // Connect, say nothing, keep the socket open past the deadline.
    let mute = TcpStream::connect(&addr).expect("mute connect");
    std::thread::sleep(Duration::from_millis(300));

    let healthy = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            run_worker(&addr, &WorkerOptions::default(), |_job| {
                Ok(|_shard: u64, range: Range<u64>| shard_payload(range))
            })
        })
    };
    let (payloads, report) = handle.join().expect("coordinator thread");
    healthy
        .join()
        .expect("healthy thread")
        .expect("healthy run");
    drop(mute);

    assert!(
        report.deadline_expiries >= 1,
        "the mute peer must be a counted deadline expiry: {report:?}"
    );
    assert!(
        report
            .reasons
            .iter()
            .any(|r| r.contains("no Hello within the socket deadline")),
        "missing handshake-deadline reason: {:?}",
        report.reasons
    );
    assert_eq!(merge_payloads(&payloads), serial_reference(n_items, shards));
}

// ---------------------------------------------------------------------------
// 4. Chaosnet: stalls and mid-frame cuts end in reconnects, not hangs.

/// Byte budget that lands a fault right after the worker's first Ready:
/// Hello (c→s) + Welcome (s→c) + Ready (c→s), plus `extra` bytes into
/// whatever the coordinator answers with.
fn budget_through_first_ready(job: &JobSpec, extra: u64) -> u64 {
    let hello = Message::Hello {
        protocol: PROTOCOL_VERSION,
        prior: 0,
    };
    // The first accepted connection is always worker 1.
    let welcome = Message::Welcome {
        worker: 1,
        job: job.clone(),
    };
    let ready = Message::Ready { worker: 1 };
    frame_len(&hello) + frame_len(&welcome) + frame_len(&ready) + extra
}

/// A link that stalls mid-directive (half-open: sockets stay up, bytes
/// stop) is unstuck by deadlines on *both* ends: the coordinator counts
/// a session deadline expiry and requeues, the worker re-dials through
/// backoff, and the merged bytes still equal the serial fold.
#[test]
fn chaosnet_stall_is_unstuck_by_deadlines_and_a_reconnect() {
    let n_items = 40;
    let shards = 4;
    let job = toy_job(n_items, shards);
    let mut cfg = CoordinatorConfig::new(job.clone());
    cfg.poll_ms = 20;
    // The lease is deliberately huge: only the socket deadline may do
    // the requeue here.
    cfg.lease_timeout = Duration::from_secs(10);
    cfg.io_deadline = Duration::from_millis(150);
    let (addr, handle) = spawn_coordinator(cfg);

    // Connection 0 stalls 4 bytes into the first Assign; connection 1
    // (the reconnect) is clean.
    let plan = ChaosPlan::scripted(vec![Fault::Stall {
        after_bytes: budget_through_first_ready(&job, 4),
    }]);
    let proxy = ChaosProxy::start(addr.parse().expect("addr"), plan).expect("proxy");
    let via = proxy.local_addr().to_string();

    let worker = std::thread::spawn(move || {
        let opts = WorkerOptions {
            max_reconnects: 5,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(100),
            backoff_seed: 7,
            // Longer than the coordinator's deadline, so the expiry is
            // counted on the coordinator side before the worker's old
            // socket closes.
            io_deadline: Some(Duration::from_millis(300)),
            ..WorkerOptions::default()
        };
        run_worker(&via, &opts, |_job| {
            Ok(|_shard: u64, range: Range<u64>| shard_payload(range))
        })
    });

    let (payloads, report) = handle.join().expect("coordinator thread");
    let worker_report = worker.join().expect("worker thread").expect("worker run");

    assert_eq!(proxy.stats().stalls, 1, "the scripted stall must fire");
    assert_eq!(
        worker_report.reconnects, 1,
        "the worker must come back exactly once: {report:?}"
    );
    assert_eq!(report.worker_reconnects, 1, "reconnect not counted");
    assert!(
        report.deadline_expiries >= 1,
        "the stalled socket must be a counted deadline expiry: {report:?}"
    );
    assert!(
        report.reasons.iter().any(|r| r.contains("socket deadline")),
        "missing deadline reason: {:?}",
        report.reasons
    );
    assert_eq!(worker_report.computed, shards);
    assert_eq!(merge_payloads(&payloads), serial_reference(n_items, shards));
}

/// A link cut mid-Result leaves a truncated frame on the coordinator
/// (counted rejection, lease requeued) and an unacknowledged Result on
/// the worker — which re-dials and re-sends it, so the shard is merged
/// from the resend and the bytes still equal the serial fold.
#[test]
fn chaosnet_cut_mid_result_is_healed_by_the_resend() {
    let n_items = 40;
    let shards = 4;
    let job = toy_job(n_items, shards);
    let mut cfg = CoordinatorConfig::new(job.clone());
    cfg.poll_ms = 20;
    cfg.lease_timeout = Duration::from_secs(10);
    cfg.io_deadline = Duration::from_secs(10);
    let (addr, handle) = spawn_coordinator(cfg);

    // The worker's first claim is always shard 0 (queue order), so the
    // exact Result frame it will send is computable here; cut the link
    // halfway through it.
    let ranges = ShardPlan::new(shards as usize, 1).ranges(n_items);
    let first_result = Message::Result {
        worker: 1,
        shard: 0,
        payload: shard_payload(ranges[0].clone()),
    };
    let assign = Message::Assign {
        shard: 0,
        start: ranges[0].start,
        end: ranges[0].end,
    };
    let budget =
        budget_through_first_ready(&job, frame_len(&assign) + frame_len(&first_result) / 2);
    let plan = ChaosPlan::scripted(vec![Fault::Cut {
        after_bytes: budget,
    }]);
    let proxy = ChaosProxy::start(addr.parse().expect("addr"), plan).expect("proxy");
    let via = proxy.local_addr().to_string();

    let worker = std::thread::spawn(move || {
        let opts = WorkerOptions {
            max_reconnects: 5,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(100),
            backoff_seed: 9,
            io_deadline: Some(Duration::from_secs(5)),
            ..WorkerOptions::default()
        };
        run_worker(&via, &opts, |_job| {
            Ok(|_shard: u64, range: Range<u64>| shard_payload(range))
        })
    });

    let (payloads, report) = handle.join().expect("coordinator thread");
    let worker_report = worker.join().expect("worker thread").expect("worker run");

    assert_eq!(proxy.stats().cuts, 1, "the scripted cut must fire");
    assert!(
        report.frames_rejected >= 1,
        "the mid-frame FIN must be a counted rejection: {report:?}"
    );
    assert_eq!(
        worker_report.reconnects, 1,
        "the worker must come back exactly once: {report:?}"
    );
    assert_eq!(report.worker_reconnects, 1, "reconnect not counted");
    assert_eq!(
        report.duplicate_results, 0,
        "the truncated Result never merged, so its resend must not be a duplicate"
    );
    // Shard 0 was computed once and re-sent, never recomputed.
    assert_eq!(worker_report.computed, shards);
    assert_eq!(merge_payloads(&payloads), serial_reference(n_items, shards));
}

// ---------------------------------------------------------------------------
// 5. Durability hooks finish before the run does.

/// A slow `persist` hook on the final shard must not be overtaken:
/// `run_with` returns only once every merged shard's hook has returned,
/// so a checkpointing coordinator never exits with a commit in flight.
#[test]
fn run_with_returns_after_every_persist_hook() {
    let (n_items, shards) = (40, 4);
    let coordinator = Coordinator::bind(
        "127.0.0.1:0",
        CoordinatorConfig::new(toy_job(n_items, shards)),
        Arc::new(Telemetry::system()),
    )
    .expect("bind");
    let addr = coordinator.local_addr().expect("local addr").to_string();
    let committed = Arc::new(AtomicUsize::new(0));
    let hook = Arc::clone(&committed);
    let handle = std::thread::spawn(move || {
        let (payloads, _) = coordinator.run_with(
            |_, _| Ok(()),
            move |_, _| {
                std::thread::sleep(Duration::from_millis(200));
                hook.fetch_add(1, Ordering::SeqCst);
                Ok(())
            },
        );
        // Counted the moment `run_with` returns: the worker below only
        // finishes after its last hook, so a later count proves nothing.
        (payloads, committed.load(Ordering::SeqCst))
    });
    run_worker(&addr, &WorkerOptions::default(), |_job| {
        Ok(|_shard: u64, range: Range<u64>| shard_payload(range))
    })
    .expect("worker");
    let (payloads, committed) = handle.join().expect("coordinator thread");
    assert_eq!(
        committed, shards as usize,
        "run_with returned with a persist hook still running"
    );
    assert_eq!(merge_payloads(&payloads), serial_reference(n_items, shards));
}
