//! Wire-protocol corruption matrix against a live coordinator.
//!
//! Each case connects a misbehaving client to a real TCP coordinator —
//! truncated frame, bit-flipped body, forged snapshot version, oversized
//! declared length, mid-handshake disconnect — and requires a *counted*
//! rejection (never a panic, never an attacker-sized allocation), after
//! which a well-behaved worker still completes the job and the merged
//! payloads are byte-identical to the serial reference.

use bb_engine::{fnv1a64, ExactMoments, Mergeable, ShardPlan, Snapshot};
use bb_federate::{
    read_frame, run_worker, write_frame, Coordinator, CoordinatorConfig, FederationReport,
    FrameError, JobSpec, Message, WorkerOptions, MAX_FRAME_BYTES,
};
use bb_trace::Telemetry;
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::ops::Range;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------- fixture

/// The toy payload: exact moments of a deterministic per-item series, so
/// shard partials merge exactly and snapshots compare byte-for-byte.
fn toy_value(i: u64) -> f64 {
    (i as f64).sin() * 10.0 + i as f64
}

fn shard_payload(range: Range<u64>) -> String {
    let mut moments = ExactMoments::new();
    for i in range {
        moments.push(toy_value(i));
    }
    moments.to_snapshot_string()
}

/// The single-process reference: fold each shard serially, merge in shard
/// order — exactly the contract the coordinator must reproduce.
fn serial_reference(n_items: u64, shards: u64) -> String {
    ShardPlan::new(shards as usize, 1)
        .ranges(n_items)
        .into_iter()
        .map(|range| {
            ExactMoments::from_snapshot_str(&shard_payload(range)).expect("decode partial")
        })
        .reduce(|mut acc, next| {
            acc.merge(next);
            acc
        })
        .expect("at least one shard")
        .to_snapshot_string()
}

fn toy_job(n_items: u64, shards: u64) -> JobSpec {
    JobSpec {
        seed: 7,
        users: n_items,
        days: 1,
        fcc_users: 0,
        chaos_scenario: "-".to_string(),
        chaos_severity: 0.0,
        n_items,
        shards,
    }
}

/// Bind a coordinator on an ephemeral port whose validator fully decodes
/// every payload (version check included) before merging.
fn spawn_coordinator(
    n_items: u64,
    shards: u64,
) -> (String, JoinHandle<(Vec<String>, FederationReport)>) {
    let mut cfg = CoordinatorConfig::new(toy_job(n_items, shards));
    cfg.poll_ms = 25;
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

fn run_good_worker(addr: &str) {
    run_worker(addr, &WorkerOptions::default(), |_job| {
        Ok(|_shard, range: Range<u64>| shard_payload(range))
    })
    .expect("good worker");
}

/// Finish the job with a good worker, join the coordinator, and assert
/// the merged result is byte-identical to the serial reference.
fn finish_and_check(
    addr: &str,
    handle: JoinHandle<(Vec<String>, FederationReport)>,
    n_items: u64,
    shards: u64,
) -> FederationReport {
    run_good_worker(addr);
    let (payloads, report) = handle.join().expect("coordinator thread");
    let merged = payloads
        .iter()
        .map(|p| ExactMoments::from_snapshot_str(p).expect("decode merged payload"))
        .reduce(|mut acc, next| {
            acc.merge(next);
            acc
        })
        .expect("payloads")
        .to_snapshot_string();
    assert_eq!(merged, serial_reference(n_items, shards));
    report
}

/// Read until the coordinator drops the connection — this is the
/// synchronisation point proving the rejection was *processed*, not a
/// sleep hoping it was.
fn await_drop(stream: &mut TcpStream) {
    let mut sink = [0u8; 256];
    loop {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
    }
}

/// A well-formed frame for `body`, returned as raw bytes to corrupt.
fn encode_frame(body: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(12 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_be_bytes());
    frame.extend_from_slice(&fnv1a64(body).to_be_bytes());
    frame.extend_from_slice(body);
    frame
}

/// A scripted protocol client for cases that must get *past* the
/// handshake before misbehaving.
struct Script {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Script {
    fn connect(addr: &str) -> Script {
        let stream = TcpStream::connect(addr).expect("connect");
        let writer = stream.try_clone().expect("clone socket");
        Script {
            reader: BufReader::new(stream),
            writer,
        }
    }

    fn send(&mut self, message: &Message) {
        write_frame(&mut self.writer, &message.encode()).expect("send");
    }

    fn recv(&mut self) -> Message {
        let text = read_frame(&mut self.reader).expect("read frame");
        Message::decode(&text).expect("decode")
    }

    /// Hello → Welcome, returning the assigned worker id.
    fn handshake(&mut self) -> u64 {
        self.send(&Message::Hello {
            protocol: bb_federate::PROTOCOL_VERSION,
            prior: 0,
        });
        match self.recv() {
            Message::Welcome { worker, .. } => worker,
            other => panic!("expected Welcome, got {other:?}"),
        }
    }

    /// Ready → the next directive.
    fn ready(&mut self, worker: u64) -> Message {
        self.send(&Message::Ready { worker });
        self.recv()
    }

    /// Assert that no directive arrives within `quiet`: the request
    /// sent last is being held.
    fn assert_held(&mut self, quiet: Duration) {
        self.writer
            .set_read_timeout(Some(quiet))
            .expect("set timeout");
        match read_frame(&mut self.reader) {
            Err(FrameError::Io(e)) if bb_federate::is_timeout(&e) => {}
            other => panic!("expected the request to be held, got {other:?}"),
        }
        self.writer.set_read_timeout(None).expect("clear timeout");
    }
}

// ------------------------------------------------------------ the matrix

#[test]
fn truncated_frame_is_counted_and_recovered() {
    let (addr, handle) = spawn_coordinator(24, 3);

    let mut stream = TcpStream::connect(&addr).expect("connect");
    let frame = encode_frame(b"this body will be cut short mid-flight");
    stream.write_all(&frame[..frame.len() - 10]).expect("write");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("shutdown");
    await_drop(&mut stream);

    let report = finish_and_check(&addr, handle, 24, 3);
    assert_eq!(report.frames_rejected, 1, "reasons: {:?}", report.reasons);
    assert!(
        report.reasons.iter().any(|r| r.contains("truncated")),
        "reasons: {:?}",
        report.reasons
    );
}

#[test]
fn bit_flipped_body_fails_the_digest() {
    let (addr, handle) = spawn_coordinator(24, 3);

    let hello = Message::Hello {
        protocol: bb_federate::PROTOCOL_VERSION,
        prior: 0,
    };
    let mut frame = encode_frame(hello.encode().as_bytes());
    let last = frame.len() - 1;
    frame[last] ^= 0x40; // flip one bit in the body; header digest is stale
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream.write_all(&frame).expect("write");
    await_drop(&mut stream);

    let report = finish_and_check(&addr, handle, 24, 3);
    assert_eq!(report.frames_rejected, 1, "reasons: {:?}", report.reasons);
    assert!(
        report.reasons.iter().any(|r| r.contains("digest mismatch")),
        "reasons: {:?}",
        report.reasons
    );
}

#[test]
fn valid_digest_but_undecodable_body_is_rejected() {
    let (addr, handle) = spawn_coordinator(24, 3);

    // The digest is honest — the bytes just aren't a protocol message.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    let frame = encode_frame(b"definitely not a federation message");
    stream.write_all(&frame).expect("write");
    await_drop(&mut stream);

    let report = finish_and_check(&addr, handle, 24, 3);
    assert_eq!(report.frames_rejected, 1, "reasons: {:?}", report.reasons);
    assert!(
        report.reasons.iter().any(|r| r.contains("undecodable")),
        "reasons: {:?}",
        report.reasons
    );
}

#[test]
fn forged_snapshot_version_is_rejected_and_reassigned() {
    let (addr, handle) = spawn_coordinator(24, 3);

    let mut forger = Script::connect(&addr);
    let worker = forger.handshake();
    let (shard, start, end) = match forger.ready(worker) {
        Message::Assign { shard, start, end } => (shard, start, end),
        other => panic!("expected Assign, got {other:?}"),
    };
    // A structurally perfect payload claiming a snapshot version this
    // build has never heard of — validation must refuse to merge it.
    let forged = shard_payload(start..end).replacen("v1", "v99", 1);
    forger.send(&Message::Result {
        worker,
        shard,
        payload: forged,
    });
    match forger.recv() {
        Message::Reject { reason } => {
            assert!(reason.contains("rejected"), "reject reason: {reason}")
        }
        other => panic!("expected Reject, got {other:?}"),
    }

    let report = finish_and_check(&addr, handle, 24, 3);
    assert_eq!(report.results_rejected, 1, "reasons: {:?}", report.reasons);
    assert!(
        report.reassignments >= 1,
        "the forged shard must go back to the queue: {:?}",
        report.reasons
    );
}

#[test]
fn oversized_declared_length_is_rejected_from_the_header() {
    let (addr, handle) = spawn_coordinator(24, 3);

    // Header claims 4 GiB. The coordinator must reject from the header
    // alone — no attacker-sized allocation, no blocking read for a body
    // that will never come. We never send a body at all: if the
    // coordinator tried to read one, `await_drop` would deadlock and the
    // test harness would time out.
    let mut header = Vec::with_capacity(12);
    header.extend_from_slice(&u32::MAX.to_be_bytes());
    header.extend_from_slice(&0u64.to_be_bytes());
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream.write_all(&header).expect("write");
    await_drop(&mut stream);

    let report = finish_and_check(&addr, handle, 24, 3);
    assert_eq!(report.frames_rejected, 1, "reasons: {:?}", report.reasons);
    assert!(
        report
            .reasons
            .iter()
            .any(|r| r.contains(&format!("{MAX_FRAME_BYTES}-byte cap"))),
        "reasons: {:?}",
        report.reasons
    );
}

#[test]
fn mid_handshake_disconnect_is_counted() {
    let (addr, handle) = spawn_coordinator(24, 3);

    // Half a header, then gone.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream.write_all(&[0u8; 5]).expect("write");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("shutdown");
    await_drop(&mut stream);

    let report = finish_and_check(&addr, handle, 24, 3);
    assert_eq!(report.frames_rejected, 1, "reasons: {:?}", report.reasons);
    assert!(
        report.reasons.iter().any(|r| r.contains("handshake")),
        "reasons: {:?}",
        report.reasons
    );
}

#[test]
fn wrong_protocol_version_is_turned_away() {
    let (addr, handle) = spawn_coordinator(24, 3);

    let mut client = Script::connect(&addr);
    client.send(&Message::Hello {
        protocol: bb_federate::PROTOCOL_VERSION + 1,
        prior: 0,
    });
    match client.recv() {
        Message::Reject { reason } => {
            assert!(reason.contains("unsupported protocol"), "{reason}")
        }
        other => panic!("expected Reject, got {other:?}"),
    }

    let report = finish_and_check(&addr, handle, 24, 3);
    assert_eq!(report.frames_rejected, 1, "reasons: {:?}", report.reasons);
    // The refused client never counts as a worker.
    assert_eq!(report.workers_seen, 1, "only the good worker handshook");
}

#[test]
fn duplicate_result_after_reassignment_is_benign() {
    // Four shards, two scripted clients, fully deterministic ordering:
    // the staller leases shard 0 and sits on it past the lease; the
    // runner merges shards 1 and 2, parks shard 3 un-answered, claims
    // the reassigned shard 0 and merges it. The staller's stale result
    // for shard 0 then lands as a counted duplicate *while shard 3 is
    // still open* — so the duplicate is provably recorded before the
    // job can complete and the report is taken.
    let n_items = 32;
    let mut cfg = CoordinatorConfig::new(toy_job(n_items, 4));
    cfg.lease_timeout = Duration::from_millis(500);
    cfg.poll_ms = 10;
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

    let mut staller = Script::connect(&addr);
    let staller_id = staller.handshake();
    let (stalled_shard, stalled_start, stalled_end) = match staller.ready(staller_id) {
        Message::Assign { shard, start, end } => (shard, start, end),
        other => panic!("expected Assign, got {other:?}"),
    };
    std::thread::sleep(Duration::from_millis(800)); // let the lease expire

    let mut runner = Script::connect(&addr);
    let runner_id = runner.handshake();
    let answer = |runner: &mut Script, directive: Message| -> Message {
        match directive {
            Message::Assign { shard, start, end } => {
                runner.send(&Message::Result {
                    worker: runner_id,
                    shard,
                    payload: shard_payload(start..end),
                });
                runner.recv()
            }
            other => panic!("expected Assign, got {other:?}"),
        }
    };
    // The queue is now [1, 2, 3, 0]: merge 1 and 2, then *hold* 3.
    let directive = runner.ready(runner_id);
    let directive = answer(&mut runner, directive);
    let directive = answer(&mut runner, directive);
    let held = match directive {
        Message::Assign { shard, start, end } => {
            assert_ne!(shard, stalled_shard);
            (shard, start, end)
        }
        other => panic!("expected Assign, got {other:?}"),
    };
    // Keep the parked shard's lease alive while we take a detour — this
    // is exactly what a slow-but-healthy worker does.
    runner.send(&Message::Heartbeat {
        worker: runner_id,
        shard: held.0,
    });
    // With shard 3 parked, ask for more work: the reassigned shard 0.
    match runner.ready(runner_id) {
        Message::Assign { shard, start, end } => {
            assert_eq!(shard, stalled_shard, "the stalled shard must requeue");
            let after = answer(&mut runner, Message::Assign { shard, start, end });
            assert!(
                matches!(after, Message::Wait { .. }),
                "one shard is still open, expected Wait, got {after:?}"
            );
        }
        other => panic!("expected the reassigned shard, got {other:?}"),
    }

    // Now the straggler finally reports its long-lost shard: a benign,
    // counted duplicate — the job is provably still running.
    staller.send(&Message::Result {
        worker: staller_id,
        shard: stalled_shard,
        payload: shard_payload(stalled_start..stalled_end),
    });
    assert!(
        matches!(staller.recv(), Message::Wait { .. }),
        "a duplicate must stay benign"
    );

    let (held_shard, held_start, held_end) = held;
    runner.send(&Message::Result {
        worker: runner_id,
        shard: held_shard,
        payload: shard_payload(held_start..held_end),
    });
    assert!(matches!(runner.recv(), Message::Finished));

    let (payloads, report) = handle.join().expect("coordinator thread");
    assert_eq!(payloads.len(), 4);
    assert_eq!(report.duplicate_results, 1, "reasons: {:?}", report.reasons);
    assert!(
        report.reasons.iter().any(|r| r.contains("expired")),
        "reasons: {:?}",
        report.reasons
    );
    let merged = payloads
        .iter()
        .map(|p| ExactMoments::from_snapshot_str(p).expect("decode"))
        .reduce(|mut acc, next| {
            acc.merge(next);
            acc
        })
        .expect("payloads")
        .to_snapshot_string();
    assert_eq!(merged, serial_reference(n_items, 4));
}

// ------------------------------------------------------- held requests

/// A one-shard coordinator holding requests for up to 10 s: an answer
/// driven by that timer would arrive as a `Wait`, and late.
fn spawn_holding_coordinator(
    n_items: u64,
    lease_timeout: Duration,
) -> (String, JoinHandle<(Vec<String>, FederationReport)>) {
    let mut cfg = CoordinatorConfig::new(toy_job(n_items, 1));
    cfg.poll_ms = 10_000;
    cfg.lease_timeout = lease_timeout;
    let coordinator =
        Coordinator::bind("127.0.0.1:0", cfg, Arc::new(Telemetry::system())).expect("bind");
    let addr = coordinator.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || coordinator.run(|_, _| Ok(())));
    (addr, handle)
}

/// Two clients on a one-shard job: the lessee holds the only shard, and
/// the waiter has sent `Ready`. Returns both, with the lessee's id and
/// the shard's range.
fn lessee_and_waiter(addr: &str) -> (Script, u64, Range<u64>, Script, u64) {
    let mut lessee = Script::connect(addr);
    let lessee_id = lessee.handshake();
    let range = match lessee.ready(lessee_id) {
        Message::Assign {
            shard: 0,
            start,
            end,
        } => start..end,
        other => panic!("expected Assign for shard 0, got {other:?}"),
    };
    let mut waiter = Script::connect(addr);
    let waiter_id = waiter.handshake();
    waiter.send(&Message::Ready { worker: waiter_id });
    (lessee, lessee_id, range, waiter, waiter_id)
}

/// A held `Ready` is answered `Finished` the moment the lessee's result
/// merges, not when the hold times out.
#[test]
fn held_ready_is_finished_by_the_merge() {
    let n_items = 12;
    let (addr, handle) = spawn_holding_coordinator(n_items, Duration::from_secs(30));
    let (mut lessee, lessee_id, range, mut waiter, _) = lessee_and_waiter(&addr);
    waiter.assert_held(Duration::from_millis(100));

    let merged = Instant::now();
    lessee.send(&Message::Result {
        worker: lessee_id,
        shard: 0,
        payload: shard_payload(range),
    });
    assert!(matches!(lessee.recv(), Message::Finished));
    let answer = waiter.recv();
    let waited = merged.elapsed();
    assert!(matches!(answer, Message::Finished), "{answer:?}");
    assert!(waited < Duration::from_secs(5), "answered after {waited:?}");

    let (payloads, _) = handle.join().expect("coordinator thread");
    assert_eq!(payloads.len(), 1);
}

/// A held `Ready` is handed the shard the moment its lessee disconnects.
#[test]
fn held_ready_is_assigned_when_the_lessee_disconnects() {
    let n_items = 12;
    let (addr, handle) = spawn_holding_coordinator(n_items, Duration::from_secs(30));
    let (lessee, _, range, mut waiter, waiter_id) = lessee_and_waiter(&addr);
    waiter.assert_held(Duration::from_millis(100));

    let lost = Instant::now();
    drop(lessee);
    let answer = waiter.recv();
    let waited = lost.elapsed();
    assert_eq!(
        answer,
        Message::Assign {
            shard: 0,
            start: range.start,
            end: range.end,
        }
    );
    assert!(waited < Duration::from_secs(5), "answered after {waited:?}");

    waiter.send(&Message::Result {
        worker: waiter_id,
        shard: 0,
        payload: shard_payload(range),
    });
    assert!(matches!(waiter.recv(), Message::Finished));
    let (_, report) = handle.join().expect("coordinator thread");
    assert_eq!(report.reassignments, 1, "reasons: {:?}", report.reasons);
}

/// A held `Ready` is handed the shard once a silent lessee's lease
/// expires: the sweep runs at the lease deadline, not on the hold's
/// timer.
#[test]
fn held_ready_is_assigned_at_the_lease_deadline() {
    let n_items = 12;
    let lease = Duration::from_millis(150);
    let (addr, handle) = spawn_holding_coordinator(n_items, lease);
    let leased = Instant::now();
    let (_lessee, _, range, mut waiter, waiter_id) = lessee_and_waiter(&addr);

    let answer = waiter.recv();
    let waited = leased.elapsed();
    assert_eq!(
        answer,
        Message::Assign {
            shard: 0,
            start: range.start,
            end: range.end,
        }
    );
    assert!(
        waited >= lease,
        "assigned after {waited:?}, before the lease ran out"
    );
    assert!(waited < Duration::from_secs(5), "answered after {waited:?}");

    waiter.send(&Message::Result {
        worker: waiter_id,
        shard: 0,
        payload: shard_payload(range),
    });
    assert!(matches!(waiter.recv(), Message::Finished));
    let (_, report) = handle.join().expect("coordinator thread");
    assert!(
        report.reasons.iter().any(|r| r.contains("expired")),
        "reasons: {:?}",
        report.reasons
    );
}
