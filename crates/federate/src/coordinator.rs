//! The coordinator: a lease-based shard dispatcher over TCP.
//!
//! The coordinator owns the authoritative shard table. Every shard is in
//! exactly one of three states — *pending* (in the queue), *leased*
//! (assigned to a worker, with a deadline), or *merged* (a validated
//! payload is stored at its index). Workers only ever move shards
//! forward; every failure path moves a shard back to *pending*:
//!
//! * worker disconnect (clean close, I/O error, or a rejected frame) —
//!   all of its leases requeue immediately;
//! * lease deadline passes with no heartbeat — the shard requeues, and
//!   a straggler's late result is dropped as a duplicate if someone
//!   else merged it first;
//! * payload fails validation — the shard requeues and the sender is
//!   dropped;
//! * a socket sits silent past `io_deadline` — the half-open peer is
//!   dropped with a counted deadline expiry, never a hung thread.
//!
//! Nothing on a job's path runs on a tick. A request that finds nothing
//! to claim waits on a condition variable that every requeue and merge
//! notifies, expired leases are swept on each request and at the
//! earliest lease deadline, and the thread that commits the last shard
//! wakes the blocking `accept` by connecting to it.
//!
//! Determinism does not depend on any of this machinery: payloads are
//! stored *by shard index* and handed back in shard order once every
//! index is filled, so the merge is a pure function of the job,
//! identical to a single-process fold whatever the claim interleaving
//! was.

use crate::protocol::{
    is_timeout, read_frame, write_frame, FrameError, JobSpec, Message, PROTOCOL_VERSION,
};
use bb_engine::ShardPlan;
use bb_trace::Telemetry;
use std::collections::{HashMap, VecDeque};
use std::io::BufReader;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Tuning knobs for a [`Coordinator`].
#[derive(Clone, Debug)]
pub struct CoordinatorConfig {
    /// The job advertised to every worker.
    pub job: JobSpec,
    /// How long a leased shard may go without a result or heartbeat
    /// before it is reassigned.
    pub lease_timeout: Duration,
    /// How long a `Ready` (or `Result`) that finds no pending shard is
    /// held waiting for one to requeue or for the job to end. A hold
    /// that runs out is answered `Wait { poll_ms: 0 }`, and the worker
    /// asks again at once. Workers' socket deadlines must exceed it.
    pub poll_ms: u64,
    /// Read/write deadline on every worker socket: a peer silent for
    /// this long is dropped (leases requeued) instead of hanging its
    /// receiver thread forever. Must comfortably exceed the worker
    /// heartbeat interval.
    pub io_deadline: Duration,
}

impl CoordinatorConfig {
    /// A config with the default 30 s lease, 200 ms hold, and 30 s
    /// socket deadline.
    pub fn new(job: JobSpec) -> Self {
        CoordinatorConfig {
            job,
            lease_timeout: Duration::from_secs(30),
            poll_ms: 200,
            io_deadline: Duration::from_secs(30),
        }
    }
}

/// What one federated run did — the federation analogue of the
/// checkpoint layer's `CheckpointReport`: process-dependent bookkeeping
/// that never touches the deterministic artifacts.
#[derive(Clone, Debug, Default)]
pub struct FederationReport {
    /// Workers that completed the handshake.
    pub workers_seen: u64,
    /// Shards handed back to the queue (disconnects, expired leases,
    /// rejected results).
    pub reassignments: u64,
    /// Frames or messages that violated the protocol.
    pub frames_rejected: u64,
    /// Result payloads that failed validation.
    pub results_rejected: u64,
    /// Valid results for shards that were already merged (stragglers
    /// finishing after a reassignment) — benign, dropped.
    pub duplicate_results: u64,
    /// Handshakes that declared a prior worker id — peers that came
    /// back through the reconnect loop.
    pub worker_reconnects: u64,
    /// Sockets dropped because a read or write sat past the configured
    /// deadline (half-open or slow-loris peers).
    pub deadline_expiries: u64,
    /// Shards restored from a checkpoint via [`Coordinator::preload`]
    /// instead of being computed by any worker.
    pub resumed_shards: u64,
    /// Human-readable causes, in occurrence order.
    pub reasons: Vec<String>,
}

/// A live lease: which worker holds the shard and until when.
struct Lease {
    worker: u64,
    issued_us: u64,
    deadline_us: u64,
}

/// The shard table plus the report being accumulated.
struct State {
    pending: VecDeque<usize>,
    leases: HashMap<usize, Lease>,
    payloads: Vec<Option<String>>,
    /// Shards with no merged payload yet.
    remaining: usize,
    /// Merged shards whose `persist` hook has not returned yet.
    committing: usize,
    report: FederationReport,
}

impl State {
    /// Every shard merged and every commit returned: `run_with` may
    /// hand the payloads back.
    fn done(&self) -> bool {
        self.remaining == 0 && self.committing == 0
    }
}

struct Shared {
    state: Mutex<State>,
    /// Notified when a held request's answer may have changed: a shard
    /// merged or requeued, or the job completed.
    changed: Condvar,
    cfg: CoordinatorConfig,
    ranges: Vec<Range<u64>>,
    telemetry: Arc<Telemetry>,
    /// Where the thread that completes the job connects to wake the
    /// blocking `accept` in [`Coordinator::run_with`], which sets it.
    wake: OnceLock<SocketAddr>,
}

impl Shared {
    fn now_us(&self) -> u64 {
        self.telemetry.now_micros()
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("federation state")
    }

    fn done(&self) -> bool {
        self.lock().done()
    }

    /// Move every lease whose deadline passed by `now` back to the
    /// queue, waking held requests to claim them.
    fn sweep_expired(&self, state: &mut State, now: u64) {
        let expired: Vec<usize> = state
            .leases
            .iter()
            .filter(|(_, lease)| lease.deadline_us < now)
            .map(|(&shard, _)| shard)
            .collect();
        if expired.is_empty() {
            return;
        }
        for shard in expired {
            let lease = state.leases.remove(&shard).expect("swept lease");
            state.pending.push_back(shard);
            self.count_reassignment(
                state,
                "lease-expired",
                format!(
                    "shard {shard}: lease held by worker {} expired",
                    lease.worker
                ),
            );
        }
        self.changed.notify_all();
    }

    /// Requeue every lease held by `worker` (it died or misbehaved).
    fn drop_worker(&self, worker: u64, cause: &str) {
        let mut state = self.lock();
        let held: Vec<usize> = state
            .leases
            .iter()
            .filter(|(_, lease)| lease.worker == worker)
            .map(|(&shard, _)| shard)
            .collect();
        if held.is_empty() {
            return;
        }
        for shard in held {
            state.leases.remove(&shard);
            state.pending.push_back(shard);
            self.count_reassignment(
                &mut state,
                "worker-lost",
                format!("shard {shard}: worker {worker} {cause}"),
            );
        }
        self.changed.notify_all();
    }

    fn count_reassignment(&self, state: &mut State, reason: &'static str, detail: String) {
        state.report.reassignments += 1;
        state.report.reasons.push(detail);
        self.telemetry
            .counter_with("federate.reassignments", &[("reason", reason)])
            .inc();
    }

    fn count_rejected_frame(&self, detail: String) {
        let mut state = self.lock();
        state.report.frames_rejected += 1;
        state.report.reasons.push(detail);
        self.telemetry.counter("federate.frames.rejected").inc();
    }

    /// A socket deadline fired: count it, with the phase (`handshake`,
    /// `session`, `write`) as the instrument label.
    fn count_deadline(&self, phase: &'static str, detail: String) {
        let mut state = self.lock();
        state.report.deadline_expiries += 1;
        state.report.reasons.push(detail);
        self.telemetry
            .counter_with("federate.deadline.expired", &[("phase", phase)])
            .inc();
    }

    /// Answer a `Ready` (or a just-merged `Result`): hand out a shard or
    /// finish the worker. With nothing to claim, the request is held
    /// until a shard requeues or the last one merges, waking at the
    /// earliest lease deadline to sweep it; a hold that outlasts
    /// `poll_ms` is answered `Wait { poll_ms: 0 }`.
    fn next_directive(&self, worker: u64) -> Message {
        let hold_until = Instant::now() + Duration::from_millis(self.cfg.poll_ms);
        let mut state = self.lock();
        let (shard, now) = loop {
            let now = self.now_us();
            self.sweep_expired(&mut state, now);
            if state.remaining == 0 {
                return Message::Finished;
            }
            if let Some(shard) = state.pending.pop_front() {
                break (shard, now);
            }
            let hold = hold_until.saturating_duration_since(Instant::now());
            if hold.is_zero() {
                return Message::Wait { poll_ms: 0 };
            }
            // A lease expires once the clock passes its deadline.
            let expiry = state
                .leases
                .values()
                .map(|lease| Duration::from_micros(lease.deadline_us.saturating_sub(now) + 1))
                .min();
            let timeout = expiry.map_or(hold, |expiry| expiry.min(hold));
            state = self
                .changed
                .wait_timeout(state, timeout)
                .expect("federation state")
                .0;
        };
        state.leases.insert(
            shard,
            Lease {
                worker,
                issued_us: now,
                deadline_us: now + self.cfg.lease_timeout.as_micros() as u64,
            },
        );
        drop(state);
        self.telemetry
            .counter_with(
                "federate.worker.assigned",
                &[("worker", &worker.to_string())],
            )
            .inc();
        let range = &self.ranges[shard];
        Message::Assign {
            shard: shard as u64,
            start: range.start,
            end: range.end,
        }
    }

    /// Extend the lease of a shard still being computed.
    fn heartbeat(&self, worker: u64, shard: u64) {
        let deadline = self.now_us() + self.cfg.lease_timeout.as_micros() as u64;
        let mut state = self.lock();
        if let Some(lease) = state.leases.get_mut(&(shard as usize)) {
            if lease.worker == worker {
                lease.deadline_us = deadline;
            }
        }
    }
}

/// What `accept_result` decided.
enum Accepted {
    /// Stored; the worker may continue.
    Merged,
    /// Someone else already merged this shard; payload dropped.
    Duplicate,
    /// The payload failed validation; the sender must be dropped.
    Invalid(String),
}

/// A bound coordinator, ready to [`run`](Coordinator::run).
pub struct Coordinator {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Coordinator {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and build
    /// the shard table for `cfg.job`. Instruments register on
    /// `telemetry`, whose clock also drives the lease deadlines.
    pub fn bind(
        addr: &str,
        cfg: CoordinatorConfig,
        telemetry: Arc<Telemetry>,
    ) -> std::io::Result<Coordinator> {
        let listener = TcpListener::bind(addr)?;
        let shards = usize::try_from(cfg.job.shards.max(1)).unwrap_or(1);
        let ranges = ShardPlan::new(shards, 1).ranges(cfg.job.n_items);
        let n = ranges.len();
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                pending: (0..n).collect(),
                leases: HashMap::new(),
                payloads: vec![None; n],
                remaining: n,
                committing: 0,
                report: FederationReport::default(),
            }),
            changed: Condvar::new(),
            cfg,
            ranges,
            telemetry,
            wake: OnceLock::new(),
        });
        Ok(Coordinator { listener, shared })
    }

    /// The bound address (scrape this for ephemeral ports).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Number of shards in the table.
    pub fn shard_count(&self) -> usize {
        self.shared.ranges.len()
    }

    /// Seed already-validated payloads (shard index → snapshot text)
    /// into the table before [`run`](Coordinator::run): those shards are
    /// never leased, and each is counted as a resumed shard in the
    /// report. Returns the number of shards restored. Out-of-range
    /// indices and repeats of an already-filled slot are ignored.
    pub fn preload(&self, payloads: impl IntoIterator<Item = (usize, String)>) -> usize {
        let mut state = self.shared.lock();
        let mut restored = 0;
        for (index, payload) in payloads {
            if index >= self.shared.ranges.len() || state.payloads[index].is_some() {
                continue;
            }
            state.payloads[index] = Some(payload);
            state.pending.retain(|&p| p != index);
            state.leases.remove(&index);
            state.remaining -= 1;
            state.report.resumed_shards += 1;
            restored += 1;
        }
        restored
    }

    /// Accept workers until every shard has a validated payload, then
    /// return the payloads **in shard order** plus the report. The
    /// listener is closed before this returns.
    ///
    /// `validate` vets each result payload (shard index, payload text)
    /// before it is merged; returning `Err` counts a rejection, requeues
    /// the shard, and drops the sender. Connection threads are detached:
    /// a worker held waiting for work receives `Finished` when the last
    /// shard merges, and one still blocked mid-compute receives it on
    /// its next request.
    pub fn run<V>(self, validate: V) -> (Vec<String>, FederationReport)
    where
        V: Fn(u64, &str) -> Result<(), String> + Send + Sync + 'static,
    {
        self.run_with(validate, |_, _| Ok(()))
    }

    /// [`run`](Coordinator::run) with a durability hook: `persist` is
    /// called once per freshly merged shard (index, payload text),
    /// after the in-memory merge and outside any lock, before the
    /// sending worker gets its next directive. This returns only after
    /// every `persist` call has. A persist failure never aborts the run
    /// — it degrades durability and is recorded as a reason — so a
    /// full-disk coordinator still finishes the job it was asked for.
    pub fn run_with<V, P>(self, validate: V, persist: P) -> (Vec<String>, FederationReport)
    where
        V: Fn(u64, &str) -> Result<(), String> + Send + Sync + 'static,
        P: Fn(usize, &str) -> Result<(), String> + Send + Sync + 'static,
    {
        let validate = Arc::new(validate);
        let persist: Arc<PersistFn> = Arc::new(persist);
        let addr = self.listener.local_addr().expect("bound listener address");
        let _ = self.shared.wake.set(wake_address(addr));
        while !self.shared.done() {
            match self.listener.accept() {
                // The completing thread's wake-up call, or a worker that
                // arrived too late: either way the job is over.
                Ok(_) if self.shared.done() => break,
                Ok((stream, _)) => {
                    let shared = Arc::clone(&self.shared);
                    let validate = Arc::clone(&validate);
                    let persist = Arc::clone(&persist);
                    std::thread::spawn(move || {
                        handle_connection(&shared, stream, &*validate, &*persist)
                    });
                }
                // Out of descriptors or a connection aborted in the
                // backlog: retry after the next event, or 20 ms.
                Err(_) => {
                    let state = self.shared.lock();
                    if !state.done() {
                        let _ = self
                            .shared
                            .changed
                            .wait_timeout(state, Duration::from_millis(20));
                    }
                }
            }
        }
        let mut state = self.shared.lock();
        let payloads = state
            .payloads
            .iter_mut()
            .map(|slot| slot.take().expect("merged shard payload"))
            .collect();
        (payloads, std::mem::take(&mut state.report))
    }
}

/// Where to connect to reach a listener bound to `addr`: an unspecified
/// bind address (`0.0.0.0`, `::`) is reached through loopback.
fn wake_address(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr.ip() {
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    addr
}

/// The durability hook [`Coordinator::run_with`] threads through to
/// [`accept_result`].
type PersistFn = dyn Fn(usize, &str) -> Result<(), String> + Send + Sync;

/// Serve one worker connection until it finishes, dies, or misbehaves.
fn handle_connection(
    shared: &Shared,
    stream: TcpStream,
    validate: &(dyn Fn(u64, &str) -> Result<(), String> + Send + Sync),
    persist: &PersistFn,
) {
    let _ = stream.set_nodelay(true);
    // Deadlines go on before try_clone: the option lives on the socket,
    // so reader and writer both inherit it. A peer silent past the
    // deadline surfaces as a WouldBlock/TimedOut read or write below —
    // counted, reasoned, and the thread exits instead of hanging.
    let deadline = shared.cfg.io_deadline;
    if deadline > Duration::ZERO {
        let _ = stream.set_read_timeout(Some(deadline));
        let _ = stream.set_write_timeout(Some(deadline));
    }
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);

    // Handshake: exactly one Hello with the exact protocol version.
    let worker = match read_frame(&mut reader) {
        Ok(text) => match Message::decode(&text) {
            Ok(Message::Hello { protocol, prior }) if protocol == PROTOCOL_VERSION => {
                let mut state = shared.lock();
                state.report.workers_seen += 1;
                let worker = state.report.workers_seen;
                if prior != 0 {
                    state.report.worker_reconnects += 1;
                    state
                        .report
                        .reasons
                        .push(format!("worker {worker}: reconnected (was worker {prior})"));
                    drop(state);
                    shared
                        .telemetry
                        .counter("federate.reconnect.accepted")
                        .inc();
                }
                worker
            }
            Ok(Message::Hello { protocol, .. }) => {
                shared.count_rejected_frame(format!(
                    "handshake: unsupported protocol v{protocol} \
                     (this coordinator speaks v{PROTOCOL_VERSION})"
                ));
                let reject = Message::Reject {
                    reason: format!("unsupported protocol v{protocol}"),
                };
                let _ = write_frame(&mut writer, &reject.encode());
                return;
            }
            Ok(other) => {
                shared.count_rejected_frame(format!("handshake: expected Hello, got {other:?}"));
                return;
            }
            Err(reason) => {
                shared.count_rejected_frame(format!("handshake: undecodable message: {reason}"));
                return;
            }
        },
        Err(FrameError::Closed) => {
            shared.count_rejected_frame("handshake: disconnected before Hello".into());
            return;
        }
        Err(FrameError::Io(e)) if is_timeout(&e) => {
            shared.count_deadline(
                "handshake",
                "handshake: peer sent no Hello within the socket deadline".into(),
            );
            return;
        }
        Err(FrameError::Io(e)) => {
            shared.count_rejected_frame(format!("handshake: i/o error: {e}"));
            return;
        }
        Err(FrameError::Rejected(reason)) => {
            shared.count_rejected_frame(format!("handshake: {reason}"));
            return;
        }
    };
    let connected = shared.telemetry.gauge("federate.workers.connected");
    let inflight = shared.telemetry.gauge_with(
        "federate.worker.inflight",
        &[("worker", &worker.to_string())],
    );
    connected.add(1);
    let welcome = Message::Welcome {
        worker,
        job: shared.cfg.job.clone(),
    };
    if write_frame(&mut writer, &welcome.encode()).is_err() {
        shared.drop_worker(worker, "disconnected during welcome");
        connected.add(-1);
        return;
    }

    // This connection's view of how many leases the worker holds; the
    // gauge mirrors it and is zeroed on every exit path, so a scrape
    // can never see a phantom (or negative) in-flight count.
    let mut outstanding: i64 = 0;
    loop {
        let directive = match read_frame(&mut reader) {
            Ok(text) => match Message::decode(&text) {
                Ok(Message::Ready { .. }) => shared.next_directive(worker),
                Ok(Message::Heartbeat { shard, .. }) => {
                    shared.heartbeat(worker, shard);
                    continue; // one-way: no reply
                }
                Ok(Message::Result { shard, payload, .. }) => {
                    if outstanding > 0 {
                        outstanding -= 1;
                        inflight.add(-1);
                    }
                    match accept_result(shared, worker, shard, &payload, validate, persist) {
                        Accepted::Merged | Accepted::Duplicate => shared.next_directive(worker),
                        Accepted::Invalid(reason) => {
                            let _ = write_frame(
                                &mut writer,
                                &Message::Reject {
                                    reason: reason.clone(),
                                }
                                .encode(),
                            );
                            shared.drop_worker(worker, &format!("sent a bad result: {reason}"));
                            break;
                        }
                    }
                }
                Ok(other) => {
                    shared.count_rejected_frame(format!(
                        "worker {worker}: unexpected message {other:?}"
                    ));
                    shared.drop_worker(worker, "violated the protocol");
                    break;
                }
                Err(reason) => {
                    shared.count_rejected_frame(format!("worker {worker}: undecodable: {reason}"));
                    shared.drop_worker(worker, "sent an undecodable message");
                    break;
                }
            },
            Err(FrameError::Closed) => {
                shared.drop_worker(worker, "disconnected");
                break;
            }
            Err(FrameError::Io(e)) if is_timeout(&e) => {
                shared.count_deadline(
                    "session",
                    format!("worker {worker}: silent past the socket deadline"),
                );
                shared.drop_worker(worker, "hit the socket deadline (half-open or stalled)");
                break;
            }
            Err(FrameError::Io(e)) => {
                shared.drop_worker(worker, &format!("i/o error: {e}"));
                break;
            }
            Err(FrameError::Rejected(reason)) => {
                shared.count_rejected_frame(format!("worker {worker}: {reason}"));
                shared.drop_worker(worker, "sent a corrupt frame");
                break;
            }
        };
        if let Message::Assign { .. } = directive {
            outstanding += 1;
            inflight.add(1);
        }
        let finished = matches!(directive, Message::Finished);
        if let Err(e) = write_frame(&mut writer, &directive.encode()) {
            if is_timeout(&e) {
                shared.count_deadline(
                    "write",
                    format!("worker {worker}: directive write blocked past the socket deadline"),
                );
            }
            shared.drop_worker(worker, "disconnected");
            break;
        }
        if finished {
            break;
        }
    }
    inflight.set(0);
    connected.add(-1);
}

/// Validate and merge one result payload.
fn accept_result(
    shared: &Shared,
    worker: u64,
    shard: u64,
    payload: &str,
    validate: &(dyn Fn(u64, &str) -> Result<(), String> + Send + Sync),
    persist: &PersistFn,
) -> Accepted {
    let index = shard as usize;
    if index >= shared.ranges.len() {
        return Accepted::Invalid(format!(
            "shard {shard} out of range ({} shards)",
            shared.ranges.len()
        ));
    }
    if shared.lock().payloads[index].is_some() {
        return record_duplicate(shared);
    }
    // Validation can decode a multi-hundred-KiB snapshot: do it outside
    // the lock, then re-check for a racing merge of the same shard.
    if let Err(reason) = validate(shard, payload) {
        let mut state = shared.lock();
        state.report.results_rejected += 1;
        let detail = format!("shard {shard}: worker {worker} payload rejected: {reason}");
        state.report.reasons.push(detail.clone());
        state.leases.remove(&index);
        if !state.pending.contains(&index) {
            state.pending.push_back(index);
        }
        state.report.reassignments += 1;
        drop(state);
        shared.changed.notify_all();
        shared.telemetry.counter("federate.results.rejected").inc();
        shared
            .telemetry
            .counter_with("federate.reassignments", &[("reason", "rejected-result")])
            .inc();
        return Accepted::Invalid(detail);
    }
    let now = shared.now_us();
    let mut state = shared.lock();
    if state.payloads[index].is_some() {
        drop(state);
        return record_duplicate(shared);
    }
    if let Some(lease) = state.leases.remove(&index) {
        shared
            .telemetry
            .histogram("federate.shard.round_trip_us")
            .observe(now.saturating_sub(lease.issued_us));
    }
    // A reassigned shard may still sit in `pending` while the original
    // lessee finishes first; merging removes it from the queue.
    state.pending.retain(|&p| p != index);
    state.payloads[index] = Some(payload.to_string());
    state.remaining -= 1;
    state.committing += 1;
    let _commit = Commit(shared);
    drop(state);
    shared.changed.notify_all();
    shared
        .telemetry
        .counter_with("federate.worker.merged", &[("worker", &worker.to_string())])
        .inc();
    // Durability hook, outside the lock (it fsyncs). A failure degrades
    // durability — a crash-restart would recompute this shard — but the
    // in-memory merge stands, so the run itself still completes.
    if let Err(reason) = persist(index, payload) {
        shared.lock().report.reasons.push(format!(
            "shard {shard}: checkpoint persist failed: {reason}"
        ));
    }
    Accepted::Merged
}

/// One merged shard's commit in flight. Dropping it, even while a
/// panicking `persist` unwinds, ends the commit, so a broken hook cannot
/// wedge `run_with`. The last commit to end completes the job: it wakes
/// every waiter, and connects to wake the acceptor.
struct Commit<'a>(&'a Shared);

impl Drop for Commit<'_> {
    fn drop(&mut self) {
        let shared = self.0;
        // No panic in drop: a poisoned lock still holds a valid count.
        let mut state = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.committing -= 1;
        if !state.done() {
            return;
        }
        drop(state);
        shared.changed.notify_all();
        if let Some(addr) = shared.wake.get() {
            // The acceptor drops this connection unread; if it has
            // already closed the listener, the refusal is just as good.
            let _ = TcpStream::connect(addr);
        }
    }
}

fn record_duplicate(shared: &Shared) -> Accepted {
    let mut state = shared.lock();
    state.report.duplicate_results += 1;
    drop(state);
    shared.telemetry.counter("federate.results.duplicate").inc();
    Accepted::Duplicate
}
