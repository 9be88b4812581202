//! The worker: claim shards, compute them, stream the payloads back.
//!
//! A worker is a strict request–response client: it sends `Hello`, gets
//! the job from `Welcome`, then loops `Ready`/`Result` → directive.
//! With nothing to claim, the coordinator holds the request until work
//! appears or the job ends, so an idle worker simply blocks on the
//! answer. While a shard computes, a side thread sends one-way
//! `Heartbeat` frames so a slow-but-alive shard keeps its lease; the
//! two writers share the socket behind a mutex so frames never
//! interleave.
//!
//! Losing the coordinator is *not* fatal: the worker re-dials through a
//! deterministic capped-exponential [`Backoff`] (seeded jitter, so a
//! test sees the same schedule every run), re-handshakes declaring its
//! prior id, and — because the protocol is strict request–response —
//! knows exactly which `Result` might not have landed: the last one
//! sent with no directive received after it. That payload is re-sent
//! first on the new connection; the coordinator's benign-duplicate path
//! absorbs it if the original did land. Only `max_reconnects`
//! *consecutive* failed dial/handshake attempts end the worker — a
//! successful handshake resets the count.

use crate::backoff::Backoff;
use crate::protocol::{
    is_timeout, read_frame, write_frame, FrameError, JobSpec, Message, PROTOCOL_VERSION,
};
use std::io::BufReader;
use std::net::TcpStream;
use std::ops::Range;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Worker tuning and test hooks.
#[derive(Clone, Debug)]
pub struct WorkerOptions {
    /// Interval between heartbeats while a shard computes.
    pub heartbeat: Duration,
    /// Crash-injection test hook: on receiving the Nth assignment
    /// (1-based, counted across reconnects), die without sending a
    /// result — the federation analogue of `reproduce
    /// --fail-after-shard`.
    pub die_on_assign: Option<u64>,
    /// Consecutive failed connect/handshake attempts tolerated before
    /// the worker gives up. A successful handshake resets the count;
    /// `0` reproduces the old single-attempt behavior.
    pub max_reconnects: u64,
    /// First delay of the reconnect backoff schedule.
    pub backoff_base: Duration,
    /// Ceiling of the reconnect backoff schedule.
    pub backoff_cap: Duration,
    /// Seed for the backoff jitter — fix it for a reproducible
    /// schedule; defaults to the process id.
    pub backoff_seed: u64,
    /// Read/write deadline on the coordinator socket: a coordinator
    /// silent this long is treated as lost (and re-dialed) instead of
    /// blocking the worker forever. `None` disables deadlines.
    pub io_deadline: Option<Duration>,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            heartbeat: Duration::from_secs(5),
            die_on_assign: None,
            max_reconnects: 5,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(5),
            backoff_seed: u64::from(std::process::id()),
            io_deadline: Some(Duration::from_secs(30)),
        }
    }
}

/// What one worker process did.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerReport {
    /// The id the coordinator assigned (the most recent one, if the
    /// worker reconnected).
    pub worker: u64,
    /// Shards computed and sent (empty claims are normal when workers
    /// outnumber shards).
    pub computed: u64,
    /// Successful re-handshakes after losing the coordinator.
    pub reconnects: u64,
}

/// Why a connect-plus-handshake attempt did not produce a session.
enum DialError {
    /// Transient: refused, reset, timed out — worth backing off and
    /// retrying.
    Retry(String),
    /// The coordinator answered and said no (version mismatch, bad
    /// job): retrying cannot help.
    Fatal(String),
}

/// One established session: the split socket plus the identity the
/// coordinator assigned.
struct Session {
    writer: Arc<Mutex<TcpStream>>,
    reader: BufReader<TcpStream>,
    worker: u64,
    job: JobSpec,
}

/// Connect to `addr`, handshake, and serve shard assignments until the
/// coordinator says `Finished`.
///
/// `build` turns the received [`JobSpec`] into the compute closure
/// `(shard, range) -> payload`; returning `Err` (e.g. the worker derives
/// a different user total than the coordinator pinned) aborts before
/// claiming anything. The payload is opaque here — the binary layer
/// snapshot-encodes the streaming accumulator. `build` runs once, on
/// the first successful handshake; reconnect sessions must present the
/// identical job or the worker refuses them.
pub fn run_worker<B, C>(addr: &str, opts: &WorkerOptions, build: B) -> Result<WorkerReport, String>
where
    B: FnOnce(&JobSpec) -> Result<C, String>,
    C: FnMut(u64, Range<u64>) -> String,
{
    let backoff = Backoff::new(opts.backoff_base, opts.backoff_cap, opts.backoff_seed);
    let mut build = Some(build);
    let mut compute: Option<C> = None;
    let mut accepted_job: Option<JobSpec> = None;
    let mut report = WorkerReport::default();
    let mut assignments = 0u64;
    // The one Result that may be in flight: set before each send,
    // cleared when any directive arrives (strict request–response makes
    // a received directive an acknowledgement of our last send).
    let mut pending: Option<(u64, String)> = None;
    let mut failures = 0u64;
    let mut ever_connected = false;

    'sessions: loop {
        let mut session = loop {
            match dial(addr, opts, report.worker) {
                Ok(session) => break session,
                Err(DialError::Fatal(e)) => return Err(e),
                Err(DialError::Retry(e)) => {
                    if failures >= opts.max_reconnects {
                        // Out of retries. If we ever held a session the
                        // likeliest story is the job finished and the
                        // coordinator exited — report what we did. If we
                        // never reached it at all, that is an error.
                        return if ever_connected { Ok(report) } else { Err(e) };
                    }
                    let delay = backoff.delay(failures);
                    failures += 1;
                    std::thread::sleep(delay);
                }
            }
        };
        if ever_connected {
            report.reconnects += 1;
        }
        ever_connected = true;
        failures = 0;
        report.worker = session.worker;

        match &accepted_job {
            None => {
                let builder = build.take().expect("build consumed once");
                compute = Some(builder(&session.job)?);
                accepted_job = Some(session.job.clone());
            }
            Some(previous) if *previous == session.job => {}
            Some(_) => {
                return Err(format!(
                    "coordinator at {addr} changed jobs across a reconnect; refusing to mix shards"
                ));
            }
        }
        let compute = compute.as_mut().expect("compute built");
        let worker = session.worker;

        // Re-deliver the possibly-unacknowledged Result before asking
        // for new work; the coordinator merges it or drops it as a
        // benign duplicate, and either way answers with a directive.
        let opening = match &pending {
            Some((shard, payload)) => Message::Result {
                worker,
                shard: *shard,
                payload: payload.clone(),
            },
            None => Message::Ready { worker },
        };
        match send(&session.writer, &opening) {
            Ok(()) => {}
            Err(WireError::Disconnected) => continue 'sessions,
            Err(WireError::Fatal(e)) => return Err(e),
        }

        loop {
            let directive = match recv(&mut session.reader) {
                Ok(directive) => directive,
                Err(WireError::Disconnected) => continue 'sessions,
                Err(WireError::Fatal(e)) => return Err(e),
            };
            // Any directive proves the coordinator processed our last
            // send — the in-flight Result (if any) has landed.
            pending = None;
            match directive {
                Message::Assign { shard, start, end } => {
                    assignments += 1;
                    if opts.die_on_assign == Some(assignments) {
                        // Simulates a machine loss mid-shard: the lease is
                        // held, the work incomplete, the socket dies with us.
                        std::process::abort();
                    }
                    let payload = {
                        let _beat =
                            Heartbeater::start(&session.writer, worker, shard, opts.heartbeat);
                        compute(shard, start..end)
                    };
                    report.computed += 1;
                    pending = Some((shard, payload.clone()));
                    match send(
                        &session.writer,
                        &Message::Result {
                            worker,
                            shard,
                            payload,
                        },
                    ) {
                        Ok(()) => {}
                        Err(WireError::Disconnected) => continue 'sessions,
                        Err(WireError::Fatal(e)) => return Err(e),
                    }
                }
                // A coordinator that holds requests sends `poll_ms: 0`
                // when a hold runs out; an older one names a pause.
                Message::Wait { poll_ms } => {
                    std::thread::sleep(Duration::from_millis(poll_ms.min(1_000)));
                    match send(&session.writer, &Message::Ready { worker }) {
                        Ok(()) => {}
                        Err(WireError::Disconnected) => continue 'sessions,
                        Err(WireError::Fatal(e)) => return Err(e),
                    }
                }
                Message::Finished => return Ok(report),
                Message::Reject { reason } => {
                    return Err(format!("coordinator rejected worker {worker}: {reason}"))
                }
                other => return Err(format!("unexpected directive {other:?}")),
            }
        }
    }
}

/// One connect-plus-handshake attempt. `prior` is the worker id held
/// before a reconnect (0 on the first attempt).
fn dial(addr: &str, opts: &WorkerOptions, prior: u64) -> Result<Session, DialError> {
    let stream =
        TcpStream::connect(addr).map_err(|e| DialError::Retry(format!("connect {addr}: {e}")))?;
    let _ = stream.set_nodelay(true);
    if let Some(deadline) = opts.io_deadline.filter(|d| *d > Duration::ZERO) {
        let _ = stream.set_read_timeout(Some(deadline));
        let _ = stream.set_write_timeout(Some(deadline));
    }
    let writer = Arc::new(Mutex::new(
        stream
            .try_clone()
            .map_err(|e| DialError::Fatal(format!("clone socket: {e}")))?,
    ));
    let mut reader = BufReader::new(stream);
    let hello = Message::Hello {
        protocol: PROTOCOL_VERSION,
        prior,
    };
    match send(&writer, &hello) {
        Ok(()) => {}
        Err(WireError::Disconnected) => {
            return Err(DialError::Retry(format!("{addr} closed during handshake")))
        }
        Err(WireError::Fatal(e)) => return Err(DialError::Retry(e)),
    }
    match recv(&mut reader) {
        Ok(Message::Welcome { worker, job }) => Ok(Session {
            writer,
            reader,
            worker,
            job,
        }),
        Ok(Message::Reject { reason }) => Err(DialError::Fatal(format!(
            "coordinator rejected us: {reason}"
        ))),
        Ok(other) => Err(DialError::Fatal(format!("expected Welcome, got {other:?}"))),
        Err(WireError::Disconnected) => {
            Err(DialError::Retry(format!("{addr} closed during handshake")))
        }
        Err(WireError::Fatal(e)) => Err(DialError::Retry(e)),
    }
}

/// A wire failure, split by whether the peer simply went away.
enum WireError {
    /// The socket closed, reset, or sat past its deadline — the peer is
    /// gone (or as good as gone); reconnect, don't abort.
    Disconnected,
    /// Anything else — I/O errors, digest mismatches, undecodable frames.
    Fatal(String),
}

fn disconnectish(err: &std::io::Error) -> bool {
    is_timeout(err)
        || matches!(
            err.kind(),
            std::io::ErrorKind::BrokenPipe
                | std::io::ErrorKind::ConnectionReset
                | std::io::ErrorKind::ConnectionAborted
                | std::io::ErrorKind::UnexpectedEof
        )
}

fn send(writer: &Mutex<TcpStream>, message: &Message) -> Result<(), WireError> {
    // A panic while holding the lock (a dying heartbeat thread) poisons
    // the mutex, but the socket itself is still fine: recover the guard
    // instead of propagating the panic and silently killing heartbeats.
    let mut stream = match writer.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    match write_frame(&mut *stream, &message.encode()) {
        Ok(()) => Ok(()),
        Err(e) if disconnectish(&e) => Err(WireError::Disconnected),
        Err(e) => Err(WireError::Fatal(format!("send: {e}"))),
    }
}

fn recv(reader: &mut BufReader<TcpStream>) -> Result<Message, WireError> {
    let text = match read_frame(reader) {
        Ok(text) => text,
        Err(FrameError::Closed) => return Err(WireError::Disconnected),
        Err(FrameError::Io(e)) if disconnectish(&e) => return Err(WireError::Disconnected),
        // A truncated frame is the peer dying *mid-frame* — exactly what
        // a coordinator killed between header and body produces. That is
        // a disconnect to survive, not a protocol violation to die over.
        Err(FrameError::Rejected(reason)) if reason.starts_with("truncated") => {
            return Err(WireError::Disconnected)
        }
        Err(e) => return Err(WireError::Fatal(format!("receive: {e}"))),
    };
    Message::decode(&text).map_err(WireError::Fatal)
}

/// Sends `Heartbeat` every `interval` until dropped. The beating thread
/// waits on a channel, so dropping wakes it and joins it at once
/// instead of after its next beat.
struct Heartbeater {
    stop: mpsc::Sender<()>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Heartbeater {
    fn start(
        writer: &Arc<Mutex<TcpStream>>,
        worker: u64,
        shard: u64,
        interval: Duration,
    ) -> Heartbeater {
        let (stop, stopped) = mpsc::channel();
        let writer = Arc::clone(writer);
        let handle = std::thread::spawn(move || {
            while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
                // A send failure here means the coordinator is gone;
                // the main thread will see it on its next send/recv,
                // so just stop beating.
                if send(&writer, &Message::Heartbeat { worker, shard }).is_err() {
                    return;
                }
            }
        });
        Heartbeater {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for Heartbeater {
    fn drop(&mut self) {
        let _ = self.stop.send(());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;
    use std::time::Instant;

    /// Satellite regression: a panic while holding the writer lock used
    /// to poison the mutex and make every later `send` panic via
    /// `.expect("worker socket")` — silently killing the heartbeat
    /// thread and stranding a healthy lease. `send` must recover the
    /// guard and keep the socket usable.
    #[test]
    fn send_survives_a_poisoned_writer_mutex() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let sink = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut buf = [0u8; 1024];
            let mut total = 0usize;
            while let Ok(n) = stream.read(&mut buf) {
                if n == 0 {
                    break;
                }
                total += n;
            }
            total
        });

        let stream = TcpStream::connect(addr).expect("connect");
        let writer = Arc::new(Mutex::new(stream));
        let poisoner = Arc::clone(&writer);
        let panicked = std::thread::spawn(move || {
            let _guard = poisoner.lock().expect("first lock is clean");
            panic!("poison the writer mutex");
        })
        .join();
        assert!(panicked.is_err(), "the poisoning thread must panic");
        assert!(
            writer.lock().is_err(),
            "the mutex must actually be poisoned"
        );

        let beat = Message::Heartbeat {
            worker: 1,
            shard: 0,
        };
        assert!(
            send(&writer, &beat).is_ok(),
            "send must recover the poisoned guard and deliver the frame"
        );
        drop(writer);
        let received = sink.join().expect("sink thread");
        assert!(received > 0, "the frame must have reached the socket");
    }

    /// A socket pair: the write side as the worker's shared writer, the
    /// read side as what the coordinator would receive.
    fn writer_and_sink() -> (Arc<Mutex<TcpStream>>, BufReader<TcpStream>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let stream = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (sink, _) = listener.accept().expect("accept");
        // A missing frame fails the test instead of hanging it.
        sink.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        (Arc::new(Mutex::new(stream)), BufReader::new(sink))
    }

    /// Dropping a heartbeater wakes its thread instead of waiting out a
    /// tick, and a running one beats on its interval.
    #[test]
    fn heartbeater_stops_at_once_and_beats_on_time() {
        let (writer, mut sink) = writer_and_sink();
        let within = |limit_ms: u64, took: Duration, what: &str| {
            assert!(
                took < Duration::from_millis(limit_ms),
                "{what} took {took:?}"
            );
        };

        let started = Instant::now();
        drop(Heartbeater::start(&writer, 1, 0, Duration::from_secs(5)));
        within(10, started.elapsed(), "starting and dropping");

        let running = Heartbeater::start(&writer, 1, 3, Duration::from_millis(30));
        let started = Instant::now();
        for _ in 0..2 {
            let text = read_frame(&mut sink).expect("a heartbeat frame");
            let message = Message::decode(&text).expect("decode");
            assert_eq!(
                message,
                Message::Heartbeat {
                    worker: 1,
                    shard: 3
                }
            );
        }
        within(100, started.elapsed(), "two beats at a 30 ms interval");

        // The thread has just sent a beat and is waiting for the next.
        let started = Instant::now();
        drop(running);
        within(10, started.elapsed(), "dropping between beats");
    }
}
