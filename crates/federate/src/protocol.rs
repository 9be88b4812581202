//! The wire protocol: length-prefixed, digest-framed text messages.
//!
//! A frame is a 12-byte header — body length as a big-endian `u32`
//! followed by the FNV-1a-64 digest of the body as a big-endian `u64` —
//! and then the UTF-8 body. The body reuses the `bb_engine::snapshot`
//! text form (`!begin <Kind> v<N>` … `!end`), so every message shares
//! the checkpoint layer's exact-roundtrip encoding: counts as decimals,
//! doubles as 16-hex IEEE bits, strings escaped onto one line.
//!
//! Robustness rules, pinned by `tests/protocol.rs`:
//!
//! * The declared length is checked against [`MAX_FRAME_BYTES`] *before*
//!   any allocation — a forged 4 GiB header is rejected from the
//!   12 bytes alone, never buffered.
//! * Body bytes are read through a bounded `Read::take`, and the buffer
//!   grows only as bytes actually arrive.
//! * A digest mismatch, a non-UTF-8 body, a truncated frame, or an
//!   unparseable message are all *detected* ([`FrameError::Rejected`]),
//!   never panics; the peer that sent them is dropped and its leases
//!   requeued.

use bb_engine::snapshot::{fnv1a64, SnapshotReader, SnapshotWriter};
use std::io::{Read, Write};

/// Protocol revision; both ends must agree exactly.
///
/// v2 added [`Message::Hello`]'s `prior` field so a reconnecting worker
/// can declare the id it previously held and the coordinator can count
/// the reconnect instead of mistaking it for a brand-new peer.
pub const PROTOCOL_VERSION: u32 = 2;

/// Hard cap on a frame body. Large enough for any realistic shard
/// payload (a streaming-study snapshot is a few hundred KiB), small
/// enough that a forged length can never balloon memory.
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// Bytes in the frame header: `u32` length + `u64` body digest.
const HEADER_BYTES: usize = 12;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// Clean end of stream at a frame boundary (the peer hung up).
    Closed,
    /// Transport failure mid-stream.
    Io(std::io::Error),
    /// The peer sent bytes that violate the protocol: truncated frame,
    /// oversized declared length, digest mismatch, non-UTF-8 body.
    Rejected(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::Rejected(reason) => write!(f, "rejected frame: {reason}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Write one frame: header (length + FNV-1a-64 digest) then the body.
pub fn write_frame(w: &mut impl Write, body: &str) -> std::io::Result<()> {
    let bytes = body.as_bytes();
    if bytes.len() > MAX_FRAME_BYTES as usize {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("frame body of {} bytes exceeds the cap", bytes.len()),
        ));
    }
    let mut header = [0u8; HEADER_BYTES];
    header[..4].copy_from_slice(&(bytes.len() as u32).to_be_bytes());
    header[4..].copy_from_slice(&fnv1a64(bytes).to_be_bytes());
    w.write_all(&header)?;
    w.write_all(bytes)?;
    w.flush()
}

/// Read one frame, verifying length cap, digest, and UTF-8.
///
/// A clean EOF before the first header byte is [`FrameError::Closed`];
/// an EOF anywhere inside a frame is a *truncated frame* rejection.
pub fn read_frame(r: &mut impl Read) -> Result<String, FrameError> {
    let mut header = [0u8; HEADER_BYTES];
    let mut got = 0;
    while got < HEADER_BYTES {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Err(FrameError::Closed),
            Ok(0) => {
                return Err(FrameError::Rejected(format!(
                    "truncated header ({got} of {HEADER_BYTES} bytes)"
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(header[..4].try_into().expect("4 bytes"));
    let digest = u64::from_be_bytes(header[4..].try_into().expect("8 bytes"));
    if len == 0 {
        return Err(FrameError::Rejected("empty frame body".into()));
    }
    // The cap check precedes any allocation: a forged length is rejected
    // from the header alone.
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::Rejected(format!(
            "declared length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"
        )));
    }
    // `take` bounds the read; `read_to_end` grows the buffer only as
    // bytes arrive, so even a lying peer cannot force a large upfront
    // allocation.
    let mut body = Vec::with_capacity((len as usize).min(64 * 1024));
    let mut bounded = r.take(u64::from(len));
    match bounded.read_to_end(&mut body) {
        Ok(_) => {}
        Err(e) => return Err(FrameError::Io(e)),
    }
    if body.len() < len as usize {
        return Err(FrameError::Rejected(format!(
            "truncated body ({} of {len} bytes)",
            body.len()
        )));
    }
    if fnv1a64(&body) != digest {
        return Err(FrameError::Rejected("body digest mismatch".into()));
    }
    String::from_utf8(body).map_err(|_| FrameError::Rejected("body is not UTF-8".into()))
}

/// Everything a worker needs to rebuild the coordinator's world and
/// verify it landed on the same one. The chaos campaign travels as the
/// scenario name plus the severity's IEEE bits, so the worker's
/// `ChaosSpec` is bit-identical to the coordinator's.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// World seed.
    pub seed: u64,
    /// Requested (approximate) streamed user count — the `WorldConfig`
    /// input, not the derived exact total.
    pub users: u64,
    /// Observation window in days.
    pub days: u32,
    /// US-only FCC gateway cohort size.
    pub fcc_users: u64,
    /// Chaos scenario name, or `-` for clean collection.
    pub chaos_scenario: String,
    /// Chaos severity in `[0, 1]` (ignored when the scenario is `-`).
    pub chaos_severity: f64,
    /// Exact user total the coordinator derived; the worker must derive
    /// the same number or refuse the job.
    pub n_items: u64,
    /// Shard count the coordinator cut `0..n_items` into.
    pub shards: u64,
}

impl JobSpec {
    fn write(&self, w: &mut SnapshotWriter) {
        w.begin("FedJob", PROTOCOL_VERSION);
        w.u64("seed", self.seed);
        w.u64("users", self.users);
        w.u64("days", u64::from(self.days));
        w.u64("fcc", self.fcc_users);
        w.str("chaos", &self.chaos_scenario);
        w.f64("severity", self.chaos_severity);
        w.u64("n_items", self.n_items);
        w.u64("shards", self.shards);
        w.end();
    }

    fn read(r: &mut SnapshotReader<'_>) -> Result<Self, String> {
        let version = r.begin("FedJob").map_err(|e| e.to_string())?;
        if version != PROTOCOL_VERSION {
            return Err(format!("unsupported FedJob version v{version}"));
        }
        let job = JobSpec {
            seed: r.take_u64("seed").map_err(|e| e.to_string())?,
            users: r.take_u64("users").map_err(|e| e.to_string())?,
            days: u32::try_from(r.take_u64("days").map_err(|e| e.to_string())?)
                .map_err(|_| "days overflows u32".to_string())?,
            fcc_users: r.take_u64("fcc").map_err(|e| e.to_string())?,
            chaos_scenario: r.take_str("chaos").map_err(|e| e.to_string())?,
            chaos_severity: r.take_f64("severity").map_err(|e| e.to_string())?,
            n_items: r.take_u64("n_items").map_err(|e| e.to_string())?,
            shards: r.take_u64("shards").map_err(|e| e.to_string())?,
        };
        r.end().map_err(|e| e.to_string())?;
        Ok(job)
    }
}

/// One protocol message. The worker speaks request–response: every
/// `Ready` or `Result` it sends is answered by exactly one directive
/// (`Assign`, `Wait`, `Finished`, or `Reject`); `Heartbeat` is the one
/// one-way message, sent from a side thread while a shard computes.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// Worker → coordinator: handshake with protocol version.
    Hello {
        /// The worker's [`PROTOCOL_VERSION`]; must match exactly.
        protocol: u32,
        /// The worker id this peer held before a reconnect, or 0 for a
        /// fresh connection (assigned ids start at 1).
        prior: u64,
    },
    /// Coordinator → worker: handshake accepted; here is the job.
    Welcome {
        /// The id the coordinator assigned this worker.
        worker: u64,
        /// The job every shard belongs to.
        job: JobSpec,
    },
    /// Worker → coordinator: idle, give me a shard.
    Ready {
        /// The id from [`Message::Welcome`].
        worker: u64,
    },
    /// Coordinator → worker: compute users `start..end` as `shard`.
    Assign {
        /// Shard index in `0..job.shards` (the merge position).
        shard: u64,
        /// First user index of the range.
        start: u64,
        /// One past the last user index of the range.
        end: u64,
    },
    /// Coordinator → worker: the request was held for the coordinator's
    /// `poll_ms` and nothing became claimable; ask again.
    Wait {
        /// Suggested sleep before the next `Ready`, in milliseconds
        /// (0: the coordinator holds requests, so ask at once).
        poll_ms: u64,
    },
    /// Coordinator → worker: every shard is merged; disconnect.
    Finished,
    /// Worker → coordinator (one-way): still computing `shard`.
    Heartbeat {
        /// The id from [`Message::Welcome`].
        worker: u64,
        /// The shard whose lease this extends.
        shard: u64,
    },
    /// Worker → coordinator: the computed shard payload (a snapshot
    /// string; the coordinator validates it before merging).
    Result {
        /// The id from [`Message::Welcome`].
        worker: u64,
        /// Which shard the payload is.
        shard: u64,
        /// The shard's accumulator, snapshot-encoded.
        payload: String,
    },
    /// Coordinator → worker: the request was unacceptable; the
    /// connection is closed after this message.
    Reject {
        /// Human-readable cause, also counted in the federation report.
        reason: String,
    },
}

impl Message {
    /// Encode to the snapshot text form.
    pub fn encode(&self) -> String {
        let mut w = SnapshotWriter::new();
        match self {
            Message::Hello { protocol, prior } => {
                w.begin("FedHello", PROTOCOL_VERSION);
                w.u64("protocol", u64::from(*protocol));
                w.u64("prior", *prior);
                w.end();
            }
            Message::Welcome { worker, job } => {
                w.begin("FedWelcome", PROTOCOL_VERSION);
                w.u64("worker", *worker);
                job.write(&mut w);
                w.end();
            }
            Message::Ready { worker } => {
                w.begin("FedReady", PROTOCOL_VERSION);
                w.u64("worker", *worker);
                w.end();
            }
            Message::Assign { shard, start, end } => {
                w.begin("FedAssign", PROTOCOL_VERSION);
                w.u64("shard", *shard);
                w.u64("start", *start);
                w.u64("end", *end);
                w.end();
            }
            Message::Wait { poll_ms } => {
                w.begin("FedWait", PROTOCOL_VERSION);
                w.u64("poll_ms", *poll_ms);
                w.end();
            }
            Message::Finished => {
                w.begin("FedFinished", PROTOCOL_VERSION);
                w.end();
            }
            Message::Heartbeat { worker, shard } => {
                w.begin("FedHeartbeat", PROTOCOL_VERSION);
                w.u64("worker", *worker);
                w.u64("shard", *shard);
                w.end();
            }
            Message::Result {
                worker,
                shard,
                payload,
            } => {
                w.begin("FedResult", PROTOCOL_VERSION);
                w.u64("worker", *worker);
                w.u64("shard", *shard);
                w.str("payload", payload);
                w.end();
            }
            Message::Reject { reason } => {
                w.begin("FedReject", PROTOCOL_VERSION);
                w.str("reason", reason);
                w.end();
            }
        }
        w.finish()
    }

    /// Decode from the snapshot text form. Every malformed input is an
    /// `Err` naming the defect — never a panic.
    pub fn decode(text: &str) -> Result<Message, String> {
        let kind = text
            .lines()
            .next()
            .and_then(|line| line.strip_prefix("!begin "))
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or("missing !begin header")?
            .to_string();
        let mut r = SnapshotReader::new(text);
        let version = r.begin(&kind).map_err(|e| e.to_string())?;
        if version != PROTOCOL_VERSION {
            return Err(format!("unsupported {kind} version v{version}"));
        }
        let err = |e: bb_engine::SnapshotError| e.to_string();
        let message = match kind.as_str() {
            "FedHello" => Message::Hello {
                protocol: u32::try_from(r.take_u64("protocol").map_err(err)?)
                    .map_err(|_| "protocol overflows u32".to_string())?,
                prior: r.take_u64("prior").map_err(err)?,
            },
            "FedWelcome" => Message::Welcome {
                worker: r.take_u64("worker").map_err(err)?,
                job: JobSpec::read(&mut r)?,
            },
            "FedReady" => Message::Ready {
                worker: r.take_u64("worker").map_err(err)?,
            },
            "FedAssign" => Message::Assign {
                shard: r.take_u64("shard").map_err(err)?,
                start: r.take_u64("start").map_err(err)?,
                end: r.take_u64("end").map_err(err)?,
            },
            "FedWait" => Message::Wait {
                poll_ms: r.take_u64("poll_ms").map_err(err)?,
            },
            "FedFinished" => Message::Finished,
            "FedHeartbeat" => Message::Heartbeat {
                worker: r.take_u64("worker").map_err(err)?,
                shard: r.take_u64("shard").map_err(err)?,
            },
            "FedResult" => Message::Result {
                worker: r.take_u64("worker").map_err(err)?,
                shard: r.take_u64("shard").map_err(err)?,
                payload: r.take_str("payload").map_err(err)?,
            },
            "FedReject" => Message::Reject {
                reason: r.take_str("reason").map_err(err)?,
            },
            other => return Err(format!("unknown message kind {other:?}")),
        };
        r.end().map_err(err)?;
        r.expect_eof().map_err(err)?;
        Ok(message)
    }
}

/// True when an I/O error is a socket deadline firing rather than a real
/// transport failure. `SO_RCVTIMEO`/`SO_SNDTIMEO` surface as
/// `WouldBlock` on Unix and `TimedOut` on other platforms; both mean the
/// peer was silent past the configured deadline.
pub fn is_timeout(err: &std::io::Error) -> bool {
    matches!(
        err.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample_job() -> JobSpec {
        JobSpec {
            seed: 20141105,
            users: 1000,
            days: 7,
            fcc_users: 600,
            chaos_scenario: "burst-outage".into(),
            chaos_severity: 0.25,
            n_items: 1042,
            shards: 8,
        }
    }

    #[test]
    fn every_message_roundtrips() {
        let messages = vec![
            Message::Hello {
                protocol: 2,
                prior: 7,
            },
            Message::Welcome {
                worker: 3,
                job: sample_job(),
            },
            Message::Ready { worker: 3 },
            Message::Assign {
                shard: 2,
                start: 100,
                end: 250,
            },
            Message::Wait { poll_ms: 200 },
            Message::Finished,
            Message::Heartbeat {
                worker: 3,
                shard: 2,
            },
            Message::Result {
                worker: 3,
                shard: 2,
                payload: "!begin Thing v1\nline a\n!end\n".into(),
            },
            Message::Reject {
                reason: "multi\nline\nreason".into(),
            },
        ];
        for message in messages {
            let decoded = Message::decode(&message.encode()).expect("decode");
            assert_eq!(decoded, message);
        }
    }

    #[test]
    fn severity_roundtrips_bit_exactly() {
        let awkward = f64::from_bits(0.1f64.to_bits() + 1);
        let mut job = sample_job();
        job.chaos_severity = awkward;
        let encoded = Message::Welcome { worker: 0, job }.encode();
        let Message::Welcome { job: back, .. } = Message::decode(&encoded).expect("decode") else {
            panic!("wrong kind");
        };
        assert_eq!(back.chaos_severity.to_bits(), awkward.to_bits());
    }

    #[test]
    fn frame_roundtrips() {
        let body = Message::Ready { worker: 9 }.encode();
        let mut buf = Vec::new();
        write_frame(&mut buf, &body).expect("write");
        let back = read_frame(&mut Cursor::new(&buf)).expect("read");
        assert_eq!(back, body);
    }

    #[test]
    fn clean_eof_is_closed_not_rejected() {
        let empty: &[u8] = &[];
        assert!(matches!(
            read_frame(&mut Cursor::new(empty)),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn truncated_header_is_rejected() {
        let bytes = [0u8; 5];
        assert!(matches!(
            read_frame(&mut Cursor::new(&bytes[..])),
            Err(FrameError::Rejected(_))
        ));
    }

    #[test]
    fn truncated_body_is_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello frame").expect("write");
        buf.truncate(buf.len() - 3);
        assert!(matches!(
            read_frame(&mut Cursor::new(&buf)),
            Err(FrameError::Rejected(_))
        ));
    }

    #[test]
    fn oversized_declared_length_is_rejected_from_the_header() {
        // A 12-byte header declaring u32::MAX bytes with no body at all:
        // the cap check must fire without waiting for (or allocating) the
        // declared body.
        let mut header = [0u8; 12];
        header[..4].copy_from_slice(&u32::MAX.to_be_bytes());
        let err = read_frame(&mut Cursor::new(&header[..])).expect_err("rejected");
        match err {
            FrameError::Rejected(reason) => assert!(reason.contains("cap"), "{reason}"),
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn bit_flip_fails_the_digest() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Message::Finished.encode()).expect("write");
        let last = buf.len() - 1;
        buf[last] ^= 0x40;
        assert!(matches!(
            read_frame(&mut Cursor::new(&buf)),
            Err(FrameError::Rejected(_))
        ));
    }

    #[test]
    fn decode_rejects_garbage_without_panicking() {
        for text in [
            "",
            "!begin",
            "!begin Fed",
            "!begin FedReady v9\n!end\n",
            "x",
        ] {
            assert!(Message::decode(text).is_err(), "{text:?}");
        }
    }
}
