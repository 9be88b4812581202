//! # bb-federate — multi-process shard federation.
//!
//! The engine's shard fold (`bb_engine::shard`) already guarantees that
//! per-shard partials merged **in shard order** are byte-identical for
//! any plan; the checkpoint layer (`bb_engine::snapshot`) already gives
//! every accumulator an exact text encoding. This crate adds the last
//! step to horizontal scale: moving those encoded partials between
//! *processes* over a zero-dependency TCP protocol, so a world of 100M+
//! users can be folded by a fleet of workers and still produce the same
//! bytes as one process.
//!
//! * [`protocol`] — length-prefixed frames (u32 length + FNV-1a-64
//!   digest, both checked before any allocation) around
//!   snapshot-text-encoded messages.
//! * [`coordinator`] — the shard lease state machine: pending → leased
//!   (deadline + heartbeat) → merged, with every failure path landing
//!   back in pending. Telemetry (reassignment counters, per-worker
//!   gauges, round-trip histograms) registers on a `bb_trace::Telemetry`.
//! * [`worker`] — the claim loop: `Hello` → `Welcome(job)` →
//!   `Ready`/`Result` ↔ `Assign`/`Wait`/`Finished`. The coordinator
//!   holds a request that finds nothing to claim until a shard requeues
//!   or the job ends, so an idle worker blocks on its answer and exits
//!   on `Finished` the moment the last shard merges. A heartbeat side
//!   thread runs while a shard computes and stops the instant the shard
//!   is done; a deterministic backoff-reconnect loop takes over when
//!   the coordinator goes away.
//! * [`backoff`] — the capped-exponential, seeded-jitter schedule that
//!   reconnect loop follows: a pure function of `(seed, attempt)`, so
//!   tests replay it exactly.
//! * [`chaosnet`] — a deterministic in-process TCP chaos proxy
//!   (connection cuts, stalls past the deadline, delayed delivery) that
//!   slots between workers and coordinator in tests.
//!
//! The crate is payload-agnostic: payloads are opaque strings validated
//! by a caller-supplied hook. `bb-bench` layers the streaming study on
//! top and pins byte-identity against single-process runs.
//!
//! Survivability model (DESIGN.md §16): the coordinator persists every
//! merged payload through `bb_engine`'s checkpoint store
//! ([`Coordinator::run_with`] + [`Coordinator::preload`]), so *any*
//! process — worker or coordinator — may die and the federation still
//! converges on the same bytes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
pub mod chaosnet;
pub mod coordinator;
pub mod protocol;
pub mod worker;

pub use backoff::Backoff;
pub use chaosnet::{ChaosPlan, ChaosProxy, ChaosStats, Fault};
pub use coordinator::{Coordinator, CoordinatorConfig, FederationReport};
pub use protocol::{
    is_timeout, read_frame, write_frame, FrameError, JobSpec, Message, MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
};
pub use worker::{run_worker, WorkerOptions, WorkerReport};
