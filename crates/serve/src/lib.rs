//! # bb-serve — the always-on query gateway
//!
//! Turns the batch `reproduce` pipeline into a service: a zero-dependency
//! HTTP/1.1 server (std `TcpListener` + a small thread pool, hand-rolled
//! request parsing — the same no-external-deps discipline as `bb-trace`)
//! in front of an in-process job scheduler over the checkpointed
//! streaming engine.
//!
//! The load-bearing guarantee is inherited from the engine: a simulation
//! result is a pure function of `(seed, users, days, fcc, chaos)`, so the
//! gateway can cache completed runs keyed by the checkpoint-manifest
//! parameter digest and serve repeated queries **byte-identically** to
//! what the batch CLI writes for the same request — under any thread
//! plan, from cache or cold. The pieces:
//!
//! * [`http`] — request parsing (head capped at 16 KiB), response
//!   writing, per-connection read and write deadlines, thread pool;
//! * [`sse`] — a replayable `text/event-stream` feed per job;
//! * [`cache`] — the manifest-keyed result cache (content-digest
//!   manifest written last; corruption degrades to recompute, never to
//!   a wrong answer);
//! * [`scheduler`] — the job queue and worker, and the small hot set of
//!   recent artifact sets (older ones are read back from the cache);
//! * [`runner`] — one job = one checkpointed streaming run, assembled
//!   from the exact code paths the batch CLI uses;
//! * [`telemetry`] — the live instrumentation surface: per-route RED
//!   metrics, gauges, job/cache series, the JSONL access log. Rendered
//!   at `/metrics.prom` (Prometheus) and `/debug/telemetry` (JSON);
//!   strictly separate from the byte-identical artifacts;
//! * [`gateway`] — the routes: `/jobs`, `/jobs/{id}/events` (SSE),
//!   `/metrics`, `/metrics.prom`, `/debug/telemetry`, `/ledger`,
//!   `/exhibits/{id}`, `/countries/{cc}`, `/survival`, `/healthz`,
//!   `/version`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod gateway;
pub mod http;
pub mod runner;
pub mod scheduler;
pub mod sse;
pub mod telemetry;

pub use cache::ResultCache;
pub use gateway::{Server, ServerConfig};
pub use scheduler::{JobState, JobView, Scheduler};
pub use telemetry::ServeTelemetry;
