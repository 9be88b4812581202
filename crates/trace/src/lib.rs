//! `bb-trace` — zero-dependency structured observability.
//!
//! The collection pipeline of the paper (Bischof, Bustamante, Stanojevic,
//! IMC 2014) survives on recovery heuristics: 32-bit UPnP counters wrap,
//! gateways reset on reboot, polls jitter and drop. Those paths used to
//! fire silently. This crate makes them observable without giving up the
//! workspace's core guarantee — bit-identical output for any
//! `(shards, threads)` plan — by splitting observability into two halves:
//!
//! - [`Registry`]: named counters + log₂ value histograms for **data
//!   events** (wraps, resets, clamps, drops, merges). Pure functions of
//!   `(seed, user index)`, merged shard-order-deterministically like the
//!   engine's sketches, serialised to byte-stable JSON (`--metrics`).
//! - [`EventLog`]: an ordered provenance ledger for **analysis events**
//!   (exhibit inputs, matching audits, sign-test parameters). Like the
//!   registry it is a pure function of the dataset, serialised to
//!   byte-stable JSONL (`--ledger`).
//! - [`Timings`]: named wall-clock spans for the **runtime** side (phase
//!   durations), as a hierarchical span tree exportable to Chrome
//!   trace-event JSON (`--chrome-trace`). Plan- and machine-dependent by
//!   nature, written to a separate sidecar and never mixed into the
//!   deterministic registry or ledger.
//! - [`Telemetry`]: the **live service** half — concurrent atomic
//!   counters, gauges, log₂ latency histograms and per-second ring-buffer
//!   time series for the gateway, rendered as Prometheus text exposition
//!   or a JSON snapshot. Wall-clock-dependent by definition and therefore
//!   never written into any byte-identical artifact.
//!
//! [`Log2Histogram`] lives here (re-exported by `bb-engine` for
//! compatibility) because both halves and the engine's sketch layer
//! share its exact-integer-count log₂ buckets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod hist;
pub mod intern;
pub mod registry;
pub mod span;
pub mod telemetry;

pub use event::{Event, EventBuilder, EventLog, EventTail, Value};
pub use hist::Log2Histogram;
pub use intern::intern;
pub use registry::Registry;
pub use span::Timings;
pub use telemetry::{
    AtomicLog2Histogram, Clock, Counter, FakeClock, Gauge, MetricId, SystemClock, Telemetry,
    TimeSeries,
};
