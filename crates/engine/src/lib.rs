//! # bb-engine — sharded deterministic execution with mergeable sketches.
//!
//! The seed pipeline simulated every user on one thread, drawing from a
//! single sequential RNG stream; that caps worlds at tens of thousands of
//! users and welds the output to one particular iteration order. This crate
//! provides the execution substrate that removes both limits while keeping
//! the repository's core guarantee — *bit-identical output for a given
//! world seed* — for **any** shard count and **any** thread count:
//!
//! * [`rng`] — counter-mode stream derivation: every user (or any other
//!   work item) gets an independent ChaCha8 stream keyed by
//!   `(world_seed, stream_id, item_index)`, so a user's draws no longer
//!   depend on who was simulated before them.
//! * [`shard`] — [`shard::run_sharded`], the in-memory driver: partition
//!   `n` items into shards, execute shards on scoped worker threads
//!   (work-stealing via an atomic cursor; one thread runs inline), and
//!   fold the per-shard partial results **in shard order**, making the
//!   merged result independent of thread scheduling. It also returns a
//!   [`RunStats`] report of the scheduling side (per-shard wall time,
//!   steals, merge time) for `bb-trace`'s runtime sidecar.
//! * [`checkpoint`] — [`checkpoint::run_sharded_checkpointed`], the same
//!   shard loop with every computed shard made durable before it is
//!   folded, a resume that restores committed shards instead of
//!   recomputing them, and one [`ShardProgress`] observer.
//! * [`merge`] — the [`Mergeable`] fold contract the shard runner requires.
//! * Sketches: [`QuantileSketch`] (bounded relative error),
//!   [`EcdfSketch`], [`Log2Histogram`], [`ExactMoments`], and the
//!   deterministic [`BottomK`] reservoir. All are `Mergeable`; the count-
//!   and integer-based ones merge *exactly*, so exhibits computed from
//!   them are byte-identical however the population was partitioned.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod ecdf;
pub mod hist;
pub mod merge;
pub mod moments;
pub mod quantile;
pub mod reservoir;
pub mod rng;
pub mod shard;
pub mod snapshot;

pub use checkpoint::{
    atomic_write, run_sharded_checkpointed, CheckpointError, CheckpointParams, CheckpointReport,
    CheckpointSession, CheckpointStore, ShardProgress, FORMAT_VERSION,
};
pub use ecdf::EcdfSketch;
pub use hist::Log2Histogram;
pub use merge::Mergeable;
pub use moments::ExactMoments;
pub use quantile::QuantileSketch;
pub use reservoir::BottomK;
pub use rng::{splitmix64, stream_rng};
pub use shard::{run_sharded, RunStats, ShardPlan};
pub use snapshot::{fnv1a64, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
