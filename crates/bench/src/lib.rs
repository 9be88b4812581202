//! # bb-bench — the reproduce harness and its shared fixtures.
//!
//! The `reproduce` binary runs the paper's pipeline as a batch run, a
//! served gateway, or a federated coordinator and its workers. The binary
//! only parses flags, dispatches and generates; every run is a library
//! call here: [`publish`] turns a generated panel or a merged streaming
//! fold into the run's artifact set and writes it, and [`federation`]
//! runs the coordinator and the workers. The ablation benches operate on
//! one generated world; [`bench_dataset`] centralises it so every
//! ablation sees exactly the same data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bb_dataset::{Dataset, World, WorldConfig};
use std::sync::OnceLock;

pub mod federation;
pub mod publish;

/// The master seed of the reproduction: every published number in
/// `EXPERIMENTS.md` comes from this seed.
pub const REPRO_SEED: u64 = 20141105; // IMC 2014 opened on November 5.

/// The shared bench dataset (generated once per process): a mid-sized
/// world, large enough that the analysis stages are representative and
/// small enough that the fixture builds in seconds.
pub fn bench_dataset() -> &'static Dataset {
    static DS: OnceLock<Dataset> = OnceLock::new();
    DS.get_or_init(|| {
        let mut cfg = WorldConfig::small(REPRO_SEED);
        cfg.user_scale = 4.0;
        cfg.days = 3;
        cfg.fcc_users = 300;
        World::new(cfg).generate()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_dataset_is_populated() {
        let ds = bench_dataset();
        assert!(ds.records.len() > 500, "{} records", ds.records.len());
        assert_eq!(ds.survey.len(), 99);
        assert!(!ds.upgrades.is_empty());
    }
}
