//! The engine's headline guarantee, end to end: however the population is
//! sharded and however many worker threads execute the shards, every
//! exhibit the pipeline writes is **byte-identical** — the serialised JSON
//! of a 1-shard/1-thread run equals that of an 8-shard/4-thread run.

use needwant::dataset::{World, WorldConfig};
use needwant::engine::ShardPlan;
use needwant::report::json;
use needwant::study::{sec2, sec3, StreamStudy};

fn small_world(seed: u64) -> World {
    let mut cfg = WorldConfig::small(seed);
    cfg.user_scale = 1.0;
    cfg.days = 1;
    cfg.fcc_users = 40;
    World::with_countries(cfg, &["US", "JP", "BW", "SA", "IN"])
}

const SERIAL: ShardPlan = ShardPlan {
    shards: 1,
    threads: 1,
};
const PARALLEL: ShardPlan = ShardPlan {
    shards: 8,
    threads: 4,
};

#[test]
fn materialised_exhibits_are_byte_identical_across_plans() {
    let world = small_world(31);
    let serial = world.generate_with_traced(SERIAL).0;
    let parallel = world.generate_with_traced(PARALLEL).0;

    let (fig1a_s, fig1b_s, fig1c_s, _) = sec2::figure1(&serial, &mut bb_trace::EventLog::new());
    let (fig1a_p, fig1b_p, fig1c_p, _) = sec2::figure1(&parallel, &mut bb_trace::EventLog::new());
    for (s, p) in [(fig1a_s, fig1a_p), (fig1b_s, fig1b_p), (fig1c_s, fig1c_p)] {
        assert_eq!(
            serde_json::to_string_pretty(&json::cdf_to_json(&s)).unwrap(),
            serde_json::to_string_pretty(&json::cdf_to_json(&p)).unwrap(),
            "{} differs between shard plans",
            s.id
        );
    }
    for (s, p) in sec3::figure2(&serial, &mut bb_trace::EventLog::new())
        .iter()
        .zip(&sec3::figure2(&parallel, &mut bb_trace::EventLog::new()))
    {
        assert_eq!(
            serde_json::to_string_pretty(&json::binned_to_json(s)).unwrap(),
            serde_json::to_string_pretty(&json::binned_to_json(p)).unwrap(),
            "{} differs between shard plans",
            s.id
        );
    }
}

#[test]
fn streamed_exhibits_are_byte_identical_across_plans() {
    let world = small_world(32);
    let fold = |plan| {
        let (_, study, _, _) =
            world.fold_users_traced(plan, StreamStudy::new, |s: &mut StreamStudy, r, u| {
                s.absorb(r, u)
            });
        study
    };
    let serial = fold(SERIAL);
    let parallel = fold(PARALLEL);
    assert_eq!(serial.users, parallel.users);

    for (s, p) in serial.figure1().iter().zip(parallel.figure1().iter()) {
        assert_eq!(
            serde_json::to_string_pretty(&json::cdf_to_json(s)).unwrap(),
            serde_json::to_string_pretty(&json::cdf_to_json(p)).unwrap(),
            "{} differs between shard plans",
            s.id
        );
    }
    for (s, p) in serial.figure2().iter().zip(parallel.figure2().iter()) {
        assert_eq!(
            serde_json::to_string_pretty(&json::binned_to_json(s)).unwrap(),
            serde_json::to_string_pretty(&json::binned_to_json(p)).unwrap(),
            "{} differs between shard plans",
            s.id
        );
    }
    for (s, p) in serial.figure7().iter().zip(parallel.figure7().iter()) {
        assert_eq!(
            serde_json::to_string_pretty(&json::cdf_to_json(s)).unwrap(),
            serde_json::to_string_pretty(&json::cdf_to_json(p)).unwrap(),
            "{} differs between shard plans",
            s.id
        );
    }
}

#[test]
fn provenance_ledgers_are_byte_identical_across_plans() {
    // The ledger only records functions of the dataset (input counts,
    // matching audits, sign-test inputs), and the dataset itself is
    // plan-invariant — so the serialised JSONL must be byte-identical
    // however generation was sharded. This is the `--ledger` guarantee,
    // pinned at the library layer.
    let world = small_world(35);
    let serial = world.generate_with_traced(SERIAL).0;
    let parallel = world.generate_with_traced(PARALLEL).0;
    let run = |ds: &needwant::dataset::Dataset| {
        let mut ledger = bb_trace::EventLog::new();
        needwant::study::StudyReport::run_with_ledger(ds, &world.profiles, 10, &mut ledger);
        ledger.to_jsonl()
    };
    let serial_jsonl = run(&serial);
    // Not vacuous: the experiments actually audited something.
    assert!(serial_jsonl.contains("\"event\": \"match_audit\""));
    assert!(serial_jsonl.contains("\"event\": \"sign_test\""));
    assert!(serial_jsonl.contains("\"event\": \"exhibit\""));
    assert_eq!(
        serial_jsonl,
        run(&parallel),
        "provenance ledger differs between shard plans"
    );
}

#[test]
fn metrics_registries_are_byte_identical_across_plans() {
    // The bb-trace registry only records data events (wraps, resets,
    // stale drops, observation counts) — pure functions of the seed — so
    // its serialised JSON must be byte-identical for every shard/thread
    // plan and for both the materialised and the streaming paths.
    let world = small_world(34);
    let (_, serial_reg, serial_stats) = world.generate_with_traced(SERIAL);
    let (_, parallel_reg, parallel_stats) = world.generate_with_traced(PARALLEL);
    let serial_json = serial_reg.to_json();
    assert_eq!(
        serial_json,
        parallel_reg.to_json(),
        "registry JSON differs between shard plans"
    );

    // Spot-check the counters are actually populated, not vacuously equal.
    assert!(serial_reg.counter("dataset.users.observed") > 0);
    assert!(serial_reg.counter("netsim.collect.polls") > 0);
    assert!(serial_reg.histogram("netsim.collect.gap_slots").is_some());

    // Scheduling observables are plan-dependent by design and live outside
    // the invariance guarantee — but the work accounting must agree.
    assert_eq!(serial_stats.items, parallel_stats.items);
    assert_eq!(serial_stats.shards, 1);
    assert_eq!(parallel_stats.shards, 8);

    // The streaming fold accumulates the identical registry.
    let (_, _, stream_reg, _) = world.fold_users_traced(
        PARALLEL,
        needwant::study::StreamStudy::new,
        |s: &mut needwant::study::StreamStudy, r, u| s.absorb(r, u),
    );
    assert_eq!(
        serial_json,
        stream_reg.to_json(),
        "streaming fold registry differs from materialised registry"
    );
}

#[test]
fn streamed_study_matches_materialised_dataset_counts() {
    let world = small_world(33);
    let dataset = world.generate();
    let (_, study, _, _) =
        world.fold_users_traced(PARALLEL, StreamStudy::new, |s: &mut StreamStudy, r, u| {
            s.absorb(r, u)
        });
    assert_eq!(study.users as usize, dataset.records.len());
    assert_eq!(study.movers as usize, dataset.upgrades.len());
}
