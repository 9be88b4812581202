//! Metamorphic corruption battery for the checkpoint store.
//!
//! The contract under test: whatever happens to the bytes on disk —
//! truncation, bit flips, deleted files, forged versions, stale
//! parameters — a resumed run must (a) detect the damage, (b) count a
//! rejection and fall back to recomputation for exactly the damaged
//! state, and (c) produce a result identical to a cold run. Corruption
//! may cost time, never correctness, and must never panic.

use bb_engine::{
    fnv1a64, run_sharded_checkpointed, CheckpointParams, CheckpointReport, CheckpointStore,
    ExactMoments, ShardPlan,
};
use std::path::{Path, PathBuf};

const N_ITEMS: u64 = 1000;
const SHARDS: usize = 4;

fn tmpdir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    // Each test owns its directory; stale state from a previous test run
    // would make the "cold" baseline silently warm.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

fn params() -> CheckpointParams {
    CheckpointParams::new()
        .set("seed", 42u64)
        .set("kind", "sum")
}

fn work(_: usize, range: std::ops::Range<u64>) -> ExactMoments {
    let mut m = ExactMoments::new();
    for i in range {
        m.push(i as f64 * 0.5 - 100.0);
    }
    m
}

/// A complete cold run into `dir`, returning the merged accumulator.
fn cold_run(dir: &Path) -> (ExactMoments, CheckpointReport) {
    let store = CheckpointStore::new(dir, params());
    let (acc, _, report) = run_sharded_checkpointed(
        N_ITEMS,
        ShardPlan::new(SHARDS, 2),
        &store,
        false,
        None,
        work,
    )
    .expect("cold run");
    (acc, report)
}

/// Resume from `dir` (possibly after corruption), returning the result.
fn resume_run(dir: &Path) -> (ExactMoments, CheckpointReport) {
    let store = CheckpointStore::new(dir, params());
    let (acc, _, report) =
        run_sharded_checkpointed(N_ITEMS, ShardPlan::new(SHARDS, 2), &store, true, None, work)
            .expect("resume run");
    (acc, report)
}

fn shard_file(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("shard-{index:05}.ckpt"))
}

fn reasons(report: &CheckpointReport) -> String {
    report.reasons.join("\n")
}

#[test]
fn pristine_resume_skips_every_shard() {
    let dir = tmpdir("ckpt-pristine");
    let (cold, cold_report) = cold_run(&dir);
    assert_eq!(cold_report.recomputed, SHARDS as u64);
    assert_eq!(cold_report.rejected, 0);
    let (warm, report) = resume_run(&dir);
    assert_eq!(warm, cold);
    assert_eq!(report.skipped, SHARDS as u64);
    assert_eq!(report.recomputed, 0);
    assert_eq!(report.rejected, 0);
}

#[test]
fn deleted_shard_file_is_rejected_and_recomputed() {
    let dir = tmpdir("ckpt-deleted");
    let (cold, _) = cold_run(&dir);
    std::fs::remove_file(shard_file(&dir, 2)).expect("delete shard 2");
    let (warm, report) = resume_run(&dir);
    assert_eq!(warm, cold, "recomputed shard must reproduce the original");
    assert_eq!(report.skipped, SHARDS as u64 - 1);
    assert_eq!(report.recomputed, 1);
    assert_eq!(report.rejected, 1);
    assert!(reasons(&report).contains("unreadable"), "{report:?}");
}

#[test]
fn flipped_body_byte_is_rejected_and_recomputed() {
    let dir = tmpdir("ckpt-bitflip");
    let (cold, _) = cold_run(&dir);
    let path = shard_file(&dir, 1);
    let mut bytes = std::fs::read(&path).expect("read shard 1");
    // Flip a byte in the middle of the body (well before the checksum
    // line), simulating silent media corruption.
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&path, &bytes).expect("rewrite shard 1");
    let (warm, report) = resume_run(&dir);
    assert_eq!(warm, cold);
    assert_eq!(report.rejected, 1);
    assert_eq!(report.recomputed, 1);
    assert!(reasons(&report).contains("shard 1"), "{report:?}");
}

#[test]
fn truncated_shard_file_is_rejected_and_recomputed() {
    let dir = tmpdir("ckpt-truncated");
    let (cold, _) = cold_run(&dir);
    let path = shard_file(&dir, 3);
    let content = std::fs::read_to_string(&path).expect("read shard 3");
    // A torn write without the atomic protocol: keep only a prefix.
    std::fs::write(&path, &content[..content.len() / 3]).expect("truncate shard 3");
    let (warm, report) = resume_run(&dir);
    assert_eq!(warm, cold);
    assert_eq!(report.rejected, 1);
    assert_eq!(report.recomputed, 1);
    assert_eq!(report.skipped, SHARDS as u64 - 1);
}

#[test]
fn flipped_checksum_byte_is_rejected_and_recomputed() {
    let dir = tmpdir("ckpt-checksum");
    let (cold, _) = cold_run(&dir);
    let path = shard_file(&dir, 0);
    let content = std::fs::read_to_string(&path).expect("read shard 0");
    let line_start = content
        .rfind("!checksum ")
        .expect("shard file ends in a checksum line");
    let mut bytes = content.into_bytes();
    let digit = line_start + "!checksum ".len();
    bytes[digit] = if bytes[digit] == b'0' { b'1' } else { b'0' };
    std::fs::write(&path, &bytes).expect("rewrite shard 0");
    let (warm, report) = resume_run(&dir);
    assert_eq!(warm, cold);
    assert_eq!(report.rejected, 1);
    assert!(reasons(&report).contains("checksum mismatch"), "{report:?}");
}

#[test]
fn forged_format_version_is_rejected_even_with_valid_checksums() {
    let dir = tmpdir("ckpt-version");
    let (cold, _) = cold_run(&dir);
    // Forge a future format version WITH correct checksums everywhere:
    // rewrite the shard body and its checksum, then update the manifest's
    // digest for that shard and the manifest's own checksum. Only the
    // strict version check can catch this one.
    let path = shard_file(&dir, 1);
    let content = std::fs::read_to_string(&path).expect("read shard 1");
    let body = content
        .rsplit_once("!checksum ")
        .map(|(body, _)| body)
        .expect("checksum line");
    let forged_body = body.replace("format 1\n", "format 99\n");
    assert_ne!(forged_body, body, "format line must exist");
    let forged_digest = fnv1a64(forged_body.as_bytes());
    std::fs::write(
        &path,
        format!("{forged_body}!checksum {forged_digest:016x}\n"),
    )
    .expect("rewrite shard 1");

    let manifest_path = dir.join("manifest");
    let manifest = std::fs::read_to_string(&manifest_path).expect("read manifest");
    let old_digest = fnv1a64(body.as_bytes());
    let body_end = manifest.rfind("!checksum ").expect("manifest checksum");
    let forged_manifest_body = manifest[..body_end].replace(
        &format!("{old_digest:016x}"),
        &format!("{forged_digest:016x}"),
    );
    let manifest_digest = fnv1a64(forged_manifest_body.as_bytes());
    std::fs::write(
        &manifest_path,
        format!("{forged_manifest_body}!checksum {manifest_digest:016x}\n"),
    )
    .expect("rewrite manifest");

    let (warm, report) = resume_run(&dir);
    assert_eq!(warm, cold);
    assert_eq!(report.rejected, 1);
    assert!(reasons(&report).contains("format version 99"), "{report:?}");
}

#[test]
fn garbage_manifest_rejects_everything_once() {
    let dir = tmpdir("ckpt-garbage");
    let (cold, _) = cold_run(&dir);
    std::fs::write(dir.join("manifest"), "not a manifest at all\n").expect("scribble manifest");
    let (warm, report) = resume_run(&dir);
    assert_eq!(warm, cold);
    // One rejection for the manifest, not one per shard.
    assert_eq!(report.rejected, 1);
    assert_eq!(report.skipped, 0);
    assert_eq!(report.recomputed, SHARDS as u64);
}

#[test]
fn mismatched_seed_rejects_the_whole_manifest() {
    let dir = tmpdir("ckpt-seed");
    let (_, _) = cold_run(&dir);
    // Same dir, different world identity: stale state must not leak in.
    let other = CheckpointParams::new()
        .set("seed", 43u64)
        .set("kind", "sum");
    let store = CheckpointStore::new(&dir, other);
    let (acc, _, report) =
        run_sharded_checkpointed(N_ITEMS, ShardPlan::new(SHARDS, 2), &store, true, None, work)
            .expect("resume with different params");
    let (fresh, _) = {
        let dir2 = tmpdir("ckpt-seed-fresh");
        cold_run(&dir2)
    };
    assert_eq!(acc, fresh, "full recompute, nothing stale merged");
    assert_eq!(report.skipped, 0);
    assert_eq!(report.rejected, 1);
    assert!(reasons(&report).contains("parameters differ"), "{report:?}");
}

#[test]
fn mismatched_shard_plan_rejects_the_whole_manifest() {
    let dir = tmpdir("ckpt-plan");
    let (cold, _) = cold_run(&dir);
    // The manifest pins the *shard* count (boundaries define partials);
    // resuming under a different count must recompute everything…
    let store = CheckpointStore::new(&dir, params());
    let (acc, _, report) =
        run_sharded_checkpointed(N_ITEMS, ShardPlan::new(8, 2), &store, true, None, work)
            .expect("resume with different shard count");
    assert_eq!(acc, cold, "different plan, same merged result");
    assert_eq!(report.skipped, 0);
    assert_eq!(report.rejected, 1);
    assert!(reasons(&report).contains("shard count"), "{report:?}");

    // …while a different *thread* count resumes cleanly: thread
    // scheduling never changes shard boundaries or contents.
    let dir2 = tmpdir("ckpt-threads");
    let (cold2, _) = cold_run(&dir2);
    let store2 = CheckpointStore::new(&dir2, params());
    let (acc2, _, report2) = run_sharded_checkpointed(
        N_ITEMS,
        ShardPlan::new(SHARDS, 7),
        &store2,
        true,
        None,
        work,
    )
    .expect("resume with different threads");
    assert_eq!(acc2, cold2);
    assert_eq!(report2.skipped, SHARDS as u64);
    assert_eq!(report2.rejected, 0);
}

#[test]
fn every_corruption_at_once_still_converges() {
    // Damage three of four shards in three different ways; the run must
    // reject each one individually, keep the surviving shard, and still
    // match the cold result.
    let dir = tmpdir("ckpt-omnibus");
    let (cold, _) = cold_run(&dir);
    std::fs::remove_file(shard_file(&dir, 0)).expect("delete shard 0");
    let p1 = shard_file(&dir, 1);
    let c1 = std::fs::read_to_string(&p1).expect("read shard 1");
    std::fs::write(&p1, &c1[..c1.len() / 2]).expect("truncate shard 1");
    let p2 = shard_file(&dir, 2);
    let mut c2 = std::fs::read(&p2).expect("read shard 2");
    let mid = c2.len() / 2;
    c2[mid] ^= 0xff;
    std::fs::write(&p2, &c2).expect("flip shard 2");
    let (warm, report) = resume_run(&dir);
    assert_eq!(warm, cold);
    assert_eq!(report.skipped, 1);
    assert_eq!(report.recomputed, 3);
    assert_eq!(report.rejected, 3);
    assert_eq!(report.reasons.len(), 3, "{report:?}");
}
