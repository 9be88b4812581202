//! Crash-safety of [`atomic_write`]: sidecars like `status.json` and
//! `.runtime.json` must never be observable half-written — a killed
//! writer leaves the previous contents intact, and concurrent readers
//! only ever see complete documents.

use bb_engine::atomic_write;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

fn tmpdir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

/// A writer that dies mid-write has only touched the `.tmp` staging
/// file; the published file still holds the previous, complete content,
/// and the next atomic write recovers past the stale staging file.
#[test]
fn killed_writer_leaves_the_previous_file_intact() {
    let dir = tmpdir("atomic-kill");
    let target = dir.join("status.json");
    let old = "{\n  \"checkpoint.skipped\": 4\n}";
    atomic_write(&target, old).expect("seed the target");

    // Simulate atomic_write's window of vulnerability: partial bytes in
    // the staging file, process killed before the rename.
    let tmp = dir.join("status.json.tmp");
    let mut writer = Command::new("sh")
        .arg("-c")
        .arg(format!(
            "printf '{{\"checkpoint.ski' > {}; exec sleep 30",
            tmp.display()
        ))
        .spawn()
        .expect("spawn writer");
    let deadline = Instant::now() + Duration::from_secs(10);
    while !tmp.exists() {
        assert!(
            Instant::now() < deadline,
            "writer never created the tmp file"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    writer.kill().expect("kill writer mid-write");
    writer.wait().expect("reap writer");

    // The published file is untouched; only the staging file is torn.
    assert_eq!(fs::read_to_string(&target).expect("read target"), old);

    // The next writer simply replaces the stale staging file and
    // publishes atomically.
    let new = "{\n  \"checkpoint.skipped\": 5\n}";
    atomic_write(&target, new).expect("recover past stale tmp");
    assert_eq!(fs::read_to_string(&target).expect("read target"), new);
    assert!(!tmp.exists(), "staging file consumed by the rename");
}

/// Readers racing a writer observe either the old or the new document,
/// never a prefix, a suffix, or an absent file.
#[test]
fn concurrent_readers_never_observe_a_torn_document() {
    let dir = tmpdir("atomic-race");
    let target = dir.join("metrics.json");
    // Different lengths, so a torn write would be detectable as a
    // prefix of the longer or a padded short read.
    let a = "{\"generation.users\": 1}";
    let b = "{\"generation.users\": 22222222, \"generation.movers\": 333}";
    atomic_write(&target, a).expect("seed");

    let writer = {
        let target = target.clone();
        std::thread::spawn(move || {
            for _ in 0..200 {
                atomic_write(&target, b).expect("write b");
                atomic_write(&target, a).expect("write a");
            }
        })
    };
    let mut reads = 0u32;
    while !writer.is_finished() {
        let content = fs::read_to_string(&target).expect("target always present");
        assert!(
            content == a || content == b,
            "torn read after {reads} good reads: {content:?}"
        );
        reads += 1;
    }
    writer.join().expect("writer thread");
    assert!(reads > 0, "reader never ran while the writer was active");
}

/// A write that fails after staging — here the rename, onto a non-empty
/// directory — returns the error and removes its staging file.
#[test]
fn a_failed_write_leaves_no_staging_file() {
    let dir = tmpdir("atomic-fail");
    let target = dir.join("taken");
    fs::create_dir(&target).expect("occupy the target");
    fs::write(target.join("kept"), "x").expect("fill the target");
    let err = atomic_write(&target, "content").expect_err("rename over a directory fails");
    assert!(
        !dir.join("taken.tmp").exists(),
        "staging file left behind after {err}"
    );
    assert!(target.join("kept").exists(), "the target is untouched");
}
