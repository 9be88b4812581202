//! The manifest-keyed result cache.
//!
//! A completed job's artifacts (metrics, ledger, exhibit files) are
//! stored under `cache_dir/{key:016x}/`, where the key is the FNV-1a
//! digest of the same canonical parameter list the checkpoint manifest
//! pins — `(path, seed, scale, days, fcc, users, chaos)` plus the shard
//! count. Two requests with the same parameters therefore share a cache
//! entry, and because results are bit-identical under any thread plan,
//! a hit can be served without recomputation and still match a cold
//! batch run byte for byte.
//!
//! Durability follows the checkpoint layer's discipline: every file is
//! written via [`atomic_write`] (tmp → fsync → rename) and the entry is
//! only valid once `result.ok` — a per-file content-digest manifest —
//! exists, written last. A missing or mismatched digest on load counts
//! as a rejection, invalidates the entry, and degrades to recompute:
//! corruption can cost time, never correctness.
//!
//! [`ResultCache::read`] is the one load: the scheduler's worker calls it
//! to decide whether a job computes, and a reader calls it to serve a
//! finished job's artifacts back. It verifies every digest and counts
//! nothing; each caller counts its own outcome in `serve.cache.*`.

use bb_engine::{atomic_write, fnv1a64, CheckpointParams};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The validity marker and per-file digest manifest of a cache entry.
const RESULT_MANIFEST: &str = "result.ok";

/// The cache key for a parameter list: FNV-1a over the canonical
/// `key = value` text, one pair per line, with the shard count appended.
/// Built from [`CheckpointParams`] so the cache and the checkpoint
/// manifest can never disagree about what identifies a run.
pub fn cache_key(params: &CheckpointParams, shards: usize) -> u64 {
    let mut text = String::new();
    for (k, v) in params.pairs() {
        text.push_str(k);
        text.push_str(" = ");
        text.push_str(v);
        text.push('\n');
    }
    text.push_str(&format!("shards = {shards}\n"));
    fnv1a64(text.as_bytes())
}

/// Why [`ResultCache::read`] found nothing to serve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Miss {
    /// No valid entry: never stored, or invalidated earlier.
    Absent,
    /// The entry failed digest verification and was invalidated now.
    Rejected,
}

/// An on-disk result cache.
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// A cache rooted at `dir` (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ResultCache { dir: dir.into() }
    }

    /// The directory of one entry.
    pub fn entry_dir(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}"))
    }

    /// Store `files` as the entry for `key`. Artifacts are written
    /// atomically first; `result.ok` (the digest manifest) last, so a
    /// crash mid-store leaves an invalid — not a wrong — entry.
    pub fn store(&self, key: u64, files: &[(String, String)]) -> io::Result<()> {
        let entry = self.entry_dir(key);
        fs::create_dir_all(&entry)?;
        let mut manifest = String::new();
        for (name, content) in files {
            atomic_write(&entry.join(name), content)?;
            manifest.push_str(&format!("{:016x} {name}\n", fnv1a64(content.as_bytes())));
        }
        atomic_write(&entry.join(RESULT_MANIFEST), &manifest)
    }

    /// Read `key`'s entry back, verifying every digest. An entry whose
    /// digests do not verify is a [`Miss::Rejected`]: it is invalidated
    /// (the `result.ok` marker removed), so its bytes are never returned
    /// and the next read of `key` is [`Miss::Absent`].
    pub fn read(&self, key: u64) -> Result<Vec<(String, String)>, Miss> {
        let entry = self.entry_dir(key);
        let manifest = fs::read_to_string(entry.join(RESULT_MANIFEST)).map_err(|_| Miss::Absent)?;
        self.verify(&entry, &manifest).map_err(|_| {
            let _ = fs::remove_file(entry.join(RESULT_MANIFEST));
            Miss::Rejected
        })
    }

    /// Read and digest-verify every file the manifest lists.
    fn verify(&self, entry: &Path, manifest: &str) -> Result<Vec<(String, String)>, String> {
        let mut files = Vec::new();
        for line in manifest.lines() {
            let (digest, name) = line
                .split_once(' ')
                .ok_or_else(|| format!("malformed manifest line {line:?}"))?;
            let expected = u64::from_str_radix(digest, 16)
                .map_err(|_| format!("malformed digest {digest:?}"))?;
            let content = fs::read_to_string(entry.join(name))
                .map_err(|e| format!("unreadable artifact {name}: {e}"))?;
            if fnv1a64(content.as_bytes()) != expected {
                return Err(format!("digest mismatch for {name}"));
            }
            files.push((name.to_string(), content));
        }
        Ok(files)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(seed: u64) -> CheckpointParams {
        CheckpointParams::new()
            .set("path", "streaming")
            .set("seed", seed)
            .set("users", 1000u64)
    }

    #[test]
    fn key_depends_on_every_parameter_and_the_shard_count() {
        let base = cache_key(&params(1), 4);
        assert_eq!(base, cache_key(&params(1), 4));
        assert_ne!(base, cache_key(&params(2), 4));
        assert_ne!(base, cache_key(&params(1), 8));
    }

    #[test]
    fn keys_of_existing_cache_entries_are_stable() {
        // Recorded from the cache of an earlier release: a change to the
        // run identity's parameter list would orphan every stored entry.
        use bb_dataset::RunSpec;
        use bb_netsim::chaos::{ChaosScenario, ChaosSpec};
        let clean = RunSpec {
            users: Some(1500),
            days: 1,
            fcc_users: 40,
            ..RunSpec::paper(20141105)
        };
        let chaotic = RunSpec {
            chaos: Some(ChaosSpec::new(ChaosScenario::Omnibus, 0.5)),
            ..clean
        };
        let reseeded = RunSpec { seed: 7, ..clean };
        for (spec, key) in [
            (clean, 0x2c0fe767240ad61f_u64),
            (chaotic, 0xb74d28e605930e24),
            (reseeded, 0x0bda89e044773412),
        ] {
            assert_eq!(
                format!("{:016x}", cache_key(&spec.checkpoint_params(), 6)),
                format!("{key:016x}"),
                "{spec:?}"
            );
        }
    }

    #[test]
    fn store_then_read_round_trips_and_a_tampered_entry_is_rejected_once() {
        let dir = std::env::temp_dir().join(format!("bb-serve-cache-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = ResultCache::new(&dir);
        let key = cache_key(&params(1), 4);
        assert_eq!(cache.read(key), Err(Miss::Absent));
        let files = vec![
            ("metrics.json".to_string(), "{\"a\": 1}".to_string()),
            ("fig1a.txt".to_string(), "figure\n".to_string()),
        ];
        cache.store(key, &files).unwrap();
        assert_eq!(cache.read(key).as_deref(), Ok(&files[..]));
        // Corrupt one artifact: the entry is rejected, invalidated, and
        // stays invalid on the next read (no marker file any more).
        fs::write(cache.entry_dir(key).join("fig1a.txt"), "tampered").unwrap();
        assert_eq!(cache.read(key), Err(Miss::Rejected));
        assert_eq!(cache.read(key), Err(Miss::Absent), "the marker is gone");
        let _ = fs::remove_dir_all(&dir);
    }
}
