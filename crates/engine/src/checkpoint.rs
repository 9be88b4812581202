//! Durable checkpoint/resume for the sharded runner.
//!
//! Every shard of a [`crate::run_sharded`] workload is a pure function of
//! `(seed, item range)`, and the fold walks shards in index order — so a
//! crash after k of n shards loses nothing *if* the k finished partials
//! were persisted. This module does exactly that:
//!
//! * After each shard completes, its accumulator is frozen with
//!   [`crate::Snapshot`], checksummed with [`fnv1a64`], and placed with
//!   the classic atomic protocol: write `*.tmp`, `fsync`, `rename`,
//!   `fsync` the directory. A reader can never observe a torn shard file.
//! * A manifest (same protocol, rewritten after every shard) records the
//!   checkpoint format version, the run parameters (seed/users/days/...
//!   as supplied by the caller), the item count, the *effective* shard
//!   count, and the digest of every completed shard.
//! * On resume, the manifest is validated first: wrong format version,
//!   wrong parameters, or wrong shard geometry **reject the whole
//!   checkpoint** — stale state is never silently merged. Each listed
//!   shard is then loaded and re-checksummed; any corrupt, truncated or
//!   missing file rejects just that shard. Every rejection is counted
//!   (and given a reason string) in [`CheckpointReport`], and the
//!   rejected shard is simply recomputed — degraded to a cold start in
//!   the worst case, never a panic, never wrong output.
//!
//! Because restored partials are folded in the same shard order as
//! freshly computed ones, a resumed run is **byte-identical** to a cold
//! run under any thread count (the manifest pins shards, not threads —
//! shard boundaries are thread-invariant by construction).

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::merge::Mergeable;
use crate::shard::{run_sharded_core, RunStats, ShardPlan};
use crate::snapshot::{escape, fnv1a64, unescape, Snapshot, SnapshotReader};

/// Version of the on-disk checkpoint format. Bump on any layout change;
/// readers reject every other value (strict equality, DESIGN.md §10).
pub const FORMAT_VERSION: u32 = 1;

/// Write `content` to `path` with the atomic protocol checkpoint shards
/// use: write `path.tmp`, `fsync`, rename over the target, best-effort
/// directory fsync. A concurrent reader sees the old file or the new
/// file in full, never a prefix — which is what makes sidecars like
/// `status.json` safe to poll over HTTP while a run rewrites them. A
/// failed write removes its staging file and leaves the target as it was.
pub fn atomic_write(path: &Path, content: &str) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut file = fs::File::create(&tmp)?;
    let written = file
        .write_all(content.as_bytes())
        .and_then(|()| file.sync_all());
    drop(file);
    if let Err(err) = written.and_then(|()| fs::rename(&tmp, path)) {
        let _ = fs::remove_file(&tmp);
        return Err(err);
    }
    // Persist the rename itself. Directory fsync is best-effort: some
    // filesystems refuse it, and the rename is still atomic there.
    if let Some(parent) = path.parent() {
        if let Ok(dir) = fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// One shard's lifecycle notification from a checkpointed run: fired once
/// per shard, either when a committed shard is restored from disk
/// (`restored`) or right after a freshly computed shard becomes durable.
/// Plan-dependent (like [`RunStats`]) — progress must never feed the
/// deterministic output, only observers such as `bb-serve`'s SSE feeds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardProgress {
    /// Shard index within the plan.
    pub shard: usize,
    /// Shards finished so far (restored + committed), monotone per run.
    pub done: u64,
    /// Total shards in the effective plan.
    pub total: usize,
    /// Items the shard covers.
    pub items: u64,
    /// True when the shard was restored from the checkpoint store
    /// instead of recomputed.
    pub restored: bool,
}

/// Run parameters pinned into the manifest. Two runs may share a
/// checkpoint directory only if their parameter lists are identical —
/// key order included, so build them the same way everywhere.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CheckpointParams {
    pairs: Vec<(String, String)>,
}

impl CheckpointParams {
    /// Empty parameter list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append `key = value` (builder style).
    pub fn set(mut self, key: &str, value: impl fmt::Display) -> Self {
        self.pairs.push((key.to_string(), value.to_string()));
        self
    }

    /// The recorded `(key, value)` pairs, in insertion order.
    pub fn pairs(&self) -> impl Iterator<Item = (&str, &str)> + '_ {
        self.pairs.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }
}

/// What happened to the checkpoint state during one resumed (or fresh)
/// run — the source of the CLI's `checkpoint.*` counters. Deliberately
/// *not* part of the deterministic output: a resumed run and a cold run
/// produce different reports but byte-identical results.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Shards restored from disk and not recomputed.
    pub skipped: u64,
    /// Shards computed in this process (cold, or rejected-and-redone).
    pub recomputed: u64,
    /// Rejections: 1 per unusable shard file, or a single 1 when the
    /// whole manifest was rejected (mismatch/corruption).
    pub rejected: u64,
    /// Human-readable reason per rejection, for progress logging.
    pub reasons: Vec<String>,
}

/// Any failure of the durable side of a checkpointed run (I/O, or an
/// observer abort). Validation failures of *existing* state are not
/// errors — they degrade to recomputation via [`CheckpointReport`].
#[derive(Debug)]
pub struct CheckpointError {
    message: String,
}

impl CheckpointError {
    fn new(message: impl Into<String>) -> Self {
        CheckpointError {
            message: message.into(),
        }
    }
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "checkpoint: {}", self.message)
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(err: std::io::Error) -> Self {
        CheckpointError::new(err.to_string())
    }
}

/// A checkpoint directory plus the parameters that identify the run.
#[derive(Clone, Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    params: CheckpointParams,
}

impl CheckpointStore {
    /// A store rooted at `dir` for a run identified by `params`.
    pub fn new(dir: impl Into<PathBuf>, params: CheckpointParams) -> Self {
        CheckpointStore {
            dir: dir.into(),
            params,
        }
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join("manifest")
    }

    fn shard_path(&self, index: usize) -> PathBuf {
        self.dir.join(format!("shard-{index:05}.ckpt"))
    }

    /// Write `content` to `name` in the checkpoint dir via
    /// [`atomic_write`]: a concurrent reader sees the old file or the
    /// new file, never a prefix.
    fn write_atomic(&self, name: &str, content: &str) -> Result<(), CheckpointError> {
        atomic_write(&self.dir.join(name), content)?;
        Ok(())
    }

    fn manifest_text(&self, n_items: u64, n_shards: usize, done: &BTreeMap<usize, u64>) -> String {
        let mut body = String::new();
        body.push_str("bb-checkpoint-manifest v1\n");
        body.push_str(&format!("format {FORMAT_VERSION}\n"));
        body.push_str(&format!("n_items {n_items}\n"));
        body.push_str(&format!("shards {n_shards}\n"));
        body.push_str(&format!("params {}\n", self.params.pairs.len()));
        for (key, value) in self.params.pairs() {
            body.push_str(&format!("- {} {}\n", escape(key), escape(value)));
        }
        body.push_str(&format!("done {}\n", done.len()));
        for (&index, &digest) in done {
            body.push_str(&format!("- {index} {digest:016x}\n"));
        }
        let checksum = fnv1a64(body.as_bytes());
        body.push_str(&format!("!checksum {checksum:016x}\n"));
        body
    }

    /// Atomically (re)write the manifest listing `done` shard digests for
    /// a run over `n_items` items split into `n_shards` shards.
    fn save_manifest(
        &self,
        n_items: u64,
        n_shards: usize,
        done: &BTreeMap<usize, u64>,
    ) -> Result<(), CheckpointError> {
        self.write_atomic("manifest", &self.manifest_text(n_items, n_shards, done))
    }

    /// Validate the existing manifest against this run's identity:
    /// shard index → expected digest, `None` when there is no manifest (a
    /// genuinely cold start), or the reason it is unusable.
    fn load_manifest(
        &self,
        n_items: u64,
        n_shards: usize,
    ) -> Result<Option<BTreeMap<usize, u64>>, String> {
        match fs::read_to_string(self.manifest_path()) {
            Ok(content) => self.parse_manifest(&content, n_items, n_shards).map(Some),
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(err) => Err(format!("manifest unreadable: {err}")),
        }
    }

    fn parse_manifest(
        &self,
        content: &str,
        n_items: u64,
        n_shards: usize,
    ) -> Result<BTreeMap<usize, u64>, String> {
        let body = verify_checksum(content).map_err(|e| format!("manifest {e}"))?;
        let mut r = SnapshotReader::new(body);
        let header = r
            .take("bb-checkpoint-manifest")
            .map_err(|e| e.to_string())?;
        if header.trim() != "v1" {
            return Err(format!("manifest layout {header:?} not supported"));
        }
        let format = r.take_u64("format").map_err(|e| e.to_string())?;
        if format != u64::from(FORMAT_VERSION) {
            return Err(format!(
                "format version {format} does not match this build's {FORMAT_VERSION}"
            ));
        }
        let stored_items = r.take_u64("n_items").map_err(|e| e.to_string())?;
        if stored_items != n_items {
            return Err(format!("n_items {stored_items} != current run's {n_items}"));
        }
        let stored_shards = r.take_u64("shards").map_err(|e| e.to_string())?;
        if stored_shards != n_shards as u64 {
            return Err(format!(
                "shard count {stored_shards} != current plan's {n_shards}"
            ));
        }
        let n_params = r.take_u64("params").map_err(|e| e.to_string())?;
        let mut stored = Vec::new();
        for _ in 0..n_params {
            let rest = r.take("-").map_err(|e| e.to_string())?;
            let (key, value) = rest
                .split_once(' ')
                .ok_or_else(|| format!("malformed param line {rest:?}"))?;
            let key = unescape(key).ok_or_else(|| format!("bad escape in param key {rest:?}"))?;
            let value =
                unescape(value).ok_or_else(|| format!("bad escape in param value {rest:?}"))?;
            stored.push((key, value));
        }
        let current: Vec<(String, String)> = self.params.pairs.clone();
        if stored != current {
            return Err(format!(
                "parameters differ: checkpoint has {stored:?}, run has {current:?}"
            ));
        }
        let n_done = r.take_u64("done").map_err(|e| e.to_string())?;
        let mut done = BTreeMap::new();
        for _ in 0..n_done {
            let rest = r.take("-").map_err(|e| e.to_string())?;
            let mut toks = rest.split_whitespace();
            let index = toks
                .next()
                .and_then(|t| t.parse::<usize>().ok())
                .ok_or_else(|| format!("bad done index in {rest:?}"))?;
            let digest = toks
                .next()
                .filter(|t| t.len() == 16)
                .and_then(|t| u64::from_str_radix(t, 16).ok())
                .ok_or_else(|| format!("bad done digest in {rest:?}"))?;
            if index >= n_shards {
                return Err(format!(
                    "done shard {index} out of range (shards {n_shards})"
                ));
            }
            done.insert(index, digest);
        }
        r.expect_eof().map_err(|e| e.to_string())?;
        Ok(done)
    }

    /// Persist `partial` as shard `index` with the usual header, checksum
    /// and atomic rename. Returns the file's body digest — the value the
    /// manifest must pin for this shard.
    fn write_shard<A: Snapshot>(&self, index: usize, partial: &A) -> Result<u64, CheckpointError> {
        let mut body = String::new();
        body.push_str("bb-checkpoint-shard v1\n");
        body.push_str(&format!("format {FORMAT_VERSION}\n"));
        body.push_str(&format!("shard {index}\n"));
        body.push_str(&partial.to_snapshot_string());
        let digest = fnv1a64(body.as_bytes());
        let content = format!("{body}!checksum {digest:016x}\n");
        self.write_atomic(&format!("shard-{index:05}.ckpt"), &content)?;
        Ok(digest)
    }

    /// Load shard `index`, verifying both the file's own checksum and the
    /// digest the manifest promised for it. Validation failures degrade to
    /// recomputation, so the error is a reason string, not a
    /// [`CheckpointError`].
    fn load_shard<A: Snapshot>(&self, index: usize, expected_digest: u64) -> Result<A, String> {
        let path = self.shard_path(index);
        let content = fs::read_to_string(&path)
            .map_err(|err| format!("shard {index}: unreadable ({err})"))?;
        let body = verify_checksum(&content).map_err(|e| format!("shard {index}: {e}"))?;
        let digest = fnv1a64(body.as_bytes());
        if digest != expected_digest {
            return Err(format!(
                "shard {index}: digest {digest:016x} does not match manifest's {expected_digest:016x}"
            ));
        }
        let mut rest = body;
        for _ in 0..3 {
            rest = match rest.split_once('\n') {
                Some((_, tail)) => tail,
                None => return Err(format!("shard {index}: truncated header")),
            };
        }
        let mut r = SnapshotReader::new(body);
        let header = r
            .take("bb-checkpoint-shard")
            .map_err(|e| format!("shard {index}: {e}"))?;
        if header.trim() != "v1" {
            return Err(format!("shard {index}: layout {header:?} not supported"));
        }
        let format = r
            .take_u64("format")
            .map_err(|e| format!("shard {index}: {e}"))?;
        if format != u64::from(FORMAT_VERSION) {
            return Err(format!(
                "shard {index}: format version {format} not supported"
            ));
        }
        let stored_index = r
            .take_u64("shard")
            .map_err(|e| format!("shard {index}: {e}"))?;
        if stored_index != index as u64 {
            return Err(format!("shard {index}: file claims shard {stored_index}"));
        }
        let mut r = SnapshotReader::new(rest);
        let partial = A::read_snapshot(&mut r).map_err(|e| format!("shard {index}: {e}"))?;
        r.expect_eof().map_err(|e| format!("shard {index}: {e}"))?;
        Ok(partial)
    }

    /// Open a checkpointed run over `n_items` items cut into `n_shards`
    /// shards. With `resume`, the manifest is validated and every shard
    /// it lists that passes validation is restored as an `A`; rejections
    /// are counted in the report and those shards recomputed. The
    /// manifest is then rewritten, so a fresh run truncates a stale
    /// done-list and a resume drops rejected entries. Returns the commit
    /// side of the run, one restored slot per shard, and the report.
    pub fn open<A: Snapshot>(
        &self,
        n_items: u64,
        n_shards: usize,
        resume: bool,
    ) -> Result<(CheckpointSession, Vec<Option<A>>, CheckpointReport), CheckpointError> {
        fs::create_dir_all(&self.dir)?;
        let mut report = CheckpointReport::default();
        let mut restored: Vec<Option<A>> = (0..n_shards).map(|_| None).collect();
        let mut done: BTreeMap<usize, u64> = BTreeMap::new();
        let manifest = if resume {
            self.load_manifest(n_items, n_shards)
        } else {
            Ok(None)
        };
        let entries = manifest.unwrap_or_else(|reason| {
            report.rejected += 1;
            report.reasons.push(reason);
            None
        });
        for (index, digest) in entries.into_iter().flatten() {
            match self.load_shard::<A>(index, digest) {
                Ok(partial) => {
                    restored[index] = Some(partial);
                    done.insert(index, digest);
                    report.skipped += 1;
                }
                Err(reason) => {
                    report.rejected += 1;
                    report.reasons.push(reason);
                }
            }
        }
        report.recomputed = n_shards as u64 - report.skipped;
        self.save_manifest(n_items, n_shards, &done)?;
        let session = CheckpointSession {
            store: self.clone(),
            n_items,
            n_shards,
            done: Mutex::new(done),
        };
        Ok((session, restored, report))
    }
}

/// The commit side of a run opened with [`CheckpointStore::open`].
/// [`run_sharded_checkpointed`] commits the shards its own workers
/// compute; the federation coordinator commits the shards its workers
/// send back. Both write the same files, so a checkpoint one of them
/// took resumes in the other.
#[derive(Debug)]
pub struct CheckpointSession {
    store: CheckpointStore,
    n_items: u64,
    n_shards: usize,
    done: Mutex<BTreeMap<usize, u64>>,
}

impl CheckpointSession {
    /// Durably commit shard `index`: its file first, then a manifest that
    /// lists it. Safe to call from several threads.
    pub fn commit<A: Snapshot>(&self, index: usize, partial: &A) -> Result<(), CheckpointError> {
        let digest = self.store.write_shard(index, partial)?;
        let mut done = self.done.lock().expect("checkpoint state poisoned");
        done.insert(index, digest);
        self.store.save_manifest(self.n_items, self.n_shards, &done)
    }
}

/// Split `content` into (body, stored checksum) and verify the FNV-1a
/// digest of the body. The checksum line must be last.
fn verify_checksum(content: &str) -> Result<&str, String> {
    let trimmed = content
        .strip_suffix('\n')
        .ok_or("missing trailing newline")?;
    let (_, last) = trimmed
        .rsplit_once('\n')
        .ok_or("too short for a checksum line")?;
    let stored = last
        .strip_prefix("!checksum ")
        .filter(|t| t.len() == 16)
        .and_then(|t| u64::from_str_radix(t, 16).ok())
        .ok_or("malformed checksum line")?;
    let body = &content[..content.len() - last.len() - 1];
    let actual = fnv1a64(body.as_bytes());
    if actual != stored {
        return Err(format!(
            "checksum mismatch (stored {stored:016x}, computed {actual:016x})"
        ));
    }
    Ok(body)
}

/// [`crate::run_sharded`] with durable per-shard checkpoints.
///
/// After every completed shard the accumulator is written to `store`
/// (atomically, manifest updated) before the next shard's result can be
/// folded over it. With `resume`, previously-completed shards that pass
/// validation are restored instead of recomputed; the merged result is
/// byte-identical either way. `progress` (if given) observes every
/// finished shard: restored shards at load time, and a computed shard
/// only once it is durable — so an observer that counts computed shards
/// and aborts (the CLI's crash injection) leaves exactly that many
/// behind.
pub fn run_sharded_checkpointed<A, F>(
    n_items: u64,
    plan: ShardPlan,
    store: &CheckpointStore,
    resume: bool,
    progress: Option<&(dyn Fn(ShardProgress) + Sync)>,
    work: F,
) -> Result<(A, RunStats, CheckpointReport), CheckpointError>
where
    A: Mergeable + Snapshot + Send,
    F: Fn(Range<u64>) -> A + Sync,
{
    let ranges = plan.ranges(n_items);
    let n_shards = ranges.len();
    let (session, preloaded, report) = store.open::<A>(n_items, n_shards, resume)?;

    let finished = AtomicU64::new(0);
    let notify = |shard: usize, restored: bool| {
        if let Some(progress) = progress {
            progress(ShardProgress {
                shard,
                done: finished.fetch_add(1, Ordering::Relaxed) + 1,
                total: n_shards,
                items: ranges[shard].end - ranges[shard].start,
                restored,
            });
        }
    };
    for (index, _) in preloaded.iter().enumerate().filter(|(_, p)| p.is_some()) {
        notify(index, true);
    }
    let observer = |index: usize, partial: &A| -> Result<(), String> {
        session
            .commit(index, partial)
            .map_err(|err| err.to_string())?;
        notify(index, false);
        Ok(())
    };

    let (merged, stats) = run_sharded_core(n_items, plan, work, preloaded, Some(&observer))
        .map_err(CheckpointError::new)?;
    Ok((merged, stats, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moments::ExactMoments;
    use crate::rng::stream_rng;
    use rand::Rng;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bb-ckpt-unit-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn params() -> CheckpointParams {
        CheckpointParams::new().set("seed", 7).set("mode", "unit")
    }

    fn work(range: Range<u64>) -> ExactMoments {
        let mut acc = ExactMoments::new();
        for item in range {
            let mut rng = stream_rng(7, 3, item);
            acc.push(rng.gen::<f64>() * 10.0);
        }
        acc
    }

    #[test]
    fn cold_run_then_resume_skips_everything_and_matches() {
        let dir = tmpdir("cold-resume");
        let store = CheckpointStore::new(&dir, params());
        let plan = ShardPlan::new(4, 2);
        let reference = crate::run_sharded(200, plan, work).0;

        let (cold, _, cold_report) =
            run_sharded_checkpointed(200, plan, &store, false, None, work).unwrap();
        assert_eq!(cold, reference);
        assert_eq!(cold_report.skipped, 0);
        assert_eq!(cold_report.recomputed, 4);
        assert_eq!(cold_report.rejected, 0);

        let (resumed, _, resume_report) =
            run_sharded_checkpointed(200, plan, &store, true, None, work).unwrap();
        assert_eq!(resumed, reference);
        assert_eq!(resume_report.skipped, 4);
        assert_eq!(resume_report.recomputed, 0);
        assert_eq!(resume_report.rejected, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn computed_shards_are_reported_only_once_durable() {
        let dir = tmpdir("durable");
        let store = CheckpointStore::new(&dir, params());
        for threads in [1, 3] {
            let seen = Mutex::new(Vec::new());
            let progress = |p: ShardProgress| {
                assert!(!p.restored, "cold run restores nothing");
                let manifest = fs::read_to_string(store.manifest_path()).unwrap();
                let shard = fs::read_to_string(store.shard_path(p.shard))
                    .expect("a reported shard's file exists");
                let digest = fnv1a64(verify_checksum(&shard).unwrap().as_bytes());
                assert!(
                    manifest.contains(&format!("- {} {digest:016x}\n", p.shard)),
                    "shard {} reported before the manifest pinned its file",
                    p.shard
                );
                seen.lock().unwrap().push(p.shard);
            };
            run_sharded_checkpointed(
                64,
                ShardPlan::new(4, threads),
                &store,
                false,
                Some(&progress),
                work,
            )
            .unwrap();
            let mut shards = seen.into_inner().unwrap();
            shards.sort_unstable();
            assert_eq!(shards, vec![0, 1, 2, 3], "threads {threads}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn progress_fires_once_per_shard_and_flags_restored_ones() {
        let dir = tmpdir("progress");
        let store = CheckpointStore::new(&dir, params());
        let plan = ShardPlan::new(4, 2);

        let seen = Mutex::new(Vec::new());
        let progress = |p: ShardProgress| seen.lock().unwrap().push(p);
        run_sharded_checkpointed(100, plan, &store, false, Some(&progress), work).unwrap();
        let mut cold = seen.into_inner().unwrap();
        cold.sort_by_key(|p| p.shard);
        assert_eq!(cold.len(), 4);
        assert!(cold.iter().all(|p| !p.restored && p.total == 4));
        assert_eq!(cold.iter().map(|p| p.items).sum::<u64>(), 100);
        let mut dones: Vec<u64> = cold.iter().map(|p| p.done).collect();
        dones.sort_unstable();
        assert_eq!(dones, vec![1, 2, 3, 4]);

        let seen = Mutex::new(Vec::new());
        let progress = |p: ShardProgress| seen.lock().unwrap().push(p);
        run_sharded_checkpointed(100, plan, &store, true, Some(&progress), work).unwrap();
        let resumed = seen.into_inner().unwrap();
        assert_eq!(resumed.len(), 4);
        assert!(resumed.iter().all(|p| p.restored));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_params_reject_the_whole_manifest() {
        let dir = tmpdir("params");
        let store = CheckpointStore::new(&dir, params());
        run_sharded_checkpointed(100, ShardPlan::new(4, 1), &store, false, None, work).unwrap();

        let other = CheckpointStore::new(&dir, CheckpointParams::new().set("seed", 8));
        let (result, _, report) =
            run_sharded_checkpointed(100, ShardPlan::new(4, 1), &other, true, None, work).unwrap();
        assert_eq!(result, crate::run_sharded(100, ShardPlan::serial(), work).0);
        assert_eq!(report.skipped, 0);
        assert_eq!(report.rejected, 1, "one rejection for the manifest");
        assert!(
            report.reasons[0].contains("parameters differ"),
            "{:?}",
            report.reasons
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_checksum_rejects_tampering() {
        let good = "hello\nworld\n";
        let sum = fnv1a64(good.as_bytes());
        let content = format!("{good}!checksum {sum:016x}\n");
        assert_eq!(verify_checksum(&content).unwrap(), good);
        let tampered = content.replace("world", "w0rld");
        assert!(verify_checksum(&tampered).unwrap_err().contains("mismatch"));
        assert!(verify_checksum("no newline").is_err());
        assert!(verify_checksum("x\n").is_err());
    }
}
