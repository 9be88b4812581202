//! The in-process job scheduler.
//!
//! One worker thread drains a FIFO queue of [`RunSpec`]s. For each job
//! it first reads the [`ResultCache`] entry under the job's manifest key:
//! a valid entry is served as-is (`from_cache: true`, no recomputation —
//! the cache-hit counter is the test surface for that guarantee); a miss
//! runs the checkpointed streaming fold via [`runner::run_job`] under
//! `cache_dir/checkpoints/<key>`, stores the artifacts, and then removes
//! that checkpoint: once the result is stored, the cache serves the job,
//! and a rejected entry is recomputed from the start. A job that fails or
//! is interrupted before its result is stored keeps its checkpoint, so
//! the next identical job resumes it. Every job owns an SSE [`Feed`] that
//! receives `status`, `shard` and `ledger` frames while it runs and a
//! terminal `done`/`error` frame; readers can attach at any time and
//! always get the full replay.
//!
//! A job record keeps its view and its feed, not its artifacts. The
//! artifact sets of the [`HOT_ENTRIES`] most recently used cache keys
//! stay in memory in one scheduler-wide hot set, so a cold job and its
//! cached resubmissions share one copy. The read-only endpoints
//! (`/metrics`, `/ledger`, `/exhibits/{id}`, `/countries/{cc}`) look
//! there first and otherwise read the job's entry back from the result
//! cache with [`ResultCache::read`], which verifies every digest. Each
//! cache outcome is counted once, in the `serve.cache.*` counters of
//! [`ServeTelemetry`]: the worker counts a hit or a miss per job, and a
//! rejection from either the worker or a read-back; a reader's read-back
//! is not a lookup and never moves the hit or miss counts. A read-back
//! that fails verification serves nothing; the next identical job
//! recomputes. Memory therefore grows with the jobs served only by each
//! job's view and SSE replay.

use crate::cache::{cache_key, Miss, ResultCache};
use crate::runner;
use crate::sse::Feed;
use crate::telemetry::ServeTelemetry;
use bb_dataset::RunSpec;
use bb_engine::ShardPlan;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

/// Lifecycle of a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for the worker.
    Queued,
    /// The worker is computing (or restoring) it.
    Running,
    /// Artifacts available (from cache or freshly computed).
    Done,
    /// The run failed; see the error message.
    Failed,
}

impl JobState {
    /// Lower-case name for JSON payloads.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }
}

/// A point-in-time snapshot of one job, safe to serialise.
#[derive(Clone, Debug)]
pub struct JobView {
    /// Job id (dense, starting at 0).
    pub id: u64,
    /// What was requested.
    pub spec: RunSpec,
    /// Current lifecycle state.
    pub state: JobState,
    /// Whether a completed job was served from the result cache.
    pub from_cache: bool,
    /// The manifest-derived cache key.
    pub cache_key: u64,
    /// Failure message, when `state` is `Failed`.
    pub error: Option<String>,
}

impl JobView {
    /// The snapshot as a JSON object.
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "job": self.id,
            "spec": runner::job_json(&self.spec),
            "state": self.state.name(),
            "from_cache": self.from_cache,
            "cache_key": format!("{:016x}", self.cache_key),
            "error": self.error,
        })
    }
}

/// How many finished artifact sets stay in memory. Every other finished
/// job's artifacts are read back from the result cache when asked for.
pub const HOT_ENTRIES: usize = 4;

/// One job's artifacts: `(file name, content)` in the runner's order.
type Files = Arc<Vec<(String, String)>>;

/// One job record: the public view plus the SSE feed.
struct JobRecord {
    view: JobView,
    feed: Arc<Feed>,
}

/// The artifact sets of the [`HOT_ENTRIES`] most recently used cache
/// keys, least recently used first.
#[derive(Default)]
struct HotSet {
    entries: VecDeque<(u64, Files)>,
}

impl HotSet {
    /// `key`'s set, now the most recently used.
    fn get(&mut self, key: u64) -> Option<Files> {
        let at = self.entries.iter().position(|(k, _)| *k == key)?;
        let entry = self.entries.remove(at).expect("position is in range");
        let files = Arc::clone(&entry.1);
        self.entries.push_back(entry);
        Some(files)
    }

    /// Keep `files` as `key`'s set, evicting the least recently used set
    /// when full, and return the kept set. A set already kept for `key`
    /// stays and `files` is dropped: both hold the same bytes, and every
    /// job with that key then shares one copy.
    fn insert(&mut self, key: u64, files: Vec<(String, String)>) -> Files {
        if let Some(kept) = self.get(key) {
            return kept;
        }
        if self.entries.len() == HOT_ENTRIES {
            self.entries.pop_front();
        }
        let files = Arc::new(files);
        self.entries.push_back((key, Arc::clone(&files)));
        files
    }
}

#[derive(Default)]
struct JobTable {
    jobs: Vec<JobRecord>,
    queue: VecDeque<usize>,
    /// Most recently completed job, the default data source for the
    /// read-only endpoints.
    latest_done: Option<u64>,
    hot: HotSet,
}

struct Shared {
    table: Mutex<JobTable>,
    wake: Condvar,
    cache: ResultCache,
    plan: ShardPlan,
    checkpoints: PathBuf,
    shutdown: AtomicBool,
    telemetry: Arc<ServeTelemetry>,
}

/// The scheduler: a queue, a cache, and one worker thread.
pub struct Scheduler {
    shared: Arc<Shared>,
    worker: Option<thread::JoinHandle<()>>,
}

impl Scheduler {
    /// Start the worker, which runs every job under `plan`. `cache_dir`
    /// holds both the result cache and the per-job checkpoint
    /// directories. `telemetry` receives the
    /// queue-depth gauge, job wall-time histogram, cache outcome
    /// series, and shard-progress gauge — none of which ever touch the
    /// job's artifact bytes.
    pub fn start(
        cache_dir: impl Into<PathBuf>,
        plan: ShardPlan,
        telemetry: Arc<ServeTelemetry>,
    ) -> Self {
        let cache_dir = cache_dir.into();
        let shared = Arc::new(Shared {
            table: Mutex::new(JobTable::default()),
            wake: Condvar::new(),
            cache: ResultCache::new(cache_dir.join("results")),
            plan,
            checkpoints: cache_dir.join("checkpoints"),
            shutdown: AtomicBool::new(false),
            telemetry,
        });
        let worker = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || worker_loop(&shared))
        };
        Scheduler {
            shared,
            worker: Some(worker),
        }
    }

    /// Enqueue a job and return its id. Identical re-submissions are
    /// answered by the worker from the cache (asserted via
    /// [`cache_hits`](Scheduler::cache_hits)), so submitting is always
    /// cheap.
    pub fn submit(&self, spec: RunSpec) -> u64 {
        let key = cache_key(&spec.checkpoint_params(), self.shared.plan.shards);
        let mut table = self.shared.table.lock().expect("job table");
        let id = table.jobs.len() as u64;
        table.jobs.push(JobRecord {
            view: JobView {
                id,
                spec,
                state: JobState::Queued,
                from_cache: false,
                cache_key: key,
                error: None,
            },
            feed: Arc::new(Feed::new()),
        });
        let index = table.jobs.len() - 1;
        table.queue.push_back(index);
        // Publish the new depth while still holding the table lock: an
        // increment outside it can interleave with the worker's decrement
        // and leave the gauge transiently negative (or over-deep) under a
        // concurrent scrape. Setting to the queue's actual length makes
        // the gauge a snapshot of the protected state, never an edit.
        self.shared
            .telemetry
            .queue_depth
            .set(table.queue.len() as i64);
        drop(table);
        self.shared.wake.notify_all();
        id
    }

    /// Snapshot one job.
    pub fn job(&self, id: u64) -> Option<JobView> {
        let table = self.shared.table.lock().expect("job table");
        table.jobs.get(id as usize).map(|r| r.view.clone())
    }

    /// Snapshot every job, in submission order.
    pub fn jobs(&self) -> Vec<JobView> {
        let table = self.shared.table.lock().expect("job table");
        table.jobs.iter().map(|r| r.view.clone()).collect()
    }

    /// The SSE feed of one job.
    pub fn feed(&self, id: u64) -> Option<Arc<Feed>> {
        let table = self.shared.table.lock().expect("job table");
        table.jobs.get(id as usize).map(|r| Arc::clone(&r.feed))
    }

    /// The artifacts of one completed job: from the hot set, or else
    /// read back from the result cache and made hot. `None` while the
    /// job is not done, and when its entry is gone or fails verification
    /// (a counted rejection).
    pub fn files(&self, id: u64) -> Option<Arc<Vec<(String, String)>>> {
        let key = {
            let mut table = self.shared.table.lock().expect("job table");
            let view = &table.jobs.get(id as usize)?.view;
            if view.state != JobState::Done {
                return None;
            }
            let key = view.cache_key;
            if let Some(files) = table.hot.get(key) {
                return Some(files);
            }
            key
        };
        // Off the table lock: the read-back touches the disk.
        match self.shared.cache.read(key) {
            Ok(files) => Some(
                self.shared
                    .table
                    .lock()
                    .expect("job table")
                    .hot
                    .insert(key, files),
            ),
            Err(miss) => {
                if miss == Miss::Rejected {
                    self.shared.telemetry.cache_rejection();
                }
                None
            }
        }
    }

    /// The artifacts of the most recently completed job.
    pub fn latest_files(&self) -> Option<Arc<Vec<(String, String)>>> {
        let id = self.shared.table.lock().expect("job table").latest_done?;
        self.files(id)
    }

    /// Block until job `id` reaches a terminal state, then snapshot it.
    pub fn wait(&self, id: u64) -> Option<JobView> {
        let mut table = self.shared.table.lock().expect("job table");
        loop {
            let state = table.jobs.get(id as usize)?.view.state;
            if matches!(state, JobState::Done | JobState::Failed) {
                return Some(table.jobs[id as usize].view.clone());
            }
            table = self.shared.wake.wait(table).expect("job table");
        }
    }

    /// Cache hits (jobs answered without recomputation).
    pub fn cache_hits(&self) -> u64 {
        self.shared.telemetry.cache_hits.get()
    }

    /// Cache misses (jobs that had to compute).
    pub fn cache_misses(&self) -> u64 {
        self.shared.telemetry.cache_misses.get()
    }

    /// Cache entries rejected for failed digest verification.
    pub fn cache_rejected(&self) -> u64 {
        self.shared.telemetry.cache_rejected.get()
    }

    /// Total jobs ever submitted.
    pub fn job_count(&self) -> u64 {
        self.shared.table.lock().expect("job table").jobs.len() as u64
    }

    /// Whether shutdown has been requested (SSE readers poll this).
    pub fn shutdown_flag(&self) -> &AtomicBool {
        &self.shared.shutdown
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.wake.notify_all();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("jobs", &self.job_count())
            .field("cache_hits", &self.cache_hits())
            .finish()
    }
}

/// Move job `index` to `state` and mirror it into its SSE feed.
fn set_state(shared: &Shared, index: usize, state: JobState) -> Arc<Feed> {
    let mut table = shared.table.lock().expect("job table");
    table.jobs[index].view.state = state;
    let feed = Arc::clone(&table.jobs[index].feed);
    let payload = table.jobs[index].view.to_json().to_string();
    drop(table);
    shared.wake.notify_all();
    feed.push("status", &payload);
    feed
}

fn worker_loop(shared: &Shared) {
    loop {
        let index = {
            let mut table = shared.table.lock().expect("job table");
            loop {
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                if let Some(index) = table.queue.pop_front() {
                    // Same rule as `submit`: publish the depth under the
                    // table lock so the gauge always equals the queue.
                    shared.telemetry.queue_depth.set(table.queue.len() as i64);
                    break index;
                }
                table = shared.wake.wait(table).expect("job table");
            }
        };
        let telemetry = &shared.telemetry;
        let job_start = telemetry.now_micros();
        let (spec, key) = {
            let table = shared.table.lock().expect("job table");
            (
                table.jobs[index].view.spec,
                table.jobs[index].view.cache_key,
            )
        };
        let feed = set_state(shared, index, JobState::Running);
        // A digest mismatch counts as a miss *and* a rejection.
        let outcome = match shared.cache.read(key) {
            Ok(files) => {
                telemetry.cache_hit();
                Ok((files, true))
            }
            Err(miss) => {
                if miss == Miss::Rejected {
                    telemetry.cache_rejection();
                }
                telemetry.cache_miss();
                let checkpoint_dir = shared.checkpoints.join(format!("{key:016x}"));
                let shards_done = &telemetry.shards_done;
                let progress = |p: bb_engine::ShardProgress| {
                    shards_done.set(p.done as i64);
                    feed.push(
                        "shard",
                        &format!(
                            "{{\"shard\": {}, \"done\": {}, \"total\": {}, \
                             \"items\": {}, \"restored\": {}}}",
                            p.shard, p.done, p.total, p.items, p.restored
                        ),
                    );
                };
                let ledger: bb_trace::EventTail = {
                    let feed = Arc::clone(&feed);
                    Arc::new(move |event: &bb_trace::Event| {
                        feed.push("ledger", &event.to_json_line());
                    })
                };
                runner::run_job(
                    &spec,
                    shared.plan,
                    &checkpoint_dir,
                    Some(&progress),
                    Some(ledger),
                )
                .and_then(|files| {
                    shared
                        .cache
                        .store(key, &files)
                        .map_err(|e| format!("cache store: {e}"))?;
                    // The stored result supersedes the checkpoint. A
                    // directory that will not go only costs disk.
                    let _ = std::fs::remove_dir_all(&checkpoint_dir);
                    Ok((files, false))
                })
            }
        };
        telemetry
            .job_wall_us
            .observe(telemetry.now_micros() - job_start);
        telemetry.shards_done.set(0);
        match outcome {
            Ok((files, from_cache)) => {
                telemetry.jobs_completed.inc();
                let mut table = shared.table.lock().expect("job table");
                table.hot.insert(key, files);
                let record = &mut table.jobs[index];
                record.view.state = JobState::Done;
                record.view.from_cache = from_cache;
                let id = record.view.id;
                table.latest_done = Some(id);
                drop(table);
                shared.wake.notify_all();
                feed.finish(
                    "done",
                    &format!("{{\"job\": {id}, \"from_cache\": {from_cache}}}"),
                );
            }
            Err(message) => {
                telemetry.jobs_failed.inc();
                let mut table = shared.table.lock().expect("job table");
                let record = &mut table.jobs[index];
                record.view.state = JobState::Failed;
                record.view.error = Some(message.clone());
                drop(table);
                shared.wake.notify_all();
                feed.finish(
                    "error",
                    &serde_json::json!({ "job": index as u64, "message": message }).to_string(),
                );
            }
        }
    }
}
