//! Shard scheduling: scoped worker threads, order-stable merging.
//!
//! `run_sharded(n, plan, work)` partitions item indices `0..n` into
//! contiguous shards, executes `work(range)` for each on a pool of scoped
//! threads (workers claim shards through an atomic cursor), and folds
//! the shard results **in shard index order**. As long as `work` is
//! a pure function of its range — which the per-item streams of
//! [`crate::rng`] guarantee for simulation workloads — the merged result
//! is bit-identical for every `(shards, threads)` combination, including
//! the fully serial one.

use crate::merge::Mergeable;
use bb_trace::Log2Histogram;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How to partition and execute a population.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    /// Number of contiguous index shards (≥ 1).
    pub shards: usize,
    /// Number of worker threads (≥ 1).
    pub threads: usize,
}

impl ShardPlan {
    /// Single shard on the calling thread — the seed pipeline's behaviour.
    pub fn serial() -> Self {
        ShardPlan {
            shards: 1,
            threads: 1,
        }
    }

    /// A plan with both knobs clamped to at least 1.
    pub fn new(shards: usize, threads: usize) -> Self {
        ShardPlan {
            shards: shards.max(1),
            threads: threads.max(1),
        }
    }

    /// A plan for `threads` workers with a 4× shard oversubscription so the
    /// atomic cursor can balance uneven shard costs; `None` when that shard
    /// count overflows `usize`.
    pub fn for_threads(threads: usize) -> Option<Self> {
        let threads = threads.max(1);
        let shards = if threads == 1 {
            1
        } else {
            threads.checked_mul(4)?
        };
        Some(ShardPlan { shards, threads })
    }

    /// The contiguous index ranges this plan cuts `0..n_items` into.
    /// Every shard is non-empty except when `n_items == 0`, which yields a
    /// single empty shard so accumulators still get constructed.
    pub fn ranges(&self, n_items: u64) -> Vec<Range<u64>> {
        let shards = (self.shards as u64).min(n_items).max(1);
        let base = n_items / shards;
        let remainder = n_items % shards;
        let mut ranges = Vec::with_capacity(shards as usize);
        let mut start = 0;
        for shard in 0..shards {
            let len = base + u64::from(shard < remainder);
            ranges.push(start..start + len);
            start += len;
        }
        ranges
    }
}

/// Wall-clock statistics for one [`run_sharded`] call.
///
/// Everything in here is a property of the machine and the
/// `(shards, threads)` plan — scheduling, not data. It is deliberately
/// **not** a [`bb_trace::Registry`]: the registry's contract is
/// plan-invariant bytes, and steal counts and shard timings can never
/// honour it. The `reproduce` CLI writes these to a `.runtime.json`
/// sidecar instead of the `--metrics` file.
#[derive(Clone, Debug)]
pub struct RunStats {
    /// Shards the plan actually cut (after clamping to the item count).
    pub shards: usize,
    /// Worker threads actually used.
    pub threads: usize,
    /// Items processed (`n_items`).
    pub items: u64,
    /// Shards a worker claimed beyond its first — how often the atomic
    /// cursor rebalanced work. Serial runs report `shards - 1` (one
    /// worker takes everything).
    pub steals: u64,
    /// Log₂ histogram of per-shard wall time in microseconds (base 1 µs).
    pub shard_wall_us: Log2Histogram,
    /// Wall time of the work phase (all shards done).
    pub work: Duration,
    /// Wall time of the shard-order fold.
    pub merge: Duration,
    /// End-to-end wall time of the call.
    pub total: Duration,
}

/// Execute `work` over every shard of `0..n_items` under `plan`, fold
/// the results in shard order, and report the scheduling side of the run
/// as [`RunStats`]. See the module docs for the determinism contract:
/// the accumulator is bit-identical for every plan, while the stats only
/// observe wall clocks around the same work and the same fold.
pub fn run_sharded<A, F>(n_items: u64, plan: ShardPlan, work: F) -> (A, RunStats)
where
    A: Mergeable + Send,
    F: Fn(Range<u64>) -> A + Sync,
{
    run_sharded_core(n_items, plan, work, Vec::new(), None)
        .expect("no observer attached, so the run cannot fail")
}

/// A per-shard commit hook: called with `(shard index, &result)` right
/// after a shard's work function returns and before its result is parked
/// for the fold. The checkpoint layer uses it to persist each shard; an
/// `Err` stops all workers and aborts the run with that message.
pub(crate) type ShardObserver<'a, A> = &'a (dyn Fn(usize, &A) -> Result<(), String> + Sync);

/// The one shard loop behind [`run_sharded`] and the checkpointed
/// runner in [`crate::checkpoint`].
///
/// `threads` workers claim shards through an atomic cursor; with one
/// thread the single worker runs inline on the calling thread.
/// `preloaded` is either empty (compute everything) or one slot per
/// shard; `Some` slots are restored partials that are folded as-is —
/// they are **not** recomputed, not timed, and not shown to `observer`.
/// Because the fold still walks shards in index order, a run with any
/// subset of shards preloaded is bit-identical to a cold run.
pub(crate) fn run_sharded_core<A, F>(
    n_items: u64,
    plan: ShardPlan,
    work: F,
    preloaded: Vec<Option<A>>,
    observer: Option<ShardObserver<'_, A>>,
) -> Result<(A, RunStats), String>
where
    A: Mergeable + Send,
    F: Fn(Range<u64>) -> A + Sync,
{
    let started = Instant::now();
    let ranges = plan.ranges(n_items);
    let n_shards = ranges.len();
    assert!(
        preloaded.is_empty() || preloaded.len() == n_shards,
        "preloaded slots ({}) must match shard count ({n_shards})",
        preloaded.len()
    );
    let threads = plan.threads.min(n_shards);
    let skip: Vec<bool> = if preloaded.is_empty() {
        vec![false; n_shards]
    } else {
        preloaded.iter().map(Option::is_some).collect()
    };
    let slots: Vec<Mutex<Option<A>>> = if preloaded.is_empty() {
        (0..n_shards).map(|_| Mutex::new(None)).collect()
    } else {
        preloaded.into_iter().map(Mutex::new).collect()
    };
    let cursor = AtomicUsize::new(0);
    // (total claims, workers that claimed ≥ 1 shard, per-shard walls).
    let sched = Mutex::new((0u64, 0u64, Log2Histogram::new()));
    let failed = AtomicBool::new(false);
    let failure: Mutex<Option<String>> = Mutex::new(None);
    let worker = || {
        let mut claims = 0u64;
        let mut walls = Log2Histogram::new();
        loop {
            if failed.load(Ordering::Acquire) {
                break;
            }
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            if index >= n_shards {
                break;
            }
            if skip[index] {
                continue;
            }
            claims += 1;
            let shard_started = Instant::now();
            let result = work(ranges[index].clone());
            walls.push(shard_started.elapsed().as_secs_f64() * 1e6, 1.0);
            if let Some(observe) = observer {
                if let Err(message) = observe(index, &result) {
                    let mut first = failure.lock().expect("failure slot poisoned");
                    first.get_or_insert(message);
                    failed.store(true, Ordering::Release);
                    break;
                }
            }
            *slots[index].lock().expect("shard slot poisoned") = Some(result);
        }
        if claims > 0 {
            let mut sched = sched.lock().expect("sched stats poisoned");
            sched.0 += claims;
            sched.1 += 1;
            sched.2.merge(walls);
        }
    };
    if threads <= 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(worker);
            }
        });
    }
    if let Some(message) = failure.into_inner().expect("failure slot poisoned") {
        return Err(message);
    }
    let (claims, active_workers, shard_wall_us) = sched.into_inner().expect("sched stats poisoned");
    let work_elapsed = started.elapsed();

    let merge_started = Instant::now();
    let merged = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("shard slot poisoned")
                .expect("every shard produces a result")
        })
        .reduce(|mut acc, next| {
            acc.merge(next);
            acc
        })
        .expect("at least one shard");

    let stats = RunStats {
        shards: n_shards,
        threads,
        items: n_items,
        steals: claims.saturating_sub(active_workers),
        shard_wall_us,
        work: work_elapsed,
        merge: merge_started.elapsed(),
        total: started.elapsed(),
    };
    Ok((merged, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moments::ExactMoments;
    use crate::rng::stream_rng;
    use rand::Rng;

    fn simulate(range: Range<u64>) -> (Vec<u64>, ExactMoments) {
        let mut ids = Vec::new();
        let mut moments = ExactMoments::new();
        for item in range {
            let mut rng = stream_rng(99, 1, item);
            ids.push(item);
            moments.push(rng.gen::<f64>() * 100.0);
        }
        (ids, moments)
    }

    #[test]
    fn ranges_cover_exactly_once() {
        for (n, plan) in [
            (0u64, ShardPlan::new(4, 2)),
            (1, ShardPlan::new(8, 4)),
            (7, ShardPlan::new(3, 2)),
            (100, ShardPlan::for_threads(4).unwrap()),
        ] {
            let ranges = plan.ranges(n);
            let mut covered = 0;
            for r in &ranges {
                assert_eq!(r.start, covered, "contiguous");
                covered = r.end;
            }
            assert_eq!(covered, n, "complete");
        }
    }

    #[test]
    fn every_plan_produces_identical_results() {
        let reference = run_sharded(1000, ShardPlan::serial(), simulate).0;
        for plan in [
            ShardPlan::new(8, 1),
            ShardPlan::new(8, 4),
            ShardPlan::new(64, 3),
            ShardPlan::for_threads(4).unwrap(),
        ] {
            let got = run_sharded(1000, plan, simulate).0;
            assert_eq!(got, reference, "{plan:?}");
        }
    }

    #[test]
    fn traced_runs_match_untraced_and_report_scheduling() {
        let reference = run_sharded(500, ShardPlan::serial(), simulate).0;
        let (serial, serial_stats) = run_sharded(500, ShardPlan::new(8, 1), simulate);
        assert_eq!(serial, reference);
        assert_eq!(serial_stats.shards, 8);
        assert_eq!(serial_stats.threads, 1);
        assert_eq!(serial_stats.items, 500);
        assert_eq!(serial_stats.steals, 7, "serial: one worker claims all");
        assert_eq!(serial_stats.shard_wall_us.count(), 8);

        let (parallel, parallel_stats) = run_sharded(500, ShardPlan::new(8, 4), simulate);
        assert_eq!(parallel, reference, "tracing must not perturb the fold");
        assert_eq!(parallel_stats.shard_wall_us.count(), 8);
        assert!(parallel_stats.steals <= 7, "at most shards - workers_used");
        assert!(parallel_stats.total >= parallel_stats.merge);
    }

    #[test]
    fn zero_items_still_initialises() {
        let ((ids, moments), _) = run_sharded(0, ShardPlan::new(8, 4), simulate);
        assert!(ids.is_empty());
        assert_eq!(moments.count(), 0);
    }
}
