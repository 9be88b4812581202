//! Regression test: the scheduler's queue-depth gauge is consistent
//! under concurrent submit/drain.
//!
//! The original code incremented the gauge *after* releasing the job
//! table lock and decremented it in the worker the same way, so a
//! scrape interleaved between the queue edit and the gauge edit could
//! observe a phantom depth — including a negative one when the worker's
//! decrement landed before a submitter's increment. The fix publishes
//! `queue.len()` while the lock is held, making the gauge a snapshot of
//! the protected state. This test hammers submit from several threads
//! while a sampler asserts the gauge never goes negative and ends at
//! exactly zero once the queue drains.

use bb_dataset::RunSpec;
use bb_engine::ShardPlan;
use bb_serve::{Scheduler, ServeTelemetry};
use bb_trace::SystemClock;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tmpdir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

#[test]
fn queue_depth_gauge_never_goes_negative_and_drains_to_zero() {
    let dir = tmpdir("scheduler-gauge");
    let telemetry =
        Arc::new(ServeTelemetry::new(Arc::new(SystemClock::new()), None).expect("telemetry"));
    let scheduler = Arc::new(Scheduler::start(
        &dir,
        ShardPlan::new(2, 1),
        Arc::clone(&telemetry),
    ));

    // A sampler scraping the gauge as fast as it can, like a metrics
    // endpoint under load. Any negative observation is the bug.
    let stop = Arc::new(AtomicBool::new(false));
    let min_seen = Arc::new(AtomicI64::new(0));
    let sampler = {
        let stop = Arc::clone(&stop);
        let min_seen = Arc::clone(&min_seen);
        let telemetry = Arc::clone(&telemetry);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let depth = telemetry.queue_depth.get();
                min_seen.fetch_min(depth, Ordering::Relaxed);
                std::thread::yield_now();
            }
        })
    };

    // Identical specs: the first submission computes, the rest answer
    // from the result cache, so the queue churns fast — maximising
    // submit/drain interleavings per second.
    const THREADS: usize = 4;
    const JOBS_PER_THREAD: usize = 25;
    let submitters: Vec<_> = (0..THREADS)
        .map(|_| {
            let scheduler = Arc::clone(&scheduler);
            std::thread::spawn(move || {
                for _ in 0..JOBS_PER_THREAD {
                    scheduler.submit(RunSpec {
                        users: Some(60),
                        days: 1,
                        fcc_users: 10,
                        ..RunSpec::paper(20141105)
                    });
                }
            })
        })
        .collect();
    for submitter in submitters {
        submitter.join().expect("submitter thread");
    }

    // Wait for the worker to drain everything.
    let total = (THREADS * JOBS_PER_THREAD) as u64;
    let deadline = Instant::now() + Duration::from_secs(120);
    while telemetry.jobs_completed.get() + telemetry.jobs_failed.get() < total {
        assert!(
            Instant::now() < deadline,
            "queue did not drain: {} of {total} jobs finished",
            telemetry.jobs_completed.get() + telemetry.jobs_failed.get()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    stop.store(true, Ordering::Relaxed);
    sampler.join().expect("sampler thread");

    assert!(
        min_seen.load(Ordering::Relaxed) >= 0,
        "the queue-depth gauge dipped to {} under concurrent submit/drain",
        min_seen.load(Ordering::Relaxed)
    );
    assert_eq!(
        telemetry.queue_depth.get(),
        0,
        "a drained queue must read depth 0"
    );
}
