//! Measurement helpers shared by the workloads: sample statistics, the
//! open-loop request schedule, the output digest, per-thread layer clocks,
//! and the pass/fail tally.

use bb_engine::{fnv1a64, splitmix64};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One reported number: a metric name from `BENCHMARK.json`, its value
/// and unit, and how many samples it summarises.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub n: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, n: usize) -> Self {
        Metric {
            name,
            value,
            unit,
            n,
        }
    }
}

/// Median of `values` (the mean of the middle pair for even counts);
/// 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, computed exactly like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads read the same here as in any external check.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest-rank percentile of `values` at `permille` (990 = p99); 0 for
/// no samples. Integer ranks keep p99.9 of 10,000 samples exact.
pub fn percentile(values: &[f64], permille: usize) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    v[rank(v.len(), permille).max(1) - 1]
}

/// 1-based nearest rank of the `permille` point among `n` samples.
fn rank(n: usize, permille: usize) -> usize {
    (permille * n).div_ceil(1000)
}

/// The highest point a tail is reported at, in permille: p99, which a
/// `serve` run's ~4,000 reads support with ~40 samples beyond it.
const TAIL_CAP_PERMILLE: usize = 990;

/// A latency tail: its percentile, its value, and the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub n: usize,
}

/// The highest percentile, up to p99, that still has at least ten
/// samples beyond it. With 1,000 samples or more that is p99; with fewer
/// it is the sample ten from the top, so the point moves smoothly with
/// the sample count. When that would fall to the median or below, the
/// median stands in, so a tail never reads below the median.
pub fn tail(values: &[f64]) -> Tail {
    let n = values.len();
    let top = rank(n, TAIL_CAP_PERMILLE).min(n.saturating_sub(10));
    if 2 * top <= n {
        return Tail {
            percentile: 50.0,
            value: median(values),
            n,
        };
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Tail {
        percentile: 100.0 * top as f64 / n as f64,
        value: v[top - 1],
        n,
    }
}

/// `latency_p50_ms` (end to end) and `latency_tail_ms` (per layer) over
/// one run's answers, given in milliseconds. The tail's percentile goes
/// to standard error.
pub fn latency(workload: &str, ms: &[f64]) -> [Metric; 2] {
    let t = tail(ms);
    eprintln!(
        "benchmark: {workload} latency tail is p{:.1} of {} answers",
        t.percentile, t.n
    );
    [
        Metric::new("latency_p50_ms", median(ms), "ms", ms.len()),
        Metric::new("latency_tail_ms", t.value, "ms", t.n),
    ]
}

/// One request of an open loop: how long after its due time it
/// completed, and how late it was sent.
#[derive(Clone, Copy, Debug)]
pub struct Sent {
    pub index: usize,
    pub latency: Duration,
    pub lag: Duration,
}

/// Drive `op` on a fixed schedule: request `i` is due at `start +
/// due[i]` and is sent then, or as soon as the previous request returns
/// if that is later. Latency runs from the due time, so a stall is
/// charged to every request queued behind it, as a user arriving on
/// schedule would see it. Requests due at or after `until` are not sent.
pub fn open_loop(
    start: Instant,
    due: &[Duration],
    until: Instant,
    mut op: impl FnMut(usize),
) -> Vec<Sent> {
    let mut sent = Vec::with_capacity(due.len());
    for (index, offset) in due.iter().enumerate() {
        let due_at = start + *offset;
        if due_at >= until {
            break;
        }
        let now = Instant::now();
        if now < due_at {
            std::thread::sleep(due_at - now);
        }
        let lag = Instant::now().saturating_duration_since(due_at);
        op(index);
        sent.push(Sent {
            index,
            latency: Instant::now().saturating_duration_since(due_at),
            lag,
        });
    }
    sent
}

/// Seeded Poisson arrival offsets at `rate` per second, covering
/// `horizon`.
pub fn poisson_schedule(seed: u64, rate: f64, horizon: Duration) -> Vec<Duration> {
    let mut rng = SplitMix(seed);
    let mut t = 0.0;
    let mut due = Vec::new();
    while t < horizon.as_secs_f64() {
        due.push(Duration::from_secs_f64(t));
        // Exponential gap; 1 - u lies in (0, 1], so the log is finite.
        t += -(1.0 - rng.unit()).ln() / rate;
    }
    due
}

/// A splitmix64 sequence for schedules and route picks, kept apart from
/// the simulation's own streams.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        let out = splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        out
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// FNV-1a digest of a file set, names and contents length-prefixed so
/// that moving bytes between files changes it.
pub fn digest(files: &[(String, String)]) -> String {
    let mut buf = Vec::new();
    for (name, content) in files {
        for part in [name.as_bytes(), content.as_bytes()] {
            buf.extend_from_slice(&(part.len() as u64).to_le_bytes());
            buf.extend_from_slice(part);
        }
    }
    format!("{:016x}", fnv1a64(&buf))
}

/// Time spent in one layer by calls made on engine threads (the absorb
/// closure, the coordinator's validator): relaxed atomic sums, read once
/// the threads are done.
#[derive(Debug, Default)]
pub struct LayerClock {
    nanos: AtomicU64,
    calls: AtomicU64,
    bytes: AtomicU64,
}

impl LayerClock {
    pub fn time<T>(&self, bytes: usize, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        out
    }

    /// `(time, calls, bytes)` accumulated so far, and reset to zero.
    pub fn take(&self) -> (Duration, u64, u64) {
        (
            Duration::from_nanos(self.nanos.swap(0, Ordering::Relaxed)),
            self.calls.swap(0, Ordering::Relaxed),
            self.bytes.swap(0, Ordering::Relaxed),
        )
    }
}

/// Operations attempted and failed, with the first few failure reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    /// Count one operation; an `Err` is a failure.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = result {
            self.failed += 1;
            self.note(reason);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        other.reasons.into_iter().for_each(|r| self.note(r));
    }

    fn note(&mut self, reason: String) {
        if self.reasons.len() < 8 {
            self.reasons.push(reason);
        }
    }
}

/// `Ok` when `a == b`, else an error naming `what` and both values.
pub fn expect_eq<T: PartialEq + std::fmt::Debug>(what: &str, a: T, b: T) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("{what}: {a:?} != {b:?}"))
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Set up `reps` times, pushing each one's wall seconds onto `samples`,
/// and keep the last result. Set-ups repeated before every job make
/// `setup_s` a median over the whole run rather than over one moment.
pub fn set_up_reps<T>(reps: usize, samples: &mut Vec<f64>, mut f: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let out = f();
        samples.push(secs(start.elapsed()));
        // The previous result drops here, outside the timed region.
        last = Some(out);
    }
    last.expect("at least one set-up")
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

pub fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        let tail_of = |n: u32| {
            let v: Vec<f64> = (1..=n).map(f64::from).collect();
            let t = tail(&v);
            assert_eq!(t.n, n as usize);
            (t.percentile, t.value)
        };
        // Capped at p99 once 1,000 samples leave ten beyond it.
        assert_eq!(tail_of(4000), (99.0, 3960.0));
        assert_eq!(tail_of(1000), (99.0, 990.0));
        // Below that, the sample with exactly ten beyond it.
        assert_eq!(tail_of(999).1, 989.0);
        assert_eq!(tail_of(100), (90.0, 90.0));
        assert_eq!(tail_of(40), (75.0, 30.0));
        assert_eq!(tail_of(32).1, 22.0);
        // Too few samples for any tail: the median stands in.
        assert_eq!(tail_of(20), (50.0, 10.5));
        assert_eq!(tail(&[5.0, 1.0, 3.0]).value, 3.0);
        assert_eq!(tail(&[]).n, 0);
    }

    #[test]
    fn open_loop_charges_a_stall_to_every_later_request() {
        // Ten requests due every 10 ms; request 2 stalls for 60 ms. The
        // requests due during the stall go out late, and each one's
        // latency, timed from its due time, carries the wait.
        let due: Vec<Duration> = (0..10).map(|i| Duration::from_millis(10 * i)).collect();
        let start = Instant::now();
        let sent = open_loop(start, &due, start + Duration::from_secs(5), |i| {
            if i == 2 {
                std::thread::sleep(Duration::from_millis(60));
            }
        });
        assert_eq!(sent.len(), 10);
        let stall_end = 20 + 60;
        for s in &sent[3..] {
            let due_ms = 10 * s.index as u64;
            if due_ms < stall_end {
                let owed = Duration::from_millis(stall_end - due_ms);
                assert!(
                    s.latency >= owed,
                    "request {}: {:?} < {owed:?}",
                    s.index,
                    s.latency
                );
                assert!(
                    s.lag >= owed,
                    "request {} sent only {:?} late",
                    s.index,
                    s.lag
                );
            }
        }
        // Nothing is sent at or past `until`.
        let start = Instant::now();
        let sent = open_loop(start, &due, start + Duration::from_millis(25), |_| ());
        assert_eq!(sent.len(), 3);
    }

    #[test]
    fn poisson_schedule_is_seeded_and_near_its_rate() {
        let a = poisson_schedule(7, 200.0, Duration::from_secs(20));
        assert_eq!(a, poisson_schedule(7, 200.0, Duration::from_secs(20)));
        assert_ne!(a, poisson_schedule(8, 200.0, Duration::from_secs(20)));
        assert!((3600..4400).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn digest_separates_file_boundaries() {
        let file = |n: &str, c: &str| vec![(n.to_string(), c.to_string())];
        assert_ne!(digest(&file("x", "ab")), digest(&file("xa", "b")));
        assert_eq!(digest(&file("x", "ab")), digest(&file("x", "ab")));
    }
}
