//! Live service telemetry: a concurrent, lock-sparse metrics registry.
//!
//! [`Registry`](crate::Registry) deliberately cannot describe a running
//! *service*: it is `&mut self`, merged in shard order, and pinned to be
//! a pure function of the seed so it can live in byte-identical
//! artifacts. A gateway needs the opposite — many threads recording
//! latencies, queue depths and error counts *while* requests are in
//! flight, into state that is wall-clock-dependent by definition.
//! [`Telemetry`] is that other half:
//!
//! - [`Counter`] / [`Gauge`]: single atomics, incremented lock-free;
//! - [`AtomicLog2Histogram`]: the same `(2^(k-1), 2^k]` bucket
//!   convention as [`Log2Histogram`](crate::Log2Histogram), but over a
//!   fixed array of atomics so concurrent observers never contend on a
//!   lock;
//! - [`TimeSeries`]: a fixed-capacity per-second ring buffer for
//!   sliding-window rates (requests/sec, cache hits over the last
//!   minute);
//! - [`Telemetry`]: the registry tying names (+ label sets) to handles.
//!   Registration takes a short mutex; instrumentation sites hold the
//!   returned `Arc` handles and record through plain atomics.
//!
//! Time is injected through the [`Clock`] trait so every sliding-window
//! behaviour is testable on a [`FakeClock`]; production uses
//! [`SystemClock`]. Rendering is either a JSON snapshot
//! ([`Telemetry::to_json`], including the raw ring-buffer windows) or
//! Prometheus text exposition ([`Telemetry::to_prometheus`], mapping
//! log₂ buckets onto cumulative `le` buckets).
//!
//! Two subsystems register instrument families here. The gateway
//! (`bb-serve`) owns the `serve.*` names — RED metrics, queue depth,
//! job wall times. The federation coordinator (`bb-federate`) owns
//! `federate.*`: `federate.workers.connected` and the per-worker
//! `federate.worker.{inflight,assigned,merged}` gauges/counters,
//! `federate.reassignments` labelled by cause (`worker-lost`,
//! `lease-expired`, `rejected-result`), `federate.frames.rejected` /
//! `federate.results.{rejected,duplicate}`, and the
//! `federate.shard.round_trip_us` histogram. Survivability adds two
//! more families: `federate.reconnect.accepted` counts Hello frames
//! that arrived with a non-zero `prior` session ordinal (a worker that
//! came back through its backoff loop), and `federate.deadline.expired`
//! — labelled by `phase` (`handshake`, `session`, `write`) — counts
//! sockets the coordinator abandoned because a read or write sat past
//! its deadline. The coordinator also leases shards against
//! [`Telemetry::now_micros`], so lease-expiry behaviour is testable on
//! a [`FakeClock`] like any sliding window.
//!
//! Everything here is plan-, process- and wall-clock-dependent. None of
//! it may ever be written into `metrics.json`, the ledger, or an exhibit
//! file — the byte-identity tests pin that separation.

use crate::event::write_json_string;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A source of time for telemetry: monotonic microseconds for durations
/// and sliding windows, Unix epoch seconds for log timestamps.
pub trait Clock: Send + Sync {
    /// Microseconds since an arbitrary fixed origin (typically process
    /// start). Must never go backwards.
    fn now_micros(&self) -> u64;
    /// Seconds since the Unix epoch (wall clock, for log timestamps).
    fn epoch_secs(&self) -> u64;
}

/// The production clock: `Instant` for monotonic time, `SystemTime` for
/// wall timestamps.
#[derive(Debug)]
pub struct SystemClock {
    origin: Instant,
}

impl SystemClock {
    /// A clock whose monotonic origin is now.
    pub fn new() -> Self {
        SystemClock {
            origin: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn now_micros(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    fn epoch_secs(&self) -> u64 {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0)
    }
}

/// A hand-cranked clock for tests: time only moves when told to.
#[derive(Debug, Default)]
pub struct FakeClock {
    micros: AtomicU64,
    epoch: AtomicU64,
}

impl FakeClock {
    /// A clock at monotonic zero, epoch zero.
    pub fn new() -> Self {
        FakeClock::default()
    }

    /// Advance monotonic time by `micros` (the epoch advances by the
    /// same whole seconds).
    pub fn advance_micros(&self, micros: u64) {
        self.micros.fetch_add(micros, Ordering::Relaxed);
        self.epoch.fetch_add(micros / 1_000_000, Ordering::Relaxed);
    }

    /// Advance monotonic time by whole seconds.
    pub fn advance_secs(&self, secs: u64) {
        self.advance_micros(secs * 1_000_000);
    }
}

impl Clock for FakeClock {
    fn now_micros(&self) -> u64 {
        self.micros.load(Ordering::Relaxed)
    }

    fn epoch_secs(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }
}

/// A monotonically increasing `u64`, incremented lock-free.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (queue depth, in-flight requests).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Add `delta` (negative to decrement).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Overwrite with `value`.
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Bucket index of `value` under the workspace's log₂ convention:
/// bucket `k` covers `(2^(k-1), 2^k]`, with 0 and 1 sharing bucket 0.
/// Identical maths to `Log2Histogram::bucket_of` at base 1, restricted
/// to unsigned integers (there are no negative durations).
fn log2_bucket(value: u64) -> usize {
    if value <= 1 {
        0
    } else {
        (64 - (value - 1).leading_zeros()) as usize
    }
}

/// Number of log₂ buckets needed to cover all of `u64` (k = 0..=64).
const HIST_BUCKETS: usize = 65;

/// A concurrent log₂ histogram over `u64` values (typically µs).
///
/// The same `(2^(k-1), 2^k]` buckets as
/// [`Log2Histogram`](crate::Log2Histogram), but held in a fixed array of
/// atomics so any number of threads can observe without locking. Because
/// every bucket's upper edge is an exact power of two, the buckets map
/// losslessly onto cumulative Prometheus `le` buckets.
#[derive(Debug)]
pub struct AtomicLog2Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
}

impl Default for AtomicLog2Histogram {
    fn default() -> Self {
        AtomicLog2Histogram {
            buckets: [(); HIST_BUCKETS].map(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

impl AtomicLog2Histogram {
    /// Record one observation.
    pub fn observe(&self, value: u64) {
        self.buckets[log2_bucket(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observed values (wraps at `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// `(bucket index, count)` for every non-empty bucket, ascending.
    /// Bucket `k` covers `(2^(k-1), 2^k]` (bucket 0 covers `[0, 1]`).
    pub fn buckets(&self) -> Vec<(u32, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(k, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((k as u32, n))
            })
            .collect()
    }
}

/// A fixed-capacity per-second ring buffer: the event counts of the last
/// `capacity` seconds, for sliding-window rates.
///
/// Each slot owns one absolute second (`sec % capacity`); recording into
/// a slot whose stored second is stale claims it for the current second
/// and resets its count. Under concurrent claiming of the *same* new
/// second a few events may land in a slot that is reset a moment later —
/// sliding-window rates are approximate by design (and exact under a
/// [`FakeClock`], which is what the tests use).
#[derive(Debug)]
pub struct TimeSeries {
    slots: Vec<Slot>,
}

#[derive(Debug, Default)]
struct Slot {
    /// The absolute second this slot currently counts, offset by one so
    /// the all-zero initial state never aliases second 0.
    sec1: AtomicU64,
    count: AtomicU64,
}

impl TimeSeries {
    /// A ring covering the last `capacity` seconds (at least 1).
    pub fn new(capacity: usize) -> Self {
        TimeSeries {
            slots: (0..capacity.max(1)).map(|_| Slot::default()).collect(),
        }
    }

    /// Seconds of history the ring can hold.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Count `n` events at absolute second `sec`.
    pub fn record_at(&self, sec: u64, n: u64) {
        let slot = &self.slots[(sec as usize) % self.slots.len()];
        let sec1 = sec + 1;
        let stored = slot.sec1.load(Ordering::Relaxed);
        if stored != sec1 {
            if stored > sec1 {
                return; // a newer second owns this slot; drop the late event
            }
            // Claim the slot for `sec`; exactly one claimer resets it.
            if slot
                .sec1
                .compare_exchange(stored, sec1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                slot.count.store(0, Ordering::Relaxed);
            } else if slot.sec1.load(Ordering::Relaxed) != sec1 {
                return;
            }
        }
        slot.count.fetch_add(n, Ordering::Relaxed);
    }

    /// Total events in the `window`-second window ending at second `now`
    /// (inclusive): seconds `now - window + 1 ..= now`.
    pub fn window_sum(&self, now: u64, window: u64) -> u64 {
        self.samples(now, window).iter().map(|&(_, n)| n).sum()
    }

    /// `(second, count)` for every populated second inside the window,
    /// ascending. The window is clamped to the ring's capacity.
    pub fn samples(&self, now: u64, window: u64) -> Vec<(u64, u64)> {
        let window = window.min(self.slots.len() as u64).min(now + 1);
        let lo = now + 1 - window;
        let mut out = Vec::new();
        for sec in lo..=now {
            let slot = &self.slots[(sec as usize) % self.slots.len()];
            if slot.sec1.load(Ordering::Relaxed) == sec + 1 {
                let n = slot.count.load(Ordering::Relaxed);
                if n > 0 {
                    out.push((sec, n));
                }
            }
        }
        out
    }
}

/// A metric's identity: family name plus a sorted label set.
///
/// Names follow the workspace's dotted convention (`serve.requests`);
/// the Prometheus renderer maps them to exposition-safe underscores.
/// Label keys are `&'static str` (literals at instrumentation sites);
/// values are owned (route templates, status classes).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricId {
    name: &'static str,
    labels: Vec<(&'static str, String)>,
}

impl MetricId {
    /// An id for `name` with `labels` (sorted by key internally).
    pub fn new(name: &'static str, labels: &[(&'static str, &str)]) -> Self {
        let mut labels: Vec<(&'static str, String)> =
            labels.iter().map(|&(k, v)| (k, v.to_string())).collect();
        labels.sort();
        MetricId { name, labels }
    }

    /// The family name (without labels).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The sorted label set.
    pub fn labels(&self) -> &[(&'static str, String)] {
        &self.labels
    }

    /// `name{k="v",...}` (or just `name`), for JSON snapshot keys.
    pub fn render(&self) -> String {
        let mut out = String::from(self.name);
        out.push_str(&self.render_labels());
        out
    }

    /// `{k="v",...}` with escaped values, or `""` without labels.
    fn render_labels(&self) -> String {
        if self.labels.is_empty() {
            return String::new();
        }
        let mut out = String::from("{");
        for (i, (k, v)) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let escaped = v.replace('\\', "\\\\").replace('"', "\\\"");
            let _ = write!(out, "{k}=\"{escaped}\"");
        }
        out.push('}');
        out
    }
}

/// Map a dotted metric name to a Prometheus-safe one: every character
/// outside `[a-zA-Z0-9_:]` becomes `_`.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// The concurrent telemetry registry: names to handles.
///
/// Registration (`counter`, `gauge`, `histogram`, `time_series`) takes a
/// short mutex and is idempotent — the same [`MetricId`] always returns
/// the same handle, so call sites may either cache the `Arc` (hot paths)
/// or re-register per event (cold paths). Recording through a handle is
/// lock-free.
pub struct Telemetry {
    clock: Arc<dyn Clock>,
    start_micros: u64,
    counters: Mutex<BTreeMap<MetricId, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<MetricId, Arc<Gauge>>>,
    hists: Mutex<BTreeMap<MetricId, Arc<AtomicLog2Histogram>>>,
    series: Mutex<BTreeMap<MetricId, Arc<TimeSeries>>>,
}

/// Ring capacity of [`Telemetry::time_series`] ring buffers: two minutes
/// of per-second slots, enough for any sub-minute sliding window.
pub const SERIES_CAPACITY: usize = 120;

/// The sliding window the renderers report for time series, seconds.
pub const SERIES_WINDOW_SECS: u64 = 60;

impl Telemetry {
    /// A registry on the given clock.
    pub fn new(clock: Arc<dyn Clock>) -> Self {
        let start_micros = clock.now_micros();
        Telemetry {
            clock,
            start_micros,
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            hists: Mutex::new(BTreeMap::new()),
            series: Mutex::new(BTreeMap::new()),
        }
    }

    /// A registry on the system clock.
    pub fn system() -> Self {
        Telemetry::new(Arc::new(SystemClock::new()))
    }

    /// Monotonic microseconds from the underlying clock.
    pub fn now_micros(&self) -> u64 {
        self.clock.now_micros()
    }

    /// Monotonic seconds (for time-series slots).
    pub fn now_secs(&self) -> u64 {
        self.clock.now_micros() / 1_000_000
    }

    /// Wall-clock Unix seconds (for log timestamps).
    pub fn epoch_secs(&self) -> u64 {
        self.clock.epoch_secs()
    }

    /// Seconds since this registry was created.
    pub fn uptime_secs(&self) -> u64 {
        (self.clock.now_micros() - self.start_micros) / 1_000_000
    }

    /// Register (or look up) a label-less counter.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        self.counter_with(name, &[])
    }

    /// Register (or look up) a counter with labels.
    pub fn counter_with(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Arc<Counter> {
        let id = MetricId::new(name, labels);
        Arc::clone(
            self.counters
                .lock()
                .expect("telemetry counters")
                .entry(id)
                .or_default(),
        )
    }

    /// Register (or look up) a label-less gauge.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        self.gauge_with(name, &[])
    }

    /// Register (or look up) a gauge with labels.
    pub fn gauge_with(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Arc<Gauge> {
        let id = MetricId::new(name, labels);
        Arc::clone(
            self.gauges
                .lock()
                .expect("telemetry gauges")
                .entry(id)
                .or_default(),
        )
    }

    /// Register (or look up) a label-less histogram.
    pub fn histogram(&self, name: &'static str) -> Arc<AtomicLog2Histogram> {
        self.histogram_with(name, &[])
    }

    /// Register (or look up) a histogram with labels.
    pub fn histogram_with(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Arc<AtomicLog2Histogram> {
        let id = MetricId::new(name, labels);
        Arc::clone(
            self.hists
                .lock()
                .expect("telemetry histograms")
                .entry(id)
                .or_default(),
        )
    }

    /// Register (or look up) a label-less per-second time series
    /// ([`SERIES_CAPACITY`] seconds of ring).
    pub fn time_series(&self, name: &'static str) -> Arc<TimeSeries> {
        self.time_series_with(name, &[])
    }

    /// Register (or look up) a time series with labels.
    pub fn time_series_with(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Arc<TimeSeries> {
        let id = MetricId::new(name, labels);
        Arc::clone(
            self.series
                .lock()
                .expect("telemetry series")
                .entry(id)
                .or_insert_with(|| Arc::new(TimeSeries::new(SERIES_CAPACITY))),
        )
    }

    /// Record one event *now* into the time series `name{labels}`.
    pub fn mark(&self, name: &'static str, labels: &[(&'static str, &str)]) {
        self.time_series_with(name, labels)
            .record_at(self.now_secs(), 1);
    }

    /// Prometheus text exposition of everything registered.
    ///
    /// Dotted names become underscore names; every family gets one
    /// `# TYPE` line; histograms render as cumulative `le` buckets whose
    /// edges are the exact powers of two bounding the log₂ buckets, plus
    /// `_sum` and `_count`; time series render as gauges of the
    /// [`SERIES_WINDOW_SECS`]-second window sum, labelled
    /// `window="60s"`.
    pub fn to_prometheus(&self) -> String {
        let now = self.now_secs();
        let mut out = String::new();

        // Counters and gauges share a shape: family → samples.
        let counters: Vec<(MetricId, u64)> = {
            let map = self.counters.lock().expect("telemetry counters");
            map.iter().map(|(id, c)| (id.clone(), c.get())).collect()
        };
        render_simple_families(
            &mut out,
            "counter",
            counters.iter().map(|(id, v)| (id, *v as f64)),
        );

        let gauges: Vec<(MetricId, i64)> = {
            let map = self.gauges.lock().expect("telemetry gauges");
            map.iter().map(|(id, g)| (id.clone(), g.get())).collect()
        };
        render_simple_families(
            &mut out,
            "gauge",
            gauges.iter().map(|(id, v)| (id, *v as f64)),
        );

        // Time series: windowed sums as gauges. The family name gets a
        // `_window` suffix so it can never collide with the counter of
        // the same dotted name (`serve.cache.hits` renders both as the
        // monotone counter `serve_cache_hits` and as the sliding-window
        // gauge `serve_cache_hits_window` — one TYPE line each).
        let series: Vec<(MetricId, u64)> = {
            let map = self.series.lock().expect("telemetry series");
            map.iter()
                .map(|(id, s)| (id.clone(), s.window_sum(now, SERIES_WINDOW_SECS)))
                .collect()
        };
        let mut last_family = String::new();
        for (id, sum) in &series {
            let family = format!("{}_window", prom_name(id.name()));
            if family != last_family {
                let _ = writeln!(out, "# TYPE {family} gauge");
                last_family = family.clone();
            }
            let mut labels: Vec<(&'static str, &str)> =
                id.labels().iter().map(|(k, v)| (*k, v.as_str())).collect();
            let window = format!("{SERIES_WINDOW_SECS}s");
            labels.push(("window", &window));
            let with_window = MetricId::new(id.name(), &labels);
            let _ = writeln!(out, "{family}{} {sum}", with_window.render_labels());
        }

        // Histograms: cumulative le buckets + _sum + _count.
        type HistRow = (MetricId, Vec<(u32, u64)>, u64, u64);
        let hists: Vec<HistRow> = {
            let map = self.hists.lock().expect("telemetry histograms");
            map.iter()
                .map(|(id, h)| (id.clone(), h.buckets(), h.sum(), h.count()))
                .collect()
        };
        let mut last_family = String::new();
        for (id, buckets, sum, count) in &hists {
            let family = prom_name(id.name());
            if *family != last_family {
                let _ = writeln!(out, "# TYPE {family} histogram");
                last_family = family.clone();
            }
            let labels = id.render_labels();
            let joined = |extra: &str| -> String {
                // Insert `le` into the existing label set (or create one).
                if labels.is_empty() {
                    format!("{{{extra}}}")
                } else {
                    format!("{},{extra}}}", &labels[..labels.len() - 1])
                }
            };
            let mut cumulative = 0u64;
            for &(k, n) in buckets {
                cumulative += n;
                // Bucket k covers (2^(k-1), 2^k]; le = 2^k is exact.
                let le = 1u128 << k;
                let _ = writeln!(
                    out,
                    "{family}_bucket{} {cumulative}",
                    joined(&format!("le=\"{le}\""))
                );
            }
            let _ = writeln!(out, "{family}_bucket{} {count}", joined("le=\"+Inf\""));
            let _ = writeln!(out, "{family}_sum{labels} {sum}");
            let _ = writeln!(out, "{family}_count{labels} {count}");
        }
        out
    }

    /// The full state as a JSON document, including the per-second ring
    /// windows — the `/debug/telemetry` payload. Keys are
    /// `name{label="value"}` strings in sorted order.
    pub fn to_json(&self) -> String {
        let now = self.now_secs();
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"uptime_secs\": {},", self.uptime_secs());
        let _ = writeln!(out, "  \"now_secs\": {now},");

        out.push_str("  \"counters\": {");
        {
            let map = self.counters.lock().expect("telemetry counters");
            let mut first = true;
            for (id, c) in map.iter() {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str("\n    ");
                write_json_string(&mut out, &id.render());
                let _ = write!(out, ": {}", c.get());
            }
            if !map.is_empty() {
                out.push_str("\n  ");
            }
        }
        out.push_str("},\n  \"gauges\": {");
        {
            let map = self.gauges.lock().expect("telemetry gauges");
            let mut first = true;
            for (id, g) in map.iter() {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str("\n    ");
                write_json_string(&mut out, &id.render());
                let _ = write!(out, ": {}", g.get());
            }
            if !map.is_empty() {
                out.push_str("\n  ");
            }
        }
        out.push_str("},\n  \"histograms\": {");
        {
            let map = self.hists.lock().expect("telemetry histograms");
            let mut first = true;
            for (id, h) in map.iter() {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str("\n    ");
                write_json_string(&mut out, &id.render());
                let _ = write!(
                    out,
                    ": {{\"count\": {}, \"sum\": {}, \"buckets\": [",
                    h.count(),
                    h.sum()
                );
                for (i, (k, n)) in h.buckets().iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "[{k}, {n}]");
                }
                out.push_str("]}");
            }
            if !map.is_empty() {
                out.push_str("\n  ");
            }
        }
        out.push_str("},\n  \"series\": {");
        {
            let map = self.series.lock().expect("telemetry series");
            let mut first = true;
            for (id, s) in map.iter() {
                if !first {
                    out.push(',');
                }
                first = false;
                let window = s.window_sum(now, SERIES_WINDOW_SECS);
                out.push_str("\n    ");
                write_json_string(&mut out, &id.render());
                let _ = write!(
                    out,
                    ": {{\"window_secs\": {SERIES_WINDOW_SECS}, \"window_sum\": {window}, \"per_sec\": ["
                );
                for (i, (sec, n)) in s.samples(now, s.capacity() as u64).iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "[{sec}, {n}]");
                }
                out.push_str("]}");
            }
            if !map.is_empty() {
                out.push_str("\n  ");
            }
        }
        out.push_str("}\n}\n");
        out
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("uptime_secs", &self.uptime_secs())
            .finish()
    }
}

/// Emit `# TYPE` + samples for a sorted run of counter/gauge ids.
fn render_simple_families<'a>(
    out: &mut String,
    kind: &str,
    samples: impl Iterator<Item = (&'a MetricId, f64)>,
) {
    let mut last_family = String::new();
    for (id, value) in samples {
        let family = prom_name(id.name());
        if family != last_family {
            let _ = writeln!(out, "# TYPE {family} {kind}");
            last_family = family.clone();
        }
        let _ = writeln!(out, "{family}{} {value}", id.render_labels());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Log2Histogram;

    fn fake() -> (Arc<FakeClock>, Telemetry) {
        let clock = Arc::new(FakeClock::new());
        let telemetry = Telemetry::new(Arc::clone(&clock) as Arc<dyn Clock>);
        (clock, telemetry)
    }

    #[test]
    fn counters_and_gauges_are_shared_by_identity() {
        let (_, t) = fake();
        let a = t.counter_with("serve.requests", &[("route", "/jobs")]);
        let b = t.counter_with("serve.requests", &[("route", "/jobs")]);
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4, "same id must share one atomic");
        let other = t.counter_with("serve.requests", &[("route", "/metrics")]);
        assert_eq!(other.get(), 0);
        let g = t.gauge("serve.in_flight");
        g.add(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
        g.set(0);
        assert_eq!(t.gauge("serve.in_flight").get(), 0);
    }

    #[test]
    fn atomic_histogram_buckets_match_log2_histogram() {
        let atomic = AtomicLog2Histogram::default();
        let mut reference = Log2Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 5, 1000, 1024, 1025, u64::MAX] {
            atomic.observe(v);
            // The reference puts 0 in `nonpositive` and 1 in bucket 0;
            // the atomic folds both into bucket 0 (durations are never
            // negative, so the nonpositive distinction is meaningless).
            if v >= 1 {
                reference.push(v as f64, 1.0);
            }
        }
        let got: Vec<(u32, u64)> = atomic.buckets();
        // Bucket 0 holds both the 0 and the 1.
        assert_eq!(got[0], (0, 2));
        // Every other bucket agrees with the f64 reference (u64::MAX
        // rounds up in f64, still bucket 64).
        let reference: Vec<(i32, u64)> = reference.buckets().collect();
        for &(k, n) in &got[1..] {
            assert!(
                reference.contains(&(k as i32, n)),
                "bucket {k} count {n} missing from reference {reference:?}"
            );
        }
        assert_eq!(atomic.count(), 10);
    }

    #[test]
    fn log2_bucket_edges_are_exact() {
        // Bucket k covers (2^(k-1), 2^k].
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 0);
        assert_eq!(log2_bucket(2), 1);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 2);
        assert_eq!(log2_bucket(5), 3);
        for k in 1..=63u32 {
            let edge = 1u64 << k;
            assert_eq!(log2_bucket(edge), k as usize, "2^{k} belongs to bucket {k}");
            assert_eq!(log2_bucket(edge + 1), k as usize + 1);
        }
        assert_eq!(log2_bucket(u64::MAX), 64);
    }

    #[test]
    fn time_series_windows_slide_and_slots_recycle() {
        let ts = TimeSeries::new(5);
        ts.record_at(10, 2);
        ts.record_at(11, 1);
        ts.record_at(13, 4);
        assert_eq!(ts.window_sum(13, 5), 7);
        assert_eq!(ts.window_sum(13, 1), 4);
        assert_eq!(ts.window_sum(12, 2), 1, "window ending before sec 13");
        assert_eq!(ts.samples(13, 5), vec![(10, 2), (11, 1), (13, 4)]);
        // Second 15 reuses second 10's slot (15 % 5 == 0 == 10 % 5).
        ts.record_at(15, 8);
        assert_eq!(
            ts.window_sum(15, 5),
            13,
            "11 dropped out, 10's slot recycled"
        );
        assert_eq!(ts.samples(15, 5), vec![(11, 1), (13, 4), (15, 8)]);
        // A late event for an evicted second is dropped, not misfiled.
        ts.record_at(10, 100);
        assert_eq!(ts.window_sum(15, 5), 13);
    }

    #[test]
    fn fake_clock_drives_mark_and_uptime() {
        let (clock, t) = fake();
        t.mark("serve.cache.hits", &[]);
        clock.advance_secs(30);
        t.mark("serve.cache.hits", &[]);
        t.mark("serve.cache.hits", &[]);
        let ts = t.time_series("serve.cache.hits");
        assert_eq!(ts.window_sum(t.now_secs(), 60), 3);
        clock.advance_secs(45);
        // The first mark (75 s ago) has left the 60 s window.
        assert_eq!(ts.window_sum(t.now_secs(), 60), 2);
        assert_eq!(t.uptime_secs(), 75);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let (_, t) = fake();
        let t = Arc::new(t);
        let counter = t.counter("stress.count");
        let hist = t.histogram("stress.hist");
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let (counter, hist) = (Arc::clone(&counter), Arc::clone(&hist));
                std::thread::spawn(move || {
                    for j in 0..1000u64 {
                        counter.inc();
                        hist.observe(i * 1000 + j);
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert_eq!(counter.get(), 8000);
        assert_eq!(hist.count(), 8000);
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let (clock, t) = fake();
        t.counter_with(
            "serve.requests",
            &[("method", "GET"), ("route", "/jobs/{id}")],
        )
        .add(4);
        t.counter("serve.panics");
        t.gauge("serve.queue_depth").set(2);
        let h = t.histogram_with("serve.request_us", &[("route", "/jobs/{id}")]);
        h.observe(3); // bucket 2, le 4
        h.observe(4); // bucket 2, le 4
        h.observe(900); // bucket 10, le 1024
        t.mark("serve.cache.hits", &[]);
        clock.advance_secs(1);
        let prom = t.to_prometheus();

        assert!(prom.contains("# TYPE serve_requests counter"), "{prom}");
        assert!(
            prom.contains("serve_requests{method=\"GET\",route=\"/jobs/{id}\"} 4"),
            "{prom}"
        );
        assert!(prom.contains("serve_panics 0"), "{prom}");
        assert!(prom.contains("# TYPE serve_queue_depth gauge"), "{prom}");
        assert!(prom.contains("serve_queue_depth 2"), "{prom}");
        assert!(prom.contains("# TYPE serve_request_us histogram"), "{prom}");
        assert!(
            prom.contains("serve_request_us_bucket{route=\"/jobs/{id}\",le=\"4\"} 2"),
            "cumulative le=4: {prom}"
        );
        assert!(
            prom.contains("serve_request_us_bucket{route=\"/jobs/{id}\",le=\"1024\"} 3"),
            "cumulative le=1024: {prom}"
        );
        assert!(
            prom.contains("serve_request_us_bucket{route=\"/jobs/{id}\",le=\"+Inf\"} 3"),
            "{prom}"
        );
        assert!(
            prom.contains("serve_request_us_sum{route=\"/jobs/{id}\"} 907"),
            "{prom}"
        );
        assert!(
            prom.contains("serve_request_us_count{route=\"/jobs/{id}\"} 3"),
            "{prom}"
        );
        assert!(
            prom.contains("serve_cache_hits_window{window=\"60s\"} 1"),
            "windowed series: {prom}"
        );
        // The windowed gauge must not collide with the counter family:
        // exactly one TYPE line per family name.
        let mut seen = std::collections::BTreeSet::new();
        for line in prom.lines().filter(|l| l.starts_with("# TYPE ")) {
            let family = line.split_whitespace().nth(2).expect("family");
            assert!(seen.insert(family.to_string()), "duplicate TYPE: {line}");
        }
        // Every non-comment line is `name{...} value` with a numeric value.
        for line in prom.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("sample line");
            value
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("bad value in {line:?}"));
        }
    }

    #[test]
    fn json_snapshot_includes_ring_windows() {
        let (clock, t) = fake();
        t.counter("serve.panics").inc();
        t.mark("serve.cache.misses", &[]);
        clock.advance_secs(2);
        t.mark("serve.cache.misses", &[]);
        let json = t.to_json();
        assert!(json.contains("\"uptime_secs\": 2"), "{json}");
        assert!(json.contains("\"serve.panics\": 1"), "{json}");
        assert!(
            json.contains("\"serve.cache.misses\": {\"window_secs\": 60, \"window_sum\": 2, \"per_sec\": [[0, 1], [2, 1]]}"),
            "{json}"
        );
    }
}
