//! Collection pipelines: what each vantage point observes.
//!
//! Ground truth (bytes per 30-second slot) is filtered through one of the
//! paper's two vantage points (§2.1) to produce the [`UsageSeries`] the
//! analysis pipeline consumes:
//!
//! * **Dasu end host** ([`UsageSeries::poll_counters`], then
//!   [`UsageSeries::reconstruct_polls`]) — polls UPnP or `netstat` byte
//!   counters only while the client is running and rebuilds per-interval
//!   deltas. Dasu rides a BitTorrent extension, so uptime is "partially
//!   biased towards peak usage hours" (§3.1) — this is exactly why Dasu's
//!   *mean* demand reads higher than the FCC's while the *peaks* agree in
//!   Fig. 3. Polling jitter occasionally merges adjacent intervals.
//! * **FCC gateway** ([`UsageSeries::hourly`]) — always on, but reports
//!   hourly totals.
//!
//! The demand metrics (§3.1) are computed here by
//! [`UsageSeries::summarise`]: mean rate over observed time, and "peak" =
//! the 95th-percentile of the 30-second (or hourly) rate series, with or
//! without BitTorrent-active intervals.

use crate::chaos::{ChaosPlan, RawPoll};
use crate::counters::{
    max_plausible_bytes, upnp_delta_stats, DeltaStats, NetstatCounter, UpnpCounter,
};
use crate::workload::GroundTruth;
use bb_stats::descriptive::quantile_unstable;
use bb_trace::{Log2Histogram, Registry};
use bb_types::time::{diurnal_multiplier, SLOTS_PER_HOUR};
use bb_types::{Bandwidth, DemandSummary, SLOT_SECS};
use rand::Rng;

/// Reusable buffers for the batched collection hot path. One instance per
/// shard (or per thread) amortises every per-user allocation the scalar
/// path used to make: the bulk acceptance-draw buffer and the raw poll
/// sequence.
#[derive(Clone, Debug, Default)]
pub struct CollectScratch {
    /// Per-slot standard-uniform acceptance draws, filled block-at-a-time
    /// from the generator's key stream. Once the polls are taken, the
    /// chaos passes reuse it for their uniforms.
    pub draws: Vec<f64>,
    /// Raw poll buffer `(slot, down, up, cross)` reused across users.
    pub polls: Vec<RawPoll>,
}

impl CollectScratch {
    /// Empty scratch; buffers grow to the window size on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// How a Dasu client polls its byte counters: the fixed parameters shared
/// by [`UsageSeries::poll_counters`] and [`UsageSeries::reconstruct_polls`].
#[derive(Clone, Copy, Debug)]
pub struct CounterPolling<'a> {
    /// Mean fraction of time the client is online and polling, in (0, 1].
    pub uptime: f64,
    /// Which counters the client reads.
    pub source: CounterSource,
    /// Access-link capacity; bounds a plausible per-interval delta.
    pub link_capacity: Bandwidth,
    /// Degradation of the raw poll sequence; [`ChaosPlan::NONE`] for
    /// clean collection.
    pub chaos: &'a ChaosPlan,
}

/// Where a Dasu client reads its byte counts from (§2.1: "users that
/// either have UPnP enabled on their home gateway device or those that
/// were directly connected to their modem").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CounterSource {
    /// UPnP gateway counters: 32-bit, wrapping.
    Upnp,
    /// Local `netstat` counters: 64-bit.
    Netstat,
}

/// Granularity of an observed series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinWidth {
    /// 30-second bins (Dasu).
    Slot,
    /// Hourly bins (FCC).
    Hour,
}

impl BinWidth {
    /// Bin duration in seconds.
    pub fn secs(self) -> f64 {
        match self {
            BinWidth::Slot => SLOT_SECS,
            BinWidth::Hour => 3600.0,
        }
    }
}

/// Whether BitTorrent-active intervals are included when summarising:
/// the switch of the separate summary calls [`UsageSeries::summarise`] is
/// pinned against.
#[cfg(test)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BtFilter {
    /// Use every observed interval.
    Include,
    /// Drop intervals with BitTorrent activity ("when not actively
    /// downloading/uploading content on BitTorrent").
    Exclude,
}

/// One observed bin: byte counts in both directions plus the BitTorrent
/// flag.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BinObs {
    /// Downlink bytes.
    pub down_bytes: f64,
    /// Uplink bytes.
    pub up_bytes: f64,
    /// Whether BitTorrent was active during the bin.
    pub bt: bool,
}

/// The three per-series numbers an observation keeps, from
/// [`UsageSeries::summarise`]. Each is `None` when no bin counts towards
/// it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeriesSummary {
    /// Downlink demand (mean and p95 rate) over every observed bin.
    pub demand_with_bt: Option<DemandSummary>,
    /// Downlink demand over the bins without BitTorrent activity ("when
    /// not actively downloading/uploading content on BitTorrent").
    pub demand_no_bt: Option<DemandSummary>,
    /// Mean uplink rate over every observed bin.
    pub upload_mean: Option<Bandwidth>,
}

/// An observed usage series: byte counts per observed bin.
#[derive(Clone, Debug, PartialEq)]
pub struct UsageSeries {
    /// Bin width of `bins`.
    pub width: BinWidth,
    /// One entry per *observed* bin.
    pub bins: Vec<BinObs>,
}

impl UsageSeries {
    /// Observe ground truth the way an FCC/SamKnows gateway does: always
    /// on, reporting hourly WAN byte counts. Each hour's bin carries the
    /// sum of its slots in both directions and is BitTorrent-flagged when
    /// any of its slots ran BitTorrent. A trailing partial hour is not
    /// reported.
    pub fn hourly(truth: &GroundTruth) -> Self {
        let mut bins = Vec::new();
        let n_hours = truth.slot_bytes.len() / SLOTS_PER_HOUR;
        for h in 0..n_hours {
            let lo = h * SLOTS_PER_HOUR;
            let hi = lo + SLOTS_PER_HOUR;
            bins.push(BinObs {
                down_bytes: truth.slot_bytes[lo..hi].iter().sum(),
                up_bytes: truth.up_slot_bytes[lo..hi].iter().sum(),
                bt: truth.bt_active[lo..hi].iter().any(|b| *b),
            });
        }
        UsageSeries {
            width: BinWidth::Hour,
            bins,
        }
    }

    /// Dasu collection in one call: [`UsageSeries::poll_counters`], then
    /// [`UsageSeries::reconstruct_polls`] on the polls it left in
    /// `scratch`, drawing the chaos uniforms into `scratch.draws`. The
    /// reference the split halves are pinned against.
    #[cfg(test)]
    fn collect_via_counters<R: Rng + ?Sized, C: Rng + ?Sized>(
        truth: &GroundTruth,
        polling: &CounterPolling<'_>,
        rng: &mut R,
        chaos_rng: &mut C,
        reg: &mut Registry,
        scratch: &mut CollectScratch,
    ) -> Self {
        Self::poll_counters(truth, polling, rng, scratch);
        Self::reconstruct_polls(
            truth,
            polling,
            &mut scratch.polls,
            &mut scratch.draws,
            chaos_rng,
            reg,
        )
    }

    /// The poll half of Dasu collection (§2.1): a real client polls a
    /// cumulative byte counter whenever it is online, which it is with a
    /// per-hour probability of `polling.uptime` scaled by the diurnal
    /// profile, so evenings are over-sampled. This draws the per-slot
    /// acceptance uniforms from `rng` and drives the counters of
    /// `polling.source`, leaving the raw poll sequence in
    /// `scratch.polls`. Reads only `polling.uptime` and `polling.source`;
    /// the chaos plan plays no part, so the words drawn from `rng` do not
    /// depend on it, and a caller observing one user under several chaos
    /// plans polls once and calls [`UsageSeries::reconstruct_polls`] once
    /// per plan.
    ///
    /// `scratch` carries the buffers across users. The result is
    /// bit-identical to the pre-batching scalar implementation (kept as a
    /// test oracle): the acceptance draws consume the same word stream a
    /// ChaCha block at a time.
    pub fn poll_counters<R: Rng + ?Sized>(
        truth: &GroundTruth,
        polling: &CounterPolling<'_>,
        rng: &mut R,
        scratch: &mut CollectScratch,
    ) {
        let CounterPolling { uptime, source, .. } = *polling;
        assert!(uptime > 0.0 && uptime <= 1.0, "uptime in (0,1]");

        // Drive the cumulative counters forward slot by slot, polling at
        // the slots the client observes.
        // UPnP registers meter the whole home: the measured host *plus*
        // any other devices. Dasu "records network usage data from the
        // localhost and home network to account for cross traffic"
        // (§2.1): the client detects cross traffic and subtracts it, but
        // detection is imperfect, so a sliver leaks into UPnP-sourced
        // measurements. `netstat` never sees other devices at all.
        const CROSS_DETECTION: f64 = 0.9;
        let n_slots = truth.slot_bytes.len();

        // The diurnal profile has 24 values; resolve the per-slot
        // acceptance probability table once instead of per slot, and
        // pull the whole window's acceptance draws in bulk — the word
        // stream is consumed exactly as n_slots sequential scalar draws.
        let mut p_by_hour = [0.0f64; 24];
        for (hour, p) in p_by_hour.iter_mut().enumerate() {
            *p = (uptime * diurnal_multiplier(hour as u8)).min(1.0);
        }
        scratch.draws.resize(n_slots, 0.0);
        rng.fill_standard_f64(&mut scratch.draws);
        let draws = &scratch.draws[..n_slots];
        let slot_bytes = &truth.slot_bytes[..n_slots];
        let up_slot_bytes = &truth.up_slot_bytes[..n_slots];

        // (slot index, down reading, up reading, detected cross estimate)
        //
        // Every slot writes its reading at `len`, and the acceptance bit
        // advances `len`: a rejected reading is overwritten by the next
        // slot's, so the accepted ones land in order with no branch on a
        // draw taken about half the time. `len <= j`, so the window-sized
        // buffer always has room. Entries past the previous user's polls
        // are initialised here; the rest are overwritten or truncated.
        let polls = &mut scratch.polls;
        polls.resize(n_slots, (0, 0, 0, 0.0));
        let mut len = 0usize;
        // Only the active source's counter pair is materialised — the
        // scalar reference drives all four in lockstep, but the inactive
        // pair's readings never reach the poll stream, so skipping them
        // is output-invariant. Slots advance an hour at a time: the
        // acceptance probability is constant within an hour, so the
        // modulo/divide drops out of the inner loop.
        match source {
            CounterSource::Upnp => {
                let cross_slot_bytes = &truth.cross_slot_bytes[..n_slots];
                let mut down = UpnpCounter::new();
                let mut up = UpnpCounter::new();
                let mut detected_cross = 0.0f64;
                let mut i = 0usize;
                while i < n_slots {
                    let p = p_by_hour[(i % 2880) / SLOTS_PER_HOUR];
                    let end = n_slots.min(i + (SLOTS_PER_HOUR - i % SLOTS_PER_HOUR));
                    for j in i..end {
                        let cross = cross_slot_bytes[j];
                        down.add((slot_bytes[j] + cross) as u64);
                        up.add(up_slot_bytes[j] as u64);
                        detected_cross += cross * CROSS_DETECTION;
                        polls[len] = (j, down.read() as u64, up.read() as u64, detected_cross);
                        len += (draws[j] < p) as usize;
                    }
                    i = end;
                }
            }
            CounterSource::Netstat => {
                let mut down = NetstatCounter::new();
                let mut up = NetstatCounter::new();
                let mut i = 0usize;
                while i < n_slots {
                    let p = p_by_hour[(i % 2880) / SLOTS_PER_HOUR];
                    let end = n_slots.min(i + (SLOTS_PER_HOUR - i % SLOTS_PER_HOUR));
                    for j in i..end {
                        down.add(slot_bytes[j] as u64);
                        up.add(up_slot_bytes[j] as u64);
                        // Cross traffic never reaches the host's netstat,
                        // and the detected-cross estimate is only read on
                        // the UPnP decode path — the poll carries 0 here.
                        polls[len] = (j, down.read(), up.read(), 0.0);
                        len += (draws[j] < p) as usize;
                    }
                    i = end;
                }
            }
        }
        polls.truncate(len);
    }

    /// The degrade-and-reconstruct half of Dasu collection: apply
    /// `polling.chaos` to `polls` (drawing only from `chaos_rng`), then
    /// rebuild the per-interval series from the degraded sequence,
    /// UPnP 32-bit wraparound included. Deltas spanning more than
    /// `MAX_GAP_SLOTS` offline slots are discarded as stale. Reads
    /// `polling.source`, `polling.link_capacity` and `polling.chaos`.
    ///
    /// [`ChaosPlan::NONE`] draws nothing from `chaos_rng`, so severity 0
    /// is bit-identical to clean collection. Out-of-order and duplicate
    /// polls are counted and skipped, never a panic or a NaN bin. Every
    /// recovery heuristic is counted into `reg` (`netsim.collect.*`,
    /// `netsim.upnp.*`): data events, tallied in locals and flushed once
    /// per call, so per-user registries merge plan-invariantly. UPnP
    /// deltas decode pair by pair with the allocation-free
    /// [`upnp_delta_stats`].
    ///
    /// `polls` is left holding the degraded sequence, so its buffer is
    /// reused, and `uniforms` is the chaos passes' reusable draw buffer
    /// (see [`ChaosPlan::apply_to_polls`]). A [`ChaosPlan::NONE`] plan
    /// leaves both untouched: several clean reconstructions may share one
    /// poll sequence.
    pub fn reconstruct_polls<C: Rng + ?Sized>(
        truth: &GroundTruth,
        polling: &CounterPolling<'_>,
        polls: &mut Vec<RawPoll>,
        uniforms: &mut Vec<f64>,
        chaos_rng: &mut C,
        reg: &mut Registry,
    ) -> Self {
        let CounterPolling {
            source,
            link_capacity,
            chaos,
            ..
        } = *polling;
        const MAX_GAP_SLOTS: usize = 2;
        let n_slots = truth.slot_bytes.len();

        // Degrade the raw poll sequence. A NONE plan is an exact no-op
        // that neither draws from `chaos_rng` nor touches `reg`.
        chaos.apply_to_polls(polls, uniforms, chaos_rng, reg);

        // Reconstruct deltas; UPnP readings may have wrapped. Heuristic
        // firings accumulate in locals and flush to `reg` after the loop.
        // Surviving gaps are only ever 1 or 2 slots, so the two possible
        // plausibility bounds are resolved ahead of the loop.
        let mp_by_gap = [
            max_plausible_bytes(link_capacity.bps(), SLOT_SECS),
            max_plausible_bytes(link_capacity.bps(), 2.0 * SLOT_SECS),
        ];
        let mut bins = Vec::with_capacity(polls.len().saturating_sub(1));
        let mut stale_dropped = 0u64;
        let mut merged_intervals = 0u64;
        let mut out_of_order_dropped = 0u64;
        let mut duplicate_dropped = 0u64;
        let mut gap_count = [0u64; 2];
        let mut delta_stats = DeltaStats::default();
        for w in polls.windows(2) {
            let (i0, d0, u0, x0) = w[0];
            let (i1, d1, u1, x1) = w[1];
            // Clean polls are strictly increasing in slot index, but
            // chaos (reordering, clock skew) breaks that: a reversed
            // pair would underflow the gap and a duplicated timestamp
            // would divide the delta by zero. Drop both, counted.
            let gap = match i1.checked_sub(i0) {
                None => {
                    out_of_order_dropped += 1;
                    continue;
                }
                Some(0) => {
                    duplicate_dropped += 1;
                    continue;
                }
                Some(g) => g,
            };
            if gap > MAX_GAP_SLOTS {
                stale_dropped += 1;
                continue; // stale: the client was offline too long
            }
            gap_count[gap - 1] += 1;
            if gap > 1 {
                merged_intervals += 1; // polling jitter merged adjacent slots
            }
            let (down, up) = match source {
                CounterSource::Upnp => {
                    let mp = mp_by_gap[gap - 1];
                    let d = upnp_delta_stats(d0 as u32, d1 as u32, mp, &mut delta_stats);
                    let u = upnp_delta_stats(u0 as u32, u1 as u32, mp, &mut delta_stats);
                    // Subtract the detected cross traffic for the interval.
                    let corrected = (d as f64 - (x1 - x0)).max(0.0) as u64;
                    (corrected, u)
                }
                CounterSource::Netstat => (d1.saturating_sub(d0), u1.saturating_sub(u0)),
            };
            // The delta covers `gap` slots; report it as one bin of the
            // average rate over the interval, BitTorrent-flagged when the
            // majority of the covered slots were BT-active (flagging on
            // *any* overlap would over-discard intervals for heavy
            // BitTorrent users once deltas span several slots).
            // Clock skew can push slot indices past the observation
            // window; clamp the lookup range instead of panicking.
            let lo = (i0 + 1).min(n_slots);
            let hi = (i1 + 1).min(n_slots);
            let bt_slots = truth.bt_active[lo..hi].iter().filter(|b| **b).count();
            let bt = 2 * bt_slots > gap;
            bins.push(BinObs {
                down_bytes: down as f64 / gap as f64,
                up_bytes: up as f64 / gap as f64,
                bt,
            });
        }
        let mut gap_hist = Log2Histogram::new();
        gap_hist.push_n(1.0, 1.0, gap_count[0]);
        gap_hist.push_n(2.0, 1.0, gap_count[1]);
        reg.add("netsim.collect.polls", polls.len() as u64);
        reg.add("netsim.collect.stale_dropped", stale_dropped);
        reg.add("netsim.collect.merged_intervals", merged_intervals);
        reg.add("netsim.collect.out_of_order_dropped", out_of_order_dropped);
        reg.add("netsim.collect.duplicate_dropped", duplicate_dropped);
        reg.merge_hist("netsim.collect.gap_slots", gap_hist);
        if source == CounterSource::Upnp {
            reg.add("netsim.upnp.wraps", delta_stats.wraps);
            reg.add("netsim.upnp.resets", delta_stats.resets);
            reg.add("netsim.upnp.reset_clamped", delta_stats.clamped);
        }
        UsageSeries {
            width: BinWidth::Slot,
            bins,
        }
    }

    /// The pre-batching scalar implementation, kept verbatim as the
    /// equivalence oracle for [`UsageSeries::collect_via_counters`].
    #[cfg(test)]
    #[allow(clippy::too_many_arguments)]
    fn collect_via_counters_chaos_reference<R: Rng + ?Sized, C: Rng + ?Sized>(
        truth: &GroundTruth,
        uptime: f64,
        source: CounterSource,
        link_capacity: Bandwidth,
        chaos: &ChaosPlan,
        rng: &mut R,
        chaos_rng: &mut C,
        reg: &mut Registry,
    ) -> Self {
        use crate::counters::upnp_deltas_stats;
        assert!(uptime > 0.0 && uptime <= 1.0, "uptime in (0,1]");
        const MAX_GAP_SLOTS: usize = 2;
        const CROSS_DETECTION: f64 = 0.9;
        let mut upnp_down = UpnpCounter::new();
        let mut upnp_up = UpnpCounter::new();
        let mut net_down = NetstatCounter::new();
        let mut net_up = NetstatCounter::new();
        let mut detected_cross = 0.0f64;
        let mut polls: Vec<RawPoll> = Vec::new();
        for (i, &bytes) in truth.slot_bytes.iter().enumerate() {
            let up = truth.up_slot_bytes[i];
            let cross = truth.cross_slot_bytes[i];
            upnp_down.add((bytes + cross) as u64);
            upnp_up.add(up as u64);
            net_down.add(bytes as u64);
            net_up.add(up as u64);
            detected_cross += cross * CROSS_DETECTION;
            let hour = ((i % 2880) / SLOTS_PER_HOUR) as u8;
            let p = (uptime * diurnal_multiplier(hour)).min(1.0);
            if rng.gen::<f64>() < p {
                let (d, u) = match source {
                    CounterSource::Upnp => (upnp_down.read() as u64, upnp_up.read() as u64),
                    CounterSource::Netstat => (net_down.read(), net_up.read()),
                };
                polls.push((i, d, u, detected_cross));
            }
        }

        let polls = chaos.apply_to_polls_reference(polls, chaos_rng, reg);

        let max_plausible =
            |gap: usize| max_plausible_bytes(link_capacity.bps(), gap as f64 * SLOT_SECS);
        let n_slots = truth.slot_bytes.len();
        let mut bins = Vec::new();
        let mut stale_dropped = 0u64;
        let mut merged_intervals = 0u64;
        let mut out_of_order_dropped = 0u64;
        let mut duplicate_dropped = 0u64;
        let mut delta_stats = DeltaStats::default();
        let mut gap_hist = Log2Histogram::new();
        for w in polls.windows(2) {
            let (i0, d0, u0, x0) = w[0];
            let (i1, d1, u1, x1) = w[1];
            let gap = match i1.checked_sub(i0) {
                None => {
                    out_of_order_dropped += 1;
                    continue;
                }
                Some(0) => {
                    duplicate_dropped += 1;
                    continue;
                }
                Some(g) => g,
            };
            if gap > MAX_GAP_SLOTS {
                stale_dropped += 1;
                continue; // stale: the client was offline too long
            }
            gap_hist.push(gap as f64, 1.0);
            if gap > 1 {
                merged_intervals += 1;
            }
            let (down, up) = match source {
                CounterSource::Upnp => {
                    let (d, ds) = upnp_deltas_stats(&[d0 as u32, d1 as u32], max_plausible(gap));
                    let (u, us) = upnp_deltas_stats(&[u0 as u32, u1 as u32], max_plausible(gap));
                    delta_stats.absorb(ds);
                    delta_stats.absorb(us);
                    let corrected = (d[0] as f64 - (x1 - x0)).max(0.0) as u64;
                    (corrected, u[0])
                }
                CounterSource::Netstat => (d1.saturating_sub(d0), u1.saturating_sub(u0)),
            };
            let lo = (i0 + 1).min(n_slots);
            let hi = (i1 + 1).min(n_slots);
            let bt_slots = truth.bt_active[lo..hi].iter().filter(|b| **b).count();
            let bt = 2 * bt_slots > gap;
            bins.push(BinObs {
                down_bytes: down as f64 / gap as f64,
                up_bytes: up as f64 / gap as f64,
                bt,
            });
        }
        reg.add("netsim.collect.polls", polls.len() as u64);
        reg.add("netsim.collect.stale_dropped", stale_dropped);
        reg.add("netsim.collect.merged_intervals", merged_intervals);
        reg.add("netsim.collect.out_of_order_dropped", out_of_order_dropped);
        reg.add("netsim.collect.duplicate_dropped", duplicate_dropped);
        reg.merge_hist("netsim.collect.gap_slots", gap_hist);
        if source == CounterSource::Upnp {
            reg.add("netsim.upnp.wraps", delta_stats.wraps);
            reg.add("netsim.upnp.resets", delta_stats.resets);
            reg.add("netsim.upnp.reset_clamped", delta_stats.clamped);
        }
        UsageSeries {
            width: BinWidth::Slot,
            bins,
        }
    }

    /// Number of observed bins.
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// True when nothing was observed (client never online).
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// Per-bin downlink rates (bps) after applying the BitTorrent filter.
    #[cfg(test)]
    fn rates(&self, filter: BtFilter) -> Vec<f64> {
        let secs = self.width.secs();
        self.bins
            .iter()
            .filter(|b| filter == BtFilter::Include || !b.bt)
            .map(|b| b.down_bytes * 8.0 / secs)
            .collect()
    }

    /// Mean uplink rate over observed bins, after the BitTorrent filter.
    ///
    /// Computed streaming — a running sum in filter order is exactly the
    /// `Vec`-collect-then-sum of the seed implementation, minus the
    /// allocation.
    #[cfg(test)]
    fn upload_mean(&self, filter: BtFilter) -> Option<Bandwidth> {
        let secs = self.width.secs();
        let mut sum = 0.0f64;
        let mut n = 0usize;
        for b in &self.bins {
            if filter == BtFilter::Include || !b.bt {
                sum += b.up_bytes * 8.0 / secs;
                n += 1;
            }
        }
        if n == 0 {
            return None;
        }
        Some(Bandwidth::from_bps(sum / n as f64))
    }

    /// Both demand summaries and the BitTorrent-included upload mean in one
    /// pass over the bins. Each demand summary is the mean rate over the
    /// bins it counts and "peak" = the 95th-percentile rate (§3.1), or
    /// `None` when no bin counts. The values equal, to the bit, those of
    /// the separate per-filter calls kept as test references
    /// (`demand_with`, `upload_mean`).
    ///
    /// The pass fills `with_bt` with every bin's downlink rate and `no_bt`
    /// with the unflagged bins' rates, in bin order, and keeps three
    /// independent running sums that add the same values in the same order
    /// as the separate calls, each from that call's starting value. Each
    /// buffer then gives its p95 by selection. With no flagged bin the
    /// BitTorrent-excluded summary is the included one, so its selection is
    /// skipped.
    pub fn summarise(&self, with_bt: &mut Vec<f64>, no_bt: &mut Vec<f64>) -> SeriesSummary {
        let secs = self.width.secs();
        with_bt.clear();
        no_bt.clear();
        // `demand_with` sums its rates with `Iterator::sum`, whose starting
        // value is the toolchain's neutral element (+0.0 or -0.0); fold
        // from the same one so an all-(-0.0) series keeps its sign.
        let neutral: f64 = std::iter::empty::<f64>().sum();
        let (mut sum_with, mut sum_no, mut sum_up) = (neutral, neutral, 0.0f64);
        for b in &self.bins {
            let rate = b.down_bytes * 8.0 / secs;
            with_bt.push(rate);
            sum_with += rate;
            sum_up += b.up_bytes * 8.0 / secs;
            if !b.bt {
                no_bt.push(rate);
                sum_no += rate;
            }
        }
        let demand_with_bt = summary_of(with_bt, sum_with);
        let demand_no_bt = if no_bt.len() == with_bt.len() {
            demand_with_bt
        } else {
            summary_of(no_bt, sum_no)
        };
        let upload_mean = if self.bins.is_empty() {
            None
        } else {
            Some(Bandwidth::from_bps(sum_up / self.bins.len() as f64))
        };
        SeriesSummary {
            demand_with_bt,
            demand_no_bt,
            upload_mean,
        }
    }

    /// The paper's demand summary: mean rate and 95th-percentile rate over
    /// observed bins. Returns `None` when no bins survive the filter.
    #[cfg(test)]
    fn demand(&self, filter: BtFilter) -> Option<DemandSummary> {
        self.demand_with(filter, &mut Vec::new())
    }

    /// [`UsageSeries::demand`] with a caller-provided rates buffer. The
    /// p95 uses a selection-based quantile over the scratch buffer
    /// instead of cloning and fully sorting the rates; the result is
    /// bit-identical (type-7 interpolation over the same order
    /// statistics — see `quantile_unstable`).
    #[cfg(test)]
    fn demand_with(&self, filter: BtFilter, rates: &mut Vec<f64>) -> Option<DemandSummary> {
        let secs = self.width.secs();
        rates.clear();
        rates.extend(
            self.bins
                .iter()
                .filter(|b| filter == BtFilter::Include || !b.bt)
                .map(|b| b.down_bytes * 8.0 / secs),
        );
        let sum = rates.iter().sum::<f64>();
        summary_of(rates, sum)
    }
}

/// The demand summary of `rates` whose sum, in order, is `sum`: the mean
/// and the p95 (selected in place), or `None` for no rates.
fn summary_of(rates: &mut [f64], sum: f64) -> Option<DemandSummary> {
    if rates.is_empty() {
        return None;
    }
    let mean = sum / rates.len() as f64;
    let peak = quantile_unstable(rates, 0.95);
    // Guard against numeric jitter putting the p95 a hair below the
    // mean for near-constant series.
    let peak = peak.max(mean);
    Some(DemandSummary::new(
        Bandwidth::from_bps(mean),
        Bandwidth::from_bps(peak),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::AccessLink;
    use crate::workload::{simulate_user, UserWorkload};
    use bb_types::{Latency, LossRate, TimeAxis, Year};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn truth(seed: u64, bt: bool) -> GroundTruth {
        let link = AccessLink::new(
            Bandwidth::from_mbps(10.0),
            Latency::from_ms(40.0),
            LossRate::from_percent(0.01),
        );
        let wl = if bt {
            UserWorkload::with_bt(Bandwidth::from_mbps(1.0), 0.5)
        } else {
            UserWorkload::without_bt(Bandwidth::from_mbps(1.0))
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        simulate_user(&link, &wl, TimeAxis::new(Year(2012), 7), &mut rng)
    }

    /// Clean counter polling: what most tests need.
    fn clean(
        uptime: f64,
        source: CounterSource,
        link_capacity: Bandwidth,
    ) -> CounterPolling<'static> {
        CounterPolling {
            uptime,
            source,
            link_capacity,
            chaos: &ChaosPlan::NONE,
        }
    }

    /// Poll counters with a throwaway registry, chaos stream and scratch.
    fn poll_counters(
        t: &GroundTruth,
        polling: &CounterPolling<'_>,
        rng: &mut ChaCha8Rng,
    ) -> UsageSeries {
        UsageSeries::collect_via_counters(
            t,
            polling,
            rng,
            &mut ChaCha8Rng::seed_from_u64(0),
            &mut Registry::new(),
            &mut CollectScratch::new(),
        )
    }

    /// A typical Dasu client, online about half the time (evenings more
    /// often than nights), polling its counters.
    fn dasu(t: &GroundTruth, rng: &mut ChaCha8Rng) -> UsageSeries {
        poll_counters(
            t,
            &clean(0.5, CounterSource::Upnp, Bandwidth::from_mbps(10.0)),
            rng,
        )
    }

    /// The summary an observation keeps, with throwaway buffers.
    fn summary(s: &UsageSeries) -> SeriesSummary {
        s.summarise(&mut Vec::new(), &mut Vec::new())
    }

    /// The counter-free Dasu observer: each slot's ground truth, kept with
    /// the client's diurnally-biased acceptance probability. The reference
    /// the counter path's demand is compared against.
    fn observe_directly(t: &GroundTruth, uptime: f64, rng: &mut ChaCha8Rng) -> UsageSeries {
        let mut bins = Vec::new();
        for (i, &bytes) in t.slot_bytes.iter().enumerate() {
            let hour = ((i % 2880) / SLOTS_PER_HOUR) as u8;
            let p = (uptime * diurnal_multiplier(hour)).min(1.0);
            if rng.gen::<f64>() < p {
                bins.push(BinObs {
                    down_bytes: bytes,
                    up_bytes: t.up_slot_bytes[i],
                    bt: t.bt_active[i],
                });
            }
        }
        UsageSeries {
            width: BinWidth::Slot,
            bins,
        }
    }

    #[test]
    fn gateway_sees_every_hour() {
        // The FCC contract: every hour is reported, bytes are conserved in
        // both directions, and an hour is flagged when *any* of its slots
        // ran BitTorrent, unlike the majority rule of Dasu's intervals.
        for bt in [false, true] {
            let t = truth(1, bt);
            let s = UsageSeries::hourly(&t);
            assert_eq!(s.len(), 7 * 24);
            assert_eq!(s.width, BinWidth::Hour);
            let conserved = |got: f64, want: f64| (got - want).abs() < 1e-9 * want.max(1.0);
            let down: f64 = s.bins.iter().map(|b| b.down_bytes).sum();
            let up: f64 = s.bins.iter().map(|b| b.up_bytes).sum();
            assert!(conserved(down, t.total_bytes()), "bt {bt}: down {down}");
            assert!(conserved(up, t.total_up_bytes()), "bt {bt}: up {up}");
            let mut minority_hours = 0;
            for (h, bin) in s.bins.iter().enumerate() {
                let slots = &t.bt_active[h * SLOTS_PER_HOUR..(h + 1) * SLOTS_PER_HOUR];
                let active = slots.iter().filter(|a| **a).count();
                assert_eq!(bin.bt, active > 0, "bt {bt}: hour {h}");
                if active > 0 && 2 * active <= SLOTS_PER_HOUR {
                    minority_hours += 1;
                }
            }
            // Only the BitTorrent truth has flagged hours, and some of them
            // a majority rule would have left unflagged.
            assert_eq!(minority_hours > 0, bt, "{minority_hours} minority hours");
        }
    }

    #[test]
    fn dasu_observes_a_biased_subset() {
        let t = truth(3, false);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let polling = clean(0.5, CounterSource::Upnp, Bandwidth::from_mbps(10.0));
        let mut scratch = CollectScratch::new();
        UsageSeries::poll_counters(&t, &polling, &mut rng, &mut scratch);
        let frac = scratch.polls.len() as f64 / t.slot_bytes.len() as f64;
        assert!((frac - 0.5).abs() < 0.05, "polled fraction {frac}");
        let s = UsageSeries::reconstruct_polls(
            &t,
            &polling,
            &mut scratch.polls,
            &mut scratch.draws,
            &mut ChaCha8Rng::seed_from_u64(0),
            &mut Registry::new(),
        );
        assert_eq!(s.width, BinWidth::Slot);
    }

    #[test]
    fn dasu_mean_reads_higher_than_gateway_mean() {
        // The Fig. 3 effect: peak-hours sampling bias inflates the mean.
        let t = truth(5, false);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let dasu = summary(&dasu(&t, &mut rng)).demand_with_bt.unwrap();
        let fcc = summary(&UsageSeries::hourly(&t)).demand_with_bt.unwrap();
        assert!(
            dasu.mean > fcc.mean,
            "dasu mean {} vs fcc mean {}",
            dasu.mean,
            fcc.mean
        );
    }

    #[test]
    fn bt_filter_lowers_demand_for_bt_users() {
        let t = truth(7, true);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let s = summary(&dasu(&t, &mut rng));
        let with = s.demand_with_bt.unwrap();
        let without = s.demand_no_bt.unwrap();
        assert!(without.mean <= with.mean);
    }

    #[test]
    fn filter_is_noop_for_non_bt_users() {
        let t = truth(9, false);
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let s = summary(&dasu(&t, &mut rng));
        assert_eq!(s.demand_with_bt, s.demand_no_bt);
    }

    #[test]
    fn peak_is_at_least_mean() {
        let t = truth(11, true);
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        for s in [dasu(&t, &mut rng), UsageSeries::hourly(&t)] {
            let d = summary(&s).demand_with_bt.unwrap();
            assert!(d.peak >= d.mean);
        }
    }

    #[test]
    fn empty_series_yields_no_demand() {
        let s = UsageSeries {
            width: BinWidth::Slot,
            bins: vec![],
        };
        let got = summary(&s);
        assert!(got.demand_with_bt.is_none());
        assert!(got.demand_no_bt.is_none());
        assert!(got.upload_mean.is_none());
        assert!(s.is_empty());
    }

    #[test]
    fn counter_based_collection_matches_direct_observation() {
        // With a mostly-online client, polling real (wrapping) counters
        // must reproduce the demand summary direct observation computes.
        let t = truth(17, true);
        let cap = Bandwidth::from_mbps(10.0);
        for source in [CounterSource::Upnp, CounterSource::Netstat] {
            let mut rng = ChaCha8Rng::seed_from_u64(20);
            let direct = summary(&observe_directly(&t, 0.95, &mut rng))
                .demand_with_bt
                .unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(20);
            let via = summary(&poll_counters(&t, &clean(0.95, source, cap), &mut rng))
                .demand_with_bt
                .unwrap();
            let mean_ratio = via.mean / direct.mean;
            assert!(
                (0.8..1.25).contains(&mean_ratio),
                "{source:?}: mean ratio {mean_ratio}"
            );
            let peak_ratio = via.peak / direct.peak;
            assert!(
                (0.6..1.4).contains(&peak_ratio),
                "{source:?}: peak ratio {peak_ratio}"
            );
        }
    }

    #[test]
    fn cross_traffic_is_invisible_to_netstat_and_mostly_corrected_for_upnp() {
        let link = AccessLink::new(
            Bandwidth::from_mbps(20.0),
            Latency::from_ms(40.0),
            LossRate::from_percent(0.01),
        );
        let wl = UserWorkload::without_bt(Bandwidth::from_mbps(1.0))
            .with_cross_traffic(Bandwidth::from_mbps(2.0));
        let mut rng = ChaCha8Rng::seed_from_u64(51);
        let t = simulate_user(&link, &wl, TimeAxis::new(Year(2012), 5), &mut rng);
        assert!(t.total_cross_bytes() > t.total_bytes());
        let demand = |source| {
            let mut rng = ChaCha8Rng::seed_from_u64(52);
            poll_counters(&t, &clean(0.9, source, link.capacity), &mut rng)
                .demand(BtFilter::Include)
                .unwrap()
        };
        let upnp = demand(CounterSource::Upnp);
        let netstat = demand(CounterSource::Netstat);
        // Netstat sees only the host; corrected UPnP lands close (the 10%
        // undetected cross traffic leaks in, cross ~2x own traffic ⇒ up to
        // ~20% inflation).
        let ratio = upnp.mean / netstat.mean;
        assert!(
            (0.95..1.45).contains(&ratio),
            "UPnP/netstat mean ratio {ratio}"
        );
        assert!(upnp.mean >= netstat.mean * 0.95, "correction overshoots");
    }

    #[test]
    fn upnp_wraparound_does_not_corrupt_demand() {
        // Force many wraps: a fat pipe and a long window drive the 32-bit
        // register over 4 GiB repeatedly.
        let link = AccessLink::new(
            Bandwidth::from_mbps(100.0),
            Latency::from_ms(30.0),
            LossRate::from_percent(0.01),
        );
        let wl = UserWorkload::with_bt(Bandwidth::from_mbps(20.0), 0.5);
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let t = simulate_user(&link, &wl, TimeAxis::new(Year(2013), 5), &mut rng);
        assert!(
            t.total_bytes() > 2.0 * (u32::MAX as f64),
            "need multiple wraps, got {} bytes",
            t.total_bytes()
        );
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let upnp = poll_counters(
            &t,
            &clean(0.9, CounterSource::Upnp, link.capacity),
            &mut rng,
        )
        .demand(BtFilter::Include)
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let netstat = poll_counters(
            &t,
            &clean(0.9, CounterSource::Netstat, link.capacity),
            &mut rng,
        )
        .demand(BtFilter::Include)
        .unwrap();
        // Same polls, same deltas — wraps must be fully transparent.
        let ratio = upnp.mean / netstat.mean;
        assert!((0.99..1.01).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn traced_collection_counts_heuristic_firings() {
        // A fat pipe over a long window wraps the 32-bit register many
        // times, and a 0.5 uptime client leaves plenty of stale gaps.
        let link = AccessLink::new(
            Bandwidth::from_mbps(100.0),
            Latency::from_ms(30.0),
            LossRate::from_percent(0.01),
        );
        let wl = UserWorkload::with_bt(Bandwidth::from_mbps(20.0), 0.5);
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let t = simulate_user(&link, &wl, TimeAxis::new(Year(2013), 5), &mut rng);

        let mut reg = bb_trace::Registry::new();
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        UsageSeries::collect_via_counters(
            &t,
            &clean(0.5, CounterSource::Upnp, link.capacity),
            &mut rng,
            &mut ChaCha8Rng::seed_from_u64(0),
            &mut reg,
            &mut CollectScratch::new(),
        );
        assert!(reg.counter("netsim.collect.polls") > 0);
        assert!(reg.counter("netsim.upnp.wraps") > 0, "wraps must be seen");
        assert!(reg.counter("netsim.collect.stale_dropped") > 0);
        assert!(
            reg.histogram("netsim.collect.gap_slots").unwrap().count() > 0,
            "gap histogram records merged windows"
        );
    }

    #[test]
    fn chaos_none_is_bit_identical_to_plain_collection() {
        let t = truth(41, true);
        let cap = Bandwidth::from_mbps(10.0);
        for source in [CounterSource::Upnp, CounterSource::Netstat] {
            let mut reg_a = Registry::new();
            let mut rng = ChaCha8Rng::seed_from_u64(42);
            let plain = UsageSeries::collect_via_counters(
                &t,
                &clean(0.6, source, cap),
                &mut rng,
                &mut ChaCha8Rng::seed_from_u64(0),
                &mut reg_a,
                &mut CollectScratch::new(),
            );
            let mut reg_b = Registry::new();
            let mut rng = ChaCha8Rng::seed_from_u64(42);
            // A chaos RNG seeded differently: NONE must never touch it.
            let mut chaos_rng = ChaCha8Rng::seed_from_u64(999);
            let chaotic = UsageSeries::collect_via_counters(
                &t,
                &clean(0.6, source, cap),
                &mut rng,
                &mut chaos_rng,
                &mut reg_b,
                &mut CollectScratch::new(),
            );
            assert_eq!(plain, chaotic, "{source:?}");
            assert_eq!(reg_a.to_json(), reg_b.to_json(), "{source:?}");
        }
    }

    #[test]
    fn chaotic_collection_survives_churn_and_counts_drops() {
        // Poll churn at full severity floods the reconstruction with
        // duplicate and out-of-order timestamps; before hardening this
        // panicked on `i1 - i0` underflow or divided a delta by zero.
        let t = truth(43, true);
        let cap = Bandwidth::from_mbps(10.0);
        let plan = crate::chaos::ChaosScenario::PollChurn.plan(1.0);
        for source in [CounterSource::Upnp, CounterSource::Netstat] {
            let mut reg = Registry::new();
            let mut rng = ChaCha8Rng::seed_from_u64(44);
            let mut chaos_rng = ChaCha8Rng::seed_from_u64(45);
            let polling = CounterPolling {
                chaos: &plan,
                ..clean(0.8, source, cap)
            };
            let s = UsageSeries::collect_via_counters(
                &t,
                &polling,
                &mut rng,
                &mut chaos_rng,
                &mut reg,
                &mut CollectScratch::new(),
            );
            assert!(reg.counter("netsim.collect.duplicate_dropped") > 0);
            assert!(reg.counter("netsim.collect.out_of_order_dropped") > 0);
            for b in &s.bins {
                assert!(b.down_bytes.is_finite() && b.down_bytes >= 0.0);
                assert!(b.up_bytes.is_finite() && b.up_bytes >= 0.0);
            }
        }
    }

    #[test]
    fn chaotic_collection_survives_clock_skew_at_window_edges() {
        // Max-severity skew pushes slot indices past the end of the
        // window; the BT lookup must clamp, not panic.
        let t = truth(47, true);
        let cap = Bandwidth::from_mbps(10.0);
        let plan = crate::chaos::ChaosScenario::ClockSkew.plan(1.0);
        let mut reg = Registry::new();
        let mut rng = ChaCha8Rng::seed_from_u64(48);
        let mut chaos_rng = ChaCha8Rng::seed_from_u64(49);
        let polling = CounterPolling {
            chaos: &plan,
            ..clean(0.95, CounterSource::Netstat, cap)
        };
        let s = UsageSeries::collect_via_counters(
            &t,
            &polling,
            &mut rng,
            &mut chaos_rng,
            &mut reg,
            &mut CollectScratch::new(),
        );
        assert!(reg.counter("netsim.chaos.polls_skewed") > 0);
        assert!(!s.is_empty());
    }

    #[test]
    fn batched_collection_is_bit_identical_to_scalar_reference() {
        // The tentpole pin: the batched hot path (bulk acceptance draws,
        // per-hour probability table, scalar UPnP delta decode, tallied
        // gap histogram) must reproduce the pre-batching implementation
        // bit for bit — series AND registry — across counter sources,
        // BT mixes, uptimes, and every chaos scenario family.
        let plans = [
            ("none", crate::chaos::ChaosPlan::NONE),
            ("churn", crate::chaos::ChaosScenario::PollChurn.plan(1.0)),
            ("skew", crate::chaos::ChaosScenario::ClockSkew.plan(0.95)),
            ("reset", crate::chaos::ChaosScenario::ResetStorm.plan(1.0)),
            ("omnibus", crate::chaos::ChaosScenario::Omnibus.plan(0.75)),
        ];
        let mut scratch = CollectScratch::new();
        for (seed, bt, uptime) in [(41u64, true, 0.6), (53, false, 0.97), (67, true, 0.25)] {
            let t = truth(seed, bt);
            let cap = Bandwidth::from_mbps(10.0);
            for source in [CounterSource::Upnp, CounterSource::Netstat] {
                for (name, plan) in &plans {
                    let mut reg_a = Registry::new();
                    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xA5);
                    let mut chaos_rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5A);
                    let reference = UsageSeries::collect_via_counters_chaos_reference(
                        &t,
                        uptime,
                        source,
                        cap,
                        plan,
                        &mut rng,
                        &mut chaos_rng,
                        &mut reg_a,
                    );
                    let mut reg_b = Registry::new();
                    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xA5);
                    let mut chaos_rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5A);
                    // Deliberately reuse one scratch across every case:
                    // leftover capacity and stale contents must not leak
                    // into the result.
                    let polling = CounterPolling {
                        chaos: plan,
                        ..clean(uptime, source, cap)
                    };
                    let batched = UsageSeries::collect_via_counters(
                        &t,
                        &polling,
                        &mut rng,
                        &mut chaos_rng,
                        &mut reg_b,
                        &mut scratch,
                    );
                    assert_eq!(reference, batched, "{source:?} {name} seed {seed}");
                    assert_eq!(
                        reg_a.to_json(),
                        reg_b.to_json(),
                        "{source:?} {name} seed {seed}"
                    );
                    // The RNGs must land in the same state so downstream
                    // draws in the generation pipeline stay aligned.
                    assert_eq!(
                        rng.gen::<u64>(),
                        {
                            let mut rng2 = ChaCha8Rng::seed_from_u64(seed ^ 0xA5);
                            let mut chaos2 = ChaCha8Rng::seed_from_u64(seed ^ 0x5A);
                            let mut reg2 = Registry::new();
                            UsageSeries::collect_via_counters_chaos_reference(
                                &t,
                                uptime,
                                source,
                                cap,
                                plan,
                                &mut rng2,
                                &mut chaos2,
                                &mut reg2,
                            );
                            rng2.gen::<u64>()
                        },
                        "{source:?} {name} seed {seed}: RNG stream diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn one_poll_pass_serves_every_chaos_plan() {
        // The split the fused chaos sweep rests on: poll once, then
        // reconstruct under each plan from the same raw polls — clean
        // plans in place, others from a copy — and get exactly what a
        // full collection under that plan returns, series and registry.
        let t = truth(59, true);
        let cap = Bandwidth::from_mbps(10.0);
        let plans = [
            ChaosPlan::NONE,
            crate::chaos::ChaosScenario::Omnibus.plan(0.5),
            ChaosPlan::NONE,
            crate::chaos::ChaosScenario::PollChurn.plan(1.0),
        ];
        for source in [CounterSource::Upnp, CounterSource::Netstat] {
            let mut scratch = CollectScratch::new();
            let polling = clean(0.7, source, cap);
            UsageSeries::poll_counters(
                &t,
                &polling,
                &mut ChaCha8Rng::seed_from_u64(60),
                &mut scratch,
            );
            let raw = scratch.polls.clone();
            for plan in &plans {
                let polling = CounterPolling {
                    chaos: plan,
                    ..polling
                };
                let mut reg_a = Registry::new();
                let whole = UsageSeries::collect_via_counters(
                    &t,
                    &polling,
                    &mut ChaCha8Rng::seed_from_u64(60),
                    &mut ChaCha8Rng::seed_from_u64(61),
                    &mut reg_a,
                    &mut CollectScratch::new(),
                );
                let mut reg_b = Registry::new();
                let mut copy = raw.clone();
                let polls = if plan.is_none() {
                    &mut scratch.polls
                } else {
                    &mut copy
                };
                let split = UsageSeries::reconstruct_polls(
                    &t,
                    &polling,
                    polls,
                    &mut scratch.draws,
                    &mut ChaCha8Rng::seed_from_u64(61),
                    &mut reg_b,
                );
                assert_eq!(whole, split, "{source:?} {plan:?}");
                assert_eq!(reg_a.to_json(), reg_b.to_json(), "{source:?} {plan:?}");
                assert_eq!(scratch.polls, raw, "a clean plan leaves the polls alone");
            }
        }
    }

    #[test]
    fn demand_with_is_bit_identical_to_sort_based_quantile() {
        use bb_stats::descriptive::quantile;
        let mut rates_scratch = Vec::new();
        for (seed, bt) in [(13u64, true), (17, false), (19, true)] {
            let t = truth(seed, bt);
            let mut rng = ChaCha8Rng::seed_from_u64(seed + 100);
            let polling = clean(0.7, CounterSource::Upnp, Bandwidth::from_mbps(10.0));
            let s = poll_counters(&t, &polling, &mut rng);
            for filter in [BtFilter::Include, BtFilter::Exclude] {
                let rates = s.rates(filter);
                let expected = if rates.is_empty() {
                    None
                } else {
                    let mean = rates.iter().sum::<f64>() / rates.len() as f64;
                    let peak = quantile(&rates, 0.95).max(mean);
                    Some(DemandSummary::new(
                        Bandwidth::from_bps(mean),
                        Bandwidth::from_bps(peak),
                    ))
                };
                let got = s.demand_with(filter, &mut rates_scratch);
                assert_eq!(got, s.demand(filter), "{filter:?} seed {seed}");
                match (got, expected) {
                    (None, None) => {}
                    (Some(g), Some(e)) => {
                        assert!(
                            g.mean.bps() == e.mean.bps() && g.peak.bps() == e.peak.bps(),
                            "{filter:?} seed {seed}: {g:?} vs {e:?}"
                        );
                    }
                    (g, e) => panic!("{filter:?} seed {seed}: {g:?} vs {e:?}"),
                }
            }
        }
    }

    #[test]
    fn one_pass_summaries_are_bit_identical_to_the_separate_calls() {
        let bin = |down: f64, up: f64, bt: bool| BinObs {
            down_bytes: down,
            up_bytes: up,
            bt,
        };
        let mut series = Vec::new();
        for (seed, bt) in [(13u64, true), (17, false), (19, true)] {
            let t = truth(seed, bt);
            let mut rng = ChaCha8Rng::seed_from_u64(seed + 100);
            let polling = clean(0.7, CounterSource::Upnp, Bandwidth::from_mbps(10.0));
            series.push(poll_counters(&t, &polling, &mut rng));
            series.push(UsageSeries::hourly(&t));
        }
        let slots = |bins: Vec<BinObs>| UsageSeries {
            width: BinWidth::Slot,
            bins,
        };
        // Nothing observed; every bin flagged; a lone flagged bin; zeros of
        // both signs, which only the sums' starting values tell apart.
        series.push(slots(Vec::new()));
        series.push(slots(vec![bin(1e6, 2e5, true), bin(3e6, 1e5, true)]));
        series.push(slots(vec![bin(5e5, 0.0, false), bin(7e6, 4e4, true)]));
        series.push(slots(vec![bin(-0.0, -0.0, false), bin(-0.0, -0.0, true)]));
        series.push(slots(vec![bin(-0.0, 0.0, false), bin(0.0, -0.0, false)]));
        let (mut with_bt, mut no_bt, mut rates) = (Vec::new(), Vec::new(), Vec::new());
        let bits =
            |d: Option<DemandSummary>| d.map(|d| (d.mean.bps().to_bits(), d.peak.bps().to_bits()));
        for s in &series {
            let got = s.summarise(&mut with_bt, &mut no_bt);
            let label = format!("{:?} bins {:?}", s.width, &s.bins[..s.bins.len().min(2)]);
            let want_with = s.demand_with(BtFilter::Include, &mut rates);
            let want_no = s.demand_with(BtFilter::Exclude, &mut rates);
            assert_eq!(bits(got.demand_with_bt), bits(want_with), "{label}");
            assert_eq!(bits(got.demand_no_bt), bits(want_no), "{label}");
            assert_eq!(
                got.upload_mean.map(|u| u.bps().to_bits()),
                s.upload_mean(BtFilter::Include).map(|u| u.bps().to_bits()),
                "{label}"
            );
        }
    }

    #[test]
    fn bt_users_upload_much_more() {
        let plain = UsageSeries::hourly(&truth(13, false));
        let bt = UsageSeries::hourly(&truth(13, true));
        let ratio = |s: &UsageSeries| {
            let s = summary(s);
            s.upload_mean.unwrap().bps() / s.demand_with_bt.unwrap().mean.bps().max(1.0)
        };
        assert!(
            ratio(&bt) > 2.0 * ratio(&plain),
            "BT up/down {} vs plain {}",
            ratio(&bt),
            ratio(&plain)
        );
    }
}
