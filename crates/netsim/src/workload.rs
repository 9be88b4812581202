//! The session workload generator: ground-truth traffic on one link.
//!
//! Sessions arrive as a non-homogeneous Poisson process (diurnal rate),
//! each session draws an application class, a size and a desired rate; the
//! achievable rate follows the link capacity and the Mathis TCP bound; and
//! sessions whose achievable rate falls far below what the application
//! needs are degraded or abandoned. Bytes are then spread over the
//! 30-second slot grid.
//!
//! Two mechanisms here carry the paper's causal arrows:
//!
//! * **adaptive desired rates** — streaming and web sessions scale their
//!   target rate with link capacity up to an application ceiling (the 2013
//!   ABR ladder tops out around 5 Mbps), which is what produces growth of
//!   demand with capacity *and* its plateau near 10 Mbps (§3, §9);
//! * **quality feedback** — on paths with very high RTT or loss the Mathis
//!   bound collapses, sessions degrade/abandon, and measured demand drops
//!   (§7).

use crate::app::{AppClass, AppMix};
use crate::link::AccessLink;
use crate::tcp::achievable_rate;
use bb_stats::dist::Exponential;
use bb_types::time::diurnal_multiplier;
use bb_types::{Bandwidth, TimeAxis, SLOT_SECS};
use rand::Rng;

/// Mean session size per app class (bytes), used to convert a target mean
/// offered rate into a session arrival rate. Derived from the size
/// distributions in [`crate::app`].
fn mean_session_bytes(mix: &AppMix) -> f64 {
    // E[LogNormal(median m, sigma s)] = m * exp(s^2 / 2); Pareto means from
    // its closed form (ignoring the truncation, which only trims the far
    // tail).
    let web = 2.5e6 * (0.5f64).exp();
    let video = 2.5e8 * (0.9f64 * 0.9 / 2.0).exp();
    let bulk = 1.2 * 5e6 / 0.2; // alpha x_min / (alpha - 1)
    let background = 1e5 * (0.7f64 * 0.7 / 2.0).exp();
    let total = mix.total();
    (mix.web * web + mix.video * video + mix.bulk * bulk + mix.background * background) / total
}

/// Mean BitTorrent session size (bytes): Pareto(5e7, 1.1).
fn mean_bt_session_bytes() -> f64 {
    1.1 * 5e7 / 0.1
}

/// Description of one user's traffic-generating behaviour.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UserWorkload {
    /// Target mean *offered* downlink load (what the user would generate on
    /// an unconstrained link). Realized demand is below this on slow or
    /// poor-quality links.
    pub intensity: Bandwidth,
    /// Application mix for non-BitTorrent traffic.
    pub mix: AppMix,
    /// Mean offered BitTorrent load; zero for non-BitTorrent users.
    pub bt_intensity: Bandwidth,
    /// Usage cap over the observation window, in bytes. Once cumulative
    /// traffic crosses it the ISP throttles the line to
    /// [`THROTTLE_RATE_KBPS`] (the "you're capped" policy of Chetty et
    /// al., which the paper cites in §8).
    pub cap_bytes: Option<f64>,
    /// Mean offered load of *other devices in the home* — the cross
    /// traffic Dasu detects and accounts for (§2.1). It shares the link
    /// and shows up in UPnP gateway counters, but never in the measured
    /// host's `netstat`.
    pub cross_intensity: Bandwidth,
}

/// Post-cap throttle rate applied by capped plans, kbps.
pub const THROTTLE_RATE_KBPS: f64 = 128.0;

impl UserWorkload {
    /// A workload with no BitTorrent traffic.
    pub fn without_bt(intensity: Bandwidth) -> Self {
        UserWorkload {
            intensity,
            mix: AppMix::TYPICAL,
            bt_intensity: Bandwidth::ZERO,
            cap_bytes: None,
            cross_intensity: Bandwidth::ZERO,
        }
    }

    /// A BitTorrent user: `bt_share` of the offered load rides torrents.
    pub fn with_bt(intensity: Bandwidth, bt_share: f64) -> Self {
        assert!((0.0..1.0).contains(&bt_share), "bt_share in [0,1)");
        UserWorkload {
            intensity: intensity * (1.0 - bt_share),
            mix: AppMix::TYPICAL,
            bt_intensity: intensity * bt_share,
            cap_bytes: None,
            cross_intensity: Bandwidth::ZERO,
        }
    }

    /// Apply a usage cap for the observation window.
    pub fn with_cap(mut self, cap_bytes: f64) -> Self {
        assert!(cap_bytes > 0.0, "cap must be positive");
        self.cap_bytes = Some(cap_bytes);
        self
    }

    /// Add household cross traffic (other devices sharing the link).
    pub fn with_cross_traffic(mut self, intensity: Bandwidth) -> Self {
        self.cross_intensity = intensity;
        self
    }
}

/// Ground-truth traffic of one user over one observation window: bytes per
/// 30-second slot, and whether BitTorrent was active in each slot.
#[derive(Clone, Debug, PartialEq)]
pub struct GroundTruth {
    /// The observation window.
    pub axis: TimeAxis,
    /// Downlink bytes delivered in each slot.
    pub slot_bytes: Vec<f64>,
    /// Uplink bytes sent in each slot (requests, ACK chatter, BitTorrent
    /// reciprocation).
    pub up_slot_bytes: Vec<f64>,
    /// Downlink bytes of *other household devices* per slot: carried by
    /// the same link and by UPnP gateway counters, invisible to the
    /// measured host's `netstat`.
    pub cross_slot_bytes: Vec<f64>,
    /// Whether a BitTorrent session overlapped each slot.
    pub bt_active: Vec<bool>,
}

impl GroundTruth {
    /// Total downlink bytes over the window.
    pub fn total_bytes(&self) -> f64 {
        self.slot_bytes.iter().sum()
    }

    /// Total uplink bytes over the window.
    pub fn total_up_bytes(&self) -> f64 {
        self.up_slot_bytes.iter().sum()
    }

    /// Total household cross-traffic bytes over the window.
    pub fn total_cross_bytes(&self) -> f64 {
        self.cross_slot_bytes.iter().sum()
    }

    /// Fraction of slots with BitTorrent activity.
    pub fn bt_slot_fraction(&self) -> f64 {
        let n = self.bt_active.len();
        if n == 0 {
            return 0.0;
        }
        self.bt_active.iter().filter(|b| **b).count() as f64 / n as f64
    }

    /// An all-zero truth over `axis`, sized for [`simulate_user_into`] to
    /// fill. Reusing one of these across users keeps the five per-window
    /// buffers allocated once per shard instead of once per user.
    pub fn empty(axis: TimeAxis) -> Self {
        let n_slots = axis.n_slots() as usize;
        GroundTruth {
            axis,
            slot_bytes: vec![0.0; n_slots],
            up_slot_bytes: vec![0.0; n_slots],
            cross_slot_bytes: vec![0.0; n_slots],
            bt_active: vec![false; n_slots],
        }
    }

    /// Reset to the all-zero state over `axis`, reusing the allocations.
    pub fn reset(&mut self, axis: TimeAxis) {
        let n_slots = axis.n_slots() as usize;
        self.axis = axis;
        self.slot_bytes.clear();
        self.slot_bytes.resize(n_slots, 0.0);
        self.up_slot_bytes.clear();
        self.up_slot_bytes.resize(n_slots, 0.0);
        self.cross_slot_bytes.clear();
        self.cross_slot_bytes.resize(n_slots, 0.0);
        self.bt_active.clear();
        self.bt_active.resize(n_slots, false);
    }
}

/// The capacity-adaptive desired rate of a session (see module docs).
pub fn effective_desired(class: AppClass, capacity: Bandwidth) -> Option<Bandwidth> {
    match class {
        // Page-load bursts: as fast as the link allows, up to a server/CDN
        // ceiling.
        AppClass::Web => Some(Bandwidth::from_mbps(8.0).min(capacity)),
        // ABR video: pick a rung near 55% of capacity, clamped to the
        // 2013-era ladder (360p ≈ 0.35 Mbps … 1080p ≈ 5 Mbps).
        AppClass::Video => {
            let target = (capacity.mbps() * 0.55).clamp(0.35, 5.0);
            Some(Bandwidth::from_mbps(target))
        }
        AppClass::Bulk | AppClass::BitTorrent => None,
        AppClass::Background => Some(Bandwidth::from_kbps(64.0)),
    }
}

/// Simulate one user's traffic over `axis`, returning ground truth.
///
/// Event-driven: only sessions are iterated, never idle slots, so cost is
/// proportional to traffic volume rather than window length.
pub fn simulate_user<R: Rng + ?Sized>(
    link: &AccessLink,
    workload: &UserWorkload,
    axis: TimeAxis,
    rng: &mut R,
) -> GroundTruth {
    let mut out = GroundTruth::empty(axis);
    simulate_user_into(link, workload, axis, rng, &mut out, &mut Vec::new());
    out
}

/// [`simulate_user`] into caller-provided buffers: `out` is reset and
/// filled in place, `cross_up_scratch` absorbs the discarded uplink side
/// of the cross-traffic process. Draw-for-draw and operation-for-
/// operation identical to [`simulate_user`] — the generation hot loop
/// uses this form to amortise the five per-window buffer allocations
/// across every user in a shard block.
pub fn simulate_user_into<R: Rng + ?Sized>(
    link: &AccessLink,
    workload: &UserWorkload,
    axis: TimeAxis,
    rng: &mut R,
    out: &mut GroundTruth,
    cross_up_scratch: &mut Vec<f64>,
) {
    let n_slots = axis.n_slots() as usize;
    out.reset(axis);
    cross_up_scratch.clear();
    cross_up_scratch.resize(n_slots, 0.0);

    if !workload.intensity.is_zero() {
        let lambda = workload.intensity.bps() / 8.0 / mean_session_bytes(&workload.mix);
        run_process(
            link,
            axis,
            lambda,
            rng,
            &mut out.slot_bytes,
            &mut out.up_slot_bytes,
            None,
            |rng| workload.mix.sample(rng),
        );
    }
    if !workload.bt_intensity.is_zero() {
        let lambda = workload.bt_intensity.bps() / 8.0 / mean_bt_session_bytes();
        run_process(
            link,
            axis,
            lambda,
            rng,
            &mut out.slot_bytes,
            &mut out.up_slot_bytes,
            Some(&mut out.bt_active),
            |_| AppClass::BitTorrent,
        );
    }

    // Other household devices share the downlink.
    if !workload.cross_intensity.is_zero() {
        let lambda = workload.cross_intensity.bps() / 8.0 / mean_session_bytes(&AppMix::TYPICAL);
        run_process(
            link,
            axis,
            lambda,
            rng,
            &mut out.cross_slot_bytes,
            cross_up_scratch,
            None,
            |rng| AppMix::TYPICAL.sample(rng),
        );
    }

    // Enforce the physical per-slot ceiling: host and household traffic
    // share the downlink, so scale both down proportionally when their sum
    // exceeds it.
    let slot_cap = link.capacity.bytes_over(SLOT_SECS);
    for (b, c) in out.slot_bytes.iter_mut().zip(&mut out.cross_slot_bytes) {
        let total = *b + *c;
        if total > slot_cap {
            let scale = slot_cap / total;
            *b *= scale;
            *c *= scale;
        }
    }
    let up_slot_cap = link.up_capacity.bytes_over(SLOT_SECS);
    for b in &mut out.up_slot_bytes {
        if *b > up_slot_cap {
            *b = up_slot_cap;
        }
    }

    // Usage-cap enforcement: once cumulative bytes (both directions — ISPs
    // meter both) cross the cap, the throttle clamps every later slot.
    if let Some(cap) = workload.cap_bytes {
        let throttle_slot = Bandwidth::from_kbps(THROTTLE_RATE_KBPS).bytes_over(SLOT_SECS);
        let mut cumulative = 0.0;
        for (b, u) in out.slot_bytes.iter_mut().zip(&mut out.up_slot_bytes) {
            if cumulative >= cap {
                if *b > throttle_slot {
                    *b = throttle_slot;
                }
                if *u > throttle_slot {
                    *u = throttle_slot;
                }
            }
            cumulative += *b + *u;
        }
    }
}

/// Drive one Poisson session process and deposit bytes into `slot_bytes`.
#[allow(clippy::too_many_arguments)]
fn run_process<R: Rng + ?Sized>(
    link: &AccessLink,
    axis: TimeAxis,
    lambda_mean: f64,
    rng: &mut R,
    slot_bytes: &mut [f64],
    up_slot_bytes: &mut [f64],
    mut bt_flags: Option<&mut Vec<bool>>,
    mut draw_class: impl FnMut(&mut R) -> AppClass,
) {
    if lambda_mean <= 0.0 {
        return;
    }
    // Thinning for the non-homogeneous process: candidate arrivals at the
    // diurnal maximum rate, accepted with probability λ(t)/λ_max.
    const DIURNAL_MAX: f64 = 2.0;
    let lambda_max = lambda_mean * DIURNAL_MAX;
    let gap = Exponential::new(lambda_max);
    let horizon = axis.duration_secs();

    let mut t = gap.sample(rng);
    while t < horizon {
        let hour = ((t / 3600.0) as u64 % 24) as u8;
        let accept_p = diurnal_multiplier(hour) / DIURNAL_MAX;
        if rng.gen::<f64>() < accept_p.min(1.0) {
            let class = draw_class(rng);
            let mut bytes = class.sample_bytes(rng);
            // Small per-session spread around the nominal target rate
            // (different players, codecs, CDNs); this also keeps the
            // demand distribution continuous instead of quantised at the
            // application ceilings.
            let jitter = 1.0 + 0.12 * (rng.gen::<f64>() - 0.5);
            let desired = effective_desired(class, link.capacity).unwrap_or(link.capacity) * jitter;
            let rate = achievable_rate(link, desired, class.flows(), 0.0);
            // Quality feedback: degrade or abandon sessions whose achievable
            // rate is far below what the application needs.
            if let Some(threshold) = class.abandon_threshold() {
                let quality = rate / desired;
                if quality < threshold {
                    // The user gives up early; only a teaser of the session
                    // is transferred.
                    bytes *= quality / threshold * 0.3;
                }
            }
            deposit(
                slot_bytes,
                up_slot_bytes,
                bt_flags.as_deref_mut(),
                t,
                bytes,
                rate,
                class,
            );
        }
        t += gap.sample(rng);
    }
}

/// Spread `bytes` at `rate` starting at time `start_secs` across slots,
/// depositing the class's upload echo alongside.
///
/// Every slot gets exactly the additions the slot-by-slot loop (kept as
/// the test oracle `deposit_reference`) makes, in the same order. Once the
/// session is on a slot boundary, a run of full 30-s slots is added as
/// one slice add: `remaining >= run_floor` proves `remaining /
/// bytes_per_sec > SLOT_SECS` without dividing (DESIGN §13), so each of
/// those slots gets the scalar loop's `SLOT_SECS * bytes_per_sec` chunk,
/// and `remaining` still falls one subtraction at a time. The partial
/// first and last slots, and a slot whose `remaining` lies within the
/// margin of one full chunk, take the scalar path.
#[allow(clippy::too_many_arguments)]
fn deposit(
    slot_bytes: &mut [f64],
    up_slot_bytes: &mut [f64],
    bt_flags: Option<&mut Vec<bool>>,
    start_secs: f64,
    bytes: f64,
    rate: Bandwidth,
    class: AppClass,
) {
    if bytes <= 0.0 || rate.is_zero() {
        return;
    }
    // Cap session length at 6 hours: torrents left running forever are
    // throttled/stopped by clients, and it bounds worst-case work.
    const MAX_SESSION_SECS: f64 = 6.0 * 3600.0;
    // 2^-40: far above the two roundings (2^-53 each) the floor must
    // absorb, far below any rate's resolution.
    const RUN_MARGIN: f64 = 1.0 / (1u64 << 40) as f64;
    let bytes_per_sec = rate.bps() / 8.0;
    let duration = (bytes / bytes_per_sec).min(MAX_SESSION_SECS);
    let mut remaining = bytes.min(duration * bytes_per_sec);

    let upload_fraction = class.upload_fraction();
    let full = SLOT_SECS * bytes_per_sec;
    let up_full = full * upload_fraction;
    // The proof needs relative rounding bounds, which a subnormal or
    // infinite chunk does not have: such a session never takes a run.
    let run_floor = if full.is_normal() {
        full * (1.0 + RUN_MARGIN)
    } else {
        f64::INFINITY
    };
    let mut t = start_secs;
    let n = slot_bytes.len();
    let mut flags = bt_flags.filter(|_| class == AppClass::BitTorrent);
    while remaining > 0.0 {
        let slot = (t / SLOT_SECS) as usize;
        if slot >= n {
            break; // session runs past the observation window
        }
        let slot_end = (slot as f64 + 1.0) * SLOT_SECS;
        let span = (slot_end - t).min(remaining / bytes_per_sec);
        let chunk = span * bytes_per_sec;
        slot_bytes[slot] += chunk;
        up_slot_bytes[slot] += chunk * upload_fraction;
        if let Some(f) = flags.as_deref_mut() {
            f[slot] = true;
        }
        remaining -= chunk;
        t = slot_end;
        if span <= 0.0 {
            break;
        }
        // `t` is now the boundary `(slot + 1) * SLOT_SECS`, exactly.
        let run = slot + 1;
        let mut end = run;
        while end < n && remaining >= run_floor {
            remaining -= full;
            end += 1;
        }
        if end > run {
            slot_bytes[run..end].iter_mut().for_each(|b| *b += full);
            up_slot_bytes[run..end]
                .iter_mut()
                .for_each(|b| *b += up_full);
            if let Some(f) = flags.as_deref_mut() {
                f[run..end].fill(true);
            }
            t = end as f64 * SLOT_SECS;
        }
    }
}

/// The slot-by-slot `deposit`, kept verbatim as the oracle the run form
/// is pinned against.
#[cfg(test)]
#[allow(clippy::too_many_arguments)]
fn deposit_reference(
    slot_bytes: &mut [f64],
    up_slot_bytes: &mut [f64],
    bt_flags: Option<&mut Vec<bool>>,
    start_secs: f64,
    bytes: f64,
    rate: Bandwidth,
    class: AppClass,
) {
    if bytes <= 0.0 || rate.is_zero() {
        return;
    }
    // Cap session length at 6 hours: torrents left running forever are
    // throttled/stopped by clients, and it bounds worst-case work.
    const MAX_SESSION_SECS: f64 = 6.0 * 3600.0;
    let bytes_per_sec = rate.bps() / 8.0;
    let duration = (bytes / bytes_per_sec).min(MAX_SESSION_SECS);
    let mut remaining = bytes.min(duration * bytes_per_sec);

    let mut t = start_secs;
    let n = slot_bytes.len();
    let mut flags = bt_flags;
    while remaining > 0.0 {
        let slot = (t / SLOT_SECS) as usize;
        if slot >= n {
            break; // session runs past the observation window
        }
        let slot_end = (slot as f64 + 1.0) * SLOT_SECS;
        let span = (slot_end - t).min(remaining / bytes_per_sec);
        let chunk = span * bytes_per_sec;
        slot_bytes[slot] += chunk;
        up_slot_bytes[slot] += chunk * class.upload_fraction();
        if class == AppClass::BitTorrent {
            if let Some(f) = flags.as_deref_mut() {
                f[slot] = true;
            }
        }
        remaining -= chunk;
        t = slot_end;
        if span <= 0.0 {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_types::{Latency, LossRate, Year};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn clean_link(mbps: f64) -> AccessLink {
        AccessLink::new(
            Bandwidth::from_mbps(mbps),
            Latency::from_ms(40.0),
            LossRate::from_percent(0.01),
        )
    }

    fn axis_days(d: u32) -> TimeAxis {
        TimeAxis::new(Year(2012), d)
    }

    #[test]
    fn simulate_user_into_reused_buffers_match_fresh_allocation() {
        let link = clean_link(10.0);
        let workloads = [
            UserWorkload::with_bt(Bandwidth::from_mbps(1.0), 0.5),
            UserWorkload::without_bt(Bandwidth::from_mbps(2.0)),
            UserWorkload::without_bt(Bandwidth::ZERO),
        ];
        // One truth + scratch reused across users and axis lengths: stale
        // contents from the previous (longer) window must never leak.
        let mut out = GroundTruth::empty(axis_days(1));
        let mut cross_up = Vec::new();
        for (i, wl) in workloads.iter().enumerate() {
            for days in [7u32, 3] {
                let axis = axis_days(days);
                let seed = 100 + i as u64 * 10 + days as u64;
                let fresh = simulate_user(&link, wl, axis, &mut rng(seed));
                let mut r = rng(seed);
                simulate_user_into(&link, wl, axis, &mut r, &mut out, &mut cross_up);
                assert_eq!(out, fresh, "workload {i} days {days}");
                // Same RNG state afterwards, too.
                let mut r_fresh = rng(seed);
                simulate_user(&link, wl, axis, &mut r_fresh);
                assert_eq!(r.gen::<u64>(), r_fresh.gen::<u64>());
            }
        }
    }

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    fn mean_rate_mbps(gt: &GroundTruth) -> f64 {
        gt.total_bytes() * 8.0 / gt.axis.duration_secs() / 1e6
    }

    #[test]
    fn realized_mean_tracks_intensity_on_a_fast_link() {
        let link = clean_link(50.0);
        let wl = UserWorkload::without_bt(Bandwidth::from_mbps(0.5));
        let gt = simulate_user(&link, &wl, axis_days(14), &mut rng(1));
        let mean = mean_rate_mbps(&gt);
        assert!(
            (mean / 0.5 - 1.0).abs() < 0.5,
            "mean {mean} Mbps should be near the 0.5 Mbps intensity"
        );
    }

    #[test]
    fn slow_link_suppresses_realized_demand() {
        let wl = UserWorkload::without_bt(Bandwidth::from_mbps(2.0));
        let fast = simulate_user(&clean_link(50.0), &wl, axis_days(7), &mut rng(2));
        let slow = simulate_user(&clean_link(0.5), &wl, axis_days(7), &mut rng(2));
        assert!(
            mean_rate_mbps(&slow) < mean_rate_mbps(&fast) * 0.7,
            "slow {} vs fast {}",
            mean_rate_mbps(&slow),
            mean_rate_mbps(&fast)
        );
    }

    #[test]
    fn terrible_quality_suppresses_demand() {
        let wl = UserWorkload::without_bt(Bandwidth::from_mbps(1.0));
        let good = simulate_user(&clean_link(8.0), &wl, axis_days(7), &mut rng(3));
        let bad_link = AccessLink::new(
            Bandwidth::from_mbps(8.0),
            Latency::from_ms(900.0),
            LossRate::from_percent(3.0),
        );
        let bad = simulate_user(&bad_link, &wl, axis_days(7), &mut rng(3));
        assert!(
            mean_rate_mbps(&bad) < mean_rate_mbps(&good),
            "bad {} vs good {}",
            mean_rate_mbps(&bad),
            mean_rate_mbps(&good)
        );
    }

    #[test]
    fn slots_never_exceed_capacity() {
        let link = clean_link(2.0);
        let wl = UserWorkload::with_bt(Bandwidth::from_mbps(1.5), 0.5);
        let gt = simulate_user(&link, &wl, axis_days(3), &mut rng(4));
        let cap = link.capacity.bytes_over(SLOT_SECS);
        assert!(gt.slot_bytes.iter().all(|&b| b <= cap + 1e-6));
    }

    #[test]
    fn bt_flags_only_for_bt_users() {
        let link = clean_link(10.0);
        let plain = simulate_user(
            &link,
            &UserWorkload::without_bt(Bandwidth::from_mbps(1.0)),
            axis_days(3),
            &mut rng(5),
        );
        assert_eq!(plain.bt_slot_fraction(), 0.0);
        let bt = simulate_user(
            &link,
            &UserWorkload::with_bt(Bandwidth::from_mbps(1.0), 0.6),
            axis_days(3),
            &mut rng(5),
        );
        assert!(bt.bt_slot_fraction() > 0.0);
    }

    #[test]
    fn determinism_per_seed() {
        let link = clean_link(10.0);
        let wl = UserWorkload::without_bt(Bandwidth::from_mbps(0.3));
        let a = simulate_user(&link, &wl, axis_days(2), &mut rng(7));
        let b = simulate_user(&link, &wl, axis_days(2), &mut rng(7));
        assert_eq!(a, b);
    }

    #[test]
    fn usage_cap_throttles_the_tail_of_the_window() {
        let link = clean_link(20.0);
        let heavy = UserWorkload::with_bt(Bandwidth::from_mbps(3.0), 0.4);
        let uncapped = simulate_user(&link, &heavy, axis_days(7), &mut rng(21));
        // A cap at a third of the uncapped volume must bind.
        let cap = uncapped.total_bytes() / 3.0;
        let capped_wl = heavy.with_cap(cap);
        let capped = simulate_user(&link, &capped_wl, axis_days(7), &mut rng(21));
        assert!(
            capped.total_bytes() < uncapped.total_bytes() * 0.75,
            "capped {} vs uncapped {}",
            capped.total_bytes(),
            uncapped.total_bytes()
        );
        // Total cannot exceed cap plus the residual throttle allowance.
        let throttle_budget =
            Bandwidth::from_kbps(THROTTLE_RATE_KBPS).bytes_over(capped.axis.duration_secs());
        assert!(
            capped.total_bytes() <= cap + throttle_budget + link.capacity.bytes_over(SLOT_SECS)
        );
    }

    #[test]
    fn cross_traffic_shares_the_link() {
        let link = clean_link(4.0);
        let wl = UserWorkload::without_bt(Bandwidth::from_mbps(1.2))
            .with_cross_traffic(Bandwidth::from_mbps(1.0));
        let gt = simulate_user(&link, &wl, axis_days(3), &mut rng(41));
        assert!(gt.total_cross_bytes() > 0.0);
        // Joint clamp: no slot carries more than the link allows.
        let cap = link.capacity.bytes_over(bb_types::SLOT_SECS);
        for (b, c) in gt.slot_bytes.iter().zip(&gt.cross_slot_bytes) {
            assert!(b + c <= cap + 1e-6);
        }
        // Without cross traffic the host's own bytes don't shrink much.
        let solo = simulate_user(
            &clean_link(4.0),
            &UserWorkload::without_bt(Bandwidth::from_mbps(1.2)),
            axis_days(3),
            &mut rng(41),
        );
        assert!(gt.total_bytes() > 0.5 * solo.total_bytes());
    }

    #[test]
    fn generous_cap_changes_nothing() {
        let link = clean_link(10.0);
        let wl = UserWorkload::without_bt(Bandwidth::from_mbps(0.5));
        let free = simulate_user(&link, &wl, axis_days(2), &mut rng(22));
        let roomy = simulate_user(&link, &wl.with_cap(1e15), axis_days(2), &mut rng(22));
        assert_eq!(free.slot_bytes, roomy.slot_bytes);
    }

    #[test]
    fn zero_intensity_is_silent() {
        let link = clean_link(10.0);
        let gt = simulate_user(
            &link,
            &UserWorkload::without_bt(Bandwidth::ZERO),
            axis_days(1),
            &mut rng(8),
        );
        assert_eq!(gt.total_bytes(), 0.0);
    }

    /// Deposit `sessions` with the run form and with the slot-by-slot
    /// oracle into copies of the same pre-filled buffers, then compare
    /// every slot of both byte vectors by `to_bits`, and the flags. The
    /// buffers start non-zero, as after earlier sessions, so the order of
    /// each slot's additions shows.
    fn assert_deposit_matches(
        n_slots: usize,
        flags: bool,
        sessions: &[(f64, f64, Bandwidth, AppClass)],
    ) {
        let base: Vec<f64> = (0..n_slots)
            .map(|i| (i as f64 * 0.37).fract() * 1e5)
            .collect();
        let (mut down, mut up, mut bt) = (base.clone(), base.clone(), vec![false; n_slots]);
        let (mut down_ref, mut up_ref, mut bt_ref) = (base.clone(), base, vec![false; n_slots]);
        for &(start, bytes, rate, class) in sessions {
            deposit(
                &mut down,
                &mut up,
                flags.then_some(&mut bt),
                start,
                bytes,
                rate,
                class,
            );
            deposit_reference(
                &mut down_ref,
                &mut up_ref,
                flags.then_some(&mut bt_ref),
                start,
                bytes,
                rate,
                class,
            );
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let case = format!("{n_slots} slots, flags {flags}: {sessions:?}");
        assert_eq!(bits(&down), bits(&down_ref), "down bytes, {case}");
        assert_eq!(bits(&up), bits(&up_ref), "up bytes, {case}");
        assert_eq!(bt, bt_ref, "BitTorrent flags, {case}");
    }

    #[test]
    fn full_slot_runs_match_the_slot_by_slot_deposit() {
        // Longer than the 6-hour cap (720 slots), so both ends show.
        let n_slots = 1000;
        let window = n_slots as f64 * SLOT_SECS;
        let rates = [
            Bandwidth::from_kbps(1.0),
            Bandwidth::from_kbps(64.0),
            Bandwidth::from_mbps(1.0),
            Bandwidth::from_mbps(7.0 / 3.0),
            Bandwidth::from_mbps(3.7),
            Bandwidth::from_mbps(10.0),
            Bandwidth::from_mbps(123.456),
            Bandwidth::from_gbps(1.0),
            Bandwidth::from_gbps(10.0),
        ];
        // On a boundary, mid-slot, a hair either side of a boundary, near
        // the end of the window and past it.
        let starts = [
            0.0,
            30.0,
            45.0,
            17.3,
            59.999_999,
            60.000_001,
            window - 10.0,
            window - 95.0,
            window + 5.0,
        ];
        // Every class flags its slots; BitTorrent also runs without a
        // flag buffer.
        let configs = AppClass::ALL
            .map(|class| (class, true))
            .into_iter()
            .chain([(AppClass::BitTorrent, false)]);
        for rate in rates {
            let full = SLOT_SECS * (rate.bps() / 8.0);
            // Less than a slot, a few slots, past the window for fast
            // rates, and past the 6-hour cap for all.
            let mut sizes = vec![
                1.0,
                full * 0.5,
                full * 2.5,
                full * 100.0 + 3.0,
                rate.bytes_over(7.0 * 3600.0),
                rate.bytes_over(2.0 * window),
            ];
            // Within a hair of a whole number of chunks, where the run
            // floor decides between a full chunk and the scalar path.
            for k in [1.0, 2.0, 3.0] {
                for rel in [
                    0.0,
                    2f64.powi(-50),
                    2f64.powi(-45),
                    2f64.powi(-41),
                    2f64.powi(-39),
                ] {
                    sizes.push(k * full * (1.0 - rel));
                    sizes.push(k * full * (1.0 + rel));
                }
            }
            for start in starts {
                for &bytes in &sizes {
                    for (class, flags) in configs.clone() {
                        assert_deposit_matches(n_slots, flags, &[(start, bytes, rate, class)]);
                    }
                }
            }
        }
    }

    #[test]
    fn a_chunk_that_divides_below_a_slot_stays_exact() {
        // Found by searching rates: at 7/3 Mbps one full chunk
        // `F = SLOT_SECS * bytes_per_sec`, divided back by the rate,
        // rounds below SLOT_SECS, so `remaining == F` does not prove a
        // full slot. Two chunks from a boundary leave exactly `F` for the
        // second slot, which the run floor's margin keeps on the scalar
        // path. The scalar chunk there, `(F / bps) * bps`, is `F` again
        // (DESIGN §13 shows it always is), so a floor without the margin
        // would add the same bytes; one below `F` would not, and the
        // near-multiple sizes above catch that.
        let rate = Bandwidth::from_mbps(7.0 / 3.0);
        let bytes_per_sec = rate.bps() / 8.0;
        let full = SLOT_SECS * bytes_per_sec;
        assert!(
            full / bytes_per_sec < SLOT_SECS,
            "the rate no longer divides below a slot"
        );
        assert_eq!(2.0 * full - full, full);
        assert_eq!((full / bytes_per_sec) * bytes_per_sec, full);
        for class in AppClass::ALL {
            assert_deposit_matches(8, true, &[(0.0, 2.0 * full, rate, class)]);
            assert_deposit_matches(8, true, &[(60.0, 2.0 * full, rate, class)]);
        }
    }

    proptest::proptest! {
        #[test]
        fn deposit_runs_match_the_oracle_for_any_session(
            seed in 0u64..u64::MAX,
            n_slots in 1usize..400,
            n_sessions in 1usize..40,
        ) {
            // A burst of sessions into one window: start anywhere up to
            // just past its end, sizes from a byte to 10 GB and rates from
            // 1 kbps to 10 Gbps on log scales, every class, both flag
            // modes.
            let mut r = rng(seed);
            let window = n_slots as f64 * SLOT_SECS;
            let sessions: Vec<_> = (0..n_sessions)
                .map(|_| {
                    let start = r.gen_range(0.0..window + 60.0);
                    let bytes = 10f64.powf(r.gen_range(0.0..10.0));
                    let rate = Bandwidth::from_bps(10f64.powf(r.gen_range(3.0..10.0)));
                    let class = AppClass::ALL[r.gen_range(0..AppClass::ALL.len())];
                    (start, bytes, rate, class)
                })
                .collect();
            assert_deposit_matches(n_slots, r.gen::<bool>(), &sessions);
        }
    }

    #[test]
    fn video_rate_adapts_to_capacity_with_ceiling() {
        let slow = effective_desired(AppClass::Video, Bandwidth::from_mbps(1.0)).unwrap();
        let mid = effective_desired(AppClass::Video, Bandwidth::from_mbps(8.0)).unwrap();
        let fast = effective_desired(AppClass::Video, Bandwidth::from_mbps(100.0)).unwrap();
        assert!(slow < mid);
        assert_eq!(fast, Bandwidth::from_mbps(5.0), "ladder ceiling");
    }

    #[test]
    fn diurnal_shape_shows_up_in_traffic() {
        let link = clean_link(20.0);
        let wl = UserWorkload::without_bt(Bandwidth::from_mbps(1.0));
        let gt = simulate_user(&link, &wl, axis_days(30), &mut rng(9));
        // Aggregate bytes by hour of day.
        let mut by_hour = [0.0f64; 24];
        for (i, b) in gt.slot_bytes.iter().enumerate() {
            let hour = (i % 2880) / 120;
            by_hour[hour] += b;
        }
        let evening: f64 = (19..23).map(|h| by_hour[h]).sum();
        let night: f64 = (2..6).map(|h| by_hour[h]).sum();
        assert!(evening > night * 1.5, "evening {evening} vs night {night}");
    }
}
