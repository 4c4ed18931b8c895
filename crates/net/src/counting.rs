//! Crowd-scale occupancy *counting*: per-room population estimates with
//! confidence intervals and explicit staleness.
//!
//! The paper answers "which room is user X in"; demand response ultimately
//! needs "how many people are in each room". Following Demrozi et al.
//! (PAPERS.md), this layer estimates room *population* from the aggregate
//! evidence the BMS already retains — distinct reporting devices, report
//! volume, and the distance (RSSI-strength) distribution inside a sliding
//! evidence window — without assuming every person carries a tracked
//! device: the estimator scales the observed device census by a configured
//! carry rate and reports a binomial confidence interval around the scaled
//! count.
//!
//! The types here mirror the presence path's semantics exactly:
//!
//! * [`PopulationEvidence`] is the mergeable per-room aggregate — integer
//!   counters and micrometre distance sums only, so merging shard
//!   contributions is associative and commutative and a sharded fleet
//!   finalizes to bit-for-bit the single server's estimates.
//! * [`PopulationEstimate`] is the finalized per-room answer:
//!   `count` ± confidence interval, plus the age of the newest evidence
//!   (`staleness`) and a `fresh` flag, so a consumer can tell "the room is
//!   empty" from "the room went dark".
//! * [`PopulationView`] is wrapped in
//!   [`Windowed`] by the query paths (retention
//!   truncation makes an answer incomplete, never silently wrong), and
//!   [`LeveledPopulationView`] tags a tier's answer with the same
//!   [`ServiceLevel`] the occupancy path uses: a
//!   lagging shard degrades the answer's *label* while the numbers stay
//!   the consistent already-ingested prefix.

use crate::{RoomLabel, ServiceLevel, Windowed};
use roomsense_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt;

/// Micrometres per metre: report distances are accumulated as integer
/// micrometres so shard merges stay order-independent (f64 addition is
/// not associative; u64 addition is).
const UM_PER_M: f64 = 1.0e6;

/// Configuration for population estimation.
///
/// Consuming `with_*` builders over a validated default:
///
/// ```
/// use roomsense_net::CountingConfig;
/// use roomsense_sim::SimDuration;
///
/// let config = CountingConfig::default()
///     .with_window(SimDuration::from_secs(150))
///     .with_carry_rate(0.8);
/// assert_eq!(config.window, SimDuration::from_secs(150));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CountingConfig {
    /// Evidence window: a device counts as *observed* if it has a retained
    /// report in `[now - window, now]`.
    pub window: SimDuration,
    /// Freshness TTL for the estimate itself: a room whose newest evidence
    /// is older than this is flagged not fresh.
    pub ttl: SimDuration,
    /// Probability that a person carries a reporting device, in `(0, 1]`.
    /// The observed device census is scaled by `1 / carry_rate`.
    pub carry_rate: f64,
    /// Half-width multiplier for the confidence interval (1.96 ≈ 95 %).
    pub z: f64,
}

impl Default for CountingConfig {
    fn default() -> Self {
        CountingConfig {
            window: SimDuration::from_secs(150),
            ttl: SimDuration::from_secs(150),
            carry_rate: 1.0,
            z: 1.96,
        }
    }
}

impl CountingConfig {
    /// Sets the evidence window.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn with_window(mut self, window: SimDuration) -> Self {
        assert!(!window.is_zero(), "counting window must be non-zero");
        self.window = window;
        self
    }

    /// Sets the freshness TTL.
    pub fn with_ttl(mut self, ttl: SimDuration) -> Self {
        self.ttl = ttl;
        self
    }

    /// Sets the device carry rate.
    ///
    /// # Panics
    ///
    /// Panics if `carry_rate` is outside `(0, 1]`.
    pub fn with_carry_rate(mut self, carry_rate: f64) -> Self {
        assert!(
            carry_rate > 0.0 && carry_rate <= 1.0,
            "carry rate must be in (0, 1] (got {carry_rate})"
        );
        self.carry_rate = carry_rate;
        self
    }

    /// Sets the confidence-interval half-width multiplier.
    ///
    /// # Panics
    ///
    /// Panics if `z` is negative.
    pub fn with_z(mut self, z: f64) -> Self {
        assert!(z >= 0.0, "z must be non-negative (got {z})");
        self.z = z;
        self
    }
}

/// The mergeable per-room aggregate one server (or shard) contributes.
///
/// Integer counters only: merging is associative and commutative, so a
/// sharded fleet's merged evidence — and everything finalized from it —
/// is bit-for-bit the single server's regardless of shard count or merge
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PopulationEvidence {
    /// Devices whose last-known room is this room (the presence census).
    pub devices: usize,
    /// Of those, devices with at least one retained report inside the
    /// evidence window.
    pub observed: usize,
    /// Retained reports inside the evidence window, across those devices.
    pub reports: u64,
    /// Sum of each in-window report's nearest-beacon distance, in integer
    /// micrometres (the RSSI-strength distribution aggregate).
    pub distance_um: u64,
    /// Newest evidence instant across the room's devices (their last
    /// classified report times), window or not.
    pub newest: Option<SimTime>,
}

impl PopulationEvidence {
    /// Folds another shard's contribution into this one.
    pub fn merge(&mut self, other: &PopulationEvidence) {
        self.devices += other.devices;
        self.observed += other.observed;
        self.reports += other.reports;
        self.distance_um += other.distance_um;
        self.newest = match (self.newest, other.newest) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// Accumulates one in-window report's nearest sighting.
    pub fn add_report(&mut self, nearest_distance_m: f64) {
        self.reports += 1;
        self.distance_um += (nearest_distance_m.max(0.0) * UM_PER_M).round() as u64;
    }

    /// Finalizes the aggregate into an estimate as of `now`.
    pub fn finalize(&self, now: SimTime, config: &CountingConfig) -> PopulationEstimate {
        let p = config.carry_rate;
        let observed = self.observed as f64;
        let count = observed / p;
        // Binomial plug-in: observing `d` of `N` carriers with carry
        // probability `p` gives `N̂ = d/p` with `sd(N̂) = √(d(1-p))/p`.
        let sd = (observed * (1.0 - p)).sqrt() / p;
        let ci_low = (count - config.z * sd).max(observed);
        let ci_high = count + config.z * sd;
        let staleness = self
            .newest
            .map_or(SimDuration::from_millis(u64::MAX), |at| {
                now.saturating_since(at)
            });
        let mean_distance_m = if self.reports > 0 {
            (self.distance_um as f64 / UM_PER_M) / self.reports as f64
        } else {
            0.0
        };
        PopulationEstimate {
            devices: self.devices,
            observed: self.observed,
            reports: self.reports,
            count,
            ci_low,
            ci_high,
            mean_distance_m,
            staleness,
            fresh: staleness <= config.ttl,
        }
    }
}

/// One room's finalized population estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PopulationEstimate {
    /// Devices whose last-known room is this room (presence census —
    /// these linger through outages; `count` does not).
    pub devices: usize,
    /// Devices with in-window evidence, the basis of `count`.
    pub observed: usize,
    /// In-window reports backing the estimate.
    pub reports: u64,
    /// Estimated headcount: `observed / carry_rate`.
    pub count: f64,
    /// Lower confidence bound (never below the observed device count).
    pub ci_low: f64,
    /// Upper confidence bound.
    pub ci_high: f64,
    /// Mean nearest-beacon distance over the in-window reports, metres.
    pub mean_distance_m: f64,
    /// Age of the newest evidence for this room.
    pub staleness: SimDuration,
    /// Whether the newest evidence is within the configured TTL.
    pub fresh: bool,
}

impl PopulationEstimate {
    /// The estimate rounded to a whole headcount.
    pub fn rounded(&self) -> usize {
        self.count.round() as usize
    }

    /// Whether the true count plausibly lies in the interval, given a
    /// ground-truth value (used by experiment scoring).
    pub fn covers(&self, truth: usize) -> bool {
        let t = truth as f64;
        self.ci_low - 1e-9 <= t && t <= self.ci_high + 1e-9
    }
}

/// The per-room population table at one instant.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationView {
    /// The instant the view was taken.
    pub at: SimTime,
    /// Evidence window the estimates were computed over.
    pub window: SimDuration,
    /// Freshness TTL applied to every room.
    pub ttl: SimDuration,
    /// Per-room estimates. Rooms appear iff at least one device's
    /// last-known room is there.
    pub rooms: BTreeMap<RoomLabel, PopulationEstimate>,
}

impl PopulationView {
    /// Total estimated headcount across rooms.
    pub fn estimated_total(&self) -> f64 {
        self.rooms.values().map(|e| e.count).sum()
    }

    /// Total devices with in-window evidence.
    pub fn observed_total(&self) -> usize {
        self.rooms.values().map(|e| e.observed).sum()
    }

    /// Rounded per-room headcounts, for actuation paths that need whole
    /// people (demand response).
    pub fn counts(&self) -> BTreeMap<RoomLabel, usize> {
        self.rooms
            .iter()
            .map(|(room, e)| (*room, e.rounded()))
            .collect()
    }

    /// Rooms whose newest evidence has outlived the TTL.
    pub fn stale_rooms(&self) -> Vec<RoomLabel> {
        self.rooms
            .iter()
            .filter(|(_, e)| !e.fresh)
            .map(|(room, _)| *room)
            .collect()
    }
}

impl fmt::Display for PopulationView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "~{:.1} people over {} rooms ({} stale)",
            self.estimated_total(),
            self.rooms.len(),
            self.stale_rooms().len()
        )
    }
}

/// Finalizes a merged per-room evidence table into a [`PopulationView`]
/// as of `now` — the last step of every population query path, single or
/// sharded.
pub fn finalize_population(
    now: SimTime,
    config: &CountingConfig,
    rooms: &BTreeMap<RoomLabel, PopulationEvidence>,
) -> PopulationView {
    PopulationView {
        at: now,
        window: config.window,
        ttl: config.ttl,
        rooms: rooms
            .iter()
            .map(|(room, evidence)| (*room, evidence.finalize(now, config)))
            .collect(),
    }
}

/// A tier's population answer tagged with its service level, mirroring
/// [`LeveledView`](crate::LeveledView): a lagging shard degrades the
/// label, not the consistency — the numbers are the already-ingested
/// prefix, stale but never wrong.
#[derive(Debug, Clone, PartialEq)]
pub struct LeveledPopulationView {
    /// The windowed population table (incomplete when retention truncated
    /// part of the evidence window).
    pub view: Windowed<PopulationView>,
    /// `Exact` when no shard lagged at query time.
    pub level: ServiceLevel,
    /// Shards with backlog (or paused gates) at query time.
    pub lagging_shards: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_commutative_and_associative() {
        let mut a = PopulationEvidence {
            devices: 3,
            observed: 2,
            reports: 7,
            distance_um: 4_200_000,
            newest: Some(SimTime::from_secs(50)),
        };
        let b = PopulationEvidence {
            devices: 1,
            observed: 1,
            reports: 2,
            distance_um: 900_000,
            newest: Some(SimTime::from_secs(80)),
        };
        let mut ba = b;
        ba.merge(&a);
        a.merge(&b);
        assert_eq!(a, ba);
        assert_eq!(a.newest, Some(SimTime::from_secs(80)));
        assert_eq!(a.devices, 4);
        assert_eq!(a.reports, 9);
    }

    #[test]
    fn finalize_scales_by_carry_rate() {
        let evidence = PopulationEvidence {
            devices: 8,
            observed: 8,
            reports: 16,
            distance_um: 16_000_000,
            newest: Some(SimTime::from_secs(100)),
        };
        let config = CountingConfig::default().with_carry_rate(0.8);
        let estimate = evidence.finalize(SimTime::from_secs(120), &config);
        assert!((estimate.count - 10.0).abs() < 1e-9);
        assert!(estimate.ci_low >= 8.0);
        assert!(estimate.ci_high > estimate.count);
        assert!(estimate.covers(10));
        assert_eq!(estimate.staleness, SimDuration::from_secs(20));
        assert!(estimate.fresh);
        assert!((estimate.mean_distance_m - 1.0).abs() < 1e-9);
    }

    #[test]
    fn full_carry_rate_pins_the_interval() {
        let evidence = PopulationEvidence {
            devices: 5,
            observed: 5,
            reports: 5,
            distance_um: 0,
            newest: Some(SimTime::from_secs(10)),
        };
        let estimate = evidence.finalize(SimTime::from_secs(10), &CountingConfig::default());
        assert_eq!(estimate.count, 5.0);
        assert_eq!(estimate.ci_low, 5.0);
        assert_eq!(estimate.ci_high, 5.0);
    }

    #[test]
    fn stale_evidence_is_flagged() {
        let evidence = PopulationEvidence {
            devices: 2,
            observed: 0,
            reports: 0,
            distance_um: 0,
            newest: Some(SimTime::from_secs(10)),
        };
        let config = CountingConfig::default().with_ttl(SimDuration::from_secs(60));
        let estimate = evidence.finalize(SimTime::from_secs(500), &config);
        assert!(!estimate.fresh);
        assert_eq!(estimate.count, 0.0);
        assert_eq!(estimate.devices, 2);
    }

    #[test]
    #[should_panic(expected = "carry rate")]
    fn zero_carry_rate_rejected() {
        let _ = CountingConfig::default().with_carry_rate(0.0);
    }
}
