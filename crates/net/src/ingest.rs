//! The overload-safe async ingestion tier: bounded mailboxes, admission
//! control, and graceful degradation in front of the sharded BMS.
//!
//! The scale layer (PR 5) made the BMS *wide*; this layer makes it
//! *survivable*. A fleet's arrival rate is bursty — BLEBeacon-style
//! lecture-hall surges concentrate a building's devices into one minute —
//! and a server that ingests synchronously at arrival either falls over or
//! buffers without bound. [`IngestTier`] decouples arrival from
//! ingestion with one bounded [`Mailbox`] per shard, pumped at a fixed
//! per-tick service budget by a deterministic virtual-time event loop:
//!
//! * **Admission control** — [`offer`](IngestTier::offer) consults a
//!   per-shard hysteresis controller (pause at the high-water depth,
//!   resume at the low-water mark) before touching the mailbox. A refusal
//!   is an explicit [`Admission::Backpressured`] — the transport layer
//!   maps it to [`SendOutcome::Backpressured`](crate::SendOutcome), which
//!   queueing clients answer with backoff, never with silent drops.
//! * **Bounded memory** — a mailbox never exceeds its capacity, so the
//!   tier's resident overload state is `shards × capacity` reports, a
//!   constant chosen at configuration time, not a function of the surge.
//! * **Load-shedding that is stale, never wrong** —
//!   [`occupancy_view`](IngestTier::occupancy_view) answers from each
//!   shard's already-ingested state. A lagging shard's rooms are force
//!   -marked stale and the whole answer carries
//!   [`ServiceLevel::Degraded`]; the *numbers* are still a consistent
//!   prefix of the truth (exactly what a server that had seen only the
//!   admitted-and-processed stream would say).
//! * **Exact recovery** — once the mailboxes drain, answers return to
//!   [`ServiceLevel::Exact`] and the tier's
//!   [`state_digest`](IngestTier::state_digest) equals an unthrottled
//!   server fed the same reports — the sharded==single equivalence proof
//!   survives the detour through the mailboxes because per-device order
//!   is preserved end to end (client → mailbox FIFO → shard).

use crate::counting::{CountingConfig, LeveledPopulationView};
use crate::{ObservationReport, OccupancyView, ShardedBmsServer};
use roomsense_sim::{Mailbox, SimDuration, SimTime};
use roomsense_telemetry::{keys, Recorder};
use std::fmt;

/// The admission controller's decision for one offered report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The report was queued in its shard's mailbox; a later
    /// [`pump`](IngestTier::pump) will ingest it.
    Admitted,
    /// The shard is overloaded (paused gate or full mailbox): the report
    /// was **not** accepted and the client must queue it and back off —
    /// the transport layer surfaces this as
    /// [`SendOutcome::Backpressured`](crate::SendOutcome::Backpressured).
    Backpressured,
}

/// The fidelity of a query answer from an [`IngestTier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceLevel {
    /// Every shard had an empty mailbox and an open gate: the answer
    /// reflects everything the tier has accepted.
    Exact,
    /// At least one shard is behind: the answer is a consistent,
    /// stale-marked prefix of the truth — degraded, never wrong.
    Degraded,
}

impl fmt::Display for ServiceLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceLevel::Exact => f.write_str("exact"),
            ServiceLevel::Degraded => f.write_str("degraded"),
        }
    }
}

/// Mailbox bounds and service budget for an [`IngestTier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestTierConfig {
    /// Hard bound on each shard's mailbox — the tier's overload memory is
    /// `shards × mailbox_capacity` reports, full stop.
    pub mailbox_capacity: usize,
    /// Reports each shard ingests per [`pump`](IngestTier::pump) turn —
    /// the tier's service capacity per event-loop tick.
    pub service_rate: usize,
    /// Mailbox depth at which the shard's admission gate pauses (starts
    /// shedding with backpressure).
    pub admit_high: usize,
    /// Depth the mailbox must drain to before a paused gate re-admits —
    /// strictly below `admit_high`, the hysteresis gap that stops
    /// admission flapping per report.
    pub admit_low: usize,
}

impl Default for IngestTierConfig {
    /// 256-deep mailboxes served 32 reports/turn, shedding at 192 and
    /// resuming at 64.
    fn default() -> Self {
        IngestTierConfig {
            mailbox_capacity: 256,
            service_rate: 32,
            admit_high: 192,
            admit_low: 64,
        }
    }
}

impl IngestTierConfig {
    fn validate(&self) {
        assert!(
            self.mailbox_capacity > 0,
            "mailbox_capacity must be non-zero"
        );
        assert!(self.service_rate > 0, "service_rate must be non-zero");
        assert!(
            self.admit_high <= self.mailbox_capacity,
            "admit_high must not exceed mailbox_capacity"
        );
        assert!(
            self.admit_low < self.admit_high,
            "admit_low must be strictly below admit_high (the hysteresis gap)"
        );
    }
}

/// A merged occupancy answer tagged with the service level it was computed
/// under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeveledView {
    /// The merged per-room table. Rooms served by a lagging shard are
    /// forced stale (`fresh == 0`) so a consumer can see exactly which
    /// counts rest on old evidence.
    pub view: OccupancyView,
    /// [`Exact`](ServiceLevel::Exact) when every mailbox was empty at
    /// query time, [`Degraded`](ServiceLevel::Degraded) otherwise.
    pub level: ServiceLevel,
    /// Shards that had backlog (or a paused admission gate) at query time.
    pub lagging_shards: usize,
}

/// Per-shard admission state: a pause/resume gate with hysteresis.
#[derive(Debug, Clone, Copy, Default)]
struct AdmissionGate {
    paused: bool,
}

/// The event-loop ingestion tier over a [`ShardedBmsServer`].
///
/// # Examples
///
/// ```
/// use roomsense_net::{Admission, IngestTier, IngestTierConfig, ObservationReport, ShardedBmsServer};
/// use roomsense_sim::SimTime;
/// use std::sync::Arc;
///
/// let fleet = ShardedBmsServer::new(Arc::new(|_: &ObservationReport| Some(0)), 4);
/// let mut tier = IngestTier::new(fleet, IngestTierConfig::default());
/// assert_eq!(tier.backlog(), 0);
/// ```
pub struct IngestTier {
    fleet: ShardedBmsServer,
    mailboxes: Vec<Mailbox<ObservationReport>>,
    gates: Vec<AdmissionGate>,
    config: IngestTierConfig,
    telemetry: Recorder,
    admitted: u64,
    shed: u64,
    pauses: u64,
    exact_queries: u64,
    degraded_queries: u64,
}

impl IngestTier {
    /// Puts one bounded mailbox and one admission gate in front of every
    /// shard of `fleet`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`IngestTierConfig`]).
    pub fn new(fleet: ShardedBmsServer, config: IngestTierConfig) -> Self {
        config.validate();
        let shard_count = fleet.shard_count();
        IngestTier {
            fleet,
            mailboxes: (0..shard_count)
                .map(|_| Mailbox::new(config.mailbox_capacity))
                .collect(),
            gates: vec![AdmissionGate::default(); shard_count],
            config,
            telemetry: Recorder::new(),
            admitted: 0,
            shed: 0,
            pauses: 0,
            exact_queries: 0,
            degraded_queries: 0,
        }
    }

    /// The sharded fleet behind the mailboxes.
    pub fn fleet(&self) -> &ShardedBmsServer {
        &self.fleet
    }

    /// Offers one report to the admission controller of its device's
    /// shard. Admitted reports are queued (FIFO per shard) for the next
    /// [`pump`](Self::pump); refused reports are the caller's to retry —
    /// nothing is ever dropped inside the tier.
    ///
    /// The gate pauses when its mailbox reaches
    /// [`admit_high`](IngestTierConfig::admit_high) and resumes once a
    /// pump has drained it to
    /// [`admit_low`](IngestTierConfig::admit_low) — hysteresis, so a
    /// borderline depth does not flap admission per report. A full
    /// mailbox refuses regardless of the gate.
    pub fn offer(&mut self, at: SimTime, report: ObservationReport) -> Admission {
        let shard = self.fleet.shard_of(report.device);
        let depth = self.mailboxes[shard].depth();
        let gate = &mut self.gates[shard];
        if gate.paused {
            if depth <= self.config.admit_low {
                gate.paused = false;
            }
        } else if depth >= self.config.admit_high {
            gate.paused = true;
            self.pauses += 1;
            self.telemetry.incr(keys::NET_MAILBOX_PAUSES);
        }
        if self.gates[shard].paused || !self.mailboxes[shard].offer(at, report) {
            self.shed += 1;
            self.telemetry.incr(keys::NET_MAILBOX_SHED);
            Admission::Backpressured
        } else {
            self.admitted += 1;
            self.telemetry.incr(keys::NET_MAILBOX_ADMITTED);
            Admission::Admitted
        }
    }

    /// One event-loop turn: drains up to
    /// [`service_rate`](IngestTierConfig::service_rate) reports from every
    /// mailbox (shard order, FIFO within a shard) and bulk-ingests them
    /// through the fleet's deterministic parallel path. Returns
    /// `(accepted, duplicates)`.
    pub fn pump(&mut self) -> (u64, u64) {
        let budget = self.config.service_rate;
        let mut batch = Vec::new();
        for (mailbox, gate) in self.mailboxes.iter_mut().zip(&mut self.gates) {
            batch.extend(mailbox.drain(budget).into_iter().map(|(_, report)| report));
            // The admission controller re-evaluates after every service
            // turn: a gate left paused past the drain would pin the shard
            // Degraded with an empty mailbox.
            if gate.paused && mailbox.depth() <= self.config.admit_low {
                gate.paused = false;
            }
        }
        if batch.is_empty() {
            return (0, 0);
        }
        // `ingest_all` re-partitions by the same device hash, so every
        // report lands back on the shard whose mailbox held it.
        self.fleet.ingest_all(batch)
    }

    /// Pumps until every mailbox is empty (at most `max_turns` turns);
    /// returns the turns actually used. A drain loop, not a scheduler —
    /// experiments use it to prove exact recovery after a surge.
    pub fn drain(&mut self, max_turns: usize) -> usize {
        for turn in 0..max_turns {
            if self.backlog() == 0 {
                return turn;
            }
            self.pump();
        }
        max_turns
    }

    /// Reports queued across all mailboxes.
    pub fn backlog(&self) -> usize {
        self.mailboxes.iter().map(Mailbox::depth).sum()
    }

    /// The deepest any single mailbox ever got — bounded by
    /// [`mailbox_capacity`](IngestTierConfig::mailbox_capacity) by
    /// construction, which is the tier's memory-bound claim.
    pub fn peak_mailbox_depth(&self) -> usize {
        self.mailboxes
            .iter()
            .map(Mailbox::peak_depth)
            .max()
            .unwrap_or(0)
    }

    /// Reports admitted since construction.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Reports refused with backpressure since construction.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// Admission-gate pause episodes since construction.
    pub fn pauses(&self) -> u64 {
        self.pauses
    }

    /// Whether a shard's answers would currently be degraded: backlog in
    /// its mailbox, or a paused admission gate (reports are parked
    /// client-side, so the shard's state lags the fleet's truth even if
    /// its own mailbox happens to be empty).
    fn shard_lagging(&self, shard: usize) -> bool {
        !self.mailboxes[shard].is_empty() || self.gates[shard].paused
    }

    /// The staleness-aware merged occupancy view, tagged with its service
    /// level.
    ///
    /// Shards with no backlog answer exactly. A lagging shard still
    /// answers — shedding load must degrade answers, not refuse them —
    /// but every room it contributes is forced stale (`fresh = 0`): the
    /// counts are a consistent prefix of the truth (stale, never wrong),
    /// and the flag tells the consumer not to actuate HVAC on them
    /// blindly. Any lagging shard degrades the whole answer's level.
    pub fn occupancy_view(&mut self, now: SimTime, ttl: SimDuration) -> LeveledView {
        let lagging_set: Vec<bool> = (0..self.mailboxes.len())
            .map(|shard| self.shard_lagging(shard))
            .collect();
        let lagging = lagging_set.iter().filter(|l| **l).count();
        let view = self
            .fleet
            .occupancy_view_marking(now, ttl, |shard| lagging_set[shard]);
        let level = if lagging == 0 {
            ServiceLevel::Exact
        } else {
            ServiceLevel::Degraded
        };
        match level {
            ServiceLevel::Exact => {
                self.exact_queries += 1;
                self.telemetry.incr(keys::BMS_QUERIES_EXACT);
            }
            ServiceLevel::Degraded => {
                self.degraded_queries += 1;
                self.telemetry.incr(keys::BMS_QUERIES_DEGRADED);
            }
        }
        LeveledView {
            view,
            level,
            lagging_shards: lagging,
        }
    }

    /// The tier's population answer, tagged with its service level like
    /// [`occupancy_view`](Self::occupancy_view). A lagging shard cannot
    /// force per-room staleness here — the evidence window already makes
    /// the estimate honest: reports still queued in mailboxes are simply
    /// not evidence yet, so a starved room's `observed` census sags and
    /// its `staleness` grows. The answer is the consistent
    /// already-ingested prefix (stale, never wrong), and any lagging
    /// shard degrades the whole answer's level so consumers know not to
    /// actuate on it blindly.
    pub fn population_view(
        &mut self,
        now: SimTime,
        config: &CountingConfig,
    ) -> LeveledPopulationView {
        let lagging = (0..self.mailboxes.len())
            .filter(|shard| self.shard_lagging(*shard))
            .count();
        let view = self.fleet.population_view(now, config);
        let level = if lagging == 0 {
            ServiceLevel::Exact
        } else {
            ServiceLevel::Degraded
        };
        self.telemetry.incr(match level {
            ServiceLevel::Exact => keys::BMS_COUNTING_EXACT,
            ServiceLevel::Degraded => keys::BMS_COUNTING_DEGRADED,
        });
        LeveledPopulationView {
            view,
            level,
            lagging_shards: lagging,
        }
    }

    /// Queries answered at [`ServiceLevel::Exact`] so far.
    pub fn exact_queries(&self) -> u64 {
        self.exact_queries
    }

    /// Queries answered at [`ServiceLevel::Degraded`] so far.
    pub fn degraded_queries(&self) -> u64 {
        self.degraded_queries
    }

    /// The fleet's state digest (see
    /// [`ShardedBmsServer::state_digest`]). Meaningful for equivalence
    /// checks once [`backlog`](Self::backlog) is zero: a drained tier fed
    /// reports in per-device order digests identically to an unthrottled
    /// single server fed the same reports.
    pub fn state_digest(&self) -> u64 {
        self.fleet.state_digest()
    }

    /// Archive-aware historical occupancy across the fleet (see
    /// [`ShardedBmsServer::occupancy_at_checked`]). Note this reads the
    /// shards directly — reports still queued in mailboxes are invisible
    /// until [`pump`](Self::pump) delivers them.
    pub fn occupancy_at_checked(
        &self,
        at: SimTime,
    ) -> crate::Windowed<std::collections::BTreeMap<crate::RoomLabel, usize>> {
        self.fleet.occupancy_at_checked(at)
    }

    /// The fleet's merged telemetry plus the tier's own admission
    /// counters and the peak-mailbox-depth gauge, merged in a fixed order
    /// (shards, then tier) so the snapshot is deterministic at any
    /// `ROOMSENSE_THREADS`.
    pub fn telemetry_snapshot(&self) -> Recorder {
        let mut merged = self.fleet.telemetry_snapshot();
        let mut tier = self.telemetry.clone();
        tier.set_gauge(
            keys::NET_MAILBOX_DEPTH_PEAK,
            self.peak_mailbox_depth() as f64,
        );
        merged.merge_child(tier);
        merged
    }
}

impl fmt::Debug for IngestTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IngestTier")
            .field("shards", &self.mailboxes.len())
            .field("backlog", &self.backlog())
            .field("admitted", &self.admitted)
            .field("shed", &self.shed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeviceId, SightedBeacon};
    use roomsense_ibeacon::{BeaconIdentity, Major, Minor, ProximityUuid};
    use std::sync::Arc;

    fn report(device: u32, seq: u64, minor: u16) -> ObservationReport {
        ObservationReport {
            device: DeviceId::new(device),
            seq,
            at: SimTime::from_secs(seq * 60),
            beacons: vec![SightedBeacon {
                identity: BeaconIdentity {
                    uuid: ProximityUuid::example(),
                    major: Major::new(1),
                    minor: Minor::new(minor),
                },
                distance_m: 1.5,
            }],
        }
    }

    fn minor_estimator() -> Arc<dyn crate::OccupancyEstimator> {
        Arc::new(|r: &ObservationReport| {
            r.beacons.first().map(|b| b.identity.minor.value() as usize)
        })
    }

    fn tier(shards: usize, config: IngestTierConfig) -> IngestTier {
        IngestTier::new(ShardedBmsServer::new(minor_estimator(), shards), config)
    }

    #[test]
    fn admits_pumps_and_recovers_exactly() {
        let mut t = tier(4, IngestTierConfig::default());
        let single = ShardedBmsServer::new(minor_estimator(), 1);
        for d in 0..40u32 {
            for k in 0..5u64 {
                let r = report(d, k, (d % 3) as u16);
                single.ingest(r.clone());
                assert!(matches!(t.offer(r.at, r), Admission::Admitted));
            }
        }
        assert_eq!(t.backlog(), 200);
        let turns = t.drain(1000);
        assert!(turns > 0);
        assert_eq!(t.backlog(), 0);
        assert_eq!(t.state_digest(), single.state_digest());
        let view = t.occupancy_view(SimTime::from_secs(300), SimDuration::from_secs(300));
        assert_eq!(view.level, ServiceLevel::Exact);
        assert_eq!(view.lagging_shards, 0);
    }

    #[test]
    fn admission_gate_pauses_with_hysteresis() {
        let config = IngestTierConfig {
            mailbox_capacity: 16,
            service_rate: 4,
            admit_high: 8,
            admit_low: 2,
        };
        // One shard so every report shares one mailbox and one gate.
        let mut t = tier(1, config);
        let mut admitted = 0u64;
        for k in 0..12u64 {
            if matches!(t.offer(SimTime::ZERO, report(1, k, 0)), Admission::Admitted) {
                admitted += 1;
            }
        }
        // Depth reaches admit_high after 8 admits; the rest are shed.
        assert_eq!(admitted, 8);
        assert_eq!(t.shed(), 4);
        assert_eq!(t.pauses(), 1);
        // One pump drains 4: depth 4 > admit_low, so the gate stays shut.
        t.pump();
        assert!(matches!(
            t.offer(SimTime::ZERO, report(1, 20, 0)),
            Admission::Backpressured
        ));
        // A second pump reaches admit_low: admission resumes.
        t.pump();
        assert_eq!(t.backlog(), 0);
        assert!(matches!(
            t.offer(SimTime::ZERO, report(1, 21, 0)),
            Admission::Admitted
        ));
        assert!(t.peak_mailbox_depth() <= config.mailbox_capacity);
    }

    #[test]
    fn degraded_views_are_stale_never_wrong() {
        let config = IngestTierConfig {
            mailbox_capacity: 64,
            service_rate: 8,
            admit_high: 48,
            admit_low: 8,
        };
        let mut t = tier(2, config);
        let now = SimTime::from_secs(120);
        let ttl = SimDuration::from_secs(3600);
        // Ingest a first wave fully.
        for d in 0..10u32 {
            let r = report(d, 0, (d % 2) as u16);
            t.offer(r.at, r);
        }
        t.drain(100);
        // Second wave sits in the mailboxes: the tier must answer with the
        // first wave's numbers, marked stale, at Degraded level.
        let baseline = t.occupancy_view(now, ttl);
        assert_eq!(baseline.level, ServiceLevel::Exact);
        for d in 0..10u32 {
            let r = report(d, 1, 1); // everyone moves to room 1
            t.offer(r.at, r);
        }
        let shed_view = t.occupancy_view(now, ttl);
        assert_eq!(shed_view.level, ServiceLevel::Degraded);
        assert!(shed_view.lagging_shards > 0);
        assert_eq!(
            shed_view.view.counts(),
            baseline.view.counts(),
            "a degraded answer is the consistent already-ingested prefix"
        );
        assert!(
            shed_view.view.rooms.values().all(|p| p.fresh == 0),
            "every room under a lagging shard is marked stale"
        );
        // After the drain the move is visible and the level is Exact again.
        t.drain(100);
        let after = t.occupancy_view(now, ttl);
        assert_eq!(after.level, ServiceLevel::Exact);
        assert_eq!(after.view.counts().get(&1), Some(&10));
        assert_eq!(t.degraded_queries(), 1);
        assert_eq!(t.exact_queries(), 2);
    }

    #[test]
    fn telemetry_snapshot_carries_admission_counters() {
        let config = IngestTierConfig {
            mailbox_capacity: 4,
            service_rate: 2,
            admit_high: 4,
            admit_low: 1,
        };
        let mut t = tier(1, config);
        for k in 0..6u64 {
            t.offer(SimTime::ZERO, report(1, k, 0));
        }
        t.drain(100);
        let snapshot = t.telemetry_snapshot();
        assert_eq!(snapshot.counter(keys::NET_MAILBOX_ADMITTED), t.admitted());
        assert_eq!(snapshot.counter(keys::NET_MAILBOX_SHED), t.shed());
        assert_eq!(snapshot.counter(keys::NET_MAILBOX_PAUSES), t.pauses());
        assert_eq!(
            snapshot.gauge(keys::NET_MAILBOX_DEPTH_PEAK),
            Some(t.peak_mailbox_depth() as f64)
        );
        assert_eq!(
            snapshot.counter(keys::BMS_INGEST_ACCEPTED),
            t.admitted(),
            "everything admitted was ingested"
        );
    }

    #[test]
    #[should_panic(expected = "admit_low")]
    fn inconsistent_config_panics() {
        let _ = tier(
            1,
            IngestTierConfig {
                mailbox_capacity: 8,
                service_rate: 1,
                admit_high: 4,
                admit_low: 6,
            },
        );
    }
}
