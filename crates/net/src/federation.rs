//! Campus federation: one query surface over many buildings' ingestion
//! tiers.
//!
//! A campus BMS does not run one giant server; it runs one
//! [`IngestTier`] per building and *federates* the answers. The paper's
//! single-building occupancy table generalizes to campus-wide aggregate
//! queries (Demrozi et al.'s motivation) that must keep answering even
//! while individual buildings are saturated: a surge in the lecture hall
//! degrades the lecture hall's rooms, not the library's.
//!
//! [`CampusFederation`] routes reports to buildings by name, pumps every
//! building's event loop in a fixed order, and merges occupancy views,
//! state digests, and telemetry into campus-level artifacts — all
//! deterministically, so a federated run checksums identically at any
//! `ROOMSENSE_THREADS`.

use crate::{Admission, IngestTier, LeveledView, RoomLabel, RoomPresence, ServiceLevel};
use crate::ObservationReport;
use roomsense_sim::{SimDuration, SimTime};
use roomsense_telemetry::Recorder;
use std::collections::BTreeMap;
use std::fmt;

/// The campus-wide occupancy answer: per-building leveled views plus a
/// merged per-room table keyed `(building, room)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampusView {
    /// The instant the view was taken.
    pub at: SimTime,
    /// Freshness TTL applied in every building.
    pub ttl: SimDuration,
    /// Worst service level across buildings: one saturated building
    /// degrades the campus answer's *label* while every healthy
    /// building's numbers stay exact.
    pub level: ServiceLevel,
    /// Lagging shards summed across buildings.
    pub lagging_shards: usize,
    /// Each building's own answer, in registration order.
    pub buildings: Vec<(String, LeveledView)>,
    /// The merged table. Rooms from different buildings never collide:
    /// the key carries the building name.
    pub rooms: BTreeMap<(String, RoomLabel), RoomPresence>,
}

impl CampusView {
    /// Total occupants across the campus.
    pub fn occupants(&self) -> usize {
        self.rooms.values().map(|p| p.occupants).sum()
    }

    /// Occupants whose evidence was within the TTL (and whose building
    /// was not shedding).
    pub fn fresh_occupants(&self) -> usize {
        self.rooms.values().map(|p| p.fresh).sum()
    }
}

/// A routing/aggregation tier over named per-building [`IngestTier`]s.
///
/// # Examples
///
/// ```
/// use roomsense_net::{
///     CampusFederation, IngestTier, IngestTierConfig, ObservationReport, ShardedBmsServer,
/// };
/// use std::sync::Arc;
///
/// let mut campus = CampusFederation::new();
/// let estimator = Arc::new(|_: &ObservationReport| Some(0));
/// campus.add_building(
///     "library",
///     IngestTier::new(ShardedBmsServer::new(estimator, 4), IngestTierConfig::default()),
/// );
/// assert_eq!(campus.building_names(), vec!["library"]);
/// ```
#[derive(Default)]
pub struct CampusFederation {
    buildings: Vec<(String, IngestTier)>,
}

impl CampusFederation {
    /// An empty federation.
    pub fn new() -> Self {
        CampusFederation {
            buildings: Vec::new(),
        }
    }

    /// Registers a building's tier under `name`. Registration order is
    /// the deterministic merge order for telemetry and views.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered.
    pub fn add_building(&mut self, name: impl Into<String>, tier: IngestTier) {
        let name = name.into();
        assert!(
            self.buildings.iter().all(|(n, _)| *n != name),
            "building {name:?} is already registered"
        );
        self.buildings.push((name, tier));
    }

    /// Registered building names, in registration order.
    pub fn building_names(&self) -> Vec<&str> {
        self.buildings.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// One building's tier.
    pub fn building(&self, name: &str) -> Option<&IngestTier> {
        self.buildings
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t)
    }

    /// Mutable access to one building's tier.
    pub fn building_mut(&mut self, name: &str) -> Option<&mut IngestTier> {
        self.buildings
            .iter_mut()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t)
    }

    /// Offers one report to `building`'s admission controller.
    ///
    /// # Panics
    ///
    /// Panics if the building is not registered — routing to an unknown
    /// building is a deployment bug, not an overload condition.
    pub fn offer(&mut self, building: &str, at: SimTime, report: ObservationReport) -> Admission {
        self.building_mut(building)
            .unwrap_or_else(|| panic!("unknown building {building:?}"))
            .offer(at, report)
    }

    /// One event-loop turn for every building, in registration order.
    /// Returns `(accepted, duplicates)` summed across buildings.
    pub fn pump(&mut self) -> (u64, u64) {
        let mut accepted = 0u64;
        let mut duplicates = 0u64;
        for (_, tier) in &mut self.buildings {
            let (a, d) = tier.pump();
            accepted += a;
            duplicates += d;
        }
        (accepted, duplicates)
    }

    /// Reports queued across every building's mailboxes.
    pub fn backlog(&self) -> usize {
        self.buildings.iter().map(|(_, t)| t.backlog()).sum()
    }

    /// Pumps every building until the campus backlog is zero (at most
    /// `max_turns` turns); returns the turns used.
    pub fn drain(&mut self, max_turns: usize) -> usize {
        for turn in 0..max_turns {
            if self.backlog() == 0 {
                return turn;
            }
            self.pump();
        }
        max_turns
    }

    /// The campus-wide query surface: every building answers at its own
    /// service level, and the merged table keys rooms by
    /// `(building, room)` so saturated and healthy buildings coexist in
    /// one answer.
    pub fn campus_view(&mut self, now: SimTime, ttl: SimDuration) -> CampusView {
        let mut buildings = Vec::with_capacity(self.buildings.len());
        let mut rooms: BTreeMap<(String, RoomLabel), RoomPresence> = BTreeMap::new();
        let mut lagging = 0usize;
        for (name, tier) in &mut self.buildings {
            let leveled = tier.occupancy_view(now, ttl);
            lagging += leveled.lagging_shards;
            for (room, presence) in &leveled.view.rooms {
                rooms.insert((name.clone(), *room), *presence);
            }
            buildings.push((name.clone(), leveled));
        }
        let level = if buildings
            .iter()
            .any(|(_, v)| v.level == ServiceLevel::Degraded)
        {
            ServiceLevel::Degraded
        } else {
            ServiceLevel::Exact
        };
        CampusView {
            at: now,
            ttl,
            level,
            lagging_shards: lagging,
            buildings,
            rooms,
        }
    }

    /// Per-building state digests in registration order — the federated
    /// form of the sharded==single equivalence proof (each building is
    /// checked against its own oracle).
    pub fn building_digests(&self) -> Vec<(String, u64)> {
        self.buildings
            .iter()
            .map(|(name, tier)| (name.clone(), tier.state_digest()))
            .collect()
    }

    /// One campus digest: FNV-1a over `(name, digest)` pairs in
    /// registration order.
    pub fn campus_digest(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &byte in bytes {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x100_0000_01b3);
            }
        };
        for (name, digest) in self.building_digests() {
            eat(name.as_bytes());
            eat(&digest.to_le_bytes());
        }
        hash
    }

    /// Every building's telemetry snapshot merged in registration order.
    pub fn telemetry_snapshot(&self) -> Recorder {
        let mut merged = Recorder::new();
        for (_, tier) in &self.buildings {
            merged.merge_child(tier.telemetry_snapshot());
        }
        merged
    }
}

impl fmt::Debug for CampusFederation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CampusFederation")
            .field("buildings", &self.building_names())
            .field("backlog", &self.backlog())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeviceId, IngestTierConfig, ShardedBmsServer, SightedBeacon};
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
                distance_m: 1.0,
            }],
        }
    }

    fn campus(config: IngestTierConfig) -> CampusFederation {
        let estimator: Arc<dyn crate::OccupancyEstimator> = Arc::new(|r: &ObservationReport| {
            r.beacons.first().map(|b| b.identity.minor.value() as usize)
        });
        let mut campus = CampusFederation::new();
        for name in ["hall", "library"] {
            campus.add_building(
                name,
                IngestTier::new(
                    ShardedBmsServer::new(Arc::clone(&estimator), 2),
                    config,
                ),
            );
        }
        campus
    }

    #[test]
    fn routes_merges_and_digests_per_building() {
        let mut c = campus(IngestTierConfig::default());
        for d in 0..6u32 {
            let building = if d % 2 == 0 { "hall" } else { "library" };
            c.offer(building, SimTime::ZERO, report(d, 0, (d % 2) as u16));
        }
        assert_eq!(c.backlog(), 6);
        c.drain(100);
        assert_eq!(c.backlog(), 0);
        let view = c.campus_view(SimTime::from_secs(10), SimDuration::from_secs(300));
        assert_eq!(view.level, ServiceLevel::Exact);
        assert_eq!(view.occupants(), 6);
        assert_eq!(view.rooms.get(&("hall".into(), 0)).map(|p| p.occupants), Some(3));
        assert_eq!(
            view.rooms.get(&("library".into(), 1)).map(|p| p.occupants),
            Some(3)
        );
        // Per-building digests match dedicated oracles.
        let digests = c.building_digests();
        assert_eq!(digests.len(), 2);
        assert_ne!(digests[0].1, digests[1].1, "disjoint streams, distinct state");
        // The campus digest is a pure function of the building digests.
        let again = c.campus_digest();
        assert_eq!(again, c.campus_digest());
    }

    #[test]
    fn one_saturated_building_degrades_only_its_own_rooms() {
        let config = IngestTierConfig {
            mailbox_capacity: 8,
            service_rate: 2,
            admit_high: 6,
            admit_low: 1,
        };
        let mut c = campus(config);
        // The library stays idle; the hall gets a surge it cannot absorb.
        let mut sheds = 0u64;
        for k in 0..30u64 {
            if c.offer("hall", SimTime::ZERO, report(1, k, 0)) == Admission::Backpressured {
                sheds += 1;
            }
        }
        assert!(sheds > 0, "the surge must overflow admission");
        c.offer("library", SimTime::ZERO, report(2, 0, 1));
        c.building_mut("library").unwrap().drain(10);
        let view = c.campus_view(SimTime::from_secs(1), SimDuration::from_secs(300));
        assert_eq!(view.level, ServiceLevel::Degraded, "campus label is the worst level");
        let hall = &view.buildings[0].1;
        let library = &view.buildings[1].1;
        assert_eq!(hall.level, ServiceLevel::Degraded);
        assert_eq!(library.level, ServiceLevel::Exact);
        assert_eq!(
            view.rooms.get(&("library".into(), 1)).map(|p| p.fresh),
            Some(1),
            "the healthy building's rooms stay fresh"
        );
        // Draining the hall restores the campus to Exact.
        c.drain(100);
        let after = c.campus_view(SimTime::from_secs(1), SimDuration::from_secs(300));
        assert_eq!(after.level, ServiceLevel::Exact);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_building_panics() {
        let mut c = campus(IngestTierConfig::default());
        c.add_building(
            "hall",
            IngestTier::new(
                ShardedBmsServer::new(
                    Arc::new(|_: &ObservationReport| Some(0)),
                    1,
                ),
                IngestTierConfig::default(),
            ),
        );
    }

    #[test]
    #[should_panic(expected = "unknown building")]
    fn unknown_building_panics() {
        let mut c = campus(IngestTierConfig::default());
        c.offer("gym", SimTime::ZERO, report(1, 0, 0));
    }
}
