//! Multi-floor deployments keyed on the iBeacon *major* field.
//!
//! Paper Section III: the major value "characterizes a group of related
//! beacons" — in a building, a floor. This module stacks several floor
//! plans into one deployment: every floor's beacons advertise the same
//! proximity UUID with `major = floor + 1`, and a phone hears its own
//! floor's beacons normally plus other floors' beacons attenuated by the
//! concrete slabs in between (~18 dB per slab at 2.4 GHz).
//!
//! Floor-aware classification then falls out of the same scene-analysis
//! machinery: the feature vector spans *all* beacons in the building and
//! the label space is (floor, room).

use crate::{run_pipeline, CycleRecord, PipelineConfig, Scenario, MISSING_DISTANCE};
use roomsense_building::mobility::MobilityModel;
use roomsense_building::FloorPlan;
use roomsense_ibeacon::{BeaconIdentity, Major};
use roomsense_ml::Dataset;
use roomsense_radio::TransmitterProfile;
use roomsense_signal::TrackSnapshot;
use roomsense_sim::{SimDuration, SimTime};
use roomsense_stack::PlacedAdvertiser;
use std::fmt;

/// Attenuation of one reinforced-concrete floor slab at 2.4 GHz, in dB.
const SLAB_ATTENUATION_DB: f64 = 18.0;

/// A building of stacked floors sharing one proximity UUID.
#[derive(Debug, Clone)]
pub(crate) struct MultiFloorScenario {
    floors: Vec<Scenario>,
}

impl MultiFloorScenario {
    /// Stacks `plans` bottom-up (index 0 = ground floor), each slab
    /// between floors attenuating by 18 dB.
    ///
    /// # Panics
    ///
    /// Panics if `plans` is empty.
    pub(crate) fn new(plans: Vec<FloorPlan>, seed: u64) -> Self {
        assert!(!plans.is_empty(), "a building needs at least one floor");
        let floors = plans
            .into_iter()
            .enumerate()
            .map(|(i, plan)| {
                let mut scenario = Scenario::from_plan(plan, seed ^ (i as u64) << 32);
                scenario.set_major(Major::new(i as u16 + 1));
                scenario
            })
            .collect();
        MultiFloorScenario { floors }
    }

    /// Number of floors.
    pub(crate) fn floor_count(&self) -> usize {
        self.floors.len()
    }

    /// The per-floor scenarios (index = floor).
    pub(crate) fn floors(&self) -> &[Scenario] {
        &self.floors
    }

    /// The building-wide feature layout: every beacon's full identity, in
    /// (floor, site) order.
    pub(crate) fn beacon_order(&self) -> Vec<BeaconIdentity> {
        self.floors
            .iter()
            .flat_map(|floor| {
                floor
                    .advertisers()
                    .iter()
                    .map(|a| a.advertiser.packet().identity())
            })
            .collect()
    }

    /// Class names: `floorN/room` for every room, plus `outside` last.
    pub(crate) fn label_names(&self) -> Vec<String> {
        let mut names = Vec::new();
        for (i, floor) in self.floors.iter().enumerate() {
            for room in floor.plan().rooms() {
                names.push(format!("floor{i}/{}", room.name()));
            }
        }
        names.push("outside".to_string());
        names
    }

    /// The label meaning "in no room on any floor".
    pub(crate) fn outside_label(&self) -> usize {
        self.floors
            .iter()
            .map(|f| f.plan().rooms().len())
            .sum::<usize>()
    }

    /// The global label of a room on a floor.
    ///
    /// # Panics
    ///
    /// Panics if the floor index is out of range.
    pub fn room_label(&self, floor: usize, room: roomsense_building::RoomId) -> usize {
        let offset: usize = self.floors[..floor]
            .iter()
            .map(|f| f.plan().rooms().len())
            .sum();
        offset + room.index() as usize
    }

    /// The advertisers a phone on `user_floor` hears: its own floor
    /// unchanged, other floors with slab attenuation folded into the
    /// transmitter profile.
    fn audible_advertisers(&self, user_floor: usize) -> Vec<PlacedAdvertiser> {
        let mut out = Vec::new();
        for (i, floor) in self.floors.iter().enumerate() {
            let slabs = user_floor.abs_diff(i) as f64;
            let extra_loss = slabs * SLAB_ATTENUATION_DB;
            for placed in floor.advertisers() {
                let profile = TransmitterProfile {
                    rssi_at_1m_dbm: placed.profile.rssi_at_1m_dbm - extra_loss,
                    ..placed.profile
                };
                out.push(PlacedAdvertiser {
                    advertiser: placed.advertiser.clone(),
                    profile,
                    position: placed.position,
                });
            }
        }
        out
    }

    /// Runs a phone on `user_floor` through the building.
    ///
    /// The occupant's mobility is in that floor's plan coordinates; ground
    /// truth comes from that plan. Other floors' beacons appear in the
    /// observations when they punch through the slabs.
    ///
    /// # Panics
    ///
    /// Panics if `user_floor` is out of range.
    pub(crate) fn run_floor_pipeline<M: MobilityModel + ?Sized>(
        &self,
        user_floor: usize,
        config: &PipelineConfig,
        mobility: &M,
        duration: SimDuration,
        seed: u64,
    ) -> Vec<CycleRecord> {
        let floor = &self.floors[user_floor];
        let advertisers = self.audible_advertisers(user_floor);
        // Reuse the single-floor pipeline by substituting the advertiser
        // set: build a temporary scenario view. The floor's own channel
        // (walls + shadowing) applies; remote floors' walls are subsumed
        // into the slab loss.
        let view = floor.with_advertisers(advertisers);
        run_pipeline(&view, config, mobility, duration, seed)
    }

    /// Builds the feature vector for one cycle over the building-wide
    /// beacon layout.
    pub(crate) fn features_from_snapshots(&self, snapshots: &[TrackSnapshot]) -> Vec<f64> {
        self.beacon_order()
            .iter()
            .map(|identity| {
                snapshots
                    .iter()
                    .find(|s| s.identity == *identity)
                    .map_or(MISSING_DISTANCE, |s| s.distance_m.min(MISSING_DISTANCE))
            })
            .collect()
    }

    /// Runs the operator walk on every floor and assembles the labelled
    /// building-wide dataset.
    pub(crate) fn collect_dataset(
        &self,
        config: &PipelineConfig,
        dwell_per_room: SimDuration,
        laps: usize,
        seed: u64,
    ) -> Dataset {
        use roomsense_building::mobility::RoomSchedule;
        let mut data = Dataset::new(self.beacon_order().len(), self.label_names())
            .expect("buildings always have beacons and labels");
        for (floor_index, floor) in self.floors.iter().enumerate() {
            let visits: Vec<_> = floor
                .plan()
                .rooms()
                .iter()
                .map(|room| (room.id(), dwell_per_room))
                .collect();
            for lap in 0..laps {
                let mut walk_rng = roomsense_sim::rng::for_indexed(
                    seed,
                    "multifloor-walk",
                    (floor_index as u64) << 16 | lap as u64,
                );
                let schedule = RoomSchedule::generate(
                    floor.plan(),
                    &visits,
                    1.2,
                    SimTime::ZERO,
                    &mut walk_rng,
                );
                let duration = schedule.walk().duration() + SimDuration::from_secs(2);
                let records = self.run_floor_pipeline(
                    floor_index,
                    config,
                    &schedule,
                    duration,
                    seed ^ ((floor_index as u64) << 24) ^ lap as u64,
                );
                for record in &records {
                    let features = self.features_from_snapshots(&record.snapshots);
                    let label = record
                        .true_room
                        .map_or(self.outside_label(), |r| self.room_label(floor_index, r));
                    data.push(features, label)
                        .expect("features finite, label in range by construction");
                }
            }
        }
        data
    }
}

impl fmt::Display for MultiFloorScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-floor building, {} beacons, {SLAB_ATTENUATION_DB:.0} dB slabs",
            self.floors.len(),
            self.beacon_order().len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roomsense_building::mobility::StaticPosition;
    use roomsense_building::presets;
    use roomsense_geom::Point;
    use roomsense_ibeacon::Minor;

    fn two_storey() -> MultiFloorScenario {
        MultiFloorScenario::new(vec![presets::paper_house(), presets::paper_house()], 21)
    }

    #[test]
    fn floors_get_distinct_majors() {
        let b = two_storey();
        assert_eq!(b.floors()[0].major(), Major::new(1));
        assert_eq!(b.floors()[1].major(), Major::new(2));
        // Identities are unique across the building despite repeated minors.
        let order = b.beacon_order();
        let mut dedup = order.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), order.len());
    }

    #[test]
    fn labels_cover_both_floors_plus_outside() {
        let b = two_storey();
        let names = b.label_names();
        assert_eq!(names.len(), 11);
        assert_eq!(names[0], "floor0/kitchen");
        assert_eq!(names[5], "floor1/kitchen");
        assert_eq!(b.outside_label(), 10);
        assert_eq!(b.room_label(1, roomsense_building::RoomId::new(2)), 7);
    }

    #[test]
    fn own_floor_dominates_the_observations() {
        let b = two_storey();
        let records = b.run_floor_pipeline(
            0,
            &PipelineConfig::paper_android(),
            &StaticPosition::new(Point::new(2.0, 2.0)), // floor-0 kitchen
            SimDuration::from_secs(60),
            21,
        );
        let mut own = 0usize;
        let mut other = 0usize;
        for record in &records {
            for obs in &record.observations {
                if obs.identity.major == Major::new(1) {
                    own += 1;
                } else {
                    other += 1;
                }
            }
        }
        // Own-floor beacons are heard essentially every cycle (5 beacons,
        // 30 cycles); upstairs beacons punch through the slab only some of
        // the time and always weaker.
        assert!(own > records.len() * 4, "own-floor sightings {own}");
        assert!(other < own, "cross-floor {other} should trail own {own}");
    }

    #[test]
    fn cross_floor_beacons_read_much_farther() {
        let b = two_storey();
        let records = b.run_floor_pipeline(
            0,
            &PipelineConfig::paper_android(),
            &StaticPosition::new(Point::new(2.0, 2.0)),
            SimDuration::from_secs(120),
            22,
        );
        let mean_distance = |major: u16| -> Option<f64> {
            let ds: Vec<f64> = records
                .iter()
                .flat_map(|r| r.observations.iter())
                .filter(|o| {
                    o.identity.major == Major::new(major) && o.identity.minor == Minor::new(0)
                })
                .map(|o| o.distance_m)
                .collect();
            if ds.is_empty() {
                None
            } else {
                Some(ds.iter().sum::<f64>() / ds.len() as f64)
            }
        };
        let own = mean_distance(1).expect("own-floor kitchen beacon seen");
        if let Some(upstairs) = mean_distance(2) {
            // 18 dB at n=2.2 is a factor ~6.6 in apparent distance.
            assert!(
                upstairs > own * 3.0,
                "upstairs {upstairs:.1} m vs own {own:.1} m"
            );
        }
    }

    #[test]
    fn building_dataset_spans_all_floors() {
        let b = two_storey();
        let data = b.collect_dataset(
            &PipelineConfig::paper_android(),
            SimDuration::from_secs(20),
            1,
            21,
        );
        assert_eq!(data.dimension(), 10);
        let histogram = data.class_histogram();
        // Every real room on both floors collected rows.
        for (label, count) in histogram.iter().take(10).enumerate() {
            assert!(*count > 0, "label {label} empty: {histogram:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one floor")]
    fn empty_building_panics() {
        let _ = MultiFloorScenario::new(vec![], 1);
    }
}
