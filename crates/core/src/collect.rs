//! The data-collection phase (paper Section VI).
//!
//! "First, a data collection phase is needed, requiring an operator that
//! walks around the building collecting samples (beacon identifiers and
//! their detected distances). These samples are then associated with the
//! specific room and sent to the server that stores them in the database."

use crate::{run_pipeline, CycleRecord, PipelineConfig, Scenario};
use roomsense_building::mobility::RoomSchedule;
use roomsense_ibeacon::Minor;
use roomsense_ml::{position_features, Dataset, POSITION_FEATURE_WIDTH};
use roomsense_signal::TrackSnapshot;
use roomsense_sim::{rng, SimDuration, SimTime};

/// The sentinel distance (metres) standing in for "beacon not currently
/// tracked" in a feature vector. Far beyond any real indoor range.
pub(crate) const MISSING_DISTANCE: f64 = 50.0;

/// A labelled dataset plus the feature layout needed to use it.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelledDataset {
    /// The rows: per-beacon distances; labels: room index or outside.
    pub data: Dataset,
    /// Which beacon each feature column refers to.
    pub beacon_order: Vec<Minor>,
}

/// Builds the feature vector for one cycle: the smoothed distance to each
/// beacon in `beacon_order`, with `MISSING_DISTANCE` for untracked
/// beacons.
pub fn features_from_snapshots(snapshots: &[TrackSnapshot], beacon_order: &[Minor]) -> Vec<f64> {
    beacon_order
        .iter()
        .map(|minor| {
            snapshots
                .iter()
                .find(|s| s.identity.minor == *minor)
                .map_or(MISSING_DISTANCE, |s| s.distance_m.min(MISSING_DISTANCE))
        })
        .collect()
}

/// Like [`features_from_snapshots`], with the trilateration block
/// (`ml::position_features` over the beacon mounting positions) appended:
/// `[d₀ … dₙ₋₁, x, y, fix_quality]`.
///
/// `anchors[i]` is the mounting position of `beacon_order[i]`'s beacon.
///
/// # Panics
///
/// Panics if `anchors.len() != beacon_order.len()`.
pub(crate) fn positioned_features_from_snapshots(
    snapshots: &[TrackSnapshot],
    beacon_order: &[Minor],
    anchors: &[(f64, f64)],
) -> Vec<f64> {
    let mut features = features_from_snapshots(snapshots, beacon_order);
    features.extend(position_features(anchors, &features, MISSING_DISTANCE));
    features
}

/// Converts pipeline records into labelled rows (one per cycle). With
/// `anchors` supplied, every row carries the trilateration block
/// ([`positioned_features_from_snapshots`]); the dataset width must match.
pub(crate) fn records_to_dataset(
    scenario: &Scenario,
    records: &[CycleRecord],
    dataset: &mut Dataset,
    beacon_order: &[Minor],
    anchors: Option<&[(f64, f64)]>,
) {
    for record in records {
        let features = match anchors {
            Some(anchors) => {
                positioned_features_from_snapshots(&record.snapshots, beacon_order, anchors)
            }
            None => features_from_snapshots(&record.snapshots, beacon_order),
        };
        let label = record
            .true_room
            .map_or(scenario.outside_label(), |r| r.index() as usize);
        dataset
            .push(features, label)
            .expect("features are finite and labels in range by construction");
    }
}

/// Runs the operator's data-collection walk: visit every room for
/// `dwell_per_room`, `laps` times over, recording one labelled row per scan
/// cycle.
///
/// Each lap uses an independent wander inside the rooms, so the dataset
/// covers each room's interior rather than a single path.
pub fn collect_dataset(
    scenario: &Scenario,
    config: &PipelineConfig,
    dwell_per_room: SimDuration,
    laps: usize,
    seed: u64,
) -> LabelledDataset {
    let beacon_order = scenario.beacon_order();
    let anchors = config.position_features.then(|| scenario.beacon_anchors());
    let width = beacon_order.len()
        + if anchors.is_some() {
            POSITION_FEATURE_WIDTH
        } else {
            0
        };
    let mut data = Dataset::new(width, scenario.label_names())
        .expect("scenario always has beacons and labels");
    let visits: Vec<_> = scenario
        .plan()
        .rooms()
        .iter()
        .map(|room| (room.id(), dwell_per_room))
        .collect();
    for lap in 0..laps {
        let mut walk_rng = rng::for_indexed(seed, "collect-walk", lap as u64);
        let schedule =
            RoomSchedule::generate(scenario.plan(), &visits, 1.2, SimTime::ZERO, &mut walk_rng);
        let duration = schedule.walk().duration() + SimDuration::from_secs(2);
        let records = run_pipeline(
            scenario,
            config,
            &schedule,
            duration,
            rng::derive_seed(seed, "collect-lap") ^ lap as u64,
        );
        records_to_dataset(
            scenario,
            &records,
            &mut data,
            &beacon_order,
            anchors.as_deref(),
        );
    }
    LabelledDataset { data, beacon_order }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roomsense_building::presets;
    use roomsense_ibeacon::{BeaconIdentity, Major, ProximityUuid};
    use roomsense_sim::SimTime;

    fn snapshot(minor: u16, d: f64) -> TrackSnapshot {
        TrackSnapshot {
            identity: BeaconIdentity {
                uuid: ProximityUuid::example(),
                major: Major::new(1),
                minor: Minor::new(minor),
            },
            distance_m: d,
            at: SimTime::from_secs(2),
        }
    }

    #[test]
    fn features_follow_beacon_order() {
        let order = vec![Minor::new(2), Minor::new(0)];
        let snaps = vec![snapshot(0, 1.5), snapshot(2, 4.0)];
        assert_eq!(features_from_snapshots(&snaps, &order), vec![4.0, 1.5]);
    }

    #[test]
    fn missing_beacons_get_sentinel() {
        let order = vec![Minor::new(0), Minor::new(1)];
        let snaps = vec![snapshot(0, 2.0)];
        assert_eq!(
            features_from_snapshots(&snaps, &order),
            vec![2.0, MISSING_DISTANCE]
        );
    }

    #[test]
    fn huge_distances_clamp_to_sentinel() {
        let order = vec![Minor::new(0)];
        let snaps = vec![snapshot(0, 900.0)];
        assert_eq!(
            features_from_snapshots(&snaps, &order),
            vec![MISSING_DISTANCE]
        );
    }

    #[test]
    fn collection_walk_produces_rows_for_every_room() {
        let scenario = Scenario::from_plan(presets::paper_house(), 11);
        let labelled = collect_dataset(
            &scenario,
            &PipelineConfig::paper_android(),
            SimDuration::from_secs(30),
            1,
            1,
        );
        assert!(labelled.data.len() > 50, "rows {}", labelled.data.len());
        let histogram = labelled.data.class_histogram();
        // Every actual room collected at least a handful of rows.
        for (room, count) in histogram.iter().take(5).enumerate() {
            assert!(*count >= 5, "room {room} has only {count} rows");
        }
        assert_eq!(labelled.beacon_order.len(), 5);
    }

    #[test]
    fn more_laps_more_rows() {
        let scenario = Scenario::from_plan(presets::two_transmitter_corridor(), 11);
        let one = collect_dataset(
            &scenario,
            &PipelineConfig::paper_android(),
            SimDuration::from_secs(20),
            1,
            1,
        );
        let two = collect_dataset(
            &scenario,
            &PipelineConfig::paper_android(),
            SimDuration::from_secs(20),
            2,
            1,
        );
        assert!(two.data.len() > one.data.len());
    }

    #[test]
    fn positioned_features_append_the_trilateration_block() {
        let order = vec![Minor::new(0), Minor::new(1), Minor::new(2)];
        let anchors = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)];
        // Distances consistent with standing at (3, 4).
        let snaps = vec![
            snapshot(0, 5.0),
            snapshot(1, 8.0622577),
            snapshot(2, 6.7082039),
        ];
        let features = positioned_features_from_snapshots(&snaps, &order, &anchors);
        assert_eq!(features.len(), order.len() + 3);
        assert_eq!(&features[..3], &[5.0, 8.0622577, 6.7082039]);
        assert!((features[3] - 3.0).abs() < 1e-3, "x {}", features[3]);
        assert!((features[4] - 4.0).abs() < 1e-3, "y {}", features[4]);
        assert_eq!(features[5], 1.0);
        // With too few beacons visible the block degrades to no-fix.
        let features = positioned_features_from_snapshots(&snaps[..1], &order, &anchors);
        assert_eq!(features[5], 0.0);
    }

    #[test]
    fn position_features_config_widens_the_dataset() {
        let scenario = Scenario::from_plan(presets::two_transmitter_corridor(), 11);
        let plain = collect_dataset(
            &scenario,
            &PipelineConfig::paper_android(),
            SimDuration::from_secs(15),
            1,
            7,
        );
        let positioned = collect_dataset(
            &scenario,
            &PipelineConfig::paper_android().with_position_features(true),
            SimDuration::from_secs(15),
            1,
            7,
        );
        assert_eq!(positioned.data.len(), plain.data.len());
        assert_eq!(positioned.data.dimension(), plain.data.dimension() + 3);
        // The beacon block is untouched; the knob only appends.
        for (wide, narrow) in positioned.data.rows().iter().zip(plain.data.rows()) {
            assert_eq!(&wide[..narrow.len()], narrow.as_slice());
        }
    }

    #[test]
    fn collection_is_deterministic() {
        let scenario = Scenario::from_plan(presets::two_transmitter_corridor(), 11);
        let run = || {
            collect_dataset(
                &scenario,
                &PipelineConfig::paper_android(),
                SimDuration::from_secs(15),
                1,
                7,
            )
        };
        assert_eq!(run(), run());
    }
}
