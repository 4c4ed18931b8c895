//! Per-beacon track management: one filter per beacon in sight.

use crate::{DistanceFilter, EwmaFilter, Observation};
use roomsense_ibeacon::BeaconIdentity;
use roomsense_sim::SimTime;
use roomsense_telemetry::{keys, Recorder, TelemetryEvent};
use std::collections::BTreeMap;
use std::fmt;

/// The smoothed state of one beacon track after a cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackSnapshot {
    /// Which beacon.
    pub identity: BeaconIdentity,
    /// Smoothed distance estimate in metres.
    pub distance_m: f64,
    /// When the estimate was produced (cycle end).
    pub at: SimTime,
}

impl fmt::Display for TrackSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}: {:.2} m", self.at, self.identity, self.distance_m)
    }
}

/// Runs one [`DistanceFilter`] per beacon (an [`EwmaFilter`] by default),
/// feeding each cycle's observations to the right track and `None` to every
/// track that missed the cycle — the paper's full Section V pipeline for the
/// multi-beacon case. The filter type is generic so the ablation arms can
/// swap Kalman, median, or Bayes smoothing without touching the manager.
#[derive(Debug, Clone)]
pub struct TrackManager<F = EwmaFilter> {
    template: F,
    tracks: BTreeMap<BeaconIdentity, F>,
    /// Reused per-cycle buffer of tracks to remove, so steady-state cycles
    /// allocate nothing beyond their returned snapshots.
    dropped_scratch: Vec<BeaconIdentity>,
}

impl<F: DistanceFilter + Clone> TrackManager<F> {
    /// Creates a manager whose per-beacon filters are clones of `template`
    /// (in its reset state).
    pub fn new(mut template: F) -> Self {
        template.reset();
        TrackManager {
            template,
            tracks: BTreeMap::new(),
            dropped_scratch: Vec::new(),
        }
    }

    /// Feeds one cycle's observations. Tracks absent from `observations`
    /// receive a loss; tracks dropped by their filter are removed. Returns
    /// the live snapshots, sorted by identity. This is
    /// [`update_cycle_into_recorded`](Self::update_cycle_into_recorded)
    /// with a fresh buffer and the telemetry discarded.
    pub fn update_cycle(
        &mut self,
        at: SimTime,
        observations: &[Observation],
    ) -> Vec<TrackSnapshot> {
        let mut snaps = Vec::new();
        self.update_cycle_into_recorded(at, observations, &mut Recorder::default(), &mut snaps);
        snaps
    }

    /// Feeds one cycle's observations like [`update_cycle`](Self::update_cycle),
    /// appending the live snapshots to `snaps` (not cleared here) and
    /// recording each hold (`filter.holds`, a track carried across a missed
    /// observation) and drop (`filter.drops`, a track reset after too many
    /// misses) into `telemetry`. Recording never changes the tracks.
    pub fn update_cycle_into_recorded(
        &mut self,
        at: SimTime,
        observations: &[Observation],
        telemetry: &mut Recorder,
        snaps: &mut Vec<TrackSnapshot>,
    ) {
        // Start new tracks for beacons never seen before.
        for obs in observations {
            self.tracks
                .entry(obs.identity)
                .or_insert_with(|| self.template.clone());
        }
        // Update every track: with its observation or with a loss.
        let mut dropped = std::mem::take(&mut self.dropped_scratch);
        dropped.clear();
        for (identity, filter) in &mut self.tracks {
            let obs = observations
                .iter()
                .find(|o| o.identity == *identity)
                .map(|o| o.distance_m);
            match filter.update(obs) {
                Some(distance_m) => {
                    if obs.is_none() {
                        telemetry.incr(keys::FILTER_HOLDS);
                        telemetry.record_event(TelemetryEvent::FilterHold { at });
                    }
                    snaps.push(TrackSnapshot {
                        identity: *identity,
                        distance_m,
                        at,
                    });
                }
                None => {
                    telemetry.incr(keys::FILTER_DROPS);
                    telemetry.record_event(TelemetryEvent::FilterReset { at });
                    dropped.push(*identity);
                }
            }
        }
        for id in &dropped {
            self.tracks.remove(id);
        }
        self.dropped_scratch = dropped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roomsense_ibeacon::{Major, Minor, ProximityUuid};

    fn id(minor: u16) -> BeaconIdentity {
        BeaconIdentity {
            uuid: ProximityUuid::example(),
            major: Major::new(1),
            minor: Minor::new(minor),
        }
    }

    fn obs(minor: u16, distance: f64) -> Observation {
        Observation {
            at: SimTime::from_secs(2),
            identity: id(minor),
            rssi_dbm: -60.0,
            distance_m: distance,
            sample_count: 1,
        }
    }

    #[test]
    fn tracks_are_independent() {
        let mut tm = TrackManager::new(EwmaFilter::paper());
        tm.update_cycle(SimTime::from_secs(2), &[obs(0, 1.0), obs(1, 5.0)]);
        let snaps = tm.update_cycle(SimTime::from_secs(4), &[obs(0, 1.0), obs(1, 5.0)]);
        assert_eq!(snaps.len(), 2);
        assert_eq!((snaps[0].identity, snaps[1].identity), (id(0), id(1)));
        assert!((snaps[0].distance_m - 1.0).abs() < 1e-9);
        assert!((snaps[1].distance_m - 5.0).abs() < 1e-9);
    }

    #[test]
    fn missing_beacon_is_held_then_dropped() {
        let mut tm = TrackManager::new(EwmaFilter::paper());
        let mut telemetry = Recorder::default();
        let mut snaps = Vec::new();
        tm.update_cycle_into_recorded(
            SimTime::from_secs(2),
            &[obs(0, 2.0)],
            &mut telemetry,
            &mut snaps,
        );
        // Cycle without the beacon: held.
        snaps.clear();
        tm.update_cycle_into_recorded(SimTime::from_secs(4), &[], &mut telemetry, &mut snaps);
        assert_eq!(snaps.len(), 1);
        assert_eq!(telemetry.counter(keys::FILTER_HOLDS), 1);
        // Second miss: dropped and removed.
        snaps.clear();
        tm.update_cycle_into_recorded(SimTime::from_secs(6), &[], &mut telemetry, &mut snaps);
        assert!(snaps.is_empty());
        assert!(tm.tracks.is_empty());
        assert_eq!(telemetry.counter(keys::FILTER_DROPS), 1);
        // The journal records the hold before the reset, at cycle ends.
        let journal: Vec<_> = telemetry.journal().collect();
        assert!(matches!(
            journal[0],
            TelemetryEvent::FilterHold { at } if at.as_secs_f64() == 4.0
        ));
        assert!(matches!(
            journal[1],
            TelemetryEvent::FilterReset { at } if at.as_secs_f64() == 6.0
        ));
    }

    #[test]
    fn new_beacon_mid_stream_starts_fresh() {
        let mut tm = TrackManager::new(EwmaFilter::paper());
        tm.update_cycle(SimTime::from_secs(2), &[obs(0, 2.0)]);
        let snaps = tm.update_cycle(SimTime::from_secs(4), &[obs(0, 2.0), obs(1, 9.0)]);
        assert_eq!(snaps.len(), 2);
        // The new track passes its first observation through unsmoothed.
        let b1 = snaps.iter().find(|s| s.identity == id(1)).expect("tracked");
        assert_eq!(b1.distance_m, 9.0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Snapshot distances always lie within the hull of observed
            /// distances, and track count never exceeds distinct beacons.
            #[test]
            fn snapshots_bounded_by_observations(
                cycles in prop::collection::vec(
                    prop::collection::vec((0u16..4, 0.5f64..40.0), 0..4),
                    1..30,
                )
            ) {
                let mut tm = TrackManager::new(EwmaFilter::paper());
                let lo = 0.5 - 1e-9;
                let hi = 40.0 + 1e-9;
                for (i, cycle) in cycles.iter().enumerate() {
                    // Deduplicate beacons within a cycle (aggregation would
                    // have pooled them).
                    let mut seen = std::collections::BTreeSet::new();
                    let observations: Vec<Observation> = cycle
                        .iter()
                        .filter(|(minor, _)| seen.insert(*minor))
                        .map(|(minor, d)| obs(*minor, *d))
                        .collect();
                    let at = SimTime::from_secs(2 * (i as u64 + 1));
                    let snaps = tm.update_cycle(at, &observations);
                    prop_assert!(snaps.len() <= 4);
                    for s in &snaps {
                        prop_assert!(s.distance_m >= lo && s.distance_m <= hi,
                            "snapshot {} escaped hull", s.distance_m);
                        prop_assert_eq!(s.at, at);
                    }
                }
            }

            /// Two consecutive empty cycles clear every track.
            #[test]
            fn double_silence_clears_everything(
                minors in prop::collection::vec(0u16..8, 1..8)
            ) {
                let mut tm = TrackManager::new(EwmaFilter::paper());
                let observations: Vec<Observation> = {
                    let mut seen = std::collections::BTreeSet::new();
                    minors
                        .iter()
                        .filter(|m| seen.insert(**m))
                        .map(|m| obs(*m, 2.0))
                        .collect()
                };
                tm.update_cycle(SimTime::from_secs(2), &observations);
                tm.update_cycle(SimTime::from_secs(4), &[]);
                tm.update_cycle(SimTime::from_secs(6), &[]);
                prop_assert!(tm.tracks.is_empty());
            }
        }
    }

    #[test]
    fn smoothing_applies_within_a_track() {
        let mut tm = TrackManager::new(EwmaFilter::paper());
        tm.update_cycle(SimTime::from_secs(2), &[obs(0, 2.0)]);
        let snaps = tm.update_cycle(SimTime::from_secs(4), &[obs(0, 10.0)]);
        let expected = 0.65 * 2.0 + 0.35 * 10.0;
        assert!((snaps[0].distance_m - expected).abs() < 1e-9);
    }
}
