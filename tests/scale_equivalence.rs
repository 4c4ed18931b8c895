//! Property tests for the BMS scale layer: a [`ShardedBmsServer`] must be
//! observationally identical to a single [`BmsServer`] fed the same
//! chaotic (reordered, duplicated) report stream, and the binary-search
//! `occupancy_at` must agree exactly with a linear scan of the history.

use proptest::prelude::*;
use roomsense_ibeacon::{BeaconIdentity, Major, Minor, ProximityUuid};
use roomsense_net::{
    BmsServer, DeviceId, ObservationReport, OccupancyEstimator, ShardedBmsServer, SightedBeacon,
};
use roomsense_sim::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// `(device, seq, at-slot, minor)` — deliberately tiny ranges so arbitrary
/// streams are full of duplicates, reorderings, and seq/time ties.
type Event = (u8, u8, u8, u8);

fn report_of(event: Event) -> ObservationReport {
    let (device, seq, slot, minor) = event;
    ObservationReport {
        device: DeviceId::new(u32::from(device % 6)),
        seq: u64::from(seq % 8),
        at: SimTime::from_secs(u64::from(slot) * 7),
        beacons: vec![SightedBeacon {
            identity: BeaconIdentity {
                uuid: ProximityUuid::example(),
                major: Major::new(1),
                minor: Minor::new(u16::from(minor % 5)),
            },
            distance_m: 0.5 + f64::from(minor % 7) * 0.4,
        }],
    }
}

fn arc_estimator() -> Arc<dyn OccupancyEstimator> {
    Arc::new(|r: &ObservationReport| {
        r.beacons.first().map(|b| b.identity.minor.value() as usize)
    })
}

fn boxed_estimator() -> Box<dyn OccupancyEstimator> {
    Box::new(|r: &ObservationReport| {
        r.beacons.first().map(|b| b.identity.minor.value() as usize)
    })
}

proptest! {
    /// Any shard count, any chaotic stream, with or without a retention
    /// window: every merged query, the telemetry exposition, the state
    /// digest, and a checkpoint/restore round-trip agree with the
    /// un-sharded server.
    #[test]
    fn sharded_fleet_is_indistinguishable_from_a_single_server(
        events in prop::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            0..120,
        ),
        shards in 1usize..10,
        retained in any::<bool>(),
    ) {
        let window = SimDuration::from_secs(200);
        let mut fleet = ShardedBmsServer::new(arc_estimator(), shards)
            .with_dedup_capacity(16);
        let mut single = BmsServer::new(boxed_estimator()).with_dedup_capacity(16);
        if retained {
            fleet = fleet.with_retention(window);
            single = single.with_retention(window);
        }
        // The bulk path must land in the same state as per-report routing.
        let mut bulk = ShardedBmsServer::new(arc_estimator(), shards)
            .with_dedup_capacity(16);
        if retained {
            bulk = bulk.with_retention(window);
        }

        let reports: Vec<ObservationReport> = events.iter().map(|e| report_of(*e)).collect();
        for r in &reports {
            fleet.ingest(r.clone());
            single.ingest(r.clone());
        }
        let (accepted, duplicates) = bulk.ingest_all(reports.clone());
        prop_assert_eq!(accepted + duplicates, reports.len() as u64);

        prop_assert_eq!(fleet.occupancy(), single.occupancy());
        prop_assert_eq!(fleet.stats(), single.stats());
        prop_assert_eq!(fleet.report_count(), single.report_count());
        prop_assert_eq!(fleet.dedup_entries(), single.dedup_entries());
        prop_assert_eq!(fleet.compacted_entries(), single.compacted_entries());
        prop_assert_eq!(fleet.retention_floor(), single.retention_floor());

        let ttl = SimDuration::from_secs(120);
        for secs in [0u64, 70, 300, 900, 1800] {
            let at = SimTime::from_secs(secs);
            prop_assert_eq!(fleet.occupancy_at(at), single.occupancy_at(at));
            prop_assert_eq!(fleet.occupancy_view_at(at, ttl), single.occupancy_view_at(at, ttl));
            let (f, s) = (fleet.occupancy_at_checked(at), single.occupancy_at_checked(at));
            prop_assert_eq!(f.complete, s.complete);
            prop_assert_eq!(f.value, s.value);
        }
        let now = SimTime::from_secs(1800);
        prop_assert_eq!(fleet.occupancy_view(now, ttl), single.occupancy_view(now, ttl));
        prop_assert_eq!(fleet.staleness(now), single.staleness(now));
        prop_assert_eq!(
            fleet.reports_between(SimTime::from_secs(70), SimTime::from_secs(900)),
            single.reports_between(SimTime::from_secs(70), SimTime::from_secs(900))
        );
        for d in 0..6u32 {
            let device = DeviceId::new(d);
            prop_assert_eq!(fleet.reports_for(device), single.reports_for(device));
            prop_assert_eq!(
                fleet.assignment_history(device),
                single.assignment_history(device)
            );
        }

        // Bit-for-bit equivalence, on all three ingestion paths.
        prop_assert_eq!(fleet.state_digest(), single.state_digest());
        prop_assert_eq!(bulk.state_digest(), single.state_digest());

        // Telemetry counters merge to the single server's exposition.
        prop_assert_eq!(
            fleet.telemetry_snapshot().prometheus_text(),
            single.telemetry_snapshot().prometheus_text()
        );

        // Checkpoint/restore round-trips the whole fleet.
        let restored = ShardedBmsServer::restore(arc_estimator(), fleet.checkpoint())
            .expect("untampered checkpoint");
        prop_assert_eq!(restored.state_digest(), single.state_digest());
    }

    /// The `partition_point` fast path of `occupancy_at` returns exactly
    /// what a linear fold over every device's `assignment_history` returns,
    /// at every probe time.
    #[test]
    fn binary_search_occupancy_matches_the_linear_reference(
        events in prop::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            0..120,
        ),
        probes in prop::collection::vec(any::<u16>(), 1..12),
        retained in any::<bool>(),
    ) {
        let mut server = BmsServer::new(boxed_estimator());
        if retained {
            server = server.with_retention(SimDuration::from_secs(200));
        }
        for e in &events {
            server.ingest(report_of(*e));
        }
        let devices: BTreeSet<DeviceId> = events.iter().map(|e| report_of(*e).device).collect();
        for probe in probes {
            let at = SimTime::from_secs(u64::from(probe % 2100));
            let mut linear = BTreeMap::new();
            for device in &devices {
                let last = server
                    .assignment_history(*device)
                    .into_iter()
                    .take_while(|(t, _)| *t <= at)
                    .last();
                if let Some((_, room)) = last {
                    *linear.entry(room).or_insert(0) += 1;
                }
            }
            prop_assert_eq!(server.occupancy_at(at), linear);
        }
    }
}

/// Retention keeps resident state bounded by `devices × (window/period + 1)`
/// while a long duplicated stream flows through the sharded path.
#[test]
fn retention_bounds_resident_state_on_the_sharded_path() {
    let window = SimDuration::from_secs(300);
    let period_s = 60u64;
    let devices = 11u32;
    let fleet = ShardedBmsServer::new(arc_estimator(), 4).with_retention(window);
    let single = BmsServer::new(boxed_estimator()).with_retention(window);
    let cap = devices as usize * ((window.as_millis() / (period_s * 1000)) as usize + 1);
    let mut peak = 0usize;
    for k in 0..120u64 {
        for d in 0..devices {
            let r = ObservationReport {
                device: DeviceId::new(d),
                seq: k,
                at: SimTime::from_secs(k * period_s + u64::from(d)),
                beacons: vec![SightedBeacon {
                    identity: BeaconIdentity {
                        uuid: ProximityUuid::example(),
                        major: Major::new(1),
                        minor: Minor::new((d % 5) as u16),
                    },
                    distance_m: 1.0,
                }],
            };
            fleet.ingest(r.clone());
            // Duplicate every third report: at-least-once delivery.
            if k % 3 == 0 {
                fleet.ingest(r.clone());
                single.ingest(r.clone());
            }
            single.ingest(r);
        }
        peak = peak.max(fleet.report_count());
    }
    assert!(peak <= cap, "peak {peak} exceeds cap {cap}");
    assert!(fleet.compacted_entries() > 0, "nothing was ever compacted");
    assert_eq!(fleet.state_digest(), single.state_digest());
    let early = fleet.occupancy_at_checked(SimTime::from_secs(30));
    assert!(!early.complete, "query below the floor must be flagged");
    assert!(early.floor.is_some());
}
