//! Property and integration tests for the overload-safe ingestion tier
//! and the campus federation.
//!
//! The core claims under test:
//!
//! * **Nothing is ever lost or corrupted under backpressure** — any
//!   chaotic stream (duplicates, reorderings, seq/time ties) pushed
//!   through an [`IngestTier`] with client-side retry ends, post-drain,
//!   bit-for-bit equal to a one-shard server fed the admitted
//!   sequence.
//! * **Mailbox memory is bounded** by the configured capacity no matter
//!   how hard the offered load exceeds the service rate.
//! * **Degraded answers are stale, never wrong** — while shards lag, the
//!   merged view equals the already-pumped prefix with lagging rooms
//!   marked `fresh == 0`.
//! * **The federation is deterministic** — the overload experiment's
//!   fingerprint is identical at any `ROOMSENSE_THREADS`.

use proptest::prelude::*;
use roomsense::experiments::ExperimentCtx;
use roomsense_ibeacon::{BeaconIdentity, Major, Minor, ProximityUuid};
use roomsense_net::{
    Admission, CampusFederation, DeviceId, IngestTier, IngestTierConfig, ObservationReport,
    OccupancyEstimator, ServiceLevel, ShardedBmsServer, SightedBeacon,
};
use roomsense_sim::exec::with_thread_override;
use roomsense_sim::{SimDuration, SimTime};
use std::collections::VecDeque;
use std::sync::Arc;

/// `(device, seq, at-slot, minor)` — tiny ranges, maximal collisions.
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
    Arc::new(|r: &ObservationReport| r.beacons.first().map(|b| b.identity.minor.value() as usize))
}

proptest! {
    /// Any chaotic stream through a deliberately tiny tier (so shedding
    /// is common): clients park refused reports and retry after every
    /// pump; post-drain, the tier's state digest equals a single server
    /// fed the admitted sequence, mailbox depth never exceeded the
    /// configured capacity, and no report went missing.
    #[test]
    fn tier_under_backpressure_recovers_the_single_server_state(
        events in prop::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            1..120,
        ),
        shards in 1usize..4,
    ) {
        let config = IngestTierConfig {
            mailbox_capacity: 8,
            service_rate: 2,
            admit_high: 6,
            admit_low: 2,
        };
        let mut tier = IngestTier::new(
            ShardedBmsServer::new(arc_estimator(), shards),
            config,
        );
        let single = ShardedBmsServer::new(arc_estimator(), 1);
        let mut pending: VecDeque<ObservationReport> =
            events.iter().map(|e| report_of(*e)).collect();
        let total = pending.len();
        let mut admitted = 0usize;
        let mut turns = 0usize;
        while admitted < total {
            // Offer until the tier pushes back, then pump once and retry.
            while let Some(report) = pending.front() {
                match tier.offer(report.at, report.clone()) {
                    Admission::Admitted => {
                        single.ingest(report.clone());
                        pending.pop_front();
                        admitted += 1;
                    }
                    Admission::Backpressured => break,
                }
            }
            tier.pump();
            turns += 1;
            prop_assert!(turns <= 16 * total + 16, "tier failed to make progress");
        }
        tier.drain(total + 1);
        prop_assert_eq!(tier.backlog(), 0);
        prop_assert!(tier.peak_mailbox_depth() <= config.mailbox_capacity);
        prop_assert_eq!(tier.admitted(), total as u64);
        prop_assert_eq!(tier.state_digest(), single.state_digest());
        let now = SimTime::from_secs(24 * 7);
        let ttl = SimDuration::from_secs(3600);
        let view = tier.occupancy_view(now, ttl);
        let reference = single.occupancy_view(now, ttl);
        prop_assert_eq!(view.level, ServiceLevel::Exact);
        prop_assert_eq!(&view.view, &reference);
    }

    /// Routing the same stream through a two-building federation (split
    /// by device parity) merges to the union of what each building's own
    /// tier reports, and the campus digest is a pure function of the
    /// building digests.
    #[test]
    fn federation_merge_is_the_union_of_building_views(
        events in prop::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            1..80,
        ),
    ) {
        let mut campus = CampusFederation::new();
        for name in ["east", "west"] {
            campus.add_building(
                name,
                IngestTier::new(
                    ShardedBmsServer::new(arc_estimator(), 2),
                    IngestTierConfig::default(),
                ),
            );
        }
        for event in &events {
            let report = report_of(*event);
            let building = if report.device.value().is_multiple_of(2) { "east" } else { "west" };
            // Default config is deep enough that nothing sheds here.
            prop_assert!(matches!(
                campus.offer(building, report.at, report),
                Admission::Admitted
            ));
        }
        campus.drain(events.len() + 1);
        let now = SimTime::from_secs(24 * 7);
        let ttl = SimDuration::from_secs(3600);
        let view = campus.campus_view(now, ttl);
        prop_assert_eq!(view.level, ServiceLevel::Exact);
        let mut expected_occupants = 0usize;
        for (name, leveled) in &view.buildings {
            prop_assert_eq!(leveled.level, ServiceLevel::Exact);
            for (room, presence) in &leveled.view.rooms {
                prop_assert_eq!(
                    view.rooms.get(&(name.clone(), *room)),
                    Some(presence),
                    "campus table must carry each building's rooms verbatim"
                );
                expected_occupants += presence.occupants;
            }
        }
        prop_assert_eq!(view.occupants(), expected_occupants);
        prop_assert_eq!(campus.campus_digest(), campus.campus_digest());
    }
}

#[test]
fn overload_experiment_is_thread_invariant_and_bounded() {
    let ctx = ExperimentCtx::new(77).with_devices(30).with_shards(3);
    let base = ctx.overload();
    let serial = with_thread_override(1, || ctx.overload());
    assert_eq!(base, serial);
    let f = &base;
    assert!(f.memory_bounded());
    assert_eq!(f.admitted, f.offered, "shedding lost reports");
    assert!(
        f.degraded_consistent,
        "a degraded answer was wrong, not just stale"
    );
    assert!(f.digests_match, "post-drain state diverged from the oracle");
}
