//! Property: fault injection is replayable. The same seed must reproduce
//! the same fault plan, the same transport event log burst for burst, and
//! the same BMS occupancy tables — otherwise a failure seen in a sweep
//! could never be debugged by re-running its seed.

use proptest::prelude::*;
use roomsense::FaultPlan;
use roomsense_ibeacon::{BeaconIdentity, Major, Minor, ProximityUuid};
use roomsense_net::{
    BtRelayTransport, DeviceId, FaultyTransport, ObservationReport, QueueingTransport,
    ShardedBmsServer, SightedBeacon,
};
use roomsense_sim::{rng, SimDuration, SimTime};
use std::sync::Arc;

const HORIZON: SimDuration = SimDuration::from_secs(600);

/// A cheap synthetic report stream: two devices ping-ponging between three
/// beacons every couple of seconds. Fast enough to replay inside a
/// property, rich enough to exercise the queue, the outage windows, and
/// the server table.
fn synthetic_reports() -> Vec<ObservationReport> {
    (0..120u64)
        .map(|i| ObservationReport {
            device: DeviceId::new(1 + (i % 2) as u32),
            seq: i / 2,
            at: SimTime::from_secs(5 * i),
            beacons: vec![SightedBeacon {
                identity: BeaconIdentity {
                    uuid: ProximityUuid::example(),
                    major: Major::new(1),
                    minor: Minor::new((i % 3) as u16),
                },
                distance_m: 1.0 + (i % 4) as f64,
            }],
        })
        .collect()
}

/// Runs the synthetic stream through the full resilience chain dictated by
/// `plan` and returns everything observable: the merged transport event
/// log, the final occupancy table, and the staleness-aware view.
fn replay(
    plan: &FaultPlan,
    seed: u64,
) -> (
    Vec<roomsense_net::TransportEvent>,
    std::collections::BTreeMap<roomsense_net::RoomLabel, usize>,
    roomsense_net::OccupancyView,
) {
    let uplink = FaultyTransport::new(
        BtRelayTransport::new(0.85, SimDuration::from_millis(400)),
        plan.uplink_outages.clone(),
    );
    let chain = FaultyTransport::new(uplink, plan.server_outages.clone());
    let mut q = QueueingTransport::new(chain, 128, SimDuration::from_secs(2));
    let mut transport_rng = rng::for_component(seed, "determinism-uplink");

    // Rooms keyed by beacon minor — deterministic, model-free estimator.
    let server = ShardedBmsServer::new(
        Arc::new(|r: &ObservationReport| -> Option<usize> {
            r.beacons.first().map(|b| b.identity.minor.value() as usize)
        }),
        1,
    );
    let mut deliveries = Vec::new();
    for report in synthetic_reports() {
        deliveries.extend(q.offer(report.at, report, &mut transport_rng));
    }
    let mut t = HORIZON.as_secs_f64() as u64;
    let mut stalls = 0;
    while q.pending() > 0 && stalls < 200 {
        t += 3;
        stalls += 1;
        deliveries.extend(q.flush(SimTime::from_secs(t), &mut transport_rng));
    }
    for delivery in deliveries {
        server.post_observation(delivery.report);
    }
    let now = SimTime::from_secs(t);
    let view = server.occupancy_view(now, SimDuration::from_secs(30));
    (q.telemetry().transport_events(), server.occupancy(), view)
}

proptest! {
    /// The same `(seed, intensity)` pair always generates an identical
    /// fault plan, and replaying it twice produces identical transport
    /// bursts and identical occupancy tables.
    #[test]
    fn same_seed_replays_identically(
        seed in any::<u64>(),
        intensity in 0.0f64..=1.0,
    ) {
        let plan_a = FaultPlan::generate(3, HORIZON, intensity, seed);
        let plan_b = FaultPlan::generate(3, HORIZON, intensity, seed);
        prop_assert_eq!(&plan_a, &plan_b);

        let (events_a, table_a, view_a) = replay(&plan_a, seed);
        let (events_b, table_b, view_b) = replay(&plan_b, seed);
        prop_assert_eq!(events_a, events_b);
        prop_assert_eq!(table_a, table_b);
        prop_assert_eq!(view_a, view_b);
    }

    /// A different seed at the same intensity almost always produces a
    /// different plan — the streams are actually keyed on the seed.
    #[test]
    fn different_seeds_diverge(seed in 0u64..u64::MAX - 1) {
        let a = FaultPlan::generate(3, HORIZON, 0.6, seed);
        let b = FaultPlan::generate(3, HORIZON, 0.6, seed + 1);
        prop_assert_ne!(a, b);
    }

    /// The fault plan's merged path-downtime never exceeds the horizon and
    /// is zero exactly when both uplink schedules are empty.
    #[test]
    fn uplink_downtime_is_bounded(
        seed in any::<u64>(),
        intensity in 0.0f64..=1.0,
    ) {
        let plan = FaultPlan::generate(2, HORIZON, intensity, seed);
        let down = plan.uplink_downtime();
        prop_assert!(down <= HORIZON);
        let empty = plan.uplink_outages.is_empty() && plan.server_outages.is_empty();
        prop_assert_eq!(down.is_zero(), empty);
    }
}
