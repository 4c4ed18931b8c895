//! Property: the reliable delivery chain is effectively exactly-once.
//!
//! The uplink is allowed to do its worst — correlated Wi-Fi outages,
//! stochastic per-send losses, lost acks (so the queue retransmits reports
//! it already delivered), and backoff-induced reordering — and the BMS,
//! ingesting through the `(device, seq)` dedup endpoint, must still end up
//! byte-identical to an oracle that received every report exactly once in
//! order. Separately, a mid-stream crash recovered via checkpoint +
//! journal replay must converge to the same state as a server that never
//! crashed.

use proptest::prelude::*;
use roomsense_ibeacon::{BeaconIdentity, Major, Minor, ProximityUuid};
use roomsense_net::{
    BtRelayTransport, DeviceId, FailoverTransport, FaultyTransport, LinkHealthConfig,
    ObservationReport, QueueingTransport, SequenceStamper, ShardedBmsServer, SightedBeacon,
    WifiTransport,
};
use roomsense_sim::{rng, FaultSchedule, SimDuration, SimTime};
use std::sync::Arc;

const HORIZON: SimDuration = SimDuration::from_secs(600);
const CYCLES: u64 = 80;

/// A deterministic, model-free server: rooms keyed by the first beacon's
/// minor.
fn server() -> ShardedBmsServer {
    ShardedBmsServer::new(
        Arc::new(|r: &ObservationReport| -> Option<usize> {
            r.beacons.first().map(|b| b.identity.minor.value() as usize)
        }),
        1,
    )
}

/// A sequenced fleet stream: `devices` phones reporting every 5 s, hopping
/// between three beacons. Each device's per-report count stays well below
/// the dedup window capacity, so a straggler can never be mistaken for a
/// duplicate.
fn synthetic_reports(devices: u32) -> Vec<ObservationReport> {
    let mut stamper = SequenceStamper::new();
    let mut reports = Vec::new();
    for i in 0..CYCLES {
        for d in 0..devices {
            let device = DeviceId::new(d);
            reports.push(ObservationReport {
                device,
                seq: stamper.next(device),
                at: SimTime::from_millis(i * 5_000 + u64::from(d) * 700),
                beacons: vec![SightedBeacon {
                    identity: BeaconIdentity {
                        uuid: ProximityUuid::example(),
                        major: Major::new(1),
                        minor: Minor::new(((i + u64::from(d)) % 3) as u16),
                    },
                    distance_m: 1.0 + (i % 4) as f64,
                }],
            });
        }
    }
    reports
}

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

proptest! {
    /// Duplicates, reorder, outages, and failover: the server converges to
    /// the clean oracle's exact state, and every wire duplicate is
    /// rejected.
    #[test]
    fn chaotic_uplink_converges_to_the_clean_oracle(
        seed in any::<u64>(),
        devices in 1u32..=4,
        uptime_mean_s in 30u64..=240,
        outage_mean_s in 20u64..=120,
    ) {
        let reports = synthetic_reports(devices);
        let mut schedule_rng = rng::for_component(seed, "reliable-outages");
        let outages = FaultSchedule::generate(
            &mut schedule_rng,
            HORIZON,
            SimDuration::from_secs(uptime_mean_s),
            SimDuration::from_secs(outage_mean_s),
        );
        let chain = FailoverTransport::new(
            FaultyTransport::new(WifiTransport::new(0.95, SimDuration::from_millis(40)), outages),
            BtRelayTransport::new(0.9, SimDuration::from_millis(300)),
            LinkHealthConfig::default(),
        );
        // Capacity covers the whole stream, so nothing is ever evicted and
        // at-least-once delivery is unconditional; lost acks force wire
        // duplicates.
        let mut queue = QueueingTransport::new(chain, reports.len(), SimDuration::from_secs(2))
            .with_ack_loss(0.3);
        let mut transport_rng = rng::for_component(seed, "reliable-uplink");
        let mut deliveries = Vec::new();
        for report in &reports {
            deliveries.extend(queue.offer(report.at, report.clone(), &mut transport_rng));
        }
        let mut t = SimTime::ZERO + HORIZON;
        let mut stalls = 0;
        while queue.pending() > 0 && stalls < 5_000 {
            t += SimDuration::from_secs(2);
            stalls += 1;
            deliveries.extend(queue.flush(t, &mut transport_rng));
        }
        prop_assert_eq!(queue.pending(), 0, "backlog failed to drain");
        prop_assert_eq!(queue.delivered_reports(), reports.len() as u64);

        // Arrival order with a deterministic tie-break.
        deliveries.sort_by_key(|d| (d.at, d.report.device, d.report.seq));
        let chaotic = server();
        let mut rejected = 0usize;
        for delivery in &deliveries {
            if chaotic.ingest(delivery.report.clone()).is_duplicate() {
                rejected += 1;
            }
        }
        let oracle = server();
        for report in &reports {
            oracle.ingest(report.clone());
        }

        prop_assert_eq!(rejected, deliveries.len() - reports.len());
        prop_assert_eq!(chaotic.report_count(), oracle.report_count());
        prop_assert_eq!(chaotic.occupancy(), oracle.occupancy());
        for d in 0..devices {
            let device = DeviceId::new(d);
            prop_assert_eq!(
                chaotic.assignment_history(device),
                oracle.assignment_history(device)
            );
        }
    }

    /// A server that crashes mid-stream and restarts from its last
    /// checkpoint plus the journal tail ends up identical to one that
    /// never crashed — even when the stream itself is reordered and
    /// carries duplicates.
    #[test]
    fn crash_restore_replay_matches_the_uncrashed_server(
        devices in 1u32..=4,
        stride in 1usize..=13,
        dup_every in 2usize..=9,
        checkpoint_frac in 0.1f64..=0.5,
        crash_frac in 0.5f64..=0.95,
    ) {
        let clean = synthetic_reports(devices);
        let n = clean.len();
        // A stride coprime with the length walks a full permutation:
        // deterministic reorder without an RNG.
        let mut stride = stride;
        while gcd(stride, n) != 1 {
            stride += 1;
        }
        let mut stream = Vec::new();
        for i in 0..n {
            stream.push(clean[(i * stride) % n].clone());
            if i % dup_every == 0 {
                stream.push(clean[(i * stride) % n].clone());
            }
        }
        let crash_at = ((stream.len() as f64 * crash_frac) as usize).max(2);
        let checkpoint_at = ((stream.len() as f64 * checkpoint_frac) as usize).min(crash_at - 1);

        let live = server();
        for report in &stream {
            live.ingest(report.clone());
        }

        let mut crashed = server();
        let mut checkpoint = crashed.checkpoint();
        let mut checkpoint_len = 0usize;
        let mut journal: Vec<ObservationReport> = Vec::new();
        for (i, report) in stream.iter().enumerate() {
            if i == checkpoint_at {
                checkpoint = crashed.checkpoint();
                checkpoint_len = journal.len();
            }
            if i == crash_at {
                // The process dies: everything since the checkpoint is
                // gone from memory, and comes back via the journal.
                crashed = ShardedBmsServer::restore(
                    Arc::new(|r: &ObservationReport| -> Option<usize> {
                        r.beacons.first().map(|b| b.identity.minor.value() as usize)
                    }),
                    checkpoint.clone(),
                )
                .expect("untampered checkpoint");
                for replayed in &journal[checkpoint_len..] {
                    crashed.ingest(replayed.clone());
                }
            }
            if !crashed.ingest(report.clone()).is_duplicate() {
                journal.push(report.clone());
            }
        }

        prop_assert!(checkpoint_at < crash_at);
        prop_assert_eq!(crashed.report_count(), live.report_count());
        prop_assert_eq!(crashed.occupancy(), live.occupancy());
        prop_assert_eq!(crashed.stats().reports_stored, live.stats().reports_stored);
        for d in 0..devices {
            let device = DeviceId::new(d);
            prop_assert_eq!(
                crashed.assignment_history(device),
                live.assignment_history(device)
            );
        }
    }
}
