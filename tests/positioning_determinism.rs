//! Determinism contract for the positioning arm's two new moving parts.
//!
//! * **Bayes filter** — pure sequential state over a seeded support grid:
//!   the same seed and observation trace must reproduce bit-for-bit
//!   identical estimates, and a Bayes-filtered fleet's telemetry snapshot
//!   must be byte-identical at any worker count (the positioning arm's
//!   cross-thread checksum gate rides on this).
//! * **Peer-relay mesh** — store-and-forward over flaky phone-to-phone
//!   hops must still be effectively exactly-once: after draining, the BMS
//!   state behind a chaotic dual-outage mesh equals the clean oracle's,
//!   mirroring `tests/reliable_delivery.rs` for the failover stack.

use proptest::prelude::*;
use roomsense::experiments::{ExperimentCtx, ExperimentReport};
use roomsense::{run_fleet, BatchConfig, FaultPlan, FilterKind, PipelineConfig, Scenario};
use roomsense_building::mobility::{MobilityModel, StaticPosition};
use roomsense_building::presets;
use roomsense_geom::Point;
use roomsense_ibeacon::{BeaconIdentity, Major, Minor, ProximityUuid};
use roomsense_net::{
    BmsServer, BtRelayTransport, DeviceId, FailoverTransport, FaultyTransport, LinkHealthConfig,
    ObservationReport, PeerRelayConfig, PeerRelayTransport, SequenceStamper, SightedBeacon,
    WifiTransport,
};
use roomsense_signal::{BayesFilter, DistanceFilter};
use roomsense_sim::exec::with_thread_override;
use roomsense_sim::{rng, FaultSchedule, SimDuration, SimTime};
use roomsense_telemetry::Recorder;

const HORIZON: SimDuration = SimDuration::from_secs(400);
const CYCLES: u64 = 50;

/// A seed-derived observation trace with dropouts and occasional spikes —
/// the shapes the loss policy and the outlier mixture have to handle.
fn bayes_trace(seed: u64, len: usize) -> Vec<Option<f64>> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
            if unit < 0.15 {
                None // scan-cycle loss
            } else if unit > 0.97 {
                Some(40.0 + unit) // fault-shaped far spike
            } else {
                Some(0.5 + unit * 12.0)
            }
        })
        .collect()
}

/// A deterministic, model-free server: rooms keyed by the first beacon's
/// minor.
fn server() -> BmsServer {
    BmsServer::new(Box::new(|r: &ObservationReport| -> Option<usize> {
        r.beacons.first().map(|b| b.identity.minor.value() as usize)
    }))
}

/// A sequenced report stream: `devices` phones reporting every 8 s,
/// hopping between three beacons.
fn synthetic_reports(devices: u32) -> Vec<ObservationReport> {
    let mut stamper = SequenceStamper::new();
    let mut reports = Vec::new();
    for i in 0..CYCLES {
        for d in 0..devices {
            let device = DeviceId::new(d);
            reports.push(ObservationReport {
                device,
                seq: stamper.next(device),
                at: SimTime::from_millis(i * 8_000 + u64::from(d) * 900),
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

proptest! {
    /// The same seed and trace reproduce the Bayes filter bit-for-bit:
    /// every estimate, every internal weight, across losses and spikes.
    #[test]
    fn bayes_filter_is_bitwise_deterministic(seed in any::<u64>()) {
        let mut a = BayesFilter::indoor_default(seed);
        let mut b = BayesFilter::indoor_default(seed);
        for obs in bayes_trace(seed, 80) {
            let (ra, rb) = (a.update(obs), b.update(obs));
            prop_assert_eq!(ra.map(f64::to_bits), rb.map(f64::to_bits));
        }
        prop_assert_eq!(a, b);
    }

    /// A Bayes-filtered (and trilateration-featured) fleet's telemetry
    /// snapshot is byte-identical at any worker count — the serialized
    /// journal and Prometheus text, not just the commuting counters.
    #[test]
    fn bayes_fleet_snapshot_is_thread_invariant(seed in any::<u64>()) {
        let scenario = Scenario::from_plan(presets::paper_house(), seed);
        let config = PipelineConfig::paper_android()
            .with_filter(FilterKind::Bayes)
            .with_position_features(true);
        let spots = [
            StaticPosition::new(Point::new(2.0, 2.0)),
            StaticPosition::new(Point::new(6.0, 4.0)),
            StaticPosition::new(Point::new(4.0, 7.0)),
        ];
        let occupants: Vec<&dyn MobilityModel> = spots.iter().map(|s| s as _).collect();
        let snapshot = |threads: usize| {
            with_thread_override(threads, || {
                let mut telemetry = Recorder::default();
                run_fleet(
                    &scenario,
                    &config,
                    &occupants,
                    SimDuration::from_secs(15),
                    seed,
                    &FaultPlan::none(scenario.advertisers().len()),
                    &BatchConfig { rows_per_chunk: 1 },
                    &mut telemetry,
                );
                telemetry
            })
        };
        let sequential = snapshot(1);
        let parallel = snapshot(4);
        prop_assert_eq!(sequential.prometheus_text(), parallel.prometheus_text());
        prop_assert_eq!(sequential.journal_jsonl(), parallel.journal_jsonl());
        prop_assert_eq!(sequential.checksum(), parallel.checksum());
    }

    /// Chaotic mesh uplink == clean oracle: dual outages on both direct
    /// channels, flaky phone-to-phone hops, a lossy exit peer — after the
    /// backlog drains, the BMS behind the mesh is byte-identical to one
    /// that received every report exactly once in order.
    #[test]
    fn peer_relay_chaotic_uplink_converges_to_the_clean_oracle(
        seed in any::<u64>(),
        devices in 1u32..=3,
        uptime_mean_s in 30u64..=180,
        outage_mean_s in 20u64..=90,
        hop_success in 0.3f64..=0.95,
    ) {
        let reports = synthetic_reports(devices);
        let mut wifi_rng = rng::for_component(seed, "peer-wifi-outages");
        let mut bt_rng = rng::for_component(seed, "peer-bt-outages");
        let uptime = SimDuration::from_secs(uptime_mean_s);
        let downtime = SimDuration::from_secs(outage_mean_s);
        let direct = FailoverTransport::new(
            FaultyTransport::new(
                WifiTransport::new(0.95, SimDuration::from_millis(40)),
                FaultSchedule::generate(&mut wifi_rng, HORIZON, uptime, downtime),
            ),
            FaultyTransport::new(
                BtRelayTransport::new(0.9, SimDuration::from_millis(300)),
                FaultSchedule::generate(&mut bt_rng, HORIZON, uptime, downtime),
            ),
            LinkHealthConfig::default(),
        );
        // The buffer covers the whole stream, so nothing is ever evicted
        // and store-and-forward delivery is unconditional.
        let mesh = PeerRelayTransport::new(
            direct,
            WifiTransport::new(0.9, SimDuration::from_millis(50)),
            PeerRelayConfig {
                hop_success,
                queue_capacity: reports.len(),
                ..PeerRelayConfig::default()
            },
        );
        let mut mesh = mesh;
        let mut transport_rng = rng::for_component(seed, "peer-mesh-uplink");
        let mut deliveries = Vec::new();
        for report in &reports {
            deliveries.extend(mesh.offer(report.at, report.clone(), &mut transport_rng));
        }
        let mut t = SimTime::ZERO + HORIZON;
        let mut stalls = 0;
        while mesh.pending() > 0 && stalls < 5_000 {
            t += SimDuration::from_secs(2);
            stalls += 1;
            deliveries.extend(mesh.flush(t, &mut transport_rng));
        }
        prop_assert_eq!(mesh.pending(), 0, "mesh backlog failed to drain");
        // The mesh never duplicates on its own: one delivery per report.
        prop_assert_eq!(deliveries.len(), reports.len());

        deliveries.sort_by_key(|d| (d.at, d.report.device, d.report.seq));
        let chaotic = server();
        for delivery in &deliveries {
            prop_assert!(
                !chaotic.ingest(delivery.report.clone()).is_duplicate(),
                "mesh produced a wire duplicate"
            );
        }
        let oracle = server();
        for report in &reports {
            oracle.ingest(report.clone());
        }
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
}

/// The full positioning arm — eight SVM cells fanned out over worker
/// threads plus the sequential mesh drive — fingerprints identically at
/// any worker count.
#[test]
fn positioning_checksum_is_thread_invariant() {
    let serial = ExperimentCtx::new(roomsense_bench_seed()).with_threads(1).positioning();
    let parallel = ExperimentCtx::new(roomsense_bench_seed()).with_threads(4).positioning();
    assert_eq!(serial.checksum(), parallel.checksum());
    serial.assert_invariants();
}

/// The repro binary's seed, duplicated here because the root test crate
/// does not depend on `roomsense-bench`.
fn roomsense_bench_seed() -> u64 {
    20150309
}
