//! Equivalence gates for the counting tentpole and the `ExperimentCtx`
//! migration.
//!
//! Three property families cover the crowd-census estimator:
//!
//! * **sharded == single** — a `ShardedBmsServer` census is identical to a
//!   single `BmsServer` fed the same reports, for any seed and shard count.
//! * **chaos converges** — once every outage-delayed report has been
//!   delivered, the faulted census equals the clean oracle exactly.
//! * **thread invariance** — the counting fingerprint checksum does not
//!   depend on the worker count.

use proptest::prelude::*;
use roomsense::crowd::{self, CrowdPreset};
use roomsense::experiments::{ExperimentCtx, ExperimentReport};
use roomsense::FaultPlan;
use roomsense_net::{
    BmsServer, CountingConfig, ObservationReport, OccupancyEstimator, ShardedBmsServer,
};
use roomsense_sim::SimTime;
use std::sync::Arc;

/// The census room estimator used throughout the counting layer: the
/// strongest sighted beacon's minor number is the room index.
fn room_estimator() -> Arc<dyn OccupancyEstimator> {
    Arc::new(|report: &ObservationReport| {
        report
            .beacons
            .first()
            .map(|b| b.identity.minor.value() as usize)
    })
}

/// A small crowd trace for property cases: preset picked by seed, subject
/// count shrunk so 64 proptest cases stay fast.
fn small_scenario(seed: u64) -> crowd::CrowdScenario {
    let preset = CrowdPreset::ALL[(seed % 3) as usize];
    preset.scenario_with(seed, 18)
}

proptest! {
    /// For any seed and shard count, the sharded census equals the
    /// single-server census at every probe instant.
    #[test]
    fn sharded_census_matches_single_server(
        seed in any::<u64>(),
        shards in 1usize..6,
    ) {
        let scenario = small_scenario(seed);
        let config = CountingConfig::default().with_carry_rate(scenario.carry_rate);
        let reports = crowd::replay_reports(&scenario, seed);

        let fleet = ShardedBmsServer::new(room_estimator(), shards);
        fleet.ingest_all(reports.clone());
        let single = BmsServer::new(Box::new(|r: &ObservationReport| {
            r.beacons.first().map(|b| b.identity.minor.value() as usize)
        }));
        for report in &reports {
            single.ingest(report.clone());
        }

        let duration_ms = scenario.duration.as_millis();
        for k in 1..=4u64 {
            let probe = SimTime::from_millis(duration_ms * k / 4);
            prop_assert_eq!(
                fleet.population_view(probe, &config),
                single.population_view(probe, &config),
                "probe {}/4 diverged for seed {} with {} shards",
                k, seed, shards
            );
        }
    }

    /// Uplink outages delay reports but never change where the census
    /// lands: after the last delayed delivery, the faulted server equals a
    /// clean oracle that saw every report promptly.
    #[test]
    fn chaos_census_converges_to_clean_oracle(
        seed in any::<u64>(),
        intensity in 0.2f64..0.9,
    ) {
        let scenario = small_scenario(seed);
        let config = CountingConfig::default().with_carry_rate(scenario.carry_rate);
        let reports = crowd::replay_reports(&scenario, seed);
        let plan = FaultPlan::generate(
            scenario.rooms,
            scenario.duration,
            intensity,
            seed.wrapping_add(1),
        );
        let mut delayed = crowd::delayed_by_outages(&reports, &plan.uplink_outages);
        delayed.sort_by_key(|(at, r)| (*at, r.device, r.seq));

        let clean = BmsServer::new(Box::new(|r: &ObservationReport| {
            r.beacons.first().map(|b| b.identity.minor.value() as usize)
        }));
        for report in &reports {
            clean.ingest(report.clone());
        }
        let faulted = BmsServer::new(Box::new(|r: &ObservationReport| {
            r.beacons.first().map(|b| b.identity.minor.value() as usize)
        }));
        let mut last_delivery = SimTime::from_millis(0);
        for (at, report) in delayed {
            last_delivery = last_delivery.max(at);
            faulted.ingest(report);
        }

        let settle = last_delivery.max(SimTime::from_millis(scenario.duration.as_millis()));
        prop_assert_eq!(
            faulted.population_view(settle, &config),
            clean.population_view(settle, &config),
            "faulted census never converged for seed {} at intensity {:.2}",
            seed, intensity
        );
    }

    /// The counting fingerprint checksum is a pure function of the seed —
    /// worker count must not leak into it.
    #[test]
    fn counting_checksum_is_thread_invariant(seed in any::<u64>()) {
        let serial = ExperimentCtx::new(seed)
            .with_devices(12)
            .with_threads(1)
            .counting();
        let parallel = ExperimentCtx::new(seed)
            .with_devices(12)
            .with_threads(4)
            .counting();
        prop_assert_eq!(serial.checksum(), parallel.checksum());
        prop_assert_eq!(serial.fingerprint, parallel.fingerprint);
    }
}
