//! Durability property tests for the BMS archive tier: random disk-fault
//! windows × crash points × shard counts, with two oracles bounding every
//! recovery.
//!
//! The invariant under test is the tiered-retention headline: recovery is
//! **exact** wherever the checkpoint's archive marks are still covered by
//! the surviving segment logs, and every loss is **reported** — a
//! historical answer may come back `complete: false`, but a `complete`
//! answer is never wrong. The deterministic six-scenario matrix lives in
//! `archive_experiment` (the `repro archive` arm); this file fuzzes the
//! same machinery over arbitrary fault placements.

use proptest::prelude::*;
use roomsense_ibeacon::{BeaconIdentity, Major, Minor, ProximityUuid};
use roomsense_net::{
    ArchiveConfig, DeviceId, ObservationReport, OccupancyEstimator, ShardedBmsServer, SightedBeacon,
};
use roomsense_sim::{
    DiskFaultPlan, FaultSchedule, FaultWindow, SharedDisk, SimDisk, SimDuration, SimTime,
};
use std::sync::Arc;

const CYCLES: u64 = 40;
const PERIOD_MS: u64 = 30_000;
const CHUNKS: usize = 10;
const CHECKPOINT_CHUNK: usize = 4;
const SPAN_SECS: u64 = CYCLES * PERIOD_MS / 1000;

fn arc_estimator() -> Arc<dyn OccupancyEstimator> {
    Arc::new(|r: &ObservationReport| r.beacons.first().map(|b| b.identity.minor.value() as usize))
}

/// A deterministic fleet stream: each device reports every cycle, moving
/// rooms mid-run so historical queries have real structure to get wrong.
fn stream(devices: usize) -> Vec<ObservationReport> {
    let mut reports = Vec::with_capacity(devices * CYCLES as usize);
    for i in 0..devices as u64 {
        for k in 0..CYCLES {
            let room = ((i + k / 10) % 5) as u16;
            reports.push(ObservationReport {
                device: DeviceId::new(i as u32),
                seq: k,
                at: SimTime::from_millis(k * PERIOD_MS + i * 250),
                beacons: vec![SightedBeacon {
                    identity: BeaconIdentity {
                        uuid: ProximityUuid::example(),
                        major: Major::new(1),
                        minor: Minor::new(room),
                    },
                    distance_m: 1.0 + (i % 4) as f64 * 0.5,
                }],
            });
        }
    }
    reports.sort_by_key(|r| (r.at, r.device, r.seq));
    reports
}

fn window(from_s: u64, len_s: u64) -> FaultSchedule {
    FaultSchedule::new(vec![FaultWindow::new(
        SimTime::from_secs(from_s),
        SimTime::from_secs(from_s + len_s.max(1)),
    )])
}

proptest! {
    /// Random fault windows × crash points × shard counts. Every case
    /// crashes mid-run, recovers from checkpoint + segment scan + journal
    /// replay, and checks: covered recoveries converge bit-for-bit with a
    /// never-crashed archived oracle; uncovered recoveries report their
    /// loss and flag below-floor queries; and no historical answer is ever
    /// complete-but-wrong against an unbounded oracle.
    #[test]
    fn recovery_is_exact_or_the_loss_is_reported(
        devices in 4usize..14,
        shards in 1usize..5,
        crash_chunk in (CHECKPOINT_CHUNK + 1)..CHUNKS,
        disk_seed in any::<u64>(),
        torn in any::<bool>(),
        short_on in any::<bool>(),
        short_from in 0u64..1000,
        rot in any::<bool>(),
        fsync_on in any::<bool>(),
        fsync_from in 0u64..1000,
    ) {
        let reports = stream(devices);
        let chunk_size = reports.len().div_ceil(CHUNKS).max(1);
        let chunks: Vec<Vec<ObservationReport>> =
            reports.chunks(chunk_size).map(|c| c.to_vec()).collect();
        let plan = DiskFaultPlan {
            torn_write: if torn { window(0, 2 * SPAN_SECS) } else { FaultSchedule::none() },
            short_write: if short_on { window(short_from, 180) } else { FaultSchedule::none() },
            bit_rot: if rot { window(0, 2 * SPAN_SECS) } else { FaultSchedule::none() },
            fsync_loss: if fsync_on { window(fsync_from, 300) } else { FaultSchedule::none() },
        };
        let lossless_plan = !short_on && !rot && !fsync_on;
        let config = ArchiveConfig { segment_records: 8, ..ArchiveConfig::default() };
        let retention = SimDuration::from_secs(120);

        let disk = SharedDisk::new(SimDisk::new(disk_seed).with_fault_plan(plan));
        let fleet = ShardedBmsServer::new(arc_estimator(), shards)
            .with_retention(retention)
            .with_archives(disk.clone(), config.clone());
        // Oracle A: same fleet shape, pristine disk, never crashed.
        let oracle_disk = SharedDisk::new(SimDisk::pristine(disk_seed.wrapping_add(1)));
        let oracle = ShardedBmsServer::new(arc_estimator(), shards)
            .with_retention(retention)
            .with_archives(oracle_disk, config.clone());
        // Oracle B: unbounded single server — historical ground truth.
        let unbounded = ShardedBmsServer::new(arc_estimator(), 1);
        for chunk in &chunks {
            oracle.ingest_all(chunk.clone());
            for report in chunk {
                unbounded.ingest(report.clone());
            }
        }

        // Run to the crash point, checkpointing on the way.
        let mut checkpoint = None;
        let mut crash_at = SimTime::ZERO;
        for (i, chunk) in chunks.iter().take(crash_chunk).enumerate() {
            if i == CHECKPOINT_CHUNK {
                checkpoint = Some(fleet.checkpoint());
            }
            fleet.ingest_all(chunk.clone());
            if let Some(last) = chunk.last() {
                crash_at = crash_at.max(last.at);
            }
        }
        let snapshot = checkpoint.expect("checkpoint chunk precedes the crash chunk");
        drop(fleet);
        disk.crash(crash_at);

        let (restored, recovery, coverage) = ShardedBmsServer::restore_with_archives(
            arc_estimator(),
            snapshot,
            disk,
            config,
        )
        .expect("untampered checkpoints");
        for chunk in &chunks[CHECKPOINT_CHUNK..crash_chunk] {
            restored.ingest_all(chunk.clone());
        }
        for chunk in &chunks[crash_chunk..] {
            restored.ingest_all(chunk.clone());
        }

        // Live state is exact in every case: checkpoint + journal replay.
        prop_assert_eq!(restored.occupancy(), unbounded.occupancy());
        prop_assert_eq!(restored.report_count(), oracle.report_count());

        // No silent loss, anywhere, ever: a complete answer equals the
        // unbounded oracle; loss shows up only as `complete: false`.
        let mut flagged = 0usize;
        for j in 0..20u64 {
            let at = SimTime::from_secs(j * SPAN_SECS / 20);
            let answer = restored.occupancy_at_checked(at);
            if answer.complete {
                prop_assert_eq!(
                    answer.value,
                    unbounded.occupancy_at(at),
                    "complete answer diverged at t={}s", at.as_millis() / 1000
                );
            } else {
                flagged += 1;
            }
        }

        if coverage.covered {
            // Covered recovery: the fleet heals. If fault windows stayed
            // open past the crash, later spills can corrupt on disk — the
            // query-time read audit catches that, demotes the sink, and
            // re-imposes a floor. Either history stayed exact (no floor)
            // or the demotion is on the record: nothing degrades silently.
            if restored.historical_floor().is_some() {
                let corruptions = restored
                    .telemetry_snapshot()
                    .counter(roomsense_telemetry::keys::BMS_ARCHIVE_READ_CORRUPTIONS);
                prop_assert!(
                    corruptions > 0,
                    "covered recovery grew a floor without reporting read corruption"
                );
            } else {
                prop_assert_eq!(flagged, 0);
            }
        } else {
            // Uncovered recovery: the loss is *reported* — the coverage
            // verdict names missing or diverged records, and the fleet
            // re-imposes a historical floor so below-floor answers are
            // flagged instead of fabricated.
            prop_assert!(coverage.missing_records + coverage.diverged_devices > 0);
            prop_assert!(restored.historical_floor().is_some());
        }

        // A fault-free disk (torn tails only affect the un-fsynced tail,
        // which the journal replay re-derives) must always stay covered,
        // and because any loss is a strict time-suffix the re-spilled
        // records land in the oracle's exact order: the recovered fleet is
        // bit-for-bit the never-crashed one, archive marks included.
        if lossless_plan {
            prop_assert!(coverage.covered, "clean-disk recovery lost coverage: {:?}", recovery);
            prop_assert_eq!(restored.historical_floor(), None);
            prop_assert_eq!(flagged, 0);
            prop_assert_eq!(restored.state_digest(), oracle.state_digest());
        }
    }
}

/// The ambient half of the `ROOMSENSE_DISK_FAULTS` chaos knob. This disk
/// deliberately takes whatever fault plan the environment dictates: on a
/// normal run it is a faithful disk and the crash recovery must be exactly
/// covered; when CI sets the knob, the same pipeline runs under seeded
/// all-modes chaos and the universal contract takes over — complete
/// answers still match the unbounded oracle, and any loss is reported
/// through coverage, the historical floor, or the read-corruption counter.
#[test]
fn ambient_disk_chaos_is_never_silently_wrong() {
    let reports = stream(10);
    let chunk_size = reports.len().div_ceil(CHUNKS).max(1);
    let chunks: Vec<Vec<ObservationReport>> =
        reports.chunks(chunk_size).map(|c| c.to_vec()).collect();
    let config = ArchiveConfig {
        segment_records: 8,
        ..ArchiveConfig::default()
    };
    let disk = SharedDisk::new(SimDisk::new(77));
    let chaotic = !disk.fault_plan().is_empty();
    let fleet = ShardedBmsServer::new(arc_estimator(), 3)
        .with_retention(SimDuration::from_secs(120))
        .with_archives(disk.clone(), config.clone());
    let unbounded = ShardedBmsServer::new(arc_estimator(), 1);
    for chunk in &chunks {
        for report in chunk {
            unbounded.ingest(report.clone());
        }
    }

    let crash_chunk = 7usize;
    let mut checkpoint = None;
    let mut crash_at = SimTime::ZERO;
    for (i, chunk) in chunks.iter().take(crash_chunk).enumerate() {
        if i == CHECKPOINT_CHUNK {
            checkpoint = Some(fleet.checkpoint());
        }
        fleet.ingest_all(chunk.clone());
        if let Some(last) = chunk.last() {
            crash_at = crash_at.max(last.at);
        }
    }
    drop(fleet);
    disk.crash(crash_at);

    let (restored, _recovery, coverage) = ShardedBmsServer::restore_with_archives(
        arc_estimator(),
        checkpoint.expect("checkpoint taken before the crash"),
        disk,
        config,
    )
    .expect("untampered checkpoints");
    for chunk in &chunks[CHECKPOINT_CHUNK..] {
        restored.ingest_all(chunk.clone());
    }

    assert_eq!(restored.occupancy(), unbounded.occupancy());
    let mut flagged = 0usize;
    for j in 0..20u64 {
        let at = SimTime::from_secs(j * SPAN_SECS / 20);
        let answer = restored.occupancy_at_checked(at);
        if answer.complete {
            assert_eq!(
                answer.value,
                unbounded.occupancy_at(at),
                "t={}s silently wrong",
                j
            );
        } else {
            flagged += 1;
        }
    }

    if !chaotic {
        assert!(coverage.covered, "a faithful disk must recover covered");
        assert_eq!(restored.historical_floor(), None);
        assert_eq!(flagged, 0);
    } else if !coverage.covered {
        assert!(coverage.missing_records + coverage.diverged_devices > 0);
        assert!(restored.historical_floor().is_some());
    }
}
