//! The `archive` arm: segment-log retention under disk faults.

use super::{ExperimentCtx, ExperimentReport};
use crate::crowd;
use roomsense_net::{DeviceId, ObservationReport};
use roomsense_sim::{exec, rng, SimDuration, SimTime};
use std::sync::Arc;

/// One row of the [`ExperimentCtx::archive`] durability matrix: what one
/// crash-and-recover run under one disk-fault mode found. Every field is
/// deterministic for a fixed `(seed, devices, shards)` at any
/// `ROOMSENSE_THREADS`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ArchiveScenarioRow {
    /// Scenario tag: `clean`, `crash_mid_compaction`, `torn_tail`,
    /// `short_write`, `fsync_loss`, or `bit_rot`.
    pub(crate) name: &'static str,
    /// Segment files scanned across every shard at recovery.
    pub(crate) segments_scanned: usize,
    /// Segments truncated at a corrupt record.
    pub(crate) truncated_segments: usize,
    /// Bytes the truncations discarded.
    pub(crate) truncated_bytes: u64,
    /// Sealed footers whose recomputed count or digest disagreed.
    pub(crate) footer_mismatches: usize,
    /// Whether the recovery scan itself found nothing to repair (a lying
    /// fsync leaves a clean scan — only coverage catches it).
    pub(crate) scan_clean: bool,
    /// Whether the recovered logs still covered every record the
    /// checkpoint's archive marks promised.
    pub(crate) covered: bool,
    /// Records the marks promised that the disk no longer held.
    pub(crate) missing_records: u64,
    /// Devices whose surviving records diverged from the mark digest (a
    /// mid-log hole: later records survive but the prefix is broken).
    pub(crate) diverged_devices: u64,
    /// Records in the recovered archive after the journal replay and the
    /// post-crash tail of the stream.
    pub(crate) archive_records: u64,
    /// Journal-replay re-spills the archive's dedup window suppressed.
    pub(crate) respill_suppressed: u64,
    /// Disk fault counters for the run: short writes injected.
    pub(crate) short_writes: u64,
    /// Durable bytes flipped by bit rot.
    pub(crate) flipped_bytes: u64,
    /// fsyncs that lied (claimed success without persisting).
    pub(crate) lost_fsyncs: u64,
    /// Crashes that kept a torn partial tail.
    pub(crate) torn_tails: u64,
    /// Recovered-and-replayed fleet digest equals the never-crashed
    /// archived oracle's (expected exactly when `covered`).
    pub(crate) digest_match: bool,
    /// Live occupancy table equals the unbounded oracle's (always
    /// expected: checkpoint + journal replay is exact above the floor).
    pub(crate) live_occupancy_match: bool,
    /// Historical probes issued across the run's span.
    pub(crate) probes: usize,
    /// Probes answered complete **and** equal to the unbounded oracle.
    pub(crate) exact_probes: usize,
    /// Probes answered incomplete (below the post-loss historical floor).
    pub(crate) flagged_probes: usize,
    /// A probe was answered complete but *wrong* — the one outcome the
    /// design forbids. Expected `false` in every scenario.
    pub(crate) silent_loss: bool,
    /// Checksum of the recovered fleet's merged telemetry.
    pub(crate) telemetry_checksum: u64,
}

/// What one [`ExperimentCtx::archive`] run returns (every field is
/// deterministic, so the `repro archive` checksum hashes all of it).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ArchiveFingerprint {
    /// Synthetic fleet size.
    pub(crate) devices: usize,
    /// Shards (and therefore per-shard segment logs).
    pub(crate) shards: usize,
    /// Reports in the generated stream (identical in every scenario).
    pub(crate) reports_per_scenario: u64,
    /// One row per fault scenario, in a fixed order.
    pub(crate) scenarios: Vec<ArchiveScenarioRow>,
}

impl ArchiveFingerprint {
    /// No scenario ever answered a historical query complete-but-wrong.
    pub(crate) fn no_silent_loss(&self) -> bool {
        self.scenarios.iter().all(|s| !s.silent_loss)
    }

    /// Every covered recovery converged bit-for-bit with the
    /// never-crashed oracle and answered every probe exactly.
    pub(crate) fn covered_scenarios_exact(&self) -> bool {
        self.scenarios
            .iter()
            .filter(|s| s.covered)
            .all(|s| s.digest_match && s.exact_probes == s.probes)
    }

    /// Every lossy recovery reported the loss: coverage failed **and**
    /// below-floor probes came back flagged incomplete.
    pub(crate) fn lossy_scenarios_flagged(&self) -> bool {
        self.scenarios
            .iter()
            .filter(|s| !s.covered)
            .all(|s| s.flagged_probes > 0 && !s.digest_match)
    }

    /// Checkpoint + journal replay restored the live table in every
    /// scenario, covered or not.
    pub(crate) fn live_state_always_exact(&self) -> bool {
        self.scenarios.iter().all(|s| s.live_occupancy_match)
    }

    /// Each fault scenario actually injected its fault: the matrix never
    /// silently degrades into six clean runs.
    pub(crate) fn faults_exercised(&self) -> bool {
        let row = |name: &str| self.scenarios.iter().find(|s| s.name == name);
        row("torn_tail").is_some_and(|s| s.torn_tails > 0)
            && row("short_write").is_some_and(|s| s.short_writes > 0)
            && row("fsync_loss").is_some_and(|s| s.lost_fsyncs > 0)
            && row("bit_rot").is_some_and(|s| s.flipped_bytes > 0)
    }
}

impl ExperimentCtx {
    /// The crash-safe tiered-retention gate (the `repro archive` arm): one
    /// synthetic fleet streamed into a sharded, retention-compacting BMS whose
    /// evicted room assignments spill to per-shard segment logs on a fault-injected
    /// [`SimDisk`](roomsense_sim::SimDisk), crashed mid-run and recovered from
    /// checkpoint + segment scan + journal replay, once per disk-fault mode:
    ///
    /// * **clean** — checkpoint immediately before the crash; everything
    ///   durable; recovery must be exact.
    /// * **crash_mid_compaction** — crash four chunks past the checkpoint with
    ///   an un-fsynced active-segment tail; the tail is cleanly dropped and
    ///   the journal replay re-derives it (the archive's dedup window
    ///   suppresses re-spills of records that did survive).
    /// * **torn_tail** — the crash keeps a seeded partial prefix of the
    ///   volatile tail, tearing mid-record; recovery truncates at the first
    ///   corrupt frame and replay re-derives the rest.
    /// * **short_write** — pre-checkpoint appends silently lose a suffix;
    ///   the scan catches the corrupt frame *inside* the durable region, so
    ///   coverage against the checkpoint marks fails and the fleet degrades
    ///   to lossy (flagged) history.
    /// * **fsync_loss** — every fsync lies; the crash wipes the logs yet the
    ///   scan is *clean*, and only mark verification exposes the loss.
    /// * **bit_rot** — a durable byte of the checkpoint-flushed active
    ///   segment flips after the flush; scan truncates mid-durable-region,
    ///   coverage fails, history is flagged.
    ///
    /// Two oracles bound every scenario: a never-crashed fleet with the same
    /// retention + archives (state digests, archive marks included, must match
    /// whenever coverage holds) and an unbounded single server (every
    /// `complete` historical answer must equal it — an answer may be missing,
    /// never silently wrong).
    ///
    /// Defaults: 240 devices over 4 shards; [`ExperimentCtx::with_devices`]
    /// and [`ExperimentCtx::with_shards`] override them.
    pub(crate) fn archive(&self) -> ArchiveFingerprint {
        use rand::Rng;
        use roomsense_net::{ArchiveConfig, ShardedBmsServer};
        use roomsense_sim::{DiskFaultPlan, FaultSchedule, FaultWindow, SharedDisk, SimDisk};
        let seed = self.seed;
        let devices = self.devices.unwrap_or(240);
        let shards = self.shards.unwrap_or(4);

        const ROOMS: u16 = 10;
        const CYCLES: u64 = 60;
        const PERIOD_MS: u64 = 30_000;
        const CHUNKS: usize = 20;
        const CHECKPOINT_CHUNK: usize = 12;
        const CRASH_CHUNK: usize = 16;
        let retention = SimDuration::from_secs(300);
        let span = SimDuration::from_millis(CYCLES * PERIOD_MS); // 1800 s

        // Phase 1: one synthetic stream, reused by every scenario. Per-device
        // RNG streams keep it identical at any thread count.
        let indices: Vec<u64> = (0..devices as u64).collect();
        let mut reports: Vec<ObservationReport> = exec::par_map_indexed(&indices, |i, _| {
            let mut r = rng::for_indexed(seed, "archive-device", i as u64);
            let jitter_ms = r.gen_range(0..PERIOD_MS);
            let home = r.gen_range(0..ROOMS);
            let away = r.gen_range(0..ROOMS);
            let switch = r.gen_range(CYCLES / 3..2 * CYCLES / 3);
            (0..CYCLES)
                .map(|k| {
                    let room = if k >= switch { away } else { home };
                    crowd::room_report(
                        DeviceId::new(i as u32),
                        k,
                        SimTime::from_millis(k * PERIOD_MS + jitter_ms),
                        room,
                        r.gen_range(0.5..3.0),
                    )
                })
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        reports.sort_by_key(|r| (r.at, r.device, r.seq));
        let chunk_size = reports.len().div_ceil(CHUNKS).max(1);
        let chunks: Vec<Vec<ObservationReport>> =
            reports.chunks(chunk_size).map(|c| c.to_vec()).collect();

        let estimator =
            || -> Arc<dyn roomsense_net::OccupancyEstimator> { Arc::new(crowd::room_of) };
        let window = |from_s: u64, to_s: u64| {
            FaultSchedule::new(vec![FaultWindow::new(
                SimTime::from_secs(from_s),
                SimTime::from_secs(to_s),
            )])
        };

        // The fault matrix. Window times are anchored to the stream: the
        // checkpoint lands near 1080 s (chunk 12 of 20 over 1800 s) and the
        // crash near 1440 s (chunk 16).
        struct Spec {
            name: &'static str,
            plan: DiskFaultPlan,
            checkpoint_chunk: usize,
        }
        let specs = [
            Spec {
                name: "clean",
                plan: DiskFaultPlan::none(),
                checkpoint_chunk: CRASH_CHUNK,
            },
            Spec {
                name: "crash_mid_compaction",
                plan: DiskFaultPlan::none(),
                checkpoint_chunk: CHECKPOINT_CHUNK,
            },
            Spec {
                name: "torn_tail",
                plan: DiskFaultPlan {
                    torn_write: window(0, 3600),
                    ..DiskFaultPlan::none()
                },
                checkpoint_chunk: CHECKPOINT_CHUNK,
            },
            Spec {
                name: "short_write",
                // Pre-checkpoint appends lose a suffix: durable corruption the
                // checkpoint marks still promise.
                plan: DiskFaultPlan {
                    short_write: window(400, 700),
                    ..DiskFaultPlan::none()
                },
                checkpoint_chunk: CHECKPOINT_CHUNK,
            },
            Spec {
                name: "fsync_loss",
                plan: DiskFaultPlan {
                    fsync_loss: window(0, 3600),
                    ..DiskFaultPlan::none()
                },
                checkpoint_chunk: CHECKPOINT_CHUNK,
            },
            Spec {
                name: "bit_rot",
                // Active for the whole run. Rot only bites where a file has a
                // durable prefix to corrupt — the checkpoint-flushed active
                // segment — so every flip lands in mark-covered data.
                plan: DiskFaultPlan {
                    bit_rot: window(0, 3600),
                    ..DiskFaultPlan::none()
                },
                checkpoint_chunk: CHECKPOINT_CHUNK,
            },
        ];

        let config = ArchiveConfig {
            segment_records: 32,
            ..ArchiveConfig::default()
        };
        let probes = 40usize;
        let mut scenarios = Vec::with_capacity(specs.len());
        for (idx, spec) in specs.into_iter().enumerate() {
            let disk = SharedDisk::new(
                SimDisk::new(seed.wrapping_add(idx as u64)).with_fault_plan(spec.plan),
            );
            let fleet = ShardedBmsServer::new(estimator(), shards)
                .with_retention(retention)
                .with_archives(disk.clone(), config.clone());
            // Oracle A: the same fleet shape on a pristine disk, never crashed.
            let oracle_disk =
                SharedDisk::new(SimDisk::pristine(seed.wrapping_add(1000 + idx as u64)));
            let oracle = ShardedBmsServer::new(estimator(), shards)
                .with_retention(retention)
                .with_archives(oracle_disk, config.clone());
            // Oracle B: an unbounded single server — historical ground truth.
            let unbounded = ShardedBmsServer::new(estimator(), 1);
            for chunk in &chunks {
                oracle.ingest_all(chunk.clone());
                for report in chunk {
                    unbounded.ingest(report.clone());
                }
            }

            // Run to the crash point, checkpointing on the way.
            let mut checkpoint = None;
            let mut crash_at = SimTime::ZERO;
            for (i, chunk) in chunks.iter().take(CRASH_CHUNK).enumerate() {
                if i == spec.checkpoint_chunk {
                    checkpoint = Some(fleet.checkpoint());
                }
                fleet.ingest_all(chunk.clone());
                if let Some(last) = chunk.last() {
                    crash_at = crash_at.max(last.at);
                }
            }
            if spec.checkpoint_chunk == CRASH_CHUNK {
                checkpoint = Some(fleet.checkpoint());
            }
            let snapshot = checkpoint.expect("checkpoint chunk inside the run");

            // Crash: the fleet's memory is gone; the disk keeps only what an
            // fsync truly persisted (plus a seeded torn tail while that
            // schedule is active).
            drop(fleet);
            disk.crash(crash_at);
            let (restored, recovery, coverage) = ShardedBmsServer::restore_with_archives(
                estimator(),
                snapshot,
                disk.clone(),
                config.clone(),
            )
            .expect("untampered checkpoints");
            // Journal replay: everything delivered since the checkpoint, then
            // the rest of the stream.
            for chunk in &chunks[spec.checkpoint_chunk..CRASH_CHUNK] {
                restored.ingest_all(chunk.clone());
            }
            for chunk in &chunks[CRASH_CHUNK..] {
                restored.ingest_all(chunk.clone());
            }

            // Probe the whole span against the unbounded oracle: complete
            // answers must be exact; loss must surface as `complete: false`.
            let mut exact_probes = 0usize;
            let mut flagged_probes = 0usize;
            let mut silent_loss = false;
            for j in 0..probes as u64 {
                let at = SimTime::from_millis(j * span.as_millis() / probes as u64);
                let answer = restored.occupancy_at_checked(at);
                if !answer.complete {
                    flagged_probes += 1;
                } else if answer.value == unbounded.occupancy_at(at) {
                    exact_probes += 1;
                } else {
                    silent_loss = true;
                }
            }

            let stats = restored.archive_stats().expect("archives attached");
            let disk_stats = disk.stats();
            scenarios.push(ArchiveScenarioRow {
                name: spec.name,
                segments_scanned: recovery.segments,
                truncated_segments: recovery.truncated_segments,
                truncated_bytes: recovery.truncated_bytes,
                footer_mismatches: recovery.footer_mismatches,
                scan_clean: recovery.clean(),
                covered: coverage.covered,
                missing_records: coverage.missing_records,
                diverged_devices: coverage.diverged_devices,
                archive_records: stats.records,
                respill_suppressed: stats.respill_suppressed,
                short_writes: disk_stats.short_writes,
                flipped_bytes: disk_stats.flipped_bytes,
                lost_fsyncs: disk_stats.lost_fsyncs,
                torn_tails: disk_stats.torn_tails,
                digest_match: restored.state_digest() == oracle.state_digest(),
                live_occupancy_match: restored.occupancy() == unbounded.occupancy(),
                probes,
                exact_probes,
                flagged_probes,
                silent_loss,
                telemetry_checksum: restored.telemetry_snapshot().checksum(),
            });
        }

        ArchiveFingerprint {
            devices,
            shards,
            reports_per_scenario: reports.len() as u64,
            scenarios,
        }
    }
}

impl ExperimentReport for ArchiveFingerprint {
    fn summary_rows(&self) -> Vec<String> {
        let f = self;
        let mut rows = vec![
            format!(
                "  fleet: {} devices -> {} shards, {} reports/scenario, 300 s retention spilling to segment logs",
                f.devices, f.shards, f.reports_per_scenario
            ),
            "  scenario               segs trunc foot  scan     covered  missing  records  respill  digest  probes(exact/flagged)  loss"
                .to_string(),
        ];
        for s in &f.scenarios {
            rows.push(format!(
                "  {:<21} {:>5} {:>5} {:>4}  {:<7}  {:<7}  {:>7}  {:>7}  {:>7}  {:<6}  {:>9}/{:<7}  {}",
                s.name,
                s.segments_scanned,
                s.truncated_segments,
                s.footer_mismatches,
                if s.scan_clean { "clean" } else { "repair" },
                s.covered,
                s.missing_records,
                s.archive_records,
                s.respill_suppressed,
                s.digest_match,
                s.exact_probes,
                s.flagged_probes,
                if s.silent_loss { "SILENT" } else { "none" },
            ));
        }
        let lossy = f.scenarios.iter().filter(|s| !s.covered).count();
        rows.push(format!(
            "  {} covered scenarios exact; {} lossy scenarios flagged; zero silent loss",
            f.scenarios.len() - lossy,
            lossy
        ));
        rows
    }

    fn assert_invariants(&self) {
        let f = self;
        assert!(
            f.no_silent_loss(),
            "a historical query was answered complete but wrong"
        );
        assert!(
            f.covered_scenarios_exact(),
            "a covered recovery diverged from the never-crashed oracle"
        );
        assert!(
            f.lossy_scenarios_flagged(),
            "a lossy recovery failed to surface its data loss"
        );
        assert!(
            f.live_state_always_exact(),
            "checkpoint + journal replay lost live state"
        );
        assert!(
            f.faults_exercised(),
            "a fault scenario injected nothing - the matrix degraded to clean runs"
        );
        for s in &f.scenarios {
            let expect_covered = matches!(s.name, "clean" | "crash_mid_compaction" | "torn_tail");
            assert_eq!(
                s.covered, expect_covered,
                "{}: expected covered={expect_covered}",
                s.name
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn archive_experiment_is_thread_invariant_and_never_silently_wrong() {
        let base = ExperimentCtx::new(33)
            .with_devices(24)
            .with_shards(2)
            .archive();
        let serial = exec::with_thread_override(1, || {
            ExperimentCtx::new(33)
                .with_devices(24)
                .with_shards(2)
                .archive()
        });
        assert_eq!(base, serial);
        let f = &base;
        assert_eq!(f.scenarios.len(), 6);
        assert!(f.no_silent_loss());
        assert!(f.covered_scenarios_exact());
        assert!(f.lossy_scenarios_flagged());
        assert!(f.live_state_always_exact());
        assert!(f.faults_exercised());
        // The injected corruption must actually force lossy recoveries:
        // short writes and lying fsyncs break mark coverage by design.
        for name in ["short_write", "fsync_loss", "bit_rot"] {
            let row = f.scenarios.iter().find(|s| s.name == name).expect("row");
            assert!(!row.covered, "{name} should break mark coverage");
        }
        for name in ["clean", "crash_mid_compaction", "torn_tail"] {
            let row = f.scenarios.iter().find(|s| s.name == name).expect("row");
            assert!(row.covered, "{name} recovery should stay covered");
        }
    }
}
