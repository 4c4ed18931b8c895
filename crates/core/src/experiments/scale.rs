//! The `scale` arm: a batched fleet into a sharded, retention-bounded BMS.

use super::{ExperimentCtx, ExperimentReport};
use crate::crowd;
use roomsense_energy::{account, PowerProfile, UplinkArchitecture, UsageTimeline};
use roomsense_net::{DeviceId, ObservationReport, WifiTransport};
use roomsense_sim::{exec, rng, SimDuration, SimTime};
use std::sync::Arc;

/// The retention-window memory bound for a fleet with heterogeneous
/// report periods: `Σ_d (window / period_d + 1)`.
///
/// A server that keeps `window` of history holds at most
/// `window / period + 1` reports per device (the `+1` covers the report
/// straddling the window edge). With every device on the same period
/// this collapses to the old `devices × (window / period + 1)` formula;
/// summing per device keeps the bound tight when parts of the fleet
/// report faster than others.
pub(crate) fn retention_cap(
    window: SimDuration,
    periods: impl IntoIterator<Item = SimDuration>,
) -> usize {
    periods
        .into_iter()
        .map(|period| (window.as_millis() / period.as_millis().max(1)) as usize + 1)
        .sum()
}

/// What one [`ExperimentCtx::scale`] run returns — everything in here is a
/// pure function of `(seed, devices, shards)` at any `ROOMSENSE_THREADS`, so
/// the `repro scale` checksum hashes exactly this.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ScaleFingerprint {
    /// Synthetic fleet size.
    pub(crate) devices: usize,
    /// Shards in the [`ShardedBmsServer`](roomsense_net::ShardedBmsServer).
    pub(crate) shards: usize,
    /// Reports offered to the per-device batching uplinks.
    pub(crate) offered: u64,
    /// Offered reports that reached the server at least once.
    pub(crate) delivered: u64,
    /// Report retransmissions caused by lost batch acks (the at-least-once
    /// duplicate stream the dedup window absorbs).
    pub(crate) retransmits: u64,
    /// Reports dropped by uplink buffer overflow.
    pub(crate) dropped: u64,
    /// Reports still buffered when the drain window closed.
    pub(crate) undelivered: u64,
    /// Coalesced radio bursts across the fleet.
    pub(crate) bursts: u64,
    /// Mean reports carried per burst attempt (the mean of every device's
    /// `net.batch.size` observations, failed attempts included) — the
    /// coalescing factor the batched energy arm prices.
    pub(crate) mean_batch_size: f64,
    /// Reports the (crash-free) single reference server stored.
    pub(crate) stored: u64,
    /// Duplicates the single reference server rejected.
    pub(crate) duplicates: u64,
    /// Highest retained-report count observed across ingest chunks.
    pub(crate) peak_retained: usize,
    /// The retention-window bound, summed per device over heterogeneous
    /// report periods: `Σ_d (window / period_d + 1)` (see
    /// [`retention_cap`]).
    pub(crate) retained_cap: usize,
    /// Reports retained after the full stream (post-compaction).
    pub(crate) final_retained: usize,
    /// Entries dropped by retention compaction on the sharded fleet.
    pub(crate) compacted: u64,
    /// Reports replayed from the journal after the mid-run crash.
    pub(crate) recovered_reports: usize,
    /// Sharded fleet and single server ended bit-for-bit identical.
    pub(crate) digests_match: bool,
    /// Post-crash restore + replay reproduced the pre-crash digest.
    pub(crate) restore_digest_match: bool,
    /// Whether a query below the retention floor was (wrongly) marked
    /// complete — expected `false`.
    pub(crate) early_query_complete: bool,
    /// Rooms probed by the historical-occupancy query sweep.
    pub(crate) history_rooms_probed: usize,
    /// Rooms with at least one device in the final occupancy view.
    pub(crate) occupied_rooms: usize,
    /// Devices in the final occupancy view.
    pub(crate) occupants: usize,
    /// Fleet uplink energy under the batched (wake-per-burst) ledger arm.
    pub(crate) batched_energy_mj: f64,
    /// The same bursts priced with an always-associated Wi-Fi adapter.
    pub(crate) always_on_energy_mj: f64,
    /// Checksum of the merged fleet telemetry (plus the peak gauge).
    pub(crate) telemetry_checksum: u64,
}

impl ScaleFingerprint {
    /// Whether peak resident state stayed under the retention bound.
    pub(crate) fn retention_bounded(&self) -> bool {
        self.peak_retained <= self.retained_cap
    }

    /// Fraction of uplink energy saved by disassociating between bursts.
    pub(crate) fn batched_saving_fraction(&self) -> f64 {
        if self.always_on_energy_mj > 0.0 {
            1.0 - self.batched_energy_mj / self.always_on_energy_mj
        } else {
            0.0
        }
    }
}

impl ExperimentCtx {
    /// The fleet-scale bench (the `repro scale` arm): `devices` synthetic
    /// phones report through per-device batching uplinks into a
    /// [`ShardedBmsServer`](roomsense_net::ShardedBmsServer), with a one-shard
    /// server fed the identical stream as the semantic reference.
    ///
    /// The run exercises every scale mechanism at once:
    ///
    /// * **Batching** — each device coalesces its 60 s reports into ≤8-report
    ///   bursts over a lossy-ack Wi-Fi link, so the server sees an
    ///   at-least-once stream with duplicates, and the energy ledger prices
    ///   the bursts under [`UplinkArchitecture::Batched`].
    /// * **Sharding** — the delivered stream (globally sorted by
    ///   `(time, device, seq)`) is bulk-ingested chunk by chunk through
    ///   [`ingest_all`](roomsense_net::ShardedBmsServer::ingest_all); the
    ///   reference server ingests the same chunks serially.
    /// * **Retention** — both servers run a 300 s retention window; every
    ///   fifth device reports at a 30 s period (the rest at 60 s), and the
    ///   peak retained count sampled per chunk must stay under the summed
    ///   per-device bound [`retention_cap`]: `Σ_d (window / period_d + 1)`.
    /// * **Crash recovery** — the fleet checkpoints at chunk 12 and crashes at
    ///   chunk 16, restoring from the checkpoint and replaying the journal
    ///   tail; the restored digest must equal the pre-crash digest, and the
    ///   final fleet digest must equal the crash-free reference's.
    ///
    /// Deterministic for a fixed `(seed, devices, shards)` at any
    /// `ROOMSENSE_THREADS`: per-device RNG streams come from
    /// [`rng::for_indexed`], parallel sections preserve item order, and each
    /// shard's recorder only sees its own lock-ordered partition.
    ///
    /// Defaults: 10 000 devices over 16 shards; [`ExperimentCtx::with_devices`]
    /// and [`ExperimentCtx::with_shards`] override them.
    pub(crate) fn scale(&self) -> ScaleFingerprint {
        use rand::Rng;
        use roomsense_net::{BatchingTransport, Delivery, ShardedBmsServer};
        use roomsense_telemetry::{keys, Histogram};
        let seed = self.seed;
        let devices = self.devices.unwrap_or(10_000);
        let shards = self.shards.unwrap_or(16);

        const ROOMS: u16 = 12;
        const CYCLES: u64 = 30;
        const PERIOD_MS: u64 = 60_000;
        const MAX_BATCH: usize = 8;
        const CHUNKS: usize = 20;
        const CHECKPOINT_CHUNK: usize = 12;
        const CRASH_CHUNK: usize = 16;
        let retention = SimDuration::from_secs(300);
        let ttl = SimDuration::from_secs(300);
        let duration = SimDuration::from_millis(CYCLES * PERIOD_MS);
        let span = duration * 2; // run + drain window
        let end = SimTime::ZERO + span;

        struct DeviceRun {
            deliveries: Vec<Delivery>,
            period: SimDuration,
            offered: u64,
            delivered: u64,
            dropped: u64,
            retransmits: u64,
            burst_sizes: Histogram,
            pending: u64,
            batched_mj: f64,
            always_on_mj: f64,
        }

        // Phase 1: the synthetic fleet. Every device walks its own seeded RNG
        // stream (generation, link noise, and ack losses all come from it), so
        // the result is identical at any thread count.
        let indices: Vec<u64> = (0..devices as u64).collect();
        let runs = exec::par_map_indexed(&indices, |i, _| {
            let mut r = rng::for_indexed(seed, "scale-device", i as u64);
            // Heterogeneous report periods: every fifth device is a "fast"
            // reporter (30 s), the rest hold the paper's 60 s cycle. The
            // retention bound must therefore be summed per device rather
            // than multiplied fleet-wide.
            let period_ms = if i % 5 == 4 { PERIOD_MS / 2 } else { PERIOD_MS };
            let cycles = duration.as_millis() / period_ms;
            let jitter_ms = r.gen_range(0..period_ms);
            let home = r.gen_range(0..ROOMS);
            let roams = r.gen::<f64>() < 0.3;
            let away = r.gen_range(0..ROOMS);
            let switch = r.gen_range(cycles / 3..2 * cycles / 3);
            // With 60 s reports and a 600 s freshness bound, the size-8 seal
            // fires first: the batch fills (~7 min) before the oldest report
            // ages out, so bursts run near max_batch.
            let mut uplink = BatchingTransport::new(
                WifiTransport::new(0.97, SimDuration::from_millis(80)),
                MAX_BATCH,
                SimDuration::from_secs(600),
            )
            .with_backoff(SimDuration::from_secs(60))
            .with_ack_loss(0.05);
            let mut deliveries = Vec::new();
            for k in 0..cycles {
                let room = if roams && k >= switch { away } else { home };
                let at = SimTime::from_millis(k * period_ms + jitter_ms);
                let report =
                    crowd::room_report(DeviceId::new(i as u32), k, at, room, r.gen_range(0.5..3.0));
                deliveries.extend(uplink.offer(at, report, &mut r));
            }
            let mut t = SimTime::ZERO + duration;
            deliveries.extend(uplink.flush(t, &mut r));
            while uplink.pending() > 0 && t < end {
                t += SimDuration::from_secs(60);
                deliveries.extend(uplink.flush_due(t, &mut r));
            }
            let timeline = UsageTimeline {
                duration: span,
                scan_active: duration,
                transport_events: uplink.telemetry().transport_events(),
            };
            let profile = PowerProfile::galaxy_s3_mini();
            DeviceRun {
                period: SimDuration::from_millis(period_ms),
                offered: uplink.offered(),
                delivered: uplink.delivered_reports(),
                dropped: uplink.dropped(),
                retransmits: uplink.retransmits(),
                burst_sizes: uplink
                    .telemetry()
                    .histogram(keys::NET_BATCH_SIZE)
                    .cloned()
                    .unwrap_or_default(),
                pending: uplink.pending() as u64,
                batched_mj: account(&profile, &timeline, UplinkArchitecture::Batched).total_mj(),
                always_on_mj: account(&profile, &timeline, UplinkArchitecture::Wifi).total_mj(),
                deliveries,
            }
        });
        let mut offered = 0u64;
        let mut delivered = 0u64;
        let mut dropped = 0u64;
        let mut retransmits = 0u64;
        let mut burst_sizes = Histogram::default();
        let mut undelivered = 0u64;
        let mut batched_energy_mj = 0.0f64;
        let mut always_on_energy_mj = 0.0f64;
        let mut stream: Vec<Delivery> = Vec::new();
        let mut periods: Vec<SimDuration> = Vec::with_capacity(devices);
        for run in runs {
            periods.push(run.period);
            offered += run.offered;
            delivered += run.delivered;
            dropped += run.dropped;
            retransmits += run.retransmits;
            burst_sizes.merge(&run.burst_sizes);
            undelivered += run.pending;
            batched_energy_mj += run.batched_mj;
            always_on_energy_mj += run.always_on_mj;
            stream.extend(run.deliveries);
        }
        stream.sort_by_key(|d| (d.at, d.report.device, d.report.seq));

        // Phase 2: chunked ingestion into the sharded fleet and the single
        // reference server, with a checkpoint, a crash, and a journal replay
        // along the way. The journal is the delivered stream itself (dupes and
        // all), so replay reproduces the exact pre-crash state.
        let chunk_size = stream.len().div_ceil(CHUNKS).max(1);
        let chunks: Vec<Vec<ObservationReport>> = stream
            .chunks(chunk_size)
            .map(|c| c.iter().map(|d| d.report.clone()).collect())
            .collect();
        let fleet_estimator: Arc<dyn roomsense_net::OccupancyEstimator> = Arc::new(crowd::room_of);
        let mut fleet =
            ShardedBmsServer::new(Arc::clone(&fleet_estimator), shards).with_retention(retention);
        let single =
            ShardedBmsServer::new(Arc::clone(&fleet_estimator), 1).with_retention(retention);
        let mut checkpoint: Option<roomsense_net::ShardedBmsCheckpoint> = None;
        let mut journal_start = 0usize;
        let mut peak_retained = 0usize;
        let mut recovered_reports = 0usize;
        let mut restore_digest_match = true;
        for (idx, chunk) in chunks.iter().enumerate() {
            if idx == CRASH_CHUNK {
                if let Some(snapshot) = &checkpoint {
                    let pre_crash = fleet.state_digest();
                    fleet =
                        ShardedBmsServer::restore(Arc::clone(&fleet_estimator), snapshot.clone())
                            .expect("untampered checkpoint");
                    for replay in &chunks[journal_start..idx] {
                        recovered_reports += replay.len();
                        fleet.ingest_all(replay.clone());
                    }
                    restore_digest_match = fleet.state_digest() == pre_crash;
                }
            }
            if idx == CHECKPOINT_CHUNK {
                checkpoint = Some(fleet.checkpoint());
                journal_start = idx;
            }
            fleet.ingest_all(chunk.clone());
            for report in chunk {
                single.ingest(report.clone());
            }
            peak_retained = peak_retained.max(fleet.report_count());
        }

        // Phase 3: merged cross-shard queries, equivalence, and telemetry.
        let mut history_rooms_probed = 0usize;
        let history_probes = 40u64;
        for j in 0..history_probes {
            let at = SimTime::from_millis(j * span.as_millis() / history_probes);
            history_rooms_probed += fleet.occupancy_at(at).len();
        }
        let view = fleet.occupancy_view(end, ttl);
        let early = fleet.occupancy_at_checked(SimTime::from_secs(100));
        let stats = single.stats();
        let mut recorder = fleet.telemetry_snapshot();
        recorder.set_gauge(keys::BMS_REPORTS_RETAINED_PEAK, peak_retained as f64);

        ScaleFingerprint {
            devices,
            shards,
            offered,
            delivered,
            retransmits,
            dropped,
            undelivered,
            bursts: burst_sizes.count(),
            mean_batch_size: burst_sizes.mean().unwrap_or(0.0),
            stored: stats.reports_stored,
            duplicates: stats.reports_duplicate,
            peak_retained,
            retained_cap: retention_cap(retention, periods),
            final_retained: fleet.report_count(),
            compacted: fleet.compacted_entries(),
            recovered_reports,
            digests_match: fleet.state_digest() == single.state_digest(),
            restore_digest_match,
            early_query_complete: early.complete,
            history_rooms_probed,
            occupied_rooms: view.rooms.len(),
            occupants: view.rooms.values().map(|p| p.occupants).sum(),
            batched_energy_mj,
            always_on_energy_mj,
            telemetry_checksum: recorder.checksum(),
        }
    }
}

impl ExperimentReport for ScaleFingerprint {
    fn summary_rows(&self) -> Vec<String> {
        let f = self;
        vec![
            format!(
                "  fleet: {} devices -> {} shards (batch <= 8 reports/burst, 300 s retention)",
                f.devices, f.shards
            ),
            format!(
                "  uplink: {} offered, {} delivered, {} retransmitted, {} dropped, {} undelivered",
                f.offered, f.delivered, f.retransmits, f.dropped, f.undelivered
            ),
            format!(
                "  coalescing: {} bursts, mean {:.2} reports/burst",
                f.bursts, f.mean_batch_size
            ),
            format!(
                "  server: {} stored, {} duplicates rejected, {} compacted, {} replayed after crash",
                f.stored, f.duplicates, f.compacted, f.recovered_reports
            ),
            format!(
                "  memory: peak {} retained reports (cap {}), final {}",
                f.peak_retained, f.retained_cap, f.final_retained
            ),
            format!(
                "  occupancy: {} rooms, {} devices; history sweep probed {} room-slots",
                f.occupied_rooms, f.occupants, f.history_rooms_probed
            ),
            format!(
                "  energy: batched {:.0} mJ vs always-on wifi {:.0} mJ ({:.1}% saved)",
                f.batched_energy_mj,
                f.always_on_energy_mj,
                f.batched_saving_fraction() * 100.0
            ),
            format!(
                "  sharded == single-server state: {}; crash recovery exact: {}; memory bounded: {}",
                f.digests_match,
                f.restore_digest_match,
                f.retention_bounded()
            ),
        ]
    }

    fn assert_invariants(&self) {
        let f = self;
        assert!(
            f.digests_match,
            "sharded fleet diverged from the single server"
        );
        assert!(f.restore_digest_match, "crash recovery lost state");
        assert!(
            f.retention_bounded(),
            "peak retained {} exceeds the retention cap {}",
            f.peak_retained,
            f.retained_cap
        );
        assert!(
            !f.early_query_complete,
            "a query below the retention floor was marked complete"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_experiment_matches_single_server_and_bounds_memory() {
        let f = &ExperimentCtx::new(21)
            .with_devices(96)
            .with_shards(8)
            .scale();
        assert!(f.digests_match, "sharded fleet diverged from the reference");
        assert!(f.restore_digest_match, "crash recovery lost state");
        assert!(
            f.retention_bounded(),
            "peak {} exceeds cap {}",
            f.peak_retained,
            f.retained_cap
        );
        assert!(f.compacted > 0, "retention never compacted anything");
        assert!(
            !f.early_query_complete,
            "query below the floor must be flagged"
        );
        assert!(f.delivered > 0 && f.offered >= f.delivered);
        assert!(
            f.mean_batch_size > 2.0,
            "coalescing too weak: {}",
            f.mean_batch_size
        );
        assert!(
            f.batched_energy_mj < f.always_on_energy_mj,
            "batched {} should beat always-on {}",
            f.batched_energy_mj,
            f.always_on_energy_mj
        );
        assert!(f.recovered_reports > 0, "the crash replayed nothing");
    }

    #[test]
    fn scale_experiment_is_thread_invariant() {
        let base = ExperimentCtx::new(22)
            .with_devices(48)
            .with_shards(4)
            .scale();
        let serial = exec::with_thread_override(1, || {
            ExperimentCtx::new(22)
                .with_devices(48)
                .with_shards(4)
                .scale()
        });
        assert_eq!(base, serial);
    }

    #[test]
    fn retention_cap_sums_heterogeneous_periods() {
        let window = SimDuration::from_secs(300);
        let uniform = vec![SimDuration::from_secs(60); 10];
        assert_eq!(retention_cap(window, uniform), 10 * 6);
        let mixed = [SimDuration::from_secs(60), SimDuration::from_secs(30)];
        assert_eq!(retention_cap(window, mixed), 6 + 11);
        assert_eq!(retention_cap(window, []), 0);
    }
}
