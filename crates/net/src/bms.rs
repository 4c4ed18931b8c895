//! The Building Management System server.
//!
//! Paper Section IV-B: "The server has to collect all information sent by
//! the user smart [devices] and to insert them in a database the association
//! between the device and the room where it is located. These information
//! are then used by a classification algorithm in order to get the occupancy
//! information."
//!
//! The real server was Flask + Tornado on a Raspberry Pi; here it is
//! [`ShardedBmsServer`]: `N >= 1` in-memory shards keyed by a
//! deterministic device hash, each behind its own [`parking_lot`] mutex
//! (the simulated benches post from several worker threads), with the
//! classifier injected as an [`OccupancyEstimator`] so this crate does not
//! depend on the ML crate. A single server is one shard.
//!
//! At fleet scale the store is kept honest by four mechanisms:
//!
//! * each shard keeps **one record per device** (current room,
//!   classification history, observation log, dedup window), with logs
//!   and histories **sorted by report time**, so every historical query is
//!   a `partition_point` binary search instead of a linear scan;
//! * an optional **retention window** ([`ShardedBmsServer::with_retention`])
//!   compacts each device's history against its own newest report, keeping
//!   memory bounded by `devices × window/period` whatever the fleet size —
//!   and, because the cutoff depends only on that device's stream, the
//!   compaction is identical however the fleet is sharded;
//! * every query is **one fold over the shards**, taking one shard lock at
//!   a time, so a fleet of `N` shards answers exactly what one shard fed
//!   the same reports answers —
//!   [`state_digest`](ShardedBmsServer::state_digest) makes that checkable
//!   bit for bit;
//! * queries that can be truncated by compaction have `*_checked` variants
//!   returning [`Windowed`] values that say whether the answer is complete.

use crate::archive::{
    fnv_fold, ArchiveConfig, ArchiveSink, ArchiveStats, Coverage, DeviceMark, FNV_OFFSET,
};
use crate::counting::{finalize_population, CountingConfig, PopulationEvidence, PopulationView};
use crate::shard::{device_hash, DeviceRecord, ServerState, Shard};
use crate::{DeviceId, ObservationReport, RecoveryReport};
use parking_lot::Mutex;
use roomsense_sim::{exec, SharedDisk, SimDuration, SimTime};
use roomsense_telemetry::{keys, Recorder, TelemetryEvent};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A room label as the server knows it (dense index; the floor plan gives it
/// meaning).
pub type RoomLabel = usize;

/// Something that can turn an observation report into a room label.
///
/// The production implementation wraps the trained SVM; tests use closures.
pub trait OccupancyEstimator: Send + Sync {
    /// Classifies a report into a room, or `None` when the report is
    /// unusable (no beacons).
    fn classify(&self, report: &ObservationReport) -> Option<RoomLabel>;
}

impl<F> OccupancyEstimator for F
where
    F: Fn(&ObservationReport) -> Option<RoomLabel> + Send + Sync,
{
    fn classify(&self, report: &ObservationReport) -> Option<RoomLabel> {
        self(report)
    }
}

/// Who the server believes is in one room, split by evidence freshness.
///
/// When the uplink is down the server keeps serving its last-known-good
/// table — but a consumer (the HVAC controller, a dashboard) must be able to
/// tell "2 people, reported seconds ago" from "2 people, last heard from
/// twenty minutes ago".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoomPresence {
    /// Devices whose last classification put them in this room.
    pub occupants: usize,
    /// How many of those devices reported within the freshness TTL.
    pub(crate) fresh: usize,
}

impl RoomPresence {
    /// True when the room's count rests entirely on expired evidence.
    pub(crate) fn is_stale(&self) -> bool {
        self.fresh == 0
    }
}

/// The occupancy table with per-room staleness, as of one instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OccupancyView {
    /// The instant the view was taken.
    pub(crate) at: SimTime,
    /// Reports older than this (relative to `at`) count as stale.
    pub(crate) ttl: SimDuration,
    /// Per-room presence. Rooms nobody was ever classified into are absent.
    pub rooms: BTreeMap<RoomLabel, RoomPresence>,
}

impl OccupancyView {
    /// The plain occupant counts, shaped like [`ShardedBmsServer::occupancy`].
    pub(crate) fn counts(&self) -> BTreeMap<RoomLabel, usize> {
        self.rooms
            .iter()
            .map(|(room, p)| (*room, p.occupants))
            .collect()
    }

    /// Rooms whose counts rest entirely on expired evidence.
    pub(crate) fn stale_rooms(&self) -> Vec<RoomLabel> {
        self.rooms
            .iter()
            .filter(|(_, p)| p.is_stale())
            .map(|(room, _)| *room)
            .collect()
    }
}

impl fmt::Display for OccupancyView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total: usize = self.rooms.values().map(|p| p.occupants).sum();
        write!(
            f,
            "{total} occupant(s) across {} room(s), {} stale",
            self.rooms.len(),
            self.stale_rooms().len()
        )
    }
}

/// A query answer that may have been truncated by retention compaction.
///
/// `complete` is true when every record the query could have touched was
/// still retained; when false, `floor` names the oldest instant the server
/// can still answer for exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Windowed<T> {
    /// The answer, computed over whatever is retained.
    pub value: T,
    /// True when no compacted record could have changed the answer.
    pub complete: bool,
    /// The retention low-watermark: queries at or after this instant are
    /// exact. `None` when nothing was ever compacted.
    pub floor: Option<SimTime>,
}

/// Server-side counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Reports accepted into the database.
    pub reports_stored: u64,
    /// Reports the estimator could not classify.
    pub reports_unclassified: u64,
    /// Retransmitted duplicates dropped by [`ShardedBmsServer::ingest`]'s
    /// `(device, seq)` dedup window.
    pub reports_duplicate: u64,
}

impl ServerStats {
    /// Field-wise sum, used to merge per-shard counters.
    pub(crate) fn merged(self, other: ServerStats) -> ServerStats {
        ServerStats {
            reports_stored: self.reports_stored + other.reports_stored,
            reports_unclassified: self.reports_unclassified + other.reports_unclassified,
            reports_duplicate: self.reports_duplicate + other.reports_duplicate,
        }
    }
}

/// The result of [`ShardedBmsServer::ingest`]ing one report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOutcome {
    /// First sighting of this `(device, seq)`: its effects were applied.
    Accepted {
        /// The room the report classified into, if any.
        room: Option<RoomLabel>,
    },
    /// An already-seen `(device, seq)` — a retransmitted duplicate. Dropped
    /// with no state change.
    Duplicate,
}

impl IngestOutcome {
    /// True when the report was dropped as a duplicate.
    pub fn is_duplicate(&self) -> bool {
        matches!(self, IngestOutcome::Duplicate)
    }
}

/// One shard's part of a [`ShardedBmsCheckpoint`]: its state, the archive
/// marks at flush time, and a digest over both and the retention floor.
#[derive(Debug, Clone)]
struct ShardSnapshot {
    state: ServerState,
    archive_marks: Option<BTreeMap<DeviceId, DeviceMark>>,
    digest: u64,
}

/// An opaque snapshot of a [`ShardedBmsServer`]'s full state and
/// configuration, produced by [`ShardedBmsServer::checkpoint`] and consumed
/// by [`ShardedBmsServer::restore`].
///
/// Each shard's snapshot embeds a digest of its own contents (its device
/// records, counters and retention floor and, when the shard has an
/// archive, its per-device archive marks at flush time), so restore can
/// prove no shard was corrupted in storage before trusting it.
#[derive(Debug, Clone)]
pub struct ShardedBmsCheckpoint {
    dedup_capacity: usize,
    retention: Option<SimDuration>,
    shards: Vec<ShardSnapshot>,
}

/// Why [`ShardedBmsServer::restore`] refused a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreError {
    /// The checkpoint's contents do not hash to its embedded digest: the
    /// snapshot was corrupted in storage. Restoring it would silently
    /// serve wrong answers, so the restore is refused instead.
    DigestMismatch {
        /// The digest the checkpoint claims.
        expected: u64,
        /// The digest its contents actually hash to.
        actual: u64,
    },
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::DigestMismatch { expected, actual } => write!(
                f,
                "checkpoint digest mismatch: embedded {expected:016x}, contents hash to {actual:016x}"
            ),
        }
    }
}

impl std::error::Error for RestoreError {}

/// The BMS server: observation database + occupancy table, split into
/// `N >= 1` shards keyed by a deterministic device hash (FNV-1a of the
/// device id — stable across runs, platforms, and thread counts), so each
/// shard owns a disjoint device set and ingest takes only its own lock.
///
/// # Examples
///
/// ```
/// use roomsense_net::{DeviceId, ObservationReport, ShardedBmsServer};
/// use roomsense_sim::SimTime;
/// use std::sync::Arc;
///
/// // A trivial estimator: everyone is in room 0. One shard.
/// let server = ShardedBmsServer::new(Arc::new(|_: &ObservationReport| Some(0)), 1);
/// let report = ObservationReport {
///     device: DeviceId::new(7),
///     seq: 0,
///     at: SimTime::from_secs(2),
///     beacons: vec![],
/// };
/// server.post_observation(report);
/// assert_eq!(server.occupancy().get(&0).copied(), Some(1));
/// ```
pub struct ShardedBmsServer {
    estimator: Arc<dyn OccupancyEstimator>,
    dedup_capacity: usize,
    retention: Option<SimDuration>,
    shards: Vec<Shard>,
}

/// Default per-device dedup window size for [`ShardedBmsServer::ingest`].
const DEFAULT_DEDUP_CAPACITY: usize = 128;

impl ShardedBmsServer {
    /// Creates `shard_count` empty shards behind one estimator. Retention
    /// is unbounded until [`with_retention`](Self::with_retention) sets a
    /// window.
    ///
    /// # Panics
    ///
    /// Panics if `shard_count` is zero.
    pub fn new(estimator: Arc<dyn OccupancyEstimator>, shard_count: usize) -> Self {
        assert!(shard_count > 0, "shard count must be non-zero");
        ShardedBmsServer {
            estimator,
            dedup_capacity: DEFAULT_DEDUP_CAPACITY,
            retention: None,
            shards: (0..shard_count)
                .map(|_| Shard::new(ServerState::default(), None))
                .collect(),
        }
    }

    /// Overrides the per-device dedup window size (default 128).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_dedup_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "dedup capacity must be non-zero");
        self.dedup_capacity = capacity;
        self
    }

    /// Bounds per-device memory: each device's log and assignment history
    /// are compacted to `window` behind that device's newest report (the
    /// history keeps one carried entry so "current room" queries survive a
    /// silence longer than the window). Queries entirely inside the window
    /// are exact; the `*_checked` variants say when an answer might have
    /// lost compacted records.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn with_retention(mut self, window: SimDuration) -> Self {
        assert!(!window.is_zero(), "retention window must be non-zero");
        self.retention = Some(window);
        self
    }

    /// Attaches one durable archive per shard, namespaced under the config
    /// prefix as `shard-NNNN/` on the shared disk: from now on retention
    /// compaction *spills* the classification history it drops instead of
    /// losing it, and historical occupancy below the retention floor
    /// answers exactly from the archive (see
    /// [`historical_floor`](Self::historical_floor)). Compacted reports are
    /// not archived: [`reports_between`](Self::reports_between) and
    /// [`reports_for`](Self::reports_for) answer the retained window only,
    /// even when the archives are healed. Device sets are disjoint across
    /// shards, so the union of per-shard archive marks is the same whatever
    /// the shard count.
    pub fn with_archives(mut self, disk: SharedDisk, config: ArchiveConfig) -> Self {
        for (i, shard) in self.shards.iter_mut().enumerate() {
            shard.archive = Some(Mutex::new(ArchiveSink::new(
                disk.clone(),
                config.for_shard(i),
            )));
        }
        self
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a device's reports land on.
    pub fn shard_of(&self, device: DeviceId) -> usize {
        (device_hash(device) % self.shards.len() as u64) as usize
    }

    fn shard_for(&self, device: DeviceId) -> &Shard {
        &self.shards[self.shard_of(device)]
    }

    /// The per-device dedup window size.
    pub fn dedup_capacity(&self) -> usize {
        self.dedup_capacity
    }

    /// The REST endpoint: stores a report and updates the device's room.
    ///
    /// Returns the room the device was classified into, if any.
    pub fn post_observation(&self, report: ObservationReport) -> Option<RoomLabel> {
        match self
            .shard_for(report.device)
            .ingest(report, &*self.estimator, None, self.retention)
        {
            IngestOutcome::Accepted { room } => room,
            IngestOutcome::Duplicate => unreachable!("no dedup window, so no duplicates"),
        }
    }

    /// The reliable ingestion endpoint: idempotent and reorder-tolerant.
    ///
    /// Where [`post_observation`](Self::post_observation) trusts its caller,
    /// `ingest` assumes an **at-least-once** uplink: a retransmitted
    /// duplicate (same `(device, seq)` inside the bounded dedup window) is
    /// dropped with no state change and is never classified, a straggler
    /// that arrives late is applied but can never overwrite a newer
    /// classification (last writer wins on *report* time, not arrival
    /// time), and the per-device assignment history is kept in report-time
    /// order. At-least-once delivery composed with this endpoint gives
    /// effectively exactly-once ingestion *effects*.
    pub fn ingest(&self, report: ObservationReport) -> IngestOutcome {
        self.shard_for(report.device).ingest(
            report,
            &*self.estimator,
            Some(self.dedup_capacity),
            self.retention,
        )
    }

    /// Bulk-ingests a delivery stream: reports are partitioned by shard
    /// (preserving their relative order — per-device order is what the
    /// LWW and dedup semantics care about, and a device never spans
    /// shards), then every shard ingests its partition in parallel via the
    /// deterministic executor. Returns `(accepted, duplicates)`.
    pub fn ingest_all(&self, reports: Vec<ObservationReport>) -> (u64, u64) {
        let mut partitions: Vec<Vec<ObservationReport>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();
        for report in reports {
            partitions[self.shard_of(report.device)].push(report);
        }
        // Each partition sits behind its own (never contended) lock so the
        // one worker that takes it can move its reports out.
        let partitions: Vec<Mutex<Vec<ObservationReport>>> =
            partitions.into_iter().map(Mutex::new).collect();
        let counts = exec::par_map_indexed(&partitions, |_, partition| {
            let mut accepted = 0u64;
            let mut duplicates = 0u64;
            for report in std::mem::take(&mut *partition.lock()) {
                match self.ingest(report) {
                    IngestOutcome::Accepted { .. } => accepted += 1,
                    IngestOutcome::Duplicate => duplicates += 1,
                }
            }
            (accepted, duplicates)
        });
        counts
            .into_iter()
            .fold((0, 0), |(a, d), (pa, pd)| (a + pa, d + pd))
    }

    /// Folds `f` over every device record, shard by shard, holding one
    /// shard's lock at a time; `f` also gets the shard's index.
    fn fold_records<T>(&self, mut acc: T, mut f: impl FnMut(&mut T, usize, &DeviceRecord)) -> T {
        for (index, shard) in self.shards.iter().enumerate() {
            for record in shard.state.lock().devices.values() {
                f(&mut acc, index, record);
            }
        }
        acc
    }

    /// Reads one shard-level value from every shard, in shard order.
    fn each_shard<'a, T: 'a>(
        &'a self,
        mut f: impl FnMut(&ServerState) -> T + 'a,
    ) -> impl Iterator<Item = T> + 'a {
        self.shards.iter().map(move |shard| f(&shard.state.lock()))
    }

    /// Reads one device's record on its shard.
    fn with_record<T>(&self, device: DeviceId, f: impl FnOnce(&DeviceRecord) -> T) -> Option<T> {
        self.shard_for(device)
            .state
            .lock()
            .devices
            .get(&device)
            .map(f)
    }

    /// The occupancy table: how many devices are currently in each room.
    pub fn occupancy(&self) -> BTreeMap<RoomLabel, usize> {
        self.occupancy_view(SimTime::ZERO, SimDuration::ZERO)
            .counts()
    }

    /// The room one device was last classified into.
    pub fn room_of(&self, device: DeviceId) -> Option<RoomLabel> {
        self.with_record(device, |r| r.room.map(|(_, _, room)| room))
            .flatten()
    }

    /// The occupancy table with explicit staleness: every device still counts
    /// in its last-known room (graceful degradation — an outage must not make
    /// the building look empty), but devices whose last report is older than
    /// `ttl` at `now` no longer count as *fresh*, and a room with no fresh
    /// contributor is flagged stale.
    pub fn occupancy_view(&self, now: SimTime, ttl: SimDuration) -> OccupancyView {
        self.occupancy_view_marking(now, ttl, |_| false)
    }

    /// [`occupancy_view`](Self::occupancy_view) with the devices of every
    /// shard for which `lagging` holds counted but never fresh: the
    /// ingestion tier's answer while those shards have reports queued.
    pub(crate) fn occupancy_view_marking(
        &self,
        now: SimTime,
        ttl: SimDuration,
        lagging: impl Fn(usize) -> bool,
    ) -> OccupancyView {
        let rooms = self.fold_records(BTreeMap::new(), |rooms, shard, record| {
            if let Some((last_at, _, room)) = record.room {
                let entry: &mut RoomPresence = rooms.entry(room).or_default();
                entry.occupants += 1;
                if !lagging(shard) && now.saturating_since(last_at) <= ttl {
                    entry.fresh += 1;
                }
            }
        });
        OccupancyView {
            at: now,
            ttl,
            rooms,
        }
    }

    /// The age of the *oldest* device record at `now` — how far behind
    /// reality the whole table could be. `None` when no device has ever
    /// been classified.
    pub fn staleness(&self, now: SimTime) -> Option<SimDuration> {
        self.fold_records(None, |worst, _, record| {
            if let Some((last_at, _, _)) = record.room {
                *worst = (*worst).max(Some(now.saturating_since(last_at)));
            }
        })
    }

    /// The occupancy table as it stood at time `at`: each device counts in
    /// the last room it was classified into at or before `at`, found by
    /// binary search on the sorted per-device history.
    pub fn occupancy_at(&self, at: SimTime) -> BTreeMap<RoomLabel, usize> {
        self.occupancy_view_at(at, SimDuration::ZERO).counts()
    }

    /// The historical analogue of [`occupancy_view`](Self::occupancy_view):
    /// the occupancy table as it stood at `at`, with the **same TTL
    /// semantics** — a device whose last classification (at or before `at`)
    /// is older than `ttl` still counts in its room but not as fresh. At
    /// `at = now` this agrees exactly with `occupancy_view`, so live and
    /// historical consumers share one definition of a silent device.
    pub fn occupancy_view_at(&self, at: SimTime, ttl: SimDuration) -> OccupancyView {
        let rooms = self.fold_records(BTreeMap::new(), |rooms, _, record| {
            let last = record
                .history
                .as_ref()
                .and_then(|h| h.last_at_or_before(at));
            if let Some((t, _, room)) = last {
                let entry: &mut RoomPresence = rooms.entry(*room).or_default();
                entry.occupants += 1;
                if at.saturating_since(*t) <= ttl {
                    entry.fresh += 1;
                }
            }
        });
        OccupancyView { at, ttl, rooms }
    }

    /// [`occupancy_at`](Self::occupancy_at) with an explicit completeness
    /// flag, merged with the archive tier when one is attached.
    ///
    /// Without an archive the answer is exact iff `at` is at or after the
    /// retention floor. With **healed** archives the compacted history is
    /// still reachable, so the merged answer is exact at *every* instant
    /// and `complete` is always true; with a lossy archive (recovery
    /// admitted missing records) answers below the floor merge whatever
    /// survived and say `complete: false` — degraded, never silently
    /// wrong.
    pub fn occupancy_at_checked(&self, at: SimTime) -> Windowed<BTreeMap<RoomLabel, usize>> {
        let mut value = BTreeMap::new();
        for shard in &self.shards {
            let mut best: BTreeMap<DeviceId, (SimTime, u64, RoomLabel)> = shard
                .state
                .lock()
                .devices
                .iter()
                .filter_map(|(device, record)| {
                    let last = record.history.as_ref()?.last_at_or_before(at)?;
                    Some((*device, *last))
                })
                .collect();
            if let Some(archived) = shard.read_archive(|sink| sink.last_assignments_at(at)) {
                for (device, (t, s, room)) in archived {
                    match best.get(&device) {
                        Some(live) if (live.0, live.1) >= (t, s) => {}
                        _ => {
                            best.insert(device, (t, s, room));
                        }
                    }
                }
            }
            for (_, _, room) in best.into_values() {
                *value.entry(room).or_insert(0) += 1;
            }
        }
        // Completeness is judged *after* the archive reads: a read audits
        // the segments it decodes and may demote its sink to lossy, and
        // this very answer must already say incomplete if it did.
        let floor = self.historical_floor();
        Windowed {
            value,
            complete: floor.is_none_or(|f| at >= f),
            floor,
        }
    }

    /// The oldest instant historical occupancy answers **exactly**: `None`
    /// when every shard can answer exactly at any instant (retention is
    /// unbounded, or healed archives hold the whole classification history
    /// compaction spilled), otherwise the latest retention floor among
    /// shards whose history is bounded — below it answers are flagged
    /// incomplete. Report queries ([`reports_between`](Self::reports_between),
    /// [`reports_for`](Self::reports_for)) never read the archive, so this
    /// floor says nothing about them.
    pub fn historical_floor(&self) -> Option<SimTime> {
        self.shards.iter().filter_map(Shard::historical_floor).max()
    }

    /// The retention low-watermark across every device: queries at or after
    /// this instant see every relevant record; earlier ones may be missing
    /// compacted history. `None` while nothing was ever compacted (always,
    /// with unbounded retention).
    pub fn retention_floor(&self) -> Option<SimTime> {
        self.each_shard(|state| state.floor).max().flatten()
    }

    /// The per-room population table at `now` (see the
    /// `counting` module).
    ///
    /// Each room's evidence over the window `[now - window, now]` — device
    /// census by last-known room, the subset with in-window reports, report
    /// counts, and the distance-sum — is finalized into a
    /// `PopulationEstimate`: estimated
    /// headcount, confidence interval, and evidence staleness. The evidence
    /// is integer-valued, so the fold is bit-for-bit the same whatever the
    /// shard count. Wrapped in [`Windowed`]: incomplete when retention
    /// truncated part of the evidence window (the counting path reads the
    /// live tier only; the answer is flagged, never silently wrong).
    pub fn population_view(
        &self,
        now: SimTime,
        config: &CountingConfig,
    ) -> Windowed<PopulationView> {
        let from = SimTime::from_millis(now.as_millis().saturating_sub(config.window.as_millis()));
        // `Retained::window` is half-open; bump the upper bound one tick so
        // evidence stamped exactly `now` counts.
        let upper = SimTime::from_millis(now.as_millis().saturating_add(1));
        let (rooms, floor) = self.fold_records(
            (BTreeMap::<RoomLabel, PopulationEvidence>::new(), None),
            |(rooms, floor), _, record| {
                *floor = (*floor).max(record.log.floor);
                let Some((last_at, _, room)) = record.room else {
                    return;
                };
                let entry = rooms.entry(room).or_default();
                entry.devices += 1;
                entry.newest = Some(entry.newest.map_or(last_at, |n| n.max(last_at)));
                let mut in_window = 0u64;
                for report in record.log.window(from, upper) {
                    let nearest = report
                        .beacons
                        .iter()
                        .map(|b| b.distance_m)
                        .fold(f64::INFINITY, f64::min);
                    if nearest.is_finite() {
                        entry.add_report(nearest);
                    } else {
                        entry.reports += 1;
                    }
                    in_window += 1;
                }
                if in_window > 0 {
                    entry.observed += 1;
                }
            },
        );
        let view = finalize_population(now, config, &rooms);
        // Shard 0's recorder, which every checkpoint carries, counts each
        // answer once whatever the shard count.
        {
            let mut state = self.shards[0].state.lock();
            state.telemetry.incr(keys::BMS_COUNTING_QUERIES);
            state
                .telemetry
                .set_gauge(keys::BMS_COUNTING_OBSERVED, view.observed_total() as f64);
            state
                .telemetry
                .set_gauge(keys::BMS_COUNTING_ESTIMATED, view.estimated_total());
        }
        Windowed {
            value: view,
            complete: floor.is_none_or(|f| from >= f),
            floor,
        }
    }

    /// Server counters, summed over the shards.
    pub fn stats(&self) -> ServerStats {
        self.each_shard(|state| state.stats)
            .fold(ServerStats::default(), ServerStats::merged)
    }

    /// Number of retained reports (equal to the number ever stored while
    /// retention is unbounded).
    pub fn report_count(&self) -> usize {
        self.fold_records(0, |n, _, record| *n += record.log.len())
    }

    /// Total exact dedup entries held across all devices — bounded by
    /// `devices x dedup_capacity` whatever the traffic does.
    pub fn dedup_entries(&self) -> usize {
        self.fold_records(0, |n, _, record| {
            *n += record.dedup.as_ref().map_or(0, |window| window.len());
        })
    }

    /// Entries (reports + assignments) dropped by retention compaction so
    /// far. Always zero with unbounded retention.
    pub fn compacted_entries(&self) -> u64 {
        self.fold_records(0, |n, _, record| {
            *n += record.log.compacted + record.history.as_ref().map_or(0, |h| h.compacted);
        })
    }

    /// The archive sinks' counters summed over the shards; `None` when no
    /// archive is attached.
    pub fn archive_stats(&self) -> Option<ArchiveStats> {
        self.shards
            .iter()
            .filter_map(|shard| Some(shard.archive.as_ref()?.lock().stats()))
            .reduce(ArchiveStats::merged)
    }

    /// All retained reports whose timestamps fall in `[from, to)`, sorted
    /// by `(time, device, seq)` — the database's time-range query. Each
    /// device's contribution is located by binary search; only the rows in
    /// the window are cloned, and only while the shard's lock is held.
    pub fn reports_between(&self, from: SimTime, to: SimTime) -> Vec<ObservationReport> {
        let mut rows = self.fold_records(Vec::new(), |rows, _, record| {
            rows.extend(record.log.window(from, to).cloned());
        });
        rows.sort_by_key(|r| (r.at, r.device, r.seq));
        rows
    }

    /// All retained reports from one device, in report-time order.
    pub fn reports_for(&self, device: DeviceId) -> Vec<ObservationReport> {
        self.with_record(device, |r| r.log.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// The classified `(time, room)` history of one device, in report-time
    /// order — feed it to
    /// [`MovementAnalytics`](crate::MovementAnalytics::from_history) for
    /// the paper's tracking use-case.
    pub fn assignment_history(&self, device: DeviceId) -> Vec<(SimTime, RoomLabel)> {
        self.with_record(device, |r| {
            r.history
                .iter()
                .flat_map(|h| h.iter())
                .map(|(t, _, room)| (*t, *room))
                .collect()
        })
        .unwrap_or_default()
    }

    /// One recorder holding every shard's counters and journal, merged in
    /// shard order (deterministic whatever the ingest parallelism, because
    /// each shard's recorder only ever sees its own lock-ordered stream).
    pub fn telemetry_snapshot(&self) -> Recorder {
        self.each_shard(|state| state.telemetry.clone()).fold(
            Recorder::new(),
            |mut merged, shard| {
                merged.merge_child(shard);
                merged
            },
        )
    }

    /// A deterministic FNV-1a digest over the canonical state dump (logs,
    /// occupancy table, histories, dedup windows, archive marks, counters).
    /// Shards own disjoint device sets, so their dumps union without
    /// conflict: servers fed the same per-device streams produce the
    /// **same digest** whatever their shard counts.
    pub fn state_digest(&self) -> u64 {
        let mut dumps = BTreeMap::new();
        let mut stats = ServerStats::default();
        for shard in &self.shards {
            let (shard_dumps, shard_stats) = shard.dump();
            dumps.extend(shard_dumps);
            stats = stats.merged(shard_stats);
        }
        digest_state(&dumps, stats)
    }

    /// Snapshots every shard (observation logs, occupancy table, assignment
    /// histories, dedup windows, counters) and the configuration for crash
    /// recovery.
    ///
    /// Because the dedup windows are part of the snapshot, a restored
    /// server can safely re-[`ingest`](Self::ingest) *any* suffix of the
    /// delivery journal that covers the gap since the snapshot — duplicates
    /// from overlap are dropped, so replay converges to exactly the
    /// no-crash state.
    pub fn checkpoint(&self) -> ShardedBmsCheckpoint {
        let shards = self
            .shards
            .iter()
            .map(|shard| {
                let mut state = shard.state.lock();
                let reports = state.retained_reports() as u64;
                state.telemetry.incr(keys::BMS_CHECKPOINTS);
                state
                    .telemetry
                    .record_event(TelemetryEvent::Checkpoint { reports });
                // Flush the archive inside the checkpoint: the durable log
                // must never trail the snapshot that embeds its marks.
                let archive_marks = shard.archive.as_ref().map(|archive| {
                    let mut sink = archive.lock();
                    sink.flush();
                    sink.marks()
                });
                ShardSnapshot {
                    digest: snapshot_digest(&state, archive_marks.as_ref()),
                    state: state.clone(),
                    archive_marks,
                }
            })
            .collect();
        ShardedBmsCheckpoint {
            dedup_capacity: self.dedup_capacity,
            retention: self.retention,
            shards,
        }
    }

    /// Rebuilds a server from a [`checkpoint`](Self::checkpoint) and a
    /// (fresh) estimator, after proving every shard's contents still hash
    /// to its embedded digest. Shard count and configuration (dedup
    /// capacity, retention window) come from the snapshot.
    ///
    /// # Errors
    ///
    /// `RestoreError::DigestMismatch` when any shard's snapshot was
    /// corrupted in storage — restoring it would serve silently wrong
    /// state, so one tampered shard refuses the whole restore.
    pub fn restore(
        estimator: Arc<dyn OccupancyEstimator>,
        checkpoint: ShardedBmsCheckpoint,
    ) -> Result<Self, RestoreError> {
        Self::rebuild(estimator, checkpoint, |_, _| None)
    }

    /// Crash recovery for an archived server: scans every shard's segment
    /// log on `disk` (truncating torn tails at the first corrupt record),
    /// verifies each surviving log against its shard snapshot's archive
    /// marks, marks it healed or lossy accordingly, and rebuilds the server
    /// with the recovered sinks attached. Returns the merged scan report
    /// and coverage verdict; when coverage fails for any shard that shard
    /// degrades to lossy mode — below-floor answers are flagged incomplete,
    /// never silently wrong — and the caller can escalate to a full journal
    /// rebuild.
    pub fn restore_with_archives(
        estimator: Arc<dyn OccupancyEstimator>,
        checkpoint: ShardedBmsCheckpoint,
        disk: SharedDisk,
        config: ArchiveConfig,
    ) -> Result<(Self, RecoveryReport, Coverage), RestoreError> {
        let mut recovery = RecoveryReport::default();
        let mut coverage = Coverage {
            covered: true,
            ..Coverage::default()
        };
        let server = Self::rebuild(estimator, checkpoint, |i, marks| {
            let (mut sink, report) = ArchiveSink::recover(disk.clone(), config.for_shard(i));
            recovery = recovery.merged(report);
            let shard_coverage = sink.verify_covers(marks.unwrap_or(&BTreeMap::new()));
            if shard_coverage.covered {
                sink.mark_healed();
            } else {
                sink.mark_lossy();
            }
            coverage = coverage.merged(shard_coverage);
            Some((sink, shard_coverage.missing_records))
        })?;
        Ok((server, recovery, coverage))
    }

    /// The one restore body: per shard, asks `archive_for` for a recovered
    /// sink (and the records it is missing), checks the shard's digest,
    /// and attaches the sink with its recovery counted in telemetry.
    fn rebuild(
        estimator: Arc<dyn OccupancyEstimator>,
        checkpoint: ShardedBmsCheckpoint,
        mut archive_for: impl FnMut(
            usize,
            Option<&BTreeMap<DeviceId, DeviceMark>>,
        ) -> Option<(ArchiveSink, u64)>,
    ) -> Result<Self, RestoreError> {
        let mut shards = Vec::with_capacity(checkpoint.shards.len());
        for (i, snapshot) in checkpoint.shards.into_iter().enumerate() {
            let archive = archive_for(i, snapshot.archive_marks.as_ref());
            let actual = snapshot_digest(&snapshot.state, snapshot.archive_marks.as_ref());
            if actual != snapshot.digest {
                return Err(RestoreError::DigestMismatch {
                    expected: snapshot.digest,
                    actual,
                });
            }
            let mut state = snapshot.state;
            let sink = archive.map(|(sink, missing)| {
                state.telemetry.add(keys::BMS_ARCHIVE_RECOVERIES, 1);
                if missing > 0 {
                    state
                        .telemetry
                        .add(keys::BMS_ARCHIVE_TRUNCATED_RECORDS, missing);
                }
                sink
            });
            shards.push(Shard::new(state, sink));
        }
        Ok(ShardedBmsServer {
            estimator,
            dedup_capacity: checkpoint.dedup_capacity,
            retention: checkpoint.retention,
            shards,
        })
    }
}

/// FNV-1a over the canonical per-device dumps (in `DeviceId` order) and the
/// merged counters: the state digest, and the start of each shard
/// snapshot's digest.
fn digest_state(dumps: &BTreeMap<DeviceId, String>, stats: ServerStats) -> u64 {
    let mut hash = FNV_OFFSET;
    for (device, dump) in dumps {
        fnv_fold(&mut hash, &device.value().to_le_bytes());
        fnv_fold(&mut hash, dump.as_bytes());
    }
    fnv_fold(&mut hash, format!("{stats:?}").as_bytes());
    hash
}

/// A shard snapshot's digest: [`digest_state`] over the shard's dump (with
/// its archive marks), continued over its retention floor, which decides
/// whether a historical answer is complete.
fn snapshot_digest(state: &ServerState, marks: Option<&BTreeMap<DeviceId, DeviceMark>>) -> u64 {
    let (dumps, stats) = state.dump(marks);
    let mut hash = digest_state(&dumps, stats);
    fnv_fold(&mut hash, format!("|floor:{:?}", state.floor).as_bytes());
    hash
}

impl fmt::Debug for ShardedBmsServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedBmsServer")
            .field("shards", &self.shards.len())
            .field("reports", &self.report_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SightedBeacon;
    use roomsense_ibeacon::{BeaconIdentity, Major, Minor, ProximityUuid};

    fn report(device: u32, at_secs: u64, minor: u16) -> ObservationReport {
        ObservationReport {
            device: DeviceId::new(device),
            seq: at_secs,
            at: SimTime::from_secs(at_secs),
            beacons: vec![SightedBeacon {
                identity: BeaconIdentity {
                    uuid: ProximityUuid::example(),
                    major: Major::new(1),
                    minor: Minor::new(minor),
                },
                distance_m: 1.0,
            }],
        }
    }

    /// Estimator: room = minor of the first beacon.
    fn minor_estimator() -> Arc<dyn OccupancyEstimator> {
        Arc::new(|r: &ObservationReport| {
            r.beacons.first().map(|b| b.identity.minor.value() as usize)
        })
    }

    /// A single server: one shard.
    /// Retained reports across every shard of a checkpoint.
    fn retained(snapshot: &ShardedBmsCheckpoint) -> usize {
        snapshot
            .shards
            .iter()
            .map(|s| s.state.retained_reports())
            .sum()
    }

    fn server() -> ShardedBmsServer {
        ShardedBmsServer::new(minor_estimator(), 1)
    }

    fn stream() -> Vec<ObservationReport> {
        (0..200u64)
            .map(|i| report((i % 23) as u32, i * 7, (i % 5) as u16))
            .collect()
    }

    #[test]
    fn occupancy_counts_latest_room_per_device() {
        let server = server();
        server.post_observation(report(1, 1, 0));
        server.post_observation(report(2, 1, 0));
        server.post_observation(report(1, 2, 3)); // device 1 moves
        let occ = server.occupancy();
        assert_eq!(occ.get(&0).copied(), Some(1));
        assert_eq!(occ.get(&3).copied(), Some(1));
    }

    #[test]
    fn out_of_order_reports_do_not_regress() {
        let server = server();
        server.post_observation(report(1, 10, 4));
        server.post_observation(report(1, 5, 0)); // stale
        assert_eq!(server.room_of(DeviceId::new(1)), Some(4));
    }

    #[test]
    fn unclassifiable_reports_are_counted() {
        let server = server();
        server.post_observation(ObservationReport {
            device: DeviceId::new(1),
            seq: 0,
            at: SimTime::from_secs(1),
            beacons: vec![],
        });
        let stats = server.stats();
        assert_eq!(stats.reports_stored, 1);
        assert_eq!(stats.reports_unclassified, 1);
        assert!(server.occupancy().is_empty());
    }

    #[test]
    fn log_keeps_everything() {
        let server = server();
        for i in 0..5 {
            server.post_observation(report(1, i, 0));
        }
        server.post_observation(report(2, 9, 1));
        assert_eq!(server.report_count(), 6);
        assert_eq!(server.reports_for(DeviceId::new(1)).len(), 5);
        assert_eq!(server.retention_floor(), None);
        assert_eq!(server.compacted_entries(), 0);
    }

    #[test]
    fn occupancy_at_reconstructs_the_past() {
        let server = server();
        server.post_observation(report(1, 10, 0));
        server.post_observation(report(1, 30, 2));
        server.post_observation(report(2, 20, 0));
        // Before anything: empty.
        assert!(server.occupancy_at(SimTime::from_secs(5)).is_empty());
        // At t=25: both devices in room 0.
        assert_eq!(
            server.occupancy_at(SimTime::from_secs(25)).get(&0),
            Some(&2)
        );
        // At t=40: device 1 moved to room 2.
        let table = server.occupancy_at(SimTime::from_secs(40));
        assert_eq!(table.get(&0), Some(&1));
        assert_eq!(table.get(&2), Some(&1));
    }

    #[test]
    fn occupancy_view_at_agrees_with_the_live_view_and_enforces_ttl() {
        let server = server();
        server.post_observation(report(1, 10, 0)); // goes silent
        server.post_observation(report(2, 95, 2)); // fresh at t=100
        let now = SimTime::from_secs(100);
        let ttl = SimDuration::from_secs(30);
        // At `now`, the historical view and the live view agree exactly.
        assert_eq!(
            server.occupancy_view_at(now, ttl),
            server.occupancy_view(now, ttl)
        );
        // Historically, the TTL applies relative to the query time: at
        // t=30, device 1's t=10 report is fresh and device 2 is absent.
        let past = server.occupancy_view_at(SimTime::from_secs(30), ttl);
        assert_eq!(
            past.rooms[&0],
            RoomPresence {
                occupants: 1,
                fresh: 1
            }
        );
        assert!(!past.rooms.contains_key(&2));
        // At t=70 device 1 still counts (graceful degradation) but stale.
        let mid = server.occupancy_view_at(SimTime::from_secs(70), ttl);
        assert!(mid.rooms[&0].is_stale());
    }

    #[test]
    fn reports_between_is_half_open() {
        let server = server();
        for t in [10u64, 20, 30] {
            server.post_observation(report(1, t, 0));
        }
        let range = server.reports_between(SimTime::from_secs(10), SimTime::from_secs(30));
        assert_eq!(range.len(), 2);
        assert!(server
            .reports_between(SimTime::from_secs(31), SimTime::from_secs(99))
            .is_empty());
    }

    #[test]
    fn reports_between_merges_devices_in_time_order() {
        let server = ShardedBmsServer::new(minor_estimator(), 3);
        server.post_observation(report(2, 20, 0));
        server.post_observation(report(1, 10, 0));
        server.post_observation(report(1, 30, 1));
        server.post_observation(report(3, 20, 2));
        let rows = server.reports_between(SimTime::ZERO, SimTime::from_secs(100));
        let keys: Vec<(u64, u32)> = rows
            .iter()
            .map(|r| (r.at.as_millis(), r.device.value()))
            .collect();
        assert_eq!(
            keys,
            vec![(10_000, 1), (20_000, 2), (20_000, 3), (30_000, 1)]
        );
    }

    #[test]
    fn retention_bounds_memory_and_flags_truncated_queries() {
        let window = SimDuration::from_secs(60);
        let server = server().with_retention(window);
        let oracle = self::server(); // unbounded memory
        for i in 0..100u64 {
            server.ingest(report(1, i * 10, (i % 3) as u16));
            oracle.ingest(report(1, i * 10, (i % 3) as u16));
        }
        // 60 s window over 10 s spacing: at most 7 reports retained.
        assert!(
            server.report_count() <= 7,
            "retained {}",
            server.report_count()
        );
        assert!(server.compacted_entries() > 0);
        let floor = server.retention_floor().expect("compaction happened");
        assert_eq!(floor, SimTime::from_secs(990 - 60));
        // Inside the window the reconstruction is exact and says so.
        let recent = server.occupancy_at_checked(SimTime::from_secs(985));
        assert!(recent.complete);
        assert_eq!(recent.value, oracle.occupancy_at(SimTime::from_secs(985)));
        // Outside the window the answer is explicit about truncation.
        let ancient = server.occupancy_at_checked(SimTime::from_secs(100));
        assert!(!ancient.complete);
        assert_eq!(ancient.floor, Some(floor));
        // The compactor announced itself in telemetry.
        let telemetry = server.telemetry_snapshot();
        assert_eq!(
            telemetry.counter(keys::BMS_RETENTION_COMPACTED),
            server.compacted_entries()
        );
    }

    #[test]
    fn retention_carries_the_last_assignment_for_silent_devices() {
        let server = server().with_retention(SimDuration::from_secs(60));
        // Device 1 reports once, then only device 1's *own* stream matters:
        // a long silence must not erase its last-known room.
        server.ingest(report(1, 10, 4));
        for i in 0..50u64 {
            server.ingest(report(1, 1000 + i * 10, 2));
        }
        // The t=10 report is far outside the window, but the carried entry
        // kept "current room" queries correct the whole way.
        assert_eq!(server.room_of(DeviceId::new(1)), Some(2));
        assert_eq!(
            server.occupancy_at(SimTime::from_secs(5000)).get(&2),
            Some(&1)
        );
        // And at the window edge the carried entry still answers.
        let floor = server.retention_floor().expect("compacted");
        assert_eq!(server.occupancy_at(floor).len(), 1);
    }

    #[test]
    fn retention_applies_per_shard() {
        let fleet =
            ShardedBmsServer::new(minor_estimator(), 4).with_retention(SimDuration::from_secs(100));
        for i in 0..300u64 {
            fleet.ingest(report((i % 7) as u32, i * 10, 0));
        }
        // 100 s window / 70 s per-device period: at most a couple retained
        // per device.
        assert!(
            fleet.report_count() <= 7 * 3,
            "retained {}",
            fleet.report_count()
        );
        assert!(fleet.compacted_entries() > 0);
        assert!(fleet.retention_floor().is_some());
        let ancient = fleet.occupancy_at_checked(SimTime::from_secs(10));
        assert!(!ancient.complete);
    }

    #[test]
    #[should_panic(expected = "retention window must be non-zero")]
    fn zero_retention_window_panics() {
        let _ = server().with_retention(SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "shard count must be non-zero")]
    fn zero_shards_panics() {
        let _ = ShardedBmsServer::new(minor_estimator(), 0);
    }

    #[test]
    fn sharding_is_deterministic_and_covers_every_shard() {
        let fleet = ShardedBmsServer::new(minor_estimator(), 8);
        let mut hit = [false; 8];
        for d in 0..1000u32 {
            let shard = fleet.shard_of(DeviceId::new(d));
            assert_eq!(shard, fleet.shard_of(DeviceId::new(d)), "stable key");
            hit[shard] = true;
        }
        assert!(hit.iter().all(|h| *h), "1000 devices reach all 8 shards");
    }

    #[test]
    fn assignment_history_feeds_analytics() {
        let server = server();
        server.post_observation(report(1, 0, 0));
        server.post_observation(report(1, 10, 0));
        server.post_observation(report(1, 20, 2));
        let history = server.assignment_history(DeviceId::new(1));
        assert_eq!(history.len(), 3);
        let analytics = crate::MovementAnalytics::from_history(&history);
        assert_eq!(analytics.transition_count(), 1);
        assert_eq!(
            analytics.dwell(0),
            roomsense_sim::SimDuration::from_secs(20)
        );
        // Unknown devices have empty histories.
        assert!(server.assignment_history(DeviceId::new(9)).is_empty());
    }

    #[test]
    fn occupancy_view_flags_rooms_with_only_expired_evidence() {
        let server = server();
        server.post_observation(report(1, 10, 0)); // room 0, old
        server.post_observation(report(2, 95, 2)); // room 2, fresh
        let view = server.occupancy_view(SimTime::from_secs(100), SimDuration::from_secs(30));
        // Both devices still count — the outage must not empty the building.
        assert_eq!(view.counts().get(&0), Some(&1));
        assert_eq!(view.counts().get(&2), Some(&1));
        // But room 0's evidence is 90 s old against a 30 s TTL.
        assert!(view.rooms[&0].is_stale());
        assert!(!view.rooms[&2].is_stale());
        assert_eq!(view.stale_rooms(), vec![0]);
        assert!(!view.stale_rooms().is_empty());
        assert_eq!(
            server.staleness(SimTime::from_secs(100)),
            Some(SimDuration::from_secs(90))
        );
    }

    #[test]
    fn occupancy_view_mixed_evidence_keeps_the_room_fresh() {
        let server = server();
        server.post_observation(report(1, 10, 0)); // stale contributor
        server.post_observation(report(2, 99, 0)); // fresh contributor
        let view = server.occupancy_view(SimTime::from_secs(100), SimDuration::from_secs(30));
        let presence = view.rooms[&0];
        assert_eq!(presence.occupants, 2);
        assert_eq!(presence.fresh, 1);
        assert!(!presence.is_stale());
        assert!(view.stale_rooms().is_empty());
    }

    #[test]
    fn occupancy_view_counts_match_the_plain_table() {
        let server = server();
        server.post_observation(report(1, 1, 0));
        server.post_observation(report(2, 2, 0));
        server.post_observation(report(3, 3, 4));
        let view = server.occupancy_view(SimTime::from_secs(5), SimDuration::from_secs(60));
        assert_eq!(view.counts(), server.occupancy());
        assert!(view.stale_rooms().is_empty());
        // An empty server yields an empty, trivially fresh view.
        let empty = self::server();
        let view = empty.occupancy_view(SimTime::from_secs(5), SimDuration::from_secs(60));
        assert!(view.rooms.is_empty());
        assert!(view.stale_rooms().is_empty());
        assert_eq!(empty.staleness(SimTime::from_secs(5)), None);
    }

    #[test]
    fn ingest_drops_duplicates_idempotently() {
        let server = server();
        let r = report(1, 10, 3);
        assert_eq!(
            server.ingest(r.clone()),
            IngestOutcome::Accepted { room: Some(3) }
        );
        // The retransmitted copy changes nothing.
        assert_eq!(server.ingest(r.clone()), IngestOutcome::Duplicate);
        assert_eq!(server.ingest(r), IngestOutcome::Duplicate);
        assert_eq!(server.report_count(), 1);
        assert_eq!(server.stats().reports_duplicate, 2);
        assert_eq!(server.assignment_history(DeviceId::new(1)).len(), 1);
        assert_eq!(server.occupancy().get(&3), Some(&1));
        // The telemetry recorder mirrors the stats and journals each hit.
        let telemetry = server.telemetry_snapshot();
        assert_eq!(telemetry.counter(keys::BMS_INGEST_ACCEPTED), 1);
        assert_eq!(telemetry.counter(keys::BMS_INGEST_DUPLICATES), 2);
        let hits = telemetry
            .journal()
            .filter(|e| matches!(e, TelemetryEvent::DedupHit { device: 1, seq: 10 }))
            .count();
        assert_eq!(hits, 2);
    }

    /// Dedup runs before classification: the estimator sees each accepted
    /// `(device, seq)` once and never a retransmitted duplicate.
    #[test]
    fn duplicates_are_never_classified() {
        let classified = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&classified);
        let counting: Arc<dyn OccupancyEstimator> = Arc::new(move |r: &ObservationReport| {
            log.lock().push((r.device, r.seq));
            Some(0)
        });
        let fleet = ShardedBmsServer::new(counting, 3);
        let mut reports = stream();
        reports.extend(stream());
        assert_eq!(fleet.ingest_all(reports), (200, 200));
        assert_eq!(fleet.ingest(report(0, 0, 0)), IngestOutcome::Duplicate);
        let mut seen = classified.lock().clone();
        seen.sort();
        let mut expected: Vec<_> = stream().iter().map(|r| (r.device, r.seq)).collect();
        expected.sort();
        assert_eq!(seen, expected);
    }

    #[test]
    fn ingest_all_partitions_and_counts() {
        let fleet = ShardedBmsServer::new(minor_estimator(), 4);
        let mut reports = stream();
        // Duplicate a slice of the stream: at-least-once delivery.
        reports.extend(stream().into_iter().take(40));
        let (accepted, duplicates) = fleet.ingest_all(reports.clone());
        assert_eq!(accepted, 200);
        assert_eq!(duplicates, 40);
        assert_eq!(fleet.stats().reports_duplicate, 40);
        // Bulk and per-report ingestion land in identical state, and the
        // merged telemetry counts every report once.
        let serial = ShardedBmsServer::new(minor_estimator(), 4);
        for r in reports {
            serial.ingest(r);
        }
        assert_eq!(fleet.state_digest(), serial.state_digest());
        let merged = fleet.telemetry_snapshot();
        assert_eq!(merged.counter(keys::BMS_INGEST_ACCEPTED), 200);
        assert_eq!(merged.counter(keys::BMS_INGEST_DUPLICATES), 40);
    }

    #[test]
    fn ingest_is_reorder_tolerant() {
        // Deliveries arrive newest-first; the final table and the history
        // must look exactly as if they had arrived in order.
        let server = server();
        let ordered = self::server();
        let mut reports: Vec<ObservationReport> = (0..10u64)
            .map(|i| report(1, i * 10, (i % 4) as u16))
            .collect();
        for r in &reports {
            ordered.ingest(r.clone());
        }
        reports.reverse();
        for r in reports {
            server.ingest(r);
        }
        assert_eq!(server.occupancy(), ordered.occupancy());
        assert_eq!(
            server.assignment_history(DeviceId::new(1)),
            ordered.assignment_history(DeviceId::new(1))
        );
        assert_eq!(
            server.occupancy_at(SimTime::from_secs(45)),
            ordered.occupancy_at(SimTime::from_secs(45))
        );
        // The reorder-insensitive parts of the state digest agree too: both
        // servers retain identical logs, tables and histories (the dedup
        // windows differ only in their internal watermarks, which match
        // here because the full seq range was seen either way).
        assert_eq!(server.state_digest(), ordered.state_digest());
    }

    #[test]
    fn ingest_straggler_cannot_overwrite_newer_classification() {
        let server = server();
        server.ingest(report(1, 100, 5));
        // A delayed retransmission of an *older* observation arrives later.
        server.ingest(report(1, 10, 0));
        assert_eq!(server.room_of(DeviceId::new(1)), Some(5));
        // Equal report times fall back to seq order.
        let tie = self::server();
        tie.ingest(ObservationReport {
            seq: 2,
            ..report(1, 50, 7)
        });
        tie.ingest(ObservationReport {
            seq: 1,
            ..report(1, 50, 3)
        });
        assert_eq!(tie.room_of(DeviceId::new(1)), Some(7));
        // The history orders the tie by seq, so historical queries agree
        // with the live table even at the tied instant.
        assert_eq!(
            tie.occupancy_at(SimTime::from_secs(50)).get(&7),
            Some(&1),
            "history tie-break must match the current room"
        );
    }

    #[test]
    fn dedup_window_is_bounded_but_still_catches_recent_duplicates() {
        let server = server().with_dedup_capacity(8);
        for i in 0..100u64 {
            server.ingest(ObservationReport {
                seq: i,
                ..report(1, i, 0)
            });
        }
        assert_eq!(server.dedup_entries(), 8);
        // Anything at or below the watermark is treated as already seen.
        assert!(server
            .ingest(ObservationReport {
                seq: 5,
                ..report(1, 5, 0)
            })
            .is_duplicate());
        // Recent seqs are matched exactly.
        assert!(server
            .ingest(ObservationReport {
                seq: 99,
                ..report(1, 99, 0)
            })
            .is_duplicate());
        assert_eq!(server.report_count(), 100);
    }

    #[test]
    fn checkpoint_restore_replay_converges() {
        let live = server();
        let mut journal = Vec::new();
        for i in 0..20u64 {
            let r = report(1, i * 10, (i % 3) as u16);
            journal.push(r.clone());
            live.ingest(r);
            if i == 9 {
                // Snapshot mid-run; everything after it is "lost" in the
                // crash below.
                let snapshot = live.checkpoint();
                assert_eq!(retained(&snapshot), 10);
            }
        }
        // Crash after report 14: restore the t<=90 snapshot and replay the
        // journal from the start — overlap is deduped, the tail re-applied.
        let snapshot = {
            let fresh = self::server();
            for r in &journal[..10] {
                fresh.ingest(r.clone());
            }
            fresh.checkpoint()
        };
        let restored =
            ShardedBmsServer::restore(minor_estimator(), snapshot).expect("untampered checkpoint");
        for r in &journal {
            restored.ingest(r.clone());
        }
        assert_eq!(restored.occupancy(), live.occupancy());
        assert_eq!(restored.report_count(), live.report_count());
        assert_eq!(
            restored.assignment_history(DeviceId::new(1)),
            live.assignment_history(DeviceId::new(1))
        );
        assert_eq!(restored.stats().reports_duplicate, 10);
        // The restored recorder carries the checkpoint marker and counts
        // the replay overlap as dedup hits.
        let telemetry = restored.telemetry_snapshot();
        assert_eq!(telemetry.counter(keys::BMS_CHECKPOINTS), 1);
        assert_eq!(telemetry.counter(keys::BMS_INGEST_DUPLICATES), 10);
        assert!(telemetry
            .journal()
            .any(|e| matches!(e, TelemetryEvent::Checkpoint { reports: 10 })));
    }

    #[test]
    fn checkpoint_preserves_the_server_configuration() {
        let window = SimDuration::from_secs(600);
        let fleet = ShardedBmsServer::new(minor_estimator(), 3)
            .with_dedup_capacity(32)
            .with_retention(window);
        for r in stream() {
            fleet.ingest(r);
        }
        let snapshot = fleet.checkpoint();
        assert_eq!(snapshot.shards.len(), 3);
        assert_eq!(retained(&snapshot), fleet.report_count());
        let restored =
            ShardedBmsServer::restore(minor_estimator(), snapshot).expect("untampered checkpoint");
        assert_eq!(restored.shard_count(), 3);
        assert_eq!(restored.dedup_capacity(), 32);
        assert_eq!(restored.state_digest(), fleet.state_digest());
        // The restored server keeps the snapshotted config: further traffic
        // dedups and compacts exactly like the original.
        for r in stream()
            .into_iter()
            .chain((0..200).map(|i| report(i % 23, 1400 + i as u64 * 7, 1)))
        {
            fleet.ingest(r.clone());
            restored.ingest(r);
        }
        assert!(restored.compacted_entries() > 0);
        assert_eq!(restored.state_digest(), fleet.state_digest());
        assert_eq!(restored.stats(), fleet.stats());
    }

    #[test]
    fn restore_rejects_a_forged_digest() {
        let server = ShardedBmsServer::new(minor_estimator(), 2);
        for r in stream() {
            server.ingest(r);
        }
        let good = server.checkpoint();
        assert!(ShardedBmsServer::restore(minor_estimator(), good.clone()).is_ok());
        let mut forged = good;
        let embedded = forged.shards[1].digest;
        forged.shards[1].digest ^= 0xdead_beef;
        let err = ShardedBmsServer::restore(minor_estimator(), forged)
            .expect_err("a corrupted checkpoint must be refused");
        match err {
            RestoreError::DigestMismatch { expected, actual } => {
                assert_eq!(expected, embedded ^ 0xdead_beef);
                assert_eq!(actual, embedded);
            }
        }
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn restore_refuses_a_changed_retention_floor() {
        let server = server().with_retention(SimDuration::from_secs(30));
        for r in stream() {
            server.ingest(r);
        }
        let good = server.checkpoint();
        assert!(good.shards[0].state.floor.is_some());
        assert!(ShardedBmsServer::restore(minor_estimator(), good.clone()).is_ok());
        let mut corrupted = good;
        corrupted.shards[0].state.floor = Some(SimTime::from_secs(99_999));
        assert!(matches!(
            ShardedBmsServer::restore(minor_estimator(), corrupted),
            Err(RestoreError::DigestMismatch { .. })
        ));
    }

    #[test]
    fn archive_answers_history_below_the_retention_floor_exactly() {
        use roomsense_sim::{SharedDisk, SimDisk};
        let window = SimDuration::from_secs(60);
        // Deliberately env-sensitive: under the ROOMSENSE_DISK_FAULTS chaos
        // knob this disk misbehaves and the test degrades to the universal
        // contract — complete answers are exact, loss is flagged.
        let disk = SharedDisk::new(SimDisk::new(11));
        let chaotic = !disk.fault_plan().is_empty();
        let server = server()
            .with_retention(window)
            .with_archives(disk, ArchiveConfig::default());
        let oracle = self::server(); // unbounded memory
        for i in 0..100u64 {
            let r = report(1, i * 10, (i % 3) as u16);
            server.ingest(r.clone());
            oracle.ingest(r);
        }
        assert!(server.retention_floor().is_some(), "compaction ran");
        if !chaotic {
            assert_eq!(
                server.historical_floor(),
                None,
                "healed archive: exact at every instant"
            );
        }
        for t in [5u64, 100, 450, 800, 985] {
            let at = SimTime::from_secs(t);
            let answer = server.occupancy_at_checked(at);
            if !chaotic {
                assert!(answer.complete, "t={t}");
            }
            if answer.complete {
                assert_eq!(answer.value, oracle.occupancy_at(at), "t={t}");
            }
        }
        let stats = server.archive_stats().expect("archive attached");
        assert!(stats.records > 0);
        assert!(stats.segments_sealed > 0);
        let telemetry = server.telemetry_snapshot();
        assert_eq!(telemetry.counter(keys::BMS_ARCHIVE_RECORDS), stats.records);
        assert_eq!(
            telemetry.counter(keys::BMS_ARCHIVE_SEGMENTS_SEALED),
            stats.segments_sealed
        );
    }

    #[test]
    fn crash_recover_replay_matches_the_never_crashed_server() {
        use roomsense_sim::{SharedDisk, SimDisk};
        let window = SimDuration::from_secs(60);
        let config = ArchiveConfig {
            segment_records: 16,
            ..ArchiveConfig::default()
        };
        let disk = SharedDisk::new(SimDisk::pristine(12));
        let live = server()
            .with_retention(window)
            .with_archives(disk.clone(), config.clone());
        let oracle = self::server()
            .with_retention(window)
            .with_archives(SharedDisk::new(SimDisk::pristine(12)), config.clone());
        let mut journal = Vec::new();
        let mut snapshot = None;
        for i in 0..120u64 {
            let r = report((i % 3) as u32, i * 10, (i % 4) as u16);
            journal.push(r.clone());
            live.ingest(r.clone());
            oracle.ingest(r);
            if i == 80 {
                snapshot = Some(live.checkpoint());
            }
        }
        // Crash: server memory is gone; the disk loses its un-fsynced tail.
        drop(live);
        disk.crash(SimTime::from_secs(1200));
        let (restored, recovery, coverage) = ShardedBmsServer::restore_with_archives(
            minor_estimator(),
            snapshot.expect("taken at i=80"),
            disk,
            config,
        )
        .expect("checkpoint digest validates");
        assert!(
            coverage.covered,
            "checkpoint-flushed archive covers the marks: {recovery:?}"
        );
        // Replay the journal suffix after the checkpoint.
        for r in &journal[81..] {
            restored.ingest(r.clone());
        }
        assert_eq!(restored.state_digest(), oracle.state_digest());
        assert_eq!(restored.historical_floor(), None);
        for t in [0u64, 300, 700, 1100] {
            let at = SimTime::from_secs(t);
            let answer = restored.occupancy_at_checked(at);
            assert!(answer.complete, "t={t}");
            assert_eq!(answer.value, oracle.occupancy_at_checked(at).value, "t={t}");
        }
        let telemetry = restored.telemetry_snapshot();
        assert_eq!(telemetry.counter(keys::BMS_ARCHIVE_RECOVERIES), 1);
    }

    #[test]
    fn sharded_archives_digest_equal_with_a_single_server() {
        use roomsense_sim::{SharedDisk, SimDisk};
        let window = SimDuration::from_secs(120);
        let config = ArchiveConfig {
            segment_records: 16,
            ..ArchiveConfig::default()
        };
        let fleet_disk = SharedDisk::new(SimDisk::pristine(21));
        let fleet = ShardedBmsServer::new(minor_estimator(), 4)
            .with_retention(window)
            .with_archives(fleet_disk.clone(), config.clone());
        let single = server()
            .with_retention(window)
            .with_archives(SharedDisk::new(SimDisk::pristine(22)), config.clone());
        for r in stream() {
            fleet.ingest(r.clone());
            single.ingest(r);
        }
        // Archive marks ride the state digest: disjoint per-shard logs
        // union to exactly the single server's durable history.
        assert_eq!(fleet.state_digest(), single.state_digest());
        assert_eq!(fleet.historical_floor(), None, "healed everywhere");
        let stats = fleet.archive_stats().expect("archives attached");
        assert_eq!(
            stats.records,
            single.archive_stats().expect("attached").records
        );
        for t in [0u64, 100, 700, 1393] {
            let at = SimTime::from_secs(t);
            let fleet_answer = fleet.occupancy_at_checked(at);
            assert!(fleet_answer.complete, "t={t}");
            assert_eq!(
                fleet_answer.value,
                single.occupancy_at_checked(at).value,
                "t={t}"
            );
        }
        // Crash the fleet and recover from disk + checkpoint.
        let snapshot = fleet.checkpoint();
        let digest = fleet.state_digest();
        drop(fleet);
        fleet_disk.crash(SimTime::from_secs(2000));
        let (restored, recovery, coverage) = ShardedBmsServer::restore_with_archives(
            minor_estimator(),
            snapshot,
            fleet_disk,
            config,
        )
        .expect("valid shard checkpoints");
        assert!(coverage.covered, "flushed at checkpoint: {recovery:?}");
        assert!(recovery.segments >= 4, "one log per shard scanned");
        assert_eq!(restored.state_digest(), digest);
        assert_eq!(restored.historical_floor(), None);
    }

    #[test]
    fn concurrent_posts_are_safe() {
        let server = Arc::new(ShardedBmsServer::new(minor_estimator(), 2));
        let mut handles = Vec::new();
        for worker in 0..8u32 {
            let server = Arc::clone(&server);
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    server.post_observation(report(worker, i, (worker % 3) as u16));
                }
            }));
        }
        for h in handles {
            h.join().expect("worker does not panic");
        }
        assert_eq!(server.report_count(), 800);
        let total: usize = server.occupancy().values().sum();
        assert_eq!(total, 8);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// A report from `(device, advance, lag, minor)` steps: the clock
        /// advances, the report lags behind it (a straggler), and a `None`
        /// minor makes it unclassifiable.
        fn stepped(steps: Vec<(u32, u64, u64, Option<u16>)>) -> Vec<ObservationReport> {
            let mut clock = 0u64;
            steps
                .into_iter()
                .enumerate()
                .map(|(seq, (device, advance, lag, minor))| {
                    clock += advance;
                    let base = report(device, clock.saturating_sub(lag), minor.unwrap_or(0));
                    let beacons = if minor.is_some() {
                        base.beacons
                    } else {
                        vec![]
                    };
                    ObservationReport {
                        seq: seq as u64,
                        beacons,
                        ..base
                    }
                })
                .collect()
        }

        proptest! {
            /// The running retention floor equals the maximum floor over
            /// every device's log and history, recomputed by a full scan,
            /// after every ingest (stragglers and unclassifiable reports
            /// included) and across checkpoint/restore.
            #[test]
            fn running_retention_floor_matches_the_full_scan(
                window_s in 1u64..60,
                shards in 1usize..4,
                steps in prop::collection::vec(
                    (0u32..4, 0u64..40, 0u64..20, prop::option::of(0u16..3)),
                    0..80,
                ),
                restores in prop::collection::vec(0u8..16, 80..81),
            ) {
                let scanned = |server: &ShardedBmsServer| {
                    server.fold_records(None, |floor, _, record| {
                        let history = record.history.as_ref().and_then(|h| h.floor);
                        *floor = (*floor).max(record.log.floor).max(history);
                    })
                };
                let mut server = ShardedBmsServer::new(minor_estimator(), shards)
                    .with_retention(SimDuration::from_secs(window_s));
                for (report, restore) in stepped(steps).into_iter().zip(restores) {
                    server.ingest(report);
                    prop_assert_eq!(server.retention_floor(), scanned(&server));
                    if restore == 0 {
                        let checkpoint = server.checkpoint();
                        server = ShardedBmsServer::restore(minor_estimator(), checkpoint)
                            .expect("untampered checkpoint");
                        prop_assert_eq!(server.retention_floor(), scanned(&server));
                    }
                }
            }

            /// The shard digests cover every device record field and every
            /// counter: changing any one of them in a checkpoint makes
            /// restore refuse it.
            #[test]
            fn restore_refuses_any_changed_record_field_or_counter(
                shards in 1usize..4,
                retained in any::<bool>(),
                steps in prop::collection::vec(
                    (0u32..6, 0u64..40, 0u64..20, prop::option::of(0u16..3)),
                    1..60,
                ),
                pick in any::<u64>(),
                field in 0u8..8,
            ) {
                let mut server = ShardedBmsServer::new(minor_estimator(), shards);
                if retained {
                    server = server.with_retention(SimDuration::from_secs(30));
                }
                // Half the devices go through the trusting path, so records
                // with and without dedup windows both occur.
                for report in stepped(steps) {
                    if report.device.value() % 2 == 0 {
                        server.ingest(report);
                    } else {
                        server.post_observation(report);
                    }
                }
                let mut checkpoint = server.checkpoint();
                let owners: Vec<usize> = (0..checkpoint.shards.len())
                    .filter(|&i| !checkpoint.shards[i].state.devices.is_empty())
                    .collect();
                let shard = owners[(pick % owners.len() as u64) as usize];
                let state = &mut checkpoint.shards[shard].state;
                let device = *state
                    .devices
                    .keys()
                    .nth((pick / 7 % state.devices.len() as u64) as usize)
                    .expect("picked a present device");
                let record = state.devices.get_mut(&device).expect("present");
                match field {
                    0 => {
                        record.room = match record.room {
                            Some((at, seq, room)) => Some((at, seq, room + 1)),
                            None => Some((SimTime::ZERO, 0, 0)),
                        }
                    }
                    1 => match &mut record.history {
                        Some(history) => history.compacted += 1,
                        None => record.history = Some(Default::default()),
                    },
                    2 => record.log.entries_mut()[0].seq += 1,
                    3 => record.log.floor = Some(record.log.floor.map_or(SimTime::ZERO, |f| f + SimDuration::from_millis(1))),
                    4 => match &mut record.dedup {
                        Some(window) => {
                            window.check_and_insert(u64::MAX, usize::MAX);
                        }
                        None => record.dedup = Some(Default::default()),
                    },
                    5 => state.stats.reports_stored += 1,
                    6 => state.stats.reports_unclassified += 1,
                    _ => state.stats.reports_duplicate += 1,
                }
                let refused = matches!(
                    ShardedBmsServer::restore(minor_estimator(), checkpoint),
                    Err(RestoreError::DigestMismatch { .. })
                );
                prop_assert!(refused, "field {} of shard {} went unnoticed", field, shard);
            }
        }
    }
}
