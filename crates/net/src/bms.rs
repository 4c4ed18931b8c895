//! The Building Management System server.
//!
//! Paper Section IV-B: "The server has to collect all information sent by
//! the user smart [devices] and to insert them in a database the association
//! between the device and the room where it is located. These information
//! are then used by a classification algorithm in order to get the occupancy
//! information."
//!
//! The real server was Flask + Tornado on a Raspberry Pi; here it is an
//! in-memory store behind a [`parking_lot`] mutex (the simulated benches
//! post from several worker threads), with the classifier injected as an
//! [`OccupancyEstimator`] so this crate does not depend on the ML crate.
//!
//! At fleet scale the store is kept honest by three mechanisms:
//!
//! * per-device logs and assignment histories are held **sorted by report
//!   time** in [`Retained`] ring buffers, so every historical query is a
//!   `partition_point` binary search instead of a linear scan;
//! * an optional **retention window** ([`BmsServer::with_retention`])
//!   compacts each device's history against its own newest report, keeping
//!   memory bounded by `devices × window/period` whatever the fleet size —
//!   and, because the cutoff depends only on that device's stream, the
//!   compaction is identical however the fleet is sharded;
//! * queries that can be truncated by compaction have `*_checked` variants
//!   returning [`Windowed`] values that say whether the answer is complete.

use crate::archive::{ArchiveSink, ArchiveStats, Coverage, DeviceMark};
use crate::counting::{finalize_population, CountingConfig, PopulationEvidence, PopulationView};
use crate::{DeviceId, ObservationReport};
use parking_lot::Mutex;
use roomsense_sim::{SimDuration, SimTime};
use roomsense_telemetry::{keys, Recorder, TelemetryEvent};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

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
    pub fresh: usize,
}

impl RoomPresence {
    /// True when the room's count rests entirely on expired evidence.
    pub fn is_stale(&self) -> bool {
        self.fresh == 0
    }
}

/// The occupancy table with per-room staleness, as of one instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OccupancyView {
    /// The instant the view was taken.
    pub at: SimTime,
    /// Reports older than this (relative to `at`) count as stale.
    pub ttl: SimDuration,
    /// Per-room presence. Rooms nobody was ever classified into are absent.
    pub rooms: BTreeMap<RoomLabel, RoomPresence>,
}

impl OccupancyView {
    /// The plain occupant counts, shaped like [`BmsServer::occupancy`].
    pub fn counts(&self) -> BTreeMap<RoomLabel, usize> {
        self.rooms
            .iter()
            .map(|(room, p)| (*room, p.occupants))
            .collect()
    }

    /// Rooms whose counts rest entirely on expired evidence.
    pub fn stale_rooms(&self) -> Vec<RoomLabel> {
        self.rooms
            .iter()
            .filter(|(_, p)| p.is_stale())
            .map(|(room, _)| *room)
            .collect()
    }

    /// True when every room's count has at least one fresh contributor.
    pub fn is_fully_fresh(&self) -> bool {
        self.rooms.values().all(|p| !p.is_stale())
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
    /// Retransmitted duplicates dropped by [`BmsServer::ingest`]'s
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

/// The result of [`BmsServer::ingest`]ing one report.
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

/// Bounded per-device record of which sequence numbers were already
/// ingested.
///
/// Exact membership is kept for at most `capacity` recent seqs; older ones
/// are summarised by a low *watermark*: every `seq <= watermark` counts as
/// seen. With a monotone per-device stamper the window only ever evicts
/// seqs that genuinely arrived, so the summary stays exact for any
/// straggler less than `capacity` seqs behind the newest — far beyond any
/// realistic retransmission delay — while memory stays O(capacity).
///
/// The exact seqs are a sorted run: an in-order seq is a `push_back`, a
/// straggler a binary search and insert, and eviction pops the front.
#[derive(Clone, Default, PartialEq)]
pub(crate) struct DedupWindow {
    watermark: Option<u64>,
    /// Exact seqs above the watermark, ascending.
    seen: VecDeque<u64>,
}

impl DedupWindow {
    /// Returns true when `seq` is new, recording it and shrinking the
    /// window back to `capacity` entries.
    pub(crate) fn check_and_insert(&mut self, seq: u64, capacity: usize) -> bool {
        if self.watermark.is_some_and(|watermark| seq <= watermark) {
            return false;
        }
        match self.seen.back() {
            Some(&newest) if seq <= newest => match self.seen.binary_search(&seq) {
                Ok(_) => return false,
                Err(slot) => self.seen.insert(slot, seq),
            },
            _ => self.seen.push_back(seq),
        }
        while self.seen.len() > capacity {
            let lowest = self.seen.pop_front().expect("window is non-empty");
            self.watermark = Some(self.watermark.map_or(lowest, |w| w.max(lowest)));
        }
        true
    }

    fn len(&self) -> usize {
        self.seen.len()
    }
}

/// Prints exactly what `#[derive(Debug)]` printed when `seen` was a
/// `BTreeSet<u64>` — `DedupWindow { watermark: …, seen: {…} }` — because
/// this text is part of every state digest.
impl fmt::Debug for DedupWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct AsSet<'a>(&'a VecDeque<u64>);
        impl fmt::Debug for AsSet<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_set().entries(self.0).finish()
            }
        }
        f.debug_struct("DedupWindow")
            .field("watermark", &self.watermark)
            .field("seen", &AsSet(&self.seen))
            .finish()
    }
}

/// Anything stored in report-time order with a seq tie-break.
trait Chronological {
    /// The sort key: `(report time, sequence number)`.
    fn chrono_key(&self) -> (SimTime, u64);

    /// The report-time half of the key.
    fn chrono_at(&self) -> SimTime {
        self.chrono_key().0
    }
}

impl Chronological for ObservationReport {
    fn chrono_key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl Chronological for (SimTime, u64, RoomLabel) {
    fn chrono_key(&self) -> (SimTime, u64) {
        (self.0, self.1)
    }
}

/// A time-sorted ring buffer with low-watermark compaction.
///
/// Entries are kept sorted by `(time, seq)` (insertion is a binary search —
/// a straggler lands in its chronological slot), so every range query is a
/// `partition_point` pair instead of a scan. [`compact`](Retained::compact)
/// drops entries older than a cutoff and remembers the *floor*: the oldest
/// instant queries can still be answered for exactly.
#[derive(Debug, Clone, PartialEq)]
struct Retained<T> {
    entries: VecDeque<T>,
    /// Entries dropped by compaction so far.
    compacted: u64,
    /// Queries at or after this instant see every relevant entry; earlier
    /// ones may be missing compacted records. `None` until the first drop.
    floor: Option<SimTime>,
}

impl<T> Default for Retained<T> {
    fn default() -> Self {
        Retained {
            entries: VecDeque::new(),
            compacted: 0,
            floor: None,
        }
    }
}

impl<T: Chronological> Retained<T> {
    fn len(&self) -> usize {
        self.entries.len()
    }

    fn iter(&self) -> impl Iterator<Item = &T> {
        self.entries.iter()
    }

    /// Inserts in `(time, seq)` order; equal keys keep arrival order.
    fn insert(&mut self, item: T) {
        let key = item.chrono_key();
        let position = self.entries.partition_point(|e| e.chrono_key() <= key);
        self.entries.insert(position, item);
    }

    /// Drops entries strictly older than `cutoff`, raises the floor, and
    /// returns the dropped entries (oldest first) so the caller can spill
    /// them into an archive instead of losing them.
    ///
    /// With `carry_last`, the newest pre-cutoff entry survives — an
    /// assignment history needs it so "last room at or before `t`" stays
    /// correct for every `t >= cutoff` even when the device has been silent
    /// for longer than the window. An entry timestamped **exactly at** the
    /// cutoff is always retained and anchors the window by itself: carrying
    /// an extra pre-cutoff entry past it would keep a record the archive is
    /// owed, putting the same record on both sides of the live/archived
    /// boundary later.
    fn compact(&mut self, cutoff: SimTime, carry_last: bool) -> Vec<T> {
        let first_kept = self.entries.partition_point(|e| e.chrono_at() < cutoff);
        let carry_needed = carry_last
            && self
                .entries
                .get(first_kept)
                .is_none_or(|e| e.chrono_at() != cutoff);
        let drop_to = if carry_needed {
            first_kept.saturating_sub(1)
        } else {
            first_kept
        };
        if drop_to == 0 {
            return Vec::new();
        }
        let dropped: Vec<T> = self.entries.drain(..drop_to).collect();
        self.compacted += dropped.len() as u64;
        self.floor = Some(self.floor.map_or(cutoff, |f| f.max(cutoff)));
        dropped
    }

    /// The entries whose time falls in the half-open window `[from, to)`.
    fn window(&self, from: SimTime, to: SimTime) -> impl Iterator<Item = &T> {
        let start = self.entries.partition_point(|e| e.chrono_at() < from);
        let end = self.entries.partition_point(|e| e.chrono_at() < to);
        self.entries.range(start..end.max(start))
    }

    /// The newest entry with time at or before `at`, by binary search.
    fn last_at_or_before(&self, at: SimTime) -> Option<&T> {
        let index = self.entries.partition_point(|e| e.chrono_at() <= at);
        index.checked_sub(1).map(|i| &self.entries[i])
    }
}

#[derive(Debug, Clone, Default)]
struct ServerState {
    /// Per-device observation logs, sorted by `(report time, seq)` and
    /// bounded by the retention window when one is configured.
    logs: BTreeMap<DeviceId, Retained<ObservationReport>>,
    /// Latest classified `(report time, seq, room)` per device — last
    /// writer wins on *report* time (seq breaks exact ties), never on
    /// arrival time.
    device_rooms: BTreeMap<DeviceId, (SimTime, u64, RoomLabel)>,
    /// Every classification as `(report time, seq, room)`, per device —
    /// the raw material for movement analytics, kept in `(time, seq)`
    /// order so reordered arrivals cannot corrupt the history.
    assignments: BTreeMap<DeviceId, Retained<(SimTime, u64, RoomLabel)>>,
    /// Per-device dedup windows for the `ingest` path.
    dedup: BTreeMap<DeviceId, DedupWindow>,
    /// The highest floor any log or history compaction has set: the
    /// retention low-watermark, kept as compaction raises it so reading it
    /// scans nothing. Checkpoints carry it with the rest of the state.
    floor: Option<SimTime>,
    stats: ServerStats,
    /// Server-side metrics and structured event journal; snapshotted and
    /// restored along with the rest of the state.
    telemetry: Recorder,
}

impl ServerState {
    fn retained_reports(&self) -> usize {
        self.logs.values().map(Retained::len).sum()
    }

    /// Applies a classified report to the occupancy table and history.
    fn classify(&mut self, report: &ObservationReport, label: RoomLabel) {
        let entry = self
            .device_rooms
            .entry(report.device)
            .or_insert((report.at, report.seq, label));
        // Only move forward in report time (out-of-order arrivals happen
        // with retrying transports); seq breaks exact ties.
        if (report.at, report.seq) >= (entry.0, entry.1) {
            *entry = (report.at, report.seq, label);
        }
        self.assignments
            .entry(report.device)
            .or_default()
            .insert((report.at, report.seq, label));
    }

    /// Stores the report in its device's log and, when a retention window
    /// is set, compacts that device's log and history against its own
    /// newest report. The cutoff depends only on the device's stream, so
    /// compaction is identical however the fleet is sharded. Returns the
    /// compacted entries so the caller can spill them into the archive tier
    /// instead of dropping them.
    fn store(&mut self, report: ObservationReport, retention: Option<SimDuration>) -> Spill {
        let device = report.device;
        let log = self.logs.entry(device).or_default();
        log.insert(report);
        let Some(window) = retention else {
            return Spill::default();
        };
        let newest = log
            .entries
            .back()
            .expect("just inserted")
            .at
            .as_millis();
        let cutoff = SimTime::from_millis(newest.saturating_sub(window.as_millis()));
        let reports = log.compact(cutoff, false);
        let assignments = self
            .assignments
            .get_mut(&device)
            .map(|history| history.compact(cutoff, true))
            .unwrap_or_default();
        let dropped = (reports.len() + assignments.len()) as u64;
        if dropped > 0 {
            // Either compaction that dropped an entry set its floor to at
            // least `cutoff`; floors only rise.
            self.floor = Some(self.floor.map_or(cutoff, |f| f.max(cutoff)));
            self.telemetry.add(keys::BMS_RETENTION_COMPACTED, dropped);
        }
        Spill {
            reports,
            assignments,
        }
    }

    /// The canonical per-device dump of this state (plus, when archive
    /// `marks` are given, each device's archive position) — the raw
    /// material of every digest. Runs entirely on `&self` so callers can
    /// compute it while already holding the server lock.
    fn dump(
        &self,
        marks: Option<&BTreeMap<DeviceId, DeviceMark>>,
    ) -> (BTreeMap<DeviceId, String>, ServerStats) {
        let mut devices: BTreeSet<DeviceId> = self.logs.keys().copied().collect();
        devices.extend(self.device_rooms.keys().copied());
        devices.extend(self.assignments.keys().copied());
        devices.extend(self.dedup.keys().copied());
        if let Some(marks) = marks {
            devices.extend(marks.keys().copied());
        }
        let dumps = devices
            .into_iter()
            .map(|device| {
                let mut dump = format!(
                    "{:?}|{:?}|{:?}|{:?}",
                    self.device_rooms.get(&device),
                    self.assignments.get(&device),
                    self.logs.get(&device),
                    self.dedup.get(&device),
                );
                if let Some(mark) = marks.and_then(|m| m.get(&device)) {
                    dump.push_str(&format!("|archive:{}:{:016x}", mark.records, mark.digest));
                }
                (device, dump)
            })
            .collect();
        (dumps, self.stats)
    }
}

/// Entries one compaction pass handed off for archival, all belonging to a
/// single device.
#[derive(Debug, Default)]
struct Spill {
    reports: Vec<ObservationReport>,
    assignments: Vec<(SimTime, u64, RoomLabel)>,
}

impl Spill {
    fn is_empty(&self) -> bool {
        self.reports.is_empty() && self.assignments.is_empty()
    }
}

/// An opaque snapshot of a [`BmsServer`]'s full state, produced by
/// [`BmsServer::checkpoint`] and consumed by [`BmsServer::restore`].
///
/// The snapshot embeds a digest of its own contents (and, when the server
/// has an archive, the per-device archive marks at flush time), so restore
/// can prove the checkpoint was not corrupted in storage before trusting
/// it.
#[derive(Debug, Clone)]
pub struct BmsCheckpoint {
    state: ServerState,
    dedup_capacity: usize,
    retention: Option<SimDuration>,
    digest: u64,
    archive_marks: Option<BTreeMap<DeviceId, DeviceMark>>,
}

impl BmsCheckpoint {
    /// Number of retained reports captured in the snapshot.
    pub fn report_count(&self) -> usize {
        self.state.retained_reports()
    }

    /// The retention window the snapshotted server was configured with.
    pub fn retention(&self) -> Option<SimDuration> {
        self.retention
    }

    /// The embedded integrity digest [`BmsServer::restore`] validates.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Fault-injection helper: returns the checkpoint with its embedded
    /// digest overwritten, simulating a snapshot corrupted in storage.
    /// Restoring it must fail with [`RestoreError::DigestMismatch`].
    pub fn forge_digest(mut self, digest: u64) -> Self {
        self.digest = digest;
        self
    }

    /// The per-device archive marks embedded at checkpoint time, if the
    /// snapshotted server had an archive.
    pub fn archive_marks(&self) -> Option<&BTreeMap<DeviceId, DeviceMark>> {
        self.archive_marks.as_ref()
    }
}

/// Why [`BmsServer::restore`] refused a checkpoint.
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

/// The BMS server: observation database + occupancy table.
///
/// # Examples
///
/// ```
/// use roomsense_net::{BmsServer, DeviceId, ObservationReport};
/// use roomsense_sim::SimTime;
///
/// // A trivial estimator: everyone is in room 0.
/// let server = BmsServer::new(Box::new(|_: &ObservationReport| Some(0)));
/// let report = ObservationReport {
///     device: DeviceId::new(7),
///     seq: 0,
///     at: SimTime::from_secs(2),
///     beacons: vec![],
/// };
/// server.post_observation(report);
/// assert_eq!(server.occupancy().get(&0).copied(), Some(1));
/// ```
pub struct BmsServer {
    estimator: Box<dyn OccupancyEstimator>,
    dedup_capacity: usize,
    retention: Option<SimDuration>,
    state: Mutex<ServerState>,
    /// The durable tier retention compaction spills into. Lock order is
    /// always `state` before `archive`; never the reverse.
    archive: Option<Mutex<ArchiveSink>>,
}

/// Default per-device dedup window size for [`BmsServer::ingest`].
const DEFAULT_DEDUP_CAPACITY: usize = 128;

impl BmsServer {
    /// Creates a server around an estimator. Retention is unbounded until
    /// [`with_retention`](Self::with_retention) sets a window.
    pub fn new(estimator: Box<dyn OccupancyEstimator>) -> Self {
        BmsServer {
            estimator,
            dedup_capacity: DEFAULT_DEDUP_CAPACITY,
            retention: None,
            state: Mutex::new(ServerState::default()),
            archive: None,
        }
    }

    /// Attaches a durable archive: from now on retention compaction
    /// *spills* into `sink` instead of dropping, and historical queries
    /// below the retention floor answer exactly from the archive (see
    /// [`historical_floor`](Self::historical_floor)).
    pub fn with_archive(mut self, sink: ArchiveSink) -> Self {
        self.archive = Some(Mutex::new(sink));
        self
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

    /// The per-device dedup window size.
    pub fn dedup_capacity(&self) -> usize {
        self.dedup_capacity
    }

    /// The retention window, or `None` when the server keeps everything.
    pub fn retention(&self) -> Option<SimDuration> {
        self.retention
    }

    /// Total exact dedup entries held across all devices — bounded by
    /// `devices x dedup_capacity` whatever the traffic does.
    pub fn dedup_entries(&self) -> usize {
        self.state.lock().dedup.values().map(DedupWindow::len).sum()
    }

    /// The REST endpoint: stores a report and updates the device's room.
    ///
    /// Returns the room the device was classified into, if any.
    pub fn post_observation(&self, report: ObservationReport) -> Option<RoomLabel> {
        let room = self.estimator.classify(&report);
        let device = report.device;
        let mut state = self.state.lock();
        state.stats.reports_stored += 1;
        state.telemetry.incr(keys::BMS_INGEST_ACCEPTED);
        match room {
            Some(label) => state.classify(&report, label),
            None => state.stats.reports_unclassified += 1,
        }
        let spill = state.store(report, self.retention);
        self.spill_to_archive(&mut state, device, spill);
        room
    }

    /// Appends one compaction pass's evicted entries to the archive (when
    /// one is attached), crediting the telemetry counters. Expects the
    /// state lock held — the archive lock nests inside it.
    fn spill_to_archive(&self, state: &mut ServerState, device: DeviceId, spill: Spill) {
        let Some(archive) = &self.archive else { return };
        if spill.is_empty() {
            return;
        }
        let mut sink = archive.lock();
        let bytes_before = sink.stats().bytes_appended;
        let sealed_before = sink.segments_sealed();
        let mut appended = 0u64;
        let mut suppressed = 0u64;
        for report in &spill.reports {
            if sink.append_report(report) {
                appended += 1;
            } else {
                suppressed += 1;
            }
        }
        for (at, seq, room) in &spill.assignments {
            if sink.append_assignment(device, *at, *seq, *room) {
                appended += 1;
            } else {
                suppressed += 1;
            }
        }
        let bytes = sink.stats().bytes_appended - bytes_before;
        let sealed = sink.segments_sealed() - sealed_before;
        drop(sink);
        if appended > 0 {
            state.telemetry.add(keys::BMS_ARCHIVE_RECORDS, appended);
        }
        if suppressed > 0 {
            state
                .telemetry
                .add(keys::BMS_ARCHIVE_RESPILL_SUPPRESSED, suppressed);
        }
        if bytes > 0 {
            state.telemetry.add(keys::BMS_ARCHIVE_BYTES, bytes);
        }
        if sealed > 0 {
            state.telemetry.add(keys::BMS_ARCHIVE_SEGMENTS_SEALED, sealed);
        }
    }

    /// The reliable ingestion endpoint: idempotent and reorder-tolerant.
    ///
    /// Where [`post_observation`](Self::post_observation) trusts its caller,
    /// `ingest` assumes an **at-least-once** uplink: a retransmitted
    /// duplicate (same `(device, seq)` inside the bounded dedup window) is
    /// dropped with no state change, a straggler that arrives late is
    /// applied but can never overwrite a newer classification (last writer
    /// wins on *report* time, not arrival time), and the per-device
    /// assignment history is kept in report-time order. At-least-once
    /// delivery composed with this endpoint gives effectively exactly-once
    /// ingestion *effects*.
    pub fn ingest(&self, report: ObservationReport) -> IngestOutcome {
        let room = self.estimator.classify(&report);
        let mut state = self.state.lock();
        let capacity = self.dedup_capacity;
        let is_new = state
            .dedup
            .entry(report.device)
            .or_default()
            .check_and_insert(report.seq, capacity);
        if !is_new {
            state.stats.reports_duplicate += 1;
            state.telemetry.incr(keys::BMS_INGEST_DUPLICATES);
            state.telemetry.record_event(TelemetryEvent::DedupHit {
                device: report.device.value(),
                seq: report.seq,
            });
            return IngestOutcome::Duplicate;
        }
        state.stats.reports_stored += 1;
        state.telemetry.incr(keys::BMS_INGEST_ACCEPTED);
        let device = report.device;
        match room {
            Some(label) => state.classify(&report, label),
            None => state.stats.reports_unclassified += 1,
        }
        let spill = state.store(report, self.retention);
        self.spill_to_archive(&mut state, device, spill);
        IngestOutcome::Accepted { room }
    }

    /// Snapshots the full server state (observation logs, occupancy table,
    /// assignment histories, dedup windows, counters) and configuration for
    /// crash recovery.
    ///
    /// Because the dedup windows are part of the snapshot, a restored
    /// server can safely re-[`ingest`](Self::ingest) *any* suffix of the
    /// delivery journal that covers the gap since the snapshot — duplicates
    /// from overlap are dropped, so replay converges to exactly the
    /// no-crash state.
    pub fn checkpoint(&self) -> BmsCheckpoint {
        let mut state = self.state.lock();
        let reports = state.retained_reports() as u64;
        state.telemetry.incr(keys::BMS_CHECKPOINTS);
        state
            .telemetry
            .record_event(TelemetryEvent::Checkpoint { reports });
        // Flush the archive inside the checkpoint: the durable log must
        // never trail the snapshot that embeds its marks.
        let archive_marks = self.archive.as_ref().map(|archive| {
            let mut sink = archive.lock();
            sink.flush();
            sink.marks().clone()
        });
        let (dumps, stats) = state.dump(archive_marks.as_ref());
        let digest = digest_state(&dumps, stats);
        BmsCheckpoint {
            state: state.clone(),
            dedup_capacity: self.dedup_capacity,
            retention: self.retention,
            digest,
            archive_marks,
        }
    }

    /// Rebuilds a server from a [`checkpoint`](Self::checkpoint) and a
    /// (fresh) estimator, after proving the checkpoint's contents still
    /// hash to its embedded digest. The snapshotted configuration (dedup
    /// capacity, retention window) is restored along with the state.
    ///
    /// # Errors
    ///
    /// [`RestoreError::DigestMismatch`] when the checkpoint was corrupted
    /// in storage — restoring it would serve silently wrong state.
    pub fn restore(
        estimator: Box<dyn OccupancyEstimator>,
        checkpoint: BmsCheckpoint,
    ) -> Result<Self, RestoreError> {
        let (dumps, stats) = checkpoint.state.dump(checkpoint.archive_marks.as_ref());
        let actual = digest_state(&dumps, stats);
        if actual != checkpoint.digest {
            return Err(RestoreError::DigestMismatch {
                expected: checkpoint.digest,
                actual,
            });
        }
        Ok(BmsServer {
            estimator,
            dedup_capacity: checkpoint.dedup_capacity,
            retention: checkpoint.retention,
            state: Mutex::new(checkpoint.state),
            archive: None,
        })
    }

    /// [`restore`](Self::restore) plus archive re-attachment: verifies the
    /// recovered `sink` still covers every record the checkpoint's marks
    /// promised, marks it healed or lossy accordingly, and attaches it.
    /// The returned [`Coverage`] says whether below-floor history is still
    /// exact; when it is not, the caller can escalate to a full journal
    /// rebuild, or carry on with explicitly-incomplete historical answers.
    pub fn restore_with_archive(
        estimator: Box<dyn OccupancyEstimator>,
        checkpoint: BmsCheckpoint,
        mut sink: ArchiveSink,
    ) -> Result<(Self, Coverage), RestoreError> {
        let marks = checkpoint.archive_marks.clone().unwrap_or_default();
        let coverage = sink.verify_covers(&marks);
        if coverage.covered {
            sink.mark_healed();
        } else {
            sink.mark_lossy();
        }
        let server = Self::restore(estimator, checkpoint)?;
        {
            let mut state = server.state.lock();
            state.telemetry.add(keys::BMS_ARCHIVE_RECOVERIES, 1);
            if coverage.missing_records > 0 {
                state
                    .telemetry
                    .add(keys::BMS_ARCHIVE_TRUNCATED_RECORDS, coverage.missing_records);
            }
        }
        Ok((server.with_archive(sink), coverage))
    }

    /// The occupancy table: how many devices are currently in each room.
    pub fn occupancy(&self) -> BTreeMap<RoomLabel, usize> {
        let state = self.state.lock();
        let mut table = BTreeMap::new();
        for (_, (_, _, room)) in state.device_rooms.iter() {
            *table.entry(*room).or_insert(0) += 1;
        }
        table
    }

    /// The room one device was last classified into.
    pub fn room_of(&self, device: DeviceId) -> Option<RoomLabel> {
        self.state
            .lock()
            .device_rooms
            .get(&device)
            .map(|(_, _, r)| *r)
    }

    /// The occupancy table with explicit staleness: every device still counts
    /// in its last-known room (graceful degradation — an outage must not make
    /// the building look empty), but devices whose last report is older than
    /// `ttl` at `now` no longer count as *fresh*, and a room with no fresh
    /// contributor is flagged stale.
    pub fn occupancy_view(&self, now: SimTime, ttl: SimDuration) -> OccupancyView {
        let state = self.state.lock();
        let mut rooms: BTreeMap<RoomLabel, RoomPresence> = BTreeMap::new();
        for (last_at, _, room) in state.device_rooms.values() {
            let entry = rooms.entry(*room).or_default();
            entry.occupants += 1;
            if now.saturating_since(*last_at) <= ttl {
                entry.fresh += 1;
            }
        }
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
        self.state
            .lock()
            .device_rooms
            .values()
            .map(|(last_at, _, _)| now.saturating_since(*last_at))
            .max()
    }

    /// The occupancy table as it stood at time `at`: each device counts in
    /// the last room it was classified into at or before `at`, found by
    /// binary search on the sorted per-device history.
    pub fn occupancy_at(&self, at: SimTime) -> BTreeMap<RoomLabel, usize> {
        let state = self.state.lock();
        let mut table = BTreeMap::new();
        for history in state.assignments.values() {
            if let Some((_, _, room)) = history.last_at_or_before(at) {
                *table.entry(*room).or_insert(0) += 1;
            }
        }
        table
    }

    /// The linear-scan reference for [`occupancy_at`](Self::occupancy_at),
    /// for the unit tests. O(history) per device.
    #[cfg(test)]
    fn occupancy_at_linear(&self, at: SimTime) -> BTreeMap<RoomLabel, usize> {
        let state = self.state.lock();
        let mut table = BTreeMap::new();
        for history in state.assignments.values() {
            let last = history
                .iter()
                .take_while(|(t, _, _)| *t <= at)
                .last()
                .map(|(_, _, room)| *room);
            if let Some(room) = last {
                *table.entry(room).or_insert(0) += 1;
            }
        }
        table
    }

    /// [`occupancy_at`](Self::occupancy_at) with an explicit completeness
    /// flag, merged with the archive tier when one is attached.
    ///
    /// Without an archive the answer is exact iff `at` is at or after the
    /// retention floor. With a **healed** archive the compacted history is
    /// still reachable, so the merged answer is exact at *every* instant
    /// and `complete` is always true; with a lossy archive (recovery
    /// admitted missing records) answers below the floor merge whatever
    /// survived and say `complete: false` — degraded, never silently
    /// wrong.
    pub fn occupancy_at_checked(&self, at: SimTime) -> Windowed<BTreeMap<RoomLabel, usize>> {
        let state = self.state.lock();
        let mut best: BTreeMap<DeviceId, (SimTime, u64, RoomLabel)> = BTreeMap::new();
        for (device, history) in &state.assignments {
            if let Some((t, s, room)) = history.last_at_or_before(at) {
                best.insert(*device, (*t, *s, *room));
            }
        }
        drop(state);
        if let Some(archive) = &self.archive {
            let mut sink = archive.lock();
            let corruptions_before = sink.read_corruptions();
            for (device, (t, s, room)) in sink.last_assignments_at(at) {
                match best.get(&device) {
                    Some(live) if (live.0, live.1) >= (t, s) => {}
                    _ => {
                        best.insert(device, (t, s, room));
                    }
                }
            }
            let corrupt_reads = sink.read_corruptions() - corruptions_before;
            drop(sink);
            if corrupt_reads > 0 {
                self.state
                    .lock()
                    .telemetry
                    .add(keys::BMS_ARCHIVE_READ_CORRUPTIONS, corrupt_reads);
            }
        }
        // Completeness is judged *after* the archive read: the read itself
        // audits the segments it decodes and may demote the sink to lossy,
        // and this very answer must already say incomplete if it did.
        let floor = self.historical_floor();
        let complete = floor.is_none_or(|f| at >= f);
        let mut value = BTreeMap::new();
        for (_, (_, _, room)) in best {
            *value.entry(room).or_insert(0) += 1;
        }
        Windowed {
            value,
            complete,
            floor,
        }
    }

    /// The oldest instant historical queries answer **exactly**.
    ///
    /// `None` when every record ever ingested is still reachable: retention
    /// is unbounded, or a healed archive holds everything compaction
    /// spilled. Otherwise the live retention floor — the archive has
    /// admitted loss (or there is none), so below-floor answers are flagged
    /// incomplete.
    pub fn historical_floor(&self) -> Option<SimTime> {
        let floor = self.retention_floor();
        match self.archive.as_ref().map(|a| a.lock().healed()) {
            Some(true) => None,
            _ => floor,
        }
    }

    /// The historical analogue of [`occupancy_view`](Self::occupancy_view):
    /// the occupancy table as it stood at `at`, with the **same TTL
    /// semantics** — a device whose last classification (at or before `at`)
    /// is older than `ttl` still counts in its room but not as fresh. At
    /// `at = now` this agrees exactly with `occupancy_view`, so live and
    /// historical consumers share one definition of a silent device.
    pub fn occupancy_view_at(&self, at: SimTime, ttl: SimDuration) -> OccupancyView {
        let state = self.state.lock();
        let mut rooms: BTreeMap<RoomLabel, RoomPresence> = BTreeMap::new();
        for history in state.assignments.values() {
            if let Some((t, _, room)) = history.last_at_or_before(at) {
                let entry = rooms.entry(*room).or_default();
                entry.occupants += 1;
                if at.saturating_since(*t) <= ttl {
                    entry.fresh += 1;
                }
            }
        }
        OccupancyView {
            at,
            ttl,
            rooms,
        }
    }

    /// The retention low-watermark across every device: queries at or after
    /// this instant see every relevant record; earlier ones may be missing
    /// compacted history. `None` while nothing was ever compacted (always,
    /// with unbounded retention).
    pub fn retention_floor(&self) -> Option<SimTime> {
        self.state.lock().floor
    }

    /// The per-room population evidence aggregate over the window
    /// `[now - window, now]`: device census by last-known room, the subset
    /// with in-window reports, report counts, and the distance-sum — the
    /// mergeable raw material behind
    /// [`population_view`](Self::population_view). Incomplete when
    /// retention compaction truncated part of the evidence window (the
    /// counting path reads the live tier only; the answer is flagged,
    /// never silently wrong).
    pub fn population_evidence(
        &self,
        now: SimTime,
        config: &CountingConfig,
    ) -> Windowed<BTreeMap<RoomLabel, PopulationEvidence>> {
        let from = SimTime::from_millis(now.as_millis().saturating_sub(config.window.as_millis()));
        // `Retained::window` is half-open; bump the upper bound one tick so
        // evidence stamped exactly `now` counts.
        let upper = SimTime::from_millis(now.as_millis().saturating_add(1));
        let state = self.state.lock();
        let mut rooms: BTreeMap<RoomLabel, PopulationEvidence> = BTreeMap::new();
        for (device, (last_at, _, room)) in &state.device_rooms {
            let entry = rooms.entry(*room).or_default();
            entry.devices += 1;
            entry.newest = Some(entry.newest.map_or(*last_at, |n| n.max(*last_at)));
            if let Some(log) = state.logs.get(device) {
                let mut in_window = 0u64;
                for report in log.window(from, upper) {
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
            }
        }
        let floor = state
            .logs
            .values()
            .filter_map(|log| log.floor)
            .max();
        drop(state);
        let complete = floor.is_none_or(|f| from >= f);
        Windowed {
            value: rooms,
            complete,
            floor,
        }
    }

    /// The per-room population table at `now` (see the
    /// [`counting`](crate::counting) module): each room's evidence
    /// aggregate finalized into a
    /// [`PopulationEstimate`](crate::PopulationEstimate) — estimated
    /// headcount, confidence interval, and evidence staleness. Wrapped in
    /// [`Windowed`]: incomplete when retention truncated part of the
    /// evidence window.
    pub fn population_view(
        &self,
        now: SimTime,
        config: &CountingConfig,
    ) -> Windowed<PopulationView> {
        let evidence = self.population_evidence(now, config);
        let view = finalize_population(now, config, &evidence.value);
        {
            let mut state = self.state.lock();
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
            complete: evidence.complete,
            floor: evidence.floor,
        }
    }

    /// Entries (reports + assignments) dropped by retention compaction so
    /// far. Always zero with unbounded retention.
    pub fn compacted_entries(&self) -> u64 {
        let state = self.state.lock();
        state.logs.values().map(|log| log.compacted).sum::<u64>()
            + state.assignments.values().map(|h| h.compacted).sum::<u64>()
    }

    /// All retained reports whose timestamps fall in `[from, to)`, sorted
    /// by `(time, device, seq)` — the database's time-range query. Each
    /// device's contribution is located by binary search; only the rows in
    /// the window are cloned, and only while the lock is held.
    pub fn reports_between(&self, from: SimTime, to: SimTime) -> Vec<ObservationReport> {
        let state = self.state.lock();
        let mut rows: Vec<ObservationReport> = state
            .logs
            .values()
            .flat_map(|log| log.window(from, to).cloned())
            .collect();
        rows.sort_by_key(|r| (r.at, r.device, r.seq));
        rows
    }

    /// [`reports_between`](Self::reports_between) with an explicit
    /// completeness flag, merged with the archive tier when one is
    /// attached: archived reports in range are unioned with the live rows
    /// (deduped by `(device, seq)` — a record replayed after a crash can
    /// transiently exist on both sides). Exact iff `from` is at or after
    /// [`historical_floor`](Self::historical_floor).
    pub fn reports_between_checked(
        &self,
        from: SimTime,
        to: SimTime,
    ) -> Windowed<Vec<ObservationReport>> {
        let mut value = self.reports_between(from, to);
        if let Some(archive) = &self.archive {
            let live: BTreeSet<(DeviceId, u64)> =
                value.iter().map(|r| (r.device, r.seq)).collect();
            let mut sink = archive.lock();
            let corruptions_before = sink.read_corruptions();
            for report in sink.reports_between(from, to) {
                if !live.contains(&(report.device, report.seq)) {
                    value.push(report);
                }
            }
            let corrupt_reads = sink.read_corruptions() - corruptions_before;
            drop(sink);
            if corrupt_reads > 0 {
                self.state
                    .lock()
                    .telemetry
                    .add(keys::BMS_ARCHIVE_READ_CORRUPTIONS, corrupt_reads);
            }
            value.sort_by_key(|r| (r.at, r.device, r.seq));
        }
        // After the read, which audits segments and may demote the sink.
        let floor = self.historical_floor();
        let complete = floor.is_none_or(|f| from >= f);
        Windowed {
            value,
            complete,
            floor,
        }
    }

    /// The archive's downsampled per-room summary over `[from, to)` — read
    /// from sealed segment footers without decoding a record. Empty when no
    /// archive is attached.
    pub fn archive_summary(&self, from: SimTime, to: SimTime) -> BTreeMap<RoomLabel, u64> {
        self.archive
            .as_ref()
            .map(|a| a.lock().occupancy_summary(from, to))
            .unwrap_or_default()
    }

    /// The archive sink's counters, when one is attached.
    pub fn archive_stats(&self) -> Option<ArchiveStats> {
        self.archive.as_ref().map(|a| a.lock().stats())
    }

    /// Number of retained reports (equal to the number ever stored while
    /// retention is unbounded).
    pub fn report_count(&self) -> usize {
        self.state.lock().retained_reports()
    }

    /// Server counters.
    pub fn stats(&self) -> ServerStats {
        self.state.lock().stats
    }

    /// A clone of the server's telemetry recorder (counters + dedup/
    /// checkpoint journal), ready to merge into a run-wide recorder.
    pub fn telemetry_snapshot(&self) -> Recorder {
        self.state.lock().telemetry.clone()
    }

    /// The classified `(time, room)` history of one device, in report-time
    /// order — feed it to
    /// [`MovementAnalytics`](crate::MovementAnalytics::from_history) for
    /// the paper's tracking use-case.
    pub fn assignment_history(&self, device: DeviceId) -> Vec<(SimTime, RoomLabel)> {
        self.state
            .lock()
            .assignments
            .get(&device)
            .map(|history| history.iter().map(|(t, _, room)| (*t, *room)).collect())
            .unwrap_or_default()
    }

    /// One device's `(time, room)` history restricted to `[from, to)` via
    /// binary search — the copy is bounded by the window, not the history.
    pub fn assignment_history_between(
        &self,
        device: DeviceId,
        from: SimTime,
        to: SimTime,
    ) -> Vec<(SimTime, RoomLabel)> {
        self.state
            .lock()
            .assignments
            .get(&device)
            .map(|history| {
                history
                    .window(from, to)
                    .map(|(t, _, room)| (*t, *room))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// All retained reports from one device, in report-time order.
    pub fn reports_for(&self, device: DeviceId) -> Vec<ObservationReport> {
        self.state
            .lock()
            .logs
            .get(&device)
            .map(|log| log.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// One device's reports restricted to `[from, to)` via binary search —
    /// the copy is bounded by the window, not the log.
    pub fn reports_for_between(
        &self,
        device: DeviceId,
        from: SimTime,
        to: SimTime,
    ) -> Vec<ObservationReport> {
        self.state
            .lock()
            .logs
            .get(&device)
            .map(|log| log.window(from, to).cloned().collect())
            .unwrap_or_default()
    }

    /// A canonical per-device dump of the full server state plus the
    /// counters — the raw material for [`state_digest`](Self::state_digest)
    /// and for the sharded server's merged digest (shards own disjoint
    /// device sets, so their dumps union without conflict).
    pub(crate) fn state_dump(&self) -> (BTreeMap<DeviceId, String>, ServerStats) {
        let state = self.state.lock();
        let marks = self.archive.as_ref().map(|a| a.lock().marks().clone());
        state.dump(marks.as_ref())
    }

    /// A deterministic FNV-1a digest over the canonical state dump (logs,
    /// occupancy table, histories, dedup windows, counters). Two servers
    /// with byte-identical state — e.g. a sharded fleet vs a single server
    /// fed the same per-device streams — produce the same digest.
    pub fn state_digest(&self) -> u64 {
        let (dumps, stats) = self.state_dump();
        digest_state(&dumps, stats)
    }
}

/// FNV-1a over the canonical per-device dumps (in `DeviceId` order) and the
/// merged counters. Shared by [`BmsServer::state_digest`] and the sharded
/// server's merged digest.
pub(crate) fn digest_state(dumps: &BTreeMap<DeviceId, String>, stats: ServerStats) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    };
    for (device, dump) in dumps {
        eat(&device.value().to_le_bytes());
        eat(dump.as_bytes());
    }
    eat(format!("{stats:?}").as_bytes());
    hash
}

impl fmt::Debug for BmsServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.state.lock();
        f.debug_struct("BmsServer")
            .field("reports", &state.retained_reports())
            .field("devices", &state.device_rooms.len())
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
    fn minor_estimator() -> Box<dyn OccupancyEstimator> {
        Box::new(|r: &ObservationReport| {
            r.beacons.first().map(|b| b.identity.minor.value() as usize)
        })
    }

    #[test]
    fn occupancy_counts_latest_room_per_device() {
        let server = BmsServer::new(minor_estimator());
        server.post_observation(report(1, 1, 0));
        server.post_observation(report(2, 1, 0));
        server.post_observation(report(1, 2, 3)); // device 1 moves
        let occ = server.occupancy();
        assert_eq!(occ.get(&0).copied(), Some(1));
        assert_eq!(occ.get(&3).copied(), Some(1));
    }

    #[test]
    fn out_of_order_reports_do_not_regress() {
        let server = BmsServer::new(minor_estimator());
        server.post_observation(report(1, 10, 4));
        server.post_observation(report(1, 5, 0)); // stale
        assert_eq!(server.room_of(DeviceId::new(1)), Some(4));
    }

    #[test]
    fn unclassifiable_reports_are_counted() {
        let server = BmsServer::new(minor_estimator());
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
        let server = BmsServer::new(minor_estimator());
        for i in 0..5 {
            server.post_observation(report(1, i, 0));
        }
        server.post_observation(report(2, 9, 1));
        assert_eq!(server.report_count(), 6);
        assert_eq!(server.reports_for(DeviceId::new(1)).len(), 5);
        assert_eq!(server.retention(), None);
        assert_eq!(server.retention_floor(), None);
        assert_eq!(server.compacted_entries(), 0);
    }

    #[test]
    fn occupancy_at_reconstructs_the_past() {
        let server = BmsServer::new(minor_estimator());
        server.post_observation(report(1, 10, 0));
        server.post_observation(report(1, 30, 2));
        server.post_observation(report(2, 20, 0));
        // Before anything: empty.
        assert!(server.occupancy_at(SimTime::from_secs(5)).is_empty());
        // At t=25: both devices in room 0.
        assert_eq!(server.occupancy_at(SimTime::from_secs(25)).get(&0), Some(&2));
        // At t=40: device 1 moved to room 2.
        let table = server.occupancy_at(SimTime::from_secs(40));
        assert_eq!(table.get(&0), Some(&1));
        assert_eq!(table.get(&2), Some(&1));
    }

    #[test]
    fn occupancy_at_binary_search_matches_linear_reference() {
        let server = BmsServer::new(minor_estimator());
        for (device, at, minor) in [
            (1u32, 10u64, 0u16),
            (1, 30, 2),
            (1, 30, 2),
            (2, 20, 0),
            (2, 45, 3),
            (3, 5, 1),
        ] {
            server.post_observation(report(device, at, minor));
        }
        for t in [0u64, 5, 9, 10, 20, 29, 30, 31, 44, 45, 100] {
            let at = SimTime::from_secs(t);
            assert_eq!(
                server.occupancy_at(at),
                server.occupancy_at_linear(at),
                "diverged at t={t}"
            );
        }
    }

    #[test]
    fn occupancy_view_at_agrees_with_the_live_view_and_enforces_ttl() {
        let server = BmsServer::new(minor_estimator());
        server.post_observation(report(1, 10, 0)); // goes silent
        server.post_observation(report(2, 95, 2)); // fresh at t=100
        let now = SimTime::from_secs(100);
        let ttl = SimDuration::from_secs(30);
        // At `now`, the historical view and the live view agree exactly.
        assert_eq!(server.occupancy_view_at(now, ttl), server.occupancy_view(now, ttl));
        // Historically, the TTL applies relative to the query time: at
        // t=30, device 1's t=10 report is fresh and device 2 is absent.
        let past = server.occupancy_view_at(SimTime::from_secs(30), ttl);
        assert_eq!(past.rooms[&0], RoomPresence { occupants: 1, fresh: 1 });
        assert!(!past.rooms.contains_key(&2));
        // At t=70 device 1 still counts (graceful degradation) but stale.
        let mid = server.occupancy_view_at(SimTime::from_secs(70), ttl);
        assert!(mid.rooms[&0].is_stale());
    }

    #[test]
    fn reports_between_is_half_open() {
        let server = BmsServer::new(minor_estimator());
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
        let server = BmsServer::new(minor_estimator());
        server.post_observation(report(2, 20, 0));
        server.post_observation(report(1, 10, 0));
        server.post_observation(report(1, 30, 1));
        server.post_observation(report(3, 20, 2));
        let rows = server.reports_between(SimTime::ZERO, SimTime::from_secs(100));
        let keys: Vec<(u64, u32)> = rows.iter().map(|r| (r.at.as_millis(), r.device.value())).collect();
        assert_eq!(keys, vec![(10_000, 1), (20_000, 2), (20_000, 3), (30_000, 1)]);
    }

    #[test]
    fn windowed_per_device_queries_bound_the_copy() {
        let server = BmsServer::new(minor_estimator());
        for t in 0..10u64 {
            server.post_observation(report(1, t * 10, (t % 3) as u16));
        }
        let mid = server.reports_for_between(
            DeviceId::new(1),
            SimTime::from_secs(20),
            SimTime::from_secs(50),
        );
        assert_eq!(mid.len(), 3); // t = 20, 30, 40
        assert!(mid.iter().all(|r| r.device == DeviceId::new(1)));
        let history = server.assignment_history_between(
            DeviceId::new(1),
            SimTime::from_secs(20),
            SimTime::from_secs(50),
        );
        assert_eq!(history.len(), 3);
        // Unknown devices yield empty windows.
        assert!(server
            .reports_for_between(DeviceId::new(9), SimTime::ZERO, SimTime::from_secs(99))
            .is_empty());
        assert!(server
            .assignment_history_between(DeviceId::new(9), SimTime::ZERO, SimTime::from_secs(99))
            .is_empty());
    }

    #[test]
    fn retention_bounds_memory_and_flags_truncated_queries() {
        let window = SimDuration::from_secs(60);
        let server = BmsServer::new(minor_estimator()).with_retention(window);
        assert_eq!(server.retention(), Some(window));
        for i in 0..100u64 {
            server.ingest(report(1, i * 10, (i % 3) as u16));
        }
        // 60 s window over 10 s spacing: at most 7 reports retained.
        assert!(server.report_count() <= 7, "retained {}", server.report_count());
        assert!(server.compacted_entries() > 0);
        let floor = server.retention_floor().expect("compaction happened");
        assert_eq!(floor, SimTime::from_secs(990 - 60));
        // Inside the window the reconstruction is exact and says so.
        let recent = server.occupancy_at_checked(SimTime::from_secs(985));
        assert!(recent.complete);
        assert_eq!(recent.value, server.occupancy_at_linear(SimTime::from_secs(985)));
        // Outside the window the answer is explicit about truncation.
        let ancient = server.occupancy_at_checked(SimTime::from_secs(100));
        assert!(!ancient.complete);
        assert_eq!(ancient.floor, Some(floor));
        let old_rows = server.reports_between_checked(SimTime::from_secs(0), SimTime::from_secs(500));
        assert!(!old_rows.complete);
        assert!(old_rows.value.is_empty());
        let fresh_rows =
            server.reports_between_checked(floor, SimTime::from_secs(1000));
        assert!(fresh_rows.complete);
        assert_eq!(fresh_rows.value.len(), server.report_count());
        // The compactor announced itself in telemetry.
        let telemetry = server.telemetry_snapshot();
        assert_eq!(
            telemetry.counter(keys::BMS_RETENTION_COMPACTED),
            server.compacted_entries()
        );
    }

    #[test]
    fn retention_carries_the_last_assignment_for_silent_devices() {
        let server = BmsServer::new(minor_estimator()).with_retention(SimDuration::from_secs(60));
        // Device 1 reports once, then only device 1's *own* stream matters:
        // a long silence must not erase its last-known room.
        server.ingest(report(1, 10, 4));
        for i in 0..50u64 {
            server.ingest(report(1, 1000 + i * 10, 2));
        }
        // The t=10 report is far outside the window, but the carried entry
        // kept "current room" queries correct the whole way.
        assert_eq!(server.room_of(DeviceId::new(1)), Some(2));
        assert_eq!(server.occupancy_at(SimTime::from_secs(5000)).get(&2), Some(&1));
        // And at the window edge the carried entry still answers.
        let floor = server.retention_floor().expect("compacted");
        assert_eq!(server.occupancy_at(floor).len(), 1);
    }

    #[test]
    #[should_panic(expected = "retention window must be non-zero")]
    fn zero_retention_window_panics() {
        let _ = BmsServer::new(minor_estimator()).with_retention(SimDuration::ZERO);
    }

    #[test]
    fn assignment_history_feeds_analytics() {
        let server = BmsServer::new(minor_estimator());
        server.post_observation(report(1, 0, 0));
        server.post_observation(report(1, 10, 0));
        server.post_observation(report(1, 20, 2));
        let history = server.assignment_history(DeviceId::new(1));
        assert_eq!(history.len(), 3);
        let analytics = crate::MovementAnalytics::from_history(&history);
        assert_eq!(analytics.transition_count(), 1);
        assert_eq!(analytics.dwell(0), roomsense_sim::SimDuration::from_secs(20));
        // Unknown devices have empty histories.
        assert!(server.assignment_history(DeviceId::new(9)).is_empty());
    }

    #[test]
    fn occupancy_view_flags_rooms_with_only_expired_evidence() {
        let server = BmsServer::new(minor_estimator());
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
        assert!(!view.is_fully_fresh());
        assert_eq!(server.staleness(SimTime::from_secs(100)), Some(SimDuration::from_secs(90)));
    }

    #[test]
    fn occupancy_view_mixed_evidence_keeps_the_room_fresh() {
        let server = BmsServer::new(minor_estimator());
        server.post_observation(report(1, 10, 0)); // stale contributor
        server.post_observation(report(2, 99, 0)); // fresh contributor
        let view = server.occupancy_view(SimTime::from_secs(100), SimDuration::from_secs(30));
        let presence = view.rooms[&0];
        assert_eq!(presence.occupants, 2);
        assert_eq!(presence.fresh, 1);
        assert!(!presence.is_stale());
        assert!(view.is_fully_fresh());
    }

    #[test]
    fn occupancy_view_counts_match_the_plain_table() {
        let server = BmsServer::new(minor_estimator());
        server.post_observation(report(1, 1, 0));
        server.post_observation(report(2, 2, 0));
        server.post_observation(report(3, 3, 4));
        let view = server.occupancy_view(SimTime::from_secs(5), SimDuration::from_secs(60));
        assert_eq!(view.counts(), server.occupancy());
        assert!(view.is_fully_fresh());
        // An empty server yields an empty, trivially fresh view.
        let empty = BmsServer::new(minor_estimator());
        let view = empty.occupancy_view(SimTime::from_secs(5), SimDuration::from_secs(60));
        assert!(view.rooms.is_empty());
        assert!(view.is_fully_fresh());
        assert_eq!(empty.staleness(SimTime::from_secs(5)), None);
    }

    #[test]
    fn ingest_drops_duplicates_idempotently() {
        let server = BmsServer::new(minor_estimator());
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

    #[test]
    fn ingest_is_reorder_tolerant() {
        // Deliveries arrive newest-first; the final table and the history
        // must look exactly as if they had arrived in order.
        let server = BmsServer::new(minor_estimator());
        let ordered = BmsServer::new(minor_estimator());
        let mut reports: Vec<ObservationReport> =
            (0..10u64).map(|i| report(1, i * 10, (i % 4) as u16)).collect();
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
        let server = BmsServer::new(minor_estimator());
        server.ingest(report(1, 100, 5));
        // A delayed retransmission of an *older* observation arrives later.
        server.ingest(report(1, 10, 0));
        assert_eq!(server.room_of(DeviceId::new(1)), Some(5));
        // Equal report times fall back to seq order.
        let tie = BmsServer::new(minor_estimator());
        tie.ingest(ObservationReport { seq: 2, ..report(1, 50, 7) });
        tie.ingest(ObservationReport { seq: 1, ..report(1, 50, 3) });
        assert_eq!(tie.room_of(DeviceId::new(1)), Some(7));
        // The history orders the tie by seq, so historical queries agree
        // with the live table even at the tied instant.
        assert_eq!(
            tie.occupancy_at(SimTime::from_secs(50)).get(&7),
            Some(&1),
            "history tie-break must match device_rooms"
        );
    }

    #[test]
    fn dedup_window_is_bounded_but_still_catches_recent_duplicates() {
        let server = BmsServer::new(minor_estimator()).with_dedup_capacity(8);
        for i in 0..100u64 {
            server.ingest(ObservationReport { seq: i, ..report(1, i, 0) });
        }
        assert_eq!(server.dedup_entries(), 8);
        // Anything at or below the watermark is treated as already seen.
        assert!(server.ingest(ObservationReport { seq: 5, ..report(1, 5, 0) }).is_duplicate());
        // Recent seqs are matched exactly.
        assert!(server.ingest(ObservationReport { seq: 99, ..report(1, 99, 0) }).is_duplicate());
        assert_eq!(server.report_count(), 100);
    }

    #[test]
    fn checkpoint_restore_replay_converges() {
        let live = BmsServer::new(minor_estimator());
        let mut journal = Vec::new();
        for i in 0..20u64 {
            let r = report(1, i * 10, (i % 3) as u16);
            journal.push(r.clone());
            live.ingest(r);
            if i == 9 {
                // Snapshot mid-run; everything after it is "lost" in the
                // crash below.
                let snapshot = live.checkpoint();
                assert_eq!(snapshot.report_count(), 10);
            }
        }
        // Crash after report 14: restore the t<=90 snapshot and replay the
        // journal from the start — overlap is deduped, the tail re-applied.
        let snapshot = {
            let fresh = BmsServer::new(minor_estimator());
            for r in &journal[..10] {
                fresh.ingest(r.clone());
            }
            fresh.checkpoint()
        };
        let restored =
            BmsServer::restore(minor_estimator(), snapshot).expect("untampered checkpoint");
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
        let window = SimDuration::from_secs(120);
        let server = BmsServer::new(minor_estimator())
            .with_dedup_capacity(16)
            .with_retention(window);
        for i in 0..50u64 {
            server.ingest(report(1, i * 10, 0));
        }
        let snapshot = server.checkpoint();
        assert_eq!(snapshot.retention(), Some(window));
        let restored =
            BmsServer::restore(minor_estimator(), snapshot).expect("untampered checkpoint");
        assert_eq!(restored.dedup_capacity(), 16);
        assert_eq!(restored.retention(), Some(window));
        // The restored server keeps compacting: its digest tracks a server
        // that never crashed through the same (deduped) stream.
        for i in 0..80u64 {
            server.ingest(report(1, i * 10, 0));
            restored.ingest(report(1, i * 10, 0));
        }
        assert_eq!(restored.state_digest(), server.state_digest());
        assert_eq!(restored.report_count(), server.report_count());
    }

    #[test]
    fn compaction_retains_the_exact_cutoff_entry() {
        // Satellite regression: an entry timestamped precisely at the
        // cutoff must be retained, and the live/archived partition must be
        // exact — every entry ends up on exactly one side.
        let mut log: Retained<(SimTime, u64, RoomLabel)> = Retained::default();
        for t in [10u64, 20, 30, 40] {
            log.insert((SimTime::from_secs(t), t, 0usize));
        }
        let dropped = log.compact(SimTime::from_secs(30), false);
        let dropped_ts: Vec<u64> = dropped.iter().map(|e| e.0.as_millis()).collect();
        assert_eq!(dropped_ts, vec![10_000, 20_000], "strictly-older only");
        assert_eq!(
            log.entries.front().map(|e| e.0),
            Some(SimTime::from_secs(30)),
            "the ==cutoff entry is retained"
        );

        // With carry and an entry exactly at the cutoff: the anchor makes
        // the carry redundant, so the pre-cutoff entries are all handed to
        // the archive — none is kept on both sides of the boundary.
        let mut anchored: Retained<(SimTime, u64, RoomLabel)> = Retained::default();
        for t in [10u64, 20, 30, 40] {
            anchored.insert((SimTime::from_secs(t), t, 0usize));
        }
        let dropped = anchored.compact(SimTime::from_secs(30), true);
        assert_eq!(dropped.len(), 2, "anchor at cutoff carries the window");
        assert_eq!(anchored.entries.front().map(|e| e.0), Some(SimTime::from_secs(30)));

        // With carry and no anchor at the cutoff: the newest pre-cutoff
        // entry is carried — and spilled exactly once, when a later
        // compaction finally passes it.
        let mut sparse: Retained<(SimTime, u64, RoomLabel)> = Retained::default();
        for t in [10u64, 20, 40] {
            sparse.insert((SimTime::from_secs(t), t, 0usize));
        }
        let dropped = sparse.compact(SimTime::from_secs(30), true);
        assert_eq!(dropped.iter().map(|e| e.1).collect::<Vec<_>>(), vec![10]);
        assert_eq!(sparse.entries.front().map(|e| e.0), Some(SimTime::from_secs(20)));
        let dropped = sparse.compact(SimTime::from_secs(40), true);
        assert_eq!(
            dropped.iter().map(|e| e.1).collect::<Vec<_>>(),
            vec![20],
            "the carried entry spills exactly once"
        );
    }

    #[test]
    fn restore_rejects_a_forged_digest() {
        let server = BmsServer::new(minor_estimator());
        for i in 0..10u64 {
            server.ingest(report(1, i * 10, 0));
        }
        let good = server.checkpoint();
        let embedded = good.digest();
        assert!(BmsServer::restore(minor_estimator(), good.clone()).is_ok());
        let forged = good.forge_digest(embedded ^ 0xdead_beef);
        let err = BmsServer::restore(minor_estimator(), forged)
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
    fn archive_answers_history_below_the_retention_floor_exactly() {
        use roomsense_sim::{SharedDisk, SimDisk};
        let window = SimDuration::from_secs(60);
        // Deliberately env-sensitive: under the ROOMSENSE_DISK_FAULTS chaos
        // knob this disk misbehaves and the test degrades to the universal
        // contract — complete answers are exact, loss is flagged.
        let disk = SharedDisk::new(SimDisk::new(11));
        let chaotic = !disk.fault_plan().is_empty();
        let sink = crate::ArchiveSink::new(disk, crate::ArchiveConfig::default());
        let server = BmsServer::new(minor_estimator())
            .with_retention(window)
            .with_archive(sink);
        let oracle = BmsServer::new(minor_estimator()); // unbounded memory
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
        let all = server.reports_between_checked(SimTime::ZERO, SimTime::from_secs(2000));
        if all.complete {
            assert_eq!(all.value.len(), 100, "live + archived rows union exactly");
        } else {
            assert!(chaotic, "a faithful disk must answer completely");
            assert!(all.value.len() <= 100, "never invent rows");
        }
        let stats = server.archive_stats().expect("archive attached");
        assert!(stats.records > 0);
        assert!(stats.segments_sealed > 0);
        assert!(
            !server
                .archive_summary(SimTime::ZERO, SimTime::from_secs(2000))
                .is_empty()
        );
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
        let config = crate::ArchiveConfig {
            segment_records: 16,
            ..crate::ArchiveConfig::default()
        };
        let disk = SharedDisk::new(SimDisk::pristine(12));
        let live = BmsServer::new(minor_estimator())
            .with_retention(window)
            .with_archive(crate::ArchiveSink::new(disk.clone(), config.clone()));
        let oracle_disk = SharedDisk::new(SimDisk::pristine(12));
        let oracle = BmsServer::new(minor_estimator())
            .with_retention(window)
            .with_archive(crate::ArchiveSink::new(oracle_disk, config.clone()));
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
        let (sink, recovery) = crate::ArchiveSink::recover(disk, config);
        let (restored, coverage) = BmsServer::restore_with_archive(
            minor_estimator(),
            snapshot.expect("taken at i=80"),
            sink,
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
    fn concurrent_posts_are_safe() {
        use std::sync::Arc;
        let server = Arc::new(BmsServer::new(minor_estimator()));
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

        /// The window as it was first written: a `BTreeSet` of exact seqs.
        /// Named `DedupWindow` so its derived `Debug` is the text the
        /// sorted-run window must keep printing.
        mod reference {
            #[derive(Debug, Default)]
            pub struct DedupWindow {
                pub watermark: Option<u64>,
                pub seen: std::collections::BTreeSet<u64>,
            }

            impl DedupWindow {
                pub fn check_and_insert(&mut self, seq: u64, capacity: usize) -> bool {
                    if let Some(watermark) = self.watermark {
                        if seq <= watermark {
                            return false;
                        }
                    }
                    if !self.seen.insert(seq) {
                        return false;
                    }
                    while self.seen.len() > capacity {
                        let lowest = *self.seen.iter().next().expect("non-empty");
                        self.seen.remove(&lowest);
                        self.watermark = Some(self.watermark.map_or(lowest, |w| w.max(lowest)));
                    }
                    true
                }
            }
        }

        proptest! {
            /// Verdicts, size, watermark and `Debug` text match the
            /// `BTreeSet` model for streams mixing in-order seqs,
            /// duplicates, stragglers and seqs below the watermark.
            #[test]
            fn sorted_run_window_matches_the_btreeset_model(
                capacity in 1usize..8,
                steps in prop::collection::vec((0u64..4, 0u64..12), 0..80),
            ) {
                let mut window = DedupWindow::default();
                let mut model = reference::DedupWindow::default();
                let mut cursor = 0u64;
                for (advance, lag) in steps {
                    cursor += advance;
                    let seq = cursor.saturating_sub(lag);
                    prop_assert_eq!(
                        window.check_and_insert(seq, capacity),
                        model.check_and_insert(seq, capacity),
                        "seq {}", seq
                    );
                    prop_assert_eq!(window.len(), model.seen.len());
                    prop_assert_eq!(window.watermark, model.watermark);
                    prop_assert_eq!(format!("{window:?}"), format!("{model:?}"));
                    prop_assert_eq!(format!("{window:#?}"), format!("{model:#?}"));
                }
            }

            /// The running retention floor equals the maximum floor over
            /// every device's log and history, recomputed by a full scan,
            /// after every ingest (stragglers and unclassifiable reports
            /// included) and across checkpoint/restore.
            #[test]
            fn running_retention_floor_matches_the_full_scan(
                window_s in 1u64..60,
                steps in prop::collection::vec(
                    (0u32..4, 0u64..40, 0u64..20, prop::option::of(0u16..3), 0u8..16),
                    0..80,
                ),
            ) {
                let scanned = |server: &BmsServer| {
                    let state = server.state.lock();
                    state
                        .logs
                        .values()
                        .filter_map(|log| log.floor)
                        .chain(state.assignments.values().filter_map(|h| h.floor))
                        .max()
                };
                let mut server = BmsServer::new(minor_estimator())
                    .with_retention(SimDuration::from_secs(window_s));
                let mut clock = 0u64;
                for (seq, (device, advance, lag, minor, restore)) in steps.into_iter().enumerate() {
                    clock += advance;
                    let base = report(device, clock.saturating_sub(lag), minor.unwrap_or(0));
                    let beacons = if minor.is_some() { base.beacons } else { vec![] };
                    server.ingest(ObservationReport {
                        seq: seq as u64,
                        beacons,
                        ..base
                    });
                    prop_assert_eq!(server.retention_floor(), scanned(&server));
                    if restore == 0 {
                        let checkpoint = server.checkpoint();
                        server = BmsServer::restore(minor_estimator(), checkpoint)
                            .expect("untampered checkpoint");
                        prop_assert_eq!(server.retention_floor(), scanned(&server));
                    }
                }
            }
        }
    }
}
