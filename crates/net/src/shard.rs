//! One shard of the BMS: the records of a disjoint device set behind one
//! lock, and the archive their compaction spills into.
//!
//! A shard does only what needs no other shard: it ingests (dedup,
//! last-writer-wins classification, the log insert), compacts each
//! device's history against that device's own newest report, and spills
//! the classifications compaction drops into its archive. Every query is
//! one fold over the shards in
//! [`ShardedBmsServer`](crate::ShardedBmsServer). Because every
//! per-device invariant depends only on that device's stream, the fold
//! gives the same answer whatever the shard count.

use crate::archive::{ArchiveSink, DeviceMark};
use crate::bms::{IngestOutcome, OccupancyEstimator, RoomLabel, ServerStats};
use crate::{DeviceId, ObservationReport};
use parking_lot::Mutex;
use roomsense_sim::{SimDuration, SimTime};
use roomsense_telemetry::{keys, Recorder, TelemetryEvent};
use std::collections::vec_deque::Drain;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// The deterministic shard key: FNV-1a over the little-endian device id.
/// Pure data — no hasher state, no platform dependence — so a device maps
/// to the same shard in every run and on every node.
pub(crate) fn device_hash(device: DeviceId) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in device.value().to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
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

    pub(crate) fn len(&self) -> usize {
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
pub(crate) trait Chronological {
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
pub(crate) struct Retained<T> {
    entries: VecDeque<T>,
    /// Entries dropped by compaction so far.
    pub(crate) compacted: u64,
    /// Queries at or after this instant see every relevant entry; earlier
    /// ones may be missing compacted records. `None` until the first drop.
    pub(crate) floor: Option<SimTime>,
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
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.entries.iter()
    }

    /// Inserts in `(time, seq)` order; equal keys keep arrival order.
    fn insert(&mut self, item: T) {
        let key = item.chrono_key();
        let position = self.entries.partition_point(|e| e.chrono_key() <= key);
        self.entries.insert(position, item);
    }

    /// Drops entries strictly older than `cutoff`, raises the floor, and
    /// hands back the dropped entries (oldest first), so the caller can
    /// spill them into an archive instead of losing them. They leave the
    /// buffer even if the caller only counts them.
    ///
    /// With `carry_last`, the newest pre-cutoff entry survives — an
    /// assignment history needs it so "last room at or before `t`" stays
    /// correct for every `t >= cutoff` even when the device has been silent
    /// for longer than the window. An entry timestamped **exactly at** the
    /// cutoff is always retained and anchors the window by itself: carrying
    /// an extra pre-cutoff entry past it would keep a record the archive is
    /// owed, putting the same record on both sides of the live/archived
    /// boundary later.
    fn compact(&mut self, cutoff: SimTime, carry_last: bool) -> Drain<'_, T> {
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
        if drop_to > 0 {
            self.compacted += drop_to as u64;
            self.floor = Some(self.floor.map_or(cutoff, |f| f.max(cutoff)));
        }
        self.entries.drain(..drop_to)
    }

    /// The entries whose time falls in the half-open window `[from, to)`.
    pub(crate) fn window(&self, from: SimTime, to: SimTime) -> impl Iterator<Item = &T> {
        let start = self.entries.partition_point(|e| e.chrono_at() < from);
        let end = self.entries.partition_point(|e| e.chrono_at() < to);
        self.entries.range(start..end.max(start))
    }

    /// The newest entry with time at or before `at`, by binary search.
    pub(crate) fn last_at_or_before(&self, at: SimTime) -> Option<&T> {
        let index = self.entries.partition_point(|e| e.chrono_at() <= at);
        index.checked_sub(1).map(|i| &self.entries[i])
    }

    /// Direct access to the entries, for tests that corrupt a snapshot.
    #[cfg(test)]
    pub(crate) fn entries_mut(&mut self) -> &mut VecDeque<T> {
        &mut self.entries
    }
}

/// Everything a shard holds about one device, so a classified ingest finds
/// all of it with one map lookup.
#[derive(Debug, Clone, Default)]
pub(crate) struct DeviceRecord {
    /// Latest classified `(report time, seq, room)` — last writer wins on
    /// *report* time (seq breaks exact ties), never on arrival time.
    /// `None` until the device is first classified.
    pub(crate) room: Option<(SimTime, u64, RoomLabel)>,
    /// Every classification as `(report time, seq, room)` — the raw
    /// material for movement analytics, kept in `(time, seq)` order so
    /// reordered arrivals cannot corrupt the history. `None` until the
    /// device is first classified.
    pub(crate) history: Option<Retained<(SimTime, u64, RoomLabel)>>,
    /// The observation log, sorted by `(report time, seq)` and bounded by
    /// the retention window when one is configured.
    pub(crate) log: Retained<ObservationReport>,
    /// The dedup window; `None` for a device only ever posted through the
    /// trusting path.
    pub(crate) dedup: Option<DedupWindow>,
}

impl DeviceRecord {
    /// Applies a classified report to the current room and the history.
    fn classify(&mut self, report: &ObservationReport, label: RoomLabel) {
        // Only move forward in report time (out-of-order arrivals happen
        // with retrying transports); seq breaks exact ties.
        if self
            .room
            .is_none_or(|(at, seq, _)| (report.at, report.seq) >= (at, seq))
        {
            self.room = Some((report.at, report.seq, label));
        }
        self.history
            .get_or_insert_with(Retained::default)
            .insert((report.at, report.seq, label));
    }

    /// Retention compaction of log and history against the device's newest
    /// report; the cutoff depends only on this device's stream, so it is
    /// identical however the fleet is sharded. Returns the cutoff, how many
    /// entries log and history dropped together, and the dropped
    /// assignments for the archive; the dropped reports are gone.
    fn compact(&mut self, window: SimDuration) -> (SimTime, u64, Spill) {
        let newest = self
            .log
            .entries
            .back()
            .expect("compacted right after an insert")
            .at
            .as_millis();
        let cutoff = SimTime::from_millis(newest.saturating_sub(window.as_millis()));
        let reports = self.log.compact(cutoff, false).count();
        let spill: Spill = self
            .history
            .as_mut()
            .map(|history| history.compact(cutoff, true).collect())
            .unwrap_or_default();
        (cutoff, (reports + spill.len()) as u64, spill)
    }

    /// The record in the text every state digest hashes: the `Debug` form
    /// of its four fields, `|`-separated, each `None` when absent. Every
    /// arm checksum and committed digest rests on this exact text.
    fn dump(record: Option<&DeviceRecord>) -> String {
        format!(
            "{:?}|{:?}|{:?}|{:?}",
            record.and_then(|r| r.room.as_ref()),
            record.and_then(|r| r.history.as_ref()),
            record.map(|r| &r.log),
            record.and_then(|r| r.dedup.as_ref()),
        )
    }
}

/// One shard's state; snapshotted whole by a checkpoint.
#[derive(Debug, Clone, Default)]
pub(crate) struct ServerState {
    /// One record per device this shard owns.
    pub(crate) devices: BTreeMap<DeviceId, DeviceRecord>,
    /// The highest floor any log or history compaction has set: the
    /// retention low-watermark, kept as compaction raises it so reading it
    /// scans nothing.
    pub(crate) floor: Option<SimTime>,
    pub(crate) stats: ServerStats,
    /// Server-side metrics and structured event journal; snapshotted and
    /// restored along with the rest of the state.
    pub(crate) telemetry: Recorder,
}

impl ServerState {
    pub(crate) fn retained_reports(&self) -> usize {
        self.devices.values().map(|r| r.log.len()).sum()
    }

    /// Applies one report: the dedup check when `dedup_capacity` is given,
    /// then — only for a report that passed it — the classification by
    /// `estimator`, the log insert and the retention compaction. Returns
    /// `None` for a duplicate, else the room and the assignments compaction
    /// handed off for archival.
    fn apply(
        &mut self,
        report: ObservationReport,
        estimator: &dyn OccupancyEstimator,
        dedup_capacity: Option<usize>,
        retention: Option<SimDuration>,
    ) -> Option<(Option<RoomLabel>, Spill)> {
        let device = report.device;
        let record = self.devices.entry(device).or_default();
        if let Some(capacity) = dedup_capacity {
            let window = record.dedup.get_or_insert_with(DedupWindow::default);
            if !window.check_and_insert(report.seq, capacity) {
                self.stats.reports_duplicate += 1;
                self.telemetry.incr(keys::BMS_INGEST_DUPLICATES);
                self.telemetry.record_event(TelemetryEvent::DedupHit {
                    device: device.value(),
                    seq: report.seq,
                });
                return None;
            }
        }
        self.stats.reports_stored += 1;
        self.telemetry.incr(keys::BMS_INGEST_ACCEPTED);
        let room = estimator.classify(&report);
        match room {
            Some(label) => record.classify(&report, label),
            None => self.stats.reports_unclassified += 1,
        }
        record.log.insert(report);
        let Some(window) = retention else {
            return Some((room, Spill::default()));
        };
        let (cutoff, dropped, spill) = record.compact(window);
        if dropped > 0 {
            // Either compaction that dropped an entry set its floor to at
            // least `cutoff`; floors only rise.
            self.floor = Some(self.floor.map_or(cutoff, |f| f.max(cutoff)));
            self.telemetry.add(keys::BMS_RETENTION_COMPACTED, dropped);
        }
        Some((room, spill))
    }

    /// The canonical per-device dump of this state (plus, when archive
    /// `marks` are given, each device's archive position) — the raw
    /// material of every digest.
    pub(crate) fn dump(
        &self,
        marks: Option<&BTreeMap<DeviceId, DeviceMark>>,
    ) -> (BTreeMap<DeviceId, String>, ServerStats) {
        let mut devices: BTreeSet<DeviceId> = self.devices.keys().copied().collect();
        if let Some(marks) = marks {
            devices.extend(marks.keys().copied());
        }
        let dumps = devices
            .into_iter()
            .map(|device| {
                let mut dump = DeviceRecord::dump(self.devices.get(&device));
                if let Some(mark) = marks.and_then(|m| m.get(&device)) {
                    dump.push_str(&format!("|archive:{}:{:016x}", mark.records, mark.digest));
                }
                (device, dump)
            })
            .collect();
        (dumps, self.stats)
    }
}

/// The assignments `(at, seq, room)` one compaction pass handed off for
/// archival, all belonging to a single device.
type Spill = Vec<(SimTime, u64, RoomLabel)>;

/// One shard: its state behind one lock and the durable tier retention
/// compaction spills into. Lock order is always `state` before `archive`;
/// never the reverse.
pub(crate) struct Shard {
    pub(crate) state: Mutex<ServerState>,
    pub(crate) archive: Option<Mutex<ArchiveSink>>,
}

impl Shard {
    pub(crate) fn new(state: ServerState, archive: Option<ArchiveSink>) -> Self {
        Shard {
            state: Mutex::new(state),
            archive: archive.map(Mutex::new),
        }
    }

    /// Ingests one report, classifying it only once it has passed the
    /// dedup check (see [`ServerState::apply`]), and spills whatever
    /// compaction dropped.
    pub(crate) fn ingest(
        &self,
        report: ObservationReport,
        estimator: &dyn OccupancyEstimator,
        dedup_capacity: Option<usize>,
        retention: Option<SimDuration>,
    ) -> IngestOutcome {
        let device = report.device;
        let mut state = self.state.lock();
        match state.apply(report, estimator, dedup_capacity, retention) {
            None => IngestOutcome::Duplicate,
            Some((room, spill)) => {
                self.spill_to_archive(&mut state, device, spill);
                IngestOutcome::Accepted { room }
            }
        }
    }

    /// Appends one compaction pass's evicted assignments to the archive
    /// (when one is attached), crediting the telemetry counters. Expects
    /// the state lock held — the archive lock nests inside it.
    fn spill_to_archive(&self, state: &mut ServerState, device: DeviceId, spill: Spill) {
        let Some(archive) = &self.archive else { return };
        let outcome = archive.lock().append_spill(device, &spill);
        if outcome.appended > 0 {
            state
                .telemetry
                .add(keys::BMS_ARCHIVE_RECORDS, outcome.appended);
        }
        if outcome.suppressed > 0 {
            state
                .telemetry
                .add(keys::BMS_ARCHIVE_RESPILL_SUPPRESSED, outcome.suppressed);
        }
        if outcome.bytes > 0 {
            state.telemetry.add(keys::BMS_ARCHIVE_BYTES, outcome.bytes);
        }
        if outcome.sealed > 0 {
            state
                .telemetry
                .add(keys::BMS_ARCHIVE_SEGMENTS_SEALED, outcome.sealed);
        }
    }

    /// Runs one archive read (when an archive is attached) and credits the
    /// corrupt segments it met to this shard's telemetry.
    pub(crate) fn read_archive<T>(&self, read: impl FnOnce(&mut ArchiveSink) -> T) -> Option<T> {
        let mut sink = self.archive.as_ref()?.lock();
        let corruptions_before = sink.read_corruptions();
        let value = read(&mut sink);
        let corrupt_reads = sink.read_corruptions() - corruptions_before;
        drop(sink);
        if corrupt_reads > 0 {
            self.state
                .lock()
                .telemetry
                .add(keys::BMS_ARCHIVE_READ_CORRUPTIONS, corrupt_reads);
        }
        Some(value)
    }

    /// The oldest instant this shard's classification history answers
    /// exactly: `None` when a healed archive holds every assignment
    /// compaction spilled (or nothing was ever compacted), else the
    /// retention floor.
    pub(crate) fn historical_floor(&self) -> Option<SimTime> {
        let floor = self.state.lock().floor;
        match self.archive.as_ref().map(|a| a.lock().healed()) {
            Some(true) => None,
            _ => floor,
        }
    }

    /// The shard's canonical dump, archive marks included.
    pub(crate) fn dump(&self) -> (BTreeMap<DeviceId, String>, ServerStats) {
        let state = self.state.lock();
        let marks = self.archive.as_ref().map(|a| a.lock().marks());
        state.dump(marks.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compaction_retains_the_exact_cutoff_entry() {
        // Satellite regression: an entry timestamped precisely at the
        // cutoff must be retained, and the live/archived partition must be
        // exact — every entry ends up on exactly one side.
        let mut log: Retained<(SimTime, u64, RoomLabel)> = Retained::default();
        for t in [10u64, 20, 30, 40] {
            log.insert((SimTime::from_secs(t), t, 0usize));
        }
        let dropped = log
            .compact(SimTime::from_secs(30), false)
            .collect::<Vec<_>>();
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
        let dropped = anchored
            .compact(SimTime::from_secs(30), true)
            .collect::<Vec<_>>();
        assert_eq!(dropped.len(), 2, "anchor at cutoff carries the window");
        assert_eq!(
            anchored.entries.front().map(|e| e.0),
            Some(SimTime::from_secs(30))
        );

        // With carry and no anchor at the cutoff: the newest pre-cutoff
        // entry is carried — and spilled exactly once, when a later
        // compaction finally passes it.
        let mut sparse: Retained<(SimTime, u64, RoomLabel)> = Retained::default();
        for t in [10u64, 20, 40] {
            sparse.insert((SimTime::from_secs(t), t, 0usize));
        }
        let dropped = sparse
            .compact(SimTime::from_secs(30), true)
            .collect::<Vec<_>>();
        assert_eq!(dropped.iter().map(|e| e.1).collect::<Vec<_>>(), vec![10]);
        assert_eq!(
            sparse.entries.front().map(|e| e.0),
            Some(SimTime::from_secs(20))
        );
        let dropped = sparse
            .compact(SimTime::from_secs(40), true)
            .collect::<Vec<_>>();
        assert_eq!(
            dropped.iter().map(|e| e.1).collect::<Vec<_>>(),
            vec![20],
            "the carried entry spills exactly once"
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// The window as it was first written: a `BTreeSet` of exact seqs.
        /// Named `DedupWindow` so its derived `Debug` is the text the
        /// sorted-run window must keep printing.
        mod reference {
            #[derive(Debug, Default)]
            pub(crate) struct DedupWindow {
                pub(crate) watermark: Option<u64>,
                pub(crate) seen: std::collections::BTreeSet<u64>,
            }

            impl DedupWindow {
                pub(crate) fn check_and_insert(&mut self, seq: u64, capacity: usize) -> bool {
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
        }
    }
}
