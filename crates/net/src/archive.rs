//! The durable archive tier below retention compaction.
//!
//! [`ShardedBmsServer::with_retention`](crate::ShardedBmsServer::with_retention)
//! bounds live memory by dropping each device's oldest reports and
//! classifications — and with them the ability to answer `occupancy_at`
//! below the low watermark. An [`ArchiveSink`] turns the classification
//! drop into a **spill**: every compacted room assignment is appended to a
//! checksummed segment log on a [`SharedDisk`], so historical occupancy
//! answers *exactly* from cold storage while the hot path keeps its
//! `retention_cap` memory bound. Compacted reports are not archived:
//! nothing below the retention floor reads them.
//!
//! # On-disk format
//!
//! One sink owns a family of segment files, `{prefix}seg-{index:08}`. A
//! segment is a sequence of framed records:
//!
//! ```text
//! [0xA7][kind u8][len u32 LE][payload len bytes][crc u64 LE]
//! ```
//!
//! where `crc` is FNV-1a over `kind || len || payload`. Payload kinds:
//!
//! * **assignment** (`1`): device, seq, report time, room label — the
//!   classification history `occupancy_at` reconstructs the past from;
//! * **footer** (`2`): record count, time bounds and segment digest. A
//!   segment ending in a valid footer is **sealed** and fsynced; recovery
//!   checks the count and digest against the records it scanned.
//!
//! Any other kind, the retired report kind `0` included, is corruption
//! even under a valid CRC.
//!
//! # Recovery invariants
//!
//! [`ArchiveSink::recover`] scans every segment front to back, truncates the
//! file at the **first corrupt record** (torn tail, short write, flipped
//! byte — anything the CRC rejects), verifies sealed footers against the
//! recomputed record count and digest, and rebuilds the per-device marks
//! and re-spill dedup windows from what survived. Because appends are
//! strictly sequential per sink and fsync order matches append order, the
//! surviving records are always a **prefix** of each segment — so
//! [`verify_covers`](ArchiveSink::verify_covers) can compare the recovered
//! per-device running digests against the marks a checkpoint embedded and
//! decide, exactly, whether the archive still covers everything the
//! checkpoint promised. Covered means historical answers are *exact*;
//! anything else is reported as loss, never silently absorbed.

use crate::shard::DedupWindow;
use crate::{DeviceId, RoomLabel};
use roomsense_sim::{FileId, SharedDisk, SimTime};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

const RECORD_MAGIC: u8 = 0xA7;
/// Magic, kind and the `u32` payload length.
const FRAME_HEADER: usize = 1 + 1 + 4;
const KIND_ASSIGNMENT: u8 = 1;
const KIND_FOOTER: u8 = 2;

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

pub(crate) fn fnv_fold(hash: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// One [`fnv_fold`] of `bytes` into each of `hashes`, in a single pass: the
/// states are independent, so their multiply chains overlap.
fn fnv_fold_each<const N: usize>(hashes: &mut [u64; N], bytes: &[u8]) {
    for &byte in bytes {
        for hash in hashes.iter_mut() {
            *hash ^= u64::from(byte);
            *hash = hash.wrapping_mul(FNV_PRIME);
        }
    }
}

/// Configuration for one `ArchiveSink`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchiveConfig {
    /// Segment-file name prefix; one sink must own its prefix exclusively.
    pub prefix: String,
    /// Records per segment before it is sealed and fsynced.
    pub segment_records: u32,
    /// Capacity of each device's re-spill dedup window.
    pub dedup_capacity: usize,
}

impl Default for ArchiveConfig {
    fn default() -> Self {
        ArchiveConfig {
            prefix: "bms/".to_string(),
            segment_records: 64,
            dedup_capacity: 4096,
        }
    }
}

impl ArchiveConfig {
    /// The same configuration scoped to one shard's private prefix.
    pub(crate) fn for_shard(&self, shard: usize) -> ArchiveConfig {
        ArchiveConfig {
            prefix: format!("{}shard-{shard:04}/", self.prefix),
            ..self.clone()
        }
    }
}

/// Per-device archive position: how many records this device has archived
/// and the running FNV-1a digest over their kind and payload bytes, in
/// spill order. Embedded into checkpoints so recovery can prove coverage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct DeviceMark {
    /// Records archived for this device.
    pub(crate) records: u64,
    /// Running digest over `kind || payload` of each record, in order.
    pub(crate) digest: u64,
}

impl DeviceMark {
    /// Folds one more assignment record's `payload` bytes (behind its kind
    /// byte).
    fn fold(&mut self, payload: &[u8]) {
        fnv_fold(&mut self.digest, &[KIND_ASSIGNMENT]);
        fnv_fold(&mut self.digest, payload);
        self.records += 1;
    }
}

/// One device's archive slot: its mark and its re-spill dedup window, so a
/// spill looks the device up once.
#[derive(Debug)]
struct DeviceArchive {
    mark: DeviceMark,
    dedup: DedupWindow,
}

impl Default for DeviceArchive {
    fn default() -> Self {
        DeviceArchive {
            mark: DeviceMark {
                records: 0,
                digest: FNV_OFFSET,
            },
            dedup: DedupWindow::default(),
        }
    }
}

/// What one [`ArchiveSink::append_spill`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SpillOutcome {
    /// Records appended.
    pub(crate) appended: u64,
    /// Re-spilled records the dedup windows suppressed.
    pub(crate) suppressed: u64,
    /// Bytes appended to segment files, footers included.
    pub(crate) bytes: u64,
    /// Segments sealed.
    pub(crate) sealed: u64,
}

/// Counters for one [`ArchiveSink`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArchiveStats {
    /// Assignment records appended.
    pub records: u64,
    /// Segments sealed with a footer.
    pub segments_sealed: u64,
    /// Bytes appended to segment files (frames + footers).
    pub bytes_appended: u64,
    /// Re-spills of already-archived records suppressed by dedup.
    pub respill_suppressed: u64,
}

impl ArchiveStats {
    /// Field-wise sum, for merging per-shard sinks.
    pub(crate) fn merged(self, other: ArchiveStats) -> ArchiveStats {
        ArchiveStats {
            records: self.records + other.records,
            segments_sealed: self.segments_sealed + other.segments_sealed,
            bytes_appended: self.bytes_appended + other.bytes_appended,
            respill_suppressed: self.respill_suppressed + other.respill_suppressed,
        }
    }
}

/// What one [`ArchiveSink::recover`] scan found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Segment files scanned.
    pub segments: usize,
    /// Valid records recovered across every segment.
    pub(crate) records: u64,
    /// Segments truncated at a corrupt record.
    pub truncated_segments: usize,
    /// Bytes discarded by those truncations.
    pub truncated_bytes: u64,
    /// Sealed footers whose recomputed count or digest disagreed.
    pub footer_mismatches: usize,
}

impl RecoveryReport {
    /// True when the scan found nothing to repair.
    pub fn clean(&self) -> bool {
        self.truncated_segments == 0 && self.footer_mismatches == 0
    }

    /// Field-wise sum, for merging per-shard recoveries.
    pub(crate) fn merged(self, other: RecoveryReport) -> RecoveryReport {
        RecoveryReport {
            segments: self.segments + other.segments,
            records: self.records + other.records,
            truncated_segments: self.truncated_segments + other.truncated_segments,
            truncated_bytes: self.truncated_bytes + other.truncated_bytes,
            footer_mismatches: self.footer_mismatches + other.footer_mismatches,
        }
    }
}

/// The verdict of [`ArchiveSink::verify_covers`]: does the recovered
/// archive still hold everything a checkpoint's marks promised?
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Coverage {
    /// True when every marked device's records are present and their
    /// running digest passes exactly through the mark.
    pub covered: bool,
    /// Records the marks promised that the disk no longer holds.
    pub missing_records: u64,
    /// Devices whose surviving records *diverged* from the mark digest
    /// (corruption the CRC caught was truncated; this counts prefix-level
    /// disagreement, which should never happen with an honest prefix).
    pub diverged_devices: u64,
}

impl Coverage {
    /// Field-wise merge for per-shard verdicts: the fleet is covered only
    /// if every shard is.
    pub(crate) fn merged(self, other: Coverage) -> Coverage {
        Coverage {
            covered: self.covered && other.covered,
            missing_records: self.missing_records + other.missing_records,
            diverged_devices: self.diverged_devices + other.diverged_devices,
        }
    }
}

/// One sealed segment, and whether the history index holds its decode.
#[derive(Debug)]
struct SegmentMeta {
    name: String,
    /// The decode behind the assignment index, `None` until a history
    /// query first needs this segment.
    memo: Option<SegmentMemo>,
}

/// What one decode of a sealed segment learned: valid while the file's
/// disk generation still reads `generation`.
#[derive(Debug, Clone, Copy)]
struct SegmentMemo {
    generation: u64,
    /// The scan stopped short of the file's end.
    corrupt: bool,
}

/// One device's archived assignments `(at, seq, room)`, sorted by
/// `(at, seq)`; equal keys keep scan order, so the last of them is the one
/// a front-to-back `>=` fold would keep.
type AssignmentHistory = Vec<(SimTime, u64, RoomLabel)>;

/// Accumulator for the segment currently being appended to.
#[derive(Debug, Default)]
struct ActiveSegment {
    records: u32,
    digest: u64,
    min_at: Option<SimTime>,
    max_at: Option<SimTime>,
}

impl ActiveSegment {
    fn fresh() -> Self {
        ActiveSegment {
            digest: FNV_OFFSET,
            ..ActiveSegment::default()
        }
    }

    /// Folds one assignment record's `payload` (behind its kind byte).
    fn observe(&mut self, payload: &[u8], at: SimTime) {
        fnv_fold(&mut self.digest, &[KIND_ASSIGNMENT]);
        fnv_fold(&mut self.digest, payload);
        self.count(at);
    }

    /// Counts one record at `at` whose bytes `digest` already covers.
    fn count(&mut self, at: SimTime) {
        self.records += 1;
        self.min_at = Some(self.min_at.map_or(at, |m| m.min(at)));
        self.max_at = Some(self.max_at.map_or(at, |m| m.max(at)));
    }
}

/// An append-only, checksummed segment log of compacted room assignments.
///
/// One sink per shard of a [`ShardedBmsServer`](crate::ShardedBmsServer),
/// each under its own `shard-NNNN/` prefix on one [`SharedDisk`]. See the
/// module docs for the format and recovery invariants.
#[derive(Debug)]
pub(crate) struct ArchiveSink {
    disk: SharedDisk,
    config: ArchiveConfig,
    sealed: Vec<SegmentMeta>,
    /// Per device, the archived assignments of every sealed segment that
    /// has a memo (always a prefix of `sealed`).
    history: BTreeMap<DeviceId, AssignmentHistory>,
    /// Sealed-segment decodes made for `history`.
    history_decodes: u64,
    active_index: u64,
    /// File name of segment `active_index`, rebuilt only when it moves.
    active_name: String,
    /// The active segment's file, opened at its first append (so a segment
    /// that was never written is never listed) and dropped when it seals.
    active_file: Option<FileId>,
    active: ActiveSegment,
    /// The frame buffer every append encodes into, reused across records.
    frame: Vec<u8>,
    devices: BTreeMap<DeviceId, DeviceArchive>,
    last_at: SimTime,
    healed: bool,
    read_corruptions: u64,
    stats: ArchiveStats,
}

impl ArchiveSink {
    /// A fresh sink over an empty prefix. Starts `healed` — there is
    /// nothing to have lost yet.
    pub(crate) fn new(disk: SharedDisk, config: ArchiveConfig) -> Self {
        ArchiveSink {
            disk,
            active_name: segment_name(&config.prefix, 0),
            config,
            sealed: Vec::new(),
            history: BTreeMap::new(),
            history_decodes: 0,
            active_index: 0,
            active_file: None,
            active: ActiveSegment::fresh(),
            frame: Vec::new(),
            devices: BTreeMap::new(),
            last_at: SimTime::ZERO,
            healed: true,
            read_corruptions: 0,
            stats: ArchiveStats::default(),
        }
    }

    /// Appends one compaction pass's spill of `device`: its `assignments`
    /// `(at, seq, room)`, in order. An assignment the device's dedup window
    /// has already seen (a journal-replay re-spill) is suppressed. The
    /// device's slot is looked up once for the whole spill.
    pub(crate) fn append_spill(
        &mut self,
        device: DeviceId,
        assignments: &[(SimTime, u64, RoomLabel)],
    ) -> SpillOutcome {
        // An empty spill must not create a slot: every slot's device has
        // at least one archived record, so `marks` lists exactly those.
        if assignments.is_empty() {
            return SpillOutcome::default();
        }
        let before = self.stats;
        // The map is moved out for the spill so the device's slot and the
        // segment writer (the rest of `self`) can be borrowed side by side.
        let mut devices = std::mem::take(&mut self.devices);
        let slot = devices.entry(device).or_default();
        for &(at, seq, room) in assignments {
            if slot.dedup.check_and_insert(seq, self.config.dedup_capacity) {
                begin_frame(&mut self.frame, KIND_ASSIGNMENT);
                write_assignment(&mut self.frame, device, at, seq, room);
                self.commit_frame(&mut slot.mark, at);
            } else {
                self.stats.respill_suppressed += 1;
            }
        }
        self.devices = devices;
        SpillOutcome {
            appended: self.stats.records - before.records,
            suppressed: self.stats.respill_suppressed - before.respill_suppressed,
            bytes: self.stats.bytes_appended - before.bytes_appended,
            sealed: self.stats.segments_sealed - before.segments_sealed,
        }
    }

    /// Finishes the frame in the buffer, folds it into the device `mark`
    /// and the segment digest, and appends it to the active segment,
    /// sealing the segment when it is full.
    fn commit_frame(&mut self, mark: &mut DeviceMark, at: SimTime) {
        [mark.digest, self.active.digest] =
            finish_frame(&mut self.frame, [mark.digest, self.active.digest]);
        mark.records += 1;
        self.active.count(at);
        let file = *self
            .active_file
            .get_or_insert_with(|| self.disk.open(&self.active_name));
        self.disk.append_file(file, at, &self.frame);
        self.stats.bytes_appended += self.frame.len() as u64;
        self.stats.records += 1;
        self.last_at = self.last_at.max(at);
        if self.active.records >= self.config.segment_records {
            self.seal(at);
        }
    }

    /// Seals the full active segment: writes the footer, fsyncs, and moves
    /// on to the next segment, whose file opens at its first append.
    fn seal(&mut self, at: SimTime) {
        let min_at = self.active.min_at.expect("non-empty segment");
        let max_at = self.active.max_at.expect("non-empty segment");
        let footer = encode_footer(self.active.records, min_at, max_at, self.active.digest);
        let frame = frame_record(KIND_FOOTER, &footer);
        let file = self.active_file.take().expect("a written segment is open");
        self.disk.append_file(file, at, &frame);
        self.disk.fsync_file(file, at);
        self.stats.bytes_appended += frame.len() as u64;
        self.stats.segments_sealed += 1;
        self.active = ActiveSegment::fresh();
        let name = std::mem::take(&mut self.active_name);
        self.sealed.push(SegmentMeta { name, memo: None });
        self.active_index += 1;
        self.active_name = segment_name(&self.config.prefix, self.active_index);
    }

    /// Makes the active segment durable (checkpoint calls this so the
    /// archive never trails the checkpoint it is embedded in). Uses the
    /// last record's report time as the operation time, keeping disk fault
    /// windows deterministic.
    pub(crate) fn flush(&mut self) {
        if let Some(file) = self.active_file {
            self.disk.fsync_file(file, self.last_at);
        }
    }

    /// Rebuilds a sink from whatever survived on `disk` under
    /// `config.prefix`.
    ///
    /// Scans segments in index order, truncates each at the first corrupt
    /// record, checks sealed footers, seals the surviving unsealed tail
    /// segment in place, and rebuilds marks and dedup windows. The sink
    /// comes back `healed` only when the scan was clean; callers holding a
    /// checkpoint should decide healing via
    /// [`verify_covers`](Self::verify_covers) instead — a lying fsync
    /// leaves a perfectly clean-looking scan.
    pub(crate) fn recover(disk: SharedDisk, config: ArchiveConfig) -> (Self, RecoveryReport) {
        let mut sink = ArchiveSink::new(disk, config);
        let mut report = RecoveryReport::default();
        let names = sink.disk.list(&sink.config.prefix);
        let mut last_index = None;
        for name in names {
            let Some(index) = parse_segment_index(&sink.config.prefix, &name) else {
                continue;
            };
            report.segments += 1;
            last_index = Some(index);
            // Fold the surviving records' payload bytes, as they stand on
            // disk, into marks and dedup windows.
            let disk = sink.disk.clone();
            let scan = disk
                .with_file(&name, |data| {
                    let scan = scan_segment(data);
                    for (device, seq, payload) in scan.frames(data) {
                        let slot = sink.devices.entry(device).or_default();
                        slot.dedup.check_and_insert(seq, sink.config.dedup_capacity);
                        slot.mark.fold(payload);
                    }
                    scan
                })
                .expect("listed files exist");
            if scan.corrupt() {
                sink.disk.truncate(&name, scan.valid_len);
                report.truncated_segments += 1;
                report.truncated_bytes += (scan.len - scan.valid_len) as u64;
            }
            if let Some(footer) = &scan.footer {
                if footer.records != scan.segment.records || footer.digest != scan.segment.digest {
                    report.footer_mismatches += 1;
                }
            }
            report.records += u64::from(scan.segment.records);
            sink.last_at = sink
                .last_at
                .max(scan.segment.max_at.unwrap_or(SimTime::ZERO));
            if scan.segment.records > 0 {
                if scan.footer.is_none() {
                    // Seal the surviving tail in place so the next active
                    // segment starts clean.
                    let at = scan.segment.max_at.expect("non-empty");
                    let footer = encode_footer(
                        scan.segment.records,
                        scan.segment.min_at.expect("non-empty"),
                        at,
                        scan.segment.digest,
                    );
                    let frame = frame_record(KIND_FOOTER, &footer);
                    sink.disk.append(&name, at, &frame);
                    sink.disk.fsync(&name, at);
                    sink.stats.segments_sealed += 1;
                }
                sink.sealed.push(SegmentMeta { name, memo: None });
            }
        }
        sink.active_index = last_index.map_or(0, |i| i + 1);
        sink.active_name = segment_name(&sink.config.prefix, sink.active_index);
        sink.active = ActiveSegment::fresh();
        sink.stats.records = report.records;
        sink.healed = report.clean();
        (sink, report)
    }

    /// Checks that the surviving records still cover a checkpoint's
    /// [`marks`](Self::marks): for every marked device the disk must hold
    /// at least `mark.records` records whose running digest passes
    /// **exactly** through `mark.digest`. Extra records beyond the mark
    /// (spilled after the checkpoint) are fine — journal replay
    /// regenerates and dedups them.
    pub(crate) fn verify_covers(&self, marks: &BTreeMap<DeviceId, DeviceMark>) -> Coverage {
        let mut running: BTreeMap<DeviceId, DeviceMark> = BTreeMap::new();
        let mut at_mark: BTreeMap<DeviceId, u64> = BTreeMap::new();
        // Every decodable record's payload bytes across all segments, in
        // spill order. Corruption mid-scan (bit rot landed after recovery)
        // ends that segment's scan.
        for index in 0..=self.active_index {
            let name = segment_name(&self.config.prefix, index);
            let scanned = self.disk.with_file(&name, |data| {
                let scan = scan_segment(data);
                for (device, _, payload) in scan.frames(data) {
                    let entry = running.entry(device).or_insert(DeviceMark {
                        records: 0,
                        digest: FNV_OFFSET,
                    });
                    entry.fold(payload);
                    if marks
                        .get(&device)
                        .is_some_and(|mark| entry.records == mark.records)
                    {
                        at_mark.insert(device, entry.digest);
                    }
                }
            });
            if scanned.is_none() {
                break;
            }
        }
        let mut coverage = Coverage {
            covered: true,
            missing_records: 0,
            diverged_devices: 0,
        };
        for (device, mark) in marks {
            if mark.records == 0 {
                continue;
            }
            let have = running.get(device).map_or(0, |m| m.records);
            if have < mark.records {
                coverage.covered = false;
                coverage.missing_records += mark.records - have;
            } else if at_mark.get(device) != Some(&mark.digest) {
                coverage.covered = false;
                coverage.diverged_devices += 1;
            }
        }
        coverage
    }

    /// The newest archived assignment at or before `at`, per device.
    /// Takes `&mut self` because every read is also an audit (see
    /// `audit`).
    ///
    /// Sealed segments are answered from a per-device history index, each
    /// decoded once per change to its bytes on disk; every corrupt one
    /// still counts once per query, exactly as a rescan would. Only the
    /// active segment is decoded on every call.
    pub(crate) fn last_assignments_at(
        &mut self,
        at: SimTime,
    ) -> BTreeMap<DeviceId, (SimTime, u64, RoomLabel)> {
        let mut corrupt_reads = self.refresh_history();
        let mut best: BTreeMap<DeviceId, (SimTime, u64, RoomLabel)> = BTreeMap::new();
        for (device, history) in &self.history {
            let newer = history.partition_point(|(t, _, _)| *t <= at);
            if let Some(index) = newer.checked_sub(1) {
                best.insert(*device, history[index]);
            }
        }
        if self.active.records > 0 {
            if let Some(scan) = self.disk.with_file(&self.active_name, scan_segment) {
                corrupt_reads += u64::from(scan.corrupt());
                for rec in &scan.records {
                    fold_assignment(&mut best, rec, at);
                }
            }
        }
        self.audit(corrupt_reads);
        best
    }

    /// Brings the history index up to date with the sealed segments under
    /// one disk lock and returns how many of them decode corrupt.
    ///
    /// A memo is trusted only while its file's disk generation is
    /// unchanged. If any memoised segment moved (a crash cut a segment
    /// whose fsync lied, damage landed past a footer), the whole index is
    /// rebuilt from fresh decodes; otherwise only segments sealed since the
    /// last query are decoded and appended.
    fn refresh_history(&mut self) -> u64 {
        let generations = self
            .disk
            .generations(self.sealed.iter().map(|meta| meta.name.as_str()));
        let moved = self
            .sealed
            .iter()
            .zip(&generations)
            .any(|(meta, g)| meta.memo.is_some_and(|memo| memo.generation != *g));
        if moved {
            self.history.clear();
            for meta in &mut self.sealed {
                meta.memo = None;
            }
        }
        let mut corrupt = 0u64;
        for (meta, generation) in self.sealed.iter_mut().zip(generations) {
            let memo = match meta.memo {
                Some(memo) => memo,
                None => {
                    let scan = self
                        .disk
                        .with_file(&meta.name, scan_segment)
                        .unwrap_or_else(|| scan_segment(&[]));
                    self.history_decodes += 1;
                    for &(device, at, seq, room) in &scan.records {
                        let history = self.history.entry(device).or_default();
                        let position = history.partition_point(|(t, s, _)| (*t, *s) <= (at, seq));
                        history.insert(position, (at, seq, room));
                    }
                    // The generation was read before the decode, so a change
                    // racing it can only make the memo look stale, never
                    // fresh.
                    let memo = SegmentMemo {
                        generation,
                        corrupt: scan.corrupt(),
                    };
                    meta.memo = Some(memo);
                    memo
                }
            };
            corrupt += u64::from(memo.corrupt);
        }
        corrupt
    }

    /// The full-scan reference for
    /// [`last_assignments_at`](Self::last_assignments_at): decodes every
    /// segment on every call and folds every assignment in scan order.
    #[cfg(test)]
    fn last_assignments_at_full_scan(
        &mut self,
        at: SimTime,
    ) -> BTreeMap<DeviceId, (SimTime, u64, RoomLabel)> {
        let mut best: BTreeMap<DeviceId, (SimTime, u64, RoomLabel)> = BTreeMap::new();
        let mut corrupt_reads = 0u64;
        let active = (self.active.records > 0).then_some(self.active_name.as_str());
        for name in self
            .sealed
            .iter()
            .map(|meta| meta.name.as_str())
            .chain(active)
        {
            if let Some(scan) = self.disk.with_file(name, scan_segment) {
                corrupt_reads += u64::from(scan.corrupt());
                for rec in &scan.records {
                    fold_assignment(&mut best, rec, at);
                }
            }
        }
        self.audit(corrupt_reads);
        best
    }

    /// Records what one query's reads found corrupt. Every query read is
    /// also an audit: recovery truncates segments to their valid prefix,
    /// so a healthy file always parses front to back, and a scan that
    /// stops short of the file's end means corruption landed *after*
    /// recovery (ongoing bit rot, a short write under freshly re-spilled
    /// records) and some records are unreadable. Any corruption demotes
    /// the sink to lossy on the spot, so the caller's answer merges
    /// whatever survived and is flagged incomplete, never silently wrong.
    fn audit(&mut self, corrupt_reads: u64) {
        if corrupt_reads > 0 {
            self.healed = false;
            self.read_corruptions += corrupt_reads;
        }
    }

    /// Per-device archive marks (records + running digest), the coverage
    /// contract a checkpoint embeds.
    pub(crate) fn marks(&self) -> BTreeMap<DeviceId, DeviceMark> {
        self.devices
            .iter()
            .map(|(device, slot)| (*device, slot.mark))
            .collect()
    }

    /// Counters.
    pub(crate) fn stats(&self) -> ArchiveStats {
        self.stats
    }

    /// True when the archive is known to hold every record it ever
    /// promised — fresh sinks start healed; recovered sinks are healed
    /// after [`verify_covers`](Self::verify_covers) (plus journal replay)
    /// proves nothing is missing.
    pub(crate) fn healed(&self) -> bool {
        self.healed
    }

    /// Marks the archive fully healed (coverage verified and the journal
    /// suffix replayed).
    pub(crate) fn mark_healed(&mut self) {
        self.healed = true;
    }

    /// Marks the archive lossy: some promised records are gone, so
    /// historical answers below the retention floor must say incomplete.
    pub(crate) fn mark_lossy(&mut self) {
        self.healed = false;
    }

    /// How many query-time segment scans have hit corruption that landed
    /// after recovery. Any non-zero value means the sink demoted itself
    /// to lossy mid-flight.
    pub(crate) fn read_corruptions(&self) -> u64 {
        self.read_corruptions
    }
}

impl fmt::Display for ArchiveSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} record(s) in {} sealed segment(s) (+active), {} device(s)",
            self.stats.records,
            self.sealed.len(),
            self.devices.len()
        )
    }
}

/// One decoded assignment record: `(device, at, seq, room)`.
type ArchiveRecord = (DeviceId, SimTime, u64, RoomLabel);

/// What recovery checks of a footer: the record count and segment digest
/// (its time bounds are read past).
struct FooterInfo {
    records: u32,
    digest: u64,
}

/// Everything a front-to-back scan of one segment file learns.
struct SegmentScan {
    records: Vec<ArchiveRecord>,
    /// Where each of `records`' payload bytes lie in the scanned buffer.
    payloads: Vec<Range<usize>>,
    footer: Option<FooterInfo>,
    /// Bytes up to the end of the last valid record (or footer); anything
    /// past this is corrupt or torn and must be truncated.
    valid_len: usize,
    /// Bytes the file held.
    len: usize,
    /// Recomputed rolling state over the valid records.
    segment: ActiveSegment,
}

impl SegmentScan {
    /// True when the scan stopped short of the file's end.
    fn corrupt(&self) -> bool {
        self.valid_len < self.len
    }

    /// Each record's device and sequence number, with its payload bytes as
    /// they stand in `data`, the buffer this scan parsed.
    fn frames<'a>(
        &'a self,
        data: &'a [u8],
    ) -> impl Iterator<Item = (DeviceId, u64, &'a [u8])> + 'a {
        self.records
            .iter()
            .zip(&self.payloads)
            .map(|(&(device, _, seq, _), span)| (device, seq, &data[span.clone()]))
    }
}

/// Folds `rec`, if it is at or before `at`, into the newest assignment per
/// device. Compared with `>=`, so of two equal `(at, seq)` keys the one
/// folded later wins.
fn fold_assignment(
    best: &mut BTreeMap<DeviceId, (SimTime, u64, RoomLabel)>,
    &(device, t, seq, room): &ArchiveRecord,
    at: SimTime,
) {
    if t <= at {
        let entry = best.entry(device).or_insert((t, seq, room));
        if (t, seq) >= (entry.0, entry.1) {
            *entry = (t, seq, room);
        }
    }
}

/// Parses one segment buffer, stopping at the first record the CRC, the
/// framing or its kind byte rejects. A footer ends the segment: bytes after
/// it are treated as corruption.
fn scan_segment(data: &[u8]) -> SegmentScan {
    let mut scan = SegmentScan {
        records: Vec::new(),
        payloads: Vec::new(),
        footer: None,
        valid_len: 0,
        len: data.len(),
        segment: ActiveSegment::fresh(),
    };
    let mut pos = 0usize;
    while pos < data.len() {
        let Some((kind, payload, next)) = parse_frame(data, pos) else {
            break;
        };
        let span = pos + FRAME_HEADER..pos + FRAME_HEADER + payload.len();
        match kind {
            KIND_ASSIGNMENT => {
                let Some(record) = decode_assignment(payload) else {
                    break;
                };
                scan.segment.observe(payload, record.1);
                scan.records.push(record);
                scan.payloads.push(span);
            }
            KIND_FOOTER => {
                let Some(footer) = decode_footer(payload) else {
                    break;
                };
                scan.footer = Some(footer);
                scan.valid_len = next;
                return scan; // a footer is the last record by construction
            }
            _ => break,
        }
        pos = next;
        scan.valid_len = next;
    }
    scan
}

/// Parses one frame at `pos`. Returns `(kind, payload, next_pos)` or `None`
/// on any framing or checksum violation (including a truncated tail).
fn parse_frame(data: &[u8], pos: usize) -> Option<(u8, &[u8], usize)> {
    if pos + FRAME_HEADER > data.len() {
        return None;
    }
    if data[pos] != RECORD_MAGIC {
        return None;
    }
    let kind = data[pos + 1];
    let len = u32::from_le_bytes(data[pos + 2..pos + 6].try_into().expect("4 bytes")) as usize;
    let payload_start = pos + FRAME_HEADER;
    let payload_end = payload_start.checked_add(len)?;
    let frame_end = payload_end.checked_add(8)?;
    if frame_end > data.len() {
        return None;
    }
    let payload = &data[payload_start..payload_end];
    let mut crc = FNV_OFFSET;
    fnv_fold(&mut crc, &[kind]);
    fnv_fold(&mut crc, &(len as u32).to_le_bytes());
    fnv_fold(&mut crc, payload);
    let stored = u64::from_le_bytes(data[payload_end..frame_end].try_into().expect("8 bytes"));
    if crc != stored {
        return None;
    }
    Some((kind, payload, frame_end))
}

/// Frames `payload` as one record. The append path builds the same bytes in
/// place with [`begin_frame`] and [`finish_frame`]; footers and tests use
/// this two-step form.
fn frame_record(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len() + 8);
    frame.push(RECORD_MAGIC);
    frame.push(kind);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    let mut crc = FNV_OFFSET;
    fnv_fold(&mut crc, &[kind]);
    fnv_fold(&mut crc, &(payload.len() as u32).to_le_bytes());
    fnv_fold(&mut crc, payload);
    frame.extend_from_slice(&crc.to_le_bytes());
    frame
}

/// Starts a frame in `frame`, discarding what it held: magic, kind and a
/// length placeholder. The caller writes the payload after it, then calls
/// [`finish_frame`].
fn begin_frame(frame: &mut Vec<u8>, kind: u8) {
    frame.clear();
    frame.extend_from_slice(&[RECORD_MAGIC, kind, 0, 0, 0, 0]);
}

/// Completes a frame [`begin_frame`] started: patches the payload length
/// into the header and appends the CRC, so the buffer equals
/// `frame_record(kind, payload)`. The same single pass over the payload
/// folds `kind || payload` into each of `digests` — exactly what one
/// [`fnv_fold`] of `[kind]` and one of the payload would give — and returns
/// the advanced digests.
fn finish_frame(frame: &mut Vec<u8>, digests: [u64; 2]) -> [u64; 2] {
    let kind = frame[1];
    let len = ((frame.len() - FRAME_HEADER) as u32).to_le_bytes();
    frame[2..FRAME_HEADER].copy_from_slice(&len);
    let mut states = [digests[0], digests[1], FNV_OFFSET];
    fnv_fold_each(&mut states, &[kind]);
    fnv_fold(&mut states[2], &len);
    fnv_fold_each(&mut states, &frame[FRAME_HEADER..]);
    let [first, second, crc] = states;
    frame.extend_from_slice(&crc.to_le_bytes());
    [first, second]
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.data.len() {
            return None;
        }
        let out = &self.data[self.pos..end];
        self.pos = end;
        Some(out)
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn done(&self) -> bool {
        self.pos == self.data.len()
    }
}

/// Appends an assignment's payload bytes to `out`.
fn write_assignment(out: &mut Vec<u8>, device: DeviceId, at: SimTime, seq: u64, room: RoomLabel) {
    out.extend_from_slice(&device.value().to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&at.as_millis().to_le_bytes());
    out.extend_from_slice(&(room as u64).to_le_bytes());
}

fn decode_assignment(payload: &[u8]) -> Option<(DeviceId, SimTime, u64, RoomLabel)> {
    let mut r = Reader {
        data: payload,
        pos: 0,
    };
    let device = DeviceId::new(r.u32()?);
    let seq = r.u64()?;
    let at = SimTime::from_millis(r.u64()?);
    let room = r.u64()? as RoomLabel;
    if !r.done() {
        return None;
    }
    Some((device, at, seq, room))
}

fn encode_footer(records: u32, min_at: SimTime, max_at: SimTime, digest: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 8 + 8 + 8);
    out.extend_from_slice(&records.to_le_bytes());
    out.extend_from_slice(&min_at.as_millis().to_le_bytes());
    out.extend_from_slice(&max_at.as_millis().to_le_bytes());
    out.extend_from_slice(&digest.to_le_bytes());
    out
}

fn decode_footer(payload: &[u8]) -> Option<FooterInfo> {
    let mut r = Reader {
        data: payload,
        pos: 0,
    };
    let records = r.u32()?;
    r.take(8 + 8)?;
    let digest = r.u64()?;
    if !r.done() {
        return None;
    }
    Some(FooterInfo { records, digest })
}

fn segment_name(prefix: &str, index: u64) -> String {
    format!("{prefix}seg-{index:08}")
}

fn parse_segment_index(prefix: &str, name: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_prefix("seg-")?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use roomsense_sim::{DiskFaultPlan, FaultSchedule, FaultWindow, SimDisk, SimDuration};

    fn encode_assignment(device: DeviceId, at: SimTime, seq: u64, room: RoomLabel) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + 8 + 8 + 8);
        write_assignment(&mut out, device, at, seq, room);
        out
    }

    /// A frame of the retired report kind `0` under a valid CRC: device,
    /// seq, report time and an empty beacon list, laid out as that codec
    /// wrote them.
    fn retired_report_frame(device: u32, at_secs: u64) -> Vec<u8> {
        let mut payload = device.to_le_bytes().to_vec();
        payload.extend_from_slice(&at_secs.to_le_bytes());
        payload.extend_from_slice(&SimTime::from_secs(at_secs).as_millis().to_le_bytes());
        payload.extend_from_slice(&0u16.to_le_bytes());
        frame_record(0, &payload)
    }

    fn small_config() -> ArchiveConfig {
        ArchiveConfig {
            segment_records: 4,
            ..ArchiveConfig::default()
        }
    }

    fn window(from_s: u64, to_s: u64) -> FaultSchedule {
        FaultSchedule::new(vec![FaultWindow::new(
            SimTime::from_secs(from_s),
            SimTime::from_secs(to_s),
        )])
    }

    /// One-record spills, for tests that append a record at a time.
    impl ArchiveSink {
        fn append_assignment(
            &mut self,
            device: DeviceId,
            at: SimTime,
            seq: u64,
            room: RoomLabel,
        ) -> bool {
            self.append_spill(device, &[(at, seq, room)]).appended == 1
        }

        /// Appends `device`'s assignment at second `at_secs`, with that
        /// second as its seq and a room derived from it.
        fn append_at(&mut self, device: u32, at_secs: u64) -> bool {
            let room = (at_secs % 4) as RoomLabel;
            let at = SimTime::from_secs(at_secs);
            self.append_assignment(DeviceId::new(device), at, at_secs, room)
        }
    }

    /// The per-record append body [`ArchiveSink::append_spill`] replaced,
    /// kept as its oracle: every record looks up its own device's dedup
    /// window and mark, encodes through the two-step [`frame_record`], and
    /// appends to its segment by name.
    struct OracleSink {
        disk: SharedDisk,
        config: ArchiveConfig,
        active_index: u64,
        active: ActiveSegment,
        marks: BTreeMap<DeviceId, DeviceMark>,
        dedup: BTreeMap<DeviceId, DedupWindow>,
        last_at: SimTime,
        stats: ArchiveStats,
    }

    impl OracleSink {
        fn new(disk: SharedDisk, config: ArchiveConfig) -> Self {
            OracleSink {
                disk,
                config,
                active_index: 0,
                active: ActiveSegment::fresh(),
                marks: BTreeMap::new(),
                dedup: BTreeMap::new(),
                last_at: SimTime::ZERO,
                stats: ArchiveStats::default(),
            }
        }

        /// Recovery of `disk`: [`ArchiveSink::recover`] repairs the disk
        /// and supplies the segment bookkeeping, while the marks, dedup
        /// windows and record counts are replayed here from the records
        /// that survived the crash, scanned before the repair wrote to
        /// the disk.
        fn recover(disk: SharedDisk, config: ArchiveConfig) -> Self {
            let scans: Vec<SegmentScan> = disk
                .list(&config.prefix)
                .iter()
                .map(|name| disk.with_file(name, scan_segment).expect("listed"))
                .collect();
            let (repaired, _) = ArchiveSink::recover(disk.clone(), config.clone());
            let mut oracle = OracleSink::new(disk, config);
            oracle.active_index = repaired.active_index;
            oracle.last_at = repaired.last_at;
            oracle.stats.segments_sealed = repaired.stats.segments_sealed;
            for scan in &scans {
                for &(device, at, seq, room) in &scan.records {
                    let capacity = oracle.config.dedup_capacity;
                    oracle
                        .dedup
                        .entry(device)
                        .or_default()
                        .check_and_insert(seq, capacity);
                    oracle.fold_mark(device, &encode_assignment(device, at, seq, room));
                    oracle.stats.records += 1;
                }
            }
            oracle
        }

        fn append_assignment(
            &mut self,
            device: DeviceId,
            at: SimTime,
            seq: u64,
            room: RoomLabel,
        ) -> bool {
            let capacity = self.config.dedup_capacity;
            let fresh = self
                .dedup
                .entry(device)
                .or_default()
                .check_and_insert(seq, capacity);
            if !fresh {
                self.stats.respill_suppressed += 1;
                return false;
            }
            let payload = encode_assignment(device, at, seq, room);
            self.fold_mark(device, &payload);
            self.active.observe(&payload, at);
            let frame = frame_record(KIND_ASSIGNMENT, &payload);
            let name = segment_name(&self.config.prefix, self.active_index);
            self.disk.append(&name, at, &frame);
            self.stats.bytes_appended += frame.len() as u64;
            self.stats.records += 1;
            self.last_at = self.last_at.max(at);
            if self.active.records >= self.config.segment_records {
                let footer = encode_footer(
                    self.active.records,
                    self.active.min_at.expect("non-empty segment"),
                    self.active.max_at.expect("non-empty segment"),
                    self.active.digest,
                );
                let frame = frame_record(KIND_FOOTER, &footer);
                self.disk.append(&name, at, &frame);
                self.disk.fsync(&name, at);
                self.stats.bytes_appended += frame.len() as u64;
                self.stats.segments_sealed += 1;
                self.active = ActiveSegment::fresh();
                self.active_index += 1;
            }
            true
        }

        fn fold_mark(&mut self, device: DeviceId, payload: &[u8]) {
            let mark = self.marks.entry(device).or_insert(DeviceMark {
                records: 0,
                digest: FNV_OFFSET,
            });
            fnv_fold(&mut mark.digest, &[KIND_ASSIGNMENT]);
            fnv_fold(&mut mark.digest, payload);
            mark.records += 1;
        }

        fn flush(&mut self) {
            if self.active.records > 0 {
                let name = segment_name(&self.config.prefix, self.active_index);
                self.disk.fsync(&name, self.last_at);
            }
        }
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        let payload = encode_assignment(DeviceId::new(1), SimTime::from_secs(1), 1, 0);
        let frame = frame_record(KIND_ASSIGNMENT, &payload);
        assert!(parse_frame(&frame, 0).is_some());
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x40;
            assert!(
                parse_frame(&bad, 0).is_none(),
                "flip at byte {i} must be caught"
            );
        }
        // A truncated tail is rejected, not mis-parsed.
        for cut in 1..frame.len() {
            assert!(parse_frame(&frame[..cut], 0).is_none());
        }
    }

    #[test]
    fn spill_seal_and_recover_round_trips() {
        let disk = SharedDisk::new(SimDisk::pristine(1));
        let mut sink = ArchiveSink::new(disk.clone(), small_config());
        for i in 0..20u64 {
            assert!(sink.append_at(7, i));
        }
        assert_eq!(sink.stats().records, 20);
        assert_eq!(sink.stats().segments_sealed, 5);
        let marks = sink.marks();
        sink.flush();

        let (mut recovered, rep) = ArchiveSink::recover(disk, small_config());
        assert!(rep.clean(), "{rep:?}");
        assert_eq!(rep.records, 20);
        assert_eq!(recovered.marks(), marks);
        assert!(recovered.verify_covers(&marks).covered);
        for t in [0u64, 9, 100] {
            let at = SimTime::from_secs(t);
            assert_eq!(
                recovered.last_assignments_at(at),
                sink.last_assignments_at(at),
                "t={t}"
            );
        }
        let newest = recovered.last_assignments_at(SimTime::from_secs(100));
        assert_eq!(newest[&DeviceId::new(7)], (SimTime::from_secs(19), 19, 3));
        assert!(recovered.healed());
    }

    #[test]
    fn respill_is_suppressed_by_seq_dedup() {
        let disk = SharedDisk::new(SimDisk::pristine(2));
        let mut sink = ArchiveSink::new(disk, small_config());
        assert!(sink.append_at(1, 5));
        assert!(!sink.append_at(1, 5));
        // Same seq, another device: not a duplicate.
        assert!(sink.append_at(2, 5));
        assert!(!sink.append_at(2, 5));
        assert_eq!(sink.stats().respill_suppressed, 2);
        assert_eq!(sink.stats().records, 2);
    }

    #[test]
    fn crash_loses_only_the_unflushed_tail_and_recovery_reports_it() {
        let disk = SharedDisk::new(SimDisk::pristine(3));
        let mut sink = ArchiveSink::new(disk.clone(), small_config());
        for i in 0..9u64 {
            sink.append_at(1, i); // seals at 4 and 8
        }
        // Segment 2 holds one volatile record; crash drops it cleanly.
        disk.crash(SimTime::from_secs(10));
        let marks_full = sink.marks();
        let (recovered, rep) = ArchiveSink::recover(disk, small_config());
        assert_eq!(rep.records, 8);
        assert!(rep.clean(), "clean tail drop is not corruption: {rep:?}");
        let coverage = recovered.verify_covers(&marks_full);
        assert!(!coverage.covered);
        assert_eq!(coverage.missing_records, 1);
    }

    #[test]
    fn torn_tail_is_truncated_at_the_first_corrupt_record() {
        let disk = SharedDisk::new(SimDisk::pristine(4)).clone();
        {
            // Plant a sealed segment then a hand-torn active segment.
            let mut sink = ArchiveSink::new(disk.clone(), small_config());
            for i in 0..4u64 {
                sink.append_at(1, i);
            }
            let payload = encode_assignment(DeviceId::new(1), SimTime::from_secs(9), 9, 0);
            let frame = frame_record(KIND_ASSIGNMENT, &payload);
            disk.append(
                "bms/seg-00000001",
                SimTime::from_secs(9),
                &frame[..frame.len() / 2],
            );
        }
        let (recovered, rep) = ArchiveSink::recover(disk.clone(), small_config());
        assert_eq!(rep.records, 4);
        assert_eq!(rep.truncated_segments, 1);
        assert!(rep.truncated_bytes > 0);
        assert!(!rep.clean());
        assert!(!recovered.healed());
        // The torn file was chopped back to empty and is durable.
        assert_eq!(disk.len("bms/seg-00000001"), Some(0));
    }

    #[test]
    fn bit_rot_in_a_sealed_segment_truncates_and_misses_coverage() {
        let plan = DiskFaultPlan {
            bit_rot: window(50, 100),
            ..DiskFaultPlan::none()
        };
        let disk = SharedDisk::new(SimDisk::new(5).with_fault_plan(plan));
        let mut sink = ArchiveSink::new(disk.clone(), small_config());
        for i in 0..4u64 {
            sink.append_at(1, i); // sealed + fsynced pre-rot
        }
        let marks = sink.marks();
        // A later append lands in the rot window and flips a durable byte
        // of the file it writes — but that is the *new* active segment, so
        // plant the flip into the sealed file instead by appending to it
        // through the sink's own name. Simplest deterministic path: append
        // more records during the rot window; the active segment's own
        // durable prefix is empty, so rot the sealed file by hand.
        let mut sealed = disk
            .with_file("bms/seg-00000000", <[u8]>::to_vec)
            .expect("sealed");
        sealed[10] ^= 0x01;
        // Rewrite the file through truncate+append to keep durable_len.
        disk.truncate("bms/seg-00000000", 0);
        disk.append("bms/seg-00000000", SimTime::from_secs(60), &sealed);
        disk.fsync("bms/seg-00000000", SimTime::from_secs(60));

        let (recovered, rep) = ArchiveSink::recover(disk, small_config());
        assert_eq!(rep.truncated_segments, 1);
        assert!(rep.records < 4);
        let coverage = recovered.verify_covers(&marks);
        assert!(!coverage.covered);
        assert!(coverage.missing_records > 0);
    }

    #[test]
    fn recovered_sink_keeps_appending_in_fresh_segments() {
        let disk = SharedDisk::new(SimDisk::pristine(6));
        let mut sink = ArchiveSink::new(disk.clone(), small_config());
        for i in 0..6u64 {
            sink.append_at(1, i);
        }
        sink.flush();
        let (mut recovered, _) = ArchiveSink::recover(disk.clone(), small_config());
        // Re-spills of the archived records are suppressed...
        for i in 0..6u64 {
            assert!(!recovered.append_at(1, i));
        }
        // ...while genuinely new records append and seal normally.
        for i in 6..12u64 {
            assert!(recovered.append_at(1, i));
        }
        recovered.flush();
        let (mut again, rep) = ArchiveSink::recover(disk, small_config());
        assert!(rep.clean());
        assert_eq!(rep.records, 12);
        assert_eq!(again.marks()[&DeviceId::new(1)].records, 12);
        assert_eq!(
            again.last_assignments_at(SimTime::from_secs(100))[&DeviceId::new(1)],
            (SimTime::from_secs(11), 11, 3)
        );
    }

    #[test]
    fn sharded_spills_merge_digest_equal_to_a_single_sink() {
        // Two shards over a shared disk vs one sink fed the same per-device
        // streams: the per-device marks must be identical.
        let disk_single = SharedDisk::new(SimDisk::pristine(7));
        let disk_sharded = SharedDisk::new(SimDisk::pristine(7));
        let mut single = ArchiveSink::new(disk_single, ArchiveConfig::default());
        let base = ArchiveConfig::default();
        let mut shard0 = ArchiveSink::new(disk_sharded.clone(), base.for_shard(0));
        let mut shard1 = ArchiveSink::new(disk_sharded, base.for_shard(1));
        for i in 0..40u64 {
            let device = (i % 4) as u32;
            single.append_at(device, i);
            if device.is_multiple_of(2) {
                shard0.append_at(device, i);
            } else {
                shard1.append_at(device, i);
            }
        }
        let mut merged = shard0.marks();
        merged.extend(shard1.marks());
        assert_eq!(merged, single.marks());
    }

    #[test]
    fn last_assignments_at_reconstructs_per_device_history() {
        let disk = SharedDisk::new(SimDisk::pristine(9));
        let mut sink = ArchiveSink::new(disk, small_config());
        sink.append_assignment(DeviceId::new(1), SimTime::from_secs(10), 1, 5);
        sink.append_assignment(DeviceId::new(1), SimTime::from_secs(20), 2, 7);
        sink.append_assignment(DeviceId::new(2), SimTime::from_secs(15), 1, 3);
        let at_12 = sink.last_assignments_at(SimTime::from_secs(12));
        assert_eq!(
            at_12.get(&DeviceId::new(1)),
            Some(&(SimTime::from_secs(10), 1, 5))
        );
        assert!(!at_12.contains_key(&DeviceId::new(2)));
        let at_99 = sink.last_assignments_at(SimTime::from_secs(99));
        assert_eq!(
            at_99.get(&DeviceId::new(1)),
            Some(&(SimTime::from_secs(20), 2, 7))
        );
        assert_eq!(
            at_99.get(&DeviceId::new(2)),
            Some(&(SimTime::from_secs(15), 1, 3))
        );
    }

    #[test]
    fn repeat_history_queries_decode_no_sealed_segment_again() {
        let disk = SharedDisk::new(SimDisk::pristine(12));
        let mut sink = ArchiveSink::new(disk, small_config());
        let assign = |sink: &mut ArchiveSink, i: u64| {
            let device = DeviceId::new((i % 3) as u32);
            sink.append_assignment(device, SimTime::from_secs(i), i, (i % 4) as usize)
        };
        for i in 0..10u64 {
            assign(&mut sink, i); // two sealed segments, two active records
        }
        let at = SimTime::from_secs(99);
        let first = sink.last_assignments_at(at);
        assert_eq!(sink.history_decodes, 2, "each sealed segment decoded once");
        assert_eq!(sink.last_assignments_at(at), first);
        assert_eq!(sink.history_decodes, 2, "no write, no decode");
        assign(&mut sink, 10);
        assign(&mut sink, 11); // fills and seals the third segment
        assert_eq!(sink.stats().segments_sealed, 3);
        assert_eq!(
            sink.last_assignments_at(at),
            sink.last_assignments_at_full_scan(at)
        );
        assert_eq!(sink.history_decodes, 3, "exactly the newly sealed segment");
    }

    #[test]
    fn fsync_lie_is_caught_by_coverage_not_by_the_scan() {
        let plan = DiskFaultPlan {
            fsync_loss: window(0, 1000),
            ..DiskFaultPlan::none()
        };
        let disk = SharedDisk::new(SimDisk::new(10).with_fault_plan(plan));
        let mut sink = ArchiveSink::new(disk.clone(), small_config());
        for i in 0..4u64 {
            sink.append_at(1, i); // seal fsync silently lost
        }
        let marks = sink.marks();
        disk.crash(SimTime::from_secs(50));
        let (recovered, rep) = ArchiveSink::recover(disk, small_config());
        // The scan sees an innocently empty disk...
        assert!(rep.clean());
        assert_eq!(rep.records, 0);
        // ...but coverage against the checkpoint marks exposes the loss.
        let coverage = recovered.verify_covers(&marks);
        assert!(!coverage.covered);
        assert_eq!(coverage.missing_records, 4);
    }

    #[test]
    fn corruption_landing_after_recovery_demotes_the_sink_on_read() {
        let disk = SharedDisk::new(SimDisk::pristine(11));
        let mut sink = ArchiveSink::new(disk.clone(), small_config());
        for i in 0..4u64 {
            sink.append_at(1, i); // one sealed segment
        }
        assert!(sink.healed());
        let before = sink.last_assignments_at(SimTime::from_secs(99));
        assert_eq!(before.len(), 1);
        assert!(sink.healed(), "a clean read must not demote");

        // Garbage lands beyond the sealed footer — the kind of damage the
        // recovery scan never saw because it happened after recovery.
        let name = format!("{}seg-{:08}", sink.config.prefix, 0);
        disk.append(&name, SimTime::from_secs(60), &[0xFF, 0xFF]);
        // The surviving prefix is still served...
        assert_eq!(sink.last_assignments_at(SimTime::from_secs(99)), before);
        // ...but the sink has demoted itself and says so.
        assert!(!sink.healed());
        assert_eq!(sink.read_corruptions(), 1);
    }

    #[test]
    fn a_retired_report_frame_in_a_sealed_segment_is_truncated_by_recovery() {
        // A sealed segment holding a report frame between two assignments,
        // under a footer whose count and digest match all three records:
        // every CRC is valid, yet the report kind is retired, so recovery
        // keeps only the first assignment and says it truncated.
        let disk = SharedDisk::new(SimDisk::pristine(13));
        let name = "bms/seg-00000000";
        let frames = [
            frame_record(
                KIND_ASSIGNMENT,
                &encode_assignment(DeviceId::new(1), SimTime::from_secs(1), 1, 2),
            ),
            retired_report_frame(1, 2),
            frame_record(
                KIND_ASSIGNMENT,
                &encode_assignment(DeviceId::new(1), SimTime::from_secs(3), 3, 2),
            ),
        ];
        let mut digest = FNV_OFFSET;
        for frame in &frames {
            fnv_fold(&mut digest, &frame[1..2]);
            fnv_fold(&mut digest, &frame[FRAME_HEADER..frame.len() - 8]);
        }
        let footer = encode_footer(3, SimTime::from_secs(1), SimTime::from_secs(3), digest);
        let mut bytes = frames.concat();
        bytes.extend(frame_record(KIND_FOOTER, &footer));
        disk.append(name, SimTime::from_secs(3), &bytes);
        disk.fsync(name, SimTime::from_secs(3));

        let (recovered, rep) = ArchiveSink::recover(disk, small_config());
        assert_eq!(rep.records, 1);
        assert_eq!(rep.truncated_segments, 1);
        assert_eq!(rep.truncated_bytes, (bytes.len() - frames[0].len()) as u64);
        assert!(!recovered.healed());
        assert_eq!(recovered.marks()[&DeviceId::new(1)].records, 1);
    }

    #[test]
    fn a_retired_report_frame_read_after_recovery_demotes_the_sink() {
        let disk = SharedDisk::new(SimDisk::pristine(14));
        let mut sink = ArchiveSink::new(disk.clone(), small_config());
        sink.append_at(1, 1);
        sink.flush();
        let (mut recovered, rep) = ArchiveSink::recover(disk.clone(), small_config());
        assert!(rep.clean() && recovered.healed());
        recovered.append_at(1, 2); // the active segment after recovery
        let before = recovered.last_assignments_at(SimTime::from_secs(99));
        assert!(recovered.healed(), "a clean read must not demote");

        let active = recovered.active_name.clone();
        disk.append(&active, SimTime::from_secs(3), &retired_report_frame(1, 3));
        assert_eq!(
            recovered.last_assignments_at(SimTime::from_secs(99)),
            before
        );
        assert!(!recovered.healed());
        assert_eq!(recovered.read_corruptions(), 1);
    }

    #[test]
    fn spills_archive_exactly_the_compacted_assignments() {
        use crate::{ObservationReport, ShardedBmsServer};
        use std::sync::Arc;
        let disk = SharedDisk::new(SimDisk::pristine(15));
        let server = ShardedBmsServer::new(
            Arc::new(|r: &ObservationReport| Some(r.seq as RoomLabel % 3)),
            2,
        )
        .with_retention(SimDuration::from_secs(60))
        .with_archives(disk.clone(), small_config());
        let devices = 5u32;
        for seq in 0..200u64 {
            server.ingest(ObservationReport {
                device: DeviceId::new(seq as u32 % devices),
                seq,
                at: SimTime::from_secs(seq * 7),
                beacons: vec![],
            });
        }
        // Every report is classified, so each compacted history entry is
        // one assignment the archive is owed.
        let retained: usize = (0..devices)
            .map(|device| server.assignment_history(DeviceId::new(device)).len())
            .sum();
        let compacted = server.stats().reports_stored - retained as u64;
        assert!(compacted > 0, "compaction ran");
        let stats = server.archive_stats().expect("archives attached");
        assert_eq!(stats.records, compacted);

        let mut assignments = 0u64;
        for name in disk.list("") {
            let data = disk.with_file(&name, <[u8]>::to_vec).expect("listed");
            let mut pos = 0;
            while let Some((kind, _, next)) = parse_frame(&data, pos) {
                assert!(
                    kind == KIND_ASSIGNMENT || kind == KIND_FOOTER,
                    "kind {kind} in {name}"
                );
                assignments += u64::from(kind == KIND_ASSIGNMENT);
                pos = next;
            }
            assert_eq!(pos, data.len(), "{name} parses to its end");
        }
        assert_eq!(assignments, stats.records);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// The valid frame of one assignment.
        fn oracle_frame(device: DeviceId, at: SimTime, seq: u64, room: RoomLabel) -> Vec<u8> {
            frame_record(KIND_ASSIGNMENT, &encode_assignment(device, at, seq, room))
        }

        proptest! {
            /// The in-place frame equals the two-step oracle byte for byte,
            /// and the fused pass advances each digest exactly as separate
            /// folds would — whatever the buffer held before.
            #[test]
            fn in_place_frames_equal_the_two_step_oracle(
                device in any::<u32>(),
                seq in any::<u64>(),
                at_ms in any::<u64>(),
                room in any::<usize>(),
                digests in (any::<u64>(), any::<u64>()),
                stale in prop::collection::vec(any::<u8>(), 0..40),
            ) {
                let (device, at) = (DeviceId::new(device), SimTime::from_millis(at_ms));
                let mut frame = stale;
                begin_frame(&mut frame, KIND_ASSIGNMENT);
                write_assignment(&mut frame, device, at, seq, room);
                let payload = encode_assignment(device, at, seq, room);
                let fused = finish_frame(&mut frame, [digests.0, digests.1]);
                prop_assert_eq!(&frame, &oracle_frame(device, at, seq, room));

                let mut separate = [digests.0, digests.1];
                for digest in &mut separate {
                    fnv_fold(digest, &[KIND_ASSIGNMENT]);
                    fnv_fold(digest, &payload);
                }
                prop_assert_eq!(fused, separate);
                let mut crc = FNV_OFFSET;
                fnv_fold(&mut crc, &[KIND_ASSIGNMENT]);
                fnv_fold(&mut crc, &(payload.len() as u32).to_le_bytes());
                fnv_fold(&mut crc, &payload);
                prop_assert_eq!(&frame[frame.len() - 8..], &crc.to_le_bytes()[..]);
            }

            /// A sink's segment files hold exactly the oracle frames in
            /// append order (footers aside), and its marks are the
            /// separately folded oracle digests.
            #[test]
            fn sink_appends_the_oracle_bytes_and_marks(
                segment_records in 1u32..6,
                stream in prop::collection::vec((0u32..4, 0usize..5), 0..40),
            ) {
                let config = ArchiveConfig {
                    segment_records,
                    ..ArchiveConfig::default()
                };
                let disk = SharedDisk::new(SimDisk::pristine(21));
                let mut sink = ArchiveSink::new(disk.clone(), config.clone());
                let mut expected = Vec::new();
                let mut marks: BTreeMap<DeviceId, DeviceMark> = BTreeMap::new();
                for (i, &(device, room)) in stream.iter().enumerate() {
                    let (device, seq) = (DeviceId::new(device), i as u64);
                    let at = SimTime::from_millis(1000 * seq);
                    prop_assert!(sink.append_assignment(device, at, seq, room));
                    let frame = oracle_frame(device, at, seq, room);
                    let payload = parse_frame(&frame, 0).expect("oracle frame parses").1;
                    let mark = marks.entry(device).or_insert(DeviceMark {
                        records: 0,
                        digest: FNV_OFFSET,
                    });
                    fnv_fold(&mut mark.digest, &[frame[1]]);
                    fnv_fold(&mut mark.digest, payload);
                    mark.records += 1;
                    expected.extend_from_slice(&frame);
                }
                prop_assert_eq!(sink.marks(), marks);

                let mut written = Vec::new();
                for name in disk.list(&config.prefix) {
                    let data = disk.with_file(&name, <[u8]>::to_vec).expect("listed");
                    let mut pos = 0;
                    while let Some((kind, _, next)) = parse_frame(&data, pos) {
                        if kind != KIND_FOOTER {
                            written.extend_from_slice(&data[pos..next]);
                        }
                        pos = next;
                    }
                    prop_assert_eq!(pos, data.len());
                }
                prop_assert_eq!(written, expected);
            }

            /// No decoder panics on arbitrary bytes, and a scan never claims
            /// more valid bytes than it was given. A validly framed record
            /// of any kind but assignment and footer, the retired report
            /// kind `0` included, is corrupt: the scan keeps nothing of it.
            #[test]
            fn decoders_are_total_on_arbitrary_bytes(
                data in prop::collection::vec(any::<u8>(), 0..160),
                kind in 0u8..4,
            ) {
                for pos in 0..=data.len() + 1 {
                    if let Some((_, payload, next)) = parse_frame(&data, pos) {
                        prop_assert!(next <= data.len() && payload.len() < next);
                    }
                }
                prop_assert!(scan_segment(&data).valid_len <= data.len());
                let _ = decode_assignment(&data);
                let _ = decode_footer(&data);
                // The same bytes behind a valid frame reach every decoder
                // through a scan.
                let framed = frame_record(kind, &data);
                let scan = scan_segment(&framed);
                prop_assert!(scan.valid_len <= framed.len());
                if kind != KIND_ASSIGNMENT && kind != KIND_FOOTER {
                    prop_assert_eq!(scan.valid_len, 0);
                    prop_assert!(scan.corrupt() && scan.records.is_empty());
                }
            }

            /// The indexed history query answers, counts corruption and
            /// demotes exactly like the full-scan oracle over any sequence
            /// of appends, seals, flushes, crashes, recoveries and damage
            /// landing on sealed segments after the fact, on a faithful disk
            /// or under scheduled faults. Two identical worlds run the same
            /// operations; one is queried through the index, the other
            /// through the oracle.
            ///
            /// Dedup keeps one sink from archiving a `(device, seq)` twice,
            /// so equal `(at, seq)` keys are planted as valid frames behind
            /// the sink's back; coarse assignment times make them collide.
            #[test]
            fn indexed_history_matches_the_full_scan_oracle(
                seed in any::<u64>(),
                faults in prop::option::of((
                    (0u64..40_000, 0u64..8_000),
                    (0u64..40_000, 0u64..8_000),
                    (0u64..40_000, 0u64..8_000),
                    (0u64..40_000, 0u64..8_000),
                )),
                ops in prop::collection::vec(
                    (0u8..20, 0u32..4, 0u64..40_000, 0u64..12, any::<usize>(), any::<u8>()),
                    1..120,
                ),
            ) {
                let window = |(from, len): (u64, u64)| {
                    FaultSchedule::new(vec![FaultWindow::new(
                        SimTime::from_millis(from),
                        SimTime::from_millis(from + len),
                    )])
                };
                let plan = faults.map_or_else(DiskFaultPlan::none, |(torn, short, rot, fsync)| {
                    DiskFaultPlan {
                        torn_write: window(torn),
                        short_write: window(short),
                        bit_rot: window(rot),
                        fsync_loss: window(fsync),
                    }
                });
                let config = ArchiveConfig {
                    segment_records: 3,
                    ..ArchiveConfig::default()
                };
                let world = || {
                    let disk = SharedDisk::new(SimDisk::new(seed).with_fault_plan(plan.clone()));
                    (disk.clone(), ArchiveSink::new(disk, config.clone()))
                };
                let mut worlds = [world(), world()];
                for (kind, device, at_ms, seq, pick, byte) in ops {
                    let at = SimTime::from_millis(at_ms);
                    let coarse = SimTime::from_secs(at_ms / 10_000 * 10);
                    let device = DeviceId::new(device);
                    let room = usize::from(byte % 4);
                    if kind >= 17 {
                        let [(_, indexed), (_, oracle)] = &mut worlds;
                        let before = (indexed.read_corruptions(), oracle.read_corruptions());
                        let got = indexed.last_assignments_at(at);
                        let want = oracle.last_assignments_at_full_scan(at);
                        prop_assert_eq!(got, want);
                        prop_assert_eq!(
                            indexed.read_corruptions() - before.0,
                            oracle.read_corruptions() - before.1
                        );
                        prop_assert_eq!(indexed.healed(), oracle.healed());
                        continue;
                    }
                    for (disk, sink) in &mut worlds {
                        let sealed = sink.sealed.len();
                        match kind {
                            0..=7 => {
                                sink.append_assignment(device, coarse, seq, room);
                            }
                            8..=10 => {
                                sink.append_assignment(device, at, seq, room);
                            }
                            11 => sink.flush(),
                            12 => disk.crash(at),
                            13 => *sink = ArchiveSink::recover(disk.clone(), config.clone()).0,
                            14 if sealed > 0 => {
                                // Bytes past a sealed footer, as after recovery.
                                disk.append(&sink.sealed[pick % sealed].name, at, &[byte]);
                            }
                            15 if sealed > 0 => {
                                let name = &sink.sealed[pick % sealed].name;
                                let len = disk.with_file(name, <[u8]>::len).unwrap_or(0);
                                disk.truncate(name, len * usize::from(byte) / 256);
                            }
                            16 => {
                                let frame = oracle_frame(device, coarse, seq, room);
                                disk.append(&sink.active_name, at, &frame);
                            }
                            _ => {}
                        }
                    }
                }
            }

            /// `append_spill` writes what the per-record oracle writes, spill
            /// by spill: every segment file byte for byte, the marks, the
            /// counters, and each spill's appended/suppressed/bytes/sealed
            /// split. Spills pick random devices and seqs from a small range
            /// (so re-spills recur) and straddle seals of tiny segments; a
            /// spill can be replayed verbatim. After a crash, recovery
            /// rebuilds the marks and dedup windows the oracle replays from
            /// the same surviving bytes, and the two keep agreeing.
            #[test]
            fn append_spill_matches_the_per_record_oracle(
                seed in any::<u64>(),
                faults in any::<bool>(),
                segment_records in 1u32..6,
                ops in prop::collection::vec(
                    (
                        0u8..10,
                        0u32..5,
                        0u64..20_000,
                        prop::collection::vec((0u64..24, 0u64..20_000, 0usize..4), 0..9),
                    ),
                    1..40,
                ),
            ) {
                let config = ArchiveConfig {
                    segment_records,
                    dedup_capacity: 8,
                    ..ArchiveConfig::default()
                };
                let plan = if faults {
                    DiskFaultPlan::chaos(seed, SimDuration::from_secs(20))
                } else {
                    DiskFaultPlan::none()
                };
                let new_disk = || SharedDisk::new(SimDisk::new(seed).with_fault_plan(plan.clone()));
                let (disk, oracle_disk) = (new_disk(), new_disk());
                let mut sink = ArchiveSink::new(disk.clone(), config.clone());
                let mut oracle = OracleSink::new(oracle_disk.clone(), config.clone());
                let mut last_spill = None;
                for (op, device, at_ms, assignments) in ops {
                    let device = DeviceId::new(device);
                    let at = SimTime::from_millis(at_ms);
                    let spill = match op {
                        0..=5 => {
                            let assignments: Vec<(SimTime, u64, RoomLabel)> = assignments
                                .iter()
                                .map(|&(seq, at_ms, room)| (SimTime::from_millis(at_ms), seq, room))
                                .collect();
                            Some((device, assignments))
                        }
                        6 => last_spill.clone(),
                        7 => {
                            sink.flush();
                            oracle.flush();
                            None
                        }
                        _ => {
                            disk.crash(at);
                            oracle_disk.crash(at);
                            sink = ArchiveSink::recover(disk.clone(), config.clone()).0;
                            oracle = OracleSink::recover(oracle_disk.clone(), config.clone());
                            None
                        }
                    };
                    if let Some((device, assignments)) = &spill {
                        let outcome = sink.append_spill(*device, assignments);
                        let before = oracle.stats;
                        let verdicts: Vec<bool> = assignments
                            .iter()
                            .map(|&(at, seq, room)| oracle.append_assignment(*device, at, seq, room))
                            .collect();
                        let appended = verdicts.iter().filter(|&&fresh| fresh).count() as u64;
                        prop_assert_eq!(outcome, SpillOutcome {
                            appended,
                            suppressed: verdicts.len() as u64 - appended,
                            bytes: oracle.stats.bytes_appended - before.bytes_appended,
                            sealed: oracle.stats.segments_sealed - before.segments_sealed,
                        });
                        last_spill = spill;
                    }
                    prop_assert_eq!(sink.marks(), oracle.marks.clone());
                    prop_assert_eq!(sink.stats(), oracle.stats);
                    let names = disk.list("");
                    prop_assert_eq!(&names, &oracle_disk.list(""));
                    for name in &names {
                        prop_assert_eq!(
                            disk.with_file(name, <[u8]>::to_vec),
                            oracle_disk.with_file(name, <[u8]>::to_vec)
                        );
                    }
                }
            }

            /// Any single-byte flip or truncation of a valid assignment
            /// frame is rejected.
            #[test]
            fn damaged_frames_are_rejected(
                room in any::<usize>(),
                at_ms in any::<u64>(),
                at_byte in any::<usize>(),
                mask in 1u8..=255,
                cut in any::<usize>(),
            ) {
                let frame = oracle_frame(DeviceId::new(7), SimTime::from_millis(at_ms), 9, room);
                prop_assert!(parse_frame(&frame, 0).is_some());
                let mut flipped = frame.clone();
                flipped[at_byte % frame.len()] ^= mask;
                prop_assert!(parse_frame(&flipped, 0).is_none());
                prop_assert!(parse_frame(&frame[..cut % frame.len()], 0).is_none());
            }
        }
    }
}
