//! The durable archive tier below retention compaction.
//!
//! [`ShardedBmsServer::with_retention`](crate::ShardedBmsServer::with_retention)
//! bounds live memory by dropping each device's oldest reports — and with it
//! the ability to answer `occupancy_at` below the low watermark. An
//! [`ArchiveSink`] turns that drop into a **spill**: every compacted report
//! and assignment is appended to a checksummed segment log on a
//! [`SharedDisk`], so historical queries answer *exactly* from cold storage
//! while the hot path keeps its `retention_cap` memory bound.
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
//! * **report** (`0`): device, seq, report time, and every sighted beacon
//!   (uuid, major, minor, distance bits) — enough to reconstruct the
//!   [`ObservationReport`](crate::ObservationReport) byte-for-byte;
//! * **assignment** (`1`): device, seq, report time, room label — the
//!   classification history `occupancy_at` reconstructs the past from;
//! * **footer** (`2`): record count, time bounds, segment digest, and a
//!   downsampled per-room occupancy summary. A segment ending in a valid
//!   footer is **sealed** and fsynced; the footer's time bounds let range
//!   queries skip whole segments. The summary is written and parsed as
//!   part of the format, but no query reads it.
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
use crate::{DeviceId, ObservationReport, RoomLabel, SightedBeacon};
use roomsense_ibeacon::{BeaconIdentity, Major, Minor, ProximityUuid};
use roomsense_sim::{SharedDisk, SimTime};
use std::collections::BTreeMap;
use std::fmt;

const RECORD_MAGIC: u8 = 0xA7;
/// Magic, kind and the `u32` payload length.
const FRAME_HEADER: usize = 1 + 1 + 4;
const KIND_REPORT: u8 = 0;
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

/// Configuration for one [`ArchiveSink`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchiveConfig {
    /// Segment-file name prefix; one sink must own its prefix exclusively.
    pub prefix: String,
    /// Records per segment before it is sealed and fsynced.
    pub segment_records: u32,
    /// Capacity of each per-`(kind, device)` re-spill dedup window.
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
    pub fn for_shard(&self, shard: usize) -> ArchiveConfig {
        ArchiveConfig {
            prefix: format!("{}shard-{shard:04}/", self.prefix),
            ..self.clone()
        }
    }
}

/// Per-device archive position: how many records this device has archived
/// and the running FNV-1a digest over their canonical bytes, in spill
/// order. Embedded into checkpoints so recovery can prove coverage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceMark {
    /// Records archived for this device.
    pub records: u64,
    /// Running digest over `kind || payload` of each record, in order.
    pub digest: u64,
}

/// Counters for one [`ArchiveSink`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArchiveStats {
    /// Records appended (reports + assignments).
    pub records: u64,
    /// Report records appended.
    pub reports: u64,
    /// Assignment records appended.
    pub assignments: u64,
    /// Segments sealed with a footer.
    pub segments_sealed: u64,
    /// Bytes appended to segment files (frames + footers).
    pub bytes_appended: u64,
    /// Re-spills of already-archived records suppressed by dedup.
    pub respill_suppressed: u64,
}

impl ArchiveStats {
    /// Field-wise sum, for merging per-shard sinks.
    pub fn merged(self, other: ArchiveStats) -> ArchiveStats {
        ArchiveStats {
            records: self.records + other.records,
            reports: self.reports + other.reports,
            assignments: self.assignments + other.assignments,
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
    pub records: u64,
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
    pub fn merged(self, other: RecoveryReport) -> RecoveryReport {
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
    pub fn merged(self, other: Coverage) -> Coverage {
        Coverage {
            covered: self.covered && other.covered,
            missing_records: self.missing_records + other.missing_records,
            diverged_devices: self.diverged_devices + other.diverged_devices,
        }
    }
}

/// Cached metadata of one sealed segment, kept in memory so range queries
/// can skip segments without touching the disk.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SegmentMeta {
    name: String,
    records: u32,
    min_at: SimTime,
    max_at: SimTime,
    digest: u64,
    /// The decode behind the assignment index, `None` until a history
    /// query first needs this segment.
    memo: Option<SegmentMemo>,
}

impl SegmentMeta {
    /// The metadata of non-empty `segment`, just sealed as file `name`; no
    /// history query has decoded it yet.
    fn sealed(name: String, segment: ActiveSegment) -> Self {
        SegmentMeta {
            name,
            records: segment.records,
            min_at: segment.min_at.expect("non-empty segment"),
            max_at: segment.max_at.expect("non-empty segment"),
            digest: segment.digest,
            memo: None,
        }
    }
}

/// What one decode of a sealed segment learned: valid while the file's
/// disk generation still reads `generation`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, Default, PartialEq)]
struct ActiveSegment {
    records: u32,
    digest: u64,
    min_at: Option<SimTime>,
    max_at: Option<SimTime>,
    summary: BTreeMap<u64, u64>,
}

impl ActiveSegment {
    fn fresh() -> Self {
        ActiveSegment {
            digest: FNV_OFFSET,
            ..ActiveSegment::default()
        }
    }

    fn observe(&mut self, kind: u8, payload: &[u8], at: SimTime) {
        fnv_fold(&mut self.digest, &[kind]);
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

/// An append-only, checksummed segment log for compacted BMS records.
///
/// One sink per shard of a [`ShardedBmsServer`](crate::ShardedBmsServer),
/// each under its own `shard-NNNN/` prefix on one [`SharedDisk`]. See the
/// module docs for the format and recovery invariants.
#[derive(Debug)]
pub struct ArchiveSink {
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
    active: ActiveSegment,
    /// The frame buffer every append encodes into, reused across records.
    frame: Vec<u8>,
    marks: BTreeMap<DeviceId, DeviceMark>,
    dedup: BTreeMap<(u8, DeviceId), DedupWindow>,
    last_at: SimTime,
    healed: bool,
    read_corruptions: u64,
    stats: ArchiveStats,
}

impl ArchiveSink {
    /// A fresh sink over an empty prefix. Starts `healed` — there is
    /// nothing to have lost yet.
    pub fn new(disk: SharedDisk, config: ArchiveConfig) -> Self {
        ArchiveSink {
            disk,
            active_name: segment_name(&config.prefix, 0),
            config,
            sealed: Vec::new(),
            history: BTreeMap::new(),
            history_decodes: 0,
            active_index: 0,
            active: ActiveSegment::fresh(),
            frame: Vec::new(),
            marks: BTreeMap::new(),
            dedup: BTreeMap::new(),
            last_at: SimTime::ZERO,
            healed: true,
            read_corruptions: 0,
            stats: ArchiveStats::default(),
        }
    }

    /// Appends one compacted report. Returns `false` when the record was
    /// already archived (a journal-replay re-spill) and was suppressed.
    pub fn append_report(&mut self, report: &ObservationReport) -> bool {
        if !self.admit(KIND_REPORT, report.device, report.seq) {
            return false;
        }
        begin_frame(&mut self.frame, KIND_REPORT);
        write_report(&mut self.frame, report);
        self.commit_frame(report.device, report.at, None);
        true
    }

    /// Appends one compacted assignment. Returns `false` on a suppressed
    /// re-spill.
    pub fn append_assignment(
        &mut self,
        device: DeviceId,
        at: SimTime,
        seq: u64,
        room: RoomLabel,
    ) -> bool {
        if !self.admit(KIND_ASSIGNMENT, device, seq) {
            return false;
        }
        begin_frame(&mut self.frame, KIND_ASSIGNMENT);
        write_assignment(&mut self.frame, device, at, seq, room);
        self.commit_frame(device, at, Some(room));
        true
    }

    /// The re-spill dedup verdict for one record: true when it is new.
    fn admit(&mut self, kind: u8, device: DeviceId, seq: u64) -> bool {
        let capacity = self.config.dedup_capacity;
        let fresh = self
            .dedup
            .entry((kind, device))
            .or_default()
            .check_and_insert(seq, capacity);
        if !fresh {
            self.stats.respill_suppressed += 1;
        }
        fresh
    }

    /// Finishes the frame in the buffer (a `room` marks an assignment),
    /// folds it into the device mark and the segment digest, and appends it
    /// to the active segment, sealing the segment when it is full.
    fn commit_frame(&mut self, device: DeviceId, at: SimTime, room: Option<RoomLabel>) {
        let mark = self.marks.entry(device).or_insert(DeviceMark {
            records: 0,
            digest: FNV_OFFSET,
        });
        [mark.digest, self.active.digest] =
            finish_frame(&mut self.frame, [mark.digest, self.active.digest]);
        mark.records += 1;
        self.active.count(at);
        match room {
            Some(room) => {
                *self.active.summary.entry(room as u64).or_insert(0) += 1;
                self.stats.assignments += 1;
            }
            None => self.stats.reports += 1,
        }
        self.disk.append(&self.active_name, at, &self.frame);
        self.stats.bytes_appended += self.frame.len() as u64;
        self.stats.records += 1;
        self.last_at = self.last_at.max(at);
        if self.active.records >= self.config.segment_records {
            self.seal(at);
        }
    }

    /// Seals the active segment: writes the footer, fsyncs, and opens the
    /// next segment. No-op while the active segment is empty.
    fn seal(&mut self, at: SimTime) {
        if self.active.records == 0 {
            return;
        }
        let min_at = self.active.min_at.expect("non-empty segment");
        let max_at = self.active.max_at.expect("non-empty segment");
        let footer = encode_footer(
            self.active.records,
            min_at,
            max_at,
            self.active.digest,
            &self.active.summary,
        );
        let frame = frame_record(KIND_FOOTER, &footer);
        let name = std::mem::take(&mut self.active_name);
        self.disk.append(&name, at, &frame);
        self.disk.fsync(&name, at);
        self.stats.bytes_appended += frame.len() as u64;
        self.stats.segments_sealed += 1;
        let segment = std::mem::replace(&mut self.active, ActiveSegment::fresh());
        self.sealed.push(SegmentMeta::sealed(name, segment));
        self.active_index += 1;
        self.active_name = segment_name(&self.config.prefix, self.active_index);
    }

    /// Makes the active segment durable (checkpoint calls this so the
    /// archive never trails the checkpoint it is embedded in). Uses the
    /// last record's report time as the operation time, keeping disk fault
    /// windows deterministic.
    pub fn flush(&mut self) {
        if self.active.records == 0 {
            return;
        }
        self.disk.fsync(&self.active_name, self.last_at);
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
    pub fn recover(disk: SharedDisk, config: ArchiveConfig) -> (Self, RecoveryReport) {
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
            let scan = sink
                .disk
                .with_file(&name, scan_segment)
                .expect("listed files exist");
            if scan.corrupt() {
                sink.disk.truncate(&name, scan.valid_len);
                report.truncated_segments += 1;
                report.truncated_bytes += (scan.len - scan.valid_len) as u64;
            }
            if let Some(footer) = &scan.footer {
                if footer.records != scan.segment.records || footer.digest != scan.segment.digest
                {
                    report.footer_mismatches += 1;
                }
            }
            report.records += u64::from(scan.segment.records);
            // Fold the surviving records into marks and dedup windows.
            for rec in &scan.records {
                match rec {
                    ArchiveRecord::Report(r) => {
                        sink.replay_mark(KIND_REPORT, r.device, r.seq, &encode_report(r));
                    }
                    ArchiveRecord::Assignment {
                        device,
                        at,
                        seq,
                        room,
                    } => {
                        sink.replay_mark(
                            KIND_ASSIGNMENT,
                            *device,
                            *seq,
                            &encode_assignment(*device, *at, *seq, *room),
                        );
                    }
                }
            }
            sink.last_at = sink.last_at.max(scan.segment.max_at.unwrap_or(SimTime::ZERO));
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
                        &scan.segment.summary,
                    );
                    let frame = frame_record(KIND_FOOTER, &footer);
                    sink.disk.append(&name, at, &frame);
                    sink.disk.fsync(&name, at);
                    sink.stats.segments_sealed += 1;
                }
                sink.sealed.push(SegmentMeta::sealed(name, scan.segment));
            }
        }
        sink.active_index = last_index.map_or(0, |i| i + 1);
        sink.active_name = segment_name(&sink.config.prefix, sink.active_index);
        sink.active = ActiveSegment::fresh();
        sink.stats.records = report.records;
        sink.healed = report.clean();
        (sink, report)
    }

    fn replay_mark(&mut self, kind: u8, device: DeviceId, seq: u64, payload: &[u8]) {
        let capacity = self.config.dedup_capacity;
        self.dedup
            .entry((kind, device))
            .or_default()
            .check_and_insert(seq, capacity);
        let mark = self.marks.entry(device).or_insert(DeviceMark {
            records: 0,
            digest: FNV_OFFSET,
        });
        fnv_fold(&mut mark.digest, &[kind]);
        fnv_fold(&mut mark.digest, payload);
        mark.records += 1;
        match kind {
            KIND_REPORT => self.stats.reports += 1,
            _ => self.stats.assignments += 1,
        }
    }

    /// Checks that the surviving records still cover a checkpoint's
    /// [`marks`](Self::marks): for every marked device the disk must hold
    /// at least `mark.records` records whose running digest passes
    /// **exactly** through `mark.digest`. Extra records beyond the mark
    /// (spilled after the checkpoint) are fine — journal replay
    /// regenerates and dedups them.
    pub fn verify_covers(&self, marks: &BTreeMap<DeviceId, DeviceMark>) -> Coverage {
        let mut running: BTreeMap<DeviceId, DeviceMark> = BTreeMap::new();
        let mut at_mark: BTreeMap<DeviceId, u64> = BTreeMap::new();
        self.scan_all(|rec| {
            let (kind, device, payload) = match rec {
                ArchiveRecord::Report(r) => (KIND_REPORT, r.device, encode_report(r)),
                ArchiveRecord::Assignment {
                    device,
                    at,
                    seq,
                    room,
                } => (
                    KIND_ASSIGNMENT,
                    *device,
                    encode_assignment(*device, *at, *seq, *room),
                ),
            };
            let entry = running.entry(device).or_insert(DeviceMark {
                records: 0,
                digest: FNV_OFFSET,
            });
            fnv_fold(&mut entry.digest, &[kind]);
            fnv_fold(&mut entry.digest, &payload);
            entry.records += 1;
            if let Some(mark) = marks.get(&device) {
                if entry.records == mark.records {
                    at_mark.insert(device, entry.digest);
                }
            }
            true
        });
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

    /// Visits every decodable record across all segments in spill order;
    /// the visitor returns `false` to stop early. Corruption encountered
    /// mid-scan (bit rot landed after recovery) ends that segment's scan —
    /// queries degrade, they do not panic.
    fn scan_all(&self, mut visit: impl FnMut(&ArchiveRecord) -> bool) {
        for index in 0.. {
            let name = segment_name(&self.config.prefix, index);
            let Some(scan) = self.disk.with_file(&name, scan_segment) else {
                break;
            };
            for rec in &scan.records {
                if !visit(rec) {
                    return;
                }
            }
            if index >= self.active_index {
                break;
            }
        }
    }

    /// Archived reports with time in `[from, to)`, sorted by
    /// `(time, device, seq)`. Sealed segments outside the range are
    /// skipped via their footer bounds without touching the disk.
    ///
    /// Takes `&mut self` because reads audit what they decode: corruption
    /// that landed *after* recovery (ongoing bit rot, a short write under
    /// the tail) demotes the sink to lossy on the spot; `healed()` flips
    /// false and [`read_corruptions`](Self::read_corruptions) counts it.
    pub fn reports_between(&mut self, from: SimTime, to: SimTime) -> Vec<ObservationReport> {
        let mut rows = Vec::new();
        self.for_segments_overlapping(from, to, |rec| {
            if let ArchiveRecord::Report(r) = rec {
                if r.at >= from && r.at < to {
                    rows.push(r.clone());
                }
            }
        });
        rows.sort_by_key(|r| (r.at, r.device, r.seq));
        rows
    }

    /// The newest archived assignment at or before `at`, per device.
    /// `&mut self` for the same read-audit reason as
    /// [`reports_between`](Self::reports_between).
    ///
    /// Sealed segments are answered from a per-device history index, each
    /// decoded once per change to its bytes on disk; every corrupt one
    /// still counts once per query, exactly as a rescan would. Only the
    /// active segment is decoded on every call.
    pub fn last_assignments_at(
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
                    for rec in &scan.records {
                        if let ArchiveRecord::Assignment {
                            device,
                            at,
                            seq,
                            room,
                        } = rec
                        {
                            let history = self.history.entry(*device).or_default();
                            let key = (*at, *seq);
                            let position = history.partition_point(|(t, s, _)| (*t, *s) <= key);
                            history.insert(position, (*at, *seq, *room));
                        }
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
        self.for_segments_overlapping(SimTime::ZERO, SimTime::from_millis(u64::MAX), |rec| {
            fold_assignment(&mut best, rec, at);
        });
        best
    }

    /// Every query read is also an audit. Recovery truncates segments to
    /// their valid prefix, so a healthy file always parses front to back;
    /// a scan that stops short of the file's end means corruption landed
    /// *after* recovery (ongoing bit rot, a short write under freshly
    /// re-spilled records) and some records are unreadable. The sink
    /// demotes itself to lossy immediately — the caller's answer merges
    /// whatever survived and is flagged incomplete, never silently wrong.
    fn for_segments_overlapping(
        &mut self,
        from: SimTime,
        to: SimTime,
        mut visit: impl FnMut(&ArchiveRecord),
    ) {
        let mut corrupt_reads = 0u64;
        let overlap_active = match (self.active.min_at, self.active.max_at) {
            (Some(min), Some(max)) => !(max < from || min >= to),
            _ => false,
        };
        let overlapping = self
            .sealed
            .iter()
            .filter(|meta| !(meta.max_at < from || meta.min_at >= to))
            .map(|meta| meta.name.as_str())
            .chain(overlap_active.then_some(self.active_name.as_str()));
        for name in overlapping {
            if let Some(scan) = self.disk.with_file(name, scan_segment) {
                corrupt_reads += u64::from(scan.corrupt());
                for rec in &scan.records {
                    visit(rec);
                }
            }
        }
        self.audit(corrupt_reads);
    }

    /// Records what one query's reads found corrupt: any corruption
    /// demotes the sink to lossy.
    fn audit(&mut self, corrupt_reads: u64) {
        if corrupt_reads > 0 {
            self.healed = false;
            self.read_corruptions += corrupt_reads;
        }
    }

    /// Per-device archive marks (records + running digest), the coverage
    /// contract a checkpoint embeds.
    pub fn marks(&self) -> &BTreeMap<DeviceId, DeviceMark> {
        &self.marks
    }

    /// Counters.
    pub fn stats(&self) -> ArchiveStats {
        self.stats
    }

    /// Total records archived.
    pub fn records(&self) -> u64 {
        self.stats.records
    }

    /// Segments sealed so far.
    pub fn segments_sealed(&self) -> u64 {
        self.stats.segments_sealed
    }

    /// True when the archive is known to hold every record it ever
    /// promised — fresh sinks start healed; recovered sinks are healed
    /// after [`verify_covers`](Self::verify_covers) (plus journal replay)
    /// proves nothing is missing.
    pub fn healed(&self) -> bool {
        self.healed
    }

    /// Marks the archive fully healed (coverage verified and the journal
    /// suffix replayed).
    pub fn mark_healed(&mut self) {
        self.healed = true;
    }

    /// Marks the archive lossy: some promised records are gone, so
    /// historical answers below the retention floor must say incomplete.
    pub fn mark_lossy(&mut self) {
        self.healed = false;
    }

    /// How many query-time segment scans have hit corruption that landed
    /// after recovery. Any non-zero value means the sink demoted itself
    /// to lossy mid-flight.
    pub fn read_corruptions(&self) -> u64 {
        self.read_corruptions
    }

    /// The sink's segment-name prefix.
    pub fn prefix(&self) -> &str {
        &self.config.prefix
    }

    /// The newest record time the sink has seen.
    pub fn last_at(&self) -> SimTime {
        self.last_at
    }
}

impl fmt::Display for ArchiveSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} record(s) in {} sealed segment(s) (+active), {} device(s)",
            self.stats.records,
            self.sealed.len(),
            self.marks.len()
        )
    }
}

/// One decoded archive record.
#[derive(Debug, Clone, PartialEq)]
enum ArchiveRecord {
    Report(ObservationReport),
    Assignment {
        device: DeviceId,
        at: SimTime,
        seq: u64,
        room: RoomLabel,
    },
}

#[derive(Debug, Clone, PartialEq)]
struct FooterInfo {
    records: u32,
    min_at: SimTime,
    max_at: SimTime,
    digest: u64,
    summary: BTreeMap<u64, u64>,
}

/// Everything a front-to-back scan of one segment file learns.
struct SegmentScan {
    records: Vec<ArchiveRecord>,
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
}

/// Folds `rec`, if it is an assignment at or before `at`, into the newest
/// assignment per device. Compared with `>=`, so of two equal `(at, seq)`
/// keys the one folded later wins.
fn fold_assignment(
    best: &mut BTreeMap<DeviceId, (SimTime, u64, RoomLabel)>,
    rec: &ArchiveRecord,
    at: SimTime,
) {
    if let ArchiveRecord::Assignment {
        device,
        at: t,
        seq,
        room,
    } = rec
    {
        if *t <= at {
            let entry = best.entry(*device).or_insert((*t, *seq, *room));
            if (*t, *seq) >= (entry.0, entry.1) {
                *entry = (*t, *seq, *room);
            }
        }
    }
}

/// Parses one segment buffer, stopping at the first record the CRC (or the
/// framing) rejects. A footer ends the segment: bytes after it are treated
/// as corruption.
fn scan_segment(data: &[u8]) -> SegmentScan {
    let mut scan = SegmentScan {
        records: Vec::new(),
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
        match kind {
            KIND_REPORT => {
                let Some(report) = decode_report(payload) else {
                    break;
                };
                let at = report.at;
                scan.segment.observe(KIND_REPORT, payload, at);
                scan.records.push(ArchiveRecord::Report(report));
            }
            KIND_ASSIGNMENT => {
                let Some((device, at, seq, room)) = decode_assignment(payload) else {
                    break;
                };
                scan.segment.observe(KIND_ASSIGNMENT, payload, at);
                *scan.segment.summary.entry(room as u64).or_insert(0) += 1;
                scan.records.push(ArchiveRecord::Assignment {
                    device,
                    at,
                    seq,
                    room,
                });
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

fn encode_report(report: &ObservationReport) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 8 + 8 + 2 + report.beacons.len() * 36);
    write_report(&mut out, report);
    out
}

/// Appends a report's payload bytes to `out`.
fn write_report(out: &mut Vec<u8>, report: &ObservationReport) {
    out.extend_from_slice(&report.device.value().to_le_bytes());
    out.extend_from_slice(&report.seq.to_le_bytes());
    out.extend_from_slice(&report.at.as_millis().to_le_bytes());
    out.extend_from_slice(&(report.beacons.len() as u16).to_le_bytes());
    for beacon in &report.beacons {
        out.extend_from_slice(beacon.identity.uuid.as_bytes());
        out.extend_from_slice(&beacon.identity.major.value().to_le_bytes());
        out.extend_from_slice(&beacon.identity.minor.value().to_le_bytes());
        out.extend_from_slice(&beacon.distance_m.to_bits().to_le_bytes());
    }
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

    fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.take(2)?.try_into().ok()?))
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

fn decode_report(payload: &[u8]) -> Option<ObservationReport> {
    let mut r = Reader {
        data: payload,
        pos: 0,
    };
    let device = DeviceId::new(r.u32()?);
    let seq = r.u64()?;
    let at = SimTime::from_millis(r.u64()?);
    let count = r.u16()? as usize;
    let mut beacons = Vec::with_capacity(count);
    for _ in 0..count {
        let uuid = ProximityUuid::from_bytes(r.take(16)?.try_into().ok()?);
        let major = Major::new(r.u16()?);
        let minor = Minor::new(r.u16()?);
        let distance_m = f64::from_bits(r.u64()?);
        beacons.push(SightedBeacon {
            identity: BeaconIdentity { uuid, major, minor },
            distance_m,
        });
    }
    if !r.done() {
        return None;
    }
    Some(ObservationReport {
        device,
        seq,
        at,
        beacons,
    })
}

fn encode_assignment(device: DeviceId, at: SimTime, seq: u64, room: RoomLabel) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 8 + 8 + 8);
    write_assignment(&mut out, device, at, seq, room);
    out
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

fn encode_footer(
    records: u32,
    min_at: SimTime,
    max_at: SimTime,
    digest: u64,
    summary: &BTreeMap<u64, u64>,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 8 + 8 + 8 + 2 + summary.len() * 16);
    out.extend_from_slice(&records.to_le_bytes());
    out.extend_from_slice(&min_at.as_millis().to_le_bytes());
    out.extend_from_slice(&max_at.as_millis().to_le_bytes());
    out.extend_from_slice(&digest.to_le_bytes());
    out.extend_from_slice(&(summary.len() as u16).to_le_bytes());
    for (room, count) in summary {
        out.extend_from_slice(&room.to_le_bytes());
        out.extend_from_slice(&count.to_le_bytes());
    }
    out
}

fn decode_footer(payload: &[u8]) -> Option<FooterInfo> {
    let mut r = Reader {
        data: payload,
        pos: 0,
    };
    let records = r.u32()?;
    let min_at = SimTime::from_millis(r.u64()?);
    let max_at = SimTime::from_millis(r.u64()?);
    let digest = r.u64()?;
    let rooms = r.u16()? as usize;
    let mut summary = BTreeMap::new();
    for _ in 0..rooms {
        let room = r.u64()?;
        let count = r.u64()?;
        summary.insert(room, count);
    }
    if !r.done() {
        return None;
    }
    Some(FooterInfo {
        records,
        min_at,
        max_at,
        digest,
        summary,
    })
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
    use roomsense_sim::{DiskFaultPlan, FaultSchedule, FaultWindow, SimDisk};

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
                distance_m: 1.5,
            }],
        }
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

    #[test]
    fn report_round_trips_through_the_wire_format() {
        let r = report(42, 77, 3);
        let decoded = decode_report(&encode_report(&r)).expect("decodes");
        assert_eq!(decoded, r);
        let empty = ObservationReport {
            beacons: vec![],
            ..report(1, 1, 0)
        };
        assert_eq!(decode_report(&encode_report(&empty)), Some(empty));
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        let frame = frame_record(KIND_REPORT, &encode_report(&report(1, 1, 0)));
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
        for i in 0..10u64 {
            assert!(sink.append_report(&report(7, i, 0)));
            assert!(sink.append_assignment(DeviceId::new(7), SimTime::from_secs(i), i, 3));
        }
        assert_eq!(sink.records(), 20);
        assert_eq!(sink.segments_sealed(), 5);
        let marks = sink.marks().clone();
        sink.flush();

        let (mut recovered, rep) = ArchiveSink::recover(disk, small_config());
        assert!(rep.clean(), "{rep:?}");
        assert_eq!(rep.records, 20);
        assert_eq!(recovered.marks(), &marks);
        assert!(recovered.verify_covers(&marks).covered);
        let rows = recovered.reports_between(SimTime::ZERO, SimTime::from_secs(100));
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[0], report(7, 0, 0));
    }

    #[test]
    fn respill_is_suppressed_by_seq_dedup() {
        let disk = SharedDisk::new(SimDisk::pristine(2));
        let mut sink = ArchiveSink::new(disk, small_config());
        assert!(sink.append_report(&report(1, 5, 0)));
        assert!(!sink.append_report(&report(1, 5, 0)));
        // Same seq, different kind: not a duplicate.
        assert!(sink.append_assignment(DeviceId::new(1), SimTime::from_secs(5), 5, 2));
        assert!(!sink.append_assignment(DeviceId::new(1), SimTime::from_secs(5), 5, 2));
        assert_eq!(sink.stats().respill_suppressed, 2);
        assert_eq!(sink.records(), 2);
    }

    #[test]
    fn crash_loses_only_the_unflushed_tail_and_recovery_reports_it() {
        let disk = SharedDisk::new(SimDisk::pristine(3));
        let mut sink = ArchiveSink::new(disk.clone(), small_config());
        for i in 0..9u64 {
            sink.append_report(&report(1, i, 0)); // seals at 4 and 8
        }
        // Segment 2 holds one volatile record; crash drops it cleanly.
        disk.crash(SimTime::from_secs(10));
        let marks_full = sink.marks().clone();
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
                sink.append_report(&report(1, i, 0));
            }
            let frame = frame_record(KIND_REPORT, &encode_report(&report(1, 9, 0)));
            disk.append("bms/seg-00000001", SimTime::from_secs(9), &frame[..frame.len() / 2]);
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
            sink.append_report(&report(1, i, 0)); // sealed + fsynced pre-rot
        }
        let marks = sink.marks().clone();
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
            sink.append_report(&report(1, i, 0));
        }
        sink.flush();
        let (mut recovered, _) = ArchiveSink::recover(disk.clone(), small_config());
        // Re-spills of the archived records are suppressed...
        for i in 0..6u64 {
            assert!(!recovered.append_report(&report(1, i, 0)));
        }
        // ...while genuinely new records append and seal normally.
        for i in 6..12u64 {
            assert!(recovered.append_report(&report(1, i, 0)));
        }
        recovered.flush();
        let (mut again, rep) = ArchiveSink::recover(disk, small_config());
        assert!(rep.clean());
        assert_eq!(rep.records, 12);
        assert_eq!(
            again.reports_between(SimTime::ZERO, SimTime::from_secs(100)).len(),
            12
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
            let r = report((i % 4) as u32, i, (i % 3) as u16);
            single.append_report(&r);
            if r.device.value().is_multiple_of(2) {
                shard0.append_report(&r);
            } else {
                shard1.append_report(&r);
            }
        }
        let mut merged = shard0.marks().clone();
        merged.extend(shard1.marks().clone());
        assert_eq!(&merged, single.marks());
    }

    #[test]
    fn last_assignments_at_reconstructs_per_device_history() {
        let disk = SharedDisk::new(SimDisk::pristine(9));
        let mut sink = ArchiveSink::new(disk, small_config());
        sink.append_assignment(DeviceId::new(1), SimTime::from_secs(10), 1, 5);
        sink.append_assignment(DeviceId::new(1), SimTime::from_secs(20), 2, 7);
        sink.append_assignment(DeviceId::new(2), SimTime::from_secs(15), 1, 3);
        let at_12 = sink.last_assignments_at(SimTime::from_secs(12));
        assert_eq!(at_12.get(&DeviceId::new(1)), Some(&(SimTime::from_secs(10), 1, 5)));
        assert!(!at_12.contains_key(&DeviceId::new(2)));
        let at_99 = sink.last_assignments_at(SimTime::from_secs(99));
        assert_eq!(at_99.get(&DeviceId::new(1)), Some(&(SimTime::from_secs(20), 2, 7)));
        assert_eq!(at_99.get(&DeviceId::new(2)), Some(&(SimTime::from_secs(15), 1, 3)));
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
        assert_eq!(sink.segments_sealed(), 3);
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
            sink.append_report(&report(1, i, 0)); // seal fsync silently lost
        }
        let marks = sink.marks().clone();
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
            sink.append_report(&report(1, i, 0)); // one sealed segment
        }
        assert!(sink.healed());
        assert_eq!(sink.last_assignments_at(SimTime::from_secs(99)).len(), 0);
        assert!(sink.healed(), "a clean read must not demote");

        // Garbage lands beyond the sealed footer — the kind of damage the
        // recovery scan never saw because it happened after recovery.
        let name = format!("{}seg-{:08}", sink.prefix(), 0);
        disk.append(&name, SimTime::from_secs(60), &[0xFF, 0xFF]);
        let rows = sink.reports_between(SimTime::ZERO, SimTime::from_secs(100));
        // The surviving prefix is still served...
        assert_eq!(rows.len(), 4);
        // ...but the sink has demoted itself and says so.
        assert!(!sink.healed());
        assert_eq!(sink.read_corruptions(), 1);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        type BeaconParts = ([u8; 16], u16, u16, u64);

        fn arbitrary_report(
            device: u32,
            seq: u64,
            at_ms: u64,
            beacons: &[BeaconParts],
        ) -> ObservationReport {
            ObservationReport {
                device: DeviceId::new(device),
                seq,
                at: SimTime::from_millis(at_ms),
                beacons: beacons
                    .iter()
                    .map(|&(uuid, major, minor, bits)| SightedBeacon {
                        identity: BeaconIdentity {
                            uuid: ProximityUuid::from_bytes(uuid),
                            major: Major::new(major),
                            minor: Minor::new(minor),
                        },
                        distance_m: f64::from_bits(bits),
                    })
                    .collect(),
            }
        }

        fn beacons() -> impl Strategy<Value = Vec<BeaconParts>> {
            prop::collection::vec(
                (
                    prop::array::uniform16(any::<u8>()),
                    any::<u16>(),
                    any::<u16>(),
                    any::<u64>(),
                ),
                0..9,
            )
        }

        /// The valid frame of one report (`room == None`) or assignment.
        fn oracle_frame(report: &ObservationReport, room: Option<RoomLabel>) -> Vec<u8> {
            match room {
                None => frame_record(KIND_REPORT, &encode_report(report)),
                Some(room) => frame_record(
                    KIND_ASSIGNMENT,
                    &encode_assignment(report.device, report.at, report.seq, room),
                ),
            }
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
                beacons in beacons(),
                room in any::<usize>(),
                digests in (any::<u64>(), any::<u64>()),
                stale in prop::collection::vec(any::<u8>(), 0..40),
            ) {
                let report = arbitrary_report(device, seq, at_ms, &beacons);
                let mut frame = stale;
                for kind in [KIND_REPORT, KIND_ASSIGNMENT] {
                    begin_frame(&mut frame, kind);
                    let payload = if kind == KIND_REPORT {
                        write_report(&mut frame, &report);
                        encode_report(&report)
                    } else {
                        write_assignment(&mut frame, report.device, report.at, seq, room);
                        encode_assignment(report.device, report.at, seq, room)
                    };
                    let fused = finish_frame(&mut frame, [digests.0, digests.1]);
                    prop_assert_eq!(&frame, &frame_record(kind, &payload));

                    let mut separate = [digests.0, digests.1];
                    for digest in &mut separate {
                        fnv_fold(digest, &[kind]);
                        fnv_fold(digest, &payload);
                    }
                    prop_assert_eq!(fused, separate);
                    let mut crc = FNV_OFFSET;
                    fnv_fold(&mut crc, &[kind]);
                    fnv_fold(&mut crc, &(payload.len() as u32).to_le_bytes());
                    fnv_fold(&mut crc, &payload);
                    prop_assert_eq!(&frame[frame.len() - 8..], &crc.to_le_bytes()[..]);
                }
            }

            /// A sink's segment files hold exactly the oracle frames in
            /// append order (footers aside), and its marks are the
            /// separately folded oracle digests.
            #[test]
            fn sink_appends_the_oracle_bytes_and_marks(
                segment_records in 1u32..6,
                stream in prop::collection::vec(
                    (0u32..4, prop::option::of(0usize..5), beacons()),
                    0..40,
                ),
            ) {
                let config = ArchiveConfig {
                    segment_records,
                    ..ArchiveConfig::default()
                };
                let disk = SharedDisk::new(SimDisk::pristine(21));
                let mut sink = ArchiveSink::new(disk.clone(), config.clone());
                let mut expected = Vec::new();
                let mut marks: BTreeMap<DeviceId, DeviceMark> = BTreeMap::new();
                for (i, (device, room, beacons)) in stream.iter().enumerate() {
                    let report = arbitrary_report(*device, i as u64, 1000 * i as u64, beacons);
                    let appended = match room {
                        None => sink.append_report(&report),
                        Some(room) => {
                            sink.append_assignment(report.device, report.at, report.seq, *room)
                        }
                    };
                    prop_assert!(appended);
                    let frame = oracle_frame(&report, *room);
                    let payload = parse_frame(&frame, 0).expect("oracle frame parses").1;
                    let mark = marks.entry(report.device).or_insert(DeviceMark {
                        records: 0,
                        digest: FNV_OFFSET,
                    });
                    fnv_fold(&mut mark.digest, &[frame[1]]);
                    fnv_fold(&mut mark.digest, payload);
                    mark.records += 1;
                    expected.extend_from_slice(&frame);
                }
                prop_assert_eq!(sink.marks(), &marks);

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
            /// more valid bytes than it was given.
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
                let _ = decode_report(&data);
                let _ = decode_assignment(&data);
                let _ = decode_footer(&data);
                // The same bytes behind a valid frame reach every decoder
                // through a scan.
                let framed = frame_record(kind, &data);
                let scan = scan_segment(&framed);
                prop_assert!(scan.valid_len <= framed.len());
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
                                sink.append_report(&arbitrary_report(device.value(), seq, at_ms, &[]));
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
                                let payload = encode_assignment(device, coarse, seq, room);
                                let frame = frame_record(KIND_ASSIGNMENT, &payload);
                                disk.append(&sink.active_name, at, &frame);
                            }
                            _ => {}
                        }
                    }
                }
            }

            /// Any single-byte flip or truncation of a valid report or
            /// assignment frame is rejected.
            #[test]
            fn damaged_frames_are_rejected(
                beacons in beacons(),
                room in prop::option::of(any::<usize>()),
                at_ms in any::<u64>(),
                at_byte in any::<usize>(),
                mask in 1u8..=255,
                cut in any::<usize>(),
            ) {
                let report = arbitrary_report(7, 9, at_ms, &beacons);
                let frame = oracle_frame(&report, room);
                prop_assert!(parse_frame(&frame, 0).is_some());
                let mut flipped = frame.clone();
                flipped[at_byte % frame.len()] ^= mask;
                prop_assert!(parse_frame(&flipped, 0).is_none());
                prop_assert!(parse_frame(&frame[..cut % frame.len()], 0).is_none());
            }
        }
    }
}
