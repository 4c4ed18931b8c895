//! A deterministic simulated disk with seeded fault injection.
//!
//! The archive tier (durable segment logs under the BMS) needs a storage
//! substrate whose *failures* are as reproducible as its successes. A
//! [`SimDisk`] is an in-memory file namespace with the write/fsync split
//! real disks have — appended bytes are volatile until an fsync makes them
//! durable — plus four scheduled fault modes driven by the same
//! [`FaultSchedule`](crate::FaultSchedule) windows the radio and uplink
//! layers use:
//!
//! * **short write** — an append silently persists only a prefix of its
//!   bytes (a lost sector inside a claimed-successful `write()`);
//! * **torn tail** — a crash preserves a random prefix of the un-fsynced
//!   suffix instead of dropping it cleanly, tearing mid-record;
//! * **bit rot** — a write op flips one already-durable byte of its file
//!   (at-rest corruption discovered only on the next read);
//! * **fsync loss** — `fsync` reports success without making anything
//!   durable (the lying-disk model).
//!
//! Every fault magnitude (how much of a write survives, which byte flips)
//! comes from a per-file seeded RNG stream, so two runs with the same seed
//! and the same per-file operation sequences fail *identically* — even
//! when different files are driven from different threads.

use crate::{rng, FaultSchedule, SimTime};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

/// Scheduled fault windows for one [`SimDisk`], one schedule per mode.
///
/// All schedules are consulted with the *simulation time of the operation*
/// (the archive passes each record's report time), so faults land on a
/// reproducible slice of the workload.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiskFaultPlan {
    /// While active, a crash keeps a seeded partial prefix of each file's
    /// un-fsynced suffix (torn tail) instead of discarding it whole.
    pub torn_write: FaultSchedule,
    /// While active, appends silently persist only a seeded prefix.
    pub short_write: FaultSchedule,
    /// While active, each append also flips one durable byte of its file.
    pub bit_rot: FaultSchedule,
    /// While active, fsync claims success without persisting.
    pub fsync_loss: FaultSchedule,
}

impl DiskFaultPlan {
    /// A plan with no faults: the disk is perfectly well behaved.
    pub fn none() -> Self {
        DiskFaultPlan::default()
    }

    /// True when no fault window is scheduled in any mode.
    pub fn is_empty(&self) -> bool {
        self.torn_write.is_empty()
            && self.short_write.is_empty()
            && self.bit_rot.is_empty()
            && self.fsync_loss.is_empty()
    }

    /// The chaos knob: a seeded all-modes plan over `[0, horizon)` when the
    /// `ROOMSENSE_DISK_FAULTS` environment variable is set to anything but
    /// `0` or the empty string, [`none`](Self::none) otherwise. Lets CI run
    /// the whole suite once with background disk chaos without changing any
    /// call site.
    pub fn from_env(seed: u64, horizon: crate::SimDuration) -> Self {
        match std::env::var("ROOMSENSE_DISK_FAULTS") {
            Ok(v) if !v.is_empty() && v != "0" => Self::chaos(seed, horizon),
            _ => Self::none(),
        }
    }

    /// A seeded plan with windows in every fault mode spread over
    /// `[0, horizon)` — roughly 5% of the horizon per mode.
    pub fn chaos(seed: u64, horizon: crate::SimDuration) -> Self {
        let gen = |component: &str| {
            let mut r = rng::for_component(seed, component);
            FaultSchedule::generate(
                &mut r,
                horizon,
                crate::SimDuration::from_millis((horizon.as_millis() / 5).max(1)),
                crate::SimDuration::from_millis((horizon.as_millis() / 100).max(1)),
            )
        };
        DiskFaultPlan {
            torn_write: gen("disk-torn"),
            short_write: gen("disk-short"),
            bit_rot: gen("disk-rot"),
            fsync_loss: gen("disk-fsync"),
        }
    }
}

/// Operation counters for one [`SimDisk`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Append operations accepted.
    pub appends: u64,
    /// Bytes the callers *asked* to append.
    pub bytes_offered: u64,
    /// Bytes actually laid down (differs under short writes).
    pub bytes_written: u64,
    /// Successful (honest) fsyncs.
    pub fsyncs: u64,
    /// Fsyncs that lied: claimed success, persisted nothing.
    pub lost_fsyncs: u64,
    /// Appends that silently dropped a suffix.
    pub short_writes: u64,
    /// Durable bytes flipped by bit rot.
    pub flipped_bytes: u64,
    /// Files that kept a torn partial suffix through a crash.
    pub torn_tails: u64,
    /// Crashes injected.
    pub crashes: u64,
    /// Explicit truncations (recovery chopping corrupt tails).
    pub truncates: u64,
}

/// One simulated file: bytes plus the durable/volatile split.
#[derive(Debug)]
struct SimFile {
    data: Vec<u8>,
    /// Bytes at or below this offset survive a crash.
    durable_len: usize,
    /// Bumped by every operation that changes `data`, so a reader that
    /// decoded the file at generation `g` knows its decode still holds
    /// while the generation reads `g`.
    generation: u64,
    /// Per-file fault-magnitude stream (seeded from the disk seed and the
    /// file name), so concurrent writers to *different* files stay
    /// deterministic.
    rng: StdRng,
}

/// The deterministic in-memory disk. Usually handled through a
/// [`SharedDisk`] so several archive sinks (one per BMS shard) can share
/// one namespace.
///
/// # Examples
///
/// ```
/// use roomsense_sim::{SimDisk, SimTime};
///
/// let mut disk = SimDisk::pristine(7);
/// disk.append("wal", SimTime::from_secs(1), b"hello");
/// assert_eq!(disk.with_file("wal", |bytes| bytes.len()), Some(5));
/// disk.crash(SimTime::from_secs(2)); // never fsynced: the bytes are gone
/// assert_eq!(disk.with_file("wal", |bytes| bytes.len()), Some(0));
/// assert_eq!(disk.generation("wal"), 2); // the append, then the cut
/// ```
#[derive(Debug)]
pub struct SimDisk {
    seed: u64,
    plan: DiskFaultPlan,
    files: BTreeMap<String, SimFile>,
    stats: DiskStats,
}

impl SimDisk {
    /// The default disk: fault-free normally, but honours the
    /// `ROOMSENSE_DISK_FAULTS` chaos knob — when CI sets it, every disk
    /// built through `new` runs under a seeded all-modes fault plan (see
    /// [`DiskFaultPlan::from_env`]). Tests and oracles that *specify*
    /// faithful-disk behaviour use [`pristine`](Self::pristine) instead;
    /// [`with_fault_plan`](Self::with_fault_plan) always overrides both.
    pub fn new(seed: u64) -> Self {
        SimDisk {
            seed,
            plan: DiskFaultPlan::from_env(seed, crate::SimDuration::from_secs(3600)),
            files: BTreeMap::new(),
            stats: DiskStats::default(),
        }
    }

    /// A disk that is fault-free regardless of environment: for oracle
    /// disks and tests whose assertions require a faithful disk.
    pub fn pristine(seed: u64) -> Self {
        SimDisk {
            seed,
            plan: DiskFaultPlan::none(),
            files: BTreeMap::new(),
            stats: DiskStats::default(),
        }
    }

    /// Installs a fault plan (consuming builder, like every other layer).
    pub fn with_fault_plan(mut self, plan: DiskFaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// The installed fault plan.
    pub fn fault_plan(&self) -> &DiskFaultPlan {
        &self.plan
    }

    /// The file `name`, created empty on first use. Looks up by `&str`, so
    /// the owned key is allocated only when the file is new.
    fn file_mut(&mut self, name: &str) -> &mut SimFile {
        if !self.files.contains_key(name) {
            let file = SimFile {
                data: Vec::new(),
                durable_len: 0,
                generation: 0,
                rng: rng::for_component(self.seed, name),
            };
            self.files.insert(name.to_string(), file);
        }
        self.files.get_mut(name).expect("file exists")
    }

    /// Appends `bytes` to `name` (creating it on first use). Returns the
    /// number of bytes the disk *claims* it wrote — always `bytes.len()`;
    /// a short-write fault silently persists less, exactly the failure a
    /// checksummed record format exists to catch.
    pub fn append(&mut self, name: &str, at: SimTime, bytes: &[u8]) -> usize {
        self.stats.appends += 1;
        self.stats.bytes_offered += bytes.len() as u64;
        let short = self.plan.short_write.active_at(at) && !bytes.is_empty();
        let rot = self.plan.bit_rot.active_at(at);
        let file = self.file_mut(name);
        let kept = if short {
            file.rng.gen_range(0..bytes.len())
        } else {
            bytes.len()
        };
        file.data.extend_from_slice(&bytes[..kept]);
        file.generation += 1;
        if rot && file.durable_len > 0 {
            let pos = file.rng.gen_range(0..file.durable_len);
            let mask = 1u8 << file.rng.gen_range(0..8u32);
            file.data[pos] ^= mask;
            self.stats.flipped_bytes += 1;
        }
        if short {
            self.stats.short_writes += 1;
        }
        self.stats.bytes_written += kept as u64;
        bytes.len()
    }

    /// Makes `name`'s bytes durable. Under an fsync-loss window the call
    /// still *looks* successful — the only honest signal is a later crash.
    pub fn fsync(&mut self, name: &str, at: SimTime) {
        if self.plan.fsync_loss.active_at(at) {
            self.stats.lost_fsyncs += 1;
            return;
        }
        self.stats.fsyncs += 1;
        let file = self.file_mut(name);
        file.durable_len = file.data.len();
    }

    /// Runs `parse` over the current contents of `name` in place, or
    /// returns `None` if it was never written.
    pub fn with_file<R>(&self, name: &str, parse: impl FnOnce(&[u8]) -> R) -> Option<R> {
        self.files.get(name).map(|f| parse(&f.data))
    }

    /// How many times `name`'s bytes have changed: every append (short
    /// writes and bit rot included), truncation and crash cut bumps it.
    /// A file never written reads 0, like an empty one.
    pub fn generation(&self, name: &str) -> u64 {
        self.files.get(name).map_or(0, |f| f.generation)
    }

    /// Current length of `name` in bytes.
    pub fn len(&self, name: &str) -> Option<usize> {
        self.files.get(name).map(|f| f.data.len())
    }

    /// True when the disk holds no files at all.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// File names starting with `prefix`, sorted.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.files
            .keys()
            .filter(|n| n.starts_with(prefix))
            .cloned()
            .collect()
    }

    /// Chops `name` to `len` bytes and makes the remainder durable — the
    /// recovery path uses this to discard a corrupt tail for good.
    pub fn truncate(&mut self, name: &str, len: usize) {
        self.stats.truncates += 1;
        let file = self.file_mut(name);
        file.data.truncate(len);
        file.durable_len = file.data.len();
        file.generation += 1;
    }

    /// Simulates a power loss at `at`: every file loses its un-fsynced
    /// suffix. Under an active torn-write window a seeded *partial* prefix
    /// of that suffix survives instead — a torn tail that can end mid-record.
    pub fn crash(&mut self, at: SimTime) {
        self.stats.crashes += 1;
        let torn = self.plan.torn_write.active_at(at);
        for file in self.files.values_mut() {
            let volatile = file.data.len().saturating_sub(file.durable_len);
            if volatile == 0 {
                continue;
            }
            let keep = if torn {
                self.stats.torn_tails += 1;
                file.rng.gen_range(0..volatile)
            } else {
                0
            };
            file.data.truncate(file.durable_len + keep);
            file.durable_len = file.data.len();
            file.generation += 1;
        }
    }

    /// Operation counters.
    pub fn stats(&self) -> DiskStats {
        self.stats
    }
}

impl fmt::Display for SimDisk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bytes: usize = self.files.values().map(|file| file.data.len()).sum();
        write!(f, "{} file(s), {} byte(s)", self.files.len(), bytes)
    }
}

/// A cloneable handle to one [`SimDisk`] behind a mutex — the archive tier
/// hands one of these to each shard's sink.
#[derive(Clone)]
pub struct SharedDisk(Arc<Mutex<SimDisk>>);

impl SharedDisk {
    /// Wraps a disk for shared use.
    pub fn new(disk: SimDisk) -> Self {
        SharedDisk(Arc::new(Mutex::new(disk)))
    }

    /// See [`SimDisk::append`].
    pub fn append(&self, name: &str, at: SimTime, bytes: &[u8]) -> usize {
        self.0.lock().append(name, at, bytes)
    }

    /// See [`SimDisk::fsync`].
    pub fn fsync(&self, name: &str, at: SimTime) {
        self.0.lock().fsync(name, at)
    }

    /// See [`SimDisk::with_file`]; holds the disk lock while `parse` runs.
    pub fn with_file<R>(&self, name: &str, parse: impl FnOnce(&[u8]) -> R) -> Option<R> {
        self.0.lock().with_file(name, parse)
    }

    /// See [`SimDisk::generation`].
    pub fn generation(&self, name: &str) -> u64 {
        self.0.lock().generation(name)
    }

    /// [`SimDisk::generation`] of each of `names`, in order, under one
    /// lock.
    pub fn generations<'a>(&self, names: impl IntoIterator<Item = &'a str>) -> Vec<u64> {
        let disk = self.0.lock();
        names
            .into_iter()
            .map(|name| disk.generation(name))
            .collect()
    }

    /// See [`SimDisk::len`].
    pub fn len(&self, name: &str) -> Option<usize> {
        self.0.lock().len(name)
    }

    /// See [`SimDisk::list`].
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.0.lock().list(prefix)
    }

    /// See [`SimDisk::truncate`].
    pub fn truncate(&self, name: &str, len: usize) {
        self.0.lock().truncate(name, len)
    }

    /// See [`SimDisk::crash`].
    pub fn crash(&self, at: SimTime) {
        self.0.lock().crash(at)
    }

    /// See [`SimDisk::stats`].
    pub fn stats(&self) -> DiskStats {
        self.0.lock().stats()
    }

    /// A clone of the installed fault plan (see [`SimDisk::fault_plan`]).
    pub fn fault_plan(&self) -> DiskFaultPlan {
        self.0.lock().fault_plan().clone()
    }
}

impl fmt::Debug for SharedDisk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SharedDisk({})", self.0.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultWindow, SimDuration};

    fn window(from_s: u64, to_s: u64) -> FaultSchedule {
        FaultSchedule::new(vec![FaultWindow::new(
            SimTime::from_secs(from_s),
            SimTime::from_secs(to_s),
        )])
    }

    fn read(disk: &SimDisk, name: &str) -> Option<Vec<u8>> {
        disk.with_file(name, <[u8]>::to_vec)
    }

    #[test]
    fn fsynced_bytes_survive_a_crash_and_volatile_bytes_do_not() {
        let mut disk = SimDisk::pristine(1);
        disk.append("seg", SimTime::from_secs(1), b"durable");
        disk.fsync("seg", SimTime::from_secs(1));
        disk.append("seg", SimTime::from_secs(2), b"+volatile");
        disk.crash(SimTime::from_secs(3));
        assert_eq!(read(&disk, "seg").as_deref(), Some(&b"durable"[..]));
        assert_eq!(disk.stats().crashes, 1);
        assert_eq!(disk.stats().torn_tails, 0);
    }

    #[test]
    fn torn_crash_keeps_a_strict_partial_prefix() {
        let mut disk = SimDisk::new(2).with_fault_plan(DiskFaultPlan {
            torn_write: window(0, 100),
            ..DiskFaultPlan::none()
        });
        disk.append("seg", SimTime::from_secs(1), b"durable");
        disk.fsync("seg", SimTime::from_secs(1));
        disk.append("seg", SimTime::from_secs(2), b"0123456789");
        disk.crash(SimTime::from_secs(3));
        let data = read(&disk, "seg").expect("file exists");
        assert!(data.len() >= b"durable".len(), "durable prefix survives");
        assert!(data.len() < b"durable".len() + 10, "torn tail is partial");
        assert!(data.starts_with(b"durable"));
        assert_eq!(disk.stats().torn_tails, 1);
    }

    #[test]
    fn short_writes_silently_drop_a_suffix() {
        let mut disk = SimDisk::new(3).with_fault_plan(DiskFaultPlan {
            short_write: window(0, 100),
            ..DiskFaultPlan::none()
        });
        let claimed = disk.append("seg", SimTime::from_secs(1), b"0123456789");
        assert_eq!(claimed, 10, "the disk lies about short writes");
        assert!(disk.len("seg").expect("exists") < 10);
        assert_eq!(disk.stats().short_writes, 1);
    }

    #[test]
    fn bit_rot_flips_exactly_one_durable_byte_per_op() {
        let mut disk = SimDisk::new(4).with_fault_plan(DiskFaultPlan {
            bit_rot: window(10, 100),
            ..DiskFaultPlan::none()
        });
        disk.append("seg", SimTime::from_secs(1), b"pristine-data");
        disk.fsync("seg", SimTime::from_secs(1));
        let before = read(&disk, "seg").expect("exists");
        disk.append("seg", SimTime::from_secs(20), b"x");
        let after = read(&disk, "seg").expect("exists");
        let diffs = before
            .iter()
            .zip(after.iter())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(diffs, 1, "one durable byte flipped");
        assert_eq!(disk.stats().flipped_bytes, 1);
    }

    #[test]
    fn lost_fsync_claims_success_but_a_crash_tells_the_truth() {
        let mut disk = SimDisk::new(5).with_fault_plan(DiskFaultPlan {
            fsync_loss: window(0, 100),
            ..DiskFaultPlan::none()
        });
        disk.append("seg", SimTime::from_secs(1), b"doomed");
        disk.fsync("seg", SimTime::from_secs(2)); // lies
        disk.crash(SimTime::from_secs(3));
        assert_eq!(read(&disk, "seg").as_deref(), Some(&b""[..]));
        assert_eq!(disk.stats().lost_fsyncs, 1);
        assert_eq!(disk.stats().fsyncs, 0);
    }

    #[test]
    fn faults_are_deterministic_per_seed() {
        let run = || {
            let mut disk = SimDisk::new(9).with_fault_plan(DiskFaultPlan {
                torn_write: window(0, 1000),
                short_write: window(5, 50),
                bit_rot: window(20, 90),
                ..DiskFaultPlan::none()
            });
            for i in 0..60u64 {
                disk.append("a", SimTime::from_secs(i), b"payload-payload-");
                if i % 7 == 0 {
                    disk.fsync("a", SimTime::from_secs(i));
                }
            }
            disk.crash(SimTime::from_secs(61));
            read(&disk, "a").expect("exists")
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn per_file_streams_are_independent_of_interleaving() {
        // Writing a second file between two writes of the first must not
        // change the first file's fault magnitudes.
        let run = |interleave: bool| {
            let mut disk = SimDisk::new(11).with_fault_plan(DiskFaultPlan {
                short_write: window(0, 1000),
                ..DiskFaultPlan::none()
            });
            disk.append("a", SimTime::from_secs(1), b"aaaaaaaaaa");
            if interleave {
                disk.append("b", SimTime::from_secs(1), b"bbbbbbbbbb");
            }
            disk.append("a", SimTime::from_secs(2), b"aaaaaaaaaa");
            read(&disk, "a").expect("exists")
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn truncate_pins_the_durable_length() {
        let mut disk = SimDisk::pristine(12);
        disk.append("seg", SimTime::from_secs(1), b"good+corrupt");
        disk.truncate("seg", 4);
        disk.crash(SimTime::from_secs(2));
        assert_eq!(read(&disk, "seg").as_deref(), Some(&b"good"[..]));
        assert_eq!(disk.stats().truncates, 1);
    }

    #[test]
    fn generation_moves_with_every_change_to_the_bytes_and_only_then() {
        let mut disk = SimDisk::new(15).with_fault_plan(DiskFaultPlan {
            short_write: window(10, 20),
            bit_rot: window(30, 40),
            ..DiskFaultPlan::none()
        });
        assert_eq!(disk.generation("seg"), 0, "never written");
        disk.append("seg", SimTime::from_secs(1), b"durable");
        disk.fsync("seg", SimTime::from_secs(1));
        assert_eq!(disk.generation("seg"), 1, "fsync changes no byte");
        disk.append("seg", SimTime::from_secs(15), b"short");
        disk.append("seg", SimTime::from_secs(35), b"rot");
        assert_eq!(disk.generation("seg"), 3, "short write and rot both count");
        disk.fsync("seg", SimTime::from_secs(36));
        disk.crash(SimTime::from_secs(37));
        assert_eq!(disk.generation("seg"), 3, "nothing volatile to cut");
        disk.append("seg", SimTime::from_secs(50), b"volatile");
        disk.crash(SimTime::from_secs(51));
        assert_eq!(disk.generation("seg"), 5, "the append and the cut");
        disk.truncate("seg", 2);
        assert_eq!(disk.generation("seg"), 6);
        let shared = SharedDisk::new(disk);
        assert_eq!(shared.generations(["seg", "other"]), vec![6, 0]);
        assert_eq!(shared.generation("other"), 0, "reading creates no file");
        assert!(shared.list("other").is_empty());
    }

    #[test]
    fn list_filters_by_prefix_in_sorted_order() {
        let mut disk = SimDisk::pristine(13);
        for name in ["s/2", "s/1", "other"] {
            disk.append(name, SimTime::ZERO, b"x");
        }
        assert_eq!(disk.list("s/"), vec!["s/1".to_string(), "s/2".to_string()]);
        assert_eq!(disk.list(""), vec!["other", "s/1", "s/2"]);
    }

    #[test]
    fn shared_disk_round_trips() {
        let disk = SharedDisk::new(SimDisk::pristine(14));
        let clone = disk.clone();
        disk.append("seg", SimTime::ZERO, b"abc");
        clone.fsync("seg", SimTime::ZERO);
        clone.append("seg", SimTime::ZERO, b"def");
        disk.crash(SimTime::ZERO);
        assert_eq!(
            disk.with_file("seg", <[u8]>::to_vec).as_deref(),
            Some(&b"abc"[..])
        );
        assert_eq!(clone.stats().appends, 2);
    }

    #[test]
    fn chaos_plan_is_seeded_and_env_gated() {
        let horizon = SimDuration::from_secs(600);
        assert_eq!(DiskFaultPlan::chaos(3, horizon), DiskFaultPlan::chaos(3, horizon));
        assert!(!DiskFaultPlan::chaos(3, horizon).is_empty());
        assert!(DiskFaultPlan::none().is_empty());
    }
}
