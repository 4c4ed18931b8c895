//! Experiment runners: one method per paper figure/claim, all hanging off
//! a shared [`ExperimentCtx`].
//!
//! Every experiment is deterministic given the context's seed and returns
//! plain data that the `repro` binary formats and `EXPERIMENTS.md`
//! records. Build a context once, override only the knobs that matter
//! (`with_devices`, `with_shards`), and call the arm; wrap the call in
//! [`with_thread_override`](roomsense_sim::exec::with_thread_override) to
//! pin the worker count:
//!
//! ```
//! use roomsense::experiments::ExperimentCtx;
//!
//! let walk = ExperimentCtx::new(42).dynamic_walk(0.65, 1.2);
//! assert!(walk.crossover_cycle.is_some());
//! ```
//!
//! The mapping to paper artifacts:
//!
//! | Runner | Paper artifact |
//! |---|---|
//! | [`ExperimentCtx::static_capture`] | Figs 4, 5, 6 (scan-period / filter traces) |
//! | [`ExperimentCtx::dynamic_walk`], [`ExperimentCtx::coefficient_sweep`] | Figs 7–8 (coefficient tuning) |
//! | [`ExperimentCtx::classification`] | Fig 9 (SVM ~94 % vs proximity ~84 %) |
//! | [`ExperimentCtx::energy`] | Fig 10 (Wi-Fi vs BT battery traces) |
//! | [`ExperimentCtx::device_comparison`] | Fig 11 (Nexus 5 vs S3 Mini RSSI gap) |
//! | [`ExperimentCtx::sampling`] | Section V (5 vs ~300 samples in 10 s) |
//! | [`ExperimentCtx::ablation`] | Sections V–VI design choices (ablation tables) |
//!
//! The paper-figure runners live in `figures`. The system arms past the
//! paper's figures (tracking, chaos, scale, overload, archive, counting,
//! …) and the ablation studies each have one module, implement
//! [`ExperimentReport`] and register in the [`ARMS`] table, which is the
//! single place `repro` dispatches them from.

use roomsense_net::{DeviceId, ObservationReport, SightedBeacon};
use roomsense_sim::SimTime;

mod ablation;
mod archive;
mod chaos;
mod counting;
mod faults;
mod figures;
mod floors;
mod house;
mod overload;
mod positioning;
mod scale;
mod scaling;
mod telemetry;
mod tracking;

pub use ablation::{
    AblationResult, CalibrationAblationRow, DensityAblationRow, EnvironmentAblationRow,
    GatingAblation, InterferenceAblationRow, ScanPeriodAblationRow,
};
pub use archive::{ArchiveFingerprint, ArchiveScenarioRow};
pub use chaos::{ChaosCell, ChaosResult};
pub use counting::{CountingCell, CountingFingerprint};
pub use faults::{FaultArmOutcome, FaultSweepPoint, FaultsResult};
pub use figures::{
    CalibrationOutcome, ClassificationResult, CoefficientSweepPoint, DeviceComparisonRow,
    DynamicWalkResult, EnergyResult, SamplingComparison, StaticCaptureResult,
};
pub use floors::MultiFloorResult;
pub use overload::OverloadFingerprint;
pub use positioning::{PositioningArmResult, PositioningResult};
pub use scale::{retention_cap, ScaleFingerprint};
pub use scaling::ScalingResult;
pub use telemetry::{cycle_features, TelemetryResult};
pub use tracking::TrackingResult;

// ===========================================================================
// Shared helpers
// ===========================================================================

/// Builds an observation report from a cycle's snapshots — the message the
/// phone would POST to the BMS.
///
/// The report carries `seq = 0`; pipelines that need reliable delivery
/// semantics should use [`sequenced_report_from_snapshots`] with a
/// per-fleet [`SequenceStamper`](roomsense_net::SequenceStamper) instead.
pub fn report_from_snapshots(
    device: DeviceId,
    at: SimTime,
    snapshots: &[roomsense_signal::TrackSnapshot],
) -> ObservationReport {
    ObservationReport {
        device,
        seq: 0,
        at,
        beacons: snapshots
            .iter()
            .map(|s| SightedBeacon {
                identity: s.identity,
                distance_m: s.distance_m,
            })
            .collect(),
    }
}

/// [`report_from_snapshots`] with a per-device monotone sequence number
/// drawn from `stamper` — the form the reliable (at-least-once) uplink
/// requires, since retransmission matching and server-side dedup both key
/// on `(device, seq)`.
pub fn sequenced_report_from_snapshots(
    stamper: &mut roomsense_net::SequenceStamper,
    device: DeviceId,
    at: SimTime,
    snapshots: &[roomsense_signal::TrackSnapshot],
) -> ObservationReport {
    ObservationReport {
        seq: stamper.next(device),
        ..report_from_snapshots(device, at, snapshots)
    }
}

/// Arithmetic mean of a non-empty slice (0 for an empty one).
pub(super) fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

// ===========================================================================
// The unified experiment API: ExperimentCtx + ExperimentReport
// ===========================================================================

/// FNV-1a over a string: the workspace's stable, dependency-free output
/// fingerprint (the hash behind every `repro` checksum line).
pub fn fnv1a(s: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in s.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// The shared context every experiment runs under.
///
/// `ExperimentCtx` holds the cross-cutting knobs once; per-experiment
/// parameters that genuinely differ (a filter coefficient, a capture
/// duration) stay as method arguments.
///
/// Unset knobs mean "the experiment's published default": `ctx.scale()`
/// with no overrides runs the same 10 000-device / 16-shard configuration
/// the `repro scale` arm documents.
///
/// The builder is *consuming* (`with_*` takes and returns `self`), so a
/// context chains without `mut` bindings:
///
/// ```
/// use roomsense::experiments::ExperimentCtx;
///
/// let ctx = ExperimentCtx::new(7).with_devices(48).with_shards(4);
/// let fingerprint = ctx.scale();
/// assert!(fingerprint.digests_match);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExperimentCtx {
    /// Master seed; every experiment is a pure function of it.
    pub seed: u64,
    /// Fleet size override for the fleet-scale arms (`None` = the arm's
    /// published default: scale 10 000, overload 600, archive 240,
    /// counting = each preset's canonical crowd).
    pub devices: Option<usize>,
    /// BMS shard-count override (`None` = the arm's published default).
    pub shards: Option<usize>,
}

impl ExperimentCtx {
    /// A context with the given seed and every knob at its default.
    pub fn new(seed: u64) -> Self {
        ExperimentCtx {
            seed,
            ..ExperimentCtx::default()
        }
    }

    /// Overrides the fleet size for fleet-scale arms.
    ///
    /// # Panics
    ///
    /// Panics if `devices` is zero.
    pub fn with_devices(mut self, devices: usize) -> Self {
        assert!(devices > 0, "a fleet needs at least one device");
        self.devices = Some(devices);
        self
    }

    /// Overrides the BMS shard count.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(shards > 0, "a sharded BMS needs at least one shard");
        self.shards = Some(shards);
        self
    }
}

/// What every system arm's result knows how to do: hash its deterministic
/// content, pretty-print its summary, and assert its invariants. `repro`
/// dispatches system arms through this trait via [`ARMS`], so a new arm
/// registers in exactly one place. A result holds only deterministic
/// content, so its debug text is what the checksum hashes.
pub trait ExperimentReport: std::fmt::Debug {
    /// FNV-1a over the result's debug formatting (which prints every f64
    /// to full precision, so equal checksums mean bit-identical results).
    /// `scripts/check.sh` compares it across thread counts.
    fn checksum(&self) -> u64 {
        fnv1a(&format!("{self:?}"))
    }
    /// Human-readable summary lines, ready to print verbatim.
    fn summary_rows(&self) -> Vec<String>;
    /// Panics if any of the arm's hard invariants does not hold.
    fn assert_invariants(&self) {}
}

/// One registered system arm: its `repro` name, display title, and runner.
pub struct ExperimentArm {
    /// `repro <name>` and the checksum-line label.
    pub name: &'static str,
    /// The headline `repro` prints above the summary.
    pub title: &'static str,
    /// Runs the arm under a context and boxes its report.
    pub run: fn(&ExperimentCtx) -> Box<dyn ExperimentReport>,
}

/// Every system arm, in `repro all` order. Figure arms (`fig1`…`fig11`,
/// `sampling`, `calibration`) stay bespoke — their output is plotted, not
/// checksummed.
pub static ARMS: &[ExperimentArm] = &[
    ExperimentArm {
        name: "tracking",
        title: "tracking: BMS occupancy table vs ground truth (3 occupants, 4 min)",
        run: |ctx| Box::new(ctx.tracking()),
    },
    ExperimentArm {
        name: "scaling",
        title: "scaling: classification on the office floor (commercial scale)",
        run: |ctx| Box::new(ctx.scaling()),
    },
    ExperimentArm {
        name: "floors",
        title: "floors: two-storey building, floor + room identification",
        run: |ctx| Box::new(ctx.floors()),
    },
    ExperimentArm {
        name: "faults",
        title: "faults: graceful degradation under injected faults (2 occupants, 10 min)",
        run: |ctx| Box::new(ctx.faults()),
    },
    ExperimentArm {
        name: "chaos",
        title: "chaos: end-to-end reliable delivery (duplicates, reorder, crash/restore, failover)",
        run: |ctx| Box::new(ctx.chaos()),
    },
    ExperimentArm {
        name: "telemetry",
        title: "telemetry: one recorder across fleet, filter, uplink, BMS, and energy",
        run: |ctx| Box::new(ctx.telemetry()),
    },
    ExperimentArm {
        name: "scale",
        title: "scale: 10k-device fleet, sharded + batched + bounded-memory BMS",
        run: |ctx| Box::new(ctx.scale()),
    },
    ExperimentArm {
        name: "overload",
        title: "overload: lecture-hall surge through bounded mailboxes + campus federation",
        run: |ctx| Box::new(ctx.overload()),
    },
    ExperimentArm {
        name: "archive",
        title: "archive: durable segment-log retention under disk faults (crash -> recover -> verify)",
        run: |ctx| Box::new(ctx.archive()),
    },
    ExperimentArm {
        name: "counting",
        title: "counting: crowd-scale population estimates (3 presets x clean/chaos/overload)",
        run: |ctx| Box::new(ctx.counting()),
    },
    ExperimentArm {
        name: "positioning",
        title: "positioning: filter x trilateration ablation + peer-relay mesh (clean/faulted)",
        run: |ctx| Box::new(ctx.positioning()),
    },
    ExperimentArm {
        name: "ablation",
        title: "ablation: the design choices of Sections V-VI, one table each",
        run: |ctx| Box::new(ctx.ablation()),
    },
];

/// Looks up a registered system arm by name.
pub fn arm(name: &str) -> Option<&'static ExperimentArm> {
    ARMS.iter().find(|arm| arm.name == name)
}
