//! The fleet: the device body ([`crate::run_pipeline_faulted`]'s) run over
//! every occupant in parallel chunks.
//!
//! Each chunk owns one `DeviceScratch` and runs its devices sequentially
//! through it, so every stage's working memory is reused across the
//! chunk's devices. Chunk children merge in chunk order — which is device
//! order — so merged events and telemetry equal the per-device runs merged
//! in device order, at any thread count (`tests/batch_equivalence.rs`
//! proves this by property).

use crate::fleet::merge_streams;
use crate::pipeline::{run_device, DeviceScratch};
use crate::{CycleRecord, FaultPlan, FleetEvent, PipelineConfig, Scenario};
use roomsense_building::mobility::MobilityModel;
use roomsense_sim::{exec, rng, SimDuration};
use roomsense_telemetry::Recorder;
use std::sync::atomic::{AtomicU64, Ordering};

/// How the fleet groups devices into parallel tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Devices per parallel chunk. Each chunk owns one scratch set and runs
    /// its devices sequentially; chunking is a fixed function of this value
    /// (never of the thread count), so outputs and telemetry are
    /// thread-invariant.
    pub rows_per_chunk: usize,
}

impl Default for BatchConfig {
    /// Four devices per chunk.
    fn default() -> Self {
        BatchConfig { rows_per_chunk: 4 }
    }
}

/// Scratch-buffer growth events across all fleet runs since the last
/// [`reset_batch_alloc_stats`] (a device whose processing grew any scratch
/// buffer counts once), plus the cycles processed — the bench's
/// allocations-per-cycle debug counter. In steady state growth stays at
/// zero: every buffer reaches its high-water mark during the first device
/// and is only reused afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchAllocStats {
    /// Devices whose run grew at least one scratch buffer.
    pub growth_events: u64,
    /// Scan cycles processed by the fleet.
    pub(crate) cycles: u64,
}

static GROWTH_EVENTS: AtomicU64 = AtomicU64::new(0);
static BATCH_CYCLES: AtomicU64 = AtomicU64::new(0);

/// Resets the global scratch-allocation counters.
pub fn reset_batch_alloc_stats() {
    GROWTH_EVENTS.store(0, Ordering::Relaxed);
    BATCH_CYCLES.store(0, Ordering::Relaxed);
}

/// Reads the global scratch-allocation counters.
pub fn batch_alloc_stats() -> BatchAllocStats {
    BatchAllocStats {
        growth_events: GROWTH_EVENTS.load(Ordering::Relaxed),
        cycles: BATCH_CYCLES.load(Ordering::Relaxed),
    }
}

/// [`run_fleet`] with no faults and the telemetry discarded.
pub fn run_fleet_batched(
    scenario: &Scenario,
    config: &PipelineConfig,
    occupants: &[&dyn MobilityModel],
    duration: SimDuration,
    seed: u64,
    batch: &BatchConfig,
) -> Vec<FleetEvent> {
    let faults = FaultPlan::none(scenario.advertisers().len());
    run_fleet(
        scenario,
        config,
        occupants,
        duration,
        seed,
        &faults,
        batch,
        &mut Recorder::default(),
    )
}

/// Runs every occupant through the scenario and returns all their scan
/// cycles merged into one chronological stream.
///
/// Devices are numbered `0..occupants.len()` in argument order; each gets
/// an independent seed stream derived from `seed` (via
/// [`rng::derive_indexed_seed`], which keys on both the fleet seed and the
/// device index). Ties at the same millisecond keep device order. Every
/// device suffers the same `faults` — the building-side faults (dead
/// beacons, degraded TX) and the same scheduled adapter faults, as when one
/// flaky firmware build is rolled out fleet-wide; pass [`FaultPlan::none`]
/// for a healthy building.
///
/// Device `i`'s cycles are exactly
/// [`run_pipeline_faulted`](crate::run_pipeline_faulted) with the derived
/// seed, and `telemetry` receives the per-device recordings merged in device
/// order. Devices run in chunks of `batch.rows_per_chunk`, fanned out over
/// the worker threads; each chunk records into a child [`Recorder`] and the
/// children are merged **in chunk order after the join**, so the events and
/// the snapshot are bitwise identical at any `ROOMSENSE_THREADS` value.
///
/// # Panics
///
/// Panics if `batch.rows_per_chunk` is zero or the plan's transmitter list
/// does not match the scenario's beacon count.
///
/// # Examples
///
/// ```
/// use roomsense::{run_fleet, BatchConfig, FaultPlan, PipelineConfig, Scenario};
/// use roomsense_building::mobility::{MobilityModel, StaticPosition};
/// use roomsense_building::presets;
/// use roomsense_geom::Point;
/// use roomsense_sim::SimDuration;
/// use roomsense_telemetry::Recorder;
///
/// let scenario = Scenario::from_plan(presets::two_transmitter_corridor(), 1);
/// let a = StaticPosition::new(Point::new(1.0, 1.0));
/// let b = StaticPosition::new(Point::new(11.0, 1.0));
/// let occupants: Vec<&dyn MobilityModel> = vec![&a, &b];
/// let events = run_fleet(
///     &scenario,
///     &PipelineConfig::paper_android(),
///     &occupants,
///     SimDuration::from_secs(10),
///     1,
///     &FaultPlan::none(scenario.advertisers().len()),
///     &BatchConfig::default(),
///     &mut Recorder::default(),
/// );
/// // Two devices × five cycles, chronologically merged.
/// assert_eq!(events.len(), 10);
/// assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
/// ```
#[allow(clippy::too_many_arguments)]
pub fn run_fleet(
    scenario: &Scenario,
    config: &PipelineConfig,
    occupants: &[&dyn MobilityModel],
    duration: SimDuration,
    seed: u64,
    faults: &FaultPlan,
    batch: &BatchConfig,
    telemetry: &mut Recorder,
) -> Vec<FleetEvent> {
    assert!(batch.rows_per_chunk > 0, "rows_per_chunk must be non-zero");
    let ranges = exec::chunk_ranges(occupants.len(), batch.rows_per_chunk);
    let per_chunk: Vec<(Vec<Vec<CycleRecord>>, Recorder)> =
        exec::par_map_indexed(&ranges, |_, range| {
            let mut child = Recorder::default();
            let mut scratch = DeviceScratch::default();
            let records: Vec<Vec<CycleRecord>> = range
                .clone()
                .map(|index| {
                    let device_seed = rng::derive_indexed_seed(seed, "fleet-device", index as u64);
                    let capacity_before = scratch.total_capacity();
                    let records = run_device(
                        scenario,
                        config,
                        occupants[index],
                        duration,
                        device_seed,
                        faults,
                        &mut child,
                        &mut scratch,
                    );
                    if scratch.total_capacity() > capacity_before {
                        GROWTH_EVENTS.fetch_add(1, Ordering::Relaxed);
                    }
                    BATCH_CYCLES.fetch_add(scratch.spans.len() as u64, Ordering::Relaxed);
                    records
                })
                .collect();
            (records, child)
        });
    let mut per_device: Vec<Vec<CycleRecord>> = Vec::with_capacity(occupants.len());
    for (records, child) in per_chunk {
        telemetry.merge_child(child);
        per_device.extend(records);
    }
    merge_streams(per_device)
}

#[cfg(test)]
mod tests {
    use super::*;
    use roomsense_building::mobility::StaticPosition;
    use roomsense_building::presets;
    use roomsense_geom::Point;

    #[test]
    fn scratch_reaches_steady_state_after_first_device() {
        let scenario = Scenario::from_plan(presets::two_transmitter_corridor(), 3);
        let a = StaticPosition::new(Point::new(2.0, 1.0));
        let b = StaticPosition::new(Point::new(2.5, 1.0));
        let c = StaticPosition::new(Point::new(3.0, 1.0));
        let d = StaticPosition::new(Point::new(3.5, 1.0));
        let occupants: Vec<&dyn MobilityModel> = vec![&a, &b, &c, &d];
        reset_batch_alloc_stats();
        run_fleet_batched(
            &scenario,
            &PipelineConfig::paper_android(),
            &occupants,
            SimDuration::from_secs(20),
            5,
            &BatchConfig { rows_per_chunk: 4 },
        );
        let stats = batch_alloc_stats();
        assert_eq!(stats.cycles, 40, "4 devices x 10 cycles");
        // One chunk: the first device grows the buffers, the rest reuse.
        assert!(
            stats.growth_events <= 2,
            "scratch kept growing: {} growth events",
            stats.growth_events
        );
    }
}
