//! The fleet contract: `run_fleet` — chunked, scratch-reusing, parallel —
//! is bit-for-bit the single-device pipeline run once per device: same
//! events in the same order, same telemetry checksum, for any seed, fleet
//! size, chunk width, fault plan and worker count. The oracle is built here
//! from `run_pipeline_faulted`; these tests compare the actual structured
//! outputs, not summaries.

use proptest::prelude::*;
use roomsense::{
    run_fleet, run_pipeline_faulted, BatchConfig, FaultPlan, FleetEvent, PipelineConfig, Scenario,
};
use roomsense_building::mobility::{MobilityModel, StaticPosition};
use roomsense_building::presets;
use roomsense_geom::Point;
use roomsense_ml::{CachedSvmEvaluator, Classifier, Dataset, SvmClassifier, SvmParams};
use roomsense_net::DeviceId;
use roomsense_sim::exec::with_thread_override;
use roomsense_sim::{rng, SimDuration};
use roomsense_telemetry::Recorder;

/// A corridor fleet: `occupants` phones parked 1.5 m apart.
struct Corridor {
    scenario: Scenario,
    spots: Vec<StaticPosition>,
    duration: SimDuration,
    seed: u64,
}

impl Corridor {
    fn new(seed: u64, occupants: usize, secs: u64) -> Self {
        Corridor {
            scenario: Scenario::from_plan(presets::two_transmitter_corridor(), seed),
            spots: (0..occupants)
                .map(|i| StaticPosition::new(Point::new(1.0 + 1.5 * i as f64, 1.0)))
                .collect(),
            duration: SimDuration::from_secs(secs),
            seed,
        }
    }

    /// `FaultPlan::none`, or a generated plan at the given intensity.
    fn plan(&self, intensity: f64) -> FaultPlan {
        FaultPlan::generate(
            self.scenario.advertisers().len(),
            self.duration,
            intensity,
            self.seed,
        )
    }

    fn occupants(&self) -> Vec<&dyn MobilityModel> {
        self.spots.iter().map(|s| s as _).collect()
    }

    /// The per-device oracle: every device's pipeline with its own
    /// recorder, events stably sorted by `(at, device)`, children merged in
    /// device order.
    fn oracle(&self, faults: &FaultPlan) -> (Vec<FleetEvent>, u64) {
        let config = PipelineConfig::paper_android();
        let mut telemetry = Recorder::default();
        let mut events = Vec::new();
        for (index, mobility) in self.occupants().into_iter().enumerate() {
            let device_seed = rng::derive_indexed_seed(self.seed, "fleet-device", index as u64);
            let mut child = Recorder::default();
            let records = run_pipeline_faulted(
                &self.scenario,
                &config,
                mobility,
                self.duration,
                device_seed,
                faults,
                &mut child,
            );
            telemetry.merge_child(child);
            let device = DeviceId::new(index as u32);
            events.extend(records.into_iter().map(|record| FleetEvent {
                at: record.at,
                device,
                record,
            }));
        }
        events.sort_by_key(|e| (e.at, e.device));
        (events, telemetry.checksum())
    }

    /// The fleet under test, with its telemetry checksum.
    fn fleet(&self, faults: &FaultPlan, rows_per_chunk: usize) -> (Vec<FleetEvent>, u64) {
        let mut telemetry = Recorder::default();
        let events = run_fleet(
            &self.scenario,
            &PipelineConfig::paper_android(),
            &self.occupants(),
            self.duration,
            self.seed,
            faults,
            &BatchConfig { rows_per_chunk },
            &mut telemetry,
        );
        (events, telemetry.checksum())
    }
}

#[test]
fn batched_fleet_equals_scalar_across_chunk_widths_and_workers() {
    let corridor = Corridor::new(23, 5, 20);
    let faults = corridor.plan(0.0);
    let (oracle, _) = corridor.oracle(&faults);
    for rows_per_chunk in [1, 2, 3, 8] {
        for workers in [1, 2, 4] {
            let (events, _) =
                with_thread_override(workers, || corridor.fleet(&faults, rows_per_chunk));
            assert_eq!(
                events, oracle,
                "diverged at rows_per_chunk={rows_per_chunk}, workers={workers}"
            );
        }
    }
}

#[test]
fn batched_telemetry_checksum_is_thread_and_chunk_invariant() {
    let corridor = Corridor::new(31, 4, 16);
    let faults = corridor.plan(0.0);
    let (_, oracle_checksum) = corridor.oracle(&faults);
    for rows_per_chunk in [1, 2, 4] {
        for workers in [1, 3, 8] {
            let (_, checksum) =
                with_thread_override(workers, || corridor.fleet(&faults, rows_per_chunk));
            assert_eq!(
                checksum, oracle_checksum,
                "telemetry diverged at rows_per_chunk={rows_per_chunk}, workers={workers}"
            );
        }
    }
}

#[test]
fn batched_faulted_fleet_equals_scalar_faulted() {
    let corridor = Corridor::new(47, 4, 24);
    let faults = corridor.plan(0.7);
    let oracle = corridor.oracle(&faults);
    for workers in [1, 4] {
        let fleet = with_thread_override(workers, || {
            corridor.fleet(&faults, BatchConfig::default().rows_per_chunk)
        });
        assert_eq!(fleet, oracle, "faulted fleet diverged at {workers} workers");
    }
}

fn room_classifier() -> (SvmClassifier, Dataset) {
    let mut data = Dataset::new(3, vec!["a".into(), "b".into(), "c".into()]).expect("valid");
    for i in 0..20 {
        let t = f64::from(i) * 0.09;
        data.push(vec![1.0 + t, 1.0, 4.0 - t], 0).expect("row");
        data.push(vec![4.5 - t, 1.0 + t, 1.0], 1).expect("row");
        data.push(vec![1.0, 4.5 - t, 2.0 + t], 2).expect("row");
    }
    let svm = SvmClassifier::fit(&data, &SvmParams::default()).expect("trains");
    (svm, data)
}

#[test]
fn cached_evaluator_shares_kernel_rows() {
    let (svm, _) = room_classifier();
    let mut evaluator = CachedSvmEvaluator::new(&svm);
    // `pair_splits` clones each class's rows into every one-vs-one machine,
    // so the dedup must find real sharing for the cache to pay off.
    assert!(evaluator.unique_row_count() < evaluator.reference_count());
    evaluator.predict(&[2.0, 2.0, 2.0]);
    assert_eq!(
        evaluator.cache_misses(),
        evaluator.unique_row_count() as u64
    );
    assert!(evaluator.cache_hits() > 0);
}

proptest! {
    /// For arbitrary seeds, fleet sizes, chunk widths and fault plans, the
    /// fleet is indistinguishable from the per-device oracle under one
    /// worker and under the default worker count — same events, same
    /// order, same record contents, same telemetry checksum.
    #[test]
    fn batched_equivalence_holds_for_any_seed_size_and_chunk(
        seed in any::<u64>(),
        occupant_count in 0usize..5,
        rows_per_chunk in 1usize..6,
        faulted in any::<bool>(),
    ) {
        let corridor = Corridor::new(seed, occupant_count, 12);
        let faults = corridor.plan(if faulted { 0.5 } else { 0.0 });
        let oracle = corridor.oracle(&faults);
        let sequential = with_thread_override(1, || corridor.fleet(&faults, rows_per_chunk));
        prop_assert_eq!(&sequential, &oracle);
        prop_assert_eq!(corridor.fleet(&faults, rows_per_chunk), oracle);
    }

    /// The cached one-vs-one evaluator votes exactly like the direct
    /// per-machine evaluation for any query point.
    #[test]
    fn cached_svm_predicts_like_plain_svm(
        a in -1.0f64..6.0,
        b in -1.0f64..6.0,
        c in -1.0f64..6.0,
    ) {
        let (svm, _) = room_classifier();
        let mut evaluator = CachedSvmEvaluator::new(&svm);
        let query = [a, b, c];
        prop_assert_eq!(evaluator.predict(&query), svm.predict(&query));
    }
}
