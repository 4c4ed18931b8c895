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
use roomsense_ml::{BinarySvm, Classifier, Dataset, Kernel, SvmClassifier, SvmParams};
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

/// Feature values for the SVM property: a small palette makes duplicate
/// rows common and includes both signed zeros.
const PALETTE: [f64; 6] = [-1.0, -0.0, 0.0, 0.5, 1.0, 2.0];

/// The direct one-vs-one evaluation `SvmClassifier` must reproduce: one
/// `BinarySvm` per pair of present classes (rows in dataset order, `a`
/// → +1), each evaluating the kernel once per support-vector reference,
/// then majority vote with ties broken by summed margins.
struct PerMachineOracle {
    class_count: usize,
    machines: Vec<(usize, usize, BinarySvm)>,
}

impl PerMachineOracle {
    fn fit(data: &Dataset, params: &SvmParams) -> Self {
        let present: Vec<usize> = (0..data.class_count())
            .filter(|c| data.labels().contains(c))
            .collect();
        let mut machines = Vec::new();
        for (i, &a) in present.iter().enumerate() {
            for &b in &present[i + 1..] {
                let (rows, targets): (Vec<Vec<f64>>, Vec<f64>) = data
                    .rows()
                    .iter()
                    .zip(data.labels())
                    .filter(|(_, l)| **l == a || **l == b)
                    .map(|(row, l)| (row.clone(), if *l == a { 1.0 } else { -1.0 }))
                    .unzip();
                machines.push((a, b, BinarySvm::fit(rows, &targets, params)));
            }
        }
        PerMachineOracle {
            class_count: data.class_count(),
            machines,
        }
    }

    fn predict(&self, features: &[f64]) -> usize {
        let mut votes = vec![0usize; self.class_count];
        let mut margins = vec![0.0f64; self.class_count];
        for (a, b, svm) in &self.machines {
            let d = svm.decision(features);
            if d >= 0.0 {
                votes[*a] += 1;
            } else {
                votes[*b] += 1;
            }
            margins[*a] += d;
            margins[*b] -= d;
        }
        let best_votes = *votes.iter().max().expect("at least one class");
        (0..self.class_count)
            .filter(|c| votes[*c] == best_votes)
            .max_by(|x, y| {
                margins[*x]
                    .partial_cmp(&margins[*y])
                    .expect("finite margins")
            })
            .expect("at least one class has max votes")
    }
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

    /// `SvmClassifier`'s shared-row prediction votes exactly like the
    /// direct per-machine evaluation, for random small datasets over 2–4
    /// classes (some possibly absent) with duplicate rows and signed zeros,
    /// under both kernels, at the training rows and at random queries.
    #[test]
    fn svm_predicts_like_per_machine_oracle(
        rows in prop::collection::vec(
            (0usize..4, prop::collection::vec(0usize..6, 3..4)),
            2..24,
        ),
        dims in 1usize..4,
        linear in any::<bool>(),
        gamma in 0.05f64..2.0,
        queries in prop::collection::vec(
            prop::collection::vec(-2.0f64..3.0, 3..4),
            1..6,
        ),
    ) {
        let names = (0..4).map(|c| format!("c{c}")).collect();
        let mut data = Dataset::new(dims, names).expect("valid");
        for (i, (label, cells)) in rows.iter().enumerate() {
            // The first two rows pin two distinct classes so training succeeds.
            let label = if i < 2 { i } else { *label };
            let row = cells[..dims].iter().map(|c| PALETTE[*c]).collect();
            data.push(row, label).expect("row");
        }
        let params = SvmParams {
            kernel: if linear { Kernel::Linear } else { Kernel::Rbf { gamma } },
            ..SvmParams::default()
        };
        let svm = SvmClassifier::fit(&data, &params).expect("two classes present");
        let oracle = PerMachineOracle::fit(&data, &params);
        prop_assert_eq!(svm.machine_count(), oracle.machines.len());
        let random = queries.iter().map(|q| q[..dims].to_vec());
        for query in data.rows().iter().cloned().chain(random) {
            prop_assert_eq!(svm.predict(&query), oracle.predict(&query));
        }
    }
}
