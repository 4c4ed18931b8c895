//! The determinism contract of the parallel execution layer: every
//! parallelized path must be bit-for-bit identical to its sequential
//! counterpart. These tests run the same workload under a worker count of
//! 1 (the inline path) and several parallel counts and `assert_eq!` the
//! full structured outputs — not summaries, the actual records.

use proptest::prelude::*;
use roomsense::experiments::ExperimentCtx;
use roomsense::{run_fleet, BatchConfig, FaultPlan, PipelineConfig, Scenario};
use roomsense_building::mobility::{MobilityModel, StaticPosition};
use roomsense_building::presets;
use roomsense_geom::Point;
use roomsense_ml::{grid_search, Dataset};
use roomsense_sim::exec::with_thread_override;
use roomsense_sim::{rng, SimDuration};
use roomsense_telemetry::Recorder;

fn corridor_fleet(seed: u64, occupant_count: usize) -> Vec<roomsense::FleetEvent> {
    let scenario = Scenario::from_plan(presets::two_transmitter_corridor(), seed);
    let spots: Vec<StaticPosition> = (0..occupant_count)
        .map(|i| StaticPosition::new(Point::new(1.0 + 1.5 * i as f64, 1.0)))
        .collect();
    let occupants: Vec<&dyn MobilityModel> = spots.iter().map(|s| s as _).collect();
    // One device per chunk, so every device is its own parallel task.
    run_fleet(
        &scenario,
        &PipelineConfig::paper_android(),
        &occupants,
        SimDuration::from_secs(20),
        seed,
        &FaultPlan::none(scenario.advertisers().len()),
        &BatchConfig { rows_per_chunk: 1 },
        &mut Recorder::default(),
    )
}

#[test]
fn fleet_parallel_equals_sequential() {
    let sequential = with_thread_override(1, || corridor_fleet(11, 4));
    for workers in [2, 3, 8] {
        let parallel = with_thread_override(workers, || corridor_fleet(11, 4));
        assert_eq!(parallel, sequential, "fleet diverged at {workers} workers");
    }
}

#[test]
fn grid_search_parallel_equals_sequential() {
    let blobs = {
        let mut d = Dataset::new(2, vec!["a".into(), "b".into()]).expect("valid");
        for i in 0..24 {
            let t = f64::from(i) * 0.1;
            d.push(vec![0.0 + t, 0.0], 0).expect("row");
            d.push(vec![5.0 + t, 5.0], 1).expect("row");
        }
        d
    };
    let run = || {
        let mut r = rng::for_component(9, "parallel-grid");
        grid_search(&blobs, &[0.1, 1.0, 10.0], &[0.01, 0.1, 1.0], 4, &mut r)
    };
    let sequential = with_thread_override(1, run);
    for workers in [2, 4, 16] {
        let parallel = with_thread_override(workers, run);
        assert_eq!(parallel, sequential, "grid diverged at {workers} workers");
    }
}

#[test]
fn faults_experiment_parallel_equals_sequential() {
    let sequential = ExperimentCtx::new(21).with_threads(1).faults();
    let parallel = ExperimentCtx::new(21).with_threads(4).faults();
    assert_eq!(parallel, sequential);
}

#[test]
fn sweeps_and_folds_parallel_equal_sequential() {
    let sweep_seq = ExperimentCtx::new(13)
        .with_threads(1)
        .coefficient_sweep(&[0.2, 0.65], 2);
    let sweep_par = ExperimentCtx::new(13)
        .with_threads(4)
        .coefficient_sweep(&[0.2, 0.65], 2);
    assert_eq!(sweep_par, sweep_seq);

    let energy_seq = ExperimentCtx::new(13)
        .with_threads(1)
        .energy(SimDuration::from_secs(600), 3);
    let energy_par = ExperimentCtx::new(13)
        .with_threads(4)
        .energy(SimDuration::from_secs(600), 3);
    assert_eq!(energy_par, energy_seq);

    let cv_seq = ExperimentCtx::new(13).with_threads(1).cross_validation(4);
    let cv_par = ExperimentCtx::new(13).with_threads(4).cross_validation(4);
    assert_eq!(cv_par, cv_seq);
}

proptest! {
    /// For arbitrary seeds and occupant counts, a parallel fleet run is
    /// indistinguishable from a sequential one — same events, same order,
    /// same record contents.
    #[test]
    fn fleet_equivalence_holds_for_any_seed_and_size(
        seed in any::<u64>(),
        occupant_count in 0usize..5,
    ) {
        let sequential = with_thread_override(1, || corridor_fleet(seed, occupant_count));
        let parallel = with_thread_override(4, || corridor_fleet(seed, occupant_count));
        prop_assert_eq!(parallel, sequential);
    }
}
