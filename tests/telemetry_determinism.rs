//! The telemetry layer's determinism contract: a recorder snapshot — the
//! Prometheus text, the JSONL journal, and the checksum over both — must
//! be **byte-identical** at any worker count. Counters alone would hide
//! merge-order bugs (addition commutes); the journal does not, so these
//! tests compare the serialized artifacts, not summaries.

use proptest::prelude::*;
use roomsense::experiments::ExperimentCtx;
use roomsense::{run_fleet, BatchConfig, FaultPlan, PipelineConfig, Scenario};
use roomsense_building::mobility::{MobilityModel, StaticPosition};
use roomsense_building::presets;
use roomsense_geom::Point;
use roomsense_sim::exec::with_thread_override;
use roomsense_sim::SimDuration;
use roomsense_telemetry::{keys, Recorder};

/// A faulted corridor fleet, recorded, at a given worker count.
fn faulted_snapshot(seed: u64, occupant_count: usize, threads: usize) -> Recorder {
    let scenario = Scenario::from_plan(presets::two_transmitter_corridor(), seed);
    let duration = SimDuration::from_secs(20);
    let spots: Vec<StaticPosition> = (0..occupant_count)
        .map(|i| StaticPosition::new(Point::new(1.0 + 1.5 * i as f64, 1.0)))
        .collect();
    let occupants: Vec<&dyn MobilityModel> = spots.iter().map(|s| s as _).collect();
    let faults = FaultPlan::generate(scenario.advertisers().len(), duration, 0.5, seed);
    with_thread_override(threads, || {
        let mut telemetry = Recorder::default();
        run_fleet(
            &scenario,
            &PipelineConfig::paper_android(),
            &occupants,
            duration,
            seed,
            &faults,
            &BatchConfig { rows_per_chunk: 1 },
            &mut telemetry,
        );
        telemetry
    })
}

/// Byte-level equality of every serialized artifact, not just the checksum.
fn assert_snapshots_identical(sequential: &Recorder, parallel: &Recorder) {
    assert_eq!(sequential.prometheus_text(), parallel.prometheus_text());
    assert_eq!(sequential.journal_jsonl(), parallel.journal_jsonl());
    assert_eq!(sequential.checksum(), parallel.checksum());
}

#[test]
fn faulted_fleet_snapshot_is_identical_across_thread_counts() {
    let sequential = faulted_snapshot(11, 3, 1);
    for threads in [2, 4, 8] {
        let parallel = faulted_snapshot(11, 3, threads);
        assert_snapshots_identical(&sequential, &parallel);
    }
    // The run actually exercised the instrumented paths.
    assert!(sequential.counter(keys::SCAN_CYCLES) > 0);
    assert!(sequential.counter(keys::RADIO_RX_RECEIVED) > 0);
}

#[test]
fn tracking_snapshot_is_identical_across_thread_counts() {
    let scenario = Scenario::from_plan(presets::paper_house(), 5);
    let a = StaticPosition::new(Point::new(2.0, 2.0));
    let b = StaticPosition::new(Point::new(6.0, 4.0));
    let c = StaticPosition::new(Point::new(4.0, 7.0));
    let occupants: Vec<&dyn MobilityModel> = vec![&a, &b, &c];
    let snapshot = |threads: usize| {
        with_thread_override(threads, || {
            let mut telemetry = Recorder::default();
            run_fleet(
                &scenario,
                &PipelineConfig::paper_android(),
                &occupants,
                SimDuration::from_secs(30),
                5,
                &FaultPlan::none(scenario.advertisers().len()),
                &BatchConfig { rows_per_chunk: 1 },
                &mut telemetry,
            );
            telemetry
        })
    };
    let sequential = snapshot(1);
    let parallel = snapshot(4);
    assert_snapshots_identical(&sequential, &parallel);
    assert_eq!(sequential.counter(keys::SCAN_CYCLES), 45); // 3 devices x 15
}

#[test]
fn telemetry_experiment_is_identical_across_thread_counts() {
    let ctx = ExperimentCtx::new(31);
    let sequential = with_thread_override(1, || ctx.telemetry());
    let parallel = with_thread_override(4, || ctx.telemetry());
    assert_eq!(sequential.offered, parallel.offered);
    assert_eq!(sequential.delivered, parallel.delivered);
    assert_snapshots_identical(&sequential.recorder, &parallel.recorder);
    // The merged snapshot covers every instrumented layer at once.
    let r = &sequential.recorder;
    assert!(r.counter(keys::SCAN_STALLS) > 0, "scanner stalls recorded");
    assert!(
        r.counter(keys::SCAN_SAMPLES_DROPPED) > 0,
        "fault-layer sample drops recorded"
    );
    assert!(r.counter(keys::FILTER_HOLDS) > 0, "filter holds recorded");
    assert!(
        r.counter(keys::NET_QUEUE_RETRANSMITS) > 0,
        "uplink retransmits recorded"
    );
    assert!(
        r.counter(keys::NET_FAILOVER_SENDS) > 0,
        "failover sends recorded"
    );
    assert!(
        r.counter(keys::BMS_INGEST_DUPLICATES) > 0,
        "dedup hits recorded"
    );
    assert!(r.counter(keys::BMS_CHECKPOINTS) > 0, "checkpoints recorded");
    assert!(
        r.histogram(keys::ML_SVM_MARGIN)
            .is_some_and(|h| h.count() > 0),
        "svm margins recorded"
    );
    assert!(
        r.gauge(keys::ENERGY_TOTAL_MJ).is_some_and(|mj| mj > 0.0),
        "energy account published"
    );
}

proptest! {
    /// Any seed, any small fleet: sequential and parallel recorded runs
    /// serialize identically.
    #[test]
    fn any_seed_snapshots_identically(
        seed in 0u64..1_000,
        occupant_count in 1usize..4,
    ) {
        let sequential = faulted_snapshot(seed, occupant_count, 1);
        let parallel = faulted_snapshot(seed, occupant_count, 3);
        prop_assert_eq!(sequential.prometheus_text(), parallel.prometheus_text());
        prop_assert_eq!(sequential.journal_jsonl(), parallel.journal_jsonl());
        prop_assert_eq!(sequential.checksum(), parallel.checksum());
    }
}
