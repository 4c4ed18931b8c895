//! Experiment runners: one method per paper figure/claim, all hanging off
//! a shared [`ExperimentCtx`].
//!
//! Every experiment is deterministic given the context's seed and returns
//! plain data that the `repro` binary formats and `EXPERIMENTS.md`
//! records. Build a context once, override only the knobs that matter
//! (`with_devices`, `with_shards`, `with_threads`, …), and call the arm:
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
//!
//! The system arms past the paper's figures (tracking, chaos, scale,
//! overload, archive, counting, …) additionally implement
//! [`ExperimentReport`] and register in the [`ARMS`] table, which is the
//! single place `repro` dispatches them from.

use crate::{
    collect_dataset, features_from_snapshots, run_pipeline, run_pipeline_faulted, BatchConfig,
    FilterKind, LabelledDataset, OccupancyModel, PipelineConfig, Scenario, MISSING_DISTANCE,
};
use roomsense_building::mobility::{RoomSchedule, StaticPosition, WaypointWalk};
use roomsense_building::presets;
use roomsense_energy::{
    account, Battery, BatteryTracePoint, PowerProfile, UplinkArchitecture, UsageTimeline,
};
use roomsense_geom::{Point, Polyline};
use roomsense_ibeacon::Minor;
use roomsense_ml::{
    k_fold, train_test_split, Classifier, ConfusionMatrix, Dataset, KnnClassifier,
    ProximityClassifier, StandardScaler, SvmParams, POSITION_FEATURE_WIDTH,
};
use roomsense_net::{
    BtRelayTransport, DeviceId, FailoverTransport, FaultyTransport, LinkHealthConfig,
    ObservationReport, PeerRelayConfig, PeerRelayTransport, SightedBeacon, Transport,
    WifiTransport,
};
use roomsense_radio::DeviceRxProfile;
use roomsense_signal::metrics;
use roomsense_sim::{exec, rng, FaultSchedule, FaultWindow, SimDuration, SimTime};
use roomsense_telemetry::Recorder;
use std::sync::Arc;

/// One static capture: the phone fixed at a known distance from a single
/// transmitter (the Figs 4/5/6 protocol).
#[derive(Debug, Clone, PartialEq)]
pub struct StaticCaptureResult {
    /// The true transmitter–receiver distance, metres.
    pub true_distance_m: f64,
    /// Raw per-cycle distance estimates `(t_seconds, metres)`; cycles where
    /// the beacon was missed are absent.
    pub raw: Vec<(f64, f64)>,
    /// EWMA-smoothed estimates, same format.
    pub smoothed: Vec<(f64, f64)>,
}

impl StaticCaptureResult {
    /// Standard deviation of the raw estimates.
    pub fn raw_std(&self) -> f64 {
        let values: Vec<f64> = self.raw.iter().map(|(_, d)| *d).collect();
        metrics::std_dev(&values).unwrap_or(0.0)
    }

    /// Standard deviation of the smoothed estimates.
    pub fn smoothed_std(&self) -> f64 {
        let values: Vec<f64> = self.smoothed.iter().map(|(_, d)| *d).collect();
        metrics::std_dev(&values).unwrap_or(0.0)
    }

    /// RMSE of the raw estimates against the true distance.
    pub fn raw_rmse(&self) -> f64 {
        let values: Vec<f64> = self.raw.iter().map(|(_, d)| *d).collect();
        metrics::rmse_against(&values, self.true_distance_m).unwrap_or(0.0)
    }
}

/// Runs the Figs 4/5/6 static capture: `duration` at `distance_m` from one
/// transmitter with the given scan period and filter coefficient.
fn static_capture_impl(
    config: &PipelineConfig,
    distance_m: f64,
    duration: SimDuration,
    seed: u64,
) -> StaticCaptureResult {
    let scenario = Scenario::from_plan(presets::two_transmitter_corridor(), seed);
    let west = scenario.advertisers()[0].position;
    let position = Point::new(west.x + distance_m, west.y);
    let records = run_pipeline(
        &scenario,
        config,
        &StaticPosition::new(position),
        duration,
        seed,
    );
    let minor = Minor::new(0);
    let mut raw = Vec::new();
    let mut smoothed = Vec::new();
    for record in &records {
        let t = record.at.as_secs_f64();
        if let Some(obs) = record
            .observations
            .iter()
            .find(|o| o.identity.minor == minor)
        {
            raw.push((t, obs.distance_m));
        }
        if let Some(snap) = record.snapshots.iter().find(|s| s.identity.minor == minor) {
            smoothed.push((t, snap.distance_m));
        }
    }
    StaticCaptureResult {
        true_distance_m: distance_m,
        raw,
        smoothed,
    }
}

/// One dynamic test: walk between the two corridor transmitters at the
/// paper's speed and watch the smoothed tracks cross over (Figs 7–8).
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicWalkResult {
    /// Per cycle: `(t_seconds, west track, east track)`.
    pub series: Vec<(f64, Option<f64>, Option<f64>)>,
    /// The cycle index at which the east beacon first reads closer.
    pub crossover_cycle: Option<usize>,
    /// Walk speed used, m/s.
    pub speed_mps: f64,
}

/// Runs the Section V dynamic test at the given filter coefficient.
fn dynamic_walk_impl(coefficient: f64, speed_mps: f64, seed: u64) -> DynamicWalkResult {
    let scenario = Scenario::from_plan(presets::two_transmitter_corridor(), seed);
    let west = scenario.advertisers()[0].position;
    let east = scenario.advertisers()[1].position;
    let path = Polyline::new(vec![
        Point::new(west.x + 0.5, west.y),
        Point::new(east.x - 0.5, east.y),
    ])
    .expect("two waypoints");
    let walk = WaypointWalk::new(path, speed_mps, SimTime::ZERO);
    let duration = walk.duration() + SimDuration::from_secs(4);
    let config = PipelineConfig::paper_android().with_coefficient(coefficient);
    let records = run_pipeline(&scenario, &config, &walk, duration, seed);
    let series: Vec<(f64, Option<f64>, Option<f64>)> = records
        .iter()
        .map(|r| {
            let find = |minor: u16| {
                r.snapshots
                    .iter()
                    .find(|s| s.identity.minor == Minor::new(minor))
                    .map(|s| s.distance_m)
            };
            (r.at.as_secs_f64(), find(0), find(1))
        })
        .collect();
    let pairs: Vec<(Option<f64>, Option<f64>)> =
        series.iter().map(|(_, a, b)| (*a, *b)).collect();
    DynamicWalkResult {
        crossover_cycle: metrics::crossover_index(&pairs),
        series,
        speed_mps,
    }
}

/// One point of the coefficient sweep (Figs 7–8 tuning).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoefficientSweepPoint {
    /// The EWMA coefficient.
    pub coefficient: f64,
    /// Stability: std-dev of the smoothed static capture (lower = calmer).
    pub stability_std_m: f64,
    /// Responsiveness: crossover cycle in the dynamic walk (lower =
    /// snappier); `None` when the filter never switched.
    pub crossover_cycle: Option<usize>,
}

/// Sweeps the filter coefficient over static stability and dynamic
/// responsiveness — the experiment behind the paper's choice of 0.65.
///
/// Results are averaged over `trials` independent seeds. Every
/// `(coefficient, trial)` cell is an independent capture-plus-walk pair,
/// so the sweep fans the flattened grid out over worker threads —
/// dispatching one coefficient's trials as a contiguous chunk, since
/// per-cell tasks are too small to amortise their scheduling overhead —
/// and aggregates per coefficient in trial order. Identical output to the
/// sequential nesting at any thread count.
fn coefficient_sweep_impl(
    coefficients: &[f64],
    trials: u64,
    seed: u64,
) -> Vec<CoefficientSweepPoint> {
    let cells: Vec<(usize, u64)> = (0..coefficients.len())
        .flat_map(|ci| (0..trials).map(move |trial| (ci, trial)))
        .collect();
    let chunk = (trials as usize).max(1);
    let outcomes: Vec<(f64, Option<usize>)> =
        exec::par_map_chunked(&cells, chunk, |_, &(ci, trial)| {
            let coefficient = coefficients[ci];
            let trial_seed = rng::derive_seed(seed, "coeff-sweep") ^ trial;
            let config = PipelineConfig::paper_android().with_coefficient(coefficient);
            let capture = static_capture_impl(&config, 2.0, SimDuration::from_secs(120), trial_seed);
            let crossing = dynamic_walk_impl(coefficient, 1.2, trial_seed).crossover_cycle;
            (capture.smoothed_std(), crossing)
        });
    coefficients
        .iter()
        .enumerate()
        .map(|(ci, &coefficient)| {
            let per_coeff = &outcomes[ci * trials as usize..(ci + 1) * trials as usize];
            let stds: Vec<f64> = per_coeff.iter().map(|(std, _)| *std).collect();
            let crossings: Vec<usize> =
                per_coeff.iter().filter_map(|(_, crossing)| *crossing).collect();
            let stability_std_m = metrics::mean(&stds).unwrap_or(0.0);
            let crossover_cycle = if crossings.is_empty() {
                None
            } else {
                Some(crossings.iter().sum::<usize>() / crossings.len())
            };
            CoefficientSweepPoint {
                coefficient,
                stability_std_m,
                crossover_cycle,
            }
        })
        .collect()
}

/// The Fig 9 experiment output.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassificationResult {
    /// The scene-analysis SVM (the paper's contribution).
    pub svm: ConfusionMatrix,
    /// The proximity baseline (the previous iOS work's technique).
    pub proximity: ConfusionMatrix,
    /// A kNN fingerprinting alternative (ablation).
    pub knn: ConfusionMatrix,
    /// Class names (rooms plus "outside").
    pub label_names: Vec<String>,
}

impl ClassificationResult {
    /// The headline accuracy pair `(svm, proximity)`.
    pub fn headline(&self) -> (f64, f64) {
        (self.svm.accuracy(), self.proximity.accuracy())
    }
}

/// Runs the full Fig 9 protocol on the paper house: collect a labelled
/// dataset with the operator walk, split train/test, train the SVM, and
/// evaluate SVM vs proximity vs kNN on the same held-out rows.
fn classification_impl(seed: u64) -> ClassificationResult {
    let scenario = Scenario::from_plan(presets::paper_house(), seed);
    let labelled = collect_dataset(
        &scenario,
        &PipelineConfig::paper_android(),
        SimDuration::from_secs(40),
        3,
        seed,
    );
    let mut split_rng = rng::for_component(seed, "classification-split");
    let (train, test) = train_test_split(&labelled.data, 0.3, &mut split_rng);
    let train_labelled = LabelledDataset {
        data: train,
        beacon_order: labelled.beacon_order.clone(),
    };
    let model = OccupancyModel::fit(&train_labelled, &SvmParams::default())
        .expect("collection walk always yields a multi-class dataset");
    let svm_cm = model.evaluate(&test);

    let proximity = ProximityClassifier::new(
        scenario.beacon_room_labels(),
        scenario.outside_label(),
        MISSING_DISTANCE,
    );
    let mut prox_cm = ConfusionMatrix::new(scenario.label_names().len());
    for (row, label) in test.rows().iter().zip(test.labels()) {
        prox_cm.record(*label, proximity.predict(row));
    }

    // kNN works on standardised features like the SVM.
    let scaler = StandardScaler::fit(&train_labelled.data);
    let knn = KnnClassifier::fit(&scaler.transform_dataset(&train_labelled.data), 5)
        .expect("train set is non-empty");
    let mut knn_cm = ConfusionMatrix::new(scenario.label_names().len());
    for (row, label) in test.rows().iter().zip(test.labels()) {
        knn_cm.record(*label, knn.predict(&scaler.transform(row)));
    }

    ClassificationResult {
        svm: svm_cm,
        proximity: prox_cm,
        knn: knn_cm,
        label_names: scenario.label_names(),
    }
}

/// Cross-validated SVM accuracy on the collection dataset (a robustness
/// check the repro binary reports alongside Fig 9).
fn cross_validation_impl(seed: u64, folds: usize) -> Vec<f64> {
    let scenario = Scenario::from_plan(presets::paper_house(), seed);
    let labelled = collect_dataset(
        &scenario,
        &PipelineConfig::paper_android(),
        SimDuration::from_secs(30),
        2,
        seed,
    );
    let mut fold_rng = rng::for_component(seed, "classification-cv");
    // Fold assignment draws from the RNG sequentially; the fold fits are
    // then independent and fan out over worker threads in fold order.
    let fold_sets = k_fold(&labelled.data, folds, &mut fold_rng);
    exec::par_map_indexed(&fold_sets, |_, (train, val)| {
        let train_labelled = LabelledDataset {
            data: train.clone(),
            beacon_order: labelled.beacon_order.clone(),
        };
        let model = OccupancyModel::fit(&train_labelled, &SvmParams::default())
            .expect("folds keep all classes with high probability");
        model.evaluate(val).accuracy()
    })
}

/// The Fig 10 experiment output.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyResult {
    /// Battery trace under the Wi-Fi architecture.
    pub wifi_trace: Vec<BatteryTracePoint>,
    /// Battery trace under the Bluetooth architecture.
    pub bt_trace: Vec<BatteryTracePoint>,
    /// Mean power draw, Wi-Fi architecture (mW).
    pub wifi_mean_mw: f64,
    /// Mean power draw, Bluetooth architecture (mW).
    pub bt_mean_mw: f64,
    /// Projected battery life, Wi-Fi architecture (hours).
    pub wifi_lifetime_h: f64,
    /// Projected battery life, Bluetooth architecture (hours).
    pub bt_lifetime_h: f64,
}

impl EnergyResult {
    /// The energy saving of Bluetooth over Wi-Fi (the paper's ~15 %).
    pub fn saving_fraction(&self) -> f64 {
        1.0 - self.bt_mean_mw / self.wifi_mean_mw
    }
}

/// Runs the Fig 10 protocol: the app ranges every scan cycle for
/// `duration`, reporting each cycle over each uplink; average over `trials`
/// runs (the paper averaged 10 measurements).
fn energy_impl(duration: SimDuration, trials: u64, seed: u64) -> EnergyResult {
    let profile = PowerProfile::galaxy_s3_mini();
    let scan_period = SimDuration::from_secs(2);
    let cycles = duration.as_millis() / scan_period.as_millis();
    let report = ObservationReport {
        device: DeviceId::new(1),
        seq: 0,
        at: SimTime::ZERO,
        beacons: vec![SightedBeacon {
            identity: roomsense_ibeacon::BeaconIdentity {
                uuid: roomsense_ibeacon::ProximityUuid::example(),
                major: roomsense_ibeacon::Major::new(1),
                minor: Minor::new(0),
            },
            distance_m: 2.0,
        }],
    };

    // Trials draw from independent indexed streams, so they fan out over
    // worker threads; energies are then summed in trial order, keeping the
    // floating-point accumulation identical to the sequential loop.
    let trial_indices: Vec<u64> = (0..trials).collect();
    let trial_runs: Vec<(f64, f64, UsageTimeline, UsageTimeline)> =
        exec::par_map_indexed(&trial_indices, |_, &trial| {
            let mut wifi = WifiTransport::default();
            let mut bt = BtRelayTransport::default();
            let mut r = rng::for_indexed(seed, "energy-trial", trial);
            for c in 0..cycles {
                let at = SimTime::ZERO + scan_period * c;
                wifi.send(at, &report, &mut r);
                bt.send(at, &report, &mut r);
            }
            let wifi_timeline = UsageTimeline {
                duration,
                scan_active: duration,
                transport_events: wifi.telemetry().transport_events(),
            };
            let bt_timeline = UsageTimeline {
                duration,
                scan_active: duration,
                transport_events: bt.telemetry().transport_events(),
            };
            let wifi_mj =
                account(&profile, &wifi_timeline, UplinkArchitecture::Wifi).total_mj();
            let bt_mj = account(
                &profile,
                &bt_timeline,
                UplinkArchitecture::BluetoothRelay,
            )
            .total_mj();
            (wifi_mj, bt_mj, wifi_timeline, bt_timeline)
        });
    let mut wifi_energy_mj = 0.0;
    let mut bt_energy_mj = 0.0;
    let mut wifi_timeline_last = None;
    let mut bt_timeline_last = None;
    for (wifi_mj, bt_mj, wifi_timeline, bt_timeline) in trial_runs {
        wifi_energy_mj += wifi_mj;
        bt_energy_mj += bt_mj;
        wifi_timeline_last = Some(wifi_timeline);
        bt_timeline_last = Some(bt_timeline);
    }
    let secs = duration.as_secs_f64() * trials as f64;
    let wifi_mean_mw = wifi_energy_mj / secs;
    let bt_mean_mw = bt_energy_mj / secs;
    let battery = Battery::for_profile(&profile);
    let wifi_trace = Battery::for_profile(&profile).discharge_trace(
        &profile,
        &wifi_timeline_last.expect("at least one trial"),
        UplinkArchitecture::Wifi,
        24,
    );
    let bt_trace = Battery::for_profile(&profile).discharge_trace(
        &profile,
        &bt_timeline_last.expect("at least one trial"),
        UplinkArchitecture::BluetoothRelay,
        24,
    );
    EnergyResult {
        wifi_trace,
        bt_trace,
        wifi_mean_mw,
        bt_mean_mw,
        wifi_lifetime_h: battery.lifetime_hours(wifi_mean_mw),
        bt_lifetime_h: battery.lifetime_hours(bt_mean_mw),
    }
}

/// One device's row in the Fig 11 comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceComparisonRow {
    /// Device model name.
    pub model: String,
    /// Mean reported RSSI at the test distance, dBm.
    pub mean_rssi_dbm: f64,
    /// Std-dev of the reported RSSI, dB.
    pub std_rssi_db: f64,
    /// Mean distance estimate that RSSI produces, metres.
    pub mean_distance_m: f64,
}

/// Runs the Fig 11 protocol: park each device at the same distance from the
/// same transmitter and compare what they report.
fn device_comparison_impl(
    devices: &[DeviceRxProfile],
    distance_m: f64,
    duration: SimDuration,
    seed: u64,
) -> Vec<DeviceComparisonRow> {
    devices
        .iter()
        .map(|device| {
            let config = PipelineConfig::paper_android().with_device(device.clone());
            let capture = static_capture_impl(&config, distance_m, duration, seed);
            let scenario = Scenario::from_plan(presets::two_transmitter_corridor(), seed);
            let _ = &scenario;
            // Recover per-cycle RSSI by re-running at the observation level:
            // static_capture already exposes distances; convert the mean
            // distance back to an effective RSSI via the ranging model.
            let distances: Vec<f64> = capture.raw.iter().map(|(_, d)| *d).collect();
            let mean_distance_m = metrics::mean(&distances).unwrap_or(f64::NAN);
            // rssi = P1m − 10·n·log10(d)
            let tx = roomsense_radio::TransmitterProfile::default();
            let rssis: Vec<f64> = distances
                .iter()
                .map(|d| tx.rssi_at_1m_dbm - 10.0 * tx.path_loss_exponent * d.max(0.01).log10())
                .collect();
            DeviceComparisonRow {
                model: device.model.clone(),
                mean_rssi_dbm: metrics::mean(&rssis).unwrap_or(f64::NAN),
                std_rssi_db: metrics::std_dev(&rssis).unwrap_or(f64::NAN),
                mean_distance_m,
            }
        })
        .collect()
}

/// The Section V sampling-count comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingComparison {
    /// Samples an Android 4.x device collects in the window.
    pub android_samples: usize,
    /// Samples an Android L (API 21) device collects — the paper's hoped-for
    /// fix, implemented.
    pub android_l_samples: usize,
    /// Samples an iOS device collects in the window.
    pub ios_samples: usize,
}

/// Counts samples over a 10-second window with a 30 Hz beacon and a 2 s
/// scan period — the paper's "five versus three hundred" example.
fn sampling_impl(seed: u64) -> SamplingComparison {
    let scenario = Scenario::with_radio(
        presets::two_transmitter_corridor(),
        seed,
        roomsense_radio::TransmitterProfile::default(),
        SimDuration::from_millis(33),
        0.0,
    );
    let west = scenario.advertisers()[0].position;
    let count = |config: &PipelineConfig| -> usize {
        run_pipeline(
            &scenario,
            config,
            &StaticPosition::new(Point::new(west.x + 2.0, west.y)),
            SimDuration::from_secs(10),
            seed,
        )
        .iter()
        .flat_map(|r| r.observations.iter())
        .filter(|o| o.identity.minor == Minor::new(0))
        .map(|o| o.sample_count)
        .sum()
    };
    // Ideal receivers isolate the structural OS difference, as the paper's
    // argument does.
    let android = PipelineConfig {
        scanner: crate::ScannerKind::Android {
            stall_probability: 0.0,
        },
        device: DeviceRxProfile::ideal(),
        ..PipelineConfig::paper_android()
    };
    let android_l = PipelineConfig {
        scanner: crate::ScannerKind::AndroidL,
        device: DeviceRxProfile::ideal(),
        ..PipelineConfig::paper_android()
    };
    let ios = PipelineConfig {
        scanner: crate::ScannerKind::Ios,
        device: DeviceRxProfile::ideal(),
        ..PipelineConfig::paper_android()
    };
    SamplingComparison {
        android_samples: count(&android),
        android_l_samples: count(&android_l),
        ios_samples: count(&ios),
    }
}

/// The outcome of the Section IV-A TX-power calibration procedure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationOutcome {
    /// One-metre RSSI samples collected.
    pub sample_count: usize,
    /// The calibrated measured-power field.
    pub measured_power: roomsense_ibeacon::MeasuredPower,
    /// The distance a subsequent one-metre verification capture estimates
    /// with that field (should be close to 1 m).
    pub verified_distance_m: f64,
}

/// Runs the paper's TX-power calibration loop against the simulated
/// channel: "putting the device one meter away from the transmitter …
/// changing the TX power field until the detected distance by the device is
/// about one meter."
///
/// Collects one-metre RSSI samples through the full pipeline, feeds them to
/// the [`Calibrator`](roomsense_ibeacon::Calibrator), then verifies the
/// resulting field with a fresh capture.
fn calibration_impl(seed: u64) -> CalibrationOutcome {
    let scenario = Scenario::from_plan(presets::two_transmitter_corridor(), seed);
    let west = scenario.advertisers()[0].position;
    let config = PipelineConfig::paper_android();
    // Collection pass: stand at one metre, gather per-cycle RSSIs.
    let records = run_pipeline(
        &scenario,
        &config,
        &StaticPosition::new(Point::new(west.x + 1.0, west.y)),
        SimDuration::from_secs(120),
        seed,
    );
    let mut calibrator = roomsense_ibeacon::Calibrator::new(10);
    for record in &records {
        for obs in &record.observations {
            if obs.identity.minor == Minor::new(0) {
                calibrator
                    .add_sample(obs.rssi_dbm)
                    .expect("pipeline RSSIs are finite");
            }
        }
    }
    let measured_power = calibrator
        .measured_power()
        .expect("120 s of capture yields enough samples");
    // Verification pass: new seed stream, apply the calibrated field.
    let verify = run_pipeline(
        &scenario,
        &config,
        &StaticPosition::new(Point::new(west.x + 1.0, west.y)),
        SimDuration::from_secs(120),
        seed ^ 0x5af3,
    );
    let ranging = scenario.ranging_config();
    let distances: Vec<f64> = verify
        .iter()
        .flat_map(|r| r.observations.iter())
        .filter(|o| o.identity.minor == Minor::new(0))
        .map(|o| roomsense_ibeacon::estimate_distance_log(o.rssi_dbm, measured_power, &ranging))
        .collect();
    CalibrationOutcome {
        sample_count: calibrator.sample_count(),
        measured_power,
        verified_distance_m: metrics::mean(&distances).unwrap_or(f64::NAN),
    }
}

/// Classification accuracy at commercial-building scale.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingResult {
    /// SVM accuracy on the office floor (9 rooms, 10 beacons).
    pub office_svm: f64,
    /// Proximity accuracy on the office floor.
    pub office_proximity: f64,
    /// Rooms and beacons, for the report.
    pub rooms: usize,
    /// Beacons installed.
    pub beacons: usize,
}

/// Runs the Fig 9 protocol on the larger office floor — the commercial
/// setting the paper's introduction motivates ("buildings are the major
/// consumers of energy").
fn scaling_impl(seed: u64) -> ScalingResult {
    let scenario = Scenario::from_plan(presets::office_floor(), seed);
    let labelled = collect_dataset(
        &scenario,
        &PipelineConfig::paper_android(),
        SimDuration::from_secs(40),
        3,
        seed,
    );
    let mut split_rng = rng::for_component(seed, "scaling-split");
    let (train, test) = train_test_split(&labelled.data, 0.3, &mut split_rng);
    let model = OccupancyModel::fit(
        &LabelledDataset {
            data: train,
            beacon_order: labelled.beacon_order.clone(),
        },
        &SvmParams::default(),
    )
    .expect("office collection walk yields a multi-class dataset");
    let svm_cm = model.evaluate(&test);
    let proximity = ProximityClassifier::new(
        scenario.beacon_room_labels(),
        scenario.outside_label(),
        MISSING_DISTANCE,
    );
    let mut prox_cm = ConfusionMatrix::new(scenario.label_names().len());
    for (row, label) in test.rows().iter().zip(test.labels()) {
        prox_cm.record(*label, proximity.predict(row));
    }
    ScalingResult {
        office_svm: svm_cm.accuracy(),
        office_proximity: prox_cm.accuracy(),
        rooms: scenario.plan().rooms().len(),
        beacons: scenario.plan().beacon_sites().len(),
    }
}

/// Floor-aware classification quality in a stacked building.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiFloorResult {
    /// Fraction of test rows assigned to the correct floor.
    pub floor_accuracy: f64,
    /// Fraction of test rows assigned to the exact (floor, room) label.
    pub room_accuracy: f64,
    /// Floors in the building.
    pub floors: usize,
    /// Beacons across all floors.
    pub beacons: usize,
}

/// Trains one building-wide SVM over a two-storey stack of the paper house
/// and scores floor and room identification — the multi-floor use of the
/// iBeacon major field (Section III).
fn floors_impl(seed: u64) -> MultiFloorResult {
    use roomsense_ml::{Classifier, StandardScaler, SvmClassifier};
    let building = crate::MultiFloorScenario::new(
        vec![presets::paper_house(), presets::paper_house()],
        seed,
    );
    let data = building.collect_dataset(
        &PipelineConfig::paper_android(),
        SimDuration::from_secs(30),
        2,
        seed,
    );
    let mut split_rng = rng::for_component(seed, "multifloor-split");
    let (train, test) = train_test_split(&data, 0.3, &mut split_rng);
    let scaler = StandardScaler::fit(&train);
    let svm = SvmClassifier::fit(&scaler.transform_dataset(&train), &SvmParams::default())
        .expect("building dataset is multi-class");
    // Label → floor: five rooms per floor, outside maps to usize::MAX.
    let rooms_per_floor = building.floors()[0].plan().rooms().len();
    let floor_of = |label: usize| {
        if label >= building.outside_label() {
            usize::MAX
        } else {
            label / rooms_per_floor
        }
    };
    let mut room_hits = 0usize;
    let mut floor_hits = 0usize;
    for (row, label) in test.rows().iter().zip(test.labels()) {
        let predicted = svm.predict(&scaler.transform(row));
        if predicted == *label {
            room_hits += 1;
        }
        if floor_of(predicted) == floor_of(*label) {
            floor_hits += 1;
        }
    }
    MultiFloorResult {
        floor_accuracy: floor_hits as f64 / test.len().max(1) as f64,
        room_accuracy: room_hits as f64 / test.len().max(1) as f64,
        floors: building.floor_count(),
        beacons: building.beacon_order().len(),
    }
}

/// System-level tracking quality: how often the BMS occupancy table agrees
/// with ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackingResult {
    /// Fraction of (sample, device) pairs where the server's room for the
    /// device matched the true room.
    pub device_agreement: f64,
    /// Fraction of samples where the entire occupancy table matched truth
    /// exactly.
    pub table_agreement: f64,
    /// Number of truth samples compared.
    pub samples: usize,
}

/// Runs a three-occupant day in the paper house and scores the server's
/// occupancy table against the ground-truth trace — the system-level number
/// a BMS operator actually cares about.
fn tracking_impl(seed: u64) -> TrackingResult {
    use roomsense_building::mobility::{MobilityModel, RoomSchedule};
    use roomsense_building::{trace, RoomId};
    use roomsense_net::ShardedBmsServer;

    let scenario = Scenario::from_plan(presets::paper_house(), seed);
    let config = PipelineConfig::paper_android();
    let labelled = collect_dataset(&scenario, &config, SimDuration::from_secs(40), 3, seed);
    let model = OccupancyModel::fit(&labelled, &SvmParams::default())
        .expect("collection walk yields a multi-class dataset");
    let outside = scenario.outside_label();
    let server = ShardedBmsServer::new(Arc::new(model), 1);

    // Three occupants with different itineraries.
    let itineraries: [&[(RoomId, SimDuration)]; 3] = [
        &[
            (RoomId::new(0), SimDuration::from_secs(120)),
            (RoomId::new(1), SimDuration::from_secs(120)),
        ],
        &[
            (RoomId::new(4), SimDuration::from_secs(180)),
            (RoomId::new(3), SimDuration::from_secs(60)),
        ],
        &[
            (RoomId::new(2), SimDuration::from_secs(240)),
        ],
    ];
    let walks: Vec<RoomSchedule> = itineraries
        .iter()
        .enumerate()
        .map(|(i, visits)| {
            let mut r = rng::for_indexed(seed, "tracking-walk", i as u64);
            RoomSchedule::generate(scenario.plan(), visits, 1.2, SimTime::ZERO, &mut r)
        })
        .collect();
    let occupants: Vec<&dyn MobilityModel> = walks.iter().map(|w| w as _).collect();
    let duration = SimDuration::from_secs(240);

    // Stream everything into the server over Wi-Fi.
    let events = crate::run_fleet_batched(
        &scenario,
        &config,
        &occupants,
        duration,
        seed,
        &BatchConfig::default(),
    );
    let mut transport = WifiTransport::default();
    let mut transport_rng = rng::for_component(seed, "tracking-uplink");
    for event in events.iter().filter(|e| !e.record.snapshots.is_empty()) {
        let report = report_from_snapshots(event.device, event.at, &event.record.snapshots);
        if transport
            .send(event.at, &report, &mut transport_rng)
            .is_delivered()
        {
            server.post_observation(report);
        }
    }

    // Score against truth.
    let truth = trace::ground_truth(
        scenario.plan(),
        &occupants,
        duration,
        SimDuration::from_secs(2),
    );
    let mut device_hits = 0usize;
    let mut device_total = 0usize;
    let mut table_hits = 0usize;
    for sample in truth.samples() {
        let mut whole_sample_ok = true;
        for (index, true_room) in sample.rooms.iter().enumerate() {
            let device = DeviceId::new(index as u32);
            let believed = server
                .assignment_history(device)
                .iter()
                .take_while(|(t, _)| *t <= sample.at)
                .last()
                .map(|(_, room)| *room);
            let truth_label = true_room.map_or(outside, |r| r.index() as usize);
            device_total += 1;
            // Before the first report the server knows nothing; count it
            // as a miss unless the device is truly outside.
            let hit = believed.map_or(truth_label == outside, |b| b == truth_label);
            if hit {
                device_hits += 1;
            } else {
                whole_sample_ok = false;
            }
        }
        if whole_sample_ok {
            table_hits += 1;
        }
    }
    TrackingResult {
        device_agreement: device_hits as f64 / device_total.max(1) as f64,
        table_agreement: table_hits as f64 / truth.samples().len().max(1) as f64,
        samples: truth.samples().len(),
    }
}

/// How one uplink arm fared at one fault intensity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultArmOutcome {
    /// Fraction of offered reports that reached the server by the end of
    /// the run (`None` when nothing was offered).
    pub delivery_rate: Option<f64>,
    /// Online BMS-vs-truth agreement: at each truth sample, the fraction of
    /// devices whose *currently stored* room matches reality.
    pub device_agreement: f64,
    /// Mean age of the server's per-device knowledge across the run.
    pub mean_staleness: SimDuration,
    /// Radio energy spent on the uplink (all attempts, including refused
    /// probes and retries), mJ.
    pub energy_mj: f64,
    /// Conditioning time the demand-response controller ran on expired
    /// occupancy evidence.
    pub stale_conditioning: SimDuration,
}

/// One intensity point of the fault sweep: the same faulted run scored with
/// a bare transport vs the store-and-forward queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSweepPoint {
    /// The fault intensity in `[0, 1]` this point was generated with.
    pub intensity: f64,
    /// Scheduled downtime of the end-to-end report path.
    pub uplink_downtime: SimDuration,
    /// Fire-and-forget: each report gets one try at its cycle time.
    pub bare: FaultArmOutcome,
    /// Store-and-forward: failed reports queue and retry with backoff.
    pub resilient: FaultArmOutcome,
}

/// The full fault sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultsResult {
    /// One point per intensity, in ascending intensity order.
    pub points: Vec<FaultSweepPoint>,
}

/// Sweeps fault intensity over the paper house and scores graceful
/// degradation: a two-occupant run with seeded beacon/scanner/uplink faults,
/// reported once over a bare BT-relay uplink and once through
/// [`QueueingTransport`](roomsense_net::QueueingTransport). The BMS serves
/// last-known-good occupancy with explicit staleness, and the
/// demand-response controller consumes it fail-safe.
///
/// Deterministic for a fixed `seed`: the fault schedules, walks, radio, and
/// transports all draw from named streams.
fn faults_impl(seed: u64) -> FaultsResult {
    use roomsense_building::mobility::{MobilityModel, RoomSchedule};
    use roomsense_building::{trace, RoomId};
    use roomsense_energy::{account, PowerProfile, UplinkArchitecture, UsageTimeline};
    use roomsense_net::{
        DemandResponseController, FaultyTransport, QueueingTransport, ShardedBmsServer,
    };

    let scenario = Scenario::from_plan(presets::paper_house(), seed);
    let config = PipelineConfig::paper_android();
    // Commissioning happens before anything breaks: train on a clean walk.
    let labelled = collect_dataset(&scenario, &config, SimDuration::from_secs(40), 3, seed);
    let model = OccupancyModel::fit(&labelled, &SvmParams::default())
        .expect("collection walk yields a multi-class dataset");
    let outside = scenario.outside_label();
    let room_count = scenario.plan().rooms().len();

    let duration = SimDuration::from_secs(600);
    let drain = SimDuration::from_secs(180);
    let itineraries: [&[(RoomId, SimDuration)]; 2] = [
        &[
            (RoomId::new(0), SimDuration::from_secs(300)),
            (RoomId::new(1), SimDuration::from_secs(300)),
        ],
        &[
            (RoomId::new(4), SimDuration::from_secs(400)),
            (RoomId::new(2), SimDuration::from_secs(200)),
        ],
    ];
    let walks: Vec<RoomSchedule> = itineraries
        .iter()
        .enumerate()
        .map(|(i, visits)| {
            let mut r = rng::for_indexed(seed, "faults-walk", i as u64);
            RoomSchedule::generate(scenario.plan(), visits, 1.2, SimTime::ZERO, &mut r)
        })
        .collect();
    let occupants: Vec<&dyn MobilityModel> = walks.iter().map(|w| w as _).collect();
    let truth = trace::ground_truth(
        scenario.plan(),
        &occupants,
        duration,
        SimDuration::from_secs(5),
    );

    // Each intensity point is an independent faulted run keyed on indexed
    // RNG streams; the four points fan out over worker threads (and each
    // run's per-device pipelines fan out again inside run_fleet).
    let intensities = [0.0, 0.25, 0.5, 0.75];
    let points = exec::par_map_indexed(&intensities, |index, &intensity| {
        let plan = crate::FaultPlan::generate(
            scenario.advertisers().len(),
            duration,
            intensity,
            seed,
        );
        let events = crate::run_fleet(
            &scenario,
            &config,
            &occupants,
            duration,
            seed,
            &plan,
            &BatchConfig::default(),
            &mut Recorder::default(),
        );
        let reports: Vec<(SimTime, ObservationReport)> = events
            .iter()
            .filter(|e| !e.record.snapshots.is_empty())
            .map(|e| {
                (
                    e.at,
                    report_from_snapshots(e.device, e.at, &e.record.snapshots),
                )
            })
            .collect();
        let chain = || {
            FaultyTransport::new(
                FaultyTransport::new(BtRelayTransport::default(), plan.uplink_outages.clone()),
                plan.server_outages.clone(),
            )
        };

        // Bare arm: one try per report, at its cycle time.
        let mut bare_transport = chain();
        let mut bare_rng = rng::for_indexed(seed, "faults-bare", index as u64);
        let mut bare_deliveries = Vec::new();
        for (at, report) in &reports {
            if let roomsense_net::SendOutcome::Delivered { at: arrived } =
                bare_transport.send(*at, report, &mut bare_rng)
            {
                bare_deliveries.push((arrived, report.clone()));
            }
        }
        let bare_rate = (!reports.is_empty())
            .then(|| bare_deliveries.len() as f64 / reports.len() as f64);

        // Resilient arm: queue, retry with backoff, keep flushing after the
        // last cycle until the backlog drains or the run is called off.
        let mut queue = QueueingTransport::new(chain(), 256, SimDuration::from_secs(2));
        let mut resilient_rng = rng::for_indexed(seed, "faults-resilient", index as u64);
        let mut resilient_deliveries = Vec::new();
        for (at, report) in &reports {
            for d in queue.offer(*at, report.clone(), &mut resilient_rng) {
                resilient_deliveries.push((d.at, d.report));
            }
        }
        let mut drain_at = SimTime::ZERO + duration;
        let drain_until = drain_at + drain;
        while drain_at < drain_until && queue.pending() > 0 {
            drain_at += SimDuration::from_secs(2);
            for d in queue.flush(drain_at, &mut resilient_rng) {
                resilient_deliveries.push((d.at, d.report));
            }
        }
        let resilient_rate = queue.report_delivery_rate();
        // Arrival times can locally invert (variable link latency); the
        // scorer consumes deliveries in arrival order.
        bare_deliveries.sort_by_key(|(at, _)| *at);
        resilient_deliveries.sort_by_key(|(at, _)| *at);

        let span = duration + drain;
        let score = |deliveries: &[(SimTime, ObservationReport)],
                     events: &[roomsense_net::TransportEvent],
                     delivery_rate: Option<f64>| {
            let server = ShardedBmsServer::new(Arc::new(model.clone()), 1);
            let mut dr =
                DemandResponseController::new(room_count, SimDuration::from_secs(30));
            let ttl = SimDuration::from_secs(15);
            let mut last_seen: Vec<Option<SimTime>> = vec![None; occupants.len()];
            let mut next = 0usize;
            let mut hits = 0usize;
            let mut total = 0usize;
            let mut staleness_sum = SimDuration::ZERO;
            let mut staleness_samples = 0u64;
            for sample in truth.samples() {
                while next < deliveries.len() && deliveries[next].0 <= sample.at {
                    let report = &deliveries[next].1;
                    let device = report.device.value() as usize;
                    if last_seen[device].is_none_or(|t| report.at > t) {
                        last_seen[device] = Some(report.at);
                    }
                    server.post_observation(report.clone());
                    next += 1;
                }
                dr.update_view(sample.at, &server.occupancy_view(sample.at, ttl));
                for (device, true_room) in sample.rooms.iter().enumerate() {
                    let truth_label = true_room.map_or(outside, |r| r.index() as usize);
                    let believed = server.room_of(DeviceId::new(device as u32));
                    total += 1;
                    if believed.map_or(truth_label == outside, |b| b == truth_label) {
                        hits += 1;
                    }
                    staleness_sum += sample
                        .at
                        .saturating_since(last_seen[device].unwrap_or(SimTime::ZERO));
                    staleness_samples += 1;
                }
            }
            let timeline = UsageTimeline {
                duration: span,
                scan_active: duration,
                transport_events: events.to_vec(),
            };
            let energy_mj = account(
                &PowerProfile::galaxy_s3_mini(),
                &timeline,
                UplinkArchitecture::BluetoothRelay,
            )
            .total_mj();
            FaultArmOutcome {
                delivery_rate,
                device_agreement: hits as f64 / total.max(1) as f64,
                mean_staleness: SimDuration::from_millis(
                    staleness_sum.as_millis() / staleness_samples.max(1),
                ),
                energy_mj,
                stale_conditioning: dr.report(SimTime::ZERO + duration).stale,
            }
        };

        let bare = score(
            &bare_deliveries,
            &bare_transport.telemetry().transport_events(),
            bare_rate,
        );
        let resilient = score(
            &resilient_deliveries,
            &queue.telemetry().transport_events(),
            resilient_rate,
        );
        FaultSweepPoint {
            intensity,
            uplink_downtime: plan.uplink_downtime(),
            bare,
            resilient,
        }
    });
    FaultsResult { points }
}

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

/// One cell of the chaos sweep: one outage pattern under one `(failover,
/// dedup)` configuration of the delivery stack.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosCell {
    /// Outage pattern name (`calm`, `blackout`, `storm`).
    pub pattern: String,
    /// Whether the uplink ran through the Wi-Fi→BT
    /// [`FailoverTransport`]
    /// (`false` = Wi-Fi only).
    pub failover: bool,
    /// Whether the server ingested through the idempotent `(device, seq)`
    /// dedup endpoint (`false` = legacy `post_observation`).
    pub dedup: bool,
    /// Reports the fleet offered to the queue.
    pub offered: u64,
    /// Distinct reports delivered at least once.
    pub delivered: u64,
    /// Reports evicted from the full queue (lost forever).
    pub dropped: u64,
    /// Retransmissions caused by lost acks (each one a wire duplicate).
    pub retransmits: u64,
    /// Wire deliveries beyond the first per `(device, seq)`.
    pub duplicates_on_wire: u64,
    /// Duplicates the server's dedup window rejected.
    pub duplicates_rejected: u64,
    /// Sends the failover path redirected to the secondary radio.
    pub failover_sends: u64,
    /// Recovery probes the failover path sent while the primary was down.
    pub probes: u64,
    /// Server crashes survived via checkpoint + journal replay.
    pub crashes: u64,
    /// Journal entries replayed across all restarts.
    pub replayed: u64,
    /// Uplink radio energy for the run, mJ.
    pub energy_mj: f64,
    /// Final occupancy table equals the clean oracle's.
    pub view_matches_oracle: bool,
    /// Stored-report count equals the distinct delivered count (vacuously
    /// true when `dedup` is off — duplicates are then expected effects).
    pub exactly_once_ok: bool,
    /// Every device's believed room is its last-writer report's room
    /// (no straggler or duplicate ever rolled a device backwards).
    pub monotone_ok: bool,
    /// Queue backlog and dedup windows stayed within their bounds.
    pub bounded_ok: bool,
}

impl ChaosCell {
    /// All invariants that apply to this cell hold.
    pub fn invariants_hold(&self) -> bool {
        self.exactly_once_ok && self.monotone_ok && self.bounded_ok
    }
}

/// The full chaos sweep: outage patterns × failover on/off × dedup on/off.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosResult {
    /// One cell per configuration, pattern-major.
    pub cells: Vec<ChaosCell>,
}

impl ChaosResult {
    /// Every cell's applicable invariants hold.
    pub fn all_invariants_hold(&self) -> bool {
        self.cells.iter().all(ChaosCell::invariants_hold)
    }

    /// Every fully reliable cell (failover + dedup) converged to the clean
    /// oracle's occupancy view.
    pub fn reliable_cells_match_oracle(&self) -> bool {
        self.cells
            .iter()
            .filter(|c| c.failover && c.dedup)
            .all(|c| c.view_matches_oracle)
    }
}

/// Queue capacity used by every chaos cell. Sized so the short outages fit
/// in the backlog but a full blackout overflows a Wi-Fi-only uplink — the
/// sweep's point is that failover avoids that loss.
const CHAOS_QUEUE_CAPACITY: usize = 256;

/// Offers every report at its cycle time, then keeps flushing the backlog
/// for `drain` past the end of the run.
fn pump_queue<T: Transport, R: rand::Rng + ?Sized>(
    queue: &mut roomsense_net::QueueingTransport<T>,
    reports: &[(SimTime, ObservationReport)],
    duration: SimDuration,
    drain: SimDuration,
    rng: &mut R,
) -> Vec<roomsense_net::Delivery> {
    let mut deliveries = Vec::new();
    for (at, report) in reports {
        deliveries.extend(queue.offer(*at, report.clone(), rng));
    }
    let mut drain_at = SimTime::ZERO + duration;
    let drain_until = drain_at + drain;
    while drain_at < drain_until && queue.pending() > 0 {
        drain_at += SimDuration::from_secs(2);
        deliveries.extend(queue.flush(drain_at, rng));
    }
    deliveries
}

/// End-to-end reliable-delivery sweep (the `repro chaos` arm): one clean
/// fleet run is replayed through twelve delivery stacks — three outage
/// patterns (`calm`, a handcrafted `blackout` with a mid-run server crash,
/// and a seeded `storm` drawn from [`FaultPlan`](crate::FaultPlan)) crossed
/// with Wi-Fi→BT failover on/off and server-side `(device, seq)` dedup
/// on/off. Every cell runs with lossy acks (25 %), so retransmission
/// duplicates and backoff-induced reordering are always present; cells with
/// a crash window restore the BMS from its last periodic checkpoint and
/// replay the journal tail.
///
/// Each cell is compared against a clean oracle (every offered report
/// ingested exactly once, in order) and checked against three invariants:
/// exactly-once ingestion effects (dedup cells), monotone per-device
/// last-writer state (all cells), and bounded queue/dedup memory (all
/// cells). Deterministic for a fixed `seed` regardless of thread count:
/// the fleet runs once up front and each cell draws an indexed RNG stream.
fn chaos_impl(seed: u64) -> ChaosResult {
    use roomsense_building::mobility::{MobilityModel, RoomSchedule};
    use roomsense_building::RoomId;
    use roomsense_net::{
        FailoverTransport, FaultyTransport, LinkHealthConfig, OccupancyEstimator,
        QueueingTransport, SequenceStamper, ShardedBmsServer, TransportEvent,
    };
    use roomsense_sim::{FaultSchedule, FaultWindow};
    use std::collections::{BTreeMap, BTreeSet};

    let scenario = Scenario::from_plan(presets::paper_house(), seed);
    let config = PipelineConfig::paper_android();
    let labelled = collect_dataset(&scenario, &config, SimDuration::from_secs(40), 3, seed);
    let model = OccupancyModel::fit(&labelled, &SvmParams::default())
        .expect("collection walk yields a multi-class dataset");

    let duration = SimDuration::from_secs(600);
    let drain = SimDuration::from_secs(600);
    let itineraries: [&[(RoomId, SimDuration)]; 2] = [
        &[
            (RoomId::new(0), SimDuration::from_secs(280)),
            (RoomId::new(2), SimDuration::from_secs(320)),
        ],
        &[
            (RoomId::new(4), SimDuration::from_secs(360)),
            (RoomId::new(1), SimDuration::from_secs(240)),
        ],
    ];
    let walks: Vec<RoomSchedule> = itineraries
        .iter()
        .enumerate()
        .map(|(i, visits)| {
            let mut r = rng::for_indexed(seed, "chaos-walk", i as u64);
            RoomSchedule::generate(scenario.plan(), visits, 1.2, SimTime::ZERO, &mut r)
        })
        .collect();
    let occupants: Vec<&dyn MobilityModel> = walks.iter().map(|w| w as _).collect();

    // The radio/fleet side runs once, clean: chaos lives in the uplink and
    // the server, so every cell replays the same sequenced report stream.
    let events = crate::run_fleet_batched(
        &scenario,
        &config,
        &occupants,
        duration,
        seed,
        &BatchConfig::default(),
    );
    let mut stamper = SequenceStamper::new();
    let reports: Vec<(SimTime, ObservationReport)> = events
        .iter()
        .filter(|e| !e.record.snapshots.is_empty())
        .map(|e| {
            (
                e.at,
                sequenced_report_from_snapshots(&mut stamper, e.device, e.at, &e.record.snapshots),
            )
        })
        .collect();
    let devices: BTreeSet<DeviceId> = reports.iter().map(|(_, r)| r.device).collect();

    // The clean oracle: every offered report, exactly once, in order.
    let oracle = ShardedBmsServer::new(Arc::new(model.clone()), 1);
    for (_, report) in &reports {
        oracle.ingest(report.clone());
    }
    let oracle_occupancy = oracle.occupancy();

    let storm_plan =
        crate::FaultPlan::generate(scenario.advertisers().len(), duration, 0.6, seed);
    let patterns: Vec<(&'static str, FaultSchedule, FaultSchedule)> = vec![
        ("calm", FaultSchedule::none(), FaultSchedule::none()),
        (
            "blackout",
            FaultSchedule::new(vec![FaultWindow::new(
                SimTime::from_secs(240),
                SimTime::from_secs(540),
            )]),
            FaultSchedule::new(vec![FaultWindow::new(
                SimTime::from_secs(400),
                SimTime::from_secs(460),
            )]),
        ),
        (
            "storm",
            storm_plan.uplink_outages.clone(),
            storm_plan.server_crashes.clone(),
        ),
    ];

    let mut specs: Vec<(usize, bool, bool)> = Vec::new();
    for p in 0..patterns.len() {
        for failover in [false, true] {
            for dedup in [false, true] {
                specs.push((p, failover, dedup));
            }
        }
    }

    let span = duration + drain;
    let cells = exec::par_map_indexed(&specs, |index, &(p, failover, dedup)| {
        let (pattern_name, wifi_outages, crash_schedule) = &patterns[p];
        let mut cell_rng = rng::for_indexed(seed, "chaos-cell", index as u64);
        let price = |events: &[TransportEvent], arch: UplinkArchitecture| {
            let timeline = UsageTimeline {
                duration: span,
                scan_active: duration,
                transport_events: events.to_vec(),
            };
            account(&PowerProfile::galaxy_s3_mini(), &timeline, arch).total_mj()
        };
        let wifi = || {
            FaultyTransport::new(
                WifiTransport::new(0.99, SimDuration::from_millis(50)),
                wifi_outages.clone(),
            )
        };

        // Lossy acks on every cell: retransmission duplicates and the
        // reordering they cause are the load the server must tolerate.
        // The crash schedule wraps the whole chain — a dead server refuses
        // both radios.
        let (mut deliveries, offered, delivered, dropped, retransmits, pending, fo_sends, probes, energy_mj);
        if failover {
            let chain = FaultyTransport::new(
                FailoverTransport::new(
                    wifi(),
                    BtRelayTransport::default(),
                    LinkHealthConfig::default(),
                ),
                crash_schedule.clone(),
            );
            let mut queue =
                QueueingTransport::new(chain, CHAOS_QUEUE_CAPACITY, SimDuration::from_secs(2))
                    .with_ack_loss(0.25);
            deliveries = pump_queue(&mut queue, &reports, duration, drain, &mut cell_rng);
            offered = queue.offered();
            delivered = queue.delivered_reports();
            dropped = queue.dropped();
            retransmits = queue.retransmits();
            pending = queue.pending();
            fo_sends = queue.inner().inner().failover_sends();
            probes = queue.inner().inner().probes();
            energy_mj = price(
                &queue.telemetry().transport_events(),
                UplinkArchitecture::Failover,
            );
        } else {
            let chain = FaultyTransport::new(wifi(), crash_schedule.clone());
            let mut queue =
                QueueingTransport::new(chain, CHAOS_QUEUE_CAPACITY, SimDuration::from_secs(2))
                    .with_ack_loss(0.25);
            deliveries = pump_queue(&mut queue, &reports, duration, drain, &mut cell_rng);
            offered = queue.offered();
            delivered = queue.delivered_reports();
            dropped = queue.dropped();
            retransmits = queue.retransmits();
            pending = queue.pending();
            fo_sends = 0;
            probes = 0;
            energy_mj = price(
                &queue.telemetry().transport_events(),
                UplinkArchitecture::Wifi,
            );
        }
        // Arrival order with a deterministic tie-break, so ingestion is
        // identical across thread counts.
        deliveries.sort_by_key(|d| (d.at, d.report.device, d.report.seq));

        // Ingest in arrival order, checkpointing periodically; at each
        // crash-window start the in-memory server is lost and restarts from
        // the last checkpoint plus the journal tail.
        let crash_windows = crash_schedule.windows();
        let checkpoint_every = SimDuration::from_secs(120);
        let mut server = ShardedBmsServer::new(Arc::new(model.clone()), 1);
        let mut checkpoint = server.checkpoint();
        let mut checkpoint_len = 0usize;
        let mut next_checkpoint = SimTime::ZERO + checkpoint_every;
        let mut journal: Vec<ObservationReport> = Vec::new();
        let mut crash_idx = 0usize;
        let mut crashes = 0u64;
        let mut replayed = 0u64;
        let end_of_run = SimTime::ZERO + span;
        let restart = |server: &mut ShardedBmsServer,
                           checkpoint: &roomsense_net::ShardedBmsCheckpoint,
                           journal: &[ObservationReport],
                           checkpoint_len: usize| {
            *server = ShardedBmsServer::restore(Arc::new(model.clone()), checkpoint.clone())
                .expect("untampered checkpoint");
            for report in &journal[checkpoint_len..] {
                if dedup {
                    server.ingest(report.clone());
                } else {
                    server.post_observation(report.clone());
                }
            }
            (journal.len() - checkpoint_len) as u64
        };
        for delivery in &deliveries {
            loop {
                let crash_due = crash_windows
                    .get(crash_idx)
                    .is_some_and(|w| w.from <= delivery.at);
                let checkpoint_due = next_checkpoint <= delivery.at;
                if crash_due
                    && (!checkpoint_due || crash_windows[crash_idx].from <= next_checkpoint)
                {
                    replayed += restart(&mut server, &checkpoint, &journal, checkpoint_len);
                    crashes += 1;
                    crash_idx += 1;
                } else if checkpoint_due {
                    checkpoint = server.checkpoint();
                    checkpoint_len = journal.len();
                    next_checkpoint += checkpoint_every;
                } else {
                    break;
                }
            }
            let stored = if dedup {
                !server.ingest(delivery.report.clone()).is_duplicate()
            } else {
                server.post_observation(delivery.report.clone());
                true
            };
            if stored {
                journal.push(delivery.report.clone());
            }
        }
        while crash_windows
            .get(crash_idx)
            .is_some_and(|w| w.from <= end_of_run)
        {
            replayed += restart(&mut server, &checkpoint, &journal, checkpoint_len);
            crashes += 1;
            crash_idx += 1;
        }

        // Invariants and the oracle comparison.
        let mut distinct: BTreeSet<(DeviceId, u64)> = BTreeSet::new();
        let mut last_writer: BTreeMap<DeviceId, (SimTime, u64, usize)> = BTreeMap::new();
        let mut duplicates_on_wire = 0u64;
        for delivery in &deliveries {
            if !distinct.insert((delivery.report.device, delivery.report.seq)) {
                duplicates_on_wire += 1;
                continue;
            }
            if let Some(room) = model.classify(&delivery.report) {
                let entry = last_writer
                    .entry(delivery.report.device)
                    .or_insert((delivery.report.at, delivery.report.seq, room));
                if (delivery.report.at, delivery.report.seq) >= (entry.0, entry.1) {
                    *entry = (delivery.report.at, delivery.report.seq, room);
                }
            }
        }
        let exactly_once_ok = !dedup || server.report_count() == distinct.len();
        let monotone_ok = devices
            .iter()
            .all(|&d| server.room_of(d) == last_writer.get(&d).map(|&(_, _, room)| room));
        let bounded_ok = pending <= CHAOS_QUEUE_CAPACITY
            && server.dedup_entries() <= devices.len() * server.dedup_capacity();
        ChaosCell {
            pattern: pattern_name.to_string(),
            failover,
            dedup,
            offered,
            delivered,
            dropped,
            retransmits,
            duplicates_on_wire,
            duplicates_rejected: server.stats().reports_duplicate,
            failover_sends: fo_sends,
            probes,
            crashes,
            replayed,
            energy_mj,
            view_matches_oracle: server.occupancy() == oracle_occupancy,
            exactly_once_ok,
            monotone_ok,
            bounded_ok,
        }
    });
    ChaosResult { cells }
}

/// Convenience: feature vector of a cycle under a scenario's layout.
pub fn cycle_features(scenario: &Scenario, record: &crate::CycleRecord) -> Vec<f64> {
    features_from_snapshots(&record.snapshots, &scenario.beacon_order())
}

/// The merged telemetry snapshot from one instrumented end-to-end run (the
/// `repro telemetry` arm).
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryResult {
    /// The global recorder: faulted fleet, SVM margins, chaos uplink, BMS
    /// ingestion, and the energy account, merged in that order.
    pub recorder: roomsense_telemetry::Recorder,
    /// Reports offered to the uplink queue.
    pub offered: u64,
    /// Reports delivered end-to-end (after dedup on the wire).
    pub delivered: u64,
}

/// Runs one faulted fleet through every instrumented layer and returns the
/// single merged [`Recorder`](roomsense_telemetry::Recorder) — the
/// observability demo and the determinism fixture in one.
///
/// Four phases, all recording into one recorder:
///
/// 1. **Fleet** — a two-occupant faulted run over the paper house
///    ([`run_fleet`](crate::run_fleet),
///    fault intensity 0.6): scan stalls, dropped samples, filter
///    holds/resets, radio losses, per-stage timings.
/// 2. **SVM margins** — a binary SVM separates the two devices' cycle
///    feature vectors and every decision margin lands in `ml.svm.margin`.
/// 3. **Chaos uplink** — the sequenced report stream is pumped through a
///    queued, ack-lossy Wi-Fi→BT failover chain with a blackout and a BMS
///    crash window; retransmits, failovers, dedup hits, and checkpoints
///    come from the transport and server recorders, merged afterwards.
/// 4. **Energy** — the uplink's transport bursts are priced and published
///    as `energy.*` gauges.
///
/// Deterministic for a fixed `seed` at any `ROOMSENSE_THREADS`: the only
/// parallel section (the fleet) merges per-device child recorders in
/// device order, and every other phase is sequential.
fn telemetry_impl(seed: u64) -> TelemetryResult {
    use roomsense_building::mobility::{MobilityModel, RoomSchedule};
    use roomsense_building::RoomId;
    use roomsense_ml::BinarySvm;
    use roomsense_net::{
        FailoverTransport, FaultyTransport, LinkHealthConfig, ObservationReport,
        QueueingTransport, SequenceStamper, ShardedBmsServer,
    };
    use roomsense_sim::{FaultSchedule, FaultWindow};
    use roomsense_telemetry::{keys, TelemetryEvent};

    let mut recorder = Recorder::default();
    let scenario = Scenario::from_plan(presets::paper_house(), seed);
    let config = PipelineConfig::paper_android();
    let duration = SimDuration::from_secs(300);
    let drain = SimDuration::from_secs(120);

    // Phase 1: the faulted fleet. Two occupants walk the house while the
    // fault plan kills beacons, stalls scanners, and drops the uplink.
    let itineraries: [&[(RoomId, SimDuration)]; 2] = [
        &[
            (RoomId::new(0), SimDuration::from_secs(150)),
            (RoomId::new(2), SimDuration::from_secs(150)),
        ],
        &[
            (RoomId::new(4), SimDuration::from_secs(180)),
            (RoomId::new(1), SimDuration::from_secs(120)),
        ],
    ];
    let walks: Vec<RoomSchedule> = itineraries
        .iter()
        .enumerate()
        .map(|(i, visits)| {
            let mut r = rng::for_indexed(seed, "telemetry-walk", i as u64);
            RoomSchedule::generate(scenario.plan(), visits, 1.2, SimTime::ZERO, &mut r)
        })
        .collect();
    let occupants: Vec<&dyn MobilityModel> = walks.iter().map(|w| w as _).collect();
    let plan =
        crate::FaultPlan::generate(scenario.advertisers().len(), duration, 0.6, seed);
    let events = crate::run_fleet(
        &scenario,
        &config,
        &occupants,
        duration,
        seed,
        &plan,
        &BatchConfig::default(),
        &mut recorder,
    );

    // Phase 2: SVM margins. A binary SVM separating the two devices'
    // cycle features is a cheap, deterministic stand-in for the paper's
    // room classifier; what matters here is that every decision margin is
    // observable.
    let labelled: Vec<(SimTime, Vec<f64>, f64)> = events
        .iter()
        .filter(|e| !e.record.snapshots.is_empty())
        .map(|e| {
            let features = cycle_features(&scenario, &e.record);
            let target = if e.device.value() == 0 { 1.0 } else { -1.0 };
            (e.at, features, target)
        })
        .collect();
    let has_both_classes = labelled.iter().any(|(_, _, t)| *t > 0.0)
        && labelled.iter().any(|(_, _, t)| *t < 0.0);
    if has_both_classes {
        let rows: Vec<Vec<f64>> = labelled.iter().map(|(_, f, _)| f.clone()).collect();
        let targets: Vec<f64> = labelled.iter().map(|(_, _, t)| *t).collect();
        let svm = BinarySvm::fit(rows, &targets, &SvmParams::default());
        for (at, features, _) in &labelled {
            let margin = svm.decision(features);
            recorder.observe(keys::ML_SVM_MARGIN, margin);
            recorder.record_event(TelemetryEvent::SvmMargin { at: *at, margin });
        }
    }

    // Phase 3: the chaos uplink. Lossy acks force retransmits, a blackout
    // forces failover, and a server crash forces a checkpoint restore —
    // each layer records into its own recorder, merged below.
    let mut stamper = SequenceStamper::new();
    let reports: Vec<(SimTime, ObservationReport)> = labelled
        .iter()
        .zip(events.iter().filter(|e| !e.record.snapshots.is_empty()))
        .map(|((at, _, _), e)| {
            (
                *at,
                sequenced_report_from_snapshots(&mut stamper, e.device, e.at, &e.record.snapshots),
            )
        })
        .collect();
    let wifi_outages = FaultSchedule::new(vec![FaultWindow::new(
        SimTime::from_secs(120),
        SimTime::from_secs(240),
    )]);
    let crash_schedule = FaultSchedule::new(vec![FaultWindow::new(
        SimTime::from_secs(200),
        SimTime::from_secs(230),
    )]);
    let chain = FaultyTransport::new(
        FailoverTransport::new(
            FaultyTransport::new(
                WifiTransport::new(0.99, SimDuration::from_millis(50)),
                wifi_outages,
            ),
            BtRelayTransport::default(),
            LinkHealthConfig::default(),
        ),
        crash_schedule.clone(),
    );
    let mut queue = QueueingTransport::new(chain, 256, SimDuration::from_secs(2))
        .with_ack_loss(0.25);
    let mut uplink_rng = rng::for_component(seed, "telemetry-uplink");
    let mut deliveries = pump_queue(&mut queue, &reports, duration, drain, &mut uplink_rng);
    deliveries.sort_by_key(|d| (d.at, d.report.device, d.report.seq));

    // Ingest with periodic checkpoints; at the crash-window start the
    // in-memory server is lost and restarts from the last checkpoint plus
    // the journal tail (the server recorder rolls back and replays with
    // it, so its snapshot reflects what the surviving server counted).
    let nearest_beacon = |report: &ObservationReport| {
        report
            .beacons
            .iter()
            .min_by(|a, b| a.distance_m.partial_cmp(&b.distance_m).expect("finite"))
            .map(|b| b.identity.minor.value() as usize)
    };
    let mut server = ShardedBmsServer::new(Arc::new(nearest_beacon), 1);
    let checkpoint_every = SimDuration::from_secs(120);
    let mut checkpoint = server.checkpoint();
    let mut checkpoint_len = 0usize;
    let mut next_checkpoint = SimTime::ZERO + checkpoint_every;
    let mut journal: Vec<ObservationReport> = Vec::new();
    let crash_windows = crash_schedule.windows();
    let mut crash_idx = 0usize;
    for delivery in &deliveries {
        loop {
            let crash_due = crash_windows
                .get(crash_idx)
                .is_some_and(|w| w.from <= delivery.at);
            let checkpoint_due = next_checkpoint <= delivery.at;
            if crash_due && (!checkpoint_due || crash_windows[crash_idx].from <= next_checkpoint)
            {
                server = ShardedBmsServer::restore(Arc::new(nearest_beacon), checkpoint.clone())
                    .expect("untampered checkpoint");
                for report in &journal[checkpoint_len..] {
                    server.ingest(report.clone());
                }
                crash_idx += 1;
            } else if checkpoint_due {
                checkpoint = server.checkpoint();
                checkpoint_len = journal.len();
                next_checkpoint += checkpoint_every;
            } else {
                break;
            }
        }
        if !server.ingest(delivery.report.clone()).is_duplicate() {
            journal.push(delivery.report.clone());
        }
    }
    let offered = queue.offered();
    let delivered = queue.delivered_reports();
    let transport_events = queue.telemetry().transport_events();
    recorder.merge_child(queue.telemetry().clone());
    recorder.merge_child(server.telemetry_snapshot());

    // Phase 4: price the uplink's bursts and publish the energy account.
    let timeline = UsageTimeline {
        duration: duration + drain,
        scan_active: duration,
        transport_events,
    };
    account(
        &PowerProfile::galaxy_s3_mini(),
        &timeline,
        UplinkArchitecture::Failover,
    )
    .record_into(&mut recorder);

    TelemetryResult {
        recorder,
        offered,
        delivered,
    }
}

/// The retention-window memory bound for a fleet with heterogeneous
/// report periods: `Σ_d (window / period_d + 1)`.
///
/// A server that keeps `window` of history holds at most
/// `window / period + 1` reports per device (the `+1` covers the report
/// straddling the window edge). With every device on the same period
/// this collapses to the old `devices × (window / period + 1)` formula;
/// summing per device keeps the bound tight when parts of the fleet
/// report faster than others.
///
/// # Examples
///
/// ```
/// use roomsense::experiments::retention_cap;
/// use roomsense_sim::SimDuration;
///
/// let window = SimDuration::from_secs(300);
/// let periods = [SimDuration::from_secs(60), SimDuration::from_secs(30)];
/// assert_eq!(retention_cap(window, periods), 6 + 11);
/// ```
pub fn retention_cap(
    window: SimDuration,
    periods: impl IntoIterator<Item = SimDuration>,
) -> usize {
    periods
        .into_iter()
        .map(|period| (window.as_millis() / period.as_millis().max(1)) as usize + 1)
        .sum()
}

/// The deterministic half of one [`ExperimentCtx::scale`] run — everything in
/// here is a pure function of `(seed, devices, shards)` at any
/// `ROOMSENSE_THREADS`, so the `repro scale` checksum hashes exactly this.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleFingerprint {
    /// Synthetic fleet size.
    pub devices: usize,
    /// Shards in the [`ShardedBmsServer`](roomsense_net::ShardedBmsServer).
    pub shards: usize,
    /// Reports offered to the per-device batching uplinks.
    pub offered: u64,
    /// Offered reports that reached the server at least once.
    pub delivered: u64,
    /// Report retransmissions caused by lost batch acks (the at-least-once
    /// duplicate stream the dedup window absorbs).
    pub retransmits: u64,
    /// Reports dropped by uplink buffer overflow.
    pub dropped: u64,
    /// Reports still buffered when the drain window closed.
    pub undelivered: u64,
    /// Coalesced radio bursts across the fleet.
    pub bursts: u64,
    /// Mean reports carried per burst attempt (the mean of every device's
    /// `net.batch.size` observations, failed attempts included) — the
    /// coalescing factor the batched energy arm prices.
    pub mean_batch_size: f64,
    /// Reports the (crash-free) single reference server stored.
    pub stored: u64,
    /// Duplicates the single reference server rejected.
    pub duplicates: u64,
    /// Highest retained-report count observed across ingest chunks.
    pub peak_retained: usize,
    /// The retention-window bound, summed per device over heterogeneous
    /// report periods: `Σ_d (window / period_d + 1)` (see
    /// [`retention_cap`]).
    pub retained_cap: usize,
    /// Reports retained after the full stream (post-compaction).
    pub final_retained: usize,
    /// Entries dropped by retention compaction on the sharded fleet.
    pub compacted: u64,
    /// Reports replayed from the journal after the mid-run crash.
    pub recovered_reports: usize,
    /// Sharded fleet and single server ended bit-for-bit identical.
    pub digests_match: bool,
    /// Post-crash restore + replay reproduced the pre-crash digest.
    pub restore_digest_match: bool,
    /// Whether a query below the retention floor was (wrongly) marked
    /// complete — expected `false`.
    pub early_query_complete: bool,
    /// Rooms probed by the historical-occupancy query sweep.
    pub history_rooms_probed: usize,
    /// Rooms with at least one device in the final occupancy view.
    pub occupied_rooms: usize,
    /// Devices in the final occupancy view.
    pub occupants: usize,
    /// Fleet uplink energy under the batched (wake-per-burst) ledger arm.
    pub batched_energy_mj: f64,
    /// The same bursts priced with an always-associated Wi-Fi adapter.
    pub always_on_energy_mj: f64,
    /// Checksum of the merged fleet telemetry (plus the peak gauge).
    pub telemetry_checksum: u64,
}

impl ScaleFingerprint {
    /// Whether peak resident state stayed under the retention bound.
    pub fn retention_bounded(&self) -> bool {
        self.peak_retained <= self.retained_cap
    }

    /// Fraction of uplink energy saved by disassociating between bursts.
    pub fn batched_saving_fraction(&self) -> f64 {
        if self.always_on_energy_mj > 0.0 {
            1.0 - self.batched_energy_mj / self.always_on_energy_mj
        } else {
            0.0
        }
    }
}

/// Wall-clock measurements from one [`ExperimentCtx::scale`] run. Machine- and
/// load-dependent, so **excluded** from the checksummed fingerprint.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleTimings {
    /// Seconds spent generating and uplinking the synthetic fleet.
    pub generate_secs: f64,
    /// Seconds spent ingesting the delivered stream into both servers.
    pub ingest_secs: f64,
    /// Delivered reports per second through the sharded ingest path.
    pub ingest_reports_per_sec: f64,
    /// Mean microseconds per merged cross-shard occupancy query.
    pub query_micros: f64,
}

/// Everything `repro scale` prints: the deterministic fingerprint plus the
/// wall-clock timings.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleResult {
    /// The deterministic, checksummable half.
    pub fingerprint: ScaleFingerprint,
    /// The wall-clock half (never checksummed).
    pub timings: ScaleTimings,
}

/// The fleet-scale bench (the `repro scale` arm): `devices` synthetic
/// phones report through per-device batching uplinks into a
/// [`ShardedBmsServer`](roomsense_net::ShardedBmsServer), with a one-shard
/// server fed the identical stream as the semantic reference.
///
/// The run exercises every scale mechanism at once:
///
/// * **Batching** — each device coalesces its 60 s reports into ≤8-report
///   bursts over a lossy-ack Wi-Fi link, so the server sees an
///   at-least-once stream with duplicates, and the energy ledger prices
///   the bursts under [`UplinkArchitecture::Batched`].
/// * **Sharding** — the delivered stream (globally sorted by
///   `(time, device, seq)`) is bulk-ingested chunk by chunk through
///   [`ingest_all`](roomsense_net::ShardedBmsServer::ingest_all); the
///   reference server ingests the same chunks serially.
/// * **Retention** — both servers run a 300 s retention window; every
///   fifth device reports at a 30 s period (the rest at 60 s), and the
///   peak retained count sampled per chunk must stay under the summed
///   per-device bound [`retention_cap`]: `Σ_d (window / period_d + 1)`.
/// * **Crash recovery** — the fleet checkpoints at chunk 12 and crashes at
///   chunk 16, restoring from the checkpoint and replaying the journal
///   tail; the restored digest must equal the pre-crash digest, and the
///   final fleet digest must equal the crash-free reference's.
///
/// Deterministic for a fixed `(seed, devices, shards)` at any
/// `ROOMSENSE_THREADS`: per-device RNG streams come from
/// [`rng::for_indexed`], parallel sections preserve item order, and each
/// shard's recorder only sees its own lock-ordered partition.
fn scale_impl(seed: u64, devices: usize, shards: usize) -> ScaleResult {
    use rand::Rng;
    use roomsense_ibeacon::{BeaconIdentity, Major, ProximityUuid};
    use roomsense_net::{BatchingTransport, Delivery, ShardedBmsServer};
    use roomsense_telemetry::{keys, Histogram};
    use std::time::Instant;

    const ROOMS: u16 = 12;
    const CYCLES: u64 = 30;
    const PERIOD_MS: u64 = 60_000;
    const MAX_BATCH: usize = 8;
    const CHUNKS: usize = 20;
    const CHECKPOINT_CHUNK: usize = 12;
    const CRASH_CHUNK: usize = 16;
    let retention = SimDuration::from_secs(300);
    let ttl = SimDuration::from_secs(300);
    let duration = SimDuration::from_millis(CYCLES * PERIOD_MS);
    let span = duration * 2; // run + drain window
    let end = SimTime::ZERO + span;

    struct DeviceRun {
        deliveries: Vec<Delivery>,
        period: SimDuration,
        offered: u64,
        delivered: u64,
        dropped: u64,
        retransmits: u64,
        burst_sizes: Histogram,
        pending: u64,
        batched_mj: f64,
        always_on_mj: f64,
    }

    // Phase 1: the synthetic fleet. Every device walks its own seeded RNG
    // stream (generation, link noise, and ack losses all come from it), so
    // the result is identical at any thread count.
    let generate_start = Instant::now();
    let indices: Vec<u64> = (0..devices as u64).collect();
    let runs = exec::par_map_indexed(&indices, |i, _| {
        let mut r = rng::for_indexed(seed, "scale-device", i as u64);
        // Heterogeneous report periods: every fifth device is a "fast"
        // reporter (30 s), the rest hold the paper's 60 s cycle. The
        // retention bound must therefore be summed per device rather
        // than multiplied fleet-wide.
        let period_ms = if i % 5 == 4 { PERIOD_MS / 2 } else { PERIOD_MS };
        let cycles = duration.as_millis() / period_ms;
        let jitter_ms = r.gen_range(0..period_ms);
        let home = r.gen_range(0..ROOMS);
        let roams = r.gen::<f64>() < 0.3;
        let away = r.gen_range(0..ROOMS);
        let switch = r.gen_range(cycles / 3..2 * cycles / 3);
        // With 60 s reports and a 600 s freshness bound, the size-8 seal
        // fires first: the batch fills (~7 min) before the oldest report
        // ages out, so bursts run near max_batch.
        let mut uplink = BatchingTransport::new(
            WifiTransport::new(0.97, SimDuration::from_millis(80)),
            MAX_BATCH,
            SimDuration::from_secs(600),
        )
        .with_backoff(SimDuration::from_secs(60))
        .with_ack_loss(0.05);
        let mut deliveries = Vec::new();
        for k in 0..cycles {
            let room = if roams && k >= switch { away } else { home };
            let at = SimTime::from_millis(k * period_ms + jitter_ms);
            let report = ObservationReport {
                device: DeviceId::new(i as u32),
                seq: k,
                at,
                beacons: vec![SightedBeacon {
                    identity: BeaconIdentity {
                        uuid: ProximityUuid::example(),
                        major: Major::new(1),
                        minor: Minor::new(room),
                    },
                    distance_m: r.gen_range(0.5..3.0),
                }],
            };
            deliveries.extend(uplink.offer(at, report, &mut r));
        }
        let mut t = SimTime::ZERO + duration;
        deliveries.extend(uplink.flush(t, &mut r));
        while uplink.pending() > 0 && t < end {
            t += SimDuration::from_secs(60);
            deliveries.extend(uplink.flush_due(t, &mut r));
        }
        let timeline = UsageTimeline {
            duration: span,
            scan_active: duration,
            transport_events: uplink.telemetry().transport_events(),
        };
        let profile = PowerProfile::galaxy_s3_mini();
        DeviceRun {
            period: SimDuration::from_millis(period_ms),
            offered: uplink.offered(),
            delivered: uplink.delivered_reports(),
            dropped: uplink.dropped(),
            retransmits: uplink.retransmits(),
            burst_sizes: uplink
                .telemetry()
                .histogram(keys::NET_BATCH_SIZE)
                .cloned()
                .unwrap_or_default(),
            pending: uplink.pending() as u64,
            batched_mj: account(&profile, &timeline, UplinkArchitecture::Batched).total_mj(),
            always_on_mj: account(&profile, &timeline, UplinkArchitecture::Wifi).total_mj(),
            deliveries,
        }
    });
    let mut offered = 0u64;
    let mut delivered = 0u64;
    let mut dropped = 0u64;
    let mut retransmits = 0u64;
    let mut burst_sizes = Histogram::default();
    let mut undelivered = 0u64;
    let mut batched_energy_mj = 0.0f64;
    let mut always_on_energy_mj = 0.0f64;
    let mut stream: Vec<Delivery> = Vec::new();
    let mut periods: Vec<SimDuration> = Vec::with_capacity(devices);
    for run in runs {
        periods.push(run.period);
        offered += run.offered;
        delivered += run.delivered;
        dropped += run.dropped;
        retransmits += run.retransmits;
        burst_sizes.merge(&run.burst_sizes);
        undelivered += run.pending;
        batched_energy_mj += run.batched_mj;
        always_on_energy_mj += run.always_on_mj;
        stream.extend(run.deliveries);
    }
    stream.sort_by_key(|d| (d.at, d.report.device, d.report.seq));
    let generate_secs = generate_start.elapsed().as_secs_f64();

    // Phase 2: chunked ingestion into the sharded fleet and the single
    // reference server, with a checkpoint, a crash, and a journal replay
    // along the way. The journal is the delivered stream itself (dupes and
    // all), so replay reproduces the exact pre-crash state.
    let chunk_size = stream.len().div_ceil(CHUNKS).max(1);
    let chunks: Vec<Vec<ObservationReport>> = stream
        .chunks(chunk_size)
        .map(|c| c.iter().map(|d| d.report.clone()).collect())
        .collect();
    let fleet_estimator: Arc<dyn roomsense_net::OccupancyEstimator> =
        Arc::new(|r: &ObservationReport| {
            r.beacons.first().map(|b| b.identity.minor.value() as usize)
        });
    let mut fleet =
        ShardedBmsServer::new(Arc::clone(&fleet_estimator), shards).with_retention(retention);
    let single = ShardedBmsServer::new(Arc::clone(&fleet_estimator), 1).with_retention(retention);
    let mut checkpoint: Option<roomsense_net::ShardedBmsCheckpoint> = None;
    let mut journal_start = 0usize;
    let mut peak_retained = 0usize;
    let mut recovered_reports = 0usize;
    let mut restore_digest_match = true;
    let ingest_start = Instant::now();
    for (idx, chunk) in chunks.iter().enumerate() {
        if idx == CRASH_CHUNK {
            if let Some(snapshot) = &checkpoint {
                let pre_crash = fleet.state_digest();
                fleet = ShardedBmsServer::restore(Arc::clone(&fleet_estimator), snapshot.clone())
                    .expect("untampered checkpoint");
                for replay in &chunks[journal_start..idx] {
                    recovered_reports += replay.len();
                    fleet.ingest_all(replay.clone());
                }
                restore_digest_match = fleet.state_digest() == pre_crash;
            }
        }
        if idx == CHECKPOINT_CHUNK {
            checkpoint = Some(fleet.checkpoint());
            journal_start = idx;
        }
        fleet.ingest_all(chunk.clone());
        for report in chunk {
            single.ingest(report.clone());
        }
        peak_retained = peak_retained.max(fleet.report_count());
    }
    let ingest_secs = ingest_start.elapsed().as_secs_f64();

    // Phase 3: merged cross-shard queries, equivalence, and telemetry.
    let query_start = Instant::now();
    let mut history_rooms_probed = 0usize;
    let history_probes = 40u64;
    for j in 0..history_probes {
        let at = SimTime::from_millis(j * span.as_millis() / history_probes);
        history_rooms_probed += fleet.occupancy_at(at).len();
    }
    let view = fleet.occupancy_view(end, ttl);
    let query_micros =
        query_start.elapsed().as_secs_f64() * 1e6 / (history_probes as f64 + 1.0);
    let early = fleet.occupancy_at_checked(SimTime::from_secs(100));
    let stats = single.stats();
    let mut recorder = fleet.telemetry_snapshot();
    recorder.set_gauge(keys::BMS_REPORTS_RETAINED_PEAK, peak_retained as f64);

    let fingerprint = ScaleFingerprint {
        devices,
        shards,
        offered,
        delivered,
        retransmits,
        dropped,
        undelivered,
        bursts: burst_sizes.count(),
        mean_batch_size: burst_sizes.mean().unwrap_or(0.0),
        stored: stats.reports_stored,
        duplicates: stats.reports_duplicate,
        peak_retained,
        retained_cap: retention_cap(retention, periods),
        final_retained: fleet.report_count(),
        compacted: fleet.compacted_entries(),
        recovered_reports,
        digests_match: fleet.state_digest() == single.state_digest(),
        restore_digest_match,
        early_query_complete: early.complete,
        history_rooms_probed,
        occupied_rooms: view.rooms.len(),
        occupants: view.rooms.values().map(|p| p.occupants).sum(),
        batched_energy_mj,
        always_on_energy_mj,
        telemetry_checksum: recorder.checksum(),
    };
    let timings = ScaleTimings {
        generate_secs,
        ingest_secs,
        ingest_reports_per_sec: if ingest_secs > 0.0 {
            stream.len() as f64 / ingest_secs
        } else {
            0.0
        },
        query_micros,
    };
    ScaleResult {
        fingerprint,
        timings,
    }
}

/// The deterministic half of one [`ExperimentCtx::overload`] run — a pure
/// function of `(seed, devices, shards)` at any `ROOMSENSE_THREADS`, so
/// the `repro overload` checksum hashes exactly this.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadFingerprint {
    /// Synthetic fleet size across both buildings.
    pub devices: usize,
    /// Shards per building's [`IngestTier`](roomsense_net::IngestTier).
    pub shards: usize,
    /// Reports generated by the fleet (trickle + surge schedules).
    pub offered: u64,
    /// Offers admitted into a mailbox (equals `offered` after the drain:
    /// nothing is ever dropped).
    pub admitted: u64,
    /// Offer attempts answered `Backpressured` — each one costs the
    /// client exactly one deferred retry, so this is also the retry
    /// count.
    pub shed: u64,
    /// Admission-gate pause events across both buildings.
    pub pauses: u64,
    /// Deepest any client-side retry queue grew during the surge.
    pub max_client_queue: usize,
    /// Deepest any shard mailbox grew — must stay `<= mailbox_capacity`.
    pub peak_mailbox_depth: usize,
    /// The configured per-shard mailbox bound.
    pub mailbox_capacity: usize,
    /// Event-loop ticks until every mailbox and client queue drained.
    pub ticks_to_drain: u64,
    /// Campus queries answered at `Exact` service level.
    pub exact_queries: u64,
    /// Campus queries answered at `Degraded` (stale-but-consistent)
    /// service level — the surge must force at least one.
    pub degraded_queries: u64,
    /// Every sampled query (degraded included) matched the prefix
    /// oracle's digest, and every lagging shard's rooms were marked
    /// stale.
    pub degraded_consistent: bool,
    /// Post-drain, each building's tier digest equals its unthrottled
    /// single-server oracle digest.
    pub digests_match: bool,
    /// The federation's campus digest after the drain.
    pub campus_digest: u64,
    /// Devices visible in the final campus view (one room each).
    pub occupants: usize,
    /// Checksum of the merged campus telemetry.
    pub telemetry_checksum: u64,
}

impl OverloadFingerprint {
    /// Whether resident mailbox state stayed under the configured bound.
    pub fn memory_bounded(&self) -> bool {
        self.peak_mailbox_depth <= self.mailbox_capacity
    }
}

/// Wall-clock measurements from one [`ExperimentCtx::overload`] run —
/// machine-dependent, never checksummed.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadTimings {
    /// Seconds generating the fleet's report schedules.
    pub generate_secs: f64,
    /// Seconds running the tick loop (offer/pump/query/drain).
    pub run_secs: f64,
    /// Reports admitted per wall-clock second through the event loop.
    pub admitted_per_sec: f64,
}

/// Everything `repro overload` prints.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadResult {
    /// The deterministic, checksummable half.
    pub fingerprint: OverloadFingerprint,
    /// The wall-clock half (never checksummed).
    pub timings: OverloadTimings,
}

/// The overload/admission-control bench (the `repro overload` arm): a
/// two-building campus federation driven past capacity by a lecture-hall
/// surge, proving the ingestion tier sheds load without ever dropping or
/// corrupting a report.
///
/// Two buildings share a [`CampusFederation`](roomsense_net::CampusFederation):
/// a lecture **hall** holding two thirds of the fleet and a quiet
/// **library** with the rest. Every device trickles a report each 60 s;
/// between minutes 10 and 15 a lecture change packs the hall and its
/// devices report every 5 s — far past the tier's drain rate, so
/// mailboxes fill, admission gates pause, and offers come back
/// [`Backpressured`](roomsense_net::Admission::Backpressured). Clients
/// park refused reports in bounded retry queues with exponential backoff
/// (1→16 tick cap) and re-offer later; nothing is dropped anywhere.
///
/// Three oracles pin the semantics:
///
/// * an **unthrottled single server** per building ingests each report
///   the moment it is admitted — post-drain, every tier digest must
///   equal its oracle's (exact recovery, sharded == single);
/// * a **prefix mirror** per building replays exactly the pumped prefix
///   into its own sharded server — at every sampled query the tier's
///   digest must equal the mirror's, proving degraded answers are the
///   *consistent already-ingested prefix*, stale but never wrong;
/// * every lagging shard's rooms must read `fresh == 0` in a degraded
///   view, and the quiet library must stay `Exact` throughout.
///
/// Deterministic at any `ROOMSENSE_THREADS`: schedules come from
/// [`rng::for_indexed`] streams under [`exec::par_map_indexed`], and the
/// event loop itself is a sequential virtual-time tick loop.
fn overload_impl(seed: u64, devices: usize, shards: usize) -> OverloadResult {
    use rand::Rng;
    use roomsense_ibeacon::{BeaconIdentity, Major, ProximityUuid};
    use roomsense_net::{
        Admission, CampusFederation, IngestTier, IngestTierConfig, ServiceLevel, ShardedBmsServer,
    };
    use std::collections::VecDeque;
    use std::time::Instant;

    const TICK_MS: u64 = 5_000;
    const TRICKLE_PERIOD_MS: u64 = 60_000;
    const SURGE_PERIOD_MS: u64 = 5_000;
    const SURGE_START_MS: u64 = 600_000;
    const SURGE_END_MS: u64 = 900_000;
    const RUN_MS: u64 = 1_800_000;
    const QUERY_EVERY_TICKS: u64 = 12;
    const MAX_TICKS: u64 = 10_000;
    const BACKOFF_CAP_TICKS: u64 = 16;
    const BUILDINGS: [&str; 2] = ["hall", "library"];

    let config = IngestTierConfig {
        mailbox_capacity: 128,
        service_rate: 4,
        admit_high: 96,
        admit_low: 16,
    };
    let ttl = SimDuration::from_secs(300);
    let building_of = |i: usize| usize::from(i % 3 == 2); // 0 = hall, 1 = library

    // Phase 1: per-device report schedules. Hall devices swap their 60 s
    // trickle for a 5 s surge stream inside the lecture-change window and
    // converge on two packed halls; the library never surges.
    let generate_start = Instant::now();
    let indices: Vec<u64> = (0..devices as u64).collect();
    let schedules = exec::par_map_indexed(&indices, |i, _| {
        let mut r = rng::for_indexed(seed, "overload-device", i as u64);
        let building = building_of(i);
        let trickle_jitter = r.gen_range(0..TRICKLE_PERIOD_MS);
        let surge_jitter = r.gen_range(0..SURGE_PERIOD_MS);
        let home: u16 = if building == 0 {
            (i % 4) as u16
        } else {
            8 + (i % 4) as u16
        };
        let packed: u16 = (i % 2) as u16;
        let mut stamps: Vec<(u64, u16)> = Vec::new();
        let mut t = trickle_jitter;
        while t < RUN_MS {
            let in_surge = (SURGE_START_MS..SURGE_END_MS).contains(&t);
            if !(building == 0 && in_surge) {
                stamps.push((t, home));
            }
            t += TRICKLE_PERIOD_MS;
        }
        if building == 0 {
            let mut s = SURGE_START_MS + surge_jitter;
            while s < SURGE_END_MS {
                stamps.push((s, packed));
                s += SURGE_PERIOD_MS;
            }
        }
        stamps.sort_unstable();
        stamps
            .into_iter()
            .enumerate()
            .map(|(seq, (at_ms, room))| ObservationReport {
                device: DeviceId::new(i as u32),
                seq: seq as u64,
                at: SimTime::from_millis(at_ms),
                beacons: vec![SightedBeacon {
                    identity: BeaconIdentity {
                        uuid: ProximityUuid::example(),
                        major: Major::new(1),
                        minor: Minor::new(room),
                    },
                    distance_m: 1.5,
                }],
            })
            .collect::<Vec<_>>()
    });
    let offered: u64 = schedules.iter().map(|s| s.len() as u64).sum();
    let generate_secs = generate_start.elapsed().as_secs_f64();

    // Phase 2: the campus, its oracles, and the prefix mirrors.
    let estimator: Arc<dyn roomsense_net::OccupancyEstimator> =
        Arc::new(|r: &ObservationReport| {
            r.beacons.first().map(|b| b.identity.minor.value() as usize)
        });
    let mut campus = CampusFederation::new();
    for name in BUILDINGS {
        campus.add_building(
            name,
            IngestTier::new(ShardedBmsServer::new(Arc::clone(&estimator), shards), config),
        );
    }
    let oracles: Vec<ShardedBmsServer> = (0..BUILDINGS.len())
        .map(|_| ShardedBmsServer::new(Arc::clone(&estimator), 1))
        .collect();
    // The mirror re-implements the tier's drain schedule independently:
    // per-shard FIFOs fed on admission, popped `service_rate` at a time in
    // shard order, bulk-ingested into a second sharded server. If the
    // tier's visible state ever differs from the mirror's, a shed or a
    // pump corrupted something.
    let mirrors: Vec<ShardedBmsServer> = (0..BUILDINGS.len())
        .map(|_| ShardedBmsServer::new(Arc::clone(&estimator), shards))
        .collect();
    let mut mirror_boxes: Vec<Vec<VecDeque<ObservationReport>>> =
        vec![vec![VecDeque::new(); mirrors[0].shard_count()]; BUILDINGS.len()];

    struct Client {
        building: usize,
        schedule: Vec<ObservationReport>,
        next_scheduled: usize,
        queue: VecDeque<ObservationReport>,
        next_attempt: u64,
        backoff: u64,
    }
    let mut clients: Vec<Client> = schedules
        .into_iter()
        .enumerate()
        .map(|(i, schedule)| Client {
            building: building_of(i),
            schedule,
            next_scheduled: 0,
            queue: VecDeque::new(),
            next_attempt: 0,
            backoff: 1,
        })
        .collect();

    // Phase 3: the sequential virtual-time event loop.
    let run_start = Instant::now();
    let mut admitted = 0u64;
    let mut shed = 0u64;
    let mut max_client_queue = 0usize;
    let mut degraded_consistent = true;
    let mut ticks = 0u64;
    loop {
        let now = SimTime::from_millis(ticks * TICK_MS);
        let mut idle = true;
        for client in &mut clients {
            while client
                .schedule
                .get(client.next_scheduled)
                .is_some_and(|r| r.at <= now)
            {
                client.queue.push_back(client.schedule[client.next_scheduled].clone());
                client.next_scheduled += 1;
            }
            if client.next_scheduled < client.schedule.len() || !client.queue.is_empty() {
                idle = false;
            }
            max_client_queue = max_client_queue.max(client.queue.len());
            if client.queue.is_empty() || client.next_attempt > ticks {
                continue;
            }
            while let Some(report) = client.queue.front() {
                match campus.offer(BUILDINGS[client.building], now, report.clone()) {
                    Admission::Admitted => {
                        admitted += 1;
                        oracles[client.building].ingest(report.clone());
                        let shard = mirrors[client.building].shard_of(report.device);
                        mirror_boxes[client.building][shard].push_back(report.clone());
                        client.queue.pop_front();
                        client.backoff = 1;
                    }
                    Admission::Backpressured => {
                        shed += 1;
                        client.next_attempt = ticks + client.backoff;
                        client.backoff = (client.backoff * 2).min(BACKOFF_CAP_TICKS);
                        break;
                    }
                }
            }
        }
        campus.pump();
        for (mirror, boxes) in mirrors.iter().zip(&mut mirror_boxes) {
            let mut batch = Vec::new();
            for fifo in boxes.iter_mut() {
                for _ in 0..config.service_rate {
                    match fifo.pop_front() {
                        Some(report) => batch.push(report),
                        None => break,
                    }
                }
            }
            if !batch.is_empty() {
                mirror.ingest_all(batch);
            }
        }
        ticks += 1;
        if ticks.is_multiple_of(QUERY_EVERY_TICKS) {
            let view = campus.campus_view(now, ttl);
            // Stale, never wrong: the tier's visible state is exactly the
            // pumped prefix, lagging shards read stale, and the quiet
            // library never degrades.
            for (b, (_, leveled)) in view.buildings.iter().enumerate() {
                let tier = campus.building(BUILDINGS[b]).expect("registered");
                degraded_consistent &= tier.state_digest() == mirrors[b].state_digest();
                if leveled.level == ServiceLevel::Degraded {
                    degraded_consistent &= leveled.lagging_shards > 0;
                }
            }
            degraded_consistent &= view.buildings[1].1.level == ServiceLevel::Exact;
        }
        if idle && campus.backlog() == 0 {
            break;
        }
        assert!(ticks < MAX_TICKS, "overload event loop failed to drain");
    }
    let end = SimTime::from_millis(ticks * TICK_MS);

    // Phase 4: exact recovery and the campus-wide answer.
    let final_view = campus.campus_view(end, ttl);
    let digests_match = BUILDINGS.iter().enumerate().all(|(b, name)| {
        campus.building(name).expect("registered").state_digest() == oracles[b].state_digest()
    });
    degraded_consistent &= final_view.level == ServiceLevel::Exact;
    let peak_mailbox_depth = BUILDINGS
        .iter()
        .map(|name| campus.building(name).expect("registered").peak_mailbox_depth())
        .max()
        .unwrap_or(0);
    let (pauses, exact_queries, degraded_queries) =
        BUILDINGS.iter().fold((0, 0, 0), |(p, e, d), name| {
            let tier = campus.building(name).expect("registered");
            (
                p + tier.pauses(),
                e + tier.exact_queries(),
                d + tier.degraded_queries(),
            )
        });
    let run_secs = run_start.elapsed().as_secs_f64();

    let fingerprint = OverloadFingerprint {
        devices,
        shards,
        offered,
        admitted,
        shed,
        pauses,
        max_client_queue,
        peak_mailbox_depth,
        mailbox_capacity: config.mailbox_capacity,
        ticks_to_drain: ticks,
        exact_queries,
        degraded_queries,
        degraded_consistent,
        digests_match,
        campus_digest: campus.campus_digest(),
        occupants: final_view.occupants(),
        telemetry_checksum: campus.telemetry_snapshot().checksum(),
    };
    let timings = OverloadTimings {
        generate_secs,
        run_secs,
        admitted_per_sec: if run_secs > 0.0 {
            admitted as f64 / run_secs
        } else {
            0.0
        },
    };
    OverloadResult {
        fingerprint,
        timings,
    }
}

/// One row of the [`ExperimentCtx::archive`] durability matrix: what one
/// crash-and-recover run under one disk-fault mode found. Every field is
/// deterministic for a fixed `(seed, devices, shards)` at any
/// `ROOMSENSE_THREADS`.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchiveScenarioRow {
    /// Scenario tag: `clean`, `crash_mid_compaction`, `torn_tail`,
    /// `short_write`, `fsync_loss`, or `bit_rot`.
    pub name: &'static str,
    /// Segment files scanned across every shard at recovery.
    pub segments_scanned: usize,
    /// Segments truncated at a corrupt record.
    pub truncated_segments: usize,
    /// Bytes the truncations discarded.
    pub truncated_bytes: u64,
    /// Sealed footers whose recomputed count or digest disagreed.
    pub footer_mismatches: usize,
    /// Whether the recovery scan itself found nothing to repair (a lying
    /// fsync leaves a clean scan — only coverage catches it).
    pub scan_clean: bool,
    /// Whether the recovered logs still covered every record the
    /// checkpoint's archive marks promised.
    pub covered: bool,
    /// Records the marks promised that the disk no longer held.
    pub missing_records: u64,
    /// Devices whose surviving records diverged from the mark digest (a
    /// mid-log hole: later records survive but the prefix is broken).
    pub diverged_devices: u64,
    /// Records in the recovered archive after the journal replay and the
    /// post-crash tail of the stream.
    pub archive_records: u64,
    /// Journal-replay re-spills the archive's dedup window suppressed.
    pub respill_suppressed: u64,
    /// Disk fault counters for the run: short writes injected.
    pub short_writes: u64,
    /// Durable bytes flipped by bit rot.
    pub flipped_bytes: u64,
    /// fsyncs that lied (claimed success without persisting).
    pub lost_fsyncs: u64,
    /// Crashes that kept a torn partial tail.
    pub torn_tails: u64,
    /// Recovered-and-replayed fleet digest equals the never-crashed
    /// archived oracle's (expected exactly when `covered`).
    pub digest_match: bool,
    /// Live occupancy table equals the unbounded oracle's (always
    /// expected: checkpoint + journal replay is exact above the floor).
    pub live_occupancy_match: bool,
    /// Historical probes issued across the run's span.
    pub probes: usize,
    /// Probes answered complete **and** equal to the unbounded oracle.
    pub exact_probes: usize,
    /// Probes answered incomplete (below the post-loss historical floor).
    pub flagged_probes: usize,
    /// A probe was answered complete but *wrong* — the one outcome the
    /// design forbids. Expected `false` in every scenario.
    pub silent_loss: bool,
    /// Checksum of the recovered fleet's merged telemetry.
    pub telemetry_checksum: u64,
}

/// The deterministic half of one [`ExperimentCtx::archive`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchiveFingerprint {
    /// Synthetic fleet size.
    pub devices: usize,
    /// Shards (and therefore per-shard segment logs).
    pub shards: usize,
    /// Reports in the generated stream (identical in every scenario).
    pub reports_per_scenario: u64,
    /// One row per fault scenario, in a fixed order.
    pub scenarios: Vec<ArchiveScenarioRow>,
}

impl ArchiveFingerprint {
    /// No scenario ever answered a historical query complete-but-wrong.
    pub fn no_silent_loss(&self) -> bool {
        self.scenarios.iter().all(|s| !s.silent_loss)
    }

    /// Every covered recovery converged bit-for-bit with the
    /// never-crashed oracle and answered every probe exactly.
    pub fn covered_scenarios_exact(&self) -> bool {
        self.scenarios
            .iter()
            .filter(|s| s.covered)
            .all(|s| s.digest_match && s.exact_probes == s.probes)
    }

    /// Every lossy recovery reported the loss: coverage failed **and**
    /// below-floor probes came back flagged incomplete.
    pub fn lossy_scenarios_flagged(&self) -> bool {
        self.scenarios
            .iter()
            .filter(|s| !s.covered)
            .all(|s| s.flagged_probes > 0 && !s.digest_match)
    }

    /// Checkpoint + journal replay restored the live table in every
    /// scenario, covered or not.
    pub fn live_state_always_exact(&self) -> bool {
        self.scenarios.iter().all(|s| s.live_occupancy_match)
    }

    /// Each fault scenario actually injected its fault: the matrix never
    /// silently degrades into six clean runs.
    pub fn faults_exercised(&self) -> bool {
        let row = |name: &str| self.scenarios.iter().find(|s| s.name == name);
        row("torn_tail").is_some_and(|s| s.torn_tails > 0)
            && row("short_write").is_some_and(|s| s.short_writes > 0)
            && row("fsync_loss").is_some_and(|s| s.lost_fsyncs > 0)
            && row("bit_rot").is_some_and(|s| s.flipped_bytes > 0)
    }
}

/// Wall-clock measurements from one [`ExperimentCtx::archive`] run —
/// machine-dependent, never checksummed.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchiveTimings {
    /// Seconds spent generating the synthetic stream.
    pub generate_secs: f64,
    /// Seconds spent running all crash/recover scenarios.
    pub run_secs: f64,
}

/// Everything `repro archive` prints.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchiveResult {
    /// The deterministic, checksummable half.
    pub fingerprint: ArchiveFingerprint,
    /// The wall-clock half.
    pub timings: ArchiveTimings,
}

/// The crash-safe tiered-retention gate (the `repro archive` arm): one
/// synthetic fleet streamed into a sharded, retention-compacting BMS whose
/// evicted reports spill to per-shard segment logs on a fault-injected
/// [`SimDisk`](roomsense_sim::SimDisk), crashed mid-run and recovered from
/// checkpoint + segment scan + journal replay, once per disk-fault mode:
///
/// * **clean** — checkpoint immediately before the crash; everything
///   durable; recovery must be exact.
/// * **crash_mid_compaction** — crash four chunks past the checkpoint with
///   an un-fsynced active-segment tail; the tail is cleanly dropped and
///   the journal replay re-derives it (the archive's dedup window
///   suppresses re-spills of records that did survive).
/// * **torn_tail** — the crash keeps a seeded partial prefix of the
///   volatile tail, tearing mid-record; recovery truncates at the first
///   corrupt frame and replay re-derives the rest.
/// * **short_write** — pre-checkpoint appends silently lose a suffix;
///   the scan catches the corrupt frame *inside* the durable region, so
///   coverage against the checkpoint marks fails and the fleet degrades
///   to lossy (flagged) history.
/// * **fsync_loss** — every fsync lies; the crash wipes the logs yet the
///   scan is *clean*, and only mark verification exposes the loss.
/// * **bit_rot** — a durable byte of the checkpoint-flushed active
///   segment flips after the flush; scan truncates mid-durable-region,
///   coverage fails, history is flagged.
///
/// Two oracles bound every scenario: a never-crashed fleet with the same
/// retention + archives (state digests, archive marks included, must match
/// whenever coverage holds) and an unbounded single server (every
/// `complete` historical answer must equal it — an answer may be missing,
/// never silently wrong).
fn archive_impl(seed: u64, devices: usize, shards: usize) -> ArchiveResult {
    use rand::Rng;
    use roomsense_ibeacon::{BeaconIdentity, Major, ProximityUuid};
    use roomsense_net::{ArchiveConfig, ShardedBmsServer};
    use roomsense_sim::{DiskFaultPlan, FaultSchedule, FaultWindow, SharedDisk, SimDisk};
    use std::time::Instant;

    const ROOMS: u16 = 10;
    const CYCLES: u64 = 60;
    const PERIOD_MS: u64 = 30_000;
    const CHUNKS: usize = 20;
    const CHECKPOINT_CHUNK: usize = 12;
    const CRASH_CHUNK: usize = 16;
    let retention = SimDuration::from_secs(300);
    let span = SimDuration::from_millis(CYCLES * PERIOD_MS); // 1800 s

    // Phase 1: one synthetic stream, reused by every scenario. Per-device
    // RNG streams keep it identical at any thread count.
    let generate_start = Instant::now();
    let indices: Vec<u64> = (0..devices as u64).collect();
    let mut reports: Vec<ObservationReport> = exec::par_map_indexed(&indices, |i, _| {
        let mut r = rng::for_indexed(seed, "archive-device", i as u64);
        let jitter_ms = r.gen_range(0..PERIOD_MS);
        let home = r.gen_range(0..ROOMS);
        let away = r.gen_range(0..ROOMS);
        let switch = r.gen_range(CYCLES / 3..2 * CYCLES / 3);
        (0..CYCLES)
            .map(|k| {
                let room = if k >= switch { away } else { home };
                ObservationReport {
                    device: DeviceId::new(i as u32),
                    seq: k,
                    at: SimTime::from_millis(k * PERIOD_MS + jitter_ms),
                    beacons: vec![SightedBeacon {
                        identity: BeaconIdentity {
                            uuid: ProximityUuid::example(),
                            major: Major::new(1),
                            minor: Minor::new(room),
                        },
                        distance_m: r.gen_range(0.5..3.0),
                    }],
                }
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();
    reports.sort_by_key(|r| (r.at, r.device, r.seq));
    let chunk_size = reports.len().div_ceil(CHUNKS).max(1);
    let chunks: Vec<Vec<ObservationReport>> = reports
        .chunks(chunk_size)
        .map(|c| c.to_vec())
        .collect();
    let generate_secs = generate_start.elapsed().as_secs_f64();

    let estimator = || -> Arc<dyn roomsense_net::OccupancyEstimator> {
        Arc::new(|r: &ObservationReport| {
            r.beacons.first().map(|b| b.identity.minor.value() as usize)
        })
    };
    let window = |from_s: u64, to_s: u64| {
        FaultSchedule::new(vec![FaultWindow::new(
            SimTime::from_secs(from_s),
            SimTime::from_secs(to_s),
        )])
    };

    // The fault matrix. Window times are anchored to the stream: the
    // checkpoint lands near 1080 s (chunk 12 of 20 over 1800 s) and the
    // crash near 1440 s (chunk 16).
    struct Spec {
        name: &'static str,
        plan: DiskFaultPlan,
        checkpoint_chunk: usize,
    }
    let specs = [
        Spec {
            name: "clean",
            plan: DiskFaultPlan::none(),
            checkpoint_chunk: CRASH_CHUNK,
        },
        Spec {
            name: "crash_mid_compaction",
            plan: DiskFaultPlan::none(),
            checkpoint_chunk: CHECKPOINT_CHUNK,
        },
        Spec {
            name: "torn_tail",
            plan: DiskFaultPlan {
                torn_write: window(0, 3600),
                ..DiskFaultPlan::none()
            },
            checkpoint_chunk: CHECKPOINT_CHUNK,
        },
        Spec {
            name: "short_write",
            // Pre-checkpoint appends lose a suffix: durable corruption the
            // checkpoint marks still promise.
            plan: DiskFaultPlan {
                short_write: window(400, 700),
                ..DiskFaultPlan::none()
            },
            checkpoint_chunk: CHECKPOINT_CHUNK,
        },
        Spec {
            name: "fsync_loss",
            plan: DiskFaultPlan {
                fsync_loss: window(0, 3600),
                ..DiskFaultPlan::none()
            },
            checkpoint_chunk: CHECKPOINT_CHUNK,
        },
        Spec {
            name: "bit_rot",
            // Active for the whole run. Rot only bites where a file has a
            // durable prefix to corrupt — the checkpoint-flushed active
            // segment — so every flip lands in mark-covered data.
            plan: DiskFaultPlan {
                bit_rot: window(0, 3600),
                ..DiskFaultPlan::none()
            },
            checkpoint_chunk: CHECKPOINT_CHUNK,
        },
    ];

    let run_start = Instant::now();
    let config = ArchiveConfig {
        segment_records: 32,
        ..ArchiveConfig::default()
    };
    let probes = 40usize;
    let mut scenarios = Vec::with_capacity(specs.len());
    for (idx, spec) in specs.into_iter().enumerate() {
        let disk = SharedDisk::new(
            SimDisk::new(seed.wrapping_add(idx as u64)).with_fault_plan(spec.plan),
        );
        let fleet = ShardedBmsServer::new(estimator(), shards)
            .with_retention(retention)
            .with_archives(disk.clone(), config.clone());
        // Oracle A: the same fleet shape on a pristine disk, never crashed.
        let oracle_disk = SharedDisk::new(SimDisk::pristine(seed.wrapping_add(1000 + idx as u64)));
        let oracle = ShardedBmsServer::new(estimator(), shards)
            .with_retention(retention)
            .with_archives(oracle_disk, config.clone());
        // Oracle B: an unbounded single server — historical ground truth.
        let unbounded = ShardedBmsServer::new(estimator(), 1);
        for chunk in &chunks {
            oracle.ingest_all(chunk.clone());
            for report in chunk {
                unbounded.ingest(report.clone());
            }
        }

        // Run to the crash point, checkpointing on the way.
        let mut checkpoint = None;
        let mut crash_at = SimTime::ZERO;
        for (i, chunk) in chunks.iter().take(CRASH_CHUNK).enumerate() {
            if i == spec.checkpoint_chunk {
                checkpoint = Some(fleet.checkpoint());
            }
            fleet.ingest_all(chunk.clone());
            if let Some(last) = chunk.last() {
                crash_at = crash_at.max(last.at);
            }
        }
        if spec.checkpoint_chunk == CRASH_CHUNK {
            checkpoint = Some(fleet.checkpoint());
        }
        let snapshot = checkpoint.expect("checkpoint chunk inside the run");

        // Crash: the fleet's memory is gone; the disk keeps only what an
        // fsync truly persisted (plus a seeded torn tail while that
        // schedule is active).
        drop(fleet);
        disk.crash(crash_at);
        let (restored, recovery, coverage) = ShardedBmsServer::restore_with_archives(
            estimator(),
            snapshot,
            disk.clone(),
            config.clone(),
        )
        .expect("untampered checkpoints");
        // Journal replay: everything delivered since the checkpoint, then
        // the rest of the stream.
        for chunk in &chunks[spec.checkpoint_chunk..CRASH_CHUNK] {
            restored.ingest_all(chunk.clone());
        }
        for chunk in &chunks[CRASH_CHUNK..] {
            restored.ingest_all(chunk.clone());
        }

        // Probe the whole span against the unbounded oracle: complete
        // answers must be exact; loss must surface as `complete: false`.
        let mut exact_probes = 0usize;
        let mut flagged_probes = 0usize;
        let mut silent_loss = false;
        for j in 0..probes as u64 {
            let at = SimTime::from_millis(j * span.as_millis() / probes as u64);
            let answer = restored.occupancy_at_checked(at);
            if !answer.complete {
                flagged_probes += 1;
            } else if answer.value == unbounded.occupancy_at(at) {
                exact_probes += 1;
            } else {
                silent_loss = true;
            }
        }

        let stats = restored.archive_stats().expect("archives attached");
        let disk_stats = disk.stats();
        scenarios.push(ArchiveScenarioRow {
            name: spec.name,
            segments_scanned: recovery.segments,
            truncated_segments: recovery.truncated_segments,
            truncated_bytes: recovery.truncated_bytes,
            footer_mismatches: recovery.footer_mismatches,
            scan_clean: recovery.clean(),
            covered: coverage.covered,
            missing_records: coverage.missing_records,
            diverged_devices: coverage.diverged_devices,
            archive_records: stats.records,
            respill_suppressed: stats.respill_suppressed,
            short_writes: disk_stats.short_writes,
            flipped_bytes: disk_stats.flipped_bytes,
            lost_fsyncs: disk_stats.lost_fsyncs,
            torn_tails: disk_stats.torn_tails,
            digest_match: restored.state_digest() == oracle.state_digest(),
            live_occupancy_match: restored.occupancy() == unbounded.occupancy(),
            probes,
            exact_probes,
            flagged_probes,
            silent_loss,
            telemetry_checksum: restored.telemetry_snapshot().checksum(),
        });
    }
    let run_secs = run_start.elapsed().as_secs_f64();

    ArchiveResult {
        fingerprint: ArchiveFingerprint {
            devices,
            shards,
            reports_per_scenario: reports.len() as u64,
            scenarios,
        },
        timings: ArchiveTimings {
            generate_secs,
            run_secs,
        },
    }
}

/// One preset × condition cell of the crowd-counting sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CountingCell {
    /// The crowd preset's stable name (`open_plan_office`, …).
    pub preset: &'static str,
    /// `clean`, `chaos` (uplink outages), or `overload` (bounded mailboxes).
    pub condition: &'static str,
    /// People in the building, carriers or not.
    pub subjects: usize,
    /// Subjects actually carrying a reporting device.
    pub carriers: usize,
    /// Observation reports the condition delivered.
    pub reports: usize,
    /// Estimate probes taken over the scenario.
    pub probes: usize,
    /// Mean absolute per-room headcount error across the probes.
    pub mae: f64,
    /// The preset's declared MAE ceiling for this condition.
    pub mae_bound: f64,
    /// Ground-truth peak building population across the probes.
    pub truth_peak: usize,
    /// Estimated building population at the same probe as `truth_peak`.
    pub estimate_at_peak: f64,
    /// Probes whose building-total confidence interval covered the true
    /// carrier count.
    pub covered_probes: usize,
    /// Probes answered at [`ServiceLevel::Degraded`] (overload only).
    ///
    /// [`ServiceLevel::Degraded`]: roomsense_net::ServiceLevel
    pub degraded_probes: usize,
    /// Reports the admission gate refused at least once (overload only).
    pub shed_reports: u64,
    /// Every sharded answer was bit-identical to the single reference
    /// server fed the same delivered prefix.
    pub sharded_matches_single: bool,
    /// After every report drained, the view equals the clean oracle's at
    /// the same instant (trivially true for the clean condition itself).
    pub converged_to_clean: bool,
}

/// The deterministic content of [`CountingResult`] — everything the
/// checksum covers.
#[derive(Debug, Clone, PartialEq)]
pub struct CountingFingerprint {
    /// BMS shards behind every condition.
    pub shards: usize,
    /// Evidence window (seconds) the estimates were computed over.
    pub window_s: u64,
    /// One row per preset × condition, in [`CrowdPreset::ALL`] order.
    ///
    /// [`CrowdPreset::ALL`]: crate::CrowdPreset::ALL
    pub cells: Vec<CountingCell>,
    /// Checksum of the merged telemetry recorder (`bms.counting.*` et al).
    pub telemetry_checksum: u64,
}

impl CountingFingerprint {
    /// Every cell's MAE is within its preset's declared ceiling.
    pub fn within_bounds(&self) -> bool {
        self.cells.iter().all(|c| c.mae <= c.mae_bound)
    }

    /// Every condition's sharded answers matched the single server.
    pub fn sharded_consistent(&self) -> bool {
        self.cells.iter().all(|c| c.sharded_matches_single)
    }

    /// Every faulted condition converged to the clean oracle after drain.
    pub fn faulted_converges(&self) -> bool {
        self.cells.iter().all(|c| c.converged_to_clean)
    }

    /// The overload condition actually exercised backpressure somewhere.
    pub fn backpressure_exercised(&self) -> bool {
        self.cells
            .iter()
            .any(|c| c.condition == "overload" && c.shed_reports > 0 && c.degraded_probes > 0)
    }
}

/// Wall-clock phase timings for the counting arm (never checksummed).
#[derive(Debug, Clone, PartialEq)]
pub struct CountingTimings {
    /// Seconds spent generating traces and replaying them into reports.
    pub generate_secs: f64,
    /// Seconds spent driving the three conditions and probing estimates.
    pub run_secs: f64,
}

/// Everything the crowd-counting arm produced.
#[derive(Debug, Clone, PartialEq)]
pub struct CountingResult {
    /// The deterministic sweep content.
    pub fingerprint: CountingFingerprint,
    /// Wall-clock timings, reported but never checksummed.
    pub timings: CountingTimings,
}

/// Mean absolute per-room headcount error of one view against the
/// ground-truth occupancy vector (rooms absent from the view count as 0).
fn population_mae(view: &roomsense_net::PopulationView, truth: &[usize]) -> f64 {
    let error: f64 = truth
        .iter()
        .enumerate()
        .map(|(room, &t)| {
            let estimate = view.rooms.get(&room).map_or(0.0, |e| e.count);
            (estimate - t as f64).abs()
        })
        .sum();
    error / truth.len().max(1) as f64
}

/// Drives one delivery schedule through a sharded fleet and a single
/// reference server, probing both at each instant in `probes` and once
/// more after everything drained. Returns the probe MAEs (against the
/// ground-truth trace), whether every sharded answer matched the single
/// server's, the per-probe CI coverage count, and the fully-ingested
/// single server (the condition's oracle for later comparisons).
#[allow(clippy::type_complexity)]
fn drive_counting(
    deliveries: &[(SimTime, ObservationReport)],
    shards: usize,
    config: &roomsense_net::CountingConfig,
    probes: &[SimTime],
    trace: &crate::CrowdTrace,
) -> (
    Vec<f64>,
    bool,
    usize,
    roomsense_net::Windowed<roomsense_net::PopulationView>,
    roomsense_net::ShardedBmsServer,
) {
    use roomsense_net::ShardedBmsServer;

    let fleet_estimator: Arc<dyn roomsense_net::OccupancyEstimator> =
        Arc::new(|r: &ObservationReport| {
            r.beacons.first().map(|b| b.identity.minor.value() as usize)
        });
    let fleet = ShardedBmsServer::new(Arc::clone(&fleet_estimator), shards);
    let single = ShardedBmsServer::new(Arc::clone(&fleet_estimator), 1);
    let mut next = 0usize;
    let mut maes = Vec::with_capacity(probes.len());
    let mut matches = true;
    let mut covered = 0usize;
    for &probe in probes {
        let mut chunk = Vec::new();
        while next < deliveries.len() && deliveries[next].0 <= probe {
            chunk.push(deliveries[next].1.clone());
            next += 1;
        }
        for report in &chunk {
            single.ingest(report.clone());
        }
        fleet.ingest_all(chunk);
        let fleet_view = fleet.population_view(probe, config);
        let single_view = single.population_view(probe, config);
        matches &= fleet_view == single_view;
        maes.push(population_mae(&fleet_view.value, &trace.occupancy(probe)));
        // CI coverage is scored against the total building population:
        // `observed / carry_rate` estimates *people*, carriers or not.
        let total = fleet_view.value.rooms.values().fold(
            roomsense_net::PopulationEvidence::default(),
            |mut acc, e| {
                acc.observed += e.observed;
                acc
            },
        );
        let building = total.finalize(probe, config);
        if building.covers(trace.total_inside(probe)) {
            covered += 1;
        }
    }
    // Drain: ingest whatever was still in flight past the last probe, then
    // take the final view at the last probe instant so conditions with
    // different delivery schedules are comparable evidence-for-evidence.
    let mut tail = Vec::new();
    while next < deliveries.len() {
        tail.push(deliveries[next].1.clone());
        next += 1;
    }
    for report in &tail {
        single.ingest(report.clone());
    }
    fleet.ingest_all(tail);
    let last = *probes.last().expect("at least one probe");
    let final_fleet = fleet.population_view(last, config);
    let final_single = single.population_view(last, config);
    matches &= final_fleet == final_single;
    (maes, matches, covered, final_fleet, single)
}

fn counting_impl(
    seed: u64,
    subjects_override: Option<usize>,
    shards: usize,
    fault_plan: Option<&crate::FaultPlan>,
    base_recorder: Option<roomsense_telemetry::Recorder>,
) -> CountingResult {
    use crate::crowd::{self, CrowdPreset};
    use roomsense_net::{
        Admission, CountingConfig, IngestTier, IngestTierConfig, ServiceLevel, ShardedBmsServer,
    };
    use std::collections::VecDeque;
    use std::time::Instant;

    /// Probes per scenario: estimate quality is scored at each eighth of
    /// the duration (skipping t = 0, before anyone has reported).
    const PROBES: u64 = 8;
    /// The gateway flush interval for the overload condition: reports are
    /// delivered in per-minute bursts, the worst case for bounded
    /// mailboxes.
    const FLUSH_MS: u64 = 60_000;
    /// Event-loop tick for the overload condition.
    const TICK_MS: u64 = 5_000;
    /// Fault intensity for the derived chaos plan: heavy enough that
    /// outage windows reliably straddle estimate probes.
    const CHAOS_INTENSITY: f64 = 0.75;

    let mut recorder = base_recorder.unwrap_or_default();
    let mut cells = Vec::with_capacity(CrowdPreset::ALL.len() * 3);
    let config_window_s = CountingConfig::default().window.as_millis() / 1_000;
    let mut generate_secs = 0.0f64;
    let run_start = Instant::now();
    for preset in CrowdPreset::ALL {
        let generate_start = Instant::now();
        let scenario = match subjects_override {
            Some(subjects) => preset.scenario_with(seed, subjects),
            None => preset.scenario(seed),
        };
        let reports = crowd::replay_reports(&scenario, seed);
        let carried = crowd::carriers(&scenario, seed);
        generate_secs += generate_start.elapsed().as_secs_f64();
        let carriers = carried.iter().filter(|&&c| c).count();
        let subjects = scenario.subjects();
        let config = CountingConfig::default().with_carry_rate(scenario.carry_rate);
        let duration_ms = scenario.duration.as_millis();
        // Probes sit half a report period before each eighth of the run:
        // scoring an instantaneous census *at* a trace boundary (the
        // lecture break, the final exodus) would demand sub-report-period
        // clairvoyance no windowed estimator can have.
        let probes: Vec<SimTime> = (1..=PROBES)
            .map(|k| {
                SimTime::from_millis(
                    duration_ms * k / PROBES - scenario.report_period.as_millis() / 2,
                )
            })
            .collect();
        let truth_peak_probe = probes
            .iter()
            .copied()
            .max_by_key(|&p| scenario.trace.total_inside(p))
            .expect("at least one probe");
        let truth_peak = scenario.trace.total_inside(truth_peak_probe);

        // --- clean: every report arrives the instant it is taken -------
        let prompt_deliveries: Vec<(SimTime, ObservationReport)> =
            reports.iter().map(|r| (r.at, r.clone())).collect();
        let (clean_maes, clean_matches, clean_covered, clean_final, clean_oracle) =
            drive_counting(&prompt_deliveries, shards, &config, &probes, &scenario.trace);
        recorder.merge_child(clean_oracle.telemetry_snapshot());
        let clean_peak = clean_oracle
            .population_view(truth_peak_probe, &config)
            .value
            .estimated_total();
        cells.push(CountingCell {
            preset: preset.name(),
            condition: "clean",
            subjects,
            carriers,
            reports: reports.len(),
            probes: probes.len(),
            mae: mean(&clean_maes),
            mae_bound: scenario.mae_bounds.clean,
            truth_peak,
            estimate_at_peak: clean_peak,
            covered_probes: clean_covered,
            degraded_probes: 0,
            shed_reports: 0,
            sharded_matches_single: clean_matches,
            converged_to_clean: true,
        });

        // --- chaos: uplink outages buffer reports until the link returns
        let derived_plan;
        let outages = match fault_plan {
            Some(plan) => &plan.uplink_outages,
            None => {
                derived_plan = crate::FaultPlan::generate(
                    scenario.rooms,
                    scenario.duration,
                    CHAOS_INTENSITY,
                    seed.wrapping_add(fnv1a(preset.name())),
                );
                &derived_plan.uplink_outages
            }
        };
        let delayed = crowd::delayed_by_outages(&reports, outages);
        let (chaos_maes, chaos_matches, chaos_covered, chaos_final, _chaos_oracle) =
            drive_counting(&delayed, shards, &config, &probes, &scenario.trace);
        let chaos_converged = chaos_final == clean_final;
        cells.push(CountingCell {
            preset: preset.name(),
            condition: "chaos",
            subjects,
            carriers,
            reports: delayed.len(),
            probes: probes.len(),
            mae: mean(&chaos_maes),
            mae_bound: scenario.mae_bounds.chaos,
            truth_peak,
            estimate_at_peak: chaos_final.value.estimated_total(),
            covered_probes: chaos_covered,
            degraded_probes: 0,
            shed_reports: 0,
            sharded_matches_single: chaos_matches,
            converged_to_clean: chaos_converged,
        });

        // --- overload: per-minute gateway bursts into bounded mailboxes -
        let fleet_estimator: Arc<dyn roomsense_net::OccupancyEstimator> =
            Arc::new(|r: &ObservationReport| {
                r.beacons.first().map(|b| b.identity.minor.value() as usize)
            });
        let tier_config = IngestTierConfig {
            mailbox_capacity: 32,
            service_rate: 4,
            admit_high: 24,
            admit_low: 4,
        };
        let mut tier = IngestTier::new(
            ShardedBmsServer::new(fleet_estimator, shards),
            tier_config,
        );
        let mut pending: VecDeque<ObservationReport> = VecDeque::new();
        let mut next = 0usize;
        let mut shed_reports = 0u64;
        let mut degraded_probes = 0usize;
        let mut overload_maes = Vec::with_capacity(probes.len());
        let mut overload_covered = 0usize;
        let mut probe_i = 0usize;
        let mut tick = 1u64;
        let mut now;
        loop {
            now = SimTime::from_millis(tick * TICK_MS);
            // The gateway flushes each minute's reports as one burst.
            while next < reports.len() {
                let flushed_ms = (reports[next].at.as_millis() / FLUSH_MS + 1) * FLUSH_MS;
                if flushed_ms <= now.as_millis() {
                    pending.push_back(reports[next].clone());
                    next += 1;
                } else {
                    break;
                }
            }
            // Offer in arrival order and stop at the first refusal so
            // per-device sequencing is preserved end to end.
            while let Some(report) = pending.front() {
                match tier.offer(now, report.clone()) {
                    Admission::Admitted => {
                        pending.pop_front();
                    }
                    Admission::Backpressured => {
                        shed_reports += 1;
                        break;
                    }
                }
            }
            tier.pump();
            while probe_i < probes.len() && probes[probe_i] <= now {
                let leveled = tier.population_view(now, &config);
                if leveled.level == ServiceLevel::Degraded {
                    degraded_probes += 1;
                }
                overload_maes.push(population_mae(
                    &leveled.view.value,
                    &scenario.trace.occupancy(now),
                ));
                let total = leveled.view.value.rooms.values().fold(
                    roomsense_net::PopulationEvidence::default(),
                    |mut acc, e| {
                        acc.observed += e.observed;
                        acc
                    },
                );
                if total
                    .finalize(now, &config)
                    .covers(scenario.trace.total_inside(now))
                {
                    overload_covered += 1;
                }
                probe_i += 1;
            }
            let drained = next >= reports.len() && pending.is_empty();
            if drained && probe_i >= probes.len() {
                let leveled = tier.population_view(now, &config);
                if leveled.level == ServiceLevel::Exact {
                    break;
                }
            }
            tick += 1;
            assert!(
                tick <= 1_000_000,
                "overload drive failed to drain ({} reports pending)",
                pending.len()
            );
        }
        // Post-drain the tier holds every report the clean oracle holds:
        // queried at the same instant, the answers must be bit-identical.
        let final_leveled = tier.population_view(now, &config);
        let oracle_final = clean_oracle.population_view(now, &config);
        let overload_converged = final_leveled.level == ServiceLevel::Exact
            && final_leveled.lagging_shards == 0
            && final_leveled.view == oracle_final;
        recorder.merge_child(tier.telemetry_snapshot());
        cells.push(CountingCell {
            preset: preset.name(),
            condition: "overload",
            subjects,
            carriers,
            reports: reports.len(),
            probes: probes.len(),
            mae: mean(&overload_maes),
            mae_bound: scenario.mae_bounds.overload,
            truth_peak,
            estimate_at_peak: final_leveled.view.value.estimated_total(),
            covered_probes: overload_covered,
            degraded_probes,
            shed_reports,
            sharded_matches_single: overload_converged,
            converged_to_clean: overload_converged,
        });
    }
    let run_secs = run_start.elapsed().as_secs_f64() - generate_secs;

    CountingResult {
        fingerprint: CountingFingerprint {
            shards,
            window_s: config_window_s,
            cells,
            telemetry_checksum: recorder.checksum(),
        },
        timings: CountingTimings {
            generate_secs,
            run_secs,
        },
    }
}

/// Arithmetic mean of a non-empty slice (0 for an empty one).
fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// One cell of the positioning ablation: a distance-filter choice, with or
/// without the trilateration feature block, evaluated on the same held-out
/// walk clean and faulted.
#[derive(Debug, Clone, PartialEq)]
pub struct PositioningArmResult {
    /// Which track filter smoothed the distances.
    pub filter: FilterKind,
    /// Whether the trilateration block was appended to the features.
    pub trilateration: bool,
    /// Confusion matrix on the clean evaluation walk.
    pub clean: ConfusionMatrix,
    /// Confusion matrix on the faulted replay of the same walk.
    pub faulted: ConfusionMatrix,
}

/// The positioning-arm output: the filter × trilateration SVM ablation, the
/// proximity baseline, and the peer-relay mesh dual-outage study.
#[derive(Debug, Clone, PartialEq)]
pub struct PositioningResult {
    /// One cell per `(filter, trilateration)` combination.
    pub arms: Vec<PositioningArmResult>,
    /// The proximity baseline on the clean evaluation walk.
    pub proximity_clean: ConfusionMatrix,
    /// The proximity baseline on the faulted replay.
    pub proximity_faulted: ConfusionMatrix,
    /// Class names (rooms plus "outside").
    pub label_names: Vec<String>,
    /// Reports offered to the peer-relay mesh over the dual-outage drive.
    pub mesh_reports: u64,
    /// Distinct reports that reached the BMS by the end of the drive.
    pub mesh_delivered: u64,
    /// Reports carried out over phone-to-phone mesh hops.
    pub mesh_relayed: u64,
    /// Reports offered while BOTH direct channels were in outage.
    pub outage_reports: u64,
    /// In-outage reports the mesh eventually delivered.
    pub outage_delivered: u64,
    /// What the plain Wi-Fi→BT failover stack delivered on the same drive
    /// (its best case: no phone→phone exit path).
    pub failover_only_delivered: u64,
}

impl PositioningResult {
    /// Accuracy pair `(clean, faulted)` for one ablation cell.
    pub fn accuracy(&self, filter: FilterKind, trilateration: bool) -> Option<(f64, f64)> {
        self.arms
            .iter()
            .find(|a| a.filter == filter && a.trilateration == trilateration)
            .map(|a| (a.clean.accuracy(), a.faulted.accuracy()))
    }
}

/// Runs the positioning ablation: every filter × trilateration cell trains
/// its own SVM on its own collection walk, then all cells are evaluated on
/// one shared held-out walk — once clean and once replayed through a seeded
/// fault plan, so the accuracy gap isolates filter robustness. The mesh
/// study then drives a dual Wi-Fi+BT outage through the peer relay.
fn positioning_impl(seed: u64) -> PositioningResult {
    let scenario = Scenario::from_plan(presets::paper_house(), seed);
    let beacon_order = scenario.beacon_order();

    // One shared evaluation walk, replayed twice per cell.
    let visits: Vec<_> = scenario
        .plan()
        .rooms()
        .iter()
        .map(|room| (room.id(), SimDuration::from_secs(25)))
        .collect();
    // Three independent held-out walks (~200 rows total): one walk's ~70
    // rows make per-cell accuracies jump by several points, which is too
    // noisy to rank filters. Each walk carries its own fault plan so the
    // faulted replay stresses different outage shapes.
    let eval_walks: Vec<(RoomSchedule, SimDuration, u64, crate::FaultPlan)> = (0..3)
        .map(|walk| {
            let mut walk_rng = rng::for_indexed(seed, "positioning-eval-walk", walk);
            let schedule = RoomSchedule::generate(
                scenario.plan(),
                &visits,
                1.2,
                SimTime::ZERO,
                &mut walk_rng,
            );
            let duration = schedule.walk().duration() + SimDuration::from_secs(2);
            let eval_seed = rng::derive_seed(seed, "positioning-eval") ^ walk;
            let faults = crate::FaultPlan::generate(
                scenario.advertisers().len(),
                duration,
                0.6,
                rng::derive_seed(seed, "positioning-faults") ^ walk,
            );
            (schedule, duration, eval_seed, faults)
        })
        .collect();

    let eval_dataset = |config: &PipelineConfig, faulted: bool| -> Dataset {
        let anchors = config.position_features.then(|| scenario.beacon_anchors());
        let width = beacon_order.len()
            + if anchors.is_some() {
                POSITION_FEATURE_WIDTH
            } else {
                0
            };
        let mut data = Dataset::new(width, scenario.label_names())
            .expect("scenario always has beacons and labels");
        for (schedule, duration, eval_seed, faults) in &eval_walks {
            let records = if faulted {
                run_pipeline_faulted(
                    &scenario,
                    config,
                    schedule,
                    *duration,
                    *eval_seed,
                    faults,
                    &mut Recorder::default(),
                )
            } else {
                run_pipeline(&scenario, config, schedule, *duration, *eval_seed)
            };
            crate::collect::records_to_dataset(
                &scenario,
                &records,
                &mut data,
                &beacon_order,
                anchors.as_deref(),
            );
        }
        data
    };

    let cells: Vec<(FilterKind, bool)> = [
        FilterKind::Ewma,
        FilterKind::Kalman,
        FilterKind::Median,
        FilterKind::Bayes,
    ]
    .iter()
    .flat_map(|&filter| [(filter, false), (filter, true)])
    .collect();

    // One extra "robustness lap" for training: a third collection walk
    // replayed through an independent fault plan. Without it every cell's
    // SVM only ever sees clean features; the tighter a filter's clean
    // clusters, the thinner the learned margins and the harder they shatter
    // when the eval faults shift the features (penalising exactly the best
    // filters). The walk, plan and seeds are shared across cells.
    let robust_visits: Vec<_> = scenario
        .plan()
        .rooms()
        .iter()
        .map(|room| (room.id(), SimDuration::from_secs(30)))
        .collect();
    let mut robust_rng = rng::for_component(seed, "positioning-robust-walk");
    let robust_schedule = RoomSchedule::generate(
        scenario.plan(),
        &robust_visits,
        1.2,
        SimTime::ZERO,
        &mut robust_rng,
    );
    let robust_duration = robust_schedule.walk().duration() + SimDuration::from_secs(2);
    let train_faults = crate::FaultPlan::generate(
        scenario.advertisers().len(),
        robust_duration,
        0.6,
        rng::derive_seed(seed, "positioning-train-faults"),
    );
    let robust_seed = rng::derive_seed(seed, "positioning-robust-lap");

    // Cells are independent given the seed, so they fan out over worker
    // threads in cell order; every stream inside is derived by name.
    let arms = exec::par_map_indexed(&cells, |_, &(filter, trilateration)| {
        let config = PipelineConfig::paper_android()
            .with_filter(filter)
            .with_position_features(trilateration);
        let mut labelled =
            collect_dataset(&scenario, &config, SimDuration::from_secs(30), 4, seed);
        let robust_records = run_pipeline_faulted(
            &scenario,
            &config,
            &robust_schedule,
            robust_duration,
            robust_seed,
            &train_faults,
            &mut Recorder::default(),
        );
        let anchors = config.position_features.then(|| scenario.beacon_anchors());
        crate::collect::records_to_dataset(
            &scenario,
            &robust_records,
            &mut labelled.data,
            &labelled.beacon_order,
            anchors.as_deref(),
        );
        let model = OccupancyModel::fit(&labelled, &SvmParams::default())
            .expect("collection walk always yields a multi-class dataset");
        let clean = model.evaluate(&eval_dataset(&config, false));
        let faulted = model.evaluate(&eval_dataset(&config, true));
        PositioningArmResult {
            filter,
            trilateration,
            clean,
            faulted,
        }
    });

    // Proximity baseline on the plain EWMA features (the prior iOS work's
    // technique), over the same two evaluation captures.
    let prox_config = PipelineConfig::paper_android();
    let proximity = ProximityClassifier::new(
        scenario.beacon_room_labels(),
        scenario.outside_label(),
        MISSING_DISTANCE,
    );
    let prox_cm = |faulted: bool| {
        let data = eval_dataset(&prox_config, faulted);
        let mut cm = ConfusionMatrix::new(scenario.label_names().len());
        for (row, label) in data.rows().iter().zip(data.labels()) {
            cm.record(*label, proximity.predict(row));
        }
        cm
    };
    let proximity_clean = prox_cm(false);
    let proximity_faulted = prox_cm(true);

    // --- the peer-relay mesh drive -------------------------------------
    // Both direct channels share one outage window [60 s, 600 s) — an AP
    // and relay-beacon power cut on the same circuit. The failover router
    // alone must lose the in-window reports; the mesh hops them out via a
    // peer phone whose AP stayed up.
    let outage_from = SimTime::from_secs(60);
    let outage_until = SimTime::from_secs(600);
    let dual_outage =
        || FaultSchedule::new(vec![FaultWindow::new(outage_from, outage_until)]);
    let direct_stack = || {
        FailoverTransport::new(
            FaultyTransport::new(
                WifiTransport::new(0.99, SimDuration::from_millis(50)),
                dual_outage(),
            ),
            FaultyTransport::new(
                BtRelayTransport::new(0.95, SimDuration::from_millis(400)),
                dual_outage(),
            ),
            LinkHealthConfig::default(),
        )
    };
    let mut mesh = PeerRelayTransport::new(
        direct_stack(),
        WifiTransport::new(0.99, SimDuration::from_millis(50)),
        PeerRelayConfig::default(),
    );
    let mut failover_only = direct_stack();
    let mut mesh_rng = rng::for_component(seed, "positioning-mesh");
    let mut failover_rng = rng::for_component(seed, "positioning-failover-only");
    let total_reports = 120u64;
    let mut delivered_seqs = std::collections::BTreeSet::new();
    let mut outage_reports = 0u64;
    let mut failover_only_delivered = 0u64;
    for i in 0..total_reports {
        let at = SimTime::from_secs(i * 10);
        let report = ObservationReport {
            device: DeviceId::new(1),
            seq: i,
            at,
            beacons: vec![SightedBeacon {
                identity: roomsense_ibeacon::BeaconIdentity {
                    uuid: scenario.uuid(),
                    major: scenario.major(),
                    minor: beacon_order[0],
                },
                distance_m: 2.0,
            }],
        };
        if at >= outage_from && at < outage_until {
            outage_reports += 1;
        }
        for delivery in mesh.offer(at, report.clone(), &mut mesh_rng) {
            delivered_seqs.insert(delivery.report.seq);
        }
        if failover_only
            .send(at, &report, &mut failover_rng)
            .is_delivered()
        {
            failover_only_delivered += 1;
        }
    }
    let outage_delivered = delivered_seqs
        .iter()
        .filter(|&&seq| {
            let at = SimTime::from_secs(seq * 10);
            at >= outage_from && at < outage_until
        })
        .count() as u64;

    PositioningResult {
        arms,
        proximity_clean,
        proximity_faulted,
        label_names: scenario.label_names(),
        mesh_reports: total_reports,
        mesh_delivered: delivered_seqs.len() as u64,
        mesh_relayed: mesh.relayed(),
        outage_reports,
        outage_delivered,
        failover_only_delivered,
    }
}

// ===========================================================================
// The unified experiment API: ExperimentCtx + ExperimentReport
// ===========================================================================

/// FNV-1a over a string: the workspace's stable, dependency-free output
/// fingerprint (the same hash `repro bench` uses for its checksums).
pub fn fnv1a(s: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in s.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// FNV-1a over a value's debug formatting (prints every f64 to full
/// precision, so equal checksums mean bit-identical results).
fn checksum_of(value: &impl std::fmt::Debug) -> u64 {
    fnv1a(&format!("{value:?}"))
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
/// let result = ctx.scale();
/// assert!(result.fingerprint.digests_match);
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
    /// Worker-thread override: `Some(n)` wraps the run in
    /// [`exec::with_thread_override`]; `None` inherits `ROOMSENSE_THREADS`.
    pub threads: Option<usize>,
    /// Fault-plan override for fault-aware arms (`None` = the arm derives
    /// its own plan from the seed, exactly as the positional API did).
    pub fault_plan: Option<crate::FaultPlan>,
    /// Starting recorder for instrumented arms: they clone it and merge
    /// their metrics on top (`None` = a fresh [`Recorder`]).
    ///
    /// [`Recorder`]: roomsense_telemetry::Recorder
    pub recorder: Option<roomsense_telemetry::Recorder>,
}

impl ExperimentCtx {
    /// A context with the given seed and every knob at its default.
    pub fn new(seed: u64) -> Self {
        ExperimentCtx {
            seed,
            ..ExperimentCtx::default()
        }
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
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

    /// Forces the worker-thread count for the whole run.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "at least one worker thread is required");
        self.threads = Some(threads);
        self
    }

    /// Supplies an explicit fault plan to fault-aware arms.
    pub fn with_fault_plan(mut self, plan: crate::FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Supplies the starting recorder for instrumented arms.
    pub fn with_recorder(mut self, recorder: roomsense_telemetry::Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Runs `run` under this context's thread policy.
    fn scoped<R>(&self, run: impl FnOnce() -> R) -> R {
        match self.threads {
            Some(threads) => exec::with_thread_override(threads, run),
            None => run(),
        }
    }

    /// The Figs 4/5/6 static capture: `duration` at `distance_m` from one
    /// transmitter with the given scan period and filter coefficient.
    pub fn static_capture(
        &self,
        config: &PipelineConfig,
        distance_m: f64,
        duration: SimDuration,
    ) -> StaticCaptureResult {
        self.scoped(|| static_capture_impl(config, distance_m, duration, self.seed))
    }

    /// The Figs 7–8 dynamic walk between the two corridor transmitters.
    pub fn dynamic_walk(&self, coefficient: f64, speed_mps: f64) -> DynamicWalkResult {
        self.scoped(|| dynamic_walk_impl(coefficient, speed_mps, self.seed))
    }

    /// The Figs 7–8 coefficient sweep: stability vs responsiveness across
    /// `trials` seeds per coefficient.
    pub fn coefficient_sweep(
        &self,
        coefficients: &[f64],
        trials: u64,
    ) -> Vec<CoefficientSweepPoint> {
        self.scoped(|| coefficient_sweep_impl(coefficients, trials, self.seed))
    }

    /// The Fig 9 classification study on the paper house.
    pub fn classification(&self) -> ClassificationResult {
        self.scoped(|| classification_impl(self.seed))
    }

    /// K-fold cross-validation of the Fig 9 classifier.
    pub fn cross_validation(&self, folds: usize) -> Vec<f64> {
        self.scoped(|| cross_validation_impl(self.seed, folds))
    }

    /// The Fig 10 energy study: Wi-Fi vs Bluetooth uplink over `trials`
    /// runs of `duration` each.
    pub fn energy(&self, duration: SimDuration, trials: u64) -> EnergyResult {
        self.scoped(|| energy_impl(duration, trials, self.seed))
    }

    /// The Fig 11 per-device RSSI comparison.
    pub fn device_comparison(
        &self,
        devices: &[DeviceRxProfile],
        distance_m: f64,
        duration: SimDuration,
    ) -> Vec<DeviceComparisonRow> {
        self.scoped(|| device_comparison_impl(devices, distance_m, duration, self.seed))
    }

    /// The Section V sampling comparison (Android 4.x vs L vs iOS).
    pub fn sampling(&self) -> SamplingComparison {
        self.scoped(|| sampling_impl(self.seed))
    }

    /// The Section IV-A TX-power calibration procedure, end to end.
    pub fn calibration(&self) -> CalibrationOutcome {
        self.scoped(|| calibration_impl(self.seed))
    }

    /// The commercial-scale office-floor classification study.
    pub fn scaling(&self) -> ScalingResult {
        self.scoped(|| scaling_impl(self.seed))
    }

    /// The two-storey floor + room identification study.
    pub fn floors(&self) -> MultiFloorResult {
        self.scoped(|| floors_impl(self.seed))
    }

    /// System-level occupancy tracking vs ground truth (three occupants).
    pub fn tracking(&self) -> TrackingResult {
        self.scoped(|| tracking_impl(self.seed))
    }

    /// The fault-intensity sweep: bare uplink vs store-and-forward.
    pub fn faults(&self) -> FaultsResult {
        self.scoped(|| faults_impl(self.seed))
    }

    /// The chaos sweep: duplicates, reorder, crash/restore, failover.
    pub fn chaos(&self) -> ChaosResult {
        self.scoped(|| chaos_impl(self.seed))
    }

    /// One instrumented end-to-end run with a single merged recorder.
    pub fn telemetry(&self) -> TelemetryResult {
        self.scoped(|| telemetry_impl(self.seed))
    }

    /// The fleet-scale arm: batching uplinks into a sharded BMS with a
    /// single-server reference (defaults: 10 000 devices, 16 shards).
    pub fn scale(&self) -> ScaleResult {
        self.scoped(|| {
            scale_impl(
                self.seed,
                self.devices.unwrap_or(10_000),
                self.shards.unwrap_or(16),
            )
        })
    }

    /// The overload arm: a campus federation driven past capacity
    /// (defaults: 600 devices, 8 shards).
    pub fn overload(&self) -> OverloadResult {
        self.scoped(|| {
            overload_impl(
                self.seed,
                self.devices.unwrap_or(600),
                self.shards.unwrap_or(8),
            )
        })
    }

    /// The durable-retention arm: segment-log archive under disk faults
    /// (defaults: 240 devices, 4 shards).
    pub fn archive(&self) -> ArchiveResult {
        self.scoped(|| {
            archive_impl(
                self.seed,
                self.devices.unwrap_or(240),
                self.shards.unwrap_or(4),
            )
        })
    }

    /// The crowd-counting arm: population estimates for every
    /// [`CrowdPreset`](crate::CrowdPreset) under clean, chaos
    /// (uplink-outage), and overload (bounded-mailbox) delivery
    /// (defaults: each preset's canonical crowd, 4 shards).
    ///
    /// `with_devices` overrides every preset's subject count,
    /// `with_fault_plan` substitutes the chaos condition's outage
    /// schedule, and `with_recorder` seeds the merged telemetry.
    pub fn counting(&self) -> CountingResult {
        self.scoped(|| {
            counting_impl(
                self.seed,
                self.devices,
                self.shards.unwrap_or(4),
                self.fault_plan.as_ref(),
                self.recorder.clone(),
            )
        })
    }

    /// The positioning arm: the filter × trilateration SVM ablation (clean
    /// and faulted) plus the peer-relay mesh dual-outage study.
    pub fn positioning(&self) -> PositioningResult {
        self.scoped(|| positioning_impl(self.seed))
    }
}

/// What every system arm's result knows how to do: identify itself, hash
/// its deterministic content, pretty-print its summary, and assert its
/// invariants. `repro` dispatches system arms through this trait via
/// [`ARMS`], so a new arm registers in exactly one place.
pub trait ExperimentReport {
    /// The arm's stable short name (`repro <name>`, checksum lines).
    fn name(&self) -> &'static str;
    /// FNV-1a checksum of the result's deterministic content — never of
    /// wall-clock timings. `scripts/check.sh` compares it across thread
    /// counts.
    fn checksum(&self) -> u64;
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
];

/// Looks up a registered system arm by name.
pub fn arm(name: &str) -> Option<&'static ExperimentArm> {
    ARMS.iter().find(|arm| arm.name == name)
}

impl ExperimentReport for TrackingResult {
    fn name(&self) -> &'static str {
        "tracking"
    }

    fn checksum(&self) -> u64 {
        checksum_of(self)
    }

    fn summary_rows(&self) -> Vec<String> {
        vec![
            format!(
                "  per-device agreement: {:.1}% over {} samples",
                self.device_agreement * 100.0,
                self.samples
            ),
            format!(
                "  whole-table exact matches: {:.1}%",
                self.table_agreement * 100.0
            ),
        ]
    }
}

impl ExperimentReport for ScalingResult {
    fn name(&self) -> &'static str {
        "scaling"
    }

    fn checksum(&self) -> u64 {
        checksum_of(self)
    }

    fn summary_rows(&self) -> Vec<String> {
        vec![format!(
            "  {} rooms, {} beacons: svm {:.1}%, proximity {:.1}%",
            self.rooms,
            self.beacons,
            self.office_svm * 100.0,
            self.office_proximity * 100.0
        )]
    }
}

impl ExperimentReport for MultiFloorResult {
    fn name(&self) -> &'static str {
        "floors"
    }

    fn checksum(&self) -> u64 {
        checksum_of(self)
    }

    fn summary_rows(&self) -> Vec<String> {
        vec![format!(
            "  {} floors, {} beacons: floor accuracy {:.1}%, room accuracy {:.1}%",
            self.floors,
            self.beacons,
            self.floor_accuracy * 100.0,
            self.room_accuracy * 100.0
        )]
    }
}

impl ExperimentReport for FaultsResult {
    fn name(&self) -> &'static str {
        "faults"
    }

    fn checksum(&self) -> u64 {
        checksum_of(self)
    }

    fn summary_rows(&self) -> Vec<String> {
        let mut rows = vec![
            "  per fault intensity: report delivery, online BMS-vs-truth agreement,".to_string(),
            "  mean knowledge staleness, uplink energy, and stale-evidence conditioning".to_string(),
            String::new(),
            "  intensity  path down  arm        delivery  agreement  staleness  energy    stale-hvac"
                .to_string(),
        ];
        for point in &self.points {
            for (name, arm) in [("bare", &point.bare), ("queueing", &point.resilient)] {
                rows.push(format!(
                    "  {:>9.2}  {:>8}  {:<9} {:>8}  {:>8.1}%  {:>8.1}s  {:>7.0} mJ  {:>8.1}s",
                    point.intensity,
                    format!("{}", point.uplink_downtime),
                    name,
                    arm.delivery_rate
                        .map_or("    -".to_string(), |r| format!("{:.1}%", r * 100.0)),
                    arm.device_agreement * 100.0,
                    arm.mean_staleness.as_secs_f64(),
                    arm.energy_mj,
                    arm.stale_conditioning.as_secs_f64(),
                ));
            }
        }
        rows
    }
}

impl ExperimentReport for ChaosResult {
    fn name(&self) -> &'static str {
        "chaos"
    }

    fn checksum(&self) -> u64 {
        checksum_of(self)
    }

    fn summary_rows(&self) -> Vec<String> {
        let onoff = |b: bool| if b { "on" } else { "off" };
        let mut rows = vec![
            "  pattern   failover dedup  offered delivered dropped  retx  dup-wire dup-rej fo-sends probes crashes replayed  energy     oracle    invariants"
                .to_string(),
        ];
        for c in &self.cells {
            rows.push(format!(
                "  {:<9} {:>8} {:>5}  {:>7} {:>9} {:>7} {:>5} {:>9} {:>7} {:>8} {:>6} {:>7} {:>8}  {:>7.0} mJ  {:<8}  {}",
                c.pattern,
                onoff(c.failover),
                onoff(c.dedup),
                c.offered,
                c.delivered,
                c.dropped,
                c.retransmits,
                c.duplicates_on_wire,
                c.duplicates_rejected,
                c.failover_sends,
                c.probes,
                c.crashes,
                c.replayed,
                c.energy_mj,
                if c.view_matches_oracle { "match" } else { "DIVERGED" },
                if c.invariants_hold() { "ok" } else { "VIOLATED" },
            ));
        }
        rows.push(String::new());
        rows.push(
            "  invariants hold at every cell; failover+dedup cells match the clean oracle"
                .to_string(),
        );
        rows
    }

    fn assert_invariants(&self) {
        assert!(self.all_invariants_hold(), "chaos sweep invariant violated");
        assert!(
            self.reliable_cells_match_oracle(),
            "a failover+dedup cell diverged from the clean oracle"
        );
    }
}

impl ExperimentReport for TelemetryResult {
    fn name(&self) -> &'static str {
        "telemetry"
    }

    fn checksum(&self) -> u64 {
        self.recorder.checksum()
    }

    fn summary_rows(&self) -> Vec<String> {
        use roomsense_telemetry::keys;
        let r = &self.recorder;
        let count_of = |k| r.histogram(k).map_or(0, |h| h.count());
        let mean_of = |k| r.histogram(k).and_then(|h| h.mean()).unwrap_or(0.0);
        let mut rows = vec!["  metric                       value      paper artifact".to_string()];
        let counters: [(&str, u64, &str); 12] = [
            ("scan.cycles", r.counter(keys::SCAN_CYCLES), "Section V scan loop"),
            ("scan.stalls", r.counter(keys::SCAN_STALLS), "Fig 5 Android stalls"),
            ("scan.samples", r.counter(keys::SCAN_SAMPLES), "Section V (5 samples/cycle)"),
            ("scan.samples_dropped", r.counter(keys::SCAN_SAMPLES_DROPPED), "fault-layer loss"),
            ("filter.holds", r.counter(keys::FILTER_HOLDS), "Section V loss policy"),
            ("filter.drops", r.counter(keys::FILTER_DROPS), "Section V loss policy"),
            ("radio.rx.lost", r.counter(keys::RADIO_RX_LOST), "Fig 5 loss rate"),
            ("net.queue.retransmits", r.counter(keys::NET_QUEUE_RETRANSMITS), "uplink reliability"),
            ("net.failover.sends", r.counter(keys::NET_FAILOVER_SENDS), "Wi-Fi->BT failover"),
            ("bms.ingest.duplicates", r.counter(keys::BMS_INGEST_DUPLICATES), "exactly-once ingest"),
            ("bms.ingest.accepted", r.counter(keys::BMS_INGEST_ACCEPTED), "occupancy table input"),
            ("bms.checkpoints", r.counter(keys::BMS_CHECKPOINTS), "crash/restore"),
        ];
        for (name, value, artifact) in counters {
            rows.push(format!("  {name:<28} {value:>8}   {artifact}"));
        }
        rows.push(format!(
            "  {:<28} {:>8}   Fig 9 decision margins (mean {:+.2})",
            "ml.svm.margin",
            count_of(keys::ML_SVM_MARGIN),
            mean_of(keys::ML_SVM_MARGIN),
        ));
        rows.push(format!(
            "  {:<28} {:>8.0}   Figs 8-10 energy account (mJ)",
            "energy.total_mj",
            r.gauge(keys::ENERGY_TOTAL_MJ).unwrap_or(0.0),
        ));
        rows.push(format!(
            "  uplink: {}/{} reports delivered; journal holds {} events ({} dropped past capacity)",
            self.delivered,
            self.offered,
            r.journal().count(),
            r.journal_dropped(),
        ));
        rows
    }
}

impl ExperimentReport for ScaleResult {
    fn name(&self) -> &'static str {
        "scale"
    }

    fn checksum(&self) -> u64 {
        checksum_of(&self.fingerprint)
    }

    fn summary_rows(&self) -> Vec<String> {
        let f = &self.fingerprint;
        let t = &self.timings;
        vec![
            format!(
                "  fleet: {} devices -> {} shards (batch <= 8 reports/burst, 300 s retention)",
                f.devices, f.shards
            ),
            format!(
                "  uplink: {} offered, {} delivered, {} retransmitted, {} dropped, {} undelivered",
                f.offered, f.delivered, f.retransmits, f.dropped, f.undelivered
            ),
            format!(
                "  coalescing: {} bursts, mean {:.2} reports/burst",
                f.bursts, f.mean_batch_size
            ),
            format!(
                "  server: {} stored, {} duplicates rejected, {} compacted, {} replayed after crash",
                f.stored, f.duplicates, f.compacted, f.recovered_reports
            ),
            format!(
                "  memory: peak {} retained reports (cap {}), final {}",
                f.peak_retained, f.retained_cap, f.final_retained
            ),
            format!(
                "  occupancy: {} rooms, {} devices; history sweep probed {} room-slots",
                f.occupied_rooms, f.occupants, f.history_rooms_probed
            ),
            format!(
                "  energy: batched {:.0} mJ vs always-on wifi {:.0} mJ ({:.1}% saved)",
                f.batched_energy_mj,
                f.always_on_energy_mj,
                f.batched_saving_fraction() * 100.0
            ),
            format!(
                "  timings: generate {:.2} s, ingest {:.2} s ({:.0} reports/s), query {:.0} us mean",
                t.generate_secs, t.ingest_secs, t.ingest_reports_per_sec, t.query_micros
            ),
            format!(
                "  sharded == single-server state: {}; crash recovery exact: {}; memory bounded: {}",
                f.digests_match,
                f.restore_digest_match,
                f.retention_bounded()
            ),
        ]
    }

    fn assert_invariants(&self) {
        let f = &self.fingerprint;
        assert!(f.digests_match, "sharded fleet diverged from the single server");
        assert!(f.restore_digest_match, "crash recovery lost state");
        assert!(
            f.retention_bounded(),
            "peak retained {} exceeds the retention cap {}",
            f.peak_retained,
            f.retained_cap
        );
        assert!(
            !f.early_query_complete,
            "a query below the retention floor was marked complete"
        );
    }
}

impl ExperimentReport for OverloadResult {
    fn name(&self) -> &'static str {
        "overload"
    }

    fn checksum(&self) -> u64 {
        checksum_of(&self.fingerprint)
    }

    fn summary_rows(&self) -> Vec<String> {
        let f = &self.fingerprint;
        let t = &self.timings;
        vec![
            format!(
                "  campus: {} devices over 2 buildings, {} shards each (mailbox cap {}, service {} reports/shard/tick)",
                f.devices, f.shards, f.mailbox_capacity, 4
            ),
            format!(
                "  admission: {} offered, {} admitted, {} shed (retried), {} gate pauses",
                f.offered, f.admitted, f.shed, f.pauses
            ),
            format!(
                "  memory: peak mailbox depth {} (cap {}), deepest client retry queue {}",
                f.peak_mailbox_depth, f.mailbox_capacity, f.max_client_queue
            ),
            format!(
                "  queries: {} exact, {} degraded; drained in {} ticks; final view {} occupants",
                f.exact_queries, f.degraded_queries, f.ticks_to_drain, f.occupants
            ),
            format!(
                "  timings: generate {:.2} s, event loop {:.2} s ({:.0} admitted/s)",
                t.generate_secs, t.run_secs, t.admitted_per_sec
            ),
            format!(
                "  memory bounded: {}; shed-period answers consistent: {}; post-drain digests exact: {}",
                f.memory_bounded(),
                f.degraded_consistent,
                f.digests_match
            ),
        ]
    }

    fn assert_invariants(&self) {
        let f = &self.fingerprint;
        assert!(
            f.memory_bounded(),
            "peak mailbox depth exceeded the configured capacity"
        );
        assert_eq!(f.admitted, f.offered, "load shedding lost reports");
        assert!(f.shed > 0, "the surge never exercised backpressure");
        assert!(f.degraded_queries > 0, "the surge never degraded a query");
        assert!(
            f.degraded_consistent,
            "a degraded answer diverged from the pumped-prefix oracle"
        );
        assert!(
            f.digests_match,
            "post-drain state diverged from the unthrottled oracle"
        );
    }
}

impl ExperimentReport for ArchiveResult {
    fn name(&self) -> &'static str {
        "archive"
    }

    fn checksum(&self) -> u64 {
        checksum_of(&self.fingerprint)
    }

    fn summary_rows(&self) -> Vec<String> {
        let f = &self.fingerprint;
        let t = &self.timings;
        let mut rows = vec![
            format!(
                "  fleet: {} devices -> {} shards, {} reports/scenario, 300 s retention spilling to segment logs",
                f.devices, f.shards, f.reports_per_scenario
            ),
            "  scenario               segs trunc foot  scan     covered  missing  records  respill  digest  probes(exact/flagged)  loss"
                .to_string(),
        ];
        for s in &f.scenarios {
            rows.push(format!(
                "  {:<21} {:>5} {:>5} {:>4}  {:<7}  {:<7}  {:>7}  {:>7}  {:>7}  {:<6}  {:>9}/{:<7}  {}",
                s.name,
                s.segments_scanned,
                s.truncated_segments,
                s.footer_mismatches,
                if s.scan_clean { "clean" } else { "repair" },
                s.covered,
                s.missing_records,
                s.archive_records,
                s.respill_suppressed,
                s.digest_match,
                s.exact_probes,
                s.flagged_probes,
                if s.silent_loss { "SILENT" } else { "none" },
            ));
        }
        rows.push(format!(
            "  timings: generate {:.2} s, scenarios {:.2} s",
            t.generate_secs, t.run_secs
        ));
        let lossy = f.scenarios.iter().filter(|s| !s.covered).count();
        rows.push(format!(
            "  {} covered scenarios exact; {} lossy scenarios flagged; zero silent loss",
            f.scenarios.len() - lossy,
            lossy
        ));
        rows
    }

    fn assert_invariants(&self) {
        let f = &self.fingerprint;
        assert!(
            f.no_silent_loss(),
            "a historical query was answered complete but wrong"
        );
        assert!(
            f.covered_scenarios_exact(),
            "a covered recovery diverged from the never-crashed oracle"
        );
        assert!(
            f.lossy_scenarios_flagged(),
            "a lossy recovery failed to surface its data loss"
        );
        assert!(
            f.live_state_always_exact(),
            "checkpoint + journal replay lost live state"
        );
        assert!(
            f.faults_exercised(),
            "a fault scenario injected nothing - the matrix degraded to clean runs"
        );
        for s in &f.scenarios {
            let expect_covered = matches!(s.name, "clean" | "crash_mid_compaction" | "torn_tail");
            assert_eq!(
                s.covered, expect_covered,
                "{}: expected covered={expect_covered}",
                s.name
            );
        }
    }
}

impl ExperimentReport for CountingResult {
    fn name(&self) -> &'static str {
        "counting"
    }

    fn checksum(&self) -> u64 {
        checksum_of(&self.fingerprint)
    }

    fn summary_rows(&self) -> Vec<String> {
        let f = &self.fingerprint;
        let t = &self.timings;
        let mut rows = vec![
            format!(
                "  {} shards, {} s evidence window; MAE is per-room headcount error vs ground truth",
                f.shards, f.window_s
            ),
            "  preset             condition  subj  carry  reports   mae  (bound)  ci-cover  peak truth/est  degr  shed  sharded==single  converged"
                .to_string(),
        ];
        for c in &f.cells {
            rows.push(format!(
                "  {:<17}  {:<9}  {:>4}  {:>5}  {:>7}  {:>4.2}  ({:>4.1})  {:>5}/{:<3}  {:>6}/{:<6.1}  {:>4}  {:>4}  {:<15}  {}",
                c.preset,
                c.condition,
                c.subjects,
                c.carriers,
                c.reports,
                c.mae,
                c.mae_bound,
                c.covered_probes,
                c.probes,
                c.truth_peak,
                c.estimate_at_peak,
                c.degraded_probes,
                c.shed_reports,
                c.sharded_matches_single,
                c.converged_to_clean,
            ));
        }
        rows.push(format!(
            "  timings: generate {:.2} s, conditions {:.2} s",
            t.generate_secs, t.run_secs
        ));
        rows.push(format!(
            "  all {} cells within MAE bounds; faulted conditions converge to the clean oracle",
            f.cells.len()
        ));
        rows
    }

    fn assert_invariants(&self) {
        let f = &self.fingerprint;
        for c in &f.cells {
            assert!(
                c.mae <= c.mae_bound,
                "{}/{}: MAE {:.3} exceeds declared bound {:.1}",
                c.preset,
                c.condition,
                c.mae,
                c.mae_bound
            );
        }
        assert!(
            f.sharded_consistent(),
            "a sharded population answer diverged from the single reference server"
        );
        assert!(
            f.faulted_converges(),
            "a faulted condition failed to converge to the clean oracle after drain"
        );
        assert!(
            f.backpressure_exercised(),
            "the overload condition never shed or degraded - it degraded to a clean run"
        );
    }
}

impl ExperimentReport for PositioningResult {
    fn name(&self) -> &'static str {
        "positioning"
    }

    fn checksum(&self) -> u64 {
        checksum_of(self)
    }

    fn summary_rows(&self) -> Vec<String> {
        let mut rows = vec![format!(
            "  proximity baseline: {:>5.1}% clean / {:>5.1}% faulted",
            self.proximity_clean.accuracy() * 100.0,
            self.proximity_faulted.accuracy() * 100.0
        )];
        for arm in &self.arms {
            rows.push(format!(
                "  svm {:<13}: {:>5.1}% clean / {:>5.1}% faulted",
                format!(
                    "{}{}",
                    arm.filter,
                    if arm.trilateration { "+trilat" } else { "" }
                ),
                arm.clean.accuracy() * 100.0,
                arm.faulted.accuracy() * 100.0
            ));
        }
        rows.push(format!(
            "  mesh: {}/{} reports delivered ({} relayed peer-to-peer), {}/{} through the dual Wi-Fi+BT outage; failover-only managed {}/{}",
            self.mesh_delivered,
            self.mesh_reports,
            self.mesh_relayed,
            self.outage_delivered,
            self.outage_reports,
            self.failover_only_delivered,
            self.mesh_reports
        ));
        rows
    }

    fn assert_invariants(&self) {
        assert_eq!(self.arms.len(), 8, "four filters x trilat on/off");
        let (bayes_clean, bayes_faulted) = self
            .accuracy(FilterKind::Bayes, false)
            .expect("bayes cell present");
        let (kalman_clean, kalman_faulted) = self
            .accuracy(FilterKind::Kalman, false)
            .expect("kalman cell present");
        assert!(
            bayes_clean >= kalman_clean,
            "Bayes-filtered SVM ({:.3}) must not trail Kalman-filtered SVM ({:.3}) clean",
            bayes_clean,
            kalman_clean
        );
        assert!(
            bayes_faulted >= kalman_faulted,
            "Bayes-filtered SVM ({:.3}) must not trail Kalman-filtered SVM ({:.3}) under faults",
            bayes_faulted,
            kalman_faulted
        );
        // The proximity baseline is strong on the paper's four-room house
        // (one beacon per room makes nearest-beacon nearly optimal), so SVM
        // arms are not required to beat it — only to stay far above the
        // 1-of-5-labels chance floor, clean and faulted alike.
        for arm in &self.arms {
            assert!(
                arm.clean.accuracy() > 0.5 && arm.faulted.accuracy() > 0.5,
                "svm {}{} fell to chance level ({:.3} clean / {:.3} faulted)",
                arm.filter,
                if arm.trilateration { "+trilat" } else { "" },
                arm.clean.accuracy(),
                arm.faulted.accuracy()
            );
        }
        assert_eq!(
            self.outage_delivered, self.outage_reports,
            "the mesh must deliver every report offered inside the dual outage"
        );
        assert!(self.mesh_relayed > 0, "the dual outage must exercise the mesh");
        assert!(
            self.failover_only_delivered < self.mesh_delivered,
            "the mesh must beat the failover-only stack across the dual outage"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longer_scan_period_reduces_raw_variance() {
        // The Fig 4 vs Fig 6 contrast.
        let two = ExperimentCtx::new(7).static_capture(&PipelineConfig::paper_android(), 2.0, SimDuration::from_secs(240));
        let five = ExperimentCtx::new(7).static_capture(&PipelineConfig::paper_android().with_scan_period(SimDuration::from_secs(5)), 2.0, SimDuration::from_secs(240));
        assert!(
            five.raw_std() < two.raw_std(),
            "5s std {} should be below 2s std {}",
            five.raw_std(),
            two.raw_std()
        );
    }

    #[test]
    fn smoothing_reduces_variance() {
        // The Fig 4 vs Fig 5 contrast.
        let capture = ExperimentCtx::new(8).static_capture(&PipelineConfig::paper_android(), 2.0, SimDuration::from_secs(240));
        assert!(
            capture.smoothed_std() < capture.raw_std(),
            "smoothed {} raw {}",
            capture.smoothed_std(),
            capture.raw_std()
        );
    }

    #[test]
    fn dynamic_walk_crosses_over() {
        let result = ExperimentCtx::new(9).dynamic_walk(0.65, 1.2);
        let crossover = result.crossover_cycle.expect("must switch beacons");
        // The walk takes ~9 s = ~5 cycles to midpoint; crossover should be
        // in a plausible band, not instant and not at the very end.
        assert!(
            (1..result.series.len() - 1).contains(&crossover),
            "crossover {crossover} of {}",
            result.series.len()
        );
    }

    #[test]
    fn higher_coefficient_is_stabler_but_slower() {
        let sweep = ExperimentCtx::new(10).coefficient_sweep(&[0.1, 0.9], 3);
        let low = &sweep[0];
        let high = &sweep[1];
        assert!(
            high.stability_std_m < low.stability_std_m,
            "high coeff should be calmer: {} vs {}",
            high.stability_std_m,
            low.stability_std_m
        );
        if let (Some(lo), Some(hi)) = (low.crossover_cycle, high.crossover_cycle) {
            assert!(hi >= lo, "high coeff should not switch faster: {hi} < {lo}");
        }
    }

    #[test]
    fn sampling_comparison_matches_section_v() {
        let s = ExperimentCtx::new(4).sampling();
        assert_eq!(s.android_samples, 5);
        assert!(
            (250..=320).contains(&s.ios_samples),
            "ios {}",
            s.ios_samples
        );
        // The future-work stack closes the gap entirely.
        assert_eq!(s.android_l_samples, s.ios_samples);
    }

    #[test]
    fn energy_experiment_reproduces_headlines() {
        let result = ExperimentCtx::new(5).energy(SimDuration::from_secs(1800), 2);
        let saving = result.saving_fraction();
        assert!(
            (0.08..=0.22).contains(&saving),
            "saving {saving} not near the paper's 15%"
        );
        assert!(
            (8.0..=13.0).contains(&result.bt_lifetime_h),
            "bt lifetime {} not near 10 h",
            result.bt_lifetime_h
        );
        assert!(result.wifi_lifetime_h < result.bt_lifetime_h);
        // Traces start full and fall.
        assert_eq!(result.wifi_trace[0].percent, 100.0);
        assert!(result.wifi_trace.last().expect("non-empty").percent < 100.0);
    }

    #[test]
    fn zero_duration_capture_is_empty() {
        let capture = ExperimentCtx::new(1).static_capture(&PipelineConfig::paper_android(), 2.0, SimDuration::ZERO);
        assert!(capture.raw.is_empty());
        assert!(capture.smoothed.is_empty());
        assert_eq!(capture.raw_std(), 0.0);
        assert_eq!(capture.raw_rmse(), 0.0);
    }

    #[test]
    fn empty_coefficient_sweep_is_empty() {
        assert!(ExperimentCtx::new(1).coefficient_sweep(&[], 3).is_empty());
    }

    #[test]
    fn slow_walk_crosses_later_than_fast_walk() {
        let slow = ExperimentCtx::new(11).dynamic_walk(0.65, 0.6);
        let fast = ExperimentCtx::new(11).dynamic_walk(0.65, 1.5);
        // The slow walk takes more cycles to reach the midpoint.
        let slow_cross = slow.crossover_cycle.expect("slow walk switches");
        let fast_cross = fast.crossover_cycle.expect("fast walk switches");
        assert!(
            slow_cross > fast_cross,
            "slow {slow_cross} vs fast {fast_cross}"
        );
    }

    #[test]
    fn two_storey_building_identifies_the_floor() {
        let result = ExperimentCtx::new(17).floors();
        assert_eq!(result.floors, 2);
        assert_eq!(result.beacons, 10);
        assert!(
            result.floor_accuracy > 0.95,
            "floor accuracy {:.3}",
            result.floor_accuracy
        );
        assert!(
            result.room_accuracy > 0.75,
            "room accuracy {:.3}",
            result.room_accuracy
        );
        assert!(result.room_accuracy <= result.floor_accuracy);
    }

    #[test]
    fn office_floor_scales_with_svm_still_ahead() {
        let result = ExperimentCtx::new(16).scaling();
        assert_eq!(result.rooms, 9);
        assert_eq!(result.beacons, 10);
        assert!(result.office_svm > 0.80, "office svm {:.3}", result.office_svm);
        assert!(
            result.office_svm > result.office_proximity,
            "svm {:.3} vs proximity {:.3}",
            result.office_svm,
            result.office_proximity
        );
    }

    #[test]
    fn tracking_experiment_agrees_with_truth_most_of_the_time() {
        let result = ExperimentCtx::new(15).tracking();
        assert!(result.samples >= 100);
        assert!(
            result.device_agreement > 0.75,
            "device agreement {:.3}",
            result.device_agreement
        );
        assert!(result.table_agreement > 0.4, "table agreement {:.3}", result.table_agreement);
        assert!(result.table_agreement <= result.device_agreement);
    }

    #[test]
    fn calibration_procedure_converges_to_one_metre() {
        let outcome = ExperimentCtx::new(12).calibration();
        assert!(outcome.sample_count >= 10);
        // The transmitter is a -59 dBm@1m class device; the calibrated
        // field lands near it.
        let dbm = outcome.measured_power.dbm();
        assert!((-66..=-53).contains(&dbm), "calibrated {dbm}");
        assert!(
            (0.7..=1.4).contains(&outcome.verified_distance_m),
            "verified {:.2} m",
            outcome.verified_distance_m
        );
    }

    #[test]
    fn scale_experiment_matches_single_server_and_bounds_memory() {
        let result = ExperimentCtx::new(21).with_devices(96).with_shards(8).scale();
        let f = &result.fingerprint;
        assert!(f.digests_match, "sharded fleet diverged from the reference");
        assert!(f.restore_digest_match, "crash recovery lost state");
        assert!(
            f.retention_bounded(),
            "peak {} exceeds cap {}",
            f.peak_retained,
            f.retained_cap
        );
        assert!(f.compacted > 0, "retention never compacted anything");
        assert!(!f.early_query_complete, "query below the floor must be flagged");
        assert!(f.delivered > 0 && f.offered >= f.delivered);
        assert!(
            f.mean_batch_size > 2.0,
            "coalescing too weak: {}",
            f.mean_batch_size
        );
        assert!(
            f.batched_energy_mj < f.always_on_energy_mj,
            "batched {} should beat always-on {}",
            f.batched_energy_mj,
            f.always_on_energy_mj
        );
        assert!(f.recovered_reports > 0, "the crash replayed nothing");
    }

    #[test]
    fn scale_experiment_is_thread_invariant() {
        let base = ExperimentCtx::new(22).with_devices(48).with_shards(4).scale();
        let serial = exec::with_thread_override(1, || ExperimentCtx::new(22).with_devices(48).with_shards(4).scale());
        assert_eq!(base.fingerprint, serial.fingerprint);
    }

    #[test]
    fn retention_cap_sums_heterogeneous_periods() {
        let window = SimDuration::from_secs(300);
        let uniform = vec![SimDuration::from_secs(60); 10];
        assert_eq!(retention_cap(window, uniform), 10 * 6);
        let mixed = [SimDuration::from_secs(60), SimDuration::from_secs(30)];
        assert_eq!(retention_cap(window, mixed), 6 + 11);
        assert_eq!(retention_cap(window, []), 0);
    }

    #[test]
    fn overload_experiment_sheds_recovers_and_bounds_memory() {
        let result = ExperimentCtx::new(31).with_devices(36).with_shards(3).overload();
        let f = &result.fingerprint;
        assert!(f.shed > 0, "the surge never overflowed admission");
        assert!(f.pauses > 0, "no admission gate ever paused");
        assert!(f.memory_bounded(), "peak {} > cap {}", f.peak_mailbox_depth, f.mailbox_capacity);
        assert_eq!(f.admitted, f.offered, "reports were lost despite retry queues");
        assert!(f.degraded_queries > 0, "the surge never degraded a query");
        assert!(f.exact_queries > 0, "the tier never recovered to Exact");
        assert!(f.degraded_consistent, "a degraded answer diverged from the pumped prefix");
        assert!(f.digests_match, "post-drain state diverged from the unthrottled oracle");
        assert_eq!(f.occupants, 36, "every device occupies exactly one room");
    }

    #[test]
    fn overload_experiment_is_thread_invariant() {
        let base = ExperimentCtx::new(32).with_devices(24).with_shards(2).overload();
        let serial = exec::with_thread_override(1, || ExperimentCtx::new(32).with_devices(24).with_shards(2).overload());
        assert_eq!(base.fingerprint, serial.fingerprint);
    }

    #[test]
    fn archive_experiment_is_thread_invariant_and_never_silently_wrong() {
        let base = ExperimentCtx::new(33).with_devices(24).with_shards(2).archive();
        let serial = exec::with_thread_override(1, || ExperimentCtx::new(33).with_devices(24).with_shards(2).archive());
        assert_eq!(base.fingerprint, serial.fingerprint);
        let f = &base.fingerprint;
        assert_eq!(f.scenarios.len(), 6);
        assert!(f.no_silent_loss());
        assert!(f.covered_scenarios_exact());
        assert!(f.lossy_scenarios_flagged());
        assert!(f.live_state_always_exact());
        assert!(f.faults_exercised());
        // The injected corruption must actually force lossy recoveries:
        // short writes and lying fsyncs break mark coverage by design.
        for name in ["short_write", "fsync_loss", "bit_rot"] {
            let row = f.scenarios.iter().find(|s| s.name == name).expect("row");
            assert!(!row.covered, "{name} should break mark coverage");
        }
        for name in ["clean", "crash_mid_compaction", "torn_tail"] {
            let row = f.scenarios.iter().find(|s| s.name == name).expect("row");
            assert!(row.covered, "{name} recovery should stay covered");
        }
    }

    #[test]
    fn device_comparison_shows_the_gap() {
        let rows = ExperimentCtx::new(6).device_comparison(&[
                DeviceRxProfile::galaxy_s3_mini(),
                DeviceRxProfile::nexus_5(),
            ], 2.0, SimDuration::from_secs(120));
        assert_eq!(rows.len(), 2);
        // The Nexus 5 reads hotter, so its distance estimate is shorter.
        assert!(
            rows[1].mean_rssi_dbm > rows[0].mean_rssi_dbm + 3.0,
            "nexus {} s3 {}",
            rows[1].mean_rssi_dbm,
            rows[0].mean_rssi_dbm
        );
        assert!(rows[1].mean_distance_m < rows[0].mean_distance_m);
    }
}

