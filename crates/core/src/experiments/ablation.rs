//! The `ablation` arm: one table per design choice the paper justifies by
//! measurement (Sections V–VI) or proposes as future work — classifier,
//! EWMA coefficient, loss hold, scan period, per-device calibration,
//! accelerometer gating, 2.4 GHz interference, SVM hyper-parameters,
//! shadowing severity and beacon density.

use super::house::{
    commissioned_house, held_out_split, house_dataset, knn_confusion, proximity_confusion,
    svm_and_proximity,
};
use super::{mean, CoefficientSweepPoint, ExperimentCtx, ExperimentReport};
use crate::{
    collect_dataset, run_pipeline, OccupancyModel, PipelineConfig, Scenario, MISSING_DISTANCE,
};
use roomsense_building::mobility::StaticPosition;
use roomsense_building::presets;
use roomsense_energy::{
    account, gate_timeline, MotionIntervals, PowerProfile, UplinkArchitecture, UsageTimeline,
};
use roomsense_geom::Point;
use roomsense_ibeacon::Minor;
use roomsense_ml::{
    trilaterate, ConfusionMatrix, GridSearchResult, Kernel, StandardScaler, SvmParams,
};
use roomsense_net::{TransportEvent, TransportKind};
use roomsense_radio::{DeviceRxProfile, Interferer, TransmitterProfile};
use roomsense_signal::LossPolicy;
use roomsense_sim::{exec, rng, SimDuration, SimTime};

/// Every ablation table of one [`ExperimentCtx::ablation`] run, each figure
/// at full precision, so the `repro ablation` checksum pins all of them.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationResult {
    /// `(technique, held-out accuracy)`: SVM-RBF, SVM-linear, kNN,
    /// proximity and trilateration on one split of the paper house.
    pub(crate) classifier: Vec<(&'static str, f64)>,
    /// The EWMA coefficient sweep behind the paper's 0.65.
    pub(crate) coefficient: Vec<CoefficientSweepPoint>,
    /// `(loss policy, track availability)` under a 15 % Android stall rate.
    pub(crate) loss_hold: Vec<(&'static str, f64)>,
    /// Scan period against estimate noise and rate.
    pub(crate) scan_period: Vec<ScanPeriodAblationRow>,
    /// Deployment device against ranging error and accuracy, for a model
    /// trained on the S3 Mini.
    pub(crate) calibration: Vec<CalibrationAblationRow>,
    /// Always-on sensing against accelerometer-gated sensing.
    pub(crate) accel_gate: GatingAblation,
    /// Co-channel interferer against track availability and rate.
    pub(crate) interference: Vec<InterferenceAblationRow>,
    /// The SVM `(C, gamma)` grid, cross-validated.
    pub(crate) grid_search: GridSearchResult,
    /// Shadowing severity against SVM and proximity accuracy.
    pub(crate) environment: Vec<EnvironmentAblationRow>,
    /// Installed beacon count against SVM and proximity accuracy.
    pub(crate) beacon_density: Vec<DensityAblationRow>,
}

/// One scan period, averaged over 8 trials of a 2 m static capture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ScanPeriodAblationRow {
    /// The scan period, seconds.
    pub(crate) period_s: u64,
    /// Mean std-dev of the raw distance estimates, metres.
    pub(crate) raw_std_m: f64,
    /// Mean RMSE of the raw estimates against the true 2 m, metres.
    pub(crate) rmse_m: f64,
    /// Mean raw estimates per minute.
    pub(crate) estimates_per_min: f64,
}

/// One deployment device of the calibration study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CalibrationAblationRow {
    /// The deployment device.
    pub(crate) device: &'static str,
    /// Raw ranging RMSE of a 2 m static capture, metres.
    pub(crate) ranging_rmse_m: f64,
    /// Accuracy of the S3 Mini-trained model on this device's data.
    pub(crate) accuracy: f64,
}

/// Mean power of an occupant who moves 15 minutes of every hour, with and
/// without accelerometer-gated sensing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct GatingAblation {
    /// Mean power with sensing always on, mW.
    pub(crate) always_on_mw: f64,
    /// Mean power with sensing gated on motion, mW.
    pub(crate) gated_mw: f64,
    /// The phone's battery capacity, mWh.
    pub(crate) battery_capacity_mwh: f64,
}

impl GatingAblation {
    /// The fraction of mean power gating saves.
    pub(crate) fn saving_fraction(&self) -> f64 {
        1.0 - self.gated_mw / self.always_on_mw
    }
}

/// One interference environment of the coexistence study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct InterferenceAblationRow {
    /// The environment.
    pub(crate) environment: &'static str,
    /// Fraction of scan cycles with a smoothed track of the near beacon.
    pub(crate) availability: f64,
    /// Raw observations of the near beacon per minute.
    pub(crate) estimates_per_min: f64,
}

/// One shadowing severity of the environment study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct EnvironmentAblationRow {
    /// Log-normal shadowing sigma, dB.
    pub(crate) sigma_db: f64,
    /// SVM held-out accuracy.
    pub(crate) svm: f64,
    /// Proximity held-out accuracy.
    pub(crate) proximity: f64,
}

/// One beacon count of the density study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DensityAblationRow {
    /// Beacons left installed.
    pub(crate) beacons: usize,
    /// SVM held-out accuracy.
    pub(crate) svm: f64,
    /// Proximity held-out accuracy.
    pub(crate) proximity: f64,
}

impl ExperimentCtx {
    /// The ablation studies (the `repro ablation` arm): each one varies a
    /// single design choice and measures what the paper's choice buys.
    pub fn ablation(&self) -> AblationResult {
        let seed = self.seed;
        AblationResult {
            classifier: ablate_classifier(seed),
            coefficient: self.coefficient_sweep(&[0.0, 0.2, 0.4, 0.65, 0.8, 0.95], 5),
            loss_hold: ablate_loss_hold(seed),
            scan_period: ablate_scan_period(seed),
            calibration: ablate_calibration(seed),
            accel_gate: ablate_accel_gate(),
            interference: ablate_interference(seed),
            grid_search: ablate_grid_search(seed),
            environment: ablate_environment(seed),
            beacon_density: ablate_beacon_density(seed),
        }
    }
}

/// SVM-RBF vs SVM-linear vs kNN vs proximity vs trilateration, one split.
fn ablate_classifier(seed: u64) -> Vec<(&'static str, f64)> {
    let (scenario, labelled) = house_dataset(seed);
    let (train, test) = held_out_split(&labelled, seed, "ablate-classifier-split");

    let mut rows = Vec::new();

    // SVM with RBF (the paper's choice) and linear (ablation).
    for (name, kernel) in [
        ("svm-rbf (paper)", Kernel::Rbf { gamma: 0.5 }),
        ("svm-linear", Kernel::Linear),
    ] {
        let params = SvmParams {
            kernel,
            ..SvmParams::default()
        };
        let model = OccupancyModel::fit(&train, &params).expect("dataset is multi-class");
        rows.push((name, model.evaluate(&test).accuracy()));
    }

    rows.push((
        "knn (k=5)",
        knn_confusion(&scenario, &train.data, &test).accuracy(),
    ));
    // Proximity (the previous iOS work's technique).
    rows.push((
        "proximity (prev. work)",
        proximity_confusion(&scenario, &test).accuracy(),
    ));

    // Trilateration (the technique the paper discarded): estimate a
    // position from the distances and look the room up in the plan.
    let anchors: Vec<(f64, f64)> = scenario
        .plan()
        .beacon_sites()
        .iter()
        .map(|s| (s.position.x, s.position.y))
        .collect();
    let mut cm = ConfusionMatrix::new(scenario.label_names().len());
    for (row, label) in test.rows().iter().zip(test.labels()) {
        let distances: Vec<f64> = row
            .iter()
            .map(|d| if *d >= MISSING_DISTANCE { f64::NAN } else { *d })
            .collect();
        let predicted = trilaterate(&anchors, &distances)
            .ok()
            .and_then(|(x, y)| scenario.plan().room_at(Point::new(x, y)))
            .map_or(scenario.outside_label(), |r| r.index() as usize);
        cm.record(*label, predicted);
    }
    rows.push(("trilateration (discarded)", cm.accuracy()));
    rows
}

/// Hold-one-cycle loss policy vs dropping immediately: track availability
/// under a buggy Android stack. The two policies run as independent tasks.
fn ablate_loss_hold(seed: u64) -> Vec<(&'static str, f64)> {
    let policies = [
        ("hold-one (paper)", LossPolicy::HoldOneCycle),
        ("drop-immediately", LossPolicy::DropImmediately),
    ];
    exec::par_map_indexed(&policies, |_, &(name, policy)| {
        let mut available = 0usize;
        let mut total = 0usize;
        for trial in 0..10u64 {
            let config = PipelineConfig {
                scanner: crate::ScannerKind::Android {
                    stall_probability: 0.15,
                },
                ..PipelineConfig::paper_android().with_loss_policy(policy)
            };
            let capture = ExperimentCtx::new(seed ^ trial).static_capture(
                &config,
                2.0,
                SimDuration::from_secs(240),
            );
            // Availability: smoothed estimates per scheduled cycle.
            total += 120;
            available += capture.smoothed.len();
        }
        (name, available as f64 / total as f64)
    })
}

/// Scan period vs estimate variance and latency (Fig 4 vs Fig 6 trade).
fn ablate_scan_period(seed: u64) -> Vec<ScanPeriodAblationRow> {
    [1u64, 2, 3, 5, 8, 10]
        .into_iter()
        .map(|period| {
            let config =
                PipelineConfig::paper_android().with_scan_period(SimDuration::from_secs(period));
            let mut stds = Vec::new();
            let mut rmses = Vec::new();
            let mut rates = Vec::new();
            for trial in 0..8u64 {
                let capture = ExperimentCtx::new(seed ^ trial).static_capture(
                    &config,
                    2.0,
                    SimDuration::from_secs(300),
                );
                stds.push(capture.raw_std());
                rmses.push(capture.raw_rmse());
                rates.push(capture.raw.len() as f64 / 5.0);
            }
            ScanPeriodAblationRow {
                period_s: period,
                raw_std_m: mean(&stds),
                rmse_m: mean(&rmses),
                estimates_per_min: mean(&rates),
            }
        })
        .collect()
}

/// Per-device calibration (the paper's Fig 11 mitigation proposal): the RX
/// offset corrupts absolute distance estimates; removing it restores them.
/// Classification is also evaluated cross-device (train on the S3 Mini,
/// deploy on a Nexus 5).
fn ablate_calibration(seed: u64) -> Vec<CalibrationAblationRow> {
    let (scenario, model) = commissioned_house(seed);
    [
        (
            "S3 Mini (training device)",
            DeviceRxProfile::galaxy_s3_mini(),
        ),
        ("Nexus 5 uncalibrated", DeviceRxProfile::nexus_5()),
        (
            "Nexus 5 calibrated",
            DeviceRxProfile::nexus_5().calibrated(),
        ),
    ]
    .into_iter()
    .map(|(device, profile)| {
        let test_cfg = PipelineConfig::paper_android().with_device(profile);
        let capture = ExperimentCtx::new(seed ^ 0xcafe).static_capture(
            &test_cfg,
            2.0,
            SimDuration::from_secs(240),
        );
        let test = collect_dataset(
            &scenario,
            &test_cfg,
            SimDuration::from_secs(30),
            1,
            seed ^ 0xbeef,
        );
        CalibrationAblationRow {
            device,
            ranging_rmse_m: capture.raw_rmse(),
            accuracy: model.evaluate(&test.data).accuracy(),
        }
    })
    .collect()
}

/// Accelerometer-gated sensing (the paper's future work): energy saving
/// for an occupant who moves 25 % of the day.
fn ablate_accel_gate() -> GatingAblation {
    let profile = PowerProfile::galaxy_s3_mini();
    let hours = 10u64;
    let duration = SimDuration::from_secs(hours * 3600);
    // One BT uplink per 2 s cycle all day.
    let events: Vec<TransportEvent> = (0..hours * 1800)
        .map(|i| TransportEvent {
            kind: TransportKind::BluetoothRelay,
            start: SimTime::from_secs(i * 2),
            active: SimDuration::from_millis(450),
            delivered: true,
        })
        .collect();
    let timeline = UsageTimeline {
        duration,
        scan_active: duration,
        transport_events: events,
    };
    // Moving 15 minutes out of every hour.
    let motion = MotionIntervals::new(
        (0..hours)
            .map(|h| {
                (
                    SimTime::from_secs(h * 3600),
                    SimTime::from_secs(h * 3600 + 900),
                )
            })
            .collect(),
    )
    .expect("intervals are sorted and disjoint");
    let full = account(&profile, &timeline, UplinkArchitecture::BluetoothRelay);
    let gated = account(
        &profile,
        &gate_timeline(&timeline, &motion),
        UplinkArchitecture::BluetoothRelay,
    );
    GatingAblation {
        always_on_mw: full.mean_power_mw(duration),
        gated_mw: gated.mean_power_mw(duration),
        battery_capacity_mwh: profile.battery_capacity_mwh,
    }
}

/// Co-channel interference: how much a microwave oven near the user hurts
/// track availability and ranging (the paper's "presence of other signals").
fn ablate_interference(seed: u64) -> Vec<InterferenceAblationRow> {
    [
        ("clean", None),
        (
            "busy wifi ap @2m",
            Some(Interferer::busy_wifi_ap(Point::new(2.5, 1.5))),
        ),
        (
            "microwave oven @2m",
            Some(Interferer::microwave_oven(Point::new(2.5, 1.5))),
        ),
        (
            "continuous jammer @2m",
            Some(Interferer::new(
                Point::new(2.5, 1.5),
                6.0,
                SimDuration::from_secs(1),
                1.0,
                0.95,
            )),
        ),
    ]
    .into_iter()
    .map(|(environment, interferer)| {
        let mut scenario = Scenario::from_plan(presets::two_transmitter_corridor(), seed);
        if let Some(i) = interferer {
            scenario.add_interferer(i);
        }
        let records = run_pipeline(
            &scenario,
            &PipelineConfig::paper_android(),
            &StaticPosition::new(Point::new(2.5, 1.0)),
            SimDuration::from_secs(240),
            seed,
        );
        let minor = Minor::new(0);
        let tracked = records
            .iter()
            .filter(|r| r.snapshots.iter().any(|s| s.identity.minor == minor))
            .count();
        let raw_count = records
            .iter()
            .flat_map(|r| r.observations.iter())
            .filter(|o| o.identity.minor == minor)
            .count();
        InterferenceAblationRow {
            environment,
            availability: tracked as f64 / records.len() as f64,
            estimates_per_min: raw_count as f64 / 4.0,
        }
    })
    .collect()
}

/// Hyper-parameter sensitivity: is the paper's borrowed SVM setup near the
/// optimum for this building?
fn ablate_grid_search(seed: u64) -> GridSearchResult {
    let scenario = Scenario::from_plan(presets::paper_house(), seed);
    let labelled = collect_dataset(
        &scenario,
        &PipelineConfig::paper_android(),
        SimDuration::from_secs(40),
        2,
        seed,
    );
    // Grid search runs on standardised features, like the production model.
    let scaler = StandardScaler::fit(&labelled.data);
    let scaled = scaler.transform_dataset(&labelled.data);
    let mut grid_rng = rng::for_component(seed, "ablate-grid");
    roomsense_ml::grid_search(
        &scaled,
        &[0.1, 1.0, 10.0, 100.0],
        &[0.05, 0.5, 2.0],
        4,
        &mut grid_rng,
    )
}

/// Environment harshness: how shadowing severity affects the headline
/// accuracies (radio sensitivity study).
fn ablate_environment(seed: u64) -> Vec<EnvironmentAblationRow> {
    [0.0f64, 2.0, 3.0, 5.0, 7.0]
        .into_iter()
        .map(|sigma_db| {
            let scenario = Scenario::with_radio(
                presets::paper_house(),
                seed,
                TransmitterProfile::default(),
                SimDuration::from_millis(100),
                sigma_db,
            );
            let labelled = collect_dataset(
                &scenario,
                &PipelineConfig::paper_android(),
                SimDuration::from_secs(40),
                2,
                seed,
            );
            let (svm, proximity) =
                svm_and_proximity(&scenario, &labelled, seed, "ablate-env-split");
            EnvironmentAblationRow {
                sigma_db,
                svm,
                proximity,
            }
        })
        .collect()
}

/// Beacon density: how many antennas does the house actually need?
/// (The paper's intro motivates low installation cost.)
fn ablate_beacon_density(seed: u64) -> Vec<DensityAblationRow> {
    // Remove beacons in a fixed order: bathroom, study, bedroom first.
    let removal_order = [Minor::new(3), Minor::new(4), Minor::new(2)];
    (0..=removal_order.len())
        .map(|removed| {
            let plan = presets::paper_house().without_beacons(&removal_order[..removed]);
            let beacons = plan.beacon_sites().len();
            let scenario = Scenario::from_plan(plan, seed);
            let labelled = collect_dataset(
                &scenario,
                &PipelineConfig::paper_android(),
                SimDuration::from_secs(40),
                3,
                seed,
            );
            let (svm, proximity) =
                svm_and_proximity(&scenario, &labelled, seed, "ablate-density-split");
            DensityAblationRow {
                beacons,
                svm,
                proximity,
            }
        })
        .collect()
}

impl AblationResult {
    /// The held-out accuracy of a classification technique, by row name.
    fn technique(&self, name: &str) -> f64 {
        self.classifier
            .iter()
            .find(|(technique, _)| *technique == name)
            .map(|(_, accuracy)| *accuracy)
            .expect("every technique has a row")
    }
}

/// Starts one study's table: a blank line between studies, then its title
/// and column header.
fn section(rows: &mut Vec<String>, title: &str, columns: &str) {
    if !rows.is_empty() {
        rows.push(String::new());
    }
    rows.push(format!("  ---- {title} ----"));
    rows.push(format!("  {columns}"));
}

impl ExperimentReport for AblationResult {
    fn summary_rows(&self) -> Vec<String> {
        let mut rows = Vec::new();
        section(
            &mut rows,
            "ablate_classifier: classification technique (paper Section VI)",
            "technique                   accuracy",
        );
        for (name, acc) in &self.classifier {
            rows.push(format!("  {name:<27} {:>6.1}%", acc * 100.0));
        }

        section(
            &mut rows,
            "ablate_coeff: EWMA coefficient (paper settles on 0.65)",
            "coeff  static std (m)  crossover cycle",
        );
        for point in &self.coefficient {
            rows.push(format!(
                "  {:>5.2}  {:>14.3}  {:>8}",
                point.coefficient,
                point.stability_std_m,
                point
                    .crossover_cycle
                    .map_or("never".to_string(), |c| c.to_string())
            ));
        }

        section(
            &mut rows,
            "ablate_loss_hold: two-consecutive-loss hold (paper Section V)",
            "policy            track availability (stall 15%)",
        );
        for (name, availability) in &self.loss_hold {
            rows.push(format!("  {name:<17} {:>6.1}%", availability * 100.0));
        }

        section(
            &mut rows,
            "ablate_scan_period: scan period (paper contrasts 2 s and 5 s)",
            "period  raw std (m)  rmse (m)  estimates/min  (mean of 8 trials)",
        );
        for row in &self.scan_period {
            rows.push(format!(
                "  {:>4}s   {:>10.3}  {:>8.3}  {:>10.1}",
                row.period_s, row.raw_std_m, row.rmse_m, row.estimates_per_min
            ));
        }

        section(
            &mut rows,
            "ablate_calibration: per-device RSSI calibration (paper Section VIII)",
            "deployment device                ranging rmse @2m   accuracy",
        );
        for row in &self.calibration {
            rows.push(format!(
                "  {:<32} {:>10.2} m   {:>6.1}%",
                row.device,
                row.ranging_rmse_m,
                row.accuracy * 100.0
            ));
        }

        let gate = &self.accel_gate;
        section(
            &mut rows,
            "ablate_accel_gate: accelerometer gating (paper future work)",
            "configuration     mean power   battery life",
        );
        for (name, mw) in [
            ("always sensing", gate.always_on_mw),
            ("accel-gated", gate.gated_mw),
        ] {
            rows.push(format!(
                "  {name:<16} {:>8.0} mW   {:>6.1} h",
                mw,
                gate.battery_capacity_mwh / mw
            ));
        }
        rows.push(format!(
            "  gating saves {:.1}% (occupant moving 25% of the time)",
            gate.saving_fraction() * 100.0
        ));

        section(
            &mut rows,
            "ablate_interference: 2.4 GHz coexistence (paper Section V)",
            "environment              track availability   estimates/min",
        );
        for row in &self.interference {
            rows.push(format!(
                "  {:<24} {:>8.1}%           {:>8.1}",
                row.environment,
                100.0 * row.availability,
                row.estimates_per_min
            ));
        }

        section(
            &mut rows,
            "ablate_grid_search: SVM (C, gamma) sensitivity (paper borrows RedPin's setup)",
            "C        gamma    cv accuracy",
        );
        for point in &self.grid_search.points {
            rows.push(format!(
                "  {:<8} {:<8} {:>6.1}%",
                point.c,
                point.gamma,
                point.mean_accuracy * 100.0
            ));
        }
        let best = self.grid_search.best_point();
        rows.push(format!(
            "  best: C={} gamma={} at {:.1}% (defaults C=10, gamma=1)",
            best.c,
            best.gamma,
            best.mean_accuracy * 100.0
        ));

        section(
            &mut rows,
            "ablate_environment: shadowing severity vs classification accuracy",
            "shadowing sigma   svm accuracy   proximity accuracy",
        );
        for row in &self.environment {
            rows.push(format!(
                "  {:>11.1} dB   {:>10.1}%   {:>16.1}%",
                row.sigma_db,
                row.svm * 100.0,
                row.proximity * 100.0
            ));
        }

        section(
            &mut rows,
            "ablate_beacon_density: antennas removed from the paper house",
            "beacons   svm accuracy   proximity accuracy",
        );
        for row in &self.beacon_density {
            rows.push(format!(
                "  {:>7}   {:>10.1}%   {:>16.1}%",
                row.beacons,
                row.svm * 100.0,
                row.proximity * 100.0
            ));
        }
        rows
    }

    fn assert_invariants(&self) {
        let rbf = self.technique("svm-rbf (paper)");
        let proximity = self.technique("proximity (prev. work)");
        let trilateration = self.technique("trilateration (discarded)");
        assert!(
            rbf > proximity,
            "SVM-RBF ({rbf:.3}) must beat proximity ({proximity:.3})"
        );
        for (name, accuracy) in &self.classifier {
            assert!(
                *name == "trilateration (discarded)" || *accuracy > trilateration,
                "{name} ({accuracy:.3}) must beat trilateration ({trilateration:.3})"
            );
        }

        let (hold, drop) = (self.loss_hold[0], self.loss_hold[1]);
        assert!(
            hold.1 > drop.1,
            "{} availability {:.3} must exceed {} {:.3}",
            hold.0,
            hold.1,
            drop.0,
            drop.1
        );

        for pair in self.coefficient.windows(2) {
            assert!(
                pair[1].stability_std_m < pair[0].stability_std_m,
                "static std must fall as the coefficient rises: {:?}",
                pair
            );
        }
        for pair in self.scan_period.windows(2) {
            assert!(
                pair[1].raw_std_m < pair[0].raw_std_m,
                "raw std must fall as the scan period grows: {:?}",
                pair
            );
        }

        let [_, uncalibrated, calibrated] = self.calibration[..] else {
            panic!("three calibration rows");
        };
        assert!(
            calibrated.accuracy > uncalibrated.accuracy,
            "calibration must raise Nexus 5 accuracy: {:.3} -> {:.3}",
            uncalibrated.accuracy,
            calibrated.accuracy
        );

        assert!(
            self.accel_gate.gated_mw < self.accel_gate.always_on_mw,
            "gating must lower mean power"
        );

        let clean = self.interference[0].availability;
        for row in &self.interference[1..] {
            if row.environment.contains("jammer") {
                assert!(
                    row.availability < clean,
                    "{} must cut availability",
                    row.environment
                );
            } else {
                assert_eq!(
                    row.availability, clean,
                    "{} must not cut availability",
                    row.environment
                );
            }
        }

        let sparsest = self.beacon_density.last().expect("density rows");
        assert_eq!(sparsest.beacons, 2);
        assert!(
            sparsest.svm > sparsest.proximity,
            "with 2 beacons SVM ({:.3}) must beat proximity ({:.3})",
            sparsest.svm,
            sparsest.proximity
        );
    }
}
