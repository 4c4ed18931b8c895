//! The paper-figure runners (Figs 4–11, the Section V sampling count and
//! the Section IV-A calibration): plotted by `repro`, not checksummed.

use super::house::{held_out_split, house_dataset, knn_confusion, proximity_confusion};
use super::ExperimentCtx;
use crate::{
    collect_dataset, run_pipeline, LabelledDataset, OccupancyModel, PipelineConfig, Scenario,
};
use roomsense_building::mobility::{StaticPosition, WaypointWalk};
use roomsense_building::presets;
use roomsense_energy::{
    account, Battery, BatteryTracePoint, PowerProfile, UplinkArchitecture, UsageTimeline,
};
use roomsense_geom::{Point, Polyline};
use roomsense_ibeacon::Minor;
use roomsense_ml::{k_fold, ConfusionMatrix, SvmParams};
use roomsense_net::{
    BtRelayTransport, DeviceId, ObservationReport, SightedBeacon, Transport, WifiTransport,
};
use roomsense_radio::DeviceRxProfile;
use roomsense_signal::metrics;
use roomsense_sim::{exec, rng, SimDuration, SimTime};

/// One static capture: the phone fixed at a known distance from a single
/// transmitter (the Figs 4/5/6 protocol).
#[derive(Debug, Clone, PartialEq)]
pub struct StaticCaptureResult {
    /// The true transmitter–receiver distance, metres.
    pub(crate) true_distance_m: f64,
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

impl ExperimentCtx {
    /// Runs the Figs 4/5/6 static capture: `duration` at `distance_m` from one
    /// transmitter with the given scan period and filter coefficient.
    pub fn static_capture(
        &self,
        config: &PipelineConfig,
        distance_m: f64,
        duration: SimDuration,
    ) -> StaticCaptureResult {
        let seed = self.seed;
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
    pub(crate) speed_mps: f64,
}

impl ExperimentCtx {
    /// Runs the Section V dynamic test at the given filter coefficient.
    pub fn dynamic_walk(&self, coefficient: f64, speed_mps: f64) -> DynamicWalkResult {
        let seed = self.seed;
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

impl ExperimentCtx {
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
    pub fn coefficient_sweep(
        &self,
        coefficients: &[f64],
        trials: u64,
    ) -> Vec<CoefficientSweepPoint> {
        let seed = self.seed;
        let cells: Vec<(usize, u64)> = (0..coefficients.len())
            .flat_map(|ci| (0..trials).map(move |trial| (ci, trial)))
            .collect();
        let chunk = (trials as usize).max(1);
        let outcomes: Vec<(f64, Option<usize>)> =
            exec::par_map_chunked(&cells, chunk, |_, &(ci, trial)| {
                let coefficient = coefficients[ci];
                let trial_seed = rng::derive_seed(seed, "coeff-sweep") ^ trial;
                let config = PipelineConfig::paper_android().with_coefficient(coefficient);
                let capture = ExperimentCtx::new(trial_seed).static_capture(
                    &config,
                    2.0,
                    SimDuration::from_secs(120),
                );
                let crossing = ExperimentCtx::new(trial_seed)
                    .dynamic_walk(coefficient, 1.2)
                    .crossover_cycle;
                (capture.smoothed_std(), crossing)
            });
        coefficients
            .iter()
            .enumerate()
            .map(|(ci, &coefficient)| {
                let per_coeff = &outcomes[ci * trials as usize..(ci + 1) * trials as usize];
                let stds: Vec<f64> = per_coeff.iter().map(|(std, _)| *std).collect();
                let crossings: Vec<usize> = per_coeff
                    .iter()
                    .filter_map(|(_, crossing)| *crossing)
                    .collect();
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
}

/// The Fig 9 experiment output.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassificationResult {
    /// The scene-analysis SVM (the paper's contribution).
    pub svm: ConfusionMatrix,
    /// The proximity baseline (the previous iOS work's technique).
    pub(crate) proximity: ConfusionMatrix,
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

impl ExperimentCtx {
    /// Runs the full Fig 9 protocol on the paper house: collect a labelled
    /// dataset with the operator walk, split train/test, train the SVM, and
    /// evaluate SVM vs proximity vs kNN on the same held-out rows.
    pub fn classification(&self) -> ClassificationResult {
        let seed = self.seed;
        let (scenario, labelled) = house_dataset(seed);
        let (train, test) = held_out_split(&labelled, seed, "classification-split");
        let model = OccupancyModel::fit(&train, &SvmParams::default())
            .expect("collection walk always yields a multi-class dataset");
        ClassificationResult {
            svm: model.evaluate(&test),
            proximity: proximity_confusion(&scenario, &test),
            knn: knn_confusion(&scenario, &train.data, &test),
            label_names: scenario.label_names(),
        }
    }
}

impl ExperimentCtx {
    /// Cross-validated SVM accuracy on the collection dataset (a robustness
    /// check the repro binary reports alongside Fig 9).
    pub fn cross_validation(&self, folds: usize) -> Vec<f64> {
        let seed = self.seed;
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

impl ExperimentCtx {
    /// Runs the Fig 10 protocol: the app ranges every scan cycle for
    /// `duration`, reporting each cycle over each uplink; average over `trials`
    /// runs (the paper averaged 10 measurements).
    pub fn energy(&self, duration: SimDuration, trials: u64) -> EnergyResult {
        let seed = self.seed;
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
                let bt_mj =
                    account(&profile, &bt_timeline, UplinkArchitecture::BluetoothRelay).total_mj();
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

impl ExperimentCtx {
    /// Runs the Fig 11 protocol: park each device at the same distance from the
    /// same transmitter and compare what they report.
    pub fn device_comparison(
        &self,
        devices: &[DeviceRxProfile],
        distance_m: f64,
        duration: SimDuration,
    ) -> Vec<DeviceComparisonRow> {
        devices
            .iter()
            .map(|device| {
                let config = PipelineConfig::paper_android().with_device(device.clone());
                let capture = self.static_capture(&config, distance_m, duration);
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

impl ExperimentCtx {
    /// Counts samples over a 10-second window with a 30 Hz beacon and a 2 s
    /// scan period — the paper's "five versus three hundred" example.
    pub fn sampling(&self) -> SamplingComparison {
        let seed = self.seed;
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

impl ExperimentCtx {
    /// Runs the paper's TX-power calibration loop against the simulated
    /// channel: "putting the device one meter away from the transmitter …
    /// changing the TX power field until the detected distance by the device is
    /// about one meter."
    ///
    /// Collects one-metre RSSI samples through the full pipeline, feeds them to
    /// the [`Calibrator`](roomsense_ibeacon::Calibrator), then verifies the
    /// resulting field with a fresh capture.
    pub fn calibration(&self) -> CalibrationOutcome {
        let seed = self.seed;
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longer_scan_period_reduces_raw_variance() {
        // The Fig 4 vs Fig 6 contrast.
        let two = ExperimentCtx::new(7).static_capture(
            &PipelineConfig::paper_android(),
            2.0,
            SimDuration::from_secs(240),
        );
        let five = ExperimentCtx::new(7).static_capture(
            &PipelineConfig::paper_android().with_scan_period(SimDuration::from_secs(5)),
            2.0,
            SimDuration::from_secs(240),
        );
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
        let capture = ExperimentCtx::new(8).static_capture(
            &PipelineConfig::paper_android(),
            2.0,
            SimDuration::from_secs(240),
        );
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
        let capture = ExperimentCtx::new(1).static_capture(
            &PipelineConfig::paper_android(),
            2.0,
            SimDuration::ZERO,
        );
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
    fn device_comparison_shows_the_gap() {
        let rows = ExperimentCtx::new(6).device_comparison(
            &[
                DeviceRxProfile::galaxy_s3_mini(),
                DeviceRxProfile::nexus_5(),
            ],
            2.0,
            SimDuration::from_secs(120),
        );
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
