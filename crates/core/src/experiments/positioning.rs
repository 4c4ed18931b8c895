//! The `positioning` arm: the filter × trilateration ablation and the
//! peer-relay mesh.

use super::{ExperimentCtx, ExperimentReport};
use crate::{
    collect_dataset, run_pipeline, run_pipeline_faulted, FilterKind, OccupancyModel,
    PipelineConfig, Scenario, MISSING_DISTANCE,
};
use roomsense_building::mobility::RoomSchedule;
use roomsense_building::presets;
use roomsense_ml::{
    Classifier, ConfusionMatrix, Dataset, ProximityClassifier, SvmParams, POSITION_FEATURE_WIDTH,
};
use roomsense_net::{
    BtRelayTransport, DeviceId, FailoverTransport, FaultyTransport, LinkHealthConfig,
    ObservationReport, PeerRelayConfig, PeerRelayTransport, SightedBeacon, Transport,
    WifiTransport,
};
use roomsense_sim::{exec, rng, FaultSchedule, FaultWindow, SimDuration, SimTime};
use roomsense_telemetry::Recorder;

/// One cell of the positioning ablation: a distance-filter choice, with or
/// without the trilateration feature block, evaluated on the same held-out
/// walk clean and faulted.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PositioningArmResult {
    /// Which track filter smoothed the distances.
    pub(crate) filter: FilterKind,
    /// Whether the trilateration block was appended to the features.
    pub(crate) trilateration: bool,
    /// Confusion matrix on the clean evaluation walk.
    pub(crate) clean: ConfusionMatrix,
    /// Confusion matrix on the faulted replay of the same walk.
    pub(crate) faulted: ConfusionMatrix,
}

/// The positioning-arm output: the filter × trilateration SVM ablation, the
/// proximity baseline, and the peer-relay mesh dual-outage study.
#[derive(Debug, Clone, PartialEq)]
pub struct PositioningResult {
    /// One cell per `(filter, trilateration)` combination.
    pub(crate) arms: Vec<PositioningArmResult>,
    /// The proximity baseline on the clean evaluation walk.
    pub(crate) proximity_clean: ConfusionMatrix,
    /// The proximity baseline on the faulted replay.
    pub(crate) proximity_faulted: ConfusionMatrix,
    /// Class names (rooms plus "outside").
    pub(crate) label_names: Vec<String>,
    /// Reports offered to the peer-relay mesh over the dual-outage drive.
    pub(crate) mesh_reports: u64,
    /// Distinct reports that reached the BMS by the end of the drive.
    pub(crate) mesh_delivered: u64,
    /// Reports carried out over phone-to-phone mesh hops.
    pub(crate) mesh_relayed: u64,
    /// Reports offered while BOTH direct channels were in outage.
    pub(crate) outage_reports: u64,
    /// In-outage reports the mesh eventually delivered.
    pub(crate) outage_delivered: u64,
    /// What the plain Wi-Fi→BT failover stack delivered on the same drive
    /// (its best case: no phone→phone exit path).
    pub(crate) failover_only_delivered: u64,
}

impl PositioningResult {
    /// Accuracy pair `(clean, faulted)` for one ablation cell.
    pub(crate) fn accuracy(&self, filter: FilterKind, trilateration: bool) -> Option<(f64, f64)> {
        self.arms
            .iter()
            .find(|a| a.filter == filter && a.trilateration == trilateration)
            .map(|a| (a.clean.accuracy(), a.faulted.accuracy()))
    }
}

impl ExperimentCtx {
    /// Runs the positioning ablation: every filter × trilateration cell trains
    /// its own SVM on its own collection walk, then all cells are evaluated on
    /// one shared held-out walk — once clean and once replayed through a seeded
    /// fault plan, so the accuracy gap isolates filter robustness. The mesh
    /// study then drives a dual Wi-Fi+BT outage through the peer relay.
    pub fn positioning(&self) -> PositioningResult {
        let seed = self.seed;
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
        let dual_outage = || FaultSchedule::new(vec![FaultWindow::new(outage_from, outage_until)]);
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
}

impl ExperimentReport for PositioningResult {
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
        assert!(
            self.mesh_relayed > 0,
            "the dual outage must exercise the mesh"
        );
        assert!(
            self.failover_only_delivered < self.mesh_delivered,
            "the mesh must beat the failover-only stack across the dual outage"
        );
    }
}
