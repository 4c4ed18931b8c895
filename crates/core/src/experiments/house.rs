//! The paper-house recipe the arms share, one body per step: the operator
//! walk that commissions the SVM and its Fig 9 held-out scoring, the
//! occupants' walks, the report stream the phones post, the queued uplink,
//! the BMS's crash-restart ingest, and the uplink's energy price (Figs 2,
//! 10).

use crate::{
    collect_dataset, FleetEvent, LabelledDataset, OccupancyModel, PipelineConfig, Scenario,
    MISSING_DISTANCE,
};
use roomsense_building::mobility::RoomSchedule;
use roomsense_building::{presets, RoomId};
use roomsense_energy::{account, EnergyLedger, PowerProfile, UplinkArchitecture, UsageTimeline};
use roomsense_ml::{
    train_test_split, Classifier, ConfusionMatrix, Dataset, KnnClassifier, ProximityClassifier,
    StandardScaler, SvmParams,
};
use roomsense_net::{
    Delivery, ObservationReport, OccupancyEstimator, QueueingTransport, RoomLabel, SequenceStamper,
    ShardedBmsServer, Transport, TransportEvent,
};
use roomsense_sim::{rng, FaultSchedule, SimDuration, SimTime};
use roomsense_telemetry::Recorder;
use std::sync::Arc;

use super::{report_from_snapshots, sequenced_report_from_snapshots};

/// The paper house under the Android pipeline and the operator's labelled
/// walk over it: 40 s at each spot, three laps.
pub(super) fn house_dataset(seed: u64) -> (Scenario, LabelledDataset) {
    let scenario = Scenario::from_plan(presets::paper_house(), seed);
    let labelled = collect_dataset(
        &scenario,
        &PipelineConfig::paper_android(),
        SimDuration::from_secs(40),
        3,
        seed,
    );
    (scenario, labelled)
}

/// The commissioned paper house: the SVM fitted with default parameters on
/// all of [`house_dataset`].
pub(super) fn commissioned_house(seed: u64) -> (Scenario, OccupancyModel) {
    let (scenario, labelled) = house_dataset(seed);
    let model = OccupancyModel::fit(&labelled, &SvmParams::default())
        .expect("collection walk yields a multi-class dataset");
    (scenario, model)
}

/// Splits `labelled` 70/30 with the `stream` RNG into the training rows
/// (with their beacon order) and the held-out test rows.
pub(super) fn held_out_split(
    labelled: &LabelledDataset,
    seed: u64,
    stream: &str,
) -> (LabelledDataset, Dataset) {
    let mut split_rng = rng::for_component(seed, stream);
    let (data, test) = train_test_split(&labelled.data, 0.3, &mut split_rng);
    let train = LabelledDataset {
        data,
        beacon_order: labelled.beacon_order.clone(),
    };
    (train, test)
}

/// The proximity baseline (the strongest beacon's room) scored on `test`.
pub(super) fn proximity_confusion(scenario: &Scenario, test: &Dataset) -> ConfusionMatrix {
    let proximity = ProximityClassifier::new(
        scenario.beacon_room_labels(),
        scenario.outside_label(),
        MISSING_DISTANCE,
    );
    let mut cm = ConfusionMatrix::new(scenario.label_names().len());
    for (row, label) in test.rows().iter().zip(test.labels()) {
        cm.record(*label, proximity.predict(row));
    }
    cm
}

/// kNN (k = 5) on features standardised like the SVM's, scored on `test`.
pub(super) fn knn_confusion(
    scenario: &Scenario,
    train: &Dataset,
    test: &Dataset,
) -> ConfusionMatrix {
    let scaler = StandardScaler::fit(train);
    let knn = KnnClassifier::fit(&scaler.transform_dataset(train), 5).expect("non-empty");
    let mut cm = ConfusionMatrix::new(scenario.label_names().len());
    for (row, label) in test.rows().iter().zip(test.labels()) {
        cm.record(*label, knn.predict(&scaler.transform(row)));
    }
    cm
}

/// Fits the default SVM on a [`held_out_split`] of `labelled` and returns
/// the held-out `(svm, proximity)` accuracies.
pub(super) fn svm_and_proximity(
    scenario: &Scenario,
    labelled: &LabelledDataset,
    seed: u64,
    stream: &str,
) -> (f64, f64) {
    let (train, test) = held_out_split(labelled, seed, stream);
    let model = OccupancyModel::fit(&train, &SvmParams::default()).expect("multi-class dataset");
    (
        model.evaluate(&test).accuracy(),
        proximity_confusion(scenario, &test).accuracy(),
    )
}

/// One walk per itinerary at 1.2 m/s from t = 0; walk `i` draws from the
/// indexed stream `(seed, stream, i)`.
pub(super) fn itinerary_walks(
    scenario: &Scenario,
    seed: u64,
    stream: &str,
    itineraries: &[&[(RoomId, SimDuration)]],
) -> Vec<RoomSchedule> {
    itineraries
        .iter()
        .enumerate()
        .map(|(i, visits)| {
            let mut r = rng::for_indexed(seed, stream, i as u64);
            RoomSchedule::generate(scenario.plan(), visits, 1.2, SimTime::ZERO, &mut r)
        })
        .collect()
}

/// The reports the phones post, one per event with a non-empty snapshot,
/// each at its cycle time and in event order. Sequenced reports carry each
/// device's next sequence number; the others carry `seq = 0`.
pub(super) fn report_stream(
    events: &[FleetEvent],
    sequenced: bool,
) -> Vec<(SimTime, ObservationReport)> {
    let mut stamper = SequenceStamper::new();
    events
        .iter()
        .filter(|e| !e.record.snapshots.is_empty())
        .map(|e| {
            let report = if sequenced {
                sequenced_report_from_snapshots(&mut stamper, e.device, e.at, &e.record.snapshots)
            } else {
                report_from_snapshots(e.device, e.at, &e.record.snapshots)
            };
            (e.at, report)
        })
        .collect()
}

/// Whether the server's belief about a device matches its true room. Before
/// its first report the server knows nothing, which counts as a hit only
/// when the device is truly outside.
pub(super) fn agrees_with_truth(
    believed: Option<RoomLabel>,
    true_room: Option<RoomId>,
    outside: RoomLabel,
) -> bool {
    let truth = true_room.map_or(outside, |r| r.index() as usize);
    believed.map_or(truth == outside, |b| b == truth)
}

/// Offers every report at its cycle time, then keeps flushing the backlog
/// for `drain` past the end of the run.
pub(super) fn pump_queue<T: Transport, R: rand::Rng + ?Sized>(
    queue: &mut QueueingTransport<T>,
    reports: &[(SimTime, ObservationReport)],
    duration: SimDuration,
    drain: SimDuration,
    rng: &mut R,
) -> Vec<Delivery> {
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

/// Capacity of the ack-lossy uplink queue. Sized so the short outages fit
/// in the backlog but a full blackout overflows a Wi-Fi-only uplink.
pub(super) const LOSSY_QUEUE_CAPACITY: usize = 256;

/// What [`lossy_ack_uplink`] delivered, with its queue's counters and the
/// chain's recorder.
pub(super) struct LossyUplink {
    /// Deliveries in arrival order, ties broken by `(device, seq)` so
    /// ingestion is identical across thread counts.
    pub(crate) deliveries: Vec<Delivery>,
    pub(crate) offered: u64,
    pub(crate) delivered: u64,
    pub(crate) dropped: u64,
    pub(crate) retransmits: u64,
    pub(crate) pending: usize,
    pub(crate) telemetry: Recorder,
}

/// Pumps the reports through a queue over `chain` that loses a quarter of
/// its acks, so retransmission duplicates and the reordering they cause
/// reach the server.
pub(super) fn lossy_ack_uplink<T: Transport, R: rand::Rng + ?Sized>(
    chain: T,
    reports: &[(SimTime, ObservationReport)],
    duration: SimDuration,
    drain: SimDuration,
    rng: &mut R,
) -> LossyUplink {
    let mut queue = QueueingTransport::new(chain, LOSSY_QUEUE_CAPACITY, SimDuration::from_secs(2))
        .with_ack_loss(0.25);
    let mut deliveries = pump_queue(&mut queue, reports, duration, drain, rng);
    deliveries.sort_by_key(|d| (d.at, d.report.device, d.report.seq));
    LossyUplink {
        deliveries,
        offered: queue.offered(),
        delivered: queue.delivered_reports(),
        dropped: queue.dropped(),
        retransmits: queue.retransmits(),
        pending: queue.pending(),
        telemetry: queue.telemetry().clone(),
    }
}

/// The BMS left standing after [`ingest_with_crashes`].
pub(super) struct Restarted {
    /// The server after the last delivery and the last crash.
    pub(crate) server: ShardedBmsServer,
    /// Crash windows that started before the end of the run.
    pub(crate) crashes: u64,
    /// Journal entries replayed across all restarts.
    pub(crate) replayed: u64,
}

/// Ingests `deliveries` (in arrival order) into a one-shard BMS that
/// checkpoints every 120 s. At each crash-window start up to `end_of_run`
/// the in-memory server is lost and restarts from its last checkpoint plus
/// the journal tail; a crash due at the same instant as a checkpoint comes
/// first. With `dedup` the server ingests through the idempotent
/// `(device, seq)` endpoint and journals only what it stored; without, it
/// posts and journals every delivery.
pub(super) fn ingest_with_crashes(
    estimator: &Arc<dyn OccupancyEstimator>,
    deliveries: &[Delivery],
    crash_schedule: &FaultSchedule,
    end_of_run: SimTime,
    dedup: bool,
) -> Restarted {
    let checkpoint_every = SimDuration::from_secs(120);
    let ingest = |server: &ShardedBmsServer, report: &ObservationReport| {
        if dedup {
            !server.ingest(report.clone()).is_duplicate()
        } else {
            server.post_observation(report.clone());
            true
        }
    };
    let mut run = Restarted {
        server: ShardedBmsServer::new(Arc::clone(estimator), 1),
        crashes: 0,
        replayed: 0,
    };
    let mut checkpoint = run.server.checkpoint();
    let mut checkpoint_len = 0usize;
    let mut next_checkpoint = SimTime::ZERO + checkpoint_every;
    let mut journal: Vec<ObservationReport> = Vec::new();
    let mut crash_starts = crash_schedule.windows().iter().map(|w| w.from).peekable();
    // The end of the run arrives last, bringing crashes but no report and
    // no checkpoint.
    let arrivals = deliveries.iter().map(|d| (d.at, Some(&d.report)));
    for (at, report) in arrivals.chain([(end_of_run, None)]) {
        loop {
            let checkpoint_due = report.is_some() && next_checkpoint <= at;
            let crash_due = crash_starts
                .peek()
                .is_some_and(|&from| from <= at && (!checkpoint_due || from <= next_checkpoint));
            if crash_due {
                crash_starts.next();
                run.server = ShardedBmsServer::restore(Arc::clone(estimator), checkpoint.clone())
                    .expect("untampered checkpoint");
                for report in &journal[checkpoint_len..] {
                    ingest(&run.server, report);
                }
                run.replayed += (journal.len() - checkpoint_len) as u64;
                run.crashes += 1;
            } else if checkpoint_due {
                checkpoint = run.server.checkpoint();
                checkpoint_len = journal.len();
                next_checkpoint += checkpoint_every;
            } else {
                break;
            }
        }
        if let Some(report) = report.filter(|r| ingest(&run.server, r)) {
            journal.push(report.clone());
        }
    }
    run
}

/// The Galaxy S3 Mini's energy account for an uplink: the phone scans for
/// `duration` and stays up `drain` longer while its queue drains.
pub(super) fn uplink_energy(
    transport_events: Vec<TransportEvent>,
    duration: SimDuration,
    drain: SimDuration,
    architecture: UplinkArchitecture,
) -> EnergyLedger {
    let timeline = UsageTimeline {
        duration: duration + drain,
        scan_active: duration,
        transport_events,
    };
    account(&PowerProfile::galaxy_s3_mini(), &timeline, architecture)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crowd;
    use roomsense_net::DeviceId;
    use roomsense_sim::FaultWindow;

    fn delivery(arrival_secs: u64, report_secs: u64) -> Delivery {
        let report = crowd::room_report(
            DeviceId::new((report_secs / 10 % 2) as u32),
            report_secs,
            SimTime::from_secs(report_secs),
            (report_secs / 10 % 3) as u16,
            1.0,
        );
        Delivery {
            report,
            at: SimTime::from_secs(arrival_secs),
        }
    }

    #[test]
    fn crash_restart_ingest_converges_to_the_crash_free_server() {
        let estimator: Arc<dyn OccupancyEstimator> = Arc::new(crowd::room_of);
        // One report every 10 s from 10 s to 300 s, plus a late duplicate of
        // the 130 s report arriving at 205 s.
        let mut deliveries: Vec<Delivery> = (1..=30).map(|k| delivery(k * 10, k * 10)).collect();
        deliveries.insert(20, delivery(205, 130));
        // Checkpoints fall at 120 s and 240 s. One crash comes before the
        // first, two fall between them, and one comes after the last
        // delivery.
        let crashes = FaultSchedule::new(
            [45, 145, 175, 350]
                .into_iter()
                .map(|from| {
                    FaultWindow::new(SimTime::from_secs(from), SimTime::from_secs(from + 5))
                })
                .collect(),
        );
        let run = ingest_with_crashes(
            &estimator,
            &deliveries,
            &crashes,
            SimTime::from_secs(400),
            true,
        );

        // By hand: the 45 s crash replays 10-40 s (4) onto the empty
        // checkpoint; the 145 s crash replays 120-140 s (3) and the 175 s
        // crash 120-170 s (6) onto the 120 s checkpoint; the 350 s crash
        // replays 240-300 s (7) onto the 240 s one. The duplicate is never
        // journalled.
        assert_eq!(run.crashes, 4);
        assert_eq!(run.replayed, 4 + 3 + 6 + 7);

        let crash_free = ShardedBmsServer::new(Arc::clone(&estimator), 1);
        for d in &deliveries {
            crash_free.ingest(d.report.clone());
        }
        assert_eq!(crash_free.stats().reports_duplicate, 1);
        assert_eq!(run.server.state_digest(), crash_free.state_digest());
    }
}
