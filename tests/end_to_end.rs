//! End-to-end integration: radio → phone → uplink → BMS → HVAC.

use roomsense::experiments::report_from_snapshots;
use roomsense::{collect_dataset, run_pipeline, OccupancyModel, PipelineConfig, Scenario};
use roomsense_building::mobility::{MobilityModel, RoomSchedule};
use roomsense_building::{presets, RoomId};
use roomsense_ml::SvmParams;
use roomsense_net::{
    BtRelayTransport, DemandResponseController, DeviceId, ShardedBmsServer, Transport,
    WifiTransport,
};
use roomsense_sim::{rng, SimDuration, SimTime};
use std::sync::Arc;

const SEED: u64 = 2015;

fn trained_scenario() -> (Scenario, OccupancyModel) {
    let scenario = Scenario::from_plan(presets::paper_house(), SEED);
    let labelled = collect_dataset(
        &scenario,
        &PipelineConfig::paper_android(),
        SimDuration::from_secs(40),
        3,
        SEED,
    );
    let model = OccupancyModel::fit(&labelled, &SvmParams::default())
        .expect("collection walk yields a trainable dataset");
    (scenario, model)
}

/// A dwelling occupant's reports, posted through a real transport, must put
/// the right room in the server's occupancy table most of the time.
#[test]
fn server_tracks_a_dwelling_occupant() {
    let (scenario, model) = trained_scenario();
    let server = ShardedBmsServer::new(Arc::new(model), 1);
    let config = PipelineConfig::paper_android();

    let mut walk_rng = rng::for_component(SEED, "e2e-user");
    let itinerary = [
        (RoomId::new(0), SimDuration::from_secs(60)),
        (RoomId::new(1), SimDuration::from_secs(60)),
    ];
    let user = RoomSchedule::generate(
        scenario.plan(),
        &itinerary,
        1.2,
        SimTime::ZERO,
        &mut walk_rng,
    );
    let duration = user.end_time().expect("bounded") - SimTime::ZERO;
    let records = run_pipeline(&scenario, &config, &user, duration, SEED ^ 1);

    let mut transport = WifiTransport::default();
    let mut transport_rng = rng::for_component(SEED, "e2e-uplink");
    let device = DeviceId::new(42);
    let mut matches = 0usize;
    let mut checked = 0usize;
    for record in &records {
        if record.snapshots.is_empty() {
            continue;
        }
        let report = report_from_snapshots(device, record.at, &record.snapshots);
        if transport
            .send(record.at, &report, &mut transport_rng)
            .is_delivered()
        {
            server.post_observation(report);
        }
        if let (Some(server_room), Some(true_room)) = (server.room_of(device), record.true_room) {
            checked += 1;
            if server_room == true_room.index() as usize {
                matches += 1;
            }
        }
    }
    assert!(checked > 20, "need a real trace, got {checked} checks");
    let rate = matches as f64 / checked as f64;
    assert!(rate > 0.7, "server agreed with ground truth only {rate:.2}");
    assert!(server.report_count() > 20);
}

/// The Bluetooth relay loses some reports but the occupancy table still
/// converges; the demand-response controller only conditions visited rooms.
#[test]
fn lossy_relay_still_drives_demand_response() {
    let (scenario, model) = trained_scenario();
    let server = ShardedBmsServer::new(Arc::new(model), 1);
    let config = PipelineConfig::paper_android();
    let room_count = scenario.plan().rooms().len();
    let mut controller = DemandResponseController::new(room_count, SimDuration::from_secs(60));

    let mut walk_rng = rng::for_component(SEED, "e2e-relay-user");
    let itinerary = [(RoomId::new(2), SimDuration::from_secs(120))];
    let user = RoomSchedule::generate(
        scenario.plan(),
        &itinerary,
        1.2,
        SimTime::ZERO,
        &mut walk_rng,
    );
    let duration = user.end_time().expect("bounded") - SimTime::ZERO;
    let records = run_pipeline(&scenario, &config, &user, duration, SEED ^ 2);

    let mut transport = BtRelayTransport::default();
    let mut transport_rng = rng::for_component(SEED, "e2e-relay");
    let device = DeviceId::new(7);
    let mut end = SimTime::ZERO;
    for record in &records {
        if record.snapshots.is_empty() {
            continue;
        }
        let report = report_from_snapshots(device, record.at, &record.snapshots);
        if transport
            .send(record.at, &report, &mut transport_rng)
            .is_delivered()
        {
            server.post_observation(report);
            controller.update(record.at, &server.occupancy());
        }
        end = record.at;
    }
    // The relay dropped some but not all reports.
    let rate = transport
        .delivery_rate()
        .expect("the run attempted at least one send");
    assert!((0.75..1.0).contains(&rate), "delivery rate {rate}");
    // The bedroom (room 2) was conditioned; far rooms were not always on.
    let savings = controller.report(end);
    assert!(
        savings.actual < savings.baseline,
        "demand response must beat always-on"
    );
    assert!(
        savings.savings_fraction() > 0.3,
        "saved {:.2}",
        savings.savings_fraction()
    );
}

/// The occupancy model slots into the BMS server via the estimator trait
/// and classifies reports built from real pipeline snapshots.
#[test]
fn model_is_a_working_server_estimator() {
    let (scenario, model) = trained_scenario();
    let config = PipelineConfig::paper_android();
    let mut walk_rng = rng::for_component(SEED, "e2e-estimator-user");
    let itinerary = [(RoomId::new(4), SimDuration::from_secs(80))];
    let user = RoomSchedule::generate(
        scenario.plan(),
        &itinerary,
        1.2,
        SimTime::ZERO,
        &mut walk_rng,
    );
    let duration = user.end_time().expect("bounded") - SimTime::ZERO;
    let records = run_pipeline(&scenario, &config, &user, duration, SEED ^ 3);
    let server = ShardedBmsServer::new(Arc::new(model), 1);
    for record in records.iter().filter(|r| !r.snapshots.is_empty()) {
        server.post_observation(report_from_snapshots(
            DeviceId::new(1),
            record.at,
            &record.snapshots,
        ));
    }
    // After dwelling in the study, the device must be placed there.
    assert_eq!(server.room_of(DeviceId::new(1)), Some(4));
}

/// Failure injection: a dead uplink leaves the server empty and the
/// demand-response plant off — the system fails safe, not weird.
#[test]
fn dead_uplink_fails_safe() {
    let (scenario, model) = trained_scenario();
    let server = ShardedBmsServer::new(Arc::new(model), 1);
    let config = PipelineConfig::paper_android();
    let mut controller =
        DemandResponseController::new(scenario.plan().rooms().len(), SimDuration::from_secs(60));
    let mut walk_rng = rng::for_component(SEED, "dead-uplink-user");
    let itinerary = [(RoomId::new(0), SimDuration::from_secs(60))];
    let user = RoomSchedule::generate(
        scenario.plan(),
        &itinerary,
        1.2,
        SimTime::ZERO,
        &mut walk_rng,
    );
    let duration = user.end_time().expect("bounded") - SimTime::ZERO;
    let records = run_pipeline(&scenario, &config, &user, duration, SEED ^ 9);

    // A transport that never delivers.
    let mut transport = roomsense_net::BtRelayTransport::new(0.0, SimDuration::from_millis(400));
    let mut transport_rng = rng::for_component(SEED, "dead-uplink");
    let mut end = SimTime::ZERO;
    for record in records.iter().filter(|r| !r.snapshots.is_empty()) {
        let report = report_from_snapshots(DeviceId::new(1), record.at, &record.snapshots);
        if transport
            .send(record.at, &report, &mut transport_rng)
            .is_delivered()
        {
            server.post_observation(report);
        }
        controller.update(record.at, &server.occupancy());
        end = record.at;
    }
    assert_eq!(transport.delivery_rate(), Some(0.0));
    assert_eq!(server.report_count(), 0);
    assert!(server.occupancy().is_empty());
    // No occupancy signal ⇒ the plant never ran.
    let report = controller.report(end);
    assert!(report.actual.is_zero(), "plant ran with no data: {report}");
}

/// Failure injection: an estimator that always errors out (returns None)
/// still leaves the server's bookkeeping consistent.
#[test]
fn unclassifiable_estimator_keeps_server_consistent() {
    let scenario = Scenario::from_plan(presets::paper_house(), SEED);
    let config = PipelineConfig::paper_android();
    let server = ShardedBmsServer::new(
        Arc::new(|_: &roomsense_net::ObservationReport| -> Option<usize> { None }),
        1,
    );
    let mut walk_rng = rng::for_component(SEED, "none-estimator-user");
    let itinerary = [(RoomId::new(1), SimDuration::from_secs(40))];
    let user = RoomSchedule::generate(
        scenario.plan(),
        &itinerary,
        1.2,
        SimTime::ZERO,
        &mut walk_rng,
    );
    let duration = user.end_time().expect("bounded") - SimTime::ZERO;
    let records = run_pipeline(&scenario, &config, &user, duration, SEED ^ 10);
    let mut posted = 0u64;
    for record in records.iter().filter(|r| !r.snapshots.is_empty()) {
        server.post_observation(report_from_snapshots(
            DeviceId::new(5),
            record.at,
            &record.snapshots,
        ));
        posted += 1;
    }
    let stats = server.stats();
    assert_eq!(stats.reports_stored, posted);
    assert_eq!(stats.reports_unclassified, posted);
    assert!(server.occupancy().is_empty());
    assert!(server.assignment_history(DeviceId::new(5)).is_empty());
    assert_eq!(server.room_of(DeviceId::new(5)), None);
}
