//! Integration: multi-occupant fleets, movement analytics, interference,
//! and the Android L upgrade path — the extensions working together.

use roomsense::experiments::report_from_snapshots;
use roomsense::{
    collect_dataset, run_fleet_batched, run_pipeline, BatchConfig, OccupancyModel, PipelineConfig,
    Scenario,
};
use roomsense_building::mobility::{MobilityModel, RoomSchedule, StaticPosition};
use roomsense_building::{presets, RoomId};
use roomsense_geom::Point;
use roomsense_ibeacon::Minor;
use roomsense_ml::SvmParams;
use roomsense_net::{DebouncedRoom, MovementAnalytics, ShardedBmsServer};
use roomsense_radio::Interferer;
use roomsense_sim::{rng, SimDuration, SimTime};
use std::sync::Arc;

const SEED: u64 = 77;

/// Several occupants stream through the fleet runner into one server; the
/// occupancy table accounts for everyone exactly once.
#[test]
fn fleet_populates_the_occupancy_table() {
    let scenario = Scenario::from_plan(presets::paper_house(), SEED);
    let config = PipelineConfig::paper_android();
    let labelled = collect_dataset(&scenario, &config, SimDuration::from_secs(40), 3, SEED);
    let model = OccupancyModel::fit(&labelled, &SvmParams::default()).expect("trains");
    let server = ShardedBmsServer::new(Arc::new(model), 1);

    // Three occupants parked in three different rooms.
    let kitchen = StaticPosition::new(Point::new(2.0, 2.0));
    let living = StaticPosition::new(Point::new(7.0, 2.0));
    let study = StaticPosition::new(Point::new(8.5, 6.0));
    let occupants: Vec<&dyn MobilityModel> = vec![&kitchen, &living, &study];
    let events = run_fleet_batched(
        &scenario,
        &config,
        &occupants,
        SimDuration::from_secs(120),
        SEED,
        &BatchConfig::default(),
    );
    for event in events.iter().filter(|e| !e.record.snapshots.is_empty()) {
        server.post_observation(report_from_snapshots(
            event.device,
            event.at,
            &event.record.snapshots,
        ));
    }
    let occupancy = server.occupancy();
    let total: usize = occupancy.values().sum();
    assert_eq!(total, 3, "every device counted once: {occupancy:?}");
    // The three most common rooms should be the right ones.
    assert_eq!(
        occupancy.get(&0).copied(),
        Some(1),
        "kitchen: {occupancy:?}"
    );
    assert_eq!(occupancy.get(&1).copied(), Some(1), "living: {occupancy:?}");
    assert_eq!(occupancy.get(&4).copied(), Some(1), "study: {occupancy:?}");
}

/// The movement-analytics chain recovers a scripted itinerary from raw
/// pipeline output posted through the server.
#[test]
fn analytics_recover_a_scripted_morning() {
    let scenario = Scenario::from_plan(presets::paper_house(), SEED);
    let config = PipelineConfig::paper_android();
    let labelled = collect_dataset(&scenario, &config, SimDuration::from_secs(40), 3, SEED);
    let model = OccupancyModel::fit(&labelled, &SvmParams::default()).expect("trains");
    let server = ShardedBmsServer::new(Arc::new(model), 1);

    let mut walk_rng = rng::for_component(SEED, "analytics-walk");
    let itinerary = [
        (RoomId::new(0), SimDuration::from_secs(90)),
        (RoomId::new(2), SimDuration::from_secs(90)),
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
    let device = roomsense_net::DeviceId::new(1);
    for record in records.iter().filter(|r| !r.snapshots.is_empty()) {
        server.post_observation(report_from_snapshots(device, record.at, &record.snapshots));
    }
    let history = server.assignment_history(device);
    assert!(history.len() > 40, "history too short: {}", history.len());

    let mut tracker = DebouncedRoom::new(2);
    let debounced: Vec<(SimTime, usize)> = history
        .iter()
        .filter_map(|(at, room)| tracker.observe(*at, *room).map(|r| (*at, r)))
        .collect();
    let analytics = MovementAnalytics::from_history(&debounced);
    // One real move: kitchen → bedroom.
    assert!(
        analytics.transition_count() <= 6,
        "debounced transitions exploded: {}",
        analytics.transition_count()
    );
    assert!(analytics.transitions().iter().any(|t| t.to == 2));
    // Dwell split roughly half and half between rooms 0 and 2.
    assert!(analytics.dwell(0).as_secs_f64() > 50.0);
    assert!(analytics.dwell(2).as_secs_f64() > 50.0);
}

/// A continuous jammer near the user visibly degrades tracking; normal
/// coexistence interference does not.
#[test]
fn jammer_degrades_tracking_but_wifi_ap_does_not() {
    let availability = |interferer: Option<Interferer>| -> f64 {
        let mut scenario = Scenario::from_plan(presets::two_transmitter_corridor(), SEED);
        if let Some(i) = interferer {
            scenario.add_interferer(i);
        }
        let records = run_pipeline(
            &scenario,
            &PipelineConfig::paper_android(),
            &StaticPosition::new(Point::new(2.5, 1.0)),
            SimDuration::from_secs(240),
            SEED,
        );
        let tracked = records
            .iter()
            .filter(|r| {
                r.snapshots
                    .iter()
                    .any(|s| s.identity.minor == Minor::new(0))
            })
            .count();
        tracked as f64 / records.len() as f64
    };
    let clean = availability(None);
    let coexistence = availability(Some(Interferer::busy_wifi_ap(Point::new(2.5, 1.5))));
    let jammed = availability(Some(Interferer::new(
        Point::new(2.5, 1.5),
        6.0,
        SimDuration::from_secs(1),
        1.0,
        0.97,
    )));
    assert!(clean > 0.95, "clean availability {clean}");
    assert!(
        (coexistence - clean).abs() < 0.05,
        "coexistence should be benign: {coexistence} vs {clean}"
    );
    assert!(
        jammed < clean - 0.2,
        "jammer too gentle: {jammed} vs {clean}"
    );
}

/// The Android L pipeline (the paper's future work) classifies at least as
/// well as the 4.x pipeline it replaces.
#[test]
fn android_l_is_no_worse_than_android_4x() {
    let scenario = Scenario::from_plan(presets::paper_house(), SEED);
    let accuracy = |config: &PipelineConfig| -> f64 {
        let labelled = collect_dataset(&scenario, config, SimDuration::from_secs(40), 3, SEED);
        let mut split_rng = rng::for_component(SEED, "androidl-split");
        let (train, test) = roomsense_ml::train_test_split(&labelled.data, 0.3, &mut split_rng);
        let model = OccupancyModel::fit(
            &roomsense::LabelledDataset {
                data: train,
                beacon_order: labelled.beacon_order.clone(),
            },
            &SvmParams::default(),
        )
        .expect("trains");
        model.evaluate(&test).accuracy()
    };
    let old = accuracy(&PipelineConfig::paper_android());
    let new = accuracy(&PipelineConfig::future_android_l());
    assert!(
        new >= old - 0.03,
        "android L ({new:.3}) regressed vs 4.x ({old:.3})"
    );
}
