//! Quickstart: instrument a house, train the occupancy model, track a user.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! This walks through the paper's full deployment story in one file:
//!
//! 1. instrument the five-room test house with one iBeacon per room;
//! 2. run the data-collection phase (an operator walks every room);
//! 3. train the scene-analysis SVM on the server;
//! 4. let a user wander the house and watch the live room predictions.

use roomsense::{
    collect_dataset, features_from_snapshots, run_pipeline, OccupancyModel, PipelineConfig,
    Scenario,
};
use roomsense_building::mobility::{MobilityModel, RoomSchedule};
use roomsense_building::presets;
use roomsense_ml::SvmParams;
use roomsense_sim::{rng, SimDuration, SimTime};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = 7;

    // 1. Deployment: the paper's test house, one beacon per room.
    let scenario = Scenario::from_plan(presets::paper_house(), seed);
    println!("deployment: {}", scenario.plan());
    for site in scenario.plan().beacon_sites() {
        let room = scenario.plan().room(site.room).expect("site rooms exist");
        println!(
            "  beacon minor={} in {} at {}",
            site.minor,
            room.name(),
            site.position
        );
    }

    // 2. Data collection: 40 s per room, three laps.
    let config = PipelineConfig::paper_android();
    println!("\ncollecting training data with: {config}");
    let labelled = collect_dataset(&scenario, &config, SimDuration::from_secs(40), 3, seed);
    println!(
        "collected {} labelled rows over {} beacons",
        labelled.data.len(),
        labelled.beacon_order.len()
    );

    // 3. Server-side training.
    let model = OccupancyModel::fit(&labelled, &SvmParams::default())?;
    println!("trained: {model}");

    // 4. Live tracking of a fresh user who visits a few rooms, dwelling in
    //    each like a real occupant (the paper's test protocol: "we asked a
    //    user to move within a house and to indicate its actual location").
    let mut walk_rng = rng::for_component(seed, "quickstart-user");
    let itinerary: Vec<_> = [0u32, 2, 4, 1]
        .iter()
        .map(|r| {
            (
                roomsense_building::RoomId::new(*r),
                SimDuration::from_secs(30),
            )
        })
        .collect();
    let user = RoomSchedule::generate(
        scenario.plan(),
        &itinerary,
        1.3,
        SimTime::ZERO,
        &mut walk_rng,
    );
    let duration = user.end_time().expect("bounded walk") - SimTime::ZERO;
    let records = run_pipeline(&scenario, &config, &user, duration, seed ^ 0xff);

    println!("\nlive tracking ({} scan cycles):", records.len());
    println!("  t(s)   predicted      truth          ok?");
    let mut correct = 0usize;
    for record in &records {
        let features = features_from_snapshots(&record.snapshots, model.beacon_order());
        let predicted = model.predict_features(&features);
        let truth = record
            .true_room
            .map_or(scenario.outside_label(), |r| r.index() as usize);
        let ok = predicted == truth;
        correct += usize::from(ok);
        println!(
            "  {:>5.0}  {:<13} {:<13} {}",
            record.at.as_secs_f64(),
            model.label_names()[predicted],
            model.label_names()[truth],
            if ok { "yes" } else { "NO" }
        );
    }
    println!(
        "\nlive accuracy: {:.1}% over {} cycles",
        100.0 * correct as f64 / records.len() as f64,
        records.len()
    );
    Ok(())
}
