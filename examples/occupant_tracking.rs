//! Occupant tracking: movements, dwell times, and transition logs.
//!
//! ```text
//! cargo run --release --example occupant_tracking
//! ```
//!
//! Paper Section I: the system "can be used to gather information about
//! their movements (thus identifying and tracking them) inside the
//! building". This example follows one occupant through the paper house for
//! a simulated morning, posts every classified observation to the BMS, and
//! then prints what the building learned: the transition log, the per-room
//! dwell table, and the debounced room track.

use roomsense::experiments::report_from_snapshots;
use roomsense::{collect_dataset, run_pipeline, OccupancyModel, PipelineConfig, Scenario};
use roomsense_building::mobility::{MobilityModel, RoomSchedule};
use roomsense_building::{presets, RoomId};
use roomsense_ml::SvmParams;
use roomsense_net::{DebouncedRoom, DeviceId, MovementAnalytics, ShardedBmsServer};
use roomsense_sim::{rng, SimDuration, SimTime};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = 23;
    let scenario = Scenario::from_plan(presets::paper_house(), seed);
    let config = PipelineConfig::paper_android();

    // Commission the deployment.
    let labelled = collect_dataset(&scenario, &config, SimDuration::from_secs(40), 3, seed);
    let model = OccupancyModel::fit(&labelled, &SvmParams::default())?;
    let names = model.label_names().to_vec();
    let server = ShardedBmsServer::new(Arc::new(model), 1);

    // A morning at home: kitchen breakfast, study work, bathroom break,
    // more study, wind down in the living room.
    let mut walk_rng = rng::for_component(seed, "morning");
    let morning = [
        (RoomId::new(0), SimDuration::from_secs(120)), // kitchen
        (RoomId::new(4), SimDuration::from_secs(180)), // study
        (RoomId::new(3), SimDuration::from_secs(40)),  // bathroom
        (RoomId::new(4), SimDuration::from_secs(150)), // study again
        (RoomId::new(1), SimDuration::from_secs(90)),  // living room
    ];
    let user = RoomSchedule::generate(scenario.plan(), &morning, 1.2, SimTime::ZERO, &mut walk_rng);
    let duration = user.end_time().expect("bounded walk") - SimTime::ZERO;
    println!(
        "tracking one occupant for {:.1} simulated minutes…",
        duration.as_secs_f64() / 60.0
    );

    // Stream reports to the server.
    let device = DeviceId::new(1);
    let records = run_pipeline(&scenario, &config, &user, duration, seed ^ 0xabc);
    for record in records.iter().filter(|r| !r.snapshots.is_empty()) {
        server.post_observation(report_from_snapshots(device, record.at, &record.snapshots));
    }

    // What the building learned.
    let history = server.assignment_history(device);
    println!("\nraw classification history: {} fixes", history.len());

    // Debounce to suppress boundary flicker before analytics.
    let mut tracker = DebouncedRoom::new(2);
    let debounced: Vec<(SimTime, usize)> = history
        .iter()
        .filter_map(|(at, room)| tracker.observe(*at, *room).map(|r| (*at, r)))
        .collect();
    let analytics = MovementAnalytics::from_history(&debounced);

    println!("\ntransition log (debounced):");
    for t in analytics.transitions() {
        println!(
            "  {:>6.0}s  {} -> {}",
            t.at.as_secs_f64(),
            names[t.from],
            names[t.to]
        );
    }

    println!("\ndwell table:");
    for (room, dwell) in analytics.dwell_table() {
        println!(
            "  {:<12} {:>6.1} min",
            names[*room],
            dwell.as_secs_f64() / 60.0
        );
    }
    println!(
        "\nfavourite room: {}; {} moves ({:.1} moves/hour)",
        analytics
            .favourite_room()
            .map_or("-", |r| names[r].as_str()),
        analytics.transition_count(),
        analytics.moves_per_hour()
    );

    // Sanity: the study should dominate the dwell table.
    let study_dwell = analytics.dwell(4);
    println!(
        "\n(the occupant truly spent 330 s in the study; tracked {:.0} s)",
        study_dwell.as_secs_f64()
    );
    Ok(())
}
