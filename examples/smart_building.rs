//! Smart building management: occupancy-driven HVAC on an office floor.
//!
//! ```text
//! cargo run --release --example smart_building
//! ```
//!
//! The paper's motivating use-case end to end: several occupants carry
//! phones through an eight-office floor; each phone's reports reach the BMS
//! over the Bluetooth relay; the server classifies them into rooms and the
//! demand-response controller conditions only occupied offices. The run
//! ends with the HVAC savings report.

use roomsense::experiments::report_from_snapshots;
use roomsense::{
    collect_dataset, run_fleet, BatchConfig, FaultPlan, OccupancyModel, PipelineConfig, Scenario,
};
use roomsense_building::mobility::{MobilityModel, RandomWaypoint};
use roomsense_building::presets;
use roomsense_ml::SvmParams;
use roomsense_net::{
    BtRelayTransport, DemandResponseController, Retrying, ShardedBmsServer, Transport,
};
use roomsense_sim::{rng, SimDuration, SimTime};
use roomsense_telemetry::Recorder;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = 11;
    let scenario = Scenario::from_plan(presets::office_floor(), seed);
    println!("deployment: {}", scenario.plan());

    // Train the server model from the commissioning walk.
    let config = PipelineConfig::paper_android();
    let labelled = collect_dataset(&scenario, &config, SimDuration::from_secs(30), 2, seed);
    let model = OccupancyModel::fit(&labelled, &SvmParams::default())?;
    let server = ShardedBmsServer::new(Arc::new(model), 1);
    println!("server model trained from {} rows", labelled.data.len());

    // Four occupants wander for ten minutes, reporting over BT relay. The
    // fleet runner merges their scan cycles into one time-ordered stream,
    // exactly as the server would receive them.
    let duration = SimDuration::from_secs(600);
    let mut controller =
        DemandResponseController::new(scenario.plan().rooms().len(), SimDuration::from_secs(120));
    let walks: Vec<RandomWaypoint> = (0..4u64)
        .map(|occupant| {
            let mut walk_rng = rng::for_indexed(seed, "occupant-walk", occupant);
            RandomWaypoint::generate(scenario.plan(), 30, 1.2, SimTime::ZERO, &mut walk_rng)
        })
        .collect();
    let occupants: Vec<&dyn MobilityModel> = walks.iter().map(|w| w as _).collect();
    let events = run_fleet(
        &scenario,
        &config,
        &occupants,
        duration,
        seed,
        &FaultPlan::none(scenario.advertisers().len()),
        &BatchConfig::default(),
        &mut Recorder::default(),
    );

    // The BLE relay drops ~10% of first attempts (paper Section VII);
    // two retries push delivery above 99.9% at the cost of extra bursts.
    let mut transport = Retrying::new(BtRelayTransport::default(), 2);
    let mut transport_rng = rng::for_component(seed, "uplink");
    let mut delivered = 0usize;
    let mut attempted = 0usize;
    for event in &events {
        if event.record.snapshots.is_empty() {
            continue;
        }
        attempted += 1;
        let report = report_from_snapshots(event.device, event.at, &event.record.snapshots);
        if transport
            .send(event.at, &report, &mut transport_rng)
            .is_delivered()
        {
            delivered += 1;
            server.post_observation(report);
            controller.update(event.at, &server.occupancy());
        }
    }
    println!(
        "\nuplink: {delivered}/{attempted} reports delivered over bt-relay \
         (per-attempt success {:.1}%, {} bursts incl. retries)",
        transport.delivery_rate().unwrap_or(0.0) * 100.0,
        transport.telemetry().transport_events().len()
    );

    // Final occupancy table.
    println!(
        "\noccupancy table after {} simulated seconds:",
        duration.as_secs_f64()
    );
    let names = scenario.label_names();
    for (room, count) in server.occupancy() {
        println!("  {:<12} {count} occupant(s)", names[room]);
    }

    // The payoff: demand-response savings vs always-on conditioning.
    let report = controller.report(SimTime::ZERO + duration);
    println!("\ndemand response: {report}");
    println!(
        "(an always-on plant would have conditioned all {} rooms continuously)",
        controller.room_count()
    );
    Ok(())
}
