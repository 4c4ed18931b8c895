//! The full application simulation: monitoring gates ranging (paper Fig 3).
//!
//! The pipeline in [`run_pipeline`](crate::run_pipeline) ranges every cycle;
//! the real app does not. It *monitors* until a region-entry event, ranges
//! while inside, and drops back to monitoring when the region exit timeout
//! fires — "the app has to be aware about the region code that has to be
//! monitored … the app is notified whenever a new iBeacon packet is
//! detected" (Section IV-C). Gating matters for energy: while outside the
//! building the app reports nothing and the uplink stays silent.

use crate::{run_pipeline, CycleRecord, PipelineConfig, Scenario};
use roomsense_building::mobility::MobilityModel;
use roomsense_ibeacon::{MonitorEvent, Region, RegionId, RegionMonitor, RegionMonitorConfig};
use roomsense_sim::SimDuration;
use roomsense_stack::app::{App, AppEvent, AppState, Transition};

/// The outcome of one full app simulation.
///
/// Kept public: paper behaviour (Fig 3) that only unit tests run.
#[derive(Debug, Clone)]
pub struct AppRun {
    /// Every scan cycle, with `reported[i]` telling whether cycle `i`'s
    /// output was actually reported (ranging active).
    pub records: Vec<CycleRecord>,
    /// Whether each cycle was reported to the server.
    pub reported: Vec<bool>,
    /// The app's full transition log.
    pub transitions: Vec<Transition>,
}

impl AppRun {
    /// The cycles that produced server reports.
    ///
    /// Kept public: paper behaviour (Fig 3) that only unit tests run.
    pub fn reported_records(&self) -> impl Iterator<Item = &CycleRecord> {
        self.records
            .iter()
            .zip(&self.reported)
            .filter_map(|(r, reported)| reported.then_some(r))
    }

    /// Fraction of cycles spent ranging — the duty cycle the energy model
    /// charges for.
    ///
    /// Kept public: paper behaviour (Fig 3) that only unit tests run.
    pub fn ranging_duty(&self) -> f64 {
        if self.reported.is_empty() {
            return 0.0;
        }
        self.reported.iter().filter(|r| **r).count() as f64 / self.reported.len() as f64
    }
}

/// Runs the complete Fig 3 application: boot, monitor the deployment's
/// region, range while inside it.
///
/// The monitoring service observes each cycle's beacon sightings; its
/// enter/exit events drive the [`App`] state machine, and a cycle's output
/// counts as reported only if the app was ranging when the cycle ended.
///
/// Kept public: paper behaviour (Fig 3) that only unit tests run.
pub fn run_app<M: MobilityModel + ?Sized>(
    scenario: &Scenario,
    config: &PipelineConfig,
    mobility: &M,
    duration: SimDuration,
    seed: u64,
) -> AppRun {
    let records = run_pipeline(scenario, config, mobility, duration, seed);
    // One region for the whole deployment, keyed on the proximity UUID —
    // the paper's setup ("the app and the transmitter has to be configured
    // on the same Region UUID").
    let region_id = RegionId::new(1);
    let mut monitor = RegionMonitor::new(RegionMonitorConfig {
        exit_timeout: SimDuration::from_secs(10),
    });
    monitor.add_region(region_id, Region::with_uuid(scenario.uuid()));

    let mut app = App::new();
    let boot_at = roomsense_sim::SimTime::ZERO;
    app.handle(boot_at, AppEvent::BootCompleted);
    app.handle(boot_at, AppEvent::BluetoothEnabled);

    let mut reported = Vec::with_capacity(records.len());
    for record in &records {
        // The monitoring service sees the raw sightings of this cycle.
        let mut events: Vec<MonitorEvent> = Vec::new();
        for obs in &record.observations {
            events.extend(monitor.observe(record.at, &obs.identity));
        }
        events.extend(monitor.tick(record.at));
        for event in events {
            let app_event = match event {
                MonitorEvent::Entered { region, .. } => AppEvent::RegionEntered(region),
                MonitorEvent::Exited { region, .. } => AppEvent::RegionExited(region),
            };
            app.handle(record.at, app_event);
        }
        reported.push(app.state() == AppState::Ranging);
    }
    AppRun {
        records,
        reported,
        transitions: app.log().to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roomsense_building::mobility::{StaticPosition, WaypointWalk};
    use roomsense_building::presets;
    use roomsense_geom::{Point, Polyline};
    use roomsense_sim::SimTime;

    #[test]
    fn inside_user_ranges_every_cycle_after_entry() {
        let scenario = Scenario::from_plan(presets::paper_house(), 3);
        let run = run_app(
            &scenario,
            &PipelineConfig::paper_android(),
            &StaticPosition::new(Point::new(2.0, 2.0)),
            SimDuration::from_secs(60),
            3,
        );
        // Entry happens on the first sighted cycle; nearly everything after
        // is reported.
        assert!(run.ranging_duty() > 0.9, "duty {}", run.ranging_duty());
        assert!(run.transitions.iter().any(|t| t.to == AppState::Ranging));
    }

    #[test]
    fn distant_user_never_ranges() {
        let scenario = Scenario::from_plan(presets::paper_house(), 4);
        // 150 m from the house: ~19 dB below sensitivity — even fading
        // peaks cannot reach the phone. (At ~70 m, occasional Rayleigh
        // peaks produce the real-world "region flapping" effect instead.)
        let run = run_app(
            &scenario,
            &PipelineConfig::paper_android(),
            &StaticPosition::new(Point::new(160.0, 4.0)),
            SimDuration::from_secs(60),
            4,
        );
        assert_eq!(run.ranging_duty(), 0.0);
        assert_eq!(run.reported_records().count(), 0);
        // The app reached monitoring but never ranging.
        assert!(run.transitions.iter().all(|t| t.to != AppState::Ranging));
    }

    #[test]
    fn walk_in_then_out_enters_and_exits() {
        let scenario = Scenario::from_plan(presets::paper_house(), 5);
        // Walk in from 160 m away, through the house, and back out,
        // dwelling inside for a while.
        let path = Polyline::new(vec![
            Point::new(160.0, 2.0),
            Point::new(7.0, 2.0),
            Point::new(7.0, 2.0),
            Point::new(160.0, 2.0),
        ])
        .expect("valid path");
        let walk = WaypointWalk::new(path, 2.0, SimTime::ZERO);
        let duration = walk.duration() + SimDuration::from_secs(30);
        let run = run_app(
            &scenario,
            &PipelineConfig::paper_android(),
            &walk,
            duration,
            5,
        );
        let entered = run
            .transitions
            .iter()
            .any(|t| matches!(t.event, AppEvent::RegionEntered(_)));
        let exited = run
            .transitions
            .iter()
            .any(|t| matches!(t.event, AppEvent::RegionExited(_)));
        assert!(entered, "never entered: {:?}", run.transitions);
        assert!(exited, "never exited: {:?}", run.transitions);
        // Duty strictly between 0 and 1: gated both ways.
        let duty = run.ranging_duty();
        assert!(duty > 0.1 && duty < 0.95, "duty {duty}");
    }

    #[test]
    fn gating_is_deterministic() {
        let scenario = Scenario::from_plan(presets::paper_house(), 6);
        let run = |seed| {
            let r = run_app(
                &scenario,
                &PipelineConfig::paper_android(),
                &StaticPosition::new(Point::new(2.0, 2.0)),
                SimDuration::from_secs(30),
                seed,
            );
            (r.reported, r.transitions)
        };
        assert_eq!(run(9), run(9));
    }
}
