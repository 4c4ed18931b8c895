//! Demand-response HVAC/lighting control from occupancy.
//!
//! The paper's motivation: "it is possible to avoid energy wastes using the
//! HVAC system only when needed" and "turn on and off the lights according
//! to the actual needs". The controller conditions each room only while
//! occupied (plus a hold-off so brief absences don't cycle the plant), and
//! reports how much conditioning time demand-response saved against an
//! always-on baseline.

use crate::{OccupancyView, RoomLabel};
use roomsense_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt;

/// Whether a room's HVAC/lighting is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum HvacState {
    /// Conditioning the room.
    On,
    /// Idle.
    Off,
}

impl fmt::Display for HvacState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HvacState::On => f.write_str("on"),
            HvacState::Off => f.write_str("off"),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct RoomPlant {
    state: HvacState,
    last_occupied: Option<SimTime>,
    on_since: Option<SimTime>,
    total_on: SimDuration,
}

impl Default for RoomPlant {
    fn default() -> Self {
        RoomPlant {
            state: HvacState::Off,
            last_occupied: None,
            on_since: None,
            total_on: SimDuration::ZERO,
        }
    }
}

/// Savings summary produced by [`DemandResponseController::report`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DemandResponseReport {
    /// Total conditioning time an always-on plant would have used
    /// (rooms × elapsed time).
    pub baseline: SimDuration,
    /// Conditioning time actually used.
    pub actual: SimDuration,
    /// The part of `actual` driven purely by expired occupancy evidence
    /// (the controller fails safe and keeps conditioning a room whose last
    /// report has outlived its TTL — this measures the cost of doing so).
    pub stale: SimDuration,
    /// Estimated person-seconds spent inside conditioned rooms — the
    /// integral of each conditioned room's (estimated) headcount over its
    /// on-time.
    pub(crate) person_seconds: f64,
}

impl DemandResponseReport {
    /// The saved fraction in `[0, 1]`.
    pub fn savings_fraction(&self) -> f64 {
        if self.baseline.is_zero() {
            return 0.0;
        }
        1.0 - self.actual.as_secs_f64() / self.baseline.as_secs_f64()
    }
}

impl fmt::Display for DemandResponseReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hvac on {} of {} baseline ({:.0}% saved, {} on stale evidence, {:.0} person-s served)",
            self.actual,
            self.baseline,
            self.savings_fraction() * 100.0,
            self.stale,
            self.person_seconds
        )
    }
}

/// Turns per-room occupancy into per-room plant state.
///
/// Call [`update`](Self::update) with the server's occupancy table whenever
/// it changes (or periodically); call [`report`](Self::report) at the end of
/// the run.
#[derive(Debug, Clone)]
pub struct DemandResponseController {
    rooms: Vec<RoomPlant>,
    /// Whether each room's *current* conditioning decision rests on expired
    /// evidence (set by [`update_view`](Self::update_view)).
    stale_driven: Vec<bool>,
    /// Closed-interval conditioning time accrued while stale-driven.
    stale_on: SimDuration,
    /// Estimated headcount per room at the last update (the integrand of
    /// `person_seconds`).
    last_counts: Vec<f64>,
    /// Closed-interval person-time accrued inside conditioned rooms.
    person_seconds: f64,
    hold_off: SimDuration,
    started: Option<SimTime>,
    last_update: Option<SimTime>,
}

impl DemandResponseController {
    /// Creates a controller for `room_count` rooms; a room stays conditioned
    /// for `hold_off` after its last occupant leaves.
    pub fn new(room_count: usize, hold_off: SimDuration) -> Self {
        DemandResponseController {
            rooms: vec![RoomPlant::default(); room_count],
            stale_driven: vec![false; room_count],
            stale_on: SimDuration::ZERO,
            last_counts: vec![0.0; room_count],
            person_seconds: 0.0,
            hold_off,
            started: None,
            last_update: None,
        }
    }

    /// Number of controlled rooms.
    pub fn room_count(&self) -> usize {
        self.rooms.len()
    }

    /// Applies a new occupancy snapshot at time `now`. All evidence is
    /// assumed fresh; use [`update_view`](Self::update_view) when the source
    /// carries staleness information.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes an earlier update, or a label is out of
    /// range.
    pub fn update(&mut self, now: SimTime, occupancy: &BTreeMap<RoomLabel, usize>) {
        self.accrue_stale(now);
        self.accrue_people(now);
        self.stale_driven.iter_mut().for_each(|s| *s = false);
        self.set_counts(|room| occupancy.get(&room).copied().unwrap_or(0) as f64);
        self.apply(now, occupancy);
    }

    /// Applies a staleness-aware occupancy view at time `now`.
    ///
    /// The controller **fails safe**: a room whose count rests entirely on
    /// expired evidence is still treated as occupied (switching off the
    /// plant on people who merely lost connectivity is the worse error),
    /// but the conditioning time spent that way is tracked and surfaced as
    /// `DemandResponseReport::stale`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes an earlier update, or a label is out of
    /// range.
    pub fn update_view(&mut self, now: SimTime, view: &OccupancyView) {
        self.accrue_stale(now);
        self.accrue_people(now);
        self.set_counts(|room| view.rooms.get(&room).map_or(0.0, |p| p.occupants as f64));
        for (room, flag) in self.stale_driven.iter_mut().enumerate() {
            *flag = view
                .rooms
                .get(&room)
                .is_some_and(|p| p.occupants > 0 && p.is_stale());
        }
        self.apply(now, &view.counts());
    }

    /// Closes the stale-conditioning interval `[last_update, now)` using the
    /// flags from the previous snapshot.
    fn accrue_stale(&mut self, now: SimTime) {
        if let Some(last) = self.last_update {
            let dt = now.saturating_since(last);
            for (plant, stale) in self.rooms.iter().zip(self.stale_driven.iter()) {
                if *stale && plant.state == HvacState::On {
                    self.stale_on += dt;
                }
            }
        }
    }

    /// Closes the person-time interval `[last_update, now)` using the
    /// headcounts from the previous snapshot: people in a conditioned
    /// room accrue person-seconds.
    fn accrue_people(&mut self, now: SimTime) {
        if let Some(last) = self.last_update {
            let dt = now.saturating_since(last).as_secs_f64();
            for (plant, count) in self.rooms.iter().zip(self.last_counts.iter()) {
                if plant.state == HvacState::On {
                    self.person_seconds += count * dt;
                }
            }
        }
    }

    /// Replaces the per-room headcount integrand for the next interval.
    fn set_counts(&mut self, count_of: impl Fn(RoomLabel) -> f64) {
        for (room, slot) in self.last_counts.iter_mut().enumerate() {
            *slot = count_of(room);
        }
    }

    fn apply(&mut self, now: SimTime, occupancy: &BTreeMap<RoomLabel, usize>) {
        if let Some(last) = self.last_update {
            assert!(now >= last, "updates must move forward in time");
        }
        self.started.get_or_insert(now);
        self.last_update = Some(now);
        for (room, plant) in self.rooms.iter_mut().enumerate() {
            let occupied = occupancy.get(&room).copied().unwrap_or(0) > 0;
            if occupied {
                plant.last_occupied = Some(now);
            }
            let should_be_on = match plant.last_occupied {
                Some(t) => now.saturating_since(t) <= self.hold_off,
                None => false,
            };
            match (plant.state, should_be_on) {
                (HvacState::Off, true) => {
                    plant.state = HvacState::On;
                    plant.on_since = Some(now);
                }
                (HvacState::On, false) => {
                    plant.state = HvacState::Off;
                    if let Some(since) = plant.on_since.take() {
                        plant.total_on += now.saturating_since(since);
                    }
                }
                _ => {}
            }
        }
    }

    /// Produces the savings report as of time `now` (closing any running
    /// plant intervals for accounting without turning them off).
    pub fn report(&self, now: SimTime) -> DemandResponseReport {
        let started = self.started.unwrap_or(now);
        let elapsed = now.saturating_since(started);
        let baseline = SimDuration::from_millis(elapsed.as_millis() * self.rooms.len() as u64);
        let mut actual = SimDuration::ZERO;
        for plant in &self.rooms {
            actual += plant.total_on;
            if let Some(since) = plant.on_since {
                actual += now.saturating_since(since);
            }
        }
        // Close the running stale interval for accounting, like `actual`
        // does for running plant intervals.
        let mut stale = self.stale_on;
        if let Some(last) = self.last_update {
            let tail = now.saturating_since(last);
            for (plant, flag) in self.rooms.iter().zip(self.stale_driven.iter()) {
                if *flag && plant.state == HvacState::On {
                    stale += tail;
                }
            }
        }
        // And the running person-time interval, with the current counts.
        let mut person_seconds = self.person_seconds;
        if let Some(last) = self.last_update {
            let dt = now.saturating_since(last).as_secs_f64();
            for (plant, count) in self.rooms.iter().zip(self.last_counts.iter()) {
                if plant.state == HvacState::On {
                    person_seconds += count * dt;
                }
            }
        }
        DemandResponseReport {
            baseline,
            actual,
            stale,
            person_seconds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn occ(rooms: &[usize]) -> BTreeMap<RoomLabel, usize> {
        rooms.iter().map(|r| (*r, 1usize)).collect()
    }

    #[test]
    fn occupied_room_turns_on() {
        let mut dr = DemandResponseController::new(2, SimDuration::from_secs(60));
        dr.update(SimTime::ZERO, &occ(&[0]));
        assert_eq!(dr.rooms[0].state, HvacState::On);
        assert_eq!(dr.rooms[1].state, HvacState::Off);
    }

    #[test]
    fn hold_off_bridges_short_absences() {
        let mut dr = DemandResponseController::new(1, SimDuration::from_secs(60));
        dr.update(SimTime::ZERO, &occ(&[0]));
        dr.update(SimTime::from_secs(30), &occ(&[])); // left briefly
        assert_eq!(dr.rooms[0].state, HvacState::On); // still within hold-off
        dr.update(SimTime::from_secs(61), &occ(&[]));
        assert_eq!(dr.rooms[0].state, HvacState::Off);
    }

    #[test]
    fn savings_match_duty_cycle() {
        let mut dr = DemandResponseController::new(2, SimDuration::ZERO);
        // Room 0 occupied for the first half of a 100 s run; room 1 never.
        dr.update(SimTime::ZERO, &occ(&[0]));
        dr.update(SimTime::from_secs(50), &occ(&[]));
        dr.update(SimTime::from_secs(100), &occ(&[]));
        let report = dr.report(SimTime::from_secs(100));
        assert_eq!(report.baseline, SimDuration::from_secs(200));
        assert_eq!(report.actual, SimDuration::from_secs(50));
        assert!((report.savings_fraction() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn running_interval_counts_in_report() {
        let mut dr = DemandResponseController::new(1, SimDuration::from_secs(600));
        dr.update(SimTime::ZERO, &occ(&[0]));
        let report = dr.report(SimTime::from_secs(40));
        assert_eq!(report.actual, SimDuration::from_secs(40));
    }

    #[test]
    fn empty_run_reports_zero_savings() {
        let dr = DemandResponseController::new(3, SimDuration::from_secs(60));
        let report = dr.report(SimTime::from_secs(10));
        assert_eq!(report.savings_fraction(), 0.0);
    }

    fn view(now_secs: u64, rooms: &[(usize, usize, usize)]) -> OccupancyView {
        OccupancyView {
            at: SimTime::from_secs(now_secs),
            ttl: SimDuration::from_secs(30),
            rooms: rooms
                .iter()
                .map(|(room, occupants, fresh)| {
                    (
                        *room,
                        crate::RoomPresence {
                            occupants: *occupants,
                            fresh: *fresh,
                        },
                    )
                })
                .collect(),
        }
    }

    #[test]
    fn stale_occupied_room_stays_conditioned_but_is_accounted() {
        let mut dr = DemandResponseController::new(1, SimDuration::ZERO);
        // Fresh evidence for the first 100 s, then the uplink dies and the
        // view goes stale for the next 100 s.
        dr.update_view(SimTime::ZERO, &view(0, &[(0, 1, 1)]));
        dr.update_view(SimTime::from_secs(100), &view(100, &[(0, 1, 0)]));
        // Fail-safe: the room is still conditioned.
        assert_eq!(dr.rooms[0].state, HvacState::On);
        let report = dr.report(SimTime::from_secs(200));
        assert_eq!(report.actual, SimDuration::from_secs(200));
        // Only the second half ran on expired evidence.
        assert_eq!(report.stale, SimDuration::from_secs(100));
    }

    #[test]
    fn fresh_views_accrue_no_stale_time() {
        let mut dr = DemandResponseController::new(2, SimDuration::ZERO);
        dr.update_view(SimTime::ZERO, &view(0, &[(0, 2, 2)]));
        dr.update_view(SimTime::from_secs(60), &view(60, &[(0, 2, 1)]));
        let report = dr.report(SimTime::from_secs(120));
        assert_eq!(report.stale, SimDuration::ZERO);
        assert_eq!(report.actual, SimDuration::from_secs(120));
    }

    #[test]
    fn recovery_stops_the_stale_clock() {
        let mut dr = DemandResponseController::new(1, SimDuration::ZERO);
        dr.update_view(SimTime::ZERO, &view(0, &[(0, 1, 0)])); // stale from the start
        dr.update_view(SimTime::from_secs(50), &view(50, &[(0, 1, 1)])); // link back
        let report = dr.report(SimTime::from_secs(100));
        assert_eq!(report.stale, SimDuration::from_secs(50));
        assert_eq!(report.actual, SimDuration::from_secs(100));
    }

    #[test]
    fn empty_stale_room_is_not_conditioned() {
        // Staleness never *turns on* a plant: an empty room with expired
        // evidence stays off.
        let mut dr = DemandResponseController::new(1, SimDuration::ZERO);
        dr.update_view(SimTime::ZERO, &view(0, &[(0, 0, 0)]));
        assert_eq!(dr.rooms[0].state, HvacState::Off);
        let report = dr.report(SimTime::from_secs(100));
        assert_eq!(report.stale, SimDuration::ZERO);
    }

    #[test]
    fn plain_update_clears_stale_flags() {
        let mut dr = DemandResponseController::new(1, SimDuration::ZERO);
        dr.update_view(SimTime::ZERO, &view(0, &[(0, 1, 0)]));
        // A plain (fresh-by-definition) snapshot closes the stale interval.
        dr.update(SimTime::from_secs(40), &occ(&[0]));
        let report = dr.report(SimTime::from_secs(100));
        assert_eq!(report.stale, SimDuration::from_secs(40));
        assert_eq!(report.actual, SimDuration::from_secs(100));
    }

    #[test]
    #[should_panic(expected = "forward in time")]
    fn backwards_update_panics() {
        let mut dr = DemandResponseController::new(1, SimDuration::ZERO);
        dr.update(SimTime::from_secs(10), &occ(&[]));
        dr.update(SimTime::from_secs(5), &occ(&[]));
    }
}
