//! Occupant mobility: how a phone moves through the plan.
//!
//! Every model answers one question — *where is the occupant at time `t`?*
//! — via [`MobilityModel::position_at`]. The pipeline samples it once per
//! scan cycle; [`trace::ground_truth`](crate::trace::ground_truth) samples
//! it to build the reference the classifiers are scored against.
//!
//! The models mirror the paper's evaluation settings: a phone parked on a
//! tripod ([`StaticPosition`], Section V's static captures), a walk along a
//! fixed path ([`WaypointWalk`], the corridor pass), an unscripted wander
//! ([`RandomWaypoint`]), and a realistic room-by-room day
//! ([`RoomSchedule`], the occupancy traces of Section VI).

use crate::{FloorPlan, RoomId};
use rand::Rng;
use roomsense_geom::{Point, Polygon, Polyline};
use roomsense_sim::{SimDuration, SimTime};
use std::fmt;

/// Where an occupant (their phone) is at any instant.
///
/// Implementations must be deterministic: the same model asked the same
/// time twice answers the same position. Randomized walks draw all their
/// randomness at construction. The `Sync` bound lets fleet runners sample
/// many occupants from parallel workers; deterministic models are
/// immutable after construction, so this costs implementations nothing.
pub trait MobilityModel: Sync {
    /// The occupant's position at `at`.
    fn position_at(&self, at: SimTime) -> Point;

    /// When the model stops moving, if it ever does. Bounded walks freeze
    /// at their final waypoint after this instant.
    fn end_time(&self) -> Option<SimTime> {
        None
    }
}

/// A phone that never moves — the paper's tripod-mounted static captures.
///
/// # Examples
///
/// ```
/// use roomsense_building::mobility::{MobilityModel, StaticPosition};
/// use roomsense_geom::Point;
/// use roomsense_sim::SimTime;
///
/// let parked = StaticPosition::new(Point::new(2.5, 1.0));
/// assert_eq!(parked.position_at(SimTime::from_secs(999)), Point::new(2.5, 1.0));
/// assert!(parked.end_time().is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticPosition {
    position: Point,
}

impl StaticPosition {
    /// Parks the occupant at `position` forever.
    pub const fn new(position: Point) -> Self {
        StaticPosition { position }
    }
}

impl MobilityModel for StaticPosition {
    fn position_at(&self, _at: SimTime) -> Point {
        self.position
    }
}

impl fmt::Display for StaticPosition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parked at {}", self.position)
    }
}

/// A constant-speed walk along a fixed path.
///
/// Before `start` the occupant waits at the first waypoint; after the path
/// is exhausted they stand at the last one.
///
/// # Examples
///
/// ```
/// use roomsense_building::mobility::{MobilityModel, WaypointWalk};
/// use roomsense_geom::{Point, Polyline};
/// use roomsense_sim::{SimDuration, SimTime};
///
/// let path = Polyline::new(vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)]).unwrap();
/// let walk = WaypointWalk::new(path, 2.0, SimTime::ZERO);
/// assert_eq!(walk.duration(), SimDuration::from_secs(5));
/// assert_eq!(walk.position_at(SimTime::from_secs(1)), Point::new(2.0, 0.0));
/// ```
#[derive(Debug, Clone)]
pub struct WaypointWalk {
    path: Polyline,
    speed_mps: f64,
    start: SimTime,
}

impl WaypointWalk {
    /// Walks `path` at `speed_mps`, departing at `start`.
    ///
    /// # Panics
    ///
    /// Panics if the speed is not positive and finite.
    pub fn new(path: Polyline, speed_mps: f64, start: SimTime) -> Self {
        assert!(
            speed_mps > 0.0 && speed_mps.is_finite(),
            "walking speed must be positive and finite (got {speed_mps})"
        );
        WaypointWalk {
            path,
            speed_mps,
            start,
        }
    }

    /// How long the walk takes from departure to the final waypoint.
    pub fn duration(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.path.length() / self.speed_mps)
    }
}

impl MobilityModel for WaypointWalk {
    fn position_at(&self, at: SimTime) -> Point {
        let elapsed = at.saturating_since(self.start);
        self.path
            .point_at_distance(elapsed.as_secs_f64() * self.speed_mps)
    }

    fn end_time(&self) -> Option<SimTime> {
        Some(self.start + self.duration())
    }
}

impl fmt::Display for WaypointWalk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.0} m walk at {:.1} m/s from {}",
            self.path.length(),
            self.speed_mps,
            self.start
        )
    }
}

/// Draws a point uniformly inside a polygon by rejection sampling its
/// bounding box; falls back to the centroid for pathological shapes.
fn random_point_in<R: Rng + ?Sized>(polygon: &Polygon, rng: &mut R) -> Point {
    let bounds = polygon.bounding_box();
    for _ in 0..1024 {
        let p = Point::new(
            rng.gen_range(bounds.min().x..=bounds.max().x),
            rng.gen_range(bounds.min().y..=bounds.max().y),
        );
        if polygon.contains(p) {
            return p;
        }
    }
    polygon.centroid()
}

/// The classic random-waypoint mobility model: walk at constant speed to a
/// uniformly random point in a uniformly random room, repeat.
///
/// All randomness is drawn at generation time, so the walk is a pure
/// function of the RNG handed in.
#[derive(Debug, Clone)]
pub struct RandomWaypoint {
    walk: WaypointWalk,
}

impl RandomWaypoint {
    /// Generates a walk visiting `waypoints` random points across the
    /// plan's rooms at `speed_mps`, departing at `start`.
    ///
    /// # Panics
    ///
    /// Panics if the plan has no rooms, `waypoints < 2`, or the speed is
    /// not positive and finite.
    pub fn generate<R: Rng + ?Sized>(
        plan: &FloorPlan,
        waypoints: usize,
        speed_mps: f64,
        start: SimTime,
        rng: &mut R,
    ) -> Self {
        assert!(!plan.rooms().is_empty(), "plan has no rooms to wander");
        assert!(waypoints >= 2, "a walk needs at least two waypoints");
        let rooms = plan.rooms();
        let mut points = Vec::with_capacity(waypoints);
        while points.len() < waypoints {
            let room = &rooms[rng.gen_range(0..rooms.len())];
            let p = random_point_in(room.polygon(), rng);
            // A repeated point would add a zero-length leg; resample.
            if points
                .last()
                .is_some_and(|last: &Point| last.distance_to(p) < 1e-9)
            {
                continue;
            }
            points.push(p);
        }
        let path = Polyline::new(points).expect("at least two waypoints by construction");
        RandomWaypoint {
            walk: WaypointWalk::new(path, speed_mps, start),
        }
    }
}

impl MobilityModel for RandomWaypoint {
    fn position_at(&self, at: SimTime) -> Point {
        self.walk.position_at(at)
    }

    fn end_time(&self) -> Option<SimTime> {
        self.walk.end_time()
    }
}

/// A realistic day plan: visit rooms in order, wandering inside each for a
/// prescribed dwell, walking between them at constant speed.
///
/// This is the generator behind both the data-collection laps ("the
/// operator stays in each room long enough to label it") and the occupancy
/// traces the classifiers are evaluated on.
///
/// # Examples
///
/// ```
/// use roomsense_building::mobility::{MobilityModel, RoomSchedule};
/// use roomsense_building::{presets, RoomId};
/// use roomsense_sim::{SimDuration, SimTime};
///
/// let plan = presets::paper_house();
/// let mut rng = roomsense_sim::rng::for_component(7, "doc-walk");
/// let day = RoomSchedule::generate(
///     &plan,
///     &[(RoomId::new(0), SimDuration::from_secs(60))],
///     1.2,
///     SimTime::ZERO,
///     &mut rng,
/// );
/// assert!(day.end_time().expect("bounded") >= SimTime::from_secs(60));
/// ```
#[derive(Debug, Clone)]
pub struct RoomSchedule {
    walk: WaypointWalk,
}

impl RoomSchedule {
    /// Generates an itinerary walk: for each `(room, dwell)` entry the
    /// occupant wanders inside the room until `dwell` of walking time has
    /// passed, then heads to the next room in a straight line.
    ///
    /// # Panics
    ///
    /// Panics if the itinerary is empty, names an unknown room, or the
    /// speed is not positive and finite.
    pub fn generate<R: Rng + ?Sized>(
        plan: &FloorPlan,
        itinerary: &[(RoomId, SimDuration)],
        speed_mps: f64,
        start: SimTime,
        rng: &mut R,
    ) -> Self {
        assert!(
            !itinerary.is_empty(),
            "itinerary must visit at least one room"
        );
        assert!(
            speed_mps > 0.0 && speed_mps.is_finite(),
            "walking speed must be positive and finite (got {speed_mps})"
        );
        let mut waypoints: Vec<Point> = Vec::new();
        for (room_id, dwell) in itinerary {
            let room = plan
                .room(*room_id)
                .unwrap_or_else(|| panic!("itinerary visits unknown {room_id}"));
            let entry = random_point_in(room.polygon(), rng);
            waypoints.push(entry);
            // Wander inside the room until the dwell's path length is
            // covered, trimming the last leg to land exactly on time.
            let needed = dwell.as_secs_f64() * speed_mps;
            let mut covered = 0.0;
            let mut current = entry;
            while needed - covered > 1e-9 {
                let next = random_point_in(room.polygon(), rng);
                let leg = current.distance_to(next);
                if leg < 1e-9 {
                    continue;
                }
                let step = if covered + leg > needed {
                    current.lerp(next, (needed - covered) / leg)
                } else {
                    next
                };
                covered += current.distance_to(step);
                waypoints.push(step);
                current = step;
            }
        }
        if waypoints.len() < 2 {
            // A single zero-dwell visit still needs a well-formed path.
            waypoints.push(waypoints[0]);
        }
        let path = Polyline::new(waypoints).expect("at least two waypoints by construction");
        RoomSchedule {
            walk: WaypointWalk::new(path, speed_mps, start),
        }
    }

    /// The underlying waypoint walk.
    pub fn walk(&self) -> &WaypointWalk {
        &self.walk
    }
}

impl MobilityModel for RoomSchedule {
    fn position_at(&self, at: SimTime) -> Point {
        self.walk.position_at(at)
    }

    fn end_time(&self) -> Option<SimTime> {
        self.walk.end_time()
    }
}

impl fmt::Display for RoomSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "schedule: {}", self.walk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use roomsense_sim::rng;

    #[test]
    fn walk_waits_then_walks_then_freezes() {
        let path = Polyline::new(vec![Point::new(0.0, 0.0), Point::new(8.0, 0.0)]).unwrap();
        let walk = WaypointWalk::new(path, 2.0, SimTime::from_secs(10));
        // Before departure: at the first waypoint.
        assert_eq!(walk.position_at(SimTime::ZERO), Point::new(0.0, 0.0));
        // Mid-walk.
        assert_eq!(
            walk.position_at(SimTime::from_secs(12)),
            Point::new(4.0, 0.0)
        );
        // After arrival: frozen at the last waypoint.
        assert_eq!(
            walk.position_at(SimTime::from_secs(60)),
            Point::new(8.0, 0.0)
        );
        assert_eq!(walk.end_time(), Some(SimTime::from_secs(14)));
    }

    #[test]
    fn schedule_dwells_inside_the_scheduled_room() {
        let plan = presets::paper_house();
        let mut r = rng::for_component(3, "dwell-test");
        let itinerary = [(RoomId::new(2), SimDuration::from_secs(120))];
        let day = RoomSchedule::generate(&plan, &itinerary, 1.2, SimTime::ZERO, &mut r);
        // The whole dwell happens inside the bedroom.
        for s in 0..=120 {
            let p = day.position_at(SimTime::from_secs(s));
            assert_eq!(
                plan.room_at(p),
                Some(RoomId::new(2)),
                "left the room at {s} s: {p}"
            );
        }
        let end = day.end_time().expect("bounded");
        assert!(end >= SimTime::from_secs(120));
    }

    #[test]
    fn schedule_reaches_every_scheduled_room() {
        let plan = presets::paper_house();
        let mut r = rng::for_component(9, "multi-room");
        let itinerary = [
            (RoomId::new(0), SimDuration::from_secs(40)),
            (RoomId::new(4), SimDuration::from_secs(40)),
        ];
        let day = RoomSchedule::generate(&plan, &itinerary, 1.2, SimTime::ZERO, &mut r);
        let end = day.end_time().expect("bounded");
        let mut seen = std::collections::BTreeSet::new();
        let mut t = SimTime::ZERO;
        while t <= end {
            if let Some(room) = plan.room_at(day.position_at(t)) {
                seen.insert(room.index());
            }
            t += SimDuration::from_millis(500);
        }
        assert!(seen.contains(&0) && seen.contains(&4), "visited {seen:?}");
    }

    #[test]
    fn random_waypoint_stays_inside_the_plan() {
        let plan = presets::office_floor();
        let bounds = plan
            .rooms()
            .iter()
            .map(|r| r.polygon().bounding_box())
            .reduce(|a, b| a.union(&b))
            .expect("rooms");
        let mut r = rng::for_component(11, "rw-test");
        let wander = RandomWaypoint::generate(&plan, 12, 1.2, SimTime::ZERO, &mut r);
        let end = wander.end_time().expect("bounded");
        let mut t = SimTime::ZERO;
        while t <= end {
            assert!(bounds.contains(wander.position_at(t)));
            t += SimDuration::from_secs(1);
        }
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let plan = presets::paper_house();
        let itinerary = [
            (RoomId::new(1), SimDuration::from_secs(30)),
            (RoomId::new(3), SimDuration::from_secs(30)),
        ];
        let gen = |seed: u64| {
            let mut r = rng::for_component(seed, "determinism");
            RoomSchedule::generate(&plan, &itinerary, 1.2, SimTime::ZERO, &mut r)
        };
        let (a, b, c) = (gen(5), gen(5), gen(6));
        assert_eq!(a.walk.path.waypoints(), b.walk.path.waypoints());
        assert_ne!(a.walk.path.waypoints(), c.walk.path.waypoints());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// A schedule's dwell time in each visited room is at least the
            /// requested dwell (transit adds more, never less).
            #[test]
            fn schedule_duration_covers_dwells(seed in 0u64..500, dwell_s in 1u64..90) {
                let plan = presets::paper_house();
                let itinerary = [
                    (RoomId::new(0), SimDuration::from_secs(dwell_s)),
                    (RoomId::new(2), SimDuration::from_secs(dwell_s)),
                ];
                let mut r = rng::for_component(seed, "prop-schedule");
                let day = RoomSchedule::generate(&plan, &itinerary, 1.2, SimTime::ZERO, &mut r);
                let total = day.walk().duration();
                prop_assert!(total >= SimDuration::from_secs(2 * dwell_s - 1));
            }

            /// Walk positions never leave the path's bounding box.
            #[test]
            fn walk_stays_on_its_path(at_s in 0u64..1000) {
                let path = Polyline::new(
                    vec![Point::new(0.0, 0.0), Point::new(6.0, 0.0), Point::new(6.0, 4.0)],
                ).unwrap();
                let walk = WaypointWalk::new(path, 1.5, SimTime::ZERO);
                let p = walk.position_at(SimTime::from_secs(at_s));
                prop_assert!((0.0..=6.0).contains(&p.x) && (0.0..=4.0).contains(&p.y));
            }
        }
    }
}
