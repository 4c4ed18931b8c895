//! The building model: floor plans, rooms, beacon placement, occupant
//! mobility, and ground-truth occupancy traces.
//!
//! Paper Section VI: the deployment under test is a real dwelling — rooms
//! separated by walls of known materials, one battery-powered iBeacon
//! transmitter per room, and occupants that move between rooms. This crate
//! captures that static world:
//!
//! * [`FloorPlan`] — rooms (named polygons), walls (segments with a
//!   [`WallMaterial`](roomsense_radio::WallMaterial)), and [`BeaconSite`]s.
//!   [`FloorPlan::environment`] lowers the plan into the radio model's
//!   [`Environment`] (walls plus a seeded spatial shadowing field).
//! * [`mobility`] — how occupants move: parked phones, waypoint walks,
//!   random-waypoint wanderers, and room-by-room itineraries.
//! * [`presets`] — the paper's apartment, the two-transmitter calibration
//!   corridor, and a larger office floor for scaling studies.
//! * [`trace`] — ground-truth room occupancy sampled from mobility models,
//!   the reference every classifier is scored against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mobility;
pub mod presets;
pub mod trace;

use roomsense_geom::{Point, Polygon};
use roomsense_ibeacon::{Major, MeasuredPower, Minor, Packet, ProximityUuid};
use roomsense_radio::shadowing::ShadowingField;
use roomsense_radio::{Environment, Wall};
use std::fmt;

/// Correlation distance of the spatial shadowing field a plan's
/// [`environment`](FloorPlan::environment) carries, in metres. Indoor
/// measurement campaigns put the decorrelation distance of 2.4 GHz
/// shadowing at one to a few metres.
pub(crate) const SHADOWING_CORRELATION_M: f64 = 2.0;

/// Identifies one room within a floor plan (its index in room order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RoomId(u32);

impl RoomId {
    /// Creates a room id from its index in the plan's room order.
    pub const fn new(index: u32) -> Self {
        RoomId(index)
    }

    /// The index in the plan's room order.
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for RoomId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "room#{}", self.0)
    }
}

/// One room: a named polygon within the plan.
#[derive(Debug, Clone)]
pub struct Room {
    id: RoomId,
    name: String,
    polygon: Polygon,
}

impl Room {
    /// The room's id (its index in the plan's room order).
    pub fn id(&self) -> RoomId {
        self.id
    }

    /// The room's human name ("kitchen", "office3", …).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The room's footprint.
    pub(crate) fn polygon(&self) -> &Polygon {
        &self.polygon
    }
}

impl fmt::Display for Room {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name, self.id)
    }
}

/// Where one iBeacon transmitter is installed.
///
/// The site records only the *deployment* facts — position, the minor
/// value programmed into the transmitter, and which room it serves. The
/// live advertiser (UUID, major, calibrated measured power, advertising
/// interval) is built by the scenario layer via [`BeaconSite::packet`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeaconSite {
    /// Mounting position.
    pub position: Point,
    /// The minor value programmed into this transmitter.
    pub minor: Minor,
    /// The room this beacon serves.
    pub room: RoomId,
}

impl BeaconSite {
    /// The advertisement this site broadcasts once the deployment-wide
    /// UUID, major, and calibrated measured power are chosen.
    pub fn packet(&self, uuid: ProximityUuid, major: Major, power: MeasuredPower) -> Packet {
        Packet::new(uuid, major, self.minor, power)
    }
}

/// A floor plan: rooms, walls, and beacon sites.
///
/// # Examples
///
/// ```
/// use roomsense_building::presets;
/// use roomsense_geom::Point;
///
/// let plan = presets::paper_house();
/// assert_eq!(plan.rooms().len(), 5);
/// let kitchen = plan.room_at(Point::new(2.0, 2.0)).expect("inside");
/// assert_eq!(plan.room(kitchen).unwrap().name(), "kitchen");
/// ```
#[derive(Debug, Clone)]
pub struct FloorPlan {
    name: String,
    rooms: Vec<Room>,
    walls: Vec<Wall>,
    beacons: Vec<BeaconSite>,
}

impl FloorPlan {
    /// Creates an empty plan; populate it with [`add_room`](Self::add_room),
    /// [`add_wall`](Self::add_wall), and [`add_beacon`](Self::add_beacon).
    pub(crate) fn new(name: impl Into<String>) -> Self {
        FloorPlan {
            name: name.into(),
            rooms: Vec::new(),
            walls: Vec::new(),
            beacons: Vec::new(),
        }
    }

    /// Appends a room and returns its id.
    pub(crate) fn add_room(&mut self, name: impl Into<String>, polygon: Polygon) -> RoomId {
        let id = RoomId::new(self.rooms.len() as u32);
        self.rooms.push(Room {
            id,
            name: name.into(),
            polygon,
        });
        id
    }

    /// Appends a wall.
    pub(crate) fn add_wall(&mut self, wall: Wall) {
        self.walls.push(wall);
    }

    /// Installs a beacon transmitter.
    ///
    /// # Panics
    ///
    /// Panics if the room does not exist or the minor is already in use.
    pub(crate) fn add_beacon(&mut self, room: RoomId, position: Point, minor: Minor) {
        assert!(
            self.room(room).is_some(),
            "beacon room {room} not in plan '{}'",
            self.name
        );
        assert!(
            self.beacons.iter().all(|b| b.minor != minor),
            "minor {minor} already installed in plan '{}'",
            self.name
        );
        self.beacons.push(BeaconSite {
            position,
            minor,
            room,
        });
    }

    /// All rooms, in id order.
    pub fn rooms(&self) -> &[Room] {
        &self.rooms
    }

    /// Looks up a room by id.
    pub fn room(&self, id: RoomId) -> Option<&Room> {
        self.rooms.get(id.index() as usize)
    }

    /// The room containing a point, or `None` for "outside". Points on a
    /// shared boundary resolve to the earlier room in plan order.
    pub fn room_at(&self, p: Point) -> Option<RoomId> {
        self.rooms
            .iter()
            .find(|room| room.polygon.contains(p))
            .map(Room::id)
    }

    /// All beacon sites, in installation order.
    pub fn beacon_sites(&self) -> &[BeaconSite] {
        &self.beacons
    }

    /// Lowers the plan into the radio model: the walls plus a seeded
    /// spatial shadowing field of the given standard deviation.
    pub fn environment(&self, seed: u64, shadowing_sigma_db: f64) -> Environment {
        Environment::new(
            self.walls.clone(),
            ShadowingField::new(seed, shadowing_sigma_db, SHADOWING_CORRELATION_M),
        )
    }

    /// The plan with the listed transmitters removed — dead batteries,
    /// vandalism, or a deliberate beacon-density ablation.
    pub fn without_beacons(&self, minors: &[Minor]) -> FloorPlan {
        let mut plan = self.clone();
        plan.beacons.retain(|b| !minors.contains(&b.minor));
        plan
    }
}

impl fmt::Display for FloorPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} rooms, {} beacons",
            self.name,
            self.rooms.len(),
            self.beacons.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan_with_one_room() -> (FloorPlan, RoomId) {
        let mut plan = FloorPlan::new("test");
        let room = plan.add_room(
            "only",
            Polygon::rectangle(Point::new(0.0, 0.0), Point::new(4.0, 3.0)),
        );
        (plan, room)
    }

    #[test]
    fn room_lookup_round_trips() {
        let (plan, room) = plan_with_one_room();
        assert_eq!(plan.room(room).unwrap().name(), "only");
        assert_eq!(plan.room_at(Point::new(1.0, 1.0)), Some(room));
        assert_eq!(plan.room_at(Point::new(9.0, 9.0)), None);
        assert!(plan.room(RoomId::new(7)).is_none());
    }

    #[test]
    fn beacons_install_in_order() {
        let (mut plan, room) = plan_with_one_room();
        plan.add_beacon(room, Point::new(1.0, 1.0), Minor::new(0));
        plan.add_beacon(room, Point::new(3.0, 1.0), Minor::new(1));
        let minors: Vec<u16> = plan
            .beacon_sites()
            .iter()
            .map(|b| b.minor.value())
            .collect();
        assert_eq!(minors, vec![0, 1]);
        assert!(plan.beacon_sites().iter().all(|b| b.room == room));
    }

    #[test]
    #[should_panic(expected = "already installed")]
    fn duplicate_minor_panics() {
        let (mut plan, room) = plan_with_one_room();
        plan.add_beacon(room, Point::new(1.0, 1.0), Minor::new(0));
        plan.add_beacon(room, Point::new(2.0, 1.0), Minor::new(0));
    }

    #[test]
    #[should_panic(expected = "not in plan")]
    fn beacon_in_unknown_room_panics() {
        let (mut plan, _) = plan_with_one_room();
        plan.add_beacon(RoomId::new(9), Point::new(1.0, 1.0), Minor::new(0));
    }

    #[test]
    fn without_beacons_removes_only_the_listed_minors() {
        let (mut plan, room) = plan_with_one_room();
        for m in 0..4u16 {
            plan.add_beacon(room, Point::new(f64::from(m), 1.0), Minor::new(m));
        }
        let thinned = plan.without_beacons(&[Minor::new(1), Minor::new(3)]);
        let minors: Vec<u16> = thinned
            .beacon_sites()
            .iter()
            .map(|b| b.minor.value())
            .collect();
        assert_eq!(minors, vec![0, 2]);
        // The original is untouched; rooms and walls carry over.
        assert_eq!(plan.beacon_sites().len(), 4);
        assert_eq!(thinned.rooms().len(), plan.rooms().len());
    }

    #[test]
    fn site_packet_carries_the_site_minor() {
        let site = BeaconSite {
            position: Point::new(0.0, 0.0),
            minor: Minor::new(42),
            room: RoomId::new(0),
        };
        let packet = site.packet(
            ProximityUuid::example(),
            Major::new(1),
            MeasuredPower::new(-59),
        );
        assert_eq!(packet.identity().minor, Minor::new(42));
        assert_eq!(packet.measured_power().dbm(), -59);
    }

    #[test]
    fn environment_carries_every_wall() {
        let plan = presets::paper_house();
        let environment = plan.environment(1, 3.0);
        assert_eq!(environment.walls().len(), plan.walls.len());
    }

    #[test]
    fn display_summarises_the_plan() {
        let text = presets::paper_house().to_string();
        assert!(
            text.contains("5 rooms") && text.contains("5 beacons"),
            "{text}"
        );
    }
}
