//! The deployments the paper (and this reproduction) is evaluated on.

use crate::FloorPlan;
use roomsense_geom::{Point, Polygon, Segment};
use roomsense_ibeacon::Minor;
use roomsense_radio::{Wall, WallMaterial};

fn wall(ax: f64, ay: f64, bx: f64, by: f64, material: WallMaterial) -> Wall {
    Wall::new(
        Segment::new(Point::new(ax, ay), Point::new(bx, by)),
        material,
    )
}

fn rect(ax: f64, ay: f64, bx: f64, by: f64) -> Polygon {
    Polygon::rectangle(Point::new(ax, ay), Point::new(bx, by))
}

/// The paper's calibration setup (Section V): a 12 m corridor with one
/// transmitter at each end, split into a west and an east half.
///
/// The west beacon (minor 0) sits at `(0.5, 1.0)` and the east beacon
/// (minor 1) at `(11.5, 1.0)`, so a phone at `(0.5 + d, 1.0)` is exactly
/// `d` metres from the west transmitter with clear line of sight — the
/// geometry behind the RSSI-vs-distance and sampling figures.
pub fn two_transmitter_corridor() -> FloorPlan {
    let mut plan = FloorPlan::new("two-transmitter corridor");
    let west = plan.add_room("west", rect(0.0, 0.0, 6.0, 2.0));
    let east = plan.add_room("east", rect(6.0, 0.0, 12.0, 2.0));

    // Exterior shell.
    plan.add_wall(wall(0.0, 0.0, 12.0, 0.0, WallMaterial::Brick));
    plan.add_wall(wall(12.0, 0.0, 12.0, 2.0, WallMaterial::Brick));
    plan.add_wall(wall(12.0, 2.0, 0.0, 2.0, WallMaterial::Brick));
    plan.add_wall(wall(0.0, 2.0, 0.0, 0.0, WallMaterial::Brick));
    // Half-way partition with a centred doorway: the y = 1 line of sight
    // between the transmitters stays unobstructed.
    plan.add_wall(wall(6.0, 0.0, 6.0, 0.5, WallMaterial::Drywall));
    plan.add_wall(wall(6.0, 1.5, 6.0, 2.0, WallMaterial::Drywall));

    plan.add_beacon(west, Point::new(0.5, 1.0), Minor::new(0));
    plan.add_beacon(east, Point::new(11.5, 1.0), Minor::new(1));
    plan
}

/// The paper house (Section VI): a five-room dwelling — kitchen, living
/// room, bedroom, bathroom, study — with one transmitter per room.
///
/// The footprint is 10 m × 8 m. Room order (and therefore class labels):
/// kitchen (0), living room (1), bedroom (2), bathroom (3), study (4).
/// The front door opens east out of the living room at `(10, 2)`.
pub fn paper_house() -> FloorPlan {
    let mut plan = FloorPlan::new("paper house");
    let kitchen = plan.add_room("kitchen", rect(0.0, 0.0, 5.0, 4.0));
    let living = plan.add_room("living room", rect(5.0, 0.0, 10.0, 4.0));
    let bedroom = plan.add_room("bedroom", rect(0.0, 4.0, 5.0, 8.0));
    let bathroom = plan.add_room("bathroom", rect(5.0, 4.0, 7.0, 8.0));
    let study = plan.add_room("study", rect(7.0, 4.0, 10.0, 8.0));

    // Exterior shell (brick), broken by the front door on the east side.
    plan.add_wall(wall(0.0, 0.0, 10.0, 0.0, WallMaterial::Brick));
    plan.add_wall(wall(10.0, 0.0, 10.0, 1.5, WallMaterial::Brick));
    plan.add_wall(wall(10.0, 2.5, 10.0, 8.0, WallMaterial::Brick));
    plan.add_wall(wall(10.0, 8.0, 0.0, 8.0, WallMaterial::Brick));
    plan.add_wall(wall(0.0, 8.0, 0.0, 0.0, WallMaterial::Brick));
    plan.add_wall(wall(10.0, 1.5, 10.0, 2.5, WallMaterial::WoodDoor));
    // Kitchen | living room, with a doorway at y ∈ [1.5, 2.5].
    plan.add_wall(wall(5.0, 0.0, 5.0, 1.5, WallMaterial::Drywall));
    plan.add_wall(wall(5.0, 2.5, 5.0, 4.0, WallMaterial::Drywall));
    // The y = 4 spine: kitchen/living below, bedroom/bathroom/study above.
    plan.add_wall(wall(0.0, 4.0, 2.0, 4.0, WallMaterial::Drywall));
    plan.add_wall(wall(3.0, 4.0, 6.0, 4.0, WallMaterial::Drywall));
    plan.add_wall(wall(6.5, 4.0, 10.0, 4.0, WallMaterial::Drywall));
    plan.add_wall(wall(2.0, 4.0, 3.0, 4.0, WallMaterial::WoodDoor));
    // Bedroom | bathroom | study partitions, doorways at y ∈ [7, 8].
    plan.add_wall(wall(5.0, 4.0, 5.0, 7.0, WallMaterial::Drywall));
    plan.add_wall(wall(7.0, 4.0, 7.0, 7.0, WallMaterial::Drywall));

    // Mounting positions follow the paper's deployment pragmatics — power
    // sockets and shelves, not geometric centroids — which leaves several
    // transmitters hugging a shared partition. That asymmetry is what
    // separates scene analysis from the nearest-beacon baseline: close to a
    // doorway the neighbouring room's transmitter often *appears* nearer.
    plan.add_beacon(kitchen, Point::new(1.0, 2.0), Minor::new(0));
    plan.add_beacon(living, Point::new(5.8, 2.0), Minor::new(1));
    plan.add_beacon(bedroom, Point::new(1.0, 6.0), Minor::new(2));
    plan.add_beacon(bathroom, Point::new(5.5, 5.0), Minor::new(3));
    plan.add_beacon(study, Point::new(7.6, 6.8), Minor::new(4));
    plan
}

/// A scaling study's office floor: eight offices off a central corridor,
/// 20 m × 10 m, ten transmitters (one per office plus two along the
/// corridor). Room order: office1–office8, then the corridor (8).
pub fn office_floor() -> FloorPlan {
    let mut plan = FloorPlan::new("office floor");
    let mut offices = Vec::new();
    for i in 0..4 {
        let x = i as f64 * 5.0;
        offices.push(plan.add_room(format!("office{}", i + 1), rect(x, 0.0, x + 5.0, 4.0)));
    }
    for i in 0..4 {
        let x = i as f64 * 5.0;
        offices.push(plan.add_room(format!("office{}", i + 5), rect(x, 6.0, x + 5.0, 10.0)));
    }
    let corridor = plan.add_room("corridor", rect(0.0, 4.0, 20.0, 6.0));

    // Exterior shell.
    plan.add_wall(wall(0.0, 0.0, 20.0, 0.0, WallMaterial::Brick));
    plan.add_wall(wall(20.0, 0.0, 20.0, 10.0, WallMaterial::Brick));
    plan.add_wall(wall(20.0, 10.0, 0.0, 10.0, WallMaterial::Brick));
    plan.add_wall(wall(0.0, 10.0, 0.0, 0.0, WallMaterial::Brick));
    // Inter-office partitions (brick bearing walls).
    for x in [5.0, 10.0, 15.0] {
        plan.add_wall(wall(x, 0.0, x, 4.0, WallMaterial::Brick));
        plan.add_wall(wall(x, 6.0, x, 10.0, WallMaterial::Brick));
    }
    // Corridor walls with a doorway centred on each office.
    for y in [4.0, 6.0] {
        plan.add_wall(wall(0.0, y, 2.0, y, WallMaterial::Drywall));
        plan.add_wall(wall(3.0, y, 7.0, y, WallMaterial::Drywall));
        plan.add_wall(wall(8.0, y, 12.0, y, WallMaterial::Drywall));
        plan.add_wall(wall(13.0, y, 17.0, y, WallMaterial::Drywall));
        plan.add_wall(wall(18.0, y, 20.0, y, WallMaterial::Drywall));
    }

    // Transmitters mount at the power socket beside each office door (the
    // corridor-side wall), not the room centroid — which is exactly why the
    // nearest-beacon rule struggles in the corridor while scene analysis,
    // seeing several doorway beacons at once, does not.
    for (i, office) in offices.iter().enumerate() {
        let doorway_x = (i % 4) as f64 * 5.0 + 2.5;
        let y = if i < 4 { 3.6 } else { 6.4 };
        plan.add_beacon(*office, Point::new(doorway_x, y), Minor::new(i as u16));
    }
    plan.add_beacon(corridor, Point::new(5.0, 5.0), Minor::new(8));
    plan.add_beacon(corridor, Point::new(15.0, 5.0), Minor::new(9));
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RoomId;

    #[test]
    fn corridor_geometry_is_pinned() {
        let plan = two_transmitter_corridor();
        assert_eq!(plan.rooms().len(), 2);
        let sites = plan.beacon_sites();
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[0].position, Point::new(0.5, 1.0));
        assert_eq!(sites[1].position, Point::new(11.5, 1.0));
        // The walk line's landmarks resolve to the right halves.
        assert_eq!(plan.room_at(Point::new(1.0, 1.0)), Some(RoomId::new(0)));
        assert_eq!(plan.room_at(Point::new(3.0, 1.0)), Some(RoomId::new(0)));
        assert_eq!(plan.room_at(Point::new(11.0, 1.0)), Some(RoomId::new(1)));
        // Line of sight along y = 1 passes through the doorway.
        let env = plan.environment(1, 0.0);
        let through = env.obstruction(sites[0].position, Point::new(6.5, 1.0));
        assert_eq!((through.crossings, through.loss_db), (0, 0.0));
    }

    #[test]
    fn paper_house_rooms_are_pinned() {
        let plan = paper_house();
        let names: Vec<&str> = plan.rooms().iter().map(|r| r.name()).collect();
        assert_eq!(
            names,
            vec!["kitchen", "living room", "bedroom", "bathroom", "study"]
        );
        assert_eq!(plan.room_at(Point::new(2.0, 2.0)), Some(RoomId::new(0)));
        assert_eq!(plan.room_at(Point::new(7.0, 2.0)), Some(RoomId::new(1)));
        assert_eq!(plan.room_at(Point::new(8.5, 6.0)), Some(RoomId::new(4)));
        assert_eq!(plan.room_at(Point::new(160.0, 4.0)), None);
        assert_eq!(plan.walls.len(), 14);
        // One beacon per room, minors in room order.
        let rooms: Vec<u32> = plan.beacon_sites().iter().map(|b| b.room.index()).collect();
        assert_eq!(rooms, vec![0, 1, 2, 3, 4]);
        // Every beacon serves the room that contains it.
        for site in plan.beacon_sites() {
            assert_eq!(plan.room_at(site.position), Some(site.room));
        }
    }

    #[test]
    fn office_floor_is_nine_rooms_ten_beacons() {
        let plan = office_floor();
        assert_eq!(plan.rooms().len(), 9);
        assert_eq!(plan.beacon_sites().len(), 10);
        // (10, 5) is in the corridor, the last room.
        assert_eq!(plan.room_at(Point::new(10.0, 5.0)), Some(RoomId::new(8)));
        let bounds = plan
            .rooms()
            .iter()
            .map(|r| r.polygon().bounding_box())
            .reduce(|a, b| a.union(&b))
            .expect("rooms");
        assert_eq!(bounds.width(), 20.0);
        assert_eq!(bounds.height(), 10.0);
    }

    #[test]
    fn walking_into_the_front_door_crosses_only_the_door() {
        let plan = paper_house();
        let env = plan.environment(1, 0.0);
        // From outside straight at the living room through the front door:
        // only the wood door attenuates.
        let through = env.obstruction(Point::new(12.0, 2.0), Point::new(9.0, 2.0));
        assert_eq!(
            (through.crossings, through.loss_db),
            (1, WallMaterial::WoodDoor.attenuation_db())
        );
    }
}
