//! The physical environment: walls and their radio attenuation.

use crate::shadowing::ShadowingField;
use crate::Interferer;
use roomsense_sim::SimTime;
use roomsense_geom::{Point, Segment};
use std::fmt;

/// Wall construction material, determining per-crossing attenuation at
/// 2.4 GHz (values from standard indoor propagation surveys).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WallMaterial {
    /// Interior drywall / plasterboard partition (~3 dB).
    Drywall,
    /// A standard wooden door (~2 dB).
    WoodDoor,
    /// Brick interior wall (~6 dB).
    Brick,
    /// Load-bearing / exterior concrete (~12 dB).
    Concrete,
    /// Glass partition or window (~2 dB).
    Glass,
}

impl WallMaterial {
    /// Signal attenuation per crossing, in dB.
    pub fn attenuation_db(self) -> f64 {
        match self {
            WallMaterial::Drywall => 3.0,
            WallMaterial::WoodDoor => 2.0,
            WallMaterial::Brick => 6.0,
            WallMaterial::Concrete => 12.0,
            WallMaterial::Glass => 2.0,
        }
    }
}

impl fmt::Display for WallMaterial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            WallMaterial::Drywall => "drywall",
            WallMaterial::WoodDoor => "wood door",
            WallMaterial::Brick => "brick",
            WallMaterial::Concrete => "concrete",
            WallMaterial::Glass => "glass",
        };
        f.write_str(s)
    }
}

/// One wall: a segment in the floor plan with a material.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wall {
    /// Where the wall runs.
    pub segment: Segment,
    /// What it is made of.
    pub material: WallMaterial,
}

impl Wall {
    /// Creates a wall.
    pub fn new(segment: Segment, material: WallMaterial) -> Self {
        Wall { segment, material }
    }
}

/// The walls between two points, from [`Environment::obstruction`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Obstruction {
    /// Number of walls the straight path crosses.
    pub crossings: usize,
    /// Their total attenuation, in dB.
    pub loss_db: f64,
}

/// The complete propagation environment: walls plus a shadowing field.
///
/// # Examples
///
/// ```
/// use roomsense_geom::{Point, Segment};
/// use roomsense_radio::{Environment, Wall, WallMaterial};
///
/// let mut env = Environment::free_space();
/// env.add_wall(Wall::new(
///     Segment::new(Point::new(2.0, -5.0), Point::new(2.0, 5.0)),
///     WallMaterial::Brick,
/// ));
/// // A path through the wall picks up its 6 dB:
/// let through = env.obstruction(Point::new(0.0, 0.0), Point::new(4.0, 0.0));
/// assert_eq!((through.crossings, through.loss_db), (1, 6.0));
/// ```
#[derive(Debug, Clone)]
pub struct Environment {
    walls: Vec<Wall>,
    shadowing: ShadowingField,
    interferers: Vec<Interferer>,
}

impl Environment {
    /// An empty environment with no walls and no shadowing: free space.
    pub fn free_space() -> Self {
        Environment {
            walls: Vec::new(),
            shadowing: ShadowingField::disabled(),
            interferers: Vec::new(),
        }
    }

    /// An environment with the given walls and shadowing field.
    pub fn new(walls: Vec<Wall>, shadowing: ShadowingField) -> Self {
        Environment {
            walls,
            shadowing,
            interferers: Vec::new(),
        }
    }

    /// Adds a 2.4 GHz interference source (Wi-Fi AP, microwave oven…).
    pub fn add_interferer(&mut self, interferer: Interferer) {
        self.interferers.push(interferer);
    }

    /// The interference sources.
    pub fn interferers(&self) -> &[Interferer] {
        &self.interferers
    }

    /// The probability a packet received at `rx` at time `at` is destroyed
    /// by interference (combining independent sources).
    pub fn collision_probability(&self, at: SimTime, rx: Point) -> f64 {
        let survive: f64 = self
            .interferers
            .iter()
            .map(|i| 1.0 - i.collision_probability(at, rx))
            .product();
        1.0 - survive
    }

    /// Adds one wall.
    pub fn add_wall(&mut self, wall: Wall) {
        self.walls.push(wall);
    }

    /// Replaces the shadowing field.
    pub fn set_shadowing(&mut self, shadowing: ShadowingField) {
        self.shadowing = shadowing;
    }

    /// The walls in the environment.
    pub fn walls(&self) -> &[Wall] {
        &self.walls
    }

    /// The shadowing field.
    pub fn shadowing(&self) -> &ShadowingField {
        &self.shadowing
    }

    /// The walls on the straight path `tx → rx`, found in one scan: how
    /// many it crosses and their summed attenuation in dB (added in wall
    /// order).
    pub fn obstruction(&self, tx: Point, rx: Point) -> Obstruction {
        let path = Segment::new(tx, rx);
        let mut crossings = 0;
        let loss_db = self
            .walls
            .iter()
            .filter(|w| w.segment.intersects(&path))
            .inspect(|_| crossings += 1)
            .map(|w| w.material.attenuation_db())
            .sum();
        Obstruction { crossings, loss_db }
    }

    /// Shadowing loss at the receiver position, in dB (zero-mean).
    pub fn shadowing_loss_db(&self, rx: Point) -> f64 {
        self.shadowing.loss_db(rx)
    }
}

impl Default for Environment {
    fn default() -> Self {
        Environment::free_space()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vertical_wall(x: f64, material: WallMaterial) -> Wall {
        Wall::new(
            Segment::new(Point::new(x, -10.0), Point::new(x, 10.0)),
            material,
        )
    }

    #[test]
    fn free_space_has_no_loss() {
        let env = Environment::free_space();
        let clear = env.obstruction(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        assert_eq!((clear.crossings, clear.loss_db), (0, 0.0));
        assert_eq!(env.shadowing_loss_db(Point::new(3.0, 3.0)), 0.0);
    }

    #[test]
    fn losses_accumulate_over_multiple_walls() {
        let mut env = Environment::free_space();
        env.add_wall(vertical_wall(1.0, WallMaterial::Drywall));
        env.add_wall(vertical_wall(2.0, WallMaterial::Concrete));
        let through = env.obstruction(Point::new(0.0, 0.0), Point::new(3.0, 0.0));
        assert_eq!((through.crossings, through.loss_db), (2, 15.0));
    }

    #[test]
    fn path_not_crossing_wall_sees_nothing() {
        let mut env = Environment::free_space();
        env.add_wall(vertical_wall(5.0, WallMaterial::Brick));
        let clear = env.obstruction(Point::new(0.0, 0.0), Point::new(4.0, 0.0));
        assert_eq!((clear.crossings, clear.loss_db), (0, 0.0));
    }

    #[test]
    fn direction_does_not_matter() {
        let mut env = Environment::free_space();
        env.add_wall(vertical_wall(1.0, WallMaterial::Glass));
        let a = Point::new(0.0, 0.0);
        let b = Point::new(2.0, 1.0);
        assert_eq!(env.obstruction(a, b), env.obstruction(b, a));
    }

    #[test]
    fn material_ordering_is_physical() {
        assert!(WallMaterial::Concrete.attenuation_db() > WallMaterial::Brick.attenuation_db());
        assert!(WallMaterial::Brick.attenuation_db() > WallMaterial::Drywall.attenuation_db());
    }
}
