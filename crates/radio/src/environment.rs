//! The physical environment: walls and their radio attenuation.

use crate::shadowing::ShadowingField;
use crate::Interferer;
use roomsense_geom::{Point, Segment, Vec2, EPSILON};
use roomsense_sim::SimTime;
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

    /// The walls on the straight path `tx → rx`, found in one scan: how
    /// many it crosses and their summed attenuation in dB (added in wall
    /// order). Each wall's transmitter-side terms are built on the fly; a
    /// transmitter queried many times should use a [`Sightlines`] table.
    pub fn obstruction(&self, tx: Point, rx: Point) -> Obstruction {
        self.sight(tx, rx).obstruction
    }

    /// The path length and the walls of `tx → rx`, from the same kernel
    /// as [`Sightlines`] with each wall's terms built on the fly.
    pub(crate) fn sight(&self, tx: Point, rx: Point) -> Sighting {
        sight(tx, rx, self.walls.iter().map(|w| WallSight::new(w, tx)))
    }

    /// The per-wall terms of every path leaving `tx`, as a fresh table.
    #[cfg(test)]
    pub(crate) fn sightlines(&self, tx: Point) -> Sightlines {
        let mut table = Sightlines::default();
        table.aim(self, tx);
        table
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

/// What one straight path sees: its length and the walls it crosses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Sighting {
    /// Length of the path, in metres.
    pub(crate) distance_m: f64,
    /// The walls the path crosses.
    pub(crate) obstruction: Obstruction,
}

/// One wall's share of [`Segment::intersects`]`(wall, tx → rx)` that does
/// not depend on `rx`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct WallSight {
    /// The wall, for the collinear fallback.
    segment: Segment,
    /// `b − a`.
    r: Vec2,
    /// `tx − a`.
    qp: Vec2,
    /// `qp × r`: the numerator of the path parameter `u`.
    qp_cross_r: f64,
    /// The wall-parameter tolerance, [`EPSILON`] over the wall length.
    tol: f64,
    /// The wall's attenuation, in dB.
    attenuation_db: f64,
}

impl WallSight {
    fn new(wall: &Wall, tx: Point) -> Self {
        let r = wall.segment.direction();
        let qp = tx - wall.segment.a;
        WallSight {
            segment: wall.segment,
            r,
            qp,
            qp_cross_r: qp.cross(r),
            tol: EPSILON / wall.segment.length().max(f64::EPSILON),
            attenuation_db: wall.material.attenuation_db(),
        }
    }

    /// Whether the wall meets `path` (from the table's transmitter, with
    /// direction `s` and path tolerance `tol_u`): the operations and
    /// comparisons of [`Segment::intersection`], so the answer equals
    /// `segment.intersects(path)` bit for bit. Only a (near-)parallel path,
    /// where the collinear-overlap test could answer instead, takes the full
    /// test.
    fn meets(&self, path: &Segment, s: Vec2, tol_u: f64) -> bool {
        let denom = self.r.cross(s);
        if denom.abs() > EPSILON {
            // `t` only when `u` passes: most walls lie off the path's
            // extent, and the division is the dearest step.
            let u = self.qp_cross_r / denom;
            u >= -tol_u && u <= 1.0 + tol_u && {
                let t = self.qp.cross(s) / denom;
                t >= -self.tol && t <= 1.0 + self.tol
            }
        } else {
            // Near-parallel (or NaN): the collinear-overlap test may answer.
            self.segment.intersects(path)
        }
    }
}

/// The one wall test: scans `walls` (terms for transmitter `tx`) along
/// `tx → rx`. The path length is computed once and serves as both the
/// path-loss distance and the path tolerance.
fn sight(tx: Point, rx: Point, walls: impl Iterator<Item = WallSight>) -> Sighting {
    let path = Segment::new(tx, rx);
    let s = path.direction();
    let distance_m = s.length();
    let tol_u = EPSILON / distance_m.max(f64::EPSILON);
    let mut crossings = 0;
    let loss_db = walls
        .filter(|w| w.meets(&path, s, tol_u))
        .inspect(|_| crossings += 1)
        .map(|w| w.attenuation_db)
        .sum();
    Sighting {
        distance_m,
        obstruction: Obstruction { crossings, loss_db },
    }
}

/// Every wall as seen from one transmitter, built by
/// [`aim`](Self::aim) and read by
/// [`Channel::link_budget_from`](crate::Channel::link_budget_from): a
/// query from a receiver position computes the path vector and its length
/// once, then at most three cross products and two divisions per wall,
/// with answers bit-identical to [`Environment::obstruction`].
///
/// # Examples
///
/// ```
/// use roomsense_geom::{Point, Segment};
/// use roomsense_radio::{
///     Channel, DeviceRxProfile, Environment, Sightlines, TransmitterProfile, Wall, WallMaterial,
/// };
///
/// let mut env = Environment::free_space();
/// env.add_wall(Wall::new(
///     Segment::new(Point::new(2.0, -5.0), Point::new(2.0, 5.0)),
///     WallMaterial::Brick,
/// ));
/// let channel = Channel::new(env);
/// let (tx, rx) = (TransmitterProfile::default(), DeviceRxProfile::ideal());
/// let tx_pos = Point::new(0.0, 0.0);
/// let mut table = Sightlines::default();
/// table.aim(channel.environment(), tx_pos);
/// let behind = channel.link_budget_from(&table, &tx, &rx, Point::new(4.0, 0.0));
/// let beside = channel.link_budget_from(&table, &tx, &rx, Point::new(0.0, 4.0));
/// assert!(behind.mean_dbm < beside.mean_dbm); // the brick wall costs signal
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sightlines {
    tx: Point,
    walls: Vec<WallSight>,
}

impl Sightlines {
    /// Rebuilds the table for transmitter `tx` in `environment`, reusing
    /// its memory.
    pub fn aim(&mut self, environment: &Environment, tx: Point) {
        self.tx = tx;
        self.walls.clear();
        self.walls
            .extend(environment.walls.iter().map(|w| WallSight::new(w, tx)));
    }

    /// The path length and walls from the transmitter to `rx`.
    pub(crate) fn sight(&self, rx: Point) -> Sighting {
        sight(self.tx, rx, self.walls.iter().copied())
    }

    /// Reserved capacity, in walls.
    pub fn capacity(&self) -> usize {
        self.walls.capacity()
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
