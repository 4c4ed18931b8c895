//! Points and displacement vectors in the floor-plan plane.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// A position in the floor plan, in metres.
///
/// # Examples
///
/// ```
/// use roomsense_geom::Point;
///
/// let a = Point::new(0.0, 0.0);
/// let b = Point::new(3.0, 4.0);
/// assert_eq!(a.distance_to(b), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Easting coordinate in metres.
    pub x: f64,
    /// Northing coordinate in metres.
    pub y: f64,
}

/// A displacement between two [`Point`]s, in metres.
///
/// # Examples
///
/// ```
/// use roomsense_geom::{Point, Vec2};
///
/// let v = Point::new(3.0, 4.0) - Point::new(0.0, 0.0);
/// assert_eq!(v, Vec2::new(3.0, 4.0));
/// assert_eq!(v.length(), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// Easting component in metres.
    pub x: f64,
    /// Northing component in metres.
    pub y: f64,
}

impl Point {
    /// Creates a point at `(x, y)` metres.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`, in metres.
    pub fn distance_to(self, other: Point) -> f64 {
        (other - self).length()
    }

    /// Linear interpolation from `self` towards `other`.
    ///
    /// `t = 0` yields `self`, `t = 1` yields `other`; values outside `[0, 1]`
    /// extrapolate along the same line.
    pub fn lerp(self, other: Point, t: f64) -> Point {
        self + (other - self) * t
    }
}

impl Vec2 {
    /// Creates a vector `(x, y)` in metres.
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Euclidean length, in metres.
    pub fn length(self) -> f64 {
        self.length_sq().sqrt()
    }

    /// Squared Euclidean length.
    pub(crate) fn length_sq(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Dot product with `other`.
    pub(crate) fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2-D cross product (the `z` component of the 3-D cross product).
    ///
    /// Positive when `other` lies counter-clockwise of `self`.
    pub fn cross(self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{:.3}, {:.3}>", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

impl From<(f64, f64)> for Vec2 {
    fn from((x, y): (f64, f64)) -> Self {
        Vec2::new(x, y)
    }
}

impl Sub for Point {
    type Output = Vec2;
    fn sub(self, rhs: Point) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Add<Vec2> for Point {
    type Output = Point;
    fn add(self, rhs: Vec2) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign<Vec2> for Point {
    fn add_assign(&mut self, rhs: Vec2) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub<Vec2> for Point {
    type Output = Point;
    fn sub(self, rhs: Vec2) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign<Vec2> for Point {
    fn sub_assign(&mut self, rhs: Vec2) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(-3.0, 7.5);
        assert!((a.distance_to(b) - b.distance_to(a)).abs() < 1e-12);
    }

    #[test]
    fn pythagorean_triple() {
        assert_eq!(Point::new(0.0, 0.0).distance_to(Point::new(3.0, 4.0)), 5.0);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(2.0, 4.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Point::new(1.0, 2.0));
    }

    #[test]
    fn cross_sign_indicates_orientation() {
        let right = Vec2::new(1.0, 0.0);
        let up = Vec2::new(0.0, 1.0);
        assert!(right.cross(up) > 0.0);
        assert!(up.cross(right) < 0.0);
        assert_eq!(right.cross(right), 0.0);
    }

    #[test]
    fn vector_arithmetic_roundtrip() {
        let a = Point::new(1.0, 1.0);
        let v = Vec2::new(0.5, -2.0);
        assert_eq!((a + v) - v, a);
        assert_eq!((a + v) - a, v);
    }
}
