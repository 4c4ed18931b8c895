//! Line segments: walls and straight-line radio paths.

use crate::{Point, Vec2, EPSILON};
use std::fmt;

/// A directed line segment between two points.
///
/// Walls in the building model are segments; the radio model tests how many
/// wall segments the transmitter→receiver segment crosses.
///
/// # Examples
///
/// ```
/// use roomsense_geom::{Point, Segment};
///
/// let wall = Segment::new(Point::new(0.0, 0.0), Point::new(0.0, 3.0));
/// let path = Segment::new(Point::new(-1.0, 1.5), Point::new(1.0, 1.5));
/// assert!(wall.intersects(&path));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Start point.
    pub a: Point,
    /// End point.
    pub b: Point,
}

impl Segment {
    /// Creates a segment from `a` to `b`.
    pub const fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// Length of the segment, in metres.
    pub fn length(&self) -> f64 {
        self.a.distance_to(self.b)
    }

    /// The displacement from `a` to `b`.
    pub fn direction(&self) -> Vec2 {
        self.b - self.a
    }

    /// The point a fraction `t ∈ [0, 1]` of the way from `a` to `b`.
    pub(crate) fn point_at(&self, t: f64) -> Point {
        self.a.lerp(self.b, t)
    }

    /// Whether the two segments share at least one point.
    ///
    /// Collinear overlapping segments count as intersecting. Touching at a
    /// single endpoint counts as intersecting (within [`EPSILON`]).
    pub fn intersects(&self, other: &Segment) -> bool {
        self.intersection(other).is_some() || self.collinear_overlap(other)
    }

    /// The proper intersection point of the two segments, if they cross at a
    /// single point.
    ///
    /// Returns `None` for parallel or collinear segments (even overlapping
    /// ones) and for segment pairs that do not reach each other.
    pub(crate) fn intersection(&self, other: &Segment) -> Option<Point> {
        let r = self.direction();
        let s = other.direction();
        let denom = r.cross(s);
        if denom.abs() <= f64::EPSILON {
            return None; // parallel or collinear
        }
        let qp = other.a - self.a;
        let t = qp.cross(s) / denom;
        let u = qp.cross(r) / denom;
        let tol = EPSILON / (self.length().max(f64::EPSILON));
        let tol_u = EPSILON / (other.length().max(f64::EPSILON));
        if t >= -tol && t <= 1.0 + tol && u >= -tol_u && u <= 1.0 + tol_u {
            Some(self.point_at(t.clamp(0.0, 1.0)))
        } else {
            None
        }
    }

    /// Whether the segments are collinear and overlap over a positive length.
    fn collinear_overlap(&self, other: &Segment) -> bool {
        let r = self.direction();
        let s = other.direction();
        if r.cross(s).abs() > EPSILON {
            return false;
        }
        // Must lie on the same line.
        if r.cross(other.a - self.a).abs() > EPSILON {
            return false;
        }
        // Project the endpoints of `other` onto `self`'s direction.
        let len_sq = r.length_sq();
        if len_sq <= f64::EPSILON {
            return self.a.distance_to(other.a) <= EPSILON
                || other.distance_to_point(self.a) <= EPSILON;
        }
        let t0 = (other.a - self.a).dot(r) / len_sq;
        let t1 = (other.b - self.a).dot(r) / len_sq;
        let (lo, hi) = if t0 <= t1 { (t0, t1) } else { (t1, t0) };
        hi >= 0.0 && lo <= 1.0
    }

    /// Shortest distance from the segment to a point, in metres.
    pub(crate) fn distance_to_point(&self, p: Point) -> f64 {
        let d = self.direction();
        let len_sq = d.length_sq();
        if len_sq <= f64::EPSILON {
            return self.a.distance_to(p);
        }
        let t = ((p - self.a).dot(d) / len_sq).clamp(0.0, 1.0);
        self.point_at(t).distance_to(p)
    }
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}", self.a, self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(Point::new(ax, ay), Point::new(bx, by))
    }

    #[test]
    fn crossing_segments_intersect() {
        let a = seg(0.0, 0.0, 2.0, 2.0);
        let b = seg(0.0, 2.0, 2.0, 0.0);
        let p = a.intersection(&b).expect("must cross");
        assert!(p.distance_to(Point::new(1.0, 1.0)) < 1e-9);
    }

    #[test]
    fn parallel_segments_do_not_intersect() {
        let a = seg(0.0, 0.0, 1.0, 0.0);
        let b = seg(0.0, 1.0, 1.0, 1.0);
        assert!(!a.intersects(&b));
        assert!(a.intersection(&b).is_none());
    }

    #[test]
    fn collinear_overlapping_segments_intersect() {
        let a = seg(0.0, 0.0, 2.0, 0.0);
        let b = seg(1.0, 0.0, 3.0, 0.0);
        assert!(a.intersects(&b));
        // ...but have no single intersection point.
        assert!(a.intersection(&b).is_none());
    }

    #[test]
    fn collinear_disjoint_segments_do_not_intersect() {
        let a = seg(0.0, 0.0, 1.0, 0.0);
        let b = seg(2.0, 0.0, 3.0, 0.0);
        assert!(!a.intersects(&b));
    }

    #[test]
    fn touching_endpoints_intersect() {
        let a = seg(0.0, 0.0, 1.0, 1.0);
        let b = seg(1.0, 1.0, 2.0, 0.0);
        assert!(a.intersects(&b));
    }

    #[test]
    fn near_miss_does_not_intersect() {
        let a = seg(0.0, 0.0, 1.0, 0.0);
        let b = seg(0.5, 0.01, 0.5, 1.0);
        assert!(!a.intersects(&b));
    }

    #[test]
    fn distance_to_point_interior_and_beyond() {
        let s = seg(0.0, 0.0, 10.0, 0.0);
        assert!((s.distance_to_point(Point::new(5.0, 3.0)) - 3.0).abs() < 1e-12);
        // Beyond the end: distance to the endpoint.
        assert!((s.distance_to_point(Point::new(13.0, 4.0)) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_segment_behaves_like_point() {
        let s = seg(1.0, 1.0, 1.0, 1.0);
        assert_eq!(s.length(), 0.0);
        assert!((s.distance_to_point(Point::new(4.0, 5.0)) - 5.0).abs() < 1e-12);
    }
}
