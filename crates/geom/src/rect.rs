//! Axis-aligned rectangles: rooms in simple floor plans, bounding boxes.

use crate::Point;
use std::fmt;

/// An axis-aligned rectangle, stored as its min and max corners.
///
/// # Examples
///
/// ```
/// use roomsense_geom::{Point, Polygon};
///
/// let r = Polygon::rectangle(Point::new(0.0, 0.0), Point::new(4.0, 3.0)).bounding_box();
/// assert!(r.contains(Point::new(1.0, 1.0)));
/// assert_eq!(r.width() * r.height(), 12.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    min: Point,
    max: Point,
}

impl Rect {
    /// Creates a rectangle from two opposite corners (any order).
    pub(crate) fn new(a: Point, b: Point) -> Self {
        Rect {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// The corner with the smallest coordinates.
    pub fn min(&self) -> Point {
        self.min
    }

    /// The corner with the largest coordinates.
    pub fn max(&self) -> Point {
        self.max
    }

    /// Width along x, in metres.
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height along y, in metres.
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Whether the point lies inside or on the boundary.
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// The smallest rectangle containing both.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            min: Point::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            max: Point::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        }
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} .. {}]", self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corners_are_normalized() {
        let r = Rect::new(Point::new(4.0, 3.0), Point::new(0.0, 0.0));
        assert_eq!(r.min(), Point::new(0.0, 0.0));
        assert_eq!(r.max(), Point::new(4.0, 3.0));
    }

    #[test]
    fn contains_boundary_and_interior() {
        let r = Rect::new(Point::new(0.0, 0.0), Point::new(2.0, 2.0));
        assert!(r.contains(Point::new(0.0, 0.0)));
        assert!(r.contains(Point::new(2.0, 2.0)));
        assert!(r.contains(Point::new(1.0, 1.0)));
        assert!(!r.contains(Point::new(2.0001, 1.0)));
    }

    #[test]
    fn union_covers_both() {
        let a = Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        let b = Rect::new(Point::new(3.0, 3.0), Point::new(4.0, 4.0));
        let u = a.union(&b);
        assert!(u.contains(Point::new(0.5, 0.5)));
        assert!(u.contains(Point::new(3.5, 3.5)));
        assert_eq!(u.width() * u.height(), 16.0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Union contains both inputs and is commutative.
            #[test]
            fn union_is_commutative_superset(
                ax in -50.0f64..50.0, ay in -50.0f64..50.0,
                bx in -50.0f64..50.0, by in -50.0f64..50.0,
                cx in -50.0f64..50.0, cy in -50.0f64..50.0,
                dx in -50.0f64..50.0, dy in -50.0f64..50.0,
            ) {
                let r1 = Rect::new(Point::new(ax, ay), Point::new(bx, by));
                let r2 = Rect::new(Point::new(cx, cy), Point::new(dx, dy));
                let u = r1.union(&r2);
                prop_assert_eq!(u, r2.union(&r1));
                prop_assert!(u.contains(r1.min()) && u.contains(r1.max()));
                prop_assert!(u.contains(r2.min()) && u.contains(r2.max()));
            }
        }
    }
}
