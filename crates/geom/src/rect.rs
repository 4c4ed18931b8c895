//! Axis-aligned rectangles: rooms in simple floor plans, bounding boxes.

use crate::{Point, Segment};
use std::fmt;

/// An axis-aligned rectangle, stored as its min and max corners.
///
/// # Examples
///
/// ```
/// use roomsense_geom::{Point, Rect};
///
/// let r = Rect::new(Point::new(0.0, 0.0), Point::new(4.0, 3.0));
/// assert!(r.contains(Point::new(1.0, 1.0)));
/// assert_eq!(r.area(), 12.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    min: Point,
    max: Point,
}

impl Rect {
    /// Creates a rectangle from two opposite corners (any order).
    pub fn new(a: Point, b: Point) -> Self {
        Rect {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// Creates a rectangle from its min corner plus width and height.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is negative.
    pub fn with_size(origin: Point, width: f64, height: f64) -> Self {
        assert!(
            width >= 0.0 && height >= 0.0,
            "rectangle size must be non-negative (got {width} x {height})"
        );
        Rect {
            min: origin,
            max: Point::new(origin.x + width, origin.y + height),
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

    /// Area in square metres.
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Whether the point lies inside or on the boundary.
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Whether two rectangles overlap (sharing only an edge counts).
    pub fn overlaps(&self, other: &Rect) -> bool {
        self.min.x <= other.max.x
            && self.max.x >= other.min.x
            && self.min.y <= other.max.y
            && self.max.y >= other.min.y
    }

    /// The smallest rectangle containing both.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            min: Point::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            max: Point::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        }
    }

    /// The four edges as segments, counter-clockwise from the bottom edge.
    pub fn edges(&self) -> [Segment; 4] {
        let bl = self.min;
        let br = Point::new(self.max.x, self.min.y);
        let tr = self.max;
        let tl = Point::new(self.min.x, self.max.y);
        [
            Segment::new(bl, br),
            Segment::new(br, tr),
            Segment::new(tr, tl),
            Segment::new(tl, bl),
        ]
    }

    /// Clamps a point to the closest point inside the rectangle.
    pub fn clamp_point(&self, p: Point) -> Point {
        Point::new(
            p.x.clamp(self.min.x, self.max.x),
            p.y.clamp(self.min.y, self.max.y),
        )
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
        let r = Rect::with_size(Point::ORIGIN, 2.0, 2.0);
        assert!(r.contains(Point::new(0.0, 0.0)));
        assert!(r.contains(Point::new(2.0, 2.0)));
        assert!(r.contains(Point::new(1.0, 1.0)));
        assert!(!r.contains(Point::new(2.0001, 1.0)));
    }

    #[test]
    fn overlap_detection() {
        let a = Rect::with_size(Point::ORIGIN, 2.0, 2.0);
        let b = Rect::with_size(Point::new(1.0, 1.0), 2.0, 2.0);
        let c = Rect::with_size(Point::new(3.0, 3.0), 1.0, 1.0);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        // Edge-sharing rectangles overlap.
        let d = Rect::with_size(Point::new(2.0, 0.0), 1.0, 2.0);
        assert!(a.overlaps(&d));
    }

    #[test]
    fn union_covers_both() {
        let a = Rect::with_size(Point::ORIGIN, 1.0, 1.0);
        let b = Rect::with_size(Point::new(3.0, 3.0), 1.0, 1.0);
        let u = a.union(&b);
        assert!(u.contains(Point::new(0.5, 0.5)));
        assert!(u.contains(Point::new(3.5, 3.5)));
        assert_eq!(u.area(), 16.0);
    }

    #[test]
    fn edges_form_closed_loop() {
        let r = Rect::with_size(Point::ORIGIN, 2.0, 1.0);
        let e = r.edges();
        for i in 0..4 {
            assert_eq!(e[i].b, e[(i + 1) % 4].a);
        }
        let perimeter: f64 = e.iter().map(Segment::length).sum();
        assert!((perimeter - 6.0).abs() < 1e-12);
    }

    #[test]
    fn clamp_point_projects_outside_points() {
        let r = Rect::with_size(Point::ORIGIN, 2.0, 2.0);
        assert_eq!(r.clamp_point(Point::new(5.0, -1.0)), Point::new(2.0, 0.0));
        assert_eq!(r.clamp_point(Point::new(1.0, 1.0)), Point::new(1.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_size_panics() {
        let _ = Rect::with_size(Point::ORIGIN, -1.0, 1.0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Clamped points always land inside, and interior points are
            /// fixed points of clamping.
            #[test]
            fn clamp_is_idempotent_projection(
                ax in -50.0f64..50.0, ay in -50.0f64..50.0,
                bx in -50.0f64..50.0, by in -50.0f64..50.0,
                px in -100.0f64..100.0, py in -100.0f64..100.0,
            ) {
                let r = Rect::new(Point::new(ax, ay), Point::new(bx, by));
                let clamped = r.clamp_point(Point::new(px, py));
                prop_assert!(r.contains(clamped));
                prop_assert_eq!(r.clamp_point(clamped), clamped);
            }

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

            /// Overlap is symmetric and implied by containment of a corner.
            #[test]
            fn overlap_is_symmetric(
                ax in -20.0f64..20.0, ay in -20.0f64..20.0,
                w1 in 0.0f64..10.0, h1 in 0.0f64..10.0,
                bx in -20.0f64..20.0, by in -20.0f64..20.0,
                w2 in 0.0f64..10.0, h2 in 0.0f64..10.0,
            ) {
                let r1 = Rect::with_size(Point::new(ax, ay), w1, h1);
                let r2 = Rect::with_size(Point::new(bx, by), w2, h2);
                prop_assert_eq!(r1.overlaps(&r2), r2.overlaps(&r1));
            }
        }
    }
}
