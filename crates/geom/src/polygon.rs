//! Simple polygons: room outlines of arbitrary shape.

use crate::{Point, Rect, Segment, EPSILON};
use std::fmt;

/// A simple (non-self-intersecting) polygon given by its vertices in order.
///
/// Rooms in the building model are polygons; point-in-polygon answers "which
/// room is this occupant in?".
///
/// # Examples
///
/// ```
/// use roomsense_geom::{Point, Polygon};
///
/// let room = Polygon::rectangle(Point::new(0.0, 0.0), Point::new(4.0, 2.0));
/// assert!(room.contains(Point::new(1.0, 1.0)));
/// assert!(!room.contains(Point::new(3.0, 3.0)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    vertices: Vec<Point>,
}

impl Polygon {
    /// Builds the rectangle with opposite corners `a` and `b` as a polygon.
    pub fn rectangle(a: Point, b: Point) -> Self {
        let r = Rect::new(a, b);
        Polygon {
            vertices: vec![
                r.min(),
                Point::new(r.max().x, r.min().y),
                r.max(),
                Point::new(r.min().x, r.max().y),
            ],
        }
    }

    /// The edges, each connecting consecutive vertices (closing edge last).
    pub(crate) fn edges(&self) -> impl Iterator<Item = Segment> + '_ {
        let n = self.vertices.len();
        (0..n).map(move |i| Segment::new(self.vertices[i], self.vertices[(i + 1) % n]))
    }

    fn signed_area(&self) -> f64 {
        let n = self.vertices.len();
        let mut acc = 0.0;
        for i in 0..n {
            let p = self.vertices[i];
            let q = self.vertices[(i + 1) % n];
            acc += p.x * q.y - q.x * p.y;
        }
        acc / 2.0
    }

    /// The centroid (area-weighted centre) of the polygon.
    pub fn centroid(&self) -> Point {
        let n = self.vertices.len();
        let a = self.signed_area();
        let mut cx = 0.0;
        let mut cy = 0.0;
        for i in 0..n {
            let p = self.vertices[i];
            let q = self.vertices[(i + 1) % n];
            let w = p.x * q.y - q.x * p.y;
            cx += (p.x + q.x) * w;
            cy += (p.y + q.y) * w;
        }
        Point::new(cx / (6.0 * a), cy / (6.0 * a))
    }

    /// Whether the point lies inside the polygon or on its boundary.
    ///
    /// Uses the even-odd (ray casting) rule with a boundary pre-check so edge
    /// and vertex points are reported as contained.
    pub fn contains(&self, p: Point) -> bool {
        // Boundary counts as inside.
        if self.edges().any(|e| e.distance_to_point(p) <= EPSILON) {
            return true;
        }
        let mut inside = false;
        let n = self.vertices.len();
        let mut j = n - 1;
        for i in 0..n {
            let vi = self.vertices[i];
            let vj = self.vertices[j];
            if (vi.y > p.y) != (vj.y > p.y) {
                let x_cross = vj.x + (p.y - vj.y) / (vi.y - vj.y) * (vi.x - vj.x);
                if p.x < x_cross {
                    inside = !inside;
                }
            }
            j = i;
        }
        inside
    }

    /// The axis-aligned bounding box.
    pub fn bounding_box(&self) -> Rect {
        let mut min = self.vertices[0];
        let mut max = self.vertices[0];
        for v in &self.vertices[1..] {
            min = Point::new(min.x.min(v.x), min.y.min(v.y));
            max = Point::new(max.x.max(v.x), max.y.max(v.y));
        }
        Rect::new(min, max)
    }
}

impl fmt::Display for Polygon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "polygon[")?;
        for (i, v) in self.vertices.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_square() -> Polygon {
        Polygon::rectangle(Point::new(0.0, 0.0), Point::new(1.0, 1.0))
    }

    fn polygon(vertices: Vec<Point>) -> Polygon {
        Polygon { vertices }
    }

    #[test]
    fn square_centroid() {
        let p = unit_square();
        let c = p.centroid();
        assert!(c.distance_to(Point::new(0.5, 0.5)) < 1e-12);
    }

    #[test]
    fn centroid_independent_of_winding() {
        let ccw = unit_square();
        let mut verts = ccw.vertices.clone();
        verts.reverse();
        let cw = polygon(verts);
        assert!(ccw.centroid().distance_to(cw.centroid()) < 1e-12);
    }

    #[test]
    fn contains_interior_exterior_boundary() {
        let p = unit_square();
        assert!(p.contains(Point::new(0.5, 0.5)));
        assert!(!p.contains(Point::new(1.5, 0.5)));
        assert!(p.contains(Point::new(0.0, 0.5))); // edge
        assert!(p.contains(Point::new(1.0, 1.0))); // vertex
    }

    #[test]
    fn l_shape_concavity() {
        let l = polygon(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 2.0),
            Point::new(2.0, 2.0),
            Point::new(2.0, 4.0),
            Point::new(0.0, 4.0),
        ]);
        assert!(l.contains(Point::new(3.0, 1.0)));
        assert!(!l.contains(Point::new(3.0, 3.0))); // in the notch
    }

    #[test]
    fn bounding_box_contains_all_vertices() {
        let l = polygon(vec![
            Point::new(-1.0, 0.0),
            Point::new(2.0, -1.0),
            Point::new(3.0, 4.0),
        ]);
        let bb = l.bounding_box();
        for v in &l.vertices {
            assert!(bb.contains(*v));
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Strategy: a random non-degenerate axis-aligned rectangle.
        fn rect_polygon() -> impl Strategy<Value = Polygon> {
            (-50.0f64..50.0, -50.0f64..50.0, 0.5f64..30.0, 0.5f64..30.0).prop_map(|(x, y, w, h)| {
                Polygon::rectangle(Point::new(x, y), Point::new(x + w, y + h))
            })
        }

        proptest! {
            /// The centroid of any rectangle lies inside it.
            #[test]
            fn centroid_is_contained(poly in rect_polygon()) {
                prop_assert!(poly.contains(poly.centroid()));
            }

            /// The bounding box of a rectangle is the rectangle itself.
            #[test]
            fn rectangle_bbox(
                x in -50.0f64..50.0, y in -50.0f64..50.0,
                w in 0.5f64..30.0, h in 0.5f64..30.0,
            ) {
                let poly = Polygon::rectangle(Point::new(x, y), Point::new(x + w, y + h));
                let bb = poly.bounding_box();
                prop_assert!((bb.width() - w).abs() < 1e-6 && (bb.height() - h).abs() < 1e-6);
            }

            /// Points outside the bounding box are never contained.
            #[test]
            fn outside_bbox_means_outside(
                poly in rect_polygon(),
                px in -200.0f64..200.0, py in -200.0f64..200.0,
            ) {
                let p = Point::new(px, py);
                if !poly.bounding_box().contains(p) {
                    prop_assert!(!poly.contains(p));
                }
            }
        }
    }
}
