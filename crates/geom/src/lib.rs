//! 2-D geometry primitives for floor plans and radio propagation.
//!
//! The building model ([`roomsense-building`]) describes rooms as polygons and
//! walls as segments; the radio model ([`roomsense-radio`]) needs to know how
//! many walls a straight-line radio path crosses and how far a receiver is
//! from a transmitter. This crate provides exactly those primitives, with no
//! dependencies.
//!
//! All coordinates are in **metres** in a right-handed plan view.
//!
//! # Examples
//!
//! ```
//! use roomsense_geom::{Point, Polygon, Segment};
//!
//! let room = Polygon::rectangle(Point::new(0.0, 0.0), Point::new(4.0, 3.0));
//! assert!(room.contains(Point::new(2.0, 1.5)));
//!
//! let wall = Segment::new(Point::new(4.0, 0.0), Point::new(4.0, 3.0));
//! let path = Segment::new(Point::new(2.0, 1.5), Point::new(6.0, 1.5));
//! assert!(wall.intersects(&path));
//! ```
//!
//! [`roomsense-building`]: https://github.com/roomsense/roomsense
//! [`roomsense-radio`]: https://github.com/roomsense/roomsense

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod point;
mod polygon;
mod polyline;
mod rect;
mod segment;

pub use point::{Point, Vec2};
pub use polygon::Polygon;
pub use polyline::Polyline;
use rect::Rect;
pub use segment::Segment;

/// Tolerance used for floating-point geometric predicates, in metres.
///
/// One tenth of a millimetre: far below any quantity that matters for indoor
/// radio propagation, far above `f64` rounding noise at building scale.
pub const EPSILON: f64 = 1e-4;
