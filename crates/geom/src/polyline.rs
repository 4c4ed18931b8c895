//! Polylines: waypoint paths walked by occupants.

use crate::Point;
use std::fmt;

/// An open chain of waypoints.
///
/// The mobility model walks an occupant along a polyline at a given speed;
/// [`Polyline::point_at_distance`] answers "where is the walker after `d`
/// metres?".
///
/// # Examples
///
/// ```
/// use roomsense_geom::{Point, Polyline};
///
/// let path = Polyline::new(vec![
///     Point::new(0.0, 0.0),
///     Point::new(3.0, 0.0),
///     Point::new(3.0, 4.0),
/// ]).expect("two or more waypoints");
/// assert_eq!(path.length(), 7.0);
/// assert_eq!(path.point_at_distance(5.0), Point::new(3.0, 2.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Polyline {
    waypoints: Vec<Point>,
    /// Cumulative distance from the start to each waypoint.
    cumulative: Vec<f64>,
}

/// Error building a [`Polyline`]: fewer than two waypoints were supplied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildPolylineError;

impl fmt::Display for BuildPolylineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "polyline needs at least two waypoints")
    }
}

impl std::error::Error for BuildPolylineError {}

impl Polyline {
    /// Builds a polyline from waypoints in walk order.
    ///
    /// # Errors
    ///
    /// Returns `BuildPolylineError` when fewer than two waypoints are given.
    pub fn new(waypoints: Vec<Point>) -> Result<Self, BuildPolylineError> {
        if waypoints.len() < 2 {
            return Err(BuildPolylineError);
        }
        let mut cumulative = Vec::with_capacity(waypoints.len());
        let mut acc = 0.0;
        cumulative.push(0.0);
        for w in waypoints.windows(2) {
            acc += w[0].distance_to(w[1]);
            cumulative.push(acc);
        }
        Ok(Polyline {
            waypoints,
            cumulative,
        })
    }

    /// The waypoints in walk order.
    pub fn waypoints(&self) -> &[Point] {
        &self.waypoints
    }

    /// Total length of the path, in metres.
    pub fn length(&self) -> f64 {
        *self.cumulative.last().expect("non-empty by construction")
    }

    /// The position after walking `distance` metres from the start.
    ///
    /// Distances beyond the path length clamp to the final waypoint; negative
    /// distances clamp to the start.
    pub fn point_at_distance(&self, distance: f64) -> Point {
        if distance <= 0.0 {
            return self.waypoints[0];
        }
        if distance >= self.length() {
            return *self.waypoints.last().expect("non-empty");
        }
        // Find the leg containing `distance`.
        let i = match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&distance).expect("finite"))
        {
            Ok(exact) => return self.waypoints[exact],
            Err(insertion) => insertion - 1,
        };
        let leg_start = self.cumulative[i];
        let leg_len = self.cumulative[i + 1] - leg_start;
        let t = if leg_len <= f64::EPSILON {
            0.0
        } else {
            (distance - leg_start) / leg_len
        };
        self.waypoints[i].lerp(self.waypoints[i + 1], t)
    }
}

impl fmt::Display for Polyline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "polyline({} waypoints, {:.2} m)",
            self.waypoints.len(),
            self.length()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l_path() -> Polyline {
        Polyline::new(vec![
            Point::new(0.0, 0.0),
            Point::new(3.0, 0.0),
            Point::new(3.0, 4.0),
        ])
        .expect("valid")
    }

    #[test]
    fn single_waypoint_rejected() {
        assert_eq!(
            Polyline::new(vec![Point::new(0.0, 0.0)]),
            Err(BuildPolylineError)
        );
    }

    #[test]
    fn length_sums_legs() {
        assert_eq!(l_path().length(), 7.0);
    }

    #[test]
    fn point_at_distance_endpoints_clamp() {
        let p = l_path();
        assert_eq!(p.point_at_distance(-1.0), Point::new(0.0, 0.0));
        assert_eq!(p.point_at_distance(100.0), Point::new(3.0, 4.0));
    }

    #[test]
    fn point_at_distance_interpolates_across_legs() {
        let p = l_path();
        assert_eq!(p.point_at_distance(1.5), Point::new(1.5, 0.0));
        assert_eq!(p.point_at_distance(3.0), Point::new(3.0, 0.0));
        assert_eq!(p.point_at_distance(5.0), Point::new(3.0, 2.0));
    }

    #[test]
    fn repeated_waypoints_are_tolerated() {
        let origin = Point::new(0.0, 0.0);
        let p = Polyline::new(vec![origin, origin, Point::new(2.0, 0.0)]).expect("valid");
        assert_eq!(p.length(), 2.0);
        assert_eq!(p.point_at_distance(1.0), Point::new(1.0, 0.0));
    }
}
