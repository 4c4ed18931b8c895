//! The proximity baseline: "you are in the room of the closest beacon".
//!
//! Paper Section VI: "In our previous work we used the Proximity Technique;
//! this technique uses the strongest signal received from a grid of
//! transmitters, each of which associated with a particular location."
//! This is the 84 %-accuracy baseline the SVM improves to ~94 %.

use crate::Classifier;
use std::fmt;

/// Classifies by the minimum-distance beacon.
///
/// The feature vector is the smoothed per-beacon distance, one entry per
/// beacon in a fixed order; entries ≥ the missing sentinel mean "beacon not
/// seen". Each beacon maps to the room it is installed in; a vector with no
/// visible beacon maps to `fallback_label` ("outside").
///
/// # Examples
///
/// ```
/// use roomsense_ml::{Classifier, ProximityClassifier};
///
/// // Beacons 0 and 1 are in rooms 0 and 1; label 2 is "outside".
/// let clf = ProximityClassifier::new(vec![0, 1], 2, 50.0);
/// assert_eq!(clf.predict(&[1.5, 6.0]), 0); // beacon 0 closest
/// assert_eq!(clf.predict(&[6.0, 1.5]), 1);
/// assert_eq!(clf.predict(&[99.0, 99.0]), 2); // nothing visible
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProximityClassifier {
    beacon_rooms: Vec<usize>,
    fallback_label: usize,
    missing_sentinel: f64,
}

impl ProximityClassifier {
    /// Creates the classifier.
    ///
    /// * `beacon_rooms[i]` — the room label of the beacon behind feature `i`.
    /// * `fallback_label` — predicted when every feature is missing.
    /// * `missing_sentinel` — distances at or above this count as "not
    ///   seen".
    ///
    /// # Panics
    ///
    /// Panics if `beacon_rooms` is empty or the sentinel is not positive.
    pub fn new(beacon_rooms: Vec<usize>, fallback_label: usize, missing_sentinel: f64) -> Self {
        assert!(!beacon_rooms.is_empty(), "need at least one beacon");
        assert!(
            missing_sentinel > 0.0,
            "missing sentinel must be positive (got {missing_sentinel})"
        );
        ProximityClassifier {
            beacon_rooms,
            fallback_label,
            missing_sentinel,
        }
    }
}

impl Classifier for ProximityClassifier {
    fn predict(&self, features: &[f64]) -> usize {
        assert_eq!(
            features.len(),
            self.beacon_rooms.len(),
            "feature width {} does not match beacon count {}",
            features.len(),
            self.beacon_rooms.len()
        );
        // Strict `<` while scanning in feature order makes the tie-break
        // explicit: when two beacons report exactly equal smoothed distance,
        // the lowest feature index wins, so predictions never depend on
        // iterator or comparator internals.
        let mut closest: Option<usize> = None;
        let mut best = f64::INFINITY;
        for (idx, &d) in features.iter().enumerate() {
            assert!(!d.is_nan(), "finite distances");
            if d < self.missing_sentinel && d < best {
                closest = Some(idx);
                best = d;
            }
        }
        match closest {
            Some(idx) => self.beacon_rooms[idx],
            None => self.fallback_label,
        }
    }

    fn name(&self) -> &'static str {
        "proximity"
    }
}

impl fmt::Display for ProximityClassifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "proximity over {} beacons (missing >= {})",
            self.beacon_rooms.len(),
            self.missing_sentinel
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clf() -> ProximityClassifier {
        // Two beacons in room 0, one in room 1; fallback 2.
        ProximityClassifier::new(vec![0, 0, 1], 2, 50.0)
    }

    #[test]
    fn picks_room_of_minimum_distance() {
        assert_eq!(clf().predict(&[3.0, 1.0, 9.0]), 0);
        assert_eq!(clf().predict(&[9.0, 9.0, 0.5]), 1);
    }

    #[test]
    fn missing_beacons_are_ignored() {
        assert_eq!(clf().predict(&[60.0, 60.0, 3.0]), 1);
    }

    #[test]
    fn all_missing_falls_back() {
        assert_eq!(clf().predict(&[60.0, 99.0, 50.0]), 2);
    }

    #[test]
    fn equal_distances_break_ties_to_the_lowest_feature_index() {
        // Beacons 1 (room 0) and 2 (room 1) tie exactly: index 1 wins.
        assert_eq!(clf().predict(&[9.0, 2.0, 2.0]), 0);
        // Beacons 0 and 2 tie; index 0 wins even though 2 was seen "later".
        assert_eq!(clf().predict(&[2.0, 9.0, 2.0]), 0);
        // A three-way tie still resolves to feature 0's room.
        assert_eq!(clf().predict(&[3.5, 3.5, 3.5]), 0);
    }

    #[test]
    fn exact_sentinel_counts_as_missing() {
        assert_eq!(clf().predict(&[50.0, 50.0, 50.0]), 2);
    }

    #[test]
    #[should_panic(expected = "does not match beacon count")]
    fn wrong_width_panics() {
        let _ = clf().predict(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "at least one beacon")]
    fn empty_beacons_panics() {
        let _ = ProximityClassifier::new(vec![], 0, 50.0);
    }
}
