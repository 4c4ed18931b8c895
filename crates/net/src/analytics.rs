//! Movement analytics: tracking occupants through the building.
//!
//! Paper Section I: iBeacon occupancy data "can be used to gather
//! information about their movements (thus identifying and tracking them)
//! inside the building". This module turns a device's classified room
//! history into the artifacts a BMS actually wants: the transition log,
//! per-room dwell times, and a debounced "believed room" that shrugs off
//! single-cycle misclassifications.

use crate::RoomLabel;
use roomsense_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt;

/// One room-to-room move in a device's history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoomTransition {
    /// When the device was first seen in the new room.
    pub at: SimTime,
    /// Room left.
    pub from: RoomLabel,
    /// Room entered.
    pub to: RoomLabel,
}

impl fmt::Display for RoomTransition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} -> {}", self.at, self.from, self.to)
    }
}

/// A debounced room tracker: the believed room changes only after
/// `confirmations` consecutive agreeing classifications, suppressing
/// single-cycle flicker at room boundaries.
///
/// # Examples
///
/// ```
/// use roomsense_net::DebouncedRoom;
/// use roomsense_sim::SimTime;
///
/// let mut tracker = DebouncedRoom::new(2);
/// assert_eq!(tracker.observe(SimTime::from_secs(2), 0), Some(0)); // first fix
/// assert_eq!(tracker.observe(SimTime::from_secs(4), 1), Some(0)); // unconfirmed
/// assert_eq!(tracker.observe(SimTime::from_secs(6), 1), Some(1)); // confirmed
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DebouncedRoom {
    confirmations: u32,
    believed: Option<RoomLabel>,
    candidate: Option<(RoomLabel, u32)>,
}

impl DebouncedRoom {
    /// Creates a tracker that needs `confirmations` consecutive agreeing
    /// observations to switch rooms.
    ///
    /// # Panics
    ///
    /// Panics if `confirmations` is zero.
    pub fn new(confirmations: u32) -> Self {
        assert!(confirmations > 0, "need at least one confirmation");
        DebouncedRoom {
            confirmations,
            believed: None,
            candidate: None,
        }
    }

    /// Feeds one classification; returns the (possibly updated) belief.
    pub fn observe(&mut self, _at: SimTime, room: RoomLabel) -> Option<RoomLabel> {
        match self.believed {
            None => {
                // First fix is accepted immediately.
                self.believed = Some(room);
            }
            Some(current) if current == room => {
                self.candidate = None;
            }
            Some(_) => {
                let count = match self.candidate {
                    Some((c, n)) if c == room => n + 1,
                    _ => 1,
                };
                if count >= self.confirmations {
                    self.believed = Some(room);
                    self.candidate = None;
                } else {
                    self.candidate = Some((room, count));
                }
            }
        }
        self.believed
    }
}

/// Per-device movement analytics computed from a classified room history.
///
/// # Examples
///
/// ```
/// use roomsense_net::MovementAnalytics;
/// use roomsense_sim::SimTime;
///
/// let history = vec![
///     (SimTime::from_secs(0), 0),
///     (SimTime::from_secs(10), 0),
///     (SimTime::from_secs(20), 1),
///     (SimTime::from_secs(30), 1),
/// ];
/// let analytics = MovementAnalytics::from_history(&history);
/// assert_eq!(analytics.transition_count(), 1);
/// assert_eq!(analytics.dwell(0).as_secs_f64(), 20.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MovementAnalytics {
    transitions: Vec<RoomTransition>,
    dwell: BTreeMap<RoomLabel, SimDuration>,
    span: SimDuration,
}

impl MovementAnalytics {
    /// Computes analytics from `(time, room)` samples in chronological
    /// order. Dwell in a room accrues from each sample until the next one;
    /// the final sample contributes nothing (its dwell is unknown).
    ///
    /// # Panics
    ///
    /// Panics if timestamps go backwards.
    pub fn from_history(history: &[(SimTime, RoomLabel)]) -> Self {
        let mut transitions = Vec::new();
        let mut dwell: BTreeMap<RoomLabel, SimDuration> = BTreeMap::new();
        for pair in history.windows(2) {
            let (t0, room0) = pair[0];
            let (t1, room1) = pair[1];
            assert!(t1 >= t0, "history must be chronological");
            *dwell.entry(room0).or_insert(SimDuration::ZERO) += t1 - t0;
            if room1 != room0 {
                transitions.push(RoomTransition {
                    at: t1,
                    from: room0,
                    to: room1,
                });
            }
        }
        let span = match (history.first(), history.last()) {
            (Some((first, _)), Some((last, _))) => *last - *first,
            _ => SimDuration::ZERO,
        };
        MovementAnalytics {
            transitions,
            dwell,
            span,
        }
    }

    /// The room-to-room moves, in order.
    pub fn transitions(&self) -> &[RoomTransition] {
        &self.transitions
    }

    /// Number of room changes.
    pub fn transition_count(&self) -> usize {
        self.transitions.len()
    }

    /// Total time attributed to one room.
    pub fn dwell(&self, room: RoomLabel) -> SimDuration {
        self.dwell.get(&room).copied().unwrap_or(SimDuration::ZERO)
    }

    /// The dwell table, room → time.
    pub fn dwell_table(&self) -> &BTreeMap<RoomLabel, SimDuration> {
        &self.dwell
    }

    /// The room the device spent the most time in, if any.
    pub fn favourite_room(&self) -> Option<RoomLabel> {
        self.dwell
            .iter()
            .max_by_key(|(_, d)| d.as_millis())
            .map(|(room, _)| *room)
    }

    /// Moves per hour — a crude restlessness measure for the
    /// accelerometer-gating policy.
    pub fn moves_per_hour(&self) -> f64 {
        if self.span.is_zero() {
            return 0.0;
        }
        self.transitions.len() as f64 / (self.span.as_secs_f64() / 3600.0)
    }
}

impl fmt::Display for MovementAnalytics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} transitions over {}, favourite room {:?}",
            self.transitions.len(),
            self.span,
            self.favourite_room()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn history() -> Vec<(SimTime, RoomLabel)> {
        vec![
            (SimTime::from_secs(0), 0),
            (SimTime::from_secs(10), 0),
            (SimTime::from_secs(20), 1),
            (SimTime::from_secs(50), 1),
            (SimTime::from_secs(60), 0),
            (SimTime::from_secs(70), 0),
        ]
    }

    #[test]
    fn transitions_detected() {
        let a = MovementAnalytics::from_history(&history());
        assert_eq!(a.transition_count(), 2);
        assert_eq!(
            a.transitions()[0],
            RoomTransition {
                at: SimTime::from_secs(20),
                from: 0,
                to: 1,
            }
        );
    }

    #[test]
    fn dwell_accrues_until_next_sample() {
        let a = MovementAnalytics::from_history(&history());
        // Room 0: 0→20 and 60→70 = 30 s; room 1: 20→60 = 40 s.
        assert_eq!(a.dwell(0), SimDuration::from_secs(30));
        assert_eq!(a.dwell(1), SimDuration::from_secs(40));
        assert_eq!(a.favourite_room(), Some(1));
    }

    #[test]
    fn empty_and_single_sample_histories() {
        let empty = MovementAnalytics::from_history(&[]);
        assert_eq!(empty.transition_count(), 0);
        assert_eq!(empty.span, SimDuration::ZERO);
        assert_eq!(empty.favourite_room(), None);
        let single = MovementAnalytics::from_history(&[(SimTime::from_secs(5), 3)]);
        assert_eq!(single.dwell(3), SimDuration::ZERO);
    }

    #[test]
    fn moves_per_hour_scales() {
        let a = MovementAnalytics::from_history(&history());
        // 2 moves in 70 s ≈ 103 moves/hour.
        assert!((a.moves_per_hour() - 2.0 * 3600.0 / 70.0).abs() < 1e-9);
    }

    #[test]
    fn debounce_suppresses_single_cycle_flicker() {
        let mut tracker = DebouncedRoom::new(2);
        tracker.observe(SimTime::from_secs(0), 0);
        // One stray misclassification: belief holds.
        assert_eq!(tracker.observe(SimTime::from_secs(2), 4), Some(0));
        assert_eq!(tracker.observe(SimTime::from_secs(4), 0), Some(0));
        // A real move: two agreeing cycles flip the belief.
        assert_eq!(tracker.observe(SimTime::from_secs(6), 1), Some(0));
        assert_eq!(tracker.observe(SimTime::from_secs(8), 1), Some(1));
    }

    #[test]
    fn debounce_candidate_resets_on_disagreement() {
        let mut tracker = DebouncedRoom::new(3);
        tracker.observe(SimTime::from_secs(0), 0);
        tracker.observe(SimTime::from_secs(2), 1);
        tracker.observe(SimTime::from_secs(4), 2); // different candidate
        tracker.observe(SimTime::from_secs(6), 1);
        tracker.observe(SimTime::from_secs(8), 1);
        // 1 has only two consecutive confirmations, needs three.
        assert_eq!(tracker.believed, Some(0));
        assert_eq!(tracker.observe(SimTime::from_secs(10), 1), Some(1));
    }

    #[test]
    #[should_panic(expected = "chronological")]
    fn backwards_history_panics() {
        let _ = MovementAnalytics::from_history(&[
            (SimTime::from_secs(10), 0),
            (SimTime::from_secs(5), 0),
        ]);
    }

    #[test]
    #[should_panic(expected = "confirmation")]
    fn zero_confirmations_panics() {
        let _ = DebouncedRoom::new(0);
    }
}
