//! Accelerometer-gated sensing — the paper's future-work proposal,
//! implemented.
//!
//! Section VIII: "a possible solution … is to use the accelerometer to
//! detect if the user is moving to enable the iBeacon sensing and
//! transmitting (if the user has not changed position, it means that there
//! is no useful information about the occupancy)."

use crate::UsageTimeline;
use roomsense_sim::{SimDuration, SimTime};
use std::fmt;

/// The intervals during which the accelerometer reports motion.
#[derive(Debug, Clone, PartialEq)]
pub struct MotionIntervals {
    intervals: Vec<(SimTime, SimTime)>,
}

/// Error building [`MotionIntervals`]: an interval ended before it started
/// or overlapped its predecessor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildMotionError;

impl fmt::Display for BuildMotionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "motion intervals must be well-formed and sorted")
    }
}

impl std::error::Error for BuildMotionError {}

impl MotionIntervals {
    /// Creates the interval set. Intervals must be sorted, non-overlapping
    /// and non-empty.
    ///
    /// # Errors
    ///
    /// `BuildMotionError` when the intervals are malformed.
    pub fn new(intervals: Vec<(SimTime, SimTime)>) -> Result<Self, BuildMotionError> {
        for w in intervals.windows(2) {
            if w[0].1 > w[1].0 {
                return Err(BuildMotionError);
            }
        }
        if intervals.iter().any(|(a, b)| a >= b) {
            return Err(BuildMotionError);
        }
        Ok(MotionIntervals { intervals })
    }

    /// Whether the user is moving at `t` (intervals are half-open
    /// `[start, end)`).
    pub(crate) fn is_moving(&self, t: SimTime) -> bool {
        self.intervals.iter().any(|(a, b)| t >= *a && t < *b)
    }

    /// Moving time clipped to `[0, horizon)`.
    pub(crate) fn moving_within(&self, horizon: SimDuration) -> SimDuration {
        let end = SimTime::ZERO + horizon;
        self.intervals
            .iter()
            .fold(SimDuration::ZERO, |acc, (a, b)| {
                let clipped_end = (*b).min(end);
                acc + clipped_end.saturating_since(*a)
            })
    }
}

/// Applies accelerometer gating to a usage timeline: scanning only runs
/// while moving, and uplink bursts that would have fired while stationary
/// are suppressed.
///
/// Returns the gated timeline; its energy (via [`account`](crate::account))
/// is what the paper's proposal would achieve.
///
/// # Examples
///
/// ```
/// use roomsense_energy::{gate_timeline, MotionIntervals, UsageTimeline};
/// use roomsense_sim::{SimDuration, SimTime};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let timeline = UsageTimeline {
///     duration: SimDuration::from_secs(600),
///     scan_active: SimDuration::from_secs(600),
///     transport_events: vec![],
/// };
/// // Moving only for the first minute.
/// let motion = MotionIntervals::new(vec![(SimTime::ZERO, SimTime::from_secs(60))])?;
/// let gated = gate_timeline(&timeline, &motion);
/// assert_eq!(gated.scan_active, SimDuration::from_secs(60));
/// # Ok(())
/// # }
/// ```
pub fn gate_timeline(timeline: &UsageTimeline, motion: &MotionIntervals) -> UsageTimeline {
    let moving = motion.moving_within(timeline.duration);
    // Scanning ran for `scan_active` out of `duration`; under gating it only
    // runs while moving, at the same duty cycle.
    let duty = if timeline.duration.is_zero() {
        0.0
    } else {
        timeline.scan_active.as_secs_f64() / timeline.duration.as_secs_f64()
    };
    let scan_active = SimDuration::from_secs_f64(moving.as_secs_f64() * duty);
    let transport_events = timeline
        .transport_events
        .iter()
        .filter(|e| motion.is_moving(e.start))
        .copied()
        .collect();
    UsageTimeline {
        duration: timeline.duration,
        scan_active,
        transport_events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{account, PowerProfile, UplinkArchitecture};
    use roomsense_net::{TransportEvent, TransportKind};

    fn motion_first_quarter(total_secs: u64) -> MotionIntervals {
        MotionIntervals::new(vec![(SimTime::ZERO, SimTime::from_secs(total_secs / 4))])
            .expect("valid intervals")
    }

    fn busy_timeline(total_secs: u64) -> UsageTimeline {
        UsageTimeline {
            duration: SimDuration::from_secs(total_secs),
            scan_active: SimDuration::from_secs(total_secs),
            transport_events: (0..total_secs / 2)
                .map(|i| TransportEvent {
                    kind: TransportKind::BluetoothRelay,
                    start: SimTime::from_secs(i * 2),
                    active: SimDuration::from_millis(450),
                    delivered: true,
                })
                .collect(),
        }
    }

    #[test]
    fn gating_reduces_scan_time_and_events() {
        let timeline = busy_timeline(3600);
        let gated = gate_timeline(&timeline, &motion_first_quarter(3600));
        assert_eq!(gated.scan_active, SimDuration::from_secs(900));
        assert_eq!(gated.transport_events.len(), 450);
    }

    #[test]
    fn gating_saves_energy() {
        let profile = PowerProfile::galaxy_s3_mini();
        let timeline = busy_timeline(3600);
        let gated = gate_timeline(&timeline, &motion_first_quarter(3600));
        let full = account(&profile, &timeline, UplinkArchitecture::BluetoothRelay);
        let saved = account(&profile, &gated, UplinkArchitecture::BluetoothRelay);
        assert!(saved.total_mj() < full.total_mj());
        // Baseline + CPU still run the whole time, so savings are bounded.
        let fraction = 1.0 - saved.total_mj() / full.total_mj();
        assert!(fraction > 0.15 && fraction < 0.50, "fraction {fraction}");
    }

    #[test]
    fn always_moving_changes_nothing() {
        let timeline = busy_timeline(600);
        let motion =
            MotionIntervals::new(vec![(SimTime::ZERO, SimTime::from_secs(600))]).expect("valid");
        let gated = gate_timeline(&timeline, &motion);
        assert_eq!(gated, timeline);
    }

    #[test]
    fn never_moving_drops_everything_dynamic() {
        let timeline = busy_timeline(600);
        let motion = MotionIntervals::new(vec![]).expect("valid");
        let gated = gate_timeline(&timeline, &motion);
        assert_eq!(gated.scan_active, SimDuration::ZERO);
        assert!(gated.transport_events.is_empty());
        assert_eq!(gated.duration, timeline.duration);
    }

    #[test]
    fn intervals_validate() {
        assert!(
            MotionIntervals::new(vec![(SimTime::from_secs(5), SimTime::from_secs(2))]).is_err()
        );
        assert!(MotionIntervals::new(vec![
            (SimTime::ZERO, SimTime::from_secs(10)),
            (SimTime::from_secs(5), SimTime::from_secs(15)),
        ])
        .is_err());
    }

    #[test]
    fn moving_within_clips_to_horizon() {
        let motion =
            MotionIntervals::new(vec![(SimTime::ZERO, SimTime::from_secs(100))]).expect("valid");
        assert_eq!(
            motion.moving_within(SimDuration::from_secs(40)),
            SimDuration::from_secs(40)
        );
        assert_eq!(
            motion.moving_within(SimDuration::from_secs(500)),
            SimDuration::from_secs(100)
        );
    }
}
