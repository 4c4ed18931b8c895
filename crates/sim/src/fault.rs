//! Scheduled fault windows: the deterministic substrate of fault injection.
//!
//! Every layer of the system (radio transmitters, the phone's BLE stack,
//! the uplink, the BMS server) degrades the same way: it is healthy, then
//! broken for a while, then healthy again. A [`FaultSchedule`] captures that
//! as a sorted list of half-open [`FaultWindow`]s, generated once from a
//! seeded RNG so that two runs with the same seed inject *exactly* the same
//! faults — a prerequisite for reproducible resilience experiments.

use crate::{SimDuration, SimTime};
use rand::Rng;
use std::fmt;

/// One fault interval: the component is down in `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// When the fault begins (inclusive).
    pub from: SimTime,
    /// When the component recovers (exclusive).
    pub until: SimTime,
}

impl FaultWindow {
    /// Creates a window.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty or inverted.
    pub fn new(from: SimTime, until: SimTime) -> Self {
        assert!(until > from, "fault window must have positive length");
        FaultWindow { from, until }
    }

    /// True while the fault is active.
    pub fn contains(&self, at: SimTime) -> bool {
        at >= self.from && at < self.until
    }

    /// How long the fault lasts.
    pub(crate) fn length(&self) -> SimDuration {
        self.until.saturating_since(self.from)
    }
}

impl fmt::Display for FaultWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.from, self.until)
    }
}

/// A component's full fault history: zero or more non-overlapping windows,
/// sorted by start time.
///
/// # Examples
///
/// ```
/// use roomsense_sim::{FaultSchedule, FaultWindow, SimTime};
///
/// let schedule = FaultSchedule::new(vec![
///     FaultWindow::new(SimTime::from_secs(10), SimTime::from_secs(20)),
/// ]);
/// assert!(!schedule.active_at(SimTime::from_secs(5)));
/// assert!(schedule.active_at(SimTime::from_secs(15)));
/// assert!(!schedule.active_at(SimTime::from_secs(20)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultSchedule {
    windows: Vec<FaultWindow>,
}

impl FaultSchedule {
    /// A schedule with no faults: the component is always healthy.
    pub fn none() -> Self {
        FaultSchedule::default()
    }

    /// Builds a schedule from windows (sorted by start time; overlaps are
    /// tolerated and simply behave as their union).
    pub fn new(mut windows: Vec<FaultWindow>) -> Self {
        windows.sort_by_key(|w| w.from);
        FaultSchedule { windows }
    }

    /// Draws a schedule over `[0, horizon)`: healthy gaps of mean
    /// `mean_uptime` alternate with faults of mean `mean_outage`, both
    /// exponentially distributed. The same RNG state always yields the same
    /// schedule.
    ///
    /// # Panics
    ///
    /// Panics if either mean duration is zero.
    pub fn generate<R: Rng + ?Sized>(
        rng: &mut R,
        horizon: SimDuration,
        mean_uptime: SimDuration,
        mean_outage: SimDuration,
    ) -> Self {
        assert!(!mean_uptime.is_zero(), "mean uptime must be non-zero");
        assert!(!mean_outage.is_zero(), "mean outage must be non-zero");
        let exp_ms = |rng: &mut R, mean: SimDuration| -> u64 {
            // Inverse-CDF exponential draw, floored at 1 ms so windows
            // always advance time.
            let u: f64 = rng.gen::<f64>();
            let ms = -(1.0 - u).ln() * mean.as_millis() as f64;
            (ms.round() as u64).max(1)
        };
        let mut windows = Vec::new();
        let mut cursor = SimTime::ZERO;
        let end = SimTime::ZERO + horizon;
        loop {
            cursor += SimDuration::from_millis(exp_ms(rng, mean_uptime));
            if cursor >= end {
                break;
            }
            let until = (cursor + SimDuration::from_millis(exp_ms(rng, mean_outage))).min(end);
            windows.push(FaultWindow::new(cursor, until));
            cursor = until;
            if cursor >= end {
                break;
            }
        }
        FaultSchedule { windows }
    }

    /// The windows, sorted by start time.
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// True while any window is active at `at`.
    pub fn active_at(&self, at: SimTime) -> bool {
        // Windows are sorted by start; partition to the candidates that
        // begin at or before `at` and check the most recent few (overlaps
        // are rare and short, so a reverse scan bounded by `from <= at`
        // suffices).
        let idx = self.windows.partition_point(|w| w.from <= at);
        self.windows[..idx].iter().rev().any(|w| w.contains(at))
    }

    /// Total scheduled downtime (overlaps counted once per window).
    pub fn total_downtime(&self) -> SimDuration {
        self.windows
            .iter()
            .fold(SimDuration::ZERO, |acc, w| acc + w.length())
    }
}

impl fmt::Display for FaultSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} fault window(s), {} total downtime",
            self.windows.len(),
            self.total_downtime()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;

    #[test]
    fn window_is_half_open() {
        let w = FaultWindow::new(SimTime::from_secs(1), SimTime::from_secs(2));
        assert!(!w.contains(SimTime::from_millis(999)));
        assert!(w.contains(SimTime::from_secs(1)));
        assert!(w.contains(SimTime::from_millis(1999)));
        assert!(!w.contains(SimTime::from_secs(2)));
        assert_eq!(w.length(), SimDuration::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "positive length")]
    fn empty_window_panics() {
        let _ = FaultWindow::new(SimTime::from_secs(1), SimTime::from_secs(1));
    }

    #[test]
    fn none_is_always_healthy() {
        let s = FaultSchedule::none();
        assert!(s.is_empty());
        assert!(!s.active_at(SimTime::ZERO));
        assert_eq!(s.total_downtime(), SimDuration::ZERO);
    }

    #[test]
    fn new_sorts_windows() {
        let s = FaultSchedule::new(vec![
            FaultWindow::new(SimTime::from_secs(30), SimTime::from_secs(40)),
            FaultWindow::new(SimTime::from_secs(5), SimTime::from_secs(10)),
        ]);
        assert_eq!(s.windows()[0].from, SimTime::from_secs(5));
        assert!(s.active_at(SimTime::from_secs(7)));
        assert!(!s.active_at(SimTime::from_secs(20)));
        assert!(s.active_at(SimTime::from_secs(35)));
    }

    #[test]
    fn generated_schedules_are_deterministic() {
        let make = || {
            let mut r = rng::for_component(99, "fault-gen");
            FaultSchedule::generate(
                &mut r,
                SimDuration::from_secs(3600),
                SimDuration::from_secs(300),
                SimDuration::from_secs(60),
            )
        };
        assert_eq!(make(), make());
        assert!(!make().is_empty(), "an hour at 5-min MTBF must fault");
    }

    #[test]
    fn generated_windows_stay_inside_the_horizon() {
        let mut r = rng::for_component(3, "fault-horizon");
        let horizon = SimDuration::from_secs(600);
        let s = FaultSchedule::generate(
            &mut r,
            horizon,
            SimDuration::from_secs(60),
            SimDuration::from_secs(120),
        );
        let end = SimTime::ZERO + horizon;
        for w in s.windows() {
            assert!(w.until <= end, "window {w} spills past {end}");
        }
        for pair in s.windows().windows(2) {
            assert!(
                pair[0].until <= pair[1].from,
                "overlap {} {}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn downtime_scales_with_outage_share() {
        // Mean uptime 60 s vs mean outage 60 s ⇒ roughly half the horizon
        // is down.
        let mut r = rng::for_component(4, "fault-share");
        let horizon = SimDuration::from_secs(36_000);
        let s = FaultSchedule::generate(
            &mut r,
            horizon,
            SimDuration::from_secs(60),
            SimDuration::from_secs(60),
        );
        let share = s.total_downtime().as_secs_f64() / horizon.as_secs_f64();
        assert!((0.35..0.65).contains(&share), "share {share}");
    }
}
