//! Integer-millisecond simulation time.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// An absolute simulation timestamp, in milliseconds since the start of the
/// run.
///
/// # Examples
///
/// ```
/// use roomsense_sim::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_secs(2);
/// assert_eq!(t.as_millis(), 2000);
/// assert_eq!(t - SimTime::ZERO, SimDuration::from_millis(2000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time, in milliseconds.
///
/// # Examples
///
/// ```
/// use roomsense_sim::SimDuration;
///
/// let scan_period = SimDuration::from_secs(2);
/// assert_eq!(scan_period.as_secs_f64(), 2.0);
/// assert_eq!(scan_period * 3, SimDuration::from_millis(6000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a timestamp `millis` milliseconds after the start of the run.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis)
    }

    /// Creates a timestamp `secs` seconds after the start of the run.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1000)
    }

    /// Milliseconds since the start of the run.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Seconds since the start of the run, as a float (for plotting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// The duration elapsed since `earlier`, or zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis)
    }

    /// Creates a duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// millisecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration must be finite and non-negative (got {secs})"
        );
        SimDuration((secs * 1000.0).round() as u64)
    }

    /// Length in milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Length in seconds, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// True when the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self` (u64 underflow);
    /// use [`SimTime::saturating_since`] when order is not guaranteed.
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_duration_advances_time() {
        let t = SimTime::from_secs(1) + SimDuration::from_millis(500);
        assert_eq!(t.as_millis(), 1500);
    }

    #[test]
    fn subtraction_gives_duration() {
        let d = SimTime::from_secs(3) - SimTime::from_secs(1);
        assert_eq!(d, SimDuration::from_secs(2));
    }

    #[test]
    fn saturating_since_clamps() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(2);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_secs(1));
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(
            SimDuration::from_secs_f64(0.0014),
            SimDuration::from_millis(1)
        );
        assert_eq!(
            SimDuration::from_secs_f64(0.0016),
            SimDuration::from_millis(2)
        );
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_duration_panics() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(SimTime::from_millis(10) < SimTime::from_millis(11));
        assert!(SimDuration::from_secs(1) > SimDuration::from_millis(999));
    }

    #[test]
    fn scalar_multiplication() {
        assert_eq!(SimDuration::from_millis(250) * 4, SimDuration::from_secs(1));
    }
}
