//! Co-channel interference: the "presence of other signals" the paper names
//! among the environmental factors corrupting Bluetooth (Section V).
//!
//! 2.4 GHz is shared with Wi-Fi, microwave ovens and everything else. We
//! model an interferer as a duty-cycled transmitter: while its burst is on,
//! BLE packets near it are lost with a collision probability. This is a
//! packet-erasure model, not a noise-floor model — at BLE's short packet
//! lengths, collisions kill packets rather than degrading RSSI.

use roomsense_geom::Point;
use roomsense_sim::{SimDuration, SimTime};
use std::fmt;

/// A duty-cycled 2.4 GHz interference source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interferer {
    position: Point,
    range_m: f64,
    period: SimDuration,
    duty_cycle: f64,
    collision_probability: f64,
}

impl Interferer {
    /// Creates an interferer.
    ///
    /// * `range_m` — receivers farther than this are unaffected.
    /// * `period` / `duty_cycle` — the burst schedule: on for
    ///   `duty_cycle × period` at the start of each period.
    /// * `collision_probability` — chance a BLE packet near an active
    ///   interferer is destroyed.
    ///
    /// # Panics
    ///
    /// Panics if `range_m` is not positive, `period` is zero, or either
    /// probability-like argument is outside `[0, 1]`.
    pub fn new(
        position: Point,
        range_m: f64,
        period: SimDuration,
        duty_cycle: f64,
        collision_probability: f64,
    ) -> Self {
        assert!(range_m > 0.0, "range must be positive (got {range_m})");
        assert!(!period.is_zero(), "period must be non-zero");
        assert!(
            (0.0..=1.0).contains(&duty_cycle),
            "duty cycle must be in [0, 1] (got {duty_cycle})"
        );
        assert!(
            (0.0..=1.0).contains(&collision_probability),
            "collision probability must be in [0, 1] (got {collision_probability})"
        );
        Interferer {
            position,
            range_m,
            period,
            duty_cycle,
            collision_probability,
        }
    }

    /// A typical busy Wi-Fi access point: 100 ms beacon-and-traffic cycle,
    /// on 30 % of the time, killing 35 % of nearby BLE packets while on.
    pub fn busy_wifi_ap(position: Point) -> Self {
        Interferer::new(position, 8.0, SimDuration::from_millis(100), 0.3, 0.35)
    }

    /// A running microwave oven: 10 ms magnetron half-cycle modelled as a
    /// 20 ms period at 50 % duty, destroying most nearby packets while on.
    pub fn microwave_oven(position: Point) -> Self {
        Interferer::new(position, 4.0, SimDuration::from_millis(20), 0.5, 0.8)
    }

    /// Whether the burst is on at time `at`.
    pub(crate) fn is_active(&self, at: SimTime) -> bool {
        let phase = at.as_millis() % self.period.as_millis();
        (phase as f64) < self.duty_cycle * self.period.as_millis() as f64
    }

    /// The probability a packet received at `rx` at time `at` collides.
    pub(crate) fn collision_probability(&self, at: SimTime, rx: Point) -> f64 {
        if self.is_active(at) && self.position.distance_to(rx) <= self.range_m {
            self.collision_probability
        } else {
            0.0
        }
    }
}

impl fmt::Display for Interferer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "interferer at {} (range {:.1} m, duty {:.0}%, kill {:.0}%)",
            self.position,
            self.range_m,
            self.duty_cycle * 100.0,
            self.collision_probability * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ten_second_half_duty() -> Interferer {
        Interferer::new(
            Point::new(0.0, 0.0),
            5.0,
            SimDuration::from_secs(10),
            0.5,
            1.0,
        )
    }

    #[test]
    fn duty_cycle_schedule() {
        let i = ten_second_half_duty();
        assert!(i.is_active(SimTime::from_secs(0)));
        assert!(i.is_active(SimTime::from_millis(4_999)));
        assert!(!i.is_active(SimTime::from_secs(5)));
        assert!(!i.is_active(SimTime::from_millis(9_999)));
        assert!(i.is_active(SimTime::from_secs(10))); // next period
    }

    #[test]
    fn out_of_range_receivers_unaffected() {
        let i = ten_second_half_duty();
        assert_eq!(
            i.collision_probability(SimTime::ZERO, Point::new(10.0, 0.0)),
            0.0
        );
        assert_eq!(
            i.collision_probability(SimTime::ZERO, Point::new(3.0, 0.0)),
            1.0
        );
    }

    #[test]
    fn inactive_interferer_is_harmless() {
        let i = ten_second_half_duty();
        assert_eq!(
            i.collision_probability(SimTime::from_secs(6), Point::new(1.0, 0.0)),
            0.0
        );
    }

    #[test]
    fn zero_duty_cycle_never_active() {
        let i = Interferer::new(
            Point::new(0.0, 0.0),
            5.0,
            SimDuration::from_secs(1),
            0.0,
            0.5,
        );
        for ms in [0u64, 100, 500, 999, 1000] {
            assert!(!i.is_active(SimTime::from_millis(ms)));
        }
    }

    #[test]
    fn full_duty_cycle_always_active() {
        let i = Interferer::new(
            Point::new(0.0, 0.0),
            5.0,
            SimDuration::from_secs(1),
            1.0,
            0.5,
        );
        for ms in [0u64, 100, 500, 999] {
            assert!(i.is_active(SimTime::from_millis(ms)));
        }
    }

    #[test]
    #[should_panic(expected = "duty cycle")]
    fn invalid_duty_panics() {
        let _ = Interferer::new(
            Point::new(0.0, 0.0),
            5.0,
            SimDuration::from_secs(1),
            1.5,
            0.5,
        );
    }

    #[test]
    fn presets_are_sane() {
        let ap = Interferer::busy_wifi_ap(Point::new(0.0, 0.0));
        let oven = Interferer::microwave_oven(Point::new(0.0, 0.0));
        // The oven is nastier up close but shorter-ranged.
        assert!(
            oven.collision_probability(SimTime::ZERO, Point::new(1.0, 0.0))
                > ap.collision_probability(SimTime::ZERO, Point::new(1.0, 0.0))
        );
        assert_eq!(
            oven.collision_probability(SimTime::ZERO, Point::new(6.0, 0.0)),
            0.0
        );
    }
}
