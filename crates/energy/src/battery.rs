//! The battery: draining it and producing Fig 10's percent-vs-time trace.

use crate::{account, PowerProfile, UplinkArchitecture, UsageTimeline};
use roomsense_sim::{SimDuration, SimTime};
use std::fmt;

/// One point of a battery discharge trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatteryTracePoint {
    /// Sample time.
    pub at: SimTime,
    /// State of charge in percent.
    pub percent: f64,
}

/// A phone battery with a state of charge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Battery {
    capacity_mwh: f64,
    drained_mwh: f64,
}

impl Battery {
    /// A full battery of the given capacity (mWh).
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not positive and finite.
    pub(crate) fn new(capacity_mwh: f64) -> Self {
        assert!(
            capacity_mwh.is_finite() && capacity_mwh > 0.0,
            "capacity must be positive (got {capacity_mwh})"
        );
        Battery {
            capacity_mwh,
            drained_mwh: 0.0,
        }
    }

    /// A full battery matching a device profile.
    pub fn for_profile(profile: &PowerProfile) -> Self {
        Battery::new(profile.battery_capacity_mwh)
    }

    /// Removes energy; clamps at empty.
    pub(crate) fn drain_mwh(&mut self, energy_mwh: f64) {
        self.drained_mwh = (self.drained_mwh + energy_mwh.max(0.0)).min(self.capacity_mwh);
    }

    /// State of charge in percent (100 = full).
    pub(crate) fn percent(&self) -> f64 {
        100.0 * (1.0 - self.drained_mwh / self.capacity_mwh)
    }

    /// True once fully drained.
    pub(crate) fn is_empty(&self) -> bool {
        self.drained_mwh >= self.capacity_mwh
    }

    /// Projected lifetime at a constant draw, in hours.
    pub fn lifetime_hours(&self, mean_power_mw: f64) -> f64 {
        if mean_power_mw <= 0.0 {
            return f64::INFINITY;
        }
        self.capacity_mwh / mean_power_mw
    }

    /// Simulates discharging this battery through a usage timeline,
    /// sampling the state of charge `samples` times (plus the start point).
    ///
    /// Transport-event energy lands in the sample interval containing the
    /// event; continuous components drain linearly. This is what the paper's
    /// `VeryNiceBlindApp` battery logger recorded (Fig 10).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is zero or the timeline has zero duration.
    pub fn discharge_trace(
        mut self,
        profile: &PowerProfile,
        timeline: &UsageTimeline,
        architecture: UplinkArchitecture,
        samples: usize,
    ) -> Vec<BatteryTracePoint> {
        assert!(samples > 0, "need at least one sample");
        assert!(
            !timeline.duration.is_zero(),
            "timeline duration must be non-zero"
        );
        let total_ms = timeline.duration.as_millis();
        let step_ms = (total_ms / samples as u64).max(1);
        // Continuous power: everything except the per-event bursts.
        let continuous_ledger = account(
            profile,
            &UsageTimeline {
                duration: timeline.duration,
                scan_active: timeline.scan_active,
                transport_events: vec![],
            },
            architecture,
        );
        let continuous_mw = continuous_ledger.mean_power_mw(timeline.duration);
        // Per-event energy, priced individually.
        let event_energy_mwh: Vec<(SimTime, f64)> = timeline
            .transport_events
            .iter()
            .map(|e| {
                let one = account(
                    profile,
                    &UsageTimeline {
                        duration: SimDuration::ZERO,
                        scan_active: SimDuration::ZERO,
                        transport_events: vec![*e],
                    },
                    architecture,
                );
                (e.start, one.total_mwh())
            })
            .collect();

        let mut trace = vec![BatteryTracePoint {
            at: SimTime::ZERO,
            percent: self.percent(),
        }];
        let mut event_idx = 0usize;
        let mut t_ms = 0u64;
        while t_ms < total_ms {
            let next_ms = (t_ms + step_ms).min(total_ms);
            let slice = SimDuration::from_millis(next_ms - t_ms);
            self.drain_mwh(continuous_mw * slice.as_secs_f64() / 3600.0);
            while event_idx < event_energy_mwh.len()
                && event_energy_mwh[event_idx].0.as_millis() < next_ms
            {
                self.drain_mwh(event_energy_mwh[event_idx].1);
                event_idx += 1;
            }
            trace.push(BatteryTracePoint {
                at: SimTime::from_millis(next_ms),
                percent: self.percent(),
            });
            if self.is_empty() {
                break;
            }
            t_ms = next_ms;
        }
        trace
    }
}

impl fmt::Display for Battery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "battery {:.1}% of {:.0} mWh",
            self.percent(),
            self.capacity_mwh
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roomsense_net::{TransportEvent, TransportKind};

    #[test]
    fn drain_clamps_at_empty() {
        let mut b = Battery::new(100.0);
        b.drain_mwh(250.0);
        assert_eq!(b.percent(), 0.0);
        assert!(b.is_empty());
    }

    #[test]
    fn negative_drain_is_ignored() {
        let mut b = Battery::new(100.0);
        b.drain_mwh(-50.0);
        assert_eq!(b.percent(), 100.0);
    }

    #[test]
    fn lifetime_projection() {
        let b = Battery::new(5700.0);
        assert!((b.lifetime_hours(570.0) - 10.0).abs() < 1e-9);
        assert!(b.lifetime_hours(0.0).is_infinite());
    }

    #[test]
    fn trace_is_monotonically_decreasing() {
        let profile = PowerProfile::galaxy_s3_mini();
        let timeline = UsageTimeline {
            duration: SimDuration::from_secs(3600),
            scan_active: SimDuration::from_secs(3600),
            transport_events: (0..1800)
                .map(|i| TransportEvent {
                    kind: TransportKind::BluetoothRelay,
                    start: SimTime::from_secs(i * 2),
                    active: SimDuration::from_millis(450),
                    delivered: true,
                })
                .collect(),
        };
        let trace = Battery::for_profile(&profile).discharge_trace(
            &profile,
            &timeline,
            UplinkArchitecture::BluetoothRelay,
            60,
        );
        assert!(trace.len() >= 60);
        for pair in trace.windows(2) {
            assert!(pair[1].percent <= pair[0].percent);
            assert!(pair[1].at > pair[0].at);
        }
        assert_eq!(trace[0].percent, 100.0);
    }

    #[test]
    fn wifi_trace_drops_faster_than_bt() {
        let profile = PowerProfile::galaxy_s3_mini();
        let make = |kind: TransportKind, active_ms: u64| UsageTimeline {
            duration: SimDuration::from_secs(3600),
            scan_active: SimDuration::from_secs(3600),
            transport_events: (0..1800)
                .map(|i| TransportEvent {
                    kind,
                    start: SimTime::from_secs(i * 2),
                    active: SimDuration::from_millis(active_ms),
                    delivered: true,
                })
                .collect(),
        };
        let wifi = Battery::for_profile(&profile).discharge_trace(
            &profile,
            &make(TransportKind::Wifi, 65),
            UplinkArchitecture::Wifi,
            10,
        );
        let bt = Battery::for_profile(&profile).discharge_trace(
            &profile,
            &make(TransportKind::BluetoothRelay, 500),
            UplinkArchitecture::BluetoothRelay,
            10,
        );
        let wifi_final = wifi.last().expect("non-empty").percent;
        let bt_final = bt.last().expect("non-empty").percent;
        assert!(bt_final > wifi_final, "bt {bt_final} wifi {wifi_final}");
    }

    #[test]
    fn trace_stops_when_battery_dies() {
        let profile = PowerProfile::galaxy_s3_mini();
        let timeline = UsageTimeline {
            duration: SimDuration::from_secs(48 * 3600), // two days: will not survive
            scan_active: SimDuration::from_secs(48 * 3600),
            transport_events: vec![],
        };
        let trace = Battery::for_profile(&profile).discharge_trace(
            &profile,
            &timeline,
            UplinkArchitecture::Wifi,
            100,
        );
        let last = trace.last().expect("non-empty");
        assert_eq!(last.percent, 0.0);
        assert!(last.at < SimTime::from_secs(48 * 3600));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = Battery::new(0.0);
    }
}
