//! Transmitter-side fault injection: dead batteries and sagging TX power.
//!
//! The paper's beacons are battery-powered USB dongles; in a real deployment
//! they die (outage) and brown out (a CR2032 near end-of-life can drop the
//! radiated power by several dB while the calibrated measured-power byte in
//! the advertisement stays put — so every receiver systematically
//! overestimates its distance). [`TransmitterFault`] schedules both failure
//! modes from seeded [`FaultSchedule`]s.

use crate::TransmitterProfile;
use roomsense_sim::{FaultSchedule, SimTime};
use std::fmt;

/// The scheduled failure modes of one transmitter.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TransmitterFault {
    outages: FaultSchedule,
    degraded: FaultSchedule,
    degradation_db: f64,
}

impl TransmitterFault {
    /// A transmitter that never fails.
    pub fn healthy() -> Self {
        TransmitterFault::default()
    }

    /// Schedules outages (no advertisements at all) and degraded windows
    /// (TX power sags by `degradation_db` while the advertised
    /// measured-power byte stays calibrated).
    ///
    /// # Panics
    ///
    /// Panics if `degradation_db` is negative.
    pub fn new(outages: FaultSchedule, degraded: FaultSchedule, degradation_db: f64) -> Self {
        assert!(
            degradation_db >= 0.0,
            "degradation must be non-negative dB (got {degradation_db})"
        );
        TransmitterFault {
            outages,
            degraded,
            degradation_db,
        }
    }

    /// True when the transmitter is advertising at all at `at`.
    pub fn transmits_at(&self, at: SimTime) -> bool {
        !self.outages.active_at(at)
    }

    /// The transmitter's effective profile at `at`: the configured one,
    /// with its radiated power reduced while a degraded window is active.
    pub fn profile_at(&self, at: SimTime, profile: &TransmitterProfile) -> TransmitterProfile {
        if self.degradation_db > 0.0 && self.degraded.active_at(at) {
            TransmitterProfile {
                rssi_at_1m_dbm: profile.rssi_at_1m_dbm - self.degradation_db,
                ..*profile
            }
        } else {
            *profile
        }
    }

    /// The outage schedule.
    pub fn outages(&self) -> &FaultSchedule {
        &self.outages
    }

    /// The degraded-power schedule.
    pub fn degraded(&self) -> &FaultSchedule {
        &self.degraded
    }
}

impl fmt::Display for TransmitterFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tx fault: {} outage(s), {} degraded window(s) at -{:.0} dB",
            self.outages.windows().len(),
            self.degraded.windows().len(),
            self.degradation_db
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roomsense_sim::{FaultWindow, SimTime};

    fn window(from_s: u64, until_s: u64) -> FaultSchedule {
        FaultSchedule::new(vec![FaultWindow::new(
            SimTime::from_secs(from_s),
            SimTime::from_secs(until_s),
        )])
    }

    #[test]
    fn healthy_transmitter_always_transmits_at_full_power() {
        let fault = TransmitterFault::healthy();
        let profile = TransmitterProfile::default();
        assert!(fault.transmits_at(SimTime::from_secs(123)));
        assert_eq!(fault.profile_at(SimTime::from_secs(123), &profile), profile);
    }

    #[test]
    fn outage_silences_the_transmitter() {
        let fault = TransmitterFault::new(window(10, 20), FaultSchedule::none(), 0.0);
        assert!(fault.transmits_at(SimTime::from_secs(5)));
        assert!(!fault.transmits_at(SimTime::from_secs(15)));
        assert!(fault.transmits_at(SimTime::from_secs(20)));
    }

    #[test]
    fn degraded_window_sags_tx_power_but_keeps_the_rest() {
        let fault = TransmitterFault::new(FaultSchedule::none(), window(0, 60), 8.0);
        let profile = TransmitterProfile::default();
        let degraded = fault.profile_at(SimTime::from_secs(30), &profile);
        assert_eq!(degraded.rssi_at_1m_dbm, profile.rssi_at_1m_dbm - 8.0);
        assert_eq!(degraded.path_loss_exponent, profile.path_loss_exponent);
        assert_eq!(degraded.los_rice_factor, profile.los_rice_factor);
        // Outside the window the full power returns.
        assert_eq!(fault.profile_at(SimTime::from_secs(90), &profile), profile);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_degradation_panics() {
        let _ = TransmitterFault::new(FaultSchedule::none(), FaultSchedule::none(), -3.0);
    }
}
