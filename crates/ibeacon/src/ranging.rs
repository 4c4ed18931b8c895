//! Ranging: RSSI → distance estimation.
//!
//! iBeacon ranging (paper Section III) exploits that "the strength of the
//! signal decreases predictably as we get further": knowing the calibrated
//! RSSI at one metre (the packet's measured-power field) and the current
//! RSSI, the receiver estimates its distance from the transmitter.

use crate::MeasuredPower;

/// Parameters of the log-distance ranging model.
///
/// # Examples
///
/// ```
/// use roomsense_ibeacon::RangingConfig;
///
/// let indoor = RangingConfig::default();
/// assert_eq!(indoor.path_loss_exponent, 2.2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangingConfig {
    /// Path-loss exponent `n` in `rssi(d) = P1m − 10·n·log10(d)`.
    ///
    /// 2.0 is free space; indoor environments with walls and furniture
    /// typically measure 2–3.
    pub path_loss_exponent: f64,
}

impl Default for RangingConfig {
    /// A mildly cluttered indoor environment (`n = 2.2`).
    fn default() -> Self {
        RangingConfig {
            path_loss_exponent: 2.2,
        }
    }
}

/// Estimates distance by inverting the log-distance path-loss law:
/// `d = 10^((P1m − rssi) / (10·n))`.
///
/// This is the model-consistent inverse of the simulator's propagation law
/// and is what the paper's custom distance-estimation pipeline feeds into the
/// smoothing filter.
///
/// # Examples
///
/// ```
/// use roomsense_ibeacon::{estimate_distance_log, MeasuredPower, RangingConfig};
///
/// let cfg = RangingConfig { path_loss_exponent: 2.0 };
/// let d = estimate_distance_log(-79.0, MeasuredPower::new(-59), &cfg);
/// assert!((d - 10.0).abs() < 1e-9); // 20 dB at n=2 is one decade
/// ```
pub fn estimate_distance_log(
    rssi_dbm: f64,
    measured_power: MeasuredPower,
    config: &RangingConfig,
) -> f64 {
    if !rssi_dbm.is_finite() {
        return -1.0;
    }
    let exponent =
        (f64::from(measured_power.dbm()) - rssi_dbm) / (10.0 * config.path_loss_exponent);
    10f64.powf(exponent)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_rssi_means_one_metre() {
        let d = estimate_distance_log(-59.0, MeasuredPower::new(-59), &RangingConfig::default());
        assert!((d - 1.0).abs() < 1e-9);
    }

    #[test]
    fn distance_is_monotonic_in_rssi() {
        let mp = MeasuredPower::new(-59);
        let cfg = RangingConfig::default();
        let mut last = 0.0;
        for rssi in (-100..=-30).rev() {
            let d = estimate_distance_log(f64::from(rssi), mp, &cfg);
            assert!(d >= last, "log model not monotonic at {rssi}");
            last = d;
        }
    }

    #[test]
    fn non_finite_rssi_means_unknown() {
        assert_eq!(
            estimate_distance_log(
                f64::INFINITY,
                MeasuredPower::new(-59),
                &RangingConfig::default()
            ),
            -1.0
        );
    }

    #[test]
    fn log_model_decade_check() {
        // At n = 2.5, 25 dB of extra loss is one decade.
        let cfg = RangingConfig {
            path_loss_exponent: 2.5,
        };
        let d = estimate_distance_log(-84.0, MeasuredPower::new(-59), &cfg);
        assert!((d - 10.0).abs() < 1e-9, "got {d}");
    }
}
