//! Deterministic mean path loss: the predictable part of "signal strength
//! decreases predictably as we get further" (paper Section III).

/// The log-distance path-loss model used throughout the simulator.
///
/// Mean received power at distance `d`:
/// `rssi(d) = rssi_at_reference − 10·n·log10(d / d0)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogDistanceModel {
    /// Mean RSSI at the reference distance (1 m), in dBm.
    pub(crate) rssi_at_reference: f64,
    /// Path-loss exponent `n` (2.0 free space, 2–3 indoors).
    pub(crate) exponent: f64,
}

impl LogDistanceModel {
    /// Creates a model from the 1-metre RSSI and path-loss exponent.
    ///
    /// # Panics
    ///
    /// Panics if `exponent` is not positive.
    pub(crate) fn new(rssi_at_reference: f64, exponent: f64) -> Self {
        assert!(
            exponent > 0.0,
            "path-loss exponent must be positive (got {exponent})"
        );
        LogDistanceModel {
            rssi_at_reference,
            exponent,
        }
    }

    /// Mean RSSI in dBm at `distance_m` metres (clamped to ≥ 1 cm).
    pub fn mean_rssi_dbm(&self, distance_m: f64) -> f64 {
        let d = distance_m.max(0.01);
        self.rssi_at_reference - 10.0 * self.exponent * d.log10()
    }
}

impl Default for LogDistanceModel {
    /// −59 dBm at 1 m with `n = 2.2`: a typical calibrated BLE dongle in a
    /// mildly cluttered room.
    fn default() -> Self {
        LogDistanceModel {
            rssi_at_reference: -59.0,
            exponent: 2.2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_distance_reference_point() {
        let m = LogDistanceModel::new(-59.0, 2.5);
        assert_eq!(m.mean_rssi_dbm(1.0), -59.0);
    }

    #[test]
    fn higher_exponent_decays_faster() {
        let soft = LogDistanceModel::new(-59.0, 2.0);
        let hard = LogDistanceModel::new(-59.0, 3.0);
        assert!(hard.mean_rssi_dbm(5.0) < soft.mean_rssi_dbm(5.0));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_exponent_panics() {
        let _ = LogDistanceModel::new(-59.0, 0.0);
    }
}
