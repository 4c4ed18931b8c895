//! Deterministic mean path loss: the predictable part of "signal strength
//! decreases predictably as we get further" (paper Section III).

/// Speed of light in m/s, used by the free-space reference loss.
const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// BLE advertising centre frequency in Hz (2.44 GHz, mid-band).
pub const BLE_FREQUENCY_HZ: f64 = 2.44e9;

/// Free-space path loss in dB at `distance_m` metres and `frequency_hz`.
///
/// `FSPL = 20·log10(4π·d·f / c)`. Distances below one centimetre are clamped
/// to avoid the singularity at zero.
///
/// # Examples
///
/// ```
/// use roomsense_radio::pathloss::{free_space_loss_db, BLE_FREQUENCY_HZ};
///
/// let at_1m = free_space_loss_db(1.0, BLE_FREQUENCY_HZ);
/// // 2.44 GHz at 1 m loses very close to 40 dB.
/// assert!((at_1m - 40.2).abs() < 0.5);
/// ```
pub fn free_space_loss_db(distance_m: f64, frequency_hz: f64) -> f64 {
    let d = distance_m.max(0.01);
    20.0 * (4.0 * std::f64::consts::PI * d * frequency_hz / SPEED_OF_LIGHT).log10()
}

/// The log-distance path-loss model used throughout the simulator.
///
/// Mean received power at distance `d`:
/// `rssi(d) = rssi_at_reference − 10·n·log10(d / d0)`.
///
/// # Examples
///
/// ```
/// use roomsense_radio::pathloss::LogDistanceModel;
///
/// let model = LogDistanceModel::new(-59.0, 2.0);
/// assert_eq!(model.mean_rssi_dbm(1.0), -59.0);
/// assert!((model.mean_rssi_dbm(10.0) - -79.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogDistanceModel {
    /// Mean RSSI at the reference distance (1 m), in dBm.
    pub rssi_at_reference: f64,
    /// Path-loss exponent `n` (2.0 free space, 2–3 indoors).
    pub exponent: f64,
}

impl LogDistanceModel {
    /// Creates a model from the 1-metre RSSI and path-loss exponent.
    ///
    /// # Panics
    ///
    /// Panics if `exponent` is not positive.
    pub fn new(rssi_at_reference: f64, exponent: f64) -> Self {
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
    fn fspl_grows_with_distance_and_frequency() {
        assert!(free_space_loss_db(2.0, BLE_FREQUENCY_HZ) > free_space_loss_db(1.0, BLE_FREQUENCY_HZ));
        assert!(free_space_loss_db(1.0, 5.0e9) > free_space_loss_db(1.0, 2.44e9));
    }

    #[test]
    fn fspl_inverse_square_law() {
        let one = free_space_loss_db(1.0, BLE_FREQUENCY_HZ);
        let ten = free_space_loss_db(10.0, BLE_FREQUENCY_HZ);
        assert!((ten - one - 20.0).abs() < 1e-9);
    }

    #[test]
    fn fspl_clamps_tiny_distances() {
        assert_eq!(
            free_space_loss_db(0.0, BLE_FREQUENCY_HZ),
            free_space_loss_db(0.01, BLE_FREQUENCY_HZ)
        );
    }

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
