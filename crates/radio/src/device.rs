//! Receiver device profiles.
//!
//! Paper Section VIII / Fig 11: "the strength of the signal received from an
//! iBeacon antenna, considering the same transmitter and the same distance,
//! changes significantly between different devices." A phone's RX chain adds
//! a roughly constant gain offset plus its own measurement noise, and buggy
//! stacks drop samples. The profile captures exactly those three numbers,
//! per phone model.

use std::fmt;

/// Radio characteristics of a receiving device model.
///
/// # Examples
///
/// ```
/// use roomsense_radio::DeviceRxProfile;
///
/// let s3 = DeviceRxProfile::galaxy_s3_mini();
/// let n5 = DeviceRxProfile::nexus_5();
/// // The two phones systematically disagree (paper Fig 11):
/// assert!(n5.gain_offset_db != s3.gain_offset_db);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceRxProfile {
    /// Human-readable model name ("Samsung Galaxy S3 Mini").
    pub model: String,
    /// Constant RX-chain gain relative to a reference receiver, in dB.
    /// Positive means this phone reports stronger RSSI at the same field
    /// strength.
    pub gain_offset_db: f64,
    /// Standard deviation of per-sample measurement noise, in dB (ADC and
    /// AGC quantisation, crystal drift).
    pub(crate) noise_sigma_db: f64,
    /// Probability that the BLE stack silently drops a received sample
    /// ("the adapter sometimes looses some samples due to bugs in the
    /// software stack", paper Section V).
    pub(crate) sample_loss_probability: f64,
    /// Receiver sensitivity: packets below this RSSI are undetectable, dBm.
    pub(crate) sensitivity_dbm: f64,
}

impl DeviceRxProfile {
    /// Creates a profile.
    ///
    /// # Panics
    ///
    /// Panics if `sample_loss_probability` is outside `[0, 1]` or
    /// `noise_sigma_db` is negative.
    pub fn new(
        model: impl Into<String>,
        gain_offset_db: f64,
        noise_sigma_db: f64,
        sample_loss_probability: f64,
        sensitivity_dbm: f64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&sample_loss_probability),
            "loss probability must be in [0, 1] (got {sample_loss_probability})"
        );
        assert!(
            noise_sigma_db >= 0.0,
            "noise sigma must be non-negative (got {noise_sigma_db})"
        );
        DeviceRxProfile {
            model: model.into(),
            gain_offset_db,
            noise_sigma_db,
            sample_loss_probability,
            sensitivity_dbm,
        }
    }

    /// The Samsung Galaxy S3 Mini running Android 4.1 — the paper's main
    /// measurement device. Modest antenna, noticeable stack sample loss.
    pub fn galaxy_s3_mini() -> Self {
        DeviceRxProfile::new("Samsung Galaxy S3 Mini", 0.0, 2.0, 0.08, -94.0)
    }

    /// The LG Nexus 5 — the paper's comparison device in Fig 11. Hotter RX
    /// chain (reports several dB stronger at the same distance), cleaner
    /// stack.
    pub fn nexus_5() -> Self {
        DeviceRxProfile::new("LG Nexus 5", 6.0, 1.5, 0.04, -96.0)
    }

    /// An iPhone 5s — used when comparing against the authors' previous
    /// iOS-based system. Similar RF quality to the Nexus 5.
    pub fn iphone_5s() -> Self {
        DeviceRxProfile::new("Apple iPhone 5s", 4.0, 1.5, 0.01, -96.0)
    }

    /// An idealised receiver: no offset, no noise, no loss. Useful for
    /// isolating propagation effects in tests and ablations.
    pub fn ideal() -> Self {
        DeviceRxProfile::new("ideal receiver", 0.0, 0.0, 0.0, -120.0)
    }

    /// A profile identical to `self` but with the gain offset removed —
    /// the per-device calibration the paper proposes as future work
    /// ("collect experimental information on the power strength received by
    /// different devices and using them to tune the information provided to
    /// the server").
    pub fn calibrated(&self) -> Self {
        DeviceRxProfile {
            gain_offset_db: 0.0,
            ..self.clone()
        }
    }
}

impl Default for DeviceRxProfile {
    fn default() -> Self {
        DeviceRxProfile::galaxy_s3_mini()
    }
}

impl fmt::Display for DeviceRxProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (offset {:+.1} dB, noise σ {:.1} dB, loss {:.0}%)",
            self.model,
            self.gain_offset_db,
            self.noise_sigma_db,
            self.sample_loss_probability * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_in_offset() {
        assert!(
            DeviceRxProfile::nexus_5().gain_offset_db
                > DeviceRxProfile::galaxy_s3_mini().gain_offset_db
        );
    }

    #[test]
    fn calibrated_removes_offset_only() {
        let n5 = DeviceRxProfile::nexus_5();
        let cal = n5.calibrated();
        assert_eq!(cal.gain_offset_db, 0.0);
        assert_eq!(cal.noise_sigma_db, n5.noise_sigma_db);
        assert_eq!(cal.model, n5.model);
    }

    #[test]
    fn ideal_is_noiseless() {
        let ideal = DeviceRxProfile::ideal();
        assert_eq!(ideal.noise_sigma_db, 0.0);
        assert_eq!(ideal.sample_loss_probability, 0.0);
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn invalid_loss_probability_panics() {
        let _ = DeviceRxProfile::new("bad", 0.0, 1.0, 1.5, -90.0);
    }

    #[test]
    #[should_panic(expected = "noise sigma")]
    fn negative_noise_panics() {
        let _ = DeviceRxProfile::new("bad", 0.0, -1.0, 0.5, -90.0);
    }

    #[test]
    fn display_mentions_model() {
        let text = DeviceRxProfile::galaxy_s3_mini().to_string();
        assert!(text.contains("S3 Mini"));
    }
}
