//! TX-power calibration (paper Section IV-A).
//!
//! "In order to make the transmitter work properly it is necessary to
//! calibrate the TX power field. This can be done by putting the device one
//! metre away from the transmitter … changing the TX power field until the
//! detected distance by the device is about one metre."
//!
//! The [`Calibrator`] automates that loop: collect RSSI samples at a known
//! one-metre separation, then set the packet's measured-power field to a
//! robust summary of the samples (median, to shrug off multipath spikes).

use crate::MeasuredPower;
use std::fmt;

/// Error producing a calibration value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CalibrateTxPowerError {
    /// Fewer samples than the configured minimum were collected.
    NotEnoughSamples {
        /// Samples collected so far.
        collected: usize,
        /// Samples required.
        required: usize,
    },
    /// A sample was not a finite number.
    NonFiniteSample,
}

impl fmt::Display for CalibrateTxPowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CalibrateTxPowerError::NotEnoughSamples {
                collected,
                required,
            } => write!(
                f,
                "need at least {required} calibration samples, have {collected}"
            ),
            CalibrateTxPowerError::NonFiniteSample => {
                write!(f, "calibration sample was not a finite number")
            }
        }
    }
}

impl std::error::Error for CalibrateTxPowerError {}

/// Accumulates one-metre RSSI samples and produces a calibrated
/// [`MeasuredPower`].
///
/// # Examples
///
/// ```
/// use roomsense_ibeacon::Calibrator;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut cal = Calibrator::new(5);
/// for rssi in [-58.0, -61.0, -59.5, -60.0, -57.0, -59.0] {
///     cal.add_sample(rssi)?;
/// }
/// let power = cal.measured_power()?;
/// assert_eq!(power.dbm(), -59);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Calibrator {
    samples: Vec<f64>,
    min_samples: usize,
}

impl Calibrator {
    /// Creates a calibrator that requires at least `min_samples` readings.
    ///
    /// # Panics
    ///
    /// Panics if `min_samples` is zero.
    pub fn new(min_samples: usize) -> Self {
        assert!(min_samples > 0, "calibration needs at least one sample");
        Calibrator {
            samples: Vec::new(),
            min_samples,
        }
    }

    /// Records one RSSI reading (in dBm) taken one metre from the
    /// transmitter.
    ///
    /// # Errors
    ///
    /// `CalibrateTxPowerError::NonFiniteSample` if `rssi_dbm` is NaN or
    /// infinite; the sample is not recorded.
    pub fn add_sample(&mut self, rssi_dbm: f64) -> Result<(), CalibrateTxPowerError> {
        if !rssi_dbm.is_finite() {
            return Err(CalibrateTxPowerError::NonFiniteSample);
        }
        self.samples.push(rssi_dbm);
        Ok(())
    }

    /// Number of samples recorded so far.
    pub fn sample_count(&self) -> usize {
        self.samples.len()
    }

    /// Whether enough samples have been collected.
    pub(crate) fn is_ready(&self) -> bool {
        self.samples.len() >= self.min_samples
    }

    /// The calibrated measured power: the median sample, rounded to the
    /// nearest dBm and clamped to the `i8` field range.
    ///
    /// # Errors
    ///
    /// `CalibrateTxPowerError::NotEnoughSamples` until
    /// `is_ready` is true.
    pub fn measured_power(&self) -> Result<MeasuredPower, CalibrateTxPowerError> {
        if !self.is_ready() {
            return Err(CalibrateTxPowerError::NotEnoughSamples {
                collected: self.samples.len(),
                required: self.min_samples,
            });
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
        let mid = sorted.len() / 2;
        let median = if sorted.len().is_multiple_of(2) {
            (sorted[mid - 1] + sorted[mid]) / 2.0
        } else {
            sorted[mid]
        };
        let clamped = median.round().clamp(f64::from(i8::MIN), f64::from(i8::MAX));
        Ok(MeasuredPower::new(clamped as i8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_count() {
        let mut cal = Calibrator::new(3);
        for s in [-70.0, -59.0, -61.0] {
            cal.add_sample(s).expect("finite");
        }
        assert_eq!(cal.measured_power().expect("ready").dbm(), -61);
    }

    #[test]
    fn median_of_even_count_averages() {
        let mut cal = Calibrator::new(2);
        for s in [-58.0, -62.0] {
            cal.add_sample(s).expect("finite");
        }
        assert_eq!(cal.measured_power().expect("ready").dbm(), -60);
    }

    #[test]
    fn outliers_do_not_skew_median() {
        let mut cal = Calibrator::new(5);
        for s in [-59.0, -59.0, -59.0, -59.0, -20.0] {
            cal.add_sample(s).expect("finite");
        }
        assert_eq!(cal.measured_power().expect("ready").dbm(), -59);
    }

    #[test]
    fn not_ready_until_min_samples() {
        let mut cal = Calibrator::new(3);
        cal.add_sample(-59.0).expect("finite");
        assert!(!cal.is_ready());
        assert_eq!(
            cal.measured_power(),
            Err(CalibrateTxPowerError::NotEnoughSamples {
                collected: 1,
                required: 3,
            })
        );
    }

    #[test]
    fn non_finite_sample_rejected() {
        let mut cal = Calibrator::new(1);
        assert_eq!(
            cal.add_sample(f64::NAN),
            Err(CalibrateTxPowerError::NonFiniteSample)
        );
        assert_eq!(cal.sample_count(), 0);
    }

    #[test]
    fn clamps_to_i8_range() {
        let mut cal = Calibrator::new(1);
        cal.add_sample(-200.0).expect("finite");
        assert_eq!(cal.measured_power().expect("ready").dbm(), i8::MIN);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_min_samples_panics() {
        let _ = Calibrator::new(0);
    }
}
