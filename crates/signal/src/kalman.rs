//! A scalar Kalman filter — the "what if we used something heavier than
//! EWMA?" ablation.

use crate::{DistanceFilter, LossPolicy};
use std::fmt;

/// A one-dimensional constant-position Kalman filter over distance.
///
/// State: the distance to one beacon. Process noise `q` models occupant
/// movement between cycles; measurement noise `r` models the RSSI-derived
/// distance error. Uses the same loss policy interface as [`EwmaFilter`]
/// so the ablation bench can swap them.
///
/// [`EwmaFilter`]: crate::EwmaFilter
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KalmanFilter {
    process_noise: f64,
    measurement_noise: f64,
    policy: LossPolicy,
    state: Option<(f64, f64)>, // (estimate, variance)
    consecutive_losses: u32,
}

impl KalmanFilter {
    /// Creates a filter with process noise variance `q` (m² per cycle) and
    /// measurement noise variance `r` (m²).
    ///
    /// # Panics
    ///
    /// Panics if either noise is not positive and finite.
    pub(crate) fn new(process_noise: f64, measurement_noise: f64) -> Self {
        assert!(
            process_noise.is_finite() && process_noise > 0.0,
            "process noise must be positive (got {process_noise})"
        );
        assert!(
            measurement_noise.is_finite() && measurement_noise > 0.0,
            "measurement noise must be positive (got {measurement_noise})"
        );
        KalmanFilter {
            process_noise,
            measurement_noise,
            policy: LossPolicy::HoldOneCycle,
            state: None,
            consecutive_losses: 0,
        }
    }

    /// Tuned for the paper's setting: a walker at ≤1.5 m/s sampled every
    /// couple of seconds (`q = 0.5`), distance estimates good to roughly a
    /// metre (`r = 1.0`).
    pub fn indoor_default() -> Self {
        KalmanFilter::new(0.5, 1.0)
    }

    /// Returns the filter with a different loss policy.
    pub fn with_policy(mut self, policy: LossPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The current estimate.
    pub(crate) fn current(&self) -> Option<f64> {
        self.state.map(|(x, _)| x)
    }
}

impl DistanceFilter for KalmanFilter {
    fn update(&mut self, observation: Option<f64>) -> Option<f64> {
        match observation {
            Some(z) => {
                self.consecutive_losses = 0;
                let next = match self.state {
                    None => (z, self.measurement_noise),
                    Some((x, p)) => {
                        // Predict: position persists, uncertainty grows.
                        let p_pred = p + self.process_noise;
                        // Update.
                        let k = p_pred / (p_pred + self.measurement_noise);
                        (x + k * (z - x), (1.0 - k) * p_pred)
                    }
                };
                self.state = Some(next);
                self.current()
            }
            None => {
                self.consecutive_losses += 1;
                // Prediction-only step: keep the estimate, inflate variance.
                if let Some((x, p)) = self.state {
                    self.state = Some((x, p + self.process_noise));
                }
                let drop_after = match self.policy {
                    LossPolicy::HoldOneCycle => 2,
                    LossPolicy::DropImmediately => 1,
                };
                if self.consecutive_losses >= drop_after {
                    self.state = None;
                }
                self.current()
            }
        }
    }

    fn current(&self) -> Option<f64> {
        KalmanFilter::current(self)
    }

    fn reset(&mut self) {
        self.state = None;
        self.consecutive_losses = 0;
    }

    fn name(&self) -> &'static str {
        "kalman"
    }
}

impl fmt::Display for KalmanFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "kalman(q={:.2}, r={:.2})",
            self.process_noise, self.measurement_noise
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_measurement_initialises() {
        let mut f = KalmanFilter::indoor_default();
        assert_eq!(f.update(Some(3.0)), Some(3.0));
    }

    #[test]
    fn estimate_lies_between_prior_and_measurement() {
        let mut f = KalmanFilter::new(0.1, 1.0);
        f.update(Some(2.0));
        let est = f.update(Some(6.0)).expect("tracking");
        assert!(est > 2.0 && est < 6.0, "est {est}");
    }

    #[test]
    fn variance_shrinks_with_measurements_grows_with_losses() {
        let mut f = KalmanFilter::indoor_default();
        f.update(Some(2.0));
        let v0 = f.state.map(|(_, p)| p).expect("tracking");
        f.update(Some(2.0));
        let v1 = f.state.map(|(_, p)| p).expect("tracking");
        assert!(v1 < v0);
        f.update(None);
        let v2 = f.state.map(|(_, p)| p).expect("held");
        assert!(v2 > v1);
    }

    #[test]
    fn converges_to_constant_signal() {
        let mut f = KalmanFilter::indoor_default();
        let mut last = 0.0;
        for _ in 0..100 {
            last = f.update(Some(5.0)).expect("tracking");
        }
        assert!((last - 5.0).abs() < 1e-6);
    }

    #[test]
    fn hold_one_cycle_like_the_paper() {
        let mut f = KalmanFilter::indoor_default();
        f.update(Some(2.0));
        assert!(f.update(None).is_some());
        assert!(f.update(None).is_none());
    }

    #[test]
    fn tracks_a_ramp_with_lag() {
        let mut f = KalmanFilter::indoor_default();
        let mut estimate = 0.0;
        for i in 0..20 {
            estimate = f.update(Some(f64::from(i))).expect("tracking");
        }
        // Lags a true ramp but stays within a few metres.
        assert!(estimate > 14.0 && estimate < 19.0, "est {estimate}");
    }

    #[test]
    #[should_panic(expected = "process noise")]
    fn zero_process_noise_panics() {
        let _ = KalmanFilter::new(0.0, 1.0);
    }
}
