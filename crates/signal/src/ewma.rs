//! The paper's smoothing filter: EWMA with a two-consecutive-loss hold.

use std::fmt;

/// The coefficient the paper settles on after tuning: "we found that 0.65 is
/// a good trade off between stability and responsiveness".
pub const PAPER_COEFFICIENT: f64 = 0.65;

/// What a filter does when a scan cycle produced no observation for the
/// beacon it tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LossPolicy {
    /// The paper's policy: keep reporting the last estimate through the
    /// first missed cycle, drop the track on the second consecutive miss.
    #[default]
    HoldOneCycle,
    /// Drop immediately on any miss (the naive baseline the paper improves
    /// on; used by the `ablate_loss_hold` bench).
    DropImmediately,
}

/// A filter mapping per-cycle distance observations (possibly missing) to
/// smoothed estimates (possibly absent).
///
/// All filters in this crate share this interface so the ablation benches
/// can swap them freely.
pub trait DistanceFilter {
    /// Consumes one scan cycle's observation for the tracked beacon
    /// (`None` = the beacon was not seen this cycle) and returns the current
    /// estimate (`None` = the track is considered lost).
    fn update(&mut self, observation: Option<f64>) -> Option<f64>;

    /// The current estimate without consuming an observation (`None` = not
    /// tracking). Must equal what the last [`update`](Self::update) call
    /// returned.
    fn current(&self) -> Option<f64>;

    /// Resets the filter to its initial, track-less state.
    fn reset(&mut self);

    /// A short name for reports.
    fn name(&self) -> &'static str;
}

/// The paper's exponentially weighted moving average filter.
///
/// `pᵢ = c·pᵢ₋₁ + (1−c)·vᵢ` — "the older position will influence the
/// current one with a given probability, the next one with a lower
/// probability and so on".
///
/// # Examples
///
/// ```
/// use roomsense_signal::{DistanceFilter, EwmaFilter, PAPER_COEFFICIENT};
///
/// let mut f = EwmaFilter::paper();
/// assert_eq!(f.update(Some(2.0)), Some(2.0));          // first sample passes through
/// let second = f.update(Some(4.0)).expect("tracking"); // smoothed toward 4
/// assert!((second - (0.65 * 2.0 + 0.35 * 4.0)).abs() < 1e-12);
/// assert_eq!(f.update(None), Some(second));            // 1st loss: hold
/// assert_eq!(f.update(None), None);                    // 2nd loss: drop
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EwmaFilter {
    coefficient: f64,
    policy: LossPolicy,
    state: Option<f64>,
    consecutive_losses: u32,
}

impl EwmaFilter {
    /// Creates a filter with smoothing coefficient `c ∈ [0, 1)` and the
    /// given loss policy.
    ///
    /// # Panics
    ///
    /// Panics if the coefficient is outside `[0, 1)`.
    pub fn new(coefficient: f64, policy: LossPolicy) -> Self {
        assert!(
            (0.0..1.0).contains(&coefficient),
            "coefficient must be in [0, 1) (got {coefficient})"
        );
        EwmaFilter {
            coefficient,
            policy,
            state: None,
            consecutive_losses: 0,
        }
    }

    /// The filter exactly as the paper ships it: `c = 0.65`, hold one cycle.
    pub fn paper() -> Self {
        EwmaFilter::new(PAPER_COEFFICIENT, LossPolicy::HoldOneCycle)
    }
}

impl DistanceFilter for EwmaFilter {
    fn update(&mut self, observation: Option<f64>) -> Option<f64> {
        match observation {
            Some(v) => {
                self.consecutive_losses = 0;
                let next = match self.state {
                    // The history term only applies once there is history.
                    None => v,
                    Some(prev) => self.coefficient * prev + (1.0 - self.coefficient) * v,
                };
                self.state = Some(next);
                self.state
            }
            None => {
                self.consecutive_losses += 1;
                let drop_after = match self.policy {
                    LossPolicy::HoldOneCycle => 2,
                    LossPolicy::DropImmediately => 1,
                };
                if self.consecutive_losses >= drop_after {
                    self.state = None;
                }
                self.state
            }
        }
    }

    fn current(&self) -> Option<f64> {
        self.state
    }

    fn reset(&mut self) {
        self.state = None;
        self.consecutive_losses = 0;
    }

    fn name(&self) -> &'static str {
        "ewma"
    }
}

impl fmt::Display for EwmaFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ewma(c={:.2}, {:?})", self.coefficient, self.policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_observation_passes_through() {
        let mut f = EwmaFilter::paper();
        assert_eq!(f.update(Some(3.5)), Some(3.5));
    }

    #[test]
    fn smoothing_formula_matches_paper() {
        let mut f = EwmaFilter::new(0.65, LossPolicy::HoldOneCycle);
        f.update(Some(2.0));
        let out = f.update(Some(10.0)).expect("tracking");
        assert!((out - (0.65 * 2.0 + 0.35 * 10.0)).abs() < 1e-12);
    }

    #[test]
    fn hold_policy_survives_exactly_one_loss() {
        let mut f = EwmaFilter::paper();
        f.update(Some(2.0));
        assert_eq!(f.update(None), Some(2.0)); // held
        assert_eq!(f.update(None), None); // dropped
                                          // A new observation restarts the track.
        assert_eq!(f.update(Some(5.0)), Some(5.0));
    }

    #[test]
    fn losses_interleaved_with_observations_never_drop() {
        let mut f = EwmaFilter::paper();
        f.update(Some(2.0));
        for _ in 0..10 {
            assert!(f.update(None).is_some());
            assert!(f.update(Some(2.0)).is_some());
        }
    }

    #[test]
    fn drop_immediately_policy() {
        let mut f = EwmaFilter::new(0.65, LossPolicy::DropImmediately);
        f.update(Some(2.0));
        assert_eq!(f.update(None), None);
    }

    #[test]
    fn zero_coefficient_is_identity() {
        let mut f = EwmaFilter::new(0.0, LossPolicy::HoldOneCycle);
        f.update(Some(1.0));
        assert_eq!(f.update(Some(7.0)), Some(7.0));
    }

    #[test]
    fn high_coefficient_is_sluggish() {
        let mut slow = EwmaFilter::new(0.95, LossPolicy::HoldOneCycle);
        let mut fast = EwmaFilter::new(0.2, LossPolicy::HoldOneCycle);
        slow.update(Some(1.0));
        fast.update(Some(1.0));
        // Step to 10: the fast filter gets much closer in one cycle.
        let s = slow.update(Some(10.0)).expect("tracking");
        let f = fast.update(Some(10.0)).expect("tracking");
        assert!(f > s + 5.0, "fast {f} slow {s}");
    }

    #[test]
    fn converges_to_constant_input() {
        let mut f = EwmaFilter::paper();
        let mut last = 0.0;
        for _ in 0..60 {
            last = f.update(Some(4.0)).expect("tracking");
        }
        assert!((last - 4.0).abs() < 1e-6);
    }

    #[test]
    fn reset_clears_state_and_loss_count() {
        let mut f = EwmaFilter::paper();
        f.update(Some(2.0));
        f.update(None);
        f.reset();
        assert_eq!(f.current(), None);
        // After reset, one loss must not immediately drop a fresh track.
        f.update(Some(3.0));
        assert_eq!(f.update(None), Some(3.0));
    }

    #[test]
    #[should_panic(expected = "coefficient")]
    fn coefficient_one_panics() {
        let _ = EwmaFilter::new(1.0, LossPolicy::HoldOneCycle);
    }

    #[test]
    fn loss_before_any_observation_is_harmless() {
        let mut f = EwmaFilter::paper();
        assert_eq!(f.update(None), None);
        assert_eq!(f.update(None), None);
        assert_eq!(f.update(Some(2.0)), Some(2.0));
    }
}
