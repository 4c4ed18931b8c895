//! A discrete Bayes (histogram) filter over distance — the "Mackey et al."
//! arm: recursive Bayesian estimation instead of raw-RSSI smoothing.
//!
//! The filter keeps a posterior over a fixed grid of candidate distances
//! (the support points), runs a local diffusion prediction step each cycle
//! (the occupant may have moved a little), and multiplies in a robust
//! Gaussian-plus-outlier measurement likelihood whose width grows with range
//! (RSSI-derived distance error is heteroscedastic). The estimate is the
//! posterior mean. One wild sample barely moves the posterior — the outlier
//! mixture explains it away — while a few consistent samples at a new range
//! shift it within two or three cycles.
//!
//! Everything is pure sequential state over a seeded, fixed support grid:
//! the same seed produces byte-identical estimates regardless of
//! `ROOMSENSE_THREADS`, which the positioning arm's checksum gate relies on.

use crate::{DistanceFilter, LossPolicy};
use std::fmt;

/// Seeded, deterministic grid Bayes filter implementing [`DistanceFilter`].
///
/// The support points are bin centres jittered once at construction by a
/// splitmix64 stream of the seed (a stratified particle set that never
/// resamples), so distinct seeds decorrelate discretisation artefacts while
/// every update stays bit-for-bit reproducible.
///
/// # Examples
///
/// ```
/// use roomsense_signal::{BayesFilter, DistanceFilter};
///
/// let mut f = BayesFilter::indoor_default(7);
/// let first = f.update(Some(2.0)).expect("tracking");
/// assert!((first - 2.0).abs() < 0.5); // near the measurement
/// let held = f.update(None); // 1st loss: hold (diffused) estimate
/// assert!(held.is_some());
/// assert_eq!(f.update(None), None); // 2nd loss: drop, like the paper
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BayesFilter {
    policy: LossPolicy,
    seed: u64,
    max_distance_m: f64,
    /// Fixed support points (jittered bin centres), ascending.
    centers: Vec<f64>,
    /// Posterior weights over `centers`; meaningful only while tracking.
    weights: Vec<f64>,
    /// Reused diffusion buffer so steady-state cycles never allocate.
    scratch: Vec<f64>,
    tracking: bool,
    consecutive_losses: u32,
    sigma_floor: f64,
    sigma_rel: f64,
    /// Neighbour-bleed fraction per prediction step.
    spread: f64,
    /// Tiny uniform mass regenerated per step so no range is ever
    /// unreachable after long dwells (weights never pin to exact zero).
    regen: f64,
    /// Outlier probability in the measurement mixture.
    outlier_rate: f64,
}

/// Half-width, in bins, of the window around the posterior mode that the
/// point estimate averages over (±3 bins ≈ ±2.3 m on the indoor grid).
const MODE_WINDOW: usize = 3;

/// splitmix64 — the same tiny generator the sim crate's seeding is built on,
/// reproduced here so the signal crate stays dependency-free.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl BayesFilter {
    /// Creates a filter with `bins` support points over `(0, max_distance_m]`.
    ///
    /// # Panics
    ///
    /// Panics if `bins < 2` or `max_distance_m` is not positive and finite.
    pub fn new(bins: usize, max_distance_m: f64, seed: u64, policy: LossPolicy) -> Self {
        assert!(bins >= 2, "need at least two bins (got {bins})");
        assert!(
            max_distance_m.is_finite() && max_distance_m > 0.0,
            "max distance must be positive (got {max_distance_m})"
        );
        let width = max_distance_m / bins as f64;
        let mut stream = seed ^ 0x42f0_e1eb_a9ea_3693;
        let centers = (0..bins)
            .map(|i| {
                // Stratified jitter: one support point per bin, placed at a
                // seed-derived offset in the bin's middle half so the grid
                // stays strictly ascending.
                let unit = (splitmix64(&mut stream) >> 11) as f64 / (1u64 << 53) as f64;
                (i as f64 + 0.25 + 0.5 * unit) * width
            })
            .collect();
        BayesFilter {
            policy,
            seed,
            max_distance_m,
            centers,
            weights: vec![0.0; bins],
            scratch: vec![0.0; bins],
            tracking: false,
            consecutive_losses: 0,
            sigma_floor: 1.0,
            sigma_rel: 0.10,
            spread: 0.45,
            regen: 1e-6,
            outlier_rate: 0.01,
        }
    }

    /// Tuned for the paper's setting: 64 support points over 0–50 m (the
    /// missing-distance sentinel caps observed ranges at 50), σ = 1.0 m +
    /// 10 % of range, 45 % neighbour bleed per cycle, 1 % outlier rate.
    pub fn indoor_default(seed: u64) -> Self {
        BayesFilter::new(64, 50.0, seed, LossPolicy::HoldOneCycle)
    }

    /// Robust point estimate: the weighted mean of the support points in a
    /// small window around the posterior mode.
    ///
    /// A plain posterior mean breaks down when the posterior goes bimodal —
    /// a fault-injected spike leaves a residual far-range mode, and the mean
    /// then lands *between* the modes, at a distance the posterior itself
    /// considers unlikely. Averaging only the mode's neighbourhood keeps
    /// sub-bin resolution without ever reporting a between-modes estimate.
    fn posterior_mean(&self) -> f64 {
        let mode = self
            .weights
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(i, _)| i)
            .unwrap_or(0);
        let lo = mode.saturating_sub(MODE_WINDOW);
        let hi = (mode + MODE_WINDOW + 1).min(self.centers.len());
        let mut mass = 0.0;
        let mut sum = 0.0;
        for i in lo..hi {
            mass += self.weights[i];
            sum += self.centers[i] * self.weights[i];
        }
        sum / mass
    }

    /// Prediction step: bleed mass into neighbouring bins (a short random
    /// walk — the occupant moved a little) plus a tiny uniform regeneration
    /// so a long dwell can never make a distant range permanently
    /// unreachable. Renormalised, so the posterior stays a distribution
    /// even on prediction-only (loss-hold) cycles.
    fn diffuse(&mut self) {
        let n = self.weights.len();
        for i in 0..n {
            let left = self.weights[i.saturating_sub(1)];
            let right = self.weights[if i + 1 == n { n - 1 } else { i + 1 }];
            self.scratch[i] =
                (1.0 - self.spread) * self.weights[i] + 0.5 * self.spread * (left + right);
        }
        let uniform = self.regen / n as f64;
        let mut sum = 0.0;
        for (w, s) in self.weights.iter_mut().zip(&self.scratch) {
            *w = (1.0 - self.regen) * s + uniform;
            sum += *w;
        }
        for w in &mut self.weights {
            *w /= sum;
        }
    }

    /// Measurement step: multiply in the robust likelihood — a Gaussian
    /// centred on the observation mixed with a uniform outlier density over
    /// the grid — then renormalise. The outlier floor keeps the sum
    /// strictly positive for any finite observation, so no underflow
    /// special-casing is needed.
    fn reweight(&mut self, z: f64) {
        let sigma = self.sigma_floor + self.sigma_rel * z.max(0.0);
        let inv_two_sigma2 = 1.0 / (2.0 * sigma * sigma);
        let outlier = self.outlier_rate / self.max_distance_m;
        let inlier = 1.0 - self.outlier_rate;
        let mut sum = 0.0;
        for (w, c) in self.weights.iter_mut().zip(&self.centers) {
            let d = c - z;
            let like = outlier + inlier * (-d * d * inv_two_sigma2).exp();
            *w *= like;
            sum += *w;
        }
        debug_assert!(sum > 0.0, "posterior mass vanished at z = {z}");
        for w in &mut self.weights {
            *w /= sum;
        }
    }
}

impl DistanceFilter for BayesFilter {
    fn update(&mut self, observation: Option<f64>) -> Option<f64> {
        match observation {
            Some(z) => {
                self.consecutive_losses = 0;
                if !self.tracking {
                    // Fresh track: start from a uniform prior.
                    let n = self.weights.len() as f64;
                    self.weights.fill(1.0 / n);
                    self.tracking = true;
                } else {
                    self.diffuse();
                }
                self.reweight(z);
                Some(self.posterior_mean())
            }
            None => {
                self.consecutive_losses += 1;
                let drop_after = match self.policy {
                    LossPolicy::HoldOneCycle => 2,
                    LossPolicy::DropImmediately => 1,
                };
                if self.consecutive_losses >= drop_after {
                    self.tracking = false;
                } else if self.tracking {
                    // Prediction-only step: keep reporting, more uncertain.
                    self.diffuse();
                }
                self.current()
            }
        }
    }

    fn current(&self) -> Option<f64> {
        self.tracking.then(|| self.posterior_mean())
    }

    fn reset(&mut self) {
        self.tracking = false;
        self.consecutive_losses = 0;
    }

    fn name(&self) -> &'static str {
        "bayes"
    }
}

impl fmt::Display for BayesFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bayes(bins={}, seed={:#x}, {:?})",
            self.centers.len(),
            self.seed,
            self.policy
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_observation_lands_near_the_measurement() {
        let mut f = BayesFilter::indoor_default(1);
        let est = f.update(Some(3.0)).expect("tracking");
        assert!((est - 3.0).abs() < 0.5, "est {est}");
    }

    #[test]
    fn converges_to_constant_input() {
        let mut f = BayesFilter::indoor_default(2);
        let mut last = 0.0;
        for _ in 0..40 {
            last = f.update(Some(4.0)).expect("tracking");
        }
        assert!((last - 4.0).abs() < 0.3, "est {last}");
    }

    #[test]
    fn rejects_a_single_spike_better_than_passthrough() {
        let mut f = BayesFilter::indoor_default(3);
        for _ in 0..20 {
            f.update(Some(2.0));
        }
        let est = f.update(Some(40.0)).expect("tracking");
        // The outlier mixture explains one contradictory sample away.
        assert!(est < 10.0, "spike leaked: {est}");
        // And the next consistent sample snaps straight back.
        let back = f.update(Some(2.0)).expect("tracking");
        assert!((back - 2.0).abs() < 1.0, "recovery {back}");
    }

    #[test]
    fn tracks_real_movement_over_a_few_cycles() {
        let mut f = BayesFilter::indoor_default(4);
        for _ in 0..10 {
            f.update(Some(2.0));
        }
        let mut est = 0.0;
        for _ in 0..25 {
            est = f.update(Some(8.0)).expect("tracking");
        }
        assert!((est - 8.0).abs() < 1.0, "stuck at {est}");
    }

    #[test]
    fn hold_then_drop_like_the_paper() {
        let mut f = BayesFilter::indoor_default(5);
        f.update(Some(2.0));
        assert!(f.update(None).is_some()); // held
        assert_eq!(f.update(None), None); // dropped
                                          // A new observation restarts the track from the uniform prior.
        let est = f.update(Some(5.0)).expect("tracking");
        assert!((est - 5.0).abs() < 0.6, "est {est}");
    }

    #[test]
    fn drop_immediately_policy() {
        let mut f = BayesFilter::new(64, 50.0, 6, LossPolicy::DropImmediately);
        f.update(Some(2.0));
        assert_eq!(f.update(None), None);
    }

    #[test]
    fn same_seed_is_bit_for_bit_deterministic() {
        let mut a = BayesFilter::indoor_default(99);
        let mut b = BayesFilter::indoor_default(99);
        let trace = [
            Some(2.0),
            Some(2.5),
            None,
            Some(3.0),
            Some(30.0),
            None,
            None,
            Some(1.0),
        ];
        for obs in trace {
            let (ra, rb) = (a.update(obs), b.update(obs));
            assert_eq!(ra.map(f64::to_bits), rb.map(f64::to_bits));
        }
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_jitter_the_support_grid() {
        let a = BayesFilter::indoor_default(1);
        let b = BayesFilter::indoor_default(2);
        assert_ne!(a.centers, b.centers);
        // But both grids stay strictly ascending and in range.
        for f in [&a, &b] {
            for pair in f.centers.windows(2) {
                assert!(pair[0] < pair[1]);
            }
            assert!(f.centers[0] > 0.0);
            assert!(*f.centers.last().expect("bins") <= 50.0);
        }
    }

    #[test]
    fn far_out_of_grid_observation_degrades_gracefully() {
        let mut f = BayesFilter::new(16, 10.0, 7, LossPolicy::HoldOneCycle);
        for _ in 0..5 {
            f.update(Some(2.0));
        }
        // 10 000 m is absurd; the outlier term absorbs it and the estimate
        // stays finite and inside the grid.
        let est = f.update(Some(10_000.0)).expect("tracking");
        assert!(est.is_finite());
        assert!(est <= 10.0, "clamped to the grid: {est}");
    }

    #[test]
    fn long_dwell_does_not_pin_distant_ranges_to_zero() {
        let mut f = BayesFilter::indoor_default(11);
        for _ in 0..500 {
            f.update(Some(2.0));
        }
        // After a very long dwell at 2 m, a genuine move to 20 m must still
        // be reachable within a handful of consistent cycles.
        let mut est = 0.0;
        for _ in 0..12 {
            est = f.update(Some(20.0)).expect("tracking");
        }
        assert!((est - 20.0).abs() < 1.5, "stuck at {est}");
    }

    #[test]
    fn reset_clears_the_track_and_loss_count() {
        let mut f = BayesFilter::indoor_default(8);
        f.update(Some(2.0));
        f.update(None);
        f.reset();
        assert_eq!(f.current(), None);
        f.update(Some(3.0));
        assert!(f.update(None).is_some(), "reset cleared the loss count");
    }

    #[test]
    #[should_panic(expected = "bins")]
    fn one_bin_panics() {
        let _ = BayesFilter::new(1, 50.0, 0, LossPolicy::HoldOneCycle);
    }

    #[test]
    #[should_panic(expected = "max distance")]
    fn non_positive_range_panics() {
        let _ = BayesFilter::new(8, 0.0, 0, LossPolicy::HoldOneCycle);
    }
}
