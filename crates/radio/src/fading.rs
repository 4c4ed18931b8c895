//! Per-packet multipath fading.
//!
//! Every received advertisement takes a slightly different multipath mix
//! (people move, the phone tilts, the channel hops between 37/38/39), so the
//! instantaneous RSSI scatters around its local mean even with transmitter
//! and receiver bolted down. This is the dominant cause of the variance in
//! the paper's Fig 4. We model the envelope as Rician: a dominant
//! line-of-sight component of power `K` relative to the scattered power.
//! `K = 0` degenerates to Rayleigh (no line of sight).

use rand::Rng;
use rand_distr_normal::StandardNormal;

/// Minimal inline standard-normal sampler (Box–Muller) so we do not need the
/// `rand_distr` crate.
mod rand_distr_normal {
    use rand::Rng;

    /// Distribution marker for a standard normal via Box–Muller.
    pub(crate) struct StandardNormal;

    impl StandardNormal {
        /// Draws one N(0, 1) sample.
        pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
            // Box–Muller; u1 in (0,1] to avoid ln(0).
            let u1: f64 = 1.0 - rng.gen::<f64>();
            let u2: f64 = rng.gen();
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        }
    }
}

/// Draws one standard normal deviate from `rng`.
pub(crate) fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    StandardNormal.sample(rng)
}

/// A Rician fading channel with Rice factor `k` (linear, not dB).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RicianFading {
    k: f64,
}

impl RicianFading {
    /// Creates a Rician channel with Rice factor `k ≥ 0` (linear).
    ///
    /// Typical indoor line-of-sight links have `k` between 4 and 12.
    ///
    /// # Panics
    ///
    /// Panics if `k` is negative or not finite.
    pub fn new(k: f64) -> Self {
        assert!(
            k.is_finite() && k >= 0.0,
            "rice factor must be ≥ 0 (got {k})"
        );
        RicianFading { k }
    }

    /// The Rayleigh special case (`k = 0`): pure scattering.
    pub fn rayleigh() -> Self {
        RicianFading { k: 0.0 }
    }

    /// Draws one fading gain in dB, normalised to zero mean *power*
    /// (`E[gain_linear] = 1`), so fading adds variance without biasing the
    /// path-loss calibration.
    pub(crate) fn sample_db<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Complex Gaussian with a deterministic LOS component:
        //   h = sqrt(K/(K+1)) + CN(0, 1/(K+1));  power = |h|^2, E[power] = 1.
        let los = (self.k / (self.k + 1.0)).sqrt();
        let sigma = (1.0 / (2.0 * (self.k + 1.0))).sqrt();
        let re = los + sigma * standard_normal(rng);
        let im = sigma * standard_normal(rng);
        let power = re * re + im * im;
        // Clamp the deep-fade tail: below -35 dB the packet is lost anyway
        // (handled by the PER model), and log(0) must not escape.
        10.0 * power.max(3.2e-4).log10()
    }
}

impl Default for RicianFading {
    /// `k = 6`: indoor line-of-sight a few metres from the beacon.
    fn default() -> Self {
        RicianFading { k: 6.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roomsense_sim::rng;

    fn stats(k: f64, n: usize) -> (f64, f64) {
        let fading = RicianFading::new(k);
        let mut r = rng::for_component(99, "fading-test");
        let samples: Vec<f64> = (0..n).map(|_| fading.sample_db(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        (mean, var.sqrt())
    }

    #[test]
    fn mean_linear_power_is_unity() {
        let fading = RicianFading::default();
        let mut r = rng::for_component(3, "unity");
        let n = 20_000;
        let mean_linear: f64 = (0..n)
            .map(|_| 10f64.powf(fading.sample_db(&mut r) / 10.0))
            .sum::<f64>()
            / n as f64;
        assert!((mean_linear - 1.0).abs() < 0.05, "mean {mean_linear}");
    }

    #[test]
    fn rayleigh_has_more_spread_than_strong_los() {
        let (_, std_rayleigh) = stats(0.0, 20_000);
        let (_, std_los) = stats(12.0, 20_000);
        assert!(
            std_rayleigh > 2.0 * std_los,
            "rayleigh {std_rayleigh} vs los {std_los}"
        );
    }

    #[test]
    fn strong_los_spread_is_a_few_db() {
        let (_, std) = stats(6.0, 20_000);
        assert!(std > 1.0 && std < 5.0, "std {std}");
    }

    #[test]
    fn samples_are_bounded_below() {
        let fading = RicianFading::rayleigh();
        let mut r = rng::for_component(17, "bound");
        for _ in 0..50_000 {
            let s = fading.sample_db(&mut r);
            assert!((-35.0 - 1e-9..15.0).contains(&s), "sample {s}");
        }
    }

    #[test]
    fn deterministic_given_rng() {
        let fading = RicianFading::default();
        let a: Vec<f64> = {
            let mut r = rng::for_component(5, "det");
            (0..8).map(|_| fading.sample_db(&mut r)).collect()
        };
        let b: Vec<f64> = {
            let mut r = rng::for_component(5, "det");
            (0..8).map(|_| fading.sample_db(&mut r)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "rice factor")]
    fn negative_k_panics() {
        let _ = RicianFading::new(-1.0);
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = rng::for_component(23, "normal");
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
