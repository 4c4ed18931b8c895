//! Spatially correlated log-normal shadowing.
//!
//! Shadowing is the slowly varying loss caused by large obstacles (furniture,
//! bodies, humidity pockets). Unlike fast fading it is *sticky in space*: two
//! receiver positions a few centimetres apart see nearly the same shadowing.
//! We model it as a deterministic smooth noise field: value noise on a grid
//! of hashed lattice points, bilinearly interpolated, scaled to a target
//! standard deviation. The field is a pure function of (seed, position), so
//! the same experiment always sees the same "house".

use roomsense_geom::Point;

/// A deterministic, spatially correlated shadowing field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShadowingField {
    seed: u64,
    sigma_db: f64,
    correlation_m: f64,
}

impl ShadowingField {
    /// Creates a field with standard deviation `sigma_db` (dB) and
    /// correlation length `correlation_m` (metres).
    ///
    /// # Panics
    ///
    /// Panics if `sigma_db` is negative or `correlation_m` is not positive.
    pub fn new(seed: u64, sigma_db: f64, correlation_m: f64) -> Self {
        assert!(
            sigma_db >= 0.0,
            "sigma must be non-negative (got {sigma_db})"
        );
        assert!(
            correlation_m > 0.0,
            "correlation length must be positive (got {correlation_m})"
        );
        ShadowingField {
            seed,
            sigma_db,
            correlation_m,
        }
    }

    /// A field that contributes nothing (for free-space tests).
    pub(crate) fn disabled() -> Self {
        ShadowingField {
            seed: 0,
            sigma_db: 0.0,
            correlation_m: 1.0,
        }
    }

    /// Shadowing loss in dB at a receiver position (zero-mean; may be
    /// negative, meaning constructive obstruction geometry).
    pub(crate) fn loss_db(&self, at: Point) -> f64 {
        if self.sigma_db == 0.0 {
            return 0.0;
        }
        // Sum two octaves of value noise for a more natural field, then
        // scale. Each octave has unit variance ≈ 1/3 (uniform [-1,1] after
        // interpolation loses a bit); the calibration constant maps the sum
        // to σ = 1 empirically (see tests).
        let u = self.value_noise(at.x / self.correlation_m, at.y / self.correlation_m, 0x51ab);
        let v = self.value_noise(
            at.x * 2.0 / self.correlation_m,
            at.y * 2.0 / self.correlation_m,
            0x9e2d,
        );
        // u, v ∈ [-1, 1]; their weighted sum has std ≈ 0.46.
        let raw = 0.75 * u + 0.25 * v;
        self.sigma_db * raw / 0.46
    }

    /// Bilinearly interpolated hash noise in `[-1, 1]`.
    fn value_noise(&self, x: f64, y: f64, salt: u64) -> f64 {
        let x0 = x.floor();
        let y0 = y.floor();
        let fx = smoothstep(x - x0);
        let fy = smoothstep(y - y0);
        let (x0, y0) = (x0 as i64, y0 as i64);
        let g = |ix: i64, iy: i64| self.lattice(ix, iy, salt);
        let top = lerp(g(x0, y0 + 1), g(x0 + 1, y0 + 1), fx);
        let bottom = lerp(g(x0, y0), g(x0 + 1, y0), fx);
        lerp(bottom, top, fy)
    }

    /// Deterministic lattice value in `[-1, 1]` for integer grid point.
    fn lattice(&self, ix: i64, iy: i64, salt: u64) -> f64 {
        let mut z = self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ (ix as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9)
            ^ (iy as u64).wrapping_mul(0x94d0_49bb_1331_11eb)
            ^ salt;
        // SplitMix64 finalizer.
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z as f64 / u64::MAX as f64) * 2.0 - 1.0
    }
}

fn lerp(a: f64, b: f64, t: f64) -> f64 {
    a + (b - a) * t
}

fn smoothstep(t: f64) -> f64 {
    t * t * (3.0 - 2.0 * t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = ShadowingField::new(1, 3.0, 2.0);
        let b = ShadowingField::new(1, 3.0, 2.0);
        let c = ShadowingField::new(2, 3.0, 2.0);
        let p = Point::new(3.7, 1.2);
        assert_eq!(a.loss_db(p), b.loss_db(p));
        assert_ne!(a.loss_db(p), c.loss_db(p));
    }

    #[test]
    fn disabled_field_is_zero_everywhere() {
        let f = ShadowingField::disabled();
        for i in 0..20 {
            let p = Point::new(i as f64 * 0.77, i as f64 * 1.31);
            assert_eq!(f.loss_db(p), 0.0);
        }
    }

    #[test]
    fn nearby_points_are_correlated() {
        let f = ShadowingField::new(7, 3.0, 2.0);
        let mut max_step = 0.0f64;
        for i in 0..200 {
            let x = i as f64 * 0.05;
            let a = f.loss_db(Point::new(x, 1.0));
            let b = f.loss_db(Point::new(x + 0.05, 1.0));
            max_step = max_step.max((a - b).abs());
        }
        // A 5 cm move never jumps more than ~1.5 dB at σ=3, L=2 m.
        assert!(max_step < 1.5, "max step {max_step}");
    }

    #[test]
    fn field_std_matches_sigma() {
        let f = ShadowingField::new(11, 3.0, 2.0);
        let mut values = Vec::new();
        for i in 0..60 {
            for j in 0..60 {
                values.push(f.loss_db(Point::new(i as f64 * 0.9, j as f64 * 0.9)));
            }
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        let std = var.sqrt();
        assert!(mean.abs() < 0.5, "mean {mean}");
        assert!((std - 3.0).abs() < 1.0, "std {std}");
    }

    #[test]
    fn continuity_at_lattice_boundaries() {
        let f = ShadowingField::new(5, 3.0, 1.0);
        // Values just each side of an integer lattice line must agree.
        let a = f.loss_db(Point::new(2.0 - 1e-9, 0.5));
        let b = f.loss_db(Point::new(2.0 + 1e-9, 0.5));
        assert!((a - b).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "correlation length")]
    fn zero_correlation_panics() {
        let _ = ShadowingField::new(1, 3.0, 0.0);
    }
}
