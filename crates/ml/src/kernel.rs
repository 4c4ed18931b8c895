//! SVM kernels.

use std::fmt;

/// A kernel function over dense feature vectors.
///
/// The paper uses the Radial Basis Function kernel "as suggested by
/// RedPin"; the linear kernel is kept for the classifier ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// The dot product `⟨x, y⟩`.
    Linear,
    /// `exp(−γ‖x − y‖²)`.
    Rbf {
        /// The width parameter γ > 0.
        gamma: f64,
    },
}

impl Kernel {
    /// Evaluates the kernel.
    ///
    /// # Panics
    ///
    /// Panics if the two vectors have different lengths.
    pub(crate) fn compute(&self, x: &[f64], y: &[f64]) -> f64 {
        assert_eq!(
            x.len(),
            y.len(),
            "kernel arguments must have equal length ({} vs {})",
            x.len(),
            y.len()
        );
        match self {
            Kernel::Linear => x.iter().zip(y).map(|(a, b)| a * b).sum(),
            Kernel::Rbf { gamma } => {
                let dist_sq: f64 = x.iter().zip(y).map(|(a, b)| (a - b) * (a - b)).sum();
                (-gamma * dist_sq).exp()
            }
        }
    }
}

impl Default for Kernel {
    /// RBF with γ = 1 — a good default once features are standardised.
    fn default() -> Self {
        Kernel::Rbf { gamma: 1.0 }
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Kernel::Linear => f.write_str("linear"),
            Kernel::Rbf { gamma } => write!(f, "rbf(gamma={gamma})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_is_dot_product() {
        assert_eq!(Kernel::Linear.compute(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn rbf_is_symmetric_and_bounded() {
        let k = Kernel::Rbf { gamma: 0.3 };
        let a = [1.0, -2.0, 0.5];
        let b = [0.0, 1.0, 2.0];
        assert_eq!(k.compute(&a, &b), k.compute(&b, &a));
        let v = k.compute(&a, &b);
        assert!(v > 0.0 && v <= 1.0);
    }

    #[test]
    fn rbf_decays_with_distance() {
        let k = Kernel::Rbf { gamma: 1.0 };
        let origin = [0.0, 0.0];
        assert!(k.compute(&origin, &[1.0, 0.0]) > k.compute(&origin, &[2.0, 0.0]));
    }

    #[test]
    fn larger_gamma_is_narrower() {
        let near = [0.5, 0.0];
        let wide = Kernel::Rbf { gamma: 0.1 };
        let tight = Kernel::Rbf { gamma: 10.0 };
        assert!(wide.compute(&[0.0, 0.0], &near) > tight.compute(&[0.0, 0.0], &near));
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn length_mismatch_panics() {
        let _ = Kernel::Linear.compute(&[1.0], &[1.0, 2.0]);
    }
}
