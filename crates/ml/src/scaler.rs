//! Feature standardisation.

use crate::Dataset;
use std::fmt;

/// Per-feature standardisation to zero mean and unit variance.
///
/// RBF kernels are distance-based, so features on different scales (a 1–12 m
/// beacon distance vs a 0/1 visibility flag) would otherwise dominate each
/// other. Fit on the training set only; apply to everything.
///
/// # Examples
///
/// ```
/// use roomsense_ml::{Dataset, StandardScaler};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut d = Dataset::new(1, vec!["x".into()])?;
/// d.push(vec![10.0], 0)?;
/// d.push(vec![20.0], 0)?;
/// let scaler = StandardScaler::fit(&d);
/// let z = scaler.transform(&[15.0]);
/// assert!(z[0].abs() < 1e-12); // the mean maps to zero
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StandardScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl StandardScaler {
    /// Learns per-feature means and standard deviations from `data`.
    /// Constant features get standard deviation 1 so they pass through
    /// centred but un-scaled.
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset.
    pub fn fit(data: &Dataset) -> Self {
        assert!(!data.is_empty(), "cannot fit a scaler on an empty dataset");
        let dim = data.dimension();
        let n = data.len() as f64;
        let mut means = vec![0.0; dim];
        for row in data.rows() {
            for (m, v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut vars = vec![0.0; dim];
        for row in data.rows() {
            for ((var, v), m) in vars.iter_mut().zip(row).zip(&means) {
                *var += (v - m) * (v - m);
            }
        }
        let stds = vars
            .into_iter()
            .map(|v| {
                let s = (v / n).sqrt();
                if s <= f64::EPSILON {
                    1.0
                } else {
                    s
                }
            })
            .collect();
        StandardScaler { means, stds }
    }

    /// Standardises one row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the fitted dimensionality.
    pub fn transform(&self, row: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(row.len());
        self.transform_into(row.iter().copied(), &mut out);
        out
    }

    /// Standardises the values `row` yields into `out`, replacing its
    /// contents; reusing `out` across rows makes this allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `row` yields a different number of values than the fitted
    /// dimensionality.
    pub fn transform_into<I>(&self, row: I, out: &mut Vec<f64>)
    where
        I: IntoIterator<Item = f64>,
        I::IntoIter: ExactSizeIterator,
    {
        let row = row.into_iter();
        assert_eq!(
            row.len(),
            self.means.len(),
            "row width {} does not match fitted dimension {}",
            row.len(),
            self.means.len()
        );
        out.clear();
        out.extend(
            row.zip(self.means.iter().zip(&self.stds))
                .map(|(v, (m, s))| (v - m) / s),
        );
    }

    /// Standardises a whole dataset, preserving labels.
    pub fn transform_dataset(&self, data: &Dataset) -> Dataset {
        let mut out = Dataset::new(data.dimension(), data.label_names().to_vec())
            .expect("shape comes from a valid dataset");
        for (row, label) in data.rows().iter().zip(data.labels()) {
            out.push(self.transform(row), *label)
                .expect("transformed row keeps shape and finiteness");
        }
        out
    }

    /// The fitted means.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// The fitted standard deviations.
    pub fn stds(&self) -> &[f64] {
        &self.stds
    }
}

impl fmt::Display for StandardScaler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "standard scaler over {} features", self.means.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let mut d = Dataset::new(2, vec!["a".into()]).expect("valid");
        d.push(vec![1.0, 100.0], 0).expect("row");
        d.push(vec![3.0, 300.0], 0).expect("row");
        d.push(vec![5.0, 500.0], 0).expect("row");
        d
    }

    #[test]
    fn transformed_training_set_has_zero_mean_unit_std() {
        let d = toy();
        let scaler = StandardScaler::fit(&d);
        let t = scaler.transform_dataset(&d);
        for dim in 0..2 {
            let col: Vec<f64> = t.rows().iter().map(|r| r[dim]).collect();
            let mean: f64 = col.iter().sum::<f64>() / col.len() as f64;
            let var: f64 = col.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / col.len() as f64;
            assert!(mean.abs() < 1e-12);
            assert!((var - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_feature_passes_through_centred() {
        let mut d = Dataset::new(1, vec!["a".into()]).expect("valid");
        d.push(vec![4.0], 0).expect("row");
        d.push(vec![4.0], 0).expect("row");
        let scaler = StandardScaler::fit(&d);
        assert_eq!(scaler.transform(&[4.0]), vec![0.0]);
        assert_eq!(scaler.transform(&[6.0]), vec![2.0]);
    }

    #[test]
    fn labels_preserved() {
        let mut d = Dataset::new(1, vec!["a".into(), "b".into()]).expect("valid");
        d.push(vec![1.0], 0).expect("row");
        d.push(vec![2.0], 1).expect("row");
        let t = StandardScaler::fit(&d).transform_dataset(&d);
        assert_eq!(t.labels(), d.labels());
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_fit_panics() {
        let d = Dataset::new(1, vec!["a".into()]).expect("valid");
        let _ = StandardScaler::fit(&d);
    }

    #[test]
    #[should_panic(expected = "does not match fitted dimension")]
    fn wrong_width_panics() {
        let scaler = StandardScaler::fit(&toy());
        let _ = scaler.transform(&[1.0]);
    }
}
