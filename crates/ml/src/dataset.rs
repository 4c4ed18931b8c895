//! Labelled datasets, splits and folds.

use rand::seq::SliceRandom;
use rand::Rng;
use std::fmt;

/// A dense labelled dataset: rows of `f64` features plus a class label per
/// row.
///
/// In the occupancy system a row is "smoothed distance to each beacon at one
/// instant" and the label is the room the user reported standing in.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    dimension: usize,
    label_names: Vec<String>,
    rows: Vec<Vec<f64>>,
    labels: Vec<usize>,
}

/// Error building or extending a [`Dataset`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildDatasetError {
    /// The dataset was declared with zero feature dimensions.
    ZeroDimension,
    /// No class labels were declared.
    NoLabels,
    /// A pushed row had the wrong number of features.
    WrongDimension {
        /// Expected feature count.
        expected: usize,
        /// Found feature count.
        found: usize,
    },
    /// A pushed label index is out of range.
    UnknownLabel {
        /// The offending label.
        label: usize,
        /// Number of declared classes.
        classes: usize,
    },
    /// A pushed feature was NaN or infinite.
    NonFiniteFeature,
}

impl fmt::Display for BuildDatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildDatasetError::ZeroDimension => write!(f, "dataset dimension must be positive"),
            BuildDatasetError::NoLabels => write!(f, "dataset needs at least one class"),
            BuildDatasetError::WrongDimension { expected, found } => {
                write!(f, "expected {expected} features, found {found}")
            }
            BuildDatasetError::UnknownLabel { label, classes } => {
                write!(f, "label {label} out of range for {classes} classes")
            }
            BuildDatasetError::NonFiniteFeature => write!(f, "feature was not finite"),
        }
    }
}

impl std::error::Error for BuildDatasetError {}

impl Dataset {
    /// Creates an empty dataset of `dimension` features and the given class
    /// names.
    ///
    /// # Errors
    ///
    /// `BuildDatasetError::ZeroDimension` / `BuildDatasetError::NoLabels`
    /// on degenerate shapes.
    pub fn new(dimension: usize, label_names: Vec<String>) -> Result<Self, BuildDatasetError> {
        if dimension == 0 {
            return Err(BuildDatasetError::ZeroDimension);
        }
        if label_names.is_empty() {
            return Err(BuildDatasetError::NoLabels);
        }
        Ok(Dataset {
            dimension,
            label_names,
            rows: Vec::new(),
            labels: Vec::new(),
        })
    }

    /// Appends one labelled row.
    ///
    /// # Errors
    ///
    /// Rejects rows of the wrong width, non-finite features and unknown
    /// labels.
    pub fn push(&mut self, row: Vec<f64>, label: usize) -> Result<(), BuildDatasetError> {
        if row.len() != self.dimension {
            return Err(BuildDatasetError::WrongDimension {
                expected: self.dimension,
                found: row.len(),
            });
        }
        if row.iter().any(|v| !v.is_finite()) {
            return Err(BuildDatasetError::NonFiniteFeature);
        }
        if label >= self.label_names.len() {
            return Err(BuildDatasetError::UnknownLabel {
                label,
                classes: self.label_names.len(),
            });
        }
        self.rows.push(row);
        self.labels.push(label);
        Ok(())
    }

    /// Feature dimensionality.
    pub fn dimension(&self) -> usize {
        self.dimension
    }

    /// The class names; a label is an index into this slice.
    pub fn label_names(&self) -> &[String] {
        &self.label_names
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.label_names.len()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the dataset holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The feature rows.
    pub fn rows(&self) -> &[Vec<f64>] {
        &self.rows
    }

    /// The labels, parallel to [`rows`](Self::rows).
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Rows per class, indexed by label.
    pub fn class_histogram(&self) -> Vec<usize> {
        let mut h = vec![0usize; self.class_count()];
        for l in &self.labels {
            h[*l] += 1;
        }
        h
    }

    /// A dataset containing only the rows selected by `indices`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub(crate) fn subset(&self, indices: &[usize]) -> Dataset {
        Dataset {
            dimension: self.dimension,
            label_names: self.label_names.clone(),
            rows: indices.iter().map(|i| self.rows[*i].clone()).collect(),
            labels: indices.iter().map(|i| self.labels[*i]).collect(),
        }
    }
}

impl fmt::Display for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dataset: {} rows x {} features, {} classes",
            self.len(),
            self.dimension,
            self.class_count()
        )
    }
}

/// Splits a dataset into `(train, test)` with `test_fraction` of rows (at
/// least one if the dataset is non-empty) held out, after a seeded shuffle.
///
/// # Panics
///
/// Panics if `test_fraction` is outside `(0, 1)`.
pub fn train_test_split<R: Rng + ?Sized>(
    data: &Dataset,
    test_fraction: f64,
    rng: &mut R,
) -> (Dataset, Dataset) {
    assert!(
        test_fraction > 0.0 && test_fraction < 1.0,
        "test fraction must be in (0, 1) (got {test_fraction})"
    );
    let mut indices: Vec<usize> = (0..data.len()).collect();
    indices.shuffle(rng);
    let test_len = ((data.len() as f64 * test_fraction).round() as usize).clamp(
        usize::from(!data.is_empty()),
        data.len().saturating_sub(1).max(1),
    );
    let (test_idx, train_idx) = indices.split_at(test_len.min(indices.len()));
    (data.subset(train_idx), data.subset(test_idx))
}

/// Yields `k` cross-validation folds as `(train, validation)` pairs after a
/// seeded shuffle.
///
/// # Panics
///
/// Panics if `k < 2` or `k` exceeds the number of rows.
pub fn k_fold<R: Rng + ?Sized>(data: &Dataset, k: usize, rng: &mut R) -> Vec<(Dataset, Dataset)> {
    assert!(k >= 2, "k-fold needs k >= 2 (got {k})");
    assert!(
        k <= data.len(),
        "k-fold needs at least k rows ({k} > {})",
        data.len()
    );
    let mut indices: Vec<usize> = (0..data.len()).collect();
    indices.shuffle(rng);
    let mut folds = Vec::with_capacity(k);
    for fold in 0..k {
        let val_idx: Vec<usize> = indices.iter().copied().skip(fold).step_by(k).collect();
        let val_set: std::collections::HashSet<usize> = val_idx.iter().copied().collect();
        let train_idx: Vec<usize> = indices
            .iter()
            .copied()
            .filter(|i| !val_set.contains(i))
            .collect();
        folds.push((data.subset(&train_idx), data.subset(&val_idx)));
    }
    folds
}

#[cfg(test)]
mod tests {
    use super::*;
    use roomsense_sim::rng;

    fn toy(n: usize) -> Dataset {
        let mut d = Dataset::new(2, vec!["a".into(), "b".into()]).expect("valid");
        for i in 0..n {
            d.push(vec![i as f64, -(i as f64)], i % 2)
                .expect("valid row");
        }
        d
    }

    #[test]
    fn push_validates_dimension_and_label() {
        let mut d = toy(0);
        assert!(matches!(
            d.push(vec![1.0], 0),
            Err(BuildDatasetError::WrongDimension { .. })
        ));
        assert!(matches!(
            d.push(vec![1.0, 2.0], 9),
            Err(BuildDatasetError::UnknownLabel { .. })
        ));
        assert_eq!(
            d.push(vec![f64::NAN, 0.0], 0),
            Err(BuildDatasetError::NonFiniteFeature)
        );
        assert!(d.is_empty());
    }

    #[test]
    fn histogram_counts_labels() {
        let d = toy(10);
        assert_eq!(d.class_histogram(), vec![5, 5]);
    }

    #[test]
    fn split_partitions_all_rows() {
        let d = toy(20);
        let mut r = rng::for_component(1, "split");
        let (train, test) = train_test_split(&d, 0.25, &mut r);
        assert_eq!(train.len() + test.len(), 20);
        assert_eq!(test.len(), 5);
    }

    #[test]
    fn split_is_deterministic_per_seed() {
        let d = toy(20);
        let run = || {
            let mut r = rng::for_component(7, "det-split");
            let (tr, te) = train_test_split(&d, 0.3, &mut r);
            (tr.rows().to_vec(), te.rows().to_vec())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn k_fold_covers_every_row_exactly_once() {
        let d = toy(17);
        let mut r = rng::for_component(2, "fold");
        let folds = k_fold(&d, 4, &mut r);
        assert_eq!(folds.len(), 4);
        let total_val: usize = folds.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(total_val, 17);
        for (train, val) in &folds {
            assert_eq!(train.len() + val.len(), 17);
        }
    }

    #[test]
    fn subset_keeps_parallel_labels() {
        let d = toy(6);
        let s = d.subset(&[1, 3, 5]);
        assert_eq!(s.labels(), &[1, 1, 1]);
        assert_eq!(s.rows()[0][0], 1.0);
    }

    #[test]
    #[should_panic(expected = "k-fold needs k >= 2")]
    fn one_fold_panics() {
        let d = toy(10);
        let mut r = rng::for_component(3, "fold");
        let _ = k_fold(&d, 1, &mut r);
    }

    #[test]
    fn empty_shape_rejected() {
        assert_eq!(
            Dataset::new(0, vec!["a".into()]),
            Err(BuildDatasetError::ZeroDimension)
        );
        assert_eq!(Dataset::new(2, vec![]), Err(BuildDatasetError::NoLabels));
    }
}
