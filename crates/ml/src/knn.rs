//! k-nearest-neighbours — the classic fingerprinting alternative.

use crate::{Classifier, Dataset};
use std::fmt;

/// A k-nearest-neighbours classifier over Euclidean distance.
///
/// Scene-analysis indoor positioning was historically done with kNN over
/// RSSI fingerprints (RADAR and descendants); the `ablate_classifier` bench
/// compares it against the paper's SVM.
///
/// # Examples
///
/// ```
/// use roomsense_ml::{Classifier, Dataset, KnnClassifier};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut d = Dataset::new(1, vec!["near".into(), "far".into()])?;
/// d.push(vec![1.0], 0)?;
/// d.push(vec![1.2], 0)?;
/// d.push(vec![9.0], 1)?;
/// d.push(vec![9.5], 1)?;
/// let knn = KnnClassifier::fit(&d, 3)?;
/// assert_eq!(knn.predict(&[1.5]), 0);
/// assert_eq!(knn.predict(&[8.0]), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KnnClassifier {
    k: usize,
    class_count: usize,
    rows: Vec<Vec<f64>>,
    labels: Vec<usize>,
}

/// Error fitting a [`KnnClassifier`]: the training set was empty or `k` was
/// zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FitKnnError;

impl fmt::Display for FitKnnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "knn needs a non-empty training set and k >= 1")
    }
}

impl std::error::Error for FitKnnError {}

impl KnnClassifier {
    /// Memorises the training set.
    ///
    /// # Errors
    ///
    /// `FitKnnError` if `data` is empty or `k` is zero.
    pub fn fit(data: &Dataset, k: usize) -> Result<Self, FitKnnError> {
        if data.is_empty() || k == 0 {
            return Err(FitKnnError);
        }
        Ok(KnnClassifier {
            k,
            class_count: data.class_count(),
            rows: data.rows().to_vec(),
            labels: data.labels().to_vec(),
        })
    }
}

impl Classifier for KnnClassifier {
    fn predict(&self, features: &[f64]) -> usize {
        let mut dist_label: Vec<(f64, usize)> = self
            .rows
            .iter()
            .zip(&self.labels)
            .map(|(row, label)| {
                let d: f64 = row
                    .iter()
                    .zip(features)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                (d, *label)
            })
            .collect();
        dist_label.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite distances"));
        let mut votes = vec![0usize; self.class_count];
        for (_, label) in dist_label.iter().take(self.k) {
            votes[*label] += 1;
        }
        // Ties break toward the nearest neighbour's class.
        let best = *votes.iter().max().expect("at least one class");
        let nearest_label = dist_label[0].1;
        if votes[nearest_label] == best {
            nearest_label
        } else {
            votes
                .iter()
                .position(|v| *v == best)
                .expect("a maximum exists")
        }
    }

    fn name(&self) -> &'static str {
        "knn"
    }
}

impl fmt::Display for KnnClassifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "knn(k={}) over {} rows", self.k, self.rows.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let mut d = Dataset::new(2, vec!["a".into(), "b".into()]).expect("valid");
        for i in 0..10 {
            let t = f64::from(i) * 0.1;
            d.push(vec![0.0 + t, 0.0], 0).expect("row");
            d.push(vec![5.0 + t, 5.0], 1).expect("row");
        }
        d
    }

    #[test]
    fn classifies_clusters() {
        let knn = KnnClassifier::fit(&toy(), 3).expect("fits");
        assert_eq!(knn.predict(&[0.2, 0.1]), 0);
        assert_eq!(knn.predict(&[5.2, 5.1]), 1);
    }

    #[test]
    fn k_one_is_nearest_neighbour() {
        let knn = KnnClassifier::fit(&toy(), 1).expect("fits");
        assert_eq!(knn.predict(&[0.05, 0.0]), 0);
    }

    #[test]
    fn tie_breaks_toward_nearest() {
        let mut d = Dataset::new(1, vec!["a".into(), "b".into()]).expect("valid");
        d.push(vec![0.0], 0).expect("row");
        d.push(vec![2.0], 1).expect("row");
        let knn = KnnClassifier::fit(&d, 2).expect("fits");
        // Equal votes; 0.5 is nearer to class a.
        assert_eq!(knn.predict(&[0.5]), 0);
        assert_eq!(knn.predict(&[1.5]), 1);
    }

    #[test]
    fn k_larger_than_dataset_uses_all_rows() {
        let knn = KnnClassifier::fit(&toy(), 1000).expect("fits");
        // All rows vote: 10 vs 10, tie goes to the nearest.
        assert_eq!(knn.predict(&[0.0, 0.0]), 0);
    }

    #[test]
    fn empty_or_zero_k_rejected() {
        let d = Dataset::new(1, vec!["a".into()]).expect("valid");
        assert_eq!(KnnClassifier::fit(&d, 3), Err(FitKnnError));
        assert_eq!(KnnClassifier::fit(&toy(), 0), Err(FitKnnError));
    }

    #[test]
    fn batch_prediction_matches_singles() {
        let knn = KnnClassifier::fit(&toy(), 3).expect("fits");
        let rows = vec![vec![0.1, 0.0], vec![5.1, 5.0]];
        assert_eq!(knn.predict_batch(&rows), vec![0, 1]);
    }
}
