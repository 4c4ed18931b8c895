//! Classification metrics: the confusion matrix of Fig 9(c) and friends.

use std::fmt;

/// A square confusion matrix over `n` classes.
///
/// Rows are true labels, columns predicted labels. The paper reads its
/// Fig 9(c) matrix for occupancy semantics: a *false positive* detects "the
/// user inside the room while he was outside", a *false negative* the
/// reverse — "it is better to have false positive than a false negative".
///
/// # Examples
///
/// ```
/// use roomsense_ml::ConfusionMatrix;
///
/// let mut cm = ConfusionMatrix::new(2);
/// cm.record(0, 0);
/// cm.record(0, 0);
/// cm.record(1, 1);
/// cm.record(1, 0); // a mistake
/// assert_eq!(cm.accuracy(), 0.75);
/// assert_eq!(cm.total(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    classes: usize,
    counts: Vec<u64>, // row-major [true][predicted]
}

impl ConfusionMatrix {
    /// Creates an empty matrix over `classes` classes.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is zero.
    pub fn new(classes: usize) -> Self {
        assert!(classes > 0, "need at least one class");
        ConfusionMatrix {
            classes,
            counts: vec![0; classes * classes],
        }
    }

    /// Builds a matrix from parallel truth/prediction slices.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch or out-of-range labels.
    pub fn from_pairs(classes: usize, truth: &[usize], predicted: &[usize]) -> Self {
        assert_eq!(truth.len(), predicted.len(), "length mismatch");
        let mut cm = ConfusionMatrix::new(classes);
        for (t, p) in truth.iter().zip(predicted) {
            cm.record(*t, *p);
        }
        cm
    }

    /// Records one `(truth, predicted)` outcome.
    ///
    /// # Panics
    ///
    /// Panics if either label is out of range.
    pub fn record(&mut self, truth: usize, predicted: usize) {
        assert!(
            truth < self.classes && predicted < self.classes,
            "labels ({truth}, {predicted}) out of range for {} classes",
            self.classes
        );
        self.counts[truth * self.classes + predicted] += 1;
    }

    /// The count at `(truth, predicted)`.
    pub fn count(&self, truth: usize, predicted: usize) -> u64 {
        self.counts[truth * self.classes + predicted]
    }

    /// Total recorded outcomes.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Overall accuracy; zero for an empty matrix.
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let correct: u64 = (0..self.classes).map(|c| self.count(c, c)).sum();
        correct as f64 / total as f64
    }

    /// Occupancy false positives for a room class: outcomes predicted as
    /// `class` whose truth was different ("detected inside while outside").
    pub fn false_positives(&self, class: usize) -> u64 {
        (0..self.classes)
            .filter(|t| *t != class)
            .map(|t| self.count(t, class))
            .sum()
    }

    /// Occupancy false negatives for a room class: outcomes whose truth was
    /// `class` but were predicted as something else ("detected outside while
    /// inside").
    pub fn false_negatives(&self, class: usize) -> u64 {
        (0..self.classes)
            .filter(|p| *p != class)
            .map(|p| self.count(class, p))
            .sum()
    }

    /// Sum of false positives over all classes (equals the total number of
    /// misclassifications, as does the false-negative sum).
    pub fn total_false_positives(&self) -> u64 {
        (0..self.classes).map(|c| self.false_positives(c)).sum()
    }
}

impl fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "confusion matrix ({} classes, rows = truth):",
            self.classes
        )?;
        for t in 0..self.classes {
            for p in 0..self.classes {
                write!(f, "{:>6}", self.count(t, p))?;
            }
            writeln!(f)?;
        }
        write!(f, "accuracy = {:.3}", self.accuracy())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ConfusionMatrix {
        // truth 0: 8 right, 2 predicted as 1
        // truth 1: 1 predicted as 0, 9 right
        let mut cm = ConfusionMatrix::new(2);
        for _ in 0..8 {
            cm.record(0, 0);
        }
        for _ in 0..2 {
            cm.record(0, 1);
        }
        cm.record(1, 0);
        for _ in 0..9 {
            cm.record(1, 1);
        }
        cm
    }

    #[test]
    fn accuracy_counts_diagonal() {
        let cm = sample();
        assert_eq!(cm.total(), 20);
        assert_eq!(cm.accuracy(), 17.0 / 20.0);
    }

    #[test]
    fn fp_fn_semantics() {
        let cm = sample();
        assert_eq!(cm.false_positives(0), 1); // one truth-1 predicted as 0
        assert_eq!(cm.false_negatives(0), 2);
        assert_eq!(cm.total_false_positives(), 3);
    }

    #[test]
    fn empty_matrix_accuracy_zero() {
        assert_eq!(ConfusionMatrix::new(4).accuracy(), 0.0);
    }

    #[test]
    fn from_pairs_matches_manual_recording() {
        let truth = [0, 0, 1, 1];
        let pred = [0, 1, 1, 1];
        let cm = ConfusionMatrix::from_pairs(2, &truth, &pred);
        assert_eq!(cm.count(0, 1), 1);
        assert_eq!(cm.accuracy(), 0.75);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_label_panics() {
        let mut cm = ConfusionMatrix::new(2);
        cm.record(0, 2);
    }

    #[test]
    fn display_mentions_accuracy() {
        assert!(sample().to_string().contains("accuracy"));
    }
}
