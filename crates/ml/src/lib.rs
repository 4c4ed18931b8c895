//! Machine learning for scene-analysis occupancy classification.
//!
//! Paper Section VI: the server builds "a supervised machine-learning model
//! based on all the samples" — a Support Vector Machine with the Radial
//! Basis Function kernel — and classifies each incoming observation vector
//! (per-beacon distances) into a room. This crate implements that from
//! scratch, plus the baselines the paper compares against or discards:
//!
//! * [`SvmClassifier`] — one-vs-one multiclass soft-margin SVM trained with
//!   SMO; [`Kernel::Rbf`] and [`Kernel::Linear`].
//! * [`KnnClassifier`] — k-nearest-neighbours, the classic scene-analysis
//!   alternative.
//! * [`ProximityClassifier`] — "the strongest signal received from a grid of
//!   transmitters" (the previous iOS work's technique, the paper's 84 %
//!   baseline).
//! * [`trilaterate`] — the triangulation technique the paper *discards*
//!   because it "requires very stable and accurate input data".
//! * [`Dataset`] / [`train_test_split`] / [`k_fold`] — labelled data
//!   handling, and [`ConfusionMatrix`] — the paper's Fig 9(c) artifact.
//!
//! # Examples
//!
//! ```
//! use roomsense_ml::{Dataset, Kernel, SvmClassifier, SvmParams, Classifier};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A toy two-room problem: distance to beacon 0 separates the rooms.
//! let mut data = Dataset::new(2, vec!["kitchen".into(), "living".into()])?;
//! for i in 0..20 {
//!     let d = f64::from(i) * 0.1;
//!     data.push(vec![1.0 + d, 6.0 - d], 0)?;
//!     data.push(vec![6.0 - d, 1.0 + d], 1)?;
//! }
//! let svm = SvmClassifier::fit(&data, &SvmParams::default())?;
//! assert_eq!(svm.predict(&[1.2, 5.5]), 0);
//! assert_eq!(svm.predict(&[5.8, 1.4]), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
mod kernel;
mod knn;
mod metrics;
mod model_selection;
mod proximity;
mod scaler;
mod svm;
mod trilateration;

pub use dataset::{k_fold, train_test_split, Dataset};
pub use kernel::Kernel;
pub use knn::KnnClassifier;
pub use metrics::ConfusionMatrix;
pub use model_selection::{grid_search, GridSearchResult};
pub use proximity::ProximityClassifier;
pub use scaler::StandardScaler;
use svm::Gram;
pub use svm::{BinarySvm, SvmClassifier, SvmParams, SvmScratch, TrainSvmError};
pub use trilateration::{position_features, trilaterate, POSITION_FEATURE_WIDTH};

/// A trained multi-class classifier over dense feature vectors.
///
/// Labels are dense `usize` indices into the training
/// [`Dataset::label_names`].
pub trait Classifier {
    /// Predicts the label of one feature vector.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `features.len()` differs from the
    /// training dimensionality.
    fn predict(&self, features: &[f64]) -> usize;

    /// Predicts a batch, one label per row.
    fn predict_batch(&self, rows: &[Vec<f64>]) -> Vec<usize> {
        rows.iter().map(|r| self.predict(r)).collect()
    }

    /// A short name for reports.
    fn name(&self) -> &'static str;
}
