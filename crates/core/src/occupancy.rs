//! The trained occupancy model: scaler + SVM + feature layout.

use crate::{LabelledDataset, MISSING_DISTANCE};
use roomsense_ibeacon::Minor;
use roomsense_ml::{
    ConfusionMatrix, Dataset, StandardScaler, SvmClassifier, SvmParams, SvmScratch, TrainSvmError,
};
use roomsense_net::{ObservationReport, OccupancyEstimator, RoomLabel};
use std::cell::RefCell;
use std::fmt;

thread_local! {
    /// This thread's scaled feature row and SVM scratch. The model is shared
    /// by `Arc` across shard workers and classifies through `&self`, so the
    /// buffers belong to the thread, not the model.
    static SCRATCH: RefCell<(Vec<f64>, SvmScratch)> = RefCell::default();
}

/// Error training an [`OccupancyModel`].
#[derive(Debug, Clone, PartialEq)]
pub enum TrainOccupancyError {
    /// The training data was empty.
    EmptyDataset,
    /// The underlying SVM failed to train.
    Svm(TrainSvmError),
}

impl fmt::Display for TrainOccupancyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainOccupancyError::EmptyDataset => write!(f, "no training rows collected"),
            TrainOccupancyError::Svm(e) => write!(f, "svm training failed: {e}"),
        }
    }
}

impl std::error::Error for TrainOccupancyError {}

impl From<TrainSvmError> for TrainOccupancyError {
    fn from(e: TrainSvmError) -> Self {
        TrainOccupancyError::Svm(e)
    }
}

/// The server-side model (paper Section VI): a standard scaler feeding a
/// one-vs-one RBF SVM, plus the beacon feature layout it was trained with.
///
/// Implements [`OccupancyEstimator`], so it plugs directly into
/// [`ShardedBmsServer`](roomsense_net::ShardedBmsServer).
#[derive(Debug, Clone, PartialEq)]
pub struct OccupancyModel {
    scaler: StandardScaler,
    svm: SvmClassifier,
    beacon_order: Vec<Minor>,
    label_names: Vec<String>,
}

impl OccupancyModel {
    /// Trains on a collected dataset.
    ///
    /// # Errors
    ///
    /// `TrainOccupancyError` when the dataset is empty or degenerate.
    pub fn fit(
        labelled: &LabelledDataset,
        params: &SvmParams,
    ) -> Result<Self, TrainOccupancyError> {
        if labelled.data.is_empty() {
            return Err(TrainOccupancyError::EmptyDataset);
        }
        let scaler = StandardScaler::fit(&labelled.data);
        let scaled = scaler.transform_dataset(&labelled.data);
        let svm = SvmClassifier::fit(&scaled, params)?;
        Ok(OccupancyModel {
            scaler,
            svm,
            beacon_order: labelled.beacon_order.clone(),
            label_names: labelled.data.label_names().to_vec(),
        })
    }

    /// The beacon feature layout.
    pub fn beacon_order(&self) -> &[Minor] {
        &self.beacon_order
    }

    /// The class names (rooms plus "outside").
    pub fn label_names(&self) -> &[String] {
        &self.label_names
    }

    /// Classifies one raw feature row (per-beacon distances).
    pub fn predict_features(&self, features: &[f64]) -> usize {
        self.classify_raw(features.iter().copied())
    }

    /// Scales a raw feature row straight into this thread's scratch and
    /// classifies it there, allocation-free once the scratch has grown.
    fn classify_raw<I>(&self, raw: I) -> usize
    where
        I: IntoIterator<Item = f64>,
        I::IntoIter: ExactSizeIterator,
    {
        SCRATCH.with_borrow_mut(|(features, svm)| {
            self.scaler.transform_into(raw, features);
            self.svm.decide_into(features, svm)
        })
    }

    /// Evaluates on a held-out dataset, producing the confusion matrix.
    pub fn evaluate(&self, test: &Dataset) -> ConfusionMatrix {
        let mut cm = ConfusionMatrix::new(self.label_names.len());
        for (row, label) in test.rows().iter().zip(test.labels()) {
            cm.record(*label, self.predict_features(row));
        }
        cm
    }
}

impl OccupancyEstimator for OccupancyModel {
    fn classify(&self, report: &ObservationReport) -> Option<RoomLabel> {
        if report.beacons.is_empty() {
            return None;
        }
        Some(self.classify_raw(self.beacon_order.iter().map(|minor| {
            report
                .beacons
                .iter()
                .find(|b| b.identity.minor == *minor)
                .map_or(MISSING_DISTANCE, |b| b.distance_m.min(MISSING_DISTANCE))
        })))
    }
}

impl fmt::Display for OccupancyModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "occupancy model: {} beacons -> {} classes ({})",
            self.beacon_order.len(),
            self.label_names.len(),
            self.svm
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roomsense_ibeacon::{BeaconIdentity, Major, ProximityUuid};
    use roomsense_net::{DeviceId, SightedBeacon};
    use roomsense_sim::SimTime;

    /// A synthetic two-room labelled dataset: room 0 near beacon 0, room 1
    /// near beacon 1.
    fn toy_labelled() -> LabelledDataset {
        let mut data =
            Dataset::new(2, vec!["a".into(), "b".into(), "outside".into()]).expect("valid");
        for i in 0..30 {
            let jitter = f64::from(i % 5) * 0.2;
            data.push(vec![1.0 + jitter, 7.0 - jitter], 0).expect("row");
            data.push(vec![7.0 - jitter, 1.0 + jitter], 1).expect("row");
            data.push(vec![MISSING_DISTANCE, MISSING_DISTANCE], 2)
                .expect("row");
        }
        LabelledDataset {
            data,
            beacon_order: vec![Minor::new(0), Minor::new(1)],
        }
    }

    fn identity(minor: u16) -> BeaconIdentity {
        BeaconIdentity {
            uuid: ProximityUuid::example(),
            major: Major::new(1),
            minor: Minor::new(minor),
        }
    }

    #[test]
    fn fit_and_predict_features() {
        let model = OccupancyModel::fit(&toy_labelled(), &SvmParams::default()).expect("trains");
        assert_eq!(model.predict_features(&[1.2, 6.5]), 0);
        assert_eq!(model.predict_features(&[6.5, 1.2]), 1);
        assert_eq!(
            model.predict_features(&[MISSING_DISTANCE, MISSING_DISTANCE]),
            2
        );
    }

    #[test]
    fn estimator_interface_maps_reports() {
        let model = OccupancyModel::fit(&toy_labelled(), &SvmParams::default()).expect("trains");
        let report = ObservationReport {
            device: DeviceId::new(1),
            seq: 0,
            at: SimTime::from_secs(2),
            beacons: vec![
                SightedBeacon {
                    identity: identity(0),
                    distance_m: 1.0,
                },
                SightedBeacon {
                    identity: identity(1),
                    distance_m: 7.0,
                },
            ],
        };
        assert_eq!(model.classify(&report), Some(0));
    }

    #[test]
    fn empty_report_is_unclassifiable() {
        let model = OccupancyModel::fit(&toy_labelled(), &SvmParams::default()).expect("trains");
        let report = ObservationReport {
            device: DeviceId::new(1),
            seq: 0,
            at: SimTime::from_secs(2),
            beacons: vec![],
        };
        assert_eq!(model.classify(&report), None);
    }

    #[test]
    fn unknown_beacons_in_report_are_ignored() {
        let model = OccupancyModel::fit(&toy_labelled(), &SvmParams::default()).expect("trains");
        let report = ObservationReport {
            device: DeviceId::new(1),
            seq: 0,
            at: SimTime::from_secs(2),
            beacons: vec![
                SightedBeacon {
                    identity: identity(0),
                    distance_m: 1.0,
                },
                SightedBeacon {
                    identity: identity(99), // not in the training layout
                    distance_m: 0.5,
                },
            ],
        };
        // Beacon 99 contributes nothing; beacon 1 missing → sentinel.
        assert_eq!(model.classify(&report), Some(0));
    }

    #[test]
    fn evaluate_produces_sane_matrix() {
        let labelled = toy_labelled();
        let model = OccupancyModel::fit(&labelled, &SvmParams::default()).expect("trains");
        let cm = model.evaluate(&labelled.data);
        assert_eq!(cm.total() as usize, labelled.data.len());
        assert!(cm.accuracy() > 0.95, "accuracy {}", cm.accuracy());
    }

    #[test]
    fn empty_dataset_rejected() {
        let empty = LabelledDataset {
            data: Dataset::new(2, vec!["a".into(), "b".into()]).expect("valid"),
            beacon_order: vec![Minor::new(0), Minor::new(1)],
        };
        assert_eq!(
            OccupancyModel::fit(&empty, &SvmParams::default()),
            Err(TrainOccupancyError::EmptyDataset)
        );
    }
}
