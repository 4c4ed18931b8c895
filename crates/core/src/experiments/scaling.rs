//! The `scaling` arm: the Fig 9 protocol on a commercial office floor.

use super::{ExperimentCtx, ExperimentReport};
use crate::{
    collect_dataset, LabelledDataset, OccupancyModel, PipelineConfig, Scenario, MISSING_DISTANCE,
};
use roomsense_building::presets;
use roomsense_ml::{train_test_split, Classifier, ConfusionMatrix, ProximityClassifier, SvmParams};
use roomsense_sim::{rng, SimDuration};

/// Classification accuracy at commercial-building scale.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingResult {
    /// SVM accuracy on the office floor (9 rooms, 10 beacons).
    pub office_svm: f64,
    /// Proximity accuracy on the office floor.
    pub office_proximity: f64,
    /// Rooms and beacons, for the report.
    pub rooms: usize,
    /// Beacons installed.
    pub beacons: usize,
}

impl ExperimentCtx {
    /// Runs the Fig 9 protocol on the larger office floor — the commercial
    /// setting the paper's introduction motivates ("buildings are the major
    /// consumers of energy").
    pub fn scaling(&self) -> ScalingResult {
        let seed = self.seed;
        let scenario = Scenario::from_plan(presets::office_floor(), seed);
        let labelled = collect_dataset(
            &scenario,
            &PipelineConfig::paper_android(),
            SimDuration::from_secs(40),
            3,
            seed,
        );
        let mut split_rng = rng::for_component(seed, "scaling-split");
        let (train, test) = train_test_split(&labelled.data, 0.3, &mut split_rng);
        let model = OccupancyModel::fit(
            &LabelledDataset {
                data: train,
                beacon_order: labelled.beacon_order.clone(),
            },
            &SvmParams::default(),
        )
        .expect("office collection walk yields a multi-class dataset");
        let svm_cm = model.evaluate(&test);
        let proximity = ProximityClassifier::new(
            scenario.beacon_room_labels(),
            scenario.outside_label(),
            MISSING_DISTANCE,
        );
        let mut prox_cm = ConfusionMatrix::new(scenario.label_names().len());
        for (row, label) in test.rows().iter().zip(test.labels()) {
            prox_cm.record(*label, proximity.predict(row));
        }
        ScalingResult {
            office_svm: svm_cm.accuracy(),
            office_proximity: prox_cm.accuracy(),
            rooms: scenario.plan().rooms().len(),
            beacons: scenario.plan().beacon_sites().len(),
        }
    }
}

impl ExperimentReport for ScalingResult {
    fn summary_rows(&self) -> Vec<String> {
        vec![format!(
            "  {} rooms, {} beacons: svm {:.1}%, proximity {:.1}%",
            self.rooms,
            self.beacons,
            self.office_svm * 100.0,
            self.office_proximity * 100.0
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn office_floor_scales_with_svm_still_ahead() {
        let result = ExperimentCtx::new(16).scaling();
        assert_eq!(result.rooms, 9);
        assert_eq!(result.beacons, 10);
        assert!(result.office_svm > 0.80, "office svm {:.3}", result.office_svm);
        assert!(
            result.office_svm > result.office_proximity,
            "svm {:.3} vs proximity {:.3}",
            result.office_svm,
            result.office_proximity
        );
    }
}
