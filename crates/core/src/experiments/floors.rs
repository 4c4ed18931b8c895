//! The `floors` arm: floor and room identification in a two-storey house.

use super::{ExperimentCtx, ExperimentReport};
use crate::PipelineConfig;
use roomsense_building::presets;
use roomsense_ml::{train_test_split, SvmParams};
use roomsense_sim::{rng, SimDuration};

/// Floor-aware classification quality in a stacked building.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiFloorResult {
    /// Fraction of test rows assigned to the correct floor.
    pub floor_accuracy: f64,
    /// Fraction of test rows assigned to the exact (floor, room) label.
    pub room_accuracy: f64,
    /// Floors in the building.
    pub(crate) floors: usize,
    /// Beacons across all floors.
    pub(crate) beacons: usize,
}

impl ExperimentCtx {
    /// Trains one building-wide SVM over a two-storey stack of the paper house
    /// and scores floor and room identification — the multi-floor use of the
    /// iBeacon major field (Section III).
    pub fn floors(&self) -> MultiFloorResult {
        use roomsense_ml::{Classifier, StandardScaler, SvmClassifier};
        let seed = self.seed;
        let building = crate::MultiFloorScenario::new(
            vec![presets::paper_house(), presets::paper_house()],
            seed,
        );
        let data = building.collect_dataset(
            &PipelineConfig::paper_android(),
            SimDuration::from_secs(30),
            2,
            seed,
        );
        let mut split_rng = rng::for_component(seed, "multifloor-split");
        let (train, test) = train_test_split(&data, 0.3, &mut split_rng);
        let scaler = StandardScaler::fit(&train);
        let svm = SvmClassifier::fit(&scaler.transform_dataset(&train), &SvmParams::default())
            .expect("building dataset is multi-class");
        // Label → floor: five rooms per floor, outside maps to usize::MAX.
        let rooms_per_floor = building.floors()[0].plan().rooms().len();
        let floor_of = |label: usize| {
            if label >= building.outside_label() {
                usize::MAX
            } else {
                label / rooms_per_floor
            }
        };
        let mut room_hits = 0usize;
        let mut floor_hits = 0usize;
        for (row, label) in test.rows().iter().zip(test.labels()) {
            let predicted = svm.predict(&scaler.transform(row));
            if predicted == *label {
                room_hits += 1;
            }
            if floor_of(predicted) == floor_of(*label) {
                floor_hits += 1;
            }
        }
        MultiFloorResult {
            floor_accuracy: floor_hits as f64 / test.len().max(1) as f64,
            room_accuracy: room_hits as f64 / test.len().max(1) as f64,
            floors: building.floor_count(),
            beacons: building.beacon_order().len(),
        }
    }
}

impl ExperimentReport for MultiFloorResult {
    fn summary_rows(&self) -> Vec<String> {
        vec![format!(
            "  {} floors, {} beacons: floor accuracy {:.1}%, room accuracy {:.1}%",
            self.floors,
            self.beacons,
            self.floor_accuracy * 100.0,
            self.room_accuracy * 100.0
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_storey_building_identifies_the_floor() {
        let result = ExperimentCtx::new(17).floors();
        assert_eq!(result.floors, 2);
        assert_eq!(result.beacons, 10);
        assert!(
            result.floor_accuracy > 0.95,
            "floor accuracy {:.3}",
            result.floor_accuracy
        );
        assert!(
            result.room_accuracy > 0.75,
            "room accuracy {:.3}",
            result.room_accuracy
        );
        assert!(result.room_accuracy <= result.floor_accuracy);
    }
}
