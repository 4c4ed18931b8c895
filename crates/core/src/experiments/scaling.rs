//! The `scaling` arm: the Fig 9 protocol on a commercial office floor.

use super::house::svm_and_proximity;
use super::{ExperimentCtx, ExperimentReport};
use crate::{collect_dataset, PipelineConfig, Scenario};
use roomsense_building::presets;
use roomsense_sim::SimDuration;

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
        let (office_svm, office_proximity) =
            svm_and_proximity(&scenario, &labelled, seed, "scaling-split");
        ScalingResult {
            office_svm,
            office_proximity,
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
