//! Gates for the extension studies, mirroring `tests/paper_claims.rs`.

use roomsense::experiments::ExperimentCtx;

const SEED: u64 = 20150309;

/// The BMS occupancy table tracks ground truth at the system level.
#[test]
fn tracking_gate() {
    let result = ExperimentCtx::new(SEED).tracking();
    assert!(
        result.device_agreement > 0.85,
        "device agreement {:.3}",
        result.device_agreement
    );
}

/// The method holds up at commercial scale, with the SVM still ahead.
#[test]
fn scaling_gate() {
    let result = ExperimentCtx::new(SEED).scaling();
    assert!(
        result.office_svm > 0.85,
        "office svm {:.3}",
        result.office_svm
    );
    assert!(result.office_svm >= result.office_proximity);
}

/// The major field separates floors almost perfectly.
#[test]
fn multifloor_gate() {
    let result = ExperimentCtx::new(SEED).floors();
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
}
