//! Trilateration — the triangulation technique the paper *discards*.
//!
//! Section VI: "Triangulation has been discarded because it requires very
//! stable and accurate input data … due to the signal fluctuation we decided
//! to not use this technique." Implementing it lets the `ablate_classifier`
//! bench demonstrate that decision quantitatively.

use std::fmt;

/// Error from [`trilaterate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrilaterateError {
    /// Fewer than three usable (anchor, distance) pairs were supplied.
    NotEnoughAnchors,
    /// The solver failed to converge (degenerate anchor geometry or wild
    /// distances).
    DidNotConverge,
}

impl fmt::Display for TrilaterateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrilaterateError::NotEnoughAnchors => {
                write!(f, "trilateration needs at least three anchors")
            }
            TrilaterateError::DidNotConverge => write!(f, "trilateration did not converge"),
        }
    }
}

impl std::error::Error for TrilaterateError {}

/// Estimates a 2-D position from anchor positions and measured distances by
/// Gauss–Newton least squares.
///
/// `anchors[i]` is `(x, y)` of beacon `i`; `distances[i]` the measured
/// distance to it (non-finite or non-positive entries are skipped).
///
/// # Errors
///
/// `TrilaterateError::NotEnoughAnchors` with fewer than three usable
/// pairs; `TrilaterateError::DidNotConverge` when the iteration stalls on
/// degenerate geometry.
///
/// # Examples
///
/// ```
/// use roomsense_ml::trilaterate;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let anchors = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)];
/// // True position (3, 4):
/// let d = [5.0, 8.0622577, 6.7082039];
/// let (x, y) = trilaterate(&anchors, &d)?;
/// assert!((x - 3.0).abs() < 1e-3 && (y - 4.0).abs() < 1e-3);
/// # Ok(())
/// # }
/// ```
pub fn trilaterate(
    anchors: &[(f64, f64)],
    distances: &[f64],
) -> Result<(f64, f64), TrilaterateError> {
    assert_eq!(
        anchors.len(),
        distances.len(),
        "anchors/distances length mismatch"
    );
    let usable: Vec<((f64, f64), f64)> = anchors
        .iter()
        .copied()
        .zip(distances.iter().copied())
        .filter(|(_, d)| d.is_finite() && *d > 0.0)
        .collect();
    if usable.len() < 3 {
        return Err(TrilaterateError::NotEnoughAnchors);
    }
    // Start from the centroid of the anchors.
    let n = usable.len() as f64;
    let mut x = usable.iter().map(|((ax, _), _)| ax).sum::<f64>() / n;
    let mut y = usable.iter().map(|((_, ay), _)| ay).sum::<f64>() / n;

    // Collinear anchors leave the cross-track coordinate unobservable: the
    // iteration would settle somewhere on the line and report it as a fix.
    // Detect the degenerate geometry up front via the anchor scatter matrix
    // (its determinant vanishes exactly when the anchors share a line).
    let (mut sxx, mut sxy, mut syy) = (0.0f64, 0.0f64, 0.0f64);
    for ((ax, ay), _) in &usable {
        let dx = ax - x;
        let dy = ay - y;
        sxx += dx * dx;
        sxy += dx * dy;
        syy += dy * dy;
    }
    let scatter_det = sxx * syy - sxy * sxy;
    let scatter_scale = (sxx + syy).powi(2).max(f64::MIN_POSITIVE);
    if scatter_det <= 1e-12 * scatter_scale {
        return Err(TrilaterateError::DidNotConverge);
    }

    for _ in 0..100 {
        // Residuals r_i = |p - a_i| - d_i; Jacobian rows (∂r/∂x, ∂r/∂y).
        let mut jtj = [0.0f64; 3]; // [xx, xy, yy]
        let mut jtr = [0.0f64; 2];
        for ((ax, ay), d) in &usable {
            let dx = x - ax;
            let dy = y - ay;
            let range = (dx * dx + dy * dy).sqrt().max(1e-9);
            let r = range - d;
            let jx = dx / range;
            let jy = dy / range;
            jtj[0] += jx * jx;
            jtj[1] += jx * jy;
            jtj[2] += jy * jy;
            jtr[0] += jx * r;
            jtr[1] += jy * r;
        }
        // Levenberg damping keeps degenerate geometry from exploding.
        let lambda = 1e-9;
        let det = (jtj[0] + lambda) * (jtj[2] + lambda) - jtj[1] * jtj[1];
        if det.abs() < 1e-12 {
            return Err(TrilaterateError::DidNotConverge);
        }
        let step_x = ((jtj[2] + lambda) * jtr[0] - jtj[1] * jtr[1]) / det;
        let step_y = ((jtj[0] + lambda) * jtr[1] - jtj[1] * jtr[0]) / det;
        x -= step_x;
        y -= step_y;
        if step_x.abs() < 1e-10 && step_y.abs() < 1e-10 {
            return Ok((x, y));
        }
    }
    // Exhausting the iteration budget without meeting the step criterion is
    // a failure, not a fix: returning the last iterate here used to hand
    // callers a wild extrapolation dressed up as a position.
    Err(TrilaterateError::DidNotConverge)
}

/// Width of the feature block appended by [`position_features`]:
/// `[x, y, fix_quality]`.
pub const POSITION_FEATURE_WIDTH: usize = 3;

/// Builds the optional trilateration feature block for the SVM: `[x, y,
/// fix_quality]`.
///
/// `distances[i]` is the smoothed distance to the beacon at `anchors[i]`;
/// entries at or above `missing_sentinel` count as "beacon not seen" and are
/// excluded from the solve (exactly like the per-beacon sentinel features).
///
/// When [`trilaterate`] produces a fix, the block is the position with
/// `fix_quality = 1.0`, the coordinates clamped to the anchor bounding box
/// inflated by the sentinel so one wild solve cannot blow up feature
/// scaling. When it fails — too few usable beacons, degenerate geometry, or
/// no convergence — the block falls back to the anchor centroid with
/// `fix_quality = 0.0`, a fixed, deterministic vector the scaler and SVM can
/// treat as "no position information this cycle".
///
/// # Panics
///
/// Panics if `anchors` is empty, lengths differ, or the sentinel is not
/// positive.
pub fn position_features(
    anchors: &[(f64, f64)],
    distances: &[f64],
    missing_sentinel: f64,
) -> [f64; POSITION_FEATURE_WIDTH] {
    assert!(!anchors.is_empty(), "need at least one anchor");
    assert_eq!(
        anchors.len(),
        distances.len(),
        "anchors/distances length mismatch"
    );
    assert!(
        missing_sentinel > 0.0,
        "missing sentinel must be positive (got {missing_sentinel})"
    );
    let masked: Vec<f64> = distances
        .iter()
        .map(|&d| if d < missing_sentinel { d } else { f64::NAN })
        .collect();
    let n = anchors.len() as f64;
    let cx = anchors.iter().map(|(x, _)| x).sum::<f64>() / n;
    let cy = anchors.iter().map(|(_, y)| y).sum::<f64>() / n;
    match trilaterate(anchors, &masked) {
        Ok((x, y)) => {
            let min_x = anchors
                .iter()
                .map(|(x, _)| *x)
                .fold(f64::INFINITY, f64::min);
            let max_x = anchors
                .iter()
                .map(|(x, _)| *x)
                .fold(f64::NEG_INFINITY, f64::max);
            let min_y = anchors
                .iter()
                .map(|(_, y)| *y)
                .fold(f64::INFINITY, f64::min);
            let max_y = anchors
                .iter()
                .map(|(_, y)| *y)
                .fold(f64::NEG_INFINITY, f64::max);
            [
                x.clamp(min_x - missing_sentinel, max_x + missing_sentinel),
                y.clamp(min_y - missing_sentinel, max_y + missing_sentinel),
                1.0,
            ]
        }
        Err(_) => [cx, cy, 0.0],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_distances(anchors: &[(f64, f64)], p: (f64, f64)) -> Vec<f64> {
        anchors
            .iter()
            .map(|(ax, ay)| ((p.0 - ax).powi(2) + (p.1 - ay).powi(2)).sqrt())
            .collect()
    }

    #[test]
    fn exact_distances_recover_position() {
        let anchors = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0), (10.0, 10.0)];
        let truth = (6.3, 2.7);
        let d = exact_distances(&anchors, truth);
        let (x, y) = trilaterate(&anchors, &d).expect("solves");
        assert!((x - truth.0).abs() < 1e-6);
        assert!((y - truth.1).abs() < 1e-6);
    }

    #[test]
    fn noisy_distances_recover_approximately() {
        let anchors = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0), (10.0, 10.0)];
        let truth = (4.0, 4.0);
        let mut d = exact_distances(&anchors, truth);
        d[0] += 0.5;
        d[1] -= 0.4;
        d[2] += 0.3;
        let (x, y) = trilaterate(&anchors, &d).expect("solves");
        assert!((x - truth.0).abs() < 1.0, "x {x}");
        assert!((y - truth.1).abs() < 1.0, "y {y}");
    }

    #[test]
    fn missing_distances_are_skipped() {
        let anchors = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0), (10.0, 10.0)];
        let truth = (5.0, 5.0);
        let mut d = exact_distances(&anchors, truth);
        d[3] = f64::NAN; // lost beacon
        let (x, y) = trilaterate(&anchors, &d).expect("still three usable");
        assert!((x - 5.0).abs() < 1e-6 && (y - 5.0).abs() < 1e-6);
    }

    #[test]
    fn two_anchors_rejected() {
        let anchors = [(0.0, 0.0), (10.0, 0.0)];
        assert_eq!(
            trilaterate(&anchors, &[5.0, 5.0]),
            Err(TrilaterateError::NotEnoughAnchors)
        );
    }

    #[test]
    fn wildly_wrong_distances_still_return_something_finite() {
        // The paper's point: with fluctuating input the answer is garbage —
        // but the solver must fail gracefully, not blow up.
        let anchors = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)];
        let d = [30.0, 1.0, 30.0];
        if let Ok((x, y)) = trilaterate(&anchors, &d) {
            assert!(x.is_finite() && y.is_finite());
        }
    }

    #[test]
    fn skipped_distances_below_three_usable_is_not_enough_anchors() {
        // Four anchors but only two usable distances: NaN and a non-positive
        // reading both drop out of the solve, so the geometry is starved.
        let anchors = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0), (10.0, 10.0)];
        let d = [5.0, f64::NAN, -1.0, 5.0];
        assert_eq!(
            trilaterate(&anchors, &d),
            Err(TrilaterateError::NotEnoughAnchors)
        );
        // Infinity is skipped the same way.
        let d = [5.0, f64::INFINITY, 5.0, 0.0];
        assert_eq!(
            trilaterate(&anchors, &d),
            Err(TrilaterateError::NotEnoughAnchors)
        );
    }

    #[test]
    fn collinear_anchors_do_not_converge() {
        // Three anchors on one line cannot pin down the cross-track
        // coordinate; the solver must refuse rather than extrapolate.
        let anchors = [(0.0, 0.0), (5.0, 0.0), (10.0, 0.0)];
        let d = exact_distances(&anchors, (5.0, 3.0));
        assert_eq!(
            trilaterate(&anchors, &d),
            Err(TrilaterateError::DidNotConverge)
        );
        // A diagonal line degenerates identically.
        let anchors = [(0.0, 0.0), (3.0, 3.0), (7.0, 7.0)];
        let d = exact_distances(&anchors, (2.0, 5.0));
        assert_eq!(
            trilaterate(&anchors, &d),
            Err(TrilaterateError::DidNotConverge)
        );
    }

    #[test]
    fn position_features_carry_a_good_fix() {
        let anchors = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0), (10.0, 10.0)];
        let truth = (6.0, 3.0);
        let d = exact_distances(&anchors, truth);
        let [x, y, q] = position_features(&anchors, &d, 50.0);
        assert!((x - truth.0).abs() < 1e-6);
        assert!((y - truth.1).abs() < 1e-6);
        assert_eq!(q, 1.0);
    }

    #[test]
    fn position_features_fall_back_to_the_centroid_without_a_fix() {
        let anchors = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0), (10.0, 10.0)];
        // Only two beacons visible: the sentinel masks the rest.
        let d = [3.0, 4.0, 50.0, 99.0];
        assert_eq!(position_features(&anchors, &d, 50.0), [5.0, 5.0, 0.0]);
        // Collinear visible anchors degrade the same way.
        let anchors = [(0.0, 0.0), (5.0, 0.0), (10.0, 0.0)];
        let d = exact_distances(&anchors, (5.0, 2.0));
        assert_eq!(position_features(&anchors, &d, 50.0), [5.0, 0.0, 0.0]);
    }

    #[test]
    fn position_features_clamp_wild_fixes() {
        let anchors = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)];
        // Consistent but absurd distances can converge far away; the block
        // must stay inside the inflated anchor box either way.
        let d = [45.0, 44.0, 46.0];
        let [x, y, _] = position_features(&anchors, &d, 50.0);
        assert!((-50.0..=60.0).contains(&x), "x {x}");
        assert!((-50.0..=60.0).contains(&y), "y {y}");
    }

    #[test]
    fn near_collinear_but_valid_geometry_still_solves() {
        // A thin but genuine triangle stays solvable: the degeneracy check
        // must not reject merely elongated layouts.
        let anchors = [(0.0, 0.0), (10.0, 0.1), (20.0, 1.0)];
        let truth = (8.0, 4.0);
        let d = exact_distances(&anchors, truth);
        let (x, y) = trilaterate(&anchors, &d).expect("thin triangle solves");
        assert!((x - truth.0).abs() < 1e-4, "x {x}");
        assert!((y - truth.1).abs() < 1e-4, "y {y}");
    }
}
