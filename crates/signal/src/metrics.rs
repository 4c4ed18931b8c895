//! Stability and responsiveness metrics for filter tuning (paper Figs 7–8).
//!
//! "Increasing the coefficient makes the signal more stable and less
//! affected by peaks but on the other hand it becomes less responsive to
//! movements. To determine the best trade-off … some dynamic tests have been
//! performed." These metrics quantify both sides:
//!
//! * **Stability** — the standard deviation of the filter output over a
//!   static capture (smaller is better).
//! * **Responsiveness** — the settling time after a step change in the true
//!   distance (smaller is better).

/// Arithmetic mean of a slice. Returns `None` on empty input.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Population standard deviation of a slice. Returns `None` on empty input.
///
/// # Examples
///
/// ```
/// use roomsense_signal::metrics::std_dev;
/// let flat = [2.0, 2.0, 2.0];
/// assert_eq!(std_dev(&flat), Some(0.0));
/// ```
pub fn std_dev(values: &[f64]) -> Option<f64> {
    let m = mean(values)?;
    let var = values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64;
    Some(var.sqrt())
}

/// Root-mean-square error between a series and a constant truth.
pub fn rmse_against(values: &[f64], truth: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let sq = values
        .iter()
        .map(|v| (v - truth) * (v - truth))
        .sum::<f64>()
        / values.len() as f64;
    Some(sq.sqrt())
}

/// The crossover index in a two-beacon dynamic walk: the first cycle at
/// which the estimated distance to `b` becomes smaller than to `a`
/// (the moment the system would switch rooms). Series entries are
/// `(dist_to_a, dist_to_b)`; `None` values (lost tracks) never win.
///
/// Returns `None` if `b` never becomes closer.
pub fn crossover_index(series: &[(Option<f64>, Option<f64>)]) -> Option<usize> {
    series.iter().position(|(a, b)| match (a, b) {
        (Some(da), Some(db)) => db < da,
        (None, Some(_)) => true,
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std_of_known_series() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), Some(2.5));
        let sd = std_dev(&xs).expect("non-empty");
        assert!((sd - 1.118).abs() < 1e-3);
    }

    #[test]
    fn empty_series_yield_none() {
        assert_eq!(mean(&[]), None);
        assert_eq!(std_dev(&[]), None);
        assert_eq!(rmse_against(&[], 1.0), None);
    }

    #[test]
    fn rmse_zero_when_exact() {
        assert_eq!(rmse_against(&[3.0, 3.0], 3.0), Some(0.0));
    }

    #[test]
    fn crossover_detection() {
        let series = [
            (Some(1.0), Some(9.0)),
            (Some(3.0), Some(6.0)),
            (Some(5.0), Some(4.0)),
            (Some(7.0), Some(2.0)),
        ];
        assert_eq!(crossover_index(&series), Some(2));
    }

    #[test]
    fn crossover_with_lost_first_track() {
        let series = [(Some(1.0), Some(9.0)), (None, Some(6.0))];
        assert_eq!(crossover_index(&series), Some(1));
    }

    #[test]
    fn no_crossover() {
        let series = [(Some(1.0), Some(9.0)), (Some(1.0), None)];
        assert_eq!(crossover_index(&series), None);
    }
}
