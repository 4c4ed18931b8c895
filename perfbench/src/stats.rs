//! Percentiles, medians and the result line.

use std::fmt::Write as _;

/// Nearest-rank percentile of `values` (`q` in `[0, 1]`); 0 when empty.
pub fn percentile(values: &mut [u64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable();
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1] as f64
}

/// Median of `values` (mean of the middle pair for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Metrics in print order: `(name, value, unit)`.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// The final result line the harness reads.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        let _ = write!(
            body,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut Vec::new(), 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let mut m = Metrics::default();
        m.push("latency_ms", 1.2034567891, "ms");
        let line = result_json(true, 3, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"latency_ms\": {\"value\": 1.2034567891, \"unit\": \"ms\"}}}"
        );
    }
}
