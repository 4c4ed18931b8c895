//! A moving-median filter — the robust-but-laggy baseline.

use crate::{DistanceFilter, LossPolicy};
use std::collections::VecDeque;
use std::fmt;

/// A moving median over the last `window` observations.
///
/// Medians reject single-cycle spikes completely (better than EWMA) but add
/// `window / 2` cycles of latency to every real movement (worse than EWMA).
/// The `ablate_coeff` bench quantifies the trade-off.
///
/// # Examples
///
/// ```
/// use roomsense_signal::{DistanceFilter, MedianFilter};
///
/// let mut f = MedianFilter::new(3);
/// f.update(Some(2.0));
/// f.update(Some(2.1));
/// // A wild spike is completely rejected:
/// assert_eq!(f.update(Some(40.0)), Some(2.1));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MedianFilter {
    window: usize,
    policy: LossPolicy,
    history: VecDeque<f64>,
    sorted: Vec<f64>,
    consecutive_losses: u32,
}

impl MedianFilter {
    /// Creates a filter with the given window length.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be at least 1");
        MedianFilter {
            window,
            policy: LossPolicy::HoldOneCycle,
            history: VecDeque::with_capacity(window),
            sorted: Vec::with_capacity(window),
            consecutive_losses: 0,
        }
    }

    /// Returns the filter with a different loss policy.
    pub fn with_policy(mut self, policy: LossPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// First index in the sorted scratch not ordered before `v`.
    fn rank_of(&self, v: f64) -> usize {
        self.sorted.partition_point(|x| {
            x.partial_cmp(&v).expect("finite observations") == std::cmp::Ordering::Less
        })
    }

    fn sorted_insert(&mut self, v: f64) {
        let at = self.rank_of(v);
        self.sorted.insert(at, v);
    }

    fn sorted_remove(&mut self, v: f64) {
        let at = self.rank_of(v);
        debug_assert!(self.sorted[at] == v, "evicted value missing from scratch");
        self.sorted.remove(at);
    }

    fn median(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let mid = self.sorted.len() / 2;
        Some(if self.sorted.len().is_multiple_of(2) {
            (self.sorted[mid - 1] + self.sorted[mid]) / 2.0
        } else {
            self.sorted[mid]
        })
    }
}

impl DistanceFilter for MedianFilter {
    fn update(&mut self, observation: Option<f64>) -> Option<f64> {
        match observation {
            Some(v) => {
                self.consecutive_losses = 0;
                if self.history.len() == self.window {
                    let evicted = self.history.pop_front().expect("window is full");
                    self.sorted_remove(evicted);
                }
                self.history.push_back(v);
                self.sorted_insert(v);
                self.median()
            }
            None => {
                self.consecutive_losses += 1;
                let drop_after = match self.policy {
                    LossPolicy::HoldOneCycle => 2,
                    LossPolicy::DropImmediately => 1,
                };
                if self.consecutive_losses >= drop_after {
                    self.history.clear();
                    self.sorted.clear();
                }
                self.median()
            }
        }
    }

    fn current(&self) -> Option<f64> {
        self.median()
    }

    fn reset(&mut self) {
        self.history.clear();
        self.sorted.clear();
        self.consecutive_losses = 0;
    }

    fn name(&self) -> &'static str {
        "median"
    }
}

impl fmt::Display for MedianFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "median(window={})", self.window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_spike_is_rejected() {
        let mut f = MedianFilter::new(5);
        for _ in 0..5 {
            f.update(Some(2.0));
        }
        assert_eq!(f.update(Some(50.0)), Some(2.0));
    }

    #[test]
    fn window_slides() {
        let mut f = MedianFilter::new(3);
        f.update(Some(1.0));
        f.update(Some(2.0));
        f.update(Some(3.0));
        assert_eq!(f.update(Some(4.0)), Some(3.0)); // window = [2,3,4]
    }

    #[test]
    fn even_window_averages_middle_pair() {
        let mut f = MedianFilter::new(4);
        f.update(Some(1.0));
        f.update(Some(2.0));
        f.update(Some(3.0));
        assert_eq!(f.update(Some(4.0)), Some(2.5));
    }

    #[test]
    fn hold_then_drop_like_the_paper() {
        let mut f = MedianFilter::new(3);
        f.update(Some(2.0));
        assert_eq!(f.update(None), Some(2.0));
        assert_eq!(f.update(None), None);
    }

    #[test]
    fn window_one_is_passthrough() {
        let mut f = MedianFilter::new(1);
        assert_eq!(f.update(Some(7.0)), Some(7.0));
        assert_eq!(f.update(Some(9.0)), Some(9.0));
    }

    #[test]
    fn reset_clears_history() {
        let mut f = MedianFilter::new(3);
        f.update(Some(2.0));
        f.reset();
        assert_eq!(f.update(Some(5.0)), Some(5.0));
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_panics() {
        let _ = MedianFilter::new(0);
    }

    /// The previous implementation: collect the whole window into a fresh
    /// `Vec` and fully re-sort it on every update. Kept here as the
    /// reference the incremental sorted scratch must match bit-for-bit.
    #[derive(Debug, Clone)]
    struct ReferenceMedian {
        window: usize,
        policy: LossPolicy,
        history: VecDeque<f64>,
        consecutive_losses: u32,
    }

    impl ReferenceMedian {
        fn new(window: usize) -> Self {
            ReferenceMedian {
                window,
                policy: LossPolicy::HoldOneCycle,
                history: VecDeque::new(),
                consecutive_losses: 0,
            }
        }

        fn median(&self) -> Option<f64> {
            if self.history.is_empty() {
                return None;
            }
            let mut sorted: Vec<f64> = self.history.iter().copied().collect();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite observations"));
            let mid = sorted.len() / 2;
            Some(if sorted.len().is_multiple_of(2) {
                (sorted[mid - 1] + sorted[mid]) / 2.0
            } else {
                sorted[mid]
            })
        }

        fn update(&mut self, observation: Option<f64>) -> Option<f64> {
            match observation {
                Some(v) => {
                    self.consecutive_losses = 0;
                    if self.history.len() == self.window {
                        self.history.pop_front();
                    }
                    self.history.push_back(v);
                    self.median()
                }
                None => {
                    self.consecutive_losses += 1;
                    let drop_after = match self.policy {
                        LossPolicy::HoldOneCycle => 2,
                        LossPolicy::DropImmediately => 1,
                    };
                    if self.consecutive_losses >= drop_after {
                        self.history.clear();
                    }
                    self.median()
                }
            }
        }
    }

    #[test]
    fn sorted_scratch_matches_the_old_full_resort_bit_for_bit() {
        // Deterministic LCG so the trace (values, duplicates, loss bursts)
        // is reproducible without any external RNG dependency.
        let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for window in [1usize, 2, 3, 4, 5, 8, 16] {
            let mut fast = MedianFilter::new(window);
            let mut reference = ReferenceMedian::new(window);
            for step in 0..2000 {
                let roll = next();
                let observation = if roll % 5 == 0 {
                    None // ~20 % losses, including multi-cycle bursts
                } else {
                    // Coarse quantisation forces frequent exact duplicates.
                    Some(((roll % 64) as f64) / 4.0)
                };
                let got = fast.update(observation);
                let want = reference.update(observation);
                assert_eq!(
                    got.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "window {window} step {step} diverged: {got:?} vs {want:?}"
                );
                if roll % 97 == 0 {
                    fast.reset();
                    reference.history.clear();
                    reference.consecutive_losses = 0;
                }
            }
        }
    }
}
