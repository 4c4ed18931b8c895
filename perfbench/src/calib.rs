//! Host-speed calibration of the end-to-end times.
//!
//! On a shared host the measuring thread's CPU time for the same work
//! drifts by up to 2x, in phases of seconds to minutes, as other tenants
//! contend for the last-level cache and memory: one surge seed's iterations
//! took 0.14-0.28 s of CPU within one run. A fixed kernel, random
//! read-modify-writes over an 8 MB buffer that lives in the last-level cache
//! as the workloads' state does, runs before the first set-up, after every
//! set-up and after every timed iteration. Each measured time is scaled by
//! [`REFERENCE_S`] over the mean of the kernel runs on either side of it, so
//! the figures read as CPU time at one fixed host speed. The kernel is the
//! benchmark's own code and touches no program state, so no program change
//! moves it; a program that does twice the work still reads twice the time.

use crate::trace::Stopwatch;

/// Words in the kernel's buffer: 8 MB, above the 2 MB private L2 of the
/// hosts measured and well inside their last-level cache.
const WORDS: usize = 1 << 20;
/// Untimed steps that bring the buffer back into cache after an iteration.
const WARM_STEPS: usize = 1 << 19;
/// Timed steps.
const TIMED_STEPS: usize = 1 << 20;
/// The kernel's time at the reference host speed, seconds. A fixed
/// constant near its time on an uncontended 2-vCPU Xeon guest, so scaled
/// figures stay close to raw CPU time; it cancels when two commits are
/// compared.
pub const REFERENCE_S: f64 = 0.003;

/// The calibration kernel and its buffer.
pub struct Calibration {
    words: Vec<u64>,
    state: u64,
}

impl Calibration {
    /// Allocates the buffer and writes every word, so all of it is
    /// resident before the peak resident set is reset.
    pub fn new() -> Self {
        Calibration {
            words: (0..WORDS as u64).collect(),
            state: 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// The buffer's size in MB, which `peak_rss_mb` leaves out.
    pub fn buffer_mb() -> f64 {
        (WORDS * std::mem::size_of::<u64>()) as f64 / (1024.0 * 1024.0)
    }

    fn walk(&mut self, steps: usize) {
        let mask = self.words.len() - 1;
        let mut x = self.state;
        for _ in 0..steps {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = x as usize & mask;
            self.words[i] = self.words[i].wrapping_add(x);
        }
        self.state = x;
        std::hint::black_box(&self.words);
    }

    /// One timed kernel run, in seconds of the benchmark's clock.
    pub fn kernel_s(&mut self) -> f64 {
        self.walk(WARM_STEPS);
        let start = Stopwatch::start();
        self.walk(TIMED_STEPS);
        start.elapsed_s()
    }
}

/// The factor from a time measured between kernel runs of `before_s` and
/// `after_s` to the same time at the reference host speed.
pub fn scale(before_s: f64, after_s: f64) -> f64 {
    2.0 * REFERENCE_S / (before_s + after_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_kernel_at_the_reference_time_leaves_times_unscaled() {
        assert_eq!(scale(REFERENCE_S, REFERENCE_S), 1.0);
        assert_eq!(scale(2.0 * REFERENCE_S, 2.0 * REFERENCE_S), 0.5);
        assert_eq!(Calibration::buffer_mb(), 8.0);
    }

    #[test]
    fn the_kernel_takes_time() {
        let mut calibration = Calibration::new();
        let kernel_s = calibration.kernel_s();
        assert!(kernel_s > 0.0 && kernel_s < 1.0, "{kernel_s}");
    }
}
