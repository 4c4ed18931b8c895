//! Stack-side fault injection: forced adapter stalls and restart storms.
//!
//! [`AndroidScanner`](crate::AndroidScanner) already models the *stochastic*
//! flakiness of the Android 4.x BLE stack (each restart window stalls with a
//! fixed probability). [`FaultyScanner`] layers *scheduled* faults on top of
//! any scanner model:
//!
//! * **adapter stalls** — during a stall window the wedged adapter delivers
//!   nothing at all, exactly like the "Bluetooth crash" the paper's app
//!   recovers from by power-cycling the adapter;
//! * **restart storms** — during a storm the app (or a co-resident app)
//!   restarts scans so aggressively that most packets are lost in
//!   setup/teardown; survivors still pass through the inner model.

use crate::{Reception, ScanScratch, ScannerModel};
use rand::Rng;
use roomsense_sim::{FaultSchedule, SimDuration, SimTime};
use roomsense_telemetry::{keys, Recorder, TelemetryEvent};
use std::fmt;

/// Wraps a scanner model with scheduled adapter faults.
///
/// # Examples
///
/// ```
/// use roomsense_sim::{FaultSchedule, FaultWindow, SimTime};
/// use roomsense_stack::{AndroidScanner, FaultyScanner, ScannerModel};
///
/// let stalls = FaultSchedule::new(vec![FaultWindow::new(
///     SimTime::from_secs(10),
///     SimTime::from_secs(20),
/// )]);
/// let scanner = FaultyScanner::new(
///     AndroidScanner::reliable(),
///     stalls,
///     FaultSchedule::none(),
///     0.7,
/// );
/// assert_eq!(scanner.name(), "android-4.x+faults");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultyScanner<M> {
    inner: M,
    stalls: FaultSchedule,
    storms: FaultSchedule,
    storm_loss: f64,
}

impl<M: ScannerModel> FaultyScanner<M> {
    /// Wraps `inner`. `storm_loss` is the per-packet drop probability while
    /// a restart storm is active.
    ///
    /// # Panics
    ///
    /// Panics if `storm_loss` is outside `[0, 1]`.
    pub fn new(inner: M, stalls: FaultSchedule, storms: FaultSchedule, storm_loss: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&storm_loss),
            "storm loss must be in [0, 1] (got {storm_loss})"
        );
        FaultyScanner {
            inner,
            stalls,
            storms,
            storm_loss,
        }
    }

    /// The wrapped scanner model.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// The scheduled adapter-stall windows.
    pub fn stalls(&self) -> &FaultSchedule {
        &self.stalls
    }

    /// The scheduled restart-storm windows.
    pub fn storms(&self) -> &FaultSchedule {
        &self.storms
    }

    /// True when no window is scheduled: the wrapper then drops nothing,
    /// draws nothing and records nothing, so receptions go straight to the
    /// inner model without the per-cycle survivor copy.
    fn is_benign(&self) -> bool {
        self.stalls.is_empty() && self.storms.is_empty()
    }
}

impl<M: ScannerModel> ScannerModel for FaultyScanner<M> {
    fn filter_cycle_into<R: Rng + ?Sized>(
        &self,
        cycle_start: SimTime,
        receptions: &[Reception],
        rng: &mut R,
        telemetry: &mut Recorder,
        scratch: &mut ScanScratch,
    ) {
        if self.is_benign() {
            return self
                .inner
                .filter_cycle_into(cycle_start, receptions, rng, telemetry, scratch);
        }
        // A wedged adapter delivers nothing for the whole cycle. The check
        // is per-reception so a stall that begins mid-cycle only eats the
        // tail of the cycle. The survivors buffer is taken out of the
        // scratch while the inner model borrows the rest of it, then put
        // back so its capacity is reused next cycle.
        let mut survivors = std::mem::take(&mut scratch.survivors);
        survivors.clear();
        survivors.extend(
            receptions
                .iter()
                .filter(|r| !self.stalls.active_at(r.at))
                .filter(|r| {
                    !(self.storms.active_at(r.at)
                        && self.storm_loss > 0.0
                        && rng.gen::<f64>() < self.storm_loss)
                })
                .copied(),
        );
        let dropped = (receptions.len() - survivors.len()) as u64;
        if dropped > 0 {
            telemetry.add(keys::SCAN_SAMPLES_DROPPED, dropped);
            telemetry.record_event(TelemetryEvent::SampleDropped {
                at: cycle_start,
                count: dropped,
            });
        }
        self.inner
            .filter_cycle_into(cycle_start, &survivors, rng, telemetry, scratch);
        scratch.survivors = survivors;
    }

    fn name(&self) -> &'static str {
        match self.inner.name() {
            "android-4.x" => "android-4.x+faults",
            "android-l" => "android-l+faults",
            "ios" => "ios+faults",
            _ => "faulty",
        }
    }

    /// The inner model's answer while no window is scheduled; `None`
    /// otherwise, since a storm draws once per reception it sees.
    fn first_per_window(&self) -> Option<SimDuration> {
        if self.is_benign() {
            self.inner.first_per_window()
        } else {
            None
        }
    }
}

impl<M: ScannerModel + fmt::Display> fmt::Display for FaultyScanner<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} with {} stall(s), {} storm(s)",
            self.inner,
            self.stalls.windows().len(),
            self.storms.windows().len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AndroidLScanner, AndroidScanner, IosScanner, ScanSample};
    use roomsense_ibeacon::{Major, MeasuredPower, Minor, Packet, ProximityUuid};
    use roomsense_radio::AdvChannel;
    use roomsense_sim::{rng, FaultWindow, SimDuration};

    /// One cycle starting at `start` through `model` into a fresh scratch.
    fn filter<M: ScannerModel, R: Rng>(
        model: &M,
        start: SimTime,
        receptions: &[Reception],
        rng: &mut R,
        telemetry: &mut Recorder,
    ) -> Vec<ScanSample> {
        let mut scratch = ScanScratch::new();
        model.filter_cycle_into(start, receptions, rng, telemetry, &mut scratch);
        scratch.samples
    }

    fn reception(at_ms: u64, minor: u16) -> Reception {
        Reception {
            at: SimTime::from_millis(at_ms),
            packet: Packet::new(
                ProximityUuid::example(),
                Major::new(1),
                Minor::new(minor),
                MeasuredPower::new(-59),
            ),
            rssi_dbm: -60.0,
            channel: AdvChannel::Ch38,
        }
    }

    fn one_window(from_ms: u64, until_ms: u64) -> FaultSchedule {
        FaultSchedule::new(vec![FaultWindow::new(
            SimTime::from_millis(from_ms),
            SimTime::from_millis(until_ms),
        )])
    }

    #[test]
    fn stall_window_swallows_the_cycle() {
        let scanner = FaultyScanner::new(
            IosScanner,
            one_window(0, 2_000),
            FaultSchedule::none(),
            0.0,
        );
        let mut r = rng::for_component(1, "stall");
        let receptions = vec![reception(100, 0), reception(900, 0)];
        assert!(filter(&scanner, SimTime::ZERO, &receptions, &mut r, &mut Recorder::default()).is_empty());
        // After recovery the same receptions pass through.
        let later: Vec<Reception> = receptions
            .iter()
            .map(|rcp| Reception {
                at: rcp.at + SimDuration::from_secs(4),
                ..*rcp
            })
            .collect();
        let recovered = filter(&scanner, SimTime::from_secs(4), &later, &mut r, &mut Recorder::default());
        assert_eq!(recovered.len(), 2);
    }

    #[test]
    fn mid_cycle_stall_eats_only_the_tail() {
        let scanner = FaultyScanner::new(
            IosScanner,
            one_window(1_000, 2_000),
            FaultSchedule::none(),
            0.0,
        );
        let mut r = rng::for_component(2, "tail");
        let receptions = vec![reception(500, 0), reception(1_500, 0)];
        let samples = filter(&scanner, SimTime::ZERO, &receptions, &mut r, &mut Recorder::default());
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].at, SimTime::from_millis(500));
    }

    #[test]
    fn storm_loses_most_but_not_all_packets() {
        let scanner = FaultyScanner::new(
            IosScanner,
            FaultSchedule::none(),
            one_window(0, 100_000),
            0.7,
        );
        let mut r = rng::for_component(3, "storm");
        let receptions: Vec<Reception> = (0..2000).map(|i| reception(i * 33, 0)).collect();
        let samples = filter(&scanner, SimTime::ZERO, &receptions, &mut r, &mut Recorder::default());
        let rate = samples.len() as f64 / receptions.len() as f64;
        assert!((rate - 0.3).abs() < 0.05, "survival rate {rate}");
    }

    /// Samples, final RNG draw and telemetry checksum of two cycles through
    /// `model`, sharing one scratch.
    fn run_cycles(
        model: &impl ScannerModel,
        receptions: &[Reception],
    ) -> (Vec<ScanSample>, u64, u64) {
        let mut r = rng::for_component(4, "clean");
        let mut telemetry = Recorder::default();
        let mut scratch = ScanScratch::new();
        for _ in 0..2 {
            model.filter_cycle_into(SimTime::ZERO, receptions, &mut r, &mut telemetry, &mut scratch);
        }
        (scratch.samples, r.gen(), telemetry.checksum())
    }

    fn assert_transparent<M: ScannerModel + Copy>(inner: M) {
        let benign = FaultyScanner::new(inner, FaultSchedule::none(), FaultSchedule::none(), 0.5);
        let receptions = vec![reception(0, 0), reception(50, 0), reception(80, 1)];
        assert_eq!(
            run_cycles(&inner, &receptions),
            run_cycles(&benign, &receptions),
            "{}",
            inner.name()
        );
    }

    #[test]
    fn no_faults_is_transparent() {
        assert_transparent(AndroidScanner::new(0.3));
        assert_transparent(AndroidLScanner::low_latency());
        assert_transparent(IosScanner);
    }

    #[test]
    fn names_identify_the_wrapped_model() {
        let faulty = FaultyScanner::new(
            AndroidScanner::default(),
            FaultSchedule::none(),
            FaultSchedule::none(),
            0.0,
        );
        assert_eq!(faulty.name(), "android-4.x+faults");
    }

    #[test]
    fn dropped_receptions_are_counted_and_journalled() {
        let scanner = FaultyScanner::new(
            IosScanner,
            one_window(0, 1_000),
            FaultSchedule::none(),
            0.0,
        );
        let mut r = rng::for_component(5, "drop-count");
        let mut telemetry = Recorder::default();
        let receptions = vec![reception(100, 0), reception(500, 0), reception(1_500, 0)];
        let samples = filter(&scanner, SimTime::ZERO, &receptions, &mut r, &mut telemetry);
        assert_eq!(samples.len(), 1);
        assert_eq!(telemetry.counter(keys::SCAN_SAMPLES_DROPPED), 2);
        assert_eq!(telemetry.counter(keys::SCAN_SAMPLES), 1);
        assert!(telemetry
            .journal()
            .any(|e| matches!(e, TelemetryEvent::SampleDropped { count: 2, .. })));
    }

    #[test]
    #[should_panic(expected = "storm loss")]
    fn bad_storm_loss_panics() {
        let _ = FaultyScanner::new(
            IosScanner,
            FaultSchedule::none(),
            FaultSchedule::none(),
            1.5,
        );
    }
}
