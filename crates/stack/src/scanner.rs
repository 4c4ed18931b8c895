//! Scanner models: what the OS reports out of what the radio heard.

use rand::Rng;
use roomsense_ibeacon::{BeaconIdentity, MeasuredPower, Packet};
use roomsense_radio::AdvChannel;
use roomsense_sim::{SimDuration, SimTime};
use roomsense_telemetry::{keys, Recorder, TelemetryEvent};
use std::fmt;

/// One advertisement that physically reached the receiver's radio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reception {
    /// When the packet arrived.
    pub at: SimTime,
    /// The decoded packet.
    pub packet: Packet,
    /// RSSI the radio measured, in dBm.
    pub rssi_dbm: f64,
    /// Advertising channel it arrived on.
    pub channel: AdvChannel,
}

/// One RSSI sample the OS actually delivered to the application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanSample {
    /// When the underlying packet was received.
    pub at: SimTime,
    /// Which beacon it came from.
    pub identity: BeaconIdentity,
    /// The packet's calibrated measured power.
    pub measured_power: MeasuredPower,
    /// RSSI as reported by the OS, in dBm.
    pub rssi_dbm: f64,
}

impl ScanSample {
    fn from_reception(r: &Reception) -> Self {
        ScanSample {
            at: r.at,
            identity: r.packet.identity(),
            measured_power: r.packet.measured_power(),
            rssi_dbm: r.rssi_dbm,
        }
    }
}

/// Scan timing configuration.
///
/// The *scan period* (paper footnote 1: "the time used to collect samples
/// for estimating the distance") is the length of one scan cycle; the app
/// receives one batch of samples per cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanConfig {
    /// Length of one scan cycle.
    pub scan_period: SimDuration,
}

impl Default for ScanConfig {
    /// The paper's baseline 2-second scan period.
    fn default() -> Self {
        ScanConfig {
            scan_period: SimDuration::from_secs(2),
        }
    }
}

/// Reusable per-cycle working memory for the scanner models.
///
/// A `ScanScratch` owns the samples buffer, the per-window dedup and stall
/// tables and the fault layer's survivors once, and is reused cycle after
/// cycle (and device after device within a fleet chunk), so steady-state
/// cycles allocate nothing.
#[derive(Debug, Clone, Default)]
pub struct ScanScratch {
    /// The output samples. Scanner models append to it; the scan driver
    /// clears it once per run.
    pub samples: Vec<ScanSample>,
    /// Per-window dedup set: `(window, identity)` pairs already delivered.
    seen: Vec<(u64, BeaconIdentity)>,
    /// Per-window stall outcomes, in first-reception order.
    windows: Vec<(u64, bool)>,
    /// Receptions surviving scheduled faults ([`crate::FaultyScanner`]).
    pub(crate) survivors: Vec<Reception>,
}

impl ScanScratch {
    /// A scratch with no reserved memory; buffers grow on first use and are
    /// then reused.
    pub fn new() -> Self {
        ScanScratch::default()
    }

    /// Total reserved capacity across every internal buffer, in elements.
    /// The fleet samples this before and after each device: any increase is
    /// a scratch reallocation, counted by the debug allocation counter so
    /// bench regressions are attributable.
    pub fn total_capacity(&self) -> usize {
        self.samples.capacity()
            + self.seen.capacity()
            + self.windows.capacity()
            + self.survivors.capacity()
    }
}

/// The restart window `at` falls in, counted from `cycle_start`. This is
/// the one place the window rule is written: the Android dedup keys on it
/// and [`RestartWindows`] partitions the radio's packets with it.
fn restart_window(cycle_start: SimTime, at: SimTime, restart_interval: SimDuration) -> u64 {
    at.saturating_since(cycle_start).as_millis() / restart_interval.as_millis()
}

/// The (scan cycle, restart window) partition of a scan: cycles tile time
/// from the scan's start at the scan period, as
/// [`run_scan_into`](crate::run_scan_into) cuts them, and each cycle splits
/// into restart windows from its own start. When the interval does not
/// divide the period, the cycle end cuts its last window short.
///
/// The radio takes one for a scanner that keeps only the first reception
/// per advertiser per window (see [`ScannerModel::first_per_window`]).
///
/// # Examples
///
/// ```
/// use roomsense_sim::{SimDuration, SimTime};
/// use roomsense_stack::{RestartWindows, ScanConfig};
///
/// let windows = RestartWindows::new(
///     ScanConfig { scan_period: SimDuration::from_secs(5) },
///     SimDuration::from_secs(2),
/// );
/// let end = |ms| windows.window_end(SimTime::ZERO, SimTime::from_millis(ms)).as_millis();
/// assert_eq!(end(1_999), 2_000);
/// assert_eq!(end(4_500), 5_000); // the cycle end cuts the third window
/// assert_eq!(end(5_000), 7_000); // the next cycle starts its own windows
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartWindows {
    scan_period: SimDuration,
    restart_interval: SimDuration,
}

impl RestartWindows {
    /// The partition of a scan run at `scan` by a scanner restarting every
    /// `restart_interval`.
    ///
    /// # Panics
    ///
    /// Panics if the scan period or the restart interval is zero.
    pub fn new(scan: ScanConfig, restart_interval: SimDuration) -> Self {
        assert!(!scan.scan_period.is_zero(), "scan period must be non-zero");
        assert!(
            !restart_interval.is_zero(),
            "restart interval must be non-zero"
        );
        RestartWindows {
            scan_period: scan.scan_period,
            restart_interval,
        }
    }

    /// The end (exclusive) of the cell holding `at`, for a scan started at
    /// `from` (`at >= from`): every time in `[at, end)` falls in the same
    /// scan cycle and restart window as `at`.
    pub fn window_end(&self, from: SimTime, at: SimTime) -> SimTime {
        let period = self.scan_period.as_millis();
        let cycle_start =
            from + SimDuration::from_millis(at.saturating_since(from).as_millis() / period * period);
        let window = restart_window(cycle_start, at, self.restart_interval);
        (cycle_start + self.restart_interval * (window + 1)).min(cycle_start + self.scan_period)
    }
}

/// How an operating system turns radio receptions into app-visible samples.
///
/// Implementations are stateless between cycles; all state lives in the
/// receptions themselves.
pub trait ScannerModel {
    /// Filters the receptions of one scan cycle (which started at
    /// `cycle_start`) into the samples the OS reports to the app, appending
    /// them to `scratch.samples` and recording scan telemetry
    /// (`scan.windows`, `scan.stalls`, `scan.dedup_suppressed`,
    /// `scan.samples`, …) into `telemetry` as it goes. Recording never draws
    /// from `rng`.
    fn filter_cycle_into<R: Rng + ?Sized>(
        &self,
        cycle_start: SimTime,
        receptions: &[Reception],
        rng: &mut R,
        telemetry: &mut Recorder,
        scratch: &mut ScanScratch,
    );

    /// A short name for reports and logs.
    fn name(&self) -> &'static str;

    /// The restart interval when this model delivers at most the first
    /// reception per advertiser per restart window and draws nothing for
    /// the later ones, so an advertiser's receptions after its first in a
    /// window change neither the samples nor the draws. `None` (the
    /// default) when every reception may matter.
    fn first_per_window(&self) -> Option<SimDuration> {
        None
    }
}

/// The Android 4.x BLE scan behaviour.
///
/// * The OS deduplicates per **scan restart window**: `onLeScan` reports
///   each advertiser once per started scan, so apps restart the scan on a
///   timer (the classic Android 4.x workaround; the paper's 2-second value
///   is the [`ScanConfig`] default). Within one restart window the scanner
///   delivers **at most one sample per distinct advertiser** — the first
///   packet heard. A longer scan *period* therefore pools more (but still
///   few) samples per estimate, which is exactly the paper's Fig 4 → Fig 6
///   lever: "we increased the scan period to collect more sample obtaining
///   more accurate distance estimations".
/// * With probability `stall_probability`, an entire restart window is
///   lost: the adapter wedges and delivers nothing (the paper's "the
///   adapter sometimes looses some samples due to bugs in the software
///   stack").
///
/// # Examples
///
/// ```
/// use roomsense_stack::{AndroidScanner, ScannerModel};
/// let scanner = AndroidScanner::default();
/// assert!(scanner.stall_probability() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AndroidScanner {
    stall_probability: f64,
    restart_interval: SimDuration,
}

impl AndroidScanner {
    /// Creates a scanner with the given per-restart-window stall
    /// probability and the default 2-second restart interval.
    ///
    /// # Panics
    ///
    /// Panics if the probability is outside `[0, 1]`.
    pub fn new(stall_probability: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&stall_probability),
            "stall probability must be in [0, 1] (got {stall_probability})"
        );
        AndroidScanner {
            stall_probability,
            restart_interval: SimDuration::from_secs(2),
        }
    }

    /// Overrides the restart interval (how often the app restarts the scan
    /// to defeat the per-scan deduplication; default 2 s).
    ///
    /// # Panics
    ///
    /// Panics if the interval is zero.
    #[must_use]
    pub fn with_restart_interval(mut self, restart_interval: SimDuration) -> Self {
        assert!(
            !restart_interval.is_zero(),
            "restart interval must be non-zero"
        );
        self.restart_interval = restart_interval;
        self
    }

    /// A bug-free Android stack (still one-sample-per-advertiser per
    /// restart window, but no stalls) — the structural limit alone.
    pub fn reliable() -> Self {
        AndroidScanner::new(0.0)
    }

    /// The per-restart-window stall probability.
    pub fn stall_probability(&self) -> f64 {
        self.stall_probability
    }

    /// The scan restart interval.
    pub fn restart_interval(&self) -> SimDuration {
        self.restart_interval
    }
}

impl Default for AndroidScanner {
    /// 5% of restart windows stall — consistent with the sample losses the
    /// paper works around by holding values across one missed cycle.
    fn default() -> Self {
        AndroidScanner::new(0.05)
    }
}

impl ScannerModel for AndroidScanner {
    fn filter_cycle_into<R: Rng + ?Sized>(
        &self,
        cycle_start: SimTime,
        receptions: &[Reception],
        rng: &mut R,
        telemetry: &mut Recorder,
        scratch: &mut ScanScratch,
    ) {
        // Partition the cycle into restart windows; dedup per window. The
        // stall coin for a window is drawn exactly once, on the first
        // reception that lands in it — telemetry rides that same branch so
        // the RNG stream is untouched. A cycle holds a handful of windows
        // and beacons, so linear scans over reused vectors beat hashing.
        scratch.windows.clear();
        scratch.seen.clear();
        let appended_from = scratch.samples.len();
        for r in receptions {
            let window = restart_window(cycle_start, r.at, self.restart_interval);
            let is_stalled = match scratch.windows.iter().find(|(w, _)| *w == window) {
                Some(&(_, stall)) => stall,
                None => {
                    let stall =
                        self.stall_probability > 0.0 && rng.gen::<f64>() < self.stall_probability;
                    scratch.windows.push((window, stall));
                    telemetry.incr(keys::SCAN_WINDOWS);
                    if stall {
                        telemetry.incr(keys::SCAN_STALLS);
                        telemetry.record_event(TelemetryEvent::ScanStall {
                            at: cycle_start + self.restart_interval * window,
                            window,
                        });
                    }
                    stall
                }
            };
            if is_stalled {
                continue;
            }
            let key = (window, r.packet.identity());
            if scratch.seen.contains(&key) {
                telemetry.incr(keys::SCAN_DEDUP_SUPPRESSED);
            } else {
                scratch.seen.push(key);
                scratch.samples.push(ScanSample::from_reception(r));
            }
        }
        telemetry.add(
            keys::SCAN_SAMPLES,
            (scratch.samples.len() - appended_from) as u64,
        );
    }

    fn name(&self) -> &'static str {
        "android-4.x"
    }

    fn first_per_window(&self) -> Option<SimDuration> {
        Some(self.restart_interval)
    }
}

impl fmt::Display for AndroidScanner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "android 4.x scanner (stall {:.0}%)",
            self.stall_probability * 100.0
        )
    }
}

/// The Android 5.0 ("Android L") scan behaviour — the paper's Section IX
/// future work, implemented.
///
/// "Google announced the release of Android L OS … that promises to correct
/// some of the bugs related to Bluetooth present in Android 4.4". API 21's
/// `ScanSettings` low-latency mode delivers a callback **per received
/// advertisement** (like iOS); batched mode trades latency for power by
/// delivering accumulated results every `report_delay`.
///
/// # Examples
///
/// ```
/// use roomsense_sim::SimDuration;
/// use roomsense_stack::{AndroidLScanner, ScannerModel};
///
/// let low_latency = AndroidLScanner::low_latency();
/// let batched = AndroidLScanner::batched(SimDuration::from_millis(500));
/// assert_eq!(low_latency.name(), "android-l");
/// assert_eq!(batched.name(), "android-l");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AndroidLScanner {
    /// `None` = low-latency mode; `Some(d)` = batch results every `d`.
    report_delay: Option<SimDuration>,
}

impl AndroidLScanner {
    /// Low-latency mode: every advertisement is reported as it arrives.
    pub fn low_latency() -> Self {
        AndroidLScanner { report_delay: None }
    }

    /// Batched mode: results accumulate and are delivered together every
    /// `report_delay`, each sample timestamped at its batch boundary.
    ///
    /// # Panics
    ///
    /// Panics if `report_delay` is zero.
    pub fn batched(report_delay: SimDuration) -> Self {
        assert!(!report_delay.is_zero(), "report delay must be non-zero");
        AndroidLScanner {
            report_delay: Some(report_delay),
        }
    }

    /// The batching delay, if batched.
    pub fn report_delay(&self) -> Option<SimDuration> {
        self.report_delay
    }
}

impl Default for AndroidLScanner {
    fn default() -> Self {
        AndroidLScanner::low_latency()
    }
}

impl ScannerModel for AndroidLScanner {
    fn filter_cycle_into<R: Rng + ?Sized>(
        &self,
        cycle_start: SimTime,
        receptions: &[Reception],
        _rng: &mut R,
        telemetry: &mut Recorder,
        scratch: &mut ScanScratch,
    ) {
        telemetry.add(keys::SCAN_SAMPLES, receptions.len() as u64);
        match self.report_delay {
            None => scratch
                .samples
                .extend(receptions.iter().map(ScanSample::from_reception)),
            Some(delay) => scratch.samples.extend(receptions.iter().map(|r| {
                let mut sample = ScanSample::from_reception(r);
                // Delivered at the end of the batch containing it.
                let batch = r.at.saturating_since(cycle_start).as_millis() / delay.as_millis();
                sample.at = cycle_start + delay * (batch + 1);
                sample
            })),
        }
    }

    fn name(&self) -> &'static str {
        "android-l"
    }
}

impl fmt::Display for AndroidLScanner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.report_delay {
            None => f.write_str("android L scanner (low latency)"),
            Some(d) => write!(f, "android L scanner (batched every {d})"),
        }
    }
}

/// The iOS scan behaviour: every reception is reported, so a scan cycle can
/// carry hundreds of samples per beacon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IosScanner;

impl ScannerModel for IosScanner {
    fn filter_cycle_into<R: Rng + ?Sized>(
        &self,
        _cycle_start: SimTime,
        receptions: &[Reception],
        _rng: &mut R,
        telemetry: &mut Recorder,
        scratch: &mut ScanScratch,
    ) {
        telemetry.add(keys::SCAN_SAMPLES, receptions.len() as u64);
        scratch
            .samples
            .extend(receptions.iter().map(ScanSample::from_reception));
    }

    fn name(&self) -> &'static str {
        "ios"
    }
}

impl fmt::Display for IosScanner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ios scanner")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roomsense_ibeacon::{Major, Minor, ProximityUuid};
    use roomsense_sim::rng;

    /// One cycle starting at zero through `model` into a fresh scratch.
    fn filter_recorded<M: ScannerModel, R: Rng>(
        model: &M,
        receptions: &[Reception],
        rng: &mut R,
        telemetry: &mut Recorder,
    ) -> Vec<ScanSample> {
        let mut scratch = ScanScratch::new();
        model.filter_cycle_into(SimTime::ZERO, receptions, rng, telemetry, &mut scratch);
        scratch.samples
    }

    /// [`filter_recorded`] with the telemetry discarded.
    fn filter<M: ScannerModel, R: Rng>(
        model: &M,
        receptions: &[Reception],
        rng: &mut R,
    ) -> Vec<ScanSample> {
        filter_recorded(model, receptions, rng, &mut Recorder::default())
    }

    fn reception(at_ms: u64, minor: u16, rssi: f64) -> Reception {
        Reception {
            at: SimTime::from_millis(at_ms),
            packet: Packet::new(
                ProximityUuid::example(),
                Major::new(1),
                Minor::new(minor),
                MeasuredPower::new(-59),
            ),
            rssi_dbm: rssi,
            channel: AdvChannel::Ch38,
        }
    }

    #[test]
    fn android_keeps_one_sample_per_advertiser() {
        let scanner = AndroidScanner::reliable();
        let mut r = rng::for_component(1, "scan");
        let receptions = vec![
            reception(0, 0, -60.0),
            reception(50, 0, -65.0),
            reception(80, 1, -70.0),
            reception(120, 0, -62.0),
            reception(150, 1, -71.0),
        ];
        let samples = filter(&scanner, &receptions, &mut r);
        assert_eq!(samples.len(), 2);
        // First-heard wins.
        assert_eq!(samples[0].rssi_dbm, -60.0);
        assert_eq!(samples[1].rssi_dbm, -70.0);
    }

    #[test]
    fn ios_keeps_everything() {
        let mut r = rng::for_component(1, "scan");
        let receptions: Vec<Reception> =
            (0..300).map(|i| reception(i * 30, 0, -60.0)).collect();
        let samples = filter(&IosScanner, &receptions, &mut r);
        assert_eq!(samples.len(), 300);
    }

    #[test]
    fn android_stall_rate_is_respected() {
        let scanner = AndroidScanner::new(0.3);
        let mut r = rng::for_component(2, "stall");
        let receptions = vec![reception(0, 0, -60.0)];
        let n = 10_000;
        let delivered = (0..n)
            .filter(|_| !filter(&scanner, &receptions, &mut r).is_empty())
            .count();
        let rate = delivered as f64 / n as f64;
        assert!((rate - 0.7).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn empty_cycle_yields_no_samples() {
        let mut r = rng::for_component(3, "empty");
        assert!(filter(&AndroidScanner::default(), &[], &mut r).is_empty());
        assert!(filter(&IosScanner, &[], &mut r).is_empty());
    }

    #[test]
    fn sample_copies_packet_fields() {
        let mut r = rng::for_component(4, "fields");
        let samples = filter(&IosScanner, &[reception(10, 7, -63.0)], &mut r);
        assert_eq!(samples[0].identity.minor, Minor::new(7));
        assert_eq!(samples[0].measured_power, MeasuredPower::new(-59));
        assert_eq!(samples[0].at, SimTime::from_millis(10));
    }

    #[test]
    #[should_panic(expected = "stall probability")]
    fn bad_stall_probability_panics() {
        let _ = AndroidScanner::new(1.2);
    }

    #[test]
    #[should_panic(expected = "restart interval")]
    fn zero_restart_interval_panics() {
        let _ = AndroidScanner::reliable().with_restart_interval(SimDuration::ZERO);
    }

    #[test]
    fn restart_interval_builder_is_consuming() {
        let scanner = AndroidScanner::new(0.1).with_restart_interval(SimDuration::from_secs(5));
        assert_eq!(scanner.restart_interval(), SimDuration::from_secs(5));
        assert_eq!(scanner.stall_probability(), 0.1);
    }

    #[test]
    fn recorded_filtering_accounts_for_everything() {
        use roomsense_telemetry::{keys, Recorder};
        // 4 restart windows of 2 s each: every window is counted, and
        // without stalls every reception is either delivered or suppressed
        // by the per-window dedup.
        let receptions: Vec<Reception> = (0..240)
            .map(|i| reception(i * 33, (i % 2) as u16, -60.0))
            .collect();
        let mut telemetry = Recorder::default();
        let recorded = filter_recorded(
            &AndroidScanner::new(0.3),
            &receptions,
            &mut rng::for_component(6, "recorded"),
            &mut telemetry,
        );
        assert_eq!(telemetry.counter(keys::SCAN_WINDOWS), 4);
        assert_eq!(telemetry.counter(keys::SCAN_SAMPLES), recorded.len() as u64);

        let mut clean = Recorder::default();
        let delivered = filter_recorded(
            &AndroidScanner::reliable(),
            &receptions,
            &mut rng::for_component(6, "clean"),
            &mut clean,
        );
        assert_eq!(clean.counter(keys::SCAN_STALLS), 0);
        assert_eq!(
            delivered.len() as u64 + clean.counter(keys::SCAN_DEDUP_SUPPRESSED),
            receptions.len() as u64
        );
    }

    #[test]
    fn stalled_windows_are_journalled_at_their_start() {
        use roomsense_telemetry::{keys, Recorder, TelemetryEvent};
        // Certain stall: all 4 windows wedge, nothing is delivered.
        let scanner = AndroidScanner::new(1.0);
        let receptions: Vec<Reception> = (0..240)
            .map(|i| reception(i * 33, 0, -60.0))
            .collect();
        let mut telemetry = Recorder::default();
        let samples = filter_recorded(
            &scanner,
            &receptions,
            &mut rng::for_component(7, "stalled"),
            &mut telemetry,
        );
        assert!(samples.is_empty());
        assert_eq!(telemetry.counter(keys::SCAN_WINDOWS), 4);
        assert_eq!(telemetry.counter(keys::SCAN_STALLS), 4);
        let stall_starts: Vec<u64> = telemetry
            .journal()
            .filter_map(|e| match e {
                TelemetryEvent::ScanStall { at, .. } => Some(at.as_millis()),
                _ => None,
            })
            .collect();
        assert_eq!(stall_starts, vec![0, 2_000, 4_000, 6_000]);
    }

    #[test]
    fn android_l_low_latency_matches_ios() {
        let mut r = rng::for_component(7, "android-l");
        let receptions: Vec<Reception> =
            (0..60).map(|i| reception(i * 33, 0, -60.0)).collect();
        let l = filter(&AndroidLScanner::low_latency(), &receptions, &mut r);
        let ios = filter(&IosScanner, &receptions, &mut r);
        assert_eq!(l.len(), ios.len());
        assert_eq!(l.len(), 60);
    }

    #[test]
    fn android_l_batched_quantises_timestamps() {
        let mut r = rng::for_component(8, "android-l-batch");
        let receptions = vec![
            reception(100, 0, -60.0),
            reception(450, 0, -61.0),
            reception(900, 1, -70.0),
        ];
        let scanner = AndroidLScanner::batched(SimDuration::from_millis(500));
        let samples = filter(&scanner, &receptions, &mut r);
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[0].at, SimTime::from_millis(500));
        assert_eq!(samples[1].at, SimTime::from_millis(500));
        assert_eq!(samples[2].at, SimTime::from_millis(1000));
        // Batching delays delivery but loses nothing.
        assert_eq!(samples[1].rssi_dbm, -61.0);
    }

    #[test]
    #[should_panic(expected = "report delay")]
    fn android_l_zero_delay_panics() {
        let _ = AndroidLScanner::batched(SimDuration::ZERO);
    }

    #[test]
    fn android_l_fixes_the_one_sample_limit() {
        // The paper's future-work hope, quantified: same receptions, the
        // 4.x stack keeps 1 sample (single restart window), L keeps all.
        let mut r = rng::for_component(9, "android-l-vs-4x");
        let receptions: Vec<Reception> =
            (0..30).map(|i| reception(i * 33, 0, -60.0)).collect();
        let old = filter(&AndroidScanner::reliable(), &receptions, &mut r);
        let new = filter(&AndroidLScanner::low_latency(), &receptions, &mut r);
        assert_eq!(old.len(), 1);
        assert_eq!(new.len(), 30);
    }
}
