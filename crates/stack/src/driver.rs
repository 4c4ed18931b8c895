//! Driving a receiver through the radio: receptions → scan cycles.

use crate::{Reception, RestartWindows, ScanConfig, ScanSample, ScanScratch, ScannerModel};
use rand::Rng;
use roomsense_geom::Point;
use roomsense_radio::{
    Advertiser, Channel, DeviceRxProfile, LinkBudget, Sightlines, Transmission, TransmitterFault,
    TransmitterProfile,
};
use roomsense_sim::SimTime;
use roomsense_telemetry::{keys, Recorder};

/// An advertiser installed at a fixed position.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacedAdvertiser {
    /// The transmitter's advertising behaviour and packet.
    pub advertiser: Advertiser,
    /// Its RF profile.
    pub profile: TransmitterProfile,
    /// Antenna position.
    pub position: Point,
}

/// The outcome of one scan cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanCycleReport {
    /// Cycle start (inclusive).
    pub start: SimTime,
    /// Cycle end (exclusive).
    pub end: SimTime,
    /// The samples the OS delivered for this cycle.
    pub samples: Vec<ScanSample>,
}

/// Reusable working memory for the radio: the advertising schedule buffer
/// and the sightline table, each rebuilt per advertiser in place (one
/// allocation per buffer, not one per advertiser per run).
#[derive(Debug, Clone, Default)]
pub struct RadioScratch {
    schedule: Vec<Transmission>,
    sightlines: Sightlines,
}

impl RadioScratch {
    /// A scratch with no reserved memory.
    pub fn new() -> Self {
        RadioScratch::default()
    }

    /// Total reserved capacity across internal buffers, in elements (for
    /// the debug allocation counter).
    pub fn total_capacity(&self) -> usize {
        self.schedule.capacity() + self.sightlines.capacity()
    }
}

/// One scan cycle's extent inside a flat sample batch: the samples of cycle
/// `i` are `samples[span.sample_begin..span.sample_end]` of the batch buffer
/// filled by [`run_scan_into`].
///
/// One flat `Vec<ScanSample>` per run plus one small span per cycle, instead
/// of one owned `Vec` per cycle as in [`ScanCycleReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleSpan {
    /// Cycle start (inclusive).
    pub(crate) start: SimTime,
    /// Cycle end (exclusive).
    pub end: SimTime,
    /// First index of this cycle's samples in the flat batch buffer.
    pub sample_begin: usize,
    /// One past the last index of this cycle's samples.
    pub sample_end: usize,
}

/// Simulates every advertisement that physically reaches the receiver in
/// `[from, until)`, for a receiver whose position is given by
/// `rx_position(t)`.
///
/// Each advertiser's schedule is generated independently; receptions are
/// returned sorted by time. This is [`simulate_receptions_into`] with every
/// transmitter healthy, every packet evaluated, fresh buffers and the
/// telemetry discarded.
pub fn simulate_receptions<R, F>(
    channel: &Channel,
    advertisers: &[PlacedAdvertiser],
    rx: &DeviceRxProfile,
    rx_position: F,
    from: SimTime,
    until: SimTime,
    rng: &mut R,
) -> Vec<Reception>
where
    R: Rng + ?Sized,
    F: Fn(SimTime) -> Point,
{
    let mut receptions = Vec::new();
    simulate_receptions_into(
        channel,
        advertisers,
        &vec![TransmitterFault::healthy(); advertisers.len()],
        rx,
        rx_position,
        from,
        until,
        rng,
        None,
        &mut Recorder::default(),
        &mut RadioScratch::new(),
        &mut receptions,
    );
    receptions
}

/// Adds one run's packet outcomes to `telemetry`, skipping a zero count so
/// a run that lost or replayed nothing creates no `radio.rx.lost` or
/// `radio.rx.replayed` key.
fn record_rx_counts(telemetry: &mut Recorder, received: u64, lost: u64, replayed: u64) {
    for (key, count) in [
        (keys::RADIO_RX_RECEIVED, received),
        (keys::RADIO_RX_LOST, lost),
        (keys::RADIO_RX_REPLAYED, replayed),
    ] {
        if count > 0 {
            telemetry.add(key, count);
        }
    }
}

/// The radio: the advertisements that reach a receiver at `rx_position(t)`
/// in `[from, until)`, with a [`TransmitterFault`] per advertiser. Clears
/// and fills `out`, sorted by time, and adds each run's totals of evaluated
/// packets (`radio.rx.received` / `radio.rx.lost`) and replayed ones
/// (`radio.rx.replayed`) to `telemetry` once. Recording never draws from
/// `rng`.
///
/// With `keep` `None` every packet is evaluated. With `Some(windows)` the
/// scanner downstream keeps only the first reception per advertiser per
/// cell of `windows` (a scan started at `from`; see
/// [`ScannerModel::first_per_window`]), so each advertiser's packets are
/// evaluated up to and including its first reception in a cell, and the
/// rest of that cell's packets are only replayed
/// ([`Channel::replay_sample_at`]): they take their draws but are neither
/// computed nor emitted. Every draw, and so every later packet, stays as
/// with `None`.
///
/// Per advertiser, the schedule is drawn first, then each packet draws in
/// order (collision coin, stack-loss coin, fading, noise; see
/// [`Channel::sample_rssi_with_budget_on_at`]). Transmissions scheduled
/// inside an outage window never happen and are not counted — they never
/// reached the air. Transmissions inside a degraded window go out at
/// reduced power, which both weakens the recorded RSSI and pushes marginal
/// links below the receiver's sensitivity. With every fault
/// [`TransmitterFault::healthy`] this is the plain radio.
///
/// The deterministic part of each packet (path loss, walls, shadowing) is
/// paid as follows: the advertiser's wall terms once per run (a sightline
/// table in `scratch`), and the [`LinkBudget`] once per receiver position
/// and effective transmitter profile (a static receiver evaluates it once;
/// a degraded-power window changes the profile mid-run). Both only skip
/// recomputing pure functions of unchanged inputs.
///
/// # Panics
///
/// Panics if `faults` is not exactly one entry per advertiser.
#[allow(clippy::too_many_arguments)]
pub fn simulate_receptions_into<R, F>(
    channel: &Channel,
    advertisers: &[PlacedAdvertiser],
    faults: &[TransmitterFault],
    rx: &DeviceRxProfile,
    rx_position: F,
    from: SimTime,
    until: SimTime,
    rng: &mut R,
    keep: Option<RestartWindows>,
    telemetry: &mut Recorder,
    scratch: &mut RadioScratch,
    out: &mut Vec<Reception>,
) where
    R: Rng + ?Sized,
    F: Fn(SimTime) -> Point,
{
    assert_eq!(
        advertisers.len(),
        faults.len(),
        "need exactly one TransmitterFault per advertiser"
    );
    out.clear();
    let (mut lost, mut replayed) = (0u64, 0u64);
    for (placed, fault) in advertisers.iter().zip(faults) {
        placed
            .advertiser
            .schedule_into(from, until, rng, &mut scratch.schedule);
        scratch
            .sightlines
            .aim(channel.environment(), placed.position);
        let mut cached: Option<(TransmitterProfile, Point, LinkBudget)> = None;
        // The end of the cell of this advertiser's latest kept reception:
        // its packets before it only replay their draws. The schedule runs
        // forward in time, so one bound per advertiser suffices.
        let mut kept_until = from;
        for tx_event in &scratch.schedule {
            if !fault.transmits_at(tx_event.at) {
                continue;
            }
            if tx_event.at < kept_until {
                channel.replay_sample_at(tx_event.at, rx, || rx_position(tx_event.at), rng);
                replayed += 1;
                continue;
            }
            let profile = fault.profile_at(tx_event.at, &placed.profile);
            let rx_pos = rx_position(tx_event.at);
            let budget = match cached {
                Some((p, pos, budget)) if p == profile && pos == rx_pos => budget,
                _ => {
                    let budget =
                        channel.link_budget_from(&scratch.sightlines, &profile, rx, rx_pos);
                    cached = Some((profile, rx_pos, budget));
                    budget
                }
            };
            if let Some(rssi) = channel.sample_rssi_with_budget_on_at(
                tx_event.at,
                &budget,
                rx,
                rx_pos,
                tx_event.channel,
                rng,
            ) {
                out.push(Reception {
                    at: tx_event.at,
                    packet: *placed.advertiser.packet(),
                    rssi_dbm: rssi,
                    channel: tx_event.channel,
                });
                if let Some(windows) = keep {
                    kept_until = windows.window_end(from, tx_event.at);
                }
            } else {
                lost += 1;
            }
        }
    }
    record_rx_counts(telemetry, out.len() as u64, lost, replayed);
    out.sort_by_key(|r| r.at);
}

/// Groups receptions into scan cycles and runs the scanner model on each.
///
/// Cycles tile `[from, until)` back to back at `config.scan_period`; a final
/// partial cycle is included. This is [`run_scan_into`] with fresh buffers
/// and the telemetry discarded, each cycle's samples copied into its own
/// report.
///
/// # Examples
///
/// ```
/// use roomsense_geom::Point;
/// use roomsense_ibeacon::{Major, MeasuredPower, Minor, Packet, ProximityUuid};
/// use roomsense_radio::{Advertiser, Channel, DeviceRxProfile, Environment, TransmitterProfile};
/// use roomsense_sim::{rng, SimDuration, SimTime};
/// use roomsense_stack::{run_scan, simulate_receptions, AndroidScanner, PlacedAdvertiser, ScanConfig};
///
/// let channel = Channel::new(Environment::free_space());
/// let packet = Packet::new(ProximityUuid::example(), Major::new(1), Minor::new(0),
///                          MeasuredPower::new(-59));
/// let placed = PlacedAdvertiser {
///     advertiser: Advertiser::new(packet, SimDuration::from_millis(33)),
///     profile: TransmitterProfile::default(),
///     position: Point::new(0.0, 0.0),
/// };
/// let mut r = rng::for_component(1, "doc");
/// let receptions = simulate_receptions(
///     &channel, &[placed], &DeviceRxProfile::ideal(),
///     |_| Point::new(2.0, 0.0), SimTime::ZERO, SimTime::from_secs(10), &mut r);
/// let cycles = run_scan(&receptions, &AndroidScanner::new(0.0),
///                       ScanConfig::default(), SimTime::ZERO, SimTime::from_secs(10), &mut r);
/// // 10 s at a 2 s period = 5 cycles, one sample each (Section V's example).
/// assert_eq!(cycles.len(), 5);
/// let total: usize = cycles.iter().map(|c| c.samples.len()).sum();
/// assert_eq!(total, 5);
/// ```
///
/// # Panics
///
/// Panics if `config.scan_period` is zero.
pub fn run_scan<M, R>(
    receptions: &[Reception],
    model: &M,
    config: ScanConfig,
    from: SimTime,
    until: SimTime,
    rng: &mut R,
) -> Vec<ScanCycleReport>
where
    M: ScannerModel,
    R: Rng + ?Sized,
{
    let (mut scratch, mut spans) = (ScanScratch::new(), Vec::new());
    let mut telemetry = Recorder::default();
    run_scan_into(
        receptions,
        model,
        config,
        from,
        until,
        rng,
        &mut telemetry,
        &mut scratch,
        &mut spans,
    );
    spans
        .iter()
        .map(|span| ScanCycleReport {
            start: span.start,
            end: span.end,
            samples: scratch.samples[span.sample_begin..span.sample_end].to_vec(),
        })
        .collect()
}

/// The scan driver: groups `receptions` (sorted by time) into scan cycles
/// tiling `[from, until)` at `config.scan_period`, a final partial cycle
/// included, and runs the scanner model on each. All samples land back to
/// back in `scratch.samples` and `spans` records each cycle's extent (both
/// cleared on entry). Counts cycles (`scan.cycles`) and the scanner model's
/// per-cycle telemetry into `telemetry`; recording never draws from `rng`.
///
/// # Panics
///
/// Panics if `config.scan_period` is zero.
#[allow(clippy::too_many_arguments)]
pub fn run_scan_into<M, R>(
    receptions: &[Reception],
    model: &M,
    config: ScanConfig,
    from: SimTime,
    until: SimTime,
    rng: &mut R,
    telemetry: &mut Recorder,
    scratch: &mut ScanScratch,
    spans: &mut Vec<CycleSpan>,
) where
    M: ScannerModel,
    R: Rng + ?Sized,
{
    assert!(
        !config.scan_period.is_zero(),
        "scan period must be non-zero"
    );
    scratch.samples.clear();
    spans.clear();
    let mut start = from;
    let mut idx = 0usize;
    while start < until {
        let end = (start + config.scan_period).min(until);
        // Receptions are sorted; take the slice within [start, end).
        let begin = idx;
        while idx < receptions.len() && receptions[idx].at < end {
            idx += 1;
        }
        telemetry.incr(keys::SCAN_CYCLES);
        let sample_begin = scratch.samples.len();
        model.filter_cycle_into(start, &receptions[begin..idx], rng, telemetry, scratch);
        spans.push(CycleSpan {
            start,
            end,
            sample_begin,
            sample_end: scratch.samples.len(),
        });
        start = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AndroidScanner, IosScanner};
    use roomsense_ibeacon::{Major, MeasuredPower, Minor, Packet, ProximityUuid};
    use roomsense_radio::Environment;
    use roomsense_sim::{rng, SimDuration};

    fn placed(minor: u16, x: f64, interval_ms: u64) -> PlacedAdvertiser {
        let packet = Packet::new(
            ProximityUuid::example(),
            Major::new(1),
            Minor::new(minor),
            MeasuredPower::new(-59),
        );
        PlacedAdvertiser {
            advertiser: Advertiser::with_jitter(
                packet,
                SimDuration::from_millis(interval_ms),
                SimDuration::ZERO,
            ),
            profile: TransmitterProfile::default(),
            position: Point::new(x, 0.0),
        }
    }

    #[test]
    fn paper_section_v_sampling_example() {
        // "having a scan period of two seconds and an iBeacon generator that
        // transmits thirty times per second, an Android device that scans
        // for ten seconds gets only five samples … an iOS device receives
        // three hundred samples".
        let channel = Channel::new(Environment::free_space());
        let adv = placed(0, 0.0, 33); // ~30 Hz
        let rx = DeviceRxProfile::ideal();
        let mut r = rng::for_component(1, "sectionv");
        let receptions = simulate_receptions(
            &channel,
            &[adv],
            &rx,
            |_| Point::new(2.0, 0.0),
            SimTime::ZERO,
            SimTime::from_secs(10),
            &mut r,
        );
        let android = run_scan(
            &receptions,
            &AndroidScanner::new(0.0),
            ScanConfig::default(),
            SimTime::ZERO,
            SimTime::from_secs(10),
            &mut r,
        );
        let ios = run_scan(
            &receptions,
            &IosScanner,
            ScanConfig::default(),
            SimTime::ZERO,
            SimTime::from_secs(10),
            &mut r,
        );
        let android_total: usize = android.iter().map(|c| c.samples.len()).sum();
        let ios_total: usize = ios.iter().map(|c| c.samples.len()).sum();
        assert_eq!(android_total, 5);
        assert!(
            (280..=310).contains(&ios_total),
            "ios got {ios_total} samples"
        );
    }

    #[test]
    fn android_sees_each_beacon_once_per_cycle() {
        let channel = Channel::new(Environment::free_space());
        let advs = vec![placed(0, 0.0, 100), placed(1, 4.0, 100)];
        let rx = DeviceRxProfile::ideal();
        let mut r = rng::for_component(2, "multi");
        let receptions = simulate_receptions(
            &channel,
            &advs,
            &rx,
            |_| Point::new(2.0, 0.0),
            SimTime::ZERO,
            SimTime::from_secs(4),
            &mut r,
        );
        let cycles = run_scan(
            &receptions,
            &AndroidScanner::new(0.0),
            ScanConfig::default(),
            SimTime::ZERO,
            SimTime::from_secs(4),
            &mut r,
        );
        for cycle in &cycles {
            assert!(cycle.samples.len() <= 2);
            let minors: Vec<u16> = cycle
                .samples
                .iter()
                .map(|s| s.identity.minor.value())
                .collect();
            let mut dedup = minors.clone();
            dedup.dedup();
            assert_eq!(minors, dedup, "duplicate advertiser in one cycle");
        }
    }

    #[test]
    fn longer_scan_period_pools_more_android_samples() {
        // The Fig 4 → Fig 6 lever: a 10 s scan period contains five 2 s
        // restart windows, so Android pools ~5 samples per beacon per cycle.
        let channel = Channel::new(Environment::free_space());
        let rx = DeviceRxProfile::ideal();
        let mut r = rng::for_component(9, "pooling");
        let receptions = simulate_receptions(
            &channel,
            &[placed(0, 0.0, 33)],
            &rx,
            |_| Point::new(2.0, 0.0),
            SimTime::ZERO,
            SimTime::from_secs(10),
            &mut r,
        );
        let cycles = run_scan(
            &receptions,
            &AndroidScanner::new(0.0),
            ScanConfig {
                scan_period: SimDuration::from_secs(10),
            },
            SimTime::ZERO,
            SimTime::from_secs(10),
            &mut r,
        );
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].samples.len(), 5);
    }

    #[test]
    fn partial_final_cycle_is_emitted() {
        let channel = Channel::new(Environment::free_space());
        let rx = DeviceRxProfile::ideal();
        let mut r = rng::for_component(3, "partial");
        let receptions = simulate_receptions(
            &channel,
            &[placed(0, 0.0, 100)],
            &rx,
            |_| Point::new(1.0, 0.0),
            SimTime::ZERO,
            SimTime::from_secs(5),
            &mut r,
        );
        let cycles = run_scan(
            &receptions,
            &IosScanner,
            ScanConfig::default(),
            SimTime::ZERO,
            SimTime::from_secs(5),
            &mut r,
        );
        assert_eq!(cycles.len(), 3); // 2 + 2 + 1 seconds
        assert_eq!(cycles[2].end, SimTime::from_secs(5));
    }

    #[test]
    fn moving_receiver_changes_rssi_trend() {
        // Walk away from the beacon: later cycles should be weaker.
        let channel = Channel::new(Environment::free_space());
        let rx = DeviceRxProfile::ideal();
        let mut r = rng::for_component(4, "moving");
        let adv = placed(0, 0.0, 33);
        let identity = adv.advertiser.packet().identity();
        let receptions = simulate_receptions(
            &channel,
            &[adv],
            &rx,
            |t| Point::new(1.0 + t.as_secs_f64(), 0.0), // 1 m/s away
            SimTime::ZERO,
            SimTime::from_secs(10),
            &mut r,
        );
        let cycles = run_scan(
            &receptions,
            &IosScanner,
            ScanConfig::default(),
            SimTime::ZERO,
            SimTime::from_secs(10),
            &mut r,
        );
        let mean_rssi = |cycle: &ScanCycleReport| {
            let xs: Vec<f64> = cycle
                .samples
                .iter()
                .filter(|s| s.identity == identity)
                .map(|s| s.rssi_dbm)
                .collect();
            assert!(
                !xs.is_empty(),
                "beacon seen in {}..{}",
                cycle.start,
                cycle.end
            );
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        let first = mean_rssi(cycles.first().expect("cycles"));
        let last = mean_rssi(cycles.last().expect("cycles"));
        assert!(first > last + 8.0, "first {first} last {last}");
    }

    /// The radio counts every transmitted packet exactly once (received +
    /// lost + replayed), and a run that loses or replays nothing creates no
    /// `radio.rx.lost` or `radio.rx.replayed` key.
    #[test]
    fn radio_counts_every_transmitted_packet_once() {
        let channel = Channel::new(Environment::free_space());
        let advs = vec![placed(0, 0.0, 100), placed(1, 4.0, 150)];
        let healthy = vec![TransmitterFault::healthy(); advs.len()];
        let (from, until) = (SimTime::ZERO, SimTime::from_secs(10));
        // Jitter-free schedules draw nothing, so any RNG replays them.
        let transmitted: usize = advs
            .iter()
            .map(|p| {
                p.advertiser
                    .schedule(from, until, &mut rng::for_component(6, "tx"))
                    .len()
            })
            .sum();
        let lossy = DeviceRxProfile::new("lossy", 0.0, 0.0, 0.3, -120.0);
        let first_per_window = Some(RestartWindows::new(
            ScanConfig::default(),
            SimDuration::from_millis(700),
        ));
        for (rx, lossless) in [(lossy, false), (DeviceRxProfile::ideal(), true)] {
            for keep in [None, first_per_window] {
                let mut oracle = Recorder::default();
                let mut receptions = Vec::new();
                simulate_receptions_into(
                    &channel,
                    &advs,
                    &healthy,
                    &rx,
                    |_| Point::new(2.0, 0.0),
                    from,
                    until,
                    &mut rng::for_component(6, "radio"),
                    keep,
                    &mut oracle,
                    &mut RadioScratch::new(),
                    &mut receptions,
                );
                let received = oracle.counter(keys::RADIO_RX_RECEIVED);
                let lost = oracle.counter(keys::RADIO_RX_LOST);
                let replayed = oracle.counter(keys::RADIO_RX_REPLAYED);
                assert_eq!(received, receptions.len() as u64);
                assert_eq!(received + lost + replayed, transmitted as u64);
                assert_eq!(lost == 0, lossless, "{} lost {lost}", rx.model);
                assert_eq!(
                    replayed > 0,
                    keep.is_some(),
                    "{} replayed {replayed}",
                    rx.model
                );
                let text = oracle.prometheus_text();
                assert_eq!(text.contains("radio_rx_lost"), !lossless);
                assert_eq!(text.contains("radio_rx_replayed"), keep.is_some());
            }
        }
    }

    #[test]
    #[should_panic(expected = "scan period")]
    fn zero_scan_period_panics() {
        let mut r = rng::for_component(5, "zero");
        let _ = run_scan(
            &[],
            &IosScanner,
            ScanConfig {
                scan_period: SimDuration::ZERO,
            },
            SimTime::ZERO,
            SimTime::from_secs(1),
            &mut r,
        );
    }
}
