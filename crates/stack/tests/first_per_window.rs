//! The first-per-window radio against the full radio, both followed by the
//! Android scanner.
//!
//! When the scanner keeps only the first reception per advertiser per
//! restart window, `simulate_receptions_into` evaluates each advertiser's
//! packets only up to its first reception in a window and replays the
//! draws of the rest. The Android scanner must then deliver the same
//! samples from the same draws as after the full radio: sample bits, cycle
//! spans, the next draw of both RNG streams and every telemetry key except
//! the radio's packet counts and the scanner's dedup count, which count
//! only what was evaluated and delivered.

use proptest::prelude::*;
use rand::Rng;
use roomsense_geom::{Point, Segment};
use roomsense_ibeacon::{Major, MeasuredPower, Minor, Packet, ProximityUuid};
use roomsense_radio::{
    Advertiser, Channel, DeviceRxProfile, Environment, Interferer, TransmitterFault,
    TransmitterProfile, Wall, WallMaterial,
};
use roomsense_sim::{rng, FaultSchedule, FaultWindow, SimDuration, SimTime};
use roomsense_stack::{
    run_scan_into, simulate_receptions_into, AndroidScanner, CycleSpan, FaultyScanner,
    PlacedAdvertiser, RadioScratch, RestartWindows, ScanConfig, ScanScratch, ScannerModel,
};
use roomsense_telemetry::{keys, Recorder};

const MATERIALS: [WallMaterial; 5] = [
    WallMaterial::Drywall,
    WallMaterial::WoodDoor,
    WallMaterial::Brick,
    WallMaterial::Concrete,
    WallMaterial::Glass,
];

/// A half-metre lattice point on a 12 m × 8 m floor.
fn lattice((x, y): (u8, u8)) -> Point {
    Point::new(f64::from(x) / 2.0, f64::from(y) / 2.0)
}

/// A wall between two lattice points, of one of the [`MATERIALS`].
type LatticeWall = ((u8, u8), (u8, u8), usize);

/// Walls on the lattice, and optionally a duty-cycled interferer in the
/// middle of the floor.
fn channel(walls: &[LatticeWall], interferer: bool) -> Channel {
    let mut env = Environment::free_space();
    for &(a, b, material) in walls {
        env.add_wall(Wall::new(
            Segment::new(lattice(a), lattice(b)),
            MATERIALS[material],
        ));
    }
    if interferer {
        env.add_interferer(Interferer::new(
            Point::new(6.0, 4.0),
            5.0,
            SimDuration::from_millis(250),
            0.5,
            0.4,
        ));
    }
    Channel::new(env)
}

/// Four beacons advertising every 30–135 ms, so a restart window holds
/// several packets of each. With `shared_identity` the last one sends the
/// first one's packet, so the scanner's dedup, keyed on identity, spans
/// two advertisers.
fn beacons(jitter_ms: u64, shared_identity: bool) -> Vec<PlacedAdvertiser> {
    [(2.0, 5.0), (6.0, 5.0), (10.0, 5.0), (3.0, 3.0)]
        .into_iter()
        .enumerate()
        .map(|(i, (x, y))| {
            let minor = if shared_identity && i == 3 {
                0
            } else {
                i as u16
            };
            PlacedAdvertiser {
                advertiser: Advertiser::with_jitter(
                    Packet::new(
                        ProximityUuid::example(),
                        Major::new(1),
                        Minor::new(minor),
                        MeasuredPower::new(-59),
                    ),
                    SimDuration::from_millis(30 + 35 * i as u64),
                    SimDuration::from_millis(jitter_ms),
                ),
                profile: TransmitterProfile::default(),
                position: Point::new(x, y),
            }
        })
        .collect()
}

/// A window `[from_s, from_s + len_ms)`, or no window.
fn schedule(window: Option<(u64, u64)>) -> FaultSchedule {
    match window {
        Some((from_s, len_ms)) => FaultSchedule::new(vec![FaultWindow::new(
            SimTime::from_secs(from_s),
            SimTime::from_secs(from_s) + SimDuration::from_millis(len_ms),
        )]),
        None => FaultSchedule::none(),
    }
}

/// A receiver standing at `start`, or walking one leg per second through
/// the offsets (in decimetres).
fn position_at(start: (u8, u8), legs: &[(i8, i8)], walking: bool, t: SimTime) -> Point {
    let mut at = lattice(start);
    if !walking || legs.is_empty() {
        return at;
    }
    let leg_s = t.as_secs_f64();
    let whole = leg_s.floor() as usize;
    for (i, &(dx, dy)) in legs.iter().cycle().take(whole + 1).enumerate() {
        let share = if i < whole { 1.0 } else { leg_s - whole as f64 };
        at = Point::new(
            at.x + f64::from(dx) / 10.0 * share,
            at.y + f64::from(dy) / 10.0 * share,
        );
    }
    at
}

/// One radio run and one scan over it, from fresh streams of `seed`.
struct Run {
    samples: Vec<(SimTime, String, u64)>,
    spans: Vec<CycleSpan>,
    radio_next: u64,
    scan_next: u64,
    telemetry: Recorder,
}

/// The telemetry a run must share with the full radio: every metric line
/// but the radio's packet counts and the scanner's dedup count, and the
/// whole journal.
fn shared_telemetry(telemetry: &Recorder) -> (Vec<String>, String) {
    let lines = telemetry
        .prometheus_text()
        .lines()
        .filter(|line| {
            !line.starts_with("roomsense_radio_rx_")
                && !line.starts_with("roomsense_scan_dedup_suppressed")
        })
        .map(str::to_string)
        .collect();
    (lines, telemetry.journal_jsonl())
}

proptest! {
    /// The first-per-window radio followed by the Android scanner equals
    /// the full radio followed by it, bit for bit, over random walls, an
    /// interferer, a lossy receiver, outage and degraded transmitters,
    /// jittered schedules, walking and standing receivers, restart
    /// intervals that do and do not divide the scan period, and stall
    /// probabilities 0, 0.3 and 1. The policy comes from the scanner, as in
    /// the device body, so a `FaultyScanner` with a scheduled window must
    /// answer `None` and take the full path.
    #[test]
    fn first_per_window_radio_scans_like_the_full_radio(
        walls in prop::collection::vec(((0u8..25, 0u8..17), (0u8..25, 0u8..17), 0usize..5), 0..8),
        interferer in any::<bool>(),
        loss in 0.0f64..0.3,
        tx_faults in prop::collection::vec(
            prop::option::of((0u64..10, 0u64..10, 0.5f64..15.0)),
            4..5,
        ),
        schedules in (0u64..25, any::<bool>()),
        receiver in ((0u8..25, 0u8..17), prop::collection::vec((-12i8..13, -12i8..13), 0..6), any::<bool>()),
        timing in (0usize..3, 0usize..5, 0u64..3_000, 4_000u64..14_000),
        stall in 0usize..3,
        scanner_faults in prop::option::of((
            prop::option::of((0u64..10, 100u64..3_000)),
            prop::option::of((0u64..10, 100u64..3_000)),
            0.0f64..1.0,
        )),
        seed in any::<u64>(),
    ) {
        let channel = channel(&walls, interferer);
        let (jitter_ms, shared_identity) = schedules;
        let advertisers = beacons(jitter_ms, shared_identity);
        let faults: Vec<TransmitterFault> = tx_faults
            .into_iter()
            .map(|f| match f {
                Some((outage_s, degraded_s, sag_db)) => TransmitterFault::new(
                    schedule(Some((outage_s, 1_500))),
                    schedule(Some((degraded_s, 3_000))),
                    sag_db,
                ),
                None => TransmitterFault::healthy(),
            })
            .collect();
        let rx = DeviceRxProfile::new("lossy", 1.0, 2.0, loss, -92.0);
        let (start, legs, walking) = receiver;
        let rx_position = |t| position_at(start, &legs, walking, t);
        let (period, restart, from_ms, span_ms) = timing;
        let scan = ScanConfig {
            scan_period: SimDuration::from_millis([2_000, 3_000, 5_000][period]),
        };
        let android = AndroidScanner::new([0.0, 0.3, 1.0][stall])
            .with_restart_interval(SimDuration::from_millis([500, 700, 1_000, 2_000, 3_000][restart]));
        let (stalls, storms, storm_loss) = scanner_faults.unwrap_or((None, None, 0.0));
        let scanner = FaultyScanner::new(android, schedule(stalls), schedule(storms), storm_loss);
        let benign = stalls.is_none() && storms.is_none();
        prop_assert_eq!(
            scanner.first_per_window(),
            benign.then(|| android.restart_interval())
        );
        let from = SimTime::from_millis(from_ms);
        let until = from + SimDuration::from_millis(span_ms);

        let run = |keep: Option<RestartWindows>| {
            let mut radio_rng = rng::for_component(seed, "first-per-window-radio");
            let mut scan_rng = rng::for_component(seed, "first-per-window-scan");
            let mut telemetry = Recorder::default();
            let mut receptions = Vec::new();
            simulate_receptions_into(
                &channel,
                &advertisers,
                &faults,
                &rx,
                rx_position,
                from,
                until,
                &mut radio_rng,
                keep,
                &mut telemetry,
                &mut RadioScratch::new(),
                &mut receptions,
            );
            let (mut scratch, mut spans) = (ScanScratch::new(), Vec::new());
            run_scan_into(
                &receptions,
                &scanner,
                scan,
                from,
                until,
                &mut scan_rng,
                &mut telemetry,
                &mut scratch,
                &mut spans,
            );
            Run {
                samples: scratch
                    .samples
                    .iter()
                    .map(|s| (s.at, format!("{:?}/{:?}", s.identity, s.measured_power), s.rssi_dbm.to_bits()))
                    .collect(),
                spans,
                radio_next: radio_rng.gen(),
                scan_next: scan_rng.gen(),
                telemetry,
            }
        };
        let full = run(None);
        let lazy = run(
            scanner
                .first_per_window()
                .map(|restart| RestartWindows::new(scan, restart)),
        );

        prop_assert_eq!(&lazy.samples, &full.samples);
        prop_assert_eq!(&lazy.spans, &full.spans);
        prop_assert_eq!(lazy.radio_next, full.radio_next);
        prop_assert_eq!(lazy.scan_next, full.scan_next);
        prop_assert_eq!(shared_telemetry(&lazy.telemetry), shared_telemetry(&full.telemetry));
        // Every transmitted packet is counted once on either path.
        let packets = |t: &Recorder| {
            t.counter(keys::RADIO_RX_RECEIVED)
                + t.counter(keys::RADIO_RX_LOST)
                + t.counter(keys::RADIO_RX_REPLAYED)
        };
        prop_assert_eq!(packets(&lazy.telemetry), packets(&full.telemetry));
        prop_assert_eq!(full.telemetry.counter(keys::RADIO_RX_REPLAYED), 0);
        if benign && !shared_identity {
            // Each advertiser reaches the scanner once per window at most.
            prop_assert_eq!(lazy.telemetry.counter(keys::SCAN_DEDUP_SUPPRESSED), 0);
        }
        if !benign {
            prop_assert_eq!(lazy.telemetry.checksum(), full.telemetry.checksum());
        }
    }
}
