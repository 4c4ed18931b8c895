//! Every scanner model against a per-cycle oracle.
//!
//! Each model has one body, `filter_cycle_into`, which appends to a reused
//! `ScanScratch` and dedups by linear scans over reused vectors. The oracle
//! here collects a fresh `Vec` per cycle: the Android dedup through a
//! `HashSet` and a `HashMap` of window stall coins, the fault layer through
//! a collected survivors `Vec`. Samples, the RNG state afterwards and the
//! telemetry checksum must all agree.

use proptest::prelude::*;
use rand::Rng;
use roomsense_ibeacon::{BeaconIdentity, Major, MeasuredPower, Minor, Packet, ProximityUuid};
use roomsense_radio::AdvChannel;
use roomsense_sim::{rng, FaultSchedule, FaultWindow, SimDuration, SimTime};
use roomsense_stack::{
    AndroidLScanner, AndroidScanner, FaultyScanner, IosScanner, Reception, ScanSample, ScanScratch,
    ScannerModel,
};
use roomsense_telemetry::{keys, Recorder, TelemetryEvent};
use std::collections::{HashMap, HashSet};

/// Which inner model a case runs.
#[derive(Debug, Clone, Copy)]
enum Inner {
    Android(AndroidScanner),
    AndroidL(AndroidLScanner),
    Ios,
}

/// The scheduled adapter faults of a [`FaultyScanner`] case.
#[derive(Debug, Clone)]
struct Faults {
    stalls: FaultSchedule,
    storms: FaultSchedule,
    storm_loss: f64,
}

fn sample(r: &Reception) -> ScanSample {
    ScanSample {
        at: r.at,
        identity: r.packet.identity(),
        measured_power: r.packet.measured_power(),
        rssi_dbm: r.rssi_dbm,
    }
}

/// One cycle of the inner model, collected into a fresh `Vec`.
fn oracle_inner<R: Rng + ?Sized>(
    inner: Inner,
    cycle_start: SimTime,
    receptions: &[Reception],
    rng: &mut R,
    telemetry: &mut Recorder,
) -> Vec<ScanSample> {
    match inner {
        Inner::Android(scanner) => {
            let restart = scanner.restart_interval();
            let stall_probability = scanner.stall_probability();
            let mut out = Vec::new();
            let mut seen: HashSet<(u64, BeaconIdentity)> = HashSet::new();
            let mut stalled: HashMap<u64, bool> = HashMap::new();
            for r in receptions {
                let window = r.at.saturating_since(cycle_start).as_millis() / restart.as_millis();
                let is_stalled = match stalled.get(&window) {
                    Some(&stall) => stall,
                    None => {
                        let stall = stall_probability > 0.0 && rng.gen::<f64>() < stall_probability;
                        stalled.insert(window, stall);
                        telemetry.incr(keys::SCAN_WINDOWS);
                        if stall {
                            telemetry.incr(keys::SCAN_STALLS);
                            telemetry.record_event(TelemetryEvent::ScanStall {
                                at: cycle_start + restart * window,
                                window,
                            });
                        }
                        stall
                    }
                };
                if is_stalled {
                    continue;
                }
                if seen.insert((window, r.packet.identity())) {
                    out.push(sample(r));
                } else {
                    telemetry.incr(keys::SCAN_DEDUP_SUPPRESSED);
                }
            }
            telemetry.add(keys::SCAN_SAMPLES, out.len() as u64);
            out
        }
        Inner::AndroidL(scanner) => {
            telemetry.add(keys::SCAN_SAMPLES, receptions.len() as u64);
            receptions
                .iter()
                .map(|r| {
                    let mut s = sample(r);
                    if let Some(delay) = scanner.report_delay() {
                        let batch =
                            r.at.saturating_since(cycle_start).as_millis() / delay.as_millis();
                        s.at = cycle_start + delay * (batch + 1);
                    }
                    s
                })
                .collect()
        }
        Inner::Ios => {
            telemetry.add(keys::SCAN_SAMPLES, receptions.len() as u64);
            receptions.iter().map(sample).collect()
        }
    }
}

/// One cycle through the optional fault layer, then the inner model.
fn oracle<R: Rng + ?Sized>(
    inner: Inner,
    faults: Option<&Faults>,
    cycle_start: SimTime,
    receptions: &[Reception],
    rng: &mut R,
    telemetry: &mut Recorder,
) -> Vec<ScanSample> {
    let Some(faults) = faults else {
        return oracle_inner(inner, cycle_start, receptions, rng, telemetry);
    };
    let survivors: Vec<Reception> = receptions
        .iter()
        .filter(|r| !faults.stalls.active_at(r.at))
        .filter(|r| {
            !(faults.storms.active_at(r.at)
                && faults.storm_loss > 0.0
                && rng.gen::<f64>() < faults.storm_loss)
        })
        .copied()
        .collect();
    let dropped = (receptions.len() - survivors.len()) as u64;
    if dropped > 0 {
        telemetry.add(keys::SCAN_SAMPLES_DROPPED, dropped);
        telemetry.record_event(TelemetryEvent::SampleDropped {
            at: cycle_start,
            count: dropped,
        });
    }
    oracle_inner(inner, cycle_start, &survivors, rng, telemetry)
}

/// Every cycle through `model`, sharing one scratch: the appended samples,
/// the next RNG draw and the telemetry checksum.
fn run_model<M: ScannerModel>(
    model: &M,
    cycles: &[(SimTime, Vec<Reception>)],
    seed: u64,
) -> (Vec<ScanSample>, u64, u64) {
    let mut r = rng::for_component(seed, "scanner-oracle");
    let mut telemetry = Recorder::default();
    let mut scratch = ScanScratch::new();
    for (start, receptions) in cycles {
        model.filter_cycle_into(*start, receptions, &mut r, &mut telemetry, &mut scratch);
    }
    (scratch.samples, r.gen(), telemetry.checksum())
}

/// [`run_model`] for the model a case describes.
fn run_case(
    inner: Inner,
    faults: Option<&Faults>,
    cycles: &[(SimTime, Vec<Reception>)],
    seed: u64,
) -> (Vec<ScanSample>, u64, u64) {
    fn wrapped<M: ScannerModel>(
        model: M,
        faults: Option<&Faults>,
        cycles: &[(SimTime, Vec<Reception>)],
        seed: u64,
    ) -> (Vec<ScanSample>, u64, u64) {
        match faults {
            None => run_model(&model, cycles, seed),
            Some(f) => run_model(
                &FaultyScanner::new(model, f.stalls.clone(), f.storms.clone(), f.storm_loss),
                cycles,
                seed,
            ),
        }
    }
    match inner {
        Inner::Android(m) => wrapped(m, faults, cycles, seed),
        Inner::AndroidL(m) => wrapped(m, faults, cycles, seed),
        Inner::Ios => wrapped(IosScanner, faults, cycles, seed),
    }
}

fn schedule(windows: &[(u64, u64)]) -> FaultSchedule {
    FaultSchedule::new(
        windows
            .iter()
            .map(|&(from_ms, len_ms)| {
                FaultWindow::new(
                    SimTime::from_millis(from_ms),
                    SimTime::from_millis(from_ms + len_ms),
                )
            })
            .collect(),
    )
}

fn bits(samples: &[ScanSample]) -> Vec<(SimTime, BeaconIdentity, i8, u64)> {
    samples
        .iter()
        .map(|s| {
            (
                s.at,
                s.identity,
                s.measured_power.dbm(),
                s.rssi_dbm.to_bits(),
            )
        })
        .collect()
}

proptest! {
    /// Every model's one body equals the collecting oracle: random
    /// receptions over several restart windows with repeated identities,
    /// restart intervals of 1–5 s, offset cycle starts, stall probabilities
    /// 0, 0.3 and 1, Android L in both modes, and optionally a fault layer
    /// with stall and storm windows.
    #[test]
    fn every_scanner_model_matches_the_collecting_oracle(
        model in 0usize..4,
        restart_s in 1u64..6,
        stall in 0usize..3,
        report_delay_ms in 100u64..3_000,
        base_ms in 0u64..5_000,
        period_ms in 1_000u64..12_000,
        cycles in prop::collection::vec(
            prop::collection::vec((0u64..12_000, 0u16..4, -95.0f64..-40.0), 0..40),
            1..4,
        ),
        faults in prop::option::of((
            prop::collection::vec((0u64..40_000, 1u64..6_000), 0..3),
            prop::collection::vec((0u64..40_000, 1u64..8_000), 0..3),
            0usize..3,
        )),
        seed in any::<u64>(),
    ) {
        let inner = match model {
            0 => Inner::Android(
                AndroidScanner::new([0.0, 0.3, 1.0][stall])
                    .with_restart_interval(SimDuration::from_secs(restart_s)),
            ),
            1 => Inner::AndroidL(AndroidLScanner::low_latency()),
            2 => Inner::AndroidL(AndroidLScanner::batched(SimDuration::from_millis(report_delay_ms))),
            _ => Inner::Ios,
        };
        let faults = faults.map(|(stalls, storms, storm_loss)| Faults {
            stalls: schedule(&stalls),
            storms: schedule(&storms),
            storm_loss: [0.0, 0.5, 1.0][storm_loss],
        });
        // Back-to-back cycles; each cycle's receptions are sorted and lie
        // inside it, as the scan driver hands them over.
        let period = SimDuration::from_millis(period_ms);
        let cycles: Vec<(SimTime, Vec<Reception>)> = cycles
            .iter()
            .enumerate()
            .map(|(k, raw)| {
                let start = SimTime::from_millis(base_ms) + period * k as u64;
                let mut receptions: Vec<Reception> = raw
                    .iter()
                    .map(|&(offset_ms, minor, rssi_dbm)| Reception {
                        at: start + SimDuration::from_millis(offset_ms % period_ms),
                        packet: Packet::new(
                            ProximityUuid::example(),
                            Major::new(1),
                            Minor::new(minor),
                            MeasuredPower::new(-59),
                        ),
                        rssi_dbm,
                        channel: AdvChannel::Ch37,
                    })
                    .collect();
                receptions.sort_by_key(|r| r.at);
                (start, receptions)
            })
            .collect();

        let mut r = rng::for_component(seed, "scanner-oracle");
        let mut telemetry = Recorder::default();
        let mut expected = Vec::new();
        for (start, receptions) in &cycles {
            expected.extend(oracle(inner, faults.as_ref(), *start, receptions, &mut r, &mut telemetry));
        }
        let expected = (bits(&expected), r.gen::<u64>(), telemetry.checksum());

        let (samples, next_draw, checksum) = run_case(inner, faults.as_ref(), &cycles, seed);
        prop_assert_eq!((bits(&samples), next_draw, checksum), expected);
    }
}
