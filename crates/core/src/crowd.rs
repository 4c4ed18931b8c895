//! Crowd-scale scenario presets: deterministic multi-subject traces far
//! from the paper's five-room house, plus the replay driver that turns
//! them into report streams.
//!
//! The counting workload (see `roomsense_net::counting`) needs ground
//! truth about *people*, not devices: how many subjects are really in each
//! room over time, which of them carry a reporting device, and what the
//! resulting report stream looks like. Three presets cover the shapes the
//! related work measures:
//!
//! * [`CrowdPreset::OpenPlanOffice`] — a 12-zone open-plan floor with
//!   staggered arrivals and meeting churn (Demrozi et al.'s aggregate
//!   office densities);
//! * [`CrowdPreset::LectureHallSurge`] — two lecture halls behind a foyer,
//!   packed by a tight arrival surge and churned by the mid-lecture break
//!   (the overload tier's motivating workload, now with ground truth);
//! * [`CrowdPreset::TraceReplay`] — a BLEBeacon-shaped real-subject
//!   replay (Sikeridis et al.): subjects enter through a lobby, wander
//!   zone to zone with heavy-tailed dwell times, leave, and sometimes
//!   come back.
//!
//! Every trace is a pure function of `(preset, subjects, seed)`: subjects
//! draw from [`rng::for_indexed`] streams, so traces are identical at any
//! `ROOMSENSE_THREADS` and any generation order.

use rand::Rng;
use roomsense_ibeacon::{BeaconIdentity, Major, Minor, ProximityUuid};
use roomsense_net::{DeviceId, ObservationReport, RoomLabel, SightedBeacon};
use roomsense_sim::{exec, rng, FaultSchedule, SimDuration, SimTime};

/// The three crowd presets, in sweep order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrowdPreset {
    /// A 12-zone open-plan office floor: staggered morning arrivals,
    /// meeting churn, staggered departures.
    OpenPlanOffice,
    /// Two lecture halls behind a foyer: a tight arrival surge, a seated
    /// lecture, and a break that churns 40 % of the audience out.
    LectureHallSurge,
    /// A BLEBeacon-shaped real-subject replay: lobby-mediated visits with
    /// heavy-tailed zone dwells and re-entries.
    TraceReplay,
}

impl CrowdPreset {
    /// Every preset, in the order the counting sweep runs them.
    pub const ALL: [CrowdPreset; 3] = [
        CrowdPreset::OpenPlanOffice,
        CrowdPreset::LectureHallSurge,
        CrowdPreset::TraceReplay,
    ];

    /// Stable short name (experiment rows, telemetry, docs).
    pub(crate) fn name(self) -> &'static str {
        match self {
            CrowdPreset::OpenPlanOffice => "open_plan_office",
            CrowdPreset::LectureHallSurge => "lecture_hall_surge",
            CrowdPreset::TraceReplay => "trace_replay",
        }
    }

    /// The preset's canonical subject count.
    pub fn default_subjects(self) -> usize {
        match self {
            CrowdPreset::OpenPlanOffice => 144,
            CrowdPreset::LectureHallSurge => 180,
            CrowdPreset::TraceReplay => 60,
        }
    }

    /// Builds the preset's scenario at its canonical subject count.
    pub(crate) fn scenario(self, seed: u64) -> CrowdScenario {
        self.scenario_with(seed, self.default_subjects())
    }

    /// Builds the preset's scenario for an explicit subject count (tests
    /// shrink it; scale sweeps grow it).
    ///
    /// # Panics
    ///
    /// Panics if `subjects` is zero.
    pub fn scenario_with(self, seed: u64, subjects: usize) -> CrowdScenario {
        assert!(subjects > 0, "a crowd needs at least one subject");
        match self {
            CrowdPreset::OpenPlanOffice => open_plan_office(seed, subjects),
            CrowdPreset::LectureHallSurge => lecture_hall_surge(seed, subjects),
            CrowdPreset::TraceReplay => trace_replay(seed, subjects),
        }
    }
}

/// One contiguous stay in one room: `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TraceSegment {
    /// Stay start (inclusive).
    pub(crate) from: SimTime,
    /// Stay end (exclusive); the subject is outside every room between
    /// segments.
    pub(crate) until: SimTime,
    /// Room index.
    pub(crate) room: usize,
}

/// One subject's full itinerary: non-overlapping segments in time order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct SubjectTrace {
    /// The subject's stays, chronological and disjoint.
    pub(crate) segments: Vec<TraceSegment>,
}

impl SubjectTrace {
    /// The room the subject is in at `at`, or `None` when outside.
    pub(crate) fn room_at(&self, at: SimTime) -> Option<usize> {
        self.segments
            .iter()
            .find(|s| at >= s.from && at < s.until)
            .map(|s| s.room)
    }
}

/// The ground-truth occupancy trace for one crowd run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrowdTrace {
    /// Number of rooms (room indices are `0..rooms`).
    pub(crate) rooms: usize,
    /// Per-subject itineraries.
    pub(crate) subjects: Vec<SubjectTrace>,
}

impl CrowdTrace {
    /// True per-room headcounts at `at` (index = room).
    pub fn occupancy(&self, at: SimTime) -> Vec<usize> {
        let mut counts = vec![0usize; self.rooms];
        for subject in &self.subjects {
            if let Some(room) = subject.room_at(at) {
                counts[room] += 1;
            }
        }
        counts
    }

    /// Subjects inside any room at `at`.
    pub(crate) fn total_inside(&self, at: SimTime) -> usize {
        self.subjects
            .iter()
            .filter(|s| s.room_at(at).is_some())
            .count()
    }
}

/// Declared counting-accuracy bounds for one preset: per-room mean
/// absolute error ceilings the `counting` gate asserts, per condition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaeBounds {
    /// Clean run (no faults, unthrottled ingest).
    pub clean: f64,
    /// Under seeded uplink-outage chaos (store-and-forward delivery).
    pub(crate) chaos: f64,
    /// Through an undersized ingestion tier driven past capacity.
    pub overload: f64,
}

/// A fully generated crowd scenario: the ground-truth trace plus the
/// reporting parameters the replay driver and the estimator share.
#[derive(Debug, Clone, PartialEq)]
pub struct CrowdScenario {
    /// The preset this came from.
    pub preset: CrowdPreset,
    /// Number of rooms.
    pub rooms: usize,
    /// Probability a subject carries a reporting device.
    pub carry_rate: f64,
    /// Per-device report period while inside.
    pub(crate) report_period: SimDuration,
    /// Run length.
    pub duration: SimDuration,
    /// Declared per-room MAE ceilings for the counting gate.
    pub mae_bounds: MaeBounds,
    /// Ground truth.
    pub trace: CrowdTrace,
}

impl CrowdScenario {
    /// Subjects in the scenario.
    pub fn subjects(&self) -> usize {
        self.trace.subjects.len()
    }
}

/// Clamps a segment into `[.., duration]` and pushes it if non-empty.
fn push_segment(segments: &mut Vec<TraceSegment>, from: u64, until: u64, end: u64, room: usize) {
    let until = until.min(end);
    if until > from {
        segments.push(TraceSegment {
            from: SimTime::from_secs(from),
            until: SimTime::from_secs(until),
            room,
        });
    }
}

fn open_plan_office(seed: u64, subjects: usize) -> CrowdScenario {
    const ROOMS: usize = 12;
    const DURATION_S: u64 = 2400;
    let traces = (0..subjects)
        .map(|i| {
            let mut r = rng::for_indexed(seed, "crowd-office", i as u64);
            let mut segments = Vec::new();
            let arrive = r.gen_range(0..600u64);
            let leave = DURATION_S - r.gen_range(0..240u64);
            let home = r.gen_range(0..ROOMS);
            let mut cursor = arrive;
            while cursor < leave {
                let desk = cursor + r.gen_range(300..900u64);
                push_segment(&mut segments, cursor, desk, leave, home);
                cursor = desk;
                if cursor >= leave {
                    break;
                }
                // Half the breaks are meetings in another zone; the rest
                // leave the floor briefly (coffee, corridor).
                if r.gen_range(0.0..1.0) < 0.5 {
                    let meeting = (home + r.gen_range(1..ROOMS)) % ROOMS;
                    let until = cursor + r.gen_range(180..480u64);
                    push_segment(&mut segments, cursor, until, leave, meeting);
                    cursor = until;
                } else {
                    cursor += r.gen_range(60..240u64);
                }
            }
            SubjectTrace { segments }
        })
        .collect();
    CrowdScenario {
        preset: CrowdPreset::OpenPlanOffice,
        rooms: ROOMS,
        carry_rate: 0.85,
        report_period: SimDuration::from_secs(60),
        duration: SimDuration::from_secs(DURATION_S),
        mae_bounds: MaeBounds {
            clean: 2.75,
            chaos: 4.0,
            overload: 3.5,
        },
        trace: CrowdTrace {
            rooms: ROOMS,
            subjects: traces,
        },
    }
}

fn lecture_hall_surge(seed: u64, subjects: usize) -> CrowdScenario {
    const ROOMS: usize = 3; // 0 = foyer, 1 = hall A, 2 = hall B
    const DURATION_S: u64 = 2400;
    const LECTURE_END_S: u64 = 1500;
    let traces = (0..subjects)
        .map(|i| {
            let mut r = rng::for_indexed(seed, "crowd-lecture", i as u64);
            let mut segments = Vec::new();
            let arrive = r.gen_range(0..240u64);
            let through_foyer = arrive + r.gen_range(20..90u64);
            push_segment(&mut segments, arrive, through_foyer, DURATION_S, 0);
            let hall = if r.gen_range(0.0..1.0) < 0.65 { 1 } else { 2 };
            push_segment(
                &mut segments,
                through_foyer,
                LECTURE_END_S,
                DURATION_S,
                hall,
            );
            if r.gen_range(0.0..1.0) < 0.4 {
                // Leaves at the break, through the foyer.
                let exit = LECTURE_END_S + r.gen_range(30..120u64);
                push_segment(&mut segments, LECTURE_END_S, exit, DURATION_S, 0);
            } else {
                let back = LECTURE_END_S + 120 + r.gen_range(0..60u64);
                push_segment(&mut segments, LECTURE_END_S, back, DURATION_S, 0);
                let out = 2280 + r.gen_range(0..120u64);
                push_segment(&mut segments, back, out, DURATION_S, hall);
            }
            SubjectTrace { segments }
        })
        .collect();
    CrowdScenario {
        preset: CrowdPreset::LectureHallSurge,
        rooms: ROOMS,
        carry_rate: 0.8,
        report_period: SimDuration::from_secs(60),
        duration: SimDuration::from_secs(DURATION_S),
        mae_bounds: MaeBounds {
            clean: 9.0,
            chaos: 18.0,
            overload: 14.0,
        },
        trace: CrowdTrace {
            rooms: ROOMS,
            subjects: traces,
        },
    }
}

fn trace_replay(seed: u64, subjects: usize) -> CrowdScenario {
    const ROOMS: usize = 10; // 0 = lobby, 1..10 = zones
    const DURATION_S: u64 = 3600;
    let traces = (0..subjects)
        .map(|i| {
            let mut r = rng::for_indexed(seed, "crowd-replay-trace", i as u64);
            let mut segments = Vec::new();
            let mut cursor = r.gen_range(0..1800u64);
            let visits = if r.gen_range(0.0..1.0) < 0.35 { 2 } else { 1 };
            for _ in 0..visits {
                if cursor >= DURATION_S {
                    break;
                }
                // In through the lobby…
                let into = cursor + r.gen_range(20..60u64);
                push_segment(&mut segments, cursor, into, DURATION_S, 0);
                cursor = into;
                // …a few zone dwells with a heavy tail…
                for _ in 0..r.gen_range(1..4usize) {
                    if cursor >= DURATION_S {
                        break;
                    }
                    let zone = r.gen_range(1..ROOMS);
                    let mut dwell = r.gen_range(60..240u64);
                    if r.gen_range(0.0..1.0) < 0.1 {
                        dwell *= 4; // the long-stay tail real traces show
                    }
                    push_segment(&mut segments, cursor, cursor + dwell, DURATION_S, zone);
                    cursor += dwell;
                }
                // …and out through the lobby again.
                let out = cursor + r.gen_range(10..40u64);
                push_segment(&mut segments, cursor, out, DURATION_S, 0);
                cursor = out + r.gen_range(300..900u64);
            }
            SubjectTrace { segments }
        })
        .collect();
    CrowdScenario {
        preset: CrowdPreset::TraceReplay,
        rooms: ROOMS,
        carry_rate: 0.9,
        report_period: SimDuration::from_secs(60),
        duration: SimDuration::from_secs(DURATION_S),
        mae_bounds: MaeBounds {
            clean: 1.5,
            chaos: 3.0,
            overload: 2.5,
        },
        trace: CrowdTrace {
            rooms: ROOMS,
            subjects: traces,
        },
    }
}

/// Which subjects carry a reporting device: one seeded draw per subject,
/// independent of the itinerary and replay streams.
pub(crate) fn carriers(scenario: &CrowdScenario, seed: u64) -> Vec<bool> {
    (0..scenario.subjects())
        .map(|i| {
            let mut r = rng::for_indexed(seed, "crowd-carry", i as u64);
            r.gen_range(0.0..1.0) < scenario.carry_rate
        })
        .collect()
}

/// A synthetic report that names its room directly: one sighted beacon
/// (the example UUID, major 1) whose minor is `room`, at `distance_m`.
/// [`room_of`] reads the room back.
pub(crate) fn room_report(
    device: DeviceId,
    seq: u64,
    at: SimTime,
    room: u16,
    distance_m: f64,
) -> ObservationReport {
    ObservationReport {
        device,
        seq,
        at,
        beacons: vec![SightedBeacon {
            identity: BeaconIdentity {
                uuid: ProximityUuid::example(),
                major: Major::new(1),
                minor: Minor::new(room),
            },
            distance_m,
        }],
    }
}

/// The estimator for [`room_report`] streams: the minor of the report's
/// first beacon is its room, and a report with no beacon has none. Used
/// as `Arc::new(crowd::room_of)`.
pub(crate) fn room_of(report: &ObservationReport) -> Option<RoomLabel> {
    report
        .beacons
        .first()
        .map(|b| b.identity.minor.value() as usize)
}

/// The replay driver: turns a scenario into the report stream its carried
/// devices would produce — one report per period while the subject is
/// inside, beacon minor = room, distance jittered per report. Device `i`
/// is subject `i`; non-carriers produce nothing. Deterministic at any
/// thread count (per-subject [`rng::for_indexed`] streams under
/// [`exec::par_map_indexed`]), returned sorted by `(time, device, seq)`.
pub fn replay_reports(scenario: &CrowdScenario, seed: u64) -> Vec<ObservationReport> {
    let carried = carriers(scenario, seed);
    let subject_ids: Vec<usize> = (0..scenario.subjects()).collect();
    let period_ms = scenario.report_period.as_millis();
    let duration_ms = scenario.duration.as_millis();
    let mut reports: Vec<ObservationReport> = exec::par_map_indexed(&subject_ids, |_, &i| {
        if !carried[i] {
            return Vec::new();
        }
        let mut r = rng::for_indexed(seed, "crowd-replay", i as u64);
        let phase = r.gen_range(0..period_ms);
        let mut seq = 0u64;
        let mut out = Vec::new();
        let mut t = phase;
        while t < duration_ms {
            let at = SimTime::from_millis(t);
            // The distance draw stays in the stream even while the subject
            // is outside, so a subject's in-room reports do not depend on
            // how long they were away.
            let distance_m = r.gen_range(0.5..4.0);
            if let Some(room) = scenario.trace.subjects[i].room_at(at) {
                seq += 1;
                out.push(room_report(
                    DeviceId::new(i as u32),
                    seq,
                    at,
                    room as u16,
                    distance_m,
                ));
            }
            t += period_ms;
        }
        out
    })
    .into_iter()
    .flatten()
    .collect();
    reports.sort_by_key(|r| (r.at, r.device, r.seq));
    reports
}

/// Store-and-forward delivery through uplink outages: a report produced
/// inside an outage window is held and delivered when the window ends
/// (its own timestamp unchanged — the BMS orders by *report* time).
/// Per-device delivery order is preserved, so dedup and LWW semantics see
/// the same stream an outage-surviving queue would hand them. Returns
/// `(deliver_at, report)` sorted by `(deliver_at, device, seq)`.
pub fn delayed_by_outages(
    reports: &[ObservationReport],
    outages: &FaultSchedule,
) -> Vec<(SimTime, ObservationReport)> {
    let mut delivered: Vec<(SimTime, ObservationReport)> = reports
        .iter()
        .map(|report| {
            let deliver = outages
                .windows()
                .iter()
                .find(|w| w.contains(report.at))
                .map_or(report.at, |w| w.until);
            (deliver, report.clone())
        })
        .collect();
    delivered.sort_by_key(|(deliver, r)| (*deliver, r.device, r.seq));
    delivered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_deterministic() {
        for preset in CrowdPreset::ALL {
            let a = preset.scenario_with(7, 24);
            let b = preset.scenario_with(7, 24);
            assert_eq!(a, b, "{} trace not reproducible", preset.name());
            assert_ne!(
                a,
                preset.scenario_with(8, 24),
                "{} trace ignores the seed",
                preset.name()
            );
        }
    }

    #[test]
    fn segments_are_chronological_and_in_range() {
        for preset in CrowdPreset::ALL {
            let scenario = preset.scenario_with(11, 40);
            for subject in &scenario.trace.subjects {
                let mut cursor = SimTime::ZERO;
                for segment in &subject.segments {
                    assert!(segment.from >= cursor, "segments overlap");
                    assert!(segment.until > segment.from, "empty segment");
                    assert!(segment.room < scenario.rooms, "room out of range");
                    assert!(
                        segment.until <= SimTime::ZERO + scenario.duration,
                        "segment past the end"
                    );
                    cursor = segment.until;
                }
            }
        }
    }

    #[test]
    fn surge_actually_surges() {
        let scenario = CrowdPreset::LectureHallSurge.scenario(3);
        let early = scenario.trace.total_inside(SimTime::from_secs(30));
        let seated = scenario.trace.total_inside(SimTime::from_secs(800));
        assert!(seated > scenario.subjects() * 9 / 10, "hall never filled");
        assert!(early < seated / 2, "no arrival surge");
        let occupancy = scenario.trace.occupancy(SimTime::from_secs(800));
        assert!(occupancy[1] > occupancy[2], "hall A should dominate");
    }

    #[test]
    fn replay_reports_are_ordered_and_room_tagged() {
        let scenario = CrowdPreset::TraceReplay.scenario_with(5, 20);
        let reports = replay_reports(&scenario, 5);
        assert!(!reports.is_empty());
        for pair in reports.windows(2) {
            assert!(
                (pair[0].at, pair[0].device, pair[0].seq)
                    <= (pair[1].at, pair[1].device, pair[1].seq)
            );
        }
        for report in &reports {
            let subject = report.device.value() as usize;
            let truth = scenario.trace.subjects[subject].room_at(report.at);
            assert_eq!(
                truth.map(|room| room as u16),
                Some(report.beacons[0].identity.minor.value()),
                "report tagged with the wrong room"
            );
        }
    }

    #[test]
    fn replay_is_thread_invariant() {
        let scenario = CrowdPreset::OpenPlanOffice.scenario_with(9, 32);
        let seq = exec::with_thread_override(1, || replay_reports(&scenario, 9));
        let par = exec::with_thread_override(4, || replay_reports(&scenario, 9));
        assert_eq!(seq, par);
    }

    #[test]
    fn outage_delay_preserves_device_order() {
        use roomsense_sim::FaultWindow;
        let scenario = CrowdPreset::OpenPlanOffice.scenario_with(13, 16);
        let reports = replay_reports(&scenario, 13);
        let outages = FaultSchedule::new(vec![FaultWindow::new(
            SimTime::from_secs(600),
            SimTime::from_secs(900),
        )]);
        let delivered = delayed_by_outages(&reports, &outages);
        assert_eq!(delivered.len(), reports.len(), "delay must not drop");
        let mut last_seq = std::collections::BTreeMap::new();
        for (deliver, report) in &delivered {
            assert!(*deliver >= report.at);
            assert!(
                !outages.active_at(*deliver) || *deliver == report.at,
                "delivered inside an outage"
            );
            let prev = last_seq.insert(report.device, report.seq);
            assert!(prev.is_none_or(|p| p < report.seq), "device order broken");
        }
    }
}
