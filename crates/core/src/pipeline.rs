//! The end-to-end phone pipeline: radio → scanner → aggregation → tracks.

use crate::config::MEDIAN_FILTER_WINDOW;
use crate::{FaultPlan, FilterKind, PipelineConfig, Scenario, ScannerKind};
use roomsense_building::mobility::MobilityModel;
use roomsense_building::RoomId;
use roomsense_geom::Point;
use roomsense_signal::{
    aggregate_cycle, BayesFilter, EwmaFilter, KalmanFilter, MedianFilter, Observation,
    TrackManager, TrackSnapshot,
};
use roomsense_sim::{rng, SimDuration, SimTime};
use roomsense_stack::{
    run_scan_recorded, simulate_receptions_faulty_recorded, AndroidLScanner, AndroidScanner,
    IosScanner,
};
use roomsense_telemetry::{keys, Recorder, SpanTimer};
use std::fmt;

/// The output of one scan cycle with ground truth attached.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleRecord {
    /// Cycle end time (when the app processes the batch).
    pub at: SimTime,
    /// Raw per-beacon observations this cycle (before smoothing).
    pub observations: Vec<Observation>,
    /// Smoothed per-beacon tracks after this cycle.
    pub snapshots: Vec<TrackSnapshot>,
    /// Where the occupant actually was at cycle end.
    pub true_position: Point,
    /// Which room that is (`None` = outside every room).
    pub true_room: Option<RoomId>,
}

impl fmt::Display for CycleRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} raw, {} tracked, truth {:?}",
            self.at,
            self.observations.len(),
            self.snapshots.len(),
            self.true_room
        )
    }
}

/// Runs one phone through a scenario for `duration`, following `mobility`.
///
/// `seed` names the stochastic streams (advertising jitter, fading, scanner
/// stalls) so runs are exactly reproducible; different seeds give
/// independent trials.
///
/// This is the paper's Fig 2 client path end to end: the returned records
/// carry both the raw Android observations (Fig 4/6 material) and the
/// EWMA-smoothed tracks (Fig 5/7/8 material), with ground truth for
/// classification experiments (Fig 9). It is [`run_pipeline_faulted`] with
/// [`FaultPlan::none`] and the telemetry discarded, and it is the
/// single-device oracle the batched fleet is tested against.
pub fn run_pipeline<M: MobilityModel + ?Sized>(
    scenario: &Scenario,
    config: &PipelineConfig,
    mobility: &M,
    duration: SimDuration,
    seed: u64,
) -> Vec<CycleRecord> {
    run_pipeline_faulted(
        scenario,
        config,
        mobility,
        duration,
        seed,
        &FaultPlan::none(scenario.advertisers().len()),
        &mut Recorder::default(),
    )
}

/// Like [`run_pipeline`], but with a [`FaultPlan`] injected at every layer
/// and pipeline telemetry recorded into `telemetry`.
///
/// Beacons go dark or sag per `faults.transmitter`, the phone's adapter
/// stalls and storms per the scanner schedules. (The plan's *uplink* faults
/// apply when reports are sent, not here — wrap the transport in
/// [`roomsense_net::FaultyTransport`] with the plan's schedules.) The
/// recorder receives radio reception counts, scanner windows/stalls/dedup,
/// the fault layer's dropped samples (`scan.samples_dropped`), filter holds
/// and drops, and the simulated span each stage covered (`stage.*_ms`).
///
/// Recording never draws from the seeded RNG streams, and with
/// [`FaultPlan::none`] the records are exactly [`run_pipeline`]'s.
///
/// # Panics
///
/// Panics if the plan's transmitter list does not match the scenario's
/// beacon count.
pub fn run_pipeline_faulted<M: MobilityModel + ?Sized>(
    scenario: &Scenario,
    config: &PipelineConfig,
    mobility: &M,
    duration: SimDuration,
    seed: u64,
    faults: &FaultPlan,
    telemetry: &mut Recorder,
) -> Vec<CycleRecord> {
    let from = SimTime::ZERO;
    let until = from + duration;
    let mut radio_rng = rng::for_indexed(seed, "pipeline-radio", scenario.seed());
    let radio_span = SpanTimer::start(keys::STAGE_RADIO_MS, from);
    let receptions = simulate_receptions_faulty_recorded(
        scenario.channel(),
        scenario.advertisers(),
        &faults.transmitter,
        &config.device,
        |t| mobility.position_at(t),
        from,
        until,
        &mut radio_rng,
        telemetry,
    );
    radio_span.stop(telemetry, until);
    let mut scan_rng = rng::for_indexed(seed, "pipeline-scan", scenario.seed());
    let scan_span = SpanTimer::start(keys::STAGE_SCAN_MS, from);
    let cycles = match config.scanner {
        ScannerKind::Android { stall_probability } => run_scan_recorded(
            &receptions,
            &faults.scanner(AndroidScanner::new(stall_probability)),
            config.scan,
            from,
            until,
            &mut scan_rng,
            telemetry,
        ),
        ScannerKind::AndroidL => run_scan_recorded(
            &receptions,
            &faults.scanner(AndroidLScanner::low_latency()),
            config.scan,
            from,
            until,
            &mut scan_rng,
            telemetry,
        ),
        ScannerKind::Ios => run_scan_recorded(
            &receptions,
            &faults.scanner(IosScanner),
            config.scan,
            from,
            until,
            &mut scan_rng,
            telemetry,
        ),
    };
    scan_span.stop(telemetry, until);
    let track_span = SpanTimer::start(keys::STAGE_TRACK_MS, from);
    let records = records_from_cycles_recorded(scenario, config, mobility, &cycles, telemetry);
    track_span.stop(telemetry, until);
    records
}

/// One [`TrackManager`] per configured [`FilterKind`] — the static dispatch
/// point both the scalar pipeline and the batched fleet path share, so the
/// two stay bit-for-bit equivalent for every filter, not just EWMA.
#[derive(Debug, Clone)]
pub(crate) enum FilterTracks {
    /// The paper's EWMA tracks (the default path — construction is
    /// identical to the pre-`FilterKind` pipeline).
    Ewma(TrackManager<EwmaFilter>),
    /// Kalman tracks with indoor defaults.
    Kalman(TrackManager<KalmanFilter>),
    /// Median tracks over [`MEDIAN_FILTER_WINDOW`] cycles.
    Median(TrackManager<MedianFilter>),
    /// Grid Bayes tracks; the support grid seed derives from the scenario
    /// seed so every run over the scenario shares one discretisation.
    Bayes(TrackManager<BayesFilter>),
}

impl FilterTracks {
    pub(crate) fn for_scenario(config: &PipelineConfig, scenario: &Scenario) -> Self {
        match config.filter {
            FilterKind::Ewma => FilterTracks::Ewma(TrackManager::new(EwmaFilter::new(
                config.filter_coefficient,
                config.loss_policy,
            ))),
            FilterKind::Kalman => FilterTracks::Kalman(TrackManager::new(
                KalmanFilter::indoor_default().with_policy(config.loss_policy),
            )),
            FilterKind::Median => FilterTracks::Median(TrackManager::new(
                MedianFilter::new(MEDIAN_FILTER_WINDOW).with_policy(config.loss_policy),
            )),
            FilterKind::Bayes => FilterTracks::Bayes(TrackManager::new(BayesFilter::new(
                64,
                50.0,
                rng::derive_seed(scenario.seed(), "bayes-filter-grid"),
                config.loss_policy,
            ))),
        }
    }

    pub(crate) fn update_cycle_into_recorded(
        &mut self,
        at: SimTime,
        observations: &[Observation],
        telemetry: &mut Recorder,
        snaps: &mut Vec<TrackSnapshot>,
    ) {
        match self {
            FilterTracks::Ewma(t) => t.update_cycle_into_recorded(at, observations, telemetry, snaps),
            FilterTracks::Kalman(t) => t.update_cycle_into_recorded(at, observations, telemetry, snaps),
            FilterTracks::Median(t) => t.update_cycle_into_recorded(at, observations, telemetry, snaps),
            FilterTracks::Bayes(t) => t.update_cycle_into_recorded(at, observations, telemetry, snaps),
        }
    }

    fn update_cycle_recorded(
        &mut self,
        at: SimTime,
        observations: &[Observation],
        telemetry: &mut Recorder,
    ) -> Vec<TrackSnapshot> {
        let mut snaps = Vec::new();
        self.update_cycle_into_recorded(at, observations, telemetry, &mut snaps);
        snaps
    }
}

fn records_from_cycles_recorded<M: MobilityModel + ?Sized>(
    scenario: &Scenario,
    config: &PipelineConfig,
    mobility: &M,
    cycles: &[roomsense_stack::ScanCycleReport],
    telemetry: &mut Recorder,
) -> Vec<CycleRecord> {
    let ranging = scenario.ranging_config();
    let mut tracks = FilterTracks::for_scenario(config, scenario);
    let mut records = Vec::with_capacity(cycles.len());
    for cycle in cycles {
        let observations = aggregate_cycle(cycle, config.aggregation, &ranging);
        let snapshots = tracks.update_cycle_recorded(cycle.end, &observations, telemetry);
        let true_position = mobility.position_at(cycle.end);
        records.push(CycleRecord {
            at: cycle.end,
            observations,
            snapshots,
            true_position,
            true_room: scenario.plan().room_at(true_position),
        });
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use roomsense_building::mobility::{StaticPosition, WaypointWalk};
    use roomsense_building::presets;
    use roomsense_geom::Polyline;
    use roomsense_ibeacon::Minor;

    fn corridor_scenario() -> Scenario {
        Scenario::from_plan(presets::two_transmitter_corridor(), 42)
    }

    #[test]
    fn cycle_count_matches_duration() {
        let records = run_pipeline(
            &corridor_scenario(),
            &PipelineConfig::paper_android(),
            &StaticPosition::new(Point::new(2.5, 1.0)),
            SimDuration::from_secs(20),
            1,
        );
        assert_eq!(records.len(), 10);
    }

    #[test]
    fn static_near_west_beacon_tracks_it_closer() {
        let scenario = corridor_scenario();
        let records = run_pipeline(
            &scenario,
            &PipelineConfig::paper_android(),
            &StaticPosition::new(Point::new(1.5, 1.0)), // 1 m from west beacon
            SimDuration::from_secs(120),
            2,
        );
        let west = Minor::new(0);
        let east = Minor::new(1);
        let mut west_ds = Vec::new();
        let mut east_ds = Vec::new();
        for r in &records {
            for s in &r.snapshots {
                if s.identity.minor == west {
                    west_ds.push(s.distance_m);
                } else if s.identity.minor == east {
                    east_ds.push(s.distance_m);
                }
            }
        }
        assert!(!west_ds.is_empty(), "west beacon must be tracked");
        let west_mean: f64 = west_ds.iter().sum::<f64>() / west_ds.len() as f64;
        if !east_ds.is_empty() {
            let east_mean: f64 = east_ds.iter().sum::<f64>() / east_ds.len() as f64;
            assert!(west_mean < east_mean, "west {west_mean} east {east_mean}");
        }
        assert!(west_mean < 4.0, "west mean {west_mean} too far");
    }

    #[test]
    fn ground_truth_follows_the_walk() {
        let scenario = corridor_scenario();
        let path = Polyline::new(vec![Point::new(1.0, 1.0), Point::new(11.0, 1.0)])
            .expect("valid path");
        let walk = WaypointWalk::new(path, 1.0, SimTime::ZERO);
        let records = run_pipeline(
            &scenario,
            &PipelineConfig::paper_android(),
            &walk,
            SimDuration::from_secs(10),
            3,
        );
        assert_eq!(records[0].true_room, Some(RoomId::new(0))); // west end
        assert_eq!(
            records.last().expect("non-empty").true_room,
            Some(RoomId::new(1))
        ); // east end
    }

    #[test]
    fn same_seed_same_records() {
        let scenario = corridor_scenario();
        let run = || {
            run_pipeline(
                &scenario,
                &PipelineConfig::paper_android(),
                &StaticPosition::new(Point::new(2.0, 1.0)),
                SimDuration::from_secs(30),
                9,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seeds_differ() {
        let scenario = corridor_scenario();
        let run = |seed| {
            run_pipeline(
                &scenario,
                &PipelineConfig::paper_android(),
                &StaticPosition::new(Point::new(2.0, 1.0)),
                SimDuration::from_secs(30),
                seed,
            )
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn beacon_outage_starves_its_tracks() {
        use roomsense_radio::TransmitterFault;
        use roomsense_sim::{FaultSchedule, FaultWindow};
        let scenario = corridor_scenario();
        let position = StaticPosition::new(Point::new(2.0, 1.0));
        // Kill the west beacon (index 0) for the whole run.
        let mut plan = FaultPlan::none(scenario.advertisers().len());
        plan.transmitter[0] = TransmitterFault::new(
            FaultSchedule::new(vec![FaultWindow::new(
                SimTime::ZERO,
                SimTime::from_secs(600),
            )]),
            FaultSchedule::none(),
            0.0,
        );
        let records = run_pipeline_faulted(
            &scenario,
            &PipelineConfig::paper_android(),
            &position,
            SimDuration::from_secs(60),
            6,
            &plan,
            &mut Recorder::default(),
        );
        let west = Minor::new(0);
        assert!(records
            .iter()
            .flat_map(|r| r.observations.iter())
            .all(|o| o.identity.minor != west));
    }

    #[test]
    fn faulted_pipeline_is_deterministic() {
        let scenario = corridor_scenario();
        let plan = FaultPlan::generate(
            scenario.advertisers().len(),
            SimDuration::from_secs(60),
            0.6,
            13,
        );
        let position = StaticPosition::new(Point::new(2.0, 1.0));
        let run = || {
            run_pipeline_faulted(
                &scenario,
                &PipelineConfig::paper_android(),
                &position,
                SimDuration::from_secs(60),
                13,
                &plan,
                &mut Recorder::default(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn recorded_pipeline_matches_plain_and_fills_telemetry() {
        let scenario = corridor_scenario();
        let position = StaticPosition::new(Point::new(2.0, 1.0));
        let plain = run_pipeline(
            &scenario,
            &PipelineConfig::paper_android(),
            &position,
            SimDuration::from_secs(30),
            9,
        );
        let mut telemetry = Recorder::default();
        let recorded = run_pipeline_faulted(
            &scenario,
            &PipelineConfig::paper_android(),
            &position,
            SimDuration::from_secs(30),
            9,
            &FaultPlan::none(scenario.advertisers().len()),
            &mut telemetry,
        );
        // Recording must not perturb any RNG stream.
        assert_eq!(plain, recorded);
        assert_eq!(telemetry.counter(keys::SCAN_CYCLES), 15);
        assert!(telemetry.counter(keys::RADIO_RX_RECEIVED) > 0);
        assert!(telemetry.counter(keys::SCAN_WINDOWS) > 0);
        // Each stage covered the full 30 s simulated span exactly once.
        for key in [keys::STAGE_RADIO_MS, keys::STAGE_SCAN_MS, keys::STAGE_TRACK_MS] {
            let span = telemetry.histogram(key).expect("stage span recorded");
            assert_eq!(span.count(), 1);
            assert_eq!(span.sum(), 30_000.0);
        }
    }

    #[test]
    fn ios_sees_more_samples_per_cycle_than_android() {
        let scenario = corridor_scenario();
        let position = StaticPosition::new(Point::new(1.5, 1.0));
        let total_samples = |cfg: &PipelineConfig| -> usize {
            run_pipeline(&scenario, cfg, &position, SimDuration::from_secs(30), 5)
                .iter()
                .flat_map(|r| r.observations.iter())
                .map(|o| o.sample_count)
                .sum()
        };
        let android = total_samples(&PipelineConfig::paper_android());
        let ios = total_samples(&PipelineConfig::paper_ios());
        assert!(ios > android * 5, "ios {ios} android {android}");
    }
}
