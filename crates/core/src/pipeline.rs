//! The end-to-end phone pipeline: radio → scanner → aggregation → tracks.

use crate::config::MEDIAN_FILTER_WINDOW;
use crate::{FaultPlan, FilterKind, PipelineConfig, Scenario, ScannerKind};
use rand::RngCore;
use roomsense_building::mobility::MobilityModel;
use roomsense_building::RoomId;
use roomsense_geom::Point;
use roomsense_signal::{
    aggregate_cycle_into, AggregateScratch, BayesFilter, EwmaFilter, KalmanFilter, MedianFilter,
    Observation, TrackManager, TrackSnapshot,
};
use roomsense_sim::{rng, SimDuration, SimTime};
use roomsense_stack::{
    run_scan_into, simulate_receptions_into, AndroidLScanner, AndroidScanner, CycleSpan,
    IosScanner, RadioScratch, Reception, RestartWindows, ScanScratch, ScannerModel,
};
use roomsense_telemetry::Recorder;
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
/// [`FaultPlan::none`] and the telemetry discarded.
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
/// the fault layer's dropped samples (`scan.samples_dropped`), and filter
/// holds and drops.
///
/// Recording never draws from the seeded RNG streams, and with
/// [`FaultPlan::none`] the records are exactly [`run_pipeline`]'s. This is
/// the device body [`run_fleet`](crate::run_fleet) runs per device, here
/// with fresh working memory.
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
    run_device(
        scenario,
        config,
        mobility,
        duration,
        seed,
        faults,
        telemetry,
        &mut DeviceScratch::default(),
    )
}

/// One device's working memory, spanning every pipeline stage. The fleet
/// reuses one across a chunk's devices, so steady-state devices allocate
/// only their returned records.
#[derive(Debug, Default)]
pub(crate) struct DeviceScratch {
    radio: RadioScratch,
    receptions: Vec<Reception>,
    scan: ScanScratch,
    pub(crate) spans: Vec<CycleSpan>,
    aggregate: AggregateScratch,
}

impl DeviceScratch {
    /// Total reserved capacity across every buffer, in elements.
    pub(crate) fn total_capacity(&self) -> usize {
        self.radio.total_capacity()
            + self.receptions.capacity()
            + self.scan.total_capacity()
            + self.spans.capacity()
            + self.aggregate.total_capacity()
    }
}

/// The device body: radio → scanner → aggregation → tracks, each stage
/// working in `scratch`. The radio and the scanner draw from their own
/// seeded streams, and every stage records into `telemetry` in stage order.
/// The scanner is built first: when it keeps only the first reception per
/// advertiser per restart window, the radio evaluates only those packets
/// and replays the draws of the rest, so the samples are those of the
/// full radio.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_device<M: MobilityModel + ?Sized>(
    scenario: &Scenario,
    config: &PipelineConfig,
    mobility: &M,
    duration: SimDuration,
    seed: u64,
    faults: &FaultPlan,
    telemetry: &mut Recorder,
    scratch: &mut DeviceScratch,
) -> Vec<CycleRecord> {
    let from = SimTime::ZERO;
    let until = from + duration;
    let (android, android_l, ios);
    let scanner: &dyn ErasedScanner = match config.scanner {
        ScannerKind::Android { stall_probability } => {
            android = faults.scanner(AndroidScanner::new(stall_probability));
            &android
        }
        ScannerKind::AndroidL => {
            android_l = faults.scanner(AndroidLScanner::low_latency());
            &android_l
        }
        ScannerKind::Ios => {
            ios = faults.scanner(IosScanner);
            &ios
        }
    };
    let mut radio_rng = rng::for_indexed(seed, "pipeline-radio", scenario.seed());
    simulate_receptions_into(
        scenario.channel(),
        scenario.advertisers(),
        &faults.transmitter,
        &config.device,
        |t| mobility.position_at(t),
        from,
        until,
        &mut radio_rng,
        scanner
            .first_per_window()
            .map(|restart| RestartWindows::new(config.scan, restart)),
        telemetry,
        &mut scratch.radio,
        &mut scratch.receptions,
    );
    let mut scan_rng = rng::for_indexed(seed, "pipeline-scan", scenario.seed());
    scanner.run_scan(
        &scratch.receptions,
        config,
        from,
        until,
        &mut scan_rng,
        telemetry,
        &mut scratch.scan,
        &mut scratch.spans,
    );
    let ranging = scenario.ranging_config();
    let mut tracks = FilterTracks::for_scenario(config, scenario);
    let mut records = Vec::with_capacity(scratch.spans.len());
    for span in &scratch.spans {
        let mut observations = Vec::new();
        aggregate_cycle_into(
            span.end,
            &scratch.scan.samples[span.sample_begin..span.sample_end],
            config.aggregation,
            &ranging,
            &mut scratch.aggregate,
            &mut observations,
        );
        let mut snapshots = Vec::new();
        tracks.update_cycle_into_recorded(span.end, &observations, telemetry, &mut snapshots);
        let true_position = mobility.position_at(span.end);
        records.push(CycleRecord {
            at: span.end,
            observations,
            snapshots,
            true_position,
            true_room: scenario.plan().room_at(true_position),
        });
    }
    records
}

/// Object-safe shim over a [`ScannerModel`] and [`run_scan_into`], so the
/// device body builds its scanner once, asks it which packets the radio
/// must evaluate, and scans through one call site without monomorphizing
/// the rest of the body.
trait ErasedScanner {
    /// [`ScannerModel::first_per_window`].
    fn first_per_window(&self) -> Option<SimDuration>;

    #[allow(clippy::too_many_arguments)]
    fn run_scan(
        &self,
        receptions: &[Reception],
        config: &PipelineConfig,
        from: SimTime,
        until: SimTime,
        rng: &mut dyn RngCore,
        telemetry: &mut Recorder,
        scratch: &mut ScanScratch,
        spans: &mut Vec<CycleSpan>,
    );
}

impl<M: ScannerModel> ErasedScanner for M {
    fn first_per_window(&self) -> Option<SimDuration> {
        ScannerModel::first_per_window(self)
    }

    fn run_scan(
        &self,
        receptions: &[Reception],
        config: &PipelineConfig,
        from: SimTime,
        until: SimTime,
        rng: &mut dyn RngCore,
        telemetry: &mut Recorder,
        scratch: &mut ScanScratch,
        spans: &mut Vec<CycleSpan>,
    ) {
        run_scan_into(
            receptions, self, config.scan, from, until, rng, telemetry, scratch, spans,
        );
    }
}

/// One [`TrackManager`] per configured [`FilterKind`] — the static dispatch
/// point of the device body's track stage, so every filter, not just EWMA,
/// runs through the one body.
#[derive(Debug, Clone)]
enum FilterTracks {
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
    fn for_scenario(config: &PipelineConfig, scenario: &Scenario) -> Self {
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

    fn update_cycle_into_recorded(
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use roomsense_building::mobility::{StaticPosition, WaypointWalk};
    use roomsense_building::presets;
    use roomsense_geom::Polyline;
    use roomsense_ibeacon::Minor;
    use roomsense_telemetry::keys;

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
